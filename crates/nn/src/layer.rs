//! Layer modules: the float-side compute behind each [`LayerSpec`] kind.
//!
//! Two free functions dispatch on a `LayerSpec` value — a static match,
//! no allocation — and are what `Mlp`'s chain walk calls per layer:
//!
//! * [`forward_lanes`] computes `act(W·x + b)` for parameterized layers,
//!   or the pooling reduction, for a whole batch held in column-major
//!   sample lanes (`x[unit·b + s]` is unit `unit` of sample `s`). Each
//!   lane accumulates its own sum in the layer's reference order —
//!   columns ascending for dense, taps `(ky, kx, c)` ascending for
//!   convolution, then the bias, then the activation — so a lane's bits
//!   never depend on the batch size or on its neighbours.
//! * [`accumulate_gradients`] is one sample's backward pass. It takes
//!   `delta` already multiplied by this layer's activation derivative,
//!   accumulates `grad_w`/`grad_b`, and writes `delta_in = Wᵀ·delta`
//!   **without** the previous layer's activation derivative (the chain
//!   walker owns that multiply — it is the seam between layers, not
//!   part of either one). `delta_in` is fully overwritten; callers need
//!   not zero it.
//!
//! Max-pooling breaks ties by first occurrence in `(ky, kx)` scan
//! order, which keeps its subgradient — and therefore training —
//! deterministic.

use crate::matrix::Matrix;
use crate::spec::LayerSpec;

/// Forward pass for one layer over `b` sample lanes: reads `x`
/// (`spec.in_width() · b` long), writes `out` (`spec.out_width() · b`
/// long), both column-major (`[unit · b + sample]`).
///
/// # Panics
///
/// Panics if `b == 0` or either buffer has the wrong length.
pub fn forward_lanes(
    spec: &LayerSpec,
    weights: &Matrix,
    bias: &[f64],
    x: &[f64],
    b: usize,
    out: &mut [f64],
) {
    assert!(b > 0, "forward_lanes needs at least one lane");
    assert_eq!(x.len(), spec.in_width() * b, "lane input width");
    assert_eq!(out.len(), spec.out_width() * b, "lane output width");
    match *spec {
        LayerSpec::Dense { act, .. } => {
            // Full blocks of eight lanes accumulate in registers; the
            // ragged tail accumulates in place. Both run each lane's
            // columns in ascending order.
            let full = b - b % 8;
            for (r, zrow) in out.chunks_exact_mut(b).enumerate() {
                let row = weights.row(r);
                let (blocks, tail) = zrow.split_at_mut(full);
                for (k, block) in blocks.chunks_exact_mut(8).enumerate() {
                    let mut acc = [0.0f64; 8];
                    for (xc, &w) in x.chunks_exact(b).zip(row) {
                        let xs: &[f64; 8] =
                            xc[8 * k..8 * k + 8].try_into().expect("an 8-lane slice");
                        for (a, xv) in acc.iter_mut().zip(xs) {
                            *a += w * xv;
                        }
                    }
                    for (zv, a) in block.iter_mut().zip(acc) {
                        *zv = act.apply(a + bias[r]);
                    }
                }
                if !tail.is_empty() {
                    tail.fill(0.0);
                    mac_lanes(row, x, b, full, tail);
                    for zv in tail {
                        *zv = act.apply(*zv + bias[r]);
                    }
                }
            }
        }
        LayerSpec::Conv2d {
            in_w,
            in_c,
            filters,
            kernel,
            act,
            ..
        } => {
            let out_w = in_w - kernel + 1;
            // Weight columns are taps (ky, kx, c), so for a fixed `ky`
            // the `kernel · in_c` taps and the input units they read
            // are both contiguous runs.
            let run = kernel * in_c;
            for (o, zrow) in out.chunks_exact_mut(b).enumerate() {
                let (pos, f) = (o / filters, o % filters);
                let (oy, ox) = (pos / out_w, pos % out_w);
                zrow.fill(0.0);
                for (ky, taps) in weights.row(f).chunks_exact(run).enumerate() {
                    let first = ((oy + ky) * in_w + ox) * in_c;
                    mac_lanes(taps, &x[first * b..], b, 0, zrow);
                }
                for zv in zrow {
                    *zv = act.apply(*zv + bias[f]);
                }
            }
        }
        LayerSpec::MaxPool {
            in_w,
            channels,
            window,
            ..
        } => {
            let out_w = in_w / window;
            for (o, zrow) in out.chunks_exact_mut(b).enumerate() {
                let (pos, c) = (o / channels, o % channels);
                let (oy, ox) = (pos / out_w, pos % out_w);
                zrow.fill(f64::NEG_INFINITY);
                for ky in 0..window {
                    for kx in 0..window {
                        let xi = ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                        for (best, &xv) in zrow.iter_mut().zip(&x[xi * b..(xi + 1) * b]) {
                            if xv > *best {
                                *best = xv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `acc[s] += Σ_c w[c] · x[c·b + lo + s]` for every lane `s` of `acc`,
/// columns ascending — one running sum per lane.
fn mac_lanes(w: &[f64], x: &[f64], b: usize, lo: usize, acc: &mut [f64]) {
    let n = acc.len();
    for (xc, &wv) in x.chunks_exact(b).zip(w) {
        for (a, xv) in acc.iter_mut().zip(&xc[lo..lo + n]) {
            *a += wv * xv;
        }
    }
}

/// Backward pass for one layer: `delta` (output-side, activation
/// derivative already applied) accumulates into `grad_w`/`grad_b` and,
/// when requested, `delta_in` is overwritten with `Wᵀ·delta` (or the
/// pooling scatter). `x` is the layer's forward input. Pass
/// `delta_in: None` for the first layer — the input needs no delta and
/// the transposed matvec is skipped entirely, as the historical dense
/// backward did.
pub fn accumulate_gradients(
    spec: &LayerSpec,
    weights: &Matrix,
    x: &[f64],
    delta: &[f64],
    grad_w: &mut Matrix,
    grad_b: &mut [f64],
    mut delta_in: Option<&mut [f64]>,
) {
    match *spec {
        LayerSpec::Dense { .. } => {
            grad_w.add_outer(delta, x);
            for (g, d) in grad_b.iter_mut().zip(delta) {
                *g += *d;
            }
            if let Some(di) = delta_in {
                weights.t_matvec_into(delta, di);
            }
        }
        LayerSpec::Conv2d {
            in_h,
            in_w,
            in_c,
            filters,
            kernel,
            ..
        } => {
            let (out_h, out_w) = (in_h - kernel + 1, in_w - kernel + 1);
            if let Some(di) = &mut delta_in {
                di.fill(0.0);
            }
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for f in 0..filters {
                        let d = delta[(oy * out_w + ox) * filters + f];
                        grad_b[f] += d;
                        let taps = weights.row(f);
                        let grads = grad_w.as_mut_slice();
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                for c in 0..in_c {
                                    let col = (ky * kernel + kx) * in_c + c;
                                    let xi = ((oy + ky) * in_w + (ox + kx)) * in_c + c;
                                    grads[f * kernel * kernel * in_c + col] += d * x[xi];
                                    if let Some(di) = &mut delta_in {
                                        di[xi] += d * taps[col];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        LayerSpec::MaxPool {
            in_h,
            in_w,
            channels,
            window,
        } => {
            let (out_h, out_w) = (in_h / window, in_w / window);
            let Some(delta_in) = delta_in else {
                return; // no parameters, nothing else to accumulate
            };
            delta_in.fill(0.0);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for c in 0..channels {
                        // Recompute the argmax from the forward input;
                        // strict `>` keeps the first maximum, matching
                        // the forward reduction.
                        let mut best = f64::NEG_INFINITY;
                        let mut arg = 0;
                        for ky in 0..window {
                            for kx in 0..window {
                                let xi =
                                    ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                                if x[xi] > best {
                                    best = x[xi];
                                    arg = xi;
                                }
                            }
                        }
                        delta_in[arg] += delta[(oy * out_w + ox) * channels + c];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect()
    }

    /// One-sample [`forward_lanes`].
    fn forward_one(spec: &LayerSpec, w: &Matrix, bias: &[f64], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; spec.out_width()];
        forward_lanes(spec, w, bias, x, 1, &mut out);
        out
    }

    #[test]
    fn dense_forward_matches_manual_matvec() {
        let spec = LayerSpec::Dense {
            inputs: 3,
            units: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0]);
        let bias = [0.5, -0.5];
        let x = [1.0, -2.0, 0.25];
        assert_eq!(
            forward_one(&spec, &w, &bias, &x),
            [1.0 - 4.0 + 0.75 + 0.5, -1.0 - 1.0 + 0.0 - 0.5]
        );
    }

    #[test]
    fn conv_forward_matches_hand_unrolled_patch() {
        // 3x3x1 input, one 2x2 filter, linear: out[oy][ox] = sum of taps.
        let spec = LayerSpec::Conv2d {
            in_h: 3,
            in_w: 3,
            in_c: 1,
            filters: 1,
            kernel: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let x = seq(9);
        let patch = |oy: usize, ox: usize| {
            1.0 * x[oy * 3 + ox]
                + 2.0 * x[oy * 3 + ox + 1]
                + 3.0 * x[(oy + 1) * 3 + ox]
                + 4.0 * x[(oy + 1) * 3 + ox + 1]
        };
        assert_eq!(
            forward_one(&spec, &w, &[0.0], &x),
            [patch(0, 0), patch(0, 1), patch(1, 0), patch(1, 1)]
        );
    }

    #[test]
    fn maxpool_forward_and_backward_route_the_argmax() {
        let spec = LayerSpec::MaxPool {
            in_h: 2,
            in_w: 2,
            channels: 1,
            window: 2,
        };
        let w = Matrix::zeros(0, 0);
        let x = [0.25, 0.75, -1.0, 0.75]; // tie between idx 1 and 3
        assert_eq!(forward_one(&spec, &w, &[], &x), [0.75]);

        let mut gw = Matrix::zeros(0, 0);
        let mut gb = [];
        let mut delta_in = [9.0; 4];
        accumulate_gradients(&spec, &w, &x, &[2.0], &mut gw, &mut gb, Some(&mut delta_in));
        // First maximum (index 1) wins the tie; everything else zeroed.
        assert_eq!(delta_in, [0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_backward_accumulates_taps_and_propagates() {
        let spec = LayerSpec::Conv2d {
            in_h: 2,
            in_w: 2,
            in_c: 1,
            filters: 1,
            kernel: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let x = [1.0, -1.0, 2.0, 0.5];
        let mut gw = Matrix::zeros(1, 4);
        let mut gb = [0.0];
        let mut delta_in = [0.0; 4];
        accumulate_gradients(&spec, &w, &x, &[3.0], &mut gw, &mut gb, Some(&mut delta_in));
        assert_eq!(gb, [3.0]);
        assert_eq!(gw.as_slice(), [3.0, -3.0, 6.0, 1.5]);
        assert_eq!(delta_in, [3.0, 6.0, 9.0, 12.0]);
    }
}
