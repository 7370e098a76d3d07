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
//! * [`backward_lanes`] is the same batch's backward pass over the same
//!   lanes. It takes `delta` already multiplied by this layer's
//!   activation derivative, writes the batch-mean `grad_w`/`grad_b`, and
//!   writes `delta_in = Wᵀ·delta` **without** the previous layer's
//!   activation derivative (the chain walker owns that multiply — it is
//!   the seam between layers, not part of either one). Every weight
//!   gradient is one running sum in (sample, output position) order
//!   before the `1/b` scale, and each lane of `delta_in` sums over output
//!   units in ascending order from 0.0, so the bits are those of a
//!   per-sample backward that accumulates into shared totals.
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
            for (r, zrow) in out.chunks_exact_mut(b).enumerate() {
                dot_lanes(weights.row(r).iter(), x, b, zrow);
                for zv in zrow {
                    *zv = act.apply(*zv + bias[r]);
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
                    mac_lanes(taps.iter(), &x[first * b..], b, 0, zrow);
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

/// `out[s] = Σ_i w_i · x[i·b + s]` for every lane `s`, `i` ascending
/// from 0.0 — one running sum per lane. Full blocks of eight lanes
/// accumulate in registers; the ragged tail accumulates in place.
fn dot_lanes<'w>(w: impl Iterator<Item = &'w f64> + Clone, x: &[f64], b: usize, out: &mut [f64]) {
    let full = b - b % 8;
    let (blocks, tail) = out.split_at_mut(full);
    for (k, block) in blocks.chunks_exact_mut(8).enumerate() {
        let mut acc = [0.0f64; 8];
        for (xc, &wv) in x.chunks_exact(b).zip(w.clone()) {
            let xs: &[f64; 8] = xc[8 * k..8 * k + 8].try_into().expect("an 8-lane slice");
            for (a, xv) in acc.iter_mut().zip(xs) {
                *a += wv * xv;
            }
        }
        block.copy_from_slice(&acc);
    }
    if !tail.is_empty() {
        tail.fill(0.0);
        mac_lanes(w, x, b, full, tail);
    }
}

/// `acc[s] += Σ_c w[c] · x[c·b + lo + s]` for every lane `s` of `acc`,
/// columns ascending — one running sum per lane.
fn mac_lanes<'w>(
    w: impl Iterator<Item = &'w f64>,
    x: &[f64],
    b: usize,
    lo: usize,
    acc: &mut [f64],
) {
    let n = acc.len();
    for (xc, &wv) in x.chunks_exact(b).zip(w) {
        for (a, xv) in acc.iter_mut().zip(&xc[lo..lo + n]) {
            *a += wv * xv;
        }
    }
}

/// Backward pass for one layer over `b` sample lanes, the reverse of
/// [`forward_lanes`]: `x` is the layer's forward input and `delta` its
/// output-side delta (activation derivative already applied), both
/// column-major (`[unit · b + sample]`). Overwrites `grad_w`/`grad_b` with
/// the batch-mean gradients and, when requested, `delta_in` with the
/// lanes of `Wᵀ·delta` (or the pooling scatter). Pass `delta_in: None`
/// for the first layer: the input needs no delta, so the transposed
/// product is skipped entirely. `rows` is scratch for a sample-major
/// copy of a dense layer's input.
///
/// Every gradient is one running sum from 0.0 in (sample, output
/// position) order, then multiplied by `1/b`; each lane of `delta_in`
/// sums its terms from 0.0 in ascending output order.
///
/// # Panics
///
/// Panics if `b == 0` or a buffer has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn backward_lanes(
    spec: &LayerSpec,
    weights: &Matrix,
    x: &[f64],
    delta: &[f64],
    b: usize,
    grad_w: &mut Matrix,
    grad_b: &mut [f64],
    delta_in: Option<&mut [f64]>,
    rows: &mut Vec<f64>,
) {
    assert!(b > 0, "backward_lanes needs at least one lane");
    assert_eq!(x.len(), spec.in_width() * b, "lane input width");
    assert_eq!(delta.len(), spec.out_width() * b, "lane delta width");
    if let Some(di) = &delta_in {
        assert_eq!(di.len(), spec.in_width() * b, "lane delta_in width");
    }
    let inv_b = 1.0 / b as f64;
    match *spec {
        LayerSpec::Dense { inputs: cols, .. } => {
            for (g, dl) in grad_b.iter_mut().zip(delta.chunks_exact(b)) {
                let mut acc = 0.0;
                for d in dl {
                    acc += d;
                }
                *g = acc * inv_b;
            }
            // A sample-major copy of the input, zero-padded to whole
            // blocks of eight columns, puts a block of one sample's
            // columns side by side: each row's gradient holds eight
            // columns in registers while it walks the samples.
            let padded = cols.div_ceil(8) * 8;
            rows.clear();
            rows.resize(padded * b, 0.0);
            for (c, lane) in x.chunks_exact(b).enumerate() {
                for (s, &v) in lane.iter().enumerate() {
                    rows[s * padded + c] = v;
                }
            }
            for (grow, dl) in grad_w
                .as_mut_slice()
                .chunks_exact_mut(cols)
                .zip(delta.chunks_exact(b))
            {
                for (k, block) in grow.chunks_mut(8).enumerate() {
                    let mut acc = [0.0f64; 8];
                    for (xs, &d) in rows.chunks_exact(padded).zip(dl) {
                        let xs: &[f64; 8] = xs[8 * k..8 * k + 8].try_into().expect("8 columns");
                        for (a, xv) in acc.iter_mut().zip(xs) {
                            *a += d * xv;
                        }
                    }
                    for (g, a) in block.iter_mut().zip(acc) {
                        *g = a * inv_b;
                    }
                }
            }
            if let Some(di) = delta_in {
                // Column `c` of W, rows ascending, against the delta lanes.
                for (c, dcol) in di.chunks_exact_mut(b).enumerate() {
                    dot_lanes(weights.as_slice()[c..].iter().step_by(cols), delta, b, dcol);
                }
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
            // Taps (ky, kx, c) run in contiguous input runs of `kernel ·
            // in_c` units per `ky`; a tap's input unit sits `tap_off(t)`
            // past its output position's patch corner.
            let run = kernel * in_c;
            let taps = kernel * run;
            let tap_off = |t: usize| t / run * in_w * in_c + t % run;
            // Output position (oy, ox) row-major: its first output unit
            // `(oy · out_w + ox) · filters` and its patch corner
            // `(oy · in_w + ox) · in_c`.
            let corner =
                |oy: usize, ox: usize| ((oy * out_w + ox) * filters, (oy * in_w + ox) * in_c);
            // Weight gradients: eight (filter, tap) sums at a time, in
            // grad_w's row-major order, each in a register across every
            // (sample, position) term. A ragged last block repeats its
            // last real chain and drops the copies.
            let gw = grad_w.as_mut_slice();
            for j0 in (0..gw.len()).step_by(8) {
                let n = (gw.len() - j0).min(8);
                let (mut d_off, mut x_off) = ([0usize; 8], [0usize; 8]);
                for k in 0..8 {
                    let j = j0 + k.min(n - 1);
                    d_off[k] = j / taps * b;
                    x_off[k] = tap_off(j % taps) * b;
                }
                let mut acc = [0.0f64; 8];
                for s in 0..b {
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let (o, xc) = corner(oy, ox);
                            let (dp, xp) = (o * b + s, xc * b + s);
                            for k in 0..8 {
                                acc[k] += delta[dp + d_off[k]] * x[xp + x_off[k]];
                            }
                        }
                    }
                }
                for (g, a) in gw[j0..j0 + n].iter_mut().zip(acc) {
                    *g = a * inv_b;
                }
            }
            // Bias gradients: the same walk over eight filters at a time.
            for f0 in (0..filters).step_by(8) {
                let n = (filters - f0).min(8);
                let d_off: [usize; 8] = std::array::from_fn(|k| (f0 + k.min(n - 1)) * b);
                let mut acc = [0.0f64; 8];
                for s in 0..b {
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let dp = corner(oy, ox).0 * b + s;
                            for k in 0..8 {
                                acc[k] += delta[dp + d_off[k]];
                            }
                        }
                    }
                }
                for (g, a) in grad_b[f0..f0 + n].iter_mut().zip(acc) {
                    *g = a * inv_b;
                }
            }
            if let Some(di) = delta_in {
                // Each input unit's contributions arrive in ascending
                // (oy, ox, f) order, every lane at once.
                di.fill(0.0);
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let (o, xc) = corner(oy, ox);
                        let dls = delta[o * b..(o + filters) * b].chunks_exact(b);
                        for (f, dl) in dls.enumerate() {
                            for (ky, wrun) in weights.row(f).chunks_exact(run).enumerate() {
                                let first = xc + ky * in_w * in_c;
                                for (xi, &w) in (first..).zip(wrun) {
                                    for (dv, d) in di[xi * b..(xi + 1) * b].iter_mut().zip(dl) {
                                        *dv += d * w;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        LayerSpec::MaxPool {
            in_w,
            channels,
            window,
            ..
        } => {
            let Some(di) = delta_in else {
                return; // no parameters, nothing else to write
            };
            let out_w = in_w / window;
            di.fill(0.0);
            for (o, dl) in delta.chunks_exact(b).enumerate() {
                let (pos, c) = (o / channels, o % channels);
                let (oy, ox) = (pos / out_w, pos % out_w);
                for (s, &d) in dl.iter().enumerate() {
                    // Recompute the lane's argmax from the forward input;
                    // strict `>` keeps the first maximum, matching the
                    // forward reduction.
                    let mut best = f64::NEG_INFINITY;
                    let mut arg = 0;
                    for ky in 0..window {
                        for kx in 0..window {
                            let xi =
                                ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                            if x[xi * b + s] > best {
                                best = x[xi * b + s];
                                arg = xi;
                            }
                        }
                    }
                    di[arg * b + s] += d;
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

    /// [`backward_lanes`] over `b` identical copies of one sample: the
    /// mean gradients, and lane 0's `delta_in` after checking every lane
    /// got the same. `delta_in` starts as `stale` to prove it is
    /// overwritten.
    fn backward_copies(
        spec: &LayerSpec,
        w: &Matrix,
        x: &[f64],
        delta: &[f64],
        b: usize,
        stale: f64,
    ) -> (Matrix, Vec<f64>, Vec<f64>) {
        let lanes = |v: &[f64]| -> Vec<f64> { v.iter().flat_map(|&u| vec![u; b]).collect() };
        let mut gw = Matrix::zeros(w.rows(), w.cols());
        let mut gb = vec![0.0; w.rows()];
        let mut delta_in = vec![stale; x.len() * b];
        backward_lanes(
            spec,
            w,
            &lanes(x),
            &lanes(delta),
            b,
            &mut gw,
            &mut gb,
            Some(&mut delta_in),
            &mut Vec::new(),
        );
        let lane0: Vec<f64> = delta_in.iter().step_by(b).copied().collect();
        assert_eq!(delta_in, lanes(&lane0), "lanes disagree at b={b}");
        (gw, gb, lane0)
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

        for b in [1, 3] {
            let (_, _, delta_in) = backward_copies(&spec, &w, &x, &[2.0], b, 9.0);
            // First maximum (index 1) wins the tie; everything else zeroed.
            assert_eq!(delta_in, [0.0, 2.0, 0.0, 0.0]);
        }
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
        for b in [1, 3] {
            let (gw, gb, delta_in) = backward_copies(&spec, &w, &x, &[3.0], b, 0.0);
            assert_eq!(gb, [3.0]);
            assert_eq!(gw.as_slice(), [3.0, -3.0, 6.0, 1.5]);
            assert_eq!(delta_in, [3.0, 6.0, 9.0, 12.0]);
        }
    }
}
