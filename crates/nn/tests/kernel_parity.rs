//! Kernel parity: the batched MAC kernels must be **bit-identical** to a
//! sequential reference tier — a plain `i64` sum over the columns in
//! order, one sample at a time, defined locally in this suite.
//!
//! All MAC kernels accumulate exact `i64` sums of `i32 x i32` products,
//! so any reassociation — lane packing, sample batching, auto-vectorized
//! loops — is provably exact. This suite enforces that argument
//! empirically across:
//!
//! * every reduction length residue modulo eight (tails are where lane
//!   bugs live) and batch sizes 1..=9 and 33;
//! * the plain and TE-Drop (`fx_matmul_dropped`) kernels;
//! * the shapes a lowered convolution produces (odd `k²·c` depths,
//!   filter counts off the 8-grid, lanes = output positions × samples);
//! * the f64 batched forward pass versus per-sample `Mlp::forward`, for
//!   dense, conv and pool chains.

use matic_nn::kernel::{fx_matmul, fx_matmul_dropped, MacDropSpec};
use matic_nn::{Mlp, NetSpec};

/// SplitMix64: tiny deterministic stream for test data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform i32 across the full Q-format range used by the NPU.
    fn q(&mut self) -> i32 {
        (self.next() % 131073) as i32 - 65536
    }

    fn vec(&mut self, n: usize) -> Vec<i32> {
        (0..n).map(|_| self.q()).collect()
    }
}

/// The sequential reference tier: `out[r·batch + s]` is the in-order
/// `i64` sum of row `r` against lane `s`, skipping MACs that `drops`
/// flags at `(layer 1, row, col)`.
fn sequential(
    w: &[i32],
    x: &[i32],
    rows: usize,
    batch: usize,
    drops: Option<&MacDropSpec>,
) -> Vec<i64> {
    let cols = x.len() / batch;
    let mut out = Vec::with_capacity(rows * batch);
    for r in 0..rows {
        for s in 0..batch {
            let mut sum = 0i64;
            for c in 0..cols {
                if !drops.is_some_and(|d| d.dropped(1, r, c)) {
                    sum += w[r * cols + c] as i64 * x[c * batch + s] as i64;
                }
            }
            out.push(sum);
        }
    }
    out
}

/// Runs the kernel (`fx_matmul`, or `fx_matmul_dropped` at layer 1,
/// row base 0) on a `rows`-row product.
fn kernel(
    w: &[i32],
    x: &[i32],
    rows: usize,
    batch: usize,
    drops: Option<&MacDropSpec>,
) -> Vec<i64> {
    let mut out = vec![0i64; rows * batch];
    match drops {
        None => fx_matmul(w, x, batch, &mut out),
        Some(d) => fx_matmul_dropped(w, x, batch, &mut out, d, 1, 0),
    }
    out
}

const BATCHES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 33];

#[test]
fn dot_parity_at_every_residue_class() {
    let mut rng = Rng(0xA11CE);
    // Lengths 0..=67 cover every residue mod 8 several times, plus a
    // large length exercising many full lane blocks.
    for n in (0..68).chain([1021]) {
        let w = rng.vec(n);
        let x = rng.vec(n);
        assert_eq!(
            kernel(&w, &x, 1, 1, None),
            sequential(&w, &x, 1, 1, None),
            "dot len {n}"
        );
    }
}

#[test]
fn matvec_parity_at_ragged_shapes() {
    let mut rng = Rng(0xB0B);
    for (rows, cols) in [(1, 1), (3, 5), (8, 64), (17, 33), (100, 7), (64, 130)] {
        let w = rng.vec(rows * cols);
        let x = rng.vec(cols);
        assert_eq!(
            kernel(&w, &x, rows, 1, None),
            sequential(&w, &x, rows, 1, None),
            "matvec {rows}x{cols}"
        );
    }
}

#[test]
fn dropped_kernel_parity_across_tiers() {
    let mut rng = Rng(0xD0D0);
    for cols in 0..17 {
        for batch in BATCHES {
            let rows = 5;
            let w = rng.vec(rows * cols);
            let x = rng.vec(cols * batch);
            for p in [0.0, 0.25, 0.8, 1.0] {
                let drops = MacDropSpec::new(42, p);
                assert_eq!(
                    kernel(&w, &x, rows, batch, Some(&drops)),
                    sequential(&w, &x, rows, batch, Some(&drops)),
                    "dropped {rows}x{cols} batch {batch} p {p}"
                );
            }
        }
    }
}

#[test]
fn batched_matmul_parity_with_per_sample_loop() {
    let mut rng = Rng(0xBA7C);
    for cols in 0..17 {
        for batch in BATCHES {
            let rows = 10;
            let w = rng.vec(rows * cols);
            // Column-major sample lanes: x[c * batch + s].
            let x = rng.vec(cols * batch);
            let got = kernel(&w, &x, rows, batch, None);
            assert_eq!(got, sequential(&w, &x, rows, batch, None));
            // Each lane equals a batch of one over its own column.
            for s in 0..batch {
                let sample: Vec<i32> = (0..cols).map(|c| x[c * batch + s]).collect();
                let single = kernel(&w, &sample, rows, 1, None);
                let lane: Vec<i64> = got.iter().skip(s).step_by(batch).copied().collect();
                assert_eq!(lane, single, "{rows}x{cols} batch {batch} lane {s}");
            }
        }
    }
}

#[test]
fn forward_batch_parity_with_per_sample_forward() {
    // f64 forward: every lane keeps its own running sums in the
    // per-sample order, so a batch equals its samples run one at a time
    // exactly, not approximately — for dense, conv and pool stages, at
    // batch sizes on both sides of the eight-lane block.
    for (dsl, seed) in [
        ("9;14;5", 3u64),
        ("4;8;8;2", 9),
        ("4x4x1;conv3x2;dense2", 23),
        ("6x6x1;conv2x3;dense3", 29),
        ("6x6x1;conv3x2;pool2;dense3", 29),
        ("3x3x2;conv2x2;dense2", 31),
        ("8x8x1;pool2;conv2x2;dense2", 37),
        ("6x4x2;conv3x2;pool2;dense2", 41),
    ] {
        let mut net = Mlp::init(NetSpec::parse_topology(dsl).unwrap(), seed);
        // Nonzero biases, so a bias added out of order changes bits.
        for b in net.biases_mut() {
            for (r, v) in b.iter_mut().enumerate() {
                *v = (r % 3) as f64 * 0.3 - 0.25;
            }
        }
        let fan_in = net.spec().layers[0];
        let inputs: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..fan_in)
                    .map(|c| ((i * 31 + c * 17) % 101) as f64 / 101.0 - 0.4)
                    .collect()
            })
            .collect();
        let expect: Vec<Vec<f64>> = inputs.iter().map(|x| net.forward(x)).collect();
        for b in [1usize, 2, 3, 7, 8, 9, 13] {
            let refs: Vec<&[f64]> = inputs[..b].iter().map(|v| v.as_slice()).collect();
            assert_eq!(net.forward_batch(&refs), expect[..b], "{dsl} batch {b}");
        }
    }
}

#[test]
fn conv_patch_shapes_parity_across_tiers() {
    // The NPU lowers a conv layer to one fx_matmul over (filters x k²·c)
    // weight rows against an im2col patch matrix whose lanes are output
    // positions x samples. These are the adversarial shapes that never
    // arise from Table I MLPs: tiny odd reduction depths (k²·c = 1, 4,
    // 9, 12, 18, 25, 27, 50, 75, …) crossed with filter counts off the
    // 8-lane grid and lane counts off every power of two, plus the
    // dropped variant at a mid-rate mask.
    let mut rng = Rng(0xC0A7);
    let drops = MacDropSpec::new(91, 0.35);
    for kernel_side in 1usize..=5 {
        for in_c in 1usize..=3 {
            let k2c = kernel_side * kernel_side * in_c;
            for filters in [1usize, 3, 7, 8, 9, 17] {
                for (positions, samples) in [(1, 1), (9, 1), (16, 3), (25, 2)] {
                    let lanes = positions * samples;
                    let w = rng.vec(filters * k2c);
                    let patches = rng.vec(k2c * lanes);
                    for d in [None, Some(&drops)] {
                        assert_eq!(
                            kernel(&w, &patches, filters, lanes, d),
                            sequential(&w, &patches, filters, lanes, d),
                            "conv {filters}x{k2c} (k={kernel_side}, c={in_c}) lanes {lanes} \
                             drops {}",
                            d.is_some()
                        );
                    }
                }
            }
        }
    }
}
