//! The fixed-point MAC kernel: a batched, lane-packed integer matrix
//! product, plain and with TE-Drop error injection.
//!
//! The SNNAC datapath accumulates raw two's-complement products into a
//! wide register (`sum += w·x` over `i64`), which is *exact* integer
//! arithmetic — reassociating the additions cannot change the result.
//! The kernel exploits that freedom in one portable, safe
//! implementation: lanes (samples, or output positions × samples for a
//! lowered convolution) are walked in register blocks of eight `i64`
//! accumulators, each weight broadcast across a block, so the
//! accumulators stay in registers for a row's whole column walk and the
//! compiler can unroll or vectorize the block on any target. Every
//! lane's sum equals the sequential `Σ w·x` bit for bit.
//!
//! The kernels are deliberately typed on raw `i32`/`i64` slices rather
//! than on fixed-point wrapper types: callers (the NPU simulator, the
//! criterion benches) hold `matic_fixed::FxTensor`-style dense raw
//! storage and do format bookkeeping themselves, so the inner loops stay
//! free of per-element tag checks.

/// Lanes per register block of [`fx_matmul`]: eight `i64` accumulators
/// stay in registers across a whole row's column walk.
const LANES: usize = 8;

/// Checks the [`fx_matmul`] shape contract and returns `cols`.
fn lane_cols(w: &[i32], x: &[i32], batch: usize, out: &[i64]) -> usize {
    assert!(batch > 0, "fx_matmul batch must be positive");
    assert_eq!(x.len() % batch, 0, "fx_matmul input lanes mismatch");
    assert_eq!(out.len() % batch, 0, "fx_matmul output lanes mismatch");
    let cols = x.len() / batch;
    assert_eq!(
        w.len(),
        (out.len() / batch) * cols,
        "fx_matmul shape mismatch"
    );
    cols
}

/// Batched matrix product over raw fixed-point storage with lane-major
/// operands: `out[r·batch + s] = Σ_c w[r·cols + c] · x[c·batch + s]` for
/// every lane `s` in `0..batch`, exact in `i64`.
///
/// `x` holds `batch` input vectors **column-major** (`x[c·batch + s]` is
/// element `c` of lane `s` — all lanes' values for one input sit
/// contiguously), and `out` comes back in the same layout per row. Each
/// lane's sum is the exact integer dot product of its own column, so a
/// batch of one is a plain matrix-vector product and any batching gives
/// the same bits.
///
/// # Contract
///
/// `batch` must be positive; `x.len()` and `out.len()` must both be
/// whole numbers of lanes (`cols := x.len() / batch`,
/// `rows := out.len() / batch`); and `w.len()` must equal `rows · cols`
/// — that assertion is the complete length check. A `w` that factors
/// *consistently but wrongly* (say the caller swapped two dimension
/// variables whose product happens to match) is indistinguishable from a
/// correct call; shape bookkeeping belongs to the caller's tensor types.
/// `cols == 0` is a valid empty sum: `out` is zero-filled.
///
/// # Panics
///
/// Panics if `batch == 0`, if `x.len()` or `out.len()` is not a
/// multiple of `batch`, or if `w.len() != rows * cols`.
///
/// # Example
///
/// ```
/// use matic_nn::kernel::fx_matmul;
/// // Two rows, three columns, two lanes: x = [[1, 2, 3], [4, 5, 6]].
/// let w = [1, 0, 2, -1, 1, 0];
/// let x = [1, 4, 2, 5, 3, 6];
/// let mut out = [0i64; 4];
/// fx_matmul(&w, &x, 2, &mut out);
/// assert_eq!(out, [1 + 6, 4 + 12, -1 + 2, -4 + 5]);
/// ```
pub fn fx_matmul(w: &[i32], x: &[i32], batch: usize, out: &mut [i64]) {
    let cols = lane_cols(w, x, batch, out);
    if cols == 0 {
        out.fill(0);
        return;
    }
    for (wrow, orow) in w.chunks_exact(cols).zip(out.chunks_exact_mut(batch)) {
        // Whole blocks of LANES lanes: each weight is broadcast across the
        // block's accumulators, which never leave registers mid-row.
        for (block, oblock) in orow.chunks_exact_mut(LANES).enumerate() {
            let s = block * LANES;
            let mut acc = [0i64; LANES];
            for (xcol, &wv) in x.chunks_exact(batch).zip(wrow) {
                let xs: &[i32; LANES] = xcol[s..s + LANES].try_into().expect("whole block");
                for (a, &xv) in acc.iter_mut().zip(xs) {
                    *a += wv as i64 * xv as i64;
                }
            }
            oblock.copy_from_slice(&acc);
        }
        // The remaining lanes: one sequential sum each.
        for s in batch - batch % LANES..batch {
            orow[s] = x[s..]
                .iter()
                .step_by(batch)
                .zip(wrow)
                .map(|(&xv, &wv)| wv as i64 * xv as i64)
                .sum();
        }
    }
}

/// Deterministic MAC-level error-drop model (ThUnderVolt's *TE-Drop*
/// semantics): under clock-period overscaling, a multiply whose critical
/// path misses timing closure is detected by a Razor-style shadow latch
/// and its partial product is **dropped** from the accumulation — the MAC
/// still occupies its issue slot, but contributes zero.
///
/// Whether a given MAC drops is a pure function of `(seed, layer, row,
/// col)` hashed through a SplitMix64-style mixer and compared against a
/// fixed-point probability threshold. That gives the model exactly the
/// properties the differential harness needs:
///
/// * **idempotent** — re-evaluating the same coordinates always yields
///   the same verdict (no hidden RNG state);
/// * **monotone in stress** — at a fixed seed, the drop set at threshold
///   `t₁ ≤ t₂` is a subset of the drop set at `t₂`, mirroring how a
///   shorter clock period can only fail *more* paths;
/// * **schedule-free** — the verdict never depends on evaluation order,
///   so batched and reference executions agree bit-exactly.
///
/// Drops apply to weight MACs only; bias additions ride the short
/// accumulator path and always meet timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacDropSpec {
    seed: u64,
    /// Drop probability as a 0.64 fixed-point threshold in `[0, 2^64]`.
    /// `u128` so that probability 1.0 (`2^64`) is representable exactly.
    threshold: u128,
}

impl MacDropSpec {
    /// Builds a drop spec with the given seed and drop probability
    /// (clamped to `[0, 1]`; NaN is treated as 0).
    pub fn new(seed: u64, drop_probability: f64) -> Self {
        let p = if drop_probability.is_nan() {
            0.0
        } else {
            drop_probability.clamp(0.0, 1.0)
        };
        // Exact at both endpoints: p = 1.0 maps to 2^64, above every hash.
        let threshold = (p * (u128::pow(2, 64) as f64)) as u128;
        MacDropSpec { seed, threshold }
    }

    /// The drop probability this spec realizes (exact at 0 and 1).
    pub fn drop_probability(&self) -> f64 {
        self.threshold as f64 / u128::pow(2, 64) as f64
    }

    /// The seed the drop hash is keyed on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the MAC at `(layer, row, col)` misses timing and drops its
    /// partial product. Pure and schedule-free.
    #[inline]
    pub fn dropped(&self, layer: usize, row: usize, col: usize) -> bool {
        (mix_coords(self.seed, layer as u64, row as u64, col as u64) as u128) < self.threshold
    }
}

/// SplitMix64-style finalizer over the drop coordinates. Each input is
/// absorbed through the odd golden-ratio increment before the avalanche
/// rounds, so nearby coordinates decorrelate fully.
#[inline]
fn mix_coords(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`fx_matmul`] with TE-Drop error injection: MACs flagged by `drops`
/// at `(layer, row, col)` contribute zero. The verdict depends only on
/// those coordinates — never on the lane — so a dropped MAC squashes
/// that weight's product for **every** lane at once. `row_base` is the
/// global row index of the first output row, so a caller splitting the
/// rows across calls hashes the same coordinates as one whole-matrix
/// call. Same shape contract as [`fx_matmul`].
///
/// # Panics
///
/// Panics under the same conditions as [`fx_matmul`].
pub fn fx_matmul_dropped(
    w: &[i32],
    x: &[i32],
    batch: usize,
    out: &mut [i64],
    drops: &MacDropSpec,
    layer: usize,
    row_base: usize,
) {
    // `max(1)`: with no columns `w` is empty and nothing is divided.
    let cols = lane_cols(w, x, batch, out).max(1);
    // A zero weight contributes an exact zero to every lane, so squashing
    // the dropped weights and running the plain kernel is the masked sum.
    let survivors: Vec<i32> = w
        .iter()
        .enumerate()
        .map(|(i, &wv)| {
            if drops.dropped(layer, row_base + i / cols, i % cols) {
                0
            } else {
                wv
            }
        })
        .collect();
    fx_matmul(&survivors, x, batch, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential reference the hardware model defines.
    fn dot_reference(w: &[i32], x: &[i32]) -> i64 {
        w.iter().zip(x).map(|(&a, &b)| a as i64 * b as i64).sum()
    }

    /// One-row, one-lane product: a plain dot product.
    fn dot(w: &[i32], x: &[i32]) -> i64 {
        let mut out = [0i64];
        fx_matmul(w, x, 1, &mut out);
        out[0]
    }

    /// One-lane product: a plain matrix-vector product.
    fn matvec(w: &[i32], x: &[i32], rows: usize) -> Vec<i64> {
        let mut out = vec![0i64; rows];
        fx_matmul(w, x, 1, &mut out);
        out
    }

    fn matvec_dropped(
        w: &[i32],
        x: &[i32],
        rows: usize,
        d: &MacDropSpec,
        row_base: usize,
    ) -> Vec<i64> {
        let mut out = vec![0i64; rows];
        fx_matmul_dropped(w, x, 1, &mut out, d, 1, row_base);
        out
    }

    /// Lane `s` of a lane-major batch.
    fn lane<T: Copy>(v: &[T], batch: usize, s: usize) -> Vec<T> {
        v.iter().skip(s).step_by(batch).copied().collect()
    }

    #[test]
    fn dot_matches_reference_all_lengths_all_tiers() {
        for n in 0i32..70 {
            let w: Vec<i32> = (0..n).map(|i| i * 7919 % 65537 - 32768).collect();
            let x: Vec<i32> = (0..n).map(|i| i * 104729 % 65537 - 32768).collect();
            assert_eq!(dot(&w, &x), dot_reference(&w, &x), "n = {n}");
        }
    }

    #[test]
    fn dot_handles_extremes_without_overflow() {
        let w = vec![i32::from(i16::MIN); 1024];
        let x = vec![i32::from(i16::MIN); 1024];
        assert_eq!(dot(&w, &x), 1024 * (i16::MIN as i64) * (i16::MIN as i64));
    }

    #[test]
    fn matvec_matches_rowwise_reference_all_tiers() {
        let (rows, cols) = (200, 37);
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i * 3) as i32 - 50).collect();
        let out = matvec(&w, &x, rows);
        for (r, got) in out.iter().enumerate() {
            assert_eq!(*got, dot_reference(&w[r * cols..(r + 1) * cols], &x));
        }
    }

    #[test]
    fn matmul_matches_per_sample_matvec() {
        let (rows, cols) = (13, 29);
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        for batch in [1usize, 2, 3, 4, 5, 7, 8, 16, 33] {
            let x: Vec<i32> = (0..cols * batch)
                .map(|i| ((i * 37) % 509) as i32 - 254)
                .collect();
            let mut out = vec![0i64; rows * batch];
            fx_matmul(&w, &x, batch, &mut out);
            for s in 0..batch {
                let single = matvec(&w, &lane(&x, batch, s), rows);
                assert_eq!(lane(&out, batch, s), single, "batch {batch}");
            }
        }
    }

    #[test]
    fn matmul_zero_cols_zero_fills() {
        let mut out = vec![7i64; 6];
        fx_matmul(&[], &[], 3, &mut out);
        assert_eq!(out, vec![0i64; 6]);
    }

    #[test]
    fn drop_endpoints_are_exact() {
        let never = MacDropSpec::new(7, 0.0);
        let always = MacDropSpec::new(7, 1.0);
        for i in 0..64 {
            assert!(!never.dropped(0, i, i * 3));
            assert!(always.dropped(0, i, i * 3));
        }
        assert_eq!(never.drop_probability(), 0.0);
        assert_eq!(always.drop_probability(), 1.0);
    }

    #[test]
    fn dropped_dot_matches_masked_reference_all_tiers() {
        let drops = MacDropSpec::new(42, 0.35);
        let n = 97;
        let w: Vec<i32> = (0..n).map(|i| (i * 7919) % 65537 - 32768).collect();
        let x: Vec<i32> = (0..n).map(|i| (i * 104729) % 65537 - 32768).collect();
        let expect: i64 = (0..n as usize)
            .filter(|&c| !drops.dropped(1, 5, c))
            .map(|c| w[c] as i64 * x[c] as i64)
            .sum();
        assert_eq!(matvec_dropped(&w, &x, 1, &drops, 5), vec![expect]);
        assert_ne!(expect, dot_reference(&w, &x), "some MAC must have dropped");
    }

    #[test]
    fn dropped_matvec_uses_global_row_indices() {
        let drops = MacDropSpec::new(9, 0.5);
        let (rows, cols) = (10, 17);
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        let x: Vec<i32> = (0..cols).map(|i| (i * 3) as i32 - 50).collect();
        let whole = matvec_dropped(&w, &x, rows, &drops, 0);
        // Split the rows across two calls with the right row_base: same bits.
        let lo = matvec_dropped(&w[..4 * cols], &x, 4, &drops, 0);
        let hi = matvec_dropped(&w[4 * cols..], &x, rows - 4, &drops, 4);
        assert_eq!(&whole[..4], &lo[..]);
        assert_eq!(&whole[4..], &hi[..]);
    }

    #[test]
    fn dropped_matmul_matches_per_sample_dropped_matvec() {
        let drops = MacDropSpec::new(33, 0.4);
        let (rows, cols, batch) = (9, 21, 5);
        let w: Vec<i32> = (0..rows * cols).map(|i| (i % 251) as i32 - 125).collect();
        let x: Vec<i32> = (0..cols * batch)
            .map(|i| ((i * 53) % 401) as i32 - 200)
            .collect();
        let mut batched = vec![0i64; rows * batch];
        fx_matmul_dropped(&w, &x, batch, &mut batched, &drops, 1, 3);
        for s in 0..batch {
            let single = matvec_dropped(&w, &lane(&x, batch, s), rows, &drops, 3);
            assert_eq!(lane(&batched, batch, s), single, "sample {s}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dot_checks_lengths() {
        let _ = dot(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_checks_shape() {
        let _ = matvec(&[1, 2, 3], &[1], 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matvec_rejects_mismatched_input_length() {
        // x.len() participates in the shape product: a too-long input
        // vector breaks `w.len() == rows * x.len()` and must panic, not
        // silently dot a prefix.
        let _ = matvec(&[1, 2, 3, 4], &[1, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dropped_matvec_checks_shape() {
        let _ = matvec_dropped(&[1, 2, 3], &[1], 2, &MacDropSpec::new(1, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn matmul_rejects_zero_batch() {
        let mut out = vec![0i64; 2];
        fx_matmul(&[1, 2], &[1, 2], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "input lanes mismatch")]
    fn matmul_rejects_ragged_input() {
        let mut out = vec![0i64; 2];
        fx_matmul(&[1, 2], &[1, 2, 3], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "output lanes mismatch")]
    fn matmul_rejects_ragged_output() {
        let mut out = vec![0i64; 3];
        fx_matmul(&[1, 2], &[1, 2, 3, 4], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_checks_shape() {
        let mut out = vec![0i64; 4];
        fx_matmul(&[1, 2, 3], &[1, 2, 3, 4], 2, &mut out);
    }
}
