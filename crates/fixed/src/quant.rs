//! Quantization with fractional-error extraction.
//!
//! Memory-adaptive training (paper §III-B) trains on quantized weights but
//! keeps float master copies so that "gradual weight-updates … occur over
//! multiple backprop iterations". The update rule is
//!
//! ```text
//! w[n+1] = m[n] − α ∂J/∂m[n] + εq,     m[n] = Bor | (Band & Q(w[n]))
//! ```
//!
//! where `εq = w − value(Q(w))` is the *fractional quantization error*. This
//! module provides exactly that decomposition.

use crate::format::QFormat;

/// Result of quantizing a real value: the raw fixed-point word plus the
/// residual εq that the MAT update rule re-injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantized {
    /// Raw two's-complement value in the target format.
    pub raw: i32,
    /// Fractional quantization error `x − value(raw)`. Bounded by half an
    /// LSB whenever `x` is inside the representable range.
    pub residual: f64,
}

/// Quantizes `x` to the nearest representable value in `fmt`
/// (round-half-away-from-zero, saturating at the range limits).
///
/// # Example
///
/// ```
/// use matic_fixed::{quantize, QFormat};
/// let q = QFormat::new(8, 4)?;
/// assert_eq!(quantize(0.5, q), 8);     // 0.5 * 2^4
/// assert_eq!(quantize(100.0, q), 127); // saturates
/// # Ok::<(), matic_fixed::FormatError>(())
/// ```
pub fn quantize(x: f64, fmt: QFormat) -> i32 {
    let scaled = x * fmt.scale();
    // Round-half-away-from-zero, matching common RTL rounding.
    let rounded = round_half_away(scaled);
    if rounded >= fmt.raw_max() as f64 {
        fmt.raw_max()
    } else if rounded <= fmt.raw_min() as f64 {
        fmt.raw_min()
    } else {
        rounded as i32
    }
}

/// Round-half-away-from-zero, bit-identical to [`f64::round`] for every
/// input (including NaNs, infinities, negative zero and values at the
/// integer-precision limit).
///
/// `f64::round` lowers to a `libm` call on baseline x86-64 (no SSE4.1),
/// which dominates the quantize-mask-decode sweep that memory-adaptive
/// training runs over every parameter on every step. This inline version
/// uses the exact 2⁵² magic-number trick: adding and subtracting 2⁵²
/// rounds `|x|` to the nearest-even integer in one exact operation pair,
/// and the single half-ulp fixup converts nearest-even ties into
/// away-from-zero ties.
#[inline]
pub fn round_half_away(x: f64) -> f64 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
    let a = x.abs();
    if a >= MAGIC || a.is_nan() {
        // Already integral (|x| >= 2^52), infinite, or NaN.
        return x;
    }
    // Exact nearest-even integer of `a` (ulp at 2^52 is 1.0).
    let t = (a + MAGIC) - MAGIC;
    // `a - t` is exact; it equals +0.5 only on a tie nearest-even broke
    // downward, which half-away must break upward.
    let t = if a - t == 0.5 { t + 1.0 } else { t };
    if x.is_sign_negative() {
        -t
    } else {
        t
    }
}

/// Converts a raw fixed-point value back to a real number.
///
/// Multiplies by the exact power-of-two reciprocal rather than dividing:
/// both are exact IEEE operations for power-of-two scales, so the result
/// is bit-identical, but the multiply keeps this off the division unit in
/// the quantize-mask-decode sweeps that run once per training step.
pub fn dequantize(raw: i32, fmt: QFormat) -> f64 {
    raw as f64 * fmt.inv_scale()
}

/// Quantizes a lane of real values into `fmt`, appending the raw codes
/// to `out`.
///
/// **Bit-identical to calling [`quantize`] per element** for every input
/// — including NaNs, infinities, signed zeros, ties and values past the
/// integer-precision limit — but runs through the branch-free
/// [`quantize_scaled`] core so the compiler can vectorize it. Batched
/// inference quantizes whole input batches through this on its way into
/// the sample-lane layout, where the per-element branchy rounding would
/// otherwise dominate the dispatch.
pub fn quantize_lane(xs: &[f64], fmt: QFormat, out: &mut Vec<i32>) {
    let scale = fmt.scale();
    let (min_f, max_f) = (fmt.raw_min() as f64, fmt.raw_max() as f64);
    out.extend(xs.iter().map(|&x| quantize_scaled(x * scale, min_f, max_f)));
}

/// The select-form quantize core: `scaled` (a real value already
/// multiplied by the format's scale) rounded half away from zero and
/// saturated to `[raw_min, raw_max]`, both integral.
///
/// Bit-identical to [`quantize`] for every input, NaN (→ 0) included, but
/// with no branch: it clamps first, then rounds. The two commute because
/// the bounds are integers and rounding is monotone, and once clamped
/// `|c| < 2³¹`, so the 2⁵² rounding needs no large-magnitude escape and
/// the integer falls out of the bits of `r + 2⁵² + 2⁵¹` exactly.
#[inline]
pub fn quantize_scaled(scaled: f64, raw_min: f64, raw_max: f64) -> i32 {
    const MAGIC: f64 = 4_503_599_627_370_496.0; // 2^52
                                                // Each select keeps a NaN as is; the last one maps it to 0, which is
                                                // what the scalar helper's saturating cast does.
    let c = if scaled < raw_min { raw_min } else { scaled };
    let c = if c > raw_max { raw_max } else { c };
    let c = if c.is_nan() { 0.0 } else { c };
    // Exact nearest-even integer of |c|, tie fixed up to away-from-zero,
    // sign restored (`t` is non-negative, so copysign is the sign branch).
    let a = c.abs();
    let t = (a + MAGIC) - MAGIC;
    let t = if a - t == 0.5 { t + 1.0 } else { t };
    let r = t.copysign(c);
    // `r` is integral with |r| <= 2^31, so `r + 1.5·2^52` is exact and its
    // low 32 mantissa bits are `r` in two's complement.
    (r + (MAGIC + MAGIC / 2.0)).to_bits() as i32
}

/// Quantizes `x` and also returns the residual εq = `x − value(Q(x))`.
///
/// When `x` is inside the representable range, `|residual| ≤ lsb/2`; when it
/// saturates, the residual absorbs the clipping error so that master weights
/// pushed outside the range are pulled back gradually rather than clipped
/// irrecoverably.
///
/// # Example
///
/// ```
/// use matic_fixed::{quantize_with_residual, QFormat};
/// let q = QFormat::new(8, 4)?;
/// let out = quantize_with_residual(0.52, q);
/// assert_eq!(out.raw, 8); // nearest code is 0.5
/// assert!((out.residual - 0.02).abs() < 1e-12);
/// # Ok::<(), matic_fixed::FormatError>(())
/// ```
pub fn quantize_with_residual(x: f64, fmt: QFormat) -> Quantized {
    let raw = quantize(x, fmt);
    Quantized {
        raw,
        residual: x - dequantize(raw, fmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q8_4() -> QFormat {
        QFormat::new(8, 4).unwrap()
    }

    #[test]
    fn quantize_lane_matches_scalar_on_adversarial_values() {
        let fmts = [
            q8_4(),
            QFormat::new(16, 14).unwrap(),
            QFormat::new(32, 16).unwrap(),
        ];
        // Edge cases plus a dense pseudo-random sweep, covering ties,
        // signed zeros, saturation, NaN/inf and the 2^52 integral limit.
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0 / 32.0,
            -3.0 / 32.0,
            7.96875,
            -8.0,
            1e30,
            -1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            4_503_599_627_370_496.0,
            -4_503_599_627_370_497.0,
            f64::MIN_POSITIVE,
        ];
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            xs.push((unit - 0.5) * 40.0);
            xs.push((unit - 0.5) / 1024.0); // tie-dense region
        }
        for fmt in fmts {
            let mut lane = Vec::new();
            quantize_lane(&xs, fmt, &mut lane);
            for (&x, &got) in xs.iter().zip(&lane) {
                assert_eq!(got, quantize(x, fmt), "x={x:?} fmt={fmt}");
            }
        }
    }

    #[test]
    fn quantize_exact_codes_have_zero_residual() {
        let q = q8_4();
        for raw in q.raw_min()..=q.raw_max() {
            let x = dequantize(raw, q);
            let out = quantize_with_residual(x, q);
            assert_eq!(out.raw, raw);
            assert_eq!(out.residual, 0.0);
        }
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        let q = q8_4();
        // 0.03125 is exactly half an LSB; round-half-away-from-zero -> 1.
        assert_eq!(quantize(0.03125, q), 1);
        assert_eq!(quantize(-0.03125, q), -1);
        assert_eq!(quantize(0.031, q), 0);
        assert_eq!(quantize(0.032, q), 1);
    }

    #[test]
    fn quantize_saturates_and_residual_absorbs_clip() {
        let q = q8_4();
        let out = quantize_with_residual(100.0, q);
        assert_eq!(out.raw, q.raw_max());
        assert!((out.residual - (100.0 - q.max_value())).abs() < 1e-12);

        let out = quantize_with_residual(-100.0, q);
        assert_eq!(out.raw, q.raw_min());
        assert!((out.residual - (-100.0 - q.min_value())).abs() < 1e-12);
    }

    #[test]
    fn residual_bounded_by_half_lsb_in_range() {
        let q = q8_4();
        let mut x = q.min_value();
        while x < q.max_value() {
            let out = quantize_with_residual(x, q);
            assert!(out.residual.abs() <= q.lsb() / 2.0 + 1e-15, "x = {x}");
            x += 0.013; // irrational-ish step to hit many non-code points
        }
    }

    #[test]
    fn dequantize_is_left_inverse_of_quantize_on_codes() {
        let q = QFormat::new(12, 9).unwrap();
        for raw in [-2048, -1, 0, 1, 2047] {
            assert_eq!(quantize(dequantize(raw, q), q), raw);
        }
    }

    #[test]
    fn round_half_away_matches_f64_round_exhaustively() {
        // Edge cases with known pathologies.
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994, // largest f64 < 0.5: naive +0.5 tricks fail
            -0.49999999999999994,
            4503599627370495.5, // largest non-integral f64
            -4503599627370495.5,
            4503599627370496.0, // 2^52: integral from here on
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
        assert!(round_half_away(f64::NAN).is_nan());
        // A deterministic xorshift sweep over raw bit patterns covers
        // subnormals, huge magnitudes and random fractions alike.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f64::from_bits(state);
            if x.is_nan() {
                continue;
            }
            assert_eq!(
                round_half_away(x).to_bits(),
                x.round().to_bits(),
                "bits {state:#x} value {x:e}"
            );
        }
    }

    #[test]
    fn nan_saturates_deterministically() {
        // NaN comparisons are false; the implementation routes NaN to the
        // final `else` branch. Document the (finite) result.
        let q = q8_4();
        let raw = quantize(f64::NAN, q);
        assert!(raw >= q.raw_min() && raw <= q.raw_max());
    }
}
