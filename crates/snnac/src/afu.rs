//! The activation-function unit: piecewise-linear sigmoid and ReLU.
//!
//! SNNAC "minimizes energy and area footprint with piecewise-linear
//! approximation of activation functions (e.g., sigmoid or ReLU)" (§IV).
//! The unit maps a wide pre-activation value (the narrowed MAC
//! accumulator) to the activation format through a small breakpoint LUT —
//! the same structure a synthesized PWL AFU uses.

use matic_fixed::{Fx, QFormat};
use matic_nn::Activation;
use serde::{Deserialize, Serialize};

/// Number of PWL segments per side of the sigmoid (16 segments over
/// [0, 8]; the function is completed by symmetry σ(−x) = 1 − σ(x)).
const SEGMENTS: usize = 16;
/// Sigmoid input saturation bound: |x| ≥ 8 clamps to 0/1 (σ(8) ≈ 0.99966).
const X_MAX: f64 = 8.0;

/// The activation-function unit.
///
/// # Example
///
/// ```
/// use matic_snnac::Afu;
/// use matic_fixed::{Fx, QFormat};
/// use matic_nn::Activation;
///
/// let afu = Afu::snnac();
/// let x = Fx::from_f64(0.0, afu.input_format());
/// let y = afu.apply(Activation::Sigmoid, x);
/// assert!((y.to_f64() - 0.5).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Afu {
    in_fmt: QFormat,
    out_fmt: QFormat,
    /// σ breakpoints at x = i·X_MAX/SEGMENTS for i in 0..=SEGMENTS,
    /// pre-quantized to the output format's raw codes.
    sigmoid_lut: Vec<i32>,
}

impl Afu {
    /// Builds an AFU with the given input (pre-activation) and output
    /// (activation) formats.
    pub fn new(in_fmt: QFormat, out_fmt: QFormat) -> Self {
        let sigmoid_lut = (0..=SEGMENTS)
            .map(|i| {
                let x = i as f64 * X_MAX / SEGMENTS as f64;
                let y = 1.0 / (1.0 + (-x).exp());
                matic_fixed::quantize(y, out_fmt)
            })
            .collect();
        Afu {
            in_fmt,
            out_fmt,
            sigmoid_lut,
        }
    }

    /// The SNNAC AFU: Q5.10 pre-activations in, Q1.14 activations out.
    pub fn snnac() -> Self {
        Self::new(QFormat::new(16, 10).unwrap(), QFormat::snnac_activation())
    }

    /// Pre-activation (input) format.
    pub fn input_format(&self) -> QFormat {
        self.in_fmt
    }

    /// Activation (output) format.
    pub fn output_format(&self) -> QFormat {
        self.out_fmt
    }

    /// Applies an activation function to a pre-activation value.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the AFU's input format.
    pub fn apply(&self, activation: Activation, x: Fx) -> Fx {
        assert_eq!(x.format(), self.in_fmt, "AFU input format mismatch");
        match activation {
            Activation::Sigmoid => self.sigmoid(x),
            Activation::Relu => {
                let clamped = if x.raw() < 0 {
                    Fx::zero(self.in_fmt)
                } else {
                    x
                };
                clamped.convert(self.out_fmt)
            }
            Activation::Linear => x.convert(self.out_fmt),
            Activation::Tanh => {
                // tanh(x) = 2σ(2x) − 1, synthesized from the sigmoid LUT;
                // provided for completeness (the paper's nets use sigmoid).
                let two_x = Fx::from_f64((x.to_f64() * 2.0).clamp(-X_MAX, X_MAX), self.in_fmt);
                let s = self.sigmoid(two_x).to_f64();
                Fx::from_f64(2.0 * s - 1.0, self.out_fmt)
            }
        }
    }

    /// Applies an activation function to a lane of raw pre-activation
    /// codes (input-format scale), appending raw activation codes
    /// (output-format scale) to `out`.
    ///
    /// **Bit-identical to [`Afu::apply`] per value** — enforced
    /// exhaustively over the entire input-format raw range by the
    /// `lane_matches_scalar_exhaustively` test — with the activation
    /// dispatch, format bookkeeping and PWL constants hoisted out of the
    /// inner loop. Batched inference drains whole sample lanes through
    /// this instead of constructing an [`Fx`] per value.
    pub fn apply_lane_raw(&self, activation: Activation, zs: &[i32], out: &mut Vec<i32>) {
        out.reserve(zs.len());
        let inv_in = self.in_fmt.inv_scale();
        match activation {
            Activation::Sigmoid => {
                let start = out.len();
                out.resize(start + zs.len(), 0);
                self.sigmoid_lane(zs, &mut out[start..]);
            }
            Activation::Relu if self.in_fmt == self.out_fmt => {
                for &z in zs {
                    out.push(z.max(0));
                }
            }
            Activation::Relu => {
                for &z in zs {
                    out.push(matic_fixed::quantize(
                        z.max(0) as f64 * inv_in,
                        self.out_fmt,
                    ));
                }
            }
            Activation::Linear if self.in_fmt == self.out_fmt => {
                out.extend_from_slice(zs);
            }
            Activation::Linear => {
                for &z in zs {
                    out.push(matic_fixed::quantize(z as f64 * inv_in, self.out_fmt));
                }
            }
            Activation::Tanh => {
                // Not a hot path (the paper's nets use sigmoid): take the
                // scalar route per value.
                for &z in zs {
                    out.push(self.apply(activation, Fx::from_raw(z, self.in_fmt)).raw());
                }
            }
        }
    }

    /// Branch-free sigmoid lane: preactivation signs and saturation are
    /// data-dependent, so every `if` below is written to lower to a select
    /// rather than a mispredicted branch. The saturated-input case still
    /// evaluates the lerp (with the LUT index clamped into range — `pos`
    /// is finite and at most `2 * in_fmt.max_value()`) and then selects
    /// the last breakpoint, exactly what the scalar branch produces.
    ///
    /// Every floating-point operation here is an exact IEEE operation (no
    /// fused multiply-add is emitted: Rust never enables floating-point
    /// contraction), so however the compiler vectorizes the loop, every
    /// result bit matches the scalar [`Afu::apply`].
    fn sigmoid_lane(&self, zs: &[i32], out: &mut [i32]) {
        // Breakpoints pre-converted to f64 in a fixed-size stack array:
        // the clamped index proves the accesses in range, so the inner
        // loop carries no bounds checks or int-to-float conversions.
        let mut lut = [0.0f64; SEGMENTS + 1];
        for (dst, &src) in lut.iter_mut().zip(&self.sigmoid_lut) {
            *dst = src as f64;
        }
        let inv_in = self.in_fmt.inv_scale();
        let last = *self.sigmoid_lut.last().expect("SEGMENTS + 1 breakpoints") as i64;
        let (out_max, out_min) = (self.out_fmt.raw_max() as i64, self.out_fmt.raw_min() as i64);
        let one_raw = matic_fixed::quantize(1.0, self.out_fmt) as i64;
        const TWO_52: f64 = 4_503_599_627_370_496.0;
        for (o, &z) in out.iter_mut().zip(zs) {
            let xf = z as f64 * inv_in;
            let negate = xf < 0.0;
            let mag = xf.abs();
            let pos = mag * SEGMENTS as f64 / X_MAX;
            // `pos` is finite and non-negative: the signed cast gives the
            // same index as `pos as usize`, minus the unsigned conversion
            // baseline x86-64 has to emulate.
            let i = (pos as i64).min(SEGMENTS as i64 - 1) as usize;
            let frac = pos - i as f64;
            let (y0, y1) = (lut[i], lut[i + 1]);
            // The lerp lies between two non-negative breakpoints below
            // 2^31, so `f64::round` is the nearest-even integer (exact:
            // the ulp at 2^52 is 1.0) with a tie nudged upward — the
            // non-negative branch of `matic_fixed::round_half_away`.
            let v = y0 + frac * (y1 - y0);
            let t = (v + TWO_52) - TWO_52;
            let lerp = if v - t == 0.5 { t + 1.0 } else { t } as i64;
            let y_raw = if mag >= X_MAX { last } else { lerp };
            let y = y_raw.min(out_max);
            // σ(−x) = 1 − σ(x), with the saturating raw subtraction
            // `Fx::sub` performs.
            let negated = (one_raw - y).clamp(out_min, out_max);
            *o = if negate { negated } else { y } as i32;
        }
    }

    fn sigmoid(&self, x: Fx) -> Fx {
        let xf = x.to_f64();
        let (mag, negate) = if xf < 0.0 { (-xf, true) } else { (xf, false) };
        let y_raw = if mag >= X_MAX {
            *self.sigmoid_lut.last().unwrap()
        } else {
            let pos = mag * SEGMENTS as f64 / X_MAX;
            let i = pos as usize;
            let frac = pos - i as f64;
            let y0 = self.sigmoid_lut[i] as f64;
            let y1 = self.sigmoid_lut[i + 1] as f64;
            (y0 + frac * (y1 - y0)).round() as i32
        };
        let y = Fx::from_raw(y_raw.min(self.out_fmt.raw_max()), self.out_fmt);
        if negate {
            // σ(−x) = 1 − σ(x).
            let one = Fx::from_f64(1.0, self.out_fmt);
            one - y
        } else {
            y
        }
    }

    /// Maximum absolute PWL error versus the exact sigmoid, measured over
    /// a dense grid (useful for accuracy budgeting).
    pub fn sigmoid_max_error(&self) -> f64 {
        let mut worst = 0.0f64;
        let mut x = -X_MAX;
        while x <= X_MAX {
            let exact = 1.0 / (1.0 + (-x).exp());
            let fx = Fx::from_f64(x, self.in_fmt);
            let approx = self.apply(Activation::Sigmoid, fx).to_f64();
            worst = worst.max((approx - exact).abs());
            x += 0.01;
        }
        worst
    }
}

impl Default for Afu {
    fn default() -> Self {
        Self::snnac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_key_points() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        let at = |x: f64| afu.apply(Activation::Sigmoid, Fx::from_f64(x, f)).to_f64();
        assert!((at(0.0) - 0.5).abs() < 0.005);
        assert!(at(8.0) > 0.999);
        assert!(at(-8.0) < 0.001);
        assert!(at(20.0) > 0.999); // saturates
    }

    #[test]
    fn sigmoid_pwl_error_is_small() {
        let err = Afu::snnac().sigmoid_max_error();
        assert!(err < 0.005, "PWL error {err}");
    }

    #[test]
    fn sigmoid_is_monotone() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        let mut prev = -1.0;
        let mut x = -10.0;
        while x <= 10.0 {
            let y = afu.apply(Activation::Sigmoid, Fx::from_f64(x, f)).to_f64();
            assert!(y >= prev - 1e-12, "non-monotone at {x}");
            prev = y;
            x += 0.05;
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        for x in [0.25, 1.0, 3.3, 6.0] {
            let pos = afu.apply(Activation::Sigmoid, Fx::from_f64(x, f)).to_f64();
            let neg = afu.apply(Activation::Sigmoid, Fx::from_f64(-x, f)).to_f64();
            assert!((pos + neg - 1.0).abs() < 2e-4, "asymmetric at {x}");
        }
    }

    #[test]
    fn relu_clamps_negative_passes_positive() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        assert_eq!(
            afu.apply(Activation::Relu, Fx::from_f64(-3.0, f)).to_f64(),
            0.0
        );
        let y = afu.apply(Activation::Relu, Fx::from_f64(1.25, f)).to_f64();
        assert!((y - 1.25).abs() < 1e-3);
    }

    #[test]
    fn linear_converts_format_with_saturation() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        // 10.0 exceeds the Q1.14 output range (±2): saturates.
        let y = afu.apply(Activation::Linear, Fx::from_f64(10.0, f));
        assert_eq!(y.raw(), afu.output_format().raw_max());
    }

    #[test]
    fn tanh_from_sigmoid() {
        let afu = Afu::snnac();
        let f = afu.input_format();
        let y = afu.apply(Activation::Tanh, Fx::from_f64(0.0, f)).to_f64();
        assert!(y.abs() < 0.005);
        let y = afu.apply(Activation::Tanh, Fx::from_f64(3.0, f)).to_f64();
        assert!((y - 3.0f64.tanh()).abs() < 0.01);
    }

    #[test]
    fn lane_matches_scalar_exhaustively() {
        // The lane AFU must be bit-identical to `apply` for EVERY
        // representable pre-activation code, for every activation. The
        // input format is 16-bit, so the full range is checkable.
        let afu = Afu::snnac();
        let f = afu.input_format();
        let raws: Vec<i32> = (f.raw_min()..=f.raw_max()).collect();
        for act in [
            Activation::Sigmoid,
            Activation::Relu,
            Activation::Linear,
            Activation::Tanh,
        ] {
            let mut lane = Vec::new();
            afu.apply_lane_raw(act, &raws, &mut lane);
            for (&z, &got) in raws.iter().zip(&lane) {
                let want = afu.apply(act, Fx::from_raw(z, f)).raw();
                assert_eq!(got, want, "{act:?} diverges at raw {z}");
            }
        }
        // And through a format-preserving AFU, exercising the identity
        // shortcuts for ReLU and Linear.
        let same = Afu::new(QFormat::snnac_activation(), QFormat::snnac_activation());
        let f = same.input_format();
        let raws: Vec<i32> = (f.raw_min()..=f.raw_max()).step_by(17).collect();
        for act in [Activation::Relu, Activation::Linear] {
            let mut lane = Vec::new();
            same.apply_lane_raw(act, &raws, &mut lane);
            for (&z, &got) in raws.iter().zip(&lane) {
                assert_eq!(got, same.apply(act, Fx::from_raw(z, f)).raw());
            }
        }
    }

    #[test]
    #[should_panic(expected = "format mismatch")]
    fn wrong_input_format_panics() {
        let afu = Afu::snnac();
        let _ = afu.apply(
            Activation::Sigmoid,
            Fx::from_f64(0.0, QFormat::new(8, 4).unwrap()),
        );
    }
}
