//! Signed Q-format descriptors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when constructing an invalid [`QFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// Word length outside the supported 2..=32 bit range.
    WordBits(u8),
    /// More fraction bits than the word (minus sign bit) can hold.
    FracBits {
        /// Requested word length in bits.
        word_bits: u8,
        /// Requested fraction length in bits.
        frac_bits: u8,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FormatError::WordBits(w) => {
                write!(f, "word length {w} outside supported range 2..=32")
            }
            FormatError::FracBits {
                word_bits,
                frac_bits,
            } => write!(
                f,
                "fraction length {frac_bits} does not fit in word length {word_bits}"
            ),
        }
    }
}

impl std::error::Error for FormatError {}

/// A signed two's-complement Q-format: `word_bits` total bits of which
/// `frac_bits` are fractional.
///
/// The representable range is `[-2^(i), 2^(i) - lsb]` with
/// `i = word_bits - 1 - frac_bits` integer bits and `lsb = 2^-frac_bits`.
///
/// SNNAC's datapath spans 8–22 bit operands (paper §IV); this type accepts
/// 2..=32 so that narrower experiment configurations remain expressible.
///
/// # Example
///
/// ```
/// use matic_fixed::QFormat;
/// let q = QFormat::new(8, 6)?;
/// assert_eq!(q.lsb(), 1.0 / 64.0);
/// assert_eq!(q.max_value(), 2.0 - 1.0 / 64.0);
/// assert_eq!(q.min_value(), -2.0);
/// # Ok::<(), matic_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    word_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Creates a Q-format with `word_bits` total bits and `frac_bits`
    /// fraction bits.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::WordBits`] unless `2 <= word_bits <= 32`, and
    /// [`FormatError::FracBits`] unless `frac_bits <= word_bits - 1` (one bit
    /// is reserved for the sign).
    pub fn new(word_bits: u8, frac_bits: u8) -> Result<Self, FormatError> {
        if !(2..=32).contains(&word_bits) {
            return Err(FormatError::WordBits(word_bits));
        }
        if frac_bits > word_bits - 1 {
            return Err(FormatError::FracBits {
                word_bits,
                frac_bits,
            });
        }
        Ok(QFormat {
            word_bits,
            frac_bits,
        })
    }

    /// SNNAC's default weight format: 16-bit words with 13 fraction bits
    /// (range ±4, resolution 2⁻¹³).
    ///
    /// The integer width matters for voltage overscaling: a stuck
    /// high-order bit injects an error proportional to that bit's weight,
    /// so fewer integer bits mean smaller worst-case weight corruption.
    /// Q2.13 keeps the trained-weight range (|w| ≲ 2) representable while
    /// matching the paper's measured fault tolerance (13 % MNIST error at
    /// the 28 %-BER operating point); Q3.12 degrades ~3× faster under the
    /// same fault maps, and Q1.14 clips nominal training.
    pub fn snnac_weight() -> Self {
        QFormat {
            word_bits: 16,
            frac_bits: 13,
        }
    }

    /// The *robust* weight format for random bit-flip fault models:
    /// 16-bit words with 14 fraction bits (Q1.14, range ±2).
    ///
    /// Stutz et al. observe that under i.i.d. bit flips the dominant error
    /// term is a flipped high-order bit, so the robust choice is the
    /// *tightest* fixed-point range that still covers the trained weights:
    /// dropping an integer bit relative to [`QFormat::snnac_weight`]
    /// halves the magnitude every bit position contributes, halving the
    /// worst-case perturbation a single flip can inject. Trained-weight
    /// magnitudes on the paper's four benchmarks stay below 2, so Q1.14
    /// clips nothing that matters at the BERs this model sweeps.
    pub const fn snnac_weight_robust() -> Self {
        QFormat {
            word_bits: 16,
            frac_bits: 14,
        }
    }

    /// SNNAC's default activation format: 16-bit words with 14 fraction
    /// bits (activations are bounded to (−2, 2) by the sigmooid/ReLU-clamped
    /// datapath, so more fraction bits are affordable).
    pub fn snnac_activation() -> Self {
        QFormat {
            word_bits: 16,
            frac_bits: 14,
        }
    }

    /// Total word length in bits (including sign).
    pub fn word_bits(self) -> u8 {
        self.word_bits
    }

    /// Fraction length in bits.
    pub fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// Integer bits excluding the sign bit.
    pub fn int_bits(self) -> u8 {
        self.word_bits - 1 - self.frac_bits
    }

    /// The weight of the least-significant bit, `2^-frac_bits`.
    pub fn lsb(self) -> f64 {
        (self.frac_bits as i32).scale()
    }

    /// Scale factor `2^frac_bits` mapping real values to raw counts.
    pub fn scale(self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Exact reciprocal scale `2^-frac_bits` (equals [`QFormat::lsb`]);
    /// dividing by [`QFormat::scale`] and multiplying by this are
    /// bit-identical for every representable raw value, and the multiply
    /// is cheaper.
    pub fn inv_scale(self) -> f64 {
        self.lsb()
    }

    /// Largest raw (two's complement) value, `2^(word_bits-1) - 1`.
    pub fn raw_max(self) -> i32 {
        ((1i64 << (self.word_bits - 1)) - 1) as i32
    }

    /// Smallest raw (two's complement) value, `-2^(word_bits-1)`.
    pub fn raw_min(self) -> i32 {
        (-(1i64 << (self.word_bits - 1))) as i32
    }

    /// Largest representable real value.
    pub fn max_value(self) -> f64 {
        self.raw_max() as f64 / self.scale()
    }

    /// Smallest (most negative) representable real value.
    pub fn min_value(self) -> f64 {
        self.raw_min() as f64 / self.scale()
    }

    /// Bit mask with the low `word_bits` set — the valid storage-word bits.
    pub fn word_mask(self) -> u32 {
        if self.word_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.word_bits) - 1
        }
    }

    /// Encodes a raw value into its storage word: the low `word_bits` of the
    /// two's-complement representation. This is the bit pattern held in a
    /// weight SRAM word and therefore the domain of fault-injection masks.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `raw` is outside `[raw_min, raw_max]`.
    pub fn encode(self, raw: i32) -> u32 {
        debug_assert!(
            raw >= self.raw_min() && raw <= self.raw_max(),
            "raw value {raw} outside {}-bit word",
            self.word_bits
        );
        (raw as u32) & self.word_mask()
    }

    /// Decodes a storage word (low `word_bits` significant) back into a raw
    /// two's-complement value, sign-extending from bit `word_bits - 1`.
    pub fn decode(self, word: u32) -> i32 {
        let shift = 32 - self.word_bits as u32;
        ((word << shift) as i32) >> shift
    }

    /// Clamps a raw value into the representable range.
    pub fn saturate_raw(self, raw: i64) -> i32 {
        raw.clamp(self.raw_min() as i64, self.raw_max() as i64) as i32
    }
}

impl Default for QFormat {
    fn default() -> Self {
        Self::snnac_weight()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits(), self.frac_bits)
    }
}

/// Helper converting a fraction-bit count into an LSB weight.
trait FracScale {
    fn scale(self) -> f64;
}

impl FracScale for i32 {
    fn scale(self) -> f64 {
        2f64.powi(-self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_word_lengths() {
        assert_eq!(QFormat::new(1, 0), Err(FormatError::WordBits(1)));
        assert_eq!(QFormat::new(33, 0), Err(FormatError::WordBits(33)));
        assert!(QFormat::new(2, 0).is_ok());
        assert!(QFormat::new(32, 31).is_ok());
    }

    #[test]
    fn new_rejects_overlong_fraction() {
        assert_eq!(
            QFormat::new(8, 8),
            Err(FormatError::FracBits {
                word_bits: 8,
                frac_bits: 8
            })
        );
        assert!(QFormat::new(8, 7).is_ok());
    }

    #[test]
    fn range_of_q3_12() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.int_bits(), 3);
        assert_eq!(q.raw_max(), 32767);
        assert_eq!(q.raw_min(), -32768);
        assert!((q.max_value() - (8.0 - q.lsb())).abs() < 1e-12);
        assert_eq!(q.min_value(), -8.0);
    }

    #[test]
    fn encode_decode_roundtrip_all_8bit_values() {
        let q = QFormat::new(8, 4).unwrap();
        for raw in q.raw_min()..=q.raw_max() {
            let word = q.encode(raw);
            assert!(word <= q.word_mask());
            assert_eq!(q.decode(word), raw);
        }
    }

    #[test]
    fn decode_sign_extends() {
        let q = QFormat::new(8, 0).unwrap();
        assert_eq!(q.decode(0xFF), -1);
        assert_eq!(q.decode(0x80), -128);
        assert_eq!(q.decode(0x7F), 127);
    }

    #[test]
    fn decode_ignores_bits_above_word() {
        let q = QFormat::new(8, 0).unwrap();
        // Garbage above bit 7 must not change the decoded value.
        assert_eq!(q.decode(0xFFFF_FF05), q.decode(0x05));
    }

    #[test]
    fn saturate_raw_clamps() {
        let q = QFormat::new(8, 0).unwrap();
        assert_eq!(q.saturate_raw(1000), 127);
        assert_eq!(q.saturate_raw(-1000), -128);
        assert_eq!(q.saturate_raw(5), 5);
    }

    #[test]
    fn word_mask_32bit_edge() {
        let q = QFormat::new(32, 16).unwrap();
        assert_eq!(q.word_mask(), u32::MAX);
        assert_eq!(q.decode(q.encode(-12345)), -12345);
    }

    #[test]
    fn display_is_qij() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.to_string(), "Q3.12");
    }

    #[test]
    fn snnac_defaults_are_valid() {
        assert_eq!(QFormat::snnac_weight().word_bits(), 16);
        assert_eq!(QFormat::snnac_activation().frac_bits(), 14);
    }
}
