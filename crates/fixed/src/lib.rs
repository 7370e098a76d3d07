//! Parametric Q-format fixed-point arithmetic for the SNNAC datapath.
//!
//! The SNNAC accelerator of the MATIC paper (Kim et al., DATE 2018) computes
//! with *8–22 bit fixed-point operands* (§IV). Weights live in voltage-scaled
//! SRAM banks as two's-complement words, which is exactly where the paper's
//! bit-error injection happens: the OR/AND fault masks of memory-adaptive
//! training operate on the **stored word encoding** of a quantized weight.
//!
//! This crate therefore provides:
//!
//! * [`QFormat`] — a runtime-parametric signed Q-format (word length and
//!   fraction length), valid for 2..=32 bit words;
//! * [`Fx`] — a checked fixed-point scalar carrying its format;
//! * [`Accumulator`] — the wide (i64) MAC accumulator used by the PEs;
//! * [`quantize_with_residual`] — quantization with *fractional-error
//!   extraction*: the εq term of the memory-adaptive weight-update rule
//!   `w ← m − α·∂J/∂m + εq`;
//! * [`FxTensor`] — dense row-major raw-value tensors, the storage form of
//!   fault-composed weights consumed by the blocked kernels in `matic-nn`;
//! * raw storage-word encode/decode used by the SRAM fault model.
//!
//! # Example
//!
//! ```
//! use matic_fixed::{QFormat, Fx};
//!
//! // SNNAC's default weight format: 16-bit word, 12 fraction bits.
//! let q = QFormat::new(16, 12)?;
//! let w = Fx::from_f64(0.7512, q);
//! assert!((w.to_f64() - 0.7512).abs() <= q.lsb() / 2.0);
//! # Ok::<(), matic_fixed::FormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod format;
mod quant;
mod scalar;
mod tensor;

pub use acc::{narrow_lane, Accumulator};
pub use format::{FormatError, QFormat};
pub use quant::{
    dequantize, quantize, quantize_lane, quantize_scaled, quantize_with_residual, round_half_away,
    Quantized,
};
pub use scalar::Fx;
pub use tensor::FxTensor;

#[cfg(test)]
mod proptests;
