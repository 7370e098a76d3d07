//! Cycle-level simulator of **SNNAC** (Systolic Neural Network AsiC), the
//! 65 nm low-power FC-DNN accelerator the MATIC paper fabricates (§IV).
//!
//! Architectural inventory (Fig. 8 of the paper → modules and items here):
//!
//! | silicon block                           | where         |
//! |-----------------------------------------|---------------|
//! | 8 MAC processing elements, 1-D systolic ring | [`npu`]  |
//! | per-PE voltage-scalable weight SRAM banks    | `matic-sram` via [`Chip`] |
//! | activation-function unit (piecewise-linear sigmoid/ReLU) | [`afu`] |
//! | accumulator for time-multiplexed wide layers | [`npu`]  |
//! | statically compiled microcode control        | [`microcode`] |
//! | digitally-programmable SRAM-rail regulator   | [`Chip`] |
//! | runtime canary loop (Algorithm 1)            | [`Chip::poll_canaries`] |
//!
//! The datapath is **bit-exact fixed point**: weights are read from the
//! simulated SRAM banks word-by-word on every inference, so voltage
//! overscaling produces real read upsets in the weight stream, exactly the
//! failure mode memory-adaptive training compensates.
//!
//! # Example
//!
//! ```
//! use matic_snnac::{Chip, ChipConfig};
//! use matic_core::{DeploymentFlow, MatConfig};
//! use matic_nn::{NetSpec, Sample};
//!
//! let mut chip = Chip::synthesize(ChipConfig::snnac(), 42);
//! let data: Vec<Sample> = (0..32)
//!     .map(|i| {
//!         let x = i as f64 / 32.0;
//!         Sample::new(vec![x], vec![0.5 * x + 0.2])
//!     })
//!     .collect();
//! let flow = DeploymentFlow {
//!     mat: MatConfig::quick(),
//!     ..DeploymentFlow::new(0.52)
//! };
//! let deployed = chip.deploy(&flow, &NetSpec::regressor(&[1, 4, 1]), &data);
//! chip.set_sram_voltage(0.52);
//! let (y, stats) = chip.infer(&deployed, &[0.5]);
//! assert!((y[0] - 0.45).abs() < 0.05);
//! assert!(stats.npu.cycles > 0 && stats.energy_pj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afu;
mod chip;
pub mod microcode;
pub mod npu;
mod regulator;

pub use afu::Afu;
pub use chip::{Chip, ChipConfig, DeployedNetwork, InferenceStats, POWER_ON_TEMP_C};
pub use npu::Snnac;

#[cfg(test)]
mod proptests;
