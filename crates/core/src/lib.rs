//! MATIC: Memory Adaptive Training and In-situ Canaries.
//!
//! This crate is the paper's primary contribution (Kim et al., DATE 2018):
//! a hardware/algorithm co-design methodology that lets a DNN accelerator
//! overscale its weight-SRAM supply far past the point of bit-cell read
//! failure while preserving accuracy. Two mechanisms cooperate:
//!
//! 1. **Memory-adaptive training** ([`MatTrainer`], §III-B): profiled SRAM
//!    bit-errors are *injected into training* through per-word OR/AND masks
//!    applied to quantized weights, so backprop sees the faults and the
//!    whole network compensates. Float master weights plus the fractional
//!    quantization error εq keep the updates gradual:
//!    `w[n+1] = m[n] − α·∂J/∂m[n] + εq`, `m = Bor | (Band & Q(w))`.
//!
//! 2. **In-situ synaptic canaries** ([`CanarySet`], [`CanaryController`],
//!    §III-C): the most marginal still-correct bit-cells of each weight
//!    SRAM are used directly as canaries. A runtime controller polls them
//!    between inferences (Algorithm 1) and walks the SRAM supply to the
//!    canaries' failure boundary, eliminating static PVT margins and
//!    tracking temperature (Fig. 12).
//!
//! The compile-time deployment flow (Fig. 3) is orchestrated by
//! [`DeploymentFlow`]: profile → canary selection → memory-adaptive
//! training → deploy. A [`TrainingMemo`] lets a sweep train each
//! distinct model once, and walk each die's canaries once, however many
//! chips, benchmarks and points ask for them.
//!
//! # Example: train around a synthetic fault map
//!
//! ```
//! use matic_core::{MatConfig, MatTrainer};
//! use matic_nn::{NetSpec, Sample};
//! use matic_sram::inject::bernoulli_fault_map;
//!
//! // A tiny regression task and a 2 % bit-error fault map (tiny nets can
//! // only absorb a few stuck bits; the paper-scale topologies tolerate
//! // tens of percent — see the Fig. 5 bench).
//! let data: Vec<Sample> = (0..32)
//!     .map(|i| {
//!         let x = i as f64 / 32.0;
//!         Sample::new(vec![x], vec![x * 0.5 + 0.1])
//!     })
//!     .collect();
//! let spec = NetSpec::regressor(&[1, 4, 1]);
//! let faults = bernoulli_fault_map(8, 16, 16, 0.02, 7);
//! let model = MatTrainer::new(spec, MatConfig::quick()).train(&data, &faults);
//! let deployed = model.deploy(&faults);
//! assert!(deployed.mean_loss(&data) < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aei;
mod canary;
mod composed;
mod controller;
mod flow;
mod layout;
mod mat;
mod memo;
mod models;
mod quantizer;

pub use aei::{average_error_increase, AeiSummary};
pub use canary::{CanaryCell, CanarySet};
pub use composed::FaultedWeights;
pub use controller::{CanaryController, ControllerConfig, PollOutcome};
pub use flow::{upload_weights, DeployedModel, DeploymentFlow};
pub use layout::{LayoutError, Location, ParamRef, WeightLayout};
pub use mat::{train_naive, MatConfig, MatTrainer, TrainedModel, UpdateRule};
pub use memo::{TrainingMemo, TrainingSet};
pub use models::{
    drop_surrogate_map, fitted_array_config, CellFaults, FaultContext, FaultModel,
    RANDOM_BER_FORMAT, TIMING_ERROR_ONSET,
};
pub use quantizer::{ComposedQuantizer, MaskedQuantizer};

#[cfg(test)]
mod proptests;
