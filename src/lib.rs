//! # MATIC — Learning Around Errors for Low-Voltage DNN Accelerators
//!
//! A faithful reproduction of *“MATIC: Learning Around Errors for Efficient
//! Low-Voltage Neural Network Accelerators”* (Kim et al., DATE 2018) as a
//! Rust workspace. This facade crate re-exports every subsystem:
//!
//! * [`fixed`] — Q-format fixed-point arithmetic (the SNNAC datapath).
//! * [`sram`] — Monte-Carlo 6T SRAM read-stability fault model, profiling,
//!   fault maps and temperature behaviour.
//! * [`nn`] — a FANN-equivalent MLP training substrate (forward/backward,
//!   SGD with momentum).
//! * [`datasets`] — the four paper benchmarks as synthetic generators
//!   (mnist-like digits, face detection, inverse kinematics, Black–Scholes).
//! * [`energy`] — voltage/frequency/energy models calibrated to the SNNAC
//!   test-chip measurements (Table II).
//! * [`core`] — the paper's contribution: memory-adaptive training (MAT)
//!   and in-situ synaptic canaries (Algorithm 1).
//! * [`snnac`] — a cycle-level simulator of the SNNAC 8-PE systolic
//!   accelerator, with the canary controller driving its SRAM rail.
//! * [`harness`] — the parallel chip-population sweep engine behind the
//!   `matic` CLI: grids of {chips × voltages × benchmarks × training
//!   modes} with deterministic JSON/CSV reports.
//!
//! ## Quickstart
//!
//! ```
//! use matic::prelude::*;
//!
//! // Train a classifier with memory-adaptive training against a chip's
//! // profiled fault map at 0.50 V (28 % of bit-cells stuck).
//! let data = matic::datasets::mnist_like(30, 6, 7);
//! let spec = NetSpec::classifier(&[100, 32, 10]);
//! let mut chip = Chip::synthesize(ChipConfig::snnac(), 42);
//! let profile = chip.profile(0.50);
//! let model = MatTrainer::new(spec, MatConfig::quick()).train(&data.train, &profile);
//! // The deployed view applies the same stuck bits the hardware would.
//! let deployed = model.deploy(&profile);
//! let err = matic::nn::classification_error_percent(&deployed, &data.test);
//! assert!(err < 90.0); // far better than the 90 % chance floor
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use matic_core as core;
pub use matic_datasets as datasets;
pub use matic_energy as energy;
pub use matic_fixed as fixed;
pub use matic_harness as harness;
pub use matic_nn as nn;
pub use matic_snnac as snnac;
pub use matic_sram as sram;

/// Convenience re-exports of the most commonly used types.
///
/// Two unrelated `Scenario` types exist in the workspace, so the prelude
/// renames both to keep itself unambiguous:
///
/// * [`EnergyScenario`](matic_energy::Scenario) — a Table II operating
///   scenario (`HighPerf` / `EnOpt_split` / `EnOpt_joint`);
/// * [`SweepScenario`](matic_harness::Scenario) — a benchmark workload
///   pluggable into the sweep harness.
pub mod prelude {
    pub use matic_core::{
        CanaryController, CanarySet, DeployedModel, MatConfig, MatTrainer, TrainedModel,
    };
    pub use matic_datasets::{Dataset, Split};
    pub use matic_energy::{EnergyModel, OperatingPoint, Scenario as EnergyScenario};
    pub use matic_fixed::{Accumulator, Fx, QFormat};
    pub use matic_harness::{
        AccuracyBudget, EnergyReport, Scenario as SweepScenario, SweepPlan, SweepReport,
        TrainingMode,
    };
    pub use matic_nn::{Activation, Loss, Mlp, NetSpec, SgdConfig};
    pub use matic_snnac::{Chip, ChipConfig, Snnac};
    pub use matic_sram::{FaultMap, SramArray, SramConfig};
}
