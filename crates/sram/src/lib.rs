//! Monte-Carlo 6T SRAM read-stability fault model.
//!
//! This crate reproduces the failure physics that the MATIC paper (Kim et
//! al., DATE 2018, §II-B) builds on:
//!
//! * Variation-induced mismatch gives every 6T bit-cell a **preferred
//!   state**; the cell is biased towards flipping to that state during a
//!   read once supply voltage drops below its critical read voltage
//!   `Vmin,read`.
//! * Read-stability failures are therefore **random in space** (which cells
//!   fail is a lottery over process variation) but **stable in value** (a
//!   failed cell reads its preferred state consistently).
//! * Failures are **monotone in voltage**: every cell that fails at `V`
//!   also fails at any voltage below `V`.
//!
//! The paper's measured silicon (Fig. 9a) shows first failures at 0.53 V, a
//! 28 % bit-cell failure rate at the 0.50 V energy-optimal point, and all
//! reads failing by ≈0.40 V. [`VminDistribution::date2018`] encodes exactly
//! those anchors as an empirical inverse-CDF (no standard two-parameter
//! distribution fits both the deep tail and the bulk; see DESIGN.md).
//!
//! The crate models:
//!
//! * [`VminDistribution`] — per-cell `Vmin,read` statistics + temperature
//!   coefficient (temperature-inversion regime, §V-C);
//! * [`SramBank`] / [`SramArray`] — voltage-scalable weight memories with
//!   persistent flip-to-preferred read mechanics;
//! * [`profile_bank`] / [`profile_array`] — the paper's compile-time
//!   profiling procedure (read-after-write + read-after-read sweeps)
//!   producing [`FaultMap`]s of (word, bit, polarity) failures, and
//!   [`park_bank`], the safe zeroed state every profile leaves behind;
//! * [`FaultMap`] — per-word OR/AND injection masks, the exact object the
//!   memory-adaptive training loop consumes;
//! * [`inject`] — synthetic Bernoulli fault maps for the paper's Fig. 5
//!   feasibility study;
//! * [`fingerprint`] — stable 128-bit content hashes (FNV-1a/128 over the
//!   serde value tree) used by the sweep cache to address results by
//!   fault-map/configuration content.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod bank;
mod config;
mod dist;
mod fault_map;
pub mod fingerprint;
pub mod hybrid;
pub mod inject;
mod profile;

pub use array::{die_of, SramArray};
pub use bank::SramBank;
pub use config::{ArrayConfig, SramConfig};
pub use dist::VminDistribution;
pub use fault_map::{BankFaultMap, FaultMap, FaultRecord};
pub use profile::{park_bank, profile_array, profile_bank, ProfileReport};

#[cfg(test)]
mod proptests;
