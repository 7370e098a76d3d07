//! Parallel chip-population sweep engine for the MATIC reproduction.
//!
//! The paper's headline results (Fig. 5, Table I, Table II) are statistics
//! over *populations* of chip instances swept across voltages and
//! benchmarks. This crate turns that workload into a declarative,
//! embarrassingly parallel pipeline:
//!
//! 1. describe the cartesian grid — `{chip seeds} x {supply voltages or
//!    bit-error rates} x {benchmarks} x {training modes}` — with the
//!    [`SweepPlan`] builder;
//! 2. [`run_sweep`] distributes **(scenario, chip)** work units over a
//!    rayon work queue, trains/evaluates every cell on the simulated
//!    silicon, and reuses trained models across voltage points whose
//!    fault maps add nothing new ([`ReusePolicy::SupersetMap`]);
//! 3. the [`SweepReport`] aggregates per-point accuracy, energy and
//!    fail-rate statistics and serializes to JSON or CSV;
//! 4. [`pareto::energy_report`] derives the accuracy–energy analysis —
//!    trade-off curves, Pareto frontiers, and the Table II
//!    minimum-energy operating-point selections under an accuracy
//!    budget (the `matic energy` CLI).
//!
//! Workloads plug in through the [`Scenario`] trait; the paper's four
//! benchmarks are pre-wired ([`builtin_scenarios`]). Reports are
//! **byte-identical regardless of worker-thread count** because every
//! random quantity is seeded from the plan and the cell's grid position
//! (see [`seeds`]), never from scheduling.
//!
//! Sweeps are **resumable**: attach a persistent content-addressed cell
//! cache ([`cache`], [`SweepPlanBuilder::cache_dir`]) and every
//! completed cell is checkpointed atomically the moment it finishes; a
//! re-run (after a crash, a kill, or on a grown grid) replays cache-hit
//! cells without training or evaluating anything, and still emits
//! byte-identical reports (enforced by `tests/cache_resume.rs`).
//!
//! The `matic` CLI binary (`cargo run --release -- sweep ...`) is a thin
//! wrapper over this API.
//!
//! # Example
//!
//! ```
//! use matic_harness::{SweepPlan, TrainingMode};
//!
//! // A tiny two-point population sweep of the inverse-kinematics task.
//! let plan = SweepPlan::builder()
//!     .chips(2)
//!     .voltages(&[0.9, 0.52])
//!     .benchmark("inversek2j")
//!     .unwrap()
//!     .modes(&[TrainingMode::Naive, TrainingMode::Mat])
//!     .data_scale(0.1)
//!     .epoch_scale(0.2)
//!     .build()
//!     .unwrap();
//! let report = matic_harness::run_sweep(&plan);
//! assert_eq!(report.cells.len(), plan.cell_count());
//! // Adaptive training beats the naive baseline at the overscaled point.
//! let at = |mode: &str| {
//!     report
//!         .points
//!         .iter()
//!         .find(|p| p.mode == mode && p.stress == 0.52)
//!         .unwrap()
//!         .error
//!         .mean
//! };
//! assert!(at("mat") <= at("naive"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod engine;
pub mod pareto;
mod plan;
mod report;
pub mod scenario;
pub mod sched;
pub mod seeds;
pub mod shard;

pub use cache::{
    write_atomic, CacheStats, CacheUsage, CellCoords, CellKey, SweepCache, UnitKeyPrefix,
    CACHE_SCHEMA_V4,
};
pub use engine::{
    assemble_sweep, eval_composed_set, eval_on_chip, run_sweep, run_sweep_observed,
    run_sweep_with_cache, run_unit_observed, set_eval_chunk, sweep_splits, sweep_units,
    MemoEviction, SweepRun,
};
/// The training memo an [`ExecContext`] carries (see the engine's model
/// reuse notes).
pub use matic_core::TrainingMemo;
pub use pareto::{
    energy_report, AccuracyBudget, BenchmarkEnergy, EnergyReport, EnergyReportError,
    ScenarioOutcome, ScenarioSelection, TradeoffPoint, ENERGY_SCHEMA,
};
pub use plan::{
    linspace, PlanError, ReusePolicy, StressAxis, SweepPlan, SweepPlanBuilder, TrainingMode,
};
pub use report::{
    CellEnergy, CellRecord, PlanSummary, PointSummary, Stats, SweepReport, REPORT_SCHEMA,
    REPORT_SCHEMA_V4,
};
pub use scenario::{
    builtin_scenarios, scenario_by_name, BenchmarkScenario, Scenario, TopologyScenario,
};
pub use sched::{
    par_chunked, CancelToken, CancelledSweep, CellOrigin, ExecContext, Inflight, ProgressSink,
    Resolution, SweepOutcome, UnitOutcome,
};
pub use shard::{
    assemble_sharded, merge_shard_units, shard_chip_ranges, shard_units, ShardMergeError,
};

#[cfg(test)]
mod proptests;
