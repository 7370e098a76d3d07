//! Shared experiment machinery for the table/figure benchmark harnesses.
//!
//! Every bench target under `benches/` regenerates one table or figure of
//! the MATIC paper. Since the `matic-harness` crate exists, all sweep
//! execution lives there — this crate only adapts the harness's
//! population reports into the single-chip [`Sweep`] shape the printed
//! tables use, and keeps the paper-calibrated [`Effort`] knobs in one
//! place. No bespoke sweep loops remain here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use matic_core::MatConfig;
use matic_datasets::Benchmark;
use matic_harness::{BenchmarkScenario, Scenario, SweepPlan, TrainingMode};
use std::sync::Arc;

/// One voltage point of a naive-vs-adaptive sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// SRAM voltage.
    pub voltage: f64,
    /// Error of the fault-oblivious baseline (Table I metric units).
    pub naive: f64,
    /// Error of the memory-adaptive model.
    pub adaptive: f64,
}

/// A full naive-vs-adaptive voltage sweep for one benchmark.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Error at the 0.9 V nominal (naive model, clean SRAM).
    pub nominal: f64,
    /// Mean squared test target (signal power; normalizes regression AEI
    /// to a percentage, the scale the paper's Table I uses).
    pub target_power: f64,
    /// Per-voltage measurements, descending voltage.
    pub points: Vec<SweepPoint>,
}

/// Experiment-scale knobs (kept in one place so every harness agrees).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Dataset scale factor (1.0 = reference size).
    pub data_scale: f64,
    /// Multiplier on each benchmark's recipe epochs.
    pub epoch_scale: f64,
    /// RNG seed for chip synthesis and data generation.
    pub seed: u64,
}

impl Effort {
    /// Full effort for the committed experiment outputs.
    pub fn full() -> Self {
        Effort {
            data_scale: 1.0,
            epoch_scale: 1.0,
            seed: 42,
        }
    }

    /// Reduced effort for smoke-testing the harnesses.
    pub fn quick() -> Self {
        Effort {
            data_scale: 0.25,
            epoch_scale: 0.35,
            seed: 42,
        }
    }

    /// Reads `MATIC_BENCH_EFFORT=quick|full` (default full).
    pub fn from_env() -> Self {
        match std::env::var("MATIC_BENCH_EFFORT").as_deref() {
            Ok("quick") => Self::quick(),
            _ => Self::full(),
        }
    }

    /// The training configuration used by both models: the benchmark's
    /// recipe at this effort's epoch budget (delegates to the harness
    /// [`Scenario`] so benches and sweeps can never disagree).
    pub fn mat_config(&self, bench: Benchmark) -> MatConfig {
        BenchmarkScenario(bench).train_config(self.epoch_scale)
    }

    /// The sweep-plan skeleton this effort corresponds to (one chip,
    /// naive + adaptive, this effort's scales and seed).
    pub fn plan_builder(&self, bench: Benchmark) -> matic_harness::SweepPlanBuilder {
        SweepPlan::builder()
            .chips(1)
            .scenario(Arc::new(BenchmarkScenario(bench)))
            .modes(&[TrainingMode::Naive, TrainingMode::Mat])
            .data_scale(self.data_scale)
            .epoch_scale(self.epoch_scale)
            .seed(self.seed)
    }
}

/// Runs the full naive-vs-adaptive sweep of one benchmark over `voltages`
/// on a freshly synthesized chip (the Fig. 10 / Table I experiment),
/// executed by the `matic-harness` engine.
///
/// The naive baseline trains once (quantization-aware, fault-oblivious);
/// the adaptive model re-trains against the chip's profiled fault map at
/// every voltage where new faults appear, exactly as the deployment flow
/// prescribes (one model per operating point, Fig. 3).
pub fn run_sweep(bench: Benchmark, voltages: &[f64], effort: Effort) -> Sweep {
    let plan = effort
        .plan_builder(bench)
        .voltages(voltages)
        .build()
        .expect("bench sweep plans are valid by construction");
    let report = matic_harness::run_sweep(&plan);

    // Signal power of the test targets, for AEI normalization — only the
    // regression benchmarks use it, so only they pay the split
    // regeneration (with the exact seed the engine used).
    let target_power = if bench.is_classification() {
        1.0
    } else {
        let split = BenchmarkScenario(bench).generate(plan.data_seed(0), plan.data_scale);
        let total_targets: usize = split.test.iter().map(|s| s.target.len()).sum();
        split
            .test
            .iter()
            .flat_map(|s| s.target.iter())
            .map(|t| t * t)
            .sum::<f64>()
            / total_targets as f64
    };

    let nominal = report.cells[0].nominal_error;
    let points = plan
        .axis
        .points()
        .iter()
        .map(|&v| {
            let err = |mode: &str| {
                report
                    .cells
                    .iter()
                    .find(|c| c.mode == mode && c.voltage == Some(v))
                    .expect("cell exists for every (mode, voltage)")
                    .error
            };
            SweepPoint {
                voltage: v,
                naive: err("naive"),
                adaptive: err("mat"),
            }
        })
        .collect();
    Sweep {
        benchmark: bench,
        nominal,
        target_power,
        points,
    }
}

impl Sweep {
    /// AEI of the naive and adaptive models in percent (regression MSE
    /// increases are normalized by the test-target signal power; the
    /// reduction ratio is independent of that constant).
    pub fn aei_percent(&self) -> (f64, f64) {
        let scale = if self.benchmark.is_classification() {
            1.0
        } else {
            100.0 / self.target_power
        };
        let n = self.points.len() as f64;
        let naive = self
            .points
            .iter()
            .map(|p| (p.naive - self.nominal) * scale)
            .sum::<f64>()
            / n;
        let adaptive = self
            .points
            .iter()
            .map(|p| (p.adaptive - self.nominal) * scale)
            .sum::<f64>()
            / n;
        (naive.max(0.0), adaptive.max(0.0))
    }

    /// The Table I AEI-reduction ratio, capped at 50x. The adaptive
    /// denominator is floored at 0.25 percentage points (the resolution of
    /// a few test samples), so an adaptive model that lands at or below
    /// its nominal error reports the cap rather than infinity; harnesses
    /// print such entries as "> 50x".
    pub fn aei_reduction(&self) -> f64 {
        let (naive, adaptive) = self.aei_percent();
        (naive / adaptive.max(0.25)).min(50.0)
    }

    /// True when [`Sweep::aei_reduction`] hit its cap/floor.
    pub fn aei_reduction_is_floored(&self) -> bool {
        let (naive, adaptive) = self.aei_percent();
        adaptive < 0.25 || naive / adaptive.max(0.25) > 50.0
    }

    /// The point measured at (or nearest to) `voltage`.
    pub fn at(&self, voltage: f64) -> SweepPoint {
        *self
            .points
            .iter()
            .min_by(|a, b| {
                (a.voltage - voltage)
                    .abs()
                    .partial_cmp(&(b.voltage - voltage).abs())
                    .unwrap()
            })
            .expect("sweep has points")
    }

    /// Formats an error in the benchmark's Table I unit.
    pub fn fmt_err(&self, e: f64) -> String {
        if self.benchmark.is_classification() {
            format!("{e:.1}%")
        } else {
            format!("{e:.3}")
        }
    }
}

/// Prints a uniform harness header so bench output is self-describing.
pub fn header(experiment: &str, paper_claim: &str) {
    println!("\n================================================================");
    println!("MATIC reproduction — {experiment}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_and_produces_finite_errors() {
        let sweep = run_sweep(
            Benchmark::InverseK2j,
            &[0.52],
            Effort {
                data_scale: 0.2,
                epoch_scale: 0.3,
                seed: 1,
            },
        );
        assert_eq!(sweep.points.len(), 1);
        assert!(sweep.nominal >= 0.0);
        let p = sweep.points[0];
        assert!(p.adaptive.is_finite() && p.naive.is_finite());
    }

    #[test]
    fn aei_reduction_uses_normalized_units() {
        let sweep = Sweep {
            benchmark: Benchmark::InverseK2j,
            nominal: 0.03,
            target_power: 0.1,
            points: vec![SweepPoint {
                voltage: 0.5,
                naive: 0.23,
                adaptive: 0.05,
            }],
        };
        let (n, a) = sweep.aei_percent();
        assert!((n - 200.0).abs() < 1e-9);
        assert!((a - 20.0).abs() < 1e-9);
        assert!((sweep.aei_reduction() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_points_follow_requested_voltages_descending() {
        let sweep = run_sweep(
            Benchmark::InverseK2j,
            &[0.50, 0.90],
            Effort {
                data_scale: 0.15,
                epoch_scale: 0.25,
                seed: 2,
            },
        );
        let volts: Vec<f64> = sweep.points.iter().map(|p| p.voltage).collect();
        assert_eq!(volts, [0.90, 0.50]);
    }
}
