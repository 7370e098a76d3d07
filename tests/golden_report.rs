//! Golden-report anchor: the four Table I benchmarks, swept exactly as
//! the checked-in golden file was generated, must keep producing
//! byte-identical output.
//!
//! The golden file was written by the batch CLI:
//!
//! ```text
//! matic sweep --chips 2 --voltages 0.50,0.90 --benchmarks all \
//!     --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_all_v3.json
//! ```
//!
//! This pins two contracts at once: the deterministic pipeline (same
//! plan → same bytes, whatever the host, thread count or batch shape),
//! and the report's serialized layout — all-MLP plans must stay on the
//! v3 schema with the exact v3 field set, so downstream consumers of
//! existing reports never see a byte change they didn't opt into by
//! sweeping an extended topology.
//!
//! A second golden pins the canary deployment path (`mat-canary`), which
//! the all-benchmark grid does not sweep:
//!
//! ```text
//! matic sweep --chips 2 --voltages 0.46,0.57,0.90 --benchmarks inversek2j \
//!     --modes naive,mat,mat-canary --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_canary_v3.json
//! ```
//!
//! Two more pin the synthetic fault models, which run without profiled
//! silicon: i.i.d. bit errors on the BER axis, and MAC timing drops on
//! the clock-stress axis. The clock grid's two points below the drop
//! onset inject nothing, so they exercise model reuse and evaluation
//! replay on a synthetic axis:
//!
//! ```text
//! matic sweep --chips 2 --bers 0.0005,0.002,0.008 --benchmarks all \
//!     --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_ber_v3.json
//! matic sweep --chips 2 --clock-stress 0.1,0.2,0.5,0.9 --benchmarks all \
//!     --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_clock_v3.json
//! ```
//!
//! The last two pin the extended-topology inference path — convolution
//! lowered onto position × sample lanes, max pooling over raw lanes, and
//! the v4 schema — on the voltage axis (with canary deployment) and,
//! through MAC timing drops, on the clock-stress axis:
//!
//! ```text
//! matic sweep --chips 2 --voltages 0.50,0.90 --benchmarks mnist \
//!     --topology '10x10x1;conv3x2;pool2;dense10' \
//!     --modes naive,mat,mat-canary --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_conv_v4.json
//! matic sweep --chips 2 --clock-stress 0.2,0.9 --benchmarks mnist \
//!     --topology '10x10x1;conv3x2;pool2;dense10' \
//!     --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_conv_clock_v4.json
//! ```

use matic_harness::{
    run_sweep, run_sweep_observed, ExecContext, SweepOutcome, SweepPlan, SweepPlanBuilder,
    TrainingMemo, TrainingMode,
};
use matic_nn::NetSpec;

/// Fails with the produced report written next to the golden, so CI
/// artifacts make the diff inspectable (the reports are tens of kB).
fn assert_golden(got: &str, golden: &str, name: &str) {
    if got != golden {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/{name}_actual.json"));
        let _ = std::fs::create_dir_all(out.parent().unwrap());
        let _ = std::fs::write(&out, got);
        panic!(
            "sweep report diverged from tests/golden/{name}.json \
             (got {} bytes vs {} golden; actual written to {})",
            got.len(),
            golden.len(),
            out.display()
        );
    }
}

#[test]
fn all_benchmark_sweep_is_byte_identical_to_golden() {
    let plan = SweepPlan::builder()
        .chips(2)
        .voltages(&[0.50, 0.90])
        .all_benchmarks()
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42)
        .build()
        .expect("plan is valid");
    let got = run_sweep(&plan).to_json_pretty();
    let golden = include_str!("golden/sweep_all_v3.json");
    assert!(
        golden.contains("\"matic.sweep-report/v3\""),
        "golden anchor must be a v3 (all-MLP) report"
    );
    assert_golden(&got, golden, "sweep_all_v3");
}

fn canary_plan(threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(2)
        .voltages(&[0.46, 0.57, 0.90])
        .benchmark("inversek2j")
        .expect("inversek2j is a builtin benchmark")
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

#[test]
fn canary_sweep_is_byte_identical_to_golden_and_trains_each_model_once() {
    let golden = include_str!("golden/sweep_canary_v3.json");
    let memo = TrainingMemo::new();
    let ctx = ExecContext {
        memo: Some(&memo),
        ..ExecContext::default()
    };
    let run = match run_sweep_observed(&canary_plan(2), &ctx) {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
    };
    assert_golden(&run.report.to_json_pretty(), golden, "sweep_canary_v3");
    // Per chip the engine asks for the naive baseline, MAT at 0.90 V (a
    // clean map: the naive model again) and at 0.46 V (0.57 V reuses the
    // 0.90 V model: no new faults), and one canary deployment per point.
    // Distinct: the shared baseline, one 0.46 V MAT model per chip, and
    // per chip one canary-pinned map at 0.46 V plus one shared by 0.57
    // and 0.90 V, where no bit-cell fails besides the pinned canaries.
    assert_eq!(memo.requests(), 2 * (1 + 2 + 3));
    assert_eq!(memo.trainings(), 1 + 2 + 2 * 2);
    // Per chip one canary walk below 0.46 V, and one from the safe voltage
    // that 0.57 and 0.90 V share.
    assert_eq!(memo.selections(), 2 * 2);
    for threads in [1, 4] {
        let got = run_sweep(&canary_plan(threads)).to_json_pretty();
        assert_golden(&got, golden, "sweep_canary_v3");
    }
}

/// The all-benchmark naive/mat grid over a synthetic stress axis, set by
/// `axis` on the builder.
fn synthetic_plan(axis: fn(SweepPlanBuilder) -> SweepPlanBuilder, threads: usize) -> SweepPlan {
    axis(SweepPlan::builder())
        .chips(2)
        .all_benchmarks()
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

#[test]
fn ber_sweep_is_byte_identical_to_golden() {
    let golden = include_str!("golden/sweep_ber_v3.json");
    for threads in [1, 2, 4] {
        let plan = synthetic_plan(|b| b.bit_error_rates(&[0.0005, 0.002, 0.008]), threads);
        assert_golden(&run_sweep(&plan).to_json_pretty(), golden, "sweep_ber_v3");
    }
}

#[test]
fn clock_sweep_is_byte_identical_to_golden() {
    let golden = include_str!("golden/sweep_clock_v3.json");
    for threads in [1, 2, 4] {
        let plan = synthetic_plan(|b| b.clock_stress(&[0.1, 0.2, 0.5, 0.9]), threads);
        assert_golden(&run_sweep(&plan).to_json_pretty(), golden, "sweep_clock_v3");
    }
}

/// The conv-chain MNIST grid on the axis `axis` sets, in `modes`.
fn conv_plan(
    axis: fn(SweepPlanBuilder) -> SweepPlanBuilder,
    modes: &[TrainingMode],
    threads: usize,
) -> SweepPlan {
    let topo = NetSpec::parse_topology("10x10x1;conv3x2;pool2;dense10").expect("valid chain");
    axis(SweepPlan::builder())
        .chips(2)
        .benchmark("mnist")
        .expect("mnist is a builtin benchmark")
        .topology(topo)
        .modes(modes)
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

#[test]
fn conv_sweep_is_byte_identical_to_golden() {
    let golden = include_str!("golden/sweep_conv_v4.json");
    let modes = [
        TrainingMode::Naive,
        TrainingMode::Mat,
        TrainingMode::MatCanary,
    ];
    for threads in [1, 2, 4] {
        let plan = conv_plan(|b| b.voltages(&[0.50, 0.90]), &modes, threads);
        assert_golden(&run_sweep(&plan).to_json_pretty(), golden, "sweep_conv_v4");
    }
}

#[test]
fn conv_clock_sweep_is_byte_identical_to_golden() {
    let golden = include_str!("golden/sweep_conv_clock_v4.json");
    let modes = [TrainingMode::Naive, TrainingMode::Mat];
    for threads in [1, 2, 4] {
        let plan = conv_plan(|b| b.clock_stress(&[0.2, 0.9]), &modes, threads);
        assert_golden(
            &run_sweep(&plan).to_json_pretty(),
            golden,
            "sweep_conv_clock_v4",
        );
    }
}
