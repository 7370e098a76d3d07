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
//! plan → same bytes, whatever the host, thread count or kernel tier),
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

use matic_harness::{
    run_sweep, run_sweep_observed, ExecContext, SweepOutcome, SweepPlan, TrainingMemo, TrainingMode,
};

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
    for threads in [1, 4] {
        let got = run_sweep(&canary_plan(threads)).to_json_pretty();
        assert_golden(&got, golden, "sweep_canary_v3");
    }
}
