//! The sweep's training memo: a population sweep trains each distinct
//! model once, and drops every model once its scenario is finished.

use matic_harness::{
    run_sweep_observed, ExecContext, SweepOutcome, SweepPlan, TrainingMemo, TrainingMode,
};

#[test]
fn a_voltage_sweep_trains_each_distinct_model_once() {
    // The benchmark's `voltage-mlp` grid on smaller data: fault maps (and
    // hence the distinct trainings) depend only on the chips and voltages.
    let plan = SweepPlan::builder()
        .chips(4)
        .voltage_grid(0.46, 0.90, 5)
        .all_benchmarks()
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.1)
        .epoch_scale(0.1)
        .seed(42)
        .threads(2)
        .build()
        .expect("plan is valid");
    let memo = TrainingMemo::new();
    let ctx = ExecContext {
        memo: Some(&memo),
        ..ExecContext::default()
    };
    match run_sweep_observed(&plan, &ctx) {
        SweepOutcome::Complete(run) => assert_eq!(run.report.cells.len(), plan.cell_count()),
        SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
    }
    // 16 units ask for 128 models: a naive baseline, two MAT models
    // (0.90 V and 0.46 V; the points between reuse) and five canary
    // deployments each. Per scenario the baseline is trained once and
    // MAT at 0.90 V is that baseline; per unit one MAT model at 0.46 V
    // and two canary-pinned maps (one shared by every target from 0.57 V
    // up) are new: 4 + 16 + 32.
    assert_eq!(memo.requests(), 128);
    assert_eq!(memo.trainings(), 52);
    assert!(memo.is_empty(), "finished scenarios hold no models");
}
