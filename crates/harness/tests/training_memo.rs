//! The sweep's training memo: a population sweep trains each distinct
//! model once and walks each die's canaries once, and drops every model
//! once its scenario is finished.

use matic_harness::{
    assemble_sweep, run_sweep_observed, run_unit_observed, sweep_splits, sweep_units, ExecContext,
    SweepOutcome, SweepPlan, SweepRun, TrainingMemo, TrainingMode,
};

fn complete(outcome: SweepOutcome) -> SweepRun {
    match outcome {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
    }
}

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
    let run = complete(run_sweep_observed(&plan, &ctx));
    assert_eq!(run.report.cells.len(), plan.cell_count());
    // 16 units ask for 128 models: a naive baseline, two MAT models
    // (0.90 V and 0.46 V; the points between reuse) and five canary
    // deployments each. Per scenario the baseline is trained once and
    // MAT at 0.90 V is that baseline; per unit one MAT model at 0.46 V
    // and two canary-pinned maps (one shared by every target from 0.57 V
    // up) are new: 4 + 16 + 32.
    assert_eq!(memo.requests(), 128);
    assert_eq!(memo.trainings(), 52);
    // Per die one walk below 0.46 V and one from the 0.54 V safe voltage,
    // shared by every target from 0.57 V up and by all four benchmarks.
    assert_eq!(memo.selections(), 4 * 2);
    assert!(memo.is_empty(), "finished scenarios hold no models");
}

/// Two benchmarks on two chips in every mode, across the canary walk's
/// two regimes: below the first bit-cell failures and above them.
fn two_benchmark_canary_plan(threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(2)
        .voltages(&[0.46, 0.57, 0.90])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .benchmark("bscholes")
        .expect("builtin benchmark")
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.1)
        .epoch_scale(0.1)
        .seed(42)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

#[test]
fn shared_canary_walks_give_the_bytes_of_unit_local_ones() {
    // Unit by unit, each with its own memo: every unit walks its die's
    // canaries itself (0.46 V, and 0.57 V, which 0.90 V reuses).
    let plan = two_benchmark_canary_plan(1);
    let splits = sweep_splits(&plan);
    let units = sweep_units(&plan);
    let mut local_walks = 0;
    let per_unit = units
        .iter()
        .map(|&(scen, chip)| {
            let memo = TrainingMemo::new();
            let ctx = ExecContext {
                memo: Some(&memo),
                ..ExecContext::default()
            };
            let outcome = run_unit_observed(&plan, scen, chip, &splits[scen], &ctx);
            local_walks += memo.selections();
            outcome
        })
        .collect();
    assert_eq!(local_walks, units.len() * 2);
    let want = complete(assemble_sweep(&plan, per_unit, false))
        .report
        .to_json_pretty();
    // Through one sweep memo: the second benchmark's units hit the walks
    // the first one's ran on the same die, whichever unit fills them.
    for threads in [1, 2, 4] {
        let memo = TrainingMemo::new();
        let ctx = ExecContext {
            memo: Some(&memo),
            ..ExecContext::default()
        };
        let plan = two_benchmark_canary_plan(threads);
        let got = complete(run_sweep_observed(&plan, &ctx))
            .report
            .to_json_pretty();
        assert!(got == want, "report differs at {threads} threads");
        assert_eq!(
            memo.selections(),
            2 * 2,
            "2 chips x 2 walks at {threads} threads"
        );
    }
}
