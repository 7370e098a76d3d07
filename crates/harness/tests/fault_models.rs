//! Differential tests proving every fault model against the reference
//! path.
//!
//! The sweep engine evaluates fault content through the *composed* NPU
//! path: storage faults are baked into a dense [`FaultedWeights`]
//! artifact once, and timing drops compose into the kernel. This suite
//! re-runs every model's fault content through the per-MAC reference
//! oracle (`execute_reference_dropped`, which fetches each weight word
//! from the SRAM array and squashes dropped products individually) and
//! asserts the two paths agree bit-for-bit — across chips, stress
//! points, and all three models of the taxonomy.
//!
//! It also pins the harness-level guarantees of the taxonomy: reports
//! stay byte-identical across thread counts on every axis, canaries are
//! refused without silicon, and the harness source itself never reaches
//! around the model to the SRAM-specific machinery.

use matic_core::{
    train_naive, upload_weights, CellFaults, FaultContext, FaultModel, FaultedWeights, TrainedModel,
};
use matic_harness::{run_sweep, scenario_by_name, SweepPlan, TrainingMode};
use matic_nn::Sample;
use matic_snnac::microcode::Program;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{ArrayConfig, SramArray};

/// Stress points worth probing for each model: one mild, one harsh
/// (deep enough that faults are overwhelmingly present).
fn stress_points(model: &FaultModel) -> Vec<f64> {
    match model {
        FaultModel::SramVoltage { .. } => vec![0.52, 0.46],
        FaultModel::RandomBer { .. } => vec![0.002, 0.02],
        FaultModel::TimingError { .. } => vec![0.5, 0.9],
    }
}

/// The fault content one cell would see, built exactly the way the
/// engine builds it: silicon models get a profiled map, synthetic
/// models get seeds only.
fn faults_for(model: &FaultModel, stress: f64, seed: u64) -> CellFaults {
    let ctx = FaultContext {
        stress,
        cell_seed: seed.wrapping_mul(100).wrapping_add(1),
        unit_seed: seed,
        profiled: None,
    };
    if model.needs_silicon() {
        let mut chip = Chip::synthesize(
            ChipConfig::with_geometry(model.geometry(), Default::default()),
            seed,
        );
        let profiled = chip.profile(stress);
        model.faults_at(&FaultContext {
            profiled: Some(&profiled),
            ..ctx
        })
    } else {
        model.faults_at(&ctx)
    }
}

/// Writes the fault map's view of every weight word into a fresh array
/// (the engine's injected-evaluation storage setup).
fn faulted_array(model_t: &TrainedModel, geom: &ArrayConfig, faults: &CellFaults) -> SramArray {
    let mut array = SramArray::synthesize(geom, 0);
    upload_weights(model_t, &mut array);
    for b in 0..geom.banks {
        for w in 0..geom.bank.words {
            let stored = array.read(b, w);
            let faulted = faults.map.apply(b, w, stored);
            if faulted != stored {
                array.write(b, w, faulted);
            }
        }
    }
    array
}

#[test]
fn composed_matches_reference_for_every_model() {
    let array = ArrayConfig::default();
    let models = [
        FaultModel::SramVoltage {
            array: array.clone(),
        },
        FaultModel::RandomBer {
            array: array.clone(),
        },
        FaultModel::TimingError { array },
    ];
    let scenario = scenario_by_name("inversek2j").expect("builtin benchmark");
    let split = scenario.generate(11, 0.15);
    let test: &[Sample] = &split.test;
    for model in &models {
        let geom = model.geometry();
        let mut cfg = scenario.train_config(0.1);
        if let Some(fmt) = model.weight_format() {
            cfg.weight_fmt = fmt;
        }
        let trained = train_naive(
            &scenario.topology(),
            &split.train,
            &cfg,
            geom.banks,
            geom.bank.words,
        );
        let npu = Snnac::snnac(trained.format());
        let program = Program::compile(trained.master().spec(), npu.pe_count());
        for seed in [3u64, 9] {
            for stress in stress_points(model) {
                let faults = faults_for(model, stress, seed);
                let mut array = faulted_array(&trained, &geom, &faults);
                let weights =
                    FaultedWeights::from_array(trained.layout(), trained.format(), &mut array);
                let drops = faults.drops.as_ref();
                let inputs: Vec<&[f64]> = test.iter().map(|s| s.input.as_slice()).collect();
                let (fast_outs, fast_stats) =
                    npu.execute_batch_dropped(&program, &weights, &inputs, drops);
                for (i, (s, fast)) in test.iter().zip(&fast_outs).enumerate() {
                    let (reference, ref_stats) = npu.execute_reference_dropped(
                        &program,
                        trained.layout(),
                        &mut array,
                        &s.input,
                        drops,
                    );
                    assert_eq!(fast.len(), reference.len());
                    for (f, r) in fast.iter().zip(&reference) {
                        assert_eq!(
                            f.to_bits(),
                            r.to_bits(),
                            "{} seed {seed} stress {stress} sample {i}: \
                             composed path diverged from the per-MAC oracle",
                            model.name()
                        );
                    }
                    assert_eq!(
                        fast_stats,
                        ref_stats,
                        "{} seed {seed} stress {stress} sample {i}: stats diverged",
                        model.name()
                    );
                }
            }
        }
    }
}

/// One small sweep plan on each model's native axis.
fn axis_plan(kind: &str, threads: usize) -> SweepPlan {
    let builder = SweepPlan::builder()
        .chips(2)
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .data_scale(0.1)
        .epoch_scale(0.2)
        .seed(7)
        .threads(threads);
    let builder = match kind {
        "voltage" => builder.voltages(&[0.9, 0.52]),
        "ber" => builder.bit_error_rates(&[0.001, 0.01]),
        "clock" => builder.clock_stress(&[0.4, 0.8]),
        other => panic!("unknown axis {other}"),
    };
    builder.build().expect("plan is valid")
}

#[test]
fn every_model_reports_byte_identical_across_thread_counts() {
    for kind in ["voltage", "ber", "clock"] {
        let single = run_sweep(&axis_plan(kind, 1)).to_json_pretty();
        let four = run_sweep(&axis_plan(kind, 4)).to_json_pretty();
        assert_eq!(
            single, four,
            "{kind} axis: report bytes must not depend on the worker count"
        );
    }
}

#[test]
fn synthetic_models_reject_canary_mode() {
    for kind in ["ber", "clock"] {
        let builder = SweepPlan::builder()
            .chips(1)
            .benchmark("inversek2j")
            .expect("builtin benchmark")
            .modes(&[TrainingMode::MatCanary])
            .data_scale(0.1)
            .epoch_scale(0.2);
        let builder = match kind {
            "ber" => builder.bit_error_rates(&[0.01]),
            _ => builder.clock_stress(&[0.5]),
        };
        let err = builder.build().expect_err("canary needs silicon");
        assert!(err.to_string().contains("mat-canary"), "{kind}: {err}");
    }
}

#[test]
fn harness_source_never_bypasses_the_fault_model_trait() {
    // The sweep engine has no SRAM-specific knowledge of its own: all
    // fault content and geometry come from the plan's `FaultModel`.
    // Catch regressions at the token level — these identifiers may
    // appear in the models (matic-core) and tests, never in the harness
    // engine itself.
    let forbidden = [
        "ArrayConfig::snnac",
        "ChipConfig::snnac",
        "VminDistribution",
        "date2018",
        "bernoulli_fault_map",
    ];
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let mut scanned = 0usize;
    for entry in std::fs::read_dir(src).expect("harness src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable source");
        for token in forbidden {
            assert!(
                !text.contains(token),
                "{} references `{token}`; fault content must flow through \
                 the plan's FaultModel",
                path.display()
            );
        }
        scanned += 1;
    }
    assert!(scanned >= 6, "scan must actually cover the engine sources");
}
