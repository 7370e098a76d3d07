//! Criterion micro-benchmarks of the hot kernels: the fixed-point MAC
//! inner loop, injection masking, fault-composition, SRAM profiling,
//! canary selection and the runtime controller's first poll, NPU
//! inference (per-MAC reference vs. fault-composed batches), and the
//! memory-adaptive training step.
//!
//! These do not map to a paper table; they document the simulator's own
//! performance so sweep runtimes stay predictable. Besides the console
//! lines, the run emits a machine-readable baseline to
//! `BENCH_kernel.json` (override the path with `MATIC_BENCH_OUT`;
//! `MATIC_BENCH_SAMPLES` trims the per-bench sample count for smoke
//! runs). The committed `BENCH_kernel.json` at the repository root is the
//! first point of the kernel-performance trajectory — regenerate it with
//! `cargo bench -p matic-bench --bench kernels` from the repo root.

use criterion::{black_box, Criterion};
use matic_core::{
    train_naive, upload_weights, CanaryController, CanarySet, ComposedQuantizer, ControllerConfig,
    FaultedWeights, MaskedQuantizer, MatConfig, MatTrainer, ParamRef, TrainedModel, WeightLayout,
};
use matic_datasets::Benchmark;
use matic_fixed::{Accumulator, Fx, QFormat};
use matic_harness::eval_composed_set;
use matic_nn::{MomentumState, Sample, SgdConfig};
use matic_snnac::microcode::Program;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{inject::bernoulli_fault_map, profile_array, profile_bank, SramBank, SramConfig};

fn bench_mac(c: &mut Criterion) {
    let q = QFormat::snnac_weight();
    let xs: Vec<Fx> = (0..1024)
        .map(|i| Fx::from_f64((i as f64 / 1024.0) - 0.5, q))
        .collect();
    let ws: Vec<Fx> = (0..1024)
        .map(|i| Fx::from_f64(((i * 7 % 1024) as f64 / 1024.0) - 0.5, q))
        .collect();
    c.bench_function("fixed_mac_1024_sequential", |b| {
        b.iter(|| {
            let mut acc = Accumulator::new();
            for (w, x) in ws.iter().zip(&xs) {
                acc.mac(black_box(*w), black_box(*x));
            }
            black_box(acc.raw())
        })
    });
}

fn bench_masking(c: &mut Criterion) {
    let map = bernoulli_fault_map(8, 576, 16, 0.28, 7);
    c.bench_function("injection_mask_4608_words", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for bank in 0..8 {
                for word in 0..576 {
                    acc ^= map.apply(bank, word, black_box(0x5A5A));
                }
            }
            black_box(acc)
        })
    });
}

fn bench_profiling(c: &mut Criterion) {
    c.bench_function("profile_bank_576x16_at_0v50", |b| {
        b.iter_with_setup(
            || SramBank::synthesize(&SramConfig::snnac_bank(), 3),
            |mut bank| black_box(profile_bank(&mut bank, 0.50, 25.0)),
        )
    });
}

/// Canary deployment on a stock SNNAC die: profile the 0.50 V target,
/// select eight canaries per bank below it, arm them at the safe rail,
/// then the runtime controller's first poll walks the rail down from
/// `v_safe` in 5 mV steps. Each rail step reads only the 64 canary words,
/// so the operating-point changes themselves must stay O(1).
fn bench_canary(c: &mut Criterion) {
    let cfg = ControllerConfig::default();
    c.bench_function("canary_select_and_poll_snnac", |b| {
        b.iter_with_setup(
            || Chip::synthesize(ChipConfig::snnac(), 3),
            |mut chip| {
                let array = chip.array_mut();
                let (at_target, _) = profile_array(array.banks_mut(), 0.50, 25.0);
                let set = CanarySet::select(array, &at_target, 8, cfg.step_v);
                array.set_operating_point(cfg.v_safe, 25.0);
                set.arm(array);
                let mut ctl = CanaryController::new(set, cfg);
                black_box(ctl.poll(array));
                black_box(ctl.voltage())
            },
        )
    });
}

/// Sample lanes per batched-inference dispatch. The JSON baseline entry
/// for the batched benchmark is normalized to **per-sample** time by
/// dividing by this constant, so it is directly comparable to the
/// single-sample entries.
const INFERENCE_BATCH: usize = 32;

/// A trained MNIST-topology model on an overscaled chip: the shared
/// fixture for the inference-path benchmarks.
fn inference_fixture() -> (TrainedModel, Chip, Snnac, Program, Vec<Sample>) {
    let bench = Benchmark::Mnist;
    let split = bench.generate_scaled(1, 0.05);
    let cfg = MatConfig {
        sgd: SgdConfig {
            epochs: 2,
            ..SgdConfig::default()
        },
        ..MatConfig::paper()
    };
    let model = train_naive(&bench.topology(), &split.train, &cfg, 8, 576);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 5);
    upload_weights(&model, chip.array_mut());
    chip.set_sram_voltage(0.50);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    (model, chip, npu, program, split.test)
}

fn bench_inference(c: &mut Criterion) {
    let (model, mut chip, npu, program, test) = inference_fixture();
    let input = test[0].input.clone();

    // The legacy oracle: locate + fetch + decode inside the MAC loop.
    c.bench_function("npu_inference_mnist_per_mac", |b| {
        b.iter(|| {
            black_box(npu.execute_reference(
                &program,
                model.layout(),
                chip.array_mut(),
                black_box(&input),
            ))
        })
    });

    // Composing the fault-composed artifact (once per operating point).
    c.bench_function("compose_faulted_weights_mnist", |b| {
        b.iter(|| {
            black_box(FaultedWeights::from_array(
                model.layout(),
                model.format(),
                chip.array_mut(),
            ))
        })
    });

    let weights = FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut());

    // Batched inference: one dispatch carries INFERENCE_BATCH sample
    // lanes through the microcode. Timed per dispatch here; the JSON
    // baseline divides by the batch size to report per-sample time.
    let batch_inputs: Vec<&[f64]> = test
        .iter()
        .cycle()
        .take(INFERENCE_BATCH)
        .map(|s| s.input.as_slice())
        .collect();
    c.bench_function("npu_inference_mnist_batched", |b| {
        b.iter(|| black_box(npu.execute_batch(&program, &weights, black_box(&batch_inputs))))
    });

    // A whole cell evaluation through the harness: compose-once batched
    // eval of the full test split with the chunked parallel reduction.
    c.bench_function("cell_eval_parallel", |b| {
        b.iter(|| {
            black_box(eval_composed_set(
                &npu,
                &program,
                &weights,
                None,
                true,
                black_box(&test),
            ))
        })
    });
}

/// A trained conv-chain model on the same overscaled chip: MNIST's
/// 100-pixel input viewed as a 10x10 image through
/// `conv3x4 -> pool2 -> dense10`. The layer-chain counterpart of
/// [`inference_fixture`], at matched input width and fault pressure.
fn conv_fixture() -> (TrainedModel, Chip, Snnac, Program, Vec<Sample>) {
    let spec =
        matic_nn::NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").expect("valid chain");
    let split = Benchmark::Mnist.generate_scaled(1, 0.05);
    let cfg = MatConfig {
        sgd: SgdConfig {
            epochs: 2,
            ..SgdConfig::default()
        },
        ..MatConfig::paper()
    };
    let model = train_naive(&spec, &split.train, &cfg, 8, 576);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 5);
    upload_weights(&model, chip.array_mut());
    chip.set_sram_voltage(0.50);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    (model, chip, npu, program, split.test)
}

fn bench_conv(c: &mut Criterion) {
    let (model, mut chip, npu, program, test) = conv_fixture();
    let input = test[0].input.clone();

    // Whole-layer conv/pool micro-ops over the composed artifact, one
    // sample: the conv lowering's position lanes carry the batch.
    let weights = FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut());
    c.bench_function("npu_inference_conv_composed", |b| {
        b.iter(|| black_box(npu.execute_batch(&program, &weights, &[black_box(input.as_slice())])))
    });

    // One conv/pool chain gradient step over an 8-sample batch: the
    // batch moves forward in sample lanes, then each sample runs the
    // conv/pool backward in turn.
    let master = model.master().clone();
    let batch: Vec<Sample> = test.iter().take(8).cloned().collect();
    c.bench_function("chain_gradients_conv_batch8", |b| {
        b.iter(|| {
            let grads = master.gradients(black_box(&batch));
            black_box(grads.weights[0].get(0, 0))
        })
    });
}

fn bench_quantizer(c: &mut Criterion) {
    let bench = Benchmark::Mnist;
    let spec = bench.topology();
    let layout = WeightLayout::new(&spec, 8, 576).unwrap();
    let fmt = QFormat::snnac_weight();
    let map = bernoulli_fault_map(8, 576, 16, 0.28, 3);
    let master = matic_nn::Mlp::init(spec.clone(), 9);

    // Per-parameter reference: resolve the layout inside the sweep.
    let reference = MaskedQuantizer::new(fmt, &layout, Some(&map));
    c.bench_function("masked_quantize_mnist_per_param", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for layer in 0..spec.depth() {
                for row in 0..spec.layers[layer + 1] {
                    for col in 0..spec.layers[layer] {
                        let p = ParamRef::Weight { layer, row, col };
                        acc += reference.effective_value(p, black_box(0.37));
                    }
                    acc += reference.effective_value(ParamRef::Bias { layer, row }, 0.37);
                }
            }
            black_box(acc)
        })
    });

    // Composed fast path: masks pre-gathered into dense buffers.
    let composed = ComposedQuantizer::new(fmt, &layout, Some(&map));
    let mut effective = master.clone();
    c.bench_function("composed_quantize_mnist_dense", |b| {
        b.iter(|| {
            composed.effective_into(black_box(&master), &mut effective);
            black_box(effective.biases()[0][0])
        })
    });
}

fn bench_mat_step(c: &mut Criterion) {
    let bench = Benchmark::Mnist;
    let split = bench.generate_scaled(2, 0.05);
    let map = bernoulli_fault_map(8, 576, 16, 0.28, 5);
    let cfg = MatConfig::paper();
    let trainer = MatTrainer::new(bench.topology(), cfg.clone());
    let layout = WeightLayout::new(&bench.topology(), 8, 576).unwrap();
    let quant = ComposedQuantizer::new(cfg.weight_fmt, &layout, Some(&map));
    let batch: Vec<Sample> = split.train.iter().take(8).cloned().collect();
    let mut master = matic_nn::Mlp::init(bench.topology(), 1);
    let mut momentum = MomentumState::zeros_like(&master);
    c.bench_function("mat_step_mnist_batch8", |b| {
        b.iter(|| {
            trainer.step(&mut master, &quant, &batch, 1e-6, &mut momentum);
            black_box(master.biases()[0][0])
        })
    });
}

fn main() {
    let samples: usize = std::env::var("MATIC_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    let mut c = Criterion::default().sample_size(samples);
    bench_mac(&mut c);
    bench_masking(&mut c);
    bench_profiling(&mut c);
    bench_canary(&mut c);
    bench_inference(&mut c);
    bench_conv(&mut c);
    bench_quantizer(&mut c);
    bench_mat_step(&mut c);

    #[derive(serde::Serialize)]
    struct Entry {
        name: String,
        median_ns: u64,
        min_ns: u64,
        max_ns: u64,
        samples: u64,
    }
    #[derive(serde::Serialize)]
    struct Baseline {
        schema: String,
        benches: Vec<Entry>,
    }
    let baseline = Baseline {
        schema: "matic-bench-kernel/1".to_string(),
        benches: c
            .results()
            .iter()
            .map(|r| {
                // The batched benchmark times a whole dispatch; emit it
                // per sample so it is comparable to the single-sample
                // inference entries.
                let div = if r.name == "npu_inference_mnist_batched" {
                    INFERENCE_BATCH as u128
                } else {
                    1
                };
                Entry {
                    name: r.name.clone(),
                    median_ns: (r.median_ns / div) as u64,
                    min_ns: (r.min_ns / div) as u64,
                    max_ns: (r.max_ns / div) as u64,
                    samples: r.samples as u64,
                }
            })
            .collect(),
    };
    // Default to the workspace root (cargo runs benches from the crate
    // directory) so the committed baseline is regenerated in place.
    let out = std::env::var("MATIC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json").to_string()
    });
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&out, json + "\n").expect("baseline written");
    println!("\nkernel baseline -> {out}");
}
