//! End-to-end integration: the full MATIC pipeline (profile → train →
//! deploy → infer on the NPU) for each benchmark, at reduced scale.

use matic_bench_shim::*;

/// Shared helpers (duplicated minimally from the bench crate so the
/// integration tests exercise the public APIs directly).
mod matic_bench_shim {
    pub use matic_core::{upload_weights, MatConfig, MatTrainer, TrainedModel};
    pub use matic_datasets::Benchmark;
    pub use matic_nn::Sample;
    pub use matic_snnac::microcode::Program;
    pub use matic_snnac::{Chip, ChipConfig, Snnac};
    pub use matic_sram::FaultMap;

    /// Quantization-aware fault-free baseline.
    pub fn train_baseline(
        bench: Benchmark,
        train: &[Sample],
        cfg: &MatConfig,
        chip: &Chip,
    ) -> TrainedModel {
        let a = &chip.config().array;
        let clean = FaultMap::clean(0.9, a.banks, a.bank.words, a.bank.word_bits);
        MatTrainer::new(bench.topology(), cfg.clone()).train(train, &clean)
    }

    /// Evaluates a model through the NPU at `voltage`.
    pub fn chip_error(
        chip: &mut Chip,
        model: &TrainedModel,
        bench: Benchmark,
        test: &[Sample],
        voltage: f64,
    ) -> f64 {
        chip.set_sram_voltage(0.9);
        upload_weights(model, chip.array_mut());
        chip.set_sram_voltage(voltage);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(model.master().spec(), npu.pe_count());
        let mut wrong = 0usize;
        let mut mse = 0.0;
        for s in test {
            let (out, _) = npu.execute(&program, model.layout(), chip.array_mut(), &s.input);
            if bench.is_classification() {
                let am = |v: &[f64]| {
                    (0..v.len())
                        .max_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap())
                        .unwrap()
                };
                let ok = if out.len() == 1 {
                    (out[0] >= 0.5) == (s.target[0] >= 0.5)
                } else {
                    am(&out) == am(&s.target)
                };
                if !ok {
                    wrong += 1;
                }
            } else {
                mse += out
                    .iter()
                    .zip(&s.target)
                    .map(|(y, t)| (y - t) * (y - t))
                    .sum::<f64>()
                    / out.len() as f64;
            }
        }
        if bench.is_classification() {
            100.0 * wrong as f64 / test.len() as f64
        } else {
            mse / test.len() as f64
        }
    }

    /// The full per-benchmark recipe — the annealing schedules (and the
    /// restart policy for narrow nets) are tuned as a whole, so
    /// integration tests run the production configuration unmodified.
    pub fn quick_cfg(bench: Benchmark) -> MatConfig {
        use matic_harness::{BenchmarkScenario, Scenario};
        BenchmarkScenario(bench).train_config(1.0)
    }
}

/// For every benchmark: at the 0.50 V energy-optimal point (28 % BER), the
/// memory-adaptive model must beat the naive baseline by a wide margin and
/// stay within a usable distance of nominal.
#[test]
fn adaptive_beats_naive_at_energy_optimal_voltage() {
    for (bench, scale) in [
        (Benchmark::Mnist, 0.5),
        (Benchmark::FaceDet, 0.6),
        (Benchmark::InverseK2j, 0.6),
        (Benchmark::BScholes, 0.6),
    ] {
        let split = bench.generate_scaled(11, scale);
        let cfg = quick_cfg(bench);
        let mut chip = Chip::synthesize(ChipConfig::snnac(), 77);
        let naive = train_baseline(bench, &split.train, &cfg, &chip);
        let nominal = chip_error(&mut chip, &naive, bench, &split.test, 0.9);

        let map = chip.profile(0.50);
        assert!(
            (map.ber() - 0.28).abs() < 0.02,
            "[{bench}] 0.50 V BER should be ~28 %, got {:.3}",
            map.ber()
        );
        let adaptive = MatTrainer::new(bench.topology(), cfg.clone()).train(&split.train, &map);
        let e_naive = chip_error(&mut chip, &naive, bench, &split.test, 0.50);
        let e_adapt = chip_error(&mut chip, &adaptive, bench, &split.test, 0.50);

        // Whether this die actually hurt the naive model is a lottery over
        // which words its failing cells land in; when it did, adaptive
        // training must clearly win, and it must never be worse.
        let naive_degraded = if bench.is_classification() {
            e_naive > nominal + 10.0
        } else {
            e_naive > nominal + 0.05
        };
        if naive_degraded {
            assert!(
                e_adapt < e_naive * 0.75,
                "[{bench}] adaptive {e_adapt} must clearly beat degraded naive {e_naive}"
            );
        } else {
            assert!(
                e_adapt <= e_naive * 1.05 + 1e-9,
                "[{bench}] adaptive {e_adapt} must not be worse than naive {e_naive}"
            );
        }
        if bench.is_classification() {
            assert!(
                e_adapt < nominal + 25.0,
                "[{bench}] adaptive {e_adapt}% too far from nominal {nominal}%"
            );
        } else {
            assert!(
                e_adapt < nominal + 0.1,
                "[{bench}] adaptive {e_adapt} too far from nominal {nominal}"
            );
        }
    }
}

/// The deployment flow on a chip yields a usable network at the canary
/// controller's settled voltage, and the settled voltage actually
/// overscales (below the 0.53 V first-failure point).
#[test]
fn deployment_flow_overscales_every_benchmark() {
    use matic_core::DeploymentFlow;
    for bench in [Benchmark::InverseK2j, Benchmark::BScholes] {
        let split = bench.generate_scaled(5, 0.6);
        let mut chip = Chip::synthesize(ChipConfig::snnac(), 123);
        let flow = DeploymentFlow {
            mat: quick_cfg(bench),
            ..DeploymentFlow::new(0.50)
        };
        let mut net = chip.deploy(&flow, &bench.topology(), &split.train);
        let settled = chip.poll_canaries(&mut net);
        assert!(
            settled < 0.53,
            "[{bench}] canary controller failed to overscale: {settled} V"
        );
        let mut mse = 0.0;
        for s in split.test.iter().take(60) {
            let (out, _) = chip.infer(&net, &s.input);
            mse += out
                .iter()
                .zip(&s.target)
                .map(|(y, t)| (y - t) * (y - t))
                .sum::<f64>()
                / out.len() as f64;
        }
        mse /= split.test.len().min(60) as f64;
        assert!(mse < 0.08, "[{bench}] deployed MSE {mse} at {settled} V");
    }
}

/// Full pipeline determinism: identical seeds produce bit-identical
/// results through data generation, chip synthesis, profiling, training
/// and NPU inference.
#[test]
fn pipeline_is_deterministic() {
    let bench = Benchmark::InverseK2j;
    let run = || {
        let split = bench.generate_scaled(3, 0.2);
        let cfg = quick_cfg(bench);
        let mut chip = Chip::synthesize(ChipConfig::snnac(), 9);
        let map = chip.profile(0.50);
        let model = MatTrainer::new(bench.topology(), cfg).train(&split.train, &map);
        chip_error(&mut chip, &model, bench, &split.test, 0.50)
    };
    assert_eq!(run(), run());
}
