//! Fault-composed inference must be **bit-identical** to per-MAC
//! injection.
//!
//! The NPU's default execution path composes the array's post-disturb
//! contents into a dense `FaultedWeights` artifact and runs the batched
//! interpreter over it; [`Snnac::execute_reference`] keeps the original
//! locate-fetch-decode-per-MAC loop as the oracle. This suite drives both
//! over the four paper topologies, several chip seeds and the full
//! voltage range, asserting exact equality of outputs, cycle statistics
//! and the physical array state left behind.

use matic_core::{train_naive, upload_weights, FaultedWeights, MatConfig, TrainedModel};
use matic_nn::{NetSpec, Sample, SgdConfig};
use matic_snnac::microcode::Program;
use matic_snnac::{Chip, ChipConfig, Snnac};

/// The four Table I topologies.
fn paper_topologies() -> Vec<(&'static str, NetSpec)> {
    vec![
        ("mnist", NetSpec::classifier(&[100, 32, 10])),
        ("facedet", NetSpec::classifier(&[400, 8, 1])),
        ("inversek2j", NetSpec::regressor(&[2, 16, 2])),
        ("bscholes", NetSpec::regressor(&[6, 16, 1])),
    ]
}

/// A quickly trained model plus a few probe inputs for a topology.
fn model_and_probes(spec: &NetSpec, seed: u64) -> (TrainedModel, Vec<Vec<f64>>) {
    let fan_in = spec.layers[0];
    let fan_out = *spec.layers.last().unwrap();
    let data: Vec<Sample> = (0..24)
        .map(|i| {
            let input: Vec<f64> = (0..fan_in)
                .map(|c| (((i * 13 + c * 7 + seed as usize) % 97) as f64 / 97.0) - 0.3)
                .collect();
            let target = vec![0.5; fan_out];
            Sample::new(input, target)
        })
        .collect();
    let cfg = MatConfig {
        sgd: SgdConfig {
            epochs: 2,
            ..SgdConfig::default()
        },
        ..MatConfig::paper()
    };
    let model = train_naive(spec, &data, &cfg, 8, 576);
    let probes = data.iter().take(6).map(|s| s.input.clone()).collect();
    (model, probes)
}

/// Uploads at a safe voltage, overscales, and runs every probe through
/// both paths on twin dice (same synthesis seed = identical silicon),
/// asserting exact equality throughout.
fn assert_parity(spec: &NetSpec, name: &str, chip_seed: u64, voltage: f64) {
    let (model, probes) = model_and_probes(spec, chip_seed);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(spec, npu.pe_count());

    let mut reference_chip = Chip::synthesize(ChipConfig::snnac(), chip_seed);
    let mut composed_chip = Chip::synthesize(ChipConfig::snnac(), chip_seed);
    for chip in [&mut reference_chip, &mut composed_chip] {
        chip.set_sram_voltage(0.9);
        upload_weights(&model, chip.array_mut());
        chip.set_sram_voltage(voltage);
    }

    // Compose once, evaluate the whole probe set as one batch — the sweep
    // engine's usage pattern.
    let weights =
        FaultedWeights::from_array(model.layout(), model.format(), composed_chip.array_mut());
    let inputs: Vec<&[f64]> = probes.iter().map(|v| v.as_slice()).collect();
    let (fast_outs, fast_stats) = npu.execute_batch(&program, &weights, &inputs);
    for (p, (input, fast_out)) in probes.iter().zip(fast_outs).enumerate() {
        let (ref_out, ref_stats) =
            npu.execute_reference(&program, model.layout(), reference_chip.array_mut(), input);
        assert_eq!(
            ref_out, fast_out,
            "{name} seed {chip_seed} @ {voltage} V probe {p}: outputs diverge"
        );
        assert_eq!(
            ref_stats, fast_stats,
            "{name} seed {chip_seed} @ {voltage} V probe {p}: stats diverge"
        );
    }

    // Both paths must leave identical post-disturb silicon behind.
    for (_, loc) in model.layout().entries() {
        assert_eq!(
            reference_chip.array().bank(loc.bank).peek(loc.word),
            composed_chip.array().bank(loc.bank).peek(loc.word),
            "{name} seed {chip_seed} @ {voltage} V: array state diverges at {loc:?}"
        );
    }
}

#[test]
fn composed_matches_per_mac_across_benchmarks_seeds_and_voltages() {
    for (name, spec) in paper_topologies() {
        for chip_seed in [1u64, 77] {
            // Nominal (clean), moderate overscale, and the deep 0.46 V
            // point where nearly half the cells sit past their Vmin.
            for voltage in [0.9, 0.57, 0.50, 0.46] {
                assert_parity(&spec, name, chip_seed, voltage);
            }
        }
    }
}

#[test]
fn default_execute_is_the_composed_path() {
    // `execute` composes internally; one die driven by `execute`, a twin
    // driven by the reference, must agree exactly per inference.
    let (name, spec) = &paper_topologies()[0];
    let (model, probes) = model_and_probes(spec, 5);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(spec, npu.pe_count());
    let mut a = Chip::synthesize(ChipConfig::snnac(), 5);
    let mut b = Chip::synthesize(ChipConfig::snnac(), 5);
    for chip in [&mut a, &mut b] {
        chip.set_sram_voltage(0.9);
        upload_weights(&model, chip.array_mut());
        chip.set_sram_voltage(0.48);
    }
    for input in &probes {
        let (ref_out, ref_stats) =
            npu.execute_reference(&program, model.layout(), a.array_mut(), input);
        let (out, stats) = npu.execute(&program, model.layout(), b.array_mut(), input);
        assert_eq!(ref_out, out, "{name}: execute diverged from reference");
        assert_eq!(ref_stats, stats);
    }
}
