//! Cross-layer consistency: the NPU datapath, the fault-map "deploy view"
//! and the physical read-back must all agree about what the hardware
//! computes.

use matic_core::{DeploymentFlow, MatConfig, MatTrainer, ParamRef};
use matic_datasets::Benchmark;
use matic_nn::SgdConfig;
use matic_snnac::{Chip, ChipConfig};
use matic_sram::FaultMap;

fn quick_cfg(bench: Benchmark) -> MatConfig {
    MatConfig {
        sgd: SgdConfig {
            epochs: 10,
            ..bench.sgd()
        },
        ..MatConfig::paper()
    }
}

/// At the profiled voltage, the physical read-back equals the fault-map
/// view parameter-for-parameter (the fault map *is* the hardware's truth).
#[test]
fn read_back_equals_fault_map_view_at_target() {
    let bench = Benchmark::InverseK2j;
    let split = bench.generate_scaled(1, 0.2);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 31);
    let flow = DeploymentFlow {
        mat: quick_cfg(bench),
        ..DeploymentFlow::new(0.50)
    };
    let deployed = chip.deploy(&flow, &bench.topology(), &split.train);
    chip.set_sram_voltage(0.50);
    let read = deployed.deployment().read_back(chip.array_mut());
    let view = deployed
        .deployment()
        .model()
        .deploy(deployed.deployment().fault_map());
    for l in 0..read.spec().depth() {
        for (a, b) in read.weights()[l]
            .as_slice()
            .iter()
            .zip(view.weights()[l].as_slice())
        {
            assert!((a - b).abs() < 1e-12, "weight mismatch: {a} vs {b}");
        }
        for (a, b) in read.biases()[l].iter().zip(&view.biases()[l]) {
            assert!((a - b).abs() < 1e-12, "bias mismatch: {a} vs {b}");
        }
    }
}

/// NPU fixed-point inference tracks the float view of the same weights
/// within the datapath's quantization budget.
#[test]
fn npu_tracks_float_view_within_quantization_budget() {
    let bench = Benchmark::BScholes;
    let split = bench.generate_scaled(2, 0.2);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 17);
    let flow = DeploymentFlow {
        mat: quick_cfg(bench),
        ..DeploymentFlow::new(0.52)
    };
    let net = chip.deploy(&flow, &bench.topology(), &split.train);
    chip.set_sram_voltage(0.52);
    let float_view = net.deployment().read_back(chip.array_mut());
    let mut worst = 0.0f64;
    for s in split.test.iter().take(50) {
        let (out, _) = chip.infer(&net, &s.input);
        let reference = float_view.forward(&s.input);
        for (a, b) in out.iter().zip(&reference) {
            worst = worst.max((a - b).abs());
        }
    }
    // Activation LSB is 2^-14; AFU PWL error < 0.005; accumulated error
    // across two layers stays comfortably below 0.02.
    assert!(worst < 0.02, "NPU vs float view divergence {worst}");
}

/// Deployed weight words satisfy their own fault masks: what MAT assumed
/// stuck is exactly what the chip reads back stuck.
#[test]
fn deployed_words_satisfy_masks() {
    let bench = Benchmark::Mnist;
    let split = bench.generate_scaled(3, 0.1);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 41);
    let map = chip.profile(0.50);
    let model = MatTrainer::new(bench.topology(), quick_cfg(bench)).train(&split.train, &map);
    matic_core::upload_weights(&model, chip.array_mut());
    chip.set_sram_voltage(0.50);
    let fmt = model.format();
    for (param, loc) in model.layout().entries() {
        let word = chip.array_mut().read(loc.bank, loc.word);
        let masked = map.apply(loc.bank, loc.word, word);
        assert_eq!(word, masked, "word at {loc:?} violates its mask");
        // And it decodes to the deploy view's value.
        let expect = match param {
            ParamRef::Weight { layer, row, col } => {
                model.deploy(&map).weights()[layer].get(row, col)
            }
            ParamRef::Bias { layer, row } => model.deploy(&map).biases()[layer][row],
        };
        let got = matic_fixed::dequantize(fmt.decode(word), fmt);
        assert!((got - expect).abs() < 1e-12);
    }
}

/// A fault map profiled on one chip does not transfer to another die:
/// MATIC models are chip-specific (the paper's flow profiles each chip).
#[test]
fn fault_maps_are_die_specific() {
    let mut chip_a = Chip::synthesize(ChipConfig::snnac(), 100);
    let mut chip_b = Chip::synthesize(ChipConfig::snnac(), 200);
    let map_a = chip_a.profile(0.50);
    let map_b = chip_b.profile(0.50);
    assert_ne!(map_a, map_b);
    // Similar statistics, different pattern.
    assert!((map_a.ber() - map_b.ber()).abs() < 0.02);
    let clean = FaultMap::clean(0.5, 8, 576, 16);
    assert!(clean.is_subset_of(&map_a));
    assert!(!map_a.is_subset_of(&map_b));
}
