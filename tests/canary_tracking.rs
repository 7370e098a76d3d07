//! Closed-loop behaviour of the in-situ canary system across environment
//! changes (the Fig. 12 property, asserted rather than plotted).

use matic_core::{DeploymentFlow, MatConfig};
use matic_datasets::Benchmark;
use matic_nn::SgdConfig;
use matic_snnac::{Chip, ChipConfig, DeployedNetwork};

fn deploy(seed: u64) -> (Chip, DeployedNetwork, Vec<matic_nn::Sample>) {
    let bench = Benchmark::InverseK2j;
    let split = bench.generate_scaled(9, 0.5);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), seed);
    let flow = DeploymentFlow {
        mat: MatConfig {
            sgd: SgdConfig {
                epochs: 24,
                ..bench.sgd()
            },
            ..MatConfig::paper()
        },
        ..DeploymentFlow::new(0.50)
    };
    let net = chip.deploy(&flow, &bench.topology(), &split.train);
    (chip, net, split.test)
}

fn mse(chip: &mut Chip, net: &DeployedNetwork, test: &[matic_nn::Sample]) -> f64 {
    let mut acc = 0.0;
    for s in test.iter().take(50) {
        let (out, _) = chip.infer(net, &s.input);
        acc += out
            .iter()
            .zip(&s.target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / out.len() as f64;
    }
    acc / test.len().min(50) as f64
}

/// Voltage tracks temperature inversely and roughly linearly (below the
/// temperature-inversion point), and accuracy survives the whole ramp.
#[test]
fn voltage_tracks_temperature_ramp_with_stable_accuracy() {
    let (mut chip, mut net, test) = deploy(0xF12);
    let mut voltages = Vec::new();
    let temps = [
        25.0, 10.0, -5.0, -15.0, 0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0,
    ];
    for &t in &temps {
        chip.set_temperature(t);
        let v = chip.poll_canaries(&mut net);
        let e = mse(&mut chip, &net, &test);
        assert!(e < 0.1, "MSE {e} at {t} °C / {v} V");
        voltages.push(v);
    }
    // Coldest point needs the highest rail; hottest the lowest.
    let v_cold = voltages[3];
    let v_hot = voltages[10];
    assert!(v_cold > v_hot, "cold {v_cold} vs hot {v_hot}");
    // The total swing should be on the order of |temp_coeff| * 105 °C
    // (±2 regulator steps of slack).
    let expected = 0.24e-3 * 105.0;
    assert!(
        ((v_cold - v_hot) - expected).abs() <= 0.010 + 1e-9,
        "swing {} vs expected {expected}",
        v_cold - v_hot
    );
}

/// Algorithm 1's settled rail over the Fig. 12 chamber profile
/// (25 → −15 → 90 °C in 15 °C steps, then a repeat of the last point),
/// pinned to the millivolt: cold raises the rail, heat lowers it, and a
/// repeated operating point holds.
#[test]
fn settled_voltage_trajectory_is_pinned_over_the_chamber_profile() {
    let (mut chip, mut net, _) = deploy(0xF12);
    let profile = [
        (25.0, 500),
        (10.0, 505),
        (-5.0, 510),
        (-15.0, 510),
        (0.0, 510),
        (15.0, 505),
        (30.0, 500),
        (45.0, 500),
        (60.0, 495),
        (75.0, 490),
        (90.0, 485),
        (90.0, 485),
    ];
    for (t, want_mv) in profile {
        chip.set_temperature(t);
        let v = chip.poll_canaries(&mut net);
        assert_eq!((v * 1000.0).round() as u32, want_mv, "at {t} °C");
    }
}

/// Repolling at a constant operating point is a fixed point: the voltage
/// settles once and stays.
#[test]
fn controller_is_idempotent_at_fixed_conditions() {
    let (mut chip, mut net, _) = deploy(0xF13);
    let v1 = chip.poll_canaries(&mut net);
    for _ in 0..4 {
        assert_eq!(chip.poll_canaries(&mut net), v1);
    }
}

/// The canary margin is tight: the settled voltage sits within a few
/// regulator steps of the target the deployment was trained for, not at a
/// conservative static margin hundreds of millivolts up.
#[test]
fn canary_margin_is_tight_not_static() {
    let (mut chip, mut net, _) = deploy(0xF14);
    let settled = chip.poll_canaries(&mut net);
    // Trained for 0.50 V; canaries were chosen as the most marginal cells
    // just below it. A conventional design would sit at 0.9 V nominal or
    // apply a fixed worst-case margin; the canary system lands within
    // ~4 steps (20 mV) of the target.
    assert!(
        (settled - 0.50).abs() <= 0.020 + 1e-9,
        "settled {settled} V not tight around the 0.50 V target"
    );
}
