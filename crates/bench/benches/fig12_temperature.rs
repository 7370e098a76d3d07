//! Figure 12: runtime closed-loop SRAM voltage control under ambient
//! temperature variation.
//!
//! Paper: after initialization at 0.5 V / 25 °C on inversek2j, the chamber
//! sweeps 25 → −15 → 90 °C in 15 °C steps; the in-situ canary system
//! tracks the (temperature-inverted) Vmin boundary, raising the rail when
//! cold and lowering it when hot, where a conventional design would carry
//! a static margin.

use matic_bench::{header, Effort};
use matic_core::DeploymentFlow;
use matic_datasets::Benchmark;
use matic_snnac::{Chip, ChipConfig};

fn main() {
    let effort = Effort::from_env();
    header(
        "Fig. 12 — canary-tracked SRAM voltage vs temperature",
        "inverse V/T tracking around the 0.5 V initial point (inversek2j)",
    );

    let bench = Benchmark::InverseK2j;
    let split = bench.generate_scaled(effort.seed, effort.data_scale);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), effort.seed);
    let flow = DeploymentFlow {
        mat: effort.mat_config(bench),
        ..DeploymentFlow::new(0.50)
    };
    let mut net = chip.deploy(&flow, &bench.topology(), &split.train);

    // The chamber profile of the paper: 25 -> -15 -> 90 in 15 C steps.
    let mut profile: Vec<f64> = vec![25.0];
    let mut t: f64 = 25.0;
    while t > -15.0 {
        t -= 15.0;
        profile.push(t.max(-15.0));
    }
    while t < 90.0 {
        t += 15.0;
        profile.push(t.min(90.0));
    }

    println!(
        "{:>6} | {:>9} | {:>12} | {:>10}",
        "step", "T (degC)", "V_sram (V)", "action"
    );
    println!("{:-<6}-+-{:-<9}-+-{:-<12}-+-{:-<10}", "", "", "", "");
    let mut prev_v = f64::NAN;
    for (step, &temp) in profile.iter().enumerate() {
        chip.set_temperature(temp);
        // Between inferences the canary controller runs Algorithm 1.
        let v = chip.poll_canaries(&mut net);
        let action = if prev_v.is_nan() || (v - prev_v).abs() < 1e-9 {
            "hold"
        } else if v > prev_v {
            "raise"
        } else {
            "lower"
        };
        println!("{step:>6} | {temp:>9.0} | {v:>12.3} | {action:>10}");
        prev_v = v;
    }
    println!("\nshape check: the rail rises as the chamber cools to -15 degC and");
    println!("falls below the 25 degC setting as it heats to 90 degC (temperature");
    println!("inversion at low voltage), with no static margin anywhere.");
}
