//! Closed-loop canary voltage control under a temperature ramp — the
//! Fig. 12 experiment as a runnable demo, with the canary controller
//! (Algorithm 1) re-run at every chamber step.
//!
//! Run with: `cargo run --release --example canary_runtime`

use matic_core::{DeploymentFlow, MatConfig};
use matic_datasets::Benchmark;
use matic_snnac::{Chip, ChipConfig};

fn main() {
    println!("== in-situ canary runtime: voltage tracking a temperature ramp ==\n");

    let bench = Benchmark::InverseK2j;
    let split = bench.generate_scaled(3, 0.8);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 0xCAFE);

    let flow = DeploymentFlow {
        mat: MatConfig {
            sgd: bench.sgd(),
            ..MatConfig::paper()
        },
        ..DeploymentFlow::new(0.50)
    };
    let mut net = chip.deploy(&flow, &bench.topology(), &split.train);
    println!(
        "deployed {} with {} canaries ({} per bank), target 0.50 V",
        bench,
        net.deployment().controller().canaries().cells().len(),
        flow.canaries_per_bank
    );

    println!(
        "\n{:>10} | {:>12} | {:>12}",
        "T (degC)", "V_sram (V)", "test MSE"
    );
    println!("{:-<10}-+-{:-<12}-+-{:-<12}", "", "", "");

    // Chamber profile: 25 -> -15 -> 90 degC in 15 degC steps.
    let mut temps = vec![25.0];
    let mut t = 25.0f64;
    while t > -15.0 {
        t = (t - 15.0).max(-15.0);
        temps.push(t);
    }
    while t < 90.0 {
        t = (t + 15.0).min(90.0);
        temps.push(t);
    }

    for temp in temps {
        chip.set_temperature(temp);
        // Between inferences, the canary controller re-runs Algorithm 1.
        let v = chip.poll_canaries(&mut net);
        // Spot-check accuracy at the settled point.
        let mut mse = 0.0;
        for s in split.test.iter().take(40) {
            let (out, _) = chip.infer(&net, &s.input);
            mse += out
                .iter()
                .zip(&s.target)
                .map(|(y, t)| (y - t) * (y - t))
                .sum::<f64>()
                / out.len() as f64;
        }
        mse /= 40.0;
        println!("{temp:>10.0} | {v:>12.3} | {mse:>12.4}");
    }

    println!("\nThe rail climbs as the die cools (higher Vmin below the");
    println!("temperature-inversion point) and descends as it heats — no");
    println!("static margin, accuracy held throughout.");
}
