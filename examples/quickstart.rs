//! Quickstart: the full MATIC flow on one chip, end to end.
//!
//! Synthesizes an SNNAC die, runs the Fig. 3 deployment flow for the
//! inverse-kinematics benchmark at a 0.50 V target (28 % of weight
//! bit-cells stuck), lets the in-situ canary controller find the true
//! operating point, and compares accuracy and energy against nominal.
//!
//! Run with: `cargo run --release --example quickstart`

use matic::prelude::*;
use matic_core::DeploymentFlow;
use matic_datasets::Benchmark;

fn main() {
    let bench = Benchmark::InverseK2j;
    let split = bench.generate_scaled(7, 0.5);

    println!("== MATIC quickstart: {bench} on a synthesized SNNAC die ==\n");

    // One die from the shuttle run.
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 0xD1E);
    println!(
        "chip: {} banks x {} words x {} bit weight SRAM ({} KB)",
        chip.config().array.banks,
        chip.config().array.bank.words,
        chip.config().array.bank.word_bits,
        chip.config().array.bytes() / 1024
    );

    // Compile-time flow: profile -> memory-adaptive training -> canary
    // selection -> upload & arm.
    let flow = DeploymentFlow::new(0.50);
    let mut net = chip.deploy(&flow, &bench.topology(), &split.train);
    let map = net.deployment().fault_map();
    println!(
        "profiled {} stuck bits at 0.50 V ({:.1} % BER); trained around them",
        map.fault_count(),
        100.0 * map.ber()
    );

    // Runtime: the canary controller runs Algorithm 1.
    let settled = chip.poll_canaries(&mut net);
    println!("canary controller settled the SRAM rail at {settled:.3} V\n");

    // Evaluate through the NPU at the settled voltage.
    let mut mse = 0.0;
    let mut energy_pj = 0.0;
    let mut cycles = 0u64;
    for s in &split.test {
        let (out, stats) = chip.infer(&net, &s.input);
        mse += out
            .iter()
            .zip(&s.target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / out.len() as f64;
        energy_pj += stats.energy_pj;
        cycles += stats.npu.cycles;
    }
    mse /= split.test.len() as f64;
    let per_inf = energy_pj / split.test.len() as f64;

    // The nominal reference: same model, SRAM at 0.9 V.
    chip.set_sram_voltage(0.9);
    let mut mse_nom = 0.0;
    let mut energy_nom = 0.0;
    for s in &split.test {
        let (out, stats) = chip.infer(&net, &s.input);
        mse_nom += out
            .iter()
            .zip(&s.target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / out.len() as f64;
        energy_nom += stats.energy_pj;
    }
    mse_nom /= split.test.len() as f64;
    energy_nom /= split.test.len() as f64;

    println!("results over {} test samples:", split.test.len());
    println!("  MSE  @ {settled:.3} V : {mse:.4}");
    println!("  MSE  @ 0.900 V : {mse_nom:.4}");
    println!(
        "  energy/inference @ {settled:.3} V : {:.1} nJ ({cycles} cycles total)",
        per_inf / 1e3
    );
    println!("  energy/inference @ 0.900 V : {:.1} nJ", energy_nom / 1e3);
    println!(
        "  SRAM-rail energy saving: {:.2}x with accuracy within noise of nominal",
        energy_nom / per_inf
    );
}
