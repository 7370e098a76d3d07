//! Domain demo: a 2-link robot arm tracking a trajectory with its inverse
//! kinematics computed by the deployed network on the voltage-overscaled
//! accelerator — the paper's motivating approximate-computing use case.
//!
//! Run with: `cargo run --release --example inversek2j_arm`

use matic_core::{DeploymentFlow, MatConfig};
use matic_datasets::{forward_kinematics, inverse_kinematics, Benchmark};
use matic_snnac::{Chip, ChipConfig};
use std::f64::consts::FRAC_PI_2;

fn main() {
    println!("== 2-link arm: NN inverse kinematics on an overscaled SNNAC ==\n");

    let split = inverse_kinematics(1200, 11);
    let mut chip = Chip::synthesize(ChipConfig::snnac(), 0xA21);
    let flow = DeploymentFlow {
        mat: MatConfig {
            sgd: Benchmark::InverseK2j.sgd(),
            ..MatConfig::paper()
        },
        ..DeploymentFlow::new(0.50)
    };
    let mut net = chip.deploy(&flow, &Benchmark::InverseK2j.topology(), &split.train);
    let v = chip.poll_canaries(&mut net);
    println!("deployed at {v:.3} V SRAM (28 % of bit-cells past their Vmin)\n");

    // Track a quarter-circle arc through the reachable workspace.
    println!(
        "{:>6} | {:>16} | {:>16} | {:>10}",
        "step", "target (x, y)", "reached (x, y)", "error"
    );
    println!("{:-<6}-+-{:-<16}-+-{:-<16}-+-{:-<10}", "", "", "", "");
    let mut worst = 0.0f64;
    let mut mean = 0.0f64;
    let n = 12;
    for i in 0..n {
        let phase = i as f64 / (n - 1) as f64;
        // A target path parameterized in joint space (guaranteed reachable).
        let t1 = 0.2 + 0.9 * phase;
        let t2 = 1.2 - 0.8 * phase;
        let (x, y) = forward_kinematics(t1, t2);
        let (out, _) = chip.infer(&net, &[x, y]);
        let (rx, ry) = forward_kinematics(out[0] * FRAC_PI_2, out[1] * FRAC_PI_2);
        let err = ((rx - x).powi(2) + (ry - y).powi(2)).sqrt();
        worst = worst.max(err);
        mean += err;
        println!("{i:>6} | ({x:>6.3}, {y:>6.3}) | ({rx:>6.3}, {ry:>6.3}) | {err:>10.4}");
    }
    mean /= n as f64;
    println!("\nmean end-effector error {mean:.4}, worst {worst:.4} (arm length 1.0)");
    println!("the arm tracks the path on a chip whose weight memory runs");
    println!("60-80 mV past the point of first read failure.");
}
