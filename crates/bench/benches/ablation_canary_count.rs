//! Ablation: canaries per bank vs residual risk and voltage margin.
//!
//! The paper "conservatively select[s] eight distributed, marginal canary
//! bit-cells from each weight-storage SRAM". Fewer canaries settle at a
//! lower rail (less margin) but leave more unprotected marginal cells
//! between the canary boundary and the first data failure; more canaries
//! add margin. This harness quantifies that trade-off on one die.

use matic_bench::header;
use matic_core::{CanaryController, CanarySet, ControllerConfig};
use matic_snnac::{Chip, ChipConfig};
use matic_sram::profile_array;

fn main() {
    header(
        "Ablation — canaries per bank",
        "the paper picks 8/bank as a conservative margin/overhead balance",
    );

    // At 0.50 V the Vmin density is so high that any canary count catches
    // the first 5 mV step; the trade-off resolves in the sparse region
    // near the point of first failure, probed with a fine 2 mV step.
    let target = 0.52;
    let step = 0.002;
    println!(
        "{:>10} | {:>12} | {:>16} | {:>16} | {:>12}",
        "per bank", "settled (V)", "canary bnd (V)", "1st data (V)", "gap (mV)"
    );
    println!(
        "{:-<10}-+-{:-<12}-+-{:-<16}-+-{:-<16}-+-{:-<12}",
        "", "", "", "", ""
    );
    for per_bank in [1usize, 2, 4, 8, 16] {
        // Fresh identical die each time (selection profiling is
        // destructive and the experiment must be independent).
        let mut chip = Chip::synthesize(ChipConfig::snnac(), 4242);
        let (at_target, _) = profile_array(chip.array_mut().banks_mut(), target, 25.0);
        let set = CanarySet::select(chip.array_mut(), &at_target, per_bank, step);
        chip.set_sram_voltage(0.9);
        set.arm(chip.array_mut());
        let mut ctl = CanaryController::new(
            set,
            ControllerConfig {
                step_v: step,
                ..ControllerConfig::default()
            },
        );
        ctl.poll(chip.array_mut());
        let settled = ctl.voltage();

        // Oracle view of the protection structure:
        // * canary boundary = the most marginal canary's Vmin (the rail
        //   setting at which the controller first sees a failure);
        // * first data casualty = the most marginal *protected* cell's
        //   Vmin (the first real weight bit to silently corrupt if the
        //   rail drooped past the canaries).
        // The gap between them is the early-warning margin the canary
        // population buys.
        let canary_boundary = ctl
            .canaries()
            .cells()
            .iter()
            .map(|c| chip.array().bank(c.bank).cell_vmin(c.word, c.bit))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut first_data = f64::NEG_INFINITY;
        for bank in 0..chip.array().bank_count() {
            for word in 0..chip.array().bank(bank).words() {
                for bit in 0..16u8 {
                    if ctl
                        .canaries()
                        .cells()
                        .iter()
                        .any(|c| c.bank == bank && c.word == word && c.bit == bit)
                    {
                        continue;
                    }
                    let vmin = chip.array().bank(bank).cell_vmin(word, bit);
                    if vmin <= target && vmin > first_data {
                        first_data = vmin;
                    }
                }
            }
        }
        println!(
            "{per_bank:>10} | {settled:>12.3} | {canary_boundary:>16.4} | {first_data:>16.4} | {:>12.2}",
            (canary_boundary - first_data) * 1000.0
        );
    }
    println!("\nexpected: the canary population absorbs the most marginal cells,");
    println!("so a larger count pushes the first *silent* data casualty further");
    println!("below the canary boundary — a wider early-warning band. 8/bank");
    println!("(the paper's choice) already buys a multi-millivolt gap.");
}
