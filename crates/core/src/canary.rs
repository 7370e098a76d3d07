//! In-situ synaptic canary selection (paper §III-C).
//!
//! "MATIC uses weight bit-cells directly as in-situ canary circuits,
//! leveraging a select number of bit-cells that are on the margin of
//! read-failure." Selection works purely from *profiling observations* —
//! multi-voltage fault maps — never from oracle knowledge of cell Vmin:
//! the cells chosen are those still correct at the target operating point
//! that are observed to fail soonest below it.

use matic_sram::{profile_array, FaultMap, SramArray};
use serde::{Deserialize, Serialize};

/// One canary bit-cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CanaryCell {
    /// Bank (PE) index.
    pub bank: usize,
    /// Word address.
    pub word: usize,
    /// Bit index.
    pub bit: u8,
    /// The cell's preferred (failure) state observed during profiling.
    pub preferred: bool,
    /// The highest sweep voltage at which the cell was observed to fail
    /// (its marginality; higher = fails sooner below the target).
    pub fail_voltage: f64,
}

/// A set of canary cells selected for one deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanarySet {
    target_voltage: f64,
    cells: Vec<CanaryCell>,
}

impl CanarySet {
    /// Selects `per_bank` canaries per weight SRAM (the paper uses eight)
    /// by profiling at descending voltages in steps of `step_v` below the
    /// target, harvesting the first cells to fail in each bank that are
    /// still correct in `at_target` — the array's fault map profiled at
    /// the target operating point, whose voltage and temperature the
    /// sweep inherits.
    ///
    /// Profiling is destructive; run selection before weights are loaded
    /// (the deployment flow in Fig. 3 orders it that way).
    ///
    /// High target voltages (above the distribution's first-failure knee,
    /// ≈0.53 V on the modelled silicon) simply sweep further down until
    /// the most marginal cells of the die appear — the runtime controller
    /// then discovers the die's true safe floor even when deployment was
    /// commanded at nominal.
    ///
    /// # Panics
    ///
    /// Panics if `per_bank` is zero or `step_v` is not positive. Panics if
    /// the sweep exhausts the regulator floor (0.40 V, where the modelled
    /// distribution has every cell failing) without finding enough
    /// marginal cells — physically implausible.
    pub fn select(
        array: &mut SramArray,
        at_target: &FaultMap,
        per_bank: usize,
        step_v: f64,
    ) -> Self {
        assert!(per_bank > 0, "need at least one canary per bank");
        assert!(step_v > 0.0, "sweep step must be positive");
        let (target_voltage, temp_c) = (at_target.voltage, at_target.temp_c);
        let banks = array.bank_count();
        let mut cells: Vec<Vec<CanaryCell>> = vec![Vec::new(); banks];
        let mut v = walk_start(array, at_target, step_v);
        let floor = 0.40;
        while cells.iter().any(|c| c.len() < per_bank) {
            assert!(
                v > floor,
                "sweep reached {v:.3} V without finding {per_bank} canaries per bank"
            );
            let (below, _) = profile_array(array.banks_mut(), v, temp_c);
            for (bank, bank_map) in below.banks().iter().enumerate() {
                if cells[bank].len() >= per_bank {
                    continue;
                }
                for (word, bit, preferred) in bank_map.iter() {
                    if at_target.banks()[bank].is_faulty(word, bit) {
                        continue; // already compensated by training
                    }
                    if cells[bank].iter().any(|c| c.word == word && c.bit == bit) {
                        continue; // found at a higher (earlier) voltage
                    }
                    if cells[bank].len() < per_bank {
                        cells[bank].push(CanaryCell {
                            bank,
                            word,
                            bit,
                            preferred,
                            fail_voltage: v,
                        });
                    }
                }
            }
            v -= step_v;
        }
        CanarySet {
            target_voltage,
            cells: cells.into_iter().flatten().collect(),
        }
    }

    /// A set guarding `target_voltage` with already selected `cells` (a
    /// memoized selection's outcome).
    pub(crate) fn from_cells(target_voltage: f64, cells: Vec<CanaryCell>) -> Self {
        CanarySet {
            target_voltage,
            cells,
        }
    }

    /// The deployment's target operating voltage.
    pub fn target_voltage(&self) -> f64 {
        self.target_voltage
    }

    /// The selected cells.
    pub fn cells(&self) -> &[CanaryCell] {
        &self.cells
    }

    /// Arms the canaries: writes each cell's *anti-preferred* value so a
    /// read-stability failure is observable as a flip. Must run at a safe
    /// voltage (the controller raises the rail before re-arming).
    ///
    /// Canary cells live inside weight words; arming after weight upload
    /// would corrupt weights, so the deployment flow reserves their words
    /// (see [`DeploymentFlow`](crate::DeploymentFlow)) or arms before
    /// upload. Here we simply rewrite the whole word with the canary bit
    /// forced, preserving the other bits.
    pub fn arm(&self, array: &mut SramArray) {
        for c in &self.cells {
            let word = array.bank_mut(c.bank).peek(c.word);
            let armed = if c.preferred {
                word & !(1 << c.bit) // prefers 1 → store 0
            } else {
                word | (1 << c.bit) // prefers 0 → store 1
            };
            array.write(c.bank, c.word, armed);
        }
    }

    /// Polls the canaries at the current operating point: reads each cell
    /// and reports `true` if **any** canary has flipped to its preferred
    /// state (Algorithm 1's `CheckStates`).
    pub fn any_failed(&self, array: &mut SramArray) -> bool {
        let mut failed = false;
        for c in &self.cells {
            let word = array.read(c.bank, c.word);
            let bit = (word >> c.bit) & 1 == 1;
            if bit == c.preferred {
                failed = true;
            }
        }
        failed
    }

    /// Restores flipped canaries to their armed states (Algorithm 1's
    /// `RestoreStates`); the caller must have raised the voltage first.
    pub fn restore(&self, array: &mut SramArray) {
        self.arm(array);
    }
}

/// The voltage [`CanarySet::select`] profiles first: one step below the
/// target, but never above the distribution's safe voltage (shifted for
/// temperature). No cell's Vmin exceeds that, so sweeping from above it
/// would only run destructive profiles that are guaranteed to find
/// nothing — and every target above it starts the same walk.
pub(crate) fn walk_start(array: &SramArray, at_target: &FaultMap, step_v: f64) -> f64 {
    let dist = &array.bank(0).config().dist;
    let safe = dist.safe_voltage() + dist.temp_coeff() * (at_target.temp_c - dist.ref_temp_c());
    (at_target.voltage - step_v).min(safe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sram::{ArrayConfig, SramConfig, VminDistribution};

    fn small_array(seed: u64) -> SramArray {
        SramArray::synthesize(
            &ArrayConfig {
                banks: 4,
                bank: SramConfig {
                    words: 256,
                    word_bits: 16,
                    dist: VminDistribution::date2018(),
                },
            },
            seed,
        )
    }

    /// Profiles `array` at `target` (25 °C) and selects against that map.
    fn select(array: &mut SramArray, target: f64, per_bank: usize, step_v: f64) -> CanarySet {
        let (at_target, _) = profile_array(array.banks_mut(), target, 25.0);
        CanarySet::select(array, &at_target, per_bank, step_v)
    }

    #[test]
    fn selects_requested_count_per_bank() {
        let mut array = small_array(1);
        let set = select(&mut array, 0.50, 8, 0.005);
        assert_eq!(set.cells().len(), 4 * 8);
        for bank in 0..4 {
            assert_eq!(set.cells().iter().filter(|c| c.bank == bank).count(), 8);
        }
    }

    #[test]
    fn canaries_are_not_faulty_at_target() {
        let mut array = small_array(2);
        let target = 0.50;
        let set = select(&mut array, target, 8, 0.005);
        for c in set.cells() {
            let vmin = array.bank(c.bank).cell_vmin(c.word, c.bit);
            assert!(
                vmin <= target,
                "canary ({},{},{}) fails at target: vmin {vmin}",
                c.bank,
                c.word,
                c.bit
            );
        }
    }

    #[test]
    fn canaries_are_the_most_marginal_protected_cells() {
        let mut array = small_array(3);
        let target = 0.50;
        let step = 0.005;
        let set = select(&mut array, target, 4, step);
        // Oracle check: within each bank, every non-canary cell that is
        // correct at target must fail no sooner than `step` above the
        // least marginal canary (profiling quantizes Vmin to the sweep).
        for bank in 0..4 {
            let canaries: Vec<_> = set.cells().iter().filter(|c| c.bank == bank).collect();
            let min_canary_vmin = canaries
                .iter()
                .map(|c| array.bank(bank).cell_vmin(c.word, c.bit))
                .fold(f64::INFINITY, f64::min);
            let mut better = 0;
            for word in 0..256 {
                for bit in 0..16u8 {
                    let vmin = array.bank(bank).cell_vmin(word, bit);
                    if vmin <= target
                        && vmin > min_canary_vmin + step
                        && !canaries.iter().any(|c| c.word == word && c.bit == bit)
                    {
                        better += 1;
                    }
                }
            }
            assert_eq!(
                better, 0,
                "bank {bank}: {better} protected cells are more marginal than a canary"
            );
        }
    }

    #[test]
    fn armed_canaries_fail_below_their_voltage_and_restore() {
        let mut array = small_array(4);
        let set = select(&mut array, 0.50, 8, 0.005);
        array.set_operating_point(0.9, 25.0);
        set.arm(&mut array);
        assert!(!set.any_failed(&mut array), "no failure at safe voltage");
        // Drop well below target: canaries must trip.
        array.set_operating_point(0.46, 25.0);
        assert!(set.any_failed(&mut array), "canaries must trip at 0.46 V");
        // Raise and restore: clean again.
        array.set_operating_point(0.9, 25.0);
        set.restore(&mut array);
        assert!(!set.any_failed(&mut array));
    }

    #[test]
    fn selection_is_deterministic() {
        let mut a = small_array(5);
        let mut b = small_array(5);
        let sa = select(&mut a, 0.50, 4, 0.005);
        let sb = select(&mut b, 0.50, 4, 0.005);
        assert_eq!(sa, sb);
    }

    #[test]
    #[should_panic(expected = "at least one canary")]
    fn zero_per_bank_rejected() {
        let mut array = small_array(6);
        let _ = select(&mut array, 0.50, 0, 0.005);
    }
}
