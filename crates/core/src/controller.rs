//! The runtime canary-polling voltage controller (paper Algorithm 1).

use crate::canary::CanarySet;
use matic_sram::SramArray;
use serde::{Deserialize, Serialize};

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Regulator step Δv, volts (the test chip's digitally-programmable
    /// regulators; 5 mV steps reproduce Fig. 12's staircase).
    pub step_v: f64,
    /// Safe upper rail, volts (never exceeded).
    pub v_safe: f64,
    /// Hard lower bound, volts (sanity stop; Algorithm 1 terminates on
    /// canary failure well above this).
    pub v_floor: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            step_v: 0.005,
            v_safe: 0.9,
            v_floor: 0.40,
        }
    }
}

/// What a poll did (for logging and the Fig. 12 trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PollOutcome {
    /// Voltage unchanged: canaries held at the boundary probe and failed
    /// one step below.
    Held,
    /// Voltage lowered (canaries had slack, e.g. the die warmed up).
    Lowered,
    /// Voltage raised (canaries failed at the operating point, e.g. the
    /// die cooled).
    Raised,
}

/// The in-situ canary voltage controller.
///
/// Implements Algorithm 1 — descend in Δv steps until a canary fails, then
/// step back and restore — extended with the upward-recovery phase the
/// temperature experiment implies (Fig. 12 shows the controller *raising*
/// the rail when the chamber cools): if canaries fail at the current
/// setting, the rail walks up until they hold again.
///
/// On the test chip this loop runs on the integrated runtime
/// microcontroller between inferences. This is the reproduction's only
/// implementation of it: `matic-snnac`'s `Chip::poll_canaries` and the
/// sweep harness both call [`CanaryController::poll`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanaryController {
    canaries: CanarySet,
    cfg: ControllerConfig,
    voltage: f64,
}

impl CanaryController {
    /// Creates a controller starting from a safe initial voltage
    /// (Algorithm 1's `v0`).
    pub fn new(canaries: CanarySet, cfg: ControllerConfig) -> Self {
        CanaryController {
            voltage: cfg.v_safe,
            canaries,
            cfg,
        }
    }

    /// Current SRAM voltage setting.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// The canary set in use.
    pub fn canaries(&self) -> &CanarySet {
        &self.canaries
    }

    /// One wake-up of the runtime controller: polls canaries and adjusts
    /// the SRAM rail to sit just above the canaries' failure boundary.
    /// Returns the outcome and leaves the array at the settled voltage.
    pub fn poll(&mut self, array: &mut SramArray) -> PollOutcome {
        let temp = array.temperature();
        let mut outcome = PollOutcome::Held;

        // Upward recovery: if the environment drifted and canaries fail at
        // the present setting, climb until they hold.
        array.set_operating_point(self.voltage, temp);
        while self.canaries.any_failed(array) && self.voltage < self.cfg.v_safe {
            self.voltage = (self.voltage + self.cfg.step_v).min(self.cfg.v_safe);
            array.set_operating_point(self.voltage, temp);
            // Restore must happen at the raised voltage to stick.
            self.canaries.restore(array);
            outcome = PollOutcome::Raised;
        }

        // Algorithm 1 descent: probe one step down until a canary trips.
        loop {
            let probe = self.voltage - self.cfg.step_v;
            if probe < self.cfg.v_floor {
                break;
            }
            array.set_operating_point(probe, temp);
            if self.canaries.any_failed(array) {
                // Step back up and restore the flipped canaries.
                array.set_operating_point(self.voltage, temp);
                self.canaries.restore(array);
                break;
            }
            self.voltage = probe;
            if outcome == PollOutcome::Held {
                outcome = PollOutcome::Lowered;
            }
        }
        array.set_operating_point(self.voltage, temp);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_sram::{profile_array, ArrayConfig, SramArray, SramConfig, VminDistribution};

    fn array(seed: u64) -> SramArray {
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

    fn controller(array: &mut SramArray, target: f64) -> CanaryController {
        let (at_target, _) = profile_array(array.banks_mut(), target, 25.0);
        let set = CanarySet::select(array, &at_target, 8, 0.005);
        array.set_operating_point(0.9, 25.0);
        set.arm(array);
        CanaryController::new(set, ControllerConfig::default())
    }

    #[test]
    fn first_poll_descends_to_canary_boundary() {
        let mut arr = array(1);
        let target = 0.50;
        let mut ctl = controller(&mut arr, target);
        let outcome = ctl.poll(&mut arr);
        assert_eq!(outcome, PollOutcome::Lowered);
        // The settled voltage is just above the most marginal canary.
        let max_canary_vmin = ctl
            .canaries()
            .cells()
            .iter()
            .map(|c| arr.bank(c.bank).cell_vmin(c.word, c.bit))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            ctl.voltage() >= max_canary_vmin,
            "settled {} below canary boundary {max_canary_vmin}",
            ctl.voltage()
        );
        assert!(
            ctl.voltage() <= max_canary_vmin + 2.0 * 0.005 + 1e-9,
            "margin too large: {} vs {max_canary_vmin}",
            ctl.voltage()
        );
    }

    #[test]
    fn settled_voltage_is_stable_across_polls() {
        let mut arr = array(2);
        let mut ctl = controller(&mut arr, 0.50);
        ctl.poll(&mut arr);
        let v1 = ctl.voltage();
        for _ in 0..5 {
            let outcome = ctl.poll(&mut arr);
            assert_eq!(outcome, PollOutcome::Held);
            assert_eq!(ctl.voltage(), v1);
        }
    }

    #[test]
    fn cooling_raises_voltage_and_warming_lowers_it() {
        let mut arr = array(3);
        let mut ctl = controller(&mut arr, 0.50);
        ctl.poll(&mut arr);
        let v_25 = ctl.voltage();

        // Cool the die: Vmin rises, canaries trip, controller climbs.
        arr.set_operating_point(ctl.voltage(), -15.0);
        let outcome = ctl.poll(&mut arr);
        assert_eq!(outcome, PollOutcome::Raised);
        let v_cold = ctl.voltage();
        assert!(v_cold > v_25, "cold {v_cold} vs 25C {v_25}");

        // Heat the die: slack appears, controller descends below v_25.
        arr.set_operating_point(ctl.voltage(), 90.0);
        let outcome = ctl.poll(&mut arr);
        assert_eq!(outcome, PollOutcome::Lowered);
        let v_hot = ctl.voltage();
        assert!(v_hot < v_25, "hot {v_hot} vs 25C {v_25}");

        // The shift should be roughly temp_coeff * ΔT (±2 steps of slack).
        let coeff = VminDistribution::date2018().temp_coeff().abs();
        let expect = coeff * 105.0;
        assert!(
            ((v_cold - v_hot) - expect).abs() < 0.015,
            "tracking {} vs expected {expect}",
            v_cold - v_hot
        );
    }

    #[test]
    fn never_exceeds_safe_rail_or_floor() {
        let mut arr = array(4);
        let mut ctl = controller(&mut arr, 0.50);
        for temp in [-40.0, 120.0, -40.0] {
            arr.set_operating_point(ctl.voltage(), temp);
            ctl.poll(&mut arr);
            assert!(ctl.voltage() <= ControllerConfig::default().v_safe + 1e-12);
            assert!(ctl.voltage() >= ControllerConfig::default().v_floor - 1e-12);
        }
    }

    #[test]
    fn weight_words_holding_trained_values_survive_polling() {
        // Data cells that are clean at the settled voltage must not be
        // corrupted by the controller's descent probes: canaries fail
        // first by construction.
        let mut arr = array(5);
        let target = 0.50;
        let (at_target, _) = profile_array(arr.banks_mut(), target, 25.0);
        let set = CanarySet::select(&mut arr, &at_target, 8, 0.005);
        arr.set_operating_point(0.9, 25.0);
        // Fill all words with a known pattern (stand-in for weights).
        for bank in 0..arr.bank_count() {
            for word in 0..256 {
                arr.write(bank, word, 0x5A5A);
            }
        }
        set.arm(&mut arr);
        let cfg = ControllerConfig::default();
        let mut ctl = CanaryController::new(set, cfg);
        ctl.poll(&mut arr);
        // The descent's deepest probe sits one regulator step below the
        // settled voltage; only cells whose Vmin is at or below that probe
        // are guaranteed to never have seen an undervoltage read.
        let v = ctl.voltage() - cfg.step_v - 1e-12;
        // Every such cell must still hold its written value (excluding
        // canary bits themselves).
        for bank in 0..arr.bank_count() {
            for word in 0..256 {
                let stored = arr.bank(bank).peek(word);
                for bit in 0..16u8 {
                    if ctl
                        .canaries()
                        .cells()
                        .iter()
                        .any(|c| c.bank == bank && c.word == word && c.bit == bit)
                    {
                        continue;
                    }
                    if arr.bank(bank).cell_vmin(word, bit) < v {
                        let expect = (0x5A5Au32 >> bit) & 1;
                        assert_eq!(
                            (stored >> bit) & 1,
                            expect,
                            "protected cell ({bank},{word},{bit}) corrupted"
                        );
                    }
                }
            }
        }
    }
}
