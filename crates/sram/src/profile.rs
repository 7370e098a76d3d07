//! The compile-time SRAM profiling procedure (paper §III-A).
//!
//! "The SRAM profiling procedure takes place once at compile time, and
//! consists of a read-after-write and read-after-read operation on each
//! SRAM address, at the target DNN accuracy level (bit-error proportion)."
//!
//! The implementation works only through the bank's functional port (write
//! at safe voltage, read at target voltage) — no oracle access — exactly
//! like the host-PC + debug-software flow on the test chip.

use crate::bank::SramBank;
use crate::fault_map::{BankFaultMap, FaultMap};
use serde::{Deserialize, Serialize};

/// Outcome of profiling one bank or array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Profiled operating point.
    pub voltage: f64,
    /// Profiled die temperature, °C.
    pub temp_c: f64,
    /// Bits that flipped on read-after-write.
    pub raw_failures: usize,
    /// Bits whose second read disagreed with the first
    /// (zero under the stable flip-to-preferred model; kept as a
    /// consistency check because real silicon can show metastable cells).
    pub unstable_bits: usize,
}

/// Profiles a single bank at `(voltage, temp_c)` and returns the fault map
/// plus a report.
///
/// The procedure, per address and test pattern (all-zeros then all-ones):
///
/// 1. raise the supply to a safe level and write the pattern;
/// 2. drop to the target voltage and read (**read-after-write**) — any flip
///    is a read-stability failure, its polarity the value read back;
/// 3. read again (**read-after-read**) to confirm the upset is stable.
///
/// Contents are test patterns, so profiling is destructive; the deployment
/// flow profiles before weights are loaded. The bank is left at the safe
/// voltage with zeroed contents.
pub fn profile_bank(
    bank: &mut SramBank,
    voltage: f64,
    temp_c: f64,
) -> (BankFaultMap, ProfileReport) {
    let cfg = bank.config().clone();
    let safe_v = cfg.dist.safe_voltage().max(0.9);
    let mut map = BankFaultMap::clean(cfg.words, cfg.word_bits);
    let mut raw_failures = 0usize;
    let mut unstable = 0usize;

    for pattern in [0u32, cfg.word_mask()] {
        // Write the pattern everywhere at a safe voltage.
        bank.set_operating_point(safe_v, temp_c);
        for addr in 0..cfg.words {
            bank.write(addr, pattern);
        }
        // Read back at the target voltage.
        bank.set_operating_point(voltage, temp_c);
        for addr in 0..cfg.words {
            let first = bank.read(addr); // read-after-write
            let second = bank.read(addr); // read-after-read
            unstable += (first ^ second).count_ones() as usize;
            let errors = (first ^ pattern) & cfg.word_mask();
            raw_failures += errors.count_ones() as usize;
            for bit in 0..cfg.word_bits {
                if (errors >> bit) & 1 == 1 {
                    // Polarity = the (stable) value the cell read back.
                    let stuck_at_one = (first >> bit) & 1 == 1;
                    map.set_fault(addr, bit, stuck_at_one);
                }
            }
        }
    }

    park_bank(bank, temp_c);
    let report = ProfileReport {
        voltage,
        temp_c,
        raw_failures,
        unstable_bits: unstable,
    };
    (map, report)
}

/// Leaves `bank` in the safe, known state every profile ends in: at its
/// safe voltage (never below 0.9 V) and `temp_c`, with every word zero.
/// A caller that skips a destructive profile whose outcome it already
/// knows parks the bank instead, so the array ends up as the profile
/// would have left it.
pub fn park_bank(bank: &mut SramBank, temp_c: f64) {
    let safe_v = bank.config().dist.safe_voltage().max(0.9);
    bank.set_operating_point(safe_v, temp_c);
    for addr in 0..bank.words() {
        bank.write(addr, 0);
    }
}

/// Profiles every bank of an array (see [`profile_bank`]) and assembles the
/// array-wide [`FaultMap`].
pub fn profile_array(
    banks: &mut [SramBank],
    voltage: f64,
    temp_c: f64,
) -> (FaultMap, ProfileReport) {
    let mut maps = Vec::with_capacity(banks.len());
    let mut total = ProfileReport {
        voltage,
        temp_c,
        raw_failures: 0,
        unstable_bits: 0,
    };
    for bank in banks.iter_mut() {
        let (map, report) = profile_bank(bank, voltage, temp_c);
        total.raw_failures += report.raw_failures;
        total.unstable_bits += report.unstable_bits;
        maps.push(map);
    }
    (FaultMap::new(voltage, temp_c, maps), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SramConfig;
    use crate::dist::VminDistribution;

    fn cfg(words: usize) -> SramConfig {
        SramConfig {
            words,
            word_bits: 16,
            dist: VminDistribution::date2018(),
        }
    }

    #[test]
    fn profiling_at_safe_voltage_finds_nothing() {
        let mut bank = SramBank::synthesize(&cfg(128), 4);
        let (map, report) = profile_bank(&mut bank, 0.9, 25.0);
        assert_eq!(map.fault_count(), 0);
        assert_eq!(report.raw_failures, 0);
        assert_eq!(report.unstable_bits, 0);
    }

    #[test]
    fn profile_matches_oracle_exactly() {
        let mut bank = SramBank::synthesize(&cfg(256), 17);
        let v = 0.48;
        let (map, report) = profile_bank(&mut bank, v, 25.0);
        // Ground truth from the oracle: every cell with Vmin > v fails,
        // with polarity = preferred state.
        let mut oracle_count = 0;
        for addr in 0..bank.words() {
            for bit in 0..16u8 {
                let fails = bank.cell_vmin(addr, bit) > v;
                if fails {
                    oracle_count += 1;
                    assert!(map.is_faulty(addr, bit), "missed fault @({addr},{bit})");
                    let (_, _, polarity) =
                        map.iter().find(|&(w, b, _)| w == addr && b == bit).unwrap();
                    assert_eq!(polarity, bank.cell_preferred(addr, bit));
                } else {
                    assert!(!map.is_faulty(addr, bit), "phantom fault @({addr},{bit})");
                }
            }
        }
        assert_eq!(map.fault_count(), oracle_count);
        assert_eq!(report.unstable_bits, 0);
        // Each faulty cell flips under exactly one of the two patterns.
        assert_eq!(report.raw_failures, oracle_count);
    }

    #[test]
    fn profiled_ber_tracks_distribution() {
        let mut bank = SramBank::synthesize(&cfg(4096), 8);
        let (map, _) = profile_bank(&mut bank, 0.50, 25.0);
        assert!((map.ber() - 0.28).abs() < 0.02, "ber = {}", map.ber());
    }

    #[test]
    fn lower_voltage_profiles_are_supersets() {
        let mut bank = SramBank::synthesize(&cfg(512), 13);
        let (hi, _) = profile_bank(&mut bank, 0.50, 25.0);
        let (lo, _) = profile_bank(&mut bank, 0.46, 25.0);
        assert!(hi.is_subset_of(&lo));
        assert!(lo.fault_count() > hi.fault_count());
    }

    #[test]
    fn temperature_shifts_profile() {
        let mut bank = SramBank::synthesize(&cfg(2048), 99);
        let (cold, _) = profile_bank(&mut bank, 0.49, -15.0);
        let (hot, _) = profile_bank(&mut bank, 0.49, 90.0);
        assert!(
            cold.fault_count() > hot.fault_count(),
            "cold {} vs hot {}",
            cold.fault_count(),
            hot.fault_count()
        );
        // Same voltage, hotter die ⇒ failures are a subset of the cold ones.
        assert!(hot.is_subset_of(&cold));
    }

    #[test]
    fn profile_array_aggregates_banks() {
        let mut banks: Vec<SramBank> = (0..4)
            .map(|i| SramBank::synthesize(&cfg(128), 100 + i))
            .collect();
        let (map, report) = profile_array(&mut banks, 0.47, 25.0);
        assert_eq!(map.banks().len(), 4);
        assert_eq!(map.fault_count(), report.raw_failures);
        assert!(map.fault_count() > 0);
    }
}
