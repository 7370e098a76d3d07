//! A multi-bank weight-memory array (one bank per PE).

use crate::bank::SramBank;
use crate::config::ArrayConfig;
use crate::fingerprint::{fingerprint_of, Fingerprint};

/// The voltage-scalable weight-memory complex of an accelerator: several
/// independently addressable banks sharing one supply rail (SNNAC places
/// all weight SRAMs on a common scalable rail, §IV).
///
/// # Example
///
/// ```
/// use matic_sram::{ArrayConfig, SramArray};
/// let mut array = SramArray::synthesize(&ArrayConfig::snnac(), 7);
/// array.write(3, 0, 0x00FF);
/// assert_eq!(array.read(3, 0), 0x00FF);
/// array.set_operating_point(0.46, 25.0); // overscale: reads may now flip
/// ```
#[derive(Debug, Clone)]
pub struct SramArray {
    banks: Vec<SramBank>,
    die: u128,
    voltage: f64,
    temp_c: f64,
}

impl SramArray {
    /// Synthesizes `cfg.banks` banks with per-bank derived seeds and
    /// records the die's identity (see [`die`](Self::die)).
    pub fn synthesize(cfg: &ArrayConfig, seed: u64) -> Self {
        let banks = (0..cfg.banks)
            .map(|i| {
                SramBank::synthesize(
                    &cfg.bank,
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect();
        SramArray {
            banks,
            die: die_of(cfg, seed),
            voltage: 0.9,
            temp_c: 25.0,
        }
    }

    /// The die's identity, [`die_of`] its synthesis configuration and
    /// seed.
    pub fn die(&self) -> u128 {
        self.die
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Immutable bank access.
    pub fn bank(&self, i: usize) -> &SramBank {
        &self.banks[i]
    }

    /// Mutable bank access (profiling needs write/read control).
    pub fn bank_mut(&mut self, i: usize) -> &mut SramBank {
        &mut self.banks[i]
    }

    /// Mutable access to all banks (array-wide profiling).
    pub fn banks_mut(&mut self) -> &mut [SramBank] {
        &mut self.banks
    }

    /// Sets the shared supply rail and die temperature for every bank.
    pub fn set_operating_point(&mut self, voltage: f64, temp_c: f64) {
        self.voltage = voltage;
        self.temp_c = temp_c;
        for bank in &mut self.banks {
            bank.set_operating_point(voltage, temp_c);
        }
    }

    /// Current shared supply voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Current die temperature, °C.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Writes a word into a bank.
    pub fn write(&mut self, bank: usize, addr: usize, word: u32) {
        self.banks[bank].write(addr, word);
    }

    /// Reads a word from a bank at the current operating point (may
    /// persistently disturb marginal cells; see [`SramBank::read`]).
    pub fn read(&mut self, bank: usize, addr: usize) -> u32 {
        self.banks[bank].read(addr)
    }

    /// Oracle: array-wide fail fraction at an operating point.
    pub fn fail_fraction_at(&self, voltage: f64, temp_c: f64) -> f64 {
        let sum: f64 = self
            .banks
            .iter()
            .map(|b| b.fail_fraction_at(voltage, temp_c))
            .sum();
        sum / self.banks.len() as f64
    }
}

/// The identity of the die [`SramArray::synthesize`] draws from `cfg`
/// and `seed`: a fingerprint of both, computed without synthesizing.
/// Two arrays share it exactly when every bit-cell's preferred state and
/// `Vmin,read` are the same, so anything computed from profiling one
/// applies to the other.
pub fn die_of(cfg: &ArrayConfig, seed: u64) -> u128 {
    Fingerprint::new()
        .write_str("matic.sram-die/v1")
        .write_u128(fingerprint_of(cfg))
        .write_u64(seed)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_differ_but_are_reproducible() {
        let cfg = ArrayConfig {
            banks: 3,
            ..ArrayConfig::snnac()
        };
        let a = SramArray::synthesize(&cfg, 5);
        let b = SramArray::synthesize(&cfg, 5);
        // Same seed: identical silicon.
        for i in 0..3 {
            assert_eq!(
                a.bank(i).fail_fraction_at(0.47, 25.0),
                b.bank(i).fail_fraction_at(0.47, 25.0)
            );
        }
        // Distinct banks: different fault lotteries (overwhelmingly likely).
        assert_ne!(
            a.bank(0).fail_fraction_at(0.50, 25.0),
            a.bank(1).fail_fraction_at(0.50, 25.0)
        );
    }

    #[test]
    fn die_identity_is_the_config_and_seed() {
        let cfg = ArrayConfig::snnac();
        let die = SramArray::synthesize(&cfg, 5).die();
        assert_eq!(die_of(&cfg, 5), die);
        assert_eq!(SramArray::synthesize(&cfg, 5).die(), die);
        assert_ne!(SramArray::synthesize(&cfg, 6).die(), die);
        let fewer = ArrayConfig {
            banks: 3,
            ..ArrayConfig::snnac()
        };
        assert_ne!(SramArray::synthesize(&fewer, 5).die(), die);
    }

    #[test]
    fn operating_point_propagates() {
        let mut array = SramArray::synthesize(&ArrayConfig::snnac(), 1);
        array.set_operating_point(0.5, 60.0);
        for i in 0..array.bank_count() {
            assert_eq!(array.bank(i).voltage(), 0.5);
            assert_eq!(array.bank(i).temperature(), 60.0);
        }
    }

    #[test]
    fn read_write_roundtrip_nominal() {
        let mut array = SramArray::synthesize(&ArrayConfig::snnac(), 2);
        for bank in 0..array.bank_count() {
            array.write(bank, 17, (bank as u32 * 37) & 0xFFFF);
        }
        for bank in 0..array.bank_count() {
            assert_eq!(array.read(bank, 17), (bank as u32 * 37) & 0xFFFF);
        }
    }
}
