//! A single voltage-scalable SRAM bank with read-disturb mechanics.

use crate::config::SramConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthesized SRAM bank: every bit-cell carries a preferred state and a
/// critical read voltage drawn from the configured [`VminDistribution`]
/// (process variation is frozen at synthesis, like silicon at tape-out).
///
/// Reads below a cell's `Vmin,read` flip the cell to its preferred state
/// *persistently* (paper §II-B): the flipped value remains on subsequent
/// reads until the word is rewritten. Writes always succeed — in the MATIC
/// deployment flow, weights are uploaded at a safe voltage before the
/// supply is overscaled, and write drivers overpower the cell regardless.
///
/// [`VminDistribution`]: crate::VminDistribution
///
/// # Example
///
/// ```
/// use matic_sram::{SramBank, SramConfig};
/// let mut bank = SramBank::synthesize(&SramConfig::snnac_bank(), 1);
/// bank.write(0, 0xBEEF);
/// assert_eq!(bank.read(0), 0xBEEF); // nominal voltage: no failures
/// bank.set_operating_point(0.45, 25.0);
/// let noisy = bank.read(0); // many marginal cells flip at 0.45 V
/// assert_eq!(bank.read(0), noisy); // ... but stay stable afterwards
/// ```
#[derive(Debug, Clone)]
pub struct SramBank {
    cfg: SramConfig,
    /// Current stored bit per cell, packed per word.
    stored: Vec<u32>,
    /// Preferred state per cell, packed per word.
    preferred: Vec<u32>,
    /// `Vmin,read` per cell at the reference temperature, row-major
    /// `word * word_bits + bit`.
    vmin: Vec<f32>,
    /// Per word, the cells that fail at the operating point of epoch
    /// `mask_epoch[word]` (supply below the cell's effective Vmin).
    /// Derived on the word's first read at each operating point.
    fail_mask: Vec<u32>,
    /// The `epoch` at which each word's `fail_mask` was derived; a word
    /// whose stamp differs from `epoch` has a stale mask.
    mask_epoch: Vec<u64>,
    /// Bumped by every operating-point change. A `u64` never wraps in
    /// practice, so a stale stamp can never alias the current epoch.
    epoch: u64,
    /// The temperature-adjusted query voltage: a cell fails when this is
    /// below its reference-temperature Vmin.
    v_query: f32,
    voltage: f64,
    temp_c: f64,
}

impl SramBank {
    /// Synthesizes a bank: draws every cell's preferred state (fair coin)
    /// and `Vmin,read` (inverse-CDF of the configured distribution).
    /// Deterministic in `seed`. Initial operating point is the nominal
    /// 0.9 V / 25 °C, where no cell fails.
    pub fn synthesize(cfg: &SramConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let words = cfg.words;
        let bits = cfg.word_bits as usize;
        let mut preferred = vec![0u32; words];
        let mut vmin = vec![0f32; words * bits];
        for w in 0..words {
            let mut pref_word = 0u32;
            for b in 0..bits {
                if rng.gen::<bool>() {
                    pref_word |= 1 << b;
                }
                vmin[w * bits + b] = cfg.dist.sample(&mut rng) as f32;
            }
            preferred[w] = pref_word;
        }
        let mut bank = SramBank {
            cfg: cfg.clone(),
            stored: vec![0u32; words],
            preferred,
            vmin,
            fail_mask: vec![0u32; words],
            mask_epoch: vec![0u64; words],
            epoch: 0,
            v_query: 0.0,
            voltage: 0.0,
            temp_c: 0.0,
        };
        bank.set_operating_point(0.9, 25.0);
        bank
    }

    /// The bank's configuration.
    pub fn config(&self) -> &SramConfig {
        &self.cfg
    }

    /// Current supply voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Current die temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Changes the supply voltage and temperature in O(1). Stored values
    /// are untouched — state only changes when a *read* disturbs a
    /// marginal cell — and each word's set of failing cells is derived
    /// lazily, on its first read at the new operating point.
    pub fn set_operating_point(&mut self, voltage: f64, temp_c: f64) {
        self.voltage = voltage;
        self.temp_c = temp_c;
        self.v_query = self.query_voltage(voltage, temp_c);
        self.epoch += 1;
    }

    /// A cell fails when supply < effective Vmin(T); equivalently when the
    /// temperature-adjusted query voltage is below the reference Vmin
    /// stored per cell.
    fn query_voltage(&self, voltage: f64, temp_c: f64) -> f32 {
        let dt = temp_c - self.cfg.dist.ref_temp_c();
        (voltage - self.cfg.dist.temp_coeff() * dt) as f32
    }

    /// Writes a word (always succeeds; see type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `word` has bits above the
    /// configured word width.
    pub fn write(&mut self, addr: usize, word: u32) {
        assert!(addr < self.cfg.words, "address {addr} out of range");
        assert_eq!(
            word & !self.cfg.word_mask(),
            0,
            "word 0x{word:X} wider than {} bits",
            self.cfg.word_bits
        );
        self.stored[addr] = word;
    }

    /// Reads a word at the current operating point. Marginal cells holding
    /// the complement of their preferred state flip **persistently**; the
    /// returned value reflects the post-disturb contents.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: usize) -> u32 {
        assert!(addr < self.cfg.words, "address {addr} out of range");
        if self.mask_epoch[addr] != self.epoch {
            let bits = self.cfg.word_bits as usize;
            let vmin = &self.vmin[addr * bits..(addr + 1) * bits];
            self.fail_mask[addr] = vmin
                .iter()
                .enumerate()
                .fold(0, |mask, (b, &vm)| mask | ((self.v_query < vm) as u32) << b);
            self.mask_epoch[addr] = self.epoch;
        }
        let flips = (self.stored[addr] ^ self.preferred[addr]) & self.fail_mask[addr];
        self.stored[addr] ^= flips;
        self.stored[addr]
    }

    /// Non-destructive oracle peek at the stored bits (no read-disturb).
    /// Debug/test instrumentation only — silicon offers no such port.
    pub fn peek(&self, addr: usize) -> u32 {
        self.stored[addr]
    }

    /// Oracle: the fraction of cells that would fail at `(voltage, temp_c)`.
    /// Used to validate profiling against ground truth.
    pub fn fail_fraction_at(&self, voltage: f64, temp_c: f64) -> f64 {
        let v_query = self.query_voltage(voltage, temp_c);
        let bits = self.cfg.word_bits as usize;
        let failing = self.vmin.iter().filter(|&&vm| v_query < vm).count();
        failing as f64 / (self.cfg.words * bits) as f64
    }

    /// Oracle: a cell's reference-temperature `Vmin,read`.
    /// Exposed for model validation; the deployment flow never uses it
    /// (canary selection works from profiling data alone).
    pub fn cell_vmin(&self, addr: usize, bit: u8) -> f64 {
        self.vmin[addr * self.cfg.word_bits as usize + bit as usize] as f64
    }

    /// Oracle: a cell's preferred state.
    pub fn cell_preferred(&self, addr: usize, bit: u8) -> bool {
        (self.preferred[addr] >> bit) & 1 == 1
    }

    /// Number of addressable words.
    pub fn words(&self) -> usize {
        self.cfg.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::VminDistribution;

    fn small_cfg() -> SramConfig {
        SramConfig {
            words: 64,
            word_bits: 16,
            dist: VminDistribution::date2018(),
        }
    }

    #[test]
    fn nominal_voltage_reads_are_clean() {
        let mut bank = SramBank::synthesize(&small_cfg(), 3);
        for addr in 0..bank.words() {
            let w = (addr as u32).wrapping_mul(2654435761) & 0xFFFF;
            bank.write(addr, w);
        }
        for addr in 0..bank.words() {
            let w = (addr as u32).wrapping_mul(2654435761) & 0xFFFF;
            assert_eq!(bank.read(addr), w);
        }
    }

    #[test]
    fn synthesis_is_deterministic_in_seed() {
        let a = SramBank::synthesize(&small_cfg(), 11);
        let b = SramBank::synthesize(&small_cfg(), 11);
        let c = SramBank::synthesize(&small_cfg(), 12);
        assert_eq!(a.preferred, b.preferred);
        assert_eq!(a.vmin, b.vmin);
        assert_ne!(a.vmin, c.vmin);
    }

    #[test]
    fn low_voltage_reads_flip_to_preferred_and_stay() {
        let mut bank = SramBank::synthesize(&small_cfg(), 5);
        bank.set_operating_point(0.42, 25.0); // ~93 % fail rate
        for addr in 0..bank.words() {
            bank.write(addr, 0x0000);
        }
        for addr in 0..bank.words() {
            let first = bank.read(addr);
            // Every flipped bit must equal the preferred state.
            let flipped = first; // wrote zeros, so any 1 is a flip
            assert_eq!(flipped & !bank.preferred[addr], 0);
            // Stability: subsequent reads identical.
            assert_eq!(bank.read(addr), first);
            assert_eq!(bank.read(addr), first);
        }
    }

    #[test]
    fn cells_storing_preferred_state_never_flip() {
        let mut bank = SramBank::synthesize(&small_cfg(), 5);
        bank.set_operating_point(0.40, 25.0); // everything past Vmin
        for addr in 0..bank.words() {
            let pref = bank.preferred[addr];
            bank.write(addr, pref);
            assert_eq!(bank.read(addr), pref);
        }
    }

    #[test]
    fn rewrite_restores_correctness_at_safe_voltage() {
        let mut bank = SramBank::synthesize(&small_cfg(), 9);
        bank.set_operating_point(0.44, 25.0);
        bank.write(7, 0x1234);
        let _ = bank.read(7); // disturb
        bank.set_operating_point(0.9, 25.0);
        bank.write(7, 0x1234);
        assert_eq!(bank.read(7), 0x1234);
    }

    #[test]
    fn fail_fraction_tracks_distribution() {
        let cfg = SramConfig {
            words: 4096,
            word_bits: 16,
            dist: VminDistribution::date2018(),
        };
        let bank = SramBank::synthesize(&cfg, 21);
        for v in [0.50, 0.46] {
            let measured = bank.fail_fraction_at(v, 25.0);
            let expected = cfg.dist.fail_rate(v);
            assert!(
                (measured - expected).abs() < 0.01,
                "at {v}: {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn colder_die_fails_more() {
        let bank = SramBank::synthesize(&small_cfg(), 2);
        let cold = bank.fail_fraction_at(0.48, -15.0);
        let hot = bank.fail_fraction_at(0.48, 90.0);
        assert!(cold >= hot);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let mut bank = SramBank::synthesize(&small_cfg(), 0);
        let _ = bank.read(64);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn write_oversized_word_panics() {
        let mut bank = SramBank::synthesize(&small_cfg(), 0);
        bank.write(0, 0x1_0000);
    }
}
