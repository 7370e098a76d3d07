//! Fault maps: the per-word OR/AND injection masks of memory-adaptive
//! training.
//!
//! Profiling (paper §III-A) collects "the word address, bit index, and
//! error polarity of each bit-cell failure". Because read upsets flip a
//! cell *to* its preferred state:
//!
//! * a failing cell that prefers `1` behaves as stuck-at-1 → **OR mask**;
//! * a failing cell that prefers `0` behaves as stuck-at-0 → **AND mask**.
//!
//! Applying a fault map to a stored word is then
//! `(word & and_mask) | or_mask` — precisely the "injection masking" step
//! of Fig. 4.
//!
//! Beyond the paper's stuck-at physics, a map can also carry **XOR
//! masks**: bits that *invert* on every read rather than pinning to a
//! preferred state. These model the i.i.d. random bit flips of
//! bit-error-robustness studies (Stutz et al.) and compose after the
//! stuck-at masks: `((word & and) | or) ^ xor`.

use serde::{Deserialize, Serialize};

/// A single profiled bit-cell failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Bank index within the array.
    pub bank: usize,
    /// Word address within the bank.
    pub word: usize,
    /// Bit index within the word.
    pub bit: u8,
    /// Polarity: `true` = stuck-at-1 (cell prefers 1), `false` = stuck-at-0.
    pub stuck_at_one: bool,
}

/// Injection masks for one SRAM bank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankFaultMap {
    word_bits: u8,
    /// Per-word OR mask (bits stuck at 1).
    or_masks: Vec<u32>,
    /// Per-word AND mask (bit *cleared* where stuck at 0).
    and_masks: Vec<u32>,
    /// Per-word XOR mask (bits inverted on read: random flips).
    xor_masks: Vec<u32>,
}

impl BankFaultMap {
    /// An all-clean map for `words` words of `word_bits` bits.
    pub fn clean(words: usize, word_bits: u8) -> Self {
        let full = word_mask(word_bits);
        BankFaultMap {
            word_bits,
            or_masks: vec![0; words],
            and_masks: vec![full; words],
            xor_masks: vec![0; words],
        }
    }

    /// Marks a bit as faulty with the given polarity.
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn set_fault(&mut self, word: usize, bit: u8, stuck_at_one: bool) {
        assert!(bit < self.word_bits, "bit {bit} out of range");
        let m = 1u32 << bit;
        if stuck_at_one {
            self.or_masks[word] |= m;
            self.and_masks[word] |= m; // stuck-at-1 wins over a stale SA0
        } else {
            self.and_masks[word] &= !m;
            self.or_masks[word] &= !m;
        }
    }

    /// Marks a bit as a random flip: it inverts on every read instead of
    /// pinning to a preferred state. Clears any stuck-at record on the
    /// same bit (a cell is either stuck or flipping, not both).
    ///
    /// # Panics
    ///
    /// Panics if `word` or `bit` is out of range.
    pub fn set_flip(&mut self, word: usize, bit: u8) {
        assert!(bit < self.word_bits, "bit {bit} out of range");
        let m = 1u32 << bit;
        self.or_masks[word] &= !m;
        self.and_masks[word] |= m;
        self.xor_masks[word] |= m;
    }

    /// Applies the injection masks to a stored word:
    /// `((word & and) | or) ^ xor` (Fig. 4, extended with flips).
    pub fn apply(&self, word_addr: usize, word: u32) -> u32 {
        ((word & self.and_masks[word_addr]) | self.or_masks[word_addr]) ^ self.xor_masks[word_addr]
    }

    /// OR mask for a word (bits stuck at 1).
    pub fn or_mask(&self, word_addr: usize) -> u32 {
        self.or_masks[word_addr]
    }

    /// AND mask for a word (zero where stuck at 0).
    pub fn and_mask(&self, word_addr: usize) -> u32 {
        self.and_masks[word_addr]
    }

    /// XOR mask for a word (bits inverted on read).
    pub fn xor_mask(&self, word_addr: usize) -> u32 {
        self.xor_masks[word_addr]
    }

    /// All per-word OR masks, indexed by word address. Together with
    /// [`BankFaultMap::and_masks`] this is the bulk form consumed when the
    /// whole bank's masks are composed into weight storage up front
    /// (`matic-core`'s composed quantizer) instead of being applied
    /// word-by-word inside a training or inference loop.
    pub fn or_masks(&self) -> &[u32] {
        &self.or_masks
    }

    /// All per-word AND masks, indexed by word address; see
    /// [`BankFaultMap::or_masks`].
    pub fn and_masks(&self) -> &[u32] {
        &self.and_masks
    }

    /// All per-word XOR masks, indexed by word address; see
    /// [`BankFaultMap::or_masks`].
    pub fn xor_masks(&self) -> &[u32] {
        &self.xor_masks
    }

    /// Applies the injection masks to a buffer of stored words in place
    /// (`words[i] = ((words[i] & and[i]) | or[i]) ^ xor[i]`): the bulk
    /// counterpart of [`BankFaultMap::apply`] for composing a whole bank
    /// at once.
    ///
    /// # Panics
    ///
    /// Panics if `words` is longer than the bank.
    pub fn apply_slice(&self, words: &mut [u32]) {
        assert!(words.len() <= self.or_masks.len(), "buffer exceeds bank");
        for (((w, &and), &or), &xor) in words
            .iter_mut()
            .zip(&self.and_masks)
            .zip(&self.or_masks)
            .zip(&self.xor_masks)
        {
            *w = ((*w & and) | or) ^ xor;
        }
    }

    /// Mask of faulty bits in a word (stuck either polarity, or flipping).
    pub fn fault_bits(&self, word_addr: usize) -> u32 {
        self.or_masks[word_addr]
            | (!self.and_masks[word_addr] & word_mask(self.word_bits))
            | self.xor_masks[word_addr]
    }

    /// Whether a particular bit is recorded faulty.
    pub fn is_faulty(&self, word_addr: usize, bit: u8) -> bool {
        (self.fault_bits(word_addr) >> bit) & 1 == 1
    }

    /// Number of words covered.
    pub fn words(&self) -> usize {
        self.or_masks.len()
    }

    /// Word width in bits.
    pub fn word_bits(&self) -> u8 {
        self.word_bits
    }

    /// Total faulty bits in the bank.
    pub fn fault_count(&self) -> usize {
        (0..self.words())
            .map(|w| self.fault_bits(w).count_ones() as usize)
            .sum()
    }

    /// Bit-error rate over the bank.
    pub fn ber(&self) -> f64 {
        self.fault_count() as f64 / (self.words() * self.word_bits as usize) as f64
    }

    /// Iterates over the recorded **stuck-at** faults (the profiled
    /// failures the canary machinery consumes). Random-flip bits are not
    /// yielded — they have no preferred state to report; count them via
    /// [`BankFaultMap::fault_bits`] / [`BankFaultMap::fault_count`].
    pub fn iter(&self) -> impl Iterator<Item = (usize, u8, bool)> + '_ {
        (0..self.words()).flat_map(move |w| {
            (0..self.word_bits).filter_map(move |b| {
                let m = 1u32 << b;
                if self.or_masks[w] & m != 0 {
                    Some((w, b, true))
                } else if self.and_masks[w] & m == 0 {
                    Some((w, b, false))
                } else {
                    None
                }
            })
        })
    }

    /// True when `other` contains every fault of `self` with the same
    /// behaviour (the voltage-monotonicity relation: maps profiled at a
    /// higher voltage are subsets of maps profiled lower). Stuck bits
    /// must match polarity; flip bits must flip in `other` too.
    pub fn is_subset_of(&self, other: &BankFaultMap) -> bool {
        if self.words() != other.words() {
            return false;
        }
        (0..self.words()).all(|w| {
            (self.or_masks[w] & !other.or_masks[w]) == 0
                && (!self.and_masks[w] & other.and_masks[w] & word_mask(self.word_bits)) == 0
                && (self.xor_masks[w] & !other.xor_masks[w]) == 0
        })
    }
}

/// Fault maps for a full weight-memory array, plus the operating point the
/// profile was taken at.
///
/// # Examples
///
/// A fault map is the per-word OR/AND injection masking of Fig. 4: a cell
/// stuck at 1 forces its bit high, a cell stuck at 0 forces it low, and
/// clean words pass through untouched.
///
/// ```
/// use matic_sram::FaultMap;
///
/// let mut map = FaultMap::clean(0.50, 2, 64, 16);
/// map.bank_mut(0).set_fault(3, 15, true);  // sign bit stuck at 1
/// map.bank_mut(1).set_fault(9, 0, false);  // LSB stuck at 0
///
/// assert_eq!(map.apply(0, 3, 0x0001), 0x8001);
/// assert_eq!(map.apply(1, 9, 0xFFFF), 0xFFFE);
/// assert_eq!(map.apply(0, 0, 0x1234), 0x1234); // clean word
/// assert_eq!(map.fault_count(), 2);
/// assert!((map.ber() - 2.0 / (2.0 * 64.0 * 16.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMap {
    /// Profiled supply voltage.
    pub voltage: f64,
    /// Profiled die temperature, °C.
    pub temp_c: f64,
    banks: Vec<BankFaultMap>,
}

impl FaultMap {
    /// Builds a map from per-bank maps and the profiled operating point.
    pub fn new(voltage: f64, temp_c: f64, banks: Vec<BankFaultMap>) -> Self {
        FaultMap {
            voltage,
            temp_c,
            banks,
        }
    }

    /// An all-clean map with the given geometry.
    pub fn clean(voltage: f64, banks: usize, words: usize, word_bits: u8) -> Self {
        FaultMap {
            voltage,
            temp_c: 25.0,
            banks: (0..banks)
                .map(|_| BankFaultMap::clean(words, word_bits))
                .collect(),
        }
    }

    /// Per-bank maps.
    pub fn banks(&self) -> &[BankFaultMap] {
        &self.banks
    }

    /// Mutable access to a bank map (used by synthetic injectors).
    pub fn bank_mut(&mut self, bank: usize) -> &mut BankFaultMap {
        &mut self.banks[bank]
    }

    /// Applies the masks of `bank` to a stored word.
    pub fn apply(&self, bank: usize, word_addr: usize, word: u32) -> u32 {
        self.banks[bank].apply(word_addr, word)
    }

    /// Total faults across all banks.
    pub fn fault_count(&self) -> usize {
        self.banks.iter().map(BankFaultMap::fault_count).sum()
    }

    /// Array-wide bit-error rate.
    pub fn ber(&self) -> f64 {
        let bits: usize = self
            .banks
            .iter()
            .map(|b| b.words() * b.word_bits() as usize)
            .sum();
        if bits == 0 {
            0.0
        } else {
            self.fault_count() as f64 / bits as f64
        }
    }

    /// All fault records across the array.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.banks
            .iter()
            .enumerate()
            .flat_map(|(bank, map)| {
                map.iter()
                    .map(move |(word, bit, stuck_at_one)| FaultRecord {
                        bank,
                        word,
                        bit,
                        stuck_at_one,
                    })
            })
            .collect()
    }

    /// Stable 128-bit content fingerprint of the map: the profiled
    /// operating point plus every bank's OR/AND/XOR masks. Two maps share
    /// a fingerprint exactly when they would inject identical faults,
    /// which is what lets the sweep cache address results by fault
    /// content rather than by how the map was produced.
    pub fn fingerprint(&self) -> u128 {
        let mut f = crate::fingerprint::Fingerprint::new();
        f.write_str("matic.fault-map/v2");
        f.write_u64(self.voltage.to_bits());
        f.write_u64(self.temp_c.to_bits());
        self.absorb_masks(&mut f);
        f.finish()
    }

    /// Stable 128-bit fingerprint of the fault **content** alone: the
    /// geometry and every bank's OR/AND/XOR masks, without the profiled
    /// operating point. Two maps share it exactly when they inject
    /// identical faults, whatever voltage and temperature produced them —
    /// the identity of a map to anything that only applies its masks
    /// (e.g. memory-adaptive training).
    pub fn mask_fingerprint(&self) -> u128 {
        let mut f = crate::fingerprint::Fingerprint::new();
        f.write_str("matic.fault-masks/v1");
        self.absorb_masks(&mut f);
        f.finish()
    }

    fn absorb_masks(&self, f: &mut crate::fingerprint::Fingerprint) {
        f.write_u64(self.banks.len() as u64);
        for bank in &self.banks {
            f.write_u64(bank.word_bits() as u64);
            f.write_u64(bank.words() as u64);
            for w in 0..bank.words() {
                f.write_u64(bank.or_mask(w) as u64);
                f.write_u64(bank.and_mask(w) as u64);
                f.write_u64(bank.xor_mask(w) as u64);
            }
        }
    }

    /// Voltage-monotonicity relation over whole arrays.
    pub fn is_subset_of(&self, other: &FaultMap) -> bool {
        self.banks.len() == other.banks.len()
            && self
                .banks
                .iter()
                .zip(&other.banks)
                .all(|(a, b)| a.is_subset_of(b))
    }
}

fn word_mask(word_bits: u8) -> u32 {
    if word_bits == 32 {
        u32::MAX
    } else {
        (1u32 << word_bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_map_is_identity() {
        let map = BankFaultMap::clean(8, 16);
        for w in 0..8 {
            assert_eq!(map.apply(w, 0xABCD), 0xABCD);
        }
        assert_eq!(map.fault_count(), 0);
        assert_eq!(map.ber(), 0.0);
    }

    #[test]
    fn stuck_at_one_sets_bit() {
        let mut map = BankFaultMap::clean(4, 16);
        map.set_fault(2, 5, true);
        assert_eq!(map.apply(2, 0x0000), 1 << 5);
        assert_eq!(map.apply(2, 0xFFFF), 0xFFFF);
        assert_eq!(map.apply(1, 0x0000), 0x0000); // other words untouched
        assert!(map.is_faulty(2, 5));
        assert!(!map.is_faulty(2, 4));
    }

    #[test]
    fn stuck_at_zero_clears_bit() {
        let mut map = BankFaultMap::clean(4, 16);
        map.set_fault(0, 15, false);
        assert_eq!(map.apply(0, 0xFFFF), 0x7FFF);
        assert_eq!(map.apply(0, 0x0000), 0x0000);
    }

    #[test]
    fn apply_is_idempotent() {
        let mut map = BankFaultMap::clean(2, 16);
        map.set_fault(0, 3, true);
        map.set_fault(0, 9, false);
        let once = map.apply(0, 0x5A5A);
        assert_eq!(map.apply(0, once), once);
    }

    #[test]
    fn polarity_update_is_last_writer_wins() {
        let mut map = BankFaultMap::clean(1, 16);
        map.set_fault(0, 4, false);
        map.set_fault(0, 4, true);
        assert_eq!(map.apply(0, 0x0000), 1 << 4);
        map.set_fault(0, 4, false);
        assert_eq!(map.apply(0, 0xFFFF) & (1 << 4), 0);
    }

    #[test]
    fn iter_reports_all_faults_with_polarity() {
        let mut map = BankFaultMap::clean(4, 8);
        map.set_fault(1, 0, true);
        map.set_fault(3, 7, false);
        let faults: Vec<_> = map.iter().collect();
        assert_eq!(faults, vec![(1, 0, true), (3, 7, false)]);
        assert_eq!(map.fault_count(), 2);
    }

    #[test]
    fn subset_relation() {
        let mut small = BankFaultMap::clean(4, 8);
        small.set_fault(0, 1, true);
        let mut big = small.clone();
        big.set_fault(2, 3, false);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
    }

    #[test]
    fn subset_requires_matching_polarity() {
        let mut a = BankFaultMap::clean(1, 8);
        a.set_fault(0, 0, true);
        let mut b = BankFaultMap::clean(1, 8);
        b.set_fault(0, 0, false);
        assert!(!a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn apply_slice_matches_scalar_apply() {
        let mut map = BankFaultMap::clean(8, 16);
        map.set_fault(1, 2, true);
        map.set_fault(5, 11, false);
        let mut words: Vec<u32> = (0..8).map(|i| (i * 0x1357) & 0xFFFF).collect();
        let expect: Vec<u32> = words
            .iter()
            .enumerate()
            .map(|(w, &v)| map.apply(w, v))
            .collect();
        map.apply_slice(&mut words);
        assert_eq!(words, expect);
        assert_eq!(map.or_masks().len(), 8);
        assert_eq!(map.and_masks()[5] & (1 << 11), 0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = FaultMap::clean(0.5, 2, 4, 16);
        let clean = a.fingerprint();
        assert_eq!(clean, a.clone().fingerprint(), "stable across clones");
        a.bank_mut(0).set_fault(1, 2, true);
        let one_fault = a.fingerprint();
        assert_ne!(clean, one_fault, "a new fault must change the digest");
        a.bank_mut(0).set_fault(1, 2, false);
        assert_ne!(one_fault, a.fingerprint(), "polarity is content");
        let other_voltage = FaultMap::clean(0.6, 2, 4, 16);
        assert_ne!(
            clean,
            other_voltage.fingerprint(),
            "the profiled operating point is content"
        );
    }

    #[test]
    fn flip_inverts_bit_on_apply() {
        let mut map = BankFaultMap::clean(4, 16);
        map.set_flip(1, 3);
        assert_eq!(map.apply(1, 0x0000), 1 << 3);
        assert_eq!(map.apply(1, 0xFFFF), 0xFFFF ^ (1 << 3));
        assert_eq!(map.apply(0, 0x0000), 0x0000); // other words untouched
        assert_eq!(map.xor_mask(1), 1 << 3);
        // A flip counts as a faulty bit.
        assert_eq!(map.fault_count(), 1);
        // But iter() yields stuck-at faults only (canary machinery).
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn set_flip_overrides_prior_stuck_at() {
        let mut map = BankFaultMap::clean(1, 16);
        map.set_fault(0, 4, true);
        map.set_flip(0, 4);
        assert_eq!(map.apply(0, 0x0000), 1 << 4);
        assert_eq!(map.apply(0, 0xFFFF) & (1 << 4), 0);
    }

    #[test]
    fn flip_subset_relation() {
        let mut small = BankFaultMap::clean(2, 8);
        small.set_flip(0, 1);
        let mut big = small.clone();
        big.set_flip(1, 5);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        // A flip is not a subset of a stuck-at at the same bit.
        let mut stuck = BankFaultMap::clean(2, 8);
        stuck.set_fault(0, 1, true);
        assert!(!small.is_subset_of(&stuck));
    }

    #[test]
    fn apply_slice_matches_scalar_apply_with_flips() {
        let mut map = BankFaultMap::clean(8, 16);
        map.set_fault(1, 2, true);
        map.set_flip(5, 11);
        map.set_flip(1, 9);
        let mut words: Vec<u32> = (0..8).map(|i| (i * 0x1357) & 0xFFFF).collect();
        let expect: Vec<u32> = words
            .iter()
            .enumerate()
            .map(|(w, &v)| map.apply(w, v))
            .collect();
        map.apply_slice(&mut words);
        assert_eq!(words, expect);
        assert_eq!(map.xor_masks().len(), 8);
    }

    #[test]
    fn fingerprint_tracks_flips() {
        let mut a = FaultMap::clean(0.5, 2, 4, 16);
        let clean = a.fingerprint();
        a.bank_mut(0).set_flip(1, 2);
        let flipped = a.fingerprint();
        assert_ne!(clean, flipped, "a flip must change the digest");
        let mut stuck = FaultMap::clean(0.5, 2, 4, 16);
        stuck.bank_mut(0).set_fault(1, 2, true);
        assert_ne!(
            flipped,
            stuck.fingerprint(),
            "a flip and a stuck-at at the same bit are distinct content"
        );
    }

    #[test]
    fn array_map_aggregates() {
        let mut map = FaultMap::clean(0.5, 2, 4, 16);
        map.bank_mut(0).set_fault(0, 0, true);
        map.bank_mut(1).set_fault(3, 15, false);
        assert_eq!(map.fault_count(), 2);
        let recs = map.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].bank, 0);
        assert_eq!(recs[1].bank, 1);
        assert!(recs[1].word == 3 && recs[1].bit == 15 && !recs[1].stuck_at_one);
        assert!((map.ber() - 2.0 / 128.0).abs() < 1e-12);
    }
}
