//! Property-based tests over the SRAM fault model.

use crate::*;
use proptest::prelude::*;

fn small_cfg(words: usize) -> SramConfig {
    SramConfig {
        words,
        word_bits: 16,
        dist: VminDistribution::date2018(),
    }
}

/// The eager bank model that lazy fail-mask derivation replaced: every
/// operating-point change rescans every cell. Built from a synthesized
/// bank's oracle view (its Vmins and preferred states), so both models
/// describe the same silicon.
struct ReferenceBank {
    cfg: SramConfig,
    stored: Vec<u32>,
    preferred: Vec<u32>,
    vmin: Vec<f32>,
    fail_mask: Vec<u32>,
}

impl ReferenceBank {
    fn of(bank: &SramBank) -> Self {
        let cfg = bank.config().clone();
        let bits = cfg.word_bits;
        let preferred = (0..cfg.words)
            .map(|w| {
                (0..bits)
                    .filter(|&b| bank.cell_preferred(w, b))
                    .fold(0u32, |m, b| m | 1 << b)
            })
            .collect();
        let vmin = (0..cfg.words)
            .flat_map(|w| (0..bits).map(move |b| bank.cell_vmin(w, b) as f32))
            .collect();
        let mut reference = ReferenceBank {
            stored: (0..cfg.words).map(|w| bank.peek(w)).collect(),
            fail_mask: vec![0; cfg.words],
            cfg,
            preferred,
            vmin,
        };
        reference.set_operating_point(bank.voltage(), bank.temperature());
        reference
    }

    fn set_operating_point(&mut self, voltage: f64, temp_c: f64) {
        let bits = self.cfg.word_bits as usize;
        let dt = temp_c - self.cfg.dist.ref_temp_c();
        let v_query = (voltage - self.cfg.dist.temp_coeff() * dt) as f32;
        for w in 0..self.cfg.words {
            let mut mask = 0u32;
            for b in 0..bits {
                if v_query < self.vmin[w * bits + b] {
                    mask |= 1 << b;
                }
            }
            self.fail_mask[w] = mask;
        }
    }

    fn write(&mut self, addr: usize, word: u32) {
        self.stored[addr] = word;
    }

    fn read(&mut self, addr: usize) -> u32 {
        let flips = (self.stored[addr] ^ self.preferred[addr]) & self.fail_mask[addr];
        self.stored[addr] ^= flips;
        self.stored[addr]
    }
}

/// One step of a bank interleaving: an operating point (indices into
/// small voltage and temperature pools, so points repeat and can change
/// in one coordinate only), a write or a read.
#[derive(Debug)]
enum BankOp {
    Point(usize, usize),
    Write(usize, u32),
    Read(usize),
}

const ORACLE_WORDS: usize = 24;

/// Ops weighted 1 : 2 : 4 over operating points, writes and reads.
fn bank_op(pool: usize) -> impl Strategy<Value = BankOp> {
    (0u8..7, (0..pool, 0..pool), 0..ORACLE_WORDS, 0u32..=u32::MAX).prop_map(
        |(kind, (vi, ti), addr, word)| match kind {
            0 => BankOp::Point(vi, ti),
            1 | 2 => BankOp::Write(addr, word),
            _ => BankOp::Read(addr),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lazily derived fail masks read exactly what the eager whole-bank
    /// rescan reads, bit for bit, over random interleavings of
    /// operating-point changes (repeated points included), writes and
    /// reads, at every supported word width.
    #[test]
    fn lazy_masks_match_eager_rescan(
        seed in 0u64..1000,
        word_bits in (0usize..4).prop_map(|i| [8u8, 16, 22, 32][i]),
        voltages in proptest::collection::vec(0.38f64..0.95, 1..4),
        temps in proptest::collection::vec(-20.0f64..100.0, 1..4),
        ops in proptest::collection::vec(bank_op(3), 1..300),
    ) {
        let cfg = SramConfig {
            words: ORACLE_WORDS,
            word_bits,
            dist: VminDistribution::date2018(),
        };
        let mut bank = SramBank::synthesize(&cfg, seed);
        let mut reference = ReferenceBank::of(&bank);
        for op in ops {
            match op {
                BankOp::Point(vi, ti) => {
                    let (v, t) = (voltages[vi % voltages.len()], temps[ti % temps.len()]);
                    bank.set_operating_point(v, t);
                    reference.set_operating_point(v, t);
                }
                BankOp::Write(addr, word) => {
                    let word = word & cfg.word_mask();
                    bank.write(addr, word);
                    reference.write(addr, word);
                }
                BankOp::Read(addr) => {
                    prop_assert_eq!(bank.read(addr), reference.read(addr));
                }
            }
        }
        for addr in 0..ORACLE_WORDS {
            prop_assert_eq!(bank.peek(addr), reference.stored[addr]);
        }
    }

    /// Reads at any operating point only ever move cells *towards* their
    /// preferred state, and repeated reads are stable.
    #[test]
    fn reads_flip_to_preferred_and_stabilize(
        seed in 0u64..1000,
        v in 0.40f64..0.60,
        pattern in 0u32..=0xFFFF,
    ) {
        let mut bank = SramBank::synthesize(&small_cfg(32), seed);
        bank.set_operating_point(v, 25.0);
        for addr in 0..bank.words() {
            bank.write(addr, pattern);
        }
        for addr in 0..bank.words() {
            let first = bank.read(addr);
            let flipped = first ^ pattern;
            for bit in 0..16u8 {
                if (flipped >> bit) & 1 == 1 {
                    prop_assert_eq!(
                        (first >> bit) & 1 == 1,
                        bank.cell_preferred(addr, bit)
                    );
                }
            }
            prop_assert_eq!(bank.read(addr), first);
        }
    }

    /// Fault maps profiled at a higher voltage are subsets of maps profiled
    /// at any lower voltage (same silicon, same temperature).
    #[test]
    fn profile_monotone_in_voltage(
        seed in 0u64..500,
        v_pair in (0.42f64..0.54, 0.42f64..0.54),
    ) {
        let (a, b) = v_pair;
        let (v_hi, v_lo) = if a >= b { (a, b) } else { (b, a) };
        let mut bank = SramBank::synthesize(&small_cfg(64), seed);
        let (map_hi, _) = profile_bank(&mut bank, v_hi, 25.0);
        let (map_lo, _) = profile_bank(&mut bank, v_lo, 25.0);
        prop_assert!(map_hi.is_subset_of(&map_lo));
    }

    /// Applying a fault map is idempotent, and output bits always agree
    /// with the map's stuck polarities.
    #[test]
    fn fault_map_apply_idempotent(
        ber in 0.0f64..0.6,
        seed in 0u64..1000,
        word in 0u32..=0xFFFF,
    ) {
        let map = inject::bernoulli_fault_map(1, 16, 16, ber, seed);
        for addr in 0..16 {
            let once = map.apply(0, addr, word);
            prop_assert_eq!(map.apply(0, addr, once), once);
            let bank_map = &map.banks()[0];
            prop_assert_eq!(once & bank_map.or_mask(addr), bank_map.or_mask(addr));
            prop_assert_eq!(once & !bank_map.and_mask(addr) & 0xFFFF, 0);
        }
    }

    /// The i.i.d. random-flip injector produces a flip count within exact
    /// binomial bounds for every seed: |k - np| <= 6·sqrt(np(1-p)) + 1,
    /// a ~6-sigma envelope that a correct Bernoulli sampler essentially
    /// never leaves and a biased one essentially always does.
    #[test]
    fn random_flip_count_within_binomial_bounds(
        ber in 0.001f64..0.5,
        seed in 0u64..500,
    ) {
        let (banks, words, bits) = (2usize, 256usize, 16u8);
        let map = inject::random_flip_map(banks, words, bits, ber, seed);
        let n = (banks * words * bits as usize) as f64;
        let k = map.fault_count() as f64;
        let sigma = (n * ber * (1.0 - ber)).sqrt();
        prop_assert!(
            (k - n * ber).abs() <= 6.0 * sigma + 1.0,
            "k = {}, np = {}, sigma = {}", k, n * ber, sigma
        );
        // Flips only: no stuck-at records, and apply is an involution.
        prop_assert_eq!(map.records().len(), 0);
        let bank_map = &map.banks()[0];
        for addr in 0..words {
            let once = bank_map.apply(addr, 0xA5C3);
            prop_assert_eq!(bank_map.apply(addr, once), 0xA5C3);
        }
    }

    /// Profiling never reports unstable bits under the stable-upset model,
    /// and finds exactly the oracle's fault count.
    #[test]
    fn profile_matches_oracle(seed in 0u64..300, v in 0.43f64..0.53) {
        let mut bank = SramBank::synthesize(&small_cfg(48), seed);
        let (map, report) = profile_bank(&mut bank, v, 25.0);
        prop_assert_eq!(report.unstable_bits, 0);
        let oracle: usize = (0..bank.words())
            .map(|w| (0..16u8).filter(|&b| bank.cell_vmin(w, b) > v).count())
            .sum();
        prop_assert_eq!(map.fault_count(), oracle);
    }

    /// The analytic fail-rate curve is the CDF of sampled cells: oracle
    /// fail fraction converges to `fail_rate(v)`.
    #[test]
    fn population_matches_curve(seed in 0u64..50, v in 0.44f64..0.52) {
        let bank = SramBank::synthesize(&small_cfg(2048), seed);
        let expected = VminDistribution::date2018().fail_rate(v);
        let measured = bank.fail_fraction_at(v, 25.0);
        prop_assert!((measured - expected).abs() < 0.03);
    }

    /// Temperature monotonicity: for any cell, hotter die ⇒ lower
    /// effective Vmin (below the inversion point).
    #[test]
    fn hotter_never_fails_more(seed in 0u64..200, v in 0.42f64..0.54,
                               t_pair in (-15.0f64..90.0, -15.0f64..90.0)) {
        let (a, b) = t_pair;
        let (t_cold, t_hot) = if a <= b { (a, b) } else { (b, a) };
        let bank = SramBank::synthesize(&small_cfg(64), seed);
        prop_assert!(
            bank.fail_fraction_at(v, t_hot) <= bank.fail_fraction_at(v, t_cold)
        );
    }
}
