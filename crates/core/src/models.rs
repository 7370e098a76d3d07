//! The fault-model taxonomy: the three ways the reproduced silicon fails.
//!
//! MATIC's original evaluation assumes a single failure mode —
//! voltage-scaled 6T/8T SRAM bit-cell faults — but the surrounding
//! literature models failures the paper never saw: ThUnderVolt injects
//! *timing-error drops* into the datapath MACs under clock overscaling
//! (Zhang et al.), and Stutz et al. study i.i.d. random bit flips at a
//! fixed BER with robust fixed-point range selection. The set is closed,
//! so [`FaultModel`] is one enum, and the sweep's stress axis picks its
//! variant:
//!
//! * [`FaultModel::SramVoltage`] (voltage axis) — the paper's own model:
//!   faults come from profiling real (simulated) bit-cells at an
//!   overscaled supply voltage, so it *needs silicon* and supports
//!   in-situ canaries.
//! * [`FaultModel::RandomBer`] (BER axis) — Stutz-style i.i.d. bit flips
//!   over the quantized weight words at a fixed bit-error rate, with the
//!   robust (tighter) Q1.14 weight range; purely synthetic, no silicon
//!   required.
//! * [`FaultModel::TimingError`] (clock axis) — ThUnderVolt-style
//!   TE-Drop: under clock-period stress, individual MACs miss timing and
//!   their partial products are dropped from the accumulation. The
//!   storage is clean; the error lives in the kernel ([`MacDropSpec`]).
//!
//! Every model yields its per-cell fault content through
//! [`FaultModel::faults_at`] as a [`CellFaults`] — a storage-side
//! [`FaultMap`] (possibly clean) plus an optional kernel-side drop spec —
//! and contributes a canonical [`FaultModel::fingerprint`] to the
//! content-addressed sweep-cache digest, so two sweeps share cache
//! entries exactly when they would inject identical faults.

use crate::layout::WeightLayout;
use matic_fixed::QFormat;
use matic_nn::kernel::MacDropSpec;
use matic_nn::NetSpec;
use matic_sram::fingerprint::{fingerprint_of, Fingerprint};
use matic_sram::inject::random_flip_map;
use matic_sram::{ArrayConfig, FaultMap, SramConfig};

/// Everything a model may key its per-cell fault content on. All fields
/// derive from the sweep plan and the cell's grid position — never from
/// scheduling — which is what keeps reports byte-identical across thread
/// counts and cache states.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext<'a> {
    /// The stress value at this grid point, in the model's own axis
    /// units: supply voltage (V) for [`FaultModel::SramVoltage`],
    /// bit-error rate for [`FaultModel::RandomBer`], normalized
    /// clock-period stress in `[0, 1]` for [`FaultModel::TimingError`].
    pub stress: f64,
    /// Seed unique to this `(chip, scenario, stress point)` cell.
    pub cell_seed: u64,
    /// Seed shared by every stress point of one `(chip, scenario)` unit —
    /// models whose fault sets must nest monotonically across stress
    /// points (so model reuse stays sound) key on this instead.
    pub unit_seed: u64,
    /// The fault map profiled from silicon at this stress point, when the
    /// harness has silicon to profile. `None` for synthetic models.
    pub profiled: Option<&'a FaultMap>,
}

/// The fault content a model injects into one sweep cell: a storage-side
/// fault map (applied to the weight words the network reads back) plus an
/// optional kernel-side MAC-drop spec (applied inside the accumulation).
#[derive(Debug, Clone)]
pub struct CellFaults {
    /// Per-word stuck-at / flip masks over the weight array.
    pub map: FaultMap,
    /// MAC-level error drops, for models that corrupt the datapath rather
    /// than the storage.
    pub drops: Option<MacDropSpec>,
}

/// TE-Drop's timing-slack onset: below this normalized clock stress no
/// MAC path misses timing.
pub const TIMING_ERROR_ONSET: f64 = 0.25;

/// The robust weight format the random-BER model imposes: Q1.14
/// ([`QFormat::snnac_weight_robust`]), so a flipped high-order bit
/// perturbs the weight as little as the trained range allows (Stutz et
/// al.).
pub const RANDOM_BER_FORMAT: QFormat = QFormat::snnac_weight_robust();

/// A source of hardware faults, swept along a stress axis. Each axis has
/// exactly one model; every variant carries the weight-memory geometry it
/// injects into.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// The paper's own fault model: voltage-scaled 6T/8T SRAM bit-cell
    /// read upsets, profiled from (simulated) silicon at each supply
    /// point. The only model that needs silicon and supports in-situ
    /// canaries.
    SramVoltage {
        /// The weight-memory geometry.
        array: ArrayConfig,
    },
    /// Stutz-style i.i.d. random bit flips at a fixed bit-error rate over
    /// the quantized weight words, trained and stored in
    /// [`RANDOM_BER_FORMAT`]. Purely synthetic.
    RandomBer {
        /// The weight-memory geometry.
        array: ArrayConfig,
    },
    /// ThUnderVolt-style TE-Drop: under clock-period overscaling, MACs
    /// whose critical path misses timing drop their partial product from
    /// the accumulation. Storage stays clean; the error composes into the
    /// kernel via [`MacDropSpec`].
    ///
    /// The stress axis is normalized clock stress `s ∈ [0, 1]` (0 =
    /// nominal period, 1 = maximum overscaling). Below
    /// [`TIMING_ERROR_ONSET`] no path fails; past it the per-MAC drop
    /// probability grows quadratically, `p(s) = ((s − onset) / (1 −
    /// onset))²`, mirroring how path-delay distributions put most paths
    /// near the tail.
    TimingError {
        /// The weight-memory geometry.
        array: ArrayConfig,
    },
}

impl FaultModel {
    /// Stable machine-readable model name (`"sram-voltage"`,
    /// `"random-ber"`, `"timing-error"`). Appears in reports and cache
    /// keys.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::SramVoltage { .. } => "sram-voltage",
            FaultModel::RandomBer { .. } => "random-ber",
            FaultModel::TimingError { .. } => "timing-error",
        }
    }

    fn array(&self) -> &ArrayConfig {
        let (FaultModel::SramVoltage { array }
        | FaultModel::RandomBer { array }
        | FaultModel::TimingError { array }) = self;
        array
    }

    /// The weight-memory geometry the model injects into.
    pub fn geometry(&self) -> ArrayConfig {
        self.array().clone()
    }

    /// A weight format the model requires, if any: [`RANDOM_BER_FORMAT`]
    /// for random BER. `None` leaves the scenario's own choice in force.
    pub fn weight_format(&self) -> Option<QFormat> {
        match self {
            FaultModel::RandomBer { .. } => Some(RANDOM_BER_FORMAT),
            FaultModel::SramVoltage { .. } | FaultModel::TimingError { .. } => None,
        }
    }

    /// Whether fault content comes from profiling simulated silicon
    /// ([`FaultContext::profiled`]) rather than from synthesis. Silicon
    /// models key their cache entries on the chip's process variation;
    /// synthetic models must not (their faults are seed-derived).
    pub fn needs_silicon(&self) -> bool {
        matches!(self, FaultModel::SramVoltage { .. })
    }

    /// The fault content for one sweep cell.
    ///
    /// # Panics
    ///
    /// [`FaultModel::SramVoltage`] panics without a
    /// [`FaultContext::profiled`] map.
    pub fn faults_at(&self, ctx: &FaultContext<'_>) -> CellFaults {
        let array = self.array();
        match self {
            FaultModel::SramVoltage { .. } => CellFaults {
                map: ctx
                    .profiled
                    .expect("the SRAM-voltage model needs a profiled fault map")
                    .clone(),
                drops: None,
            },
            FaultModel::RandomBer { .. } => CellFaults {
                map: random_flip_map(
                    array.banks,
                    array.bank.words,
                    array.bank.word_bits,
                    ctx.stress,
                    ctx.cell_seed,
                ),
                drops: None,
            },
            // Keyed on the *unit* seed: at a fixed seed the drop set is
            // monotone in stress (MacDropSpec thresholds one hash stream),
            // so harsher clock points strictly grow the error set, exactly
            // like lower voltages grow a profiled fault map.
            FaultModel::TimingError { .. } => CellFaults {
                map: FaultMap::clean(0.0, array.banks, array.bank.words, array.bank.word_bits),
                drops: Some(MacDropSpec::new(
                    ctx.unit_seed,
                    drop_probability(ctx.stress),
                )),
            },
        }
    }

    /// Canonical content fingerprint: two model values share a
    /// fingerprint exactly when they would inject identical faults in
    /// every context. Feeds the content-addressed sweep-cache digest.
    pub fn fingerprint(&self) -> u128 {
        let mut f = Fingerprint::new();
        f.write_str(&format!("matic.fault-model.{}/v1", self.name()));
        f.write_u128(fingerprint_of(self.array()));
        match self {
            FaultModel::SramVoltage { .. } => {}
            FaultModel::RandomBer { .. } => {
                f.write_u128(fingerprint_of(&RANDOM_BER_FORMAT));
            }
            FaultModel::TimingError { .. } => {
                f.write_u64(TIMING_ERROR_ONSET.to_bits());
            }
        }
        f.finish()
    }
}

/// TE-Drop's per-MAC drop probability at normalized clock stress `s`.
fn drop_probability(s: f64) -> f64 {
    if s <= TIMING_ERROR_ONSET {
        0.0
    } else {
        let t = (s - TIMING_ERROR_ONSET) / (1.0 - TIMING_ERROR_ONSET);
        (t * t).min(1.0)
    }
}

/// Derives an array geometry fitted to a topology's per-layer weight
/// extents: keeps the template's bank count, word width and cell
/// statistics, and — only when the network does not fit — grows each
/// bank by whole macros of the template's word depth (adding another
/// weight-SRAM macro per PE, the way a larger SNNAC variant would be
/// floorplanned).
///
/// Returns the template **unchanged** whenever the network fits, so
/// every topology that fits the stock 8 × 576 × 16 complex (all four
/// paper benchmarks) keeps its exact chip-config fingerprint — and with
/// it every cache key.
pub fn fitted_array_config(spec: &NetSpec, template: &ArrayConfig) -> ArrayConfig {
    let banks = template.banks.max(1);
    // Round-robin placement: bank b holds ⌈(rows − b)/banks⌉ neurons of
    // each layer, each occupying fan-in + 1 (bias) words. Bank 0 is
    // always the fullest.
    let worst: usize = spec
        .param_extents()
        .iter()
        .map(|&(rows, cols)| (rows.div_ceil(banks)) * (cols + 1))
        .sum();
    if worst <= template.bank.words {
        return template.clone();
    }
    let macro_words = template.bank.words.max(1);
    ArrayConfig {
        banks,
        bank: SramConfig {
            words: worst.div_ceil(macro_words) * macro_words,
            ..template.bank.clone()
        },
    }
}

/// The exact storage-side surrogate of a MAC-drop set: every weight whose
/// MAC the spec drops is stuck at all-zero in its SRAM word.
///
/// A dropped MAC contributes zero to the `i64` accumulation; a weight
/// word reading back as `0` contributes `0 · x = 0`. Integer arithmetic
/// makes the two *bit-exact*, so memory-adaptive training can compensate
/// for timing errors by training against this map with the existing
/// storage-fault machinery — no trainer changes needed.
///
/// Biases are never dropped (they ride the short accumulator path), so
/// bias words stay clean.
pub fn drop_surrogate_map(drops: &MacDropSpec, layout: &WeightLayout, word_bits: u8) -> FaultMap {
    let mut map = FaultMap::clean(0.0, layout.banks(), layout.words_per_bank(), word_bits);
    for (param, loc) in layout.entries() {
        if let crate::layout::ParamRef::Weight { layer, row, col } = param {
            if drops.dropped(layer, row, col) {
                for bit in 0..word_bits {
                    map.bank_mut(loc.bank).set_fault(loc.word, bit, false);
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_nn::NetSpec;

    fn all_models() -> Vec<FaultModel> {
        let array = ArrayConfig::default();
        vec![
            FaultModel::SramVoltage {
                array: array.clone(),
            },
            FaultModel::RandomBer {
                array: array.clone(),
            },
            FaultModel::TimingError { array },
        ]
    }

    #[test]
    fn names_and_kinds_are_distinct() {
        let models = all_models();
        for i in 0..models.len() {
            for j in i + 1..models.len() {
                assert_ne!(models[i].name(), models[j].name());
                assert_ne!(models[i].fingerprint(), models[j].fingerprint());
            }
        }
    }

    #[test]
    fn fingerprint_tracks_semantic_fields() {
        let narrow = ArrayConfig {
            banks: 4,
            ..Default::default()
        };
        for model in all_models() {
            let mut resized = model.clone();
            let (FaultModel::SramVoltage { array }
            | FaultModel::RandomBer { array }
            | FaultModel::TimingError { array }) = &mut resized;
            *array = narrow.clone();
            assert_ne!(
                model.fingerprint(),
                resized.fingerprint(),
                "{}: geometry is semantic",
                model.name()
            );
            // Equal values, equal digests.
            assert_eq!(model.fingerprint(), model.clone().fingerprint());
        }
    }

    #[test]
    fn random_ber_faults_are_cell_seeded_flips() {
        let model = FaultModel::RandomBer {
            array: ArrayConfig::default(),
        };
        let ctx = |cell_seed| FaultContext {
            stress: 0.01,
            cell_seed,
            unit_seed: 1,
            profiled: None,
        };
        let a = model.faults_at(&ctx(7));
        let b = model.faults_at(&ctx(7));
        let c = model.faults_at(&ctx(8));
        assert!(a.drops.is_none());
        assert_eq!(a.map.fingerprint(), b.map.fingerprint());
        assert_ne!(a.map.fingerprint(), c.map.fingerprint());
        assert!(a.map.fault_count() > 0);
        assert_eq!(a.map.records().len(), 0, "flips, not stuck-ats");
    }

    #[test]
    fn timing_error_probability_is_monotone_with_onset_plateau() {
        assert_eq!(drop_probability(0.0), 0.0);
        assert_eq!(drop_probability(0.25), 0.0);
        let mut last = 0.0;
        let mut s = 0.26;
        while s <= 1.0 {
            let p = drop_probability(s);
            assert!(p >= last, "p must be non-decreasing in stress");
            last = p;
            s += 0.01;
        }
        assert!((drop_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timing_error_faults_key_on_unit_seed() {
        let model = FaultModel::TimingError {
            array: ArrayConfig::default(),
        };
        let ctx = FaultContext {
            stress: 0.8,
            cell_seed: 999,
            unit_seed: 5,
            profiled: None,
        };
        let f = model.faults_at(&ctx);
        assert_eq!(f.map.fault_count(), 0, "storage stays clean");
        let drops = f.drops.expect("timing model must emit a drop spec");
        assert_eq!(drops.seed(), 5, "keyed on the unit seed, not the cell");
    }

    #[test]
    fn trait_objects_round_trip_behaviour() {
        // Every variant answers the whole API the harness uses, and the
        // synthetic ones fill the model's own geometry.
        for model in all_models() {
            assert!(!model.name().is_empty());
            assert!(model.geometry().banks > 0);
            let _ = model.fingerprint();
            if !model.needs_silicon() {
                let ctx = FaultContext {
                    stress: 0.3,
                    cell_seed: 1,
                    unit_seed: 2,
                    profiled: None,
                };
                let faults = model.faults_at(&ctx);
                assert_eq!(faults.map.banks().len(), model.geometry().banks);
            }
        }
    }

    #[test]
    fn fitted_geometry_keeps_fitting_topologies_verbatim() {
        let template = ArrayConfig::snnac();
        for layers in [
            vec![100, 32, 10],
            vec![400, 8, 1],
            vec![2, 16, 2],
            vec![6, 16, 1],
        ] {
            let spec = NetSpec::classifier(&layers);
            assert_eq!(
                fitted_array_config(&spec, &template),
                template,
                "{layers:?} fits the stock complex and must not re-size it"
            );
        }
        let conv = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
        assert_eq!(fitted_array_config(&conv, &template), template);
    }

    #[test]
    fn fitted_geometry_grows_by_whole_macros() {
        let template = ArrayConfig::snnac();
        let big = NetSpec::classifier(&[1000, 64, 10]);
        let fitted = fitted_array_config(&big, &template);
        assert_eq!(fitted.banks, 8);
        assert_eq!(fitted.bank.word_bits, 16);
        // Bank 0 holds 8 hidden neurons × 1001 words + 2 output neurons
        // × 65 words = 8138 words → 15 macros of 576.
        assert_eq!(fitted.bank.words, 8138usize.div_ceil(576) * 576);
        assert!(WeightLayout::new(&big, fitted.banks, fitted.bank.words).is_ok());
    }

    #[test]
    fn surrogate_map_zeroes_exactly_the_dropped_weights() {
        let spec = NetSpec::classifier(&[6, 8, 3]);
        let layout = WeightLayout::new(&spec, 2, 64).unwrap();
        let drops = MacDropSpec::new(11, 0.4);
        let map = drop_surrogate_map(&drops, &layout, 16);
        for (param, loc) in layout.entries() {
            let read = map.apply(loc.bank, loc.word, 0xFFFF);
            match param {
                crate::layout::ParamRef::Weight { layer, row, col } => {
                    if drops.dropped(layer, row, col) {
                        assert_eq!(read, 0, "dropped weight must read all-zero");
                    } else {
                        assert_eq!(read, 0xFFFF, "surviving weight untouched");
                    }
                }
                crate::layout::ParamRef::Bias { .. } => {
                    assert_eq!(read, 0xFFFF, "biases are never dropped");
                }
            }
        }
    }
}
