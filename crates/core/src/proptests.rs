//! Property-based tests over the MATIC core.

use crate::layout::{ParamRef, WeightLayout};
use crate::models::FaultModel;
use crate::quantizer::MaskedQuantizer;
use matic_fixed::QFormat;
use matic_nn::NetSpec;
use matic_sram::inject::bernoulli_fault_map;
use matic_sram::ArrayConfig;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_spec() -> impl Strategy<Value = NetSpec> {
    (1usize..12, 1usize..12, 1usize..12).prop_map(|(a, b, c)| NetSpec::classifier(&[a, b, c]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layout places every parameter at a unique in-range location.
    #[test]
    fn layout_is_injective(spec in arb_spec(), banks in 1usize..9) {
        let words = 512;
        let layout = WeightLayout::new(&spec, banks, words).unwrap();
        let mut seen = HashSet::new();
        let mut n = 0;
        for (_, loc) in layout.entries() {
            prop_assert!(loc.bank < banks);
            prop_assert!(loc.word < words);
            prop_assert!(seen.insert((loc.bank, loc.word)));
            n += 1;
        }
        prop_assert_eq!(n, spec.param_count());
    }

    /// Bank usage accounting matches the actual maximum placed word.
    #[test]
    fn words_used_is_tight(spec in arb_spec(), banks in 1usize..5) {
        let layout = WeightLayout::new(&spec, banks, 512).unwrap();
        let mut max_word = vec![None::<usize>; banks];
        for (_, loc) in layout.entries() {
            let m = &mut max_word[loc.bank];
            *m = Some(m.map_or(loc.word, |x| x.max(loc.word)));
        }
        for (b, max) in max_word.iter().enumerate() {
            let used = layout.words_used(b);
            match *max {
                Some(m) => prop_assert_eq!(used, m + 1),
                None => prop_assert_eq!(used, 0),
            }
        }
    }

    /// The effective (masked) value is a fixed point of the quantizer:
    /// re-quantizing and re-masking it changes nothing.
    #[test]
    fn masking_is_idempotent(
        value in -8.0f64..8.0,
        ber in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let spec = NetSpec::classifier(&[3, 4, 2]);
        let layout = WeightLayout::new(&spec, 2, 32).unwrap();
        let faults = bernoulli_fault_map(2, 32, 16, ber, seed);
        let fmt = QFormat::new(16, 12).unwrap();
        let q = MaskedQuantizer::new(fmt, &layout, Some(&faults));
        let p = ParamRef::Weight { layer: 0, row: 1, col: 2 };
        let once = q.effective_value(p, value);
        let twice = q.effective_value(p, once);
        prop_assert_eq!(once, twice);
    }

    /// εq is always bounded by half an LSB for in-range values and exactly
    /// reconstructs the pre-quantization value.
    #[test]
    fn residual_reconstructs(value in -7.9f64..7.9, seed in 0u64..200) {
        let spec = NetSpec::classifier(&[3, 4, 2]);
        let layout = WeightLayout::new(&spec, 2, 32).unwrap();
        let faults = bernoulli_fault_map(2, 32, 16, 0.2, seed);
        let fmt = QFormat::new(16, 12).unwrap();
        let q = MaskedQuantizer::new(fmt, &layout, Some(&faults));
        let p = ParamRef::Bias { layer: 1, row: 0 };
        let (_, eq) = q.effective(p, value);
        prop_assert!(eq.abs() <= fmt.lsb() / 2.0 + 1e-12);
        // εq + Q(value) = value (mask-independent identity).
        let plain = matic_fixed::quantize_with_residual(value, fmt);
        prop_assert!(
            (matic_fixed::dequantize(plain.raw, fmt) + eq - value).abs() < 1e-12
        );
    }

    /// A fault-model fingerprint is a pure function of its semantic
    /// fields — two values collide exactly when every semantic field
    /// agrees, and never across model types. This is what lets the
    /// sweep cache share entries between plans precisely when they
    /// would inject identical faults.
    #[test]
    fn fault_model_fingerprint_tracks_semantics_exactly(
        banks_a in 1usize..9,
        banks_b in 1usize..9,
    ) {
        let variants = |banks: usize| {
            let array = ArrayConfig {
                banks,
                ..Default::default()
            };
            [
                FaultModel::SramVoltage { array: array.clone() },
                FaultModel::RandomBer { array: array.clone() },
                FaultModel::TimingError { array },
            ]
        };
        let (a, b) = (variants(banks_a), variants(banks_b));
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.fingerprint() == y.fingerprint(), banks_a == banks_b);
        }
        // Model types never collide, even over identical geometry.
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                prop_assert_ne!(a[i].fingerprint(), a[j].fingerprint());
            }
        }
    }

    /// The masked value differs from the plain quantized value only at
    /// faulty bit positions.
    #[test]
    fn mask_touches_only_faulty_bits(
        value in -7.9f64..7.9,
        ber in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        let spec = NetSpec::classifier(&[3, 4, 2]);
        let layout = WeightLayout::new(&spec, 2, 32).unwrap();
        let faults = bernoulli_fault_map(2, 32, 16, ber, seed);
        let fmt = QFormat::new(16, 12).unwrap();
        let q = MaskedQuantizer::new(fmt, &layout, Some(&faults));
        let p = ParamRef::Weight { layer: 1, row: 1, col: 3 };
        let loc = layout.location_of(p);
        let masked = q.effective_value(p, value);
        let plain_raw = matic_fixed::quantize(value, fmt);
        let diff = fmt.encode(plain_raw) ^ fmt.encode(matic_fixed::quantize(masked, fmt));
        let fault_bits = faults.banks()[loc.bank].fault_bits(loc.word);
        prop_assert_eq!(diff & !fault_bits, 0,
            "non-faulty bits changed: diff {:#x}, faults {:#x}", diff, fault_bits);
    }
}
