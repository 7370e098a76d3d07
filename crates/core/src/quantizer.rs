//! The injection-masking quantizer (Fig. 4 of the paper).

use crate::layout::{Location, ParamRef, WeightLayout};
use matic_fixed::{quantize_with_residual, QFormat};
use matic_sram::FaultMap;

/// Applies quantization and profiled fault masks to float master weights,
/// producing the **effective** weight the hardware would read back:
/// `m = Bor | (Band & Q(w))` decoded back to a real number.
///
/// The quantizer borrows the layout (which word each parameter occupies)
/// and the fault map (which bits of that word are stuck), so the masking
/// matches the physical chip bit-for-bit.
#[derive(Debug, Clone)]
pub struct MaskedQuantizer<'a> {
    fmt: QFormat,
    layout: &'a WeightLayout,
    faults: Option<&'a FaultMap>,
}

impl<'a> MaskedQuantizer<'a> {
    /// Creates a quantizer that injects `faults` (pass `None` for a
    /// quantization-only view — the paper's fault-free deployment).
    ///
    /// # Panics
    ///
    /// Panics if the fault map's word width differs from the format's.
    pub fn new(fmt: QFormat, layout: &'a WeightLayout, faults: Option<&'a FaultMap>) -> Self {
        if let Some(map) = faults {
            assert_eq!(
                map.banks()[0].word_bits(),
                fmt.word_bits(),
                "fault-map word width must match the weight format"
            );
            assert!(
                map.banks().len() >= layout.banks(),
                "fault map covers fewer banks than the layout"
            );
        }
        MaskedQuantizer {
            fmt,
            layout,
            faults,
        }
    }

    /// The weight format.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// Quantizes, masks and decodes one parameter value. Returns the
    /// effective real value plus the fractional quantization error εq
    /// (computed *before* masking, as in the paper's update rule).
    pub fn effective(&self, param: ParamRef, value: f64) -> (f64, f64) {
        let q = quantize_with_residual(value, self.fmt);
        let word = self.fmt.encode(q.raw);
        let stored = match self.faults {
            Some(map) => {
                let Location { bank, word: addr } = self.layout.location_of(param);
                map.apply(bank, addr, word)
            }
            None => word,
        };
        let m = matic_fixed::dequantize(self.fmt.decode(stored), self.fmt);
        (m, q.residual)
    }

    /// The effective value only (no residual).
    pub fn effective_value(&self, param: ParamRef, value: f64) -> f64 {
        self.effective(param, value).0
    }

    /// Pre-resolves every parameter's fault masks into dense per-layer
    /// buffers, producing the [`ComposedQuantizer`] fast path.
    pub fn compose(&self) -> ComposedQuantizer {
        ComposedQuantizer::new(self.fmt, self.layout, self.faults)
    }
}

/// One parameter block's injection masks (a layer's weights, row-major
/// `fan_out × fan_in`, or its biases), aligned with the dense storage of
/// an [`Mlp`](matic_nn::Mlp) and kept as separate OR/AND/XOR planes so
/// the quantize-mask-decode sweep reads flat `u32` streams.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskPlanes {
    or: Vec<u32>,
    and: Vec<u32>,
    xor: Vec<u32>,
}

impl MaskPlanes {
    fn push(&mut self, [or, and, xor]: [u32; 3]) {
        self.or.push(or);
        self.and.push(and);
        self.xor.push(xor);
    }

    /// Writes the effective view of `src` into `dst`, where `src` holds
    /// parameters `from..from + src.len()` of this block.
    #[inline]
    pub(crate) fn effective_into(&self, k: QuantConsts, from: usize, src: &[f64], dst: &mut [f64]) {
        let to = from + src.len();
        for ((((d, &s), &or), &and), &xor) in dst
            .iter_mut()
            .zip(src)
            .zip(&self.or[from..to])
            .zip(&self.and[from..to])
            .zip(&self.xor[from..to])
        {
            *d = k.effective(s, or, and, xor);
        }
    }
}

/// One layer's weight and bias mask planes.
#[derive(Debug, Clone, Default)]
struct LayerMasks {
    weights: MaskPlanes,
    biases: MaskPlanes,
}

/// The [`QFormat`] constants of the quantize-mask-decode sweep, hoisted
/// out of the per-parameter loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantConsts {
    scale: f64,
    inv_scale: f64,
    raw_max_f: f64,
    raw_min_f: f64,
    word_mask: u32,
    sign_shift: u32,
}

impl QuantConsts {
    fn of(fmt: QFormat) -> Self {
        QuantConsts {
            scale: fmt.scale(),
            inv_scale: fmt.inv_scale(),
            raw_max_f: fmt.raw_max() as f64,
            raw_min_f: fmt.raw_min() as f64,
            word_mask: fmt.word_mask(),
            sign_shift: 32 - fmt.word_bits() as u32,
        }
    }

    /// `dequantize(decode(((encode(quantize(x)) & and) | or) ^ xor))`,
    /// bit-identical to the scalar helpers in `matic-fixed`: the quantize
    /// step is their branch-free core [`matic_fixed::quantize_scaled`], and
    /// the mask and decode are the same integer operations, so the
    /// per-parameter sweep has no branch.
    #[inline]
    fn effective(self, x: f64, or: u32, and: u32, xor: u32) -> f64 {
        let raw = matic_fixed::quantize_scaled(x * self.scale, self.raw_min_f, self.raw_max_f);
        let stored = (((raw as u32 & self.word_mask) & and) | or) ^ xor;
        let decoded = ((stored << self.sign_shift) as i32) >> self.sign_shift;
        decoded as f64 * self.inv_scale
    }
}

/// The composed fast path of [`MaskedQuantizer`]: every parameter's
/// OR/AND masks are gathered through the layout **once**, so the per-step
/// quantize-and-mask sweep of memory-adaptive training touches only
/// dense, cache-friendly buffers — no per-parameter address arithmetic
/// inside the training loop.
///
/// Produces bit-identical effective values to the per-parameter
/// [`MaskedQuantizer`] it was composed from (the masks are the same; only
/// their lookup is hoisted).
#[derive(Debug, Clone)]
pub struct ComposedQuantizer {
    fmt: QFormat,
    layers: Vec<LayerMasks>,
}

impl ComposedQuantizer {
    /// Gathers the masks of every parameter placed by `layout` (pass
    /// `faults = None` for a quantization-only composition).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MaskedQuantizer::new`].
    pub fn new(fmt: QFormat, layout: &WeightLayout, faults: Option<&FaultMap>) -> Self {
        // Delegate validation so both paths reject the same inputs.
        let _ = MaskedQuantizer::new(fmt, layout, faults);
        let clean = [0u32, fmt.word_mask(), 0u32];
        let spec = layout.spec();
        let mut layers = Vec::with_capacity(spec.depth());
        let mask_of = |param: ParamRef| match faults {
            Some(map) => {
                let Location { bank, word } = layout.location_of(param);
                let bank = &map.banks()[bank];
                [
                    bank.or_masks()[word],
                    bank.and_masks()[word],
                    bank.xor_masks()[word],
                ]
            }
            None => clean,
        };
        for layer in 0..spec.depth() {
            let (fan_out, fan_in) = spec.layer_spec(layer).weight_extent();
            let mut masks = LayerMasks::default();
            for row in 0..fan_out {
                for col in 0..fan_in {
                    masks
                        .weights
                        .push(mask_of(ParamRef::Weight { layer, row, col }));
                }
                masks.biases.push(mask_of(ParamRef::Bias { layer, row }));
            }
            layers.push(masks);
        }
        ComposedQuantizer { fmt, layers }
    }

    /// The weight format.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// Writes the effective (quantized + masked) view of `master` into
    /// `out`, overwriting every parameter. `out` must have the same
    /// topology as `master` (reuse the same buffer across training steps).
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `master` and `out` differ.
    pub fn effective_into(&self, master: &matic_nn::Mlp, out: &mut matic_nn::Mlp) {
        assert_eq!(master.spec(), out.spec(), "effective_into shape mismatch");
        let k = self.consts();
        for (layer, masks) in self.layers.iter().enumerate() {
            let (dw, db) = out.layer_mut(layer);
            masks
                .weights
                .effective_into(k, 0, master.weights()[layer].as_slice(), dw);
            masks
                .biases
                .effective_into(k, 0, &master.biases()[layer], db);
        }
    }

    /// The hoisted format constants of the per-parameter sweep.
    pub(crate) fn consts(&self) -> QuantConsts {
        QuantConsts::of(self.fmt)
    }

    /// Layer `layer`'s weight and bias mask planes.
    pub(crate) fn masks(&self, layer: usize) -> (&MaskPlanes, &MaskPlanes) {
        let masks = &self.layers[layer];
        (&masks.weights, &masks.biases)
    }

    /// The effective view as a fresh network (convenience form of
    /// [`ComposedQuantizer::effective_into`]).
    pub fn effective(&self, master: &matic_nn::Mlp) -> matic_nn::Mlp {
        let mut out = master.clone();
        self.effective_into(master, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_nn::NetSpec;
    use matic_sram::FaultMap;

    fn setup() -> (NetSpec, WeightLayout) {
        let spec = NetSpec::classifier(&[4, 4, 2]);
        let layout = WeightLayout::new(&spec, 2, 64).unwrap();
        (spec, layout)
    }

    #[test]
    fn no_faults_is_pure_quantization() {
        let (_, layout) = setup();
        let fmt = QFormat::new(16, 12).unwrap();
        let q = MaskedQuantizer::new(fmt, &layout, None);
        let p = ParamRef::Weight {
            layer: 0,
            row: 0,
            col: 0,
        };
        let (m, eq) = q.effective(p, 0.7512);
        assert!((m + eq - 0.7512).abs() < 1e-12);
        assert!((m - 0.7512).abs() <= fmt.lsb() / 2.0);
    }

    #[test]
    fn stuck_bit_changes_only_the_target_word() {
        let (_, layout) = setup();
        let fmt = QFormat::new(16, 12).unwrap();
        let mut map = FaultMap::clean(0.5, 2, 64, 16);
        let p0 = ParamRef::Weight {
            layer: 0,
            row: 0,
            col: 0,
        };
        let loc = layout.location_of(p0);
        // Stick the sign bit at 1: positive weights become very negative.
        map.bank_mut(loc.bank).set_fault(loc.word, 15, true);
        let q = MaskedQuantizer::new(fmt, &layout, Some(&map));
        let (m, _) = q.effective(p0, 0.5);
        assert!(m < 0.0, "sign-stuck weight must read negative, got {m}");
        // A different parameter is untouched.
        let p1 = ParamRef::Weight {
            layer: 0,
            row: 0,
            col: 1,
        };
        let (m1, _) = q.effective(p1, 0.5);
        assert!((m1 - 0.5).abs() <= fmt.lsb() / 2.0);
    }

    #[test]
    fn stuck_at_zero_lsb_is_small_perturbation() {
        let (_, layout) = setup();
        let fmt = QFormat::new(16, 12).unwrap();
        let mut map = FaultMap::clean(0.5, 2, 64, 16);
        let p = ParamRef::Bias { layer: 1, row: 1 };
        let loc = layout.location_of(p);
        map.bank_mut(loc.bank).set_fault(loc.word, 0, false);
        let q = MaskedQuantizer::new(fmt, &layout, Some(&map));
        let (m, _) = q.effective(p, 0.5);
        // Q(0.5) has LSB 0 already, so the masked value is unchanged.
        assert!((m - 0.5).abs() < 1e-12);
        let (m, _) = q.effective(p, 0.5 + fmt.lsb());
        assert!((m - 0.5).abs() < 1e-12, "LSB cleared");
    }

    #[test]
    fn residual_is_pre_mask_quantization_error() {
        let (_, layout) = setup();
        let fmt = QFormat::new(16, 12).unwrap();
        let mut map = FaultMap::clean(0.5, 2, 64, 16);
        let p = ParamRef::Weight {
            layer: 0,
            row: 1,
            col: 2,
        };
        let loc = layout.location_of(p);
        map.bank_mut(loc.bank).set_fault(loc.word, 14, true);
        let q = MaskedQuantizer::new(fmt, &layout, Some(&map));
        let x = 0.123456;
        let (_, eq) = q.effective(p, x);
        // εq must equal the plain quantization residual, independent of
        // the mask (Fig. 4 takes it from the quantize step).
        let plain = matic_fixed::quantize_with_residual(x, fmt).residual;
        assert_eq!(eq, plain);
    }

    #[test]
    fn composed_scalar_core_matches_fixed_helpers_on_edge_values() {
        let fmt = QFormat::new(16, 13).unwrap();
        let k = QuantConsts::of(fmt);
        let (or, and, xor) = (0x0041u32, 0xFFDFu32, 0x8004u32);
        let mut probes: Vec<f64> = vec![
            0.0,
            -0.0,
            fmt.lsb() / 2.0,
            -fmt.lsb() / 2.0,
            0.49999999999999994,
            fmt.max_value(),
            fmt.min_value(),
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        let mut x = -4.2;
        while x < 4.2 {
            probes.push(x);
            x += 0.0137;
        }
        for &v in &probes {
            let raw = matic_fixed::quantize(v, fmt);
            let stored = ((fmt.encode(raw) & and) | or) ^ xor;
            let reference = matic_fixed::dequantize(fmt.decode(stored), fmt);
            assert_eq!(
                k.effective(v, or, and, xor).to_bits(),
                reference.to_bits(),
                "x = {v:e}"
            );
        }
        // NaN routes through the same saturating-cast branch.
        let raw = matic_fixed::quantize(f64::NAN, fmt);
        let stored = ((fmt.encode(raw) & and) | or) ^ xor;
        let reference = matic_fixed::dequantize(fmt.decode(stored), fmt);
        assert_eq!(k.effective(f64::NAN, or, and, xor), reference);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The select-form sweep equals the scalar helpers for any f64 bit
        /// pattern (NaNs, infinities, subnormals), word width 8/16/32 and
        /// mask triple. A third of the cases rewrite the pattern into a
        /// half-LSB multiple, so ties and both saturation edges are dense.
        #[test]
        fn composed_scalar_core_matches_fixed_helpers_on_any_bits(
            bits in 0u64..=u64::MAX,
            width in 0usize..3,
            frac in 0u8..32,
            ties in 0u8..3,
            masks in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
        ) {
            let width = [8u8, 16, 32][width];
            let fmt = QFormat::new(width, frac % width).unwrap();
            let x = if ties == 0 {
                let halves = (bits % (1u64 << (width + 2))) as i64 - (1i64 << (width + 1));
                halves as f64 * fmt.lsb() / 2.0
            } else {
                f64::from_bits(bits)
            };
            let (or, and, xor) = masks;
            let (or, xor) = (or & fmt.word_mask(), xor & fmt.word_mask());
            let stored = ((fmt.encode(matic_fixed::quantize(x, fmt)) & and) | or) ^ xor;
            let reference = matic_fixed::dequantize(fmt.decode(stored), fmt);
            proptest::prop_assert_eq!(
                QuantConsts::of(fmt).effective(x, or, and, xor).to_bits(),
                reference.to_bits(),
                "x = {:e} fmt {}",
                x,
                fmt
            );
        }
    }

    #[test]
    fn composed_matches_per_param_quantizer_exactly() {
        use matic_nn::Mlp;
        use matic_sram::inject::bernoulli_fault_map;

        let spec = NetSpec::classifier(&[6, 5, 3]);
        let layout = WeightLayout::new(&spec, 2, 64).unwrap();
        let fmt = QFormat::new(16, 12).unwrap();
        let mut map = bernoulli_fault_map(2, 64, 16, 0.25, 11);
        // Mix in bit flips so the XOR plane is exercised too.
        map.bank_mut(0).set_flip(3, 15);
        map.bank_mut(1).set_flip(10, 0);
        let master = Mlp::init(spec.clone(), 3);

        let reference = MaskedQuantizer::new(fmt, &layout, Some(&map));
        let composed = reference.compose();
        let fast = composed.effective(&master);

        for layer in 0..spec.depth() {
            for row in 0..spec.layers[layer + 1] {
                for col in 0..spec.layers[layer] {
                    let p = ParamRef::Weight { layer, row, col };
                    let v = master.weights()[layer].get(row, col);
                    assert_eq!(
                        fast.weights()[layer].get(row, col),
                        reference.effective_value(p, v),
                        "weight {p:?}"
                    );
                }
                let p = ParamRef::Bias { layer, row };
                let v = master.biases()[layer][row];
                assert_eq!(
                    fast.biases()[layer][row],
                    reference.effective_value(p, v),
                    "bias {p:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "word width")]
    fn mismatched_word_width_rejected() {
        let (_, layout) = setup();
        let fmt = QFormat::new(8, 6).unwrap();
        let map = FaultMap::clean(0.5, 2, 64, 16);
        let _ = MaskedQuantizer::new(fmt, &layout, Some(&map));
    }
}
