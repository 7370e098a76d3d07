//! Fault-composed weight tensors: the dense artifact of one
//! (chip, voltage) operating point.
//!
//! The per-MAC inference path re-derives every faulted weight on every
//! multiply: locate the parameter's storage word through the layout, read
//! the physical bank (exercising the read-disturb mechanics), decode. All
//! of that is a *fixed function of the operating point* — once the supply
//! settles, every read of a word returns the same post-disturb value — so
//! the whole derivation can be hoisted out of the inner loop. That is the
//! ThUnderVolt-style observation this module implements: the faulted
//! weight tensor is an artifact you compose **once** when entering an
//! operating point, after which inference is a plain dense fixed-point
//! matmul over [`FxTensor`] rows.

use crate::layout::{Location, ParamRef, WeightLayout};
use matic_fixed::{FxTensor, QFormat};
use matic_sram::SramArray;

/// Dense per-layer fixed-point weights and biases as the hardware would
/// read them at the current operating point.
///
/// Composing performs exactly one physical read per stored parameter, so
/// marginal cells are disturbed precisely as the accelerator's own first
/// weight fetch would disturb them; the values (and the array state left
/// behind) are bit-identical to the per-MAC path.
///
/// # Examples
///
/// ```
/// use matic_core::{FaultedWeights, WeightLayout, upload_weights, train_naive, MatConfig};
/// use matic_nn::{NetSpec, Sample};
/// use matic_sram::{ArrayConfig, SramArray};
///
/// let spec = NetSpec::regressor(&[1, 4, 1]);
/// let data: Vec<Sample> = (0..8)
///     .map(|i| Sample::new(vec![i as f64 / 8.0], vec![0.5]))
///     .collect();
/// let cfg = MatConfig::quick();
/// let model = train_naive(&spec, &data, &cfg, 8, 576);
///
/// // Upload at a safe voltage, then compose the artifact.
/// let mut array = SramArray::synthesize(&ArrayConfig::snnac(), 1);
/// upload_weights(&model, &mut array);
/// let fw = FaultedWeights::from_array(model.layout(), model.format(), &mut array);
///
/// // One dense tensor per layer, in the network's shapes.
/// assert_eq!(fw.depth(), 2);
/// assert_eq!(fw.layer(0).rows(), 4);
/// assert_eq!(fw.layer(0).cols(), 1);
/// assert_eq!(fw.bias(1).len(), 1);
/// // At a nominal voltage no cell fails: values equal the quantized master.
/// let q = matic_fixed::quantize(model.master().weights()[0].get(0, 0), model.format());
/// assert_eq!(fw.layer(0).get(0, 0), q);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultedWeights {
    fmt: QFormat,
    layers: Vec<FxTensor>,
    biases: Vec<Vec<i32>>,
}

impl FaultedWeights {
    /// Composes the artifact by reading every parameter's storage word out
    /// of the physical array at its **current** operating point (one read
    /// per word; marginal cells flip to their preferred state exactly as
    /// they would under the accelerator's own fetches).
    ///
    /// # Panics
    ///
    /// Panics if the layout addresses banks or words outside the array.
    pub fn from_array(layout: &WeightLayout, fmt: QFormat, array: &mut SramArray) -> Self {
        Self::compose(layout, fmt, |_, loc| array.read(loc.bank, loc.word))
    }

    /// Composes the artifact from a word source: `word(param, loc)` is the
    /// storage word the hardware reads for `param` at `loc`. It is called
    /// once per parameter, in layer, row, column order with each row's
    /// bias after its weights.
    pub fn compose(
        layout: &WeightLayout,
        fmt: QFormat,
        mut word: impl FnMut(ParamRef, Location) -> u32,
    ) -> Self {
        let spec = layout.spec();
        let mut layers = Vec::with_capacity(spec.depth());
        let mut biases = Vec::with_capacity(spec.depth());
        let mut read = |param| fmt.decode(word(param, layout.location_of(param)));
        for layer in 0..spec.depth() {
            // Per-layer weight extent: dense (fan_out, fan_in), conv
            // (filters, kernel taps), pooling (0, 0) — parameterless
            // stages compose an empty tensor and read nothing.
            let (fan_out, fan_in) = spec.layer_spec(layer).weight_extent();
            let mut weights = FxTensor::zeros(fan_out, fan_in, fmt);
            let mut bias = Vec::with_capacity(fan_out);
            for row in 0..fan_out {
                for col in 0..fan_in {
                    weights.set(row, col, read(ParamRef::Weight { layer, row, col }));
                }
                bias.push(read(ParamRef::Bias { layer, row }));
            }
            layers.push(weights);
            biases.push(bias);
        }
        FaultedWeights {
            fmt,
            layers,
            biases,
        }
    }

    /// The weight format every raw value is expressed in.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// Number of parameterized layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer `l`'s weight tensor (`rows = fan_out`, `cols = fan_in`).
    pub fn layer(&self, l: usize) -> &FxTensor {
        &self.layers[l]
    }

    /// Layer `l`'s raw bias values.
    pub fn bias(&self, l: usize) -> &[i32] {
        &self.biases[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::{train_naive, MatConfig};
    use crate::upload_weights;
    use matic_nn::{NetSpec, Sample, SgdConfig};
    use matic_sram::{ArrayConfig, SramConfig, VminDistribution};

    fn toy_model() -> crate::TrainedModel {
        let spec = NetSpec::regressor(&[2, 4, 1]);
        let data: Vec<Sample> = (0..16)
            .map(|i| {
                let x = i as f64 / 16.0;
                Sample::new(vec![x, 1.0 - x], vec![0.3 * x + 0.2])
            })
            .collect();
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 4,
                ..SgdConfig::default()
            },
            ..MatConfig::paper()
        };
        train_naive(&spec, &data, &cfg, 4, 64)
    }

    fn array(seed: u64) -> SramArray {
        SramArray::synthesize(
            &ArrayConfig {
                banks: 4,
                bank: SramConfig {
                    words: 64,
                    word_bits: 16,
                    dist: VminDistribution::date2018(),
                },
            },
            seed,
        )
    }

    #[test]
    fn nominal_composition_equals_quantized_master() {
        let model = toy_model();
        let mut arr = array(3);
        upload_weights(&model, &mut arr);
        let fw = FaultedWeights::from_array(model.layout(), model.format(), &mut arr);
        let quantized = model.quantized();
        for l in 0..fw.depth() {
            for r in 0..fw.layer(l).rows() {
                for c in 0..fw.layer(l).cols() {
                    assert_eq!(fw.layer(l).to_f64(r, c), quantized.weights()[l].get(r, c));
                }
                assert_eq!(
                    matic_fixed::dequantize(fw.bias(l)[r], fw.format()),
                    quantized.biases()[l][r]
                );
            }
        }
    }

    #[test]
    fn overscaled_composition_matches_per_word_reads_and_is_stable() {
        let model = toy_model();
        let mut arr_a = array(7);
        let mut arr_b = array(7);
        upload_weights(&model, &mut arr_a);
        upload_weights(&model, &mut arr_b);
        arr_a.set_operating_point(0.46, 25.0);
        arr_b.set_operating_point(0.46, 25.0);

        let fw = FaultedWeights::from_array(model.layout(), model.format(), &mut arr_a);
        // Reference: raw per-word reads through the layout on the twin die.
        for (param, loc) in model.layout().entries() {
            let expect = model.format().decode(arr_b.read(loc.bank, loc.word));
            let got = match param {
                ParamRef::Weight { layer, row, col } => fw.layer(layer).get(row, col),
                ParamRef::Bias { layer, row } => fw.bias(layer)[row],
            };
            assert_eq!(got, expect, "mismatch at {param:?}");
        }
        // Re-composing at the settled operating point changes nothing.
        let again = FaultedWeights::from_array(model.layout(), model.format(), &mut arr_a);
        assert_eq!(fw, again);
    }
}
