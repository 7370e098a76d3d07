//! The Neural Processing Unit: eight MAC PEs in a systolic ring.
//!
//! Each PE owns a private voltage-scalable weight SRAM bank; inputs are
//! streamed to all PEs while each accumulates the dot product of the
//! neuron it currently owns; wide layers are time-multiplexed in groups of
//! eight neurons, with results drained through the AFU (§IV, Fig. 8).
//!
//! Weights are fetched from the **physical banks on every inference**, so
//! the read-disturb mechanics of `matic-sram` are exercised exactly as on
//! silicon: at overscaled voltages marginal cells flip to their preferred
//! state and the PE consumes the corrupted word.
//!
//! The simulator realizes those fetches in two bit-identical ways: the
//! per-MAC reference path ([`Snnac::execute_reference`]) reads a word per
//! multiply, while every other entry point composes the array's
//! post-disturb contents into a dense [`FaultedWeights`] artifact once
//! and runs the one batched interpreter
//! ([`Snnac::execute_batch_dropped`]) over it — a single inference is a
//! batch of one. Evaluation loops should compose once per operating
//! point and batch the whole test set.

use crate::afu::Afu;
use crate::microcode::{MicroOp, Program};
use matic_core::{FaultedWeights, ParamRef, WeightLayout};
use matic_fixed::{dequantize, narrow_lane, quantize_lane, Accumulator, Fx, QFormat};
use matic_nn::kernel::{fx_matmul, fx_matmul_dropped, MacDropSpec};
use matic_sram::SramArray;
use serde::{Deserialize, Serialize};

/// Cycle/traffic counters for one inference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NpuStats {
    /// Total clock cycles.
    pub cycles: u64,
    /// MAC operations performed (one per weight fetched).
    pub macs: u64,
    /// Weight-SRAM word reads.
    pub sram_reads: u64,
}

/// The systolic NPU core configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snnac {
    pes: usize,
    weight_fmt: QFormat,
    act_fmt: QFormat,
    afu: Afu,
    /// Pipeline fill/drain overhead charged per MACC group, cycles.
    group_overhead: u64,
}

impl Snnac {
    /// The fabricated configuration: 8 PEs, Q3.12 weights, Q1.14
    /// activations, 4-cycle group overhead (systolic fill/drain).
    #[allow(clippy::self_named_constructors)]
    pub fn snnac(weight_fmt: QFormat) -> Self {
        Snnac {
            pes: 8,
            weight_fmt,
            act_fmt: QFormat::snnac_activation(),
            afu: Afu::snnac(),
            group_overhead: 4,
        }
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pes
    }

    /// The weight format.
    pub fn weight_format(&self) -> QFormat {
        self.weight_fmt
    }

    /// The activation format.
    pub fn activation_format(&self) -> QFormat {
        self.act_fmt
    }

    /// The activation-function unit.
    pub fn afu(&self) -> &Afu {
        &self.afu
    }

    /// Executes a compiled program against the weight memories.
    ///
    /// `layout` maps each (layer, neuron, input) weight to its physical
    /// word; it must have been built for the same bank count as `array`.
    ///
    /// Internally this composes the array's current contents into a
    /// [`FaultedWeights`] artifact (one physical read per stored word —
    /// the same reads, in effect, that the per-MAC fetch loop would
    /// issue) and then runs the input as a batch of one. Outputs,
    /// statistics and the post-disturb array state are bit-identical to
    /// [`Snnac::execute_reference`]; callers evaluating many inputs at one
    /// operating point should compose once themselves and call
    /// [`Snnac::execute_batch`] directly.
    ///
    /// Returns the output activations (as reals) and cycle statistics.
    ///
    /// # Panics
    ///
    /// Panics if `input` width does not match the program's first layer or
    /// the layout disagrees with the array geometry.
    pub fn execute(
        &self,
        program: &Program,
        layout: &WeightLayout,
        array: &mut SramArray,
        input: &[f64],
    ) -> (Vec<f64>, NpuStats) {
        assert!(
            layout.banks() == array.bank_count(),
            "layout banks {} != array banks {}",
            layout.banks(),
            array.bank_count()
        );
        let weights = FaultedWeights::from_array(layout, self.weight_fmt, array);
        let (mut outputs, stats) = self.execute_batch(program, &weights, &[input]);
        (outputs.pop().expect("one output per input"), stats)
    }

    /// Executes a compiled program over fault-composed weight tensors for
    /// a whole batch of inputs: the path that never consults a fault map
    /// or weight memory inside the MAC loop.
    ///
    /// `weights` is the [`FaultedWeights`] artifact of the current
    /// (chip, voltage) operating point; compose it once per operating
    /// point and reuse it across the whole evaluation set. The MAC
    /// arithmetic is exact integer accumulation, so each sample's outputs
    /// are bit-identical to the per-MAC reference path and to any other
    /// batching of the same inputs.
    ///
    /// The returned [`NpuStats`] are **per-inference**: the modeled
    /// hardware runs the identical schedule for every sample regardless
    /// of the data (it still fetches every word), so the batch reports
    /// the counters every sample shares. An empty batch returns
    /// `(vec![], NpuStats::default())`.
    ///
    /// # Panics
    ///
    /// Panics if any input's width does not match the program's first
    /// layer or the artifact's shapes disagree with the program.
    pub fn execute_batch(
        &self,
        program: &Program,
        weights: &FaultedWeights,
        inputs: &[&[f64]],
    ) -> (Vec<Vec<f64>>, NpuStats) {
        self.execute_batch_dropped(program, weights, inputs, None)
    }

    /// [`Snnac::execute_batch`] with TE-Drop error injection: MACs
    /// flagged by `drops` contribute zero to the accumulation (their
    /// partial product is squashed by the Razor-style error path), while
    /// cycle and traffic accounting is unchanged — a dropped MAC still
    /// occupies its issue slot and its weight word is still fetched.
    /// Bias additions ride the short accumulator path and never drop.
    /// The verdict is a pure function of `(layer, row, col)` — never of
    /// the sample — so a flagged MAC squashes that weight's product in
    /// every sample lane. `drops = None` is exactly
    /// [`Snnac::execute_batch`].
    ///
    /// This is the simulator's one microcode interpreter. The whole
    /// pipeline stays in the raw integer domain with formats hoisted:
    /// activations live in lanes, `lanes[c·n + s]` holding element `c`
    /// of lane `s` out of `n`. A dense group is one [`fx_matmul`] over
    /// the sample lanes; a convolution is lowered im2col-style to one
    /// [`fx_matmul`] whose lanes are output positions × samples, so even
    /// a one-sample batch fills the lanes; pooling is a max over raw
    /// lanes (raw fixed-point order is value order).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Snnac::execute_batch`].
    pub fn execute_batch_dropped(
        &self,
        program: &Program,
        weights: &FaultedWeights,
        inputs: &[&[f64]],
        drops: Option<&MacDropSpec>,
    ) -> (Vec<Vec<f64>>, NpuStats) {
        let b = inputs.len();
        if b == 0 {
            return (Vec::new(), NpuStats::default());
        }
        // Quantize each input row through the activation format (the lane
        // quantizer is bit-identical to `Fx::from_f64`), then transpose
        // into sample lanes: current[c*b + s] holds input c of sample s.
        let width0 = inputs[0].len();
        let mut rows_raw: Vec<i32> = Vec::with_capacity(width0 * b);
        for input in inputs {
            assert_eq!(input.len(), width0, "ragged batch input widths");
            quantize_lane(input, self.act_fmt, &mut rows_raw);
        }
        let mut current = vec![0i32; width0 * b];
        for (s, row) in rows_raw.chunks_exact(width0.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                current[c * b + s] = v;
            }
        }
        let mut next: Vec<i32> = Vec::new();
        let mut fan_in = 0usize;
        let mut layer = 0usize;
        let mut activation = matic_nn::Activation::Sigmoid;
        let mut pending: Vec<i32> = Vec::new(); // narrowed group lanes
        let mut dots: Vec<i64> = Vec::new();

        for op in program.ops() {
            match *op {
                MicroOp::SetLayer {
                    layer: l,
                    fan_in: fi,
                    fan_out: fo,
                    activation: act,
                } => {
                    layer = l as usize;
                    fan_in = fi as usize;
                    activation = act;
                    next = Vec::with_capacity(fo as usize * b);
                }
                MicroOp::LoadInput => {
                    assert_eq!(
                        current.len(),
                        fan_in * b,
                        "input width mismatch at layer {layer}"
                    );
                }
                MicroOp::Macc {
                    neuron_base,
                    active,
                } => {
                    // The group's neurons are consecutive tensor rows, so
                    // the whole lock-step MACC is one lane matmul.
                    let tensor = weights.layer(layer);
                    let (base, group) = (neuron_base as usize, active as usize);
                    let rows =
                        &tensor.as_raw()[base * tensor.cols()..(base + group) * tensor.cols()];
                    dots.resize(group * b, 0);
                    match drops {
                        None => fx_matmul(rows, &current, b, &mut dots),
                        Some(d) => fx_matmul_dropped(rows, &current, b, &mut dots, d, layer, base),
                    }
                    let biases = &weights.bias(layer)[base..base + group];
                    self.bias_and_narrow(&mut dots, biases, &mut pending);
                }
                MicroOp::Activate => {
                    self.afu.apply_lane_raw(activation, &pending, &mut next);
                    pending.clear();
                }
                MicroOp::StoreOutput => {
                    std::mem::swap(&mut current, &mut next);
                    next.clear();
                }
                MicroOp::Conv {
                    layer: l,
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    activation: act,
                } => {
                    let layer = l as usize;
                    let (in_h, in_w, in_c) = (in_h as usize, in_w as usize, in_c as usize);
                    let (filters, kernel) = (filters as usize, kernel as usize);
                    let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
                    let lanes = out_h * out_w * b;
                    assert_eq!(
                        current.len(),
                        in_h * in_w * in_c * b,
                        "input width mismatch at layer {layer}"
                    );
                    // im2col: patch row (ky, kx, c) — the weight-column
                    // order — holds that tap for every (position, sample)
                    // lane.
                    let mut patches = Vec::with_capacity(kernel * kernel * in_c * lanes);
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            for c in 0..in_c {
                                for oy in 0..out_h {
                                    for ox in 0..out_w {
                                        let src = (((oy + ky) * in_w + ox + kx) * in_c + c) * b;
                                        patches.extend_from_slice(&current[src..src + b]);
                                    }
                                }
                            }
                        }
                    }
                    let rows = weights.layer(layer).as_raw();
                    dots.resize(filters * lanes, 0);
                    match drops {
                        None => fx_matmul(rows, &patches, lanes, &mut dots),
                        Some(d) => fx_matmul_dropped(rows, &patches, lanes, &mut dots, d, layer, 0),
                    }
                    self.bias_and_narrow(&mut dots, weights.bias(layer), &mut pending);
                    let mut maps = Vec::with_capacity(filters * lanes);
                    self.afu.apply_lane_raw(act, &pending, &mut maps);
                    pending.clear();
                    // Scatter filter-major maps into (position, filter)
                    // element order.
                    current.resize(filters * lanes, 0);
                    for (f, map) in maps.chunks_exact(lanes).enumerate() {
                        for (p, samples) in map.chunks_exact(b).enumerate() {
                            let dst = (p * filters + f) * b;
                            current[dst..dst + b].copy_from_slice(samples);
                        }
                    }
                }
                MicroOp::Pool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    let (in_h, in_w) = (in_h as usize, in_w as usize);
                    let (channels, window) = (channels as usize, window as usize);
                    let (out_h, out_w) = (in_h / window, in_w / window);
                    assert_eq!(
                        current.len(),
                        in_h * in_w * channels * b,
                        "input width mismatch at pool"
                    );
                    let mut out = Vec::with_capacity(out_h * out_w * channels * b);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for c in 0..channels {
                                let at = |ky: usize, kx: usize| {
                                    (((oy * window + ky) * in_w + ox * window + kx) * channels + c)
                                        * b
                                };
                                // Raw fixed-point max is value max.
                                let dst = out.len();
                                out.extend_from_slice(&current[at(0, 0)..at(0, 0) + b]);
                                for ky in 0..window {
                                    for kx in 0..window {
                                        let src = &current[at(ky, kx)..at(ky, kx) + b];
                                        for (best, &v) in out[dst..].iter_mut().zip(src) {
                                            *best = (*best).max(v);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    current = out;
                }
            }
        }
        let fan_out = current.len() / b;
        let outputs = (0..b)
            .map(|s| {
                (0..fan_out)
                    .map(|c| dequantize(current[c * b + s], self.act_fmt))
                    .collect()
            })
            .collect();
        (outputs, self.cost(program))
    }

    /// Folds each row's bias into its run of `dots` lanes, then narrows
    /// the wide accumulators to the AFU input format, appending to `out`
    /// (bit-identical to the per-value `Accumulator::narrow_from` chain).
    fn bias_and_narrow(&self, dots: &mut [i64], biases: &[i32], out: &mut Vec<i32>) {
        let act_frac = self.act_fmt.frac_bits();
        let lanes = dots.len() / biases.len();
        for (row, &bias) in dots.chunks_exact_mut(lanes).zip(biases) {
            let bias_raw = (bias as i64) << act_frac;
            for dot in row {
                *dot += bias_raw;
            }
        }
        narrow_lane(
            dots,
            self.weight_fmt,
            act_frac,
            self.afu.input_format(),
            out,
        );
    }

    /// The per-inference cycle and traffic counters of `program`. The
    /// schedule is static microcode and every weight word is fetched
    /// whatever the data, so the counters depend on the program alone.
    fn cost(&self, program: &Program) -> NpuStats {
        let mut stats = NpuStats::default();
        let (mut fan_in, mut pending) = (0u64, 0u64);
        for op in program.ops() {
            match *op {
                MicroOp::SetLayer { fan_in: fi, .. } => fan_in = fi as u64,
                // Streaming the input vector costs one cycle per element.
                MicroOp::LoadInput => stats.cycles += fan_in,
                MicroOp::Macc { active, .. } => {
                    // All active PEs run in lock-step: fan_in MAC cycles,
                    // one bias-fetch cycle, plus fill/drain overhead; each
                    // PE fetches its fan_in weights and one bias word.
                    pending = active as u64;
                    stats.cycles += fan_in + 1 + self.group_overhead;
                    stats.macs += pending * fan_in;
                    stats.sram_reads += pending * (fan_in + 1);
                }
                // The AFU drains one value per cycle.
                MicroOp::Activate => stats.cycles += std::mem::take(&mut pending),
                MicroOp::StoreOutput => stats.cycles += 1,
                MicroOp::Conv {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    ..
                } => {
                    let (in_h, in_w, in_c) = (in_h as u64, in_w as u64, in_c as u64);
                    let (filters, kernel) = (filters as u64, kernel as u64);
                    let positions = (in_h + 1 - kernel) * (in_w + 1 - kernel);
                    let k2c = kernel * kernel * in_c;
                    // Stream the feature map in; each output position runs
                    // the filter set like one dense neuron group,
                    // time-multiplexed over the ring; the AFU drains one
                    // value per output element, then one store.
                    let groups = filters.div_ceil(self.pes as u64);
                    stats.cycles += in_h * in_w * in_c
                        + positions * groups * (k2c + 1 + self.group_overhead)
                        + positions * filters
                        + 1;
                    stats.macs += positions * filters * k2c;
                    stats.sram_reads += positions * filters * (k2c + 1);
                }
                MicroOp::Pool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    let (in_h, in_w, channels) = (in_h as u64, in_w as u64, channels as u64);
                    let window = window as u64;
                    // Streaming comparator tree: one cycle per input
                    // element scanned, one per output drained, one store.
                    stats.cycles +=
                        in_h * in_w * channels + (in_h / window) * (in_w / window) * channels + 1;
                }
            }
        }
        stats
    }

    /// The per-MAC reference path: locate, fetch and decode every weight
    /// word inside the MAC loop, one SRAM read per multiply.
    ///
    /// Kept as the **bit-exactness oracle**: parity tests drive this and
    /// the batched interpreter over the same inputs and assert identical
    /// outputs, statistics and post-disturb array state. It counts its
    /// statistics inline, MAC by MAC, so it also checks the static cost
    /// model. It is not a hot path — use [`Snnac::execute`] or
    /// [`Snnac::execute_batch`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Snnac::execute`].
    pub fn execute_reference(
        &self,
        program: &Program,
        layout: &WeightLayout,
        array: &mut SramArray,
        input: &[f64],
    ) -> (Vec<f64>, NpuStats) {
        self.execute_reference_dropped(program, layout, array, input, None)
    }

    /// [`Snnac::execute_reference`] with TE-Drop error injection: the
    /// per-MAC oracle for [`Snnac::execute_batch_dropped`]. A dropped
    /// MAC still fetches its weight word (the read-disturb side effect
    /// and traffic accounting happen either way) but its product is
    /// squashed before the accumulator.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Snnac::execute_reference`].
    pub fn execute_reference_dropped(
        &self,
        program: &Program,
        layout: &WeightLayout,
        array: &mut SramArray,
        input: &[f64],
        drops: Option<&MacDropSpec>,
    ) -> (Vec<f64>, NpuStats) {
        assert!(
            layout.banks() == array.bank_count(),
            "layout banks {} != array banks {}",
            layout.banks(),
            array.bank_count()
        );
        let mut stats = NpuStats::default();
        // The input FIFO holds the current layer's inputs (activation fmt).
        let mut current: Vec<Fx> = input
            .iter()
            .map(|&x| Fx::from_f64(x, self.act_fmt))
            .collect();
        let mut next: Vec<Fx> = Vec::new();
        let mut fan_in = 0usize;
        let mut layer = 0usize;
        let mut activation = matic_nn::Activation::Sigmoid;
        let mut pending: Vec<Fx> = Vec::new(); // accumulator-drained group

        for op in program.ops() {
            match *op {
                MicroOp::SetLayer {
                    layer: l,
                    fan_in: fi,
                    fan_out: fo,
                    activation: act,
                } => {
                    layer = l as usize;
                    fan_in = fi as usize;
                    activation = act;
                    next = Vec::with_capacity(fo as usize);
                }
                MicroOp::LoadInput => {
                    assert_eq!(
                        current.len(),
                        fan_in,
                        "input width mismatch at layer {layer}"
                    );
                    // Streaming the input vector costs one cycle per element.
                    stats.cycles += fan_in as u64;
                }
                MicroOp::Macc {
                    neuron_base,
                    active,
                } => {
                    // All active PEs run in lock-step: fan_in MAC cycles,
                    // one bias-fetch cycle, plus fill/drain overhead.
                    stats.cycles += fan_in as u64 + 1 + self.group_overhead;
                    pending.clear();
                    for pe in 0..active as usize {
                        let neuron = neuron_base as usize + pe;
                        let mut acc = Accumulator::new();
                        for (col, x) in current.iter().enumerate() {
                            let loc = layout.location_of(ParamRef::Weight {
                                layer,
                                row: neuron,
                                col,
                            });
                            let word = array.read(loc.bank, loc.word);
                            let w = Fx::from_word(word, self.weight_fmt);
                            if !drops.is_some_and(|d| d.dropped(layer, neuron, col)) {
                                acc.mac(w, *x);
                            }
                            stats.sram_reads += 1;
                            stats.macs += 1;
                        }
                        let loc = layout.location_of(ParamRef::Bias { layer, row: neuron });
                        let word = array.read(loc.bank, loc.word);
                        let bias = Fx::from_word(word, self.weight_fmt);
                        acc.add_bias(bias, self.act_fmt);
                        stats.sram_reads += 1;
                        // Narrow the wide accumulator to the AFU input.
                        pending.push(acc.narrow_from(
                            self.weight_fmt,
                            self.act_fmt.frac_bits(),
                            self.afu.input_format(),
                        ));
                    }
                }
                MicroOp::Activate => {
                    // The AFU drains one value per cycle.
                    stats.cycles += pending.len() as u64;
                    for z in pending.drain(..) {
                        next.push(self.afu.apply(activation, z));
                    }
                }
                MicroOp::StoreOutput => {
                    stats.cycles += 1;
                    current = std::mem::take(&mut next);
                }
                MicroOp::Conv {
                    layer: l,
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    activation: act,
                } => {
                    let layer = l as usize;
                    let (in_h, in_w, in_c) = (in_h as usize, in_w as usize, in_c as usize);
                    let (filters, kernel) = (filters as usize, kernel as usize);
                    let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
                    let k2c = kernel * kernel * in_c;
                    let in_width = in_h * in_w * in_c;
                    assert_eq!(
                        current.len(),
                        in_width,
                        "input width mismatch at layer {layer}"
                    );
                    stats.cycles += in_width as u64;
                    let groups = filters.div_ceil(self.pes) as u64;
                    let mut out = Vec::with_capacity(out_h * out_w * filters);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            stats.cycles += groups * (k2c as u64 + 1 + self.group_overhead);
                            for f in 0..filters {
                                let mut acc = Accumulator::new();
                                // Taps in (ky, kx, c) order = weight
                                // columns; every word is fetched inside
                                // the MAC loop, one SRAM read per
                                // multiply, exactly like the dense oracle.
                                let mut col = 0;
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        let base = ((oy + ky) * in_w + (ox + kx)) * in_c;
                                        for c in 0..in_c {
                                            let loc = layout.location_of(ParamRef::Weight {
                                                layer,
                                                row: f,
                                                col,
                                            });
                                            let word = array.read(loc.bank, loc.word);
                                            let w = Fx::from_word(word, self.weight_fmt);
                                            if !drops.is_some_and(|d| d.dropped(layer, f, col)) {
                                                acc.mac(w, current[base + c]);
                                            }
                                            stats.sram_reads += 1;
                                            stats.macs += 1;
                                            col += 1;
                                        }
                                    }
                                }
                                let loc = layout.location_of(ParamRef::Bias { layer, row: f });
                                let word = array.read(loc.bank, loc.word);
                                let bias = Fx::from_word(word, self.weight_fmt);
                                acc.add_bias(bias, self.act_fmt);
                                stats.sram_reads += 1;
                                let z = acc.narrow_from(
                                    self.weight_fmt,
                                    self.act_fmt.frac_bits(),
                                    self.afu.input_format(),
                                );
                                out.push(self.afu.apply(act, z));
                            }
                        }
                    }
                    stats.cycles += (out_h * out_w * filters) as u64 + 1;
                    current = out;
                }
                MicroOp::Pool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    let (in_h, in_w) = (in_h as usize, in_w as usize);
                    let (channels, window) = (channels as usize, window as usize);
                    let (out_h, out_w) = (in_h / window, in_w / window);
                    let in_width = in_h * in_w * channels;
                    assert_eq!(current.len(), in_width, "input width mismatch at pool");
                    let mut out = Vec::with_capacity(out_h * out_w * channels);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for c in 0..channels {
                                let mut best =
                                    current[((oy * window) * in_w + ox * window) * channels + c];
                                for ky in 0..window {
                                    for kx in 0..window {
                                        let v = current[((oy * window + ky) * in_w
                                            + (ox * window + kx))
                                            * channels
                                            + c];
                                        if v.raw() > best.raw() {
                                            best = v;
                                        }
                                    }
                                }
                                out.push(best);
                            }
                        }
                    }
                    stats.cycles += (in_width + out_h * out_w * channels) as u64 + 1;
                    current = out;
                }
            }
        }
        (current.iter().map(|fx| fx.to_f64()).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_core::{train_naive, MatConfig};
    use matic_nn::{NetSpec, Sample, SgdConfig};
    use matic_sram::{ArrayConfig, SramConfig, VminDistribution};

    fn array(banks: usize, words: usize, seed: u64) -> SramArray {
        SramArray::synthesize(
            &ArrayConfig {
                banks,
                bank: SramConfig {
                    words,
                    word_bits: 16,
                    dist: VminDistribution::date2018(),
                },
            },
            seed,
        )
    }

    /// Uploads a model and runs both the float reference and the NPU.
    fn run_both(spec: &NetSpec, input: &[f64], seed: u64) -> (Vec<f64>, Vec<f64>, NpuStats) {
        let data: Vec<Sample> = (0..32)
            .map(|i| {
                let x = i as f64 / 32.0;
                Sample::new(
                    vec![x; spec.layers[0]],
                    vec![0.5; *spec.layers.last().unwrap()],
                )
            })
            .collect();
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 5,
                ..SgdConfig::default()
            },
            ..MatConfig::paper()
        };
        let model = train_naive(spec, &data, &cfg, 8, 576);
        let mut arr = array(8, 576, seed);
        matic_core::upload_weights(&model, &mut arr);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(spec, npu.pe_count());
        let (out, stats) = npu.execute(&program, model.layout(), &mut arr, input);
        let reference = model.quantized().forward(input);
        (out, reference, stats)
    }

    #[test]
    fn matches_float_reference_small_net() {
        let spec = NetSpec::classifier(&[4, 6, 3]);
        let (out, reference, _) = run_both(&spec, &[0.2, 0.8, 0.1, 0.5], 3);
        for (a, b) in out.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 0.01,
                "NPU {a} vs reference {b} (fixed-point tolerance)"
            );
        }
    }

    #[test]
    fn matches_float_reference_wide_layer() {
        // Wider than the PE ring: exercises time multiplexing.
        let spec = NetSpec::classifier(&[10, 20, 4]);
        let input: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let (out, reference, _) = run_both(&spec, &input, 5);
        assert_eq!(out.len(), 4);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 0.01, "NPU {a} vs reference {b}");
        }
    }

    #[test]
    fn regression_linear_output() {
        let spec = NetSpec::regressor(&[2, 8, 2]);
        let (out, reference, _) = run_both(&spec, &[0.3, 0.6], 7);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 0.01, "NPU {a} vs reference {b}");
        }
    }

    #[test]
    fn cycle_accounting_matches_model() {
        let spec = NetSpec::classifier(&[100, 32, 10]);
        let input = vec![0.1; 100];
        let (_, _, stats) = run_both(&spec, &input, 9);
        // Layer 1: load 100 + 4 groups × (100 + 1 + 4) + 32 AFU + 1 store.
        // Layer 2: load 32 + 2 groups × (32 + 1 + 4) + 10 AFU + 1 store.
        let expect = (100 + 4 * 105 + 32 + 1) + (32 + 2 * 37 + 10 + 1);
        assert_eq!(stats.cycles, expect as u64);
        // MACs: 100×32 + 32×10; reads add one bias word per neuron.
        assert_eq!(stats.macs, 100 * 32 + 32 * 10);
        assert_eq!(stats.sram_reads, stats.macs + 32 + 10);
    }

    /// Trains a small dense model and uploads it.
    fn dense_fixture(seed: u64) -> (NetSpec, matic_core::TrainedModel, SramArray) {
        let spec = NetSpec::classifier(&[9, 14, 3]);
        let data: Vec<Sample> = (0..16)
            .map(|i| Sample::new(vec![i as f64 / 16.0; 9], vec![0.5; 3]))
            .collect();
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 3,
                ..SgdConfig::default()
            },
            ..MatConfig::paper()
        };
        let model = train_naive(&spec, &data, &cfg, 8, 576);
        let mut arr = array(8, 576, seed);
        matic_core::upload_weights(&model, &mut arr);
        (spec, model, arr)
    }

    /// Seven probe inputs of width `n`.
    fn probes(n: usize) -> Vec<Vec<f64>> {
        (0..7)
            .map(|s| {
                (0..n)
                    .map(|c| ((s * 17 + c * 5) % 23) as f64 / 23.0 - 0.3)
                    .collect()
            })
            .collect()
    }

    /// The batched interpreter at batch sizes 1, 2, 3 and 7, with and
    /// without MAC drops, must reproduce the per-MAC oracle's outputs and
    /// statistics for every sample.
    fn assert_batches_match_oracle(
        model: &matic_core::TrainedModel,
        arr: &mut SramArray,
        inputs: &[Vec<f64>],
    ) {
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(model.master().spec(), npu.pe_count());
        let weights = FaultedWeights::from_array(model.layout(), model.format(), arr);
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let drops = MacDropSpec::new(55, 0.25);
        for d in [None, Some(&drops)] {
            for b in [1usize, 2, 3, 7] {
                let (batched, bstats) =
                    npu.execute_batch_dropped(&program, &weights, &refs[..b], d);
                assert_eq!(batched.len(), b);
                for (input, out) in refs[..b].iter().zip(&batched) {
                    let (oracle, ostats) =
                        npu.execute_reference_dropped(&program, model.layout(), arr, input, d);
                    assert_eq!(out, &oracle, "batch {b} drops {}", d.is_some());
                    // Stats are data-independent: the batch reports the
                    // per-inference counters every sample shares.
                    assert_eq!(bstats, ostats, "batch {b} drops {}", d.is_some());
                }
            }
        }
        let (empty, stats) = npu.execute_batch(&program, &weights, &[]);
        assert!(empty.is_empty());
        assert_eq!(stats, NpuStats::default());
    }

    #[test]
    fn dropped_paths_agree_and_none_is_identity() {
        let (spec, model, mut arr) = dense_fixture(13);
        let input: Vec<f64> = (0..9).map(|i| i as f64 / 9.0 - 0.4).collect();
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(&spec, npu.pe_count());
        let drops = MacDropSpec::new(77, 0.3);
        let weights = FaultedWeights::from_array(model.layout(), model.format(), &mut arr);
        let (dropped, dstats) =
            npu.execute_batch_dropped(&program, &weights, &[&input], Some(&drops));
        let (reference, rstats) =
            npu.execute_reference_dropped(&program, model.layout(), &mut arr, &input, Some(&drops));
        assert_eq!(
            dropped[0], reference,
            "dropped paths must agree bit-exactly"
        );
        assert_eq!(dstats, rstats, "a dropped MAC still occupies its slot");

        // With no drop spec the dropped entry point is the plain path.
        let (plain, _) = npu.execute_batch(&program, &weights, &[&input]);
        let (none, _) = npu.execute_batch_dropped(&program, &weights, &[&input], None);
        assert_eq!(plain, none);
        assert_ne!(plain, dropped, "a 30 % drop rate must perturb the output");
    }

    #[test]
    fn batched_execute_matches_per_sample_outputs_and_stats() {
        let (_, model, mut arr) = dense_fixture(17);
        assert_batches_match_oracle(&model, &mut arr, &probes(9));
    }

    #[test]
    fn overscaled_reads_perturb_output() {
        let spec = NetSpec::classifier(&[8, 12, 3]);
        let input = vec![0.5; 8];
        let data: Vec<Sample> = (0..16)
            .map(|i| Sample::new(vec![i as f64 / 16.0; 8], vec![0.5; 3]))
            .collect();
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 3,
                ..SgdConfig::default()
            },
            ..MatConfig::paper()
        };
        let model = train_naive(&spec, &data, &cfg, 8, 576);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(&spec, npu.pe_count());

        let mut arr = array(8, 576, 21);
        matic_core::upload_weights(&model, &mut arr);
        let (clean, _) = npu.execute(&program, model.layout(), &mut arr, &input);

        // Re-upload, overscale hard, run again: outputs should differ
        // (46 % of cells sit past their Vmin at 0.46 V).
        arr.set_operating_point(0.9, 25.0);
        matic_core::upload_weights(&model, &mut arr);
        arr.set_operating_point(0.46, 25.0);
        let (noisy, _) = npu.execute(&program, model.layout(), &mut arr, &input);
        assert_ne!(clean, noisy, "overscaling must corrupt the weight stream");
    }

    /// Trains a small conv-pool-dense model and uploads it.
    fn conv_fixture(seed: u64) -> (NetSpec, matic_core::TrainedModel, SramArray) {
        let spec = NetSpec::parse_topology("6x6x1;conv3x4;pool2;dense3").unwrap();
        let data: Vec<Sample> = (0..12)
            .map(|i| {
                Sample::new(
                    (0..36)
                        .map(|c| ((i * 13 + c * 5) % 31) as f64 / 31.0)
                        .collect(),
                    vec![0.5; 3],
                )
            })
            .collect();
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 3,
                ..SgdConfig::default()
            },
            ..MatConfig::paper()
        };
        let model = train_naive(&spec, &data, &cfg, 8, 576);
        let mut arr = array(8, 576, seed);
        matic_core::upload_weights(&model, &mut arr);
        (spec, model, arr)
    }

    #[test]
    fn conv_chain_paths_agree_bit_exactly() {
        let (spec, model, mut arr) = conv_fixture(23);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(&spec, npu.pe_count());
        let weights = FaultedWeights::from_array(model.layout(), model.format(), &mut arr);
        let input: Vec<f64> = (0..36)
            .map(|i| ((i * 7 + 3) % 29) as f64 / 29.0 - 0.35)
            .collect();

        for drops in [None, Some(MacDropSpec::new(91, 0.2))] {
            let d = drops.as_ref();
            let (batched, bstats) = npu.execute_batch_dropped(&program, &weights, &[&input], d);
            let (reference, rstats) =
                npu.execute_reference_dropped(&program, model.layout(), &mut arr, &input, d);
            assert_eq!(batched[0], reference, "conv batch of one vs per-MAC oracle");
            assert_eq!(bstats, rstats, "conv traffic/cycle model must match");
        }

        // The quantized float model agrees to fixed-point/AFU tolerance.
        let (out, _) = npu.execute(&program, model.layout(), &mut arr, &input);
        let reference = model.quantized().forward(&input);
        assert_eq!(out.len(), 3);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 0.05, "NPU {a} vs quantized reference {b}");
        }
    }

    #[test]
    fn conv_cycle_accounting_matches_model() {
        let (spec, model, mut arr) = conv_fixture(27);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(&spec, npu.pe_count());
        let input: Vec<f64> = (0..36).map(|i| i as f64 / 36.0).collect();
        let (_, stats) = npu.execute(&program, model.layout(), &mut arr, &input);
        // Conv 6x6x1 → 4x4x4 with 3x3 taps: load 36, 16 positions × 1
        // group × (9 + 1 + 4), 64 AFU drains, 1 store.
        let conv = 36 + 16 * (9 + 1 + 4) + 64 + 1;
        // Pool 4x4x4 → 2x2x4: 64 scans + 16 drains + 1 store.
        let pool = 64 + 16 + 1;
        // Dense 16 → 3: load 16, 1 group × (16 + 1 + 4), 3 AFU, 1 store.
        let dense = 16 + (16 + 1 + 4) + 3 + 1;
        assert_eq!(stats.cycles, (conv + pool + dense) as u64);
        // MACs: 16 positions × 4 filters × 9 taps + 16×3 dense; reads add
        // one bias word per (position, filter) and per dense neuron.
        assert_eq!(stats.macs, 16 * 4 * 9 + 16 * 3);
        assert_eq!(stats.sram_reads, stats.macs + 16 * 4 + 3);
    }

    #[test]
    fn batched_conv_chain_matches_per_sample() {
        let (_, model, mut arr) = conv_fixture(31);
        assert_batches_match_oracle(&model, &mut arr, &probes(36));
    }
}
