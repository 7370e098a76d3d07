//! Memory-adaptive training (paper §III-B, Fig. 4).

use crate::layout::{ParamRef, WeightLayout};
use crate::quantizer::ComposedQuantizer;
use matic_fixed::{quantize, QFormat};
use matic_nn::{
    momentum_steps, BatchScratch, Gradients, Mlp, MomentumState, NetSpec, Sample, SgdConfig,
};
use matic_sram::FaultMap;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which master-weight update rule the trainer applies (an ablation of
/// the paper's ambiguous εq definition; see [`MatTrainer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateRule {
    /// `w ← w − α·∂J/∂m`: εq is the *full* residual `w − m`, so the float
    /// master is preserved ("in effect performing floating point
    /// training", §III-B). The default, and the variant that can traverse
    /// stuck-high code regions.
    FloatMaster,
    /// `w ← m − α·∂J/∂m + (w − Q(w))`: εq is only the sub-LSB fractional
    /// error from the quantize step (the literal reading of Fig. 4), so
    /// the master is re-seeded from the masked value every step. Kept as
    /// an ablation: weights with stuck high-order bits become trapped in
    /// the stuck basin (see the `ablation_update_rule` bench).
    ResetToMasked,
}

/// Configuration of a memory-adaptive training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatConfig {
    /// SGD hyperparameters (shared with the naive baseline for fairness,
    /// as in the paper: "baseline and memory-adaptive models use the same
    /// DNN model topologies … memory-adaptive training modifications are
    /// disabled for the naive case").
    pub sgd: SgdConfig,
    /// Fixed-point weight format (the SRAM word).
    pub weight_fmt: QFormat,
    /// Weight-initialization seed.
    pub init_seed: u64,
    /// Mini-batch shuffling seed.
    pub shuffle_seed: u64,
    /// Number of independent restarts (init seeds `init_seed + i`); the
    /// run with the lowest masked-view training loss wins. Small networks
    /// training around heavy fault maps occasionally fall into poor
    /// minima; a handful of deterministic restarts recovers them.
    pub restarts: usize,
    /// Master-weight update rule (ablation knob; keep the default).
    pub update_rule: UpdateRule,
}

impl MatConfig {
    /// Full-quality settings for experiment reproduction.
    pub fn paper() -> Self {
        MatConfig {
            sgd: SgdConfig {
                lr: 0.1,
                lr_decay: 0.985,
                momentum: 0.9,
                batch_size: 8,
                epochs: 40,
            },
            weight_fmt: QFormat::snnac_weight(),
            init_seed: 0xA11CE,
            shuffle_seed: 0xB0B,
            restarts: 1,
            update_rule: UpdateRule::FloatMaster,
        }
    }

    /// Reduced-epoch settings for tests and doc examples.
    pub fn quick() -> Self {
        MatConfig {
            sgd: SgdConfig {
                epochs: 12,
                ..Self::paper().sgd
            },
            ..Self::paper()
        }
    }

    /// Stable 128-bit content fingerprint of the full training recipe
    /// (SGD hyperparameters, weight format, seeds, restarts, update
    /// rule). Any knob that can change a trained model changes the
    /// digest, which is how the sweep cache invalidates cells when the
    /// trainer or quantizer configuration moves.
    pub fn fingerprint(&self) -> u128 {
        let mut f = matic_sram::fingerprint::Fingerprint::new();
        f.write_str("matic.mat-config/v1");
        f.write_u128(matic_sram::fingerprint::fingerprint_of(self));
        f.finish()
    }
}

impl Default for MatConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A trained model: float master weights plus the format/layout needed to
/// view it as the hardware would.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    master: Mlp,
    fmt: QFormat,
    layout: WeightLayout,
}

impl TrainedModel {
    /// Wraps externally trained float weights (used for naive baselines).
    pub fn from_master(master: Mlp, fmt: QFormat, layout: WeightLayout) -> Self {
        TrainedModel {
            master,
            fmt,
            layout,
        }
    }

    /// The float master network.
    pub fn master(&self) -> &Mlp {
        &self.master
    }

    /// The weight format.
    pub fn format(&self) -> QFormat {
        self.fmt
    }

    /// The SRAM placement.
    pub fn layout(&self) -> &WeightLayout {
        &self.layout
    }

    /// The storage word of `param`: its float master quantized and
    /// encoded in the model's weight format, exactly what
    /// [`upload_weights`](crate::upload_weights) writes to its location.
    pub fn stored_word(&self, param: ParamRef) -> u32 {
        let v = match param {
            ParamRef::Weight { layer, row, col } => self.master.weights()[layer].get(row, col),
            ParamRef::Bias { layer, row } => self.master.biases()[layer][row],
        };
        self.fmt.encode(quantize(v, self.fmt))
    }

    /// The deployed view: weights quantized and, if a fault map is given,
    /// stuck bits applied — exactly what the accelerator reads at the
    /// overscaled voltage.
    pub fn deploy_with(&self, faults: Option<&FaultMap>) -> Mlp {
        ComposedQuantizer::new(self.fmt, &self.layout, faults).effective(&self.master)
    }

    /// The deployed view under a fault map.
    pub fn deploy(&self, faults: &FaultMap) -> Mlp {
        self.deploy_with(Some(faults))
    }

    /// The quantized, fault-free view (nominal-voltage deployment).
    pub fn quantized(&self) -> Mlp {
        self.deploy_with(None)
    }
}

/// Reusable training-step buffers: the effective (masked) network, the
/// batch gradients, and the forward/backward scratch. One set per
/// training run keeps the step loop allocation-free.
///
/// `effective` is always the quantized, masked view of the current
/// masters: it is derived once when the buffers are made, and every step
/// re-derives it in the same pass that updates the masters.
struct StepBuffers {
    effective: Mlp,
    grads: Gradients,
    scratch: BatchScratch,
}

impl StepBuffers {
    fn for_net(net: &Mlp, quant: &ComposedQuantizer) -> Self {
        StepBuffers {
            effective: quant.effective(net),
            grads: Gradients::zeros_like(net),
            scratch: BatchScratch::default(),
        }
    }
}

/// The memory-adaptive trainer.
///
/// Each step (Fig. 4):
/// 1. quantize master weights and apply the profiled OR/AND masks →
///    effective network `m = Bor | (Band & Q(w))`;
/// 2. forward + backward pass **on `m`**, so the propagated error reflects
///    the bit-errors;
/// 3. update the float masters: `w[n+1] = m[n] − α·∂J/∂m[n] + εq`, with
///    the full residual `εq = w[n] − m[n]` preserved, which simplifies to
///    `w ← w − α·∂J/∂m` — the paper's "in effect performing floating
///    point training to enable gradual weight-updates that occur over
///    multiple backprop iterations" (§III-B).
///
/// Step 3 and the next step's step 1 are one pass: each layer's masters
/// are updated and re-quantized into `m` while they are in cache, so a
/// run quantizes the whole network separately only once, before its
/// first step. The bits are those of running the three steps apart.
///
/// Preserving the whole residual (not just the sub-LSB part) matters:
/// resetting masters to the masked value every step would trap any weight
/// whose word has a stuck *high-order* bit — the master could never
/// traverse the unreachable code region between the stuck-high basin
/// (e.g. +4…+8) and the compensating one (−4…0), because each step would
/// yank it back. Float masters traverse freely while the forward/backward
/// pass still sees exactly what the hardware would read.
#[derive(Debug, Clone)]
pub struct MatTrainer {
    spec: NetSpec,
    cfg: MatConfig,
}

impl MatTrainer {
    /// Creates a trainer for the given topology.
    pub fn new(spec: NetSpec, cfg: MatConfig) -> Self {
        MatTrainer { spec, cfg }
    }

    /// The topology this trainer trains.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The training recipe.
    pub fn config(&self) -> &MatConfig {
        &self.cfg
    }

    /// Runs memory-adaptive training against a profiled fault map. With
    /// `cfg.restarts > 1`, trains that many independently initialized
    /// candidates and keeps the one whose **masked view** attains the
    /// lowest training loss (deterministic: seeds are `init_seed + i`).
    ///
    /// # Panics
    ///
    /// Panics if the topology does not fit the fault map's geometry.
    pub fn train(&self, data: &[Sample], faults: &FaultMap) -> TrainedModel {
        let bank0 = &faults.banks()[0];
        let layout = WeightLayout::new(&self.spec, faults.banks().len(), bank0.words())
            .expect("network must fit the weight memories");
        // Compose the fault map into dense per-layer masks once; every
        // training step then runs mask-application as a flat sweep.
        let quant = ComposedQuantizer::new(self.cfg.weight_fmt, &layout, Some(faults));
        let mut best: Option<(f64, Mlp)> = None;
        for restart in 0..self.cfg.restarts.max(1) {
            let (master, effective) = self.train_once(data, &quant, restart as u64);
            let loss = effective.mean_loss(data);
            if best.as_ref().is_none_or(|(b, _)| loss < *b) {
                best = Some((loss, master));
            }
        }
        TrainedModel {
            master: best.expect("at least one restart").1,
            fmt: self.cfg.weight_fmt,
            layout,
        }
    }

    /// One restart: the trained masters and their effective view.
    fn train_once(&self, data: &[Sample], quant: &ComposedQuantizer, restart: u64) -> (Mlp, Mlp) {
        let mut master = Mlp::init(self.spec.clone(), self.cfg.init_seed + restart);
        let mut momentum = MomentumState::zeros_like(&master);
        let mut bufs = StepBuffers::for_net(&master, quant);
        let mut rng = StdRng::seed_from_u64(self.cfg.shuffle_seed + restart);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut lr = self.cfg.sgd.lr;
        for _ in 0..self.cfg.sgd.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.sgd.batch_size.max(1)) {
                self.step_indexed(
                    &mut master,
                    quant,
                    data,
                    chunk,
                    lr,
                    &mut momentum,
                    &mut bufs,
                );
            }
            lr *= self.cfg.sgd.lr_decay;
        }
        (master, bufs.effective)
    }

    /// One MAT update step on a mini-batch (exposed for tests and custom
    /// training loops): backprop through the masked/quantized view, apply
    /// the update to the float masters (see the type-level discussion of
    /// the εq algebra).
    pub fn step(
        &self,
        master: &mut Mlp,
        quant: &ComposedQuantizer,
        batch: &[Sample],
        lr: f64,
        momentum: &mut MomentumState,
    ) {
        let indices: Vec<usize> = (0..batch.len()).collect();
        let mut bufs = StepBuffers::for_net(master, quant);
        self.step_indexed(master, quant, batch, &indices, lr, momentum, &mut bufs);
    }

    /// The allocation-free step core driven by the training loop. Expects
    /// `bufs.effective` to be the effective view of `master` on entry and
    /// leaves it so on exit.
    #[allow(clippy::too_many_arguments)]
    fn step_indexed(
        &self,
        master: &mut Mlp,
        quant: &ComposedQuantizer,
        data: &[Sample],
        indices: &[usize],
        lr: f64,
        momentum: &mut MomentumState,
        bufs: &mut StepBuffers,
    ) {
        // (2) Backprop through m — "the network error propagated in the
        // backward pass reflects the impact of the bit-errors".
        bufs.effective
            .gradients_indexed(data, indices, &mut bufs.grads, &mut bufs.scratch);
        // (3) Update the masters and, in the same pass, (1) re-derive
        // m = Bor | (Band & Q(w)) from them for the next step.
        let k = quant.consts();
        let fmt = self.cfg.weight_fmt;
        let rule = self.cfg.update_rule;
        let mu = self.cfg.sgd.momentum;
        for layer in 0..master.spec().depth() {
            let (w, b) = master.layer_mut(layer);
            let (vw, vb) = momentum.layer_mut(layer);
            let (mw, mb) = bufs.effective.layer_mut(layer);
            let (masks_w, masks_b) = quant.masks(layer);
            let blocks = [
                (w, vw, bufs.grads.weights[layer].as_slice(), mw, masks_w),
                (b, vb, &bufs.grads.biases[layer][..], mb, masks_b),
            ];
            for (theta, vel, grad, m, masks) in blocks {
                // Chunks small enough to stay in L1 between the update
                // and the re-quantization: two short loops pipeline
                // better than one long dependency chain per parameter.
                let chunks = theta
                    .chunks_mut(FUSED_CHUNK)
                    .zip(vel.chunks_mut(FUSED_CHUNK))
                    .zip(grad.chunks(FUSED_CHUNK))
                    .zip(m.chunks_mut(FUSED_CHUNK));
                for (c, (((theta, vel), grad), m)) in chunks.enumerate() {
                    let steps = momentum_steps(vel, grad, lr, mu);
                    match rule {
                        // w ← m − α·v + (w − m) = w − α·v.
                        UpdateRule::FloatMaster => {
                            for (w, step) in theta.iter_mut().zip(steps) {
                                *w += step;
                            }
                        }
                        // w ← m − α·v + (w − Q(w)): re-seed the master
                        // from the masked view, then add back only the
                        // sub-LSB residual of the old master.
                        UpdateRule::ResetToMasked => {
                            for ((w, step), m) in theta.iter_mut().zip(steps).zip(&*m) {
                                let eq = matic_fixed::quantize_with_residual(*w, fmt).residual;
                                *w = (m + step) + eq;
                            }
                        }
                    }
                    masks.effective_into(k, c * FUSED_CHUNK, theta, m);
                }
            }
        }
    }
}

/// Parameters per chunk of the fused update + re-quantization pass.
const FUSED_CHUNK: usize = 64;

/// Trains the paper's **naive baseline**: plain float SGD with the same
/// hyperparameters, quantized only at deployment (no fault awareness).
pub fn train_naive(
    spec: &NetSpec,
    data: &[Sample],
    cfg: &MatConfig,
    banks: usize,
    words_per_bank: usize,
) -> TrainedModel {
    let layout = WeightLayout::new(spec, banks, words_per_bank)
        .expect("network must fit the weight memories");
    let mut master = Mlp::init(spec.clone(), cfg.init_seed);
    master.train(data, &cfg.sgd, cfg.shuffle_seed);
    TrainedModel {
        master,
        fmt: cfg.weight_fmt,
        layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ParamRef;
    use matic_nn::mean_squared_error;
    use matic_sram::inject::bernoulli_fault_map;

    fn toy_data() -> Vec<Sample> {
        // Learn y = 0.5x + 0.2 on [0, 1].
        (0..48)
            .map(|i| {
                let x = i as f64 / 48.0;
                Sample::new(vec![x], vec![0.5 * x + 0.2])
            })
            .collect()
    }

    fn toy_spec() -> NetSpec {
        NetSpec::regressor(&[1, 4, 1])
    }

    #[test]
    fn mat_with_clean_map_matches_quantized_training() {
        let data = toy_data();
        let faults = FaultMap::clean(0.9, 4, 32, 16);
        let model = MatTrainer::new(toy_spec(), MatConfig::quick()).train(&data, &faults);
        let deployed = model.deploy(&faults);
        assert!(mean_squared_error(&deployed, &data) < 1e-3);
        // Deploying with or without the clean map is identical.
        assert_eq!(deployed, model.quantized());
    }

    #[test]
    #[ignore]
    fn mat_probe() {
        for lr in [0.02f64, 0.05, 0.1, 0.3] {
            for mom in [0.0, 0.9] {
                for seed in [3u64, 4, 5] {
                    let data = toy_data();
                    let faults = bernoulli_fault_map(4, 32, 16, 0.15, seed);
                    let cfg = MatConfig {
                        sgd: SgdConfig {
                            epochs: 60,
                            lr,
                            momentum: mom,
                            ..MatConfig::paper().sgd
                        },
                        ..MatConfig::paper()
                    };
                    let adaptive = MatTrainer::new(toy_spec(), cfg.clone()).train(&data, &faults);
                    let err = mean_squared_error(&adaptive.deploy(&faults), &data);
                    println!("lr {lr:<5} mom {mom:<4} seed {seed} -> {err:.4}");
                }
            }
        }
    }

    #[test]
    fn mat_learns_around_heavy_faults() {
        let data = toy_data();
        let faults = bernoulli_fault_map(4, 32, 16, 0.15, 3);
        // Tiny nets train without momentum: straight-through gradients of
        // stuck weights otherwise pump the velocity state (the paper-scale
        // topologies are robust to this; see the Fig. 5 bench).
        let cfg = MatConfig {
            sgd: SgdConfig {
                epochs: 60,
                momentum: 0.0,
                ..MatConfig::paper().sgd
            },
            ..MatConfig::paper()
        };
        let adaptive = MatTrainer::new(toy_spec(), cfg.clone()).train(&data, &faults);
        let naive = train_naive(&toy_spec(), &data, &cfg, 4, 32);
        let err_adaptive = mean_squared_error(&adaptive.deploy(&faults), &data);
        let err_naive = mean_squared_error(&naive.deploy(&faults), &data);
        assert!(
            err_adaptive < err_naive,
            "adaptive {err_adaptive} must beat naive {err_naive}"
        );
        assert!(
            err_adaptive < 0.02,
            "adaptive error too high: {err_adaptive}"
        );
    }

    #[test]
    fn deployed_weights_respect_stuck_bits() {
        let data = toy_data();
        let faults = bernoulli_fault_map(4, 32, 16, 0.25, 9);
        let model = MatTrainer::new(toy_spec(), MatConfig::quick()).train(&data, &faults);
        let deployed = model.deploy(&faults);
        let fmt = model.format();
        // Every deployed weight's storage word must satisfy the masks.
        for (param, loc) in model.layout().entries() {
            let v = match param {
                ParamRef::Weight { layer, row, col } => deployed.weights()[layer].get(row, col),
                ParamRef::Bias { layer, row } => deployed.biases()[layer][row],
            };
            let word = fmt.encode(matic_fixed::quantize(v, fmt));
            let bank_map = &faults.banks()[loc.bank];
            assert_eq!(
                word,
                bank_map.apply(loc.word, word),
                "deployed word violates its own fault mask at {loc:?}"
            );
        }
    }

    #[test]
    fn residual_preservation_recovers_sub_lsb_signal() {
        // With εq preserved, sub-LSB gradient pressure accumulates in the
        // master and eventually crosses a code boundary. Train on a target
        // whose optimum is between codes and check convergence to the
        // nearest code, not to a frozen initial value.
        let fmt = QFormat::new(8, 4).unwrap(); // coarse: LSB = 1/16
        let cfg = MatConfig {
            weight_fmt: fmt,
            sgd: SgdConfig {
                epochs: 60,
                lr: 0.05,
                momentum: 0.0,
                lr_decay: 1.0,
                batch_size: 4,
            },
            ..MatConfig::paper()
        };
        let data = toy_data();
        let faults = FaultMap::clean(0.9, 4, 32, 8);
        let model = MatTrainer::new(toy_spec(), cfg).train(&data, &faults);
        let err = mean_squared_error(&model.quantized(), &data);
        assert!(err < 0.01, "coarse-format training stuck: {err}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_data();
        let faults = bernoulli_fault_map(4, 32, 16, 0.1, 5);
        let a = MatTrainer::new(toy_spec(), MatConfig::quick()).train(&data, &faults);
        let b = MatTrainer::new(toy_spec(), MatConfig::quick()).train(&data, &faults);
        assert_eq!(a.master(), b.master());
    }

    #[test]
    fn float_master_escapes_stuck_high_basin_reset_does_not() {
        // One weight word gets its second-highest magnitude bit stuck at
        // 1. The optimal weight is ~0, reachable only by traversing the
        // unreachable code region between the stuck-high and the
        // sign-compensated basins. FloatMaster traverses; ResetToMasked
        // is yanked back every step and stays trapped.
        let fmt = QFormat::new(16, 13).unwrap(); // Q2.13, bit 14 = +2
        let spec = NetSpec::new(
            &[1, 1],
            matic_nn::Activation::Linear,
            matic_nn::Activation::Linear,
        );
        // y = 0.0 * x: optimal weight 0, bias 0.
        let data: Vec<Sample> = (0..16)
            .map(|i| Sample::new(vec![i as f64 / 16.0 + 0.5], vec![0.0]))
            .collect();
        let mut faults = FaultMap::clean(0.5, 1, 4, 16);
        let layout = WeightLayout::new(&spec, 1, 4).unwrap();
        let loc = layout.location_of(ParamRef::Weight {
            layer: 0,
            row: 0,
            col: 0,
        });
        faults.bank_mut(loc.bank).set_fault(loc.word, 14, true);

        let run = |rule: UpdateRule| {
            let cfg = MatConfig {
                sgd: SgdConfig {
                    epochs: 200,
                    lr: 0.05,
                    momentum: 0.0,
                    lr_decay: 1.0,
                    batch_size: 4,
                },
                weight_fmt: fmt,
                update_rule: rule,
                ..MatConfig::paper()
            };
            let model = MatTrainer::new(spec.clone(), cfg).train(&data, &faults);
            model.deploy(&faults).mean_loss(&data)
        };
        let float_master = run(UpdateRule::FloatMaster);
        let reset = run(UpdateRule::ResetToMasked);
        // FloatMaster finds the sign-compensated code (effective weight
        // near 0); ResetToMasked stays pinned in the +2..+4 basin.
        assert!(
            float_master < 0.05,
            "float master failed to escape: loss {float_master}"
        );
        assert!(
            reset > 10.0 * float_master.max(1e-6),
            "reset-to-masked unexpectedly escaped: {reset} vs {float_master}"
        );
    }

    #[test]
    fn restarts_pick_the_best_candidate() {
        let data = toy_data();
        let faults = bernoulli_fault_map(4, 32, 16, 0.15, 3);
        let base = MatConfig {
            sgd: SgdConfig {
                epochs: 30,
                momentum: 0.0,
                ..MatConfig::paper().sgd
            },
            ..MatConfig::paper()
        };
        let single = MatTrainer::new(toy_spec(), base.clone()).train(&data, &faults);
        let multi = MatTrainer::new(
            toy_spec(),
            MatConfig {
                restarts: 4,
                ..base
            },
        )
        .train(&data, &faults);
        let err_single = mean_squared_error(&single.deploy(&faults), &data);
        let err_multi = mean_squared_error(&multi.deploy(&faults), &data);
        assert!(
            err_multi <= err_single + 1e-12,
            "restarts made things worse: {err_multi} vs {err_single}"
        );
    }

    /// The MAT loop as three separate calls per step — quantize + mask,
    /// gradients, update — that the fused step must reproduce bit for
    /// bit, restart selection included.
    fn three_call_training(
        spec: &NetSpec,
        cfg: &MatConfig,
        data: &[Sample],
        map: &FaultMap,
    ) -> Mlp {
        let layout = WeightLayout::new(spec, map.banks().len(), map.banks()[0].words()).unwrap();
        let quant = ComposedQuantizer::new(cfg.weight_fmt, &layout, Some(map));
        let mut best: Option<(f64, Mlp)> = None;
        for restart in 0..cfg.restarts as u64 {
            let mut master = Mlp::init(spec.clone(), cfg.init_seed + restart);
            let mut momentum = MomentumState::zeros_like(&master);
            let mut effective = master.clone();
            let mut grads = Gradients::zeros_like(&master);
            let mut scratch = BatchScratch::default();
            let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed + restart);
            let mut order: Vec<usize> = (0..data.len()).collect();
            let mut lr = cfg.sgd.lr;
            for _ in 0..cfg.sgd.epochs {
                order.shuffle(&mut rng);
                for chunk in order.chunks(cfg.sgd.batch_size) {
                    quant.effective_into(&master, &mut effective);
                    effective.gradients_indexed(data, chunk, &mut grads, &mut scratch);
                    match cfg.update_rule {
                        UpdateRule::FloatMaster => {
                            master.apply_update(&grads, lr, cfg.sgd.momentum, &mut momentum)
                        }
                        UpdateRule::ResetToMasked => {
                            let old = master.clone();
                            master.clone_from(&effective);
                            master.apply_update(&grads, lr, cfg.sgd.momentum, &mut momentum);
                            for l in 0..spec.depth() {
                                let (w, b) = master.layer_mut(l);
                                let olds = old.weights()[l].as_slice().iter();
                                let params = w.iter_mut().chain(b.iter_mut());
                                for (v, &o) in params.zip(olds.chain(&old.biases()[l])) {
                                    *v += matic_fixed::quantize_with_residual(o, cfg.weight_fmt)
                                        .residual;
                                }
                            }
                        }
                    }
                }
                lr *= cfg.sgd.lr_decay;
            }
            let loss = quant.effective(&master).mean_loss(data);
            if best.as_ref().is_none_or(|(b, _)| loss < *b) {
                best = Some((loss, master));
            }
        }
        best.unwrap().1
    }

    #[test]
    fn fused_step_equals_the_three_call_loop() {
        let dense = NetSpec::regressor(&[3, 10, 2]);
        let conv = NetSpec::parse_topology("6x6x1;conv3x2;pool2;dense2").unwrap();
        for (spec, seed) in [(dense, 7u64), (conv, 8)] {
            // 21 samples: batches of eight leave a ragged last batch.
            let data: Vec<Sample> = (0..21)
                .map(|i| {
                    let x: Vec<f64> = (0..spec.layers[0])
                        .map(|c| ((i * 5 + c * 3) % 11) as f64 / 11.0)
                        .collect();
                    let t = vec![(i % 3) as f64 / 3.0, (i % 2) as f64 * 0.5 + 0.2];
                    Sample::new(x, t)
                })
                .collect();
            let faults = bernoulli_fault_map(4, 64, 16, 0.1, seed);
            for rule in [UpdateRule::FloatMaster, UpdateRule::ResetToMasked] {
                let cfg = MatConfig {
                    sgd: SgdConfig {
                        epochs: 3,
                        ..MatConfig::paper().sgd
                    },
                    restarts: 2,
                    update_rule: rule,
                    ..MatConfig::paper()
                };
                let model = MatTrainer::new(spec.clone(), cfg.clone()).train(&data, &faults);
                assert!(
                    model.master() == &three_call_training(&spec, &cfg, &data, &faults),
                    "{} {rule:?}",
                    spec.tag()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_network_panics() {
        let data = toy_data();
        let faults = FaultMap::clean(0.9, 1, 2, 16);
        let _ = MatTrainer::new(toy_spec(), MatConfig::quick()).train(&data, &faults);
    }
}
