//! The layer-chain network: forward, backward, SGD.
//!
//! Historically a two-layer dense MLP; the struct now walks whatever
//! [`NetSpec`] layer chain it was built with (dense, conv, pooling),
//! dispatching per layer through [`crate::layer`]. There is one walk:
//! a whole batch moves forward together in column-major sample lanes
//! ([`layer::forward_lanes`]) and back through the same lanes
//! ([`layer::backward_lanes`]), with the output delta and the
//! activation-derivative seam between layers computed lane by lane. A
//! single sample is a batch of one.

use crate::layer;
use crate::matrix::Matrix;
use crate::sample::Sample;
use crate::spec::{Loss, NetSpec};
use crate::SgdConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-layer weight and bias gradients from a backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// ∂J/∂W per layer, same shapes as the weight matrices.
    pub weights: Vec<Matrix>,
    /// ∂J/∂b per layer.
    pub biases: Vec<Vec<f64>>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            weights: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    /// Resets all gradients to zero (buffer reuse across training steps).
    pub fn reset(&mut self) {
        for w in &mut self.weights {
            w.fill_zero();
        }
        for b in &mut self.biases {
            b.fill(0.0);
        }
    }
}

/// Reusable buffers for the batched forward/backward pass of
/// [`Mlp::gradients_indexed`], so repeated training steps stay
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Per-layer activations in sample lanes, `[unit * batch + sample]`
    /// (input included).
    acts: Vec<Vec<f64>>,
    /// Current backprop delta, in sample lanes.
    delta: Vec<f64>,
    /// Next (earlier-layer) delta under construction, in sample lanes.
    prev: Vec<f64>,
    /// Sample-major scratch of [`layer::backward_lanes`].
    rows: Vec<f64>,
}

/// Momentum accumulators matching a network's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumState {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl MomentumState {
    /// Zero state shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        MomentumState {
            weights: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    /// Layer `l`'s weight and bias velocities, for driving
    /// [`momentum_steps`] one layer at a time.
    pub fn layer_mut(&mut self, l: usize) -> (&mut [f64], &mut [f64]) {
        (self.weights[l].as_mut_slice(), &mut self.biases[l])
    }
}

/// One parameter slice's momentum-SGD step, the per-layer form of
/// [`Mlp::apply_update`]: updates each velocity `v ← µ·v + g` as it goes
/// and yields the parameter's step `−lr·v`, in slice order.
/// `Mlp::apply_update` adds each step to its parameter; a caller that
/// derives another view of the parameters (the memory-adaptive trainer
/// re-quantizes them) zips its own work into the same pass.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn momentum_steps<'a>(
    velocity: &'a mut [f64],
    grad: &'a [f64],
    lr: f64,
    momentum: f64,
) -> impl Iterator<Item = f64> + 'a {
    assert_eq!(velocity.len(), grad.len(), "velocity and gradient lengths");
    velocity.iter_mut().zip(grad).map(move |(v, g)| {
        let vel = momentum * *v + g;
        *v = vel;
        -lr * vel
    })
}

/// A layer-chain network with explicit float weights.
///
/// Weight matrices use `rows = fan_out`, `cols = fan_in` (per
/// [`crate::spec::NetSpec::param_extents`]; convolution rows are
/// filters, columns are kernel taps; pooling stages hold empty
/// matrices). The struct is the
/// substrate for both vanilla training and the memory-adaptive loop, which
/// needs to run passes over *modified* copies of the weights; see
/// [`Mlp::map_weights`] and [`Mlp::gradients`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    spec: NetSpec,
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl Mlp {
    /// Initializes a network with Xavier/Glorot-uniform weights and zero
    /// biases, deterministically from `seed`. Parameterless stages
    /// (pooling) hold empty matrices and draw nothing from the RNG, so
    /// the weight stream of every dense layer is independent of how many
    /// pools sit between them — and identical to the pre-chain stream
    /// for plain MLPs.
    pub fn init(spec: NetSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(spec.depth());
        let mut biases = Vec::with_capacity(spec.depth());
        for (rows, cols) in spec.param_extents() {
            let mut m = Matrix::zeros(rows, cols);
            if rows > 0 {
                let limit = (6.0 / (cols + rows) as f64).sqrt();
                for v in m.as_mut_slice() {
                    *v = rng.gen_range(-limit..limit);
                }
            }
            weights.push(m);
            biases.push(vec![0.0; rows]);
        }
        Mlp {
            spec,
            weights,
            biases,
        }
    }

    /// Builds a network from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with `spec`.
    pub fn from_params(spec: NetSpec, weights: Vec<Matrix>, biases: Vec<Vec<f64>>) -> Self {
        assert_eq!(weights.len(), spec.depth(), "weight count mismatch");
        assert_eq!(biases.len(), spec.depth(), "bias count mismatch");
        for (l, (rows, cols)) in spec.param_extents().into_iter().enumerate() {
            assert_eq!(weights[l].cols(), cols, "layer {l} fan-in");
            assert_eq!(weights[l].rows(), rows, "layer {l} fan-out");
            assert_eq!(biases[l].len(), rows, "layer {l} bias len");
        }
        Mlp {
            spec,
            weights,
            biases,
        }
    }

    /// The architecture specification.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// Weight matrices, input-side first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Mutable weight matrices.
    pub fn weights_mut(&mut self) -> &mut [Matrix] {
        &mut self.weights
    }

    /// Bias vectors.
    pub fn biases(&self) -> &[Vec<f64>] {
        &self.biases
    }

    /// Mutable bias vectors.
    pub fn biases_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.biases
    }

    /// Layer `l`'s weights (row-major) and biases, mutably, for driving
    /// [`momentum_steps`] one layer at a time.
    pub fn layer_mut(&mut self, l: usize) -> (&mut [f64], &mut [f64]) {
        (self.weights[l].as_mut_slice(), &mut self.biases[l])
    }

    /// Returns a copy of the network with every weight and bias transformed
    /// by `f` (e.g. quantize-and-mask for memory-adaptive training).
    pub fn map_weights(&self, mut f: impl FnMut(f64) -> f64) -> Mlp {
        let mut out = self.clone();
        for m in &mut out.weights {
            for v in m.as_mut_slice() {
                *v = f(*v);
            }
        }
        for b in &mut out.biases {
            for v in b.iter_mut() {
                *v = f(*v);
            }
        }
        out
    }

    /// Runs the forward pass and returns the output activations.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input-layer width.
    ///
    /// # Examples
    ///
    /// ```
    /// use matic_nn::{Mlp, NetSpec};
    ///
    /// let net = Mlp::init(NetSpec::classifier(&[4, 8, 3]), 7);
    /// let out = net.forward(&[0.1, 0.9, 0.4, 0.2]);
    /// assert_eq!(out.len(), 3);
    /// // Sigmoid outputs are probabilities.
    /// assert!(out.iter().all(|y| (0.0..=1.0).contains(y)));
    /// ```
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_batch(&[input])
            .pop()
            .expect("one input yields one output")
    }

    /// Batched forward pass: one output vector per input, bit-identical
    /// to calling [`Mlp::forward`] on each input separately.
    ///
    /// The whole batch moves through the chain together in column-major
    /// sample lanes, amortizing each weight traversal across all samples;
    /// every lane keeps its own running sums in the per-sample order, so
    /// the equality is exact, not approximate.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from the input-layer width.
    pub fn forward_batch(&self, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let b = inputs.len();
        if b == 0 {
            return Vec::new();
        }
        let mut acts = Vec::new();
        self.forward_lanes(inputs.iter().copied(), &mut acts);
        let out = acts.last().expect("the input is always traced");
        let fan_out = out.len() / b;
        (0..b)
            .map(|s| (0..fan_out).map(|c| out[c * b + s]).collect())
            .collect()
    }

    /// Computes the loss of one sample.
    pub fn sample_loss(&self, sample: &Sample) -> f64 {
        let out = self.forward(&sample.input);
        loss_value(self.spec.loss, &out, &sample.target)
    }

    /// Mean loss over a dataset.
    ///
    /// Runs the forward passes through [`Mlp::forward_batch`] in chunks,
    /// summing the per-sample losses in dataset order — the same values
    /// in the same order as a per-sample loop, so the result is
    /// bit-identical while each weight traversal amortizes across the
    /// chunk.
    pub fn mean_loss(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for chunk in samples.chunks(64) {
            let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.input.as_slice()).collect();
            let outs = self.forward_batch(&inputs);
            for (out, s) in outs.iter().zip(chunk) {
                sum += loss_value(self.spec.loss, out, &s.target);
            }
        }
        sum / samples.len() as f64
    }

    /// The chain walk: interleaves `inputs` into column-major sample
    /// lanes in `acts[0]` and runs every layer, leaving each layer's
    /// activations in `acts[l + 1]`.
    fn forward_lanes<'a>(
        &self,
        inputs: impl ExactSizeIterator<Item = &'a [f64]>,
        acts: &mut Vec<Vec<f64>>,
    ) {
        let b = inputs.len();
        let width0 = self.spec.layers[0];
        acts.resize(self.spec.depth() + 1, Vec::new());
        acts[0].resize(width0 * b, 0.0);
        for (s, input) in inputs.enumerate() {
            assert_eq!(input.len(), width0, "input width mismatch");
            for (c, &x) in input.iter().enumerate() {
                acts[0][c * b + s] = x;
            }
        }
        for l in 0..self.spec.depth() {
            let (head, tail) = acts.split_at_mut(l + 1);
            tail[0].resize(self.spec.layers[l + 1] * b, 0.0);
            layer::forward_lanes(
                &self.spec.layer_spec(l),
                &self.weights[l],
                &self.biases[l],
                &head[l],
                b,
                &mut tail[0],
            );
        }
    }

    /// Backward pass for one sample: gradients of the loss with respect to
    /// **this network's** weights. The memory-adaptive loop calls this on
    /// the masked/quantized copy so that "the network error propagated in
    /// the backward pass reflects the impact of the bit-errors" (§III-B).
    pub fn sample_gradients(&self, sample: &Sample) -> Gradients {
        self.gradients(std::slice::from_ref(sample))
    }

    /// Mean gradients over a mini-batch.
    pub fn gradients(&self, batch: &[Sample]) -> Gradients {
        let mut total = Gradients::zeros_like(self);
        let indices: Vec<usize> = (0..batch.len()).collect();
        self.gradients_indexed(batch, &indices, &mut total, &mut BatchScratch::default());
        total
    }

    /// Mean gradients of the samples selected by `indices`, written into
    /// the reusable `total`/`scratch` buffers: the allocation-free form of
    /// [`Mlp::gradients`] that training loops drive with their shuffled
    /// index order.
    ///
    /// The whole mini-batch moves forward together in sample lanes, then
    /// backward through every layer's [`layer::backward_lanes`]. Every
    /// weight gradient is one running sum in (sample, position) order —
    /// for a dense weight one term per sample, for a convolution tap one
    /// term per output position of each sample — before the final
    /// `1/batch` scale, so the bits are those of a backward pass that
    /// visits the samples one at a time.
    pub fn gradients_indexed(
        &self,
        data: &[Sample],
        indices: &[usize],
        total: &mut Gradients,
        scratch: &mut BatchScratch,
    ) {
        let b = indices.len();
        if b == 0 {
            total.reset();
            return;
        }
        self.forward_lanes(
            indices.iter().map(|&i| data[i].input.as_slice()),
            &mut scratch.acts,
        );

        // Output delta dJ/dz, lane by lane.
        let depth = self.spec.depth();
        let fan_out = *self.spec.layers.last().unwrap();
        let out = &scratch.acts[depth];
        scratch.delta.resize(fan_out * b, 0.0);
        for (s, &i) in indices.iter().enumerate() {
            let target = &data[i].target;
            assert_eq!(target.len(), fan_out, "target width mismatch");
            for (u, t) in target.iter().enumerate() {
                let y = out[u * b + s];
                scratch.delta[u * b + s] = match self.spec.loss {
                    Loss::Mse => (y - t) * self.spec.output.derivative_from_output(y),
                    // Sigmoid + cross-entropy cancels the activation derivative.
                    Loss::CrossEntropy => y - t,
                };
            }
        }
        for l in (0..depth).rev() {
            let a_l = &scratch.acts[l];
            // The first layer's input needs no delta.
            let delta_in = if l > 0 {
                scratch.prev.resize(a_l.len(), 0.0);
                Some(&mut scratch.prev[..])
            } else {
                None
            };
            layer::backward_lanes(
                &self.spec.layer_spec(l),
                &self.weights[l],
                a_l,
                &scratch.delta,
                b,
                &mut total.weights[l],
                &mut total.biases[l],
                delta_in,
                &mut scratch.rows,
            );
            if l > 0 {
                // Seam between layers: multiply the propagated delta by
                // the previous layer's activation derivative (exactly 1
                // for pooling stages, which report Linear).
                let act = self.spec.activation(l - 1);
                for (p, a) in scratch.prev.iter_mut().zip(a_l) {
                    *p *= act.derivative_from_output(*a);
                }
                std::mem::swap(&mut scratch.delta, &mut scratch.prev);
            }
        }
    }

    /// Applies one SGD step: `θ ← θ − lr · v` where `v` is the momentum
    /// velocity updated with `grads`, fused into one pass per element
    /// (`v ← µ·v + g`, then `θ ← θ − lr·v`): [`momentum_steps`] over
    /// every layer's weights and biases.
    pub fn apply_update(
        &mut self,
        grads: &Gradients,
        lr: f64,
        momentum: f64,
        state: &mut MomentumState,
    ) {
        for l in 0..self.spec.depth() {
            let ((w, b), (vw, vb)) = (self.layer_mut(l), state.layer_mut(l));
            let blocks = [
                (w, vw, grads.weights[l].as_slice()),
                (b, vb, &grads.biases[l][..]),
            ];
            for (theta, vel, grad) in blocks {
                for (t, step) in theta
                    .iter_mut()
                    .zip(momentum_steps(vel, grad, lr, momentum))
                {
                    *t += step;
                }
            }
        }
    }

    /// Vanilla training loop (the paper's *baseline/naive* models): SGD
    /// with momentum over float weights. Returns the final mean training
    /// loss.
    pub fn train(&mut self, data: &[Sample], cfg: &SgdConfig, shuffle_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut momentum = MomentumState::zeros_like(self);
        let mut grads = Gradients::zeros_like(self);
        let mut scratch = BatchScratch::default();
        let mut lr = cfg.lr;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                self.gradients_indexed(data, chunk, &mut grads, &mut scratch);
                self.apply_update(&grads, lr, cfg.momentum, &mut momentum);
            }
            lr *= cfg.lr_decay;
        }
        self.mean_loss(data)
    }
}

/// Loss of one prediction. The constants are chosen so the backprop deltas
/// are exactly `(y−t)·f'` (MSE) and `y−t` (sigmoid cross-entropy):
/// MSE = ½·Σ(y−t)², CE = −Σ[t·ln y + (1−t)·ln(1−y)].
pub(crate) fn loss_value(loss: Loss, out: &[f64], target: &[f64]) -> f64 {
    match loss {
        Loss::Mse => {
            0.5 * out
                .iter()
                .zip(target)
                .map(|(y, t)| (y - t) * (y - t))
                .sum::<f64>()
        }
        Loss::CrossEntropy => {
            let eps = 1e-12;
            -out.iter()
                .zip(target)
                .map(|(y, t)| {
                    let y = y.clamp(eps, 1.0 - eps);
                    t * y.ln() + (1.0 - t) * (1.0 - y).ln()
                })
                .sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::spec::LayerSpec;

    /// The per-sample reference walk the batched chain must reproduce
    /// bit for bit: each sample runs alone through a scalar per-layer
    /// forward, then backward through a scalar per-layer backward
    /// straight into the batch totals, samples in order.
    mod oracle {
        use super::*;

        /// One layer's forward for one sample, scalar accumulators.
        fn layer_forward(spec: &LayerSpec, w: &Matrix, bias: &[f64], x: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; spec.out_width()];
            match *spec {
                LayerSpec::Dense { act, .. } => {
                    for (r, o) in out.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (wv, xv) in w.row(r).iter().zip(x) {
                            acc += wv * xv;
                        }
                        *o = act.apply(acc + bias[r]);
                    }
                }
                LayerSpec::Conv2d {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    act,
                } => {
                    let (out_h, out_w) = (in_h - kernel + 1, in_w - kernel + 1);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for f in 0..filters {
                                let mut acc = 0.0;
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        for c in 0..in_c {
                                            let col = (ky * kernel + kx) * in_c + c;
                                            let xi = ((oy + ky) * in_w + (ox + kx)) * in_c + c;
                                            acc += w.get(f, col) * x[xi];
                                        }
                                    }
                                }
                                out[(oy * out_w + ox) * filters + f] = act.apply(acc + bias[f]);
                            }
                        }
                    }
                }
                LayerSpec::MaxPool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    let (out_h, out_w) = (in_h / window, in_w / window);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for c in 0..channels {
                                let mut best = f64::NEG_INFINITY;
                                for ky in 0..window {
                                    for kx in 0..window {
                                        let xi = ((oy * window + ky) * in_w + (ox * window + kx))
                                            * channels
                                            + c;
                                        if x[xi] > best {
                                            best = x[xi];
                                        }
                                    }
                                }
                                out[(oy * out_w + ox) * channels + c] = best;
                            }
                        }
                    }
                }
            }
            out
        }

        /// One layer's backward for one sample: `delta` (activation
        /// derivative already applied) accumulates into `grad_w`/`grad_b`
        /// and, when requested, `delta_in` is overwritten with `Wᵀ·delta`
        /// (or the pooling scatter).
        fn accumulate_gradients(
            spec: &LayerSpec,
            weights: &Matrix,
            x: &[f64],
            delta: &[f64],
            grad_w: &mut Matrix,
            grad_b: &mut [f64],
            mut delta_in: Option<&mut [f64]>,
        ) {
            match *spec {
                LayerSpec::Dense { .. } => {
                    for (r, &d) in delta.iter().enumerate() {
                        for (c, xv) in x.iter().enumerate() {
                            *grad_w.get_mut(r, c) += d * xv;
                        }
                        grad_b[r] += d;
                    }
                    if let Some(di) = delta_in {
                        di.fill(0.0);
                        for (r, &d) in delta.iter().enumerate() {
                            for (y, w) in di.iter_mut().zip(weights.row(r)) {
                                *y += w * d;
                            }
                        }
                    }
                }
                LayerSpec::Conv2d {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    ..
                } => {
                    let (out_h, out_w) = (in_h - kernel + 1, in_w - kernel + 1);
                    if let Some(di) = &mut delta_in {
                        di.fill(0.0);
                    }
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for f in 0..filters {
                                let d = delta[(oy * out_w + ox) * filters + f];
                                grad_b[f] += d;
                                for ky in 0..kernel {
                                    for kx in 0..kernel {
                                        for c in 0..in_c {
                                            let col = (ky * kernel + kx) * in_c + c;
                                            let xi = ((oy + ky) * in_w + (ox + kx)) * in_c + c;
                                            *grad_w.get_mut(f, col) += d * x[xi];
                                            if let Some(di) = &mut delta_in {
                                                di[xi] += d * weights.get(f, col);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                LayerSpec::MaxPool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    let (out_h, out_w) = (in_h / window, in_w / window);
                    let Some(delta_in) = delta_in else {
                        return;
                    };
                    delta_in.fill(0.0);
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            for c in 0..channels {
                                let mut best = f64::NEG_INFINITY;
                                let mut arg = 0;
                                for ky in 0..window {
                                    for kx in 0..window {
                                        let xi = ((oy * window + ky) * in_w + (ox * window + kx))
                                            * channels
                                            + c;
                                        if x[xi] > best {
                                            best = x[xi];
                                            arg = xi;
                                        }
                                    }
                                }
                                delta_in[arg] += delta[(oy * out_w + ox) * channels + c];
                            }
                        }
                    }
                }
            }
        }

        /// Every layer's activations for one sample, input included.
        pub fn activations(net: &Mlp, input: &[f64]) -> Vec<Vec<f64>> {
            let mut acts = vec![input.to_vec()];
            for l in 0..net.spec.depth() {
                let z = layer_forward(
                    &net.spec.layer_spec(l),
                    &net.weights[l],
                    &net.biases[l],
                    acts.last().unwrap(),
                );
                acts.push(z);
            }
            acts
        }

        /// Mean gradients of `data[indices]`, one sample at a time.
        pub fn gradients(net: &Mlp, data: &[Sample], indices: &[usize]) -> Gradients {
            let mut total = Gradients::zeros_like(net);
            let depth = net.spec.depth();
            for &i in indices {
                let acts = activations(net, &data[i].input);
                let mut delta: Vec<f64> = acts[depth]
                    .iter()
                    .zip(&data[i].target)
                    .map(|(y, t)| match net.spec.loss {
                        Loss::Mse => (y - t) * net.spec.output.derivative_from_output(*y),
                        Loss::CrossEntropy => y - t,
                    })
                    .collect();
                for l in (0..depth).rev() {
                    let mut prev = vec![0.0; net.spec.layers[l]];
                    accumulate_gradients(
                        &net.spec.layer_spec(l),
                        &net.weights[l],
                        &acts[l],
                        &delta,
                        &mut total.weights[l],
                        &mut total.biases[l],
                        (l > 0).then_some(&mut prev[..]),
                    );
                    if l > 0 {
                        let act = net.spec.activation(l - 1);
                        for (p, a) in prev.iter_mut().zip(&acts[l]) {
                            *p *= act.derivative_from_output(*a);
                        }
                        delta = prev;
                    }
                }
            }
            let inv_b = 1.0 / indices.len().max(1) as f64;
            for w in &mut total.weights {
                w.scale(inv_b);
            }
            for g in total.biases.iter_mut().flatten() {
                *g *= inv_b;
            }
            total
        }
    }

    /// Dense MLPs plus the conv/pool chains of the gradient checks, each
    /// under both losses.
    fn parity_specs() -> Vec<NetSpec> {
        let chains = [
            NetSpec::builder()
                .input_image(4, 4, 1)
                .conv2d(3, 2, Activation::Sigmoid)
                .dense(2, Activation::Sigmoid)
                .build(),
            NetSpec::builder()
                .input_image(6, 6, 1)
                .conv2d(2, 3, Activation::Tanh)
                .max_pool(2)
                .dense(3, Activation::Linear)
                .build(),
            NetSpec::builder()
                .input_image(3, 3, 2)
                .conv2d(2, 2, Activation::Sigmoid)
                .dense(2, Activation::Linear)
                .build(),
            NetSpec::builder()
                .input_image(8, 8, 1)
                .max_pool(2)
                .conv2d(2, 2, Activation::Sigmoid)
                .dense(2, Activation::Sigmoid)
                .build(),
            // Rectangular and multichannel through conv and pool.
            NetSpec::parse_topology("6x4x2;conv3x2;pool2;dense2"),
        ];
        let mut specs = vec![
            NetSpec::classifier(&[5, 7, 3]),
            NetSpec::regressor(&[4, 6, 2]),
            NetSpec::regressor(&[9, 14, 5, 2]),
            // Widths above eight and not a multiple of it: full register
            // blocks plus ragged tails, through Tanh and ReLU seams.
            NetSpec::new(&[19, 11, 3], Activation::Tanh, Activation::Sigmoid),
            NetSpec::new(&[21, 17, 9, 2], Activation::Relu, Activation::Linear),
        ];
        specs.extend(chains.into_iter().map(Result::unwrap));
        specs
            .into_iter()
            .flat_map(|s| {
                [
                    s.clone().with_loss(Loss::Mse),
                    s.with_loss(Loss::CrossEntropy),
                ]
            })
            .collect()
    }

    /// A Glorot-initialized net with nonzero biases, so a bias added in
    /// the wrong order changes bits.
    fn biased(spec: NetSpec, seed: u64) -> Mlp {
        let mut net = Mlp::init(spec, seed);
        for (l, b) in net.biases_mut().iter_mut().enumerate() {
            for (r, v) in b.iter_mut().enumerate() {
                *v = ((l * 5 + r * 3) % 7) as f64 / 7.0 - 0.4;
            }
        }
        net
    }

    /// `n` deterministic samples shaped for `spec`.
    fn samples(spec: &NetSpec, n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let x: Vec<f64> = (0..spec.layers[0])
                    .map(|c| ((i * 7 + c * 3) % 17) as f64 / 17.0 - 0.4)
                    .collect();
                let t: Vec<f64> = (0..*spec.layers.last().unwrap())
                    .map(|c| ((i + c) % 5) as f64 / 5.0)
                    .collect();
                Sample::new(x, t)
            })
            .collect()
    }

    const BATCHES: [usize; 7] = [1, 2, 3, 7, 8, 9, 13];

    fn xor_data() -> Vec<Sample> {
        [(0., 0., 0.), (0., 1., 1.), (1., 0., 1.), (1., 1., 0.)]
            .iter()
            .map(|&(a, b, y)| Sample::new(vec![a, b], vec![y]))
            .collect()
    }

    #[test]
    fn init_is_deterministic() {
        let spec = NetSpec::classifier(&[4, 3, 2]);
        let a = Mlp::init(spec.clone(), 9);
        let b = Mlp::init(spec, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::init(NetSpec::classifier(&[5, 7, 3]), 1);
        let out = net.forward(&[0.1; 5]);
        assert_eq!(out.len(), 3);
        let batch = net.forward_batch(&[&[0.1; 5], &[0.2; 5]]);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|o| o.len() == 3));
    }

    #[test]
    fn sigmoid_outputs_bounded() {
        let net = Mlp::init(NetSpec::classifier(&[3, 4, 2]), 5);
        for v in net.forward(&[10.0, -10.0, 3.0]) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn learns_xor() {
        let spec = NetSpec::new(&[2, 4, 1], Activation::Sigmoid, Activation::Sigmoid);
        let mut net = Mlp::init(spec, 1);
        let cfg = SgdConfig {
            lr: 0.7,
            epochs: 2000,
            batch_size: 4,
            momentum: 0.9,
            lr_decay: 1.0,
        };
        net.train(&xor_data(), &cfg, 7);
        for s in xor_data() {
            let y = net.forward(&s.input)[0];
            assert_eq!(y.round(), s.target[0], "xor({:?}) = {y}", s.input);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let spec = NetSpec::regressor(&[1, 8, 1]);
        let mut net = Mlp::init(spec, 3);
        // y = x² on [-1, 1]
        let data: Vec<Sample> = (0..40)
            .map(|i| {
                let x = -1.0 + i as f64 / 20.0;
                Sample::new(vec![x], vec![x * x])
            })
            .collect();
        let before = net.mean_loss(&data);
        net.train(
            &data,
            &SgdConfig {
                epochs: 300,
                lr: 0.1,
                ..SgdConfig::default()
            },
            1,
        );
        let after = net.mean_loss(&data);
        assert!(after < before / 4.0, "{before} -> {after}");
    }

    #[test]
    fn batched_gradients_are_bit_identical_to_per_sample() {
        // The batched chain may vectorize across samples but must keep
        // every sample's accumulation order — exact f64 equality with
        // the per-sample walk, not approximate closeness, for every
        // layer kind, both losses and batch sizes around the 8-lane
        // block.
        for spec in parity_specs() {
            let net = biased(spec.clone(), 11);
            let data = samples(&spec, 13);
            for batch in BATCHES {
                // A scattered, descending selection exercises indexing.
                let indices: Vec<usize> = (0..batch).map(|k| (batch - 1 - k) * 7 % 13).collect();
                let reference = oracle::gradients(&net, &data, &indices);
                let mut total = Gradients::zeros_like(&net);
                let mut scratch = BatchScratch::default();
                net.gradients_indexed(&data, &indices, &mut total, &mut scratch);
                assert_eq!(total, reference, "spec {} batch {batch}", spec.tag());
                // Reusing the same scratch must not perturb a second run.
                net.gradients_indexed(&data, &indices, &mut total, &mut scratch);
                assert_eq!(total, reference);
            }
            let all: Vec<usize> = (0..13).collect();
            assert_eq!(net.gradients(&data), oracle::gradients(&net, &data, &all));
            assert_eq!(
                net.sample_gradients(&data[4]),
                oracle::gradients(&net, &data, &[4])
            );
        }
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        for spec in parity_specs() {
            let net = biased(spec.clone(), 19);
            let inputs: Vec<Vec<f64>> = samples(&spec, 13).into_iter().map(|s| s.input).collect();
            for b in BATCHES {
                let refs: Vec<&[f64]> = inputs[..b].iter().map(|v| v.as_slice()).collect();
                let batched = net.forward_batch(&refs);
                for (input, out) in refs.iter().zip(&batched) {
                    let reference = oracle::activations(&net, input).pop().unwrap();
                    assert_eq!(out, &reference, "spec {} batch {b}", spec.tag());
                    assert_eq!(out, &net.forward(input));
                }
            }
            assert!(net.forward_batch(&[]).is_empty());
        }
    }

    #[test]
    fn one_scratch_serves_full_ragged_and_respecified_batches() {
        // A full batch of eight, then a ragged tail, then a different
        // chain: stale lengths in the scratch must never leak.
        let conv = biased(
            NetSpec::parse_topology("6x6x1;conv3x2;pool2;dense3").unwrap(),
            5,
        );
        let dense = biased(NetSpec::classifier(&[5, 7, 3]), 5);
        let conv_data = samples(conv.spec(), 13);
        let dense_data = samples(dense.spec(), 13);
        let mut scratch = BatchScratch::default();
        for (net, data, indices) in [
            (&conv, &conv_data, (0..8).collect::<Vec<_>>()),
            (&conv, &conv_data, (8..13).collect()),
            (&dense, &dense_data, (0..8).collect()),
            (&conv, &conv_data, vec![12, 0, 6]),
        ] {
            let mut total = Gradients::zeros_like(net);
            net.gradients_indexed(data, &indices, &mut total, &mut scratch);
            assert_eq!(total, oracle::gradients(net, data, &indices));
        }
    }

    #[test]
    fn map_weights_applies_everywhere() {
        let net = Mlp::init(NetSpec::classifier(&[2, 2, 1]), 4);
        let doubled = net.map_weights(|w| 2.0 * w);
        for (a, b) in net.weights.iter().zip(&doubled.weights) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(*y, 2.0 * *x);
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_is_output_minus_target() {
        let mut spec = NetSpec::classifier(&[2, 2]);
        spec.loss = Loss::CrossEntropy;
        let net = Mlp::init(spec, 2);
        let s = Sample::new(vec![0.5, -0.5], vec![1.0, 0.0]);
        let out = net.forward(&s.input);
        let g = net.sample_gradients(&s);
        // Bias gradient of the output layer equals delta = y - t.
        assert!((g.biases[0][0] - (out[0] - 1.0)).abs() < 1e-12);
        assert!((g.biases[0][1] - out[1]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let net = Mlp::init(NetSpec::classifier(&[3, 2]), 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn from_params_validates_shapes() {
        let spec = NetSpec::classifier(&[2, 3]);
        let w = vec![Matrix::zeros(3, 2)];
        let b = vec![vec![0.0; 3]];
        let _ = Mlp::from_params(spec, w, b);
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn from_params_rejects_bad_shape() {
        let spec = NetSpec::classifier(&[2, 3]);
        let w = vec![Matrix::zeros(2, 2)];
        let b = vec![vec![0.0; 3]];
        let _ = Mlp::from_params(spec, w, b);
    }
}
