//! A minimal layer-chain neural-network training substrate.
//!
//! The MATIC paper implements its training modifications "in the
//! open-source FANN and Caffe frameworks" (§III-B). This crate is the
//! reproduction's FANN: a small, dependency-light library with plain
//! stochastic gradient descent, built so that the memory-adaptive
//! training loop of `matic-core` can drive forward and backward passes
//! over **effective** (quantized + fault-masked) weights while keeping
//! float master copies.
//!
//! Scope starts from the paper — dense layers (SNNAC is an FC-DNN
//! accelerator), sigmoid/tanh/ReLU/linear activations (the AFU supports
//! sigmoid and ReLU, §IV), MSE and cross-entropy losses, SGD with
//! momentum — and extends along the topology axis: a [`NetSpec`] may
//! describe a generic layer chain ([`LayerSpec`]) mixing dense, 2-D
//! convolution and max-pooling stages, built with [`NetSpec::builder`]
//! or parsed with [`NetSpec::parse_topology`]. Every chain runs through
//! one [`Mlp`] walk: the batch moves forward and backward together in
//! column-major sample lanes ([`layer::forward_lanes`],
//! [`layer::backward_lanes`]); a single sample is a batch of one. The
//! update has a per-layer slice form, [`momentum_steps`], so a caller can
//! fuse work of its own into the pass over the parameters.
//!
//! # Example: learn XOR
//!
//! ```
//! use matic_nn::{Activation, Mlp, NetSpec, Sample, SgdConfig};
//!
//! let spec = NetSpec::new(&[2, 4, 1], Activation::Sigmoid, Activation::Sigmoid);
//! let mut net = Mlp::init(spec, 1);
//! let data: Vec<Sample> = [(0., 0., 0.), (0., 1., 1.), (1., 0., 1.), (1., 1., 0.)]
//!     .iter()
//!     .map(|&(a, b, y)| Sample::new(vec![a, b], vec![y]))
//!     .collect();
//! let cfg = SgdConfig {
//!     lr: 0.7,
//!     lr_decay: 1.0,
//!     batch_size: 4,
//!     epochs: 2000,
//!     ..SgdConfig::default()
//! };
//! net.train(&data, &cfg, 7);
//! for s in &data {
//!     assert_eq!(net.forward(&s.input)[0].round(), s.target[0]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod gradcheck;
pub mod kernel;
pub mod layer;
mod matrix;
mod metrics;
mod mlp;
mod sample;
mod spec;

pub use activation::Activation;
pub use gradcheck::numerical_gradients;
pub use matrix::Matrix;
pub use metrics::{classification_error_percent, mean_squared_error, Metric};
pub use mlp::{momentum_steps, BatchScratch, Gradients, Mlp, MomentumState};
pub use sample::Sample;
pub use spec::{LayerSpec, Loss, NetSpec, NetSpecBuilder, SpecError};

/// Stochastic-gradient-descent hyperparameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SgdConfig {
    /// Learning rate α.
    pub lr: f64,
    /// Multiplicative learning-rate decay applied once per epoch.
    pub lr_decay: f64,
    /// Classical momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Mini-batch size (1 = FANN-style incremental SGD).
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            lr_decay: 0.99,
            momentum: 0.9,
            batch_size: 8,
            epochs: 40,
        }
    }
}

#[cfg(test)]
mod proptests;
