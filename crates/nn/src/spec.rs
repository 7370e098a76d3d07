//! Network architecture specifications.
//!
//! A [`NetSpec`] describes either a plain dense MLP (the paper's four
//! benchmark topologies — `layers`/`hidden`/`output` fully determine it)
//! or an extended **layer chain** of [`LayerSpec`] stages (dense,
//! 2-D convolution, max-pooling). The two representations share one type
//! so every consumer — trainer, layout, composed weights, microcode,
//! sweep harness — walks a single topology axis.
//!
//! Plain MLP specs serialize exactly as they did before layer chains
//! existed (the four legacy fields, nothing else), so topology
//! fingerprints, sweep-plan digests and cache keys for the paper's
//! benchmarks are byte-identical across the refactor. Extended chains
//! add a fifth `chain` field and therefore fingerprint differently from
//! any MLP — which is exactly what cache correctness requires.

use crate::activation::Activation;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// Training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error (FANN's default; used for both the paper's
    /// classification and regression benchmarks).
    Mse,
    /// Binary/multi-label cross-entropy on sigmoid outputs.
    CrossEntropy,
}

/// One stage of an extended layer chain.
///
/// Geometry is fully resolved (every stage knows its input shape), so a
/// `LayerSpec` slice is self-describing: consumers never re-derive shapes
/// from neighbours. Spatial data is flattened channel-last:
/// element `(y, x, c)` of an `h × w × c` tensor lives at
/// `(y·w + x)·c + c` in the activation vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerSpec {
    /// A fully-connected layer: `units` neurons over `inputs` inputs.
    Dense {
        /// Fan-in (flattened input width).
        inputs: usize,
        /// Fan-out (number of neurons).
        units: usize,
        /// Activation applied to each neuron.
        act: Activation,
    },
    /// A valid-padding, stride-1 2-D convolution over an
    /// `in_h × in_w × in_c` input, producing
    /// `(in_h−kernel+1) × (in_w−kernel+1) × filters`.
    ///
    /// Each filter is one hardware "neuron": its `kernel²·in_c` taps are
    /// that neuron's fan-in weights, stored row-major over
    /// `(ky, kx, c)` — tap `(ky, kx, c)` is weight column
    /// `(ky·kernel + kx)·in_c + c`.
    Conv2d {
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Input channels.
        in_c: usize,
        /// Number of filters (output channels).
        filters: usize,
        /// Square kernel side length.
        kernel: usize,
        /// Activation applied to each output element.
        act: Activation,
    },
    /// Non-overlapping `window × window` max-pooling over an
    /// `in_h × in_w × channels` input; both spatial dims must divide by
    /// `window`. Carries no parameters and no activation.
    MaxPool {
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Channels (passed through).
        channels: usize,
        /// Square pooling window side length.
        window: usize,
    },
}

impl LayerSpec {
    /// Flattened input width of the stage.
    pub fn in_width(&self) -> usize {
        match *self {
            LayerSpec::Dense { inputs, .. } => inputs,
            LayerSpec::Conv2d {
                in_h, in_w, in_c, ..
            } => in_h * in_w * in_c,
            LayerSpec::MaxPool {
                in_h,
                in_w,
                channels,
                ..
            } => in_h * in_w * channels,
        }
    }

    /// Flattened output width of the stage.
    pub fn out_width(&self) -> usize {
        match *self {
            LayerSpec::Dense { units, .. } => units,
            LayerSpec::Conv2d {
                in_h,
                in_w,
                filters,
                kernel,
                ..
            } => (in_h - kernel + 1) * (in_w - kernel + 1) * filters,
            LayerSpec::MaxPool {
                in_h,
                in_w,
                channels,
                window,
            } => (in_h / window) * (in_w / window) * channels,
        }
    }

    /// Output shape as `(height, width, channels)`; dense output is a
    /// `1 × 1 × units` "image" so a dense stage can feed a spatial one
    /// only via another dense stage.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        match *self {
            LayerSpec::Dense { units, .. } => (1, 1, units),
            LayerSpec::Conv2d {
                in_h,
                in_w,
                filters,
                kernel,
                ..
            } => (in_h - kernel + 1, in_w - kernel + 1, filters),
            LayerSpec::MaxPool {
                in_h,
                in_w,
                channels,
                window,
            } => (in_h / window, in_w / window, channels),
        }
    }

    /// Weight-matrix extent as `(rows, cols)` = (neurons, fan-in per
    /// neuron): dense `(units, inputs)`, convolution
    /// `(filters, kernel²·in_c)`, pooling `(0, 0)` (no parameters).
    ///
    /// This is the shape every parameter consumer (SRAM layout, composed
    /// weights, fault masks, microcode) walks — the layer-chain
    /// generalization of the MLP's `layers.windows(2)`.
    pub fn weight_extent(&self) -> (usize, usize) {
        match *self {
            LayerSpec::Dense { inputs, units, .. } => (units, inputs),
            LayerSpec::Conv2d {
                in_c,
                filters,
                kernel,
                ..
            } => (filters, kernel * kernel * in_c),
            LayerSpec::MaxPool { .. } => (0, 0),
        }
    }

    /// The stage's activation; `None` for pooling (pure routing).
    pub fn activation(&self) -> Option<Activation> {
        match *self {
            LayerSpec::Dense { act, .. } | LayerSpec::Conv2d { act, .. } => Some(act),
            LayerSpec::MaxPool { .. } => None,
        }
    }

    /// Whether the stage carries trainable parameters.
    pub fn has_params(&self) -> bool {
        !matches!(self, LayerSpec::MaxPool { .. })
    }

    /// A compact human-readable tag, e.g. `conv3x4`, `pool2`, `dense10`.
    pub fn tag(&self) -> String {
        match *self {
            LayerSpec::Dense { units, .. } => format!("dense{units}"),
            LayerSpec::Conv2d {
                filters, kernel, ..
            } => format!("conv{kernel}x{filters}"),
            LayerSpec::MaxPool { window, .. } => format!("pool{window}"),
        }
    }
}

/// A structured, recoverable error from building or validating a
/// [`NetSpec`]. Before the chain builder existed, these conditions
/// panicked deep inside `Mlp::init`; the builder surfaces them at
/// construction time instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Fewer than two stages (input + at least one parameterized layer).
    TooShallow {
        /// Number of stages provided (input included).
        stages: usize,
    },
    /// A zero-width layer or shape dimension.
    ZeroWidth {
        /// Stage index (0 = input).
        index: usize,
    },
    /// Network input/output widths disagree with the dataset's sample
    /// shape.
    IoMismatch {
        /// Input width the dataset provides.
        expected_inputs: usize,
        /// Output width the dataset's targets have.
        expected_outputs: usize,
        /// Input width the spec declares.
        inputs: usize,
        /// Output width the spec declares.
        outputs: usize,
    },
    /// A stage's geometry is impossible (kernel larger than the input,
    /// window not dividing the extent, spatial op on flat data, a size
    /// or parameter count that overflows `usize`…).
    Geometry {
        /// Chain position of the offending stage (0-based).
        layer: usize,
        /// What is wrong.
        reason: String,
    },
    /// A topology string could not be parsed.
    Parse {
        /// The offending token.
        token: String,
        /// What was expected.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::TooShallow { stages } => write!(
                f,
                "need an input and at least one layer (got {stages} stage(s))"
            ),
            SpecError::ZeroWidth { index } => {
                write!(f, "zero-width layer at stage {index}")
            }
            SpecError::IoMismatch {
                expected_inputs,
                expected_outputs,
                inputs,
                outputs,
            } => write!(
                f,
                "topology is {inputs} in / {outputs} out but the dataset \
                 samples are {expected_inputs} in / {expected_outputs} out"
            ),
            SpecError::Geometry { layer, reason } => {
                write!(f, "layer {layer}: {reason}")
            }
            SpecError::Parse { token, reason } => {
                write!(f, "cannot parse `{token}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Topology + activation specification of a network: either the paper's
/// plain dense MLP (e.g. the `100-32-10` MNIST model, Table I) or an
/// extended layer chain built with [`NetSpec::builder`].
///
/// The public fields describe the stage widths and the MLP activations;
/// for extended chains, [`NetSpec::layer_spec`] is authoritative and
/// `layers` holds the flattened width of every stage.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Flattened stage widths, input first, e.g. `[100, 32, 10]`.
    pub layers: Vec<usize>,
    /// Activation of hidden layers (plain MLPs; chains carry their own).
    pub hidden: Activation,
    /// Activation of the output layer (plain MLPs; chains carry their
    /// own).
    pub output: Activation,
    /// Training loss.
    pub loss: Loss,
    /// Extended stages; empty means "plain dense MLP described by the
    /// public fields". Kept private so the empty-chain invariant (and
    /// with it the legacy serialized form) cannot be broken from outside.
    chain: Vec<LayerSpec>,
}

impl NetSpec {
    /// General constructor (MSE loss).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layers or any zero-width layer is given,
    /// or if the parameter count overflows `usize`.
    /// Use [`NetSpec::try_new`] for a non-panicking, structured-error
    /// variant.
    pub fn new(layers: &[usize], hidden: Activation, output: Activation) -> Self {
        Self::try_new(layers, hidden, output).unwrap_or_else(|e| match e {
            SpecError::TooShallow { .. } => panic!("need input and output layers"),
            SpecError::ZeroWidth { .. } => panic!("zero-width layer"),
            other => panic!("{other}"),
        })
    }

    /// Non-panicking [`NetSpec::new`]: returns a [`SpecError`] instead of
    /// panicking on too-shallow, zero-width or overflowing layer lists.
    pub fn try_new(
        layers: &[usize],
        hidden: Activation,
        output: Activation,
    ) -> Result<Self, SpecError> {
        if layers.len() < 2 {
            return Err(SpecError::TooShallow {
                stages: layers.len(),
            });
        }
        if let Some(index) = layers.iter().position(|&n| n == 0) {
            return Err(SpecError::ZeroWidth { index });
        }
        check_param_count(layers.windows(2).map(|w| (w[1], w[0])))?;
        Ok(NetSpec {
            layers: layers.to_vec(),
            hidden,
            output,
            loss: Loss::Mse,
            chain: Vec::new(),
        })
    }

    /// A classifier: sigmoid hidden and output units with cross-entropy
    /// loss, one output per class (argmax decision) or a single
    /// thresholded output. Cross-entropy keeps the output-layer gradient
    /// from vanishing on saturated sigmoids, which matters at the paper's
    /// nominal-error targets (single-digit percent on MNIST).
    pub fn classifier(layers: &[usize]) -> Self {
        NetSpec {
            loss: Loss::CrossEntropy,
            ..Self::new(layers, Activation::Sigmoid, Activation::Sigmoid)
        }
    }

    /// A regressor: sigmoid hidden units, linear output, MSE loss.
    pub fn regressor(layers: &[usize]) -> Self {
        Self::new(layers, Activation::Sigmoid, Activation::Linear)
    }

    /// Starts building a layer chain; see [`NetSpecBuilder`].
    pub fn builder() -> NetSpecBuilder {
        NetSpecBuilder::new()
    }

    /// Number of parameterized chain positions (pooling stages count —
    /// they occupy a position with an empty weight extent).
    pub fn depth(&self) -> usize {
        self.layers.len() - 1
    }

    /// Whether this spec is a plain dense MLP (no extended chain).
    pub fn is_plain_dense(&self) -> bool {
        self.chain.is_empty()
    }

    /// The extended chain, if any.
    pub fn chain(&self) -> Option<&[LayerSpec]> {
        if self.chain.is_empty() {
            None
        } else {
            Some(&self.chain)
        }
    }

    /// The resolved stage at chain position `l` (plain MLPs synthesize a
    /// dense stage from the width list).
    ///
    /// # Panics
    ///
    /// Panics if `l >= depth()`.
    pub fn layer_spec(&self, l: usize) -> LayerSpec {
        if self.chain.is_empty() {
            LayerSpec::Dense {
                inputs: self.layers[l],
                units: self.layers[l + 1],
                act: self.activation(l),
            }
        } else {
            self.chain[l]
        }
    }

    /// Per-layer weight extents `(rows, cols)` = (neurons, fan-in per
    /// neuron) — the shape every parameter consumer walks. Pooling
    /// stages report `(0, 0)`. For plain MLPs this equals the classic
    /// `layers.windows(2)` pairing.
    pub fn param_extents(&self) -> Vec<(usize, usize)> {
        if self.chain.is_empty() {
            self.layers.windows(2).map(|w| (w[1], w[0])).collect()
        } else {
            self.chain.iter().map(LayerSpec::weight_extent).collect()
        }
    }

    /// Total trainable parameters (weights + biases) — the x-axis of the
    /// paper's topology-selection study (Fig. 9b). Specs built by
    /// [`NetSpec::try_new`] or [`NetSpec::builder`] are checked to keep
    /// this count within `usize`.
    pub fn param_count(&self) -> usize {
        self.param_extents()
            .iter()
            .map(|&(rows, cols)| rows * (cols + 1))
            .sum()
    }

    /// Activation for parameterized layer `l` (0-based; the last layer
    /// uses the output activation). Pooling stages, which apply none,
    /// report [`Activation::Linear`] — the identity, whose derivative is
    /// exactly 1 — so generic forward/backward chain walks need no
    /// special case.
    pub fn activation(&self, l: usize) -> Activation {
        if let Some(chain) = self.chain() {
            return chain[l].activation().unwrap_or(Activation::Linear);
        }
        if l + 1 == self.depth() {
            self.output
        } else {
            self.hidden
        }
    }

    /// Checks the spec's input/output widths against a dataset's sample
    /// shape, returning [`SpecError::IoMismatch`] on disagreement. Before
    /// this existed, mismatched topologies panicked mid-training inside
    /// the forward pass.
    pub fn validate_io(&self, inputs: usize, outputs: usize) -> Result<(), SpecError> {
        let got_in = self.layers[0];
        let got_out = *self.layers.last().unwrap();
        if got_in != inputs || got_out != outputs {
            return Err(SpecError::IoMismatch {
                expected_inputs: inputs,
                expected_outputs: outputs,
                inputs: got_in,
                outputs: got_out,
            });
        }
        Ok(())
    }

    /// Rewrites the output activation (chains rewrite their last
    /// parameterized stage). Used when a parsed topology is attached to a
    /// scenario whose metric dictates the output unit.
    pub fn with_output_activation(mut self, act: Activation) -> Self {
        self.output = act;
        if let Some(last) = self.chain.iter_mut().rev().find(|l| l.has_params()) {
            match last {
                LayerSpec::Dense { act: a, .. } | LayerSpec::Conv2d { act: a, .. } => *a = act,
                LayerSpec::MaxPool { .. } => unreachable!("has_params filtered pools"),
            }
        }
        self
    }

    /// Sets the training loss.
    pub fn with_loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// A compact tag naming the topology, e.g. `mlp100x32x10` or
    /// `conv3x4-pool2-dense10`.
    pub fn tag(&self) -> String {
        match self.chain() {
            None => {
                let widths: Vec<String> = self.layers.iter().map(usize::to_string).collect();
                format!("mlp{}", widths.join("x"))
            }
            Some(chain) => chain
                .iter()
                .map(LayerSpec::tag)
                .collect::<Vec<_>>()
                .join("-"),
        }
    }

    /// Parses a compact topology string into a spec (sigmoid activations,
    /// MSE loss — callers adjust via [`NetSpec::with_output_activation`] /
    /// [`NetSpec::with_loss`]).
    ///
    /// Grammar: stages separated by `;` or `,`. The first stage is the
    /// input — `N` (flat) or `HxWxC` (image). Each following stage is
    /// `denseN` (or a bare width `N`), `convKxF` (kernel `K`, `F`
    /// filters) or `poolW` (window `W`).
    ///
    /// ```
    /// use matic_nn::NetSpec;
    ///
    /// let mlp = NetSpec::parse_topology("100;32;10").unwrap();
    /// assert_eq!(mlp.layers, [100, 32, 10]);
    /// assert!(mlp.is_plain_dense());
    ///
    /// let conv = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
    /// assert_eq!(conv.layers, [100, 256, 64, 10]);
    /// assert!(!conv.is_plain_dense());
    /// ```
    pub fn parse_topology(s: &str) -> Result<Self, SpecError> {
        let mut stages = s.split([';', ',']).map(str::trim).filter(|t| !t.is_empty());
        let input = stages.next().ok_or(SpecError::TooShallow { stages: 0 })?;
        let parse_dims = |tok: &str| -> Result<Vec<usize>, SpecError> {
            tok.split('x')
                .map(|d| {
                    d.parse::<usize>().map_err(|_| SpecError::Parse {
                        token: tok.to_string(),
                        reason: "expected an integer dimension".into(),
                    })
                })
                .collect()
        };
        let mut b = NetSpec::builder();
        match parse_dims(input)?.as_slice() {
            [n] => b = b.input(*n),
            [h, w, c] => b = b.input_image(*h, *w, *c),
            _ => {
                return Err(SpecError::Parse {
                    token: input.to_string(),
                    reason: "input must be `N` or `HxWxC`".into(),
                })
            }
        }
        for tok in stages {
            if let Some(rest) = tok.strip_prefix("conv") {
                match parse_dims(rest)?.as_slice() {
                    [k, f] => b = b.conv2d(*f, *k, Activation::Sigmoid),
                    _ => {
                        return Err(SpecError::Parse {
                            token: tok.to_string(),
                            reason: "expected `convKxF` (kernel x filters)".into(),
                        })
                    }
                }
            } else if let Some(rest) = tok.strip_prefix("pool") {
                match parse_dims(rest)?.as_slice() {
                    [w] => b = b.max_pool(*w),
                    _ => {
                        return Err(SpecError::Parse {
                            token: tok.to_string(),
                            reason: "expected `poolW` (window)".into(),
                        })
                    }
                }
            } else {
                let rest = tok.strip_prefix("dense").unwrap_or(tok);
                match parse_dims(rest)?.as_slice() {
                    [n] => b = b.dense(*n, Activation::Sigmoid),
                    _ => {
                        return Err(SpecError::Parse {
                            token: tok.to_string(),
                            reason: "expected `denseN` or a bare width".into(),
                        })
                    }
                }
            }
        }
        b.build()
    }
}

// The serialized form is load-bearing: topology fingerprints feed sweep
// cache keys and plan digests. Plain MLPs must emit exactly the legacy
// four-field map (so every pre-chain fingerprint survives); extended
// chains append a fifth `chain` field and thus fingerprint distinctly.
impl Serialize for NetSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("layers".to_string(), self.layers.to_value()),
            ("hidden".to_string(), self.hidden.to_value()),
            ("output".to_string(), self.output.to_value()),
            ("loss".to_string(), self.loss.to_value()),
        ];
        if !self.chain.is_empty() {
            fields.push(("chain".to_string(), self.chain.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for NetSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::custom(format!("NetSpec: missing field `{name}`")))
        };
        Ok(NetSpec {
            layers: Vec::<usize>::from_value(field("layers")?)?,
            hidden: Activation::from_value(field("hidden")?)?,
            output: Activation::from_value(field("output")?)?,
            loss: Loss::from_value(field("loss")?)?,
            chain: match v.get("chain") {
                Some(c) => Vec::<LayerSpec>::from_value(c)?,
                None => Vec::new(),
            },
        })
    }
}

/// The running shape inside [`NetSpecBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Flat(usize),
    Image(usize, usize, usize),
}

impl Shape {
    /// Flattened width; `None` when `h·w·c` overflows `usize`.
    fn width(self) -> Option<usize> {
        match self {
            Shape::Flat(n) => Some(n),
            Shape::Image(h, w, c) => h.checked_mul(w)?.checked_mul(c),
        }
    }
}

/// Checks that every stage's parameter count `rows·(cols + 1)`, and
/// their total, fit in `usize`, so [`NetSpec::param_count`] cannot wrap.
fn check_param_count(extents: impl Iterator<Item = (usize, usize)>) -> Result<(), SpecError> {
    let mut total = 0usize;
    for (layer, (rows, cols)) in extents.enumerate() {
        total = cols
            .checked_add(1)
            .and_then(|c| rows.checked_mul(c))
            .and_then(|n| total.checked_add(n))
            .ok_or_else(|| SpecError::Geometry {
                layer,
                reason: "parameter count overflows usize".into(),
            })?;
    }
    Ok(())
}

/// Builds a [`NetSpec`] layer chain with structured validation: every
/// geometry problem surfaces as a [`SpecError`] from
/// [`NetSpecBuilder::build`] instead of a panic deep inside `Mlp::init`.
///
/// A chain of dense stages with uniform hidden activation collapses to a
/// plain-MLP spec (empty chain), so builder-made MLPs are
/// fingerprint-identical to [`NetSpec::new`]-made ones.
///
/// # Examples
///
/// ```
/// use matic_nn::{Activation, NetSpec};
///
/// let spec = NetSpec::builder()
///     .input_image(10, 10, 1)
///     .conv2d(4, 3, Activation::Sigmoid)
///     .max_pool(2)
///     .dense(10, Activation::Sigmoid)
///     .build()
///     .unwrap();
/// assert_eq!(spec.layers, [100, 8 * 8 * 4, 4 * 4 * 4, 10]);
/// assert_eq!(spec.depth(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetSpecBuilder {
    input: Option<Shape>,
    cur: Option<Shape>,
    chain: Vec<LayerSpec>,
    loss: Loss,
    error: Option<SpecError>,
}

// Manual rather than derived: the vendored serde_derive does not parse
// variant attributes, so `#[default]` cannot ride on `Mse`.
#[allow(clippy::derivable_impls)]
impl Default for Loss {
    fn default() -> Self {
        Loss::Mse
    }
}

impl NetSpecBuilder {
    fn new() -> Self {
        NetSpecBuilder {
            input: None,
            cur: None,
            chain: Vec::new(),
            loss: Loss::Mse,
            error: None,
        }
    }

    fn fail(&mut self, e: SpecError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn cur_or_fail(&mut self) -> Option<Shape> {
        if self.cur.is_none() && self.error.is_none() {
            self.fail(SpecError::TooShallow { stages: 0 });
        }
        self.cur
    }

    /// Declares a flat input of `n` elements.
    pub fn input(mut self, n: usize) -> Self {
        if n == 0 {
            self.fail(SpecError::ZeroWidth { index: 0 });
        }
        self.input = Some(Shape::Flat(n));
        self.cur = self.input;
        self
    }

    /// Declares an `h × w × c` image input (flattened channel-last).
    pub fn input_image(mut self, h: usize, w: usize, c: usize) -> Self {
        let shape = Shape::Image(h, w, c);
        if h == 0 || w == 0 || c == 0 {
            self.fail(SpecError::ZeroWidth { index: 0 });
        } else if shape.width().is_none() {
            self.fail(SpecError::Geometry {
                layer: 0,
                reason: format!("the {h}x{w}x{c} input overflows usize"),
            });
        }
        self.input = Some(shape);
        self.cur = self.input;
        self
    }

    /// Appends a dense stage of `units` neurons.
    pub fn dense(mut self, units: usize, act: Activation) -> Self {
        // A shape without a width already recorded its overflow.
        let Some(inputs) = self.cur_or_fail().and_then(Shape::width) else {
            return self;
        };
        if units == 0 {
            self.fail(SpecError::ZeroWidth {
                index: self.chain.len() + 1,
            });
            return self;
        }
        self.chain.push(LayerSpec::Dense { inputs, units, act });
        self.cur = Some(Shape::Flat(units));
        self
    }

    /// Appends a valid-padding stride-1 convolution of `filters` square
    /// `kernel × kernel` filters. Requires an image-shaped input.
    pub fn conv2d(mut self, filters: usize, kernel: usize, act: Activation) -> Self {
        let Some(cur) = self.cur_or_fail() else {
            return self;
        };
        let layer = self.chain.len();
        if filters == 0 || kernel == 0 {
            self.fail(SpecError::ZeroWidth { index: layer + 1 });
            return self;
        }
        let Shape::Image(h, w, c) = cur else {
            self.fail(SpecError::Geometry {
                layer,
                reason: "conv2d needs an image-shaped input (use input_image)".into(),
            });
            return self;
        };
        if kernel > h || kernel > w {
            self.fail(SpecError::Geometry {
                layer,
                reason: format!("kernel {kernel} exceeds the {h}x{w} input"),
            });
            return self;
        }
        let out = Shape::Image(h - kernel + 1, w - kernel + 1, filters);
        if out.width().is_none() {
            self.fail(SpecError::Geometry {
                layer,
                reason: format!("{filters} filters over the {h}x{w} input overflow usize"),
            });
            return self;
        }
        self.chain.push(LayerSpec::Conv2d {
            in_h: h,
            in_w: w,
            in_c: c,
            filters,
            kernel,
            act,
        });
        self.cur = Some(out);
        self
    }

    /// Appends a non-overlapping `window × window` max-pooling stage.
    /// Requires an image-shaped input whose spatial dims divide by
    /// `window`.
    pub fn max_pool(mut self, window: usize) -> Self {
        let Some(cur) = self.cur_or_fail() else {
            return self;
        };
        let layer = self.chain.len();
        if window == 0 {
            self.fail(SpecError::ZeroWidth { index: layer + 1 });
            return self;
        }
        let Shape::Image(h, w, c) = cur else {
            self.fail(SpecError::Geometry {
                layer,
                reason: "max_pool needs an image-shaped input".into(),
            });
            return self;
        };
        if h % window != 0 || w % window != 0 {
            self.fail(SpecError::Geometry {
                layer,
                reason: format!("window {window} does not divide the {h}x{w} input"),
            });
            return self;
        }
        self.chain.push(LayerSpec::MaxPool {
            in_h: h,
            in_w: w,
            channels: c,
            window,
        });
        self.cur = Some(Shape::Image(h / window, w / window, c));
        self
    }

    /// Sets the training loss (default MSE).
    pub fn loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Validates and produces the spec.
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] recorded while the chain was assembled, or
    /// [`SpecError::TooShallow`] when no parameterized stage was added.
    pub fn build(self) -> Result<NetSpec, SpecError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let input = self.input.ok_or(SpecError::TooShallow { stages: 0 })?;
        if self.chain.is_empty() {
            return Err(SpecError::TooShallow { stages: 1 });
        }
        check_param_count(self.chain.iter().map(LayerSpec::weight_extent))?;
        let mut layers = Vec::with_capacity(self.chain.len() + 1);
        layers.push(input.width().expect("input width was checked"));
        for stage in &self.chain {
            layers.push(stage.out_width());
        }
        if let Some(index) = layers.iter().position(|&n| n == 0) {
            return Err(SpecError::ZeroWidth { index });
        }
        // A flat-input, all-dense chain with uniform hidden activation is
        // exactly a plain MLP: collapse to the legacy representation so
        // topology fingerprints match NetSpec::new-built specs.
        let dense_acts: Option<Vec<Activation>> = self
            .chain
            .iter()
            .map(|l| match *l {
                LayerSpec::Dense { act, .. } => Some(act),
                _ => None,
            })
            .collect();
        if let (Shape::Flat(_), Some(acts)) = (input, dense_acts) {
            let hidden_uniform = acts[..acts.len() - 1].windows(2).all(|w| w[0] == w[1]);
            if hidden_uniform {
                let output = *acts.last().unwrap();
                let hidden = acts.first().copied().unwrap_or(output);
                return Ok(NetSpec {
                    layers,
                    hidden,
                    output,
                    loss: self.loss,
                    chain: Vec::new(),
                });
            }
        }
        let output = self
            .chain
            .iter()
            .rev()
            .find_map(LayerSpec::activation)
            .unwrap_or(Activation::Linear);
        let hidden = self
            .chain
            .iter()
            .find_map(LayerSpec::activation)
            .unwrap_or(Activation::Sigmoid);
        Ok(NetSpec {
            layers,
            hidden,
            output,
            loss: self.loss,
            chain: self.chain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_hand_calculation() {
        // The paper's MNIST topology: 100-32-10.
        let spec = NetSpec::classifier(&[100, 32, 10]);
        assert_eq!(spec.param_count(), 100 * 32 + 32 + 32 * 10 + 10);
        assert_eq!(spec.depth(), 2);
    }

    #[test]
    fn activations_per_layer() {
        let spec = NetSpec::regressor(&[2, 16, 2]);
        assert_eq!(spec.activation(0), Activation::Sigmoid);
        assert_eq!(spec.activation(1), Activation::Linear);
    }

    #[test]
    #[should_panic(expected = "need input and output")]
    fn rejects_single_layer() {
        NetSpec::classifier(&[5]);
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn rejects_zero_width() {
        NetSpec::classifier(&[5, 0, 2]);
    }

    #[test]
    fn try_new_returns_structured_errors() {
        assert_eq!(
            NetSpec::try_new(&[5], Activation::Sigmoid, Activation::Sigmoid),
            Err(SpecError::TooShallow { stages: 1 })
        );
        assert_eq!(
            NetSpec::try_new(&[5, 0, 2], Activation::Sigmoid, Activation::Sigmoid),
            Err(SpecError::ZeroWidth { index: 1 })
        );
        assert!(NetSpec::try_new(&[5, 3], Activation::Sigmoid, Activation::Sigmoid).is_ok());
    }

    #[test]
    fn builder_collapses_plain_mlps_to_legacy_form() {
        let built = NetSpec::builder()
            .input(100)
            .dense(32, Activation::Sigmoid)
            .dense(10, Activation::Sigmoid)
            .loss(Loss::CrossEntropy)
            .build()
            .unwrap();
        let classic = NetSpec::classifier(&[100, 32, 10]);
        assert_eq!(built, classic);
        assert!(built.is_plain_dense());
        assert_eq!(built.to_value(), classic.to_value());
    }

    #[test]
    fn builder_validation_errors() {
        // Zero-width layers.
        assert_eq!(
            NetSpec::builder()
                .input(4)
                .dense(0, Activation::Sigmoid)
                .build(),
            Err(SpecError::ZeroWidth { index: 1 })
        );
        assert_eq!(
            NetSpec::builder().input(0).build(),
            Err(SpecError::ZeroWidth { index: 0 })
        );
        // Depth < 2 (no parameterized stage).
        assert_eq!(
            NetSpec::builder().input(4).build(),
            Err(SpecError::TooShallow { stages: 1 })
        );
        assert!(matches!(
            NetSpec::builder().build(),
            Err(SpecError::TooShallow { .. })
        ));
        // Spatial ops over flat data.
        assert!(matches!(
            NetSpec::builder()
                .input(16)
                .conv2d(2, 3, Activation::Relu)
                .build(),
            Err(SpecError::Geometry { layer: 0, .. })
        ));
        // Kernel larger than input.
        assert!(matches!(
            NetSpec::builder()
                .input_image(2, 2, 1)
                .conv2d(2, 3, Activation::Relu)
                .build(),
            Err(SpecError::Geometry { layer: 0, .. })
        ));
        // Pool window not dividing.
        assert!(matches!(
            NetSpec::builder().input_image(5, 5, 1).max_pool(2).build(),
            Err(SpecError::Geometry { layer: 0, .. })
        ));
        // Sizes that overflow usize are structured errors: parameter
        // counts, flattened image inputs and conv outputs.
        for (topology, layer) in [
            ("18446744073709551615;dense2", 0),
            ("2;18446744073709551615;dense2", 0),
            ("10x10x1;conv3x288230376151711744;dense10", 0),
            ("10x10x1;conv3x2;dense2305843009213693952;dense10", 1),
            ("4294967296x4294967296x1;dense2", 0),
            ("18446744073709551615x1x1;conv1x1;dense2", 1),
        ] {
            assert!(
                matches!(
                    NetSpec::parse_topology(topology),
                    Err(SpecError::Geometry { layer: l, .. }) if l == layer
                ),
                "{topology}: {:?}",
                NetSpec::parse_topology(topology)
            );
        }
        assert!(matches!(
            NetSpec::try_new(&[usize::MAX, 2], Activation::Sigmoid, Activation::Sigmoid),
            Err(SpecError::Geometry { layer: 0, .. })
        ));
    }

    #[test]
    fn io_mismatch_is_structured() {
        let spec = NetSpec::classifier(&[100, 32, 10]);
        assert!(spec.validate_io(100, 10).is_ok());
        assert_eq!(
            spec.validate_io(400, 1),
            Err(SpecError::IoMismatch {
                expected_inputs: 400,
                expected_outputs: 1,
                inputs: 100,
                outputs: 10,
            })
        );
    }

    #[test]
    fn conv_chain_shapes_and_extents() {
        let spec = NetSpec::builder()
            .input_image(10, 10, 1)
            .conv2d(4, 3, Activation::Sigmoid)
            .max_pool(2)
            .dense(10, Activation::Sigmoid)
            .loss(Loss::CrossEntropy)
            .build()
            .unwrap();
        assert_eq!(spec.layers, [100, 256, 64, 10]);
        assert_eq!(spec.param_extents(), [(4, 9), (0, 0), (10, 64)]);
        assert_eq!(spec.param_count(), 4 * 10 + 10 * 65);
        assert_eq!(spec.activation(0), Activation::Sigmoid);
        assert_eq!(spec.activation(1), Activation::Linear, "pool is identity");
        assert!(!spec.is_plain_dense());
        assert_eq!(spec.tag(), "conv3x4-pool2-dense10");
    }

    #[test]
    fn legacy_serialized_form_is_unchanged_for_plain_mlps() {
        let spec = NetSpec::classifier(&[100, 32, 10]);
        let v = spec.to_value();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["layers", "hidden", "output", "loss"],
            "plain MLPs must keep the pre-chain serialized shape"
        );
        let back = NetSpec::from_value(&v).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn extended_chains_round_trip_and_fingerprint_distinctly() {
        let conv = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
        let v = conv.to_value();
        assert!(v.get("chain").is_some());
        let back = NetSpec::from_value(&v).unwrap();
        assert_eq!(back, conv);
        // A plain MLP with the same stage widths serializes differently.
        let mlp = NetSpec::classifier(&[100, 256, 64, 10]);
        assert_ne!(mlp.to_value(), v);
    }

    #[test]
    fn parse_topology_accepts_mlps_and_chains() {
        let mlp = NetSpec::parse_topology("100;32;10").unwrap();
        assert_eq!(mlp.layers, [100, 32, 10]);
        assert!(mlp.is_plain_dense());
        let conv = NetSpec::parse_topology("10x10x1,conv3x4,pool2,dense10").unwrap();
        assert_eq!(conv.layers, [100, 256, 64, 10]);
        assert!(matches!(
            NetSpec::parse_topology("10x10;conv3x4"),
            Err(SpecError::Parse { .. })
        ));
        assert!(matches!(
            NetSpec::parse_topology("abc"),
            Err(SpecError::Parse { .. })
        ));
        assert!(matches!(
            NetSpec::parse_topology(""),
            Err(SpecError::TooShallow { .. })
        ));
    }

    #[test]
    fn output_activation_rewrite_reaches_chain_tails() {
        let conv = NetSpec::parse_topology("4x4x1;conv3x2;dense3")
            .unwrap()
            .with_output_activation(Activation::Linear);
        assert_eq!(conv.activation(1), Activation::Linear);
        let mlp = NetSpec::parse_topology("4;3;2")
            .unwrap()
            .with_output_activation(Activation::Linear);
        assert_eq!(mlp.activation(1), Activation::Linear);
    }
}
