//! Neuron activation functions.

use serde::{Deserialize, Serialize};

/// Activation function of a layer.
///
/// SNNAC's activation-function unit implements sigmoid and ReLU with
/// piecewise-linear approximation (§IV); `Tanh` and `Linear` are included
/// for regression outputs and experimentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Identity (regression outputs).
    Linear,
}

impl Activation {
    /// Applies the function.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)` (the form
    /// used by backprop, avoiding a second evaluation).
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert!(Activation::Sigmoid.apply(10.0) > 0.9999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.0001);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
            Activation::Linear,
        ] {
            for x in [-2.0f64, -0.5, 0.3, 1.7] {
                if act == Activation::Relu && x.abs() < eps {
                    continue; // kink
                }
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }
}
