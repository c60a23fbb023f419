//! Element-wise activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// An element-wise activation function.
///
/// The paper's networks use ELU units for the autoencoder and Sub-Q hidden
/// layers, and tanh/sigmoid inside the LSTM gates; all are provided here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f32),
    /// Exponential linear unit with the given `alpha`:
    /// `x` for `x > 0`, `alpha * (e^x - 1)` otherwise.
    Elu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
}

impl Activation {
    /// The ELU used throughout the paper (`alpha = 1`).
    pub const ELU: Activation = Activation::Elu(1.0);

    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            Activation::Elu(alpha) => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * (crate::fastmath::exp(x) - 1.0)
                }
            }
            Activation::Tanh => crate::fastmath::tanh(x),
            Activation::Sigmoid => crate::fastmath::sigmoid(x),
        }
    }

    /// Applies the activation to every element of a slice in place.
    ///
    /// Semantically identical to mapping [`Activation::apply`], but the
    /// exp-based activations dispatch to eight-lane SIMD kernels where the
    /// CPU supports them (bitwise identical to the scalar kernels — see
    /// `crate::simd`). All activation sweeps in the crate route through
    /// here so every code path applies the exact same function.
    pub fn apply_slice(self, xs: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Elu(alpha) => crate::simd::elu_inplace(xs, alpha),
            Activation::Tanh => crate::simd::tanh_inplace(xs),
            Activation::Sigmoid => crate::simd::sigmoid_inplace(xs),
            Activation::Relu | Activation::LeakyRelu(_) => {
                for x in xs {
                    *x = self.apply(*x);
                }
            }
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// *pre-activation* input `x` and the *post-activation* output `y`.
    ///
    /// Supplying both lets each variant pick whichever is cheaper
    /// (`sigmoid'(x) = y(1-y)`, `tanh'(x) = 1-y^2`, `elu'(x) = y + alpha`
    /// on the negative side).
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(slope) => {
                if x > 0.0 {
                    1.0
                } else {
                    slope
                }
            }
            Activation::Elu(alpha) => {
                if x > 0.0 {
                    1.0
                } else {
                    y + alpha
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }

    /// `grads[i] *= derivative(pre[i], post[i])` over equal-length slices,
    /// with one loop per variant: each arm passes a variant known at
    /// compile time, so [`Activation::derivative`] inlines to that
    /// variant's formula and the per-element body carries no `match`. The
    /// multiplies are the same as the element-wise form's, bit for bit.
    pub(crate) fn scale_by_derivative(self, grads: &mut [f32], pre: &[f32], post: &[f32]) {
        #[inline(always)]
        fn each(act: Activation, grads: &mut [f32], pre: &[f32], post: &[f32]) {
            for ((g, &x), &y) in grads.iter_mut().zip(pre).zip(post) {
                *g *= act.derivative(x, y);
            }
        }
        match self {
            // The derivative is 1: the multiply changes no bit.
            Activation::Linear => {}
            Activation::Relu => each(Activation::Relu, grads, pre, post),
            Activation::LeakyRelu(slope) => each(Activation::LeakyRelu(slope), grads, pre, post),
            Activation::Elu(alpha) => each(Activation::Elu(alpha), grads, pre, post),
            Activation::Tanh => each(Activation::Tanh, grads, pre, post),
            Activation::Sigmoid => each(Activation::Sigmoid, grads, pre, post),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_derivative(act: Activation, x: f32) {
        let eps = 1e-3_f32;
        let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
        let analytic = act.derivative(x, act.apply(x));
        assert!(
            (numeric - analytic).abs() < 2e-3,
            "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let points = [-2.0, -0.5, -0.1, 0.1, 0.5, 2.0];
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::ELU,
            Activation::Elu(0.5),
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            for &x in &points {
                check_derivative(act, x);
            }
        }
    }

    #[test]
    fn elu_is_continuous_at_zero() {
        let a = Activation::ELU;
        assert!((a.apply(1e-6) - a.apply(-1e-6)).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-7);
        assert!(s.apply(30.0) <= 1.0);
        assert!(s.apply(-30.0) >= 0.0);
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn elu_negative_side_saturates_at_minus_alpha() {
        let a = Activation::Elu(1.0);
        assert!(a.apply(-50.0) > -1.0 - 1e-6);
        assert!(a.apply(-50.0) < -0.99);
    }

    #[test]
    fn serde_round_trip() {
        let a = Activation::Elu(1.0);
        let json = serde_json::to_string(&a).unwrap();
        let b: Activation = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
