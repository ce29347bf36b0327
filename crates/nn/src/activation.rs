//! Activation functions and their derivatives.
//!
//! The paper uses rectified linear units (ReLU, Glorot et al. \[12\]) inside
//! every neural unit. The other activations are provided for ablations and
//! for the baselines' internals.

use serde::{Deserialize, Serialize};

/// Slope of the negative branch of [`Activation::LeakyRelu`].
pub const LEAKY_SLOPE: f32 = 0.01;

/// A differentiable elementwise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, z)` — the paper's choice for all hidden layers.
    Relu,
    /// `max(0.01·z, z)`; avoids dead units in very deep stacks.
    LeakyRelu,
    /// Logistic sigmoid `1 / (1 + e^{-z})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (used by output layers producing unconstrained latencies).
    Identity,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, z: f32) -> f32 {
        match self {
            Activation::Relu => z.max(0.0),
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    z
                } else {
                    LEAKY_SLOPE * z
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            Activation::Tanh => z.tanh(),
            Activation::Identity => z,
        }
    }

    /// Derivative with respect to the pre-activation `z`.
    #[inline]
    pub fn derivative(self, z: f32) -> f32 {
        match self {
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if z >= 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(z);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// Derivative with respect to the pre-activation, computed **from the
    /// activation output** `a = apply(z)` instead of `z`.
    ///
    /// Every activation in this crate admits this form (ReLU-family
    /// outputs preserve the sign information the derivative needs; sigmoid
    /// and tanh derivatives are textbook functions of their output), and
    /// it is what lets the wavefront training tape record only layer
    /// *activations* — halving tape memory versus caching pre-activations
    /// alongside. For ReLU and Identity (the units' activations) this
    /// agrees with [`Activation::derivative`] **exactly everywhere**,
    /// kink included: `a > 0 ⟺ z > 0`. For LeakyRelu the agreement has
    /// one unreachable-in-practice hole: a negative `z` tiny enough that
    /// `0.01·z` underflows to `-0.0` (|z| below ~7e-44, deep subnormal
    /// territory) is indistinguishable from `z = -0.0` in the output, and
    /// this function returns the `z = -0.0` answer (slope 1).
    #[inline]
    pub fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            // Negative pre-activations map to negative outputs (slope
            // 0.01 preserves sign down to the subnormal-underflow hole
            // documented above); `±0.0 >= 0.0` is true for both zeros,
            // matching `derivative`'s `z >= 0.0` at `z = ±0.0`.
            Activation::LeakyRelu => {
                if a >= 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Tanh => 1.0 - a * a,
            Activation::Identity => 1.0,
        }
    }
}

/// Fused activation backward: `d ⊙= act'(z)` computed from the recorded
/// *activations* `a` (see [`Activation::derivative_from_output`]) — the
/// reverse-mode mirror of the packed serving forward
/// [`crate::PackedDense::forward_into`], which never materializes
/// pre-activations either. Identity is a no-op (no pass over `d` at all).
///
/// # Panics
/// Panics on shape mismatch, naming both shapes.
pub fn activation_backward_inplace(d: &mut crate::Matrix, a: &crate::Matrix, act: Activation) {
    // Shape-check before the Identity fast path: identity output layers
    // are the most common call site, and a mis-paired gradient buffer
    // must fail here with named shapes, not downstream in a gemm.
    assert!(
        d.rows() == a.rows() && d.cols() == a.cols(),
        "activation backward shape mismatch: grads {}x{}, activations {}x{}",
        d.rows(),
        d.cols(),
        a.rows(),
        a.cols()
    );
    if act == Activation::Identity {
        return;
    }
    for (dv, &av) in d.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *dv *= act.derivative_from_output(av);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negative_values() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn sigmoid_is_centered_at_half() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn identity_derivative_is_one() {
        assert_eq!(Activation::Identity.derivative(123.0), 1.0);
    }

    /// Central-difference check of every activation derivative.
    fn numeric_derivative(act: Activation, z: f32) -> f32 {
        let h = 1e-3;
        (act.apply(z + h) - act.apply(z - h)) / (2.0 * h)
    }

    proptest! {
        /// `derivative_from_output(apply(z))` must agree with
        /// `derivative(z)` at every representable point of this range —
        /// including ReLU-family kinks — or the tape backward (which
        /// records activations only) would silently diverge from the
        /// cached-preactivation backward. (LeakyRelu's documented
        /// subnormal-underflow hole sits ~40 orders of magnitude below
        /// this sample range.)
        #[test]
        fn derivative_from_output_matches_derivative(
            z in -4.0f32..4.0,
            which in 0usize..5,
        ) {
            let act = [
                Activation::Relu,
                Activation::LeakyRelu,
                Activation::Sigmoid,
                Activation::Tanh,
                Activation::Identity,
            ][which];
            let from_z = act.derivative(z);
            let from_a = act.derivative_from_output(act.apply(z));
            // Sigmoid/tanh recompute through their output; allow rounding.
            prop_assert!((from_z - from_a).abs() <= 1e-6 * (1.0 + from_z.abs()),
                "{act:?} at {z}: from z {from_z} vs from output {from_a}");
        }

        #[test]
        fn derivatives_match_numeric(
            z in -4.0f32..4.0,
            which in 0usize..5,
        ) {
            let act = [
                Activation::Relu,
                Activation::LeakyRelu,
                Activation::Sigmoid,
                Activation::Tanh,
                Activation::Identity,
            ][which];
            // ReLU-family derivatives are discontinuous at 0; skip the kink.
            prop_assume!(z.abs() > 1e-2);
            let analytic = act.derivative(z);
            let numeric = numeric_derivative(act, z);
            prop_assert!((analytic - numeric).abs() < 1e-2,
                "{act:?} at {z}: analytic {analytic} vs numeric {numeric}");
        }
    }
}
