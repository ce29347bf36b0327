//! Multi-layer perceptrons (Equation 2: `N(x) = tₙ ∘ … ∘ t₁`).
//!
//! An [`Mlp`] is the body of one QPPNet *neural unit*: a stack of dense
//! layers ending in an output layer whose first column is a latency estimate
//! and whose remaining columns are the learned "data vector" (paper §4.1).
//! Nothing here is specific to query plans — the plan structure lives in the
//! `qppnet` crate, which composes MLPs and routes input gradients between
//! them.

use crate::activation::Activation;
use crate::init::Init;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::optim::{LayerState, Optimizer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward stack of [`Dense`] layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached per-layer inputs and pre-activations from [`Mlp::forward_cached`],
/// consumed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// `inputs[i]` is the input to layer `i`; `inputs[0]` is the MLP input.
    inputs: Vec<Matrix>,
    /// `preacts[i]` is layer `i`'s pre-activation.
    preacts: Vec<Matrix>,
    /// Final activation of the last layer.
    output: Matrix,
}

impl MlpCache {
    /// The network output this cache was built from.
    pub fn output(&self) -> &Matrix {
        &self.output
    }

    /// The input matrix the forward pass consumed.
    pub fn input(&self) -> &Matrix {
        &self.inputs[0]
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths.
    ///
    /// `dims = [in, h1, …, out]`; hidden layers use `hidden_act`, the final
    /// layer uses `out_act`. The paper's neural units are
    /// `[input, 128 ×5, d+1]` with ReLU hidden activations and an identity
    /// output.
    ///
    /// # Panics
    /// Panics if fewer than two dims are supplied.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let n = dims.len() - 1;
        let mut layers = Vec::with_capacity(n);
        for i in 0..n {
            let act = if i + 1 == n { out_act } else { hidden_act };
            layers.push(Dense::new(dims[i], dims[i + 1], act, init, rng));
        }
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Borrows the layer stack (used by tests and the gradient checker).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutably borrows the layer stack.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut cur = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Forward pass caching everything [`Mlp::backward`] needs.
    pub fn forward_cached(&self, x: &Matrix) -> MlpCache {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut preacts = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            let (z, a) = layer.forward_cached(&cur);
            inputs.push(std::mem::replace(&mut cur, a));
            preacts.push(z);
        }
        MlpCache { inputs, preacts, output: cur }
    }

    /// Reverse pass: accumulates parameter gradients and returns `∂loss/∂x`.
    ///
    /// The returned input gradient is what lets a *plan-structured* network
    /// push errors from a parent unit into the output of its children.
    pub fn backward(&mut self, cache: &MlpCache, d_out: &Matrix) -> Matrix {
        let mut grad = d_out.clone();
        for i in (0..self.layers.len()).rev() {
            grad = self.layers[i].backward(&cache.inputs[i], &cache.preacts[i], &grad);
        }
        grad
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Scales all accumulated gradients by `s`.
    pub fn scale_grad(&mut self, s: f32) {
        for l in &mut self.layers {
            l.scale_grad(s);
        }
    }

    /// Applies accumulated gradients through `opt`, layer `i` against
    /// optimizer slot `state[i]` (see [`crate::OptState::layers_mut`]).
    ///
    /// # Panics
    /// Panics if `state` has fewer slots than the MLP has layers.
    pub fn apply_grads(&mut self, opt: &dyn Optimizer, state: &mut [LayerState]) {
        assert!(state.len() >= self.layers.len(), "one optimizer slot per layer");
        for (l, slot) in self.layers.iter_mut().zip(state) {
            l.apply_grads(opt, slot);
        }
    }

    /// Adds another MLP's accumulated gradients into this one's
    /// (`self.grad += other.grad`), leaving parameters untouched.
    ///
    /// This is the reduction step of data-parallel training: worker
    /// threads accumulate gradients into clones, which are then summed
    /// back into the master.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_grads_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.gw.add_scaled(&src.gw, 1.0);
            for (d, &s) in dst.gb.iter_mut().zip(&src.gb) {
                *d += s;
            }
        }
    }

    /// Copies parameters (not gradients) from another MLP of identical shape.
    ///
    /// Used by the transfer-learning warm start extension.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(dst.w.rows(), src.w.rows(), "weight shape mismatch");
            assert_eq!(dst.w.cols(), src.w.cols(), "weight shape mismatch");
            dst.w = src.w.clone();
            dst.b = src.b.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optim::Sgd;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Mlp::new(&[3, 8, 8, 2], Activation::Relu, Activation::Identity, Init::He, &mut rng)
    }

    #[test]
    fn shapes_and_param_counts() {
        let m = tiny_mlp(0);
        assert_eq!(m.in_dim(), 3);
        assert_eq!(m.out_dim(), 2);
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.num_params(), (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2));
    }

    #[test]
    fn forward_and_forward_cached_agree() {
        let m = tiny_mlp(1);
        let x = Matrix::from_fn(4, 3, |i, j| (i as f32 - j as f32) * 0.37);
        let plain = m.forward(&x);
        let cached = m.forward_cached(&x);
        assert_eq!(plain, *cached.output());
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        let mut m = tiny_mlp(2);
        let x = Matrix::from_rows(&[&[0.0, 0.0, 1.0], &[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0]]);
        let t = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]);
        let opt = Sgd::new(0.05, 0.9);
        let mut state = crate::OptState::new();
        let (initial, _) = loss::mse(&m.forward(&x), &t);
        for _ in 0..300 {
            let cache = m.forward_cached(&x);
            let (_, d) = loss::mse(cache.output(), &t);
            m.zero_grad();
            m.backward(&cache, &d);
            m.apply_grads(&opt, state.layers_mut(m.num_layers()));
        }
        let (final_, _) = loss::mse(&m.forward(&x), &t);
        assert!(final_ < initial * 0.05, "loss {initial} -> {final_}");
    }

    #[test]
    fn copy_params_from_clones_behaviour() {
        let src = tiny_mlp(5);
        let mut dst = tiny_mlp(6);
        let x = Matrix::from_fn(2, 3, |i, j| (i + j) as f32 * 0.2);
        assert_ne!(src.forward(&x), dst.forward(&x));
        dst.copy_params_from(&src);
        assert_eq!(src.forward(&x), dst.forward(&x));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let m = tiny_mlp(7);
        let x = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f32 * 0.11 - 0.4);
        let json = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(m.forward(&x), back.forward(&x));
    }
}
