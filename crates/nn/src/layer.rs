//! A single dense (affine + activation) layer with exact gradients.
//!
//! Implements Equation 1 of the paper, `t(x) = S(W·x + b)`, batched over the
//! rows of a [`Matrix`]. Weights are stored `in × out` so the forward pass is
//! a plain `X·W` and no transposes are materialized anywhere in training.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optim::{LayerState, Optimizer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = act(x·W + b)` with gradient accumulators.
///
/// The accumulators are training state, not parameters: serialization
/// leaves them out (`#[serde(skip)]`), and a new or deserialized layer
/// holds them empty until something writes a gradient, which sizes them
/// first ([`Dense::ensure_grads`]). A model that only serves never
/// allocates them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Elementwise nonlinearity.
    pub act: Activation,
    /// Accumulated weight gradient: empty, or the shape of `w`.
    #[serde(skip)]
    pub gw: Matrix,
    /// Accumulated bias gradient: empty, or the length of `b`.
    #[serde(skip)]
    pub gb: Vec<f32>,
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, init: Init, rng: &mut impl Rng) -> Self {
        Dense {
            w: init.matrix(in_dim, out_dim, rng),
            b: vec![0.0; out_dim],
            act,
            gw: Matrix::default(),
            gb: Vec::new(),
        }
    }

    /// Sizes the gradient accumulators to the parameters' shapes, zeroed,
    /// unless they already are — every gradient writer calls this first,
    /// so only a layer that trains allocates them.
    pub fn ensure_grads(&mut self) {
        if (self.gw.rows(), self.gw.cols()) != (self.w.rows(), self.w.cols()) {
            self.gw = Matrix::zeros(self.w.rows(), self.w.cols());
        }
        if self.gb.len() != self.b.len() {
            self.gb = vec![0.0; self.b.len()];
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass returning `(pre_activation, activation)`.
    ///
    /// The pre-activation is needed by [`Dense::backward`]; use
    /// [`Dense::forward`] when gradients are not required.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut z = x.matmul(&self.w);
        z.add_row_inplace(&self.b);
        let mut a = z.clone();
        let act = self.act;
        if act != Activation::Identity {
            a.map_inplace(|v| act.apply(v));
        }
        (z, a)
    }

    /// Forward pass returning only the activation.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_inplace(&self.b);
        let act = self.act;
        if act != Activation::Identity {
            z.map_inplace(|v| act.apply(v));
        }
        z
    }

    /// Backward pass.
    ///
    /// Given the layer input `x`, the cached pre-activation `z` and the
    /// gradient `d_out` of the loss w.r.t. this layer's *activation*,
    /// accumulates `gw`/`gb` and returns the gradient w.r.t. `x`.
    pub fn backward(&mut self, x: &Matrix, z: &Matrix, d_out: &Matrix) -> Matrix {
        debug_assert_eq!(d_out.rows(), x.rows());
        debug_assert_eq!(d_out.cols(), self.out_dim());
        // dZ = d_out ⊙ act'(z)
        let mut dz = d_out.clone();
        if self.act != Activation::Identity {
            let act = self.act;
            for (dv, &zv) in dz.as_mut_slice().iter_mut().zip(z.as_slice()) {
                *dv *= act.derivative(zv);
            }
        }
        // dW += Xᵀ·dZ ; db += colsum(dZ) ; dX = dZ·Wᵀ
        self.ensure_grads();
        x.matmul_at_b_into(&dz, &mut self.gw);
        dz.col_sum_into(&mut self.gb);
        dz.matmul_a_bt(&self.w)
    }

    /// Clears accumulated gradients (sizing them first if empty).
    pub fn zero_grad(&mut self) {
        self.ensure_grads();
        self.gw.fill_zero();
        self.gb.fill(0.0);
    }

    /// Scales accumulated gradients (used for batch-size normalization).
    pub fn scale_grad(&mut self, s: f32) {
        self.gw.scale_inplace(s);
        for g in &mut self.gb {
            *g *= s;
        }
    }

    /// Applies the accumulated gradients through `opt`: one elementwise
    /// update of the weights and one of the biases, against this layer's
    /// optimizer slot `state`.
    pub fn apply_grads(&mut self, opt: &dyn Optimizer, state: &mut LayerState) {
        self.ensure_grads();
        opt.update_matrix(&mut state.w, &mut self.w, &self.gw);
        opt.update(&mut state.b, &mut self.b, &self.gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        Dense::new(4, 3, Activation::Relu, Init::He, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer();
        let x = Matrix::zeros(5, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn forward_matches_manual_single_row() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let l = Dense::new(2, 2, Activation::Identity, Init::Xavier, &mut rng);
        let x = Matrix::from_row(&[1.0, -2.0]);
        let y = l.forward(&x);
        let want0 = l.w.get(0, 0) * 1.0 + l.w.get(1, 0) * -2.0 + l.b[0];
        let want1 = l.w.get(0, 1) * 1.0 + l.w.get(1, 1) * -2.0 + l.b[1];
        assert!((y.get(0, 0) - want0).abs() < 1e-6);
        assert!((y.get(0, 1) - want1).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut l = layer();
        let x = Matrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.3 - 0.5);
        let (z, a) = l.forward_cached(&x);
        let d = Matrix::from_fn(2, 3, |_, _| 1.0);
        let _ = l.backward(&x, &z, &d);
        assert!(l.gw.norm() > 0.0 || a.norm() == 0.0);
        l.zero_grad();
        assert_eq!(l.gw.norm(), 0.0);
        assert!(l.gb.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn backward_accumulates_over_calls() {
        let mut l = layer();
        let x = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let (z, _a) = l.forward_cached(&x);
        let d = Matrix::from_fn(2, 3, |_, _| 0.5);
        let _ = l.backward(&x, &z, &d);
        let once = l.gw.clone();
        let _ = l.backward(&x, &z, &d);
        let mut twice = once.clone();
        twice.scale_inplace(2.0);
        for (a, b) in l.gw.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
