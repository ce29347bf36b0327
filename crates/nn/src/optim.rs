//! Gradient-descent optimizers.
//!
//! The paper trains with plain stochastic gradient descent, learning rate
//! `0.001` and momentum `0.9` (§6, "Neural networks"); [`Sgd`] reproduces
//! that. [`Adam`] implements the §8 future-work suggestion ("using a
//! different optimizer \[16\] may prove fruitful") and is exercised by the
//! training-optimizer ablation bench.
//!
//! An optimizer is split in two:
//!
//! * the **rule** ([`Optimizer`]): hyper-parameters, the learning rate and
//!   Adam's step counter. An update reads it through `&self`, so every
//!   worker of a parallel step can share it;
//! * the **state** ([`Moments`]: SGD's velocity, Adam's moments), one per
//!   parameter tensor, held by the caller: one [`LayerState`] slot per
//!   dense layer in an [`OptState`] indexed by a dense layer id.
//!
//! The update is elementwise and touches only its own tensor's state, so
//! disjoint layers can be updated at once: the wavefront trainer applies
//! it to each worker's share of the layers inside its parallel gradient
//! fold, and serial callers apply the same update layer by layer. The
//! arithmetic per element does not depend on which of them runs it.

use crate::matrix::Matrix;

/// A gradient-descent update rule applied tensor by tensor.
pub trait Optimizer: Sync {
    /// Updates the parameter tensor `w` in place from its gradient `g`,
    /// reading and advancing the tensor's state `state` (an empty state is
    /// sized and zeroed on first use).
    ///
    /// # Panics
    /// Panics if `state` was sized for a tensor of another length.
    fn update(&self, state: &mut Moments, w: &mut [f32], g: &[f32]);
    /// Signals that one optimization step (over all tensors) completed.
    ///
    /// Implementations that need a global step counter (Adam's bias
    /// correction) bump it here; SGD ignores it.
    fn end_step(&mut self) {}
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Replaces the learning rate (for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// [`Optimizer::update`] for a weight matrix.
    fn update_matrix(&self, state: &mut Moments, w: &mut Matrix, g: &Matrix) {
        assert_eq!(
            (w.rows(), w.cols()),
            (g.rows(), g.cols()),
            "gradient shape does not match the weights"
        );
        self.update(state, w.as_mut_slice(), g.as_slice());
    }
}

/// The optimizer state of one parameter tensor: SGD's velocity in the
/// first buffer; Adam's first and second moments. Empty until the first
/// update sizes it.
#[derive(Debug, Clone, Default)]
pub struct Moments {
    first: Vec<f32>,
    second: Vec<f32>,
}

/// Sizes an empty state buffer to `n` zeros; checks a sized one.
fn sized(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    if buf.is_empty() {
        buf.resize(n, 0.0);
    }
    assert_eq!(buf.len(), n, "optimizer state belongs to a tensor of another size");
    buf
}

/// The optimizer state of one dense layer: its weights' and its biases'
/// [`Moments`].
#[derive(Debug, Clone, Default)]
pub struct LayerState {
    /// State of the weight matrix.
    pub w: Moments,
    /// State of the bias vector.
    pub b: Moments,
}

/// The optimizer state of a model: one [`LayerState`] per dense layer,
/// indexed by a dense layer id the caller assigns (for a stack of units,
/// every layer of the first unit, then the second's, …).
#[derive(Debug, Clone, Default)]
pub struct OptState {
    layers: Vec<LayerState>,
}

impl OptState {
    /// Empty state; slots are created on first use.
    pub fn new() -> OptState {
        OptState::default()
    }

    /// The slots of dense layers `0..n`, adding empty ones on first use.
    pub fn layers_mut(&mut self, n: usize) -> &mut [LayerState] {
        if self.layers.len() < n {
            self.layers.resize_with(n, LayerState::default);
        }
        &mut self.layers[..n]
    }
}

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + g`, `w ← w − lr·v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Creates an SGD optimizer. The paper's settings are
    /// `Sgd::new(0.001, 0.9)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn update(&self, state: &mut Moments, w: &mut [f32], g: &[f32]) {
        assert_eq!(w.len(), g.len(), "gradient length does not match the parameters");
        let v = sized(&mut state.first, w.len());
        let (mu, lr) = (self.momentum, self.lr);
        for ((vv, &gv), wv) in v.iter_mut().zip(g).zip(w.iter_mut()) {
            *vv = mu * *vv + gv;
            *wv -= lr * *vv;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba \[16\]) with bias-corrected first/second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
}

impl Adam {
    /// Creates an Adam optimizer with the conventional β₁=0.9, β₂=0.999.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 1 }
    }

    #[inline]
    fn corrections(&self) -> (f32, f32) {
        let c1 = 1.0 - self.beta1.powi(self.t);
        let c2 = 1.0 - self.beta2.powi(self.t);
        (c1, c2)
    }
}

impl Optimizer for Adam {
    fn update(&self, state: &mut Moments, w: &mut [f32], g: &[f32]) {
        assert_eq!(w.len(), g.len(), "gradient length does not match the parameters");
        let (c1, c2) = self.corrections();
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let m = sized(&mut state.first, w.len());
        let v = sized(&mut state.second, w.len());
        for (((mv, vv), &gv), wv) in m.iter_mut().zip(v.iter_mut()).zip(g).zip(w.iter_mut()) {
            *mv = b1 * *mv + (1.0 - b1) * gv;
            *vv = b2 * *vv + (1.0 - b2) * gv * gv;
            let mhat = *mv / c1;
            let vhat = *vv / c2;
            *wv -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    fn end_step(&mut self) {
        self.t += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let opt = Sgd::new(0.1, 0.0);
        let mut s = Moments::default();
        let mut w = Matrix::from_row(&[1.0, -1.0]);
        let g = Matrix::from_row(&[0.5, -0.5]);
        opt.update_matrix(&mut s, &mut w, &g);
        assert!((w.get(0, 0) - 0.95).abs() < 1e-6);
        assert!((w.get(0, 1) + 0.95).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accelerates_repeated_gradients() {
        let opt = Sgd::new(0.1, 0.9);
        let mut s = Moments::default();
        let mut w = Matrix::from_row(&[0.0]);
        let g = Matrix::from_row(&[1.0]);
        opt.update_matrix(&mut s, &mut w, &g);
        let first_step = -w.get(0, 0);
        opt.update_matrix(&mut s, &mut w, &g);
        let second_step = first_step - -w.get(0, 0);
        assert!(second_step.abs() > first_step.abs());
    }

    #[test]
    fn distinct_keys_have_independent_state() {
        let opt = Sgd::new(0.1, 0.9);
        let mut state = OptState::new();
        let slots = state.layers_mut(2);
        let mut w1 = Matrix::from_row(&[0.0]);
        let mut w2 = Matrix::from_row(&[0.0]);
        let g = Matrix::from_row(&[1.0]);
        opt.update_matrix(&mut slots[0].w, &mut w1, &g);
        opt.update_matrix(&mut slots[0].w, &mut w1, &g);
        opt.update_matrix(&mut slots[1].w, &mut w2, &g);
        // w2's first step must match w1's first step, not carry w1's velocity.
        assert!((w2.get(0, 0) + 0.1).abs() < 1e-6);
        assert!(w1.get(0, 0) < -0.25);
        // Slots persist across borrows.
        assert_eq!(state.layers_mut(1)[0].w.first.len(), 1);
    }

    #[test]
    #[should_panic(expected = "another size")]
    fn state_of_one_tensor_rejects_another_shape() {
        let opt = Adam::new(0.1);
        let mut s = Moments::default();
        opt.update(&mut s, &mut [0.0, 0.0], &[1.0, 1.0]);
        opt.update(&mut s, &mut [0.0], &[1.0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let mut s = Moments::default();
        let mut w = Matrix::from_row(&[5.0]);
        for _ in 0..300 {
            // gradient of (w-2)^2
            let g = Matrix::from_row(&[2.0 * (w.get(0, 0) - 2.0)]);
            opt.update_matrix(&mut s, &mut w, &g);
            opt.end_step();
        }
        assert!((w.get(0, 0) - 2.0).abs() < 1e-2);
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Sgd::new(0.1, 0.0);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
