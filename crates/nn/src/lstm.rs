//! Child-sum Tree-LSTM cell (Tai et al. \[49\]).
//!
//! The paper's §3 argues that tree-structured recurrent networks from the
//! NLP literature are *ill-suited* to query performance prediction: they
//! assume information should flow freely between branches and they require
//! a single input width for every node. This module implements the
//! strongest representative of that family — the child-sum Tree-LSTM — so
//! the claim can be tested empirically (see the `qpp-ablation` crate and
//! the `ablation` bench binary).
//!
//! For a node `j` with input `x_j` and children `c₁ … c_k` carrying hidden
//! states `h_k` and memory cells `m_k`:
//!
//! ```text
//! h̃  = Σₖ h_k
//! i  = σ(x·Wᵢ + h̃·Uᵢ + bᵢ)          input gate
//! fₖ = σ(x·W_f + h_k·U_f + b_f)      one forget gate per child
//! o  = σ(x·Wₒ + h̃·Uₒ + bₒ)          output gate
//! u  = tanh(x·Wᵤ + h̃·Uᵤ + bᵤ)       candidate
//! m  = i ⊙ u + Σₖ fₖ ⊙ mₖ           memory cell
//! h  = o ⊙ tanh(m)                   hidden state
//! ```
//!
//! All operations are batched over rows, so an equivalence class of
//! structurally-identical plans evaluates as one cell invocation per tree
//! position. The backward pass is exact reverse-mode differentiation,
//! certified against central differences by this module's tests.

use crate::init::Init;
use crate::matrix::Matrix;
use crate::optim::{Moments, Optimizer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One parameter tensor triple `(W, U, b)` of a gate, with gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gate {
    /// Input projection, `in_dim × hidden`.
    pub w: Matrix,
    /// Recurrent projection, `hidden × hidden`.
    pub u: Matrix,
    /// Bias, `hidden`.
    pub b: Vec<f32>,
    /// Accumulated gradient of `w`.
    pub gw: Matrix,
    /// Accumulated gradient of `u`.
    pub gu: Matrix,
    /// Accumulated gradient of `b`.
    pub gb: Vec<f32>,
}

impl Gate {
    fn new(in_dim: usize, hidden: usize, bias: f32, rng: &mut impl Rng) -> Gate {
        let w = Init::Xavier.matrix(in_dim, hidden, rng);
        let u = Init::Xavier.matrix(hidden, hidden, rng);
        Gate {
            w,
            u,
            b: vec![bias; hidden],
            gw: Matrix::zeros(in_dim, hidden),
            gu: Matrix::zeros(hidden, hidden),
            gb: vec![0.0; hidden],
        }
    }

    /// `x·W + h·U + b`, batched over rows.
    fn preact(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_scaled(&h.matmul(&self.u), 1.0);
        z.add_row_inplace(&self.b);
        z
    }

    /// Accumulates parameter gradients for one use of this gate and
    /// returns `(dx, dh)` contributions.
    fn backward(&mut self, x: &Matrix, h: &Matrix, dz: &Matrix) -> (Matrix, Matrix) {
        let mut gw_inc = Matrix::zeros(self.gw.rows(), self.gw.cols());
        x.matmul_at_b_into(dz, &mut gw_inc);
        self.gw.add_scaled(&gw_inc, 1.0);
        let mut gu_inc = Matrix::zeros(self.gu.rows(), self.gu.cols());
        h.matmul_at_b_into(dz, &mut gu_inc);
        self.gu.add_scaled(&gu_inc, 1.0);
        dz.col_sum_into(&mut self.gb);
        (dz.matmul_a_bt(&self.w), dz.matmul_a_bt(&self.u))
    }

    fn num_params(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gu.fill_zero();
        self.gb.fill(0.0);
    }

    fn scale_grad(&mut self, s: f32) {
        self.gw.scale_inplace(s);
        self.gu.scale_inplace(s);
        for g in &mut self.gb {
            *g *= s;
        }
    }

    fn apply_grads(&mut self, opt: &dyn Optimizer, state: &mut [Moments]) {
        opt.update_matrix(&mut state[0], &mut self.w, &self.gw);
        opt.update_matrix(&mut state[1], &mut self.u, &self.gu);
        opt.update(&mut state[2], &mut self.b, &self.gb);
    }
}

/// Cached activations from one [`TreeLstmCell::forward`] invocation.
#[derive(Debug, Clone)]
pub struct LstmNodeCache {
    x: Matrix,
    child_h: Vec<Matrix>,
    child_m: Vec<Matrix>,
    hsum: Matrix,
    i: Matrix,
    o: Matrix,
    u: Matrix,
    f: Vec<Matrix>,
    m: Matrix,
    tanh_m: Matrix,
    h: Matrix,
}

impl LstmNodeCache {
    /// The node's hidden state, `batch × hidden`.
    pub fn hidden(&self) -> &Matrix {
        &self.h
    }

    /// The node's memory cell, `batch × hidden`.
    pub fn memory(&self) -> &Matrix {
        &self.m
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// A child-sum Tree-LSTM cell, shared by every node of a tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeLstmCell {
    input_gate: Gate,
    forget_gate: Gate,
    output_gate: Gate,
    candidate: Gate,
    in_dim: usize,
    hidden: usize,
}

impl TreeLstmCell {
    /// Creates a cell for inputs of width `in_dim` and `hidden` units.
    ///
    /// Forget-gate biases start at `+1.0` (the standard trick that lets
    /// memory flow freely early in training).
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> TreeLstmCell {
        TreeLstmCell {
            input_gate: Gate::new(in_dim, hidden, 0.0, rng),
            forget_gate: Gate::new(in_dim, hidden, 1.0, rng),
            output_gate: Gate::new(in_dim, hidden, 0.0, rng),
            candidate: Gate::new(in_dim, hidden, 0.0, rng),
            in_dim,
            hidden,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.input_gate.num_params()
            + self.forget_gate.num_params()
            + self.output_gate.num_params()
            + self.candidate.num_params()
    }

    /// Evaluates the cell at one tree position.
    ///
    /// `children` holds each child's `(hidden, memory)` pair; leaves pass
    /// an empty slice. All matrices are `batch × hidden`.
    pub fn forward(&self, x: &Matrix, children: &[(&Matrix, &Matrix)]) -> LstmNodeCache {
        let batch = x.rows();
        let mut hsum = Matrix::zeros(batch, self.hidden);
        for (h, _) in children {
            hsum.add_scaled(h, 1.0);
        }

        let mut i = self.input_gate.preact(x, &hsum);
        i.map_inplace(sigmoid);
        let mut o = self.output_gate.preact(x, &hsum);
        o.map_inplace(sigmoid);
        let mut u = self.candidate.preact(x, &hsum);
        u.map_inplace(f32::tanh);

        let mut m = i.mul_elem(&u);
        let mut f = Vec::with_capacity(children.len());
        for (h_k, m_k) in children {
            let mut f_k = self.forget_gate.preact(x, h_k);
            f_k.map_inplace(sigmoid);
            m.add_scaled(&f_k.mul_elem(m_k), 1.0);
            f.push(f_k);
        }

        let mut tanh_m = m.clone();
        tanh_m.map_inplace(f32::tanh);
        let h = o.mul_elem(&tanh_m);

        LstmNodeCache {
            x: x.clone(),
            child_h: children.iter().map(|(h, _)| (*h).clone()).collect(),
            child_m: children.iter().map(|(_, m)| (*m).clone()).collect(),
            hsum,
            i,
            o,
            u,
            f,
            m,
            tanh_m,
            h,
        }
    }

    /// Reverse pass for one tree position.
    ///
    /// `dh` / `dm` are the gradients of the loss with respect to this
    /// node's hidden state and memory cell (the parent's backward pass
    /// plus any readout gradient). Parameter gradients are accumulated
    /// into the cell; the return value is `(dx, child_grads)` where
    /// `child_grads[k] = (dh_k, dm_k)`.
    pub fn backward(
        &mut self,
        cache: &LstmNodeCache,
        dh: &Matrix,
        dm_in: &Matrix,
    ) -> (Matrix, Vec<(Matrix, Matrix)>) {
        // dm = dm_in + dh ⊙ o ⊙ (1 − tanh²(m))
        let mut dm = dm_in.clone();
        {
            let mut t = dh.mul_elem(&cache.o);
            let mut one_minus_t2 = cache.tanh_m.clone();
            one_minus_t2.map_inplace(|v| 1.0 - v * v);
            t.mul_elem_inplace(&one_minus_t2);
            dm.add_scaled(&t, 1.0);
        }

        // Gate pre-activation gradients.
        let mut dzo = dh.mul_elem(&cache.tanh_m);
        {
            let mut s = cache.o.clone();
            s.map_inplace(|v| v * (1.0 - v));
            dzo.mul_elem_inplace(&s);
        }
        let mut dzi = dm.mul_elem(&cache.u);
        {
            let mut s = cache.i.clone();
            s.map_inplace(|v| v * (1.0 - v));
            dzi.mul_elem_inplace(&s);
        }
        let mut dzu = dm.mul_elem(&cache.i);
        {
            let mut s = cache.u.clone();
            s.map_inplace(|v| 1.0 - v * v);
            dzu.mul_elem_inplace(&s);
        }

        let (dx_i, dhsum_i) = self.input_gate.backward(&cache.x, &cache.hsum, &dzi);
        let (dx_o, dhsum_o) = self.output_gate.backward(&cache.x, &cache.hsum, &dzo);
        let (dx_u, dhsum_u) = self.candidate.backward(&cache.x, &cache.hsum, &dzu);

        let mut dx = dx_i;
        dx.add_scaled(&dx_o, 1.0);
        dx.add_scaled(&dx_u, 1.0);

        // Gradient flowing to every child's hidden state via h̃ = Σ h_k.
        let mut dhsum = dhsum_i;
        dhsum.add_scaled(&dhsum_o, 1.0);
        dhsum.add_scaled(&dhsum_u, 1.0);

        let mut child_grads = Vec::with_capacity(cache.child_h.len());
        for k in 0..cache.child_h.len() {
            let mut dzf = dm.mul_elem(&cache.child_m[k]);
            {
                let mut s = cache.f[k].clone();
                s.map_inplace(|v| v * (1.0 - v));
                dzf.mul_elem_inplace(&s);
            }
            let (dx_f, dh_f) = self.forget_gate.backward(&cache.x, &cache.child_h[k], &dzf);
            dx.add_scaled(&dx_f, 1.0);

            let mut dh_k = dhsum.clone();
            dh_k.add_scaled(&dh_f, 1.0);
            let dm_k = dm.mul_elem(&cache.f[k]);
            child_grads.push((dh_k, dm_k));
        }

        (dx, child_grads)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.input_gate.zero_grad();
        self.forget_gate.zero_grad();
        self.output_gate.zero_grad();
        self.candidate.zero_grad();
    }

    /// Scales accumulated gradients by `s`.
    pub fn scale_grad(&mut self, s: f32) {
        self.input_gate.scale_grad(s);
        self.forget_gate.scale_grad(s);
        self.output_gate.scale_grad(s);
        self.candidate.scale_grad(s);
    }

    /// Applies accumulated gradients through `opt`.
    ///
    /// `state` holds one optimizer slot per parameter tensor: `(W, U, b)`
    /// for each gate, gates in [`TreeLstmCell::gates_mut`] order.
    pub fn apply_grads(&mut self, opt: &dyn Optimizer, state: &mut [Moments; 12]) {
        let gates = [
            &mut self.input_gate,
            &mut self.forget_gate,
            &mut self.output_gate,
            &mut self.candidate,
        ];
        for (gate, slots) in gates.into_iter().zip(state.chunks_mut(3)) {
            gate.apply_grads(opt, slots);
        }
    }

    /// Borrows the gates as `[input, forget, output, candidate]` (used by
    /// the gradient-check tests).
    pub fn gates_mut(&mut self) -> [&mut Gate; 4] {
        [
            &mut self.input_gate,
            &mut self.forget_gate,
            &mut self.output_gate,
            &mut self.candidate,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn cell(in_dim: usize, hidden: usize, seed: u64) -> TreeLstmCell {
        TreeLstmCell::new(in_dim, hidden, &mut rng(seed))
    }

    #[test]
    fn shapes_and_param_count() {
        let c = cell(5, 8, 0);
        assert_eq!(c.in_dim(), 5);
        assert_eq!(c.hidden(), 8);
        // Four gates, each with 5×8 + 8×8 + 8 parameters.
        assert_eq!(c.num_params(), 4 * (5 * 8 + 8 * 8 + 8));
    }

    #[test]
    fn leaf_forward_has_correct_shapes() {
        let c = cell(4, 6, 1);
        let x = Matrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.1);
        let out = c.forward(&x, &[]);
        assert_eq!(out.hidden().rows(), 3);
        assert_eq!(out.hidden().cols(), 6);
        assert_eq!(out.memory().rows(), 3);
        assert_eq!(out.memory().cols(), 6);
    }

    #[test]
    fn hidden_states_are_bounded_by_tanh_envelope() {
        let c = cell(4, 6, 2);
        let x = Matrix::from_fn(2, 4, |i, j| (i as f32 - j as f32) * 3.0);
        let leaf = c.forward(&x, &[]);
        let root = c.forward(&x, &[(leaf.hidden(), leaf.memory())]);
        for &v in root.hidden().as_slice() {
            assert!(v.abs() <= 1.0, "|h| must be ≤ 1, got {v}");
        }
    }

    #[test]
    fn forget_bias_initialized_positive() {
        let mut c = cell(3, 4, 3);
        let [_, f, _, _] = c.gates_mut();
        assert!(f.b.iter().all(|&b| b == 1.0));
    }

    /// Central-difference gradient check through a 3-node tree
    /// (two leaves + root) with a sum-of-hidden loss, covering every
    /// parameter tensor of every gate plus the input gradient.
    #[test]
    fn gradients_match_finite_differences() {
        let mut c = cell(3, 4, 4);
        let x_leaf = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[-0.1, 0.4, 0.2]]);
        let x_root = Matrix::from_rows(&[&[0.1, 0.6, -0.3], &[0.2, -0.5, 0.1]]);

        // Loss = Σ h_root (all elements), so dL/dh_root = 1.
        let loss_of = |c: &TreeLstmCell| -> f64 {
            let l1 = c.forward(&x_leaf, &[]);
            let l2 = c.forward(&x_root, &[]);
            let root =
                c.forward(&x_root, &[(l1.hidden(), l1.memory()), (l2.hidden(), l2.memory())]);
            root.hidden().as_slice().iter().map(|&v| v as f64).sum()
        };

        // Analytic gradients.
        c.zero_grad();
        let l1 = c.forward(&x_leaf, &[]);
        let l2 = c.forward(&x_root, &[]);
        let root =
            c.forward(&x_root, &[(l1.hidden(), l1.memory()), (l2.hidden(), l2.memory())]);
        let ones = Matrix::from_fn(2, 4, |_, _| 1.0);
        let zeros = Matrix::zeros(2, 4);
        let (_, child_grads) = c.backward(&root, &ones, &zeros);
        // Children are leaves: propagate their gradients too.
        for (cache, (dh, dm)) in [(&l1, &child_grads[0]), (&l2, &child_grads[1])] {
            c.backward(cache, dh, dm);
        }

        // Compare each gate's tensors against central differences.
        let h = 1e-3f32;
        let mut worst = 0.0f64;
        for g in 0..4 {
            for (r, cidx) in [(0usize, 0usize), (1, 2), (2, 3)] {
                // Weight W.
                let analytic = {
                    let mut cc = c.clone();
                    let gates = cc.gates_mut();
                    gates[g].gw.get(r, cidx) as f64
                };
                let orig = {
                    let mut cc = c.clone();
                    let gates = cc.gates_mut();
                    gates[g].w.get(r, cidx)
                };
                let mut cp = c.clone();
                cp.gates_mut()[g].w.set(r, cidx, orig + h);
                let lp = loss_of(&cp);
                let mut cm = c.clone();
                cm.gates_mut()[g].w.set(r, cidx, orig - h);
                let lm = loss_of(&cm);
                let numeric = (lp - lm) / (2.0 * h as f64);
                let denom = analytic.abs().max(numeric.abs()).max(1e-3);
                worst = worst.max((analytic - numeric).abs() / denom);

                // Recurrent weight U (square, same indices valid).
                let analytic = {
                    let mut cc = c.clone();
                    cc.gates_mut()[g].gu.get(r, cidx) as f64
                };
                let orig = {
                    let mut cc = c.clone();
                    cc.gates_mut()[g].u.get(r, cidx)
                };
                let mut cp = c.clone();
                cp.gates_mut()[g].u.set(r, cidx, orig + h);
                let lp = loss_of(&cp);
                let mut cm = c.clone();
                cm.gates_mut()[g].u.set(r, cidx, orig - h);
                let lm = loss_of(&cm);
                let numeric = (lp - lm) / (2.0 * h as f64);
                let denom = analytic.abs().max(numeric.abs()).max(1e-3);
                worst = worst.max((analytic - numeric).abs() / denom);
            }
            // Bias.
            let analytic = {
                let mut cc = c.clone();
                cc.gates_mut()[g].gb[1] as f64
            };
            let orig = {
                let mut cc = c.clone();
                cc.gates_mut()[g].b[1]
            };
            let mut cp = c.clone();
            cp.gates_mut()[g].b[1] = orig + h;
            let lp = loss_of(&cp);
            let mut cm = c.clone();
            cm.gates_mut()[g].b[1] = orig - h;
            let lm = loss_of(&cm);
            let numeric = (lp - lm) / (2.0 * h as f64);
            let denom = analytic.abs().max(numeric.abs()).max(1e-3);
            worst = worst.max((analytic - numeric).abs() / denom);
        }
        assert!(worst < 0.02, "worst relative gradient error {worst}");
    }

    /// The input gradient (dx) must also match finite differences — it is
    /// what the composed model backpropagates into the featurization.
    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut c = cell(3, 4, 5);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.6]]);

        let loss_of = |c: &TreeLstmCell, x: &Matrix| -> f64 {
            let leaf = c.forward(x, &[]);
            let root = c.forward(x, &[(leaf.hidden(), leaf.memory())]);
            root.hidden().as_slice().iter().map(|&v| v as f64).sum()
        };

        let leaf = c.forward(&x, &[]);
        let root = c.forward(&x, &[(leaf.hidden(), leaf.memory())]);
        let ones = Matrix::from_fn(1, 4, |_, _| 1.0);
        let zeros = Matrix::zeros(1, 4);
        c.zero_grad();
        let (dx_root, child_grads) = c.backward(&root, &ones, &zeros);
        let (dx_leaf, _) = c.backward(&leaf, &child_grads[0].0, &child_grads[0].1);
        // Same x feeds both nodes, so total dx is the sum.
        let mut dx = dx_root;
        dx.add_scaled(&dx_leaf, 1.0);

        let h = 1e-3f32;
        for j in 0..3 {
            let mut xp = x.clone();
            xp.set(0, j, x.get(0, j) + h);
            let mut xm = x.clone();
            xm.set(0, j, x.get(0, j) - h);
            let numeric = (loss_of(&c, &xp) - loss_of(&c, &xm)) / (2.0 * h as f64);
            let analytic = dx.get(0, j) as f64;
            let denom = analytic.abs().max(numeric.abs()).max(1e-3);
            assert!(
                (analytic - numeric).abs() / denom < 0.02,
                "dx[{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// A Tree-LSTM with a fixed linear readout can fit a toy tree
    /// regression task (sanity check that training actually works).
    #[test]
    fn training_reduces_loss_on_toy_tree_task() {
        let mut c = cell(2, 8, 6);
        let opt = Sgd::new(0.05, 0.9);
        let mut state: [Moments; 12] = Default::default();
        // Task: root target = sum of leaf inputs. Readout = mean of h.
        let cases: Vec<(Matrix, Matrix, f32)> = (0..6)
            .map(|k| {
                let a = (k as f32) * 0.1;
                let b = 0.5 - (k as f32) * 0.05;
                (
                    Matrix::from_row(&[a, 0.1]),
                    Matrix::from_row(&[b, -0.1]),
                    a + b,
                )
            })
            .collect();

        let forward = |c: &TreeLstmCell, xa: &Matrix, xb: &Matrix| {
            let l1 = c.forward(xa, &[]);
            let l2 = c.forward(xb, &[]);
            let x_root = Matrix::from_row(&[0.0, 0.0]);
            let root =
                c.forward(&x_root, &[(l1.hidden(), l1.memory()), (l2.hidden(), l2.memory())]);
            (l1, l2, root)
        };
        let readout =
            |root: &LstmNodeCache| root.h.as_slice().iter().sum::<f32>() / root.h.len() as f32;

        let loss_total = |c: &TreeLstmCell| -> f32 {
            cases
                .iter()
                .map(|(xa, xb, t)| {
                    let (_, _, root) = forward(c, xa, xb);
                    let e = readout(&root) - t;
                    e * e
                })
                .sum()
        };

        let initial = loss_total(&c);
        for _ in 0..150 {
            c.zero_grad();
            for (xa, xb, t) in &cases {
                let (l1, l2, root) = forward(&c, xa, xb);
                let pred = readout(&root);
                let scale = 2.0 * (pred - t) / root.h.len() as f32;
                let dh = Matrix::from_fn(1, 8, |_, _| scale);
                let dm = Matrix::zeros(1, 8);
                let (_, grads) = c.backward(&root, &dh, &dm);
                c.backward(&l1, &grads[0].0, &grads[0].1);
                c.backward(&l2, &grads[1].0, &grads[1].1);
            }
            c.apply_grads(&opt, &mut state);
        }
        let final_ = loss_total(&c);
        assert!(final_ < initial * 0.2, "loss {initial} -> {final_}");
    }

    #[test]
    fn serde_round_trip_preserves_forward() {
        let c = cell(3, 5, 7);
        let x = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32 * 0.17 - 0.2);
        let json = serde_json::to_string(&c).unwrap();
        let back: TreeLstmCell = serde_json::from_str(&json).unwrap();
        assert_eq!(c.forward(&x, &[]).hidden(), back.forward(&x, &[]).hidden());
    }

    #[test]
    fn batched_forward_equals_per_row_forward() {
        let c = cell(3, 4, 8);
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[-0.4, 0.5, -0.6]]);
        let batched = c.forward(&x, &[]);
        for r in 0..2 {
            let single = c.forward(&Matrix::from_row(x.row(r)), &[]);
            for j in 0..4 {
                assert!(
                    (batched.hidden().get(r, j) - single.hidden().get(0, j)).abs() < 1e-6,
                    "row {r} col {j}"
                );
            }
        }
    }
}
