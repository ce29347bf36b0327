//! The tree-structured recurrent baseline the paper's §3 argues against.
//!
//! > "while previous work in the field of machine learning has examined
//! > applying deep neural networks to sequential \[14\] or tree-structured
//! > [43, 49] data, none of these approaches are ideal for query
//! > performance prediction."
//!
//! [`TreeLstm`] is the strongest member of that family: a child-sum
//! Tree-LSTM (\[49\], Tai et al.) over the sparse concatenated featurization,
//! with a shared linear readout predicting each node's latency from its
//! hidden state. It is trained with the same per-operator supervision as
//! QPPNet. The architectural differences under test:
//!
//! * one shared cell for all operator families (heterogeneity is pushed
//!   into the sparse input, as §3 describes);
//! * gated, *mixing* information flow — the child-sum structure lets a
//!   node's representation blend freely across branches, in tension with
//!   the branch-isolation property §3 identifies;
//! * a bounded (`tanh`) hidden state carrying all performance information,
//!   rather than QPPNet's unbounded latency channel + opaque data vector.

use crate::sparse_features::SparseFeaturizer;
use crate::tree_pos::PositionedClass;
use crate::AblationConfig;
use qpp_baselines::LatencyModel;
use qpp_nn::lstm::LstmNodeCache;
use qpp_nn::{Activation, Dense, Init, LayerState, Matrix, Moments, Sgd, TreeLstmCell};
use qpp_plansim::catalog::Catalog;
use qpp_plansim::features::Whitener;
use qpp_plansim::plan::{Plan, PlanNode};
use qppnet::config::TargetCodec;
use qppnet::equivalence_classes;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Fitted {
    whitener: Whitener,
    codec: TargetCodec,
    cell: TreeLstmCell,
    readout: Dense,
}

/// The §3 tree-structured recurrent baseline, as a trainable
/// [`LatencyModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeLstm {
    config: AblationConfig,
    sparse: SparseFeaturizer,
    fitted: Option<Fitted>,
}

impl TreeLstm {
    /// Creates an untrained model for plans generated against `catalog`.
    pub fn new(config: AblationConfig, catalog: &Catalog) -> TreeLstm {
        TreeLstm { config, sparse: SparseFeaturizer::new(catalog), fitted: None }
    }

    /// Total trainable parameters (0 before fitting).
    pub fn num_params(&self) -> usize {
        self.fitted
            .as_ref()
            .map(|f| f.cell.num_params() + f.readout.num_params())
            .unwrap_or(0)
    }

    /// Forward pass over a lowered class: per-position LSTM caches plus
    /// per-position readout caches `(h_input, z, latency_pred)`.
    fn forward_class(
        sparse: &SparseFeaturizer,
        fitted: &Fitted,
        pc: &PositionedClass<'_>,
    ) -> (Vec<LstmNodeCache>, Vec<(Matrix, Matrix)>) {
        let batch = pc.batch();
        let mut lstm_caches: Vec<LstmNodeCache> = Vec::with_capacity(pc.len());
        let mut readout_caches = Vec::with_capacity(pc.len());
        for k in 0..pc.len() {
            let mut x = Matrix::zeros(batch, sparse.total_size());
            for (b, node) in pc.nodes[k].iter().enumerate() {
                let v = sparse.featurize(&fitted.whitener, node);
                x.row_mut(b).copy_from_slice(&v);
            }
            let children: Vec<(&Matrix, &Matrix)> = pc.children[k]
                .iter()
                .map(|&c| {
                    let cache = &lstm_caches[c];
                    (cache.hidden(), cache.memory())
                })
                .collect();
            let cache = fitted.cell.forward(&x, &children);
            let (z, a) = fitted.readout.forward_cached(cache.hidden());
            readout_caches.push((z, a));
            lstm_caches.push(cache);
        }
        (lstm_caches, readout_caches)
    }
}

impl LatencyModel for TreeLstm {
    fn name(&self) -> &'static str {
        "Tree-LSTM"
    }

    fn fit(&mut self, plans: &[&Plan]) {
        assert!(!plans.is_empty(), "cannot fit on zero plans");
        let cfg = self.config.clone();
        let sparse = self.sparse.clone();
        let whitener = sparse.fit_whitener(plans.iter().copied());
        let mut latencies = Vec::new();
        for p in plans {
            p.root.visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
        }
        let codec = TargetCodec::fit(cfg.target_transform, latencies);

        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let cell = TreeLstmCell::new(sparse.total_size(), cfg.hidden_units, &mut rng);
        let readout =
            Dense::new(cfg.hidden_units, 1, Activation::Identity, Init::Xavier, &mut rng);
        let mut fitted = Fitted { whitener, codec, cell, readout };
        let opt = Sgd::new(cfg.learning_rate, cfg.momentum);
        let mut cell_state: [Moments; 12] = Default::default();
        let mut readout_state = LayerState::default();

        let hidden = cfg.hidden_units;
        let mut order: Vec<usize> = (0..plans.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                fitted.cell.zero_grad();
                fitted.readout.zero_grad();
                let mut total_ops = 0usize;
                for (_, members) in
                    equivalence_classes(chunk.iter().map(|&i| (i, &plans[i].root)))
                {
                    let roots: Vec<&PlanNode> =
                        members.iter().map(|&i| &plans[i].root).collect();
                    let pc = PositionedClass::lower(&roots);
                    let (lstm_caches, readout_caches) =
                        Self::forward_class(&sparse, &fitted, &pc);
                    let batch = pc.batch();
                    total_ops += pc.len() * batch;

                    // Per-position hidden/memory gradient accumulators.
                    let mut dh: Vec<Matrix> =
                        (0..pc.len()).map(|_| Matrix::zeros(batch, hidden)).collect();
                    let mut dm: Vec<Matrix> =
                        (0..pc.len()).map(|_| Matrix::zeros(batch, hidden)).collect();

                    // Readout loss at every position (same supervision as
                    // QPPNet's Equation 7).
                    for k in 0..pc.len() {
                        let (z, a) = &readout_caches[k];
                        let mut d_out = Matrix::zeros(batch, 1);
                        for (b, node) in pc.nodes[k].iter().enumerate() {
                            let err =
                                a.get(b, 0) - fitted.codec.encode(node.actual.latency_ms);
                            d_out.set(b, 0, 2.0 * err);
                        }
                        let d_hidden =
                            fitted.readout.backward(lstm_caches[k].hidden(), z, &d_out);
                        dh[k].add_scaled(&d_hidden, 1.0);
                    }

                    // Reverse tree traversal: parents push gradients into
                    // their children's (h, m).
                    for k in (0..pc.len()).rev() {
                        let (_, child_grads) =
                            fitted.cell.backward(&lstm_caches[k], &dh[k], &dm[k]);
                        for (i, &c) in pc.children[k].iter().enumerate() {
                            dh[c].add_scaled(&child_grads[i].0, 1.0);
                            dm[c].add_scaled(&child_grads[i].1, 1.0);
                        }
                    }
                }
                let scale = 1.0 / total_ops.max(1) as f32;
                fitted.cell.scale_grad(scale);
                fitted.readout.scale_grad(scale);
                fitted.cell.apply_grads(&opt, &mut cell_state);
                fitted.readout.apply_grads(&opt, &mut readout_state);
            }
        }
        self.fitted = Some(fitted);
    }

    fn predict(&self, plan: &Plan) -> f64 {
        self.predict_batch(&[plan])[0]
    }

    fn predict_batch(&self, plans: &[&Plan]) -> Vec<f64> {
        let fitted = self.fitted.as_ref().expect("model must be fitted before prediction");
        let mut out = vec![0.0f64; plans.len()];
        for (_, members) in
            equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root)))
        {
            let roots: Vec<&PlanNode> = members.iter().map(|&i| &plans[i].root).collect();
            let pc = PositionedClass::lower(&roots);
            let (_, readout_caches) = Self::forward_class(&self.sparse, fitted, &pc);
            let (_, root_out) = &readout_caches[pc.len() - 1];
            for (b, &i) in members.iter().enumerate() {
                out[i] = fitted.codec.decode(root_out.get(b, 0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    fn tiny() -> AblationConfig {
        AblationConfig {
            hidden_units: 16,
            epochs: 20,
            learning_rate: 5e-3,
            ..AblationConfig::tiny()
        }
    }

    #[test]
    fn fit_predict_produces_finite_latencies() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 40, 21);
        let mut m = TreeLstm::new(tiny(), &ds.catalog);
        m.fit(&ds.plans.iter().take(30).collect::<Vec<_>>());
        assert!(m.num_params() > 0);
        for p in ds.plans.iter().skip(30) {
            let pred = m.predict(p);
            assert!(pred.is_finite() && pred >= 0.0, "{pred}");
        }
    }

    #[test]
    fn training_reduces_error() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 22);
        let (train, test) = ds.plans.split_at(48);
        let train: Vec<&Plan> = train.iter().collect();
        let eval = |m: &TreeLstm| {
            let preds: Vec<f64> = test.iter().map(|p| m.predict(p)).collect();
            let actual: Vec<f64> = test.iter().map(|p| p.latency_ms()).collect();
            qppnet::evaluate(&actual, &preds).mae_ms
        };
        let mut long = TreeLstm::new(AblationConfig { epochs: 25, ..tiny() }, &ds.catalog);
        long.fit(&train);
        let mut short = TreeLstm::new(AblationConfig { epochs: 1, ..tiny() }, &ds.catalog);
        short.fit(&train);
        assert!(eval(&long) < eval(&short), "{} vs {}", eval(&long), eval(&short));
    }

    #[test]
    fn batch_predictions_match_single_predictions() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 25, 23);
        let mut m = TreeLstm::new(tiny(), &ds.catalog);
        let refs: Vec<&Plan> = ds.plans.iter().collect();
        m.fit(&refs);
        let batched = m.predict_batch(&refs);
        for (p, &b) in refs.iter().zip(&batched) {
            let single = m.predict(p);
            let rel = (single - b).abs() / (1.0 + b.abs());
            assert!(rel < 1e-4, "{single} vs {b}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 15, 24);
        let mut m = TreeLstm::new(tiny(), &ds.catalog);
        m.fit(&ds.plans.iter().collect::<Vec<_>>());
        let json = serde_json::to_string(&m).unwrap();
        let back: TreeLstm = serde_json::from_str(&json).unwrap();
        assert_eq!(m.predict(&ds.plans[0]), back.predict(&ds.plans[0]));
    }
}
