//! The sparse shared-unit DNN of the paper's §3.
//!
//! This model keeps everything about QPPNet's wiring — tree-isomorphic
//! evaluation, `(latency ⌢ data)` outputs flowing upward, supervision of
//! every operator — but replaces the per-family neural units with **one
//! shared MLP** whose input is the sparse concatenation of all family
//! feature vectors ([`crate::SparseFeaturizer`]). It is the "concatenate
//! vectors together for each relational operator" strawman, §3's proposed
//! naive fix for heterogeneous tree nodes, whose sparsity the paper
//! predicts will hurt.
//!
//! Keeping all other factors equal makes the comparison sharp: any gap
//! between this model and QPPNet is attributable to per-family weights vs.
//! one sparse shared unit.

use crate::sparse_features::SparseFeaturizer;
use crate::tree_pos::PositionedClass;
use crate::AblationConfig;
use qpp_baselines::LatencyModel;
use qpp_nn::{Activation, Init, Matrix, Mlp, MlpCache, OptState, Sgd};
use qpp_plansim::features::Whitener;
use qpp_plansim::plan::{Plan, PlanNode};
use qppnet::config::TargetCodec;
use qppnet::equivalence_classes;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Maximum operator arity (joins have two children).
const MAX_ARITY: usize = 2;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Fitted {
    whitener: Whitener,
    codec: TargetCodec,
    unit: Mlp,
}

/// The §3 sparse shared-unit model, as a trainable [`LatencyModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparseUnitDnn {
    config: AblationConfig,
    sparse: SparseFeaturizer,
    fitted: Option<Fitted>,
}

impl SparseUnitDnn {
    /// Creates an untrained model for plans generated against `catalog`.
    pub fn new(config: AblationConfig, catalog: &qpp_plansim::catalog::Catalog) -> SparseUnitDnn {
        SparseUnitDnn { config, sparse: SparseFeaturizer::new(catalog), fitted: None }
    }

    /// Total trainable parameters (0 before fitting).
    pub fn num_params(&self) -> usize {
        self.fitted.as_ref().map(|f| f.unit.num_params()).unwrap_or(0)
    }

    /// Forward pass over one lowered class; returns per-position caches.
    fn forward_class(
        sparse: &SparseFeaturizer,
        fitted: &Fitted,
        pc: &PositionedClass<'_>,
        d1: usize,
    ) -> Vec<MlpCache> {
        let batch = pc.batch();
        let zeros = Matrix::zeros(batch, d1);
        let mut caches: Vec<MlpCache> = Vec::with_capacity(pc.len());
        for k in 0..pc.len() {
            let mut features = Matrix::zeros(batch, sparse.total_size());
            for (b, node) in pc.nodes[k].iter().enumerate() {
                let v = sparse.featurize(&fitted.whitener, node);
                features.row_mut(b).copy_from_slice(&v);
            }
            // Fixed two child slots; absent children stay zero.
            let kids = &pc.children[k];
            let slot = |i: usize| -> &Matrix {
                kids.get(i).map(|&c| caches[c].output()).unwrap_or(&zeros)
            };
            let input = Matrix::hcat(&[&features, slot(0), slot(1)]);
            caches.push(fitted.unit.forward_cached(&input));
        }
        caches
    }

    /// Encoded-space prediction error (prediction − target) of position
    /// `k`, batch lane `b` — the quantity `fit` drives to zero. Shared
    /// with the test suite so "training reduces error" measures exactly
    /// the trained objective.
    fn position_error(
        fitted: &Fitted,
        caches: &[MlpCache],
        pc: &PositionedClass<'_>,
        k: usize,
        b: usize,
    ) -> f32 {
        caches[k].output().get(b, 0) - fitted.codec.encode(pc.nodes[k][b].actual.latency_ms)
    }

    fn predict_class(
        sparse: &SparseFeaturizer,
        fitted: &Fitted,
        pc: &PositionedClass<'_>,
        d1: usize,
    ) -> Vec<f64> {
        let caches = Self::forward_class(sparse, fitted, pc, d1);
        let root = pc.len() - 1;
        (0..pc.batch())
            .map(|b| fitted.codec.decode(caches[root].output().get(b, 0)))
            .collect()
    }
}

impl LatencyModel for SparseUnitDnn {
    fn name(&self) -> &'static str {
        "Sparse shared unit"
    }

    fn fit(&mut self, plans: &[&Plan]) {
        assert!(!plans.is_empty(), "cannot fit on zero plans");
        let cfg = self.config.clone();
        let d1 = cfg.data_size + 1;

        let sparse = self.sparse.clone();
        let whitener = sparse.fit_whitener(plans.iter().copied());
        let mut latencies = Vec::new();
        for p in plans {
            p.root.visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
        }
        let codec = TargetCodec::fit(cfg.target_transform, latencies);

        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let in_dim = sparse.total_size() + MAX_ARITY * d1;
        let mut dims = vec![in_dim];
        dims.extend(std::iter::repeat_n(cfg.hidden_units, cfg.hidden_layers));
        dims.push(d1);
        let unit = Mlp::new(&dims, Activation::Relu, Activation::Identity, Init::He, &mut rng);
        let mut fitted = Fitted { whitener, codec, unit };
        let opt = Sgd::new(cfg.learning_rate, cfg.momentum);
        let mut opt_state = OptState::new();

        let mut order: Vec<usize> = (0..plans.len()).collect();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                fitted.unit.zero_grad();
                let mut total_ops = 0usize;
                for (_, members) in
                    equivalence_classes(chunk.iter().map(|&i| (i, &plans[i].root)))
                {
                    let roots: Vec<&PlanNode> =
                        members.iter().map(|&i| &plans[i].root).collect();
                    let pc = PositionedClass::lower(&roots);
                    let caches = Self::forward_class(&sparse, &fitted, &pc, d1);

                    // SSE gradients on the latency output of every position.
                    let batch = pc.batch();
                    let mut grads: Vec<Matrix> =
                        (0..pc.len()).map(|_| Matrix::zeros(batch, d1)).collect();
                    for (k, grad) in grads.iter_mut().enumerate() {
                        for b in 0..batch {
                            let err = Self::position_error(&fitted, &caches, &pc, k, b);
                            grad.set(b, 0, 2.0 * err);
                        }
                    }
                    total_ops += pc.len() * batch;

                    // Reverse pass: route input gradients into child slots.
                    let feat_w = sparse.total_size();
                    for k in (0..pc.len()).rev() {
                        if grads[k].max_abs() == 0.0 {
                            continue;
                        }
                        let d_in = fitted.unit.backward(&caches[k], &grads[k]);
                        for (i, &c) in pc.children[k].iter().enumerate() {
                            let slice = d_in.slice_cols(feat_w + i * d1, d1);
                            grads[c].add_scaled(&slice, 1.0);
                        }
                    }
                }
                fitted.unit.scale_grad(1.0 / total_ops.max(1) as f32);
                if cfg.weight_decay > 0.0 {
                    for layer in fitted.unit.layers_mut() {
                        let (gw, w) = (&mut layer.gw, &layer.w);
                        gw.add_scaled(w, cfg.weight_decay);
                    }
                }
                let slots = opt_state.layers_mut(fitted.unit.num_layers());
                fitted.unit.apply_grads(&opt, slots);
            }
        }
        self.fitted = Some(fitted);
    }

    fn predict(&self, plan: &Plan) -> f64 {
        self.predict_batch(&[plan])[0]
    }

    fn predict_batch(&self, plans: &[&Plan]) -> Vec<f64> {
        let fitted = self.fitted.as_ref().expect("model must be fitted before prediction");
        let d1 = self.config.data_size + 1;
        let mut out = vec![0.0f64; plans.len()];
        for (_, members) in
            equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root)))
        {
            let roots: Vec<&PlanNode> = members.iter().map(|&i| &plans[i].root).collect();
            let pc = PositionedClass::lower(&roots);
            let preds = Self::predict_class(&self.sparse, fitted, &pc, d1);
            for (&i, p) in members.iter().zip(preds) {
                out[i] = p;
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

    #[test]
    fn fit_predict_produces_finite_latencies() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 50, 11);
        let mut m = SparseUnitDnn::new(AblationConfig::tiny(), &ds.catalog);
        m.fit(&ds.plans.iter().take(40).collect::<Vec<_>>());
        assert!(m.num_params() > 0);
        for p in ds.plans.iter().skip(40) {
            let pred = m.predict(p);
            assert!(pred.is_finite() && pred >= 0.0, "{pred}");
        }
    }

    /// Mean encoded-space squared error over *all* supervised operator
    /// positions — the objective `fit` actually minimizes.
    fn train_objective(m: &SparseUnitDnn, plans: &[&Plan]) -> f64 {
        let fitted = m.fitted.as_ref().expect("fitted");
        let d1 = m.config.data_size + 1;
        let mut sse = 0.0f64;
        let mut n = 0usize;
        for (_, members) in
            equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root)))
        {
            let roots: Vec<&PlanNode> = members.iter().map(|&i| &plans[i].root).collect();
            let pc = PositionedClass::lower(&roots);
            let caches = SparseUnitDnn::forward_class(&m.sparse, fitted, &pc, d1);
            for k in 0..pc.len() {
                for b in 0..pc.batch() {
                    let err = SparseUnitDnn::position_error(fitted, &caches, &pc, k, b);
                    sse += err as f64 * err as f64;
                    n += 1;
                }
            }
        }
        sse / n.max(1) as f64
    }

    #[test]
    fn training_reduces_error() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 80, 12);
        let (train, _test) = ds.plans.split_at(64);
        let train: Vec<&Plan> = train.iter().collect();
        // Compare the objective `fit` minimizes: per-operator encoded SSE.
        // (Root-latency MAE is *not* monotone in training for this §3
        // strawman — the shared unit trades root accuracy for the majority
        // leaf positions, which is exactly the pathology the paper
        // predicts; asserting on it made the test flaky.)
        let mut long =
            SparseUnitDnn::new(AblationConfig { epochs: 25, ..AblationConfig::tiny() }, &ds.catalog);
        long.fit(&train);
        let mut short =
            SparseUnitDnn::new(AblationConfig { epochs: 1, ..AblationConfig::tiny() }, &ds.catalog);
        short.fit(&train);
        let (long_obj, short_obj) =
            (train_objective(&long, &train), train_objective(&short, &train));
        assert!(long_obj < short_obj, "{long_obj} vs {short_obj}");
    }

    #[test]
    fn batch_predictions_match_single_predictions() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 30, 13);
        let mut m = SparseUnitDnn::new(AblationConfig::tiny(), &ds.catalog);
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
        let ds = Dataset::generate(Workload::TpcH, 1.0, 20, 14);
        let mut m = SparseUnitDnn::new(AblationConfig::tiny(), &ds.catalog);
        m.fit(&ds.plans.iter().collect::<Vec<_>>());
        let json = serde_json::to_string(&m).unwrap();
        let back: SparseUnitDnn = serde_json::from_str(&json).unwrap();
        assert_eq!(m.predict(&ds.plans[0]), back.predict(&ds.plans[0]));
    }
}
