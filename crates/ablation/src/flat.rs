//! The flat plan-level DNN of the paper's §3.
//!
//! > "A straightforward application of deep learning would be to model the
//! > whole query as a single neural network and use query plan features as
//! > the input vector. However, this naive approach ignores the fact that
//! > the query plan structure, features of intermediate results, and
//! > non-leaf operators are often correlated with query execution times."
//!
//! [`FlatDnn`] is that straightforward application: a plan is summarized
//! into one fixed-size vector of aggregate statistics (operator counts,
//! physical-variant counts, root estimates, totals and maxima over nodes),
//! which a plain MLP regresses to the query latency. It sees the same
//! `EXPLAIN` quantities as QPPNet but no tree structure and no per-operator
//! supervision — exactly the information the paper claims matters.

use crate::AblationConfig;
use qpp_baselines::LatencyModel;
use qpp_nn::{Activation, Init, Matrix, Mlp, OptState, Sgd};
use qpp_plansim::features::signed_log1p;
use qpp_plansim::operators::{AggStrategy, JoinAlgorithm, Operator, ScanMethod, SortMethod};
use qpp_plansim::plan::Plan;
use qppnet::config::TargetCodec;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Width of the flat plan-summary vector.
pub const FLAT_FEATURES: usize = 33;

/// Summarizes a plan into the fixed-size vector §3 describes.
///
/// Layout: 8 family counts, node count, depth, 5 root estimates, 4 totals
/// over nodes (rows, cost, I/Os, buffers), 2 maxima (rows, cost), 3 join
/// algorithms, 2 scan methods, 3 sort methods, 3 aggregate strategies,
/// 2 estimated-spill counts (sort/hash bytes past `work_mem` would need
/// the catalog; approximated by buffers ≥ row-estimate thresholds is
/// *not* attempted — the flat model only sees `EXPLAIN` aggregates).
pub fn flat_features(plan: &Plan) -> [f32; FLAT_FEATURES] {
    let mut v = [0.0f32; FLAT_FEATURES];
    let mut sum_rows = 0.0f64;
    let mut sum_cost = 0.0f64;
    let mut sum_ios = 0.0f64;
    let mut sum_buffers = 0.0f64;
    let mut max_rows = 0.0f64;
    let mut max_cost = 0.0f64;

    plan.root.visit_postorder(&mut |n| {
        v[n.op.kind().index()] += 1.0;
        sum_rows += n.est.rows;
        sum_cost += n.est.total_cost;
        sum_ios += n.est.ios;
        sum_buffers += n.est.buffers;
        max_rows = max_rows.max(n.est.rows);
        max_cost = max_cost.max(n.est.total_cost);
        match &n.op {
            Operator::Join { algo, .. } => {
                let i = match algo {
                    JoinAlgorithm::NestedLoop => 0,
                    JoinAlgorithm::Hash => 1,
                    JoinAlgorithm::Merge => 2,
                };
                v[21 + i] += 1.0;
            }
            Operator::Scan { method, .. } => {
                let i = matches!(method, ScanMethod::Index { .. }) as usize;
                v[24 + i] += 1.0;
            }
            Operator::Sort { method, .. } => {
                let i = match method {
                    SortMethod::Quicksort => 0,
                    SortMethod::TopN => 1,
                    SortMethod::External => 2,
                };
                v[26 + i] += 1.0;
            }
            Operator::Aggregate { strategy, .. } => {
                let i = match strategy {
                    AggStrategy::Plain => 0,
                    AggStrategy::Sorted => 1,
                    AggStrategy::Hashed => 2,
                };
                v[29 + i] += 1.0;
            }
            _ => {}
        }
    });

    v[8] = plan.node_count() as f32;
    v[9] = plan.depth() as f32;
    v[10] = signed_log1p(plan.root.est.width);
    v[11] = signed_log1p(plan.root.est.rows);
    v[12] = signed_log1p(plan.root.est.buffers);
    v[13] = signed_log1p(plan.root.est.ios);
    v[14] = signed_log1p(plan.root.est.total_cost);
    v[15] = signed_log1p(sum_rows);
    v[16] = signed_log1p(sum_cost);
    v[17] = signed_log1p(sum_ios);
    v[18] = signed_log1p(sum_buffers);
    v[19] = signed_log1p(max_rows);
    v[20] = signed_log1p(max_cost);
    v[32] = plan.root.concurrency as f32;
    v
}

/// Per-position whitening statistics for the flat vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlatWhitener {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl FlatWhitener {
    fn fit(rows: &[[f32; FLAT_FEATURES]]) -> FlatWhitener {
        let n = rows.len().max(1) as f64;
        let mut mean = vec![0.0f64; FLAT_FEATURES];
        let mut sq = vec![0.0f64; FLAT_FEATURES];
        for r in rows {
            for (i, &x) in r.iter().enumerate() {
                mean[i] += x as f64;
                sq[i] += (x as f64) * (x as f64);
            }
        }
        let std: Vec<f32> = (0..FLAT_FEATURES)
            .map(|i| {
                let m = mean[i] / n;
                ((sq[i] / n - m * m).max(0.0).sqrt().max(1e-6)) as f32
            })
            .collect();
        FlatWhitener { mean: mean.into_iter().map(|m| (m / n) as f32).collect(), std }
    }

    fn apply(&self, v: &[f32; FLAT_FEATURES]) -> Vec<f32> {
        v.iter()
            .enumerate()
            .map(|(i, &x)| (x - self.mean[i]) / self.std[i])
            .collect()
    }
}

/// The §3 flat plan-level DNN, as a trainable [`LatencyModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatDnn {
    config: AblationConfig,
    fitted: Option<(FlatWhitener, TargetCodec, Mlp)>,
}

impl FlatDnn {
    /// Creates an untrained flat DNN.
    pub fn new(config: AblationConfig) -> FlatDnn {
        FlatDnn { config, fitted: None }
    }

    /// Total trainable parameters (0 before fitting).
    pub fn num_params(&self) -> usize {
        self.fitted.as_ref().map(|(_, _, m)| m.num_params()).unwrap_or(0)
    }
}

impl LatencyModel for FlatDnn {
    fn name(&self) -> &'static str {
        "Flat DNN"
    }

    fn fit(&mut self, plans: &[&Plan]) {
        assert!(!plans.is_empty(), "cannot fit on zero plans");
        let cfg = &self.config;
        let raw: Vec<[f32; FLAT_FEATURES]> = plans.iter().map(|p| flat_features(p)).collect();
        let whitener = FlatWhitener::fit(&raw);
        let codec =
            TargetCodec::fit(cfg.target_transform, plans.iter().map(|p| p.latency_ms()));

        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![FLAT_FEATURES];
        dims.extend(std::iter::repeat_n(cfg.hidden_units, cfg.hidden_layers));
        dims.push(1);
        let mut mlp =
            Mlp::new(&dims, Activation::Relu, Activation::Identity, Init::He, &mut rng);
        let opt = Sgd::new(cfg.learning_rate, cfg.momentum);
        let mut opt_state = OptState::new();

        let x_all: Vec<Vec<f32>> = raw.iter().map(|r| whitener.apply(r)).collect();
        let t_all: Vec<f32> = plans.iter().map(|p| codec.encode(p.latency_ms())).collect();
        let mut order: Vec<usize> = (0..plans.len()).collect();

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let mut x = Matrix::zeros(chunk.len(), FLAT_FEATURES);
                let mut t = Matrix::zeros(chunk.len(), 1);
                for (b, &i) in chunk.iter().enumerate() {
                    x.row_mut(b).copy_from_slice(&x_all[i]);
                    t.set(b, 0, t_all[i]);
                }
                let cache = mlp.forward_cached(&x);
                let (_, d) = qpp_nn::loss::mse(cache.output(), &t);
                mlp.zero_grad();
                mlp.backward(&cache, &d);
                if cfg.weight_decay > 0.0 {
                    for layer in mlp.layers_mut() {
                        let (gw, w) = (&mut layer.gw, &layer.w);
                        gw.add_scaled(w, cfg.weight_decay);
                    }
                }
                let slots = opt_state.layers_mut(mlp.num_layers());
                mlp.apply_grads(&opt, slots);
            }
        }
        self.fitted = Some((whitener, codec, mlp));
    }

    fn predict(&self, plan: &Plan) -> f64 {
        let (whitener, codec, mlp) =
            self.fitted.as_ref().expect("model must be fitted before prediction");
        let v = whitener.apply(&flat_features(plan));
        let x = Matrix::from_row(&v);
        codec.decode(mlp.forward(&x).get(0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    #[test]
    fn features_have_documented_width_and_are_finite() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 10, 1);
        for p in &ds.plans {
            let v = flat_features(p);
            assert!(v.iter().all(|x| x.is_finite()));
            // Family counts sum to the node count.
            let fam: f32 = v[..8].iter().sum();
            assert_eq!(fam as usize, p.node_count());
        }
    }

    #[test]
    fn fit_predict_produces_finite_latencies() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 50, 2);
        let mut m = FlatDnn::new(AblationConfig::tiny());
        m.fit(&ds.plans.iter().take(40).collect::<Vec<_>>());
        assert!(m.num_params() > 0);
        for p in ds.plans.iter().skip(40) {
            let pred = m.predict(p);
            assert!(pred.is_finite() && pred >= 0.0);
        }
    }

    #[test]
    fn training_beats_one_epoch() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 80, 3);
        let (train, test) = ds.plans.split_at(64);
        let train: Vec<&Plan> = train.iter().collect();
        let eval = |m: &FlatDnn| {
            let preds: Vec<f64> = test.iter().map(|p| m.predict(p)).collect();
            let actual: Vec<f64> = test.iter().map(|p| p.latency_ms()).collect();
            qppnet::evaluate(&actual, &preds).mae_ms
        };
        let mut long = FlatDnn::new(AblationConfig { epochs: 30, ..AblationConfig::tiny() });
        long.fit(&train);
        let mut short = FlatDnn::new(AblationConfig { epochs: 1, ..AblationConfig::tiny() });
        short.fit(&train);
        assert!(eval(&long) < eval(&short), "{} vs {}", eval(&long), eval(&short));
    }

    #[test]
    fn identical_structure_different_tables_get_different_predictions() {
        // The flat model distinguishes plans through aggregate statistics:
        // two single-table scans of different relations differ in their
        // root estimates.
        let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 4);
        let mut m = FlatDnn::new(AblationConfig::tiny());
        m.fit(&ds.plans.iter().collect::<Vec<_>>());
        let preds: std::collections::BTreeSet<u64> =
            ds.plans.iter().map(|p| m.predict(p).to_bits()).collect();
        assert!(preds.len() > ds.plans.len() / 2, "flat predictions collapsed");
    }

    #[test]
    #[should_panic(expected = "fitted")]
    fn predict_before_fit_panics() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 2, 5);
        let m = FlatDnn::new(AblationConfig::tiny());
        let _ = m.predict(&ds.plans[0]);
    }
}
