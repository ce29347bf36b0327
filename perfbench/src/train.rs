//! The training phase every workload starts with: fit the paper-tier
//! model (Adam, the experiment harness's default) on the seed's TPC-H
//! plans at two worker threads, then score the held-out plans through
//! `QppNet::predict_batch`. Its model is the checkpoint the daemon loads.
//!
//! The host's speed drifts by tens of percent from one second to the
//! next, so the throughput figures are pooled from samples spread over
//! the whole run: held-out scorings between the serving rounds, and a
//! second, identical fit after the serving phase.

use std::time::Instant;

use qpp_nn::Executor;
use qpp_plansim::prelude::Plan;
use qppnet::{OptimizerKind, QppConfig, QppNet, TrainHistory};

use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workload::Data;

/// Training epochs: a fixed amount of work, so accuracy is a function of
/// the seed alone.
pub const EPOCHS: usize = 80;
/// Worker threads for training (the host has two cores).
pub const THREADS: usize = 2;

/// The model configuration the phase trains.
pub fn config(seed: u64) -> QppConfig {
    QppConfig {
        optimizer: OptimizerKind::Adam,
        epochs: EPOCHS,
        threads: THREADS,
        seed,
        ..QppConfig::default()
    }
}

/// What the phase produced.
pub struct Trained {
    pub model: QppNet,
    pub history: TrainHistory,
    /// Executor runs and unparks during the fit.
    pub pool_runs: u64,
    pub pool_unparks: u64,
    /// Held-out predictions scored.
    pub attempted: u64,
    /// Held-out predictions that were not finite.
    pub failed: u64,
    /// Seconds per held-out batch scoring, gathered over the run.
    pub score_s: Vec<f64>,
}

/// The median of `v` (which it sorts).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn plans(ds: &qpp_plansim::prelude::Dataset) -> Vec<&Plan> {
    ds.plans.iter().collect()
}

/// Fits a fresh model on the training plans.
fn fit(data: &Data, seed: u64) -> (QppNet, TrainHistory) {
    let mut model = QppNet::new(config(seed), &data.train.catalog);
    let history = model.fit(&plans(&data.train));
    (model, history)
}

/// Runs the phase and records the accuracy metrics.
pub fn run(data: &Data, seed: u64, values: &mut Values, tracer: Option<&Tracer>) -> Trained {
    let pool0 = Executor::global().stats();
    let (model, history) = match tracer {
        Some(t) => t.timed("train", || fit(data, seed)).0,
        None => fit(data, seed),
    };
    let pool1 = Executor::global().stats();

    let test = plans(&data.test);
    let preds = model.predict_batch(&test);
    let failed = preds.iter().filter(|p| !p.is_finite()).count() as u64;
    let actual: Vec<f64> = test.iter().map(|p| p.latency_ms()).collect();
    let mut rel: Vec<f64> = actual
        .iter()
        .zip(&preds)
        .map(|(a, p)| (p - a).abs() / a)
        .collect();
    values.set("median_rel_err_pct", 100.0 * median(&mut rel));
    values.set("r15_share", qppnet::evaluate(&actual, &preds).r_le_15);

    let mut trained = Trained {
        model,
        history,
        pool_runs: pool1.runs - pool0.runs,
        pool_unparks: pool1.unparks - pool0.unparks,
        attempted: test.len() as u64,
        failed,
        score_s: Vec::new(),
    };
    trained.score(data, 4);
    trained
}

impl Trained {
    /// Times `times` more held-out batch scorings.
    pub fn score(&mut self, data: &Data, times: usize) {
        let test = plans(&data.test);
        for _ in 0..times {
            let t0 = Instant::now();
            std::hint::black_box(self.model.predict_batch(&test));
            self.score_s.push(t0.elapsed().as_secs_f64());
        }
    }

    /// Fits the same model a second time and records `train_plans_per_s`
    /// and `predict_plans_per_s` from the samples of the whole run.
    pub fn finish(&mut self, data: &Data, seed: u64, values: &mut Values) {
        let (_, history) = fit(data, seed);
        let mut epochs: Vec<f64> = self.history.epoch_seconds[1..]
            .iter()
            .chain(&history.epoch_seconds[1..])
            .copied()
            .collect();
        values.set(
            "train_plans_per_s",
            data.train.plans.len() as f64 / median(&mut epochs),
        );
        values.set(
            "predict_plans_per_s",
            data.test.plans.len() as f64 / median(&mut self.score_s),
        );
    }
}
