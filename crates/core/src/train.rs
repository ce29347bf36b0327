//! Training loop (paper §5) with the two §5.1 optimizations — run, by
//! default, **on the serving engine's wavefront layout**.
//!
//! Every epoch shuffles the training plans, draws large random batches,
//! and computes one gradient step per batch. Two engines can do the math
//! (see [`TrainEngine`]); both supervise every operator (Equation 7) and
//! recombine per-batch SSE gradients normalized by the batch's total
//! operator count — the paper's size-weighted, unbiased recombination:
//!
//! * **wavefront** (default, [`crate::train_program::ProgramTape`]): the
//!   whole heterogeneous batch is compiled onto the `(height-from-leaf,
//!   OpKind)` wavefront layout the serving engine uses — one gemm per
//!   operator family per wavefront in each direction, regardless of how
//!   many structural shapes the batch mixes. Features are lowered and
//!   whitened **once per run** (not once per epoch), full-batch
//!   configurations compile one tape and reuse it every epoch, and
//!   `threads > 1` cuts the batch into one plan lane per thread: each
//!   worker runs forward, loss and backward over its own lanes, and a
//!   whole gradient step (panel repack, sweeps, gradient fold) is one
//!   dispatch onto the resident worker pool.
//! * **per-class** ([`TrainEngine::Classes`], the §5.1.1 arrangement):
//!   the batch is partitioned into structural equivalence classes; each
//!   class is evaluated as one [`TreeBatch`] (matrix ops over all members
//!   at once). This is the layout the paper describes, the differential
//!   oracle the wavefront engine is tested against, and the only
//!   arrangement that can express the §5.1 ablations — turning either
//!   optimization *off* ([`crate::config::OptMode`]) forces it:
//!   **vectorization** off evaluates singletons, **information sharing**
//!   off re-evaluates the subtree under every operator with only its root
//!   supervised — mathematically identical gradients (a test asserts
//!   this), but `O(n · depth)` unit evaluations instead of `O(n)`.

use crate::config::{OptMode, OptimizerKind, QppConfig, TargetCodec, TrainEngine};
use crate::infer::{predict_plans_with, InferEngine};
use crate::metrics::Metrics;
use crate::train_program::ProgramSession;
use crate::tree::{equivalence_classes, RatioCaps, Supervision, TreeBatch};
use crate::unit::UnitSet;
use qpp_nn::{Adam, OptState, Optimizer, Sgd};
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::plan::Plan;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Computation-shape statistics of one training run — the observability
/// surface of the trainer (`qpp train` prints this; the
/// `train_throughput` bench explains its numbers with it).
///
/// "Gemm" counts are *forward* matrix products (one per unit layer per
/// group/step); the backward executes two more per layer (weight and
/// input gradients) in either engine, so ratios between engines are
/// preserved. Under the wavefront engine, steps and gemms are summed over
/// the tape's lanes: a batch cut into one lane per thread runs more,
/// narrower steps than one lane would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// True when the wavefront tape computed the gradients
    /// ([`TrainEngine::Program`] with both §5.1 optimizations on).
    pub program_engine: bool,
    /// Distinct structural equivalence classes in the training set — the
    /// granularity the per-class engine fragments a full batch into.
    pub classes: usize,
    /// Wavefront steps executed per epoch, summed over lanes (0 under the
    /// per-class engine).
    pub steps_per_epoch: usize,
    /// Forward gemm calls per epoch (mean across epochs).
    pub gemms_per_epoch: usize,
    /// Supervised operator rows per epoch.
    pub rows_per_epoch: usize,
    /// Supervised operator rows processed per wall-clock second over the
    /// whole run (forward + backward + optimizer).
    pub rows_per_sec: f64,
}

impl std::fmt::Display for TrainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} engine: {} classes -> {} wavefront steps/epoch, \
             {} forward gemms/epoch over {} rows ({:.0} rows/s)",
            if self.program_engine { "wavefront" } else { "per-class" },
            self.classes,
            self.steps_per_epoch,
            self.gemms_per_epoch,
            self.rows_per_epoch,
            self.rows_per_sec,
        )
    }
}

/// Per-epoch training trace.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct TrainHistory {
    /// Mean training loss per epoch (MSE per operator, in encoded space).
    pub train_loss: Vec<f64>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// `(epoch, metrics)` on the held-out set, when eval tracking is on.
    pub eval_trace: Vec<(usize, Metrics)>,
    /// Epoch at which patience-based early stopping fired, if it did.
    #[serde(default)]
    pub stopped_at: Option<usize>,
    /// Computation-shape statistics of the run (see [`TrainStats`]).
    #[serde(default)]
    pub stats: TrainStats,
}

impl TrainHistory {
    /// Total wall-clock training time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum()
    }
}

/// What one gradient step reported back to the epoch loop.
struct BatchOutcome {
    /// Summed squared error over the batch's supervised operators.
    sse: f64,
    /// Supervised operator count (the gradient normalizer).
    ops: usize,
    /// Neural-unit forward evaluations (gemm groups × 1; per-class
    /// engine only — the tape reports steps instead).
    unit_evals: usize,
    /// Wavefront steps executed (tape engine only).
    steps: usize,
}

/// Trains [`UnitSet`]s over executed plans.
pub struct Trainer<'a> {
    /// Hyper-parameters.
    pub config: &'a QppConfig,
    /// Featurization (catalog-specific).
    pub featurizer: &'a Featurizer,
    /// Whitening statistics (fit on the training split).
    pub whitener: &'a Whitener,
    /// Target codec (fit on the training split).
    pub codec: &'a TargetCodec,
    /// Ratio caps for clamped evaluation traces (None = unclamped).
    pub ratio_caps: Option<&'a RatioCaps>,
}

impl Trainer<'_> {
    /// Runs the full training loop.
    ///
    /// When `eval` is `Some((plans, every))`, the model is evaluated on
    /// `plans` after every `every`-th epoch (Figure 9b/9c convergence
    /// traces) through the serving engine.
    pub fn train(
        &self,
        units: &mut UnitSet,
        plans: &[&Plan],
        eval: Option<(&[&Plan], usize)>,
    ) -> TrainHistory {
        assert!(!plans.is_empty(), "cannot train on zero plans");
        let cfg = self.config;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x7e57);
        let mut opt: Box<dyn Optimizer> = match cfg.optimizer {
            OptimizerKind::Sgd => Box::new(Sgd::new(cfg.learning_rate, cfg.momentum)),
            OptimizerKind::Adam => Box::new(Adam::new(cfg.learning_rate)),
        };
        // One slot per dense layer, shared by both engines' updates.
        let mut opt_state = OptState::new();

        // The wavefront tape expresses exactly the both-optimizations
        // configuration (whole-batch vectorization + one shared bottom-up
        // pass); the §5.1 ablation modes are defined by the per-class
        // arrangement, so they force the oracle engine.
        let mut session = (cfg.train_engine == TrainEngine::Program
            && cfg.opt_mode == OptMode::Both)
            .then(|| {
                let roots: Vec<&qpp_plansim::plan::PlanNode> =
                    plans.iter().map(|p| &p.root).collect();
                ProgramSession::prepare(self.featurizer, self.whitener, self.codec, &roots)
            });

        let mut history = TrainHistory::default();
        let mut order: Vec<usize> = (0..plans.len()).collect();
        let mut best_mae = f64::INFINITY;
        let mut evals_since_best = 0usize;
        let mut total_rows = 0usize;
        let mut total_evals = 0usize;
        let mut total_steps = 0usize;

        for epoch in 0..cfg.epochs {
            let start = Instant::now();
            opt.set_learning_rate(cfg.lr_schedule.lr_at(cfg.learning_rate, epoch, cfg.epochs));
            order.shuffle(&mut rng);
            let mut epoch_sse = 0.0f64;
            let mut epoch_ops = 0usize;

            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let (opt, state) = (opt.as_mut(), &mut opt_state);
                let out = match &mut session {
                    Some(session) => self.train_batch_program(units, opt, state, session, chunk),
                    None => self.train_batch(units, opt, state, plans, chunk),
                };
                epoch_sse += out.sse;
                epoch_ops += out.ops;
                total_evals += out.unit_evals;
                total_steps += out.steps;
            }
            total_rows += epoch_ops;

            history.train_loss.push(epoch_sse / epoch_ops.max(1) as f64);
            history.epoch_seconds.push(start.elapsed().as_secs_f64());

            if let Some((eval_plans, every)) = eval {
                if every > 0 && (epoch % every == 0 || epoch + 1 == cfg.epochs) {
                    let preds = predict_plans_with(
                        InferEngine::default().with_threads(cfg.threads),
                        units,
                        self.featurizer,
                        self.whitener,
                        self.codec,
                        self.ratio_caps,
                        eval_plans,
                    );
                    let actual: Vec<f64> = eval_plans.iter().map(|p| p.latency_ms()).collect();
                    let metrics = crate::metrics::evaluate(&actual, &preds);
                    let mae = metrics.mae_ms;
                    history.eval_trace.push((epoch, metrics));

                    if let Some(patience) = cfg.early_stop_patience {
                        if mae < best_mae * (1.0 - 1e-4) {
                            best_mae = mae;
                            evals_since_best = 0;
                        } else {
                            evals_since_best += 1;
                            if evals_since_best > patience {
                                history.stopped_at = Some(epoch);
                                break;
                            }
                        }
                    }
                }
            }
        }

        let epochs_run = history.train_loss.len().max(1);
        let layers = units.unit(qpp_plansim::operators::OpKind::ALL[0]).num_layers();
        let (evals, steps) = (total_evals / epochs_run, total_steps / epochs_run);
        history.stats = TrainStats {
            program_engine: session.is_some(),
            classes: equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root)))
                .len(),
            steps_per_epoch: steps,
            gemms_per_epoch: (evals + steps) * layers,
            rows_per_epoch: total_rows / epochs_run,
            rows_per_sec: total_rows as f64 / history.total_seconds().max(1e-12),
        };
        history
    }

    /// One gradient step over one batch through the wavefront tape, laid
    /// out as one lane per thread: one recording forward, the
    /// all-operator loss and one reverse sweep per lane — each gemm
    /// spanning every plan of its lane's wavefront — then the lanes'
    /// gradients folded into `units` and applied, each worker updating
    /// the layers it folded.
    fn train_batch_program(
        &self,
        units: &mut UnitSet,
        opt: &mut dyn Optimizer,
        state: &mut OptState,
        session: &mut ProgramSession,
        chunk: &[usize],
    ) -> BatchOutcome {
        let cfg = self.config;
        let tape = session.tape_for(chunk, units, cfg.threads);
        // Unbiased recombination (§5.1.1), weight decay (which also
        // pulls never-activated one-hot columns toward zero — essential
        // for unseen-template generalization) and the optimizer update
        // are fused into the step's gradient fold: `units` receives the
        // summed SSE gradients normalized by the batch's supervised
        // operator count, plus `weight_decay · w`, and steps by them.
        let update = Some((&*opt, state));
        let (sse, ops) = tape.train_step(units, cfg.threads, cfg.weight_decay, update);
        opt.end_step();
        BatchOutcome { sse, ops, unit_evals: 0, steps: tape.num_steps() }
    }

    /// One gradient step over one batch through the per-class oracle
    /// engine. Returns the batch outcome.
    fn train_batch(
        &self,
        units: &mut UnitSet,
        opt: &mut dyn Optimizer,
        state: &mut OptState,
        plans: &[&Plan],
        chunk: &[usize],
    ) -> BatchOutcome {
        let cfg = self.config;
        units.zero_grad();
        let mut total_sse = 0.0f64;
        let mut total_ops = 0usize;
        let mut total_evals = 0usize;

        // Partition the chunk into structural equivalence classes (or
        // singletons when vectorization is off).
        let groups: Vec<Vec<usize>> = if cfg.opt_mode.vectorized() {
            equivalence_classes(chunk.iter().map(|&i| (i, &plans[i].root)))
                .into_iter()
                .map(|(_, members)| members)
                .collect()
        } else {
            chunk.iter().map(|&i| vec![i]).collect()
        };

        if cfg.threads > 1 {
            // Data-parallel gradient computation: equivalence classes are
            // distributed round-robin across worker threads, each of which
            // accumulates gradients into its own clone of the units; the
            // clones are then reduced back into the master. Numerically
            // equivalent to the serial path up to f32 summation order.
            let n_threads = cfg.threads.min(groups.len().max(1));
            let units_ro: &UnitSet = units;
            let results: Vec<(f64, usize, usize, UnitSet)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_threads)
                    .map(|t| {
                        let my_groups: Vec<&Vec<usize>> =
                            groups.iter().skip(t).step_by(n_threads).collect();
                        scope.spawn(move || {
                            let mut local = units_ro.clone();
                            local.zero_grad();
                            let mut sse = 0.0f64;
                            let mut ops = 0usize;
                            let mut evals = 0usize;
                            for members in my_groups {
                                let (s, o, e) = self.process_group(&mut local, plans, members);
                                sse += s;
                                ops += o;
                                evals += e;
                            }
                            (sse, ops, evals, local)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });
            for (sse, ops, evals, local) in results {
                units.add_grads_from(&local);
                total_sse += sse;
                total_ops += ops;
                total_evals += evals;
            }
        } else {
            for members in &groups {
                let (sse, ops, evals) = self.process_group(units, plans, members);
                total_sse += sse;
                total_ops += ops;
                total_evals += evals;
            }
        }

        // Unbiased recombination: normalize the summed SSE gradients by the
        // total number of supervised operators in the batch, then add
        // weight decay (which also pulls never-activated one-hot columns
        // toward zero — essential for unseen-template generalization).
        units.scale_grad(1.0 / total_ops.max(1) as f32);
        units.add_weight_decay(cfg.weight_decay);
        units.apply_grads(opt, state);
        BatchOutcome { sse: total_sse, ops: total_ops, unit_evals: total_evals, steps: 0 }
    }

    /// Forward + backward over one equivalence class (or singleton),
    /// accumulating gradients into `units`. Returns
    /// `(sse, op_count, unit_evals)`.
    fn process_group(
        &self,
        units: &mut UnitSet,
        plans: &[&Plan],
        members: &[usize],
    ) -> (f64, usize, usize) {
        let roots: Vec<&qpp_plansim::plan::PlanNode> =
            members.iter().map(|&i| &plans[i].root).collect();

        if self.config.opt_mode.shares_info() {
            // One bottom-up pass, every operator supervised.
            let tb = TreeBatch::build(self.featurizer, self.whitener, self.codec, &roots);
            let fwd = tb.forward(units);
            let (sse, grads) = tb.loss(&fwd, Supervision::AllOperators);
            tb.backward(units, &fwd, grads);
            (sse, tb.supervised_count(Supervision::AllOperators), tb.num_positions())
        } else {
            // Naive Equation-7 evaluation: one subtree pass per operator,
            // only its root supervised.
            let mut total_sse = 0.0f64;
            let mut total_ops = 0usize;
            let mut total_evals = 0usize;
            let node_lists: Vec<Vec<&qpp_plansim::plan::PlanNode>> =
                roots.iter().map(|r| r.postorder()).collect();
            let n = node_lists[0].len();
            for k in 0..n {
                let sub_roots: Vec<&qpp_plansim::plan::PlanNode> =
                    node_lists.iter().map(|l| l[k]).collect();
                let tb =
                    TreeBatch::build(self.featurizer, self.whitener, self.codec, &sub_roots);
                let fwd = tb.forward(units);
                let (sse, grads) = tb.loss(&fwd, Supervision::RootOnly);
                tb.backward(units, &fwd, grads);
                total_sse += sse;
                total_ops += tb.supervised_count(Supervision::RootOnly);
                total_evals += tb.num_positions();
            }
            (total_sse, total_ops, total_evals)
        }
    }
}

/// Predicts root latencies (milliseconds) for `plans`, vectorizing over
/// structural equivalence classes — the per-class serving path behind
/// [`InferEngine::Classes`] (the wavefront engine serves the default
/// path; see [`crate::infer::predict_plans_with`]).
pub fn predict_plans(
    units: &UnitSet,
    featurizer: &Featurizer,
    whitener: &Whitener,
    codec: &TargetCodec,
    ratio_caps: Option<&RatioCaps>,
    plans: &[&Plan],
) -> Vec<f64> {
    let mut out = vec![0.0f64; plans.len()];
    for (_, members) in equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root))) {
        let roots: Vec<&qpp_plansim::plan::PlanNode> =
            members.iter().map(|&i| &plans[i].root).collect();
        let tb = TreeBatch::build(featurizer, whitener, codec, &roots);
        let preds = match ratio_caps {
            Some(caps) => tb.predict_roots_clamped(units, codec, caps),
            None => tb.predict_roots(units, codec),
        };
        for (&i, p) in members.iter().zip(preds) {
            out[i] = p;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptMode, QppConfig};
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    fn setup(n: usize) -> (Dataset, Featurizer, Whitener, TargetCodec) {
        let ds = Dataset::generate(Workload::TpcH, 1.0, n, 21);
        let fz = Featurizer::new(&ds.catalog);
        let wh = Whitener::fit(&fz, ds.plans.iter());
        let codec = TargetCodec::fit(
            crate::config::TargetTransform::Log1p,
            ds.plans.iter().map(|p| p.latency_ms()),
        );
        (ds, fz, wh, codec)
    }

    fn fresh_units(cfg: &QppConfig, fz: &Featurizer) -> UnitSet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        UnitSet::new(cfg, fz, &mut rng)
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, fz, wh, codec) = setup(40);
        let cfg = QppConfig { epochs: 15, ..QppConfig::tiny() };
        let mut units = fresh_units(&cfg, &fz);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let trainer = Trainer { config: &cfg, featurizer: &fz, whitener: &wh, codec: &codec, ratio_caps: None };
        let hist = trainer.train(&mut units, &plans, None);
        assert_eq!(hist.train_loss.len(), 15);
        let first = hist.train_loss[0];
        let last = *hist.train_loss.last().unwrap();
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    /// The four §5.1 optimization modes must compute identical gradients —
    /// they differ only in how the computation is arranged. With the
    /// default engine, `Both` runs on the wavefront tape while the other
    /// three run per-class, so this doubles as a cross-engine first-step
    /// agreement check.
    #[test]
    fn all_opt_modes_produce_equivalent_first_steps() {
        let (ds, fz, wh, codec) = setup(12);
        let plans: Vec<&Plan> = ds.plans.iter().collect();

        let mut losses = Vec::new();
        let mut predictions = Vec::new();
        for mode in OptMode::ALL {
            let cfg = QppConfig {
                epochs: 1,
                batch_size: 12,
                opt_mode: mode,
                momentum: 0.0,
                ..QppConfig::tiny()
            };
            let mut units = fresh_units(&cfg, &fz);
            let trainer = Trainer { config: &cfg, featurizer: &fz, whitener: &wh, codec: &codec, ratio_caps: None };
            let hist = trainer.train(&mut units, &plans, None);
            losses.push(hist.train_loss[0]);
            predictions.push(predict_plans(&units, &fz, &wh, &codec, None, &plans));
        }

        for i in 1..losses.len() {
            let rel = (losses[i] - losses[0]).abs() / losses[0].max(1e-9);
            assert!(rel < 1e-3, "mode {i} loss {} vs {}", losses[i], losses[0]);
            for (a, b) in predictions[i].iter().zip(&predictions[0]) {
                let rel = (a - b).abs() / (1.0 + b.abs());
                assert!(rel < 1e-2, "mode {i}: prediction {a} vs {b}");
            }
        }
    }

    /// Both gradient engines, same RNG stream, same config: mini-batched
    /// training must land on models that agree closely after several
    /// optimizer steps (the full differential suite lives in
    /// `tests/train_differential.rs`).
    #[test]
    fn engines_agree_through_minibatched_training() {
        let (ds, fz, wh, codec) = setup(30);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let run = |engine: TrainEngine| {
            let cfg = QppConfig {
                epochs: 4,
                batch_size: 8, // several chunks per epoch — the recompile path
                train_engine: engine,
                ..QppConfig::tiny()
            };
            let mut units = fresh_units(&cfg, &fz);
            let trainer = Trainer {
                config: &cfg,
                featurizer: &fz,
                whitener: &wh,
                codec: &codec,
                ratio_caps: None,
            };
            let hist = trainer.train(&mut units, &plans, None);
            (hist, predict_plans(&units, &fz, &wh, &codec, None, &plans))
        };
        let (hist_p, preds_p) = run(TrainEngine::Program);
        let (hist_c, preds_c) = run(TrainEngine::Classes);
        assert!(hist_p.stats.program_engine && !hist_c.stats.program_engine);
        for (l_p, l_c) in hist_p.train_loss.iter().zip(&hist_c.train_loss) {
            let rel = (l_p - l_c).abs() / l_c.max(1e-9);
            assert!(rel < 1e-3, "loss {l_p} vs {l_c}");
        }
        for (a, b) in preds_p.iter().zip(&preds_c) {
            let rel = (a - b).abs() / (1.0 + b.abs());
            assert!(rel < 1e-3, "prediction {a} vs {b}");
        }
    }

    #[test]
    fn stats_reflect_the_engine_shape() {
        let (ds, fz, wh, codec) = setup(24);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let run = |engine: TrainEngine| {
            let cfg = QppConfig { epochs: 2, train_engine: engine, ..QppConfig::tiny() };
            let mut units = fresh_units(&cfg, &fz);
            let trainer = Trainer {
                config: &cfg,
                featurizer: &fz,
                whitener: &wh,
                codec: &codec,
                ratio_caps: None,
            };
            trainer.train(&mut units, &plans, None).stats
        };
        let p = run(TrainEngine::Program);
        let c = run(TrainEngine::Classes);
        let total_ops: usize = plans.iter().map(|p| p.node_count()).sum();
        assert!(p.program_engine && p.steps_per_epoch > 0);
        assert_eq!(p.rows_per_epoch, total_ops);
        assert_eq!(c.rows_per_epoch, total_ops);
        assert_eq!(p.classes, c.classes);
        assert!(p.classes > 0);
        assert!(!c.program_engine && c.steps_per_epoch == 0);
        // The whole point of the wavefront layout: far fewer gemm calls
        // for the same supervised rows.
        assert!(
            p.gemms_per_epoch < c.gemms_per_epoch,
            "tape {} gemms vs per-class {}",
            p.gemms_per_epoch,
            c.gemms_per_epoch
        );
        assert!(p.rows_per_sec > 0.0 && c.rows_per_sec > 0.0);
        let line = p.to_string();
        assert!(line.contains("wavefront") && line.contains("rows/s"), "{line}");
    }

    #[test]
    fn eval_trace_is_recorded() {
        let (ds, fz, wh, codec) = setup(30);
        let cfg = QppConfig { epochs: 10, ..QppConfig::tiny() };
        let mut units = fresh_units(&cfg, &fz);
        let (train, test) = ds.plans.split_at(24);
        let train_refs: Vec<&Plan> = train.iter().collect();
        let test_refs: Vec<&Plan> = test.iter().collect();
        let trainer = Trainer { config: &cfg, featurizer: &fz, whitener: &wh, codec: &codec, ratio_caps: None };
        let hist = trainer.train(&mut units, &train_refs, Some((&test_refs, 3)));
        assert!(!hist.eval_trace.is_empty());
        // Last epoch is always evaluated.
        assert_eq!(hist.eval_trace.last().unwrap().0, cfg.epochs - 1);
    }

    #[test]
    fn predictions_cover_every_plan() {
        let (ds, fz, wh, codec) = setup(20);
        let cfg = QppConfig::tiny();
        let units = fresh_units(&cfg, &fz);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let preds = predict_plans(&units, &fz, &wh, &codec, None, &plans);
        assert_eq!(preds.len(), 20);
        assert!(preds.iter().all(|p| p.is_finite() && *p >= 0.0));
    }

    /// Parallel gradient computation must match serial training: same
    /// batches, same recombination, only the f32 summation order differs.
    /// Runs on the wavefront engine (the default), whose threads each
    /// sweep their own plan lanes.
    #[test]
    fn parallel_training_matches_serial() {
        let (ds, fz, wh, codec) = setup(40);
        let plans: Vec<&Plan> = ds.plans.iter().collect();

        let run = |threads: usize| {
            let cfg = QppConfig { epochs: 5, threads, ..QppConfig::tiny() };
            let mut units = fresh_units(&cfg, &fz);
            let trainer = Trainer {
                config: &cfg,
                featurizer: &fz,
                whitener: &wh,
                codec: &codec,
                ratio_caps: None,
            };
            let hist = trainer.train(&mut units, &plans, None);
            (hist.train_loss.clone(), predict_plans(&units, &fz, &wh, &codec, None, &plans))
        };

        let (loss1, preds1) = run(1);
        let (loss4, preds4) = run(4);
        for (a, b) in loss1.iter().zip(&loss4) {
            let rel = (a - b).abs() / a.max(1e-9);
            assert!(rel < 1e-3, "loss {a} vs {b}");
        }
        for (a, b) in preds1.iter().zip(&preds4) {
            let rel = (a - b).abs() / (1.0 + a.abs());
            assert!(rel < 1e-2, "prediction {a} vs {b}");
        }
    }

    /// Two fits at two threads with one seed are the same model, byte for
    /// byte: each lane sums its gradients alone and the fold adds lanes in
    /// lane order, so thread scheduling never reaches the weights. Both
    /// the compile-once full batch and the recompiling mini-batch path.
    #[test]
    fn two_thread_fits_are_reproducible() {
        let (ds, ..) = setup(40);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        for batch_size in [64, 16] {
            let fit = || {
                let cfg = QppConfig {
                    epochs: 4,
                    threads: 2,
                    batch_size,
                    optimizer: OptimizerKind::Adam,
                    learning_rate: 1e-3,
                    ..QppConfig::tiny()
                };
                let mut model = crate::model::QppNet::new(cfg, &ds.catalog);
                model.fit(&plans);
                model.to_json()
            };
            assert!(fit() == fit(), "batch {batch_size}: two-thread fits diverged");
        }
    }

    /// The same contract for the per-class oracle engine's data-parallel
    /// path (classes dealt across unit-set clones).
    #[test]
    fn parallel_classes_training_matches_serial() {
        let (ds, fz, wh, codec) = setup(30);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let run = |threads: usize| {
            let cfg = QppConfig {
                epochs: 3,
                threads,
                train_engine: TrainEngine::Classes,
                ..QppConfig::tiny()
            };
            let mut units = fresh_units(&cfg, &fz);
            let trainer = Trainer {
                config: &cfg,
                featurizer: &fz,
                whitener: &wh,
                codec: &codec,
                ratio_caps: None,
            };
            let hist = trainer.train(&mut units, &plans, None);
            (hist.train_loss.clone(), predict_plans(&units, &fz, &wh, &codec, None, &plans))
        };
        let (loss1, preds1) = run(1);
        let (loss4, preds4) = run(4);
        for (a, b) in loss1.iter().zip(&loss4) {
            assert!((a - b).abs() / a.max(1e-9) < 1e-3, "loss {a} vs {b}");
        }
        for (a, b) in preds1.iter().zip(&preds4) {
            assert!((a - b).abs() / (1.0 + a.abs()) < 1e-2, "prediction {a} vs {b}");
        }
    }

    #[test]
    fn more_threads_than_classes_is_safe() {
        let (ds, fz, wh, codec) = setup(6);
        let cfg = QppConfig { epochs: 2, threads: 64, ..QppConfig::tiny() };
        let mut units = fresh_units(&cfg, &fz);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let trainer = Trainer {
            config: &cfg,
            featurizer: &fz,
            whitener: &wh,
            codec: &codec,
            ratio_caps: None,
        };
        let hist = trainer.train(&mut units, &plans, None);
        assert_eq!(hist.train_loss.len(), 2);
        assert!(hist.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn early_stopping_halts_training() {
        let (ds, fz, wh, codec) = setup(40);
        let cfg = QppConfig {
            epochs: 200,
            early_stop_patience: Some(2),
            // A huge learning rate stalls improvement quickly.
            learning_rate: 0.2,
            ..QppConfig::tiny()
        };
        let mut units = fresh_units(&cfg, &fz);
        let (train, test) = ds.plans.split_at(32);
        let train_refs: Vec<&Plan> = train.iter().collect();
        let test_refs: Vec<&Plan> = test.iter().collect();
        let trainer = Trainer {
            config: &cfg,
            featurizer: &fz,
            whitener: &wh,
            codec: &codec,
            ratio_caps: None,
        };
        let hist = trainer.train(&mut units, &train_refs, Some((&test_refs, 1)));
        assert!(hist.stopped_at.is_some(), "expected early stop");
        assert!(hist.train_loss.len() < 200);
    }

    #[test]
    fn lr_schedule_decays_during_training() {
        let (ds, fz, wh, codec) = setup(20);
        let cfg = QppConfig {
            epochs: 12,
            lr_schedule: crate::config::LrSchedule::StepDecay { every: 4, gamma: 0.1 },
            ..QppConfig::tiny()
        };
        let mut units = fresh_units(&cfg, &fz);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let trainer = Trainer {
            config: &cfg,
            featurizer: &fz,
            whitener: &wh,
            codec: &codec,
            ratio_caps: None,
        };
        // Just verifies the schedule path runs end-to-end and still learns.
        let hist = trainer.train(&mut units, &plans, None);
        assert_eq!(hist.train_loss.len(), 12);
        assert!(hist.train_loss.last().unwrap() < &hist.train_loss[0]);
    }

    #[test]
    fn adam_optimizer_also_trains() {
        let (ds, fz, wh, codec) = setup(30);
        let cfg = QppConfig {
            epochs: 10,
            optimizer: OptimizerKind::Adam,
            learning_rate: 1e-3,
            ..QppConfig::tiny()
        };
        let mut units = fresh_units(&cfg, &fz);
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let trainer = Trainer { config: &cfg, featurizer: &fz, whitener: &wh, codec: &codec, ratio_caps: None };
        let hist = trainer.train(&mut units, &plans, None);
        assert!(hist.train_loss.last().unwrap() < &hist.train_loss[0]);
    }
}
