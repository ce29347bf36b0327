//! The `QppNet` model facade: fit / predict / evaluate / save / load.

use crate::config::{QppConfig, TargetCodec};
use crate::infer::{predict_plans_with, InferEngine, PlanProgram};
use crate::metrics::{evaluate, Metrics};
use crate::train::{TrainHistory, Trainer};
use crate::tree::RatioCaps;
use crate::unit::UnitSet;
use qpp_plansim::catalog::Catalog;
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::plan::Plan;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Trained state: whitening statistics plus the neural units.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Fitted {
    whitener: Whitener,
    units: UnitSet,
    codec: TargetCodec,
    /// Stratified inclusive/child latency ratio caps (training maxima per
    /// family and child-latency decade, widened), for the inference-time
    /// structural envelope.
    ratio_caps: RatioCaps,
}

/// A plan-structured neural network for query performance prediction.
///
/// ```
/// use qppnet::{QppConfig, QppNet};
/// use qpp_plansim::prelude::*;
///
/// let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 7);
/// let split = ds.paper_split(0);
/// let mut model = QppNet::new(QppConfig::tiny(), &ds.catalog);
/// model.fit(&ds.select(&split.train));
/// let metrics = model.evaluate(&ds.select(&split.test));
/// assert!(metrics.relative_error.is_finite());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QppNet {
    config: QppConfig,
    featurizer: Featurizer,
    fitted: Option<Fitted>,
}

impl QppNet {
    /// Creates an untrained model for plans generated against `catalog`.
    pub fn new(config: QppConfig, catalog: &Catalog) -> QppNet {
        QppNet { config, featurizer: Featurizer::new(catalog), fitted: None }
    }

    /// Creates an untrained model with a custom featurizer — e.g.
    /// [`Featurizer::with_learned_cardinalities`] for the paper's §7
    /// integration of an external cardinality estimator.
    pub fn with_featurizer(config: QppConfig, featurizer: Featurizer) -> QppNet {
        QppNet { config, featurizer, fitted: None }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &QppConfig {
        &self.config
    }

    /// Whether [`QppNet::fit`] has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// Total trainable parameters (0 before fitting).
    pub fn num_params(&self) -> usize {
        self.fitted.as_ref().map(|f| f.units.num_params()).unwrap_or(0)
    }

    /// Trains on `plans` (fits whitening statistics, initializes units
    /// unless warm-started, and runs the §5 training loop).
    pub fn fit(&mut self, plans: &[&Plan]) -> TrainHistory {
        self.fit_tracked(plans, None)
    }

    /// Like [`QppNet::fit`], additionally evaluating on `eval.0` every
    /// `eval.1` epochs (convergence traces for Figures 9b/9c).
    pub fn fit_tracked(
        &mut self,
        plans: &[&Plan],
        eval: Option<(&[&Plan], usize)>,
    ) -> TrainHistory {
        assert!(!plans.is_empty(), "cannot fit on zero plans");
        // Warm starts keep existing units, whitener and codec; cold starts
        // fit all three on the training plans.
        if self.fitted.is_none() {
            let whitener = Whitener::fit(&self.featurizer, plans.iter().copied());
            // The loss supervises every operator, so the codec is fit over
            // all per-operator latencies, not just query latencies.
            let mut latencies = Vec::new();
            for p in plans {
                p.root.visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
            }
            let codec = TargetCodec::fit(self.config.target_transform, latencies);
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
            let mut units = UnitSet::new(&self.config, &self.featurizer, &mut rng);

            // Disarm categorical features that never activate in training
            // (e.g. relations only referenced by held-out templates): their
            // randomly-initialized first-layer rows would otherwise inject
            // noise into unseen-template predictions.
            for kind in qpp_plansim::operators::OpKind::ALL {
                let size = self.featurizer.feature_size(kind);
                let numeric = self.featurizer.numeric_mask(kind);
                // Numeric positions stay live (whitening makes them
                // non-zero even when the raw value is 0).
                let mut active: Vec<bool> = numeric.to_vec();
                debug_assert_eq!(active.len(), size);
                for p in plans {
                    p.root.visit_postorder(&mut |n| {
                        if n.op.kind() == kind {
                            for (a, v) in
                                active.iter_mut().zip(self.featurizer.featurize(n))
                            {
                                *a |= v != 0.0;
                            }
                        }
                    });
                }
                units.mask_unused_inputs(kind, &active);
            }

            let ratio_caps = crate::tree::fit_ratio_caps(plans.iter().copied(), 2.0);
            self.fitted = Some(Fitted { whitener, units, codec, ratio_caps });
        }
        let fitted = self.fitted.as_mut().expect("just initialized");
        let trainer = Trainer {
            config: &self.config,
            featurizer: &self.featurizer,
            whitener: &fitted.whitener,
            codec: &fitted.codec,
            ratio_caps: if self.config.monotone_clamp {
                Some(&fitted.ratio_caps)
            } else {
                None
            },
        };
        trainer.train(&mut fitted.units, plans, eval)
    }

    /// Transfer-learning warm start (paper §8 future work): adopt the
    /// trained units and whitener of `src`. A subsequent [`QppNet::fit`]
    /// continues from these weights instead of re-initializing.
    ///
    /// # Panics
    /// Panics if `src` is unfitted or its feature layout differs.
    pub fn warm_start_from(&mut self, src: &QppNet) {
        let src_fitted = src.fitted.as_ref().expect("warm start from an unfitted model");
        for kind in qpp_plansim::operators::OpKind::ALL {
            assert_eq!(
                self.featurizer.feature_size(kind),
                src.featurizer.feature_size(kind),
                "feature layout mismatch for {kind:?}"
            );
        }
        self.fitted = Some(src_fitted.clone());
    }

    fn fitted(&self) -> &Fitted {
        self.fitted.as_ref().expect("model must be fitted before prediction")
    }

    /// Deterministic fingerprint of everything a compiled program bakes
    /// in: the featurizer (catalog statistics), the whitener, the codec
    /// and sampled unit weights. Any refit perturbs essentially every
    /// weight (gradients plus weight decay touch all parameters), and
    /// independently initialized models differ everywhere, so a small
    /// deterministic weight sample suffices to tell fitted states apart;
    /// the featurizer/whitener digests catch cross-model mismatches whose
    /// weights agree (e.g. a warm start onto a different catalog). Used
    /// to stamp compiled programs — see [`QppNet::predict_compiled`].
    fn fitted_fingerprint(&self) -> u64 {
        let f = self.fitted();
        let mut h = qpp_plansim::util::Fnv1a::new();
        h.mix(self.featurizer.digest());
        h.mix(f.whitener.digest());
        h.mix(f.units.num_params() as u64);
        h.mix(f.codec.mean.to_bits() as u64);
        h.mix(f.codec.std.to_bits() as u64);
        for kind in qpp_plansim::operators::OpKind::ALL {
            for layer in f.units.unit(kind).layers() {
                let (r, c) = (layer.w.rows(), layer.w.cols());
                h.mix(layer.w.get(0, 0).to_bits() as u64);
                h.mix(layer.w.get(r / 2, c / 2).to_bits() as u64);
                h.mix(layer.w.get(r - 1, c - 1).to_bits() as u64);
                h.mix(layer.b[layer.b.len() / 2].to_bits() as u64);
            }
        }
        h.finish()
    }

    /// Crate-internal view of the fitted state (featurizer, whitener,
    /// units, codec, active ratio caps) for analyses that drive the
    /// network directly, e.g. [`crate::importance`].
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub(crate) fn fitted_parts(
        &self,
    ) -> (&Featurizer, &Whitener, &UnitSet, &TargetCodec, Option<&RatioCaps>) {
        let f = self.fitted();
        let caps = self.config.monotone_clamp.then_some(&f.ratio_caps);
        (&self.featurizer, &f.whitener, &f.units, &f.codec, caps)
    }

    /// Predicts the latency (milliseconds) of one plan.
    pub fn predict(&self, plan: &Plan) -> f64 {
        self.predict_batch(&[plan])[0]
    }

    /// Predicts latencies (milliseconds) for many plans through the
    /// compiled wavefront engine ([`crate::infer::PlanProgram`]) — the
    /// batch may mix arbitrary plan shapes freely.
    pub fn predict_batch(&self, plans: &[&Plan]) -> Vec<f64> {
        self.predict_batch_with(plans, InferEngine::default())
    }

    /// Like [`QppNet::predict_batch`] with an explicit engine choice; the
    /// per-equivalence-class path ([`InferEngine::Classes`]) is kept for
    /// differential testing and benchmarking against the serving engine,
    /// and [`InferEngine::Program`]`{ threads }` runs the wavefront
    /// schedule on a worker pool (identical results at any thread count —
    /// see `DESIGN.md` §7).
    pub fn predict_batch_with(&self, plans: &[&Plan], engine: InferEngine) -> Vec<f64> {
        let f = self.fitted();
        let caps = self.config.monotone_clamp.then_some(&f.ratio_caps);
        predict_plans_with(engine, &f.units, &self.featurizer, &f.whitener, &f.codec, caps, plans)
    }

    /// Compiles `plans` into a reusable inference program against this
    /// fitted model (see [`PlanProgram`]): the schedule and buffers are
    /// built once, so a serving loop that re-scores the same plan set
    /// (e.g. under admission control) pays compilation once.
    pub fn compile_program(&self, plans: &[&Plan]) -> PlanProgram {
        let f = self.fitted();
        let roots: Vec<&qpp_plansim::plan::PlanNode> = plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&self.featurizer, &f.whitener, &f.units, &roots);
        program.stamp_fingerprint(self.fitted_fingerprint());
        program
    }

    /// Opens a streaming-admission session: an incremental
    /// [`crate::stream::ProgramBuilder`] over this fitted model, with the
    /// configured clamping policy. Admit plans as they arrive, predict, retire them
    /// when they finish — no per-arrival recompilation of the resident
    /// batch (see [`crate::stream`] for the execution model and the
    /// bit-identity contract against [`QppNet::compile_program`]).
    ///
    /// The builder borrows the fitted state, so refitting while a
    /// session is live is rejected at compile time — the static analogue
    /// of [`QppNet::predict_compiled`]'s fingerprint check.
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn serve_stream(&self) -> crate::stream::ProgramBuilder<'_> {
        let (fz, wh, units, codec, caps) = self.fitted_parts();
        crate::stream::ProgramBuilder::new(fz, wh, units, codec, caps)
    }

    /// The fitted-state fingerprint, or `None` before [`QppNet::fit`].
    /// This is the identity compiled programs are stamped with
    /// ([`QppNet::predict_compiled`]) and the key resident streams are
    /// registered under in a multi-model [`Tenants`] pool.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fitted.as_ref().map(|_| self.fitted_fingerprint())
    }

    /// Opens a shard-per-core streaming session: `shards` independent
    /// [`crate::stream::ProgramBuilder`]s behind a
    /// [`crate::stream::ShardedStream`] front door, so concurrent
    /// admissions proceed in parallel on the resident executor and
    /// coalesced predicts run one worker per shard (see
    /// [`crate::stream::MicroBatcher`] for the batching front door).
    /// Predictions are bit-identical to [`QppNet::serve_stream`] at every
    /// shard and thread count.
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn serve_sharded(&self, shards: usize) -> crate::stream::ShardedStream<'_> {
        let fingerprint = self.fitted_fingerprint();
        let (fz, wh, units, codec, caps) = self.fitted_parts();
        crate::stream::ShardedStream::new(fz, wh, units, codec, caps, shards, fingerprint)
    }

    /// Runs a program from [`QppNet::compile_program`], returning decoded
    /// root predictions (clamped onto the structural envelope when the
    /// config enables it, exactly like [`QppNet::predict_batch`]).
    ///
    /// # Panics
    /// Panics if this model's fitted parameters differ from those the
    /// program was compiled against — a refit (or warm start) since
    /// `compile_program`, or a program compiled by a *different* model:
    /// either way the program's baked-in whitened features would silently
    /// mismatch the weights.
    pub fn predict_compiled(&self, program: &mut PlanProgram) -> Vec<f64> {
        self.predict_compiled_with(program, 1)
    }

    /// [`QppNet::predict_compiled`] on `threads` worker threads
    /// ([`PlanProgram::run_parallel`]): the serving configuration for
    /// multicore hosts. Thread count never changes the predictions — only
    /// how the wavefront steps are distributed across cores.
    ///
    /// # Panics
    /// As [`QppNet::predict_compiled`].
    pub fn predict_compiled_with(&self, program: &mut PlanProgram, threads: usize) -> Vec<f64> {
        assert_eq!(
            program.fingerprint(),
            Some(self.fitted_fingerprint()),
            "compiled program is stale: the model was refit (or is not the model \
             that compiled it) — recompile the program against the current fit"
        );
        let f = self.fitted();
        if self.config.monotone_clamp {
            program.predict_roots_clamped_threaded(&f.units, &f.codec, &f.ratio_caps, threads)
        } else {
            program.predict_roots_threaded(&f.units, &f.codec, threads)
        }
    }

    /// Per-operator latency predictions for one plan, in post order
    /// (milliseconds). The last entry is the root/query prediction.
    pub fn predict_operators(&self, plan: &Plan) -> Vec<f64> {
        let f = self.fitted();
        let mut program =
            PlanProgram::compile(&self.featurizer, &f.whitener, &f.units, &[&plan.root]);
        let mut all = if self.config.monotone_clamp {
            program.predict_all_clamped(&f.units, &f.codec, &f.ratio_caps)
        } else {
            program.predict_all(&f.units, &f.codec)
        };
        all.pop().expect("one plan compiled")
    }

    /// Evaluates prediction quality on `plans`.
    pub fn evaluate(&self, plans: &[&Plan]) -> Metrics {
        let preds = self.predict_batch(plans);
        let actual: Vec<f64> = plans.iter().map(|p| p.latency_ms()).collect();
        evaluate(&actual, &preds)
    }

    /// [`QppNet::evaluate`] plus the stratified breakdowns that qualify
    /// the headline numbers: per-operator-family and per-plan-height
    /// Q-error (see [`crate::analysis::StratifiedReport`]) — a flat
    /// aggregate can look healthy while one family or one depth stratum
    /// carries all the error.
    pub fn evaluate_stratified(&self, plans: &[&Plan]) -> crate::analysis::StratifiedReport {
        crate::analysis::StratifiedReport {
            overall: self.evaluate(plans),
            families: crate::analysis::error_by_family(self, plans),
            heights: crate::analysis::error_by_height(self, plans),
            deciles: crate::analysis::error_by_latency_decile(self, plans),
        }
    }

    /// Serializes the full model (config, featurization, whitening, units)
    /// to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Restores a model from [`QppNet::to_json`] output.
    pub fn from_json(json: &str) -> Result<QppNet, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Multi-model tenancy: a registry of resident
/// [`ShardedStream`](crate::stream::ShardedStream)s keyed by each fitted
/// model's [fingerprint](QppNet::fingerprint). Every tenant's serving and
/// training work dispatches onto the *one* process-wide resident executor
/// ([`qpp_nn::Executor::global`]), so co-hosted models (per-workload
/// specialists, canary-vs-production fits) share the parked worker pool
/// and its per-worker buffer arenas instead of each spawning their own
/// threads.
///
/// Registration is **idempotent by fitted identity**: registering a model
/// whose fingerprint is already resident returns the existing stream
/// untouched (same resident plans, same caches) — the fingerprint check
/// is what makes "is this the same fitted state?" exact rather than
/// by-reference, so a refit model registers as a *new* tenant instead of
/// silently serving stale weights.
///
/// ```
/// use qppnet::{QppConfig, QppNet, Tenants};
/// use qpp_plansim::prelude::*;
///
/// let ds = Dataset::generate(Workload::TpcH, 1.0, 24, 3);
/// let mut model = QppNet::new(QppConfig { epochs: 1, ..QppConfig::tiny() }, &ds.catalog);
/// model.fit(&ds.plans.iter().take(16).collect::<Vec<_>>());
///
/// let mut pool = Tenants::new();
/// let key = pool.register(&model, 2);
/// assert_eq!(Some(key), model.fingerprint());
/// let stream = pool.stream(key).unwrap();
/// let id = stream.admit(&ds.plans[0].root);
/// let _ms = stream.predict_root(id);
/// assert_eq!(pool.register(&model, 2), key); // idempotent: same tenant
/// ```
#[derive(Default)]
pub struct Tenants<'m> {
    tenants: std::collections::BTreeMap<u64, crate::stream::ShardedStream<'m>>,
}

impl<'m> Tenants<'m> {
    /// An empty registry.
    pub fn new() -> Tenants<'m> {
        Tenants::default()
    }

    /// Registers `model` as a resident tenant with `shards` shards,
    /// returning its fingerprint key. Idempotent: if this fitted state is
    /// already registered, the existing stream (and its resident plans)
    /// is kept and `shards` is ignored.
    ///
    /// # Panics
    /// Panics if the model is unfitted.
    pub fn register(&mut self, model: &'m QppNet, shards: usize) -> u64 {
        let key = model.fingerprint().expect("register an unfitted model");
        self.tenants.entry(key).or_insert_with(|| model.serve_sharded(shards));
        key
    }

    /// The resident stream for `fingerprint`, if registered.
    pub fn stream(&mut self, fingerprint: u64) -> Option<&mut crate::stream::ShardedStream<'m>> {
        self.tenants.get_mut(&fingerprint)
    }

    /// Evicts a tenant, dropping its resident plans; returns whether it
    /// was registered.
    pub fn evict(&mut self, fingerprint: u64) -> bool {
        self.tenants.remove(&fingerprint).is_some()
    }

    /// Number of resident tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Registered fingerprints, ascending.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.tenants.keys().copied().collect()
    }

    /// Iterates `(fingerprint, stream)` pairs in ascending fingerprint
    /// order without requiring `&mut` — read-only aggregation (e.g. the
    /// serve daemon's `stats` verb) over every tenant's resident state.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (u64, &crate::stream::ShardedStream<'m>)> {
        self.tenants.iter().map(|(fp, s)| (*fp, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    fn dataset() -> Dataset {
        Dataset::generate(Workload::TpcH, 1.0, 80, 31)
    }

    /// `tiny()` with a test-sized epoch count: most tests here assert
    /// structural properties (finiteness, round-trips, determinism,
    /// engine agreement), which a handful of epochs exercises just as
    /// well as thirty — and the suite's wall clock is dominated by `fit`.
    fn fast(epochs: usize) -> QppConfig {
        QppConfig { epochs, ..QppConfig::tiny() }
    }

    #[test]
    fn fit_then_predict_produces_finite_latencies() {
        let ds = dataset();
        let split = ds.paper_split(1);
        let mut model = QppNet::new(fast(6), &ds.catalog);
        model.fit(&ds.select(&split.train));
        assert!(model.is_fitted());
        assert!(model.num_params() > 0);
        for p in ds.select(&split.test) {
            let pred = model.predict(p);
            assert!(pred.is_finite() && pred >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "fitted")]
    fn predict_before_fit_panics() {
        let ds = dataset();
        let model = QppNet::new(QppConfig::tiny(), &ds.catalog);
        let _ = model.predict(&ds.plans[0]);
    }

    #[test]
    fn training_beats_an_untrained_model() {
        let ds = dataset();
        let split = ds.paper_split(2);
        let train = ds.select(&split.train);
        let test = ds.select(&split.test);

        // Clamping is disabled so the comparison isolates what *training*
        // contributes (the structural envelope already helps untrained
        // models).
        let cfg = QppConfig { monotone_clamp: false, ..QppConfig::tiny() };
        let mut trained = QppNet::new(QppConfig { epochs: 30, ..cfg.clone() }, &ds.catalog);
        trained.fit(&train);
        let trained_m = trained.evaluate(&test);

        let mut barely = QppNet::new(QppConfig { epochs: 1, ..cfg }, &ds.catalog);
        barely.fit(&train);
        let barely_m = barely.evaluate(&test);

        assert!(
            trained_m.mae_ms < barely_m.mae_ms,
            "trained {} vs barely {}",
            trained_m.mae_ms,
            barely_m.mae_ms
        );
    }

    #[test]
    fn per_operator_predictions_align_with_postorder() {
        let ds = dataset();
        let mut model = QppNet::new(fast(5), &ds.catalog);
        model.fit(&ds.plans.iter().take(30).collect::<Vec<_>>());
        let plan = &ds.plans[0];
        let per_op = model.predict_operators(plan);
        assert_eq!(per_op.len(), plan.node_count());
        let root_pred = model.predict(plan);
        let rel = (per_op.last().unwrap() - root_pred).abs() / (1.0 + root_pred);
        assert!(rel < 1e-6);
    }

    #[test]
    fn both_engines_agree_through_the_facade() {
        let ds = dataset();
        let mut model = QppNet::new(fast(5), &ds.catalog);
        model.fit(&ds.plans.iter().take(40).collect::<Vec<_>>());
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let program = model.predict_batch_with(&plans, crate::infer::InferEngine::default());
        let classes = model.predict_batch_with(&plans, crate::infer::InferEngine::Classes);
        for (a, b) in program.iter().zip(&classes) {
            // 1e-5: the serving gemm may use FMA; rounding differs from the
            // scalar per-class path by a few ULP per accumulation chain.
            let rel = (a - b).abs() / (1.0 + b.abs());
            assert!(rel < 1e-5, "program {a} vs classes {b}");
        }
        // Compile-once/run-many serving matches one-shot prediction, at
        // any thread count (bit-identical; DESIGN.md §7).
        let mut compiled = model.compile_program(&plans);
        assert_eq!(model.predict_compiled(&mut compiled), program);
        assert_eq!(model.predict_compiled(&mut compiled), program);
        assert_eq!(model.predict_compiled_with(&mut compiled, 4), program);
        let threaded =
            model.predict_batch_with(&plans, crate::infer::InferEngine::Program { threads: 4 });
        assert_eq!(threaded, program);
    }

    #[test]
    fn serve_stream_matches_compiled_batch_bitwise() {
        let ds = dataset();
        let mut model = QppNet::new(fast(4), &ds.catalog);
        model.fit(&ds.plans.iter().take(30).collect::<Vec<_>>());
        let plans: Vec<&Plan> = ds.plans.iter().take(20).collect();
        // Admit the same set a compiled batch would hold; the streaming
        // session applies the model's configured clamping automatically.
        let mut stream = model.serve_stream();
        for p in &plans {
            stream.admit(&p.root);
        }
        let streamed = stream.predict_roots();
        drop(stream);
        let mut program = model.compile_program(&plans);
        let compiled = model.predict_compiled(&mut program);
        assert_eq!(
            streamed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            compiled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "streaming admission must be bit-identical to a fresh compiled batch"
        );
    }

    #[test]
    #[should_panic(expected = "compiled program is stale")]
    fn refit_invalidates_compiled_programs() {
        let ds = dataset();
        let mut model = QppNet::new(fast(2), &ds.catalog);
        let train: Vec<&Plan> = ds.plans.iter().take(20).collect();
        model.fit(&train);
        let plans: Vec<&Plan> = ds.plans.iter().take(10).collect();
        let mut program = model.compile_program(&plans);
        // A refit changes the units (and on cold fits the whitener) while
        // keeping all shapes — the program's baked features are stale.
        model.fit(&train);
        let _ = model.predict_compiled(&mut program);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let ds = dataset();
        let mut model = QppNet::new(fast(5), &ds.catalog);
        model.fit(&ds.plans.iter().take(20).collect::<Vec<_>>());
        let json = model.to_json();
        let back = QppNet::from_json(&json).unwrap();
        for p in ds.plans.iter().take(5) {
            assert_eq!(model.predict(p), back.predict(p));
        }
    }

    /// A checkpoint is a fixed point of `to_json` ∘ `from_json`: every
    /// weight, statistic and config field re-serializes to the same bytes.
    #[test]
    fn json_checkpoint_round_trip_is_byte_identical() {
        let ds = dataset();
        let mut model = QppNet::new(fast(2), &ds.catalog);
        model.fit(&ds.plans.iter().take(20).collect::<Vec<_>>());
        let json = model.to_json();
        let again = QppNet::from_json(&json).unwrap().to_json();
        assert!(again == json, "re-serialized checkpoint differs ({} vs {} bytes)", again.len(), json.len());
    }

    #[test]
    fn warm_start_transfers_behaviour_and_allows_fine_tuning() {
        let ds = dataset();
        let train: Vec<&Plan> = ds.plans.iter().take(30).collect();
        let mut src = QppNet::new(fast(8), &ds.catalog);
        src.fit(&train);

        let mut dst = QppNet::new(QppConfig { epochs: 3, ..QppConfig::tiny() }, &ds.catalog);
        dst.warm_start_from(&src);
        // Identical predictions before fine-tuning.
        assert_eq!(src.predict(&ds.plans[0]), dst.predict(&ds.plans[0]));
        // Fine-tuning continues from the warm state without panicking.
        dst.fit(&train);
        assert!(dst.predict(&ds.plans[0]).is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let train: Vec<&Plan> = ds.plans.iter().take(25).collect();
        let mut a = QppNet::new(fast(6), &ds.catalog);
        let mut b = QppNet::new(fast(6), &ds.catalog);
        a.fit(&train);
        b.fit(&train);
        assert_eq!(a.predict(&ds.plans[0]), b.predict(&ds.plans[0]));
    }
}
