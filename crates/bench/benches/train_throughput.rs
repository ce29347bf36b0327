//! Training-epoch throughput: the differentiable wavefront engine
//! (`ProgramTape`, one gemm per operator family per wavefront across the
//! whole batch) versus per-equivalence-class `TreeBatch` gradients on the
//! same *mixed-shape* plan stream the serving benches use.
//!
//! The stream interleaves TPC-H and TPC-DS plans (each workload trained
//! by its own model — featurizers are catalog-specific), ≥ 256
//! heterogeneous plans. On such a mix the per-class path fragments into
//! ~58 structural classes: every operator position of every class costs
//! one small forward gemm plus an `MlpCache` allocation, and three more
//! small gemms on the way back. The wavefront tape batches all classes'
//! rows together in both directions and runs them through the fused
//! (AVX2+FMA where available) serving kernel. Two model tiers:
//!
//! * **edge** — `QppConfig::tiny()`-sized units (2×32 hidden, d = 8),
//!   where per-position overhead dominates (the acceptance bar: ≥ 1.5x
//!   single-thread epoch speedup lives here);
//! * **paper** — the paper's 5×128 units (d = 32), gemm-bound in both
//!   engines.
//!
//! Each measured iteration is **[`EPOCHS_PER_ITER`] full epochs** over
//! the 320-plan stream (both models, full-batch configuration) from a
//! pristine clone of the units, via `Trainer::train` — divide the
//! reported time by [`EPOCHS_PER_ITER`] for ms/epoch. Multi-epoch
//! iterations measure what real training runs (hundreds of epochs)
//! amortize to: per-run setup — the wavefront engine's once-per-run
//! featurization and compile-once tape, the per-class engine's
//! *per-epoch* `TreeBatch` rebuilds — is charged exactly as each engine
//! incurs it across epochs. The `program_tN` rows add the thread axis:
//! each batch is cut into one plan lane per thread and each worker sweeps
//! its own lanes; thread counts never change the forward results and
//! perturb gradients only by f32 summation order. A host with fewer
//! cores than `N` shows the dispatch overhead, not scaling.

use criterion::{criterion_group, BenchmarkId, Criterion};
use qpp_plansim::catalog::Workload;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::plan::Plan;
use qppnet::config::{TargetCodec, TrainEngine};
use qppnet::{QppConfig, Trainer, UnitSet};
use rand::SeedableRng;

/// Thread counts for the worker-pool scaling axis (program engine only).
const THREADS: [usize; 2] = [2, 4];

/// Epochs per measured iteration (reported times are this many epochs).
const EPOCHS_PER_ITER: usize = 10;

struct Workbench {
    plans_idx: Vec<usize>,
    ds: Dataset,
    fz: Featurizer,
    wh: Whitener,
    codec: TargetCodec,
    units: UnitSet,
}

impl Workbench {
    /// Mirrors `QppNet::fit`'s cold start: whitener over the training
    /// plans, codec over every operator latency, seeded unit init.
    fn new(ds: Dataset, cfg: &QppConfig) -> Workbench {
        let fz = Featurizer::new(&ds.catalog);
        let wh = Whitener::fit(&fz, ds.plans.iter());
        let mut latencies = Vec::new();
        for p in &ds.plans {
            p.root.visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
        }
        let codec = TargetCodec::fit(cfg.target_transform, latencies);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let units = UnitSet::new(cfg, &fz, &mut rng);
        Workbench { plans_idx: (0..ds.plans.len()).collect(), ds, fz, wh, codec, units }
    }

    /// [`EPOCHS_PER_ITER`] training epochs over the whole workload from a
    /// pristine unit clone. Returns the first epoch's mean loss so the
    /// work cannot be optimized away.
    fn epoch(&self, cfg: &QppConfig) -> f64 {
        let plans: Vec<&Plan> = self.plans_idx.iter().map(|&i| &self.ds.plans[i]).collect();
        let trainer = Trainer {
            config: cfg,
            featurizer: &self.fz,
            whitener: &self.wh,
            codec: &self.codec,
            ratio_caps: None,
        };
        let mut units = self.units.clone();
        let hist = trainer.train(&mut units, &plans, None);
        hist.train_loss[0]
    }
}

fn bench_train_throughput(c: &mut Criterion) {
    let tpch = Dataset::generate(Workload::TpcH, 100.0, 160, 9);
    let tpcds = Dataset::generate(Workload::TpcDs, 100.0, 160, 10);
    let total = tpch.plans.len() + tpcds.plans.len();
    let shapes: std::collections::HashSet<String> = tpch
        .plans
        .iter()
        .chain(&tpcds.plans)
        .map(|p| p.signature())
        .collect();
    println!("mixed stream: {total} plans, {} distinct shapes", shapes.len());

    for (tier, base) in [("edge", QppConfig::tiny()), ("paper", QppConfig::default())] {
        // Full-batch: one gradient step per epoch — the configuration
        // where the wavefront engine compiles its tape once per run.
        let cfg = |engine: TrainEngine, threads: usize| QppConfig {
            epochs: EPOCHS_PER_ITER,
            batch_size: 512,
            train_engine: engine,
            threads,
            ..base.clone()
        };
        let bench_h = Workbench::new(tpch.clone(), &base);
        let bench_ds = Workbench::new(tpcds.clone(), &base);

        let mut group = c.benchmark_group(format!("train_throughput/{tier}"));
        group.sample_size(10);
        for engine in [TrainEngine::Classes, TrainEngine::Program] {
            let cfg = cfg(engine, 1);
            group.bench_function(BenchmarkId::new(engine.name(), total), |b| {
                b.iter(|| bench_h.epoch(&cfg) + bench_ds.epoch(&cfg))
            });
        }
        for t in THREADS {
            let cfg = cfg(TrainEngine::Program, t);
            group.bench_function(BenchmarkId::new(format!("program_t{t}"), total), |b| {
                b.iter(|| bench_h.epoch(&cfg) + bench_ds.epoch(&cfg))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_train_throughput);

fn main() {
    benches();
    // Persist the run as data (satellite: perf trajectory across PRs).
    let rows: Vec<_> = criterion::take_records()
        .into_iter()
        .filter_map(|r| qpp_bench::bench_json::row_from_label(&r.label, r.mean_ns))
        .collect();
    qpp_bench::bench_json::write("BENCH_train.json", &rows);
}
