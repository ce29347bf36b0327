//! Serving-throughput benchmark: the compiled wavefront engine
//! (`PlanProgram`) versus per-equivalence-class `TreeBatch` evaluation on
//! a *mixed-shape* plan stream.
//!
//! The stream interleaves TPC-H and TPC-DS plans (each workload served by
//! its own fitted model — featurizers are catalog-specific), ≥ 256
//! heterogeneous plans in total. On such a mix the per-class path pays
//! one tiny gemm plus a training-cache allocation per (class, position),
//! and its small per-position gemms cannot use the register-blocked SIMD
//! kernel the wavefront batches enable. Two model tiers are measured:
//!
//! * **edge** — `QppConfig::tiny()`-sized units (2×32 hidden, d = 8), the
//!   latency-budget serving tier where per-node overhead dominates; the
//!   wavefront engine wins several-fold here (≥ 2x required).
//! * **paper** — the paper's 5×128 units (d = 32), where the gemm FLOPs
//!   dominate both engines; the wavefront engine still wins (~2x on an
//!   AVX2 host, bounded by pure gemm throughput).
//!
//! Per tier, `classes` and `program` time the full request path
//! (featurize + schedule + evaluate a fresh batch); `builder_batch` times
//! the same batch through a fresh incremental builder (admit every plan,
//! then one resident run), the row that decides whether the batch engine
//! can be folded into the builder (DESIGN.md §10); `program_precompiled`
//! times the steady-state compile-once/run-many loop (e.g. an admission
//! controller re-scoring a queue), with a thread-count axis (t1/t2/t4)
//! over `PlanProgram::run_parallel`, which runs one plan lane per thread
//! — the multicore scaling table in the README is generated from these
//! rows. `compile` and `featurize` isolate
//! the one-shot path's fixed costs (schedule construction and Table-2
//! featurization respectively); their ratio is the number behind the
//! ROADMAP's incremental-compile lead.
//!
//! The streaming-admission rows measure the incremental engine
//! (`ProgramBuilder`) against the recompile-the-world status quo:
//!
//! * `admit_one` — with the full mixed stream resident, admit **one**
//!   newly-arrived plan (and retire it again, keeping the state
//!   steady): the per-arrival schedule-maintenance cost;
//! * `recompile_one` — the status quo for the same arrival: a fresh
//!   `PlanProgram::compile` over resident + 1 plans (the acceptance bar
//!   is `admit_one` ≥ 5x faster);
//! * `stream` — end-to-end admission-control churn: every plan of the
//!   mixed stream is admitted, scored (a resident run of only the chunks
//!   the arrival added) and retired past a 32-plan sliding window,
//!   against warm caches.
//! * `sharded_admit` — the shard-per-core front door for the same
//!   steady-state arrival: admit + retire one plan through a
//!   `ShardedStream` (content-hash routing on top of `admit_one`).
//!
//! The tier-independent `pool` group isolates executor dispatch:
//! `resident_pool_t{1,2,4}` runs an empty job on the parked resident
//! pool, `spawn_per_run_t{1,2,4}` is the retired status quo of putting
//! every one of the run's t worker shares on a freshly spawned scoped
//! thread. The resident path must beat the spawn path at every t (t1
//! is ~50 ns vs ~20 µs — the caller-is-worker-0 fast path never takes
//! a lock beyond the run token), and stay under 5 µs per dispatch.

use criterion::{criterion_group, BenchmarkId, Criterion};
use qpp_plansim::catalog::Workload;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::plan::Plan;
use qppnet::{InferEngine, QppConfig, QppNet};

/// Thread counts for the `run_parallel` scaling axis.
const THREADS: [usize; 3] = [1, 2, 4];

fn fitted_model(ds: &Dataset, cfg: &QppConfig) -> QppNet {
    // Two epochs: learned weights don't matter for timing, the unit
    // architecture does.
    let cfg = QppConfig { epochs: 2, ..cfg.clone() };
    let mut model = QppNet::new(cfg, &ds.catalog);
    let train: Vec<&Plan> = ds.plans.iter().take(60).collect();
    model.fit(&train);
    model
}

fn bench_mixed_stream(c: &mut Criterion) {
    let tpch = Dataset::generate(Workload::TpcH, 100.0, 160, 9);
    let tpcds = Dataset::generate(Workload::TpcDs, 100.0, 160, 10);
    let plans_h: Vec<&Plan> = tpch.plans.iter().collect();
    let plans_ds: Vec<&Plan> = tpcds.plans.iter().collect();
    let total = plans_h.len() + plans_ds.len();
    let shapes: std::collections::HashSet<String> = plans_h
        .iter()
        .chain(&plans_ds)
        .map(|p| p.signature())
        .collect();
    println!("mixed stream: {total} plans, {} distinct shapes", shapes.len());

    for (tier, cfg) in [("edge", QppConfig::tiny()), ("paper", QppConfig::default())] {
        let model_h = fitted_model(&tpch, &cfg);
        let model_ds = fitted_model(&tpcds, &cfg);

        let mut group = c.benchmark_group(format!("infer_throughput/{tier}"));
        group.sample_size(20);
        for engine in [InferEngine::Classes, InferEngine::Program { threads: 1 }] {
            group.bench_function(BenchmarkId::new(engine.name(), total), |b| {
                b.iter(|| {
                    let mut out = model_h.predict_batch_with(&plans_h, engine);
                    out.extend(model_ds.predict_batch_with(&plans_ds, engine));
                    out
                })
            });
        }
        group.bench_function(BenchmarkId::new("builder_batch", total), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(total);
                for (model, plans) in [(&model_h, &plans_h), (&model_ds, &plans_ds)] {
                    let mut stream = model.serve_stream();
                    for p in plans.iter() {
                        stream.admit(&p.root);
                    }
                    out.extend(stream.predict_roots());
                }
                out
            })
        });

        // One-shot fixed cost: compiling the wavefront schedule (includes
        // featurizing every node — compare against the `featurize` bench
        // below for the featurization share).
        group.bench_function(BenchmarkId::new("compile", total), |b| {
            b.iter(|| {
                (model_h.compile_program(&plans_h).num_steps(),
                 model_ds.compile_program(&plans_ds).num_steps())
            })
        });

        // Steady-state serving: the schedule and buffers are compiled once
        // and re-run per request, as 1/2/4 plan lanes (results are
        // bit-identical across the axis; only wall clock moves). The first
        // run at a new thread count lays the lanes out again.
        let mut prog_h = model_h.compile_program(&plans_h);
        let mut prog_ds = model_ds.compile_program(&plans_ds);
        for t in THREADS {
            group.bench_function(
                BenchmarkId::new(format!("program_precompiled_t{t}"), total),
                |b| {
                    b.iter(|| {
                        let mut out = model_h.predict_compiled_with(&mut prog_h, t);
                        out.extend(model_ds.predict_compiled_with(&mut prog_ds, t));
                        out
                    })
                },
            );
        }

        // Incremental admission: the full stream is resident; one new
        // plan arrives (one per workload — the stream is served by two
        // models) and is retired again, leaving state steady across
        // iterations. This is the cost `recompile_one` pays ~everything
        // else for.
        let (held_h, resident_h) = plans_h.split_last().unwrap();
        let (held_ds, resident_ds) = plans_ds.split_last().unwrap();
        let mut stream_h = model_h.serve_stream();
        let mut stream_ds = model_ds.serve_stream();
        for p in resident_h {
            stream_h.admit(&p.root);
        }
        for p in resident_ds {
            stream_ds.admit(&p.root);
        }
        group.bench_function(BenchmarkId::new("admit_one", total), |b| {
            b.iter(|| {
                let a = stream_h.admit(&held_h.root);
                stream_h.retire(a);
                let c = stream_ds.admit(&held_ds.root);
                stream_ds.retire(c);
                (a, c)
            })
        });

        // Status quo for the same arrival: recompile the whole resident
        // batch plus the new plan from scratch.
        group.bench_function(BenchmarkId::new("recompile_one", total), |b| {
            b.iter(|| {
                (model_h.compile_program(&plans_h).num_steps(),
                 model_ds.compile_program(&plans_ds).num_steps())
            })
        });
        drop(stream_h);
        drop(stream_ds);

        // End-to-end admission-control churn over the whole mixed stream:
        // admit, score (the admission decision: a resident run of only
        // the chunks this arrival added), retire past a 32-plan sliding
        // window. Caches stay warm across iterations, as across a live
        // stream.
        let mut churn_h = model_h.serve_stream();
        let mut churn_ds = model_ds.serve_stream();
        let mut window = std::collections::VecDeque::new();
        group.bench_function(BenchmarkId::new("stream", total), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for (plan, which) in plans_h
                    .iter()
                    .map(|p| (*p, true))
                    .chain(plans_ds.iter().map(|p| (*p, false)))
                {
                    let stream = if which { &mut churn_h } else { &mut churn_ds };
                    let id = stream.admit(&plan.root);
                    acc += stream.predict_root(id);
                    window.push_back((which, id));
                    if window.len() > 32 {
                        let (w, old) = window.pop_front().unwrap();
                        if w { &mut churn_h } else { &mut churn_ds }.retire(old);
                    }
                }
                acc
            })
        });
        drop(churn_h);
        drop(churn_ds);

        // Shard-per-core front door for the steady-state arrival: the
        // resident set is spread across 4 shards; one new plan routes by
        // content hash, is admitted and retired again.
        let mut sharded_h = model_h.serve_sharded(4);
        for p in resident_h {
            sharded_h.admit(&p.root);
        }
        group.bench_function(BenchmarkId::new("sharded_admit", total), |b| {
            b.iter(|| {
                let id = sharded_h.admit(&held_h.root);
                sharded_h.retire(id);
                id
            })
        });
        drop(sharded_h);

        group.finish();
    }

    // Executor dispatch overhead, isolated from any model work: an empty
    // job through the parked resident pool versus the retired status quo
    // of spawning scoped threads per run. Tier-independent.
    let mut group = c.benchmark_group("infer_throughput/pool");
    group.sample_size(20);
    let exec = qpp_nn::Executor::global();
    for t in THREADS {
        group.bench_function(BenchmarkId::new(format!("resident_pool_t{t}"), 0usize), |b| {
            b.iter(|| exec.run(t, &|_| {}))
        });
    }
    for t in THREADS {
        group.bench_function(BenchmarkId::new(format!("spawn_per_run_t{t}"), 0usize), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..t {
                        scope.spawn(|| {});
                    }
                })
            })
        });
    }
    group.finish();

    // Featurization alone (tier-independent): walk every node of the
    // stream through the whitened Table-2 featurizer, allocation-free —
    // exactly the per-node work `PlanProgram::compile` performs before
    // scheduling. `featurize / compile` is the featurization share of
    // one-shot latency (ROADMAP: ~40%, the incremental-compile lead).
    let mut group = c.benchmark_group("infer_throughput/oneshot");
    group.sample_size(20);
    let fz_h = Featurizer::new(&tpch.catalog);
    let wh_h = Whitener::fit(&fz_h, tpch.plans.iter());
    let fz_ds = Featurizer::new(&tpcds.catalog);
    let wh_ds = Whitener::fit(&fz_ds, tpcds.plans.iter());
    group.bench_function(BenchmarkId::new("featurize", total), |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut nodes = 0usize;
            for (plans, fz, wh) in [(&plans_h, &fz_h, &wh_h), (&plans_ds, &fz_ds, &wh_ds)] {
                for plan in plans.iter() {
                    plan.root.visit_postorder(&mut |n| {
                        wh.features_into(fz, n, &mut scratch);
                        nodes += 1;
                    });
                }
            }
            nodes
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mixed_stream);

fn main() {
    benches();
    // Persist the run as data (satellite: perf trajectory across PRs).
    let rows: Vec<_> = criterion::take_records()
        .into_iter()
        .filter_map(|r| qpp_bench::bench_json::row_from_label(&r.label, r.mean_ns))
        .collect();
    qpp_bench::bench_json::write("BENCH_infer.json", &rows);
}
