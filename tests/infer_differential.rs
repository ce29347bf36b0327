//! Differential tests: the compiled wavefront serving engine
//! (`PlanProgram`) against per-equivalence-class `TreeBatch` evaluation.
//!
//! The two engines share whitened features, unit weights and row-major
//! kernels; they differ only in how node rows are grouped into gemm calls.
//! Since each output row of `X·W` depends on no other row, the grouping
//! must not change any prediction: every property here holds the engines
//! to within `1e-5` relative error on every plan — unclamped and under the
//! structural envelope (`predict_roots_clamped`) — across random plan
//! forests of mixed shapes, all operator kinds (TPC-DS plans exercise the
//! full vocabulary) and batch sizes 1..64.
//!
//! Two agreement contracts are held, with different tolerances:
//!
//! * **cross-engine** (`Classes` vs `Program`): within `1e-5` relative —
//!   the engines share arithmetic per node but the SIMD serving gemm may
//!   round differently (FMA) than the scalar training path;
//! * **cross-thread-count** (`run_parallel` at 1/2/4/8 workers):
//!   **bit-identical** — DESIGN.md §7's determinism contract. The
//!   partition grain is the compile-time step, so threading changes only
//!   which worker executes a step, never its input rows or kernel.
//!
//! CI runs this suite in release mode as well (optimized gemm paths hit
//! different code than debug: LTO-inlined kernels, no debug asserts).

use proptest::prelude::*;
use qpp::net::config::{TargetCodec, TargetTransform};
use qpp::net::tree::fit_ratio_caps;
use qpp::net::{predict_plans_with, InferEngine, PlanProgram, QppConfig, QppNet, UnitSet};
use qpp::plansim::features::{Featurizer, Whitener};
use qpp::plansim::prelude::*;
use rand::SeedableRng;

const TOL: f64 = 1e-5;

fn assert_engines_agree(workload: Workload, seed: u64, batch: usize) {
    let ds = Dataset::generate(workload, 1.0, batch, seed);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let caps = fit_ratio_caps(ds.plans.iter(), 2.0);
    // Untrained (randomly initialized) units exercise the full numeric
    // range; training only moves weights, never the data flow.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);

    let plans: Vec<&Plan> = ds.plans.iter().collect();
    for caps in [None, Some(&caps)] {
        let classes =
            predict_plans_with(InferEngine::Classes, &units, &fz, &wh, &codec, caps, &plans);
        let program = predict_plans_with(
            InferEngine::Program { threads: 1 },
            &units,
            &fz,
            &wh,
            &codec,
            caps,
            &plans,
        );
        assert_eq!(classes.len(), plans.len());
        for (i, (c, p)) in classes.iter().zip(&program).enumerate() {
            let rel = (c - p).abs() / (1.0 + c.abs());
            assert!(
                rel < TOL,
                "plan {i} (clamped={}): classes {c} vs program {p} (rel {rel})",
                caps.is_some()
            );
        }
    }
}

/// The thread-count invariance property (DESIGN.md §7): a compiled
/// program answers **bit-identically** on 1, 2, 4 and 8 worker threads —
/// roots, per-operator predictions, and the clamped envelope alike.
fn assert_thread_count_invariant(workload: Workload, seed: u64, batch: usize) {
    let ds = Dataset::generate(workload, 1.0, batch, seed);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let caps = fit_ratio_caps(ds.plans.iter(), 2.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFACE);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);

    let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
    let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
    let base_roots = program.predict_roots_threaded(&units, &codec, None, 1);
    let base_all = program.predict_all_threaded(&units, &codec, None, 1);
    let base_clamped = program.predict_roots_threaded(&units, &codec, Some(&caps), 1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            program.predict_roots_threaded(&units, &codec, None, threads),
            base_roots,
            "{threads} threads: roots diverged"
        );
        assert_eq!(
            program.predict_all_threaded(&units, &codec, None, threads),
            base_all,
            "{threads} threads: per-operator predictions diverged"
        );
        assert_eq!(
            program.predict_roots_threaded(&units, &codec, Some(&caps), threads),
            base_clamped,
            "{threads} threads: clamped roots diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random TPC-H forests: mixed shapes, batch sizes 1..64.
    #[test]
    fn tpch_forests_agree_across_engines(seed in 0u64..10_000, batch in 1usize..64) {
        assert_engines_agree(Workload::TpcH, seed, batch);
    }

    /// Random TPC-DS forests: the full operator vocabulary (sorts,
    /// aggregates, materialize, limits, filters) at mixed shapes.
    #[test]
    fn tpcds_forests_agree_across_engines(seed in 0u64..10_000, batch in 1usize..64) {
        assert_engines_agree(Workload::TpcDs, seed, batch);
    }

    /// Random TPC-H forests answer bit-identically at 1/2/4/8 threads.
    #[test]
    fn tpch_forests_are_thread_count_invariant(seed in 0u64..10_000, batch in 1usize..48) {
        assert_thread_count_invariant(Workload::TpcH, seed, batch);
    }

    /// Random TPC-DS forests (full operator vocabulary) answer
    /// bit-identically at 1/2/4/8 threads.
    #[test]
    fn tpcds_forests_are_thread_count_invariant(seed in 0u64..10_000, batch in 1usize..48) {
        assert_thread_count_invariant(Workload::TpcDs, seed, batch);
    }
}

/// The facade path: a *fitted* model (envelope clamping on, as deployed)
/// answers identically through both engines, and single-plan prediction
/// agrees with the batch it is part of.
#[test]
fn fitted_model_agrees_across_engines() {
    let ds = Dataset::generate(Workload::TpcDs, 1.0, 60, 77);
    let mut model = QppNet::new(QppConfig { epochs: 5, ..QppConfig::tiny() }, &ds.catalog);
    model.fit(&ds.plans.iter().take(40).collect::<Vec<_>>());

    let plans: Vec<&Plan> = ds.plans.iter().collect();
    let program = model.predict_batch_with(&plans, InferEngine::Program { threads: 1 });
    let classes = model.predict_batch_with(&plans, InferEngine::Classes);
    for (i, (p, c)) in program.iter().zip(&classes).enumerate() {
        let rel = (p - c).abs() / (1.0 + c.abs());
        assert!(rel < TOL, "plan {i}: program {p} vs classes {c}");
    }
    for (i, plan) in ds.plans.iter().enumerate().take(10) {
        let single = model.predict(plan);
        let rel = (single - program[i]).abs() / (1.0 + single.abs());
        assert!(rel < TOL, "plan {i}: single {single} vs batched {}", program[i]);
    }
    // The deployed facade is thread-count invariant too: one-shot batches
    // and compile-once serving both answer bit-identically on workers.
    for threads in [2usize, 4, 8] {
        let threaded = model.predict_batch_with(&plans, InferEngine::Program { threads });
        assert_eq!(threaded, program, "{threads} threads diverged through the facade");
    }
    let mut compiled = model.compile_program(&plans);
    let serial = model.predict_compiled(&mut compiled);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            model.predict_compiled_with(&mut compiled, threads),
            serial,
            "{threads} threads diverged on the precompiled path"
        );
    }
}
