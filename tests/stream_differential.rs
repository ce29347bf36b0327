//! Differential tests for the incremental serving engine: random
//! admit/retire/predict interleavings through `ProgramBuilder` must
//! produce predictions **bit-identical** to a fresh `PlanProgram::compile`
//! of the same resident set — at 1 and 4 worker threads, unclamped and
//! under the structural envelope.
//!
//! This is a stronger contract than the batch engine's cross-engine
//! agreement (`1e-5` relative vs `Classes`): the incremental program
//! shares the batch engine's kernels exactly, and three facts make the
//! re-chunked, row-recycled, CSE-shared layout bit-transparent:
//!
//! 1. the fused gemm kernel is row-invariant (a row's bits do not depend
//!    on its chunk, slot, or batch size — property-tested in `qpp_nn`);
//! 2. feature-cache and CSE keys are lossless content encodings, so a hit
//!    is bit-identical to recomputation;
//! 3. heights still run strictly ascending, so data dependencies are
//!    untouched by incremental maintenance.
//!
//! CI runs this suite in release mode as well: the optimized build
//! dispatches the packed-panel SIMD kernels, which is exactly where the
//! row-invariance half of the argument has teeth.

use proptest::prelude::*;
use qpp::net::config::{TargetCodec, TargetTransform};
use qpp::net::tree::fit_ratio_caps;
use qpp::net::{PlanId, PlanProgram, ProgramBuilder, QppConfig, QppNet, UnitSet};
use qpp::plansim::features::{Featurizer, Whitener};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drives one random admit/retire/predict interleaving and, at every
/// predict point, checks the builder against a fresh compile of exactly
/// the resident set (in admission order) — bitwise, at 1 and 4 threads.
fn churn_matches_fresh_compile(workload: Workload, seed: u64, clamped: bool) {
    let ds = Dataset::generate(workload, 1.0, 20, seed);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let caps = fit_ratio_caps(ds.plans.iter(), 2.0);
    // Untrained (randomly initialized) units exercise the full numeric
    // range; training only moves weights, never the data flow.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);
    let caps_opt = clamped.then_some(&caps);

    let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, caps_opt);
    // The reference resident set, in admission order (ids parallel).
    let mut resident: Vec<(PlanId, usize)> = Vec::new();
    let mut op_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED5);

    for _ in 0..24 {
        let action: u32 = op_rng.gen_range(0..3);
        match action {
            // Admit a random plan from the pool (repeats deliberately
            // allowed — they are the CSE-heavy case).
            0 => {
                let pick = op_rng.gen_range(0..ds.plans.len());
                let id = builder.admit(&ds.plans[pick].root);
                resident.push((id, pick));
            }
            // Retire a random resident plan.
            1 if !resident.is_empty() => {
                let victim = op_rng.gen_range(0..resident.len());
                let (id, _) = resident.remove(victim);
                builder.retire(id);
            }
            // Predict and differentiate against a fresh compile.
            _ => {
                let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
                let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
                let mut fresh = PlanProgram::compile(&fz, &wh, &units, &roots);
                for threads in [1usize, 4] {
                    let want = match caps_opt {
                        Some(caps) => {
                            fresh.predict_roots_clamped_threaded(&units, &codec, caps, threads)
                        }
                        None => fresh.predict_roots_threaded(&units, &codec, threads),
                    };
                    let got = builder.predict_roots_threaded(threads);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} resident plans, {threads} threads, clamped={clamped}: \
                         incremental diverged from fresh compile",
                        resident.len()
                    );
                }
            }
        }
    }
    // Final checkpoint regardless of where the op walk ended, including
    // the per-plan view.
    let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
    let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
    let mut fresh = PlanProgram::compile(&fz, &wh, &units, &roots);
    let want_all = match caps_opt {
        Some(caps) => fresh.predict_all_clamped(&units, &codec, caps),
        None => fresh.predict_all(&units, &codec),
    };
    for (i, &(id, _)) in resident.iter().enumerate() {
        assert_eq!(
            bits(&builder.predict_all(id)),
            bits(&want_all[i]),
            "plan {i}: per-operator predictions diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random TPC-H churn, unclamped.
    #[test]
    fn tpch_churn_is_bit_identical_to_fresh_compile(seed in 0u64..10_000) {
        churn_matches_fresh_compile(Workload::TpcH, seed, false);
    }

    /// Random TPC-DS churn (full operator vocabulary, template-heavy —
    /// the CSE-rich case), unclamped.
    #[test]
    fn tpcds_churn_is_bit_identical_to_fresh_compile(seed in 0u64..10_000) {
        churn_matches_fresh_compile(Workload::TpcDs, seed, false);
    }

    /// Random TPC-H churn under the structural envelope.
    #[test]
    fn tpch_clamped_churn_is_bit_identical(seed in 0u64..10_000) {
        churn_matches_fresh_compile(Workload::TpcH, seed, true);
    }

    /// Random TPC-DS churn under the structural envelope.
    #[test]
    fn tpcds_clamped_churn_is_bit_identical(seed in 0u64..10_000) {
        churn_matches_fresh_compile(Workload::TpcDs, seed, true);
    }
}

/// The deployed facade: `QppNet::serve_stream` (model-configured
/// clamping) agrees bitwise with `compile_program` + `predict_compiled`
/// on the same resident set, through admissions AND retirements.
#[test]
fn facade_stream_matches_compiled_program_through_churn() {
    let ds = Dataset::generate(Workload::TpcDs, 1.0, 40, 99);
    let mut model = QppNet::new(QppConfig { epochs: 4, ..QppConfig::tiny() }, &ds.catalog);
    model.fit(&ds.plans.iter().take(30).collect::<Vec<_>>());

    let mut stream = model.serve_stream();
    let mut resident: Vec<(PlanId, usize)> = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    for round in 0..30 {
        if resident.len() > 6 && rng.gen_range(0..2) == 1 {
            let (id, _) = resident.remove(rng.gen_range(0..resident.len()));
            stream.retire(id);
        } else {
            let pick = rng.gen_range(0..ds.plans.len());
            resident.push((stream.admit(&ds.plans[pick].root), pick));
        }
        let streamed = stream.predict_roots();
        let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
        // The builder and the compiled program both borrow the model
        // immutably; only a refit is excluded while the stream is live.
        let mut program = model.compile_program(&plans);
        assert_eq!(
            bits(&streamed),
            bits(&model.predict_compiled(&mut program)),
            "round {round}: facade stream diverged from compiled batch"
        );
    }
}
