//! Differential tests for the incremental serving engine: random
//! admit/retire/predict interleavings through `ProgramBuilder` must
//! produce predictions **bit-identical** to a fresh `PlanProgram::compile`
//! of the same resident set — run on 1 and 4 plan lanes, unclamped and
//! under the structural envelope. A predict runs only the chunks that
//! gained members since the last run, so every interleaving here is also
//! a test of those partial runs. One-shot predicts (admit → run → retire
//! on the same builder) are interleaved too, often of an exact copy of a
//! resident plan, so their retire meets CSE-shared rows.
//!
//! This is a stronger contract than the batch engine's cross-engine
//! agreement (`1e-5` relative vs `Classes`): the incremental program
//! shares the batch engine's kernels exactly, and four facts make the
//! re-chunked, row-recycled, CSE-shared, incrementally-run layout
//! bit-transparent:
//!
//! 1. the fused gemm kernel is row-invariant (a row's bits do not depend
//!    on its chunk, slot, or batch size — property-tested in `qpp_nn`);
//! 2. feature-cache and CSE keys are lossless content encodings, so a hit
//!    is bit-identical to recomputation;
//! 3. heights still run strictly ascending, so data dependencies are
//!    untouched by incremental maintenance;
//! 4. freshness is monotone: a computed row stays valid while its node is
//!    resident, and a reused row or chunk slot is always marked stale.
//!
//! CI runs this suite in release mode as well: the optimized build
//! dispatches the packed-panel SIMD kernels, which is exactly where the
//! row-invariance half of the argument has teeth.

use proptest::prelude::*;
use qpp::net::config::{TargetCodec, TargetTransform};
use qpp::net::tree::{fit_ratio_caps, RatioCaps};
use qpp::net::{PlanId, PlanProgram, ProgramBuilder, QppConfig, QppNet, ScratchPlan, UnitSet};
use qpp::plansim::features::{Featurizer, Whitener};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Fresh-compile root predictions of `plans` (admission order), clamped
/// when `caps` is given. The program runs on 1 and then 4 plan lanes,
/// which must agree bitwise.
fn fresh_roots(
    fz: &Featurizer,
    wh: &Whitener,
    units: &UnitSet,
    codec: &TargetCodec,
    caps: Option<&RatioCaps>,
    plans: &[&Plan],
) -> Vec<f64> {
    let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
    let mut fresh = PlanProgram::compile(fz, wh, units, &roots);
    let one = fresh.predict_roots_threaded(units, codec, caps, 1);
    let four = fresh.predict_roots_threaded(units, codec, caps, 4);
    assert_eq!(bits(&one), bits(&four), "fresh compile diverged between 1 and 4 lanes");
    one
}

/// Drives one random admit/retire/predict interleaving and, at every
/// predict point, checks the builder against a fresh compile of exactly
/// the resident set (in admission order) — bitwise.
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

    let mut b = ProgramBuilder::new(&fz, &wh, &units, &codec, caps_opt);
    // The reference resident set, in admission order.
    let mut resident: Vec<(PlanId, usize)> = Vec::new();
    let mut op_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED5);
    let mut scratch = ScratchPlan::new();
    // True while every admitted row has been computed: a run executes
    // every stale chunk, so only then is a one-shot's run bounded by the
    // chunks its own rows joined.
    let mut fresh = true;

    for _ in 0..32 {
        let action: u32 = op_rng.gen_range(0..5);
        match action {
            // Admit a random plan from the pool (repeats deliberately
            // allowed — they are the CSE-heavy case).
            0 => {
                let pick = op_rng.gen_range(0..ds.plans.len());
                resident.push((b.admit(&ds.plans[pick].root), pick));
                fresh = false;
            }
            // Retire a random resident plan.
            1 if !resident.is_empty() => {
                let victim = op_rng.gen_range(0..resident.len());
                let (id, _) = resident.remove(victim);
                b.retire(id);
            }
            // Predict one random resident plan — the same plan is
            // predicted again and again with admits and retires between.
            2 if !resident.is_empty() => {
                let i = op_rng.gen_range(0..resident.len());
                let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
                let want = fresh_roots(&fz, &wh, &units, &codec, caps_opt, &plans);
                let got = b.predict_root(resident[i].0);
                assert_eq!(
                    got.to_bits(),
                    want[i].to_bits(),
                    "plan {i} of {}, clamped={clamped}: \
                     incremental predict_root diverged from fresh compile",
                    resident.len()
                );
                fresh = true;
            }
            // One-shot predict of a non-resident plan — half the draws an
            // exact copy of a resident plan. It must match a fresh compile
            // of that plan alone and leave the resident set as it found it.
            3 => {
                let pick = if !resident.is_empty() && op_rng.gen_bool(0.5) {
                    resident[op_rng.gen_range(0..resident.len())].1
                } else {
                    op_rng.gen_range(0..ds.plans.len())
                };
                let plan = &ds.plans[pick];
                scratch.rebuild_from_tree(&plan.root);
                let want = fresh_roots(&fz, &wh, &units, &codec, caps_opt, &[plan])[0];
                let (before, ids) = (b.stats(), b.resident());
                let run = b.predict_oneshot(&scratch);
                assert_eq!(
                    run.latency_ms.to_bits(),
                    want.to_bits(),
                    "one-shot of plan {pick}, clamped={clamped}: diverged from fresh compile"
                );
                let after = b.stats();
                assert_eq!(b.resident(), ids, "a one-shot changed the resident set");
                assert_eq!(
                    (after.resident_plans, after.logical_nodes, after.shared_rows),
                    (before.resident_plans, before.logical_nodes, before.shared_rows),
                    "a one-shot of plan {pick} left rows behind or took shared ones"
                );
                // Every position is either a CSE hit or a new row in one
                // chunk, so at most `nodes - cse hits` chunks.
                let joined = plan.node_count() as u64 - (after.cse_hits - before.cse_hits);
                if fresh {
                    assert!(
                        after.steps_run - before.steps_run <= joined,
                        "a one-shot ran {} chunks but joined at most {joined}",
                        after.steps_run - before.steps_run
                    );
                }
                fresh |= !run.cache_hit;
            }
            // Predict every resident plan.
            _ => {
                let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
                let want = fresh_roots(&fz, &wh, &units, &codec, caps_opt, &plans);
                let got = b.predict_roots();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} resident plans, clamped={clamped}: \
                     incremental diverged from fresh compile",
                    resident.len()
                );
                fresh = true;
            }
        }
    }
    // Final checkpoint regardless of where the op walk ended, including
    // the per-plan view.
    let plans: Vec<&Plan> = resident.iter().map(|&(_, p)| &ds.plans[p]).collect();
    let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
    let mut fresh = PlanProgram::compile(&fz, &wh, &units, &roots);
    let want_all = fresh.predict_all_threaded(&units, &codec, caps_opt, 4);
    for (i, &(id, _)) in resident.iter().enumerate() {
        assert_eq!(
            bits(&b.predict_all(id)),
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
