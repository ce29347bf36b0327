//! Differential tests for the resident executor and the sharded serving
//! path: random interleavings of concurrent predicts with admits/retires
//! across `ShardedStream` shards must be **bit-identical** to sequential
//! execution through a single `ProgramBuilder` — at 1/2/4/8 threads,
//! unclamped and under the structural envelope — plus two pool-lifecycle
//! regressions: a worker panic must poison the run (original payload on
//! the caller, resident threads and the global pool intact afterwards),
//! and an idle pool must park rather than spin.
//!
//! The sharded bit-identity argument composes three facts:
//!
//! 1. each shard is a complete wavefront program executed *sequentially*
//!    on whichever resident worker it is dealt to, so per-shard bits are
//!    the single-threaded bits by construction;
//! 2. a `ProgramBuilder`'s predictions are independent of which other
//!    plans are resident (row-invariant kernels, lossless cache keys —
//!    the `stream_differential` contract), so partitioning the resident
//!    set across shards cannot move any plan's bits;
//! 3. shard routing is a pure function of plan content, so the partition
//!    itself is deterministic.
//!
//! CI runs this suite in release mode as well: the optimized build
//! dispatches the packed-panel SIMD kernels, which is where the
//! row-invariance half of the argument has teeth.

use proptest::prelude::*;
use qpp::net::config::{TargetCodec, TargetTransform};
use qpp::net::tree::fit_ratio_caps;
use qpp::net::{PlanId, PlanProgram, ProgramBuilder, QppConfig, ShardedStream, UnitSet};
use qpp::nn::Executor;
use qpp::plansim::features::{Featurizer, Whitener};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drives one random admit/retire/predict interleaving through a
/// `ShardedStream` and a reference single `ProgramBuilder` in lockstep;
/// at every predict point the sharded path (executed concurrently on the
/// resident pool) must match the single builder bitwise at 1/2/4/8
/// threads.
fn sharded_churn_matches_single_builder(workload: Workload, seed: u64, clamped: bool) {
    let ds = Dataset::generate(workload, 1.0, 20, seed);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let caps = fit_ratio_caps(ds.plans.iter(), 2.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);
    let caps_opt = clamped.then_some(&caps);

    let shards = 2 + (seed as usize % 2); // 2 or 3 shards
    let mut sharded = ShardedStream::new(&fz, &wh, &units, &codec, caps_opt, shards, seed);
    let mut single = ProgramBuilder::new(&fz, &wh, &units, &codec, caps_opt);
    // Parallel id handles: (sharded id, single-builder id).
    let mut resident: Vec<(PlanId, PlanId)> = Vec::new();
    let mut op_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED5);
    // The first predict after a change runs the stale shards and the
    // rest only decode, so the fan-out that goes first rotates between
    // predict points: every fan-out takes the running path.
    let mut fanouts = [1usize, 2, 4, 8];

    for _ in 0..24 {
        let action: u32 = op_rng.gen_range(0..4);
        match action {
            // Admit a random plan into both (repeats deliberately allowed
            // — identical plans route to one shard and CSE there).
            0 => {
                let pick = op_rng.gen_range(0..ds.plans.len());
                let root = &ds.plans[pick].root;
                resident.push((sharded.admit(root), single.admit(root)));
            }
            // Admit a small burst, one arrival at a time.
            1 => {
                let roots: Vec<&PlanNode> = (0..op_rng.gen_range(1..4))
                    .map(|_| &ds.plans[op_rng.gen_range(0..ds.plans.len())].root)
                    .collect();
                for root in roots {
                    resident.push((sharded.admit(root), single.admit(root)));
                }
            }
            // Retire a random resident plan from both.
            2 if !resident.is_empty() => {
                let victim = op_rng.gen_range(0..resident.len());
                let (sid, bid) = resident.remove(victim);
                sharded.retire(sid);
                single.retire(bid);
            }
            // Concurrent predict across shards vs sequential single
            // builder, at every fan-out.
            _ => {
                let want = single.predict_roots();
                for threads in fanouts {
                    let got = sharded.predict_roots_threaded(threads);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} resident plans, {shards} shards, {threads} threads, \
                         clamped={clamped}: sharded diverged from single builder",
                        resident.len()
                    );
                }
                fanouts.rotate_left(1);
            }
        }
    }
    // Final checkpoint: batch view, per-plan roots and per-operator rows.
    assert_eq!(sharded.len(), single.len());
    assert_eq!(bits(&sharded.predict_roots_threaded(4)), bits(&single.predict_roots()));
    for &(sid, bid) in &resident {
        assert_eq!(
            sharded.predict_root_threaded(sid, 1).to_bits(),
            single.predict_root(bid).to_bits()
        );
        assert_eq!(bits(&sharded.predict_all(sid)), bits(&single.predict_all(bid)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random TPC-H churn across shards, unclamped.
    #[test]
    fn tpch_sharded_churn_is_bit_identical(seed in 0u64..10_000) {
        sharded_churn_matches_single_builder(Workload::TpcH, seed, false);
    }

    /// Random TPC-DS churn (full operator vocabulary, template-heavy —
    /// the CSE-rich case), unclamped.
    #[test]
    fn tpcds_sharded_churn_is_bit_identical(seed in 0u64..10_000) {
        sharded_churn_matches_single_builder(Workload::TpcDs, seed, false);
    }

    /// Random TPC-H churn under the structural envelope.
    #[test]
    fn tpch_sharded_clamped_churn_is_bit_identical(seed in 0u64..10_000) {
        sharded_churn_matches_single_builder(Workload::TpcH, seed, true);
    }

    /// Random TPC-DS churn under the structural envelope.
    #[test]
    fn tpcds_sharded_clamped_churn_is_bit_identical(seed in 0u64..10_000) {
        sharded_churn_matches_single_builder(Workload::TpcDs, seed, true);
    }
}

/// A burst admitted and then predicted must be accuracy-free: each plan
/// gets exactly the bits it would get served alone, at every thread
/// count, and retiring the burst empties the stream.
#[test]
fn a_burst_admitted_then_predicted_is_bit_identical_to_each_plan_alone() {
    let ds = Dataset::generate(Workload::TpcDs, 1.0, 24, 7);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(70);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);

    let alone: Vec<u64> = ds
        .plans
        .iter()
        .take(16)
        .map(|p| {
            let mut program = PlanProgram::compile(&fz, &wh, &units, &[&p.root]);
            program.predict_roots_threaded(&units, &codec, None, 1)[0].to_bits()
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let mut stream = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        let ids: Vec<PlanId> = ds.plans.iter().take(16).map(|p| stream.admit(&p.root)).collect();
        let burst: Vec<u64> =
            ids.iter().map(|&id| stream.predict_root_threaded(id, threads).to_bits()).collect();
        assert_eq!(burst, alone, "{threads} threads: burst bits diverge from each plan alone");
        for id in ids {
            stream.retire(id);
        }
        assert!(stream.is_empty(), "retiring the burst must empty the stream");
    }
}

/// Worker-panic regression for the parked pool (mirror of the scoped
/// executor's deadlock test): a shape mismatch that fires *inside
/// resident worker threads* must poison the run — original payload
/// re-raised on the caller — and must leave the process-wide pool
/// serviceable: the same workers run the next 4-thread predict, whose
/// bits still match single-threaded execution.
#[test]
fn worker_panic_poisons_run_and_global_pool_survives() {
    let ds = Dataset::generate(Workload::TpcH, 1.0, 16, 5);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);
    let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
    let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);

    // A unit set with the same output width (the cheap width check
    // passes) but different per-family input dims: the shape assert fires
    // inside the resident workers mid-wavefront.
    let other = Dataset::generate(Workload::TpcDs, 1.0, 8, 3);
    let fz2 = Featurizer::new(&other.catalog);
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
    let units2 = UnitSet::new(&QppConfig::tiny(), &fz2, &mut rng2);
    assert_eq!(units2.out_size(), units.out_size(), "width check must pass");

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = program.predict_roots_threaded(&units2, &codec, None, 4);
    }));
    let payload = result.expect_err("the worker panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic carries its message");
    assert!(
        msg.contains("matmul dimension mismatch"),
        "caller observed `{msg}` instead of the shape assert"
    );

    // The resident pool survived the poisoned run: a fresh compile (the
    // poisoned program's buffers are in an undefined-but-memory-safe
    // state) predicts on 4 workers with single-thread bits.
    let mut fresh = PlanProgram::compile(&fz, &wh, &units, &roots);
    let want = fresh.predict_roots_threaded(&units, &codec, None, 1);
    let got = fresh.predict_roots_threaded(&units, &codec, None, 4);
    assert_eq!(bits(&got), bits(&want), "global pool unusable after a poisoned run");
}

/// An idle pool must park, not spin: after a run drains, every resident
/// worker parks once and the park/unpark counters go *flat* — a spinning
/// worker would keep re-parking or burning unparks and the counters
/// would never stabilize.
#[test]
fn idle_pool_parks_and_does_not_spin() {
    let exec = Executor::new(2);
    exec.run(3, &|_| {});
    // Wait (bounded) for the counters to stabilize: both workers back on
    // the condvar, at least one park each recorded.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let settled = loop {
        let s = exec.stats();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let again = exec.stats();
        if s.parks >= 2 && (again.parks, again.unparks) == (s.parks, s.unparks) {
            break s;
        }
        assert!(std::time::Instant::now() < deadline, "pool never settled: {again}");
    };
    // The pool sits idle: across a much longer window the counters must
    // stay exactly where they settled.
    std::thread::sleep(std::time::Duration::from_millis(80));
    let after = exec.stats();
    assert_eq!(settled.parks, after.parks, "idle workers re-parked (spinning)");
    assert_eq!(settled.unparks, after.unparks, "idle workers woke without a job");
    assert_eq!(settled.runs, after.runs);
}
