//! Differential tests for the wavefront training engine: the
//! differentiable program tape (`ProgramTape`) against per-equivalence-
//! class `TreeBatch` evaluation — the arrangement the paper describes and
//! the repository's gradient oracle.
//!
//! Three contracts are held:
//!
//! * **gradient agreement** — for random mixed-shape forests, the
//!   *normalized* gradients (what the optimizer consumes: summed SSE
//!   gradients divided by the supervised-operator count) agree within
//!   `1e-5` relative, per parameter. Comparison happens after
//!   normalization because the raw SSE sums reach magnitudes where a
//!   single f32 ULP is ~1e-4 — pointwise comparison there would measure
//!   summation-order noise, not correctness.
//! * **gradcheck** — the tape's analytic gradients match central-
//!   difference estimates of the tape's own loss
//!   (`qpp_nn::gradcheck::stable_central_diff`, the shared ReLU-kink
//!   stability filter), through multi-level plans where scan gradients
//!   must flow through parent units.
//! * **trained-model parity** — full training runs (shuffling, batching,
//!   weight decay, optimizer steps) through either engine, same RNG
//!   stream and config, land on models whose held-out predictions agree
//!   within `1e-5` relative.
//!
//! CI runs this suite in release mode as well: the optimized build
//! dispatches the AVX2+FMA forward microkernel, whose rounding the
//! tolerance must absorb — debug-only agreement would not certify the
//! bench or production binaries.

use proptest::prelude::*;
use qpp::net::config::{TargetCodec, TargetTransform, TrainEngine};
use qpp::net::tree::{equivalence_classes, Supervision, TreeBatch};
use qpp::net::{ProgramTape, QppConfig, QppNet, UnitSet};
use qpp::plansim::features::{Featurizer, Whitener};
use qpp::plansim::operators::OpKind;
use qpp::plansim::prelude::*;
use rand::SeedableRng;

const TOL: f64 = 1e-5;

fn setup(workload: Workload, batch: usize, seed: u64) -> (Dataset, Featurizer, Whitener, UnitSet, TargetCodec) {
    let ds = Dataset::generate(workload, 1.0, batch, seed);
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, ds.plans.iter());
    let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
    // Untrained (randomly initialized) units exercise the full numeric
    // range; training only moves weights, never the data flow.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6EAD);
    let units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);
    (ds, fz, wh, units, codec)
}

/// Normalized oracle gradients: per equivalence class, one all-operator
/// `TreeBatch` pass, summed and divided by the total supervised count —
/// the legacy trainer's exact arrangement up to the optimizer step.
fn oracle_grads(
    fz: &Featurizer,
    wh: &Whitener,
    codec: &TargetCodec,
    units: &mut UnitSet,
    plans: &[&Plan],
) {
    units.zero_grad();
    let mut ops = 0usize;
    for (_, members) in equivalence_classes(plans.iter().enumerate().map(|(i, p)| (i, &p.root))) {
        let roots: Vec<&PlanNode> = members.iter().map(|&i| &plans[i].root).collect();
        let tb = TreeBatch::build(fz, wh, codec, &roots);
        let fwd = tb.forward(units);
        let (_, grads) = tb.loss(&fwd, Supervision::AllOperators);
        tb.backward(units, &fwd, grads);
        ops += tb.supervised_count(Supervision::AllOperators);
    }
    units.scale_grad(1.0 / ops.max(1) as f32);
}

fn grads_snapshot(units: &UnitSet) -> Vec<(String, Vec<f32>)> {
    OpKind::ALL
        .iter()
        .flat_map(|&k| {
            units.unit(k).layers().iter().enumerate().map(move |(l, layer)| {
                let mut v = layer.gw.as_slice().to_vec();
                v.extend_from_slice(&layer.gb);
                (format!("{k:?} layer {l}"), v)
            })
        })
        .collect()
}

fn assert_grads_agree(workload: Workload, seed: u64, batch: usize, threads: usize) {
    let (ds, fz, wh, units, codec) = setup(workload, batch, seed);
    let plans: Vec<&Plan> = ds.plans.iter().collect();

    let mut oracle_units = units.clone();
    oracle_grads(&fz, &wh, &codec, &mut oracle_units, &plans);
    let oracle = grads_snapshot(&oracle_units);

    let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
    let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
    let mut tape_units = units.clone();
    tape_units.zero_grad();
    tape.forward_threaded(&units, threads);
    let (_, ops) = tape.loss();
    tape.backward_threaded(&mut tape_units, threads);
    tape_units.scale_grad(1.0 / ops.max(1) as f32);
    let tape_grads = grads_snapshot(&tape_units);

    for ((name, a), (_, b)) in oracle.iter().zip(&tape_grads) {
        for (x, y) in a.iter().zip(b) {
            let rel = (x - y).abs() as f64 / (1.0 + x.abs().max(y.abs()) as f64);
            assert!(
                rel < TOL,
                "{name} ({threads} threads): oracle {x} vs tape {y} (rel {rel})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random TPC-H forests: mixed shapes, batches 2..40, sequential tape.
    #[test]
    fn tpch_gradients_match_tree_batch_oracle(seed in 0u64..10_000, batch in 2usize..40) {
        assert_grads_agree(Workload::TpcH, seed, batch, 1);
    }

    /// Random TPC-DS forests (full operator vocabulary), sequential tape.
    #[test]
    fn tpcds_gradients_match_tree_batch_oracle(seed in 0u64..10_000, batch in 2usize..40) {
        assert_grads_agree(Workload::TpcDs, seed, batch, 1);
    }

    /// The multicore sweeps (per-worker gradient accumulation, reduced
    /// after the level barriers) hold the same oracle agreement.
    #[test]
    fn threaded_gradients_match_tree_batch_oracle(seed in 0u64..10_000, batch in 2usize..32) {
        assert_grads_agree(Workload::TpcDs, seed, batch, 4);
    }
}

/// Finite-difference check through the tape: perturb weights of units at
/// every tree depth and verify the tape's loss moves as its analytic
/// gradient predicts (kink-unstable points filtered by the shared
/// step-halving filter, with a vacuous-pass guard).
#[test]
fn tape_gradients_match_finite_differences() {
    let (ds, fz, wh, mut units, codec) = setup(Workload::TpcH, 16, 23);
    let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
    let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);

    units.zero_grad();
    tape.forward_threaded(&units, 1);
    tape.loss();
    tape.backward_threaded(&mut units, 1);

    let mut worst: f64 = 0.0;
    let mut compared = 0usize;
    let h = 5e-3f32;
    for kind in [OpKind::Scan, OpKind::Join, OpKind::Aggregate] {
        let (rows, cols) = {
            let l0 = &units.unit(kind).layers()[0];
            (l0.w.rows(), l0.w.cols())
        };
        for (r, c) in [(0, 0), (1, 2), (rows - 1, cols - 1)] {
            let analytic = units.unit(kind).layers()[0].gw.get(r, c) as f64;
            let orig = units.unit(kind).layers()[0].w.get(r, c);
            let numeric = qpp::nn::gradcheck::stable_central_diff(
                |offset| {
                    units.unit_mut(kind).layers_mut()[0].w.set(r, c, orig + offset);
                    tape.forward_threaded(&units, 1);
                    let (l, _) = tape.loss();
                    units.unit_mut(kind).layers_mut()[0].w.set(r, c, orig);
                    l
                },
                h,
                0.01,
            );
            let Some(numeric) = numeric else { continue };
            let denom = analytic.abs().max(numeric.abs()).max(1e-2);
            worst = worst.max((analytic - numeric).abs() / denom);
            compared += 1;
        }
    }
    // Guard against a vacuous pass: the kink filter must not have
    // discarded every sampled point.
    assert!(compared >= 5, "only {compared} of 9 points were kink-stable");
    assert!(worst < 0.05, "worst relative gradient error {worst}");
}

/// Full training runs through either engine — same config, same RNG
/// stream, same optimizer — must land on models that agree on held-out
/// predictions within `1e-5` relative. This is the end-to-end acceptance
/// contract: shuffling, mini-batching, tape reuse across epochs, weight
/// decay and momentum all sit between the engines and the comparison.
fn trained_model_parity(workload: Workload, batch_size: usize) {
    let ds = Dataset::generate(workload, 1.0, 48, 4171);
    let train: Vec<&Plan> = ds.plans.iter().take(36).collect();
    let held_out: Vec<&Plan> = ds.plans.iter().skip(36).collect();

    let run = |engine: TrainEngine| {
        let cfg = QppConfig {
            epochs: 6,
            batch_size,
            train_engine: engine,
            ..QppConfig::tiny()
        };
        let mut model = QppNet::new(cfg, &ds.catalog);
        model.fit(&train);
        model.predict_batch(&held_out)
    };
    let program = run(TrainEngine::Program);
    let classes = run(TrainEngine::Classes);
    for (i, (p, c)) in program.iter().zip(&classes).enumerate() {
        let rel = (p - c).abs() / (1.0 + c.abs());
        assert!(
            rel < TOL,
            "held-out plan {i}: wavefront-trained {p} vs class-trained {c} (rel {rel})"
        );
    }
}

/// Full-batch configuration: the tape is compiled once and reused across
/// every epoch.
#[test]
fn trained_models_agree_full_batch() {
    trained_model_parity(Workload::TpcH, 64);
}

/// Mini-batch configuration: tapes are recompiled per shuffled chunk
/// (recycling buffers), exercising a different tape per step.
#[test]
fn trained_models_agree_minibatched() {
    trained_model_parity(Workload::TpcDs, 8);
}
