//! Traced-run replays: the workload's exact request lines and plans fed
//! through each layer's public functions in process, one span per call,
//! so every layer gets a cost per unit of work. Nothing inside the
//! engine is instrumented; the spans sit around the calls.

use std::hint::black_box;

use qpp_nn::{BufferPool, Matrix, PackedMlp};
use qpp_plansim::prelude::{Featurizer, OpKind, Plan, PlanNode, Whitener};
use qppnet::config::TargetCodec;
use qppnet::lower::NodeContentKey;
use qppnet::serve::proto::decode_request;
use qppnet::serve::scratch::{FastDecode, RequestScratch};
use qppnet::serve::Request;
use qppnet::{PlanId, ProgramTape, ScratchPlan, UnitSet};
use rand::SeedableRng;

use crate::metrics::{self, Values};
use crate::schedule::{resident_script, skewed_draws, Op};
use crate::trace::Tracer;
use crate::train::{self, Trained};
use crate::workload::{Data, Traffic, Workload, TEMPLATES, ZIPF_S};

/// Requests replayed through the serving layers.
const REQUESTS: usize = 2_000;
/// Repetitions of each training and batch-inference call.
const REPEATS: usize = 5;

fn median(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0) as f64
}

/// Nanoseconds per unit over a sum of span durations.
#[derive(Default)]
struct Cost {
    ns: u64,
    units: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, units: usize) {
        self.ns += ns;
        self.units += units as u64;
    }

    fn per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }
}

/// The layers below the wire that every plan crosses: content keys,
/// featurization and the packed unit forward per node.
struct PlanLayers {
    featurizer: Featurizer,
    packed: Vec<PackedMlp>,
    pool: BufferPool,
    feats: Vec<f32>,
    keys: Cost,
    featurize: Cost,
    forward: Cost,
    flops: u64,
    bytes: u64,
}

impl PlanLayers {
    fn new(data: &Data, units: &UnitSet) -> PlanLayers {
        PlanLayers {
            featurizer: Featurizer::new(&data.train.catalog),
            packed: OpKind::ALL
                .iter()
                .map(|&k| PackedMlp::pack(units.unit(k), false))
                .collect(),
            pool: BufferPool::new(),
            feats: Vec::new(),
            keys: Cost::default(),
            featurize: Cost::default(),
            forward: Cost::default(),
            flops: 0,
            bytes: 0,
        }
    }

    fn visit(&mut self, tracer: &Tracer, plan: &PlanNode) {
        let nodes = plan.postorder();
        let (_, ns) = tracer.timed("lower", || {
            for n in &nodes {
                black_box(NodeContentKey::of(n));
            }
        });
        self.keys.add(ns, nodes.len());
        let (_, ns) = tracer.timed("plansim", || {
            for n in &nodes {
                self.featurizer.featurize_into(n, &mut self.feats);
                black_box(&self.feats);
            }
        });
        self.featurize.add(ns, nodes.len());
        for n in &nodes {
            let kind = n.op.kind();
            let unit = &self.packed[OpKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("every kind is packed")];
            let x = Matrix::zeros(1, unit.in_dim());
            let (out, ns) = tracer.timed("nn", || unit.forward_pooled(&x, &mut self.pool));
            self.pool.give(out);
            self.forward.add(ns, 1);
            // Computed, not measured: a multiply-add per weight, and the
            // weights, biases, input and output of every layer moved once.
            for l in unit.layers() {
                let (i, o) = (l.in_dim() as u64, l.out_dim() as u64);
                self.flops += 2 * i * o;
                self.bytes += 4 * (i * o + o + i + o);
            }
        }
    }

    fn record(&self, values: &mut Values) {
        values.set("lower.key_ns_per_node", self.keys.per_unit());
        values.set("plansim.featurize_ns_per_node", self.featurize.per_unit());
        values.set("nn.forward_ns_per_call", self.forward.per_unit());
        values.set(
            "nn.forward_gflops",
            if self.forward.ns == 0 {
                0.0
            } else {
                self.flops as f64 / self.forward.ns as f64
            },
        );
        values.set(
            "nn.forward_bytes_per_call",
            if self.forward.units == 0 {
                0.0
            } else {
                self.bytes as f64 / self.forward.units as f64
            },
        );
    }
}

fn trim(line: &[u8]) -> &str {
    std::str::from_utf8(line)
        .expect("request lines are UTF-8")
        .trim_end()
}

fn decode_plan(tracer: &Tracer, line: &str, cost: &mut Cost) -> PlanNode {
    let (req, ns) = tracer.timed("proto", || decode_request(line));
    cost.add(ns, 1);
    match req.expect("workload lines decode") {
        Request::AdmitPredict { plan, .. } | Request::Admit { plan, .. } => *plan,
        other => panic!("expected a plan-carrying request, got {other:?}"),
    }
}

/// One-shot workloads: the fast decoder, the general decoder, and
/// `ShardedStream::predict_oneshot` over the workload's request lines.
fn oneshot(
    tracer: &Tracer,
    trained: &Trained,
    requests: &crate::workload::Lines,
    order: &[usize],
    warm: &[usize],
    layers: &mut PlanLayers,
    values: &mut Values,
) {
    let mut stream = trained.model.serve_sharded(1);
    let mut sp = ScratchPlan::new();
    let mut scratch = RequestScratch::new();
    for &i in warm {
        assert!(matches!(
            scratch.decode(trim(requests.get(i))),
            FastDecode::Ready { .. }
        ));
        black_box(stream.predict_oneshot(scratch.plan()));
    }
    let (mut fast, mut general, mut oneshot) = (Cost::default(), Cost::default(), Cost::default());
    for &i in order {
        let line = trim(requests.get(i));
        let (ready, ns) = tracer.timed("scratch", || scratch.decode(line));
        assert!(
            matches!(ready, FastDecode::Ready { .. }),
            "the fast decoder takes every one-shot line"
        );
        fast.add(ns, 1);
        let plan = decode_plan(tracer, line, &mut general);
        layers.visit(tracer, &plan);
        sp.rebuild_from_tree(&plan);
        let (run, ns) = tracer.timed("stream", || stream.predict_oneshot(&sp));
        black_box(run);
        oneshot.add(ns, 1);
    }
    values.set("scratch.decode_ns", fast.per_unit());
    values.set("proto.decode_ns", general.per_unit());
    values.set("stream.oneshot_ns", oneshot.per_unit());
}

/// `serve_resident`: sessions through the general decoder and
/// `ShardedStream` admit, predict and retire.
fn resident(
    tracer: &Tracer,
    trained: &Trained,
    traffic: &crate::workload::Resident,
    seed: u64,
    layers: &mut PlanLayers,
    values: &mut Values,
) {
    let mut stream = trained.model.serve_sharded(1);
    let ops = resident_script(seed, 0, 0, REQUESTS, TEMPLATES, ZIPF_S);
    let mut pids: Vec<Option<PlanId>> = Vec::new();
    let (mut general, mut admit, mut predict, mut retire) = (
        Cost::default(),
        Cost::default(),
        Cost::default(),
        Cost::default(),
    );
    let mut dedup = Vec::new();
    let mut buf = Vec::new();
    for op in ops {
        match op {
            Op::Admit { template, session } => {
                let plan = decode_plan(
                    tracer,
                    trim(traffic.admit.get(template as usize)),
                    &mut general,
                );
                layers.visit(tracer, &plan);
                let (pid, ns) = tracer.timed("stream", || stream.admit(&plan));
                admit.add(ns, 1);
                if pids.len() <= session as usize {
                    pids.resize(session as usize + 1, None);
                }
                pids[session as usize] = Some(pid);
                dedup.push(stream.stats().dedup_ratio());
            }
            Op::Predict { session } => {
                traffic
                    .predict
                    .fill(session.to_string().as_bytes(), &mut buf);
                let (req, ns) = tracer.timed("proto", || decode_request(trim(&buf)));
                assert!(req.is_ok());
                general.add(ns, 1);
                let pid = pids[session as usize].expect("predict follows admit");
                let (p, ns) = tracer.timed("stream", || stream.predict_root_threaded(pid, 1));
                black_box(p);
                predict.add(ns, 1);
            }
            Op::Retire { session } => {
                traffic
                    .retire
                    .fill(session.to_string().as_bytes(), &mut buf);
                let (req, ns) = tracer.timed("proto", || decode_request(trim(&buf)));
                assert!(req.is_ok());
                general.add(ns, 1);
                let pid = pids[session as usize].take().expect("retire follows admit");
                let ((), ns) = tracer.timed("stream", || stream.retire(pid));
                retire.add(ns, 1);
            }
            Op::OneShot(_) => unreachable!("resident scripts hold sessions only"),
        }
    }
    values.set("proto.decode_ns", general.per_unit());
    values.set("stream.admit_ns", admit.per_unit());
    values.set("stream.predict_ns", predict.per_unit());
    values.set("stream.retire_ns", retire.per_unit());
    values.set(
        "stream.dedup_ratio",
        dedup.iter().sum::<f64>() / dedup.len().max(1) as f64,
    );
}

/// Training-tape phases and batch inference, replayed on the training
/// and held-out plans.
fn training(
    tracer: &Tracer,
    data: &Data,
    trained: &Trained,
    seed: u64,
    units: &mut UnitSet,
    values: &mut Values,
) {
    let h = &trained.history;
    let epochs = h.epoch_seconds.len().max(1) as f64;
    let mut steady: Vec<u64> = h.epoch_seconds[1..]
        .iter()
        .map(|s| (s * 1e9) as u64)
        .collect();
    steady.sort_unstable();
    let epoch_ms = median(steady) / 1e6;
    values.set("train.epoch_ms", epoch_ms);
    values.set("train.first_epoch_ms", h.epoch_seconds[0] * 1e3);
    values.set("train.rows_per_epoch", h.stats.rows_per_epoch as f64);
    values.set("train.gemms_per_epoch", h.stats.gemms_per_epoch as f64);
    values.set("pool.runs_per_epoch", trained.pool_runs as f64 / epochs);
    values.set(
        "pool.unparks_per_epoch",
        trained.pool_unparks as f64 / epochs,
    );

    let cfg = train::config(seed);
    let fz = Featurizer::new(&data.train.catalog);
    let wh = Whitener::fit(&fz, data.train.plans.iter());
    let mut latencies = Vec::new();
    for p in &data.train.plans {
        p.root
            .visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
    }
    let codec = TargetCodec::fit(cfg.target_transform, latencies);
    let roots: Vec<&PlanNode> = data.train.plans.iter().map(|p| &p.root).collect();
    let (mut compile, mut forward, mut loss, mut backward) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tape = None;
    for _ in 0..REPEATS {
        let (t, ns) = tracer.timed("train_program", || {
            ProgramTape::compile(&fz, &wh, &codec, units, &roots)
        });
        compile.push(ns);
        tape = Some(t);
    }
    let tape = tape.as_mut().expect("compiled at least once");
    for _ in 0..REPEATS {
        units.zero_grad();
        forward.push(
            tracer
                .timed("train_program", || {
                    tape.forward_threaded(units, train::THREADS)
                })
                .1,
        );
        loss.push(tracer.timed("train_program", || black_box(tape.loss())).1);
        backward.push(
            tracer
                .timed("train_program", || {
                    tape.backward_threaded(units, train::THREADS)
                })
                .1,
        );
    }
    let (f, l, b) = (
        median(forward) / 1e6,
        median(loss) / 1e6,
        median(backward) / 1e6,
    );
    values.set("train_program.compile_ms", median(compile) / 1e6);
    values.set("train_program.forward_ms", f);
    values.set("train_program.loss_ms", l);
    values.set("train_program.backward_ms", b);
    values.set("train.other_ms", epoch_ms - f - l - b);

    let test: Vec<&Plan> = data.test.plans.iter().collect();
    let (mut compile, mut run) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut program, ns) = tracer.timed("infer", || trained.model.compile_program(&test));
        compile.push(ns);
        run.push(
            tracer
                .timed("infer", || {
                    black_box(trained.model.predict_compiled(&mut program))
                })
                .1,
        );
    }
    values.set(
        "infer.compile_ns_per_plan",
        median(compile) / test.len() as f64,
    );
    values.set("infer.run_ns_per_plan", median(run) / test.len() as f64);
}

/// Runs every replay that fits `workload` and records the per-layer
/// metrics they yield, then each layer's self time over the whole run.
pub fn run(
    workload: Workload,
    traffic: &Traffic,
    data: &Data,
    trained: &Trained,
    seed: u64,
    tracer: &Tracer,
    values: &mut Values,
) {
    let cfg = train::config(seed);
    let fz = Featurizer::new(&data.train.catalog);
    let mut units = UnitSet::new(&cfg, &fz, &mut rand::rngs::StdRng::seed_from_u64(seed));
    let mut layers = PlanLayers::new(data, &units);
    match (workload, traffic) {
        (Workload::Skewed, Traffic::OneShot { requests, .. }) => {
            let order: Vec<usize> = skewed_draws(seed, 0, REQUESTS, TEMPLATES, ZIPF_S)
                .into_iter()
                .map(|i| i as usize)
                .collect();
            let warm: Vec<usize> = (0..TEMPLATES).collect();
            oneshot(
                tracer,
                trained,
                requests,
                &order,
                &warm,
                &mut layers,
                values,
            );
        }
        (Workload::Unique, Traffic::OneShot { requests, .. }) => {
            let order: Vec<usize> = (0..REQUESTS).collect();
            oneshot(tracer, trained, requests, &order, &[], &mut layers, values);
        }
        (Workload::Resident, Traffic::Resident(r)) => {
            resident(tracer, trained, r, seed, &mut layers, values)
        }
        _ => unreachable!("traffic is built for its workload"),
    }
    layers.record(values);
    training(tracer, data, trained, seed, &mut units, values);

    let self_ms = tracer.self_ms();
    for layer in metrics::LAYERS {
        let name = metrics::def(&format!("{layer}.self_ms"))
            .expect("every layer has a self-time metric")
            .name;
        values.set(name, self_ms.get(layer).copied().unwrap_or(0.0));
    }
    values.set("trace.spans", tracer.len() as f64);
}
