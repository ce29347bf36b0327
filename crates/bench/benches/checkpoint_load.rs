//! Checkpoint load, split by layer: how long a daemon takes to bring a
//! paper-tier model online, and where that time goes.
//!
//! `qpp serve` (and perfbench's daemon child) start by reading the JSON
//! checkpoint `QppNet::to_json` wrote, rebuilding the model and
//! registering it as a tenant. The rows time each step on its own, on a
//! paper-tier model (5×128 units, d = 32; ~25 MB of JSON):
//!
//! * `parse` — `serde_json::parse`: JSON text to a `Value` tree;
//! * `from_value` — the `Value` tree to a `QppNet` (the derive-generated
//!   `Deserialize`, which is what `serde_json::from_value` runs, here
//!   without the owned-tree clone that signature would force);
//! * `register` — `Server::register` of the model into a freshly bound
//!   loopback server (a register into a server that already holds the
//!   model is only a fingerprint lookup, so each iteration binds anew);
//! * `to_json` — the writer side: `QppNet::to_json`, for checkpoint
//!   export.
//!
//! `parse + from_value + register` is the daemon's share of perfbench's
//! `setup_s`; the rest is process start and the first `stats` round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use qpp_plansim::catalog::Workload;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::plan::Plan;
use qppnet::serve::{ServeAddr, ServeConfig, Server};
use qppnet::{QppConfig, QppNet};
use serde::Deserialize;

fn bench_checkpoint_load(c: &mut Criterion) {
    let ds = Dataset::generate(Workload::TpcH, 1.0, 40, 7);
    // One epoch: the checkpoint's size and shape depend on the
    // architecture, not on how well it is trained.
    let mut model = QppNet::new(QppConfig { epochs: 1, ..QppConfig::default() }, &ds.catalog);
    model.fit(&ds.plans.iter().collect::<Vec<&Plan>>());
    let json = model.to_json();
    let value = serde_json::parse(&json).expect("checkpoint parses");
    println!("paper-tier checkpoint: {:.1} MB", json.len() as f64 / 1e6);

    let mut group = c.benchmark_group("checkpoint_load");
    group.sample_size(10);
    group.bench_function("parse", |b| {
        b.iter(|| serde_json::parse(std::hint::black_box(&json)).expect("parses"))
    });
    group.bench_function("from_value", |b| {
        b.iter(|| QppNet::de_value(std::hint::black_box(&value)).expect("deserializes"))
    });
    let addr = ServeAddr::parse("127.0.0.1:0").expect("loopback address");
    group.bench_function("register", |b| {
        b.iter(|| {
            let mut server = Server::bind(&addr, ServeConfig::default()).expect("bind");
            server.register(&model)
        })
    });
    group.bench_function("to_json", |b| b.iter(|| model.to_json()));
    group.finish();
}

criterion_group!(benches, bench_checkpoint_load);
criterion_main!(benches);
