//! Differential tests for the serving daemon: random admit / retire /
//! predict interleavings driven **through the socket** must produce
//! predictions **bitwise-equal** to scoring each plan alone with
//! `QppNet::predict_batch` — on 1, 2 and 3 shards, clamped and
//! unclamped, over TCP loopback and unix sockets, on both request paths
//! (the one-shot fast path and the general decoder).
//!
//! The oracle is the batch `PlanProgram` engine, never the resident
//! `ProgramBuilder` the daemon runs: a bug in resident bookkeeping (a
//! row decoded before it was computed, say) would show on both sides of
//! a builder-vs-builder comparison and pass. Bit-equality survives the
//! wire because every engine is bit-transparent against a fresh compile
//! (`tests/stream_differential.rs`, `tests/executor_differential.rs`),
//! and the vendored JSON formatter prints non-integral `f64`s with
//! Rust's shortest-round-trip `Display`, which parses back to the exact
//! bits.

use std::sync::OnceLock;
use std::time::Duration;

use qpp::net::serve::{Client, ServeAddr, ServeConfig, Server};
use qpp::net::{QppConfig, QppNet};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

/// Shared fixture: one dataset plus a clamped and an unclamped fitted
/// model (tiny tier, 2 epochs — learned weights are irrelevant to the
/// bit-equality contract, the data flow is what's under test).
fn fixture() -> &'static (Dataset, QppNet, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcDs, 1.0, 20, 11);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut clamped = QppNet::new(
            QppConfig { epochs: 2, monotone_clamp: true, ..QppConfig::tiny() },
            &ds.catalog,
        );
        clamped.fit(&train);
        // One extra epoch so the two models' weights (and therefore
        // fingerprints — the fingerprint hashes fitted state, not
        // config flags) differ, which multi-tenancy relies on.
        let mut unclamped = QppNet::new(
            QppConfig { epochs: 3, monotone_clamp: false, ..QppConfig::tiny() },
            &ds.catalog,
        );
        unclamped.fit(&train);
        (ds, clamped, unclamped)
    })
}

/// The reference bits for `plan`: the batch engine scoring it alone.
fn alone(model: &QppNet, plan: &Plan) -> u64 {
    model.predict_batch(&[plan])[0].to_bits()
}

/// Shuts the daemon down if the test panics, so a failed assertion fails
/// the test instead of leaving `thread::scope` joined on the server.
struct ShutdownOnPanic<'a>(&'a ServeAddr);

impl Drop for ShutdownOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut client) = Client::connect(self.0) {
                let _ = client.set_timeout(Some(Duration::from_secs(5)));
                let _ = client.shutdown();
            }
        }
    }
}

/// Drives one random interleaving through a live daemon, asserting that
/// every served prediction carries the bits of scoring that plan alone.
fn served_bits_match_inprocess(
    addr: &ServeAddr,
    cfg: ServeConfig,
    clamped: bool,
    seed: u64,
    ops: usize,
) {
    let (ds, clamped_model, unclamped_model) = fixture();
    let model = if clamped { clamped_model } else { unclamped_model };

    let mut server = Server::bind(addr, cfg).expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();

    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        let _stop = ShutdownOnPanic(&addr);

        let mut client = Client::connect(&addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();

        let expected: Vec<u64> = ds.plans.iter().map(|p| alone(model, p)).collect();
        // Session map: wire id → picked plan.
        let mut resident: Vec<(u64, usize)> = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED5);

        for _ in 0..ops {
            match rng.gen_range(0..5u32) {
                // Admit (repeats allowed — the CSE-heavy case).
                0 => {
                    let pick = rng.gen_range(0..ds.plans.len());
                    let wire = client.admit(&ds.plans[pick].root).expect("admit");
                    resident.push((wire, pick));
                }
                // Retire a random resident plan.
                1 if !resident.is_empty() => {
                    let victim = rng.gen_range(0..resident.len());
                    let (wire, _) = resident.remove(victim);
                    client.retire(wire).expect("retire");
                }
                // Predict a random resident plan: bits must match.
                2 if !resident.is_empty() => {
                    let (wire, pick) = resident[rng.gen_range(0..resident.len())];
                    let served = client.predict(wire).expect("predict");
                    assert_eq!(
                        served.to_bits(),
                        expected[pick],
                        "seed={seed} clamped={clamped} plan {pick}: served {served}"
                    );
                }
                // A kept admit_predict of a memoized plan: the memo
                // answers and the server skips the run, so the predict
                // by id that follows must compute the plan's rows.
                3 => {
                    let pick = rng.gen_range(0..ds.plans.len());
                    let plan = &ds.plans[pick].root;
                    client.admit_predict(plan, false).expect("memo warm-up");
                    let hits = client.stats().expect("stats").cache_hits;
                    let (kept, served) = client.admit_predict(plan, true).expect("admit_predict");
                    assert_eq!(client.stats().expect("stats").cache_hits, hits + 1, "memo hit");
                    let wire = kept.expect("keep=true replies with an id");
                    let again = client.predict(wire).expect("predict");
                    for v in [served, again] {
                        assert_eq!(
                            v.to_bits(),
                            expected[pick],
                            "seed={seed} clamped={clamped} plan {pick}: memo-kept {v}"
                        );
                    }
                    resident.push((wire, pick));
                }
                // admit_predict: keep=false takes the fast path, keep=true
                // the general decoder; bits must match either way.
                _ => {
                    let pick = rng.gen_range(0..ds.plans.len());
                    let keep = rng.gen_range(0..4u32) == 0;
                    let (kept, served) =
                        client.admit_predict(&ds.plans[pick].root, keep).expect("admit_predict");
                    match kept {
                        Some(wire) if keep => resident.push((wire, pick)),
                        None if !keep => {}
                        other => panic!("keep={keep} replied with id {other:?}"),
                    }
                    assert_eq!(
                        served.to_bits(),
                        expected[pick],
                        "seed={seed} clamped={clamped} keep={keep} plan {pick}: served {served}"
                    );
                }
            }
        }

        // Final checkpoint: every remaining resident plan.
        for &(wire, pick) in &resident {
            let served = client.predict(wire).expect("final predict");
            assert_eq!(served.to_bits(), expected[pick]);
        }
        client.shutdown().expect("shutdown");
    });
}

#[test]
fn tcp_served_bits_match_inprocess_t1() {
    for seed in [1u64, 2, 3, 7] {
        for clamped in [false, true] {
            let cfg = ServeConfig::default();
            let addr = ServeAddr::parse("127.0.0.1:0").unwrap();
            served_bits_match_inprocess(&addr, cfg, clamped, seed, 30);
        }
    }
}

/// Both request paths for the same plans: `keep:false` forces the
/// one-shot fast path on, `keep:true` forces it off (the general
/// decoder and a resident flush). Each reply must carry the bits of
/// scoring that plan alone, and the stats must show which path ran.
#[test]
fn tcp_served_bits_match_with_fast_path_forced_on_and_off() {
    let (ds, clamped_model, unclamped_model) = fixture();
    for model in [clamped_model, unclamped_model] {
        let cfg = ServeConfig::default();
        let mut server =
            Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), cfg).expect("bind");
        server.register(model);
        let addr = server.local_addr().clone();

        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.run().expect("server run"));

            let mut client = Client::connect(&addr).expect("connect");
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let picks: Vec<usize> = (0..8).map(|_| rng.gen_range(0..ds.plans.len())).collect();

            let mut kept = Vec::new();
            for &pick in &picks {
                let plan = &ds.plans[pick].root;
                let local = alone(model, &ds.plans[pick]);

                let (id, fast) = client.admit_predict(plan, false).expect("fast path on");
                assert_eq!(id, None, "keep=false must not keep the plan");
                let (id, slow) = client.admit_predict(plan, true).expect("fast path off");
                kept.push(id.expect("keep=true replies with an id"));
                assert_eq!(fast.to_bits(), local, "plan {pick}: fast path {fast} != local");
                assert_eq!(slow.to_bits(), local, "plan {pick}: general path {slow} != local");
            }

            let stats = client.stats().expect("stats");
            assert_eq!(stats.fast_path_predicted, picks.len() as u64, "keep=false is fast");
            assert_eq!(stats.batches, picks.len() as u64, "keep=true is general");
            assert_eq!(stats.errors, 0);
            for id in kept {
                client.retire(id).expect("retire");
            }
            client.shutdown().expect("shutdown");
        });
    }
}

#[test]
fn tcp_served_bits_match_inprocess_t4_sharded() {
    // 3 shards: the sharded configuration must still match the single
    // sequential builder bit-for-bit.
    for seed in [4u64, 5] {
        for clamped in [false, true] {
            let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
            let addr = ServeAddr::parse("127.0.0.1:0").unwrap();
            served_bits_match_inprocess(&addr, cfg, clamped, seed, 30);
        }
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_served_bits_match_inprocess() {
    let path = std::env::temp_dir().join(format!("qpp_serve_diff_{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(path);
    let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
    served_bits_match_inprocess(&addr, cfg, true, 6, 30);
}

/// Multi-tenant routing: two models co-hosted on one daemon, each
/// client request explicitly targeting one tenant; every prediction
/// must match that tenant's model scoring the plan alone.
#[test]
fn multi_tenant_served_bits_match_each_model() {
    let (ds, clamped_model, unclamped_model) = fixture();
    let mut server = Server::bind(
        &ServeAddr::parse("127.0.0.1:0").unwrap(),
        ServeConfig::default(),
    )
    .expect("bind");
    let fp_a = server.register(clamped_model);
    let fp_b = server.register(unclamped_model);
    assert_ne!(fp_a, fp_b, "distinct configs must fingerprint differently");
    let addr = server.local_addr().clone();

    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));

        let mut client = Client::connect(&addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        for (i, plan) in ds.plans.iter().take(10).enumerate() {
            let (fp, model) =
                if i % 2 == 0 { (fp_a, clamped_model) } else { (fp_b, unclamped_model) };
            let (_, served) =
                client.admit_predict_to(&plan.root, false, Some(fp)).expect("routed predict");
            assert_eq!(
                served.to_bits(),
                alone(model, plan),
                "tenant {fp:016x} plan {i}: served {served}"
            );
        }
        client.shutdown().expect("shutdown");
    });
}

/// Concurrent clients: 4 threads fire one-shot predictions at once, so
/// handlers contend for the server lock and interleave on the shared
/// tenant stream and its memo. Every reply must carry the same bits as
/// serving that plan alone.
#[test]
fn concurrent_clients_are_bit_transparent() {
    let (ds, model, _) = fixture();
    let mut server =
        Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), ServeConfig::default())
            .expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();

    // Reference bits: each plan scored alone.
    let reference: Vec<u64> = ds.plans.iter().take(8).map(|p| alone(model, p)).collect();

    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));

        let workers: Vec<_> = (0..4usize)
            .map(|w| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                    // Each worker sends each of its 2 plans 3 times.
                    let mut got = Vec::new();
                    for round in 0..3 {
                        for k in 0..2 {
                            let idx = w * 2 + k;
                            let (_, served) = client
                                .admit_predict(&fixture().0.plans[idx].root, false)
                                .expect("concurrent predict");
                            got.push((idx, round, served.to_bits()));
                        }
                    }
                    got
                })
            })
            .collect();

        for h in workers {
            for (idx, round, bits) in h.join().expect("worker") {
                assert_eq!(
                    bits, reference[idx],
                    "plan {idx} round {round}: concurrent bits diverged from solo serving"
                );
            }
        }

        let mut ctl = Client::connect(&addr).expect("control");
        let stats = ctl.stats().expect("stats");
        assert_eq!(stats.fast_path_predicted, 24, "every one-shot takes the fast path");
        assert_eq!(stats.resident_plans, 0, "one-shots must not leak residency");
        ctl.shutdown().expect("shutdown");
    });
}
