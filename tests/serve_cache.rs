//! Differential tests for the whole-plan prediction memo
//! (`qppnet::stream::PredictionCache`): the daemon, whose memo is always
//! on, must emit reply lines **byte-identical** to
//! `proto::encode_response` of the in-process, memo-free reference
//! (`QppNet::predict_batch`, a fresh compiled `PlanProgram` per call) —
//! random admit / retire / predict / admit_predict interleavings, on 1
//! and 3 shards, over TCP loopback and unix sockets, single- and
//! multi-tenant, clamped and unclamped.
//!
//! Why byte-equality is the right bar: a memo hit replays an `f64`
//! produced by a bitwise-identical earlier run, and the wire encoder
//! prints shortest-round-trip `f64`s — so any divergence at all means
//! the memo returned a value a fresh run would not have produced
//! (a false positive, a stale entry surviving fingerprint rotation, or
//! id-allocation drift from the memo changing admission bookkeeping).
//!
//! Also here: the eviction-cap bound (a never-repeating plan stream
//! cannot grow the memo past its entry cap) and the zero-allocation
//! regression extended to the hit path (steady-state fast-path load
//! still allocates nothing — hits included).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use qpp::net::serve::proto::{self, Request, Response};
use qpp::net::serve::{Client, ServeAddr, ServeConfig, Server};
use qpp::net::{QppConfig, QppNet, ScratchPlan};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

/// Shared fixture: one dataset plus a clamped and an unclamped fitted
/// model. The extra epoch on the unclamped model makes the two
/// fingerprints differ, which the multi-tenant leg relies on.
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
        let mut unclamped = QppNet::new(
            QppConfig { epochs: 3, monotone_clamp: false, ..QppConfig::tiny() },
            &ds.catalog,
        );
        unclamped.fit(&train);
        (ds, clamped, unclamped)
    })
}

/// Plans the scripts draw from: a small pool, because repeats are what
/// the memo serves.
const POOL: usize = 6;

/// A raw line-level client over TCP or unix sockets: writes request
/// lines verbatim and returns reply lines verbatim, so replies can be
/// compared byte-for-byte with the reference encoding.
struct RawClient {
    w: Box<dyn Write>,
    r: BufReader<Box<dyn Read>>,
}

impl RawClient {
    fn connect(addr: &ServeAddr) -> RawClient {
        match addr {
            ServeAddr::Tcp(a) => {
                let s = TcpStream::connect(a).expect("connect tcp");
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                RawClient { r: BufReader::new(Box::new(s.try_clone().unwrap())), w: Box::new(s) }
            }
            #[cfg(unix)]
            ServeAddr::Unix(p) => {
                let s = UnixStream::connect(p).expect("connect unix");
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                RawClient { r: BufReader::new(Box::new(s.try_clone().unwrap())), w: Box::new(s) }
            }
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.w.write_all(line.as_bytes()).expect("send");
        self.w.write_all(b"\n").expect("send nl");
        let mut reply = String::new();
        self.r.read_line(&mut reply).expect("reply");
        assert!(reply.ends_with('\n'), "unterminated reply to {line}");
        reply
    }
}

/// The memo-free reference. It mirrors the daemon's session bookkeeping
/// (wire ids are allocated in sequence from 1) and predicts through the
/// in-process compiled batch engine, so every request line is paired
/// with the exact reply bytes it must get before any daemon runs.
struct Oracle {
    /// `(fingerprint, [prediction per pool plan])` per tenant model, the
    /// default tenant first.
    models: Vec<(u64, Vec<f64>)>,
    next_id: u64,
    /// Resident wire id → (model, pool plan).
    resident: Vec<(u64, usize, usize)>,
    /// (request line, expected reply line) pairs, in order.
    script: Vec<(String, String)>,
}

impl Oracle {
    fn new(multi_tenant: bool) -> Oracle {
        let (ds, clamped, unclamped) = fixture();
        let models = if multi_tenant { vec![clamped, unclamped] } else { vec![clamped] };
        let models = models
            .into_iter()
            .map(|m| {
                let plans: Vec<&Plan> = ds.plans.iter().take(POOL).collect();
                (m.fingerprint().expect("fitted"), m.predict_batch(&plans))
            })
            .collect();
        Oracle { models, next_id: 1, resident: Vec::new(), script: Vec::new() }
    }

    fn push(&mut self, req: Request, resp: Response) {
        self.script.push((proto::encode_request(&req), proto::encode_response(&resp)));
    }

    fn plan(pick: usize) -> Box<PlanNode> {
        Box::new(fixture().0.plans[pick].root.clone())
    }

    /// The wire `tenant` field naming `model` (`None` = the default).
    fn tenant(&self, model: usize, explicit: bool) -> Option<u64> {
        explicit.then_some(self.models[model].0)
    }

    fn admit(&mut self, model: usize, pick: usize, explicit: bool) {
        let (id, tenant) = (self.next_id, self.tenant(model, explicit));
        self.next_id += 1;
        self.resident.push((id, model, pick));
        self.push(Request::Admit { plan: Self::plan(pick), tenant }, Response::Admitted { id });
    }

    fn retire(&mut self, slot: usize) {
        let (id, _, _) = self.resident.remove(slot);
        self.push(Request::Retire { id }, Response::Retired { id });
    }

    fn predict(&mut self, slot: usize) {
        let (id, model, pick) = self.resident[slot];
        let latency_ms = self.models[model].1[pick];
        self.push(Request::Predict { id }, Response::Predicted { id: Some(id), latency_ms });
    }

    fn admit_predict(&mut self, model: usize, pick: usize, keep: bool, explicit: bool) {
        let tenant = self.tenant(model, explicit);
        let id = keep.then(|| {
            let id = self.next_id;
            self.next_id += 1;
            self.resident.push((id, model, pick));
            id
        });
        let latency_ms = self.models[model].1[pick];
        self.push(
            Request::AdmitPredict { plan: Self::plan(pick), keep, tenant },
            Response::Predicted { id, latency_ms },
        );
    }
}

/// A seeded random interleaving over the plan pool, then a
/// deterministic tail (each of three plans twice) that guarantees live
/// memo hits however the random phase went.
fn random_script(multi_tenant: bool, seed: u64, ops: usize) -> Vec<(String, String)> {
    let mut oracle = Oracle::new(multi_tenant);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCACE);
    for _ in 0..ops {
        let pick = rng.gen_range(0..POOL);
        // Route by explicit fingerprint or by default-tenant fallback.
        let (model, explicit) = match (multi_tenant, rng.gen_range(0..3u32)) {
            (true, 0) => (0, true),
            (true, 1) => (1, true),
            _ => (0, false),
        };
        match rng.gen_range(0..8u32) {
            // Admit into residency (repeats allowed — CSE-heavy).
            0 | 1 => oracle.admit(model, pick, explicit),
            2 if !oracle.resident.is_empty() => {
                let slot = rng.gen_range(0..oracle.resident.len());
                oracle.retire(slot);
            }
            3 if !oracle.resident.is_empty() => {
                let slot = rng.gen_range(0..oracle.resident.len());
                oracle.predict(slot);
            }
            // Kept one-shot: the general path, through the memo.
            7 => oracle.admit_predict(model, pick, true, explicit),
            // One-shot admit_predict — the fast path, the memo's main
            // surface.
            _ => oracle.admit_predict(model, pick, false, explicit),
        }
    }
    for pick in 0..3 {
        for _ in 0..2 {
            oracle.admit_predict(0, pick, false, multi_tenant);
        }
    }
    oracle.script
}

/// Sends `script` through a fresh daemon, asserting every reply is the
/// reference bytes, and returns the daemon's final stats.
fn serve_script(
    addr: &ServeAddr,
    cfg: ServeConfig,
    multi_tenant: bool,
    script: &[(String, String)],
) -> proto::ServeStats {
    let (_, clamped_model, unclamped_model) = fixture();
    let mut server = Server::bind(addr, cfg).expect("bind");
    server.register(clamped_model);
    if multi_tenant {
        server.register(unclamped_model);
    }
    let addr = server.local_addr().clone();

    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));

        let mut raw = RawClient::connect(&addr);
        for (i, (line, want)) in script.iter().enumerate() {
            let got = raw.roundtrip(line);
            assert_eq!(got.trim_end_matches('\n'), want, "reply {i} diverged for request {line}");
        }

        let mut ctl = Client::connect(&addr).expect("control");
        let stats = ctl.stats().expect("stats");
        ctl.shutdown().expect("shutdown");
        stats
    })
}

/// The differential itself: a random interleaving whose replies must
/// all be the memo-free reference bytes, with the memo counters showing
/// the memo actually answered.
fn memo_replies_match_reference(
    mk_addr: &dyn Fn() -> ServeAddr,
    cfg: &ServeConfig,
    multi_tenant: bool,
    seed: u64,
    ops: usize,
) {
    let script = random_script(multi_tenant, seed, ops);
    let stats = serve_script(&mk_addr(), cfg.clone(), multi_tenant, &script);
    assert!(
        stats.cache_hits >= 3,
        "seed={seed}: the deterministic tail guarantees memo hits, saw {}",
        stats.cache_hits
    );
    assert!(stats.cache_misses > 0, "seed={seed}: first appearances must miss");
}

fn tcp() -> ServeAddr {
    ServeAddr::parse("127.0.0.1:0").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings on one shard over TCP, single-tenant.
    #[test]
    fn random_interleavings_are_memo_transparent(seed in any::<u64>()) {
        let cfg = ServeConfig::default();
        memo_replies_match_reference(&tcp, &cfg, false, seed, 28);
    }
}

/// 3 shards: the sharded surface routes probes and inserts per shard;
/// replies must still be the reference bytes.
#[test]
fn t4_sharded_replies_are_memo_transparent() {
    for seed in [11u64, 12] {
        let cfg = ServeConfig { shards: 3, ..ServeConfig::default() };
        memo_replies_match_reference(&tcp, &cfg, false, seed, 30);
    }
}

/// Kept `admit_predict` lines (`keep:true`) take the general decoder and
/// a one-plan resident flush, where a memo hit answers before the
/// wavefront runs — the replies must still be the reference bytes, and
/// the admission bookkeeping (the ids) unchanged.
#[test]
fn kept_admit_predicts_are_memo_transparent() {
    let mut oracle = Oracle::new(false);
    for _round in 0..3 {
        for pick in 0..4 {
            oracle.admit_predict(0, pick, true, false);
        }
    }
    while !oracle.resident.is_empty() {
        oracle.retire(0);
    }
    let stats = serve_script(&tcp(), ServeConfig::default(), false, &oracle.script);
    assert_eq!(stats.fast_path_predicted, 0, "keep:true never takes the fast path");
    assert_eq!(stats.batches, 12, "one general-path run per kept admit_predict");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (8, 4),
        "round 1 misses once per plan, rounds 2 and 3 hit"
    );
    assert_eq!(stats.resident_plans, 0);
}

/// The general path and the fast path probe one memo per shard: a kept
/// `admit_predict` (general decoder) seeds the entry the next one-shot
/// line of the same plan (fast path) hits, and a one-shot miss seeds the
/// entry a later kept line hits. Every reply is the reference bytes.
#[test]
fn general_and_fast_paths_share_the_memo() {
    let mut oracle = Oracle::new(false);
    oracle.admit_predict(0, 0, true, false);
    oracle.admit_predict(0, 0, false, false);
    oracle.admit_predict(0, 1, false, false);
    oracle.admit_predict(0, 1, true, false);
    while !oracle.resident.is_empty() {
        oracle.retire(0);
    }
    let stats = serve_script(&tcp(), ServeConfig::default(), false, &oracle.script);
    assert_eq!((stats.fast_path_predicted, stats.batches), (2, 2), "one line per path per plan");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (2, 2),
        "each plan misses on its first path and hits on the other"
    );
    assert_eq!(stats.resident_plans, 0);
}

#[cfg(unix)]
#[test]
fn unix_socket_replies_are_memo_transparent() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let mk = || {
        let n = N.fetch_add(1, Ordering::Relaxed);
        ServeAddr::Unix(
            std::env::temp_dir().join(format!("qpp_serve_cache_{}_{n}.sock", std::process::id())),
        )
    };
    let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
    memo_replies_match_reference(&mk, &cfg, false, 31, 30);
}

/// Multi-tenant: two co-hosted models, requests routed by fingerprint
/// (and by default-tenant fallback). Each tenant's stream owns its own
/// memo keyed under that model's checkpoint fingerprint, so hits can
/// never leak predictions across tenants — byte-equality against each
/// model's own reference proves it.
#[test]
fn multi_tenant_replies_are_memo_transparent() {
    for seed in [41u64, 42] {
        memo_replies_match_reference(&tcp, &ServeConfig::default(), true, seed, 30);
    }
}

/// Eviction-cap bound at the stream API level: a never-repeating plan
/// stream (every plan's `est.rows` perturbed, which lands in the
/// content key) can never grow the memo past its entry cap; the
/// generational reset fires and counts, and nothing ever hits.
#[test]
fn never_repeating_stream_cannot_grow_memo_past_cap() {
    let (ds, model, _) = fixture();
    let mut builder = model.serve_stream();
    builder.set_prediction_cache_capacity(8);
    let mut scratch = ScratchPlan::new();
    for i in 0..100u32 {
        let mut root = ds.plans[i as usize % ds.plans.len()].root.clone();
        root.est.rows = 1_000.0 + f64::from(i);
        scratch.rebuild_from_tree(&root);
        let run = builder.predict_oneshot(&scratch);
        assert!(run.latency_ms.is_finite() && !run.cache_hit);
        let st = builder.stats();
        assert!(
            st.pred_cache_entries <= 8,
            "memo grew past its cap: {} entries after {} plans",
            st.pred_cache_entries,
            i + 1
        );
    }
    let st = builder.stats();
    assert_eq!(st.pred_cache_hits, 0, "all-distinct stream cannot hit");
    assert_eq!(st.pred_cache_misses, 100);
    assert!(st.pred_cache_evictions > 0, "the generational reset must have fired");
}

/// The zero-allocation regression, extended to the memo hit path: a
/// warmed connection cycling a fixed 8-plan mix on the fast path must
/// stay at zero steady-state allocations — and the
/// stats must show the memo actually served hits, so the alloc-free
/// claim covers the hit path itself, not just warmed misses.
#[test]
fn steady_state_memo_hit_path_is_allocation_free() {
    let (ds, model, _) = fixture();
    for conns in [1usize, 4] {
        let mut server = Server::bind(&tcp(), ServeConfig::default()).expect("bind");
        server.register(model);
        let addr = server.local_addr().clone();
        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.run().expect("server run"));
            std::thread::scope(|inner| {
                for c in 0..conns {
                    let addr = addr.clone();
                    inner.spawn(move || {
                        let mut client = Client::connect(&addr).expect("connect");
                        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                        for i in 0..200usize {
                            let plan = &ds.plans[(c + i) % 8].root;
                            let (id, latency) =
                                client.admit_predict(plan, false).expect("predict");
                            assert!(id.is_none() && latency.is_finite());
                        }
                    });
                }
            });
            let mut ctl = Client::connect(&addr).expect("control");
            let stats = ctl.stats().expect("stats");
            assert_eq!(
                stats.fast_path_predicted,
                200 * conns as u64,
                "conns={conns}: every one-shot must take the fast path"
            );
            assert_eq!(
                stats.steady_allocs, 0,
                "conns={conns}: memo hit path allocated"
            );
            // The tenant stream (and so its memo) is shared across
            // connections and probed under the server lock: the 8-plan
            // mix misses exactly once per distinct plan, everything
            // else is a hit.
            assert_eq!(
                stats.cache_misses, 8,
                "conns={conns}: exactly one miss per distinct plan"
            );
            assert_eq!(
                stats.cache_hits,
                200 * conns as u64 - 8,
                "conns={conns}: every repeat must be a memo hit"
            );
            ctl.shutdown().expect("shutdown");
        });
    }
}
