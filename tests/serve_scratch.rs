//! End-to-end tests for the serve fast path: the scratch request
//! decoder must agree with the oracle decoder (vendored parser +
//! serde-derive semantics) on random mutated wire lines, every reply
//! must be **byte-identical** to the oracle encoder's reply for the
//! in-process prediction, and a warmed connection must serve
//! sustained one-shot predict load with **zero heap allocations**
//! (`ServeStats::steady_allocs`), on 1 and 4 concurrent connections.
//!
//! The decoder's contract is *fallback, not error parity*: `Ready` means
//! the oracle would accept the line as an eligible one-shot
//! `admit_predict` with the identical lowered plan; `Fallback` is always
//! safe because the server re-runs the oracle decoder for the reply.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use qpp::net::serve::proto::{self, ErrorReply, Request, Response};
use qpp::net::serve::scratch::{FastDecode, RequestScratch};
use qpp::net::serve::{validate_plan, Client, ErrorCode, ServeAddr, ServeConfig, Server};
use qpp::net::{QppConfig, QppNet, ScratchPlan};
use qpp::plansim::prelude::*;

/// Shared fixture: a dataset (both workloads, for shape coverage) and a
/// small fitted model.
fn fixture() -> &'static (Dataset, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 28, 31);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut model = QppNet::new(QppConfig { epochs: 2, ..QppConfig::tiny() }, &ds.catalog);
        model.fit(&train);
        (ds, model)
    })
}

/// One agreement check: whatever the scratch decoder claims about
/// `line`, the oracle must back it up. `Fallback` is uninformative by
/// contract; `Ready` must match the oracle's accept decision, tenant,
/// eligibility gates, and lowered plan.
fn check_agreement(scratch: &mut RequestScratch, line: &str) {
    match scratch.decode(line) {
        FastDecode::Fallback => {}
        FastDecode::Ready { tenant } => {
            let req = proto::decode_request(line).unwrap_or_else(|e| {
                panic!("scratch Ready but oracle rejects [{:?}]: {line}", e.msg)
            });
            let Request::AdmitPredict { plan, keep: false, tenant: oracle_tenant } = req else {
                panic!("scratch Ready but oracle decoded a different request: {line}")
            };
            assert_eq!(tenant, oracle_tenant, "tenant mismatch on {line}");
            assert!(validate_plan(&plan).is_ok(), "scratch Ready on invalid arity: {line}");
            let mut reference = ScratchPlan::new();
            reference.rebuild_from_tree(&plan);
            let got = scratch.plan();
            assert_eq!(got.len(), reference.len(), "node count diverged on {line}");
            assert_eq!(got.kinds(), reference.kinds(), "kinds diverged on {line}");
            assert_eq!(got.nodes(), reference.nodes(), "nodes diverged on {line}");
            assert_eq!(
                got.shard_hash(),
                reference.shard_hash(),
                "content hash diverged on {line}"
            );
        }
    }
}

/// Applies one structured mutation to an ASCII wire line.
fn mutate(line: &mut String, pos: usize, byte: u8, kind: u8) {
    const SNIPPETS: &[&str] = &[
        r#"A"#,
        r#"\ud800"#,
        r#""op":"admit_predict","#,
        r#""keep":true,"#,
        r#""children":[],"#,
        "00",
        ".5e3",
        "{{",
        "]]",
        r#"\q"#,
        r#""v":1,"#,
        "null",
    ];
    if line.is_empty() {
        return;
    }
    let pos = pos % line.len();
    match kind {
        // Truncate.
        0 => line.truncate(pos),
        // Replace one byte with a printable hostile byte.
        1 => {
            let hostile = b"\"\\{}[]:,0e-+.untf 19x";
            let b = hostile[byte as usize % hostile.len()] as char;
            line.replace_range(pos..pos + 1, &b.to_string());
        }
        // Insert a hostile snippet.
        2 => line.insert_str(pos, SNIPPETS[byte as usize % SNIPPETS.len()]),
        // Duplicate a short region in place (duplicate-key pressure).
        3 => {
            let end = (pos + 1 + byte as usize % 24).min(line.len());
            let dup = line[pos..end].to_string();
            line.insert_str(end, &dup);
        }
        // Delete one byte.
        4 => {
            line.remove(pos);
        }
        // Leave as-is (exercises the pristine accept path post-shrink).
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random mutations of real wire lines: the scratch decoder and the
    /// oracle must never disagree, and one warm `RequestScratch` reused
    /// across hostile inputs must never carry state over.
    #[test]
    fn scratch_decoder_agrees_with_oracle_under_mutation(
        pick in any::<usize>(),
        keep in any::<bool>(),
        tenant_bits in any::<u64>(),
        has_tenant in any::<bool>(),
        muts in prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..6), 0..4),
    ) {
        let tenant = has_tenant.then_some(tenant_bits);
        let (ds, _) = fixture();
        let plan = Box::new(ds.plans[pick % ds.plans.len()].root.clone());
        let mut line = proto::encode_request(&Request::AdmitPredict { plan, keep, tenant });
        let mut scratch = RequestScratch::new();
        // The pristine line first (warms the scratch), then the mutants
        // through the SAME scratch: correctness must not depend on
        // starting clean.
        check_agreement(&mut scratch, &line);
        for (pos, byte, kind) in muts {
            mutate(&mut line, pos, byte, kind);
            check_agreement(&mut scratch, &line);
        }
    }

    /// Coverage guard against an over-conservative decoder: every
    /// pristine eligible line (one-shot `admit_predict`, any tenant
    /// form) must take the fast path, with the lowered plan matching a
    /// from-tree rebuild.
    #[test]
    fn pristine_oneshot_lines_always_take_the_fast_path(
        pick in any::<usize>(),
        tenant_bits in any::<u64>(),
        has_tenant in any::<bool>(),
    ) {
        let tenant = has_tenant.then_some(tenant_bits);
        let (ds, _) = fixture();
        let plan = Box::new(ds.plans[pick % ds.plans.len()].root.clone());
        let line = proto::encode_request(&Request::AdmitPredict {
            plan, keep: false, tenant,
        });
        let mut scratch = RequestScratch::new();
        let got = scratch.decode(&line);
        prop_assert_eq!(got, FastDecode::Ready { tenant }, "fell back on {}", line);
        check_agreement(&mut scratch, &line);
    }
}

/// A raw line-level client: writes request lines verbatim and returns
/// reply lines verbatim, so replies can be compared byte-for-byte.
struct RawClient {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: &ServeAddr) -> RawClient {
        let ServeAddr::Tcp(a) = addr else { panic!("raw client is TCP-only") };
        let s = TcpStream::connect(a).expect("connect");
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        RawClient { r: BufReader::new(s.try_clone().unwrap()), w: s }
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

/// Spawns a server over the shared model, runs `body` against it, then
/// shuts it down.
fn with_server<T>(cfg: ServeConfig, body: impl FnOnce(&ServeAddr) -> T) -> T {
    let (_, model) = fixture();
    let mut server = Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), cfg).expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();
    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        let out = body(&addr);
        let mut ctl = Client::connect(&addr).expect("control");
        ctl.shutdown().expect("shutdown");
        out
    })
}

/// Every request flavor the fast path gates on — eligible one-shots,
/// ineligible verbs, and malformed hostile lines — must get the oracle
/// encoder's reply byte for byte: the in-process `QppNet::predict_batch`
/// prediction for a served plan, the oracle decoder's error otherwise.
/// Only the eligible one-shots may move `fast_path_predicted`.
#[test]
fn fast_path_replies_are_byte_identical_to_slow_path() {
    let (ds, model) = fixture();
    let fp = model.fingerprint().expect("fitted model has a fingerprint");
    let predicted = |k: usize, id: Option<u64>| Response::Predicted {
        id,
        latency_ms: model.predict(&ds.plans[k]),
    };

    // (request line, expected reply) for every flavor.
    let mut script: Vec<(String, Response)> = Vec::new();
    for (i, plan) in ds.plans.iter().take(6).enumerate() {
        let tenant = if i % 2 == 0 { Some(fp) } else { None };
        let req = Request::AdmitPredict { plan: Box::new(plan.root.clone()), keep: false, tenant };
        script.push((proto::encode_request(&req), predicted(i, None)));
    }
    // Ineligible but valid: keep=true (admits residency; the reply
    // carries the first wire id).
    let req =
        Request::AdmitPredict { plan: Box::new(ds.plans[0].root.clone()), keep: true, tenant: None };
    script.push((proto::encode_request(&req), predicted(0, Some(1))));
    // Unknown tenant: the fast path must fall back to the general
    // path's error reply.
    let req = Request::AdmitPredict {
        plan: Box::new(ds.plans[1].root.clone()),
        keep: false,
        tenant: Some(fp ^ 1),
    };
    let unknown = ErrorReply::new(
        ErrorCode::UnknownTenant,
        format!("no tenant with fingerprint {:016x}", fp ^ 1),
    );
    script.push((proto::encode_request(&req), Response::Error(unknown)));
    // Hostile / malformed lines: the oracle decoder's error (or, for a
    // plan that decodes but fails validation, `validate_plan`'s).
    for bad in [
        r#"{"v":1,"op":"admit_predict"}"#,
        r#"{"v":2,"op":"admit_predict","plan":null}"#,
        r#"{"v":1,"op":"noop"}"#,
        r#"{"v":1,"op":"predict","id":7}"#,
        r#"{"v":1,"op":"admit_predict","plan":{"op":"Materialize","est":{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1},"actual":{"rows":1,"latency_ms":1,"self_latency_ms":1},"children":[]}}"#,
        "not json at all",
        r#"{"v":1,"op":"admit_predict","plan":[1,2],"keep":false}"#,
    ] {
        let err = match proto::decode_request(bad) {
            Err(e) => e,
            Ok(Request::AdmitPredict { plan, .. }) => {
                ErrorReply::new(ErrorCode::InvalidPlan, validate_plan(&plan).unwrap_err())
            }
            Ok(other) => panic!("hostile line decoded to {other:?}: {bad}"),
        };
        script.push((bad.to_string(), Response::Error(err)));
    }

    let fast_count = with_server(ServeConfig::default(), |addr| {
        let mut raw = RawClient::connect(addr);
        for (line, want) in &script {
            let got = raw.roundtrip(line);
            assert_eq!(
                got.trim_end_matches('\n'),
                proto::encode_response(want),
                "reply diverged for request {line}"
            );
        }
        let mut ctl = Client::connect(addr).expect("control");
        ctl.stats().expect("stats").fast_path_predicted
    });
    assert_eq!(fast_count, 6, "every eligible one-shot must take the fast path");
}

/// Sustained one-shot predict load on a warmed connection allocates
/// nothing: after `FAST_WARMUP` requests per connection, the measured
/// per-request allocation delta (read → decode → run → reply write)
/// must stay exactly zero. Checked on one connection and on 4
/// concurrent connections.
#[test]
fn steady_state_fast_path_is_allocation_free() {
    for conns in [1usize, 4] {
        with_server(ServeConfig::default(), |addr| {
            std::thread::scope(|scope| {
                for c in 0..conns {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let (ds, _) = fixture();
                        let mut client = Client::connect(&addr).expect("connect");
                        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                        // A fixed 8-plan mix, cycled well past the
                        // 64-request warmup window.
                        for i in 0..200usize {
                            let plan = &ds.plans[(c + i) % 8].root;
                            let (id, latency) =
                                client.admit_predict(plan, false).expect("predict");
                            assert!(id.is_none() && latency.is_finite());
                        }
                    });
                }
            });
            let mut ctl = Client::connect(addr).expect("control");
            let stats = ctl.stats().expect("stats");
            assert_eq!(
                stats.fast_path_predicted,
                200 * conns as u64,
                "conns={conns}: every one-shot must take the fast path"
            );
            assert_eq!(
                stats.steady_allocs, 0,
                "conns={conns}: steady-state fast path allocated"
            );
            // The per-phase clocks must actually tick.
            assert!(stats.parse_ns > 0, "parse_ns never accumulated");
            assert!(stats.featurize_ns > 0, "featurize_ns never accumulated");
            assert!(stats.run_ns > 0, "run_ns never accumulated");
            assert!(stats.serialize_ns > 0, "serialize_ns never accumulated");
        });
    }
}
