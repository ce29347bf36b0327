//! Fault injection for the daemon's wire layer: every malformed input —
//! broken JSON, unknown verbs, oversized lines, numeric ids, bogus
//! tenants, invalid plans, out-of-domain estimates, mid-request
//! disconnects — must produce a structured error reply (or a clean drop)
//! while the daemon keeps serving every other client; a prediction the
//! model cannot answer finitely must be an `internal` error, never a
//! dead connection; and a poisoned resident-executor run must not wedge
//! the accept loop.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Duration;

use qpp::net::serve::proto::{self, Request};
use qpp::net::serve::scratch::{FastDecode, RequestScratch};
use qpp::net::serve::{
    validate_plan, Client, ClientError, ErrorCode, Response, ServeAddr, ServeConfig, Server,
    MAX_LINE_DEFAULT,
};
use qpp::net::{QppConfig, QppNet};
use qpp::plansim::operators::Operator;
use qpp::plansim::plan::PlanNode;
use qpp::plansim::prelude::*;

fn fixture() -> &'static (Dataset, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 16, 21);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut model = QppNet::new(QppConfig { epochs: 2, ..QppConfig::tiny() }, &ds.catalog);
        model.fit(&train);
        (ds, model)
    })
}

/// Starts a daemon on loopback and runs `body` against it, shutting
/// down cleanly afterwards.
fn with_server(cfg: ServeConfig, body: impl FnOnce(&ServeAddr)) {
    let (_, model) = fixture();
    let mut server = Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), cfg).expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();
    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        body(&addr);
        let mut ctl = Client::connect(&addr).expect("control connect");
        ctl.set_timeout(Some(Duration::from_secs(10))).unwrap();
        ctl.shutdown().expect("clean shutdown");
    });
}

fn expect_error(client: &mut Client, raw: &str, want: ErrorCode) {
    client.send_raw(raw).expect("send");
    match client.recv().expect("reply after bad input") {
        qpp::net::serve::Response::Error(e) => {
            assert_eq!(e.code, want, "for input {raw:?}: got [{}] {}", e.code.as_str(), e.msg)
        }
        other => panic!("expected {want:?} error for {raw:?}, got {other:?}"),
    }
}

/// A healthy request must still succeed on the *same* connection after
/// each kind of garbage — the error replies resynchronize the stream.
#[test]
fn malformed_inputs_get_structured_errors_and_connection_survives() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Broken JSON.
        expect_error(&mut client, "{not json", ErrorCode::Parse);
        // Valid JSON, not an object.
        expect_error(&mut client, "[1,2,3]", ErrorCode::BadRequest);
        // Missing version.
        expect_error(&mut client, r#"{"op":"stats"}"#, ErrorCode::BadRequest);
        // Wrong version.
        expect_error(&mut client, r#"{"v":99,"op":"stats"}"#, ErrorCode::BadRequest);
        // Unknown verb.
        expect_error(&mut client, r#"{"v":1,"op":"explode"}"#, ErrorCode::UnknownOp);
        // Numeric id: the u64-precision pin.
        expect_error(&mut client, r#"{"v":1,"op":"predict","id":7}"#, ErrorCode::BadRequest);
        // Unknown (string-coded) id.
        expect_error(&mut client, r#"{"v":1,"op":"predict","id":"999"}"#, ErrorCode::UnknownId);
        expect_error(&mut client, r#"{"v":1,"op":"retire","id":"999"}"#, ErrorCode::UnknownId);
        // Unknown tenant fingerprint.
        let plan_json = serde_json::to_string(&ds.plans[0].root).unwrap();
        expect_error(
            &mut client,
            &format!(r#"{{"v":1,"op":"admit","plan":{plan_json},"tenant":"00000000deadbeef"}}"#),
            ErrorCode::UnknownTenant,
        );
        // Non-hex tenant.
        expect_error(
            &mut client,
            &format!(r#"{{"v":1,"op":"admit","plan":{plan_json},"tenant":"xyz"}}"#),
            ErrorCode::BadRequest,
        );
        // Plan that is not a plan.
        expect_error(&mut client, r#"{"v":1,"op":"admit","plan":{"bogus":1}}"#, ErrorCode::InvalidPlan);
        // Nesting bomb: rejected by the depth guard, not a stack overflow.
        let bomb = format!(r#"{{"v":1,"op":"admit","plan":{}1{}}}"#, "[".repeat(600), "]".repeat(600));
        expect_error(&mut client, &bomb, ErrorCode::Parse);

        // The connection is still healthy: a real request round-trips.
        let (_, latency) = client.admit_predict(&ds.plans[0].root, false).expect("still serving");
        assert!(latency.is_finite());
    });
}

/// A structurally valid plan tree with a wrong child count must be
/// rejected as `invalid_plan` by pre-admission validation — the
/// `ProgramBuilder::admit` panic path must never fire.
#[test]
fn arity_violation_is_rejected_before_touching_the_stream() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Materialize has arity 1; give it zero children.
        let malformed = PlanNode::new(Operator::Materialize, vec![]);
        match client.admit(&malformed) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::InvalidPlan);
                assert!(e.msg.contains("Materialize"), "diagnostic names the family: {}", e.msg);
            }
            other => panic!("expected invalid_plan, got {other:?}"),
        }
        // Same through the admit_predict path.
        match client.admit_predict(&malformed, false) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidPlan),
            other => panic!("expected invalid_plan via admit_predict, got {other:?}"),
        }

        // Stream state is untouched: healthy traffic still works and
        // nothing is resident.
        let (_, latency) = client.admit_predict(&ds.plans[1].root, false).expect("healthy");
        assert!(latency.is_finite());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.resident_plans, 0);
    });
}

/// Oversized lines: one `line_too_long` reply, then normal service on
/// the same connection (the framing layer discards to the newline).
#[test]
fn oversized_line_resyncs_the_connection() {
    let (ds, _) = fixture();
    let cfg = ServeConfig { max_line: 4096, ..ServeConfig::default() };
    with_server(cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        let huge = format!(r#"{{"v":1,"op":"stats","pad":"{}"}}"#, "x".repeat(16_384));
        expect_error(&mut client, &huge, ErrorCode::LineTooLong);
        // Next request on the same connection parses fine.
        let (_, latency) = client.admit_predict(&ds.plans[2].root, false).expect("resynced");
        assert!(latency.is_finite());
    });
}

/// A line just under the default cap whose bulk is one string field is
/// answered within the client timeout. The JSON parser copies a run of
/// raw string characters in one step; a parser that re-validated the
/// rest of the line for every character spent CPU quadratic in the
/// string's length (tens of seconds for this line) on the handler thread.
/// Another connection keeps getting bit-identical predictions meanwhile.
#[test]
fn string_line_at_the_cap_is_answered_within_the_client_timeout() {
    let (ds, _) = fixture();
    let mut big_reply = None;
    with_server(ServeConfig::default(), |addr| {
        let mut other = Client::connect(addr).expect("connect");
        other.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = other.admit_predict(&ds.plans[0].root, false).expect("before").1;

        let (head, tail) = (r#"{"v":1,"op":"stats","pad":""#, r#""}"#);
        let pad = "a".repeat(MAX_LINE_DEFAULT - 64 - head.len() - tail.len());
        let line = format!("{head}{pad}{tail}");
        let mut big = Client::connect(addr).expect("connect");
        big.set_timeout(Some(Duration::from_secs(10))).unwrap();
        big.send_raw(&line).expect("send");

        let after = other.admit_predict(&ds.plans[0].root, false).expect("during").1;
        assert_eq!(before.to_bits(), after.to_bits(), "service disturbed by the long line");
        // Asserted after shutdown, so a timeout fails the test instead of
        // leaving the scope waiting on a daemon nobody stops.
        big_reply = Some(big.recv());
    });
    match big_reply.expect("the client ran") {
        Ok(Response::Stats(_)) => {}
        other => panic!("expected a stats reply within 10 s, got {other:?}"),
    }
}

/// A client vanishing mid-request (partial line, no newline, socket
/// closed) must be a clean drop — and concurrent clients keep serving.
#[test]
fn mid_request_disconnect_does_not_disturb_other_clients() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut healthy = Client::connect(addr).expect("healthy connect");
        healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = healthy.admit_predict(&ds.plans[0].root, false).expect("before").1;

        // Write half a request and slam the connection shut.
        for _ in 0..3 {
            let mut rude = std::net::TcpStream::connect(match addr {
                ServeAddr::Tcp(a) => a,
                #[cfg(unix)]
                _ => unreachable!("loopback test"),
            })
            .expect("rude connect");
            rude.write_all(br#"{"v":1,"op":"admit","plan":{"op":"#).expect("partial write");
            drop(rude); // no newline ever arrives
        }
        // Also: a full line then an abrupt close before reading the reply.
        let mut half = Client::connect(addr).expect("half connect");
        half.send_raw(r#"{"v":1,"op":"stats"}"#).expect("send");
        drop(half);

        // The healthy client still gets bit-identical service.
        let after = healthy.admit_predict(&ds.plans[0].root, false).expect("after").1;
        assert_eq!(before.to_bits(), after.to_bits(), "service disturbed by rude clients");
    });
}

/// PR 3/6 contract regression: a panicked (poisoned) run on the shared
/// resident executor must leave the daemon fully serviceable — the
/// accept loop takes new connections and predictions are unchanged.
#[test]
fn poisoned_executor_run_does_not_wedge_the_daemon() {
    let (ds, _) = fixture();
    with_server(ServeConfig { threads: 4, ..ServeConfig::default() }, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = client.admit_predict(&ds.plans[3].root, false).expect("before").1;

        // Poison a run on the same process-wide pool the daemon uses.
        let poisoned = std::panic::catch_unwind(|| {
            qpp::nn::Executor::global().run(4, &|worker, _| {
                if worker == 2 {
                    panic!("injected poison");
                }
            });
        });
        assert!(poisoned.is_err(), "the injected panic must reach the caller");

        // Fresh connection (exercises the accept loop) + same bits.
        let mut fresh = Client::connect(addr).expect("post-poison connect");
        fresh.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let after = fresh.admit_predict(&ds.plans[3].root, false).expect("after").1;
        assert_eq!(before.to_bits(), after.to_bits(), "daemon degraded after poisoned run");
    });
}

/// Empty lines are ignored; whitespace-only lines too. A request with
/// trailing whitespace still parses.
#[test]
fn blank_lines_are_tolerated() {
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        client.send_raw("").expect("blank");
        client.send_raw("   ").expect("spaces");
        client.send_raw(&proto::encode_request(&qpp::net::serve::Request::Stats)).expect("stats");
        match client.recv().expect("reply") {
            qpp::net::serve::Response::Stats(_) => {}
            other => panic!("expected stats, got {other:?}"),
        }
    });
}

/// Out-of-domain estimates are rejected at the wire: `1e999` parses as
/// +inf, `-1e999` as -inf, and `-5` is finite but not a row count. Each
/// gets `invalid_plan` on every plan-carrying verb — the one-shot
/// included, so the scratch decoder must fall back to the one error
/// path — and nothing becomes resident.
#[test]
fn out_of_domain_estimates_are_invalid_plan() {
    let (ds, _) = fixture();
    // A sentinel only the root's `est.rows` carries, spliced textually:
    // the encoder cannot write a non-finite number.
    let mut plan = ds.plans[0].root.clone();
    plan.est.rows = 12345.5;
    let plan = Box::new(plan);
    let lines = [
        proto::encode_request(&Request::Admit { plan: plan.clone(), tenant: None }),
        proto::encode_request(&Request::AdmitPredict { plan: plan.clone(), keep: false, tenant: None }),
        proto::encode_request(&Request::AdmitPredict { plan, keep: true, tenant: None }),
    ];
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        for bad in ["1e999", "-1e999", "-5"] {
            for line in &lines {
                assert_eq!(line.matches("12345.5").count(), 1);
                let line = line.replace("12345.5", bad);
                if line.contains("admit_predict") && !line.contains("\"keep\":true") {
                    assert_eq!(RequestScratch::new().decode(&line), FastDecode::Fallback);
                }
                expect_error(&mut client, &line, ErrorCode::InvalidPlan);
            }
        }
        let (_, latency) = client.admit_predict(&ds.plans[0].root, false).expect("still serving");
        assert!(latency.is_finite());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.resident_plans, 0, "a rejected plan must not become resident");
        assert_eq!(stats.errors, 9);
    });
}

/// Every plan the workload generators produce — both benchmarks, small
/// and large scale factors, concurrent runs, learned cardinalities —
/// is in the domain the wire accepts, and its one-shot line takes the
/// fast path. Validation must never turn real traffic into errors.
#[test]
fn generated_workload_plans_pass_validation() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let mut scratch = RequestScratch::new();
    for workload in [Workload::TpcH, Workload::TpcDs] {
        for mut ds in [
            Dataset::generate(workload, 1.0, 120, 3),
            Dataset::generate(workload, 100.0, 120, 4),
            Dataset::generate_concurrent(workload, 10.0, 60, 5, 8),
        ] {
            for plan in &mut ds.plans {
                for learned in [false, true] {
                    if learned {
                        qpp::plansim::cardest::inject_learned_cardinalities(
                            &mut plan.root,
                            0.5,
                            &mut rng,
                        );
                    }
                    let root = Box::new(plan.root.clone());
                    assert_eq!(validate_plan(&root), Ok(()), "{}", plan.signature());
                    let line = proto::encode_request(&Request::AdmitPredict {
                        plan: root,
                        keep: false,
                        tenant: None,
                    });
                    assert!(
                        matches!(scratch.decode(&line), FastDecode::Ready { .. }),
                        "generated plan fell off the fast path: {}",
                        plan.signature()
                    );
                }
            }
        }
    }
}

/// A plan whose estimates are finite but so large that the model's
/// prediction overflows: the prediction cannot cross the wire, so every
/// verb that would carry it answers `internal` — counted in `errors` —
/// and the connection, the other clients and `Server::run` survive. A
/// one-shot leaves nothing resident; a resident plan stays resident.
#[test]
fn non_finite_prediction_is_an_internal_error() {
    let (ds, model) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut errors = 0;
        for huge in [1e15, 1e30, 1e300] {
            let mut plan = ds.plans[0].clone();
            plan.root.visit_postorder_mut(&mut |n| {
                n.est.rows = huge;
                n.est.total_cost = huge;
                n.est.buffers = huge;
                n.est.ios = huge;
            });
            assert_eq!(validate_plan(&plan.root), Ok(()), "finite estimates are in domain");
            assert!(
                !model.predict(&plan).is_finite(),
                "the fixture must overflow at est={huge:e}"
            );
            for keep in [false, true] {
                match client.admit_predict(&plan.root, keep) {
                    Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal),
                    other => panic!("keep={keep} est={huge:e}: expected internal, got {other:?}"),
                }
                errors += 1;
            }
            let id = client.admit(&plan.root).expect("admission does not predict");
            match client.predict(id) {
                Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Internal),
                other => panic!("predict est={huge:e}: expected internal, got {other:?}"),
            }
            errors += 1;
            client.retire(id).expect("the plan stayed resident");
        }
        // The same connection still serves.
        let (_, latency) = client.admit_predict(&ds.plans[1].root, false).expect("still serving");
        assert!(latency.is_finite());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.errors, errors);
        assert_eq!(stats.resident_plans, 0, "a non-finite one-shot must not stay resident");
    });
}
