//! Protocol round-trip property tests: `encode → decode` must be the
//! identity for every request/response message — including the
//! vendored-serde u64-precision caveat. The pinned choice (ROADMAP
//! standing constraint): **plan ids are string-coded** (decimal), model
//! fingerprints are hex strings, and *numeric* ids are rejected, so the
//! full `u64` range round-trips exactly even though JSON numbers travel
//! as `f64` (exact only below 2^53).

use std::sync::OnceLock;

use proptest::prelude::*;
use qpp::net::serve::proto::{
    self, decode_request, decode_response, encode_request, encode_response, ErrorCode, ErrorReply,
    Request, Response, ServeStats,
};
use qpp::plansim::prelude::*;

/// A pool of real plan trees (all shapes the generator produces) for
/// plan-carrying messages.
fn plan_pool() -> &'static Vec<PlanNode> {
    static POOL: OnceLock<Vec<PlanNode>> = OnceLock::new();
    POOL.get_or_init(|| {
        let h = Dataset::generate(Workload::TpcH, 1.0, 12, 3);
        let d = Dataset::generate(Workload::TpcDs, 1.0, 12, 4);
        h.plans.iter().chain(d.plans.iter()).map(|p| p.root.clone()).collect()
    })
}

fn roundtrip_request(req: &Request) {
    let line = encode_request(req);
    let back = decode_request(&line)
        .unwrap_or_else(|e| panic!("decode({line}) failed: [{}] {}", e.code.as_str(), e.msg));
    assert_eq!(&back, req, "request round trip changed the message: {line}");
}

fn roundtrip_response(resp: &Response) {
    let line = encode_response(resp);
    let back = decode_response(&line)
        .unwrap_or_else(|e| panic!("decode({line}) failed: [{}] {}", e.code.as_str(), e.msg));
    assert_eq!(&back, resp, "response round trip changed the message: {line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan ids survive the wire across the FULL u64 range — the very
    /// values `f64` transport would corrupt (anything >= 2^53).
    #[test]
    fn ids_roundtrip_across_full_u64_range(id in any::<u64>()) {
        roundtrip_request(&Request::Retire { id });
        roundtrip_request(&Request::Predict { id });
        roundtrip_response(&Response::Admitted { id });
        roundtrip_response(&Response::Retired { id });
    }

    /// Tenant fingerprints (hex-coded) survive the full u64 range too.
    #[test]
    fn fingerprints_roundtrip_across_full_u64_range(fp in any::<u64>(), pick in any::<usize>()) {
        let pool = plan_pool();
        let plan = Box::new(pool[pick % pool.len()].clone());
        roundtrip_request(&Request::Admit { plan: plan.clone(), tenant: Some(fp) });
        roundtrip_request(&Request::AdmitPredict { plan, keep: true, tenant: Some(fp) });
    }

    /// Every plan shape the simulator produces round-trips inside
    /// admit/admit_predict, with and without tenant/keep flags.
    #[test]
    fn plan_carrying_requests_roundtrip(pick in any::<usize>(), keep in any::<bool>()) {
        let pool = plan_pool();
        let plan = Box::new(pool[pick % pool.len()].clone());
        roundtrip_request(&Request::Admit { plan: plan.clone(), tenant: None });
        roundtrip_request(&Request::AdmitPredict { plan, keep, tenant: None });
    }

    /// Predictions round-trip bit-exactly: the vendored formatter prints
    /// shortest-round-trip `f64`, so any finite latency (including
    /// subnormals and negative zero) comes back with identical bits.
    #[test]
    fn predicted_latency_roundtrips_bit_exactly(bits in any::<u64>(), id in any::<u64>(), keep in any::<bool>()) {
        let latency_ms = f64::from_bits(bits);
        prop_assume!(latency_ms.is_finite());
        let resp = Response::Predicted { id: keep.then_some(id), latency_ms };
        let line = encode_response(&resp);
        match decode_response(&line).expect("decode") {
            Response::Predicted { id: id2, latency_ms: l2 } => {
                prop_assert_eq!(id2, keep.then_some(id));
                prop_assert_eq!(l2.to_bits(), latency_ms.to_bits(), "f64 bits changed: {}", line);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Stats counters round-trip exactly while below the 2^53 f64 bound
    /// (they are plain JSON numbers; the decoder enforces the bound).
    #[test]
    fn stats_roundtrip_below_exact_bound(
        a in 0u64..(1 << 53), b in 0u64..(1 << 53), c in 0u64..(1 << 53),
        d in 0u64..(1 << 53), e in 0u64..(1 << 53), f in 0u64..(1 << 53),
    ) {
        let stats = ServeStats {
            connections: a, requests: b, errors: c,
            admitted: d, retired: e, predicted: f,
            batches: a % 1000, tenants: c % 16,
            resident_plans: d % 10_000, logical_nodes: e % 100_000, shared_rows: f % 100_000,
            fast_path_predicted: f % 100_000, parse_ns: a, featurize_ns: b,
            run_ns: c, serialize_ns: d, steady_allocs: e % 1000,
            cache_hits: a % 100_000, cache_misses: b % 100_000,
            cache_evictions: c % 100_000, cache_entries: d % 100_000,
            cache_hit_ns: e,
        };
        roundtrip_response(&Response::Stats(stats));
    }

    /// Error replies round-trip for every code with arbitrary
    /// (JSON-escaping-hostile) messages.
    #[test]
    fn error_replies_roundtrip(which in 0usize..8, msg in any::<u64>()) {
        let code = ErrorCode::ALL[which];
        // Exercise escaping: quotes, backslashes, newlines, unicode.
        let msg = format!("q\"uo\\te\n\tnl-{msg}-✓");
        roundtrip_response(&Response::Error(ErrorReply::new(code, msg)));
    }
}

/// The precision pin itself, stated as plainly as possible: a numeric
/// id — even a small, exactly-representable one — is rejected with a
/// diagnostic citing the 2^53 bound; ids above 2^53 work fine as
/// strings.
#[test]
fn numeric_ids_are_rejected_string_ids_are_exact() {
    // Numeric id: rejected.
    let err = decode_request(r#"{"v":1,"op":"predict","id":7}"#).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.msg.contains("2^53"), "must cite the precision bound: {}", err.msg);

    // String id above 2^53: exact.
    let big = (1u64 << 53) + 1; // not representable as f64
    let line = format!(r#"{{"v":1,"op":"predict","id":"{big}"}}"#);
    match decode_request(&line).expect("string-coded big id decodes") {
        Request::Predict { id } => assert_eq!(id, big),
        other => panic!("wrong variant: {other:?}"),
    }

    // And the absolute extremes.
    for id in [0u64, u64::MAX] {
        let line = encode_request(&Request::Predict { id });
        match decode_request(&line).expect("decode") {
            Request::Predict { id: got } => assert_eq!(got, id),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}

/// Simpler fixed cases pinning the wire shapes (so a refactor that
/// changes field names fails loudly here, not in a live client).
#[test]
fn wire_shapes_are_stable() {
    assert_eq!(encode_request(&Request::Stats), r#"{"op":"stats","v":1}"#);
    assert_eq!(encode_request(&Request::Shutdown), r#"{"op":"shutdown","v":1}"#);
    assert_eq!(
        encode_request(&Request::Predict { id: 17 }),
        r#"{"id":"17","op":"predict","v":1}"#
    );
    assert_eq!(encode_response(&Response::Bye), r#"{"ok":true,"op":"shutdown","v":1}"#);
    // The one-shot predict reply: this exact shape (alphabetical field
    // order, integral f64 printed as integer) is what the serve fast
    // path hand-rolls, so it is pinned here against the oracle encoder.
    assert_eq!(
        encode_response(&Response::Predicted { id: None, latency_ms: 12.5 }),
        r#"{"latency_ms":12.5,"ok":true,"op":"predict","v":1}"#
    );
    assert_eq!(
        encode_response(&Response::Predicted { id: None, latency_ms: 3.0 }),
        r#"{"latency_ms":3,"ok":true,"op":"predict","v":1}"#
    );
    assert_eq!(
        encode_response(&Response::Error(ErrorReply::new(ErrorCode::UnknownOp, "nope"))),
        r#"{"error":{"code":"unknown_op","msg":"nope"},"ok":false,"v":1}"#
    );
    // Fingerprints are zero-padded 16-digit hex.
    let pool = plan_pool();
    let line = encode_request(&Request::AdmitPredict {
        plan: Box::new(pool[0].clone()),
        keep: false,
        tenant: Some(0xbeef),
    });
    assert!(line.contains(r#""tenant":"000000000000beef""#), "hex padding changed: {line}");
    assert_eq!(proto::decode_fingerprint(&proto::encode_fingerprint(0xbeef)).unwrap(), 0xbeef);
}

/// Requests and responses are line-delimited: every encoded message is
/// newline-free by construction (JSON string escaping), so framing can
/// never split a message.
#[test]
fn encoded_messages_never_contain_newlines() {
    let nasty = ErrorReply::new(ErrorCode::Internal, "line1\nline2\rline3");
    let line = encode_response(&Response::Error(nasty.clone()));
    assert!(!line.contains('\n') && !line.contains('\r'), "framing broken: {line}");
    match decode_response(&line).expect("decode") {
        Response::Error(e) => assert_eq!(e, nasty),
        other => panic!("wrong variant: {other:?}"),
    }
}
