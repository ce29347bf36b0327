//! JSON-lines serving front end: a long-running prediction daemon over
//! TCP or unix sockets.
//!
//! This module turns the resident serving machinery — [`Tenants`] of
//! per-model [`ShardedStream`]s on the process-wide executor — into an
//! actual network service:
//!
//! * **Protocol** ([`proto`]): one JSON object per line, versioned
//!   (`"v":1`), with `admit` / `retire` / `predict` / `admit_predict` /
//!   `stats` / `shutdown` verbs. Every reply carries `"ok"`; failures are
//!   structured [`proto::ErrorReply`] objects, never bare disconnects.
//! * **u64 precision pin**: the vendored serde stub transports numbers as
//!   `f64` (exact only below 2^53), so plan ids cross the wire as
//!   **decimal strings** and model fingerprints as **16-digit hex
//!   strings**. Numeric ids are *rejected* with a `bad_request` citing
//!   the precision bound — `tests/serve_protocol.rs` pins this choice.
//! * **Framing** ([`LineBuf`]): length-safe line reads with a hard
//!   per-line cap (oversized lines are discarded to the next newline and
//!   reported as one `line_too_long` error, the connection survives) and
//!   a string-aware nesting-depth pre-scan ([`nesting_depth`]) so deeply
//!   nested payloads cannot stack-overflow the recursive vendored parser.
//! * **Server** ([`Server`]): one blocking handler thread per connection
//!   inside a [`std::thread::scope`], one request path per verb. All
//!   stream mutation happens under one state lock with
//!   [`std::panic::catch_unwind`] backstops, so a poisoned run is
//!   reported as an `internal` error to the offending client while the
//!   daemon keeps serving (the executor contract already guarantees the
//!   worker pool itself survives panics). A non-finite prediction is an
//!   `internal` error too, never a number.
//! * **Fast path** ([`scratch`], DESIGN.md §13): one-shot
//!   `admit_predict` lines parse directly into per-connection scratch
//!   CSR arrays, run `ShardedStream::predict_oneshot` without touching a
//!   builder, and reply from a reused buffer in one write — zero heap
//!   allocations per request at steady state (after a per-connection
//!   warmup window; measured by the `steady_allocs` counter and a
//!   regression test). Anything the scratch decoder cannot prove
//!   eligible falls back to the general decoder, so error replies come
//!   from exactly one code path and stay byte-identical.
//! * **Why served bits equal in-process bits**: the wavefront kernels
//!   are row-invariant and [`ShardedStream`] routing is content-hashed
//!   (thread- and shard-count invariant), so any admit/retire/predict
//!   interleaving served here produces *bitwise* the same `f64` as a
//!   single in-process [`ProgramBuilder`](crate::stream::ProgramBuilder)
//!   replaying the same sequence; the vendored JSON formatter prints
//!   `f64` via Rust's shortest-round-trip `Display`, which parses back
//!   to the identical bits. `tests/serve_differential.rs` asserts this
//!   end to end through the socket.
//!
//! [`Tenants`]: crate::model::Tenants
//! [`ShardedStream`]: crate::stream::ShardedStream

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::model::{QppNet, Tenants};
use crate::stream::{MicroBatcher, PlanId};
use qpp_plansim::plan::PlanNode;

pub use proto::{ErrorCode, ErrorReply, Request, Response, ServeStats};

/// Wire protocol message types and their line-level JSON codecs.
pub mod proto {
    use qpp_plansim::plan::PlanNode;
    use serde::{Map, Value};

    /// Protocol version spoken by this build. Every line carries `"v"`.
    pub const VERSION: u64 = 1;

    /// Largest integer the vendored serde stub (numbers as `f64`) can
    /// transport exactly. Ids at or above this bound MUST be string-coded.
    pub const MAX_EXACT_INT: u64 = 1 << 53;

    /// Machine-readable failure category carried in every error reply.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// The line was not valid JSON (or exceeded the nesting cap).
        Parse,
        /// Structurally valid JSON that violates the protocol schema.
        BadRequest,
        /// The `"op"` field named no known verb.
        UnknownOp,
        /// The plan id is not resident in any session.
        UnknownId,
        /// The tenant fingerprint matched no registered model.
        UnknownTenant,
        /// The plan tree failed admission validation (operator arity).
        InvalidPlan,
        /// The line exceeded the framing cap and was discarded.
        LineTooLong,
        /// The server hit an internal failure serving this request.
        Internal,
    }

    impl ErrorCode {
        /// The wire spelling of this code.
        pub fn as_str(self) -> &'static str {
            match self {
                ErrorCode::Parse => "parse",
                ErrorCode::BadRequest => "bad_request",
                ErrorCode::UnknownOp => "unknown_op",
                ErrorCode::UnknownId => "unknown_id",
                ErrorCode::UnknownTenant => "unknown_tenant",
                ErrorCode::InvalidPlan => "invalid_plan",
                ErrorCode::LineTooLong => "line_too_long",
                ErrorCode::Internal => "internal",
            }
        }

        /// Parses a wire spelling back into a code.
        pub fn parse(s: &str) -> Option<ErrorCode> {
            Some(match s {
                "parse" => ErrorCode::Parse,
                "bad_request" => ErrorCode::BadRequest,
                "unknown_op" => ErrorCode::UnknownOp,
                "unknown_id" => ErrorCode::UnknownId,
                "unknown_tenant" => ErrorCode::UnknownTenant,
                "invalid_plan" => ErrorCode::InvalidPlan,
                "line_too_long" => ErrorCode::LineTooLong,
                "internal" => ErrorCode::Internal,
                _ => return None,
            })
        }

        /// Every code, for exhaustive round-trip testing.
        pub const ALL: [ErrorCode; 8] = [
            ErrorCode::Parse,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownId,
            ErrorCode::UnknownTenant,
            ErrorCode::InvalidPlan,
            ErrorCode::LineTooLong,
            ErrorCode::Internal,
        ];
    }

    /// A structured failure reply: category plus human-readable detail.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErrorReply {
        /// Failure category.
        pub code: ErrorCode,
        /// Human-readable detail (not part of the stable protocol).
        pub msg: String,
    }

    impl ErrorReply {
        /// Builds an error reply.
        pub fn new(code: ErrorCode, msg: impl Into<String>) -> ErrorReply {
            ErrorReply { code, msg: msg.into() }
        }
    }

    /// One client request line.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Admit a plan into a resident stream; it stays resident until
        /// retired. `tenant` selects a registered model by fingerprint
        /// (default tenant when `None`).
        Admit {
            /// The plan tree to admit.
            plan: Box<PlanNode>,
            /// Target model fingerprint; `None` = default tenant.
            tenant: Option<u64>,
        },
        /// Retire a previously admitted plan by wire id.
        Retire {
            /// Wire id returned by a prior `admit`.
            id: u64,
        },
        /// Predict the root latency of a resident plan.
        Predict {
            /// Wire id returned by a prior `admit`.
            id: u64,
        },
        /// One-shot admit + predict; with `keep` false the plan is
        /// retired again before the reply.
        AdmitPredict {
            /// The plan tree to predict.
            plan: Box<PlanNode>,
            /// Keep the plan resident (reply carries its wire id).
            keep: bool,
            /// Target model fingerprint; `None` = default tenant.
            tenant: Option<u64>,
        },
        /// Fetch server-wide counters and resident-stream aggregates.
        Stats,
        /// Stop the daemon (drains handler threads, then unblocks `run`).
        Shutdown,
    }

    /// One server reply line.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Plan admitted; `id` names it in later `predict`/`retire`.
        Admitted {
            /// Wire id of the now-resident plan.
            id: u64,
        },
        /// Plan retired.
        Retired {
            /// Wire id that was retired.
            id: u64,
        },
        /// Root-latency prediction, in the model's target units (ms).
        Predicted {
            /// Wire id if the plan was kept resident.
            id: Option<u64>,
            /// Predicted root latency (bit-exact `f64` round trip).
            latency_ms: f64,
        },
        /// Server counters snapshot.
        Stats(ServeStats),
        /// Acknowledges `shutdown`.
        Bye,
        /// Structured failure.
        Error(ErrorReply),
    }

    /// Server-wide counters reported by the `stats` verb.
    ///
    /// Counts are JSON numbers: exact below [`MAX_EXACT_INT`], which a
    /// daemon cannot plausibly exceed (2^53 requests at 1M req/s is
    /// ~285 years).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeStats {
        /// Connections accepted since start.
        pub connections: u64,
        /// Request lines decoded (well-formed or not).
        pub requests: u64,
        /// Error replies sent.
        pub errors: u64,
        /// Plans admitted (including kept `admit_predict`).
        pub admitted: u64,
        /// Plans retired (explicit retires + one-shot auto-retires).
        pub retired: u64,
        /// Predictions served.
        pub predicted: u64,
        /// `admit_predict` requests run on the general path (one
        /// resident flush each; fast-path replies are not counted).
        pub batches: u64,
        /// Registered tenant models.
        pub tenants: u64,
        /// Plans currently resident across all tenants.
        pub resident_plans: u64,
        /// Logical operator nodes resident across all tenants.
        pub logical_nodes: u64,
        /// Physical feature rows after CSE, across all tenants.
        pub shared_rows: u64,
        /// One-shot `admit_predict` replies served by the zero-allocation
        /// fast path (scratch decode → one-shot run → hand-rolled reply).
        pub fast_path_predicted: u64,
        /// Cumulative wall time decoding fast-path request lines (ns).
        pub parse_ns: u64,
        /// Cumulative wall time featurizing fast-path plans (ns).
        pub featurize_ns: u64,
        /// Cumulative wall time in fast-path forward runs (ns).
        pub run_ns: u64,
        /// Cumulative wall time serializing fast-path replies (ns).
        pub serialize_ns: u64,
        /// Heap allocations observed across whole fast-path request
        /// lifecycles (read → decode → run → reply write) after each
        /// connection's warmup window. Stays 0 at steady state on a
        /// warmed plan mix; novel feature rows still cost their
        /// one-time cache inserts.
        pub steady_allocs: u64,
        /// Predict requests answered from the whole-plan prediction memo
        /// ([`qppnet::stream::PredictionCache`](crate::stream::PredictionCache)),
        /// across all tenants and serve surfaces.
        pub cache_hits: u64,
        /// Predict requests that missed the memo (and then seeded it).
        pub cache_misses: u64,
        /// Memo entries dropped by generational resets at the entry cap.
        pub cache_evictions: u64,
        /// Whole-plan predictions currently memoized across all tenants.
        pub cache_entries: u64,
        /// Cumulative wall time of memo hits (key assembly + probe), ns.
        pub cache_hit_ns: u64,
    }

    // --- field-level codecs -----------------------------------------------

    /// Encodes a plan id for the wire: decimal string (precision pin).
    pub fn encode_id(id: u64) -> Value {
        Value::String(id.to_string())
    }

    /// Decodes a wire plan id. Strings only — a JSON number is rejected
    /// because the vendored serde stub stores numbers as `f64` and ids
    /// at or above 2^53 would silently round.
    pub fn decode_id(v: &Value) -> Result<u64, ErrorReply> {
        match v {
            Value::String(s) => s.parse::<u64>().map_err(|_| {
                ErrorReply::new(ErrorCode::BadRequest, format!("id `{s}` is not a decimal u64"))
            }),
            Value::Number(_) => Err(ErrorReply::new(
                ErrorCode::BadRequest,
                "numeric ids are rejected: JSON numbers are f64 (exact < 2^53); \
                 send the id as a decimal string",
            )),
            other => Err(ErrorReply::new(
                ErrorCode::BadRequest,
                format!("id must be a decimal string, got {other:?}"),
            )),
        }
    }

    /// Encodes a model fingerprint for the wire: 16-digit hex string.
    pub fn encode_fingerprint(fp: u64) -> Value {
        Value::String(format!("{fp:016x}"))
    }

    /// Decodes a wire fingerprint (hex string, numeric forms rejected).
    pub fn decode_fingerprint(v: &Value) -> Result<u64, ErrorReply> {
        match v {
            Value::String(s) => u64::from_str_radix(s, 16).map_err(|_| {
                ErrorReply::new(
                    ErrorCode::BadRequest,
                    format!("tenant `{s}` is not a hex u64 fingerprint"),
                )
            }),
            _ => Err(ErrorReply::new(
                ErrorCode::BadRequest,
                "tenant must be a hex string fingerprint (numbers are f64 on this wire)",
            )),
        }
    }

    fn obj(pairs: Vec<(&str, Value)>) -> Value {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k.to_string(), v);
        }
        Value::Object(m)
    }

    fn missing(key: &str) -> ErrorReply {
        ErrorReply::new(ErrorCode::BadRequest, format!("missing `{key}`"))
    }

    fn get<'v>(m: &'v Map, key: &str) -> Result<&'v Value, ErrorReply> {
        m.get(key).ok_or_else(|| missing(key))
    }

    /// Moves `key`'s value out of a request map (same error as [`get`]).
    fn take(m: &mut Map, key: &str) -> Result<Value, ErrorReply> {
        m.remove(key).ok_or_else(|| missing(key))
    }

    fn check_version(m: &Map) -> Result<(), ErrorReply> {
        match get(m, "v")? {
            Value::Number(n) if *n == VERSION as f64 => Ok(()),
            other => Err(ErrorReply::new(
                ErrorCode::BadRequest,
                format!("unsupported protocol version {other:?} (speak v{VERSION})"),
            )),
        }
    }

    /// Deserializes a plan moved out of its request map, so the plan's
    /// `Value` tree is never deep-cloned.
    fn decode_plan(v: Value) -> Result<Box<PlanNode>, ErrorReply> {
        serde_json::from_value::<PlanNode>(v)
            .map(Box::new)
            .map_err(|e| ErrorReply::new(ErrorCode::InvalidPlan, format!("bad plan: {e}")))
    }

    // --- request codec ----------------------------------------------------

    /// Encodes a request as one JSON line (no trailing newline).
    pub fn encode_request(req: &Request) -> String {
        let v = Value::Number(VERSION as f64);
        let val = match req {
            Request::Admit { plan, tenant } => {
                let mut pairs = vec![
                    ("v", v),
                    ("op", Value::String("admit".into())),
                    ("plan", serde_json::to_value(plan.as_ref()).expect("plan serializes")),
                ];
                if let Some(fp) = tenant {
                    pairs.push(("tenant", encode_fingerprint(*fp)));
                }
                obj(pairs)
            }
            Request::Retire { id } => obj(vec![
                ("v", v),
                ("op", Value::String("retire".into())),
                ("id", encode_id(*id)),
            ]),
            Request::Predict { id } => obj(vec![
                ("v", v),
                ("op", Value::String("predict".into())),
                ("id", encode_id(*id)),
            ]),
            Request::AdmitPredict { plan, keep, tenant } => {
                let mut pairs = vec![
                    ("v", v),
                    ("op", Value::String("admit_predict".into())),
                    ("plan", serde_json::to_value(plan.as_ref()).expect("plan serializes")),
                    ("keep", Value::Bool(*keep)),
                ];
                if let Some(fp) = tenant {
                    pairs.push(("tenant", encode_fingerprint(*fp)));
                }
                obj(pairs)
            }
            Request::Stats => obj(vec![("v", v), ("op", Value::String("stats".into()))]),
            Request::Shutdown => obj(vec![("v", v), ("op", Value::String("shutdown".into()))]),
        };
        serde_json::to_string(&val).expect("request serializes")
    }

    /// Decodes one request line. The caller has already applied framing
    /// limits; this applies the nesting guard, parses, and validates the
    /// schema.
    pub fn decode_request(line: &str) -> Result<Request, ErrorReply> {
        let mut val = parse_guarded(line)?;
        let m = val
            .as_object_mut()
            .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "request must be an object"))?;
        check_version(m)?;
        // `op` and `plan` are moved out of the map (no later check reads
        // them), so the plan tree is handed to the deserializer uncloned.
        let op = take(m, "op")?;
        let op = op
            .as_str()
            .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "`op` must be a string"))?;
        let tenant = match m.get("tenant") {
            Some(t) => Some(decode_fingerprint(t)?),
            None => None,
        };
        match op {
            "admit" => Ok(Request::Admit { plan: decode_plan(take(m, "plan")?)?, tenant }),
            "retire" => Ok(Request::Retire { id: decode_id(get(m, "id")?)? }),
            "predict" => Ok(Request::Predict { id: decode_id(get(m, "id")?)? }),
            "admit_predict" => {
                let keep = match m.get("keep") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(other) => {
                        return Err(ErrorReply::new(
                            ErrorCode::BadRequest,
                            format!("`keep` must be a bool, got {other:?}"),
                        ))
                    }
                };
                Ok(Request::AdmitPredict { plan: decode_plan(take(m, "plan")?)?, keep, tenant })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ErrorReply::new(
                ErrorCode::UnknownOp,
                format!("unknown op `{other}`"),
            )),
        }
    }

    // --- response codec ---------------------------------------------------

    fn stats_value(s: &ServeStats) -> Value {
        obj(vec![
            ("connections", Value::Number(s.connections as f64)),
            ("requests", Value::Number(s.requests as f64)),
            ("errors", Value::Number(s.errors as f64)),
            ("admitted", Value::Number(s.admitted as f64)),
            ("retired", Value::Number(s.retired as f64)),
            ("predicted", Value::Number(s.predicted as f64)),
            ("batches", Value::Number(s.batches as f64)),
            ("tenants", Value::Number(s.tenants as f64)),
            ("resident_plans", Value::Number(s.resident_plans as f64)),
            ("logical_nodes", Value::Number(s.logical_nodes as f64)),
            ("shared_rows", Value::Number(s.shared_rows as f64)),
            ("fast_path_predicted", Value::Number(s.fast_path_predicted as f64)),
            ("parse_ns", Value::Number(s.parse_ns as f64)),
            ("featurize_ns", Value::Number(s.featurize_ns as f64)),
            ("run_ns", Value::Number(s.run_ns as f64)),
            ("serialize_ns", Value::Number(s.serialize_ns as f64)),
            ("steady_allocs", Value::Number(s.steady_allocs as f64)),
            ("cache_hits", Value::Number(s.cache_hits as f64)),
            ("cache_misses", Value::Number(s.cache_misses as f64)),
            ("cache_evictions", Value::Number(s.cache_evictions as f64)),
            ("cache_entries", Value::Number(s.cache_entries as f64)),
            ("cache_hit_ns", Value::Number(s.cache_hit_ns as f64)),
        ])
    }

    fn stats_field(m: &Map, key: &str) -> Result<u64, ErrorReply> {
        let n = get(m, key)?.as_f64().ok_or_else(|| {
            ErrorReply::new(ErrorCode::BadRequest, format!("stats `{key}` must be a number"))
        })?;
        if !(0.0..MAX_EXACT_INT as f64).contains(&n) || n.fract() != 0.0 {
            return Err(ErrorReply::new(
                ErrorCode::BadRequest,
                format!("stats `{key}` out of exact-integer range: {n}"),
            ));
        }
        Ok(n as u64)
    }

    fn decode_stats(v: &Value) -> Result<ServeStats, ErrorReply> {
        let m = v
            .as_object()
            .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "stats must be an object"))?;
        Ok(ServeStats {
            connections: stats_field(m, "connections")?,
            requests: stats_field(m, "requests")?,
            errors: stats_field(m, "errors")?,
            admitted: stats_field(m, "admitted")?,
            retired: stats_field(m, "retired")?,
            predicted: stats_field(m, "predicted")?,
            batches: stats_field(m, "batches")?,
            tenants: stats_field(m, "tenants")?,
            resident_plans: stats_field(m, "resident_plans")?,
            logical_nodes: stats_field(m, "logical_nodes")?,
            shared_rows: stats_field(m, "shared_rows")?,
            fast_path_predicted: stats_field(m, "fast_path_predicted")?,
            parse_ns: stats_field(m, "parse_ns")?,
            featurize_ns: stats_field(m, "featurize_ns")?,
            run_ns: stats_field(m, "run_ns")?,
            serialize_ns: stats_field(m, "serialize_ns")?,
            steady_allocs: stats_field(m, "steady_allocs")?,
            cache_hits: stats_field(m, "cache_hits")?,
            cache_misses: stats_field(m, "cache_misses")?,
            cache_evictions: stats_field(m, "cache_evictions")?,
            cache_entries: stats_field(m, "cache_entries")?,
            cache_hit_ns: stats_field(m, "cache_hit_ns")?,
        })
    }

    /// Encodes a response as one JSON line (no trailing newline).
    pub fn encode_response(resp: &Response) -> String {
        let v = Value::Number(VERSION as f64);
        let val = match resp {
            Response::Admitted { id } => obj(vec![
                ("v", v),
                ("ok", Value::Bool(true)),
                ("op", Value::String("admit".into())),
                ("id", encode_id(*id)),
            ]),
            Response::Retired { id } => obj(vec![
                ("v", v),
                ("ok", Value::Bool(true)),
                ("op", Value::String("retire".into())),
                ("id", encode_id(*id)),
            ]),
            Response::Predicted { id, latency_ms } => {
                let mut pairs = vec![
                    ("v", v),
                    ("ok", Value::Bool(true)),
                    ("op", Value::String("predict".into())),
                    ("latency_ms", Value::Number(*latency_ms)),
                ];
                if let Some(id) = id {
                    pairs.push(("id", encode_id(*id)));
                }
                obj(pairs)
            }
            Response::Stats(s) => obj(vec![
                ("v", v),
                ("ok", Value::Bool(true)),
                ("op", Value::String("stats".into())),
                ("stats", stats_value(s)),
            ]),
            Response::Bye => obj(vec![
                ("v", v),
                ("ok", Value::Bool(true)),
                ("op", Value::String("shutdown".into())),
            ]),
            Response::Error(e) => obj(vec![
                ("v", v),
                ("ok", Value::Bool(false)),
                (
                    "error",
                    obj(vec![
                        ("code", Value::String(e.code.as_str().into())),
                        ("msg", Value::String(e.msg.clone())),
                    ]),
                ),
            ]),
        };
        serde_json::to_string(&val).expect("response serializes")
    }

    /// Decodes one response line.
    pub fn decode_response(line: &str) -> Result<Response, ErrorReply> {
        let val = parse_guarded(line)?;
        let m = val
            .as_object()
            .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "response must be an object"))?;
        check_version(m)?;
        let ok = match get(m, "ok")? {
            Value::Bool(b) => *b,
            other => {
                return Err(ErrorReply::new(
                    ErrorCode::BadRequest,
                    format!("`ok` must be a bool, got {other:?}"),
                ))
            }
        };
        if !ok {
            let em = get(m, "error")?.as_object().ok_or_else(|| {
                ErrorReply::new(ErrorCode::BadRequest, "`error` must be an object")
            })?;
            let code_str = get(em, "code")?
                .as_str()
                .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "`code` must be a string"))?;
            let code = ErrorCode::parse(code_str).ok_or_else(|| {
                ErrorReply::new(ErrorCode::BadRequest, format!("unknown error code `{code_str}`"))
            })?;
            let msg = get(em, "msg")?
                .as_str()
                .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "`msg` must be a string"))?
                .to_string();
            return Ok(Response::Error(ErrorReply { code, msg }));
        }
        let op = get(m, "op")?
            .as_str()
            .ok_or_else(|| ErrorReply::new(ErrorCode::BadRequest, "`op` must be a string"))?;
        match op {
            "admit" => Ok(Response::Admitted { id: decode_id(get(m, "id")?)? }),
            "retire" => Ok(Response::Retired { id: decode_id(get(m, "id")?)? }),
            "predict" => {
                let latency_ms = get(m, "latency_ms")?.as_f64().ok_or_else(|| {
                    ErrorReply::new(ErrorCode::BadRequest, "`latency_ms` must be a number")
                })?;
                let id = match m.get("id") {
                    Some(v) => Some(decode_id(v)?),
                    None => None,
                };
                Ok(Response::Predicted { id, latency_ms })
            }
            "stats" => Ok(Response::Stats(decode_stats(get(m, "stats")?)?)),
            "shutdown" => Ok(Response::Bye),
            other => Err(ErrorReply::new(
                ErrorCode::UnknownOp,
                format!("unknown response op `{other}`"),
            )),
        }
    }

    /// Parses a line after applying the nesting-depth guard, mapping both
    /// failures to [`ErrorCode::Parse`].
    pub fn parse_guarded(line: &str) -> Result<Value, ErrorReply> {
        let depth = super::nesting_depth(line);
        if depth > super::MAX_NESTING_DEPTH {
            return Err(ErrorReply::new(
                ErrorCode::Parse,
                format!("nesting depth {depth} exceeds cap {}", super::MAX_NESTING_DEPTH),
            ));
        }
        serde_json::parse(line)
            .map_err(|e| ErrorReply::new(ErrorCode::Parse, format!("invalid JSON: {e}")))
    }
}

pub mod scratch;

// --- framing ---------------------------------------------------------------

/// Default per-line byte cap (1 MiB — a paper-tier plan line is ~10 KiB).
pub const MAX_LINE_DEFAULT: usize = 1 << 20;

/// Maximum JSON bracket-nesting depth accepted before parsing. The
/// vendored parser is recursive; unbounded depth is a stack-overflow DoS.
pub const MAX_NESTING_DEPTH: usize = 512;

/// Maximum `[`/`{` nesting depth of `s`, ignoring brackets inside JSON
/// strings (escape-aware). Cheap single pass run before the recursive
/// parser ever sees the line.
pub fn nesting_depth(s: &str) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    let (mut in_str, mut escaped) = (false, false);
    for b in s.bytes() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                depth += 1;
                max = max.max(depth);
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

/// One framing event from [`LineBuf::read_line`].
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (without the trailing newline / carriage return).
    Line(String),
    /// A line exceeded the cap; its bytes were discarded up to the next
    /// newline and the stream is resynchronized.
    TooLong,
    /// Clean end of stream (a partial trailing line is dropped).
    Eof,
}

/// One framing event from [`LineBuf::read_line_ref`]: like [`LineEvent`]
/// but the line borrows the reader's internal buffer, so a warmed
/// steady-state read performs zero heap allocations.
#[derive(Debug)]
pub enum LineRef<'a> {
    /// A complete line (without the trailing newline / carriage return).
    Line(&'a str),
    /// A line exceeded the cap; its bytes were discarded up to the next
    /// newline and the stream is resynchronized.
    TooLong,
    /// Clean end of stream (a partial trailing line is dropped).
    Eof,
}

/// Buffered, length-capped line reader over any [`Read`].
///
/// Unlike [`std::io::BufReader`], an oversized line does not grow the
/// buffer unboundedly: once a line passes the cap its bytes are thrown
/// away until the next newline, one [`LineEvent::TooLong`] is reported,
/// and subsequent lines parse normally — a misbehaving client costs one
/// error reply, not the connection (and certainly not the server's
/// memory). Read timeouts ([`io::ErrorKind::WouldBlock`] /
/// [`io::ErrorKind::TimedOut`]) bubble up so callers can poll a shutdown
/// flag between reads.
#[derive(Debug)]
pub struct LineBuf {
    buf: Vec<u8>,
    /// Bytes `buf[..filled]` hold unconsumed input.
    filled: usize,
    /// Bytes `buf[..consumed]` were handed out by the previous
    /// [`LineBuf::read_line_ref`] call and are shifted out lazily on the
    /// next call (the borrowed line must stay put while the caller
    /// holds it).
    consumed: usize,
    max_line: usize,
    discarding: bool,
    /// Reusable scratch for the rare invalid-UTF-8 line.
    lossy: String,
}

impl LineBuf {
    /// A reader enforcing `max_line` bytes per line.
    pub fn new(max_line: usize) -> LineBuf {
        LineBuf {
            buf: vec![0u8; 8192],
            filled: 0,
            consumed: 0,
            max_line,
            discarding: false,
            lossy: String::new(),
        }
    }

    /// Pops one framing event, reading from `r` as needed. Allocating
    /// wrapper over [`LineBuf::read_line_ref`], kept for callers that
    /// need an owned line.
    pub fn read_line(&mut self, r: &mut impl Read) -> io::Result<LineEvent> {
        Ok(match self.read_line_ref(r)? {
            LineRef::Line(s) => LineEvent::Line(s.to_owned()),
            LineRef::TooLong => LineEvent::TooLong,
            LineRef::Eof => LineEvent::Eof,
        })
    }

    /// Pops one framing event, reading from `r` as needed; the returned
    /// line borrows this reader's buffer (valid until the next call).
    /// Once the buffer has grown to the connection's working line size,
    /// steady-state calls on valid-UTF-8 input allocate nothing.
    pub fn read_line_ref(&mut self, r: &mut impl Read) -> io::Result<LineRef<'_>> {
        // Shift out the line handed to the caller by the previous call.
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
        loop {
            if let Some(pos) = self.buf[..self.filled].iter().position(|&b| b == b'\n') {
                self.consumed = pos + 1;
                if self.discarding {
                    self.discarding = false;
                    return Ok(LineRef::TooLong);
                }
                if pos > self.max_line {
                    // The whole line fit in the read buffer but still
                    // exceeds the cap.
                    return Ok(LineRef::TooLong);
                }
                let mut line = &self.buf[..pos];
                if line.last() == Some(&b'\r') {
                    line = &line[..pos - 1];
                }
                return Ok(LineRef::Line(match std::str::from_utf8(line) {
                    Ok(s) => s,
                    Err(_) => {
                        // Same replacement-character semantics as
                        // `String::from_utf8_lossy`, into a reusable
                        // buffer.
                        self.lossy.clear();
                        for chunk in line.utf8_chunks() {
                            self.lossy.push_str(chunk.valid());
                            if !chunk.invalid().is_empty() {
                                self.lossy.push(char::REPLACEMENT_CHARACTER);
                            }
                        }
                        &self.lossy
                    }
                }));
            }
            if self.discarding {
                // Throw away everything buffered; keep scanning for '\n'.
                self.filled = 0;
            } else if self.filled > self.max_line {
                self.discarding = true;
                self.filled = 0;
            }
            if self.filled == self.buf.len() {
                let new_len = (self.buf.len() * 2).min(self.max_line + 2);
                if new_len <= self.buf.len() {
                    // Cap reached exactly; next pass flips to discarding.
                    self.discarding = true;
                    self.filled = 0;
                } else {
                    self.buf.resize(new_len, 0);
                }
            }
            let n = r.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Ok(LineRef::Eof);
            }
            self.filled += n;
        }
    }
}

// --- transport -------------------------------------------------------------

/// A serve endpoint: TCP (`host:port`) or a unix-domain socket path
/// (`unix:/path/to.sock`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// TCP endpoint, e.g. `127.0.0.1:7878` (port `0` binds ephemeral).
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl ServeAddr {
    /// Parses `host:port` or `unix:<path>`.
    pub fn parse(s: &str) -> Result<ServeAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err("empty unix socket path".into());
                }
                return Ok(ServeAddr::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            return Err(format!("unix sockets unsupported on this platform: `{path}`"));
        }
        if s.contains(':') {
            Ok(ServeAddr::Tcp(s.to_string()))
        } else {
            Err(format!("invalid address `{s}`: want host:port or unix:<path>"))
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(a) => write!(f, "{a}"),
            #[cfg(unix)]
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One accepted connection, TCP or unix.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn connect(addr: &ServeAddr) -> io::Result<Conn> {
        match addr {
            ServeAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                // One JSON line per request/reply: Nagle + delayed ACK
                // would add ~40ms per round trip.
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            ServeAddr::Unix(p) => UnixStream::connect(p).map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn bind(addr: &ServeAddr) -> io::Result<(Listener, ServeAddr)> {
        match addr {
            ServeAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let actual = ServeAddr::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), actual))
            }
            #[cfg(unix)]
            ServeAddr::Unix(p) => {
                // A stale socket file from a crashed daemon would make
                // bind fail; remove it if nothing is listening there.
                if p.exists() && UnixStream::connect(p).is_err() {
                    let _ = std::fs::remove_file(p);
                }
                let l = UnixListener::bind(p)?;
                Ok((Listener::Unix(l), ServeAddr::Unix(p.clone())))
            }
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

// --- server ----------------------------------------------------------------

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards per tenant stream (see
    /// [`QppNet::serve_sharded`](crate::QppNet::serve_sharded)).
    pub shards: usize,
    /// Worker threads per wavefront run (bits are thread-invariant).
    pub threads: usize,
    /// Per-line byte cap for the framing layer.
    pub max_line: usize,
    /// Handler read-timeout granularity: how often a blocked handler
    /// wakes to poll the shutdown flag (milliseconds).
    pub poll_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { shards: 1, threads: 1, max_line: MAX_LINE_DEFAULT, poll_ms: 25 }
    }
}

/// Whether one node's inputs are in the domain the model can answer:
/// every estimate finite and non-negative, `learned_rows` and
/// `concurrency` finite. The scratch decoder applies the same check so
/// an out-of-domain one-shot falls back to [`validate_plan`]'s reply.
fn node_in_domain(n: &PlanNode) -> bool {
    let e = &n.est;
    [e.width, e.rows, e.buffers, e.ios, e.total_cost, e.selectivity]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
        && n.learned_rows.is_none_or(f64::is_finite)
        && n.concurrency.is_finite()
}

/// Validates a wire plan before it touches stream state: operator
/// arities (the check
/// [`ProgramBuilder::admit`](crate::stream::ProgramBuilder::admit)
/// enforces by panic) and the input domain: every `est.*` finite and
/// non-negative, `learned_rows` and `concurrency` finite. A bad plan
/// costs one `invalid_plan` reply.
pub fn validate_plan(plan: &PlanNode) -> Result<(), String> {
    let mut bad = None;
    plan.visit_postorder(&mut |n| {
        if bad.is_some() {
            return;
        }
        let kind = n.op.kind();
        if n.children.len() != kind.arity() {
            bad = Some(format!(
                "{kind:?} node with {} children (expected {})",
                n.children.len(),
                kind.arity()
            ));
        } else if !node_in_domain(n) {
            bad = Some(format!(
                "{kind:?} node has an estimate out of domain (want finite, \
                 non-negative est.*; finite learned_rows and concurrency): {:?}, \
                 learned_rows {:?}, concurrency {}",
                n.est, n.learned_rows, n.concurrency
            ));
        }
    });
    match bad {
        Some(why) => Err(why),
        None => Ok(()),
    }
}

/// Serializes `resp` through the oracle encoder into `out` and sends it
/// as one `write` call — replies are single lines, one syscall each.
fn write_reply(conn: &mut Conn, resp: &Response, out: &mut Vec<u8>) -> io::Result<()> {
    out.clear();
    out.extend_from_slice(proto::encode_response(resp).as_bytes());
    out.push(b'\n');
    conn.write_all(out)
}

/// The `internal` reply for a prediction the wire cannot carry: the
/// model produced a non-finite latency (the oracle encoder refuses
/// those, and a plausible-looking number would be worse).
fn non_finite(latency_ms: f64) -> Response {
    Response::Error(ErrorReply::new(
        ErrorCode::Internal,
        format!("model produced a non-finite prediction ({latency_ms})"),
    ))
}

struct State<'m> {
    tenants: Tenants<'m>,
    default_fp: Option<u64>,
    /// Wire id → (tenant fingerprint, resident plan id).
    sessions: HashMap<u64, (u64, PlanId)>,
    next_id: u64,
    stats: proto::ServeStats,
}

/// Fast-path requests a connection serves before its allocation deltas
/// start feeding [`ServeStats::steady_allocs`] — the first few requests
/// legitimately grow per-connection scratch to the working-set size.
const FAST_WARMUP: u64 = 64;

/// Fast-path counters, kept as atomics outside the state lock so the
/// post-unlock phases (reply serialization, allocation accounting) never
/// retake it. Folded into [`ServeStats`] by the `stats` verb.
#[derive(Debug, Default)]
struct FastStats {
    predicted: AtomicU64,
    parse_ns: AtomicU64,
    featurize_ns: AtomicU64,
    run_ns: AtomicU64,
    serialize_ns: AtomicU64,
    steady_allocs: AtomicU64,
}

/// The serving daemon: owns registered models' resident streams and
/// serves the [`proto`] protocol to any number of blocking clients.
///
/// ```no_run
/// # use qppnet::{QppConfig, QppNet};
/// # use qppnet::serve::{Server, ServeAddr, ServeConfig};
/// # use qpp_plansim::prelude::*;
/// # let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 7);
/// # let mut model = QppNet::new(QppConfig::tiny(), &ds.catalog);
/// # model.fit(&ds.select(&(0..50).collect::<Vec<_>>()));
/// let mut server = Server::bind(
///     &ServeAddr::parse("127.0.0.1:0").unwrap(),
///     ServeConfig::default(),
/// ).unwrap();
/// server.register(&model);
/// println!("listening on {}", server.local_addr());
/// server.run().unwrap(); // blocks until a client sends `shutdown`
/// ```
pub struct Server<'m> {
    listener: Listener,
    addr: ServeAddr,
    cfg: ServeConfig,
    state: Mutex<State<'m>>,
    fast: FastStats,
    shutdown: AtomicBool,
}

impl<'m> Server<'m> {
    /// Binds the listening socket. Register at least one model before
    /// calling [`Server::run`].
    pub fn bind(addr: &ServeAddr, cfg: ServeConfig) -> io::Result<Server<'m>> {
        let (listener, addr) = Listener::bind(addr)?;
        Ok(Server {
            listener,
            addr,
            cfg,
            state: Mutex::new(State {
                tenants: Tenants::new(),
                default_fp: None,
                sessions: HashMap::new(),
                next_id: 1,
                stats: proto::ServeStats::default(),
            }),
            fast: FastStats::default(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (with the actual port when `0` was requested).
    pub fn local_addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Registers a fitted model as a tenant, returning its fingerprint.
    /// The first registered model becomes the default tenant for
    /// requests that name none.
    ///
    /// # Panics
    /// Panics if the model is not fitted.
    pub fn register(&mut self, model: &'m QppNet) -> u64 {
        let st = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        let fp = st.tenants.register(model, self.cfg.shards);
        st.default_fp.get_or_insert(fp);
        fp
    }

    /// Asks a running server to stop: handlers drain, `run` returns.
    /// Safe to call from any thread (e.g. a ctrl-c hook).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = Conn::connect(&self.addr);
    }

    /// Serves until a client sends `shutdown` (or
    /// [`Server::request_shutdown`] is called). One blocking handler
    /// thread per connection; all of them join before this returns.
    pub fn run(&self) -> io::Result<()> {
        std::thread::scope(|scope| {
            loop {
                let conn = match self.listener.accept() {
                    Ok(c) => c,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                self.lock().stats.connections += 1;
                scope.spawn(move || self.handle(conn));
            }
            Ok(())
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<'m>> {
        // A handler that panicked mid-request poisons the state lock;
        // the shared invariants it protects are per-request (the panic
        // backstops below roll their request back), so serving continues.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn handle(&self, mut conn: Conn) {
        let _ = conn.set_read_timeout(Some(Duration::from_millis(self.cfg.poll_ms)));
        let mut lb = LineBuf::new(self.cfg.max_line);
        let mut scratch = scratch::RequestScratch::new();
        let mut out: Vec<u8> = Vec::with_capacity(256);
        let mut fast_served = 0u64;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let allocs0 = crate::alloc::thread_alloc_count();
            let event = match lb.read_line_ref(&mut conn) {
                Ok(ev) => ev,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                // Mid-request disconnect or hard I/O error: clean drop.
                Err(_) => return,
            };
            let reply = match event {
                LineRef::Eof => return,
                LineRef::TooLong => {
                    self.count_request(true);
                    Response::Error(ErrorReply::new(
                        ErrorCode::LineTooLong,
                        format!("line exceeded {} bytes and was discarded", self.cfg.max_line),
                    ))
                }
                LineRef::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if self.try_fast_path(line, &mut scratch, &mut out) {
                        if conn.write_all(&out).is_err() {
                            return;
                        }
                        fast_served += 1;
                        if fast_served > FAST_WARMUP {
                            let delta = crate::alloc::thread_alloc_count() - allocs0;
                            self.fast.steady_allocs.fetch_add(delta, Ordering::Relaxed);
                        }
                        continue;
                    }
                    match proto::decode_request(line) {
                        Err(rep) => {
                            self.count_request(true);
                            Response::Error(rep)
                        }
                        Ok(req) => {
                            let is_shutdown = matches!(req, Request::Shutdown);
                            let resp = self.dispatch(req);
                            self.count_request(matches!(resp, Response::Error(_)));
                            if write_reply(&mut conn, &resp, &mut out).is_err() {
                                return;
                            }
                            if is_shutdown {
                                self.request_shutdown();
                            }
                            continue;
                        }
                    }
                }
            };
            if write_reply(&mut conn, &reply, &mut out).is_err() {
                return;
            }
        }
    }

    /// Attempts the zero-allocation fast path on one request line. On
    /// success the complete reply line (newline included) is in `out`.
    /// Any ineligibility — decode fallback, unknown tenant, no
    /// registered models, non-finite prediction, panicked run — returns
    /// `false` *without* replying, and the caller re-runs the line
    /// through the oracle decoder so every error reply stays
    /// byte-identical to the slow path.
    fn try_fast_path(
        &self,
        line: &str,
        scratch: &mut scratch::RequestScratch,
        out: &mut Vec<u8>,
    ) -> bool {
        let t0 = Instant::now();
        let tenant = match scratch.decode(line) {
            scratch::FastDecode::Ready { tenant } => tenant,
            scratch::FastDecode::Fallback => return false,
        };
        let parse_ns = t0.elapsed().as_nanos() as u64;
        let run = {
            let mut st = self.lock();
            let st = &mut *st;
            let Some(fp) = tenant.or(st.default_fp) else {
                return false;
            };
            let Some(stream) = st.tenants.stream(fp) else {
                return false;
            };
            let plan = scratch.plan();
            let Ok(run) = catch_unwind(AssertUnwindSafe(|| stream.predict_oneshot(plan))) else {
                return false;
            };
            if !run.latency_ms.is_finite() {
                // The general path owns the `internal` error reply.
                return false;
            }
            st.stats.requests += 1;
            st.stats.admitted += 1;
            st.stats.predicted += 1;
            st.stats.retired += 1;
            run
        };
        // Hand-rolled reply, field order matching the oracle encoder's
        // BTreeMap (alphabetical) serialization of
        // `Response::Predicted { id: None, .. }`. Numbers go through
        // `serde::JsonNumber`, the number format the oracle encoder
        // writes; it streams into `out` without allocating.
        let t1 = Instant::now();
        out.clear();
        out.extend_from_slice(b"{\"latency_ms\":");
        let _ = write!(out, "{}", serde::JsonNumber(run.latency_ms));
        out.extend_from_slice(b",\"ok\":true,\"op\":\"predict\",\"v\":");
        let _ = write!(out, "{}", serde::JsonNumber(proto::VERSION as f64));
        out.extend_from_slice(b"}\n");
        let serialize_ns = t1.elapsed().as_nanos() as u64;
        self.fast.predicted.fetch_add(1, Ordering::Relaxed);
        self.fast.parse_ns.fetch_add(parse_ns, Ordering::Relaxed);
        self.fast.featurize_ns.fetch_add(run.featurize_ns, Ordering::Relaxed);
        self.fast.run_ns.fetch_add(run.run_ns, Ordering::Relaxed);
        self.fast.serialize_ns.fetch_add(serialize_ns, Ordering::Relaxed);
        true
    }

    fn count_request(&self, is_error: bool) {
        let mut st = self.lock();
        st.stats.requests += 1;
        if is_error {
            st.stats.errors += 1;
        }
    }

    fn dispatch(&self, req: Request) -> Response {
        match req {
            Request::Admit { plan, tenant } => self.do_admit(plan, tenant),
            Request::Retire { id } => self.do_retire(id),
            Request::Predict { id } => self.do_predict(id),
            Request::AdmitPredict { plan, keep, tenant } => {
                self.do_admit_predict(plan, keep, tenant)
            }
            Request::Stats => self.do_stats(),
            Request::Shutdown => Response::Bye,
        }
    }

    fn resolve_fp(st: &State<'m>, tenant: Option<u64>) -> Result<u64, ErrorReply> {
        match tenant.or(st.default_fp) {
            Some(fp) if st.tenants.fingerprints().contains(&fp) => Ok(fp),
            Some(fp) => Err(ErrorReply::new(
                ErrorCode::UnknownTenant,
                format!("no tenant with fingerprint {fp:016x}"),
            )),
            None => Err(ErrorReply::new(ErrorCode::UnknownTenant, "no models registered")),
        }
    }

    fn do_admit(&self, plan: Box<PlanNode>, tenant: Option<u64>) -> Response {
        if let Err(why) = validate_plan(&plan) {
            return Response::Error(ErrorReply::new(ErrorCode::InvalidPlan, why));
        }
        let mut st = self.lock();
        let fp = match Self::resolve_fp(&st, tenant) {
            Ok(fp) => fp,
            Err(e) => return Response::Error(e),
        };
        let st = &mut *st;
        let stream = st.tenants.stream(fp).expect("resolved fingerprint is registered");
        let admitted = catch_unwind(AssertUnwindSafe(|| stream.admit(&plan)));
        match admitted {
            Ok(pid) => {
                let wire = st.next_id;
                st.next_id += 1;
                st.sessions.insert(wire, (fp, pid));
                st.stats.admitted += 1;
                Response::Admitted { id: wire }
            }
            Err(_) => Response::Error(ErrorReply::new(
                ErrorCode::Internal,
                "admission panicked; plan rejected, stream state unchanged",
            )),
        }
    }

    fn do_retire(&self, id: u64) -> Response {
        let mut st = self.lock();
        let Some((fp, pid)) = st.sessions.remove(&id) else {
            return Response::Error(ErrorReply::new(
                ErrorCode::UnknownId,
                format!("no resident plan with id {id}"),
            ));
        };
        let st = &mut *st;
        let stream = st.tenants.stream(fp).expect("session tenant is registered");
        match catch_unwind(AssertUnwindSafe(|| stream.retire(pid))) {
            Ok(()) => {
                st.stats.retired += 1;
                Response::Retired { id }
            }
            Err(_) => Response::Error(ErrorReply::new(
                ErrorCode::Internal,
                "retire panicked; session dropped",
            )),
        }
    }

    fn do_predict(&self, id: u64) -> Response {
        let mut st = self.lock();
        let Some(&(fp, pid)) = st.sessions.get(&id) else {
            return Response::Error(ErrorReply::new(
                ErrorCode::UnknownId,
                format!("no resident plan with id {id}"),
            ));
        };
        let threads = self.cfg.threads;
        let st = &mut *st;
        let stream = st.tenants.stream(fp).expect("session tenant is registered");
        match catch_unwind(AssertUnwindSafe(|| stream.predict_root_threaded(pid, threads))) {
            Ok(latency_ms) if !latency_ms.is_finite() => non_finite(latency_ms),
            Ok(latency_ms) => {
                st.stats.predicted += 1;
                Response::Predicted { id: Some(id), latency_ms }
            }
            Err(_) => Response::Error(ErrorReply::new(
                ErrorCode::Internal,
                "prediction run panicked; plan remains resident",
            )),
        }
    }

    fn do_admit_predict(&self, plan: Box<PlanNode>, keep: bool, tenant: Option<u64>) -> Response {
        if let Err(why) = validate_plan(&plan) {
            return Response::Error(ErrorReply::new(ErrorCode::InvalidPlan, why));
        }
        let mut st = self.lock();
        let fp = match Self::resolve_fp(&st, tenant) {
            Ok(fp) => fp,
            Err(e) => return Response::Error(e),
        };
        let threads = self.cfg.threads;
        let st = &mut *st;
        let stream = st.tenants.stream(fp).expect("resolved fingerprint is registered");
        st.stats.batches += 1;
        // A one-plan resident flush: admission, the memo probe/insert and
        // the run are the micro-batch surface's, so the bits are too.
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut batcher = MicroBatcher::new();
            batcher.submit(&plan);
            batcher.flush_resident(stream, threads)
        }));
        let Ok((pids, preds)) = run else {
            return Response::Error(ErrorReply::new(
                ErrorCode::Internal,
                "prediction run panicked; plan rejected",
            ));
        };
        let (pid, latency_ms) = (pids[0], preds[0]);
        st.stats.admitted += 1;
        if keep && latency_ms.is_finite() {
            let wire = st.next_id;
            st.next_id += 1;
            st.sessions.insert(wire, (fp, pid));
            st.stats.predicted += 1;
            return Response::Predicted { id: Some(wire), latency_ms };
        }
        stream.retire(pid);
        st.stats.retired += 1;
        if !latency_ms.is_finite() {
            return non_finite(latency_ms);
        }
        st.stats.predicted += 1;
        Response::Predicted { id: None, latency_ms }
    }

    fn do_stats(&self) -> Response {
        let st = self.lock();
        let mut stats = st.stats;
        stats.tenants = st.tenants.len() as u64;
        for (_, stream) in st.tenants.iter() {
            let ps = stream.stats();
            stats.resident_plans += ps.resident_plans as u64;
            stats.logical_nodes += ps.logical_nodes as u64;
            stats.shared_rows += ps.shared_rows as u64;
            stats.cache_hits += ps.pred_cache_hits;
            stats.cache_misses += ps.pred_cache_misses;
            stats.cache_evictions += ps.pred_cache_evictions;
            stats.cache_entries += ps.pred_cache_entries as u64;
            stats.cache_hit_ns += ps.pred_cache_hit_ns;
        }
        stats.fast_path_predicted = self.fast.predicted.load(Ordering::Relaxed);
        stats.parse_ns = self.fast.parse_ns.load(Ordering::Relaxed);
        stats.featurize_ns = self.fast.featurize_ns.load(Ordering::Relaxed);
        stats.run_ns = self.fast.run_ns.load(Ordering::Relaxed);
        stats.serialize_ns = self.fast.serialize_ns.load(Ordering::Relaxed);
        stats.steady_allocs = self.fast.steady_allocs.load(Ordering::Relaxed);
        Response::Stats(stats)
    }
}

impl Drop for Server<'_> {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let ServeAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

// --- client ----------------------------------------------------------------

/// Failures surfaced by [`Client`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level I/O failure (includes read timeouts).
    Io(io::Error),
    /// The server's reply did not parse or did not match the request.
    Protocol(String),
    /// The server replied with a structured error.
    Server(ErrorReply),
    /// The server closed the connection.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code.as_str(), e.msg),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking protocol client: one request in flight per connection.
pub struct Client {
    conn: Conn,
    lb: LineBuf,
}

impl Client {
    /// Connects to a running [`Server`].
    pub fn connect(addr: &ServeAddr) -> io::Result<Client> {
        Ok(Client { conn: Conn::connect(addr)?, lb: LineBuf::new(MAX_LINE_DEFAULT) })
    }

    /// Sets the read timeout for replies (`None` blocks forever).
    pub fn set_timeout(&mut self, d: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(d)
    }

    /// Writes one raw line (plus newline). For fault-injection tests.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.conn, "{line}")?;
        self.conn.flush()
    }

    /// Reads the next reply line.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.lb.read_line(&mut self.conn)? {
                LineEvent::Eof => return Err(ClientError::Disconnected),
                LineEvent::TooLong => {
                    return Err(ClientError::Protocol("oversized reply line".into()))
                }
                LineEvent::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    return proto::decode_response(&line)
                        .map_err(|e| ClientError::Protocol(format!("{}: {}", e.code.as_str(), e.msg)));
                }
            }
        }
    }

    /// Sends a request and reads its reply (structured errors come back
    /// as [`ClientError::Server`]).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send_raw(&proto::encode_request(req))?;
        match self.recv()? {
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => Ok(resp),
        }
    }

    /// Admits a plan into the default tenant; returns its wire id.
    pub fn admit(&mut self, plan: &PlanNode) -> Result<u64, ClientError> {
        self.admit_to(plan, None)
    }

    /// Admits a plan into a specific tenant; returns its wire id.
    pub fn admit_to(&mut self, plan: &PlanNode, tenant: Option<u64>) -> Result<u64, ClientError> {
        match self.call(&Request::Admit { plan: Box::new(plan.clone()), tenant })? {
            Response::Admitted { id } => Ok(id),
            other => Err(ClientError::Protocol(format!("expected admit reply, got {other:?}"))),
        }
    }

    /// Retires a resident plan.
    pub fn retire(&mut self, id: u64) -> Result<(), ClientError> {
        match self.call(&Request::Retire { id })? {
            Response::Retired { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("expected retire reply, got {other:?}"))),
        }
    }

    /// Predicts the root latency of a resident plan.
    pub fn predict(&mut self, id: u64) -> Result<f64, ClientError> {
        match self.call(&Request::Predict { id })? {
            Response::Predicted { latency_ms, .. } => Ok(latency_ms),
            other => Err(ClientError::Protocol(format!("expected predict reply, got {other:?}"))),
        }
    }

    /// One-shot admit + predict against the default tenant.
    pub fn admit_predict(
        &mut self,
        plan: &PlanNode,
        keep: bool,
    ) -> Result<(Option<u64>, f64), ClientError> {
        self.admit_predict_to(plan, keep, None)
    }

    /// One-shot admit + predict against a specific tenant.
    pub fn admit_predict_to(
        &mut self,
        plan: &PlanNode,
        keep: bool,
        tenant: Option<u64>,
    ) -> Result<(Option<u64>, f64), ClientError> {
        let req = Request::AdmitPredict { plan: Box::new(plan.clone()), keep, tenant };
        match self.call(&req)? {
            Response::Predicted { id, latency_ms } => Ok((id, latency_ms)),
            other => Err(ClientError::Protocol(format!("expected predict reply, got {other:?}"))),
        }
    }

    /// Fetches server counters.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!("expected stats reply, got {other:?}"))),
        }
    }

    /// Asks the server to stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!("expected bye reply, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines(input: &str, cap: usize) -> Vec<String> {
        let mut r = Cursor::new(input.as_bytes().to_vec());
        let mut lb = LineBuf::new(cap);
        let mut out = Vec::new();
        loop {
            match lb.read_line(&mut r).unwrap() {
                LineEvent::Line(l) => out.push(l),
                LineEvent::TooLong => out.push("<TOOLONG>".into()),
                LineEvent::Eof => return out,
            }
        }
    }

    #[test]
    fn linebuf_splits_and_trims() {
        assert_eq!(lines("a\nbb\r\nccc\n", 64), vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn linebuf_drops_partial_trailing_line() {
        assert_eq!(lines("complete\npartial", 64), vec!["complete"]);
    }

    #[test]
    fn linebuf_oversized_line_resyncs() {
        let big = "x".repeat(200);
        let input = format!("ok1\n{big}\nok2\n");
        assert_eq!(lines(&input, 64), vec!["ok1", "<TOOLONG>", "ok2"]);
    }

    #[test]
    fn linebuf_oversized_spanning_many_reads() {
        // 10x the cap, then a healthy line: exactly one TooLong event.
        let big = "y".repeat(640);
        let input = format!("{big}\nafter\n");
        assert_eq!(lines(&input, 64), vec!["<TOOLONG>", "after"]);
    }

    #[test]
    fn linebuf_line_at_exact_cap_passes() {
        let edge = "z".repeat(64);
        assert_eq!(lines(&format!("{edge}\n"), 64), vec![edge]);
    }

    #[test]
    fn nesting_depth_counts_brackets_not_strings() {
        assert_eq!(nesting_depth(r#"{"a":[1,{"b":2}]}"#), 3);
        // Brackets inside strings (and escaped quotes) are ignored.
        assert_eq!(nesting_depth(r#"{"a":"[[[[","b":"\"{"}"#), 1);
        assert_eq!(nesting_depth("plain"), 0);
    }

    #[test]
    fn deep_nesting_is_rejected_before_parse() {
        let bomb = "[".repeat(MAX_NESTING_DEPTH + 1);
        let err = proto::parse_guarded(&bomb).unwrap_err();
        assert_eq!(err.code, ErrorCode::Parse);
        // At the cap itself the guard passes (the parser then reports the
        // unterminated array as a plain parse error).
        let at_cap = format!("{}{}", "[".repeat(MAX_NESTING_DEPTH), "]".repeat(MAX_NESTING_DEPTH));
        assert!(proto::parse_guarded(&at_cap).is_ok());
    }

    #[test]
    fn numeric_ids_are_rejected_with_precision_pin() {
        let err = proto::decode_id(&serde::Value::Number(17.0)).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.msg.contains("2^53"), "precision bound must be cited: {}", err.msg);
        // String-coded ids round-trip the full u64 range.
        let big = u64::MAX;
        assert_eq!(proto::decode_id(&proto::encode_id(big)).unwrap(), big);
    }

    #[test]
    fn serve_addr_parses_both_transports() {
        assert_eq!(ServeAddr::parse("127.0.0.1:0").unwrap(), ServeAddr::Tcp("127.0.0.1:0".into()));
        #[cfg(unix)]
        assert_eq!(
            ServeAddr::parse("unix:/tmp/q.sock").unwrap(),
            ServeAddr::Unix(PathBuf::from("/tmp/q.sock"))
        );
        assert!(ServeAddr::parse("nonsense").is_err());
    }
}
