//! Scratch-backed wire decoder: request line → lowering-ready CSR, no `Value` tree.
//!
//! The slow path decodes a request in three allocating passes: the vendored
//! `serde_json` parser builds a `Value` tree (one `String`/`Vec`/`BTreeMap`
//! per node), `from_value::<PlanNode>` rebuilds a plan *tree* from it, and
//! the stream layer then lowers that tree into CSR arrays. This module fuses
//! all three: [`RequestScratch::decode`] parses the JSON bytes in one pass
//! directly into a reusable [`ScratchPlan`] (post-order nodes + CSR
//! children), using per-connection buffers that reach a steady-state
//! capacity and never allocate again.
//!
//! **Contract — fallback, not error parity.** The fast decoder recognises
//! exactly one shape: a fully valid, protocol-v1 `admit_predict` request
//! with `keep` absent or `false` and a plan that passes
//! [`validate_plan`](super::validate_plan) (every operator has its
//! required arity, every estimate is in the model's input domain). On
//! that shape it returns [`FastDecode::Ready`] and the
//! request is *guaranteed* to decode to the same plan (bit-for-bit node
//! content, identical CSR and shard hash) as the recursive oracle
//! ([`proto::parse_guarded`](super::proto::parse_guarded) +
//! `from_value::<PlanNode>`). On *anything* else — malformed JSON, a
//! different verb, `keep:true`, a bad tenant, an arity violation, an
//! out-of-domain estimate, nesting beyond [`super::MAX_NESTING_DEPTH`] —
//! it returns
//! [`FastDecode::Fallback`] and the caller re-runs the oracle path, which
//! produces byte-exact error replies. The decoder therefore never needs to
//! replicate error *messages*, but it must replicate the oracle's **accept
//! set** exactly, or a request the oracle would reject could be served (or
//! vice versa). `tests/serve_scratch.rs` proptests that equivalence.
//!
//! Replicating the accept set means replicating two vendored layers:
//!
//! 1. **Grammar** (`vendor/serde_json::parse`): `\u` escapes read exactly 4
//!    bytes and go through `u32::from_str_radix(_, 16)` (which accepts a
//!    leading `+`); numbers lex a greedy run over `[0-9.eE+-]` and accept
//!    whatever `f64::from_str` accepts (`1e999` → `inf`); raw control
//!    characters are legal inside strings; keywords must match in full.
//! 2. **Derive semantics** (`vendor/serde_derive`): objects are `BTreeMap`s
//!    so *duplicate keys are last-wins*; unknown struct fields are ignored;
//!    missing fields without `#[serde(default)]` are errors; externally
//!    tagged enums accept a bare string for unit variants and a
//!    single-distinct-key object for payload variants; `usize` fields go
//!    through an `as` cast from `f64` (NaN → 0, negative → 0, fractional
//!    truncates).
//!
//! Last-wins duplicates force a two-level error model. A *structural* error
//! (bad JSON) aborts the whole parse (the private `Reject` marker). A
//! *semantic* mismatch (wrong type, unknown variant, missing field) only
//! poisons the value being built (`Sem::Bad`) — the parser keeps consuming,
//! because a later duplicate key can overwrite the bad value and rescue the
//! request, exactly as the `BTreeMap` does. Scratch state is backed out
//! with marks: a `Bad` node truncates [`ScratchPlan`] to its entry mark, a
//! duplicate `children`/`plan` key truncates before re-parsing, so the
//! arrays always hold exactly the nodes of the *surviving* occurrence.

use crate::stream::ScratchPlan;
use qpp_plansim::operators::{
    AggOp, AggStrategy, HashAlgorithm, JoinAlgorithm, JoinType, Operator, ParentRel, ScanMethod,
    SortMethod,
};
use qpp_plansim::plan::{NodeActual, NodeEst, PlanNode};

use super::proto::VERSION;
use super::MAX_NESTING_DEPTH;

/// Outcome of a fast decode attempt over one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastDecode {
    /// A fully valid one-shot `admit_predict` (`keep:false`) request; the
    /// decoded plan is in [`RequestScratch::plan`], sealed and arity-checked.
    Ready {
        /// Explicit tenant fingerprint, if the request named one.
        tenant: Option<u64>,
    },
    /// Anything else; the caller must re-run the recursive oracle path
    /// (which also produces the byte-exact error reply when one is due).
    Fallback,
}

/// Per-connection scratch for the fast decoder. All buffers are retained
/// across requests; after warm-up a well-formed request decodes without
/// touching the heap.
#[derive(Default)]
pub struct RequestScratch {
    plan: ScratchPlan,
    kid_stack: Vec<usize>,
    key_buf: String,
    str_buf: String,
}

impl RequestScratch {
    /// An empty scratch (no capacity reserved yet).
    pub fn new() -> RequestScratch {
        RequestScratch::default()
    }

    /// The plan decoded by the last successful [`decode`](Self::decode) or
    /// [`decode_plan_doc`](Self::decode_plan_doc) call.
    pub fn plan(&self) -> &ScratchPlan {
        &self.plan
    }

    /// Attempts the zero-allocation decode of one request line.
    ///
    /// Returns [`FastDecode::Ready`] only when the line is a completely
    /// valid v1 `admit_predict` request with `keep` false/absent and a
    /// plan that passes the arity and input-domain checks; see the module
    /// docs for the fallback contract.
    pub fn decode(&mut self, line: &str) -> FastDecode {
        self.plan.clear();
        self.kid_stack.clear();
        let outcome = {
            let mut p = Fp {
                s: line,
                bytes: line.as_bytes(),
                pos: 0,
                depth: 0,
                cap: MAX_NESTING_DEPTH,
                sp: &mut self.plan,
                kids: &mut self.kid_stack,
                key_buf: &mut self.key_buf,
                str_buf: &mut self.str_buf,
            };
            p.request()
        };
        match outcome {
            Ok(Some(tenant)) => {
                self.plan.seal();
                if self.plan.arity_ok() && self.plan.nodes().iter().all(super::node_in_domain) {
                    FastDecode::Ready { tenant }
                } else {
                    FastDecode::Fallback
                }
            }
            _ => FastDecode::Fallback,
        }
    }

    /// Differential surface for the proptests: decodes a bare `PlanNode`
    /// JSON document, returning `true` exactly when
    /// [`proto::parse_guarded`](super::proto::parse_guarded) +
    /// `from_value::<PlanNode>` would accept it. On `true` the lowered CSR
    /// is in [`plan`](Self::plan), sealed (arity is *not* checked — the
    /// oracle's `from_value` doesn't either).
    pub fn decode_plan_doc(&mut self, doc: &str) -> bool {
        self.plan.clear();
        self.kid_stack.clear();
        let ok = {
            let mut p = Fp {
                s: doc,
                bytes: doc.as_bytes(),
                pos: 0,
                depth: 0,
                cap: MAX_NESTING_DEPTH,
                sp: &mut self.plan,
                kids: &mut self.kid_stack,
                key_buf: &mut self.key_buf,
                str_buf: &mut self.str_buf,
            };
            p.skip_ws();
            match p.plan_node() {
                Ok(Sem::Good(_)) => {
                    p.skip_ws();
                    p.pos == p.bytes.len()
                }
                _ => false,
            }
        };
        if ok {
            self.plan.seal();
        }
        ok
    }
}

/// Structural JSON error: the line is not valid JSON (or exceeds the
/// nesting cap). Aborts the whole parse; no duplicate key can rescue it.
struct Reject;

type PR<T> = Result<T, Reject>;

/// Semantic outcome of a typed sub-parse: the bytes were structurally
/// valid JSON, but the value either matched the expected Rust type
/// (`Good`) or did not (`Bad`). `Bad` values keep the parse alive so a
/// later duplicate key can overwrite them (last-wins).
enum Sem<T> {
    Good(T),
    Bad,
}

/// The fused parser. `sp`/`kids` receive plan nodes as they complete;
/// `key_buf`/`str_buf` are reusable decode targets for object keys and
/// string values (enum tags, verbs, tenant fingerprints).
struct Fp<'a, 'b> {
    s: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    cap: usize,
    sp: &'b mut ScratchPlan,
    kids: &'b mut Vec<usize>,
    key_buf: &'b mut String,
    str_buf: &'b mut String,
}

impl Fp<'_, '_> {
    // --- lexical layer: byte-exact replica of `vendor/serde_json` -------

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes an opening bracket and enforces the nesting cap (the
    /// oracle's `nesting_depth` pre-scan counts the same brackets).
    fn open(&mut self) -> PR<()> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > self.cap {
            return Err(Reject);
        }
        Ok(())
    }

    fn keyword(&mut self, kw: &str) -> PR<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Reject)
        }
    }

    /// Number lexer + `f64::from_str`, exactly as the oracle: greedy run
    /// over `[0-9.eE+-]` after an optional `-`, then parse the slice (so
    /// `1e999` → `inf` is accepted, `1-2` or a bare `-` is structural).
    fn number(&mut self) -> PR<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.s[start..self.pos].parse::<f64>().map_err(|_| Reject)
    }

    /// String scanner; decodes into `out` when given. Escape handling is a
    /// byte-exact replica of the oracle, including the `\u` quirks: read
    /// exactly 4 bytes, `from_utf8`, `u32::from_str_radix(_, 16)` (leading
    /// `+` accepted), `char::from_u32` (surrogates reject).
    fn string_impl(&mut self, mut out: Option<&mut String>) -> PR<()> {
        if self.peek() != Some(b'"') {
            return Err(Reject);
        }
        self.pos += 1;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0C}',
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5).ok_or(Reject)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(Reject)?;
                            let c = char::from_u32(code).ok_or(Reject)?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(Reject),
                    };
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push(c);
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Raw chars (incl. control bytes and multi-byte UTF-8)
                    // pass through; `pos` is always on a char boundary.
                    let c = self
                        .s
                        .get(self.pos..)
                        .and_then(|r| r.chars().next())
                        .ok_or(Reject)?;
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push(c);
                    }
                    self.pos += c.len_utf8();
                }
                None => return Err(Reject),
            }
        }
    }

    /// Decodes an object key into `key_buf`.
    fn key(&mut self) -> PR<()> {
        let mut buf = std::mem::take(self.key_buf);
        buf.clear();
        let r = self.string_impl(Some(&mut buf));
        *self.key_buf = buf;
        r
    }

    /// Decodes a string value into `str_buf`.
    fn string_value(&mut self) -> PR<()> {
        let mut buf = std::mem::take(self.str_buf);
        buf.clear();
        let r = self.string_impl(Some(&mut buf));
        *self.str_buf = buf;
        r
    }

    /// Structurally validates and discards one JSON value (the oracle
    /// parses it into a `Value`; semantically it is ignored or rejected).
    fn skip_value(&mut self) -> PR<()> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string_impl(None),
            Some(b'[') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(Reject),
                    }
                }
            }
            Some(b'{') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string_impl(None)?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(Reject);
                    }
                    self.pos += 1;
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(Reject),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| ()),
            _ => Err(Reject),
        }
    }

    // --- typed layer: replica of the vendored derive semantics ----------

    fn sem_f64(&mut self) -> PR<Sem<f64>> {
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Sem::Good(self.number()?)),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// `usize` fields go through the same `as` cast the vendored serde
    /// uses (`Value::Number(n) => n as usize`).
    fn sem_usize(&mut self) -> PR<Sem<usize>> {
        Ok(match self.sem_f64()? {
            Sem::Good(n) => Sem::Good(n as usize),
            Sem::Bad => Sem::Bad,
        })
    }

    fn sem_bool(&mut self) -> PR<Sem<bool>> {
        match self.peek() {
            Some(b't') => {
                self.keyword("true")?;
                Ok(Sem::Good(true))
            }
            Some(b'f') => {
                self.keyword("false")?;
                Ok(Sem::Good(false))
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// `Option<f64>`: `null` → `None`, number → `Some`, else type error.
    fn sem_opt_f64(&mut self) -> PR<Sem<Option<f64>>> {
        match self.peek() {
            Some(b'n') => {
                self.keyword("null")?;
                Ok(Sem::Good(None))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Sem::Good(Some(self.number()?))),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn sem_opt_usize(&mut self) -> PR<Sem<Option<usize>>> {
        Ok(match self.sem_opt_f64()? {
            Sem::Good(n) => Sem::Good(n.map(|x| x as usize)),
            Sem::Bad => Sem::Bad,
        })
    }

    /// Unit-only enum: a bare string matched against the variant names.
    /// Any other shape (including the object form, whose payload arms are
    /// all empty for unit-only enums) is a semantic error.
    fn unit_enum<T>(&mut self, lookup: fn(&str) -> Option<T>) -> PR<Sem<T>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(match lookup(self.str_buf.as_str()) {
                    Some(v) => Sem::Good(v),
                    None => Sem::Bad,
                })
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// Generic object-field loop: caller guarantees `peek() == '{'`.
    /// `keymap` maps a decoded key to a field index (`usize::MAX` =
    /// unknown, which `body` must skip); `body` parses the value.
    fn fields<F>(&mut self, keymap: fn(&str) -> usize, mut body: F) -> PR<()>
    where
        F: FnMut(&mut Self, usize) -> PR<()>,
    {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.key()?;
            let f = keymap(self.key_buf.as_str());
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(Reject);
            }
            self.pos += 1;
            self.skip_ws();
            body(self, f)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(Reject),
            }
        }
    }

    /// Payload-variant enum in object form. The oracle requires exactly
    /// one *distinct* key (duplicates collapse last-wins in the
    /// `BTreeMap`), and the tag must name a payload variant — unit-variant
    /// names or unknown tags are semantic errors. Caller guarantees
    /// `peek() == '{'`.
    fn enum_object<T>(
        &mut self,
        tagmap: fn(&str) -> Option<u8>,
        mut payload: impl FnMut(&mut Self, u8) -> PR<Sem<T>>,
    ) -> PR<Sem<T>> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            // Zero keys: "bad enum representation".
            self.pos += 1;
            self.depth -= 1;
            return Ok(Sem::Bad);
        }
        let mut first: Option<Option<u8>> = None;
        let mut multi = false;
        let mut val: Sem<T> = Sem::Bad;
        loop {
            self.skip_ws();
            self.key()?;
            let tag = tagmap(self.key_buf.as_str());
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(Reject);
            }
            self.pos += 1;
            self.skip_ws();
            match (first, tag) {
                (None, Some(t)) => {
                    first = Some(Some(t));
                    val = payload(self, t)?;
                }
                (None, None) => {
                    first = Some(None);
                    self.skip_value()?;
                }
                // Duplicate of the known tag: re-parse, last wins.
                (Some(Some(t0)), Some(t)) if t0 == t && !multi => {
                    val = payload(self, t)?;
                }
                // A second distinct key (or an unknown first key again):
                // the final map has ≥2 entries or an unknown tag — either
                // way semantic error, but keep consuming structurally.
                _ => {
                    multi = true;
                    self.skip_value()?;
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    break;
                }
                _ => return Err(Reject),
            }
        }
        Ok(if multi || matches!(first, Some(None)) { Sem::Bad } else { val })
    }

    // --- plan vocabulary ------------------------------------------------

    fn scan_method(&mut self) -> PR<Sem<ScanMethod>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(if self.str_buf.as_str() == "Seq" {
                    Sem::Good(ScanMethod::Seq)
                } else {
                    Sem::Bad
                })
            }
            Some(b'{') => self.enum_object(
                |t| if t == "Index" { Some(0) } else { None },
                |p, _| p.index_payload(),
            ),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn index_payload(&mut self) -> PR<Sem<ScanMethod>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut index: Option<Sem<usize>> = None;
        let mut forward: Option<Sem<bool>> = None;
        self.fields(
            |k| match k {
                "index" => 0,
                "forward" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => index = Some(p.sem_usize()?),
                    1 => forward = Some(p.sem_bool()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (index, forward) {
            (Some(Sem::Good(index)), Some(Sem::Good(forward))) => {
                Sem::Good(ScanMethod::Index { index, forward })
            }
            _ => Sem::Bad,
        })
    }

    fn operator(&mut self) -> PR<Sem<Operator>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(if self.str_buf.as_str() == "Materialize" {
                    Sem::Good(Operator::Materialize)
                } else {
                    Sem::Bad
                })
            }
            Some(b'{') => self.enum_object(
                |t| match t {
                    "Scan" => Some(0),
                    "Filter" => Some(1),
                    "Join" => Some(2),
                    "Hash" => Some(3),
                    "Sort" => Some(4),
                    "Aggregate" => Some(5),
                    "Limit" => Some(6),
                    _ => None,
                },
                |p, t| match t {
                    0 => p.scan_payload(),
                    1 => p.filter_payload(),
                    2 => p.join_payload(),
                    3 => p.hash_payload(),
                    4 => p.sort_payload(),
                    5 => p.aggregate_payload(),
                    _ => p.limit_payload(),
                },
            ),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn scan_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut table: Option<Sem<usize>> = None;
        let mut method: Option<Sem<ScanMethod>> = None;
        let mut predicate_col: Option<Sem<Option<usize>>> = None;
        self.fields(
            |k| match k {
                "table" => 0,
                "method" => 1,
                "predicate_col" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => table = Some(p.sem_usize()?),
                    1 => method = Some(p.scan_method()?),
                    2 => predicate_col = Some(p.sem_opt_usize()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (table, method, predicate_col) {
            (Some(Sem::Good(table)), Some(Sem::Good(method)), Some(Sem::Good(predicate_col))) => {
                Sem::Good(Operator::Scan { table, method, predicate_col })
            }
            _ => Sem::Bad,
        })
    }

    fn filter_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut parallel: Option<Sem<bool>> = None;
        self.fields(
            |k| if k == "parallel" { 0 } else { usize::MAX },
            |p, f| {
                match f {
                    0 => parallel = Some(p.sem_bool()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match parallel {
            Some(Sem::Good(parallel)) => Sem::Good(Operator::Filter { parallel }),
            _ => Sem::Bad,
        })
    }

    fn join_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut algo: Option<Sem<JoinAlgorithm>> = None;
        let mut jtype: Option<Sem<JoinType>> = None;
        let mut parent_rel: Option<Sem<ParentRel>> = None;
        self.fields(
            |k| match k {
                "algo" => 0,
                "jtype" => 1,
                "parent_rel" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => {
                        algo = Some(p.unit_enum(|s| match s {
                            "NestedLoop" => Some(JoinAlgorithm::NestedLoop),
                            "Hash" => Some(JoinAlgorithm::Hash),
                            "Merge" => Some(JoinAlgorithm::Merge),
                            _ => None,
                        })?)
                    }
                    1 => {
                        jtype = Some(p.unit_enum(|s| match s {
                            "Inner" => Some(JoinType::Inner),
                            "Semi" => Some(JoinType::Semi),
                            "Anti" => Some(JoinType::Anti),
                            "Full" => Some(JoinType::Full),
                            _ => None,
                        })?)
                    }
                    2 => {
                        parent_rel = Some(p.unit_enum(|s| match s {
                            "None" => Some(ParentRel::None),
                            "Inner" => Some(ParentRel::Inner),
                            "Outer" => Some(ParentRel::Outer),
                            "Subquery" => Some(ParentRel::Subquery),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (algo, jtype, parent_rel) {
            (Some(Sem::Good(algo)), Some(Sem::Good(jtype)), Some(Sem::Good(parent_rel))) => {
                Sem::Good(Operator::Join { algo, jtype, parent_rel })
            }
            _ => Sem::Bad,
        })
    }

    fn hash_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut buckets: Option<Sem<f64>> = None;
        let mut algo: Option<Sem<HashAlgorithm>> = None;
        self.fields(
            |k| match k {
                "buckets" => 0,
                "algo" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => buckets = Some(p.sem_f64()?),
                    1 => {
                        algo = Some(p.unit_enum(|s| match s {
                            "Linear" => Some(HashAlgorithm::Linear),
                            "Chained" => Some(HashAlgorithm::Chained),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (buckets, algo) {
            (Some(Sem::Good(buckets)), Some(Sem::Good(algo))) => {
                Sem::Good(Operator::Hash { buckets, algo })
            }
            _ => Sem::Bad,
        })
    }

    fn sort_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut key: Option<Sem<usize>> = None;
        let mut method: Option<Sem<SortMethod>> = None;
        self.fields(
            |k| match k {
                "key" => 0,
                "method" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => key = Some(p.sem_usize()?),
                    1 => {
                        method = Some(p.unit_enum(|s| match s {
                            "Quicksort" => Some(SortMethod::Quicksort),
                            "TopN" => Some(SortMethod::TopN),
                            "External" => Some(SortMethod::External),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (key, method) {
            (Some(Sem::Good(key)), Some(Sem::Good(method))) => {
                Sem::Good(Operator::Sort { key, method })
            }
            _ => Sem::Bad,
        })
    }

    fn aggregate_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut strategy: Option<Sem<AggStrategy>> = None;
        let mut partial: Option<Sem<bool>> = None;
        let mut op: Option<Sem<AggOp>> = None;
        self.fields(
            |k| match k {
                "strategy" => 0,
                "partial" => 1,
                "op" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => {
                        strategy = Some(p.unit_enum(|s| match s {
                            "Plain" => Some(AggStrategy::Plain),
                            "Sorted" => Some(AggStrategy::Sorted),
                            "Hashed" => Some(AggStrategy::Hashed),
                            _ => None,
                        })?)
                    }
                    1 => partial = Some(p.sem_bool()?),
                    2 => {
                        op = Some(p.unit_enum(|s| match s {
                            "Count" => Some(AggOp::Count),
                            "Sum" => Some(AggOp::Sum),
                            "Avg" => Some(AggOp::Avg),
                            "Min" => Some(AggOp::Min),
                            "Max" => Some(AggOp::Max),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (strategy, partial, op) {
            (Some(Sem::Good(strategy)), Some(Sem::Good(partial)), Some(Sem::Good(op))) => {
                Sem::Good(Operator::Aggregate { strategy, partial, op })
            }
            _ => Sem::Bad,
        })
    }

    fn limit_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut count: Option<Sem<f64>> = None;
        self.fields(
            |k| if k == "count" { 0 } else { usize::MAX },
            |p, f| {
                match f {
                    0 => count = Some(p.sem_f64()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match count {
            Some(Sem::Good(count)) => Sem::Good(Operator::Limit { count }),
            _ => Sem::Bad,
        })
    }

    fn node_est(&mut self) -> PR<Sem<NodeEst>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut width: Option<Sem<f64>> = None;
        let mut rows: Option<Sem<f64>> = None;
        let mut buffers: Option<Sem<f64>> = None;
        let mut ios: Option<Sem<f64>> = None;
        let mut total_cost: Option<Sem<f64>> = None;
        let mut selectivity: Option<Sem<f64>> = None;
        self.fields(
            |k| match k {
                "width" => 0,
                "rows" => 1,
                "buffers" => 2,
                "ios" => 3,
                "total_cost" => 4,
                "selectivity" => 5,
                _ => usize::MAX,
            },
            |p, f| {
                let slot = match f {
                    0 => &mut width,
                    1 => &mut rows,
                    2 => &mut buffers,
                    3 => &mut ios,
                    4 => &mut total_cost,
                    5 => &mut selectivity,
                    _ => {
                        p.skip_value()?;
                        return Ok(());
                    }
                };
                *slot = Some(p.sem_f64()?);
                Ok(())
            },
        )?;
        Ok(match (width, rows, buffers, ios, total_cost, selectivity) {
            (
                Some(Sem::Good(width)),
                Some(Sem::Good(rows)),
                Some(Sem::Good(buffers)),
                Some(Sem::Good(ios)),
                Some(Sem::Good(total_cost)),
                Some(Sem::Good(selectivity)),
            ) => Sem::Good(NodeEst { width, rows, buffers, ios, total_cost, selectivity }),
            _ => Sem::Bad,
        })
    }

    fn node_actual(&mut self) -> PR<Sem<NodeActual>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut rows: Option<Sem<f64>> = None;
        let mut latency_ms: Option<Sem<f64>> = None;
        let mut self_latency_ms: Option<Sem<f64>> = None;
        self.fields(
            |k| match k {
                "rows" => 0,
                "latency_ms" => 1,
                "self_latency_ms" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                let slot = match f {
                    0 => &mut rows,
                    1 => &mut latency_ms,
                    2 => &mut self_latency_ms,
                    _ => {
                        p.skip_value()?;
                        return Ok(());
                    }
                };
                *slot = Some(p.sem_f64()?);
                Ok(())
            },
        )?;
        Ok(match (rows, latency_ms, self_latency_ms) {
            (Some(Sem::Good(rows)), Some(Sem::Good(latency_ms)), Some(Sem::Good(self_latency_ms))) => {
                Sem::Good(NodeActual { rows, latency_ms, self_latency_ms })
            }
            _ => Sem::Bad,
        })
    }

    // --- plan nodes -----------------------------------------------------

    /// Parses one `PlanNode` object, pushing its subtree into the scratch
    /// plan in post order. On `Good` the node's index is returned and its
    /// direct-children indices have been consumed from `kids`; on `Bad`
    /// both scratch arrays are truncated back to this node's entry marks.
    fn plan_node(&mut self) -> PR<Sem<usize>> {
        let node_mark = self.sp.len();
        let kid_mark = self.kids.len();
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut op: Option<Sem<Operator>> = None;
        let mut est: Option<Sem<NodeEst>> = None;
        let mut actual: Option<Sem<NodeActual>> = None;
        let mut learned_rows: Option<Sem<Option<f64>>> = None;
        let mut concurrency: Option<Sem<f64>> = None;
        let mut children: Option<Sem<()>> = None;
        self.fields(
            |k| match k {
                "op" => 0,
                "est" => 1,
                "actual" => 2,
                "learned_rows" => 3,
                "concurrency" => 4,
                "children" => 5,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => op = Some(p.operator()?),
                    1 => est = Some(p.node_est()?),
                    2 => actual = Some(p.node_actual()?),
                    3 => learned_rows = Some(p.sem_opt_f64()?),
                    4 => concurrency = Some(p.sem_f64()?),
                    5 => children = Some(p.children_field(node_mark, kid_mark)?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        // `learned_rows` and `concurrency` carry #[serde(default)].
        let learned_rows = learned_rows.unwrap_or(Sem::Good(None));
        let concurrency = concurrency.unwrap_or(Sem::Good(1.0));
        match (op, est, actual, learned_rows, concurrency, children) {
            (
                Some(Sem::Good(op)),
                Some(Sem::Good(est)),
                Some(Sem::Good(actual)),
                Sem::Good(learned_rows),
                Sem::Good(concurrency),
                Some(Sem::Good(())),
            ) => {
                let node = PlanNode {
                    op,
                    est,
                    actual,
                    learned_rows,
                    concurrency,
                    children: Vec::new(),
                };
                let idx = self.sp.push_node(node, &self.kids[kid_mark..]);
                self.kids.truncate(kid_mark);
                Ok(Sem::Good(idx))
            }
            _ => {
                self.sp.truncate(node_mark);
                self.kids.truncate(kid_mark);
                Ok(Sem::Bad)
            }
        }
    }

    /// Parses a `children` array. Between this node's entry marks and
    /// here, the only scratch growth is a previous occurrence of this same
    /// field, so truncating to the marks implements last-wins for
    /// duplicate `children` keys (and is a no-op on the first occurrence).
    fn children_field(&mut self, node_mark: usize, kid_mark: usize) -> PR<Sem<()>> {
        self.sp.truncate(node_mark);
        self.kids.truncate(kid_mark);
        if self.peek() != Some(b'[') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Sem::Good(()));
        }
        let mut bad = false;
        loop {
            self.skip_ws();
            if bad {
                self.skip_value()?;
            } else {
                match self.plan_node()? {
                    Sem::Good(idx) => self.kids.push(idx),
                    Sem::Bad => {
                        // A bad element poisons the whole Vec (the oracle's
                        // `collect::<Result<_>>` fails); drop the siblings
                        // already in scratch and validate the rest
                        // structurally only.
                        self.sp.truncate(node_mark);
                        self.kids.truncate(kid_mark);
                        bad = true;
                    }
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(if bad { Sem::Bad } else { Sem::Good(()) });
                }
                _ => return Err(Reject),
            }
        }
    }

    // --- request envelope -----------------------------------------------

    /// `op` must be the string `"admit_predict"`; any other verb is
    /// ineligible for the fast path (not an error — the oracle handles it).
    fn op_verb(&mut self) -> PR<Sem<bool>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(Sem::Good(self.str_buf.as_str() == "admit_predict"))
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// Tenant fingerprints cross the wire as hex strings; replicate
    /// `decode_fingerprint` exactly (`u64::from_str_radix(s, 16)`).
    fn tenant(&mut self) -> PR<Sem<u64>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(match u64::from_str_radix(self.str_buf.as_str(), 16) {
                    Ok(fp) => Sem::Good(fp),
                    Err(_) => Sem::Bad,
                })
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// Parses the whole request line. `Ok(Some(tenant))` = eligible and
    /// fully valid (plan in scratch, unsealed); `Ok(None)` = structurally
    /// valid but ineligible; `Err` = structural error. The latter two are
    /// indistinguishable to the caller — both fall back.
    fn request(&mut self) -> PR<Option<Option<u64>>> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Ok(None);
        }
        let mut v: Option<Sem<f64>> = None;
        let mut op: Option<Sem<bool>> = None;
        let mut keep: Option<Sem<bool>> = None;
        let mut tenant: Option<Sem<u64>> = None;
        let mut plan: Option<Sem<usize>> = None;
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
        } else {
            loop {
                self.skip_ws();
                self.key()?;
                let f = match self.key_buf.as_str() {
                    "v" => 0,
                    "op" => 1,
                    "keep" => 2,
                    "tenant" => 3,
                    "plan" => 4,
                    _ => usize::MAX,
                };
                self.skip_ws();
                if self.peek() != Some(b':') {
                    return Err(Reject);
                }
                self.pos += 1;
                self.skip_ws();
                match f {
                    0 => v = Some(self.sem_f64()?),
                    1 => op = Some(self.op_verb()?),
                    2 => keep = Some(self.sem_bool()?),
                    3 => tenant = Some(self.tenant()?),
                    4 => {
                        // Last-wins for duplicate `plan` keys: the scratch
                        // holds only this occurrence's nodes.
                        self.sp.clear();
                        self.kids.clear();
                        plan = Some(self.plan_node()?);
                    }
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        break;
                    }
                    _ => return Err(Reject),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Reject);
        }
        let ten = match tenant {
            None => None,
            Some(Sem::Good(fp)) => Some(fp),
            Some(Sem::Bad) => return Ok(None),
        };
        let eligible = matches!(v, Some(Sem::Good(x)) if x == VERSION as f64)
            && matches!(op, Some(Sem::Good(true)))
            && matches!(keep, None | Some(Sem::Good(false)))
            && matches!(plan, Some(Sem::Good(_)));
        Ok(if eligible { Some(ten) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::super::proto::{self, Request};
    use super::*;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    /// The recursive oracle over a bare plan document: guarded parse +
    /// `from_value`, exactly what the slow path runs under the hood.
    fn oracle_plan(doc: &str) -> Option<PlanNode> {
        let v = proto::parse_guarded(doc).ok()?;
        serde_json::from_value::<PlanNode>(v).ok()
    }

    fn assert_scratch_eq(got: &ScratchPlan, tree: &PlanNode, ctx: &str) {
        let mut want = ScratchPlan::new();
        want.rebuild_from_tree(tree);
        assert_eq!(got.len(), want.len(), "node count on {ctx}");
        assert_eq!(got.kinds(), want.kinds(), "kinds on {ctx}");
        assert_eq!(got.nodes(), want.nodes(), "node content on {ctx}");
        assert_eq!(got.shard_hash(), want.shard_hash(), "shard hash on {ctx}");
        for k in 0..got.len() {
            assert_eq!(
                got.lowering().children_of(k),
                want.lowering().children_of(k),
                "children of {k} on {ctx}"
            );
            assert_eq!(
                got.lowering().height_of(k),
                want.lowering().height_of(k),
                "height of {k} on {ctx}"
            );
        }
    }

    /// Fast decoder and oracle must agree on accept/reject; on accept the
    /// scratch CSR must equal the lowering of the oracle's tree.
    fn check_doc(rs: &mut RequestScratch, doc: &str) {
        let fast = rs.decode_plan_doc(doc);
        match oracle_plan(doc) {
            Some(tree) => {
                assert!(fast, "fast decoder rejected a doc the oracle accepts: {doc}");
                assert_scratch_eq(rs.plan(), &tree, doc);
            }
            None => assert!(!fast, "fast decoder accepted a doc the oracle rejects: {doc}"),
        }
    }

    /// Request lines: `Ready` must coincide with "oracle decodes an
    /// eligible one-shot admit_predict whose plan passes `validate_plan`",
    /// and the decoded plan/tenant must match.
    fn check_line(rs: &mut RequestScratch, line: &str) {
        let fast = rs.decode(line);
        let oracle = proto::decode_request(line);
        match (fast, oracle) {
            (
                FastDecode::Ready { tenant },
                Ok(Request::AdmitPredict { plan, keep, tenant: want_tenant }),
            ) => {
                assert!(!keep, "fast path must never accept keep:true: {line}");
                assert_eq!(tenant, want_tenant, "tenant diverged on {line}");
                assert!(super::super::validate_plan(&plan).is_ok(), "plan gate leaked: {line}");
                assert_scratch_eq(rs.plan(), &plan, line);
            }
            (FastDecode::Ready { .. }, other) => {
                panic!("fast decoder accepted a line the oracle rejects: {line} ({other:?})")
            }
            (FastDecode::Fallback, _) => {} // fallback is always safe
        }
    }

    fn leaf() -> &'static str {
        r#"{"op":{"Scan":{"table":0,"method":"Seq","predicate_col":null}},"est":{"width":8,"rows":100,"buffers":0,"ios":10,"total_cost":25.5,"selectivity":1},"actual":{"rows":90,"latency_ms":1.5,"self_latency_ms":1.5},"children":[]}"#
    }

    fn wrap_filter(inner: &str) -> String {
        format!(
            r#"{{"op":{{"Filter":{{"parallel":false}}}},"est":{{"width":8,"rows":50,"buffers":0,"ios":0,"total_cost":30,"selectivity":0.5}},"actual":{{"rows":45,"latency_ms":2,"self_latency_ms":0.5}},"children":[{inner}]}}"#
        )
    }

    #[test]
    fn round_trips_generated_workload_plans() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 16, 9);
        let mut rs = RequestScratch::new();
        for plan in &ds.plans {
            let doc = serde_json::to_string(&plan.root).unwrap();
            check_doc(&mut rs, &doc);
            let line = proto::encode_request(&Request::AdmitPredict {
                plan: Box::new(plan.root.clone()),
                keep: false,
                tenant: None,
            });
            assert!(
                matches!(rs.decode(&line), FastDecode::Ready { tenant: None }),
                "wire round-trip must take the fast path"
            );
            assert_scratch_eq(rs.plan(), &plan.root, &line);
            check_line(&mut rs, &line);
        }
    }

    #[test]
    fn request_envelope_gates_eligibility() {
        let plan_doc = wrap_filter(leaf());
        let mut rs = RequestScratch::new();
        // Valid with explicit tenant, odd key order, unknown keys, ws.
        let line = format!(
            " {{ \"tenant\" : \"00ff\" , \"plan\" : {plan_doc}, \"x_unknown\": [1, {{}}], \"op\": \"admit_predict\", \"v\": 1 }} "
        );
        assert_eq!(rs.decode(&line), FastDecode::Ready { tenant: Some(0xff) });
        check_line(&mut rs, &line);
        // Each of these must fall back (wrong verb / version / keep /
        // tenant / missing plan), even though some are valid requests.
        for line in [
            format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"keep":true}}"#),
            format!(r#"{{"v":1,"op":"admit","plan":{plan_doc}}}"#),
            format!(r#"{{"v":2,"op":"admit_predict","plan":{plan_doc}}}"#),
            format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"tenant":"zz"}}"#),
            format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"tenant":null}}"#),
            format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"keep":1}}"#),
            format!(r#"{{"op":"admit_predict","plan":{plan_doc}}}"#),
            r#"{"v":1,"op":"stats"}"#.to_string(),
            r#"{"v":1,"op":"admit_predict"}"#.to_string(),
            format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc}}} trailing"#),
            format!(r#"[{{"v":1,"op":"admit_predict","plan":{plan_doc}}}]"#),
            String::new(),
        ] {
            assert_eq!(rs.decode(&line), FastDecode::Fallback, "line: {line}");
            check_line(&mut rs, &line);
        }
    }

    #[test]
    fn duplicate_keys_are_last_wins_at_every_level() {
        let mut rs = RequestScratch::new();
        let leaf = leaf();
        let est = r#"{"width":8,"rows":50,"buffers":0,"ios":0,"total_cost":30,"selectivity":0.5}"#;
        let act = r#"{"rows":45,"latency_ms":2,"self_latency_ms":0.5}"#;
        for doc in [
            // A later duplicate rescues a bad `op`; a later bad one poisons.
            format!(r#"{{"op":5,"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"op":5,"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate children arrays: last array is the real child list.
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[],"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}],"children":[]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}],"children":"no"}}"#),
            // Duplicate scalar field inside a payload struct.
            format!(r#"{{"op":{{"Filter":{{"parallel":1,"parallel":false}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":false,"parallel":1}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate est objects.
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":0,"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate enum tag: last payload wins.
            format!(r#"{{"op":{{"Filter":{{"parallel":false}},"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":0,"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}},"Filter":0}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
        ] {
            check_doc(&mut rs, &doc);
        }
        // Duplicate `plan` at the request level: last one wins.
        let good = wrap_filter(leaf);
        let line =
            format!(r#"{{"v":1,"op":"admit_predict","plan":{leaf},"plan":{good}}}"#);
        assert!(matches!(rs.decode(&line), FastDecode::Ready { tenant: None }));
        assert_eq!(rs.plan().len(), 2, "scratch must hold only the second plan");
        check_line(&mut rs, &line);
        let line =
            format!(r#"{{"v":1,"op":"admit_predict","plan":{good},"plan":7}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Fallback);
        check_line(&mut rs, &line);
    }

    #[test]
    fn enum_representations_match_the_derive() {
        let mut rs = RequestScratch::new();
        let est = r#"{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}"#;
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        let node = |op: &str| format!(r#"{{"op":{op},"est":{est},"actual":{act},"children":[]}}"#);
        for op in [
            r#""Materialize""#,                                   // unit string form: accept
            r#"{"Materialize":null}"#,                            // unit tag in object form: reject
            r#"{"Materialize":{}}"#,                              // ditto
            r#""Limit""#,                                         // payload variant as string: reject
            r#"{"Limit":{"count":3}}"#,                           // accept
            r#"{"Limit":{"count":3},"Filter":{"parallel":true}}"#, // two distinct keys: reject
            r#"{}"#,                                              // zero keys: reject
            r#"{"Bogus":1}"#,                                     // unknown tag: reject
            r#"{"Bogus":1,"Bogus":2}"#,                           // unknown tag, deduped: reject
            r#"{"Limit":{"count":3,"extra":9}}"#,                 // unknown payload field: ignored
            r#"{"Limit":{}}"#,                                    // missing required field: reject
            r#"{"Sort":{"key":2,"method":"TopN"}}"#,              // accept
            r#"{"Sort":{"key":2.9,"method":"TopN"}}"#,            // fractional usize: `as` cast
            r#"{"Sort":{"key":-3,"method":"TopN"}}"#,             // negative usize: `as` cast → 0
            r#"{"Sort":{"key":2,"method":"External","method":"Quicksort"}}"#,
            r#"{"Scan":{"table":1,"method":{"Index":{"index":0,"forward":true}},"predicate_col":2}}"#,
            r#"{"Scan":{"table":1,"method":{"Seq":null},"predicate_col":null}}"#, // unit tag object form
            r#"{"Scan":{"table":1,"method":"Index","predicate_col":null}}"#, // payload tag as string
            r#"{"Scan":{"table":1,"method":"Seq"}}"#,             // missing Option field is an error
            r#"{"Aggregate":{"strategy":"Hashed","partial":true,"op":"Sum"}}"#,
            r#"{"Join":{"algo":"Merge","jtype":"Semi","parent_rel":"None"}}"#,
            r#"{"Join":{"algo":"Merge","jtype":"Semi","parent_rel":"Elsewhere"}}"#,
            r#"{"Hash":{"buckets":1024.5,"algo":"Chained"}}"#,
        ] {
            check_doc(&mut rs, &node(op));
        }
    }

    #[test]
    fn escapes_and_hostile_strings_match_the_oracle() {
        let mut rs = RequestScratch::new();
        let est = r#"{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}"#;
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        for doc in [
            // Escaped key: "op" decodes to "op".
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[]}}"#),
            // `from_str_radix` accepts a leading `+`: "\u+041" is 'A'...
            format!(r#"{{"op":"M\u+061terialize","est":{est},"actual":{act},"children":[]}}"#),
            // ...but a surrogate code point rejects.
            format!(r#"{{"op":"M\ud800aterialize","est":{est},"actual":{act},"children":[]}}"#),
            // Truncated \u escape.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\u00"#),
            // Unknown escape / uppercase \U.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\q"}}"#),
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\U0041"}}"#),
            // Raw control byte and raw multi-byte UTF-8 inside a string.
            format!("{{\"op\":\"Materialize\",\"est\":{est},\"actual\":{act},\"children\":[],\"x\":\"a\u{1}b\"}}"),
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"xé":"é\n\t\"\\"}}"#),
            // Unterminated string.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"oops"#),
            // Escape-heavy unknown keys are skipped but still validated.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"\n\t\"\\\/\b\f":null}}"#),
        ] {
            check_doc(&mut rs, &doc);
        }
    }

    #[test]
    fn hostile_numbers_and_keywords_match_the_oracle() {
        let mut rs = RequestScratch::new();
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        let with_width = |w: &str| {
            format!(
                r#"{{"op":"Materialize","est":{{"width":{w},"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}},"actual":{act},"children":[]}}"#
            )
        };
        for w in ["1e999", "-0", "2.5e-3", "1.", "1-2", "--1", "-", "1e", "1..2", "1e+5", "01"] {
            check_doc(&mut rs, &with_width(w));
        }
        for doc in [
            r#"tru"#.to_string(),
            r#"nul"#.to_string(),
            with_width("1").replace(":[]", ":[],\"x\":fals"),
            with_width("1").replace(":[]", ":[],\"x\":truething"),
            with_width("1") + " \t\r\n",
            with_width("1") + "x",
        ] {
            check_doc(&mut rs, &doc);
        }
    }

    #[test]
    fn out_of_domain_estimates_fall_back() {
        let mut rs = RequestScratch::new();
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        let line = |est_rows: &str, extra: &str| {
            format!(
                r#"{{"v":1,"op":"admit_predict","plan":{{"op":"Materialize","est":{{"width":1,"rows":{est_rows},"buffers":0,"ios":0,"total_cost":1,"selectivity":1}},"actual":{act}{extra},"children":[{}]}}}}"#,
                leaf()
            )
        };
        assert!(matches!(rs.decode(&line("1", "")), FastDecode::Ready { .. }));
        for bad in [
            line("1e999", ""),
            line("-1e999", ""),
            line("-5", ""),
            line("1", r#","learned_rows":1e999"#),
            line("1", r#","concurrency":-1e999"#),
        ] {
            assert_eq!(rs.decode(&bad), FastDecode::Fallback, "line: {bad}");
            check_line(&mut rs, &bad);
        }
    }

    #[test]
    fn nesting_bomb_rejects_without_recursing() {
        let mut rs = RequestScratch::new();
        let mut doc = leaf().to_string();
        for _ in 0..600 {
            doc = wrap_filter(&doc);
        }
        check_doc(&mut rs, &doc); // both sides reject (depth > 512)
        let line = format!(r#"{{"v":1,"op":"admit_predict","plan":{doc}}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Fallback);
        // A deep-but-legal chain is accepted and lowered correctly.
        let mut doc = leaf().to_string();
        for _ in 0..100 {
            doc = wrap_filter(&doc);
        }
        check_doc(&mut rs, &doc);
        assert_eq!(rs.plan().len(), 101);
    }

    #[test]
    fn arity_violations_fall_back_to_the_oracle_path() {
        let mut rs = RequestScratch::new();
        // A Join with one child decodes fine (`from_value` has no arity
        // check) but must not take the fast path: the oracle path owns the
        // `validate_plan` error reply.
        let join = format!(
            r#"{{"op":{{"Join":{{"algo":"Hash","jtype":"Inner","parent_rel":"None"}}}},"est":{{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}},"actual":{{"rows":1,"latency_ms":1,"self_latency_ms":1}},"children":[{}]}}"#,
            leaf()
        );
        assert!(rs.decode_plan_doc(&join), "doc itself decodes");
        let line = format!(r#"{{"v":1,"op":"admit_predict","plan":{join}}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Fallback);
        check_line(&mut rs, &line);
    }

    #[test]
    fn steady_state_decode_is_allocation_free() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 8, 33);
        let mut rs = RequestScratch::new();
        let lines: Vec<String> = ds
            .plans
            .iter()
            .map(|p| {
                proto::encode_request(&Request::AdmitPredict {
                    plan: Box::new(p.root.clone()),
                    keep: false,
                    tenant: Some(0xabcd),
                })
            })
            .collect();
        // Warm up: buffers grow to their steady-state capacity.
        for line in &lines {
            assert!(matches!(rs.decode(line), FastDecode::Ready { .. }));
        }
        let before = crate::alloc::thread_alloc_count();
        for _ in 0..3 {
            for line in &lines {
                assert!(matches!(rs.decode(line), FastDecode::Ready { .. }));
            }
        }
        let delta = crate::alloc::thread_alloc_count() - before;
        assert_eq!(delta, 0, "warm fast decode must not allocate");
    }
}
