//! Incremental plan programs: streaming admission with feature-row
//! caching and common-subexpression elimination.
//!
//! The batch engine ([`crate::infer::PlanProgram`]) makes steady-state
//! serving fast, but a *one-shot* request is compile-bound: on the mixed
//! 320-plan bench stream, compilation is ~36 % of the request, and Table-2
//! featurization alone is ~36 % of compilation. The paper's headline use
//! case — admission control over a live query stream (§1) — admits and
//! retires **one plan at a time**; recompiling the whole resident batch
//! per arrival is the wrong asymptotic. A [`ProgramBuilder`] maintains a
//! resident wavefront program *mutably*:
//!
//! * [`ProgramBuilder::admit`] lowers one plan and appends its nodes into
//!   the existing `(height, OpKind)` wavefront chunks (a new chunk is
//!   opened only when every open chunk of that wavefront is at the
//!   32-row cache-sized limit), touching nothing else in the program;
//! * [`ProgramBuilder::retire`] releases a plan's nodes — chunk slots are
//!   compacted by swap-remove and output rows return to a free-list for
//!   the next admission;
//! * a **feature-row cache** ([`qpp_plansim::features::FeatureCache`])
//!   keyed by the exact per-node content key
//!   ([`crate::lower::NodeContentKey`]) skips Table-2 featurization for
//!   every node shape seen before;
//! * **common-subexpression elimination**: subtrees that are
//!   node-for-node identical ([`crate::lower::SubtreeKey`]) map to *one*
//!   set of wavefront rows, reference-counted across plans — template-
//!   heavy workloads (TPC-DS) share scans and whole join arms, shrinking
//!   every gemm;
//! * a **whole-plan prediction memo** ([`PredictionCache`]) keyed by the
//!   full lossless plan key (every node's content words + the CSR child
//!   structure + the clamp mode) turns an exact repeat of a previously
//!   served plan — the dominant request class under Zipfian template
//!   skew — into a hash probe instead of a wavefront run, for one-shot
//!   predicts and kept admit-predicts alike.
//!
//! # Determinism
//!
//! Predictions are **bit-identical** to a fresh
//! [`crate::infer::PlanProgram::compile`] of the same resident set, run
//! at any thread count. Four facts compose into that guarantee:
//!
//! 1. the packed gemm kernel is *row-invariant* — a row's output bits
//!    depend only on its own input, the weights and the bias, never on
//!    which chunk (or slot) the row occupies
//!    ([`qpp_nn::PackedDense::forward_into`], property-tested);
//! 2. the feature cache and CSE map are keyed by **lossless content
//!    keys**, not hashes — a hit is bit-identical to recomputation by
//!    construction;
//! 3. scheduling still runs heights strictly ascending, so every child
//!    row is written before any parent reads it, exactly as in the batch
//!    engine;
//! 4. **freshness is monotone** — a computed output row stays valid for
//!    as long as its node is resident, so a run executes only the chunks
//!    that gained a member since the last run. A unit's output depends
//!    only on its subtree; the weights are fixed for the builder's `'m`
//!    borrow and feature rows are content-keyed; a freed row or chunk
//!    slot is reused only by a newly placed node, which marks its chunk
//!    stale; and swap-remove on retire moves a member's input row, never
//!    its output row. A stale chunk reruns whole, which by fact 1 leaves
//!    its fresh members' bits unchanged, and by fact 3 its children are
//!    fresh or recomputed earlier in the same run.
//!
//! A builder runs on its caller's thread; multicore resident serving is
//! shards ([`ShardedStream`]). The differential suite
//! (`tests/stream_differential.rs`) holds random admit/retire/predict
//! interleavings to exact equality against fresh compiles run on 1 and 4
//! lanes, in debug and release.

use crate::config::TargetCodec;
use crate::infer::{clamp_plan_envelope, run_steps_seq, Step, STEP_CHUNK_ROWS};
use crate::lower::{Lowering, NodeContentKey, SubtreeKey};
use qpp_plansim::util::Fnv1a;
use crate::tree::RatioCaps;
use crate::unit::{PackedUnits, UnitSet};
use qpp_nn::{BufferPool, Executor, Matrix};
use qpp_plansim::features::{FeatureCache, Featurizer, Whitener};
use qpp_plansim::operators::OpKind;
use qpp_plansim::plan::PlanNode;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};

/// Handle to one resident plan of a [`ProgramBuilder`]; returned by
/// [`ProgramBuilder::admit`] and consumed by [`ProgramBuilder::retire`]
/// and the per-plan predictors. Ids are never reused within a builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(u64);

/// One unique (shared) subtree resident in the program: the physical
/// wavefront row it owns plus where that row's gemm slot lives.
#[derive(Debug, Default)]
struct SharedNode {
    /// Global output-buffer row (stable for the node's lifetime).
    row: usize,
    /// Number of (plan, position) references — CSE sharing across *and
    /// within* plans both count here; the node is released at zero.
    refs: u32,
    /// Wavefront chunk holding this node's gemm slot.
    step: u32,
    /// Member index within that chunk (maintained under swap-remove).
    slot: u32,
    /// Height from the leaves (the wavefront level key).
    height: u32,
    /// The CSE map key, kept for removal on release.
    key: SubtreeKey,
}

/// Per-plan bookkeeping: position-indexed maps into the shared-node slab
/// (a plan's rows are **not** contiguous — they interleave with other
/// plans' and may be shared with them).
struct Resident {
    lowering: Lowering,
    kinds: Vec<OpKind>,
    /// Shared-node id per post-order position.
    node_ids: Vec<u32>,
    /// Output row per post-order position (denormalized from `node_ids`
    /// for decode speed).
    rows: Vec<usize>,
}

/// Aggregate statistics of a [`ProgramBuilder`]'s resident program —
/// the observability surface for streaming serving (`qpp predict
/// --stream` prints this).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramStats {
    /// Plans currently resident.
    pub resident_plans: usize,
    /// Logical operator nodes across all resident plans (what a fresh
    /// batch compile would lay out as gemm rows).
    pub logical_nodes: usize,
    /// Physical wavefront gemm rows after CSE sharing.
    pub shared_rows: usize,
    /// Live wavefront chunks (gemm calls per unit layer per run).
    pub steps: usize,
    /// Height levels of the resident schedule.
    pub levels: usize,
    /// Distinct node shapes memoized by the feature-row cache.
    pub feat_cache_entries: usize,
    /// Feature lookups served from the cache.
    pub feat_cache_hits: u64,
    /// Feature lookups that had to featurize.
    pub feat_cache_misses: u64,
    /// Cumulative admissions that mapped a subtree onto existing rows.
    pub cse_hits: u64,
    /// Whole-plan predictions currently memoized (this generation of the
    /// [`PredictionCache`]).
    pub pred_cache_entries: usize,
    /// Predict requests answered straight from the whole-plan memo.
    pub pred_cache_hits: u64,
    /// Predict requests that missed the memo (and then seeded it).
    pub pred_cache_misses: u64,
    /// Memo entries dropped by generational resets at the entry cap.
    pub pred_cache_evictions: u64,
    /// Cumulative wall time of memo hits (key assembly + probe), ns.
    pub pred_cache_hit_ns: u64,
    /// Cumulative gemm rows executed by resident runs (a chunk counts
    /// all its members — it reruns whole when any member is new).
    pub rows_run: u64,
    /// Cumulative wavefront chunks executed by resident runs.
    pub steps_run: u64,
}

impl ProgramStats {
    /// Logical-to-physical row ratio of the resident set: `> 1.0` means
    /// CSE is actively shrinking the gemms (1.0 = no sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.shared_rows == 0 {
            1.0
        } else {
            self.logical_nodes as f64 / self.shared_rows as f64
        }
    }

    /// Fraction of feature lookups served from the cache.
    pub fn feat_hit_rate(&self) -> f64 {
        let total = self.feat_cache_hits + self.feat_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.feat_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of whole-plan predict probes served from the memo.
    pub fn pred_hit_rate(&self) -> f64 {
        let total = self.pred_cache_hits + self.pred_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.pred_cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} resident plans, {} nodes -> {} gemm rows (dedup {:.2}x), \
             {} steps / {} levels, feature cache {} shapes ({:.0}% hit), \
             plan memo {} plans ({:.0}% hit), ran {} steps / {} rows",
            self.resident_plans,
            self.logical_nodes,
            self.shared_rows,
            self.dedup_ratio(),
            self.steps,
            self.levels,
            self.feat_cache_entries,
            self.feat_hit_rate() * 100.0,
            self.pred_cache_entries,
            self.pred_hit_rate() * 100.0,
            self.steps_run,
            self.rows_run,
        )
    }
}

/// Default per-shard entry cap of the whole-plan [`PredictionCache`].
/// A memoized plan key is a few hundred words at paper-tier plan sizes,
/// so 16 Ki entries bound one shard's memo to a few tens of MiB worst
/// case while comfortably covering any templated workload's working set.
pub const PREDICTION_CACHE_MAX_ENTRIES: usize = 1 << 14;

/// Exact-match memo from a **lossless whole-plan key** to the decoded,
/// envelope-clamped root prediction — the per-shard cache that turns an
/// exact repeat of a served plan into a hash probe instead of a run.
///
/// The key is not a hash of the plan: it is a parseable *encoding* of
/// everything the prediction depends on — the clamp mode, the node
/// count, and per post-order node its 12 [`NodeContentKey`] content
/// words followed by its CSR child positions. An [`Fnv1a`] digest of
/// those words only **routes** a probe to a bucket; full key-word
/// equality **decides** the hit, so digest collisions are disambiguated
/// by comparison and false positives are impossible. A hit is therefore
/// bitwise-equal to a fresh run by construction: the content key is the
/// same lossless superset featurization reads (see
/// [`FeatureCache`]), the structure words pin the exact gemm inputs,
/// and the model itself cannot change under the cache — builders borrow
/// the fitted parts for `'m`, and across tenants each stream (and its
/// shard caches) lives under its model's checkpoint fingerprint in
/// [`crate::Tenants`], so a different checkpoint is a different cache.
///
/// Memory is bounded by the same generational-reset idiom as
/// [`FeatureCache`]: inserting at the entry cap clears the whole memo
/// (counted in `evictions`) rather than paying per-entry LRU
/// bookkeeping on the hit path.
#[derive(Debug)]
pub struct PredictionCache {
    /// Key digest → entries whose full key words fold to it. The inner
    /// vec is almost always a singleton; it exists so digest collisions
    /// are harmless rather than wrong.
    buckets: HashMap<u64, Vec<(Vec<u64>, f64)>>,
    entries: usize,
    max_entries: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    hit_ns: u64,
}

impl Default for PredictionCache {
    fn default() -> PredictionCache {
        PredictionCache::new()
    }
}

impl PredictionCache {
    /// An empty memo with the default entry cap
    /// ([`PREDICTION_CACHE_MAX_ENTRIES`]).
    pub fn new() -> PredictionCache {
        PredictionCache {
            buckets: HashMap::new(),
            entries: 0,
            max_entries: PREDICTION_CACHE_MAX_ENTRIES,
            hits: 0,
            misses: 0,
            evictions: 0,
            hit_ns: 0,
        }
    }

    /// Replaces the entry cap (clamped to at least 1). Takes effect at
    /// the next insert; existing entries are kept until then.
    pub fn set_max_entries(&mut self, max_entries: usize) {
        self.max_entries = max_entries.max(1);
    }

    /// Routing digest of a key's words (FNV-1a, same mixer as
    /// [`ScratchPlan::shard_hash`] — deterministic across platforms and
    /// runs).
    fn digest(key: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        for &w in key {
            h.mix(w);
        }
        h.finish()
    }

    /// Probes the memo. A hit compares the full key words; counters are
    /// bumped either way. Allocation-free.
    fn lookup(&mut self, key: &[u64]) -> Option<f64> {
        let hit = self
            .buckets
            .get(&Self::digest(key))
            .and_then(|b| b.iter().find(|(k, _)| k == key))
            .map(|&(_, v)| v);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Memoizes `value` under `key`, generationally resetting first when
    /// the cap is reached. Re-inserting a present key is a no-op (the
    /// value would be bit-identical anyway — see the type docs).
    fn insert(&mut self, key: &[u64], value: f64) {
        if self.entries >= self.max_entries {
            self.evictions += self.entries as u64;
            self.buckets.clear();
            self.entries = 0;
        }
        let bucket = self.buckets.entry(Self::digest(key)).or_default();
        if bucket.iter().any(|(k, _)| k == key) {
            return;
        }
        bucket.push((key.to_vec(), value));
        self.entries += 1;
    }

    /// Entries memoized in the current generation.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Probes answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by generational resets.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cumulative wall time of hits (key assembly + probe), ns.
    pub fn hit_ns(&self) -> u64 {
        self.hit_ns
    }
}

/// A mutable, incrementally-maintained wavefront program over a resident
/// plan set: the streaming counterpart of [`crate::infer::PlanProgram`].
///
/// Obtain one from [`crate::QppNet::serve_stream`] (the builder borrows
/// the fitted model, so a refit while a builder is live is a *compile
/// error* rather than a stale-program panic), then drive the admission
/// loop:
///
/// ```
/// use qppnet::{QppConfig, QppNet};
/// use qpp_plansim::prelude::*;
///
/// let ds = Dataset::generate(Workload::TpcH, 1.0, 24, 3);
/// let mut model = QppNet::new(QppConfig { epochs: 1, ..QppConfig::tiny() }, &ds.catalog);
/// model.fit(&ds.plans.iter().take(16).collect::<Vec<_>>());
///
/// let mut stream = model.serve_stream();
/// let mut window = std::collections::VecDeque::new();
/// for plan in &ds.plans {
///     let id = stream.admit(&plan.root);
///     window.push_back(id);
///     let _latency_ms = stream.predict_root(id); // admission decision
///     if window.len() > 8 {
///         stream.retire(window.pop_front().unwrap()); // query finished
///     }
/// }
/// assert_eq!(stream.len(), 8);
/// println!("{}", stream.stats());
/// ```
///
/// Predictions equal a fresh [`crate::infer::PlanProgram::compile`] of
/// the resident set bit for bit (see the module docs for why), so the
/// builder is purely an asymptotic win: admission costs O(plan) instead
/// of O(resident batch).
pub struct ProgramBuilder<'m> {
    featurizer: &'m Featurizer,
    whitener: &'m Whitener,
    units: &'m UnitSet,
    codec: &'m TargetCodec,
    caps: Option<&'m RatioCaps>,
    out_w: usize,
    /// Packed-panel kernel state (`qpp_nn::packed`), built **once** in
    /// [`ProgramBuilder::new`]: the `'m` borrow of `units` guarantees the
    /// weights cannot change for the builder's whole lifetime, so the
    /// resident stream never pays a repack — unlike the batch
    /// [`crate::infer::PlanProgram`], which takes units per call.
    packed: PackedUnits,

    /// Wavefront chunk slab; entries listed in no `wavefronts` value are
    /// retired and await reuse via `step_free`.
    steps: Vec<Step>,
    /// Member slot → shared-node id, parallel to `steps` (back-pointers
    /// for the swap-remove compaction on retire).
    step_nodes: Vec<Vec<u32>>,
    step_free: Vec<u32>,
    /// Live chunk ids per `(height, family)` wavefront; BTreeMap order is
    /// the execution order (heights ascending, families stable).
    wavefronts: BTreeMap<(u32, u8), Vec<u32>>,
    /// Per-chunk staleness, parallel to `steps`: set when `place` writes
    /// a new member, cleared once a run has computed the chunk (and when
    /// the chunk empties). A run executes only stale chunks.
    stale: Vec<bool>,
    /// Cached schedule: every live chunk id in execution order (the
    /// height levels ascending, flattened), rebuilt in place after
    /// topology changes.
    schedule: Vec<u32>,
    schedule_dirty: bool,
    /// The stale part of `schedule` a run executes (reused scratch).
    todo: Vec<u32>,
    /// Per-position predictions of the plan being decoded (reused
    /// scratch, so a root predict allocates nothing once warm).
    decoded: Vec<f64>,
    /// Cumulative work of [`ProgramBuilder::run`] (see [`ProgramStats`]).
    rows_run: u64,
    steps_run: u64,

    /// Unique-subtree slab + free list.
    nodes: Vec<SharedNode>,
    node_free: Vec<u32>,
    live_nodes: usize,
    /// Exact subtree key → shared-node id (the CSE map).
    cse: HashMap<SubtreeKey, u32>,
    cse_hits: u64,

    feat_cache: FeatureCache<NodeContentKey>,
    feat_scratch: Vec<f32>,
    child_scratch: Vec<usize>,
    /// Reusable lowering target of [`ProgramBuilder::admit`].
    tree_scratch: ScratchPlan,
    /// Whole-plan → prediction memo (see [`PredictionCache`]).
    pred_cache: PredictionCache,
    /// Reusable whole-plan key words; a warm probe assembles the key
    /// here without touching the allocator.
    key_scratch: Vec<u64>,

    /// `shared rows × out_w`; row `r` holds node `r`'s `(latency ⌢ data)`.
    /// Retired rows are recycled through `row_free` before the matrix
    /// grows.
    outputs: Matrix,
    row_free: Vec<usize>,

    pool: BufferPool,

    plans: BTreeMap<u64, Resident>,
    next_id: u64,
    logical_nodes: usize,
}

impl<'m> ProgramBuilder<'m> {
    /// Creates an empty resident program against a fitted model's parts.
    /// Most callers want [`crate::QppNet::serve_stream`], which wires the
    /// fitted state (and the configured clamping policy) automatically.
    pub fn new(
        featurizer: &'m Featurizer,
        whitener: &'m Whitener,
        units: &'m UnitSet,
        codec: &'m TargetCodec,
        caps: Option<&'m RatioCaps>,
    ) -> ProgramBuilder<'m> {
        let out_w = units.out_size();
        ProgramBuilder {
            featurizer,
            whitener,
            packed: PackedUnits::pack(units),
            units,
            codec,
            caps,
            out_w,
            steps: Vec::new(),
            step_nodes: Vec::new(),
            step_free: Vec::new(),
            wavefronts: BTreeMap::new(),
            stale: Vec::new(),
            schedule: Vec::new(),
            schedule_dirty: false,
            todo: Vec::new(),
            decoded: Vec::new(),
            rows_run: 0,
            steps_run: 0,
            nodes: Vec::new(),
            node_free: Vec::new(),
            live_nodes: 0,
            cse: HashMap::new(),
            cse_hits: 0,
            feat_cache: FeatureCache::new(),
            feat_scratch: Vec::new(),
            child_scratch: Vec::new(),
            tree_scratch: ScratchPlan::new(),
            pred_cache: PredictionCache::new(),
            key_scratch: Vec::new(),
            outputs: Matrix::zeros(0, out_w),
            row_free: Vec::new(),
            pool: BufferPool::new(),
            plans: BTreeMap::new(),
            next_id: 0,
            logical_nodes: 0,
        }
    }

    /// Admits one plan into the resident program without touching the
    /// rest of the batch: every node either maps onto an existing shared
    /// subtree (CSE hit — no new rows at all) or is appended into the
    /// open chunk of its `(height, family)` wavefront, featurizing only
    /// shapes the cache has never seen.
    ///
    /// # Panics
    /// Panics if a node's child count does not match its family's arity
    /// (a malformed plan), or if feature sizes disagree with the fitted
    /// model (a featurizer/model mismatch).
    pub fn admit(&mut self, root: &PlanNode) -> PlanId {
        let mut plan = std::mem::take(&mut self.tree_scratch);
        plan.rebuild_from_tree(root);
        let id = self.admit_plan(&plan);
        self.tree_scratch = plan;
        id
    }

    /// [`ProgramBuilder::admit`] of a plan already in [`ScratchPlan`]
    /// form — the one admission core behind every surface (tree admits,
    /// sharded admits, one-shot and kept admit-predicts).
    fn admit_plan(&mut self, plan: &ScratchPlan) -> PlanId {
        let n = plan.len();
        let lowering = plan.lowering();
        // Validate the whole plan BEFORE touching any builder state, so a
        // rejection is atomic — a caller that catches the panic keeps a
        // consistent resident program with no orphaned rows. Two checks,
        // both hard asserts exactly as in `PlanProgram::compile`: arity
        // (plans can arrive from unvalidated JSON) and the
        // featurizer-vs-model shape agreement (a miswired builder).
        assert!(n > 0, "plans are non-empty");
        for (k, &kind) in plan.kinds().iter().enumerate() {
            assert_eq!(
                lowering.children_of(k).len(),
                kind.arity(),
                "malformed plan: {kind:?} node with {} children (arity {})",
                lowering.children_of(k).len(),
                kind.arity()
            );
            assert_eq!(
                self.featurizer.feature_size(kind) + kind.arity() * self.out_w,
                self.units.unit(kind).in_dim(),
                "feature/model shape mismatch for {kind:?}"
            );
        }
        let mut node_ids: Vec<u32> = Vec::with_capacity(n);
        let mut rows: Vec<usize> = Vec::with_capacity(n);
        let mut feat = std::mem::take(&mut self.feat_scratch);
        let mut child_rows = std::mem::take(&mut self.child_scratch);

        for (k, node) in plan.nodes().iter().enumerate() {
            let kind = plan.kinds[k];
            let content = plan.contents[k];
            let kids = lowering.children_of(k);
            let mut ids = [0; 2];
            for (id, &c) in ids.iter_mut().zip(kids) {
                *id = node_ids[c];
            }
            let key = SubtreeKey::new(content, &ids[..kids.len()]);
            if let Some(&id) = self.cse.get(&key) {
                // An identical subtree is already resident: share its rows.
                self.nodes[id as usize].refs += 1;
                self.cse_hits += 1;
                rows.push(self.nodes[id as usize].row);
                node_ids.push(id);
                continue;
            }
            self.feat_cache.features_into(self.featurizer, self.whitener, node, content, &mut feat);
            // Shape agreement was pre-validated above; this only guards
            // the featurizer returning a row of its own declared size.
            debug_assert_eq!(
                feat.len() + kind.arity() * self.out_w,
                self.units.unit(kind).in_dim(),
                "feature/model shape mismatch for {kind:?}"
            );
            let height = lowering.height_of(k) as u32;
            let row = self.alloc_row();
            child_rows.clear();
            child_rows.extend(key.children().iter().map(|&c| self.nodes[c as usize].row));
            let nid = self.alloc_node();
            let (step, slot) = self.place(height, kind, &feat, &child_rows, nid, row);
            self.nodes[nid as usize] =
                SharedNode { row, refs: 1, step, slot, height, key };
            self.cse.insert(key, nid);
            self.live_nodes += 1;
            rows.push(row);
            node_ids.push(nid);
        }

        self.feat_scratch = feat;
        self.child_scratch = child_rows;
        self.logical_nodes += n;
        self.schedule_dirty = true;
        let id = self.next_id;
        self.next_id += 1;
        let resident =
            Resident { lowering: lowering.clone(), kinds: plan.kinds.clone(), node_ids, rows };
        self.plans.insert(id, resident);
        PlanId(id)
    }

    /// Retires a resident plan: every position drops one reference on its
    /// shared subtree, and subtrees reaching zero are released — their
    /// chunk slots compacted by swap-remove and their output rows pushed
    /// onto the free-list for the next admission. Other plans' rows (and
    /// predictions, bit for bit) are unaffected.
    ///
    /// # Panics
    /// Panics if `id` is unknown or already retired.
    pub fn retire(&mut self, id: PlanId) {
        let plan = self
            .plans
            .remove(&id.0)
            .unwrap_or_else(|| panic!("plan {id:?} is not resident (already retired?)"));
        self.logical_nodes -= plan.node_ids.len();
        for &nid in &plan.node_ids {
            let node = &mut self.nodes[nid as usize];
            node.refs -= 1;
            if node.refs == 0 {
                self.release_node(nid);
            }
        }
        self.schedule_dirty = true;
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Whether `id` is currently resident.
    pub fn contains(&self, id: PlanId) -> bool {
        self.plans.contains_key(&id.0)
    }

    /// Ids of all resident plans, in admission order.
    pub fn resident(&self) -> Vec<PlanId> {
        self.plans.keys().map(|&k| PlanId(k)).collect()
    }

    /// Aggregate statistics of the resident program (see
    /// [`ProgramStats`]).
    pub fn stats(&self) -> ProgramStats {
        let mut levels = 0;
        let mut cur = None;
        for &(h, _) in self.wavefronts.keys() {
            if cur != Some(h) {
                levels += 1;
                cur = Some(h);
            }
        }
        ProgramStats {
            resident_plans: self.plans.len(),
            logical_nodes: self.logical_nodes,
            shared_rows: self.live_nodes,
            steps: self.steps.len() - self.step_free.len(),
            levels,
            feat_cache_entries: self.feat_cache.len(),
            feat_cache_hits: self.feat_cache.hits(),
            feat_cache_misses: self.feat_cache.misses(),
            cse_hits: self.cse_hits,
            pred_cache_entries: self.pred_cache.len(),
            pred_cache_hits: self.pred_cache.hits(),
            pred_cache_misses: self.pred_cache.misses(),
            pred_cache_evictions: self.pred_cache.evictions(),
            pred_cache_hit_ns: self.pred_cache.hit_ns(),
            rows_run: self.rows_run,
            steps_run: self.steps_run,
        }
    }

    /// Decoded root-latency prediction (milliseconds) for one resident
    /// plan. Only the chunks holding rows admitted since the last run
    /// execute; when every row is already computed this is a decode.
    /// Clamped onto the structural envelope when the builder was created
    /// with ratio caps (i.e. the model's configured policy).
    pub fn predict_root(&mut self, id: PlanId) -> f64 {
        self.run();
        self.decode_root(id)
    }

    /// Root predictions for every resident plan, in admission order.
    pub fn predict_roots(&mut self) -> Vec<f64> {
        self.run();
        let ids: Vec<u64> = self.plans.keys().copied().collect();
        ids.into_iter().map(|id| self.decode_root(PlanId(id))).collect()
    }

    /// Per-operator latency predictions (post order, milliseconds) for
    /// one resident plan.
    pub fn predict_all(&mut self, id: PlanId) -> Vec<f64> {
        self.run();
        let mut preds = Vec::new();
        self.decode_plan_into(id, &mut preds);
        preds
    }

    /// One-shot root prediction of a non-resident plan: a whole-plan memo
    /// probe, and on a miss admit → run → decode → retire on this
    /// builder, then a memo insert. The run executes only stale chunks
    /// (module docs, fact 4), so against a freshly-run resident program
    /// it computes just the chunks the plan's new rows joined; rows the
    /// plan shares with resident plans (CSE) are read, not recomputed.
    /// This is the serve fast path behind `admit_predict` with immediate
    /// retire; the result equals `admit` → `predict_root` → `retire` bit
    /// for bit because it *is* that sequence. Only a memo hit is
    /// allocation-free.
    ///
    /// # Panics
    /// Panics, before touching any state, on a malformed plan or a
    /// featurizer/model shape mismatch (the [`ProgramBuilder::admit`]
    /// contract); the serve fast path pre-checks arity via
    /// [`ScratchPlan::arity_ok`].
    pub fn predict_oneshot(&mut self, plan: &ScratchPlan) -> OneshotRun {
        if let Some(latency_ms) = self.cache_probe(plan) {
            return OneshotRun { latency_ms, featurize_ns: 0, run_ns: 0, cache_hit: true };
        }
        let t0 = std::time::Instant::now();
        let id = self.admit_plan(plan);
        let featurize_ns = t0.elapsed().as_nanos() as u64;
        let t1 = std::time::Instant::now();
        let latency_ms = self.predict_root(id);
        self.retire(id);
        let run_ns = t1.elapsed().as_nanos() as u64;
        // `key_scratch` still holds this plan's key from the missed probe
        // above — admission, the run and retire never touch it.
        self.pred_cache.insert(&self.key_scratch, latency_ms);
        OneshotRun { latency_ms, featurize_ns, run_ns, cache_hit: false }
    }

    /// Kept admit-predict: admits `plan` (it stays resident under the
    /// returned id), then answers its root prediction from the whole-plan
    /// memo, running the stale chunks and seeding the memo only on a
    /// miss. A hit leaves the new rows stale for the next run that needs
    /// them (module docs, fact 4); the bits equal `admit` →
    /// `predict_root` either way.
    fn admit_predict(&mut self, plan: &ScratchPlan) -> (PlanId, f64) {
        let id = self.admit_plan(plan);
        if let Some(latency_ms) = self.cache_probe(plan) {
            return (id, latency_ms);
        }
        let latency_ms = self.predict_root(id);
        // The run never touches `key_scratch`, so it still holds this
        // plan's key from the missed probe.
        self.pred_cache.insert(&self.key_scratch, latency_ms);
        (id, latency_ms)
    }

    /// Caps the prediction memo's entry count (generational reset on
    /// overflow; see [`PredictionCache`]).
    pub fn set_prediction_cache_capacity(&mut self, max_entries: usize) {
        self.pred_cache.set_max_entries(max_entries);
    }

    /// Assembles the lossless whole-plan key of `plan` into
    /// `key_scratch`: `[clamp mode, node count, (content words ⌢ child
    /// count ⌢ child positions) per post-order node]`. The encoding
    /// parses back unambiguously left to right, so equal keys mean equal
    /// plans (and equal clamp policy) — never merely equal hashes.
    fn scratch_key(&mut self, plan: &ScratchPlan) {
        let key = &mut self.key_scratch;
        key.clear();
        key.push(self.caps.is_some() as u64);
        key.push(plan.len() as u64);
        for k in 0..plan.len() {
            key.extend_from_slice(plan.contents[k].words());
            let kids = plan.lowering.children_of(k);
            key.push(kids.len() as u64);
            key.extend(kids.iter().map(|&c| c as u64));
        }
    }

    /// Memo probe for one plan; counts a hit or miss. The key lives in
    /// reusable scratch, so a warm probe — hit or miss — never allocates.
    fn cache_probe(&mut self, plan: &ScratchPlan) -> Option<f64> {
        let tc = std::time::Instant::now();
        self.scratch_key(plan);
        let hit = self.pred_cache.lookup(&self.key_scratch);
        if hit.is_some() {
            self.pred_cache.hit_ns += tc.elapsed().as_nanos() as u64;
        }
        hit
    }

    /// True when some live chunk holds a row no run has computed yet.
    fn has_stale(&self) -> bool {
        self.stale.contains(&true)
    }

    /// Executes the stale chunks of the resident program on the calling
    /// thread (rebuilding the level schedule if admissions/retirements
    /// dirtied it), leaving every live output row fresh for decoding.
    /// Fresh chunks are skipped — their rows are still what a full run
    /// would write (module docs, fact 4).
    fn run(&mut self) {
        if !self.has_stale() {
            return;
        }
        self.ensure_schedule();
        let stale = &self.stale;
        self.todo.clear();
        self.todo.extend(self.schedule.iter().copied().filter(|&s| stale[s as usize]));
        run_steps_seq(
            &mut self.steps,
            self.todo.iter().copied(),
            &self.packed,
            &mut self.outputs,
            &mut self.pool,
            self.out_w,
        );
        // Cleared only now: a run that panicked above leaves its chunks
        // stale, so the next predict recomputes rather than decoding
        // half-written rows.
        for &s in &self.todo {
            self.stale[s as usize] = false;
            self.steps_run += 1;
            self.rows_run += self.steps[s as usize].rows.len() as u64;
        }
    }

    /// Decodes (and, under caps, envelope-clamps) one resident plan's
    /// per-position predictions from the freshly-run output buffer into
    /// `preds`.
    fn decode_plan_into(&self, id: PlanId, preds: &mut Vec<f64>) {
        let plan = self
            .plans
            .get(&id.0)
            .unwrap_or_else(|| panic!("plan {id:?} is not resident (already retired?)"));
        preds.clear();
        preds.extend(plan.rows.iter().map(|&r| self.codec.decode(self.outputs.get(r, 0))));
        if let Some(caps) = self.caps {
            clamp_plan_envelope(preds, &plan.lowering, &plan.kinds, caps);
        }
    }

    /// The decoded root prediction of one resident plan, decoded through
    /// the builder's scratch.
    fn decode_root(&mut self, id: PlanId) -> f64 {
        let mut preds = std::mem::take(&mut self.decoded);
        self.decode_plan_into(id, &mut preds);
        let root = *preds.last().expect("plans are non-empty");
        self.decoded = preds;
        root
    }

    /// Rebuilds the cached schedule from the wavefront map (heights
    /// ascending, families in stable order, chunks in insertion order),
    /// in place.
    fn ensure_schedule(&mut self) {
        if !self.schedule_dirty {
            return;
        }
        self.schedule.clear();
        for ids in self.wavefronts.values() {
            self.schedule.extend_from_slice(ids);
        }
        self.schedule_dirty = false;
    }

    /// Takes a free output row, growing the buffer only when the
    /// free-list is dry.
    fn alloc_row(&mut self) -> usize {
        match self.row_free.pop() {
            Some(r) => r,
            None => {
                let r = self.outputs.rows();
                self.outputs.resize_for_overwrite(r + 1, self.out_w);
                r
            }
        }
    }

    /// Takes a free shared-node slot (contents are overwritten by the
    /// caller).
    fn alloc_node(&mut self) -> u32 {
        match self.node_free.pop() {
            Some(n) => n,
            None => {
                self.nodes.push(SharedNode::default());
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Appends one node into its `(height, family)` wavefront: the first
    /// open chunk takes it; a fresh chunk (possibly recycled from the
    /// step free-list) is opened only when all are at the cache-sized
    /// member limit. Returns `(step id, slot)`.
    fn place(
        &mut self,
        height: u32,
        kind: OpKind,
        feat: &[f32],
        child_rows: &[usize],
        nid: u32,
        row: usize,
    ) -> (u32, u32) {
        let arity = kind.arity();
        let in_dim = feat.len() + arity * self.out_w;
        let wf = self.wavefronts.entry((height, kind.index() as u8)).or_default();
        let open =
            wf.iter().copied().find(|&s| self.steps[s as usize].rows.len() < STEP_CHUNK_ROWS);
        let sid = match open {
            Some(s) => s,
            None => {
                let s = match self.step_free.pop() {
                    Some(s) => {
                        let step = &mut self.steps[s as usize];
                        step.kind = kind;
                        step.arity = arity;
                        step.feat_width = feat.len();
                        step.rows.clear();
                        step.child_rows.clear();
                        // The chunk may be recycled across families with a
                        // larger shape (e.g. Scan -> Join): re-reserve to
                        // full chunk capacity now so the per-admission hot
                        // path below never reallocates.
                        step.child_rows.reserve(STEP_CHUNK_ROWS * arity);
                        step.input.resize_for_overwrite(0, in_dim);
                        step.input.reserve_row_capacity(STEP_CHUNK_ROWS);
                        self.step_nodes[s as usize].clear();
                        s
                    }
                    None => {
                        self.steps.push(Step {
                            kind,
                            rows: Vec::with_capacity(STEP_CHUNK_ROWS),
                            child_rows: Vec::with_capacity(STEP_CHUNK_ROWS * arity),
                            arity,
                            feat_width: feat.len(),
                            input: Matrix::with_row_capacity(STEP_CHUNK_ROWS, in_dim),
                        });
                        self.step_nodes.push(Vec::with_capacity(STEP_CHUNK_ROWS));
                        self.stale.push(true);
                        (self.steps.len() - 1) as u32
                    }
                };
                wf.push(s);
                s
            }
        };
        let step = &mut self.steps[sid as usize];
        debug_assert_eq!(step.feat_width, feat.len(), "inconsistent feature size for {kind:?}");
        let slot = step.input.push_zero_row();
        step.input.row_mut(slot)[..feat.len()].copy_from_slice(feat);
        step.rows.push(row);
        step.child_rows.extend_from_slice(child_rows);
        self.step_nodes[sid as usize].push(nid);
        self.stale[sid as usize] = true;
        (sid, slot as u32)
    }

    /// Releases a zero-reference shared node: removes its CSE entry,
    /// compacts its chunk (swap-remove, fixing the moved member's
    /// back-pointer), drops the chunk entirely when it empties, and
    /// recycles the output row.
    fn release_node(&mut self, nid: u32) {
        let node = &self.nodes[nid as usize];
        let (key, sid, slot, height, row) =
            (node.key, node.step as usize, node.slot as usize, node.height, node.row);
        let removed = self.cse.remove(&key);
        debug_assert_eq!(removed, Some(nid), "CSE map out of sync with node slab");

        let step = &mut self.steps[sid];
        let last = step.rows.len() - 1;
        step.rows.swap_remove(slot);
        step.input.swap_remove_row(slot);
        if step.arity > 0 {
            let a = step.arity;
            for j in 0..a {
                step.child_rows[slot * a + j] = step.child_rows[last * a + j];
            }
            step.child_rows.truncate(last * a);
        }
        let members = &mut self.step_nodes[sid];
        members.swap_remove(slot);
        if slot < members.len() {
            let moved = members[slot] as usize;
            self.nodes[moved].slot = slot as u32;
        }
        if step.rows.is_empty() {
            let kind_idx = step.kind.index() as u8;
            let wf = self.wavefronts.get_mut(&(height, kind_idx)).expect("wavefront exists");
            let pos = wf.iter().position(|&s| s == sid as u32).expect("chunk in wavefront");
            wf.swap_remove(pos);
            if wf.is_empty() {
                self.wavefronts.remove(&(height, kind_idx));
            }
            self.stale[sid] = false;
            self.step_free.push(sid as u32);
        }
        self.row_free.push(row);
        self.node_free.push(nid);
        self.live_nodes -= 1;
    }
}

/// A plan decoded straight into lowering-ready form, bypassing the
/// `PlanNode` tree: post-order node records (children lists live in the
/// CSR [`Lowering`], so each stored node's own `children` vec stays
/// empty — every consumer of a node's content is node-local, see
/// [`NodeContentKey`]), the per-position [`OpKind`]s, and the bottom-up
/// shard hash per position (see [`ScratchPlan::shard_hash`]).
///
/// This is the one lowered plan form of the stream layer: every
/// admission, memo key and shard route reads it. It is also the reusable
/// target of the serve fast path's scratch decoder
/// (`crate::serve::scratch`): [`ScratchPlan::clear`] keeps every
/// allocation, so a warm instance rebuilds from wire bytes without
/// touching the allocator. It is also valid mid-construction — a decoder
/// hitting a duplicate JSON key can [`ScratchPlan::truncate`] back to a
/// mark and re-parse (last-wins semantics) because post-order suffixes
/// are self-contained.
#[derive(Default)]
pub struct ScratchPlan {
    nodes: Vec<PlanNode>,
    kinds: Vec<OpKind>,
    lowering: Lowering,
    hashes: Vec<u64>,
    /// Per-position content keys, captured during the same single-pass
    /// scan that computes `hashes` — the whole-plan memo key and the
    /// featurization pass both read these without re-deriving them.
    contents: Vec<NodeContentKey>,
}

impl ScratchPlan {
    /// An empty plan (no capacity reserved yet).
    pub fn new() -> ScratchPlan {
        ScratchPlan::default()
    }

    /// Resets to empty, keeping all capacity. Must be called before each
    /// rebuild; [`ScratchPlan::seal`] finishes one.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.kinds.clear();
        self.lowering.clear();
        self.hashes.clear();
        self.contents.clear();
    }

    /// Appends one post-order node whose children are the already-pushed
    /// positions `kids` (in order), returning its position. `node.children`
    /// must be empty — the child structure lives only in the CSR.
    pub fn push_node(&mut self, node: PlanNode, kids: &[usize]) -> usize {
        debug_assert!(node.children.is_empty(), "scratch nodes carry no child vecs");
        let content = NodeContentKey::of(&node);
        let mut h = Fnv1a::new();
        for &w in content.words() {
            h.mix(w);
        }
        for &c in kids {
            h.mix(self.hashes[c]);
        }
        self.hashes.push(h.finish());
        self.contents.push(content);
        self.kinds.push(node.op.kind());
        self.nodes.push(node);
        self.lowering.push_node(kids)
    }

    /// Discards every position from `n` on (a decoder backing out of a
    /// re-parsed or semantically-bad subtree range).
    pub fn truncate(&mut self, n: usize) {
        self.nodes.truncate(n);
        self.kinds.truncate(n);
        self.hashes.truncate(n);
        self.contents.truncate(n);
        self.lowering.truncate_nodes(n);
    }

    /// Finishes construction (writes the CSR sentinel). Call exactly once
    /// per rebuild, after the last [`ScratchPlan::push_node`].
    pub fn seal(&mut self) {
        self.lowering.seal();
    }

    /// Rebuilds from an ordinary plan tree (post-order traversal) — how
    /// every tree-shaped surface lowers its plans. The serve fast path
    /// decodes straight from wire bytes instead.
    pub fn rebuild_from_tree(&mut self, root: &PlanNode) {
        fn rec(sp: &mut ScratchPlan, node: &PlanNode, kid_stack: &mut Vec<usize>) -> usize {
            let mark = kid_stack.len();
            for c in &node.children {
                let pos = rec(sp, c, kid_stack);
                kid_stack.push(pos);
            }
            let bare = PlanNode {
                op: node.op.clone(),
                est: node.est,
                actual: node.actual,
                learned_rows: node.learned_rows,
                concurrency: node.concurrency,
                children: Vec::new(),
            };
            let pos = sp.push_node(bare, &kid_stack[mark..]);
            kid_stack.truncate(mark);
            pos
        }
        self.clear();
        rec(self, root, &mut Vec::new());
        self.seal();
    }

    /// Nodes pushed so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when every position's child count matches its operator
    /// family's arity (the check `ProgramBuilder::admit` enforces by
    /// panic; the fast path rejects before running instead).
    pub fn arity_ok(&self) -> bool {
        (0..self.len())
            .all(|k| self.lowering.children_of(k).len() == self.kinds[k].arity())
    }

    /// Deterministic shard-routing hash of the whole plan: FNV-1a folded
    /// over each node's lossless [`NodeContentKey`] words plus its
    /// children's hashes, read at the root (the last post-order
    /// position). Structurally identical plans always land on the same
    /// shard — which is what lets the per-shard CSE maps, feature caches
    /// and memos keep their hit rates under sharding — and the routing is
    /// stable across platforms and runs (no pointer or insertion-order
    /// dependence). Zero on an empty plan.
    pub fn shard_hash(&self) -> u64 {
        self.hashes.last().copied().unwrap_or(0)
    }

    /// Post-order node records (children vecs intentionally empty).
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Per-position operator families.
    pub fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    /// The CSR child structure.
    pub fn lowering(&self) -> &Lowering {
        &self.lowering
    }
}

/// Timing breakdown of one [`ProgramBuilder::predict_oneshot`] call —
/// the serve fast path folds these into its per-phase counters.
#[derive(Debug, Clone, Copy)]
pub struct OneshotRun {
    /// Decoded (and, under caps, envelope-clamped) root-latency
    /// prediction in milliseconds.
    pub latency_ms: f64,
    /// Wall time of the admission into the resident builder (CSE lookups,
    /// feature-cache lookups, chunk placement). Zero on a memo hit.
    pub featurize_ns: u64,
    /// Wall time of the run + decode + clamp + retire. Zero on a memo
    /// hit.
    pub run_ns: u64,
    /// True when the prediction was served from the whole-plan memo
    /// ([`PredictionCache`]) instead of running the kernels. Bitwise
    /// equality holds either way.
    pub cache_hit: bool,
}

/// Shard-per-core resident serving: `S` independent [`ProgramBuilder`]
/// shards behind one front door. [`ShardedStream::admit`] routes each
/// plan to a shard by [content hash](NodeContentKey), so admissions to
/// different shards touch disjoint state, and a whole-set prediction
/// runs the stale shards concurrently, one resident [`Executor`] worker
/// per shard ([`ShardedStream::predict_roots_threaded`]). This is the
/// builder's only multicore mode: a one-shot plan (tens of nodes) has
/// nothing worth splitting across threads.
///
/// # Determinism
///
/// Per-plan predictions are **bit-identical** to admitting the same plans
/// into a single [`ProgramBuilder`] (and to a fresh
/// [`crate::infer::PlanProgram::compile`]) at every fan-out and shard
/// count. Each shard is a complete, self-contained wavefront program, and
/// its schedule executes *sequentially* on whichever worker it is dealt
/// to — parallelism is across shards, never within one — so the per-shard
/// bits are the single-threaded bits by construction, and those equal the
/// single-builder bits by the row-invariance + lossless-cache argument in
/// the [module docs](self). `tests/executor_differential.rs` holds random
/// admit/retire/predict interleavings across shards to exact equality
/// against a single builder at 1/2/4/8 fan-out.
///
/// Obtain one from [`crate::QppNet::serve_sharded`]; the stream carries
/// the model's fingerprint so a multi-model registry
/// ([`crate::Tenants`]) can key resident streams by fitted identity.
pub struct ShardedStream<'m> {
    shards: Vec<ProgramBuilder<'m>>,
    /// Outer id → (shard index, inner per-shard id); BTreeMap so
    /// admission order is iteration order.
    routes: BTreeMap<u64, (usize, PlanId)>,
    next_id: u64,
    fingerprint: u64,
    /// Reusable lowering target of [`ShardedStream::admit`].
    scratch: ScratchPlan,
}

impl<'m> ShardedStream<'m> {
    /// Creates an empty sharded stream of `shards` independent resident
    /// programs over one fitted model's parts (`fingerprint` stamps the
    /// fitted identity — see [`crate::Tenants`]). Most callers want
    /// [`crate::QppNet::serve_sharded`], which wires everything from the
    /// fitted model. A `shards` of 0 is promoted to 1.
    pub fn new(
        featurizer: &'m Featurizer,
        whitener: &'m Whitener,
        units: &'m UnitSet,
        codec: &'m TargetCodec,
        caps: Option<&'m RatioCaps>,
        shards: usize,
        fingerprint: u64,
    ) -> ShardedStream<'m> {
        let shards = shards.max(1);
        ShardedStream {
            shards: (0..shards)
                .map(|_| ProgramBuilder::new(featurizer, whitener, units, codec, caps))
                .collect(),
            routes: BTreeMap::new(),
            next_id: 0,
            fingerprint,
            scratch: ScratchPlan::new(),
        }
    }

    /// Number of shards (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fingerprint of the fitted model this stream serves (the
    /// multi-model tenancy key — see [`crate::Tenants`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Admits one plan, routed to its content-hash shard. Same atomicity
    /// contract as [`ProgramBuilder::admit`]: a malformed plan panics
    /// before any shard state is touched.
    pub fn admit(&mut self, root: &PlanNode) -> PlanId {
        self.admit_routed(root, |shard, plan| (shard.admit_plan(plan), ())).0
    }

    /// Admits one plan, routed like [`ShardedStream::admit`], and returns
    /// its id with its root prediction: a whole-plan memo hit answers
    /// without running, a miss runs the owning shard's stale chunks and
    /// then seeds the memo. The plan stays resident either way. This is
    /// the daemon's kept `admit_predict`.
    pub fn admit_predict(&mut self, root: &PlanNode) -> (PlanId, f64) {
        self.admit_routed(root, ProgramBuilder::admit_predict)
    }

    /// Lowers `root` into the reusable scratch, hands it to its
    /// content-hash shard's `admit`, and registers the returned inner id
    /// under a fresh outer id.
    fn admit_routed<T>(
        &mut self,
        root: &PlanNode,
        admit: impl FnOnce(&mut ProgramBuilder<'m>, &ScratchPlan) -> (PlanId, T),
    ) -> (PlanId, T) {
        let mut plan = std::mem::take(&mut self.scratch);
        plan.rebuild_from_tree(root);
        let shard = self.shard_of(&plan);
        let (inner, out) = admit(&mut self.shards[shard], &plan);
        self.scratch = plan;
        let id = self.next_id;
        self.next_id += 1;
        self.routes.insert(id, (shard, inner));
        (PlanId(id), out)
    }

    /// The content-hash shard of a plan (see [`ScratchPlan::shard_hash`]).
    fn shard_of(&self, plan: &ScratchPlan) -> usize {
        (plan.shard_hash() % self.shards.len() as u64) as usize
    }

    /// Retires a resident plan from its shard (see
    /// [`ProgramBuilder::retire`]).
    ///
    /// # Panics
    /// Panics if `id` is unknown or already retired.
    pub fn retire(&mut self, id: PlanId) {
        let (shard, inner) = self
            .routes
            .remove(&id.0)
            .unwrap_or_else(|| panic!("plan {id:?} is not resident (already retired?)"));
        self.shards[shard].retire(inner);
    }

    /// Resident plans across all shards.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no plans are resident on any shard.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Whether `id` is currently resident.
    pub fn contains(&self, id: PlanId) -> bool {
        self.routes.contains_key(&id.0)
    }

    /// Ids of all resident plans, in admission order.
    pub fn resident(&self) -> Vec<PlanId> {
        self.routes.keys().map(|&k| PlanId(k)).collect()
    }

    /// Root-latency prediction for one resident plan; only its owning
    /// shard runs, on the calling thread ([`ProgramBuilder::predict_root`]).
    /// The thread count is unused: it stays in the signature only for
    /// existing callers.
    pub fn predict_root_threaded(&mut self, id: PlanId, _threads: usize) -> f64 {
        let &(shard, inner) = self.route(id);
        self.shards[shard].predict_root(inner)
    }

    /// One-shot root prediction of a non-resident plan (see
    /// [`ProgramBuilder::predict_oneshot`]), run on the same content-hash
    /// shard [`ShardedStream::admit`] would pick — so it shares rows with,
    /// and warms exactly the feature cache of, resident admissions of the
    /// same templates.
    pub fn predict_oneshot(&mut self, plan: &ScratchPlan) -> OneshotRun {
        let shard = self.shard_of(plan);
        self.shards[shard].predict_oneshot(plan)
    }

    /// Caps every shard's prediction-memo entry count (see
    /// [`PredictionCache`]).
    pub fn set_prediction_cache_capacity(&mut self, max_entries: usize) {
        for s in &mut self.shards {
            s.set_prediction_cache_capacity(max_entries);
        }
    }

    /// Per-operator predictions (post order, milliseconds) for one
    /// resident plan, from its owning shard.
    pub fn predict_all(&mut self, id: PlanId) -> Vec<f64> {
        let &(shard, inner) = self.route(id);
        self.shards[shard].predict_all(inner)
    }

    /// Root predictions for every resident plan (admission order), with
    /// the stale shards running **concurrently** across up to `threads`
    /// resident workers, each shard's schedule sequential, so the bits
    /// match single-builder execution exactly (see the type docs).
    pub fn predict_roots_threaded(&mut self, threads: usize) -> Vec<f64> {
        self.run_shards(threads);
        let shards = &mut self.shards;
        self.routes.values().map(|&(shard, inner)| shards[shard].decode_root(inner)).collect()
    }

    /// Per-shard statistics, in shard order (the CLI prints one line per
    /// shard in `--stream` mode).
    pub fn shard_stats(&self) -> Vec<ProgramStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Aggregate statistics across all shards (counts sum; note `steps`
    /// and `levels` are per-shard program properties, so their sums
    /// describe total work per coalesced run, not one schedule).
    pub fn stats(&self) -> ProgramStats {
        let mut agg = ProgramStats::default();
        for s in &self.shards {
            let st = s.stats();
            agg.resident_plans += st.resident_plans;
            agg.logical_nodes += st.logical_nodes;
            agg.shared_rows += st.shared_rows;
            agg.steps += st.steps;
            agg.levels += st.levels;
            agg.feat_cache_entries += st.feat_cache_entries;
            agg.feat_cache_hits += st.feat_cache_hits;
            agg.feat_cache_misses += st.feat_cache_misses;
            agg.cse_hits += st.cse_hits;
            agg.pred_cache_entries += st.pred_cache_entries;
            agg.pred_cache_hits += st.pred_cache_hits;
            agg.pred_cache_misses += st.pred_cache_misses;
            agg.pred_cache_evictions += st.pred_cache_evictions;
            agg.pred_cache_hit_ns += st.pred_cache_hit_ns;
            agg.rows_run += st.rows_run;
            agg.steps_run += st.steps_run;
        }
        agg
    }

    fn route(&self, id: PlanId) -> &(usize, PlanId) {
        self.routes
            .get(&id.0)
            .unwrap_or_else(|| panic!("plan {id:?} is not resident (already retired?)"))
    }

    /// Runs the shards that have stale chunks, concurrently when
    /// `threads > 1`: worker `w` executes the `w`-th, `(w + threads)`-th,
    /// … of them — each shard sequentially on that worker's thread, so
    /// per-shard output bits are thread-count-invariant. Each shard is
    /// handed out through its own uncontended lock.
    fn run_shards(&mut self, threads: usize) {
        let mut todo: Vec<&mut ProgramBuilder<'m>> =
            self.shards.iter_mut().filter(|s| s.has_stale()).collect();
        match threads.max(1).min(todo.len()) {
            0 => {}
            1 => todo.iter_mut().for_each(|shard| shard.run()),
            threads => {
                let todo: Vec<Mutex<&mut ProgramBuilder<'m>>> =
                    todo.into_iter().map(Mutex::new).collect();
                // Poison is ignored: a panicking run is re-raised on the
                // caller and leaves its chunks stale for the next run.
                Executor::global().run(threads, &|worker| {
                    for shard in todo.iter().skip(worker).step_by(threads) {
                        shard.lock().unwrap_or_else(PoisonError::into_inner).run();
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{QppConfig, TargetTransform};
    use crate::infer::PlanProgram;
    use crate::lower::lower;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;
    use qpp_plansim::plan::Plan;
    use rand::SeedableRng;

    fn setup(workload: Workload) -> (Dataset, Featurizer, Whitener, UnitSet, TargetCodec) {
        let ds = Dataset::generate(workload, 1.0, 32, 21);
        let fz = Featurizer::new(&ds.catalog);
        let wh = Whitener::fit(&fz, ds.plans.iter());
        let cfg = QppConfig::tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let units = UnitSet::new(&cfg, &fz, &mut rng);
        let codec =
            TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
        (ds, fz, wh, units, codec)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Lowers each plan tree into its own [`ScratchPlan`].
    fn lower_all(roots: &[&PlanNode]) -> Vec<ScratchPlan> {
        roots
            .iter()
            .map(|root| {
                let mut plan = ScratchPlan::new();
                plan.rebuild_from_tree(root);
                plan
            })
            .collect()
    }

    fn fresh_compile_roots(
        fz: &Featurizer,
        wh: &Whitener,
        units: &UnitSet,
        codec: &TargetCodec,
        plans: &[&Plan],
    ) -> Vec<f64> {
        let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(fz, wh, units, &roots);
        program.predict_roots_threaded(units, codec, None, 1)
    }

    #[test]
    fn incremental_admission_matches_fresh_compile_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let mut resident: Vec<&Plan> = Vec::new();
        for plan in ds.plans.iter().take(12) {
            builder.admit(&plan.root);
            resident.push(plan);
            let incremental = builder.predict_roots();
            let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &resident);
            assert_eq!(bits(&incremental), bits(&fresh), "after admitting {}", resident.len());
        }
    }

    #[test]
    fn retirement_leaves_survivors_bit_identical() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let ids: Vec<PlanId> =
            ds.plans.iter().take(10).map(|p| builder.admit(&p.root)).collect();
        // Retire every even admission.
        for id in ids.iter().step_by(2) {
            builder.retire(*id);
        }
        let survivors: Vec<&Plan> = ds.plans.iter().take(10).skip(1).step_by(2).collect();
        let incremental = builder.predict_roots();
        let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &survivors);
        assert_eq!(bits(&incremental), bits(&fresh));
        assert_eq!(builder.len(), survivors.len());
        // Admitting after churn reuses freed rows and still matches.
        builder.admit(&ds.plans[0].root);
        let mut with_new: Vec<&Plan> = survivors.clone();
        with_new.push(&ds.plans[0]);
        assert_eq!(
            bits(&builder.predict_roots()),
            bits(&fresh_compile_roots(&fz, &wh, &units, &codec, &with_new))
        );
    }

    #[test]
    fn clamped_predictions_match_fresh_compile() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let caps = crate::tree::fit_ratio_caps(ds.plans.iter(), 2.0);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, Some(&caps));
        let plans: Vec<&Plan> = ds.plans.iter().take(8).collect();
        let ids: Vec<PlanId> = plans.iter().map(|p| builder.admit(&p.root)).collect();
        let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let fresh = program.predict_roots_threaded(&units, &codec, Some(&caps), 1);
        assert_eq!(bits(&builder.predict_roots()), bits(&fresh));
        // Per-plan predictors agree with the batch view.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(builder.predict_root(*id).to_bits(), fresh[i].to_bits());
        }
        let all = program.predict_all_threaded(&units, &codec, Some(&caps), 1);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(bits(&builder.predict_all(*id)), bits(&all[i]));
        }
    }

    #[test]
    fn cse_dedups_repeated_subplans() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        // A batch containing the same plan four times — the template-heavy
        // stream in miniature. All copies must share one set of rows.
        let plan = ds.plans.iter().max_by_key(|p| p.node_count()).unwrap();
        let ids: Vec<PlanId> = (0..4).map(|_| builder.admit(&plan.root)).collect();
        let stats = builder.stats();
        assert_eq!(stats.resident_plans, 4);
        assert_eq!(stats.logical_nodes, 4 * plan.node_count());
        assert_eq!(stats.shared_rows, plan.node_count(), "duplicates must share all rows");
        assert!(stats.dedup_ratio() > 1.0, "dedup ratio {}", stats.dedup_ratio());
        assert_eq!(stats.cse_hits, 3 * plan.node_count() as u64);
        // Every copy predicts the same value, equal to a fresh single-plan
        // compile (which computes each copy separately).
        let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &[plan]);
        for id in &ids {
            assert_eq!(builder.predict_root(*id).to_bits(), fresh[0].to_bits());
        }
        // Retiring three copies keeps the shared rows alive for the last.
        for id in &ids[..3] {
            builder.retire(*id);
        }
        assert_eq!(builder.stats().shared_rows, plan.node_count());
        assert_eq!(builder.predict_root(ids[3]).to_bits(), fresh[0].to_bits());
        // Retiring the last releases everything.
        builder.retire(ids[3]);
        let empty = builder.stats();
        assert_eq!((empty.shared_rows, empty.steps, empty.resident_plans), (0, 0, 0));
    }

    #[test]
    fn feature_cache_skips_featurization_on_repeats() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let plan = &ds.plans[0];
        let a = builder.admit(&plan.root);
        let misses_after_first = builder.stats().feat_cache_misses;
        builder.retire(a);
        // Re-admitting the same plan after full retirement is all cache
        // hits (CSE entries are gone, but feature rows are memoized).
        builder.admit(&plan.root);
        let stats = builder.stats();
        assert_eq!(stats.feat_cache_misses, misses_after_first, "no new featurization");
        assert!(stats.feat_cache_hits >= plan.node_count() as u64);
        assert!(stats.feat_hit_rate() > 0.0);
    }

    #[test]
    fn rows_are_recycled_after_retirement() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let ids: Vec<PlanId> = ds.plans.iter().take(8).map(|p| builder.admit(&p.root)).collect();
        let high_water = builder.outputs.rows();
        for id in ids {
            builder.retire(id);
        }
        // Admitting the same work again must not grow the output buffer.
        for p in ds.plans.iter().take(8) {
            builder.admit(&p.root);
        }
        assert_eq!(builder.outputs.rows(), high_water, "rows must be recycled");
    }

    #[test]
    fn chunks_split_only_on_overflow() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        for p in &ds.plans {
            builder.admit(&p.root);
        }
        // No two chunks of one wavefront may both be under the limit
        // minus a single admission's worth of slack: specifically, at most
        // one open (non-full) chunk per wavefront.
        for ids in builder.wavefronts.values() {
            let open =
                ids.iter().filter(|&&s| builder.steps[s as usize].rows.len() < STEP_CHUNK_ROWS);
            assert!(open.count() <= 1, "more than one open chunk in a wavefront");
        }
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn retiring_twice_panics() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let id = builder.admit(&ds.plans[0].root);
        builder.retire(id);
        builder.retire(id);
    }

    #[test]
    #[should_panic(expected = "malformed plan")]
    fn malformed_arity_is_rejected_at_admission() {
        let (_, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        use qpp_plansim::operators::Operator;
        // A Materialize (arity 1) with no children.
        let bad = PlanNode::new(Operator::Materialize, vec![]);
        let _ = builder.admit(&bad);
    }

    #[test]
    fn malformed_admission_is_atomic() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        builder.admit(&ds.plans[0].root);
        let before = builder.predict_roots();
        let before_stats = builder.stats();
        use qpp_plansim::operators::{JoinAlgorithm, JoinType, Operator, ParentRel};
        // The malformed node is the ROOT (last in post order) above a
        // perfectly valid subtree — the worst case for a non-atomic
        // admit, which would have placed every child before panicking.
        let bad = PlanNode::new(
            Operator::Join {
                algo: JoinAlgorithm::Hash,
                jtype: JoinType::Inner,
                parent_rel: ParentRel::None,
            },
            vec![ds.plans[1].root.clone()],
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| builder.admit(&bad)));
        assert!(r.is_err(), "malformed plan must still be rejected");
        let after = builder.stats();
        assert_eq!(after.shared_rows, before_stats.shared_rows, "rejected admit leaked rows");
        assert_eq!(after.steps, before_stats.steps, "rejected admit leaked chunks");
        assert_eq!(builder.len(), 1);
        assert_eq!(bits(&builder.predict_roots()), bits(&before));
    }

    #[test]
    fn empty_builder_predicts_nothing() {
        let (_, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        assert!(builder.is_empty());
        assert!(builder.predict_roots().is_empty());
        assert!(builder.stats().to_string().contains("0 resident plans"));
    }

    #[test]
    fn threaded_predictions_are_bit_identical() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        for p in &ds.plans {
            builder.admit(&p.root);
        }
        let base = builder.predict_roots();
        // The builder runs on its caller; the same resident set compiled
        // as a program answers with its bits on any number of lanes.
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        for threads in [1, 2, 4, 8] {
            let lanes = program.predict_roots_threaded(&units, &codec, None, threads);
            assert_eq!(bits(&lanes), bits(&base), "{threads} lanes");
        }
    }

    #[test]
    fn sharded_stream_matches_single_builder_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut single = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let mut sharded = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        let mut single_ids = Vec::new();
        let mut sharded_ids = Vec::new();
        for p in ds.plans.iter().take(12) {
            single_ids.push(single.admit(&p.root));
            sharded_ids.push(sharded.admit(&p.root));
        }
        assert_eq!(sharded.len(), 12);
        assert_eq!(sharded.num_shards(), 3);
        // Batch views agree at every fan-out (the first one runs the
        // shards, concurrently), and per-plan views agree with the single
        // builder.
        let base = single.predict_roots();
        for threads in [2, 4, 1] {
            assert_eq!(bits(&sharded.predict_roots_threaded(threads)), bits(&base));
        }
        for (s, d) in single_ids.iter().zip(&sharded_ids) {
            let want = single.predict_root(*s).to_bits();
            assert_eq!(sharded.predict_root_threaded(*d, 1).to_bits(), want);
            assert_eq!(bits(&sharded.predict_all(*d)), bits(&single.predict_all(*s)));
        }
        // Retire half; survivors still agree.
        for (s, d) in single_ids.iter().zip(&sharded_ids).step_by(2) {
            single.retire(*s);
            sharded.retire(*d);
        }
        assert_eq!(bits(&sharded.predict_roots_threaded(4)), bits(&single.predict_roots()));
        assert!(sharded.contains(sharded_ids[1]) && !sharded.contains(sharded_ids[0]));
    }

    #[test]
    fn identical_plans_route_to_one_shard_and_share_rows() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut sharded = ShardedStream::new(&fz, &wh, &units, &codec, None, 4, 7);
        assert_eq!(sharded.fingerprint(), 7);
        let plan = ds.plans.iter().max_by_key(|p| p.node_count()).unwrap();
        for _ in 0..4 {
            sharded.admit(&plan.root);
        }
        // Content-hash routing puts structurally identical plans on the
        // same shard, where CSE collapses them to one set of rows.
        let agg = sharded.stats();
        assert_eq!(agg.resident_plans, 4);
        assert_eq!(agg.shared_rows, plan.node_count());
        let busy: Vec<_> =
            sharded.shard_stats().into_iter().filter(|s| s.resident_plans > 0).collect();
        assert_eq!(busy.len(), 1, "identical plans must land on one shard");
        assert_eq!(busy[0].resident_plans, 4);
    }

    #[test]
    fn a_burst_admitted_then_predicted_matches_oneshot_serving() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut stream = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        let ids: Vec<PlanId> = ds.plans.iter().take(8).map(|p| stream.admit(&p.root)).collect();
        let burst: Vec<f64> = ids.iter().map(|&id| stream.predict_root_threaded(id, 4)).collect();
        for id in ids {
            stream.retire(id);
        }
        assert!(stream.is_empty());
        // Bit-identical to serving each request alone on a fresh builder.
        for (p, got) in ds.plans.iter().take(8).zip(&burst) {
            let alone = fresh_compile_roots(&fz, &wh, &units, &codec, &[p]);
            assert_eq!(got.to_bits(), alone[0].to_bits());
        }
    }

    #[test]
    fn scratch_plan_replicates_lowering_and_shard_hash() {
        let (ds, _, _, _, _) = setup(Workload::TpcDs);
        let mut sp = ScratchPlan::new();
        for p in &ds.plans {
            sp.rebuild_from_tree(&p.root);
            let oracle = lower(&p.root);
            let po = p.root.postorder();
            assert_eq!(sp.len(), oracle.len());
            for (k, node) in po.iter().enumerate() {
                assert_eq!(sp.lowering().children_of(k), oracle.children_of(k));
                assert_eq!(sp.lowering().height_of(k), oracle.height_of(k));
                assert_eq!(
                    NodeContentKey::of(&sp.nodes()[k]),
                    NodeContentKey::of(node),
                    "content key drift at position {k}"
                );
                assert_eq!(sp.kinds()[k], node.op.kind());
            }
            assert!(sp.arity_ok());
        }
    }

    #[test]
    fn scratch_plan_truncate_backs_out_a_suffix() {
        let (ds, _, _, _, _) = setup(Workload::TpcDs);
        let deep = ds.plans.iter().max_by_key(|p| p.node_count()).unwrap();
        let mut sp = ScratchPlan::new();
        // Build the full tree, remember its state, truncate to a prefix,
        // then re-push the suffix: everything must match the clean build.
        sp.rebuild_from_tree(&deep.root);
        let want_hash = sp.shard_hash();
        let want_len = sp.len();
        // Rebuild by hand so we can interrupt: push all, then truncate the
        // root off and re-push it.
        sp.clear();
        let po = deep.root.postorder();
        let lw = lower(&deep.root);
        for (k, node) in po.iter().enumerate() {
            let mut bare = (*node).clone();
            bare.children = Vec::new();
            sp.push_node(bare, lw.children_of(k));
        }
        let root_kids: Vec<usize> = lw.children_of(want_len - 1).to_vec();
        sp.truncate(want_len - 1);
        assert_eq!(sp.len(), want_len - 1);
        let mut bare = po[want_len - 1].clone();
        bare.children = Vec::new();
        sp.push_node(bare, &root_kids);
        sp.seal();
        assert_eq!(sp.len(), want_len);
        assert_eq!(sp.shard_hash(), want_hash);
        for k in 0..want_len {
            assert_eq!(sp.lowering().children_of(k), lw.children_of(k));
        }
    }

    #[test]
    fn oneshot_predict_matches_admit_predict_retire_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let caps = crate::tree::fit_ratio_caps(ds.plans.iter(), 2.0);
        for caps in [None, Some(&caps)] {
            let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, caps);
            let mut sp = ScratchPlan::new();
            // Interleave with resident plans so the one-shot path runs
            // against a warm, non-trivial builder.
            for p in ds.plans.iter().take(4) {
                builder.admit(&p.root);
            }
            for p in &ds.plans {
                sp.rebuild_from_tree(&p.root);
                let fast = builder.predict_oneshot(&sp);
                let id = builder.admit(&p.root);
                let slow = builder.predict_root(id);
                builder.retire(id);
                assert_eq!(
                    fast.latency_ms.to_bits(),
                    slow.to_bits(),
                    "one-shot drift (caps={})",
                    builder.caps.is_some()
                );
            }
        }
    }

    #[test]
    fn sharded_oneshot_routes_like_admit_and_matches_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut sharded = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        let mut sp = ScratchPlan::new();
        for p in &ds.plans {
            sp.rebuild_from_tree(&p.root);
            let fast = sharded.predict_oneshot(&sp);
            let id = sharded.admit(&p.root);
            let slow = sharded.predict_root_threaded(id, 1);
            sharded.retire(id);
            assert_eq!(fast.latency_ms.to_bits(), slow.to_bits());
        }
        assert!(sharded.is_empty());
    }

    #[test]
    fn oneshot_predict_is_allocation_free_when_warm() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let plans = lower_all(&roots);
        // Warm every scratch buffer, the feature cache and the pool.
        for sp in &plans {
            builder.predict_oneshot(sp);
        }
        let before = crate::alloc::thread_alloc_count();
        for sp in &plans {
            builder.predict_oneshot(sp);
        }
        assert_eq!(
            crate::alloc::thread_alloc_count() - before,
            0,
            "warm one-shot predict must not allocate"
        );
    }

    /// A memo miss runs and decodes without the allocator: on a warm
    /// builder, a newly admitted plan's `predict_root` (schedule rebuild,
    /// stale filter, run, decode) makes no allocation.
    #[test]
    fn warm_miss_run_and_decode_are_allocation_free() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let plans = lower_all(&roots);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        // Warm the schedule, the decode scratch and the pool to every
        // plan's shape beside one resident plan.
        let resident = builder.admit_plan(&plans[0]);
        for sp in &plans {
            builder.predict_oneshot(sp);
        }
        for sp in &plans[1..] {
            // Retired plans leave nothing to share, so the admission
            // places fresh rows; `predict_root` never probes the memo.
            let id = builder.admit_plan(sp);
            let before = crate::alloc::thread_alloc_count();
            let ms = builder.predict_root(id);
            let allocs = crate::alloc::thread_alloc_count() - before;
            assert_eq!(allocs, 0, "warm miss run + decode allocated");
            assert!(ms.is_finite());
            builder.retire(id);
        }
        assert!(builder.predict_root(resident).is_finite());
    }

    #[test]
    fn oneshot_memo_hit_matches_fresh_run_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut cached = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let mut sp = ScratchPlan::new();
        for p in &ds.plans {
            sp.rebuild_from_tree(&p.root);
            let first = cached.predict_oneshot(&sp);
            let again = cached.predict_oneshot(&sp);
            assert!(again.cache_hit, "an exact repeat must hit the memo");
            assert_eq!((again.featurize_ns, again.run_ns), (0, 0));
            assert_eq!(again.latency_ms.to_bits(), first.latency_ms.to_bits());
            // The memo-free reference: a fresh compile of this plan alone.
            let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &[p]);
            assert_eq!(again.latency_ms.to_bits(), fresh[0].to_bits());
        }
        let st = cached.stats();
        assert!(st.pred_cache_hits >= ds.plans.len() as u64);
        assert!(st.pred_cache_entries > 0);
        assert!(st.pred_hit_rate() > 0.0);
    }

    #[test]
    fn prediction_memo_generational_reset_bounds_entries() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        builder.set_prediction_cache_capacity(8);
        let mut sp = ScratchPlan::new();
        let mut root = ds.plans[0].root.clone();
        for i in 0..100u32 {
            // A never-repeating plan stream: each arrival's estimate block
            // (part of the content key) is distinct, so nothing ever hits.
            root.est.rows = 1000.0 + f64::from(i);
            sp.rebuild_from_tree(&root);
            builder.predict_oneshot(&sp);
            assert!(
                builder.stats().pred_cache_entries <= 8,
                "memo must never outgrow its cap"
            );
        }
        let st = builder.stats();
        assert!(st.pred_cache_evictions > 0, "the cap must have forced resets");
        assert_eq!((st.pred_cache_hits, st.pred_cache_misses), (0, 100));
    }

    #[test]
    fn kept_admit_predict_memo_hits_skip_the_run_bitwise() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut cached = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        let mut batch: Vec<&Plan> = ds.plans.iter().take(6).collect();
        // A repeat within one round: the second copy hits the memo the
        // first one seeded.
        batch.push(&ds.plans[0]);
        // The memo-free reference: a fresh compile of each plan alone.
        let fresh: Vec<f64> = batch
            .iter()
            .map(|p| fresh_compile_roots(&fz, &wh, &units, &codec, &[p])[0])
            .collect();
        for round in 0..3 {
            let ran = cached.stats().steps_run;
            let (ids, got): (Vec<PlanId>, Vec<f64>) =
                batch.iter().map(|p| cached.admit_predict(&p.root)).unzip();
            assert_eq!(bits(&got), bits(&fresh), "memoized admit-predict drifted");
            if round > 0 {
                assert_eq!(cached.stats().steps_run, ran, "round {round}: memo hits must not run");
            }
            for id in ids {
                cached.retire(id);
            }
        }
        assert!(cached.is_empty());
        let hits = cached.stats().pred_cache_hits;
        assert!(hits >= 14, "rounds 2 and 3 must serve every member from the memo (got {hits})");
    }

    #[test]
    fn a_repeat_predict_runs_nothing() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let ids: Vec<PlanId> = ds.plans.iter().take(6).map(|p| builder.admit(&p.root)).collect();
        let first = builder.predict_root(ids[0]);
        let ran = builder.stats();
        assert_eq!(ran.steps_run, ran.steps as u64, "the first run computes every chunk");
        assert_eq!(ran.rows_run, ran.shared_rows as u64);
        for &id in ids.iter().rev() {
            builder.predict_root(id);
        }
        assert_eq!(builder.predict_root(ids[0]).to_bits(), first.to_bits());
        let again = builder.stats();
        assert_eq!((again.steps_run, again.rows_run), (ran.steps_run, ran.rows_run));
        assert!(again.to_string().contains(&format!("ran {} steps", ran.steps_run)));
    }

    #[test]
    fn rows_freed_by_a_retire_are_recomputed_for_their_new_owner() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut builder = ProgramBuilder::new(&fz, &wh, &units, &codec, None);
        let mut by_size: Vec<&Plan> = ds.plans.iter().collect();
        by_size.sort_by_key(|p| std::cmp::Reverse(p.node_count()));
        let (a, b, c) = (by_size[0], by_size[1], by_size[by_size.len() - 1]);
        let id_a = builder.admit(&a.root);
        let id_b = builder.admit(&b.root);
        builder.predict_roots();
        let (high_water, chunks) = (builder.outputs.rows(), builder.steps.len());
        builder.retire(id_a);
        let id_c = builder.admit(&c.root);
        assert_eq!(builder.outputs.rows(), high_water, "C must take A's freed rows");
        assert_eq!(builder.steps.len(), chunks, "C must take A's freed chunk slots");
        let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &[b, c]);
        let before = builder.stats().steps_run;
        assert_eq!(builder.predict_root(id_c).to_bits(), fresh[1].to_bits());
        let after_c = builder.stats().steps_run;
        assert!(after_c > before, "C's chunks must run");
        assert_eq!(builder.predict_root(id_b).to_bits(), fresh[0].to_bits());
        assert_eq!(builder.stats().steps_run, after_c, "B is only decoded");
    }

    #[test]
    fn a_memo_skipped_admission_is_computed_by_the_next_predict() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs);
        let mut stream = ShardedStream::new(&fz, &wh, &units, &codec, None, 3, 0);
        for p in ds.plans.iter().take(4) {
            // Warm the memo, leaving nothing resident.
            let (id, _) = stream.admit_predict(&p.root);
            stream.retire(id);
            let ran = stream.stats().steps_run;
            let (id, pred) = stream.admit_predict(&p.root);
            assert_eq!(stream.stats().steps_run, ran, "a memo hit must skip the run");
            let fresh = fresh_compile_roots(&fz, &wh, &units, &codec, &[p]);
            assert_eq!(pred.to_bits(), fresh[0].to_bits());
            assert_eq!(stream.predict_root_threaded(id, 1).to_bits(), fresh[0].to_bits());
            assert!(stream.stats().steps_run > ran, "the skipped rows must run now");
            stream.retire(id);
        }
        assert_eq!(stream.stats().pred_cache_hits, 4);
    }

    #[test]
    fn shard_routing_is_deterministic() {
        let (ds, _, _, _, _) = setup(Workload::TpcH);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let clones: Vec<PlanNode> = ds.plans.iter().map(|p| p.root.clone()).collect();
        let plans = lower_all(&roots);
        for (sp, again) in plans.iter().zip(lower_all(&clones.iter().collect::<Vec<_>>())) {
            assert_eq!(sp.shard_hash(), again.shard_hash());
        }
        // Sanity: the hash actually spreads a workload (not all-one-bucket).
        let shards: std::collections::HashSet<u64> =
            plans.iter().map(|sp| sp.shard_hash() % 4).collect();
        assert!(shards.len() > 1, "routing must spread distinct plans");
    }
}
