//! The serving engine: compiled, wavefront-batched inference over
//! heterogeneous plan batches.
//!
//! Training-time evaluation ([`crate::tree::TreeBatch`]) can only batch
//! *structurally identical* plans (§5.1.1's equivalence classes), which is
//! the right granularity for unbiased gradients but degenerates on a
//! realistic serving mix: most classes are singletons, so every operator of
//! every plan costs one tiny gemm plus an [`qpp_nn::MlpCache`] allocation
//! it never uses. A [`PlanProgram`] instead *compiles* an arbitrary batch
//! of plans into **wavefronts**: all nodes of all plans are keyed by
//! `(height-from-leaf, OpKind)` and each key becomes one step executing a
//! single gemm per operator family over every plan in the batch,
//! regardless of tree shape. Child outputs
//! are routed between wavefronts with row gather/scatter into preallocated
//! buffers, and layer activations come from a [`qpp_nn::BufferPool`] — the
//! hot path performs no per-node allocation.
//!
//! Scheduling by height from the leaves is sound because a node at height
//! `h` is `1 + max(child heights)`, so every child sits at a strictly
//! smaller height and its output row is written before the parent's
//! wavefront runs. The arithmetic per node is *identical* to the
//! equivalence-class path — same whitened features, same unit weights, same
//! row-major kernels — only the grouping of rows into gemm calls changes,
//! and a row of `X·W` depends on no other row. The differential suite
//! (`tests/infer_differential.rs`) holds the two engines to within `1e-5`
//! relative on every plan, clamped and unclamped.
//!
//! ## Multicore execution
//!
//! Wavefront rows are embarrassingly parallel: the steps of one height
//! level read only rows written at strictly lower heights and write
//! disjoint row ranges of the shared output buffer, so
//! [`PlanProgram::run_parallel`] distributes each level's cache-sized
//! 32-row steps across the **resident executor** ([`qpp_nn::Executor`]) —
//! a process-wide pool of parked worker threads created once and reused
//! across runs. Every resident worker owns its own persistent
//! [`qpp_nn::BufferPool`] and gather scratch, so the hot path stays
//! lock-free and allocation-free in steady state, and a level barrier is
//! the only synchronization. Results are
//! **bit-identical at any thread count** (see `DESIGN.md` §7 for the
//! determinism contract): the partition grain is the compile-time step, so
//! every node is computed by the same kernel on the same input rows no
//! matter which worker runs it. Compile once, then serve:
//!
//! ```
//! use qppnet::{QppConfig, QppNet};
//! use qpp_plansim::prelude::*;
//!
//! let ds = Dataset::generate(Workload::TpcH, 1.0, 24, 3);
//! let mut model = QppNet::new(QppConfig { epochs: 1, ..QppConfig::tiny() }, &ds.catalog);
//! model.fit(&ds.plans.iter().take(16).collect::<Vec<_>>());
//!
//! // Compile the serving batch once; run it on as many cores as the host
//! // offers. Thread count never changes the answer.
//! let plans: Vec<&Plan> = ds.plans.iter().collect();
//! let mut program = model.compile_program(&plans);
//! let serial = model.predict_compiled(&mut program);
//! let threaded = model.predict_compiled_with(&mut program, 4);
//! assert_eq!(serial, threaded);
//! ```

use crate::config::TargetCodec;
use crate::tree::RatioCaps;
use crate::unit::{PackedUnits, UnitSet};
use qpp_nn::{BufferPool, Executor, Matrix};
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::operators::OpKind;
use qpp_plansim::plan::{Plan, PlanNode};
use std::collections::BTreeMap;

/// Which inference engine answers a prediction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferEngine {
    /// Per-equivalence-class [`crate::tree::TreeBatch`] evaluation (the
    /// training-time data layout; §5.1.1 batching only).
    Classes,
    /// Compiled wavefront [`PlanProgram`] evaluation (the serving layout),
    /// executed on `threads` worker threads (`1` = the sequential path;
    /// results are bit-identical at any thread count).
    Program {
        /// Worker threads for [`PlanProgram::run_parallel`].
        threads: usize,
    },
}

impl InferEngine {
    /// Parses the CLI spelling (`classes` | `program`); `program` defaults
    /// to single-threaded execution (compose with
    /// [`InferEngine::with_threads`] for the CLI's `--threads` flag).
    pub fn parse(s: &str) -> Option<InferEngine> {
        match s {
            "classes" => Some(InferEngine::Classes),
            "program" => Some(InferEngine::Program { threads: 1 }),
            _ => None,
        }
    }

    /// Display name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            InferEngine::Classes => "classes",
            InferEngine::Program { .. } => "program",
        }
    }

    /// Worker threads this engine evaluates with (always 1 for the
    /// per-class path, which has no parallel mode).
    pub fn threads(self) -> usize {
        match self {
            InferEngine::Classes => 1,
            InferEngine::Program { threads } => threads.max(1),
        }
    }

    /// This engine with its thread count replaced (no-op for
    /// [`InferEngine::Classes`]).
    pub fn with_threads(self, threads: usize) -> InferEngine {
        match self {
            InferEngine::Classes => InferEngine::Classes,
            InferEngine::Program { .. } => InferEngine::Program { threads: threads.max(1) },
        }
    }
}

impl Default for InferEngine {
    /// The serving default: the compiled wavefront engine on one thread.
    fn default() -> InferEngine {
        InferEngine::Program { threads: 1 }
    }
}

/// Maximum rows per compiled step. Wavefronts larger than this are split
/// into row chunks so each gemm's working set (input chunk, activation
/// buffers, one unit's weights) stays cache-resident — measured on the
/// `infer_throughput` bench, monolithic several-hundred-row gemms run up
/// to ~2x slower per row than cache-sized ones on the same kernel.
pub(crate) const STEP_CHUNK_ROWS: usize = 32;

/// One wavefront step: every node (across all plans) at one
/// `(height, OpKind)` key, executed as a single gemm (large wavefronts
/// are split into [`STEP_CHUNK_ROWS`]-row chunks).
///
/// Shared between the batch-compiled [`PlanProgram`] and the incremental
/// [`crate::stream::ProgramBuilder`] (which additionally grows/shrinks a
/// step's member set in place — `input` is then allocated with
/// [`Matrix::with_row_capacity`] so membership churn stays allocation-free).
pub(crate) struct Step {
    pub(crate) kind: OpKind,
    /// Global output-buffer row of each member node.
    pub(crate) rows: Vec<usize>,
    /// Global rows of each member's children, node-major
    /// (`child_rows[i * arity + j]` is member `i`'s `j`-th child).
    pub(crate) child_rows: Vec<usize>,
    pub(crate) arity: usize,
    /// Width of the feature prefix of `input`.
    pub(crate) feat_width: usize,
    /// Preallocated input, `members × in_dim`. Feature columns are filled
    /// at compile/admit time (features are batch-invariant); child columns
    /// are overwritten by the gather on every run.
    pub(crate) input: Matrix,
}

/// Accumulates per-node records into `(height, OpKind)` wavefront drafts
/// and chunks them into executable [`Step`]s — the one place the wavefront
/// grouping/chunking policy lives, shared by the serving compiler
/// ([`PlanProgram::compile`]) and the differentiable training compiler
/// ([`crate::train_program::ProgramTape`]), so the two engines can never
/// disagree about how nodes map onto gemm rows.
pub(crate) struct WavefrontBuilder {
    /// BTreeMap keyed by (height, family index): iteration order IS the
    /// execution order — heights ascending, families in stable order.
    drafts: BTreeMap<(usize, usize), WavefrontDraft>,
}

struct WavefrontDraft {
    kind: OpKind,
    rows: Vec<usize>,
    child_rows: Vec<usize>,
    /// Whitened features of all members, one `feat_width` run per member
    /// (flat: one allocation per draft, not per node).
    feat_data: Vec<f32>,
    feat_width: usize,
}

impl WavefrontBuilder {
    pub(crate) fn new() -> WavefrontBuilder {
        WavefrontBuilder { drafts: BTreeMap::new() }
    }

    /// Records one node: its global output row, its children's global rows
    /// (left to right, `kind.arity()` of them) and its whitened feature
    /// row.
    ///
    /// # Panics
    /// Panics if `feat`'s length disagrees with earlier members of the
    /// same wavefront (an inconsistent featurizer).
    pub(crate) fn push(
        &mut self,
        height: usize,
        kind: OpKind,
        row: usize,
        feat: &[f32],
        child_rows: &[usize],
    ) {
        debug_assert_eq!(child_rows.len(), kind.arity(), "arity checked by callers");
        let draft =
            self.drafts.entry((height, kind.index())).or_insert_with(|| WavefrontDraft {
                kind,
                rows: Vec::new(),
                child_rows: Vec::new(),
                feat_data: Vec::new(),
                feat_width: feat.len(),
            });
        assert_eq!(feat.len(), draft.feat_width, "inconsistent feature size for {kind:?}");
        draft.rows.push(row);
        draft.child_rows.extend_from_slice(child_rows);
        draft.feat_data.extend_from_slice(feat);
    }

    /// Chunks the accumulated drafts into [`Step`]s plus the height-level
    /// schedule. Step input matrices come from `alloc` (pass
    /// `Matrix::zeros` for fresh programs, a pool-backed closure to
    /// recycle a retired program's buffers); only the feature prefix of
    /// each row is written — child columns are overwritten by the gather
    /// on every run.
    ///
    /// Oversized wavefronts are split into `chunk_rows`-row chunks;
    /// chunking changes nothing semantically (each output row of `X·W`
    /// depends only on its own input row), so the size is purely a
    /// throughput/parallelism knob: the serving engine passes the
    /// cache-sized [`STEP_CHUNK_ROWS`] (one chunk's input, output and the
    /// unit's weights stay cache-resident, and chunks are the parallel
    /// partition grain), the training tape a larger
    /// [`crate::train_program::TRAIN_CHUNK_ROWS`] (three gemms per layer
    /// per step make per-call overhead — gathers, pool traffic, loop
    /// prologues — worth amortizing over more rows).
    ///
    /// # Panics
    /// Panics if a wavefront's input width disagrees with its unit's input
    /// dimension (a featurizer/model mismatch), or if `chunk_rows` is 0.
    pub(crate) fn finish(
        self,
        units: &UnitSet,
        chunk_rows: usize,
        alloc: &mut dyn FnMut(usize, usize) -> Matrix,
    ) -> (Vec<Step>, Vec<Vec<u32>>) {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let out_w = units.out_size();
        let mut steps = Vec::new();
        let mut levels: Vec<Vec<u32>> = Vec::new();
        let mut cur_height = usize::MAX;
        for ((height, _), draft) in self.drafts {
            if height != cur_height {
                levels.push(Vec::new());
                cur_height = height;
            }
            let arity = draft.kind.arity();
            let feat_width = draft.feat_width;
            let in_dim = feat_width + arity * out_w;
            assert_eq!(
                in_dim,
                units.unit(draft.kind).in_dim(),
                "feature/model shape mismatch for {:?}",
                draft.kind
            );
            for (c, rows) in draft.rows.chunks(chunk_rows).enumerate() {
                let members = rows.len();
                let base = c * chunk_rows;
                let mut input = alloc(members, in_dim);
                debug_assert_eq!((input.rows(), input.cols()), (members, in_dim));
                for i in 0..members {
                    let f = &draft.feat_data[(base + i) * feat_width..(base + i + 1) * feat_width];
                    input.row_mut(i)[..feat_width].copy_from_slice(f);
                }
                steps.push(Step {
                    kind: draft.kind,
                    rows: rows.to_vec(),
                    child_rows: draft.child_rows[base * arity..(base + members) * arity].to_vec(),
                    arity,
                    feat_width,
                    input,
                });
                levels.last_mut().expect("level opened above").push((steps.len() - 1) as u32);
            }
        }
        (steps, levels)
    }
}

/// Per-plan bookkeeping for reading results back out of the flat output
/// buffer (and for the clamped envelope walk).
struct PlanSlot {
    /// First global output row of this plan; post-order position `k` lives
    /// at row `base + k` and the root at `base + len - 1`.
    base: usize,
    /// Number of positions (nodes) in the plan.
    len: usize,
    /// Flat post-order lowering (plan-local child lists, heights).
    lowering: crate::lower::Lowering,
    /// Operator family per position (for envelope cap lookups).
    kinds: Vec<OpKind>,
}

/// A compiled inference program over a heterogeneous batch of plans.
///
/// Compile once per batch with [`PlanProgram::compile`], then run any
/// number of times against unit sets of the same shape; all buffers are
/// preallocated at compile time and reused across runs. Every prediction
/// method takes a worker count ([`PlanProgram::run_parallel`]) — thread
/// count never changes the results.
pub struct PlanProgram {
    steps: Vec<Step>,
    /// Step ids grouped into one height level each, ascending: all steps
    /// of `levels[l]` read only output rows written by levels `< l`, which
    /// is what makes a level's steps safe to run concurrently. Id lists
    /// (rather than ranges) so the same executors serve the incremental
    /// engine, whose step slab is not level-contiguous.
    levels: Vec<Vec<u32>>,
    plans: Vec<PlanSlot>,
    /// `total_nodes × out_w`; row `r` holds node `r`'s `(latency ⌢ data)`.
    outputs: Matrix,
    pool: BufferPool,
    out_w: usize,
    /// Fingerprint of the fitted state this program was compiled against
    /// (`None` for programs compiled directly via [`PlanProgram::compile`];
    /// stamped by [`crate::QppNet::compile_program`] so a refit — or a
    /// different model — invalidates the program instead of silently
    /// serving stale features).
    fingerprint: Option<u64>,
    /// Packed-panel kernel state (`qpp_nn::packed`) plus the weight-sample
    /// digest of the unit set it was packed from. The program's documented
    /// contract is "run against any unit set of the same shape", so the
    /// packed copy cannot be pinned to one set; instead every run computes
    /// the O(layers) digest (`PackedUnits::weights_digest`) and repacks —
    /// O(params), material on paper-sized units — only when the weights
    /// actually moved. Steady-state serving (same fitted weights every
    /// run) therefore packs exactly once, while the panels make every
    /// wavefront gemm stream contiguous cache-line-aligned columns at the
    /// full SIMD tier width.
    packed: Option<(u64, PackedUnits)>,
}

impl PlanProgram {
    /// Compiles `roots` into a wavefront schedule against the fitted
    /// model's shape (`units` sizes the routing buffers; `featurizer` and
    /// `whitener` produce the same whitened features the training path
    /// uses).
    ///
    /// # Panics
    /// Panics if a node's feature size disagrees with its unit's input
    /// dimension (a featurizer/model mismatch).
    pub fn compile(
        featurizer: &Featurizer,
        whitener: &Whitener,
        units: &UnitSet,
        roots: &[&PlanNode],
    ) -> PlanProgram {
        let out_w = units.out_size();

        let mut builder = WavefrontBuilder::new();
        let mut plans = Vec::with_capacity(roots.len());
        let mut total_nodes = 0usize;
        let mut scratch = Vec::new();
        let mut child_scratch = Vec::new();

        for root in roots {
            let nodes = root.postorder();
            let lowering = crate::lower::lower(root);
            let base = total_nodes;
            total_nodes += nodes.len();

            for (k, node) in nodes.iter().enumerate() {
                let kind = node.op.kind();
                // Hard assert: plans can arrive from unvalidated JSON (the
                // CLI's `predict --input`), and a wrong arity here would
                // shift every later member's child rows. Compilation runs
                // once per batch, so the check costs nothing that matters.
                assert_eq!(
                    lowering.children_of(k).len(),
                    kind.arity(),
                    "malformed plan: {kind:?} node with {} children (arity {})",
                    lowering.children_of(k).len(),
                    kind.arity()
                );
                whitener.features_into(featurizer, node, &mut scratch);
                child_scratch.clear();
                child_scratch.extend(lowering.children_of(k).iter().map(|&c| base + c));
                builder.push(lowering.height_of(k), kind, base + k, &scratch, &child_scratch);
            }

            plans.push(PlanSlot {
                base,
                len: nodes.len(),
                kinds: nodes.iter().map(|n| n.op.kind()).collect(),
                lowering,
            });
        }

        let (steps, levels) =
            builder.finish(units, STEP_CHUNK_ROWS, &mut |rows, cols| Matrix::zeros(rows, cols));

        PlanProgram {
            steps,
            levels,
            plans,
            outputs: Matrix::zeros(total_nodes, out_w),
            pool: BufferPool::new(),
            out_w,
            fingerprint: None,
            packed: None,
        }
    }

    /// The raw output buffer, for differential tests against the training
    /// tape (which promises bit-identical forward rows).
    #[cfg(test)]
    pub(crate) fn outputs_for_tests(&self) -> &Matrix {
        &self.outputs
    }

    /// Stamps the fitted-state fingerprint this program was compiled
    /// against (see [`PlanProgram::fingerprint`]).
    pub(crate) fn stamp_fingerprint(&mut self, fingerprint: u64) {
        self.fingerprint = Some(fingerprint);
    }

    /// The fitted-state fingerprint stamped at compile time, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Number of plans in the compiled batch.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// Total operator nodes across all plans.
    pub fn num_nodes(&self) -> usize {
        self.outputs.rows()
    }

    /// Number of wavefront steps — i.e. gemm calls per unit-layer — the
    /// schedule executes. The per-class path would execute one gemm per
    /// (equivalence class, position) instead.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of height levels in the schedule. Steps within one level are
    /// mutually independent — this is the parallelism axis of
    /// [`PlanProgram::run_parallel`] (and a barrier count: one
    /// synchronization per level).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    fn check_units_width(&self, units: &UnitSet) {
        assert_eq!(
            units.out_size(),
            self.out_w,
            "unit set output width {} does not match compiled width {}",
            units.out_size(),
            self.out_w
        );
    }

    /// Executes the schedule bottom-up across `threads` worker threads,
    /// filling the output buffer read by the `predict_*` methods.
    ///
    /// Each height level's steps (already split into cache-sized 32-row
    /// chunks at compile time — that chunking is the partition grain) are
    /// dealt round-robin across the process-wide resident worker pool
    /// ([`qpp_nn::Executor::global`] — parked threads created once, not
    /// spawned per run); a barrier separates levels. Workers are lock-free
    /// on the hot path: every step writes a disjoint set of output rows
    /// and reads only rows written at strictly lower levels, and each
    /// resident worker gathers into scratch taken from its own persistent
    /// executor-owned [`BufferPool`], so steady-state parallel serving
    /// performs zero allocation per worker.
    ///
    /// **Determinism:** results are bit-identical for every `threads`
    /// value (the differential suite asserts exact equality at 1/2/4/8) —
    /// each node is computed by the same fused kernel on the same input
    /// rows regardless of which worker runs its step; only the assignment
    /// of steps to workers changes. See `DESIGN.md` §7 and §10.
    ///
    /// The effective thread count is capped at the widest level's step
    /// count, so small programs (or programs whose wavefronts all fit one
    /// 32-row chunk) fall back to the sequential path instead of paying
    /// dispatch and barrier overhead for no available parallelism.
    pub fn run_parallel(&mut self, units: &UnitSet, threads: usize) {
        self.run_on(units, Executor::global(), threads);
    }

    /// [`PlanProgram::run_parallel`] against an explicit executor — the
    /// seam the tests use to observe a private pool's steady state.
    pub(crate) fn run_on(&mut self, units: &UnitSet, exec: &Executor, threads: usize) {
        self.check_units_width(units);
        // Refresh the packed panels only when the caller's weights differ
        // from the panels' source (see the `packed` field doc).
        // Serving-only programs never need the transposed backward panels.
        let digest = PackedUnits::weights_digest(units);
        match &mut self.packed {
            Some((d, _)) if *d == digest => {}
            Some((d, p)) => {
                p.repack_from(units);
                *d = digest;
            }
            None => self.packed = Some((digest, PackedUnits::pack(units))),
        }
        run_schedule(
            &mut self.steps,
            &self.levels,
            &self.packed.as_ref().expect("packed above").1,
            &mut self.outputs,
            &mut self.pool,
            exec,
            self.out_w,
            threads,
        );
    }

    /// Decoded root-latency predictions (milliseconds), one per plan, in
    /// the order the plans were compiled, run on `threads` workers (see
    /// [`PlanProgram::run_parallel`]; results are identical at any thread
    /// count). With `caps`, each root is the last entry of its plan's
    /// envelope-projected [`PlanProgram::predict_all_threaded`] row.
    pub fn predict_roots_threaded(
        &mut self,
        units: &UnitSet,
        codec: &TargetCodec,
        caps: Option<&RatioCaps>,
        threads: usize,
    ) -> Vec<f64> {
        if caps.is_some() {
            return self
                .predict_all_threaded(units, codec, caps, threads)
                .into_iter()
                .map(|per_plan| *per_plan.last().expect("non-empty plan"))
                .collect();
        }
        self.run_parallel(units, threads);
        self.decode_roots(codec)
    }

    fn decode_roots(&self, codec: &TargetCodec) -> Vec<f64> {
        self.plans.iter().map(|p| codec.decode(self.outputs.get(p.base + p.len - 1, 0))).collect()
    }

    /// Decoded latency predictions for every position of every plan
    /// (`result[plan][position]`, post order, milliseconds), run on
    /// `threads` workers. With `caps`, each plan is projected onto the
    /// structural envelope of inclusive latencies — the same monotonicity
    /// and bounded-amplification fold as
    /// [`crate::tree::TreeBatch::predict_all_clamped`], run on the calling
    /// thread (a cheap sequential walk over decoded scalars).
    ///
    /// Note the index order differs from
    /// [`crate::tree::TreeBatch::predict_all`] (`[position][plan]`): a
    /// heterogeneous batch has no shared position axis.
    pub fn predict_all_threaded(
        &mut self,
        units: &UnitSet,
        codec: &TargetCodec,
        caps: Option<&RatioCaps>,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        self.run_parallel(units, threads);
        self.plans
            .iter()
            .map(|p| {
                let mut preds: Vec<f64> = (p.base..p.base + p.len)
                    .map(|r| codec.decode(self.outputs.get(r, 0)))
                    .collect();
                if let Some(caps) = caps {
                    clamp_plan_envelope(&mut preds, &p.lowering, &p.kinds, caps);
                }
                preds
            })
            .collect()
    }
}

/// The widest level's step count — the effective parallelism bound of a
/// wavefront schedule (the executors cap worker counts here so schedules
/// with no available parallelism fall back to the sequential path).
pub(crate) fn max_level_width(levels: &[Vec<u32>]) -> usize {
    levels.iter().map(|l| l.len()).max().unwrap_or(0)
}

/// Folds the structural envelope over one plan's decoded per-position
/// latencies, in place — the same monotonicity + bounded-amplification
/// walk as [`crate::tree::TreeBatch::predict_all_clamped`]. Post order
/// puts children before parents, so clamped child values feed the parent's
/// envelope. Shared by [`PlanProgram`] and the incremental builder.
pub(crate) fn clamp_plan_envelope(
    preds: &mut [f64],
    lowering: &crate::lower::Lowering,
    kinds: &[OpKind],
    caps: &RatioCaps,
) {
    for k in 0..preds.len() {
        let kids = lowering.children_of(k);
        if kids.is_empty() {
            continue;
        }
        let max_child = kids.iter().map(|&c| preds[c]).fold(0.0f64, f64::max);
        let cap = caps.cap(kinds[k], max_child);
        let (lo, hi) = (max_child, max_child * cap.max(1.0));
        preds[k] = preds[k].clamp(lo, hi.max(lo));
    }
}

/// Copies each member's child output rows into the child column blocks of
/// `dst` (`dst[i, feat_width + j·out_w ..]` ← row `child_rows[i·arity + j]`
/// of the source). This is **the** row-routing loop every engine leans on
/// — the sequential and parallel serving executors and the training
/// tape's forward share it, so the `(feat prefix ⌢ child₁ ⌢ … ⌢ childₖ)`
/// input layout (and the bit-identity contracts built on it) cannot
/// drift between copies. `row_of` abstracts the source: plain matrix rows on
/// single-threaded paths, a [`SharedRows`] view under workers.
///
/// `dst` is either the step's own baked input (its feature prefix is
/// already resident) or a scratch clone of it; `dst.rows()` is the member
/// count.
pub(crate) fn gather_child_columns<'a>(
    child_rows: &[usize],
    arity: usize,
    feat_width: usize,
    out_w: usize,
    dst: &mut Matrix,
    row_of: impl Fn(usize) -> &'a [f32],
) {
    if arity == 0 {
        return;
    }
    for i in 0..dst.rows() {
        for j in 0..arity {
            let src = child_rows[i * arity + j];
            let start = feat_width + j * out_w;
            dst.row_mut(i)[start..start + out_w].copy_from_slice(row_of(src));
        }
    }
}

/// Executes a wavefront schedule bottom-up on the calling thread: for each
/// step (levels ascending, in level order) routes child outputs into the
/// step's baked input and runs the unit forward through `pool`. Steps are
/// visited via the level id lists, so the step slab may contain retired
/// (unlisted) entries — the incremental engine relies on this.
pub(crate) fn run_levels_seq(
    steps: &mut [Step],
    levels: &[Vec<u32>],
    packed: &PackedUnits,
    outputs: &mut Matrix,
    pool: &mut BufferPool,
    out_w: usize,
) {
    for level in levels {
        for &id in level {
            let step = &mut steps[id as usize];
            // Route child outputs (written by earlier wavefronts) into the
            // child columns of this step's input.
            gather_child_columns(
                &step.child_rows,
                step.arity,
                step.feat_width,
                out_w,
                &mut step.input,
                |r| outputs.row(r),
            );
            let out = packed.unit(step.kind).forward_pooled(&step.input, pool);
            out.scatter_rows_into(&step.rows, outputs);
            pool.give(out);
        }
    }
}

/// Dispatches a wavefront schedule onto the right executor — the single
/// decision point shared by [`PlanProgram`] and the incremental builder:
/// the thread count is capped at the widest level (no parallelism worth
/// dispatching for → the sequential in-place path, which never touches
/// `exec`), otherwise the levels run across `exec`'s resident worker
/// pool, each worker using its executor-owned persistent [`BufferPool`].
#[allow(clippy::too_many_arguments)] // two call sites; a context struct would just rename these
pub(crate) fn run_schedule(
    steps: &mut [Step],
    levels: &[Vec<u32>],
    packed: &PackedUnits,
    outputs: &mut Matrix,
    pool: &mut BufferPool,
    exec: &Executor,
    out_w: usize,
    threads: usize,
) {
    let threads = threads.min(max_level_width(levels));
    if threads <= 1 {
        run_levels_seq(steps, levels, packed, outputs, pool, out_w);
    } else {
        run_levels_parallel(steps, levels, packed, outputs, exec, threads, out_w);
    }
}

/// Executes a wavefront schedule across `threads` resident workers of
/// `exec` (the caller participates as worker 0; callers must pass
/// `threads >= 2` and have already handled the `threads <= 1` fallback).
/// Each height level's steps are dealt round-robin; a barrier separates
/// levels. See [`PlanProgram::run_parallel`] for the determinism and
/// poisoning contracts.
pub(crate) fn run_levels_parallel(
    steps: &[Step],
    levels: &[Vec<u32>],
    packed: &PackedUnits,
    outputs: &mut Matrix,
    exec: &Executor,
    threads: usize,
    out_w: usize,
) {
    let outputs = SharedRows::new(outputs);
    run_levels_parallel_with(exec, levels, threads, &|pool, id| {
        let step = &steps[id as usize];
        let out = if step.arity == 0 {
            // Leaves: the baked feature matrix IS the full input.
            packed.unit(step.kind).forward_pooled(&step.input, pool)
        } else {
            // Unlike the sequential path — which gathers child rows into
            // the step's own input matrix — workers assemble each step's
            // input in scratch taken from their private pool, so the
            // compiled steps stay shared and immutable across threads. The
            // gemm consumes the exact same input values either way, and
            // scratch has the same shape as the baked input, so the kernel
            // (and its result, bit for bit) is identical to the sequential
            // path's.
            let members = step.rows.len();
            let fw = step.feat_width;
            let mut scratch = pool.take(members, step.input.cols());
            for i in 0..members {
                scratch.row_mut(i)[..fw].copy_from_slice(&step.input.row(i)[..fw]);
            }
            // SAFETY (row reads): child rows live at strictly lower
            // heights — fully written in an earlier level and
            // barrier-sequenced with these reads.
            gather_child_columns(&step.child_rows, step.arity, fw, out_w, &mut scratch, |r| {
                unsafe { outputs.row(r) }
            });
            let out = packed.unit(step.kind).forward_pooled(&scratch, pool);
            pool.give(scratch);
            out
        };
        for (k, &r) in step.rows.iter().enumerate() {
            // SAFETY: each output row belongs to exactly one step, and
            // this worker owns this step within the current level.
            unsafe { outputs.write_row(r, out.row(k)) };
        }
        pool.give(out);
    });
}

/// The level-barrier executor behind multicore serving
/// ([`run_levels_parallel`]). Deals each level's step ids round-robin
/// across `threads` workers (the **caller participates as worker 0**;
/// callers pass `threads >= 2` and handle the single-threaded fallback
/// themselves), with one [`std::sync::Barrier`] per level, levels
/// ascending.
///
/// Workers are **resident**: the pass dispatches onto `exec`'s parked
/// worker pool ([`qpp_nn::Executor`]) instead of spawning scoped threads
/// per run, so a run pays one condvar wake per worker instead of a ~0.2 ms
/// thread spawn. Determinism is untouched — worker `w` still runs
/// positions `w, w + threads, …` of every level, so which worker runs a
/// step depends only on the level lists and the worker count, never on
/// which OS thread hosts the worker.
///
/// `run_step` receives the worker's *resident* [`BufferPool`] (owned by
/// the executor and kept warm across runs) and a step id; everything
/// shared (steps, units, raw output views) is captured by the closure.
/// `run_step` must not rely on *cross-step* ordering within a level.
///
/// A panic inside a step (e.g. a shape assert against a mismatched unit
/// set) must not strand the other workers at the barrier: each level's
/// work is caught, a shared poison flag is raised, the barrier is still
/// reached, and every worker exits cleanly after the wait — resident
/// workers go back to parking, poisoned run or not. The caught payload
/// itself is parked in a shared slot (first panicking worker wins) and
/// **re-raised on the calling thread after the run completes** — so the
/// caller observes the original panic (same message as the sequential
/// path) no matter which worker's share the failing step landed in.
pub(crate) fn run_levels_parallel_with(
    exec: &Executor,
    levels: &[Vec<u32>],
    threads: usize,
    run_step: &(impl Fn(&mut BufferPool, u32) + Sync),
) {
    use std::sync::atomic::Ordering;
    debug_assert!(threads >= 2, "parallel executor needs >= 2 workers");
    let barrier = std::sync::Barrier::new(threads);
    let poisoned = std::sync::atomic::AtomicBool::new(false);
    let panic_slot: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> =
        std::sync::Mutex::new(None);

    // One worker's whole pass: its round-robin share of every level, in
    // schedule order, poison-checked at each barrier.
    exec.run(threads, &|worker, pool| {
        for level in levels {
            // AssertUnwindSafe: on panic the pool may hold un-given
            // buffers and this level's outputs may be partially written —
            // the same states a sequential-path panic leaves behind; the
            // payload is re-raised on the caller after the run, so no
            // caller observes them.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for &id in level.iter().skip(worker).step_by(threads) {
                    run_step(pool, id);
                }
            }));
            if let Err(payload) = result {
                poisoned.store(true, Ordering::Release);
                // The lock guard must drop before the barrier: another
                // worker panicking at this same level contends for the
                // slot on its own way to the barrier.
                panic_slot.lock().expect("panic slot lock").get_or_insert(payload);
                barrier.wait();
                return;
            }
            barrier.wait();
            if poisoned.load(Ordering::Acquire) {
                return;
            }
        }
    });
    if let Some(payload) = panic_slot.into_inner().expect("panic slot lock") {
        std::panic::resume_unwind(payload);
    }
}

/// A raw-pointer view of a shared row-major matrix that lets worker
/// threads access disjoint rows without locks.
///
/// Safe Rust cannot express "N threads each mutate a different subset of
/// rows of one matrix", so this view carries the proof obligation instead:
///
/// * every output row belongs to exactly **one** step (compile assigns
///   each node one global row, and a node joins one draft chunk), so two
///   workers never write the same row within a level;
/// * a step only **reads** rows sequenced by the inter-level barrier
///   (`Barrier::wait` is an acquire/release point): child outputs written
///   at strictly lower heights;
/// * the view lives only inside one executor invocation's scope, which
///   holds the `&mut Matrix` borrow for the view's whole lifetime.
pub(crate) struct SharedRows<'a> {
    ptr: *mut f32,
    rows: usize,
    cols: usize,
    _borrow: std::marker::PhantomData<&'a mut Matrix>,
}

/// SAFETY: see the type-level contract — all row accesses are disjoint or
/// barrier-ordered, so handing the view to multiple threads is sound.
unsafe impl Send for SharedRows<'_> {}
/// SAFETY: as for [`Send`].
unsafe impl Sync for SharedRows<'_> {}

impl<'a> SharedRows<'a> {
    pub(crate) fn new(m: &'a mut Matrix) -> SharedRows<'a> {
        let (rows, cols) = (m.rows(), m.cols());
        SharedRows { ptr: m.as_mut_slice().as_mut_ptr(), rows, cols, _borrow: std::marker::PhantomData }
    }

    /// Reads row `i`.
    ///
    /// # Safety
    /// `i` must have been fully written in an earlier level and no thread
    /// may be writing it concurrently.
    #[inline]
    pub(crate) unsafe fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {i} out of range for {}x{} shared view", self.rows, self.cols);
        std::slice::from_raw_parts(self.ptr.add(i * self.cols), self.cols)
    }

    /// Overwrites row `i` with `src`.
    ///
    /// # Safety
    /// The caller must be the only thread accessing row `i` in the current
    /// level (each row belongs to exactly one step).
    #[inline]
    pub(crate) unsafe fn write_row(&self, i: usize, src: &[f32]) {
        debug_assert!(i < self.rows, "row {i} out of range for {}x{} shared view", self.rows, self.cols);
        debug_assert_eq!(src.len(), self.cols, "row width mismatch in shared write");
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(i * self.cols), self.cols);
    }
}

/// Predicts root latencies (milliseconds) for `plans` through the chosen
/// engine — the single dispatch point behind [`crate::QppNet`]'s
/// prediction API and the `qpp predict` CLI.
pub fn predict_plans_with(
    engine: InferEngine,
    units: &UnitSet,
    featurizer: &Featurizer,
    whitener: &Whitener,
    codec: &TargetCodec,
    ratio_caps: Option<&RatioCaps>,
    plans: &[&Plan],
) -> Vec<f64> {
    match engine {
        InferEngine::Classes => {
            crate::train::predict_plans(units, featurizer, whitener, codec, ratio_caps, plans)
        }
        InferEngine::Program { threads } => {
            let roots: Vec<&PlanNode> = plans.iter().map(|p| &p.root).collect();
            let mut program = PlanProgram::compile(featurizer, whitener, units, &roots);
            program.predict_roots_threaded(units, codec, ratio_caps, threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{QppConfig, TargetTransform};
    use crate::tree::TreeBatch;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;
    use rand::SeedableRng;

    fn setup() -> (Dataset, Featurizer, Whitener, UnitSet, TargetCodec) {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 32, 17);
        let fz = Featurizer::new(&ds.catalog);
        let wh = Whitener::fit(&fz, ds.plans.iter());
        let cfg = QppConfig::tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let units = UnitSet::new(&cfg, &fz, &mut rng);
        let codec = TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
        (ds, fz, wh, units, codec)
    }

    #[test]
    fn heterogeneous_batch_matches_per_plan_tree_batches() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        assert_eq!(program.num_plans(), ds.plans.len());
        let program_preds = program.predict_roots_threaded(&units, &codec, None, 1);

        for (i, plan) in ds.plans.iter().enumerate() {
            let tb = TreeBatch::build(&fz, &wh, &codec, &[&plan.root]);
            let single = tb.predict_roots(&units, &codec)[0];
            let rel = (single - program_preds[i]).abs() / (1.0 + single.abs());
            assert!(rel < 1e-5, "plan {i}: tree {single} vs program {}", program_preds[i]);
        }
    }

    #[test]
    fn per_operator_predictions_match_tree_batch() {
        let (ds, fz, wh, units, codec) = setup();
        let plan = ds.plans.iter().max_by_key(|p| p.node_count()).unwrap();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &[&plan.root]);
        let program_all = program.predict_all_threaded(&units, &codec, None, 1);
        let tb = TreeBatch::build(&fz, &wh, &codec, &[&plan.root]);
        let tree_all = tb.predict_all(&units, &codec);
        assert_eq!(program_all[0].len(), tree_all.len());
        for (k, per_pos) in tree_all.iter().enumerate() {
            let rel = (per_pos[0] - program_all[0][k]).abs() / (1.0 + per_pos[0].abs());
            assert!(rel < 1e-5, "position {k}");
        }
    }

    #[test]
    fn clamped_predictions_match_tree_batch() {
        let (ds, fz, wh, units, codec) = setup();
        let caps = crate::tree::fit_ratio_caps(ds.plans.iter(), 2.0);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let program_preds = program.predict_roots_threaded(&units, &codec, Some(&caps), 1);
        for (i, plan) in ds.plans.iter().enumerate() {
            let tb = TreeBatch::build(&fz, &wh, &codec, &[&plan.root]);
            let single = tb.predict_roots_clamped(&units, &codec, &caps)[0];
            let rel = (single - program_preds[i]).abs() / (1.0 + single.abs());
            assert!(rel < 1e-5, "plan {i}: tree {single} vs program {}", program_preds[i]);
        }
    }

    #[test]
    fn repeated_runs_are_stable_and_allocation_reusing() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().take(8).map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let first = program.predict_roots_threaded(&units, &codec, None, 1);
        let second = program.predict_roots_threaded(&units, &codec, None, 1);
        assert_eq!(first, second, "stale child routing between runs");
    }

    #[test]
    fn wavefronts_batch_across_plans() {
        let (ds, fz, wh, units, _) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let total_nodes: usize = ds.plans.iter().map(|p| p.node_count()).sum();
        assert_eq!(program.num_nodes(), total_nodes);
        // The whole point: far fewer gemm groups than nodes.
        assert!(
            program.num_steps() * 4 < total_nodes,
            "{} steps for {} nodes — wavefronts are not batching",
            program.num_steps(),
            total_nodes
        );
    }

    #[test]
    fn empty_batch_compiles_and_predicts_nothing() {
        let (_, fz, wh, units, codec) = setup();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &[]);
        assert_eq!(program.num_plans(), 0);
        assert!(program.predict_roots_threaded(&units, &codec, None, 1).is_empty());
    }

    #[test]
    fn engine_dispatch_agrees_between_paths() {
        let (ds, fz, wh, units, codec) = setup();
        let plans: Vec<&Plan> = ds.plans.iter().collect();
        let caps = crate::tree::fit_ratio_caps(ds.plans.iter(), 2.0);
        for caps in [None, Some(&caps)] {
            let a = predict_plans_with(InferEngine::Classes, &units, &fz, &wh, &codec, caps, &plans);
            let b = predict_plans_with(
                InferEngine::Program { threads: 1 },
                &units,
                &fz,
                &wh,
                &codec,
                caps,
                &plans,
            );
            for (x, y) in a.iter().zip(&b) {
                let rel = (x - y).abs() / (1.0 + x.abs());
                assert!(rel < 1e-5, "classes {x} vs program {y}");
            }
        }
    }

    #[test]
    fn levels_partition_steps_in_dependency_order() {
        let (ds, fz, wh, units, _) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let program = PlanProgram::compile(&fz, &wh, &units, &roots);
        // Levels tile the step list exactly, in order (compile emits step
        // ids sequentially).
        let flat: Vec<u32> = program.levels.iter().flatten().copied().collect();
        assert_eq!(flat, (0..program.num_steps() as u32).collect::<Vec<_>>());
        assert!(program.levels.iter().all(|l| !l.is_empty()), "empty level");
        assert!(program.num_levels() >= 2, "multi-operator plans need >= 2 levels");
        // Every child row referenced by a level's steps is produced by a
        // step of an earlier level — the property run_parallel's safety
        // argument rests on.
        let mut produced_before: Vec<std::collections::HashSet<usize>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for level in &program.levels {
            produced_before.push(seen.clone());
            for &id in level {
                seen.extend(program.steps[id as usize].rows.iter().copied());
            }
        }
        for (l, level) in program.levels.iter().enumerate() {
            for &id in level {
                for &c in &program.steps[id as usize].child_rows {
                    assert!(
                        produced_before[l].contains(&c),
                        "level {l} reads row {c} not produced by an earlier level"
                    );
                }
            }
        }
    }

    #[test]
    fn run_parallel_is_bit_identical_across_thread_counts() {
        let (ds, fz, wh, units, codec) = setup();
        let caps = crate::tree::fit_ratio_caps(ds.plans.iter(), 2.0);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let base_roots = program.predict_roots_threaded(&units, &codec, None, 1);
        let base_all = program.predict_all_threaded(&units, &codec, None, 1);
        let base_clamped = program.predict_roots_threaded(&units, &codec, Some(&caps), 1);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                program.predict_roots_threaded(&units, &codec, None, threads),
                base_roots,
                "{threads} threads: roots differ"
            );
            assert_eq!(
                program.predict_all_threaded(&units, &codec, None, threads),
                base_all,
                "{threads} threads: per-operator predictions differ"
            );
            assert_eq!(
                program.predict_roots_threaded(&units, &codec, Some(&caps), threads),
                base_clamped,
                "{threads} threads: clamped roots differ"
            );
        }
    }

    #[test]
    fn parallel_workers_reach_zero_steady_state_allocation() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        // A private executor (rather than the global one) so concurrent
        // tests cannot perturb the pooled-buffer observation.
        let exec = Executor::new(3);
        // Warm-up run grows every resident worker's pool to its
        // high-water mark.
        program.run_on(&units, &exec, 4);
        let first = program.decode_roots(&codec);
        let pooled = exec.pooled_buffers();
        assert!(pooled > 0, "workers must pool buffers");
        // Steady state: repeated runs neither grow nor leak any pool, and
        // reuse is exact (every take is matched by a give).
        for _ in 0..3 {
            program.run_on(&units, &exec, 4);
            assert_eq!(program.decode_roots(&codec), first, "stale routing between parallel runs");
            assert_eq!(exec.pooled_buffers(), pooled, "worker pools changed in steady state");
        }
    }

    #[test]
    fn oversubscribed_threads_fall_back_cleanly() {
        let (ds, fz, wh, units, codec) = setup();
        // A plan whose levels are all single steps (e.g. a linear chain):
        // any thread count degrades to the sequential path (no dispatch,
        // no barrier, no resident workers woken).
        let mut program = ds
            .plans
            .iter()
            .map(|p| PlanProgram::compile(&fz, &wh, &units, &[&p.root]))
            .find(|prog| prog.levels.iter().all(|l| l.len() == 1))
            .expect("some plan compiles to single-step levels");
        let one = program.predict_roots_threaded(&units, &codec, None, 1);
        let exec = Executor::new(0);
        program.run_on(&units, &exec, 8);
        let many = program.decode_roots(&codec);
        assert_eq!(one, many);
        let stats = exec.stats();
        assert_eq!(stats.runs, 0, "fallback must not dispatch to the executor");
        assert_eq!(stats.resident_workers, 0, "fallback must not spawn resident workers");
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn mismatched_units_panic_instead_of_deadlocking_workers() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        // A unit set with the same output width (so the cheap width check
        // passes) but different per-family input dims: the shape assert
        // fires *inside worker threads*. The poison protocol must convert
        // that into this panic on the caller, not a barrier deadlock.
        let other = Dataset::generate(Workload::TpcDs, 1.0, 8, 3);
        let fz2 = Featurizer::new(&other.catalog);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let units2 = UnitSet::new(&QppConfig::tiny(), &fz2, &mut rng);
        assert_eq!(units2.out_size(), units.out_size(), "width check must pass");
        let _ = program.predict_roots_threaded(&units2, &codec, None, 4);
    }

    /// The executor's panic contract: a panic whose step lands only in a
    /// *resident* worker's round-robin share (never the caller's) must
    /// still reach the caller with its original payload — and must leave
    /// the parked pool serviceable for the next run.
    #[test]
    fn worker_only_panic_preserves_its_payload() {
        // Two workers, one level of two steps: the caller (worker 0)
        // takes id 0, the resident worker takes id 1 — which panics.
        let exec = Executor::new(1);
        let levels = vec![vec![0u32, 1u32]];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_levels_parallel_with(&exec, &levels, 2, &|_pool, id| {
                if id == 1 {
                    panic!("step {id} exploded with a diagnostic message");
                }
            });
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("panic carries its message");
        assert!(
            msg.contains("step 1 exploded with a diagnostic message"),
            "caller observed `{msg}` instead of the original payload"
        );
        // The poisoned run must not kill the resident worker: the same
        // pool serves the next run.
        let hits = std::sync::atomic::AtomicUsize::new(0);
        run_levels_parallel_with(&exec, &levels, 2, &|_pool, _id| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 2, "pool dead after poison");
    }

    #[test]
    fn engine_thread_accessors() {
        assert_eq!(InferEngine::parse("program"), Some(InferEngine::Program { threads: 1 }));
        assert_eq!(InferEngine::parse("classes"), Some(InferEngine::Classes));
        assert_eq!(InferEngine::parse("wavefront"), None);
        assert_eq!(InferEngine::default(), InferEngine::Program { threads: 1 });
        assert_eq!(InferEngine::Classes.threads(), 1);
        assert_eq!(InferEngine::Program { threads: 0 }.threads(), 1);
        assert_eq!(
            InferEngine::Program { threads: 1 }.with_threads(4),
            InferEngine::Program { threads: 4 }
        );
        assert_eq!(InferEngine::Classes.with_threads(4), InferEngine::Classes);
        assert_eq!(InferEngine::Program { threads: 4 }.name(), "program");
    }
}
