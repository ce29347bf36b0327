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
//! ## Multicore execution: plan lanes
//!
//! A program is cut into **lanes**, one per thread: contiguous ranges of
//! its plans, balanced by node count, each compiled as its own one-thread
//! wavefront program with its own steps, levels, output rows and
//! [`qpp_nn::BufferPool`]. Plans never share rows, so lanes are
//! independent: a run is one dispatch on the **resident executor**
//! ([`qpp_nn::Executor`], a process-wide pool of parked worker threads
//! created once and reused across runs) in which each worker sweeps one
//! lane sequentially, with no barrier between levels. Workers reach their
//! lanes through uncontended locks and share the packed panels read-only,
//! so the engine carries no `unsafe`. Results are **bit-identical at any
//! thread count** (see `DESIGN.md` §7 for the determinism contract): the
//! partition grain is the plan, and the packed kernels are row-invariant,
//! so every node is computed by the same kernel on the same input row no
//! matter which lane holds it. [`PlanProgram::compile`] lays a program
//! out as one lane; a run at another thread count lays it out again from
//! the features it already holds. Compile once, then serve:
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
use std::sync::{Mutex, MutexGuard, PoisonError};
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
    /// executed as `threads` plan lanes (`1` = the sequential path;
    /// results are bit-identical at any thread count).
    Program {
        /// Lanes (worker threads) for [`PlanProgram::run_parallel`].
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

    /// Asserts that every wavefront's input width (features, then
    /// `arity` child outputs) equals its unit's input dimension.
    ///
    /// # Panics
    /// Panics on a featurizer/model shape mismatch.
    pub(crate) fn check_units(&self, units: &UnitSet) {
        for draft in self.drafts.values() {
            assert_eq!(
                draft.feat_width + draft.kind.arity() * units.out_size(),
                units.unit(draft.kind).in_dim(),
                "feature/model shape mismatch for {:?}",
                draft.kind
            );
        }
    }

    /// Chunks the accumulated drafts into [`Step`]s plus the height-level
    /// schedule, for units of output width `out_w` (callers validate the
    /// shapes with [`WavefrontBuilder::check_units`] first). Step input
    /// matrices come from `alloc` (a pool-backed closure, which recycles
    /// buffers when the pool holds some); only the feature prefix of each
    /// row is written — child columns are overwritten by the gather on
    /// every run.
    ///
    /// Oversized wavefronts are split into `chunk_rows`-row chunks;
    /// chunking changes nothing semantically (each output row of `X·W`
    /// depends only on its own input row), so the size is purely a
    /// throughput/parallelism knob: the serving engine passes the
    /// cache-sized [`STEP_CHUNK_ROWS`] (one chunk's input, output and the
    /// unit's weights stay cache-resident), the training tape a larger
    /// [`crate::train_program::TRAIN_CHUNK_ROWS`] (three gemms per layer
    /// per step make per-call overhead — gathers, pool traffic, loop
    /// prologues — worth amortizing over more rows).
    ///
    /// # Panics
    /// Panics if `chunk_rows` is 0.
    pub(crate) fn finish(
        self,
        out_w: usize,
        chunk_rows: usize,
        alloc: &mut dyn FnMut(usize, usize) -> Matrix,
    ) -> (Vec<Step>, Vec<Vec<u32>>) {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
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

/// Per-plan bookkeeping for reading results back out of its lane's
/// output buffer, for the clamped envelope walk, and for laying the
/// program out again.
struct PlanSlot {
    /// First output row of this plan in its lane; post-order position `k`
    /// lives at row `base + k` and the root at `base + len - 1`.
    base: usize,
    /// Number of positions (nodes) in the plan.
    len: usize,
    /// Flat post-order lowering (plan-local child lists, heights).
    lowering: crate::lower::Lowering,
    /// Operator family per position (for envelope cap lookups).
    kinds: Vec<OpKind>,
}

/// One lane of a [`PlanProgram`]: a contiguous range of its plans
/// compiled as a one-thread wavefront program. Row indices (`outputs`,
/// the steps' member and child rows) are lane-local.
struct Lane {
    steps: Vec<Step>,
    /// Step ids grouped into one height level each, ascending: all steps
    /// of `levels[l]` read only output rows written by levels `< l`.
    levels: Vec<Vec<u32>>,
    /// `lane_nodes × out_w`; row `r` holds node `r`'s `(latency ⌢ data)`.
    outputs: Matrix,
    pool: BufferPool,
}

impl Lane {
    /// Compiles `plans` — the program's plans from index `first` on — into
    /// a lane, setting each plan's lane-local `base`. `feat(plan,
    /// position, out)` writes one node's whitened feature row into `out`.
    /// With `units`, the wavefront shapes are checked against them (a
    /// relayout reuses rows that were checked at compile time).
    fn compile(
        plans: &mut [PlanSlot],
        first: usize,
        out_w: usize,
        units: Option<&UnitSet>,
        feat: &mut dyn FnMut(usize, usize, &mut Vec<f32>),
    ) -> Lane {
        let mut builder = WavefrontBuilder::new();
        let (mut rows, mut feat_row, mut kids) = (0usize, Vec::new(), Vec::new());
        for (i, plan) in plans.iter_mut().enumerate() {
            plan.base = rows;
            for k in 0..plan.len {
                feat(first + i, k, &mut feat_row);
                kids.clear();
                kids.extend(plan.lowering.children_of(k).iter().map(|&c| rows + c));
                builder.push(plan.lowering.height_of(k), plan.kinds[k], rows + k, &feat_row, &kids);
            }
            rows += plan.len;
        }
        if let Some(units) = units {
            builder.check_units(units);
        }
        let (steps, levels) =
            builder.finish(out_w, STEP_CHUNK_ROWS, &mut |rows, cols| Matrix::zeros(rows, cols));
        Lane { steps, levels, outputs: Matrix::zeros(rows, out_w), pool: BufferPool::new() }
    }

    /// Runs the lane's whole schedule on the calling thread.
    fn run(&mut self, packed: &PackedUnits) {
        let (out_w, pool) = (self.outputs.cols(), &mut self.pool);
        let order = self.levels.iter().flatten().copied();
        run_steps_seq(&mut self.steps, order, packed, &mut self.outputs, pool, out_w);
    }
}

/// Locks a lane. Poison is ignored: a panicking run is re-raised on the
/// caller, and the next run rewrites every row it reads.
fn lock_lane(slot: &Mutex<Lane>) -> MutexGuard<'_, Lane> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A compiled inference program over a heterogeneous batch of plans.
///
/// Compile once per batch with [`PlanProgram::compile`], then run any
/// number of times against unit sets of the same shape; all buffers are
/// preallocated at compile time and reused across runs. Every prediction
/// method takes a thread count ([`PlanProgram::run_parallel`]), which
/// never changes the results.
pub struct PlanProgram {
    /// One lane per thread of the last run; the lock hands a lane to
    /// exactly one worker per run.
    lanes: Vec<Mutex<Lane>>,
    /// Lane `i` holds plans `cuts[i]..cuts[i + 1]`.
    cuts: Vec<usize>,
    plans: Vec<PlanSlot>,
    num_nodes: usize,
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
    /// full SIMD tier width. Every lane reads the same panels.
    packed: Option<(u64, PackedUnits)>,
}

impl PlanProgram {
    /// Compiles `roots` into a wavefront schedule against the fitted
    /// model's shape (`units` sizes the routing buffers; `featurizer` and
    /// `whitener` produce the same whitened features the training path
    /// uses), laid out as one lane.
    ///
    /// # Panics
    /// Panics if a node's child count does not match its family's arity,
    /// or if a node's feature size disagrees with its unit's input
    /// dimension (a featurizer/model mismatch).
    pub fn compile(
        featurizer: &Featurizer,
        whitener: &Whitener,
        units: &UnitSet,
        roots: &[&PlanNode],
    ) -> PlanProgram {
        PlanProgram::compile_lanes(featurizer, whitener, units, roots, 1)
    }

    /// [`PlanProgram::compile`] laid out as `lanes` lanes (fewer if the
    /// batch has fewer plans).
    fn compile_lanes(
        featurizer: &Featurizer,
        whitener: &Whitener,
        units: &UnitSet,
        roots: &[&PlanNode],
        lanes: usize,
    ) -> PlanProgram {
        let nodes: Vec<Vec<&PlanNode>> = roots.iter().map(|root| root.postorder()).collect();
        let plans: Vec<PlanSlot> = roots
            .iter()
            .zip(&nodes)
            .map(|(root, nodes)| {
                let lowering = crate::lower::lower(root);
                let kinds: Vec<OpKind> = nodes.iter().map(|n| n.op.kind()).collect();
                for (k, kind) in kinds.iter().enumerate() {
                    // Hard assert: plans can arrive from unvalidated JSON
                    // (the CLI's `predict --input`), and a wrong arity
                    // would shift every later member's child rows.
                    // Compilation runs once per batch, so the check costs
                    // nothing that matters.
                    assert_eq!(
                        lowering.children_of(k).len(),
                        kind.arity(),
                        "malformed plan: {kind:?} node with {} children (arity {})",
                        lowering.children_of(k).len(),
                        kind.arity()
                    );
                }
                PlanSlot { base: 0, len: nodes.len(), lowering, kinds }
            })
            .collect();
        let mut program = PlanProgram {
            lanes: Vec::new(),
            cuts: Vec::new(),
            num_nodes: plans.iter().map(|p| p.len).sum(),
            plans,
            out_w: units.out_size(),
            fingerprint: None,
            packed: None,
        };
        program.lay_out(lanes, Some(units), &mut |p, k, out| {
            whitener.features_into(featurizer, nodes[p][k], out)
        });
        program
    }

    /// (Re)compiles the plans as `lanes` node-balanced lanes, each node's
    /// feature row written by `feat` (see [`Lane::compile`]).
    fn lay_out(
        &mut self,
        lanes: usize,
        units: Option<&UnitSet>,
        feat: &mut dyn FnMut(usize, usize, &mut Vec<f32>),
    ) {
        let sizes: Vec<usize> = self.plans.iter().map(|p| p.len).collect();
        self.cuts = balanced_cuts(&sizes, lanes);
        self.lanes = self
            .cuts
            .windows(2)
            .map(|r| {
                let plans = &mut self.plans[r[0]..r[1]];
                Mutex::new(Lane::compile(plans, r[0], self.out_w, units, feat))
            })
            .collect();
    }

    /// Lays the program out again as one lane per thread when the lane
    /// count differs from what `threads` asks for. Feature rows are read
    /// back out of the current lanes' step inputs, whose feature prefixes
    /// no run overwrites.
    fn ensure_lanes(&mut self, threads: usize) {
        let want = threads.min(self.plans.len()).max(1);
        if want == self.lanes.len() {
            return;
        }
        let old: Vec<Lane> = std::mem::take(&mut self.lanes)
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        // Where each node's feature row sits in the old layout — (lane,
        // step, member) — by plan-order row: lanes hold contiguous plan
        // ranges, so a lane's first row follows the previous lane's last.
        let mut at = vec![(0, 0, 0); self.num_nodes];
        let mut first_row = 0;
        for (l, lane) in old.iter().enumerate() {
            for (s, step) in lane.steps.iter().enumerate() {
                for (i, &r) in step.rows.iter().enumerate() {
                    at[first_row + r] = (l, s, i);
                }
            }
            first_row += lane.outputs.rows();
        }
        let starts: Vec<usize> = self
            .plans
            .iter()
            .scan(0, |row, p| {
                *row += p.len;
                Some(*row - p.len)
            })
            .collect();
        self.lay_out(want, None, &mut |p, k, out| {
            let (l, s, i) = at[starts[p] + k];
            let step = &old[l].steps[s];
            out.clear();
            out.extend_from_slice(&step.input.row(i)[..step.feat_width]);
        });
    }

    /// The raw output rows of a one-lane program, for differential tests
    /// against the training tape (which promises bit-identical forward
    /// rows).
    #[cfg(test)]
    pub(crate) fn outputs_for_tests(&mut self) -> &Matrix {
        assert_eq!(self.lanes.len(), 1, "one-lane programs only");
        &self.lanes[0].get_mut().unwrap_or_else(PoisonError::into_inner).outputs
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
        self.num_nodes
    }

    /// Number of wavefront steps, summed over lanes — i.e. gemm calls per
    /// unit-layer — the schedule executes. The per-class path would
    /// execute one gemm per (equivalence class, position) instead.
    pub fn num_steps(&self) -> usize {
        self.lanes.iter().map(|slot| lock_lane(slot).steps.len()).sum()
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

    /// Executes the program as one plan lane per thread, filling the
    /// output rows read by the `predict_*` methods.
    ///
    /// The program is first laid out again if its lane count differs from
    /// `threads` (capped at the plan count). One lane runs on the calling
    /// thread; more run as one dispatch on the process-wide resident
    /// worker pool ([`qpp_nn::Executor::global`] — parked threads created
    /// once, not spawned per run), each worker sweeping one lane's levels
    /// sequentially with no barrier. Each lane owns its buffers, so
    /// steady-state parallel serving allocates nothing, and a worker's
    /// panic is re-raised on the caller.
    ///
    /// **Determinism:** results are bit-identical for every `threads`
    /// value (the differential suite asserts exact equality) — each node
    /// is computed by the same row-invariant kernel on the same input row
    /// whichever lane holds it. See `DESIGN.md` §7.
    pub fn run_parallel(&mut self, units: &UnitSet, threads: usize) {
        self.run_on(units, Executor::global(), threads);
    }

    /// [`PlanProgram::run_parallel`] against an explicit executor — the
    /// seam the tests use to observe a private executor's dispatches.
    pub(crate) fn run_on(&mut self, units: &UnitSet, exec: &Executor, threads: usize) {
        self.check_units_width(units);
        self.ensure_lanes(threads);
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
        let packed = &self.packed.as_ref().expect("packed above").1;
        match self.lanes.as_mut_slice() {
            [lane] => lane.get_mut().unwrap_or_else(PoisonError::into_inner).run(packed),
            lanes => exec.run(lanes.len(), &|w| lock_lane(&lanes[w]).run(packed)),
        }
    }

    /// Maps every plan, in compile order, with its lane's output rows.
    fn each_plan<T>(&mut self, mut f: impl FnMut(&PlanSlot, &Matrix) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.plans.len());
        for (slot, r) in self.lanes.iter_mut().zip(self.cuts.windows(2)) {
            let outputs = &slot.get_mut().unwrap_or_else(PoisonError::into_inner).outputs;
            out.extend(self.plans[r[0]..r[1]].iter().map(|p| f(p, outputs)));
        }
        out
    }

    /// Decoded root-latency predictions (milliseconds), one per plan, in
    /// the order the plans were compiled, run on `threads` lanes (see
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

    fn decode_roots(&mut self, codec: &TargetCodec) -> Vec<f64> {
        self.each_plan(|p, outputs| codec.decode(outputs.get(p.base + p.len - 1, 0)))
    }

    /// Decoded latency predictions for every position of every plan
    /// (`result[plan][position]`, post order, milliseconds), run on
    /// `threads` lanes. With `caps`, each plan is projected onto the
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
        self.each_plan(|p, outputs| {
            let mut preds: Vec<f64> =
                (p.base..p.base + p.len).map(|r| codec.decode(outputs.get(r, 0))).collect();
            if let Some(caps) = caps {
                clamp_plan_envelope(&mut preds, &p.lowering, &p.kinds, caps);
            }
            preds
        })
    }
}

/// Cuts items of the given `weights` into at most `parts` contiguous,
/// non-empty ranges of roughly equal total weight, returning the range
/// boundaries (`0` first, `weights.len()` last). An item joins the range
/// in which at least half of its weight falls. Plans are cut into lanes
/// by node count, layers into fold shares by parameter count.
pub(crate) fn balanced_cuts(weights: &[usize], parts: usize) -> Vec<usize> {
    let n = parts.min(weights.len()).max(1);
    let total: usize = weights.iter().sum();
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0);
    let (mut end, mut before) = (0usize, 0usize);
    for i in 1..n {
        // Leave at least one item for each range still to come.
        let (min_end, max_end) = (cuts[i - 1] + 1, weights.len() - (n - i));
        let target = total * i / n;
        while end < max_end && (end < min_end || before + weights[end] / 2 < target) {
            before += weights[end];
            end += 1;
        }
        cuts.push(end);
    }
    cuts.push(weights.len());
    cuts
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
/// — the serving sweep and the training tape's forward share it, so the
/// `(feat prefix ⌢ child₁ ⌢ … ⌢ childₖ)` input layout (and the
/// bit-identity contracts built on it) cannot drift between copies.
///
/// `dst` is the step's own baked input (its feature prefix is already
/// resident); `dst.rows()` is the member count.
pub(crate) fn gather_child_columns(
    child_rows: &[usize],
    arity: usize,
    feat_width: usize,
    out_w: usize,
    dst: &mut Matrix,
    src: &Matrix,
) {
    if arity == 0 {
        return;
    }
    for i in 0..dst.rows() {
        for j in 0..arity {
            let child = child_rows[i * arity + j];
            let start = feat_width + j * out_w;
            dst.row_mut(i)[start..start + out_w].copy_from_slice(src.row(child));
        }
    }
}

/// Executes a wavefront schedule bottom-up on the calling thread: for each
/// step id of `order` (levels ascending, flattened — a sequential run
/// needs no level boundaries) routes child outputs into the step's baked
/// input and runs the unit forward through `pool`. Steps are visited via
/// the id list, so the step slab may contain retired (unlisted) entries —
/// the incremental engine relies on this.
pub(crate) fn run_steps_seq(
    steps: &mut [Step],
    order: impl IntoIterator<Item = u32>,
    packed: &PackedUnits,
    outputs: &mut Matrix,
    pool: &mut BufferPool,
    out_w: usize,
) {
    for id in order {
        let step = &mut steps[id as usize];
        // Route child outputs (written by earlier wavefronts) into the
        // child columns of this step's input.
        gather_child_columns(
            &step.child_rows,
            step.arity,
            step.feat_width,
            out_w,
            &mut step.input,
            outputs,
        );
        let out = packed.unit(step.kind).forward_pooled(&step.input, pool);
        out.scatter_rows_into(&step.rows, outputs);
        pool.give(out);
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
            let mut program =
                PlanProgram::compile_lanes(featurizer, whitener, units, &roots, threads);
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
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let num_steps = program.num_steps();
        let lane = program.lanes[0].get_mut().unwrap();
        // Levels tile the step list exactly, in order (compile emits step
        // ids sequentially).
        let flat: Vec<u32> = lane.levels.iter().flatten().copied().collect();
        assert_eq!(flat, (0..num_steps as u32).collect::<Vec<_>>());
        assert!(lane.levels.iter().all(|l| !l.is_empty()), "empty level");
        assert!(lane.levels.len() >= 2, "multi-operator plans need >= 2 levels");
        // Every child row referenced by a level's steps is produced by a
        // step of an earlier level — the property the sequential sweep's
        // correctness rests on.
        let mut produced_before: Vec<std::collections::HashSet<usize>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for level in &lane.levels {
            produced_before.push(seen.clone());
            for &id in level {
                seen.extend(lane.steps[id as usize].rows.iter().copied());
            }
        }
        for (l, level) in lane.levels.iter().enumerate() {
            for &id in level {
                for &c in &lane.steps[id as usize].child_rows {
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

    impl PlanProgram {
        /// Matrices pooled across every lane.
        fn pooled_buffers(&self) -> usize {
            self.lanes.iter().map(|slot| lock_lane(slot).pool.available()).sum()
        }
    }

    #[test]
    fn parallel_workers_reach_zero_steady_state_allocation() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        // Warm-up run lays the program out as four lanes and grows every
        // lane's pool to its high-water mark.
        program.run_parallel(&units, 4);
        let first = program.decode_roots(&codec);
        let pooled = program.pooled_buffers();
        assert!(pooled > 0, "lanes must pool buffers");
        // Steady state: repeated runs neither grow nor leak any pool, and
        // reuse is exact (every take is matched by a give).
        for _ in 0..3 {
            program.run_parallel(&units, 4);
            assert_eq!(program.decode_roots(&codec), first, "stale routing between parallel runs");
            assert_eq!(program.pooled_buffers(), pooled, "lane pools changed in steady state");
        }
    }

    #[test]
    fn relayouts_keep_bits_and_lane_pools_stop_growing() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        let base_roots = program.predict_roots_threaded(&units, &codec, None, 1);
        let base_all = program.predict_all_threaded(&units, &codec, None, 1);
        let mut pooled = Vec::new();
        for cycle in 0..3 {
            for (i, threads) in [4, 1, 2].into_iter().enumerate() {
                let roots = program.predict_roots_threaded(&units, &codec, None, threads);
                assert_eq!(roots, base_roots, "cycle {cycle}, {threads} threads: roots differ");
                let all = program.predict_all_threaded(&units, &codec, None, threads);
                assert_eq!(all, base_all, "cycle {cycle}, {threads} threads: per-operator differ");
                assert_eq!(program.lanes.len(), threads);
                if cycle == 0 {
                    pooled.push(program.pooled_buffers());
                } else {
                    assert_eq!(
                        program.pooled_buffers(),
                        pooled[i],
                        "cycle {cycle}, {threads} threads: lane pools grew across relayouts"
                    );
                }
            }
        }
    }

    #[test]
    fn oversubscribed_threads_fall_back_cleanly() {
        let (ds, fz, wh, units, codec) = setup();
        // A one-plan program is one lane at any thread count: it runs on
        // the caller and never dispatches to the executor.
        let mut program = PlanProgram::compile(&fz, &wh, &units, &[&ds.plans[0].root]);
        let one = program.predict_roots_threaded(&units, &codec, None, 1);
        let exec = Executor::new(0);
        program.run_on(&units, &exec, 8);
        let many = program.decode_roots(&codec);
        assert_eq!(one, many);
        let stats = exec.stats();
        assert_eq!(stats.runs, 0, "a one-lane run must not dispatch to the executor");
        assert_eq!(stats.resident_workers, 0, "a one-lane run must not spawn resident workers");
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn mismatched_units_panic_instead_of_deadlocking_workers() {
        let (ds, fz, wh, units, codec) = setup();
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = PlanProgram::compile(&fz, &wh, &units, &roots);
        // A unit set with the same output width (so the cheap width check
        // passes) but different per-family input dims: the shape assert
        // fires *inside worker threads*. The executor must re-raise it on
        // the caller, not strand the run.
        let other = Dataset::generate(Workload::TpcDs, 1.0, 8, 3);
        let fz2 = Featurizer::new(&other.catalog);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let units2 = UnitSet::new(&QppConfig::tiny(), &fz2, &mut rng);
        assert_eq!(units2.out_size(), units.out_size(), "width check must pass");
        let _ = program.predict_roots_threaded(&units2, &codec, None, 4);
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
