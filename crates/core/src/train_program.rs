//! Differentiable wavefront programs: the training engine that runs on
//! the serving engine's data layout (DESIGN.md §9).
//!
//! The legacy training path ([`crate::tree::TreeBatch`]) batches only
//! *structurally identical* plans, so a realistic mixed workload fragments
//! into dozens of equivalence classes and every operator position costs
//! one tiny gemm plus a per-position activation cache allocation — in both
//! directions. A [`ProgramTape`] instead compiles a training batch exactly
//! like the serving compiler does (`WavefrontBuilder`, the shared
//! grouping/chunking code in `crate::infer`): all nodes of all plans
//! keyed by `(height-from-leaf, OpKind)`, one gemm per operator family
//! per wavefront across the whole heterogeneous batch. The tape then
//! makes that program differentiable:
//!
//! * **forward** records every layer activation per wavefront step into
//!   preallocated tape buffers (activations suffice — every
//!   [`qpp_nn::Activation`] derivative is computable from its output, so
//!   no pre-activations are stored);
//! * **loss** seeds a per-node gradient buffer with `2·(prediction −
//!   target)` in the latency column — Equation 7's every-operator
//!   supervision, over the *entire* batch at once;
//! * **backward** replays the levels in reverse: each step gathers its
//!   members' output gradients, walks its unit's layers backwards
//!   (fused activation backward → bias/weight-gradient gemms → input
//!   gradient gemm), and scatter-adds the child column blocks of the
//!   input gradient onto the children's gradient rows — the exact adjoint
//!   of the forward's child-row gather.
//!
//! The arithmetic per node is identical to the per-class path — same
//! whitened features, same weights, same supervision — only the grouping
//! of rows into gemm calls changes, and neither a gemm row nor its
//! reverse-mode adjoints depend on other rows of the same call. The
//! differential suite (`tests/train_differential.rs`) holds accumulated
//! weight gradients to within `1e-5` relative of the `TreeBatch` oracle
//! and the resulting *trained models* to within `1e-5` on held-out
//! predictions.
//!
//! # Multicore execution
//!
//! Both sweeps run on the shared level-barrier executor
//! (`run_levels_parallel_with` in `crate::infer`) that powers multicore
//! serving — and therefore on the same resident worker pool
//! ([`qpp_nn::Executor::global`]): training and serving are tenants of
//! one set of parked workers and their persistent buffer pools. The forward is parallel for the same reason serving is: steps
//! of one level write disjoint output rows and read only lower levels.
//! The backward is the mirror image: levels run top-down, each gradient
//! row is written by exactly one step (a node has at most one parent;
//! the loss seed is written before the sweep), and reads are
//! barrier-sequenced. Weight gradients are the one shared accumulator —
//! each worker owns a private `GradSet` (weights stay shared and
//! read-only), reduced into the unit set after the sweep, so the hot path
//! stays lock-free. Forward results are bit-identical at any thread
//! count; gradient sums differ only by f32 summation order, exactly like
//! the legacy data-parallel trainer.

use crate::config::TargetCodec;
use crate::infer::{
    gather_child_columns, max_level_width, run_levels_parallel_with, SharedRows, Step,
    WavefrontBuilder,
};
use crate::lower::{lower, Lowering};
use crate::unit::{PackedUnits, UnitSet};
use qpp_nn::{activation_backward_inplace, BufferPool, Executor, Matrix, PackedWeights};
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::operators::OpKind;
use qpp_plansim::plan::PlanNode;

/// Maximum rows per compiled training step. Larger than the serving
/// engine's latency-tuned [`crate::infer::STEP_CHUNK_ROWS`]: a training
/// step runs *three* gemms per layer (forward, weight gradient, input
/// gradient) plus a gather, a scatter and two gradient-row passes, so
/// per-step overhead is ~3x serving's and worth amortizing over more
/// rows — while a 128-row chunk's working set (input, activations, one
/// unit's weights) still fits L2 for both model tiers. Measured on
/// `train_throughput`: 128-row training chunks beat 32-row ones on both
/// tiers; chunk size changes which rows share a gemm call, never any
/// row's arithmetic.
pub(crate) const TRAIN_CHUNK_ROWS: usize = 128;

/// Per-kind, per-layer weight/bias gradient accumulators, decoupled from
/// the weights they correspond to.
///
/// The tape backward reads weights from the tape's shared packed panels
/// and accumulates into one of these — which is what lets worker threads
/// run backward concurrently without cloning weights or locking: each
/// worker owns a `GradSet`, and the per-parameter sums are reduced into
/// the unit set's accumulators afterwards ([`GradSet::add_into`]).
///
/// Weight-gradient accumulators are [`PackedWeights`] panels in the same
/// layout as the weights they correspond to, so the backward's
/// `dW += Xᵀ·dZ` gemm writes cache-line-aligned panel groups at full
/// SIMD width with no remainder-column tail; the panels are folded into
/// the unit set's row-major `gw` once per sweep, not once per step.
pub(crate) struct GradSet {
    /// `grads[kind][layer] = (packed weight grad, bias grad)`, shaped
    /// like the unit set this was built from.
    grads: Vec<Vec<(PackedWeights, Vec<f32>)>>,
}

impl GradSet {
    /// Zeroed accumulators shaped like `units`.
    pub(crate) fn new_like(units: &UnitSet) -> GradSet {
        GradSet {
            grads: OpKind::ALL
                .iter()
                .map(|&kind| {
                    units
                        .unit(kind)
                        .layers()
                        .iter()
                        .map(|l| {
                            (PackedWeights::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()])
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Resets every accumulator to zero (keeping allocations).
    pub(crate) fn zero(&mut self) {
        for unit in &mut self.grads {
            for (gw, gb) in unit {
                gw.fill_zero();
                gb.fill(0.0);
            }
        }
    }

    /// Mutably borrows the `(weight grad, bias grad)` pair of one layer.
    #[inline]
    fn layer_mut(&mut self, kind: OpKind, layer: usize) -> (&mut PackedWeights, &mut [f32]) {
        let (gw, gb) = &mut self.grads[kind.index()][layer];
        (gw, gb)
    }

    /// Adds these accumulators into `units`' gradient accumulators — the
    /// reduction step after a backward sweep (and the single point where
    /// packed panel gradients unfold back into row-major `gw`).
    pub(crate) fn add_into(&self, units: &mut UnitSet) {
        for (&kind, unit) in OpKind::ALL.iter().zip(&self.grads) {
            for (layer, (gw, gb)) in units.unit_mut(kind).layers_mut().iter_mut().zip(unit) {
                gw.add_unpacked_into(&mut layer.gw);
                for (d, &s) in layer.gb.iter_mut().zip(gb) {
                    *d += s;
                }
            }
        }
    }
}

/// One plan of a [`TrainSet`]: its lowering plus everything featurization
/// and supervision derive from it, cached once per training run.
struct PlanRecord {
    lowering: Lowering,
    kinds: Vec<OpKind>,
    /// Whitened feature rows, concatenated; node `k`'s row is
    /// `feat[feat_offsets[k]..feat_offsets[k + 1]]`.
    feat: Vec<f32>,
    feat_offsets: Vec<usize>,
    /// Encoded latency target per node (every operator is supervised).
    targets: Vec<f32>,
}

impl PlanRecord {
    fn len(&self) -> usize {
        self.kinds.len()
    }

    fn feat_of(&self, k: usize) -> &[f32] {
        &self.feat[self.feat_offsets[k]..self.feat_offsets[k + 1]]
    }
}

/// The per-training-run cache behind the wavefront trainer: every plan
/// lowered, featurized and target-encoded **once**, so per-epoch tape
/// compilation is pure row grouping — no tree walks, no Table-2
/// featurization, no whitening in the epoch loop (the training-time
/// analogue of the streaming engine's feature-row cache).
pub(crate) struct TrainSet {
    records: Vec<PlanRecord>,
}

impl TrainSet {
    /// Lowers, featurizes and target-encodes `plans`.
    ///
    /// # Panics
    /// Panics if a node's child count does not match its family's arity —
    /// training data can arrive from unvalidated JSON (`qpp train
    /// --dataset`), and a malformed tree must fail loudly here rather
    /// than corrupt row routing later.
    pub(crate) fn prepare(
        featurizer: &Featurizer,
        whitener: &Whitener,
        codec: &TargetCodec,
        plans: &[&PlanNode],
    ) -> TrainSet {
        let mut scratch = Vec::new();
        let records = plans
            .iter()
            .map(|root| {
                let nodes = root.postorder();
                let lowering = lower(root);
                let mut feat = Vec::new();
                let mut feat_offsets = Vec::with_capacity(nodes.len() + 1);
                let mut targets = Vec::with_capacity(nodes.len());
                let mut kinds = Vec::with_capacity(nodes.len());
                feat_offsets.push(0);
                for (k, node) in nodes.iter().enumerate() {
                    let kind = node.op.kind();
                    assert_eq!(
                        lowering.children_of(k).len(),
                        kind.arity(),
                        "malformed plan: {kind:?} node with {} children (arity {})",
                        lowering.children_of(k).len(),
                        kind.arity()
                    );
                    whitener.features_into(featurizer, node, &mut scratch);
                    feat.extend_from_slice(&scratch);
                    feat_offsets.push(feat.len());
                    targets.push(codec.encode(node.actual.latency_ms));
                    kinds.push(kind);
                }
                PlanRecord { lowering, kinds, feat, feat_offsets, targets }
            })
            .collect();
        TrainSet { records }
    }

    /// Number of cached plans.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Total operator nodes across all cached plans.
    #[cfg(test)]
    fn total_nodes(&self) -> usize {
        self.records.iter().map(PlanRecord::len).sum()
    }
}

/// The reusable pieces a retiring tape hands to its successor: the
/// buffer pool (holding every drained matrix), per-worker gradient
/// accumulators, the target buffer, and the packed panel state (same
/// model shapes across a session, so the allocation carries over; every
/// forward refreshes the contents anyway). (Per-worker *pools* are no
/// longer tape state — they live in the resident executor.)
type TapeParts = (BufferPool, Vec<GradSet>, Vec<f32>, PackedUnits);

/// A compiled, differentiable wavefront program over a training batch —
/// the gradient-carrying twin of [`crate::infer::PlanProgram`].
///
/// Compile once per batch (for full-batch training, once per *run* — the
/// trainer reuses the tape across epochs), then per gradient step:
/// [`ProgramTape::forward_threaded`] → [`ProgramTape::loss`] →
/// [`ProgramTape::backward_threaded`], which accumulates summed-SSE weight
/// gradients into the unit set exactly like
/// [`crate::tree::TreeBatch::backward`] does — the caller normalizes and
/// applies them. All buffers (step inputs, recorded activations, output
/// and gradient rows) are preallocated at compile time and reused across
/// epochs; recompiling for a different batch recycles them through the
/// tape's [`BufferPool`].
///
/// ```
/// use qppnet::config::{TargetCodec, TargetTransform};
/// use qppnet::{ProgramTape, QppConfig, UnitSet};
/// use qpp_plansim::features::{Featurizer, Whitener};
/// use qpp_plansim::prelude::*;
/// use rand::SeedableRng;
///
/// let ds = Dataset::generate(Workload::TpcH, 1.0, 12, 3);
/// let fz = Featurizer::new(&ds.catalog);
/// let wh = Whitener::fit(&fz, ds.plans.iter());
/// let codec = TargetCodec::fit(TargetTransform::Log1p,
///                              ds.plans.iter().map(|p| p.latency_ms()));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut units = UnitSet::new(&QppConfig::tiny(), &fz, &mut rng);
///
/// let roots: Vec<_> = ds.plans.iter().map(|p| &p.root).collect();
/// let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
/// units.zero_grad();
/// tape.forward_threaded(&units, 1);
/// let (sse, ops) = tape.loss();
/// tape.backward_threaded(&mut units, 1); // grads now live in `units`
/// assert!(sse >= 0.0 && ops == tape.num_nodes());
/// ```
pub struct ProgramTape {
    steps: Vec<Step>,
    /// Recorded layer activations, parallel to `steps`: `acts[s][l]` is
    /// layer `l`'s activation over step `s`'s members. Written by every
    /// forward, consumed by the following backward.
    acts: Vec<Vec<Matrix>>,
    levels: Vec<Vec<u32>>,
    /// `total_nodes × out_w`; row `r` holds node `r`'s forward output.
    outputs: Matrix,
    /// `total_nodes × out_w`; row `r` holds `∂loss/∂output(r)` — seeded by
    /// [`ProgramTape::loss`], routed top-down by the backward sweep.
    grad_outputs: Matrix,
    /// Encoded latency target per global node row.
    targets: Vec<f32>,
    out_w: usize,
    num_plans: usize,
    /// Scratch + recycling pool: gradient ping-pong buffers during
    /// backward, and retired tape buffers between recompiles. (Per-worker
    /// pools for the parallel sweeps come from the resident
    /// [`qpp_nn::Executor`], which keeps them warm across epochs.)
    pool: BufferPool,
    /// Per-worker gradient accumulators (index 0 also serves the
    /// sequential path), grown lazily and kept warm across epochs.
    worker_grads: Vec<GradSet>,
    /// Packed panel state (forward **and** transposed backward panels),
    /// refreshed from the authoritative unit set at the start of every
    /// forward sweep: the trainer mutates weights in place between
    /// gradient steps, so — unlike the borrow-pinned streaming builder —
    /// the tape can never cache panels across sweeps. Refresh is
    /// O(params), the same order as the optimizer step it follows.
    packed: PackedUnits,
}

impl ProgramTape {
    /// Compiles `roots` into a differentiable wavefront program against
    /// the fitted model's shape, featurizing every node (one-shot
    /// convenience; the trainer goes through a per-run feature cache
    /// instead — `TrainSet` — which featurizes once per run, not once
    /// per batch).
    ///
    /// # Panics
    /// Panics if a node's child count does not match its family's arity,
    /// or if feature sizes disagree with the unit set (a featurizer/model
    /// mismatch).
    pub fn compile(
        featurizer: &Featurizer,
        whitener: &Whitener,
        codec: &TargetCodec,
        units: &UnitSet,
        roots: &[&PlanNode],
    ) -> ProgramTape {
        let set = TrainSet::prepare(featurizer, whitener, codec, roots);
        let chunk: Vec<usize> = (0..roots.len()).collect();
        ProgramTape::compile_from(&set, &chunk, units, None)
    }

    /// Compiles the tape for one batch (`chunk` indexes into `set`),
    /// recycling a retired tape's buffers when one is handed back — the
    /// mini-batch path reuses every allocation across recompiles, so the
    /// epoch loop is allocation-free in steady state.
    pub(crate) fn compile_from(
        set: &TrainSet,
        chunk: &[usize],
        units: &UnitSet,
        recycled: Option<ProgramTape>,
    ) -> ProgramTape {
        let out_w = units.out_size();
        let (mut pool, worker_grads, mut targets, packed) = match recycled {
            Some(tape) => tape.into_parts(),
            None => {
                (BufferPool::new(), Vec::new(), Vec::new(), PackedUnits::pack(units, true))
            }
        };

        let mut builder = WavefrontBuilder::new();
        let mut total_nodes = 0usize;
        let mut child_scratch = Vec::new();
        targets.clear();
        for &pi in chunk {
            let rec = &set.records[pi];
            let base = total_nodes;
            total_nodes += rec.len();
            for k in 0..rec.len() {
                child_scratch.clear();
                child_scratch.extend(rec.lowering.children_of(k).iter().map(|&c| base + c));
                builder.push(
                    rec.lowering.height_of(k),
                    rec.kinds[k],
                    base + k,
                    rec.feat_of(k),
                    &child_scratch,
                );
                targets.push(rec.targets[k]);
            }
        }

        let (steps, levels) =
            builder.finish(units, TRAIN_CHUNK_ROWS, &mut |rows, cols| pool.take(rows, cols));
        // Every recorded activation is fully overwritten by each forward
        // (and outputs/grad rows by each run/loss), so pooled buffers with
        // unspecified contents are safe everywhere here.
        let acts = steps
            .iter()
            .map(|s| {
                units
                    .unit(s.kind)
                    .layers()
                    .iter()
                    .map(|l| pool.take(s.rows.len(), l.out_dim()))
                    .collect()
            })
            .collect();
        let outputs = pool.take(total_nodes, out_w);
        let grad_outputs = pool.take(total_nodes, out_w);

        ProgramTape {
            steps,
            acts,
            levels,
            outputs,
            grad_outputs,
            targets,
            out_w,
            num_plans: chunk.len(),
            pool,
            worker_grads,
            packed,
        }
    }

    /// Tears the tape down to its reusable parts: every matrix drains into
    /// the pool; worker state and the target buffer carry over.
    fn into_parts(mut self) -> TapeParts {
        for step in self.steps {
            self.pool.give(step.input);
        }
        for acts in self.acts {
            for a in acts {
                self.pool.give(a);
            }
        }
        self.pool.give(self.outputs);
        self.pool.give(self.grad_outputs);
        (self.pool, self.worker_grads, self.targets, self.packed)
    }

    /// Number of plans in the compiled batch.
    pub fn num_plans(&self) -> usize {
        self.num_plans
    }

    /// Total operator nodes (= supervised rows) across all plans.
    pub fn num_nodes(&self) -> usize {
        self.targets.len()
    }

    /// Number of wavefront steps — gemm calls per unit-layer per forward
    /// sweep (the backward executes two more per layer: weight and input
    /// gradients). The per-class path would execute one gemm per
    /// (equivalence class, position) instead.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of height levels (the barrier count of a parallel sweep).
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

    /// Runs the recording forward pass on `threads` workers: levels
    /// ascending, each step gathering child outputs into its input,
    /// running its unit layer by layer into the tape's activation buffers,
    /// and scattering the final activation into the global output rows.
    /// Bit-identical at any thread count: workers run the same kernels on
    /// the same tape buffers — only the assignment of steps to workers
    /// changes (one thread runs the levels inline on the caller).
    pub fn forward_threaded(&mut self, units: &UnitSet, threads: usize) {
        self.check_units_width(units);
        // Refresh the packed panels from the authoritative weights (the
        // trainer mutates them in place between gradient steps). The
        // following backward reads the same packed state — exactly the
        // weights this forward used.
        self.packed.repack_from(units);
        let threads = threads.min(max_level_width(&self.levels));
        let out_w = self.out_w;
        if threads <= 1 {
            for level_idx in 0..self.levels.len() {
                for s in 0..self.levels[level_idx].len() {
                    let id = self.levels[level_idx][s] as usize;
                    let step = &mut self.steps[id];
                    let outputs = &mut self.outputs;
                    gather_child_columns(
                        &step.child_rows,
                        step.arity,
                        step.feat_width,
                        out_w,
                        &mut step.input,
                        |r| outputs.row(r),
                    );
                    let last = forward_layers(step, &mut self.acts[id], &self.packed);
                    last.scatter_rows_into(&step.rows, outputs);
                }
            }
        } else {
            let packed = &self.packed;
            let steps = SharedSlab::new(&mut self.steps);
            let acts = SharedSlab::new(&mut self.acts);
            let outputs = SharedRows::new(&mut self.outputs);
            // The workers carry no private state in the forward — the tape
            // buffers themselves are the storage (disjoint per step).
            let mut workers = vec![(); threads];
            let exec = Executor::global();
            run_levels_parallel_with(exec, &self.levels, false, &mut workers, &|(), _pool, id| {
                // SAFETY: each step id appears in exactly one level list
                // once, and the round-robin deal hands it to exactly one
                // worker — no two threads touch the same step's input or
                // activation buffers within a level.
                let step = unsafe { steps.get_mut(id as usize) };
                let step_acts = unsafe { acts.get_mut(id as usize) };
                // SAFETY (row reads): child rows live at strictly lower
                // heights — written in an earlier level, sequenced by the
                // inter-level barrier.
                gather_child_columns(
                    &step.child_rows,
                    step.arity,
                    step.feat_width,
                    out_w,
                    &mut step.input,
                    |r| unsafe { outputs.row(r) },
                );
                let last = forward_layers(step, step_acts, packed);
                for (k, &r) in step.rows.iter().enumerate() {
                    // SAFETY: each output row belongs to exactly one step.
                    unsafe { outputs.write_row(r, last.row(k)) };
                }
            });
        }
    }

    /// Computes the summed-squared-error loss over **every operator of
    /// every plan** (Equation 7's all-operator supervision) from the last
    /// forward, and seeds the gradient buffer the backward sweep consumes:
    /// `∂loss/∂output(r) = 2·(outputs[r, 0] − target[r])` in the latency
    /// column, zero elsewhere.
    ///
    /// Returns `(sse, supervised row count)`. Like
    /// [`crate::tree::TreeBatch::loss`], gradients are **unnormalized**
    /// (pure SSE): the trainer normalizes once by the batch's total
    /// operator count — §5.1.1's unbiased recombination.
    pub fn loss(&mut self) -> (f64, usize) {
        self.grad_outputs.fill_zero();
        let mut sse = 0.0f64;
        for (r, &target) in self.targets.iter().enumerate() {
            let err = self.outputs.get(r, 0) - target;
            sse += (err as f64) * (err as f64);
            self.grad_outputs.set(r, 0, 2.0 * err);
        }
        (sse, self.targets.len())
    }

    /// Runs the reverse sweep on `threads` workers, accumulating weight
    /// and bias gradients into `units` (summed with whatever is already
    /// there, exactly like [`crate::tree::TreeBatch::backward`]): levels
    /// descending, each step gathering its members' output gradients,
    /// walking its unit's layers in reverse, and scatter-adding child
    /// gradient blocks onto the children's rows. Each worker accumulates
    /// into its own private gradient set against the shared read-only
    /// weights, reduced into `units` after the sweep — equivalent to the
    /// one-thread sweep up to f32 summation order (the same contract as
    /// the legacy data-parallel trainer).
    ///
    /// Call [`ProgramTape::loss`] (after a forward) first — it seeds the
    /// gradient buffer this sweep drains.
    pub fn backward_threaded(&mut self, units: &mut UnitSet, threads: usize) {
        self.check_units_width(units);
        let threads = threads.min(max_level_width(&self.levels)).max(1);
        while self.worker_grads.len() < threads {
            self.worker_grads.push(GradSet::new_like(units));
        }
        for g in &mut self.worker_grads[..threads] {
            g.zero();
        }

        if threads <= 1 {
            let grads = &mut self.worker_grads[0];
            for level in self.levels.iter().rev() {
                for &id in level {
                    let id = id as usize;
                    let step = &self.steps[id];
                    let mut d = self.pool.take(step.rows.len(), self.out_w);
                    self.grad_outputs.gather_rows_into(&step.rows, &mut d);
                    let dx =
                        backward_layers(step, &self.acts[id], &self.packed, d, grads, &mut self.pool);
                    if let Some(dx) = dx {
                        route_child_grads_seq(step, &dx, &mut self.grad_outputs, self.out_w);
                        self.pool.give(dx);
                    }
                }
            }
        } else {
            let packed = &self.packed;
            let steps = &self.steps;
            let acts = &self.acts;
            let out_w = self.out_w;
            let grad_outputs = SharedRows::new(&mut self.grad_outputs);
            // Each worker's scratch pool is its resident executor pool;
            // only the gradient accumulators are tape-owned worker state.
            let workers = &mut self.worker_grads[..threads];
            let exec = Executor::global();
            run_levels_parallel_with(exec, &self.levels, true, workers, &|grads, pool, id| {
                let id = id as usize;
                let step = &steps[id];
                let members = step.rows.len();
                let mut d = pool.take(members, out_w);
                for (k, &r) in step.rows.iter().enumerate() {
                    // SAFETY: row `r`'s gradient is complete — its only
                    // writers are the loss seed (before the sweep) and
                    // `r`'s parent step, which lives at a strictly higher
                    // height: an earlier reverse level, barrier-sequenced.
                    d.row_mut(k).copy_from_slice(unsafe { grad_outputs.row(r) });
                }
                let dx = backward_layers(step, &acts[id], packed, d, grads, pool);
                if let Some(dx) = dx {
                    // SAFETY: a node has at most one parent, so this step
                    // is the only writer of each routed child's gradient
                    // row in the whole sweep.
                    scatter_child_grad_columns(step, &dx, out_w, |child, src| unsafe {
                        grad_outputs.add_to_row(child, src);
                    });
                    pool.give(dx);
                }
            });
        }

        for g in &self.worker_grads[..threads] {
            g.add_into(units);
        }
    }
}

/// The trainer's per-run wavefront state: the cached [`TrainSet`] plus
/// tape reuse across epochs.
///
/// Shuffling changes batch *order* every epoch, but gradient and loss
/// sums over one batch are order-independent — so the common full-batch
/// configuration (`batch_size >= plans`) compiles **one** tape in
/// canonical order and reuses it for the whole run: zero per-epoch
/// compilation, zero steady-state allocation. Mini-batch configurations
/// recompile per chunk (membership really changes) but recycle every
/// buffer through the retiring tape's pool, and never re-featurize — the
/// `TrainSet` did that once.
pub(crate) struct ProgramSession {
    set: TrainSet,
    /// The compile-once tape for full-set chunks.
    full_tape: Option<ProgramTape>,
    /// The recycled tape for mini-batch chunks.
    scratch_tape: Option<ProgramTape>,
}

impl ProgramSession {
    /// Lowers, featurizes and target-encodes the training set once.
    pub(crate) fn prepare(
        featurizer: &Featurizer,
        whitener: &Whitener,
        codec: &TargetCodec,
        roots: &[&PlanNode],
    ) -> ProgramSession {
        ProgramSession {
            set: TrainSet::prepare(featurizer, whitener, codec, roots),
            full_tape: None,
            scratch_tape: None,
        }
    }

    /// The tape for one shuffled chunk: the cached full-batch tape when
    /// the chunk covers the whole set (order is irrelevant to the sums),
    /// a buffer-recycling recompile otherwise.
    pub(crate) fn tape_for(&mut self, chunk: &[usize], units: &UnitSet) -> &mut ProgramTape {
        if chunk.len() == self.set.len() {
            if self.full_tape.is_none() {
                let canonical: Vec<usize> = (0..self.set.len()).collect();
                self.full_tape =
                    Some(ProgramTape::compile_from(&self.set, &canonical, units, None));
            }
            self.full_tape.as_mut().expect("compiled above")
        } else {
            let recycled = self.scratch_tape.take();
            self.scratch_tape =
                Some(ProgramTape::compile_from(&self.set, chunk, units, recycled));
            self.scratch_tape.as_mut().expect("compiled above")
        }
    }
}

/// Runs one step's unit forward layer by layer into the tape's recording
/// buffers, returning the final activation (the step's output rows).
fn forward_layers<'a>(step: &Step, acts: &'a mut [Matrix], packed: &PackedUnits) -> &'a Matrix {
    let layers = packed.unit(step.kind).layers();
    debug_assert_eq!(layers.len(), acts.len(), "tape recorded a different layer count");
    for l in 0..layers.len() {
        let (done, rest) = acts.split_at_mut(l);
        let x: &Matrix = if l == 0 { &step.input } else { &done[l - 1] };
        layers[l].forward_into(x, &mut rest[0]);
    }
    acts.last().expect("units have at least one layer")
}

/// Walks one step's unit layers in reverse from the gathered output
/// gradient `d`: fused activation backward (from recorded activations),
/// bias and weight gradient accumulation into `grads`, then the input
/// gradient gemm `dX = dZ·Wᵀ` feeding the next layer down. Returns the
/// gradient w.r.t. the step input (`members × in_dim`, pool-owned) when
/// the step has children to route it to, `None` for leaves (whose input
/// gradient nothing consumes — the gemm is skipped entirely).
fn backward_layers(
    step: &Step,
    acts: &[Matrix],
    packed: &PackedUnits,
    d: Matrix,
    grads: &mut GradSet,
    pool: &mut BufferPool,
) -> Option<Matrix> {
    let layers = packed.unit(step.kind).layers();
    let mut d = d;
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let x: &Matrix = if l == 0 { &step.input } else { &acts[l - 1] };
        // dZ = dA ⊙ act'(act output) — identity layers skip the pass.
        activation_backward_inplace(&mut d, &acts[l], layer.act());
        let (gw, gb) = grads.layer_mut(step.kind, l);
        d.col_sum_into(gb);
        gw.accumulate_at_b(x, &d);
        if l == 0 && step.arity == 0 {
            pool.give(d);
            return None;
        }
        let mut dx = pool.take(d.rows(), layer.in_dim());
        layer.backward_input_into(&d, &mut dx);
        pool.give(std::mem::replace(&mut d, dx));
    }
    Some(d)
}

/// Scatter-adds the child column blocks of a step's input gradient onto
/// the children's gradient rows — the adjoint of
/// [`gather_child_columns`], and like it the **single** copy of the
/// column-block routing layout (`fw + j·out_w`, node-major `child_rows`
/// stride) shared by the sequential and parallel backward; `add_row`
/// abstracts the sink (plain matrix rows or a [`SharedRows`] view)
/// exactly as the gather's `row_of` abstracts its source.
fn scatter_child_grad_columns(
    step: &Step,
    dx: &Matrix,
    out_w: usize,
    mut add_row: impl FnMut(usize, &[f32]),
) {
    let fw = step.feat_width;
    for i in 0..dx.rows() {
        for j in 0..step.arity {
            let child = step.child_rows[i * step.arity + j];
            add_row(child, &dx.row(i)[fw + j * out_w..fw + (j + 1) * out_w]);
        }
    }
}

/// The sequential backward's child routing: unary families hand their
/// (contiguous) child list straight to the
/// [`Matrix::scatter_add_cols_into`] kernel; higher arities go through
/// the shared [`scatter_child_grad_columns`] walk.
fn route_child_grads_seq(step: &Step, dx: &Matrix, grad_outputs: &mut Matrix, out_w: usize) {
    match step.arity {
        0 => {}
        1 => dx.scatter_add_cols_into(step.feat_width, &step.child_rows, grad_outputs),
        _ => scatter_child_grad_columns(step, dx, out_w, |child, src| {
            for (dst, &s) in grad_outputs.row_mut(child).iter_mut().zip(src) {
                *dst += s;
            }
        }),
    }
}

/// A raw-pointer view of a slab (`Vec<T>`) that hands out disjoint `&mut`
/// elements to worker threads — the per-step twin of
/// [`SharedRows`]: the level schedule assigns each step id to
/// exactly one worker, so element accesses never alias. Lives only inside
/// one executor invocation's scope, which holds the `&mut [T]` borrow for
/// the view's whole lifetime.
struct SharedSlab<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

/// SAFETY: see the type-level contract — all element accesses are disjoint
/// (one step id, one worker), so handing the view to multiple threads is
/// sound for any `Send` element.
unsafe impl<T: Send> Send for SharedSlab<'_, T> {}
/// SAFETY: as for [`Send`].
unsafe impl<T: Send> Sync for SharedSlab<'_, T> {}

impl<'a, T> SharedSlab<'a, T> {
    fn new(slice: &'a mut [T]) -> SharedSlab<'a, T> {
        SharedSlab { ptr: slice.as_mut_ptr(), len: slice.len(), _borrow: std::marker::PhantomData }
    }

    /// Mutably borrows element `i`.
    ///
    /// # Safety
    /// The caller must be the only thread accessing element `i` for the
    /// borrow's lifetime (each step belongs to exactly one worker within
    /// a level, and levels are barrier-separated).
    #[inline]
    #[allow(clippy::mut_from_ref)] // the raw-pointer escape hatch IS the point; see the safety contract
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "slab index {i} out of range for {} elements", self.len);
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{QppConfig, TargetTransform};
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;
    use rand::SeedableRng;

    fn setup(workload: Workload, n: usize, seed: u64) -> (Dataset, Featurizer, Whitener, UnitSet, TargetCodec) {
        let ds = Dataset::generate(workload, 1.0, n, seed);
        let fz = Featurizer::new(&ds.catalog);
        let wh = Whitener::fit(&fz, ds.plans.iter());
        let cfg = QppConfig::tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7A9E);
        let units = UnitSet::new(&cfg, &fz, &mut rng);
        let codec =
            TargetCodec::fit(TargetTransform::Log1p, ds.plans.iter().map(|p| p.latency_ms()));
        (ds, fz, wh, units, codec)
    }

    fn grads_snapshot(units: &UnitSet) -> Vec<(Matrix, Vec<f32>)> {
        OpKind::ALL
            .iter()
            .flat_map(|&k| units.unit(k).layers().iter().map(|l| (l.gw.clone(), l.gb.clone())))
            .collect()
    }

    fn assert_grads_close(a: &[(Matrix, Vec<f32>)], b: &[(Matrix, Vec<f32>)], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, ((gw_a, gb_a), (gw_b, gb_b))) in a.iter().zip(b).enumerate() {
            for (x, y) in gw_a.as_slice().iter().zip(gw_b.as_slice()) {
                let rel = (x - y).abs() / (1.0 + x.abs().max(y.abs()));
                assert!(rel < tol, "layer {i}: weight grad {x} vs {y} (rel {rel})");
            }
            for (x, y) in gb_a.iter().zip(gb_b) {
                let rel = (x - y).abs() / (1.0 + x.abs().max(y.abs()));
                assert!(rel < tol, "layer {i}: bias grad {x} vs {y} (rel {rel})");
            }
        }
    }

    /// Structural contract of one forward+loss pass (the full gradient
    /// differential against the `TreeBatch` oracle lives in
    /// `tests/train_differential.rs`, which owns that harness).
    #[test]
    fn loss_supervises_every_operator_of_every_plan() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 24, 5);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        tape.forward_threaded(&units, 1);
        let (sse, ops) = tape.loss();
        assert_eq!(ops, ds.plans.iter().map(|p| p.node_count()).sum::<usize>());
        assert_eq!(ops, tape.num_nodes());
        assert!(sse.is_finite() && sse > 0.0, "untrained nets have positive loss");
    }

    #[test]
    fn tape_forward_matches_serving_program() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs, 16, 9);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        tape.forward_threaded(&units, 1);
        let mut program = crate::infer::PlanProgram::compile(&fz, &wh, &units, &roots);
        program.run_parallel(&units, 1);
        // Same kernels, same grouping policy (shared WavefrontBuilder) —
        // the training forward IS the serving forward, bit for bit.
        assert_eq!(tape.outputs, *program.outputs_for_tests());
    }

    #[test]
    fn threaded_sweeps_match_sequential() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs, 24, 13);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);

        let mut seq_units = units.clone();
        seq_units.zero_grad();
        tape.forward_threaded(&units, 1);
        let (seq_sse, _) = tape.loss();
        tape.backward_threaded(&mut seq_units, 1);
        let seq_out = tape.outputs.clone();
        let seq = grads_snapshot(&seq_units);

        for threads in [2usize, 4, 8] {
            let mut par_units = units.clone();
            par_units.zero_grad();
            tape.forward_threaded(&units, threads);
            // Forward is bit-identical: same buffers, same kernels.
            assert_eq!(tape.outputs, seq_out, "{threads}-thread forward diverged");
            let (sse, _) = tape.loss();
            assert_eq!(sse, seq_sse);
            tape.backward_threaded(&mut par_units, threads);
            // Gradients agree up to f32 summation order (worker-local
            // accumulation then reduction).
            assert_grads_close(&grads_snapshot(&par_units), &seq, 1e-5);
        }
    }

    #[test]
    fn minibatch_recompiles_recycle_buffers() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 16, 21);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let set = TrainSet::prepare(&fz, &wh, &codec, &roots);
        assert_eq!(set.len(), 16);
        assert_eq!(set.total_nodes(), ds.plans.iter().map(|p| p.node_count()).sum::<usize>());

        let chunk_a: Vec<usize> = (0..8).collect();
        let chunk_b: Vec<usize> = (8..16).collect();
        let mut tape = ProgramTape::compile_from(&set, &chunk_a, &units, None);
        let mut scratch_units = units.clone();
        // Warm both sweeps so scratch buffers reach their high-water mark.
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut scratch_units, 1);
        // Recompile churn: after the first swap, steady-state recompiles
        // must not allocate fresh matrices (every take is served by the
        // recycled pool at or under its high-water mark).
        tape = ProgramTape::compile_from(&set, &chunk_b, &units, Some(tape));
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut scratch_units, 1);
        let watermark = tape.pool.available();
        for chunk in [&chunk_a, &chunk_b, &chunk_a] {
            tape = ProgramTape::compile_from(&set, chunk, &units, Some(tape));
            tape.forward_threaded(&units, 1);
            tape.loss();
            tape.backward_threaded(&mut scratch_units, 1);
            assert!(
                tape.pool.available() <= watermark + 1,
                "recompile grew the pool past its high-water mark"
            );
        }
        // And the recycled tape still computes the right thing: same
        // gradients as a freshly-compiled tape over the same chunk
        // (recycling must be invisible; the TreeBatch-oracle comparison
        // lives in the integration suite).
        let fresh_roots: Vec<&PlanNode> =
            chunk_a.iter().map(|&i| &ds.plans[i].root).collect();
        let mut fresh_tape = ProgramTape::compile(&fz, &wh, &codec, &units, &fresh_roots);
        let mut fresh_units = units.clone();
        fresh_units.zero_grad();
        fresh_tape.forward_threaded(&units, 1);
        fresh_tape.loss();
        fresh_tape.backward_threaded(&mut fresh_units, 1);
        let mut tape_units = units.clone();
        tape_units.zero_grad();
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut tape_units, 1);
        assert_grads_close(&grads_snapshot(&tape_units), &grads_snapshot(&fresh_units), 1e-5);
    }

    #[test]
    fn backward_accumulates_like_tree_batch() {
        // Two backward passes must sum gradients (the trainer's contract),
        // not overwrite them.
        let (ds, fz, wh, mut units, codec) = setup(Workload::TpcH, 6, 31);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        units.zero_grad();
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut units, 1);
        let once = grads_snapshot(&units);
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut units, 1);
        let twice = grads_snapshot(&units);
        for ((gw1, _), (gw2, _)) in once.iter().zip(&twice) {
            for (a, b) in gw1.as_slice().iter().zip(gw2.as_slice()) {
                assert!((2.0 * a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} doubled vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "malformed plan")]
    fn malformed_arity_is_rejected_at_prepare() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 4, 3);
        let _ = &ds;
        use qpp_plansim::operators::Operator;
        let bad = PlanNode::new(Operator::Materialize, vec![]);
        let _ = ProgramTape::compile(&fz, &wh, &codec, &units, &[&bad]);
    }

    #[test]
    fn empty_batch_compiles_and_trains_nothing() {
        let (_, fz, wh, mut units, codec) = setup(Workload::TpcH, 4, 3);
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &[]);
        units.zero_grad();
        tape.forward_threaded(&units, 1);
        let (sse, ops) = tape.loss();
        tape.backward_threaded(&mut units, 1);
        assert_eq!((sse, ops), (0.0, 0));
        assert_eq!(tape.num_plans(), 0);
    }
}
