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
//! # Multicore execution: plan lanes
//!
//! A tape over a batch is split into **lanes**, one per thread: contiguous
//! ranges of the batch's plans, balanced by node count, each compiled as
//! its own wavefront program with its own steps, recorded activations,
//! output and gradient rows, and weight-gradient accumulators
//! (`GradSet`). Plans never share rows, so lanes are independent: a
//! worker runs forward, loss and backward over its lanes with the
//! sequential sweep and no barrier between levels. One executor dispatch
//! ([`qpp_nn::Executor::global`], the pool serving uses) covers a whole
//! trainer step, in three phases with a barrier between each: every
//! worker repacks its share of the layers' panels, sweeps its lanes, and
//! folds the lanes' gradient sets, in lane order, into its share of the
//! unit set, then applies the optimizer update to that share against the
//! layers' own state slots (shares are contiguous and balanced by
//! parameter count).
//! Workers reach lanes and panels through uncontended locks, so the tape
//! carries no `unsafe`.
//!
//! Determinism: forward outputs are bit-identical at any lane count (the
//! packed kernels are row-invariant). For a given lane layout, gradients
//! are bit-identical at any thread count — a lane's sums do not depend
//! on which worker ran it, and the fold order is the lane order. Across
//! lane counts gradients differ only in f32 summation order.

use crate::config::TargetCodec;
use crate::infer::{balanced_cuts, gather_child_columns, Step, WavefrontBuilder};
use crate::lower::{lower, Lowering};
use crate::unit::UnitSet;
use qpp_nn::{
    activation_backward_inplace, BufferPool, Dense, Executor, LayerState, Matrix, OptState,
    Optimizer, PackedDense, PackedWeights,
};
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::operators::OpKind;
use qpp_plansim::plan::PlanNode;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError, RwLock, RwLockReadGuard};

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
/// and accumulates into one of these — which is what lets lanes run
/// backward concurrently without cloning weights or locking: each lane
/// owns a `GradSet`, and the per-parameter sums are folded into the unit
/// set's accumulators afterwards, in lane order.
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

/// One lane of a [`ProgramTape`]: a contiguous range of the batch's plans
/// compiled as its own differentiable wavefront program. Row indices
/// (`outputs`, `grad_outputs`, the steps' member and child rows) are
/// lane-local.
struct Lane {
    steps: Vec<Step>,
    /// Recorded layer activations, parallel to `steps`: `acts[s][l]` is
    /// layer `l`'s activation over step `s`'s members. Written by every
    /// forward, consumed by the following backward.
    acts: Vec<Vec<Matrix>>,
    levels: Vec<Vec<u32>>,
    /// `lane_nodes × out_w`; row `r` holds node `r`'s forward output.
    outputs: Matrix,
    /// `lane_nodes × out_w`; row `r` holds `∂loss/∂output(r)` — seeded by
    /// the loss, routed top-down by the backward sweep.
    grad_outputs: Matrix,
    /// Encoded latency target per lane node row.
    targets: Vec<f32>,
    /// Summed squared error of the last loss.
    sse: f64,
    /// This lane's weight-gradient accumulators.
    grads: GradSet,
    /// Gradient ping-pong scratch during backward, and retired lane
    /// buffers between recompiles.
    pool: BufferPool,
}

/// The reusable pieces a retiring lane hands to its successor: the buffer
/// pool (holding every drained matrix), the gradient accumulators and the
/// target buffer.
type LaneParts = (BufferPool, GradSet, Vec<f32>);

impl Lane {
    /// Compiles `plans` (indexes into `set`) into a lane, recycling a
    /// retired lane's parts when handed some.
    fn compile(set: &TrainSet, plans: &[usize], units: &UnitSet, parts: Option<LaneParts>) -> Lane {
        let out_w = units.out_size();
        let (mut pool, grads, mut targets) = parts.unwrap_or_else(|| {
            (BufferPool::new(), GradSet::new_like(units), Vec::new())
        });
        let mut builder = WavefrontBuilder::new();
        let mut child_scratch = Vec::new();
        targets.clear();
        for &pi in plans {
            let rec = &set.records[pi];
            let base = targets.len();
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

        builder.check_units(units);
        let (steps, levels) =
            builder.finish(out_w, TRAIN_CHUNK_ROWS, &mut |rows, cols| pool.take(rows, cols));
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
        let outputs = pool.take(targets.len(), out_w);
        let grad_outputs = pool.take(targets.len(), out_w);
        Lane { steps, acts, levels, outputs, grad_outputs, targets, sse: 0.0, grads, pool }
    }

    /// Tears the lane down to its reusable parts: every matrix drains into
    /// the pool.
    fn into_parts(mut self) -> LaneParts {
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
        (self.pool, self.grads, self.targets)
    }

    /// The recording forward sweep: levels ascending, each step gathering
    /// child outputs into its input, running its unit layer by layer into
    /// the lane's activation buffers, and scattering the final activation
    /// into the output rows.
    fn forward(&mut self, panels: &PanelView) {
        let out_w = self.outputs.cols();
        for level in &self.levels {
            for &id in level {
                let id = id as usize;
                let step = &mut self.steps[id];
                let outputs = &mut self.outputs;
                gather_child_columns(
                    &step.child_rows,
                    step.arity,
                    step.feat_width,
                    out_w,
                    &mut step.input,
                    outputs,
                );
                let last = forward_layers(step, &mut self.acts[id], panels.unit(step.kind));
                last.scatter_rows_into(&step.rows, outputs);
            }
        }
    }

    /// Seeds the gradient rows from the last forward and records the
    /// lane's summed squared error (see [`ProgramTape::loss`]).
    fn loss(&mut self) {
        self.grad_outputs.fill_zero();
        let mut sse = 0.0f64;
        for (r, &target) in self.targets.iter().enumerate() {
            let err = self.outputs.get(r, 0) - target;
            sse += (err as f64) * (err as f64);
            self.grad_outputs.set(r, 0, 2.0 * err);
        }
        self.sse = sse;
    }

    /// The reverse sweep into this lane's gradient set, zeroed first: levels
    /// descending, each step gathering its members' output gradients,
    /// walking its unit's layers in reverse, and scatter-adding child
    /// gradient blocks onto the children's rows.
    fn backward(&mut self, panels: &PanelView) {
        let out_w = self.outputs.cols();
        self.grads.zero();
        for level in self.levels.iter().rev() {
            for &id in level {
                let id = id as usize;
                let step = &self.steps[id];
                let mut d = self.pool.take(step.rows.len(), out_w);
                self.grad_outputs.gather_rows_into(&step.rows, &mut d);
                let layers = panels.unit(step.kind);
                let (grads, pool) = (&mut self.grads, &mut self.pool);
                let dx = backward_layers(step, &self.acts[id], layers, d, grads, pool);
                if let Some(dx) = dx {
                    route_child_grads(step, &dx, &mut self.grad_outputs, out_w);
                    self.pool.give(dx);
                }
            }
        }
    }
}

/// Write-locks a lane. Poison is ignored: a panicking sweep is re-raised
/// on the caller, and the next sweep rewrites every buffer it reads.
fn write_lane(slot: &RwLock<Lane>) -> std::sync::RwLockWriteGuard<'_, Lane> {
    slot.write().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a lane for the gradient fold (poison ignored, as for
/// [`write_lane`]).
fn read_lane(slot: &RwLock<Lane>) -> RwLockReadGuard<'_, Lane> {
    slot.read().unwrap_or_else(PoisonError::into_inner)
}

/// The tape's packed layers — forward **and** transposed backward
/// panels — flat in `(family, layer)` order, with one lock per layer so
/// workers can refresh disjoint layers at once and then all read them.
struct Panels {
    layers: Vec<RwLock<PackedDense>>,
    /// Family `k`'s layers are `layers[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
}

impl Panels {
    fn pack(units: &UnitSet) -> Panels {
        let mut offsets = vec![0];
        let mut layers = Vec::new();
        for kind in OpKind::ALL {
            let unit = units.unit(kind).layers();
            layers.extend(unit.iter().map(|l| RwLock::new(PackedDense::pack(l, true))));
            offsets.push(layers.len());
        }
        Panels { layers, offsets }
    }

    /// Refreshes every layer from `units` on the calling thread.
    fn repack_from(&mut self, units: &UnitSet) {
        let dense = OpKind::ALL.iter().flat_map(|&kind| units.unit(kind).layers());
        for (panel, src) in self.layers.iter_mut().zip(dense) {
            panel.get_mut().unwrap_or_else(PoisonError::into_inner).repack_from(src);
        }
    }

    /// Read access to every layer for one worker's sweeps.
    fn view(&self) -> PanelView<'_> {
        PanelView {
            layers: self
                .layers
                .iter()
                .map(|l| l.read().unwrap_or_else(PoisonError::into_inner))
                .collect(),
            offsets: &self.offsets,
        }
    }
}

/// One worker's read guards on every packed layer of a [`Panels`].
struct PanelView<'a> {
    layers: Vec<RwLockReadGuard<'a, PackedDense>>,
    offsets: &'a [usize],
}

impl PanelView<'_> {
    /// The packed layers of one family's unit.
    fn unit(&self, kind: OpKind) -> &[RwLockReadGuard<'_, PackedDense>] {
        let k = kind.index();
        &self.layers[self.offsets[k]..self.offsets[k + 1]]
    }
}

/// What one dispatch does around the lane sweeps.
#[derive(Clone, Copy)]
enum Fold<'a> {
    /// Fold `g += Σ lanes` — the public backward's accumulate contract.
    Accumulate,
    /// The trainer's whole gradient step: first refresh the panels from
    /// the unit set (the optimizer moved the weights), then, after the
    /// sweeps, fold `g = (Σ lanes)·scale` and `gw += decay·w` — the
    /// trainer's normalization and weight decay — and, with an `opt`,
    /// apply its update to the layer right away.
    Step { scale: f32, decay: f32, opt: Option<&'a dyn Optimizer> },
}

/// One layer of the unit set, handed to the worker that folds it (and,
/// for [`Fold::Step`], repacks its panels and updates it).
struct FoldItem<'a> {
    kind: OpKind,
    layer: usize,
    dst: &'a mut Dense,
    /// The layer's optimizer slot, when the step applies an update.
    slot: Option<&'a mut LayerState>,
}

impl FoldItem<'_> {
    /// Folds every lane's accumulators for this layer into `dst`, in lane
    /// order (so the result does not depend on which worker folds it).
    /// `parts` is scratch for the lanes' weight-gradient panels.
    fn fold<'l>(
        &mut self,
        lanes: &'l [RwLockReadGuard<Lane>],
        how: Fold,
        parts: &mut Vec<&'l PackedWeights>,
    ) {
        let (kind, layer, dst) = (self.kind.index(), self.layer, &mut *self.dst);
        dst.ensure_grads();
        match how {
            Fold::Accumulate => {
                for lane in lanes {
                    let (gw, gb) = &lane.grads.grads[kind][layer];
                    gw.add_unpacked_into(&mut dst.gw);
                    add_into(&mut dst.gb, gb);
                }
            }
            Fold::Step { scale, decay, opt } => {
                parts.clear();
                parts.extend(lanes.iter().map(|lane| &lane.grads.grads[kind][layer].0));
                PackedWeights::sum_unpacked_into(parts, &mut dst.gw);
                dst.gb.fill(0.0);
                for lane in lanes {
                    add_into(&mut dst.gb, &lane.grads.grads[kind][layer].1);
                }
                // Bitwise `scale_grad(scale)` then `gw += decay · w`.
                dst.scale_grad(scale);
                if decay != 0.0 {
                    for (g, &w) in dst.gw.as_mut_slice().iter_mut().zip(dst.w.as_slice()) {
                        *g += decay * w;
                    }
                }
                // The optimizer update is elementwise over this layer
                // alone: the same arithmetic as the serial
                // `UnitSet::apply_grads`, on this worker's share.
                if let (Some(opt), Some(slot)) = (opt, self.slot.as_deref_mut()) {
                    dst.apply_grads(opt, slot);
                }
            }
        }
    }
}

/// `dst += src`, element-wise.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Runs `sweep` over every lane on `threads` workers in **one** executor
/// dispatch — worker `w` takes lanes `w, w + workers, …`. With a `fold`,
/// each worker also owns a contiguous, parameter-balanced share of the
/// unit set's layers: for [`Fold::Step`] it first repacks its share's
/// panels, and after every lane is swept it folds the lanes' gradients
/// into its share and, given optimizer state (one slot per dense layer
/// id, as [`UnitSet::apply_grads`] numbers them), updates it. A barrier
/// separates the phases.
///
/// A panic in one phase must not strand the other workers at a barrier:
/// it is caught, a poison flag skips every later phase, and the payload
/// is re-raised after the barrier (the executor hands it to the caller).
fn run_lanes(
    lanes: &[RwLock<Lane>],
    panels: &Panels,
    threads: usize,
    sweep: &(dyn Fn(&mut Lane, &PanelView) + Sync),
    fold: Option<(&mut UnitSet, Fold, Option<&mut OptState>)>,
) {
    let workers = threads.min(lanes.len()).max(1);
    let (items, how) = match fold {
        Some((units, how, state)) => {
            let mut slots = state.map(|s| s.layers_mut(units.num_layers()).iter_mut());
            let items: Vec<FoldItem> = units
                .units_mut()
                .flat_map(|(kind, mlp)| {
                    mlp.layers_mut()
                        .iter_mut()
                        .enumerate()
                        .map(move |(layer, dst)| (kind, layer, dst))
                })
                .map(|(kind, layer, dst)| {
                    let slot = slots.as_mut().and_then(Iterator::next);
                    FoldItem { kind, layer, dst, slot }
                })
                .collect();
            (items, Some(how))
        }
        None => (Vec::new(), None),
    };
    let sizes: Vec<usize> = items.iter().map(|i| i.dst.w.rows() * i.dst.w.cols()).collect();
    let items: Vec<Mutex<FoldItem>> = items.into_iter().map(Mutex::new).collect();
    let lock_item = |i: usize| items[i].lock().unwrap_or_else(PoisonError::into_inner);
    let shares = balanced_cuts(&sizes, workers);
    let barrier = Barrier::new(workers);
    let poisoned = AtomicBool::new(false);
    // Ends a phase: waits for every worker, re-raises this worker's own
    // panic, and tells whether the next phase may run.
    let phase_done = |result: std::thread::Result<()>| {
        if result.is_err() {
            poisoned.store(true, Ordering::Release);
        }
        barrier.wait();
        if let Err(payload) = result {
            resume_unwind(payload);
        }
        !poisoned.load(Ordering::Acquire)
    };
    Executor::global().run(workers, &|w| {
        // Fewer layers than workers leaves the last workers no share.
        let share = match (shares.get(w), shares.get(w + 1)) {
            (Some(&start), Some(&end)) => start..end,
            _ => 0..0,
        };
        if let Some(Fold::Step { .. }) = how {
            let repacked = catch_unwind(AssertUnwindSafe(|| {
                for i in share.clone() {
                    let mut panel =
                        panels.layers[i].write().unwrap_or_else(PoisonError::into_inner);
                    panel.repack_from(lock_item(i).dst);
                }
            }));
            if !phase_done(repacked) {
                return;
            }
        }
        let swept = catch_unwind(AssertUnwindSafe(|| {
            let view = panels.view();
            for slot in lanes.iter().skip(w).step_by(workers) {
                sweep(&mut write_lane(slot), &view);
            }
        }));
        let Some(how) = how else {
            if let Err(payload) = swept {
                resume_unwind(payload);
            }
            return;
        };
        if !phase_done(swept) {
            return;
        }
        let guards: Vec<RwLockReadGuard<Lane>> = lanes.iter().map(read_lane).collect();
        let mut parts = Vec::with_capacity(guards.len());
        for i in share {
            lock_item(i).fold(&guards, how, &mut parts);
        }
    });
}

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
/// lanes' [`BufferPool`]s.
///
/// The batch runs as one lane per thread (module docs): a tape from
/// [`ProgramTape::compile`] starts with one lane and is laid out again
/// whenever a forward asks for a different thread count.
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
/// tape.forward_threaded(&units, 2); // lays the batch out as two lanes
/// let (sse, ops) = tape.loss();
/// tape.backward_threaded(&mut units, 2); // grads now live in `units`
/// assert!(sse >= 0.0 && ops == tape.num_nodes());
/// assert_eq!(tape.num_lanes(), 2);
/// ```
pub struct ProgramTape {
    set: Arc<TrainSet>,
    /// The batch: indexes into `set`, in lane order.
    plans: Vec<usize>,
    /// Contiguous plan ranges of `plans`, one per lane; the lock hands a
    /// lane to exactly one worker per sweep.
    lanes: Vec<RwLock<Lane>>,
    out_w: usize,
    num_nodes: usize,
    /// Packed panel state, shared read-only by every lane and refreshed
    /// from the authoritative unit set at the start of every forward
    /// sweep: the trainer mutates weights in place between gradient
    /// steps, so — unlike the borrow-pinned streaming builder — the tape
    /// can never cache panels across sweeps. Refresh is O(params), the
    /// same order as the optimizer step it follows; the trainer's step
    /// spreads it across its workers.
    panels: Panels,
}

impl ProgramTape {
    /// Compiles `roots` into a differentiable wavefront program against
    /// the fitted model's shape, featurizing every node (one-shot
    /// convenience; the trainer goes through a per-run feature cache
    /// instead — `TrainSet` — which featurizes once per run, not once
    /// per batch). The tape starts as one lane.
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
        let set = Arc::new(TrainSet::prepare(featurizer, whitener, codec, roots));
        let chunk: Vec<usize> = (0..roots.len()).collect();
        ProgramTape::compile_from(&set, &chunk, units, 1, None)
    }

    /// Compiles the tape for one batch (`chunk` indexes into `set`) as
    /// `lanes` lanes (fewer if the batch has fewer plans), recycling a
    /// retired tape's buffers when one is handed back — the mini-batch
    /// path reuses every matrix across recompiles.
    pub(crate) fn compile_from(
        set: &Arc<TrainSet>,
        chunk: &[usize],
        units: &UnitSet,
        lanes: usize,
        recycled: Option<ProgramTape>,
    ) -> ProgramTape {
        let (plans, parts, panels) = match recycled {
            Some(tape) => {
                let (mut plans, parts, panels) = tape.into_parts();
                plans.clear();
                plans.extend_from_slice(chunk);
                (plans, parts, panels)
            }
            None => (chunk.to_vec(), Vec::new(), Panels::pack(units)),
        };
        let mut tape = ProgramTape {
            set: Arc::clone(set),
            plans,
            lanes: Vec::new(),
            out_w: units.out_size(),
            num_nodes: 0,
            panels,
        };
        tape.lay_out(units, lanes, parts);
        tape
    }

    /// (Re)compiles the batch as `lanes` node-balanced lanes, consuming
    /// `parts` (retired lanes' buffers) in order.
    fn lay_out(&mut self, units: &UnitSet, lanes: usize, parts: Vec<LaneParts>) {
        let set = &self.set;
        let nodes: Vec<usize> = self.plans.iter().map(|&p| set.records[p].len()).collect();
        let cuts = balanced_cuts(&nodes, lanes);
        let mut parts = parts.into_iter();
        self.lanes = cuts
            .windows(2)
            .map(|r| RwLock::new(Lane::compile(set, &self.plans[r[0]..r[1]], units, parts.next())))
            .collect();
        self.num_nodes = nodes.iter().sum();
    }

    /// Tears the tape down to its reusable parts: the plan list, every
    /// lane's parts, and the packed panel state (same model shapes across
    /// a session, so the allocation carries over; every forward refreshes
    /// the contents anyway).
    fn into_parts(self) -> (Vec<usize>, Vec<LaneParts>, Panels) {
        let parts = self
            .lanes
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).into_parts())
            .collect();
        (self.plans, parts, self.panels)
    }

    /// Lays the batch out again as one lane per thread when the lane count
    /// differs from what `threads` asks for.
    fn ensure_lanes(&mut self, units: &UnitSet, threads: usize) {
        let want = threads.min(self.plans.len()).max(1);
        if want != self.lanes.len() {
            let parts = std::mem::take(&mut self.lanes)
                .into_iter()
                .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).into_parts())
                .collect();
            self.lay_out(units, want, parts);
        }
    }

    /// Number of plans in the compiled batch.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// Total operator nodes (= supervised rows) across all plans.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of wavefront steps, summed over lanes — gemm calls per
    /// unit-layer per forward sweep (the backward executes two more per
    /// layer: weight and input gradients). The per-class path would
    /// execute one gemm per (equivalence class, position) instead.
    pub fn num_steps(&self) -> usize {
        self.lanes.iter().map(|slot| read_lane(slot).steps.len()).sum()
    }

    /// Number of lanes the batch is laid out as (one per thread of the
    /// last forward).
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
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

    /// Runs the recording forward pass with one lane per thread, laying
    /// the batch out again first if the lane count differs from
    /// `threads`: in each lane, levels ascending, each step gathering
    /// child outputs into its input, running its unit layer by layer into
    /// the lane's activation buffers, and scattering the final activation
    /// into the lane's output rows. Outputs are bit-identical at any
    /// thread count (the kernels are row-invariant).
    pub fn forward_threaded(&mut self, units: &UnitSet, threads: usize) {
        self.check_units_width(units);
        self.ensure_lanes(units, threads);
        self.forward_lanes(units, threads);
    }

    /// The forward over the current lane layout on `threads` workers.
    fn forward_lanes(&mut self, units: &UnitSet, threads: usize) {
        // Refresh the packed panels from the authoritative weights (the
        // trainer mutates them in place between gradient steps). The
        // following backward reads the same packed state — exactly the
        // weights this forward used.
        self.panels.repack_from(units);
        run_lanes(&self.lanes, &self.panels, threads, &|lane, panels| lane.forward(panels), None);
    }

    /// Computes the summed-squared-error loss over **every operator of
    /// every plan** (Equation 7's all-operator supervision) from the last
    /// forward, and seeds the gradient buffers the backward sweep consumes:
    /// `∂loss/∂output(r) = 2·(outputs[r, 0] − target[r])` in the latency
    /// column, zero elsewhere.
    ///
    /// Returns `(sse, supervised row count)`; the SSE is summed per lane,
    /// then across lanes in lane order. Like
    /// [`crate::tree::TreeBatch::loss`], gradients are **unnormalized**
    /// (pure SSE): the trainer normalizes once by the batch's total
    /// operator count — §5.1.1's unbiased recombination.
    pub fn loss(&mut self) -> (f64, usize) {
        let mut sse = 0.0f64;
        for slot in &mut self.lanes {
            let lane = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            lane.loss();
            sse += lane.sse;
        }
        (sse, self.num_nodes)
    }

    /// Runs the reverse sweep over the lanes of the last forward on
    /// `threads` workers (the lane layout is not changed here — it
    /// belongs to the recorded forward), accumulating weight and bias
    /// gradients into `units` (summed with whatever is already there,
    /// exactly like [`crate::tree::TreeBatch::backward`]): each lane
    /// sweeps its levels descending into its own gradient set, and the
    /// sets are folded into `units` in lane order — bit-identical at any
    /// thread count for a given lane layout.
    ///
    /// Call [`ProgramTape::loss`] (after a forward) first — it seeds the
    /// gradient buffers this sweep drains.
    pub fn backward_threaded(&mut self, units: &mut UnitSet, threads: usize) {
        self.check_units_width(units);
        let sweep = |lane: &mut Lane, panels: &PanelView| lane.backward(panels);
        let fold = Some((units, Fold::Accumulate, None));
        run_lanes(&self.lanes, &self.panels, threads, &sweep, fold);
    }

    /// One whole gradient step in one executor dispatch: forward, loss and
    /// backward per lane, then the fold into `units` — overwriting their
    /// gradients with the batch's summed-SSE gradients normalized by its
    /// operator count (§5.1.1's unbiased recombination) plus `decay ·
    /// w` weight decay on weights (not biases). With an `update`, each
    /// worker then applies the optimizer to the layers it folded, against
    /// their slots in the state (bitwise what [`UnitSet::apply_grads`]
    /// does over the same gradients); the caller ends the optimizer step.
    /// Without one, the gradients are left for the caller to apply.
    /// Returns `(sse, supervised row count)` like [`ProgramTape::loss`].
    pub(crate) fn train_step(
        &mut self,
        units: &mut UnitSet,
        threads: usize,
        decay: f32,
        update: Option<(&dyn Optimizer, &mut OptState)>,
    ) -> (f64, usize) {
        self.check_units_width(units);
        self.ensure_lanes(units, threads);
        let ops = self.num_nodes;
        let (opt, state) = update.unzip();
        let how = Fold::Step { scale: 1.0 / ops.max(1) as f32, decay, opt };
        let sweep = |lane: &mut Lane, panels: &PanelView| {
            lane.forward(panels);
            lane.loss();
            lane.backward(panels);
        };
        run_lanes(&self.lanes, &self.panels, threads, &sweep, Some((units, how, state)));
        let sse = self.lanes.iter().map(|slot| read_lane(slot).sse).sum();
        (sse, ops)
    }
}

/// The trainer's per-run wavefront state: the cached [`TrainSet`] plus
/// tape reuse across epochs.
///
/// Shuffling changes batch *order* every epoch, but gradient and loss
/// sums over one batch are order-independent — so the common full-batch
/// configuration (`batch_size >= plans`) compiles **one** tape in
/// canonical order and reuses it for the whole run: zero per-epoch
/// compilation. Mini-batch configurations recompile per chunk
/// (membership really changes) but recycle every buffer through the
/// retiring tape's lanes, and never re-featurize — the `TrainSet` did
/// that once.
pub(crate) struct ProgramSession {
    set: Arc<TrainSet>,
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
            set: Arc::new(TrainSet::prepare(featurizer, whitener, codec, roots)),
            full_tape: None,
            scratch_tape: None,
        }
    }

    /// The tape for one shuffled chunk, laid out as `lanes` lanes: the
    /// cached full-batch tape when the chunk covers the whole set (order
    /// is irrelevant to the sums), a buffer-recycling recompile otherwise.
    pub(crate) fn tape_for(
        &mut self,
        chunk: &[usize],
        units: &UnitSet,
        lanes: usize,
    ) -> &mut ProgramTape {
        if chunk.len() == self.set.len() {
            let set = &self.set;
            self.full_tape.get_or_insert_with(|| {
                let canonical: Vec<usize> = (0..set.len()).collect();
                ProgramTape::compile_from(set, &canonical, units, lanes, None)
            })
        } else {
            let recycled = self.scratch_tape.take();
            self.scratch_tape =
                Some(ProgramTape::compile_from(&self.set, chunk, units, lanes, recycled));
            self.scratch_tape.as_mut().expect("compiled above")
        }
    }
}

/// Runs one step's unit forward layer by layer into the tape's recording
/// buffers, returning the final activation (the step's output rows).
fn forward_layers<'a>(
    step: &Step,
    acts: &'a mut [Matrix],
    layers: &[RwLockReadGuard<PackedDense>],
) -> &'a Matrix {
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
    layers: &[RwLockReadGuard<PackedDense>],
    d: Matrix,
    grads: &mut GradSet,
    pool: &mut BufferPool,
) -> Option<Matrix> {
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
/// the children's gradient rows — the adjoint of [`gather_child_columns`]
/// (`fw + j·out_w` column blocks, node-major `child_rows` stride). Unary
/// families hand their (contiguous) child list straight to the
/// [`Matrix::scatter_add_cols_into`] kernel.
fn route_child_grads(step: &Step, dx: &Matrix, grad_outputs: &mut Matrix, out_w: usize) {
    let fw = step.feat_width;
    match step.arity {
        0 => {}
        1 => dx.scatter_add_cols_into(fw, &step.child_rows, grad_outputs),
        arity => {
            for i in 0..dx.rows() {
                for j in 0..arity {
                    let src = &dx.row(i)[fw + j * out_w..fw + (j + 1) * out_w];
                    let dst = grad_outputs.row_mut(step.child_rows[i * arity + j]);
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
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

    impl ProgramTape {
        /// Every lane's output rows, stacked in lane order — the global
        /// row order of a one-lane tape.
        fn stacked_outputs(&self) -> Matrix {
            let mut out = Matrix::zeros(self.num_nodes, self.out_w);
            let mut r = 0;
            for slot in &self.lanes {
                let lane = read_lane(slot);
                for k in 0..lane.outputs.rows() {
                    out.row_mut(r).copy_from_slice(lane.outputs.row(k));
                    r += 1;
                }
            }
            out
        }

        /// Matrices pooled across every lane.
        fn pooled_buffers(&self) -> usize {
            self.lanes.iter().map(|slot| read_lane(slot).pool.available()).sum()
        }
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

    fn assert_grads_bitwise(a: &[(Matrix, Vec<f32>)], b: &[(Matrix, Vec<f32>)], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, ((gw_a, gb_a), (gw_b, gb_b))) in a.iter().zip(b).enumerate() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let same_gw = bits(gw_a.as_slice()) == bits(gw_b.as_slice());
            assert!(same_gw, "{what}: layer {i} weight grads");
            assert!(bits(gb_a) == bits(gb_b), "{what}: layer {i} bias grads");
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
        assert_eq!(tape.stacked_outputs(), *program.outputs_for_tests());
    }

    /// Lanes regroup rows into different gemm calls, never a row's
    /// arithmetic: at any lane count the stacked lane outputs are the
    /// serving program's outputs, bit for bit.
    #[test]
    fn lane_forwards_match_serving_program_at_any_lane_count() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 20, 17);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut program = crate::infer::PlanProgram::compile(&fz, &wh, &units, &roots);
        program.run_parallel(&units, 1);
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        for lanes in 1..=4 {
            tape.forward_threaded(&units, lanes);
            assert_eq!(tape.num_lanes(), lanes);
            assert_eq!(tape.stacked_outputs(), *program.outputs_for_tests(), "{lanes} lanes");
        }
    }

    #[test]
    fn lanes_are_contiguous_node_balanced_and_non_empty() {
        assert_eq!(balanced_cuts(&[5, 5, 5, 5], 2), vec![0, 2, 4]);
        assert_eq!(balanced_cuts(&[10, 1, 1, 1, 1, 1], 2), vec![0, 1, 6]);
        // Never an empty range, even when one item outweighs the rest.
        assert_eq!(balanced_cuts(&[1, 100, 1], 3), vec![0, 1, 2, 3]);
        // Fewer items than parts: one range per item; none: one empty range.
        assert_eq!(balanced_cuts(&[3, 4], 8), vec![0, 1, 2]);
        assert_eq!(balanced_cuts(&[], 4), vec![0, 0]);
    }

    #[test]
    fn threaded_sweeps_match_sequential() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcDs, 24, 13);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let set = Arc::new(TrainSet::prepare(&fz, &wh, &codec, &roots));
        let chunk: Vec<usize> = (0..roots.len()).collect();
        let mut one_lane = ProgramTape::compile_from(&set, &chunk, &units, 1, None);
        let mut one_lane_units = units.clone();
        one_lane_units.zero_grad();
        one_lane.forward_threaded(&units, 1);
        let one_lane_out = one_lane.stacked_outputs();
        let (one_lane_sse, _) = one_lane.loss();
        one_lane.backward_threaded(&mut one_lane_units, 1);
        let one_lane_grads = grads_snapshot(&one_lane_units);

        // A fixed four-lane layout, swept by 1, 2, 4 and 8 threads.
        let mut tape = ProgramTape::compile_from(&set, &chunk, &units, 4, None);
        assert_eq!(tape.num_lanes(), 4);
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let mut par_units = units.clone();
            par_units.zero_grad();
            tape.forward_lanes(&units, threads);
            assert_eq!(tape.num_lanes(), 4, "a sweep must not re-lay the lanes");
            // Forward is bit-identical to one lane: row-invariant kernels.
            assert_eq!(tape.stacked_outputs(), one_lane_out, "{threads}-thread forward diverged");
            let (sse, _) = tape.loss();
            // Per-lane SSE sums regroup the f64 sum only.
            assert!((sse - one_lane_sse).abs() <= 1e-9 * one_lane_sse, "{sse} vs {one_lane_sse}");
            tape.backward_threaded(&mut par_units, threads);
            // Gradients of one lane layout are bitwise-equal at any thread
            // count: lanes sum alone and fold in lane order.
            let grads = grads_snapshot(&par_units);
            // Against one lane, the sums regroup by lane: f32 summation
            // order only.
            assert_grads_close(&grads, &one_lane_grads, 1e-5);
            match &reference {
                None => reference = Some((sse, grads)),
                Some((ref_sse, ref_grads)) => {
                    assert_eq!(sse.to_bits(), ref_sse.to_bits(), "{threads}-thread loss");
                    assert_grads_bitwise(&grads, ref_grads, &format!("{threads} threads"));
                }
            }
        }
    }

    /// The trainer's fused step — one dispatch for forward, loss, backward
    /// and the normalizing fold — is bitwise the separate sweeps followed
    /// by `scale_grad` and `add_weight_decay`.
    #[test]
    fn fused_train_step_matches_separate_sweeps() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 18, 29);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        let decay = 1e-3;

        let mut separate = units.clone();
        separate.zero_grad();
        tape.forward_threaded(&units, 2);
        let (sse, ops) = tape.loss();
        tape.backward_threaded(&mut separate, 2);
        separate.scale_grad(1.0 / ops as f32);
        separate.add_weight_decay(decay);

        // Stale gradients must be overwritten, not summed into.
        let mut fused = units.clone();
        fused.zero_grad();
        for kind in OpKind::ALL {
            for layer in fused.unit_mut(kind).layers_mut() {
                layer.gw.map_inplace(|_| 9.0);
                layer.gb.fill(9.0);
            }
        }
        let (fused_sse, fused_ops) = tape.train_step(&mut fused, 2, decay, None);
        assert_eq!((fused_sse.to_bits(), fused_ops), (sse.to_bits(), ops));
        assert_grads_bitwise(&grads_snapshot(&fused), &grads_snapshot(&separate), "fused step");
    }

    /// Every weight and bias of a unit set, as bits.
    fn param_bits(units: &UnitSet) -> Vec<u32> {
        OpKind::ALL
            .iter()
            .flat_map(|&k| units.unit(k).layers())
            .flat_map(|l| l.w.as_slice().iter().chain(&l.b))
            .map(|v| v.to_bits())
            .collect()
    }

    /// The optimizer update applied inside the fold, by each worker to
    /// the layers it folded, is bitwise the serial `UnitSet::apply_grads`
    /// over the same gradients — step after step, so the per-layer state
    /// (momentum, Adam's moments and step count) carries over the same.
    #[test]
    fn optimizer_fused_into_the_fold_matches_the_serial_update() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 18, 37);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let decay = 1e-3;
        type MakeOpt = fn() -> Box<dyn Optimizer>;
        let optimizers: [(&str, MakeOpt); 2] = [
            ("adam", || Box::new(qpp_nn::Adam::new(1e-3))),
            ("sgd", || Box::new(qpp_nn::Sgd::new(1e-3, 0.9))),
        ];
        for (name, make) in optimizers {
            for threads in [1usize, 2] {
                let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
                let (mut fused, mut serial) = (units.clone(), units.clone());
                let (mut fused_opt, mut serial_opt) = (make(), make());
                let (mut fused_state, mut serial_state) = (OptState::new(), OptState::new());
                for step in 0..3 {
                    let what = format!("{name}, {threads} threads, step {step}");
                    let update = Some((&*fused_opt, &mut fused_state));
                    let a = tape.train_step(&mut fused, threads, decay, update);
                    fused_opt.end_step();
                    let b = tape.train_step(&mut serial, threads, decay, None);
                    serial.apply_grads(serial_opt.as_mut(), &mut serial_state);
                    assert_eq!((a.0.to_bits(), a.1), (b.0.to_bits(), b.1), "{what}: loss");
                    let grads = grads_snapshot(&fused);
                    assert_grads_bitwise(&grads, &grads_snapshot(&serial), &what);
                    assert!(param_bits(&fused) == param_bits(&serial), "{what}: weights");
                }
                assert!(param_bits(&fused) != param_bits(&units), "{name}: the steps moved nothing");
            }
        }
    }

    #[test]
    fn minibatch_recompiles_recycle_buffers() {
        let (ds, fz, wh, units, codec) = setup(Workload::TpcH, 16, 21);
        let roots: Vec<&PlanNode> = ds.plans.iter().map(|p| &p.root).collect();
        let set = Arc::new(TrainSet::prepare(&fz, &wh, &codec, &roots));
        assert_eq!(set.len(), 16);
        assert_eq!(set.total_nodes(), ds.plans.iter().map(|p| p.node_count()).sum::<usize>());

        let chunk_a: Vec<usize> = (0..8).collect();
        let chunk_b: Vec<usize> = (8..16).collect();
        let mut tape = ProgramTape::compile_from(&set, &chunk_a, &units, 1, None);
        let mut scratch_units = units.clone();
        // Warm both sweeps so scratch buffers reach their high-water mark.
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut scratch_units, 1);
        // Recompile churn: after the first swap, steady-state recompiles
        // must not allocate fresh matrices (every take is served by the
        // recycled pool at or under its high-water mark).
        tape = ProgramTape::compile_from(&set, &chunk_b, &units, 1, Some(tape));
        tape.forward_threaded(&units, 1);
        tape.loss();
        tape.backward_threaded(&mut scratch_units, 1);
        let watermark = tape.pooled_buffers();
        for chunk in [&chunk_a, &chunk_b, &chunk_a] {
            tape = ProgramTape::compile_from(&set, chunk, &units, 1, Some(tape));
            tape.forward_threaded(&units, 1);
            tape.loss();
            tape.backward_threaded(&mut scratch_units, 1);
            assert!(
                tape.pooled_buffers() <= watermark + 1,
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
