//! # qppnet — plan-structured deep neural networks for query performance prediction
//!
//! A faithful Rust implementation of *Plan-Structured Deep Neural Network
//! Models for Query Performance Prediction* (Marcus & Papaemmanouil,
//! VLDB 2019, arXiv:1902.00132).
//!
//! The model assigns each logical operator family (scan, join, sort, …) its
//! own small MLP — a **neural unit** ([`unit::UnitSet`]) — which maps the
//! operator's `EXPLAIN` features plus its children's outputs to a
//! `(latency, data-vector)` pair. Units are assembled into a network
//! **isomorphic to the query plan**; the root's latency output is the
//! query's predicted latency. Training (§5, [`train::Trainer`])
//! supervises the latency output of *every* operator while leaving the
//! `d`-dimensional data vectors free ("opaque" learned features), and
//! implements both §5.1 optimizations — by default *generalized onto the
//! serving engine's wavefront layout*
//! ([`train_program::ProgramTape`], DESIGN.md §9): the whole shuffled
//! batch, mixed shapes and all, runs as one gemm per operator family per
//! wavefront in each direction, with per-class
//! [`tree::TreeBatch`] evaluation kept as the differential oracle and the
//! §5.1 ablation layout:
//!
//! * **plan-based batch training** — vectorization across plans;
//!   per-batch gradients are normalized by total operator count so the
//!   estimate stays unbiased (the tape batches across *all* shapes at
//!   once, subsuming the per-class grouping);
//! * **information sharing in subtrees** — bottom-up evaluation computes
//!   each operator's output exactly once.
//!
//! Serving goes through a separate engine: [`infer::PlanProgram`] compiles
//! an arbitrary *heterogeneous* batch of plans into wavefronts keyed by
//! `(height-from-leaf, operator family)` — one gemm per family per
//! wavefront across every plan, with child outputs routed by row
//! gather/scatter through preallocated buffers. On multicore hosts the
//! compiled program is cut into one plan lane per thread and the lanes
//! run on a resident worker pool ([`infer::PlanProgram::run_parallel`],
//! [`QppNet::predict_compiled_with`]) with bit-identical results at any
//! thread count. [`QppNet::predict_batch`] uses the wavefront engine by
//! default; the per-class path remains available as
//! [`infer::InferEngine::Classes`] for differential testing and
//! benchmarking. For live query streams, [`QppNet::serve_stream`] opens
//! an *incremental* session ([`stream::ProgramBuilder`]): plans are
//! admitted and retired one at a time against the resident wavefront
//! program — feature rows cached, identical subtrees shared — with
//! predictions bit-identical to recompiling the batch from scratch.
//! [`QppNet::serve_sharded`] scales that to shard-per-core serving
//! ([`stream::ShardedStream`]): admissions route by content hash to
//! per-shard builders, a whole-set predict runs the shards concurrently
//! on the process-wide resident executor ([`qpp_nn::Executor`]), and
//! multiple fitted models co-host on the same pool via [`Tenants`], keyed
//! by [`QppNet::fingerprint`].
//!
//! Quick start (see `examples/quickstart.rs` for a narrated version):
//!
//! ```
//! use qppnet::{QppConfig, QppNet};
//! use qpp_plansim::prelude::*;
//!
//! let ds = Dataset::generate(Workload::TpcH, 1.0, 60, 7);
//! let split = ds.paper_split(0);
//! let mut model = QppNet::new(QppConfig::tiny(), &ds.catalog);
//! model.fit(&ds.select(&split.train));
//! println!("relative error: {:.1}%",
//!          model.evaluate(&ds.select(&split.test)).relative_error_pct());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod analysis;
pub mod config;
pub mod importance;
pub mod infer;
pub mod lower;
pub mod metrics;
pub mod model;
pub mod serve;
pub mod stream;
pub mod train;
pub mod train_program;
pub mod tree;
pub mod unit;

pub use analysis::{
    calibration, error_by_family, error_by_height, error_by_latency_decile, CalibrationBucket,
    DecileErrors, FamilyErrors, HeightErrors, StratifiedReport,
};
pub use config::{LrSchedule, OptMode, OptimizerKind, QppConfig, TargetTransform};
pub use importance::{permutation_importance, FeatureImportance};
pub use infer::{predict_plans_with, InferEngine, PlanProgram};
pub use metrics::{evaluate, r_cdf, r_factor, Metrics};
pub use model::{QppNet, Tenants};
pub use serve::{Client, ServeAddr, ServeConfig, Server};
pub use stream::{OneshotRun, PlanId, ProgramBuilder, ProgramStats, ScratchPlan, ShardedStream};
pub use train::{predict_plans, TrainHistory, TrainStats, Trainer};
pub use train_program::ProgramTape;
pub use tree::{equivalence_classes, Supervision, TreeBatch};
pub use unit::UnitSet;
