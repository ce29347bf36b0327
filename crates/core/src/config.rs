//! QPPNet hyper-parameters.
//!
//! Defaults follow the paper's §6 ("Neural networks"): 5 hidden layers of
//! 128 neurons per neural unit, data-vector size `d = 32`, ReLU activations,
//! SGD with learning rate 0.001 and momentum 0.9, trained for 1000 epochs.
//! Epoch counts are the one default we scale down (see EXPERIMENTS.md): the
//! paper's 1000 epochs took ~28 hours on its testbed.

use serde::{Deserialize, Serialize};

/// Which gradient-descent rule to use.
///
/// The paper uses SGD and names Adam \[16\] as future work (§8); both are
/// implemented, and the optimizer ablation bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// SGD with momentum (the paper's choice).
    Sgd,
    /// Adam (paper §8 future work).
    Adam,
}

/// Transform applied to latency targets before regression.
///
/// Latencies span ~5 orders of magnitude across templates; `Log1p` trains
/// in log-space (and decodes at prediction time), which keeps `f32`
/// gradients well-conditioned. `Raw` reproduces the paper's formulation
/// literally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetTransform {
    /// Regress raw milliseconds.
    Raw,
    /// Regress `ln(1 + ms)` (default).
    Log1p,
}

impl TargetTransform {
    /// Encodes a latency in milliseconds into model space.
    #[inline]
    pub fn encode(self, latency_ms: f64) -> f32 {
        match self {
            TargetTransform::Raw => latency_ms as f32,
            TargetTransform::Log1p => (latency_ms.max(0.0)).ln_1p() as f32,
        }
    }

    /// Decodes a model-space prediction back to milliseconds (clamped
    /// non-negative).
    #[inline]
    pub fn decode(self, value: f32) -> f64 {
        match self {
            TargetTransform::Raw => (value as f64).max(0.0),
            TargetTransform::Log1p => (value as f64).exp_m1().max(0.0),
        }
    }
}

/// A fitted target codec: transform + standardization statistics.
///
/// Latency targets are whitened in encoded space exactly like the input
/// features are (paper §6, "Numeric… scaled so that the mean… is zero and
/// the variance is one"); predictions are de-standardized and decoded.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TargetCodec {
    /// The underlying transform.
    pub transform: TargetTransform,
    /// Mean of encoded training targets.
    pub mean: f32,
    /// Standard deviation of encoded training targets.
    pub std: f32,
}

impl TargetCodec {
    /// An identity codec (no standardization) for the given transform.
    pub fn identity(transform: TargetTransform) -> TargetCodec {
        TargetCodec { transform, mean: 0.0, std: 1.0 }
    }

    /// Fits standardization statistics over encoded latencies.
    pub fn fit(transform: TargetTransform, latencies_ms: impl IntoIterator<Item = f64>) -> TargetCodec {
        let encoded: Vec<f32> = latencies_ms.into_iter().map(|l| transform.encode(l)).collect();
        if encoded.is_empty() {
            return TargetCodec::identity(transform);
        }
        let n = encoded.len() as f64;
        let mean = encoded.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = encoded.iter().map(|&v| (v as f64 - mean) * (v as f64 - mean)).sum::<f64>() / n;
        TargetCodec { transform, mean: mean as f32, std: (var.sqrt().max(1e-6)) as f32 }
    }

    /// Encodes a latency (ms) into standardized model space.
    #[inline]
    pub fn encode(&self, latency_ms: f64) -> f32 {
        (self.transform.encode(latency_ms) - self.mean) / self.std
    }

    /// Decodes a standardized model output back to milliseconds.
    #[inline]
    pub fn decode(&self, value: f32) -> f64 {
        self.transform.decode(value * self.std + self.mean)
    }
}

/// The two training optimizations of §5.1, independently toggleable —
/// exactly the four configurations of the paper's Figure 9a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptMode {
    /// Neither optimization: every operator's output is recomputed from its
    /// subtree, one plan at a time.
    None,
    /// Plan-based batch training only (§5.1.1): structurally-identical
    /// plans are vectorized, but subtree outputs are still recomputed per
    /// operator.
    Batching,
    /// Information sharing only (§5.1.2): one bottom-up pass per plan
    /// caches child outputs, but plans are processed one at a time.
    InfoSharing,
    /// Both optimizations (the default).
    Both,
}

impl OptMode {
    /// All four modes in the order Figure 9a reports them.
    pub const ALL: [OptMode; 4] = [OptMode::None, OptMode::Batching, OptMode::InfoSharing, OptMode::Both];

    /// Whether structurally-identical plans are processed as one batch.
    pub fn vectorized(self) -> bool {
        matches!(self, OptMode::Batching | OptMode::Both)
    }

    /// Whether subtree outputs are computed once and shared.
    pub fn shares_info(self) -> bool {
        matches!(self, OptMode::InfoSharing | OptMode::Both)
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OptMode::None => "None",
            OptMode::Batching => "Batching",
            OptMode::InfoSharing => "Shared info",
            OptMode::Both => "Both",
        }
    }
}

/// Which engine computes training gradients.
///
/// Both engines implement the same mathematics — Equation 7's
/// all-operator supervision with §5.1.1's unbiased recombination — and
/// are held to agreement by `tests/train_differential.rs`; they differ
/// only in how operator rows are grouped into gemm calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainEngine {
    /// Per-equivalence-class [`crate::tree::TreeBatch`] evaluation: one
    /// forward/backward per structural class per position. The §5.1
    /// ablation layout (and the differential oracle for the wavefront
    /// engine); also forced automatically whenever
    /// [`QppConfig::opt_mode`] is not [`OptMode::Both`], since the
    /// ablation modes are *defined* by the per-class arrangement.
    Classes,
    /// The differentiable wavefront program
    /// ([`crate::train_program::ProgramTape`], default): the whole
    /// heterogeneous batch compiled onto the serving engine's
    /// `(height, OpKind)` wavefront layout, one gemm per operator family
    /// per wavefront in each direction.
    Program,
}

impl TrainEngine {
    /// Parses the CLI spelling (`classes` | `program`).
    pub fn parse(s: &str) -> Option<TrainEngine> {
        match s {
            "classes" => Some(TrainEngine::Classes),
            "program" => Some(TrainEngine::Program),
            _ => None,
        }
    }

    /// Display name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            TrainEngine::Classes => "classes",
            TrainEngine::Program => "program",
        }
    }
}

/// Learning-rate schedule applied across epochs.
///
/// The paper trains with a constant learning rate; decay schedules are a
/// production convenience (and pair well with the early-stopping
/// extension).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's setting).
    Constant,
    /// Multiply the learning rate by `gamma` every `every` epochs.
    StepDecay {
        /// Epochs between decays.
        every: usize,
        /// Multiplicative decay factor in `(0, 1]`.
        gamma: f32,
    },
    /// Cosine annealing from the base rate down to `min_frac ×` base.
    Cosine {
        /// Final learning rate as a fraction of the base rate.
        min_frac: f32,
    },
}

impl LrSchedule {
    /// Learning rate for `epoch` (0-based) out of `total` epochs, given the
    /// base rate.
    pub fn lr_at(self, base: f32, epoch: usize, total: usize) -> f32 {
        match self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, gamma } => {
                base * gamma.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::Cosine { min_frac } => {
                let t = epoch as f32 / (total.saturating_sub(1).max(1)) as f32;
                let floor = base * min_frac;
                floor + 0.5 * (base - floor) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Full hyper-parameter set for a QPPNet model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QppConfig {
    /// Hidden layers per neural unit (paper: 5).
    pub hidden_layers: usize,
    /// Neurons per hidden layer (paper: 128).
    pub hidden_units: usize,
    /// Data-vector size `d` (paper: 32); units output `d + 1` values.
    pub data_size: usize,
    /// Learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Training epochs (paper: 1000; scaled down by default).
    pub epochs: usize,
    /// Large-batch size for plan-based batch training (§5.1.1).
    pub batch_size: usize,
    /// Gradient rule.
    pub optimizer: OptimizerKind,
    /// Latency-target transform.
    pub target_transform: TargetTransform,
    /// Training-optimization mode (Figure 9a ablation).
    pub opt_mode: OptMode,
    /// Project decoded predictions onto the structural envelope of
    /// inclusive latencies at inference time (monotone along the tree,
    /// per-family amplification caps observed in training). Clips
    /// log-space extrapolation blow-ups on unseen templates.
    pub monotone_clamp: bool,
    /// L2 weight decay applied to all unit weights each step.
    ///
    /// Crucial for generalization to *unseen templates* (the TPC-DS
    /// protocol): one-hot feature columns that never activate during
    /// training keep their random initialization unless decayed toward
    /// zero, and would otherwise inject noise on held-out templates.
    pub weight_decay: f32,
    /// Seed for weight initialization and batch shuffling.
    pub seed: u64,
    /// Worker threads for gradient computation (1 = serial). The
    /// wavefront engine cuts each batch into this many plan lanes
    /// (contiguous, node-balanced ranges of its plans) and each worker
    /// sweeps its own lanes: the forward is bit-identical at any thread
    /// count, and a fit is reproducible at a fixed thread count, while
    /// gradients at different thread counts differ only by f32 summation
    /// order. The per-class engine distributes equivalence classes across
    /// threads and sums their gradients, with the same
    /// up-to-summation-order contract.
    #[serde(default = "default_threads")]
    pub threads: usize,
    /// Gradient engine (see [`TrainEngine`]; default: the wavefront
    /// program).
    #[serde(default = "default_train_engine")]
    pub train_engine: TrainEngine,
    /// Learning-rate schedule (paper: constant).
    #[serde(default = "default_schedule")]
    pub lr_schedule: LrSchedule,
    /// Stop training if the evaluation MAE has not improved for this many
    /// consecutive evaluations (requires an eval set via
    /// [`crate::model::QppNet::fit_tracked`]). `None` = train all epochs,
    /// as the paper does.
    #[serde(default)]
    pub early_stop_patience: Option<usize>,
}

fn default_threads() -> usize {
    1
}

fn default_train_engine() -> TrainEngine {
    TrainEngine::Program
}

fn default_schedule() -> LrSchedule {
    LrSchedule::Constant
}

impl Default for QppConfig {
    fn default() -> Self {
        QppConfig {
            hidden_layers: 5,
            hidden_units: 128,
            data_size: 32,
            learning_rate: 1e-3,
            momentum: 0.9,
            epochs: 100,
            batch_size: 512,
            optimizer: OptimizerKind::Sgd,
            target_transform: TargetTransform::Log1p,
            opt_mode: OptMode::Both,
            monotone_clamp: true,
            weight_decay: 1e-4,
            seed: 0xC0FFEE,
            threads: 1,
            train_engine: TrainEngine::Program,
            lr_schedule: LrSchedule::Constant,
            early_stop_patience: None,
        }
    }
}

impl QppConfig {
    /// The paper's exact configuration (including 1000 epochs).
    pub fn paper() -> Self {
        QppConfig { epochs: 1000, ..Default::default() }
    }

    /// A small, fast configuration for tests and examples.
    pub fn tiny() -> Self {
        QppConfig {
            hidden_layers: 2,
            hidden_units: 32,
            data_size: 8,
            epochs: 30,
            batch_size: 64,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_architecture() {
        let c = QppConfig::default();
        assert_eq!(c.hidden_layers, 5);
        assert_eq!(c.hidden_units, 128);
        assert_eq!(c.data_size, 32);
        assert_eq!(c.learning_rate, 1e-3);
        assert_eq!(c.momentum, 0.9);
        assert_eq!(c.optimizer, OptimizerKind::Sgd);
    }

    #[test]
    fn log1p_transform_round_trips() {
        let t = TargetTransform::Log1p;
        for ms in [0.0, 1.0, 123.456, 1e6] {
            let back = t.decode(t.encode(ms));
            assert!((back - ms).abs() < 1e-2 * (1.0 + ms), "{ms} -> {back}");
        }
    }

    #[test]
    fn raw_transform_clamps_negative_predictions() {
        assert_eq!(TargetTransform::Raw.decode(-5.0), 0.0);
    }

    #[test]
    fn constant_schedule_never_changes() {
        let s = LrSchedule::Constant;
        for e in [0, 10, 999] {
            assert_eq!(s.lr_at(1e-3, e, 1000), 1e-3);
        }
    }

    #[test]
    fn step_decay_halves_at_boundaries() {
        let s = LrSchedule::StepDecay { every: 10, gamma: 0.5 };
        assert_eq!(s.lr_at(1.0, 0, 100), 1.0);
        assert_eq!(s.lr_at(1.0, 9, 100), 1.0);
        assert_eq!(s.lr_at(1.0, 10, 100), 0.5);
        assert_eq!(s.lr_at(1.0, 25, 100), 0.25);
    }

    #[test]
    fn cosine_schedule_anneals_to_floor() {
        let s = LrSchedule::Cosine { min_frac: 0.1 };
        let start = s.lr_at(1.0, 0, 100);
        let mid = s.lr_at(1.0, 50, 100);
        let end = s.lr_at(1.0, 99, 100);
        assert!((start - 1.0).abs() < 1e-6);
        assert!(mid < start && mid > end);
        assert!((end - 0.1).abs() < 1e-3);
    }

    #[test]
    fn config_json_without_new_fields_still_loads() {
        // Backwards compatibility: snapshots serialized before the
        // threads / schedule / early-stop extensions must deserialize.
        let mut v = serde_json::to_value(QppConfig::default()).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("threads");
        obj.remove("lr_schedule");
        obj.remove("early_stop_patience");
        obj.remove("train_engine");
        let cfg: QppConfig = serde_json::from_value(v).unwrap();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.lr_schedule, LrSchedule::Constant);
        assert_eq!(cfg.early_stop_patience, None);
        assert_eq!(cfg.train_engine, TrainEngine::Program);
    }

    #[test]
    fn train_engine_parses_cli_spellings() {
        assert_eq!(TrainEngine::parse("classes"), Some(TrainEngine::Classes));
        assert_eq!(TrainEngine::parse("program"), Some(TrainEngine::Program));
        assert_eq!(TrainEngine::parse("wavefront"), None);
        assert_eq!(TrainEngine::Program.name(), "program");
        assert_eq!(TrainEngine::Classes.name(), "classes");
    }

    #[test]
    fn opt_mode_flags() {
        assert!(!OptMode::None.vectorized() && !OptMode::None.shares_info());
        assert!(OptMode::Batching.vectorized() && !OptMode::Batching.shares_info());
        assert!(!OptMode::InfoSharing.vectorized() && OptMode::InfoSharing.shares_info());
        assert!(OptMode::Both.vectorized() && OptMode::Both.shares_info());
    }
}
