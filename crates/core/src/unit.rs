//! Operator-level neural units (paper §4.1).
//!
//! One [`Mlp`] per logical operator family: the scan unit, the join unit,
//! the sort unit, … Every instance of a family — anywhere in any plan —
//! shares that family's weights (the paper's weight-sharing / recurrent
//! property, §4.3). A unit maps
//!
//! ```text
//! [ F(op) ⌢ child₁(d+1) ⌢ … ⌢ childₖ(d+1) ]  →  [ latency ⌢ data(d) ]
//! ```
//!
//! where `F(op)` is the family's Table-2 feature vector and `k` is the
//! family's arity (2 for joins, 1 for unary operators, 0 for scans).

use crate::config::QppConfig;
use qpp_nn::{Activation, Init, Mlp, OptState, Optimizer, PackedMlp};
use qpp_plansim::features::Featurizer;
use qpp_plansim::operators::OpKind;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The set of neural units, one per operator family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitSet {
    units: Vec<Mlp>,
    data_size: usize,
}

impl UnitSet {
    /// Builds units sized for `featurizer`'s feature vectors.
    pub fn new(config: &QppConfig, featurizer: &Featurizer, rng: &mut impl Rng) -> UnitSet {
        let d = config.data_size;
        let units = OpKind::ALL
            .iter()
            .map(|&kind| {
                let in_dim = featurizer.feature_size(kind) + kind.arity() * (d + 1);
                let mut dims = Vec::with_capacity(config.hidden_layers + 2);
                dims.push(in_dim);
                dims.extend(std::iter::repeat_n(config.hidden_units, config.hidden_layers));
                dims.push(d + 1);
                Mlp::new(&dims, Activation::Relu, Activation::Identity, Init::He, rng)
            })
            .collect();
        UnitSet { units, data_size: d }
    }

    /// The data-vector size `d`.
    pub fn data_size(&self) -> usize {
        self.data_size
    }

    /// Output width of every unit (`d + 1`).
    pub fn out_size(&self) -> usize {
        self.data_size + 1
    }

    /// Borrows the unit for an operator family.
    pub fn unit(&self, kind: OpKind) -> &Mlp {
        &self.units[kind.index()]
    }

    /// Mutably borrows the unit for an operator family.
    pub fn unit_mut(&mut self, kind: OpKind) -> &mut Mlp {
        &mut self.units[kind.index()]
    }

    /// Mutably borrows every unit with its family, in [`OpKind::ALL`]
    /// order (disjoint borrows, so each can go to a different worker).
    pub(crate) fn units_mut(&mut self) -> impl Iterator<Item = (OpKind, &mut Mlp)> {
        OpKind::ALL.into_iter().zip(self.units.iter_mut())
    }

    /// Total trainable parameters across all units.
    pub fn num_params(&self) -> usize {
        self.units.iter().map(Mlp::num_params).sum()
    }

    /// Clears accumulated gradients in every unit.
    pub fn zero_grad(&mut self) {
        for u in &mut self.units {
            u.zero_grad();
        }
    }

    /// Scales accumulated gradients in every unit.
    pub fn scale_grad(&mut self, s: f32) {
        for u in &mut self.units {
            u.scale_grad(s);
        }
    }

    /// Adds L2 weight decay (`grad += decay · w`) to every unit's weight
    /// gradients (biases are not decayed).
    pub fn add_weight_decay(&mut self, decay: f32) {
        if decay == 0.0 {
            return;
        }
        for u in &mut self.units {
            for layer in u.layers_mut() {
                let (gw, w) = (&mut layer.gw, &layer.w);
                gw.add_scaled(w, decay);
            }
        }
    }

    /// Number of dense layers across all units: the size of the
    /// optimizer state table ([`UnitSet::apply_grads`]).
    pub fn num_layers(&self) -> usize {
        self.units.iter().map(Mlp::num_layers).sum()
    }

    /// Applies accumulated gradients via `opt`, then ends the optimizer
    /// step. Every dense layer has its own slot in `state`, indexed by
    /// its dense layer id: the units' layers in [`OpKind::ALL`] order —
    /// the ids the wavefront trainer's fused update uses, so the serial
    /// and the fused update keep the same state.
    pub fn apply_grads(&mut self, opt: &mut dyn Optimizer, state: &mut OptState) {
        let mut slots = state.layers_mut(self.num_layers());
        for u in &mut self.units {
            let (mine, rest) = std::mem::take(&mut slots).split_at_mut(u.num_layers());
            u.apply_grads(opt, mine);
            slots = rest;
        }
        opt.end_step();
    }

    /// Zeroes the first-layer weight rows of input positions marked
    /// inactive, so features never seen during training contribute exactly
    /// nothing (instead of random-initialization noise) when they appear
    /// in unseen-template plans. Gradients can still revive the rows if
    /// the features activate during later fine-tuning.
    ///
    /// `active` covers only the *feature* prefix of the unit's input; the
    /// child-output suffix is always live.
    pub fn mask_unused_inputs(&mut self, kind: OpKind, active: &[bool]) {
        let unit = self.unit_mut(kind);
        let layer0 = &mut unit.layers_mut()[0];
        assert!(active.len() <= layer0.w.rows(), "mask longer than input");
        for (row, &is_active) in active.iter().enumerate() {
            if !is_active {
                for col in 0..layer0.w.cols() {
                    layer0.w.set(row, col, 0.0);
                }
            }
        }
    }

    /// Adds another unit set's accumulated gradients into this one's
    /// (the reduction step of data-parallel training).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_grads_from(&mut self, other: &UnitSet) {
        assert_eq!(self.units.len(), other.units.len());
        for (dst, src) in self.units.iter_mut().zip(&other.units) {
            dst.add_grads_from(src);
        }
    }

    /// Copies parameters from another unit set of identical shape
    /// (transfer-learning warm start, paper §8).
    pub fn copy_params_from(&mut self, other: &UnitSet) {
        assert_eq!(self.units.len(), other.units.len());
        for (dst, src) in self.units.iter_mut().zip(&other.units) {
            dst.copy_params_from(src);
        }
    }
}

/// Packed-panel acceleration state for a [`UnitSet`]: one
/// [`PackedMlp`] per operator family, in [`OpKind::ALL`] order. The
/// serving program and the streaming builder run every wavefront gemm
/// against these forward panels (the training tape keeps its own,
/// backward panels included); the `UnitSet` stays the single
/// authoritative (and serialized) parameter store, and packed state is
/// rebuilt from it at compile / weight-update time (see
/// `qpp_nn::packed`).
#[derive(Debug, Clone)]
pub(crate) struct PackedUnits {
    units: Vec<PackedMlp>,
}

impl PackedUnits {
    /// Packs every unit's forward panels.
    pub(crate) fn pack(src: &UnitSet) -> PackedUnits {
        PackedUnits { units: src.units.iter().map(|u| PackedMlp::pack(u, false)).collect() }
    }

    /// Refreshes every packed unit from `src` without reallocating
    /// (called by a serving program whose unit set's weights moved).
    ///
    /// # Panics
    /// Panics if `src`'s shapes differ from the packed shapes.
    pub(crate) fn repack_from(&mut self, src: &UnitSet) {
        assert_eq!(self.units.len(), src.units.len(), "unit count mismatch");
        for (dst, u) in self.units.iter_mut().zip(&src.units) {
            dst.repack_from(u);
        }
    }

    /// Borrows the packed unit for an operator family.
    pub(crate) fn unit(&self, kind: OpKind) -> &PackedMlp {
        &self.units[kind.index()]
    }

    /// Cheap weight-sample digest of a unit set — shapes plus a few
    /// deterministic weight/bias samples per layer, the same sampling
    /// argument as `QppNet::fitted_fingerprint`: any gradient step
    /// perturbs essentially every parameter, so a small sample tells
    /// weight states apart. O(layers), not O(params) — cheap enough to
    /// compute per run, which is what lets a serving program skip the
    /// O(params) repack on every steady-state run while still refreshing
    /// when the weights actually moved.
    pub(crate) fn weights_digest(src: &UnitSet) -> u64 {
        let mut h = qpp_plansim::util::Fnv1a::new();
        for u in &src.units {
            for layer in u.layers() {
                let (r, c) = (layer.w.rows(), layer.w.cols());
                h.mix(r as u64);
                h.mix(c as u64);
                h.mix(layer.w.get(0, 0).to_bits() as u64);
                h.mix(layer.w.get(r / 2, c / 2).to_bits() as u64);
                h.mix(layer.w.get(r - 1, c - 1).to_bits() as u64);
                h.mix(layer.b[layer.b.len() / 2].to_bits() as u64);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_plansim::catalog::Catalog;
    use rand::SeedableRng;

    fn units() -> (UnitSet, Featurizer) {
        let cat = Catalog::tpch(1.0);
        let fz = Featurizer::new(&cat);
        let cfg = QppConfig::tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        (UnitSet::new(&cfg, &fz, &mut rng), fz)
    }

    #[test]
    fn one_unit_per_family_with_correct_dims() {
        let (us, fz) = units();
        let d = us.data_size();
        for kind in OpKind::ALL {
            let u = us.unit(kind);
            assert_eq!(u.in_dim(), fz.feature_size(kind) + kind.arity() * (d + 1), "{kind:?}");
            assert_eq!(u.out_dim(), d + 1);
        }
    }

    #[test]
    fn join_unit_takes_two_children() {
        let (us, fz) = units();
        let d = us.data_size();
        assert_eq!(
            us.unit(OpKind::Join).in_dim(),
            fz.feature_size(OpKind::Join) + 2 * (d + 1)
        );
        assert_eq!(us.unit(OpKind::Scan).in_dim(), fz.feature_size(OpKind::Scan));
    }

    #[test]
    fn param_count_is_substantial() {
        let (us, _) = units();
        assert!(us.num_params() > 10_000);
    }

    #[test]
    fn serde_round_trip() {
        let (us, _) = units();
        let json = serde_json::to_string(&us).unwrap();
        let back: UnitSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_params(), us.num_params());
        assert_eq!(back.data_size(), us.data_size());
    }
}
