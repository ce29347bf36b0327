//! Runtime SIMD kernel-tier detection and forced-dispatch override.
//!
//! The packed-panel kernels ([`crate::packed`]) — the only SIMD code in
//! the crate — pick their bodies per process from a three-level
//! [`KernelTier`] ladder:
//!
//! * [`KernelTier::Scalar`] — portable Rust, no intrinsics;
//! * [`KernelTier::Avx2Fma`] — two 8-lane AVX2 + FMA halves per panel
//!   group;
//! * [`KernelTier::Avx512f`] — one 16-lane AVX-512F register per panel
//!   group (one cache line).
//!
//! The unpacked [`crate::Matrix`] kernels are scalar at every tier: they
//! serve the per-class reference path, the Tree-LSTM and the ablations,
//! none of which sits on a hot path. Every packed body is tested
//! bit-for-bit against a scalar `f32::mul_add` reference (the SIMD
//! tiers) or a multiply-then-add reference (the scalar tier).
//!
//! Detection runs once per process ([`KernelTier::current`], a
//! `OnceLock`) and can be *lowered* — never raised past what the
//! hardware supports — through the `QPP_NN_FORCE_TIER` environment
//! variable (`scalar` | `avx2` | `avx512`). CI runs the kernel and
//! differential suites once with `QPP_NN_FORCE_TIER=scalar` so the
//! portable fallbacks cannot rot on SIMD hosts. The variable is read at
//! first use and cached for the process lifetime; setting it mid-process
//! has no effect.

use std::sync::OnceLock;

/// Environment variable that clamps the detected tier (for testing the
/// portable fallbacks on SIMD hardware). Values: `scalar`, `avx2`,
/// `avx512`; forcing a tier the hardware lacks clamps down to the
/// detected one.
pub const FORCE_TIER_ENV: &str = "QPP_NN_FORCE_TIER";

/// The SIMD dispatch tier every kernel family selects its body from,
/// detected once per process. Ordered: a greater tier strictly extends
/// the capabilities of a lesser one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable scalar kernels only.
    Scalar,
    /// AVX2 + FMA kernels (8-lane).
    Avx2Fma,
    /// AVX-512F packed-panel kernels (16-lane).
    Avx512f,
}

impl KernelTier {
    /// The process-wide tier: hardware detection clamped by
    /// [`FORCE_TIER_ENV`], computed once and cached.
    pub fn current() -> KernelTier {
        static TIER: OnceLock<KernelTier> = OnceLock::new();
        *TIER.get_or_init(|| {
            let hw = hardware_tier();
            match std::env::var(FORCE_TIER_ENV) {
                Ok(v) => parse_force(&v)
                    .unwrap_or_else(|| {
                        panic!("{FORCE_TIER_ENV}={v:?}: expected scalar | avx2 | avx512")
                    })
                    .min(hw),
                Err(_) => hw,
            }
        })
    }

    /// True when any SIMD body (AVX2 or wider) may be dispatched.
    #[inline]
    pub fn simd(self) -> bool {
        self >= KernelTier::Avx2Fma
    }

    /// True when the 16-lane AVX-512F packed kernels may be dispatched.
    #[inline]
    pub fn wide(self) -> bool {
        self >= KernelTier::Avx512f
    }

    /// Stable lowercase name (the `QPP_NN_FORCE_TIER` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2Fma => "avx2+fma",
            KernelTier::Avx512f => "avx512f",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a [`FORCE_TIER_ENV`] value; `None` for unknown vocabulary.
fn parse_force(value: &str) -> Option<KernelTier> {
    match value.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(KernelTier::Scalar),
        "avx2" | "avx2+fma" | "avx2fma" => Some(KernelTier::Avx2Fma),
        "avx512" | "avx512f" => Some(KernelTier::Avx512f),
        _ => None,
    }
}

/// What the hardware supports, ignoring the override. The AVX-512 tier
/// additionally requires AVX2+FMA (true on every known avx512f part, but
/// checked anyway) so the ladder stays ordered: a greater tier can run
/// every lesser tier's bodies.
pub(crate) fn hardware_tier() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        if avx2 && is_x86_feature_detected!("avx512f") {
            return KernelTier::Avx512f;
        }
        if avx2 {
            return KernelTier::Avx2Fma;
        }
    }
    KernelTier::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_vocabulary_parses_and_rejects() {
        assert_eq!(parse_force("scalar"), Some(KernelTier::Scalar));
        assert_eq!(parse_force("AVX2"), Some(KernelTier::Avx2Fma));
        assert_eq!(parse_force(" avx512 \n"), Some(KernelTier::Avx512f));
        assert_eq!(parse_force("avx512f"), Some(KernelTier::Avx512f));
        assert_eq!(parse_force("neon"), None);
        assert_eq!(parse_force(""), None);
    }

    #[test]
    fn tiers_order_by_capability() {
        assert!(KernelTier::Scalar < KernelTier::Avx2Fma);
        assert!(KernelTier::Avx2Fma < KernelTier::Avx512f);
        // Clamping a forced tier by hardware is a plain `min`.
        assert_eq!(KernelTier::Avx512f.min(KernelTier::Avx2Fma), KernelTier::Avx2Fma);
        assert!(!KernelTier::Scalar.simd());
        assert!(KernelTier::Avx2Fma.simd() && !KernelTier::Avx2Fma.wide());
        assert!(KernelTier::Avx512f.simd() && KernelTier::Avx512f.wide());
    }

    #[test]
    fn current_is_at_most_the_hardware_tier_and_stable() {
        let t = KernelTier::current();
        assert!(t <= hardware_tier());
        // Cached: repeated calls agree (the OnceLock contract).
        assert_eq!(t, KernelTier::current());
    }

    #[test]
    fn names_round_trip_through_the_force_vocabulary() {
        for t in [KernelTier::Scalar, KernelTier::Avx2Fma, KernelTier::Avx512f] {
            assert_eq!(parse_force(t.name()), Some(t), "{t}");
            assert_eq!(t.to_string(), t.name());
        }
    }
}
