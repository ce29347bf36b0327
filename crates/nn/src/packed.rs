//! Packed-panel weight layout: cache-line-aligned, kernel-order column
//! panels for the wavefront gemm families.
//!
//! A gemm over a row-major weight matrix streams it with a
//! `cols × 4`-byte stride per contraction step — 512 B jumps for the
//! paper tier's 128-wide layers, so a 64 KB weight matrix is walked in a
//! pattern the L1 can't hold, and output widths that aren't a multiple
//! of the register tile (the paper tier's 33-wide output layer) fall
//! into a scalar remainder loop per row. A [`PackedWeights`] fixes both
//! at data-layout time: the matrix is repacked **once per weight
//! update** into column panels of [`LANES`] = 16 floats — one 64-byte
//! cache line, one AVX-512 register, two AVX2 registers — stored
//! contraction-major inside each panel group, so the kernel's inner loop
//! reads the panel strictly forward, 64-aligned, and the ragged last
//! group is zero-padded once instead of masked per iteration.
//!
//! Three kernel families consume the layout behind the process-wide
//! [`KernelTier`] dispatch (`Scalar | Avx2Fma | Avx512f`):
//!
//! * **forward** — `out = act(x · W + b)` via [`PackedDense::forward_into`];
//! * **input gradient** — `dX = dZ · Wᵀ` via
//!   [`PackedDense::backward_input_into`], using a second, transposed
//!   panel set packed per weight update (cheap at update granularity —
//!   the per-*sweep* `Wᵀ` materialization the ROADMAP measured as a loss
//!   paid this cost per gemm call instead) and reusing the forward
//!   kernel with a zero initializer, which also inherits its
//!   `dZ == 0` skip — ReLU backward zeros are common;
//! * **weight gradient** — `dW += Xᵀ · dZ` via
//!   [`PackedWeights::accumulate_at_b`], accumulating into a packed
//!   gradient buffer of the same panel shape as the weights it will be
//!   folded into ([`PackedWeights::add_unpacked_into`]).
//!
//! # Bitwise determinism
//!
//! Every kernel body is **bit-identical** to one scalar reference chain
//! per output element, written over logical (unpacked) indices and so
//! independent of the panel layout:
//!
//! * start the accumulator from the bias lane (`+0.0` for `bias: None`);
//!   the weight-gradient family continues from the accumulator's
//!   current value;
//! * walk the contraction index (`k` for `x · W`, the row `r` for
//!   `Xᵀ · dZ`) strictly ascending, skipping zero inputs;
//! * apply one `f32::mul_add` per term on the SIMD tiers — it rounds
//!   once, exactly like a hardware FMA — or `acc + x * w` on the scalar
//!   tier.
//!
//! Lanes never interact (there is no horizontal reduction), so panel
//! grouping, 4-row register blocking, pairing groups, multi-group
//! single-row passes and store masking change which elements a register
//! holds, never a lane's chain. Both SIMD tiers share one reference and
//! are therefore bit-identical to each other. Zero-skip decisions are
//! free: under the crate-wide kernel caveats (biases are never `-0.0`,
//! weights are finite) `fma(0, w, acc)` is exactly `acc`, so the skip
//! granularity cannot change results. The SIMD tiers skip at three
//! granularities: a `k` where all 4 rows of a block are zero (the AVX2
//! blocks and the AVX-512 single-group blocks), none (the saturated
//! AVX-512 paired blocks), and per row in the **single-row pass** that
//! rows outside a 4-row block take — a one-shot prediction's wavefront
//! chunks are mostly 1–3 rows. That pass compacts the row's nonzero
//! inputs once into a fixed stack buffer of ascending indices
//! (branchless, block by block for deep rows), then walks them with up
//! to 8 independent FMA chains — one ZMM accumulator per output group
//! for up to 8 groups on AVX-512, two YMM halves for each of 4 groups on
//! AVX2 — with no per-`k` branch left in the FMA loop. The
//! scalar tier's multiply-then-add chains round differently, so tiers
//! are separately deterministic rather than cross-tier identical;
//! forced-scalar runs ([`crate::tier::FORCE_TIER_ENV`]) are
//! deterministic too.
//!
//! Row invariance (a row's bits don't depend on its neighbours) follows,
//! so the serving engine's contracts — identical results at any thread
//! count, streaming admission bitwise-equal to a fresh compile — hold;
//! the tests in this module pin every body the host supports to the
//! reference, and the differential suites check the engines built on
//! top.
//!
//! Packed structures are **ephemeral** acceleration state: they are
//! rebuilt from the authoritative [`Dense`]/[`Mlp`] weights at
//! fit/load/compile time and are never serialized.

use crate::activation::Activation;
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::pool::BufferPool;
use crate::tier::KernelTier;

/// Panel width in `f32` lanes: one 64-byte cache line, one AVX-512
/// register, two AVX2 registers.
pub const LANES: usize = 16;

/// One cache-line-sized, 64-byte-aligned lane group.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Align64([f32; LANES]);

const ZERO_GROUP: Align64 = Align64([0.0; LANES]);

/// A matrix repacked into kernel-order column panels (see the module
/// docs): logical element `(k, j)` of a `depth × width` matrix lives in
/// group `g = j / LANES` at `data[g · depth + k]`, lane `j % LANES`;
/// lanes past `width` in the last group are zero.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// Contraction length (rows of the logical matrix).
    depth: usize,
    /// Logical column count (lanes beyond it are zero padding).
    width: usize,
    /// `ceil(width / LANES)`.
    groups: usize,
    /// `groups × depth` lane groups, group-major.
    data: Vec<Align64>,
}

impl PackedWeights {
    /// Packs `src` (`depth = src.rows()`, `width = src.cols()`).
    pub fn pack(src: &Matrix) -> PackedWeights {
        let mut p = PackedWeights::zeros(src.rows(), src.cols());
        p.repack_from(src);
        p
    }

    /// Packs `srcᵀ` (`depth = src.cols()`, `width = src.rows()`) — the
    /// input-gradient panels for `dX = dZ · Wᵀ`.
    pub fn pack_transposed(src: &Matrix) -> PackedWeights {
        let mut p = PackedWeights::zeros(src.cols(), src.rows());
        p.repack_transposed_from(src);
        p
    }

    /// A zeroed panel set of the given logical shape (the weight-gradient
    /// accumulator layout).
    pub fn zeros(depth: usize, width: usize) -> PackedWeights {
        let groups = width.div_ceil(LANES);
        PackedWeights { depth, width, groups, data: vec![ZERO_GROUP; groups * depth] }
    }

    /// Contraction length (logical row count).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Logical column count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rewrites the panels from `src` without reallocating.
    ///
    /// # Panics
    /// Panics if `src`'s shape differs from the packed shape.
    pub fn repack_from(&mut self, src: &Matrix) {
        assert_eq!(
            (src.rows(), src.cols()),
            (self.depth, self.width),
            "repack shape mismatch"
        );
        self.zero_ragged_tail();
        for k in 0..self.depth {
            let row = src.row(k);
            for g in 0..self.groups {
                let lanes = (self.width - g * LANES).min(LANES);
                let dst = &mut self.data[g * self.depth + k].0;
                dst[..lanes].copy_from_slice(&row[g * LANES..g * LANES + lanes]);
            }
        }
    }

    /// Rewrites the panels from `srcᵀ` without reallocating.
    ///
    /// Walks `src` row by row: row `j` of `W` is logical column `j` of
    /// `Wᵀ`, i.e. one lane of group `j / LANES`, so each source row is
    /// read once, contiguously, into one `depth`-long panel that stays
    /// L1-resident while its 16 lanes fill.
    ///
    /// # Panics
    /// Panics if `srcᵀ`'s shape differs from the packed shape.
    pub fn repack_transposed_from(&mut self, src: &Matrix) {
        assert_eq!(
            (src.cols(), src.rows()),
            (self.depth, self.width),
            "repack shape mismatch"
        );
        self.zero_ragged_tail();
        for j in 0..self.width {
            let (g, lane) = (j / LANES, j % LANES);
            let panel = &mut self.data[g * self.depth..(g + 1) * self.depth];
            for (dst, &v) in panel.iter_mut().zip(src.row(j)) {
                dst.0[lane] = v;
            }
        }
    }

    /// Zeroes the last group when the width leaves padding lanes in it —
    /// the only lanes a repack does not overwrite. A width that is a
    /// multiple of [`LANES`] has no padding, so nothing is cleared.
    fn zero_ragged_tail(&mut self) {
        if !self.width.is_multiple_of(LANES) {
            self.data[(self.groups - 1) * self.depth..].fill(ZERO_GROUP);
        }
    }

    /// Zeroes every lane (gradient-accumulator reset, allocation kept).
    pub fn fill_zero(&mut self) {
        self.data.fill(ZERO_GROUP);
    }

    /// Logical element `(k, j)` (layout tests).
    #[cfg(test)]
    fn get(&self, k: usize, j: usize) -> f32 {
        self.data[(j / LANES) * self.depth + k].0[j % LANES]
    }

    /// Adds the logical (non-padding) contents onto `dst` — the fold of a
    /// packed gradient accumulator into a layer's unpacked `gw`.
    ///
    /// # Panics
    /// Panics if `dst`'s shape differs from the packed logical shape.
    pub fn add_unpacked_into(&self, dst: &mut Matrix) {
        assert_eq!(
            (dst.rows(), dst.cols()),
            (self.depth, self.width),
            "unpack shape mismatch"
        );
        for k in 0..self.depth {
            let drow = dst.row_mut(k);
            for g in 0..self.groups {
                let lanes = (self.width - g * LANES).min(LANES);
                let src = &self.data[g * self.depth + k].0;
                for (d, s) in drow[g * LANES..g * LANES + lanes].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }

    /// Overwrites `dst` with the logical sum of `parts`, each element
    /// summed onto `+0.0` in slice order — bitwise what zeroing `dst` and
    /// calling [`PackedWeights::add_unpacked_into`] once per part gives,
    /// in one pass over `dst`: the ordered fold of several packed
    /// gradient accumulators into one row-major `gw`.
    ///
    /// # Panics
    /// Panics if a part's or `dst`'s shape differs from the first part's.
    pub fn sum_unpacked_into(parts: &[&PackedWeights], dst: &mut Matrix) {
        let Some(first) = parts.first() else {
            dst.fill_zero();
            return;
        };
        let (depth, width, groups) = (first.depth, first.width, first.groups);
        assert_eq!((dst.rows(), dst.cols()), (depth, width), "unpack shape mismatch");
        for p in parts {
            assert_eq!((p.depth, p.width), (depth, width), "unpack shape mismatch");
        }
        for k in 0..depth {
            let drow = dst.row_mut(k);
            for g in 0..groups {
                let lanes = (width - g * LANES).min(LANES);
                let mut acc = [0.0f32; LANES];
                for p in parts {
                    for (a, &s) in acc.iter_mut().zip(&p.data[g * depth + k].0) {
                        *a += s;
                    }
                }
                drow[g * LANES..g * LANES + lanes].copy_from_slice(&acc[..lanes]);
            }
        }
    }

    /// `out = a · P (+ bias)` — the forward gemm (the caller applies the
    /// activation, as [`PackedDense::forward_into`] does). With
    /// `bias: None` accumulator chains start at `+0.0` — the
    /// input-gradient family `dX = dZ · Wᵀ` over transposed panels.
    ///
    /// Row-invariant and bit-identical to the scalar reference chain of
    /// the current [`KernelTier`] (module docs).
    ///
    /// # Panics
    /// Panics on shape mismatch (same message as [`Matrix::matmul`] —
    /// the engines' mismatched-model guards key on it).
    pub fn gemm_into(&self, a: &Matrix, bias: Option<&PackedBias>, out: &mut Matrix) {
        assert_eq!(
            a.cols(),
            self.depth,
            "matmul dimension mismatch: {}x{} · {}x{}",
            a.rows(),
            a.cols(),
            self.depth,
            self.width
        );
        assert_eq!(
            (out.rows(), out.cols()),
            (a.rows(), self.width),
            "output shape mismatch"
        );
        if let Some(b) = bias {
            assert_eq!(b.len, self.width, "bias length mismatch");
        }
        #[cfg(target_arch = "x86_64")]
        {
            let tier = KernelTier::current();
            if tier.wide() {
                // SAFETY: tier detection verified avx512f at runtime.
                unsafe { self.gemm_avx512(a, bias, out) };
                return;
            }
            if tier.simd() {
                // SAFETY: tier detection verified avx2+fma at runtime.
                unsafe { self.gemm_avx2(a, bias, out) };
                return;
            }
        }
        self.gemm_scalar(a, bias, out);
    }

    /// `self += aᵀ · b` — the packed weight-gradient family
    /// (`dW += Xᵀ · dZ`), accumulating into these panels. `a` rows are
    /// zero-skipped (ReLU activations make `X` sparse). Bit-identical to
    /// the scalar reference chain of the current [`KernelTier`] (module
    /// docs).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate_at_b(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows(), b.rows(), "matmul_at_b contraction mismatch");
        assert_eq!(
            (a.cols(), b.cols()),
            (self.depth, self.width),
            "matmul_at_b dimension mismatch: ({}x{})ᵀ · {}x{} into {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols(),
            self.depth,
            self.width
        );
        #[cfg(target_arch = "x86_64")]
        {
            let tier = KernelTier::current();
            if tier.wide() {
                // SAFETY: tier detection verified avx512f at runtime.
                unsafe { self.at_b_avx512(a, b) };
                return;
            }
            if tier.simd() {
                // SAFETY: tier detection verified avx2+fma at runtime.
                unsafe { self.at_b_avx2(a, b) };
                return;
            }
        }
        self.at_b_scalar(a, b);
    }

    /// Portable forward/input-gradient kernel: initialize from the bias,
    /// then one multiply-then-add per nonzero `x[k]`, `k` ascending.
    fn gemm_scalar(&self, a: &Matrix, bias: Option<&PackedBias>, out: &mut Matrix) {
        for i in 0..a.rows() {
            let arow = a.row(i);
            for g in 0..self.groups {
                let lanes = (self.width - g * LANES).min(LANES);
                let mut acc = match bias {
                    Some(b) => b.data[g].0,
                    None => [0.0f32; LANES],
                };
                for (k, &x) in arow.iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    let panel = &self.data[g * self.depth + k].0;
                    for (o, &w) in acc.iter_mut().zip(panel) {
                        *o += x * w;
                    }
                }
                out.row_mut(i)[g * LANES..g * LANES + lanes].copy_from_slice(&acc[..lanes]);
            }
        }
    }

    /// Portable weight-gradient kernel: multiply-then-add per nonzero
    /// `a[r, n]`, `r` ascending.
    fn at_b_scalar(&mut self, a: &Matrix, b: &Matrix) {
        for g in 0..self.groups {
            let lanes = (self.width - g * LANES).min(LANES);
            let base = g * LANES;
            for n in 0..self.depth {
                let acc = &mut self.data[g * self.depth + n].0;
                for r in 0..a.rows() {
                    let x = a.row(r)[n];
                    if x == 0.0 {
                        continue;
                    }
                    let brow = &b.row(r)[base..base + lanes];
                    for (o, &w) in acc[..lanes].iter_mut().zip(brow) {
                        *o += x * w;
                    }
                }
            }
        }
    }

    /// AVX2+FMA forward/input-gradient kernel: per group, 4-row register
    /// blocks over two aligned 8-lane panel halves. Rows past the last
    /// whole block take the single-row pass
    /// ([`PackedWeights::row_pass_avx2`]): the row's nonzero inputs are
    /// compacted once, then 4 groups at a time — 8 YMM chains — walk
    /// them. Chains are pure FMA, `k` ascending.
    ///
    /// # Safety
    /// Caller must verify avx2+fma at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_avx2(&self, a: &Matrix, bias: Option<&PackedBias>, out: &mut Matrix) {
        use std::arch::x86_64::*;
        let (n, kd, m) = (a.rows(), self.depth, self.width);
        let ad = a.as_slice().as_ptr();
        let od = out.as_mut_slice().as_mut_ptr();
        let nb = n - n % 4;
        for g in 0..self.groups {
            let lanes = (m - g * LANES).min(LANES);
            let pbase = self.data.as_ptr().add(g * kd) as *const f32;
            let (init_lo, init_hi) = match bias {
                Some(b) => {
                    let bp = b.data.as_ptr().add(g) as *const f32;
                    (_mm256_load_ps(bp), _mm256_load_ps(bp.add(8)))
                }
                None => (_mm256_setzero_ps(), _mm256_setzero_ps()),
            };
            let mut ib = 0;
            while ib < nb {
                let (a0, a1, a2, a3) =
                    (ad.add(ib * kd), ad.add((ib + 1) * kd), ad.add((ib + 2) * kd), ad.add((ib + 3) * kd));
                let (mut l0, mut h0) = (init_lo, init_hi);
                let (mut l1, mut h1) = (init_lo, init_hi);
                let (mut l2, mut h2) = (init_lo, init_hi);
                let (mut l3, mut h3) = (init_lo, init_hi);
                for k in 0..kd {
                    let (x0, x1, x2, x3) = (*a0.add(k), *a1.add(k), *a2.add(k), *a3.add(k));
                    if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
                        continue;
                    }
                    let wl = _mm256_load_ps(pbase.add(k * LANES));
                    let wh = _mm256_load_ps(pbase.add(k * LANES + 8));
                    l0 = _mm256_fmadd_ps(_mm256_set1_ps(x0), wl, l0);
                    h0 = _mm256_fmadd_ps(_mm256_set1_ps(x0), wh, h0);
                    l1 = _mm256_fmadd_ps(_mm256_set1_ps(x1), wl, l1);
                    h1 = _mm256_fmadd_ps(_mm256_set1_ps(x1), wh, h1);
                    l2 = _mm256_fmadd_ps(_mm256_set1_ps(x2), wl, l2);
                    h2 = _mm256_fmadd_ps(_mm256_set1_ps(x2), wh, h2);
                    l3 = _mm256_fmadd_ps(_mm256_set1_ps(x3), wl, l3);
                    h3 = _mm256_fmadd_ps(_mm256_set1_ps(x3), wh, h3);
                }
                for (r, (lo, hi)) in [(l0, h0), (l1, h1), (l2, h2), (l3, h3)].into_iter().enumerate() {
                    store_group_avx2(od.add((ib + r) * m + g * LANES), lo, hi, lanes);
                }
                ib += 4;
            }
        }
        let mut nz = NonzeroIndex::new();
        for i in nb..n {
            let (arow, orow) = (ad.add(i * kd), od.add(i * m));
            let mut g = 0;
            while g < self.groups {
                let pass = (self.groups - g).min(4);
                match pass {
                    4 => self.row_pass_avx2::<4>(arow, bias, g, orow, &mut nz),
                    3 => self.row_pass_avx2::<3>(arow, bias, g, orow, &mut nz),
                    2 => self.row_pass_avx2::<2>(arow, bias, g, orow, &mut nz),
                    _ => self.row_pass_avx2::<1>(arow, bias, g, orow, &mut nz),
                }
                g += pass;
            }
        }
    }

    /// One pass of the AVX2 single-row forward: output groups
    /// `g0..g0 + G` of one row, each as two YMM halves — 8 independent
    /// FMA chains at `G = 4` — walked over the row's compacted nonzero
    /// inputs ([`NonzeroIndex`]), `k` ascending, so each lane runs
    /// exactly the reference chain. Full groups store unmasked; the
    /// ragged tail group spills through [`store_group_avx2`].
    ///
    /// # Safety
    /// `arow` must hold `depth` floats and `orow` `width` floats; caller
    /// must verify avx2+fma at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_pass_avx2<const G: usize>(
        &self,
        arow: *const f32,
        bias: Option<&PackedBias>,
        g0: usize,
        orow: *mut f32,
        nz: &mut NonzeroIndex,
    ) {
        use std::arch::x86_64::*;
        let kd = self.depth;
        let mut pb = [std::ptr::null::<f32>(); G];
        let mut lo = [_mm256_setzero_ps(); G];
        let mut hi = [_mm256_setzero_ps(); G];
        for j in 0..G {
            pb[j] = self.data.as_ptr().add((g0 + j) * kd) as *const f32;
            if let Some(b) = bias {
                let bp = b.data.as_ptr().add(g0 + j) as *const f32;
                lo[j] = _mm256_load_ps(bp);
                hi[j] = _mm256_load_ps(bp.add(8));
            }
        }
        let mut k0 = 0;
        while k0 < kd {
            let kb = (kd - k0).min(ROW_BLOCK);
            for &k in nz.block(arow, k0, kb) {
                let off = k as usize * LANES;
                let xv = _mm256_set1_ps(*arow.add(k as usize));
                for ((l, h), p) in lo.iter_mut().zip(&mut hi).zip(&pb) {
                    *l = _mm256_fmadd_ps(xv, _mm256_load_ps(p.add(off)), *l);
                    *h = _mm256_fmadd_ps(xv, _mm256_load_ps(p.add(off + 8)), *h);
                }
            }
            k0 += kb;
        }
        for (j, (l, h)) in lo.into_iter().zip(hi).enumerate() {
            let g = g0 + j;
            store_group_avx2(orow.add(g * LANES), l, h, (self.width - g * LANES).min(LANES));
        }
    }

    /// AVX-512F forward/input-gradient kernel. Full 16-lane groups run
    /// in *pairs* — 8 ZMM accumulators per 4-row block, enough
    /// independent FMA chains to cover the FMA latency×throughput
    /// product, and each pass over the input matrix covers 32 output
    /// columns instead of 16. A leftover full group and the ragged tail
    /// group run the single-group variant. Rows past the last whole
    /// block take the single-row pass
    /// ([`PackedWeights::row_pass_avx512`]): the row's nonzero inputs are
    /// compacted once, then up to 8 groups — 8 ZMM chains, a whole
    /// 128-wide layer — walk them in one pass. Chains are identical to
    /// [`PackedWeights::gemm_avx2`]'s lane for lane: the 4-row zero-skip
    /// tests the same `x` values whether one or two groups share the
    /// pass, so pairing never changes which FMAs reach a given lane.
    ///
    /// Full-group stores are deliberately unmasked: a masked store —
    /// even with an all-ones mask — blocks store-to-load forwarding
    /// into the next chained layer's scalar broadcast reads, which
    /// measured as a ~1.7x whole-MLP slowdown despite identical
    /// isolated-gemm speed.
    ///
    /// # Safety
    /// Caller must verify avx512f at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_avx512(&self, a: &Matrix, bias: Option<&PackedBias>, out: &mut Matrix) {
        use std::arch::x86_64::*;
        let (n, kd, m) = (a.rows(), self.depth, self.width);
        let ad = a.as_slice().as_ptr();
        let od = out.as_mut_slice().as_mut_ptr();
        let nb = n - n % 4;
        let full = m / LANES;
        let mut g = 0;
        while g + 2 <= full {
            let pb0 = self.data.as_ptr().add(g * kd) as *const f32;
            let pb1 = self.data.as_ptr().add((g + 1) * kd) as *const f32;
            let (init0, init1) = match bias {
                Some(b) => (
                    _mm512_load_ps(b.data.as_ptr().add(g) as *const f32),
                    _mm512_load_ps(b.data.as_ptr().add(g + 1) as *const f32),
                ),
                None => (_mm512_setzero_ps(), _mm512_setzero_ps()),
            };
            let mut ib = 0;
            while ib < nb {
                let (a0, a1, a2, a3) =
                    (ad.add(ib * kd), ad.add((ib + 1) * kd), ad.add((ib + 2) * kd), ad.add((ib + 3) * kd));
                let (mut c00, mut c10, mut c20, mut c30) = (init0, init0, init0, init0);
                let (mut c01, mut c11, mut c21, mut c31) = (init1, init1, init1, init1);
                // No zero-skip here, on purpose: with 8 accumulators the
                // FMA pipeline is saturated, so the data-dependent skip
                // branch's mispredictions cost more than the ~6% of
                // all-4-zero iterations it saves on ReLU-sparse input.
                // Skipping is arithmetically a no-op under the packing
                // caveats (finite weights, biases never -0.0): each
                // skipped lane would compute `fma(±0·w, acc) == acc`
                // bit for bit, so dropping the branch leaves every
                // lane's chain unchanged.
                for k in 0..kd {
                    let (x0, x1, x2, x3) = (*a0.add(k), *a1.add(k), *a2.add(k), *a3.add(k));
                    let w0 = _mm512_load_ps(pb0.add(k * LANES));
                    let w1 = _mm512_load_ps(pb1.add(k * LANES));
                    let v0 = _mm512_set1_ps(x0);
                    c00 = _mm512_fmadd_ps(v0, w0, c00);
                    c01 = _mm512_fmadd_ps(v0, w1, c01);
                    let v1 = _mm512_set1_ps(x1);
                    c10 = _mm512_fmadd_ps(v1, w0, c10);
                    c11 = _mm512_fmadd_ps(v1, w1, c11);
                    let v2 = _mm512_set1_ps(x2);
                    c20 = _mm512_fmadd_ps(v2, w0, c20);
                    c21 = _mm512_fmadd_ps(v2, w1, c21);
                    let v3 = _mm512_set1_ps(x3);
                    c30 = _mm512_fmadd_ps(v3, w0, c30);
                    c31 = _mm512_fmadd_ps(v3, w1, c31);
                }
                for (r, (ca, cb)) in
                    [(c00, c01), (c10, c11), (c20, c21), (c30, c31)].into_iter().enumerate()
                {
                    let dst = od.add((ib + r) * m + g * LANES);
                    _mm512_storeu_ps(dst, ca);
                    _mm512_storeu_ps(dst.add(LANES), cb);
                }
                ib += 4;
            }
            g += 2;
        }
        while g < self.groups {
            let lanes = (m - g * LANES).min(LANES);
            let mask: __mmask16 = if lanes == LANES { !0 } else { (1u16 << lanes) - 1 };
            let pbase = self.data.as_ptr().add(g * kd) as *const f32;
            let init = match bias {
                Some(b) => _mm512_load_ps(b.data.as_ptr().add(g) as *const f32),
                None => _mm512_setzero_ps(),
            };
            let mut ib = 0;
            while ib < nb {
                let (a0, a1, a2, a3) =
                    (ad.add(ib * kd), ad.add((ib + 1) * kd), ad.add((ib + 2) * kd), ad.add((ib + 3) * kd));
                let (mut c0, mut c1, mut c2, mut c3) = (init, init, init, init);
                for k in 0..kd {
                    let (x0, x1, x2, x3) = (*a0.add(k), *a1.add(k), *a2.add(k), *a3.add(k));
                    if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
                        continue;
                    }
                    let w = _mm512_load_ps(pbase.add(k * LANES));
                    c0 = _mm512_fmadd_ps(_mm512_set1_ps(x0), w, c0);
                    c1 = _mm512_fmadd_ps(_mm512_set1_ps(x1), w, c1);
                    c2 = _mm512_fmadd_ps(_mm512_set1_ps(x2), w, c2);
                    c3 = _mm512_fmadd_ps(_mm512_set1_ps(x3), w, c3);
                }
                for (r, c) in [c0, c1, c2, c3].into_iter().enumerate() {
                    let dst = od.add((ib + r) * m + g * LANES);
                    if lanes == LANES {
                        _mm512_storeu_ps(dst, c);
                    } else {
                        _mm512_mask_storeu_ps(dst, mask, c);
                    }
                }
                ib += 4;
            }
            g += 1;
        }
        let mut nz = NonzeroIndex::new();
        for i in nb..n {
            let (arow, orow) = (ad.add(i * kd), od.add(i * m));
            let mut g = 0;
            while g < self.groups {
                let pass = (self.groups - g).min(8);
                match pass {
                    8 => self.row_pass_avx512::<8>(arow, bias, g, orow, &mut nz),
                    7 => self.row_pass_avx512::<7>(arow, bias, g, orow, &mut nz),
                    6 => self.row_pass_avx512::<6>(arow, bias, g, orow, &mut nz),
                    5 => self.row_pass_avx512::<5>(arow, bias, g, orow, &mut nz),
                    4 => self.row_pass_avx512::<4>(arow, bias, g, orow, &mut nz),
                    3 => self.row_pass_avx512::<3>(arow, bias, g, orow, &mut nz),
                    2 => self.row_pass_avx512::<2>(arow, bias, g, orow, &mut nz),
                    _ => self.row_pass_avx512::<1>(arow, bias, g, orow, &mut nz),
                }
                g += pass;
            }
        }
    }

    /// One pass of the AVX-512 single-row forward: output groups
    /// `g0..g0 + G` of one row, one ZMM accumulator per group — 8
    /// independent FMA chains at `G = 8`, so a 128-wide layer is one
    /// pass — walked over the row's compacted nonzero inputs
    /// ([`NonzeroIndex`]), `k` ascending, so each lane runs exactly
    /// the reference chain. Full groups store unmasked and only a ragged
    /// tail group masks (see [`PackedWeights::gemm_avx512`]).
    ///
    /// # Safety
    /// `arow` must hold `depth` floats and `orow` `width` floats; caller
    /// must verify avx512f at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn row_pass_avx512<const G: usize>(
        &self,
        arow: *const f32,
        bias: Option<&PackedBias>,
        g0: usize,
        orow: *mut f32,
        nz: &mut NonzeroIndex,
    ) {
        use std::arch::x86_64::*;
        let kd = self.depth;
        let mut pb = [std::ptr::null::<f32>(); G];
        let mut acc = [_mm512_setzero_ps(); G];
        for j in 0..G {
            pb[j] = self.data.as_ptr().add((g0 + j) * kd) as *const f32;
            if let Some(b) = bias {
                acc[j] = _mm512_load_ps(b.data.as_ptr().add(g0 + j) as *const f32);
            }
        }
        let mut k0 = 0;
        while k0 < kd {
            let kb = (kd - k0).min(ROW_BLOCK);
            for &k in nz.block(arow, k0, kb) {
                let off = k as usize * LANES;
                let xv = _mm512_set1_ps(*arow.add(k as usize));
                for (c, p) in acc.iter_mut().zip(&pb) {
                    *c = _mm512_fmadd_ps(xv, _mm512_load_ps(p.add(off)), *c);
                }
            }
            k0 += kb;
        }
        let tail = (self.width - (g0 + G - 1) * LANES).min(LANES);
        for (j, c) in acc.into_iter().enumerate() {
            let dst = orow.add((g0 + j) * LANES);
            if j + 1 < G || tail == LANES {
                _mm512_storeu_ps(dst, c);
            } else {
                _mm512_mask_storeu_ps(dst, (1u16 << tail) - 1, c);
            }
        }
    }

    /// AVX2+FMA weight-gradient kernel. Full groups run two 8-lane FMA
    /// halves; the ragged last group runs scalar `mul_add` lanes (still
    /// FMA chains, so the SIMD tiers stay bit-identical).
    ///
    /// # Safety
    /// Caller must verify avx2+fma at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn at_b_avx2(&mut self, a: &Matrix, b: &Matrix) {
        use std::arch::x86_64::*;
        let (rows, nn, m) = (a.rows(), self.depth, self.width);
        let ad = a.as_slice().as_ptr();
        let bd = b.as_slice().as_ptr();
        for g in 0..self.groups {
            let lanes = (m - g * LANES).min(LANES);
            let base = g * LANES;
            for n in 0..nn {
                let acc = self.data.as_mut_ptr().add(g * nn + n) as *mut f32;
                if lanes == LANES {
                    let mut lo = _mm256_load_ps(acc);
                    let mut hi = _mm256_load_ps(acc.add(8));
                    for r in 0..rows {
                        let x = *ad.add(r * nn + n);
                        if x == 0.0 {
                            continue;
                        }
                        let xv = _mm256_set1_ps(x);
                        let brow = bd.add(r * m + base);
                        lo = _mm256_fmadd_ps(xv, _mm256_loadu_ps(brow), lo);
                        hi = _mm256_fmadd_ps(xv, _mm256_loadu_ps(brow.add(8)), hi);
                    }
                    _mm256_store_ps(acc, lo);
                    _mm256_store_ps(acc.add(8), hi);
                } else {
                    for r in 0..rows {
                        let x = *ad.add(r * nn + n);
                        if x == 0.0 {
                            continue;
                        }
                        let brow = bd.add(r * m + base);
                        for l in 0..lanes {
                            *acc.add(l) = f32::mul_add(x, *brow.add(l), *acc.add(l));
                        }
                    }
                }
            }
        }
    }

    /// AVX-512F weight-gradient kernel. Full groups block 4 consecutive
    /// contraction columns `n` into 4 ZMM accumulators — the `dZ` row
    /// vector loads once per `r` and feeds all four chains, and four
    /// independent chains cover the FMA latency the single-accumulator
    /// form stalled on. The blocked path is branchless for the same
    /// reason as [`PackedWeights::gemm_avx512`]'s paired path: with the
    /// pipeline saturated, the activation zero-skip's mispredictions
    /// cost more than the skipped work, and the skip is arithmetically
    /// a no-op (gradient panels start at `+0.0` and `±0` contributions
    /// can never flip an accumulator to `-0.0`). Chains remain
    /// identical to [`PackedWeights::at_b_avx2`]'s lane for lane: per
    /// `(group, n)`, ascending-`r` FMAs. Leftover columns and the
    /// ragged tail group run the single-accumulator masked variant.
    ///
    /// # Safety
    /// Caller must verify avx512f at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn at_b_avx512(&mut self, a: &Matrix, b: &Matrix) {
        use std::arch::x86_64::*;
        let (rows, nn, m) = (a.rows(), self.depth, self.width);
        let ad = a.as_slice().as_ptr();
        let bd = b.as_slice().as_ptr();
        for g in 0..self.groups {
            let lanes = (m - g * LANES).min(LANES);
            let mask: __mmask16 = if lanes == LANES { !0 } else { (1u16 << lanes) - 1 };
            let base = g * LANES;
            let mut n = 0;
            if lanes == LANES {
                while n + 4 <= nn {
                    let accp = self.data.as_mut_ptr().add(g * nn + n) as *mut f32;
                    let mut acc0 = _mm512_load_ps(accp);
                    let mut acc1 = _mm512_load_ps(accp.add(LANES));
                    let mut acc2 = _mm512_load_ps(accp.add(2 * LANES));
                    let mut acc3 = _mm512_load_ps(accp.add(3 * LANES));
                    for r in 0..rows {
                        let xp = ad.add(r * nn + n);
                        let bvec = _mm512_loadu_ps(bd.add(r * m + base));
                        acc0 = _mm512_fmadd_ps(_mm512_set1_ps(*xp), bvec, acc0);
                        acc1 = _mm512_fmadd_ps(_mm512_set1_ps(*xp.add(1)), bvec, acc1);
                        acc2 = _mm512_fmadd_ps(_mm512_set1_ps(*xp.add(2)), bvec, acc2);
                        acc3 = _mm512_fmadd_ps(_mm512_set1_ps(*xp.add(3)), bvec, acc3);
                    }
                    _mm512_store_ps(accp, acc0);
                    _mm512_store_ps(accp.add(LANES), acc1);
                    _mm512_store_ps(accp.add(2 * LANES), acc2);
                    _mm512_store_ps(accp.add(3 * LANES), acc3);
                    n += 4;
                }
            }
            while n < nn {
                let accp = self.data.as_mut_ptr().add(g * nn + n) as *mut f32;
                let mut acc = _mm512_load_ps(accp);
                for r in 0..rows {
                    let x = *ad.add(r * nn + n);
                    if x == 0.0 {
                        continue;
                    }
                    let bvec = _mm512_maskz_loadu_ps(mask, bd.add(r * m + base));
                    acc = _mm512_fmadd_ps(_mm512_set1_ps(x), bvec, acc);
                }
                _mm512_store_ps(accp, acc);
                n += 1;
            }
        }
    }
}

/// Depth of one compaction block of the single-row forward pass: the
/// stack buffer of a [`NonzeroIndex`] holds this many indices, and
/// deeper rows are compacted block by block.
#[cfg(target_arch = "x86_64")]
const ROW_BLOCK: usize = 256;

/// The ascending indices of one row's nonzero inputs, compacted one
/// block of [`ROW_BLOCK`] inputs at a time into a fixed stack buffer, so
/// the single-row pass allocates nothing. Compaction is branchless:
/// every index is stored and the count advances by `x != 0.0` — a
/// per-`k` branch on ReLU activations, about half of them zero,
/// mispredicts too often to pay. `-0.0` counts as zero, as in the
/// reference chain. The last block compacted is kept, so the passes
/// over one row's output groups compact a row no deeper than one block
/// only once.
#[cfg(target_arch = "x86_64")]
struct NonzeroIndex {
    idx: [u32; ROW_BLOCK],
    /// Number of valid entries in `idx`.
    len: usize,
    /// Row and first `k` of the block `idx` holds.
    block: Option<(*const f32, usize)>,
}

#[cfg(target_arch = "x86_64")]
impl NonzeroIndex {
    fn new() -> NonzeroIndex {
        NonzeroIndex { idx: [0; ROW_BLOCK], len: 0, block: None }
    }

    /// The indices `k` in `k0..k0 + kb` with `row[k] != 0.0`, ascending.
    /// One index serves one gemm call, whose input rows do not change
    /// under it, so a block is known by its row pointer and `k0`.
    ///
    /// # Safety
    /// `row` must hold `k0 + kb` floats; `kb <= ROW_BLOCK`.
    #[inline(always)]
    unsafe fn block(&mut self, row: *const f32, k0: usize, kb: usize) -> &[u32] {
        if self.block != Some((row, k0)) {
            let mut len = 0;
            for k in k0..k0 + kb {
                // SAFETY: `len <= k - k0 < kb <= ROW_BLOCK` (the caller's
                // bound on `kb`). Checked indexing here measured ~20%
                // slower on ReLU-sparse rows.
                *self.idx.get_unchecked_mut(len) = k as u32;
                len += (*row.add(k) != 0.0) as usize;
            }
            self.len = len;
            self.block = Some((row, k0));
        }
        &self.idx[..self.len]
    }
}

/// Stores one 16-lane group (two YMM halves) to an unaligned output
/// location, spilling through an aligned buffer when the group is the
/// ragged last one.
///
/// # Safety
/// `dst` must be valid for `lanes` writes; caller must verify avx2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn store_group_avx2(
    dst: *mut f32,
    lo: std::arch::x86_64::__m256,
    hi: std::arch::x86_64::__m256,
    lanes: usize,
) {
    use std::arch::x86_64::*;
    if lanes == LANES {
        _mm256_storeu_ps(dst, lo);
        _mm256_storeu_ps(dst.add(8), hi);
    } else {
        let mut tmp = ZERO_GROUP;
        _mm256_store_ps(tmp.0.as_mut_ptr(), lo);
        _mm256_store_ps(tmp.0.as_mut_ptr().add(8), hi);
        std::ptr::copy_nonoverlapping(tmp.0.as_ptr(), dst, lanes);
    }
}

/// A bias vector padded to whole lane groups with `+0.0` (never `-0.0` —
/// the kernel caveat the zero-skip argument rests on), 64-byte aligned
/// so group initializers are single aligned loads.
#[derive(Debug, Clone)]
pub struct PackedBias {
    len: usize,
    data: Vec<Align64>,
}

impl PackedBias {
    /// Packs `src` into padded lane groups.
    pub fn pack(src: &[f32]) -> PackedBias {
        let mut b = PackedBias { len: src.len(), data: vec![ZERO_GROUP; src.len().div_ceil(LANES)] };
        b.repack_from(src);
        b
    }

    /// Rewrites from `src` without reallocating.
    ///
    /// # Panics
    /// Panics if `src.len()` differs from the packed length.
    pub fn repack_from(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.len, "bias length mismatch");
        self.data.fill(ZERO_GROUP);
        for (j, &v) in src.iter().enumerate() {
            self.data[j / LANES].0[j % LANES] = v;
        }
    }
}

/// A [`Dense`] layer's packed acceleration state: forward panels, the
/// padded bias, the activation, and (when built for training) transposed
/// panels for the input-gradient gemm. Rebuilt from the authoritative
/// layer at pack/repack time; never serialized.
#[derive(Debug, Clone)]
pub struct PackedDense {
    w: PackedWeights,
    /// Transposed panels for `dX = dZ · Wᵀ`; `None` on serving-only packs.
    wt: Option<PackedWeights>,
    b: PackedBias,
    act: Activation,
}

impl PackedDense {
    /// Packs `src`; `with_backward` additionally builds the transposed
    /// panels the input-gradient gemm needs (training tapes only —
    /// serving packs skip the second copy).
    pub fn pack(src: &Dense, with_backward: bool) -> PackedDense {
        PackedDense {
            w: PackedWeights::pack(&src.w),
            wt: with_backward.then(|| PackedWeights::pack_transposed(&src.w)),
            b: PackedBias::pack(&src.b),
            act: src.act,
        }
    }

    /// Refreshes every packed buffer from `src` without reallocating
    /// (called once per weight update by the training tape).
    ///
    /// # Panics
    /// Panics if `src`'s shape differs from the packed shape.
    pub fn repack_from(&mut self, src: &Dense) {
        self.w.repack_from(&src.w);
        if let Some(wt) = &mut self.wt {
            wt.repack_transposed_from(&src.w);
        }
        self.b.repack_from(&src.b);
        self.act = src.act;
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.depth
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.width
    }

    /// The layer's activation (the tape's fused activation backward
    /// reads it from here).
    pub fn act(&self) -> Activation {
        self.act
    }

    /// `out = act(x · W + b)` (overwritten) — the serving and training
    /// forward of one [`Dense`] layer: panel gemm, then one activation
    /// pass over the output.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        self.w.gemm_into(x, Some(&self.b), out);
        if self.act != Activation::Identity {
            let act = self.act;
            for v in out.as_mut_slice() {
                *v = act.apply(*v);
            }
        }
    }

    /// `out = dz · Wᵀ` over the transposed panels (no bias, no
    /// activation): the input-gradient gemm.
    ///
    /// # Panics
    /// Panics if the layer was packed without backward panels.
    pub fn backward_input_into(&self, dz: &Matrix, out: &mut Matrix) {
        let wt = self.wt.as_ref().expect("layer packed without backward panels");
        wt.gemm_into(dz, None, out);
    }
}

/// An [`Mlp`]'s packed layers — what the serving and training engines
/// actually run their wavefront gemms against.
#[derive(Debug, Clone)]
pub struct PackedMlp {
    layers: Vec<PackedDense>,
}

impl PackedMlp {
    /// Packs every layer of `src` (see [`PackedDense::pack`]).
    pub fn pack(src: &Mlp, with_backward: bool) -> PackedMlp {
        PackedMlp { layers: src.layers().iter().map(|l| PackedDense::pack(l, with_backward)).collect() }
    }

    /// Refreshes every layer from `src` without reallocating.
    ///
    /// # Panics
    /// Panics if `src`'s layer count or shapes differ.
    pub fn repack_from(&mut self, src: &Mlp) {
        assert_eq!(self.layers.len(), src.num_layers(), "layer count mismatch");
        for (dst, l) in self.layers.iter_mut().zip(src.layers()) {
            dst.repack_from(l);
        }
    }

    /// The packed layer stack.
    pub fn layers(&self) -> &[PackedDense] {
        &self.layers
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Inference forward through pooled ping-pong buffers, used by every
    /// wavefront step. Layer buffers (and the returned output) come from
    /// `pool`, so a caller that `give`s the result back allocates nothing
    /// in steady state; nothing is kept for a backward pass.
    pub fn forward_pooled(&self, x: &Matrix, pool: &mut BufferPool) -> Matrix {
        let rows = x.rows();
        let mut cur = pool.take(rows, self.layers[0].out_dim());
        self.layers[0].forward_into(x, &mut cur);
        for layer in &self.layers[1..] {
            let mut next = pool.take(rows, layer.out_dim());
            layer.forward_into(&cur, &mut next);
            pool.give(cur);
            cur = next;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random matrix with ~`sparsity` of entries exactly zero (the
    /// kernels' skip paths must be exercised, including `-0.0`).
    fn sparse(rows: usize, cols: usize, sparsity: f64, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            let r: f64 = rng.gen();
            if r < sparsity {
                if rng.gen::<f64>() < 0.1 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                (rng.gen::<f32>() - 0.5) * 2.0
            }
        })
    }

    fn random_dense(in_dim: usize, out_dim: usize, act: Activation, rng: &mut StdRng) -> Dense {
        let mut d = Dense::new(in_dim, out_dim, act, Init::He, rng);
        for b in &mut d.b {
            *b = (rng.gen::<f32>() - 0.5) * 0.8;
        }
        d
    }

    #[test]
    fn pack_round_trips_every_element_and_pads_with_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        for (r, c) in [(1, 1), (3, 16), (5, 17), (128, 33), (2, 40)] {
            let m = sparse(r, c, 0.3, &mut rng);
            let p = PackedWeights::pack(&m);
            assert_eq!((p.depth(), p.width()), (r, c));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(p.get(i, j).to_bits(), m.get(i, j).to_bits());
                }
                for j in c..p.groups * LANES {
                    assert_eq!(p.data[(j / LANES) * r + i].0[j % LANES], 0.0);
                }
            }
            let t = PackedWeights::pack_transposed(&m);
            assert_eq!((t.depth(), t.width()), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i).to_bits(), m.get(i, j).to_bits());
                }
            }
        }
    }

    /// Both repacks, over every [`SHAPES`] weight shape (`k × m`, ragged
    /// tails included), rewrite a *dirty* buffer into exactly the
    /// element-wise layout: every logical lane holds its source element
    /// and every padding lane is `+0.0`, so a lane the repack skipped
    /// would still hold the stale fill.
    #[test]
    fn repacks_match_elementwise_layout_over_dirty_buffers() {
        let mut rng = StdRng::seed_from_u64(19);
        let stale = Align64([f32::NAN; LANES]);
        let check = |p: &PackedWeights, at: &dyn Fn(usize, usize) -> f32, what: &str| {
            for g in 0..p.groups {
                for k in 0..p.depth {
                    for lane in 0..LANES {
                        let j = g * LANES + lane;
                        let want = if j < p.width { at(k, j) } else { 0.0 };
                        let got = p.data[g * p.depth + k].0[lane];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{what} {}x{}: ({k}, {j})",
                            p.depth,
                            p.width
                        );
                    }
                }
            }
        };
        for (_, k, m) in SHAPES {
            let w = sparse(k, m, 0.3, &mut rng);
            let mut p = PackedWeights::zeros(k, m);
            p.data.fill(stale);
            p.repack_from(&w);
            check(&p, &|r, c| w.get(r, c), "repack");
            let mut t = PackedWeights::zeros(m, k);
            t.data.fill(stale);
            t.repack_transposed_from(&w);
            check(&t, &|r, c| w.get(c, r), "transposed repack");
        }
    }

    /// Every kernel tier this host can run, lowest first (the process
    /// dispatch may be clamped lower; the tests call bodies directly).
    fn host_tiers() -> Vec<KernelTier> {
        let hw = crate::tier::hardware_tier();
        [KernelTier::Scalar, KernelTier::Avx2Fma, KernelTier::Avx512f]
            .into_iter()
            .filter(|&t| t <= hw)
            .collect()
    }

    /// Runs `tier`'s forward/input-gradient body directly, bypassing
    /// the process-wide dispatch.
    fn gemm_at(
        tier: KernelTier,
        p: &PackedWeights,
        a: &Matrix,
        bias: Option<&PackedBias>,
        out: &mut Matrix,
    ) {
        match tier {
            KernelTier::Scalar => p.gemm_scalar(a, bias, out),
            // SAFETY (both arms): `host_tiers` yields only tiers the
            // hardware supports.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2Fma => unsafe { p.gemm_avx2(a, bias, out) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512f => unsafe { p.gemm_avx512(a, bias, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD tiers exist only on x86-64"),
        }
    }

    /// Runs `tier`'s weight-gradient body directly.
    fn at_b_at(tier: KernelTier, p: &mut PackedWeights, a: &Matrix, b: &Matrix) {
        match tier {
            KernelTier::Scalar => p.at_b_scalar(a, b),
            // SAFETY (both arms): as in `gemm_at`.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2Fma => unsafe { p.at_b_avx2(a, b) },
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512f => unsafe { p.at_b_avx512(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD tiers exist only on x86-64"),
        }
    }

    /// One term of a reference chain: a single rounding (`mul_add`,
    /// exactly a hardware FMA) on the SIMD tiers, multiply-then-add on
    /// the scalar tier.
    fn step(tier: KernelTier, acc: f32, x: f32, w: f32) -> f32 {
        if tier.simd() {
            x.mul_add(w, acc)
        } else {
            acc + x * w
        }
    }

    /// The reference for `a · w (+ bias)` over logical indices: per
    /// output element, start from the bias (or `+0.0`), then one
    /// [`step`] per nonzero `a[i][k]`, `k` ascending.
    fn reference_gemm(tier: KernelTier, a: &Matrix, w: &Matrix, bias: Option<&[f32]>) -> Matrix {
        Matrix::from_fn(a.rows(), w.cols(), |i, j| {
            let mut acc = bias.map_or(0.0, |b| b[j]);
            for (k, &x) in a.row(i).iter().enumerate() {
                if x != 0.0 {
                    acc = step(tier, acc, x, w.get(k, j));
                }
            }
            acc
        })
    }

    /// The reference for `aᵀ · b` accumulated from `+0.0`: per element
    /// `(n, j)`, one [`step`] per nonzero `a[r][n]`, `r` ascending.
    fn reference_at_b(tier: KernelTier, a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), b.cols(), |n, j| {
            let mut acc = 0.0;
            for r in 0..a.rows() {
                let x = a.get(r, n);
                if x != 0.0 {
                    acc = step(tier, acc, x, b.get(r, j));
                }
            }
            acc
        })
    }

    /// The reference forward of a whole MLP: [`reference_gemm`] plus the
    /// activation, layer by layer.
    fn reference_mlp(tier: KernelTier, mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for l in mlp.layers() {
            cur = reference_gemm(tier, &cur, &l.w, Some(&l.b));
            cur.map_inplace(|v| l.act.apply(v));
        }
        cur
    }

    /// The logical contents of a packed panel set.
    fn unpack(p: &PackedWeights) -> Matrix {
        Matrix::from_fn(p.depth(), p.width(), |k, j| p.get(k, j))
    }

    fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}, element {i}: {a} vs {b}");
        }
    }

    /// Shapes that hit full groups, ragged groups, 4-row blocks and
    /// remainder rows, plus the single-row pass's edges: 1–3 rows at the
    /// paper tier's unit shapes (a join's ~70-wide input, the 128-wide
    /// hidden layers, the 33-wide output), a width of 13 groups (a pass
    /// of 8, then a pass of 5 ending in a ragged tail), and a depth
    /// deeper than one compaction block.
    const SHAPES: [(usize, usize, usize); 13] = [
        (1, 1, 1),
        (4, 7, 16),
        (5, 13, 17),
        (9, 128, 33),
        (32, 40, 24),
        (3, 8, 64),
        (4, 16, 16),
        (2, 40, 64),
        (1, 70, 128),
        (2, 128, 128),
        (3, 128, 33),
        (1, 40, 200),
        (2, DEEP, 40),
    ];

    /// A depth that the single-row pass compacts in two blocks.
    const DEEP: usize = 300;
    #[cfg(target_arch = "x86_64")]
    const _: () = assert!(DEEP > ROW_BLOCK && DEEP < 2 * ROW_BLOCK);

    /// The central contract: every packed body the host supports,
    /// called directly, is bitwise-equal to its tier's reference chain —
    /// the forward gemm with a bias and the weight-gradient gemm, across
    /// [`SHAPES`] at sparsity 0.4. The two SIMD tiers share one
    /// reference, so they are also bitwise-equal to each other.
    #[test]
    fn packed_tiers_are_bitwise_equal_to_scalar_fma_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for (n, k, m) in SHAPES {
            for act in [Activation::Relu, Activation::Identity] {
                let mut d = random_dense(k, m, act, &mut rng);
                // Sparse weights, `-0.0` included: no kernel skips a
                // zero weight, so none may perturb a chain.
                d.w = sparse(k, m, 0.2, &mut rng);
                let p = PackedDense::pack(&d, false);
                let x = sparse(n, k, 0.4, &mut rng);
                for tier in host_tiers() {
                    let mut got = Matrix::zeros(n, m);
                    gemm_at(tier, &p.w, &x, Some(&p.b), &mut got);
                    let want = reference_gemm(tier, &x, &d.w, Some(&d.b));
                    assert_bitwise(&got, &want, &format!("gemm {tier} {n}x{k}x{m}"));
                }
            }
            let x = sparse(n, k, 0.4, &mut rng);
            let dz = sparse(n, m, 0.3, &mut rng);
            for tier in host_tiers() {
                let mut g = PackedWeights::zeros(k, m);
                at_b_at(tier, &mut g, &x, &dz);
                let want = reference_at_b(tier, &x, &dz);
                assert_bitwise(&unpack(&g), &want, &format!("at_b {tier} {n}x{k}x{m}"));
            }
        }
    }

    /// The dispatched [`PackedDense::forward_into`] (bias and activation
    /// included) is bitwise-equal to the process tier's reference chain
    /// over the unpacked weights, then activated. The forced-scalar CI
    /// leg lowers the process tier to scalar.
    #[test]
    fn packed_forward_is_bitwise_equal_to_unpacked_dispatch() {
        let mut rng = StdRng::seed_from_u64(29);
        for (n, k, m) in SHAPES {
            for act in [Activation::Relu, Activation::Identity] {
                let d = random_dense(k, m, act, &mut rng);
                let p = PackedDense::pack(&d, false);
                let x = sparse(n, k, 0.4, &mut rng);
                let mut want = reference_gemm(KernelTier::current(), &x, &d.w, Some(&d.b));
                want.map_inplace(|v| act.apply(v));
                let mut got = Matrix::zeros(n, m);
                p.forward_into(&x, &mut got);
                assert_bitwise(&got, &want, &format!("forward {n}x{k}x{m} {act:?}"));
            }
        }
    }

    /// The AVX2 and AVX-512 bodies, compared with each other directly
    /// rather than through the reference: the forward gemm with a bias
    /// over sparse weights, and the weight-gradient gemm. Needs both
    /// tiers in hardware.
    #[test]
    fn packed_simd_tiers_are_bitwise_identical() {
        if !host_tiers().contains(&KernelTier::Avx512f) {
            return;
        }
        let (t2, t5) = (KernelTier::Avx2Fma, KernelTier::Avx512f);
        let mut rng = StdRng::seed_from_u64(67);
        for (n, kd, m) in [
            (5, 13, 17),
            (9, 128, 33),
            (4, 16, 16),
            (2, 40, 64),
            (1, 70, 128),
            (2, 128, 128),
            (3, 128, 33),
            (1, 40, 200),
            (2, DEEP, 40),
        ] {
            let p = PackedWeights::pack(&sparse(kd, m, 0.2, &mut rng));
            let bias = PackedBias::pack(
                &(0..m).map(|_| (rng.gen::<f32>() - 0.5) * 0.8).collect::<Vec<_>>(),
            );
            let x = sparse(n, kd, 0.4, &mut rng);
            let mut a2 = Matrix::zeros(n, m);
            let mut a5 = Matrix::zeros(n, m);
            gemm_at(t2, &p, &x, Some(&bias), &mut a2);
            gemm_at(t5, &p, &x, Some(&bias), &mut a5);
            assert_bitwise(&a2, &a5, &format!("gemm {n}x{kd}x{m}"));

            let xt = sparse(n, kd, 0.5, &mut rng);
            let dz = sparse(n, m, 0.3, &mut rng);
            let mut g2 = PackedWeights::zeros(kd, m);
            let mut g5 = PackedWeights::zeros(kd, m);
            at_b_at(t2, &mut g2, &xt, &dz);
            at_b_at(t5, &mut g5, &xt, &dz);
            assert_bitwise(&unpack(&g2), &unpack(&g5), &format!("at_b {n}x{kd}x{m}"));
        }
    }

    /// Row invariance: each output row's bits are independent of which
    /// rows surround it (single-row re-runs match the batched call) —
    /// the property thread-count invariance and streaming admission
    /// lean on.
    #[test]
    fn packed_forward_rows_are_bitwise_position_invariant() {
        let mut rng = StdRng::seed_from_u64(31);
        for (n, k, m) in [
            (6, 19, 33),
            (7, 8, 16),
            (5, 30, 9),
            (1, 70, 128),
            (2, 128, 128),
            (3, 128, 33),
            (1, 40, 200),
            (2, DEEP, 40),
            (7, DEEP, 200),
        ] {
            let d = random_dense(k, m, Activation::Relu, &mut rng);
            let p = PackedDense::pack(&d, false);
            let x = sparse(n, k, 0.4, &mut rng);
            let mut full = Matrix::zeros(n, m);
            p.forward_into(&x, &mut full);
            for i in 0..n {
                let single = Matrix::from_rows(&[x.row(i)]);
                let mut out = Matrix::zeros(1, m);
                p.forward_into(&single, &mut out);
                for (a, b) in full.row(i).iter().zip(out.row(0)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i}: {a} vs {b}");
                }
            }
        }
    }

    /// Rows with no nonzero input — all `+0.0`, or all `-0.0`, which
    /// every kernel treats as zero — produce exactly the bias bits (or
    /// `+0.0` without a bias) at every host tier, whether they run
    /// alone, among other remainder rows, or inside a 4-row block.
    #[test]
    fn zero_input_rows_yield_exactly_the_bias() {
        let mut rng = StdRng::seed_from_u64(37);
        for (kd, m) in [(70, 128), (128, 33), (40, 200), (DEEP, 40), (1, 1)] {
            let d = random_dense(kd, m, Activation::Identity, &mut rng);
            let p = PackedDense::pack(&d, false);
            let live = sparse(1, kd, 0.4, &mut rng);
            for n in [1, 2, 3, 5, 7] {
                // Row 0 is all +0.0, row 1 (if any) all -0.0, the rest live.
                let x = Matrix::from_fn(n, kd, |i, k| match i {
                    0 => 0.0,
                    1 => -0.0,
                    _ => live.get(0, k),
                });
                for tier in host_tiers() {
                    let what = format!("{tier} {n}x{kd}x{m}");
                    let mut got = Matrix::zeros(n, m);
                    gemm_at(tier, &p.w, &x, Some(&p.b), &mut got);
                    assert_bitwise(&got, &reference_gemm(tier, &x, &d.w, Some(&d.b)), &what);
                    for i in 0..n.min(2) {
                        for (j, (a, b)) in got.row(i).iter().zip(&d.b).enumerate() {
                            assert_eq!(a.to_bits(), b.to_bits(), "{what} row {i} lane {j}");
                        }
                    }
                    gemm_at(tier, &p.w, &x, None, &mut got);
                    for i in 0..n.min(2) {
                        for (j, a) in got.row(i).iter().enumerate() {
                            assert_eq!(a.to_bits(), 0, "{what} no bias, row {i} lane {j}");
                        }
                    }
                }
            }
        }
    }

    /// The input-gradient gemm over transposed panels is bitwise-equal
    /// to the reference chain over `Wᵀ` at every host tier (and through
    /// the dispatch), and the reference itself agrees with the unpacked
    /// `dZ · Wᵀ` to float tolerance (that kernel sums dot products
    /// without a zero skip or FMA).
    #[test]
    fn packed_backward_input_matches_unpacked_a_bt() {
        let mut rng = StdRng::seed_from_u64(41);
        for (n, kd, m) in [(4, 33, 128), (3, 16, 17), (7, 9, 40), (1, 1, 1), (5, 40, 33)] {
            let d = random_dense(m, kd, Activation::Relu, &mut rng);
            let p = PackedDense::pack(&d, true);
            let wt = d.w.transpose();
            let dz = sparse(n, kd, 0.5, &mut rng);
            for tier in host_tiers() {
                let mut got = Matrix::zeros(n, m);
                gemm_at(tier, p.wt.as_ref().expect("packed with backward"), &dz, None, &mut got);
                let want = reference_gemm(tier, &dz, &wt, None);
                assert_bitwise(&got, &want, &format!("dX {tier} {n}x{kd}x{m}"));
            }
            let want = reference_gemm(KernelTier::current(), &dz, &wt, None);
            let mut got = Matrix::zeros(n, m);
            p.backward_input_into(&dz, &mut got);
            assert_bitwise(&got, &want, &format!("dispatched dX {n}x{kd}x{m}"));
            for (a, b) in dz.matmul_a_bt(&d.w).as_slice().iter().zip(want.as_slice()) {
                let rel = (a - b).abs() / (1.0 + a.abs().max(b.abs()));
                assert!(rel < 1e-5, "{n}x{kd}x{m}: {a} vs {b} (rel {rel})");
            }
        }
    }

    /// The packed weight-gradient accumulator, folded onto a non-zero
    /// `gw`, is bitwise-equal to `gw + ` the reference chain at every
    /// host tier (the fold adds, never overwrites), and a zeroed panel
    /// set folds to a no-op. The reference agrees with the unpacked
    /// `Xᵀ · dZ` to float tolerance.
    #[test]
    fn packed_at_b_accumulates_like_unpacked() {
        let mut rng = StdRng::seed_from_u64(53);
        for (rows, n, m) in [(9, 40, 33), (5, 16, 16), (12, 7, 17), (4, 128, 5), (6, 9, 48)] {
            let x = sparse(rows, n, 0.5, &mut rng);
            let dz = sparse(rows, m, 0.3, &mut rng);
            let seed = sparse(n, m, 0.0, &mut rng);
            let fold = |p: &PackedWeights| {
                let mut got = seed.clone();
                p.add_unpacked_into(&mut got);
                got
            };
            let want = |tier| {
                let mut want = seed.clone();
                want.add_scaled(&reference_at_b(tier, &x, &dz), 1.0);
                want
            };
            let mut packed = PackedWeights::zeros(n, m);
            for tier in host_tiers() {
                packed.fill_zero();
                at_b_at(tier, &mut packed, &x, &dz);
                let what = format!("gw {tier} {rows}x{n}x{m}");
                assert_bitwise(&fold(&packed), &want(tier), &what);
            }
            let tier = KernelTier::current();
            packed.fill_zero();
            packed.accumulate_at_b(&x, &dz);
            assert_bitwise(&fold(&packed), &want(tier), &format!("dispatched gw {rows}x{n}x{m}"));
            let mut unpacked = seed.clone();
            x.matmul_at_b_into(&dz, &mut unpacked);
            for (a, b) in unpacked.as_slice().iter().zip(want(tier).as_slice()) {
                let rel = (a - b).abs() / (1.0 + a.abs().max(b.abs()));
                assert!(rel < 1e-5, "{rows}x{n}x{m}: {a} vs {b} (rel {rel})");
            }
            packed.fill_zero();
            assert_eq!(fold(&packed), seed, "zeroed panels must fold to a no-op");
        }
    }

    #[test]
    fn packed_mlp_forward_matches_reference_layer_chain_bitwise() {
        let mut rng = StdRng::seed_from_u64(71);
        let mlp = Mlp::new(&[19, 32, 33], Activation::Relu, Activation::Identity, Init::He, &mut rng);
        let packed = PackedMlp::pack(&mlp, false);
        assert_eq!((packed.in_dim(), packed.out_dim(), packed.num_layers()), (19, 33, 2));
        let x = sparse(6, 19, 0.4, &mut rng);
        let mut pool = BufferPool::new();
        let got = packed.forward_pooled(&x, &mut pool);
        assert_bitwise(&got, &reference_mlp(KernelTier::current(), &mlp, &x), "mlp forward");
        pool.give(got);
        // Steady state: a second packed pass allocates nothing new.
        let before = pool.available();
        let again = packed.forward_pooled(&x, &mut pool);
        pool.give(again);
        assert_eq!(pool.available(), before);
    }

    #[test]
    fn repack_tracks_weight_updates() {
        let mut rng = StdRng::seed_from_u64(83);
        let mut mlp =
            Mlp::new(&[9, 16, 5], Activation::Relu, Activation::Identity, Init::He, &mut rng);
        let mut packed = PackedMlp::pack(&mlp, true);
        let x = sparse(3, 9, 0.3, &mut rng);
        let mut pool = BufferPool::new();
        // Mutate weights in place (an optimizer step), then repack.
        for l in mlp.layers_mut() {
            l.w.map_inplace(|v| v * 1.5 + 0.01);
            for b in &mut l.b {
                *b -= 0.05;
            }
        }
        packed.repack_from(&mlp);
        let tier = KernelTier::current();
        let got = packed.forward_pooled(&x, &mut pool);
        assert_bitwise(&got, &reference_mlp(tier, &mlp, &x), "forward after repack");
        // The transposed (input-gradient) panels follow the update too.
        let top = &mlp.layers()[1];
        let dz = sparse(3, 5, 0.3, &mut rng);
        let mut dx = Matrix::zeros(3, 16);
        packed.layers()[1].backward_input_into(&dz, &mut dx);
        let want = reference_gemm(tier, &dz, &top.w.transpose(), None);
        assert_bitwise(&dx, &want, "dX after repack");
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn mismatched_input_width_panics_like_the_unpacked_kernels() {
        let mut rng = StdRng::seed_from_u64(97);
        let d = random_dense(8, 4, Activation::Relu, &mut rng);
        let p = PackedDense::pack(&d, false);
        let x = Matrix::zeros(2, 9);
        let mut out = Matrix::zeros(2, 4);
        p.forward_into(&x, &mut out);
    }
}
