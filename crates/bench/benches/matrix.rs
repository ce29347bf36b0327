//! Criterion micro-benchmarks for the gemm kernels that every serving and
//! wavefront-training step runs — the packed-panel kernels of `qpp_nn` —
//! at the paper's layer shape (128×128) across batch sizes:
//!
//! * forward `X·W + b` (`PackedWeights::gemm_into` with a bias), on
//!   dense input and on ReLU-sparse input (about half the entries
//!   exactly zero, like a hidden layer's activations, so the zero skip
//!   is exercised);
//! * input gradient `dZ·Wᵀ` (`PackedDense::backward_input_into`);
//! * weight gradient `dW += Xᵀ·dZ` (`PackedWeights::accumulate_at_b`).
//!
//! Batches 1–3 take the kernels' single-row pass, which is what a
//! one-shot prediction's wavefront chunks mostly run; 16 and up take the
//! 4-row blocks. `mlp_paper_forward_pooled/1` times one row through a
//! whole paper-tier unit (70 → 128×5 → 33, `PackedMlp::forward_pooled`).
//!
//! Each runs the body of the process kernel tier (printed first;
//! `QPP_NN_FORCE_TIER` lowers it). The join-unit input assembly and
//! gradient split (`hcat` / `slice_cols`) are timed as well.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qpp_nn::{
    Activation, BufferPool, Dense, Init, KernelTier, Matrix, Mlp, PackedBias, PackedDense,
    PackedMlp, PackedWeights,
};
use rand::{Rng, SeedableRng};

fn rand_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// `relu(U(-1, 1))`: about half the entries are exactly `+0.0`.
fn relu_sparse_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0).max(0.0))
}

fn bench_kernels(c: &mut Criterion) {
    println!("kernel tier: {}", KernelTier::current());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut layer = Dense::new(128, 128, Activation::Relu, Init::He, &mut rng);
    for b in &mut layer.b {
        *b = rng.gen_range(-0.5..0.5);
    }
    let w = PackedWeights::pack(&layer.w);
    let bias = PackedBias::pack(&layer.b);
    let dense = PackedDense::pack(&layer, true);
    let mut group = c.benchmark_group("packed_kernels_128x128");
    for &batch in &[1usize, 2, 3, 16, 64, 256] {
        let x = rand_matrix(batch, 128, &mut rng);
        let xs = relu_sparse_matrix(batch, 128, &mut rng);
        let dz = rand_matrix(batch, 128, &mut rng);

        group.bench_with_input(BenchmarkId::new("forward_xw_bias", batch), &batch, |b, _| {
            let mut out = Matrix::zeros(batch, 128);
            b.iter(|| {
                w.gemm_into(&x, Some(&bias), &mut out);
                std::hint::black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("forward_xw_bias_relu_sparse", batch), &batch, |b, _| {
            let mut out = Matrix::zeros(batch, 128);
            b.iter(|| {
                w.gemm_into(&xs, Some(&bias), &mut out);
                std::hint::black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("input_grad_dz_wt", batch), &batch, |b, _| {
            let mut out = Matrix::zeros(batch, 128);
            b.iter(|| {
                dense.backward_input_into(&dz, &mut out);
                std::hint::black_box(out.get(0, 0))
            })
        });
        group.bench_with_input(BenchmarkId::new("weight_grad_xt_dz", batch), &batch, |b, _| {
            let mut acc = PackedWeights::zeros(128, 128);
            b.iter(|| {
                acc.fill_zero();
                acc.accumulate_at_b(&x, &dz);
                std::hint::black_box(&acc);
            })
        });
    }
    let dims = [70, 128, 128, 128, 128, 128, 33];
    let mlp = Mlp::new(&dims, Activation::Relu, Activation::Identity, Init::He, &mut rng);
    let unit = PackedMlp::pack(&mlp, false);
    let x = rand_matrix(1, dims[0], &mut rng);
    let mut pool = BufferPool::new();
    group.bench_with_input(BenchmarkId::new("mlp_paper_forward_pooled", 1), &1, |b, _| {
        b.iter(|| {
            let out = unit.forward_pooled(&x, &mut pool);
            let v = out.get(0, 0);
            pool.give(out);
            std::hint::black_box(v)
        })
    });
    group.finish();
}

fn bench_hcat_slice(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    // A join unit's input assembly: features ⌢ child₁(33) ⌢ child₂(33).
    let feats = rand_matrix(64, 16, &mut rng);
    let c1 = rand_matrix(64, 33, &mut rng);
    let c2 = rand_matrix(64, 33, &mut rng);
    c.bench_function("hcat_join_input_batch64", |b| {
        b.iter(|| std::hint::black_box(Matrix::hcat(&[&feats, &c1, &c2])))
    });
    let cat = Matrix::hcat(&[&feats, &c1, &c2]);
    c.bench_function("slice_child_grad_batch64", |b| {
        b.iter(|| std::hint::black_box(cat.slice_cols(16, 33)))
    });
}

criterion_group!(benches, bench_kernels, bench_hcat_slice);
criterion_main!(benches);
