//! # qpp-nn — dense neural-network substrate
//!
//! A small, dependency-light neural-network library built for the QPPNet
//! reproduction (Marcus & Papaemmanouil, *Plan-Structured Deep Neural Network
//! Models for Query Performance Prediction*, VLDB 2019). The paper trains its
//! model with PyTorch; this crate provides the equivalent building blocks in
//! pure Rust:
//!
//! * [`Matrix`] — row-major `f32` matrices with the handful of fused kernels
//!   backpropagation needs (`X·W`, `A·Bᵀ`, `Aᵀ·B`, horizontal concatenation,
//!   column slicing) plus the row-routing kernels batched inference needs
//!   (`gather_rows_into` / `scatter_rows_into`, allocation-free `matmul_into`).
//! * [`PackedMlp`] — an [`Mlp`] repacked into cache-line panels for the
//!   tiered SIMD gemm kernels (scalar / AVX2+FMA / AVX-512F, see
//!   [`KernelTier`]) that every serving and wavefront-training gemm runs.
//! * [`BufferPool`] — reusable matrix buffers behind the inference-only
//!   [`PackedMlp::forward_pooled`] pass, so serving hot paths allocate
//!   nothing in steady state — plus the resident [`Executor`]: a
//!   process-wide pool of parked worker threads that multicore serving
//!   and training dispatch onto instead of spawning threads per run (the
//!   lanes and shards they run carry their own `BufferPool`s).
//! * [`Dense`] / [`Mlp`] — affine layers with configurable [`Activation`]s,
//!   batched forward passes, cached activations, and exact reverse-mode
//!   gradients (including the *input* gradient, which plan-structured
//!   networks must route into child units).
//! * [`Sgd`] (momentum, the paper's optimizer) and [`Adam`] (evaluated as the
//!   paper's §8 future-work extension) behind the [`Optimizer`] trait, with
//!   their per-layer state held apart in an [`OptState`].
//! * [`loss`] — L2/MSE and absolute-error losses with gradients.
//! * [`gradcheck`] — central-difference gradient checking used by the test
//!   suite to certify every backward pass.
//!
//! All randomness is injected through explicit [`rand::Rng`] handles so that
//! experiments are reproducible bit-for-bit.
//!
//! ```
//! use qpp_nn::{Activation, Init, Matrix, Mlp, OptState, Sgd, loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 2 inputs -> 16 hidden -> 1 output, ReLU inside, identity out.
//! let mut mlp = Mlp::new(&[2, 16, 1], Activation::Relu, Activation::Identity,
//!                        Init::He, &mut rng);
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let target = Matrix::from_rows(&[&[1.0], &[-1.0]]);
//! let opt = Sgd::new(0.05, 0.9);
//! let mut state = OptState::new();
//! for _ in 0..200 {
//!     let cache = mlp.forward_cached(&x);
//!     let (_, dout) = loss::mse(cache.output(), &target);
//!     mlp.zero_grad();
//!     mlp.backward(&cache, &dout);
//!     mlp.apply_grads(&opt, state.layers_mut(mlp.num_layers()));
//! }
//! let pred = mlp.forward(&x);
//! assert!((pred.get(0, 0) - 1.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod activation;
pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod packed;
pub mod pool;
pub mod tier;

pub use activation::{activation_backward_inplace, Activation};
pub use init::Init;
pub use layer::Dense;
pub use lstm::{LstmNodeCache, TreeLstmCell};
pub use matrix::Matrix;
pub use mlp::{Mlp, MlpCache};
pub use optim::{Adam, LayerState, Moments, OptState, Optimizer, Sgd};
pub use packed::{PackedBias, PackedDense, PackedMlp, PackedWeights};
pub use pool::{BufferPool, Executor, ExecutorStats};
pub use tier::KernelTier;
