//! Tensor operations, grouped by family. Each op builds a graph node with a
//! backward closure when any input requires gradients.

mod activation;
mod arith;
mod extras;
/// Fused serving-path ops: single-pass softmax and the normalize+scale
/// scorer chain (public so benches can drive the slice kernel directly).
pub mod fused;
mod index;
/// Packed GEMM micro-kernels, their scalar reference implementations, and the
/// batched matmul entry points (public so benches and property tests can call
/// the kernels directly).
pub mod kernels;
mod loss;
mod matmul;
mod norm;
mod reduce;

pub use fused::{
    fused_softmax_rows, gated_blend, gated_update_combine, gated_update_gates, gru_step_fused,
    gru_step_fused_masked, star_blend,
};
pub use norm::{l2_normalize_row, softmax_slice};
