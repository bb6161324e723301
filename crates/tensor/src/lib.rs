//! # embsr-tensor
//!
//! A small, dependency-light tensor library with reverse-mode automatic
//! differentiation, written as the training substrate for the EMBSR
//! reproduction (ICDE 2022, "Micro-Behavior Encoding for Session-based
//! Recommendation").
//!
//! The paper trains its models with PyTorch on GPUs; this crate replaces that
//! substrate with a pure-Rust CPU implementation of exactly the operations the
//! paper's models need:
//!
//! * elementwise arithmetic with row/scalar broadcasting,
//! * dense matrix multiplication,
//! * row gathering / scattering (embedding lookups and their sparse grads),
//! * softmax, layer normalization, L2 row normalization,
//! * the activations used by GRU/GGNN cells (sigmoid, tanh, relu),
//! * cross-entropy over logits, and
//! * the Adam optimizer with global-norm gradient clipping.
//!
//! ## Design
//!
//! A [`Tensor`] is an immutable handle (`Rc`) to a node in a dynamically built
//! computation graph. Every operation produces a new node that records its
//! parents and a backward closure. Calling [`Tensor::backward`] runs a
//! topological sweep and accumulates gradients into every reachable node with
//! `requires_grad`. Graph construction is skipped entirely when no input
//! requires gradients, so inference pays no tape overhead.
//!
//! ```
//! use embsr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
//! let b = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], &[2, 2]).requires_grad();
//! let loss = a.matmul(&b).sum();
//! loss.backward();
//! assert_eq!(a.grad().unwrap().len(), 4);
//! ```

mod autograd;
mod flat;
/// f16/bf16 bit conversions for reduced-precision snapshots.
pub mod half;
mod inference;
mod init;
mod ops;
mod optim;
mod pool;
mod rng;
mod shape;
mod tensor;
/// Graph validation (shape inference, detached-parameter detection,
/// numerical-hazard patterns) and the universal gradcheck registry.
pub mod verify;

pub use flat::{export_grads, export_params, flat_len, import_grads, import_params, tree_reduce};
pub use inference::{inference_mode, is_inference};
pub use init::{kaiming_uniform, uniform_init, xavier_uniform, zeros_init};
pub use ops::kernels;
pub use ops::{
    fused_softmax_rows, gated_blend, gated_update_combine, gated_update_gates, gru_step_fused,
    gru_step_fused_masked, l2_normalize_row, softmax_slice, star_blend,
};
pub use pool::{clear_pool, pool_stats, reset_pool_stats, PoolStats};
pub use optim::{clip_grad_norm, Adam, AdamConfig, AdamParamState, Optimizer, Sgd};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Numerical tolerance helpers shared by the test-suites of downstream crates.
pub mod testing {
    use crate::Tensor;

    /// Asserts that two slices are elementwise close.
    ///
    /// # Panics
    /// Panics with a descriptive message when any element differs by more
    /// than `tol`.
    pub fn assert_close(actual: &[f32], expected: &[f32], tol: f32) {
        assert_eq!(
            actual.len(),
            expected.len(),
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        );
        for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
            assert!(
                (a - e).abs() <= tol,
                "element {i}: actual {a} vs expected {e} (tol {tol})"
            );
        }
    }

    /// Checks the analytic gradient of `f` at `input` against central finite
    /// differences.
    ///
    /// `f` must be a scalar-valued function of a single tensor. The check
    /// perturbs every element of `input` by `eps` in both directions.
    /// Assertion-style wrapper around [`crate::verify::gradcheck`] for use
    /// inside `#[test]` bodies.
    ///
    /// # Panics
    /// Panics with the gradcheck failure description when any element's
    /// normalized error exceeds `tol`.
    pub fn check_gradient<F>(input: &Tensor, f: F, eps: f32, tol: f32)
    where
        F: Fn(&Tensor) -> Tensor,
    {
        if let Err(e) = crate::verify::gradcheck(input, f, eps, tol) {
            panic!("{e}");
        }
    }
}
