//! Dense matrix multiplication and transposition.
//!
//! The actual arithmetic lives in [`crate::ops::kernels`]: all three product
//! layouts (`A·B` forward, `A·Bᵀ` / `Aᵀ·B` backward) dispatch to the packed,
//! register-tiled micro-kernels there. The old naive `ikj` loops — and their
//! branchy `av == 0.0` skips, which defeated vectorization on dense
//! activations — are gone; one-hot and gather-style inputs never reach dense
//! matmul in this codebase (embedding lookups use the dedicated
//! `gather_rows` indexed path), so no sparse fallback is kept.

use super::kernels::{gemm_ab, gemm_abt, gemm_atb, PackedAbt};
use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product. Rank-1 operands are treated as `[1, d]` rows on the
    /// left and `[d, 1]` columns on the right would be ambiguous, so both
    /// operands must be rank-2; use [`Tensor::reshape`] for vectors.
    ///
    /// # Panics
    /// Panics on rank ≠ 2 or mismatched inner dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.shape().rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = self.shape().as_matrix();
        let (k2, n) = rhs.shape().as_matrix();
        assert_eq!(k, k2, "matmul inner dims: {} vs {}", k, k2);

        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.matmul_flops").add((2 * m * k * n) as u64);
        }
        let mut out = pool::take_zeroed(m * n);
        gemm_ab(&self.data(), &rhs.data(), &mut out, m, k, n);

        let lhs_t = self.clone();
        let rhs_t = rhs.clone();
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            vec![self.clone(), rhs.clone()],
            "matmul",
            Box::new(move |grad| {
                // dA = dC · B^T ; dB = A^T · dC
                if lhs_t.is_grad() {
                    let mut da = pool::take_zeroed(m * k);
                    gemm_abt(grad, &rhs_t.data(), &mut da, m, n, k);
                    lhs_t.accumulate_grad_owned(da);
                }
                if rhs_t.is_grad() {
                    let mut db = pool::take_zeroed(k * n);
                    gemm_atb(&lhs_t.data(), grad, &mut db, m, k, n);
                    rhs_t.accumulate_grad_owned(db);
                }
            }),
        )
    }

    /// Matrix product with a transposed right operand: `[m,k] · [n,k]ᵀ →
    /// [m,n]`, without materializing the transpose. The scorers use this for
    /// the `[B,d]·[d,|V|]` logits product so the item table is consumed in
    /// its natural row-major layout — the `A·Bᵀ` kernel transpose-packs
    /// panels on the fly, which kills the per-call `[|V|,d]` transpose copy
    /// (and its tape node) the old `matmul(items.transpose())` spelling paid.
    ///
    /// Bitwise-identical to `self.matmul(&rhs.transpose())` in forward and
    /// backward: all three kernels reduce over the same index in the same
    /// ascending order, and `f32` multiplication commutes bitwise.
    ///
    /// # Panics
    /// Panics on rank ≠ 2 or mismatched inner dimensions.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(rhs.shape().rank(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = self.shape().as_matrix();
        let (n, k2) = rhs.shape().as_matrix();
        assert_eq!(k, k2, "matmul_nt inner dims: {} vs {}", k, k2);

        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.matmul_flops").add((2 * m * k * n) as u64);
        }
        let mut out = pool::take_zeroed(m * n);
        gemm_abt(&self.data(), &rhs.data(), &mut out, m, k, n);

        let lhs_t = self.clone();
        let rhs_t = rhs.clone();
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            vec![self.clone(), rhs.clone()],
            "matmul_nt",
            Box::new(move |grad| {
                // C = A·Bᵀ ⇒ dA = dC·B ; dB = dCᵀ·A
                if lhs_t.is_grad() {
                    let mut da = pool::take_zeroed(m * k);
                    gemm_ab(grad, &rhs_t.data(), &mut da, m, n, k);
                    lhs_t.accumulate_grad_owned(da);
                }
                if rhs_t.is_grad() {
                    let mut db = pool::take_zeroed(n * k);
                    gemm_atb(grad, &lhs_t.data(), &mut db, m, n, k);
                    rhs_t.accumulate_grad_owned(db);
                }
            }),
        )
    }

    /// [`Tensor::matmul_nt`] against a right operand packed once ahead of
    /// time ([`PackedAbt`]): `[m,k] · [n,k]ᵀ → [m,n]`, every row bitwise-equal
    /// to `matmul_nt` on the unpacked operand at the operand's tier. The
    /// output buffer comes from the pool like any op's.
    ///
    /// Inference-only: the packed operand is a constant, and the result
    /// records no tape (no gradient reaches `self` through it).
    ///
    /// # Panics
    /// Panics on rank ≠ 2 or a reduction length that differs from the
    /// operand's depth.
    pub fn matmul_nt_packed(&self, rhs: &PackedAbt) -> Tensor {
        assert_eq!(
            self.shape().rank(),
            2,
            "matmul_nt_packed lhs must be rank 2"
        );
        let (m, k) = self.shape().as_matrix();
        let n = rhs.rows();
        assert_eq!(
            k,
            rhs.depth(),
            "matmul_nt_packed inner dims: {} vs {}",
            k,
            rhs.depth()
        );
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.matmul_flops").add((2 * m * k * n) as u64);
        }
        let mut out = pool::take_zeroed(m * n);
        rhs.gemm(&self.data(), &mut out, m);
        Tensor::from_op(
            out,
            Shape::new(&[m, n]),
            Vec::new(),
            "matmul_nt_packed",
            Box::new(|_| {}),
        )
    }

    /// Matrix transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "transpose needs rank 2");
        let (m, n) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = d[i * n + j];
            }
        }
        drop(d);
        let parent = self.clone();
        Tensor::from_op(
            out,
            Shape::new(&[n, m]),
            vec![self.clone()],
            "transpose",
            Box::new(move |grad| {
                if parent.is_grad() {
                    let mut g = pool::take_zeroed(m * n);
                    for j in 0..n {
                        for i in 0..m {
                            g[i * n + j] = grad[j * m + i];
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Dot product of two equal-length tensors, returned as a scalar tensor.
    pub fn dot(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        self.reshape(&[1, self.len()])
            .matmul(&rhs.reshape(&[rhs.len(), 1]))
            .reshape(&[1])
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_vec(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[2, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[3, 3]);
        assert_eq!(c.at(2, 0), 7.0); // row [1,1] · col [2,5]
    }

    #[test]
    fn matmul_gradcheck_lhs() {
        let a = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6], &[2, 3]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, 0.25, -0.75], &[3, 2]);
                x.matmul(&b).sum()
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn matmul_gradcheck_rhs() {
        let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], &[2, 2]).requires_grad();
        check_gradient(
            &b,
            |x| {
                let a = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.9], &[2, 2]);
                a.matmul(x).sum()
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn matmul_nt_bitwise_equals_matmul_of_transpose() {
        use crate::Rng;
        let mut rng = Rng::seed_from_u64(29);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 16, 33), (8, 48, 11)] {
            let a_data: Vec<f32> = (0..m * k).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let b_data: Vec<f32> = (0..n * k).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let a1 = Tensor::from_vec(a_data.clone(), &[m, k]).requires_grad();
            let b1 = Tensor::from_vec(b_data.clone(), &[n, k]).requires_grad();
            let a2 = Tensor::from_vec(a_data, &[m, k]).requires_grad();
            let b2 = Tensor::from_vec(b_data, &[n, k]).requires_grad();
            let nt = a1.matmul_nt(&b1);
            let chain = a2.matmul(&b2.transpose());
            let nb: Vec<u32> = nt.to_vec().iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = chain.to_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(nb, cb, "forward diverged at ({m},{k},{n})");

            let w: Vec<f32> = (0..m * n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let wt = Tensor::from_vec(w, &[m, n]);
            nt.mul(&wt).sum().backward();
            chain.mul(&wt).sum().backward();
            for (x, y) in [(&a1, &a2), (&b1, &b2)] {
                let gx: Vec<u32> = x.grad().unwrap().iter().map(|v| v.to_bits()).collect();
                let gy: Vec<u32> = y.grad().unwrap().iter().map(|v| v.to_bits()).collect();
                assert_eq!(gx, gy, "backward diverged at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_nt_gradcheck_both_sides() {
        let a = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6], &[2, 3]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, 0.25, -0.75], &[2, 3]);
                x.matmul_nt(&b).sum()
            },
            1e-3,
            1e-2,
        );
        let b = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], &[2, 2]).requires_grad();
        check_gradient(
            &b,
            |x| {
                let a = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.9], &[2, 2]);
                a.matmul_nt(x).sum()
            },
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = a.transpose().transpose();
        assert_eq!(tt.to_vec(), a.to_vec());
        assert_eq!(a.transpose().shape().dims(), &[3, 2]);
    }

    #[test]
    fn transpose_gradient_flows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]);
        a.transpose().mul(&w).sum().backward();
        // grad of transpose-then-weight is weight transposed back
        assert_close(&a.grad().unwrap(), &[1.0, 0.0, 0.0, 2.0], 1e-6);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_close(&[a.dot(&b).item()], &[32.0], 1e-6);
    }
}
