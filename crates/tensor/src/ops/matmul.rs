//! Dense matrix products and transposition.
//!
//! The four taped products — [`Tensor::matmul`], [`Tensor::matmul_nt`],
//! [`Tensor::bmm`] and [`Tensor::bmm_nt`] — share one body: `b` independent
//! products stored back to back (`b = 1` for the 2-D ops), each one kernel
//! call into [`crate::kernels`], forward and backward. The kernels run every
//! layout (`A·B` forward, `A·Bᵀ` / `Aᵀ·B` backward) on the packed,
//! register-tiled micro-kernels; one-hot and gather-style inputs never reach
//! dense matmul in this codebase (embedding lookups use the dedicated
//! `gather_rows` indexed path), so no sparse fallback is kept.

use crate::kernels::{gemm_ab, gemm_abt, gemm_atb, PackedAbt};
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
        self.product(rhs, "matmul", false, [1, m, k, n], Shape::new(&[m, n]))
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
        self.product(rhs, "matmul_nt", true, [1, m, k, n], Shape::new(&[m, n]))
    }

    /// Batched matrix product: `[b,m,k] · [b,k,n] → [b,m,n]`, one kernel call
    /// per batch entry. Collapses the per-head / per-step matmul loops in the
    /// attention and recurrent layers into a single graph node.
    ///
    /// # Panics
    /// Panics on rank ≠ 3 or mismatched batch/inner dimensions.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 3, "bmm lhs must be rank 3");
        assert_eq!(rhs.shape().rank(), 3, "bmm rhs must be rank 3");
        let (b, m, k) = (self.shape().dims()[0], self.shape().dims()[1], self.shape().dims()[2]);
        let (b2, k2, n) = (rhs.shape().dims()[0], rhs.shape().dims()[1], rhs.shape().dims()[2]);
        assert_eq!(b, b2, "bmm batch dims: {} vs {}", b, b2);
        assert_eq!(k, k2, "bmm inner dims: {} vs {}", k, k2);
        self.product(rhs, "bmm", false, [b, m, k, n], Shape::new(&[b, m, n]))
    }

    /// Batched matrix product with a transposed right operand:
    /// `[b,m,k] · [b,n,k]ᵀ → [b,m,n]`. The attention score pass
    /// (`Q·Kᵀ`) uses this to avoid materializing transposed key matrices.
    ///
    /// # Panics
    /// Panics on rank ≠ 3 or mismatched batch/inner dimensions.
    pub fn bmm_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 3, "bmm_nt lhs must be rank 3");
        assert_eq!(rhs.shape().rank(), 3, "bmm_nt rhs must be rank 3");
        let (b, m, k) = (self.shape().dims()[0], self.shape().dims()[1], self.shape().dims()[2]);
        let (b2, n, k2) = (rhs.shape().dims()[0], rhs.shape().dims()[1], rhs.shape().dims()[2]);
        assert_eq!(b, b2, "bmm_nt batch dims: {} vs {}", b, b2);
        assert_eq!(k, k2, "bmm_nt inner dims: {} vs {}", k, k2);
        self.product(rhs, "bmm_nt", true, [b, m, k, n], Shape::new(&[b, m, n]))
    }

    /// The taped body of the four products: `b` independent products of
    /// `A[m,k]` with `B[k,n]` — or, when `nt`, with `B[n,k]ᵀ` — stored back to
    /// back in `shape`, recorded as one `op` node. Backward runs dA's kernel
    /// calls before dB's.
    fn product(
        &self,
        rhs: &Tensor,
        op: &'static str,
        nt: bool,
        [b, m, k, n]: [usize; 4],
        shape: Shape,
    ) -> Tensor {
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("tensor.matmul_flops").add((2 * b * m * k * n) as u64);
        }
        // Per-entry lengths of A, B and C.
        let (la, lb, lc) = (m * k, k * n, m * n);
        let mut out = pool::take_zeroed(b * lc);
        {
            let (ad, bd) = (self.data(), rhs.data());
            for i in 0..b {
                let (a, w) = (&ad[i * la..(i + 1) * la], &bd[i * lb..(i + 1) * lb]);
                let c = &mut out[i * lc..(i + 1) * lc];
                if nt {
                    gemm_abt(a, w, c, m, k, n);
                } else {
                    gemm_ab(a, w, c, m, k, n);
                }
            }
        }

        let lhs_t = self.clone();
        let rhs_t = rhs.clone();
        Tensor::from_op(
            out,
            shape,
            vec![self.clone(), rhs.clone()],
            op,
            Box::new(move |grad| {
                // C = A·B  ⇒ dA = dC·Bᵀ ; dB = Aᵀ·dC
                // C = A·Bᵀ ⇒ dA = dC·B  ; dB = dCᵀ·A
                if lhs_t.is_grad() {
                    let mut da = pool::take_zeroed(b * la);
                    let bd = rhs_t.data();
                    for i in 0..b {
                        let (g, w) = (&grad[i * lc..(i + 1) * lc], &bd[i * lb..(i + 1) * lb]);
                        let d = &mut da[i * la..(i + 1) * la];
                        if nt {
                            gemm_ab(g, w, d, m, n, k);
                        } else {
                            gemm_abt(g, w, d, m, n, k);
                        }
                    }
                    drop(bd);
                    lhs_t.accumulate_grad_owned(da);
                }
                if rhs_t.is_grad() {
                    let mut db = pool::take_zeroed(b * lb);
                    let ad = lhs_t.data();
                    for i in 0..b {
                        let (g, a) = (&grad[i * lc..(i + 1) * lc], &ad[i * la..(i + 1) * la]);
                        let d = &mut db[i * lb..(i + 1) * lb];
                        if nt {
                            gemm_atb(g, a, d, m, n, k);
                        } else {
                            gemm_atb(a, g, d, m, k, n);
                        }
                    }
                    drop(ad);
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
    use crate::{Rng, Tensor};

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

    fn rand_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = Rng::seed_from_u64(7);
        let (b, m, k, n) = (3, 4, 5, 6);
        let a = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]);
        let w = Tensor::from_vec(rand_vec(&mut rng, b * k * n), &[b, k, n]);
        let out = a.bmm(&w);
        assert_eq!(out.shape().dims(), &[b, m, n]);
        let ad = a.data();
        let wd = w.data();
        for bi in 0..b {
            let am = Tensor::from_vec(ad[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let wm = Tensor::from_vec(wd[bi * k * n..(bi + 1) * k * n].to_vec(), &[k, n]);
            let expect = am.matmul(&wm);
            assert_close(
                &out.to_vec()[bi * m * n..(bi + 1) * m * n],
                &expect.to_vec(),
                0.0,
            );
        }
    }

    #[test]
    fn bmm_nt_matches_manual_transpose() {
        let mut rng = Rng::seed_from_u64(11);
        let (b, m, k, n) = (2, 3, 4, 5);
        let a = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]);
        let w = Tensor::from_vec(rand_vec(&mut rng, b * n * k), &[b, n, k]);
        let out = a.bmm_nt(&w);
        let ad = a.data();
        let wd = w.data();
        for bi in 0..b {
            let am = Tensor::from_vec(ad[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let wm = Tensor::from_vec(wd[bi * n * k..(bi + 1) * n * k].to_vec(), &[n, k]);
            let expect = am.matmul(&wm.transpose());
            assert_close(
                &out.to_vec()[bi * m * n..(bi + 1) * m * n],
                &expect.to_vec(),
                1e-6,
            );
        }
    }

    #[test]
    fn bmm_gradcheck_both_sides() {
        let mut rng = Rng::seed_from_u64(1337);
        let (b, m, k, n) = (2, 2, 3, 2);
        let lhs = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]).requires_grad();
        let fixed_r = Tensor::from_vec(rand_vec(&mut rng, b * k * n), &[b, k, n]);
        check_gradient(&lhs, |x| x.bmm(&fixed_r).sum(), 1e-3, 1e-2);

        let rhs = Tensor::from_vec(rand_vec(&mut rng, b * k * n), &[b, k, n]).requires_grad();
        let fixed_l = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]);
        check_gradient(&rhs, |x| fixed_l.bmm(x).sum(), 1e-3, 1e-2);
    }

    #[test]
    fn bmm_nt_gradcheck_both_sides() {
        let mut rng = Rng::seed_from_u64(1337);
        let (b, m, k, n) = (2, 3, 2, 2);
        let lhs = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]).requires_grad();
        let fixed_r = Tensor::from_vec(rand_vec(&mut rng, b * n * k), &[b, n, k]);
        check_gradient(&lhs, |x| x.bmm_nt(&fixed_r).sum(), 1e-3, 1e-2);

        let rhs = Tensor::from_vec(rand_vec(&mut rng, b * n * k), &[b, n, k]).requires_grad();
        let fixed_l = Tensor::from_vec(rand_vec(&mut rng, b * m * k), &[b, m, k]);
        check_gradient(&rhs, |x| fixed_l.bmm_nt(x).sum(), 1e-3, 1e-2);
    }
}
