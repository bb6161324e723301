//! Normalizations: row-wise softmax, layer normalization and L2
//! normalization (eq. 15, 19 of the paper and the attention block's LN).

use crate::pool;
use crate::tensor::Tensor;

impl Tensor {
    /// Row-wise softmax of a rank-2 tensor (a rank-1 tensor is treated as a
    /// single row). Numerically stabilized by max subtraction.
    ///
    /// Under `inference_mode` with the simd kernel tier active, dispatches
    /// to the fused single-pass kernel (see `ops::fused`) — epsilon-close,
    /// rank-preserving, no tape or backward-buffer copies. Every other
    /// caller (training, eval, packed-tier serving) stays on the bitwise
    /// three-pass path below.
    pub fn softmax_rows(&self) -> Tensor {
        if super::fused::use_fused_softmax() {
            return self.softmax_rows_fused();
        }
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        for r in 0..rows {
            let row = &d[r * cols..(r + 1) * cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = (x - max).exp();
                sum += *o;
            }
            for o in &mut out[r * cols..(r + 1) * cols] {
                *o /= sum;
            }
        }
        drop(d);
        let saved = pool::guard_copy(&out);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "softmax_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    // dx_i = y_i * (g_i - sum_j g_j y_j), per row.
                    let mut g = pool::take_zeroed(rows * cols);
                    for r in 0..rows {
                        let y = &saved[r * cols..(r + 1) * cols];
                        let go = &grad[r * cols..(r + 1) * cols];
                        let dot: f32 = y.iter().zip(go).map(|(&a, &b)| a * b).sum();
                        for c in 0..cols {
                            g[r * cols + c] = y[c] * (go[c] - dot);
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Row-wise log-softmax, the numerically stable front half of
    /// cross-entropy.
    pub fn log_softmax_rows(&self) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        for r in 0..rows {
            let row = &d[r * cols..(r + 1) * cols];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let logsum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = x - logsum;
            }
        }
        drop(d);
        let saved = pool::guard_copy(&out);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "log_softmax_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    // dx = g - softmax(x) * sum(g), per row.
                    let mut g = pool::take_zeroed(rows * cols);
                    for r in 0..rows {
                        let ls = &saved[r * cols..(r + 1) * cols];
                        let go = &grad[r * cols..(r + 1) * cols];
                        let gsum: f32 = go.iter().sum();
                        for c in 0..cols {
                            g[r * cols + c] = go[c] - ls[c].exp() * gsum;
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Row-wise layer normalization (no affine part; compose with learned
    /// gamma/beta in the `nn` crate).
    pub fn layer_norm_rows(&self, eps: f32) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        let mut inv_stds = pool::take_zeroed(rows);
        for r in 0..rows {
            let row = &d[r * cols..(r + 1) * cols];
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            inv_stds[r] = inv_std;
            for (o, &x) in out[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = (x - mean) * inv_std;
            }
        }
        drop(d);
        let saved_y = pool::guard_copy(&out);
        let inv_stds = pool::guard(inv_stds);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "layer_norm_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    // dx = inv_std / N * (N*g - sum(g) - y * sum(g*y))
                    let n = cols as f32;
                    let mut g = pool::take_zeroed(rows * cols);
                    for r in 0..rows {
                        let y = &saved_y[r * cols..(r + 1) * cols];
                        let go = &grad[r * cols..(r + 1) * cols];
                        let sum_g: f32 = go.iter().sum();
                        let sum_gy: f32 = go.iter().zip(y).map(|(&a, &b)| a * b).sum();
                        let s = inv_stds[r] / n;
                        for c in 0..cols {
                            g[r * cols + c] = s * (n * go[c] - sum_g - y[c] * sum_gy);
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Row-wise L2 normalization `x / max(‖x‖₂, eps)` — the `L2Norm` of the
    /// paper's prediction layer (eq. 19, following NISER).
    pub fn l2_normalize_rows(&self, eps: f32) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        let mut norms = pool::take_zeroed(rows);
        for r in 0..rows {
            norms[r] = l2_normalize_row(
                &d[r * cols..(r + 1) * cols],
                &mut out[r * cols..(r + 1) * cols],
                eps,
            );
        }
        drop(d);
        let saved_y = pool::guard_copy(&out);
        let norms = pool::guard(norms);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "l2_normalize_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    // dx = (g - y * (g·y)) / ‖x‖
                    let mut g = pool::take_zeroed(rows * cols);
                    for r in 0..rows {
                        let y = &saved_y[r * cols..(r + 1) * cols];
                        let go = &grad[r * cols..(r + 1) * cols];
                        let dot: f32 = go.iter().zip(y).map(|(&a, &b)| a * b).sum();
                        for c in 0..cols {
                            g[r * cols + c] = (go[c] - y[c] * dot) / norms[r];
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Softmax over a rank-1 tensor (single attention row).
    pub fn softmax(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 1, "softmax() expects rank 1");
        let n = self.len();
        self.reshape(&[1, n]).softmax_rows().reshape(&[n])
    }
}

/// Non-autograd helper: softmax over a plain slice, used by inference-only
/// scorers and the evaluation crate.
pub fn softmax_slice(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// One row of [`Tensor::l2_normalize_rows`]: writes `row / max(‖row‖₂, eps)`
/// into `out` and returns the clamped norm. Shared with callers that build a
/// normalized table outside the tape (the serving logits head packs its item
/// table through it), so both produce the same bits.
pub fn l2_normalize_row(row: &[f32], out: &mut [f32], eps: f32) -> f32 {
    debug_assert_eq!(row.len(), out.len());
    let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(eps);
    for (o, &x) in out.iter_mut().zip(row) {
        *o = x / norm;
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::softmax_slice;
    use crate::testing::{assert_close, check_gradient};
    use crate::Tensor;

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let y = a.softmax_rows();
        let v = y.to_vec();
        assert_close(&[v[0] + v[1] + v[2]], &[1.0], 1e-6);
        assert_close(&[v[3], v[4], v[5]], &[1.0 / 3.0; 3], 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0], &[2]);
        let y = a.softmax().to_vec();
        assert!(y.iter().all(|v| v.is_finite()));
        assert_close(&[y[0] + y[1]], &[1.0], 1e-6);
    }

    #[test]
    fn softmax_gradcheck() {
        let a = Tensor::from_vec(vec![0.1, -0.4, 0.9, 0.3], &[2, 2]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]);
                x.softmax_rows().mul(&w).sum()
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = Tensor::from_vec(vec![0.3, -1.2, 2.2], &[1, 3]);
        let ls = a.log_softmax_rows().to_vec();
        let s = a.softmax_rows().to_vec();
        for (l, p) in ls.iter().zip(s.iter()) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_gradcheck() {
        let a = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[1, 3]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let w = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]);
                x.log_softmax_rows().mul(&w).sum()
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = a.layer_norm_rows(1e-5).to_vec();
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert_close(&[mean], &[0.0], 1e-5);
        assert_close(&[var], &[1.0], 1e-3);
    }

    #[test]
    fn layer_norm_gradcheck() {
        let a = Tensor::from_vec(vec![0.2, 1.4, -0.8, 0.6], &[1, 4]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
                x.layer_norm_rows(1e-5).mul(&w).sum()
            },
            1e-3,
            5e-2,
        );
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let y = a.l2_normalize_rows(1e-12).to_vec();
        assert_close(&y, &[0.6, 0.8], 1e-6);
    }

    #[test]
    fn l2_normalize_gradcheck() {
        let a = Tensor::from_vec(vec![0.7, -1.1, 0.4], &[1, 3]).requires_grad();
        check_gradient(
            &a,
            |x| {
                let w = Tensor::from_vec(vec![1.0, 2.0, -1.0], &[1, 3]);
                x.l2_normalize_rows(1e-12).mul(&w).sum()
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn softmax_slice_helper() {
        let mut v = vec![0.0, 0.0];
        softmax_slice(&mut v);
        assert_close(&v, &[0.5, 0.5], 1e-6);
    }
}
