//! Row gathering, scattering, slicing and concatenation — the structural ops
//! behind embedding lookups and per-node message passing.

use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Gathers rows of a rank-2 tensor by index: `[v, d] × idx[n] -> [n, d]`.
    ///
    /// Backward scatters (index-adds) the incoming gradient back into the
    /// source rows, which is exactly the sparse gradient an embedding matrix
    /// needs.
    ///
    /// # Panics
    /// Panics when any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        assert_eq!(self.shape().rank(), 2, "gather_rows needs rank 2");
        // Timing only — the gather body is untouched, so bitwise suites see
        // identical results whether or not profiling is enabled.
        let watch = embsr_obs::profile::enabled().then(embsr_obs::Stopwatch::start);
        let d = self.data();
        let mut out = pool::take_reserve(indices.len() * cols);
        for &i in indices {
            assert!(i < rows, "gather index {i} out of bounds ({rows} rows)");
            out.extend_from_slice(&d[i * cols..(i + 1) * cols]);
        }
        drop(d);
        if let Some(w) = watch {
            embsr_obs::profile::record("gather_rows", indices.len(), cols, 0, w.elapsed_us(), 0);
        }
        let parent = self.clone();
        let idx: Vec<usize> = indices.to_vec();
        Tensor::from_op(
            out,
            Shape::new(&[indices.len(), cols]),
            vec![self.clone()],
            "gather_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    let mut g = pool::take_zeroed(rows * cols);
                    for (r, &i) in idx.iter().enumerate() {
                        let src = &grad[r * cols..(r + 1) * cols];
                        let dst = &mut g[i * cols..(i + 1) * cols];
                        for (dv, sv) in dst.iter_mut().zip(src) {
                            *dv += sv;
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Sums rows into segments: `[n, d] × owners[n] -> [segments, d]`, where
    /// output row `s` is the sum of the input rows `r` with `owners[r] == s`
    /// (zeros for a segment that owns none). This is the per-node message
    /// aggregation of a graph layer, with `owners` naming each edge's node.
    ///
    /// Each output row starts at `+0.0` and adds its rows in input order —
    /// the exact chain the one-hot product `A·X` (`A[s][r] = 1` iff `owners[r]
    /// == s`) accumulates, since its zero terms add nothing. Backward gives
    /// input row `r` the gradient `0.0 + dY[owners[r]]`, which is what that
    /// product's `Aᵀ·dY` computes. Both directions are therefore bitwise
    /// equal to the dense product, without building or multiplying `A`.
    ///
    /// # Panics
    /// Panics when `owners.len()` differs from the row count or an owner is
    /// out of range.
    pub fn segment_sum(&self, owners: &[usize], segments: usize) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        assert_eq!(self.shape().rank(), 2, "segment_sum needs rank 2");
        assert_eq!(owners.len(), rows, "one owner per row");
        let d = self.data();
        let mut out = pool::take_zeroed(segments * cols);
        for (r, &s) in owners.iter().enumerate() {
            assert!(s < segments, "owner {s} out of range ({segments} segments)");
            let dst = &mut out[s * cols..(s + 1) * cols];
            for (o, &x) in dst.iter_mut().zip(&d[r * cols..(r + 1) * cols]) {
                *o += x;
            }
        }
        drop(d);
        let parent = self.clone();
        let owners: Vec<usize> = owners.to_vec();
        Tensor::from_op(
            out,
            Shape::new(&[segments, cols]),
            vec![self.clone()],
            "segment_sum",
            Box::new(move |grad| {
                if parent.is_grad() {
                    let mut g = pool::take_zeroed(rows * cols);
                    for (r, &s) in owners.iter().enumerate() {
                        let src = &grad[s * cols..(s + 1) * cols];
                        for (dv, &sv) in g[r * cols..(r + 1) * cols].iter_mut().zip(src) {
                            *dv += sv;
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// A single row of a rank-2 tensor as a `[d]` vector.
    pub fn row(&self, index: usize) -> Tensor {
        let cols = self.cols();
        self.gather_rows(&[index]).reshape(&[cols])
    }

    /// Contiguous row slice `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows(), "slice out of range");
        let idx: Vec<usize> = (start..end).collect();
        self.gather_rows(&idx)
    }

    /// Vertically concatenates rank-2 tensors with equal column counts.
    ///
    /// # Panics
    /// Panics on an empty input list or mismatched columns.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols();
        let mut total_rows = 0;
        for p in parts {
            assert_eq!(p.cols(), cols, "concat_rows column mismatch");
            total_rows += p.rows();
        }
        let mut out = pool::take_reserve(total_rows * cols);
        for p in parts {
            out.extend_from_slice(&p.data());
        }
        let owned: Vec<Tensor> = parts.to_vec();
        let row_counts: Vec<usize> = parts.iter().map(Tensor::rows).collect();
        Tensor::from_op(
            out,
            Shape::new(&[total_rows, cols]),
            owned.clone(),
            "concat_rows",
            Box::new(move |grad| {
                let mut offset = 0;
                for (p, &r) in owned.iter().zip(row_counts.iter()) {
                    let span = r * cols;
                    if p.is_grad() {
                        p.accumulate_grad(&grad[offset..offset + span]);
                    }
                    offset += span;
                }
            }),
        )
    }

    /// Horizontally concatenates two tensors row by row:
    /// `[n, a] ++ [n, b] -> [n, a + b]`. Rank-1 inputs are treated as a
    /// single row. This is the `[x ; y]` concatenation from the paper's
    /// message functions (eq. 6) and gates (eq. 11, 18).
    pub fn concat_cols(&self, rhs: &Tensor) -> Tensor {
        // A rank-1 `[d]` operand is a single row here, not a column.
        let row_view = |t: &Tensor| match t.shape().rank() {
            1 => (1, t.len()),
            _ => t.shape().as_matrix(),
        };
        let (n1, a) = row_view(self);
        let (n2, b) = row_view(rhs);
        assert_eq!(n1, n2, "concat_cols row mismatch: {n1} vs {n2}");
        let la = self.data();
        let lb = rhs.data();
        let mut out = pool::take_reserve(n1 * (a + b));
        for r in 0..n1 {
            out.extend_from_slice(&la[r * a..(r + 1) * a]);
            out.extend_from_slice(&lb[r * b..(r + 1) * b]);
        }
        drop(la);
        drop(lb);
        let keep_rank1 = self.shape().rank() == 1 && rhs.shape().rank() == 1;
        let shape = if keep_rank1 {
            Shape::new(&[a + b])
        } else {
            Shape::new(&[n1, a + b])
        };
        let lt = self.clone();
        let rt = rhs.clone();
        Tensor::from_op(
            out,
            shape,
            vec![self.clone(), rhs.clone()],
            "concat_cols",
            Box::new(move |grad| {
                if lt.is_grad() {
                    let mut g = pool::take_zeroed(n1 * a);
                    for r in 0..n1 {
                        g[r * a..(r + 1) * a]
                            .copy_from_slice(&grad[r * (a + b)..r * (a + b) + a]);
                    }
                    lt.accumulate_grad_owned(g);
                }
                if rt.is_grad() {
                    let mut g = pool::take_zeroed(n1 * b);
                    for r in 0..n1 {
                        g[r * b..(r + 1) * b]
                            .copy_from_slice(&grad[r * (a + b) + a..(r + 1) * (a + b)]);
                    }
                    rt.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Stacks `[d]` vectors into an `[n, d]` matrix.
    pub fn stack_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows of nothing");
        let d = parts[0].len();
        let reshaped: Vec<Tensor> = parts
            .iter()
            .map(|p| {
                assert_eq!(p.len(), d, "stack_rows length mismatch");
                p.reshape(&[1, d])
            })
            .collect();
        Tensor::concat_rows(&reshaped)
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::assert_close;
    use crate::Tensor;

    #[test]
    fn gather_rows_selects_and_repeats() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_rows_backward_scatters_with_accumulation() {
        let m = Tensor::zeros(&[3, 2]).requires_grad();
        // row 1 used twice: its gradient must be the sum of both uses.
        m.gather_rows(&[1, 1, 0]).sum().backward();
        assert_close(&m.grad().unwrap(), &[1.0, 1.0, 2.0, 2.0, 0.0, 0.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_bounds_checked() {
        let m = Tensor::zeros(&[2, 2]);
        let _ = m.gather_rows(&[5]);
    }

    #[test]
    fn concat_rows_roundtrip_gradients() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).requires_grad();
        let c = Tensor::concat_rows(&[a.clone(), b.clone()]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]);
        c.mul(&w).sum().backward();
        assert_close(&a.grad().unwrap(), &[1.0, 1.0], 1e-6);
        assert_close(&b.grad().unwrap(), &[2.0, 2.0, 3.0, 3.0], 1e-6);
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn concat_cols_gradients_split_correctly() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0], &[1, 1]).requires_grad();
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        a.concat_cols(&b).mul(&w).sum().backward();
        assert_close(&a.grad().unwrap(), &[10.0, 20.0], 1e-6);
        assert_close(&b.grad().unwrap(), &[30.0], 1e-6);
    }

    #[test]
    fn concat_cols_of_vectors_stays_rank1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0], &[1]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape().dims(), &[3]);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let m = Tensor::stack_rows(&[a, b]);
        assert_eq!(m.shape().dims(), &[2, 2]);
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    fn segment_sum_equals_the_one_hot_product_bitwise_at_every_tier() {
        use crate::kernels::{with_tier, KernelTier};
        let mut rng = crate::Rng::seed_from_u64(3);
        // Owners repeat, skip segment 2, and arrive out of order; the data
        // holds signed zeros so the `+0.0` start is exercised.
        let owners = [1usize, 0, 3, 1, 1, 4, 0];
        let (n, segments, cols) = (owners.len(), 5, 6);
        let mut data: Vec<f32> = (0..n * cols)
            .map(|_| rng.uniform_range(-2.0, 2.0))
            .collect();
        data[3] = -0.0;
        data[cols + 2] = 0.0;
        let mut onehot = vec![0.0f32; segments * n];
        for (r, &s) in owners.iter().enumerate() {
            onehot[s * n + r] = 1.0;
        }
        let mut upstream: Vec<f32> = (0..segments * cols)
            .map(|_| rng.uniform_range(-1.0, 1.0))
            .collect();
        upstream[4] = -0.0;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for tier in [KernelTier::Packed, KernelTier::Simd] {
            with_tier(tier, || {
                let x1 = Tensor::from_vec(data.clone(), &[n, cols]).requires_grad();
                let x2 = Tensor::from_vec(data.clone(), &[n, cols]).requires_grad();
                let summed = x1.segment_sum(&owners, segments);
                let dense = Tensor::from_vec(onehot.clone(), &[segments, n]).matmul(&x2);
                assert_eq!(summed.shape().dims(), &[segments, cols]);
                assert_eq!(
                    bits(&summed.to_vec()),
                    bits(&dense.to_vec()),
                    "{tier:?} forward"
                );
                let w = Tensor::from_vec(upstream.clone(), &[segments, cols]);
                summed.mul(&w).sum().backward();
                dense.mul(&w).sum().backward();
                assert_eq!(
                    bits(&x1.grad().unwrap()),
                    bits(&x2.grad().unwrap()),
                    "{tier:?} backward"
                );
            });
        }
    }

    #[test]
    fn segment_sum_of_no_rows_is_zero() {
        let x = Tensor::zeros(&[0, 3]);
        assert_eq!(x.segment_sum(&[], 2).to_vec(), vec![0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_sum_owner_bounds_checked() {
        let _ = Tensor::zeros(&[1, 2]).segment_sum(&[2], 2);
    }

    #[test]
    fn row_and_slice_rows() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(m.row(1).to_vec(), vec![3.0, 4.0]);
        assert_eq!(m.slice_rows(1, 3).shape().dims(), &[2, 2]);
    }
}
