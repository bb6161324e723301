//! Fused ops for the serving hot path.
// `x * -1.0` mirrors the taped `one_minus` op literally so a reader can
// match the fused chain against the op-by-op one (the rounding is the
// same either way — IEEE negation is exact).
#![allow(clippy::neg_multiply)]
//!
//! The fusions here fall into two equivalence contracts:
//!
//! * [`Tensor::normalize_scale_rows`] fuses `l2_normalize_rows(eps)` +
//!   `mul_scalar(scale)` — the session side of the cosine logits head
//!   (`embsr_train::Scorer::Cosine`, the paper's eq. 19) — into
//!   one graph node and one data pass. It is **bitwise-identical** to the
//!   two-op chain in both forward and backward (every intermediate rounding
//!   is replicated in the same order), so training and the golden trajectory
//!   can use it directly.
//! * [`fused_softmax_rows`] / the `softmax_rows` inference dispatch is a
//!   single-pass, lane-accumulated softmax that skips the tape bookkeeping
//!   and the backward-buffer copy of the training op. Lane-parallel max is
//!   still exact (`max` is associative and the path never sees NaN), but the
//!   lane-split sum and the multiply-by-reciprocal normalization reassociate
//!   the reduction — **epsilon-bounded**, not bitwise, which is why it only
//!   runs under `inference_mode` *and* the simd kernel tier. `exp` itself
//!   stays a scalar libm call: softmax is a per-row monotone transform, so
//!   metric identity (Hit@20/MRR@20) is preserved by construction, and the
//!   win here is the removed passes and copies, not the transcendental.
//! * [`gru_step_fused`] (and its lockstep-batched sibling
//!   [`gru_step_fused_masked`]) collapses the ten elementwise ops of a GRU
//!   gate chain into one pass. Like `normalize_scale_rows` it is **bitwise**
//!   faithful (every intermediate rounding of the op-by-op chain is
//!   replicated in order), but it has no backward, so it is dispatched on
//!   `inference_mode` alone — safe even for the trainer's evaluation loop,
//!   which sees identical bits either way.
//! * [`gated_update_gates`] / [`gated_update_combine`] (GGNN gated update),
//!   [`gated_blend`] (highway and fusion-gate convex blends), and
//!   [`star_blend`] (star-gate blend, which also skips two rank-one
//!   broadcast GEMMs whose `1.0·x` rows are exact) follow the same
//!   contract as `gru_step_fused`: bitwise-identical forward, no backward,
//!   `inference_mode`-only dispatch.

use crate::ops::kernels::{active_tier, KernelTier};
use crate::pool;
use crate::tensor::Tensor;

/// Lane count for the fused softmax accumulators; eight `f32`s fill one
/// 256-bit register and autovectorize cleanly on every tier-relevant target.
pub const SOFTMAX_LANES: usize = 8;

/// In-place fused softmax over `rows` rows of `cols` contiguous values:
/// lane-parallel max, one exp+accumulate sweep, reciprocal scaling.
pub fn fused_softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(data.len(), rows * cols);
    for r in 0..rows {
        fused_softmax_row(&mut data[r * cols..(r + 1) * cols]);
    }
}

fn fused_softmax_row(row: &mut [f32]) {
    // Pass 1: max. Lane-splitting a max is exact — no rounding, order-free.
    let mut lane_max = [f32::NEG_INFINITY; SOFTMAX_LANES];
    let mut chunks = row.chunks_exact(SOFTMAX_LANES);
    for c in chunks.by_ref() {
        for j in 0..SOFTMAX_LANES {
            lane_max[j] = lane_max[j].max(c[j]);
        }
    }
    let mut max = f32::NEG_INFINITY;
    for &v in &lane_max {
        max = max.max(v);
    }
    for &x in chunks.remainder() {
        max = max.max(x);
    }

    // Pass 2: exp and lane-accumulated sum in one sweep over the row.
    let mut lane_sum = [0.0f32; SOFTMAX_LANES];
    let mut chunks = row.chunks_exact_mut(SOFTMAX_LANES);
    for c in chunks.by_ref() {
        for j in 0..SOFTMAX_LANES {
            c[j] = (c[j] - max).exp();
            lane_sum[j] += c[j];
        }
    }
    let mut sum = 0.0f32;
    for &v in &lane_sum {
        sum += v;
    }
    for x in chunks.into_remainder() {
        *x = (*x - max).exp();
        sum += *x;
    }

    // Pass 3: one division, then multiplies (the training op divides per
    // element; the reciprocal is the epsilon-tier trade).
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// True when `softmax_rows` should take the fused path: tape recording is
/// off *and* the calling thread opted into the simd kernel tier. Keying on
/// `inference_mode` alone would reroute the trainer's evaluation loop and
/// break its bitwise golden trajectory.
pub(crate) fn use_fused_softmax() -> bool {
    crate::inference::is_inference() && active_tier() == KernelTier::Simd
}

impl Tensor {
    /// Inference-only fused softmax; values are epsilon-equivalent to
    /// [`Tensor::softmax_rows`]. Only reachable through the `softmax_rows`
    /// dispatch under [`use_fused_softmax`], so no backward is ever built.
    pub(crate) fn softmax_rows_fused(&self) -> Tensor {
        debug_assert!(
            crate::inference::is_inference(),
            "fused softmax has no backward; it must stay inference-only"
        );
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        out.copy_from_slice(&d);
        drop(d);
        fused_softmax_rows(&mut out, rows, cols);
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "softmax_rows",
            // Unreachable: the dispatch guarantees inference mode, where
            // `from_op` drops parents and never builds a tape node.
            Box::new(move |_grad| {}),
        )
    }

    /// Fused `l2_normalize_rows(eps)` followed by `mul_scalar(scale)`:
    /// `y = scale · x / max(‖x‖₂, eps)` per row, one graph node, one pass.
    ///
    /// Bitwise-identical to the unfused chain: the row norm uses the same
    /// sequential `Σx²` reduction, each element is divided by the norm and
    /// *then* multiplied by `scale` (two roundings, same order), and the
    /// backward materializes `g·scale` first exactly as `mul_scalar`'s
    /// backward would before feeding the normalization gradient. The scorer
    /// swap to this op therefore leaves the golden trajectory unchanged.
    pub fn normalize_scale_rows(&self, eps: f32, scale: f32) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        let d = self.data();
        let mut out = pool::take_zeroed(rows * cols);
        let mut y1 = pool::take_zeroed(rows * cols);
        let mut norms = pool::take_zeroed(rows);
        for r in 0..rows {
            let row = &d[r * cols..(r + 1) * cols];
            let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(eps);
            norms[r] = norm;
            for (c, &x) in row.iter().enumerate() {
                let y = x / norm;
                y1[r * cols + c] = y;
                out[r * cols + c] = y * scale;
            }
        }
        drop(d);
        let saved_y1 = pool::guard(y1);
        let norms = pool::guard(norms);
        let parent = self.clone();
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            "normalize_scale_rows",
            Box::new(move |grad| {
                if parent.is_grad() {
                    // Chain backward, replicated rounding-for-rounding:
                    // g1 = g·scale (mul_scalar), then
                    // dx = (g1 - y1·(g1·y1)) / ‖x‖ (l2_normalize_rows).
                    let mut g = pool::take_zeroed(rows * cols);
                    for r in 0..rows {
                        let y = &saved_y1[r * cols..(r + 1) * cols];
                        let go = &grad[r * cols..(r + 1) * cols];
                        let dot: f32 = go.iter().zip(y).map(|(&a, &b)| (a * scale) * b).sum();
                        for c in 0..cols {
                            g[r * cols + c] = (go[c] * scale - y[c] * dot) / norms[r];
                        }
                    }
                    parent.accumulate_grad_owned(g);
                }
            }),
        )
    }
}

/// Scalar logistic sigmoid, the exact expression of [`Tensor::sigmoid`].
#[inline(always)]
fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Fused GRU gate chain for inference:
///
/// ```text
/// r  = σ((gx_r + hu_r) + b_r)
/// z  = σ((gx_z + hu_z) + b_z)
/// n  = tanh((gx_n + r ⊙ hu_n) + b_n)
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// `gx_*` are the input projections `x·W_*`, `hu_*` the recurrent
/// projections `h·U_*` (all `[rows, hidden]`), `b_*` the biases
/// (`[hidden]`, row-broadcast), `h` the previous state.
///
/// Bitwise-identical to the op-by-op chain in `Gru::step_projected`: each
/// line rounds at exactly the points the separate `add`/`mul`/`sigmoid`/
/// `tanh`/`one_minus` ops would (note `1 − z` is computed as
/// `(z · −1) + 1`, mirroring `one_minus`, though both round identically),
/// and Rust never contracts `a*b + c` into an FMA. The win is purely the
/// removed tape bookkeeping and the ~ten intermediate `[1, hidden]`
/// allocations per step — the dominant non-GEMM cost in serving.
///
/// No backward exists, so this must only be called under `inference_mode`;
/// callers dispatch on `is_inference()`.
#[allow(clippy::too_many_arguments)] // mirrors the 10-operand GRU gate chain
pub fn gru_step_fused(
    gx_r: &Tensor,
    gx_z: &Tensor,
    gx_n: &Tensor,
    hu_r: &Tensor,
    hu_z: &Tensor,
    hu_n: &Tensor,
    b_r: &Tensor,
    b_z: &Tensor,
    b_n: &Tensor,
    h: &Tensor,
) -> Tensor {
    gru_step_impl(gx_r, gx_z, gx_n, hu_r, hu_z, hu_n, b_r, b_z, b_n, h, None)
}

/// [`gru_step_fused`] over a batch of independent sequences advancing in
/// lockstep: row `i` of every operand belongs to sequence `i`, and rows with
/// `active[i] == false` (sequences already past their last element) copy the
/// previous state through unchanged. Active rows compute exactly the single-
/// row chain — each output element only ever reads its own row — so batching
/// changes no bits; it exists so a time step costs one `[n, d]`-shaped GEMM
/// per gate instead of `n` one-row GEMMs.
#[allow(clippy::too_many_arguments)] // mirrors the 10-operand GRU gate chain
pub fn gru_step_fused_masked(
    gx_r: &Tensor,
    gx_z: &Tensor,
    gx_n: &Tensor,
    hu_r: &Tensor,
    hu_z: &Tensor,
    hu_n: &Tensor,
    b_r: &Tensor,
    b_z: &Tensor,
    b_n: &Tensor,
    h: &Tensor,
    active: &[bool],
) -> Tensor {
    gru_step_impl(gx_r, gx_z, gx_n, hu_r, hu_z, hu_n, b_r, b_z, b_n, h, Some(active))
}

#[allow(clippy::too_many_arguments)]
fn gru_step_impl(
    gx_r: &Tensor,
    gx_z: &Tensor,
    gx_n: &Tensor,
    hu_r: &Tensor,
    hu_z: &Tensor,
    hu_n: &Tensor,
    b_r: &Tensor,
    b_z: &Tensor,
    b_n: &Tensor,
    h: &Tensor,
    active: Option<&[bool]>,
) -> Tensor {
    debug_assert!(
        crate::inference::is_inference(),
        "fused GRU step has no backward; it must stay inference-only"
    );
    let (rows, cols) = h.shape().as_matrix();
    debug_assert_eq!(gx_r.shape().as_matrix(), (rows, cols));
    debug_assert_eq!(hu_r.shape().as_matrix(), (rows, cols));
    debug_assert_eq!(b_r.len(), cols);
    if let Some(a) = active {
        debug_assert_eq!(a.len(), rows);
    }
    let (gxr, gxz, gxn) = (gx_r.data(), gx_z.data(), gx_n.data());
    let (hur, huz, hun) = (hu_r.data(), hu_z.data(), hu_n.data());
    let (br, bz, bn) = (b_r.data(), b_z.data(), b_n.data());
    let hd = h.data();
    let mut out = pool::take_zeroed(rows * cols);
    for (i, o) in out.iter_mut().enumerate() {
        if let Some(a) = active {
            if !a[i / cols] {
                *o = hd[i];
                continue;
            }
        }
        let j = i % cols;
        let r = sigmoid_scalar((gxr[i] + hur[i]) + br[j]);
        let z = sigmoid_scalar((gxz[i] + huz[i]) + bz[j]);
        let n = ((gxn[i] + r * hun[i]) + bn[j]).tanh();
        *o = ((z * -1.0) + 1.0) * n + z * hd[i];
    }
    drop((gxr, gxz, gxn, hur, huz, hun, br, bz, bn, hd));
    Tensor::from_op(
        out,
        h.shape().clone(),
        vec![gx_r.clone(), gx_z.clone(), gx_n.clone(), h.clone()],
        "gru_step",
        // Unreachable: inference mode drops parents and never builds a tape
        // node, and the debug assertion above keeps the op off taped paths.
        Box::new(move |_grad| {}),
    )
}

/// Fused gate half of the GGNN-style update (paper eq. 8): given the four
/// GEMM outputs `zx = a·W_z`, `zh = e·U_z`, `rx = a·W_r`, `rh = e·U_r` and
/// the previous embeddings `e` (all `[c, d]`), returns
/// `(z, r ⊙ e)` where `z = σ(zx + zh)` and `r = σ(rx + rh)`.
///
/// The update cannot fuse end to end — `r ⊙ e` feeds another GEMM before the
/// candidate — so it splits into this pass and [`gated_update_combine`].
/// Both replicate the op-by-op scalar chains rounding for rounding
/// (**bitwise**, like [`gru_step_fused`]) and have no backward, so they are
/// inference-only.
pub fn gated_update_gates(
    zx: &Tensor,
    zh: &Tensor,
    rx: &Tensor,
    rh: &Tensor,
    prev: &Tensor,
) -> (Tensor, Tensor) {
    debug_assert!(
        crate::inference::is_inference(),
        "fused gated update has no backward; it must stay inference-only"
    );
    let n = prev.len();
    debug_assert!(zx.len() == n && zh.len() == n && rx.len() == n && rh.len() == n);
    let (zxd, zhd, rxd, rhd) = (zx.data(), zh.data(), rx.data(), rh.data());
    let pd = prev.data();
    let mut z_out = pool::take_zeroed(n);
    let mut rp_out = pool::take_zeroed(n);
    for i in 0..n {
        z_out[i] = sigmoid_scalar(zxd[i] + zhd[i]);
        rp_out[i] = sigmoid_scalar(rxd[i] + rhd[i]) * pd[i];
    }
    drop((zxd, zhd, rxd, rhd, pd));
    let z = Tensor::from_op(
        z_out,
        prev.shape().clone(),
        vec![zx.clone(), zh.clone()],
        "gated_update_gates",
        Box::new(move |_grad| {}),
    );
    let rp = Tensor::from_op(
        rp_out,
        prev.shape().clone(),
        vec![rx.clone(), rh.clone(), prev.clone()],
        "gated_update_gates",
        Box::new(move |_grad| {}),
    );
    (z, rp)
}

/// Fused combine half of the GGNN-style update: given `cx = a·W_u`,
/// `ch = (r ⊙ e)·U_u`, the update gate `z` and the previous embeddings `e`
/// (all `[c, d]`), returns `(1 − z) ⊙ e + z ⊙ tanh(cx + ch)` with the exact
/// rounding order of the op chain (`1 − z` as `(z · −1) + 1`). See
/// [`gated_update_gates`].
pub fn gated_update_combine(cx: &Tensor, ch: &Tensor, z: &Tensor, prev: &Tensor) -> Tensor {
    debug_assert!(
        crate::inference::is_inference(),
        "fused gated update has no backward; it must stay inference-only"
    );
    let n = prev.len();
    debug_assert!(cx.len() == n && ch.len() == n && z.len() == n);
    let (cxd, chd, zd) = (cx.data(), ch.data(), z.data());
    let pd = prev.data();
    let mut out = pool::take_zeroed(n);
    for (i, o) in out.iter_mut().enumerate() {
        let cand = (cxd[i] + chd[i]).tanh();
        *o = ((zd[i] * -1.0) + 1.0) * pd[i] + zd[i] * cand;
    }
    drop((cxd, chd, zd, pd));
    Tensor::from_op(
        out,
        prev.shape().clone(),
        vec![cx.clone(), ch.clone(), z.clone(), prev.clone()],
        "gated_update_combine",
        Box::new(move |_grad| {}),
    )
}

/// Fused convex gate blend `g ⊙ a + (1 − g) ⊙ b` over same-shape operands —
/// the highway (eq. 11) and fusion-gate (eq. 18) combine step. Bitwise: the
/// chain `g.mul(a).add(g.one_minus().mul(b))` rounds as `g·a`, `(g·−1)+1`,
/// `om·b`, then the sum, and this pass reproduces exactly that order.
/// Inference-only (no backward).
pub fn gated_blend(g: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
    debug_assert!(
        crate::inference::is_inference(),
        "fused gated blend has no backward; it must stay inference-only"
    );
    let n = g.len();
    debug_assert!(a.len() == n && b.len() == n);
    let (gd, ad, bd) = (g.data(), a.data(), b.data());
    let mut out = pool::take_zeroed(n);
    for (i, o) in out.iter_mut().enumerate() {
        *o = gd[i] * ad[i] + ((gd[i] * -1.0) + 1.0) * bd[i];
    }
    drop((gd, ad, bd));
    Tensor::from_op(
        out,
        a.shape().clone(),
        vec![g.clone(), a.clone(), b.clone()],
        "gated_blend",
        Box::new(move |_grad| {}),
    )
}

/// Fused star-gate blend (eq. 9): `(1 − α_i) ⊙ sat_i + α_i ⊙ star` with a
/// per-row scalar gate `alpha ∈ [c, 1]` and a shared `star ∈ [d]` row.
///
/// The taped chain materializes `α` and `star` as `[c, d]` via two
/// rank-one GEMMs against `ones` before blending; a `k = 1` GEMM row is
/// `α_i · 1.0` (exact) resp. `1.0 · star_j` (exact), so skipping the
/// materialization and reading `α_i`/`star_j` directly preserves every bit
/// of the blend. Inference-only (no backward).
pub fn star_blend(alpha: &Tensor, satellites: &Tensor, star: &Tensor) -> Tensor {
    debug_assert!(
        crate::inference::is_inference(),
        "fused star blend has no backward; it must stay inference-only"
    );
    let (rows, cols) = satellites.shape().as_matrix();
    debug_assert_eq!(alpha.len(), rows);
    debug_assert_eq!(star.len(), cols);
    let (ad, sd, std_) = (alpha.data(), satellites.data(), star.data());
    let mut out = pool::take_zeroed(rows * cols);
    for (i, o) in out.iter_mut().enumerate() {
        let a = ad[i / cols];
        *o = ((a * -1.0) + 1.0) * sd[i] + a * std_[i % cols];
    }
    drop((ad, sd, std_));
    Tensor::from_op(
        out,
        satellites.shape().clone(),
        vec![alpha.clone(), satellites.clone(), star.clone()],
        "star_blend",
        Box::new(move |_grad| {}),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::check_gradient;
    use crate::{inference_mode, kernels, Rng};

    #[test]
    fn normalize_scale_matches_unfused_chain_bitwise() {
        let mut rng = Rng::seed_from_u64(5);
        for &(rows, cols) in &[(1, 1), (3, 7), (8, 16), (5, 33)] {
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
            let x1 = Tensor::from_vec(data.clone(), &[rows, cols]).requires_grad();
            let x2 = Tensor::from_vec(data, &[rows, cols]).requires_grad();
            let fused = x1.normalize_scale_rows(1e-12, 12.0);
            let chain = x2.l2_normalize_rows(1e-12).mul_scalar(12.0);
            let fb: Vec<u32> = fused.to_vec().iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u32> = chain.to_vec().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, cb, "forward diverged at ({rows},{cols})");

            // Identical upstream gradient through an arbitrary weighting.
            let w: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let wt = Tensor::from_vec(w.clone(), &[rows, cols]);
            fused.mul(&wt).sum().backward();
            chain.mul(&wt).sum().backward();
            let g1: Vec<u32> = x1.grad().unwrap().iter().map(|v| v.to_bits()).collect();
            let g2: Vec<u32> = x2.grad().unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(g1, g2, "backward diverged at ({rows},{cols})");
        }
    }

    #[test]
    fn normalize_scale_gradcheck() {
        let x = Tensor::from_vec(vec![0.7, -1.1, 0.4, 0.2, 0.9, -0.3], &[2, 3]).requires_grad();
        check_gradient(
            &x,
            |x| {
                let w = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, -0.25, 1.5], &[2, 3]);
                x.normalize_scale_rows(1e-12, 12.0).mul(&w).sum()
            },
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn fused_softmax_close_to_training_softmax() {
        let mut rng = Rng::seed_from_u64(23);
        for &(rows, cols) in &[(1, 1), (2, 7), (4, 40), (3, 129)] {
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform_range(-6.0, 6.0)).collect();
            let mut fused = data.clone();
            fused_softmax_rows(&mut fused, rows, cols);
            let reference = Tensor::from_vec(data, &[rows, cols]).softmax_rows().to_vec();
            for (i, (f, e)) in fused.iter().zip(&reference).enumerate() {
                assert!(
                    (f - e).abs() <= 1e-6,
                    "({rows},{cols}) element {i}: {f} vs {e}"
                );
            }
            for r in 0..rows {
                let s: f32 = fused[r * cols..(r + 1) * cols].iter().sum();
                assert!((s - 1.0).abs() <= 1e-5, "row {r} sums to {s}");
            }
        }
    }

    #[test]
    fn fused_softmax_preserves_row_ranking() {
        // Softmax is monotone per row; the fused variant must not reorder
        // any pair (this is what the serving metric-identity gate rests on).
        let mut rng = Rng::seed_from_u64(77);
        let cols = 257;
        let data: Vec<f32> = (0..cols).map(|_| rng.uniform_range(-12.0, 12.0)).collect();
        let mut fused = data.clone();
        fused_softmax_rows(&mut fused, 1, cols);
        let mut order_in: Vec<usize> = (0..cols).collect();
        order_in.sort_by(|&a, &b| data[a].total_cmp(&data[b]));
        let mut order_out: Vec<usize> = (0..cols).collect();
        order_out.sort_by(|&a, &b| fused[a].total_cmp(&fused[b]));
        assert_eq!(order_in, order_out);
    }

    #[test]
    fn softmax_rows_dispatches_to_fused_only_under_simd_inference() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.2, 0.0, 1.0, -0.5], &[2, 3]);
        let taped = x.softmax_rows().to_vec();
        // Inference alone (packed tier) must stay on the bitwise path.
        let packed = inference_mode(|| x.softmax_rows()).to_vec();
        for (a, b) in taped.iter().zip(&packed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Simd tier + inference takes the fused path: epsilon-close.
        let fused = kernels::with_tier(kernels::KernelTier::Simd, || {
            inference_mode(|| x.softmax_rows())
        })
        .to_vec();
        for (a, b) in taped.iter().zip(&fused) {
            assert!((a - b).abs() <= 1e-6);
        }
    }
}
