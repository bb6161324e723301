//! The logits head: the last layer of a factored session model.
//!
//! A model whose forward factors as "encode the session into a `[d]`
//! representation, then score it against the item table" names that second
//! half through [`SessionModel::head`](crate::SessionModel::head): a
//! [`Scorer`] and the `[|V|, d]` item table it compares against. The item
//! side of the product depends only on the weights — normalizing the table
//! (for the cosine scorer) and transpose-packing it for the GEMM — so
//! [`Head::prepare`] does that work once and returns a [`PreparedHead`] that
//! each scoring call reuses until the weights or the kernel tier change.

use embsr_tensor::kernels::{KernelTier, PackedAbt};
use embsr_tensor::{l2_normalize_row, Tensor};

/// Row-normalization epsilon of the cosine scorer (the clamp under
/// `‖x‖₂` in `x / max(‖x‖₂, eps)`), the same as `NormalizedScorer`'s.
const COSINE_EPS: f32 = 1e-12;

/// How a prediction layer compares a session representation `m` with each
/// item embedding `v`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scorer {
    /// Plain dot product `m · v` (the non-normalized baselines).
    Dot,
    /// Scaled cosine `w_k · L2(m) · L2(v)` (NISER; the paper's eq. 19).
    Cosine {
        /// The normalization weight `w_k` (12 in the paper).
        w_k: f32,
    },
}

/// A model's logits head: its scorer and the `[|V|, d]` item table.
pub struct Head {
    /// The similarity the head scores with.
    pub scorer: Scorer,
    /// The item table, one `d`-wide row per item (shares the model's
    /// parameter storage).
    pub items: Tensor,
}

impl Head {
    /// Prepares the item side for scoring under `tier`: the table is read
    /// row by row, L2-normalized for [`Scorer::Cosine`], and packed straight
    /// into `tier`'s GEMM panels. The normalized table is never materialized;
    /// the panels (`|V|·d·4` bytes when the tile width divides `|V|`) are the
    /// only thing kept.
    pub fn prepare(&self, tier: KernelTier) -> PreparedHead {
        let (v, d) = (self.items.rows(), self.items.cols());
        let items = self.items.data();
        let table = PackedAbt::from_rows(v, d, tier, |j, dst| {
            let row = &items[j * d..(j + 1) * d];
            match self.scorer {
                Scorer::Dot => dst.copy_from_slice(row),
                Scorer::Cosine { .. } => {
                    l2_normalize_row(row, dst, COSINE_EPS);
                }
            }
        });
        PreparedHead {
            scorer: self.scorer,
            table,
        }
    }
}

/// A [`Head`] with its item side prepared for one kernel tier.
///
/// **Bitwise contract:** [`PreparedHead::logits`] returns exactly the rows
/// the models' own batched forward computes at the same tier —
/// `reprs.matmul_nt(items)` for [`Scorer::Dot`], and
/// `reprs.normalize_scale_rows(eps, w_k).matmul_nt(&items.l2_normalize_rows(eps))`
/// for [`Scorer::Cosine`] — because the table is normalized by the same row
/// routine and the GEMM runs the same panels through the same micro-kernel.
pub struct PreparedHead {
    scorer: Scorer,
    table: PackedAbt,
}

impl PreparedHead {
    /// Logits `[B, |V|]` for stacked representations `[B, d]`, tape-free.
    pub fn logits(&self, reprs: &Tensor) -> Tensor {
        match self.scorer {
            Scorer::Dot => reprs.matmul_nt_packed(&self.table),
            Scorer::Cosine { w_k } => reprs
                .normalize_scale_rows(COSINE_EPS, w_k)
                .matmul_nt_packed(&self.table),
        }
    }

    /// The kernel tier the table was packed for.
    pub fn tier(&self) -> KernelTier {
        self.table.tier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_tensor::kernels::with_tier;
    use embsr_tensor::{inference_mode, Rng};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    /// The rows a model's own batched forward computes for each scorer.
    fn taped(scorer: Scorer, reprs: &Tensor, items: &Tensor) -> Tensor {
        match scorer {
            Scorer::Dot => reprs.matmul_nt(items),
            Scorer::Cosine { w_k } => reprs
                .normalize_scale_rows(COSINE_EPS, w_k)
                .matmul_nt(&items.l2_normalize_rows(COSINE_EPS)),
        }
    }

    #[test]
    fn prepared_rows_equal_the_unprepared_product_bitwise_at_every_tier() {
        let mut rng = Rng::seed_from_u64(5);
        // |V| = 37 straddles both tile widths; B = 5 straddles MR.
        let items = Tensor::from_vec(
            (0..37 * 6).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
            &[37, 6],
        );
        let reprs = Tensor::from_vec(
            (0..5 * 6).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
            &[5, 6],
        );
        for scorer in [Scorer::Dot, Scorer::Cosine { w_k: 12.0 }] {
            for tier in [KernelTier::Scalar, KernelTier::Packed, KernelTier::Simd] {
                let head = Head {
                    scorer,
                    items: items.clone(),
                };
                let prepared = head.prepare(tier);
                assert_eq!(prepared.tier(), tier);
                // the prepared head keeps its tier whatever the caller's is
                let got = with_tier(KernelTier::Packed, || {
                    inference_mode(|| prepared.logits(&reprs))
                });
                let want = with_tier(tier, || taped(scorer, &reprs, &items));
                assert_eq!(got.shape().dims(), &[5, 37]);
                assert_eq!(bits(&got), bits(&want), "{scorer:?} at {tier:?}");
            }
        }
    }
}
