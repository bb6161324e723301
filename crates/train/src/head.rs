//! The logits head: the last layer of every neural session model.
//!
//! Every model's forward factors as "encode the session into a `[d]`
//! representation, then score it against the item table" (the paper's
//! eq. 19 for EMBSR). The model names that second half through
//! [`SessionModel::head`](crate::SessionModel::head): a [`Scorer`] and the
//! `[|V|, d]` item table it compares against. [`Head::logits`] is the taped
//! product training differentiates. The item side of that product depends
//! only on the weights — normalizing the table (for the cosine scorer) and
//! transpose-packing it for the GEMM — so [`Head::prepare`] does that work
//! once and returns a [`PreparedHead`] that each inference call reuses until
//! the weights or the kernel tier change.

use embsr_tensor::kernels::{KernelTier, PackedAbt};
use embsr_tensor::{l2_normalize_row, Tensor};

/// Row-normalization epsilon of the cosine scorer (the clamp under
/// `‖x‖₂` in `x / max(‖x‖₂, eps)`).
const COSINE_EPS: f32 = 1e-12;

/// How a prediction layer compares a session representation `m` with each
/// item embedding `v`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scorer {
    /// Plain dot product `m · v` (the non-normalized baselines).
    Dot,
    /// Scaled cosine `w_k · L2(m) · L2(v)` (NISER; the paper's eq. 19).
    /// Normalizing both sides bounds every logit by `w_k`, which keeps
    /// training stable and counteracts popularity bias.
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
    /// Logits `[B, |V|]` for stacked representations `[B, d]`, recorded on
    /// the autograd tape so gradients reach both the representations and the
    /// item table. Training scores one representation at a time through
    /// this product.
    pub fn logits(&self, reprs: &Tensor) -> Tensor {
        match self.scorer {
            Scorer::Dot => reprs.matmul_nt(&self.items),
            Scorer::Cosine { w_k } => reprs
                .normalize_scale_rows(COSINE_EPS, w_k)
                .matmul_nt(&self.items.l2_normalize_rows(COSINE_EPS)),
        }
    }

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
/// [`Head::logits`] computes at the same tier, because the table is
/// normalized by the same row routine and the GEMM runs the same panels
/// through the same micro-kernel.
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
    use embsr_tensor::testing::{assert_close, check_gradient};
    use embsr_tensor::{inference_mode, Rng};

    const SCORERS: [Scorer; 2] = [Scorer::Dot, Scorer::Cosine { w_k: 12.0 }];

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    /// One representation `[d]` scored as a `[|V|]` row, the way
    /// `SessionModel::logits` scores it.
    fn row(scorer: Scorer, m: &Tensor, items: &Tensor) -> Tensor {
        let head = Head {
            scorer,
            items: items.clone(),
        };
        head.logits(&m.reshape(&[1, m.len()]))
            .reshape(&[items.rows()])
    }

    #[test]
    fn logits_match_the_manual_product() {
        let m = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let items = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        assert_close(
            &row(Scorer::Dot, &m, &items).to_vec(),
            &[1.0, 2.0, 3.0],
            1e-6,
        );
        // w_k · (m / ‖m‖) · (v / ‖v‖) with ‖m‖ = √5 and ‖v₂‖ = √2
        let cos = [1.0 / 5f32.sqrt(), 2.0 / 5f32.sqrt(), 3.0 / 10f32.sqrt()];
        assert_close(
            &row(Scorer::Cosine { w_k: 12.0 }, &m, &items).to_vec(),
            &cos.map(|c| 12.0 * c),
            1e-5,
        );
    }

    #[test]
    fn logits_are_scaled_cosines() {
        let m = Tensor::from_vec(vec![2.0, 0.0], &[2]);
        let items = Tensor::from_vec(vec![5.0, 0.0, 0.0, 3.0, -1.0, 0.0], &[3, 2]);
        let y = row(Scorer::Cosine { w_k: 12.0 }, &m, &items).to_vec();
        assert_close(&y, &[12.0, 0.0, -12.0], 1e-4);
    }

    #[test]
    fn cosine_logits_are_bounded_by_wk() {
        let m = Tensor::from_vec(vec![0.3, -0.7, 0.2], &[3]);
        let items = Tensor::from_vec((0..30).map(|i| (i as f32 * 0.37).sin()).collect(), &[10, 3]);
        let y = row(Scorer::Cosine { w_k: 12.0 }, &m, &items).to_vec();
        assert!(y.iter().all(|&v| v.abs() <= 12.0 + 1e-4));
    }

    #[test]
    fn gradient_flows_to_items_and_repr() {
        for scorer in SCORERS {
            let m = Tensor::from_vec(vec![0.5, 0.5], &[2]).requires_grad();
            let items = Tensor::from_vec(vec![0.2, 0.8, 0.9, 0.1], &[2, 2]).requires_grad();
            row(scorer, &m, &items).cross_entropy_single(0).backward();
            assert!(m.grad().is_some(), "{scorer:?}: repr");
            assert!(items.grad().is_some(), "{scorer:?}: item table");
        }
    }

    #[test]
    fn logits_gradcheck_wrt_repr_and_items() {
        let items = [0.5, 0.1, -0.3, 0.8, 0.2, -0.6, 0.4, 0.9, -0.1];
        let m = [0.7, -0.2, 0.4];
        for scorer in SCORERS {
            let table = Tensor::from_vec(items.to_vec(), &[3, 3]);
            let repr = Tensor::from_vec(m.to_vec(), &[3]).requires_grad();
            check_gradient(
                &repr,
                |t| row(scorer, t, &table).cross_entropy_single(1),
                1e-3,
                5e-2,
            );
            let repr = Tensor::from_vec(m.to_vec(), &[3]);
            let table = Tensor::from_vec(items.to_vec(), &[3, 3]).requires_grad();
            check_gradient(
                &table,
                |t| row(scorer, &repr, t).cross_entropy_single(1),
                1e-3,
                5e-2,
            );
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
        for scorer in SCORERS {
            for (tier, other) in [
                (KernelTier::Packed, KernelTier::Simd),
                (KernelTier::Simd, KernelTier::Packed),
            ] {
                let head = Head {
                    scorer,
                    items: items.clone(),
                };
                let prepared = head.prepare(tier);
                assert_eq!(prepared.tier(), tier);
                // the prepared head keeps its tier whatever the caller's is
                let got = with_tier(other, || inference_mode(|| prepared.logits(&reprs)));
                let want = with_tier(tier, || head.logits(&reprs));
                assert_eq!(got.shape().dims(), &[5, 37]);
                assert_eq!(bits(&got), bits(&want), "{scorer:?} at {tier:?}");
            }
        }
    }
}
