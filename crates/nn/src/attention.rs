//! Operation-aware self-attention (paper eq. 12–16).
//!
//! An extension of self-attention with relative position representations
//! (Shaw et al.): the key/value for pair `(i, j)` is
//! `x_j + e_{r_ij} + e_{p_j}`, where `e_{r_ij}` embeds the **dyadic
//! operation pair** `(o_i, o_j)` and `e_{p_j}` the absolute position.
//!
//! ```text
//! e_ij = x_i W_Q (x_j + e_r_ij + e_p_j)ᵀ / √d
//! α_ij = softmax_j(e_ij)
//! z_i  = Σ_j α_ij (x_j + e_r_ij + e_p_j)
//! ```
//!
//! Setting `use_dyadic = false` degrades the layer to standard
//! self-attention with absolute operation embeddings only (the
//! `SGNN-Abs-Self` variant of the paper's Sec. V-E).

use embsr_tensor::{Rng, Tensor};

use crate::embedding::Embedding;
use crate::linear::Linear;
use crate::module::{Forward, Module};

/// The operation-aware self-attention layer.
pub struct OpAwareSelfAttention {
    /// Dyadic relation table `M^R ∈ R^{|O|² × d}` (unused when
    /// `use_dyadic` is false).
    relations: Embedding,
    /// Position table `M^P ∈ R^{L × d}`.
    positions: Embedding,
    /// Query projection `W^Q`.
    query: Linear,
    num_ops: usize,
    dim: usize,
    use_dyadic: bool,
}

impl OpAwareSelfAttention {
    /// Creates the layer.
    ///
    /// * `num_ops` — `|O|`; the relation table has `|O|²` rows.
    /// * `max_len` — `L`, the longest supported input sequence.
    /// * `use_dyadic` — disable to ablate the dyadic relation encoding.
    pub fn new(dim: usize, num_ops: usize, max_len: usize, use_dyadic: bool, rng: &mut Rng) -> Self {
        OpAwareSelfAttention {
            relations: Embedding::new(num_ops * num_ops, dim, rng),
            positions: Embedding::new(max_len, dim, rng),
            query: Linear::new_no_bias(dim, dim, rng),
            num_ops,
            dim,
            use_dyadic,
        }
    }

    /// Maximum supported sequence length.
    pub fn max_len(&self) -> usize {
        self.positions.vocab()
    }

    /// Index into the relation table for the ordered pair `(o_i, o_j)`.
    pub fn relation_index(&self, o_i: usize, o_j: usize) -> usize {
        debug_assert!(o_i < self.num_ops && o_j < self.num_ops);
        o_i * self.num_ops + o_j
    }

    /// Runs the attention for every query: the all-queries form of
    /// eq. 14–16.
    ///
    /// * `xs` — input sequence `[t, d]` (micro-behavior embeddings, with the
    ///   star token appended as the final row by the caller).
    /// * `ops` — the operation id of each row (for the star token, the
    ///   caller passes the hypothesized next operation, per eq. 13).
    ///
    /// Returns the full output sequence `[t, d]`. EMBSR reads only the star
    /// row and runs [`OpAwareSelfAttention::attend_last`]; this form is the
    /// reference its tests pin that row to, bit for bit.
    ///
    /// # Panics
    /// Panics when `t` exceeds `max_len` or `ops.len() != t`.
    pub fn attend(&self, xs: &Tensor, ops: &[usize]) -> Tensor {
        let t = self.check_input(xs, ops);
        let pos = self.positions_for(t); // [t, d]
        let scale = self.scale();
        let queries = self.query.apply(xs); // [t, d]
        let d = self.dim;

        if !self.use_dyadic {
            // Keys are shared by every query, so the whole layer is two
            // plain GEMMs instead of t row-sized ones.
            let keys = xs.add(&pos); // [t, d]
            let scores = queries.matmul(&keys.transpose()).mul_scalar(scale); // [t, t]
            let alpha = scores.softmax_rows(); // [t, t]
            return alpha.matmul(&keys); // [t, d]
        }

        // Dyadic path: keys depend on the query through e_{r_ij}, so build
        // the all-pairs key matrix [t*t, d] (row i*t + j holds key_i[j] =
        // x_j + e_{r_ij} + e_{p_j}, in the same add order as the per-query
        // formulation) and batch the per-query products through bmm.
        let mut rel_idx = Vec::with_capacity(t * t);
        let mut tile = Vec::with_capacity(t * t);
        for &oi in ops {
            for (j, &oj) in ops.iter().enumerate() {
                rel_idx.push(self.relation_index(oi, oj));
                tile.push(j);
            }
        }
        let rels = self.relations.lookup(&rel_idx); // [t*t, d]
        let xs_tiled = xs.gather_rows(&tile); // [t*t, d]
        let pos_tiled = pos.gather_rows(&tile); // [t*t, d]
        let keys = xs_tiled.add(&rels).add(&pos_tiled); // [t*t, d]

        let keys3 = keys.reshape(&[t, t, d]);
        let queries3 = queries.reshape(&[t, 1, d]);
        let scores = queries3.bmm_nt(&keys3).mul_scalar(scale); // [t, 1, t]
        let alpha = scores.reshape(&[t, t]).softmax_rows(); // [t, t]
        alpha.reshape(&[t, 1, t]).bmm(&keys3).reshape(&[t, d]) // [t, d]
    }

    /// Runs the attention for the last query only (the star token's, the
    /// one row EMBSR reads): exactly row `t − 1` of
    /// [`OpAwareSelfAttention::attend`]`(xs, ops)`, bit for bit, from `t`
    /// keys instead of `t²`.
    ///
    /// Arguments are `attend`'s. Returns `[1, d]`. The kernel
    /// calls are the ones `attend` issues for that row — one `A·Bᵀ` GEMM
    /// of `[1,d]·[t,d]ᵀ` and one `A·B` GEMM of `[1,t]·[t,d]` — and GEMM
    /// rows are independent sequential dot products, so the row cannot
    /// tell the two forms apart. In backward, the rows `attend` computes
    /// and the star never reads contribute exact zeros, so the gradients
    /// match `attend`'s under the same upstream gradient on the last row.
    ///
    /// # Panics
    /// Panics when `t` exceeds `max_len` or `ops.len() != t`.
    pub fn attend_last(&self, xs: &Tensor, ops: &[usize]) -> Tensor {
        let t = self.check_input(xs, ops);
        let pos = self.positions_for(t); // [t, d]
        let scale = self.scale();
        let query = self.query.apply(&xs.slice_rows(t - 1, t)); // [1, d]

        if !self.use_dyadic {
            let keys = xs.add(&pos); // [t, d]
            let scores = query.matmul(&keys.transpose()).mul_scalar(scale); // [1, t]
            return scores.softmax_rows().matmul(&keys); // [1, d]
        }

        // key[j] = x_j + e_{r_(t-1)j} + e_{p_j}: the last block of attend's
        // all-pairs tile, in the same add order.
        let last = ops[t - 1];
        let rel_idx: Vec<usize> = ops
            .iter()
            .map(|&oj| self.relation_index(last, oj))
            .collect();
        let rels = self.relations.lookup(&rel_idx); // [t, d]
        let keys = xs.add(&rels).add(&pos); // [t, d]
        let scores = query.matmul_nt(&keys).mul_scalar(scale); // [1, t]
        scores.softmax_rows().matmul(&keys) // [1, d]
    }

    /// The shared prologue of both forms: shape checks and metrics.
    /// Returns `t`.
    fn check_input(&self, xs: &Tensor, ops: &[usize]) -> usize {
        let t = xs.rows();
        assert_eq!(ops.len(), t, "one op per row");
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::counter("nn.attention_forwards").inc();
            embsr_obs::metrics::histogram("nn.attention_seq_len").record(t as u64);
        }
        assert!(t <= self.max_len(), "sequence {} > max_len {}", t, self.max_len());
        assert_eq!(xs.cols(), self.dim);
        t
    }

    /// Position embeddings `e_{p_0} … e_{p_{t-1}}`, `[t, d]`.
    fn positions_for(&self, t: usize) -> Tensor {
        let pos_idx: Vec<usize> = (0..t).collect();
        self.positions.lookup(&pos_idx)
    }

    /// The `1/√d` score scale.
    fn scale(&self) -> f32 {
        1.0 / (self.dim as f32).sqrt()
    }
}

impl Module for OpAwareSelfAttention {
    fn parameters(&self) -> Vec<Tensor> {
        // The relation table is only part of the trainable graph when the
        // dyadic encoding is on; exposing it otherwise hands the optimizer a
        // parameter the loss can never reach (flagged by the graph
        // validator as `detached-param`).
        let mut p = Vec::new();
        if self.use_dyadic {
            p.extend(self.relations.parameters());
        }
        p.extend(self.positions.parameters());
        p.extend(self.query.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(dim: usize, ops: usize, len: usize, dyadic: bool, seed: u64) -> OpAwareSelfAttention {
        OpAwareSelfAttention::new(dim, ops, len, dyadic, &mut Rng::seed_from_u64(seed))
    }

    #[test]
    fn output_shape_matches_input() {
        let att = layer(4, 3, 10, true, 0);
        let xs = Tensor::from_vec(vec![0.1; 20], &[5, 4]);
        let z = att.attend(&xs, &[0, 1, 2, 0, 1]);
        assert_eq!(z.shape().dims(), &[5, 4]);
    }

    #[test]
    fn relation_index_is_bijective_over_pairs() {
        let att = layer(2, 4, 4, true, 1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            for j in 0..4 {
                assert!(seen.insert(att.relation_index(i, j)));
            }
        }
        assert_eq!(seen.len(), 16);
        assert!(seen.iter().all(|&k| k < 16));
    }

    #[test]
    fn dyadic_encoding_changes_output() {
        // Same items, different operation pairs => different outputs only
        // when dyadic encoding is on.
        let att = layer(4, 3, 8, true, 2);
        let xs = Tensor::from_vec(vec![0.3; 12], &[3, 4]);
        let z1 = att.attend(&xs, &[0, 0, 0]).to_vec();
        let z2 = att.attend(&xs, &[0, 1, 2]).to_vec();
        assert_ne!(z1, z2);
    }

    #[test]
    fn without_dyadic_ops_are_ignored_inside_attention() {
        let att = layer(4, 3, 8, false, 3);
        let xs = Tensor::from_vec(vec![0.3; 12], &[3, 4]);
        let z1 = att.attend(&xs, &[0, 0, 0]).to_vec();
        let z2 = att.attend(&xs, &[0, 1, 2]).to_vec();
        assert_eq!(z1, z2);
    }

    #[test]
    fn attention_weights_mix_rows() {
        // With a single row, output = x_0 + rel + pos (softmax of one = 1).
        let att = layer(3, 2, 4, true, 4);
        let xs = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let z = att.attend(&xs, &[1]);
        let rel = att.relations.lookup_one(att.relation_index(1, 1)).to_vec();
        let pos = att.positions.lookup_one(0).to_vec();
        let expect: Vec<f32> = (0..3).map(|k| xs.to_vec()[k] + rel[k] + pos[k]).collect();
        embsr_tensor::testing::assert_close(&z.to_vec(), &expect, 1e-5);
    }

    #[test]
    #[should_panic(expected = "max_len")]
    fn over_length_rejected() {
        let att = layer(2, 2, 3, true, 5);
        let xs = Tensor::zeros(&[4, 2]);
        let _ = att.attend(&xs, &[0, 0, 0, 0]);
    }

    /// A random `[t, dim]` input and `t` op ids below `num_ops`.
    fn sequence(t: usize, dim: usize, num_ops: usize, rng: &mut Rng) -> (Vec<f32>, Vec<usize>) {
        let xs = (0..t * dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let ops = (0..t).map(|_| rng.below(num_ops)).collect();
        (xs, ops)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn attend_last_is_the_last_row_of_attend_bit_for_bit() {
        use embsr_tensor::inference_mode;
        use embsr_tensor::kernels::{with_tier, KernelTier};
        let (num_ops, max_len) = (5, 41);
        for dim in [13, 48] {
            for dyadic in [true, false] {
                let att = layer(dim, num_ops, max_len, dyadic, 8);
                let mut rng = Rng::seed_from_u64(9);
                for t in 1..=max_len {
                    let (data, ops) = sequence(t, dim, num_ops, &mut rng);
                    let xs = Tensor::from_vec(data, &[t, dim]);
                    for tier in [KernelTier::Packed, KernelTier::Simd] {
                        // The fused softmax only runs under simd inference;
                        // both forms must take it there and only there.
                        for inference in [false, true] {
                            let run = || {
                                with_tier(tier, || {
                                    let all = att.attend(&xs, &ops).slice_rows(t - 1, t).to_vec();
                                    let last = att.attend_last(&xs, &ops);
                                    assert_eq!(last.shape().dims(), &[1, dim]);
                                    (all, last.to_vec())
                                })
                            };
                            let (all, last) = if inference {
                                inference_mode(run)
                            } else {
                                run()
                            };
                            assert_eq!(
                                bits(&last),
                                bits(&all),
                                "d={dim} dyadic={dyadic} t={t} {tier:?} inference={inference}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn attend_last_gradients_equal_attend_under_a_last_row_gradient() {
        use embsr_tensor::kernels::{with_tier, KernelTier};
        let (dim, num_ops, max_len) = (24, 5, 41);
        for dyadic in [true, false] {
            let att = layer(dim, num_ops, max_len, dyadic, 10);
            let tables = [
                &att.relations.weight,
                &att.positions.weight,
                &att.query.weight,
            ];
            let mut rng = Rng::seed_from_u64(11);
            for t in 1..=max_len {
                let (data, ops) = sequence(t, dim, num_ops, &mut rng);
                let upstream: Vec<f32> = (0..dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
                let g = Tensor::from_vec(upstream, &[1, dim]);
                for tier in [KernelTier::Packed, KernelTier::Simd] {
                    // One backward per form; returns the grads of xs and of
                    // the relation, position and W_Q tables, in that order.
                    let grads = |last_only: bool| {
                        for p in tables {
                            p.zero_grad();
                        }
                        let xs = Tensor::from_vec(data.clone(), &[t, dim]).requires_grad();
                        with_tier(tier, || {
                            let z = if last_only {
                                att.attend_last(&xs, &ops)
                            } else {
                                att.attend(&xs, &ops).slice_rows(t - 1, t)
                            };
                            z.mul(&g).sum().backward();
                        });
                        let mut out = vec![xs.grad()];
                        out.extend(tables.iter().map(|p| p.grad()));
                        out
                    };
                    // `==` on f32: rows the star never reads get +0.0 from
                    // attend's backward and nothing here, which may meet a
                    // −0.0 contribution; both are zero.
                    assert_eq!(
                        grads(true),
                        grads(false),
                        "dyadic={dyadic} t={t} {tier:?}: [xs, relations, positions, W_Q]"
                    );
                }
            }
            for p in tables {
                p.zero_grad();
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_len")]
    fn attend_last_rejects_over_length() {
        let att = layer(2, 2, 3, true, 12);
        let _ = att.attend_last(&Tensor::zeros(&[4, 2]), &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "one op per row")]
    fn attend_last_needs_one_op_per_row() {
        let att = layer(2, 2, 3, true, 13);
        let _ = att.attend_last(&Tensor::zeros(&[2, 2]), &[0]);
    }

    #[test]
    fn gradients_reach_relation_table_only_when_dyadic() {
        let xs = Tensor::from_vec(vec![0.2; 8], &[2, 4]);
        let att = layer(4, 2, 4, true, 6);
        att.attend(&xs, &[0, 1]).sum().backward();
        assert!(att.relations.weight.grad().is_some());

        let att2 = layer(4, 2, 4, false, 7);
        att2.attend(&xs, &[0, 1]).sum().backward();
        assert!(att2.relations.weight.grad().is_none());
    }
}
