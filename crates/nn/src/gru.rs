//! Gated Recurrent Unit (paper eq. 3).
//!
//! EMBSR runs a GRU over each macro-item's micro-operation sub-sequence and
//! takes the last hidden state as the edge feature `h̃^i`. The RNN baselines
//! (GRU4Rec, NARM, RIB, HUP) reuse the same cell over item sequences.

use embsr_tensor::{uniform_init, zeros_init, Rng, Tensor};

use crate::module::{Forward, Module, ModuleCtx};

/// A single-layer GRU with PyTorch-style gate equations:
///
/// ```text
/// r = σ(x·W_r + h·U_r + b_r)
/// z = σ(x·W_z + h·U_z + b_z)
/// n = tanh(x·W_n + r ⊙ (h·U_n) + b_n)
/// h' = (1 - z) ⊙ n + z ⊙ h
/// ```
pub struct Gru {
    w_r: Tensor,
    w_z: Tensor,
    w_n: Tensor,
    u_r: Tensor,
    u_z: Tensor,
    u_n: Tensor,
    b_r: Tensor,
    b_z: Tensor,
    b_n: Tensor,
    hidden: usize,
}

impl Gru {
    /// Creates a GRU mapping inputs of `input` dims to `hidden` dims.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> Self {
        Gru {
            w_r: uniform_init(&[input, hidden], rng),
            w_z: uniform_init(&[input, hidden], rng),
            w_n: uniform_init(&[input, hidden], rng),
            u_r: uniform_init(&[hidden, hidden], rng),
            u_z: uniform_init(&[hidden, hidden], rng),
            u_n: uniform_init(&[hidden, hidden], rng),
            b_r: zeros_init(&[hidden]),
            b_z: zeros_init(&[hidden]),
            b_n: zeros_init(&[hidden]),
            hidden,
        }
    }

    /// Hidden state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// One step: `x` is `[1, input]` (or `[input]`), `h` is `[1, hidden]`.
    pub fn step(&self, x: &Tensor, h: &Tensor) -> Tensor {
        let x = if x.shape().rank() == 1 {
            x.reshape(&[1, x.len()])
        } else {
            x.clone()
        };
        self.step_projected(
            &x.matmul(&self.w_r),
            &x.matmul(&self.w_z),
            &x.matmul(&self.w_n),
            h,
        )
    }

    /// One step given precomputed input projections `x·W_r`, `x·W_z`,
    /// `x·W_n` (each `[1, hidden]`). The full-sequence forward hoists the
    /// three input GEMMs out of the time loop and feeds row slices here; a
    /// GEMM row is the same sequential dot product whether computed alone or
    /// as part of the whole `[t, hidden]` product, so results are bitwise
    /// unchanged.
    fn step_projected(&self, gx_r: &Tensor, gx_z: &Tensor, gx_n: &Tensor, h: &Tensor) -> Tensor {
        let hu_r = h.matmul(&self.u_r);
        let hu_z = h.matmul(&self.u_z);
        let hu_n = h.matmul(&self.u_n);
        if embsr_tensor::is_inference() {
            // One pass over the state instead of ~ten taped elementwise ops.
            // Bitwise-identical to the chain below (same scalar expressions,
            // same rounding order), so dispatching on inference mode alone —
            // including the trainer's eval loop — changes no observable bits.
            return embsr_tensor::gru_step_fused(
                gx_r, gx_z, gx_n, &hu_r, &hu_z, &hu_n, &self.b_r, &self.b_z, &self.b_n, h,
            );
        }
        let r = gx_r.add(&hu_r).add(&self.b_r).sigmoid();
        let z = gx_z.add(&hu_z).add(&self.b_z).sigmoid();
        let n = gx_n.add(&r.mul(&hu_n)).add(&self.b_n).tanh();
        z.one_minus().mul(&n).add(&z.mul(h))
    }

    /// Runs the GRU over the sequence and returns only the final hidden
    /// state `[hidden]` — `h̃^i = h̃^i_k` in the paper.
    pub fn last_state(&self, xs: &Tensor) -> Tensor {
        if embsr_tensor::is_inference() {
            // Serving calls this once per micro-op sub-sequence; keeping only
            // the running state skips the per-step clone and the final concat
            // of `forward`. The last row of the concatenated states IS the
            // final state, so the output bits are unchanged.
            let t = xs.rows();
            assert!(t > 0, "GRU over empty sequence");
            let gx_r = xs.matmul(&self.w_r);
            let gx_z = xs.matmul(&self.w_z);
            let gx_n = xs.matmul(&self.w_n);
            let mut h = Tensor::zeros(&[1, self.hidden]);
            for i in 0..t {
                h = self.step_projected(
                    &gx_r.slice_rows(i, i + 1),
                    &gx_z.slice_rows(i, i + 1),
                    &gx_n.slice_rows(i, i + 1),
                    &h,
                );
            }
            return h.reshape(&[self.hidden]);
        }
        let all = self.apply(xs);
        let t = all.rows();
        all.slice_rows(t - 1, t).reshape(&[self.hidden])
    }

    /// Final hidden state of several independent sequences, stacked as rows
    /// of `[n, hidden]` in input order.
    ///
    /// Under the tape this is literally `last_state` per sequence plus a
    /// `stack_rows`. Under inference mode the sequences advance in lockstep
    /// instead: one `[Σtᵢ, input]` GEMM per gate for all input projections,
    /// then per time step one recurrent GEMM per gate and one fused gate
    /// pass over the sequences still running. The rows are ordered longest
    /// first, so the running sequences are always a prefix of the state: a
    /// step touches only those rows, and a sequence that ends leaves its
    /// final state behind untouched. A GEMM output row is the same
    /// k-sequential reduction whatever the row count of the product, and the
    /// fused step computes the exact single-row chain per row, so the
    /// lockstep is bitwise-identical to the sequential path — it just
    /// replaces `3·Σtᵢ` one-row GEMM dispatches with `3·(1 + max tᵢ)`
    /// batch-shaped ones.
    pub fn last_states(&self, seqs: &[&Tensor]) -> Tensor {
        assert!(!seqs.is_empty(), "GRU over an empty batch");
        if !embsr_tensor::is_inference() || seqs.len() == 1 {
            let rows: Vec<Tensor> = seqs.iter().map(|xs| self.last_state(xs)).collect();
            return Tensor::stack_rows(&rows);
        }
        let n = seqs.len();
        let lens: Vec<usize> = seqs.iter().map(|xs| xs.rows()).collect();
        assert!(lens.iter().all(|&k| k > 0), "GRU over empty sequence");
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0usize;
        for &k in &lens {
            offsets.push(total);
            total += k;
        }
        // Longest first (stable), so the sequences still running at step j
        // are the first `running` rows.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
        let flat = Tensor::concat_rows(&seqs.iter().map(|&x| x.clone()).collect::<Vec<_>>());
        let gx_r = flat.matmul(&self.w_r); // [Σt, hidden]
        let gx_z = flat.matmul(&self.w_z);
        let gx_n = flat.matmul(&self.w_n);
        let mut h = Tensor::zeros(&[n, self.hidden]);
        // Final states of the sequences that have ended, shortest first.
        let mut ended: Vec<Tensor> = Vec::new();
        for j in 0..lens[order[0]] {
            let running = order.iter().take_while(|&&i| lens[i] > j).count();
            if running < h.rows() {
                ended.push(h.slice_rows(running, h.rows()));
                h = h.slice_rows(0, running);
            }
            let idx: Vec<usize> = order[..running].iter().map(|&i| offsets[i] + j).collect();
            h = embsr_tensor::gru_step_fused(
                &gx_r.gather_rows(&idx),
                &gx_z.gather_rows(&idx),
                &gx_n.gather_rows(&idx),
                &h.matmul(&self.u_r),
                &h.matmul(&self.u_z),
                &h.matmul(&self.u_n),
                &self.b_r,
                &self.b_z,
                &self.b_n,
                &h,
            );
        }
        ended.push(h);
        ended.reverse();
        // Row r of `sorted` is the final state of sequence `order[r]`.
        let sorted = Tensor::concat_rows(&ended);
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        sorted.gather_rows(&rank)
    }
}

impl Forward for Gru {
    /// Runs the GRU over a sequence given as rows of `[t, input]`, starting
    /// from a zero state. Returns all hidden states `[t, hidden]`.
    /// Deterministic: the context is ignored.
    fn forward(&self, xs: &Tensor, _ctx: &mut ModuleCtx<'_>) -> Tensor {
        let t = xs.rows();
        assert!(t > 0, "GRU over empty sequence");
        // Per-gate input projections for the whole sequence in one GEMM
        // each, instead of three [1, input]·[input, hidden] products per
        // step.
        let gx_r = xs.matmul(&self.w_r); // [t, hidden]
        let gx_z = xs.matmul(&self.w_z);
        let gx_n = xs.matmul(&self.w_n);
        let mut h = Tensor::zeros(&[1, self.hidden]);
        let mut states = Vec::with_capacity(t);
        for i in 0..t {
            h = self.step_projected(
                &gx_r.slice_rows(i, i + 1),
                &gx_z.slice_rows(i, i + 1),
                &gx_n.slice_rows(i, i + 1),
                &h,
            );
            states.push(h.clone());
        }
        Tensor::concat_rows(&states)
    }
}

impl Module for Gru {
    fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.w_r.clone(),
            self.w_z.clone(),
            self.w_n.clone(),
            self.u_r.clone(),
            self.u_z.clone(),
            self.u_n.clone(),
            self.b_r.clone(),
            self.b_z.clone(),
            self.b_n.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_tensor::{Adam, AdamConfig, Optimizer};

    #[test]
    fn output_stays_bounded() {
        let g = Gru::new(3, 4, &mut Rng::seed_from_u64(0));
        let xs = Tensor::from_vec(vec![5.0; 15], &[5, 3]);
        let h = g.last_state(&xs);
        assert!(h.to_vec().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn state_depends_on_order() {
        let g = Gru::new(2, 3, &mut Rng::seed_from_u64(1));
        let ab = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let ba = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
        let h1 = g.last_state(&ab).to_vec();
        let h2 = g.last_state(&ba).to_vec();
        assert_ne!(h1, h2);
    }

    #[test]
    fn forward_all_shape() {
        let g = Gru::new(2, 5, &mut Rng::seed_from_u64(2));
        let xs = Tensor::from_vec(vec![0.1; 8], &[4, 2]);
        assert_eq!(g.apply(&xs).shape().dims(), &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let g = Gru::new(2, 2, &mut Rng::seed_from_u64(3));
        let _ = g.apply(&Tensor::zeros(&[0, 2]));
    }

    #[test]
    fn inference_path_is_bitwise_identical_to_taped_path() {
        // The fused gate op and the state-only loop must reproduce the taped
        // chain bit for bit — this is what lets serving (and the trainer's
        // eval loop) dispatch on inference mode without an epsilon contract.
        // Perturb the parameters away from init first so the zero biases
        // don't mask a broken bias add.
        let mut rng = embsr_tensor::Rng::seed_from_u64(9);
        for &(t, input, hidden) in &[(1usize, 3usize, 4usize), (5, 8, 16), (7, 12, 33)] {
            let g = Gru::new(input, hidden, &mut rng);
            let mut opt = Adam::new(
                g.parameters(),
                AdamConfig {
                    lr: 0.1,
                    ..Default::default()
                },
            );
            let warm: Vec<f32> = (0..t * input).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let warm = Tensor::from_vec(warm, &[t, input]);
            for _ in 0..3 {
                opt.zero_grad();
                g.last_state(&warm).square().sum().backward();
                opt.step();
            }
            // b_z, not b_r: with h₀ = 0 and t = 1 the reset gate only acts
            // through r ⊙ (h·U_n) = 0, so b_r legitimately gets no gradient.
            assert!(g.b_z.to_vec().iter().any(|&b| b != 0.0), "biases still zero");

            let data: Vec<f32> = (0..t * input).map(|_| rng.uniform_range(-1.5, 1.5)).collect();
            let xs = Tensor::from_vec(data, &[t, input]);
            let taped: Vec<u32> = g.last_state(&xs).to_vec().iter().map(|v| v.to_bits()).collect();
            let fused: Vec<u32> = embsr_tensor::inference_mode(|| g.last_state(&xs))
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(taped, fused, "diverged at (t={t}, input={input}, hidden={hidden})");
        }
    }

    #[test]
    fn lockstep_rows_equal_sequential_rows_bitwise_at_every_tier() {
        use embsr_tensor::kernels::{with_tier, KernelTier};
        let mut rng = Rng::seed_from_u64(12);
        let g = Gru::new(5, 7, &mut rng);
        for p in g.parameters() {
            let v: Vec<f32> = (0..p.len()).map(|_| rng.uniform_range(-0.8, 0.8)).collect();
            p.set_data(&v);
        }
        // Ragged lengths in no particular order, with ties and length 1.
        let seqs: Vec<Tensor> = [3usize, 1, 6, 3, 2, 6, 1, 4]
            .iter()
            .map(|&t| {
                let v: Vec<f32> = (0..t * 5).map(|_| rng.uniform_range(-1.5, 1.5)).collect();
                Tensor::from_vec(v, &[t, 5])
            })
            .collect();
        let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for tier in [KernelTier::Packed, KernelTier::Simd] {
            with_tier(tier, || {
                for n in 1..=seqs.len() {
                    let refs: Vec<&Tensor> = seqs[..n].iter().collect();
                    let batched = embsr_tensor::inference_mode(|| g.last_states(&refs));
                    assert_eq!(batched.shape().dims(), &[n, 7]);
                    for (i, xs) in refs.iter().enumerate() {
                        let single = g.last_state(xs);
                        assert_eq!(
                            bits(&batched.row(i)),
                            bits(&single),
                            "{tier:?} batch {n} row {i}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn gru_can_learn_last_input_sign() {
        // tiny task: predict the sign of the last input element
        let mut rng = Rng::seed_from_u64(4);
        let g = Gru::new(1, 4, &mut rng);
        let readout = crate::linear::Linear::new(4, 1, &mut rng);
        let mut params = g.parameters();
        params.extend(readout.parameters());
        let mut opt = Adam::new(
            params,
            AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
        );
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![0.3, -0.9, 1.0], 1.0),
            (vec![0.5, 0.2, -1.0], -1.0),
            (vec![-0.7, 1.0], 1.0),
            (vec![0.9, -1.0], -1.0),
        ];
        let mut last_loss = f32::MAX;
        for _ in 0..150 {
            opt.zero_grad();
            let mut total = Tensor::scalar(0.0);
            for (xs, y) in &seqs {
                let t = Tensor::from_vec(xs.clone(), &[xs.len(), 1]);
                let h = g.last_state(&t);
                let pred = readout.apply(&h);
                let err = pred.add_scalar(-y).square().sum();
                total = total.add(&err);
            }
            last_loss = total.item();
            total.backward();
            opt.step();
        }
        assert!(last_loss < 0.1, "GRU failed to fit toy task: {last_loss}");
    }
}
