//! SGNN-HN (Pan et al., CIKM 2020): star graph neural network with highway
//! networks — the strongest macro-behavior baseline in the paper.
//!
//! A star node connected to every satellite propagates non-adjacent
//! information; a highway network blends pre-/post-GNN embeddings; the
//! readout attends over steps with reversed position embeddings and scores
//! with the NISER-style normalized dot product (`w_k = 12`).

use embsr_nn::{
    Dropout, Embedding, Forward, GgnnCell, Highway, Linear, Module, ModuleCtx, StarAttention,
    StarGate,
};
use embsr_sessions::Session;
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::SessionDigraph;

/// The SGNN-HN baseline.
pub struct SgnnHn {
    items: Embedding,
    positions: Embedding,
    proj_in: Linear,
    proj_out: Linear,
    cell: GgnnCell,
    star_gate: StarGate,
    star_attn: StarAttention,
    highway: Highway,
    pos_proj: Linear,
    att_w1: Linear,
    att_w2: Linear,
    att_w3: Linear,
    q: Tensor,
    combine: Linear,
    dropout: Dropout,
    layers: usize,
    num_items: usize,
    dim: usize,
    max_len: usize,
}

impl SgnnHn {
    /// Builds the model (one GNN layer, `w_k = 12` as in the paper).
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let max_len = 64;
        SgnnHn {
            items: Embedding::new(num_items, dim, &mut rng),
            positions: Embedding::new(max_len, dim, &mut rng),
            proj_in: Linear::new(dim, dim, &mut rng),
            proj_out: Linear::new(dim, dim, &mut rng),
            cell: GgnnCell::new(dim, &mut rng),
            star_gate: StarGate::new(dim, &mut rng),
            star_attn: StarAttention::new(dim, &mut rng),
            highway: Highway::new(dim, &mut rng),
            pos_proj: Linear::new(2 * dim, dim, &mut rng),
            att_w1: Linear::new_no_bias(dim, dim, &mut rng),
            att_w2: Linear::new(dim, dim, &mut rng),
            att_w3: Linear::new_no_bias(dim, dim, &mut rng),
            q: uniform_init(&[dim, 1], &mut rng),
            combine: Linear::new_no_bias(2 * dim, dim, &mut rng),
            dropout: Dropout::new(0.2),
            layers: 1,
            num_items,
            dim,
            max_len,
        }
    }
}

impl SessionModel for SgnnHn {
    fn name(&self) -> &str {
        "SGNN-HN"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.positions.parameters());
        for l in [
            &self.proj_in,
            &self.proj_out,
            &self.pos_proj,
            &self.att_w1,
            &self.att_w2,
            &self.att_w3,
            &self.combine,
        ] {
            p.extend(l.parameters());
        }
        p.extend(self.cell.parameters());
        p.extend(self.star_gate.parameters());
        p.extend(self.star_attn.parameters());
        p.extend(self.highway.parameters());
        p.push(self.q.clone());
        p
    }

    /// Combined star-graph session representation `m` (`[d]`).
    fn repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "empty session");
        let mut ctx = ModuleCtx::new(training, rng);
        let graph = SessionDigraph::from_session(session);
        let idx: Vec<usize> = graph.nodes.iter().map(|&i| i as usize).collect();
        let h0 = self.dropout.forward(&self.items.lookup(&idx), &mut ctx); // [c, d]
        let mut star = h0.mean_rows();
        let mut h = h0.clone();
        for _ in 0..self.layers {
            let m_in = graph.a_in.matmul(&self.proj_in.apply(&h));
            let m_out = graph.a_out.matmul(&self.proj_out.apply(&h));
            let a = m_in.concat_cols(&m_out);
            let updated = self.cell.update(&a, &h);
            h = self.star_gate.propagate(&updated, &star);
            star = self.star_attn.attend(&h, &star);
        }
        let h_f = self.highway.blend(&h0, &h);

        // readout over steps with reversed position embeddings
        let steps = h_f.gather_rows(&graph.step_node); // [n, d]
        let n = steps.rows().min(self.max_len);
        let steps = steps.slice_rows(steps.rows() - n, steps.rows());
        let rev_pos: Vec<usize> = (0..n).rev().collect();
        let pos = self.positions.lookup(&rev_pos);
        // the original's position fusion: x_i = tanh(W_p [h_i ; p_i] + b)
        let with_pos = self.pos_proj.apply(&steps.concat_cols(&pos)).tanh();

        let last = with_pos.row(n - 1);
        let last_rows = Tensor::ones(&[n, 1]).matmul(&last.reshape(&[1, self.dim]));
        let star_rows = Tensor::ones(&[n, 1]).matmul(&star.reshape(&[1, self.dim]));
        let act = self
            .att_w1
            .apply(&last_rows)
            .add(&self.att_w2.apply(&with_pos))
            .add(&self.att_w3.apply(&star_rows))
            .sigmoid();
        let alpha = act.matmul(&self.q); // [n, 1]
        let alpha_full = alpha.matmul(&Tensor::ones(&[1, self.dim]));
        let s_g = alpha_full.mul(&with_pos).sum_rows();
        self.combine.apply(&s_g.concat_cols(&last))
    }

    fn head(&self) -> Head {
        Head {
            scorer: Scorer::Cosine { w_k: 12.0 },
            items: self.items.weight.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;

    fn sess(items: &[u32]) -> Session {
        Session {
            id: 0,
            events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
        }
    }

    #[test]
    fn logits_bounded_by_wk() {
        let m = SgnnHn::new(6, 8, 0);
        let y = m
            .logits(&sess(&[1, 2, 3, 1]), false, &mut Rng::seed_from_u64(0))
            .to_vec();
        assert_eq!(y.len(), 6);
        assert!(y.iter().all(|v| v.abs() <= 12.0 + 1e-3));
    }

    #[test]
    fn order_matters_via_positions() {
        let m = SgnnHn::new(6, 8, 1);
        let mut rng = Rng::seed_from_u64(0);
        let a = m.logits(&sess(&[1, 2, 3]), false, &mut rng).to_vec();
        let b = m.logits(&sess(&[3, 2, 1]), false, &mut rng).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn all_parameters_used() {
        let m = SgnnHn::new(5, 4, 2);
        m.logits(&sess(&[0, 1, 2, 1]), true, &mut Rng::seed_from_u64(0))
            .cross_entropy_single(3)
            .backward();
        for (i, p) in m.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i}");
        }
    }
}
