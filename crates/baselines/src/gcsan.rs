//! GC-SAN (Xu et al., IJCAI 2019): graph-contextualized self-attention.
//!
//! SR-GNN's gated-GNN encoding of the session graph, followed by a stack of
//! standard self-attention blocks; the final representation interpolates the
//! last attention output with the last GNN state by a weight ω.

use embsr_nn::{Embedding, Ffn, Forward, Linear, Module, ModuleCtx};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::{GnnEncoder, SessionDigraph};

/// The GC-SAN baseline.
pub struct GcSan {
    items: Embedding,
    encoder: GnnEncoder,
    query: Linear,
    key: Linear,
    value: Linear,
    ffn: Ffn,
    /// Interpolation weight between attention output and GNN state.
    pub omega: f32,
    blocks: usize,
    num_items: usize,
    dim: usize,
}

impl GcSan {
    /// Builds the model with one attention block and ω = 0.6 (near the
    /// original's tuned value).
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        GcSan {
            items: Embedding::new(num_items, dim, &mut rng),
            encoder: GnnEncoder::new(dim, 1, &mut rng),
            query: Linear::new_no_bias(dim, dim, &mut rng),
            key: Linear::new_no_bias(dim, dim, &mut rng),
            value: Linear::new_no_bias(dim, dim, &mut rng),
            ffn: Ffn::new(dim, 0.0, &mut rng),
            omega: 0.6,
            blocks: 1,
            num_items,
            dim,
        }
    }

    fn self_attention(&self, x: &Tensor) -> Tensor {
        let scale = 1.0 / (self.dim as f32).sqrt();
        let q = self.query.apply(x);
        let k = self.key.apply(x);
        let v = self.value.apply(x);
        let scores = q.matmul(&k.transpose()).mul_scalar(scale);
        scores.softmax_rows().matmul(&v)
    }
}

impl SessionModel for GcSan {
    fn name(&self) -> &str {
        "GC-SAN"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.encoder.parameters());
        p.extend(self.query.parameters());
        p.extend(self.key.parameters());
        p.extend(self.value.parameters());
        p.extend(self.ffn.parameters());
        p
    }

    /// ω-interpolated session representation (`[d]`).
    fn repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "empty session");
        let graph = SessionDigraph::from_session(session);
        let idx: Vec<usize> = graph.nodes.iter().map(|&i| i as usize).collect();
        let h = self.encoder.encode(&graph, self.items.lookup(&idx));
        let steps = h.gather_rows(&graph.step_node); // [n, d]
        let n = steps.rows();

        let mut ctx = ModuleCtx::new(training, rng);
        let mut e = steps.clone();
        for _ in 0..self.blocks {
            e = self.ffn.forward(&self.self_attention(&e), &mut ctx);
        }
        let att_last = e.row(n - 1);
        let gnn_last = steps.row(n - 1);
        att_last
            .mul_scalar(self.omega)
            .add(&gnn_last.mul_scalar(1.0 - self.omega))
    }

    fn head(&self) -> Head {
        Head {
            scorer: Scorer::Dot,
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
    fn logits_shape_and_finiteness() {
        let m = GcSan::new(7, 8, 0);
        let y = m.logits(&sess(&[1, 2, 3, 2]), false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 7);
        assert!(y.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_reach_attention_projections() {
        let m = GcSan::new(5, 4, 1);
        m.logits(&sess(&[0, 1, 2]), true, &mut Rng::seed_from_u64(0))
            .cross_entropy_single(3)
            .backward();
        assert!(m.query.weight.grad().is_some());
        assert!(m.key.weight.grad().is_some());
        assert!(m.value.weight.grad().is_some());
    }
}
