//! NARM (Li et al., CIKM 2017): a GRU encoder whose hidden states feed an
//! attention decoder; the session is represented by the concatenation of the
//! global (attention-pooled) and local (last hidden) vectors, projected and
//! scored bilinearly against item embeddings.

use embsr_nn::{Dropout, Embedding, Forward, Gru, Linear, Module, ModuleCtx};
use embsr_sessions::Session;
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::DotScorer;

/// The NARM baseline.
pub struct Narm {
    items: Embedding,
    gru: Gru,
    att_hidden: Linear,
    att_last: Linear,
    v: Tensor,
    project: Linear,
    dropout: Dropout,
    num_items: usize,
    dim: usize,
}

impl Narm {
    /// Builds the model.
    pub fn new(num_items: usize, dim: usize, dropout: f32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Narm {
            items: Embedding::new(num_items, dim, &mut rng),
            gru: Gru::new(dim, dim, &mut rng),
            att_hidden: Linear::new_no_bias(dim, dim, &mut rng),
            att_last: Linear::new_no_bias(dim, dim, &mut rng),
            v: uniform_init(&[dim, 1], &mut rng),
            project: Linear::new_no_bias(2 * dim, dim, &mut rng),
            dropout: Dropout::new(dropout),
            num_items,
            dim,
        }
    }

    /// Projected `[c_global ; h_last]` session representation (`[d]`).
    fn session_repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let idx: Vec<usize> = session.macro_items().iter().map(|&i| i as usize).collect();
        assert!(!idx.is_empty(), "empty session");
        let n = idx.len();
        let mut ctx = ModuleCtx::new(training, rng);
        let embs = self.dropout.forward(&self.items.lookup(&idx), &mut ctx);
        let hidden = self.gru.apply(&embs); // [n, d]
        let h_last = hidden.row(n - 1); // [d]

        // additive attention: α_j = vᵀ σ(W₁ h_last + W₂ h_j)
        let last_rows = Tensor::ones(&[n, 1]).matmul(&h_last.reshape(&[1, self.dim]));
        let act = self
            .att_last
            .apply(&last_rows)
            .add(&self.att_hidden.apply(&hidden))
            .sigmoid();
        let alpha = act.matmul(&self.v); // [n, 1]
        let alpha_full = alpha.matmul(&Tensor::ones(&[1, self.dim]));
        let c_global = alpha_full.mul(&hidden).sum_rows(); // [d]

        self.dropout.forward(
            &self.project.apply(&c_global.concat_cols(&h_last)),
            &mut ctx,
        )
    }
}

impl SessionModel for Narm {
    fn name(&self) -> &str {
        "NARM"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.gru.parameters());
        p.extend(self.att_hidden.parameters());
        p.extend(self.att_last.parameters());
        p.push(self.v.clone());
        p.extend(self.project.parameters());
        p
    }

    fn logits(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let c = self.session_repr(session, training, rng);
        DotScorer::logits(&c, &self.items.weight)
    }

    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        let mut rng = Rng::seed_from_u64(0); // dropout is off: never drawn from
        Some(self.session_repr(session, false, &mut rng))
    }

    fn head(&self) -> Option<Head> {
        Some(Head {
            scorer: Scorer::Dot,
            items: self.items.weight.clone(),
        })
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
    fn logits_shape_and_finite() {
        let m = Narm::new(9, 8, 0.1, 0);
        let y = m.logits(&sess(&[1, 4, 2, 4]), false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 9);
        assert!(y.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let m = Narm::new(6, 4, 0.0, 1);
        m.logits(&sess(&[0, 1, 2]), true, &mut Rng::seed_from_u64(1))
            .cross_entropy_single(3)
            .backward();
        for (i, p) in m.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
