//! STAMP (Liu et al., KDD 2018): short-term attention/memory priority.
//!
//! Attention over the session items with the last click and the session mean
//! as context; two MLPs produce the general-interest and current-interest
//! vectors whose elementwise product scores the items (the paper's trilinear
//! composition).

use embsr_nn::{Embedding, Forward, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// The STAMP baseline.
pub struct Stamp {
    items: Embedding,
    w1: Linear,
    w2: Linear,
    w3: Linear,
    w0: Tensor,
    mlp_a: Linear,
    mlp_b: Linear,
    num_items: usize,
    dim: usize,
}

impl Stamp {
    /// Builds the model.
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Stamp {
            items: Embedding::new(num_items, dim, &mut rng),
            w1: Linear::new_no_bias(dim, dim, &mut rng),
            w2: Linear::new_no_bias(dim, dim, &mut rng),
            w3: Linear::new(dim, dim, &mut rng),
            w0: uniform_init(&[dim, 1], &mut rng),
            mlp_a: Linear::new(dim, dim, &mut rng),
            mlp_b: Linear::new(dim, dim, &mut rng),
            num_items,
            dim,
        }
    }
}

impl SessionModel for Stamp {
    fn name(&self) -> &str {
        "STAMP"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        for l in [&self.w1, &self.w2, &self.w3, &self.mlp_a, &self.mlp_b] {
            p.extend(l.parameters());
        }
        p.push(self.w0.clone());
        p
    }

    /// Trilinear session representation `h_s ⊙ h_t` (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let idx: Vec<usize> = session.macro_items().iter().map(|&i| i as usize).collect();
        assert!(!idx.is_empty(), "empty session");
        let n = idx.len();
        let embs = self.items.lookup(&idx); // [n, d]
        let x_t = embs.row(n - 1); // last click
        let m_s = embs.mean_rows(); // session memory

        // α_i = w0ᵀ σ(W1 x_i + W2 x_t + W3 m_s)
        let xt_rows = Tensor::ones(&[n, 1]).matmul(&x_t.reshape(&[1, self.dim]));
        let ms_rows = Tensor::ones(&[n, 1]).matmul(&m_s.reshape(&[1, self.dim]));
        let act = self
            .w1
            .apply(&embs)
            .add(&self.w2.apply(&xt_rows))
            .add(&self.w3.apply(&ms_rows))
            .sigmoid();
        let alpha = act.matmul(&self.w0); // [n, 1]
        let alpha_full = alpha.matmul(&Tensor::ones(&[1, self.dim]));
        let m_a = alpha_full.mul(&embs).sum_rows().add(&m_s); // attended memory

        let h_s = self.mlp_a.apply(&m_a).tanh();
        let h_t = self.mlp_b.apply(&x_t).tanh();
        h_s.mul(&h_t)
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
    fn logits_shape() {
        let m = Stamp::new(8, 6, 0);
        let y = m.logits(&sess(&[1, 2, 3]), false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn last_item_priority_changes_output() {
        let m = Stamp::new(8, 6, 1);
        let mut rng = Rng::seed_from_u64(0);
        let a = m.logits(&sess(&[1, 2, 3]), false, &mut rng).to_vec();
        let b = m.logits(&sess(&[3, 2, 1]), false, &mut rng).to_vec();
        assert_ne!(a, b, "STAMP must be order-sensitive through the last click");
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let m = Stamp::new(5, 4, 2);
        m.logits(&sess(&[0, 1]), true, &mut Rng::seed_from_u64(1))
            .cross_entropy_single(2)
            .backward();
        for (i, p) in m.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i}");
        }
    }
}
