//! BERT4Rec (Sun et al., CIKM 2019): deep bidirectional self-attention.
//!
//! For next-item prediction a `[MASK]` token is appended to the item
//! sequence and the model predicts at the mask position — the standard
//! BERT4Rec inference protocol. We train with the same next-item objective
//! as the other baselines rather than full cloze pre-training (a scale
//! simplification documented in DESIGN.md; the bidirectional architecture is
//! faithful).

use embsr_nn::{Embedding, Ffn, Forward, Linear, Module, ModuleCtx};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// The BERT4Rec baseline.
pub struct Bert4Rec {
    /// Item table with one extra row for the `[MASK]` token.
    items: Embedding,
    positions: Embedding,
    query: Linear,
    key: Linear,
    value: Linear,
    ffn: Ffn,
    blocks: usize,
    num_items: usize,
    dim: usize,
    max_len: usize,
}

impl Bert4Rec {
    /// Builds the model with two attention blocks.
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let max_len = 64;
        Bert4Rec {
            items: Embedding::new(num_items + 1, dim, &mut rng),
            positions: Embedding::new(max_len + 1, dim, &mut rng),
            query: Linear::new_no_bias(dim, dim, &mut rng),
            key: Linear::new_no_bias(dim, dim, &mut rng),
            value: Linear::new_no_bias(dim, dim, &mut rng),
            ffn: Ffn::new(dim, 0.0, &mut rng),
            blocks: 2,
            num_items,
            dim,
            max_len,
        }
    }

    fn mask_id(&self) -> usize {
        self.num_items
    }

    fn block(&self, x: &Tensor) -> Tensor {
        let scale = 1.0 / (self.dim as f32).sqrt();
        let q = self.query.apply(x);
        let k = self.key.apply(x);
        let v = self.value.apply(x);
        let att = q.matmul(&k.transpose()).mul_scalar(scale).softmax_rows();
        att.matmul(&v).add(x) // residual
    }
}

impl SessionModel for Bert4Rec {
    fn name(&self) -> &str {
        "BERT4Rec"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.positions.parameters());
        p.extend(self.query.parameters());
        p.extend(self.key.parameters());
        p.extend(self.value.parameters());
        p.extend(self.ffn.parameters());
        p
    }

    /// Hidden state at the appended `[MASK]` position (`[d]`).
    fn repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let mut idx: Vec<usize> = session.macro_items().iter().map(|&i| i as usize).collect();
        assert!(!idx.is_empty(), "empty session");
        if idx.len() > self.max_len {
            idx.drain(..idx.len() - self.max_len);
        }
        idx.push(self.mask_id());
        let n = idx.len();
        let pos: Vec<usize> = (0..n).collect();
        let mut ctx = ModuleCtx::new(training, rng);
        let mut x = self.items.lookup(&idx).add(&self.positions.lookup(&pos));
        for _ in 0..self.blocks {
            x = self.ffn.forward(&self.block(&x), &mut ctx);
        }
        x.row(n - 1)
    }

    fn head(&self) -> Head {
        // score only real items (drop the mask row of the table)
        Head {
            scorer: Scorer::Dot,
            items: self.items.weight.slice_rows(0, self.num_items),
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
    fn mask_token_is_not_a_candidate() {
        let m = Bert4Rec::new(6, 8, 0);
        let y = m.logits(&sess(&[1, 2]), false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 6);
    }

    #[test]
    fn bidirectional_attention_sees_whole_sequence() {
        // changing the FIRST item must change the prediction at the mask
        let m = Bert4Rec::new(8, 8, 1);
        let mut rng = Rng::seed_from_u64(0);
        let a = m.logits(&sess(&[1, 2, 3]), false, &mut rng).to_vec();
        let b = m.logits(&sess(&[4, 2, 3]), false, &mut rng).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn long_sessions_are_truncated() {
        let m = Bert4Rec::new(10, 4, 2);
        let items: Vec<u32> = (0..200).map(|i| i % 10).collect();
        let y = m.logits(&sess(&items), false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 10);
    }
}
