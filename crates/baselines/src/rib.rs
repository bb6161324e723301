//! RIB (Zhou et al., WSDM 2018): the first micro-behavior model — a GRU over
//! `item ⊕ operation` embeddings with an attention pooling layer.

use embsr_nn::{Embedding, Forward, Gru, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// The RIB baseline.
pub struct Rib {
    items: Embedding,
    ops: Embedding,
    gru: Gru,
    att: Linear,
    v: Tensor,
    num_items: usize,
    dim: usize,
}

impl Rib {
    /// Builds the model.
    pub fn new(num_items: usize, num_ops: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Rib {
            items: Embedding::new(num_items, dim, &mut rng),
            ops: Embedding::new(num_ops, dim, &mut rng),
            gru: Gru::new(2 * dim, dim, &mut rng),
            att: Linear::new(dim, dim, &mut rng),
            v: uniform_init(&[dim, 1], &mut rng),
            num_items,
            dim,
        }
    }
}

impl SessionModel for Rib {
    fn name(&self) -> &str {
        "RIB"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.ops.parameters());
        p.extend(self.gru.parameters());
        p.extend(self.att.parameters());
        p.push(self.v.clone());
        p
    }

    /// Attention-pooled GRU state over micro-behaviors (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "empty session");
        let items: Vec<usize> = session.events.iter().map(|e| e.item as usize).collect();
        let ops: Vec<usize> = session.events.iter().map(|e| e.op as usize).collect();
        let ev = self.items.lookup(&items);
        let eo = self.ops.lookup(&ops);
        let hidden = self.gru.apply(&ev.concat_cols(&eo)); // [t, d]

        // attention pooling over hidden states
        let act = self.att.apply(&hidden).tanh();
        let alpha = act.matmul(&self.v).transpose().softmax_rows(); // [1, t]
        alpha.matmul(&hidden).reshape(&[self.dim])
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

    #[test]
    fn operations_change_rib_output() {
        let m = Rib::new(6, 4, 8, 0);
        let mut rng = Rng::seed_from_u64(0);
        let a = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0), MicroBehavior::new(2, 0)],
        };
        let b = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0), MicroBehavior::new(2, 3)],
        };
        assert_ne!(
            m.logits(&a, false, &mut rng).to_vec(),
            m.logits(&b, false, &mut rng).to_vec()
        );
    }

    #[test]
    fn logits_shape() {
        let m = Rib::new(5, 3, 4, 1);
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(0, 0)],
        };
        assert_eq!(m.logits(&s, false, &mut Rng::seed_from_u64(0)).len(), 5);
    }
}
