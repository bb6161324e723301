//! HUP (Gu et al., WSDM 2020): hierarchical user profiling.
//!
//! A two-level "behavior pyramid": a lower GRU encodes the micro-operation
//! sub-sequence of each macro item (combined with the item embedding), and
//! an upper GRU consumes the per-item vectors; attention pooling produces
//! the session representation.

use embsr_nn::{Embedding, Forward, Gru, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// The HUP baseline.
pub struct Hup {
    items: Embedding,
    ops: Embedding,
    op_gru: Gru,
    item_gru: Gru,
    att: Linear,
    v: Tensor,
    num_items: usize,
    dim: usize,
}

impl Hup {
    /// Builds the model.
    pub fn new(num_items: usize, num_ops: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Hup {
            items: Embedding::new(num_items, dim, &mut rng),
            ops: Embedding::new(num_ops, dim, &mut rng),
            op_gru: Gru::new(dim, dim, &mut rng),
            item_gru: Gru::new(2 * dim, dim, &mut rng),
            att: Linear::new(dim, dim, &mut rng),
            v: uniform_init(&[dim, 1], &mut rng),
            num_items,
            dim,
        }
    }
}

impl SessionModel for Hup {
    fn name(&self) -> &str {
        "HUP"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.ops.parameters());
        p.extend(self.op_gru.parameters());
        p.extend(self.item_gru.parameters());
        p.extend(self.att.parameters());
        p.push(self.v.clone());
        p
    }

    /// Attention-pooled state of the two-level behavior pyramid (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let steps = session.macro_steps();
        assert!(!steps.is_empty(), "empty session");
        // lower level: encode each macro step's op sequence
        let mut step_vecs = Vec::with_capacity(steps.len());
        for step in &steps {
            let op_idx: Vec<usize> = step.ops.iter().map(|&o| o as usize).collect();
            let op_vec = self.op_gru.last_state(&self.ops.lookup(&op_idx)); // [d]
            let item_vec = self.items.lookup_one(step.item as usize); // [d]
            step_vecs.push(item_vec.concat_cols(&op_vec)); // [2d]
        }
        // upper level: GRU over per-item vectors
        let upper_in = Tensor::stack_rows(&step_vecs); // [n, 2d]
        let hidden = self.item_gru.apply(&upper_in); // [n, d]

        let act = self.att.apply(&hidden).tanh();
        let alpha = act.matmul(&self.v).transpose().softmax_rows(); // [1, n]
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
    fn deep_op_sequences_change_output() {
        let m = Hup::new(6, 5, 8, 0);
        let mut rng = Rng::seed_from_u64(0);
        let shallow = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0), MicroBehavior::new(2, 0)],
        };
        let deep = Session {
            id: 0,
            events: vec![
                MicroBehavior::new(1, 0),
                MicroBehavior::new(1, 2),
                MicroBehavior::new(1, 3),
                MicroBehavior::new(2, 0),
            ],
        };
        assert_ne!(
            m.logits(&shallow, false, &mut rng).to_vec(),
            m.logits(&deep, false, &mut rng).to_vec()
        );
    }

    #[test]
    fn gradients_reach_both_grus() {
        let m = Hup::new(4, 3, 4, 1);
        let s = Session {
            id: 0,
            events: vec![
                MicroBehavior::new(0, 0),
                MicroBehavior::new(0, 1),
                MicroBehavior::new(1, 0),
            ],
        };
        m.logits(&s, true, &mut Rng::seed_from_u64(0))
            .cross_entropy_single(2)
            .backward();
        for (i, p) in m.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i}");
        }
    }
}
