//! MKM-SR (Meng et al., SIGIR 2020), the variant *without* the knowledge
//! auxiliary task — exactly the configuration the paper compares against.
//!
//! Items go through a gated GNN over the session digraph; the
//! micro-operation sequence goes through a separate GRU; the two session
//! vectors are concatenated and projected. The paper's criticism — that the
//! GNN never sees operation information and the two channels only meet at
//! the final concatenation — is visible directly in this structure.

use embsr_nn::{Embedding, Forward, Gru, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::{AttentionReadout, GnnEncoder, SessionDigraph};

/// The MKM-SR baseline.
pub struct MkmSr {
    items: Embedding,
    ops: Embedding,
    encoder: GnnEncoder,
    readout: AttentionReadout,
    op_gru: Gru,
    combine: Linear,
    num_items: usize,
}

impl MkmSr {
    /// Builds the model.
    pub fn new(num_items: usize, num_ops: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        MkmSr {
            items: Embedding::new(num_items, dim, &mut rng),
            ops: Embedding::new(num_ops, dim, &mut rng),
            encoder: GnnEncoder::new(dim, 1, &mut rng),
            readout: AttentionReadout::new(dim, &mut rng),
            op_gru: Gru::new(dim, dim, &mut rng),
            combine: Linear::new_no_bias(2 * dim, dim, &mut rng),
            num_items,
        }
    }
}

impl SessionModel for MkmSr {
    fn name(&self) -> &str {
        "MKM-SR"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.ops.parameters());
        p.extend(self.encoder.parameters());
        p.extend(self.readout.parameters());
        p.extend(self.op_gru.parameters());
        p.extend(self.combine.parameters());
        p
    }

    /// Concatenated item-channel + op-channel representation (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "empty session");
        // item channel: SR-GNN style
        let graph = SessionDigraph::from_session(session);
        let idx: Vec<usize> = graph.nodes.iter().map(|&i| i as usize).collect();
        let h = self.encoder.encode(&graph, self.items.lookup(&idx));
        let steps = h.gather_rows(&graph.step_node);
        let s_item = self.readout.readout(&steps, &steps.row(steps.rows() - 1));

        // operation channel: GRU over the *micro* operation sequence
        let ops: Vec<usize> = session.events.iter().map(|e| e.op as usize).collect();
        let s_op = self.op_gru.last_state(&self.ops.lookup(&ops));

        self.combine.apply(&s_item.concat_cols(&s_op))
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
    fn operations_influence_output_through_gru_channel() {
        let m = MkmSr::new(6, 4, 8, 0);
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
    fn logits_shape_and_gradients() {
        let m = MkmSr::new(5, 3, 4, 1);
        let s = Session {
            id: 0,
            events: vec![
                MicroBehavior::new(0, 0),
                MicroBehavior::new(1, 1),
                MicroBehavior::new(0, 2),
            ],
        };
        let y = m.logits(&s, true, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 5);
        y.cross_entropy_single(2).backward();
        assert!(m.ops.weight.grad().is_some());
        assert!(m.items.weight.grad().is_some());
    }
}
