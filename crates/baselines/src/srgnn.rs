//! SR-GNN (Wu et al., AAAI 2019): gated GNN over the session digraph with a
//! soft-attention readout.

use embsr_nn::{Embedding, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::{AttentionReadout, GnnEncoder, SessionDigraph};

/// The SR-GNN baseline.
pub struct SrGnn {
    items: Embedding,
    encoder: GnnEncoder,
    readout: AttentionReadout,
    num_items: usize,
}

impl SrGnn {
    /// Builds the model with one propagation layer (the original's default).
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        SrGnn {
            items: Embedding::new(num_items, dim, &mut rng),
            encoder: GnnEncoder::new(dim, 1, &mut rng),
            readout: AttentionReadout::new(dim, &mut rng),
            num_items,
        }
    }

    /// Encodes the session into per-step embeddings `[n, d]` (shared with
    /// GC-SAN and MKM-SR).
    pub(crate) fn encode_steps(&self, session: &Session) -> Tensor {
        let graph = SessionDigraph::from_session(session);
        let idx: Vec<usize> = graph.nodes.iter().map(|&i| i as usize).collect();
        let h = self.encoder.encode(&graph, self.items.lookup(&idx));
        h.gather_rows(&graph.step_node)
    }
}

impl SessionModel for SrGnn {
    fn name(&self) -> &str {
        "SR-GNN"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.encoder.parameters());
        p.extend(self.readout.parameters());
        p
    }

    /// Soft-attention readout over the encoded steps (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        assert!(!session.is_empty(), "empty session");
        let steps = self.encode_steps(session);
        let last = steps.row(steps.rows() - 1);
        self.readout.readout(&steps, &last)
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
    fn revisits_share_node_representation() {
        let m = SrGnn::new(6, 4, 0);
        let steps = m.encode_steps(&sess(&[1, 2, 1]));
        assert_eq!(steps.shape().dims(), &[3, 4]);
        // step 0 and step 2 are the same node
        let v = steps.to_vec();
        assert_eq!(&v[0..4], &v[8..12]);
    }

    #[test]
    fn logits_and_gradients() {
        let m = SrGnn::new(5, 4, 1);
        let y = m.logits(&sess(&[0, 1, 2, 1]), true, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 5);
        y.cross_entropy_single(3).backward();
        assert!(m.items.weight.grad().is_some());
    }
}
