//! GRU4Rec (Hidasi et al., ICLR 2016): a GRU over the macro-item sequence,
//! scoring by inner product with the item embeddings.

use embsr_nn::{Embedding, Gru, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

use crate::common::DotScorer;

/// The GRU4Rec baseline.
pub struct Gru4Rec {
    items: Embedding,
    gru: Gru,
    num_items: usize,
}

impl Gru4Rec {
    /// Builds the model.
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Gru4Rec {
            items: Embedding::new(num_items, dim, &mut rng),
            gru: Gru::new(dim, dim, &mut rng),
            num_items,
        }
    }

    /// Last GRU hidden state over the macro-item sequence (`[d]`).
    fn session_repr(&self, session: &Session) -> Tensor {
        let idx: Vec<usize> = session.macro_items().iter().map(|&i| i as usize).collect();
        assert!(!idx.is_empty(), "empty session");
        let embs = self.items.lookup(&idx);
        self.gru.last_state(&embs)
    }
}

impl SessionModel for Gru4Rec {
    fn name(&self) -> &str {
        "GRU4Rec"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.gru.parameters());
        p
    }

    fn logits(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        DotScorer::logits(&self.session_repr(session), &self.items.weight)
    }

    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        Some(self.session_repr(session))
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

    #[test]
    fn logits_cover_vocabulary() {
        let m = Gru4Rec::new(7, 8, 0);
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0), MicroBehavior::new(2, 0)],
        };
        let y = m.logits(&s, false, &mut Rng::seed_from_u64(0));
        assert_eq!(y.len(), 7);
    }

    #[test]
    fn operations_are_ignored() {
        let m = Gru4Rec::new(5, 8, 1);
        let mut rng = Rng::seed_from_u64(0);
        let a = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0), MicroBehavior::new(2, 3)],
        };
        let b = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 2), MicroBehavior::new(2, 1)],
        };
        assert_eq!(
            m.logits(&a, false, &mut rng).to_vec(),
            m.logits(&b, false, &mut rng).to_vec()
        );
    }
}
