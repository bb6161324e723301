//! FPMC (Rendle et al., WWW 2010), session-based variant — factorized
//! personalized Markov chains without the user factor (sessions are
//! anonymous), i.e. factorized first-order transitions:
//! `score(next | last) = v_last · w_next`, trained with softmax
//! cross-entropy. This is the factorized counterpart of [`crate::MarkovChain`]
//! and the paper's related-work baseline [4].

use embsr_nn::{Embedding, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// The session-FPMC baseline.
pub struct Fpmc {
    /// "From" factors `V` (context side).
    from: Embedding,
    /// "To" factors `W` (candidate side).
    to: Embedding,
    num_items: usize,
}

impl Fpmc {
    /// Builds the model.
    pub fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Fpmc {
            from: Embedding::new(num_items, dim, &mut rng),
            to: Embedding::new(num_items, dim, &mut rng),
            num_items,
        }
    }
}

impl SessionModel for Fpmc {
    fn name(&self) -> &str {
        "FPMC"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.from.parameters();
        p.extend(self.to.parameters());
        p
    }

    /// The "from" factor of the session's last macro item (`[d]`).
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let last = *session
            .macro_items()
            .last()
            .expect("non-empty session") as usize;
        self.from.lookup_one(last)
    }

    fn head(&self) -> Head {
        Head {
            scorer: Scorer::Dot,
            items: self.to.weight.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;
    use embsr_tensor::{Adam, AdamConfig, Optimizer};

    fn sess(items: &[u32]) -> Session {
        Session {
            id: 0,
            events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
        }
    }

    #[test]
    fn only_last_macro_item_matters() {
        let m = Fpmc::new(6, 8, 0);
        let mut rng = Rng::seed_from_u64(0);
        let a = m.logits(&sess(&[1, 2, 5]), false, &mut rng).to_vec();
        let b = m.logits(&sess(&[4, 3, 5]), false, &mut rng).to_vec();
        assert_eq!(a, b, "FPMC is first-order");
    }

    #[test]
    fn learns_factorized_transitions() {
        // transitions: 0->1, 2->3; shared structure must be learnable
        let m = Fpmc::new(4, 6, 1);
        let mut opt = Adam::new(
            m.parameters(),
            AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
        );
        let data = [(sess(&[0]), 1usize), (sess(&[2]), 3usize)];
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..80 {
            opt.zero_grad();
            let mut loss = Tensor::scalar(0.0);
            for (s, t) in &data {
                loss = loss.add(&m.logits(s, true, &mut rng).cross_entropy_single(*t));
            }
            loss.backward();
            opt.step();
        }
        let s0 = m.logits(&sess(&[0]), false, &mut rng).to_vec();
        let best = (0..4).max_by(|&a, &b| s0[a].total_cmp(&s0[b])).unwrap();
        assert_eq!(best, 1);
    }
}
