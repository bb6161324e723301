//! The [`Recommender`] and [`SessionModel`] interfaces.

use embsr_sessions::{Example, Session};
use embsr_tensor::{kernels, Rng, Tensor};

use crate::head::Head;

/// Anything that can score the full item vocabulary for a session.
///
/// This is the single interface the evaluation harness consumes; both
/// neural models (via [`NeuralRecommender`]) and non-neural methods
/// (S-POP, SKNN, STAN) implement it.
pub trait Recommender {
    /// Human-readable model name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// Size of the item vocabulary `|V|`.
    fn num_items(&self) -> usize;

    /// Fits the model on training examples (validation examples are used
    /// for early stopping where applicable).
    fn fit(&mut self, train: &[Example], val: &[Example]);

    /// Scores for every item given the session prefix; higher is better.
    /// The returned vector has length `num_items()`.
    fn scores(&self, session: &Session) -> Vec<f32>;

    /// Scores for a batch of session prefixes: one `num_items()`-length
    /// vector per session, in input order.
    ///
    /// Takes references (mirroring [`SessionModel::logits_batch`]) so bulk
    /// callers like the eval harness can batch without cloning every
    /// session's event vector. The default loops over
    /// [`Recommender::scores`], so every implementor is batchable;
    /// `NeuralRecommender` overrides it with the tape-free
    /// [`SessionModel::logits_batch`], which every neural model shares. Row
    /// `i` must equal `self.scores(sessions[i])` — the serving equivalence
    /// suite holds every neural model to bitwise equality.
    fn scores_batch(&self, sessions: &[&Session]) -> Vec<Vec<f32>> {
        sessions.iter().map(|&s| self.scores(s)).collect()
    }

    /// The training report of the most recent [`Recommender::fit`], when the
    /// model trains with the shared [`crate::Trainer`]. Non-neural methods
    /// keep the default `None`.
    fn train_report(&self) -> Option<&crate::TrainReport> {
        None
    }
}

/// A differentiable next-item model trained by the shared [`crate::Trainer`].
///
/// Every model is an encoder plus a head: [`SessionModel::repr`] encodes a
/// session into a `[d]` representation and [`SessionModel::head`] scores it
/// against the item table. Those two are the only scoring methods a model
/// states; every logits path below is built from them, so a model's
/// batched, cached and served rows are its training rows by construction.
pub trait SessionModel {
    /// Model name.
    fn name(&self) -> &str;

    /// Item vocabulary size.
    fn num_items(&self) -> usize;

    /// All trainable parameters.
    fn parameters(&self) -> Vec<Tensor>;

    /// Session representation `[d]`: everything the model computes before
    /// the head.
    ///
    /// `training` toggles dropout; `rng` drives it.
    fn repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor;

    /// The logits head: the scorer and the `[|V|, d]` item table the
    /// representation is compared against. Its tensors share the model's
    /// parameter storage.
    fn head(&self) -> Head;

    /// Logits `[|V|]` for the next item after `session`: the
    /// [`SessionModel::repr`] scored by the taped [`Head::logits`].
    ///
    /// `training` toggles dropout; `rng` drives it.
    fn logits(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        let repr = self.repr(session, training, rng);
        let d = repr.len();
        let head = self.head();
        let v = head.items.rows();
        head.logits(&repr.reshape(&[1, d])).reshape(&[v])
    }

    /// Inference-time logits `[|V|]`: [`SessionModel::logits`] with dropout
    /// off and no RNG to thread.
    fn logits_infer(&self, session: &Session) -> Tensor {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        self.logits(session, false, &mut rng)
    }

    /// Inference-time logits for a batch of sessions, shape `[B, |V|]` with
    /// row `i` scoring `sessions[i]`.
    ///
    /// Each session is encoded by [`SessionModel::repr`], the reprs are
    /// stacked, and one GEMM scores the stack against the head prepared for
    /// the calling thread's kernel tier. Every row is bitwise-equal to the
    /// per-session path (GEMM rows are independent sequential dot products).
    fn logits_batch(&self, sessions: &[&Session]) -> Tensor {
        assert!(!sessions.is_empty(), "logits_batch of an empty batch");
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        let reprs: Vec<Tensor> = sessions
            .iter()
            .map(|s| self.repr(s, false, &mut rng))
            .collect();
        self.head()
            .prepare(kernels::active_tier())
            .logits(&Tensor::stack_rows(&reprs))
    }

    /// Inference-time session representation `[d]`:
    /// [`SessionModel::repr`] with dropout off.
    ///
    /// Always `Some`. The `Option` remains only because the standalone
    /// `perfbench` package unwraps it; the next change to that package
    /// makes this return a plain `Tensor`.
    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        Some(self.repr(session, false, &mut rng))
    }

    /// Logits `[B, |V|]` from stacked representations `[B, d]`: the
    /// [`SessionModel::head`] prepared for the calling thread's kernel tier.
    ///
    /// Always `Some`, for the same reason as [`SessionModel::repr_infer`].
    fn logits_of_reprs(&self, reprs: &Tensor) -> Option<Tensor> {
        Some(self.head().prepare(kernels::active_tier()).logits(reprs))
    }
}

/// Adapter turning a trained [`SessionModel`] into a [`Recommender`].
///
/// `fit` delegates to the shared trainer with the stored config.
pub struct NeuralRecommender<M: SessionModel> {
    pub model: M,
    pub config: crate::TrainConfig,
    pub report: Option<crate::TrainReport>,
}

impl<M: SessionModel> NeuralRecommender<M> {
    /// Wraps a model with its training configuration.
    pub fn new(model: M, config: crate::TrainConfig) -> Self {
        NeuralRecommender {
            model,
            config,
            report: None,
        }
    }
}

impl<M: SessionModel> Recommender for NeuralRecommender<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn num_items(&self) -> usize {
        self.model.num_items()
    }

    fn fit(&mut self, train: &[Example], val: &[Example]) {
        let trainer = crate::Trainer::new(self.config.clone());
        self.report = Some(trainer.fit(&self.model, train, val));
    }

    fn scores(&self, session: &Session) -> Vec<f32> {
        let truncated = crate::trainer::truncate_session(session, self.config.max_session_len);
        self.model.logits_infer(&truncated).to_vec()
    }

    fn scores_batch(&self, sessions: &[&Session]) -> Vec<Vec<f32>> {
        if sessions.is_empty() {
            return Vec::new();
        }
        let truncated: Vec<Session> = sessions
            .iter()
            .map(|&s| crate::trainer::truncate_session(s, self.config.max_session_len))
            .collect();
        let refs: Vec<&Session> = truncated.iter().collect();
        // Tape-free: the whole batched forward runs without recording the
        // autograd graph, so intermediate activations recycle through the
        // buffer pool instead of accumulating until the logits drop.
        let logits = embsr_tensor::inference_mode(|| self.model.logits_batch(&refs));
        let v = self.model.num_items();
        assert_eq!(logits.rows(), sessions.len(), "one logit row per session");
        assert_eq!(logits.cols(), v, "full-vocabulary rows");
        let flat = logits.to_vec();
        flat.chunks(v).map(|row| row.to_vec()).collect()
    }

    fn train_report(&self) -> Option<&crate::TrainReport> {
        self.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::MicroBehavior;

    /// A trivial "neural" model used to exercise the adapter: a zero
    /// representation, so every item scores 0.
    struct Uniform {
        n: usize,
    }

    impl SessionModel for Uniform {
        fn name(&self) -> &str {
            "Uniform"
        }
        fn num_items(&self) -> usize {
            self.n
        }
        fn parameters(&self) -> Vec<Tensor> {
            Vec::new()
        }
        fn repr(&self, _s: &Session, _t: bool, _r: &mut Rng) -> Tensor {
            Tensor::zeros(&[2])
        }
        fn head(&self) -> Head {
            Head {
                scorer: crate::Scorer::Dot,
                items: Tensor::ones(&[self.n, 2]),
            }
        }
    }

    #[test]
    fn adapter_exposes_model_metadata() {
        let rec = NeuralRecommender::new(Uniform { n: 7 }, crate::TrainConfig::fast());
        assert_eq!(rec.name(), "Uniform");
        assert_eq!(rec.num_items(), 7);
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0)],
        };
        assert_eq!(rec.scores(&s).len(), 7);
    }

    #[test]
    fn batched_scores_match_per_session_scores() {
        let rec = NeuralRecommender::new(Uniform { n: 5 }, crate::TrainConfig::fast());
        let sessions: Vec<Session> = (0..3)
            .map(|i| Session {
                id: i,
                events: vec![MicroBehavior::new(i as u32 + 1, 0)],
            })
            .collect();
        let refs: Vec<&Session> = sessions.iter().collect();
        let batched = rec.scores_batch(&refs);
        assert_eq!(batched.len(), 3);
        for (s, row) in sessions.iter().zip(&batched) {
            assert_eq!(row, &rec.scores(s));
        }
        assert!(rec.scores_batch(&[]).is_empty());
    }

    #[test]
    fn default_logits_batch_stacks_rows() {
        let m = Uniform { n: 4 };
        let s = Session {
            id: 0,
            events: vec![MicroBehavior::new(1, 0)],
        };
        let out = m.logits_batch(&[&s, &s, &s]);
        assert_eq!(out.shape().dims(), &[3, 4]);
        assert_eq!(m.logits_infer(&s).len(), 4);
    }
}
