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
    /// [`Recommender::scores`], so every implementor is batchable; neural
    /// models override it with a genuinely batched, tape-free forward (see
    /// `NeuralRecommender`). Row `i` must equal `self.scores(sessions[i])`
    /// — the serving equivalence suite holds overrides to bitwise equality.
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
pub trait SessionModel {
    /// Model name.
    fn name(&self) -> &str;

    /// Item vocabulary size.
    fn num_items(&self) -> usize;

    /// All trainable parameters.
    fn parameters(&self) -> Vec<Tensor>;

    /// Logits `[|V|]` for the next item after `session`.
    ///
    /// `training` toggles dropout; `rng` drives it.
    fn logits(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor;

    /// Inference-time logits `[|V|]`: no dropout, no RNG to thread.
    ///
    /// Eval-time callers used to pass `training = false` plus a dummy RNG
    /// into [`SessionModel::logits`]; this is the same forward without the
    /// ceremony. The default delegates, so implementors get it for free.
    fn logits_infer(&self, session: &Session) -> Tensor {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        self.logits(session, false, &mut rng)
    }

    /// Inference-time logits for a batch of sessions, shape `[B, |V|]` with
    /// row `i` scoring `sessions[i]`.
    ///
    /// Models with the factored seam ([`SessionModel::head`]) get one path:
    /// each session encoded by [`SessionModel::repr_infer`], the reprs
    /// stacked, and a single head GEMM against the item table, prepared for
    /// the calling thread's kernel tier. Other models stack per-session
    /// [`SessionModel::logits_infer`] rows unless they override this to
    /// share work across the batch. Either way every row is bitwise-equal
    /// to the per-session path (GEMM rows are independent sequential dot
    /// products).
    fn logits_batch(&self, sessions: &[&Session]) -> Tensor {
        assert!(!sessions.is_empty(), "logits_batch of an empty batch");
        if let Some(head) = self.head() {
            let reprs: Vec<Tensor> = sessions.iter().filter_map(|s| self.repr_infer(s)).collect();
            assert_eq!(
                reprs.len(),
                sessions.len(),
                "{} has a logits head, so repr_infer must answer",
                self.name()
            );
            return head
                .prepare(kernels::active_tier())
                .logits(&Tensor::stack_rows(&reprs));
        }
        let rows: Vec<Tensor> = sessions
            .iter()
            .map(|s| {
                let y = self.logits_infer(s);
                let n = y.len();
                y.reshape(&[1, n])
            })
            .collect();
        Tensor::concat_rows(&rows)
    }

    /// Inference-time session representation `[d]` — the model state right
    /// before the logits head, when the model has such a seam.
    ///
    /// Must be `Some` exactly when [`SessionModel::head`] is. The contract
    /// that makes the serving-side repr cache sound: for any batch, stacking
    /// `repr_infer` rows and scoring them with the head must reproduce the
    /// model's own `logits` rows **bitwise** (same kernel tier, same
    /// inference mode). Models whose forward does not factor this way keep
    /// the default `None`, which disables caching for them.
    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        let _ = session;
        None
    }

    /// The model's logits head — its scorer and item table — when its
    /// forward factors through [`SessionModel::repr_infer`]. Serving
    /// prepares it once per weight version ([`Head::prepare`]).
    fn head(&self) -> Option<Head> {
        None
    }

    /// Logits `[B, |V|]` from stacked representations `[B, d]`: the
    /// [`SessionModel::head`] prepared for the calling thread's kernel tier,
    /// `None` for models without one.
    fn logits_of_reprs(&self, reprs: &Tensor) -> Option<Tensor> {
        Some(self.head()?.prepare(kernels::active_tier()).logits(reprs))
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

    /// A trivial bigram-count "neural" model used to exercise the adapter.
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
        fn logits(&self, _s: &Session, _t: bool, _r: &mut Rng) -> Tensor {
            Tensor::zeros(&[self.n])
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
