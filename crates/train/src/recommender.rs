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

    /// One scoring pass over many sessions: scores them in chunks of at
    /// most `chunk` and calls `visit(i, row)` with row `i` (scoring
    /// `sessions[i]`), in input order, so a whole test set is scored without
    /// holding every row at once. Rows equal [`Recommender::scores_batch`]'s.
    ///
    /// The default scores each chunk with `scores_batch`.
    /// `NeuralRecommender` prepares its head once for the pass instead of
    /// once per chunk; nothing outlives the call, so a later pass always
    /// sees the weights as they are then.
    fn visit_scores(
        &self,
        sessions: &[&Session],
        chunk: usize,
        visit: &mut dyn FnMut(usize, &[f32]),
    ) {
        let chunk = chunk.max(1);
        for (c, part) in sessions.chunks(chunk).enumerate() {
            for (j, row) in self.scores_batch(part).iter().enumerate() {
                visit(c * chunk + j, row);
            }
        }
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
/// must state; every logits path below is built from them, so a model's
/// batched, cached and served rows are its training rows by construction.
/// A model whose encoder can share its passes across sessions also states
/// [`SessionModel::repr_batch`], held bitwise to its `repr` rows.
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

    /// Inference-time representations `[B, d]` of a batch of sessions, row
    /// `i` encoding `sessions[i]`: [`SessionModel::repr`] with dropout off,
    /// bitwise, row by row.
    ///
    /// The default encodes each session alone and stacks the rows. A model
    /// whose encoder shares its passes across the batch overrides it; every
    /// row must still equal the session's own `repr` bits (GEMM rows are
    /// independent sequential dot products, so stacking rows into one
    /// product keeps them).
    fn repr_batch(&self, sessions: &[&Session]) -> Tensor {
        assert!(!sessions.is_empty(), "repr_batch of an empty batch");
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        let reprs: Vec<Tensor> = sessions
            .iter()
            .map(|s| self.repr(s, false, &mut rng))
            .collect();
        Tensor::stack_rows(&reprs)
    }

    /// Inference-time logits for a batch of sessions, shape `[B, |V|]` with
    /// row `i` scoring `sessions[i]`.
    ///
    /// The batch is encoded by [`SessionModel::repr_batch`] and one GEMM
    /// scores it against the head prepared for the calling thread's kernel
    /// tier. Every row is bitwise-equal to the per-session path.
    fn logits_batch(&self, sessions: &[&Session]) -> Tensor {
        assert!(!sessions.is_empty(), "logits_batch of an empty batch");
        self.head()
            .prepare(kernels::active_tier())
            .logits(&self.repr_batch(sessions))
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
        let mut rows = Vec::with_capacity(sessions.len());
        self.visit_scores(sessions, sessions.len(), &mut |_, row| {
            rows.push(row.to_vec())
        });
        rows
    }

    fn visit_scores(
        &self,
        sessions: &[&Session],
        chunk: usize,
        visit: &mut dyn FnMut(usize, &[f32]),
    ) {
        if sessions.is_empty() {
            return;
        }
        let v = self.model.num_items();
        let chunk = chunk.max(1);
        // Tape-free: the whole batched forward runs without recording the
        // autograd graph, so intermediate activations recycle through the
        // buffer pool instead of accumulating until the logits drop. The
        // head is normalized and packed once for the pass; it is the
        // product `logits_batch` prepares per call.
        embsr_tensor::inference_mode(|| {
            let head = self.model.head().prepare(kernels::active_tier());
            for (c, part) in sessions.chunks(chunk).enumerate() {
                let truncated: Vec<Session> = part
                    .iter()
                    .map(|&s| crate::trainer::truncate_session(s, self.config.max_session_len))
                    .collect();
                let refs: Vec<&Session> = truncated.iter().collect();
                let logits = head.logits(&self.model.repr_batch(&refs));
                assert_eq!(logits.rows(), part.len(), "one logit row per session");
                assert_eq!(logits.cols(), v, "full-vocabulary rows");
                for (j, row) in logits.data().chunks(v).enumerate() {
                    visit(c * chunk + j, row);
                }
            }
        });
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

    /// A model whose scores are its item table: a constant representation
    /// dotted with learnable item rows.
    struct Table {
        items: Tensor,
    }

    impl SessionModel for Table {
        fn name(&self) -> &str {
            "Table"
        }
        fn num_items(&self) -> usize {
            self.items.rows()
        }
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.items.clone()]
        }
        fn repr(&self, s: &Session, _t: bool, _r: &mut Rng) -> Tensor {
            let last = s.events.last().map_or(0.0, |e| e.item as f32);
            Tensor::from_vec(vec![1.0, last], &[2])
        }
        fn head(&self) -> Head {
            Head {
                scorer: crate::Scorer::Dot,
                items: self.items.clone(),
            }
        }
    }

    #[test]
    fn each_scoring_pass_sees_the_weights_as_they_are_then() {
        let rec = NeuralRecommender::new(
            Table {
                items: Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[4, 2]),
            },
            crate::TrainConfig::fast(),
        );
        let sessions: Vec<Session> = (0..5)
            .map(|i| Session {
                id: i,
                events: vec![MicroBehavior::new(i as u32 % 4, 0)],
            })
            .collect();
        let refs: Vec<&Session> = sessions.iter().collect();
        let pass = |rec: &NeuralRecommender<Table>| {
            let mut rows = vec![Vec::new(); refs.len()];
            rec.visit_scores(&refs, 2, &mut |i, row| rows[i] = row.to_vec());
            rows
        };
        let first = pass(&rec);
        for (s, row) in sessions.iter().zip(&first) {
            assert_eq!(row, &rec.scores(s));
        }
        // new weights between passes: the second pass is scored with them
        rec.model
            .items
            .set_data(&[3.0, -1.0, 0.5, 2.0, -2.0, 1.0, 4.0, 0.25]);
        let second = pass(&rec);
        for (i, (s, row)) in sessions.iter().zip(&second).enumerate() {
            assert_eq!(row, &rec.scores(s), "session {i}");
            assert_ne!(row, &first[i], "session {i} kept the old weights");
        }
        assert_eq!(rec.scores_batch(&refs), second);
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
