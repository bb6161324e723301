//! The shared mini-batch training loop.

use embsr_sessions::{Example, Session};
use embsr_tensor::{clip_grad_norm, Adam, AdamConfig, Optimizer, Rng, Tensor};

use crate::config::TrainConfig;
use crate::recommender::SessionModel;

/// Per-epoch statistics.
#[derive(Clone, Debug)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_loss: f32,
    pub val_loss: f32,
    /// Wall-clock seconds the epoch took (batches + validation pass).
    pub duration_s: f64,
    /// Pre-clip global gradient norm of the epoch's last batch; NaN when
    /// gradient clipping is disabled (the norm is a by-product of clipping).
    pub grad_norm: f32,
    /// Learning rate the epoch ran at.
    pub lr: f32,
}

/// Outcome of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
    /// Epoch index with the best validation loss.
    pub best_epoch: usize,
    /// True when training ended before `cfg.epochs` due to patience.
    pub early_stopped: bool,
    /// Findings of the autograd graph validator on the first batch's loss
    /// graph (empty when the graph is clean or validation is disabled via
    /// [`TrainConfig::validate_graph`]). Each entry is the rendered form of
    /// an [`embsr_tensor::verify::Diagnostic`].
    pub graph_diagnostics: Vec<String>,
}

impl TrainReport {
    /// Final training loss (NaN when no epochs ran).
    pub fn final_train_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.train_loss)
    }
}

/// Keeps the most recent `max_len` micro-behaviors of a session.
///
/// Long sessions dominate runtime quadratically through attention; the paper
/// caps session length in preprocessing, we cap at training time with the
/// same effect.
pub fn truncate_session(session: &Session, max_len: usize) -> Session {
    if session.len() <= max_len {
        return session.clone();
    }
    Session {
        id: session.id,
        events: session.events[session.len() - max_len..].to_vec(),
    }
}

/// Per-epoch wall-clock attribution across the batch-loop phases
/// (forward, backward, gradient reduce, optimizer step). Accumulation is
/// timing-only — the batch math is identical whether or not metrics are on —
/// and [`PhaseTimes::observe`] records one histogram sample per phase per
/// epoch (`train.phase.*_us`) plus a field-carrying debug event.
#[derive(Default)]
pub(crate) struct PhaseTimes {
    pub forward_us: u64,
    pub backward_us: u64,
    pub reduce_us: u64,
    pub optimizer_us: u64,
}

impl PhaseTimes {
    pub(crate) fn observe(&self, epoch: usize) {
        if !embsr_obs::metrics::enabled() {
            return;
        }
        embsr_obs::metrics::histogram("train.phase.forward_us").record(self.forward_us);
        embsr_obs::metrics::histogram("train.phase.backward_us").record(self.backward_us);
        embsr_obs::metrics::histogram("train.phase.reduce_us").record(self.reduce_us);
        embsr_obs::metrics::histogram("train.phase.optimizer_us").record(self.optimizer_us);
        if embsr_obs::log_enabled(embsr_obs::Level::Debug) {
            embsr_obs::dispatch(
                embsr_obs::Level::Debug,
                "embsr_train",
                format_args!("epoch {epoch} phase attribution"),
                &[
                    ("forward_us", self.forward_us as f64),
                    ("backward_us", self.backward_us as f64),
                    ("reduce_us", self.reduce_us as f64),
                    ("optimizer_us", self.optimizer_us as f64),
                ],
            );
        }
    }
}

/// Mini-batch Adam trainer for any [`SessionModel`].
pub struct Trainer {
    cfg: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg }
    }

    /// Trains `model` in place and returns per-epoch statistics.
    ///
    /// Sessions shorter than one macro item are skipped defensively (the
    /// dataset pipeline already filters them).
    pub fn fit<M: SessionModel>(&self, model: &M, train: &[Example], val: &[Example]) -> TrainReport {
        let cfg = &self.cfg;
        let _fit_span = embsr_obs::span("embsr_train", "fit");
        embsr_obs::info!(
            target: "embsr_train",
            "fit start: model={} train={} val={} epochs={} lr={}",
            model.name(),
            train.len(),
            val.len(),
            cfg.epochs,
            cfg.lr
        );
        let params = model.parameters();
        let mut opt = Adam::new(
            params.clone(),
            AdamConfig {
                lr: cfg.lr,
                weight_decay: cfg.weight_decay,
                ..Default::default()
            },
        );
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..train.len()).collect();

        // Optionally subsample validation for the early-stopping signal.
        let val_take = ((val.len() as f32 * cfg.val_fraction).ceil() as usize).min(val.len());
        let val_slice = &val[..val_take];

        let mut report = TrainReport::default();
        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;
        // Snapshot of the best-validation parameters; restored at the end so
        // `fit` returns the checkpoint the paper's protocol would select.
        let mut best_weights: Option<Vec<Vec<f32>>> = None;

        for epoch in 0..cfg.epochs {
            let epoch_span = embsr_obs::span("embsr_train", "epoch");
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut seen = 0usize;
            let mut last_grad_norm = f32::NAN;
            // One stopwatch per batch with cumulative marks: the phases are
            // attributed by subtraction, never by restarting clocks inside
            // the hot loop. Timing only — identical math when metrics are off.
            let timing = embsr_obs::metrics::enabled();
            let mut phases = PhaseTimes::default();
            for chunk in order.chunks(cfg.batch_size) {
                let _batch_span =
                    embsr_obs::span("embsr_train", "batch").with_close_level(embsr_obs::Level::Trace);
                let watch = timing.then(embsr_obs::Stopwatch::start);
                opt.zero_grad();
                let mut batch_losses: Vec<Tensor> = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let ex = &train[i];
                    if ex.session.is_empty() {
                        continue;
                    }
                    let sess = truncate_session(&ex.session, cfg.max_session_len);
                    let logits = model.logits(&sess, true, &mut rng);
                    batch_losses.push(logits.cross_entropy_single(ex.target as usize));
                }
                let forward_mark = watch.map_or(0, |w| w.elapsed_us());
                let n = batch_losses.len() as f32;
                let Some(batch_sum) = batch_losses.into_iter().reduce(|a, b| a.add(&b)) else {
                    continue; // every session in the chunk was empty
                };
                let loss = batch_sum.mul_scalar(1.0 / n);
                if cfg.validate_graph && epoch == 0 && seen == 0 {
                    report.graph_diagnostics = validate_loss_graph(&loss, &params);
                }
                epoch_loss += loss.item() as f64 * n as f64;
                seen += n as usize;
                let reduce_mark = watch.map_or(0, |w| w.elapsed_us());
                loss.backward();
                let backward_mark = watch.map_or(0, |w| w.elapsed_us());
                if let Some(max) = cfg.clip_norm {
                    last_grad_norm = clip_grad_norm(&params, max);
                }
                opt.step();
                if let Some(w) = watch {
                    phases.forward_us += forward_mark;
                    phases.reduce_us += reduce_mark - forward_mark;
                    phases.backward_us += backward_mark - reduce_mark;
                    phases.optimizer_us += w.elapsed_us() - backward_mark;
                }
                if embsr_obs::metrics::enabled() {
                    embsr_obs::metrics::counter("train.batches").inc();
                    embsr_obs::metrics::counter("train.examples_seen").add(n as u64);
                }
            }
            phases.observe(epoch);
            let train_loss = (epoch_loss / seen.max(1) as f64) as f32;
            let val_loss = self.eval_loss(model, val_slice);
            let duration_s = epoch_span.elapsed().as_secs_f64();
            drop(epoch_span);
            embsr_obs::debug!(
                target: "embsr_train",
                "epoch {epoch}: train_loss={train_loss:.4} val_loss={val_loss:.4} \
                 grad_norm={last_grad_norm:.3} duration_s={duration_s:.3}"
            );
            report.epochs.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                duration_s,
                grad_norm: last_grad_norm,
                lr: cfg.lr,
            });
            if val_loss < best_val || val_loss.is_nan() {
                best_val = val_loss;
                report.best_epoch = epoch;
                since_best = 0;
                if !val_loss.is_nan() {
                    best_weights = Some(params.iter().map(Tensor::to_vec).collect());
                }
            } else {
                since_best += 1;
                if let Some(p) = cfg.patience {
                    if since_best > p {
                        report.early_stopped = true;
                        embsr_obs::info!(
                            target: "embsr_train",
                            "early stop at epoch {epoch}: no val improvement for {since_best} epochs \
                             (best epoch {})",
                            report.best_epoch
                        );
                        break;
                    }
                }
            }
        }
        // Restore the best-validation checkpoint (when validation data was
        // available and at least one epoch improved on it).
        if let Some(snapshot) = best_weights {
            for (p, w) in params.iter().zip(&snapshot) {
                p.set_data(w);
            }
        }
        report
    }

    /// Mean cross-entropy over a set of examples without building graphs.
    ///
    /// Runs on the inference path ([`SessionModel::logits_infer`] under
    /// [`embsr_tensor::inference_mode`]): dropout is off, no RNG is
    /// consumed, and no autograd tape is recorded.
    pub fn eval_loss<M: SessionModel>(&self, model: &M, examples: &[Example]) -> f32 {
        if examples.is_empty() {
            return f32::NAN;
        }
        embsr_tensor::inference_mode(|| {
            let mut total = 0.0f64;
            let mut n = 0usize;
            for ex in examples {
                if ex.session.is_empty() {
                    continue;
                }
                let sess = truncate_session(&ex.session, self.cfg.max_session_len);
                let logits = model.logits_infer(&sess);
                total += logits.cross_entropy_single(ex.target as usize).item() as f64;
                n += 1;
            }
            (total / n.max(1) as f64) as f32
        })
    }
}

/// Runs the graph validator on a loss graph and renders its findings.
/// Shared by [`Trainer`] and [`crate::ParallelTrainer`] (both validate the
/// first batch of a fresh run). Errors (detached parameters, shape
/// inconsistencies) are logged at warn level so a misconfigured model is
/// loud even when the caller never inspects the report.
pub(crate) fn validate_loss_graph(loss: &Tensor, params: &[Tensor]) -> Vec<String> {
    let report = embsr_tensor::verify::validate_training_graph(loss, params, &[]);
    embsr_obs::debug!(
        target: "embsr_train",
        "graph validation: {} nodes, {} error(s), {} warning(s)",
        report.nodes_visited,
        report.error_count(),
        report.warning_count()
    );
    for d in &report.diagnostics {
        if d.severity == embsr_tensor::verify::Severity::Error {
            embsr_obs::warn!(target: "embsr_train", "graph validation: {d}");
        }
    }
    report.diagnostics.iter().map(|d| d.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Head, Scorer};
    use embsr_sessions::MicroBehavior;
    use embsr_tensor::uniform_init;

    /// A minimal trainable model: a factorized bigram. The last item's
    /// context row is dot-scored against an item table. Enough structure to
    /// verify that the loop actually reduces the loss.
    struct Bigram {
        context: Tensor, // [V, d]
        items: Tensor,   // [V, d]
    }

    impl Bigram {
        fn new(v: usize, rng: &mut Rng) -> Self {
            Bigram {
                context: uniform_init(&[v, 4], rng),
                items: uniform_init(&[v, 4], rng),
            }
        }
    }

    impl SessionModel for Bigram {
        fn name(&self) -> &str {
            "Bigram"
        }
        fn num_items(&self) -> usize {
            self.items.rows()
        }
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.context.clone(), self.items.clone()]
        }
        fn repr(&self, s: &Session, _t: bool, _r: &mut Rng) -> Tensor {
            let last = s.events.last().expect("non-empty").item as usize;
            self.context.row(last)
        }
        fn head(&self) -> Head {
            Head {
                scorer: Scorer::Dot,
                items: self.items.clone(),
            }
        }
    }

    fn make_examples(pairs: &[(u32, u32)]) -> Vec<Example> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| Example {
                session: Session {
                    id: i as u64,
                    events: vec![MicroBehavior::new(from, 0)],
                },
                target: to,
            })
            .collect()
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        // deterministic transitions 0->1, 1->2, 2->0
        let exs = make_examples(&[(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)]);
        let model = Bigram::new(3, &mut Rng::seed_from_u64(0));
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 4,
            lr: 0.1,
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&model, &exs, &exs);
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.final_train_loss();
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn early_stopping_triggers_on_stagnation() {
        // random targets can't be learned from a 1-item vocabulary signal
        let exs = make_examples(&[(0, 1), (0, 2), (0, 3), (0, 1), (0, 2), (0, 3)]);
        let model = Bigram::new(4, &mut Rng::seed_from_u64(1));
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            batch_size: 2,
            lr: 0.5,
            patience: Some(1),
            ..Default::default()
        });
        let report = trainer.fit(&model, &exs, &exs);
        assert!(report.epochs.len() < 50, "never early-stopped");
    }

    #[test]
    fn truncate_keeps_most_recent() {
        let s = Session::from_pairs(0, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let t = truncate_session(&s, 2);
        assert_eq!(t.items().collect::<Vec<_>>(), vec![3, 4]);
        // below cap: untouched
        assert_eq!(truncate_session(&s, 10).len(), 4);
    }

    /// A Bigram with an extra parameter its forward pass never touches —
    /// the misconfiguration the graph validator exists to catch.
    struct DetachedBigram {
        inner: Bigram,
        orphan: Tensor,
    }

    impl SessionModel for DetachedBigram {
        fn name(&self) -> &str {
            "DetachedBigram"
        }
        fn num_items(&self) -> usize {
            self.inner.num_items()
        }
        fn parameters(&self) -> Vec<Tensor> {
            let mut p = self.inner.parameters();
            p.push(self.orphan.clone());
            p
        }
        fn repr(&self, s: &Session, t: bool, r: &mut Rng) -> Tensor {
            self.inner.repr(s, t, r)
        }
        fn head(&self) -> Head {
            self.inner.head()
        }
    }

    #[test]
    fn fit_flags_detached_parameter_in_report() {
        let exs = make_examples(&[(0, 1), (1, 2), (2, 0)]);
        let model = DetachedBigram {
            inner: Bigram::new(3, &mut Rng::seed_from_u64(3)),
            orphan: Tensor::zeros(&[4, 4]).requires_grad(),
        };
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::fast()
        });
        let report = trainer.fit(&model, &exs, &exs);
        let detached: Vec<&String> = report
            .graph_diagnostics
            .iter()
            .filter(|d| d.contains("detached-param"))
            .collect();
        assert_eq!(detached.len(), 1, "{:?}", report.graph_diagnostics);
    }

    #[test]
    fn fit_reports_clean_graph_for_healthy_model() {
        let exs = make_examples(&[(0, 1), (1, 2), (2, 0)]);
        let model = Bigram::new(3, &mut Rng::seed_from_u64(4));
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::fast()
        });
        let report = trainer.fit(&model, &exs, &exs);
        assert!(
            report.graph_diagnostics.is_empty(),
            "{:?}",
            report.graph_diagnostics
        );
    }

    #[test]
    fn graph_validation_can_be_disabled() {
        let exs = make_examples(&[(0, 1)]);
        let model = DetachedBigram {
            inner: Bigram::new(2, &mut Rng::seed_from_u64(5)),
            orphan: Tensor::zeros(&[2]).requires_grad(),
        };
        let trainer = Trainer::new(TrainConfig {
            epochs: 1,
            validate_graph: false,
            ..TrainConfig::fast()
        });
        let report = trainer.fit(&model, &exs, &exs);
        assert!(report.graph_diagnostics.is_empty());
    }

    #[test]
    fn eval_loss_handles_empty_sets() {
        let model = Bigram::new(2, &mut Rng::seed_from_u64(2));
        let trainer = Trainer::new(TrainConfig::fast());
        assert!(trainer.eval_loss(&model, &[]).is_nan());
    }
}
