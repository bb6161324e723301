//! Data-parallel mini-batch training with a deterministic gradient
//! reduction.
//!
//! The autograd graph is `Rc`-based and single-threaded by design, so this
//! trainer parallelizes *across model replicas*: every worker thread builds
//! its own replica (via a caller-supplied factory, so no tensor ever crosses
//! a thread boundary), receives the master's parameters as a flat `Vec<f32>`
//! snapshot, runs forward/backward on its assigned gradient shards, and
//! sends flat gradient buffers back. The master combines shard gradients
//! with [`embsr_tensor::tree_reduce`] and takes one Adam step per
//! mini-batch, exactly like the sequential [`Trainer`].
//!
//! ## Why the result is bitwise thread-invariant
//!
//! At a fixed seed, final parameters, per-epoch losses and evaluation
//! metrics are **bitwise identical for any `train_threads`**, because the
//! thread count never influences what is computed — only who computes it:
//!
//! 1. every mini-batch is split into [`TrainConfig::grad_shards`] contiguous
//!    shards — a function of batch size and shard count only, never of the
//!    thread count;
//! 2. dropout RNG is derived per example from `(seed, epoch, position in the
//!    shuffled epoch order)`, so an example draws the same noise no matter
//!    which worker (or how many workers) processes it;
//! 3. the master slots incoming shard gradients **by shard index** and sums
//!    them with a fixed-order pairwise tree reduction, so float rounding
//!    does not depend on worker completion order;
//! 4. everything else — shuffling, the Adam step, validation — runs
//!    sequentially on the master thread from derived seeds.
//!
//! `tests/thread_invariance.rs` proves the claim for the full EMBSR model;
//! `DESIGN.md` §10 gives the longer argument.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use embsr_pool::run_with_workers;
use embsr_sessions::Example;
use embsr_tensor::{
    clip_grad_norm, export_grads, export_params, flat_len, import_grads, import_params,
    tree_reduce, Adam, AdamConfig, AdamParamState, Optimizer, Rng, Tensor,
};

use crate::config::TrainConfig;
use crate::recommender::SessionModel;
use crate::trainer::{
    truncate_session, validate_loss_graph, EpochStats, PhaseTimes, TrainReport, Trainer,
};

// Stream tags keeping the derived RNG streams disjoint. Values are
// arbitrary odd constants; only distinctness matters.
const STREAM_SHUFFLE: u64 = 0x9163_2D4A_F05B_ED31;
const STREAM_DROPOUT: u64 = 0x4C15_7B89_A2E6_0D17;

/// One round of the splitmix64 output function — a cheap, well-mixed hash
/// used to derive independent seeds from `(seed, stream, a, b)` tuples.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for `(stream, a, b)` under `seed`.
///
/// Replacing one sequential RNG with derived per-(epoch, example) streams is
/// what makes both thread invariance and exact checkpoint resume possible:
/// no RNG state needs to be threaded through the batch loop or serialized.
fn derive_seed(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    splitmix(splitmix(splitmix(seed ^ stream) ^ a) ^ b)
}

/// One gradient shard's worth of work: `(train index, epoch position)`
/// pairs. The epoch position seeds the example's dropout stream.
struct ShardTask {
    shard_idx: usize,
    epoch: u64,
    examples: Vec<(usize, u64)>,
}

/// A mini-batch's work for one worker: the parameter snapshot to load plus
/// the shards assigned to that worker.
struct BatchTask {
    params: Arc<Vec<f32>>,
    shards: Vec<ShardTask>,
}

/// A worker's result for one shard.
struct ShardGrad {
    shard_idx: usize,
    grads: Vec<f32>,
    /// Sum of per-example losses over the shard (f64 so the master's
    /// epoch-loss fold is insensitive to batch count).
    loss_sum: f64,
    /// Non-empty examples the shard actually contributed.
    examples: usize,
    /// Wall-clock the worker spent in the forward pass (0 when metrics are
    /// off). Timing only — never feeds back into the numerics.
    forward_us: u64,
    /// Wall-clock the worker spent in backward + gradient export.
    backward_us: u64,
}

/// Resumable snapshot of a [`ParallelTrainer`] run, captured after the last
/// completed epoch and *before* the best-validation weight restore.
///
/// Serialize with [`crate::save_train_state`] / [`crate::load_train_state`].
/// Resuming requires the same `TrainConfig` (except `train_threads`, which
/// never affects results) and the same data order; the trainer asserts the
/// parameter layout matches.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// First epoch the resumed run should execute.
    pub next_epoch: usize,
    /// Flat per-parameter data at capture time (the *current* weights, not
    /// the best-validation snapshot — training continues from these).
    pub params: Vec<Vec<f32>>,
    /// Adam step counter.
    pub adam_t: u64,
    /// Adam first/second moments per parameter.
    pub adam_moments: Vec<AdamParamState>,
    /// Best validation loss seen so far.
    pub best_val: f32,
    /// Epochs since the best validation loss (patience counter).
    pub since_best: usize,
    /// Epoch index that produced `best_val`.
    pub best_epoch: usize,
    /// Whether patience already stopped the run (resume is then a no-op).
    pub early_stopped: bool,
    /// Parameter snapshot at the best-validation epoch, when one exists.
    pub best_weights: Option<Vec<Vec<f32>>>,
    /// Per-epoch statistics of all completed epochs.
    pub epochs: Vec<EpochStats>,
}

/// Data-parallel counterpart of [`Trainer`]: same protocol (Adam, gradient
/// clipping, patience, best-weight restore), with each mini-batch's
/// forward/backward fanned out over [`TrainConfig::train_threads`] replica
/// workers.
pub struct ParallelTrainer {
    cfg: TrainConfig,
}

impl ParallelTrainer {
    /// Creates a parallel trainer with the given configuration.
    pub fn new(cfg: TrainConfig) -> Self {
        ParallelTrainer { cfg }
    }

    /// Trains `model` in place and returns per-epoch statistics.
    ///
    /// `make_replica` must build a model with the same parameter layout as
    /// `model` (typically the same constructor and config); replica weights
    /// are overwritten from the master before every batch, so the factory's
    /// own initialization never influences the result.
    pub fn fit<M, F>(
        &self,
        model: &M,
        make_replica: F,
        train: &[Example],
        val: &[Example],
    ) -> TrainReport
    where
        M: SessionModel,
        F: Fn() -> M + Sync,
    {
        self.fit_from(model, make_replica, train, val, None).0
    }

    /// [`ParallelTrainer::fit`], optionally resuming from a mid-training
    /// [`TrainState`]. Returns the report together with the state after the
    /// final completed epoch, so callers can checkpoint long runs:
    ///
    /// train `k` epochs (`cfg.epochs = k`) → save the returned state →
    /// later, load it and call `fit_from` with the full epoch budget. The
    /// resumed run is bitwise identical to an uninterrupted one, for any
    /// combination of `train_threads` values on either side.
    pub fn fit_from<M, F>(
        &self,
        model: &M,
        make_replica: F,
        train: &[Example],
        val: &[Example],
        resume: Option<TrainState>,
    ) -> (TrainReport, TrainState)
    where
        M: SessionModel,
        F: Fn() -> M + Sync,
    {
        let cfg = &self.cfg;
        let threads = cfg.train_threads.max(1);
        let shards_per_batch = cfg.grad_shards.max(1);
        let _fit_span = embsr_obs::span("embsr_train", "parallel_fit");
        embsr_obs::info!(
            target: "embsr_train",
            "parallel fit start: model={} train={} val={} epochs={} lr={} threads={} shards={}",
            model.name(),
            train.len(),
            val.len(),
            cfg.epochs,
            cfg.lr,
            threads,
            shards_per_batch
        );

        let params = model.parameters();
        let n_flat = flat_len(&params);
        let mut opt = Adam::new(
            params.clone(),
            AdamConfig {
                lr: cfg.lr,
                weight_decay: cfg.weight_decay,
                ..Default::default()
            },
        );

        let mut report = TrainReport::default();
        let mut best_val = f32::INFINITY;
        let mut since_best = 0usize;
        let mut best_weights: Option<Vec<Vec<f32>>> = None;
        let mut start_epoch = 0usize;

        if let Some(state) = resume {
            assert_eq!(
                state.params.len(),
                params.len(),
                "resume state has a different parameter count"
            );
            for (p, w) in params.iter().zip(&state.params) {
                p.set_data(w);
            }
            let restored = opt.import_state(state.adam_t, state.adam_moments);
            assert!(restored.is_ok(), "resume rejected: {:?}", restored.err());
            best_val = state.best_val;
            since_best = state.since_best;
            best_weights = state.best_weights;
            start_epoch = state.next_epoch;
            report.best_epoch = state.best_epoch;
            report.early_stopped = state.early_stopped;
            report.epochs = state.epochs;
        }

        // Validate the first batch's loss graph sequentially on the master
        // model (forward only — no gradients or RNG state leak into the
        // run). Resumed runs already validated when they started.
        if cfg.validate_graph && start_epoch == 0 && !report.early_stopped {
            if let Some(loss) = self.first_batch_loss(model, train) {
                report.graph_diagnostics = validate_loss_graph(&loss, &params);
            }
        }

        let run_epochs = !report.early_stopped && start_epoch < cfg.epochs;
        if run_epochs {
            // Per-worker connections: each worker takes (task receiver,
            // result sender) by its id; the master keeps the task senders
            // (dropping them is the shutdown signal) and the one result
            // receiver.
            let (result_tx, result_rx) = channel::<ShardGrad>();
            let mut task_txs: Vec<Sender<BatchTask>> = Vec::with_capacity(threads);
            let mut conn_slots: Vec<Option<(Receiver<BatchTask>, Sender<ShardGrad>)>> =
                Vec::with_capacity(threads);
            for _ in 0..threads {
                let (tx, rx) = channel::<BatchTask>();
                task_txs.push(tx);
                conn_slots.push(Some((rx, result_tx.clone())));
            }
            drop(result_tx);
            let conns = Mutex::new(conn_slots);

            let val_take = ((val.len() as f32 * cfg.val_fraction).ceil() as usize).min(val.len());
            let val_slice = &val[..val_take];
            let seq = Trainer::new(cfg.clone());

            let worker = |w: usize| {
                let _worker_span = embsr_obs::span("embsr_train", "worker");
                let conn = {
                    let mut slots = match conns.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    slots[w].take()
                };
                let Some((rx, tx)) = conn else { return };
                let replica = make_replica();
                let rparams = replica.parameters();
                assert_eq!(
                    flat_len(&rparams),
                    n_flat,
                    "replica parameter layout differs from the master model"
                );
                while let Ok(task) = rx.recv() {
                    let _batch_span = embsr_obs::span("embsr_train", "worker_batch")
                        .with_close_level(embsr_obs::Level::Trace);
                    import_params(&rparams, &task.params);
                    for shard in task.shards {
                        let watch =
                            embsr_obs::metrics::enabled().then(embsr_obs::Stopwatch::start);
                        for p in &rparams {
                            p.zero_grad();
                        }
                        let mut losses: Vec<Tensor> = Vec::with_capacity(shard.examples.len());
                        for &(train_idx, pos) in &shard.examples {
                            let ex = &train[train_idx];
                            if ex.session.is_empty() {
                                continue;
                            }
                            let sess = truncate_session(&ex.session, cfg.max_session_len);
                            let mut ex_rng = Rng::seed_from_u64(derive_seed(
                                cfg.seed,
                                STREAM_DROPOUT,
                                shard.epoch,
                                pos,
                            ));
                            let logits = replica.logits(&sess, true, &mut ex_rng);
                            losses.push(logits.cross_entropy_single(ex.target as usize));
                        }
                        let forward_mark = watch.map_or(0, |w| w.elapsed_us());
                        let examples = losses.len();
                        let (grads, loss_sum) =
                            match losses.into_iter().reduce(|a, b| a.add(&b)) {
                                Some(sum) => {
                                    let v = sum.item() as f64;
                                    sum.backward();
                                    (export_grads(&rparams), v)
                                }
                                // Every session in the shard was empty: a
                                // zero buffer keeps the reduction shape.
                                None => (vec![0.0f32; n_flat], 0.0),
                            };
                        let (forward_us, backward_us) = match watch {
                            Some(w) => (forward_mark, w.elapsed_us() - forward_mark),
                            None => (0, 0),
                        };
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter("train.parallel.shards").inc();
                        }
                        let sent = tx.send(ShardGrad {
                            shard_idx: shard.shard_idx,
                            grads,
                            loss_sum,
                            examples,
                            forward_us,
                            backward_us,
                        });
                        if sent.is_err() {
                            return; // master is gone; nothing left to do
                        }
                    }
                }
            };

            let master = |signal: &embsr_pool::AbortSignal| -> Result<(), String> {
                for epoch in start_epoch..cfg.epochs {
                    let epoch_span = embsr_obs::span("embsr_train", "epoch");
                    // Fresh identity order shuffled from a per-epoch derived
                    // seed: epoch k's order is independent of history, which
                    // is what lets a resumed run replay it exactly.
                    let mut order: Vec<usize> = (0..train.len()).collect();
                    let mut shuffle_rng = Rng::seed_from_u64(derive_seed(
                        cfg.seed,
                        STREAM_SHUFFLE,
                        epoch as u64,
                        0,
                    ));
                    shuffle_rng.shuffle(&mut order);
                    let indexed: Vec<(usize, u64)> = order
                        .iter()
                        .enumerate()
                        .map(|(pos, &i)| (i, pos as u64))
                        .collect();

                    let mut epoch_loss = 0.0f64;
                    let mut seen = 0usize;
                    let mut last_grad_norm = f32::NAN;
                    // Phase attribution: workers report forward/backward time
                    // per shard, the master times reduce and optimizer here.
                    let timing = embsr_obs::metrics::enabled();
                    let mut phases = PhaseTimes::default();
                    for chunk in indexed.chunks(cfg.batch_size) {
                        let _batch_span = embsr_obs::span("embsr_train", "batch")
                            .with_close_level(embsr_obs::Level::Trace);
                        let shards = split_into_shards(chunk, shards_per_batch);
                        let shard_count = shards.len();
                        let snapshot = Arc::new(export_params(&params));
                        let mut per_worker: Vec<Vec<ShardTask>> =
                            (0..threads).map(|_| Vec::new()).collect();
                        for (shard_idx, examples) in shards.into_iter().enumerate() {
                            per_worker[shard_idx % threads].push(ShardTask {
                                shard_idx,
                                epoch: epoch as u64,
                                examples,
                            });
                        }
                        let mut expected = 0usize;
                        for (w, worker_shards) in per_worker.into_iter().enumerate() {
                            if worker_shards.is_empty() {
                                continue;
                            }
                            expected += worker_shards.len();
                            let sent = task_txs[w].send(BatchTask {
                                params: snapshot.clone(),
                                shards: worker_shards,
                            });
                            if sent.is_err() {
                                return Err(format!("worker {w} is gone"));
                            }
                        }

                        // Collect shard results in any arrival order, slot
                        // them by shard index, and poll the abort signal so
                        // a dead worker fails the run instead of hanging it.
                        let mut slots: Vec<Option<ShardGrad>> =
                            (0..shard_count).map(|_| None).collect();
                        let mut received = 0usize;
                        while received < expected {
                            match result_rx.recv_timeout(Duration::from_millis(50)) {
                                Ok(sg) => {
                                    let idx = sg.shard_idx;
                                    slots[idx] = Some(sg);
                                    received += 1;
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    if signal.is_aborted() {
                                        return Err("a training worker panicked".to_string());
                                    }
                                }
                                Err(RecvTimeoutError::Disconnected) => {
                                    return Err("all training workers exited".to_string());
                                }
                            }
                        }

                        let mut n_examples = 0usize;
                        let mut batch_loss = 0.0f64;
                        let mut buffers: Vec<Vec<f32>> = Vec::with_capacity(shard_count);
                        for slot in slots {
                            match slot {
                                Some(sg) => {
                                    n_examples += sg.examples;
                                    batch_loss += sg.loss_sum;
                                    phases.forward_us += sg.forward_us;
                                    phases.backward_us += sg.backward_us;
                                    buffers.push(sg.grads);
                                }
                                None => return Err("missing shard result".to_string()),
                            }
                        }
                        if n_examples == 0 {
                            continue; // every session in the batch was empty
                        }
                        let watch = timing.then(embsr_obs::Stopwatch::start);
                        let mut reduced = tree_reduce(buffers);
                        // Workers backprop the loss *sum*; normalize to the
                        // batch mean here, once, in one deterministic pass.
                        let scale = 1.0 / n_examples as f32;
                        for g in &mut reduced {
                            *g *= scale;
                        }
                        import_grads(&params, &reduced);
                        let reduce_mark = watch.map_or(0, |w| w.elapsed_us());
                        if let Some(max) = cfg.clip_norm {
                            last_grad_norm = clip_grad_norm(&params, max);
                        }
                        opt.step();
                        if let Some(w) = watch {
                            phases.reduce_us += reduce_mark;
                            phases.optimizer_us += w.elapsed_us() - reduce_mark;
                        }
                        epoch_loss += batch_loss;
                        seen += n_examples;
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter("train.batches").inc();
                            embsr_obs::metrics::counter("train.examples_seen")
                                .add(n_examples as u64);
                        }
                    }

                    phases.observe(epoch);
                    let train_loss = (epoch_loss / seen.max(1) as f64) as f32;
                    let val_loss = seq.eval_loss(model, val_slice);
                    let duration_s = epoch_span.elapsed().as_secs_f64();
                    drop(epoch_span);
                    embsr_obs::debug!(
                        target: "embsr_train",
                        "epoch {epoch}: train_loss={train_loss:.4} val_loss={val_loss:.4} \
                         grad_norm={last_grad_norm:.3} duration_s={duration_s:.3} threads={threads}"
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
                                    "early stop at epoch {epoch}: no val improvement for \
                                     {since_best} epochs (best epoch {})",
                                    report.best_epoch
                                );
                                break;
                            }
                        }
                    }
                }
                // Dropping the task senders is the shutdown signal: workers
                // see a closed channel and exit, letting the pool join them.
                drop(task_txs);
                Ok(())
            };

            let master_out = run_with_workers(threads, worker, master);
            match master_out {
                Ok(()) => {}
                // A master error is always the downstream symptom of a
                // worker panic, and `run_with_workers` re-raises worker
                // panics before returning — so this arm cannot be reached.
                Err(e) => unreachable!("parallel master failed without a worker panic: {e}"),
            }
        }

        // Snapshot the resumable state *before* the best-weight restore:
        // training continues from the current weights, not the best ones.
        let (adam_t, adam_moments) = opt.export_state();
        let state = TrainState {
            next_epoch: report.epochs.len(),
            params: params.iter().map(Tensor::to_vec).collect(),
            adam_t,
            adam_moments,
            best_val,
            since_best,
            best_epoch: report.best_epoch,
            early_stopped: report.early_stopped,
            best_weights: best_weights.clone(),
            epochs: report.epochs.clone(),
        };
        if let Some(snapshot) = best_weights {
            for (p, w) in params.iter().zip(&snapshot) {
                p.set_data(w);
            }
        }
        (report, state)
    }

    /// Builds epoch 0's first-batch mean loss on the master model (forward
    /// only), replaying exactly the shuffle and dropout streams the workers
    /// will use, so the graph validator sees the graph that will train.
    fn first_batch_loss<M: SessionModel>(&self, model: &M, train: &[Example]) -> Option<Tensor> {
        let cfg = &self.cfg;
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut shuffle_rng =
            Rng::seed_from_u64(derive_seed(cfg.seed, STREAM_SHUFFLE, 0, 0));
        shuffle_rng.shuffle(&mut order);
        let chunk = &order[..cfg.batch_size.min(order.len())];
        let mut losses: Vec<Tensor> = Vec::with_capacity(chunk.len());
        for (pos, &i) in chunk.iter().enumerate() {
            let ex = &train[i];
            if ex.session.is_empty() {
                continue;
            }
            let sess = truncate_session(&ex.session, cfg.max_session_len);
            let mut ex_rng =
                Rng::seed_from_u64(derive_seed(cfg.seed, STREAM_DROPOUT, 0, pos as u64));
            let logits = model.logits(&sess, true, &mut ex_rng);
            losses.push(logits.cross_entropy_single(ex.target as usize));
        }
        let n = losses.len() as f32;
        losses
            .into_iter()
            .reduce(|a, b| a.add(&b))
            .map(|sum| sum.mul_scalar(1.0 / n))
    }
}

/// Splits a batch into at most `max_shards` contiguous, near-equal shards
/// (never more shards than examples). The split depends only on the chunk
/// and the shard budget — deliberately *not* on the thread count.
fn split_into_shards(chunk: &[(usize, u64)], max_shards: usize) -> Vec<Vec<(usize, u64)>> {
    if chunk.is_empty() {
        return Vec::new();
    }
    let shards = max_shards.min(chunk.len());
    let base = chunk.len() / shards;
    let rem = chunk.len() % shards;
    let mut out = Vec::with_capacity(shards);
    let mut offset = 0usize;
    for s in 0..shards {
        let take = base + usize::from(s < rem);
        out.push(chunk[offset..offset + take].to_vec());
        offset += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Head, Scorer};
    use embsr_sessions::{MicroBehavior, Session};
    use embsr_tensor::uniform_init;

    /// A factorized bigram model (the last item's context row dot-scored
    /// against an item table) whose representation is perturbed by
    /// dropout-style noise during training, so the tests exercise the
    /// derived RNG streams, not just the gradient math.
    struct NoisyBigram {
        context: Tensor, // [V, d]
        items: Tensor,   // [V, d]
    }

    impl NoisyBigram {
        fn new(v: usize, seed: u64) -> Self {
            let mut rng = Rng::seed_from_u64(seed);
            NoisyBigram {
                context: uniform_init(&[v, 4], &mut rng),
                items: uniform_init(&[v, 4], &mut rng),
            }
        }
    }

    impl SessionModel for NoisyBigram {
        fn name(&self) -> &str {
            "NoisyBigram"
        }
        fn num_items(&self) -> usize {
            self.items.rows()
        }
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.context.clone(), self.items.clone()]
        }
        fn repr(&self, s: &Session, training: bool, rng: &mut Rng) -> Tensor {
            let last = match s.events.last() {
                Some(e) => e.item as usize,
                None => 0,
            };
            let row = self.context.row(last);
            if training {
                // multiplicative noise driven by the per-example stream
                row.mul_scalar(1.0 + rng.uniform_range(-0.05, 0.05))
            } else {
                row
            }
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

    fn cycle_examples(n: usize, v: u32) -> Vec<Example> {
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i % v, (i + 1) % v)).collect();
        make_examples(&pairs)
    }

    fn cfg(threads: usize) -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 0.05,
            patience: None,
            train_threads: threads,
            grad_shards: 4,
            ..Default::default()
        }
    }

    fn final_params_bits(threads: usize, seed: u64) -> (Vec<u32>, Vec<(u32, u32)>) {
        let exs = cycle_examples(24, 5);
        let model = NoisyBigram::new(5, seed);
        let trainer = ParallelTrainer::new(cfg(threads));
        let report = trainer.fit(&model, || NoisyBigram::new(5, seed), &exs, &exs);
        let bits = export_params(&model.parameters())
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let losses = report
            .epochs
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.val_loss.to_bits()))
            .collect();
        (bits, losses)
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let exs = cycle_examples(30, 3);
        let model = NoisyBigram::new(3, 0);
        let trainer = ParallelTrainer::new(TrainConfig {
            epochs: 25,
            batch_size: 8,
            lr: 0.1,
            patience: None,
            train_threads: 2,
            grad_shards: 4,
            ..Default::default()
        });
        let report = trainer.fit(&model, || NoisyBigram::new(3, 0), &exs, &exs);
        let first = report.epochs[0].train_loss;
        let last = report.final_train_loss();
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn final_params_are_bitwise_invariant_to_thread_count() {
        let (p1, l1) = final_params_bits(1, 7);
        for threads in [2, 3, 4] {
            let (pt, lt) = final_params_bits(threads, 7);
            assert_eq!(p1, pt, "params diverged at {threads} threads");
            assert_eq!(l1, lt, "losses diverged at {threads} threads");
        }
    }

    #[test]
    fn thread_invariance_holds_for_every_shard_count() {
        // grad_shards is part of the numerical recipe (it fixes the
        // reduction tree); train_threads must be irrelevant at *every*
        // shard count, including shards that don't divide the batch.
        let exs = cycle_examples(24, 5);
        let run = |threads: usize, shards: usize| {
            let model = NoisyBigram::new(5, 3);
            let trainer = ParallelTrainer::new(TrainConfig {
                grad_shards: shards,
                ..cfg(threads)
            });
            trainer.fit(&model, || NoisyBigram::new(5, 3), &exs, &exs);
            export_params(&model.parameters())
        };
        for shards in [1, 3, 8] {
            let base = run(1, shards);
            assert_eq!(base, run(4, shards), "threads changed the result at {shards} shards");
        }
    }

    #[test]
    fn empty_sessions_are_skipped_without_stepping() {
        let mut exs = cycle_examples(6, 3);
        for ex in &mut exs {
            ex.session.events.clear();
        }
        let model = NoisyBigram::new(3, 1);
        let before = export_params(&model.parameters());
        let trainer = ParallelTrainer::new(cfg(2));
        let report = trainer.fit(&model, || NoisyBigram::new(3, 1), &exs, &[]);
        assert_eq!(before, export_params(&model.parameters()));
        assert_eq!(report.epochs.len(), 3);
        assert!(report.epochs[0].train_loss == 0.0);
    }

    #[test]
    fn resume_matches_uninterrupted_run_across_thread_counts() {
        let exs = cycle_examples(24, 5);

        // Uninterrupted 4-epoch run at 1 thread.
        let full = NoisyBigram::new(5, 9);
        let full_cfg = TrainConfig { epochs: 4, ..cfg(1) };
        let (full_report, _) =
            ParallelTrainer::new(full_cfg).fit_from(&full, || NoisyBigram::new(5, 9), &exs, &exs, None);

        // 2 epochs at 3 threads, then resume for 4 total at 2 threads.
        let part = NoisyBigram::new(5, 9);
        let part_cfg = TrainConfig { epochs: 2, ..cfg(3) };
        let (_, state) =
            ParallelTrainer::new(part_cfg).fit_from(&part, || NoisyBigram::new(5, 9), &exs, &exs, None);
        assert_eq!(state.next_epoch, 2);
        let resumed_cfg = TrainConfig { epochs: 4, ..cfg(2) };
        let (resumed_report, _) = ParallelTrainer::new(resumed_cfg).fit_from(
            &part,
            || NoisyBigram::new(5, 9),
            &exs,
            &exs,
            Some(state),
        );

        assert_eq!(
            export_params(&full.parameters())
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            export_params(&part.parameters())
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "resumed parameters differ from the uninterrupted run"
        );
        assert_eq!(full_report.epochs.len(), resumed_report.epochs.len());
        for (a, b) in full_report.epochs.iter().zip(&resumed_report.epochs) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
        }
    }

    #[test]
    fn early_stopped_state_resumes_as_a_no_op() {
        let exs = make_examples(&[(0, 1), (0, 2), (0, 1), (0, 2)]);
        let model = NoisyBigram::new(3, 2);
        let trainer = ParallelTrainer::new(TrainConfig {
            epochs: 40,
            batch_size: 2,
            lr: 0.5,
            patience: Some(1),
            train_threads: 2,
            grad_shards: 2,
            ..Default::default()
        });
        let (report, state) = trainer.fit_from(&model, || NoisyBigram::new(3, 2), &exs, &exs, None);
        assert!(report.early_stopped, "stagnating run never early-stopped");
        let before = export_params(&model.parameters());
        let (report2, _) =
            trainer.fit_from(&model, || NoisyBigram::new(3, 2), &exs, &exs, Some(state));
        assert!(report2.early_stopped);
        assert_eq!(report2.epochs.len(), report.epochs.len());
        assert_eq!(before, export_params(&model.parameters()));
    }

    #[test]
    fn split_into_shards_is_contiguous_and_balanced() {
        let chunk: Vec<(usize, u64)> = (0..10).map(|i| (i, i as u64)).collect();
        let shards = split_into_shards(&chunk, 4);
        assert_eq!(shards.len(), 4);
        let sizes: Vec<usize> = shards.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let flat: Vec<(usize, u64)> = shards.into_iter().flatten().collect();
        assert_eq!(flat, chunk, "shards must partition the chunk in order");
        // never more shards than examples; empty chunks produce no shards
        assert_eq!(split_into_shards(&chunk[..2], 4).len(), 2);
        assert!(split_into_shards(&[], 4).is_empty());
    }

    #[test]
    fn derived_seeds_are_distinct_across_streams_and_positions() {
        let mut seen = std::collections::HashSet::new();
        for stream in [STREAM_SHUFFLE, STREAM_DROPOUT] {
            for a in 0..8u64 {
                for b in 0..32u64 {
                    assert!(
                        seen.insert(derive_seed(42, stream, a, b)),
                        "seed collision at stream={stream:x} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn graph_validator_runs_on_fresh_parallel_fits() {
        let exs = cycle_examples(12, 3);
        let model = NoisyBigram::new(3, 4);
        let trainer = ParallelTrainer::new(cfg(2));
        let report = trainer.fit(&model, || NoisyBigram::new(3, 4), &exs, &exs);
        // healthy model: validation ran and found nothing
        assert!(report.graph_diagnostics.is_empty());
    }
}
