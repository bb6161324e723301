//! The micro-batching serving engine.
//!
//! Requests arrive as [`ScoreBatch`]es / [`TopK`]s on the calling thread;
//! their sessions are enqueued individually and **coalesced across
//! requests** by a pool of scoring workers. A worker holds an underfull
//! queue open at most [`EngineConfig::flush_deadline_us`] for stragglers
//! (the classic latency/throughput knob of batched inference servers),
//! then flushes it. A flush releases up to [`EngineConfig::max_batch`]
//! sessions per worker and **cuts them into one batch per worker**: the
//! flushing worker scores the first, and each later drain — an idle peer
//! at once, a busy one when it is free, else the flusher itself after its
//! own batch — takes the next without a new hold. Rows never depend on
//! their batch-mates, so the cut changes which worker scores a session,
//! never its row.
//!
//! Model weights cross threads as the flat snapshot inside a
//! [`FrozenModel`]; each worker rebuilds a private replica from a
//! constructor closure plus the snapshot (tensors are `Rc`-backed and
//! cannot be shared). Latency and batch-occupancy histograms are recorded
//! through `embsr_obs` when telemetry is enabled.
//!
//! When request tracing is active ([`embsr_obs::trace::set_enabled`] plus
//! a trace-level sink), every request opens a root span
//! (`score_request` / `top_k_request`) whose [`TraceCtx`] rides inside
//! each queued [`Job`]; the scoring worker stamps the batch lifecycle on
//! the shared monotonic clock and emits `queue_wait`, `batch_assembly`
//! and `scoring` child spans once per request per batch, so the
//! per-request timeline is reconstructable offline from the JSONL sink (a
//! request cut across two batches shows one triple for each). With
//! tracing off the whole machinery costs one relaxed atomic load per
//! request and per batch.

use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use embsr_obs::trace::{self, TraceCtx};
use embsr_obs::Stopwatch;
use embsr_pool::run_with_workers;
use embsr_sessions::Session;
use embsr_train::{DecodeError, LayoutMismatch, SessionModel};

use crate::api::{top_k_of_row, ScoreBatch, ScoreResponse, TopK, TopKResponse};
use crate::cache::{CacheStats, ReprCache};
use crate::frozen::FrozenModel;
use crate::snapshot;

/// Histogram of end-to-end request latency in microseconds.
pub const METRIC_REQUEST_LATENCY_US: &str = "serve.request_latency_us";
/// Histogram of sessions per scored micro-batch (batch occupancy).
pub const METRIC_BATCH_SESSIONS: &str = "serve.batch_sessions";
/// Counter of sessions scored by the engine.
pub const METRIC_SESSIONS_SCORED: &str = "serve.sessions_scored";
/// Histogram of queue depth (sessions waiting) sampled after each
/// request's enqueue — its p95/max expose backlog tails that the latency
/// quantiles alone hide.
pub const METRIC_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Counter of requests rejected at admission because the queue was over
/// [`EngineConfig::queue_cap`] (only requests submitted with
/// [`SubmitOptions::shed`] are ever rejected).
pub const METRIC_REJECTED: &str = "serve.rejected";
/// Counter of sessions shed by a worker because their request's deadline
/// expired while they waited in the queue.
pub const METRIC_DEADLINE_EXPIRED: &str = "serve.deadline_expired";
/// Counter of per-worker replica rebuilds triggered by snapshot
/// activation ([`Client::activate`]); `workers` increments per swap.
pub const METRIC_SNAPSHOT_SWAPS: &str = "serve.snapshot_swaps";

/// Tuning knobs of the micro-batching engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of scoring worker threads (each holds a model replica). A
    /// flush cuts the sessions it releases into this many batches.
    pub workers: usize,
    /// Maximum sessions coalesced into one batched forward. A flush
    /// releases at most `max_batch × workers` queued sessions; with one
    /// worker it is the whole batch.
    pub max_batch: usize,
    /// How long a worker holds an underfull queue open for stragglers, in
    /// microseconds, before flushing it anyway. The later batches a flush
    /// cut are taken without a new hold.
    pub flush_deadline_us: u64,
    /// Admission bound: sessions allowed to wait in the queue before a
    /// shedding submit ([`SubmitOptions::shed`]) is rejected with
    /// [`ServeError::Overloaded`]. Non-shedding submits ignore the cap.
    pub queue_cap: usize,
    /// Entry capacity of the session-repr cache shared by this engine's
    /// workers; `0` (the default) disables caching. The cache holds each
    /// session's [`SessionModel::repr`], the input of the head.
    pub repr_cache: usize,
    /// Version tag of the snapshot the engine starts serving; responses
    /// carry the tag of the snapshot that scored them.
    pub initial_version: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_batch: 32,
            flush_deadline_us: 500,
            queue_cap: usize::MAX,
            repr_cache: 0,
            initial_version: 1,
        }
    }
}

/// Per-request admission and deadline knobs for the fallible submit paths
/// ([`Client::try_score`] / [`Client::try_top_k`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Microseconds the request may spend queued before a worker sheds it
    /// with [`ServeError::DeadlineExpired`] instead of scoring it. `0`
    /// means no deadline.
    pub deadline_us: u64,
    /// Reject at admission (with [`ServeError::Overloaded`]) when the queue
    /// already holds [`EngineConfig::queue_cap`] or more sessions, instead
    /// of enqueueing unconditionally.
    pub shed: bool,
}

/// Why a fallible submit did not produce scores. The first two variants
/// are *load* conditions, not bugs: callers are expected to back off and
/// retry (`Overloaded`) or give up on the stale request
/// (`DeadlineExpired`). `Closed` means this engine is gone; a caller with
/// other engines routes elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away: the queue already held
    /// `queued` sessions against a cap of `cap`.
    Overloaded { queued: usize, cap: usize },
    /// The request waited `waited_us` in the queue, past its deadline, and
    /// was shed by the scoring worker without being scored.
    DeadlineExpired { waited_us: u64 },
    /// The engine had shut down (or a scoring worker died) before the
    /// request could be scored.
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, cap } => {
                write!(f, "overloaded: {queued} session(s) queued, cap {cap}")
            }
            ServeError::DeadlineExpired { waited_us } => {
                write!(f, "deadline expired after {waited_us}us in queue")
            }
            ServeError::Closed => write!(f, "engine closed"),
        }
    }
}

/// Why a control-plane call ([`Client::stage_snapshot`] /
/// [`Client::activate`]) was refused. All variants leave serving
/// untouched: a bad snapshot can never reach a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwapError {
    /// [`Client::activate`] named a version that was never staged.
    UnknownVersion(u64),
    /// The snapshot's tensor list does not fit the serving model's
    /// parameters: its tensor count differs, or the first tensor whose
    /// shape differs is named with both shapes.
    WrongLayout(LayoutMismatch),
    /// The snapshot bytes failed to decode (`EMBSRSNP` framing).
    Malformed(String),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnknownVersion(v) => write!(f, "version {v} was never staged"),
            SwapError::WrongLayout(m) => write!(f, "wrong snapshot layout: {m}"),
            SwapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl From<DecodeError> for SwapError {
    fn from(e: DecodeError) -> SwapError {
        match e {
            DecodeError::Layout(m) => SwapError::WrongLayout(m),
            DecodeError::Malformed(msg) => SwapError::Malformed(msg),
        }
    }
}

/// Point-in-time control-plane view of one engine ([`Client::status`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStatus {
    /// Version currently scoring new batches.
    pub active_version: u64,
    /// Every staged version (including the active one), ascending.
    pub staged: Vec<u64>,
    /// Session-repr cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
}

/// A decoded snapshot held by the [`ModelBank`], ready for replicas to
/// import.
struct StagedSnapshot {
    weights: Vec<f32>,
    max_session_len: usize,
}

/// The staged-snapshot registry shared by an engine's workers: versions
/// accumulate under the mutex, activation atomically flips `active` and
/// bumps `epoch`, and workers compare `epoch` against their local copy
/// between batches — the flip itself never blocks scoring.
struct ModelBank {
    versions: Mutex<BTreeMap<u64, Arc<StagedSnapshot>>>,
    /// Version new batches must score under.
    active: AtomicU64,
    /// Bumped on every activation; workers rebuild when it moves.
    epoch: AtomicU64,
    /// The serving model's parameter shapes; staging decodes against them
    /// so a snapshot of another layout is refused up front.
    shapes: Vec<Vec<usize>>,
}

impl ModelBank {
    fn new(initial_version: u64, initial: StagedSnapshot, shapes: Vec<Vec<usize>>) -> ModelBank {
        let mut versions = BTreeMap::new();
        versions.insert(initial_version, Arc::new(initial));
        ModelBank {
            versions: Mutex::new(versions),
            active: AtomicU64::new(initial_version),
            epoch: AtomicU64::new(0),
            shapes,
        }
    }

    fn lock_versions(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<StagedSnapshot>>> {
        match self.versions.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Decodes `bytes` against the serving model's shapes and stages them
    /// under `version`.
    fn stage(&self, version: u64, bytes: &[u8]) -> Result<(), SwapError> {
        let (weights, max_session_len) = snapshot::decode(bytes, &self.shapes)?;
        let snap = StagedSnapshot {
            weights,
            max_session_len,
        };
        self.lock_versions().insert(version, Arc::new(snap));
        Ok(())
    }

    fn activate(&self, version: u64) -> Result<(), SwapError> {
        let versions = self.lock_versions();
        if !versions.contains_key(&version) {
            return Err(SwapError::UnknownVersion(version));
        }
        // Both stores happen under the versions lock, so a worker that
        // observes the new epoch and then calls `active_state` (which takes
        // the same lock) is guaranteed to see this activation or a later one.
        // ordering: SeqCst — the flip must totally order against workers'
        // epoch loads; a weaker pair could let a worker read the new epoch
        // but a stale active version without the lock round trip.
        self.active.store(version, Ordering::SeqCst);
        // ordering: SeqCst — published after `active` so epoch movement
        // implies the new active version is visible.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn active_version(&self) -> u64 {
        // ordering: SeqCst — pairs with the store in `activate`.
        self.active.load(Ordering::SeqCst)
    }

    fn epoch(&self) -> u64 {
        // ordering: SeqCst — pairs with the bump in `activate`.
        self.epoch.load(Ordering::SeqCst)
    }

    /// The consistent (epoch, version, snapshot) triple workers rebuild
    /// from; taken under the versions lock so the three never tear.
    fn active_state(&self) -> (u64, u64, Arc<StagedSnapshot>) {
        let versions = self.lock_versions();
        let epoch = self.epoch();
        let version = self.active_version();
        let snap = versions
            .get(&version)
            .cloned()
            // The active version is always a key: activation checks under
            // the same lock and staged versions are never removed.
            .unwrap_or_else(|| Arc::new(StagedSnapshot {
                weights: Vec::new(),
                max_session_len: 0,
            }));
        (epoch, version, snap)
    }

    fn staged_versions(&self) -> Vec<u64> {
        self.lock_versions().keys().copied().collect()
    }
}

/// One enqueued session awaiting scoring.
struct Job {
    session: Session,
    enqueued: Stopwatch,
    /// Trace context of the originating request ([`TraceCtx::NONE`] when
    /// tracing was inactive at submit time).
    trace: TraceCtx,
    /// [`trace::now_us`] at enqueue (0 when untraced); start of the job's
    /// `queue_wait` phase.
    enqueued_us: u64,
    /// Queue-wait budget in microseconds (`0` = none): workers shed the job
    /// unscored once `enqueued` exceeds it.
    deadline_us: u64,
    /// Position inside the originating request.
    slot: usize,
    /// Replies carry the model version that scored (or shed) the job.
    reply: Sender<(usize, u64, Result<Vec<f32>, ServeError>)>,
}

/// The jobs waiting for a worker, with the cut of the last flush.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Front jobs a flush released but left for later drains; never more
    /// than `jobs.len()`.
    due: usize,
    /// Size of the batches the due jobs were cut to.
    cut: usize,
}

/// Queue state shared between the engine's handles and its workers.
struct Shared {
    cfg: EngineConfig,
    queue: Mutex<Queue>,
    arrivals: Condvar,
    /// Cleared when the engine closes: enqueues are refused from then on,
    /// and workers drain the queue and exit.
    open: AtomicBool,
    /// Fault injection: microseconds a worker sleeps after draining each
    /// batch, before its deadline check ([`Client::set_delay_us`]).
    delay_us: AtomicU64,
    /// Staged snapshot versions + the active flip (hot-swap control plane).
    bank: ModelBank,
    /// Session-repr cache, when [`EngineConfig::repr_cache`] > 0.
    cache: Option<ReprCache>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, Queue> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Handle for submitting requests to a running engine (see [`serve`]).
///
/// The blocking calls return once every session of the request is
/// scored; [`Client::enqueue`] splits that into enqueue and
/// [`Ticket::wait`], so one caller can have requests queued on several
/// engines at once. Sessions from concurrent callers coalesce into shared
/// micro-batches. Empty sessions carry no evidence to score and are
/// answered inline with an empty row (no recommendations for
/// [`Client::top_k`]) — they never reach a scoring worker, so a malformed
/// request cannot take the engine down.
///
/// The handle `serve` lends its master closure borrows the call;
/// [`Client::detach`] returns an owned one that other threads may keep.
/// Once the engine has closed, every enqueue fails with
/// [`ServeError::Closed`].
#[derive(Clone)]
pub struct Client<'a> {
    shared: Arc<Shared>,
    _serve: PhantomData<&'a ()>,
}

/// A request queued on an engine by [`Client::enqueue`].
pub struct Ticket {
    replies: Receiver<(usize, u64, Result<Vec<f32>, ServeError>)>,
    /// Rows in the response: one per enqueued session, empty ones included.
    rows: usize,
    /// Sessions queued for scoring (the non-empty ones).
    pending: usize,
    /// Active version at enqueue; the tag when nothing was queued.
    version: u64,
    watch: Stopwatch,
}

impl Ticket {
    /// Blocks until every queued session is scored. The first shed session
    /// fails the request with its [`ServeError::DeadlineExpired`]; a
    /// session lost with a dead worker fails it with [`ServeError::Closed`].
    pub fn wait(self) -> Result<ScoreResponse, ServeError> {
        let mut scores: Vec<Vec<f32>> = vec![Vec::new(); self.rows];
        // Mixed-version batches can happen mid-swap; the response reports
        // the newest contributing version.
        let mut model_version = if self.pending == 0 { self.version } else { 0 };
        for _ in 0..self.pending {
            // Every queued job is either answered or dropped with its
            // sender (a worker unwinding drops its batch and the queue), so
            // this never outlives the engine.
            match self.replies.recv() {
                Ok((slot, version, Ok(row))) => {
                    scores[slot] = row;
                    model_version = model_version.max(version);
                }
                // Replies for the request's other sessions go to a dropped
                // receiver, which workers tolerate.
                Ok((_, _, Err(e))) => return Err(e),
                Err(_) => return Err(ServeError::Closed),
            }
        }
        if embsr_obs::metrics::enabled() {
            embsr_obs::metrics::histogram(METRIC_REQUEST_LATENCY_US)
                .record(self.watch.elapsed_us());
        }
        Ok(ScoreResponse {
            scores,
            model_version,
        })
    }
}

impl Client<'_> {
    /// Scores the full vocabulary for each session of the request.
    pub fn score(&self, req: ScoreBatch) -> ScoreResponse {
        // Infallible while the engine runs: no deadline, no shedding.
        self.try_score(req, SubmitOptions::default())
            .unwrap_or_default()
    }

    /// Scores a request under explicit admission/deadline control: the
    /// request is rejected up front when the queue is over
    /// [`EngineConfig::queue_cap`] (if `opts.shed`), and any session still
    /// queued past `opts.deadline_us` is shed by the workers, failing the
    /// request with [`ServeError::DeadlineExpired`].
    pub fn try_score(&self, req: ScoreBatch, opts: SubmitOptions) -> Result<ScoreResponse, ServeError> {
        self.try_score_in(req, opts, TraceCtx::NONE)
    }

    /// [`Client::try_score`] with an explicit trace parent: when `parent`
    /// is a live [`TraceCtx`] the engine spans (`score_request` →
    /// `queue_wait`/`batch_assembly`/`scoring`) nest under it instead of
    /// opening a fresh trace.
    pub fn try_score_in(
        &self,
        req: ScoreBatch,
        opts: SubmitOptions,
        parent: TraceCtx,
    ) -> Result<ScoreResponse, ServeError> {
        let span = if parent.is_none() {
            trace::root("score_request")
        } else {
            trace::child(parent, "score_request")
        };
        self.enqueue(req.sessions, opts, span.ctx())?.wait()
    }

    /// Returns the `k` best items per session of the request.
    pub fn top_k(&self, req: TopK) -> TopKResponse {
        // Infallible while the engine runs: no deadline, no shedding.
        self.try_top_k(req, SubmitOptions::default())
            .unwrap_or_default()
    }

    /// [`Client::top_k`] under explicit admission/deadline control (see
    /// [`Client::try_score`]).
    pub fn try_top_k(&self, req: TopK, opts: SubmitOptions) -> Result<TopKResponse, ServeError> {
        let root = trace::root("top_k_request");
        let ctx = root.ctx();
        let resp = self.enqueue(req.sessions, opts, ctx)?.wait()?;
        let selected_from = if ctx.is_none() { 0 } else { trace::now_us() };
        let items = resp.scores.iter().map(|row| top_k_of_row(row, req.k)).collect();
        if !ctx.is_none() {
            let selected_at = trace::now_us();
            // Close the request before emitting its last phase, so the
            // phase record's own emission stays outside the request it
            // times.
            drop(root);
            trace::emit_span(ctx, "top_k", selected_from, selected_at);
        }
        Ok(TopKResponse {
            items,
            model_version: resp.model_version,
        })
    }

    /// Queues the request's sessions for scoring and returns at once; the
    /// [`Ticket`] waits for the rows. The worker-side spans (`queue_wait`,
    /// `batch_assembly`, `scoring`) hang off `ctx`. Refused with
    /// [`ServeError::Closed`] once the engine has closed, and with
    /// [`ServeError::Overloaded`] when `opts.shed` meets a full queue.
    pub fn enqueue(
        &self,
        sessions: Vec<Session>,
        opts: SubmitOptions,
        ctx: TraceCtx,
    ) -> Result<Ticket, ServeError> {
        let shared = &*self.shared;
        let rows = sessions.len();
        let watch = Stopwatch::start();
        let tracing = !ctx.is_none() && trace::active();
        let (reply, replies) = std::sync::mpsc::channel();
        let mut pending = 0usize;
        if rows > 0 {
            let mut q = lock(shared);
            // ordering: SeqCst — read under the queue lock, so a job either
            // lands before the workers' final drain or is refused here;
            // pairs with the store in `close`.
            if !shared.open.load(Ordering::SeqCst) {
                return Err(ServeError::Closed);
            }
            if opts.shed && q.jobs.len() >= shared.cfg.queue_cap {
                let queued = q.jobs.len();
                drop(q);
                if embsr_obs::metrics::enabled() {
                    embsr_obs::metrics::counter(METRIC_REJECTED).inc();
                }
                return Err(ServeError::Overloaded {
                    queued,
                    cap: shared.cfg.queue_cap,
                });
            }
            for (slot, session) in sessions.into_iter().enumerate() {
                if session.is_empty() {
                    // Answered inline as an empty row (see the type docs):
                    // workers assume non-empty sessions.
                    continue;
                }
                pending += 1;
                q.jobs.push_back(Job {
                    session,
                    enqueued: Stopwatch::start(),
                    trace: ctx,
                    enqueued_us: if tracing { trace::now_us() } else { 0 },
                    deadline_us: opts.deadline_us,
                    slot,
                    reply: reply.clone(),
                });
            }
            let depth = q.jobs.len();
            drop(q);
            if embsr_obs::metrics::enabled() {
                embsr_obs::metrics::histogram(METRIC_QUEUE_DEPTH).record(depth as u64);
            }
            shared.arrivals.notify_all();
        }
        Ok(Ticket {
            replies,
            rows,
            pending,
            version: shared.bank.active_version(),
            watch,
        })
    }

    /// An owned handle to the same engine, for threads that outlive the
    /// borrow `serve` lends its master closure.
    pub fn detach(&self) -> Client<'static> {
        let _span = embsr_obs::span("embsr_serve", "detach_client")
            .with_close_level(embsr_obs::Level::Trace);
        Client {
            shared: Arc::clone(&self.shared),
            _serve: PhantomData,
        }
    }

    /// Fault injection: every worker sleeps `delay_us` after draining a
    /// batch and before its deadline check, so a slow engine still sheds
    /// expired work with [`ServeError::DeadlineExpired`]. `0` clears it.
    pub fn set_delay_us(&self, delay_us: u64) {
        let _span = embsr_obs::span("embsr_serve", "set_delay");
        // ordering: Relaxed — a standalone knob; workers pick it up on
        // their next batch and nothing else is published with it.
        self.shared.delay_us.store(delay_us, Ordering::Relaxed);
    }

    /// Stages serialized `EMBSRSNP` snapshot bytes under `version` without
    /// touching live scoring; flip to it later with [`Client::activate`].
    /// Staging an already-staged version replaces it (it only takes effect
    /// on the next activation).
    ///
    /// # Errors
    /// [`SwapError::Malformed`] for bytes that are not a version-2
    /// `EMBSRSNP` snapshot; [`SwapError::WrongLayout`] when its tensor list
    /// does not fit the serving model's parameter shapes.
    pub fn stage_snapshot(&self, version: u64, bytes: &[u8]) -> Result<(), SwapError> {
        let _span = embsr_obs::span("embsr_serve", "stage_snapshot");
        self.shared.bank.stage(version, bytes)
    }

    /// Atomically makes a staged `version` the one scoring new batches.
    /// In-flight batches finish under the version they started with (their
    /// responses are tagged accordingly); no request is dropped or drained.
    pub fn activate(&self, version: u64) -> Result<(), SwapError> {
        let _span = embsr_obs::span("embsr_serve", "activate");
        self.shared.bank.activate(version)?;
        // Wake idle workers so they rebuild ahead of the next arrival.
        self.shared.arrivals.notify_all();
        Ok(())
    }

    /// Control-plane snapshot: active/staged versions + cache counters.
    pub fn status(&self) -> EngineStatus {
        let _span = embsr_obs::span("embsr_serve", "engine_status")
            .with_close_level(embsr_obs::Level::Trace);
        EngineStatus {
            active_version: self.shared.bank.active_version(),
            staged: self.shared.bank.staged_versions(),
            cache: self
                .shared
                .cache
                .as_ref()
                .map(ReprCache::stats)
                .unwrap_or_default(),
        }
    }
}

/// Drains the next micro-batch, or `None` when the engine has shut down and
/// the queue is empty.
///
/// A due batch of an earlier flush is taken at once. Otherwise the worker
/// holds the queue open until it holds `max_batch` sessions, its oldest
/// has waited `flush_deadline_us`, or the engine closes; the flush then
/// releases up to `max_batch` sessions per worker, takes the first of
/// `workers` equal cuts and leaves the rest due.
fn next_batch(shared: &Shared) -> Option<Vec<Job>> {
    let cfg = &shared.cfg;
    let workers = cfg.workers.max(1);
    let deadline = Duration::from_micros(cfg.flush_deadline_us);
    let mut q = lock(shared);
    loop {
        if q.due > 0 {
            let take = q.due.min(q.cut);
            q.due -= take;
            return Some(q.jobs.drain(..take).collect());
        }
        if let Some(oldest) = q.jobs.front() {
            let waited = oldest.enqueued.elapsed();
            // ordering: SeqCst — the open flag must totally order with the
            // queue mutex and shutdown notify so a closing engine can never
            // be seen as open after the final drain (see ShutdownGuard).
            let closing = !shared.open.load(Ordering::SeqCst);
            if q.jobs.len() >= cfg.max_batch || waited >= deadline || closing {
                let released = q.jobs.len().min(cfg.max_batch.saturating_mul(workers));
                let take = released.div_ceil(workers);
                q.due = released - take;
                q.cut = take;
                let batch = q.jobs.drain(..take).collect();
                if q.due > 0 {
                    drop(q);
                    // Idle peers take the due batches now, not after their
                    // own hold or idle timeout.
                    shared.arrivals.notify_all();
                }
                return Some(batch);
            }
            // Hold the batch open for stragglers, but never past the
            // flush deadline of its oldest session.
            let (guard, _) = match shared.arrivals.wait_timeout(q, deadline - waited) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            q = guard;
        } else {
            // ordering: SeqCst — pairs with ShutdownGuard's store; a worker
            // holding the (empty) queue lock must observe the close or it
            // would sleep through its own shutdown.
            if !shared.open.load(Ordering::SeqCst) {
                return None;
            }
            // Idle: sleep until an arrival (with a timeout so a missed
            // shutdown notification cannot strand the worker).
            let (guard, _) = match shared.arrivals.wait_timeout(q, Duration::from_millis(10)) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            q = guard;
        }
    }
}

/// Adds a traced job's request to a batch's span list unless one of its
/// jobs is there already, so each request gets one set of phase spans per
/// batch, starting at its first enqueue stamp in the batch.
fn note_request(requests: &mut Vec<(TraceCtx, u64)>, job: &Job) {
    if job.enqueued_us != 0 && !requests.iter().any(|(ctx, _)| *ctx == job.trace) {
        requests.push((job.trace, job.enqueued_us));
    }
}

/// Closes the engine: enqueues are refused from here on, and workers drain
/// what is queued and exit.
fn close(shared: &Shared) {
    // ordering: SeqCst — the close must totally order against the loads in
    // `enqueue` and `next_batch`; a weaker store could let a worker re-check
    // `open` after the wakeup and still read true, stranding it.
    shared.open.store(false, Ordering::SeqCst);
    // Take the lock so no worker can check `open` between its queue
    // inspection and its wait — the wake-up cannot be missed.
    drop(lock(shared));
    shared.arrivals.notify_all();
}

/// Closes the engine when the master closure exits, however it exits.
///
/// A master panic unwinds through [`run_with_workers`]' `catch_unwind` and
/// then blocks in `thread::scope` joining workers, which would otherwise
/// spin in [`next_batch`] forever (`open` still true, queue drained).
/// Routing the close through `Drop` makes the re-raise documented below
/// reachable no matter how the master exits.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        close(self.0);
    }
}

/// Closes the engine when a scoring worker unwinds, and drops every queued
/// job: with their senders gone, the waiters get [`ServeError::Closed`]
/// instead of waiting on a pool that may have no worker left.
struct WorkerGuard<'a>(&'a Shared);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            close(self.0);
            *lock(self.0) = Queue::default();
        }
    }
}

/// Runs a micro-batching serving engine for the duration of `master`.
///
/// `cfg.workers` scoring threads each build a private model replica with
/// `factory()` and load `frozen`'s weight snapshot into it; `master` runs
/// on the calling thread with a [`Client`] for submitting requests. When
/// `master` returns, the engine closes, the workers score what is still
/// queued and exit, and the master's value is returned.
///
/// # Panics
/// Re-raises worker panics (e.g. a scoring failure), as
/// [`run_with_workers`] does; a dying worker first closes the engine and
/// fails every waiter with [`ServeError::Closed`]. Master panics shut the
/// workers down before propagating, so the engine never hangs on a
/// panicking closure.
pub fn serve<M, F, R>(
    frozen: &FrozenModel<M>,
    factory: F,
    cfg: EngineConfig,
    master: impl FnOnce(&Client<'_>) -> R,
) -> R
where
    M: SessionModel,
    F: Fn() -> M + Sync,
{
    let _engine_span = embsr_obs::span("embsr_serve", "serve");
    let tier = frozen.tier();
    let shared = Arc::new(Shared {
        cfg,
        queue: Mutex::new(Queue::default()),
        arrivals: Condvar::new(),
        open: AtomicBool::new(true),
        delay_us: AtomicU64::new(0),
        bank: ModelBank::new(
            cfg.initial_version,
            StagedSnapshot {
                weights: frozen.export_snapshot(),
                max_session_len: frozen.max_session_len(),
            },
            frozen.param_shapes(),
        ),
        cache: if cfg.repr_cache > 0 {
            Some(ReprCache::new(cfg.repr_cache))
        } else {
            None
        },
    });
    run_with_workers(
        cfg.workers.max(1),
        |_worker_id| {
            let _death = WorkerGuard(&shared);
            // replicas score on the master's kernel tier
            let (mut local_epoch, mut local_version, snap) = shared.bank.active_state();
            let mut replica =
                FrozenModel::from_snapshot(factory(), &snap.weights, snap.max_session_len);
            replica.set_tier(tier);
            drop(snap);
            while let Some(batch) = next_batch(&shared) {
                // Hot-swap seam: rebuild this replica when an activation
                // moved the epoch since the last batch. The batch drained
                // above scores under the *new* version; batches drained
                // before the flip finished under the old one — either way
                // each reply is tagged with the version that scored it.
                if shared.bank.epoch() != local_epoch {
                    let (epoch, version, snap) = shared.bank.active_state();
                    if replica
                        .swap_snapshot(&snap.weights, snap.max_session_len)
                        .is_ok()
                    {
                        // Layout is validated at stage time, so the swap
                        // only fails on an impossible bank inconsistency —
                        // in which case the replica keeps serving the old
                        // weights rather than corrupting state.
                        local_version = version;
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter(METRIC_SNAPSHOT_SWAPS).inc();
                        }
                    }
                    local_epoch = epoch;
                }
                // ordering: Relaxed — see `Client::set_delay_us`.
                let delay_us = shared.delay_us.load(Ordering::Relaxed);
                if delay_us > 0 {
                    // Fault injection: a slow replica. Sleeping *before* the
                    // deadline check turns the injected latency into
                    // observable `DeadlineExpired` errors, not silent
                    // slowness.
                    std::thread::sleep(Duration::from_micros(delay_us));
                }
                let tracing = trace::active();
                let drained_us = if tracing { trace::now_us() } else { 0 };
                // Shed jobs whose queue-wait budget ran out before this
                // drain: scoring them would spend forward-pass time on
                // answers their callers have already written off.
                let mut live = Vec::with_capacity(batch.len());
                let mut shed = Vec::new();
                for job in batch {
                    let waited_us = job.enqueued.elapsed_us();
                    if job.deadline_us != 0 && waited_us >= job.deadline_us {
                        if embsr_obs::metrics::enabled() {
                            embsr_obs::metrics::counter(METRIC_DEADLINE_EXPIRED).inc();
                        }
                        if tracing {
                            note_request(&mut shed, &job);
                        }
                        let _ = job.reply.send((
                            job.slot,
                            local_version,
                            Err(ServeError::DeadlineExpired { waited_us }),
                        ));
                    } else {
                        live.push(job);
                    }
                }
                for (ctx, enqueued_us) in shed {
                    trace::emit_span(ctx, "queue_wait", enqueued_us, drained_us);
                }
                if live.is_empty() {
                    continue;
                }
                let sessions: Vec<Session> = live.iter().map(|j| j.session.clone()).collect();
                let assembled_us = if tracing { trace::now_us() } else { 0 };
                let rows = match &shared.cache {
                    Some(cache) => replica.score_batch_cached(&sessions, cache, local_version),
                    None => replica.score_batch(&sessions),
                };
                let scored_us = if tracing { trace::now_us() } else { 0 };
                if embsr_obs::metrics::enabled() {
                    embsr_obs::metrics::histogram(METRIC_BATCH_SESSIONS)
                        .record(live.len() as u64);
                    embsr_obs::metrics::counter(METRIC_SESSIONS_SCORED).add(live.len() as u64);
                }
                let mut traced = Vec::new();
                for (job, row) in live.into_iter().zip(rows) {
                    // A receiver gone away just means the caller bailed out;
                    // drop its rows rather than killing the worker.
                    let _ = job.reply.send((job.slot, local_version, Ok(row)));
                    if tracing {
                        note_request(&mut traced, &job);
                    }
                }
                // One shared batch timeline, attributed to every request
                // that rode in it. The spans carry their own timestamps, so
                // emitting them after the replies changes no record; it only
                // keeps the sinks' I/O off the requests' critical path.
                for (ctx, enqueued_us) in traced {
                    trace::emit_span(ctx, "queue_wait", enqueued_us, drained_us);
                    trace::emit_span(ctx, "batch_assembly", drained_us, assembled_us);
                    trace::emit_span(ctx, "scoring", assembled_us, scored_us);
                }
            }
        },
        |_signal| {
            let _shutdown = ShutdownGuard(&shared);
            master(&Client {
                shared: Arc::clone(&shared),
                _serve: PhantomData,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{sess, ToyModel};

    fn frozen(n: usize, seed: u64) -> FrozenModel<ToyModel> {
        FrozenModel::freeze(ToyModel::new(n, seed), 32)
    }

    #[test]
    fn engine_scores_match_direct_frozen_scores() {
        let f = frozen(9, 4);
        let sessions: Vec<Session> = (0..23).map(|i| sess(&[i % 9, (i + 2) % 9])).collect();
        let want = f.score_batch(&sessions);
        let cfg = EngineConfig {
            workers: 3,
            max_batch: 4,
            flush_deadline_us: 200,
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(9, 0), cfg, |client| {
            client
                .score(ScoreBatch {
                    sessions: sessions.clone(),
                })
                .scores
        });
        assert_eq!(got, want, "micro-batched rows must be bitwise-identical");
    }

    #[test]
    fn top_k_requests_are_served() {
        let f = frozen(6, 1);
        let got = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                client.top_k(TopK {
                    sessions: vec![sess(&[1]), sess(&[2, 3])],
                    k: 2,
                })
            },
        );
        assert_eq!(got.items.len(), 2);
        for recs in &got.items {
            assert_eq!(recs.len(), 2);
            assert!(recs[0].score >= recs[1].score);
        }
    }

    #[test]
    fn empty_request_returns_immediately() {
        let f = frozen(4, 2);
        let got = serve(
            &f,
            || ToyModel::new(4, 0),
            EngineConfig::default(),
            |client| client.score(ScoreBatch::default()),
        );
        assert!(got.scores.is_empty());
    }

    #[test]
    fn single_worker_underfull_batches_flush_on_deadline() {
        let f = frozen(5, 3);
        let cfg = EngineConfig {
            workers: 1,
            max_batch: 64, // never fills: the deadline must flush
            flush_deadline_us: 100,
            ..EngineConfig::default()
        };
        let sessions = vec![sess(&[0]), sess(&[1]), sess(&[2])];
        let want = f.score_batch(&sessions);
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            client
                .score(ScoreBatch {
                    sessions: sessions.clone(),
                })
                .scores
        });
        assert_eq!(got, want);
    }

    #[test]
    fn master_panic_shuts_workers_down_instead_of_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let f = frozen(4, 6);
        // Without the ShutdownGuard this test never returns: the pool
        // catches the master panic, then blocks joining workers that wait
        // for a shutdown notification nobody will send.
        let err = catch_unwind(AssertUnwindSafe(|| {
            serve(
                &f,
                || ToyModel::new(4, 0),
                EngineConfig::default(),
                |client| {
                    let _ = client.score(ScoreBatch {
                        sessions: vec![sess(&[1, 2])],
                    });
                    panic!("master bailed mid-serve");
                },
            )
        }))
        .expect_err("master panic must propagate");
        let msg = panic_message(&*err);
        assert!(msg.contains("master bailed"), "wrong panic surfaced: {msg}");
    }

    fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
        err.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn detached_handle_outliving_serve_is_refused_closed_not_hung() {
        let f = frozen(5, 6);
        let one = || ScoreBatch {
            sessions: vec![sess(&[1, 2])],
        };
        let (handle, warm) = serve(&f, || ToyModel::new(5, 0), EngineConfig::default(), |client| {
            let handle = client.detach();
            let warm = handle.score(one());
            (handle, warm)
        });
        assert_eq!(warm.scores, f.score_batch(&one().sessions), "detached handle scores");
        let after = handle.try_score(one(), SubmitOptions::default());
        assert_eq!(after, Err(ServeError::Closed));
        let queued = handle.enqueue(one().sessions, SubmitOptions::default(), TraceCtx::NONE);
        assert!(matches!(queued, Err(ServeError::Closed)), "enqueue refused");
    }

    /// [`ToyModel`] whose encoder panics on sessions that start at item 0.
    struct PoisonedToyModel(ToyModel);

    impl SessionModel for PoisonedToyModel {
        fn name(&self) -> &str {
            "PoisonedToy"
        }
        fn num_items(&self) -> usize {
            self.0.num_items()
        }
        fn parameters(&self) -> Vec<embsr_tensor::Tensor> {
            self.0.parameters()
        }
        fn repr(&self, s: &Session, t: bool, r: &mut embsr_tensor::Rng) -> embsr_tensor::Tensor {
            assert!(s.events[0].item != 0, "poisoned session");
            self.0.repr(s, t, r)
        }
        fn head(&self) -> embsr_train::Head {
            self.0.head()
        }
    }

    #[test]
    fn dying_worker_fails_its_waiters_closed_then_reraises() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let f = FrozenModel::freeze(PoisonedToyModel(ToyModel::new(5, 2)), 32);
        let cfg = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let err = catch_unwind(AssertUnwindSafe(|| {
            serve(&f, || PoisonedToyModel(ToyModel::new(5, 2)), cfg, |client| {
                let score = |items: &[u32]| {
                    let req = ScoreBatch {
                        sessions: vec![sess(items)],
                    };
                    client.try_score(req, SubmitOptions::default())
                };
                let _ = tx.send((score(&[0, 1]), score(&[1])));
            })
        }))
        .expect_err("the worker panic is re-raised");
        let (poisoned, later) = rx.recv().expect("the master ran to completion");
        assert_eq!(poisoned, Err(ServeError::Closed), "waiter of the dead worker");
        assert_eq!(later, Err(ServeError::Closed), "the dead engine refuses new work");
        let msg = panic_message(&*err);
        assert!(msg.contains("poisoned session"), "wrong panic surfaced: {msg}");
    }

    /// State shared by a [`ProbedToyModel`]'s replicas.
    #[derive(Default)]
    struct ProbeState {
        /// Sessions in each batch the replicas encoded, in call order.
        batches: Vec<usize>,
        /// A replica is inside a gated batch.
        held: bool,
        /// The gate is open.
        open: bool,
    }

    #[derive(Default)]
    struct Probe {
        state: Mutex<ProbeState>,
        changed: Condvar,
    }

    impl Probe {
        fn state(&self) -> MutexGuard<'_, ProbeState> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Every batch size so far, ascending.
        fn batches(&self) -> Vec<usize> {
            let mut sizes = self.state().batches.clone();
            sizes.sort_unstable();
            sizes
        }

        fn wait_until_held(&self) {
            let mut state = self.state();
            while !state.held {
                state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }

        fn open(&self) {
            self.state().open = true;
            self.changed.notify_all();
        }
    }

    /// [`ToyModel`] that logs each encoded batch's size in its [`Probe`] and
    /// holds a batch with a session starting at item 0 until the probe
    /// opens. The hold gives up after a minute, so a broken engine fails
    /// the test rather than hanging it.
    struct ProbedToyModel(ToyModel, Arc<Probe>);

    impl SessionModel for ProbedToyModel {
        fn name(&self) -> &str {
            "ProbedToy"
        }
        fn num_items(&self) -> usize {
            self.0.num_items()
        }
        fn parameters(&self) -> Vec<embsr_tensor::Tensor> {
            self.0.parameters()
        }
        fn repr(&self, s: &Session, t: bool, r: &mut embsr_tensor::Rng) -> embsr_tensor::Tensor {
            self.0.repr(s, t, r)
        }
        fn repr_batch(&self, sessions: &[&Session]) -> embsr_tensor::Tensor {
            let mut state = self.1.state();
            state.batches.push(sessions.len());
            if sessions.iter().any(|s| s.events[0].item == 0) {
                state.held = true;
                self.1.changed.notify_all();
                while !state.open {
                    let (next, wait) = self
                        .1
                        .changed
                        .wait_timeout(state, Duration::from_secs(60))
                        .unwrap_or_else(|e| e.into_inner());
                    state = next;
                    if wait.timed_out() {
                        break;
                    }
                }
            }
            drop(state);
            self.0.repr_batch(sessions)
        }
        fn head(&self) -> embsr_train::Head {
            self.0.head()
        }
    }

    fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        rows.iter()
            .map(|row| row.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Scores one `n`-session request on a fresh probed engine that never
    /// flushes on its deadline; returns the batch sizes, ascending, after
    /// checking the rows bitwise against [`FrozenModel::score_batch`].
    fn burst_batches(workers: usize, max_batch: usize, n: u32) -> Vec<usize> {
        let probe = Arc::new(Probe::default());
        let f = FrozenModel::freeze(ProbedToyModel(ToyModel::new(9, 4), Arc::clone(&probe)), 32);
        // distinct sessions, none gated: each is its own encoded row
        let sessions: Vec<Session> = (0..n).map(|i| sess(&[1 + i % 8, i / 8])).collect();
        let want = frozen(9, 4).score_batch(&sessions);
        let cfg = EngineConfig {
            workers,
            max_batch,
            flush_deadline_us: 10_000_000,
            ..EngineConfig::default()
        };
        let factory = || ProbedToyModel(ToyModel::new(9, 0), Arc::clone(&probe));
        let got = serve(&f, factory, cfg, |client| {
            client
                .score(ScoreBatch {
                    sessions: sessions.clone(),
                })
                .scores
        });
        assert_eq!(bits(&got), bits(&want), "cut rows must be bitwise");
        probe.batches()
    }

    #[test]
    fn a_flushed_burst_is_cut_into_one_batch_per_worker() {
        // A full batch flushes at once and is cut in halves.
        assert_eq!(burst_batches(2, 16, 16), vec![8, 8]);
        // The flusher takes the larger cut: ⌈10/3⌉ = 4, then 4 and 2 due.
        assert_eq!(burst_batches(3, 10, 10), vec![2, 4, 4]);
        // A flush releases at most max_batch per worker; the four left
        // over fill the next batch and are cut again.
        assert_eq!(burst_batches(2, 4, 12), vec![2, 2, 4, 4]);
    }

    #[test]
    fn one_worker_takes_the_whole_burst_in_one_batch() {
        assert_eq!(burst_batches(1, 16, 16), vec![16]);
    }

    #[test]
    fn a_free_worker_takes_the_due_half_while_its_peer_is_held() {
        let probe = Arc::new(Probe::default());
        let f = FrozenModel::freeze(ProbedToyModel(ToyModel::new(9, 4), Arc::clone(&probe)), 32);
        let held = vec![sess(&[0, 1]), sess(&[2]), sess(&[3]), sess(&[4])];
        let burst = vec![sess(&[5, 1]), sess(&[6, 2]), sess(&[7, 3]), sess(&[8, 4])];
        let plain = frozen(9, 4);
        let (want_held, want_burst) = (plain.score_batch(&held), plain.score_batch(&burst));
        let cfg = EngineConfig {
            workers: 2,
            max_batch: 4,
            // Far longer than the test: any batch that waited out a hold
            // would show in the burst's latency.
            flush_deadline_us: 10_000_000,
            ..EngineConfig::default()
        };
        let factory = || ProbedToyModel(ToyModel::new(9, 0), Arc::clone(&probe));
        let (held_rows, burst_rows, burst_us, batches) = serve(&f, factory, cfg, |client| {
            // A full batch: the flusher takes the gated half and is held,
            // its peer takes the due half.
            let ticket = client
                .enqueue(held.clone(), SubmitOptions::default(), TraceCtx::NONE)
                .expect("engine is open");
            probe.wait_until_held();
            let watch = Stopwatch::start();
            let burst_rows = client
                .score(ScoreBatch {
                    sessions: burst.clone(),
                })
                .scores;
            let burst_us = watch.elapsed_us();
            let batches = probe.batches();
            probe.open();
            let held_rows = ticket.wait().expect("scored once released").scores;
            (held_rows, burst_rows, burst_us, batches)
        });
        // The free worker scored the held request's due half, then both
        // halves of the burst, its own and the due one, back to back.
        assert_eq!(batches, vec![2, 2, 2, 2]);
        assert!(burst_us < 5_000_000, "the due half waited {burst_us} us");
        assert_eq!(bits(&burst_rows), bits(&want_burst));
        assert_eq!(bits(&held_rows), bits(&want_held));
    }

    #[test]
    fn empty_sessions_are_answered_inline_without_reaching_workers() {
        let f = frozen(6, 9);
        let valid = sess(&[2, 4]);
        let want = f.score_batch(std::slice::from_ref(&valid));
        let (scores, recs, later) = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                let scores = client.score(ScoreBatch {
                    sessions: vec![sess(&[]), valid.clone(), sess(&[])],
                });
                let recs = client.top_k(TopK {
                    sessions: vec![sess(&[])],
                    k: 3,
                });
                // The engine must still be fully alive afterwards.
                let later = client.score(ScoreBatch {
                    sessions: vec![valid.clone()],
                });
                (scores, recs, later)
            },
        );
        assert_eq!(scores.scores.len(), 3);
        assert!(scores.scores[0].is_empty());
        assert_eq!(scores.scores[1], want[0]);
        assert!(scores.scores[2].is_empty());
        assert_eq!(recs.items, vec![Vec::new()]);
        assert_eq!(later.scores, want);
    }

    #[test]
    fn shedding_submit_is_rejected_when_the_queue_is_over_cap() {
        let f = frozen(5, 11);
        let cfg = EngineConfig {
            workers: 1,
            max_batch: 4,
            flush_deadline_us: 200,
            queue_cap: 0, // every shedding submit sees a full queue
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            let opts = SubmitOptions {
                shed: true,
                ..SubmitOptions::default()
            };
            let rejected = client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[1])],
                },
                opts,
            );
            // A non-shedding submit ignores the cap entirely.
            let accepted = client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[1])],
                },
                SubmitOptions::default(),
            );
            (rejected, accepted)
        });
        assert_eq!(got.0, Err(ServeError::Overloaded { queued: 0, cap: 0 }));
        let accepted = got.1.expect("non-shedding submit must be admitted");
        assert_eq!(accepted.scores.len(), 1);
        assert!(!accepted.scores[0].is_empty());
    }

    #[test]
    fn queued_past_deadline_is_shed_not_scored() {
        let f = frozen(5, 13);
        let cfg = EngineConfig {
            workers: 1,
            // A huge flush deadline with an unfillable batch keeps the job
            // queued long past its 1us budget.
            max_batch: 64,
            flush_deadline_us: 20_000,
            ..EngineConfig::default()
        };
        let got = serve(&f, || ToyModel::new(5, 0), cfg, |client| {
            client.try_score(
                ScoreBatch {
                    sessions: vec![sess(&[2])],
                },
                SubmitOptions {
                    deadline_us: 1,
                    shed: false,
                },
            )
        });
        match got {
            Err(ServeError::DeadlineExpired { waited_us }) => {
                assert!(waited_us >= 1, "shed job must report its queue wait");
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_still_scores_bitwise_identically() {
        let f = frozen(6, 17);
        let sessions = vec![sess(&[1, 2]), sess(&[3])];
        let want = f.score_batch(&sessions);
        let got = serve(
            &f,
            || ToyModel::new(6, 0),
            EngineConfig::default(),
            |client| {
                client.try_score(
                    ScoreBatch {
                        sessions: sessions.clone(),
                    },
                    SubmitOptions {
                        deadline_us: 60_000_000,
                        shed: true,
                    },
                )
            },
        );
        assert_eq!(got.expect("well within deadline").scores, want);
    }

    #[test]
    fn sequential_requests_reuse_the_running_engine() {
        let f = frozen(7, 8);
        let want_a = f.score_batch(&[sess(&[1, 2])]);
        let want_b = f.score_batch(&[sess(&[3])]);
        let (got_a, got_b) = serve(
            &f,
            || ToyModel::new(7, 0),
            EngineConfig::default(),
            |client| {
                let a = client.score(ScoreBatch {
                    sessions: vec![sess(&[1, 2])],
                });
                let b = client.score(ScoreBatch {
                    sessions: vec![sess(&[3])],
                });
                (a.scores, b.scores)
            },
        );
        assert_eq!(got_a, want_a);
        assert_eq!(got_b, want_b);
    }

    #[test]
    fn hot_swap_retags_and_rescores_without_drain() {
        let f_a = frozen(5, 4);
        let f_b = frozen(5, 5);
        let sessions = vec![sess(&[1, 2]), sess(&[3])];
        let want_a = f_a.score_batch(&sessions);
        let want_b = f_b.score_batch(&sessions);
        assert_ne!(want_a, want_b, "the two seeds must score differently");
        let bytes = f_b.snapshot_bytes();
        let (before, after) = serve(
            &f_a,
            || ToyModel::new(5, 4),
            EngineConfig::default(),
            |client| {
                let before = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                client.stage_snapshot(2, &bytes).expect("stage");
                client.activate(2).expect("activate");
                let after = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                (before, after)
            },
        );
        assert_eq!(before.scores, want_a);
        assert_eq!(before.model_version, 1);
        assert_eq!(after.scores, want_b);
        assert_eq!(after.model_version, 2);
    }

    #[test]
    fn control_plane_rejects_bad_snapshots_and_keeps_serving() {
        let f = frozen(5, 11);
        let wrong = FrozenModel::freeze(ToyModel::new(7, 1), 32);
        let wrong_bytes = wrong.snapshot_bytes();
        let got = serve(
            &f,
            || ToyModel::new(5, 11),
            EngineConfig::default(),
            |client| {
                let malformed = client.stage_snapshot(2, b"not a snapshot");
                let layout = client.stage_snapshot(2, &wrong_bytes);
                let unknown = client.activate(9);
                let healthy = client.score(ScoreBatch {
                    sessions: vec![sess(&[1])],
                });
                (malformed, layout, unknown, healthy)
            },
        );
        assert!(matches!(got.0, Err(SwapError::Malformed(_))), "{:?}", got.0);
        assert_eq!(
            got.1,
            Err(SwapError::WrongLayout(LayoutMismatch::Shape {
                index: 0,
                expected: vec![5, 5],
                got: vec![7, 7],
            }))
        );
        assert_eq!(got.2, Err(SwapError::UnknownVersion(9)));
        assert_eq!(got.3.model_version, 1, "rejections must not move the tag");
        assert_eq!(got.3.scores.len(), 1);
    }

    #[test]
    fn status_reports_active_and_staged_versions() {
        let f = frozen(5, 3);
        let bytes = f.snapshot_bytes();
        let (s0, s1, s2) = serve(
            &f,
            || ToyModel::new(5, 3),
            EngineConfig::default(),
            |client| {
                let s0 = client.status();
                client.stage_snapshot(7, &bytes).expect("stage");
                let s1 = client.status();
                client.activate(7).expect("activate");
                let s2 = client.status();
                (s0, s1, s2)
            },
        );
        assert_eq!(s0.active_version, 1);
        assert_eq!(s0.staged, vec![1]);
        assert_eq!(s0.cache, crate::CacheStats::default(), "cache off by default");
        assert_eq!(s1.active_version, 1);
        assert_eq!(s1.staged, vec![1, 7]);
        assert_eq!(s2.active_version, 7);
    }

    #[test]
    fn repr_cache_keeps_scores_bitwise_and_records_hits() {
        let f = FrozenModel::freeze(ToyModel::new(6, 9), 32);
        let sessions = vec![sess(&[1, 2]), sess(&[3, 4]), sess(&[1, 2])];
        let want = f.score_batch(&sessions);
        let cfg = EngineConfig {
            repr_cache: 64,
            ..EngineConfig::default()
        };
        let (cold, warm, status) = serve(
            &f,
            || ToyModel::new(6, 9),
            cfg,
            |client| {
                let cold = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                let warm = client.score(ScoreBatch {
                    sessions: sessions.clone(),
                });
                (cold, warm, client.status())
            },
        );
        for got in [&cold.scores, &warm.scores] {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cached row must be bitwise");
                }
            }
        }
        // the warm pass alone replays three sessions whose reprs are resident
        assert!(status.cache.hits >= 3, "expected warm hits: {:?}", status.cache);
        assert!(status.cache.entries >= 1);
    }
}
