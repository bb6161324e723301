//! The sharded serving front end: a TCP accept loop fronting N engine
//! replicas behind a rendezvous-hash router with bounded admission.
//!
//! ```text
//! conn reader ──┬─ Hello/HelloAck (inline)
//!               └─▶ conn workers ──decode──▶ router ──(session shard)──▶ replica 0 queue ─▶ dispatchers ─▶ serve() engine
//!      ▲                            │                                    replica 1 queue ─▶ ...
//!      └──────────reassemble────────┴─ per-(slot) replies via mpsc
//! ```
//!
//! Each replica is its own [`FrozenModel`] rebuilt from the shared weight
//! snapshot plus its own [`serve`] micro-batching engine; a small pool of
//! *dispatcher* threads per replica pulls routed work items off the
//! replica's bounded queue and submits them to the engine, so concurrent
//! requests still coalesce into micro-batches. Sessions of one request
//! can shard to different replicas; the handler reassembles rows by slot,
//! which is score-safe because every replica holds bitwise-identical
//! weights (pinned by `tests/net_equivalence.rs`).
//!
//! **Connection multiplexing (protocol v2).** Every connection runs a
//! reader thread plus [`ServerConfig::conn_workers`] request workers:
//! the reader demultiplexes incoming frames into a per-connection queue,
//! workers process requests concurrently, and whole-frame writes are
//! serialized on a write lock — so one connection can carry many requests
//! in flight, completing out of order (responses are keyed by request id).
//! `Hello` handshakes are answered inline by the reader so negotiation
//! never queues behind scoring. Responses echo the *request frame's*
//! protocol version, so a v1 peer never sees a v2 header and needs no
//! handshake at all.
//!
//! **Control plane (protocol v2).** `Control` frames carry the
//! zero-downtime snapshot lifecycle: `LoadSnapshot` stages an `EMBSRSNP`
//! blob in every alive replica's engine (bypassing admission), `Activate`
//! atomically flips scoring to a staged version with no drain — in-flight
//! batches finish under the version that scored them and every response
//! is tagged with it — and `Status` reports per-replica active/staged
//! versions plus session-repr cache counters.
//!
//! **Failure semantics** (exercised by the fault-injection suite):
//!
//! * *Replica death* ([`Server::kill_replica`]) — the replica is marked
//!   dead under its queue lock (no new work can slip in), its queued items
//!   are re-routed to survivors via the rendezvous hash over the reduced
//!   alive set (queued control commands fail `Unavailable`), and its
//!   thread is joined. In-flight items it already popped complete
//!   normally: zero wrong answers, and the only error responses are the
//!   bounded set that could not be re-homed.
//! * *Overload* — a shedding request whose target queue is at
//!   [`ServerConfig::admission_cap`] is refused with a typed `Overloaded`
//!   error, never silently dropped; the server counts every rejection so
//!   load generators can reconcile their observed rejection rate exactly.
//! * *Deadline expiry* — the client's `deadline_us` budget rides the wire;
//!   dispatchers shed work whose budget lapsed in the router queue and
//!   pass the *remaining* budget to the engine, which sheds again at
//!   drain time. A slow replica therefore produces timely
//!   `DeadlineExpired` errors, not hangs.
//! * *Shutdown* ([`Server::shutdown`] or drop) — closes admission, fails
//!   queued work with `Unavailable`, and joins the accept loop, every
//!   connection handler, and every replica: no thread outlives the handle.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use embsr_obs::trace::{self, TraceCtx};
use embsr_obs::{metrics, Stopwatch};
use embsr_serve::{
    serve, top_k_of_row, Client, EngineConfig, EngineStatus, FrozenModel, ScoreBatch,
    ScoreResponse, ScoredItem, SubmitOptions, SwapError, TopKResponse,
};
use embsr_sessions::Session;
use embsr_train::SessionModel;

use crate::frame::{self, Frame, FrameError, FrameKind, VERSION, VERSION_V1};
use crate::shard;
use crate::wire::{self, ControlReply, ControlRequest, NetError, Request, RequestEnvelope,
    Response, ServerStatus};

/// Counter of requests received by connection handlers.
pub const METRIC_NET_REQUESTS: &str = "net.requests";
/// Counter of requests refused by admission control.
pub const METRIC_NET_REJECTED: &str = "net.rejected";
/// Counter of sessions re-routed off a dead replica.
pub const METRIC_NET_REROUTED: &str = "net.rerouted_sessions";
/// Counter of router-level deadline expiries (engine-level ones land in
/// `serve.deadline_expired`).
pub const METRIC_NET_DEADLINE_EXPIRED: &str = "net.deadline_expired";
/// Counter of control-plane commands processed.
pub const METRIC_NET_CONTROL: &str = "net.control_requests";
/// Histogram of server-side request latency (decode → response written),
/// in microseconds.
pub const METRIC_NET_LATENCY_US: &str = "net.request_latency_us";

/// A request stuck longer than this (e.g. every replica died mid-flight
/// without its reply channel closing) is failed as `Unavailable` rather
/// than pinning its handler forever.
const REQUEST_STALL_CEILING_US: u64 = 60_000_000;

/// Tuning knobs of the networked server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Engine replicas (each its own snapshot rebuild + worker pool).
    pub replicas: usize,
    /// Dispatcher threads per replica pulling routed work into the engine;
    /// more dispatchers mean more concurrent requests coalescing into one
    /// engine's micro-batches.
    pub dispatchers: usize,
    /// Request workers per connection: the per-connection concurrency
    /// ceiling of the multiplexed protocol (a pipelining client can keep
    /// this many requests of one connection in flight at once).
    pub conn_workers: usize,
    /// Per-replica engine configuration.
    pub engine: EngineConfig,
    /// Bounded admission: work items allowed to wait in one replica's
    /// router queue before a *shedding* request is refused.
    pub admission_cap: usize,
    /// Socket read timeout; also the shutdown polling cadence of idle
    /// connection handlers.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            replicas: 2,
            dispatchers: 2,
            conn_workers: 8,
            engine: EngineConfig::default(),
            admission_cap: 64,
            read_timeout_ms: 20,
        }
    }
}

/// Point-in-time request accounting, exact (not sampled). The admission
/// tests reconcile `rejected` against client-observed `Overloaded`
/// responses one-for-one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered with scores/recommendations.
    pub completed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Sessions re-homed off a dead replica.
    pub rerouted_sessions: u64,
    /// Requests failed because their deadline budget lapsed.
    pub deadline_expired: u64,
    /// Requests failed because no replica could answer.
    pub unavailable: u64,
    /// Requests whose payload did not decode.
    pub bad_requests: u64,
    /// Control-plane commands received (snapshot staging/activation and
    /// status probes).
    pub control: u64,
}

/// One routed unit of work: the slice of a request's sessions that shard
/// to one replica.
struct WorkItem {
    /// `(slot in the originating request, session)` pairs.
    sessions: Vec<(usize, Session)>,
    /// Top-k cutoff; `None` for full score rows.
    k: Option<usize>,
    /// Remaining deadline budget at enqueue, µs (`0` = none).
    deadline_us: u64,
    /// Started when the item entered a router queue.
    enqueued: Stopwatch,
    /// Server-side request span; engine spans nest under it.
    ctx: TraceCtx,
    reply: Sender<Reply>,
}

enum Reply {
    /// Score rows plus the snapshot version that produced them.
    Rows(Vec<(usize, Vec<f32>)>, u64),
    /// Top-k rows plus the snapshot version that produced them.
    Items(Vec<(usize, Vec<ScoredItem>)>, u64),
    Failed(NetError),
}

/// What a control command produced on one replica.
enum ControlOutcome {
    Done,
    Status(EngineStatus),
}

/// A control command fanned out to one replica's engine.
struct ControlJob {
    replica: usize,
    cmd: ControlRequest,
    reply: Sender<(usize, Result<ControlOutcome, NetError>)>,
}

/// A queued unit on a replica: routed scoring work or a control command.
enum Work {
    Score(WorkItem),
    Control(ControlJob),
}

struct ReplicaState {
    jobs: VecDeque<Work>,
    alive: bool,
    /// Fault injection: artificial per-item latency, µs.
    delay_us: u64,
}

struct ReplicaQueue {
    state: Mutex<ReplicaState>,
    arrivals: Condvar,
}

fn lock_state(q: &ReplicaQueue) -> MutexGuard<'_, ReplicaState> {
    match q.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-tolerant lock for plain data (a panicked peer cannot leave a
/// socket guard or receiver structurally broken).
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lock: recover from poisoning — the protected state is still sound.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Inner {
    queues: Vec<ReplicaQueue>,
    shutdown: AtomicBool,
    admission_cap: usize,
    conn_workers: usize,
    read_timeout_ms: u64,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    completed: AtomicU64,
    rejected: AtomicU64,
    rerouted: AtomicU64,
    deadline_expired: AtomicU64,
    unavailable: AtomicU64,
    bad_requests: AtomicU64,
    control: AtomicU64,
}

impl Inner {
    fn is_shutdown(&self) -> bool {
        // ordering: SeqCst — pairs with the store in `begin_shutdown`; a
        // handler woken by the shutdown self-connect must observe the flag
        // or it would go back to sleep and never be joined.
        self.shutdown.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn alive_mask(inner: &Inner) -> Vec<bool> {
    inner.queues.iter().map(|q| lock_state(q).alive).collect()
}

enum PushRefusal {
    Full { queued: usize, cap: usize },
    Dead(WorkItem),
}

fn push_item(inner: &Inner, idx: usize, item: WorkItem, shed: bool) -> Result<(), PushRefusal> {
    let q = &inner.queues[idx];
    let mut st = lock_state(q);
    if !st.alive {
        return Err(PushRefusal::Dead(item));
    }
    if shed && st.jobs.len() >= inner.admission_cap {
        let queued = st.jobs.len();
        return Err(PushRefusal::Full {
            queued,
            cap: inner.admission_cap,
        });
    }
    st.jobs.push_back(Work::Score(item));
    drop(st);
    q.arrivals.notify_one();
    Ok(())
}

/// Shards `pairs` over the alive replicas and enqueues one [`WorkItem`]
/// per target. A replica dying between the alive snapshot and the push
/// bounces its slice back for re-routing over the reduced set; the loop is
/// bounded by the replica count, after which routing reports
/// `Unavailable` instead of spinning.
fn route_and_enqueue(
    inner: &Inner,
    pairs: Vec<(usize, Session)>,
    k: Option<usize>,
    opts: SubmitOptions,
    ctx: TraceCtx,
    reply: &Sender<Reply>,
) -> Result<(), NetError> {
    let mut remaining = pairs;
    for attempt in 0..=inner.queues.len() {
        let alive = alive_mask(inner);
        if !alive.iter().any(|&a| a) {
            return Err(NetError::Unavailable("no replicas alive".into()));
        }
        if attempt > 0 {
            let n = remaining.len() as u64;
            // ordering: Relaxed — statistics counter, no synchronization
            // rides on it.
            inner.rerouted.fetch_add(n, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_REROUTED).add(n);
            }
        }
        let mut groups: Vec<Vec<(usize, Session)>> =
            (0..inner.queues.len()).map(|_| Vec::new()).collect();
        for (slot, session) in remaining.drain(..) {
            if let Some(target) = shard::route(session.id, &alive) {
                groups[target].push((slot, session));
            }
        }
        let mut bounced: Vec<(usize, Session)> = Vec::new();
        for (idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let item = WorkItem {
                sessions: group,
                k,
                deadline_us: opts.deadline_us,
                enqueued: Stopwatch::start(),
                ctx,
                reply: reply.clone(),
            };
            match push_item(inner, idx, item, opts.shed) {
                Ok(()) => {}
                Err(PushRefusal::Full { queued, cap }) => {
                    return Err(NetError::Overloaded { queued, cap });
                }
                Err(PushRefusal::Dead(item)) => bounced.extend(item.sessions),
            }
        }
        if bounced.is_empty() {
            return Ok(());
        }
        remaining = bounced;
    }
    Err(NetError::Unavailable(
        "routing did not converge (replicas flapping)".into(),
    ))
}

// ---------------------------------------------------------------------------
// Dispatchers (router queue → engine)
// ---------------------------------------------------------------------------

fn pop_work(inner: &Inner, idx: usize) -> Option<(Work, u64)> {
    let q = &inner.queues[idx];
    let mut st = lock_state(q);
    loop {
        if let Some(work) = st.jobs.pop_front() {
            return Some((work, st.delay_us));
        }
        if !st.alive || inner.is_shutdown() {
            return None;
        }
        // The timeout bounds the damage of a lost notification; liveness
        // is re-checked on every wakeup (hence the loop).
        st = match q.arrivals.wait_timeout(st, Duration::from_millis(20)) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

fn handle_item(client: &Client<'_>, item: WorkItem, injected_delay_us: u64) {
    if injected_delay_us > 0 {
        // Fault injection: a slow replica. Sleeping *before* the deadline
        // check is what turns the injected latency into observable
        // `DeadlineExpired` errors rather than silent slowness.
        std::thread::sleep(Duration::from_micros(injected_delay_us));
    }
    let WorkItem {
        sessions,
        k,
        deadline_us,
        enqueued,
        ctx,
        reply,
    } = item;
    let waited_us = enqueued.elapsed_us();
    if deadline_us != 0 && waited_us >= deadline_us {
        // ordering via metrics registry only; no shared state here.
        if metrics::enabled() {
            metrics::counter(METRIC_NET_DEADLINE_EXPIRED).inc();
        }
        let _ = reply.send(Reply::Failed(NetError::DeadlineExpired { waited_us }));
        return;
    }
    let remaining_us = if deadline_us == 0 {
        0
    } else {
        deadline_us - waited_us
    };
    let opts = SubmitOptions {
        deadline_us: remaining_us,
        // Router-level admission already ran; the engine queue is sized by
        // the engine config and must not double-reject.
        shed: false,
    };
    let (slots, sessions): (Vec<usize>, Vec<Session>) = sessions.into_iter().unzip();
    match client.try_score_in(ScoreBatch { sessions }, opts, ctx) {
        Ok(resp) => match k {
            None => {
                let _ = reply.send(Reply::Rows(
                    slots.into_iter().zip(resp.scores).collect(),
                    resp.model_version,
                ));
            }
            Some(k) => {
                let _select = trace::child(ctx, "top_k");
                let items: Vec<(usize, Vec<ScoredItem>)> = slots
                    .into_iter()
                    .zip(resp.scores.iter().map(|row| top_k_of_row(row, k)))
                    .collect();
                drop(_select);
                let _ = reply.send(Reply::Items(items, resp.model_version));
            }
        },
        Err(e) => {
            let _ = reply.send(Reply::Failed(e.into()));
        }
    }
}

fn swap_to_net(e: SwapError) -> NetError {
    match e {
        SwapError::UnknownVersion(_) | SwapError::WrongLayout { .. } | SwapError::Malformed(_) => {
            NetError::BadRequest(e.to_string())
        }
    }
}

/// Applies one control command on this replica's engine and reports back.
fn handle_control(client: &Client<'_>, job: ControlJob) {
    let outcome = match &job.cmd {
        ControlRequest::LoadSnapshot { version, snapshot } => client
            .stage_snapshot(*version, snapshot)
            .map(|()| ControlOutcome::Done)
            .map_err(swap_to_net),
        ControlRequest::Activate { version } => client
            .activate(*version)
            .map(|()| ControlOutcome::Done)
            .map_err(swap_to_net),
        ControlRequest::Status => Ok(ControlOutcome::Status(client.status())),
    };
    let _ = job.reply.send((job.replica, outcome));
}

#[allow(clippy::too_many_arguments)]
fn run_replica<M, F>(
    idx: usize,
    inner: Arc<Inner>,
    snapshot: Arc<Vec<f32>>,
    max_session_len: usize,
    tier: embsr_serve::KernelTier,
    factory: Arc<F>,
    engine: EngineConfig,
    dispatchers: usize,
) where
    M: SessionModel,
    F: Fn() -> M + Send + Sync + 'static,
{
    // the replica (and, via `serve`, its engine workers) scores on the
    // source model's kernel tier
    let mut frozen = FrozenModel::from_snapshot(factory(), &snapshot, max_session_len);
    frozen.set_tier(tier);
    let worker_factory = Arc::clone(&factory);
    serve(&frozen, move || worker_factory(), engine, |client| {
        std::thread::scope(|scope| {
            for _ in 0..dispatchers.max(1) {
                let inner = &inner;
                scope.spawn(move || {
                    while let Some((work, delay_us)) = pop_work(inner, idx) {
                        match work {
                            Work::Score(item) => handle_item(client, item, delay_us),
                            // Control commands skip the fault-injection
                            // delay: they model the operator plane, not the
                            // data plane.
                            Work::Control(job) => handle_control(client, job),
                        }
                    }
                });
            }
        });
    });
}

// ---------------------------------------------------------------------------
// Control-plane fan-out
// ---------------------------------------------------------------------------

/// Fans one control command out to every alive replica's engine and folds
/// the answers: lifecycle commands must succeed everywhere (`Done`),
/// status concatenates per-replica reports in replica order. Control
/// bypasses admission (the operator plane must work *because* the data
/// plane is saturated).
fn process_control(inner: &Inner, cmd: ControlRequest) -> Result<ControlReply, NetError> {
    let _span = embsr_obs::span("embsr_net", "process_control");
    let (tx, rx) = std::sync::mpsc::channel();
    let mut fanned = 0usize;
    for (idx, q) in inner.queues.iter().enumerate() {
        let job = ControlJob {
            replica: idx,
            cmd: cmd.clone(),
            reply: tx.clone(),
        };
        let mut st = lock_state(q);
        if !st.alive {
            continue;
        }
        st.jobs.push_back(Work::Control(job));
        drop(st);
        q.arrivals.notify_one();
        fanned += 1;
    }
    drop(tx);
    if fanned == 0 {
        return Err(NetError::Unavailable("no replicas alive".into()));
    }
    let mut statuses: Vec<(usize, EngineStatus)> = Vec::new();
    let mut got = 0usize;
    let stall = Stopwatch::start();
    while got < fanned {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((idx, Ok(outcome))) => {
                got += 1;
                if let ControlOutcome::Status(s) = outcome {
                    statuses.push((idx, s));
                }
            }
            // First failure wins; replicas that already applied the command
            // keep it staged (staging is idempotent — the operator
            // re-issues after fixing the cause).
            Ok((_, Err(e))) => return Err(e),
            Err(RecvTimeoutError::Timeout) => {
                if inner.is_shutdown() {
                    return Err(NetError::Unavailable("server shutting down".into()));
                }
                if stall.elapsed_us() > REQUEST_STALL_CEILING_US {
                    return Err(NetError::Unavailable("control command stalled".into()));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::Unavailable(
                    "replica dropped the control command".into(),
                ));
            }
        }
    }
    match cmd {
        ControlRequest::Status => {
            statuses.sort_by_key(|&(idx, _)| idx);
            Ok(ControlReply::Status(ServerStatus {
                replicas: statuses.into_iter().map(|(_, s)| s).collect(),
            }))
        }
        ControlRequest::LoadSnapshot { version, .. } | ControlRequest::Activate { version } => {
            Ok(ControlReply::Done { version })
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

enum Outcome {
    Scores(ScoreResponse),
    Recs(TopKResponse),
}

fn run_request(inner: &Inner, env: RequestEnvelope, ctx: TraceCtx) -> Result<Outcome, NetError> {
    let n = env.sessions.len();
    let (tx, rx) = std::sync::mpsc::channel::<Reply>();
    // Empty sessions are answered inline with empty rows, mirroring the
    // in-process engine: they carry nothing to score and nothing to shard.
    let pairs: Vec<(usize, Session)> = env
        .sessions
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let expected = pairs.len();
    {
        let _route = trace::child(ctx, "route");
        route_and_enqueue(inner, pairs, env.k, env.opts, ctx, &tx)?;
    }
    drop(tx);
    let mut rows: Vec<Vec<f32>> = vec![Vec::new(); n];
    let mut items: Vec<Vec<ScoredItem>> = vec![Vec::new(); n];
    // The newest snapshot version that contributed rows: one request's
    // sessions can straddle an activation across replicas, and the tag
    // reports the newest weights involved (0 = nothing scored).
    let mut model_version = 0u64;
    let mut got = 0usize;
    let stall = Stopwatch::start();
    while got < expected {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Reply::Rows(slice, version)) => {
                model_version = model_version.max(version);
                for (slot, row) in slice {
                    rows[slot] = row;
                    got += 1;
                }
            }
            Ok(Reply::Items(slice, version)) => {
                model_version = model_version.max(version);
                for (slot, recs) in slice {
                    items[slot] = recs;
                    got += 1;
                }
            }
            Ok(Reply::Failed(e)) => return Err(e),
            Err(RecvTimeoutError::Timeout) => {
                if inner.is_shutdown() {
                    return Err(NetError::Unavailable("server shutting down".into()));
                }
                if stall.elapsed_us() > REQUEST_STALL_CEILING_US {
                    return Err(NetError::Unavailable("request stalled".into()));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::Unavailable(
                    "replica dropped the request".into(),
                ));
            }
        }
    }
    Ok(match env.k {
        None => Outcome::Scores(ScoreResponse {
            scores: rows,
            model_version,
        }),
        Some(_) => Outcome::Recs(TopKResponse {
            items,
            model_version,
        }),
    })
}

/// An error response, framed at `version` so the peer can parse it.
fn error_frame(version: u8, request_id: u64, err: &NetError) -> Frame {
    Frame::versioned(
        version,
        FrameKind::ErrorResponse,
        request_id,
        wire::encode_error(err),
    )
}

fn account<T>(inner: &Inner, result: &Result<T, NetError>) {
    // ordering: Relaxed (all) — exact statistics counters; readers snapshot
    // them after quiescing, no synchronization rides on the values.
    match result {
        Ok(_) => {
            inner.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(NetError::Overloaded { .. }) => {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_REJECTED).inc();
            }
        }
        Err(NetError::DeadlineExpired { .. }) => {
            inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
        Err(NetError::Unavailable(_)) => {
            inner.unavailable.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            inner.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn process_request(inner: &Inner, req: Frame) -> Frame {
    let id = req.request_id;
    let version = req.version;
    let top_k = match req.kind {
        FrameKind::ScoreRequest => false,
        FrameKind::TopKRequest => true,
        FrameKind::Control => {
            // ordering: Relaxed — statistics counter, no synchronization.
            inner.control.fetch_add(1, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_CONTROL).inc();
            }
            let result = match wire::decode_request_frame(req.kind, &req.payload) {
                Ok(Request::Control(cmd)) => process_control(inner, cmd),
                Ok(_) => Err(NetError::BadRequest("control frame expected".into())),
                Err(e) => Err(e),
            };
            account(inner, &result);
            return match result {
                Ok(reply) => {
                    let (kind, payload) = wire::encode_response(&Response::Control(reply));
                    Frame::versioned(version, kind, id, payload)
                }
                Err(e) => error_frame(version, id, &e),
            };
        }
        other => {
            let e = NetError::BadRequest(format!("unexpected frame kind {other:?}"));
            account(inner, &Err::<(), _>(e.clone()));
            return error_frame(version, id, &e);
        }
    };
    let env = match wire::decode_request(&req.payload, top_k) {
        Ok(env) => env,
        Err(e) => {
            account(inner, &Err::<(), _>(e.clone()));
            return error_frame(version, id, &e);
        }
    };
    // The client's root span crossed the wire inside the payload; nest the
    // server-side work under it so one tree spans the whole request.
    let span = trace::child(env.ctx, "server_request");
    let result = run_request(inner, env, span.ctx());
    drop(span);
    account(inner, &result);
    match result {
        Ok(Outcome::Scores(resp)) => Frame::versioned(
            version,
            FrameKind::ScoreResponse,
            id,
            wire::encode_score_response(&resp),
        ),
        Ok(Outcome::Recs(resp)) => Frame::versioned(
            version,
            FrameKind::TopKResponse,
            id,
            wire::encode_top_k_response(&resp),
        ),
        Err(e) => error_frame(version, id, &e),
    }
}

/// One connection: a reader demultiplexing frames into a per-connection
/// queue drained by [`ServerConfig::conn_workers`] request workers, whose
/// responses are written whole-frame under a shared write lock — so many
/// requests of one connection proceed concurrently and complete out of
/// order. `Hello` frames are answered inline by the reader.
fn handle_conn(stream: TcpStream, inner: Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(inner.read_timeout_ms.max(1))));
    let write = Mutex::new(());
    let write_frame = |frame: &Frame| -> bool {
        // lock: whole-frame writes from concurrent workers must not
        // interleave mid-frame.
        let _serialize = lock_plain(&write);
        let mut writer = &stream;
        frame::write_frame(&mut writer, frame).is_ok()
    };
    let (tx, rx) = std::sync::mpsc::channel::<Frame>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..inner.conn_workers.max(1) {
            let rx = &rx;
            let inner = &inner;
            let write_frame = &write_frame;
            scope.spawn(move || loop {
                // lock: held across recv — idle workers queue on the mutex
                // and take requests in arrival order, one each.
                let req = lock_plain(rx).recv();
                let Ok(req) = req else { return };
                let watch = Stopwatch::start();
                if metrics::enabled() {
                    metrics::counter(METRIC_NET_REQUESTS).inc();
                }
                let resp = process_request(inner, req);
                if !write_frame(&resp) {
                    return;
                }
                if metrics::enabled() {
                    metrics::histogram(METRIC_NET_LATENCY_US).record(watch.elapsed_us());
                }
            });
        }
        loop {
            let mut reader = &stream;
            match frame::read_frame(&mut reader) {
                Ok(req) if req.kind == FrameKind::Hello => {
                    // Inline so negotiation never queues behind scoring.
                    let resp = match wire::decode_request_frame(req.kind, &req.payload) {
                        Ok(Request::Hello { max_version }) => {
                            let version = max_version.clamp(VERSION_V1, VERSION);
                            let (kind, payload) =
                                wire::encode_response(&Response::HelloAck { version });
                            Frame::versioned(req.version, kind, req.request_id, payload)
                        }
                        Ok(_) => error_frame(
                            req.version,
                            req.request_id,
                            &NetError::BadRequest("hello frame expected".into()),
                        ),
                        Err(e) => error_frame(req.version, req.request_id, &e),
                    };
                    if !write_frame(&resp) {
                        break;
                    }
                }
                Ok(req) => {
                    if tx.send(req).is_err() {
                        break;
                    }
                }
                Err(FrameError::Idle) => {
                    if inner.is_shutdown() {
                        break;
                    }
                }
                Err(FrameError::Closed) => break,
                Err(
                    e @ (FrameError::BadMagic(_)
                    | FrameError::BadVersion(_)
                    | FrameError::BadKind(_)
                    | FrameError::TooLarge { .. }),
                ) => {
                    // Protocol violation: tell the peer why, then drop the
                    // connection — framing sync is lost. Id 0 marks it
                    // connection-level; framed at v1 so any peer parses it.
                    let err = NetError::Frame(e);
                    account(&inner, &Err::<(), _>(err.clone()));
                    let _ = write_frame(&error_frame(VERSION_V1, 0, &err));
                    break;
                }
                Err(_) => break,
            }
        }
        // Reader done: close the queue so idle workers drain out. Workers
        // mid-request finish and write (or fail) their response first —
        // the scope join below waits for them.
        drop(tx);
    });
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

/// A running networked serving instance; see the module docs for the
/// architecture. Dropping the handle shuts the server down and joins every
/// thread it spawned.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    replicas: Mutex<Vec<Option<JoinHandle<()>>>>,
    down: AtomicBool,
}

impl Server {
    /// Binds `127.0.0.1:0` and starts `cfg.replicas` engine replicas, each
    /// rebuilt from `frozen`'s weight snapshot via `factory` (the same
    /// replication contract as [`serve`] itself).
    pub fn start<M, F>(
        frozen: &FrozenModel<M>,
        factory: F,
        cfg: ServerConfig,
    ) -> Result<Server, NetError>
    where
        M: SessionModel,
        F: Fn() -> M + Send + Sync + 'static,
    {
        let _span = embsr_obs::span("embsr_net", "server_start");
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| NetError::Unavailable(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::Unavailable(format!("local_addr failed: {e}")))?;
        let replicas = cfg.replicas.max(1);
        let inner = Arc::new(Inner {
            queues: (0..replicas)
                .map(|_| ReplicaQueue {
                    state: Mutex::new(ReplicaState {
                        jobs: VecDeque::new(),
                        alive: true,
                        delay_us: 0,
                    }),
                    arrivals: Condvar::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            admission_cap: cfg.admission_cap.max(1),
            conn_workers: cfg.conn_workers.max(1),
            read_timeout_ms: cfg.read_timeout_ms,
            handlers: Mutex::new(Vec::new()),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            control: AtomicU64::new(0),
        });
        let factory = Arc::new(factory);
        let snapshot = Arc::new(frozen.snapshot().to_vec());
        let max_session_len = frozen.max_session_len();
        let tier = frozen.tier();
        let mut replica_handles = Vec::with_capacity(replicas);
        for idx in 0..replicas {
            let inner_r = Arc::clone(&inner);
            let snapshot_r = Arc::clone(&snapshot);
            let factory_r = Arc::clone(&factory);
            let engine = cfg.engine;
            let dispatchers = cfg.dispatchers;
            let handle = std::thread::Builder::new()
                .name(format!("embsr-net-replica-{idx}"))
                .spawn(move || {
                    run_replica(
                        idx,
                        inner_r,
                        snapshot_r,
                        max_session_len,
                        tier,
                        factory_r,
                        engine,
                        dispatchers,
                    )
                })
                .map_err(|e| NetError::Unavailable(format!("replica spawn failed: {e}")))?;
            replica_handles.push(Some(handle));
        }
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("embsr-net-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_inner.is_shutdown() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_inner = Arc::clone(&accept_inner);
                    let spawned = std::thread::Builder::new()
                        .name("embsr-net-conn".into())
                        .spawn(move || handle_conn(stream, conn_inner));
                    if let Ok(handle) = spawned {
                        let mut handlers = lock_plain(&accept_inner.handlers);
                        handlers.push(handle);
                    }
                }
            })
            .map_err(|e| NetError::Unavailable(format!("accept spawn failed: {e}")))?;
        Ok(Server {
            inner,
            addr,
            accept: Mutex::new(Some(accept)),
            replicas: Mutex::new(replica_handles),
            down: AtomicBool::new(false),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Exact request accounting so far.
    pub fn stats(&self) -> ServerStats {
        // ordering: Relaxed (all) — see `account`; callers quiesce traffic
        // before reconciling counts (they pair with `metrics::` snapshots).
        ServerStats {
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            rerouted_sessions: self.inner.rerouted.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            unavailable: self.inner.unavailable.load(Ordering::Relaxed),
            bad_requests: self.inner.bad_requests.load(Ordering::Relaxed),
            control: self.inner.control.load(Ordering::Relaxed),
        }
    }

    /// Fault injection: adds `delay_us` of artificial latency in front of
    /// every work item replica `idx` dispatches. Returns false for an
    /// unknown replica.
    pub fn set_replica_delay_us(&self, idx: usize, delay_us: u64) -> bool {
        // Fault-injection knob; the faults suite pairs it with `metrics::`
        // snapshots.
        let Some(q) = self.inner.queues.get(idx) else {
            return false;
        };
        lock_state(q).delay_us = delay_us;
        true
    }

    /// Fault injection: kills replica `idx`. The replica is marked dead
    /// under its queue lock, its queued work is re-routed to the surviving
    /// replicas (or failed `Unavailable` when none survive; queued control
    /// commands always fail — the operator re-issues against the reduced
    /// set), and its thread is joined before this returns. Work it had
    /// already started completes normally. Returns false for an unknown
    /// replica.
    pub fn kill_replica(&self, idx: usize) -> bool {
        let _span = embsr_obs::span("embsr_net", "kill_replica");
        let Some(q) = self.inner.queues.get(idx) else {
            return false;
        };
        let drained: Vec<Work> = {
            let mut st = lock_state(q);
            st.alive = false;
            st.jobs.drain(..).collect()
        };
        q.arrivals.notify_all();
        for work in drained {
            match work {
                Work::Score(item) => {
                    let WorkItem {
                        sessions,
                        k,
                        deadline_us,
                        ctx,
                        reply,
                        ..
                    } = item;
                    let opts = SubmitOptions {
                        deadline_us,
                        // Re-routes never shed: admission already accepted
                        // this work, so refusing it now would be a silent
                        // drop in disguise. The deadline still bounds it.
                        shed: false,
                    };
                    if let Err(e) = route_and_enqueue(&self.inner, sessions, k, opts, ctx, &reply) {
                        let _ = reply.send(Reply::Failed(e));
                    }
                }
                Work::Control(job) => {
                    let _ = job.reply.send((
                        job.replica,
                        Err(NetError::Unavailable("replica died".into())),
                    ));
                }
            }
        }
        let handle = {
            let mut replicas = lock_plain(&self.replicas);
            replicas.get_mut(idx).and_then(Option::take)
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        true
    }

    fn begin_shutdown(&self) {
        // ordering: SeqCst — the `down` swap makes shutdown run-once; the
        // shutdown store must totally order with the queue mutexes and the
        // accept wake-up below, or a handler/dispatcher woken by them
        // could still read the flag as false and sleep again, deadlocking
        // the joins that follow.
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: `incoming()` has no timeout, so poke it
        // with a throwaway connection. Join it *before* draining handler
        // handles so no late-accepted connection can slip past the joins.
        let _ = TcpStream::connect(self.addr);
        let accept = {
            let mut slot = lock_plain(&self.accept);
            slot.take()
        };
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        // Close every replica and fail whatever was still queued.
        for q in &self.inner.queues {
            let drained: Vec<Work> = {
                let mut st = lock_state(q);
                st.alive = false;
                st.jobs.drain(..).collect()
            };
            q.arrivals.notify_all();
            for work in drained {
                let err = NetError::Unavailable("server shutting down".into());
                match work {
                    Work::Score(item) => {
                        let _ = item.reply.send(Reply::Failed(err));
                    }
                    Work::Control(job) => {
                        let _ = job.reply.send((job.replica, Err(err)));
                    }
                }
            }
        }
        let replica_handles: Vec<JoinHandle<()>> = {
            let mut replicas = lock_plain(&self.replicas);
            replicas.iter_mut().filter_map(Option::take).collect()
        };
        for handle in replica_handles {
            let _ = handle.join();
        }
        let handler_handles: Vec<JoinHandle<()>> = {
            let mut handlers = lock_plain(&self.inner.handlers);
            handlers.drain(..).collect()
        };
        for handle in handler_handles {
            let _ = handle.join();
        }
    }

    /// Stops accepting, fails queued work, and joins every spawned thread
    /// (accept loop, connection handlers, replicas). Idempotent; also runs
    /// on drop.
    pub fn shutdown(self) {
        let _span = embsr_obs::span("embsr_net", "server_shutdown");
        self.begin_shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}
