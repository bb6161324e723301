//! The sharded serving front end: a TCP accept loop fronting N engine
//! replicas, with requests sharded by rendezvous hash straight into each
//! replica's engine queue.
//!
//! ```text
//! conn reader ──┬─ Hello/HelloAck (inline)
//!               └─▶ conn workers ──decode──(session shard)──▶ replica 0 engine queue ─▶ scoring workers
//!      ▲                         │                           replica 1 engine queue ─▶ ...
//!      └──────reassemble─────────┴─ one Ticket per replica group
//! ```
//!
//! Each replica is its own [`FrozenModel`] rebuilt from the shared weight
//! snapshot plus its own [`serve`] micro-batching engine, published to the
//! connection workers as a detached engine [`Client`]. A connection worker
//! shards a request's sessions over the alive replicas, enqueues each group
//! into its replica's engine, and then waits on the groups' tickets, so one
//! request's groups score concurrently and concurrent requests coalesce into
//! the engines' micro-batches. Sessions of one request can shard to
//! different replicas; the handler reassembles rows by slot, which is
//! score-safe because every replica holds bitwise-identical weights (pinned
//! by `tests/net_equivalence.rs`). The engine's queue is the only queue:
//! its `queue_cap`, `Overloaded` and deadline expiry are the server's.
//!
//! **Connection multiplexing.** Every connection runs a reader thread plus
//! [`ServerConfig::conn_workers`] request workers: the reader demultiplexes
//! incoming frames into a per-connection queue, workers process requests
//! concurrently, and whole-frame writes are serialized on a write lock — so
//! one connection can carry many requests in flight, completing out of
//! order (responses are keyed by request id). `Hello` handshakes are
//! answered inline by the reader so negotiation never queues behind
//! scoring; a peer offering an older protocol version gets a typed
//! `BadRequest`, and a frame of any other version is a protocol violation
//! that closes the connection.
//!
//! **Control plane.** `Control` frames carry the zero-downtime snapshot
//! lifecycle and call every alive replica's engine directly, in replica
//! order, never behind data-plane work: `LoadSnapshot` stages an
//! `EMBSRSNP` blob, `Activate` atomically flips scoring to a staged version
//! with no drain — in-flight batches finish under the version that scored
//! them and every response is tagged with it — and `Status` reports
//! per-replica active/staged versions plus session-repr cache counters.
//!
//! **Failure semantics** (exercised by the fault-injection suite):
//!
//! * *Replica death* ([`Server::kill_replica`]) — the replica's handle is
//!   unpublished under its lock (no new work can slip in) and its engine
//!   closes: work already in its queue is scored before the workers exit,
//!   and its thread is joined. A group routed on a stale view of the alive
//!   set is re-routed to the survivors via the rendezvous hash over the
//!   reduced set: zero wrong answers, and no error unless no replica is
//!   left.
//! * *Overload* — a shedding request whose target engine queue holds
//!   `engine.queue_cap` or more sessions is refused with a typed
//!   `Overloaded` error, never silently dropped; the server counts every
//!   rejection so load generators can reconcile their observed rejection
//!   rate exactly.
//! * *Deadline expiry* — the client's `deadline_us` budget rides the wire
//!   into the engine, whose workers shed work that waited past it. The
//!   injected delay of a slow replica ([`Server::set_replica_delay_us`])
//!   runs before that check, so a slow replica produces timely
//!   `DeadlineExpired` errors, not hangs.
//! * *Shutdown* ([`Server::shutdown`] or drop) — closes every engine (the
//!   queued work is scored, later requests fail `Unavailable`) and joins
//!   the accept loop, every connection handler, and every replica: no
//!   thread outlives the handle.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use embsr_obs::trace::{self, TraceCtx};
use embsr_obs::{metrics, Stopwatch};
use embsr_serve::{
    serve, top_k_of_row, Client, EngineConfig, FrozenModel, ScoreResponse, ServeError,
    SubmitOptions, SwapError, Ticket, TopKResponse,
};
use embsr_sessions::Session;
use embsr_train::SessionModel;

use crate::frame::{self, Frame, FrameError, FrameKind, VERSION};
use crate::shard;
use crate::wire::{self, ControlReply, ControlRequest, NetError, Request, RequestEnvelope,
    Response, ServerStatus};

/// Counter of requests received by connection handlers.
pub const METRIC_NET_REQUESTS: &str = "net.requests";
/// Counter of requests refused by admission control.
pub const METRIC_NET_REJECTED: &str = "net.rejected";
/// Counter of sessions re-routed off a dead replica.
pub const METRIC_NET_REROUTED: &str = "net.rerouted_sessions";
/// Counter of control-plane commands processed.
pub const METRIC_NET_CONTROL: &str = "net.control_requests";
/// Histogram of server-side request latency (decode → response written),
/// in microseconds.
pub const METRIC_NET_LATENCY_US: &str = "net.request_latency_us";

/// Tuning knobs of the networked server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Engine replicas (each its own snapshot rebuild + worker pool).
    pub replicas: usize,
    /// Request workers per connection: the per-connection concurrency
    /// ceiling of the multiplexed protocol (a pipelining client can keep
    /// this many requests of one connection in flight at once).
    pub conn_workers: usize,
    /// Per-replica engine configuration; its `queue_cap` is the admission
    /// bound a *shedding* request meets.
    pub engine: EngineConfig,
    /// Socket read timeout; also the shutdown polling cadence of idle
    /// connection handlers.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            replicas: 2,
            conn_workers: 8,
            engine: EngineConfig {
                queue_cap: 64,
                ..EngineConfig::default()
            },
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

/// One engine replica: its published handle while it accepts work, the
/// stop signal whose drop lets its `serve` call return, and its thread.
struct Replica {
    engine: Option<Client<'static>>,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

/// Poison-tolerant lock for plain data (a panicked peer cannot leave a
/// replica slot or socket guard structurally broken).
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lock: recover from poisoning — the protected state is still sound.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Inner {
    replicas: Vec<Mutex<Replica>>,
    shutdown: AtomicBool,
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

    /// The published engine handles, by replica index (`None` = dead).
    fn engines(&self) -> Vec<Option<Client<'static>>> {
        self.replicas.iter().map(|r| lock_plain(r).engine.clone()).collect()
    }
}

/// Unpublishes a replica's handle and drops its stop signal, so its
/// engine closes: queued work is scored, then the workers exit. Returns
/// the replica's thread for the caller to join.
fn retire(replica: &Mutex<Replica>) -> Option<JoinHandle<()>> {
    let mut replica = lock_plain(replica);
    replica.engine = None;
    replica.stop = None;
    replica.thread.take()
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Shards `pairs` over the alive replicas and enqueues each group straight
/// into its replica's engine, under that replica's lock, so no enqueue can
/// race [`Server::kill_replica`]. A group whose replica died after the
/// alive snapshot is re-routed over the reduced set; the loop is bounded by
/// the replica count, after which routing reports `Unavailable` instead of
/// spinning. Returns one ticket per group, with the group's request slots.
fn route_and_enqueue(
    inner: &Inner,
    pairs: Vec<(usize, Session)>,
    opts: SubmitOptions,
    ctx: TraceCtx,
) -> Result<Vec<(Vec<usize>, Ticket)>, NetError> {
    let mut tickets = Vec::new();
    let mut remaining = pairs;
    for attempt in 0..=inner.replicas.len() {
        let alive: Vec<bool> = inner.engines().iter().map(Option::is_some).collect();
        if !alive.contains(&true) {
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
            (0..inner.replicas.len()).map(|_| Vec::new()).collect();
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
            let mut replica = lock_plain(&inner.replicas[idx]);
            let Some(engine) = &replica.engine else {
                bounced.extend(group);
                continue;
            };
            let (slots, sessions): (Vec<usize>, Vec<Session>) = group.into_iter().unzip();
            match engine.enqueue(sessions, opts, ctx) {
                Ok(ticket) => tickets.push((slots, ticket)),
                Err(e) => {
                    // Only a dead scoring worker closes a published engine:
                    // unpublish it so later requests route around it.
                    if e == ServeError::Closed {
                        replica.engine = None;
                    }
                    return Err(e.into());
                }
            }
        }
        if bounced.is_empty() {
            return Ok(tickets);
        }
        remaining = bounced;
    }
    Err(NetError::Unavailable(
        "routing did not converge (replicas flapping)".into(),
    ))
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

fn swap_to_net(e: SwapError) -> NetError {
    NetError::BadRequest(e.to_string())
}

/// Applies one control command on every alive replica's engine, in replica
/// order: lifecycle commands must succeed everywhere (the first failure
/// wins; replicas that already applied the command keep it staged, and
/// staging is idempotent, so the operator re-issues after fixing the
/// cause), and status concatenates per-replica reports in replica order.
/// Control bypasses admission (the operator plane must work *because* the
/// data plane is saturated).
fn process_control(inner: &Inner, cmd: ControlRequest) -> Result<ControlReply, NetError> {
    let _span = embsr_obs::span("embsr_net", "process_control");
    let engines: Vec<Client<'static>> = inner.engines().into_iter().flatten().collect();
    if engines.is_empty() {
        return Err(NetError::Unavailable("no replicas alive".into()));
    }
    match cmd {
        ControlRequest::LoadSnapshot { version, snapshot } => {
            for engine in &engines {
                engine.stage_snapshot(version, &snapshot).map_err(swap_to_net)?;
            }
            Ok(ControlReply::Done { version })
        }
        ControlRequest::Activate { version } => {
            for engine in &engines {
                engine.activate(version).map_err(swap_to_net)?;
            }
            Ok(ControlReply::Done { version })
        }
        ControlRequest::Status => Ok(ControlReply::Status(ServerStatus {
            replicas: engines.iter().map(Client::status).collect(),
        })),
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn run_request(inner: &Inner, env: RequestEnvelope, ctx: TraceCtx) -> Result<Response, NetError> {
    let n = env.sessions.len();
    // Empty sessions are answered inline with empty rows, mirroring the
    // in-process engine: they carry nothing to score and nothing to shard.
    let pairs: Vec<(usize, Session)> = env
        .sessions
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let tickets = {
        let _route = trace::child(ctx, "route");
        route_and_enqueue(inner, pairs, env.opts, ctx)?
    };
    let mut rows: Vec<Vec<f32>> = vec![Vec::new(); n];
    // The newest snapshot version that contributed rows: one request's
    // sessions can straddle an activation across replicas, and the tag
    // reports the newest weights involved (0 = nothing scored).
    let mut model_version = 0u64;
    for (slots, ticket) in tickets {
        let resp = ticket.wait()?;
        model_version = model_version.max(resp.model_version);
        for (slot, row) in slots.into_iter().zip(resp.scores) {
            rows[slot] = row;
        }
    }
    Ok(match env.k {
        None => Response::Scores(ScoreResponse {
            scores: rows,
            model_version,
        }),
        Some(k) => {
            let _select = trace::child(ctx, "top_k");
            Response::Recs(TopKResponse {
                items: rows.iter().map(|row| top_k_of_row(row, k)).collect(),
                model_version,
            })
        }
    })
}

fn error_frame(request_id: u64, err: &NetError) -> Frame {
    Frame::new(FrameKind::ErrorResponse, request_id, wire::encode_error(err))
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
    let result = match req.kind {
        FrameKind::ScoreRequest | FrameKind::TopKRequest => {
            match wire::decode_request(&req.payload, req.kind == FrameKind::TopKRequest) {
                Ok(env) => {
                    // The client's root span crossed the wire inside the
                    // payload; nest the server-side work under it so one
                    // tree spans the whole request.
                    let span = trace::child(env.ctx, "server_request");
                    run_request(inner, env, span.ctx())
                }
                Err(e) => Err(e),
            }
        }
        FrameKind::Control => {
            // ordering: Relaxed — statistics counter, no synchronization.
            inner.control.fetch_add(1, Ordering::Relaxed);
            if metrics::enabled() {
                metrics::counter(METRIC_NET_CONTROL).inc();
            }
            match wire::decode_request_frame(req.kind, &req.payload) {
                Ok(Request::Control(cmd)) => process_control(inner, cmd).map(Response::Control),
                Ok(_) => Err(NetError::BadRequest("control frame expected".into())),
                Err(e) => Err(e),
            }
        }
        other => Err(NetError::BadRequest(format!("unexpected frame kind {other:?}"))),
    };
    account(inner, &result);
    match result {
        Ok(resp) => {
            let (kind, payload) = wire::encode_response(&resp);
            Frame::new(kind, req.request_id, payload)
        }
        Err(e) => error_frame(req.request_id, &e),
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
                        Ok(Request::Hello { max_version }) if max_version >= VERSION => {
                            let (kind, payload) = wire::encode_response(&Response::HelloAck {
                                version: VERSION,
                            });
                            Frame::new(kind, req.request_id, payload)
                        }
                        Ok(Request::Hello { max_version }) => error_frame(
                            req.request_id,
                            &NetError::BadRequest(format!(
                                "protocol version {max_version} is not served; \
                                 this server speaks version {VERSION}"
                            )),
                        ),
                        Ok(_) => error_frame(
                            req.request_id,
                            &NetError::BadRequest("hello frame expected".into()),
                        ),
                        Err(e) => error_frame(req.request_id, &e),
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
                    // Protocol violation (a frame of another protocol
                    // version included): tell the peer why, then drop the
                    // connection — framing sync is lost. Id 0 marks it
                    // connection-level.
                    let err = NetError::Frame(e);
                    account(&inner, &Err::<(), _>(err.clone()));
                    let _ = write_frame(&error_frame(0, &err));
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
    down: AtomicBool,
}

impl Server {
    /// Binds `127.0.0.1:0` and starts `cfg.replicas` engine replicas, each
    /// rebuilt from `frozen`'s weight snapshot via `factory` (the same
    /// replication contract as [`serve`] itself). Returns once every
    /// replica's engine accepts work.
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
        let factory = Arc::new(factory);
        let snapshot = Arc::new(frozen.snapshot().to_vec());
        let max_session_len = frozen.max_session_len();
        let tier = frozen.tier();
        let mut starting = Vec::new();
        for idx in 0..cfg.replicas.max(1) {
            let (ready, published) = mpsc::channel();
            let (stop, stopped) = mpsc::channel();
            let snapshot = Arc::clone(&snapshot);
            let factory = Arc::clone(&factory);
            let engine = cfg.engine;
            let handle = std::thread::Builder::new()
                .name(format!("embsr-net-replica-{idx}"))
                .spawn(move || {
                    // the replica (and, via `serve`, its engine workers)
                    // scores on the source model's kernel tier
                    let mut frozen =
                        FrozenModel::from_snapshot(factory(), &snapshot, max_session_len);
                    // the engine exports its own copy from the replica
                    drop(snapshot);
                    frozen.set_tier(tier);
                    serve(&frozen, move || factory(), engine, |client| {
                        // Publish the engine, then serve until the server
                        // drops the stop signal's sender.
                        if ready.send(client.detach()).is_ok() {
                            let _ = stopped.recv();
                        }
                    });
                })
                .map_err(|e| NetError::Unavailable(format!("replica spawn failed: {e}")))?;
            starting.push((published, stop, handle));
        }
        let mut replicas = Vec::with_capacity(starting.len());
        let mut failed = None;
        for (idx, (published, stop, thread)) in starting.into_iter().enumerate() {
            // A replica whose model build panicked never publishes.
            let engine = published.recv().ok();
            if engine.is_none() {
                failed.get_or_insert(idx);
            }
            replicas.push(Mutex::new(Replica {
                engine,
                stop: Some(stop),
                thread: Some(thread),
            }));
        }
        if let Some(idx) = failed {
            for thread in replicas.iter().filter_map(retire).collect::<Vec<_>>() {
                let _ = thread.join();
            }
            return Err(NetError::Unavailable(format!("replica {idx} failed to start")));
        }
        let inner = Arc::new(Inner {
            replicas,
            shutdown: AtomicBool::new(false),
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

    /// Fault injection: replica `idx`'s engine workers sleep `delay_us`
    /// after draining each batch, before its deadline check (see
    /// [`Client::set_delay_us`]). Returns false for an unknown replica.
    pub fn set_replica_delay_us(&self, idx: usize, delay_us: u64) -> bool {
        let Some(replica) = self.inner.replicas.get(idx) else {
            return false;
        };
        if let Some(engine) = &lock_plain(replica).engine {
            engine.set_delay_us(delay_us);
        }
        true
    }

    /// Fault injection: kills replica `idx`. Its handle is unpublished
    /// under the replica lock, so no new work can slip in; its engine
    /// closes, scores the work already queued, and its thread is joined
    /// before this returns. Returns false for an unknown replica.
    pub fn kill_replica(&self, idx: usize) -> bool {
        let _span = embsr_obs::span("embsr_net", "kill_replica");
        let Some(replica) = self.inner.replicas.get(idx) else {
            return false;
        };
        if let Some(thread) = retire(replica) {
            let _ = thread.join();
        }
        true
    }

    fn begin_shutdown(&self) {
        // ordering: SeqCst — the `down` swap makes shutdown run-once; the
        // shutdown store must totally order with the accept wake-up below,
        // or a handler woken by it could still read the flag as false and
        // sleep again, deadlocking the joins that follow.
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
        // Close every engine before joining any: queued work is scored,
        // later requests find no replica and fail `Unavailable`.
        let threads: Vec<JoinHandle<()>> =
            self.inner.replicas.iter().filter_map(retire).collect();
        for thread in threads {
            let _ = thread.join();
        }
        let handler_handles: Vec<JoinHandle<()>> = {
            let mut handlers = lock_plain(&self.inner.handlers);
            handlers.drain(..).collect()
        };
        for handle in handler_handles {
            let _ = handle.join();
        }
    }

    /// Stops accepting, closes every engine, and joins every spawned
    /// thread (accept loop, connection handlers, replicas). Idempotent;
    /// also runs on drop.
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
