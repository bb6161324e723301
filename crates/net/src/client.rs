//! The networked client: pipelined RPC over one multiplexed connection,
//! with typed errors and overload retry.
//!
//! A [`NetClient`] owns one TCP connection, and the connection is
//! **multiplexed**: [`NetClient::submit_score`] /
//! [`NetClient::submit_top_k`] write a request frame and return a
//! [`Pending`] handle immediately, a dedicated reader thread demultiplexes
//! response frames by request id, and any number of requests ride the
//! connection concurrently ([`NetClient::in_flight`] reports how many).
//! The blocking [`NetClient::score`] / [`NetClient::top_k`] wrappers are
//! `submit(..).wait()`, so existing call sites compile unchanged.
//!
//! [`NetClient::connect`] opens with a `Hello` handshake announcing the
//! highest protocol version the client speaks; a peer that refuses it
//! fails the connect with its typed error.
//!
//! The connection also carries the snapshot control plane:
//! [`NetClient::load_snapshot`] stages an `EMBSRSNP` blob under a version,
//! [`NetClient::activate`] flips scoring to it with zero downtime, and
//! [`NetClient::status`] reports per-replica active/staged versions and
//! session-repr cache counters.
//!
//! Every request opens a `net_request` trace root when tracing is active
//! and sends its [`TraceCtx`](embsr_obs::TraceCtx) inside the payload, so
//! the server's spans (and the engine's beneath them) nest into one
//! reconstructable tree per request. The root span lives inside the
//! [`Pending`] and closes at `wait`, covering the full in-flight window.
//!
//! [`NetClient::score_with_retry`] implements the client half of admission
//! control: `Overloaded` responses back off exponentially (capped) and
//! retry; every observed rejection is counted, which the admission tests
//! reconcile exactly against the server's counters.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use embsr_obs::trace::{self, TraceSpan};
use embsr_serve::{ScoreBatch, ScoreResponse, SubmitOptions, TopK, TopKResponse};

use crate::frame::{self, Frame, FrameError, FrameKind, VERSION};
use crate::wire::{self, ControlReply, ControlRequest, NetError, Request, Response, ServerStatus};

/// How long [`NetClient::connect`] waits for the peer's `HelloAck`.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Exponential backoff for overload retry.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try once).
    pub max_retries: u32,
    /// Backoff before the first retry, µs; doubles per retry.
    pub base_backoff_us: u64,
    /// Backoff ceiling, µs.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_backoff_us: 500,
            max_backoff_us: 100_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), µs.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }
}

/// State shared between caller threads and the reader thread.
struct Shared {
    /// Read side (and shutdown handle); only the reader thread reads it.
    stream: TcpStream,
    /// Write side: frame writes are serialized so pipelined requests never
    /// interleave mid-frame.
    write: Mutex<TcpStream>,
    /// In-flight requests awaiting their response frame, by request id.
    pending: Mutex<HashMap<u64, mpsc::Sender<Result<Frame, NetError>>>>,
    /// Set once when the connection dies; later submits fail fast with it.
    dead: Mutex<Option<NetError>>,
    next_id: AtomicU64,
    overloaded_seen: AtomicU64,
    retries: AtomicU64,
    /// Protocol version the handshake agreed on.
    proto_version: u8,
}

/// Poison-tolerant lock: client state stays usable if a caller thread
/// panicked mid-section (the data is a plain map/socket either way).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lock: poisoning only marks a peer thread's panic; the protected
    // state is still structurally sound, so recover the guard.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Counts `Overloaded` into the connection's stats as errors funnel back
/// to callers, so retry accounting reconciles against the server exactly.
fn note_overload(shared: &Shared, err: NetError) -> NetError {
    if matches!(err, NetError::Overloaded { .. }) {
        // ordering: Relaxed — plain statistics counter, no synchronization.
        shared.overloaded_seen.fetch_add(1, Ordering::Relaxed);
    }
    err
}

/// Dooms every in-flight request with `err` and marks the connection dead.
fn fail_all(shared: &Shared, err: NetError) {
    *lock(&shared.dead) = Some(err.clone());
    // det: drain order is irrelevant — every waiter receives the same
    // terminal error regardless of the map's iteration order.
    for (_, tx) in lock(&shared.pending).drain() {
        let _ = tx.send(Err(err.clone()));
    }
}

/// The reader half of the multiplexed connection: routes each response
/// frame to the submitter that registered its request id.
fn reader_loop(shared: &Shared) {
    let mut stream = &shared.stream;
    loop {
        match frame::read_frame(&mut stream) {
            Ok(resp) => {
                if resp.request_id == 0 {
                    // Request ids start at 1; the server reserves id 0 for
                    // connection-level failures that doom everything in
                    // flight (it closes the connection right after).
                    let err = if resp.kind == FrameKind::ErrorResponse {
                        wire::decode_error(&resp.payload)
                    } else {
                        NetError::Wire(format!("unsolicited {:?} frame", resp.kind))
                    };
                    fail_all(shared, err);
                    return;
                }
                if let Some(tx) = lock(&shared.pending).remove(&resp.request_id) {
                    // A receiver gone away means its Pending was dropped
                    // unwaited; the response is simply discarded.
                    let _ = tx.send(Ok(resp));
                }
            }
            Err(e) => {
                fail_all(shared, NetError::Frame(e));
                return;
            }
        }
    }
}

enum PendingState<T> {
    Ready(Box<Result<T, NetError>>),
    Waiting {
        rx: mpsc::Receiver<Result<Frame, NetError>>,
        decode: Box<dyn FnOnce(Frame) -> Result<T, NetError> + Send>,
        shared: Arc<Shared>,
        /// Keeps the `net_request` root open until `wait`, so the trace
        /// covers the full in-flight window.
        span: TraceSpan,
    },
}

/// A submitted request whose response may still be in flight.
///
/// Returned by [`NetClient::submit_score`] / [`NetClient::submit_top_k`];
/// [`Pending::wait`] blocks for the response (or fails with the error that
/// killed the connection). Dropping a `Pending` abandons the request — the
/// response frame is discarded when it arrives.
pub struct Pending<T> {
    state: PendingState<T>,
}

impl<T> Pending<T> {
    fn ready(result: Result<T, NetError>) -> Pending<T> {
        Pending {
            state: PendingState::Ready(Box::new(result)),
        }
    }

    /// Blocks until the response arrives and decodes it.
    pub fn wait(self) -> Result<T, NetError> {
        match self.state {
            PendingState::Ready(result) => *result,
            PendingState::Waiting {
                rx,
                decode,
                shared,
                span,
            } => {
                let frame = match rx.recv() {
                    Ok(Ok(frame)) => frame,
                    Ok(Err(e)) => return Err(note_overload(&shared, e)),
                    // The reader thread died without delivering anything:
                    // surface the recorded cause of death.
                    Err(_) => {
                        return Err(lock(&shared.dead)
                            .clone()
                            .unwrap_or(NetError::Frame(FrameError::Closed)))
                    }
                };
                if frame.kind == FrameKind::ErrorResponse {
                    return Err(note_overload(&shared, wire::decode_error(&frame.payload)));
                }
                let _decode = trace::child(span.ctx(), "decode_response");
                decode(frame)
            }
        }
    }
}

/// One connection to a [`Server`](crate::Server).
pub struct NetClient {
    shared: Arc<Shared>,
    reader: Option<JoinHandle<()>>,
}

fn tcp_connect(addr: SocketAddr) -> Result<TcpStream, NetError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| NetError::Unavailable(format!("connect failed: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Sends the `Hello` and returns the version the peer pinned.
fn hello(stream: &TcpStream) -> Result<u8, NetError> {
    let (kind, payload) = wire::encode_request(&Request::Hello {
        max_version: VERSION,
    });
    let mut writer = stream;
    frame::write_frame(&mut writer, &Frame::new(kind, 0, payload))?;
    // Bound the wait: a hung peer must not wedge connect forever.
    let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
    let mut reader = stream;
    let resp = frame::read_frame(&mut reader);
    let _ = stream.set_read_timeout(None);
    let resp = resp?;
    match wire::decode_response_frame(resp.kind, &resp.payload)? {
        Response::HelloAck { version } if version == VERSION => Ok(version),
        Response::HelloAck { version } => Err(NetError::Wire(format!(
            "peer pinned protocol version {version}, this client speaks {VERSION}"
        ))),
        Response::Error(err) => Err(err),
        other => Err(NetError::Wire(format!(
            "expected a hello ack, got {other:?}"
        ))),
    }
}

impl NetClient {
    /// Connects to a server and opens the connection with a `Hello`
    /// announcing [`VERSION`]; a peer that refuses it fails the connect
    /// with its typed error. Blocking reads; requests have no client-side
    /// timeout — the server's deadline machinery bounds them.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
        let _span = embsr_obs::span("embsr_net", "client_connect");
        let stream = tcp_connect(addr)?;
        let version = hello(&stream)?;
        let write = stream
            .try_clone()
            .map_err(|e| NetError::Unavailable(format!("socket clone failed: {e}")))?;
        let shared = Arc::new(Shared {
            stream,
            write: Mutex::new(write),
            pending: Mutex::new(HashMap::new()),
            dead: Mutex::new(None),
            next_id: AtomicU64::new(1),
            overloaded_seen: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            proto_version: version,
        });
        let for_reader = Arc::clone(&shared);
        let reader = thread::Builder::new()
            .name("embsr-net-client-reader".into())
            .spawn(move || reader_loop(&for_reader))
            .map_err(|e| NetError::Unavailable(format!("reader spawn failed: {e}")))?;
        Ok(NetClient {
            shared,
            reader: Some(reader),
        })
    }

    /// The protocol version this connection negotiated.
    pub fn proto_version(&self) -> u8 {
        // Fixed at connect; instrumented callers snapshot it alongside
        // `metrics::` counters.
        self.shared.proto_version
    }

    /// Requests currently awaiting a response on this connection.
    pub fn in_flight(&self) -> usize {
        // Reading a plain map size; instrumented callers take it alongside
        // `metrics::` snapshots.
        lock(&self.shared.pending).len()
    }

    /// `Overloaded` responses observed so far (including retried ones) —
    /// the client side of the admission-accounting reconciliation.
    pub fn overloaded_seen(&self) -> u64 {
        // Reading a plain counter; instrumented callers take it alongside
        // `metrics::` snapshots.
        // ordering: Relaxed — statistics counter, no synchronization.
        self.shared.overloaded_seen.load(Ordering::Relaxed)
    }

    /// Retries performed by [`NetClient::score_with_retry`] so far.
    pub fn retries(&self) -> u64 {
        // Companion counter to `overloaded_seen`; see `metrics::` note there.
        // ordering: Relaxed — statistics counter, no synchronization.
        self.shared.retries.load(Ordering::Relaxed)
    }

    /// The submit half of the pipelined path: registers the request id,
    /// writes the frame, and hands back a [`Pending`].
    fn submit<T, F>(&self, kind: FrameKind, payload: Vec<u8>, span: TraceSpan, decode: F) -> Pending<T>
    where
        F: FnOnce(Frame) -> Result<T, NetError> + Send + 'static,
    {
        if let Some(err) = lock(&self.shared.dead).clone() {
            return Pending::ready(Err(err));
        }
        // ordering: Relaxed — ids only need uniqueness, not ordering.
        let request_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        lock(&self.shared.pending).insert(request_id, tx);
        let frame = Frame::new(kind, request_id, payload);
        {
            let mut writer = lock(&self.shared.write);
            if let Err(e) = frame::write_frame(&mut *writer, &frame) {
                lock(&self.shared.pending).remove(&request_id);
                return Pending::ready(Err(NetError::Frame(e)));
            }
        }
        Pending {
            state: PendingState::Waiting {
                rx,
                decode: Box::new(decode),
                shared: Arc::clone(&self.shared),
                span,
            },
        }
    }

    /// Submits a full-vocabulary scoring request and returns immediately;
    /// [`Pending::wait`] blocks for the rows. Any number of submits may be
    /// in flight on the one connection.
    pub fn submit_score(&self, req: &ScoreBatch, opts: SubmitOptions) -> Pending<ScoreResponse> {
        let span = trace::root("net_request");
        let payload = wire::encode_score_request(req, opts, span.ctx());
        self.submit(FrameKind::ScoreRequest, payload, span, |frame| {
            if frame.kind != FrameKind::ScoreResponse {
                return Err(NetError::Wire(format!(
                    "expected a score response, got {:?}",
                    frame.kind
                )));
            }
            wire::decode_score_response(&frame.payload)
        })
    }

    /// Submits a top-`k` request and returns immediately; see
    /// [`NetClient::submit_score`].
    pub fn submit_top_k(&self, req: &TopK, opts: SubmitOptions) -> Pending<TopKResponse> {
        let span = trace::root("net_request");
        let payload = wire::encode_top_k_request(req, opts, span.ctx());
        self.submit(FrameKind::TopKRequest, payload, span, |frame| {
            if frame.kind != FrameKind::TopKResponse {
                return Err(NetError::Wire(format!(
                    "expected a top-k response, got {:?}",
                    frame.kind
                )));
            }
            wire::decode_top_k_response(&frame.payload)
        })
    }

    /// Scores the full vocabulary for each session of `req` across the
    /// wire, blocking. Bitwise-identical to the in-process engine (see the
    /// wire module docs). Equivalent to `submit_score(..).wait()`.
    pub fn score(
        &self,
        req: &ScoreBatch,
        opts: SubmitOptions,
    ) -> Result<ScoreResponse, NetError> {
        // Trace root lives inside the Pending (`trace::` covers the full
        // in-flight window even for this eager wrapper).
        self.submit_score(req, opts).wait()
    }

    /// The `k` best items per session of `req`, across the wire, blocking.
    pub fn top_k(&self, req: &TopK, opts: SubmitOptions) -> Result<TopKResponse, NetError> {
        // Trace root lives inside the Pending; see `trace::` note on `score`.
        self.submit_top_k(req, opts).wait()
    }

    /// One control-plane exchange.
    fn control(&self, cmd: ControlRequest) -> Result<ControlReply, NetError> {
        // Control exchanges carry no wire-borne TraceCtx (the server's
        // work is operator-plane, not per-request), so they trace under
        // their own root name and never claim a nested `server_request`.
        let span = trace::root("net_control");
        let (kind, payload) = wire::encode_request(&Request::Control(cmd));
        self.submit(kind, payload, span, |frame| {
            match wire::decode_response_frame(frame.kind, &frame.payload)? {
                Response::Control(reply) => Ok(reply),
                other => Err(NetError::Wire(format!(
                    "expected a control reply, got {other:?}"
                ))),
            }
        })
        .wait()
    }

    /// Stages serialized `EMBSRSNP` snapshot bytes under `version` in
    /// every replica without touching live scoring; flip to it with
    /// [`NetClient::activate`].
    pub fn load_snapshot(&self, version: u64, snapshot: &[u8]) -> Result<(), NetError> {
        let _span = embsr_obs::span("embsr_net", "client_load_snapshot");
        match self.control(ControlRequest::LoadSnapshot {
            version,
            snapshot: snapshot.to_vec(),
        })? {
            ControlReply::Done { .. } => Ok(()),
            other => Err(NetError::Wire(format!(
                "unexpected control reply {other:?}"
            ))),
        }
    }

    /// Atomically flips scoring to a previously staged snapshot version,
    /// with zero downtime: in-flight requests finish under the version
    /// that scored them, and every response is tagged with it.
    pub fn activate(&self, version: u64) -> Result<(), NetError> {
        let _span = embsr_obs::span("embsr_net", "client_activate");
        match self.control(ControlRequest::Activate { version })? {
            ControlReply::Done { .. } => Ok(()),
            other => Err(NetError::Wire(format!(
                "unexpected control reply {other:?}"
            ))),
        }
    }

    /// Per-replica serving state: active/staged snapshot versions and
    /// session-repr cache counters.
    pub fn status(&self) -> Result<ServerStatus, NetError> {
        let _span = embsr_obs::span("embsr_net", "client_status");
        match self.control(ControlRequest::Status)? {
            ControlReply::Status(status) => Ok(status),
            other => Err(NetError::Wire(format!(
                "unexpected control reply {other:?}"
            ))),
        }
    }

    /// [`NetClient::score`] with overload retry: `Overloaded` responses
    /// back off per `policy` and try again; every other outcome returns
    /// immediately. Returns the response and the retries it took.
    pub fn score_with_retry(
        &self,
        req: &ScoreBatch,
        opts: SubmitOptions,
        policy: &RetryPolicy,
    ) -> Result<(ScoreResponse, u32), NetError> {
        let _span = embsr_obs::span("embsr_net", "score_with_retry");
        let mut attempt = 0u32;
        loop {
            match self.score(req, opts) {
                Ok(resp) => return Ok((resp, attempt)),
                Err(NetError::Overloaded { queued, cap }) => {
                    if attempt >= policy.max_retries {
                        return Err(NetError::Overloaded { queued, cap });
                    }
                    attempt += 1;
                    // ordering: Relaxed — statistics counter, no synchronization.
                    self.shared.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(policy.backoff_us(attempt)));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Shut the socket down so the reader thread unblocks, then join it
        // (it fails any still-pending requests on the way out).
        let _ = self.shared.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
