//! Payload codecs for every frame kind, plus the typed [`NetError`] every
//! failure on the networked path collapses into.
//!
//! Payloads ride inside frames (see [`frame`](crate::frame)). Every payload
//! is little-endian binary, built from the same few field shapes:
//!
//! ```text
//! fields    integers LE at their width · counts u32 · bytes = len u32 · raw · text = bytes, UTF-8
//! request   deadline_us u64 · shed u8 (0|1) · trace u64 · span u64 · [k u32, TopKRequest only]
//!           · sessions u32 · per session (id u64 · events u32 · events × (item u32 · op u16))
//! response  model_version u64 · rows u32 · per row (len u32 · len × cell)
//!           ScoreResponse cell: score f32 bits · TopKResponse cell: item u32 · score f32 bits
//! Hello     max_version u8                     HelloAck  version u8
//! Error     code u8 · 1 overloaded: queued u64 · cap u64 | 2 deadline_expired: waited_us u64
//!           | 3 unavailable: text | 4 bad_request: text
//! Control   op u8 · 1 load_snapshot: version u64 · snapshot bytes | 2 activate: version u64 | 3 status
//! Reply     code u8 · 1 done: version u64 | 2 status: replicas u32 · per replica (active u64
//!           · staged u32 × u64 · hits, misses, insertions, evictions, entries, bytes: u64)
//! ```
//!
//! A request carries the serving [`SubmitOptions`] (deadline budget in µs
//! and the shed flag, so admission control and deadline expiry propagate
//! end to end) and the caller's [`TraceCtx`] (so trace trees cross the
//! boundary; two zero ids mean untraced). Session and trace ids cross at
//! their full 64 bits, and a snapshot crosses as its raw bytes.
//!
//! Rows are ragged, because an empty session is answered with an empty
//! row. A score is its `f32` bits, so scores cross the wire **bitwise** by
//! construction, −0.0, infinities and NaN payloads included; the networked
//! equivalence suite pins this at `f32::to_bits` granularity.
//!
//! The decoders read untrusted bytes. Every declared count is bounded by
//! the bytes that remain before anything is allocated, trailing bytes are
//! refused, and every malformation is a [`NetError::Wire`]: a shed byte
//! other than 0 or 1, an unknown code or op, a trace context with exactly
//! one zero id and text that is not UTF-8 included. So every payload that
//! decodes encodes back to the same bytes.

use embsr_obs::TraceCtx;
use embsr_sessions::{MicroBehavior, Session};
use embsr_serve::{
    CacheStats, EngineStatus, ScoreBatch, ScoreResponse, ScoredItem, ServeError, SubmitOptions,
    TopK, TopKResponse,
};

use crate::frame::{FrameError, FrameKind, VERSION};

/// Every way a networked request can fail, client-visible. `Overloaded`
/// and `DeadlineExpired` mirror the engine's [`ServeError`] — load
/// conditions callers back off on; the rest are protocol or transport
/// faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// Framing-layer failure (bad magic, truncation, transport I/O, ...).
    Frame(FrameError),
    /// The peer's payload did not decode against the documented schema.
    Wire(String),
    /// Admission control rejected the request; retry after backoff.
    Overloaded { queued: usize, cap: usize },
    /// The request outlived its deadline budget in a queue.
    DeadlineExpired { waited_us: u64 },
    /// No replica could answer (replica death, server shutdown).
    Unavailable(String),
    /// The server could not interpret the request.
    BadRequest(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Wire(msg) => write!(f, "wire: {msg}"),
            NetError::Overloaded { queued, cap } => {
                write!(f, "overloaded: {queued} queued against cap {cap}")
            }
            NetError::DeadlineExpired { waited_us } => {
                write!(f, "deadline expired after {waited_us}us")
            }
            NetError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            NetError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Overloaded { queued, cap } => NetError::Overloaded { queued, cap },
            ServeError::DeadlineExpired { waited_us } => NetError::DeadlineExpired { waited_us },
            ServeError::Closed => NetError::Unavailable("replica engine closed".into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Fields (see the module docs)
// ---------------------------------------------------------------------------

/// A count as its `u32` length field. A count above `u32::MAX` saturates:
/// such a payload is far above `frame::MAX_PAYLOAD`, so the frame encoder
/// refuses it before it reaches a socket.
fn len_field(n: usize) -> [u8; 4] {
    u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes()
}

/// A one-byte tag followed by a `u64`.
fn tagged(tag: u8, value: u64) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(&value.to_le_bytes());
    out
}

/// Appends `len u32 · raw`.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&len_field(bytes.len()));
    out.extend_from_slice(bytes);
}

fn take<const N: usize>(rest: &mut &[u8], what: &str) -> Result<[u8; N], NetError> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| NetError::Wire(format!("payload ends inside the {what}")))?;
    *rest = tail;
    Ok(*head)
}

fn take_len(rest: &mut &[u8], what: &str) -> Result<usize, NetError> {
    let n = u32::from_le_bytes(take(rest, what)?);
    usize::try_from(n).map_err(|_| NetError::Wire(format!("{what} {n} overflows usize")))
}

fn take_u8(rest: &mut &[u8], what: &str) -> Result<u8, NetError> {
    take(rest, what).map(|[b]| b)
}

fn take_u64(rest: &mut &[u8], what: &str) -> Result<u64, NetError> {
    take(rest, what).map(u64::from_le_bytes)
}

/// Reads a count of entries that each spend at least `min_bytes`, refusing
/// a count the bytes left cannot hold: a hostile count never sizes an
/// allocation.
fn take_count(rest: &mut &[u8], min_bytes: usize, what: &str) -> Result<usize, NetError> {
    let n = take_len(rest, what)?;
    if n > rest.len() / min_bytes {
        return Err(NetError::Wire(format!(
            "{what} {n} declared with {} byte(s) left",
            rest.len()
        )));
    }
    Ok(n)
}

/// Reads a count and that many `N`-byte cells.
fn take_cells<'a, const N: usize>(
    rest: &mut &'a [u8],
    what: &str,
) -> Result<&'a [[u8; N]], NetError> {
    let n = take_len(rest, what)?;
    let (cells, tail) = n
        .checked_mul(N)
        .and_then(|bytes| rest.split_at_checked(bytes))
        .ok_or_else(|| {
            NetError::Wire(format!(
                "{what} {n} declared with {} byte(s) left",
                rest.len()
            ))
        })?;
    *rest = tail;
    Ok(cells.as_chunks::<N>().0)
}

fn take_text(rest: &mut &[u8], what: &str) -> Result<String, NetError> {
    let bytes = take_cells::<1>(rest, what)?.as_flattened();
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|e| NetError::Wire(format!("{what} is not UTF-8: {e}")))
}

/// Reads a whole payload with `fields`, refusing any byte they leave.
fn decode_whole<T>(
    payload: &[u8],
    fields: impl FnOnce(&mut &[u8]) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut rest = payload;
    let value = fields(&mut rest)?;
    if !rest.is_empty() {
        return Err(NetError::Wire(format!(
            "{} trailing byte(s) after the last field",
            rest.len()
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded request envelope: the sessions plus the admission/deadline
/// options and the caller's trace context.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEnvelope {
    pub sessions: Vec<Session>,
    pub opts: SubmitOptions,
    pub ctx: TraceCtx,
    /// Top-k cutoff; `None` for full-vocabulary score requests.
    pub k: Option<usize>,
}

/// Writes the request layout; `k` is present for top-k requests only.
fn encode_request_fields(
    sessions: &[Session],
    opts: SubmitOptions,
    ctx: TraceCtx,
    k: Option<usize>,
) -> Vec<u8> {
    let events: usize = sessions.iter().map(|s| s.events.len()).sum();
    let mut out = Vec::with_capacity(33 + 12 * sessions.len() + 6 * events);
    out.extend_from_slice(&opts.deadline_us.to_le_bytes());
    out.push(u8::from(opts.shed));
    out.extend_from_slice(&ctx.trace.to_le_bytes());
    out.extend_from_slice(&ctx.span.to_le_bytes());
    if let Some(k) = k {
        // Saturates like a count: `u32::MAX` already exceeds any |V|,
        // because item ids are `u32`.
        out.extend_from_slice(&len_field(k));
    }
    out.extend_from_slice(&len_field(sessions.len()));
    for s in sessions {
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&len_field(s.events.len()));
        for e in &s.events {
            out.extend_from_slice(&e.item.to_le_bytes());
            out.extend_from_slice(&e.op.to_le_bytes());
        }
    }
    out
}

/// Encodes a [`ScoreBatch`] request payload.
pub fn encode_score_request(req: &ScoreBatch, opts: SubmitOptions, ctx: TraceCtx) -> Vec<u8> {
    encode_request_fields(&req.sessions, opts, ctx, None)
}

/// Encodes a [`TopK`] request payload.
pub fn encode_top_k_request(req: &TopK, opts: SubmitOptions, ctx: TraceCtx) -> Vec<u8> {
    encode_request_fields(&req.sessions, opts, ctx, Some(req.k))
}

/// Decodes either request payload; `top_k` selects which layout applies.
pub fn decode_request(payload: &[u8], top_k: bool) -> Result<RequestEnvelope, NetError> {
    decode_whole(payload, |rest| {
        let deadline_us = take_u64(rest, "deadline")?;
        let shed = match take_u8(rest, "shed flag")? {
            0 => false,
            1 => true,
            other => return Err(NetError::Wire(format!("shed flag {other} is not 0 or 1"))),
        };
        let ctx = match (take_u64(rest, "trace id")?, take_u64(rest, "span id")?) {
            (0, 0) => TraceCtx::NONE,
            (trace, span) if trace == 0 || span == 0 => {
                return Err(NetError::Wire(format!(
                    "trace context ({trace}, {span}) has exactly one zero id"
                )))
            }
            (trace, span) => TraceCtx { trace, span },
        };
        let k = if top_k {
            Some(take_len(rest, "k")?)
        } else {
            None
        };
        // A session spends at least its id and its event count.
        let sessions = take_count(rest, 12, "session count")?;
        let sessions = (0..sessions)
            .map(|_| {
                let id = take_u64(rest, "session id")?;
                let events = take_cells::<6>(rest, "event count")?
                    .iter()
                    .map(|&[i0, i1, i2, i3, o0, o1]| {
                        MicroBehavior::new(
                            u32::from_le_bytes([i0, i1, i2, i3]),
                            u16::from_le_bytes([o0, o1]),
                        )
                    })
                    .collect();
                Ok(Session { id, events })
            })
            .collect::<Result<_, NetError>>()?;
        Ok(RequestEnvelope {
            sessions,
            opts: SubmitOptions { deadline_us, shed },
            ctx,
            k,
        })
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Writes the shared response layout with `N`-byte cells.
fn encode_rows<T, const N: usize>(
    model_version: u64,
    rows: &[Vec<T>],
    cell: impl Fn(&T) -> [u8; N],
) -> Vec<u8> {
    let cells: usize = rows.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(12 + 4 * rows.len() + N * cells);
    out.extend_from_slice(&model_version.to_le_bytes());
    out.extend_from_slice(&len_field(rows.len()));
    for row in rows {
        out.extend_from_slice(&len_field(row.len()));
        // Sized once and filled in place: a push per cell re-checks the
        // capacity each time, ~5× slower on 8,192-score rows (x86-64).
        let start = out.len();
        out.resize(start + N * row.len(), 0);
        for (dst, c) in out[start..].as_chunks_mut::<N>().0.iter_mut().zip(row) {
            *dst = cell(c);
        }
    }
    out
}

/// Reads the shared response layout with `N`-byte cells back into
/// `(model_version, rows)`.
fn decode_rows<T, const N: usize>(
    payload: &[u8],
    cell: impl Fn([u8; N]) -> T,
) -> Result<(u64, Vec<Vec<T>>), NetError> {
    decode_whole(payload, |rest| {
        let model_version = take_u64(rest, "model version")?;
        // Every row spends at least its 4-byte length field.
        let rows = take_count(rest, 4, "row count")?;
        let rows = (0..rows)
            .map(|_| {
                Ok(take_cells(rest, "row length")?
                    .iter()
                    .map(|&c| cell(c))
                    .collect())
            })
            .collect::<Result<_, NetError>>()?;
        Ok((model_version, rows))
    })
}

/// Encodes a [`ScoreResponse`] payload; each cell is one score's `f32`
/// bits.
pub fn encode_score_response(resp: &ScoreResponse) -> Vec<u8> {
    encode_rows(resp.model_version, &resp.scores, |s| s.to_le_bytes())
}

/// Decodes a [`ScoreResponse`] payload (bitwise-exact scores).
pub fn decode_score_response(payload: &[u8]) -> Result<ScoreResponse, NetError> {
    let (model_version, scores) = decode_rows(payload, f32::from_le_bytes)?;
    Ok(ScoreResponse {
        scores,
        model_version,
    })
}

/// Encodes a [`TopKResponse`] payload; each cell is `item u32 · score f32
/// bits`.
pub fn encode_top_k_response(resp: &TopKResponse) -> Vec<u8> {
    encode_rows(resp.model_version, &resp.items, |r| {
        let [i0, i1, i2, i3] = r.item.to_le_bytes();
        let [s0, s1, s2, s3] = r.score.to_le_bytes();
        [i0, i1, i2, i3, s0, s1, s2, s3]
    })
}

/// Decodes a [`TopKResponse`] payload (bitwise-exact scores).
pub fn decode_top_k_response(payload: &[u8]) -> Result<TopKResponse, NetError> {
    let (model_version, items) =
        decode_rows(payload, |[i0, i1, i2, i3, s0, s1, s2, s3]| ScoredItem {
            item: u32::from_le_bytes([i0, i1, i2, i3]),
            score: f32::from_le_bytes([s0, s1, s2, s3]),
        })?;
    Ok(TopKResponse {
        items,
        model_version,
    })
}

// ---------------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------------

/// Encodes a [`NetError`] as an `ErrorResponse` payload. Transport-local
/// variants (`Frame`, `Wire`) are reported as `bad_request` — by the time
/// a server replies, the peer's framing succeeded, so what it needs is the
/// reason its payload was refused.
pub fn encode_error(err: &NetError) -> Vec<u8> {
    let text = |code: u8, msg: &str| {
        let mut out = vec![code];
        put_bytes(&mut out, msg.as_bytes());
        out
    };
    match err {
        NetError::Overloaded { queued, cap } => {
            let mut out = tagged(1, *queued as u64);
            out.extend_from_slice(&(*cap as u64).to_le_bytes());
            out
        }
        NetError::DeadlineExpired { waited_us } => tagged(2, *waited_us),
        NetError::Unavailable(msg) => text(3, msg),
        NetError::BadRequest(msg) => text(4, msg),
        other => text(4, &other.to_string()),
    }
}

fn error_fields(rest: &mut &[u8]) -> Result<NetError, NetError> {
    let count = |rest: &mut &[u8], what: &str| {
        let n = take_u64(rest, what)?;
        usize::try_from(n).map_err(|_| NetError::Wire(format!("{what} {n} overflows usize")))
    };
    Ok(match take_u8(rest, "error code")? {
        1 => NetError::Overloaded {
            queued: count(rest, "queued")?,
            cap: count(rest, "cap")?,
        },
        2 => NetError::DeadlineExpired {
            waited_us: take_u64(rest, "waited_us")?,
        },
        3 => NetError::Unavailable(take_text(rest, "message")?),
        4 => NetError::BadRequest(take_text(rest, "message")?),
        other => return Err(NetError::Wire(format!("unknown error code {other}"))),
    })
}

/// Decodes an `ErrorResponse` payload into the [`NetError`] it carries; a
/// payload that does not decode yields its [`NetError::Wire`] instead.
pub fn decode_error(payload: &[u8]) -> NetError {
    decode_whole(payload, error_fields).unwrap_or_else(|e| e)
}

// ---------------------------------------------------------------------------
// The unified request/response surface
// ---------------------------------------------------------------------------

/// Every client → server message, as one typed enum. `Score`/`TopK`
/// payloads are the per-type forms above (the encoders delegate to
/// them).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Score {
        batch: ScoreBatch,
        opts: SubmitOptions,
        ctx: TraceCtx,
    },
    TopK {
        batch: TopK,
        opts: SubmitOptions,
        ctx: TraceCtx,
    },
    /// Version negotiation opener: the highest protocol version the client
    /// speaks. The server answers with [`Response::HelloAck`].
    Hello { max_version: u8 },
    Control(ControlRequest),
}

/// Control-plane commands: the zero-downtime snapshot lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlRequest {
    /// Stage an `EMBSRSNP` snapshot under `version` in every replica
    /// without touching live scoring.
    LoadSnapshot { version: u64, snapshot: Vec<u8> },
    /// Atomically flip scoring to a previously staged version.
    Activate { version: u64 },
    /// Report the active/staged versions and cache counters per replica.
    Status,
}

/// Every server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Scores(ScoreResponse),
    Recs(TopKResponse),
    /// The protocol version the connection will speak from here on.
    HelloAck { version: u8 },
    Control(ControlReply),
    Error(NetError),
}

/// Control-plane answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlReply {
    /// The command was applied on every alive replica; echoes the snapshot
    /// version acted on.
    Done { version: u64 },
    Status(ServerStatus),
}

/// Per-replica serving state, as reported by `ControlRequest::Status`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStatus {
    pub replicas: Vec<EngineStatus>,
}

/// Encodes a [`Request`] into the frame kind + payload to send.
pub fn encode_request(req: &Request) -> (FrameKind, Vec<u8>) {
    match req {
        Request::Score { batch, opts, ctx } => (
            FrameKind::ScoreRequest,
            encode_score_request(batch, *opts, *ctx),
        ),
        Request::TopK { batch, opts, ctx } => (
            FrameKind::TopKRequest,
            encode_top_k_request(batch, *opts, *ctx),
        ),
        Request::Hello { max_version } => (FrameKind::Hello, vec![*max_version]),
        Request::Control(cmd) => {
            let payload = match cmd {
                ControlRequest::LoadSnapshot { version, snapshot } => {
                    let mut out = tagged(1, *version);
                    put_bytes(&mut out, snapshot);
                    out
                }
                ControlRequest::Activate { version } => tagged(2, *version),
                ControlRequest::Status => vec![3],
            };
            (FrameKind::Control, payload)
        }
    }
}

/// Decodes any request-direction frame into a [`Request`].
pub fn decode_request_frame(kind: FrameKind, payload: &[u8]) -> Result<Request, NetError> {
    match kind {
        FrameKind::ScoreRequest => {
            let env = decode_request(payload, false)?;
            Ok(Request::Score {
                batch: ScoreBatch {
                    sessions: env.sessions,
                },
                opts: env.opts,
                ctx: env.ctx,
            })
        }
        FrameKind::TopKRequest => {
            let env = decode_request(payload, true)?;
            let k = env.k.unwrap_or(0);
            Ok(Request::TopK {
                batch: TopK {
                    sessions: env.sessions,
                    k,
                },
                opts: env.opts,
                ctx: env.ctx,
            })
        }
        FrameKind::Hello => decode_whole(payload, |rest| {
            Ok(Request::Hello {
                max_version: take_u8(rest, "max version")?,
            })
        }),
        FrameKind::Control => decode_whole(payload, |rest| {
            Ok(Request::Control(match take_u8(rest, "control op")? {
                1 => ControlRequest::LoadSnapshot {
                    version: take_u64(rest, "snapshot version")?,
                    snapshot: take_cells::<1>(rest, "snapshot length")?
                        .as_flattened()
                        .to_vec(),
                },
                2 => ControlRequest::Activate {
                    version: take_u64(rest, "snapshot version")?,
                },
                3 => ControlRequest::Status,
                other => return Err(NetError::Wire(format!("unknown control op {other}"))),
            }))
        }),
        other => Err(NetError::Wire(format!(
            "frame kind {other:?} is not a request"
        ))),
    }
}

/// Encodes a [`Response`] into the frame kind + payload to send.
pub fn encode_response(resp: &Response) -> (FrameKind, Vec<u8>) {
    match resp {
        Response::Scores(r) => (FrameKind::ScoreResponse, encode_score_response(r)),
        Response::Recs(r) => (FrameKind::TopKResponse, encode_top_k_response(r)),
        Response::HelloAck { version } => (FrameKind::HelloAck, vec![*version]),
        Response::Control(ControlReply::Done { version }) => {
            (FrameKind::ControlReply, tagged(1, *version))
        }
        Response::Control(ControlReply::Status(status)) => {
            let mut out = vec![2];
            out.extend_from_slice(&len_field(status.replicas.len()));
            for r in &status.replicas {
                out.extend_from_slice(&r.active_version.to_le_bytes());
                out.extend_from_slice(&len_field(r.staged.len()));
                let c = &r.cache;
                let counters = [
                    c.hits,
                    c.misses,
                    c.insertions,
                    c.evictions,
                    c.entries,
                    c.bytes,
                ];
                for v in r.staged.iter().chain(&counters) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            (FrameKind::ControlReply, out)
        }
        Response::Error(err) => (FrameKind::ErrorResponse, encode_error(err)),
    }
}

/// Decodes any response-direction frame into a [`Response`].
pub fn decode_response_frame(kind: FrameKind, payload: &[u8]) -> Result<Response, NetError> {
    match kind {
        FrameKind::ScoreResponse => Ok(Response::Scores(decode_score_response(payload)?)),
        FrameKind::TopKResponse => Ok(Response::Recs(decode_top_k_response(payload)?)),
        FrameKind::ErrorResponse => decode_whole(payload, error_fields).map(Response::Error),
        FrameKind::HelloAck => decode_whole(payload, |rest| match take_u8(rest, "version")? {
            version @ 1..=VERSION => Ok(Response::HelloAck { version }),
            version => Err(NetError::Wire(format!(
                "peer negotiated unsupported version {version}"
            ))),
        }),
        FrameKind::ControlReply => decode_whole(payload, |rest| {
            Ok(Response::Control(match take_u8(rest, "reply code")? {
                1 => ControlReply::Done {
                    version: take_u64(rest, "snapshot version")?,
                },
                2 => {
                    // A replica spends at least its active version, its
                    // staged count and six cache counters.
                    let replicas = take_count(rest, 60, "replica count")?;
                    let replicas = (0..replicas)
                        .map(|_| {
                            let active_version = take_u64(rest, "active version")?;
                            let staged = take_cells(rest, "staged count")?
                                .iter()
                                .map(|&v| u64::from_le_bytes(v))
                                .collect();
                            let mut counter = |what: &str| take_u64(rest, what);
                            Ok(EngineStatus {
                                active_version,
                                staged,
                                cache: CacheStats {
                                    hits: counter("hits")?,
                                    misses: counter("misses")?,
                                    insertions: counter("insertions")?,
                                    evictions: counter("evictions")?,
                                    entries: counter("entries")?,
                                    bytes: counter("bytes")?,
                                },
                            })
                        })
                        .collect::<Result<_, NetError>>()?;
                    ControlReply::Status(ServerStatus { replicas })
                }
                other => return Err(NetError::Wire(format!("unknown reply code {other}"))),
            }))
        }),
        other => Err(NetError::Wire(format!(
            "frame kind {other:?} is not a response"
        ))),
    }
}
