//! JSON payload codec for the request/response types, plus the typed
//! [`NetError`] every failure on the networked path collapses into.
//!
//! Payloads ride inside frames (see [`frame`](crate::frame)) as UTF-8 JSON
//! built on `embsr_obs`'s in-tree [`JsonValue`]. Scores survive the trip
//! **bitwise**: an `f32` widens exactly to `f64`, the JSON writer prints
//! the shortest string that round-trips the `f64`, and narrowing the
//! parsed `f64` back to `f32` recovers the original bits — the networked
//! equivalence suite pins this at `f32::to_bits` granularity.
//!
//! Request payloads carry three envelopes next to the sessions: the
//! serving [`SubmitOptions`] (deadline budget in µs + shed flag, so
//! admission control and deadline expiry propagate end to end), the
//! [`TraceCtx`] wire form (so PR 6 trace trees cross the boundary), and
//! for top-k the cutoff `k`. Session and trace ids stay below 2^53, the
//! lossless range of the `f64`-backed JSON numbers.

use embsr_obs::{JsonValue, TraceCtx};
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
        }
    }
}

// ---------------------------------------------------------------------------
// Shared JSON helpers
// ---------------------------------------------------------------------------

fn sessions_to_json(sessions: &[Session]) -> JsonValue {
    JsonValue::Array(
        sessions
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("id", s.id.into()),
                    (
                        "events",
                        JsonValue::Array(
                            s.events
                                .iter()
                                .map(|e| {
                                    JsonValue::Array(vec![
                                        (e.item as u64).into(),
                                        (e.op as u64).into(),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn field<'v>(v: &'v JsonValue, key: &str) -> Result<&'v JsonValue, NetError> {
    v.get(key)
        .ok_or_else(|| NetError::Wire(format!("missing field `{key}`")))
}

fn non_negative_int(v: &JsonValue, what: &str) -> Result<u64, NetError> {
    let raw = v
        .as_f64()
        .ok_or_else(|| NetError::Wire(format!("`{what}` is not a number")))?;
    if raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0 {
        Ok(raw as u64)
    } else {
        Err(NetError::Wire(format!(
            "`{what}` is not a non-negative integer: {raw}"
        )))
    }
}

fn sessions_from_json(v: &JsonValue) -> Result<Vec<Session>, NetError> {
    let rows = v
        .as_array()
        .ok_or_else(|| NetError::Wire("`sessions` is not an array".into()))?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let id = non_negative_int(field(row, "id")?, "session id")?;
        let events = field(row, "events")?
            .as_array()
            .ok_or_else(|| NetError::Wire("`events` is not an array".into()))?;
        let mut decoded = Vec::with_capacity(events.len());
        for ev in events {
            let pair = ev
                .as_array()
                .ok_or_else(|| NetError::Wire("event is not an [item, op] pair".into()))?;
            if pair.len() != 2 {
                return Err(NetError::Wire(format!(
                    "event has {} element(s), expected 2",
                    pair.len()
                )));
            }
            let item = non_negative_int(&pair[0], "event item")?;
            let op = non_negative_int(&pair[1], "event op")?;
            let item = u32::try_from(item)
                .map_err(|_| NetError::Wire(format!("item id {item} overflows u32")))?;
            let op = u16::try_from(op)
                .map_err(|_| NetError::Wire(format!("op id {op} overflows u16")))?;
            decoded.push(MicroBehavior::new(item, op));
        }
        out.push(Session {
            id,
            events: decoded,
        });
    }
    Ok(out)
}

fn opts_to_json(opts: SubmitOptions) -> JsonValue {
    JsonValue::object(vec![
        ("deadline_us", opts.deadline_us.into()),
        ("shed", opts.shed.into()),
    ])
}

fn opts_from_json(v: &JsonValue) -> Result<SubmitOptions, NetError> {
    Ok(SubmitOptions {
        deadline_us: non_negative_int(field(v, "deadline_us")?, "deadline_us")?,
        shed: field(v, "shed")?
            .as_bool()
            .ok_or_else(|| NetError::Wire("`shed` is not a bool".into()))?,
    })
}

fn parse_payload(payload: &[u8]) -> Result<JsonValue, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| NetError::Wire(format!("payload is not UTF-8: {e}")))?;
    embsr_obs::parse_json(text).map_err(|e| NetError::Wire(format!("payload is not JSON: {e}")))
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

/// Encodes a [`ScoreBatch`] request payload.
pub fn encode_score_request(req: &ScoreBatch, opts: SubmitOptions, ctx: TraceCtx) -> Vec<u8> {
    JsonValue::object(vec![
        ("sessions", sessions_to_json(&req.sessions)),
        ("opts", opts_to_json(opts)),
        ("trace", ctx.to_json_value()),
    ])
    .to_json()
    .into_bytes()
}

/// Encodes a [`TopK`] request payload.
pub fn encode_top_k_request(req: &TopK, opts: SubmitOptions, ctx: TraceCtx) -> Vec<u8> {
    JsonValue::object(vec![
        ("sessions", sessions_to_json(&req.sessions)),
        ("k", req.k.into()),
        ("opts", opts_to_json(opts)),
        ("trace", ctx.to_json_value()),
    ])
    .to_json()
    .into_bytes()
}

/// Decodes either request payload; `top_k` selects which schema applies.
pub fn decode_request(payload: &[u8], top_k: bool) -> Result<RequestEnvelope, NetError> {
    let v = parse_payload(payload)?;
    let sessions = sessions_from_json(field(&v, "sessions")?)?;
    let opts = opts_from_json(field(&v, "opts")?)?;
    let ctx = v
        .get("trace")
        .map(TraceCtx::from_json_value)
        .unwrap_or(TraceCtx::NONE);
    let k = if top_k {
        Some(non_negative_int(field(&v, "k")?, "k")? as usize)
    } else {
        None
    };
    Ok(RequestEnvelope {
        sessions,
        opts,
        ctx,
        k,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a [`ScoreResponse`] payload: `{"scores": [[...], ...],
/// "model_version": N}`. v1 decoders ignore the unknown `model_version`
/// key, so the tag is safe to send to old peers.
pub fn encode_score_response(resp: &ScoreResponse) -> Vec<u8> {
    JsonValue::object(vec![
        (
            "scores",
            JsonValue::Array(
                resp.scores
                    .iter()
                    .map(|row| {
                        JsonValue::Array(row.iter().map(|&s| JsonValue::Number(s as f64)).collect())
                    })
                    .collect(),
            ),
        ),
        ("model_version", resp.model_version.into()),
    ])
    .to_json()
    .into_bytes()
}

/// Decodes a [`ScoreResponse`] payload (bitwise-exact scores; see the
/// module docs).
pub fn decode_score_response(payload: &[u8]) -> Result<ScoreResponse, NetError> {
    let v = parse_payload(payload)?;
    let rows = field(&v, "scores")?
        .as_array()
        .ok_or_else(|| NetError::Wire("`scores` is not an array".into()))?;
    let mut scores = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row
            .as_array()
            .ok_or_else(|| NetError::Wire("score row is not an array".into()))?;
        let mut out = Vec::with_capacity(cells.len());
        for c in cells {
            let f = c
                .as_f64()
                .ok_or_else(|| NetError::Wire("score is not a number".into()))?;
            out.push(f as f32);
        }
        scores.push(out);
    }
    // Absent on v1 payloads: version tagging arrived with protocol v2.
    let model_version = match v.get("model_version") {
        Some(mv) => non_negative_int(mv, "model_version")?,
        None => 0,
    };
    Ok(ScoreResponse {
        scores,
        model_version,
    })
}

/// Encodes a [`TopKResponse`] payload: `{"items": [[[item, score], ...], ...],
/// "model_version": N}`.
pub fn encode_top_k_response(resp: &TopKResponse) -> Vec<u8> {
    JsonValue::object(vec![
        (
            "items",
            JsonValue::Array(
                resp.items
                    .iter()
                    .map(|recs| {
                        JsonValue::Array(
                            recs.iter()
                                .map(|r| {
                                    JsonValue::Array(vec![
                                        (r.item as u64).into(),
                                        JsonValue::Number(r.score as f64),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("model_version", resp.model_version.into()),
    ])
    .to_json()
    .into_bytes()
}

/// Decodes a [`TopKResponse`] payload.
pub fn decode_top_k_response(payload: &[u8]) -> Result<TopKResponse, NetError> {
    let v = parse_payload(payload)?;
    let rows = field(&v, "items")?
        .as_array()
        .ok_or_else(|| NetError::Wire("`items` is not an array".into()))?;
    let mut items = Vec::with_capacity(rows.len());
    for row in rows {
        let recs = row
            .as_array()
            .ok_or_else(|| NetError::Wire("recommendation row is not an array".into()))?;
        let mut out = Vec::with_capacity(recs.len());
        for rec in recs {
            let pair = rec
                .as_array()
                .ok_or_else(|| NetError::Wire("recommendation is not an [item, score] pair".into()))?;
            if pair.len() != 2 {
                return Err(NetError::Wire(format!(
                    "recommendation has {} element(s), expected 2",
                    pair.len()
                )));
            }
            let item = non_negative_int(&pair[0], "recommended item")?;
            let item = u32::try_from(item)
                .map_err(|_| NetError::Wire(format!("item id {item} overflows u32")))?;
            let score = pair[1]
                .as_f64()
                .ok_or_else(|| NetError::Wire("score is not a number".into()))?;
            out.push(ScoredItem {
                item,
                score: score as f32,
            });
        }
        items.push(out);
    }
    // Absent on v1 payloads: version tagging arrived with protocol v2.
    let model_version = match v.get("model_version") {
        Some(mv) => non_negative_int(mv, "model_version")?,
        None => 0,
    };
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
    let (code, fields) = match err {
        NetError::Overloaded { queued, cap } => (
            "overloaded",
            vec![("queued", (*queued).into()), ("cap", (*cap).into())],
        ),
        NetError::DeadlineExpired { waited_us } => (
            "deadline_expired",
            vec![("waited_us", (*waited_us).into())],
        ),
        NetError::Unavailable(msg) => ("unavailable", vec![("message", msg.as_str().into())]),
        other => ("bad_request", vec![("message", other.to_string().into())]),
    };
    let mut pairs = vec![("code", code.into())];
    pairs.extend(fields);
    JsonValue::object(pairs).to_json().into_bytes()
}

/// Decodes an `ErrorResponse` payload back into a [`NetError`].
pub fn decode_error(payload: &[u8]) -> NetError {
    let v = match parse_payload(payload) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let message = || {
        v.get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    match v.get("code").and_then(JsonValue::as_str) {
        Some("overloaded") => NetError::Overloaded {
            queued: v
                .get("queued")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                .max(0.0) as usize,
            cap: v
                .get("cap")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                .max(0.0) as usize,
        },
        Some("deadline_expired") => NetError::DeadlineExpired {
            waited_us: v
                .get("waited_us")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                .max(0.0) as u64,
        },
        Some("unavailable") => NetError::Unavailable(message()),
        Some("bad_request") => NetError::BadRequest(message()),
        Some(other) => NetError::Wire(format!("unknown error code `{other}`")),
        None => NetError::Wire("error response without a `code`".into()),
    }
}

// ---------------------------------------------------------------------------
// Hex codec (snapshot bytes inside JSON control payloads)
// ---------------------------------------------------------------------------

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Lower-case hex encoding; `EMBSRSNP` snapshot bytes ride inside JSON
/// control payloads this way (the workspace has no base64 and snapshots
/// are staged rarely, so 2× expansion is acceptable).
fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[(b >> 4) as usize] as char);
        out.push(HEX_DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>, NetError> {
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(NetError::Wire(format!(
            "hex string has odd length {}",
            raw.len()
        )));
    }
    fn nibble(b: u8) -> Result<u8, NetError> {
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            other => Err(NetError::Wire(format!("invalid hex digit 0x{other:02x}"))),
        }
    }
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The unified, versioned request/response surface (protocol v2)
// ---------------------------------------------------------------------------

/// Every client → server message, as one typed enum. `Score`/`TopK`
/// payloads are byte-identical to their v1 forms (the encoders delegate to
/// the per-type functions above); `Hello` and `Control` are new in
/// protocol v2.
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

fn u64_list_to_json(xs: &[u64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&x| x.into()).collect())
}

fn u64_list_from_json(v: &JsonValue, what: &str) -> Result<Vec<u64>, NetError> {
    let rows = v
        .as_array()
        .ok_or_else(|| NetError::Wire(format!("`{what}` is not an array")))?;
    rows.iter().map(|x| non_negative_int(x, what)).collect()
}

fn engine_status_to_json(s: &EngineStatus) -> JsonValue {
    JsonValue::object(vec![
        ("active_version", s.active_version.into()),
        ("staged", u64_list_to_json(&s.staged)),
        (
            "cache",
            JsonValue::object(vec![
                ("hits", s.cache.hits.into()),
                ("misses", s.cache.misses.into()),
                ("insertions", s.cache.insertions.into()),
                ("evictions", s.cache.evictions.into()),
                ("entries", s.cache.entries.into()),
                ("bytes", s.cache.bytes.into()),
            ]),
        ),
    ])
}

fn engine_status_from_json(v: &JsonValue) -> Result<EngineStatus, NetError> {
    let cache = field(v, "cache")?;
    let counter = |key: &str| non_negative_int(field(cache, key)?, key);
    Ok(EngineStatus {
        active_version: non_negative_int(field(v, "active_version")?, "active_version")?,
        staged: u64_list_from_json(field(v, "staged")?, "staged")?,
        cache: CacheStats {
            hits: counter("hits")?,
            misses: counter("misses")?,
            insertions: counter("insertions")?,
            evictions: counter("evictions")?,
            entries: counter("entries")?,
            bytes: counter("bytes")?,
        },
    })
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
        Request::Hello { max_version } => (
            FrameKind::Hello,
            JsonValue::object(vec![("max_version", (*max_version as u64).into())])
                .to_json()
                .into_bytes(),
        ),
        Request::Control(cmd) => {
            let pairs = match cmd {
                ControlRequest::LoadSnapshot { version, snapshot } => vec![
                    ("op", "load_snapshot".into()),
                    ("version", (*version).into()),
                    ("snapshot", hex_encode(snapshot).into()),
                ],
                ControlRequest::Activate { version } => {
                    vec![("op", "activate".into()), ("version", (*version).into())]
                }
                ControlRequest::Status => vec![("op", "status".into())],
            };
            (FrameKind::Control, JsonValue::object(pairs).to_json().into_bytes())
        }
    }
}

/// Decodes any request-direction frame into a [`Request`]. v1 peers only
/// ever produce the `Score`/`TopK` arms; their payload schemas are
/// unchanged, which the protocol tests pin.
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
        FrameKind::Hello => {
            let v = parse_payload(payload)?;
            let max = non_negative_int(field(&v, "max_version")?, "max_version")?;
            let max_version = u8::try_from(max)
                .map_err(|_| NetError::Wire(format!("max_version {max} overflows u8")))?;
            Ok(Request::Hello { max_version })
        }
        FrameKind::Control => {
            let v = parse_payload(payload)?;
            let op = field(&v, "op")?
                .as_str()
                .ok_or_else(|| NetError::Wire("`op` is not a string".into()))?;
            match op {
                "load_snapshot" => Ok(Request::Control(ControlRequest::LoadSnapshot {
                    version: non_negative_int(field(&v, "version")?, "version")?,
                    snapshot: hex_decode(
                        field(&v, "snapshot")?
                            .as_str()
                            .ok_or_else(|| NetError::Wire("`snapshot` is not a string".into()))?,
                    )?,
                })),
                "activate" => Ok(Request::Control(ControlRequest::Activate {
                    version: non_negative_int(field(&v, "version")?, "version")?,
                })),
                "status" => Ok(Request::Control(ControlRequest::Status)),
                other => Err(NetError::Wire(format!("unknown control op `{other}`"))),
            }
        }
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
        Response::HelloAck { version } => (
            FrameKind::HelloAck,
            JsonValue::object(vec![("version", (*version as u64).into())])
                .to_json()
                .into_bytes(),
        ),
        Response::Control(reply) => {
            let pairs = match reply {
                ControlReply::Done { version } => {
                    vec![("op", "done".into()), ("version", (*version).into())]
                }
                ControlReply::Status(status) => vec![
                    ("op", "status".into()),
                    (
                        "replicas",
                        JsonValue::Array(
                            status.replicas.iter().map(engine_status_to_json).collect(),
                        ),
                    ),
                ],
            };
            (
                FrameKind::ControlReply,
                JsonValue::object(pairs).to_json().into_bytes(),
            )
        }
        Response::Error(err) => (FrameKind::ErrorResponse, encode_error(err)),
    }
}

/// Decodes any response-direction frame into a [`Response`].
pub fn decode_response_frame(kind: FrameKind, payload: &[u8]) -> Result<Response, NetError> {
    match kind {
        FrameKind::ScoreResponse => Ok(Response::Scores(decode_score_response(payload)?)),
        FrameKind::TopKResponse => Ok(Response::Recs(decode_top_k_response(payload)?)),
        FrameKind::ErrorResponse => Ok(Response::Error(decode_error(payload))),
        FrameKind::HelloAck => {
            let v = parse_payload(payload)?;
            let raw = non_negative_int(field(&v, "version")?, "version")?;
            let version = u8::try_from(raw)
                .map_err(|_| NetError::Wire(format!("version {raw} overflows u8")))?;
            if version == 0 || version > VERSION {
                return Err(NetError::Wire(format!(
                    "peer negotiated unsupported version {version}"
                )));
            }
            Ok(Response::HelloAck { version })
        }
        FrameKind::ControlReply => {
            let v = parse_payload(payload)?;
            let op = field(&v, "op")?
                .as_str()
                .ok_or_else(|| NetError::Wire("`op` is not a string".into()))?;
            match op {
                "done" => Ok(Response::Control(ControlReply::Done {
                    version: non_negative_int(field(&v, "version")?, "version")?,
                })),
                "status" => {
                    let rows = field(&v, "replicas")?
                        .as_array()
                        .ok_or_else(|| NetError::Wire("`replicas` is not an array".into()))?;
                    let replicas = rows
                        .iter()
                        .map(engine_status_from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Response::Control(ControlReply::Status(ServerStatus {
                        replicas,
                    })))
                }
                other => Err(NetError::Wire(format!("unknown control reply `{other}`"))),
            }
        }
        other => Err(NetError::Wire(format!(
            "frame kind {other:?} is not a response"
        ))),
    }
}
