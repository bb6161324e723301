//! Request tracing: hierarchical spans with explicit ids.
//!
//! [`SpanGuard`](crate::SpanGuard) times a scope on *one* thread; a serving
//! request instead crosses threads (client submit → queue → worker batch →
//! reply), so its timeline is stitched from **trace records**: ordinary
//! events at [`Level::Trace`] with target `"trace"` whose numeric fields
//! carry the ids. Any [`Sink`](crate::Sink) can collect them; the
//! [`JsonlSink`](crate::JsonlSink) makes the timeline reconstructable
//! offline via [`parse_jsonl`] + [`build_trees`].
//!
//! # Record schema
//!
//! One JSON object per line, the standard event shape:
//!
//! ```json
//! {"ts_ms": 1700000000000, "level": "trace", "target": "trace",
//!  "message": "queue_wait",
//!  "fields": {"trace": 7, "span": 9, "parent": 8,
//!             "start_us": 1250, "dur_us": 412}}
//! ```
//!
//! * `message` — span name (`score_request`, `queue_wait`, `scoring`, …);
//! * `fields.trace` — id shared by every span of one request;
//! * `fields.span` — this span's id (unique per process run);
//! * `fields.parent` — parent span id, `0` for the request root;
//! * `fields.start_us` / `fields.dur_us` — microseconds on the
//!   process-local monotonic clock ([`now_us`]), so spans stamped on
//!   different threads share one timeline.
//!
//! Ids are drawn from one process-wide counter and stay below 2^53, so the
//! `f64` field encoding is lossless.
//!
//! # Cost when disabled
//!
//! Tracing is off by default; [`root`]/[`child`]/[`emit_span`] then reduce
//! to two relaxed atomic loads ([`enabled`] and the dispatcher's level
//! cache) and never touch the clock. Records flow only when **both**
//! [`set_enabled`]`(true)` was called and some sink accepts
//! [`Level::Trace`].

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json;
use crate::level::Level;

/// Event target of every trace record.
pub const TRACE_TARGET: &str = "trace";

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Turns trace-record emission on or off (off by default).
pub fn set_enabled(on: bool) {
    // ordering: Relaxed — standalone flag; late observers only start (or
    // stop) emitting records a moment later.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the tracing switch on? (Records additionally require a sink that
/// accepts [`Level::Trace`]; see [`active`].)
#[inline]
pub fn enabled() -> bool {
    // ordering: Relaxed — best-effort gate, no data published through it.
    ENABLED.load(Ordering::Relaxed)
}

/// True when a trace record emitted now would actually reach a sink: the
/// switch is on *and* some sink accepts [`Level::Trace`]. Two relaxed
/// atomic loads; instrumentation sites gate on this.
#[inline]
pub fn active() -> bool {
    enabled() && crate::log_enabled(Level::Trace)
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the process-local trace epoch (the first call wins
/// the race to plant the anchor). Monotonic and shared by every thread, so
/// timestamps taken on different threads are directly comparable. Never
/// returns 0: callers use zero as the "not traced" sentinel in queued
/// timestamps, and the clock's first microsecond must not alias it.
pub fn now_us() -> u64 {
    u64::try_from(anchor().elapsed().as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
}

fn fresh_id() -> u64 {
    // ordering: Relaxed — the RMW alone guarantees uniqueness; ids carry
    // no happens-before obligations.
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The (trace id, span id) pair a request carries across threads, and
/// across processes as two `u64` fields of an `embsr-net` request. `Copy`
/// so it can ride inside queue jobs; the all-zero value means "not
/// traced".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Id shared by every span of one request; `0` when tracing was off.
    pub trace: u64,
    /// The span that should become the parent of phases attributed to this
    /// context.
    pub span: u64,
}

impl TraceCtx {
    /// The untraced context: children of it are silently dropped.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// True for [`TraceCtx::NONE`] (tracing was inactive at request start).
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

fn emit(name: &str, trace: u64, span: u64, parent: u64, start_us: u64, end_us: u64) {
    crate::dispatch(
        Level::Trace,
        TRACE_TARGET,
        format_args!("{name}"),
        &[
            ("trace", trace as f64),
            ("span", span as f64),
            ("parent", parent as f64),
            ("start_us", start_us as f64),
            ("dur_us", end_us.saturating_sub(start_us) as f64),
        ],
    );
}

/// RAII guard for a traced span; emits its record on drop. Unlike
/// [`SpanGuard`](crate::SpanGuard) it is not tied to a thread-local stack —
/// parentage is explicit via [`TraceCtx`].
pub struct TraceSpan {
    ctx: TraceCtx,
    parent: u64,
    name: &'static str,
    start_us: u64,
}

impl TraceSpan {
    fn disabled() -> TraceSpan {
        TraceSpan {
            ctx: TraceCtx::NONE,
            parent: 0,
            name: "",
            start_us: 0,
        }
    }

    /// The context children of this span should carry.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.ctx.trace == 0 {
            return;
        }
        emit(
            self.name,
            self.ctx.trace,
            self.ctx.span,
            self.parent,
            self.start_us,
            now_us(),
        );
    }
}

/// Opens the root span of a new trace (one per request). No-op guard when
/// tracing is [`active`]-off.
pub fn root(name: &'static str) -> TraceSpan {
    if !active() {
        return TraceSpan::disabled();
    }
    TraceSpan {
        ctx: TraceCtx {
            trace: fresh_id(),
            span: fresh_id(),
        },
        parent: 0,
        name,
        start_us: now_us(),
    }
}

/// Opens a child span under `parent` (same trace id, fresh span id). No-op
/// when tracing is off or `parent` is untraced.
pub fn child(parent: TraceCtx, name: &'static str) -> TraceSpan {
    if !active() || parent.is_none() {
        return TraceSpan::disabled();
    }
    TraceSpan {
        ctx: TraceCtx {
            trace: parent.trace,
            span: fresh_id(),
        },
        parent: parent.span,
        name,
        start_us: now_us(),
    }
}

/// Emits a completed child span from explicit [`now_us`] timestamps — the
/// cross-thread form, for phases whose start was stamped on a different
/// thread (e.g. queue wait: enqueued by the client, drained by a worker).
pub fn emit_span(parent: TraceCtx, name: &'static str, start_us: u64, end_us: u64) {
    if !active() || parent.is_none() {
        return;
    }
    emit(name, parent.trace, fresh_id(), parent.span, start_us, end_us);
}

// ---------------------------------------------------------------------------
// Offline reconstruction
// ---------------------------------------------------------------------------

/// One parsed trace record (see the module docs for the wire schema).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub trace: u64,
    pub span: u64,
    /// `0` for a trace's root span.
    pub parent: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Validates one JSONL event line against the documented schema. Every
/// line must be a JSON object carrying `ts_ms`/`level`/`target`/`message`;
/// a line with target [`TRACE_TARGET`] must additionally be at level
/// `trace` and carry the five numeric span fields. Returns the parsed
/// record for trace lines, `Ok(None)` for other (legal) event lines.
pub fn validate_line(line: &str) -> Result<Option<SpanRecord>, String> {
    let v = json::parse(line).map_err(|e| format!("invalid json: {e}"))?;
    let text = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    if v.get("ts_ms").and_then(|x| x.as_f64()).is_none() {
        return Err("missing numeric field `ts_ms`".into());
    }
    let level = text("level")?;
    let target = text("target")?;
    let message = text("message")?;
    if target != TRACE_TARGET {
        return Ok(None);
    }
    if level != Level::Trace.as_str() {
        return Err(format!("trace record at level `{level}`, expected `trace`"));
    }
    let fields = v
        .get("fields")
        .ok_or_else(|| "trace record without `fields`".to_string())?;
    let num = |key: &str| -> Result<u64, String> {
        let raw = fields
            .get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("trace record missing numeric field `fields.{key}`"))?;
        if !(raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0) {
            return Err(format!("trace field `{key}` is not a non-negative integer: {raw}"));
        }
        Ok(raw as u64)
    };
    let (trace, span) = (num("trace")?, num("span")?);
    if trace == 0 || span == 0 {
        return Err("trace and span ids must be nonzero".into());
    }
    let start_us = num("start_us")?;
    Ok(Some(SpanRecord {
        trace,
        span,
        parent: num("parent")?,
        name: message,
        start_us,
        end_us: start_us.saturating_add(num("dur_us")?),
    }))
}

/// Extracts the trace records from JSONL text, silently skipping non-trace
/// and malformed lines. Use [`validate_line`] when malformed lines should
/// be an error.
pub fn parse_jsonl(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .filter_map(|l| validate_line(l).ok().flatten())
        .collect()
}

/// The reconstructed span tree of one trace.
#[derive(Clone, Debug)]
pub struct TraceTree {
    pub trace: u64,
    /// Every span of the trace, input order preserved.
    pub spans: Vec<SpanRecord>,
    root: usize,
}

impl TraceTree {
    /// The request root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[self.root]
    }

    /// End-to-end duration of the root span.
    pub fn duration_us(&self) -> u64 {
        self.root().dur_us()
    }

    /// Direct children of the span with id `span_id`, input order.
    pub fn children_of(&self, span_id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == span_id).collect()
    }

    /// Total duration over all spans named `name`.
    pub fn total_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::dur_us)
            .sum()
    }
}

/// Groups records by trace id and checks the structural invariants every
/// well-formed trace satisfies:
///
/// * span ids are unique within a trace;
/// * exactly one root (`parent == 0`) per trace;
/// * every non-root parent id resolves to a span of the same trace (no
///   orphans);
/// * timestamps are monotone: each span ends no earlier than it starts,
///   and each child's interval lies within its parent's.
///
/// Returns the trees sorted by trace id, or a description of the first
/// violation.
pub fn build_trees(records: &[SpanRecord]) -> Result<Vec<TraceTree>, String> {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for r in records {
        if r.trace == 0 {
            return Err(format!("span {} has trace id 0", r.span));
        }
        if r.end_us < r.start_us {
            return Err(format!(
                "trace {}: span {} ({}) ends before it starts",
                r.trace, r.span, r.name
            ));
        }
        by_trace.entry(r.trace).or_default().push(r.clone());
    }
    let mut trees = Vec::with_capacity(by_trace.len());
    for (trace, spans) in by_trace {
        let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            if by_id.insert(s.span, i).is_some() {
                return Err(format!("trace {trace}: duplicate span id {}", s.span));
            }
        }
        let roots: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == 0)
            .map(|(i, _)| i)
            .collect();
        if roots.len() != 1 {
            return Err(format!(
                "trace {trace}: expected exactly one root span, found {}",
                roots.len()
            ));
        }
        for s in &spans {
            if s.parent == 0 {
                continue;
            }
            let Some(&pi) = by_id.get(&s.parent) else {
                return Err(format!(
                    "trace {trace}: span {} ({}) has orphan parent {}",
                    s.span, s.name, s.parent
                ));
            };
            let p = &spans[pi];
            if s.start_us < p.start_us || s.end_us > p.end_us {
                return Err(format!(
                    "trace {trace}: span {} ({}) [{}, {}]us escapes parent {} ({}) [{}, {}]us",
                    s.span, s.name, s.start_us, s.end_us, p.span, p.name, p.start_us, p.end_us
                ));
            }
        }
        trees.push(TraceTree {
            trace,
            spans,
            root: roots[0],
        });
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{add_sink, clear_sinks, test_guard, MemorySink};
    use std::sync::Arc;

    fn rec(trace: u64, span: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name: name.to_string(),
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn disabled_tracing_emits_nothing_and_hands_out_null_ctx() {
        let _g = test_guard();
        clear_sinks();
        set_enabled(false);
        let mem = MemorySink::this_thread();
        add_sink(Arc::new(mem.clone()));
        {
            let r = root("req");
            assert!(r.ctx().is_none());
            let c = child(r.ctx(), "phase");
            assert!(c.ctx().is_none());
            emit_span(r.ctx(), "other", 0, 5);
        }
        clear_sinks();
        assert!(mem.lines().is_empty());
    }

    #[test]
    fn spans_round_trip_through_jsonl_into_a_tree() {
        let _g = test_guard();
        clear_sinks();
        set_enabled(true);
        let mem = MemorySink::this_thread();
        add_sink(Arc::new(mem.clone()));
        let parent_ctx;
        {
            let r = root("request");
            parent_ctx = r.ctx();
            {
                let _c = child(parent_ctx, "inner");
            }
            let t = now_us();
            emit_span(parent_ctx, "stamped", t.saturating_sub(1), t);
        }
        set_enabled(false);
        let lines = mem.lines();
        clear_sinks();

        let records = parse_jsonl(&lines.join("\n"));
        assert_eq!(records.len(), 3);
        let trees = build_trees(&records).expect("valid tree");
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.trace, parent_ctx.trace);
        assert_eq!(tree.root().name, "request");
        assert_eq!(tree.root().parent, 0);
        let kids = tree.children_of(tree.root().span);
        let names: Vec<&str> = kids.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"inner") && names.contains(&"stamped"));
        for k in kids {
            assert!(k.start_us >= tree.root().start_us);
            assert!(k.end_us <= tree.root().end_us);
        }
        assert_eq!(tree.total_us("stamped"), 1);
    }

    #[test]
    fn validate_line_enforces_the_documented_schema() {
        // Non-trace event lines pass through as None.
        let ev = r#"{"ts_ms": 1, "level": "info", "target": "embsr_train", "message": "hi"}"#;
        assert_eq!(validate_line(ev).unwrap(), None);
        // A well-formed trace record parses.
        let ok = r#"{"ts_ms": 1, "level": "trace", "target": "trace", "message": "scoring",
                     "fields": {"trace": 7, "span": 9, "parent": 8, "start_us": 10, "dur_us": 5}}"#
            .replace('\n', " ");
        let r = validate_line(&ok).unwrap().expect("trace record");
        assert_eq!((r.trace, r.span, r.parent), (7, 9, 8));
        assert_eq!((r.start_us, r.end_us), (10, 15));
        // Missing fields, wrong level, bad ids, junk: all rejected.
        let bad = r#"{"ts_ms": 1, "level": "trace", "target": "trace", "message": "m",
                      "fields": {"trace": 7, "span": 9, "parent": 8}}"#
            .replace('\n', " ");
        assert!(validate_line(&bad).is_err());
        let wrong_level = r#"{"ts_ms": 1, "level": "info", "target": "trace", "message": "m",
                              "fields": {"trace": 1, "span": 2, "parent": 0, "start_us": 0, "dur_us": 0}}"#
            .replace('\n', " ");
        assert!(validate_line(&wrong_level).is_err());
        let zero_id = r#"{"ts_ms": 1, "level": "trace", "target": "trace", "message": "m",
                          "fields": {"trace": 0, "span": 2, "parent": 0, "start_us": 0, "dur_us": 0}}"#
            .replace('\n', " ");
        assert!(validate_line(&zero_id).is_err());
        assert!(validate_line("not json").is_err());
    }

    #[test]
    fn build_trees_rejects_orphans_multiple_roots_and_escaping_children() {
        // Orphan parent.
        let orphan = vec![rec(1, 2, 0, "root", 0, 10), rec(1, 3, 99, "lost", 1, 2)];
        assert!(build_trees(&orphan).unwrap_err().contains("orphan"));
        // Two roots in one trace.
        let two_roots = vec![rec(1, 2, 0, "a", 0, 10), rec(1, 3, 0, "b", 0, 10)];
        assert!(build_trees(&two_roots).unwrap_err().contains("one root"));
        // Child interval escapes the parent's.
        let escape = vec![rec(1, 2, 0, "root", 5, 10), rec(1, 3, 2, "kid", 4, 9)];
        assert!(build_trees(&escape).unwrap_err().contains("escapes"));
        // Duplicate span ids.
        let dup = vec![rec(1, 2, 0, "root", 0, 10), rec(1, 2, 2, "kid", 1, 2)];
        assert!(build_trees(&dup).unwrap_err().contains("duplicate"));
        // Two valid traces come back sorted by trace id.
        let good = vec![
            rec(9, 20, 0, "b", 0, 4),
            rec(3, 10, 0, "a", 0, 8),
            rec(3, 11, 10, "a.kid", 2, 6),
        ];
        let trees = build_trees(&good).expect("valid");
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 3);
        assert_eq!(trees[0].children_of(10).len(), 1);
        assert_eq!(trees[1].trace, 9);
        assert_eq!(trees[1].duration_us(), 4);
    }

    #[test]
    fn now_us_is_monotone_across_threads() {
        let a = now_us();
        let b = std::thread::spawn(now_us).join().expect("clock thread");
        let c = now_us();
        assert!(b >= a && c >= b);
    }
}
