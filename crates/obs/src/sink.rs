//! Event sinks and the global dispatcher behind the log macros.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::filter::EnvFilter;
use crate::json::JsonValue;
use crate::level::Level;

/// One log event, borrowed for the duration of the dispatch.
#[derive(Debug)]
pub struct Event<'a> {
    pub level: Level,
    /// Dotted/`::` target, e.g. `embsr_train::trainer` or `exp::table3`.
    pub target: &'a str,
    pub message: &'a str,
    /// Milliseconds since the unix epoch.
    pub unix_ms: u64,
    /// `>`-joined span nesting path of the emitting thread (`""` outside
    /// any span).
    pub span_path: &'a str,
    /// Structured numeric fields (`("duration_s", 1.25)`, …).
    pub fields: &'a [(&'static str, f64)],
}

impl Event<'_> {
    /// The JSONL representation used by [`JsonlSink`].
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("ts_ms", JsonValue::Number(self.unix_ms as f64)),
            ("level", self.level.as_str().into()),
            ("target", self.target.into()),
            ("message", self.message.into()),
        ];
        if !self.span_path.is_empty() {
            pairs.push(("span", self.span_path.into()));
        }
        if !self.fields.is_empty() {
            pairs.push((
                "fields",
                JsonValue::Object(
                    self.fields
                        .iter()
                        .map(|&(k, v)| (k.to_string(), JsonValue::Number(v)))
                        .collect(),
                ),
            ));
        }
        JsonValue::object(pairs)
    }
}

/// Anything that can consume events. Implementations must be cheap to call
/// when `enabled` is false.
pub trait Sink: Send + Sync {
    /// Per-sink filtering; consulted after the global level early-out.
    fn enabled(&self, target: &str, level: Level) -> bool;

    /// Consumes one event (already known to pass `enabled`).
    fn log(&self, event: &Event<'_>);

    /// Most verbose level this sink could ever accept; feeds the global
    /// early-out cache.
    fn max_level(&self) -> Option<Level> {
        Some(Level::Trace)
    }
}

// ---------------------------------------------------------------------------
// Global dispatcher
// ---------------------------------------------------------------------------

struct Dispatcher {
    console: RwLock<Option<ConsoleSink>>,
    extra: RwLock<Vec<Arc<dyn Sink>>>,
    /// 0 = everything off; otherwise 1 + (max Level as u8).
    max_level: AtomicU8,
}

fn level_code(l: Option<Level>) -> u8 {
    match l {
        None => 0,
        Some(l) => 1 + l as u8,
    }
}

fn dispatcher() -> &'static Dispatcher {
    static D: OnceLock<Dispatcher> = OnceLock::new();
    D.get_or_init(|| {
        let spec = std::env::var("EMBSR_LOG").unwrap_or_default();
        let filter = spec.parse::<EnvFilter>().unwrap_or_default();
        let console = ConsoleSink::new(filter);
        let code = level_code(console.filter.max_level());
        Dispatcher {
            console: RwLock::new(Some(console)),
            extra: RwLock::new(Vec::new()),
            max_level: AtomicU8::new(code),
        }
    })
}

fn recompute_max_level(d: &Dispatcher) {
    let console_max = d
        .console
        .read()
        .unwrap()
        .as_ref()
        .and_then(|c| c.filter.max_level());
    let extra_max = d
        .extra
        .read()
        .unwrap()
        .iter()
        .filter_map(|s| s.max_level())
        .max();
    // ordering: Release pairs with sink registration happening under the
    // RwLock above; readers doing the Relaxed fast-path check only risk
    // evaluating one extra (or one fewer) log call during a reconfigure.
    d.max_level
        .store(level_code(console_max.max(extra_max)), Ordering::Release);
}

/// Replaces the console sink's filter (`None`-like silencing is expressed
/// with [`EnvFilter::off`]).
pub fn set_console_filter(filter: EnvFilter) {
    let d = dispatcher();
    *d.console.write().unwrap() = Some(ConsoleSink::new(filter));
    recompute_max_level(d);
}

/// Registers an additional sink (JSONL writers, test collectors).
pub fn add_sink(sink: Arc<dyn Sink>) {
    let d = dispatcher();
    d.extra.write().unwrap().push(sink);
    recompute_max_level(d);
}

/// Removes all extra sinks (tests); the console sink stays.
pub fn clear_sinks() {
    let d = dispatcher();
    d.extra.write().unwrap().clear();
    recompute_max_level(d);
}

/// Cheap global pre-check used by the log macros: one relaxed atomic load.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    // ordering: Relaxed — a pre-filter only; dispatch re-checks under the
    // sink locks, so a stale level is never a correctness problem.
    let code = dispatcher().max_level.load(Ordering::Relaxed);
    (level as u8) < code
}

/// Milliseconds since the unix epoch (0 if the clock is before 1970).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Formats and fans an event out to every interested sink. Called by the
/// macros after [`log_enabled`]; also usable directly for field-carrying
/// events.
pub fn dispatch(
    level: Level,
    target: &str,
    message: std::fmt::Arguments<'_>,
    fields: &[(&'static str, f64)],
) {
    let d = dispatcher();
    let rendered;
    let message = match message.as_str() {
        Some(s) => s,
        None => {
            rendered = message.to_string();
            &rendered
        }
    };
    let path = crate::span::span_path();
    let event = Event {
        level,
        target,
        message,
        unix_ms: unix_ms(),
        span_path: &path,
        fields,
    };
    if let Some(console) = d.console.read().unwrap().as_ref() {
        if console.enabled(target, level) {
            console.log(&event);
        }
    }
    for sink in d.extra.read().unwrap().iter() {
        if sink.enabled(target, level) {
            sink.log(&event);
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Emits an event at an explicit [`Level`].
#[macro_export]
macro_rules! log_event {
    ($level:expr, target: $target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($level) {
            $crate::dispatch($level, $target, format_args!($($arg)+), &[]);
        }
    };
    ($level:expr, $($arg:tt)+) => {
        $crate::log_event!($level, target: module_path!(), $($arg)+)
    };
}

/// Emits an error-level event: `error!(target: "t", "fmt {}", x)`.
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::log_event!($crate::Level::Error, $($arg)+) };
}

/// Emits a warn-level event.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::log_event!($crate::Level::Warn, $($arg)+) };
}

/// Emits an info-level event.
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::log_event!($crate::Level::Info, $($arg)+) };
}

/// Emits a debug-level event.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::log_event!($crate::Level::Debug, $($arg)+) };
}

/// Emits a trace-level event.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::log_event!($crate::Level::Trace, $($arg)+) };
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Human-readable sink writing `LEVEL target: message` lines to stderr,
/// filtered by an [`EnvFilter`].
pub struct ConsoleSink {
    filter: EnvFilter,
}

impl ConsoleSink {
    pub fn new(filter: EnvFilter) -> Self {
        ConsoleSink { filter }
    }
}

impl Sink for ConsoleSink {
    fn enabled(&self, target: &str, level: Level) -> bool {
        self.filter.enabled(target, level)
    }

    fn log(&self, event: &Event<'_>) {
        let mut line = format!("{} {}", event.level.tag(), event.target);
        if !event.span_path.is_empty() {
            line.push_str(&format!(" [{}]", event.span_path));
        }
        line.push_str(": ");
        line.push_str(event.message);
        for (k, v) in event.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }

    fn max_level(&self) -> Option<Level> {
        self.filter.max_level()
    }
}

/// Machine-readable sink writing one JSON object per event.
pub struct JsonlSink {
    filter: EnvFilter,
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps any writer; `filter` decides which events are recorded.
    pub fn new(writer: Box<dyn Write + Send>, filter: EnvFilter) -> Self {
        JsonlSink {
            filter,
            writer: Mutex::new(writer),
        }
    }

    /// Appends events to a file (created if missing).
    pub fn file(path: &std::path::Path, filter: EnvFilter) -> std::io::Result<Self> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f)), filter))
    }
}

impl Sink for JsonlSink {
    fn enabled(&self, target: &str, level: Level) -> bool {
        self.filter.enabled(target, level)
    }

    fn log(&self, event: &Event<'_>) {
        let line = event.to_json_value().to_json();
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    fn max_level(&self) -> Option<Level> {
        self.filter.max_level()
    }
}

/// Test sink collecting rendered JSONL lines in memory.
#[derive(Clone, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
    /// When set, only events emitted on this thread are kept.
    thread: Option<std::thread::ThreadId>,
}

impl MemorySink {
    /// A sink that keeps every event, from any thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that keeps only the events emitted on the calling thread.
    ///
    /// The dispatcher is process-global, so under a parallel test runner a
    /// sink added by one test also receives whatever the tests running
    /// beside it emit (span close events, log lines). A test that checks
    /// its own thread's output captures with this instead of [`Self::new`].
    pub fn this_thread() -> Self {
        MemorySink {
            lines: Arc::default(),
            thread: Some(std::thread::current().id()),
        }
    }

    /// Everything logged so far, one JSON document per element.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl Sink for MemorySink {
    fn enabled(&self, _target: &str, _level: Level) -> bool {
        // Called on the emitting thread, before the event is built.
        self.thread.is_none_or(|t| t == std::thread::current().id())
    }

    fn log(&self, event: &Event<'_>) {
        self.lines
            .lock()
            .unwrap()
            .push(event.to_json_value().to_json());
    }
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Serializes tests that mutate the global dispatcher.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn jsonl_lines_have_the_documented_shape() {
        let _g = test_guard();
        clear_sinks();
        let mem = MemorySink::this_thread();
        add_sink(Arc::new(mem.clone()));

        crate::info!(target: "exp::test", "hello {}", 42);
        crate::debug!(target: "exp::test", "with spaces and \"quotes\"");
        dispatch(
            Level::Info,
            "exp::fields",
            format_args!("epoch done"),
            &[("loss", 0.5), ("duration_s", 1.25)],
        );

        let lines = mem.lines();
        clear_sinks();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = parse(line).expect("valid json line");
            assert!(v.get("ts_ms").unwrap().as_f64().unwrap() > 0.0);
            assert!(v.get("level").unwrap().as_str().is_some());
            assert!(v.get("target").unwrap().as_str().unwrap().starts_with("exp::"));
            assert!(v.get("message").unwrap().as_str().is_some());
        }
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("message").unwrap().as_str(), Some("hello 42"));
        let f = parse(&lines[2]).unwrap();
        let fields = f.get("fields").unwrap();
        assert_eq!(fields.get("loss").unwrap().as_f64(), Some(0.5));
        assert_eq!(fields.get("duration_s").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn default_target_is_module_path() {
        let _g = test_guard();
        clear_sinks();
        let mem = MemorySink::this_thread();
        add_sink(Arc::new(mem.clone()));
        crate::warn!("no explicit target");
        let lines = mem.lines();
        clear_sinks();
        let v = parse(&lines[0]).unwrap();
        assert_eq!(
            v.get("target").unwrap().as_str(),
            Some("embsr_obs::sink::tests")
        );
    }

    #[test]
    fn thread_scoped_sink_keeps_only_its_own_thread() {
        let _g = test_guard();
        clear_sinks();
        let mine = MemorySink::this_thread();
        let all = MemorySink::new();
        add_sink(Arc::new(mine.clone()));
        add_sink(Arc::new(all.clone()));
        std::thread::spawn(|| crate::info!(target: "t", "elsewhere"))
            .join()
            .expect("emitter thread");
        crate::info!(target: "t", "here");
        clear_sinks();
        let message = |l: &String| {
            parse(l)
                .unwrap()
                .get("message")
                .unwrap()
                .as_str()
                .map(str::to_owned)
        };
        let mine: Vec<_> = mine.lines().iter().filter_map(message).collect();
        assert_eq!(mine, ["here"]);
        let all: Vec<_> = all.lines().iter().filter_map(message).collect();
        assert!(all.iter().any(|m| m == "elsewhere") && all.iter().any(|m| m == "here"));
    }

    #[test]
    fn jsonl_sink_filters_by_level() {
        let _g = test_guard();
        clear_sinks();

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::new(
            Box::new(SharedBuf(buf.clone())),
            "warn".parse().unwrap(),
        );
        add_sink(Arc::new(sink));
        crate::info!(target: "t", "filtered out");
        crate::error!(target: "t", "kept");
        clear_sinks();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("kept"));
    }
}
