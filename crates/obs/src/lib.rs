//! # embsr-obs
//!
//! The workspace's observability layer: everything the training/eval stack
//! needs to explain *what it did and how long it took*, with zero external
//! dependencies.
//!
//! * **Logging** — the [`error!`], [`warn!`], [`info!`], [`debug!`] and
//!   [`trace!`] macros emit leveled, targeted events through a set of
//!   pluggable [`Sink`]s. The console sink honors an `EMBSR_LOG`-style
//!   [`EnvFilter`] (`"info"`, `"warn,embsr_train=debug"`, …); the
//!   [`JsonlSink`] writes machine-readable JSON lines.
//! * **Spans** — [`span`] returns an RAII guard that times a scope,
//!   maintains a per-thread nesting path (`fit > epoch > batch`), records
//!   the duration into a histogram, and emits a close event.
//! * **Metrics** — [`metrics::counter`], [`metrics::gauge`] and
//!   [`metrics::histogram`] hand out `&'static` handles backed by atomics.
//!   Histograms are log-bucketed and answer p50/p95/p99 queries.
//!   Hot-path increments are gated on [`metrics::enabled`] (one relaxed
//!   atomic load when off), so instrumented inner loops cost ~nothing
//!   unless telemetry is switched on.
//! * **Tracing** — [`trace`](mod@trace) propagates a (trace id, span id)
//!   context across threads and emits parent/child span records through
//!   the same sinks, so a serving request's timeline (queue wait, batch
//!   assembly, scoring, top-k) is reconstructable offline from the JSONL
//!   output via [`trace::parse_jsonl`] + [`trace::build_trees`].
//! * **Profiling** — [`profile`] aggregates kernel timings into
//!   shape-bucketed rows (thread-local accumulators, one atomic load when
//!   disabled); [`profile::report`] returns them busiest-first.
//! * **SLOs** — [`slo`] parses latency objectives like
//!   `serve.request_latency_us:p99<=2000` and evaluates them against the
//!   live histograms with error-budget accounting.
//! * **Run manifests** — [`RunManifest`] serializes a whole harness run
//!   (dataset, model, config, per-epoch loss/duration, eval metrics,
//!   throughput, [`manifest::cores_available`] and
//!   [`manifest::git_revision`]) to `results/run_<name>.json`, and
//!   [`manifest::append_bench_entry`] maintains the aggregate
//!   `BENCH_table3.json` bench trajectory.
//! * **Micro-benchmarks** — [`bench`](mod@bench) is a tiny criterion-style
//!   harness (`harness = false` bench binaries) reporting mean/p50/p95 per
//!   iteration; it doubles as the acceptance gauge for perf PRs.
//!
//! The crate is intentionally `std`-only so every other crate in the
//! workspace (including `embsr-tensor`'s op-dispatch fast path) can depend
//! on it without pulling anything external.

pub mod bench;
mod clock;
mod filter;
mod json;
mod level;
pub mod manifest;
pub mod metrics;
pub mod profile;
mod sink;
pub mod slo;
mod span;
pub mod trace;

pub use clock::Stopwatch;
pub use filter::EnvFilter;
pub use json::{parse as parse_json, JsonValue};
pub use level::Level;
pub use manifest::{EpochRecord, MetricRecord, RunManifest};
pub use metrics::{Counter, Gauge, Histogram};
pub use sink::{
    add_sink, clear_sinks, dispatch, log_enabled, set_console_filter, ConsoleSink, Event,
    JsonlSink, MemorySink, Sink,
};
pub use span::{span, span_path, SpanGuard};
pub use trace::TraceCtx;

/// Initializes the default console sink from an environment variable
/// (conventionally `EMBSR_LOG`), falling back to `default_filter` when the
/// variable is unset or unparsable. Safe to call more than once; later
/// calls replace the console filter.
pub fn init_from_env(var: &str, default_filter: &str) {
    let spec = std::env::var(var).unwrap_or_else(|_| default_filter.to_string());
    let filter = spec
        .parse::<EnvFilter>()
        .unwrap_or_else(|_| default_filter.parse().expect("default filter parses"));
    set_console_filter(filter);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_from_env_accepts_garbage() {
        // An unparsable spec must fall back, not panic.
        std::env::set_var("EMBSR_OBS_TEST_FILTER", "===");
        init_from_env("EMBSR_OBS_TEST_FILTER", "warn");
        std::env::remove_var("EMBSR_OBS_TEST_FILTER");
    }
}
