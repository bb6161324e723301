//! Experiment P1 — end-to-end request tracing, kernel profiling and SLO
//! evaluation.
//!
//! Exercises the full observability stack in one run:
//!
//! 1. **Tracing** — request tracing is switched on and every engine request
//!    (`ScoreBatch` and `TopK`) emits a span tree through a `JsonlSink` at
//!    `results/trace.jsonl`. After the engine drains, every line of the
//!    file is validated against the documented schema
//!    ([`trace::validate_line`]) and reassembled into trees
//!    ([`trace::build_trees`]); the run fails on any schema or structural
//!    violation. For the single-session requests the reconstructed phase
//!    durations (queue wait, batch assembly, scoring, top-k selection) must
//!    sum to within 5% of the root span's end-to-end latency.
//! 2. **Profiling** — [`embsr_obs::profile`] aggregates shape-bucketed GEMM
//!    and gather timings from the scoring workers and a short training fit;
//!    the busiest-first report lands in the profile JSON together with the
//!    buffer-pool counters from the metrics registry.
//! 3. **SLOs** — latency objectives are evaluated against the live
//!    histograms with error-budget accounting ([`embsr_obs::slo`]).
//!    `--slo metric:pQQ<=MICROS[@BUDGET]` adds objectives (repeatable);
//!    `--enforce-slo` exits non-zero when any objective is missed.
//!
//! Writes `results/profile.json` (full report) plus the aggregate
//! `BENCH_obs.json`. `EMBSR_BENCH_QUICK=1` shrinks the model and the
//! request volume for CI smoke runs.

use std::path::Path;
use std::sync::Arc;

use embsr_bench::parse_args;
use embsr_core::{Embsr, EmbsrConfig};
use embsr_obs::trace::{self, TraceTree};
use embsr_obs::{EnvFilter, JsonValue, JsonlSink};
use embsr_serve::{serve, EngineConfig, FrozenModel, ScoreBatch, TopK};
use embsr_sessions::{Example, MicroBehavior, Session};
use embsr_train::{NeuralRecommender, Recommender, TrainConfig};

/// Reconstructed phase durations must sum to within this fraction of the
/// root span's end-to-end latency (for the best single-session request).
const PHASE_SUM_TOLERANCE: f64 = 0.05;

/// Latency objectives evaluated on every run; deliberately generous so the
/// default run documents headroom instead of flaking on slow CI machines.
/// `--slo` appends stricter ones and `--enforce-slo` turns misses fatal.
const DEFAULT_SLOS: &[&str] = &[
    "serve.request_latency_us:p99<=500000",
    "serve.request_latency_us:p50<=250000",
];

/// Micro-behavior operations in the synthetic vocabulary.
const NUM_OPS: usize = 8;

/// The phases a traced engine request decomposes into.
const REQUEST_PHASES: &[&str] = &["queue_wait", "batch_assembly", "scoring", "top_k"];

/// Synthetic session prefixes with mixed lengths (2–9 micro-behaviors).
fn make_sessions(n: usize, vocab: usize, seed: u64) -> Vec<Session> {
    (0..n as u64)
        .map(|i| {
            let len = 2 + ((i * 11 + seed) % 8) as usize;
            Session {
                id: i,
                events: (0..len)
                    .map(|j| {
                        let item = ((i * 131 + j as u64 * 17 + seed) % vocab as u64) as u32;
                        let op = ((i * 3 + j as u64) % NUM_OPS as u64) as u16;
                        MicroBehavior::new(item, op)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Next-item prediction examples derived from the synthetic sessions.
fn make_examples(sessions: &[Session], vocab: usize) -> Vec<Example> {
    sessions
        .iter()
        .map(|s| Example {
            session: s.clone(),
            target: (s.id % vocab as u64) as u32,
        })
        .collect()
}

/// Relative gap between the summed phase durations and the root latency of
/// one request tree: `(root − Σ phases) / root`. Phases never overlap and
/// never escape the root, so the gap is the untraced overhead (channel
/// hand-offs, response assembly).
fn phase_sum_error(tree: &TraceTree) -> f64 {
    let total = tree.duration_us().max(1) as f64;
    let phases: u64 = REQUEST_PHASES.iter().map(|p| tree.total_us(p)).sum();
    (total - phases as f64).abs() / total
}

fn fail(msg: &str) -> ! {
    eprintln!("exp_profile FAILED: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let argv: Vec<String> = std::env::args().collect();
    let enforce_slo = argv.iter().any(|a| a == "--enforce-slo");
    let quick = std::env::var("EMBSR_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());

    // A vocabulary large enough that scoring dominates the request timeline:
    // the 5% phase-sum acceptance bound needs the untraced slack (channel
    // hand-offs) to be small relative to the traced phases.
    let (vocab, dim, n_sessions, attempts) = if quick {
        (2048, 32, 24, 12)
    } else {
        (8192, 48, 96, 16)
    };
    let max_len = 40;
    let workers = args.threads.clamp(1, 4);

    println!(
        "profile bench: EMBSR |V|={vocab} d={dim} · {n_sessions} sessions · \
         engine workers={workers} · quick={quick} · seed={}",
        args.seed
    );

    embsr_obs::metrics::set_enabled(true);
    embsr_obs::profile::set_enabled(true);
    embsr_obs::profile::reset();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        fail(&format!("cannot create {}: {e}", args.out_dir.display()));
    }

    // Fresh trace file per run; the sink appends, so stale records from a
    // previous run would otherwise survive into this run's validation.
    let trace_path = args.out_dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let filter: EnvFilter = match "off,trace=trace".parse() {
        Ok(f) => f,
        Err(e) => fail(&format!("trace filter: {e}")),
    };
    match JsonlSink::file(&trace_path, filter) {
        Ok(sink) => embsr_obs::add_sink(Arc::new(sink)),
        Err(e) => fail(&format!("cannot open {}: {e}", trace_path.display())),
    }
    trace::set_enabled(true);

    let mut cfg = EmbsrConfig::full(vocab, NUM_OPS, dim);
    cfg.seed = args.seed;
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), max_len);
    let sessions = make_sessions(n_sessions, vocab, args.seed);

    // --- 1. traced engine requests -------------------------------------
    let engine_cfg = EngineConfig {
        workers,
        max_batch: 32,
        flush_deadline_us: 500,
        ..EngineConfig::default()
    };
    let span = embsr_obs::span("embsr_bench", "profile_requests");
    serve(
        &frozen,
        || Embsr::new(cfg.clone()),
        engine_cfg,
        |client| {
            // Batched requests: span trees under engine load.
            for chunk in sessions.chunks(8) {
                std::hint::black_box(client.score(ScoreBatch {
                    sessions: chunk.to_vec(),
                }));
                std::hint::black_box(client.top_k(TopK {
                    sessions: chunk.to_vec(),
                    k: 10,
                }));
            }
            // Single-session requests: the acceptance-bound candidates. One
            // request in flight at a time, so queue wait and assembly are
            // minimal and the tree is dominated by traced scoring time.
            for i in 0..attempts {
                std::hint::black_box(client.top_k(TopK {
                    sessions: vec![sessions[i % sessions.len()].clone()],
                    k: 10,
                }));
            }
        },
    );
    let request_secs = span.elapsed().as_secs_f64();
    drop(span);
    trace::set_enabled(false);
    println!("  traced {} requests in {request_secs:.2}s", sessions.len().div_ceil(8) * 2 + attempts);

    // --- 2. short training fit: phase attribution + training kernels ----
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        max_session_len: max_len,
        seed: args.seed,
        patience: None,
        ..TrainConfig::fast()
    };
    let (train_vocab, train_dim) = if quick { (256, 16) } else { (512, 24) };
    let mut tiny = EmbsrConfig::full(train_vocab, NUM_OPS, train_dim);
    tiny.seed = args.seed;
    let train_sessions = make_sessions(if quick { 48 } else { 128 }, train_vocab, args.seed + 1);
    let examples = make_examples(&train_sessions, train_vocab);
    let mut rec = NeuralRecommender::new(Embsr::new(tiny), train_cfg);
    let span = embsr_obs::span("embsr_bench", "profile_fit");
    rec.fit(&examples, &examples);
    let fit_secs = span.elapsed().as_secs_f64();
    drop(span);
    println!("  trained {} examples for 2 epochs in {fit_secs:.2}s", examples.len());

    // --- 3. offline validation of the emitted trace --------------------
    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {}: {e}", trace_path.display())),
    };
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match trace::validate_line(line) {
            Ok(Some(r)) => records.push(r),
            Ok(None) => {}
            Err(e) => fail(&format!("{}:{}: {e}", trace_path.display(), i + 1)),
        }
    }
    if records.is_empty() {
        fail("no trace records were emitted");
    }
    let trees = match trace::build_trees(&records) {
        Ok(t) => t,
        Err(e) => fail(&format!("trace reconstruction: {e}")),
    };
    let request_trees: Vec<&TraceTree> = trees
        .iter()
        .filter(|t| t.root().name.ends_with("_request"))
        .collect();
    if request_trees.is_empty() {
        fail("no request trees reconstructed");
    }
    let best_err = request_trees
        .iter()
        .map(|t| phase_sum_error(t))
        .fold(f64::INFINITY, f64::min);
    println!(
        "  trace: {} records · {} trees ({} requests) · best phase-sum gap {:.2}%",
        records.len(),
        trees.len(),
        request_trees.len(),
        best_err * 100.0
    );
    if best_err > PHASE_SUM_TOLERANCE {
        fail(&format!(
            "phase durations sum to within {:.1}% of request latency at best, \
             tolerance is {:.0}%",
            best_err * 100.0,
            PHASE_SUM_TOLERANCE * 100.0
        ));
    }

    // --- 4. profile report + SLO evaluation ----------------------------
    let profile = embsr_obs::profile::report();
    println!("  profile: {} shape-bucketed sites", profile.len());
    for entry in profile.iter().take(5) {
        println!(
            "    {} m={} k={} n={}: {} calls · {}us · {:.2} GFLOP/s",
            entry.site,
            entry.m,
            entry.k,
            entry.n,
            entry.calls,
            entry.total_us,
            entry.gflops()
        );
    }
    if profile.is_empty() {
        fail("profiling was enabled but no kernel samples were recorded");
    }

    let mut slo_specs = Vec::new();
    for spec in DEFAULT_SLOS {
        match embsr_obs::slo::SloSpec::parse(spec) {
            Ok(s) => slo_specs.push(s),
            Err(e) => fail(&format!("built-in SLO `{spec}`: {e}")),
        }
    }
    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        if a == "--slo" {
            let Some(raw) = iter.next() else {
                fail("--slo takes a spec, e.g. serve.request_latency_us:p99<=2000");
            };
            match embsr_obs::slo::SloSpec::parse(raw) {
                Ok(s) => slo_specs.push(s),
                Err(e) => fail(&format!("--slo `{raw}`: {e}")),
            }
        }
    }
    let slo_reports = embsr_obs::slo::evaluate(&slo_specs);
    for r in &slo_reports {
        let state = if r.met { "met" } else { "MISSED" };
        println!(
            "  slo {}: {} (measured {:.0}us over {} samples, violating {:.4}–{:.4}, \
             budget consumed {:.2}–{:.2})",
            r.spec.display(),
            state,
            r.measured_us,
            r.samples,
            r.violation_fraction.0,
            r.violation_fraction.1,
            r.budget_consumed.0,
            r.budget_consumed.1
        );
    }

    // --- 5. reports -----------------------------------------------------
    let metric_rows: Vec<JsonValue> = embsr_obs::metrics::snapshot()
        .into_iter()
        .map(|m| {
            let mut pairs = vec![
                ("name", JsonValue::String(m.name)),
                ("kind", JsonValue::String(m.kind.into())),
                ("value", JsonValue::Number(m.value)),
            ];
            if let Some((mean, p50, p95, p99, max)) = m.quantiles {
                pairs.push(("mean", JsonValue::Number(mean)));
                pairs.push(("p50", JsonValue::Number(p50)));
                pairs.push(("p95", JsonValue::Number(p95)));
                pairs.push(("p99", JsonValue::Number(p99)));
                pairs.push(("max", JsonValue::Number(max)));
            }
            JsonValue::object(pairs)
        })
        .collect();
    let trace_summary = JsonValue::object(vec![
        ("file", JsonValue::String(trace_path.display().to_string())),
        ("records", JsonValue::Number(records.len() as f64)),
        ("trees", JsonValue::Number(trees.len() as f64)),
        ("request_trees", JsonValue::Number(request_trees.len() as f64)),
        ("schema_valid", JsonValue::Bool(true)),
        ("best_phase_sum_error", JsonValue::Number(best_err)),
        ("phase_sum_tolerance", JsonValue::Number(PHASE_SUM_TOLERANCE)),
    ]);
    let git_revision = JsonValue::String(embsr_obs::manifest::git_revision());
    let cores_available = JsonValue::Number(embsr_obs::manifest::cores_available() as f64);
    let report = JsonValue::object(vec![
        ("experiment", JsonValue::String("profile".into())),
        ("quick", JsonValue::Bool(quick)),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("vocab", JsonValue::Number(vocab as f64)),
        ("dim", JsonValue::Number(dim as f64)),
        ("engine_workers", JsonValue::Number(workers as f64)),
        ("cores_available", cores_available.clone()),
        ("git_revision", git_revision.clone()),
        ("trace", trace_summary),
        (
            "profile",
            JsonValue::Array(profile.iter().map(|e| e.to_json_value()).collect()),
        ),
        (
            "slo",
            JsonValue::Array(slo_reports.iter().map(|r| r.to_json_value()).collect()),
        ),
        ("metrics", JsonValue::Array(metric_rows)),
    ]);
    let report_path = args.out_dir.join("profile.json");
    match std::fs::write(&report_path, report.to_json() + "\n") {
        Ok(()) => println!("wrote {}", report_path.display()),
        Err(e) => fail(&format!("cannot write {}: {e}", report_path.display())),
    }

    let slo_all_met = slo_reports.iter().all(|r| r.met);
    let table = JsonValue::object(vec![
        ("bench", JsonValue::String("obs".into())),
        ("git_revision", git_revision),
        ("cores_available", cores_available),
        ("quick", JsonValue::Bool(quick)),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("trace_records", JsonValue::Number(records.len() as f64)),
        ("trace_trees", JsonValue::Number(trees.len() as f64)),
        ("schema_valid", JsonValue::Bool(true)),
        ("best_phase_sum_error", JsonValue::Number(best_err)),
        ("profile_sites", JsonValue::Number(profile.len() as f64)),
        ("slo_objectives", JsonValue::Number(slo_reports.len() as f64)),
        ("slo_all_met", JsonValue::Bool(slo_all_met)),
    ]);
    let table_path = Path::new("BENCH_obs.json");
    match std::fs::write(table_path, table.to_json() + "\n") {
        Ok(()) => println!("wrote {}", table_path.display()),
        Err(e) => fail(&format!("cannot write {}: {e}", table_path.display())),
    }

    if enforce_slo && !slo_all_met {
        fail("one or more SLO objectives were missed (--enforce-slo)");
    }
    println!(
        "Shape to verify: every trace line validates against the schema, each \
         request reassembles into a single-rooted span tree, and the best \
         single-session request's phase durations account for >95% of its \
         end-to-end latency."
    );
}
