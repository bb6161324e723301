//! Experiment N1 — networked serving under open-loop load.
//!
//! Drives a sharded [`embsr_net::Server`] (EMBSR replicas behind the
//! length-prefixed TCP protocol) with an **open-loop** load generator:
//! request arrival times are scheduled up front from an offered rate, not
//! from response completions, so a slow server faces a growing backlog
//! exactly like production traffic — the failure mode closed-loop
//! generators structurally cannot produce. Session identities are sampled
//! Zipfian (log-uniform rank) from millions of distinct synthetic users,
//! so rendezvous sharding sees a realistic skewed key stream.
//!
//! Every phase drives a **fixed connection pool** and pipelines over it
//! with the protocol-v2 multiplexed client (the pre-v2 generator's
//! one-request-per-connection shape survives only as the depth-1 arm of
//! the multiplexing A/B). The phases:
//!
//! 1. `calibrate` — closed-loop burst that measures the deployment's
//!    capacity (sessions/s) for the phases below;
//!    * phase 1b, `multiplex A/B` — the same closed loop on two fixed
//!      connections at pipeline depth 1 vs 8: the throughput ratio is what
//!      request-id multiplexing buys over serial request/response;
//! 2. `steady` — open loop at ~0.5× capacity: everything should complete,
//!    with the client-observed latency histogram feeding the SLO gate;
//! 3. `overload` — open loop at ~2× capacity against a small admission
//!    cap: the server must refuse the excess with typed `Overloaded`
//!    responses (client- and server-side rejection counts are reconciled
//!    one-for-one; anything else is a silent drop);
//! 4. `repr-cache A/B` — a repeat-heavy Zipfian stream (tiny user
//!    universe) against two fresh deployments differing only in
//!    `EngineConfig::repr_cache`, both pre-warmed: the throughput ratio
//!    and hit rate are what the session-repr cache buys.
//!
//! Writes `results/load.json` plus the aggregate `BENCH_net.json`
//! (sessions/s/core, p50/p95/p99, rejection rate, connection/pipeline
//! shape, cache ratios). The CI net job runs
//! `--check-baseline crates/bench/net_baseline.json`: the **ratios**
//! (steady completion, overload answered, pipeline/cache speedups, cache
//! hit rate) are machine-portable, unlike raw sessions/s, and the run
//! exits non-zero past the baseline tolerance. `--enforce-slo` turns
//! missed `--slo` objectives fatal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use embsr_bench::parse_args;
use embsr_core::{Embsr, EmbsrConfig};
use embsr_net::{NetClient, NetError, Server, ServerConfig};
use embsr_obs::{JsonValue, Stopwatch};
use embsr_serve::{EngineConfig, ScoreBatch, SubmitOptions};
use embsr_sessions::{MicroBehavior, Session};

/// How far a measured ratio may fall below the checked-in baseline before
/// the regression check fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Client-observed request latency per phase, µs.
const METRIC_STEADY_LATENCY: &str = "net.load.steady_latency_us";
const METRIC_OVERLOAD_LATENCY: &str = "net.load.overload_latency_us";

/// Micro-behavior operations in the synthetic vocabulary.
const NUM_OPS: usize = 8;

fn fail(msg: &str) -> ! {
    eprintln!("exp_load_bench FAILED: {msg}");
    std::process::exit(1);
}

/// SplitMix64 — the workspace's seeded test RNG, local to the generator.
struct Rand(u64);

impl Rand {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        // 53 mantissa bits → uniform in [0, 1).
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Samples a Zipf-skewed user rank in `[1, universe]` (log-uniform: rank
/// `~N^u`, the standard heavy-head approximation) and expands it into that
/// user's current session. The id is remixed so rendezvous sharding sees a
/// well-spread key even for head users.
fn zipf_session(rng: &mut Rand, universe: u64, vocab: usize) -> Session {
    let rank = (universe as f64).powf(rng.unit()) as u64;
    let user = rank.clamp(1, universe);
    let id = user
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(user);
    let len = 2 + (user % 6) as usize;
    Session {
        id,
        events: (0..len)
            .map(|j| {
                let item = ((user.wrapping_mul(131) + j as u64 * 17) % vocab as u64) as u32;
                let op = ((user + j as u64) % NUM_OPS as u64) as u16;
                MicroBehavior::new(item, op)
            })
            .collect(),
    }
}

/// Outcome counters for one load phase.
#[derive(Default)]
struct PhaseCounts {
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    /// High-water mark of pipelined requests in flight on any one
    /// connection, sampled at submit time.
    max_in_flight: AtomicU64,
}

/// Connects the fixed connection pool every load phase draws from. The
/// pre-v2 generator opened one connection per in-flight request; the
/// multiplexed protocol carries `lanes_per_conn` concurrent requests on
/// each of these instead.
fn connect_pool(server: &Server, conns: usize) -> Vec<NetClient> {
    (0..conns)
        .map(|_| {
            NetClient::connect(server.addr())
                .unwrap_or_else(|e| fail(&format!("pool connect: {e}")))
        })
        .collect()
}

/// Open-loop phase: `conns` pooled connections shared by
/// `conns * lanes_per_conn` generator lanes issue `total` single-session
/// requests whose arrival times are pre-scheduled at `offered_per_sec`.
/// A lane that falls behind schedule fires immediately (the backlog is
/// the point); it never waits for earlier responses to schedule later
/// arrivals. Lanes sharing a connection pipeline over it — each submits,
/// samples the connection's in-flight depth, then waits its own response.
/// Returns the phase's wall-clock seconds.
#[allow(clippy::too_many_arguments)]
fn open_loop_phase(
    server: &Server,
    conns: usize,
    lanes_per_conn: usize,
    total: usize,
    offered_per_sec: f64,
    universe: u64,
    vocab: usize,
    seed: u64,
    latency_metric: &'static str,
    counts: &PhaseCounts,
) -> f64 {
    let interval_us = 1.0e6 / offered_per_sec.max(1.0);
    let pool = connect_pool(server, conns);
    let lanes = conns * lanes_per_conn;
    let phase = Stopwatch::start();
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let counts = &counts;
            let phase = &phase;
            let client = &pool[lane % conns];
            scope.spawn(move || {
                let mut rng = Rand(seed ^ (lane as u64).wrapping_mul(0x243F_6A88));
                // Lane L owns arrivals L, L+lanes, L+2*lanes, ...
                let mut i = lane;
                while i < total {
                    let due_us = (i as f64 * interval_us) as u64;
                    let now_us = phase.elapsed_us();
                    if due_us > now_us {
                        std::thread::sleep(Duration::from_micros(due_us - now_us));
                    }
                    let session = zipf_session(&mut rng, universe, vocab);
                    let watch = Stopwatch::start();
                    let pending = client.submit_score(
                        &ScoreBatch {
                            sessions: vec![session],
                        },
                        SubmitOptions {
                            deadline_us: 2_000_000,
                            shed: true,
                        },
                    );
                    // ordering: Relaxed — statistics high-water mark only.
                    counts
                        .max_in_flight
                        .fetch_max(client.in_flight() as u64, Ordering::Relaxed);
                    match pending.wait() {
                        Ok(_) => {
                            embsr_obs::metrics::histogram(latency_metric)
                                .record(watch.elapsed_us());
                            // ordering: Relaxed — statistics counter only.
                            counts.completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Overloaded { .. }) => {
                            // ordering: Relaxed — statistics counter only.
                            counts.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // ordering: Relaxed — statistics counter only.
                            counts.failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += lanes;
                }
            });
        }
    });
    phase.elapsed_us() as f64 / 1.0e6
}

/// Closed-loop pooled driver: `conns` connections shared by
/// `conns * lanes_per_conn` lanes, each hammering its share of `total`
/// sessions (in requests of `batch` sessions) as fast as its own
/// responses return. `universe` controls the repeat rate of the Zipfian
/// key stream (small universe → repeat-heavy). Returns completed
/// sessions/s.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    server: &Server,
    conns: usize,
    lanes_per_conn: usize,
    total: usize,
    batch: usize,
    universe: u64,
    vocab: usize,
    seed: u64,
) -> f64 {
    let done = AtomicU64::new(0);
    let pool = connect_pool(server, conns);
    let lanes = conns * lanes_per_conn;
    let watch = Stopwatch::start();
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let done = &done;
            let client = &pool[lane % conns];
            scope.spawn(move || {
                let mut rng = Rand(seed ^ 0xCA11_B007 ^ lane as u64);
                for _ in 0..total / lanes / batch {
                    let sessions: Vec<Session> = (0..batch)
                        .map(|_| zipf_session(&mut rng, universe, vocab))
                        .collect();
                    if client
                        .score(&ScoreBatch { sessions }, SubmitOptions::default())
                        .is_ok()
                    {
                        // ordering: Relaxed — statistics counter only.
                        done.fetch_add(batch as u64, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let secs = watch.elapsed_us() as f64 / 1.0e6;
    // ordering: Relaxed — read after the scope joined every writer.
    done.load(Ordering::Relaxed) as f64 / secs.max(1e-9)
}

fn quantiles(metric: &str) -> (f64, f64, f64) {
    let h = embsr_obs::metrics::histogram(metric);
    (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99))
}

fn main() {
    let args = parse_args();
    let argv: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .map(PathBuf::from)
    };
    let check_baseline = flag_value("--check-baseline");
    let write_baseline = flag_value("--write-baseline");
    let enforce_slo = argv.iter().any(|a| a == "--enforce-slo");
    let quick = std::env::var("EMBSR_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());

    // Millions of distinct users either way: the Zipf tail must dwarf any
    // session cache and exercise the full rendezvous key space.
    let (vocab, dim, universe, calibrate_n, steady_n, overload_n) = if quick {
        (512, 16, 2_000_000u64, 160, 200, 240)
    } else {
        (2048, 32, 8_000_000u64, 800, 1200, 1600)
    };
    let workers = args.threads.clamp(1, 4);
    let replicas = 2usize;
    let cores = (replicas * workers) as f64;
    let cfg = ServerConfig {
        replicas,
        dispatchers: 2,
        engine: EngineConfig {
            workers,
            max_batch: 32,
            flush_deadline_us: 300,
            ..EngineConfig::default()
        },
        // Small on purpose: the overload phase must hit the cap with a
        // bounded client fleet.
        admission_cap: 4,
        ..ServerConfig::default()
    };

    println!(
        "load bench: EMBSR |V|={vocab} d={dim} · {replicas} replicas × {workers} workers · \
         {universe} users · quick={quick} · seed={}",
        args.seed
    );
    embsr_obs::metrics::set_enabled(true);

    let mut model_cfg = EmbsrConfig::full(vocab, NUM_OPS, dim);
    model_cfg.seed = args.seed;
    let frozen = embsr_serve::FrozenModel::freeze(Embsr::new(model_cfg.clone()), 40);
    let model_cfg2 = model_cfg.clone(); // the cache A/B redeploys the same model
    let factory_cfg = model_cfg;
    let server = match Server::start(&frozen, move || Embsr::new(factory_cfg.clone()), cfg) {
        Ok(s) => s,
        Err(e) => fail(&format!("server start: {e}")),
    };

    // --- phase 1: capacity calibration (closed loop, pooled) -------------
    let capacity = closed_loop(&server, 8, 2, calibrate_n, 1, universe, vocab, args.seed);
    println!(
        "  calibrate: {capacity:.0} sessions/s capacity ({:.0}/s/core)",
        capacity / cores
    );

    // --- phase 1b: multiplexing A/B on the same deployment ---------------
    // Two fixed connections either way; only the per-connection pipeline
    // depth changes. The v1 generator's one-request-per-connection shape
    // is the depth-1 arm, so the ratio is exactly what protocol v2 buys.
    let pipeline_n = calibrate_n;
    let thr_serial = closed_loop(&server, 2, 1, pipeline_n, 1, universe, vocab, args.seed + 7);
    let thr_deep = closed_loop(&server, 2, 8, pipeline_n, 1, universe, vocab, args.seed + 7);
    let pipeline_speedup = thr_deep / thr_serial.max(1e-9);
    println!(
        "  multiplex: depth 1 {thr_serial:.0}/s → depth 8 {thr_deep:.0}/s on 2 connections \
         ({pipeline_speedup:.2}×)"
    );

    // --- phase 2: steady state at ~0.5× capacity (open loop) ------------
    let steady = PhaseCounts::default();
    let steady_rate = (capacity * 0.5).max(10.0);
    let steady_conns = 8usize;
    let steady_depth = 4usize;
    let steady_secs = open_loop_phase(
        &server,
        steady_conns,
        steady_depth,
        steady_n,
        steady_rate,
        universe,
        vocab,
        args.seed + 1,
        METRIC_STEADY_LATENCY,
        &steady,
    );
    // ordering: Relaxed (all reads below) — the scopes joined every writer.
    let steady_done = steady.completed.load(Ordering::Relaxed);
    let steady_rej = steady.rejected.load(Ordering::Relaxed);
    let steady_fail = steady.failed.load(Ordering::Relaxed);
    let (s_p50, s_p95, s_p99) = quantiles(METRIC_STEADY_LATENCY);
    let steady_goodput = steady_done as f64 / steady_secs.max(1e-9);
    println!(
        "  steady: offered {steady_rate:.0}/s → {steady_goodput:.0}/s good \
         ({:.1}/s/core) · p50 {s_p50:.0}us p95 {s_p95:.0}us p99 {s_p99:.0}us · \
         {steady_rej} rejected, {steady_fail} failed",
        steady_goodput / cores
    );

    // --- phase 3: overload at ~2× capacity (open loop) -------------------
    let overload = PhaseCounts::default();
    let overload_rate = (capacity * 2.0).max(40.0);
    let overload_secs = open_loop_phase(
        &server,
        16,
        4,
        overload_n,
        overload_rate,
        universe,
        vocab,
        args.seed + 2,
        METRIC_OVERLOAD_LATENCY,
        &overload,
    );
    // ordering: Relaxed (all reads below) — the scopes joined every writer.
    let over_done = overload.completed.load(Ordering::Relaxed);
    let over_rej = overload.rejected.load(Ordering::Relaxed);
    let over_fail = overload.failed.load(Ordering::Relaxed);
    let (o_p50, o_p95, o_p99) = quantiles(METRIC_OVERLOAD_LATENCY);
    let over_goodput = over_done as f64 / overload_secs.max(1e-9);
    let rejection_rate = over_rej as f64 / overload_n as f64;
    println!(
        "  overload: offered {overload_rate:.0}/s → {over_goodput:.0}/s good · \
         rejection rate {:.1}% · p50 {o_p50:.0}us p95 {o_p95:.0}us p99 {o_p99:.0}us · \
         {over_fail} failed",
        rejection_rate * 100.0
    );

    // Client-observed rejections must reconcile with the server's own
    // accounting: a mismatch means a request was dropped without an answer.
    let stats = server.stats();
    let client_rejected = steady_rej + over_rej;
    if stats.rejected != client_rejected {
        fail(&format!(
            "rejection accounting mismatch: server counted {} but clients observed {client_rejected}",
            stats.rejected
        ));
    }
    println!(
        "  accounting: {} completed / {} rejected server-side — reconciled with clients",
        stats.completed, stats.rejected
    );
    // ordering: Relaxed — high-water reads after the phases joined.
    let max_in_flight = steady
        .max_in_flight
        .load(Ordering::Relaxed)
        .max(overload.max_in_flight.load(Ordering::Relaxed));
    println!(
        "  multiplex: {steady_conns} pooled connections × depth {steady_depth}, \
         deepest pipeline observed {max_in_flight}"
    );
    server.shutdown();

    // --- phase 4: session-repr cache A/B ---------------------------------
    // A repeat-heavy Zipfian stream (tiny user universe, so the head users
    // recur constantly) against two fresh deployments differing only in
    // `EngineConfig::repr_cache`. Both arms get an untimed warm pass, so
    // the ratio isolates the cache, not first-touch effects.
    let cache_universe = 48u64;
    let cache_n = if quick { 768 } else { 3200 };
    let cache_server = |repr_cache: usize| {
        let frozen = embsr_serve::FrozenModel::freeze(Embsr::new(model_cfg2.clone()), 40);
        let factory = model_cfg2.clone();
        Server::start(
            &frozen,
            move || Embsr::new(factory.clone()),
            ServerConfig {
                replicas,
                dispatchers: 2,
                engine: EngineConfig {
                    workers,
                    max_batch: 32,
                    flush_deadline_us: 300,
                    repr_cache,
                    ..EngineConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .unwrap_or_else(|e| fail(&format!("cache A/B server start: {e}")))
    };
    let off = cache_server(0);
    let _ = closed_loop(&off, 4, 4, cache_n, 8, cache_universe, vocab, args.seed + 3);
    let thr_cache_off = closed_loop(&off, 4, 4, cache_n, 8, cache_universe, vocab, args.seed + 3);
    off.shutdown();
    let on = cache_server(8192);
    let _ = closed_loop(&on, 4, 4, cache_n, 8, cache_universe, vocab, args.seed + 3);
    let probe = NetClient::connect(on.addr())
        .unwrap_or_else(|e| fail(&format!("cache status probe: {e}")));
    let warm_status = probe.status().unwrap_or_else(|e| fail(&format!("status: {e}")));
    let thr_cache_on = closed_loop(&on, 4, 4, cache_n, 8, cache_universe, vocab, args.seed + 3);
    let hot_status = probe.status().unwrap_or_else(|e| fail(&format!("status: {e}")));
    drop(probe);
    on.shutdown();
    let sum = |s: &embsr_net::ServerStatus, f: fn(&embsr_serve::CacheStats) -> u64| -> u64 {
        s.replicas.iter().map(|r| f(&r.cache)).sum()
    };
    let d_hits = sum(&hot_status, |c| c.hits) - sum(&warm_status, |c| c.hits);
    let d_misses = sum(&hot_status, |c| c.misses) - sum(&warm_status, |c| c.misses);
    let cache_hit_rate = d_hits as f64 / (d_hits + d_misses).max(1) as f64;
    let cache_speedup = thr_cache_on / thr_cache_off.max(1e-9);
    println!(
        "  repr cache: off {thr_cache_off:.0}/s → on {thr_cache_on:.0}/s \
         ({cache_speedup:.2}×) · hit rate {:.1}% over the timed pass",
        cache_hit_rate * 100.0
    );

    // --- SLOs -------------------------------------------------------------
    let mut slo_specs = Vec::new();
    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        if a == "--slo" {
            let Some(raw) = iter.next() else {
                fail("--slo takes a spec, e.g. net.load.steady_latency_us:p95<=500000");
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
            "  slo {}: {state} (measured {:.0}us over {} samples)",
            r.spec.display(),
            r.measured_us,
            r.samples
        );
    }
    let slo_all_met = slo_reports.iter().all(|r| r.met);

    // --- portable ratios for the regression gate -------------------------
    let steady_completion = steady_done as f64 / steady_n as f64;
    let overload_answered = (over_done + over_rej) as f64 / overload_n as f64;
    let ratios: Vec<(String, f64)> = vec![
        ("steady_completion".into(), steady_completion),
        ("overload_answered".into(), overload_answered),
        ("pipeline_speedup".into(), pipeline_speedup),
        ("cache_speedup".into(), cache_speedup),
        ("cache_hit_rate".into(), cache_hit_rate),
    ];
    println!(
        "  ratios: steady_completion {steady_completion:.3} · overload_answered {overload_answered:.3} · \
         pipeline_speedup {pipeline_speedup:.2} · cache_speedup {cache_speedup:.2} · \
         cache_hit_rate {cache_hit_rate:.3}"
    );

    let phase_rows: Vec<JsonValue> = [
        (
            "steady",
            steady_rate,
            steady_goodput,
            steady_done,
            steady_rej,
            steady_fail,
            (s_p50, s_p95, s_p99),
        ),
        (
            "overload",
            overload_rate,
            over_goodput,
            over_done,
            over_rej,
            over_fail,
            (o_p50, o_p95, o_p99),
        ),
    ]
    .into_iter()
    .map(
        |(phase, offered, goodput, done, rej, failed, (p50, p95, p99))| {
            JsonValue::object(vec![
                ("experiment", JsonValue::String("load_bench".into())),
                ("phase", JsonValue::String(phase.into())),
                ("offered_per_sec", JsonValue::Number(offered)),
                ("goodput_per_sec", JsonValue::Number(goodput)),
                ("goodput_per_sec_per_core", JsonValue::Number(goodput / cores)),
                ("completed", JsonValue::Number(done as f64)),
                ("rejected", JsonValue::Number(rej as f64)),
                ("failed", JsonValue::Number(failed as f64)),
                ("latency_p50_us", JsonValue::Number(p50)),
                ("latency_p95_us", JsonValue::Number(p95)),
                ("latency_p99_us", JsonValue::Number(p99)),
            ])
        },
    )
    .collect();

    if args.json {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            embsr_obs::warn!(target: "exp::load", "out dir: {e}");
        }
        let row_file = JsonValue::object(vec![
            ("experiment", JsonValue::String("load_bench".into())),
            ("rows", JsonValue::Array(phase_rows.clone())),
        ]);
        let path = args.out_dir.join("load.json");
        if let Err(e) = std::fs::write(&path, row_file.to_json() + "\n") {
            embsr_obs::warn!(target: "exp::load", "row write failed: {e}");
        }
        let table = JsonValue::object(vec![
            ("bench", JsonValue::String("net".into())),
            ("quick", JsonValue::Bool(quick)),
            ("seed", JsonValue::Number(args.seed as f64)),
            ("vocab", JsonValue::Number(vocab as f64)),
            ("dim", JsonValue::Number(dim as f64)),
            ("replicas", JsonValue::Number(replicas as f64)),
            ("engine_workers", JsonValue::Number(workers as f64)),
            ("user_universe", JsonValue::Number(universe as f64)),
            ("capacity_sessions_per_sec", JsonValue::Number(capacity)),
            (
                "capacity_sessions_per_sec_per_core",
                JsonValue::Number(capacity / cores),
            ),
            (
                "steady_goodput_per_sec_per_core",
                JsonValue::Number(steady_goodput / cores),
            ),
            ("connections", JsonValue::Number(steady_conns as f64)),
            ("pipeline_depth", JsonValue::Number(steady_depth as f64)),
            ("max_in_flight", JsonValue::Number(max_in_flight as f64)),
            ("latency_p50_us", JsonValue::Number(s_p50)),
            ("latency_p95_us", JsonValue::Number(s_p95)),
            ("latency_p99_us", JsonValue::Number(s_p99)),
            ("rejection_rate", JsonValue::Number(rejection_rate)),
            (
                "ratios",
                JsonValue::Object(
                    ratios
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                        .collect(),
                ),
            ),
            (
                "slos",
                JsonValue::Array(slo_reports.iter().map(|r| r.to_json_value()).collect()),
            ),
            ("slo_all_met", JsonValue::Bool(slo_all_met)),
            ("rows", JsonValue::Array(phase_rows)),
        ]);
        let path = std::path::Path::new("BENCH_net.json");
        match std::fs::write(path, table.to_json() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => embsr_obs::warn!(target: "exp::load", "bench table: {e}"),
        }
    }

    if let Some(path) = write_baseline {
        let base = JsonValue::object(vec![
            ("bench", JsonValue::String("net".into())),
            ("tolerance", JsonValue::Number(REGRESSION_TOLERANCE)),
            (
                "note",
                JsonValue::String(
                    "completion/answered ratios, not absolute sessions/s, so the \
                     check ports across machines"
                        .into(),
                ),
            ),
            (
                "ratios",
                JsonValue::Object(
                    ratios
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                        .collect(),
                ),
            ),
        ]);
        match std::fs::write(&path, base.to_json() + "\n") {
            Ok(()) => println!("wrote baseline {}", path.display()),
            Err(e) => embsr_obs::warn!(target: "exp::load", "baseline write: {e}"),
        }
    }

    if let Some(path) = check_baseline {
        match check_against_baseline(&path, &ratios) {
            Ok(summary) => println!("baseline check: {summary}"),
            Err(e) => {
                eprintln!("baseline check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    if enforce_slo && !slo_all_met {
        fail("one or more SLO objectives were missed (--enforce-slo)");
    }

    println!(
        "Shape to verify: the steady phase completes ~everything it was \
         offered at half capacity over a fixed pipelined connection pool, \
         the overload phase converts the excess into typed Overloaded \
         rejections that reconcile exactly with the server's counters, \
         deeper pipelines and a warm repr cache both beat their baselines, \
         and BENCH_net.json carries sessions/s/core with p50/p95/p99, the \
         rejection rate, the connection/pipeline shape, and the cache \
         ratios."
    );
}

/// Compares measured ratios against the checked-in baseline. Returns a
/// summary line, or an error naming every regressed ratio.
fn check_against_baseline(
    path: &std::path::Path,
    measured: &[(String, f64)],
) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let base = embsr_obs::parse_json(&src)?;
    let tolerance = base
        .get("tolerance")
        .and_then(JsonValue::as_f64)
        .unwrap_or(REGRESSION_TOLERANCE);
    let JsonValue::Object(expected) = base
        .get("ratios")
        .ok_or("baseline has no `ratios` object")?
    else {
        return Err("baseline `ratios` is not an object".into());
    };
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (key, want) in expected {
        let Some(want) = want.as_f64() else {
            return Err(format!("baseline ratio `{key}` is not a number"));
        };
        let Some((_, got)) = measured.iter().find(|(k, _)| k == key) else {
            return Err(format!("baseline key `{key}` was not measured"));
        };
        let floor = want * (1.0 - tolerance);
        checked += 1;
        if *got < floor {
            failures.push(format!(
                "{key}: measured {got:.3} < floor {floor:.3} (baseline {want:.3} − {:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "{checked} ratio(s) within {:.0}% of baseline",
            tolerance * 100.0
        ))
    } else {
        Err(failures.join("; "))
    }
}
