//! End-to-end and per-layer benchmark of the EMBSR stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload topk-fresh --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's own
//! metrics and tracing left at their defaults; `--trace 1` replays the same
//! workload and seed layer by layer and reports the per-layer metrics. The
//! last line of standard output is the result object; everything before it
//! is a human-readable report. Spans, raw samples and run details are
//! written to `.bench_out/` in the working directory.
//!
//! End-to-end metrics of a serving workload: `throughput_sps` is the median
//! over half-second windows of a closed loop (one connection, fixed
//! window); `p50_ms` comes from the raw samples of an open loop at the
//! workload's fixed rate, each request timed from its due time (the p99 is
//! printed, and is the traced run's `bench.open_p99_ms`);
//! `setup_s` is the median of several full set-ups (generation, freeze,
//! server start, warm-up). `train-jd` runs its fixed epochs whatever
//! `--seconds` says, so that its weights and `mrr20` repeat bitwise; its
//! `p50_ms` is the median time to evaluate one chunk of the test split.
//!
//! A run that is not correct still prints its result line, then exits 1.

mod gen;
mod ladder;
mod serving;
mod stats;
mod training;

use gen::Draw;
use serving::{Kind, Spec};
use stats::Outcome;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["topk-fresh", "topk-repeat-swap", "score-rows", "train-jd"];

/// The serving workloads' fixed definitions. Offered rates are fixed, not
/// calibrated per run. The top-k rates sit at a fifth or less of the seed
/// commit's closed-loop capacity on 2 cores: at half of it, open-loop p99
/// spread over 40% and p50 15% between seeds; at a third, a host stall of
/// a few milliseconds still queued the requests after it, so p50 followed
/// the host's load.
fn serving_spec(name: &str) -> Option<Spec> {
    match name {
        // Every session distinct: the encoder does most of the work and the
        // repr cache only costs (every lookup misses, it evicts constantly).
        "topk-fresh" => Some(Spec {
            kind: Kind::TopK,
            draw: Draw::Fresh,
            per_request: 1,
            rate_rps: 100.0,
            window: 8,
            swaps: 0,
            warmup: 200,
        }),
        // Zipf draws from a 2,000-session pool: hits skip the encoder, so
        // the logits GEMM, top-k and the per-request path dominate; the
        // hot-swaps invalidate the cache and stage snapshots beside reads.
        // The longer warm-up fills the cache with the pool's popular head,
        // so the timed phases do not start on a cold cache.
        "topk-repeat-swap" => Some(Spec {
            kind: Kind::TopK,
            draw: Draw::Pool(2000),
            per_request: 1,
            rate_rps: 100.0,
            window: 8,
            swaps: 4,
            warmup: 800,
        }),
        // Eight fresh sessions per request, full |V| rows back: the JSON
        // score-row codec is a large share of the work.
        "score-rows" => Some(Spec {
            kind: Kind::Rows,
            draw: Draw::Fresh,
            per_request: 8,
            rate_rps: 20.0,
            window: 4,
            swaps: 0,
            warmup: 20,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program's telemetry goes to stderr; keep it to warnings.
    embsr_obs::init_from_env("EMBSR_LOG", "warn");
    let calib_ms = stats::calib_ms();
    let (rev, dirty) = stats::git_revision();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} rev={rev} dirty={dirty} nproc={nproc} calib_ms={calib_ms:.3}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut out = Outcome::default();
    let mut spans = stats::Spans::new();
    match (serving_spec(&args.workload), args.trace) {
        (Some(spec), false) => serving::run(&spec, args.seed, args.seconds, &mut out),
        (Some(spec), true) => {
            ladder::run_serving(&spec, args.seed, args.seconds, &mut out, &mut spans)
        }
        (None, false) => training::run(args.seed, &mut out),
        (None, true) => ladder::run_training(args.seed, &mut out, &mut spans),
    }
    if args.trace {
        out.metric("bench.calib_ms", "ms", calib_ms);
    } else {
        match stats::peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", "MiB", mb),
            None => out.error("VmHWM unavailable".into()),
        }
    }
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("metric {} is not finite", bad.name);
        out.error(msg);
    }
    write_artifacts(&args, &out, &spans, (&rev, &dirty, nproc, calib_ms));
    println!("{}", out.result_line());
    if !out.correct() {
        eprintln!(
            "perfbench: run is NOT correct ({} error(s))",
            out.errors.len()
        );
        std::process::exit(1);
    }
}

/// Writes the run's details and spans under `.bench_out/`.
fn write_artifacts(
    args: &Args,
    out: &Outcome,
    spans: &stats::Spans,
    env: (&str, &str, usize, f64),
) {
    let dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let (rev, dirty, nproc, calib_ms) = env;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\":[{},\"{}\"]", m.name, m.value, m.unit))
        .collect();
    let errors: Vec<String> = out.errors.iter().map(|e| format!("{e:?}")).collect();
    let c = &out.counts;
    let summary = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"revision\":\"{rev}\",\"dirty\":\"{dirty}\",\"nproc\":{nproc},\"calib_ms\":{calib_ms},\"attempted\":{},\"succeeded\":{},\"rejected\":{},\"failed\":{},\"errors\":[{}],\"metrics\":{{{}}}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        c.attempted,
        c.succeeded,
        c.rejected,
        c.failed,
        errors.join(","),
        metrics.join(",")
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), summary))
        .and_then(|()| {
            for (name, xs) in &out.series {
                let text: String = xs.iter().map(|x| format!("{x}\n")).collect();
                std::fs::write(dir.join(format!("{stem}.{name}.txt")), text)?;
            }
            if spans.spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans.to_jsonl())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}
