//! Experiment S1 — serving-path throughput and latency.
//!
//! Scores a fixed set of synthetic session prefixes with an untrained
//! full EMBSR model through four paths:
//!
//! 1. `per_session` — the pre-serving eval path: one taped
//!    `Recommender::scores` call per session;
//! 2. `frozen_batch1` — the tape-free [`FrozenModel`] path at batch 1
//!    (isolates the tape overhead from the batching win);
//! 3. `frozen_batch8` / `frozen_batch32` — the batched tape-free path
//!    (amortizes the per-batch item-table normalization across rows);
//! 4. `engine` — end-to-end through the micro-batching engine on pool
//!    workers, with request latency (p50/p95/p99) and queue depth
//!    (p95/max) recorded into `embsr_obs` histograms and reported.
//!
//! The frozen and engine paths are additionally swept across kernel tiers
//! (`packed`, the bitwise training tier, vs `simd`, the vectorized serving
//! default) and across snapshot precisions (`f32` vs `bf16`), so the bench
//! records both the vectorized tier's end-to-end multiplier
//! (`simd_engine` in the baseline) and the reduced-precision snapshot's
//! size ratio.
//!
//! Writes `results/serving.json` plus the aggregate `BENCH_serving.json`.
//! The CI serving job runs `--check-baseline crates/bench/serving_baseline.json`:
//! the batched-vs-per-session **throughput ratios** (machine-portable,
//! unlike raw sessions/s) are compared against the checked-in baseline and
//! the run exits non-zero when any ratio regresses by more than the
//! baseline's tolerance (15%). `--write-baseline <path>` regenerates it.
//!
//! `--reference-engine <sessions/s>` embeds the engine throughput of a
//! pre-change build measured on the same machine; the artifact then carries
//! the cross-build `engine_vs_reference` multiplier alongside the within-run
//! ratios (it is informational — cross-build numbers cannot be revalidated
//! by `--check-baseline`).
//!
//! `EMBSR_BENCH_QUICK=1` shrinks the model and the session set ~10× for
//! smoke runs; the ratios stay meaningful because every path shrinks
//! together.

use std::path::PathBuf;

use embsr_bench::parse_args;
use embsr_core::{Embsr, EmbsrConfig};
use embsr_obs::JsonValue;
use embsr_serve::{
    serve, EngineConfig, FrozenModel, KernelTier, Precision, ScoreBatch, METRIC_BATCH_SESSIONS,
    METRIC_QUEUE_DEPTH, METRIC_REQUEST_LATENCY_US,
};
use embsr_sessions::{MicroBehavior, Session};
use embsr_train::{NeuralRecommender, Recommender, TrainConfig};

/// How much a throughput ratio may fall below the checked-in baseline
/// before the regression check fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Micro-behavior operations in the synthetic vocabulary.
const NUM_OPS: usize = 8;

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

/// Sessions per second for `passes` full sweeps of `work` over `sessions`.
fn throughput(label: &str, sessions: usize, passes: usize, mut work: impl FnMut()) -> f64 {
    work(); // warm-up: fills caches and the tensor buffer pool
    let span = embsr_obs::span("embsr_bench", "serving_path");
    for _ in 0..passes {
        work();
    }
    let secs = span.elapsed().as_secs_f64();
    let per_sec = (sessions * passes) as f64 / secs;
    println!("  {label}: {per_sec:.1} sessions/s ({passes} passes over {sessions} sessions)");
    per_sec
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
    // Engine throughput of a pre-change build measured on the same machine
    // (sessions/s). Cross-build ratios can't be recomputed inside one run,
    // so this is recorded in the JSON artifact for context rather than
    // checked against the baseline.
    let reference_engine: Option<f64> = flag_value("--reference-engine")
        .and_then(|p| p.to_string_lossy().parse().ok());
    let quick = std::env::var("EMBSR_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());

    // A serving-scale vocabulary: the per-session path re-normalizes and
    // re-transposes the whole item table every call, which is exactly the
    // work the batched path amortizes — the bigger |V| is relative to the
    // per-session encoder work, the more the batch wins (production tables
    // are far larger still).
    let (vocab, dim, n_sessions, passes) = if quick {
        (1024, 16, 64, 1)
    } else {
        (8192, 48, 256, 3)
    };
    // The taped per-session path is the slowest; a subset keeps its
    // measurement time bounded while staying statistically comfortable.
    let n_single = n_sessions.min(64);
    let max_len = 40;
    let workers = args.threads.clamp(1, 4);

    println!(
        "serving bench: EMBSR |V|={vocab} d={dim} · {n_sessions} sessions · \
         engine workers={workers} · quick={quick} · seed={}",
        args.seed
    );
    embsr_obs::metrics::set_enabled(true);

    let mut cfg = EmbsrConfig::full(vocab, NUM_OPS, dim);
    cfg.seed = args.seed;
    let train_cfg = TrainConfig {
        max_session_len: max_len,
        ..TrainConfig::fast()
    };
    let rec = NeuralRecommender::new(Embsr::new(cfg.clone()), train_cfg);
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), max_len);
    let sessions = make_sessions(n_sessions, vocab, args.seed);

    // 1. the pre-serving path: per-session taped forwards
    let single_per_sec = throughput("per_session ", n_single, passes, || {
        for s in &sessions[..n_single] {
            std::hint::black_box(rec.scores(s));
        }
    });

    // 2./3. frozen tape-free path at batch sizes 1, 8, 32 (simd, the
    // serving default)
    let mut frozen_per_sec: Vec<(usize, f64)> = Vec::new();
    for &batch in &[1usize, 8, 32] {
        let per_sec = throughput(&format!("frozen_batch{batch:<2}"), n_sessions, passes, || {
            for chunk in sessions.chunks(batch) {
                std::hint::black_box(frozen.score_batch(chunk));
            }
        });
        frozen_per_sec.push((batch, per_sec));
    }

    // 3b. tier and precision sweep on the batched frozen path: the packed
    // (bitwise training) tier isolates the vectorized tier's multiplier,
    // and a bf16 snapshot shows reduced precision serves at full speed
    // from half the bytes (quantized weights are stored back as f32).
    let mut frozen_packed = FrozenModel::freeze(Embsr::new(cfg.clone()), max_len);
    frozen_packed.set_tier(KernelTier::Packed);
    let packed_batch32 = throughput("frozen_batch32[packed]", n_sessions, passes, || {
        for chunk in sessions.chunks(32) {
            std::hint::black_box(frozen_packed.score_batch(chunk));
        }
    });
    let frozen_bf16 =
        FrozenModel::freeze_with_precision(Embsr::new(cfg.clone()), max_len, Precision::Bf16);
    let bf16_batch32 = throughput("frozen_batch32[bf16]  ", n_sessions, passes, || {
        for chunk in sessions.chunks(32) {
            std::hint::black_box(frozen_bf16.score_batch(chunk));
        }
    });
    let snapshot_f32_bytes = frozen.snapshot_bytes().len();
    let snapshot_bf16_bytes = frozen_bf16.snapshot_bytes().len();
    println!(
        "  snapshot bytes: f32 {snapshot_f32_bytes} · bf16 {snapshot_bf16_bytes} \
         ({:.2}× smaller)",
        snapshot_f32_bytes as f64 / snapshot_bf16_bytes as f64
    );

    // 4. end-to-end through the micro-batching engine, packed tier first —
    // its histograms are reset afterwards so the reported latency reflects
    // the production (simd) configuration only.
    let engine_cfg = EngineConfig {
        workers,
        max_batch: 32,
        flush_deadline_us: 500,
        ..EngineConfig::default()
    };
    let engine_packed_per_sec = serve(
        &frozen_packed,
        || Embsr::new(cfg.clone()),
        engine_cfg,
        |client| {
            throughput("engine[packed]", n_sessions, passes, || {
                for chunk in sessions.chunks(32) {
                    std::hint::black_box(client.score(ScoreBatch {
                        sessions: chunk.to_vec(),
                    }));
                }
            })
        },
    );
    for metric in [
        METRIC_REQUEST_LATENCY_US,
        METRIC_BATCH_SESSIONS,
        METRIC_QUEUE_DEPTH,
    ] {
        embsr_obs::metrics::histogram(metric).reset();
    }
    let engine_per_sec = serve(
        &frozen,
        || Embsr::new(cfg.clone()),
        engine_cfg,
        |client| {
            throughput("engine[simd]  ", n_sessions, passes, || {
                for chunk in sessions.chunks(32) {
                    std::hint::black_box(client.score(ScoreBatch {
                        sessions: chunk.to_vec(),
                    }));
                }
            })
        },
    );

    let latency = embsr_obs::metrics::histogram(METRIC_REQUEST_LATENCY_US);
    let (p50_us, p95_us, p99_us) = (
        latency.quantile(0.5),
        latency.quantile(0.95),
        latency.quantile(0.99),
    );
    let batch_p50 = embsr_obs::metrics::histogram(METRIC_BATCH_SESSIONS).quantile(0.5);
    let queue_depth = embsr_obs::metrics::histogram(METRIC_QUEUE_DEPTH);
    let depth_max = queue_depth.max().unwrap_or(0);
    let depth_p95 = queue_depth.quantile(0.95);
    println!(
        "  engine request latency: p50 {p50_us:.0}us · p95 {p95_us:.0}us · p99 {p99_us:.0}us · \
         median batch occupancy {batch_p50:.0}"
    );
    println!("  engine queue depth: p95 {depth_p95:.0} · max {depth_max}");

    let mut ratios: Vec<(String, f64)> = Vec::new();
    for &(batch, per_sec) in &frozen_per_sec {
        if batch > 1 {
            ratios.push((format!("frozen_batch{batch}"), per_sec / single_per_sec));
        }
    }
    // Vectorized-tier multipliers: same path, same batching, only the
    // kernel tier differs — the serving counterpart of the kernel bench's
    // `simd_gemm_*` ratio family.
    ratios.push((
        "simd_frozen_batch32".to_string(),
        frozen_per_sec[2].1 / packed_batch32,
    ));
    ratios.push((
        "simd_engine".to_string(),
        engine_per_sec / engine_packed_per_sec,
    ));
    for (key, ratio) in &ratios {
        let against = if key.starts_with("simd_") {
            "over packed tier"
        } else {
            "over per_session"
        };
        println!("  speedup {key}: {ratio:.2}× {against}");
    }
    if let Some(reference) = reference_engine {
        println!(
            "  speedup engine_vs_reference: {:.2}× over pre-change engine ({reference:.1} sessions/s)",
            engine_per_sec / reference
        );
    }

    let rows: Vec<JsonValue> = [
        ("per_session".to_string(), "packed", "f32", 1, single_per_sec),
        (
            "frozen_batch1".to_string(),
            "simd",
            "f32",
            1,
            frozen_per_sec[0].1,
        ),
        (
            "frozen_batch8".to_string(),
            "simd",
            "f32",
            8,
            frozen_per_sec[1].1,
        ),
        (
            "frozen_batch32".to_string(),
            "simd",
            "f32",
            32,
            frozen_per_sec[2].1,
        ),
        (
            "frozen_batch32_packed".to_string(),
            "packed",
            "f32",
            32,
            packed_batch32,
        ),
        (
            "frozen_batch32_bf16".to_string(),
            "simd",
            "bf16",
            32,
            bf16_batch32,
        ),
        (
            "engine_packed".to_string(),
            "packed",
            "f32",
            32,
            engine_packed_per_sec,
        ),
        ("engine".to_string(), "simd", "f32", 32, engine_per_sec),
    ]
    .into_iter()
    .map(|(path, tier, precision, batch, per_sec)| {
        JsonValue::object(vec![
            ("experiment", JsonValue::String("serving_bench".into())),
            ("path", JsonValue::String(path)),
            ("tier", JsonValue::String(tier.into())),
            ("precision", JsonValue::String(precision.into())),
            ("batch", JsonValue::Number(batch as f64)),
            ("sessions_per_sec", JsonValue::Number(per_sec)),
            (
                "speedup_vs_per_session",
                JsonValue::Number(per_sec / single_per_sec),
            ),
        ])
    })
    .collect();

    if args.json {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            embsr_obs::warn!(target: "exp::serving", "out dir: {e}");
        }
        let row_file = JsonValue::object(vec![
            ("experiment", JsonValue::String("serving_bench".into())),
            ("rows", JsonValue::Array(rows.clone())),
        ]);
        let path = args.out_dir.join("serving.json");
        if let Err(e) = std::fs::write(&path, row_file.to_json() + "\n") {
            embsr_obs::warn!(target: "exp::serving", "row write failed: {e}");
        }
        let table = JsonValue::object(vec![
            ("bench", JsonValue::String("serving".into())),
            ("quick", JsonValue::Bool(quick)),
            ("seed", JsonValue::Number(args.seed as f64)),
            ("vocab", JsonValue::Number(vocab as f64)),
            ("dim", JsonValue::Number(dim as f64)),
            ("engine_workers", JsonValue::Number(workers as f64)),
            (
                "simd_lanes",
                JsonValue::Number(embsr_tensor::kernels::simd_lanes() as f64),
            ),
            (
                "snapshot_f32_bytes",
                JsonValue::Number(snapshot_f32_bytes as f64),
            ),
            (
                "snapshot_bf16_bytes",
                JsonValue::Number(snapshot_bf16_bytes as f64),
            ),
            (
                "reference_engine_per_sec",
                reference_engine.map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "engine_vs_reference",
                reference_engine.map_or(JsonValue::Null, |r| JsonValue::Number(engine_per_sec / r)),
            ),
            ("latency_p50_us", JsonValue::Number(p50_us)),
            ("latency_p95_us", JsonValue::Number(p95_us)),
            ("latency_p99_us", JsonValue::Number(p99_us)),
            ("queue_depth_p95", JsonValue::Number(depth_p95)),
            ("queue_depth_max", JsonValue::Number(depth_max as f64)),
            ("rows", JsonValue::Array(rows)),
        ]);
        let path = std::path::Path::new("BENCH_serving.json");
        match std::fs::write(path, table.to_json() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => embsr_obs::warn!(target: "exp::serving", "bench table: {e}"),
        }
    }

    if let Some(path) = write_baseline {
        let base = JsonValue::object(vec![
            ("bench", JsonValue::String("serving".into())),
            ("tolerance", JsonValue::Number(REGRESSION_TOLERANCE)),
            (
                "note",
                JsonValue::String(
                    "batched-vs-per-session throughput ratios; ratios are compared, \
                     not absolute sessions/s, so the check ports across machines"
                        .into(),
                ),
            ),
            (
                "speedup",
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
            Err(e) => embsr_obs::warn!(target: "exp::serving", "baseline write: {e}"),
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

    println!(
        "Shape to verify: frozen_batch32 clears 3× over per_session (the \
         item-table normalization amortizes across the batch) and the engine \
         lands near frozen_batch32 with p50/p99 request latency recorded in \
         BENCH_serving.json."
    );
}

/// Compares measured throughput ratios against the checked-in baseline.
/// Returns a summary line, or an error naming every regressed path.
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
        .get("speedup")
        .ok_or("baseline has no `speedup` object")?
    else {
        return Err("baseline `speedup` is not an object".into());
    };
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (key, want) in expected {
        let Some(want) = want.as_f64() else {
            return Err(format!("baseline speedup `{key}` is not a number"));
        };
        let Some((_, got)) = measured.iter().find(|(k, _)| k == key) else {
            return Err(format!("baseline key `{key}` was not measured"));
        };
        let floor = want * (1.0 - tolerance);
        checked += 1;
        if *got < floor {
            failures.push(format!(
                "{key}: measured {got:.2}× < floor {floor:.2}× (baseline {want:.2}× − {:.0}%)",
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "{checked} throughput ratio(s) within {:.0}% of baseline",
            tolerance * 100.0
        ))
    } else {
        Err(failures.join("; "))
    }
}
