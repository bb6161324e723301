//! Experiment K1 — kernel-layer micro-benchmarks.
//!
//! Sweeps square `d × d × d` GEMMs for `d ∈ {32, 64, 128}` across the three
//! layouts (`A·B`, `Aᵀ·B`, `A·Bᵀ`) at both kernel tiers — packed
//! register-tiled and the vectorized lane-form tier — each timed against the
//! scalar reference loops (`reference_gemm_*`, called directly: the oracle,
//! not a tier), plus embedding gather (forward) and gather→scatter (forward +
//! backward) throughput. Writes one row file `results/kernels.json` and the
//! aggregate `BENCH_kernels.json`, both stamped with the git revision and
//! the cores available.
//!
//! `--tier {packed,simd,all}` restricts the sweep (default `all`; the
//! baseline check needs the full sweep since it gates both ratio families).
//!
//! Each GEMM shape is timed as [`ROUNDS`] interleaved rounds: every round
//! runs the reference, packed and simd kernels once each, in an order that
//! rotates from round to round, and each ratio is the **median of the
//! per-round ratios**. A host stall then spoils a round or two instead of
//! a whole tier's single timing block, and tiers that drift together with
//! the host cancel inside each round. The JSON rows report the median
//! round.
//!
//! The CI bench-regression job runs this with
//! `--check-baseline crates/bench/kernel_baseline.json`: the **speedup
//! ratios** (machine-portable, unlike raw GFLOP/s) — packed-vs-reference
//! (`gemm_ab_d128`) and vectorized-vs-packed (`simd_gemm_ab_d128`) — are
//! compared against the checked-in baseline, and the run exits non-zero
//! when any ratio regresses by more than the baseline's tolerance (15%).
//! `--write-baseline <path>` regenerates the baseline from the current run.
//!
//! `EMBSR_BENCH_QUICK=1` shrinks the per-measurement work budget ~10× for
//! smoke runs; the ratios stay meaningful because both sides of each ratio
//! shrink together.

use std::path::PathBuf;

use embsr_bench::parse_args;
use embsr_obs::JsonValue;
use embsr_tensor::kernels::{
    self, gemm_ab, gemm_abt, gemm_atb, reference_gemm_ab, reference_gemm_abt, reference_gemm_atb,
    KernelTier,
};
use embsr_tensor::{Rng, Tensor};
use std::hint::black_box;

/// All kernels share this square-problem calling shape.
type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Embedding-table rows for the gather/scatter benchmarks.
const GATHER_VOCAB: usize = 2048;

/// Indices gathered per call (a large batch of lookups).
const GATHER_ROWS: usize = 4096;

/// How much an individual speedup ratio may fall below the checked-in
/// baseline before the regression check fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Interleaved timing rounds per GEMM shape; the work budget is split
/// evenly across them.
const ROUNDS: usize = 21;

fn sample(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
}

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A timed GEMM: the scalar reference (`None`, called directly) or the
/// dispatched kernel at a tier.
type Contender = (Option<KernelTier>, Kernel);

/// Seconds per call for `calls` calls of one contender on a `d × d × d`
/// problem. The output is re-zeroed each call (identical cost on every
/// side of every ratio) so accumulators stay finite no matter how many
/// samples the budget buys.
fn time_gemm(
    (tier, kernel): Contender,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    d: usize,
    calls: usize,
) -> f64 {
    let body = |out: &mut [f32]| {
        let span = embsr_obs::span("embsr_bench", "kernel_gemm");
        for _ in 0..calls {
            out.fill(0.0);
            kernel(black_box(a), black_box(b), out, d, d, d);
        }
        let secs = span.elapsed().as_secs_f64();
        black_box(&out[0]);
        secs / calls as f64
    };
    match tier {
        Some(t) => kernels::with_tier(t, || body(out)),
        None => body(out),
    }
}

/// Seconds per call of each contender, one entry per round: a warmup of
/// `warmup` calls each, then [`ROUNDS`] rounds of `calls` calls each. Round
/// `r` starts at contender `r mod n` and runs the rest in cyclic order, so
/// each contender leads an equal share of the rounds.
fn time_rounds(
    contenders: &[Contender],
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    d: usize,
    (warmup, calls): (usize, usize),
) -> Vec<Vec<f64>> {
    for &c in contenders {
        time_gemm(c, a, b, out, d, warmup);
    }
    let n = contenders.len();
    let mut secs = vec![Vec::with_capacity(ROUNDS); n];
    for r in 0..ROUNDS {
        for k in 0..n {
            let i = (r + k) % n;
            secs[i].push(time_gemm(contenders[i], a, b, out, d, calls));
        }
    }
    secs
}

/// The median over rounds of `num[r] / den[r]`.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    median(num.iter().zip(den).map(|(n, d)| n / d).collect())
}

/// Seconds per call for a closure, measured over `iters` calls after a
/// warmup of roughly a tenth of that.
fn time_calls(mut f: impl FnMut(), iters: usize) -> f64 {
    for _ in 0..iters.div_ceil(10).max(2) {
        f();
    }
    let span = embsr_obs::span("embsr_bench", "kernel_gather");
    for _ in 0..iters {
        f();
    }
    span.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let args = parse_args();
    let argv: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let check_baseline = flag_value("--check-baseline").map(PathBuf::from);
    let write_baseline = flag_value("--write-baseline").map(PathBuf::from);
    let tier_arg = flag_value("--tier").unwrap_or_else(|| "all".to_string());
    let tiers: Vec<KernelTier> = if tier_arg == "all" {
        vec![KernelTier::Packed, KernelTier::Simd]
    } else {
        match KernelTier::parse(&tier_arg) {
            Some(t) => vec![t],
            None => {
                eprintln!("--tier must be one of packed|simd|all, got `{tier_arg}`");
                std::process::exit(2);
            }
        }
    };
    let quick = std::env::var("EMBSR_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    // Work budget per measurement: FLOPs for the GEMM timings, bytes moved
    // for the gather timings. Quick mode divides both by 10.
    let flop_budget = if quick { 2.0e7 } else { 2.0e8 };
    let byte_budget = if quick { 4.0e7 } else { 4.0e8 };

    println!(
        "kernel bench: d ∈ {{32, 64, 128}} · tiers {:?} · lanes={} · fma={} · quick={quick} · seed={}",
        tiers.iter().map(|t| t.name()).collect::<Vec<_>>(),
        kernels::simd_lanes(),
        kernels::has_hardware_fma(),
        args.seed
    );

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let variants: [(&str, Kernel, Kernel); 3] = [
        ("gemm_ab", gemm_ab, reference_gemm_ab),
        ("gemm_atb", gemm_atb, reference_gemm_atb),
        ("gemm_abt", gemm_abt, reference_gemm_abt),
    ];

    for &d in &[32usize, 64, 128] {
        let mut rng = Rng::seed_from_u64(args.seed ^ d as u64);
        let a = sample(&mut rng, d * d);
        let b = sample(&mut rng, d * d);
        let mut out = vec![0.0f32; d * d];
        let flops_per_call = 2.0 * (d * d * d) as f64;
        let iters = ((flop_budget / flops_per_call) as usize).clamp(5, 200_000);
        let calls = iters.div_ceil(ROUNDS);

        for (name, dispatched, reference) in variants {
            // Contender 0 is the reference, then one per measured tier.
            let mut contenders: Vec<Contender> = vec![(None, reference)];
            contenders.extend(tiers.iter().map(|&t| (Some(t), dispatched)));
            let warmup = iters.div_ceil(10).max(2);
            let secs = time_rounds(&contenders, &a, &b, &mut out, d, (warmup, calls));
            let rounds_of =
                |t: KernelTier| tiers.iter().position(|&x| x == t).map(|i| &secs[i + 1]);
            let reference_gflops = flops_per_call / median(secs[0].clone()) / 1e9;
            let mut line = format!("  {name} d={d}: reference {reference_gflops:.2} GFLOP/s");
            for (&tier, tier_secs) in tiers.iter().zip(&secs[1..]) {
                let gflops = flops_per_call / median(tier_secs.clone()) / 1e9;
                let vs_ref = median_ratio(&secs[0], tier_secs);
                line += &format!(" · {} {gflops:.2} GFLOP/s ({vs_ref:.2}× ref)", tier.name());
                rows.push(JsonValue::object(vec![
                    ("experiment", JsonValue::String("kernel_bench".into())),
                    ("kernel", JsonValue::String(name.into())),
                    ("tier", JsonValue::String(tier.name().into())),
                    ("dim", JsonValue::Number(d as f64)),
                    ("rounds", JsonValue::Number(ROUNDS as f64)),
                    ("iters", JsonValue::Number((calls * ROUNDS) as f64)),
                    ("gflops", JsonValue::Number(gflops)),
                    ("reference_gflops", JsonValue::Number(reference_gflops)),
                    ("speedup_vs_reference", JsonValue::Number(vs_ref)),
                ]));
            }
            println!("{line}");
            // Ratio families for the portable regression gate: packed vs
            // scalar reference (the historical keys) and vectorized vs
            // packed (the new tier's multiplier), each the median round.
            if let Some(packed) = rounds_of(KernelTier::Packed) {
                speedups.push((format!("{name}_d{d}"), median_ratio(&secs[0], packed)));
                if let Some(simd) = rounds_of(KernelTier::Simd) {
                    speedups.push((format!("simd_{name}_d{d}"), median_ratio(packed, simd)));
                }
            }
        }

        // Embedding gather/scatter: the other kernel class the training
        // loop leans on (every batch starts and ends at the item table).
        let table = Tensor::from_vec(sample(&mut rng, GATHER_VOCAB * d), &[GATHER_VOCAB, d]);
        let idx: Vec<usize> = (0..GATHER_ROWS)
            .map(|i| (i.wrapping_mul(2654435761)) % GATHER_VOCAB)
            .collect();
        let bytes_per_call = (GATHER_ROWS * d * std::mem::size_of::<f32>()) as f64;
        let gather_iters = ((byte_budget / bytes_per_call) as usize).clamp(5, 200_000);

        let fwd_secs = time_calls(
            || {
                black_box(table.gather_rows(black_box(&idx)));
            },
            gather_iters,
        );
        let train_table = table.detach().requires_grad();
        let bwd_secs = time_calls(
            || {
                train_table.zero_grad();
                train_table.gather_rows(black_box(&idx)).sum().backward();
            },
            gather_iters,
        );
        let fwd_gbps = bytes_per_call / fwd_secs / 1e9;
        // Forward gather + backward scatter: 2× the bytes per call.
        let bwd_gbps = 2.0 * bytes_per_call / bwd_secs / 1e9;
        println!(
            "  gather d={d}: forward {fwd_gbps:.2} GB/s · gather+scatter {bwd_gbps:.2} GB/s \
             ({GATHER_ROWS} rows from {GATHER_VOCAB})"
        );
        for (kernel, gbps, secs) in [
            ("embedding_gather", fwd_gbps, fwd_secs),
            ("embedding_gather_scatter", bwd_gbps, bwd_secs),
        ] {
            rows.push(JsonValue::object(vec![
                ("experiment", JsonValue::String("kernel_bench".into())),
                ("kernel", JsonValue::String(kernel.into())),
                ("dim", JsonValue::Number(d as f64)),
                ("rows", JsonValue::Number(GATHER_ROWS as f64)),
                ("vocab", JsonValue::Number(GATHER_VOCAB as f64)),
                ("iters", JsonValue::Number(gather_iters as f64)),
                ("gb_per_sec", JsonValue::Number(gbps)),
                ("secs_per_call", JsonValue::Number(secs)),
            ]));
        }
    }

    if args.json {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            embsr_obs::warn!(target: "exp::kernels", "out dir: {e}");
        }
        let git_revision = JsonValue::String(embsr_obs::manifest::git_revision());
        let cores = JsonValue::Number(embsr_obs::manifest::cores_available() as f64);
        let row_file = JsonValue::object(vec![
            ("experiment", JsonValue::String("kernel_bench".into())),
            ("git_revision", git_revision.clone()),
            ("cores_available", cores.clone()),
            ("rows", JsonValue::Array(rows.clone())),
        ]);
        let path = args.out_dir.join("kernels.json");
        if let Err(e) = std::fs::write(&path, row_file.to_json() + "\n") {
            embsr_obs::warn!(target: "exp::kernels", "row write failed: {e}");
        }
        let table = JsonValue::object(vec![
            ("bench", JsonValue::String("kernels".into())),
            ("git_revision", git_revision),
            ("cores_available", cores),
            ("quick", JsonValue::Bool(quick)),
            ("seed", JsonValue::Number(args.seed as f64)),
            ("simd_lanes", JsonValue::Number(kernels::simd_lanes() as f64)),
            ("hardware_fma", JsonValue::Bool(kernels::has_hardware_fma())),
            ("rows", JsonValue::Array(rows)),
        ]);
        let path = std::path::Path::new("BENCH_kernels.json");
        match std::fs::write(path, table.to_json() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => embsr_obs::warn!(target: "exp::kernels", "bench table: {e}"),
        }
    }

    if let Some(path) = write_baseline {
        let base = JsonValue::object(vec![
            ("bench", JsonValue::String("kernels".into())),
            ("tolerance", JsonValue::Number(REGRESSION_TOLERANCE)),
            (
                "note",
                JsonValue::String(
                    "GEMM speedup ratios — `<kernel>_d<d>` packed vs scalar reference, \
                     `simd_<kernel>_d<d>` vectorized vs packed; ratios are compared, \
                     not absolute GFLOP/s, so the check ports across machines"
                        .into(),
                ),
            ),
            (
                "speedup",
                JsonValue::Object(
                    speedups
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                        .collect(),
                ),
            ),
        ]);
        match std::fs::write(&path, base.to_json() + "\n") {
            Ok(()) => println!("wrote baseline {}", path.display()),
            Err(e) => embsr_obs::warn!(target: "exp::kernels", "baseline write: {e}"),
        }
    }

    if let Some(path) = check_baseline {
        match check_against_baseline(&path, &speedups) {
            Ok(summary) => println!("baseline check: {summary}"),
            Err(e) => {
                eprintln!("baseline check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "Shape to verify: the vectorized tier clears 2× over packed at d=128 \
         (simd_gemm_ab_d128 in the baseline) and packed clears 2× over the \
         scalar reference (gemm_ab_d128); gather+scatter moves 2× the bytes \
         of gather alone at similar GB/s."
    );
}

/// Compares measured speedup ratios against the checked-in baseline.
/// Returns a summary line, or an error naming every regressed kernel.
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
            "{checked} speedup ratio(s) within {:.0}% of baseline",
            tolerance * 100.0
        ))
    } else {
        Err(failures.join("; "))
    }
}
