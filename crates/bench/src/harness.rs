//! Shared machinery for the experiment binaries.

use std::path::PathBuf;

use embsr_baselines::{build_baseline, BaselineKind};
use embsr_core::{Embsr, EmbsrConfig};
use embsr_datasets::{build_dataset, Dataset, DatasetPreset, SyntheticConfig};
use embsr_eval::{evaluate, run_parallel, Evaluation, ResultsTable};
use embsr_obs::manifest::{append_bench_entry, EpochRecord, MetricRecord, RunManifest};
use embsr_train::{NeuralRecommender, Recommender, TrainConfig};

/// Experiment size: controls corpus, embedding dim and epochs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Smoke-test size (CI, integration tests): seconds.
    Tiny,
    /// Default size: minutes on a laptop.
    Small,
    /// Full synthetic scale: tens of minutes.
    Full,
}

impl Scale {
    /// Lower-case name, used in CLI flags and run manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    fn dataset_factor(&self) -> f32 {
        match self {
            Scale::Tiny => 0.08,
            Scale::Small => 0.3,
            Scale::Full => 1.0,
        }
    }

    fn default_dim(&self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 24,
            Scale::Full => 48,
        }
    }

    fn default_epochs(&self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Small => 10,
            Scale::Full => 14,
        }
    }
}

/// Parsed command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    pub scale: Scale,
    pub threads: usize,
    /// `--train-threads`: the largest thread count `exp_parallel_scaling`
    /// sweeps its data-parallel trainer over. No other binary reads it:
    /// [`HarnessArgs::train_config`] leaves `TrainConfig::train_threads` at
    /// its default, and the table and figure binaries train through
    /// `NeuralRecommender::fit`, which runs the sequential `Trainer`.
    pub train_threads: usize,
    pub dim: usize,
    pub epochs: usize,
    pub seed: u64,
    /// Number of independent training runs averaged per table cell.
    pub repeats: usize,
    /// When set, overrides the per-model learning rate (`--lr`).
    pub lr_override: Option<f32>,
    /// `--quiet`: suppress progress logging (console sink drops below warn).
    pub quiet: bool,
    /// `--json`: write a `run_<name>.json` manifest per cell plus the
    /// aggregate bench table, and enable the metrics registry.
    pub json: bool,
    /// Directory for per-run manifests (`--out-dir`, default `results`).
    pub out_dir: PathBuf,
    /// Path of the aggregate bench table (`--bench-json`, default
    /// `BENCH_table3.json`).
    pub bench_json: PathBuf,
}

impl Default for HarnessArgs {
    /// Small-scale defaults matching `parse_args` with no flags, except
    /// `threads`, which defaults to 2 instead of the machine's core count
    /// (tests construct args via `..Default::default()`).
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Small,
            threads: 2,
            train_threads: 4,
            dim: Scale::Small.default_dim(),
            epochs: Scale::Small.default_epochs(),
            seed: 17,
            repeats: 1,
            lr_override: None,
            quiet: false,
            json: false,
            out_dir: PathBuf::from("results"),
            bench_json: PathBuf::from("BENCH_table3.json"),
        }
    }
}

/// Parses `std::env::args`-style flags (see crate docs for the list).
pub fn parse_args() -> HarnessArgs {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = match get("--scale").as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("full") => Scale::Full,
        Some("small") | None => Scale::Small,
        Some(other) => panic!("unknown --scale {other}; use tiny|small|full"),
    };
    let threads = get("--threads")
        .map(|s| s.parse().expect("--threads takes a number"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let parsed = HarnessArgs {
        scale,
        threads,
        train_threads: get("--train-threads")
            .map(|s| s.parse().expect("--train-threads takes a number"))
            .unwrap_or(4),
        dim: get("--dim")
            .map(|s| s.parse().expect("--dim takes a number"))
            .unwrap_or_else(|| scale.default_dim()),
        epochs: get("--epochs")
            .map(|s| s.parse().expect("--epochs takes a number"))
            .unwrap_or_else(|| scale.default_epochs()),
        seed: get("--seed")
            .map(|s| s.parse().expect("--seed takes a number"))
            .unwrap_or(17),
        repeats: get("--repeats")
            .map(|s| s.parse().expect("--repeats takes a number"))
            .unwrap_or(1),
        lr_override: get("--lr").map(|s| s.parse().expect("--lr takes a number")),
        quiet: has("--quiet"),
        json: has("--json"),
        out_dir: get("--out-dir").map_or_else(|| PathBuf::from("results"), PathBuf::from),
        bench_json: get("--bench-json")
            .map_or_else(|| PathBuf::from("BENCH_table3.json"), PathBuf::from),
    };
    parsed.init_telemetry();
    parsed
}

impl HarnessArgs {
    /// Wires up telemetry from the parsed flags: `EMBSR_LOG` configures the
    /// console sink (done lazily by the dispatcher), `--quiet` raises the
    /// console threshold to warn, and `--json` turns the metrics registry on
    /// so manifests can snapshot op counters.
    pub fn init_telemetry(&self) {
        embsr_obs::init_from_env("EMBSR_LOG", "info");
        if self.quiet {
            embsr_obs::set_console_filter("warn".parse().expect("static filter"));
        }
        if self.json {
            embsr_obs::metrics::set_enabled(true);
        }
    }

    /// Dataset for a preset at this scale.
    pub fn dataset(&self, preset: DatasetPreset) -> Dataset {
        let cfg = SyntheticConfig::preset(preset).scaled(self.scale.dataset_factor());
        build_dataset(&cfg)
    }

    /// The shared training configuration.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: 64,
            lr: 8e-3,
            seed: self.seed,
            val_fraction: 0.5,
            ..TrainConfig::default()
        }
    }
}

/// EMBSR model variants (paper Secs. V-C/D/E/F and the supplement).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EmbsrVariant {
    Full,
    NoSelfAttention,
    NoGnn,
    NoFusion,
    SgnnSelf,
    SgnnSeqSelf,
    RnnSelf,
    SgnnAbsSelf,
    SgnnDyadic,
    FixedBeta(f32),
    /// The future-work extension: learned per-operation importance.
    OpWeighted,
}

impl EmbsrVariant {
    /// Builds the variant's configuration.
    pub fn config(&self, num_items: usize, num_ops: usize, dim: usize) -> EmbsrConfig {
        match *self {
            EmbsrVariant::Full => EmbsrConfig::full(num_items, num_ops, dim),
            EmbsrVariant::NoSelfAttention => EmbsrConfig::ablation_ns(num_items, num_ops, dim),
            EmbsrVariant::NoGnn => EmbsrConfig::ablation_ng(num_items, num_ops, dim),
            EmbsrVariant::NoFusion => EmbsrConfig::ablation_nf(num_items, num_ops, dim),
            EmbsrVariant::SgnnSelf => EmbsrConfig::sgnn_self(num_items, num_ops, dim),
            EmbsrVariant::SgnnSeqSelf => EmbsrConfig::sgnn_seq_self(num_items, num_ops, dim),
            EmbsrVariant::RnnSelf => EmbsrConfig::rnn_self(num_items, num_ops, dim),
            EmbsrVariant::SgnnAbsSelf => EmbsrConfig::sgnn_abs_self(num_items, num_ops, dim),
            EmbsrVariant::SgnnDyadic => EmbsrConfig::sgnn_dyadic(num_items, num_ops, dim),
            EmbsrVariant::FixedBeta(b) => EmbsrConfig::fixed_beta(num_items, num_ops, dim, b),
            EmbsrVariant::OpWeighted => EmbsrConfig::full_op_weighted(num_items, num_ops, dim),
        }
    }
}

/// A model column in an experiment table.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ModelSpec {
    Baseline(BaselineKind),
    Embsr(EmbsrVariant),
}

impl ModelSpec {
    /// The Table III column list: 11 baselines + EMBSR.
    pub fn table3() -> Vec<ModelSpec> {
        let mut specs: Vec<ModelSpec> = BaselineKind::table3()
            .into_iter()
            .map(ModelSpec::Baseline)
            .collect();
        specs.push(ModelSpec::Embsr(EmbsrVariant::Full));
        specs
    }
}

/// Per-model learning rate, standing in for the paper's per-model grid
/// search over [0.001, 0.01]. Values were selected on validation data at
/// `--scale small`; see EXPERIMENTS.md.
pub fn learning_rate(spec: ModelSpec) -> f32 {
    match spec {
        // hierarchical GRUs converge slowly; the grid's top value
        ModelSpec::Baseline(BaselineKind::Hup) => 1.2e-2,
        _ => 8e-3,
    }
}

/// Builds an untrained recommender for a spec against a dataset.
pub fn build_recommender(spec: ModelSpec, dataset: &Dataset, args: &HarnessArgs) -> Box<dyn Recommender> {
    let mut cfg = args.train_config();
    cfg.lr = args.lr_override.unwrap_or_else(|| learning_rate(spec));
    match spec {
        ModelSpec::Baseline(kind) => build_baseline(
            kind,
            dataset.num_items,
            dataset.num_ops,
            args.dim,
            args.seed,
            &cfg,
        ),
        ModelSpec::Embsr(variant) => {
            let mut mc = variant.config(dataset.num_items, dataset.num_ops, args.dim);
            mc.seed = args.seed;
            mc.max_len = cfg.max_session_len;
            Box::new(NeuralRecommender::new(Embsr::new(mc), cfg))
        }
    }
}

/// Serializes concurrent read-modify-write cycles on the aggregate bench
/// table when `run_table` fills cells from worker threads.
static BENCH_TABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Trains and evaluates one (model, dataset) cell. When `args.repeats > 1`
/// the cell is retrained with derived seeds and the H@K / M@K metrics are
/// averaged (per-session ranks are kept from the first run so significance
/// tests stay paired).
///
/// With `args.json` the cell additionally writes a run manifest to
/// `args.out_dir` and upserts itself into the `args.bench_json` table;
/// timing and per-epoch statistics come from the first repeat.
pub fn run_cell(spec: ModelSpec, dataset: &Dataset, ks: &[usize], args: &HarnessArgs) -> Evaluation {
    let cell_span = embsr_obs::span("embsr_bench", "run_cell");
    let repeats = args.repeats.max(1);
    let mut first: Option<Evaluation> = None;
    let mut hit_acc = vec![0.0f64; ks.len()];
    let mut mrr_acc = vec![0.0f64; ks.len()];
    let mut model_name = String::new();
    let mut fit_seconds = 0.0f64;
    let mut eval_seconds = 0.0f64;
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut best_epoch = 0usize;
    let mut early_stopped = false;
    for r in 0..repeats {
        let run_args = HarnessArgs {
            seed: args.seed + 1000 * r as u64,
            ..args.clone()
        };
        let mut rec = build_recommender(spec, dataset, &run_args);
        let fit_span = embsr_obs::span("embsr_bench", "fit");
        rec.fit(&dataset.train, &dataset.val);
        let fit_s = fit_span.elapsed().as_secs_f64();
        drop(fit_span);
        let eval_span = embsr_obs::span("embsr_bench", "evaluate");
        let e = evaluate(rec.as_ref(), &dataset.test, ks);
        let eval_s = eval_span.elapsed().as_secs_f64();
        drop(eval_span);
        if r == 0 {
            model_name = rec.name().to_string();
            fit_seconds = fit_s;
            eval_seconds = eval_s;
            if let Some(report) = rec.train_report() {
                epochs = report
                    .epochs
                    .iter()
                    .map(|s| EpochRecord {
                        epoch: s.epoch,
                        train_loss: s.train_loss as f64,
                        val_loss: s.val_loss as f64,
                        duration_s: s.duration_s,
                        grad_norm: s.grad_norm as f64,
                        lr: s.lr as f64,
                    })
                    .collect();
                best_epoch = report.best_epoch;
                early_stopped = report.early_stopped;
            }
        }
        for (a, v) in hit_acc.iter_mut().zip(&e.hit) {
            *a += v;
        }
        for (a, v) in mrr_acc.iter_mut().zip(&e.mrr) {
            *a += v;
        }
        first.get_or_insert(e);
    }
    let mut out = first.expect("repeats >= 1");
    out.hit = hit_acc.iter().map(|v| v / repeats as f64).collect();
    out.mrr = mrr_acc.iter().map(|v| v / repeats as f64).collect();
    embsr_obs::info!(
        target: "embsr_bench",
        "cell {} × {}: H@20={:.2} fit={:.2}s eval={:.2}s",
        dataset.name,
        model_name,
        out.hit.last().copied().unwrap_or(f64::NAN),
        fit_seconds,
        eval_seconds
    );
    if args.json {
        // Examples seen per second of training: one pass for the non-neural
        // methods, one per completed epoch otherwise.
        let passes = epochs.len().max(1) as f64;
        let manifest = RunManifest {
            run: embsr_obs::manifest::sanitize(&format!("{}_{}", dataset.name, model_name)),
            dataset: dataset.name.clone(),
            model: model_name,
            scale: args.scale.name().to_string(),
            dim: args.dim,
            epochs_requested: args.epochs,
            seed: args.seed,
            repeats,
            train_examples: dataset.train.len(),
            val_examples: dataset.val.len(),
            test_examples: dataset.test.len(),
            num_items: dataset.num_items,
            num_ops: dataset.num_ops,
            epochs,
            best_epoch,
            early_stopped,
            fit_seconds,
            eval_seconds,
            throughput_examples_per_sec: dataset.train.len() as f64 * passes
                / fit_seconds.max(1e-9),
            cores_available: embsr_obs::manifest::cores_available(),
            git_revision: embsr_obs::manifest::git_revision(),
            // harness runs train + evaluate on the bitwise training tier;
            // serving benches record "simd" instead
            kernel_tier: embsr_tensor::kernels::active_tier().name().to_string(),
            simd_lanes: embsr_tensor::kernels::simd_lanes(),
            metrics: ks
                .iter()
                .enumerate()
                .flat_map(|(i, &k)| {
                    [
                        MetricRecord {
                            name: format!("H@{k}"),
                            value: out.hit[i],
                        },
                        MetricRecord {
                            name: format!("M@{k}"),
                            value: out.mrr[i],
                        },
                    ]
                })
                .collect(),
        };
        let _guard = BENCH_TABLE_LOCK.lock().expect("bench table lock");
        match manifest.write(&args.out_dir) {
            Ok(path) => embsr_obs::debug!(
                target: "embsr_bench",
                "wrote manifest {}",
                path.display()
            ),
            Err(e) => embsr_obs::warn!(target: "embsr_bench", "manifest write failed: {e}"),
        }
        if let Err(e) = append_bench_entry(&args.bench_json, &manifest) {
            embsr_obs::warn!(target: "embsr_bench", "bench table update failed: {e}");
        }
    }
    drop(cell_span);
    out
}

/// Fills a whole table (one dataset, many models) in parallel.
pub fn run_table(
    dataset: &Dataset,
    specs: &[ModelSpec],
    ks: &[usize],
    args: &HarnessArgs,
) -> ResultsTable {
    let _span = embsr_obs::span("embsr_bench", "run_table");
    embsr_obs::info!(
        target: "embsr_bench",
        "table {}: {} models on {} threads",
        dataset.name,
        specs.len(),
        args.threads
    );
    let jobs: Vec<_> = specs
        .iter()
        .map(|&spec| {
            let args = args.clone();
            move || run_cell(spec, dataset, ks, &args)
        })
        .collect();
    let evaluations = run_parallel(jobs, args.threads);
    ResultsTable::new(&dataset.name, ks, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> HarnessArgs {
        HarnessArgs {
            scale: Scale::Tiny,
            threads: 2,
            train_threads: 2,
            dim: 8,
            epochs: 1,
            seed: 3,
            repeats: 1,
            lr_override: None,
            quiet: true,
            json: false,
            out_dir: PathBuf::from("results"),
            bench_json: PathBuf::from("BENCH_table3.json"),
        }
    }

    #[test]
    fn dataset_builds_at_tiny_scale() {
        let d = tiny_args().dataset(DatasetPreset::JdAppliances);
        assert!(d.train.len() > 50, "train too small: {}", d.train.len());
        assert!(d.num_items > 10);
    }

    #[test]
    fn run_cell_works_for_nonneural_and_embsr() {
        let args = tiny_args();
        let d = args.dataset(DatasetPreset::JdAppliances);
        let e1 = run_cell(ModelSpec::Baseline(BaselineKind::SPop), &d, &[5, 10], &args);
        assert_eq!(e1.ks, vec![5, 10]);
        assert!(e1.hit_at(10) >= e1.hit_at(5));
        let e2 = run_cell(ModelSpec::Embsr(EmbsrVariant::Full), &d, &[5, 10], &args);
        assert!(e2.hit_at(10) >= 0.0);
    }

    #[test]
    fn table3_has_twelve_columns() {
        assert_eq!(ModelSpec::table3().len(), 12);
        assert_eq!(
            *ModelSpec::table3().last().unwrap(),
            ModelSpec::Embsr(EmbsrVariant::Full)
        );
    }
}
