//! Run manifests: one JSON document per (model, dataset) harness run, plus
//! the aggregate `BENCH_*.json` bench-trajectory table.
//!
//! Schema of `results/run_<name>.json` (all numbers JSON numbers; NaN
//! serializes as `null`):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "run": "table3_jd_appliances_embsr",
//!   "dataset": "JD-Appliances", "model": "EMBSR", "scale": "tiny",
//!   "dim": 16, "epochs_requested": 2, "seed": 17, "repeats": 1,
//!   "train_examples": 900, "val_examples": 120, "test_examples": 150,
//!   "num_items": 64, "num_ops": 10,
//!   "epochs": [
//!     {"epoch": 0, "train_loss": 4.1, "val_loss": 4.0,
//!      "duration_s": 0.8, "grad_norm": 2.3, "lr": 0.008}
//!   ],
//!   "best_epoch": 1, "early_stopped": false,
//!   "fit_seconds": 1.7, "eval_seconds": 0.1,
//!   "throughput_examples_per_sec": 1058.8,
//!   "cores_available": 8, "git_revision": "79ba04d…",
//!   "metrics": [{"name": "H@5", "value": 31.2}, …],
//!   "generated_unix_ms": 1754380800000
//! }
//! ```
//!
//! `BENCH_table3.json` is `{"schema_version": 1, "entries": [<manifest>, …]}`
//! keyed by `run`: re-running a cell replaces its entry, so the file tracks
//! the latest state of every cell across harness invocations.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::{parse, JsonValue};
use crate::sink::unix_ms;

/// Statistics of one training epoch, as recorded by the trainer.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    pub epoch: usize,
    pub train_loss: f64,
    pub val_loss: f64,
    pub duration_s: f64,
    /// Pre-clip global gradient norm of the epoch's last batch (NaN when
    /// not measured).
    pub grad_norm: f64,
    pub lr: f64,
}

/// One final evaluation metric, e.g. `("H@5", 31.2)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRecord {
    pub name: String,
    pub value: f64,
}

/// Everything worth keeping about one (model, dataset) harness run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunManifest {
    /// Unique key, also the file name: `run_<run>.json`.
    pub run: String,
    pub dataset: String,
    pub model: String,
    pub scale: String,
    pub dim: usize,
    pub epochs_requested: usize,
    pub seed: u64,
    pub repeats: usize,
    pub train_examples: usize,
    pub val_examples: usize,
    pub test_examples: usize,
    pub num_items: usize,
    pub num_ops: usize,
    pub epochs: Vec<EpochRecord>,
    pub best_epoch: usize,
    pub early_stopped: bool,
    pub fit_seconds: f64,
    pub eval_seconds: f64,
    /// Training throughput: examples seen per wall-clock second of `fit`.
    pub throughput_examples_per_sec: f64,
    /// Logical cores the run could use (see [`cores_available`]); `0` when
    /// not recorded.
    pub cores_available: usize,
    /// Git commit the binary was built from (see [`git_revision`]);
    /// `"unknown"` or `""` when not recorded.
    pub git_revision: String,
    /// Kernel tier the run's inference used (`"packed"` or `"simd"`, as
    /// named by `embsr_tensor::kernels::KernelTier`); `""`
    /// when not recorded. Filled by the caller — this crate sits below the
    /// tensor layer and cannot detect the tier itself.
    pub kernel_tier: String,
    /// Detected f32 SIMD lane width of the build target
    /// (`embsr_tensor::kernels::simd_lanes`): 16 under AVX-512, 8 under
    /// AVX, 4 under SSE2/NEON, 1 scalar; `0` when not recorded.
    pub simd_lanes: usize,
    pub metrics: Vec<MetricRecord>,
}

/// Logical cores available to this process (`1` when undetectable) — the
/// honest-cores figure every manifest records so throughput numbers can be
/// compared across machines.
pub fn cores_available() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The current git commit hash, read straight from `.git` (the workspace
/// has no external dependencies and shells out to nothing). Walks up from
/// the current directory to the first `.git`, follows `HEAD` through one
/// level of `ref:` indirection, and falls back to `packed-refs`. Returns
/// `"unknown"` when anything is missing.
pub fn git_revision() -> String {
    let Ok(start) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    let mut dir: Option<&Path> = Some(start.as_path());
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_git_head(&git);
        }
        if git.is_file() {
            // Worktree: `.git` is a file `gitdir: <path>`.
            if let Ok(text) = std::fs::read_to_string(&git) {
                if let Some(target) = text.trim().strip_prefix("gitdir:") {
                    return read_git_head(&d.join(target.trim()));
                }
            }
            return "unknown".to_string();
        }
        dir = d.parent();
    }
    "unknown".to_string()
}

fn read_git_head(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref:") else {
        // Detached HEAD: the hash itself.
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    let refname = refname.trim();
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(refname)) {
        let hash = hash.trim();
        if !hash.is_empty() {
            return hash.to_string();
        }
    }
    // Ref not unpacked: look it up in packed-refs (`<hash> <refname>`).
    if let Ok(packed) = std::fs::read_to_string(git_dir.join("packed-refs")) {
        for line in packed.lines() {
            let line = line.trim();
            if line.starts_with('#') || line.starts_with('^') {
                continue;
            }
            if let Some((hash, name)) = line.split_once(' ') {
                if name.trim() == refname {
                    return hash.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// Lower-cases and squashes a string into a `[a-z0-9_]+` file-name key.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_us = true; // suppress leading underscores
    for c in name.chars() {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() {
            out.push(c);
            last_us = false;
        } else if !last_us {
            out.push('_');
            last_us = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

fn num(v: Option<&JsonValue>) -> f64 {
    v.and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn text(v: Option<&JsonValue>) -> String {
    v.and_then(JsonValue::as_str).unwrap_or_default().to_string()
}

impl RunManifest {
    /// The manifest as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema_version", 1u64.into()),
            ("run", self.run.as_str().into()),
            ("dataset", self.dataset.as_str().into()),
            ("model", self.model.as_str().into()),
            ("scale", self.scale.as_str().into()),
            ("dim", self.dim.into()),
            ("epochs_requested", self.epochs_requested.into()),
            ("seed", self.seed.into()),
            ("repeats", self.repeats.into()),
            ("train_examples", self.train_examples.into()),
            ("val_examples", self.val_examples.into()),
            ("test_examples", self.test_examples.into()),
            ("num_items", self.num_items.into()),
            ("num_ops", self.num_ops.into()),
            (
                "epochs",
                JsonValue::Array(
                    self.epochs
                        .iter()
                        .map(|e| {
                            JsonValue::object(vec![
                                ("epoch", e.epoch.into()),
                                ("train_loss", e.train_loss.into()),
                                ("val_loss", e.val_loss.into()),
                                ("duration_s", e.duration_s.into()),
                                ("grad_norm", e.grad_norm.into()),
                                ("lr", e.lr.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("best_epoch", self.best_epoch.into()),
            ("early_stopped", self.early_stopped.into()),
            ("fit_seconds", self.fit_seconds.into()),
            ("eval_seconds", self.eval_seconds.into()),
            (
                "throughput_examples_per_sec",
                self.throughput_examples_per_sec.into(),
            ),
            ("cores_available", self.cores_available.into()),
            ("git_revision", self.git_revision.as_str().into()),
            ("kernel_tier", self.kernel_tier.as_str().into()),
            ("simd_lanes", self.simd_lanes.into()),
            (
                "metrics",
                JsonValue::Array(
                    self.metrics
                        .iter()
                        .map(|m| {
                            JsonValue::object(vec![
                                ("name", m.name.as_str().into()),
                                ("value", m.value.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("generated_unix_ms", unix_ms().into()),
        ])
    }

    /// Compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Rebuilds a manifest from its JSON form (missing numeric fields come
    /// back as NaN / 0, missing strings as `""`).
    pub fn from_json_value(v: &JsonValue) -> Result<RunManifest, String> {
        if v.get("run").is_none() {
            return Err("not a run manifest: missing 'run'".into());
        }
        let epochs = v
            .get("epochs")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(|e| EpochRecord {
                epoch: num(e.get("epoch")) as usize,
                train_loss: num(e.get("train_loss")),
                val_loss: num(e.get("val_loss")),
                duration_s: num(e.get("duration_s")),
                grad_norm: num(e.get("grad_norm")),
                lr: num(e.get("lr")),
            })
            .collect();
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricRecord {
                name: text(m.get("name")),
                value: num(m.get("value")),
            })
            .collect();
        Ok(RunManifest {
            run: text(v.get("run")),
            dataset: text(v.get("dataset")),
            model: text(v.get("model")),
            scale: text(v.get("scale")),
            dim: num(v.get("dim")) as usize,
            epochs_requested: num(v.get("epochs_requested")) as usize,
            seed: num(v.get("seed")) as u64,
            repeats: num(v.get("repeats")) as usize,
            train_examples: num(v.get("train_examples")) as usize,
            val_examples: num(v.get("val_examples")) as usize,
            test_examples: num(v.get("test_examples")) as usize,
            num_items: num(v.get("num_items")) as usize,
            num_ops: num(v.get("num_ops")) as usize,
            epochs,
            best_epoch: num(v.get("best_epoch")) as usize,
            early_stopped: v
                .get("early_stopped")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            fit_seconds: num(v.get("fit_seconds")),
            eval_seconds: num(v.get("eval_seconds")),
            throughput_examples_per_sec: num(v.get("throughput_examples_per_sec")),
            cores_available: {
                let n = num(v.get("cores_available"));
                if n.is_nan() { 0 } else { n as usize }
            },
            git_revision: text(v.get("git_revision")),
            kernel_tier: text(v.get("kernel_tier")),
            simd_lanes: {
                let n = num(v.get("simd_lanes"));
                if n.is_nan() { 0 } else { n as usize }
            },
            metrics,
        })
    }

    /// Writes `run_<run>.json` into `dir` (created if missing) and returns
    /// the path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("run_{}.json", sanitize(&self.run)));
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// Inserts or replaces `manifest` in the aggregate bench table at `path`
/// (`BENCH_table3.json`-style). Entries are keyed by `run` and kept sorted
/// by `(dataset, model)` so reruns produce stable diffs.
pub fn append_bench_entry(path: &Path, manifest: &RunManifest) -> io::Result<()> {
    let mut entries: Vec<JsonValue> = match std::fs::read_to_string(path) {
        Ok(text) => parse(&text)
            .ok()
            .and_then(|v| v.get("entries").and_then(JsonValue::as_array).map(<[JsonValue]>::to_vec))
            .unwrap_or_default(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.retain(|e| e.get("run").and_then(JsonValue::as_str) != Some(manifest.run.as_str()));
    entries.push(manifest.to_json_value());
    entries.sort_by_key(|e| {
        (
            text(e.get("dataset")),
            text(e.get("model")),
            text(e.get("run")),
        )
    });
    let doc = JsonValue::object(vec![
        ("schema_version", 1u64.into()),
        ("generated_unix_ms", unix_ms().into()),
        ("entries", JsonValue::Array(entries)),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_json() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(run: &str, dataset: &str, model: &str) -> RunManifest {
        RunManifest {
            run: run.into(),
            dataset: dataset.into(),
            model: model.into(),
            scale: "tiny".into(),
            dim: 16,
            epochs_requested: 2,
            seed: 17,
            repeats: 1,
            train_examples: 900,
            val_examples: 120,
            test_examples: 150,
            num_items: 64,
            num_ops: 10,
            epochs: vec![
                EpochRecord {
                    epoch: 0,
                    train_loss: 4.5,
                    val_loss: 4.25,
                    duration_s: 0.5,
                    grad_norm: 2.0,
                    lr: 0.008,
                },
                EpochRecord {
                    epoch: 1,
                    train_loss: 3.5,
                    val_loss: 3.75,
                    duration_s: 0.25,
                    grad_norm: 1.5,
                    lr: 0.008,
                },
            ],
            best_epoch: 1,
            early_stopped: false,
            fit_seconds: 0.75,
            eval_seconds: 0.125,
            throughput_examples_per_sec: 2400.0,
            cores_available: 8,
            git_revision: "0123abcd".into(),
            kernel_tier: "simd".into(),
            simd_lanes: 8,
            metrics: vec![
                MetricRecord {
                    name: "H@5".into(),
                    value: 31.25,
                },
                MetricRecord {
                    name: "M@5".into(),
                    value: 14.5,
                },
            ],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("embsr_obs_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = sample("t3_jd_embsr", "JD-Appliances", "EMBSR");
        let parsed = parse(&m.to_json()).unwrap();
        let back = RunManifest::from_json_value(&parsed).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn environment_helpers_report_sane_values() {
        assert!(cores_available() >= 1);
        let rev = git_revision();
        assert!(!rev.is_empty());
        // In this repo's checkout the revision should be a real hash, but
        // the helper must never fail outright elsewhere either.
        assert!(rev == "unknown" || rev.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn sanitize_flattens_names() {
        assert_eq!(sanitize("JD-Appliances EMBSR (full)"), "jd_appliances_embsr_full");
        assert_eq!(sanitize("--x--"), "x");
        assert_eq!(sanitize("SR-GNN"), "sr_gnn");
    }

    #[test]
    fn write_creates_run_file() {
        let dir = tmpdir("write");
        let m = sample("Write Test", "D", "M");
        let path = m.write(&dir).unwrap();
        assert!(path.ends_with("run_write_test.json"));
        let v = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("M"));
        assert_eq!(
            v.get("epochs").unwrap().as_array().unwrap()[0]
                .get("duration_s")
                .unwrap()
                .as_f64(),
            Some(0.5)
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bench_table_upserts_by_run_key() {
        let dir = tmpdir("bench");
        let path = dir.join("BENCH_test.json");
        append_bench_entry(&path, &sample("b", "D2", "M1")).unwrap();
        append_bench_entry(&path, &sample("a", "D1", "M2")).unwrap();
        // replace entry "b" with new numbers
        let mut b2 = sample("b", "D2", "M1");
        b2.fit_seconds = 9.0;
        append_bench_entry(&path, &b2).unwrap();

        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        // sorted by (dataset, model): D1 first
        assert_eq!(entries[0].get("dataset").unwrap().as_str(), Some("D1"));
        assert_eq!(entries[1].get("fit_seconds").unwrap().as_f64(), Some(9.0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bench_table_survives_corrupt_file() {
        let dir = tmpdir("corrupt");
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, "not json at all").unwrap();
        append_bench_entry(&path, &sample("x", "D", "M")).unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("entries").unwrap().as_array().unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
