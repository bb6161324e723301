//! embsr-analyze: the in-tree determinism & concurrency static-analysis
//! pass (an in-tree lexer + brace-tree IR, no `syn`).
//!
//! ```text
//! cargo run -p xtask -- lint                     # run all rules, exit 1 on violation
//! cargo run -p xtask -- lint --json              # machine-readable findings on stdout
//! cargo run -p xtask -- lint --update-baseline   # rewrite crates/xtask/baselines.txt
//! cargo run -p xtask -- lint --root <dir>        # lint another workspace (tests/fixtures)
//! ```
//!
//! Rules (all dependency-free, built on the stripped-source token stream):
//!
//! * `no-panic-ratchet` — no `.unwrap()`/`.expect()`/`panic!`/`todo!`/
//!   `unimplemented!` in production code, ratcheted per file;
//! * `no-external-deps` — every manifest dependency is an in-tree path;
//! * `no-timing-outside-obs` — wall-clock reads only in `crates/obs`;
//! * `gradcheck-coverage` — every `crates/tensor/src/ops/*.rs` has a
//!   finite-difference entry in the gradcheck registry;
//! * `nn-forward-unification` — no new ad-hoc `pub fn forward` in
//!   `crates/nn`; forward passes implement the `Forward` trait;
//! * `doc-public-items` — public items in `tensor`/`nn` carry doc comments;
//! * `serve-span-coverage` — public entry points in the serving-path
//!   crates (`crates/serve`, `crates/net`) open an obs span (or record
//!   trace/metrics), ratcheted per file;
//! * `map-iteration-determinism` — HashMap/HashSet iteration in production
//!   code must sort, rebuild into a BTree container, reduce to a
//!   cardinality, or justify with `// det:`; ratcheted per file;
//! * `float-reduction-order` — element-wise f32 accumulation in
//!   `crates/train` routes through the fixed-order `tree_reduce` (escape:
//!   `// reduce:`);
//! * `lock-discipline` — Condvar waits re-check in a `loop`/`while`; no
//!   double-lock of one mutex while its guard is live; no guard held
//!   across a pool worker/spawn boundary (escape: `// lock:`);
//! * `atomics-ordering-audit` — every `Ordering::` site carries a
//!   justifying `// ordering:` comment; `SeqCst` must be named in it;
//! * `no-unsafe-ratchet` — the workspace is pinned at zero of the keyword
//!   this rule bans;
//! * `crate-layering` — manifest deps and `embsr_*` source references obey
//!   the DESIGN.md layer DAG (`depgraph::LAYERS`); cycles are rejected.
//!
//! The three ratcheted rules share one checked-in baseline,
//! `crates/xtask/baselines.txt` (`<rule> <count> <path>` lines), rewritten
//! as a whole by `--update-baseline`.

mod baseline;
mod depgraph;
mod ir;
mod lexer;
mod rules;
mod scanner;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use embsr_obs::JsonValue;
use ir::FileIr;
use rules::{Finding, SourceFile};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

/// Entry point; returns `Ok(true)` when the lint passes.
fn run(args: &[String]) -> Result<bool, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Err(
            "usage: cargo run -p xtask -- lint [--update-baseline] [--json] [--root <dir>]".into(),
        );
    };
    if cmd != "lint" {
        return Err(format!("unknown command `{cmd}`; the only command is `lint`"));
    }
    let mut update_baseline = false;
    let mut json = false;
    let mut root_override: Option<PathBuf> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--update-baseline" => update_baseline = true,
            "--json" => json = true,
            "--root" => {
                let dir = it.next().ok_or("--root takes a directory")?;
                root_override = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let root = match root_override {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    lint(&root, update_baseline, json)
}

/// Walks up from the current directory to the manifest containing
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let content = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if content.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root (Cargo.toml with [workspace]) above cwd".into());
        }
    }
}

/// Runs every rule over the workspace at `root`; prints findings and
/// returns `Ok(true)` when no errors were found.
fn lint(root: &Path, update_baseline: bool, json: bool) -> Result<bool, String> {
    let mut rs_files = Vec::new();
    let mut manifests = vec!["Cargo.toml".to_string()];
    collect(root, Path::new(""), &mut rs_files, &mut manifests)?;
    rs_files.sort();
    manifests.sort();

    let mut sources = Vec::with_capacity(rs_files.len());
    for rel in &rs_files {
        sources.push(SourceFile::load(root, rel)?);
    }
    let irs: Vec<FileIr> = sources.iter().map(|s| FileIr::build(&s.stripped)).collect();

    if update_baseline {
        let panics = rules::panic_counts(&sources);
        let spans = rules::span_counts(&sources);
        let maps = rules::map_iteration_counts(&sources, &irs);
        baseline::save(
            root,
            &[
                ("no-panic-ratchet", &panics),
                ("serve-span-coverage", &spans),
                ("map-iteration-determinism", &maps),
            ],
        )?;
        println!(
            "xtask: baseline rewritten: {} panic / {} span / {} map-iteration entries",
            panics.len(),
            spans.len(),
            maps.len()
        );
    }
    let baselines = baseline::load(root)?;
    let panic_base = baseline::for_rule(&baselines, "no-panic-ratchet");
    let span_base = baseline::for_rule(&baselines, "serve-span-coverage");
    let map_base = baseline::for_rule(&baselines, "map-iteration-determinism");

    let mut findings: Vec<Finding> = Vec::new();
    findings.extend(rules::rule_no_panic_ratchet(&sources, &panic_base));
    findings.extend(rules::rule_no_external_deps(root, &manifests));
    findings.extend(rules::rule_no_timing_outside_obs(&sources));
    findings.extend(rules::rule_gradcheck_coverage(root));
    findings.extend(rules::rule_nn_forward_unification(&sources));
    findings.extend(rules::rule_doc_public_items(&sources));
    findings.extend(rules::rule_serve_span_coverage(&sources, &span_base));
    findings.extend(rules::rule_map_iteration_determinism(&sources, &irs, &map_base));
    findings.extend(rules::rule_float_reduction_order(&sources, &irs));
    findings.extend(rules::rule_lock_discipline(&sources, &irs));
    findings.extend(rules::rule_atomics_ordering_audit(&sources, &irs));
    findings.extend(rules::rule_no_unsafe_ratchet(&sources));
    findings.extend(rules::rule_crate_layering(root, &manifests, &sources, &irs));

    let errors = findings.iter().filter(|f| f.is_error).count();
    if json {
        println!(
            "{}",
            findings_json(&findings, sources.len(), manifests.len(), errors).to_json()
        );
        return Ok(errors == 0);
    }
    for f in &findings {
        if f.is_error {
            println!("{f}");
        } else {
            eprintln!("{f}");
        }
    }
    println!(
        "xtask lint: {} file(s), {} manifest(s), {} error(s), {} note(s)",
        sources.len(),
        manifests.len(),
        errors,
        findings.len() - errors
    );
    Ok(errors == 0)
}

/// The `--json` payload: every finding plus summary counts, rendered with
/// the in-tree JSON writer (BTreeMap-backed objects keep it diffable).
fn findings_json(
    findings: &[Finding],
    files: usize,
    manifests: usize,
    errors: usize,
) -> JsonValue {
    let rows: Vec<JsonValue> = findings
        .iter()
        .map(|f| {
            JsonValue::object(vec![
                ("rule", JsonValue::String(f.rule.to_string())),
                ("file", JsonValue::String(f.path.clone())),
                ("line", JsonValue::Number(f.line as f64)),
                (
                    "level",
                    JsonValue::String(if f.is_error { "error" } else { "note" }.to_string()),
                ),
                ("message", JsonValue::String(f.message.clone())),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("findings", JsonValue::Array(rows)),
        (
            "summary",
            JsonValue::object(vec![
                ("files", JsonValue::Number(files as f64)),
                ("manifests", JsonValue::Number(manifests as f64)),
                ("errors", JsonValue::Number(errors as f64)),
                ("notes", JsonValue::Number((findings.len() - errors) as f64)),
            ]),
        ),
    ])
}

/// True when `dir` holds a manifest declaring its own `[workspace]` table.
/// Cargo never makes such a package a member of an enclosing workspace, so
/// it is outside the workspace being linted and its rules do not apply.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively collects `.rs` files and `Cargo.toml` manifests, skipping
/// build output, VCS metadata, lint fixtures, and packages that are not
/// members of the workspace being linted (see [`is_own_workspace`]).
fn collect(
    root: &Path,
    rel: &Path,
    rs_files: &mut Vec<String>,
    manifests: &mut Vec<String>,
) -> Result<(), String> {
    let dir = root.join(rel);
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let sub = if rel.as_os_str().is_empty() {
            PathBuf::from(&name)
        } else {
            rel.join(&name)
        };
        let path = root.join(&sub);
        if path.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | "fixtures" | "results" | "node_modules")
                || is_own_workspace(&path)
            {
                continue;
            }
            collect(root, &sub, rs_files, manifests)?;
        } else if name.ends_with(".rs") {
            rs_files.push(sub.to_string_lossy().replace('\\', "/"));
        } else if name == "Cargo.toml" && !rel.as_os_str().is_empty() {
            manifests.push(sub.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}
