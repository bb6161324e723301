//! End-to-end tests for `cargo run -p xtask -- lint`: the real workspace
//! must pass clean, and the seeded violation fixture must fail with named
//! rules and file:line locations.

use std::path::PathBuf;
use std::process::Command;

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lint_passes_on_the_real_workspace() {
    let root = manifest_dir().join("../..");
    let out = xtask()
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("xtask binary must run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lint must pass on the workspace:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn lint_fails_on_seeded_violations_with_rule_and_location() {
    let fixture = manifest_dir().join("fixtures/bad_workspace");
    let out = xtask()
        .args(["lint", "--root"])
        .arg(&fixture)
        .output()
        .expect("xtask binary must run");
    assert!(
        !out.status.success(),
        "lint must fail on the violation fixture"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Each violation is reported with its rule name and file:line.
    assert!(
        stdout.contains("error[no-panic-ratchet]: pkg/src/lib.rs:7"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[no-timing-outside-obs]: pkg/src/lib.rs:6"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[no-external-deps]: pkg/Cargo.toml:8"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[nn-forward-unification]: crates/nn/src/block.rs:5"),
        "{stdout}"
    );
    // The uninstrumented serve entry point is flagged; the instrumented
    // decoy in the same file must not add a second count.
    assert!(
        stdout.contains("error[serve-span-coverage]: crates/serve/src/lib.rs:5"),
        "{stdout}"
    );
    assert!(
        stdout.contains("1 public fn(s) without an obs span"),
        "{stdout}"
    );
    // The ratchet covers the networked-serving crate too: its seeded
    // uninstrumented entry point is flagged, its instrumented decoy is not.
    assert!(
        stdout.contains("error[serve-span-coverage]: crates/net/src/lib.rs:8"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("error[serve-span-coverage]").count(), 2, "{stdout}");
    // Decoys (string literal, comment, #[cfg(test)] body) must not add
    // extra panic findings: exactly one panic construct is counted.
    assert!(stdout.contains("1 panicking construct(s)"), "{stdout}");

    // --- the determinism & concurrency rules ---

    // Hash-order iteration leaks; the sorted-drain and `.count()` decoys
    // in the same file must not add to the count.
    assert!(
        stdout.contains("error[map-iteration-determinism]: crates/baselines/src/knn.rs:9"),
        "{stdout}"
    );
    assert!(stdout.contains("1 HashMap/HashSet iteration(s)"), "{stdout}");

    // Both ad-hoc accumulation shapes; the `// reduce:`-justified decoy
    // must not produce a third finding.
    assert!(
        stdout.contains("error[float-reduction-order]: crates/train/src/reduce.rs:7"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[float-reduction-order]: crates/train/src/reduce.rs:13"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("error[float-reduction-order]").count(), 2, "{stdout}");

    // The three lock-discipline shapes; the loop re-check and
    // drop-before-relock decoys must stay silent.
    assert!(
        stdout.contains("error[lock-discipline]: crates/pool/src/lib.rs:18"),
        "{stdout}"
    );
    assert!(stdout.contains("Condvar wait on `cv`"), "{stdout}");
    assert!(
        stdout.contains("error[lock-discipline]: crates/pool/src/lib.rs:30"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`m` locked again while guard `a` from line 29"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[lock-discipline]: crates/pool/src/lib.rs:36"),
        "{stdout}"
    );
    assert!(stdout.contains("live across a `.spawn(` worker boundary"), "{stdout}");
    assert_eq!(stdout.matches("error[lock-discipline]").count(), 3, "{stdout}");

    // Atomics audit: one un-justified SeqCst, one justification that never
    // names SeqCst; the justified Relaxed decoy stays silent.
    assert!(
        stdout.contains("error[atomics-ordering-audit]: pkg/src/lib.rs:29"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[atomics-ordering-audit]: pkg/src/lib.rs:35"),
        "{stdout}"
    );
    assert!(stdout.contains("never mentions SeqCst"), "{stdout}");
    assert_eq!(stdout.matches("error[atomics-ordering-audit]").count(), 2, "{stdout}");

    // The keyword ratchet has no baseline and no escape comment.
    assert!(
        stdout.contains("error[no-unsafe-ratchet]: pkg/src/lib.rs:46"),
        "{stdout}"
    );

    // Layering: one upward manifest edge plus the cycle it completes.
    assert!(
        stdout.contains("error[crate-layering]: crates/sessions/Cargo.toml:9"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`embsr-sessions` (layer 1) depends on `embsr-train` (layer 3)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("dependency cycle: embsr-sessions -> embsr-train -> embsr-sessions"),
        "{stdout}"
    );
}

#[test]
fn packages_outside_the_workspace_are_not_linted() {
    // `standalone/` declares its own `[workspace]`, so it is not a member
    // of the fixture workspace: its copy of the member crate's violations
    // must not be reported, while the member's still are.
    let fixture = manifest_dir().join("fixtures/nested_workspace");
    let out = xtask()
        .args(["lint", "--root"])
        .arg(&fixture)
        .output()
        .expect("xtask binary must run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "the member crate's violations fail the lint"
    );
    assert!(
        stdout.contains("error[no-timing-outside-obs]: member/src/lib.rs:6"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error[no-panic-ratchet]: member/src/lib.rs:7"),
        "{stdout}"
    );
    assert!(!stdout.contains("standalone/"), "{stdout}");
    // Neither its source file nor its manifest was collected.
    assert!(
        stdout.contains("xtask lint: 1 file(s), 2 manifest(s)"),
        "{stdout}"
    );
}

#[test]
fn json_output_is_machine_readable() {
    let fixture = manifest_dir().join("fixtures/bad_workspace");
    let out = xtask()
        .args(["lint", "--json", "--root"])
        .arg(&fixture)
        .output()
        .expect("xtask binary must run");
    assert!(!out.status.success(), "fixture must still fail in --json mode");
    let stdout = String::from_utf8_lossy(&out.stdout);

    let doc = embsr_obs::parse_json(&stdout).expect("stdout must be valid JSON");
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array");
    assert!(!findings.is_empty());
    let summary = doc.get("summary").expect("summary object");
    let errors = summary.get("errors").and_then(|e| e.as_f64()).expect("errors");
    assert_eq!(errors as usize, findings.len(), "fixture findings are all errors");

    // Every finding row carries the fields CI annotations consume.
    for f in findings {
        assert!(f.get("rule").and_then(|v| v.as_str()).is_some(), "rule");
        assert!(f.get("file").and_then(|v| v.as_str()).is_some(), "file");
        assert!(f.get("line").and_then(|v| v.as_f64()).is_some(), "line");
        assert_eq!(f.get("level").and_then(|v| v.as_str()), Some("error"));
        assert!(f.get("message").and_then(|v| v.as_str()).is_some(), "message");
    }
    // Spot-check one known finding end to end.
    assert!(
        findings.iter().any(|f| {
            f.get("rule").and_then(|v| v.as_str()) == Some("map-iteration-determinism")
                && f.get("file").and_then(|v| v.as_str())
                    == Some("crates/baselines/src/knn.rs")
                && f.get("line").and_then(|v| v.as_f64()) == Some(9.0)
        }),
        "{stdout}"
    );
}

#[test]
fn json_output_on_clean_workspace_has_zero_errors() {
    let root = manifest_dir().join("../..");
    let out = xtask()
        .args(["lint", "--json", "--root"])
        .arg(&root)
        .output()
        .expect("xtask binary must run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let doc = embsr_obs::parse_json(&String::from_utf8_lossy(&out.stdout))
        .expect("valid JSON");
    let errors = doc
        .get("summary")
        .and_then(|s| s.get("errors"))
        .and_then(|e| e.as_f64())
        .expect("summary.errors");
    assert_eq!(errors, 0.0);
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = xtask().arg("frobnicate").output().expect("must run");
    assert_eq!(out.status.code(), Some(2));
}
