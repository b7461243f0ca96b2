//! End-to-end smoke tests for `results verify`: the CLI gate must accept
//! a faithfully persisted scenario run, reject seeded corruptions with a
//! nonzero exit and the right violation kind, and still verify manifests
//! written before the `meta` field existed (slug-parsing fallback). Also:
//! `results show` into a pipe nobody reads exits cleanly.

use lcl_bench::CliOpts;
use lcl_report::RunManifest;
use lcl_scenario::{experiment_name, run_spec, AlgoSpec, FamilySpec, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn smoke_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "verify-smoke".into(),
        description: "results-verify fixture".into(),
        families: vec![FamilySpec::Torus, FamilySpec::Caterpillar { leaf_frac: 0.4 }],
        sizes: vec![16],
        seeds: vec![1, 2],
        algos: vec![AlgoSpec::Luby, AlgoSpec::Linial],
    }
}

/// Persists one sequential run of the fixture spec under `root` and
/// returns its run directory.
fn persist_run(root: &Path, run_id: &str) -> PathBuf {
    let spec = smoke_spec();
    spec.validate().unwrap();
    let mut opts = CliOpts::from_args(vec!["--seq".to_string()]);
    opts.out = root.to_path_buf();
    opts.run_id = Some(run_id.to_string());
    let (report, failures) = run_spec(&spec, &opts);
    assert!(failures.is_empty(), "{failures:?}");
    report.persist(&experiment_name(&spec), &opts).expect("run persists")
}

fn results(root: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_results"))
        .arg("--out")
        .arg(root)
        .args(args)
        .output()
        .expect("results bin runs")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcl-results-verify-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn verify_certifies_a_faithful_run() {
    let root = temp_store("ok");
    persist_run(&root, "t1");
    let out = results(&root, &["verify", "t1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verdict      certified"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn verify_rejects_a_corrupted_measured_value() {
    let root = temp_store("tamper");
    let dir = persist_run(&root, "t1");
    // Flip one measured value in rows.jsonl behind the manifest's back.
    let rows_path = dir.join("rows.jsonl");
    let text = std::fs::read_to_string(&rows_path).unwrap();
    let tampered = text.replacen("\"measured\":", "\"measured\":9", 1);
    assert_ne!(tampered, text);
    std::fs::write(&rows_path, tampered).unwrap();
    let out = results(&root, &["verify", "t1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("measured-mismatch"), "{stdout}");
    assert!(stdout.contains("REJECTED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn verify_rejects_a_tampered_manifest() {
    let root = temp_store("manifest");
    let dir = persist_run(&root, "t1");
    let path = dir.join("manifest.json");
    let mut m: RunManifest =
        serde_json::from_str(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    m.row_count += 1;
    std::fs::write(&path, serde_json::to_string(&m).unwrap() + "\n").unwrap();
    let out = results(&root, &["verify", "t1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("manifest-integrity"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn verify_handles_pre_meta_manifests_via_slug_fallback() {
    let root = temp_store("legacy");
    let dir = persist_run(&root, "t1");
    // Rewrite the manifest as a pre-meta producer would have: no meta
    // key at all — verify must fall back to parsing the series slugs.
    let path = dir.join("manifest.json");
    let mut m: RunManifest =
        serde_json::from_str(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    m.meta.clear();
    let legacy = serde_json::to_string(&m).unwrap().replace(",\"meta\":[]", "");
    assert!(!legacy.contains("meta"), "meta key must be absent");
    std::fs::write(&path, legacy + "\n").unwrap();
    let out = results(&root, &["verify", "t1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("verdict      certified"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn verify_of_a_missing_run_cannot_verify() {
    let root = temp_store("missing");
    let out = results(&root, &["verify", "no-such-run"]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn show_into_a_closed_pipe_exits_cleanly() {
    // `results show <run> | head -1` once panicked with "failed printing
    // to stdout: Broken pipe" (exit 101). Here the reader is gone before
    // the child starts, so every write to its stdout fails.
    let root = temp_store("epipe");
    persist_run(&root, "t1");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_results"))
        .arg("--out")
        .arg(&root)
        .args(["show", "t1"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("results bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
