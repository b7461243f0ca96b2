//! `scenarios run` on bad run options: one line on stderr and exit 2,
//! never a panic with a backtrace. And every command into a closed pipe:
//! exit 0, no panic.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs the `scenarios` binary on the built-in `zoo` preset with `extra`
/// flags and environment, persisting nothing.
fn run_zoo(extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenarios"));
    cmd.args(["run", "zoo", "--quick", "--seq", "--json", "--no-persist"]).args(extra);
    cmd.envs(env.iter().copied());
    cmd.output().expect("scenarios binary runs")
}

fn assert_rejected(out: &Output, needle: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "one line expected: {err}");
    assert!(err.starts_with("scenarios: ") && err.contains(needle), "{err}");
    assert!(out.stdout.is_empty(), "a rejected run prints no rows");
}

#[test]
fn non_numeric_huge_threshold_exits_2() {
    let out = run_zoo(&["--shard", "--huge-threshold", "abc"], &[]);
    assert_rejected(&out, "--huge-threshold `abc` is not a node count");
}

#[test]
fn uncreatable_snapshot_dir_exits_2() {
    // A directory beneath a regular file can never be created.
    let file = std::env::temp_dir().join(format!("lcl-cli-errors-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let dir: PathBuf = file.join("snaps");
    let out = run_zoo(&["--snapshot-dir", dir.to_str().unwrap()], &[]);
    std::fs::remove_file(&file).ok();
    assert_rejected(&out, "cannot open snapshot dir");
}

#[test]
fn huge_threshold_and_snapshot_dir_env_vars_are_not_read() {
    // `--huge-threshold` and `--snapshot-dir` are the only ways to set the
    // store cut-over and the snapshot cache, so a malformed
    // `LCL_HUGE_THRESHOLD` or an uncreatable `LCL_SNAPSHOT_DIR` left in
    // the environment is inert.
    let file = std::env::temp_dir().join(format!("lcl-cli-env-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let dir = file.join("snaps");
    let plain = run_zoo(&[], &[]);
    let runs = [("LCL_HUGE_THRESHOLD", "1e6"), ("LCL_SNAPSHOT_DIR", dir.to_str().unwrap())]
        .map(|env| (env, run_zoo(&[], &[env])));
    std::fs::remove_file(&file).ok();
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));
    for (env, out) in runs {
        assert!(out.status.success(), "{env:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, plain.stdout, "{env:?}");
    }
}

/// Runs the `scenarios` binary with `args` into a pipe whose reader is
/// gone before the child starts, so every write to its stdout fails.
fn into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("scenarios binary runs")
}

#[test]
fn list_and_describe_into_a_closed_pipe_exit_cleanly() {
    // `scenarios list | head -1` once panicked with "failed printing to
    // stdout: Broken pipe" (exit 101).
    for args in [&["list"][..], &["describe", "zoo"]] {
        let out = into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn run_into_a_closed_pipe_exits_cleanly_and_persists() {
    let root = std::env::temp_dir().join(format!("lcl-cli-epipe-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let out = into_closed_pipe(&[
        "run",
        "zoo",
        "--quick",
        "--seq",
        "--out",
        root.to_str().unwrap(),
        "--run-id",
        "epipe",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let persisted = root.join("scenario-zoo").join("epipe").join("rows.jsonl").is_file();
    std::fs::remove_dir_all(&root).ok();
    assert!(persisted, "the run is persisted although nobody read its rows: {stderr}");
}
