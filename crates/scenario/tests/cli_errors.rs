//! `scenarios run` on bad run options: one line on stderr and exit 2,
//! never a panic with a backtrace.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `scenarios` binary on the built-in `zoo` preset with `extra`
/// flags and environment, persisting nothing.
fn run_zoo(extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_scenarios"));
    cmd.args(["run", "zoo", "--quick", "--seq", "--json", "--no-persist"]).args(extra);
    cmd.env_remove("LCL_SNAPSHOT_DIR").envs(env.iter().copied());
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
fn huge_threshold_env_var_is_not_read() {
    // `--huge-threshold` is the only way to set the store cut-over, so a
    // malformed `LCL_HUGE_THRESHOLD` left in the environment is inert.
    let plain = run_zoo(&[], &[]);
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));
    let out = run_zoo(&[], &[("LCL_HUGE_THRESHOLD", "1e6")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, plain.stdout);
}
