//! Shared experiment harness utilities.
//!
//! Each experiment binary (`src/bin/*.rs`) regenerates one figure/theorem
//! artefact of the paper, named in its module doc (E1 `landscape`, T11
//! `hierarchy`, A1 `ablations`, …). Every binary funnels through one code
//! path — [`Report::finish`] — which renders a human-readable table (or
//! JSON rows with `--json`) **and** persists the run to the on-disk store
//! (`results/<experiment>/<run-id>/`, see `lcl-report`), so each
//! invocation leaves a provenance-stamped record the `results` CLI can
//! list, diff, and trend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod sched;

pub use engine::{grid, BatchRunner, Cell, CellKey, EngineExec, FamilySlug, GridRun, Parallel};
pub use lcl_report::RowRecord;
pub use sched::{build_schedule, predict_costs, CostModel, PowerLaw, Schedule};

use lcl_report::{RunManifest, RunStore};
use serde::Serialize;
use std::io::{self, Write};
use std::path::PathBuf;

/// One measurement row: an experiment id, the instance parameters, and the
/// measured quantities.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Experiment id (e.g. "E1", "T11").
    pub experiment: &'static str,
    /// Series label within the experiment (e.g. "sinkless-det").
    pub series: String,
    /// Instance size `n`.
    pub n: usize,
    /// Seed used.
    pub seed: u64,
    /// The measured complexity (rounds / radius).
    pub measured: f64,
    /// Optional extra fields, rendered as-is.
    pub extra: Vec<(String, f64)>,
}

impl From<&Row> for RowRecord {
    fn from(row: &Row) -> Self {
        RowRecord {
            experiment: row.experiment.to_string(),
            series: row.series.clone(),
            n: row.n,
            seed: row.seed,
            measured: row.measured,
            extra: row.extra.clone(),
        }
    }
}

/// Parsed common CLI surface of every experiment binary:
///
/// * `--json` — machine-readable rows on stdout instead of the table;
/// * `--quick` — shrink the sweep (also via `LCL_BENCH_QUICK`);
/// * `--seq` — run cells sequentially (also via `LCL_BENCH_SEQUENTIAL`);
/// * `--out <dir>` — run-store root (default `results/`);
/// * `--run-id <id>` — explicit run id (default: UTC stamp + pid);
/// * `--no-persist` — render only, write nothing.
///
/// Unrecognized flags are kept and queryable via [`CliOpts::has`], so
/// binaries can layer their own switches (e.g. `hierarchy --level3`).
#[derive(Clone, Debug)]
pub struct CliOpts {
    /// Emit JSON rows instead of the fixed-width table.
    pub json: bool,
    /// Shrink sweeps for smoke runs.
    pub quick: bool,
    /// Force sequential cell execution.
    pub seq: bool,
    /// Run-store root directory.
    pub out: PathBuf,
    /// Explicit run id, if given.
    pub run_id: Option<String>,
    /// Whether to persist the run (`!--no-persist`).
    pub persist: bool,
    /// The raw argument list (for binary-specific flags).
    args: Vec<String>,
}

impl CliOpts {
    /// Parses the process arguments (plus the `LCL_BENCH_*` env escape
    /// hatches the determinism harness uses).
    #[must_use]
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable entry point).
    #[must_use]
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        // A value must follow its flag and must not itself be a flag —
        // `--out --seq` means the value was forgotten, not that the run
        // should persist into a directory named `--seq`.
        let value_of = |flag: &str| -> Option<String> {
            let i = args.iter().position(|a| a == flag)?;
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => {
                    eprintln!("warning: {flag} requires a value; flag ignored");
                    None
                }
            }
        };
        let has = |flag: &str| args.iter().any(|a| a == flag);
        CliOpts {
            json: has("--json"),
            quick: has("--quick") || std::env::var_os("LCL_BENCH_QUICK").is_some(),
            seq: has("--seq") || std::env::var_os("LCL_BENCH_SEQUENTIAL").is_some(),
            out: value_of("--out").map_or_else(RunStore::default_root, PathBuf::from),
            run_id: value_of("--run-id"),
            persist: !has("--no-persist"),
            args,
        }
    }

    /// True if the raw argument list contains `flag` exactly.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following a binary-specific `--flag VALUE` pair, if
    /// present and not itself a flag (same rule the common flags use).
    #[must_use]
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == flag)?;
        match self.args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => None,
        }
    }

    /// The positional (non-flag) arguments, in order: everything that is
    /// neither a `--flag` nor the value consumed by a value-taking flag.
    /// Binaries with subcommands (`scenarios list|describe|run`) parse
    /// these.
    #[must_use]
    pub fn positional(&self) -> Vec<&str> {
        const VALUE_FLAGS: [&str; 6] =
            ["--out", "--run-id", "--spec-dir", "--tol", "--snapshot-dir", "--huge-threshold"];
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(a) = self.args.get(i) {
            if a.starts_with("--") {
                // A value flag consumes the next token unless that token is
                // itself a flag (the "forgotten value" rule of `from_args`).
                let takes_value = VALUE_FLAGS.contains(&a.as_str())
                    && self.args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
                i += if takes_value { 2 } else { 1 };
            } else {
                out.push(a.as_str());
                i += 1;
            }
        }
        out
    }
}

/// Collects rows and renders them.
#[derive(Debug, Default)]
pub struct Report {
    rows: Vec<Row>,
    /// Provenance pairs recorded into the persisted manifest (not part of
    /// the rendered report, so stdout stays byte-identical across runs
    /// that differ only in provenance).
    meta: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Records a provenance pair into the run manifest (e.g. the
    /// `scenarios` bin stamps the spec name and hash). Rendering is
    /// unaffected.
    pub fn push_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.push((key.into(), value.into()));
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The provenance pairs recorded so far (what `persist` writes into
    /// the manifest's `meta`).
    #[must_use]
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Renders the report: a fixed-width table, or JSON lines when
    /// `json` is set.
    #[must_use]
    pub fn render(&self, json: bool) -> String {
        if json {
            return self
                .rows
                .iter()
                .map(|r| serde_json::to_string(r).expect("row serializes"))
                .collect::<Vec<_>>()
                .join("\n");
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<4} {:<28} {:>9} {:>6} {:>10}  extra\n",
            "exp", "series", "n", "seed", "measured"
        ));
        for r in &self.rows {
            let extra =
                r.extra.iter().map(|(k, v)| format!("{k}={v:.2}")).collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "{:<4} {:<28} {:>9} {:>6} {:>10.2}  {}\n",
                r.experiment, r.series, r.n, r.seed, r.measured, extra
            ));
        }
        out
    }

    /// The single exit path of every experiment binary: prints the
    /// rendered report to stdout and — unless `--no-persist` — commits the
    /// run to the store as `manifest.json` + `rows.jsonl` (streamed, one
    /// row per line). Returns the committed run directory, if any.
    ///
    /// The persistence note goes to **stderr**, keeping stdout
    /// byte-identical across parallel/sequential runs (the CI determinism
    /// gates compare it directly). A requested persist that fails (taken
    /// `--run-id`, unwritable `--out`, disk full) **terminates the
    /// process with exit code 3** after the report has been printed —
    /// scripts must never believe an unrecorded run was recorded. A
    /// reader that closed stdout early (`| head`) is not an error: the run
    /// is still persisted.
    ///
    /// # Panics
    ///
    /// Panics if printing fails for any other reason, as `println!` does.
    pub fn finish(&self, experiment: &str, opts: &CliOpts) -> Option<PathBuf> {
        let mut out = io::stdout();
        if let Err(e) = writeln!(out, "{}", self.render(opts.json)).and_then(|()| out.flush()) {
            assert!(e.kind() == io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
        }
        if !opts.persist {
            return None;
        }
        match self.persist(experiment, opts) {
            Ok(dir) => {
                eprintln!("persisted {} rows to {}", self.rows.len(), dir.display());
                Some(dir)
            }
            Err(e) => {
                eprintln!("error: run not persisted: {e}");
                std::process::exit(3);
            }
        }
    }

    /// The persistence half of [`Report::finish`], without the process
    /// exit: commits the run and returns its directory.
    ///
    /// # Errors
    ///
    /// Propagates [`RunStore::save`] failures (taken run id, I/O errors).
    pub fn persist(&self, experiment: &str, opts: &CliOpts) -> std::io::Result<PathBuf> {
        let store = RunStore::new(&opts.out);
        let records: Vec<RowRecord> = self.rows.iter().map(RowRecord::from).collect();
        let run_id = opts
            .run_id
            .clone()
            .unwrap_or_else(|| store.unique_run_id(experiment, &default_run_id()));
        let pool_width = if opts.seq { 1 } else { rayon::current_num_threads() };
        let manifest =
            RunManifest::new(experiment, &run_id, &records, pool_width, opts.quick, opts.seq)
                .with_meta(self.meta.clone());
        store.save(&manifest, &records)
    }

    /// Mean measured value of a series at a given `n` (NaN if absent).
    #[must_use]
    pub fn mean(&self, series: &str, n: usize) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.series == series && r.n == n)
            .map(|r| r.measured)
            .collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// Width of the persistent worker pool this process dispatches to (the
/// number a schedule should target). Lazily sized once per process from
/// `LCL_POOL_THREADS` / available parallelism, exactly like dispatch
/// itself.
#[must_use]
pub fn pool_width() -> usize {
    rayon::current_num_threads()
}

/// The default run id: compact UTC stamp plus pid, unique enough for
/// interactive use and overridable with `--run-id` when scripts (CI) need
/// stable names.
fn default_run_id() -> String {
    let stamp: String =
        lcl_report::utc_timestamp().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
    format!("{stamp}-p{}", std::process::id())
}

/// A geometric sweep of instance sizes `start, start·2, …` capped at `max`.
#[must_use]
pub fn doubling_sizes(start: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut n = start;
    while n <= max {
        out.push(n);
        n *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_both_formats() {
        let mut rep = Report::new();
        rep.push(Row {
            experiment: "E1",
            series: "demo".into(),
            n: 64,
            seed: 1,
            measured: 7.0,
            extra: vec![("phase1".into(), 3.0)],
        });
        let table = rep.render(false);
        assert!(table.contains("demo") && table.contains("7.00"));
        let json = rep.render(true);
        assert!(json.contains("\"experiment\":\"E1\""));
        assert_eq!(rep.rows().len(), 1);
    }

    #[test]
    fn mean_aggregates_by_series_and_n() {
        let mut rep = Report::new();
        for (seed, m) in [(1u64, 4.0), (2, 6.0)] {
            rep.push(Row {
                experiment: "E1",
                series: "s".into(),
                n: 10,
                seed,
                measured: m,
                extra: vec![],
            });
        }
        assert!((rep.mean("s", 10) - 5.0).abs() < 1e-9);
        assert!(rep.mean("s", 11).is_nan());
    }

    #[test]
    fn doubling_sweep() {
        assert_eq!(doubling_sizes(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(doubling_sizes(5, 4), Vec::<usize>::new());
    }

    #[test]
    fn cli_opts_parse_all_flags() {
        let opts = CliOpts::from_args(
            ["--json", "--quick", "--seq", "--out", "my-results", "--run-id", "r7", "--level3"]
                .map(String::from),
        );
        assert!(opts.json && opts.quick && opts.seq);
        assert_eq!(opts.out, PathBuf::from("my-results"));
        assert_eq!(opts.run_id.as_deref(), Some("r7"));
        assert!(opts.persist);
        assert!(opts.has("--level3") && !opts.has("--level4"));

        let opts = CliOpts::from_args(["--no-persist"].map(String::from));
        assert!(!opts.json && !opts.seq && !opts.persist);
        assert_eq!(opts.out, PathBuf::from("results"));
        assert!(opts.run_id.is_none());

        // A flag is never consumed as another flag's missing value.
        let opts = CliOpts::from_args(["--out", "--seq"].map(String::from));
        assert_eq!(opts.out, PathBuf::from("results"));
        assert!(opts.seq);
    }

    #[test]
    fn cli_opts_positionals_and_value_of() {
        let opts = CliOpts::from_args(
            ["run", "zoo", "--quick", "--out", "dir", "--spec-dir", "specs", "--json"]
                .map(String::from),
        );
        assert_eq!(opts.positional(), vec!["run", "zoo"]);
        assert_eq!(opts.value_of("--spec-dir"), Some("specs"));
        assert_eq!(opts.value_of("--out"), Some("dir"));
        assert_eq!(opts.value_of("--run-id"), None);
        // --huge-threshold is a value flag: its value is not a positional.
        let opts = CliOpts::from_args(
            ["run", "zoo", "--shard", "--huge-threshold", "32"].map(String::from),
        );
        assert_eq!(opts.positional(), vec!["run", "zoo"]);
        assert_eq!(opts.value_of("--huge-threshold"), Some("32"));
        // A value flag missing its value never swallows the next flag.
        let opts = CliOpts::from_args(["list", "--spec-dir", "--json"].map(String::from));
        assert_eq!(opts.positional(), vec!["list"]);
        assert_eq!(opts.value_of("--spec-dir"), None);
        assert!(opts.json);
    }

    #[test]
    fn finish_persists_through_the_store() {
        let root = std::env::temp_dir().join(format!("lcl-bench-finish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut rep = Report::new();
        rep.push(Row {
            experiment: "E1",
            series: "demo".into(),
            n: 64,
            seed: 1,
            measured: 7.0,
            extra: vec![("phase1".into(), 3.0)],
        });
        rep.push_meta("scenario", "unit");
        rep.push_meta("spec_hash", "00ff");
        let mut opts = CliOpts::from_args(["--json".to_string()]);
        opts.out = root.clone();
        opts.run_id = Some("test-run".into());
        let dir = rep.finish("unit-test", &opts).expect("finish persists");
        assert!(dir.ends_with("unit-test/test-run"));
        let stored = RunStore::new(&root).find("test-run").unwrap().expect("run listed");
        assert_eq!(stored.manifest.row_count, 1);
        assert_eq!(stored.manifest.series, vec!["demo".to_string()]);
        // Meta pairs land in the persisted manifest verbatim.
        assert_eq!(
            stored.manifest.meta,
            vec![("scenario".to_string(), "unit".to_string()), ("spec_hash".into(), "00ff".into())]
        );
        let rows = stored.rows().unwrap();
        // The persisted line re-serializes to the exact `--json` stdout line.
        assert_eq!(serde_json::to_string(&rows[0]).unwrap(), rep.render(true));
        // A second persist with the same explicit id must refuse
        // (immutable); `finish` turns this refusal into exit code 3.
        let err = rep.persist("unit-test", &opts).expect_err("duplicate id refused");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let _ = std::fs::remove_dir_all(&root);
    }
}
