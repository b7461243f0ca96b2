//! Persistent results subsystem for the experiment harness.
//!
//! Every experiment run leaves an immutable, re-ingestable record on disk,
//! keyed by provenance — seed set, git revision, grid configuration, pool
//! width — in the spirit of accountable append-only logs: any number
//! reported from the paper reproduction can be traced back to the run that
//! produced it and diffed against later runs.
//!
//! Layout (one directory per run, written atomically via temp-dir +
//! rename, so a torn run is never visible):
//!
//! ```text
//! results/<experiment>/<run-id>/
//!   manifest.json   — [`RunManifest`]: who/when/how
//!   rows.jsonl      — one [`RowRecord`] per line (streaming serializer)
//! ```
//!
//! [`RunStore`] owns the directory tree; [`diff_rows`] and [`trend`]
//! implement the longitudinal workflows surfaced by the `results` CLI
//! (`list` / `show` / `diff` / `trend`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_gate;
mod diff;
mod history;
mod manifest;
mod store;

pub use bench_gate::BenchGate;
pub use diff::{diff_rows, trend, Delta, TrendPoint};
pub use history::{cost_history, prediction_error, CostSample, PredictionError};
pub use manifest::{git_rev, utc_timestamp, RowRecord, RunManifest};
pub use store::{RunStore, StoredRun};
