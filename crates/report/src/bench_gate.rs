//! Machine-readable perf-gate records.
//!
//! Every asserted acceptance bench (`serialize`, `rounds`, `sparse_rounds`,
//! `huge_graph`, `grid_sched`, `streaming_snap`) emits one
//! `BENCH_<name>.json` before its pass/fail assert, so a CI run leaves a
//! provenance-stamped perf trajectory that can be collected as an artifact
//! and compared across commits — the export half of the run store's
//! "publish `BENCH_*.json` trajectories" open item.

use crate::manifest::{git_rev, utc_timestamp};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// One perf-gate measurement: the bound the gate asserts, what it measured
/// and the unit of both, and the workload it was measured on, stamped with
/// provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchGate {
    /// Gate name (`rounds`, `serialize`, ...); also names the output file
    /// `BENCH_<bench>.json`.
    pub bench: String,
    /// The asserted bound, in [`BenchGate::unit`].
    pub bound: f64,
    /// What the gate measured, in [`BenchGate::unit`].
    pub measured: f64,
    /// The unit of `bound` and `measured`. An absolute cost per unit of
    /// work (`ns/node-round`, `ns/row`, `ns/node`) passes at or below its
    /// bound; `x`, the speed-up of one live path over another, passes at
    /// or above it.
    pub unit: String,
    /// Instance size the gate workload ran at.
    pub n: usize,
    /// Workload family label (e.g. "cycle+8reg-tree").
    pub family: String,
    /// Git revision of the tree the bench ran on.
    pub git_rev: String,
    /// UTC wall-clock time of the measurement.
    pub timestamp_utc: String,
}

impl BenchGate {
    /// A gate record for the current tree, stamped with `git_rev()` and
    /// the current UTC time.
    #[must_use]
    pub fn new(bench: &str, bound: f64, measured: f64, unit: &str, n: usize, family: &str) -> Self {
        BenchGate {
            bench: bench.to_string(),
            bound,
            measured,
            unit: unit.to_string(),
            n,
            family: family.to_string(),
            git_rev: git_rev(),
            timestamp_utc: utc_timestamp(),
        }
    }

    /// The export directory: `$LCL_BENCH_JSON_DIR` if set, else the
    /// current directory. CI points this at the workspace root so gates
    /// running from different crates land in one place.
    #[must_use]
    pub fn export_dir() -> PathBuf {
        std::env::var_os("LCL_BENCH_JSON_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
    }

    /// Writes `BENCH_<bench>.json` (single JSON object + newline) into
    /// [`BenchGate::export_dir`], overwriting any previous record — each
    /// CI run publishes its own trajectory point. Returns the path
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write I/O errors.
    pub fn write(&self) -> io::Result<PathBuf> {
        self.write_to(&Self::export_dir())
    }

    /// [`BenchGate::write`] into an explicit directory (testable entry
    /// point).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write I/O errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        let mut text = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_roundtrips_and_writes_named_file() {
        let dir = std::env::temp_dir().join(format!("lcl-bench-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let gate = BenchGate::new("unit", 60.0, 41.5, "ns/node-round", 4096, "cycle");
        let path = gate.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let back: BenchGate = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(back, gate);
        assert!(back.measured <= back.bound);
        assert!(text.contains(r#""bound":60.0,"measured":41.5,"unit":"ns/node-round""#));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
