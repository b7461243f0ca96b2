//! The on-disk run store: atomic persistence and re-ingestion.

use crate::manifest::{RowRecord, RunManifest};
use std::fs;
use std::io::{self, BufRead, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Name of the rows file inside a run directory.
pub const ROWS_FILE: &str = "rows.jsonl";

/// A run directory tree: `root/<experiment>/<run-id>/{manifest.json,rows.jsonl}`.
///
/// Writes are atomic at run granularity: everything lands in a hidden
/// `.tmp-` sibling first and is `rename`d into place only once complete,
/// so readers never observe a torn run — a crash leaves at most an
/// ignorable temp directory behind, which [`RunStore::list`] skips.
#[derive(Clone, Debug)]
pub struct RunStore {
    root: PathBuf,
}

/// One persisted run as found on disk: its manifest plus the directory it
/// lives in (rows load lazily via [`StoredRun::rows`]).
#[derive(Clone, Debug)]
pub struct StoredRun {
    /// The run's provenance record.
    pub manifest: RunManifest,
    /// The run directory (`root/<experiment>/<run-id>`).
    pub dir: PathBuf,
}

impl StoredRun {
    /// Re-ingests the run's rows from `rows.jsonl`.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` if a line fails to parse.
    pub fn rows(&self) -> io::Result<Vec<RowRecord>> {
        let file = fs::File::open(self.dir.join(ROWS_FILE))?;
        let reader = io::BufReader::new(file);
        let mut rows = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let row: RowRecord = serde_json::from_str(&line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", self.dir.join(ROWS_FILE).display(), i + 1),
                )
            })?;
            rows.push(row);
        }
        Ok(rows)
    }
}

impl RunStore {
    /// A store rooted at `root` (conventionally `results/`).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunStore { root: root.into() }
    }

    /// The conventional store location: `results/` under the working dir.
    #[must_use]
    pub fn default_root() -> PathBuf {
        PathBuf::from("results")
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A run id not yet taken under `experiment`: `base`, else `base-2`,
    /// `base-3`, … (re-runs with an explicit `--run-id` fail in
    /// [`RunStore::save`] instead, preserving immutability).
    #[must_use]
    pub fn unique_run_id(&self, experiment: &str, base: &str) -> String {
        let dir = self.root.join(experiment);
        if !dir.join(base).exists() {
            return base.to_string();
        }
        let mut k = 2usize;
        loop {
            let candidate = format!("{base}-{k}");
            if !dir.join(&candidate).exists() {
                return candidate;
            }
            k += 1;
        }
    }

    /// Persists a run atomically and returns its final directory.
    ///
    /// The manifest and rows are first streamed into
    /// `root/<experiment>/.tmp-<run-id>-<pid>/`, fsync'd closed with their
    /// directory, and only then renamed to `root/<experiment>/<run-id>/` —
    /// the rename is the commit point, and fsyncing the experiment
    /// directory after it makes the commit durable.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the run id is taken (runs are immutable), plus
    /// any underlying I/O error.
    pub fn save(&self, manifest: &RunManifest, rows: &[RowRecord]) -> io::Result<PathBuf> {
        let exp_dir = self.root.join(&manifest.experiment);
        let final_dir = exp_dir.join(&manifest.run_id);
        if final_dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "run directory {} already exists (runs are immutable)",
                    final_dir.display()
                ),
            ));
        }
        fs::create_dir_all(&exp_dir)?;
        let tmp_dir = exp_dir.join(format!(".tmp-{}-{}", manifest.run_id, std::process::id()));
        // A leftover temp dir from a crashed run with the same id+pid is
        // stale by construction; start clean.
        let _ = fs::remove_dir_all(&tmp_dir);
        fs::create_dir_all(&tmp_dir)?;
        let result = self
            .write_run_files(&tmp_dir, manifest, rows)
            .and_then(|()| sync_dir(&tmp_dir))
            .and_then(|()| fs::rename(&tmp_dir, &final_dir));
        if result.is_err() {
            let _ = fs::remove_dir_all(&tmp_dir);
        }
        result?;
        sync_dir(&exp_dir)?;
        Ok(final_dir)
    }

    fn write_run_files(
        &self,
        dir: &Path,
        manifest: &RunManifest,
        rows: &[RowRecord],
    ) -> io::Result<()> {
        let mut rows_out = BufWriter::new(fs::File::create(dir.join(ROWS_FILE))?);
        for row in rows {
            serde_json::to_writer(&mut rows_out, row)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            rows_out.write_all(b"\n")?;
        }
        rows_out.into_inner().map_err(|e| e.into_error())?.sync_all()?;

        let mut manifest_out = BufWriter::new(fs::File::create(dir.join(MANIFEST_FILE))?);
        serde_json::to_writer(&mut manifest_out, manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        manifest_out.write_all(b"\n")?;
        manifest_out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(())
    }

    /// All committed runs, sorted by experiment, then timestamp, then run
    /// id. Temp directories and torn/partial runs (no parseable manifest)
    /// are never listed.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk I/O errors; a missing root is an empty
    /// store, not an error.
    pub fn list(&self) -> io::Result<Vec<StoredRun>> {
        let mut runs = Vec::new();
        let experiments = match fs::read_dir(&self.root) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(runs),
            Err(e) => return Err(e),
        };
        for exp in experiments {
            let exp = exp?;
            if !exp.file_type()?.is_dir() {
                continue;
            }
            for run in fs::read_dir(exp.path())? {
                let run = run?;
                let name = run.file_name();
                let name = name.to_string_lossy();
                if !run.file_type()?.is_dir() || name.starts_with(".tmp-") {
                    continue;
                }
                if let Some(stored) = read_run_dir(&run.path()) {
                    runs.push(stored);
                }
            }
        }
        runs.sort_by(|a, b| {
            (&a.manifest.experiment, &a.manifest.timestamp_utc, &a.manifest.run_id).cmp(&(
                &b.manifest.experiment,
                &b.manifest.timestamp_utc,
                &b.manifest.run_id,
            ))
        });
        Ok(runs)
    }

    /// Finds a committed run by id, searching every experiment. Ambiguous
    /// ids (the same run id under two experiments) resolve to the first in
    /// [`RunStore::list`] order.
    ///
    /// # Errors
    ///
    /// As [`RunStore::list`].
    pub fn find(&self, run_id: &str) -> io::Result<Option<StoredRun>> {
        Ok(self.list()?.into_iter().find(|r| r.manifest.run_id == run_id))
    }
}

/// `fsync`s a directory, making the renames into and out of it durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Reads one run directory; `None` for torn runs (missing or unparseable
/// manifest), which by the atomic-write protocol can only be leftovers
/// from interrupted processes.
fn read_run_dir(dir: &Path) -> Option<StoredRun> {
    let text = fs::read_to_string(dir.join(MANIFEST_FILE)).ok()?;
    let manifest: RunManifest = serde_json::from_str(text.trim()).ok()?;
    Some(StoredRun { manifest, dir: dir.to_path_buf() })
}
