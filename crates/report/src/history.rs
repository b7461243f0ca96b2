//! Cost-history readback: the training data for the grid scheduler.
//!
//! The scheduler's cost model (`lcl_bench::sched`) learns `c · n^a` curves
//! from what previous runs actually took. Every persisted scenario run's
//! manifest carries one `cell_ms:<family>:<n>:<seed>` meta pair per
//! measured cell; [`cost_history`] turns them into [`CostSample`]s keyed by
//! the run's per-family algorithm set.
//!
//! [`prediction_error`] is the reporting half: scheduled runs also record
//! `predicted_ms:`/`actual_ms:` pairs, and it pairs them into an aggregate
//! relative error, which `results show`/`results trend` surface (and which
//! quantifies how much the model still has to learn).

use crate::store::RunStore;
use std::collections::BTreeMap;
use std::io;

/// One observed cell cost: a `(family, algorithm-set, n)` class and the
/// wall-clock milliseconds it took.
#[derive(Clone, Debug, PartialEq)]
pub struct CostSample {
    /// Family slug the cell was generated from (e.g. `torus`).
    pub family: String,
    /// Algorithm-set key: scenario algo slugs joined with `+` in spec
    /// order (e.g. `luby+linial`).
    pub algos: String,
    /// Grid size of the cell.
    pub n: usize,
    /// Measured wall-clock milliseconds.
    pub ms: f64,
}

/// Reads every persisted run's per-cell `cell_ms:` meta into cost samples.
/// (A scheduled run's `actual_ms:` entries are the same figures: both are
/// written from one measurement in one format.) The algorithm-set key is
/// derived from the run's series labels (`family/algo`), so a sample
/// trained on `luby+linial` never predicts for a grid running a different
/// algorithm set.
///
/// # Errors
///
/// Propagates store-listing I/O errors; unreadable rows or malformed
/// meta pairs are skipped, not fatal — history is advisory.
pub fn cost_history(store: &RunStore) -> io::Result<Vec<CostSample>> {
    let mut out = Vec::new();
    for run in store.list()? {
        let m = &run.manifest;
        let mut algos_by_family: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for s in &m.series {
            if let Some((family, algo)) = s.split_once('/') {
                let set = algos_by_family.entry(family).or_default();
                if !set.contains(&algo) {
                    set.push(algo);
                }
            }
        }
        if algos_by_family.is_empty() {
            continue;
        }
        // Cells in canonical `(family, n, seed)` order, so the fitted
        // curves do not depend on the order a spec lists its axes in.
        let mut timed: BTreeMap<(String, usize, u64), f64> = BTreeMap::new();
        for (k, v) in &m.meta {
            let Some(cell) = k.strip_prefix("cell_ms:").and_then(parse_cell_suffix) else {
                continue;
            };
            let Ok(ms) = v.parse::<f64>() else { continue };
            timed.entry(cell).or_insert(ms);
        }
        for ((family, n, _seed), ms) in timed {
            let Some(algos) = algos_by_family.get(family.as_str()) else { continue };
            out.push(CostSample { algos: algos.join("+"), family, n, ms });
        }
    }
    Ok(out)
}

/// Parses the `<family>:<n>:<seed>` suffix of a timing meta key. Family
/// slugs never contain `:`, so splitting from the right is unambiguous.
fn parse_cell_suffix(rest: &str) -> Option<(String, usize, u64)> {
    let (head, seed) = rest.rsplit_once(':')?;
    let (family, n) = head.rsplit_once(':')?;
    Some((family.to_string(), n.parse().ok()?, seed.parse().ok()?))
}

/// Aggregate predicted-vs-actual error of one scheduled run, from its
/// manifest's `predicted_ms:`/`actual_ms:` meta pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionError {
    /// Number of cells with both a prediction and a measurement.
    pub cells: usize,
    /// Mean of `|predicted - actual| / actual` across those cells.
    pub mean_abs_rel: f64,
    /// Maximum of the same ratio — the worst-predicted cell.
    pub max_abs_rel: f64,
}

/// Pairs a manifest's `predicted_ms:<cell>` and `actual_ms:<cell>` meta
/// entries into an aggregate relative error. `None` when the run carries
/// no complete pair (unscheduled runs, pre-scheduler manifests) — callers
/// pad their output instead of erroring.
#[must_use]
pub fn prediction_error(meta: &[(String, String)]) -> Option<PredictionError> {
    let mut predicted: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in meta {
        if let Some(cell) = k.strip_prefix("predicted_ms:") {
            if let Ok(ms) = v.parse::<f64>() {
                predicted.insert(cell, ms);
            }
        }
    }
    let mut errs = Vec::new();
    for (k, v) in meta {
        if let Some(cell) = k.strip_prefix("actual_ms:") {
            if let (Some(&p), Ok(a)) = (predicted.get(cell), v.parse::<f64>()) {
                if a > 0.0 {
                    errs.push(((p - a) / a).abs());
                }
            }
        }
    }
    if errs.is_empty() {
        return None;
    }
    Some(PredictionError {
        cells: errs.len(),
        mean_abs_rel: errs.iter().sum::<f64>() / errs.len() as f64,
        max_abs_rel: errs.iter().fold(0.0_f64, |m, &e| m.max(e)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{RowRecord, RunManifest};

    fn scratch(name: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("lcl-history-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn scn_row(family: &str, algo: &str, n: usize, seed: u64) -> RowRecord {
        RowRecord {
            experiment: "SCN".into(),
            series: format!("{family}/{algo}"),
            n,
            seed,
            measured: 1.0,
            extra: vec![],
        }
    }

    #[test]
    fn cost_history_reads_cell_ms_meta() {
        let root = scratch("cost");
        let store = RunStore::new(&root);
        let rows = vec![
            scn_row("torus", "luby", 16, 1),
            scn_row("torus", "linial", 16, 1),
            scn_row("torus", "luby", 64, 1),
            scn_row("torus", "linial", 64, 1),
        ];
        let manifest = RunManifest::new("scenario-t", "r1", &rows, 1, false, true).with_meta(vec![
            ("scenario".into(), "t".into()),
            // `cell_ms:` is the one source; `actual_ms:` is not read.
            ("actual_ms:torus:64:1".into(), "8.000".into()),
            ("cell_ms:torus:64:1".into(), "9.000".into()),
            ("cell_ms:torus:16:1".into(), "2.500".into()),
            ("cell_ms:not-a-cell".into(), "1.0".into()),
            ("cell_ms:torus:16:bad".into(), "1.0".into()),
        ]);
        store.save(&manifest, &rows).unwrap();
        // Samples come in canonical cell order, whatever the meta order.
        let samples = cost_history(&store).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[0],
            CostSample { family: "torus".into(), algos: "luby+linial".into(), n: 16, ms: 2.5 }
        );
        assert_eq!((samples[1].n, samples[1].ms), (64, 9.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cost_history_skips_runs_without_timing_or_series() {
        let root = scratch("plain");
        let store = RunStore::new(&root);
        // A non-scenario run: series without the family/algo shape.
        let rows = vec![RowRecord {
            experiment: "E1".into(),
            series: "sinkless-det".into(),
            n: 64,
            seed: 1,
            measured: 3.0,
            extra: vec![],
        }];
        let manifest = RunManifest::new("landscape", "r1", &rows, 1, false, true)
            .with_meta(vec![("cell_ms:sinkless-det:64:1".into(), "4.0".into())]);
        store.save(&manifest, &rows).unwrap();
        assert!(cost_history(&store).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn prediction_error_pairs_meta_and_pads_when_absent() {
        let meta = vec![
            ("predicted_ms:torus:16:1".to_string(), "10.0".to_string()),
            ("actual_ms:torus:16:1".into(), "8.0".into()),
            ("predicted_ms:torus:64:1".into(), "90.0".into()),
            ("actual_ms:torus:64:1".into(), "100.0".into()),
            // Unpaired prediction and zero actual are both ignored.
            ("predicted_ms:torus:25:1".into(), "5.0".into()),
            ("predicted_ms:torus:36:1".into(), "5.0".into()),
            ("actual_ms:torus:36:1".into(), "0".into()),
        ];
        let pe = prediction_error(&meta).unwrap();
        assert_eq!(pe.cells, 2);
        assert!((pe.mean_abs_rel - 0.175).abs() < 1e-12, "{}", pe.mean_abs_rel);
        assert!((pe.max_abs_rel - 0.25).abs() < 1e-12);
        assert_eq!(prediction_error(&[]), None);
        assert_eq!(prediction_error(&[("spec_hash".into(), "00ff".into())]), None);
    }
}
