//! Deterministic parallel experiment engine.
//!
//! Experiment binaries describe their work as a flat list of **cells**
//! (typically one per `(graph family, n, seed)` grid point, see [`grid`])
//! plus a pure function from a cell to its measurement [`Row`]s. The
//! [`BatchRunner`] fans independent cells across cores with the vendored
//! rayon shim and stitches the per-cell rows back together **in cell
//! order**, so a parallel run's report is byte-identical to a sequential
//! run's — randomness never leaks between cells because every cell derives
//! its own counter-mode RNG streams from its `(run seed, node index)` pairs,
//! exactly as the single-run engines do.
//!
//! [`Parallel`] additionally implements [`lcl_local::NodeExecutor`], so a
//! *single* simulation can fan its per-node work across cores through the
//! `run_views_with` / `run_rounds_with` hooks, with the same bit-identical
//! guarantee (enforced by `tests/determinism.rs`).

use crate::{Report, Row};
use lcl_local::NodeExecutor;
use rayon::prelude::*;
use std::fmt;
use std::time::Instant;

/// Rayon-backed [`NodeExecutor`]: per-node work fans across cores, results
/// land in node order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parallel;

impl NodeExecutor for Parallel {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..len).into_par_iter().map(f).collect()
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        items.par_iter_mut().enumerate().for_each(|(i, item)| f(i, item));
    }

    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        // One scratch per worker chunk (rayon's `map_init`): the view
        // engine hands out ball caches this way.
        (0..len).into_par_iter().map_init(init, f).collect()
    }
}

/// A [`NodeExecutor`] matching a [`BatchRunner`]'s parallelism choice, so
/// experiment binaries can thread per-node parallelism through the
/// algorithm runners (`run_with` variants) end-to-end: batch-parallel runs
/// also fan per-node work across the worker pool, while `--seq` runs stay
/// fully sequential. Outputs are bit-identical either way.
#[derive(Clone, Copy, Debug)]
pub enum EngineExec {
    /// Per-node work on the calling thread.
    Sequential,
    /// Per-node work across the worker pool.
    Parallel,
}

impl NodeExecutor for EngineExec {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self {
            EngineExec::Sequential => lcl_local::Sequential.map_nodes(len, f),
            EngineExec::Parallel => Parallel.map_nodes(len, f),
        }
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        match self {
            EngineExec::Sequential => lcl_local::Sequential.update_nodes(items, f),
            EngineExec::Parallel => Parallel.update_nodes(items, f),
        }
    }

    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        match self {
            EngineExec::Sequential => lcl_local::Sequential.map_nodes_init(len, init, f),
            EngineExec::Parallel => Parallel.map_nodes_init(len, init, f),
        }
    }
}

/// One point of an experiment grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell<F> {
    /// The graph family / workload descriptor.
    pub family: F,
    /// Instance size.
    pub n: usize,
    /// Run seed.
    pub seed: u64,
}

/// A family descriptor that can name itself: the engine uses the slug to
/// build stable [`CellKey`]s, so cell attribution (errors, timings)
/// survives any execution order.
pub trait FamilySlug {
    /// Short, stable label for this family (e.g. `torus`, `gnm-d3`).
    fn family_slug(&self) -> String;
}

impl FamilySlug for &str {
    fn family_slug(&self) -> String {
        (*self).to_string()
    }
}

impl FamilySlug for String {
    fn family_slug(&self) -> String {
        self.clone()
    }
}

/// Stable identity of a grid cell: the `(family slug, n, seed)` triple.
/// Unlike an enumeration index, the key still names the right cell after
/// the scheduler has reordered execution.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Family slug of the cell.
    pub family: String,
    /// Instance size of the cell.
    pub n: usize,
    /// Run seed of the cell.
    pub seed: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.family, self.n, self.seed)
    }
}

impl<F: FamilySlug> Cell<F> {
    /// This cell's stable [`CellKey`].
    #[must_use]
    pub fn key(&self) -> CellKey {
        CellKey { family: self.family.family_slug(), n: self.n, seed: self.seed }
    }
}

/// The result of a fallible grid execution: rows stitched in canonical
/// cell order, failures keyed by stable [`CellKey`] (also in cell order),
/// and each cell's wall-clock milliseconds — the training data for the
/// grid scheduler's cost model.
#[derive(Debug)]
pub struct GridRun<E> {
    /// The combined report; rows appear grouped by cell, in cell order,
    /// regardless of which worker ran which cell.
    pub report: Report,
    /// Failed cells as `(key, error)` pairs, in cell order.
    pub failures: Vec<(CellKey, E)>,
    /// Wall-clock milliseconds per cell, indexed like the input cells
    /// (failed cells report the time spent failing).
    pub cell_ms: Vec<f64>,
}

/// The full cartesian grid `families × sizes × seeds`, in row-major order
/// (family outermost, seed innermost) — the order the old sequential bins
/// iterated in, so ported reports stay byte-identical.
pub fn grid<F: Clone>(families: &[F], sizes: &[usize], seeds: &[u64]) -> Vec<Cell<F>> {
    let mut cells = Vec::with_capacity(families.len() * sizes.len() * seeds.len());
    for family in families {
        for &n in sizes {
            for &seed in seeds {
                cells.push(Cell { family: family.clone(), n, seed });
            }
        }
    }
    cells
}

/// Runs experiment cells and collects their rows into a [`Report`].
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    parallel: bool,
}

impl BatchRunner {
    /// A runner that fans cells across cores.
    #[must_use]
    pub fn parallel() -> Self {
        BatchRunner { parallel: true }
    }

    /// A runner that executes cells one by one on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        BatchRunner { parallel: false }
    }

    /// Parallel unless the process was started with `--seq` or the
    /// `LCL_BENCH_SEQUENTIAL` environment variable is set — the escape
    /// hatch the determinism regression test uses to compare engines.
    /// (Delegates to [`crate::CliOpts`], the single owner of flag
    /// parsing; binaries that also need other flags use
    /// [`BatchRunner::from_opts`] directly.)
    #[must_use]
    pub fn from_cli() -> Self {
        Self::from_opts(&crate::CliOpts::parse())
    }

    /// The runner matching already-parsed [`crate::CliOpts`].
    #[must_use]
    pub fn from_opts(opts: &crate::CliOpts) -> Self {
        BatchRunner { parallel: !opts.seq }
    }

    /// True if this runner fans out across cores.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// The per-node executor matching this runner's parallelism choice,
    /// for threading through the `run_with` algorithm runners.
    #[must_use]
    pub fn node_executor(&self) -> EngineExec {
        if self.parallel {
            EngineExec::Parallel
        } else {
            EngineExec::Sequential
        }
    }

    /// Evaluates `measure` on every cell and returns the combined report.
    /// Rows appear grouped by cell, in `cells` order, regardless of which
    /// core ran which cell.
    pub fn run<C, M>(&self, cells: &[C], measure: M) -> Report
    where
        C: Sync,
        M: Fn(&C) -> Vec<Row> + Sync,
    {
        let per_cell: Vec<Vec<Row>> = if self.parallel {
            cells.par_iter().map(&measure).collect()
        } else {
            cells.iter().map(&measure).collect()
        };
        let mut report = Report::new();
        for rows in per_cell {
            for row in rows {
                report.push(row);
            }
        }
        report
    }

    /// Executes cells under an explicit worker assignment: `groups[w]`
    /// lists the cell indices worker `w` runs, in order, as **one** pool
    /// job — [`BatchRunner::try_run_parts`] with one part per cell, so a
    /// failed cell contributes no rows and comes back as a stable
    /// `(`[`CellKey`]`, error)` pair, and rows, failures, and timings are
    /// stitched back in canonical cell order: byte-identical to a `--seq`
    /// run no matter how cells were placed. One single-cell group per cell
    /// is the pool's plain chunked claiming.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is a partition of `0..cells.len()`.
    pub fn try_run_groups<F, M, E>(
        &self,
        cells: &[Cell<F>],
        groups: &[Vec<usize>],
        measure: M,
    ) -> GridRun<E>
    where
        F: FamilySlug + Sync,
        E: Send,
        M: Fn(&Cell<F>) -> Result<Vec<Row>, E> + Sync,
    {
        let one_part = vec![1; cells.len()];
        let measure = |cell: usize, _part: usize| measure(&cells[cell]);
        self.try_run_parts(cells, &one_part, groups, measure, |_, mut rows| {
            Ok(rows.pop().expect("one part per cell"))
        })
    }

    /// Scheduled dispatch where a cell consists of one or more independent
    /// **parts** (the component shards of a store-backed huge cell; other
    /// cells are single-part). Parts are the schedulable unit: item `j` of
    /// the flattened cell-major list — parts `0..parts_per_cell[0]` of cell
    /// 0 first, then cell 1's, and so on — may land on any worker, and
    /// `groups[w]` lists the items worker `w` runs, in order, as **one**
    /// pool job (the dispatch half of the grid scheduler, `crate::sched`).
    /// `measure_part(cell, part)` runs one part; once all of a cell's parts
    /// are back, `assemble(cell, parts)` folds them (in part order) into
    /// the cell's rows on the stitching thread.
    ///
    /// A cell's wall-clock charge is the **sum** of its parts' times plus
    /// assembly — comparable to what the cell would cost unsplit, which is
    /// what the scheduler's cost model wants to learn. If any part fails,
    /// the lowest-indexed error becomes the cell's error (remaining parts
    /// still run) and `assemble` is skipped; failed cells contribute no
    /// rows and are keyed by their stable [`CellKey`], so one pathological
    /// instance fails one cell instead of panicking the shared pool. Rows,
    /// failures, and timings come back in canonical cell order,
    /// byte-identical to a sequential in-cell run.
    ///
    /// # Panics
    ///
    /// Panics if `parts_per_cell` has the wrong length or a zero entry, or
    /// unless `groups` is a partition of the flattened item indices — a
    /// schedule that drops or duplicates an item is a planner bug and must
    /// fail loudly, not silently corrupt the report.
    pub fn try_run_parts<F, P, MP, A, E>(
        &self,
        cells: &[Cell<F>],
        parts_per_cell: &[usize],
        groups: &[Vec<usize>],
        measure_part: MP,
        mut assemble: A,
    ) -> GridRun<E>
    where
        F: FamilySlug + Sync,
        P: Send,
        E: Send,
        MP: Fn(usize, usize) -> Result<P, E> + Sync,
        A: FnMut(usize, Vec<P>) -> Result<Vec<Row>, E>,
    {
        assert_eq!(parts_per_cell.len(), cells.len(), "one part count per cell required");
        assert!(parts_per_cell.iter().all(|&p| p >= 1), "every cell needs at least one part");
        // Flatten cell-major: items[j] = (cell, part).
        let items: Vec<(usize, usize)> = parts_per_cell
            .iter()
            .enumerate()
            .flat_map(|(cell, &parts)| (0..parts).map(move |part| (cell, part)))
            .collect();
        let mut seen = vec![false; items.len()];
        for g in groups {
            for &j in g {
                assert!(
                    j < items.len(),
                    "schedule names item {j} outside the {}-item grid",
                    items.len()
                );
                assert!(!seen[j], "schedule assigns item {j} twice");
                seen[j] = true;
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count();
        assert_eq!(missing, 0, "schedule leaves {missing} item(s) unassigned");

        type PartOutcome<P, E> = (Result<P, E>, f64);
        let run_group = |group: &Vec<usize>| -> Vec<(usize, PartOutcome<P, E>)> {
            group
                .iter()
                .map(|&j| {
                    let (cell, part) = items[j];
                    let start = Instant::now();
                    let result = measure_part(cell, part);
                    (j, (result, start.elapsed().as_secs_f64() * 1e3))
                })
                .collect()
        };
        // One pool job per group: with `groups.len()` jobs over
        // `groups.len()` workers, the chunk-claiming pool hands each
        // worker exactly one group.
        let per_group: Vec<Vec<(usize, PartOutcome<P, E>)>> = if self.parallel {
            groups.par_iter().map(run_group).collect()
        } else {
            groups.iter().map(run_group).collect()
        };
        let mut slots: Vec<Option<PartOutcome<P, E>>> = (0..items.len()).map(|_| None).collect();
        for (j, outcome) in per_group.into_iter().flatten() {
            slots[j] = Some(outcome);
        }

        // Fold each cell's parts, in part order, then assemble and stitch.
        let mut run = GridRun { report: Report::new(), failures: Vec::new(), cell_ms: Vec::new() };
        let mut slot_iter = slots.into_iter();
        for (cell, &parts) in parts_per_cell.iter().enumerate() {
            let mut ms = 0.0;
            let mut ok: Vec<P> = Vec::with_capacity(parts);
            let mut err: Option<E> = None;
            for _ in 0..parts {
                let (result, part_ms) =
                    slot_iter.next().flatten().expect("partition checked above");
                ms += part_ms;
                match result {
                    Ok(p) if err.is_none() => ok.push(p),
                    Ok(_) => {}
                    Err(e) => err = err.or(Some(e)),
                }
            }
            let outcome = match err {
                Some(e) => Err(e),
                None => {
                    let start = Instant::now();
                    let rows = assemble(cell, ok);
                    ms += start.elapsed().as_secs_f64() * 1e3;
                    rows
                }
            };
            run.cell_ms.push(ms);
            match outcome {
                Ok(rows) => rows.into_iter().for_each(|row| run.report.push(row)),
                Err(e) => run.failures.push((cells[cell].key(), e)),
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_row_major() {
        let cells = grid(&["a", "b"], &[4, 8], &[1, 2]);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0], Cell { family: "a", n: 4, seed: 1 });
        assert_eq!(cells[1], Cell { family: "a", n: 4, seed: 2 });
        assert_eq!(cells[2], Cell { family: "a", n: 8, seed: 1 });
        assert_eq!(cells[4], Cell { family: "b", n: 4, seed: 1 });
    }

    #[test]
    fn parallel_and_sequential_reports_match() {
        let cells = grid(&["fam"], &[2, 3, 5, 7, 11], &[1, 2, 3]);
        let measure = |c: &Cell<&str>| {
            vec![Row {
                experiment: "T",
                series: c.family.to_string(),
                n: c.n,
                seed: c.seed,
                measured: (c.n as f64).sqrt() * c.seed as f64,
                extra: vec![("twice".into(), 2.0 * c.n as f64)],
            }]
        };
        let seq = BatchRunner::sequential().run(&cells, measure);
        let par = BatchRunner::parallel().run(&cells, measure);
        assert_eq!(seq.render(true), par.render(true));
        assert_eq!(seq.render(false), par.render(false));
        assert_eq!(seq.rows().len(), cells.len());
    }

    #[test]
    fn try_run_isolates_failing_cells() {
        let cells = grid(&["fam"], &[2, 3, 4, 5], &[1]);
        let measure = |c: &Cell<&str>| {
            if c.n.is_multiple_of(2) {
                Err(format!("n={} refused", c.n))
            } else {
                Ok(vec![Row {
                    experiment: "T",
                    series: c.family.to_string(),
                    n: c.n,
                    seed: c.seed,
                    measured: c.n as f64,
                    extra: Vec::new(),
                }])
            }
        };
        // One single-cell group per cell: plain chunked claiming.
        let groups: Vec<Vec<usize>> = (0..cells.len()).map(|i| vec![i]).collect();
        let seq = BatchRunner::sequential().try_run_groups(&cells, &groups, measure);
        let par = BatchRunner::parallel().try_run_groups(&cells, &groups, measure);
        assert_eq!(seq.report.render(true), par.report.render(true));
        let (seq_fail, par_fail) = (seq.failures, par.failures);
        assert_eq!(seq_fail, par_fail);
        assert_eq!(seq.report.rows().len(), 2);
        // Failures carry the stable (family, n, seed) key, in cell order.
        assert_eq!(
            seq_fail,
            vec![
                (CellKey { family: "fam".into(), n: 2, seed: 1 }, "n=2 refused".to_string()),
                (CellKey { family: "fam".into(), n: 4, seed: 1 }, "n=4 refused".to_string()),
            ]
        );
        assert_eq!(seq_fail[0].0.to_string(), "fam:2:1");
    }

    #[test]
    fn timed_runs_record_per_cell_wall_clock() {
        let cells = grid(&["fam"], &[3, 5], &[1, 2]);
        let measure = |c: &Cell<&str>| -> Result<Vec<Row>, String> {
            Ok(vec![Row {
                experiment: "T",
                series: c.family.to_string(),
                n: c.n,
                seed: c.seed,
                measured: c.n as f64,
                extra: Vec::new(),
            }])
        };
        let run = BatchRunner::sequential().try_run_groups(&cells, &[vec![0, 1, 2, 3]], measure);
        assert!(run.failures.is_empty());
        assert_eq!(run.cell_ms.len(), cells.len());
        assert!(run.cell_ms.iter().all(|&ms| ms >= 0.0));
        assert_eq!(run.report.rows().len(), cells.len());
    }

    #[test]
    fn grouped_dispatch_is_byte_identical_and_keys_survive_reordering() {
        let cells = grid(&["fam"], &[2, 3, 4, 5], &[1, 2]);
        let measure = |c: &Cell<&str>| {
            if c.n.is_multiple_of(2) {
                Err(format!("n={} refused", c.n))
            } else {
                Ok(vec![Row {
                    experiment: "T",
                    series: c.family.to_string(),
                    n: c.n,
                    seed: c.seed,
                    measured: c.n as f64 * c.seed as f64,
                    extra: Vec::new(),
                }])
            }
        };
        let in_order = [(0..cells.len()).collect::<Vec<_>>()];
        let plain_run = BatchRunner::sequential().try_run_groups(&cells, &in_order, measure);
        let (plain, plain_fail) = (plain_run.report, plain_run.failures);
        // A deliberately scrambled partition: reversed and interleaved.
        let groups = vec![vec![7, 3], vec![6, 1, 0], vec![5, 2, 4]];
        for runner in [BatchRunner::sequential(), BatchRunner::parallel()] {
            let run = runner.try_run_groups(&cells, &groups, measure);
            assert_eq!(run.report.render(true), plain.render(true));
            assert_eq!(run.failures, plain_fail, "keys must survive reordered execution");
            assert_eq!(run.cell_ms.len(), cells.len());
        }
        // The failure keys name the even-n cells in canonical order.
        let keys: Vec<String> = plain_fail.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["fam:2:1", "fam:2:2", "fam:4:1", "fam:4:2"]);
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn grouped_dispatch_rejects_incomplete_partitions() {
        let cells = grid(&["fam"], &[2, 3], &[1]);
        let _ = BatchRunner::sequential()
            .try_run_groups(&cells, &[vec![0]], |_c| Ok::<_, String>(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn grouped_dispatch_rejects_duplicate_assignments() {
        let cells = grid(&["fam"], &[2, 3], &[1]);
        let _ = BatchRunner::sequential()
            .try_run_groups(&cells, &[vec![0, 1], vec![0]], |_c| Ok::<_, String>(Vec::new()));
    }

    /// The shared fixture for the parts tests: cell rows are the sum of
    /// per-part contributions, so any dropped / duplicated / reordered
    /// part shows up as a wrong `measured` value.
    fn parts_fixture() -> (Vec<Cell<&'static str>>, Vec<usize>) {
        (grid(&["fam"], &[2, 3, 4, 5], &[1]), vec![1, 3, 1, 2])
    }

    fn assemble_sum<'a>(
        cells: &'a [Cell<&'a str>],
    ) -> impl Fn(usize, Vec<f64>) -> Result<Vec<Row>, String> + 'a {
        move |cell, parts| {
            Ok(vec![Row {
                experiment: "T",
                series: cells[cell].family.to_string(),
                n: cells[cell].n,
                seed: cells[cell].seed,
                measured: parts.iter().sum(),
                extra: vec![("parts".into(), parts.len() as f64)],
            }])
        }
    }

    #[test]
    fn parts_dispatch_is_byte_identical_across_placements() {
        let (cells, parts) = parts_fixture();
        let measure_part =
            |cell: usize, part: usize| Ok::<f64, String>((cell * 10 + part) as f64 + 1.0);
        // Reference: every cell's parts on one worker, in order.
        let reference = BatchRunner::sequential().try_run_parts(
            &cells,
            &parts,
            &[vec![0], vec![1, 2, 3], vec![4], vec![5, 6]],
            measure_part,
            assemble_sum(&cells),
        );
        assert!(reference.failures.is_empty());
        assert_eq!(reference.report.rows().len(), cells.len());
        // A scrambled placement splitting cell 1's parts across workers.
        let scrambled = vec![vec![6, 1], vec![4, 3, 0], vec![5, 2]];
        for runner in [BatchRunner::sequential(), BatchRunner::parallel()] {
            let run = runner.try_run_parts(
                &cells,
                &parts,
                &scrambled,
                measure_part,
                assemble_sum(&cells),
            );
            assert_eq!(run.report.render(true), reference.report.render(true));
            assert!(run.failures.is_empty());
            assert_eq!(run.cell_ms.len(), cells.len());
        }
    }

    #[test]
    fn a_failed_part_fails_its_cell_with_the_lowest_part_error() {
        let (cells, parts) = parts_fixture();
        let measure_part = |cell: usize, part: usize| {
            if cell == 1 && part >= 1 {
                Err(format!("part {part} refused"))
            } else {
                Ok(part as f64)
            }
        };
        let groups = vec![vec![0, 1, 2, 3, 4, 5, 6]];
        let run = BatchRunner::sequential().try_run_parts(
            &cells,
            &parts,
            &groups,
            measure_part,
            assemble_sum(&cells),
        );
        // Cell 1 fails with its first failing part; the other cells survive.
        assert_eq!(run.report.rows().len(), 3);
        assert_eq!(
            run.failures,
            vec![(CellKey { family: "fam".into(), n: 3, seed: 1 }, "part 1 refused".to_string())]
        );
        assert_eq!(run.cell_ms.len(), cells.len());
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn parts_dispatch_rejects_incomplete_partitions() {
        let (cells, parts) = parts_fixture();
        let _ = BatchRunner::sequential().try_run_parts(
            &cells,
            &parts,
            &[vec![0, 1, 2]],
            |_c, _p| Ok::<f64, String>(0.0),
            |_c, _p| Ok(Vec::new()),
        );
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn parts_dispatch_rejects_empty_cells() {
        let (cells, _) = parts_fixture();
        let _ = BatchRunner::sequential().try_run_parts(
            &cells,
            &[1, 0, 1, 1],
            &[vec![0, 1, 2]],
            |_c, _p| Ok::<f64, String>(0.0),
            |_c, _p| Ok(Vec::new()),
        );
    }

    #[test]
    fn node_executor_parallel_matches_sequential() {
        use lcl_local::{NodeExecutor, Sequential};
        let a = Sequential.map_nodes(100, |i| i * 7);
        let b = Parallel.map_nodes(100, |i| i * 7);
        assert_eq!(a, b);
        let mut xs = vec![1u64; 64];
        let mut ys = vec![1u64; 64];
        Sequential.update_nodes(&mut xs, |i, x| *x += i as u64);
        Parallel.update_nodes(&mut ys, |i, y| *y += i as u64);
        assert_eq!(xs, ys);
    }
}
