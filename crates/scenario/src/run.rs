//! Scenario execution: spec → grid → parts → [`lcl_bench::BatchRunner`] → rows.
//!
//! A scenario run is the same deterministic pipeline every experiment
//! binary uses — independent `(family, n, seed)` cells fanned across the
//! worker pool, per-node work threaded through the cell's
//! [`lcl_local::NodeExecutor`] — so a pooled run's report and persisted
//! `rows.jsonl` are byte-identical to a `--seq` run's (gated in CI).
//!
//! Every cell is measured as a list of **parts**, and every part the same
//! way ([`measure_part`], the one algorithm dispatch): a part is a
//! [`Network`] over a closed sub-instance that carries the cell's global
//! ids and announced `(n, Δ)`. It is the whole instance; or, under
//! `--shard`, one connected component ([`lcl_local::map_components`],
//! fanned across the executor inside the cell's work item); or one shard
//! of a published sharded snapshot, which is then its own work item. No
//! algorithm can tell the difference, so one fold turns the parts into
//! the cell's rows — rounds are the max, counts sum, palettes unite.
//!
//! Work items are placed by the cost-model grid scheduler
//! (`lcl_bench::sched`) in pooled runs by default: per-item costs
//! predicted from persisted timing history (static degree-weighted
//! estimates when there is none) drive a makespan-balanced worker
//! assignment, dispatched through `BatchRunner::try_run_parts` — output
//! bytes are unaffected because rows are stitched back in canonical cell
//! order. Every run, scheduled or not, records per-cell wall clock into
//! the manifest meta (`cell_ms:<family>:<n>:<seed>`), which is exactly the
//! history the next run's model trains on; scheduled runs whose model has
//! history for one of their classes additionally record
//! `predicted_ms:`/`actual_ms:` pairs so `results show` can report how
//! wrong the model was (a cold plan's costs are work units, and its
//! `sched` line says so). `--no-sched` restores chunked claiming,
//! `--sched` forces planning even under `--seq` (the plan is still
//! executed on one thread, but predictions land in the manifest).

use crate::cache::SnapshotCache;
use crate::spec::{AlgoSpec, FamilySpec, ScenarioSpec};
use lcl_bench::{
    build_schedule, grid, predict_costs, BatchRunner, Cell, CliOpts, CostModel, EngineExec, Report,
    Row, Schedule,
};
use lcl_core::problems::{MatchingLabel, MisLabel};
use lcl_graph::ShardedSnapshot;
use lcl_local::{assigned_ids, map_components, IdAssignment, Network, NodeExecutor, Sequential};
use lcl_report::{cost_history, RunStore};
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Experiment id stamped on every scenario row (the run-store directory
/// carries the scenario name: `scenario-<name>`).
pub const EXPERIMENT_ID: &str = "SCN";

/// One grid cell that produced no rows: which `(family, n, seed)` point
/// failed and why — a generator refusal, a typed algorithm error, or (with
/// `--certify`) a certifier violation. Surfaced per cell instead of
/// panicking the shared worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// Family slug of the failing cell.
    pub family: String,
    /// Instance size of the failing cell.
    pub n: usize,
    /// Run seed of the failing cell.
    pub seed: u64,
    /// Human-readable cause.
    pub detail: String,
}

impl CellError {
    fn new(cell: &Cell<FamilySpec>, detail: String) -> CellError {
        CellError { family: cell.family.slug(), n: cell.n, seed: cell.seed, detail }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at n={} seed={}: {}", self.family, self.n, self.seed, self.detail)
    }
}

/// How cells are measured, beyond the executor: the switches `run_spec`
/// derives from the CLI surface (`--certify`, `--shard`,
/// `--snapshot-dir` / `LCL_SNAPSHOT_DIR`, `--huge-threshold`).
#[derive(Debug)]
pub struct MeasureOpts {
    /// Re-check every algorithm output with the independent `lcl_certify`
    /// checkers before accepting its row.
    pub certify: bool,
    /// Measure an in-memory cell by connected component: each component
    /// is a part ([`lcl_local::map_components`]) and the cell's executor
    /// claims whole components, for every algorithm, with bit-identical
    /// rows.
    pub shard: bool,
    /// Frozen-snapshot cache for built instances, if enabled.
    pub snapshots: Option<SnapshotCache>,
    /// Cells with `n` above this run **store-backed** when `shard` and
    /// `snapshots` are both on: the instance streams into (or loads from)
    /// a per-component sharded snapshot, each shard runs as its own
    /// schedulable work item, and only one shard's bytes are mapped per
    /// worker at a time. Rows stay byte-identical to the in-memory path.
    pub huge_threshold: usize,
}

impl Default for MeasureOpts {
    fn default() -> Self {
        // 2^20 nodes: comfortably in-memory below, streaming territory
        // above (a derived 0 would silently route *every* cell through
        // the store).
        MeasureOpts { certify: false, shard: false, snapshots: None, huge_threshold: 1 << 20 }
    }
}

impl MeasureOpts {
    /// Derives the measurement switches from parsed CLI options:
    /// `--certify`, `--shard`, `--huge-threshold N` (default `2^20`), and
    /// `--snapshot-dir DIR` (falling back to the `LCL_SNAPSHOT_DIR`
    /// environment variable).
    ///
    /// # Errors
    ///
    /// A one-line message if `--huge-threshold` is not a node count, or if
    /// a requested snapshot directory cannot be created — a run asked to
    /// cache must not silently run uncached.
    pub fn from_cli(opts: &CliOpts) -> Result<MeasureOpts, String> {
        let dir = opts
            .value_of("--snapshot-dir")
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("LCL_SNAPSHOT_DIR").map(PathBuf::from));
        let snapshots = dir
            .map(|d| {
                SnapshotCache::open(&d)
                    .map_err(|e| format!("cannot open snapshot dir {}: {e}", d.display()))
            })
            .transpose()?;
        let mut m = MeasureOpts {
            certify: opts.has("--certify"),
            shard: opts.has("--shard"),
            snapshots,
            ..MeasureOpts::default()
        };
        if let Some(v) = opts.value_of("--huge-threshold") {
            m.huge_threshold =
                v.parse().map_err(|_| format!("--huge-threshold `{v}` is not a node count"))?;
        }
        Ok(m)
    }

    /// The published sharded store a cell runs from, `None` for a cell
    /// measured in memory.
    ///
    /// # Errors
    ///
    /// The store could not be built or opened (the cell is too big to fall
    /// back to the in-memory path).
    fn store_for(&self, cell: &Cell<FamilySpec>) -> Result<Option<ShardedSnapshot>, String> {
        match &self.snapshots {
            Some(cache) if self.shard && cell.n > self.huge_threshold => {
                cache.load_or_build_sharded(&cell.family, cell.n, cell.seed).map(Some)
            }
            _ => Ok(None),
        }
    }
}

/// A measured cell: its rows plus the content hash of the instance they
/// were measured on (what `run_spec` records into the manifest meta as
/// `graph:<family>:<n>:<seed>`).
#[derive(Clone, Debug)]
pub struct CellMeasurement {
    /// One row per algorithm, in spec order.
    pub rows: Vec<Row>,
    /// `Graph::content_hash()` of the instance (slab-layout independent,
    /// identical whether the graph was generated or snapshot-loaded).
    pub graph_hash: u64,
}

/// Measures one `(family, n, seed)` cell in memory: builds (or, with a
/// snapshot cache, loads) the instance once, wraps it in a [`Network`]
/// (shuffled ids from the cell seed), and runs every requested algorithm
/// on it — one row per algorithm. Under `m.shard` the instance's
/// connected components are its parts. An infeasible instance or failing
/// algorithm yields a structured [`CellError`] naming the cell, and with
/// `m.certify` every output is re-checked by the independent
/// `lcl_certify` checkers before its row is accepted.
///
/// # Errors
///
/// [`CellError`] naming the `(family, n, seed)` cell and the cause.
pub fn try_measure_cell_full(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<CellMeasurement, CellError> {
    Ok(assemble(cell, algos, vec![measure_in_memory(cell, algos, exec, m)?]))
}

/// Measures a store-backed cell **sequentially in-cell**: every shard of
/// the published sharded snapshot in order, folded into the exact rows
/// [`try_measure_cell_full`] emits on the unsharded instance (the
/// byte-identity `tests/store_equiv.rs` pins). `run_spec` instead spreads
/// the shards across the scheduler pool as individual work items.
///
/// # Errors
///
/// [`CellError`] naming the cell, with the failing shard in the detail.
pub fn try_measure_cell_store(
    cell: &Cell<FamilySpec>,
    snap: &ShardedSnapshot,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<CellMeasurement, CellError> {
    let ids = store_ids(cell, snap);
    let parts = (0..snap.shard_count().max(1))
        .map(|k| measure_shard(cell, snap, &ids, k, algos, exec, m))
        .collect::<Result<_, _>>()?;
    Ok(assemble(cell, algos, parts))
}

/// One algorithm's result on one or more parts, in the form parts fold in.
#[derive(Clone, Debug)]
struct AlgoPart {
    rounds: u32,
    /// Nodes labeled `InSet` (Luby) / `Matched` (matching).
    count: usize,
    /// Distinct colors used (Linial), sorted.
    palette: Vec<u32>,
}

/// One or more measured parts of a cell: their size and one [`AlgoPart`]
/// per algorithm, in spec order.
#[derive(Clone, Debug)]
struct Part {
    nodes: usize,
    edges: usize,
    algos: Vec<AlgoPart>,
}

impl Part {
    /// Folds another part of the same cell in. Components are independent,
    /// so the whole run's rounds are the max over parts (it runs until its
    /// slowest component settles), counts and sizes sum, and palettes
    /// unite.
    fn fold(mut self, other: Part) -> Part {
        self.nodes += other.nodes;
        self.edges += other.edges;
        for (a, b) in self.algos.iter_mut().zip(other.algos) {
            a.rounds = a.rounds.max(b.rounds);
            a.count += b.count;
            a.palette.extend(b.palette);
            a.palette.sort_unstable();
            a.palette.dedup();
        }
        self
    }
}

/// Runs every algorithm on one part network — the one algorithm dispatch
/// of the scenario layer. With `certify`, each output is first re-checked
/// by the independent `lcl_certify` checkers.
fn measure_part<X: NodeExecutor>(
    net: &Network,
    algos: &[AlgoSpec],
    seed: u64,
    certify: bool,
    exec: &X,
) -> Result<Part, String> {
    let g = net.graph();
    let measured = algos.iter().map(|&algo| -> Result<AlgoPart, String> {
        let fail = |e: String| format!("{}: {e}", algo.slug());
        let (part, solution) = match algo {
            AlgoSpec::Luby => {
                let out = lcl_algos::luby_rounds::try_run_with(net, seed, exec)
                    .map_err(|e| fail(e.to_string()))?;
                let count = g.nodes().filter(|&v| *out.labeling.node(v) == MisLabel::InSet).count();
                let part = AlgoPart { rounds: out.rounds, count, palette: Vec::new() };
                (part, certify.then(|| out.solution(g)))
            }
            AlgoSpec::Matching => {
                let out = lcl_algos::matching_rounds::try_run_with(net, seed, exec)
                    .map_err(|e| fail(e.to_string()))?;
                let count =
                    g.nodes().filter(|&v| *out.labeling.node(v) == MatchingLabel::Matched).count();
                let part = AlgoPart { rounds: out.rounds, count, palette: Vec::new() };
                (part, certify.then(|| out.solution(g)))
            }
            AlgoSpec::Linial => {
                let out =
                    lcl_algos::linial::try_run_with(net, exec).map_err(|e| fail(e.to_string()))?;
                let mut palette = out.colors.clone();
                palette.sort_unstable();
                palette.dedup();
                let part = AlgoPart { rounds: out.total_rounds(), count: 0, palette };
                (part, certify.then(|| Ok(out.solution(g))))
            }
        };
        if let Some(sol) = solution {
            sol.and_then(|s| lcl_certify::certify(g, &s))
                .map_err(|v| fail(format!("certify [{}]: {v}", v.kind())))?;
        }
        Ok(part)
    });
    Ok(Part { nodes: net.len(), edges: g.edge_count(), algos: measured.collect::<Result<_, _>>()? })
}

/// Measures a cell's in-memory instance (built, or loaded from the
/// snapshot cache) as one work item: whole, or under `m.shard` component
/// by component — the components fanned across `exec`, each measured
/// sequentially. Returns the instance's content hash with the folded part.
fn measure_in_memory(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<(u64, Part), CellError> {
    let fail = |e: String| CellError::new(cell, e);
    let g = match &m.snapshots {
        Some(cache) => cache.load_or_build(&cell.family, cell.n, cell.seed),
        None => cell.family.build(cell.n, cell.seed),
    }
    .map_err(|e| fail(e.to_string()))?;
    let hash = g.content_hash();
    let net = Network::new(g, IdAssignment::Shuffled { seed: cell.seed });
    let component = |p: &Network| measure_part(p, algos, cell.seed, m.certify, &Sequential);
    let part = match m.shard.then(|| map_components(&net, &exec, component)).flatten() {
        Some((_, parts)) => {
            parts.into_iter().reduce(|a, b| Ok(a?.fold(b?))).expect("a split network has parts")
        }
        None => measure_part(&net, algos, cell.seed, m.certify, &exec),
    };
    Ok((hash, part.map_err(fail)?))
}

/// The global ids of a store-backed cell, `ids[v]` for node `v` of the
/// whole instance: the ones [`Network::new`] hands the unsharded graph.
/// Computed once per cell and shared by all of its shards.
fn store_ids(cell: &Cell<FamilySpec>, store: &ShardedSnapshot) -> Vec<u64> {
    assigned_ids(store.node_count(), IdAssignment::Shuffled { seed: cell.seed })
}

/// Measures shard `k` of a cell's published store as one work item: the
/// shard image, carrying its slice of the cell's global ids (`ids`, from
/// [`store_ids`]) and announcing the cell's `(n, Δ)`. Returns the
/// instance's content hash with the part.
fn measure_shard(
    cell: &Cell<FamilySpec>,
    store: &ShardedSnapshot,
    ids: &[u64],
    k: usize,
    algos: &[AlgoSpec],
    exec: EngineExec,
    m: &MeasureOpts,
) -> Result<(u64, Part), CellError> {
    let fail = |e: String| CellError::new(cell, format!("shard {k}: {e}"));
    let g = store.load_shard(k).map_err(|e| fail(e.to_string()))?;
    let net = Network::with_ids(g, store.members(k).iter().map(|&v| ids[v as usize]).collect())
        .with_known_n(store.node_count())
        .with_announced_max_degree(store.max_degree());
    let part = measure_part(&net, algos, cell.seed, m.certify, &exec).map_err(fail)?;
    Ok((store.graph_hash(), part))
}

/// Folds a cell's measured items (in item order) into its rows, one per
/// algorithm, and the instance hash.
#[allow(clippy::cast_precision_loss)]
fn assemble(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    items: Vec<(u64, Part)>,
) -> CellMeasurement {
    let graph_hash = items[0].0;
    let part = items.into_iter().map(|(_, p)| p).reduce(Part::fold).expect("a cell has parts");
    let nodes = part.nodes as f64;
    let rows = algos
        .iter()
        .zip(&part.algos)
        .map(|(algo, p)| {
            let metric = match algo {
                AlgoSpec::Luby => ("mis_frac", p.count as f64 / nodes),
                AlgoSpec::Matching => ("matched_frac", p.count as f64 / nodes),
                AlgoSpec::Linial => ("colors", p.palette.len() as f64),
            };
            Row {
                experiment: EXPERIMENT_ID,
                series: format!("{}/{}", cell.family.slug(), algo.slug()),
                n: cell.n,
                seed: cell.seed,
                measured: f64::from(p.rounds),
                extra: vec![
                    (metric.0.to_string(), metric.1),
                    ("nodes".to_string(), nodes),
                    ("edges".to_string(), part.edges as f64),
                ],
            }
        })
        .collect();
    CellMeasurement { rows, graph_hash }
}

/// Expands the spec into its cell grid (family outermost, seed innermost
/// — the canonical row-major order every bin uses).
#[must_use]
pub fn expand(spec: &ScenarioSpec, quick: bool) -> Vec<Cell<FamilySpec>> {
    let (sizes, seeds) = spec.grid_axes(quick);
    grid(&spec.families, &sizes, &seeds)
}

/// Plans the makespan-balanced schedule for a cell grid whose cells are
/// one work item each, or `None` when scheduling is off — the
/// one-item-per-cell case of the planner `run_spec` uses. Pooled runs
/// schedule by default (safe: output bytes are stitched in cell order
/// either way); `--no-sched` always wins, and `--sched` forces planning
/// even for a `--seq` run so predictions land in the manifest.
#[must_use]
pub fn schedule_for(
    cells: &[Cell<FamilySpec>],
    algos: &[AlgoSpec],
    opts: &CliOpts,
    runner: &BatchRunner,
) -> Option<Schedule> {
    let items: Vec<(usize, usize)> = cells.iter().enumerate().map(|(ci, c)| (ci, c.n)).collect();
    plan_items(cells, &items, algos, opts, runner).map(|(schedule, _)| schedule)
}

/// Plans the placement of work items, `items[j] = (cell, nodes)` — a
/// shard item is costed like a small cell of the shard's size. The cost
/// model trains on the `cell_ms:` manifest meta of every run persisted
/// under `opts.out` ([`cost_history`]); items whose `(family, algo-set)`
/// class has no history fall back to the static degree-weighted estimate
/// [`FamilySpec::cost_weight`] × Σ [`AlgoSpec::cost_factor`], calibrated
/// onto the model's scale. [`build_schedule`] places the items by LPT.
/// The flag says whether the costs are milliseconds: false when no class
/// has history, so every cost is a static estimate in work units.
fn plan_items(
    cells: &[Cell<FamilySpec>],
    items: &[(usize, usize)],
    algos: &[AlgoSpec],
    opts: &CliOpts,
    runner: &BatchRunner,
) -> Option<(Schedule, bool)> {
    if opts.has("--no-sched") || !(opts.has("--sched") || runner.is_parallel()) {
        return None;
    }
    let samples = cost_history(&RunStore::new(&opts.out)).unwrap_or_default();
    let algo_set = algos.iter().map(AlgoSpec::slug).collect::<Vec<_>>().join("+");
    let (classes, statics): (Vec<_>, Vec<_>) = items
        .iter()
        .map(|&(ci, n)| {
            let family = &cells[ci].family;
            let weight =
                family.cost_weight(n) * algos.iter().map(|a| a.cost_factor(n)).sum::<f64>();
            ((family.slug(), algo_set.clone(), n), weight)
        })
        .unzip();
    let model = CostModel::fit(&samples);
    let in_ms = classes.iter().any(|(f, a, n)| model.predict_ms(f, a, *n).is_some());
    let costs = predict_costs(&model, &classes, &statics);
    Some((build_schedule(&costs, lcl_bench::pool_width()), in_ms))
}

/// Runs a whole scenario through the batch engine and returns the report
/// plus any per-cell failures (in cell order), with the scenario name,
/// spec hash, full canonical spec JSON, each cell's instance hash
/// (`graph:<cell>`), and per-cell wall clock (`cell_ms:<cell>`) recorded
/// as manifest meta — the caller exits through [`Report::finish`] to
/// render and persist, and should exit nonzero if any cell failed.
/// Options [`MeasureOpts::from_cli`] rejects fail every cell with its
/// message. Every cell's work items — one per in-memory cell, one per
/// shard of a store-backed cell — share one dispatch
/// (`BatchRunner::try_run_parts`); pooled runs place them with the grid
/// scheduler and additionally record a `sched` provenance line, plus
/// `predicted_ms:`/`actual_ms:` meta per cell once the cost model has
/// history for one of the run's classes, and store-backed cells record
/// their shard count (`shards:<cell>`).
#[must_use]
pub fn run_spec(spec: &ScenarioSpec, opts: &CliOpts) -> (Report, Vec<CellError>) {
    let cells = expand(spec, opts.quick);
    let runner = BatchRunner::from_opts(opts);
    let exec = runner.node_executor();
    let algos = &spec.algos;
    let m = MeasureOpts::from_cli(opts);
    // Plan every cell up front: huge cells run from their sharded store,
    // everything else in memory. Opening/streaming the stores here also
    // hands the scheduler the per-shard sizes it needs.
    let plans: Vec<Result<Option<ShardedSnapshot>, String>> = cells
        .iter()
        .map(|c| m.as_ref().map_err(Clone::clone).and_then(|m| m.store_for(c)))
        .collect();
    let m = m.unwrap_or_default();
    let item_sizes: Vec<Vec<usize>> = cells
        .iter()
        .zip(&plans)
        .map(|(c, plan)| match plan {
            Ok(Some(s)) => (0..s.shard_count().max(1)).map(|k| s.shard_meta(k).n).collect(),
            _ => vec![c.n],
        })
        .collect();
    let items: Vec<(usize, usize)> = item_sizes
        .iter()
        .enumerate()
        .flat_map(|(ci, sizes)| sizes.iter().map(move |&n| (ci, n)))
        .collect();
    let sched = plan_items(&cells, &items, algos, opts, &runner);
    let groups: Vec<Vec<usize>> = match &sched {
        Some((s, _)) => s.groups.clone(),
        // No plan: one pool job per item (chunk-claimed when parallel,
        // canonical order when sequential).
        None => (0..items.len()).map(|j| vec![j]).collect(),
    };
    let mut hashes: Vec<Option<u64>> = vec![None; cells.len()];
    // A store-backed cell's id table (8 bytes a node), filled by whichever
    // of its shard items runs first and kept until the run ends.
    let ids: Vec<OnceLock<Vec<u64>>> = cells.iter().map(|_| OnceLock::new()).collect();
    let run = runner.try_run_parts(
        &cells,
        &item_sizes.iter().map(Vec::len).collect::<Vec<_>>(),
        &groups,
        |ci, item| match &plans[ci] {
            Ok(Some(store)) => {
                let ids = ids[ci].get_or_init(|| store_ids(&cells[ci], store));
                measure_shard(&cells[ci], store, ids, item, algos, exec, &m)
            }
            Ok(None) => measure_in_memory(&cells[ci], algos, exec, &m),
            Err(e) => Err(CellError::new(&cells[ci], e.clone())),
        },
        |ci, parts| {
            let out = assemble(&cells[ci], algos, parts);
            hashes[ci] = Some(out.graph_hash);
            Ok(out.rows)
        },
    );
    let (mut report, failures, cell_ms) = (run.report, run.failures, run.cell_ms);
    report.push_meta("scenario", spec.name.clone());
    report.push_meta("spec_hash", spec.hash());
    report.push_meta("spec_json", spec.to_json());
    for (cell, hash) in cells.iter().zip(&hashes) {
        if let Some(h) = hash {
            report.push_meta(format!("graph:{}", cell.key()), format!("{h:016x}"));
        }
    }
    // Store-backed cells leave a shard-count marker, so `results show`
    // and verify know which rows came through the snapshot store.
    for (cell, plan) in cells.iter().zip(&plans) {
        if let Ok(Some(s)) = plan {
            report.push_meta(format!("shards:{}", cell.key()), s.shard_count().to_string());
        }
    }
    // Per-cell wall clock, in every run: the next run's training data.
    for (cell, ms) in cells.iter().zip(&cell_ms) {
        report.push_meta(format!("cell_ms:{}", cell.key()), format!("{ms:.3}"));
    }
    if let Some((s, in_ms)) = &sched {
        let unit = if *in_ms { "ms" } else { "units" };
        report.push_meta(
            "sched",
            format!(
                "workers={} predicted_makespan_{unit}={:.3}",
                s.workers, s.predicted_makespan_ms
            ),
        );
    }
    // Predicted vs. actual per cell — the self-improvement record
    // `results show` aggregates into a prediction error — when the model
    // predicted milliseconds for at least one class; a cold plan's work
    // units are no prediction of milliseconds. A store cell's prediction
    // is the sum over its shard items.
    if let Some((s, true)) = &sched {
        let mut predicted = vec![0.0; cells.len()];
        for (&(ci, _), ms) in items.iter().zip(&s.predicted_ms) {
            predicted[ci] += ms;
        }
        for ((cell, p), a) in cells.iter().zip(&predicted).zip(&cell_ms) {
            report.push_meta(format!("predicted_ms:{}", cell.key()), format!("{p:.3}"));
            report.push_meta(format!("actual_ms:{}", cell.key()), format!("{a:.3}"));
        }
    }
    if let Some(cache) = &m.snapshots {
        let (hits, misses) = cache.stats();
        eprintln!("snapshot cache: {hits} hits, {misses} misses in {}", cache.dir().display());
    }
    (report, failures.into_iter().map(|(_, e)| e).collect())
}

/// The run-store experiment name for a scenario.
#[must_use]
pub fn experiment_name(spec: &ScenarioSpec) -> String {
    format!("scenario-{}", spec.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecError;

    /// One in-memory cell, failures panicking.
    fn measure(cell: &Cell<FamilySpec>, algos: &[AlgoSpec], exec: EngineExec) -> Vec<Row> {
        try_measure_cell_full(cell, algos, exec, &MeasureOpts::default())
            .unwrap_or_else(|e| panic!("{e}"))
            .rows
    }

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            description: "unit fixture".into(),
            families: vec![FamilySpec::Torus, FamilySpec::Caterpillar { leaf_frac: 0.4 }],
            sizes: vec![16, 25],
            seeds: vec![1, 2],
            algos: vec![AlgoSpec::Luby, AlgoSpec::Linial],
        }
    }

    #[test]
    fn expand_is_row_major_family_outermost() {
        let cells = expand(&tiny_spec(), false);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].family, FamilySpec::Torus);
        assert_eq!((cells[0].n, cells[0].seed), (16, 1));
        assert_eq!((cells[1].n, cells[1].seed), (16, 2));
        assert_eq!(cells[4].family, FamilySpec::Caterpillar { leaf_frac: 0.4 });
    }

    #[test]
    fn measure_cell_emits_one_row_per_algo() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        let rows = measure(&cells[0], &spec.algos, EngineExec::Sequential);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].series, "torus/luby");
        assert_eq!(rows[1].series, "torus/linial");
        for row in &rows {
            assert!(row.measured >= 0.0);
            let nodes = row.extra.iter().find(|(k, _)| k == "nodes").unwrap().1;
            assert!(nodes >= 9.0);
        }
        // Luby on a torus: the MIS is non-empty.
        let mis = rows[0].extra.iter().find(|(k, _)| k == "mis_frac").unwrap().1;
        assert!(mis > 0.0);
        // Linial colors a 4-regular torus with at most Δ+1 = 5 colors.
        let colors = rows[1].extra.iter().find(|(k, _)| k == "colors").unwrap().1;
        assert!((1.0..=5.0).contains(&colors), "colors = {colors}");
    }

    #[test]
    fn parallel_and_sequential_scenario_reports_are_identical() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        let algos = spec.algos.clone();
        let seq =
            BatchRunner::sequential().run(&cells, |c| measure(c, &algos, EngineExec::Sequential));
        let par = BatchRunner::parallel().run(&cells, |c| measure(c, &algos, EngineExec::Parallel));
        assert_eq!(seq.render(true), par.render(true));
        assert_eq!(seq.render(false), par.render(false));
        assert_eq!(seq.rows().len(), 16);
    }

    #[test]
    fn experiment_name_prefixes_scenario() {
        assert_eq!(experiment_name(&tiny_spec()), "scenario-tiny");
        let _: Result<(), SpecError> = tiny_spec().validate();
    }

    #[test]
    fn infeasible_cell_is_a_structured_error() {
        // A G(n,m) density no simple 16-node graph can hold: the generator
        // refuses, and the refusal comes back attributed to the cell
        // instead of panicking the worker pool.
        let cell = Cell { family: FamilySpec::Gnm { avg_deg: 1000.0 }, n: 16, seed: 1 };
        let m = MeasureOpts::default();
        let err = try_measure_cell_full(&cell, &[AlgoSpec::Luby], EngineExec::Sequential, &m)
            .unwrap_err();
        assert_eq!((err.family.as_str(), err.n, err.seed), ("gnm-d1000", 16, 1));
        assert!(format!("{err}").starts_with("gnm-d1000 at n=16 seed=1:"), "{err}");
    }

    #[test]
    fn certify_flag_rechecks_every_row() {
        let spec = tiny_spec();
        let cells = expand(&spec, false);
        let m = MeasureOpts { certify: true, ..MeasureOpts::default() };
        for cell in &cells {
            let out = try_measure_cell_full(cell, &spec.algos, EngineExec::Sequential, &m).unwrap();
            assert_eq!(out.rows.len(), spec.algos.len());
        }
    }
}
