//! The four benchmark workloads: the inputs each derives from its seed, the
//! set-up before the timed pass, the timed pass, and the traced version of
//! that pass with its per-layer spans.
//!
//! The untraced pass is what a user runs: `run_spec` plus
//! `Report::persist` for the scenario workloads, and the padding solvers
//! plus `check_padded` for `pi2-hard`. The traced pass produces the same
//! rows while timing each call into a layer's public function; probes that
//! time a layer on the pass's own data run after it and stay outside its
//! wall time.

use crate::ledger::{self, Ledger};
use lcl_bench::{
    build_schedule, predict_costs, BatchRunner, Cell, CliOpts, CostModel, EngineExec, Report, Row,
};
use lcl_core::problems::{MatchingLabel, MisLabel};
use lcl_gadget::{GadgetFamily as _, GadgetIn, LogGadgetFamily};
use lcl_graph::{Graph, GraphSink, HalfEdge, NodeId, ShardedSnapshot, Side};
use lcl_local::{assigned_ids, IdAssignment, Network};
use lcl_padding::hard::hard_pi2_instance;
use lcl_padding::hierarchy::{pi2_det, pi2_rand};
use lcl_padding::{check_padded, PadIn, PaddedInstance};
use lcl_scenario::{
    expand, experiment_name, run_spec, schedule_for, AlgoSpec, FamilySpec, ScenarioSpec,
    SnapshotCache, EXPERIMENT_ID,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One connected random 3-regular cell at n = 2^20, held in memory.
    CellRr3,
    /// The seven zoo families × three sizes × five seeds through the
    /// scheduler, persisted and replayed.
    GridZoo,
    /// The paper's separation: `Π₂` on a Lemma-5 hard instance.
    Pi2Hard,
    /// A disconnected pods cell at n = 2^20 run from a sharded store.
    StorePods,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cell-rr3-2e20" => Some(Workload::CellRr3),
            "grid-zoo" => Some(Workload::GridZoo),
            "pi2-hard" => Some(Workload::Pi2Hard),
            "store-pods" => Some(Workload::StorePods),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CellRr3 => "cell-rr3-2e20",
            Workload::GridZoo => "grid-zoo",
            Workload::Pi2Hard => "pi2-hard",
            Workload::StorePods => "store-pods",
        }
    }
}

/// Input size: the stated benchmark sizes, or a tiny smoke size for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark states.
    Full,
    /// Sizes that run in well under a second.
    Tiny,
}

/// One workload at one seed and scale: everything its inputs derive from.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed (the only source of randomness in the inputs).
    pub seed: u64,
    /// Input size.
    pub scale: Scale,
}

const ALL_ALGOS: [AlgoSpec; 3] = [AlgoSpec::Luby, AlgoSpec::Matching, AlgoSpec::Linial];
const PODS: FamilySpec = FamilySpec::Pods { pod_size: 8, cross_links: 0 };

impl Inputs {
    fn tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }

    /// Node count of the single-cell workloads.
    fn cell_n(&self) -> usize {
        if self.tiny() {
            1 << 12
        } else {
            1 << 20
        }
    }

    /// Padded-instance size target of `pi2-hard`.
    fn pi2_target(&self) -> usize {
        if self.tiny() {
            2_000
        } else {
            160_000
        }
    }

    /// The scenario the workload runs, `None` for `pi2-hard`.
    #[must_use]
    pub fn spec(&self) -> Option<ScenarioSpec> {
        let s = self.seed;
        let (name, families, sizes, seeds) = match self.workload {
            Workload::CellRr3 => (
                "bench-cell-rr3",
                vec![FamilySpec::RandomRegular { d: 3 }],
                vec![self.cell_n()],
                vec![s],
            ),
            Workload::GridZoo => {
                let sizes = if self.tiny() { vec![64, 128] } else { vec![1024, 4096, 16384] };
                let k = if self.tiny() { 2 } else { 5 };
                let seeds = (1..=k).map(|i| s.wrapping_mul(5).wrapping_add(i)).collect();
                ("bench-grid-zoo", lcl_scenario::catalog::zoo().families, sizes, seeds)
            }
            Workload::StorePods => ("bench-store-pods", vec![PODS], vec![self.cell_n()], vec![s]),
            Workload::Pi2Hard => return None,
        };
        Some(ScenarioSpec {
            name: name.into(),
            description: format!("benchmark workload {}", self.workload.name()),
            families,
            sizes,
            seeds,
            algos: ALL_ALGOS.to_vec(),
        })
    }

    /// The run-time switches `run_spec` gets: a fresh run store, certified
    /// outputs, and for `store-pods` the sharded store below the cell size.
    fn opts(&self, runs: &Path, snap: &Path) -> CliOpts {
        let mut args = vec!["--out".to_string(), runs.display().to_string(), "--certify".into()];
        if self.workload == Workload::StorePods {
            args.extend([
                "--shard".to_string(),
                "--snapshot-dir".into(),
                snap.display().to_string(),
                "--huge-threshold".into(),
                (self.cell_n() / 2).to_string(),
            ]);
        }
        let mut opts = CliOpts::from_args(args);
        opts.run_id = Some("pass".into());
        opts
    }
}

/// What one timed pass produced.
#[derive(Debug)]
pub struct PassOut {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// FNV-1a 64 of the rows as `--json` renders them.
    pub digest: u64,
    /// Certified outputs attempted (cells × algorithms, or solver runs).
    pub attempted: usize,
    /// Outputs that failed: a cell error, a certifier or `check_padded`
    /// violation, or a traced row that differs from the pass's row.
    pub failed: usize,
    /// Human-readable failure causes.
    pub errors: Vec<String>,
    /// Peak resident memory of the process at the end of the pass, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer spans and counts (traced passes only).
    pub ledger: Ledger,
}

/// The snapshot directory of a run's work directory.
fn snap_dir(work: &Path) -> PathBuf {
    work.join("snap")
}

/// Set-up before the timed pass: validates the spec and creates the fresh
/// snapshot directory; `store-pods` also streams its cell into the sharded
/// store (the write path). Returns the set-up's wall time in seconds and,
/// with `trace`, the write-path spans and a generation-only probe (run
/// after the set-up, outside its time).
///
/// # Errors
///
/// An invalid spec, or an I/O or generator failure writing the store.
pub fn setup(inp: &Inputs, work: &Path, trace: bool) -> Result<(f64, Ledger), String> {
    let start = Instant::now();
    let mut ledger = Ledger::default();
    if let Some(spec) = inp.spec() {
        spec.validate().map_err(|e| e.to_string())?;
    }
    let snap = snap_dir(work);
    std::fs::create_dir_all(&snap).map_err(|e| format!("create {}: {e}", snap.display()))?;
    if inp.workload != Workload::StorePods {
        return Ok((start.elapsed().as_secs_f64(), ledger));
    }
    let (n, seed) = (inp.cell_n(), inp.seed);
    let cache = SnapshotCache::open(&snap).map_err(|e| e.to_string())?;
    let store = ledger.time("snapshot.write_s", || cache.load_or_build_sharded(&PODS, n, seed))?;
    let setup_s = start.elapsed().as_secs_f64();
    if trace {
        ledger.set("snapshot.bytes", ledger::dir_bytes(store.dir()) as f64);
        ledger.set("snapshot.shards", store.shard_count() as f64);
        // Generation alone: the same stream into a sink that only counts.
        let mut sink = CountingSink::default();
        ledger.time("gen.s", || PODS.build_into(n, seed, &mut sink)).map_err(|e| e.to_string())?;
        ledger.set("gen.edges", sink.edges as f64);
        ledger.derive();
    }
    Ok((setup_s, ledger))
}

/// A sink that counts what a generator emits and keeps nothing.
#[derive(Default)]
struct CountingSink {
    edges: usize,
}

impl GraphSink for CountingSink {
    fn add_nodes(&mut self, count: usize) {
        std::hint::black_box(count);
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        // Consume the endpoints, or the generator's work on them is dead
        // code the compiler may drop.
        std::hint::black_box((u, v));
        self.edges += 1;
    }
}

/// Runs the workload's timed pass once, persisting into the fresh run
/// store `runs`. With `trace`, times each layer call and runs the
/// workload's probes after the pass.
///
/// # Errors
///
/// A failure that leaves no rows to check: the run could not be persisted,
/// or a traced store could not be opened.
pub fn pass(inp: &Inputs, work: &Path, runs: &Path, trace: bool) -> Result<PassOut, String> {
    let snap = snap_dir(work);
    let mut out = match (inp.workload, trace) {
        (Workload::Pi2Hard, _) => pi2_pass(inp, runs, trace)?,
        (Workload::CellRr3, true) => traced_cell_pass(inp, runs, &snap)?,
        _ => scenario_pass(inp, runs, &snap, trace)?,
    };
    if trace {
        match inp.workload {
            Workload::GridZoo => replay_probe(inp, &mut out),
            Workload::StorePods => store_probe(inp, &snap, &mut out)?,
            Workload::CellRr3 | Workload::Pi2Hard => {}
        }
        out.ledger.derive();
    }
    Ok(out)
}

fn spec_of(inp: &Inputs) -> ScenarioSpec {
    inp.spec().expect("scenario workloads carry a spec")
}

/// The untraced pass of the scenario workloads — `run_spec` then
/// `Report::persist`, exactly what `scenarios run` does — and, with
/// `trace`, the engine and scheduler metrics read back from the manifest
/// meta it records.
fn scenario_pass(inp: &Inputs, runs: &Path, snap: &Path, trace: bool) -> Result<PassOut, String> {
    let spec = spec_of(inp);
    let opts = inp.opts(runs, snap);
    let cells = expand(&spec, false);
    let mut ledger = Ledger::default();
    // The plan run_spec is about to make (same spec, same empty history).
    let plan = if trace {
        let runner = BatchRunner::from_opts(&opts);
        let start = Instant::now();
        let plan = schedule_for(&cells, &spec.algos, &opts, &runner);
        ledger.set("sched.plan_ms", start.elapsed().as_secs_f64() * 1e3);
        plan
    } else {
        None
    };
    let cpu0 = ledger::cpu_seconds();
    let start = Instant::now();
    let (report, failures) = ledger.time("engine.run_s", || run_spec(&spec, &opts));
    let cpu = ledger::cpu_seconds() - cpu0;
    let persisted = ledger
        .time("persist.s", || report.persist(&experiment_name(&spec), &opts))
        .map_err(|e| format!("persist: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = ledger::peak_rss_mb();
    if trace {
        let workers = lcl_bench::pool_width() as f64;
        let run_s = ledger.get("engine.run_s");
        let cell_ms = meta_values(&report, "cell_ms:");
        ledger.set("persist.bytes", ledger::dir_bytes(&persisted) as f64);
        ledger.set("engine.cells", cells.len() as f64);
        ledger.set("engine.items", cells.len() as f64);
        ledger.set("engine.cell_ms_p50", ledger::median(&cell_ms));
        ledger.set("engine.cell_ms_p90", ledger::quantile(&cell_ms, 0.9));
        ledger.set("engine.busy_frac", cell_ms.iter().sum::<f64>() / 1e3 / (run_s * workers));
        ledger.set("engine.cpu_util", cpu / (run_s * workers));
        let predicted = meta_values(&report, "predicted_ms:");
        let actual = meta_values(&report, "actual_ms:");
        let errs: Vec<f64> = predicted
            .iter()
            .zip(&actual)
            .filter(|(_, &a)| a > 0.0)
            .map(|(p, a)| (p - a).abs() / a)
            .collect();
        ledger.set("sched.pred_err", ledger::median(&errs));
        if let Some(plan) = plan {
            ledger.set("sched.makespan_over_ideal", makespan_over_ideal(&plan.groups, &cell_ms));
        }
        ledger.set("trace.spans_s", run_s + ledger.get("persist.s"));
    }
    let attempted = cells.len() * spec.algos.len();
    Ok(PassOut {
        wall_s,
        digest: ledger::fnv64(report.render(true).as_bytes()),
        attempted,
        failed: attempted.saturating_sub(report.rows().len()),
        errors: failures.iter().map(ToString::to_string).collect(),
        peak_rss_mb,
        ledger,
    })
}

/// The values of every manifest meta key starting with `prefix`, in the
/// order the run recorded them (canonical cell order).
fn meta_values(report: &Report, prefix: &str) -> Vec<f64> {
    report
        .meta()
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .filter_map(|(_, v)| v.parse().ok())
        .collect()
}

/// The busiest worker's measured time over the ideal even split.
fn makespan_over_ideal(groups: &[Vec<usize>], item_ms: &[f64]) -> f64 {
    let total: f64 = item_ms.iter().sum();
    let workers = groups.len().max(1) as f64;
    let busiest = groups
        .iter()
        .map(|g| g.iter().map(|&i| item_ms.get(i).copied().unwrap_or(0.0)).sum::<f64>())
        .fold(0.0, f64::max);
    if total > 0.0 {
        busiest / (total / workers)
    } else {
        0.0
    }
}

/// One algorithm's result on one graph (a whole cell or one shard), enough
/// to build the row `run_spec` emits.
struct AlgoPart {
    rounds: u32,
    /// Nodes in the MIS (Luby) or matched (matching).
    count: u64,
    /// Distinct colors (Linial).
    palette: Vec<u32>,
}

/// Runs one algorithm on `net`, certifies its output with `lcl_certify`,
/// and records the algorithm and certifier spans.
fn run_algo<X: lcl_local::NodeExecutor>(
    algo: AlgoSpec,
    net: &Network,
    seed: u64,
    exec: &X,
    ledger: &mut Ledger,
) -> Result<AlgoPart, String> {
    let g = net.graph();
    let n = net.len() as f64;
    let certify = |ledger: &mut Ledger,
                   sol: Result<lcl_certify::Solution, lcl_certify::Violation>| {
        ledger
            .time("certify.s", || sol.and_then(|s| lcl_certify::certify(g, &s)))
            .map(|_| ())
            .map_err(|v| {
                ledger.add("certify.violations", 1.0);
                format!("{}: certify [{}]: {v}", algo.slug(), v.kind())
            })
    };
    let fail = |e: lcl_algos::error::AlgoError| format!("{}: {e}", algo.slug());
    match algo {
        AlgoSpec::Luby => {
            let out = ledger
                .time("rounds.luby_s", || lcl_algos::luby_rounds::try_run_with(net, seed, exec))
                .map_err(fail)?;
            ledger.add("rounds.luby_rounds", f64::from(out.rounds));
            ledger.add("rounds.node_rounds", n * f64::from(out.rounds));
            certify(ledger, out.solution(g))?;
            let count = g.nodes().filter(|&v| *out.labeling.node(v) == MisLabel::InSet).count();
            Ok(AlgoPart { rounds: out.rounds, count: count as u64, palette: Vec::new() })
        }
        AlgoSpec::Matching => {
            let out = ledger
                .time("rounds.matching_s", || {
                    lcl_algos::matching_rounds::try_run_with(net, seed, exec)
                })
                .map_err(fail)?;
            ledger.add("rounds.matching_rounds", f64::from(out.rounds));
            ledger.add("rounds.node_rounds", n * f64::from(out.rounds));
            certify(ledger, out.solution(g))?;
            let count =
                g.nodes().filter(|&v| *out.labeling.node(v) == MatchingLabel::Matched).count();
            Ok(AlgoPart { rounds: out.rounds, count: count as u64, palette: Vec::new() })
        }
        AlgoSpec::Linial => {
            let out = ledger
                .time("views.linial_s", || lcl_algos::linial::try_run_with(net, exec))
                .map_err(fail)?;
            ledger.add("views.linial_rounds", f64::from(out.total_rounds()));
            ledger.add("views.nodes", n);
            certify(ledger, Ok(out.solution(g)))?;
            let mut palette = out.colors.clone();
            palette.sort_unstable();
            palette.dedup();
            Ok(AlgoPart { rounds: out.total_rounds(), count: 0, palette })
        }
    }
}

/// The row `run_spec` emits for one algorithm, from its per-part results
/// (one part for an in-memory cell, one per shard for a store-backed one):
/// rounds are the max over parts, counts sum, palettes unite.
fn assemble_row(
    cell: &Cell<FamilySpec>,
    algo: AlgoSpec,
    parts: &[&AlgoPart],
    nodes: usize,
    edges: usize,
) -> Row {
    let n = nodes as f64;
    let total: u64 = parts.iter().map(|p| p.count).sum();
    let metric = match algo {
        AlgoSpec::Luby => ("mis_frac".to_string(), total as f64 / n),
        AlgoSpec::Matching => ("matched_frac".to_string(), total as f64 / n),
        AlgoSpec::Linial => {
            let mut palette: Vec<u32> = parts.iter().flat_map(|p| p.palette.clone()).collect();
            palette.sort_unstable();
            palette.dedup();
            ("colors".to_string(), palette.len() as f64)
        }
    };
    Row {
        experiment: EXPERIMENT_ID,
        series: format!("{}/{}", cell.family.slug(), algo.slug()),
        n: cell.n,
        seed: cell.seed,
        measured: f64::from(parts.iter().map(|p| p.rounds).max().unwrap_or(0)),
        extra: vec![metric, ("nodes".to_string(), n), ("edges".to_string(), edges as f64)],
    }
}

/// One in-memory cell, layer by layer: build, hash, network, then every
/// algorithm with its certifier. Returns the rows and the instance hash.
fn decomposed_cell<X: lcl_local::NodeExecutor>(
    cell: &Cell<FamilySpec>,
    algos: &[AlgoSpec],
    exec: &X,
    ledger: &mut Ledger,
) -> Result<(Vec<Row>, u64), String> {
    let g =
        ledger.time("gen.s", || cell.family.build(cell.n, cell.seed)).map_err(|e| e.to_string())?;
    ledger.add("gen.edges", g.edge_count() as f64);
    let hash = ledger.time("snapshot.hash_s", || g.content_hash());
    let net =
        ledger.time("network.s", || Network::new(g, IdAssignment::Shuffled { seed: cell.seed }));
    let (nodes, edges) = (net.len(), net.graph().edge_count());
    let mut rows = Vec::with_capacity(algos.len());
    for &algo in algos {
        let part = run_algo(algo, &net, cell.seed, exec, ledger)?;
        rows.push(assemble_row(cell, algo, &[&part], nodes, edges));
    }
    Ok((rows, hash))
}

/// Traced `cell-rr3-2e20`: the same cell through the same scheduled engine
/// dispatch `run_spec` uses, with the cell measured layer by layer instead
/// of inside `run_spec`, then persisted with the same provenance.
fn traced_cell_pass(inp: &Inputs, runs: &Path, snap: &Path) -> Result<PassOut, String> {
    let spec = spec_of(inp);
    let opts = inp.opts(runs, snap);
    let cells = expand(&spec, false);
    let runner = BatchRunner::from_opts(&opts);
    let exec = runner.node_executor();
    let cell_ledgers = Mutex::new(Ledger::default());
    let hashes = Mutex::new(Vec::new());
    let start = Instant::now();
    let groups = schedule_for(&cells, &spec.algos, &opts, &runner)
        .map_or_else(|| vec![(0..cells.len()).collect()], |s| s.groups);
    let run = runner.try_run_groups(&cells, &groups, |cell| {
        let mut ledger = Ledger::default();
        let out = decomposed_cell(cell, &spec.algos, &exec, &mut ledger);
        cell_ledgers.lock().expect("ledger lock poisoned by a panicked cell").merge(ledger);
        out.map(|(rows, hash)| {
            hashes.lock().expect("hash lock poisoned by a panicked cell").push((cell.key(), hash));
            rows
        })
    });
    let mut ledger = cell_ledgers.into_inner().expect("ledger lock poisoned by a panicked cell");
    let mut report = run.report;
    report.push_meta("scenario", spec.name.clone());
    report.push_meta("spec_hash", spec.hash());
    report.push_meta("spec_json", spec.to_json());
    for (key, hash) in hashes.into_inner().expect("hash lock poisoned by a panicked cell") {
        report.push_meta(format!("graph:{key}"), format!("{hash:016x}"));
    }
    let persisted = ledger
        .time("persist.s", || report.persist(&experiment_name(&spec), &opts))
        .map_err(|e| format!("persist: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = ledger::peak_rss_mb();
    ledger.set("persist.bytes", ledger::dir_bytes(&persisted) as f64);
    ledger.set("engine.cells", cells.len() as f64);
    ledger.set("engine.items", cells.len() as f64);
    ledger.set("engine.cell_ms_p50", ledger::median(&run.cell_ms));
    ledger.set("engine.cell_ms_p90", ledger::quantile(&run.cell_ms, 0.9));
    let spans = [
        "gen.s",
        "snapshot.hash_s",
        "network.s",
        "rounds.luby_s",
        "rounds.matching_s",
        "views.linial_s",
        "certify.s",
        "persist.s",
    ];
    ledger.set("trace.spans_s", spans.iter().map(|k| ledger.get(k)).sum());
    let attempted = cells.len() * spec.algos.len();
    Ok(PassOut {
        wall_s,
        digest: ledger::fnv64(report.render(true).as_bytes()),
        attempted,
        failed: attempted.saturating_sub(report.rows().len()),
        errors: run.failures.iter().map(|(k, e)| format!("{k}: {e}")).collect(),
        peak_rss_mb,
        ledger,
    })
}

/// `pi2-hard`, traced or not (its spans are a handful of clock reads): the
/// hard instance, the deterministic and randomized `Π₂` solvers on the
/// pooled executor, `check_padded` on both outputs, and the persisted rows
/// `landscape` prints for the same cell. With `trace`, the gadget probe
/// runs after the pass.
fn pi2_pass(inp: &Inputs, runs: &Path, trace: bool) -> Result<PassOut, String> {
    let seed = inp.seed;
    let mut ledger = Ledger::default();
    let exec = EngineExec::Parallel;
    let start = Instant::now();
    let inst = ledger.time("gen.s", || hard_pi2_instance(inp.pi2_target(), 3, seed));
    let PaddedInstance { graph, input, gadget_of, .. } = inst;
    ledger.add("gen.edges", graph.edge_count() as f64);
    let net = ledger.time("network.s", || Network::new(graph, IdAssignment::Shuffled { seed }));
    let (det_solver, rand_solver) = (pi2_det(3), pi2_rand(3));
    let det = ledger.time("padding.det_s", || det_solver.run_with(&net, &input, seed, &exec));
    let rand = ledger.time("padding.rand_s", || rand_solver.run_with(&net, &input, seed, &exec));
    let violations = ledger.time("certify.s", || {
        [
            check_padded(&det_solver.problem, net.graph(), &input, &det.output).len(),
            check_padded(&rand_solver.problem, net.graph(), &input, &rand.output).len(),
        ]
    });
    let real_n = net.len();
    let mut report = Report::new();
    report.push(Row {
        experiment: "E1",
        series: "pi2-det".into(),
        n: real_n,
        seed,
        measured: f64::from(det.stats.physical_rounds()),
        extra: vec![
            ("virtual".into(), f64::from(det.stats.inner_rounds)),
            ("diam".into(), f64::from(det.stats.gadget_diameter)),
        ],
    });
    report.push(Row {
        experiment: "E1",
        series: "pi2-rand".into(),
        n: real_n,
        seed,
        measured: f64::from(rand.stats.physical_rounds()),
        extra: vec![("virtual".into(), f64::from(rand.stats.inner_rounds))],
    });
    let mut opts = CliOpts::from_args(["--out".to_string(), runs.display().to_string()]);
    opts.run_id = Some("pass".into());
    let persisted = ledger
        .time("persist.s", || report.persist("bench-pi2-hard", &opts))
        .map_err(|e| format!("persist: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = ledger::peak_rss_mb();
    let mut errors = Vec::new();
    for (series, v) in ["pi2-det", "pi2-rand"].iter().zip(violations) {
        if v > 0 {
            errors.push(format!("{series}: check_padded found {v} violation(s)"));
        }
    }
    let mut out = PassOut {
        wall_s,
        digest: ledger::fnv64(report.render(true).as_bytes()),
        attempted: 2,
        failed: errors.len(),
        errors,
        peak_rss_mb,
        ledger: Ledger::default(),
    };
    if trace {
        ledger.add("certify.violations", violations.iter().sum::<usize>() as f64);
        ledger.set("padding.det_rounds", f64::from(det.stats.physical_rounds()));
        ledger.set("padding.rand_rounds", f64::from(rand.stats.physical_rounds()));
        ledger.set("persist.bytes", ledger::dir_bytes(&persisted) as f64);
        let spans =
            ["gen.s", "network.s", "padding.det_s", "padding.rand_s", "certify.s", "persist.s"];
        ledger.set("trace.spans_s", spans.iter().map(|k| ledger.get(k)).sum());
        gadget_probe(net.graph(), &input, &gadget_of, &mut ledger, &mut out);
        out.ledger = ledger;
    }
    Ok(out)
}

/// Carves every gadget out of the padded graph by `gadget_of` and times
/// the two per-gadget calls the solver makes: `LogGadgetFamily::verify`
/// and `lcl_graph::diameter`. Every gadget of a hard instance is valid; an
/// invalid one is a failed operation.
fn gadget_probe(
    g: &Graph,
    input: &lcl_core::Labeling<PadIn<()>>,
    gadget_of: &[u32],
    ledger: &mut Ledger,
    out: &mut PassOut,
) {
    let count = gadget_of.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for v in g.nodes() {
        members[gadget_of[v.index()] as usize].push(v);
    }
    let family = LogGadgetFamily::new(3);
    let mut local = vec![0u32; g.node_count()];
    let mut invalid = 0usize;
    for nodes in &members {
        for (i, &v) in nodes.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        let mut sub = Graph::with_capacity(nodes.len(), 0);
        sub.add_nodes(nodes.len());
        let mut node_in = Vec::with_capacity(nodes.len());
        let (mut edge_in, mut half_in) = (Vec::new(), Vec::new());
        let mut malformed = false;
        for &v in nodes {
            node_in.push(input.node(v).gadget.unwrap_or(GadgetIn::Edge));
            malformed |= input.node(v).gadget.is_none();
            for &h in g.ports(v) {
                // Gadget-internal edges only, each once from its A side.
                if input.edge(h.edge()).port_edge || h.side() != Side::A {
                    continue;
                }
                let [a, b] = g.endpoints(h.edge());
                sub.add_edge(NodeId(local[a.index()]), NodeId(local[b.index()]));
                edge_in.push(GadgetIn::Edge);
                let half = |side| input.half(HalfEdge::new(h.edge(), side)).gadget;
                let (ha, hb) = (half(Side::A), half(Side::B));
                malformed |= ha.is_none() || hb.is_none();
                half_in.push([ha.unwrap_or(GadgetIn::Edge), hb.unwrap_or(GadgetIn::Edge)]);
            }
        }
        let sub_in = lcl_core::Labeling::from_parts(node_in, edge_in, half_in);
        let ok = ledger.time("gadget.verify_s", || family.verify(&sub, &sub_in, g.node_count()));
        let _diameter = ledger.time("gadget.diameter_s", || lcl_graph::diameter(&sub));
        if malformed || !ok.all_ok() {
            invalid += 1;
        }
    }
    ledger.set("gadget.count", count as f64);
    out.attempted += 1;
    if invalid > 0 {
        out.failed += 1;
        out.errors.push(format!("gadget probe: {invalid} of {count} gadgets fail verification"));
    }
}

/// Traced `grid-zoo`, after the pass: every cell again, sequentially and
/// layer by layer, giving the per-layer split `run_spec` hides; the replayed
/// rows must equal the pass's rows.
fn replay_probe(inp: &Inputs, out: &mut PassOut) {
    let spec = spec_of(inp);
    let mut report = Report::new();
    let mut errors = Vec::new();
    for cell in expand(&spec, false) {
        match decomposed_cell(&cell, &spec.algos, &lcl_local::Sequential, &mut out.ledger) {
            Ok((rows, _)) => rows.into_iter().for_each(|r| report.push(r)),
            Err(e) => errors.push(format!("replay {}: {e}", cell.key())),
        }
    }
    check_probe_rows(&report, errors, "replay", out);
}

/// Counts a probe whose rows differ from the pass's rows as one failed
/// operation.
fn check_probe_rows(report: &Report, mut errors: Vec<String>, probe: &str, out: &mut PassOut) {
    out.attempted += 1;
    if ledger::fnv64(report.render(true).as_bytes()) != out.digest {
        errors.push(format!("{probe} probe rows differ from the pass rows"));
    }
    if !errors.is_empty() {
        out.failed += 1;
        out.errors.extend(errors);
    }
}

/// Traced `store-pods`, after the pass: opens the published store, loads
/// every shard image and runs every algorithm on it with the cell's global
/// ids and announced `(n, Δ)` — the read path shard by shard. The
/// reassembled rows must equal the pass's rows. Also replays the
/// scheduler's item placement over the measured shard times.
fn store_probe(inp: &Inputs, snap: &Path, out: &mut PassOut) -> Result<(), String> {
    let spec = spec_of(inp);
    let cell = expand(&spec, false).remove(0);
    let ledger = &mut out.ledger;
    let dir = SnapshotCache::open(snap).map_err(|e| e.to_string())?.sharded_dir_for(
        &cell.family,
        cell.n,
        cell.seed,
    );
    let store = ledger
        .time("snapshot.open_s", || ShardedSnapshot::open(&dir))
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    let ids = assigned_ids(store.node_count(), IdAssignment::Shuffled { seed: cell.seed });
    let mut parts: Vec<Vec<AlgoPart>> = Vec::with_capacity(store.shard_count());
    let mut item_ms = Vec::with_capacity(store.shard_count());
    let mut errors = Vec::new();
    for s in 0..store.shard_count() {
        let start = Instant::now();
        let g = match ledger.time("snapshot.load_s", || store.load_shard(s)) {
            Ok(g) => g,
            Err(e) => {
                errors.push(format!("load shard {s}: {e}"));
                continue;
            }
        };
        let bytes =
            std::fs::metadata(store.dir().join(&store.shard_meta(s).file)).map_or(0, |m| m.len());
        ledger.add("snapshot.load_bytes", bytes as f64);
        let shard_ids: Vec<u64> = store.members(s).iter().map(|&v| ids[v as usize]).collect();
        let net = ledger.time("network.s", || {
            Network::with_ids(g, shard_ids)
                .with_known_n(store.node_count())
                .with_announced_max_degree(store.max_degree())
        });
        let mut shard = Vec::with_capacity(spec.algos.len());
        for &algo in &spec.algos {
            match run_algo(algo, &net, cell.seed, &lcl_local::Sequential, ledger) {
                Ok(p) => shard.push(p),
                Err(e) => errors.push(format!("shard {s}: {e}")),
            }
        }
        parts.push(shard);
        item_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    ledger.set("snapshot.shards", store.shard_count() as f64);
    ledger.set("engine.items", store.shard_count() as f64);
    // The item placement run_spec plans for the shards (an empty run store
    // means static costs), scored with the measured shard times.
    let algo_set = spec.algos.iter().map(AlgoSpec::slug).collect::<Vec<_>>().join("+");
    let classes: Vec<(String, String, usize)> = (0..store.shard_count())
        .map(|s| (cell.family.slug(), algo_set.clone(), store.shard_meta(s).n))
        .collect();
    let statics: Vec<f64> = classes
        .iter()
        .map(|(_, _, n)| {
            cell.family.cost_weight(*n) * spec.algos.iter().map(|a| a.cost_factor(*n)).sum::<f64>()
        })
        .collect();
    let plan = build_schedule(
        &predict_costs(&CostModel::fit(&[]), &classes, &statics),
        lcl_bench::pool_width(),
    );
    ledger.set("sched.makespan_over_ideal", makespan_over_ideal(&plan.groups, &item_ms));
    let mut report = Report::new();
    if errors.is_empty() {
        for (k, &algo) in spec.algos.iter().enumerate() {
            let algo_parts: Vec<&AlgoPart> = parts.iter().map(|p| &p[k]).collect();
            report.push(assemble_row(
                &cell,
                algo,
                &algo_parts,
                store.node_count(),
                store.edge_count(),
            ));
        }
    }
    check_probe_rows(&report, errors, "store", out);
    Ok(())
}
