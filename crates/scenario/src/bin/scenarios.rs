//! `scenarios` — the declarative-workload CLI.
//!
//! ```text
//! scenarios [--spec-dir DIR] list
//! scenarios [--spec-dir DIR] describe <name>
//! scenarios [--spec-dir DIR] run <name> [--quick --seq --json --certify
//!                                        --shard --sched --no-sched
//!                                        --snapshot-dir DIR --huge-threshold N
//!                                        --out DIR --run-id ID --no-persist]
//! ```
//!
//! `run` expands the named spec into its `(family, n, seed)` grid,
//! streams it through the deterministic batch engine, and exits through
//! `Report::finish` — the run lands in the run store under
//! `scenario-<name>` with the spec's content hash, canonical JSON, and
//! each cell's instance content hash (`graph:<cell>`) in the manifest
//! meta. `--certify` re-checks every algorithm output with the
//! independent `lcl_certify` checkers before accepting its row; failed
//! cells are reported individually and the process exits nonzero.
//! `--shard` measures every in-memory cell by connected component: each
//! component is a part network carrying the cell's ids and `(n, Δ)`, and
//! the cell's executor claims whole components, for every algorithm
//! (bit-identical rows).
//! Pooled runs are placed by the cost-model grid scheduler by default:
//! per-cell costs predicted from persisted timing history (static
//! degree-weighted estimates until history exists) drive a
//! makespan-balanced worker assignment, and the manifest records
//! `predicted_ms:`/`actual_ms:` per cell so `results show` can report the
//! prediction error. Rows stay byte-identical to `--seq` regardless.
//! `--no-sched` restores contiguous chunk claiming; `--sched` forces
//! planning even under `--seq`.
//! `--snapshot-dir DIR` (or `LCL_SNAPSHOT_DIR`) caches built instances as
//! frozen snapshots keyed by `(family, knobs, n, seed)` — cache hits map
//! the graph back in instead of re-generating it, with a hit/miss note on
//! stderr. With both `--shard` and a snapshot dir, cells above
//! `--huge-threshold N` nodes (default `2^20`) are streamed into
//! per-component sharded stores and measured shard by shard — the
//! instance is never materialized whole, and the shards enter the
//! scheduler pool as individual work items next to the small cells.
//! A `--huge-threshold` that is not a node count or a snapshot dir that
//! cannot be created is rejected up front: one line on stderr, exit 2.
//! Specs resolve from `--spec-dir` (default `scenarios/`) first,
//! then the built-in presets; a file spec shadows a builtin of the same
//! name.

use lcl_bench::CliOpts;
use lcl_scenario::{catalog, expand, experiment_name, run_spec, MeasureOpts, ScenarioSpec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: scenarios [--spec-dir DIR] <command>
  list                 catalog: file specs (scenarios/*.json) + built-in presets
  describe <name>      spec JSON, grid summary, and content hash
  run <name> [flags]   expand + run + persist (common flags: --quick --seq
                       --json --certify --shard --sched --no-sched
                       --snapshot-dir DIR --huge-threshold N
                       --out DIR --run-id ID --no-persist;
                       pooled runs use the cost-model grid scheduler unless
                       --no-sched, --sched forces planning even with --seq;
                       --shard + --snapshot-dir streams cells above the huge
                       threshold into per-component stores measured shard
                       by shard)";

fn main() -> ExitCode {
    let opts = CliOpts::parse();
    let dir = PathBuf::from(opts.value_of("--spec-dir").unwrap_or(lcl_scenario::DEFAULT_SPEC_DIR));
    let positional = opts.positional();
    match positional.as_slice() {
        ["list"] => cmd_list(&dir),
        ["describe", name] => cmd_describe(&dir, name, opts.quick),
        ["run", name] => cmd_run(&dir, name, &opts),
        _ => {
            eprintln!("scenarios: missing or unknown command\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn resolve(dir: &std::path::Path, name: &str) -> Result<ScenarioSpec, String> {
    match lcl_scenario::find(name, dir) {
        Ok(Some(spec)) => {
            spec.validate().map_err(|e| e.to_string())?;
            Ok(spec)
        }
        Ok(None) => {
            Err(format!("no scenario `{name}` (try `scenarios list`; spec dir: {})", dir.display()))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_list(dir: &std::path::Path) -> ExitCode {
    let specs = match catalog(dir) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:>8} {:>6} {:>6} {:>6}  description",
        "name", "families", "sizes", "seeds", "algos"
    );
    for s in specs {
        println!(
            "{:<16} {:>8} {:>6} {:>6} {:>6}  {}",
            s.name,
            s.families.len(),
            s.sizes.len(),
            s.seeds.len(),
            s.algos.len(),
            s.description
        );
    }
    ExitCode::SUCCESS
}

fn cmd_describe(dir: &std::path::Path, name: &str, quick: bool) -> ExitCode {
    let spec = match resolve(dir, name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::from(2);
        }
    };
    println!("name         {}", spec.name);
    println!("description  {}", spec.description);
    println!("spec-hash    {}", spec.hash());
    println!("experiment   {}", experiment_name(&spec));
    for f in &spec.families {
        println!("family       {:<18} {}", f.slug(), f.describe());
    }
    println!("sizes        {:?}", spec.sizes);
    println!("seeds        {:?}", spec.seeds);
    println!("algos        {}", spec.algos.iter().map(|a| a.slug()).collect::<Vec<_>>().join(", "));
    let cells = expand(&spec, quick);
    println!(
        "grid         {} cells ({} rows){}",
        cells.len(),
        cells.len() * spec.algos.len(),
        if quick { " [--quick]" } else { "" }
    );
    println!("spec-json    {}", spec.to_json());
    ExitCode::SUCCESS
}

fn cmd_run(dir: &std::path::Path, name: &str, opts: &CliOpts) -> ExitCode {
    // Bad run options are rejected before any cell runs: `run_spec` would
    // only fail every cell with the same message.
    let spec = match resolve(dir, name).and_then(|spec| MeasureOpts::from_cli(opts).map(|_| spec)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, failures) = run_spec(&spec, opts);
    report.finish(&experiment_name(&spec), opts);
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("scenarios: cell failed: {f}");
        }
        eprintln!(
            "scenarios: {} of {} cells failed",
            failures.len(),
            expand(&spec, opts.quick).len()
        );
        ExitCode::FAILURE
    }
}
