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
//! makespan-balanced worker assignment, and once history exists the
//! manifest records `predicted_ms:`/`actual_ms:` per cell so `results
//! show` can report the prediction error. Rows stay byte-identical to
//! `--seq` regardless.
//! `--no-sched` restores contiguous chunk claiming; `--sched` forces
//! planning even under `--seq`.
//! `--snapshot-dir DIR` caches built instances as frozen snapshots keyed
//! by `(family, knobs, n, seed)` — cache hits map the graph back in
//! instead of re-generating it, with a hit/miss note on stderr. With both
//! `--shard` and a snapshot dir, cells above `--huge-threshold N` nodes
//! (default `2^20`) are streamed into per-component sharded stores and
//! measured shard by shard — the instance is never materialized whole,
//! and the shards enter the scheduler pool as individual work items next
//! to the small cells.
//! A `--huge-threshold` that is not a node count or a snapshot dir that
//! cannot be created is rejected up front: one line on stderr, exit 2.
//! Specs resolve from `--spec-dir` (default `scenarios/`) first,
//! then the built-in presets; a file spec shadows a builtin of the same
//! name.
//!
//! `list` and `describe` write through one buffered writer whose errors
//! are checked, and `run` prints its rows through `Report::finish`, which
//! checks them too: a reader that closes the pipe early
//! (`scenarios list | head -1`) ends the command with exit 0 instead of a
//! panic, and `run` still persists its run.

use lcl_bench::CliOpts;
use lcl_scenario::{catalog, expand, experiment_name, run_spec, MeasureOpts, ScenarioSpec};
use std::io::{self, BufWriter, Write};
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
    let mut out = BufWriter::new(io::stdout());
    let result = match positional.as_slice() {
        ["list"] => cmd_list(&dir, &mut out),
        ["describe", name] => cmd_describe(&dir, name, opts.quick, &mut out),
        ["run", name] => Ok(cmd_run(&dir, name, &opts)),
        _ => {
            eprintln!("scenarios: missing or unknown command\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader went away (`| head`): nothing left to say, not a failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenarios: {e}");
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

fn cmd_list(dir: &std::path::Path, out: &mut impl Write) -> io::Result<ExitCode> {
    let specs = match catalog(dir) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    writeln!(
        out,
        "{:<16} {:>8} {:>6} {:>6} {:>6}  description",
        "name", "families", "sizes", "seeds", "algos"
    )?;
    for s in specs {
        writeln!(
            out,
            "{:<16} {:>8} {:>6} {:>6} {:>6}  {}",
            s.name,
            s.families.len(),
            s.sizes.len(),
            s.seeds.len(),
            s.algos.len(),
            s.description
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_describe(
    dir: &std::path::Path,
    name: &str,
    quick: bool,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let spec = match resolve(dir, name) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    writeln!(out, "name         {}", spec.name)?;
    writeln!(out, "description  {}", spec.description)?;
    writeln!(out, "spec-hash    {}", spec.hash())?;
    writeln!(out, "experiment   {}", experiment_name(&spec))?;
    for f in &spec.families {
        writeln!(out, "family       {:<18} {}", f.slug(), f.describe())?;
    }
    writeln!(out, "sizes        {:?}", spec.sizes)?;
    writeln!(out, "seeds        {:?}", spec.seeds)?;
    let algos = spec.algos.iter().map(|a| a.slug()).collect::<Vec<_>>().join(", ");
    writeln!(out, "algos        {algos}")?;
    let cells = expand(&spec, quick);
    writeln!(
        out,
        "grid         {} cells ({} rows){}",
        cells.len(),
        cells.len() * spec.algos.len(),
        if quick { " [--quick]" } else { "" }
    )?;
    writeln!(out, "spec-json    {}", spec.to_json())?;
    Ok(ExitCode::SUCCESS)
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
