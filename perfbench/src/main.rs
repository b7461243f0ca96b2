//! `lcl-perfbench`: the worker process behind `perfbench/run.py`.
//!
//! ```text
//! lcl-perfbench setup  --workload W --seed S [--scale full|tiny] --work DIR [--trace 0|1]
//! lcl-perfbench pass   --workload W --seed S [--scale full|tiny] --work DIR --runs DIR [--trace 0|1]
//! lcl-perfbench verify --runs DIR
//! ```
//!
//! Each subcommand prints one JSON object on stdout; `run.py` runs every
//! set-up, pass and verification in its own process so that peak memory
//! is measured per pass. It calls only the public API of the workspace
//! crates.

mod ledger;
mod workload;

use lcl_report::RunStore;
use ledger::{json_num, json_str};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Inputs, Scale, Workload};

const USAGE: &str = "usage: lcl-perfbench setup|pass|verify --workload W --seed S \
                     [--scale full|tiny] --work DIR [--runs DIR] [--trace 0|1]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("lcl-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The value following `flag`, if any.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value(args, flag).ok_or_else(|| format!("missing {flag}\n{USAGE}"))
}

fn inputs(args: &[String]) -> Result<Inputs, String> {
    let name = required(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = required(args, "--seed")?;
    let seed = seed.parse().map_err(|_| format!("seed `{seed}` is not a u64"))?;
    let scale = match value(args, "--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "tiny" => Scale::Tiny,
        other => return Err(format!("unknown scale `{other}`")),
    };
    Ok(Inputs { workload, seed, scale })
}

fn run(args: &[String]) -> Result<String, String> {
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    match args.first().map(String::as_str) {
        Some("setup") => {
            let work = PathBuf::from(required(args, "--work")?);
            let (setup_s, ledger) = workload::setup(&inputs(args)?, &work, trace)?;
            Ok(format!("{{\"setup_s\":{},\"layers\":{}}}", json_num(setup_s), ledger.to_json()))
        }
        Some("pass") => {
            let inp = inputs(args)?;
            let work = PathBuf::from(required(args, "--work")?);
            let runs = PathBuf::from(required(args, "--runs")?);
            let out = workload::pass(&inp, &work, &runs, trace)?;
            let errors: Vec<String> = out.errors.iter().take(20).map(|e| json_str(e)).collect();
            Ok(format!(
                "{{\"wall_s\":{},\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\
                 \"errors\":[{}],\"peak_rss_mb\":{},\"layers\":{}}}",
                json_num(out.wall_s),
                out.digest,
                out.attempted,
                out.failed,
                errors.join(","),
                json_num(out.peak_rss_mb),
                out.ledger.to_json()
            ))
        }
        Some("verify") => verify(Path::new(required(args, "--runs")?)),
        Some("rr-attempts") => rr_attempts(args),
        _ => Err(USAGE.to_string()),
    }
}

/// How many pairings `gen::random_regular(n, d, seed)` draws before one is
/// simple (0 if none of the first `--max`): the same attempt sequence the
/// generator walks, through its public multigraph step. `cell_seeds.py`
/// uses it to pick the `cell-rr3-2e20` seed table.
fn rr_attempts(args: &[String]) -> Result<String, String> {
    let num = |flag: &str| -> Result<u64, String> {
        let v = required(args, flag)?;
        v.parse().map_err(|_| format!("{flag} `{v}` is not a number"))
    };
    let (n, d, seed, max) =
        (num("--n")? as usize, num("--d")? as usize, num("--seed")?, num("--max")?);
    for i in 0..max {
        let g = lcl_graph::gen::random_regular_multigraph(n, d, seed.wrapping_add(i * 0x9E37_79B9))
            .map_err(|e| e.to_string())?;
        if !g.has_multi_edges_or_loops() {
            return Ok(format!("{{\"attempts\":{}}}", i + 1));
        }
    }
    Ok("{\"attempts\":0}".to_string())
}

/// Replays the one run persisted under `runs` with `verify_run`, repeating
/// the call until a quarter second has passed (once for any real replay)
/// and reporting the median time.
fn verify(runs: &Path) -> Result<String, String> {
    let run = RunStore::new(runs)
        .list()
        .map_err(|e| format!("list {}: {e}", runs.display()))?
        .into_iter()
        .next()
        .ok_or_else(|| format!("no persisted run under {}", runs.display()))?;
    let mut times = Vec::new();
    let start = Instant::now();
    let verified = loop {
        let t = Instant::now();
        let v = lcl_scenario::verify_run(&run).map_err(|e| format!("verify: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= 0.25 || times.len() >= 1000 {
            break v;
        }
    };
    let violations: Vec<String> =
        verified.violations.iter().take(20).map(|v| json_str(&v.to_string())).collect();
    Ok(format!(
        "{{\"verify_s\":{},\"reps\":{},\"rows\":{},\"replayed\":{},\"violation_count\":{},\
         \"violations\":[{}]}}",
        json_num(ledger::median(&times)),
        times.len(),
        verified.row_count,
        verified.replayed,
        verified.violations.len(),
        violations.join(",")
    ))
}
