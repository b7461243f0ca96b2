//! `results` — the longitudinal-tracking CLI over the persistent run store.
//!
//! ```text
//! results [--out DIR] list
//! results [--out DIR] show <run-id>
//! results [--out DIR] diff <run-a> <run-b> [--tol X]
//! results [--out DIR] trend <experiment> <series>
//! results [--out DIR] verify <run-id>
//! ```
//!
//! `diff` exits nonzero when the runs differ, so it doubles as a CI gate
//! (parallel vs `--seq` runs of the same grid must diff empty).
//!
//! `show` surfaces the grid scheduler's aggregate prediction error
//! (`sched-pred`) when the manifest carries `predicted_ms:`/`actual_ms:`
//! meta pairs; `trend` appends a `pred-err` column, padded with `-` for
//! runs without them — including pre-scheduler manifests, whose missing
//! `meta` field deserializes as empty.
//!
//! `verify` is the independent-certifier gate: it re-derives the
//! manifest's grid summary from `rows.jsonl`, and for scenario runs
//! regenerates every instance from its `(family, n, seed)` coordinates
//! and replays every algorithm — with the `lcl_certify` checkers on —
//! comparing the recomputed rows exactly. It does NOT trust the process
//! that wrote the run. Exit codes: 0 certified, 1 violations found,
//! 2 cannot verify (missing run, unreadable rows).
//!
//! All output goes through one buffered writer whose errors are checked:
//! a reader that closes the pipe early (`results show <run> | head -1`)
//! ends the command with exit 0 instead of a panic.

use lcl_report::{diff_rows, trend, Delta, RunStore, StoredRun};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: results [--out DIR] <command>
  list                          all persisted runs
  show <run-id>                 manifest and rows of one run
  diff <run-a> <run-b> [--tol X]   per-row field deltas (exit 1 if any)
  trend <experiment> <series>   measured-vs-n across an experiment's runs
  verify <run-id>               independently re-derive and certify a run
                                (exit 1 on any violation)";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let root = match take_value_flag(&mut args, "--out") {
        Ok(dir) => dir.map_or_else(RunStore::default_root, Into::into),
        Err(msg) => return usage_error(&msg),
    };
    let store = RunStore::new(root);
    let mut out = BufWriter::new(io::stdout().lock());
    let out = &mut out;
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&store, out),
        Some("show") => match args.get(1) {
            Some(id) => cmd_show(&store, id, out),
            None => return usage_error("show: missing <run-id>"),
        },
        Some("diff") => {
            let tol = match take_value_flag(&mut args, "--tol") {
                Ok(t) => match t.map(|t| t.parse::<f64>()) {
                    None => 0.0,
                    Some(Ok(t)) => t,
                    Some(Err(e)) => return usage_error(&format!("--tol: {e}")),
                },
                Err(msg) => return usage_error(&msg),
            };
            match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => cmd_diff(&store, a, b, tol, out),
                _ => return usage_error("diff: missing <run-a> <run-b>"),
            }
        }
        Some("trend") => match (args.get(1), args.get(2)) {
            (Some(exp), Some(series)) => cmd_trend(&store, exp, series, out),
            _ => return usage_error("trend: missing <experiment> <series>"),
        },
        Some("verify") => match args.get(1) {
            Some(id) => cmd_verify(&store, id, out),
            None => return usage_error("verify: missing <run-id>"),
        },
        _ => return usage_error("missing command"),
    };
    match result.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader went away (`| head`): nothing left to say, not a failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("results: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("results: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Removes `flag VALUE` from `args`, returning the value if present.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn cmd_list(store: &RunStore, out: &mut impl Write) -> io::Result<ExitCode> {
    let runs = store.list()?;
    if runs.is_empty() {
        writeln!(out, "no runs under {}", store.root().display())?;
        return Ok(ExitCode::SUCCESS);
    }
    writeln!(
        out,
        "{:<16} {:<28} {:<20} {:>6}  {:<10} flags",
        "experiment", "run-id", "timestamp", "rows", "git"
    )?;
    for run in runs {
        let m = &run.manifest;
        let mut flags = Vec::new();
        if m.quick {
            flags.push("quick");
        }
        if m.sequential {
            flags.push("seq");
        }
        writeln!(
            out,
            "{:<16} {:<28} {:<20} {:>6}  {:<10} {}",
            m.experiment,
            m.run_id,
            m.timestamp_utc,
            m.row_count,
            &m.git_rev[..m.git_rev.len().min(10)],
            flags.join(",")
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn load(store: &RunStore, run_id: &str) -> io::Result<StoredRun> {
    store.find(run_id)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no run `{run_id}` under {}", store.root().display()),
        )
    })
}

fn cmd_show(store: &RunStore, run_id: &str, out: &mut impl Write) -> io::Result<ExitCode> {
    let run = load(store, run_id)?;
    let m = &run.manifest;
    writeln!(out, "experiment   {}", m.experiment)?;
    writeln!(out, "run-id       {}", m.run_id)?;
    writeln!(out, "timestamp    {}", m.timestamp_utc)?;
    writeln!(out, "git-rev      {}", m.git_rev)?;
    writeln!(out, "pool-width   {}", m.pool_width)?;
    writeln!(out, "quick/seq    {}/{}", m.quick, m.sequential)?;
    writeln!(out, "seeds        {:?}", m.seeds)?;
    writeln!(out, "sizes        {:?}", m.sizes)?;
    writeln!(out, "series       {}", m.series.join(", "))?;
    writeln!(out, "rows         {}", m.row_count)?;
    for (k, v) in &m.meta {
        writeln!(out, "meta         {k} = {v}")?;
    }
    if let Some(pe) = lcl_report::prediction_error(&m.meta) {
        writeln!(
            out,
            "sched-pred   {} cell(s), mean |rel err| {:.1}%, max {:.1}%",
            pe.cells,
            pe.mean_abs_rel * 100.0,
            pe.max_abs_rel * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "{:<4} {:<28} {:>9} {:>6} {:>12}  extra",
        "exp", "series", "n", "seed", "measured"
    )?;
    for r in run.rows()? {
        let extra = r.extra.iter().map(|(k, v)| format!("{k}={v:.2}")).collect::<Vec<_>>();
        writeln!(
            out,
            "{:<4} {:<28} {:>9} {:>6} {:>12.2}  {}",
            r.experiment,
            r.series,
            r.n,
            r.seed,
            r.measured,
            extra.join(" ")
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(
    store: &RunStore,
    a: &str,
    b: &str,
    tol: f64,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let run_a = load(store, a)?;
    let run_b = load(store, b)?;
    let deltas = diff_rows(&run_a.rows()?, &run_b.rows()?, tol);
    if deltas.is_empty() {
        writeln!(out, "runs `{a}` and `{b}` are identical (tol {tol})")?;
        return Ok(ExitCode::SUCCESS);
    }
    for d in &deltas {
        match d {
            Delta::OnlyInA(k) => writeln!(out, "only in {a}: {k}")?,
            Delta::OnlyInB(k) => writeln!(out, "only in {b}: {k}")?,
            Delta::Field { key, field, a: va, b: vb } => {
                writeln!(out, "{key}: {field} {va} -> {vb} (Δ {})", vb - va)?;
            }
        }
    }
    writeln!(out, "{} delta(s)", deltas.len())?;
    Ok(ExitCode::FAILURE)
}

fn cmd_verify(store: &RunStore, run_id: &str, out: &mut impl Write) -> io::Result<ExitCode> {
    let run = load(store, run_id)?;
    let v = lcl_scenario::verify_run(&run)?;
    writeln!(out, "run          {}/{}", run.manifest.experiment, run.manifest.run_id)?;
    writeln!(out, "rows         {}", v.row_count)?;
    writeln!(
        out,
        "replayed     {} (scenario rows re-run with independent certification)",
        v.replayed
    )?;
    if v.is_clean() {
        writeln!(out, "verdict      certified")?;
        return Ok(ExitCode::SUCCESS);
    }
    for x in &v.violations {
        writeln!(out, "violation    {x}")?;
    }
    writeln!(out, "verdict      REJECTED ({} violation(s))", v.violations.len())?;
    Ok(ExitCode::FAILURE)
}

fn cmd_trend(
    store: &RunStore,
    experiment: &str,
    series: &str,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let runs: Vec<StoredRun> =
        store.list()?.into_iter().filter(|r| r.manifest.experiment == experiment).collect();
    if runs.is_empty() {
        writeln!(out, "no runs for experiment `{experiment}` under {}", store.root().display())?;
        return Ok(ExitCode::SUCCESS);
    }
    let points = trend(&runs, series)?;
    if points.is_empty() {
        writeln!(out, "no rows for series `{series}` in {} run(s)", runs.len())?;
        return Ok(ExitCode::SUCCESS);
    }
    // Scheduler prediction error per run; "-" for runs without the
    // predicted/actual meta pairs (unscheduled or pre-scheduler runs).
    let pred_err: std::collections::HashMap<&str, String> = runs
        .iter()
        .map(|r| {
            let label = lcl_report::prediction_error(&r.manifest.meta)
                .map_or_else(|| "-".to_string(), |e| format!("{:.1}%", e.mean_abs_rel * 100.0));
            (r.manifest.run_id.as_str(), label)
        })
        .collect();
    writeln!(
        out,
        "{:<28} {:<20} {:>9} {:>12} {:>12} {:>12} {:>8} {:>9}",
        "run-id", "timestamp", "n", "mean", "p50", "p95", "samples", "pred-err"
    )?;
    for p in points {
        writeln!(
            out,
            "{:<28} {:<20} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>8} {:>9}",
            p.run_id,
            p.timestamp_utc,
            p.n,
            p.mean_measured,
            p.p50_measured,
            p.p95_measured,
            p.samples,
            pred_err.get(p.run_id.as_str()).map_or("-", String::as_str)
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
