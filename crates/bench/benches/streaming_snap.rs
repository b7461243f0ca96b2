//! Streaming-snapshot pool acceptance bench: shard-level dispatch of a
//! huge cell must beat whole-cell chunk claiming by ≥ 1.5× on a mixed
//! huge+small grid.
//!
//! This is the scheduling half of the sharded-store story. A huge cell
//! frozen as a 16-shard store enters the pool as 16 independent work
//! items; the old chunked path claims the whole cell as one item, so
//! whichever worker draws it serializes 16 shards of work while the rest
//! of the pool drains the smalls and idles. The workload mirrors the
//! mixed grid `run_spec` dispatches: one huge cell of 16 parts × 16 ms
//! next to 60 small single-part cells × 4 ms, on a 4-worker pool. Parts
//! sleep instead of burning CPU, so the measured makespan is a pure
//! function of placement and stays meaningful on single-core CI runners.
//!
//! Identity is asserted before timing: the parts run must render
//! byte-identically to the sequential whole-cell reference on the exact
//! grid being timed, or the comparison is meaningless.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_bench::{build_schedule, grid, BatchRunner, Cell, Row};
use std::time::{Duration, Instant};

/// Shards of the huge cell — matches `DEFAULT_MAX_SHARDS / 4` and the
/// store's LPT packing of a 64-component instance.
const HUGE_PARTS: usize = 16;
/// Sleep per huge-cell shard, µs (16 ms; whole cell 256 ms).
const PART_US: usize = 16_000;
/// Sleep per small cell, µs (4 ms).
const SMALL_US: usize = 4_000;
/// Small single-part cells alongside the huge one.
const SMALLS: usize = 60;
/// Worker count the acceptance ratio is stated for.
const WORKERS: usize = 4;

/// The mixed grid: cell 0 is huge (`n` = its total sleep in µs), the
/// rest are smalls. `n` doubles as the cost input, exactly as the
/// scenario layer feeds shard sizes from the store manifest.
fn mixed() -> Vec<Cell<&'static str>> {
    let mut cells = grid(&["sleep"], &[SMALL_US], &(1..=(SMALLS as u64 + 1)).collect::<Vec<_>>());
    cells[0].n = HUGE_PARTS * PART_US;
    cells
}

/// Part counts: the huge cell splits into its shards, smalls stay whole.
fn parts_of(cells: &[Cell<&'static str>]) -> Vec<usize> {
    let mut parts = vec![1; cells.len()];
    parts[0] = HUGE_PARTS;
    parts
}

/// One deterministic row per cell — identical whichever dispatch ran.
fn row_for(cell: &Cell<&str>) -> Row {
    Row {
        experiment: "SS",
        series: cell.family.to_string(),
        n: cell.n,
        seed: cell.seed,
        measured: cell.n as f64,
        extra: vec![("slept_us".into(), cell.n as f64)],
    }
}

/// Whole-cell measurement: sleep the cell's full budget in one claim.
fn measure_whole(cell: &Cell<&str>) -> Result<Vec<Row>, String> {
    std::thread::sleep(Duration::from_micros(cell.n as u64));
    Ok(vec![row_for(cell)])
}

/// Wall-clock of one whole-cell pass (chunk claiming or sequential): one
/// single-cell group per cell.
fn pass_whole(runner: &BatchRunner, cells: &[Cell<&'static str>]) -> (String, Duration) {
    let chunked: Vec<Vec<usize>> = (0..cells.len()).map(|i| vec![i]).collect();
    let t = Instant::now();
    let run = runner.try_run_groups(cells, &chunked, measure_whole);
    assert!(run.failures.is_empty());
    (run.report.render(true), t.elapsed())
}

/// Wall-clock of one parts pass under the given item placement.
fn pass_parts(
    runner: &BatchRunner,
    cells: &[Cell<&'static str>],
    parts: &[usize],
    groups: &[Vec<usize>],
) -> (String, Duration) {
    let t = Instant::now();
    let run = runner.try_run_parts(
        cells,
        parts,
        groups,
        |cell, _part| {
            let us = if cell == 0 { PART_US } else { cells[cell].n };
            std::thread::sleep(Duration::from_micros(us as u64));
            Ok::<usize, String>(us)
        },
        |cell, slept: Vec<usize>| {
            assert_eq!(slept.iter().sum::<usize>(), cells[cell].n, "parts must cover the cell");
            Ok(vec![row_for(&cells[cell])])
        },
    );
    assert!(run.failures.is_empty());
    (run.report.render(true), t.elapsed())
}

/// Per-item costs the scheduler sees: shard sleeps for the huge cell
/// (read off the store manifest in production), whole sleeps for smalls.
fn item_costs(cells: &[Cell<&'static str>], parts: &[usize]) -> Vec<f64> {
    let mut costs = Vec::new();
    for (cell, &p) in parts.iter().enumerate() {
        for _ in 0..p {
            costs.push(if cell == 0 { PART_US as f64 } else { cells[cell].n as f64 });
        }
    }
    costs
}

fn bench_streaming_snap(c: &mut Criterion) {
    // Pin the pool before its first use: the acceptance ratio is stated
    // for 4 workers, and sleeps don't contend, so this is sound even on
    // a single-core runner.
    std::env::set_var("LCL_POOL_THREADS", "4");
    let par = BatchRunner::parallel();

    let cells = mixed();
    let parts = parts_of(&cells);
    let plan = build_schedule(&item_costs(&cells, &parts), WORKERS);
    assert_eq!(plan.workers, WORKERS);

    // Criterion trend group on a scaled-down grid (4 ms shards, 1 ms
    // smalls) so the trajectory stays cheap to sample.
    {
        let mut small_cells = cells.clone();
        small_cells[0].n = HUGE_PARTS * 4_000;
        for cell in small_cells.iter_mut().skip(1) {
            cell.n = 1_000;
        }
        let small_parts = parts_of(&small_cells);
        let mut small_costs = Vec::new();
        for (cell, &p) in small_parts.iter().enumerate() {
            for _ in 0..p {
                small_costs.push(if cell == 0 { 4_000.0 } else { small_cells[cell].n as f64 });
            }
        }
        let small_plan = build_schedule(&small_costs, WORKERS);
        let mut group = c.benchmark_group("streaming-snap");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("whole-cell", "61-cell-mix"), &(), |b, ()| {
            b.iter(|| pass_whole(&par, &small_cells));
        });
        group.bench_with_input(BenchmarkId::new("sharded", "61-cell-mix"), &(), |b, ()| {
            b.iter(|| {
                let run = par.try_run_parts(
                    &small_cells,
                    &small_parts,
                    &small_plan.groups,
                    |cell, _part| {
                        let us = if cell == 0 { 4_000 } else { small_cells[cell].n };
                        std::thread::sleep(Duration::from_micros(us as u64));
                        Ok::<usize, String>(us)
                    },
                    |cell, _slept| Ok(vec![row_for(&small_cells[cell])]),
                );
                assert!(run.failures.is_empty());
            });
        });
        group.finish();
    }

    // Identity first: chunked whole-cell, sequential whole-cell, and the
    // scheduled parts run must all render byte-identically.
    let (seq_rows, _) = pass_whole(&BatchRunner::sequential(), &cells);
    let (chunk_rows, _) = pass_whole(&par, &cells);
    let (parts_rows, _) = pass_parts(&par, &cells, &parts, &plan.groups);
    assert_eq!(chunk_rows, seq_rows, "chunked run diverged from sequential");
    assert_eq!(parts_rows, seq_rows, "sharded parts run diverged from sequential");

    // The acceptance criterion: shard-level placement finishes the mixed
    // grid ≥ 1.5× sooner than claiming the huge cell whole. Both sides
    // are warmed and take the minimum of 3 timed passes.
    let timed_min = |f: &mut dyn FnMut() -> (String, Duration)| {
        let (warm, mut best) = f();
        for _ in 0..2 {
            let (rows, t) = f();
            assert_eq!(rows, warm);
            best = best.min(t);
        }
        best
    };
    let whole = timed_min(&mut || pass_whole(&par, &cells));
    let sharded = timed_min(&mut || pass_parts(&par, &cells, &parts, &plan.groups));
    let ratio = whole.as_secs_f64() / sharded.as_secs_f64().max(1e-9);
    println!(
        "acceptance: whole-cell {whole:?} vs sharded {sharded:?} ({ratio:.2}x, \
         predicted makespan {:.1} ms)",
        plan.predicted_makespan_ms / 1000.0
    );
    // Publish the machine-readable trajectory point before asserting, so
    // a failing gate still records what it measured.
    let gate = lcl_report::BenchGate::new(
        "streaming_snap",
        1.5,
        ratio,
        HUGE_PARTS * PART_US,
        "16x16ms-shards+60x4ms-sleep",
    )
    .with_candidate_ms(sharded.as_secs_f64() * 1e3);
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_streaming_snap.json not written: {e}"),
    }
    assert!(
        ratio >= 1.5,
        "sharded dispatch must be >= 1.5x faster on the mixed grid: \
         whole {whole:?}, sharded {sharded:?}"
    );
}

criterion_group!(benches, bench_streaming_snap);
criterion_main!(benches);
