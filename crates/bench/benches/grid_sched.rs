//! Grid-scheduler acceptance bench: makespan-balanced dispatch must beat
//! the pool's row-major chunk claiming by ≥ 1.5× on a skewed grid.
//!
//! The workload is the regime the scheduler exists for: one dominant cell
//! (`n = 2¹⁸`) parked at index 0 of a 256-cell grid whose other 255 cells
//! are small (`n = 3000`). Chunked claiming hands worker 0 a contiguous
//! quarter of the grid — the huge cell *plus* 63 smalls — so the whole
//! pool waits on that straggler; the scheduler isolates the huge cell on
//! its own worker and spreads the smalls across the rest. Cells sleep for
//! `n` microseconds instead of burning CPU, so the measured makespan is a
//! pure function of placement and stays meaningful on single-core CI
//! runners where concurrent compute cells would contend.
//!
//! Identity is asserted before timing: chunked, scheduled, and sequential
//! runs must render byte-identical reports on the exact grid being timed,
//! or the comparison is meaningless.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_bench::{build_schedule, grid, BatchRunner, Cell, Row};
use std::time::{Duration, Instant};

/// Grid size of the acceptance workload.
const CELLS: usize = 256;
/// The dominant cell's size: sleeps `2¹⁸` µs ≈ 262 ms.
const BIG_N: usize = 1 << 18;
/// Every other cell's size: sleeps 3 ms.
const SMALL_N: usize = 3000;
/// Worker count the acceptance ratio is stated for.
const WORKERS: usize = 4;

/// The skewed grid: one huge cell at index 0, `cells - 1` smalls.
fn skewed(cells: usize, big_n: usize, small_n: usize) -> Vec<Cell<&'static str>> {
    let mut cells = grid(&["sleep"], &[small_n], &(1..=cells as u64).collect::<Vec<_>>());
    cells[0].n = big_n;
    cells
}

/// Measures one cell: sleep `n` microseconds, emit one deterministic row.
fn measure(cell: &Cell<&str>) -> Result<Vec<Row>, String> {
    std::thread::sleep(Duration::from_micros(cell.n as u64));
    Ok(vec![Row {
        experiment: "GS",
        series: cell.family.to_string(),
        n: cell.n,
        seed: cell.seed,
        measured: cell.n as f64,
        extra: vec![("slept_us".into(), cell.n as f64)],
    }])
}

/// Wall-clock of one full grid pass under the given dispatch (`None`:
/// one single-cell group per cell, i.e. chunked claiming).
fn pass(
    runner: &BatchRunner,
    cells: &[Cell<&'static str>],
    groups: Option<&[Vec<usize>]>,
) -> (String, Duration) {
    let chunked: Vec<Vec<usize>> = (0..cells.len()).map(|i| vec![i]).collect();
    let t = Instant::now();
    let run = runner.try_run_groups(cells, groups.unwrap_or(&chunked), measure);
    assert!(run.failures.is_empty());
    (run.report.render(true), t.elapsed())
}

fn bench_grid_sched(c: &mut Criterion) {
    // Pin the pool before its first use: the acceptance ratio is stated
    // for 4 workers, and sleeps don't contend, so this is sound even on
    // a single-core runner.
    std::env::set_var("LCL_POOL_THREADS", "4");
    let par = BatchRunner::parallel();

    // Criterion trend group on a scaled-down skew (32 cells, 16 ms big
    // cell) so the trajectory stays cheap to sample.
    let small_grid = skewed(32, 1 << 14, 1000);
    let costs: Vec<f64> = small_grid.iter().map(|c| c.n as f64).collect();
    let plan = build_schedule(&costs, WORKERS);
    let mut group = c.benchmark_group("grid-sched");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("chunked", "32-cell-skew"), &small_grid, |b, g| {
        b.iter(|| pass(&par, g, None));
    });
    group.bench_with_input(BenchmarkId::new("scheduled", "32-cell-skew"), &small_grid, |b, g| {
        b.iter(|| pass(&par, g, Some(&plan.groups)));
    });
    group.finish();

    // The acceptance grid. Schedule from predicted costs proportional to
    // each cell's sleep — what the fitted model converges to after one
    // training run, and what the static n-weighted fallback already says.
    let cells = skewed(CELLS, BIG_N, SMALL_N);
    let costs: Vec<f64> = cells.iter().map(|c| c.n as f64).collect();
    let plan = build_schedule(&costs, WORKERS);
    assert_eq!(plan.workers, WORKERS);

    // Identity first: all three dispatches must render byte-identically.
    let (seq_rows, _) = pass(&BatchRunner::sequential(), &cells, None);
    let (chunk_rows, _) = pass(&par, &cells, None);
    let (sched_rows, _) = pass(&par, &cells, Some(&plan.groups));
    assert_eq!(chunk_rows, seq_rows, "chunked run diverged from sequential");
    assert_eq!(sched_rows, seq_rows, "scheduled run diverged from sequential");

    // The acceptance criterion, asserted so a scheduling regression fails
    // loudly when the bench binary runs: balanced placement finishes the
    // skewed grid ≥ 1.5× sooner than chunk claiming. Both sides are
    // warmed and take the minimum of 3 timed passes.
    let timed_min = |f: &mut dyn FnMut() -> (String, Duration)| {
        let (warm, mut best) = f();
        for _ in 0..2 {
            let (rows, t) = f();
            assert_eq!(rows, warm);
            best = best.min(t);
        }
        best
    };
    let chunked = timed_min(&mut || pass(&par, &cells, None));
    let scheduled = timed_min(&mut || pass(&par, &cells, Some(&plan.groups)));
    let ratio = chunked.as_secs_f64() / scheduled.as_secs_f64().max(1e-9);
    println!(
        "acceptance: chunked {chunked:?} vs scheduled {scheduled:?} ({ratio:.2}x, \
         predicted makespan {:.1} ms)",
        plan.predicted_makespan_ms / 1000.0
    );
    // Publish the machine-readable trajectory point before asserting, so
    // a failing gate still records what it measured, with the scheduled
    // side's absolute wall time next to the ratio.
    let gate = lcl_report::BenchGate::new("grid_sched", 1.5, ratio, BIG_N, "1x2^18+255x3000-sleep")
        .with_candidate_ms(scheduled.as_secs_f64() * 1e3);
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_grid_sched.json not written: {e}"),
    }
    assert!(
        ratio >= 1.5,
        "scheduled dispatch must be >= 1.5x faster on the skewed grid: \
         chunked {chunked:?}, scheduled {scheduled:?}"
    );
}

criterion_group!(benches, bench_grid_sched);
criterion_main!(benches);
