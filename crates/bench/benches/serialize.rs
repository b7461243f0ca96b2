//! Serializer acceptance bench for the persistent results subsystem's I/O
//! layer: producing a large report's `rows.jsonl` bytes must stay under an
//! absolute cost per row.
//!
//! A large report (the shape `rows.jsonl` persistence and `--json` output
//! actually produce: many rows, each with a couple of `extra` fields)
//! serializes two ways:
//!
//! * `streaming` — [`serde_json::to_string`]: one `String` per row;
//! * `to-writer` — [`serde_json::to_writer`]: the persistence path,
//!   streaming all rows into one byte buffer, reused across passes.
//!
//! The gate asserts `to_writer`'s nanoseconds per row on the 30,000-row
//! report against [`NS_PER_ROW_BOUND`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_bench::Row;

/// Rows in the gate's report.
const ROWS: usize = 30_000;

/// The gate: the minimum of [`TIMED_PASSES`] `to_writer` passes over the
/// [`ROWS`]-row report, divided by [`ROWS`], may not exceed this many
/// nanoseconds. Ten runs on a 2-core x86-64 container read 402–476 ns per
/// row; the bound is the largest reading times 1.26, the largest host
/// drift between measurement sets that `perfbench/BENCHMARK.md` records.
const NS_PER_ROW_BOUND: f64 = 600.0;

/// Timed passes, about three seconds in all. On the host above, load on
/// the other core slows a pass by up to 1.7× for as long as it lasts, so
/// only a minimum over a long enough window reads the serializer rather
/// than that load.
const TIMED_PASSES: usize = 200;

fn big_rows(count: usize) -> Vec<Row> {
    (0..count)
        .map(|i| Row {
            experiment: "E1",
            series: format!("series-{}", i % 7),
            n: 256 << (i % 8),
            seed: i as u64,
            measured: (i as f64).sqrt() * 1.25,
            extra: vec![
                ("phase1".into(), (i % 13) as f64),
                ("finish".into(), (i % 5) as f64 * 0.5),
            ],
        })
        .collect()
}

fn render_streaming(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("row serializes"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Writes `rows.jsonl` bytes into `out`, reusing its capacity.
fn render_to_writer(rows: &[Row], out: &mut Vec<u8>) {
    out.clear();
    for r in rows {
        serde_json::to_writer(&mut *out, r).expect("row serializes");
        out.push(b'\n');
    }
}

fn bench_serialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("report-serialize");
    group.sample_size(10);
    for count in [1_000usize, ROWS] {
        let rows = big_rows(count);
        group.bench_with_input(BenchmarkId::new("streaming", count), &rows, |b, rows| {
            b.iter(|| render_streaming(rows));
        });
        group.bench_with_input(BenchmarkId::new("to-writer", count), &rows, |b, rows| {
            let mut out = Vec::new();
            b.iter(|| render_to_writer(rows, &mut out));
        });
    }
    group.finish();

    // The acceptance criterion, asserted so a perf regression fails loudly
    // when the bench binary runs (CI executes it): producing the
    // `rows.jsonl` bytes of a large report through `to_writer` costs at
    // most `NS_PER_ROW_BOUND` per row. The pass is warmed first, and every
    // pass must produce the same bytes.
    let rows = big_rows(ROWS);
    let mut warm = Vec::new();
    render_to_writer(&rows, &mut warm);
    let mut out = Vec::with_capacity(warm.len());
    let mut best = std::time::Duration::MAX;
    for _ in 0..TIMED_PASSES {
        let t = std::time::Instant::now();
        render_to_writer(&rows, &mut out);
        best = best.min(t.elapsed());
        assert_eq!(out, warm);
    }
    let ns = best.as_secs_f64() * 1e9 / ROWS as f64;
    println!("acceptance: to_writer {best:?} ({ns:.0} ns/row, bound {NS_PER_ROW_BOUND:.0})");
    // Publish the machine-readable trajectory point before asserting, so a
    // failing gate still records what it measured.
    let gate =
        lcl_report::BenchGate::new("serialize", NS_PER_ROW_BOUND, ns, "ns/row", ROWS, "rows-jsonl");
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_serialize.json not written: {e}"),
    }
    assert!(
        ns <= NS_PER_ROW_BOUND,
        "to_writer must cost at most {NS_PER_ROW_BOUND:.0} ns per row: \
         {ROWS} rows took {best:?} ({ns:.0} ns per row)"
    );
}

criterion_group!(benches, bench_serialize);
criterion_main!(benches);
