//! Worker-pool dispatch overhead: what a `map_nodes` fan-out costs on top
//! of the work itself, across work-item sizes, against the same map on the
//! calling thread. The `tiny`-granularity rows are fine-grained per-node
//! simulation work, where dispatch cost dominates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_bench::Parallel;
use lcl_local::{NodeExecutor, Sequential};

/// A few integer mixes: roughly the cost of a tiny per-node decision.
fn tiny_work(i: usize) -> u64 {
    let mut z = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..8 {
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (z >> 27);
    }
    z
}

/// A medium-sized loop: a few hundred dependent multiply-adds.
fn medium_work(i: usize) -> u64 {
    (0..512).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool-dispatch");
    group.sample_size(30);
    for &n in &[256usize, 4096] {
        group.bench_with_input(BenchmarkId::new("tiny-seq", n), &n, |b, &n| {
            b.iter(|| black_box(Sequential.map_nodes(n, tiny_work)));
        });
        group.bench_with_input(BenchmarkId::new("tiny-pool", n), &n, |b, &n| {
            b.iter(|| black_box(Parallel.map_nodes(n, tiny_work)));
        });
        group.bench_with_input(BenchmarkId::new("medium-seq", n), &n, |b, &n| {
            b.iter(|| black_box(Sequential.map_nodes(n, medium_work)));
        });
        group.bench_with_input(BenchmarkId::new("medium-pool", n), &n, |b, &n| {
            b.iter(|| black_box(Parallel.map_nodes(n, medium_work)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
