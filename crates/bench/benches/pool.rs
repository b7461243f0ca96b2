//! Worker-pool dispatch overhead: what a `map_nodes` fan-out costs on top
//! of the work itself, across work-item sizes. The persistent pool
//! replaced a scoped-thread-per-call shim precisely to shrink the
//! `tiny`-granularity rows — fine-grained per-node simulation work no
//! longer pays a spawn/join per engine call.

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

/// The pre-pool shim's dispatch strategy, kept as a measured baseline:
/// spawn `workers` scoped threads per call, chunk by index. This is what
/// every fine-grained engine call used to pay.
fn scoped_spawn_map<F: Fn(usize) -> u64 + Sync>(len: usize, workers: usize, f: F) -> Vec<u64> {
    let mut slots: Vec<u64> = vec![0; len];
    let workers = workers.min(len).max(1);
    let chunk = len.div_ceil(workers);
    std::thread::scope(|scope| {
        for (t, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = f(t * chunk + off);
                }
            });
        }
    });
    slots
}

fn bench_dispatch(c: &mut Criterion) {
    let pool_width = rayon_width();
    let mut group = c.benchmark_group("pool-dispatch");
    group.sample_size(30);
    for &n in &[256usize, 4096] {
        group.bench_with_input(BenchmarkId::new("tiny-seq", n), &n, |b, &n| {
            b.iter(|| black_box(Sequential.map_nodes(n, tiny_work)));
        });
        group.bench_with_input(BenchmarkId::new("tiny-spawn-baseline", n), &n, |b, &n| {
            b.iter(|| black_box(scoped_spawn_map(n, pool_width, tiny_work)));
        });
        group.bench_with_input(BenchmarkId::new("tiny-pool", n), &n, |b, &n| {
            b.iter(|| black_box(Parallel.map_nodes(n, tiny_work)));
        });
        group.bench_with_input(BenchmarkId::new("medium-seq", n), &n, |b, &n| {
            b.iter(|| black_box(Sequential.map_nodes(n, medium_work)));
        });
        group.bench_with_input(BenchmarkId::new("medium-spawn-baseline", n), &n, |b, &n| {
            b.iter(|| black_box(scoped_spawn_map(n, pool_width, medium_work)));
        });
        group.bench_with_input(BenchmarkId::new("medium-pool", n), &n, |b, &n| {
            b.iter(|| black_box(Parallel.map_nodes(n, medium_work)));
        });
    }
    group.finish();
}

/// The pool's parallelism (what the old shim would have spawned per call).
fn rayon_width() -> usize {
    // `current_num_threads` is the pool size; at least 2 so the spawn
    // baseline actually spawns even on single-core runners.
    rayon::current_num_threads().max(2)
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
