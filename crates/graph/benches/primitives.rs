//! Criterion benchmarks for the graph substrate's hot primitives:
//! shortest-cycle search (the inner loop of deterministic sinkless
//! orientation), exact eccentricities (the bit-parallel kernel behind
//! `diameter` and the gadget verifier's radii) on an expander and on a
//! cycle, its worst case, and random 3-regular generation, rejected
//! pairings included (its id names the edge count, so time / edges is the
//! local ns per edge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_graph::{gen, CycleSearch, NodeId};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph-primitives");
    group.sample_size(20);
    for &n in &[1024usize, 8192] {
        let g = gen::random_regular(n, 3, 1).expect("generable");
        let s = CycleSearch::default();
        group.bench_with_input(BenchmarkId::new("girth-capped-25", n), &g, |b, g| {
            b.iter(|| {
                g.edges()
                    .take(64)
                    .filter_map(|e| s.shortest_len_through_edge_capped(g, e, 25))
                    .count()
            });
        });
        group.bench_with_input(BenchmarkId::new("bfs-full", n), &g, |b, g| {
            b.iter(|| lcl_graph::bfs_distances(g, NodeId(0)));
        });
        group.bench_with_input(BenchmarkId::new("eccentricities", n), &g, |b, g| {
            b.iter(|| lcl_graph::eccentricities(g));
        });
        let cycle = gen::cycle(n);
        group.bench_with_input(BenchmarkId::new("eccentricities-cycle", n), &cycle, |b, g| {
            b.iter(|| lcl_graph::eccentricities(g));
        });
    }
    for &n in &[1usize << 16, 1 << 18] {
        let id = BenchmarkId::new("random-regular-d3", format!("{n} ({} edges)", 3 * n / 2));
        group.bench_with_input(id, &n, |b, &n| {
            b.iter(|| gen::random_regular(n, 3, 1).expect("generable"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
