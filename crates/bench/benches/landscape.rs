//! Criterion counterpart of E1: wall-clock cost of the landscape
//! algorithms at fixed sizes (the *round* measurements live in
//! `bin/landscape.rs`; these benches track simulator throughput).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_algos::{linial, luby, sinkless_det, sinkless_rand};
use lcl_graph::gen;
use lcl_local::{IdAssignment, Network};

fn bench_landscape(c: &mut Criterion) {
    let mut group = c.benchmark_group("landscape");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        let g = gen::random_regular(n, 3, 1).expect("generable");
        let net = Network::new(g, IdAssignment::Shuffled { seed: 1 });
        group.bench_with_input(BenchmarkId::new("sinkless-det", n), &net, |b, net| {
            b.iter(|| sinkless_det::run(net, &sinkless_det::Params::default()));
        });
        group.bench_with_input(BenchmarkId::new("sinkless-rand", n), &net, |b, net| {
            b.iter(|| sinkless_rand::run(net, &sinkless_rand::Params::default(), 7));
        });
        group.bench_with_input(BenchmarkId::new("luby-mis", n), &net, |b, net| {
            b.iter(|| luby::run(net, 7).unwrap());
        });
        let cyc = Network::new(gen::cycle(n), IdAssignment::Shuffled { seed: 1 });
        group.bench_with_input(BenchmarkId::new("linial-3col", n), &cyc, |b, net| {
            b.iter(|| linial::run(net));
        });
        // A store shard of 8-cliques (Δ = 7) announced as part of an
        // n = 2²⁰ instance: two Linial steps, then 281 eliminated classes.
        let pods = gen::pods(n / 8, 8, 0, 1).expect("valid pods parameters");
        let shard = Network::new(pods, IdAssignment::Shuffled { seed: 1 }).with_known_n(1 << 20);
        group.bench_with_input(BenchmarkId::new("linial-pods-shard", n), &shard, |b, net| {
            b.iter(|| linial::run(net));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_landscape);
criterion_main!(benches);
