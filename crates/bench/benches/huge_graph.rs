//! Huge-graph acceptance bench: the component-part sweep must stay under
//! an absolute cost per node on a disconnected multi-component instance.
//!
//! The workload is the regime `--shard` exists for: 256 components (half
//! caterpillar forests, half random lifts of a cycle base) totaling
//! `n = 2²⁰` nodes, run through `luby_rounds`. The component split
//! `scenarios run --shard` measures cells with
//! (`lcl_local::map_components`) hands the pool whole components: each
//! part runs the lean sequential frontier engine on scratch sized to the
//! part, so a component's tables stay cache-hot for all of its rounds and
//! no round-level synchronization exists at all. The gate asserts that
//! sweep's nanoseconds per node against [`SHARDED_NS_PER_NODE_BOUND`].
//!
//! The bench also times the engine's per-node executor path
//! (`run_rounds_with` over the pool) on the same instance, which fans
//! every round's frontier across workers and pays two synchronization
//! barriers per round (send, receive), and prints and records the ratio
//! of the two. The ratio is not asserted: it divides by the pooled path,
//! so every speed-up of the pooled engine would move the gate.
//!
//! Identity is asserted before timing: the parts' outputs, stitched back
//! in node order, and their max round count must be bit-identical to the
//! unsharded engine on the exact instance being timed, and so must the
//! pooled path's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_algos::luby_rounds::DistributedLuby;
use lcl_bench::Parallel;
use lcl_core::problems::MisLabel;
use lcl_graph::{gen, Components, Graph};
use lcl_local::{map_components, run_rounds, run_rounds_with, IdAssignment, Network, RoundOutcome};

/// Total node budget of the acceptance sweep.
const N_TOTAL: usize = 1 << 20;
/// Component count; each component holds `N_TOTAL / PARTS` nodes.
const PARTS: usize = 256;
/// The `luby_rounds` round cap for `known_n = 2²⁰`.
const CAP: u32 = 16 * (20 + 4);
/// The gate: the sharded sweep's minimum time over three sweeps, divided
/// by `N_TOTAL`, may not exceed this many nanoseconds. Ten runs on a
/// 2-core x86-64 container, before the pooled engine's set-up moved onto
/// the pool, read 159.5–219.8 ns per node; the bound is the largest
/// reading times 1.26, the largest host drift between measurement sets
/// that `perfbench/BENCHMARK.md` records. The pooled per-node path read
/// 430–509 ns per node in the same runs, over the bound.
const SHARDED_NS_PER_NODE_BOUND: f64 = 277.0;

/// The disconnected sweep instance: `parts` components of `part_n` nodes
/// each — even indices a half-leaves caterpillar, odd indices a random
/// lift of a cycle base — appended into one graph.
fn multi_component(parts: usize, part_n: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    for p in 0..parts {
        let pseed = seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if p % 2 == 0 {
            g.append(&gen::caterpillar(part_n / 2, part_n / 2, pseed));
        } else {
            // A k-lift of C₁₆ has 16k nodes; k = part_n / 16.
            g.append(&gen::random_lift(&gen::cycle(16), part_n / 16, pseed));
        }
    }
    g
}

fn network(parts: usize, part_n: usize) -> Network {
    Network::new(multi_component(parts, part_n, 11), IdAssignment::Shuffled { seed: 11 })
}

type LubyOutcome = RoundOutcome<(MisLabel, Option<usize>)>;

/// Digests outcomes so the work cannot be optimized out: the rounds of the
/// slowest part plus the MIS size over all parts.
fn digest(parts: &[LubyOutcome]) -> usize {
    assert!(parts.iter().all(|p| p.trace.completed), "Luby must complete within the cap");
    let in_set = |p: &LubyOutcome| {
        p.outputs.iter().filter(|o| matches!(o, Some((MisLabel::InSet, _)))).count()
    };
    let rounds = parts.iter().map(|p| p.trace.rounds).max().unwrap_or(0);
    rounds as usize + parts.iter().map(in_set).sum::<usize>()
}

fn run_unsharded(net: &Network, seed: u64) -> usize {
    digest(&[run_rounds_with(net, &DistributedLuby, seed, CAP, &Parallel)])
}

/// The component parts of `net`, each through the sequential engine,
/// fanned across the pool.
fn run_parts(net: &Network, seed: u64) -> (Components, Vec<LubyOutcome>) {
    map_components(net, &Parallel, |part| run_rounds(part, &DistributedLuby, seed, CAP))
        .expect("the sweep is multi-component")
}

fn run_sharded(net: &Network, seed: u64) -> usize {
    digest(&run_parts(net, seed).1)
}

fn bench_huge_graph(c: &mut Criterion) {
    // Criterion trend group at a scaled-down sweep (2¹⁶ nodes, 64
    // components) so the trajectory stays cheap to sample.
    let small = network(64, 1 << 10);
    let mut group = c.benchmark_group("huge-graph");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("per-node-pool", "n=2^16"), &small, |b, net| {
        b.iter(|| run_unsharded(net, 1));
    });
    group.bench_with_input(BenchmarkId::new("sharded", "n=2^16"), &small, |b, net| {
        b.iter(|| run_sharded(net, 1));
    });
    group.finish();
    drop(small);

    // The acceptance instance at full size.
    let net = network(PARTS, N_TOTAL / PARTS);
    assert!(
        Components::new(net.graph()).count() >= PARTS,
        "sweep must be genuinely multi-component"
    );
    assert_eq!(net.len(), N_TOTAL);

    // Identity first: the parts must be bit-identical to both engine
    // paths on the exact instance being timed.
    let plain = run_rounds(&net, &DistributedLuby, 7, CAP);
    let (comps, parts) = run_parts(&net, 7);
    assert_eq!(comps.count(), parts.len());
    for (c, part) in parts.iter().enumerate() {
        for (out, &v) in part.outputs.iter().zip(comps.members(c)) {
            assert_eq!(out, &plain.outputs[v.index()], "part {c} diverged from unsharded");
        }
        assert!(part.undecided.is_empty() && plain.undecided.is_empty());
    }
    let rounds = parts.iter().map(|p| p.trace.rounds).max();
    assert_eq!(rounds, Some(plain.trace.rounds), "part rounds diverged from unsharded");
    assert!(plain.trace.completed && parts.iter().all(|p| p.trace.completed));
    let pooled = run_rounds_with(&net, &DistributedLuby, 7, CAP, &Parallel);
    assert_eq!(pooled.outputs, plain.outputs, "pooled run diverged from unsharded");
    assert_eq!(pooled.trace, plain.trace);

    // The acceptance criterion, asserted so a perf regression fails loudly
    // when the bench binary runs: the component-part sweep costs at most
    // `SHARDED_NS_PER_NODE_BOUND` per node. Both paths are warmed and take
    // the minimum of 3 timed sweeps, so one scheduler hiccup cannot fail
    // the gate spuriously.
    let timed_min = |f: &mut dyn FnMut() -> usize| {
        let warm = f();
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            assert_eq!(f(), warm);
            best = best.min(t.elapsed());
        }
        (warm, best)
    };
    let (a, unsharded) = timed_min(&mut || run_unsharded(&net, 1));
    let (b, sharded) = timed_min(&mut || run_sharded(&net, 1));
    assert_eq!(a, b, "paths disagreed on the sweep digest");
    let ratio = unsharded.as_secs_f64() / sharded.as_secs_f64().max(1e-9);
    let ns_per_node = sharded.as_secs_f64() * 1e9 / N_TOTAL as f64;
    println!(
        "acceptance: sharded {sharded:?} ({ns_per_node:.0} ns/node, bound \
         {SHARDED_NS_PER_NODE_BOUND:.0}) vs per-node pool {unsharded:?} ({ratio:.1}x)"
    );
    // Publish the machine-readable trajectory point before asserting, so a
    // failing gate still records what it measured. The ratio is recorded,
    // not asserted, so its floor is 0.
    let gate = lcl_report::BenchGate::new(
        "huge_graph",
        0.0,
        ratio,
        N_TOTAL,
        "luby:256x(caterpillar|lift)",
    )
    .with_candidate_ms(sharded.as_secs_f64() * 1e3);
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_huge_graph.json not written: {e}"),
    }
    assert!(
        ns_per_node <= SHARDED_NS_PER_NODE_BOUND,
        "the component-part sweep must cost at most {SHARDED_NS_PER_NODE_BOUND:.0} ns per node: \
         sharded {sharded:?} is {ns_per_node:.0} ns per node"
    );
}

criterion_group!(benches, bench_huge_graph);
criterion_main!(benches);
