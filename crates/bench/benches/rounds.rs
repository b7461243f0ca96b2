//! Round-engine acceptance bench: the live engine's cost per node-round on
//! a `luby_rounds` sweep must stay under an absolute bound.
//!
//! The sweep is the distributed Luby MIS protocol on `cycle n = 4096` and
//! the `Δ`-regular tree (`Δ = 8`) at the same size, two seeds each. Its
//! cost is the sweep's wall time over its node-rounds, `Σ n × rounds` of
//! the four runs, asserted against [`NS_PER_NODE_ROUND_BOUND`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_algos::luby_rounds::DistributedLuby;
use lcl_graph::{gen, Graph};
use lcl_local::{run_rounds, Network};

/// The gate: the sweep's minimum time over [`TIMED_SWEEPS`] sweeps,
/// divided by its node-rounds, may not exceed this many nanoseconds. Ten
/// runs on a 2-core x86-64 container read 23.3–27.2 ns per node-round
/// (98,304 node-rounds in 2.3–2.7 ms); the bound is the largest reading
/// times 1.26, the largest host drift between measurement sets that
/// `perfbench/BENCHMARK.md` records.
const NS_PER_NODE_ROUND_BOUND: f64 = 34.3;

/// Timed sweeps, about three seconds in all. On the host above, load on
/// the other core slows a sweep by up to 1.7× for as long as it lasts, so
/// only a minimum over a long enough window reads the engine rather than
/// that load.
const TIMED_SWEEPS: usize = 1200;

/// The `luby_rounds` round cap for `n = 4096`.
const CAP: u32 = 16 * (12 + 4);

/// The acceptance workloads: `(name, graph)` at `n = 4096`.
fn workloads() -> Vec<(&'static str, Graph)> {
    vec![("cycle", gen::cycle(4096)), ("8reg-tree", gen::regular_tree(8, 4096))]
}

/// Runs the sweep (both workloads × two seeds) and returns its
/// node-rounds, `Σ n × rounds`, which also keeps the work from being
/// optimized out.
fn sweep(nets: &[Network]) -> u64 {
    let mut node_rounds = 0;
    for net in nets {
        for seed in [1u64, 2] {
            let trace = run_rounds(net, &DistributedLuby, seed, CAP).trace;
            assert!(trace.completed, "Luby must complete within the cap");
            node_rounds += net.len() as u64 * u64::from(trace.rounds);
        }
    }
    node_rounds
}

fn bench_round_engine(c: &mut Criterion) {
    let named_nets: Vec<(&'static str, Network)> = workloads()
        .into_iter()
        .map(|(name, g)| (name, Network::new(g, lcl_local::IdAssignment::Shuffled { seed: 9 })))
        .collect();

    let mut group = c.benchmark_group("luby-rounds");
    group.sample_size(10);
    for (name, net) in &named_nets {
        group.bench_with_input(BenchmarkId::new("run_rounds", name), net, |b, net| {
            b.iter(|| run_rounds(net, &DistributedLuby, 1, CAP).trace.rounds);
        });
    }
    group.finish();
    let nets: Vec<Network> = named_nets.into_iter().map(|(_, net)| net).collect();

    // The acceptance criterion, asserted so a perf regression fails loudly
    // when the bench binary runs: the sweep costs at most
    // `NS_PER_NODE_ROUND_BOUND` per node-round. The sweep is warmed first.
    let node_rounds = sweep(&nets);
    let mut best = std::time::Duration::MAX;
    for _ in 0..TIMED_SWEEPS {
        let t = std::time::Instant::now();
        assert_eq!(sweep(&nets), node_rounds);
        best = best.min(t.elapsed());
    }
    let ns = best.as_secs_f64() * 1e9 / node_rounds as f64;
    println!(
        "acceptance: sweep {best:?} over {node_rounds} node-rounds \
         ({ns:.1} ns/node-round, bound {NS_PER_NODE_ROUND_BOUND:.1})"
    );
    // Publish the machine-readable trajectory point before asserting, so a
    // failing gate still records what it measured.
    let gate = lcl_report::BenchGate::new(
        "rounds",
        NS_PER_NODE_ROUND_BOUND,
        ns,
        "ns/node-round",
        4096,
        "cycle+8reg-tree",
    );
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_rounds.json not written: {e}"),
    }
    assert!(
        ns <= NS_PER_NODE_ROUND_BOUND,
        "the round engine must cost at most {NS_PER_NODE_ROUND_BOUND:.1} ns per node-round: \
         the sweep took {best:?} over {node_rounds} node-rounds ({ns:.1} ns)"
    );
}

criterion_group!(benches, bench_round_engine);
criterion_main!(benches);
