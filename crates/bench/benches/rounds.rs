//! Round-engine acceptance bench: the CSR + routing-arena engine must beat
//! the pre-CSR baseline by ≥ 2× on a `luby_rounds` sweep.
//!
//! `baseline` is a faithful copy of the round engine as it stood before
//! the CSR graph core: per-node contexts that rescan the degree table for
//! `Δ` (what `Network::max_degree` delegated to each call), and a router
//! that materializes `Vec<Vec<(port, msg)>>` inboxes every round,
//! resolving each receiving port with a linear scan of the peer's port
//! table — `O(Σ deg²)` per round plus `2n` vector allocations. The live
//! engine ([`lcl_local::run_rounds`]) replaces all of that with the
//! half-edge-slot arena and `O(1)` inverse port tables.
//!
//! The sweep is the distributed Luby MIS protocol on the two workloads
//! named by the acceptance criterion: `cycle n = 4096` and the `Δ`-regular
//! tree (`Δ = 8`) at the same size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcl_algos::luby_rounds::DistributedLuby;
use lcl_graph::{gen, Graph, NodeId};
use lcl_local::{rand_word, run_rounds, Network, NodeCtx, RoundAlgorithm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pre-CSR `Graph::port_of`: a linear scan of the node's port table.
fn port_of_scan(g: &Graph, h: lcl_graph::HalfEdge) -> usize {
    let v = g.half_edge_node(h);
    g.ports(v).iter().position(|&x| x == h).expect("half-edge is registered")
}

/// The pre-CSR router, verbatim: fresh nested inboxes every round, port
/// resolution by scan, then a per-inbox sort.
fn route_messages_baseline<M>(g: &Graph, outgoing: Vec<Vec<(usize, M)>>) -> Vec<Vec<(usize, M)>> {
    let mut inboxes: Vec<Vec<(usize, M)>> = Vec::new();
    inboxes.resize_with(g.node_count(), Vec::new);
    for (i, msgs) in outgoing.into_iter().enumerate() {
        let v = NodeId(i as u32);
        for (port, msg) in msgs {
            let h = g.half_edge_at_port(v, port).expect("valid port");
            let peer_half = h.opposite();
            let w = g.half_edge_node(peer_half);
            let peer_port = port_of_scan(g, peer_half);
            inboxes[w.index()].push((peer_port, msg));
        }
    }
    for inbox in &mut inboxes {
        inbox.sort_by_key(|(p, _)| *p);
    }
    inboxes
}

/// The pre-CSR sequential round engine, verbatim but for the message API:
/// each node's sink collects its messages into a fresh `Vec`, and each
/// `receive` borrows its inbox from the routed `Vec`s (same RNG streams,
/// so its outcome is bit-identical to [`run_rounds`] — asserted below).
fn run_rounds_baseline<A: RoundAlgorithm>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
) -> Vec<Option<A::Output>> {
    let g = net.graph();
    let n = g.node_count();
    let ctxs: Vec<NodeCtx> = g
        .nodes()
        .map(|v| NodeCtx {
            id: net.id_of(v),
            degree: g.degree(v),
            known_n: net.known_n(),
            // Pre-change cost model: Δ was recomputed per node.
            max_degree: g.max_degree(),
        })
        .collect();
    let mut rngs: Vec<ChaCha8Rng> = g
        .nodes()
        .map(|v| ChaCha8Rng::seed_from_u64(rand_word(seed, net.id_of(v), 0x0C0D_E5EED)))
        .collect();
    let mut states: Vec<A::State> = (0..n).map(|i| alg.init(&ctxs[i], &mut rngs[i])).collect();
    let all_decided = |states: &[A::State], ctxs: &[NodeCtx]| {
        states.iter().zip(ctxs).all(|(s, c)| alg.output(s, c).is_some())
    };

    let mut rounds = 0;
    let mut completed = all_decided(&states, &ctxs);
    while !completed && rounds < max_rounds {
        let outgoing: Vec<Vec<(usize, A::Msg)>> = (0..n)
            .map(|i| {
                let mut msgs = Vec::new();
                alg.send(&states[i], &ctxs[i], |port, msg| msgs.push((port, msg)));
                msgs
            })
            .collect();
        let inboxes = route_messages_baseline(g, outgoing);
        for v in g.nodes() {
            alg.receive(
                &mut states[v.index()],
                &ctxs[v.index()],
                inboxes[v.index()].iter().map(|(port, msg)| (*port, msg)),
                &mut rngs[v.index()],
            );
        }
        rounds += 1;
        completed = all_decided(&states, &ctxs);
    }
    states.iter().zip(&ctxs).map(|(s, c)| alg.output(s, c)).collect()
}

/// The acceptance workloads: `(name, graph)` at `n = 4096`.
fn workloads() -> Vec<(&'static str, Graph)> {
    vec![("cycle", gen::cycle(4096)), ("8reg-tree", gen::regular_tree(8, 4096))]
}

/// Sums a cheap digest over the sweep so the work cannot be optimized out.
fn sweep<F: FnMut(&Network, u64) -> usize>(nets: &[Network], mut run: F) -> usize {
    let mut acc = 0;
    for net in nets {
        for seed in [1u64, 2] {
            acc += run(net, seed);
        }
    }
    acc
}

fn digest<O>(outputs: &[Option<O>]) -> usize {
    outputs.iter().filter(|o| o.is_some()).count()
}

fn bench_round_engines(c: &mut Criterion) {
    let cap = 16 * (12 + 4); // the luby_rounds cap for n = 4096
    let named_nets: Vec<(&'static str, Network)> = workloads()
        .into_iter()
        .map(|(name, g)| (name, Network::new(g, lcl_local::IdAssignment::Shuffled { seed: 9 })))
        .collect();

    let mut group = c.benchmark_group("luby-rounds");
    group.sample_size(10);
    for (name, net) in &named_nets {
        group.bench_with_input(BenchmarkId::new("baseline", name), net, |b, net| {
            b.iter(|| digest(&run_rounds_baseline(net, &DistributedLuby, 1, cap)));
        });
        group.bench_with_input(BenchmarkId::new("csr-arena", name), net, |b, net| {
            b.iter(|| digest(&run_rounds(net, &DistributedLuby, 1, cap).outputs));
        });
    }
    group.finish();
    let nets: Vec<Network> = named_nets.into_iter().map(|(_, net)| net).collect();

    // Identity first: the baseline copy and the live engine must produce
    // the same MIS (same RNG streams, same delivery order), or the timing
    // comparison is meaningless.
    for net in &nets {
        let a = run_rounds_baseline(net, &DistributedLuby, 7, cap);
        let b = run_rounds(net, &DistributedLuby, 7, cap).outputs;
        assert!(a.iter().zip(&b).all(|(x, y)| x == y), "baseline and CSR+arena engines diverged");
    }

    // The acceptance criterion, asserted so a perf regression fails loudly
    // when the bench binary runs: the CSR+arena engine completes the sweep
    // (both workloads × two seeds) ≥ 2× faster than the kept pre-CSR
    // baseline. Both sides are warmed and take the minimum of 3 timed
    // sweeps, so one scheduler hiccup cannot fail the gate spuriously.
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
    let (a, baseline) = timed_min(&mut || {
        sweep(&nets, |net, seed| digest(&run_rounds_baseline(net, &DistributedLuby, seed, cap)))
    });
    let (b, arena) = timed_min(&mut || {
        sweep(&nets, |net, seed| digest(&run_rounds(net, &DistributedLuby, seed, cap).outputs))
    });
    assert_eq!(a, b);
    let ratio = baseline.as_secs_f64() / arena.as_secs_f64().max(1e-9);
    println!("acceptance: baseline {baseline:?} vs csr-arena {arena:?} ({ratio:.1}x)");
    // Publish the machine-readable trajectory point before asserting, so a
    // failing gate still records what it measured.
    let gate = lcl_report::BenchGate::new("rounds", 2.0, ratio, 4096, "cycle+8reg-tree");
    match gate.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: BENCH_rounds.json not written: {e}"),
    }
    assert!(
        baseline.as_secs_f64() >= 2.0 * arena.as_secs_f64(),
        "CSR+arena round engine must be >= 2x faster: baseline {baseline:?}, arena {arena:?}"
    );
}

criterion_group!(benches, bench_round_engines);
criterion_main!(benches);
