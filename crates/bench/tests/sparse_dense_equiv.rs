//! Round-engine equivalence, proptest-pinned.
//!
//! The active-frontier engine (`run_rounds` / `run_rounds_with`) must be
//! **bit-identical** to the dense oracle (`run_rounds_dense` /
//! `run_rounds_dense_with`) for every algorithm honoring the
//! sparse-execution contract: same outputs, same `RoundTrace.rounds`,
//! same `completed`, same undecided attribution. Both are policies of one
//! engine, so every case is also checked against an independent naive
//! reference engine kept in this file. The suite sweeps the six-family
//! generator zoo plus a hub of degree above 64, multigraphs, self-loops,
//! and instances whose frontier spans several pooled chunks, under both
//! the sequential engine and the pooled executor (the CI determinism job
//! re-runs it with `LCL_POOL_THREADS` pinned).

use lcl_algos::luby_rounds::DistributedLuby;
use lcl_algos::matching_rounds::DistributedMatching;
use lcl_bench::Parallel;
use lcl_graph::{gen, Graph, NodeId};
use lcl_local::{
    rand_word, run_rounds, run_rounds_dense, run_rounds_dense_with, run_rounds_with, IdAssignment,
    Network, NodeCtx, RoundAlgorithm, RoundOutcome, RoundTrace,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The independent routing oracle: a naive engine shaped like the pre-CSR
/// `run_rounds_baseline` that `benches/rounds.rs` keeps. Every round it
/// runs every node, routes each message its sink receives into fresh
/// nested per-node inboxes with `Graph::peer_port`, sorts each inbox by
/// port, and lends it to `receive` from those plain `Vec`s. It shares no
/// routing code with `lcl_local`, so agreeing with it checks the port
/// plane rather than the plane against itself.
fn run_rounds_reference<A: RoundAlgorithm>(
    net: &Network,
    alg: &A,
    seed: u64,
    cap: u32,
) -> RoundOutcome<A::Output> {
    let g = net.graph();
    let ctxs: Vec<NodeCtx> = g
        .nodes()
        .map(|v| NodeCtx {
            id: net.id_of(v),
            degree: g.degree(v),
            known_n: net.known_n(),
            max_degree: net.max_degree(),
        })
        .collect();
    let mut rngs: Vec<ChaCha8Rng> = ctxs
        .iter()
        .map(|c| ChaCha8Rng::seed_from_u64(rand_word(seed, c.id, 0x0C0D_E5EED)))
        .collect();
    let mut states: Vec<A::State> =
        ctxs.iter().zip(&mut rngs).map(|(c, rng)| alg.init(c, rng)).collect();
    let poll = |states: &[A::State]| -> Vec<Option<A::Output>> {
        states.iter().zip(&ctxs).map(|(s, c)| alg.output(s, c)).collect()
    };
    let mut rounds = 0;
    let mut completed = poll(&states).iter().all(Option::is_some);
    while !completed && rounds < cap {
        let mut inboxes: Vec<Vec<(usize, A::Msg)>> = Vec::new();
        inboxes.resize_with(g.node_count(), Vec::new);
        for v in g.nodes() {
            alg.send(&states[v.index()], &ctxs[v.index()], |port, msg| {
                let h = g.half_edge_at_port(v, port).expect("valid port");
                inboxes[g.half_edge_peer(h).index()].push((g.peer_port(h), msg));
            });
        }
        for (v, inbox) in inboxes.iter_mut().enumerate() {
            inbox.sort_by_key(|&(port, _)| port);
            let inbox = inbox.iter().map(|(port, msg)| (*port, msg));
            alg.receive(&mut states[v], &ctxs[v], inbox, &mut rngs[v]);
        }
        rounds += 1;
        completed = poll(&states).iter().all(Option::is_some);
    }
    let outputs = poll(&states);
    let undecided =
        (0..outputs.len()).filter(|&i| outputs[i].is_none()).map(|i| (i, ctxs[i].id)).collect();
    RoundOutcome { outputs, trace: RoundTrace { rounds, completed }, undecided }
}

/// Runs the naive reference and the engine under both policies and both
/// executors on one instance, and asserts all five agree.
///
/// The engine runs on two fresh networks over `g`, because a network
/// builds its port plane on its first run and shares it with every later
/// one. The pooled sparse run comes first on `pooled`, so it builds that
/// plane across the pool, in blocks of the engine's chunk; the sequential
/// dense oracle builds `seq`'s on the calling thread. The sequential
/// sparse run then reuses the pooled build, and the pooled dense run the
/// sequential one.
fn assert_engines_agree<A>(g: &Graph, alg: &A, seed: u64, cap: u32, label: &str)
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Clone + Send + PartialEq + std::fmt::Debug,
{
    let fresh = || Network::new(g.clone(), IdAssignment::Shuffled { seed });
    let (pooled, seq) = (fresh(), fresh());
    let sparse_p = run_rounds_with(&pooled, alg, seed, cap, &Parallel);
    let dense = run_rounds_dense(&seq, alg, seed, cap);

    let reference = run_rounds_reference(&seq, alg, seed, cap);
    assert_eq!(dense.outputs, reference.outputs, "{label}: dense outputs diverged from reference");
    assert_eq!(dense.trace, reference.trace, "{label}: dense trace diverged from reference");
    assert_eq!(dense.undecided, reference.undecided, "{label}: dense undecided diverged");

    assert_eq!(sparse_p.outputs, dense.outputs, "{label}: pooled sparse outputs diverged");
    assert_eq!(sparse_p.trace, dense.trace, "{label}: pooled sparse trace diverged");
    assert_eq!(sparse_p.undecided, dense.undecided, "{label}: pooled undecided diverged");

    let sparse = run_rounds(&pooled, alg, seed, cap);
    assert_eq!(sparse.outputs, dense.outputs, "{label}: sparse outputs diverged from dense oracle");
    assert_eq!(sparse.trace, dense.trace, "{label}: sparse trace diverged from dense oracle");
    assert_eq!(sparse.undecided, dense.undecided, "{label}: undecided attribution diverged");

    let dense_p = run_rounds_dense_with(&seq, alg, seed, cap, &Parallel);
    assert_eq!(dense_p.outputs, dense.outputs, "{label}: pooled dense outputs diverged");
    assert_eq!(dense_p.trace, dense.trace, "{label}: pooled dense trace diverged");
    assert_eq!(dense_p.undecided, dense.undecided, "{label}: pooled dense undecided diverged");
}

/// One instance per generator-zoo family, sized and seeded from proptest
/// inputs, plus a hub of degree above 64 (so the matching state's port
/// set spills past one inline word) whose leaves are paired by edges.
fn zoo_graph(family: usize, size: usize, seed: u64) -> (&'static str, Graph) {
    match family {
        0 => {
            let max_m = size * (size - 1) / 2;
            ("gnm", gen::gnm(size, (2 * size).min(max_m), seed).expect("m <= n(n-1)/2"))
        }
        1 => ("hypercube", gen::hypercube((size % 5 + 1) as u32)),
        2 => ("caterpillar", gen::caterpillar(size / 2 + 1, size / 2, seed)),
        3 => ("lift", gen::random_lift(&gen::complete(4), size / 4 + 1, seed)),
        4 => {
            let n = (size & !1).max(4);
            ("3reg", gen::random_regular(n, 3, seed).expect("even n >= 4 is generable"))
        }
        5 => ("torus", gen::torus(size / 4 + 2, 4)),
        6 => {
            let leaves = 64 + size;
            let mut g = gen::star(leaves);
            for leaf in (1..leaves as u32).step_by(2) {
                g.add_edge(NodeId(leaf), NodeId(leaf + 1));
            }
            ("hub", g)
        }
        _ => unreachable!("family selector out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn luby_sparse_equals_dense_across_zoo(
        family in 0usize..7,
        size in 8usize..48,
        seed in 0u64..1000,
    ) {
        let (name, g) = zoo_graph(family, size, seed);
        assert_engines_agree(&g, &DistributedLuby, seed, 400, name);
    }

    #[test]
    fn matching_sparse_equals_dense_across_zoo(
        family in 0usize..7,
        size in 8usize..48,
        seed in 0u64..1000,
    ) {
        let (name, g) = zoo_graph(family, size, seed);
        assert_engines_agree(&g, &DistributedMatching, seed, 400, name);
    }

    /// Multigraphs (parallel edges) and self-loops go straight at the
    /// engines — the `try_run` wrappers reject loops, but the engines
    /// themselves must stay equivalent on them (matching never resolves a
    /// loop, so these runs also exercise cap-hit undecided attribution).
    #[test]
    fn multigraphs_and_self_loops_agree(
        n in 4usize..24,
        d in 2usize..5,
        seed in 0u64..1000,
    ) {
        let n = (n & !1).max(4);
        let multi = gen::random_regular_multigraph(n, d, seed).expect("even n is generable");
        let mut looped = multi.clone();
        looped.add_edge(NodeId(0), NodeId(0));
        looped.add_edge(NodeId((n - 1) as u32), NodeId((n - 1) as u32));
        for (name, g) in [("multigraph", multi), ("self-loops", looped)] {
            assert_engines_agree(&g, &DistributedLuby, seed, 200, name);
            assert_engines_agree(&g, &DistributedMatching, seed, 200, name);
            assert_engines_agree(&g, &PortTag, seed, 200, name);
        }
    }
}

/// An instance whose frontier spans several of the engine's pooled chunks
/// (512 frontier nodes each) and ends in a ragged last one: a random
/// `d`-regular multigraph (parallel edges, stray loops) on `n` nodes,
/// spread so that every seventh node is isolated, with extra self-loops
/// at three nodes and one trailing isolated node.
fn chunky_graph(n: usize, d: usize, seed: u64) -> Graph {
    let base = gen::random_regular_multigraph(n, d, seed).expect("even n is generable");
    let spread = |v: NodeId| NodeId(v.0 + v.0 / 6);
    let mut g = Graph::new();
    g.add_nodes(spread(NodeId(n as u32 - 1)).index() + 2);
    for e in base.edges() {
        let [a, b] = base.endpoints(e);
        g.add_edge(spread(a), spread(b));
    }
    for v in [0, n / 2, n - 1] {
        let v = spread(NodeId(v as u32));
        g.add_edge(v, v);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pooled, sequential, dense and reference runs agree when the
    /// frontier crosses chunk boundaries, and the pooled port-plane build
    /// spans several blocks.
    #[test]
    fn frontiers_spanning_several_chunks_agree(
        n in 1100usize..2200,
        d in 2usize..5,
        seed in 0u64..1000,
    ) {
        let n = n & !1;
        let g = chunky_graph(n, d, seed);
        prop_assert!(g.node_count() > 2 * 512, "the instance must span several chunks");
        assert_engines_agree(&g, &DistributedLuby, seed, 200, "chunky");
        assert_engines_agree(&g, &DistributedMatching, seed, 200, "chunky");
        assert_engines_agree(&g, &Pulse, seed, 40, "chunky");
        assert_engines_agree(&g, &PortTag, seed, 40, "chunky");
    }
}

/// Port-exact routing probe: for three rounds every node sends
/// `(id, port, round)` on each port and logs each inbox entry with the
/// port it arrived on. Luby and matching broadcast the same message on
/// every port, so they cannot tell a self-loop delivered back to the port
/// it left from, or two parallel edges crossed; this protocol's output
/// changes under any such misrouting.
struct PortTag;

/// A [`PortTag`] log entry: `(receiving port, sender id, sending port,
/// round)`.
type Tag = (usize, u64, usize, u32);

impl RoundAlgorithm for PortTag {
    type State = (u32, Vec<Tag>);
    type Msg = (u64, usize, u32);
    type Output = Vec<Tag>;

    fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {
        (0, Vec::new())
    }

    fn send(&self, state: &Self::State, ctx: &NodeCtx, mut out: impl FnMut(usize, Self::Msg)) {
        if state.0 < 3 {
            (0..ctx.degree).for_each(|p| out(p, (ctx.id, p, state.0)));
        }
    }

    fn receive<'m>(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx,
        inbox: impl Iterator<Item = (usize, &'m Self::Msg)>,
        _r: &mut ChaCha8Rng,
    ) {
        // Only a node that sent this round advances: silent nodes are inert.
        if state.0 < 3 && ctx.degree > 0 {
            state.1.extend(inbox.map(|(port, &(id, from, round))| (port, id, from, round)));
            state.0 += 1;
        }
    }

    fn output(&self, state: &Self::State, ctx: &NodeCtx) -> Option<Vec<Tag>> {
        (ctx.degree == 0 || state.0 >= 3).then(|| state.1.clone())
    }
}

/// A deliberately broken protocol: the nodes with the listed ids send on
/// port `degree` (one past the last valid port) when `bad_port`, else
/// twice on port 0. Everyone else sends one message per port.
struct Misbehaver {
    offenders: [u64; 2],
    bad_port: bool,
}

impl RoundAlgorithm for Misbehaver {
    type State = ();
    type Msg = u64;
    type Output = u64;

    fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) {}

    fn send(&self, _state: &(), ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
        if !self.offenders.contains(&ctx.id) {
            (0..ctx.degree).for_each(|p| out(p, ctx.id));
        } else if self.bad_port {
            out(ctx.degree, ctx.id);
        } else {
            out(0, ctx.id);
            out(0, ctx.id);
        }
    }

    fn receive<'m>(
        &self,
        _s: &mut (),
        _c: &NodeCtx,
        _i: impl Iterator<Item = (usize, &'m u64)>,
        _r: &mut ChaCha8Rng,
    ) {
    }

    fn output(&self, _state: &(), _ctx: &NodeCtx) -> Option<u64> {
        None
    }
}

/// Two offenders in adjacent chunks of a 4096-node cycle: node 2047 ends
/// chunk 3 and node 2048 starts chunk 4. Split across two or four workers,
/// the lower one is the last node of its worker's share and the upper one
/// the first of the next share, so the upper one offends first in time.
/// The panic must still name the lower one. Sequential ids are index + 1.
fn misbehave_pooled(bad_port: bool) {
    let net = Network::new(gen::cycle(4096), IdAssignment::Sequential);
    let _ =
        run_rounds_with(&net, &Misbehaver { offenders: [2049, 2048], bad_port }, 0, 2, &Parallel);
}

#[test]
#[should_panic(expected = "algorithm violation: node n2047 (degree 2) sent on invalid port 2 in \
                           round 1")]
fn pooled_invalid_port_names_the_lowest_index_offender() {
    misbehave_pooled(true);
}

#[test]
#[should_panic(expected = "algorithm violation: node n2047 (degree 2) sent twice on port 0 in \
                           round 1")]
fn pooled_double_send_names_the_lowest_index_offender() {
    misbehave_pooled(false);
}

/// A contract-conforming protocol that goes **quiescent while undecided**:
/// nodes broadcast a decaying TTL and fall silent at zero, and nobody ever
/// outputs. The sparse engine's frontier empties after the pulses die out
/// and it fast-forwards to the round cap — accounting must match the dense
/// oracle spinning there, under every executor.
struct Pulse;

impl RoundAlgorithm for Pulse {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> u64 {
        ctx.id % 7
    }

    fn send(&self, state: &u64, ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
        if *state > 0 {
            (0..ctx.degree).for_each(|p| out(p, *state));
        }
    }

    fn receive<'m>(
        &self,
        state: &mut u64,
        _ctx: &NodeCtx,
        inbox: impl Iterator<Item = (usize, &'m u64)>,
        _r: &mut ChaCha8Rng,
    ) {
        // A node that sent nothing (state 0) and heard nothing computes
        // max(0, 0) = 0: exactly the inertness the contract demands.
        let heard = inbox.map(|(_, &m)| m - 1).max().unwrap_or(0);
        *state = heard.max(state.saturating_sub(1));
    }

    fn output(&self, _state: &u64, _ctx: &NodeCtx) -> Option<u64> {
        None
    }
}

#[test]
fn quiescent_pulse_fast_forwards_identically_to_dense() {
    for (name, g) in [
        ("cycle", gen::cycle(64)),
        ("caterpillar", gen::caterpillar(24, 24, 3)),
        ("disjoint", gen::disjoint_cycles(4, 9)),
    ] {
        assert_engines_agree(&g, &Pulse, 13, 5000, name);
        let net = Network::new(g, IdAssignment::Shuffled { seed: 13 });
        let out = run_rounds(&net, &Pulse, 13, 5000);
        assert_eq!(out.trace.rounds, 5000, "{name}: fast-forward must land on the cap");
        assert!(!out.trace.completed, "{name}: a quiescent undecided run is not completed");
        assert_eq!(out.undecided.len(), net.len(), "{name}: every node stays undecided");
    }
}
