//! The handshake matching against the implementation it replaced, kept
//! here as the reference: availability as a `Vec<bool>` per node, the open
//! ports collected into a fresh `Vec` every phase, ports as `usize`, and
//! messages returned from `send` in a `Vec` and read from a slice.
//!
//! The library keeps its ports as `Option<u32>` and its availability as a
//! port bitset (one inline word up to 64 ports, boxed words beyond), and
//! draws a proposer's port as the k-th open port of the bitset. The
//! labeling and the round count must equal the reference's on the seven
//! scenario zoo families plus hubs of degree above 64, with isolated nodes
//! added, under all three id assignments, with the announced `n` and `Δ`
//! at or above the graph's own (as on component and store-shard parts),
//! under the sequential and the pooled executor, on the active frontier
//! and on the dense oracle, and on every component part of a disconnected
//! instance.

use lcl_algos::error::AlgoError;
use lcl_algos::matching_rounds::{self, DistributedMatching, Msg};
use lcl_bench::Parallel;
use lcl_core::problems::MatchingLabel;
use lcl_core::{assemble, Labeling};
use lcl_graph::{gen, Graph, NodeId};
use lcl_local::{
    map_components, run_rounds_dense_with, run_rounds_with, IdAssignment, Network, NodeCtx,
    NodeExecutor, RoundAlgorithm, RoundOutcome, Sequential,
};
use lcl_scenario::FamilySpec;
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Propose,
    Accept,
}

/// The reference's per-node state, as the library kept it before.
struct RefState {
    phase: Phase,
    matched_port: Option<usize>,
    done: bool,
    proposal_port: Option<usize>,
    acceptor: bool,
    accepted_port: Option<usize>,
    retire_pending: bool,
    available: Vec<bool>,
    priority: u64,
}

/// The handshake protocol as the library implemented it before.
struct Reference;

fn draw_role(state: &mut RefState, degree: usize, rng: &mut ChaCha8Rng) {
    state.proposal_port = None;
    state.acceptor = false;
    if state.done {
        return;
    }
    let open: Vec<usize> = (0..degree).filter(|&p| state.available[p]).collect();
    if !open.is_empty() && rng.gen_bool(0.5) {
        state.proposal_port = Some(open[rng.gen_range(0..open.len())]);
    } else {
        state.acceptor = true;
    }
}

fn keepalive_port(state: &RefState) -> usize {
    state.available.iter().position(|&a| a).unwrap_or(0)
}

impl Reference {
    /// The old `send`: the round's messages as a `Vec`.
    fn messages(&self, state: &RefState, ctx: &NodeCtx) -> Vec<(usize, Msg)> {
        if state.done {
            if !state.retire_pending {
                return Vec::new();
            }
            return (0..ctx.degree)
                .map(|p| {
                    if state.accepted_port == Some(p) {
                        (p, Msg::Accept)
                    } else {
                        (p, Msg::Retired)
                    }
                })
                .collect();
        }
        match state.phase {
            Phase::Propose => {
                if let Some(port) = state.proposal_port {
                    vec![(port, Msg::Propose(state.priority))]
                } else {
                    vec![(keepalive_port(state), Msg::Active)]
                }
            }
            Phase::Accept => vec![(keepalive_port(state), Msg::Active)],
        }
    }

    /// The old `receive`, on the inbox as a slice.
    fn digest(
        &self,
        state: &mut RefState,
        ctx: &NodeCtx,
        inbox: &[(usize, Msg)],
        rng: &mut ChaCha8Rng,
    ) {
        if state.done {
            state.retire_pending = false;
            return;
        }
        match state.phase {
            Phase::Propose => {
                let mut best: Option<(u64, usize)> = None;
                for (port, msg) in inbox {
                    match msg {
                        Msg::Retired => state.available[*port] = false,
                        Msg::Propose(pr)
                            if state.acceptor && best.is_none_or(|(b, _)| (*pr) < b) =>
                        {
                            best = Some((*pr, *port));
                        }
                        _ => {}
                    }
                }
                if let Some((_, port)) = best {
                    state.matched_port = Some(port);
                    state.accepted_port = Some(port);
                    state.done = true;
                    state.retire_pending = true;
                }
                state.phase = Phase::Accept;
            }
            Phase::Accept => {
                for (port, msg) in inbox {
                    match msg {
                        Msg::Accept
                            if state.proposal_port == Some(*port)
                                && state.matched_port.is_none() =>
                        {
                            state.matched_port = Some(*port);
                            state.done = true;
                            state.retire_pending = true;
                        }
                        Msg::Retired => state.available[*port] = false,
                        _ => {}
                    }
                }
                if !state.done && state.available.iter().all(|&a| !a) {
                    state.done = true;
                    state.retire_pending = true;
                }
                if !state.done {
                    state.priority = rng.gen();
                    draw_role(state, ctx.degree, rng);
                }
                state.phase = Phase::Propose;
            }
        }
    }
}

impl RoundAlgorithm for Reference {
    type State = RefState;
    type Msg = Msg;
    type Output = Option<usize>;

    fn init(&self, ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> RefState {
        let mut st = RefState {
            phase: Phase::Propose,
            matched_port: None,
            done: ctx.degree == 0,
            proposal_port: None,
            acceptor: false,
            accepted_port: None,
            retire_pending: false,
            available: vec![true; ctx.degree],
            priority: rng.gen(),
        };
        draw_role(&mut st, ctx.degree, rng);
        st
    }

    fn send(&self, state: &RefState, ctx: &NodeCtx, mut out: impl FnMut(usize, Msg)) {
        for (port, msg) in self.messages(state, ctx) {
            out(port, msg);
        }
    }

    fn receive<'m>(
        &self,
        state: &mut RefState,
        ctx: &NodeCtx,
        inbox: impl Iterator<Item = (usize, &'m Msg)>,
        rng: &mut ChaCha8Rng,
    ) {
        let inbox: Vec<(usize, Msg)> = inbox.map(|(port, &msg)| (port, msg)).collect();
        self.digest(state, ctx, &inbox, rng);
    }

    fn output(&self, state: &RefState, _ctx: &NodeCtx) -> Option<Option<usize>> {
        state.done.then_some(state.matched_port)
    }
}

/// The library's round cap for `net`.
fn cap(net: &Network) -> u32 {
    40 * ((net.known_n().max(2) as f64).log2() as u32 + 4)
}

/// The labeling the library assembles from per-node matched ports.
fn labeling(net: &Network, decisions: &[Option<Option<usize>>]) -> Labeling<MatchingLabel> {
    let decision = |v: NodeId| decisions[v.index()].expect("every node decided");
    assemble(
        net.graph(),
        |v| if decision(v).is_some() { MatchingLabel::Matched } else { MatchingLabel::Free },
        |v, p| {
            let edge = if decision(v) == Some(p) {
                MatchingLabel::InMatching
            } else {
                MatchingLabel::NotInMatching
            };
            (MatchingLabel::Blank, edge)
        },
    )
    .expect("handshake matches are symmetric")
}

/// Asserts that the library's entry point on `exec` gives the reference
/// run's labeling and round count, or fails where it hits the cap.
fn assert_entry_point<X: NodeExecutor>(
    net: &Network,
    seed: u64,
    exec: &X,
    what: &str,
) -> Result<(), TestCaseError> {
    let want = run_rounds_with(net, &Reference, seed, cap(net), exec);
    match matching_rounds::try_run_with(net, seed, exec) {
        Ok(out) => {
            prop_assert!(want.trace.completed, "{}: the reference hit the cap", what);
            prop_assert_eq!(out.rounds, want.trace.rounds, "{}: rounds", what);
            prop_assert_eq!(&out.labeling, &labeling(net, &want.outputs), "{}: labeling", what);
        }
        Err(AlgoError::RoundCapExceeded { .. }) => {
            prop_assert!(!want.trace.completed, "{}: only the library hit the cap", what);
        }
        Err(e) => prop_assert!(false, "{}: unexpected error {}", what, e),
    }
    Ok(())
}

/// Asserts that both protocols agree on the dense oracle under `exec`:
/// outputs, trace and undecided attribution.
fn assert_dense<X: NodeExecutor>(
    net: &Network,
    seed: u64,
    exec: &X,
    what: &str,
) -> Result<(), TestCaseError> {
    let want: RoundOutcome<_> = run_rounds_dense_with(net, &Reference, seed, cap(net), exec);
    let got = run_rounds_dense_with(net, &DistributedMatching, seed, cap(net), exec);
    prop_assert_eq!(&got.outputs, &want.outputs, "{}: dense outputs", what);
    prop_assert_eq!(got.trace, want.trace, "{}: dense trace", what);
    prop_assert_eq!(&got.undecided, &want.undecided, "{}: dense undecided", what);
    Ok(())
}

/// Every comparison on one network.
fn assert_matches(net: &Network, seed: u64, what: &str) -> Result<(), TestCaseError> {
    assert_entry_point(net, seed, &Sequential, &format!("{what}, sequential"))?;
    assert_entry_point(net, seed, &Parallel, &format!("{what}, pooled"))?;
    assert_dense(net, seed, &Sequential, &format!("{what}, sequential"))?;
    assert_dense(net, seed, &Parallel, &format!("{what}, pooled"))
}

/// Family `which` at size about `n`: the seven scenario zoo families, then
/// hubs of degree above 64: a 100-leaf star, `K_70`, and a star of
/// `64 + n` leaves whose leaves are paired by edges.
fn instance(which: usize, n: usize, seed: u64) -> Option<Graph> {
    let zoo = [
        FamilySpec::RandomRegular { d: 3 },
        FamilySpec::Gnm { avg_deg: 2.0 },
        FamilySpec::Torus,
        FamilySpec::Hypercube,
        FamilySpec::Caterpillar { leaf_frac: 0.4 },
        FamilySpec::LiftedGadget { delta: 3, height: 2 },
        FamilySpec::Pods { pod_size: 4, cross_links: (seed % 3) as usize },
    ];
    match which {
        0..=6 => zoo[which].build(n, seed).ok(),
        7 => Some(gen::star(100)),
        8 => Some(gen::complete(70)),
        _ => {
            let leaves = 64 + n as u32;
            let mut g = gen::star(leaves as usize);
            for leaf in (1..leaves).step_by(2) {
                g.add_edge(NodeId(leaf), NodeId(leaf + 1));
            }
            Some(g)
        }
    }
}

proptest! {
    // Default config, so `PROPTEST_CASES` raises the case count (CI runs
    // this in release with many more cases).

    #[test]
    fn matching_matches_the_reference(
        which in 0usize..10,
        n in 2usize..90,
        seed in 0u64..1_000,
        isolated in 0usize..3,
        ids in 0usize..3,
        more_n in 0usize..3,
        more_delta in 0usize..3,
    ) {
        let Some(mut g) = instance(which, n, seed) else { return Ok(()) };
        if g.edges().any(|e| g.is_self_loop(e)) {
            return Ok(());
        }
        g.add_nodes(isolated);
        let own_n = g.node_count();
        let own_delta = g.max_degree();
        let ids = match ids {
            0 => IdAssignment::Sequential,
            1 => IdAssignment::Shuffled { seed },
            _ => IdAssignment::SparseShuffled { seed },
        };
        // Announced n and Δ as a component or store-shard part sees them:
        // its own, a little more, or far more.
        let known_n = [own_n, own_n + 17, 1 << 20][more_n];
        let delta = [own_delta, own_delta + 1, own_delta + 5][more_delta];
        let net = Network::new(g, ids).with_known_n(known_n).with_announced_max_degree(delta);
        let what = format!(
            "family {which}, n {own_n}, {isolated} isolated, seed {seed}, {ids:?}, known n \
             {known_n}, Δ {delta}"
        );
        assert_matches(&net, seed, &what)?;

        // Every component part announces the whole network's n and Δ.
        if let Some((comps, parts)) = map_components(&net, &Sequential, Network::clone) {
            for (c, part) in parts.iter().enumerate() {
                assert_matches(part, seed, &format!("{what}, part {c} of {}", comps.count()))?;
            }
        }
    }
}
