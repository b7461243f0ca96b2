//! Randomized sinkless orientation with shattering — the structure behind
//! the `Θ(log log n)` upper bound (Ghaffari–Su, SODA 2017).
//!
//! **Substitution notice**: the published `O(log log n)`
//! algorithm routes through the distributed Lovász Local Lemma. This module
//! implements the *shattering* scheme that bound is built on:
//!
//! 1. **Propose/retry phase** — `T₁ = Θ(log log n)` synchronous rounds. In
//!    each round every still-unsatisfied node (degree ≥ 3 and no out-edge
//!    yet) proposes a uniformly random incident unoriented edge for
//!    orientation away from itself. A proposal is *granted* unless it would
//!    leave the proposal's target — itself unsatisfied — with fewer than 2
//!    unoriented edges (the *reserve invariant*), or unless both endpoints
//!    proposed the same edge and the coin went the other way. A node
//!    survives a round unsatisfied with probability at most 1/2, so the
//!    unsatisfied set shrinks geometrically and after `T₁` rounds its
//!    connected components (in the unoriented residual graph) have
//!    polylogarithmic size w.h.p.
//! 2. **Finish phase** — every unsatisfied node gathers its residual
//!    component and solves it exactly. The reserve invariant guarantees
//!    solvability: unsatisfied nodes with an unoriented edge to a satisfied
//!    node take it ("free exit", cascading); what remains has minimum
//!    unoriented degree ≥ 2 among unsatisfied nodes, so every component
//!    contains a cycle — orient it cyclically and hang the rest downhill.
//!
//! The measured complexity is `T₁ + max residual-component eccentricity`,
//! and the orientation always verifies (the finish phase is exact); only
//! the *complexity* is probabilistic, matching the paper's setting where
//! the failure probability must be at most `1/n`.

use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_graph::{Graph, HalfEdge, NodeId};
use lcl_local::{rand_word, LocalityTrace, Network, NodeExecutor, Sequential};
use std::collections::VecDeque;

/// Domain separators for the counter-mode random draws: every decision of
/// a round reads its own `(salt, id, round)` word, so draws are a pure
/// function of the run seed and LOCAL identifiers — independent of node
/// iteration order, which is what lets [`run_with`] stay bit-identical to
/// [`run`] under **any** executor.
const SALT_PROPOSE: u64 = 0x51AC_0001;
const SALT_COIN: u64 = 0x51AC_0002;
const SALT_ORDER: u64 = 0x51AC_0003;

/// Tuning knobs for the randomized algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Number of propose/retry rounds; `None` computes
    /// `⌈2·log₂(log₂ n + 1)⌉ + 2` from the announced `n`.
    pub phase1_rounds: Option<u32>,
    /// Degree below which a node is unconstrained (default 3).
    pub min_constrained_degree: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { phase1_rounds: None, min_constrained_degree: 3 }
    }
}

/// The default phase-1 budget `⌈log₂(log₂ n + 1)⌉ + 1 = Θ(log log n)`.
///
/// Each round satisfies an unsatisfied node with probability ≥ 1/2, so
/// this leaves ≤ `n / 2^{budget}` ≈ `n / log n` unsatisfied nodes, whose
/// residual components are small w.h.p. — the finish phase (whose radius
/// is measured, not assumed) picks them up.
#[must_use]
pub fn phase1_budget(known_n: usize) -> u32 {
    let log = (known_n.max(2) as f64).log2();
    (log + 1.0).log2().ceil() as u32 + 1
}

/// Result of a randomized sinkless-orientation run.
#[derive(Clone, Debug)]
pub struct RandOutcome {
    /// The orientation (always correct: the finish phase is exact).
    pub labeling: Labeling<Orient>,
    /// Rounds spent in the propose/retry phase (≤ the budget; less if all
    /// nodes were satisfied early).
    pub phase1_rounds: u32,
    /// Radius of the finish phase: the largest residual-component
    /// eccentricity over still-unsatisfied nodes (0 if phase 1 finished the
    /// job).
    pub finish_radius: u32,
    /// Number of nodes still unsatisfied when phase 1 ended.
    pub shattered_nodes: usize,
    /// Per-node honest locality (phase-1 rounds + the node's own finish
    /// gathering radius).
    pub trace: LocalityTrace,
}

impl RandOutcome {
    /// Total measured complexity: phase-1 rounds plus the finish radius.
    #[must_use]
    pub fn total_rounds(&self) -> u32 {
        self.phase1_rounds + self.finish_radius
    }

    /// Decodes the orientation into a plain certifiable
    /// [`lcl_certify::Solution`] against the given constrained-degree
    /// threshold (the run's `min_constrained_degree`).
    ///
    /// # Errors
    ///
    /// [`lcl_certify::Violation::Decode`] if the labeling is malformed.
    pub fn solution(
        &self,
        g: &lcl_graph::Graph,
        min_constrained_degree: usize,
    ) -> Result<lcl_certify::Solution, lcl_certify::Violation> {
        lcl_certify::decode::orientation(g, &self.labeling, min_constrained_degree)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EdgeState {
    Unoriented,
    /// Oriented away from the given side-0 endpoint? Stored as the side
    /// that is the source.
    Oriented(lcl_graph::Side),
}

/// Runs randomized sinkless orientation.
///
/// # Panics
///
/// Panics if the finish phase encounters an unsolvable residual component —
/// impossible while the reserve invariant holds; a panic here indicates a
/// bug, not bad luck.
#[must_use]
pub fn run(net: &Network, params: &Params, seed: u64) -> RandOutcome {
    run_with(net, params, seed, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`]: the per-node proposal draws
/// of phase 1 and the per-node eccentricity BFS of phase 2 fan out across
/// the executor. All randomness is counter-mode (see the `SALT_*`
/// constants), so the outcome is bit-identical to [`run`] under **any**
/// executor.
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_with<X: NodeExecutor>(
    net: &Network,
    params: &Params,
    seed: u64,
    exec: &X,
) -> RandOutcome {
    let g = net.graph();
    let n = g.node_count();
    let budget = params.phase1_rounds.unwrap_or_else(|| phase1_budget(net.known_n()));

    let mut edge_state = vec![EdgeState::Unoriented; g.edge_count()];
    // A node is constrained if its degree is ≥ the threshold; it is
    // satisfied once it has an out-edge (or was never constrained).
    let constrained: Vec<bool> =
        g.nodes().map(|v| g.degree(v) >= params.min_constrained_degree).collect();
    let mut satisfied: Vec<bool> = constrained.iter().map(|&c| !c).collect();

    // Self-loops satisfy their node immediately (one half is an out).
    for e in g.edges() {
        if g.is_self_loop(e) {
            let [v, _] = g.endpoints(e);
            edge_state[e.index()] = EdgeState::Oriented(lcl_graph::Side::A);
            satisfied[v.index()] = true;
        }
    }

    let unoriented_count = |g: &Graph, v: NodeId, st: &[EdgeState]| {
        g.ports(v).iter().filter(|h| st[h.edge().index()] == EdgeState::Unoriented).count()
    };

    // --- Phase 1: propose/retry ------------------------------------------
    let mut phase1_rounds = 0;
    for _ in 0..budget {
        if g.nodes().all(|v| satisfied[v.index()]) {
            break;
        }
        phase1_rounds += 1;
        let round = u64::from(phase1_rounds);
        // Proposals: per unsatisfied node, one random unoriented port —
        // drawn from the node's own counter-mode stream, in parallel.
        let mut proposals: Vec<Option<HalfEdge>> = exec.map_nodes(n, |vi| {
            let v = NodeId(vi as u32);
            if satisfied[vi] {
                return None;
            }
            let open: Vec<HalfEdge> = g
                .ports(v)
                .iter()
                .copied()
                .filter(|h| edge_state[h.edge().index()] == EdgeState::Unoriented)
                .collect();
            if open.is_empty() {
                return None; // cannot happen under the invariant; defensive
            }
            let draw = rand_word(seed ^ SALT_PROPOSE, net.id_of(v), round);
            Some(open[(draw % open.len() as u64) as usize])
        });
        // Resolve mutual proposals (both endpoints proposed the same edge):
        // a fair per-edge coin picks the winner; the loser's proposal dies.
        for e in g.edges() {
            let [a, b] = g.endpoints(e);
            if a == b {
                continue;
            }
            let pa = proposals[a.index()].is_some_and(|h| h.edge() == e);
            let pb = proposals[b.index()].is_some_and(|h| h.edge() == e);
            if pa && pb {
                let pair = net.id_of(a).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ net.id_of(b);
                if rand_word(seed ^ SALT_COIN, pair, round) & 1 == 1 {
                    proposals[b.index()] = None;
                } else {
                    proposals[a.index()] = None;
                }
            }
        }
        // Grants, processed in a random order (the adversary does not get
        // to pick; nodes resolve locally — order only matters between
        // proposals targeting the same node, where any serialization is a
        // valid message-passing outcome). The permutation sorts per-node
        // counter-mode keys, so it is iteration-order independent; only
        // live proposers enter it — non-proposers would be skipped anyway,
        // and late rounds have few proposers left.
        let mut order: Vec<(u64, usize)> = (0..n)
            .filter(|&vi| proposals[vi].is_some())
            .map(|vi| (rand_word(seed ^ SALT_ORDER, net.id_of(NodeId(vi as u32)), round), vi))
            .collect();
        order.sort_unstable();
        for &(_, vi) in &order {
            let Some(h) = proposals[vi] else { continue };
            if edge_state[h.edge().index()] != EdgeState::Unoriented {
                continue; // target edge got oriented earlier this round
            }
            let v = NodeId(vi as u32);
            let u = g.half_edge_peer(h);
            // Reserve invariant: never drop an unsatisfied target below 2
            // unoriented edges.
            if !satisfied[u.index()] && unoriented_count(g, u, &edge_state) <= 2 {
                continue;
            }
            edge_state[h.edge().index()] = EdgeState::Oriented(h.side());
            satisfied[v.index()] = true;
        }
    }

    // --- Phase 2: exact finish on residual components ---------------------
    let shattered: Vec<NodeId> = g.nodes().filter(|v| !satisfied[v.index()]).collect();
    let shattered_nodes = shattered.len();

    // Residual graph = unoriented edges *between unsatisfied nodes*: the
    // finish phase only needs coordination among unsatisfied nodes (a free
    // exit to a satisfied neighbor is a distance-1 decision), so that is
    // the graph a node must gather.
    let mut comp_id: Vec<Option<usize>> = vec![None; n];
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    for &s in &shattered {
        if comp_id[s.index()].is_some() {
            continue;
        }
        let cid = comps.len();
        let mut nodes = Vec::new();
        let mut queue = VecDeque::new();
        comp_id[s.index()] = Some(cid);
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            nodes.push(x);
            for &h in g.ports(x) {
                if edge_state[h.edge().index()] != EdgeState::Unoriented {
                    continue;
                }
                let w = g.half_edge_peer(h);
                if !satisfied[w.index()] && comp_id[w.index()].is_none() {
                    comp_id[w.index()] = Some(cid);
                    queue.push_back(w);
                }
            }
        }
        comps.push(nodes);
    }

    let mut finish_radius_per_node = vec![0u32; n];
    for comp in &comps {
        solve_residual_component(g, comp, &mut edge_state, &mut satisfied);
        // Honest gathering radius: eccentricity within the residual
        // component, charged to the unsatisfied nodes that had to gather.
        let ecc = residual_eccentricity(g, comp, &edge_state_snapshot(g, comp), exec);
        for &v in comp {
            finish_radius_per_node[v.index()] = ecc;
        }
    }

    debug_assert!(g.nodes().all(|v| satisfied[v.index()]), "finish phase satisfies everyone");

    // Orient leftovers (edges between satisfied nodes) arbitrarily.
    for e in g.edges() {
        if edge_state[e.index()] == EdgeState::Unoriented {
            edge_state[e.index()] = EdgeState::Oriented(lcl_graph::Side::A);
        }
    }

    let labeling = Labeling::build(
        g,
        |_| Orient::Blank,
        |_| Orient::Blank,
        |h| match edge_state[h.edge().index()] {
            EdgeState::Oriented(src) if src == h.side() => Orient::Out,
            EdgeState::Oriented(_) => Orient::In,
            EdgeState::Unoriented => unreachable!("all edges oriented"),
        },
    );

    let finish_radius = finish_radius_per_node.iter().copied().max().unwrap_or(0);
    let radii: Vec<u32> = finish_radius_per_node.iter().map(|&r| phase1_rounds + r).collect();
    let outcome = RandOutcome {
        labeling,
        phase1_rounds,
        finish_radius,
        shattered_nodes,
        trace: LocalityTrace::new(radii),
    };
    if lcl_certify::enabled() {
        crate::error::self_certify_decoded(g, outcome.solution(g, params.min_constrained_degree));
    }
    outcome
}

/// Snapshot of which edges of the component were unoriented when gathering
/// started (the eccentricity must be measured on the *pre-finish* residual
/// graph, which is what nodes actually gather over — by then the finisher
/// has mutated `edge_state`, so the caller snapshots membership first).
fn edge_state_snapshot(g: &Graph, comp: &[NodeId]) -> Vec<bool> {
    // Membership in the component is the snapshot we need: the component
    // was discovered over unoriented edges before solving.
    let mut member = vec![false; g.node_count()];
    for &v in comp {
        member[v.index()] = true;
    }
    member
}

/// Eccentricity of the component in the residual graph (max over members of
/// max BFS distance within members). The component is connected over
/// residual edges by construction, but finishing has since oriented them,
/// so distances run over the member-induced subgraph of the host. The
/// per-member BFS runs are independent and fan out across the executor —
/// the `O(|comp|²)` part of the finish phase.
fn residual_eccentricity<X: NodeExecutor>(
    g: &Graph,
    comp: &[NodeId],
    member: &[bool],
    exec: &X,
) -> u32 {
    let per_source = exec.map_nodes(comp.len(), |si| {
        let s = comp[si];
        let mut best = 0;
        let mut dist: Vec<Option<u32>> = vec![None; g.node_count()];
        let mut queue = VecDeque::new();
        dist[s.index()] = Some(0);
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            let d = dist[x.index()].expect("queued");
            best = best.max(d);
            for (w, _) in g.neighbors(x) {
                if member[w.index()] && dist[w.index()].is_none() {
                    dist[w.index()] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        best
    });
    per_source.into_iter().max().unwrap_or(0)
}

/// Exactly solves one residual component: free-exit peeling, then
/// cycle-plus-downhill orientation of the 2-core-like remainder.
fn solve_residual_component(
    g: &Graph,
    comp: &[NodeId],
    edge_state: &mut [EdgeState],
    satisfied: &mut [bool],
) {
    let in_comp = {
        let mut m = vec![false; g.node_count()];
        for &v in comp {
            m[v.index()] = true;
        }
        m
    };

    // Free-exit peeling: an unsatisfied node with an unoriented edge to a
    // satisfied node takes it; cascades.
    let mut queue: VecDeque<NodeId> = comp.iter().copied().collect();
    while let Some(v) = queue.pop_front() {
        if satisfied[v.index()] {
            continue;
        }
        let exit = g.ports(v).iter().copied().find(|h| {
            edge_state[h.edge().index()] == EdgeState::Unoriented
                && satisfied[g.half_edge_peer(*h).index()]
        });
        if let Some(h) = exit {
            edge_state[h.edge().index()] = EdgeState::Oriented(h.side());
            satisfied[v.index()] = true;
            // Neighbors over unoriented edges may now have a free exit.
            for &h2 in g.ports(v) {
                if edge_state[h2.edge().index()] == EdgeState::Unoriented {
                    queue.push_back(g.half_edge_peer(h2));
                }
            }
        }
    }

    // Remainder: unsatisfied nodes whose unoriented edges all lead to
    // unsatisfied nodes; each has ≥ 2 such edges (reserve invariant), so
    // every connected piece contains a cycle.
    while let Some(&start) = comp.iter().find(|v| !satisfied[v.index()]) {
        // Walk unoriented unsatisfied-to-unsatisfied edges until a repeat:
        // that closes a cycle.
        let open_edges = |v: NodeId, st: &[EdgeState]| -> Vec<HalfEdge> {
            g.ports(v)
                .iter()
                .copied()
                .filter(|h| {
                    st[h.edge().index()] == EdgeState::Unoriented
                        && !satisfied[g.half_edge_peer(*h).index()]
                        && in_comp[g.half_edge_peer(*h).index()]
                })
                .collect()
        };
        let mut path: Vec<(NodeId, Option<HalfEdge>)> = vec![(start, None)];
        let mut on_path = vec![false; g.node_count()];
        on_path[start.index()] = true;
        let cycle_nodes: Vec<NodeId>;
        let cycle_halves: Vec<HalfEdge>;
        loop {
            let (cur, came_by) = *path.last().expect("nonempty path");
            let nexts = open_edges(cur, edge_state);
            // Avoid immediately walking back over the same edge unless it
            // is the only option (then a 2-cycle via parallel edges or the
            // path end forces other handling).
            let h = nexts
                .iter()
                .copied()
                .find(|h| Some(h.edge()) != came_by.map(|c| c.edge()))
                .or_else(|| nexts.first().copied())
                .expect("reserve invariant: unsatisfied node has open edges");
            let w = g.half_edge_peer(h);
            if on_path[w.index()] {
                // Close the cycle at w.
                let pos = path.iter().position(|&(x, _)| x == w).expect("w on path");
                let mut cn: Vec<NodeId> = path[pos..].iter().map(|&(x, _)| x).collect();
                let mut ch: Vec<HalfEdge> =
                    path[pos + 1..].iter().map(|&(_, hh)| hh.expect("interior")).collect();
                ch.push(h);
                cycle_nodes = std::mem::take(&mut cn);
                cycle_halves = std::mem::take(&mut ch);
                break;
            }
            on_path[w.index()] = true;
            path.push((w, Some(h)));
        }
        // Orient the cycle cyclically: each half-edge in walk order is an
        // out for its walker.
        for h in &cycle_halves {
            edge_state[h.edge().index()] = EdgeState::Oriented(h.side());
        }
        for v in &cycle_nodes {
            satisfied[v.index()] = true;
        }
        // The rest of this piece drains via free exits to the now-satisfied
        // cycle (and onward), using the same peeling loop.
        let mut queue: VecDeque<NodeId> = comp.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if satisfied[v.index()] {
                continue;
            }
            let exit = g.ports(v).iter().copied().find(|h| {
                edge_state[h.edge().index()] == EdgeState::Unoriented
                    && satisfied[g.half_edge_peer(*h).index()]
            });
            if let Some(h) = exit {
                edge_state[h.edge().index()] = EdgeState::Oriented(h.side());
                satisfied[v.index()] = true;
                for &h2 in g.ports(v) {
                    if edge_state[h2.edge().index()] == EdgeState::Unoriented {
                        queue.push_back(g.half_edge_peer(h2));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::SinklessOrientation;
    use lcl_core::{check, Labeling as L};
    use lcl_graph::gen;
    use lcl_local::IdAssignment;

    #[test]
    fn orients_random_regular_graphs() {
        for seed in 0..6 {
            let g = gen::random_regular(100, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default(), seed);
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn phase1_budget_is_loglog() {
        assert!(phase1_budget(1 << 10) <= 6);
        assert!(phase1_budget(1 << 20) <= 7);
        assert!(phase1_budget(1 << 20) > phase1_budget(4));
    }

    #[test]
    fn total_rounds_beat_log_n_on_large_instances() {
        let n = 4096;
        let g = gen::random_regular(n, 3, 11).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 11 });
        let out = run(&net, &Params::default(), 11);
        let log = (n as f64).log2();
        // The deterministic algorithm needs at least L + 3 = 2 log₂ n + 4
        // radius here; the randomized one must land well under that.
        assert!(
            f64::from(out.total_rounds()) < 1.5 * log,
            "randomized rounds {} should beat the deterministic 2·log₂ n = {}",
            out.total_rounds(),
            2.0 * log
        );
    }

    #[test]
    fn shattering_leaves_few_nodes() {
        let n = 4096;
        let g = gen::random_regular(n, 3, 5).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 5 });
        let out = run(&net, &Params::default(), 5);
        assert!(
            out.shattered_nodes * 8 < n,
            "phase 1 should satisfy most nodes, left {}",
            out.shattered_nodes
        );
    }

    #[test]
    fn handles_degree_4_and_5() {
        for (d, seed) in [(4usize, 3u64), (5, 4)] {
            let g = gen::random_regular(80, d, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default(), seed);
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn zero_budget_forces_pure_finish_phase() {
        // With no phase-1 rounds everything lands in the exact finisher,
        // which must still produce a valid orientation.
        let g = gen::random_regular(60, 3, 7).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 7 });
        let params = Params { phase1_rounds: Some(0), ..Params::default() };
        let out = run(&net, &params, 7);
        assert_eq!(out.phase1_rounds, 0);
        assert!(out.finish_radius > 0);
        let input = L::uniform(net.graph(), ());
        check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
    }

    #[test]
    fn multigraphs_with_loops_are_fine() {
        for seed in 0..4 {
            let g = gen::random_regular_multigraph(40, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default(), seed);
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn reproducible_under_seed() {
        let g = gen::random_regular(50, 3, 2).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 2 });
        let a = run(&net, &Params::default(), 42);
        let b = run(&net, &Params::default(), 42);
        assert_eq!(a.labeling, b.labeling);
        assert_eq!(a.phase1_rounds, b.phase1_rounds);
    }
}
