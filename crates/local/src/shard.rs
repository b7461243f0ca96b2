//! Component parts: a network split into its connected components.
//!
//! A connected component is a closed system under the LOCAL model — no
//! message ever crosses a component boundary, and a node's behavior
//! depends only on its component, its LOCAL id, and the announced
//! globals `(n, Δ)`. [`map_components`] exploits this: the flat
//! [`Components`] pass partitions the graph, each component is carved out
//! in O(component) ([`Components::extract`]) as its own **part network**,
//! and the executor's work items are whole components, each run on
//! scratch sized to it — so parts share nothing and need no
//! synchronization, and a part's tables stay cache-hot for all its rounds.
//!
//! Two facts make any algorithm's output on a part **bit-identical** to
//! the whole run's output on the same nodes:
//!
//! * node RNG streams are counter-mode, seeded from `(run seed, LOCAL
//!   id)` — a part carries its members' original ids, so every node draws
//!   the exact same randomness;
//! * a part announces the whole network's `(n, Δ)`
//!   ([`Network::with_known_n`], [`Network::with_announced_max_degree`]),
//!   and `extract` preserves per-node port order (it builds exactly the
//!   graph [`lcl_graph::Graph::induced_subgraph`] would), so every
//!   [`crate::NodeCtx`] and inbox is identical.
//!
//! The whole run's round count is the max over parts: it runs until its
//! slowest component settles, and a part that hits the cap reports the
//! cap, exactly as the whole run would.

use crate::network::Network;
use crate::NodeExecutor;
use lcl_graph::Components;

/// Runs `f` on every connected component of `net` as a closed part
/// network — its members' ids, `net`'s announced `(n, Δ)` — fanning the
/// components across `exec`. Returns the partition with the results in
/// component order (node `k` of part `c` is `comps.members(c)[k]`), or
/// `None` when `net` is connected: its one part is `net` itself, which a
/// caller measures in place rather than copying.
pub fn map_components<T, F, X>(net: &Network, exec: &X, f: F) -> Option<(Components, Vec<T>)>
where
    T: Send,
    F: Fn(&Network) -> T + Sync,
    X: NodeExecutor,
{
    let g = net.graph();
    let comps = Components::new(g);
    if comps.is_connected() {
        return None;
    }
    let out = exec.map_nodes(comps.count(), |c| {
        let ids = comps.members(c).iter().map(|&v| net.id_of(v)).collect();
        f(&Network::part_of(net, comps.extract(g, c), ids))
    });
    Some((comps, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdAssignment;
    use crate::rounds::{run_rounds, NodeCtx, RoundAlgorithm, RoundOutcome};
    use crate::trace::RoundTrace;
    use crate::Sequential;
    use lcl_graph::gen;
    use rand_chacha::ChaCha8Rng;

    /// Flood the maximum id (same protocol as the rounds tests): enough
    /// rounds to exercise multi-round convergence per component.
    struct FloodMax;

    struct FloodState {
        best: u64,
        stable_for: u32,
    }

    impl RoundAlgorithm for FloodMax {
        type State = FloodState;
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> FloodState {
            FloodState { best: ctx.id, stable_for: 0 }
        }

        fn send(&self, state: &FloodState, ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
            (0..ctx.degree).for_each(|p| out(p, state.best));
        }

        fn receive<'m>(
            &self,
            state: &mut FloodState,
            _ctx: &NodeCtx,
            inbox: impl Iterator<Item = (usize, &'m u64)>,
            _rng: &mut ChaCha8Rng,
        ) {
            let incoming = inbox.map(|(_, &m)| m).max().unwrap_or(0);
            if incoming > state.best {
                state.best = incoming;
                state.stable_for = 0;
            } else {
                state.stable_for += 1;
            }
        }

        fn output(&self, state: &FloodState, ctx: &NodeCtx) -> Option<u64> {
            (ctx.degree == 0 || state.stable_for >= ctx.known_n as u32).then_some(state.best)
        }
    }

    /// The round engine per component part, stitched back in node order
    /// into the outcome the whole run reports — `None` for a connected
    /// network.
    fn run_parts<A>(net: &Network, alg: &A, seed: u64, cap: u32) -> Option<RoundOutcome<A::Output>>
    where
        A: RoundAlgorithm + Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
        A::Output: Send,
    {
        let (comps, parts) = map_components(net, &Sequential, |p| run_rounds(p, alg, seed, cap))?;
        let mut outputs = vec![None; net.len()];
        let mut trace = RoundTrace { rounds: 0, completed: true };
        for (c, part) in parts.into_iter().enumerate() {
            trace.rounds = trace.rounds.max(part.trace.rounds);
            trace.completed &= part.trace.completed;
            for (out, &v) in part.outputs.into_iter().zip(comps.members(c)) {
                outputs[v.index()] = out;
            }
        }
        let undecided =
            (0..net.len()).filter(|&i| outputs[i].is_none()).map(|i| (i, net.ids()[i])).collect();
        Some(RoundOutcome { outputs, trace, undecided })
    }

    fn disconnected_zoo() -> Vec<lcl_graph::Graph> {
        let mut forest = gen::cycle(7);
        forest.append(&gen::path(5));
        forest.append(&gen::star(4));
        forest.add_node();
        let mut with_loop = gen::disjoint_cycles(3, 4);
        with_loop.add_edge(lcl_graph::NodeId(0), lcl_graph::NodeId(0));
        vec![forest, with_loop, gen::disjoint_cycles(5, 3), gen::cycle(9), lcl_graph::Graph::new()]
    }

    #[test]
    fn sharded_matches_unsharded_exactly() {
        for (k, g) in disconnected_zoo().into_iter().enumerate() {
            let connected = Components::new(&g).is_connected();
            let net = Network::new(g, IdAssignment::Shuffled { seed: k as u64 + 1 });
            let plain = run_rounds(&net, &FloodMax, 7, 500);
            let Some(parts) = run_parts(&net, &FloodMax, 7, 500) else {
                assert!(connected, "graph {k}: a disconnected network must split");
                continue;
            };
            assert_eq!(parts.outputs, plain.outputs, "graph {k}");
            assert_eq!(parts.trace, plain.trace, "graph {k}");
            assert_eq!(parts.undecided, plain.undecided, "graph {k}");
        }
    }

    #[test]
    fn cap_hit_traces_match_unsharded() {
        // Cap low enough that the larger component cannot finish.
        let mut g = gen::path(2);
        g.append(&gen::path(30));
        let net = Network::new(g, IdAssignment::Sequential);
        let plain = run_rounds(&net, &FloodMax, 0, 8);
        let parts = run_parts(&net, &FloodMax, 0, 8).expect("two components");
        assert!(!parts.trace.completed);
        assert_eq!(parts.trace, plain.trace);
        assert_eq!(parts.outputs, plain.outputs);
        assert_eq!(parts.undecided, plain.undecided);
    }

    #[test]
    fn announced_globals_reach_every_shard() {
        /// Outputs the announced `(n, Δ)` — parts must see the global
        /// values, not their own component's.
        struct Announce;
        impl RoundAlgorithm for Announce {
            type State = (usize, usize);
            type Msg = ();
            type Output = (usize, usize);
            fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> (usize, usize) {
                (ctx.known_n, ctx.max_degree)
            }
            fn send(&self, _s: &(usize, usize), _c: &NodeCtx, _out: impl FnMut(usize, ())) {}
            fn receive<'m>(
                &self,
                _s: &mut (usize, usize),
                _c: &NodeCtx,
                _i: impl Iterator<Item = (usize, &'m ())>,
                _r: &mut ChaCha8Rng,
            ) {
            }
            fn output(&self, s: &(usize, usize), _c: &NodeCtx) -> Option<(usize, usize)> {
                Some(*s)
            }
        }
        let mut g = gen::star(5); // Δ = 5 lives in component 0
        g.append(&gen::path(3));
        let net = Network::new(g, IdAssignment::Sequential).with_known_n(100);
        let (comps, parts) = map_components(&net, &Sequential, |p| {
            assert_eq!((p.known_n(), p.max_degree()), (100, 5));
            run_rounds(p, &Announce, 0, 4).into_outputs()
        })
        .expect("two components");
        assert_eq!(comps.count(), 2);
        for o in parts.into_iter().flatten() {
            assert_eq!(o, (100, 5));
        }
    }
}
