//! The view engine: adaptive radius-`r` ball algorithms.

use crate::network::Network;
use crate::trace::LocalityTrace;
use crate::NodeExecutor;
use lcl_graph::{Ball, BallCache, EdgeId, Graph, NodeId};

/// What one node sees after gathering radius `r`: its ball, with LOCAL
/// identifiers and (for randomized algorithms) every ball member's random
/// tape. Input labels live outside the simulator (they are indexed by *host*
/// ids, which the view exposes via [`View::host_node`] / [`View::host_edge`];
/// an algorithm may only query labels of elements inside its view — the
/// problem-level runners in `lcl-core` enforce this by construction).
#[derive(Clone, Debug)]
pub struct View {
    ball: Ball,
    ids: Vec<u64>,
    seed: u64,
    entire_component: bool,
}

impl View {
    /// Gathers the radius-`r` view through the sweep's shared
    /// [`BallCache`], which keeps extraction equal to [`Ball::extract`]
    /// while amortizing BFS and scratch work across the adaptive loop.
    fn extract(
        net: &Network,
        cache: &mut BallCache<'_>,
        center: NodeId,
        r: u32,
        seed: u64,
    ) -> View {
        let entire_component = cache.saturated(center, r);
        let ball = cache.ball(center, r);
        let ids = (0..ball.len()).map(|i| net.id_of(ball.to_host_node(NodeId(i as u32)))).collect();
        View { ball, ids, seed, entire_component }
    }

    /// The ball's graph (dense local ids; the center is node 0).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.ball.graph()
    }

    /// The underlying ball.
    #[must_use]
    pub fn ball(&self) -> &Ball {
        &self.ball
    }

    /// The center's local id (always `NodeId(0)`).
    #[must_use]
    pub fn center(&self) -> NodeId {
        self.ball.center()
    }

    /// The gathered radius.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.ball.radius()
    }

    /// LOCAL identifier of a local node.
    #[must_use]
    pub fn id(&self, local: NodeId) -> u64 {
        self.ids[local.index()]
    }

    /// LOCAL identifiers indexed by local node id (usable as the `node_key`
    /// of `lcl_graph::CycleSearch`).
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The center's LOCAL identifier.
    #[must_use]
    pub fn center_id(&self) -> u64 {
        self.ids[self.center().index()]
    }

    /// Host node behind a local node.
    #[must_use]
    pub fn host_node(&self, local: NodeId) -> NodeId {
        self.ball.to_host_node(local)
    }

    /// Host edge behind a local edge.
    #[must_use]
    pub fn host_edge(&self, local: EdgeId) -> EdgeId {
        self.ball.to_host_edge(local)
    }

    /// Host edge ids indexed by local edge id (usable as the `edge_key` of
    /// `lcl_graph::CycleSearch`; host edge ids are globally consistent
    /// across different nodes' views).
    #[must_use]
    pub fn host_edge_keys(&self) -> Vec<u64> {
        self.graph().edges().map(|e| u64::from(self.host_edge(e).0)).collect()
    }

    /// True if the view contains the center's entire connected component —
    /// gathering further changes nothing. Adaptive algorithms use this to
    /// fall back to brute force on small components, exactly as the paper's
    /// simulation arguments do.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.entire_component
    }

    /// The `k`-th random word of the node with the given *local* id.
    ///
    /// In the randomized LOCAL model every node holds a private infinite
    /// random tape; after `r` rounds a node can know the tapes of its whole
    /// ball (neighbors forward them). Tapes are a pure function of
    /// `(run seed, LOCAL identifier)`, so every view of the same node reads
    /// the same tape.
    #[must_use]
    pub fn rand_word(&self, local: NodeId, k: u64) -> u64 {
        rand_word(self.seed, self.id(local), k)
    }
}

/// Stateless per-`(seed, id, index)` random word: SplitMix64 over a mixed
/// key. The round engine derives its per-node RNG streams from it, and
/// executor-threaded randomized runners (e.g. `lcl_algos::sinkless_rand`)
/// use it for counter-mode draws that are independent of node iteration
/// order — the property that makes parallel runs bit-identical to
/// sequential ones.
#[must_use]
pub fn rand_word(seed: u64, id: u64, k: u64) -> u64 {
    let mut z =
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Context available to every node in addition to its view: the globally
/// announced quantities of the LOCAL model.
#[derive(Clone, Copy, Debug)]
pub struct ViewCtx {
    /// The announced number of nodes (an upper bound on the true `n`).
    pub known_n: usize,
    /// The maximum degree `Δ`.
    pub max_degree: usize,
    /// The run seed (randomized algorithms derive tapes from it).
    pub seed: u64,
}

/// A node's verdict after inspecting a view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision<O> {
    /// Commit to an output.
    Output(O),
    /// Grow the view to the given radius (must strictly increase).
    Extend(u32),
}

/// An algorithm in the view formalism: a function from views to decisions.
///
/// Implementations must be **id-consistent**: the decision may depend only
/// on the view (structure, identifiers, tapes) and the context, never on
/// host indices, so that the simulated algorithm is a legal LOCAL algorithm.
pub trait ViewAlgorithm {
    /// The per-node output.
    type Output;

    /// The radius to gather first (default 1).
    fn initial_radius(&self, ctx: &ViewCtx) -> u32 {
        let _ = ctx;
        1
    }

    /// Inspect a view and either output or ask for a larger radius.
    fn decide(&self, view: &View, ctx: &ViewCtx) -> Decision<Self::Output>;
}

/// Result of a view-engine run.
#[derive(Clone, Debug)]
pub struct ViewOutcome<O> {
    /// Per-node outputs (indexed by host node id). `None` only occurs in
    /// capped runs, for nodes that needed more radius than allowed.
    pub outputs: Vec<Option<O>>,
    /// Per-node radii actually needed.
    pub trace: LocalityTrace,
}

impl<O> ViewOutcome<O> {
    /// Unwraps all outputs.
    ///
    /// # Panics
    ///
    /// Panics if some node produced no output (only possible in capped runs).
    #[must_use]
    pub fn into_outputs(self) -> Vec<O> {
        self.outputs
            .into_iter()
            .map(|o| o.expect("node was capped before producing an output"))
            .collect()
    }

    /// True if every node produced an output.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }
}

/// Runs a view algorithm to completion on every node.
///
/// # Panics
///
/// Panics if a node keeps extending beyond radius `n + 1` (a bug in the
/// algorithm: by then its view is its entire component).
pub fn run_views<A: ViewAlgorithm>(net: &Network, alg: &A, seed: u64) -> ViewOutcome<A::Output> {
    run_views_capped(net, alg, seed, net.len() as u32 + 1)
}

/// Runs a view algorithm with a hard radius cap. Nodes that would need a
/// larger view give up (`None`) — this is the primitive behind the
/// lower-bound probes (L1, `lower_bound_probe`): capping a correct
/// algorithm below its required locality must produce constraint
/// violations.
pub fn run_views_capped<A: ViewAlgorithm>(
    net: &Network,
    alg: &A,
    seed: u64,
    cap: u32,
) -> ViewOutcome<A::Output> {
    let ctx = ViewCtx { known_n: net.known_n(), max_degree: net.max_degree(), seed };
    let mut cache = BallCache::new(net.graph());
    let mut outputs: Vec<Option<A::Output>> = Vec::with_capacity(net.len());
    let mut radii = Vec::with_capacity(net.len());
    for v in net.graph().nodes() {
        let (out, used) = decide_one(net, alg, &ctx, v, seed, cap, &mut cache);
        outputs.push(out);
        radii.push(used);
    }
    ViewOutcome { outputs, trace: LocalityTrace::new(radii) }
}

/// [`run_views`] with a pluggable [`NodeExecutor`].
///
/// Per-node decisions are independent (each node reads only its own views
/// and the shared per-`(seed, id)` tapes), so **any** executor produces
/// output and trace bit-identical to [`run_views`] on the same inputs.
pub fn run_views_with<A, X>(net: &Network, alg: &A, seed: u64, exec: &X) -> ViewOutcome<A::Output>
where
    A: ViewAlgorithm + Sync,
    A::Output: Send,
    X: NodeExecutor,
{
    run_views_capped_with(net, alg, seed, net.len() as u32 + 1, exec)
}

/// [`run_views_capped`] with a pluggable [`NodeExecutor`].
pub fn run_views_capped_with<A, X>(
    net: &Network,
    alg: &A,
    seed: u64,
    cap: u32,
    exec: &X,
) -> ViewOutcome<A::Output>
where
    A: ViewAlgorithm + Sync,
    A::Output: Send,
    X: NodeExecutor,
{
    let ctx = ViewCtx { known_n: net.known_n(), max_degree: net.max_degree(), seed };
    // Every worker owns a ball cache for its share of the sweep; cache
    // state never changes extracted views, so outputs stay bit-identical
    // to the sequential engine regardless of how nodes are grouped.
    let per_node = exec.map_nodes_init(
        net.len(),
        || BallCache::new(net.graph()),
        |cache, i| decide_one(net, alg, &ctx, NodeId(i as u32), seed, cap, cache),
    );
    let mut outputs = Vec::with_capacity(per_node.len());
    let mut radii = Vec::with_capacity(per_node.len());
    for (out, used) in per_node {
        outputs.push(out);
        radii.push(used);
    }
    ViewOutcome { outputs, trace: LocalityTrace::new(radii) }
}

/// Runs one node's adaptive view loop: gather, decide, extend. Releases
/// the node's cached frontier afterwards so sweep memory stays bounded by
/// the largest single ball, not the sum of all balls.
fn decide_one<A: ViewAlgorithm>(
    net: &Network,
    alg: &A,
    ctx: &ViewCtx,
    v: NodeId,
    seed: u64,
    cap: u32,
    cache: &mut BallCache<'_>,
) -> (Option<A::Output>, u32) {
    let decision = decide_one_inner(net, alg, ctx, v, seed, cap, cache);
    cache.release(v);
    decision
}

fn decide_one_inner<A: ViewAlgorithm>(
    net: &Network,
    alg: &A,
    ctx: &ViewCtx,
    v: NodeId,
    seed: u64,
    cap: u32,
    cache: &mut BallCache<'_>,
) -> (Option<A::Output>, u32) {
    let mut r = alg.initial_radius(ctx).min(cap);
    loop {
        let view = View::extract(net, cache, v, r, seed);
        let saturated = view.saturated();
        match alg.decide(&view, ctx) {
            Decision::Output(o) => {
                // If the ball saturated early, the node only ever needed
                // enough radius to see its whole component.
                let effective = if saturated {
                    let max_dist = (0..view.ball.len() as u32)
                        .map(|i| view.ball.dist_from_center(NodeId(i)))
                        .max()
                        .unwrap_or(0);
                    r.min(max_dist)
                } else {
                    r
                };
                return (Some(o), effective);
            }
            Decision::Extend(r2) => {
                assert!(r2 > r, "Extend must strictly increase the radius");
                if r2 > cap {
                    return (None, r);
                }
                assert!(
                    r2 <= net.len() as u32 + 1,
                    "algorithm did not terminate within radius n+1"
                );
                r = r2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdAssignment;
    use lcl_graph::gen;

    /// Outputs the center's id once the view covers radius 2.
    struct IdAtRadius2;
    impl ViewAlgorithm for IdAtRadius2 {
        type Output = u64;
        fn decide(&self, view: &View, _ctx: &ViewCtx) -> Decision<u64> {
            if view.radius() >= 2 || view.saturated() {
                Decision::Output(view.center_id())
            } else {
                Decision::Extend(view.radius() + 1)
            }
        }
    }

    #[test]
    fn run_views_collects_outputs_and_radii() {
        let net = Network::new(gen::cycle(10), IdAssignment::Sequential);
        let out = run_views(&net, &IdAtRadius2, 0);
        assert!(out.complete());
        assert_eq!(out.trace.max_radius(), 2);
        assert_eq!(out.into_outputs(), (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn capped_run_yields_none() {
        let net = Network::new(gen::cycle(10), IdAssignment::Sequential);
        let out = run_views_capped(&net, &IdAtRadius2, 0, 1);
        assert!(!out.complete());
        assert!(out.outputs.iter().all(Option::is_none));
    }

    /// Gathers the whole component by repeatedly extending.
    struct WholeComponent;
    impl ViewAlgorithm for WholeComponent {
        type Output = usize;
        fn decide(&self, view: &View, _ctx: &ViewCtx) -> Decision<usize> {
            if view.saturated() {
                Decision::Output(view.graph().node_count())
            } else {
                Decision::Extend(view.radius() + 1)
            }
        }
    }

    #[test]
    fn saturation_stops_growth_and_trims_radius() {
        let net = Network::new(gen::cycle(8), IdAssignment::Sequential);
        let out = run_views(&net, &WholeComponent, 0);
        assert_eq!(out.outputs[0], Some(8));
        // Component diameter is 4; recorded radius must not exceed it.
        assert!(out.trace.max_radius() <= 4);
    }

    struct TapeProbe;
    impl ViewAlgorithm for TapeProbe {
        type Output = u64;
        fn decide(&self, view: &View, _ctx: &ViewCtx) -> Decision<u64> {
            Decision::Output(view.rand_word(view.center(), 0))
        }
    }

    #[test]
    fn random_tapes_are_seed_deterministic() {
        let net = Network::new(gen::cycle(6), IdAssignment::Shuffled { seed: 3 });
        let a = run_views(&net, &TapeProbe, 77).into_outputs();
        let b = run_views(&net, &TapeProbe, 77).into_outputs();
        assert_eq!(a, b);
        let c = run_views(&net, &TapeProbe, 78).into_outputs();
        assert_ne!(a, c);
    }

    /// A neighbor can read the center's tape: tapes are view-independent.
    struct NeighborTape;
    impl ViewAlgorithm for NeighborTape {
        type Output = Vec<u64>;
        fn decide(&self, view: &View, _ctx: &ViewCtx) -> Decision<Vec<u64>> {
            let mut words: Vec<(u64, u64)> =
                view.graph().nodes().map(|v| (view.id(v), view.rand_word(v, 0))).collect();
            words.sort_unstable();
            Decision::Output(words.into_iter().map(|(_, w)| w).collect())
        }
    }

    #[test]
    fn tapes_agree_across_observers() {
        let net = Network::new(gen::complete(4), IdAssignment::Sequential);
        let outs = run_views(&net, &NeighborTape, 5).into_outputs();
        for o in &outs {
            assert_eq!(o, &outs[0], "every node reads identical tapes");
        }
    }

    #[test]
    fn disconnected_networks_are_handled() {
        let mut g = gen::cycle(4);
        g.add_node();
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run_views(&net, &WholeComponent, 0);
        assert_eq!(out.outputs[4], Some(1));
        assert_eq!(out.trace.radii()[4], 0);
    }
}
