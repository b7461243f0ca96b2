//! Deterministic sinkless orientation in `Θ(log n)` rounds.
//!
//! **Algorithm** (folklore; the upper bound side of the `Θ(log n)` entry in
//! the paper's Figure 1). Fix `L = 2⌈log₂ n⌉ + 1`. Call a node a *core*
//! node if some cycle of length ≤ `L` passes through it. In a graph of
//! minimum degree 3 every node is within distance `⌈log₂ n⌉` of a core node
//! (a ball of that radius cannot be a tree), so the following terminates in
//! `O(log n)` rounds:
//!
//! * each node `v` grows its view until, for itself and each neighbor, the
//!   distance to the core (`d`) is *certified* — all closer nodes have been
//!   checked for core membership, which needs `L + 1` extra radius beyond
//!   the distance itself;
//! * each incident edge is then oriented by the global rule `F` of
//!   [`crate::rules`], every ingredient of which (`d`, `γ`, the canonical
//!   cycle `f(e)`, identifiers) the node now knows exactly — so the two
//!   endpoints of an edge, deciding independently at possibly different
//!   radii, always agree;
//! * a node whose view saturates (covers its whole component) before
//!   certification applies `F` to the component directly.
//!
//! The per-node radius recorded by [`run`] is exactly the certification
//! radius this scheme needs, and the orientation is computed by one global
//! evaluation of `F` — which equals what each node computes locally, since
//! every ingredient is certified-exact (the *locality audit* integration
//! test validates this by mutating graphs outside reported radii).

use crate::rules::{orient_globally, NodeAnalysis};
use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_graph::{Components, CycleSearch, NodeId};
use lcl_local::{LocalityTrace, Network, NodeExecutor, Sequential};

/// Tuning knobs for the deterministic algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Canonical-cycle enumeration cap (see `lcl_graph::CycleSearch`).
    pub cycle_cap: usize,
    /// Override for the short-cycle threshold `L`; `None` computes
    /// `2⌈log₂ n⌉ + 1` from the announced `n`.
    pub short_cycle_cap: Option<u32>,
}

impl Default for Params {
    fn default() -> Self {
        Params { cycle_cap: 64, short_cycle_cap: None }
    }
}

/// The threshold `L = 2⌈log₂ n⌉ + 1` (at least 3).
#[must_use]
pub fn short_cycle_threshold(known_n: usize) -> u32 {
    let log = usize::BITS - known_n.max(2).next_power_of_two().leading_zeros() - 1;
    2 * log + 1
}

/// Result of a deterministic sinkless-orientation run.
#[derive(Clone, Debug)]
pub struct DetOutcome {
    /// The orientation (passes the `SinklessOrientation` checker on
    /// instances whose constrained nodes all have degree ≥ 3).
    pub labeling: Labeling<Orient>,
    /// Honest per-node certification radii.
    pub trace: LocalityTrace,
    /// Per-node rule analysis (for experiments).
    pub analysis: Vec<NodeAnalysis>,
}

impl DetOutcome {
    /// Decodes the orientation into a plain certifiable
    /// [`lcl_certify::Solution`] (nodes of degree ≥ 3 constrained).
    ///
    /// # Errors
    ///
    /// [`lcl_certify::Violation::Decode`] if the labeling is malformed.
    pub fn solution(
        &self,
        g: &lcl_graph::Graph,
    ) -> Result<lcl_certify::Solution, lcl_certify::Violation> {
        lcl_certify::decode::orientation(g, &self.labeling, 3)
    }
}

/// Runs deterministic sinkless orientation on the network.
#[must_use]
pub fn run(net: &Network, params: &Params) -> DetOutcome {
    run_with(net, params, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`]: the per-node certification-
/// radius accounting (one eccentricity-bounded BFS per undecided node, the
/// dominant cost on large instances) fans across the executor. Radii are
/// pure per-node functions of the global analysis, so the outcome is
/// bit-identical under any executor.
#[must_use]
pub fn run_with<X: NodeExecutor>(net: &Network, params: &Params, exec: &X) -> DetOutcome {
    let g = net.graph();
    let el = params.short_cycle_cap.unwrap_or_else(|| short_cycle_threshold(net.known_n()));
    let search = CycleSearch::new(params.cycle_cap);
    let (labeling, analysis) = orient_globally(g, net.ids(), el, &search);

    // Honest radius accounting. Node v decides once
    //   max_{x ∈ {v} ∪ N(v)} d(x) ≤ r − L − 2
    // on its growth schedule r ∈ {L+3, 2L+4, 3L+5, …}, or once its view
    // saturates, whichever happens first. Saturation radius = eccentricity,
    // which we only compute exactly (one BFS) when the certification radius
    // might exceed it: a cheap per-component eccentricity lower bound
    // (triangle inequality from one anchor BFS) prunes almost every node.
    let mut ecc_lb: Vec<u32> = vec![0; g.node_count()];
    for comp in Components::new(g).iter() {
        let anchor = comp[0];
        let d = lcl_graph::bfs_distances(g, anchor);
        let ecc_anchor = comp.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0);
        for &v in comp {
            let dav = d[v.index()].expect("component member reachable");
            ecc_lb[v.index()] = dav.max(ecc_anchor.saturating_sub(dav));
        }
    }
    let radii: Vec<u32> = exec.map_nodes(g.node_count(), |vi| {
        let v = NodeId(vi as u32);
        let need = {
            let mut worst = analysis[v.index()].dist_to_core;
            let infinite_core = analysis[v.index()].branch != crate::rules::Branch::Core;
            for (w, _) in g.neighbors(v) {
                worst = worst.max(analysis[w.index()].dist_to_core);
            }
            if infinite_core {
                None // only saturation decides for non-core components
            } else {
                // Smallest scheduled radius with worst ≤ r - L - 2.
                let target = worst + el + 2;
                let step = el + 1;
                let mut r = el + 3;
                while r < target {
                    r += step;
                }
                Some(r)
            }
        };
        match need {
            Some(r) if r <= ecc_lb[v.index()] => r,
            _ => {
                let ecc = lcl_graph::bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0);
                need.map_or(ecc, |r| r.min(ecc))
            }
        }
    });

    let outcome = DetOutcome { labeling, trace: LocalityTrace::new(radii), analysis };
    if lcl_certify::enabled() {
        crate::error::self_certify_decoded(g, outcome.solution(g));
    }
    outcome
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
        for seed in 0..4 {
            let g = gen::random_regular(64, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
            assert!(out.trace.max_radius() >= 1);
        }
    }

    #[test]
    fn radius_scales_like_log_n() {
        // The certification radius is at most d + 2L + 3 where d ≤ ⌈log₂ n⌉
        // and L = 2⌈log₂ n⌉ + 1, so ≈ 5 log₂ n + o(log n); and at least L+3
        // whenever the graph is bigger than one ball.
        let mut prev = 0;
        for (n, seed) in [(64usize, 1u64), (256, 2), (1024, 3)] {
            let g = gen::random_regular(n, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let r = out.trace.max_radius();
            let log = (n as f64).log2();
            assert!(
                f64::from(r) <= 6.0 * log,
                "radius {r} too large for n={n} (6 log₂ n = {})",
                6.0 * log
            );
            assert!(r >= prev, "radius should not shrink as n grows");
            prev = r;
        }
    }

    #[test]
    fn works_on_degree_4_torus() {
        let net = Network::new(gen::torus(6, 6), IdAssignment::Shuffled { seed: 9 });
        let out = run(&net, &Params::default());
        let input = L::uniform(net.graph(), ());
        check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        // Tori are full of 4-cycles: everyone is a core node and certifies
        // at the first scheduled radius.
        let el = short_cycle_threshold(36);
        assert!(out.trace.max_radius() <= el + 3);
    }

    #[test]
    fn multigraph_hard_instances_are_handled() {
        // The virtual graphs of the padding construction can have loops and
        // parallel edges; the algorithm must cope (Section 2 of the paper).
        for seed in 0..4 {
            let g = gen::random_regular_multigraph(32, 3, seed).unwrap();
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, &Params::default());
            let input = L::uniform(net.graph(), ());
            check(&SinklessOrientation::new(), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn threshold_formula() {
        assert_eq!(short_cycle_threshold(2), 3);
        assert_eq!(short_cycle_threshold(8), 7);
        assert_eq!(short_cycle_threshold(1024), 21);
        // Non-powers of two round up.
        assert_eq!(short_cycle_threshold(1000), 21);
    }
}
