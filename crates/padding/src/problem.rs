//! The inner-problem interface consumed by the padding construction.
//!
//! The paper's Theorem 1 takes an arbitrary ne-LCL `Π`. The construction
//! needs two things from `Π`:
//!
//! 1. its **constraints** `C_N^Π` and `C_E^Π`, as an [`NeLcl`]. The same
//!    two functions check concrete instances and, in constraints 5d and 6
//!    of Section 3.3, a hypothetical virtual node and virtual edge;
//! 2. **filler labels** for the positions the paper leaves arbitrary
//!    (outputs inside invalid gadgets, `Σ_list` entries of ports outside
//!    `S`).
//!
//! [`SinklessInner`] is the base of the Theorem-11 hierarchy; padded
//! problems implement the trait too (in [`crate::lifted`]), closing the
//! recursion.

use lcl_core::problems::{Orient, SinklessOrientation};
use lcl_core::{Labeling, NeLcl};
use lcl_local::{Network, NodeExecutor, Sequential};

/// An ne-LCL as consumed by the padding construction: its constraints plus
/// filler labels. Inputs are `Send + Sync` so padded instances can fan
/// V-runs and flag computation across a `NodeExecutor`.
pub trait InnerProblem: NeLcl<In: PartialEq + Send + Sync, Out: PartialEq> {
    /// Filler input for positions without a meaningful `Π`-input
    /// (gadget-internal elements of a padded graph).
    fn filler_in(&self) -> Self::In;

    /// Filler output for positions the paper completes arbitrarily.
    fn filler_out(&self) -> Self::Out;

    /// Output for the edge position of a dangling virtual half-edge: an
    /// in-`S` port whose `PortEdge` leads to a port outside its own `S`
    /// (one with several `PortEdge`s, flagged `PortErr2`). The port stays
    /// in `S`, so constraint 5d sees a virtual half-edge that no virtual
    /// edge completes.
    fn dangler_edge_out(&self) -> Self::Out {
        self.filler_out()
    }

    /// Output for the node-side half position of a dangling virtual
    /// half-edge. Must make the node constraint satisfiable irrespective
    /// of the dangler (for sinkless orientation: `Out`).
    fn dangler_half_out(&self) -> Self::Out {
        self.filler_out()
    }
}

/// An algorithm solving an inner problem on a network, with honest round
/// accounting — the thing Lemma 4 simulates on the virtual graph.
pub trait PiAlgorithm<P: InnerProblem> {
    /// Solves the problem; `seed` drives randomized algorithms.
    fn solve(&self, net: &Network, input: &Labeling<P::In>, seed: u64) -> PiRun<P::Out> {
        self.solve_with(net, input, seed, &Sequential)
    }

    /// [`PiAlgorithm::solve`] with a pluggable [`NodeExecutor`]: the
    /// padded solver threads its executor through here, so the inner
    /// algorithm of a padded run — the virtual-graph simulation — fans
    /// its per-node work across the same worker pool as the outer steps.
    /// Implementations must be bit-identical under **any** executor (the
    /// engine determinism suite gates this).
    fn solve_with<X: NodeExecutor>(
        &self,
        net: &Network,
        input: &Labeling<P::In>,
        seed: u64,
        exec: &X,
    ) -> PiRun<P::Out>;
}

/// Result of one inner-problem run.
#[derive(Clone, Debug)]
pub struct PiRun<O> {
    /// The produced output labeling.
    pub output: Labeling<O>,
    /// Measured complexity (rounds / max view radius).
    pub rounds: u32,
}

/// Sinkless orientation as an inner problem — `Π_1` of the hierarchy. Its
/// constraints are [`SinklessOrientation`]'s own (degree ≥ 3 nodes may not
/// be sinks).
pub type SinklessInner = SinklessOrientation;

impl InnerProblem for SinklessOrientation {
    fn filler_in(&self) {}

    fn filler_out(&self) -> Orient {
        Orient::Blank
    }

    fn dangler_half_out(&self) -> Orient {
        // An `Out` half satisfies the non-sink constraint unconditionally.
        Orient::Out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::{EdgeView, NodeView};

    /// `C_N` of [`SinklessInner`] at a node with `Blank` edges and the
    /// given half-edge outputs.
    fn node_ok(halves: &[Orient]) -> bool {
        let units = vec![&(); halves.len()];
        let blanks = vec![&Orient::Blank; halves.len()];
        let halves: Vec<&Orient> = halves.iter().collect();
        let view = NodeView {
            degree: halves.len(),
            node_in: &(),
            node_out: &Orient::Blank,
            edges_in: &units,
            edges_out: &blanks,
            halves_in: &units,
            halves_out: &halves,
        };
        SinklessInner::new().check_node(&view).is_ok()
    }

    #[test]
    fn sinkless_inner_node_config() {
        // Degree-3 node, one half Out: fine.
        assert!(node_ok(&[Orient::Out, Orient::In, Orient::In]));
        // All-In degree-3: sink.
        assert!(!node_ok(&[Orient::In; 3]));
        // Degree 0 (isolated virtual node): unconstrained.
        assert!(node_ok(&[]));
    }

    #[test]
    fn sinkless_inner_edge_config() {
        let edge_ok = |a: Orient, b: Orient| {
            let view = EdgeView {
                self_loop: false,
                nodes_in: [&(), &()],
                nodes_out: [&Orient::Blank, &Orient::Blank],
                edge_in: &(),
                edge_out: &Orient::Blank,
                halves_in: [&(), &()],
                halves_out: [&a, &b],
            };
            SinklessInner::new().check_edge(&view).is_ok()
        };
        assert!(edge_ok(Orient::Out, Orient::In));
        assert!(!edge_ok(Orient::Out, Orient::Out));
    }

    #[test]
    fn danglers_are_satisfying() {
        // A degree-3 virtual node whose halves are all danglers must pass.
        let p = SinklessInner::new();
        assert_eq!(p.dangler_edge_out(), Orient::Blank);
        assert!(node_ok(&[p.dangler_half_out(); 3]));
    }
}
