//! The ne-LCL trait and its checker.

use crate::labeling::Labeling;
use lcl_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};
use std::fmt;

/// Everything a **node constraint** `C_N` may look at for node `v`: the
/// input and output labels of `v`, and — per incident port, in port order —
/// of each incident edge and of the `v`-side half-edge.
///
/// Constraints must not depend on the port *numbers* (only on the multiset
/// of incident configurations); the slice order is provided for convenience
/// and determinism only.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a, I, O> {
    /// The node's degree.
    pub degree: usize,
    /// Input label of the node.
    pub node_in: &'a I,
    /// Output label of the node.
    pub node_out: &'a O,
    /// Per port: input label of the incident edge.
    pub edges_in: &'a [&'a I],
    /// Per port: output label of the incident edge.
    pub edges_out: &'a [&'a O],
    /// Per port: input label of the half-edge on the node's side.
    pub halves_in: &'a [&'a I],
    /// Per port: output label of the half-edge on the node's side.
    pub halves_out: &'a [&'a O],
}

/// Everything an **edge constraint** `C_E` may look at for edge
/// `e = {u, v}`: labels of `u`, `v`, `e`, `(u, e)`, `(v, e)`. Index 0 is the
/// [`Side::A`] endpoint. Constraints must be symmetric in the two endpoints
/// (side order is an artifact of storage, not of the problem).
#[derive(Clone, Copy, Debug)]
pub struct EdgeView<'a, I, O> {
    /// True if the edge is a self-loop (both endpoints are the same node).
    pub self_loop: bool,
    /// Input labels of the two endpoint nodes.
    pub nodes_in: [&'a I; 2],
    /// Output labels of the two endpoint nodes.
    pub nodes_out: [&'a O; 2],
    /// Input label of the edge.
    pub edge_in: &'a I,
    /// Output label of the edge.
    pub edge_out: &'a O,
    /// Input labels of the two half-edges.
    pub halves_in: [&'a I; 2],
    /// Output labels of the two half-edges.
    pub halves_out: [&'a O; 2],
}

/// A node-edge-checkable LCL problem: label alphabets plus the two
/// constraint families.
///
/// Implementations return `Ok(())` when the local configuration is
/// acceptable and `Err(reason)` otherwise; the reason string is diagnostic
/// only (it plays no role in the semantics).
pub trait NeLcl {
    /// Input label alphabet `Σ_in` (a single product alphabet for
    /// `V ∪ E ∪ B`, as in the paper's w.l.o.g. encoding).
    type In: Clone + fmt::Debug;
    /// Output label alphabet `Σ_out`.
    type Out: Clone + fmt::Debug;

    /// The node constraint `C_N`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic message when the configuration at the node is
    /// not permitted.
    fn check_node(&self, view: &NodeView<'_, Self::In, Self::Out>) -> Result<(), String>;

    /// The edge constraint `C_E`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic message when the configuration at the edge is
    /// not permitted.
    fn check_edge(&self, view: &EdgeView<'_, Self::In, Self::Out>) -> Result<(), String>;
}

/// A rejected local constraint, attributed to the rejecting element — the
/// LCL definition requires that an incorrect solution is rejected *at* some
/// node or edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The node constraint failed at this node.
    Node(NodeId, String),
    /// The edge constraint failed at this edge.
    Edge(EdgeId, String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Node(v, why) => write!(f, "node constraint failed at {v}: {why}"),
            Violation::Edge(e, why) => write!(f, "edge constraint failed at {e}: {why}"),
        }
    }
}

/// Outcome of checking a labeling against an ne-LCL.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckResult {
    /// All rejecting elements (empty iff the solution is correct).
    pub violations: Vec<Violation>,
}

impl CheckResult {
    /// True iff no constraint rejected.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable report if any constraint rejected. For tests.
    ///
    /// # Panics
    ///
    /// Panics if the check found violations.
    pub fn expect_ok(&self) {
        assert!(
            self.is_ok(),
            "expected a correct solution, got {} violation(s):\n{}",
            self.violations.len(),
            self.violations.iter().take(10).map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}

/// Checks `output` against problem `p` on graph `g` with the given `input`.
///
/// This is the (centralized simulation of the) constant-round distributed
/// verifier whose existence defines LCLs: every violation is local, and the
/// result lists each rejecting node/edge.
///
/// # Panics
///
/// Panics if the labelings do not fit the graph.
pub fn check<P: NeLcl>(
    p: &P,
    g: &Graph,
    input: &Labeling<P::In>,
    output: &Labeling<P::Out>,
) -> CheckResult {
    assert!(input.fits(g), "input labeling does not fit the graph");
    assert!(output.fits(g), "output labeling does not fit the graph");
    let mut violations = Vec::new();

    // One set of view buffers for every node: they hold references into
    // `input` and `output`, and each node refills them.
    let mut edges_in: Vec<&P::In> = Vec::new();
    let mut edges_out: Vec<&P::Out> = Vec::new();
    let mut halves_in: Vec<&P::In> = Vec::new();
    let mut halves_out: Vec<&P::Out> = Vec::new();
    for v in g.nodes() {
        let ports = g.ports(v);
        edges_in.clear();
        edges_in.extend(ports.iter().map(|h| input.edge(h.edge())));
        edges_out.clear();
        edges_out.extend(ports.iter().map(|h| output.edge(h.edge())));
        halves_in.clear();
        halves_in.extend(ports.iter().map(|&h| input.half(h)));
        halves_out.clear();
        halves_out.extend(ports.iter().map(|&h| output.half(h)));
        let view = NodeView {
            degree: ports.len(),
            node_in: input.node(v),
            node_out: output.node(v),
            edges_in: &edges_in,
            edges_out: &edges_out,
            halves_in: &halves_in,
            halves_out: &halves_out,
        };
        if let Err(why) = p.check_node(&view) {
            violations.push(Violation::Node(v, why));
        }
    }

    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        let ha = HalfEdge::new(e, Side::A);
        let hb = HalfEdge::new(e, Side::B);
        let view = EdgeView {
            self_loop: u == v,
            nodes_in: [input.node(u), input.node(v)],
            nodes_out: [output.node(u), output.node(v)],
            edge_in: input.edge(e),
            edge_out: output.edge(e),
            halves_in: [input.half(ha), input.half(hb)],
            halves_out: [output.half(ha), output.half(hb)],
        };
        if let Err(why) = p.check_edge(&view) {
            violations.push(Violation::Edge(e, why));
        }
    }

    CheckResult { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    /// A toy ne-LCL: every node must output its degree; edges are
    /// unconstrained.
    struct DegreeEcho;

    impl NeLcl for DegreeEcho {
        type In = ();
        type Out = usize;

        fn check_node(&self, view: &NodeView<'_, (), usize>) -> Result<(), String> {
            if *view.node_out == view.degree {
                Ok(())
            } else {
                Err(format!("expected {}, got {}", view.degree, view.node_out))
            }
        }

        fn check_edge(&self, _view: &EdgeView<'_, (), usize>) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn checker_accepts_correct_solution() {
        let g = gen::star(3);
        let input = Labeling::uniform(&g, ());
        let output = Labeling::build(&g, |v| g.degree(v), |_| 0, |_| 0);
        check(&DegreeEcho, &g, &input, &output).expect_ok();
    }

    #[test]
    fn checker_localizes_violation() {
        let g = gen::star(3);
        let input = Labeling::uniform(&g, ());
        let mut output = Labeling::build(&g, |v| g.degree(v), |_| 0, |_| 0);
        *output.node_mut(NodeId(0)) = 99;
        let res = check(&DegreeEcho, &g, &input, &output);
        assert_eq!(res.violations.len(), 1);
        assert!(matches!(res.violations[0], Violation::Node(NodeId(0), _)));
        assert!(!res.is_ok());
        assert!(res.violations[0].to_string().contains("node constraint"));
    }

    /// Edge constraint demo: endpoint outputs must differ (proper coloring
    /// skeleton), exercising the EdgeView path including self-loops.
    struct Differ;
    impl NeLcl for Differ {
        type In = ();
        type Out = u8;
        fn check_node(&self, _v: &NodeView<'_, (), u8>) -> Result<(), String> {
            Ok(())
        }
        fn check_edge(&self, view: &EdgeView<'_, (), u8>) -> Result<(), String> {
            if view.nodes_out[0] == view.nodes_out[1] {
                Err("endpoints share a label".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn self_loop_trips_differ() {
        let mut g = gen::path(2);
        g.add_edge(NodeId(0), NodeId(0));
        let input = Labeling::uniform(&g, ());
        let output = Labeling::build(&g, |v| v.0 as u8, |_| 0, |_| 0);
        let res = check(&Differ, &g, &input, &output);
        assert_eq!(res.violations.len(), 1);
        assert!(matches!(res.violations[0], Violation::Edge(EdgeId(1), _)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mismatched_labeling_panics() {
        let g = gen::path(3);
        let h = gen::path(2);
        let input = Labeling::uniform(&h, ());
        let output = Labeling::uniform(&g, 0u8);
        let _ = check(&Differ, &g, &input, &output);
    }
}
