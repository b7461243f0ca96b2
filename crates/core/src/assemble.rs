//! Assembling a global [`Labeling`] from per-node local outputs.

use crate::labeling::Labeling;
use lcl_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};
use std::error::Error;
use std::fmt;

/// Failure to merge per-node outputs into a labeling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// The two endpoints of an edge proposed different edge labels.
    EdgeDisagreement {
        /// The edge whose endpoints disagree.
        edge: EdgeId,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::EdgeDisagreement { edge } => {
                write!(f, "endpoints of {edge} proposed different edge labels")
            }
        }
    }
}

impl Error for AssembleError {}

/// Merges what every node emits into a global labeling. A node labels
/// itself, `node(v)`, and at each port `p` returns `port(v, p)`: the label
/// of the half-edge on its side and its *proposal* for the edge label.
/// `port` is called once per port, so a node's output exists only at the
/// ports it has.
///
/// The paper requires that for every edge `e = {u, v}` "nodes `u` and `v`
/// have to choose the same output label for `e`"; `assemble` enforces
/// exactly that.
///
/// # Errors
///
/// [`AssembleError::EdgeDisagreement`] for the lowest-numbered edge whose
/// two endpoints proposed different labels for it. For a self-loop both
/// proposals come from the same node (its two ports) and must still agree.
pub fn assemble<L: Eq>(
    g: &Graph,
    node: impl FnMut(NodeId) -> L,
    mut port: impl FnMut(NodeId, usize) -> (L, L),
) -> Result<Labeling<L>, AssembleError> {
    let mut edge_labels = Vec::with_capacity(g.edge_count());
    let mut half_labels = Vec::with_capacity(g.edge_count());
    for e in g.edges() {
        let [(half_a, edge_a), (half_b, edge_b)] = [Side::A, Side::B].map(|side| {
            let h = HalfEdge::new(e, side);
            port(g.half_edge_node(h), g.port_of(h))
        });
        if edge_a != edge_b {
            return Err(AssembleError::EdgeDisagreement { edge: e });
        }
        edge_labels.push(edge_a);
        half_labels.push([half_a, half_b]);
    }
    Ok(Labeling::from_parts(g.nodes().map(node).collect(), edge_labels, half_labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    #[test]
    fn assemble_merges_agreeing_outputs() {
        let g = gen::path(3);
        let lab = assemble(
            &g,
            |v| v.0,
            |v, p| {
                let h = g.ports(v)[p];
                (h.edge().0 * 10 + h.side().index() as u32, h.edge().0 * 100)
            },
        )
        .expect("agreeing outputs");
        assert_eq!(*lab.node(NodeId(1)), 1);
        assert_eq!(*lab.edge(EdgeId(1)), 100);
        assert_eq!(*lab.half(HalfEdge::new(EdgeId(1), Side::B)), 11);
    }

    #[test]
    fn disagreement_is_an_error() {
        // Node 1 proposes its own index on both of its edges, which its
        // neighbors 0 and 2 do not: edge 0 is the first to disagree.
        let g = gen::path(3);
        let err = assemble(&g, |_| 0u32, |v, _| (0, v.0)).unwrap_err();
        assert_eq!(err, AssembleError::EdgeDisagreement { edge: EdgeId(0) });
        assert!(err.to_string().contains("different edge labels"));
    }

    #[test]
    fn self_loop_requires_internal_agreement() {
        let mut g = lcl_graph::Graph::new();
        let v = g.add_node();
        g.add_edge(v, v);
        // The node proposes different labels on its two loop ports.
        assert!(assemble(&g, |_| 0u32, |_, p| (p as u32 + 1, p as u32 + 3)).is_err());
        let lab = assemble(&g, |_| 0u32, |_, p| (p as u32 + 1, 3)).expect("agreeing loop");
        assert_eq!(*lab.edge(EdgeId(0)), 3);
        assert_eq!(*lab.half(HalfEdge::new(EdgeId(0), Side::A)), 1);
        assert_eq!(*lab.half(HalfEdge::new(EdgeId(0), Side::B)), 2);
    }
}
