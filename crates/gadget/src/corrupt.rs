//! Structural mutation operators for fuzzing the gadget checker and
//! verifier (the `gadget_verifier` binary and the gadget fuzz tests):
//! every mutation below turns a valid gadget into a non-gadget, and Lemma
//! 7/8 completeness demands that some node's constant-radius check fails.

use crate::build::BuiltGadget;
use crate::labels::{Dir, GadgetIn, NodeKind};
use lcl_core::Labeling;
use lcl_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A structural corruption of a valid gadget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Remove the edge with the given index.
    DeleteEdge(u32),
    /// Relabel one half-edge's direction.
    RelabelHalf {
        /// Which edge.
        edge: u32,
        /// Which side.
        side: Side,
        /// The new direction.
        dir: Dir,
    },
    /// Change a node's sub-gadget index.
    ChangeIndex {
        /// Which node.
        node: u32,
        /// The new index.
        index: u8,
    },
    /// Toggle a node's port flag.
    TogglePort(u32),
    /// Add an extra edge with the given half labels.
    AddEdge {
        /// One endpoint.
        a: u32,
        /// Other endpoint.
        b: u32,
        /// Label on `a`'s side.
        dir_a: Dir,
        /// Label on `b`'s side.
        dir_b: Dir,
    },
    /// Copy one node's color onto another (keeping replicas consistent),
    /// breaking the distance-2 coloring if they are close.
    CopyColor {
        /// Color source.
        from: u32,
        /// Color target.
        to: u32,
    },
}

/// Applies a corruption, returning the new graph and labeling.
///
/// # Panics
///
/// Panics if the corruption refers to elements outside the gadget.
#[must_use]
pub fn apply(b: &BuiltGadget, c: &Corruption) -> (Graph, Labeling<GadgetIn>) {
    match c {
        Corruption::DeleteEdge(k) => delete_edge(b, EdgeId(*k)),
        Corruption::RelabelHalf { edge, side, dir } => {
            let mut input = b.input.clone();
            let h = HalfEdge::new(EdgeId(*edge), *side);
            let color = input.half(h).color().expect("half labeled");
            *input.half_mut(h) = GadgetIn::Half { dir: *dir, color };
            (b.graph.clone(), input)
        }
        Corruption::ChangeIndex { node, index } => {
            let mut input = b.input.clone();
            let v = NodeId(*node);
            if let GadgetIn::Node { kind: NodeKind::Tree { port, .. }, color } = *input.node(v) {
                *input.node_mut(v) =
                    GadgetIn::Node { kind: NodeKind::Tree { index: *index, port }, color };
            }
            (b.graph.clone(), input)
        }
        Corruption::TogglePort(node) => {
            let mut input = b.input.clone();
            let v = NodeId(*node);
            if let GadgetIn::Node { kind: NodeKind::Tree { index, port }, color } = *input.node(v) {
                *input.node_mut(v) =
                    GadgetIn::Node { kind: NodeKind::Tree { index, port: !port }, color };
            }
            (b.graph.clone(), input)
        }
        Corruption::AddEdge { a, b: bb, dir_a, dir_b } => {
            let mut g = b.graph.clone();
            let e = g.add_edge(NodeId(*a), NodeId(*bb));
            let ca = b.input.node(NodeId(*a)).color().expect("colored");
            let cb = b.input.node(NodeId(*bb)).color().expect("colored");
            let input = Labeling::build(
                &g,
                |v| *b.input.node(v),
                |x| if x == e { GadgetIn::Edge } else { *b.input.edge(x) },
                |h| {
                    if h.edge() == e {
                        if h.side() == Side::A {
                            GadgetIn::Half { dir: *dir_a, color: ca }
                        } else {
                            GadgetIn::Half { dir: *dir_b, color: cb }
                        }
                    } else {
                        *b.input.half(h)
                    }
                },
            );
            (g, input)
        }
        Corruption::CopyColor { from, to } => {
            let mut input = b.input.clone();
            let c = input.node(NodeId(*from)).color().expect("colored");
            let v = NodeId(*to);
            if let GadgetIn::Node { kind, .. } = *input.node(v) {
                *input.node_mut(v) = GadgetIn::Node { kind, color: c };
            }
            for &h in b.graph.ports(v) {
                if let GadgetIn::Half { dir, .. } = *input.half(h) {
                    *input.half_mut(h) = GadgetIn::Half { dir, color: c };
                }
            }
            (b.graph.clone(), input)
        }
    }
}

fn delete_edge(b: &BuiltGadget, victim: EdgeId) -> (Graph, Labeling<GadgetIn>) {
    let old = &b.graph;
    assert!(victim.index() < old.edge_count(), "edge out of range");
    let mut g = Graph::with_capacity(old.node_count(), old.edge_count() - 1);
    g.add_nodes(old.node_count());
    let mut node = Vec::with_capacity(old.node_count());
    for v in old.nodes() {
        node.push(*b.input.node(v));
    }
    let mut edge = Vec::new();
    let mut half = Vec::new();
    for e in old.edges() {
        if e == victim {
            continue;
        }
        let [x, y] = old.endpoints(e);
        g.add_edge(x, y);
        edge.push(*b.input.edge(e));
        half.push([
            *b.input.half(HalfEdge::new(e, Side::A)),
            *b.input.half(HalfEdge::new(e, Side::B)),
        ]);
    }
    (g, Labeling::from_parts(node, edge, half))
}

/// Draws a pseudo-random corruption for the given gadget. The sampled
/// mutations are chosen to be *non-trivially wrong*: e.g. added edges get
/// plausible direction pairs rather than garbage, exercising the deeper
/// constraints rather than only the pairing table.
#[must_use]
pub fn random_corruption(b: &BuiltGadget, seed: u64) -> Corruption {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0_22FF);
    let n = b.graph.node_count() as u32;
    let m = b.graph.edge_count() as u32;
    match rng.gen_range(0..6u32) {
        0 => Corruption::DeleteEdge(rng.gen_range(0..m)),
        1 => {
            let dirs = [
                Dir::Parent,
                Dir::Right,
                Dir::Left,
                Dir::LChild,
                Dir::RChild,
                Dir::Up,
                Dir::Down(rng.gen_range(1..=b.spec.delta() as u8)),
            ];
            Corruption::RelabelHalf {
                edge: rng.gen_range(0..m),
                side: if rng.gen_bool(0.5) { Side::A } else { Side::B },
                dir: dirs[rng.gen_range(0..dirs.len())],
            }
        }
        2 => Corruption::ChangeIndex {
            node: rng.gen_range(0..n),
            index: rng.gen_range(1..=b.spec.delta() as u8),
        },
        3 => Corruption::TogglePort(rng.gen_range(0..n)),
        4 => {
            // A plausible-looking extra edge.
            let pairs = [
                (Dir::Right, Dir::Left),
                (Dir::Parent, Dir::LChild),
                (Dir::Parent, Dir::RChild),
                (Dir::Up, Dir::Down(rng.gen_range(1..=b.spec.delta() as u8))),
            ];
            let (da, db) = pairs[rng.gen_range(0..pairs.len())];
            Corruption::AddEdge {
                a: rng.gen_range(0..n),
                b: rng.gen_range(0..n),
                dir_a: da,
                dir_b: db,
            }
        }
        _ => Corruption::CopyColor { from: rng.gen_range(0..n), to: rng.gen_range(0..n) },
    }
}

/// True if the corruption is guaranteed to change the structure/labeling
/// into a non-gadget. `CopyColor` and `ChangeIndex` onto themselves (or
/// onto an identical value) are no-ops; the fuzz harness skips those.
#[must_use]
pub fn is_effective(b: &BuiltGadget, c: &Corruption) -> bool {
    match c {
        Corruption::CopyColor { from, to } => {
            // Copying a color between nodes farther than distance 2 apart
            // produces another *valid* distance-2 coloring — no corruption.
            let (f, t) = (NodeId(*from), NodeId(*to));
            let close = lcl_graph::bfs_distances_capped(&b.graph, f, 2)[t.index()].is_some();
            f != t && close && b.input.node(f).color() != b.input.node(t).color()
        }
        Corruption::ChangeIndex { node, index } => {
            match b.input.node(NodeId(*node)).kind() {
                Some(NodeKind::Tree { index: old, .. }) => old != *index,
                _ => false, // center: kind untouched, no-op
            }
        }
        Corruption::RelabelHalf { edge, side, dir } => {
            b.input.half(HalfEdge::new(EdgeId(*edge), *side)).dir() != Some(*dir)
        }
        Corruption::TogglePort(node) => {
            // The center carries no port flag: toggling it is a no-op.
            matches!(b.input.node(NodeId(*node)).kind(), Some(NodeKind::Tree { .. }))
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_gadget, GadgetSpec};
    use crate::checks::is_valid_gadget;

    #[test]
    fn delete_edge_preserves_other_labels() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let (g, input) = apply(&b, &Corruption::DeleteEdge(0));
        assert_eq!(g.edge_count(), b.graph.edge_count() - 1);
        assert_eq!(g.node_count(), b.graph.node_count());
        assert!(input.fits(&g));
    }

    #[test]
    fn every_deleted_edge_invalidates() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        for k in 0..b.graph.edge_count() as u32 {
            let (g, input) = apply(&b, &Corruption::DeleteEdge(k));
            assert!(!is_valid_gadget(&g, &input, 2), "deleting edge {k} left the gadget 'valid'");
        }
    }

    #[test]
    fn toggling_any_port_flag_invalidates() {
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        for v in 0..b.graph.node_count() as u32 {
            let c = Corruption::TogglePort(v);
            if !matches!(b.input.node(NodeId(v)).kind(), Some(NodeKind::Tree { .. })) {
                continue;
            }
            let (g, input) = apply(&b, &c);
            assert!(!is_valid_gadget(&g, &input, 3), "toggling port of node {v}");
        }
    }

    #[test]
    fn effectiveness_filter() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        assert!(!is_effective(&b, &Corruption::CopyColor { from: 1, to: 1 }));
        assert!(is_effective(&b, &Corruption::DeleteEdge(0)));
    }
}
