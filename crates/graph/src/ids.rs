//! Strongly-typed identifiers for nodes, edges, and half-edges.

use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::fmt;

/// Index of a node in a [`crate::Graph`].
///
/// Node ids are dense: the nodes of a graph with `n` nodes are exactly
/// `NodeId(0), …, NodeId(n-1)`. They are *not* the LOCAL-model identifiers
/// (those are assigned separately by the simulator from `1..poly(n)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of an edge in a [`crate::Graph`]. Dense, like [`NodeId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// One of the two endpoint slots of an edge.
///
/// Even a self-loop has two distinct sides; this is what lets the paper's
/// set `B = {(v, e) | v ∈ e}` carry a label *per incidence* rather than per
/// (node, edge) pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Side {
    /// The endpoint stored first (the `u` of `add_edge(u, v)`).
    A,
    /// The endpoint stored second (the `v` of `add_edge(u, v)`).
    B,
}

impl Side {
    /// The other side.
    #[must_use]
    pub fn flip(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// Index (0 or 1) of this side in an endpoints array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// A half-edge: one incidence `(v, e)` of the paper's set `B`.
///
/// A half-edge is identified by an edge together with a [`Side`]; the node it
/// is attached to is recoverable through the graph. Half-edges are the
/// carriers of per-endpoint labels (e.g. the `in`/`out` labels of sinkless
/// orientation, Figure 3 of the paper).
///
/// # Representation
///
/// Stored **packed** as the dense index `2·edge + side` in a single `u32`,
/// so the CSR port slab (`Vec<HalfEdge>`) is 4 bytes per entry instead of
/// the 8 an `(EdgeId, Side)` pair with padding costs — half the memory
/// traffic on every port-table walk. The packing caps edge ids at `2³¹-1`,
/// plenty for the 10⁷–10⁸-node regime the huge-graph mode targets. The
/// derived ordering on the packed word coincides with the lexicographic
/// `(edge, side)` order of the old field pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct HalfEdge(u32);

impl HalfEdge {
    /// Creates the half-edge on `side` of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` exceeds the packed range (`2³¹-1`).
    #[must_use]
    pub fn new(edge: EdgeId, side: Side) -> Self {
        assert!(edge.0 <= u32::MAX >> 1, "edge id {edge:?} exceeds the packed half-edge range");
        HalfEdge((edge.0 << 1) | side.index() as u32)
    }

    /// The edge this half-edge belongs to.
    #[must_use]
    pub fn edge(self) -> EdgeId {
        EdgeId(self.0 >> 1)
    }

    /// Which endpoint slot of the edge.
    #[must_use]
    pub fn side(self) -> Side {
        if self.0 & 1 == 0 {
            Side::A
        } else {
            Side::B
        }
    }

    /// The half-edge at the opposite endpoint of the same edge.
    #[must_use]
    pub fn opposite(self) -> Self {
        HalfEdge(self.0 ^ 1)
    }

    /// Dense index of this half-edge: `2·edge + side`. The half-edges of a
    /// graph with `m` edges are exactly the indices `0..2m`, which is what
    /// lets per-half-edge tables (port inverses, message slots) be flat
    /// arrays. With the packed representation this is the identity — a
    /// plain widening load.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`HalfEdge::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the packed range (`u32`).
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        HalfEdge(u32::try_from(i).expect("half-edge index exceeds the packed range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for HalfEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{}", self.edge(), if self.side() == Side::A { "a" } else { "b" })
    }
}

/// Serializes as the pre-packing wire format `{"edge": N, "side": "A"|"B"}`
/// so persisted graphs and goldens are byte-identical across the
/// representation change.
impl Serialize for HalfEdge {
    fn stream(&self, sink: &mut dyn Sink) {
        sink.map_begin();
        sink.map_key("edge");
        self.edge().stream(sink);
        sink.map_key("side");
        self.side().stream(sink);
        sink.map_end();
    }
}

impl Deserialize for HalfEdge {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let edge = EdgeId::from_value(v.field("edge")?)?;
        let side = Side::from_value(v.field("side")?)?;
        Ok(HalfEdge::new(edge, side))
    }
}

impl NodeId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for EdgeId {
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_flip_is_involutive() {
        assert_eq!(Side::A.flip(), Side::B);
        assert_eq!(Side::B.flip(), Side::A);
        assert_eq!(Side::A.flip().flip(), Side::A);
    }

    #[test]
    fn half_edge_index_is_dense_and_invertible() {
        for e in 0..4u32 {
            for side in [Side::A, Side::B] {
                let h = HalfEdge::new(EdgeId(e), side);
                assert_eq!(h.index(), 2 * e as usize + side.index());
                assert_eq!(HalfEdge::from_index(h.index()), h);
                assert_eq!(h.opposite().index(), h.index() ^ 1);
            }
        }
    }

    #[test]
    fn half_edge_is_packed_to_four_bytes() {
        assert_eq!(std::mem::size_of::<HalfEdge>(), 4);
        assert_eq!(std::mem::size_of::<Option<HalfEdge>>(), 8);
    }

    #[test]
    fn half_edge_accessors_recover_the_parts() {
        for e in [0u32, 1, 7, u32::MAX >> 1] {
            for side in [Side::A, Side::B] {
                let h = HalfEdge::new(EdgeId(e), side);
                assert_eq!(h.edge(), EdgeId(e));
                assert_eq!(h.side(), side);
            }
        }
    }

    #[test]
    fn packed_order_is_lexicographic_in_edge_then_side() {
        let mut hs = [
            HalfEdge::new(EdgeId(1), Side::A),
            HalfEdge::new(EdgeId(0), Side::B),
            HalfEdge::new(EdgeId(1), Side::B),
            HalfEdge::new(EdgeId(0), Side::A),
        ];
        hs.sort();
        let parts: Vec<_> = hs.iter().map(|h| (h.edge().0, h.side().index())).collect();
        assert_eq!(parts, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "packed half-edge range")]
    fn oversized_edge_id_is_rejected() {
        let _ = HalfEdge::new(EdgeId(u32::MAX), Side::A);
    }

    #[test]
    fn half_edge_opposite_swaps_side_only() {
        let h = HalfEdge::new(EdgeId(7), Side::A);
        let o = h.opposite();
        assert_eq!(o.edge(), EdgeId(7));
        assert_eq!(o.side(), Side::B);
        assert_eq!(o.opposite(), h);
    }

    #[test]
    fn half_edge_serde_roundtrips_in_the_field_format() {
        let h = HalfEdge::new(EdgeId(5), Side::B);
        let v: Value = serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(EdgeId::from_value(v.field("edge").unwrap()).unwrap(), EdgeId(5));
        assert_eq!(Side::from_value(v.field("side").unwrap()).unwrap(), Side::B);
        assert_eq!(HalfEdge::from_value(&v).unwrap(), h);
    }

    #[test]
    fn debug_formats_are_nonempty_and_stable() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", EdgeId(5)), "e5");
        assert_eq!(format!("{:?}", HalfEdge::new(EdgeId(5), Side::B)), "e5b");
    }
}
