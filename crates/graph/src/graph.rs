//! The multigraph structure with port numbering, stored in CSR form.

use crate::ids::{EdgeId, HalfEdge, NodeId, Side};
use serde::{DeError, Deserialize, Serialize, Sink, Value};

/// A finite multigraph with port numbering.
///
/// Self-loops and parallel edges are allowed (the paper explicitly works in
/// this class, Section 2). Each node's incidences are ordered: the incidence
/// at position `p` is the node's **port `p`**. A self-loop occupies two ports
/// of its node, one per [`Side`].
///
/// The structure is append-only: nodes and edges can be added but not
/// removed. Experiments that need "a graph with part deleted" build a new
/// graph via [`Graph::induced_subgraph`] or mask elements at a higher layer;
/// this keeps ids dense and stable, which the LOCAL simulator relies on.
///
/// # Layout
///
/// Port tables live in one flat **CSR slab**: node `v`'s ports are the
/// contiguous slice `port_half_edges[port_offsets[v] ..][..degrees[v]]`.
/// Segments carry doubling slack (`port_caps`) so [`Graph::add_edge`] stays
/// amortized `O(1)` without a builder/freeze split; a full segment is
/// relocated to the slab tail with twice the capacity, abandoning the old
/// copy (total slab length stays `O(m)` by the usual doubling argument).
///
/// Alongside the slab, three half-edge-indexed tables (see
/// [`HalfEdge::index`]) are maintained incrementally so the hot read paths
/// are single array loads:
///
/// * `half_port[h]` — the port of `h` at its own node ([`Graph::port_of`],
///   previously a linear scan of the port table);
/// * `peer_node[h]` — the node at the *other* end of `h`'s edge
///   ([`Graph::half_edge_peer`], previously two dependent loads);
/// * `peer_port[h]` — the port of the opposite half-edge at the peer
///   ([`Graph::peer_port`]): the receiving port of a message sent across
///   `h`, which makes LOCAL message routing `O(1)` per message.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// The CSR slab: per-node port segments (with slack; see layout note).
    port_half_edges: Vec<HalfEdge>,
    /// Per node: start of its segment in the slab.
    port_offsets: Vec<u32>,
    /// Per node: capacity of its segment.
    port_caps: Vec<u32>,
    /// Per node: number of live ports (the node's degree).
    degrees: Vec<u32>,
    /// Per edge: the two endpoints, indexed by [`Side`].
    edges: Vec<[NodeId; 2]>,
    /// Per half-edge: its port at its own node.
    half_port: Vec<u32>,
    /// Per half-edge: the node at the opposite endpoint.
    peer_node: Vec<NodeId>,
    /// Per half-edge: the opposite half-edge's port at the peer.
    peer_port: Vec<u32>,
    /// Cached maximum degree. The graph is append-only, so the maximum is
    /// monotone and one compare per port insertion keeps it exact — callers
    /// ([`Graph::max_degree`], `lcl_local::Network::new`, snapshot headers)
    /// stop paying an `O(n)` rescan.
    max_deg: u32,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes and
    /// `edges` edges.
    #[must_use]
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            port_half_edges: Vec::with_capacity(2 * edges),
            port_offsets: Vec::with_capacity(nodes),
            port_caps: Vec::with_capacity(nodes),
            degrees: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            half_port: Vec::with_capacity(2 * edges),
            peer_node: Vec::with_capacity(2 * edges),
            peer_port: Vec::with_capacity(2 * edges),
            max_deg: 0,
        }
    }

    /// Adds an isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.degrees.len()).expect("node count exceeds u32"));
        self.port_offsets.push(0);
        self.port_caps.push(0);
        self.degrees.push(0);
        id
    }

    /// Adds `k` isolated nodes, returning the id of the first.
    ///
    /// The new nodes are `first, first+1, …, first+k-1` (ids are dense).
    pub fn add_nodes(&mut self, k: usize) -> NodeId {
        let first = NodeId(u32::try_from(self.degrees.len()).expect("node count exceeds u32"));
        for _ in 0..k {
            self.add_node();
        }
        first
    }

    /// Appends `h` to `v`'s port segment, relocating the segment to the
    /// slab tail with doubled capacity when full. Returns the port used.
    fn push_port(&mut self, v: NodeId, h: HalfEdge) -> u32 {
        let i = v.index();
        let (len, cap) = (self.degrees[i], self.port_caps[i]);
        if len == cap {
            let tail = u32::try_from(self.port_half_edges.len()).expect("slab exceeds u32");
            if cap > 0 && self.port_offsets[i] + cap == tail {
                // Already the last segment: extend in place.
                self.port_caps[i] = cap + cap;
                self.port_half_edges.resize(
                    self.port_half_edges.len() + cap as usize,
                    HalfEdge::new(EdgeId(0), Side::A),
                );
            } else {
                let new_cap = (2 * cap).max(2);
                let old = self.port_offsets[i] as usize;
                self.port_offsets[i] = tail;
                self.port_caps[i] = new_cap;
                for k in 0..len as usize {
                    let copy = self.port_half_edges[old + k];
                    self.port_half_edges.push(copy);
                }
                self.port_half_edges
                    .resize(tail as usize + new_cap as usize, HalfEdge::new(EdgeId(0), Side::A));
            }
        }
        self.port_half_edges[self.port_offsets[i] as usize + len as usize] = h;
        self.degrees[i] = len + 1;
        self.max_deg = self.max_deg.max(len + 1);
        len
    }

    /// Adds an edge between `u` and `v` (they may coincide: a self-loop) and
    /// returns its id. The new edge occupies the next free port at each
    /// endpoint (both ports of `u` for a self-loop).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(u.index() < self.degrees.len(), "endpoint {u:?} out of range");
        assert!(v.index() < self.degrees.len(), "endpoint {v:?} out of range");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32"));
        self.edges.push([u, v]);
        let pa = self.push_port(u, HalfEdge::new(id, Side::A));
        let pb = self.push_port(v, HalfEdge::new(id, Side::B));
        // Half-edge tables, in index order (2·id, 2·id + 1).
        self.half_port.push(pa);
        self.half_port.push(pb);
        self.peer_node.push(v);
        self.peer_node.push(u);
        self.peer_port.push(pb);
        self.peer_port.push(pa);
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.degrees.len()
    }

    /// Number of edges (self-loops count once).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.degrees.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over all half-edges (each edge yields both sides).
    pub fn half_edges(&self) -> impl Iterator<Item = HalfEdge> + '_ {
        self.edges().flat_map(|e| [HalfEdge::new(e, Side::A), HalfEdge::new(e, Side::B)])
    }

    /// Degree of `v` (self-loops contribute 2).
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v.index()] as usize
    }

    /// Maximum degree `Δ` over all nodes (0 for the empty graph). `O(1)`:
    /// maintained incrementally on every edge insertion.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        debug_assert_eq!(
            self.max_deg,
            self.degrees.iter().max().copied().unwrap_or(0),
            "cached max degree out of sync"
        );
        self.max_deg as usize
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.degrees.iter().min().copied().unwrap_or(0) as usize
    }

    /// The two endpoints of `e`, indexed by [`Side`] (`[A, B]`).
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> [NodeId; 2] {
        self.edges[e.index()]
    }

    /// The node a half-edge is attached to.
    #[must_use]
    pub fn half_edge_node(&self, h: HalfEdge) -> NodeId {
        self.edges[h.edge().index()][h.side().index()]
    }

    /// The node at the *other* end of the half-edge's edge.
    #[must_use]
    pub fn half_edge_peer(&self, h: HalfEdge) -> NodeId {
        self.peer_node[h.index()]
    }

    /// The ordered incidences (port table) of `v`.
    #[must_use]
    pub fn ports(&self, v: NodeId) -> &[HalfEdge] {
        let i = v.index();
        let off = self.port_offsets[i] as usize;
        &self.port_half_edges[off..off + self.degrees[i] as usize]
    }

    /// The half-edge plugged into port `p` of `v`, if `p < degree(v)`.
    #[must_use]
    pub fn half_edge_at_port(&self, v: NodeId, p: usize) -> Option<HalfEdge> {
        self.ports(v).get(p).copied()
    }

    /// The neighbor reached through port `p` of `v` (the node itself for a
    /// self-loop), if the port exists.
    #[must_use]
    pub fn neighbor_via_port(&self, v: NodeId, p: usize) -> Option<NodeId> {
        self.half_edge_at_port(v, p).map(|h| self.half_edge_peer(h))
    }

    /// The port number of half-edge `h` at its node — `O(1)`, from the
    /// precomputed inverse table.
    ///
    /// # Panics
    ///
    /// Panics if the half-edge does not belong to this graph.
    #[must_use]
    pub fn port_of(&self, h: HalfEdge) -> usize {
        self.half_port[h.index()] as usize
    }

    /// The port at which the *opposite* half-edge of `h`'s edge sits on the
    /// peer node — i.e. the receiving port of a message sent across `h`
    /// from `h`'s node. Equal to `port_of(h.opposite())`, as one load.
    ///
    /// # Panics
    ///
    /// Panics if the half-edge does not belong to this graph.
    #[must_use]
    pub fn peer_port(&self, h: HalfEdge) -> usize {
        self.peer_port[h.index()] as usize
    }

    /// Iterator over `(neighbor, half_edge)` pairs at `v`, in port order.
    /// The half-edge is the one attached to `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, HalfEdge)> + '_ {
        self.ports(v).iter().map(|&h| (self.peer_node[h.index()], h))
    }

    /// True if `e` is a self-loop.
    #[must_use]
    pub fn is_self_loop(&self, e: EdgeId) -> bool {
        let [a, b] = self.endpoints(e);
        a == b
    }

    /// True if some pair of distinct edges joins the same two nodes, or a
    /// self-loop exists. Used by generators that promise simple graphs.
    #[must_use]
    pub fn has_multi_edges_or_loops(&self) -> bool {
        use std::collections::HashSet;
        let mut seen = HashSet::with_capacity(self.edges.len());
        for &[a, b] in &self.edges {
            if a == b {
                return true;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            if !seen.insert(key) {
                return true;
            }
        }
        false
    }

    /// Builds the subgraph induced by `keep`, returning it together with the
    /// mapping `new id -> old id`. Ports of kept nodes preserve the relative
    /// order of surviving incidences.
    #[must_use]
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut old_to_new = vec![None; self.node_count()];
        let mut sub = Graph::with_capacity(keep.len(), 0);
        let mut new_to_old = Vec::with_capacity(keep.len());
        for &v in keep {
            if old_to_new[v.index()].is_none() {
                let nv = sub.add_node();
                old_to_new[v.index()] = Some(nv);
                new_to_old.push(v);
            }
        }
        for e in self.edges() {
            let [a, b] = self.endpoints(e);
            if let (Some(na), Some(nb)) = (old_to_new[a.index()], old_to_new[b.index()]) {
                sub.add_edge(na, nb);
            }
        }
        (sub, new_to_old)
    }

    /// Total length of the CSR port slab, including segment slack and dead
    /// segments abandoned by relocation. Equals `2 · edge_count()` exactly
    /// when the slab is fully packed (see [`Graph::compact`]).
    #[must_use]
    pub fn port_slab_len(&self) -> usize {
        self.port_half_edges.len()
    }

    /// Repacks the CSR slab: every node's port segment is rewritten
    /// contiguously in node order with capacity equal to its degree,
    /// dropping the dead segments and doubling slack that incremental
    /// [`Graph::add_edge`] construction leaves behind. After this call
    /// `port_slab_len() == 2 · edge_count()` and neighbor iteration walks
    /// the slab strictly forward — the layout `Graph::from_tables`
    /// produces. `O(n + m)`; a no-op on an already-packed graph. The
    /// half-edge tables are position-independent and unaffected.
    ///
    /// Called automatically where a graph becomes immutable (e.g.
    /// `lcl_local::Network` construction); callers that keep appending
    /// afterwards just regrow slack as usual.
    pub fn compact(&mut self) {
        let packed_len = 2 * self.edges.len();
        let already_packed = self.port_half_edges.len() == packed_len
            && self.port_caps.iter().zip(&self.degrees).all(|(c, d)| c == d);
        if already_packed {
            return;
        }
        let mut slab = Vec::with_capacity(packed_len);
        for i in 0..self.degrees.len() {
            let off = self.port_offsets[i] as usize;
            let len = self.degrees[i] as usize;
            let new_off = u32::try_from(slab.len()).expect("slab exceeds u32");
            slab.extend_from_slice(&self.port_half_edges[off..off + len]);
            self.port_offsets[i] = new_off;
            self.port_caps[i] = self.degrees[i];
        }
        self.port_half_edges = slab;
    }

    /// Disjoint union: appends all of `other`'s nodes and edges to `self`,
    /// returning the id offset applied to `other`'s nodes (its node `k`
    /// becomes `offset + k`).
    pub fn append(&mut self, other: &Graph) -> NodeId {
        let offset = self.node_count() as u32;
        for _ in 0..other.node_count() {
            self.add_node();
        }
        for e in other.edges() {
            let [a, b] = other.endpoints(e);
            self.add_edge(NodeId(a.0 + offset), NodeId(b.0 + offset));
        }
        NodeId(offset)
    }

    /// Rebuilds a graph from a packed port slab — node `v`'s ports are
    /// `slab[offsets[v]..offsets[v + 1]]` — and the edge endpoints: the
    /// deserialization and snapshot-load path. Validates that the tables
    /// describe a consistent port numbering (the offsets split a slab of
    /// `2m` half-edges, each present exactly once, at an endpoint of its
    /// edge) and derives the half-edge tables from it.
    pub(crate) fn from_tables(
        slab: Vec<HalfEdge>,
        mut offsets: Vec<u32>,
        edges: Vec<[NodeId; 2]>,
    ) -> Result<Graph, DeError> {
        let n = offsets.len().saturating_sub(1);
        let m = edges.len();
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets[n] as usize != slab.len()
            || slab.len() != 2 * m
        {
            return Err(DeError::new("port offsets do not split a slab of 2m half-edges"));
        }
        for &[a, b] in &edges {
            if a.index() >= n || b.index() >= n {
                return Err(DeError::new(format!("edge endpoint out of range: [{a:?}, {b:?}]")));
            }
        }
        // 2m slab entries, each a distinct one of the 2m half-edges: every
        // half-edge is present.
        let mut half_port = vec![u32::MAX; 2 * m];
        for (vi, w) in offsets.windows(2).enumerate() {
            for (p, &h) in slab[w[0] as usize..w[1] as usize].iter().enumerate() {
                if h.edge().index() >= m {
                    return Err(DeError::new(format!("half-edge {h:?} references unknown edge")));
                }
                if edges[h.edge().index()][h.side().index()].index() != vi {
                    return Err(DeError::new(format!(
                        "half-edge {h:?} listed at node n{vi}, but its edge endpoint disagrees"
                    )));
                }
                if half_port[h.index()] != u32::MAX {
                    return Err(DeError::new(format!("half-edge {h:?} appears twice")));
                }
                half_port[h.index()] = p as u32;
            }
        }
        let degrees = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        offsets.pop();
        Ok(Graph::from_packed_tables(slab, offsets, degrees, edges, half_port))
    }

    /// Builds the graph on nodes `0..n` whose edge `i` is `edges[i]`, with
    /// exactly the port numbering replaying `add_edge` over `edges` in order
    /// gives — side A before side B, so a self-loop takes two consecutive
    /// ports — but straight into a packed slab: degrees are counted, the
    /// offsets prefix-summed, and the ports filled in edge order. No slack,
    /// no relocation, and [`Graph::compact`] has nothing to do.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n`, or the slab exceeds `u32`.
    pub(crate) fn from_edges(n: usize, edges: Vec<[NodeId; 2]>) -> Graph {
        let slab_len = u32::try_from(2 * edges.len()).expect("slab exceeds u32");
        let mut degrees = vec![0u32; n];
        for &[a, b] in &edges {
            degrees[a.index()] += 1;
            degrees[b.index()] += 1;
        }
        let mut offset = 0;
        let port_offsets = degrees
            .iter()
            .map(|&d| {
                offset += d;
                offset - d
            })
            .collect::<Vec<u32>>();
        // `degrees` doubles as the fill cursor and ends where it started.
        degrees.fill(0);
        let mut slab = vec![HalfEdge::new(EdgeId(0), Side::A); slab_len as usize];
        let mut half_port = vec![0u32; slab_len as usize];
        for (e, &[a, b]) in edges.iter().enumerate() {
            for (v, side) in [(a, Side::A), (b, Side::B)] {
                let h = HalfEdge::new(EdgeId(e as u32), side);
                let port = degrees[v.index()];
                degrees[v.index()] = port + 1;
                slab[(port_offsets[v.index()] + port) as usize] = h;
                half_port[h.index()] = port;
            }
        }
        Graph::from_packed_tables(slab, port_offsets, degrees, edges, half_port)
    }

    /// Assembles a graph from packed CSR tables that already describe a
    /// consistent port numbering — `port_offsets` are prefix sums of
    /// `degrees` and `half_port` inverts the slab — deriving the peer
    /// tables. [`Graph::from_tables`] validates before calling it;
    /// [`Graph::from_edges`] builds its tables consistent by construction;
    /// `Components::extract` copies its tables out of a graph.
    pub(crate) fn from_packed_tables(
        port_half_edges: Vec<HalfEdge>,
        port_offsets: Vec<u32>,
        degrees: Vec<u32>,
        edges: Vec<[NodeId; 2]>,
        half_port: Vec<u32>,
    ) -> Graph {
        let peer_node = (0..half_port.len()).map(|h| edges[h / 2][1 - h % 2]).collect();
        let peer_port = (0..half_port.len()).map(|h| half_port[h ^ 1]).collect();
        let max_deg = degrees.iter().max().copied().unwrap_or(0);
        Graph {
            port_half_edges,
            port_offsets,
            port_caps: degrees.clone(),
            degrees,
            edges,
            half_port,
            peer_node,
            peer_port,
            max_deg,
        }
    }
}

/// Equality is structural: same nodes, same edges, same port tables. The
/// CSR slab's slack and segment placement are construction artifacts and do
/// not participate (a deserialized graph compares equal to the graph that
/// produced it even though its slab is packed).
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.node_count() == other.node_count()
            && self.edges == other.edges
            && self.nodes().all(|v| self.ports(v) == other.ports(v))
    }
}

impl Eq for Graph {}

/// Serializes in the pre-CSR wire format — a map of nested `ports` tables
/// and `edges` endpoint pairs — so persisted graphs and goldens are
/// byte-identical across the layout change.
impl Serialize for Graph {
    fn stream(&self, sink: &mut dyn Sink) {
        sink.map_begin();
        sink.map_key("ports");
        sink.seq_begin();
        for v in self.nodes() {
            sink.seq_elem();
            sink.seq_begin();
            for h in self.ports(v) {
                sink.seq_elem();
                h.stream(sink);
            }
            sink.seq_end();
        }
        sink.seq_end();
        sink.map_key("edges");
        self.edges.stream(sink);
        sink.map_end();
    }
}

impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let ports = Vec::<Vec<HalfEdge>>::from_value(v.field("ports")?)?;
        let edges = Vec::<[NodeId; 2]>::from_value(v.field("edges")?)?;
        let mut offsets = vec![0u32];
        for table in &ports {
            let end = offsets[offsets.len() - 1] as usize + table.len();
            offsets.push(u32::try_from(end).map_err(|_| DeError::new("port slab exceeds u32"))?);
        }
        Graph::from_tables(ports.concat(), offsets, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `g`'s serialized tree, parsed back from its JSON bytes.
    fn tree(g: &Graph) -> Value {
        serde_json::from_str(&serde_json::to_string(g).unwrap()).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
    }

    #[test]
    fn triangle_degrees_and_ports() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let ab = g.add_edge(a, b);
        let bc = g.add_edge(b, c);
        let ca = g.add_edge(c, a);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.degree(c), 2);
        // Port order follows insertion order.
        assert_eq!(g.half_edge_at_port(a, 0).unwrap().edge(), ab);
        assert_eq!(g.half_edge_at_port(a, 1).unwrap().edge(), ca);
        assert_eq!(g.neighbor_via_port(b, 0), Some(a));
        assert_eq!(g.neighbor_via_port(b, 1), Some(c));
        assert_eq!(g.endpoints(bc), [b, c]);
        assert!(!g.has_multi_edges_or_loops());
    }

    #[test]
    fn self_loop_occupies_two_ports_and_counts_twice() {
        let mut g = Graph::new();
        let v = g.add_node();
        let e = g.add_edge(v, v);
        assert_eq!(g.degree(v), 2);
        assert!(g.is_self_loop(e));
        assert!(g.has_multi_edges_or_loops());
        let h0 = g.half_edge_at_port(v, 0).unwrap();
        let h1 = g.half_edge_at_port(v, 1).unwrap();
        assert_eq!(h0.edge(), e);
        assert_eq!(h1.edge(), e);
        assert_ne!(h0.side(), h1.side());
        assert_eq!(g.half_edge_peer(h0), v);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        assert_ne!(e1, e2);
        assert_eq!(g.degree(a), 2);
        assert!(g.has_multi_edges_or_loops());
        assert!(!g.is_self_loop(e1));
    }

    #[test]
    fn port_of_inverts_half_edge_at_port() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(a, a);
        for p in 0..g.degree(a) {
            let h = g.half_edge_at_port(a, p).unwrap();
            assert_eq!(g.port_of(h), p);
        }
    }

    #[test]
    fn peer_port_matches_port_of_opposite() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.add_edge(a, a);
        g.add_edge(a, b);
        for h in g.half_edges() {
            assert_eq!(g.peer_port(h), g.port_of(h.opposite()), "{h:?}");
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        let (sub, back) = g.induced_subgraph(&[a, b]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn append_offsets_ids() {
        let mut g = Graph::new();
        g.add_node();
        let mut h = Graph::new();
        let x = h.add_node();
        let y = h.add_node();
        h.add_edge(x, y);
        let off = g.append(&h);
        assert_eq!(off, NodeId(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.endpoints(EdgeId(0)), [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn half_edges_iterates_both_sides() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let hs: Vec<_> = g.half_edges().collect();
        assert_eq!(hs.len(), 2);
        assert_eq!(g.half_edge_node(hs[0]), a);
        assert_eq!(g.half_edge_node(hs[1]), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_validates_endpoints() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.add_edge(a, NodeId(99));
    }

    #[test]
    fn high_degree_segment_relocation_preserves_port_order() {
        // A star forces the hub's segment through every doubling step,
        // interleaved with leaf segments so relocation (not in-place
        // extension) is exercised.
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut edges = Vec::new();
        for _ in 0..33 {
            let leaf = g.add_node();
            edges.push(g.add_edge(leaf, hub));
        }
        assert_eq!(g.degree(hub), 33);
        for (p, e) in edges.iter().enumerate() {
            let h = g.half_edge_at_port(hub, p).unwrap();
            assert_eq!(h.edge(), *e);
            assert_eq!(h.side(), Side::B);
            assert_eq!(g.port_of(h), p);
            assert_eq!(g.peer_port(h), 0);
        }
    }

    #[test]
    fn compact_repacks_the_slab_and_preserves_structure() {
        // Interleaved hub/leaf growth leaves dead relocated segments.
        let mut g = Graph::new();
        let hub = g.add_node();
        for _ in 0..33 {
            let leaf = g.add_node();
            g.add_edge(hub, leaf);
        }
        let before = g.clone();
        assert!(g.port_slab_len() > 2 * g.edge_count(), "construction must leave slack");
        g.compact();
        assert_eq!(g.port_slab_len(), 2 * g.edge_count());
        assert_eq!(g, before);
        // Every read API survives: ports, inverse tables, neighbors.
        for v in g.nodes() {
            assert_eq!(g.ports(v), before.ports(v));
            for (p, &h) in g.ports(v).iter().enumerate() {
                assert_eq!(g.port_of(h), p);
                assert_eq!(g.peer_port(h), before.peer_port(h));
                assert_eq!(g.half_edge_peer(h), before.half_edge_peer(h));
            }
        }
        // Idempotent, and appending afterwards still works.
        g.compact();
        assert_eq!(g.port_slab_len(), 2 * g.edge_count());
        let v = g.add_node();
        g.add_edge(hub, v);
        assert_eq!(g.degree(hub), 34);
        assert_eq!(g.neighbor_via_port(hub, 33), Some(v));
    }

    #[test]
    fn compact_empty_and_packed_graphs_are_noops() {
        let mut g = Graph::new();
        g.compact();
        assert_eq!(g.port_slab_len(), 0);
        // A deserialized graph is already packed; compact must not disturb it.
        let mut h = Graph::new();
        let a = h.add_node();
        let b = h.add_node();
        h.add_edge(a, b);
        let mut packed = Graph::from_value(&tree(&h)).unwrap();
        let slab_before = packed.port_slab_len();
        packed.compact();
        assert_eq!(packed.port_slab_len(), slab_before);
        assert_eq!(packed, h);
    }

    #[test]
    fn structural_equality_ignores_slab_layout() {
        // An incrementally built graph carries slack and relocated
        // segments in its slab; its deserialized twin is packed tight.
        // Equality must not see the difference (in either direction).
        let mut g = Graph::new();
        let hub = g.add_node();
        for _ in 0..7 {
            let leaf = g.add_node();
            g.add_edge(hub, leaf); // hub's segment relocates repeatedly
        }
        let packed = Graph::from_value(&tree(&g)).expect("own output re-ingests");
        assert_eq!(g, packed);
        assert_eq!(packed, g);
        // Port order is structure: the same edges with two of the hub's
        // ports renumbered (a consistent table, so it deserializes fine)
        // is a *different* port-numbered graph.
        let Value::Map(mut entries) = tree(&g) else { panic!("map") };
        let Value::Seq(tables) = &mut entries[0].1 else { panic!("seq") };
        let Value::Seq(hub_table) = &mut tables[hub.index()] else { panic!("seq") };
        hub_table.swap(0, 1);
        let renumbered = Graph::from_value(&Value::Map(entries)).expect("consistent tables");
        assert_ne!(g, renumbered);
    }

    #[test]
    fn serde_wire_format_is_the_port_table_map() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let v = tree(&g);
        let ports = v.field("ports").unwrap();
        let edges = v.field("edges").unwrap();
        assert_eq!(ports.seq_n(2).unwrap().len(), 2);
        assert_eq!(edges.seq_n(1).unwrap().len(), 1);
        let back = Graph::from_value(&v).unwrap();
        assert_eq!(back, g);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The packed constructor is the `add_edge` replay of its edge
        /// list, table for table, on multigraphs with self-loops, parallel
        /// edges and isolated nodes (and the empty graph, `n = 0`).
        #[test]
        fn from_edges_is_the_add_edge_replay(
            n in 0u32..12,
            raw in proptest::collection::vec((0u32..1024, 0u32..1024), 0..40),
        ) {
            let edges: Vec<[NodeId; 2]> = if n == 0 {
                Vec::new()
            } else {
                raw.iter().map(|&(a, b)| [NodeId(a % n), NodeId(b % n)]).collect()
            };
            let mut replay = Graph::new();
            replay.add_nodes(n as usize);
            for &[a, b] in &edges {
                replay.add_edge(a, b);
            }
            let packed = Graph::from_edges(n as usize, edges);
            proptest::prop_assert_eq!(&packed, &replay);
            proptest::prop_assert_eq!(packed.port_slab_len(), 2 * packed.edge_count());
            proptest::prop_assert_eq!(packed.max_degree(), replay.max_degree());
            proptest::prop_assert_eq!(packed.content_hash(), replay.content_hash());
            for v in replay.nodes() {
                proptest::prop_assert_eq!(packed.ports(v), replay.ports(v));
            }
            for h in replay.half_edges() {
                proptest::prop_assert_eq!(packed.port_of(h), replay.port_of(h));
                proptest::prop_assert_eq!(packed.peer_port(h), replay.peer_port(h));
                proptest::prop_assert_eq!(packed.half_edge_peer(h), replay.half_edge_peer(h));
            }
        }
    }

    #[test]
    fn deserialize_rejects_inconsistent_tables() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let good = tree(&g);
        // Swap the two port tables: each half-edge now sits at the wrong
        // node.
        let Value::Map(mut entries) = good.clone() else { panic!("map") };
        if let Value::Seq(tables) = &mut entries[0].1 {
            tables.swap(0, 1);
        }
        assert!(Graph::from_value(&Value::Map(entries)).is_err());
        // Duplicate a half-edge.
        let Value::Map(mut entries) = good else { panic!("map") };
        if let Value::Seq(tables) = &mut entries[0].1 {
            let h = match &tables[0] {
                Value::Seq(items) => items[0].clone(),
                _ => panic!("seq"),
            };
            if let Value::Seq(items) = &mut tables[0] {
                items.push(h);
            }
        }
        assert!(Graph::from_value(&Value::Map(entries)).is_err());
    }
}
