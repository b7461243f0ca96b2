//! Shortest-cycle search and canonical cycle orientation.
//!
//! The deterministic `O(log n)` sinkless-orientation algorithm (see
//! `lcl-algos`) orients the edges of "cycle-core" nodes along canonically
//! chosen shortest cycles. Consistency between the two endpoints of an edge
//! requires a *total order* on cycles that every node computes identically
//! from its view; this module provides that order ([`CanonicalCycle`]) and
//! the bounded enumeration of shortest cycles through an edge
//! ([`CycleSearch`]).
//!
//! All functions take explicit `node_key` / `edge_key` slices: the keys are
//! the LOCAL-model identifiers (which are globally unique), **not** the dense
//! graph indices, so that the order is the same no matter which node's ball
//! the computation happens in.

use crate::metrics::dist_avoiding_edge;
use crate::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// A simple cycle in canonical orientation.
///
/// `nodes[i]` and `nodes[(i+1) % len]` are joined by `edges[i]`. The
/// canonical form is the rotation/direction minimizing the pair
/// `(node key sequence, edge key sequence)` lexicographically, which makes
/// cycles totally ordered by `(length, canonical node keys, canonical edge
/// keys)` — a well-defined order even in multigraphs (two distinct cycles on
/// the same node sequence differ in some edge key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalCycle {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    node_keys: Vec<u64>,
    edge_keys: Vec<u64>,
}

impl CanonicalCycle {
    /// Canonicalizes a closed walk given as `nodes[0..L]` and `edges[0..L]`
    /// with `edges[i]` joining `nodes[i]` and `nodes[(i+1) % L]`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` and `edges` have different lengths or are empty, or
    /// if a key slice is too short.
    #[must_use]
    pub fn from_closed_walk(
        nodes: &[NodeId],
        edges: &[EdgeId],
        node_key: &[u64],
        edge_key: &[u64],
    ) -> CanonicalCycle {
        assert_eq!(nodes.len(), edges.len(), "cycle must have equal node/edge counts");
        assert!(!nodes.is_empty(), "cycle must be nonempty");
        let len = nodes.len();
        // (node keys, edge keys, nodes, edges) of the best rotation so far.
        type Rotation = (Vec<u64>, Vec<u64>, Vec<NodeId>, Vec<EdgeId>);
        let mut best: Option<Rotation> = None;
        // All rotations in both directions.
        for start in 0..len {
            for &dir in &[1isize, -1] {
                let mut ns = Vec::with_capacity(len);
                let mut es = Vec::with_capacity(len);
                let mut i = start as isize;
                for _ in 0..len {
                    ns.push(nodes[i.rem_euclid(len as isize) as usize]);
                    // Forward: edge i joins node i -> i+1. Backward from
                    // position i we traverse edge (i-1) to reach node i-1.
                    let e = if dir == 1 {
                        edges[i.rem_euclid(len as isize) as usize]
                    } else {
                        edges[(i - 1).rem_euclid(len as isize) as usize]
                    };
                    es.push(e);
                    i += dir;
                }
                let nk: Vec<u64> = ns.iter().map(|v| node_key[v.index()]).collect();
                let ek: Vec<u64> = es.iter().map(|e| edge_key[e.index()]).collect();
                let cand = (nk, ek, ns, es);
                if best.as_ref().is_none_or(|b| {
                    (cand.0.as_slice(), cand.1.as_slice()) < (b.0.as_slice(), b.1.as_slice())
                }) {
                    best = Some(cand);
                }
            }
        }
        let (node_keys, edge_keys, nodes, edges) = best.expect("nonempty cycle");
        CanonicalCycle { nodes, edges, node_keys, edge_keys }
    }

    /// Cycle length (number of edges = number of nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cycle is empty (never: cycles have length ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes in canonical order.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges in canonical order (`edges()[i]` joins `nodes()[i]` and
    /// `nodes()[(i+1) % len]`).
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The edge leaving `v` in the canonical direction, if `v` lies on the
    /// cycle. For a self-loop cycle this is the loop itself.
    #[must_use]
    pub fn successor_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.nodes.iter().position(|&x| x == v).map(|i| self.edges[i])
    }

    /// True if `e` is one of the cycle's edges.
    #[must_use]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    fn order_key(&self) -> (usize, &[u64], &[u64]) {
        (self.nodes.len(), &self.node_keys, &self.edge_keys)
    }
}

impl PartialOrd for CanonicalCycle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalCycle {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

/// Bounded shortest-cycle enumeration.
///
/// `cap` bounds how many shortest cycles through an edge are enumerated; the
/// minimum over the enumerated set is still a deterministic function of the
/// input (both endpoints of an edge compute the same set), so endpoint
/// agreement is preserved even when the cap truncates. The `ablations`
/// binary (A1) sweeps the cap from 1 to 256 and records, per cap, whether
/// the output changes and whether it still verifies.
#[derive(Clone, Copy, Debug)]
pub struct CycleSearch {
    cap: usize,
}

impl Default for CycleSearch {
    fn default() -> Self {
        CycleSearch { cap: 64 }
    }
}

impl CycleSearch {
    /// Creates a search with the given enumeration cap (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "cap must be at least 1");
        CycleSearch { cap }
    }

    /// Length of a shortest cycle through edge `e`, or `None` if `e` lies on
    /// no cycle. Self-loops yield 1, parallel pairs 2.
    #[must_use]
    pub fn shortest_len_through_edge(&self, g: &Graph, e: EdgeId) -> Option<u32> {
        let [u, v] = g.endpoints(e);
        if u == v {
            return Some(1);
        }
        dist_avoiding_edge(g, u, v, e).map(|d| d + 1)
    }

    /// Like [`CycleSearch::shortest_len_through_edge`], but only reports
    /// cycles of length at most `cap` (the BFS stops early): returns `None`
    /// when the shortest cycle through `e` is longer than `cap` or absent.
    /// This is the length-`L`-bounded girth query the deterministic
    /// sinkless-orientation rule uses ("is `γ(e) ≤ L`?") without paying for
    /// a full-graph search.
    #[must_use]
    pub fn shortest_len_through_edge_capped(&self, g: &Graph, e: EdgeId, cap: u32) -> Option<u32> {
        let [u, v] = g.endpoints(e);
        if u == v {
            return (cap >= 1).then_some(1);
        }
        if cap < 2 {
            return None;
        }
        let dist = bfs_avoiding_edge_capped(g, u, e, cap - 1);
        dist[v.index()].map(|d| d + 1).filter(|&c| c <= cap)
    }

    /// The canonically smallest cycle among the shortest cycles through `e`
    /// (at most `cap` of them are examined), or `None` if `e` lies on no
    /// cycle.
    ///
    /// Both endpoints of `e`, given the same graph (e.g. the ball around
    /// `e`), compute the same answer.
    #[must_use]
    pub fn min_cycle_through_edge(
        &self,
        g: &Graph,
        e: EdgeId,
        node_key: &[u64],
        edge_key: &[u64],
    ) -> Option<CanonicalCycle> {
        let [u, v] = g.endpoints(e);
        if u == v {
            return Some(CanonicalCycle::from_closed_walk(&[u], &[e], node_key, edge_key));
        }
        // Shortest u..v path length in G - e.
        let target_len = dist_avoiding_edge(g, u, v, e)?;
        // BFS from v avoiding e: dist_v[x] = dist(x, v) in G - e. Nodes
        // farther than the shortest path cannot lie on a shortest cycle, so
        // the search is capped.
        let dist_v = bfs_avoiding_edge_capped(g, v, e, target_len);
        // Enumerate shortest u-v paths by walking the BFS DAG from u,
        // decreasing dist_v by one per step; each parallel edge choice is a
        // distinct path. Bounded by `cap` completed paths.
        let mut best: Option<CanonicalCycle> = None;
        let mut produced = 0usize;
        // Iterative DFS stack: (current node, path nodes, path edges).
        let mut stack: Vec<(NodeId, Vec<NodeId>, Vec<EdgeId>)> = vec![(u, vec![u], Vec::new())];
        while let Some((x, pnodes, pedges)) = stack.pop() {
            if produced >= self.cap {
                break;
            }
            if x == v {
                // Close the cycle with edge e: nodes u..v, edges path + e.
                debug_assert_eq!(pedges.len() as u32, target_len);
                let mut edges = pedges.clone();
                edges.push(e);
                // Reject non-simple cycles (repeated nodes): BFS-DAG paths
                // are automatically simple because dist strictly decreases.
                let c = CanonicalCycle::from_closed_walk(&pnodes, &edges, node_key, edge_key);
                if best.as_ref().is_none_or(|b| c < *b) {
                    best = Some(c);
                }
                produced += 1;
                continue;
            }
            let dx = match dist_v[x.index()] {
                Some(d) => d,
                None => continue,
            };
            for &h in g.ports(x) {
                if h.edge() == e {
                    continue;
                }
                let w = g.half_edge_peer(h);
                if dist_v[w.index()] == Some(dx.wrapping_sub(1)) && dx > 0 {
                    let mut ns = pnodes.clone();
                    let mut es = pedges.clone();
                    ns.push(w);
                    es.push(h.edge());
                    stack.push((w, ns, es));
                }
            }
        }
        best
    }
}

fn bfs_avoiding_edge_capped(g: &Graph, source: NodeId, skip: EdgeId, cap: u32) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0u32);
    queue.push_back(source);
    while let Some(x) = queue.pop_front() {
        let d = dist[x.index()].expect("queued");
        if d >= cap {
            continue;
        }
        for &h in g.ports(x) {
            if h.edge() == skip {
                continue;
            }
            let w = g.half_edge_peer(h);
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Convenience: shortest cycle length through `e` with the default search.
#[must_use]
pub fn shortest_cycle_through_edge(g: &Graph, e: EdgeId) -> Option<u32> {
    CycleSearch::default().shortest_len_through_edge(g, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn identity_keys(g: &Graph) -> (Vec<u64>, Vec<u64>) {
        (g.nodes().map(|v| v.0 as u64).collect(), g.edges().map(|e| e.0 as u64).collect())
    }

    #[test]
    fn shortest_cycle_on_cycle_graph() {
        let g = gen::cycle(7);
        for e in g.edges() {
            assert_eq!(shortest_cycle_through_edge(&g, e), Some(7));
        }
    }

    #[test]
    fn tree_edges_lie_on_no_cycle() {
        let g = gen::path(5);
        for e in g.edges() {
            assert_eq!(shortest_cycle_through_edge(&g, e), None);
        }
    }

    #[test]
    fn min_cycle_is_consistent_for_all_edges_of_unique_cycle() {
        let g = gen::cycle(5);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        let cycles: Vec<_> =
            g.edges().map(|e| search.min_cycle_through_edge(&g, e, &nk, &ek).unwrap()).collect();
        for c in &cycles {
            assert_eq!(c, &cycles[0], "all edges of C5 share the canonical cycle");
        }
        // Canonical orientation gives every node exactly one successor edge.
        for v in g.nodes() {
            assert!(cycles[0].successor_edge(v).is_some());
        }
    }

    #[test]
    fn fixed_point_property_on_two_triangles_sharing_an_edge() {
        // Nodes 0,1 shared; triangle A = {0,1,2}, triangle B = {0,1,3}.
        let mut g = Graph::new();
        let n0 = g.add_node();
        let n1 = g.add_node();
        let n2 = g.add_node();
        let n3 = g.add_node();
        g.add_edge(n0, n1); // shared
        g.add_edge(n1, n2);
        g.add_edge(n2, n0);
        g.add_edge(n1, n3);
        g.add_edge(n3, n0);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        // For each node v, K*(v) = min over incident shortest cycle-edges.
        // Both K*(v)-edges at v must map back to K*(v) (Lemma used by the
        // deterministic sinkless-orientation algorithm).
        for v in g.nodes() {
            let best = g
                .ports(v)
                .iter()
                .filter_map(|h| search.min_cycle_through_edge(&g, h.edge(), &nk, &ek))
                .min()
                .unwrap();
            let incident_on_best: Vec<_> =
                g.ports(v).iter().filter(|h| best.contains_edge(h.edge())).collect();
            assert_eq!(incident_on_best.len(), 2, "node {v:?} has two cycle edges");
            for h in incident_on_best {
                let fc = search.min_cycle_through_edge(&g, h.edge(), &nk, &ek).unwrap();
                assert_eq!(fc, best, "fixed point violated at {v:?}");
            }
        }
    }

    #[test]
    fn self_loop_cycle_has_length_one() {
        let mut g = Graph::new();
        let v = g.add_node();
        let e = g.add_edge(v, v);
        let (nk, ek) = identity_keys(&g);
        let c = CycleSearch::default().min_cycle_through_edge(&g, e, &nk, &ek).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.successor_edge(v), Some(e));
        assert!(!c.is_empty());
    }

    #[test]
    fn parallel_pair_cycle_has_length_two() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        let (nk, ek) = identity_keys(&g);
        let search = CycleSearch::default();
        let c1 = search.min_cycle_through_edge(&g, e1, &nk, &ek).unwrap();
        let c2 = search.min_cycle_through_edge(&g, e2, &nk, &ek).unwrap();
        assert_eq!(c1.len(), 2);
        assert_eq!(c1, c2);
        // Canonical orientation: each endpoint gets one successor edge, and
        // they are the two distinct parallel edges.
        let sa = c1.successor_edge(a).unwrap();
        let sb = c1.successor_edge(b).unwrap();
        assert_ne!(sa, sb);
    }

    #[test]
    fn canonicalization_is_rotation_and_direction_invariant() {
        let g = gen::cycle(6);
        let (nk, ek) = identity_keys(&g);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let edges: Vec<EdgeId> = (0..6).map(EdgeId).collect();
        let a = CanonicalCycle::from_closed_walk(&nodes, &edges, &nk, &ek);
        // Rotate by 2.
        let rn: Vec<_> = (0..6).map(|i| nodes[(i + 2) % 6]).collect();
        let re: Vec<_> = (0..6).map(|i| edges[(i + 2) % 6]).collect();
        let b = CanonicalCycle::from_closed_walk(&rn, &re, &nk, &ek);
        assert_eq!(a, b);
        // Reverse direction starting at node 0:
        // vn = [n0, n5, n4, n3, n2, n1]; vn[i] -> vn[i+1] uses edges[5-i].
        let vn: Vec<_> = (0..6).map(|i| nodes[(6 - i) % 6]).collect();
        let ve: Vec<_> = (0..6).map(|i| edges[5 - i]).collect();
        let c = CanonicalCycle::from_closed_walk(&vn, &ve, &nk, &ek);
        assert_eq!(a, c);
    }

    #[test]
    fn cycle_order_prefers_shorter() {
        let mut g = gen::cycle(3);
        let off = g.append(&gen::cycle(4));
        let (nk, ek) = identity_keys(&g);
        let tri = CycleSearch::default().min_cycle_through_edge(&g, EdgeId(0), &nk, &ek).unwrap();
        let quad = CycleSearch::default().min_cycle_through_edge(&g, EdgeId(3), &nk, &ek).unwrap();
        assert!(tri < quad);
        let _ = off;
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn zero_cap_rejected() {
        let _ = CycleSearch::new(0);
    }

    #[test]
    fn capped_length_query_respects_cap() {
        let g = gen::cycle(8);
        let s = CycleSearch::default();
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 7), None);
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 8), Some(8));
        assert_eq!(s.shortest_len_through_edge_capped(&g, EdgeId(0), 20), Some(8));
        // Self-loop under a cap.
        let mut h = Graph::new();
        let v = h.add_node();
        let e = h.add_edge(v, v);
        assert_eq!(s.shortest_len_through_edge_capped(&h, e, 1), Some(1));
    }
}
