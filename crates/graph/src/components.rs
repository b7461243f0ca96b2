//! The connected-component partition, in one flat index.
//!
//! [`Components`] is the crate's one component partition: the gadget
//! verifier, the sinkless-orientation rules and the component-sharded
//! engine all read it. It stores the partition in three flat arrays (the
//! CSR-of-components shape) instead of one `Vec` per component: a per-node
//! component stamp, a flat member list grouped by component, and
//! per-component offsets into it. The stamp table doubles as the BFS
//! "seen" scratch (a node is visited iff its stamp is set), and the
//! member list doubles as the BFS queue, so the whole pass is `O(n + m)`
//! with exactly three allocations and no per-component `Vec` churn.
//!
//! Components are numbered by their smallest node id; members appear in
//! BFS discovery order, starting at that smallest id. This is the work
//! partition `lcl_local`'s component-sharded execution schedules over:
//! every component is an independent closed system under the LOCAL model
//! (no message ever crosses components), so shards can run concurrently
//! with no synchronization and stitch outputs back in node order.

use crate::{EdgeId, Graph, HalfEdge, NodeId, Side};

const UNSTAMPED: u32 = u32::MAX;

/// The connected-component partition of a graph, in flat CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Per node: the id of its component.
    comp_of: Vec<u32>,
    /// Per node: its position within its component's member slice.
    local_of: Vec<u32>,
    /// All nodes, grouped by component in BFS discovery order.
    members: Vec<NodeId>,
    /// Per component: start of its group in `members` (+ final sentinel).
    offsets: Vec<u32>,
}

impl Components {
    /// Computes the component partition of `g` in `O(n + m)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has ≥ `u32::MAX` nodes (the stamp sentinel).
    #[must_use]
    pub fn new(g: &Graph) -> Components {
        let n = g.node_count();
        assert!(n < UNSTAMPED as usize, "node count exceeds the stamp range");
        let mut comp_of = vec![UNSTAMPED; n];
        let mut local_of = vec![0u32; n];
        let mut members = Vec::with_capacity(n);
        let mut offsets = Vec::new();
        for s in g.nodes() {
            if comp_of[s.index()] != UNSTAMPED {
                continue;
            }
            let comp = u32::try_from(offsets.len()).expect("component count exceeds u32");
            let base = u32::try_from(members.len()).expect("node count exceeds u32");
            offsets.push(base);
            comp_of[s.index()] = comp;
            members.push(s);
            // `members` doubles as the BFS queue: everything from `head`
            // on is discovered but not yet expanded.
            let mut head = members.len() - 1;
            while head < members.len() {
                let v = members[head];
                head += 1;
                for (w, _) in g.neighbors(v) {
                    if comp_of[w.index()] == UNSTAMPED {
                        comp_of[w.index()] = comp;
                        local_of[w.index()] = (members.len() as u32) - base;
                        members.push(w);
                    }
                }
            }
        }
        offsets.push(u32::try_from(members.len()).expect("node count exceeds u32"));
        Components { comp_of, local_of, members, offsets }
    }

    /// Number of components (0 for the empty graph).
    #[must_use]
    pub fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The component id of `v` (components are numbered by smallest
    /// member id, so ids are stable under node-order iteration).
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp_of[v.index()] as usize
    }

    /// The members of component `c`, in BFS discovery order (the first is
    /// the component's smallest node id).
    #[must_use]
    pub fn members(&self, c: usize) -> &[NodeId] {
        let (a, b) = (self.offsets[c] as usize, self.offsets[c + 1] as usize);
        &self.members[a..b]
    }

    /// Size of component `c`.
    #[must_use]
    pub fn size(&self, c: usize) -> usize {
        (self.offsets[c + 1] - self.offsets[c]) as usize
    }

    /// Size of the largest component (0 for the empty graph).
    #[must_use]
    pub fn largest(&self) -> usize {
        (0..self.count()).map(|c| self.size(c)).max().unwrap_or(0)
    }

    /// True if the graph has at most one component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.count() <= 1
    }

    /// Iterator over the member slices of all components, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        (0..self.count()).map(|c| self.members(c))
    }

    /// Extracts component `c` of `g` as its own graph, with node `k` of the
    /// result being `self.members(c)[k]`.
    ///
    /// Produces exactly the graph `g.induced_subgraph(self.members(c))`
    /// would (same node order, same edge order, same port wiring) but in
    /// `O(|C| + |E(C)| log |E(C)|)` instead of `O(n + m)`: the member list
    /// and the precomputed local-index table replace `induced_subgraph`'s
    /// node-count-sized mapping, and the component's edges are recovered
    /// from its own port slices (each edge surfaces once, at its
    /// [`Side::A`] endpoint — components are edge-closed) rather than by
    /// scanning the whole edge table. The tables are then written packed
    /// in one pass instead of edge by edge. This is what makes
    /// component-sharded execution viable: carving all `k` shards out of a
    /// huge graph costs `O(n + m log m)` total, not `O(k · (n + m))`.
    ///
    /// `g` must be the graph this partition was computed from.
    #[must_use]
    pub fn extract(&self, g: &Graph, c: usize) -> Graph {
        let members = self.members(c);
        let mut global: Vec<EdgeId> = Vec::new();
        for &v in members {
            for &h in g.ports(v) {
                if h.side() == Side::A {
                    global.push(h.edge());
                }
            }
        }
        // Ascending edge-id order is the order `induced_subgraph` (which
        // walks the global edge table) adds them in; matching it keeps the
        // two constructions interchangeable.
        global.sort_unstable();
        let edges: Vec<[NodeId; 2]> = global
            .iter()
            .map(|&e| g.endpoints(e).map(|v| NodeId(self.local_of[v.index()])))
            .collect();
        let degrees: Vec<u32> = members.iter().map(|&v| g.degree(v) as u32).collect();
        let mut port_offsets = Vec::with_capacity(members.len());
        let mut slab_len = 0u32;
        for &d in &degrees {
            port_offsets.push(slab_len);
            slab_len += d;
        }
        // Each edge takes the next free port at each endpoint (side A
        // first, so a self-loop holds two consecutive ports), exactly as
        // `Graph::add_edge` would assign them.
        let mut next_port = vec![0u32; members.len()];
        let mut slab = vec![HalfEdge::new(EdgeId(0), Side::A); slab_len as usize];
        let mut half_port = vec![0u32; 2 * edges.len()];
        for (k, ends) in edges.iter().enumerate() {
            for side in [Side::A, Side::B] {
                let h = HalfEdge::new(EdgeId(k as u32), side);
                let v = ends[side.index()].index();
                slab[(port_offsets[v] + next_port[v]) as usize] = h;
                half_port[h.index()] = next_port[v];
                next_port[v] += 1;
            }
        }
        Graph::from_packed_tables(slab, port_offsets, degrees, edges, half_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::collections::VecDeque;

    /// An independent reference: one `Vec` per component, nodes appended
    /// as a FIFO queue pops them, components by smallest node id.
    fn reference_partition(g: &Graph) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; g.node_count()];
        let mut out = Vec::new();
        for s in g.nodes() {
            if seen[s.index()] {
                continue;
            }
            seen[s.index()] = true;
            let (mut nodes, mut queue) = (Vec::new(), VecDeque::from([s]));
            while let Some(v) = queue.pop_front() {
                nodes.push(v);
                for (w, _) in g.neighbors(v) {
                    if !std::mem::replace(&mut seen[w.index()], true) {
                        queue.push_back(w);
                    }
                }
            }
            out.push(nodes);
        }
        out
    }

    #[test]
    fn empty_graph_has_no_components() {
        let c = Components::new(&Graph::new());
        assert_eq!(c.count(), 0);
        assert!(c.is_connected());
        assert_eq!(c.largest(), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn disjoint_union_partitions_by_piece() {
        let mut g = gen::cycle(3);
        g.append(&gen::path(2));
        g.add_node();
        let c = Components::new(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.size(0), 3);
        assert_eq!(c.size(1), 2);
        assert_eq!(c.size(2), 1);
        assert_eq!(c.largest(), 3);
        assert!(!c.is_connected());
        assert_eq!(c.component_of(NodeId(0)), 0);
        assert_eq!(c.component_of(NodeId(4)), 1);
        assert_eq!(c.component_of(NodeId(5)), 2);
        assert_eq!(c.members(2), &[NodeId(5)]);
    }

    #[test]
    fn matches_the_vec_of_vecs_pass_across_shapes() {
        let shapes = vec![gen::cycle(9), gen::disjoint_cycles(4, 5), gen::grid(4, 6), {
            let mut g = gen::star(5);
            g.append(&gen::caterpillar(7, 2, 3));
            g.add_edge(NodeId(0), NodeId(0)); // self-loop
            g.add_node();
            g
        }];
        for g in shapes {
            let flat = Components::new(&g);
            let nested = reference_partition(&g);
            assert_eq!(flat.count(), nested.len());
            for (c, comp) in nested.iter().enumerate() {
                assert_eq!(flat.members(c), comp.as_slice());
                for &v in comp {
                    assert_eq!(flat.component_of(v), c);
                }
            }
        }
    }

    #[test]
    fn extract_matches_induced_subgraph_on_every_component() {
        let shapes = vec![
            gen::disjoint_cycles(4, 5),
            {
                let mut g = gen::star(5);
                g.append(&gen::caterpillar(7, 2, 3));
                g.add_edge(NodeId(0), NodeId(0)); // self-loop
                g.add_node(); // isolated
                g
            },
            {
                let mut g = gen::random_lift(&gen::cycle(4), 6, 9);
                g.append(&gen::grid(3, 3));
                g
            },
        ];
        for g in shapes {
            let c = Components::new(&g);
            for comp in 0..c.count() {
                let fast = c.extract(&g, comp);
                let (slow, back) = g.induced_subgraph(c.members(comp));
                assert_eq!(fast, slow, "component {comp} extraction diverged");
                assert_eq!(back, c.members(comp));
            }
        }
    }

    #[test]
    fn every_node_appears_exactly_once() {
        let g = gen::disjoint_cycles(7, 4);
        let c = Components::new(&g);
        let mut seen = vec![false; g.node_count()];
        for members in c.iter() {
            for &v in members {
                assert!(!seen[v.index()], "{v:?} listed twice");
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
