//! Global graph metrics: girth, eccentricities and diameter.

use crate::{bfs_distances, Components, Graph, NodeId};
use std::collections::VecDeque;

/// Length of a shortest cycle, or `None` if the graph is acyclic.
///
/// Multigraph conventions: a self-loop is a cycle of length 1; a pair of
/// parallel edges is a cycle of length 2.
#[must_use]
pub fn girth(g: &Graph) -> Option<u32> {
    let mut best: Option<u32> = None;
    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        if u == v {
            return Some(1); // cannot do better
        }
        // Shortest u-v distance avoiding edge e, +1, is the shortest cycle
        // through e.
        if let Some(d) = dist_avoiding_edge(g, u, v, e) {
            let c = d + 1;
            if best.is_none_or(|b| c < b) {
                best = Some(c);
                if c == 2 {
                    // Only a self-loop beats this, and we bail on those above
                    // within this loop anyway; keep scanning for loops.
                    continue;
                }
            }
        }
    }
    best
}

/// BFS distance from `u` to `v` not using edge `skip`.
pub(crate) fn dist_avoiding_edge(
    g: &Graph,
    u: crate::NodeId,
    v: crate::NodeId,
    skip: crate::EdgeId,
) -> Option<u32> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[u.index()] = Some(0u32);
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        let d = dist[x.index()].expect("queued node has distance");
        if x == v {
            return Some(d);
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
    None
}

/// Exact eccentricity of every node within its component (0 for an
/// isolated node), indexed by node.
///
/// One [`EccentricityKernel::component`] pass per component, all on the
/// same scratch: at most four single-source BFS that settle what nodes their
/// bounds can, then `⌈u / 64⌉` bit-parallel BFS passes over the `u` nodes
/// they leave unsettled.
#[must_use]
pub fn eccentricities(g: &Graph) -> Vec<u32> {
    let mut ecc = vec![0; g.node_count()];
    let mut kernel = EccentricityKernel::default();
    for members in Components::new(g).iter() {
        kernel.component(g, members, &mut ecc);
    }
    ecc
}

/// Maximum over nodes of the eccentricity within their component, i.e. the
/// largest finite BFS distance in the graph. Returns 0 for graphs with at
/// most one node per component.
///
/// The maximum of [`eccentricities`]: exact, at most four BFS per
/// component plus `⌈u / 64⌉` bit-parallel passes over the `u` nodes their
/// bounds leave unsettled (none on a balanced gadget), rather than one BFS
/// per node.
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    eccentricities(g).into_iter().max().unwrap_or(0)
}

/// Exact eccentricities in two phases: eccentricity bounds from at most
/// four single-source BFS (Takes & Kosters, "Computing the eccentricity
/// distribution of large graphs", Algorithms 6(1), 2013), then multi-source
/// bit-parallel BFS (Then et al., "The More the Merrier: Efficient
/// Multi-Source Graph Traversal", VLDB 2014) over the nodes the bounds did
/// not settle.
///
/// **Bounds.** A BFS from `s` gives `ecc(s)` exactly, and for every `w` it
/// reaches, `max(d, ecc(s) − d) ≤ ecc(w) ≤ ecc(s) + d` with `d = d(s, w)`;
/// a node whose lower and upper bounds meet is settled. The sources are a
/// double sweep (the first member, its farthest node `a`, and `a`'s
/// farthest node `b`) and the midpoint of the swept `a`–`b` path, each
/// skipped if it was a source already. On a balanced gadget with `Δ ≥ 2`
/// they settle every node: the midpoint is its Center, the only node of
/// eccentricity `D / 2`, and every other node's eccentricity is `D / 2`
/// plus its distance from the Center, which its distance from `a` or `b`
/// reaches. A path with an even number of edges settles too. Elsewhere the
/// batches take the rest: on expanders and cycles, nearly every node.
///
/// **Batches.** The unsettled members are taken 64 at a time as BFS
/// sources, one bit of a `u64` each, in `members` order, and the 64
/// searches advance together level by level: a node on the frontier
/// forwards the bits of every source that reached it last level to each
/// neighbor that has not yet seen them. A source's eccentricity is the last
/// level at which its bit reached a new node. Each level walks only its
/// frontier list, the nodes some source first reached on the level before,
/// so a node's edges are scanned once per distinct distance at which the
/// batch's sources reach it: at most 64 times, and far fewer where the
/// searches overlap.
///
/// The scratch (a local CSR copy of the component, the bound and distance
/// tables, the three bit tables and the frontier lists) is reused across
/// calls: keep one kernel per thread and feed it every component.
#[derive(Clone, Debug, Default)]
pub struct EccentricityKernel {
    /// Host node → its position in the current member list; only the
    /// members' entries are meaningful.
    local: Vec<u32>,
    /// The members' adjacency in local ids (CSR, self-loops dropped).
    offsets: Vec<u32>,
    adj: Vec<u32>,
    /// Per local node: its eccentricity bounds; settled once they meet.
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Per local node: its distance from the last bounds-phase source
    /// (`u32::MAX` if unreached), and that BFS's queue in visit order.
    dist: Vec<u32>,
    queue: Vec<u32>,
    /// Members the bounds left unsettled: the batch sources, in order.
    pending: Vec<u32>,
    /// Per local node: the batch sources whose search has reached it.
    seen: Vec<u64>,
    /// Per local node: the sources that reached it on the current level.
    visit: Vec<u64>,
    /// Per local node: the sources that reach it on the next level.
    next: Vec<u64>,
    /// Local nodes with a nonzero `visit` / `next` word.
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
}

impl EccentricityKernel {
    /// Writes `ecc[v.index()]`, the exact eccentricity of `v` within its
    /// component, for every `v` in `members`; other entries of `ecc` are
    /// untouched. The bounds phase starts its double sweep at `members[0]`,
    /// and the unsettled members are batched in `members` order, so list a
    /// component in BFS order (as [`Components::members`] does) to keep
    /// each batch's frontiers overlapping.
    ///
    /// # Panics
    ///
    /// Panics if `members` is not closed under adjacency in `g` (one
    /// component, or a union of whole components), lists a node twice, or
    /// `ecc` is shorter than `g.node_count()`.
    pub fn component(&mut self, g: &Graph, members: &[NodeId], ecc: &mut [u32]) {
        let k = members.len();
        self.load(g, members);
        self.bound();
        self.pending.clear();
        for (i, &v) in members.iter().enumerate() {
            if self.settled(i) {
                ecc[v.index()] = self.lo[i];
            } else {
                self.pending.push(i as u32);
            }
        }
        let Self { offsets, adj, pending, seen, visit, next, frontier, next_frontier, .. } = self;
        for batch in pending.chunks(64) {
            for (bit, &s) in batch.iter().enumerate() {
                seen[s as usize] = 1 << bit;
                visit[s as usize] = 1 << bit;
                frontier.push(s);
            }
            let mut last = [0u32; 64];
            let mut level = 0;
            while !frontier.is_empty() {
                level += 1;
                let mut reached = 0u64;
                for &v in frontier.iter() {
                    let v = v as usize;
                    let bits = std::mem::take(&mut visit[v]);
                    for &w in &adj[offsets[v] as usize..offsets[v + 1] as usize] {
                        let w = w as usize;
                        let fresh = bits & !seen[w];
                        if fresh != 0 {
                            if next[w] == 0 {
                                next_frontier.push(w as u32);
                            }
                            next[w] |= fresh;
                            seen[w] |= fresh;
                            reached |= fresh;
                        }
                    }
                }
                while reached != 0 {
                    last[reached.trailing_zeros() as usize] = level;
                    reached &= reached - 1;
                }
                frontier.clear();
                std::mem::swap(visit, next);
                std::mem::swap(frontier, next_frontier);
            }
            for (&s, &e) in batch.iter().zip(&last) {
                ecc[members[s as usize].index()] = e;
            }
            seen[..k].fill(0);
        }
    }

    /// The bounds phase, as the type docs describe it.
    fn bound(&mut self) {
        if self.lo.is_empty() {
            return;
        }
        let a = self.sweep(0);
        if a == 0 {
            return; // a single node
        }
        let b = self.sweep(a);
        let m = self.midpoint(b);
        if b != 0 {
            self.sweep(b);
        }
        if m != 0 && m != a {
            self.sweep(m);
        }
    }

    /// BFS from local node `s`: tightens the bounds of every node it
    /// reaches and leaves the distances in `dist`. Returns the last node
    /// reached, a farthest one.
    fn sweep(&mut self, s: usize) -> usize {
        let Self { offsets, adj, lo, hi, dist, queue, .. } = self;
        for &v in queue.iter() {
            dist[v as usize] = u32::MAX;
        }
        queue.clear();
        dist[s] = 0;
        queue.push(s as u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let v = v as usize;
            let d = dist[v] + 1;
            for &w in &adj[offsets[v] as usize..offsets[v + 1] as usize] {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = d;
                    queue.push(w);
                }
            }
        }
        let far = *queue.last().expect("the source is queued") as usize;
        let e = dist[far];
        for &w in queue.iter() {
            let w = w as usize;
            let d = dist[w];
            lo[w] = lo[w].max(d).max(e - d);
            hi[w] = hi[w].min(e.saturating_add(d));
        }
        far
    }

    /// The node at distance `⌊d / 2⌋` from the last BFS source on a
    /// shortest path to `b`, where `d` is `b`'s distance from that source.
    fn midpoint(&self, b: usize) -> usize {
        let half = self.dist[b] / 2;
        let mut v = b;
        while self.dist[v] > half {
            let nbrs = &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize];
            v = nbrs
                .iter()
                .find(|&&w| self.dist[w as usize] < self.dist[v])
                .copied()
                .expect("a reached node other than the source has a neighbor one level closer")
                as usize;
        }
        v
    }

    fn settled(&self, v: usize) -> bool {
        self.lo[v] == self.hi[v]
    }

    /// Copies the members' adjacency into local ids and sizes the tables:
    /// bit tables zero, bounds `[0, u32::MAX]`, distances unreached.
    fn load(&mut self, g: &Graph, members: &[NodeId]) {
        let k = members.len();
        assert!(u32::try_from(k).is_ok(), "member count exceeds u32");
        if self.local.len() < g.node_count() {
            self.local.resize(g.node_count(), 0);
        }
        for (i, &v) in members.iter().enumerate() {
            self.local[v.index()] = i as u32;
        }
        self.offsets.clear();
        self.adj.clear();
        self.offsets.push(0);
        for (i, &v) in members.iter().enumerate() {
            // A repeated member keeps only its last position; a neighbor
            // outside `members` maps to a stale position.
            let mut closed = self.local[v.index()] as usize == i;
            for (w, _) in g.neighbors(v) {
                let l = self.local[w.index()];
                closed &= members.get(l as usize) == Some(&w);
                if w != v {
                    self.adj.push(l);
                }
            }
            assert!(closed, "members must be whole components, each node once");
            self.offsets.push(u32::try_from(self.adj.len()).expect("edge count exceeds u32"));
        }
        for table in [&mut self.seen, &mut self.visit, &mut self.next] {
            table.clear();
            table.resize(k, 0);
        }
        for (table, init) in
            [(&mut self.lo, 0), (&mut self.hi, u32::MAX), (&mut self.dist, u32::MAX)]
        {
            table.clear();
            table.resize(k, init);
        }
        self.queue.clear();
    }
}

/// Double-sweep diameter estimate: per component, BFS from the first node,
/// then BFS from a farthest node found; the largest distance seen is a
/// lower bound on the true diameter (exact on trees, and within a factor 2
/// always). Linear time — use for large experiment instances where even
/// [`diameter`]'s `⌈n / 64⌉` bit-parallel BFS passes on graphs its bounds
/// cannot settle are too slow.
#[must_use]
pub fn diameter_estimate(g: &Graph) -> u32 {
    let mut best = 0;
    let mut seen = vec![false; g.node_count()];
    for s in g.nodes() {
        if seen[s.index()] {
            continue;
        }
        let d1 = bfs_distances(g, s);
        let mut far = s;
        let mut far_d = 0;
        for v in g.nodes() {
            if let Some(d) = d1[v.index()] {
                seen[v.index()] = true;
                if d > far_d {
                    far_d = d;
                    far = v;
                }
            }
        }
        for d in bfs_distances(g, far).into_iter().flatten() {
            best = best.max(d);
        }
        best = best.max(far_d);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, NodeId};

    #[test]
    fn girth_of_cycles() {
        for n in 3..8 {
            assert_eq!(girth(&gen::cycle(n)), Some(n as u32), "C_{n}");
        }
    }

    #[test]
    fn girth_of_tree_is_none() {
        assert_eq!(girth(&gen::path(6)), None);
        assert_eq!(girth(&gen::complete_binary_tree(4)), None);
    }

    #[test]
    fn self_loop_gives_girth_one() {
        let mut g = gen::path(3);
        g.add_edge(NodeId(2), NodeId(2));
        assert_eq!(girth(&g), Some(1));
    }

    #[test]
    fn parallel_edges_give_girth_two() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(girth(&g), Some(2));
    }

    #[test]
    fn girth_of_complete_graph_is_three() {
        assert_eq!(girth(&gen::complete(5)), Some(3));
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&gen::path(5)), 4);
        assert_eq!(diameter(&gen::cycle(8)), 4);
        assert_eq!(diameter(&gen::cycle(9)), 4);
    }

    #[test]
    fn diameter_estimate_brackets_truth() {
        for g in [gen::cycle(9), gen::path(12), gen::grid(5, 4), gen::complete(6)] {
            let exact = diameter(&g);
            let est = diameter_estimate(&g);
            assert!(est <= exact);
            assert!(est * 2 >= exact, "estimate {est} too far below exact {exact}");
        }
        // Exact on trees.
        let t = gen::complete_binary_tree(5);
        assert_eq!(diameter_estimate(&t), diameter(&t));
    }

    #[test]
    fn diameter_ignores_disconnection() {
        let mut g = gen::path(4);
        g.add_node();
        assert_eq!(diameter(&g), 3);
    }

    #[test]
    fn eccentricities_of_small_shapes() {
        assert_eq!(eccentricities(&Graph::new()), Vec::<u32>::new());
        assert_eq!(diameter(&Graph::new()), 0);
        assert_eq!(eccentricities(&gen::path(5)), vec![4, 3, 2, 3, 4]);
        // Loops and parallels change no distance; an isolated node is 0.
        let mut g = gen::star(3);
        g.add_edge(NodeId(1), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_node();
        assert_eq!(eccentricities(&g), vec![1, 2, 2, 2, 0]);
        // 64 + 64 + 2 sources on one cycle, then a path in the same graph.
        let mut g = gen::cycle(130);
        g.append(&gen::path(3));
        let mut want = vec![65; 130];
        want.extend([2, 1, 2]);
        assert_eq!(eccentricities(&g), want);
    }

    /// Runs the kernel on every component of `g`; returns the
    /// eccentricities and how many members the bounds left to the batches.
    fn kernel_run(g: &Graph) -> (Vec<u32>, usize) {
        let mut ecc = vec![u32::MAX; g.node_count()];
        let mut kernel = EccentricityKernel::default();
        let mut batched = 0;
        for members in Components::new(g).iter() {
            kernel.component(g, members, &mut ecc);
            batched += kernel.pending.len();
        }
        (ecc, batched)
    }

    fn per_node_bfs(g: &Graph) -> Vec<u32> {
        g.nodes().map(|v| bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)).collect()
    }

    /// A complete binary tree whose levels are joined into paths: the
    /// shape of a gadget's sub-trees.
    fn tree_with_level_paths(height: u32) -> Graph {
        let mut g = gen::complete_binary_tree(height);
        for l in 1..height {
            for x in (1u32 << l)..(2u32 << l) - 1 {
                g.add_edge(NodeId(x - 1), NodeId(x));
            }
        }
        g
    }

    /// A balanced gadget's shape: a center joined to the roots of `delta`
    /// such trees of the given height.
    fn gadget_shape(delta: usize, height: u32) -> Graph {
        let mut g = Graph::new();
        let center = g.add_node();
        for _ in 0..delta {
            let root = g.append(&tree_with_level_paths(height));
            g.add_edge(center, root);
        }
        g
    }

    #[test]
    fn bounds_settle_balanced_gadgets_and_even_paths() {
        let mut shapes: Vec<Graph> = [1, 3, 7, 301].map(gen::path).into();
        for delta in 2..=5 {
            shapes.extend((1..=8).map(|h| gadget_shape(delta, h)));
        }
        for g in &shapes {
            let (ecc, batched) = kernel_run(g);
            assert_eq!(batched, 0, "the batches got a source on {} nodes", g.node_count());
            assert_eq!(ecc, per_node_bfs(g));
        }
    }

    #[test]
    fn cycles_fall_back_to_the_batches() {
        assert!(kernel_run(&gen::cycle(64)).1 > 0, "nothing reached the batches");
    }

    #[test]
    #[should_panic(expected = "members must be whole components")]
    fn kernel_rejects_a_partial_component() {
        let g = gen::path(4);
        let mut ecc = vec![0; 4];
        EccentricityKernel::default().component(&g, &[NodeId(0), NodeId(1)], &mut ecc);
    }

    #[test]
    #[should_panic(expected = "each node once")]
    fn kernel_rejects_a_repeated_member() {
        let g = gen::path(2);
        let mut ecc = vec![0; 2];
        EccentricityKernel::default().component(&g, &[NodeId(0), NodeId(1), NodeId(0)], &mut ecc);
    }
}
