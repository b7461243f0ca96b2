//! CSR read-API equivalence against a naive reference model, plus serde
//! golden-byte pinning.
//!
//! The CSR core of [`Graph`] (flat port slab with doubling slack,
//! half-edge-indexed inverse tables) must be observably identical to the
//! obvious `Vec<Vec<HalfEdge>>` port-table representation it replaced: the
//! reference model here *is* that representation, mutated by the same
//! append-only operations, and every read API is compared field for field
//! across the graph zoo — generator families, multigraphs with self-loops
//! and parallel bundles, and gadget-style hub shapes whose construction
//! order interleaves segments aggressively.
//!
//! The serde golden pins the exact wire bytes of a fixed graph: persisted
//! runs and goldens from before the CSR change must re-ingest unchanged.

use lcl_graph::{gen, Graph, HalfEdge, NodeId, Side};
use proptest::prelude::*;

/// The pre-CSR representation, verbatim: one port vector per node.
#[derive(Default)]
struct RefModel {
    ports: Vec<Vec<HalfEdge>>,
    edges: Vec<[NodeId; 2]>,
}

impl RefModel {
    fn add_node(&mut self) -> NodeId {
        self.ports.push(Vec::new());
        NodeId(self.ports.len() as u32 - 1)
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let id = lcl_graph::EdgeId(self.edges.len() as u32);
        self.edges.push([u, v]);
        self.ports[u.index()].push(HalfEdge::new(id, Side::A));
        self.ports[v.index()].push(HalfEdge::new(id, Side::B));
    }

    /// Replays an already-built graph through the model (edge ids are
    /// insertion-ordered, so `edges()` is the construction sequence).
    fn replay(g: &Graph) -> RefModel {
        let mut model = RefModel::default();
        for _ in 0..g.node_count() {
            model.add_node();
        }
        for e in g.edges() {
            let [a, b] = g.endpoints(e);
            model.add_edge(a, b);
        }
        model
    }

    fn port_of(&self, h: HalfEdge) -> usize {
        let v = self.edges[h.edge().index()][h.side().index()];
        self.ports[v.index()].iter().position(|&x| x == h).expect("half-edge is registered")
    }
}

/// Compares every CSR read API against the model.
fn assert_equivalent(g: &Graph, model: &RefModel) {
    assert_eq!(g.node_count(), model.ports.len());
    assert_eq!(g.edge_count(), model.edges.len());
    assert_eq!(g.max_degree(), model.ports.iter().map(Vec::len).max().unwrap_or(0));
    assert_eq!(g.min_degree(), model.ports.iter().map(Vec::len).min().unwrap_or(0));
    for v in g.nodes() {
        let table = &model.ports[v.index()];
        assert_eq!(g.degree(v), table.len(), "degree of {v:?}");
        assert_eq!(g.ports(v), table.as_slice(), "port table of {v:?}");
        for (p, &h) in table.iter().enumerate() {
            assert_eq!(g.half_edge_at_port(v, p), Some(h));
            assert_eq!(g.port_of(h), p, "port_of({h:?})");
            let peer = model.edges[h.edge().index()][h.side().flip().index()];
            assert_eq!(g.half_edge_peer(h), peer, "peer of {h:?}");
            assert_eq!(g.peer_port(h), model.port_of(h.opposite()), "peer_port of {h:?}");
            assert_eq!(g.neighbor_via_port(v, p), Some(peer));
        }
        assert_eq!(g.half_edge_at_port(v, table.len()), None);
        let from_iter: Vec<(NodeId, HalfEdge)> = g.neighbors(v).collect();
        let expected: Vec<(NodeId, HalfEdge)> = table
            .iter()
            .map(|&h| (model.edges[h.edge().index()][h.side().flip().index()], h))
            .collect();
        assert_eq!(from_iter, expected, "neighbors of {v:?}");
    }
    for e in g.edges() {
        assert_eq!(g.endpoints(e), model.edges[e.index()]);
    }
}

/// One append-only mutation, as generated data.
#[derive(Clone, Debug)]
enum Op {
    AddNode,
    /// Endpoint picks are reduced modulo the current node count, so any
    /// pair of indices is valid once one node exists (self-loops included).
    AddEdge(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..7, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| {
            // ~2/7 node insertions, ~5/7 edge insertions.
            if kind < 2 {
                Op::AddNode
            } else {
                Op::AddEdge(a, b)
            }
        }),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Interleaved construction: the CSR slab relocates segments mid-build
    /// in data-dependent order; the model never disagrees.
    #[test]
    fn csr_matches_model_under_interleaved_ops(ops in arb_ops()) {
        let mut g = Graph::new();
        let mut model = RefModel::default();
        for op in ops {
            match op {
                Op::AddNode => {
                    let a = g.add_node();
                    let b = model.add_node();
                    prop_assert_eq!(a, b);
                }
                Op::AddEdge(a, b) => {
                    let n = model.ports.len();
                    if n == 0 {
                        continue;
                    }
                    let (u, v) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
                    g.add_edge(u, v);
                    model.add_edge(u, v);
                }
            }
        }
        assert_equivalent(&g, &model);
    }

    /// Serde roundtrip through JSON preserves observable structure for
    /// arbitrary multigraphs — and the deserialized graph (packed slab, no
    /// slack) matches the model exactly like the incrementally built one.
    #[test]
    fn csr_roundtrip_matches_model(ops in arb_ops()) {
        let mut g = Graph::new();
        for op in ops {
            match op {
                Op::AddNode => { g.add_node(); }
                Op::AddEdge(a, b) => {
                    let n = g.node_count();
                    if n > 0 {
                        g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                    }
                }
            }
        }
        let back: Graph = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        prop_assert_eq!(&back, &g);
        assert_equivalent(&back, &RefModel::replay(&g));
    }

    /// `compact()` repacks the slab (dropping relocation leftovers) without
    /// changing any observable structure — and construction can resume on
    /// the packed slab.
    #[test]
    fn csr_compact_matches_model(ops in arb_ops()) {
        let mut g = Graph::new();
        for op in ops {
            match op {
                Op::AddNode => { g.add_node(); }
                Op::AddEdge(a, b) => {
                    let n = g.node_count();
                    if n > 0 {
                        g.add_edge(NodeId((a % n) as u32), NodeId((b % n) as u32));
                    }
                }
            }
        }
        let model = RefModel::replay(&g);
        let mut packed = g.clone();
        packed.compact();
        prop_assert_eq!(packed.port_slab_len(), 2 * packed.edge_count());
        prop_assert_eq!(&packed, &g);
        assert_equivalent(&packed, &model);
        // Appending after compaction regrows slack transparently.
        if packed.node_count() > 0 {
            let v = NodeId(0);
            packed.add_edge(v, v);
            let model = RefModel::replay(&packed);
            assert_equivalent(&packed, &model);
        }
    }
}

#[test]
fn csr_matches_model_across_the_zoo() {
    let zoo: Vec<Graph> = vec![
        Graph::new(),
        gen::path(1),
        gen::path(9),
        gen::cycle(3),
        gen::cycle(17),
        gen::complete(6),
        gen::star(12),
        gen::complete_binary_tree(4),
        gen::regular_tree(4, 40),
        gen::grid(5, 4),
        gen::torus(4, 3),
        gen::margulis(4),
        gen::disjoint_cycles(3, 5),
        gen::random_tree(30, 7),
        gen::random_regular(24, 3, 1).unwrap(),
        gen::random_regular_multigraph(10, 3, 3).unwrap(),
    ];
    for (i, g) in zoo.iter().enumerate() {
        assert_equivalent(g, &RefModel::replay(g));
        assert!(i < zoo.len());
    }
}

#[test]
fn csr_matches_model_on_gadget_shapes() {
    // Gadget-style builds: hubs acquiring ports late, parallel bundles,
    // loops on already-high-degree nodes — the worst case for segment
    // relocation.
    let mut g = Graph::new();
    let hub = g.add_node();
    let aux = g.add_node();
    g.add_edge(hub, aux);
    for _ in 0..3 {
        g.add_edge(hub, aux); // parallel bundle
    }
    g.add_edge(hub, hub); // loop on the hub
    let mut spokes = Vec::new();
    for _ in 0..9 {
        let s = g.add_node();
        g.add_edge(s, hub); // hub ports keep growing after the loop
        spokes.push(s);
    }
    for w in spokes.windows(2) {
        g.add_edge(w[0], w[1]); // rim
    }
    g.add_edge(aux, aux);
    assert_equivalent(&g, &RefModel::replay(&g));
}

#[test]
fn graph_serde_bytes_are_pinned() {
    // Golden bytes in the pre-CSR derive format: a named-struct map with
    // `ports` (nested per-node tables of {edge, side} half-edges) then
    // `edges` (endpoint pairs). Any byte drift here would invalidate every
    // persisted run store and golden. The fixture covers a plain edge, a
    // parallel edge, and a self-loop.
    let mut g = Graph::new();
    let a = g.add_node();
    let b = g.add_node();
    g.add_node(); // isolated: serializes as an empty port table
    g.add_edge(a, b);
    g.add_edge(b, a);
    g.add_edge(b, b);
    let golden = concat!(
        "{\"ports\":[",
        "[{\"edge\":0,\"side\":\"A\"},{\"edge\":1,\"side\":\"B\"}],",
        "[{\"edge\":0,\"side\":\"B\"},{\"edge\":1,\"side\":\"A\"},",
        "{\"edge\":2,\"side\":\"A\"},{\"edge\":2,\"side\":\"B\"}],",
        "[]",
        "],\"edges\":[[0,1],[1,0],[1,1]]}"
    );
    assert_eq!(serde_json::to_string(&g).unwrap(), golden);
    let back: Graph = serde_json::from_str(golden).unwrap();
    assert_eq!(back, g);

    // And the empty graph's bytes.
    assert_eq!(serde_json::to_string(&Graph::new()).unwrap(), "{\"ports\":[],\"edges\":[]}");
}
