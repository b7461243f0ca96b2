//! Property-based tests for the graph substrate's core invariants.

use lcl_graph::{
    bfs_distances, diameter, distance_k_coloring, eccentricities, gen, girth,
    is_distance_k_coloring, CanonicalCycle, Components, CycleSearch, EccentricityKernel, EdgeId,
    Graph, NodeId,
};
use proptest::prelude::*;

/// Strategy: a random multigraph on `n` nodes with `m` edges (endpoints
/// arbitrary, so self-loops and parallels occur).
fn arb_multigraph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..40).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), m).prop_map(move |edges| {
            let mut g = Graph::new();
            g.add_nodes(n);
            for (a, b) in edges {
                g.add_edge(NodeId(a), NodeId(b));
            }
            g
        })
    })
}

/// One generator shape of up to ~150 nodes, picked by `kind`.
fn zoo_shape(kind: u8, a: usize, b: usize, seed: u64) -> Graph {
    match kind {
        0 => gen::path(a + 1),
        1 => gen::cycle(a + 3),
        2 => gen::grid(a % 12 + 1, b % 12 + 1),
        3 => gen::torus(a % 10 + 3, b % 10 + 3),
        4 => gen::hypercube((a % 7) as u32 + 1),
        5 => gen::complete_binary_tree((a % 7) as u32 + 1),
        6 => gen::random_tree(a + 1, seed),
        7 => gen::random_regular(2 * (a / 2 + 2), 3, seed).expect("generable"),
        _ => {
            let n = a + 1;
            gen::gnm(n, b.min(n * (n - 1) / 2), seed).expect("m is feasible")
        }
    }
}

/// Strategy: a disjoint union of zero to three zoo shapes (up to ~450
/// nodes, so several 64-source batches, and batches in node order that
/// straddle components), plus extras — isolated nodes, self-loops and
/// parallel copies of existing edges. Zero shapes and zero extras is the
/// empty graph.
fn arb_zoo_union() -> impl Strategy<Value = Graph> {
    let shapes = proptest::collection::vec((0u8..9, 0usize..150, 0usize..300, 0u64..1000), 0..4);
    let extras = proptest::collection::vec((0u8..3, 0usize..1 << 16), 0..8);
    (shapes, extras).prop_map(|(shapes, extras)| {
        let mut g = Graph::new();
        for (kind, a, b, seed) in shapes {
            g.append(&zoo_shape(kind, a, b, seed));
        }
        for (what, draw) in extras {
            match what {
                0 => {
                    g.add_node();
                }
                1 if g.node_count() > 0 => {
                    let v = NodeId((draw % g.node_count()) as u32);
                    g.add_edge(v, v);
                }
                2 if g.edge_count() > 0 => {
                    let [a, b] = g.endpoints(EdgeId((draw % g.edge_count()) as u32));
                    g.add_edge(a, b);
                }
                _ => {}
            }
        }
        g
    })
}

/// Eccentricity within the component by one BFS per node: the reference
/// the bit-parallel kernel must match.
fn per_node_eccentricities(g: &Graph) -> Vec<u32> {
    g.nodes().map(|v| bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn degree_sum_is_twice_edge_count(g in arb_multigraph()) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    #[test]
    fn ports_are_a_bijection_onto_half_edges(g in arb_multigraph()) {
        let mut seen = std::collections::HashSet::new();
        for v in g.nodes() {
            for (p, &h) in g.ports(v).iter().enumerate() {
                prop_assert_eq!(g.half_edge_node(h), v);
                prop_assert_eq!(g.port_of(h), p);
                prop_assert!(seen.insert(h), "half-edge appears at two ports");
            }
        }
        prop_assert_eq!(seen.len(), 2 * g.edge_count());
    }

    #[test]
    fn bfs_satisfies_triangle_inequality_on_edges(g in arb_multigraph()) {
        if g.node_count() == 0 { return Ok(()); }
        let d = bfs_distances(&g, NodeId(0));
        for e in g.edges() {
            let [a, b] = g.endpoints(e);
            if let (Some(da), Some(db)) = (d[a.index()], d[b.index()]) {
                prop_assert!(da.abs_diff(db) <= 1, "edge endpoints differ by >1");
            } else {
                prop_assert_eq!(d[a.index()], d[b.index()], "edge crossing a component");
            }
        }
    }

    #[test]
    fn components_partition_the_nodes(g in arb_multigraph()) {
        let comps = Components::new(&g);
        let total: usize = comps.iter().map(<[NodeId]>::len).sum();
        prop_assert_eq!(total, g.node_count());
        let mut seen = vec![false; g.node_count()];
        for c in comps.iter() {
            for &v in c {
                prop_assert!(!seen[v.index()], "node in two components");
                seen[v.index()] = true;
            }
        }
        for e in g.edges() {
            let [a, b] = g.endpoints(e);
            prop_assert_eq!(comps.component_of(a), comps.component_of(b), "edge crosses components");
        }
    }

    #[test]
    fn greedy_distance2_coloring_is_always_valid(g in arb_multigraph()) {
        let colors = distance_k_coloring(&g, 2);
        prop_assert!(is_distance_k_coloring(&g, &colors, 2));
    }

    #[test]
    fn girth_via_cycle_search_agrees(g in arb_multigraph()) {
        let s = CycleSearch::default();
        let via_edges = g
            .edges()
            .filter_map(|e| s.shortest_len_through_edge(&g, e))
            .min();
        prop_assert_eq!(girth(&g), via_edges);
    }

    #[test]
    fn canonical_cycle_is_rotation_invariant(len in 3usize..9, rot in 0usize..8) {
        let g = gen::cycle(len);
        let nk: Vec<u64> = g.nodes().map(|v| u64::from(v.0) * 7 + 3).collect();
        let ek: Vec<u64> = g.edges().map(|e| u64::from(e.0) * 5 + 1).collect();
        let nodes: Vec<NodeId> = (0..len as u32).map(NodeId).collect();
        let edges: Vec<EdgeId> = (0..len as u32).map(EdgeId).collect();
        let a = CanonicalCycle::from_closed_walk(&nodes, &edges, &nk, &ek);
        let rot = rot % len;
        let rn: Vec<NodeId> = (0..len).map(|i| nodes[(i + rot) % len]).collect();
        let re: Vec<EdgeId> = (0..len).map(|i| edges[(i + rot) % len]).collect();
        let b = CanonicalCycle::from_closed_walk(&rn, &re, &nk, &ek);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn min_cycle_agrees_between_edge_endpoints(seed in 0u64..500) {
        // The endpoint-consistency that the deterministic sinkless
        // orientation relies on: any two evaluations of f(e) agree.
        let g = gen::random_regular_multigraph(12, 3, seed).unwrap();
        let nk: Vec<u64> = g.nodes().map(|v| u64::from(v.0) + 1).collect();
        let ek: Vec<u64> = g.edges().map(|e| u64::from(e.0)).collect();
        let s = CycleSearch::default();
        for e in g.edges() {
            let once = s.min_cycle_through_edge(&g, e, &nk, &ek);
            let twice = s.min_cycle_through_edge(&g, e, &nk, &ek);
            prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn eccentricities_equal_per_node_bfs(g in arb_zoo_union()) {
        let reference = per_node_eccentricities(&g);
        prop_assert_eq!(&eccentricities(&g), &reference);
        prop_assert_eq!(diameter(&g), reference.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn kernel_batches_may_straddle_components(g in arb_zoo_union(), warm in 3usize..200) {
        // One kernel, first dirtied on an unrelated graph, then fed every
        // node in id order: a member list that is a union of components,
        // so batches of 64 sources cross component boundaries.
        let mut kernel = EccentricityKernel::default();
        let c = gen::cycle(warm);
        let mut c_ecc = vec![0; c.node_count()];
        kernel.component(&c, &c.nodes().collect::<Vec<_>>(), &mut c_ecc);
        prop_assert!(c_ecc.iter().all(|&e| e as usize == warm / 2));
        let all: Vec<NodeId> = g.nodes().collect();
        let mut ecc = vec![u32::MAX; g.node_count()];
        kernel.component(&g, &all, &mut ecc);
        prop_assert_eq!(ecc, per_node_eccentricities(&g));
    }

    #[test]
    fn induced_subgraph_preserves_internal_structure(g in arb_multigraph(), k in 1usize..10) {
        let keep: Vec<NodeId> = g.nodes().take(k.min(g.node_count())).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.node_count(), keep.len());
        prop_assert_eq!(&back, &keep);
        // Every sub edge maps to a host edge between the mapped endpoints.
        let host_edges = g
            .edges()
            .filter(|&e| {
                let [a, b] = g.endpoints(e);
                keep.contains(&a) && keep.contains(&b)
            })
            .count();
        prop_assert_eq!(sub.edge_count(), host_edges);
    }
}
