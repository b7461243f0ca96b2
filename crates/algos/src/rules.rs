//! The global orientation rule `F` shared by the deterministic algorithm
//! and the residual-component finisher of the randomized algorithm.
//!
//! `F` maps `(graph, identifiers, L)` to an orientation of every edge such
//! that every node lying in or hanging off the "short-cycle core"
//! `C = {u : γ(u) ≤ L}` (where `γ(u)` is the length of the shortest cycle
//! through `u`) receives an out-edge. The rule is **edge-decomposable**:
//! the direction of each edge is a function of quantities (`d`, `γ`, the
//! canonical cycle `f(e)`, identifiers) that a node can compute exactly
//! from a sufficiently large ball, which is what makes the distributed
//! simulation in [`crate::sinkless_det`] legal. Both endpoints of an edge
//! see the same quantities, so they agree on its direction; the one
//! non-obvious step, that both `K*(v)`-edges at a core node select `K*(v)`
//! itself (case 1 below), is tested by
//! `fixed_point_property_on_two_triangles_sharing_an_edge` in `lcl-graph`.
//!
//! Per-component case analysis:
//!
//! 1. **Core component** (`C` intersects it): distances `d(·)` to `C` are
//!    finite. Edges orient *downhill* in `d` (ties above 0 by identifier,
//!    larger to smaller); edges with both endpoints in `C` orient along the
//!    canonical minimum shortest cycle `f(e)` when `γ(e) ≤ L`, otherwise by
//!    identifier. Every node gets an out-edge: downhill nodes via a parent,
//!    core nodes via their minimum cycle `K*(v)` (both `K*`-edges at `v`
//!    select `K*`, whose canonical direction leaves `v` exactly once).
//! 2. **Cyclic component without core nodes** (all cycles longer than `L`):
//!    the canonical minimum girth cycle of the component plays the role of
//!    `C`. Only reachable by saturation (the component is smaller than its
//!    cycles' certification radius), so the global computation is honest.
//! 3. **Forest component**: root at the minimum-identifier node, orient all
//!    edges parent→child; internal nodes (the only ones of degree ≥ 3)
//!    have children, hence out-edges.

use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_graph::{Components, CycleSearch, Graph, NodeId, Side};
use std::collections::VecDeque;

/// Per-node analysis produced alongside the orientation: which rule branch
/// its component used and its distance to the core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeAnalysis {
    /// Distance to the core set of the node's component (`0` for core
    /// nodes; `u32::MAX` markers never escape: forests use the root as a
    /// pseudo-core).
    pub dist_to_core: u32,
    /// Which branch of the rule the node's component fell into.
    pub branch: Branch,
}

/// The rule branch a component fell into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Short-cycle core exists (case 1).
    Core,
    /// No short cycles, but some cycle (case 2).
    LongCycle,
    /// Acyclic (case 3).
    Forest,
}

/// Computes `γ(e) ≤ cap` for every edge: the length of the shortest cycle
/// through `e` when it is at most `cap`, else `None`.
#[must_use]
pub fn edge_short_cycle_lengths(g: &Graph, cap: u32, search: &CycleSearch) -> Vec<Option<u32>> {
    g.edges().map(|e| search.shortest_len_through_edge_capped(g, e, cap)).collect()
}

/// The global orientation function `F`.
///
/// `ids` are the LOCAL identifiers (`ids[v]` for node `v`), `short_cycle_cap`
/// is the threshold `L`, and `search` bounds canonical-cycle enumeration.
/// Returns the orientation (as a sinkless-orientation output labeling) and
/// the per-node analysis.
#[must_use]
pub fn orient_globally(
    g: &Graph,
    ids: &[u64],
    short_cycle_cap: u32,
    search: &CycleSearch,
) -> (Labeling<Orient>, Vec<NodeAnalysis>) {
    assert_eq!(ids.len(), g.node_count(), "one id per node");
    let edge_keys: Vec<u64> = g.edges().map(|e| u64::from(e.0)).collect();
    let gamma_e = edge_short_cycle_lengths(g, short_cycle_cap, search);

    // Node memberships: γ(u) ≤ L iff some incident edge has γ(e) ≤ L.
    let mut is_core = vec![false; g.node_count()];
    for e in g.edges() {
        if gamma_e[e.index()].is_some() {
            let [a, b] = g.endpoints(e);
            is_core[a.index()] = true;
            is_core[b.index()] = true;
        }
    }

    let comps = Components::new(g);
    let mut analysis: Vec<NodeAnalysis> =
        vec![NodeAnalysis { dist_to_core: 0, branch: Branch::Forest }; g.node_count()];
    let mut dist: Vec<u32> = vec![u32::MAX; g.node_count()];
    // Per-edge orientation: Some(side) = the side that is the source.
    let mut source: Vec<Option<Side>> = vec![None; g.edge_count()];

    for comp in comps.iter() {
        let branch;
        let core_nodes: Vec<NodeId> = comp.iter().copied().filter(|v| is_core[v.index()]).collect();
        let core_set: Vec<NodeId> = if !core_nodes.is_empty() {
            branch = Branch::Core;
            core_nodes
        } else {
            // Any cycle at all? The component is acyclic iff |E| = |V| - 1
            // within it (connected).
            let internal_edges = comp.iter().map(|&v| g.ports(v).len()).sum::<usize>() / 2;
            if internal_edges >= comp.len() {
                branch = Branch::LongCycle;
                // Canonical minimum girth cycle of the component.
                let girth = comp
                    .iter()
                    .flat_map(|&v| g.ports(v).iter().map(|h| h.edge()))
                    .filter_map(|e| search.shortest_len_through_edge(g, e))
                    .min()
                    .expect("cyclic component has a cycle");
                let k = comp
                    .iter()
                    .flat_map(|&v| g.ports(v).iter().map(|h| h.edge()))
                    .filter(|&e| search.shortest_len_through_edge(g, e) == Some(girth))
                    .filter_map(|e| search.min_cycle_through_edge(g, e, ids, &edge_keys))
                    .min()
                    .expect("girth edge lies on a cycle");
                // Orient K canonically right away.
                for (i, &e) in k.edges().iter().enumerate() {
                    let src = k.nodes()[i];
                    let [a, _] = g.endpoints(e);
                    source[e.index()] = Some(if a == src { Side::A } else { Side::B });
                }
                k.nodes().to_vec()
            } else {
                branch = Branch::Forest;
                // Pseudo-core: the minimum-id node of the component.
                let root = comp
                    .iter()
                    .copied()
                    .min_by_key(|v| ids[v.index()])
                    .expect("nonempty component");
                vec![root]
            }
        };

        // Multi-source BFS from the core set within the component.
        let mut queue = VecDeque::new();
        for &c in &core_set {
            dist[c.index()] = 0;
            queue.push_back(c);
        }
        while let Some(x) = queue.pop_front() {
            let dx = dist[x.index()];
            for (w, _) in g.neighbors(x) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = dx + 1;
                    queue.push_back(w);
                }
            }
        }
        for &v in comp {
            analysis[v.index()] = NodeAnalysis { dist_to_core: dist[v.index()], branch };
        }
    }

    // Orient every remaining edge.
    for e in g.edges() {
        if source[e.index()].is_some() {
            continue; // long-cycle K edges already oriented
        }
        let [u, v] = g.endpoints(e);
        if u == v {
            source[e.index()] = Some(Side::A);
            continue;
        }
        let (du, dv) = (dist[u.index()], dist[v.index()]);
        let branch = analysis[u.index()].branch;
        let src_node = if branch == Branch::Forest {
            // Parent→child: the endpoint closer to the root is the source.
            if du <= dv {
                u
            } else {
                v
            }
        } else if du > dv {
            u
        } else if dv > du {
            v
        } else if du == 0 && branch == Branch::Core {
            // Both in the core: canonical-cycle rule when γ(e) ≤ L.
            if gamma_e[e.index()].is_some() {
                let k = search
                    .min_cycle_through_edge(g, e, ids, &edge_keys)
                    .expect("γ(e) ≤ L means e lies on a cycle");
                let i = k.edges().iter().position(|&x| x == e).expect("e on its own cycle");
                k.nodes()[i]
            } else if ids[u.index()] > ids[v.index()] {
                u
            } else {
                v
            }
        } else {
            // Equal positive distance (or both on the long cycle's BFS
            // frontier): break ties by identifier, larger is the source.
            if ids[u.index()] > ids[v.index()] {
                u
            } else {
                v
            }
        };
        source[e.index()] = Some(if src_node == u { Side::A } else { Side::B });
    }

    let labeling = Labeling::build(
        g,
        |_| Orient::Blank,
        |_| Orient::Blank,
        |h| {
            let src = source[h.edge().index()].expect("all edges oriented");
            if h.side() == src {
                Orient::Out
            } else {
                Orient::In
            }
        },
    );
    (labeling, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::SinklessOrientation;
    use lcl_core::{check, Labeling as L};
    use lcl_graph::gen;

    fn ids_for(g: &Graph) -> Vec<u64> {
        g.nodes().map(|v| u64::from(v.0) + 1).collect()
    }

    fn assert_sinkless(g: &Graph, min_deg: usize) {
        let ids = ids_for(g);
        let (out, _) = orient_globally(g, &ids, 9, &CycleSearch::default());
        let input = L::uniform(g, ());
        let problem = SinklessOrientation { min_constrained_degree: min_deg };
        check(&problem, g, &input, &out).expect_ok();
    }

    #[test]
    fn orients_cycles_without_sinks() {
        assert_sinkless(&gen::cycle(7), 2);
        assert_sinkless(&gen::cycle(30), 2);
    }

    #[test]
    fn orients_random_regular_without_sinks() {
        for seed in 0..5 {
            let g = gen::random_regular(40, 3, seed).unwrap();
            assert_sinkless(&g, 3);
        }
    }

    #[test]
    fn orients_multigraphs_with_loops() {
        let mut g = gen::cycle(4);
        g.add_edge(NodeId(0), NodeId(0));
        g.add_edge(NodeId(1), NodeId(2));
        assert_sinkless(&g, 3);
    }

    #[test]
    fn forest_branch_has_no_high_degree_sinks() {
        let g = gen::complete_binary_tree(5);
        let ids = ids_for(&g);
        let (out, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default());
        assert!(analysis.iter().all(|a| a.branch == Branch::Forest));
        let input = L::uniform(&g, ());
        check(&SinklessOrientation::new(), &g, &input, &out).expect_ok();
    }

    #[test]
    fn long_cycle_branch_kicks_in() {
        // Cycle of length 40 with cap 9: no short cycles, not a forest.
        let g = gen::cycle(40);
        let ids = ids_for(&g);
        let (out, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default());
        assert!(analysis.iter().all(|a| a.branch == Branch::LongCycle));
        let input = L::uniform(&g, ());
        check(&SinklessOrientation { min_constrained_degree: 2 }, &g, &input, &out).expect_ok();
    }

    #[test]
    fn core_branch_reports_distances() {
        // Triangle with a path of length 3 hanging off.
        let mut g = gen::cycle(3);
        let p0 = g.add_node();
        let p1 = g.add_node();
        g.add_edge(NodeId(0), p0);
        g.add_edge(p0, p1);
        let ids = ids_for(&g);
        let (_, analysis) = orient_globally(&g, &ids, 9, &CycleSearch::default());
        assert_eq!(analysis[0].branch, Branch::Core);
        assert_eq!(analysis[0].dist_to_core, 0);
        assert_eq!(analysis[p0.index()].dist_to_core, 1);
        assert_eq!(analysis[p1.index()].dist_to_core, 2);
    }

    #[test]
    fn hanging_trees_point_toward_core() {
        let mut g = gen::cycle(3);
        let p0 = g.add_node();
        let e = g.add_edge(NodeId(0), p0);
        let ids = ids_for(&g);
        let (out, _) = orient_globally(&g, &ids, 9, &CycleSearch::default());
        // The hanging edge must be oriented p0 -> node0 (downhill).
        use lcl_graph::HalfEdge;
        assert_eq!(*out.half(HalfEdge::new(e, Side::B)), lcl_core::problems::Orient::Out);
    }

    #[test]
    fn disconnected_inputs_handled_per_component() {
        let mut g = gen::cycle(5);
        g.append(&gen::complete_binary_tree(3));
        g.append(&gen::cycle(20));
        assert_sinkless(&g, 3);
    }
}
