//! Breadth-first traversal utilities: distances.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance from `source` to every node, `None` for unreachable nodes.
///
/// Self-loops never shorten distances; parallel edges are harmless.
#[must_use]
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    bfs_distances_capped(g, source, u32::MAX)
}

/// Like [`bfs_distances`] but stops expanding beyond distance `cap`.
/// Nodes farther than `cap` report `None`.
#[must_use]
pub fn bfs_distances_capped(g: &Graph, source: NodeId, cap: u32) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued node has a distance");
        if d >= cap {
            continue;
        }
        for (w, _) in g.neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn distances_on_path() {
        let g = gen::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn capped_distances_stop() {
        let g = gen::path(5);
        let d = bfs_distances_capped(&g, NodeId(0), 2);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g = gen::path(3);
        g.add_node(); // isolated
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[3], None);
    }

    #[test]
    fn self_loop_does_not_affect_distances() {
        let mut g = gen::path(3);
        g.add_edge(NodeId(1), NodeId(1));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
    }
}
