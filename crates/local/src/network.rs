//! A graph equipped with LOCAL-model identifiers.

use crate::rounds::PortPlane;
use crate::NodeExecutor;
use lcl_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// How LOCAL identifiers are assigned to nodes.
///
/// The model only promises *unique* identifiers from `{1, …, poly(n)}`; an
/// adversary may pick them. Experiments use [`IdAssignment::Shuffled`] for
/// typical runs and [`IdAssignment::Sequential`] when a deterministic layout
/// is convenient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdAssignment {
    /// Node `k` gets identifier `k + 1`.
    Sequential,
    /// A seeded random permutation of `{1, …, n}`.
    Shuffled {
        /// Seed for the permutation.
        seed: u64,
    },
    /// A seeded random *sparse* assignment: distinct values in `{1, …, n²}`,
    /// exercising the `poly(n)` id space.
    SparseShuffled {
        /// Seed for the sampling.
        seed: u64,
    },
}

/// The identifier vector `assignment` would hand an `n`-node graph:
/// `ids[k]` is the LOCAL identifier of node `k`.
///
/// [`Network::new`] is exactly `with_ids(graph, assigned_ids(n, a))`; the
/// standalone form lets callers that never materialize the full graph
/// (e.g. the sharded snapshot path) reproduce the same identifiers and
/// slice out the entries for the nodes they do hold.
#[must_use]
pub fn assigned_ids(n: usize, assignment: IdAssignment) -> Vec<u64> {
    match assignment {
        IdAssignment::Sequential => (1..=n as u64).collect(),
        IdAssignment::Shuffled { seed } => {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            ids.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xB5C0_FBCF));
            ids
        }
        IdAssignment::SparseShuffled { seed } => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x05EE_D1D5);
            let bound = (n as u64).saturating_mul(n as u64).max(1);
            let mut chosen = std::collections::HashSet::with_capacity(n);
            let mut ids = Vec::with_capacity(n);
            while ids.len() < n {
                let x = rand::Rng::gen_range(&mut rng, 1..=bound);
                if chosen.insert(x) {
                    ids.push(x);
                }
            }
            ids
        }
    }
}

/// A network instance: a graph plus unique identifiers, plus the global
/// knowledge (`n`, `Δ`) every node is given.
#[derive(Clone, Debug)]
pub struct Network {
    graph: Graph,
    ids: Vec<u64>,
    n_known: usize,
    /// Cached `graph.max_degree()`: the simulators read `Δ` once per node
    /// when building contexts, which would otherwise rescan the degree
    /// table `n` times.
    max_deg: usize,
    /// The round engine's routing tables, built by the first
    /// round-algorithm run and shared by every later one.
    plane: OnceLock<PortPlane>,
}

impl Network {
    /// Wraps a graph with identifiers assigned per `assignment`. Nodes are
    /// told the exact `n = graph.node_count()`.
    #[must_use]
    pub fn new(mut graph: Graph, assignment: IdAssignment) -> Self {
        // The graph is immutable inside a Network: repack the CSR slab now
        // (drops dead relocation segments, tightens locality for the
        // simulators' port walks).
        graph.compact();
        let n = graph.node_count();
        let ids = assigned_ids(n, assignment);
        let max_deg = graph.max_degree();
        Network { graph, ids, n_known: n, max_deg, plane: OnceLock::new() }
    }

    /// Wraps a graph with explicitly chosen identifiers (adversarial runs).
    ///
    /// # Panics
    ///
    /// Panics if `ids` has the wrong length or contains duplicates or zeros.
    #[must_use]
    pub fn with_ids(mut graph: Graph, ids: Vec<u64>) -> Self {
        graph.compact();
        assert_eq!(ids.len(), graph.node_count(), "one id per node required");
        assert!(ids.iter().all(|&x| x > 0), "ids must be positive");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
        let n = graph.node_count();
        let max_deg = graph.max_degree();
        Network { graph, ids, n_known: n, max_deg, plane: OnceLock::new() }
    }

    /// A component part of `net` (see [`crate::map_components`]): `graph`
    /// is the component as a packed graph, `ids` its members' ids in
    /// `net`, and the part announces `net`'s `(n, Δ)`. The ids are a
    /// restriction of `net`'s unique, positive ids, so unlike
    /// [`Network::with_ids`] this skips re-validating them.
    pub(crate) fn part_of(net: &Network, graph: Graph, ids: Vec<u64>) -> Network {
        debug_assert_eq!(ids.len(), graph.node_count(), "one id per node required");
        debug_assert!(graph.max_degree() <= net.max_deg, "a part cannot exceed its network's Δ");
        Network { graph, ids, n_known: net.n_known, max_deg: net.max_deg, plane: OnceLock::new() }
    }

    /// Overrides the `n` announced to nodes (the paper often gives nodes an
    /// *upper bound* on `n`, e.g. when a padded graph is filled up with
    /// isolated nodes in Lemma 5).
    #[must_use]
    pub fn with_known_n(mut self, n: usize) -> Self {
        assert!(n >= self.graph.node_count(), "announced n must be an upper bound");
        self.n_known = n;
        self
    }

    /// Overrides the `Δ` announced to nodes. Like [`Network::with_known_n`]
    /// this models global knowledge that exceeds the instance at hand: a
    /// component shard must announce the *whole* graph's maximum degree,
    /// or its nodes would behave differently than in the unsharded run.
    ///
    /// # Panics
    ///
    /// Panics if `d` is below the graph's actual maximum degree.
    #[must_use]
    pub fn with_announced_max_degree(mut self, d: usize) -> Self {
        assert!(d >= self.graph.max_degree(), "announced Δ must be an upper bound");
        self.max_deg = d;
        self
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The number of nodes announced to the nodes.
    #[must_use]
    pub fn known_n(&self) -> usize {
        self.n_known
    }

    /// Actual number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// True if the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// The LOCAL identifier of a node.
    #[must_use]
    pub fn id_of(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// All identifiers, indexed by node.
    #[must_use]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Maximum degree `Δ` (announced to nodes). Precomputed at
    /// construction — the graph is immutable inside a `Network`.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_deg
    }

    /// The round engine's port plane of this network's graph, built across
    /// `exec` by the first call; later calls share it, whatever their
    /// executor.
    pub(crate) fn port_plane<X: NodeExecutor>(&self, exec: &X) -> &PortPlane {
        self.plane.get_or_init(|| PortPlane::build(&self.graph, exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::gen;

    #[test]
    fn sequential_ids() {
        let net = Network::new(gen::path(4), IdAssignment::Sequential);
        let ids: Vec<u64> = net.graph().nodes().map(|v| net.id_of(v)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn shuffled_ids_are_a_permutation() {
        let net = Network::new(gen::cycle(20), IdAssignment::Shuffled { seed: 5 });
        let mut ids: Vec<u64> = net.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_is_seed_deterministic() {
        let a = Network::new(gen::cycle(10), IdAssignment::Shuffled { seed: 5 });
        let b = Network::new(gen::cycle(10), IdAssignment::Shuffled { seed: 5 });
        assert_eq!(a.ids(), b.ids());
        let c = Network::new(gen::cycle(10), IdAssignment::Shuffled { seed: 6 });
        assert_ne!(a.ids(), c.ids());
    }

    #[test]
    fn assigned_ids_match_the_network_constructor() {
        // The standalone helper is the contract the sharded run path leans
        // on: slicing its output per shard must reproduce the ids the full
        // Network would have assigned.
        for assignment in [
            IdAssignment::Sequential,
            IdAssignment::Shuffled { seed: 9 },
            IdAssignment::SparseShuffled { seed: 9 },
        ] {
            let net = Network::new(gen::cycle(15), assignment);
            assert_eq!(net.ids(), assigned_ids(15, assignment).as_slice());
        }
    }

    #[test]
    fn sparse_ids_fit_poly_bound_and_are_unique() {
        let net = Network::new(gen::cycle(12), IdAssignment::SparseShuffled { seed: 2 });
        let mut ids = net.ids().to_vec();
        assert!(ids.iter().all(|&x| (1..=144).contains(&x)));
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn with_known_n_overrides() {
        let net = Network::new(gen::path(3), IdAssignment::Sequential).with_known_n(10);
        assert_eq!(net.known_n(), 10);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_explicit_ids_rejected() {
        let _ = Network::with_ids(gen::path(2), vec![7, 7]);
    }

    #[test]
    fn construction_compacts_the_graph_slab() {
        // star() grows the hub incrementally, leaving dead relocated
        // segments in the slab; Network construction must repack it.
        let g = gen::star(33);
        assert!(g.port_slab_len() > 2 * g.edge_count());
        let edges = g.edge_count();
        let net = Network::new(g, IdAssignment::Sequential);
        assert_eq!(net.graph().port_slab_len(), 2 * edges);
        let net = Network::with_ids(gen::star(33), (1..=34).collect());
        assert_eq!(net.graph().port_slab_len(), 2 * edges);
    }

    #[test]
    #[should_panic(expected = "upper bound")]
    fn known_n_must_be_upper_bound() {
        let _ = Network::new(gen::path(3), IdAssignment::Sequential).with_known_n(2);
    }
}
