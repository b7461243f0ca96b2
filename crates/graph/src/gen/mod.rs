//! Workload generators.
//!
//! These produce the instance families used throughout the experiments:
//! cycles and paths (for `log* n` problems), random Δ-regular graphs via the
//! configuration model (the hard regime for sinkless orientation), tori,
//! trees, and small complete graphs. Gadget graphs and padded graphs are
//! generated by `lcl-gadget` and `lcl-padding` on top of [`Graph`].

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;

/// Error returned by fallible generators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenError {
    /// The requested degree sequence is not realizable (`n·d` odd, or
    /// `d ≥ n` for a simple graph).
    Unrealizable {
        /// Requested node count.
        n: usize,
        /// Requested degree.
        d: usize,
    },
    /// The randomized generator exhausted its retry budget (e.g. no simple
    /// pairing found).
    RetriesExhausted {
        /// What constraint could not be met.
        what: &'static str,
        /// How many attempts were made.
        attempts: usize,
    },
    /// A parameter combination outside the generator's domain (e.g. more
    /// edges than a simple graph on `n` nodes can hold).
    InvalidParams {
        /// Which constraint was violated.
        what: &'static str,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Unrealizable { n, d } => {
                write!(f, "no simple {d}-regular graph on {n} nodes exists")
            }
            GenError::RetriesExhausted { what, attempts } => {
                write!(f, "generator gave up on `{what}` after {attempts} attempts")
            }
            GenError::InvalidParams { what } => {
                write!(f, "invalid generator parameters: {what}")
            }
        }
    }
}

impl Error for GenError {}

/// A path with `n ≥ 1` nodes and `n - 1` edges.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path needs at least one node");
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    let first = g.add_nodes(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(first.0 + i as u32), NodeId(first.0 + i as u32 + 1));
    }
    g
}

/// A cycle `C_n` with `n ≥ 3` nodes (use [`path`] plus explicit loops for
/// degenerate cases).
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut g = path(n);
    g.add_edge(NodeId(n as u32 - 1), NodeId(0));
    g
}

/// The complete graph `K_k`.
#[must_use]
pub fn complete(k: usize) -> Graph {
    let mut g = Graph::with_capacity(k, k * k.saturating_sub(1) / 2);
    g.add_nodes(k);
    for i in 0..k {
        for j in i + 1..k {
            g.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    g
}

/// A star with one center and `k` leaves.
#[must_use]
pub fn star(k: usize) -> Graph {
    let mut g = Graph::with_capacity(k + 1, k);
    let c = g.add_node();
    for _ in 0..k {
        let leaf = g.add_node();
        g.add_edge(c, leaf);
    }
    g
}

/// A complete binary tree of the given height: `height = 1` is a single
/// node, `height = h` has `2^h - 1` nodes. Children of node `i` are
/// `2i + 1` and `2i + 2` (heap layout).
///
/// # Panics
///
/// Panics if `height == 0`.
#[must_use]
pub fn complete_binary_tree(height: u32) -> Graph {
    assert!(height >= 1, "tree height must be positive");
    let n = (1usize << height) - 1;
    let mut g = Graph::with_capacity(n, n - 1);
    g.add_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(((i - 1) / 2) as u32), NodeId(i as u32));
    }
    g
}

/// The first `n` nodes of the infinite `Δ`-regular tree, in BFS order from
/// the root: the root gets `delta` children, every later internal node
/// `delta - 1`, so all non-leaf, non-root nodes have degree exactly `delta`
/// once their children exist. This is the canonical high-girth bounded-
/// degree workload (the paper's lower-bound arguments live on exactly this
/// family), and at `n` nodes its max degree is `min(delta, n - 1)`.
///
/// # Panics
///
/// Panics if `n == 0` or `delta < 2`.
#[must_use]
pub fn regular_tree(delta: usize, n: usize) -> Graph {
    assert!(n >= 1, "tree must have at least one node");
    assert!(delta >= 2, "regular tree needs delta >= 2");
    let mut g = Graph::with_capacity(n, n - 1);
    g.add_nodes(n);
    // BFS layout: node i's children occupy the next free ids. Tracking one
    // frontier cursor suffices because children are allocated in order.
    let mut next_child = 1usize;
    for i in 0..n {
        let fanout = if i == 0 { delta } else { delta - 1 };
        for _ in 0..fanout {
            if next_child >= n {
                return g;
            }
            g.add_edge(NodeId(i as u32), NodeId(next_child as u32));
            next_child += 1;
        }
    }
    g
}

/// A `w × h` grid (degree ≤ 4, no wraparound).
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
#[must_use]
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w >= 1 && h >= 1, "grid dimensions must be positive");
    let mut g = Graph::with_capacity(w * h, 2 * w * h);
    g.add_nodes(w * h);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                g.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    g
}

/// A `w × h` torus (4-regular if `w, h ≥ 3`).
///
/// # Panics
///
/// Panics if `w < 3 || h < 3` (smaller wraps create parallel edges; build
/// them explicitly if that is what you want).
#[must_use]
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus dimensions must be at least 3");
    let mut g = Graph::with_capacity(w * h, 2 * w * h);
    g.add_nodes(w * h);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            g.add_edge(id(x, y), id((x + 1) % w, y));
            g.add_edge(id(x, y), id(x, (y + 1) % h));
        }
    }
    g
}

/// The configuration model's one random step: the `n·d` stubs, node `v`'s
/// `d` in a row, shuffled into `stubs` by the `ChaCha8` stream of `seed`.
/// Pair `i` is `(stubs[2i], stubs[2i + 1])`.
fn shuffled_stubs(n: usize, d: usize, seed: u64, stubs: &mut Vec<u32>) {
    stubs.clear();
    stubs.extend((0..n as u32).flat_map(|v| std::iter::repeat_n(v, d)));
    stubs.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
}

/// True if the stub pairing has no self-loop and no pair twice. Node `v`'s
/// partners so far are `partners[v·d ..][..fill[v]]`; both tables are
/// scratch, overwritten here.
fn is_simple_pairing(stubs: &[u32], d: usize, partners: &mut [u32], fill: &mut [u32]) -> bool {
    fill.fill(0);
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0] as usize, pair[1] as usize);
        let (fu, fv) = (fill[u] as usize, fill[v] as usize);
        if u == v || partners[u * d..u * d + fu].contains(&pair[1]) {
            return false;
        }
        partners[u * d + fu] = pair[1];
        partners[v * d + fv] = pair[0];
        fill[u] += 1;
        fill[v] += 1;
    }
    true
}

/// The multigraph of a stub pairing: pair `i` is edge `i`, side A at
/// `stubs[2i]` — the graph `add_edge` over the pairs builds, emitted
/// packed. The stubs are freed before the graph's tables are allocated.
fn pairing_graph(n: usize, stubs: Vec<u32>) -> Graph {
    let edges = stubs.chunks_exact(2).map(|p| [NodeId(p[0]), NodeId(p[1])]).collect();
    drop(stubs);
    Graph::from_edges(n, edges)
}

/// A uniformly random `d`-regular **multigraph** on `n` nodes via the
/// configuration (pairing) model: `n·d` stubs are shuffled and paired,
/// pair `i` becoming edge `i`. Self-loops and parallel edges may occur.
/// The graph comes out with a packed slab.
///
/// # Errors
///
/// Returns [`GenError::Unrealizable`] if `n·d` is odd.
pub fn random_regular_multigraph(n: usize, d: usize, seed: u64) -> Result<Graph, GenError> {
    if !(n * d).is_multiple_of(2) {
        return Err(GenError::Unrealizable { n, d });
    }
    let mut stubs = Vec::new();
    shuffled_stubs(n, d, seed, &mut stubs);
    Ok(pairing_graph(n, stubs))
}

/// A random **simple** `d`-regular graph on `n` nodes: the configuration
/// model with rejection of self-loops and parallel edges. Attempt `i`
/// draws the pairing [`random_regular_multigraph`] draws at seed
/// `seed + i·0x9E37_79B9` and checks it on the shuffled stub array; only
/// the first simple pairing is built, with a packed slab, and is that
/// multigraph exactly.
///
/// # Errors
///
/// Returns [`GenError::Unrealizable`] if `n·d` is odd or `d ≥ n`, and
/// [`GenError::RetriesExhausted`] if no simple pairing is found in 1000
/// attempts (overwhelmingly unlikely for the `d = O(1)`, large-`n` settings
/// used here).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GenError> {
    if !(n * d).is_multiple_of(2) || (d >= n && d > 0) {
        return Err(GenError::Unrealizable { n, d });
    }
    const ATTEMPTS: usize = 1000;
    let mut stubs = Vec::with_capacity(n * d);
    let (mut partners, mut fill) = (vec![0; n * d], vec![0; n]);
    for i in 0..ATTEMPTS {
        shuffled_stubs(n, d, seed.wrapping_add(i as u64 * 0x9E37_79B9), &mut stubs);
        if is_simple_pairing(&stubs, d, &mut partners, &mut fill) {
            // Free the scratch before the graph's tables are allocated.
            drop((partners, fill));
            return Ok(pairing_graph(n, stubs));
        }
    }
    Err(GenError::RetriesExhausted { what: "simple pairing", attempts: ATTEMPTS })
}

/// `k` disjoint cycles of length `len` each (a disconnected 2-regular
/// graph — the paper explicitly allows disconnected inputs).
///
/// # Panics
///
/// Panics if `len < 3` or `k == 0`.
#[must_use]
pub fn disjoint_cycles(k: usize, len: usize) -> Graph {
    assert!(k >= 1, "need at least one cycle");
    let mut g = cycle(len);
    for _ in 1..k {
        g.append(&cycle(len));
    }
    g
}

/// The Margulis expander on `Z_m × Z_m`: an explicit 8-regular multigraph
/// with constant spectral expansion. Node `(x, y)` connects to
/// `(x ± 2y, y)`, `(x ± (2y+1), y)`, `(x, y ± 2x)`, `(x, y ± (2x+1))`
/// (arithmetic mod `m`); each of the four maps contributes one edge per
/// node, giving degree 8 with occasional self-loops/parallels at small
/// fixed points — which the LOCAL-model machinery here handles natively.
///
/// Useful as an explicit (deterministic, reproducible without retry
/// loops) hard-instance family for sinkless orientation: expansion keeps
/// neighborhood growth exponential, so short cycles are rare around most
/// nodes and the deterministic algorithm's `Θ(log n)` locality bites.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub fn margulis(m: usize) -> Graph {
    assert!(m >= 1, "Margulis construction needs m ≥ 1");
    let n = m * m;
    let mut g = Graph::with_capacity(n, 4 * n);
    g.add_nodes(n);
    let id = |x: usize, y: usize| NodeId(((y % m) * m + (x % m)) as u32);
    for y in 0..m {
        for x in 0..m {
            // One edge per node per map; the inverse maps' edges are the
            // same edge seen from the other endpoint.
            g.add_edge(id(x, y), id(x + 2 * y, y));
            g.add_edge(id(x, y), id(x + 2 * y + 1, y));
            g.add_edge(id(x, y), id(x, y + 2 * x));
            g.add_edge(id(x, y), id(x, y + 2 * x + 1));
        }
    }
    g
}

/// A random tree on `n` nodes (uniform Prüfer-free attachment: node `i`
/// attaches to a uniformly random earlier node).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1, "tree needs at least one node");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::with_capacity(n, n - 1);
    g.add_node();
    for i in 1..n {
        let parent = rand::Rng::gen_range(&mut rng, 0..i);
        let v = g.add_node();
        g.add_edge(NodeId(parent as u32), v);
    }
    g
}

/// An Erdős–Rényi `G(n, m)` random **simple** graph: `m` edges drawn
/// uniformly without replacement from the `n(n-1)/2` candidate pairs, by
/// seeded rejection sampling (fast while `m` is well below the candidate
/// count, which is the sparse regime every LCL workload here lives in).
///
/// # Errors
///
/// Returns [`GenError::InvalidParams`] if `m > n(n-1)/2` (no simple graph
/// holds that many edges).
pub fn gnm(n: usize, m: usize, seed: u64) -> Result<Graph, GenError> {
    let candidates = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > candidates {
        return Err(GenError::InvalidParams { what: "G(n,m) needs m <= n(n-1)/2" });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6E6D_5EED);
    let mut g = Graph::with_capacity(n, m);
    g.add_nodes(n);
    let mut chosen = std::collections::HashSet::with_capacity(m);
    while chosen.len() < m {
        let u = rand::Rng::gen_range(&mut rng, 0..n as u32);
        let v = rand::Rng::gen_range(&mut rng, 0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            g.add_edge(NodeId(key.0), NodeId(key.1));
        }
    }
    Ok(g)
}

/// The `dim`-dimensional hypercube `Q_dim`: `2^dim` nodes indexed by bit
/// strings, one edge per bit flip. Connected, `dim`-regular, simple, and
/// vertex-transitive — the classic "every node looks alike" workload for
/// symmetry-breaking lower bounds.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 24` (the node count is `2^dim`).
#[must_use]
pub fn hypercube(dim: u32) -> Graph {
    assert!((1..=24).contains(&dim), "hypercube dimension must be in 1..=24");
    let n = 1usize << dim;
    let mut g = Graph::with_capacity(n, n * dim as usize / 2);
    g.add_nodes(n);
    for v in 0..n {
        for b in 0..dim {
            let w = v ^ (1 << b);
            // Each undirected edge once: from the smaller endpoint.
            if v < w {
                g.add_edge(NodeId(v as u32), NodeId(w as u32));
            }
        }
    }
    g
}

/// A random caterpillar tree: a path spine of `spine` nodes (ids
/// `0..spine`, in path order) plus `leaves` leaf nodes, each attached to a
/// uniformly random spine node. Caterpillars are the bounded-pathwidth
/// extreme of the tree family (every node is on or adjacent to the spine),
/// complementing the balanced `regular_tree`.
///
/// # Panics
///
/// Panics if `spine == 0`.
#[must_use]
pub fn caterpillar(spine: usize, leaves: usize, seed: u64) -> Graph {
    assert!(spine >= 1, "caterpillar needs at least one spine node");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA7E_4B11);
    let mut g = Graph::with_capacity(spine + leaves, spine + leaves - 1);
    g.add_nodes(spine);
    for i in 0..spine.saturating_sub(1) {
        g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1));
    }
    for _ in 0..leaves {
        let attach = rand::Rng::gen_range(&mut rng, 0..spine as u32);
        let leaf = g.add_node();
        g.add_edge(NodeId(attach), leaf);
    }
    g
}

/// A uniformly random `k`-lift of `base`: node `(v, i)` (id
/// `v.index() * k + i`, fiber-contiguous) for every base node `v` and
/// `i < k`, and for every base edge `{u, v}` a uniformly random permutation
/// `π` giving the `k` matching edges `(u, i) – (v, π(i))`. Lifts preserve
/// local structure exactly — `(v, i)` has the degree of `v`, and the lift
/// of a `d`-regular base is `d`-regular — while the random permutations
/// raise girth and break global symmetry, the regime where the paper's
/// gadget lower bounds live. A lift of a simple base is simple; lifts of
/// connected bases may be disconnected (at most `k` components).
///
/// Base self-loops lift to the matching `(u, i) – (u, π(i))` of an extra
/// uniform permutation, so fixed points become lifted self-loops.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn random_lift(base: &Graph, k: usize, seed: u64) -> Graph {
    assert!(k >= 1, "lift degree k must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11F7_5EED);
    let n = base.node_count();
    let mut g = Graph::with_capacity(n * k, base.edge_count() * k);
    g.add_nodes(n * k);
    let fiber = |v: NodeId, i: usize| NodeId((v.index() * k + i) as u32);
    let mut perm: Vec<usize> = (0..k).collect();
    for e in base.edges() {
        let [u, v] = base.endpoints(e);
        // Fresh uniform permutation per base edge, drawn in edge order from
        // the single seeded stream (deterministic in `seed`).
        perm.clear();
        perm.extend(0..k);
        perm.shuffle(&mut rng);
        for (i, &pi) in perm.iter().enumerate() {
            g.add_edge(fiber(u, i), fiber(v, pi));
        }
    }
    g
}

/// Streaming [`pods`]: emits the same instance, edge for edge in the same
/// order, into any [`crate::GraphSink`] — the huge-scale entry point that
/// never materializes the graph (pair it with
/// [`crate::ShardedSnapshotWriter`]; with one shard it publishes the
/// monolithic `.lclg` image).
///
/// # Errors
///
/// As [`pods`].
pub fn pods_into<S: crate::GraphSink>(
    pods: usize,
    pod_size: usize,
    cross_links: usize,
    seed: u64,
    sink: &mut S,
) -> Result<(), GenError> {
    if pods == 0 || pod_size < 2 {
        return Err(GenError::InvalidParams { what: "pods needs pods >= 1 and pod_size >= 2" });
    }
    if pods > 1 && 2 * cross_links >= pods {
        // Offsets ±1..=cross_links must name 2·cross_links *distinct*
        // partner pods, or pod pairs would repeat (parallel-edge risk) —
        // and the family is meant to stay sparse anyway.
        return Err(GenError::InvalidParams { what: "pods needs 2*cross_links < pods" });
    }
    let n = pods * pod_size;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0D0D_5EED);
    sink.add_nodes(n);
    let member = |pod: usize, i: usize| NodeId((pod * pod_size + i) as u32);
    for p in 0..pods {
        // The pod clique, in (a, b) a < b order.
        for a in 0..pod_size {
            for b in (a + 1)..pod_size {
                sink.add_edge(member(p, a), member(p, b));
            }
        }
        // Cross links to the next `cross_links` pods around the ring,
        // endpoints drawn at random inside each pod.
        if pods > 1 {
            for c in 1..=cross_links {
                let q = (p + c) % pods;
                let a = rand::Rng::gen_range(&mut rng, 0..pod_size);
                let b = rand::Rng::gen_range(&mut rng, 0..pod_size);
                sink.add_edge(member(p, a), member(q, b));
            }
        }
    }
    Ok(())
}

/// The seeded sparse-pod family (Octopus-style): `pods` cliques of
/// `pod_size` nodes each, every pod cross-linked to its `cross_links`
/// ring-successors by single random edges. Low degree
/// (`Δ ≤ pod_size - 1 + 2·cross_links`), connected iff `cross_links ≥ 1`
/// (or there is only one pod), deterministic in `seed`, and simple (no
/// self-loops or parallel edges): distinct pod pairs get at most one
/// cross edge because `2·cross_links < pods` is enforced.
///
/// `n = pods · pod_size`, `m = pods · (pod_size choose 2) + pods ·
/// cross_links` (the cross term only when `pods > 1`).
///
/// # Errors
///
/// [`GenError::InvalidParams`] when `pods == 0`, `pod_size < 2`, or
/// `2·cross_links ≥ pods > 1`.
pub fn pods(
    pods_count: usize,
    pod_size: usize,
    cross_links: usize,
    seed: u64,
) -> Result<Graph, GenError> {
    let n = pods_count * pod_size;
    let m = pods_count * (pod_size * (pod_size - 1) / 2)
        + if pods_count > 1 { pods_count * cross_links } else { 0 };
    let mut g = Graph::with_capacity(n, m);
    pods_into(pods_count, pod_size, cross_links, seed, &mut g)?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{girth, Components};

    #[test]
    fn regular_tree_degrees_and_shape() {
        let g = regular_tree(3, 22);
        assert_eq!(g.node_count(), 22);
        assert_eq!(g.edge_count(), 21); // connected tree
        assert_eq!(Components::new(&g).count(), 1);
        assert_eq!(g.max_degree(), 3);
        // Every node is a leaf (degree 1) or internal of degree exactly 3.
        assert!(g.nodes().all(|v| g.degree(v) == 1 || g.degree(v) == 3));
        // Root saturates at delta children.
        assert_eq!(g.degree(NodeId(0)), 3);
        // Tiny cases degrade gracefully.
        assert_eq!(regular_tree(4, 1).edge_count(), 0);
        assert_eq!(regular_tree(4, 2).max_degree(), 1);
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(4);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.max_degree(), 2);
        assert_eq!(p.min_degree(), 1);
        let c = cycle(4);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.min_degree(), 2);
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.min_degree(), 4);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.degree(NodeId(0)), 6);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn binary_tree_shape() {
        let g = complete_binary_tree(4);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(girth(&g), None);
    }

    #[test]
    fn grid_and_torus_shapes() {
        // grid(w,h) has h*(w-1) horizontal plus w*(h-1) vertical edges.
        let g = grid(4, 3);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        let t = torus(4, 4);
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.edge_count(), 32);
        assert_eq!(t.min_degree(), 4);
        assert_eq!(t.max_degree(), 4);
        assert!(!t.has_multi_edges_or_loops());
    }

    #[test]
    fn random_regular_is_simple_and_regular() {
        let g = random_regular(50, 3, 42).expect("generable");
        assert_eq!(g.node_count(), 50);
        assert!(!g.has_multi_edges_or_loops());
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn random_regular_rejects_odd_total_degree() {
        assert!(matches!(random_regular(5, 3, 1), Err(GenError::Unrealizable { n: 5, d: 3 })));
    }

    #[test]
    fn random_regular_is_deterministic_in_seed() {
        let a = random_regular(40, 3, 7).unwrap();
        let b = random_regular(40, 3, 7).unwrap();
        assert_eq!(a, b);
        let c = random_regular(40, 3, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn multigraph_pairing_has_full_degree() {
        let g = random_regular_multigraph(10, 3, 5).unwrap();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn disjoint_cycles_components() {
        let g = disjoint_cycles(3, 5);
        assert_eq!(g.node_count(), 15);
        assert_eq!(Components::new(&g).count(), 3);
    }

    #[test]
    fn margulis_shape() {
        let g = margulis(5);
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 100);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 8);
        }
        // Connected for m ≥ 2 (expander).
        assert_eq!(Components::new(&g).count(), 1);
    }

    #[test]
    fn margulis_expands() {
        // Neighborhood growth: a radius-2 ball in a good expander covers a
        // constant fraction of a 289-node graph.
        // (Node (0,0) has several self-loop fixed points, so growth starts
        // slow there and still multiplies ≈ 4× per step.)
        let g = margulis(17);
        let dist = crate::bfs_distances(&g, NodeId(0));
        let ball = |r: u32| dist.iter().filter(|d| d.is_some_and(|d| d <= r)).count();
        let (b2, b3) = (ball(2), ball(3));
        assert!(b2 >= 20, "radius-2 ball too small: {b2}");
        assert!(b3 >= 3 * b2, "no expansion: {b2} → {b3}");
    }

    #[test]
    fn random_tree_is_acyclic_connected() {
        let g = random_tree(30, 9);
        assert_eq!(g.edge_count(), 29);
        assert_eq!(Components::new(&g).count(), 1);
        assert_eq!(girth(&g), None);
    }

    #[test]
    fn gen_error_display_is_informative() {
        let e = GenError::Unrealizable { n: 5, d: 3 };
        assert!(e.to_string().contains("5"));
        let e = GenError::RetriesExhausted { what: "girth constraint", attempts: 7 };
        assert!(e.to_string().contains("girth"));
        let e = GenError::InvalidParams { what: "G(n,m) needs m <= n(n-1)/2" };
        assert!(e.to_string().contains("G(n,m)"));
    }

    #[test]
    fn gnm_has_exact_edge_count_and_is_simple() {
        let g = gnm(40, 60, 11).expect("generable");
        assert_eq!(g.node_count(), 40);
        assert_eq!(g.edge_count(), 60);
        assert!(!g.has_multi_edges_or_loops());
    }

    #[test]
    fn gnm_rejects_overfull_and_handles_extremes() {
        assert!(matches!(gnm(4, 7, 1), Err(GenError::InvalidParams { .. })));
        assert_eq!(gnm(4, 6, 1).unwrap().edge_count(), 6); // K4 exactly
        assert_eq!(gnm(5, 0, 1).unwrap().edge_count(), 0);
        assert_eq!(gnm(0, 0, 1).unwrap().node_count(), 0);
    }

    #[test]
    fn gnm_is_deterministic_in_seed() {
        assert_eq!(gnm(30, 45, 7).unwrap(), gnm(30, 45, 7).unwrap());
        assert_ne!(gnm(30, 45, 7).unwrap(), gnm(30, 45, 8).unwrap());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32); // n · dim / 2
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(!g.has_multi_edges_or_loops());
        assert_eq!(Components::new(&g).count(), 1);
        assert_eq!(girth(&g), Some(4));
        // Q_1 is a single edge.
        assert_eq!(hypercube(1).edge_count(), 1);
    }

    #[test]
    fn caterpillar_is_a_tree_with_spine() {
        let g = caterpillar(10, 15, 3);
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 24);
        assert_eq!(Components::new(&g).count(), 1);
        assert_eq!(girth(&g), None);
        // Every leaf (ids >= spine) has degree exactly 1.
        for i in 10..25 {
            assert_eq!(g.degree(NodeId(i)), 1);
        }
        // Determinism in the seed.
        assert_eq!(caterpillar(10, 15, 3), caterpillar(10, 15, 3));
        assert_ne!(caterpillar(10, 15, 3), caterpillar(10, 15, 4));
        // Degenerate shapes.
        assert_eq!(caterpillar(1, 0, 0).edge_count(), 0);
        assert_eq!(caterpillar(1, 5, 0).max_degree(), 5);
    }

    #[test]
    fn random_lift_preserves_local_structure() {
        let base = complete(4); // 3-regular, 6 edges
        let g = random_lift(&base, 5, 9);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 30);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        // Lift of a simple base is simple.
        assert!(!g.has_multi_edges_or_loops());
        assert_eq!(random_lift(&base, 5, 9), random_lift(&base, 5, 9));
        assert_ne!(random_lift(&base, 5, 9), random_lift(&base, 5, 10));
        // k = 1 is a relabeled copy of the base (same degrees, same m).
        let one = random_lift(&base, 1, 1);
        assert_eq!(one.node_count(), 4);
        assert_eq!(one.edge_count(), 6);
    }

    #[test]
    fn random_lift_of_self_loop_keeps_degrees() {
        let mut base = Graph::new();
        let v = base.add_node();
        base.add_edge(v, v);
        let g = random_lift(&base, 4, 2);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
    }
}
