//! The streaming freeze path must be indistinguishable from the in-memory
//! one: for every generator in the zoo, piping the instance into a
//! one-shard [`ShardedSnapshotWriter`] publishes a `.lclg` image
//! byte-identical to building the [`Graph`] and calling [`Graph::freeze`].
//! This is the contract that lets huge instances skip materialization
//! entirely.

use std::fs;

use lcl_graph::gen;
use lcl_graph::{Graph, ShardedSnapshotWriter};
use proptest::prelude::*;

/// Build one zoo member, deterministically in `(pick, size, seed)`. The
/// match arms deliberately cover every structural corner the snapshot
/// format has to handle: self-loop-free simple graphs, multigraphs,
/// disconnected graphs, isolated nodes, and the empty graph.
fn zoo_member(pick: usize, size: usize, seed: u64) -> Graph {
    let n = size.max(2);
    match pick % 12 {
        0 => gen::path(n),
        1 => gen::cycle(n.max(3)),
        2 => gen::complete(n.min(12)),
        3 => gen::star(n),
        4 => gen::regular_tree(3, n),
        5 => gen::torus(3 + n % 5, 3 + seed as usize % 5),
        6 => gen::random_regular_multigraph(2 * n, 3, seed) // loops + parallels
            .expect("n·d is even"),
        7 => gen::disjoint_cycles(1 + n % 4, 3 + seed as usize % 4),
        8 => gen::random_tree(n, seed),
        9 => gen::gnm(n, (n * (n - 1) / 2) * (seed as usize % 101) / 100, seed)
            .expect("m is clamped under n(n-1)/2"),
        10 => gen::caterpillar(1 + n / 2, n, seed),
        _ => gen::pods(1 + n % 7, 2 + seed as usize % 5, (n % 7) / 2, seed)
            .expect("cross_links < pods/2 by construction"),
    }
}

/// Stream `g` into a one-shard store and return the reference image
/// produced by `Graph::freeze` next to the store's shard image. The empty
/// graph has no component and so no image; its manifest still carries the
/// freeze's hash.
fn bytes_both_ways(g: &Graph, tag: &str) -> (Vec<u8>, Option<Vec<u8>>) {
    let dir = std::env::temp_dir().join(format!("lcl-stream-freeze-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let frozen = dir.join("frozen.lclg");
    let store = dir.join("one.shards");
    let hash = g.freeze(&frozen).unwrap();
    let mut w = ShardedSnapshotWriter::create(&store, 1).unwrap();
    g.stream_into(&mut w);
    let summary = w.finish().unwrap();
    assert_eq!(summary.n, g.node_count());
    assert_eq!(summary.m, g.edge_count());
    assert_eq!(summary.max_degree, g.max_degree());
    assert_eq!(summary.graph_hash, hash);
    assert_eq!(summary.shards, usize::from(g.node_count() > 0));
    let pair = (fs::read(&frozen).unwrap(), fs::read(store.join("shard-0000.lclg")).ok());
    fs::remove_dir_all(&dir).unwrap();
    pair
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_image_matches_freeze_across_the_zoo(
        pick in 0usize..12,
        size in 2usize..40,
        seed in 0u64..1000,
    ) {
        let g = zoo_member(pick, size, seed);
        let (frozen, streamed) = bytes_both_ways(&g, &format!("{pick}-{size}-{seed}"));
        prop_assert_eq!(Some(frozen), streamed);
    }
}

/// The empty graph and a nodes-only graph are valid (if degenerate)
/// snapshots, and the two freeze paths must agree there too: on the hash
/// (checked in `bytes_both_ways`) and, where there is an image, its bytes.
#[test]
fn degenerate_graphs_stream_identically() {
    let (_, streamed) = bytes_both_ways(&Graph::new(), "empty");
    assert_eq!(streamed, None);

    let mut isolated = Graph::new();
    isolated.add_nodes(17);
    let (a, b) = bytes_both_ways(&isolated, "isolated");
    assert_eq!(Some(a), b);
}
