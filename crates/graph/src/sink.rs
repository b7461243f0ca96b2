//! Streaming graph construction: the [`GraphSink`] trait and the edge
//! spill the streaming store writer builds on.
//!
//! Generators normally build an in-memory [`Graph`] and callers freeze it
//! afterwards ([`Graph::freeze`]) — which means the whole CSR lives in RAM
//! before the first byte reaches disk. [`GraphSink`] inverts that: a
//! generator emits `add_nodes` / `add_edge` events in its canonical
//! insertion order, and the sink decides what to materialize. `Graph`
//! itself is a sink (the in-memory path is unchanged), and
//! [`crate::ShardedSnapshotWriter`] is the streaming one: it keeps only
//! per-node tables in memory, spills the edge list to a scratch file
//! ([`SpillFile`]), and replays the spill a few times, a block of records
//! per read ([`emit_spill_payload`]), to write each image through the one
//! container writer (`crate::snapshot`). With one shard its image is
//! exactly the bytes [`Graph::freeze`] writes — same sections, same
//! order, same FNV-1a content hash.
//!
//! The two payload emitters stay separate on purpose: `Graph::freeze`
//! reads a graph's actual port tables, which deserialization accepts in
//! any consistent numbering, while an edge stream can only express
//! edge-arrival port order.
//!
//! Peak working memory of one emitter run is `O(n + m)` u32 words
//! (degree/cursor tables plus the caller's 2m-word slab) instead of the
//! full port-table CSR with its relocation slack. The store writer runs
//! several at once: its peak is the monolithic slab plus the slabs of the
//! shard jobs in flight, and a shard's slab is its share of the 2m words.
//! That is what lets a 2²²-node instance freeze inside a memory budget the
//! in-memory path exceeds (gated by the `ulimit -v` CI legs).

use crate::graph::Graph;
use crate::ids::NodeId;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// A consumer of streamed graph-construction events, in the generator's
/// canonical insertion order. The event sequence fully determines the
/// packed snapshot payload: node-major port order is exactly edge-arrival
/// order, so two sinks fed the same events agree on every derived table.
pub trait GraphSink {
    /// Appends `count` fresh isolated nodes (ids continue densely).
    fn add_nodes(&mut self, count: usize);
    /// Appends an edge between two existing nodes (a self-loop when they
    /// coincide). Edge ids are assigned in call order.
    fn add_edge(&mut self, u: NodeId, v: NodeId);
}

impl GraphSink for Graph {
    fn add_nodes(&mut self, count: usize) {
        Graph::add_nodes(self, count);
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        Graph::add_edge(self, u, v);
    }
}

impl Graph {
    /// Replays this graph into `sink` as a stream of construction events
    /// (all nodes first, then every edge in insertion order). Feeding the
    /// replay into a one-shard [`crate::ShardedSnapshotWriter`] publishes
    /// an image byte-identical to [`Graph::freeze`]; feeding it into a
    /// fresh [`Graph`] produces a structurally equal graph.
    pub fn stream_into<S: GraphSink>(&self, sink: &mut S) {
        sink.add_nodes(self.node_count());
        for e in self.edges() {
            let [u, v] = self.endpoints(e);
            sink.add_edge(u, v);
        }
    }
}

/// The edge spill: `(u, v)` as two little-endian `u32`s per edge, in
/// insertion order — which doubles as the exact bytes of the snapshot's
/// `edges` section.
#[derive(Debug)]
pub(crate) struct SpillFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    io_err: Option<io::Error>,
}

impl SpillFile {
    pub(crate) fn create(path: PathBuf) -> io::Result<SpillFile> {
        let writer = BufWriter::new(File::create(&path)?);
        Ok(SpillFile { path, writer: Some(writer), io_err: None })
    }

    /// Appends one edge record. I/O errors are buffered (sinks are
    /// infallible by trait contract) and surface at [`SpillFile::seal`].
    pub(crate) fn push(&mut self, u: u32, v: u32) {
        if self.io_err.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            let mut rec = [0u8; 8];
            rec[..4].copy_from_slice(&u.to_le_bytes());
            rec[4..].copy_from_slice(&v.to_le_bytes());
            if let Err(e) = w.write_all(&rec) {
                self.io_err = Some(e);
            }
        }
    }

    /// Flushes and closes the write side, surfacing any buffered error.
    pub(crate) fn seal(&mut self) -> io::Result<()> {
        if let Some(e) = self.io_err.take() {
            return Err(e);
        }
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(())
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn remove(&mut self) {
        self.writer = None;
        std::fs::remove_file(&self.path).ok();
    }
}

/// Edge records read from a spill per block.
const REPLAY_BLOCK: usize = 1 << 13;

/// Reads a sealed spill back, a block of records per read, and hands
/// every edge to `each` in insertion order.
pub(crate) fn replay_spill(
    path: &Path,
    m: usize,
    mut each: impl FnMut(u32, u32),
) -> io::Result<()> {
    let mut file = File::open(path)?;
    let mut block = vec![0u8; 8 * m.min(REPLAY_BLOCK)];
    let mut left = m;
    while left > 0 {
        let records = &mut block[..8 * left.min(REPLAY_BLOCK)];
        file.read_exact(records)?;
        for rec in records.chunks_exact(8) {
            let word = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes"));
            each(word(0), word(4));
        }
        left -= records.len() / 8;
    }
    Ok(())
}

/// Streams the snapshot payload words derivable from `(degrees, spill)` —
/// the same words, in the same order, as `payload_words` on the in-memory
/// graph — into `emit`. Five sequential spill replays; the only large
/// buffer is `slab`, the caller's 2m-word scratch (whatever it holds on
/// entry is overwritten).
pub(crate) fn emit_spill_payload(
    degrees: &[u32],
    spill: &Path,
    slab: &mut [u32],
    mut emit: impl FnMut(u32),
) -> io::Result<()> {
    let m = slab.len() / 2;
    // Section 1: n+1 port offsets (prefix sums of degrees), which start
    // out as every node's slab cursor.
    let mut cursor = Vec::with_capacity(degrees.len());
    let mut off = 0u32;
    for &d in degrees {
        cursor.push(off);
        emit(off);
        off = off.checked_add(d).expect("offset overflow");
    }
    emit(off);
    assert_eq!(off as usize, slab.len(), "degree table disagrees with edge count");
    // Section 2: the packed slab — half-edge 2e lands at u's next port,
    // 2e+1 at v's, exactly as `Graph::add_edge` assigns ports.
    let mut e = 0u32;
    replay_spill(spill, m, |u, v| {
        for (node, half) in [(u, 2 * e), (v, 2 * e + 1)] {
            slab[cursor[node as usize] as usize] = half;
            cursor[node as usize] += 1;
        }
        e += 1;
    })?;
    slab.iter().for_each(|&w| emit(w));
    // Section 3: endpoint pairs — the spill bytes verbatim.
    replay_spill(spill, m, |u, v| {
        emit(u);
        emit(v);
    })?;
    // Section 4: the port each half-edge occupies.
    port_pairs(spill, m, &mut cursor, false, &mut emit)?;
    // Section 5: peer_node — the opposite endpoint of each half-edge.
    replay_spill(spill, m, |u, v| {
        emit(v);
        emit(u);
    })?;
    // Section 6: the port each half-edge's peer occupies.
    port_pairs(spill, m, &mut cursor, true, &mut emit)
}

/// Emits, per edge `(u, v)`, the ports its two half-edges occupy —
/// swapped when `peer` — counting every node's ports in `next` from 0.
fn port_pairs(
    spill: &Path,
    m: usize,
    next: &mut [u32],
    peer: bool,
    emit: &mut impl FnMut(u32),
) -> io::Result<()> {
    next.fill(0);
    replay_spill(spill, m, |u, v| {
        let pa = next[u as usize];
        next[u as usize] += 1;
        let pb = next[v as usize];
        next[v as usize] += 1;
        let (first, second) = if peer { (pb, pa) } else { (pa, pb) };
        emit(first);
        emit(second);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, ShardStoreSummary, ShardedSnapshotWriter};
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lclg-sink-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn zoo() -> Vec<Graph> {
        vec![
            Graph::new(),
            gen::cycle(17),
            gen::grid(5, 7),
            gen::star(33),
            gen::caterpillar(12, 3, 5),
            gen::random_regular_multigraph(24, 3, 9).unwrap(),
            gen::disjoint_cycles(4, 7),
            {
                // Self-loops, parallel edges, isolated nodes.
                let mut g = Graph::new();
                let a = g.add_node();
                let b = g.add_node();
                g.add_node();
                g.add_edge(a, a);
                g.add_edge(a, b);
                g.add_edge(a, b);
                g
            },
        ]
    }

    /// Streams `g` into a one-shard store at `dir`: the streaming writer's
    /// monolithic image.
    fn stream_one_shard(g: &Graph, dir: &Path) -> ShardStoreSummary {
        let mut w = ShardedSnapshotWriter::create(dir, 1).unwrap();
        g.stream_into(&mut w);
        w.finish().unwrap()
    }

    #[test]
    fn streamed_image_is_byte_identical_to_freeze() {
        for (i, g) in zoo().into_iter().enumerate() {
            let dir = tmp(&format!("stream-{i}"));
            let frozen = dir.with_extension("lclg");
            let hash = g.freeze(&frozen).unwrap();
            let summary = stream_one_shard(&g, &dir);
            assert_eq!(summary.graph_hash, hash, "graph {i}");
            assert_eq!(summary.n, g.node_count());
            assert_eq!(summary.m, g.edge_count());
            assert_eq!(summary.max_degree, g.max_degree());
            // The empty graph has no component, hence no image.
            assert_eq!(summary.shards, usize::from(g.node_count() > 0), "graph {i}");
            if summary.shards == 1 {
                let streamed = dir.join("shard-0000.lclg");
                assert_eq!(fs::read(&frozen).unwrap(), fs::read(&streamed).unwrap(), "graph {i}");
                // And the streamed image loads back to the original graph.
                assert_eq!(Graph::load_frozen(&streamed).unwrap(), g, "graph {i}");
            }
            fs::remove_file(&frozen).ok();
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stream_into_a_graph_reproduces_the_structure() {
        for (i, g) in zoo().into_iter().enumerate() {
            let mut copy = Graph::new();
            g.stream_into(&mut copy);
            assert_eq!(copy, g, "graph {i}");
            assert_eq!(copy.content_hash(), g.content_hash(), "graph {i}");
        }
    }

    #[test]
    fn scratch_files_are_cleaned_up() {
        let target = tmp("cleanup");
        let parent = target.parent().unwrap().to_path_buf();
        let name = target.file_name().unwrap().to_string_lossy().into_owned();
        // Everything the writer creates is named after its target.
        let leftovers = || -> Vec<String> {
            let entries = fs::read_dir(&parent).unwrap().filter_map(|e| e.ok());
            let names = entries.map(|e| e.file_name().to_string_lossy().into_owned());
            names.filter(|f| f.starts_with(&name)).collect()
        };
        {
            let mut w = ShardedSnapshotWriter::create(&target, 1).unwrap();
            w.add_nodes(3);
            w.add_edge(NodeId(0), NodeId(1));
            assert_eq!(leftovers().len(), 1, "the scratch directory");
            // Dropped without finish: scratch must vanish.
        }
        assert_eq!(leftovers(), Vec::<String>::new());
        // A finished writer leaves exactly the published store.
        stream_one_shard(&gen::cycle(5), &target);
        assert_eq!(leftovers(), vec![name.clone()]);
        let image = target.join("shard-0000.lclg");
        assert_eq!(Graph::load_frozen(&image).unwrap(), gen::cycle(5));
        fs::remove_dir_all(&target).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edges_to_unknown_nodes_are_rejected() {
        let mut w = ShardedSnapshotWriter::create(tmp("reject"), 1).unwrap();
        w.add_nodes(2);
        w.add_edge(NodeId(0), NodeId(2));
    }
}
