//! The sharded snapshot store: a directory of per-component `.lclg`
//! images plus a content-hashed `shards.json` manifest.
//!
//! A huge instance rarely needs to be mapped whole: every closed
//! sub-instance runs as its own part, bit-identically
//! (`lcl_local::map_components`), so the store splits the stream of
//! construction events into per-component frozen images — union-find
//! over the node ids and one global edge spill **while generating**, then
//! a routing replay into one spill per shard. Each shard image, and the
//! content hash of the monolithic image, is then an independent job that
//! replays its spill through the spill emitter ([`crate::sink`]);
//! [`ShardedSnapshotWriter::finish_with`] runs the jobs on a
//! [`NodeExecutor`], longest first, each claimed by whichever worker is
//! free, and gathers the results in shard order, so every file, hash and
//! first error is the one the calling-thread writer produces. Peak
//! scratch is the monolithic 2m-word slab plus the slabs of the shard
//! jobs in flight. With `max_shards = 1` the store holds one image
//! byte-identical to [`Graph::freeze`] of the whole graph: this is the
//! crate's one streaming writer. Readers open the manifest, validate
//! hashes, and map only the shard they are about to execute.
//!
//! # Layout
//!
//! ```text
//! <dir>/shards.json    manifest: global n/m/Δ, per-shard files + sizes +
//!                      content hashes, members-file hash, monolithic
//!                      graph hash, self FNV ("manifest_hash")
//! <dir>/members.bin    "LCLM" | version | k | n | hash(u64)
//!                      | k+1 offsets | n global node ids grouped by shard
//! <dir>/shard-NNNN.lclg  standard frozen snapshots (local node ids)
//! ```
//!
//! Shard images and `members.bin` are hashed containers written and read
//! by the one codec in `crate::snapshot`; the manifest goes through its
//! atomic publish.
//!
//! Components are numbered by smallest member (the same order
//! [`crate::Components`] assigns) and map 1:1 onto shards while there are
//! at most `max_shards` of them; beyond that, components group into
//! `max_shards` size-balanced shards (a shard is still a closed system —
//! a disjoint union of components — so shard-local execution stays exact).
//! Within a shard, local ids follow ascending global id; the members table
//! recovers the global numbering, and because every shard preserves global
//! edge-insertion order, per-node port order is preserved too. Node
//! *behavior* under the round engines depends only on the LOCAL id, the
//! port order, and the announced `(n, Δ)` — all preserved — which is what
//! keeps store-backed rows byte-identical to unsharded runs.
//!
//! The publish is atomic at directory granularity: everything is written
//! into `<dir>.tmp<pid>`, which is `fsync`ed and renamed into place, and
//! the parent directory is `fsync`ed after the rename. A writer that
//! fails or is dropped before publishing removes that scratch directory,
//! spills included.

use crate::exec::{NodeExecutor, Sequential};
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::sink::{emit_spill_payload, replay_spill, GraphSink, SpillFile};
use crate::snapshot::{
    invalid, le_words, parent_dir, publish, snapshot_header, sync_dir, tmp_path, Container, Fnv,
    LCLG,
};
use std::cmp::Reverse;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const MANIFEST: &str = "shards.json";
const MEMBERS: &str = "members.bin";
/// The members table; fields `k | n`.
const LCLM: Container<2> = Container { magic: b"LCLM", what: "members table" };
const ZERO_HASH: &str = "0000000000000000";

/// Default cap on the number of shard images per store. Components map
/// 1:1 onto shards up to this count; beyond it they group into
/// size-balanced unions (still closed systems).
pub const DEFAULT_MAX_SHARDS: usize = 64;

/// Per-shard entry of the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Image file name, relative to the store directory.
    pub file: String,
    /// Node count of the shard.
    pub n: usize,
    /// Edge count of the shard.
    pub m: usize,
    /// FNV-1a content hash of the shard image payload (16 hex digits in
    /// the manifest).
    pub hash: u64,
}

/// Summary of a finished sharded publish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStoreSummary {
    /// Global node count.
    pub n: usize,
    /// Global edge count.
    pub m: usize,
    /// Global maximum degree.
    pub max_degree: usize,
    /// Number of shard images written.
    pub shards: usize,
    /// Content hash of the *monolithic* frozen image of the same graph —
    /// identical to [`Graph::content_hash`], computed from the stream.
    pub graph_hash: u64,
}

/// A [`GraphSink`] that splits the event stream into per-component frozen
/// shard images plus a content-hashed manifest, published atomically.
#[derive(Debug)]
pub struct ShardedSnapshotWriter {
    dir: PathBuf,
    tmp_dir: PathBuf,
    spill: SpillFile,
    degrees: Vec<u32>,
    parent: Vec<u32>,
    m: usize,
    max_shards: usize,
}

impl ShardedSnapshotWriter {
    /// Opens a streaming store writer that will publish the directory
    /// `dir` on [`ShardedSnapshotWriter::finish`], with at most
    /// `max_shards` shard images (min 1, max 9999).
    ///
    /// # Errors
    ///
    /// I/O errors creating the scratch directory.
    pub fn create(dir: impl Into<PathBuf>, max_shards: usize) -> io::Result<ShardedSnapshotWriter> {
        let dir = dir.into();
        let tmp_dir = tmp_path(&dir);
        std::fs::create_dir_all(&tmp_dir)?;
        let spill = SpillFile::create(tmp_dir.join("global.spill")).inspect_err(|_| {
            std::fs::remove_dir_all(&tmp_dir).ok();
        })?;
        Ok(ShardedSnapshotWriter {
            dir,
            tmp_dir,
            spill,
            degrees: Vec::new(),
            parent: Vec::new(),
            m: 0,
            max_shards: max_shards.clamp(1, 9999),
        })
    }

    fn find(&mut self, mut v: u32) -> u32 {
        // Path halving.
        while self.parent[v as usize] != v {
            let p = self.parent[v as usize];
            self.parent[v as usize] = self.parent[p as usize];
            v = self.parent[v as usize];
        }
        v
    }

    /// [`ShardedSnapshotWriter::finish_with`] on the calling thread.
    ///
    /// # Errors
    ///
    /// As [`ShardedSnapshotWriter::finish_with`].
    pub fn finish(self) -> io::Result<ShardStoreSummary> {
        self.finish_with(&Sequential)
    }

    /// Writes shard images, members table, and manifest, then renames the
    /// scratch directory into place. Consumes the writer. The shard images
    /// and the monolithic content hash are independent jobs that `exec`
    /// runs; every file and hash is the same under any executor.
    ///
    /// # Errors
    ///
    /// Any buffered or fresh I/O error — the first one in shard order,
    /// then the monolithic hash, members table and manifest, as a writer
    /// that runs the jobs one by one meets it; the target directory is
    /// left untouched and the scratch directory removed on failure.
    pub fn finish_with<X: NodeExecutor>(mut self, exec: &X) -> io::Result<ShardStoreSummary> {
        self.spill.seal()?;
        let n = self.degrees.len();
        let m = self.m;
        // Component numbering by first appearance in node order — i.e. by
        // smallest member, matching `Components`.
        let mut shard_of = vec![u32::MAX; n];
        let mut comp_sizes: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            let root = self.find(v);
            let c = if shard_of[root as usize] == u32::MAX {
                let c = u32::try_from(comp_sizes.len()).expect("component count fits u32");
                comp_sizes.push(0);
                shard_of[root as usize] = c;
                c
            } else {
                shard_of[root as usize]
            };
            shard_of[v as usize] = c;
            comp_sizes[c as usize] += 1;
        }
        self.parent = Vec::new();
        // From each node's component to its shard.
        let shard_of_comp = assign_shards(&comp_sizes, self.max_shards);
        shard_of.iter_mut().for_each(|c| *c = shard_of_comp[*c as usize]);
        let k = shard_of_comp.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        // Local ids: arrival order within the shard = ascending global id.
        let mut local_of = vec![0u32; n];
        let mut shard_n = vec![0u32; k];
        for v in 0..n {
            let s = shard_of[v] as usize;
            local_of[v] = shard_n[s];
            shard_n[s] += 1;
        }
        let mut shard_degrees: Vec<Vec<u32>> =
            shard_n.iter().map(|&c| vec![0u32; c as usize]).collect();
        for v in 0..n {
            shard_degrees[shard_of[v] as usize][local_of[v] as usize] = self.degrees[v];
        }
        // Routing replay: one pass over the global spill distributes each
        // edge (localized) to its shard's spill, preserving global
        // edge-insertion order within every shard.
        let mut shard_spills: Vec<SpillFile> = (0..k)
            .map(|s| SpillFile::create(self.tmp_dir.join(format!("shard-{s:04}.spill"))))
            .collect::<io::Result<_>>()?;
        let mut shard_m = vec![0usize; k];
        replay_spill(self.spill.path(), m, |u, v| {
            let s = shard_of[u as usize] as usize;
            shard_spills[s].push(local_of[u as usize], local_of[v as usize]);
            shard_m[s] += 1;
        })?;
        for sp in &mut shard_spills {
            sp.seal()?;
        }
        // Members grouped by shard, ascending global id within each — the
        // local numbering assigned above, inverted via counting sort. The
        // per-node tables go before the image jobs start.
        let mut starts = Vec::with_capacity(k + 1);
        let mut off = 0u32;
        for &c in &shard_n {
            starts.push(off);
            off += c;
        }
        starts.push(off);
        let mut grouped = vec![0u32; n];
        for v in 0..n {
            grouped[(starts[shard_of[v] as usize] + local_of[v]) as usize] = v as u32;
        }
        drop((shard_of, local_of));
        // The image jobs: job `s < k` writes shard `s`; job `k` hashes the
        // monolithic payload from the global spill. With one shard there
        // is no job `k`: the global image *is* the shard image (identity
        // node mapping). Peak scratch is the monolithic 2m-word slab plus
        // the slabs of the shard jobs in flight. The monolithic slab is
        // allocated here, on the calling thread, so no worker reserves an
        // allocator arena for it.
        let hash_job = k != 1;
        let mono_slab = Mutex::new(if hash_job { vec![0u32; 2 * m] } else { Vec::new() });
        let run = |j: usize| -> io::Result<u64> {
            if j == k {
                let mut fnv = Fnv::new();
                let slab =
                    &mut *mono_slab.lock().expect("slab lock poisoned: the hash job panicked");
                emit_spill_payload(&self.degrees, self.spill.path(), slab, |w| {
                    fnv.write(&w.to_le_bytes());
                })?;
                return Ok(fnv.finish());
            }
            let degrees = &shard_degrees[j];
            let max_degree = degrees.iter().copied().max().unwrap_or(0);
            let fields = [shard_n[j], shard_m[j] as u32, max_degree, 0];
            let mut slab = vec![0u32; 2 * shard_m[j]];
            let file = shard_file(j);
            LCLG.write(&self.tmp_dir.join(&file), fields, |body| {
                emit_spill_payload(degrees, shard_spills[j].path(), &mut slab, |w| body.word(w))
            })
            .map_err(|e| io::Error::new(e.kind(), format!("{file}: {e}")))
        };
        // Longest first by payload words, each claimed by whichever worker
        // is free: the monolithic job, as long as all shards together,
        // runs beside the shards instead of ahead of half of them.
        let words = |j: usize| {
            if j < k {
                shard_n[j] as usize + 10 * shard_m[j]
            } else {
                n + 10 * m
            }
        };
        let mut order: Vec<usize> = (0..k + usize::from(hash_job)).collect();
        order.sort_by_key(|&j| (Reverse(words(j)), j));
        let next = AtomicUsize::new(0);
        // Every item claims jobs until none is left, so at most as many
        // jobs run at once as the executor runs items. The counter only
        // hands out distinct indices (`Relaxed`); results come back
        // through `map_nodes`.
        let mut done: Vec<(usize, io::Result<u64>)> = exec
            .map_nodes(order.len(), |_| {
                let mut ran = Vec::new();
                while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    ran.push((j, run(j)));
                }
                ran
            })
            .into_iter()
            .flatten()
            .collect();
        // Each job ran once: in job order, the first error is the one a
        // one-by-one writer meets.
        done.sort_by_key(|&(j, _)| j);
        let hashes: Vec<u64> = done.into_iter().map(|(_, r)| r).collect::<io::Result<_>>()?;
        let graph_hash = if hash_job { hashes[k] } else { hashes[0] };
        let shards: Vec<ShardMeta> = (0..k)
            .map(|s| ShardMeta {
                file: shard_file(s),
                n: shard_n[s] as usize,
                m: shard_m[s],
                hash: hashes[s],
            })
            .collect();
        for sp in &mut shard_spills {
            sp.remove();
        }
        self.spill.remove();
        // Body: the k+1 shard offsets, then the grouped global ids.
        let members_hash =
            LCLM.write(&self.tmp_dir.join(MEMBERS), [k as u32, n as u32], |body| {
                starts.iter().chain(&grouped).for_each(|&w| body.word(w));
                Ok(())
            })?;
        let max_degree = self.degrees.iter().copied().max().unwrap_or(0) as usize;
        write_manifest(
            &self.tmp_dir.join(MANIFEST),
            n,
            m,
            max_degree,
            graph_hash,
            members_hash,
            &shards,
        )?;
        sync_dir(&self.tmp_dir)?;
        // A concurrent writer may have published first (or the target is
        // in the way): keep whatever store is there. `Drop` removes our
        // scratch either way.
        if std::fs::rename(&self.tmp_dir, &self.dir).is_err() && !self.dir.join(MANIFEST).is_file()
        {
            return Err(invalid(format!("cannot publish store at {}", self.dir.display())));
        }
        sync_dir(parent_dir(&self.dir))?;
        Ok(ShardStoreSummary { n, m, max_degree, shards: k, graph_hash })
    }
}

/// The image file name of shard `s`.
fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.lclg")
}

impl GraphSink for ShardedSnapshotWriter {
    fn add_nodes(&mut self, count: usize) {
        let n = self.degrees.len() + count;
        assert!(u32::try_from(n).is_ok(), "node count exceeds u32");
        let first = self.degrees.len() as u32;
        self.degrees.resize(n, 0);
        self.parent.extend(first..n as u32);
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.degrees.len(), "endpoint {u:?} out of range");
        assert!(v.index() < self.degrees.len(), "endpoint {v:?} out of range");
        assert!(u32::try_from(2 * (self.m + 1)).is_ok(), "edge count exceeds u32");
        self.degrees[u.index()] += 1;
        self.degrees[v.index()] += 1;
        self.m += 1;
        let (ru, rv) = (self.find(u.0), self.find(v.0));
        if ru != rv {
            // Attach the larger root id under the smaller: component
            // representatives stay minimal, numbering stays stable.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            self.parent[hi as usize] = lo;
        }
        self.spill.push(u.0, v.0);
    }
}

impl Drop for ShardedSnapshotWriter {
    /// Removes the scratch directory, which only exists when the writer
    /// was abandoned or failed before its publishing rename.
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.tmp_dir).ok();
    }
}

/// Groups components into at most `max_shards` shards: identity while the
/// component count fits, otherwise LPT (largest first into the currently
/// lightest shard — deterministic, ties to the lowest shard id).
fn assign_shards(comp_sizes: &[u32], max_shards: usize) -> Vec<u32> {
    let k_comps = comp_sizes.len();
    if k_comps <= max_shards {
        return (0..k_comps as u32).collect();
    }
    let mut order: Vec<usize> = (0..k_comps).collect();
    order.sort_by_key(|&c| (Reverse(comp_sizes[c]), c));
    let mut load = vec![0u64; max_shards];
    let mut shard_of = vec![0u32; k_comps];
    for c in order {
        let s = (0..max_shards).min_by_key(|&s| (load[s], s)).expect("max_shards >= 1");
        shard_of[c] = s as u32;
        load[s] += u64::from(comp_sizes[c]);
    }
    shard_of
}

/// Canonical manifest serialization. The self hash is FNV-1a over the
/// exact file bytes with the fixed-width `manifest_hash` value zeroed, so
/// any flipped byte anywhere in the manifest is detected.
fn manifest_json(
    n: usize,
    m: usize,
    max_degree: usize,
    graph_hash: u64,
    members_hash: u64,
    shards: &[ShardMeta],
    self_hash: &str,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"n\": {n},\n"));
    s.push_str(&format!("  \"m\": {m},\n"));
    s.push_str(&format!("  \"max_degree\": {max_degree},\n"));
    s.push_str(&format!("  \"graph_hash\": \"{graph_hash:016x}\",\n"));
    s.push_str(&format!(
        "  \"members\": {{\"file\": \"{MEMBERS}\", \"hash\": \"{members_hash:016x}\"}},\n"
    ));
    s.push_str("  \"shards\": [\n");
    for (i, sh) in shards.iter().enumerate() {
        let comma = if i + 1 < shards.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"n\": {}, \"m\": {}, \"hash\": \"{:016x}\"}}{comma}\n",
            sh.file, sh.n, sh.m, sh.hash
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"manifest_hash\": \"{self_hash}\"\n"));
    s.push('}');
    s
}

fn write_manifest(
    path: &Path,
    n: usize,
    m: usize,
    max_degree: usize,
    graph_hash: u64,
    members_hash: u64,
    shards: &[ShardMeta],
) -> io::Result<()> {
    let zeroed = manifest_json(n, m, max_degree, graph_hash, members_hash, shards, ZERO_HASH);
    let hash = format!("{:016x}", Fnv::of(zeroed.as_bytes()));
    let text = manifest_json(n, m, max_degree, graph_hash, members_hash, shards, &hash);
    publish(path, |file| file.write_all(text.as_bytes()))
}

/// A validated, lazily-loading view of a published sharded store.
///
/// Opening validates the manifest self hash, the members table (hash plus
/// exact-partition check), and every shard image's *header* against the
/// manifest and the members table — so missing, swapped or miscounted
/// shards are rejected up front — while shard payloads are only read by
/// [`ShardedSnapshot::load_shard`].
#[derive(Debug)]
pub struct ShardedSnapshot {
    dir: PathBuf,
    n: usize,
    m: usize,
    max_degree: usize,
    graph_hash: u64,
    manifest_hash: String,
    shards: Vec<ShardMeta>,
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl ShardedSnapshot {
    /// Opens and validates a store directory.
    ///
    /// # Errors
    ///
    /// I/O errors reading the files, and `InvalidData` when the manifest
    /// self hash disagrees, a shard image is missing or its header
    /// disagrees with the manifest or the members table, the shard headers
    /// do not add up to the manifest's `m` and maximum degree, or the
    /// members table is corrupt or not an exact partition of the global
    /// node ids.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ShardedSnapshot> {
        let dir = dir.into();
        let raw = std::fs::read_to_string(dir.join(MANIFEST))?;
        let (stored_hash, zeroed) = split_manifest_hash(&raw)?;
        let computed = format!("{:016x}", Fnv::of(zeroed.as_bytes()));
        if computed != stored_hash {
            return Err(invalid(format!(
                "manifest hash mismatch: stored {stored_hash}, computed {computed}"
            )));
        }
        // The vendored serde shim deserializes into concrete types; a
        // clone-through wrapper recovers the raw value tree.
        struct RawValue(serde::Value);
        impl serde::Deserialize for RawValue {
            fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
                Ok(RawValue(v.clone()))
            }
        }
        let v: serde::Value = serde_json::from_str::<RawValue>(&raw)
            .map_err(|e| invalid(format!("manifest parse: {e}")))?
            .0;
        let bad = |what: &str| invalid(format!("manifest: {what}"));
        let uint = |v: &serde::Value, key: &str| -> io::Result<u64> {
            match v.field(key) {
                Ok(serde::Value::UInt(x)) => Ok(*x),
                _ => Err(bad(&format!("missing numeric field {key}"))),
            }
        };
        let hex = |v: &serde::Value, key: &str| -> io::Result<u64> {
            match v.field(key) {
                Ok(serde::Value::Str(s)) => {
                    u64::from_str_radix(s, 16).map_err(|e| bad(&format!("bad hash {key}: {e}")))
                }
                _ => Err(bad(&format!("missing hash field {key}"))),
            }
        };
        if uint(&v, "version")? != 1 {
            return Err(bad("unsupported manifest version"));
        }
        let n = uint(&v, "n")? as usize;
        let m = uint(&v, "m")? as usize;
        let max_degree = uint(&v, "max_degree")? as usize;
        let graph_hash = hex(&v, "graph_hash")?;
        let members_meta = v.field("members").map_err(|_| bad("missing members"))?;
        let members_hash = hex(members_meta, "hash")?;
        let shards_json = match v.field("shards") {
            Ok(serde::Value::Seq(items)) => items,
            _ => return Err(bad("missing shards")),
        };
        let mut shards = Vec::with_capacity(shards_json.len());
        for sh in shards_json {
            let file = match sh.field("file") {
                Ok(serde::Value::Str(s)) => s.clone(),
                _ => return Err(bad("shard entry missing file")),
            };
            let sn = uint(sh, "n")? as usize;
            let sm = uint(sh, "m")? as usize;
            let hash = hex(sh, "hash")?;
            shards.push(ShardMeta { file, n: sn, m: sm, hash });
        }
        // Every shard image must exist and agree with the manifest and the
        // members table — header-only reads, constant time per shard — and
        // the headers must add up to the manifest's `m` and `Δ` (the Δ
        // every part announces).
        let (offsets, members) = read_members(&dir.join(MEMBERS), shards.len(), n, members_hash)?;
        let (mut m_sum, mut max_shard_degree) = (0, 0);
        for (s, sh) in shards.iter().enumerate() {
            let h = snapshot_header(&dir.join(&sh.file))
                .map_err(|e| invalid(format!("shard {}: {e}", sh.file)))?;
            let listed = (offsets[s + 1] - offsets[s]) as usize;
            if h.n != sh.n || h.m != sh.m || h.hash != sh.hash || listed != sh.n {
                return Err(invalid(format!(
                    "shard {} header disagrees with manifest ({} members listed)",
                    sh.file, listed
                )));
            }
            m_sum += h.m;
            max_shard_degree = max_shard_degree.max(h.max_degree);
        }
        if m_sum != m || max_shard_degree != max_degree {
            return Err(invalid(format!(
                "shard headers sum to m={m_sum} with max degree {max_shard_degree}, \
                 manifest says m={m} and {max_degree}"
            )));
        }
        Ok(ShardedSnapshot {
            dir,
            n,
            m,
            max_degree,
            graph_hash,
            manifest_hash: stored_hash.to_string(),
            shards,
            offsets,
            members,
        })
    }

    /// Global node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Global edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Global maximum degree.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Content hash of the monolithic frozen image of the same graph —
    /// equal to [`Graph::content_hash`] of the unsharded instance.
    #[must_use]
    pub fn graph_hash(&self) -> u64 {
        self.graph_hash
    }

    /// The manifest's own content hash (16 hex digits).
    #[must_use]
    pub fn manifest_hash(&self) -> &str {
        &self.manifest_hash
    }

    /// Number of shard images.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Manifest entry of shard `s`.
    #[must_use]
    pub fn shard_meta(&self, s: usize) -> &ShardMeta {
        &self.shards[s]
    }

    /// Global node ids of shard `s`, in shard-local id order (ascending
    /// global id).
    #[must_use]
    pub fn members(&self, s: usize) -> &[u32] {
        &self.members[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Maps shard `s`'s image into memory as a [`Graph`] — only this
    /// shard's bytes, fully validated by [`Graph::load_frozen`].
    ///
    /// # Errors
    ///
    /// I/O and `InvalidData` errors from the snapshot loader.
    pub fn load_shard(&self, s: usize) -> io::Result<Graph> {
        Graph::load_frozen(&self.dir.join(&self.shards[s].file))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn split_manifest_hash(raw: &str) -> io::Result<(&str, String)> {
    let key = "\"manifest_hash\": \"";
    let at = raw.rfind(key).ok_or_else(|| invalid("manifest missing manifest_hash".to_string()))?;
    let start = at + key.len();
    let end = start + 16;
    if raw.len() < end {
        return Err(invalid("manifest truncated in manifest_hash".to_string()));
    }
    let stored = &raw[start..end];
    if !stored.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(invalid(format!("malformed manifest_hash {stored:?}")));
    }
    let zeroed = format!("{}{}{}", &raw[..start], ZERO_HASH, &raw[end..]);
    Ok((stored, zeroed))
}

fn read_members(
    path: &Path,
    k: usize,
    n: usize,
    expect_hash: u64,
) -> io::Result<(Vec<u32>, Vec<u32>)> {
    let bytes = std::fs::read(path)?;
    let ([file_k, file_n], hash, body) = LCLM.read(&bytes)?;
    if (file_k as usize, file_n as usize) != (k, n) {
        return Err(invalid("members table shape disagrees with manifest".to_string()));
    }
    if hash != expect_hash {
        return Err(invalid("members table hash disagrees with manifest".to_string()));
    }
    if body.len() != 4 * (k + 1 + n) {
        return Err(invalid("members table length disagrees with manifest".to_string()));
    }
    let offsets: Vec<u32> = le_words(body).take(k + 1).collect();
    if offsets[k] as usize != n || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("members offsets malformed".to_string()));
    }
    let members: Vec<u32> = le_words(body).skip(k + 1).collect();
    let mut seen = vec![false; n];
    for &g in &members {
        if g as usize >= n || seen[g as usize] {
            return Err(invalid("members table is not a partition of the node ids".to_string()));
        }
        seen[g as usize] = true;
    }
    Ok((offsets, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::fs;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lclg-store-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        d
    }

    fn publish(g: &Graph, dir: &Path, max_shards: usize) -> ShardStoreSummary {
        let mut w = ShardedSnapshotWriter::create(dir, max_shards).unwrap();
        g.stream_into(&mut w);
        w.finish().unwrap()
    }

    /// The shard a global node belongs to, per the members table.
    fn shard_of(snap: &ShardedSnapshot, v: u32) -> (usize, u32) {
        for s in 0..snap.shard_count() {
            if let Ok(i) = snap.members(s).binary_search(&v) {
                return (s, i as u32);
            }
        }
        panic!("node {v} in no shard");
    }

    /// Rebuilds every shard from the original graph by the splitter's
    /// spec (global edge order, ascending-global-id local numbering) and
    /// checks the stored image matches exactly.
    fn check_shards_against(g: &Graph, snap: &ShardedSnapshot) {
        assert_eq!(snap.node_count(), g.node_count());
        assert_eq!(snap.edge_count(), g.edge_count());
        assert_eq!(snap.max_degree(), g.max_degree());
        assert_eq!(snap.graph_hash(), g.content_hash());
        let mut expected: Vec<Graph> = (0..snap.shard_count())
            .map(|s| {
                let mut sub = Graph::new();
                sub.add_nodes(snap.members(s).len());
                sub
            })
            .collect();
        for e in g.edges() {
            let [u, v] = g.endpoints(e);
            let (s, lu) = shard_of(snap, u.0);
            let (s2, lv) = shard_of(snap, v.0);
            assert_eq!(s, s2, "edge {u:?}-{v:?} crosses shards");
            expected[s].add_edge(NodeId(lu), NodeId(lv));
        }
        for (s, expect) in expected.iter().enumerate() {
            let loaded = snap.load_shard(s).unwrap();
            assert_eq!(&loaded, expect, "shard {s}");
            assert_eq!(loaded.content_hash(), snap.shard_meta(s).hash);
            assert_eq!(snap.shard_meta(s).n, loaded.node_count());
            assert_eq!(snap.shard_meta(s).m, loaded.edge_count());
        }
    }

    #[test]
    fn one_shard_per_component_with_stable_numbering() {
        let dir = tempdir("comp");
        let g = gen::disjoint_cycles(4, 7); // 4 components of 7 nodes
        let summary = publish(&g, &dir, DEFAULT_MAX_SHARDS);
        assert_eq!(summary.shards, 4);
        assert_eq!(summary.graph_hash, g.content_hash());
        let snap = ShardedSnapshot::open(&dir).unwrap();
        // Shards are numbered by smallest member: cycle i holds nodes 7i…
        for s in 0..4 {
            assert_eq!(snap.members(s)[0], 7 * s as u32);
        }
        check_shards_against(&g, &snap);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connected_graph_is_one_shard_with_the_monolithic_hash() {
        let dir = tempdir("conn");
        let g = gen::grid(6, 5);
        let summary = publish(&g, &dir, DEFAULT_MAX_SHARDS);
        assert_eq!(summary.shards, 1);
        let snap = ShardedSnapshot::open(&dir).unwrap();
        check_shards_against(&g, &snap);
        // Single shard: the image is the monolithic frozen image.
        assert_eq!(snap.load_shard(0).unwrap(), g);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn component_groups_respect_the_shard_cap() {
        let dir = tempdir("cap");
        let g = gen::disjoint_cycles(5, 4); // 5 components, cap at 2
        let summary = publish(&g, &dir, 2);
        assert_eq!(summary.shards, 2);
        let snap = ShardedSnapshot::open(&dir).unwrap();
        check_shards_against(&g, &snap);
        // Isolated nodes (size-1 components) survive grouping too.
        let mut h = g.clone();
        h.add_nodes(3);
        let dir2 = tempdir("cap-iso");
        publish(&h, &dir2, 3);
        let snap2 = ShardedSnapshot::open(&dir2).unwrap();
        check_shards_against(&h, &snap2);
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn flipped_manifest_bytes_are_rejected() {
        let dir = tempdir("flip");
        publish(&gen::disjoint_cycles(3, 5), &dir, DEFAULT_MAX_SHARDS);
        let path = dir.join(MANIFEST);
        let good = fs::read_to_string(&path).unwrap();
        // Flip one hex digit of a shard hash.
        let at = good.find("\"hash\": \"").unwrap() + "\"hash\": \"".len();
        let mut bad = good.clone().into_bytes();
        bad[at] = if bad[at] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bad).unwrap();
        let err = ShardedSnapshot::open(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest hash mismatch"), "{err}");
        fs::write(&path, good).unwrap();
        assert!(ShardedSnapshot::open(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_mismatched_shard_files_are_rejected() {
        let dir = tempdir("missing");
        publish(&gen::disjoint_cycles(3, 5), &dir, DEFAULT_MAX_SHARDS);
        let victim = dir.join("shard-0001.lclg");
        let bytes = fs::read(&victim).unwrap();
        fs::remove_file(&victim).unwrap();
        let err = ShardedSnapshot::open(&dir).unwrap_err();
        assert!(err.to_string().contains("shard-0001"), "{err}");
        // A *different* valid image in the slot is caught by the
        // header-vs-manifest cross-check.
        gen::cycle(4).freeze(&victim).unwrap();
        let err = ShardedSnapshot::open(&dir).unwrap_err();
        assert!(err.to_string().contains("disagrees with manifest"), "{err}");
        fs::write(&victim, &bytes).unwrap();
        // Payload corruption inside a shard passes open (header-only) but
        // fails the full load.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        fs::write(&victim, &corrupt).unwrap();
        let snap = ShardedSnapshot::open(&dir).unwrap();
        assert!(snap.load_shard(1).is_err());
        assert!(snap.load_shard(0).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_members_table_is_rejected() {
        let dir = tempdir("members");
        publish(&gen::disjoint_cycles(2, 6), &dir, DEFAULT_MAX_SHARDS);
        let path = dir.join(MEMBERS);
        let good = fs::read(&path).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        let err = ShardedSnapshot::open(&dir).unwrap_err();
        assert!(err.to_string().contains("members"), "{err}");
        fs::write(&path, &good).unwrap();
        assert!(ShardedSnapshot::open(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn members_and_totals_must_match_the_shard_headers() {
        let dir = tempdir("miscount");
        let mut g = gen::cycle(5);
        g.append(&gen::cycle(7));
        publish(&g, &dir, DEFAULT_MAX_SHARDS);
        let snap = ShardedSnapshot::open(&dir).unwrap();
        // Rewrites the members table and the manifest with every hash
        // re-sealed, so only the cross-checks stand in the way.
        let reseal = |offsets: [u32; 3], m: usize, max_degree: usize| {
            let members_hash = LCLM
                .write(&dir.join(MEMBERS), [2, 12], |body| {
                    offsets.iter().chain(&snap.members).for_each(|&w| body.word(w));
                    Ok(())
                })
                .unwrap();
            let (manifest, hash, shards) = (dir.join(MANIFEST), snap.graph_hash, &snap.shards);
            write_manifest(&manifest, 12, m, max_degree, hash, members_hash, shards).unwrap();
            ShardedSnapshot::open(&dir)
        };
        // Shard 0 lists six members for its five-node image: a part would
        // get one id too many.
        let err = reseal([0, 6, 12], 12, 2).unwrap_err();
        assert!(err.to_string().contains("shard-0000.lclg header disagrees"), "{err}");
        // The shard headers must add up to the manifest's m and Δ.
        let err = reseal([0, 5, 12], 13, 2).unwrap_err();
        assert!(err.to_string().contains("sum to m=12"), "{err}");
        let err = reseal([0, 5, 12], 12, 3).unwrap_err();
        assert!(err.to_string().contains("max degree 2"), "{err}");
        assert_eq!(reseal([0, 5, 12], 12, 2).unwrap().members(0).len(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_publishes_leave_no_scratch_and_keep_published_images() {
        let g = gen::disjoint_cycles(2, 5);
        let dir = tempdir("fault");
        let scratch = tmp_path(&dir);
        // Every file of a directory, or `None` when it does not exist.
        let contents = |d: &Path| -> Option<Vec<(PathBuf, Vec<u8>)>> {
            let mut files: Vec<_> = fs::read_dir(d).ok()?.map(|e| e.unwrap().path()).collect();
            files.sort();
            Some(files.into_iter().map(|f| (f.clone(), fs::read(f).unwrap())).collect())
        };
        // Block each file the store publishes with a directory, with and
        // without an older store already published at the target.
        for prior in [None, Some(gen::cycle(4))] {
            for file in ["shard-0000.lclg", "shard-0001.lclg", MEMBERS, MANIFEST] {
                fs::remove_dir_all(&dir).ok();
                if let Some(old) = &prior {
                    publish(old, &dir, DEFAULT_MAX_SHARDS);
                }
                let before = contents(&dir);
                let mut w = ShardedSnapshotWriter::create(&dir, DEFAULT_MAX_SHARDS).unwrap();
                g.stream_into(&mut w);
                fs::create_dir(scratch.join(file)).unwrap();
                assert!(w.finish().is_err(), "blocked {file}");
                assert!(!scratch.exists(), "blocked {file}: scratch (and spills) left behind");
                assert_eq!(contents(&dir), before, "blocked {file}: target changed");
                fs::remove_dir_all(&dir).ok();
                publish(&g, &dir, DEFAULT_MAX_SHARDS);
                check_shards_against(&g, &ShardedSnapshot::open(&dir).unwrap());
            }
        }
        // `freeze`: block its temp file (over an image already published
        // at the target), then the target itself.
        let image = dir.with_extension("lclg");
        for blocked in [tmp_path(&image), image.clone()] {
            fs::remove_file(&image).ok();
            if blocked != image {
                gen::cycle(4).freeze(&image).unwrap();
            }
            let before = fs::read(&image).ok();
            fs::create_dir(&blocked).unwrap();
            assert!(g.freeze(&image).is_err(), "blocked {}", blocked.display());
            assert_eq!(fs::read(&image).ok(), before, "blocked {}", blocked.display());
            fs::remove_dir(&blocked).unwrap();
            assert!(!tmp_path(&image).exists(), "temp file left behind");
            g.freeze(&image).unwrap();
            assert_eq!(Graph::load_frozen(&image).unwrap(), g);
        }
        fs::remove_file(&image).ok();
        fs::remove_dir_all(&dir).ok();
    }
}
