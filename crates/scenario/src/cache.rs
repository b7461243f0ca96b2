//! Frozen-snapshot cache for scenario instances.
//!
//! Every scenario cell deterministically maps `(family, knobs, n, seed)`
//! to a graph, so repeated sweeps over the same grid rebuild identical
//! instances from scratch — wasted work that dominates setup time for
//! huge graphs. [`SnapshotCache`] keys the frozen on-disk CSR image
//! (`Graph::freeze`) by the cell coordinates: a hit maps the file back in
//! (`Graph::load_frozen`, which accepts only the hash-checked canonical
//! image of a consistent port numbering) instead of re-running the
//! generator; a miss builds the instance and freezes it for the next run.
//! `freeze` and the sharded store both publish atomically (temp file or
//! directory, `fsync`, rename), so concurrent runs sharing a cache
//! directory never observe a half-written snapshot.
//!
//! A corrupt, truncated or non-canonical snapshot — or a store whose
//! manifest, members table and shard headers disagree — fails validation
//! and is treated as a miss (rebuilt and replaced): the cache can only
//! ever serve a bit-exact image of what was frozen. Staleness (a
//! generator whose output changed since the freeze) is outside the
//! loader's reach, but `results verify` regenerates every cell from the
//! spec and compares both rows and graph content hashes, so a stale cache
//! cannot survive verification.

use crate::spec::FamilySpec;
use lcl_bench::Parallel;
use lcl_graph::{gen::GenError, Graph, ShardedSnapshot, ShardedSnapshotWriter, DEFAULT_MAX_SHARDS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A directory of frozen scenario instances, keyed by cell coordinates.
#[derive(Debug)]
pub struct SnapshotCache {
    dir: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SnapshotCache {
    /// Opens (creating if needed) a snapshot cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotCache { dir, hits: AtomicUsize::new(0), misses: AtomicUsize::new(0) })
    }

    /// The snapshot file for a cell: `<family-slug>-n<k>-s<seed>.lclg`.
    /// The slug encodes the family knobs, so distinct specs never collide.
    #[must_use]
    pub fn path_for(&self, family: &FamilySpec, n: usize, seed: u64) -> PathBuf {
        self.dir.join(format!("{}-n{n}-s{seed}.lclg", family.slug()))
    }

    /// Loads the cell's frozen instance, or builds and freezes it on a
    /// miss. The returned graph is bit-identical either way: the frozen
    /// image is written from the built graph and its loader validates the
    /// content hash.
    ///
    /// # Errors
    ///
    /// Generator errors ([`GenError`]) on a miss. Freeze I/O failures are
    /// non-fatal (the run proceeds on the built graph); load failures of
    /// an existing file demote to a rebuild.
    pub fn load_or_build(
        &self,
        family: &FamilySpec,
        n: usize,
        seed: u64,
    ) -> Result<Graph, GenError> {
        let path = self.path_for(family, n, seed);
        if let Ok(g) = Graph::load_frozen(&path) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(g);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let g = family.build(n, seed)?;
        // Distinct cells use distinct keys, so `freeze`'s per-process temp
        // name suffices; a failed freeze only costs the next run a rebuild.
        g.freeze(&path).ok();
        Ok(g)
    }

    /// The sharded-snapshot directory for a cell:
    /// `<family-slug>-n<k>-s<seed>.shards/` (a `shards.json` manifest plus
    /// per-component `.lclg` images), next to the monolithic `.lclg` keys.
    #[must_use]
    pub fn sharded_dir_for(&self, family: &FamilySpec, n: usize, seed: u64) -> PathBuf {
        self.dir.join(format!("{}-n{n}-s{seed}.shards", family.slug()))
    }

    /// Opens the cell's published sharded snapshot, or streams the
    /// generator into a fresh one on a miss — the instance is never
    /// materialized in memory on either path, which is the whole point for
    /// huge cells. The writer runs its image jobs across the worker pool
    /// (`LCL_POOL_THREADS=1` keeps them on the calling thread); the bytes
    /// are the same at any pool width. A directory that fails manifest
    /// validation is treated as a miss: removed and rebuilt. Hits and
    /// misses fold into the same counters as the monolithic cache, so
    /// `run_spec`'s single summary line covers both.
    ///
    /// # Errors
    ///
    /// Generator refusals and I/O failures, flattened to strings (the
    /// caller attributes them to the cell).
    pub fn load_or_build_sharded(
        &self,
        family: &FamilySpec,
        n: usize,
        seed: u64,
    ) -> Result<ShardedSnapshot, String> {
        let dir = self.sharded_dir_for(family, n, seed);
        if dir.is_dir() {
            if let Ok(s) = ShardedSnapshot::open(&dir) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(s);
            }
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear corrupt shard dir {}: {e}", dir.display()))?;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut w = ShardedSnapshotWriter::create(&dir, DEFAULT_MAX_SHARDS)
            .map_err(|e| format!("cannot start sharded snapshot {}: {e}", dir.display()))?;
        family.build_into(n, seed, &mut w).map_err(|e| e.to_string())?;
        w.finish_with(&Parallel)
            .map_err(|e| format!("cannot publish sharded snapshot {}: {e}", dir.display()))?;
        ShardedSnapshot::open(&dir)
            .map_err(|e| format!("freshly published {} fails to open: {e}", dir.display()))
    }

    /// `(hits, misses)` so far.
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcl-snapcache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn miss_then_hit_yields_the_same_graph() {
        let dir = tempdir("hit");
        let cache = SnapshotCache::open(&dir).unwrap();
        let fam = FamilySpec::Torus;
        let built = cache.load_or_build(&fam, 25, 3).unwrap();
        assert_eq!(cache.stats(), (0, 1));
        assert!(cache.path_for(&fam, 25, 3).is_file());
        let loaded = cache.load_or_build(&fam, 25, 3).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(built, loaded);
        assert_eq!(built.content_hash(), loaded.content_hash());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_cells_use_distinct_keys() {
        let dir = tempdir("keys");
        let cache = SnapshotCache::open(&dir).unwrap();
        let a = cache.path_for(&FamilySpec::Torus, 25, 3);
        assert_ne!(a, cache.path_for(&FamilySpec::Torus, 25, 4));
        assert_ne!(a, cache.path_for(&FamilySpec::Torus, 36, 3));
        assert_ne!(a, cache.path_for(&FamilySpec::Caterpillar { leaf_frac: 0.4 }, 25, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_miss_then_hit_shares_the_counters() {
        let dir = tempdir("sharded");
        let cache = SnapshotCache::open(&dir).unwrap();
        // Disconnected pods: 4 pods of 4, no cross links → 4 shards.
        let fam = FamilySpec::Pods { pod_size: 4, cross_links: 0 };
        let built = cache.load_or_build_sharded(&fam, 16, 3).unwrap();
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(built.shard_count(), 4);
        assert_eq!(built.node_count(), 16);
        let reopened = cache.load_or_build_sharded(&fam, 16, 3).unwrap();
        assert_eq!(cache.stats(), (1, 1), "second open must be a hit");
        assert_eq!(reopened.graph_hash(), built.graph_hash());
        // The store holds exactly the instance build() would produce.
        assert_eq!(built.graph_hash(), fam.build(16, 3).unwrap().content_hash());
        // A trashed manifest demotes to a rebuild, not a hit.
        let manifest = cache.sharded_dir_for(&fam, 16, 3).join("shards.json");
        std::fs::write(&manifest, b"{}").unwrap();
        let rebuilt = cache.load_or_build_sharded(&fam, 16, 3).unwrap();
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(rebuilt.graph_hash(), built.graph_hash());
        // So does a members table that gives shard 0 five members for its
        // four-node image, with every hash re-sealed.
        miscount_first_shard(&cache.sharded_dir_for(&fam, 16, 3));
        let rebuilt = cache.load_or_build_sharded(&fam, 16, 3).unwrap();
        assert_eq!(cache.stats(), (1, 3), "a miscounted store must not count as a hit");
        assert_eq!(rebuilt.members(0).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
    }

    /// Bumps `offsets[1]` of a store's `members.bin` and re-seals its hash,
    /// the manifest's record of it, and the manifest's own hash.
    fn miscount_first_shard(store: &Path) {
        let members = store.join("members.bin");
        let mut bytes = std::fs::read(&members).unwrap();
        // Header: magic | version | k | n | body hash (u64, bytes 16..24);
        // body: k+1 offsets (offsets[1] at bytes 28..32), then the ids.
        let old_hash = format!("{:016x}", fnv(&bytes[24..]));
        let offset1 = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        bytes[28..32].copy_from_slice(&(offset1 + 1).to_le_bytes());
        let hash = fnv(&bytes[24..]);
        bytes[16..24].copy_from_slice(&hash.to_le_bytes());
        std::fs::write(&members, &bytes).unwrap();
        let manifest = store.join("shards.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let text = text.replace(&old_hash, &format!("{hash:016x}"));
        let key = "\"manifest_hash\": \"";
        let at = text.rfind(key).unwrap() + key.len();
        let zeroed = format!("{}{}{}", &text[..at], "0".repeat(16), &text[at + 16..]);
        let sealed = format!("{}{:016x}{}", &text[..at], fnv(zeroed.as_bytes()), &text[at + 16..]);
        std::fs::write(&manifest, sealed).unwrap();
    }

    #[test]
    fn corrupt_snapshot_demotes_to_rebuild() {
        let dir = tempdir("corrupt");
        let cache = SnapshotCache::open(&dir).unwrap();
        let fam = FamilySpec::Hypercube;
        let fresh = cache.load_or_build(&fam, 16, 1).unwrap();
        let path = cache.path_for(&fam, 16, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rebuilt = cache.load_or_build(&fam, 16, 1).unwrap();
        assert_eq!(cache.stats(), (0, 2), "corrupt file must not count as a hit");
        assert_eq!(fresh, rebuilt);
        // The rebuild replaced the corrupt image with a valid one.
        assert_eq!(Graph::load_frozen(&path).unwrap(), fresh);
        std::fs::remove_dir_all(&dir).ok();
    }
}
