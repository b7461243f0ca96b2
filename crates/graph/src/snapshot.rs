//! Frozen on-disk CSR snapshots, and the hashed-container codec every
//! image this crate writes goes through.
//!
//! # Containers
//!
//! A container is `magic | version | u32 fields | FNV-1a 64 hash of the
//! body | body`, all little-endian. [`Container::write`] is the one
//! writer: it streams the body through the hash into a temp file next to
//! the target, patches the hash into the header, `fsync`s and renames, and
//! `fsync`s the directory, so a reader sees a complete image or none, and
//! a failed write leaves the target as it was and no temp file behind
//! ([`publish`], which the store manifest uses too).
//! [`Container::header`] is the one parser: length,
//! magic and version; [`Container::read`] adds the body hash check. Two
//! formats use it: `.lclg` graph images (here) and the sharded store's
//! `members.bin` (`crate::shard_store`).
//!
//! # `.lclg` layout (all fields little-endian `u32` unless noted)
//!
//! ```text
//! header   magic "LCLG" | version | n | m | max_degree | reserved (0)
//!          | content hash (u64, FNV-1a over the whole payload)
//! offsets  n+1 port offsets (prefix sums of degrees; offsets[n] = 2m)
//! slab     2m packed half-edges, node-major in port order
//! edges    2m endpoint node ids ([u, v] per edge)
//! peers    half_port, peer_node, peer_port — 2m entries each
//! ```
//!
//! The payload is the graph's *logical* packed form — exactly the layout a
//! compacted [`Graph`] holds in memory — so loading is validation plus
//! copies out of a read-only mapping (the vendored `memmap2` shim;
//! `LCL_NO_MMAP` selects a buffered read). Slack segments the incremental
//! builder leaves in the slab never reach the file, so freezing the same
//! structure always produces the same bytes and [`Graph::content_hash`] is
//! layout-independent.
//!
//! [`Graph::load_frozen`] accepts only canonical images. Beyond the hash,
//! it rebuilds the port numbering through the validation deserialization
//! runs (`Graph::from_tables`) and requires every stored word — the
//! half-edge tables the round engine routes messages through included —
//! to be exactly what that numbering derives. A fresh build is always the
//! safe fallback, and run manifests record the same hash so
//! `results verify` can pin the exact instance a measurement ran on.

use crate::graph::Graph;
use crate::ids::{HalfEdge, NodeId};
use memmap2::Mmap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A hashed container format: its magic, and `F` header fields between
/// the version and the body hash.
pub(crate) struct Container<const F: usize> {
    pub(crate) magic: &'static [u8; 4],
    /// What the format holds, for error messages.
    pub(crate) what: &'static str,
}

/// The one container version written and accepted.
const VERSION: u32 = 1;

/// `.lclg` graph images; fields `n | m | max_degree | reserved`.
pub(crate) const LCLG: Container<4> = Container { magic: b"LCLG", what: "snapshot" };

impl<const F: usize> Container<F> {
    /// magic + version + fields + hash.
    const HEADER_LEN: usize = 4 + 4 + 4 * F + 8;

    /// Publishes a container at `path` atomically ([`publish`]): `body`
    /// streams its words through the hash into the file, and the header
    /// with `fields` and the hash is patched in afterwards. Returns the
    /// body hash.
    pub(crate) fn write(
        &self,
        path: &Path,
        fields: [u32; F],
        body: impl FnOnce(&mut Body) -> io::Result<()>,
    ) -> io::Result<u64> {
        publish(path, |file| {
            file.write_all(&vec![0; Self::HEADER_LEN])?;
            let mut sink = Body {
                out: &mut *file,
                fnv: Fnv::new(),
                block: Vec::with_capacity(BLOCK),
                err: None,
            };
            body(&mut sink)?;
            sink.flush();
            if let Some(e) = sink.err.take() {
                return Err(e);
            }
            let hash = sink.fnv.finish();
            let mut header = Vec::with_capacity(Self::HEADER_LEN);
            header.extend_from_slice(self.magic);
            for w in [VERSION].iter().chain(&fields) {
                header.extend_from_slice(&w.to_le_bytes());
            }
            header.extend_from_slice(&hash.to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            Ok(hash)
        })
    }

    /// Parses the header at the front of `bytes`, which may hold just the
    /// header: checks length, magic and version, and returns the fields
    /// and the stored body hash without reading the body.
    pub(crate) fn header(&self, bytes: &[u8]) -> io::Result<([u32; F], u64)> {
        let what = self.what;
        if bytes.len() < Self::HEADER_LEN {
            return Err(invalid(format!("{what} too short: {} bytes", bytes.len())));
        }
        if &bytes[..4] != self.magic {
            return Err(invalid(format!("bad {what} magic")));
        }
        let mut words = le_words(&bytes[4..Self::HEADER_LEN - 8]);
        let version = words.next().expect("header length checked");
        if version != VERSION {
            return Err(invalid(format!("unsupported {what} version {version}")));
        }
        let fields = std::array::from_fn(|_| words.next().expect("header length checked"));
        let hash = &bytes[Self::HEADER_LEN - 8..Self::HEADER_LEN];
        Ok((fields, u64::from_le_bytes(hash.try_into().expect("8 bytes"))))
    }

    /// The full read: parses the header and checks that the body hashes
    /// to its stored value. Returns the fields, the hash and the body.
    pub(crate) fn read<'a>(&self, bytes: &'a [u8]) -> io::Result<([u32; F], u64, &'a [u8])> {
        let (fields, stored) = self.header(bytes)?;
        let body = &bytes[Self::HEADER_LEN..];
        let hash = Fnv::of(body);
        if hash != stored {
            return Err(invalid(format!(
                "{} content hash mismatch: header says {stored:#018x}, body hashes to {hash:#018x}",
                self.what
            )));
        }
        Ok((fields, hash, body))
    }
}

/// Body bytes gathered per hash step and file write.
const BLOCK: usize = 1 << 16;

/// A container body being written: words gather in a block, and every
/// full block goes through the FNV-1a hash and into the file in one call
/// each. Write errors are kept and surface when the container is sealed,
/// so payload emitters stay infallible.
pub(crate) struct Body<'a> {
    out: &'a mut File,
    fnv: Fnv,
    block: Vec<u8>,
    err: Option<io::Error>,
}

impl Body<'_> {
    pub(crate) fn word(&mut self, w: u32) {
        self.block.extend_from_slice(&w.to_le_bytes());
        if self.block.len() == BLOCK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.fnv.write(&self.block);
        if self.err.is_none() {
            self.err = self.out.write_all(&self.block).err();
        }
        self.block.clear();
    }
}

/// Publishes `path` atomically: `write` fills `<path>.tmp<pid>`
/// ([`tmp_path`]), which is `fsync`ed and renamed over `path`, and the
/// directory holding `path` is `fsync`ed so the rename itself is durable.
/// On any error before the rename the temp file is removed and `path` is
/// left as it was. The temp name is per process, so concurrent publishers
/// of one path must be separate processes.
pub(crate) fn publish<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = tmp_path(path);
    let published = File::create(&tmp).and_then(|mut file| {
        let out = write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(out)
    });
    if published.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    let out = published?;
    sync_dir(parent_dir(path))?;
    Ok(out)
}

/// `fsync`s a directory, making the renames into and out of it durable.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The directory holding `path`: its parent, or `.` for a bare name.
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// `<path>.tmp<pid>`: the per-process scratch name next to `path`, so the
/// publishing rename never crosses filesystems.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".tmp{}", std::process::id()));
    PathBuf::from(name)
}

/// The little-endian `u32` words of `bytes` (a trailing partial word is
/// ignored).
pub(crate) fn le_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
}

/// The fixed-size header of a frozen snapshot, read without touching the
/// payload tables — what `snapshot info` prints for multi-gigabyte images
/// in constant time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (currently 1).
    pub version: u32,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// FNV-1a 64 content hash of the payload, as stored in the header.
    /// **Not** re-verified against the payload here; use
    /// [`Graph::load_frozen`] for full validation.
    pub hash: u64,
}

/// Reads and validates only the 32-byte header of a frozen snapshot,
/// plus the file length it implies (one `stat`, no payload read).
///
/// # Errors
///
/// I/O errors opening the file, and `InvalidData` on a short file, wrong
/// magic, unsupported version, or a file length that disagrees with the
/// header's `n` and `m`.
pub fn snapshot_header(path: &Path) -> io::Result<SnapshotHeader> {
    const HEADER_LEN: usize = Container::<4>::HEADER_LEN;
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    file.take(HEADER_LEN as u64).read_to_end(&mut bytes)?;
    let ([n, m, max_degree, _], hash) = LCLG.header(&bytes)?;
    let [n, m, max_degree] = [n, m, max_degree].map(|w| w as usize);
    check_payload_len(len.saturating_sub(HEADER_LEN), n, m)?;
    Ok(SnapshotHeader { version: VERSION, n, m, max_degree, hash })
}

/// An `.lclg` payload holds `n + 1` offsets and `10m` words of slab,
/// endpoints and half-edge tables.
fn check_payload_len(len: usize, n: usize, m: usize) -> io::Result<()> {
    let expect = 4 * (n + 1 + 10 * m);
    if len != expect {
        return Err(invalid(format!("payload is {len} bytes, expected {expect} for n={n} m={m}")));
    }
    Ok(())
}

/// Incremental FNV-1a 64 — the same hash the scenario subsystem uses for
/// spec fingerprints, here over raw payload bytes.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `bytes` in one call.
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write(bytes);
        fnv.finish()
    }
}

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Streams every payload `u32` of `g`'s packed image, in file order, into
/// `emit`: the hash, the writer and the loader's canonical check all read
/// the image through it.
fn payload_words(g: &Graph, mut emit: impl FnMut(u32)) {
    let two_m = 2 * g.edge_count() as u32;
    let mut off = 0u32;
    for v in g.nodes() {
        emit(off);
        off += g.degree(v) as u32;
    }
    emit(two_m);
    for v in g.nodes() {
        for h in g.ports(v) {
            emit(h.index() as u32);
        }
    }
    for e in g.edges() {
        let [a, b] = g.endpoints(e);
        emit(a.0);
        emit(b.0);
    }
    for h in g.half_edges() {
        emit(g.port_of(h) as u32);
    }
    for h in g.half_edges() {
        emit(g.half_edge_peer(h).0);
    }
    for h in g.half_edges() {
        emit(g.peer_port(h) as u32);
    }
}

impl Graph {
    /// FNV-1a 64 hash of this graph's packed snapshot payload — the value
    /// [`Graph::freeze`] stores in the header. Independent of slab slack
    /// and segment placement: structurally equal graphs hash equal.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut fnv = Fnv::new();
        payload_words(self, |w| fnv.write(&w.to_le_bytes()));
        fnv.finish()
    }

    /// Writes this graph's frozen snapshot to `path` atomically (temp
    /// file, `fsync`, rename), returning the content hash recorded in the
    /// header.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or publishing the image; `path` is then left
    /// as it was.
    pub fn freeze(&self, path: &Path) -> io::Result<u64> {
        let fields = [self.node_count(), self.edge_count(), self.max_degree(), 0];
        LCLG.write(path, fields.map(|w| w as u32), |body| {
            payload_words(self, |w| body.word(w));
            Ok(())
        })
    }

    /// Loads a frozen snapshot written by [`Graph::freeze`]. The loaded
    /// graph is packed (`port_slab_len() == 2·edge_count()`), compares
    /// structurally equal to the frozen graph, and re-freezes to
    /// byte-identical output.
    ///
    /// # Errors
    ///
    /// I/O errors opening or mapping the file, and `InvalidData` when the
    /// image is malformed: wrong magic or version, nonzero reserved word,
    /// truncated payload, content hash mismatch, an inconsistent port
    /// numbering, or stored words (half-edge tables, `max_degree`) that
    /// disagree with the ones the port numbering derives.
    pub fn load_frozen(path: &Path) -> io::Result<Graph> {
        let map = Mmap::map_path(path)?;
        let ([n, m, max_degree, reserved], _, payload) = LCLG.read(&map)?;
        let (n, m) = (n as usize, m as usize);
        if reserved != 0 {
            return Err(invalid(format!("reserved header word is {reserved}, not 0")));
        }
        check_payload_len(payload.len(), n, m)?;
        let mut words = le_words(payload);
        let mut next = || words.next().expect("length checked above");
        let offsets = (0..=n).map(|_| next()).collect();
        let slab = (0..2 * m).map(|_| HalfEdge::from_index(next() as usize)).collect();
        let edges = (0..m).map(|_| [NodeId(next()), NodeId(next())]).collect();
        let g = Graph::from_tables(slab, offsets, edges).map_err(|e| invalid(e.to_string()))?;
        let mut stored = le_words(payload);
        let mut canonical = g.max_degree() == max_degree as usize;
        payload_words(&g, |w| canonical &= stored.next() == Some(w));
        if !canonical {
            return Err(invalid(
                "snapshot is not the canonical image of its port numbering: stored \
                 half-edge tables or max_degree disagree with the derived ones"
                    .to_string(),
            ));
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::fs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lclg-snapshot-{}-{name}.lclg", std::process::id()))
    }

    fn zoo() -> Vec<Graph> {
        vec![
            Graph::new(),
            gen::cycle(17),
            gen::grid(5, 7),
            gen::star(33),
            gen::caterpillar(12, 3, 5),
            gen::random_regular_multigraph(24, 3, 9).unwrap(),
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

    #[test]
    fn freeze_load_roundtrips_structurally_and_bytewise() {
        for (i, g) in zoo().into_iter().enumerate() {
            let p1 = tmp(&format!("rt-{i}-a"));
            let p2 = tmp(&format!("rt-{i}-b"));
            let hash = g.freeze(&p1).unwrap();
            assert_eq!(hash, g.content_hash());
            let back = Graph::load_frozen(&p1).unwrap();
            assert_eq!(back, g, "graph {i}");
            assert_eq!(back.max_degree(), g.max_degree());
            assert_eq!(back.port_slab_len(), 2 * back.edge_count(), "loaded graph is packed");
            // Re-freezing the loaded graph reproduces the bytes exactly.
            let hash2 = back.freeze(&p2).unwrap();
            assert_eq!(hash2, hash);
            assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap(), "graph {i}");
            fs::remove_file(&p1).ok();
            fs::remove_file(&p2).ok();
        }
    }

    #[test]
    fn content_hash_ignores_slab_slack() {
        // Incrementally built (slack + relocated segments) vs its packed
        // serde twin: same structure, same hash.
        let mut g = Graph::new();
        let hub = g.add_node();
        for _ in 0..19 {
            let leaf = g.add_node();
            g.add_edge(hub, leaf);
        }
        let packed = {
            use serde::{Deserialize, Serialize};
            Graph::from_value(&g.to_value()).unwrap()
        };
        assert!(g.port_slab_len() > 2 * g.edge_count());
        assert_eq!(g.content_hash(), packed.content_hash());
        // And a structurally different graph hashes differently.
        let mut h = g.clone();
        let v = h.add_node();
        h.add_edge(hub, v);
        assert_ne!(g.content_hash(), h.content_hash());
    }

    #[test]
    fn corrupt_header_hash_is_rejected() {
        let g = gen::cycle(9);
        let p = tmp("corrupt-hash");
        g.freeze(&p).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        bytes[24] ^= 0xFF; // first byte of the stored content hash
        fs::write(&p, &bytes).unwrap();
        let err = Graph::load_frozen(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content hash mismatch"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let g = gen::grid(4, 4);
        let p = tmp("corrupt-payload");
        g.freeze(&p).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_and_bad_magic_files_are_rejected() {
        let g = gen::cycle(5);
        let p = tmp("trunc");
        g.freeze(&p).unwrap();
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::write(&p, b"NOPE").unwrap();
        assert!(Graph::load_frozen(&p).is_err());
        fs::remove_file(&p).ok();
        assert!(Graph::load_frozen(Path::new("/definitely/not/here.lclg")).is_err());
    }

    #[test]
    fn header_probe_reads_fields_without_the_payload() {
        let g = gen::grid(6, 4);
        let p = tmp("header-probe");
        let hash = g.freeze(&p).unwrap();
        let h = snapshot_header(&p).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.n, g.node_count());
        assert_eq!(h.m, g.edge_count());
        assert_eq!(h.max_degree, g.max_degree());
        assert_eq!(h.hash, hash);
        // The probe validates magic, version and length but not the payload:
        // a payload flip passes the probe and fails the full loader.
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&p, &bytes).unwrap();
        assert_eq!(snapshot_header(&p).unwrap(), h);
        assert!(Graph::load_frozen(&p).is_err());
        // A truncated image fails the probe's length check.
        fs::write(&p, &bytes[..64]).unwrap();
        let err = snapshot_header(&p).unwrap_err();
        assert!(err.to_string().contains("payload is 32 bytes"), "{err}");
        // Corrupt headers are typed errors, not panics.
        fs::write(&p, b"NOPE").unwrap();
        assert!(snapshot_header(&p).is_err());
        fs::write(&p, &{
            let mut b = bytes.clone();
            b[5] = 9; // version → garbage
            b
        })
        .unwrap();
        let err = snapshot_header(&p).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        fs::remove_file(&p).ok();
    }

    /// Overwrites payload word `i` of a frozen image and re-seals its hash,
    /// so only the loader's structural checks stand in the way.
    fn set_word(bytes: &mut [u8], i: usize, w: u32) {
        const HEADER_LEN: usize = Container::<4>::HEADER_LEN;
        let at = HEADER_LEN + 4 * i;
        bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
        let hash = Fnv::of(&bytes[HEADER_LEN..]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&hash.to_le_bytes());
    }

    #[test]
    fn only_canonical_images_load() {
        let g = gen::cycle(5);
        let p = tmp("canonical");
        g.freeze(&p).unwrap();
        let good = fs::read(&p).unwrap();
        let rejects = |bytes: &[u8], what: &str| {
            fs::write(&p, bytes).unwrap();
            let err = Graph::load_frozen(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{err}");
        };
        // n = m = 5: half_port starts at payload word (n + 1) + 2m + 2m =
        // 26 and peer_node at 36. Put node 0's port-0 half-edge at port 7
        // of a degree-2 node, facing n3 instead of n1 — the tables the
        // round engine routes messages through.
        let mut bad = good.clone();
        set_word(&mut bad, 26, 7);
        set_word(&mut bad, 36, 3);
        rejects(&bad, "not the canonical image");
        // A nonzero reserved header word (outside the hashed body).
        let mut bad = good.clone();
        bad[20] = 1;
        rejects(&bad, "reserved");
        // Offsets that do not start at 0.
        let mut bad = good.clone();
        set_word(&mut bad, 0, 1);
        rejects(&bad, "port offsets");
        fs::write(&p, &good).unwrap();
        assert_eq!(Graph::load_frozen(&p).unwrap(), g);
        fs::remove_file(&p).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// One payload word rewritten and the hash re-sealed: the loader
        /// either rejects the image or returns a graph whose serde twin
        /// re-freezes to exactly these bytes.
        #[test]
        fn mutated_images_load_only_when_canonical(
            pick in 0usize..7,
            at in 0usize..1 << 16,
            value in 0u32..48,
        ) {
            use serde::{Deserialize, Serialize};
            let g = &zoo()[pick];
            let p = tmp(&format!("mutant-{pick}-{at}-{value}"));
            let p2 = tmp(&format!("mutant-{pick}-{at}-{value}-twin"));
            g.freeze(&p).unwrap();
            let mut bytes = fs::read(&p).unwrap();
            let words = (bytes.len() - Container::<4>::HEADER_LEN) / 4;
            set_word(&mut bytes, at % words, value);
            fs::write(&p, &bytes).unwrap();
            let loaded = Graph::load_frozen(&p);
            fs::remove_file(&p).ok();
            if let Ok(back) = loaded {
                let twin = Graph::from_value(&back.to_value()).unwrap();
                twin.freeze(&p2).unwrap();
                let refrozen = fs::read(&p2).unwrap();
                fs::remove_file(&p2).ok();
                proptest::prop_assert_eq!(refrozen, bytes);
            }
        }
    }

    #[test]
    fn loader_works_without_mmap() {
        // The byte-slice fallback must decode identically.
        let g = gen::caterpillar(9, 2, 3);
        let p = tmp("no-mmap");
        g.freeze(&p).unwrap();
        std::env::set_var("LCL_NO_MMAP", "1");
        let back = Graph::load_frozen(&p);
        std::env::remove_var("LCL_NO_MMAP");
        assert_eq!(back.unwrap(), g);
        fs::remove_file(&p).ok();
    }
}
