//! Part-wise execution is invisible in the output: a cell measured from
//! its per-component sharded snapshot, or in memory component by
//! component (`--shard`), produces rows **byte-identical** to the plain
//! in-memory path on the unsharded graph, both per cell (reference
//! reassembly) and end-to-end through `run_spec`'s mixed huge+small part
//! dispatch — for every algorithm, on instances whose components differ
//! in size, degree, and id range.
//!
//! The store itself is the same at every executor width: its writer runs
//! the shard images and the monolithic hash as jobs, and every file, hash
//! and failure must be the one the calling-thread writer produces. CI's
//! determinism job re-runs this suite with `LCL_POOL_THREADS` pinned.

use lcl_bench::{BatchRunner, Cell, CliOpts, EngineExec, Parallel};
use lcl_graph::{
    gen, Graph, NodeExecutor, Sequential, ShardedSnapshot, ShardedSnapshotWriter,
    DEFAULT_MAX_SHARDS,
};
use lcl_scenario::{
    run_spec, try_measure_cell_full, try_measure_cell_store, AlgoSpec, FamilySpec, MeasureOpts,
    ScenarioSpec, SnapshotCache,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcl-store-equiv-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const ALGOS: [AlgoSpec; 3] = [AlgoSpec::Luby, AlgoSpec::Matching, AlgoSpec::Linial];

/// The reference reassembly: per cell, all shards sequentially, against
/// the whole-graph measurement — across disconnected (many shards) and
/// connected (one shard) pods instances and sparse `G(n, m)` (components
/// of every size), several seeds, with certify on.
#[test]
fn store_rows_match_the_in_memory_rows_per_cell() {
    let dir = tempdir("cell");
    let cache = SnapshotCache::open(&dir).unwrap();
    let m = MeasureOpts { certify: true, ..MeasureOpts::default() };
    let sharded = MeasureOpts { certify: true, shard: true, ..MeasureOpts::default() };
    for family in [
        FamilySpec::Pods { pod_size: 4, cross_links: 0 }, // 12 components
        FamilySpec::Pods { pod_size: 4, cross_links: 2 }, // connected ring
        FamilySpec::Pods { pod_size: 6, cross_links: 1 },
        FamilySpec::Gnm { avg_deg: 1.5 }, // below the giant-component threshold
    ] {
        for seed in [1, 2, 7] {
            let cell = Cell { family: family.clone(), n: 48, seed };
            let snap = cache.load_or_build_sharded(&family, 48, seed).unwrap();
            let plain = try_measure_cell_full(&cell, &ALGOS, EngineExec::Sequential, &m).unwrap();
            let store =
                try_measure_cell_store(&cell, &snap, &ALGOS, EngineExec::Sequential, &m).unwrap();
            let split =
                try_measure_cell_full(&cell, &ALGOS, EngineExec::Parallel, &sharded).unwrap();
            for (mode, out) in [("store", &store), ("--shard", &split)] {
                assert_eq!(plain.graph_hash, out.graph_hash, "{} s{seed}", family.slug());
                assert_eq!(
                    format!("{:?}", plain.rows),
                    format!("{:?}", out.rows),
                    "{} seed {seed}: {mode} rows diverge from the in-memory rows",
                    family.slug()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end: a mixed grid ("huge" disconnected pods and sparse
/// `G(n, m)` cells above the lowered threshold + small torus cells)
/// through `run_spec`'s shared scheduler pool renders byte-identically to
/// the plain `--seq` run on unsharded graphs, pooled and sequential alike,
/// and so does the in-memory `--shard` run.
#[test]
fn run_spec_store_dispatch_is_byte_identical_to_seq() {
    let snap_dir = tempdir("spec-snaps");
    let out_dir = tempdir("spec-out");
    let spec = ScenarioSpec {
        name: "store-equiv".into(),
        description: "store dispatch equivalence fixture".into(),
        families: vec![
            FamilySpec::Pods { pod_size: 4, cross_links: 0 },
            FamilySpec::Torus,
            FamilySpec::Gnm { avg_deg: 1.5 },
        ],
        sizes: vec![64],
        seeds: vec![1, 2],
        algos: ALGOS.to_vec(),
    };
    let args = |extra: &[&str]| -> CliOpts {
        let mut v =
            vec!["--no-persist".to_string(), "--out".to_string(), out_dir.display().to_string()];
        v.extend(extra.iter().map(ToString::to_string));
        CliOpts::from_args(v)
    };
    // Reference: plain sequential, no snapshots, no sharding.
    let (reference, fails) = run_spec(&spec, &args(&["--seq"]));
    assert!(fails.is_empty(), "{fails:?}");
    // In memory, component by component.
    let (split, fails) = run_spec(&spec, &args(&["--shard"]));
    assert!(fails.is_empty(), "{fails:?}");
    assert_eq!(reference.render(true), split.render(true));
    let snap = snap_dir.display().to_string();
    let store_flags = ["--shard", "--snapshot-dir", snap.as_str(), "--huge-threshold", "32"];
    // Store-backed, sequential (items in canonical order, one thread).
    let (seq_store, fails) = run_spec(&spec, &args(&[&["--seq"], &store_flags[..]].concat()));
    assert!(fails.is_empty(), "{fails:?}");
    assert_eq!(reference.render(true), seq_store.render(true));
    // Store-backed, pooled + scheduled: shards of the pods cells and the
    // whole torus cells share one scheduler pool.
    let (pooled_store, fails) = run_spec(&spec, &args(&store_flags));
    assert!(fails.is_empty(), "{fails:?}");
    assert_eq!(reference.render(true), pooled_store.render(true));
    assert_eq!(reference.render(false), pooled_store.render(false));
    // The second pooled run hits the published stores instead of
    // rebuilding them.
    let (again, fails) = run_spec(&spec, &args(&store_flags));
    assert!(fails.is_empty(), "{fails:?}");
    assert_eq!(reference.render(true), again.render(true));
    // A second runner construction still honors --seq parity.
    let _ = BatchRunner::from_opts(&args(&["--seq"]));
    std::fs::remove_dir_all(&snap_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The widths the store writer is pinned at: the calling thread, two and
/// four scoped threads, and the worker pool (as wide as
/// `LCL_POOL_THREADS` or the host make it).
#[derive(Clone, Copy, Debug)]
enum Width {
    Calling,
    Threads(usize),
    Pool,
}

const WIDTHS: [Width; 4] = [Width::Calling, Width::Threads(2), Width::Threads(4), Width::Pool];

impl NodeExecutor for Width {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match *self {
            Width::Calling => Sequential.map_nodes(len, f),
            Width::Pool => Parallel.map_nodes(len, f),
            // Contiguous chunks, one per thread, like the pool's split.
            Width::Threads(w) => std::thread::scope(|scope| {
                let chunk = len.div_ceil(w).max(1);
                let f = &f;
                let handles: Vec<_> = (0..len)
                    .step_by(chunk)
                    .map(|lo| scope.spawn(move || (lo..len.min(lo + chunk)).map(f).collect()))
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap_or_else(|_| Vec::new())).collect()
            }),
        }
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        Sequential.update_nodes(items, f);
    }
}

/// Streams `g` into a store at `dir` through `exec`.
fn publish_graph(g: &Graph, dir: &Path, max_shards: usize, exec: Width) -> io::Result<u64> {
    let mut w = ShardedSnapshotWriter::create(dir, max_shards)?;
    g.stream_into(&mut w);
    w.finish_with(&exec).map(|s| s.graph_hash)
}

/// Every file of a directory with its bytes, or `None` when it does not
/// exist.
fn contents(dir: &Path) -> Option<Vec<(PathBuf, Vec<u8>)>> {
    let mut files: Vec<_> = fs::read_dir(dir).ok()?.map(|e| e.unwrap().path()).collect();
    files.sort();
    Some(files.into_iter().map(|f| (f.clone(), fs::read(f).unwrap())).collect())
}

/// Self-loops and parallel edges next to an isolated node, plus a random
/// 3-regular multigraph.
fn multigraph() -> Graph {
    let mut g = Graph::new();
    let a = g.add_node();
    let b = g.add_node();
    g.add_node();
    g.add_edge(a, a);
    g.add_edge(a, b);
    g.add_edge(a, b);
    g.append(&gen::random_regular_multigraph(24, 3, 9).unwrap());
    g
}

/// The store's bytes at every width, pinned to the values the
/// calling-thread writer published before it ran its images as jobs: the
/// manifest hash covers every shard's hash and `members.bin`'s, each
/// shard's payload is checked against its hash on load, and every file
/// must equal the calling-thread store's byte for byte.
#[test]
fn store_bytes_are_pinned_at_every_width() {
    let root = tempdir("pinned");
    let mut grouped = gen::disjoint_cycles(5, 4);
    grouped.add_nodes(3);
    let pods = {
        let mut g = Graph::new();
        let family = FamilySpec::from_slug("pods-p8x0").unwrap();
        family.build_into(1 << 14, 1, &mut g).unwrap();
        g
    };
    // (graph, max shards, shards, manifest hash, graph hash)
    let cases = [
        (
            "connected",
            gen::grid(6, 5),
            DEFAULT_MAX_SHARDS,
            1,
            "ccd76c1d3a8233dd",
            0x55e2_4279_cfa8_5515,
        ),
        (
            "cycles",
            gen::disjoint_cycles(4, 7),
            DEFAULT_MAX_SHARDS,
            4,
            "c13fb8bd2f328a8a",
            0x9ec6_a36d_f0d7_82ad,
        ),
        ("grouped", grouped, 3, 3, "69bdb65bc2486097", 0x3253_76d1_d0e1_8575),
        (
            "multigraph",
            multigraph(),
            DEFAULT_MAX_SHARDS,
            3,
            "5df6aef7ae6d1822",
            0x93c7_4df8_239b_e770,
        ),
        ("pods-p8x0", pods, DEFAULT_MAX_SHARDS, 64, "5862cd553598bfde", 0x1c41_4639_683f_a225),
    ];
    for (tag, g, max_shards, shards, manifest_hash, graph_hash) in cases {
        assert_eq!(g.content_hash(), graph_hash, "{tag}");
        let mut reference = None;
        for width in WIDTHS {
            let dir = root.join(format!("{tag}-{width:?}"));
            assert_eq!(publish_graph(&g, &dir, max_shards, width).unwrap(), graph_hash, "{tag}");
            let snap = ShardedSnapshot::open(&dir).unwrap();
            assert_eq!(snap.shard_count(), shards, "{tag} {width:?}");
            assert_eq!(snap.manifest_hash(), manifest_hash, "{tag} {width:?}");
            assert_eq!(snap.graph_hash(), graph_hash, "{tag} {width:?}");
            for s in 0..shards {
                snap.load_shard(s).unwrap_or_else(|e| panic!("{tag} {width:?} shard {s}: {e}"));
            }
            let files: Vec<_> = contents(&dir)
                .unwrap()
                .into_iter()
                .map(|(f, bytes)| (f.file_name().unwrap().to_owned(), bytes))
                .collect();
            assert_eq!(files.len(), shards + 2, "{tag} {width:?}: images, members, manifest");
            match &reference {
                None => reference = Some(files),
                Some(r) => assert!(r == &files, "{tag} {width:?}: bytes differ"),
            }
        }
    }
    fs::remove_dir_all(&root).ok();
}

/// Blocks each file a store publishes — a shard in the middle of the
/// job order included — with a directory, with and without an older
/// store at the target: at every width the publish fails, no scratch
/// (spills included) is left, and the target is unchanged. With two
/// shards blocked, every width reports the first in shard order, as the
/// calling-thread writer meets it.
#[test]
fn failed_pooled_publishes_leave_no_scratch_and_keep_published_images() {
    let g = gen::disjoint_cycles(5, 4);
    let root = tempdir("fault");
    let dir = root.join("store");
    let scratch = PathBuf::from(format!("{}.tmp{}", dir.display(), std::process::id()));
    let blocked_files: [&[&str]; 6] = [
        &["shard-0000.lclg"],
        &["shard-0002.lclg"],
        &["shard-0004.lclg"],
        &["members.bin"],
        &["shards.json"],
        &["shard-0003.lclg", "shard-0001.lclg"],
    ];
    for width in WIDTHS {
        for prior in [None, Some(gen::cycle(4))] {
            for files in blocked_files {
                fs::remove_dir_all(&dir).ok();
                if let Some(old) = &prior {
                    publish_graph(old, &dir, DEFAULT_MAX_SHARDS, width).unwrap();
                }
                let before = contents(&dir);
                let mut w = ShardedSnapshotWriter::create(&dir, DEFAULT_MAX_SHARDS).unwrap();
                g.stream_into(&mut w);
                for file in files {
                    fs::create_dir(scratch.join(file)).unwrap();
                }
                let err = w.finish_with(&width).expect_err("a blocked file fails the publish");
                if files[0].starts_with("shard-") {
                    let first = files.iter().min().unwrap();
                    assert!(err.to_string().contains(first), "{width:?} {files:?}: {err}");
                }
                assert!(!scratch.exists(), "{width:?} {files:?}: scratch left behind");
                assert_eq!(contents(&dir), before, "{width:?} {files:?}: target changed");
            }
        }
        fs::remove_dir_all(&dir).ok();
        assert_eq!(publish_graph(&g, &dir, DEFAULT_MAX_SHARDS, width).unwrap(), g.content_hash());
        let snap = ShardedSnapshot::open(&dir).unwrap();
        assert_eq!(snap.shard_count(), 5);
        for s in 0..5 {
            snap.load_shard(s).unwrap();
        }
    }
    fs::remove_dir_all(&root).ok();
}
