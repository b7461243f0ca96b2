//! Part-wise execution is invisible in the output: a cell measured from
//! its per-component sharded snapshot, or in memory component by
//! component (`--shard`), produces rows **byte-identical** to the plain
//! in-memory path on the unsharded graph, both per cell (reference
//! reassembly) and end-to-end through `run_spec`'s mixed huge+small part
//! dispatch — for every algorithm, on instances whose components differ
//! in size, degree, and id range.

use lcl_bench::{BatchRunner, Cell, CliOpts, EngineExec};
use lcl_scenario::{
    run_spec, try_measure_cell_full, try_measure_cell_store, AlgoSpec, FamilySpec, MeasureOpts,
    ScenarioSpec, SnapshotCache,
};
use std::path::PathBuf;

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
