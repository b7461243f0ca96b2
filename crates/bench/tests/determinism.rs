//! Determinism regression tests: the parallel experiment engine must be
//! **bit-identical** to sequential execution at every level — whole batch
//! grids, executor-threaded algorithm runners, and per-node round
//! simulation.

use lcl_algos::{linial, luby_rounds, matching_rounds, sinkless_det, sinkless_rand};
use lcl_bench::{grid, BatchRunner, Cell, Parallel, Row};
use lcl_graph::gen;
use lcl_local::{
    run_rounds, run_rounds_dense, run_rounds_dense_with, run_rounds_with, IdAssignment, Network,
    Sequential,
};

/// A realistic measurement closure: real generators, real algorithms, real
/// per-`(seed, node)` randomness.
fn measure(cell: &Cell<&'static str>) -> Vec<Row> {
    let g = gen::random_regular(cell.n, 3, cell.seed).expect("generable");
    let net = Network::new(g, IdAssignment::Shuffled { seed: cell.seed });
    let mis = luby_rounds::run(&net, cell.seed);
    let det = sinkless_det::run(&net, &sinkless_det::Params::default());
    vec![
        Row {
            experiment: "DET",
            series: format!("{}-mis", cell.family),
            n: cell.n,
            seed: cell.seed,
            measured: f64::from(mis.rounds),
            extra: vec![],
        },
        Row {
            experiment: "DET",
            series: format!("{}-sinkless", cell.family),
            n: cell.n,
            seed: cell.seed,
            measured: f64::from(det.trace.max_radius()),
            extra: vec![("mean".into(), det.trace.mean_radius())],
        },
    ]
}

#[test]
fn batch_grid_parallel_is_byte_identical_to_sequential() {
    let cells = grid(&["3reg"], &[16, 32, 64], &[1, 2, 3, 4]);
    let seq = BatchRunner::sequential().run(&cells, measure);
    let par = BatchRunner::parallel().run(&cells, measure);
    assert_eq!(
        seq.render(true),
        par.render(true),
        "parallel JSON report must match sequential byte for byte"
    );
    assert_eq!(seq.render(false), par.render(false));
    assert_eq!(seq.rows().len(), 2 * cells.len());
}

/// Pooled runs on one network, which builds its port plane on the first
/// run and shares it with the later ones, equal sequential runs on fresh
/// networks: Luby builds the plane across the pool, matching and Luby
/// again reuse it. The larger instance spans several plane blocks.
#[test]
fn round_engine_parallel_matches_sequential() {
    for (n, seed) in [(50, 1u64), (50, 7), (50, 23), (1500, 5)] {
        let fresh = || {
            let g = gen::random_regular(n, 4, seed).expect("generable");
            Network::new(g, IdAssignment::Shuffled { seed })
        };
        let net = fresh();
        let cap = 10 * net.len() as u32;

        let luby = luby_rounds::DistributedLuby;
        let matching = matching_rounds::DistributedMatching;
        let seq = run_rounds(&fresh(), &luby, seed, cap);
        let par = run_rounds_with(&net, &luby, seed, cap, &Parallel);
        assert_eq!(seq.outputs, par.outputs, "luby outputs diverged (n {n}, seed {seed})");
        assert_eq!(seq.trace, par.trace, "luby trace diverged (n {n}, seed {seed})");

        let seq = run_rounds(&fresh(), &matching, seed, cap);
        let par = run_rounds_with(&net, &matching, seed, cap, &Parallel);
        assert_eq!(seq.outputs, par.outputs, "matching outputs diverged (n {n}, seed {seed})");
        assert_eq!(seq.trace, par.trace, "matching trace diverged (n {n}, seed {seed})");

        let seq = run_rounds(&fresh(), &luby, seed + 1, cap);
        let par = run_rounds_with(&net, &luby, seed + 1, cap, &Parallel);
        assert_eq!(seq.outputs, par.outputs, "luby rerun outputs diverged (n {n}, seed {seed})");
        assert_eq!(seq.trace, par.trace, "luby rerun trace diverged (n {n}, seed {seed})");
    }
}

/// The event-driven sparse engine (the default behind `run_rounds`) must
/// be bit-identical to the dense oracle for both shipped protocols —
/// outputs, trace, and undecided attribution — under the sequential
/// engine and the pooled executor alike. This is the determinism gate for
/// the active-frontier scheduling: a frontier bug (missed wake-up,
/// double-execution, wrong quiescence accounting) shows up here.
#[test]
fn round_engine_sparse_matches_dense_oracle() {
    for seed in [1u64, 7, 23] {
        let g = gen::random_regular(50, 4, seed).expect("generable");
        let net = Network::new(g, IdAssignment::Shuffled { seed });
        let cap = 10 * net.len() as u32;

        let alg = luby_rounds::DistributedLuby;
        let dense = run_rounds_dense(&net, &alg, seed, cap);
        let sparse = run_rounds(&net, &alg, seed, cap);
        let dense_p = run_rounds_dense_with(&net, &alg, seed, cap, &Parallel);
        let sparse_p = run_rounds_with(&net, &alg, seed, cap, &Parallel);
        assert_eq!(sparse.outputs, dense.outputs, "luby sparse != dense (seed {seed})");
        assert_eq!(sparse.trace, dense.trace, "luby sparse trace != dense (seed {seed})");
        assert_eq!(sparse.undecided, dense.undecided, "luby undecided diverged (seed {seed})");
        assert_eq!(dense_p.outputs, dense.outputs, "luby pooled dense diverged (seed {seed})");
        assert_eq!(sparse_p.outputs, dense.outputs, "luby pooled sparse diverged (seed {seed})");
        assert_eq!(sparse_p.trace, dense.trace, "luby pooled sparse trace diverged (seed {seed})");

        let alg = matching_rounds::DistributedMatching;
        let dense = run_rounds_dense(&net, &alg, seed, cap);
        let sparse = run_rounds(&net, &alg, seed, cap);
        let dense_p = run_rounds_dense_with(&net, &alg, seed, cap, &Parallel);
        let sparse_p = run_rounds_with(&net, &alg, seed, cap, &Parallel);
        assert_eq!(sparse.outputs, dense.outputs, "matching sparse != dense (seed {seed})");
        assert_eq!(sparse.trace, dense.trace, "matching sparse trace != dense (seed {seed})");
        assert_eq!(sparse.undecided, dense.undecided, "matching undecided diverged (seed {seed})");
        assert_eq!(dense_p.outputs, dense.outputs, "matching pooled dense diverged (seed {seed})");
        assert_eq!(
            sparse_p.outputs, dense.outputs,
            "matching pooled sparse diverged (seed {seed})"
        );
        assert_eq!(
            sparse_p.trace, dense.trace,
            "matching pooled sparse trace diverged (seed {seed})"
        );
    }
}

/// The executor-threaded algorithm runners must be byte-identical under
/// the pooled executor: same labeling, same round/radius accounting. This
/// is the regression gate for the persistent worker pool — a pool bug that
/// reorders, drops, or duplicates per-node work shows up here. The CI
/// determinism job re-runs this suite with `LCL_POOL_THREADS` pinned.
#[test]
fn pooled_runners_match_sequential() {
    for seed in [1u64, 5, 19] {
        let g = gen::random_regular(64, 3, seed).expect("generable");
        let net = Network::new(g, IdAssignment::Shuffled { seed });

        let seq = luby_rounds::run(&net, seed);
        let par = luby_rounds::run_with(&net, seed, &Parallel);
        assert_eq!(seq.labeling, par.labeling, "luby labeling diverged (seed {seed})");
        assert_eq!(seq.rounds, par.rounds, "luby rounds diverged (seed {seed})");

        let seq = matching_rounds::run(&net, seed);
        let par = matching_rounds::run_with(&net, seed, &Parallel);
        assert_eq!(seq.labeling, par.labeling, "matching labeling diverged (seed {seed})");
        assert_eq!(seq.rounds, par.rounds, "matching rounds diverged (seed {seed})");

        let params = sinkless_rand::Params::default();
        let seq = sinkless_rand::run(&net, &params, seed);
        let par = sinkless_rand::run_with(&net, &params, seed, &Parallel);
        assert_eq!(seq.labeling, par.labeling, "sinkless labeling diverged (seed {seed})");
        assert_eq!(seq.phase1_rounds, par.phase1_rounds, "sinkless phase1 diverged (seed {seed})");
        assert_eq!(seq.finish_radius, par.finish_radius, "sinkless finish diverged (seed {seed})");
        assert_eq!(seq.trace, par.trace, "sinkless trace diverged (seed {seed})");

        let seq = linial::run(&net);
        let par = linial::run_with(&net, &Parallel);
        assert_eq!(seq.colors, par.colors, "linial colors diverged (seed {seed})");
        assert_eq!(seq.labeling, par.labeling, "linial labeling diverged (seed {seed})");
        assert_eq!(
            (seq.reduction_rounds, seq.elimination_rounds),
            (par.reduction_rounds, par.elimination_rounds),
            "linial round split diverged (seed {seed})"
        );
    }
}

/// The padded solver threads its executor into the inner algorithm
/// (`PiAlgorithm::solve_with`), so the virtual-graph simulation fans out
/// too — and the whole `Π₂` run (outputs *and* Lemma-4 cost accounting)
/// must stay bit-identical between the pooled executor and sequential
/// execution, for both the deterministic and the randomized inner
/// algorithm.
#[test]
fn padded_solver_pooled_matches_sequential() {
    use lcl_padding::hard::hard_pi2_instance;
    use lcl_padding::hierarchy::{pi2_det, pi2_rand};
    for seed in [1u64, 4] {
        let inst = hard_pi2_instance(2_000, 3, seed);
        let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed });

        let det = pi2_det(3);
        let seq = det.run_with(&net, &inst.input, seed, &Sequential);
        let par = det.run_with(&net, &inst.input, seed, &Parallel);
        assert_eq!(seq.output, par.output, "pi2-det output diverged (seed {seed})");
        assert_eq!(seq.stats, par.stats, "pi2-det stats diverged (seed {seed})");
        assert_eq!(
            det.run(&net, &inst.input, seed).output,
            par.output,
            "pi2-det run() diverged from pooled run_with (seed {seed})"
        );

        let rand = pi2_rand(3);
        let seq = rand.run_with(&net, &inst.input, seed, &Sequential);
        let par = rand.run_with(&net, &inst.input, seed, &Parallel);
        assert_eq!(seq.output, par.output, "pi2-rand output diverged (seed {seed})");
        assert_eq!(seq.stats, par.stats, "pi2-rand stats diverged (seed {seed})");
    }
}

/// The executor-threaded deterministic sinkless orientation (the inner
/// algorithm a padded run simulates) must be bit-identical under the
/// pooled executor, radii accounting included.
#[test]
fn sinkless_det_pooled_matches_sequential() {
    for seed in [2u64, 11] {
        let g = gen::random_regular(96, 3, seed).expect("generable");
        let net = Network::new(g, IdAssignment::Shuffled { seed });
        let params = sinkless_det::Params::default();
        let seq = sinkless_det::run(&net, &params);
        let par = sinkless_det::run_with(&net, &params, &Parallel);
        assert_eq!(seq.labeling, par.labeling, "labeling diverged (seed {seed})");
        assert_eq!(seq.trace, par.trace, "radius trace diverged (seed {seed})");
    }
}

#[test]
fn engine_respects_sequential_escape_hatches() {
    assert!(BatchRunner::parallel().is_parallel());
    assert!(!BatchRunner::sequential().is_parallel());
}
