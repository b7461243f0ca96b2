//! Scheduler equivalence: a scheduled pooled run must be byte-identical
//! to a `--seq` run — rendered report *and* persisted `rows.jsonl` — on
//! the zoo preset, on a skewed grid, and on property-sampled small specs;
//! plus the self-improvement loop end-to-end (a run's timing meta trains
//! the next run's cost model) and the independent verifier's tolerance of
//! the timing meta keys.

use lcl_bench::{CliOpts, CostModel};
use lcl_report::{cost_history, prediction_error, RunStore};
use lcl_scenario::{catalog, experiment_name, run_spec, AlgoSpec, FamilySpec, ScenarioSpec};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lcl-schedeq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn opts(args: &[&str]) -> CliOpts {
    CliOpts::from_args(args.iter().map(|s| (*s).to_string()))
}

fn count_meta(meta: &[(String, String)], prefix: &str) -> usize {
    meta.iter().filter(|(k, _)| k.starts_with(prefix)).count()
}

/// A grid with one dominant cell: `n = 1024` dwarfs the `n = 16` cells,
/// the shape chunked claiming handles worst.
fn skewed_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "skew".into(),
        description: "one dominant size among smalls".into(),
        families: vec![FamilySpec::Torus, FamilySpec::Caterpillar { leaf_frac: 0.5 }],
        sizes: vec![16, 1024],
        seeds: vec![1, 2],
        algos: vec![AlgoSpec::Luby, AlgoSpec::Linial],
    }
}

#[test]
fn scheduled_zoo_run_is_byte_identical_and_trains_the_next_run() {
    let root = scratch("zoo");
    let out = root.to_string_lossy().into_owned();
    let spec = catalog::zoo();
    let cells = spec.cell_count(true);

    // Baseline: sequential, unscheduled.
    let seq_opts = opts(&["--seq", "--quick", "--out", &out, "--run-id", "seq"]);
    let (seq_report, seq_fail) = run_spec(&spec, &seq_opts);
    assert!(seq_fail.is_empty(), "{seq_fail:?}");
    let seq_dir = seq_report.persist(&experiment_name(&spec), &seq_opts).unwrap();
    // Every run records per-cell wall clock, scheduler or not…
    assert_eq!(count_meta(seq_report.meta(), "cell_ms:"), cells);
    // …but only scheduled runs record predictions.
    assert_eq!(count_meta(seq_report.meta(), "predicted_ms:"), 0);
    assert_eq!(prediction_error(seq_report.meta()), None);

    // Pooled run: the scheduler is on by default (no flag needed). At
    // this point the store already holds the seq run, so the cost model
    // trains on real history rather than the static fallback.
    let sched_opts = opts(&["--quick", "--out", &out, "--run-id", "sched"]);
    let (sched_report, sched_fail) = run_spec(&spec, &sched_opts);
    assert!(sched_fail.is_empty(), "{sched_fail:?}");
    let sched_dir = sched_report.persist(&experiment_name(&spec), &sched_opts).unwrap();

    // Byte-identity: rendered report and persisted rows.
    assert_eq!(seq_report.render(true), sched_report.render(true));
    assert_eq!(seq_report.render(false), sched_report.render(false));
    let seq_rows = std::fs::read(seq_dir.join("rows.jsonl")).unwrap();
    let sched_rows = std::fs::read(sched_dir.join("rows.jsonl")).unwrap();
    assert_eq!(seq_rows, sched_rows, "persisted rows must be byte-identical");

    // The scheduled manifest carries the self-improvement record.
    assert_eq!(count_meta(sched_report.meta(), "cell_ms:"), cells);
    assert_eq!(count_meta(sched_report.meta(), "predicted_ms:"), cells);
    assert_eq!(count_meta(sched_report.meta(), "actual_ms:"), cells);
    let pe = prediction_error(sched_report.meta()).expect("scheduled run has paired meta");
    assert_eq!(pe.cells, cells);
    assert!(pe.mean_abs_rel.is_finite() && pe.max_abs_rel >= pe.mean_abs_rel);
    assert!(sched_report.meta().iter().any(|(k, v)| k == "sched" && v.contains("workers=")));

    // Self-improvement: the persisted timing meta reads back as cost
    // samples and fits a curve per (family, algo-set) class.
    let samples = cost_history(&RunStore::new(&root)).unwrap();
    assert!(!samples.is_empty());
    assert!(samples.iter().all(|s| s.algos == "luby+matching+linial"));
    let model = CostModel::fit(&samples);
    assert!(!model.is_empty());
    let torus = model.predict_ms("torus", "luby+matching+linial", 64).unwrap();
    assert!(torus > 0.0);

    // Satellite gate: the independent verifier replays a run carrying
    // the new timing meta without complaint.
    let stored = RunStore::new(&root).find("sched").unwrap().expect("run persisted");
    let v = lcl_scenario::verify_run(&stored).unwrap();
    assert!(v.is_clean(), "{:?}", v.violations);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn skewed_spec_agrees_across_every_dispatch_mode() {
    let root = scratch("skew");
    let out = root.to_string_lossy().into_owned();
    let spec = skewed_spec();
    // Cold: with no history, a planned run's costs are static work units,
    // so it records no predicted/actual pairs and labels its makespan.
    let (cold, fail) = run_spec(&spec, &opts(&["--sched", "--out", &out]));
    assert!(fail.is_empty(), "{fail:?}");
    assert_eq!(count_meta(cold.meta(), "predicted_ms:"), 0);
    assert_eq!(count_meta(cold.meta(), "actual_ms:"), 0);
    assert!(cold
        .meta()
        .iter()
        .any(|(k, v)| k == "sched" && v.contains("predicted_makespan_units=")));
    // The baseline is persisted, so the planned runs below are warm.
    let base_opts = opts(&["--seq", "--out", &out, "--run-id", "skew-base"]);
    let (baseline, fail) = run_spec(&spec, &base_opts);
    assert!(fail.is_empty(), "{fail:?}");
    baseline.persist(&experiment_name(&spec), &base_opts).unwrap();
    assert_eq!(cold.render(true), baseline.render(true));
    // Pooled scheduled (default), pooled chunked (--no-sched), pooled
    // forced (--sched), and sequential-but-planned (--sched --seq): all
    // must render the same bytes.
    for mode in [
        vec!["--out", out.as_str()],
        vec!["--no-sched", "--out", out.as_str()],
        vec!["--sched", "--out", out.as_str()],
        vec!["--sched", "--seq", "--out", out.as_str()],
    ] {
        let o = opts(&mode);
        let (report, fail) = run_spec(&spec, &o);
        assert!(fail.is_empty(), "{mode:?}: {fail:?}");
        assert_eq!(report.render(true), baseline.render(true), "{mode:?} diverged");
        let planned = !mode.contains(&"--no-sched")
            && (mode.contains(&"--sched") || !mode.contains(&"--seq"));
        let expect = if planned { spec.cell_count(false) } else { 0 };
        assert_eq!(count_meta(report.meta(), "predicted_ms:"), expect, "{mode:?}");
        if planned {
            let sched = report.meta().iter().find(|(k, _)| k == "sched").expect("planned");
            assert!(sched.1.contains("predicted_makespan_ms="), "{mode:?}: {}", sched.1);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn zoo_families() -> Vec<FamilySpec> {
    vec![
        FamilySpec::RandomRegular { d: 3 },
        FamilySpec::Gnm { avg_deg: 2.0 },
        FamilySpec::Torus,
        FamilySpec::Hypercube,
        FamilySpec::Caterpillar { leaf_frac: 0.4 },
        FamilySpec::LiftedGadget { delta: 3, height: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random small specs, the scheduled pooled run matches `--seq`
    /// byte for byte — rows and failure sets alike (infeasible cells must
    /// fail identically on both paths).
    #[test]
    fn random_small_specs_schedule_byte_identically(
        fam_mask in 1u8..64,
        algo_mask in 1u8..8,
        sizes in proptest::collection::btree_set(
            (0usize..4).prop_map(|i| [16usize, 25, 32, 64][i]),
            1..3
        ),
        seeds in proptest::collection::btree_set(1u64..5, 1..3),
    ) {
        let families: Vec<FamilySpec> = zoo_families()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| fam_mask & (1 << i) != 0)
            .map(|(_, f)| f)
            .collect();
        let algos: Vec<AlgoSpec> = [AlgoSpec::Luby, AlgoSpec::Matching, AlgoSpec::Linial]
            .into_iter()
            .enumerate()
            .filter(|(i, _)| algo_mask & (1 << i) != 0)
            .map(|(_, a)| a)
            .collect();
        let mut sizes = sizes;
        sizes.insert(16);
        let spec = ScenarioSpec {
            name: "prop".into(),
            description: "property-sampled".into(),
            families,
            sizes: sizes.into_iter().collect(),
            seeds: seeds.into_iter().collect(),
            algos,
        };
        let root = scratch("prop");
        let out = root.to_string_lossy().into_owned();
        let (seq, seq_fail) = run_spec(&spec, &opts(&["--seq", "--out", &out]));
        let (sched, sched_fail) = run_spec(&spec, &opts(&["--sched", "--out", &out]));
        prop_assert_eq!(seq.render(true), sched.render(true));
        prop_assert_eq!(seq_fail, sched_fail);
        let _ = std::fs::remove_dir_all(&root);
    }
}
