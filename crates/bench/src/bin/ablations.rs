//! A1 — ablations of the reproduction's design choices:
//!
//! * **cycle enumeration cap** (deterministic sinkless orientation): the
//!   canonical-cycle rule caps shortest-cycle enumeration at 64; sweep the
//!   cap and confirm outputs stabilize well below the default and stay
//!   checker-valid even at tiny caps (both endpoints of an edge truncate
//!   the same enumeration, so they still agree on its direction).
//! * **shattering budget** (randomized sinkless orientation): sweep the
//!   phase-1 round budget and watch the finish radius trade off against
//!   it; the `Θ(log log n)` default sits at the knee.
//! * **gadget Δ**: the family works for any `Δ`; verification radius stays
//!   `Θ(log s)` as `Δ` grows (Theorem 6 is uniform in `Δ`).
//!
//! Sweep points are independent cells of the parallel batch engine
//! (`--seq` forces sequential execution; reports are byte-identical).

use lcl_algos::{sinkless_det, sinkless_rand};
use lcl_bench::{BatchRunner, CliOpts, Report, Row};
use lcl_gadget::{GadgetFamily, LogGadgetFamily};
use lcl_graph::gen;
use lcl_local::{IdAssignment, Network};

/// One ablation sweep point.
#[derive(Clone, Copy, Debug)]
enum Sweep {
    /// Cycle-enumeration cap for deterministic sinkless orientation.
    CycleCap(usize),
    /// Phase-1 round budget for randomized sinkless orientation.
    ShatterBudget(u32),
    /// Gadget family degree.
    GadgetDelta(usize),
}

fn run_experiment(runner: BatchRunner, quick: bool) -> Report {
    let n = if quick { 1 << 9 } else { 1 << 12 };

    // The sinkless sweeps share one instance and one reference run, computed
    // up front so every cell compares against the same baseline.
    let g = gen::random_regular(n, 3, 1).expect("generable");
    let net = Network::new(g, IdAssignment::Shuffled { seed: 1 });
    let reference = sinkless_det::run(&net, &sinkless_det::Params::default());

    let mut cells: Vec<Sweep> = [1usize, 4, 16, 64, 256].into_iter().map(Sweep::CycleCap).collect();
    cells.extend([0u32, 1, 2, 3, 5, 8, 12].into_iter().map(Sweep::ShatterBudget));
    cells.extend([2usize, 3, 4, 6, 8].into_iter().map(Sweep::GadgetDelta));

    runner.run(&cells, |cell: &Sweep| match *cell {
        Sweep::CycleCap(cap) => {
            let params = sinkless_det::Params { cycle_cap: cap, ..Default::default() };
            let out = sinkless_det::run(&net, &params);
            let same = (out.labeling == reference.labeling) as u32;
            // Validity at every cap: small caps may change tie-breaks, but
            // the produced orientation must still be sinkless.
            let input = lcl_core::Labeling::uniform(net.graph(), ());
            let valid = lcl_core::check(
                &lcl_core::problems::SinklessOrientation::new(),
                net.graph(),
                &input,
                &out.labeling,
            )
            .is_ok() as u32;
            vec![Row {
                experiment: "A1",
                series: format!("cycle-cap-{cap}"),
                n,
                seed: 1,
                measured: f64::from(out.trace.max_radius()),
                extra: vec![
                    ("same_as_default".into(), f64::from(same)),
                    ("valid".into(), f64::from(valid)),
                ],
            }]
        }
        Sweep::ShatterBudget(budget) => {
            let params =
                sinkless_rand::Params { phase1_rounds: Some(budget), ..Default::default() };
            let out = sinkless_rand::run(&net, &params, 7);
            vec![Row {
                experiment: "A1",
                series: format!("shatter-budget-{budget}"),
                n,
                seed: 7,
                measured: f64::from(out.total_rounds()),
                extra: vec![
                    ("finish".into(), f64::from(out.finish_radius)),
                    ("left".into(), out.shattered_nodes as f64),
                ],
            }]
        }
        Sweep::GadgetDelta(delta) => {
            let fam = LogGadgetFamily::new(delta);
            let b = fam.balanced(2_000);
            let out = fam.verify(&b.graph, &b.input, b.len());
            assert!(out.all_ok());
            vec![Row {
                experiment: "A1",
                series: format!("gadget-delta-{delta}"),
                n: b.len(),
                seed: 0,
                measured: f64::from(out.trace.max_radius()),
                extra: vec![("log2n".into(), (b.len() as f64).log2())],
            }]
        }
    })
}

fn main() {
    let opts = CliOpts::parse();
    let rep = run_experiment(BatchRunner::from_opts(&opts), opts.quick);
    rep.finish("ablations", &opts);
}
