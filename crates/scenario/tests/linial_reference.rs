//! Linial's coloring against the implementation it replaced, kept here as
//! the reference: one executor sweep over every node per Linial step, with
//! a fresh polynomial `Vec` per node and per neighbor, and then one sweep
//! over every node per eliminated color class.
//!
//! The library recolors each eliminated class once, in descending class
//! order, and evaluates the Linial steps on digits extracted once per
//! round. Colors, both round counts and the labeling must equal the
//! reference's on the scenario zoo families plus paths, cycles, trees,
//! stars and complete graphs, under all three id assignments, with the
//! announced `n` and `Δ` at or above the graph's own (as on component and
//! store-shard parts), under the sequential and the pooled executor, and
//! on every component part of a disconnected instance.

use lcl_algos::linial::{self, LinialOutcome};
use lcl_bench::Parallel;
use lcl_core::problems::ColoringLabel;
use lcl_core::Labeling;
use lcl_graph::{gen, Graph, NodeId};
use lcl_local::{map_components, IdAssignment, Network, NodeExecutor, Sequential};
use lcl_scenario::FamilySpec;
use proptest::prelude::*;

/// The reference run: colors, reduction rounds, elimination rounds.
struct Reference {
    colors: Vec<u32>,
    reduction_rounds: u32,
    elimination_rounds: u32,
}

/// Linial as it was implemented before the single-pass elimination, run on
/// `exec`.
fn reference<X: NodeExecutor>(net: &Network, exec: &X) -> Reference {
    let g = net.graph();
    let n = g.node_count();
    let delta = net.max_degree().max(1) as u64;
    let mut colors: Vec<u64> = g.nodes().map(|v| net.id_of(v)).collect();
    let mut k: u64 = colors.iter().copied().max().unwrap_or(0).max(net.known_n() as u64) + 1;
    let mut reduction_rounds = 0;

    while let Some(q) = linial_prime(k, delta) {
        let d = digits(k, q);
        let next: Vec<u64> = exec.map_nodes(n, |vi| {
            let v = NodeId(vi as u32);
            let pv = poly(colors[v.index()], q, d);
            let forbidden: Vec<Vec<u64>> =
                g.neighbors(v).map(|(w, _)| poly(colors[w.index()], q, d)).collect();
            let x = (0..q)
                .find(|&x| {
                    forbidden.iter().all(|pw| pw == &pv || eval(&pv, x, q) != eval(pw, x, q))
                })
                .expect("q > Δ(d-1) guarantees a free point");
            x * q + eval(&pv, x, q)
        });
        colors = next;
        k = q * q;
        reduction_rounds += 1;
    }

    let mut elimination_rounds = 0;
    let target = delta + 1;
    while k > target {
        let top = k - 1;
        let next: Vec<u64> = exec.map_nodes(n, |vi| {
            let v = NodeId(vi as u32);
            if colors[v.index()] != top {
                return colors[v.index()];
            }
            let used: Vec<u64> = g.neighbors(v).map(|(w, _)| colors[w.index()]).collect();
            (0..target)
                .find(|c| !used.contains(c))
                .expect("degree ≤ Δ leaves a free color in a (Δ+1)-palette")
        });
        colors = next;
        k -= 1;
        elimination_rounds += 1;
    }
    Reference {
        colors: colors.iter().map(|&c| c as u32).collect(),
        reduction_rounds,
        elimination_rounds,
    }
}

fn digits(k: u64, q: u64) -> u32 {
    let mut d = 1;
    let mut cap = q;
    while cap < k {
        cap = cap.saturating_mul(q);
        d += 1;
    }
    d
}

fn linial_prime(k: u64, delta: u64) -> Option<u64> {
    let mut q = 2;
    loop {
        if u128::from(q) * u128::from(q) >= u128::from(k) {
            return None;
        }
        if is_prime(q) {
            let d = digits(k, q);
            if q > delta * u64::from(d - 1) {
                return Some(q);
            }
        }
        q += 1;
    }
}

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    let mut f = 2;
    while f * f <= x {
        if x.is_multiple_of(f) {
            return false;
        }
        f += 1;
    }
    true
}

fn poly(c: u64, q: u64, d: u32) -> Vec<u64> {
    let mut digits = Vec::with_capacity(d as usize);
    let mut rest = c;
    for _ in 0..d {
        digits.push(rest % q);
        rest /= q;
    }
    digits
}

fn eval(p: &[u64], x: u64, q: u64) -> u64 {
    let mut acc = 0u64;
    for &coef in p.iter().rev() {
        acc = (acc * x + coef) % q;
    }
    acc
}

/// Asserts that `out` is the reference run on `net`, labeling included.
fn assert_matches(net: &Network, out: &LinialOutcome, what: &str) -> Result<(), TestCaseError> {
    let want = reference(net, &Sequential);
    prop_assert_eq!(&out.colors, &want.colors, "{}: colors", what);
    prop_assert_eq!(out.reduction_rounds, want.reduction_rounds, "{}: reduction rounds", what);
    prop_assert_eq!(
        out.elimination_rounds,
        want.elimination_rounds,
        "{}: elimination rounds",
        what
    );
    let labeling = Labeling::build(
        net.graph(),
        |v| ColoringLabel::Color(want.colors[v.index()]),
        |_| ColoringLabel::Blank,
        |_| ColoringLabel::Blank,
    );
    prop_assert_eq!(&out.labeling, &labeling, "{}: labeling", what);
    Ok(())
}

/// Family `which` at size about `n`: the seven scenario zoo families, then
/// a path, a cycle, two trees, a star and a complete graph.
fn instance(which: usize, n: usize, seed: u64) -> Option<Graph> {
    let zoo = [
        FamilySpec::RandomRegular { d: 3 },
        FamilySpec::Gnm { avg_deg: 2.0 },
        FamilySpec::Torus,
        FamilySpec::Hypercube,
        FamilySpec::Caterpillar { leaf_frac: 0.4 },
        FamilySpec::LiftedGadget { delta: 3, height: 2 },
        FamilySpec::Pods { pod_size: 4, cross_links: (seed % 3) as usize },
    ];
    match which {
        0..=6 => zoo[which].build(n, seed).ok(),
        7 => Some(gen::path(n)),
        8 => Some(gen::cycle(n.max(3))),
        9 => Some(gen::random_tree(n, seed)),
        10 => Some(gen::complete_binary_tree((n.ilog2()).min(6))),
        11 => Some(gen::star(n.saturating_sub(1))),
        _ => Some(gen::complete(n.min(40))),
    }
}

proptest! {
    // Default config, so `PROPTEST_CASES` raises the case count (CI runs
    // this in release with many more cases).

    #[test]
    fn linial_matches_the_reference(
        which in 0usize..13,
        n in 2usize..90,
        seed in 0u64..1_000,
        ids in 0usize..3,
        more_n in 0usize..3,
        more_delta in 0usize..3,
    ) {
        let Some(g) = instance(which, n, seed) else { return Ok(()) };
        let own_n = g.node_count();
        let own_delta = g.max_degree();
        let ids = match ids {
            0 => IdAssignment::Sequential,
            1 => IdAssignment::Shuffled { seed },
            _ => IdAssignment::SparseShuffled { seed },
        };
        // Announced n and Δ as a component or store-shard part sees them:
        // its own, a little more, or far more.
        let known_n = [own_n, own_n + 17, 1 << 20][more_n];
        let delta = [own_delta, own_delta + 1, own_delta + 5][more_delta];
        let net = Network::new(g, ids).with_known_n(known_n).with_announced_max_degree(delta);
        let what =
            format!("family {which}, n {own_n}, seed {seed}, {ids:?}, known n {known_n}, Δ {delta}");

        let seq = linial::try_run_with(&net, &Sequential).expect("loopless");
        assert_matches(&net, &seq, &format!("{what}, sequential"))?;
        let pooled = linial::try_run_with(&net, &Parallel).expect("loopless");
        assert_matches(&net, &pooled, &format!("{what}, pooled"))?;

        // Every component part announces the whole network's n and Δ.
        let run_part = |part: &Network| (part.clone(), linial::try_run_with(part, &Parallel));
        if let Some((comps, parts)) = map_components(&net, &Sequential, run_part) {
            for (c, (part, out)) in parts.iter().enumerate() {
                let out = out.as_ref().expect("loopless");
                assert_matches(part, out, &format!("{what}, part {c} of {}", comps.count()))?;
            }
        }
    }
}
