//! Linial color reduction: `(Δ+1)`-coloring in `O(log* n + Δ²)` rounds.
//!
//! On cycles (`Δ = 2`) this yields the classical **3-coloring in
//! `Θ(log* n)` rounds** (Cole–Vishkin 1986, Linial 1992) — the bottom-left
//! reference point of the paper's Figure 1 landscape.
//!
//! The algorithm:
//!
//! 1. Start from the identifiers as a `poly(n)`-coloring.
//! 2. **Linial steps**: given a `k`-coloring, encode each color as a
//!    polynomial of degree `d - 1` over `F_q` (base-`q` digits, `d =
//!    ⌈log_q k⌉`), where `q` is the smallest prime with `q > Δ·(d-1)` and
//!    `q² < k`. In one round each node picks the smallest point `x ∈ F_q`
//!    where its polynomial differs from all neighbors' polynomials (two
//!    distinct degree-`(d-1)` polynomials agree on ≤ `d-1` points, so such
//!    an `x` exists) and adopts the color `(x, p(x)) ∈ [q²]`. Iterating
//!    reaches `O(Δ² log Δ)` colors in `O(log* k)` rounds.
//! 3. **Color-class elimination**: while more than `Δ + 1` colors remain,
//!    the top color class recolors greedily (its members form an
//!    independent set of the conflict graph *within their class*, so one
//!    round per class suffices).

use crate::error::AlgoError;
use lcl_core::problems::ColoringLabel;
use lcl_core::Labeling;
use lcl_local::{Network, NodeExecutor, Sequential};

/// Result of a Linial coloring run.
#[derive(Clone, Debug)]
pub struct LinialOutcome {
    /// A proper `(Δ+1)`-coloring as a `VertexColoring` output labeling.
    pub labeling: Labeling<ColoringLabel>,
    /// Rounds spent in Linial reduction steps (the `Θ(log* n)` part).
    pub reduction_rounds: u32,
    /// Rounds spent eliminating color classes (the `O(Δ²)` part).
    pub elimination_rounds: u32,
    /// Colors per node, as plain integers.
    pub colors: Vec<u32>,
    /// The palette the run targeted: the announced `Δ + 1`.
    pub palette: u32,
}

impl LinialOutcome {
    /// Total measured rounds.
    #[must_use]
    pub fn total_rounds(&self) -> u32 {
        self.reduction_rounds + self.elimination_rounds
    }

    /// The outcome on `g` as a plain certifiable
    /// [`lcl_certify::Solution`] against the palette the run targeted —
    /// the announced `Δ + 1`, which on a component part exceeds the part's
    /// own.
    #[must_use]
    pub fn solution(&self, g: &lcl_graph::Graph) -> lcl_certify::Solution {
        debug_assert_eq!(self.colors.len(), g.node_count(), "outcome of another graph");
        lcl_certify::Solution::Coloring { colors: self.colors.clone(), palette: Some(self.palette) }
    }
}

/// Runs Linial color reduction to `Δ + 1` colors (3 colors on cycles).
///
/// # Panics
///
/// Panics if the graph contains a self-loop (no proper coloring exists).
#[must_use]
pub fn run(net: &Network) -> LinialOutcome {
    run_with(net, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`].
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_with<X: NodeExecutor>(net: &Network, exec: &X) -> LinialOutcome {
    try_run_with(net, exec).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_with`]: a pathological instance fails this call instead
/// of panicking the process. Every simulated round's per-node recoloring
/// step fans out across the executor. Each node reads only the previous
/// round's colors, so the outcome is bit-identical under **any** executor.
///
/// # Errors
///
/// [`AlgoError::Unsolvable`] if the graph contains a self-loop — no
/// proper coloring exists (the reason mentions "loopless").
pub fn try_run_with<X: NodeExecutor>(net: &Network, exec: &X) -> Result<LinialOutcome, AlgoError> {
    let g = net.graph();
    if g.edges().any(|e| g.is_self_loop(e)) {
        return Err(AlgoError::Unsolvable {
            algo: "linial",
            reason: "proper coloring requires a loopless graph".into(),
        });
    }
    let n = g.node_count();
    // The schedule depends only on the announced globals, so a component
    // part runs exactly the rounds the whole network runs.
    let delta = net.max_degree().max(1) as u64;

    // Colors start as identifiers (unique ⇒ proper), in an id space of at
    // least the announced `n`.
    let mut colors: Vec<u64> = g.nodes().map(|v| net.id_of(v)).collect();
    let mut k: u64 = colors.iter().copied().max().unwrap_or(0).max(net.known_n() as u64) + 1;
    let mut reduction_rounds = 0;

    while let Some(q) = linial_prime(k, delta) {
        let d = digits(k, q);
        let next: Vec<u64> = exec.map_nodes(n, |vi| {
            let v = lcl_graph::NodeId(vi as u32);
            let pv = poly(colors[v.index()], q, d);
            let forbidden: Vec<Vec<u64>> =
                g.neighbors(v).map(|(w, _)| poly(colors[w.index()], q, d)).collect();
            let x = (0..q)
                .find(|&x| {
                    forbidden.iter().all(|pw| pw == &pv || eval(&pv, x, q) != eval(pw, x, q))
                })
                .expect("q > Δ(d-1) guarantees a free point");
            // Neighbors with an *identical* polynomial would collide at
            // every x — impossible, since the current coloring is
            // proper, so identical polynomials means identical colors.
            x * q + eval(&pv, x, q)
        });
        colors = next;
        k = q * q;
        reduction_rounds += 1;
    }

    // Color-class elimination down to Δ + 1.
    let mut elimination_rounds = 0;
    let target = delta + 1;
    while k > target {
        let top = k - 1;
        let next: Vec<u64> = exec.map_nodes(n, |vi| {
            let v = lcl_graph::NodeId(vi as u32);
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

    let colors_u32: Vec<u32> = colors.iter().map(|&c| c as u32).collect();
    let labeling = Labeling::build(
        g,
        |v| ColoringLabel::Color(colors_u32[v.index()]),
        |_| ColoringLabel::Blank,
        |_| ColoringLabel::Blank,
    );
    let outcome = LinialOutcome {
        labeling,
        reduction_rounds,
        elimination_rounds,
        colors: colors_u32,
        palette: target as u32,
    };
    if lcl_certify::enabled() {
        crate::error::self_certify(g, &outcome.solution(g));
    }
    Ok(outcome)
}

/// Number of base-`q` digits needed for values below `k`.
fn digits(k: u64, q: u64) -> u32 {
    let mut d = 1;
    let mut cap = q;
    while cap < k {
        cap = cap.saturating_mul(q);
        d += 1;
    }
    d
}

/// The smallest prime `q` with `q > Δ·(d-1)` (where `d = digits(k, q)`) and
/// `q² < k`; `None` once no prime makes progress.
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

/// Base-`q` digits of `c`, least significant first: the coefficients of the
/// color's polynomial.
fn poly(c: u64, q: u64, d: u32) -> Vec<u64> {
    let mut digits = Vec::with_capacity(d as usize);
    let mut rest = c;
    for _ in 0..d {
        digits.push(rest % q);
        rest /= q;
    }
    digits
}

/// Evaluates the polynomial at `x` over `F_q`.
fn eval(p: &[u64], x: u64, q: u64) -> u64 {
    let mut acc = 0u64;
    for &coef in p.iter().rev() {
        acc = (acc * x + coef) % q;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::VertexColoring;
    use lcl_core::{check, Labeling as L};
    use lcl_graph::gen;
    use lcl_local::IdAssignment;

    #[test]
    fn three_colors_cycles() {
        for n in [5usize, 16, 101, 1024] {
            let net = Network::new(gen::cycle(n), IdAssignment::Shuffled { seed: n as u64 });
            let out = run(&net);
            let input = L::uniform(net.graph(), ());
            check(&VertexColoring::new(3), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn rounds_grow_very_slowly() {
        // log*-style growth: a 256× larger cycle costs only a couple more
        // reduction rounds, and the total stays bounded by the Δ = 2
        // plateau constant (the color-class elimination from ≤ 25 colors).
        let small = run(&Network::new(gen::cycle(16), IdAssignment::Shuffled { seed: 1 }));
        let large = run(&Network::new(gen::cycle(4096), IdAssignment::Shuffled { seed: 1 }));
        assert!(large.reduction_rounds <= small.reduction_rounds + 3);
        assert!(large.reduction_rounds <= 4);
        assert!(large.total_rounds() <= 30);
    }

    #[test]
    fn delta_plus_one_on_regular_graphs() {
        let g = gen::random_regular(60, 4, 2).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 2 });
        let out = run(&net);
        assert!(out.colors.iter().all(|&c| c <= 4));
        let input = L::uniform(net.graph(), ());
        check(&VertexColoring::new(5), net.graph(), &input, &out.labeling).expect_ok();
    }

    #[test]
    fn trees_and_paths_work() {
        for g in [gen::path(50), gen::complete_binary_tree(6), gen::random_tree(64, 3)] {
            let delta = g.max_degree() as u32;
            let net = Network::new(g, IdAssignment::Shuffled { seed: 4 });
            let out = run(&net);
            let input = L::uniform(net.graph(), ());
            check(&VertexColoring::new(delta + 1), net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn sparse_id_space_is_fine() {
        let net = Network::new(gen::cycle(64), IdAssignment::SparseShuffled { seed: 8 });
        let out = run(&net);
        let input = L::uniform(net.graph(), ());
        check(&VertexColoring::new(3), net.graph(), &input, &out.labeling).expect_ok();
    }

    #[test]
    #[should_panic(expected = "loopless")]
    fn self_loops_rejected() {
        let mut g = gen::path(2);
        g.add_edge(lcl_graph::NodeId(0), lcl_graph::NodeId(0));
        let net = Network::new(g, IdAssignment::Sequential);
        let _ = run(&net);
    }

    #[test]
    fn helper_math() {
        assert_eq!(digits(25, 5), 2);
        assert_eq!(digits(26, 5), 3);
        assert!(is_prime(2) && is_prime(23) && !is_prime(25) && !is_prime(1));
        assert_eq!(eval(&[1, 2], 3, 7), (1 + 2 * 3) % 7);
    }
}
