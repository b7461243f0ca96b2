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
//!    the top color class recolors greedily to the smallest color its
//!    neighbors do not hold, one round per class.
//!
//! Step 3 is simulated in one pass: the nodes whose color is at least
//! `Δ + 1` are sorted by color, descending, and recolored in place in that
//! order. This equals the synchronous rounds. A class is an independent set,
//! since the coloring stays proper, so its members read none of each
//! other's colors and their order within the class does not matter. And
//! when a class moves, every higher class has already moved while every
//! lower one still holds its color, which is what its round sees.
//! `elimination_rounds` counts one round per class.

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
/// of panicking the process. Each Linial step's per-node recoloring fans
/// out across the executor and reads only the previous round's colors; the
/// color-class elimination is one sequential pass (see the module doc).
/// So the outcome is bit-identical under **any** executor.
///
/// # Errors
///
/// [`AlgoError::Unsolvable`] if the graph contains a self-loop — no
/// proper coloring exists (the reason mentions "loopless").
/// [`AlgoError::RoundCapExceeded`] if the elimination would take more
/// than `u32::MAX` rounds (an id space far above `Δ`, with no Linial step
/// to shrink it).
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
    // least the announced `n`. The space is counted in `u128`: an id of
    // `u64::MAX` makes it 2⁶⁴. After one Linial step it is `q² < 2⁶⁴`.
    let mut colors: Vec<u64> = g.nodes().map(|v| net.id_of(v)).collect();
    let mut k = u128::from(colors.iter().copied().max().unwrap_or(0).max(net.known_n() as u64)) + 1;
    let mut reduction_rounds = 0;

    while let Some(q) = linial_prime(k, delta) {
        let d = digits(k, q) as usize;
        // Node v's polynomial is `coeffs[v·d..][..d]`, extracted once for v
        // and every neighbor that evaluates it. Digits are below `q < 2³²`.
        let mut coeffs = Vec::with_capacity(n * d);
        for &c in &colors {
            let mut rest = c;
            for _ in 0..d {
                coeffs.push((rest % q) as u32);
                rest /= q;
            }
        }
        let poly = |v: lcl_graph::NodeId| &coeffs[v.index() * d..][..d];
        colors = exec.map_nodes(n, |vi| {
            let v = lcl_graph::NodeId(vi as u32);
            let pv = poly(v);
            // The coloring is proper, so every neighbor's polynomial differs
            // from `pv` and blocks at most `d - 1` points.
            (0..q)
                .find_map(|x| {
                    let y = eval(pv, x, q);
                    g.neighbors(v).all(|(w, _)| eval(poly(w), x, q) != y).then_some(x * q + y)
                })
                .expect("q > Δ(d-1) guarantees a free point")
        });
        k = u128::from(q * q);
        reduction_rounds += 1;
    }

    // Color-class elimination down to Δ + 1, one class per round from the
    // top, simulated in one descending pass (see the module doc).
    let target = delta + 1;
    let elimination_rounds = u32::try_from(k.saturating_sub(u128::from(target)))
        .map_err(|_| AlgoError::RoundCapExceeded { algo: "linial", cap: u32::MAX })?;
    let mut order: Vec<(u64, lcl_graph::NodeId)> =
        g.nodes().map(|v| (colors[v.index()], v)).filter(|&(c, _)| c >= target).collect();
    order.sort_unstable_by_key(|&(c, _)| std::cmp::Reverse(c));
    // A node of degree `deg` finds a free color in `0..=deg`, inside the
    // `(Δ+1)`-palette, so the marks cover the part's own degrees only.
    // Slot `c` holds the position in `order` of the last node that saw a
    // neighbor holding color `c`.
    let mut taken = vec![usize::MAX; g.max_degree() + 1];
    for (i, &(_, v)) in order.iter().enumerate() {
        for (w, _) in g.neighbors(v) {
            let c = colors[w.index()];
            if c < taken.len() as u64 {
                taken[c as usize] = i;
            }
        }
        let free = (0..=g.degree(v))
            .find(|&c| taken[c] != i)
            .expect("degree ≤ Δ leaves a free color in a (Δ+1)-palette");
        colors[v.index()] = free as u64;
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
fn digits(k: u128, q: u64) -> u32 {
    let mut d = 1;
    let mut cap = u128::from(q);
    while cap < k {
        cap = cap.saturating_mul(u128::from(q));
        d += 1;
    }
    d
}

/// The smallest prime `q` with `q > Δ·(d-1)` (where `d = digits(k, q)`) and
/// `q² < k`; `None` once no prime makes progress.
fn linial_prime(k: u128, delta: u64) -> Option<u64> {
    let mut q = 2;
    loop {
        if u128::from(q) * u128::from(q) >= k {
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

/// Evaluates the polynomial with coefficients `p` (least significant
/// first, each below `q`) at `x` over `F_q`.
fn eval(p: &[u32], x: u64, q: u64) -> u64 {
    let mut acc = 0u64;
    for &coef in p.iter().rev() {
        acc = (acc * x + u64::from(coef)) % q;
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
    fn elimination_past_u32_rounds_is_an_error() {
        // An announced id space of 2³⁶ with Δ = 2¹⁷ admits no Linial step
        // (a prime q with q² < 2³⁶ needs d ≥ 3 digits, so a step needs
        // q > 2Δ = 2¹⁸), so the elimination would take about 2³⁶ rounds.
        let net = Network::new(gen::path(2), IdAssignment::Sequential)
            .with_known_n(1 << 36)
            .with_announced_max_degree(1 << 17);
        let err = try_run_with(&net, &Sequential).unwrap_err();
        assert_eq!(err, AlgoError::RoundCapExceeded { algo: "linial", cap: u32::MAX });
    }

    #[test]
    fn largest_id_colors_properly() {
        // The id space of `u64::MAX` is 2⁶⁴ colors. Linial steps take it
        // to 29² = 841, 7² = 49 and 5² = 25 colors, and the 22 classes
        // above the 3-color palette are eliminated.
        let net = Network::with_ids(gen::path(3), vec![1, u64::MAX, 2]);
        let out = try_run_with(&net, &Sequential).expect("loopless");
        assert!(out.colors.iter().all(|&c| c < 3), "colors {:?}", out.colors);
        let input = L::uniform(net.graph(), ());
        check(&VertexColoring::new(3), net.graph(), &input, &out.labeling).expect_ok();
        assert_eq!((out.reduction_rounds, out.elimination_rounds), (3, 22));
    }

    #[test]
    fn helper_math() {
        assert_eq!(digits(25, 5), 2);
        assert_eq!(digits(26, 5), 3);
        assert!(is_prime(2) && is_prime(23) && !is_prime(25) && !is_prime(1));
        assert_eq!(eval(&[1, 2], 3, 7), (1 + 2 * 3) % 7);
    }
}
