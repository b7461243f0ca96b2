//! Cost-model-driven grid scheduling: makespan-balanced cell placement.
//!
//! The batch engine's default dispatch hands the pool *contiguous chunks*
//! of the cell list (`ceil(cells / workers)` each), which is optimal when
//! cells cost about the same and pathological when they don't: one
//! `n = 2¹⁸` cell parked next to 255 small ones makes its chunk-owner the
//! straggler the whole pool waits on. This module plans instead:
//!
//! 1. **Cost model** ([`CostModel::fit`]) — per `(family, algorithm-set)`
//!    class, fit the coefficients of a `c · n^a` curve to observed cell
//!    wall times (log–log least squares), read from the `cell_ms:` meta of
//!    persisted run manifests (`lcl_report::cost_history`). Classes with
//!    no history fall back to a static estimate the caller supplies,
//!    calibrated onto the model's millisecond scale ([`predict_costs`]).
//! 2. **Placement** ([`build_schedule`]) — Graham's longest-processing-
//!    time-first rule: take cells by predicted cost descending and put
//!    each onto the least-loaded worker, which bounds the makespan by
//!    `4/3 − 1/(3m)` times the optimum at `m` workers. Moving one cell off
//!    the heaviest worker cannot help afterwards: that worker's last cell
//!    arrived when it was the least loaded, so its gap to the lightest
//!    worker is at most that cell, and its other cells are no smaller.
//! 3. **Dispatch** — `BatchRunner::try_run_parts` executes each worker's
//!    item list (whole cells, or the shards of a store-backed cell) as one
//!    pool job and stitches rows back in canonical cell order, so a
//!    scheduled run's output is byte-identical to `--seq` no matter what
//!    order items actually ran in.
//!
//! Everything here is deterministic in its inputs: same costs, same
//! worker count → same schedule, so CI can pin placements exactly.

use lcl_report::CostSample;
use std::collections::BTreeMap;

/// One fitted `ms(n) = coeff · n^exponent` cost curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLaw {
    /// Multiplicative coefficient `c` (milliseconds at `n = 1`).
    pub coeff: f64,
    /// Exponent `a`, clamped to `0..=4` — cell costs in this workspace
    /// are polynomial, and a wild exponent extrapolates catastrophically.
    pub exponent: f64,
}

impl PowerLaw {
    /// Predicted milliseconds at grid size `n`.
    #[must_use]
    pub fn eval(&self, n: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = (n.max(1)) as f64;
        self.coeff * n.powf(self.exponent)
    }
}

/// Per-`(family, algorithm-set)` cost curves fitted from history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostModel {
    curves: BTreeMap<(String, String), PowerLaw>,
}

impl CostModel {
    /// Fits one [`PowerLaw`] per `(family, algos)` class by least squares
    /// over `(ln n, ln ms)`. Classes observed at a single size get the
    /// conservative exponent `1.0` (linear), anchored through the
    /// geometric mean of their samples; non-positive times are skipped.
    /// Empty history fits an empty model — every prediction is `None` and
    /// callers fall back to static estimates.
    #[must_use]
    pub fn fit(samples: &[CostSample]) -> CostModel {
        let mut groups: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
        for s in samples {
            if s.ms > 0.0 && s.n > 0 {
                #[allow(clippy::cast_precision_loss)]
                groups
                    .entry((s.family.clone(), s.algos.clone()))
                    .or_default()
                    .push(((s.n as f64).ln(), s.ms.ln()));
            }
        }
        let mut curves = BTreeMap::new();
        for (class, pts) in groups {
            #[allow(clippy::cast_precision_loss)]
            let len = pts.len() as f64;
            let mean_x = pts.iter().map(|(x, _)| x).sum::<f64>() / len;
            let mean_y = pts.iter().map(|(_, y)| y).sum::<f64>() / len;
            let var = pts.iter().map(|(x, _)| (x - mean_x).powi(2)).sum::<f64>();
            let cov = pts.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum::<f64>();
            let exponent = if var > 1e-12 { (cov / var).clamp(0.0, 4.0) } else { 1.0 };
            let coeff = (mean_y - exponent * mean_x).exp().max(1e-9);
            curves.insert(class, PowerLaw { coeff, exponent });
        }
        CostModel { curves }
    }

    /// Predicted milliseconds for one cell class, `None` when the class
    /// has no fitted curve.
    #[must_use]
    pub fn predict_ms(&self, family: &str, algos: &str, n: usize) -> Option<f64> {
        self.curves.get(&(family.to_string(), algos.to_string())).map(|c| c.eval(n))
    }

    /// The fitted curve for one class, if any (introspection/tests).
    #[must_use]
    pub fn curve(&self, family: &str, algos: &str) -> Option<&PowerLaw> {
        self.curves.get(&(family.to_string(), algos.to_string()))
    }

    /// Number of fitted classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// True when no class has history.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }
}

/// Predicted cost per cell: the model where it has a curve, else the
/// static fallback **calibrated onto the model's millisecond scale** (the
/// ratio of model-predicted to static cost summed over model-covered
/// cells; `1.0` when nothing is covered, in which case all costs share
/// the statics' arbitrary-but-consistent unit). Mixing raw units would
/// let a work-unit estimate in the millions dwarf every real measurement
/// and defeat LPT ordering.
///
/// `classes[i]` is `(family, algos, n)` for cell `i`; `statics[i]` its
/// fallback estimate.
///
/// # Panics
///
/// Panics if the two slices disagree in length.
#[must_use]
pub fn predict_costs(
    model: &CostModel,
    classes: &[(String, String, usize)],
    statics: &[f64],
) -> Vec<f64> {
    assert_eq!(classes.len(), statics.len(), "one static estimate per cell");
    let preds: Vec<Option<f64>> =
        classes.iter().map(|(f, a, n)| model.predict_ms(f, a, *n)).collect();
    let (mut pred_sum, mut stat_sum) = (0.0, 0.0);
    for (p, s) in preds.iter().zip(statics) {
        if let Some(p) = p {
            pred_sum += p;
            stat_sum += s;
        }
    }
    let factor = if pred_sum > 0.0 && stat_sum > 0.0 { pred_sum / stat_sum } else { 1.0 };
    preds.iter().zip(statics).map(|(p, s)| p.unwrap_or(s * factor).max(0.0)).collect()
}

/// A planned assignment of cells to pool workers.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// One cell-index list per worker; within a group, indices ascend so
    /// a worker visits its cells in canonical grid order. Together the
    /// groups partition `0..cells`.
    pub groups: Vec<Vec<usize>>,
    /// The per-cell predicted cost the schedule was built from.
    pub predicted_ms: Vec<f64>,
    /// Predicted makespan: the heaviest worker's total predicted cost.
    pub predicted_makespan_ms: f64,
    /// Worker count the schedule targets.
    pub workers: usize,
}

/// Builds the makespan-balanced schedule for `costs` over `workers`
/// workers by LPT: items in descending predicted cost (ties by index),
/// each onto the least-loaded worker (ties to the lowest index).
/// Deterministic in its inputs; `workers` is clamped to at least 1.
#[must_use]
pub fn build_schedule(costs: &[f64], workers: usize) -> Schedule {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let mut groups = vec![Vec::new(); workers];
    let mut load = vec![0.0_f64; workers];
    for cell in order {
        // `min_by` keeps the first of equal minima: the lowest index.
        let w = (0..workers).min_by(|&a, &b| load[a].total_cmp(&load[b])).unwrap_or(0);
        groups[w].push(cell);
        load[w] += costs[cell];
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    let predicted_makespan_ms = load.iter().fold(0.0_f64, |m, &l| m.max(l));
    Schedule { groups, predicted_ms: costs.to_vec(), predicted_makespan_ms, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(family: &str, algos: &str, n: usize, ms: f64) -> CostSample {
        CostSample { family: family.into(), algos: algos.into(), n, ms }
    }

    fn loads(s: &Schedule) -> Vec<f64> {
        s.groups.iter().map(|g| g.iter().map(|&i| s.predicted_ms[i]).sum()).collect()
    }

    fn assert_partition(s: &Schedule, cells: usize) {
        let mut seen = vec![false; cells];
        for g in &s.groups {
            for &i in g {
                assert!(!seen[i], "cell {i} assigned twice");
                seen[i] = true;
            }
            assert!(g.windows(2).all(|w| w[0] < w[1]), "group not in grid order: {g:?}");
        }
        assert!(seen.iter().all(|&s| s), "some cell unassigned");
    }

    #[test]
    fn fit_recovers_a_power_law() {
        let samples: Vec<CostSample> = [64, 256, 1024, 4096]
            .iter()
            .map(|&n| sample("torus", "luby", n, 0.003 * (n as f64).powf(1.5)))
            .collect();
        let model = CostModel::fit(&samples);
        let curve = model.curve("torus", "luby").unwrap();
        assert!((curve.exponent - 1.5).abs() < 1e-6, "exponent {}", curve.exponent);
        let pred = model.predict_ms("torus", "luby", 16384).unwrap();
        let truth = 0.003 * 16384_f64.powf(1.5);
        assert!((pred / truth - 1.0).abs() < 0.01, "pred {pred} vs {truth}");
        assert_eq!(model.predict_ms("torus", "linial", 64), None);
        assert_eq!(model.predict_ms("hypercube", "luby", 64), None);
    }

    #[test]
    fn fit_single_size_anchors_a_linear_curve() {
        let model =
            CostModel::fit(&[sample("torus", "luby", 64, 8.0), sample("torus", "luby", 64, 2.0)]);
        let curve = model.curve("torus", "luby").unwrap();
        assert_eq!(curve.exponent, 1.0);
        // Anchored through the geometric mean: √(8·2) = 4 ms at n = 64.
        assert!((curve.eval(64) - 4.0).abs() < 1e-9);
        assert!((curve.eval(128) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fit_empty_history_predicts_nothing() {
        let model = CostModel::fit(&[]);
        assert!(model.is_empty());
        assert_eq!(model.len(), 0);
        assert_eq!(model.predict_ms("torus", "luby", 64), None);
        // Non-positive times are not samples either.
        assert!(CostModel::fit(&[sample("t", "a", 64, 0.0), sample("t", "a", 64, -1.0)]).is_empty());
    }

    #[test]
    fn predict_costs_calibrates_statics_onto_the_model_scale() {
        let model = CostModel::fit(&[
            sample("torus", "luby", 64, 10.0),
            sample("torus", "luby", 256, 40.0),
        ]);
        let classes = vec![
            ("torus".to_string(), "luby".to_string(), 64),
            ("hypercube".to_string(), "luby".to_string(), 64),
        ];
        // Static units are arbitrary: the covered cell says 1000 units ≙
        // ~10 ms, so the uncovered cell's 2000 units must come out ~20 ms.
        let costs = predict_costs(&model, &classes, &[1000.0, 2000.0]);
        assert!((costs[0] - 10.0).abs() < 1.0, "model side {}", costs[0]);
        let factor = costs[0] / 1000.0;
        assert!((costs[1] - 2000.0 * factor).abs() < 1e-9, "calibrated side {}", costs[1]);

        // No coverage at all: statics pass through unscaled.
        let empty = CostModel::fit(&[]);
        assert_eq!(predict_costs(&empty, &classes, &[3.0, 7.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn lpt_isolates_the_dominant_cell() {
        let costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let s = build_schedule(&costs, 2);
        assert_partition(&s, costs.len());
        // Optimal makespan is 10 (big cell alone vs six smalls): LPT must
        // land exactly there.
        assert!(
            (s.predicted_makespan_ms - 10.0).abs() < 1e-9,
            "makespan {}",
            s.predicted_makespan_ms
        );
        let ls = loads(&s);
        assert!(ls.contains(&10.0) && ls.contains(&6.0), "{ls:?}");
    }

    #[test]
    fn ties_split_evenly() {
        let costs = [1.0; 8];
        let s = build_schedule(&costs, 2);
        assert_partition(&s, 8);
        assert_eq!(s.groups[0].len(), 4);
        assert_eq!(s.groups[1].len(), 4);
        assert!((s.predicted_makespan_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_shapes_hold() {
        // Single worker: everything in one group, grid order.
        let s = build_schedule(&[3.0, 1.0, 2.0], 1);
        assert_eq!(s.groups, vec![vec![0, 1, 2]]);
        assert!((s.predicted_makespan_ms - 6.0).abs() < 1e-9);
        // Zero workers clamp to one.
        assert_eq!(build_schedule(&[1.0], 0).workers, 1);
        // No cells: empty groups, zero makespan.
        let s = build_schedule(&[], 4);
        assert_eq!(s.groups.len(), 4);
        assert!(s.groups.iter().all(Vec::is_empty));
        assert_eq!(s.predicted_makespan_ms, 0.0);
        // More workers than cells: nobody holds two cells.
        let s = build_schedule(&[5.0, 4.0, 3.0], 8);
        assert_partition(&s, 3);
        assert!(s.groups.iter().all(|g| g.len() <= 1), "{:?}", s.groups);
        assert!((s.predicted_makespan_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_deterministic() {
        let costs: Vec<f64> = (0..97).map(|i| ((i * 37) % 23) as f64 + 0.5).collect();
        let a = build_schedule(&costs, 4);
        let b = build_schedule(&costs, 4);
        assert_eq!(a, b);
        assert_partition(&a, costs.len());
    }

    #[test]
    fn schedule_beats_row_major_chunking_on_the_skewed_grid() {
        // The acceptance shape: one huge cell at index 0 plus 255 smalls.
        let mut costs = vec![3.0; 256];
        costs[0] = 262.0;
        let workers = 4;
        // Row-major chunk claiming: contiguous chunks of ceil(256/4) = 64.
        let chunk_makespan = costs
            .chunks(costs.len().div_ceil(workers))
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0_f64, f64::max);
        let s = build_schedule(&costs, workers);
        assert_partition(&s, 256);
        assert!(
            chunk_makespan >= 1.5 * s.predicted_makespan_ms,
            "chunked {chunk_makespan} vs scheduled {}",
            s.predicted_makespan_ms
        );
        // And the balanced makespan is within 5% of the lower bound
        // max(biggest cell, total/workers).
        let lower = (costs.iter().sum::<f64>() / workers as f64).max(262.0);
        assert!(s.predicted_makespan_ms <= 1.05 * lower, "{} vs {lower}", s.predicted_makespan_ms);
    }

    /// The placement `build_schedule` made before plain LPT, kept as the
    /// reference: LPT order, each item onto the less loaded of two hashed
    /// candidate workers, then a local search moving cells off the
    /// heaviest worker while that strictly helps.
    fn reference_groups(costs: &[f64], workers: usize) -> Vec<Vec<usize>> {
        fn splitmix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn two_choices(rank: usize, workers: usize) -> (usize, usize) {
            let h = splitmix64(rank as u64);
            let c1 = (h % workers as u64) as usize;
            let mut c2 = ((h >> 32) % workers as u64) as usize;
            if c1 == c2 {
                c2 = (c2 + 1) % workers;
            }
            (c1, c2)
        }
        fn argminmax(xs: &[f64]) -> ((usize, f64), (usize, f64)) {
            let mut min = (0, xs[0]);
            let mut max = (0, xs[0]);
            for (i, &x) in xs.iter().enumerate().skip(1) {
                if x < min.1 {
                    min = (i, x);
                }
                if x > max.1 {
                    max = (i, x);
                }
            }
            (min, max)
        }
        fn refine(groups: &mut [Vec<usize>], load: &mut [f64], costs: &[f64]) {
            for _ in 0..2 * costs.len() + groups.len() {
                let ((lo, lo_load), (hi, hi_load)) = argminmax(load);
                let gap = hi_load - lo_load;
                if gap <= 0.0 {
                    break;
                }
                let mut best: Option<(usize, f64)> = None;
                for (pos, &cell) in groups[hi].iter().enumerate() {
                    let c = costs[cell];
                    if c > 0.0 && c < gap && best.is_none_or(|(_, b)| c > b) {
                        best = Some((pos, c));
                    }
                }
                let Some((pos, c)) = best else { break };
                let cell = groups[hi].remove(pos);
                load[hi] -= c;
                load[lo] += c;
                groups[lo].push(cell);
            }
        }
        let workers = workers.max(1);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
        let mut groups = vec![Vec::new(); workers];
        let mut load = vec![0.0_f64; workers];
        for (rank, &cell) in order.iter().enumerate() {
            let w = if workers == 1 {
                0
            } else {
                let (c1, c2) = two_choices(rank, workers);
                if load[c2] < load[c1] || (load[c2] == load[c1] && c2 < c1) {
                    c2
                } else {
                    c1
                }
            };
            groups[w].push(cell);
            load[w] += costs[cell];
        }
        refine(&mut groups, &mut load, costs);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups
    }

    /// The optimal makespan of `costs` on `workers` workers, over every
    /// assignment (the first empty worker stands for all empty ones).
    fn brute_force_makespan(costs: &[f64], workers: usize) -> f64 {
        fn go(costs: &[f64], load: &mut [f64], used: usize) -> f64 {
            let Some((&c, rest)) = costs.split_first() else {
                return load.iter().fold(0.0, |m, &l| m.max(l));
            };
            let mut best = f64::INFINITY;
            for w in 0..load.len().min(used + 1) {
                load[w] += c;
                best = best.min(go(rest, load, used.max(w + 1)));
                load[w] -= c;
            }
            best
        }
        go(costs, &mut vec![0.0; workers], 0)
    }

    /// Integer-valued costs, so every load sum is exact; a small cap on
    /// some vectors makes ties common.
    fn int_costs(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        (1_u32..1000).prop_flat_map(move |cap| {
            collection::vec(0..cap, 0..max_len + 1)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>())
        })
    }

    proptest! {
        #[test]
        fn lpt_matches_the_two_choice_reference_at_two_workers(costs in int_costs(64)) {
            prop_assert_eq!(build_schedule(&costs, 2).groups, reference_groups(&costs, 2));
        }

        #[test]
        fn lpt_is_within_grahams_bound_of_the_optimum(
            workers in 2_usize..5,
            costs in int_costs(8),
        ) {
            let s = build_schedule(&costs, workers);
            let opt = brute_force_makespan(&costs, workers);
            // makespan ≤ (4/3 − 1/(3m))·opt, multiplied out to stay exact.
            let m = workers as f64;
            prop_assert!(
                3.0 * m * s.predicted_makespan_ms <= (4.0 * m - 1.0) * opt,
                "makespan {} vs optimum {opt}",
                s.predicted_makespan_ms
            );
        }

        #[test]
        fn groups_partition_the_items_and_ascend(
            workers in 0_usize..9,
            costs in collection::vec(0_u32..1 << 20, 0..65),
        ) {
            let costs: Vec<f64> = costs.into_iter().map(|c| f64::from(c) / 7.0).collect();
            let s = build_schedule(&costs, workers);
            prop_assert_eq!(s.groups.len(), workers.max(1));
            assert_partition(&s, costs.len());
        }
    }
}
