//! Locality and round accounting.

use serde::{Deserialize, Serialize};

/// Per-node record of the view radius each node's output depended on, as
/// reported by a centralized simulation of a LOCAL algorithm.
///
/// The **measured complexity** of a run is [`LocalityTrace::max_radius`]:
/// in the LOCAL model, gathering radius `T` is equivalent to running for
/// `Θ(T)` rounds, so the maximum gathered radius is the round complexity of
/// the simulated algorithm on this instance.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalityTrace {
    radii: Vec<u32>,
}

impl LocalityTrace {
    /// Creates a trace from per-node radii.
    #[must_use]
    pub fn new(radii: Vec<u32>) -> Self {
        LocalityTrace { radii }
    }

    /// Radius used by each node, indexed by node.
    #[must_use]
    pub fn radii(&self) -> &[u32] {
        &self.radii
    }

    /// The run's measured complexity: the maximum radius any node needed.
    #[must_use]
    pub fn max_radius(&self) -> u32 {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// Mean radius (0.0 for an empty trace) — useful to distinguish "one
    /// outlier node" from "everyone needed it".
    #[must_use]
    pub fn mean_radius(&self) -> f64 {
        if self.radii.is_empty() {
            return 0.0;
        }
        self.radii.iter().map(|&r| f64::from(r)).sum::<f64>() / self.radii.len() as f64
    }

    /// The given percentile (in `[0, 100]`) of per-node radii.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 100]` or the trace is empty.
    #[must_use]
    pub fn percentile_radius(&self, p: f64) -> u32 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        assert!(!self.radii.is_empty(), "percentile of empty trace");
        let mut sorted = self.radii.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }
}

/// Round accounting for the round engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Rounds executed before every node had produced an output (or the
    /// engine hit its round cap).
    pub rounds: u32,
    /// True if the engine stopped because all nodes finished (as opposed to
    /// hitting the cap).
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_and_mean() {
        let t = LocalityTrace::new(vec![1, 2, 3, 10]);
        assert_eq!(t.max_radius(), 10);
        assert!((t.mean_radius() - 4.0).abs() < 1e-9);
        assert_eq!(t.radii().len(), 4);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = LocalityTrace::default();
        assert_eq!(t.max_radius(), 0);
        assert_eq!(t.mean_radius(), 0.0);
    }

    #[test]
    fn percentiles() {
        let t = LocalityTrace::new(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 100]);
        assert_eq!(t.percentile_radius(0.0), 1);
        assert_eq!(t.percentile_radius(100.0), 100);
        assert!(t.percentile_radius(50.0) <= 6);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let t = LocalityTrace::new(vec![1]);
        let _ = t.percentile_radius(101.0);
    }
}
