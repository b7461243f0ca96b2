//! Typed algorithm failures.
//!
//! A pathological instance must fail *one row*, not the process: the
//! pooled batch engine runs many cells on shared workers, and a `panic!`
//! in one cell poisons the whole pool. The fallible `try_run*` variants
//! return these errors instead; the panicking `run` wrappers remain for
//! callers that know their instances are good.

use std::fmt;

/// Why an algorithm could not produce a solution on this instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgoError {
    /// The instance admits no solution for this problem (e.g. a
    /// self-loop where independence or proper coloring is required).
    Unsolvable {
        /// The failing algorithm.
        algo: &'static str,
        /// What makes the instance unsolvable.
        reason: String,
    },
    /// The algorithm stopped making progress (unsatisfiable residue).
    NoProgress {
        /// The failing algorithm.
        algo: &'static str,
        /// Rounds executed before giving up.
        rounds: u32,
    },
    /// A randomized protocol exceeded its w.h.p. round cap — vanishing
    /// probability on solvable instances; indicates a bug or an
    /// adversarial instance.
    RoundCapExceeded {
        /// The failing algorithm.
        algo: &'static str,
        /// The cap that was hit.
        cap: u32,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::Unsolvable { algo, reason } => {
                write!(f, "{algo}: unsolvable instance: {reason}")
            }
            AlgoError::NoProgress { algo, rounds } => {
                write!(f, "{algo}: no progress after {rounds} rounds; unsatisfiable instance")
            }
            AlgoError::RoundCapExceeded { algo, cap } => {
                write!(f, "{algo}: did not terminate within {cap} rounds")
            }
        }
    }
}

impl std::error::Error for AlgoError {}

/// Panics if the claimed solution fails independent certification — the
/// in-algorithm backstop behind [`lcl_certify::enabled`]. An algorithm
/// that produced an invalid solution *and* passed its own checks is
/// exactly the bug the certifier exists to catch; aborting loudly here is
/// correct, because the output was about to be presented as proven.
pub(crate) fn self_certify(g: &lcl_graph::Graph, solution: &lcl_certify::Solution) {
    if let Err(v) = lcl_certify::certify(g, solution) {
        panic!("self-certification failed [{}]: {v}", v.kind());
    }
}

/// [`self_certify`] for outcomes that decode their labeling first: a
/// decode failure is as damning as an invalid solution.
pub(crate) fn self_certify_decoded(
    g: &lcl_graph::Graph,
    decoded: Result<lcl_certify::Solution, lcl_certify::Violation>,
) {
    match decoded {
        Ok(sol) => self_certify(g, &sol),
        Err(v) => panic!("self-certification failed [{}]: {v}", v.kind()),
    }
}
