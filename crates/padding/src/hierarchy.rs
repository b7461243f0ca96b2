//! The hierarchy `Π_1, Π_2, Π_3, …` of Section 5 (Theorem 11).
//!
//! `Π_1` is sinkless orientation (det `Θ(log n)`, rand `Θ(log log n)`);
//! `Π_{i+1} = pad(Π_i, G)` with the `(log, Δ)` family, giving det
//! `Θ(log^{i+1} n)` and rand `Θ(log^i n · log log n)`.
//!
//! This module wires the `lcl-algos` solvers into the
//! [`PiAlgorithm`] interface and provides the concrete problem/solver
//! pairs for levels 1–3. Note the `Δ` bookkeeping: the base graphs of
//! level `i+1` are the padded graphs of level `i`, whose interior tree
//! nodes have degree 5, so families at level ≥ 3 need `Δ ≥ 5`.

use crate::lifted::{PadIn, PadOut, PaddedProblem};
use crate::problem::{PiAlgorithm, PiRun, SinklessInner};
use crate::solver::PaddedAlgorithm;
use lcl_algos::{sinkless_det, sinkless_rand};
use lcl_core::problems::Orient;
use lcl_core::Labeling;
use lcl_local::{Network, NodeExecutor};

/// Deterministic sinkless orientation as a [`PiAlgorithm`] (the inner
/// algorithm of the deterministic `Π_2` solver).
#[derive(Clone, Copy, Debug, Default)]
pub struct SinklessDetAlgo {
    /// Tuning knobs passed through to `lcl-algos`.
    pub params: sinkless_det::Params,
}

impl PiAlgorithm<SinklessInner> for SinklessDetAlgo {
    fn solve_with<X: NodeExecutor>(
        &self,
        net: &Network,
        _input: &Labeling<()>,
        _seed: u64,
        exec: &X,
    ) -> PiRun<Orient> {
        let out = sinkless_det::run_with(net, &self.params, exec);
        PiRun { output: out.labeling, rounds: out.trace.max_radius() }
    }
}

/// Randomized sinkless orientation as a [`PiAlgorithm`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SinklessRandAlgo {
    /// Tuning knobs passed through to `lcl-algos`.
    pub params: sinkless_rand::Params,
}

impl PiAlgorithm<SinklessInner> for SinklessRandAlgo {
    fn solve_with<X: NodeExecutor>(
        &self,
        net: &Network,
        _input: &Labeling<()>,
        seed: u64,
        exec: &X,
    ) -> PiRun<Orient> {
        let out = sinkless_rand::run_with(net, &self.params, seed, exec);
        let rounds = out.total_rounds();
        PiRun { output: out.labeling, rounds }
    }
}

/// The problem `Π_2 = pad(Π_1, G_Δ)`.
#[must_use]
pub fn pi2(delta: usize) -> PaddedProblem<SinklessInner> {
    PaddedProblem::new(SinklessInner::new(), delta)
}

/// The problem `Π_3 = pad(Π_2, G_Δ3)`. `delta3` must be at least the
/// maximum degree of level-2 padded graphs (5 for the `(log, Δ)` family).
#[must_use]
pub fn pi3(delta2: usize, delta3: usize) -> PaddedProblem<PaddedProblem<SinklessInner>> {
    PaddedProblem::new(pi2(delta2), delta3)
}

/// Deterministic `Π_2` solver (Lemma 4 over [`SinklessDetAlgo`]).
#[must_use]
pub fn pi2_det(delta: usize) -> PaddedAlgorithm<SinklessInner, SinklessDetAlgo> {
    PaddedAlgorithm::new(pi2(delta), SinklessDetAlgo::default())
}

/// Randomized `Π_2` solver.
#[must_use]
pub fn pi2_rand(delta: usize) -> PaddedAlgorithm<SinklessInner, SinklessRandAlgo> {
    PaddedAlgorithm::new(pi2(delta), SinklessRandAlgo::default())
}

/// Deterministic `Π_3` solver: Lemma 4 applied twice.
#[must_use]
pub fn pi3_det(
    delta2: usize,
    delta3: usize,
) -> PaddedAlgorithm<PaddedProblem<SinklessInner>, PaddedAlgorithm<SinklessInner, SinklessDetAlgo>>
{
    PaddedAlgorithm::new(pi3(delta2, delta3), pi2_det(delta2))
}

/// Randomized `Π_3` solver.
#[must_use]
pub fn pi3_rand(
    delta2: usize,
    delta3: usize,
) -> PaddedAlgorithm<PaddedProblem<SinklessInner>, PaddedAlgorithm<SinklessInner, SinklessRandAlgo>>
{
    PaddedAlgorithm::new(pi3(delta2, delta3), pi2_rand(delta2))
}

/// Convenience alias for level-2 outputs.
pub type Pi2Out = PadOut<(), Orient>;
/// Convenience alias for level-2 inputs.
pub type Pi2In = PadIn<()>;
/// Convenience alias for level-3 outputs.
pub type Pi3Out = PadOut<Pi2In, Pi2Out>;
/// Convenience alias for level-3 inputs.
pub type Pi3In = PadIn<Pi2In>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::hard_pi2_instance;
    use crate::lifted::check_padded;
    use crate::problem::InnerProblem;
    use lcl_core::{NeLcl, NodeView};
    use lcl_local::IdAssignment;

    #[test]
    fn pi2_det_solves_and_verifies() {
        let inst = hard_pi2_instance(600, 3, 1);
        let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 1 });
        let solver = pi2_det(3);
        let run = solver.run(&net, &inst.input, 1);
        let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
        assert!(violations.is_empty(), "violations: {:?}", &violations[..violations.len().min(5)]);
        assert!(run.stats.inner_rounds > 0);
        assert!(run.stats.v_radius > 0);
        assert_eq!(run.stats.invalid_gadgets, 0);
    }

    #[test]
    fn pi2_rand_solves_and_verifies() {
        let inst = hard_pi2_instance(600, 3, 2);
        let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 2 });
        let solver = pi2_rand(3);
        let run = solver.run(&net, &inst.input, 7);
        let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
        assert!(violations.is_empty(), "violations: {:?}", &violations[..violations.len().min(5)]);
    }

    #[test]
    fn pi2_rand_is_cheaper_than_det_on_larger_instances() {
        // The separation at level 2 is log √n vs log log n: it needs the
        // virtual base (√n nodes) to be big enough for log vs loglog to
        // bite, hence the ≈ 40k-node instance.
        let inst = hard_pi2_instance(40_000, 3, 3);
        let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 3 });
        let det = pi2_det(3).run(&net, &inst.input, 3);
        let rand = pi2_rand(3).run(&net, &inst.input, 3);
        assert!(
            rand.stats.inner_rounds < det.stats.inner_rounds,
            "rand {} vs det {}",
            rand.stats.inner_rounds,
            det.stats.inner_rounds
        );
        assert!(rand.stats.physical_rounds() < det.stats.physical_rounds());
    }

    #[test]
    fn pi2_filler_roundtrip() {
        // The level-2 problem can act as an inner problem: its fillers
        // satisfy its own degree-0 node constraint (needed at level 3).
        let p = pi2(3);
        let (f_in, f_out) = (p.filler_in(), p.filler_out());
        let view = NodeView {
            degree: 0,
            node_in: &f_in,
            node_out: &f_out,
            edges_in: &[],
            edges_out: &[],
            halves_in: &[],
            halves_out: &[],
        };
        assert!(p.check_node(&view).is_ok());
    }
}
