//! Luby's MIS as a **genuine message-passing algorithm** on the round
//! engine (`lcl_local::run_rounds`), in contrast to the centralized
//! simulation of [`crate::luby`].
//!
//! Protocol (two rounds per Luby phase):
//!
//! 1. **Exchange**: every undecided node draws a fresh priority and sends
//!    `(priority, id)` on all ports;
//! 2. **Resolve**: strict local minima announce `Joined`; their neighbors
//!    leave the competition, recording the announcing port as their
//!    dominator pointer.
//!
//! The protocol honors the round engine's sparse-execution contract
//! (`lcl_local::RoundAlgorithm`): decided nodes fall silent and their
//! `receive` is a no-op, undecided non-joiners keep themselves scheduled
//! through a `Resolve`-round keep-alive on port 0, and isolated nodes
//! (degree 0, hearing nothing ever) join at `init`. Activity therefore
//! collapses onto the undecided frontier — exactly what the event-driven
//! engine exploits in late rounds.
//!
//! The per-node outputs are merged into a global labeling with
//! [`lcl_core::assemble`] — the same edge-agreement rule the paper imposes
//! on ne-LCL outputs — and checked against `MaximalIndependentSet`.

use crate::error::AlgoError;
use lcl_core::problems::MisLabel;
use lcl_core::{assemble, Labeling};
use lcl_local::{run_rounds_with, Network, NodeCtx, NodeExecutor, RoundAlgorithm, Sequential};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Messages of the protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Msg {
    /// An undecided node's current priority draw (with its id as a
    /// symmetric tiebreaker).
    Priority(u64, u64),
    /// The sender joined the independent set this phase.
    Joined,
    /// `Resolve`-round keep-alive from an undecided non-joiner: carries no
    /// information, but keeps the sender scheduled on the event-driven
    /// engine (a node that sends nothing and hears nothing is skipped).
    Active,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Exchange,
    Resolve,
}

#[derive(Clone, Copy, PartialEq)]
enum Status {
    Undecided,
    In,
    Out,
}

/// Per-node protocol state.
pub struct State {
    phase: Phase,
    status: Status,
    priority: (u64, u64),
    tentative_join: bool,
    dominator_port: Option<usize>,
}

/// The distributed Luby algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistributedLuby;

impl RoundAlgorithm for DistributedLuby {
    type State = State;
    type Msg = Msg;
    type Output = (MisLabel, Option<usize>);

    fn init(&self, ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> State {
        State {
            phase: Phase::Exchange,
            // An isolated node hears nothing, ever: it joins at birth
            // instead of through an empty-inbox exchange round.
            status: if ctx.degree == 0 { Status::In } else { Status::Undecided },
            priority: (rng.gen(), ctx.id),
            tentative_join: false,
            dominator_port: None,
        }
    }

    fn send(&self, state: &State, ctx: &NodeCtx, mut out: impl FnMut(usize, Msg)) {
        let msg = match (state.phase, state.status) {
            (Phase::Exchange, Status::Undecided) => {
                Msg::Priority(state.priority.0, state.priority.1)
            }
            (Phase::Resolve, Status::Undecided) if state.tentative_join => Msg::Joined,
            (Phase::Resolve, Status::Undecided) => {
                // Still competing but with nothing to announce: one
                // keep-alive keeps this node on the active frontier (its
                // Resolve step redraws the priority and flips the phase).
                out(0, Msg::Active);
                return;
            }
            // Decided nodes are silent — they leave the frontier.
            _ => return,
        };
        (0..ctx.degree).for_each(|p| out(p, msg));
    }

    fn receive<'m>(
        &self,
        state: &mut State,
        _ctx: &NodeCtx,
        mut inbox: impl Iterator<Item = (usize, &'m Msg)>,
        rng: &mut ChaCha8Rng,
    ) {
        // Decided nodes are inert (sparse-execution contract): state
        // frozen, no RNG draw, regardless of what neighbors still send.
        if state.status != Status::Undecided {
            return;
        }
        match state.phase {
            Phase::Exchange => {
                let mut is_min = true;
                for (_port, msg) in inbox {
                    if let &Msg::Priority(p, id) = msg {
                        if (p, id) < state.priority {
                            is_min = false;
                        }
                    }
                }
                // A node with no undecided neighbors joins outright.
                state.tentative_join = is_min;
                state.phase = Phase::Resolve;
            }
            Phase::Resolve => {
                if state.tentative_join {
                    state.status = Status::In;
                } else if let Some((port, _)) = inbox.find(|(_, m)| **m == Msg::Joined) {
                    state.status = Status::Out;
                    state.dominator_port = Some(port);
                }
                state.tentative_join = false;
                state.priority = (rng.gen(), state.priority.1);
                state.phase = Phase::Exchange;
            }
        }
    }

    fn output(&self, state: &State, _ctx: &NodeCtx) -> Option<(MisLabel, Option<usize>)> {
        match state.status {
            Status::Undecided => None,
            Status::In => Some((MisLabel::InSet, None)),
            Status::Out => Some((MisLabel::OutSet, state.dominator_port)),
        }
    }
}

/// Result of a distributed Luby run.
#[derive(Clone, Debug)]
pub struct DistributedLubyOutcome {
    /// The assembled MIS labeling.
    pub labeling: Labeling<MisLabel>,
    /// Message-passing rounds executed (2 per Luby phase).
    pub rounds: u32,
}

impl DistributedLubyOutcome {
    /// Decodes the labeling into a plain certifiable
    /// [`lcl_certify::Solution`].
    ///
    /// # Errors
    ///
    /// [`lcl_certify::Violation::Decode`] if the labeling is malformed.
    pub fn solution(
        &self,
        g: &lcl_graph::Graph,
    ) -> Result<lcl_certify::Solution, lcl_certify::Violation> {
        lcl_certify::decode::mis(g, &self.labeling)
    }
}

/// Runs the protocol and assembles the global labeling.
///
/// # Panics
///
/// Panics on the [`try_run_with`] error cases.
#[must_use]
pub fn run(net: &Network, seed: u64) -> DistributedLubyOutcome {
    run_with(net, seed, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`].
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_with<X: NodeExecutor>(net: &Network, seed: u64, exec: &X) -> DistributedLubyOutcome {
    try_run_with(net, seed, exec).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_with`]: a pathological instance fails this call instead
/// of panicking the process. Per-node protocol steps fan out across the
/// executor, with the outcome bit-identical under **any** executor
/// (per-node RNG streams never interleave).
///
/// # Errors
///
/// [`AlgoError::Unsolvable`] on graphs with self-loops (MIS is ill-posed
/// there; the reason mentions "loopless"), [`AlgoError::RoundCapExceeded`]
/// if the protocol does not terminate within `8·(log₂ n + 4)` phases — an
/// event of vanishing probability that would indicate a bug.
pub fn try_run_with<X: NodeExecutor>(
    net: &Network,
    seed: u64,
    exec: &X,
) -> Result<DistributedLubyOutcome, AlgoError> {
    if net.graph().edges().any(|e| net.graph().is_self_loop(e)) {
        return Err(AlgoError::Unsolvable {
            algo: "luby-rounds",
            reason: "distributed Luby requires a loopless graph".into(),
        });
    }
    let cap = 16 * ((net.known_n().max(2) as f64).log2() as u32 + 4);
    let out = run_rounds_with(net, &DistributedLuby, seed, cap, exec);
    if !out.trace.completed {
        return Err(AlgoError::RoundCapExceeded { algo: "luby-rounds", cap });
    }
    let rounds = out.trace.rounds;
    let outputs = out.into_outputs();
    let labeling = assemble(
        net.graph(),
        |v| outputs[v.index()].0,
        |v, p| {
            let pointer = outputs[v.index()].1 == Some(p);
            (if pointer { MisLabel::Pointer } else { MisLabel::NoPointer }, MisLabel::Blank)
        },
    )
    .expect("edge labels agree trivially");
    let outcome = DistributedLubyOutcome { labeling, rounds };
    if lcl_certify::enabled() {
        crate::error::self_certify_decoded(net.graph(), outcome.solution(net.graph()));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::check;
    use lcl_core::problems::MaximalIndependentSet;
    use lcl_graph::gen;
    use lcl_local::IdAssignment;

    #[test]
    fn distributed_luby_verifies_on_assorted_graphs() {
        for (g, seed) in [
            (gen::cycle(21), 1u64),
            (gen::random_regular(60, 3, 2).unwrap(), 2),
            (gen::complete(6), 3),
            (gen::grid(6, 5), 4),
            (gen::random_tree(40, 5), 5),
        ] {
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, seed);
            let input = Labeling::uniform(net.graph(), ());
            check(&MaximalIndependentSet, net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn rounds_are_twice_phases_and_logarithmic() {
        let g = gen::random_regular(512, 3, 7).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 7 });
        let out = run(&net, 7);
        assert_eq!(out.rounds % 2, 0, "phases are exchange/resolve pairs");
        assert!(out.rounds <= 60, "took {}", out.rounds);
    }

    #[test]
    fn agrees_in_spirit_with_centralized_luby() {
        // Both produce *valid* MIS (not necessarily the same set — the
        // randomness differs); validity is the contract.
        let g = gen::random_regular(80, 3, 9).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 9 });
        let dist = run(&net, 11);
        let cent = crate::luby::run(&net, 11).unwrap();
        let input = Labeling::uniform(net.graph(), ());
        check(&MaximalIndependentSet, net.graph(), &input, &dist.labeling).expect_ok();
        check(&MaximalIndependentSet, net.graph(), &input, &cent.labeling).expect_ok();
    }

    #[test]
    fn isolated_nodes_join_immediately() {
        let mut g = gen::path(2);
        g.add_node();
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run(&net, 1);
        assert_eq!(*out.labeling.node(lcl_graph::NodeId(2)), MisLabel::InSet);
    }

    #[test]
    fn self_loop_is_typed_unsolvable() {
        let mut g = gen::path(2);
        g.add_edge(lcl_graph::NodeId(0), lcl_graph::NodeId(0));
        let net = Network::new(g, IdAssignment::Sequential);
        match try_run_with(&net, 1, &Sequential) {
            Err(AlgoError::Unsolvable { algo: "luby-rounds", reason }) => {
                assert!(reason.contains("loopless"));
            }
            other => panic!("expected Unsolvable, got {other:?}"),
        }
    }
}
