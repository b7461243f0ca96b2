//! Maximal matching as a genuine message-passing protocol on the round
//! engine — the handshake variant: undecided nodes propose to their
//! lowest-priority available neighbor; mutual or accepted proposals match.
//!
//! Protocol (Israeli–Itai role splitting; two rounds per phase):
//!
//! 1. **Propose**: every active node flips a coin. *Proposers* send a
//!    prioritized proposal on one random available port; *acceptors* stay
//!    silent. The role split removes the classic handshake race in which
//!    two neighbors simultaneously accept different partners.
//! 2. **Accept**: each acceptor that received proposals accepts exactly
//!    one (smallest priority) and retires matched; the proposer learns of
//!    the acceptance on its proposal port and retires too. Matched nodes
//!    announce `Retired`, peeling their other edges.
//!
//! A constant fraction of active edges resolves per phase in expectation,
//! giving `O(log n)` phases w.h.p. The per-node outputs are merged with
//! [`lcl_core::assemble`] and checked against the `MaximalMatching`
//! ne-LCL.
//!
//! The protocol honors the round engine's sparse-execution contract
//! (`lcl_local::RoundAlgorithm`): a node that retires announces `Retired`
//! exactly once (an acceptor couples it with the `Accept` that seals the
//! match) and then falls silent with a no-op `receive`; undecided nodes
//! keep themselves scheduled with an `Active` keep-alive on one port
//! whenever they have no real message to send. Activity therefore
//! collapses onto the undecided frontier — what the event-driven engine
//! exploits in late rounds.
//!
//! A node's state has one fixed size and is never reallocated: ports are
//! `Option<u32>`, and the ports still available are a bitset held in one
//! inline word up to 64 ports and in boxed words beyond. A proposer draws
//! a coin and then an index `k` among its `c` available ports
//! (`gen_range(0..c)`), and proposes on the `k`-th available port in
//! ascending order, read off the bitset. `send` writes its messages
//! through the engine's sink, and `receive` reads its inbox in place.

use crate::error::AlgoError;
use lcl_core::problems::MatchingLabel;
use lcl_core::{assemble, Labeling};
use lcl_local::{run_rounds_with, Network, NodeCtx, NodeExecutor, RoundAlgorithm, Sequential};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Messages of the handshake protocol.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Msg {
    /// Proposal with the sender's current priority.
    Propose(u64),
    /// The sender accepts the match over this edge.
    Accept,
    /// The sender retired (its edges are unavailable) — sent exactly once,
    /// the round after the sender's decision.
    Retired,
    /// Keep-alive from an undecided node with no real message: carries no
    /// information, but keeps the sender scheduled on the event-driven
    /// engine (a node that sends nothing and hears nothing is skipped).
    Active,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Propose,
    Accept,
}

/// Per-node protocol state, of one fixed size whatever the degree up to 64.
/// Ports fit in `u32`: the graph numbers its half-edges in `u32`.
pub struct State {
    phase: Phase,
    matched_port: Option<u32>,
    done: bool,
    /// `Some(port)` while acting as a proposer this phase.
    proposal_port: Option<u32>,
    /// True while acting as an acceptor this phase.
    acceptor: bool,
    /// The port accepted this phase (acceptor side), to be announced.
    accepted_port: Option<u32>,
    /// True from the receive that set `done` until the following receive:
    /// the window in which the one-shot `Retired` announcement goes out.
    retire_pending: bool,
    /// The ports whose neighbor has not announced `Retired`.
    available: Ports,
    priority: u64,
}

/// A set of ports, one bit each (port `p` is bit `p % 64` of word
/// `p / 64`): one inline word up to 64 ports, boxed words beyond. Every
/// query runs on the [`Ports::words`] view.
enum Ports {
    Inline(u64),
    Boxed(Box<[u64]>),
}

impl Ports {
    /// Every port in `0..degree`.
    fn all(degree: usize) -> Ports {
        // The lowest `bits` bits set, for `bits` in `0..=64`.
        let low = |bits: usize| u64::MAX.checked_shr(64 - bits as u32).unwrap_or(0);
        if degree <= 64 {
            return Ports::Inline(low(degree));
        }
        let mut words = vec![u64::MAX; degree.div_ceil(64)].into_boxed_slice();
        let last = words.len() - 1;
        words[last] = low(degree - 64 * last);
        Ports::Boxed(words)
    }

    fn words(&self) -> &[u64] {
        match self {
            Ports::Inline(word) => std::slice::from_ref(word),
            Ports::Boxed(words) => words,
        }
    }

    fn remove(&mut self, port: usize) {
        let words = match self {
            Ports::Inline(word) => std::slice::from_mut(word),
            Ports::Boxed(words) => words,
        };
        words[port / 64] &= !(1 << (port % 64));
    }

    fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest port in the set.
    fn first(&self) -> Option<usize> {
        let (i, w) = self.words().iter().enumerate().find(|&(_, &w)| w != 0)?;
        Some(i * 64 + w.trailing_zeros() as usize)
    }

    /// The `k`-th lowest port in the set (from 0); `k < self.count()`.
    fn nth(&self, mut k: usize) -> usize {
        for (i, &w) in self.words().iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut w = w;
                for _ in 0..k {
                    w &= w - 1;
                }
                return i * 64 + w.trailing_zeros() as usize;
            }
            k -= ones;
        }
        unreachable!("k is below the number of ports in the set")
    }
}

/// The distributed handshake-matching algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistributedMatching;

/// Draws the node's role for the next phase: proposer on a random
/// available port, or acceptor. A proposer draws a coin, then the index of
/// its port among the available ones in ascending order.
fn draw_role(state: &mut State, rng: &mut ChaCha8Rng) {
    state.proposal_port = None;
    state.acceptor = false;
    if state.done {
        return;
    }
    let open = state.available.count();
    if open > 0 && rng.gen_bool(0.5) {
        state.proposal_port = Some(state.available.nth(rng.gen_range(0..open)) as u32);
    } else {
        state.acceptor = true;
    }
}

/// The port an undecided node sends its keep-alive on: the lowest port
/// whose neighbor is still in the game, falling back to port 0 when every
/// neighbor retired (the keep-alive then only keeps *this* node scheduled
/// long enough for its all-gone self-retirement).
fn keepalive_port(state: &State) -> usize {
    state.available.first().unwrap_or(0)
}

impl RoundAlgorithm for DistributedMatching {
    type State = State;
    type Msg = Msg;
    type Output = Option<usize>;

    fn init(&self, ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> State {
        let mut st = State {
            phase: Phase::Propose,
            matched_port: None,
            done: ctx.degree == 0,
            proposal_port: None,
            acceptor: false,
            accepted_port: None,
            retire_pending: false,
            available: Ports::all(ctx.degree),
            priority: rng.gen(),
        };
        draw_role(&mut st, rng);
        st
    }

    fn send(&self, state: &State, ctx: &NodeCtx, mut out: impl FnMut(usize, Msg)) {
        if state.done {
            // One-shot retirement announcement, then permanent silence. An
            // acceptor that just sealed a match couples the `Accept` to its
            // partner with the `Retired` peeling its other edges.
            if state.retire_pending {
                for p in 0..ctx.degree {
                    let accepted = state.accepted_port == Some(p as u32);
                    out(p, if accepted { Msg::Accept } else { Msg::Retired });
                }
            }
            return;
        }
        match (state.phase, state.proposal_port) {
            (Phase::Propose, Some(port)) => out(port as usize, Msg::Propose(state.priority)),
            // Acceptors listen in the propose round; the keep-alive keeps
            // them on the frontier so their phase advances. Accepting
            // itself retires a node (handled above), so every node still
            // undecided in the accept round just keeps itself scheduled.
            _ => out(keepalive_port(state), Msg::Active),
        }
    }

    fn receive<'m>(
        &self,
        state: &mut State,
        _ctx: &NodeCtx,
        inbox: impl Iterator<Item = (usize, &'m Msg)>,
        rng: &mut ChaCha8Rng,
    ) {
        if state.done {
            // First call after the decision lands in the announcement
            // round and spends the flag; afterwards this is a no-op, as
            // the sparse-execution contract requires (state frozen, no
            // RNG draw), whatever stragglers still send here.
            state.retire_pending = false;
            return;
        }
        match state.phase {
            Phase::Propose => {
                // Acceptors pick the best incoming proposal; everyone
                // marks retired neighbors unavailable.
                let mut best: Option<(u64, usize)> = None;
                for (port, msg) in inbox {
                    match *msg {
                        Msg::Retired => state.available.remove(port),
                        Msg::Propose(pr) if state.acceptor && best.is_none_or(|(b, _)| pr < b) => {
                            best = Some((pr, port));
                        }
                        _ => {}
                    }
                }
                if let Some((_, port)) = best {
                    state.matched_port = Some(port as u32);
                    state.accepted_port = Some(port as u32);
                    state.done = true;
                    state.retire_pending = true;
                }
                state.phase = Phase::Accept;
            }
            Phase::Accept => {
                for (port, msg) in inbox {
                    match msg {
                        Msg::Accept
                            // Only my own proposal port can be accepted,
                            // and only one neighbor can hold it.
                            if state.proposal_port == Some(port as u32)
                                && state.matched_port.is_none() =>
                        {
                            state.matched_port = Some(port as u32);
                            state.done = true;
                            state.retire_pending = true;
                        }
                        Msg::Retired => state.available.remove(port),
                        _ => {}
                    }
                }
                // If every neighbor is gone, retire unmatched.
                if !state.done && state.available.count() == 0 {
                    state.done = true;
                    state.retire_pending = true;
                }
                if !state.done {
                    state.priority = rng.gen();
                    draw_role(state, rng);
                }
                state.phase = Phase::Propose;
            }
        }
    }

    fn output(&self, state: &State, _ctx: &NodeCtx) -> Option<Option<usize>> {
        state.done.then(|| state.matched_port.map(|p| p as usize))
    }
}

/// Result of a distributed matching run.
#[derive(Clone, Debug)]
pub struct DistributedMatchingOutcome {
    /// The assembled matching labeling.
    pub labeling: Labeling<MatchingLabel>,
    /// Rounds executed (2 per phase).
    pub rounds: u32,
}

impl DistributedMatchingOutcome {
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
        lcl_certify::decode::matching(g, &self.labeling)
    }
}

/// Runs the handshake protocol and assembles the labeling.
///
/// # Panics
///
/// Panics on the [`try_run_with`] error cases.
#[must_use]
pub fn run(net: &Network, seed: u64) -> DistributedMatchingOutcome {
    run_with(net, seed, &Sequential)
}

/// [`run`] with a pluggable [`NodeExecutor`].
///
/// # Panics
///
/// As [`run`].
#[must_use]
pub fn run_with<X: NodeExecutor>(net: &Network, seed: u64, exec: &X) -> DistributedMatchingOutcome {
    try_run_with(net, seed, exec).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_with`]: a pathological instance fails this call instead
/// of panicking the process. Per-node protocol steps fan out across the
/// executor, with the outcome bit-identical under **any** executor.
///
/// # Errors
///
/// [`AlgoError::Unsolvable`] on graphs with self-loops (the reason
/// mentions "loopless"), [`AlgoError::RoundCapExceeded`] if the protocol
/// exceeds its round cap (vanishing probability).
pub fn try_run_with<X: NodeExecutor>(
    net: &Network,
    seed: u64,
    exec: &X,
) -> Result<DistributedMatchingOutcome, AlgoError> {
    if net.graph().edges().any(|e| net.graph().is_self_loop(e)) {
        return Err(AlgoError::Unsolvable {
            algo: "matching-rounds",
            reason: "matching requires a loopless graph".into(),
        });
    }
    let cap = 40 * ((net.known_n().max(2) as f64).log2() as u32 + 4);
    let out = run_rounds_with(net, &DistributedMatching, seed, cap, exec);
    if !out.trace.completed {
        return Err(AlgoError::RoundCapExceeded { algo: "matching-rounds", cap });
    }
    let rounds = out.trace.rounds;
    let decisions = out.into_outputs();
    // A node's matched_port must be symmetric; assemble enforces edge
    // agreement, so label edges from the port decisions.
    let labeling = assemble(
        net.graph(),
        |v| {
            if decisions[v.index()].is_some() {
                MatchingLabel::Matched
            } else {
                MatchingLabel::Free
            }
        },
        |v, p| {
            let edge = if decisions[v.index()] == Some(p) {
                MatchingLabel::InMatching
            } else {
                MatchingLabel::NotInMatching
            };
            (MatchingLabel::Blank, edge)
        },
    )
    .expect("handshake matches are symmetric, so edge labels agree");
    let outcome = DistributedMatchingOutcome { labeling, rounds };
    if lcl_certify::enabled() {
        crate::error::self_certify_decoded(net.graph(), outcome.solution(net.graph()));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::check;
    use lcl_core::problems::MaximalMatching;
    use lcl_graph::gen;
    use lcl_local::IdAssignment;

    #[test]
    fn handshake_matching_verifies_on_assorted_graphs() {
        for (g, seed) in [
            (gen::cycle(21), 1u64),
            (gen::random_regular(60, 3, 2).unwrap(), 2),
            (gen::complete(6), 3),
            (gen::grid(6, 5), 4),
            (gen::path(17), 5),
            (gen::random_tree(40, 6), 6),
        ] {
            let net = Network::new(g, IdAssignment::Shuffled { seed });
            let out = run(&net, seed);
            let input = Labeling::uniform(net.graph(), ());
            check(&MaximalMatching, net.graph(), &input, &out.labeling).expect_ok();
        }
    }

    #[test]
    fn rounds_are_even_and_bounded() {
        let g = gen::random_regular(512, 3, 7).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 7 });
        let out = run(&net, 7);
        assert_eq!(out.rounds % 2, 0);
        assert!(out.rounds <= 120, "took {}", out.rounds);
    }

    #[test]
    fn reproducible() {
        let g = gen::random_regular(50, 3, 4).unwrap();
        let net = Network::new(g, IdAssignment::Shuffled { seed: 4 });
        assert_eq!(run(&net, 6).labeling, run(&net, 6).labeling);
    }

    #[test]
    fn isolated_nodes_stay_free() {
        let mut g = gen::path(2);
        g.add_node();
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run(&net, 1);
        assert_eq!(*out.labeling.node(lcl_graph::NodeId(2)), MatchingLabel::Free);
        let input = Labeling::uniform(net.graph(), ());
        check(&MaximalMatching, net.graph(), &input, &out.labeling).expect_ok();
    }
}
