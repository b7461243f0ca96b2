//! The round engine: explicit synchronous message passing.
//!
//! One engine runs every entry point, generic over the [`NodeExecutor`]
//! and over which nodes a round executes:
//!
//! * the **active frontier** ([`run_rounds`], [`run_rounds_with`]), the
//!   default: a node runs in round `r` only if it sent a message in round
//!   `r − 1` or a message was sent *to* it then. When activity collapses
//!   to a thin frontier — late Luby rounds, sinkless orientation after
//!   orientations settle — a round costs `O(frontier)` plus an
//!   `n / 64`-word bitmap scan instead of `O(n + m)`.
//! * **every node** ([`run_rounds_dense`], [`run_rounds_dense_with`]): the
//!   dense oracle. For algorithms honoring the
//!   [sparse-execution contract](RoundAlgorithm#sparse-execution-contract)
//!   both give **bit-identical** outputs and [`RoundTrace`]s, which the
//!   equivalence proptests and the CI determinism legs enforce. Setting
//!   `LCL_DENSE_ROUNDS` (to anything but `0` or empty) selects it behind
//!   [`run_rounds`]/[`run_rounds_with`], so CI can byte-compare runs.
//!
//! Messages travel through a **port plane**: outbox slots in node-major CSR
//! order, node `v` owning slots `first[v]..first[v + 1]` (one per port, a
//! `u32` round stamp plus the message). The plane's routing tables belong
//! to the [`Network`]: the first round-algorithm run on a network builds
//! them across its executor, in blocks of `CHUNK` nodes, and every later
//! run shares them (the graph is immutable inside a `Network`). Each run
//! builds its own outbox slots and per-node `(state, rng)` cells and
//! outputs across the executor too. A round is two pooled phases over the
//! frontier, cut into chunks of `CHUNK` frontier nodes; a chunk covers a
//! node-contiguous range, so `split_at_mut` hands each worker its own
//! slots, states and outputs.
//!
//! 1. **Send:** each frontier node's `send` writes every message through a
//!    sink straight into the node's own outbox slot for that port. The
//!    sink marks each receiver, and a node that sent marks itself, in a
//!    bitmap (atomic OR); a word scan then yields the next frontier in
//!    index order.
//! 2. **Receive:** each node of that frontier reads its inbox in port
//!    order through the plane's `mate` table (receiving port → the slot
//!    feeding it), as an iterator that borrows the live messages where
//!    they lie, runs `receive` on its `(state, rng)` cell in place, and is
//!    polled for its output in the same pass.
//!
//! No message is copied and nothing is allocated per node or per message:
//! a message is moved once, from `send` into its slot, and read in place.
//! Every node's RNG stream is its own, so outcomes are bit-identical under
//! **any** executor.

use crate::network::Network;
use crate::trace::RoundTrace;
use crate::{NodeExecutor, Sequential};
use lcl_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-node context handed to a [`RoundAlgorithm`]: the quantities the
/// LOCAL model announces, plus the node's identity and degree.
#[derive(Clone, Copy, Debug)]
pub struct NodeCtx {
    /// The node's LOCAL identifier.
    pub id: u64,
    /// The node's degree (ports are `0..degree`).
    pub degree: usize,
    /// The announced number of nodes.
    pub known_n: usize,
    /// The maximum degree `Δ`.
    pub max_degree: usize,
}

/// A synchronous message-passing algorithm.
///
/// One round = every node computes its outgoing messages from its state
/// ([`RoundAlgorithm::send`], writing each one through the engine's sink),
/// messages are delivered along edges (a message sent on port `p` arrives
/// at the neighbor's port for the same edge), and every node updates its
/// state from its inbox ([`RoundAlgorithm::receive`], an iterator over
/// borrowed messages in port order).
/// A node that returns an output from [`RoundAlgorithm::output`] is
/// finished; the engine stops when all nodes are finished or the round cap
/// is hit. Finished nodes keep participating in message exchange (their
/// `send` is still called while they stay in the frontier) — in the LOCAL
/// model producing an output does not silence a node, but a node that wants
/// to leave the frontier simply stops sending.
///
/// # Sparse execution contract
///
/// The default policy ([`run_rounds`]) is event-driven: a node whose
/// closed in-neighborhood went silent is not executed at all. For that to
/// be indistinguishable from the dense oracle ([`run_rounds_dense`]),
/// implementations must satisfy three properties:
///
/// 1. **`send` is a pure function of `(state, ctx)`** — the signature
///    already enforces this (no RNG, no `&mut` state; the sink only takes
///    messages): a node whose state did not change resends exactly what it
///    sent last round, or stays silent.
/// 2. **Silent and deaf ⇒ inert.** In any round where a node sent no
///    messages *and* received none, its `receive` (which the dense oracle
///    still calls, with an empty inbox) must leave the state untouched and
///    must not draw from the RNG. A node that needs to make progress while
///    hearing nothing must keep itself scheduled by sending a message
///    (e.g. a keep-alive on one port); a node that is done must stop
///    sending.
/// 3. **`output` is a pure, stable function of state**: after returning
///    `Some`, later calls return the same value. The engine exploits this
///    by polling a node's output only when it was re-executed.
///
/// Both shipped protocols (`luby_rounds`, `matching_rounds`) follow the
/// contract; the dense oracle remains available for algorithms that
/// cannot.
pub trait RoundAlgorithm {
    /// Per-node mutable state.
    type State;
    /// Message type (unbounded size, per the model). The engine moves each
    /// message once, into the sender's outbox slot, and lends it to the
    /// receiver from there; it never clones one.
    type Msg;
    /// Per-node final output.
    type Output: Clone;

    /// Initial state of a node.
    fn init(&self, ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> Self::State;

    /// Sends this round's messages: one call `out(port, message)` per
    /// message, in any port order. The engine's sink writes each message
    /// straight into the node's outbox slot for `port`. Ports must be
    /// valid (`< ctx.degree`), with at most one message per port; a node
    /// that never calls `out` is silent this round.
    fn send(&self, state: &Self::State, ctx: &NodeCtx, out: impl FnMut(usize, Self::Msg));

    /// Digests this round's inbox: `(port, message)` pairs in ascending
    /// port order, one per port that received a message, each borrowing
    /// the message where the sender's `send` left it. For a self-loop, a
    /// message sent on one of the loop's ports arrives on the other. The
    /// iterator is lazy: a `receive` that stops early skips the rest.
    fn receive<'m>(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx,
        inbox: impl Iterator<Item = (usize, &'m Self::Msg)>,
        rng: &mut ChaCha8Rng,
    ) where
        Self::Msg: 'm;

    /// The node's output, once it has decided. Must be stable: after
    /// returning `Some`, later rounds must return the same value.
    fn output(&self, state: &Self::State, ctx: &NodeCtx) -> Option<Self::Output>;
}

/// Result of a round-engine run.
#[derive(Clone, Debug)]
pub struct RoundOutcome<O> {
    /// Per-node outputs, `None` for nodes that had not decided when the
    /// engine stopped.
    pub outputs: Vec<Option<O>>,
    /// Round accounting.
    pub trace: RoundTrace,
    /// `(index, LOCAL id)` of every node still undecided when the engine
    /// stopped, in index order. Empty whenever [`RoundTrace::completed`];
    /// kept so failures can be attributed to a concrete node.
    pub undecided: Vec<(usize, u64)>,
}

impl<O> RoundOutcome<O> {
    /// Unwraps all outputs.
    ///
    /// # Panics
    ///
    /// Panics if some node never decided (run hit the round cap), naming
    /// the first undecided node (LOCAL id and index) and the number of
    /// rounds executed.
    #[must_use]
    pub fn into_outputs(self) -> Vec<O> {
        if let Some(&(index, id)) = self.undecided.first() {
            panic!(
                "{k} of {n} nodes undecided when the round engine stopped after {rounds} rounds \
                 (round cap hit): first undecided node has id {id} at index {index}",
                k = self.undecided.len(),
                n = self.outputs.len(),
                rounds = self.trace.rounds,
            );
        }
        self.outputs
            .into_iter()
            .map(|o| o.expect("empty undecided list implies every output is present"))
            .collect()
    }
}

/// Stateless per-`(seed, id, index)` random word: SplitMix64 over a mixed
/// key. The round engine derives each node's RNG stream from it, keyed by
/// the node's LOCAL identifier, and executor-threaded randomized runners
/// (e.g. `lcl_algos::sinkless_rand`) use it for counter-mode draws that are
/// independent of node iteration order — the property that makes parallel
/// runs bit-identical to sequential ones.
#[must_use]
pub fn rand_word(seed: u64, id: u64, k: u64) -> u64 {
    let mut z =
        seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True when `LCL_DENSE_ROUNDS` forces the dense oracle behind the default
/// entry points (read once per process).
fn dense_override() -> bool {
    static DENSE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DENSE.get_or_init(|| {
        std::env::var_os("LCL_DENSE_ROUNDS").is_some_and(|v| !v.is_empty() && v != *"0")
    })
}

/// Runs a round algorithm for at most `max_rounds` rounds on the active
/// frontier, on the calling thread ([`run_rounds_with`] under
/// [`Sequential`]).
///
/// A node is executed in a round only if it or a neighbor sent a message
/// last round (see the
/// [sparse-execution contract](RoundAlgorithm#sparse-execution-contract));
/// when the frontier goes quiescent with undecided nodes left, no state
/// can ever change again, so the engine fast-forwards straight to the
/// round cap — with accounting identical to the dense oracle spinning
/// there.
///
/// Determinism: node `v`'s RNG stream is seeded from `(seed, id(v))`, so a
/// run is reproducible and independent of node iteration order.
///
/// # Panics
///
/// Panics — attributed as an **algorithm violation**, with node, degree,
/// port, and round — if a node breaks the [`RoundAlgorithm::send`]
/// contract: a port it does not have, or two messages on one port. When
/// several nodes offend in a round, it names the lowest-index one under
/// every executor.
pub fn run_rounds<A>(net: &Network, alg: &A, seed: u64, max_rounds: u32) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Send,
{
    run_rounds_with(net, alg, seed, max_rounds, &Sequential)
}

/// [`run_rounds`] with a pluggable [`NodeExecutor`]: both phases of every
/// round fan out across the executor over the active frontier, and the
/// outcome is bit-identical to [`run_rounds`] under **any** executor.
pub fn run_rounds_with<A, X>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
    exec: &X,
) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Send,
    X: NodeExecutor,
{
    let frontier = if dense_override() { Frontier::All } else { Frontier::Active };
    run_engine(net, alg, seed, max_rounds, exec, frontier)
}

/// The dense oracle: every node executes every round, on the calling
/// thread. Bit-identical to [`run_rounds`] for contract-honoring algorithms
/// (enforced by proptests and CI); kept as the correctness reference and
/// for algorithms that rely on being called while idle.
pub fn run_rounds_dense<A>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Send,
{
    run_engine(net, alg, seed, max_rounds, &Sequential, Frontier::All)
}

/// [`run_rounds_dense`] with a pluggable [`NodeExecutor`], bit-identical
/// to it under **any** executor.
pub fn run_rounds_dense_with<A, X>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
    exec: &X,
) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Send,
    X: NodeExecutor,
{
    run_engine(net, alg, seed, max_rounds, exec, Frontier::All)
}

/// Frontier nodes per pooled work item.
const CHUNK: usize = 512;

/// Which nodes a round executes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Frontier {
    /// Last round's senders and receivers (round 1: every node).
    Active,
    /// Every node, every round: the dense oracle.
    All,
}

/// The engine behind every `run_rounds*` entry point.
fn run_engine<A, X>(
    net: &Network,
    alg: &A,
    seed: u64,
    max_rounds: u32,
    exec: &X,
    frontier: Frontier,
) -> RoundOutcome<A::Output>
where
    A: RoundAlgorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
    A::Output: Send,
    X: NodeExecutor,
{
    let n = net.len();
    let ids = net.ids();
    let plane = net.port_plane(exec);
    let ctx = |v: usize| NodeCtx {
        id: ids[v],
        degree: plane.degree(v),
        known_n: net.known_n(),
        max_degree: net.max_degree(),
    };
    // Per-node state and RNG live side by side, so one pass mutates both.
    let mut cells: Vec<(A::State, ChaCha8Rng)> = exec.map_nodes(n, |v| {
        let mut rng = ChaCha8Rng::seed_from_u64(rand_word(seed, ids[v], 0x0C0D_E5EED));
        (alg.init(&ctx(v), &mut rng), rng)
    });
    // Outputs are polled only for nodes that ran and only while undecided;
    // the buffer doubles as the final outputs.
    let mut outputs: Vec<Option<A::Output>> =
        exec.map_nodes(n, |v| alg.output(&cells[v].0, &ctx(v)));
    let mut undecided = outputs.iter().filter(|o| o.is_none()).count();

    let mut slots: Vec<Slot<A::Msg>> =
        exec.map_nodes(plane.mate.len(), |_| Slot { stamp: 0, msg: None });
    let mut marks: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    // Round 1 executes everyone, as the dense oracle does.
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0;
    let mut completed = undecided == 0;
    while !completed && rounds < max_rounds {
        let round = rounds + 1;
        let marking = (frontier == Frontier::Active).then_some(&marks[..]);

        // Send: each frontier node writes through the sink into its own
        // outbox slots.
        let starts: Vec<usize> =
            nodes.chunks(CHUNK).map(|c| plane.first[c[0] as usize] as usize).collect();
        let mut work: Vec<SendChunk<'_, A::Msg>> = nodes
            .chunks(CHUNK)
            .zip(carve(&mut slots, &starts))
            .map(|(nodes, slots)| SendChunk { nodes, slots, violation: None })
            .collect();
        exec.update_nodes(&mut work, |_, chunk| {
            let base = plane.first[chunk.nodes[0] as usize] as usize;
            for &v in chunk.nodes {
                let vi = v as usize;
                let first = plane.first[vi] as usize;
                let own = &mut chunk.slots[first - base..][..plane.degree(vi)];
                let mut sent = false;
                // The node's first breach; the sink drops what follows it.
                let mut breach = None;
                alg.send(&cells[vi].0, &ctx(vi), |port, msg| {
                    sent = true;
                    if breach.is_some() {
                        return;
                    }
                    match own.get_mut(port) {
                        Some(slot) if slot.stamp != round => {
                            *slot = Slot { stamp: round, msg: Some(msg) };
                            if let Some(marks) = marking {
                                mark(marks, plane.peer[first + port]);
                            }
                        }
                        Some(_) => breach = Some(("sent twice on port", port)),
                        None => breach = Some(("sent on invalid port", port)),
                    }
                });
                if let Some((what, port)) = breach {
                    chunk.violation = Some(format!(
                        "algorithm violation: node {:?} (degree {}) {what} {port} in round \
                         {round}",
                        NodeId(v),
                        plane.degree(vi),
                    ));
                    return;
                }
                if let (true, Some(marks)) = (sent, marking) {
                    mark(marks, v);
                }
            }
        });
        // Chunks run in index order and stop at their first offender, so
        // the first recorded violation is the lowest-index one.
        if let Some(violation) = work.iter().find_map(|c| c.violation.as_ref()) {
            panic!("{violation}");
        }
        if frontier == Frontier::Active {
            drain_marks(&mut marks, &mut nodes);
        }

        // Receive: each node reads its inbox in place and updates its cell.
        let starts: Vec<usize> = nodes.chunks(CHUNK).map(|c| c[0] as usize).collect();
        let mut work: Vec<RecvChunk<'_, A::State, A::Output>> = nodes
            .chunks(CHUNK)
            .zip(carve(&mut cells, &starts))
            .zip(carve(&mut outputs, &starts))
            .map(|((nodes, cells), outputs)| RecvChunk { nodes, cells, outputs, decided: 0 })
            .collect();
        exec.update_nodes(&mut work, |_, chunk| {
            let base = chunk.nodes[0] as usize;
            for &v in chunk.nodes {
                let vi = v as usize;
                let first = plane.first[vi] as usize;
                let inbox = plane.mate[first..][..plane.degree(vi)].iter().enumerate().filter_map(
                    |(port, &s)| {
                        let slot = &slots[s as usize];
                        slot.msg.as_ref().filter(|_| slot.stamp == round).map(|msg| (port, msg))
                    },
                );
                let c = ctx(vi);
                let (state, rng) = &mut chunk.cells[vi - base];
                alg.receive(state, &c, inbox, rng);
                let out = &mut chunk.outputs[vi - base];
                if out.is_none() {
                    *out = alg.output(state, &c);
                    chunk.decided += usize::from(out.is_some());
                }
            }
        });
        undecided -= work.iter().map(|c| c.decided).sum::<usize>();

        rounds = round;
        completed = undecided == 0;
        if !completed && nodes.is_empty() {
            // Quiescent but undecided: no node will ever run again, so the
            // dense oracle would spin unchanged until the cap.
            rounds = max_rounds;
        }
    }

    let undecided = (0..n).filter(|&i| outputs[i].is_none()).map(|i| (i, ids[i])).collect();
    RoundOutcome { outputs, trace: RoundTrace { rounds, completed }, undecided }
}

/// The round engine's routing tables, in node-major CSR order: slot
/// `first[v] + p` is port `p` of node `v`. A [`Network`] builds its plane
/// once, on the first round-algorithm run, and every later run shares it.
#[derive(Clone, Debug)]
pub(crate) struct PortPlane {
    /// Per node, plus one: the first slot of the node.
    first: Vec<u32>,
    /// Per slot, as a receiving port: the slot whose message arrives there.
    mate: Vec<u32>,
    /// Per slot, as a sending port: the node its message arrives at.
    peer: Vec<u32>,
}

impl PortPlane {
    /// Builds the plane of `g` across `exec`: each block of `CHUNK` nodes
    /// fills its own range of the zeroed `mate` and `peer` tables.
    pub(crate) fn build<X: NodeExecutor>(g: &Graph, exec: &X) -> PortPlane {
        let n = g.node_count();
        let mut first = Vec::with_capacity(n + 1);
        first.push(0u32);
        for v in g.nodes() {
            first.push(first[v.index()] + g.degree(v) as u32);
        }
        let slots = first[n] as usize;
        let (mut mate, mut peer) = (vec![0u32; slots], vec![0u32; slots]);
        let starts: Vec<usize> = (0..n).step_by(CHUNK).map(|v| first[v] as usize).collect();
        // Block `k`: nodes from `k * CHUNK` on, and their `mate` and `peer`
        // ranges.
        let mut blocks: Vec<(&mut [u32], &mut [u32])> =
            carve(&mut mate, &starts).into_iter().zip(carve(&mut peer, &starts)).collect();
        exec.update_nodes(&mut blocks, |k, (mate, peer)| {
            let head = k * CHUNK;
            let base = first[head] as usize;
            for v in head..n.min(head + CHUNK) {
                let own = first[v] as usize - base;
                for (p, &h) in g.ports(NodeId(v as u32)).iter().enumerate() {
                    let w = g.half_edge_peer(h);
                    // A message sent on `h` arrives at the peer's port for
                    // the opposite half-edge; for a self-loop, at the other
                    // port.
                    mate[own + p] = first[w.index()] + g.peer_port(h) as u32;
                    peer[own + p] = w.0;
                }
            }
        });
        PortPlane { first, mate, peer }
    }

    fn degree(&self, v: usize) -> usize {
        (self.first[v + 1] - self.first[v]) as usize
    }
}

/// One outbox slot: the message sent on it, live iff `stamp` is the
/// current round (stamps start at 0, rounds at 1).
struct Slot<M> {
    stamp: u32,
    msg: Option<M>,
}

/// A send-phase work item: frontier nodes and the outbox slots they own,
/// from the first node's first slot on.
struct SendChunk<'a, M> {
    nodes: &'a [u32],
    slots: &'a mut [Slot<M>],
    /// The chunk's first breach of the [`RoundAlgorithm::send`] contract;
    /// the chunk stops there.
    violation: Option<String>,
}

/// A receive-phase work item: frontier nodes and the cells and outputs
/// they own, from the first node on.
struct RecvChunk<'a, S, O> {
    nodes: &'a [u32],
    cells: &'a mut [(S, ChaCha8Rng)],
    outputs: &'a mut [Option<O>],
    /// Nodes that decided in this pass.
    decided: usize,
}

/// Splits `items` at the ascending offsets `starts`: piece `k` runs from
/// `starts[k]` to the next start (the last one to the end). Items before
/// `starts[0]` belong to no piece.
fn carve<'a, T>(mut items: &'a mut [T], starts: &[usize]) -> Vec<&'a mut [T]> {
    let mut pieces = Vec::with_capacity(starts.len());
    for &s in starts.iter().rev() {
        let (head, tail) = std::mem::take(&mut items).split_at_mut(s);
        pieces.push(tail);
        items = head;
    }
    pieces.reverse();
    pieces
}

/// Adds node `v` to the next frontier. Relaxed suffices: the bitmap is
/// read only after the phase, behind the executor's join.
fn mark(marks: &[AtomicU64], v: u32) {
    let (word, bit) = (&marks[v as usize / 64], 1u64 << (v % 64));
    if word.load(Ordering::Relaxed) & bit == 0 {
        word.fetch_or(bit, Ordering::Relaxed);
    }
}

/// Replaces `nodes` with the marked nodes, in index order, and clears the
/// bitmap.
fn drain_marks(marks: &mut [AtomicU64], nodes: &mut Vec<u32>) {
    nodes.clear();
    for (w, word) in marks.iter_mut().enumerate() {
        let mut bits = std::mem::take(word.get_mut());
        while bits != 0 {
            nodes.push(w as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdAssignment;
    use lcl_graph::gen;

    /// Flood the maximum id: each round every node broadcasts the largest id
    /// it has seen; a node decides once its value has been stable for one
    /// round. On a path of n nodes this takes Θ(n) rounds.
    ///
    /// Sparse-contract conformant: every degree-≥1 node broadcasts every
    /// round (so it is never skipped), and degree-0 nodes decide at birth.
    struct FloodMax;

    struct FloodState {
        best: u64,
        stable_for: u32,
    }

    impl RoundAlgorithm for FloodMax {
        type State = FloodState;
        type Msg = u64;
        type Output = u64;

        fn init(&self, ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> FloodState {
            FloodState { best: ctx.id, stable_for: 0 }
        }

        fn send(&self, state: &FloodState, ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
            (0..ctx.degree).for_each(|p| out(p, state.best));
        }

        fn receive<'m>(
            &self,
            state: &mut FloodState,
            _ctx: &NodeCtx,
            inbox: impl Iterator<Item = (usize, &'m u64)>,
            _rng: &mut ChaCha8Rng,
        ) {
            let incoming = inbox.map(|(_, &m)| m).max().unwrap_or(0);
            if incoming > state.best {
                state.best = incoming;
                state.stable_for = 0;
            } else {
                state.stable_for += 1;
            }
        }

        fn output(&self, state: &FloodState, ctx: &NodeCtx) -> Option<u64> {
            // Decide after the value has been stable for known_n rounds —
            // a crude but correct termination rule for tests. An isolated
            // node hears nothing, ever: it decides at birth.
            (ctx.degree == 0 || state.stable_for >= ctx.known_n as u32).then_some(state.best)
        }
    }

    #[test]
    fn flood_max_converges_on_path() {
        let net = Network::new(gen::path(6), IdAssignment::Shuffled { seed: 1 });
        let out = run_rounds(&net, &FloodMax, 0, 100);
        assert!(out.trace.completed);
        assert!(out.undecided.is_empty());
        let vals = out.into_outputs();
        assert!(vals.iter().all(|&v| v == 6));
    }

    #[test]
    fn round_cap_stops_early() {
        let net = Network::new(gen::path(6), IdAssignment::Sequential);
        let out = run_rounds(&net, &FloodMax, 0, 2);
        assert!(!out.trace.completed);
        assert_eq!(out.trace.rounds, 2);
        assert!(out.outputs.iter().any(Option::is_none));
        assert_eq!(out.undecided.len(), out.outputs.iter().filter(|o| o.is_none()).count());
    }

    #[test]
    #[should_panic(expected = "6 of 6 nodes undecided when the round engine stopped after 2 \
                               rounds (round cap hit): first undecided node has id 1 at index 0")]
    fn into_outputs_names_the_first_undecided_node() {
        let net = Network::new(gen::path(6), IdAssignment::Sequential);
        let _ = run_rounds(&net, &FloodMax, 0, 2).into_outputs();
    }

    #[test]
    fn sparse_matches_dense_on_flood() {
        for g in [gen::path(9), gen::cycle(12), gen::random_tree(20, 3)] {
            let net = Network::new(g, IdAssignment::Shuffled { seed: 5 });
            let sparse = run_rounds(&net, &FloodMax, 3, 200);
            let dense = run_rounds_dense(&net, &FloodMax, 3, 200);
            assert_eq!(sparse.outputs, dense.outputs);
            assert_eq!(sparse.trace, dense.trace);
            assert_eq!(sparse.undecided, dense.undecided);
        }
    }

    /// A protocol that goes quiescent without deciding: nobody ever sends,
    /// nobody ever decides. The sparse engine must fast-forward to the
    /// round cap with accounting identical to the dense oracle spinning
    /// there.
    struct Mute;

    impl RoundAlgorithm for Mute {
        type State = ();
        type Msg = ();
        type Output = u64;

        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {}
        fn send(&self, _s: &Self::State, _c: &NodeCtx, _out: impl FnMut(usize, ())) {}
        fn receive<'m>(
            &self,
            _s: &mut (),
            _c: &NodeCtx,
            _i: impl Iterator<Item = (usize, &'m ())>,
            _r: &mut ChaCha8Rng,
        ) {
        }
        fn output(&self, _s: &(), _c: &NodeCtx) -> Option<u64> {
            None
        }
    }

    #[test]
    fn quiescent_frontier_fast_forwards_to_the_cap() {
        let net = Network::new(gen::cycle(8), IdAssignment::Sequential);
        let sparse = run_rounds(&net, &Mute, 0, 5000);
        let dense = run_rounds_dense(&net, &Mute, 0, 5000);
        assert_eq!(sparse.trace, dense.trace);
        assert_eq!(sparse.trace.rounds, 5000);
        assert!(!sparse.trace.completed);
        assert_eq!(sparse.outputs, dense.outputs);
        assert_eq!(sparse.undecided.len(), 8);
    }

    /// Message routing sanity: every node sends its id on every port and
    /// checks the inbox matches its neighbors in port order.
    struct PortEcho;

    impl RoundAlgorithm for PortEcho {
        type State = Option<Vec<u64>>;
        type Msg = u64;
        type Output = Vec<u64>;

        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {
            None
        }

        fn send(&self, _state: &Self::State, ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
            (0..ctx.degree).for_each(|p| out(p, ctx.id));
        }

        fn receive<'m>(
            &self,
            state: &mut Self::State,
            _ctx: &NodeCtx,
            inbox: impl Iterator<Item = (usize, &'m u64)>,
            _rng: &mut ChaCha8Rng,
        ) {
            if state.is_none() {
                *state = Some(inbox.map(|(_, &m)| m).collect());
            }
        }

        fn output(&self, state: &Self::State, ctx: &NodeCtx) -> Option<Vec<u64>> {
            if ctx.degree == 0 {
                return Some(Vec::new());
            }
            state.clone()
        }
    }

    #[test]
    fn messages_arrive_from_correct_neighbors() {
        let net = Network::new(gen::cycle(5), IdAssignment::Sequential);
        let out = run_rounds(&net, &PortEcho, 0, 10);
        let vals = out.into_outputs();
        // Node 0 of cycle(5) neighbors nodes 1 (port 0) and 4 (port 1):
        // ids are sequential = index + 1.
        assert_eq!(vals[0], vec![2, 5]);
        assert_eq!(vals[2], vec![2, 4]);
    }

    /// Sends its own port number on every port and records the first
    /// inbox as `(receiving port, sending port)` pairs.
    struct PortNumbers;

    impl RoundAlgorithm for PortNumbers {
        type State = Option<Vec<(usize, usize)>>;
        type Msg = usize;
        type Output = Vec<(usize, usize)>;

        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {
            None
        }

        fn send(&self, _state: &Self::State, ctx: &NodeCtx, mut out: impl FnMut(usize, usize)) {
            (0..ctx.degree).for_each(|p| out(p, p));
        }

        fn receive<'m>(
            &self,
            state: &mut Self::State,
            _ctx: &NodeCtx,
            inbox: impl Iterator<Item = (usize, &'m usize)>,
            _rng: &mut ChaCha8Rng,
        ) {
            state.get_or_insert_with(|| inbox.map(|(port, &from)| (port, from)).collect());
        }

        fn output(&self, state: &Self::State, _ctx: &NodeCtx) -> Option<Vec<(usize, usize)>> {
            state.clone()
        }
    }

    #[test]
    fn self_loop_messages_cross_the_loop() {
        let mut g = lcl_graph::Graph::new();
        let v = g.add_node();
        g.add_edge(v, v);
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run_rounds(&net, &PortEcho, 0, 10);
        // The node hears itself on both ports of the loop.
        assert_eq!(out.into_outputs()[0], vec![1, 1]);

        // Port-exact: what leaves on one port of the loop arrives on the
        // other. Node 0 has the loop on ports 0 and 1 and node 1 on port 2.
        let mut g = lcl_graph::Graph::new();
        let (a, b) = (g.add_node(), g.add_node());
        g.add_edge(a, a);
        g.add_edge(a, b);
        let net = Network::new(g, IdAssignment::Sequential);
        let out = run_rounds(&net, &PortNumbers, 0, 10).into_outputs();
        assert_eq!(out[0], vec![(0, 1), (1, 0), (2, 0)]);
        assert_eq!(out[1], vec![(0, 2)]);
    }

    /// A network builds its plane once, block by block, and every later
    /// run shares it: each port's `peer` and `mate` entry names the
    /// neighbor and the neighbor's port for the same edge.
    #[test]
    fn the_port_plane_is_built_once_per_network() {
        let g = gen::random_regular_multigraph(3 * CHUNK + 6, 3, 4).expect("even n is generable");
        let net = Network::new(g, IdAssignment::Sequential);
        let plane = net.port_plane(&Sequential);
        let g = net.graph();
        for v in g.nodes() {
            let first = plane.first[v.index()] as usize;
            assert_eq!(plane.degree(v.index()), g.degree(v));
            for (p, &h) in g.ports(v).iter().enumerate() {
                let w = g.half_edge_peer(h);
                assert_eq!(plane.peer[first + p], w.0, "{v:?} port {p}");
                let mate = plane.first[w.index()] as usize + g.peer_port(h);
                assert_eq!(plane.mate[first + p] as usize, mate, "{v:?} port {p}");
            }
        }
        let _ = run_rounds(&net, &FloodMax, 0, 3);
        assert!(std::ptr::eq(plane, net.port_plane(&Sequential)), "a run reuses the plane");
    }

    #[test]
    fn rng_streams_are_reproducible() {
        struct CoinOnce;
        impl RoundAlgorithm for CoinOnce {
            type State = u64;
            type Msg = ();
            type Output = u64;
            fn init(&self, _ctx: &NodeCtx, rng: &mut ChaCha8Rng) -> u64 {
                rand::Rng::gen(rng)
            }
            fn send(&self, _s: &u64, _c: &NodeCtx, _out: impl FnMut(usize, ())) {}
            fn receive<'m>(
                &self,
                _s: &mut u64,
                _c: &NodeCtx,
                _i: impl Iterator<Item = (usize, &'m ())>,
                _r: &mut ChaCha8Rng,
            ) {
            }
            fn output(&self, s: &u64, _c: &NodeCtx) -> Option<u64> {
                Some(*s)
            }
        }
        let net = Network::new(gen::cycle(4), IdAssignment::Sequential);
        let a = run_rounds(&net, &CoinOnce, 9, 1).into_outputs();
        let b = run_rounds(&net, &CoinOnce, 9, 1).into_outputs();
        assert_eq!(a, b);
        let c = run_rounds(&net, &CoinOnce, 10, 1).into_outputs();
        assert_ne!(a, c);
    }

    /// Every node RNG stream and every counter-mode draw derives from
    /// `rand_word`, so its values are pinned: a change here changes rows.
    #[test]
    fn rand_word_values_are_pinned() {
        let engine_key = 0x0C0D_E5EED;
        for (seed, id, k, word) in [
            (0, 0, 0, 0xE220_A839_7B1D_CDAF),
            (42, 7, engine_key, 0xFBEB_960F_3925_E740),
            (0xDEAD_BEEF, u64::MAX, engine_key, 0x5B2F_A3FB_71BD_18D0),
            (u64::MAX, 1, 3, 0x5B42_D938_1594_14DD),
            (161, 1 << 40, 0, 0xF226_C7D0_BC28_590A),
        ] {
            assert_eq!(rand_word(seed, id, k), word, "rand_word({seed:#x}, {id:#x}, {k:#x})");
        }
    }

    /// A deliberately broken protocol: sends on `degree` (one past the
    /// last valid port) when `bad_port`, else sends twice on port 0.
    struct Misbehaver {
        bad_port: bool,
    }

    impl RoundAlgorithm for Misbehaver {
        type State = ();
        type Msg = u64;
        type Output = u64;
        fn init(&self, _ctx: &NodeCtx, _rng: &mut ChaCha8Rng) -> Self::State {}
        fn send(&self, _s: &Self::State, ctx: &NodeCtx, mut out: impl FnMut(usize, u64)) {
            if self.bad_port {
                out(ctx.degree, 1);
            } else {
                out(0, 1);
                out(0, 2);
            }
        }
        fn receive<'m>(
            &self,
            _s: &mut (),
            _c: &NodeCtx,
            _i: impl Iterator<Item = (usize, &'m u64)>,
            _r: &mut ChaCha8Rng,
        ) {
        }
        fn output(&self, _s: &(), _c: &NodeCtx) -> Option<u64> {
            None
        }
    }

    #[test]
    #[should_panic(expected = "algorithm violation: node n0 (degree 2) sent on invalid port 2 \
                               in round 1")]
    fn invalid_port_is_attributed_as_algorithm_violation() {
        let net = Network::new(gen::cycle(3), IdAssignment::Sequential);
        let _ = run_rounds(&net, &Misbehaver { bad_port: true }, 0, 2);
    }

    #[test]
    #[should_panic(expected = "algorithm violation: node n0 (degree 2) sent twice on port 0 in \
                               round 1")]
    fn double_send_is_attributed_as_algorithm_violation() {
        let net = Network::new(gen::cycle(3), IdAssignment::Sequential);
        let _ = run_rounds(&net, &Misbehaver { bad_port: false }, 0, 2);
    }
}
