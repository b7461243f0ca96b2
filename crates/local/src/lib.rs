//! A simulator for the LOCAL model of distributed computing.
//!
//! Section 2 of the paper defines the model this crate implements:
//!
//! * computation proceeds in synchronous rounds; per round every node
//!   exchanges messages with its neighbors (unbounded size) and computes
//!   (unbounded power);
//! * equivalently, a `T`-round algorithm is a function from each node's
//!   radius-`T` neighborhood (structure + identifiers + input labels) to its
//!   local output;
//! * nodes know `n`, `Δ`, their own unique identifier from `{1, …, poly(n)}`,
//!   and their degree.
//!
//! The crate runs the round formulation. Every algorithm of the
//! reproduction runs either as a protocol on the **round engine** or as a
//! centralized simulation that reports, per node, the view radius its
//! output depended on ([`LocalityTrace`]; by the equivalence above, the
//! maximum radius is the run's **measured complexity**, the number the
//! experiments plot).
//!
//! The **round engine** ([`run_rounds`], [`RoundAlgorithm`]) is explicit
//! synchronous message passing. One engine serves every entry point.
//! Messages travel through a **port plane**: each node's outbox slots sit
//! in node-major CSR order. In the send phase a node's
//! [`RoundAlgorithm::send`] writes each message through a sink straight
//! into its slot; in the receive phase [`RoundAlgorithm::receive`] reads
//! the node's inbox in port order as an iterator that borrows the messages
//! from the senders' slots, through a table of mated ports that the
//! network builds once and shares across runs. Nothing is allocated or
//! copied per node or per message. Both phases fan out across a
//! [`NodeExecutor`] in node-contiguous chunks. By default only the
//! **active frontier** runs — nodes whose closed neighborhood sent a
//! message last round; the dense oracle ([`run_rounds_dense`]) runs every
//! node every round and is bit-identical for algorithms honoring the
//! [sparse-execution contract](RoundAlgorithm#sparse-execution-contract).
//! [`map_components`] runs a computation on each connected component as
//! its own part network.
//!
//! Randomness is reproducible: every node draws from its own
//! counter-mode RNG stream derived from `(run seed, LOCAL identifier)`
//! ([`rand_word`]), not from its node index. A part network carries its
//! members' original identifiers, so sharded and store-backed runs draw
//! exactly the randomness of the whole-graph run.
//!
//! ```
//! use lcl_graph::gen;
//! use lcl_local::{Network, IdAssignment};
//!
//! let net = Network::new(gen::cycle(8), IdAssignment::Shuffled { seed: 1 });
//! assert_eq!(net.len(), 8);
//! let ids: Vec<u64> = net.graph().nodes().map(|v| net.id_of(v)).collect();
//! let mut sorted = ids.clone();
//! sorted.sort_unstable();
//! sorted.dedup();
//! assert_eq!(sorted.len(), 8, "identifiers are unique");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod rounds;
mod shard;
mod trace;

// The executor abstraction lives in `lcl_graph`, whose sharded store
// writer fans its jobs out through it too; the round engine takes it.
pub use lcl_graph::{NodeExecutor, Sequential};
pub use network::{assigned_ids, IdAssignment, Network};
pub use rounds::{
    rand_word, run_rounds, run_rounds_dense, run_rounds_dense_with, run_rounds_with, NodeCtx,
    RoundAlgorithm, RoundOutcome,
};
pub use shard::map_components;
pub use trace::{LocalityTrace, RoundTrace};
