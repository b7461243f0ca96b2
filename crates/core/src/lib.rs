//! Node-edge-checkable LCL problems (ne-LCLs): formalism, checker, zoo.
//!
//! Section 2 of the paper restricts attention to LCLs whose correctness is
//! checkable "on nodes and edges": inputs and outputs are labels on
//! `V ∪ E ∪ B` (nodes, edges, and half-edges `B = {(v, e) | v ∈ e}`), and a
//! solution is correct iff
//!
//! * the **node constraint** `C_N` holds at every node — a predicate over
//!   the labels of the node, its incident edges, and its incident
//!   half-edges; and
//! * the **edge constraint** `C_E` holds at every edge — a predicate over
//!   the labels of `{u, v, e, (u, e), (v, e)}`.
//!
//! Neither constraint may depend on identifiers or port numbers.
//!
//! This crate provides:
//!
//! * [`Labeling`]: a total assignment of labels to `V ∪ E ∪ B`;
//! * [`NeLcl`]: the trait a problem implements (its constraints);
//! * [`check`]: the distributed-style verifier (it reports *which* node or
//!   edge rejects, as the model requires);
//! * [`assemble`]: the bridge from per-node local outputs (each node labels
//!   itself and, port by port, its half-edge and a proposal for the edge;
//!   endpoints must agree on edge labels) to a global [`Labeling`];
//! * [`problems`]: sinkless orientation (Figure 3 of the paper), vertex
//!   coloring, maximal matching, maximal independent set, and the trivial
//!   problem — the zoo populating the Figure-1 landscape experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod labeling;
mod problem;

pub mod problems;

pub use assemble::{assemble, AssembleError};
pub use labeling::Labeling;
pub use problem::{check, CheckResult, EdgeView, NeLcl, NodeView, Violation};
