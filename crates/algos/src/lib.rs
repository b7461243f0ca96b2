//! Distributed LOCAL-model algorithms.
//!
//! This crate implements the algorithms whose complexities the paper quotes:
//!
//! * [`sinkless_det`]: deterministic sinkless orientation in `Θ(log n)`
//!   rounds — the folklore "orient toward the nearest short cycle"
//!   algorithm, with a canonical-cycle rule making the per-edge decisions
//!   endpoint-consistent;
//! * [`sinkless_rand`]: randomized sinkless orientation with the
//!   shattering structure underlying the `Θ(log log n)` bound of
//!   Ghaffari–Su: `O(log log n)` propose/retry rounds, then exact solving of
//!   the (w.h.p. polylog-size) residual components;
//! * [`linial`]: Linial color reduction to `Δ + 1` colors in
//!   `O(log* n + Δ²)` rounds — on cycles this is the classical 3-coloring
//!   reference point of the paper's Figure 1;
//! * [`luby`]: Luby-style maximal independent set, `O(log n)` rounds w.h.p.
//!   (plus [`luby_rounds`], the same algorithm as genuine message passing
//!   on the round engine);
//! * [`matching`]: randomized greedy maximal matching, `O(log n)` rounds
//!   w.h.p.;
//! * [`decomposition`]: randomized `(O(log n), O(log n))` network
//!   decomposition (Linial–Saks) — the companion to the paper's discussion
//!   of the `D(n)/R(n) ≫ log n` open question.
//!
//! # Simulation style and honesty
//!
//! Each algorithm is *specified* as a LOCAL algorithm (a function of
//! per-node views / synchronous rounds) and *executed* as an efficient
//! centralized simulation that computes exactly what the distributed nodes
//! would compute, together with an honest account of the locality
//! (view radius or round count) every node would have needed. Tests validate
//! honesty two ways: outputs always pass the `lcl-core` checker, and
//! locality audits confirm a node's output is unchanged under arbitrary
//! modifications outside its reported radius (see
//! `tests/locality_audit.rs` at the workspace root).
//!
//! # Self-certification and typed failures
//!
//! Every runner additionally lowers its finished output into a plain
//! [`lcl_certify::Solution`] and replays it through the independent
//! `lcl-certify` checkers whenever [`lcl_certify::enabled`] says so
//! (debug builds, or `LCL_CERTIFY=1`): the algorithms do not grade their
//! own homework. Pathological instances surface as typed
//! [`error::AlgoError`]s through the `try_run*` variants instead of
//! panicking the shared worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomposition;
pub mod edge_coloring;
pub mod error;
pub mod linial;
pub mod luby;
pub mod luby_rounds;
pub mod matching;
pub mod matching_rounds;
pub mod rules;
pub mod sinkless_det;
pub mod sinkless_rand;
