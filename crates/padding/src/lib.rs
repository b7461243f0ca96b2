//! Padded LCLs: the Section-3 construction of the paper.
//!
//! Given an ne-LCL `Π` and a `(d, Δ)`-gadget family, Section 3 defines a
//! new problem `Π'` whose deterministic and randomized complexities are
//! both multiplied by `Θ(d(n))` (Theorem 1). This crate implements:
//!
//! * [`problem`]: the inner-problem interface ([`problem::InnerProblem`]),
//!   an ne-LCL plus filler labels, implemented for sinkless orientation and
//!   for padded problems themselves (enabling the recursion of Section 5);
//! * [`padded`]: padded graphs `G(G)` (Definition 3, Figure 2) — every
//!   node of a base graph replaced by a gadget, base edges becoming
//!   `PortEdge`s between gadget ports;
//! * [`lifted`]: the problem `Π'` (Section 3.3) — its input/output label
//!   structure (`Σ_list`, port flags, the `Ψ_G` layer), its constraints 1
//!   and 3–6 as one ne-LCL (`impl NeLcl for PaddedProblem`, with the port
//!   mapping `α` of Figure 4), and [`check_padded`], which adds constraint
//!   2 on each gadget component;
//! * [`solver`]: the upper-bound algorithm of Lemma 4 — verify gadgets,
//!   flag ports, contract valid gadgets into a virtual graph, simulate the
//!   inner algorithm there, and write the solution back into `Σ_list`;
//! * [`hard`]: the lower-bound instances of Lemma 5 with `f(x) = ⌊√x⌋`:
//!   a hard base graph on `f(n)` nodes padded with balanced gadgets of
//!   `Θ(n/f(n))` nodes;
//! * [`hierarchy`]: the problems `Π_i` of Theorem 11, with their
//!   deterministic and randomized solvers for `i = 1, 2, 3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hard;
pub mod hierarchy;
pub mod lifted;
pub mod padded;
pub mod problem;
pub mod solver;

pub use lifted::{check_padded, PadIn, PadOut, PaddedProblem, PortFlag, SigmaList};
pub use padded::{pad_graph, PaddedInstance};
pub use problem::{InnerProblem, PiAlgorithm, PiRun, SinklessInner};
pub use solver::{PadStats, PaddedAlgorithm};
