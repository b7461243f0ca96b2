//! The `(log, Δ)`-gadget family of Section 4 of the paper.
//!
//! A **gadget** (Figure 6) consists of `Δ` **sub-gadgets** — complete
//! binary trees with horizontal paths threading each level (Figure 5) —
//! whose roots all attach to a single `Center` node. The bottom-right node
//! of sub-gadget `i` is the gadget's `Port i`. Constant-size input labels
//! (`Index_i`, `Port_i`, `Center` on nodes; `Parent`, `Left`, `Right`,
//! `LChild`, `RChild`, `Up`, `Down_i` on half-edges; a distance-2 coloring
//! per Section 4.6) make the structure **locally checkable**:
//!
//! * [`build`] constructs valid gadgets and sub-gadgets;
//! * [`checks`] implements the local structure constraints of Sections
//!   4.2–4.3 (every constraint function cites its paper number) — a graph
//!   passes everywhere iff it is a valid gadget (Lemmas 7–8);
//! * [`psi`] defines the LCL `Ψ` of Section 4.4: all-`Ok` on valid gadgets,
//!   error labels with locally-checkable pointer chains on invalid ones,
//!   plus the checker; Lemma 9 (no valid gadget admits a passing error
//!   labeling) is exercised by adversarial tests;
//! * [`verifier`] is algorithm `V` of Section 4.5: `O(log n)` rounds,
//!   outputs `Ok` everywhere on valid gadgets and a correct proof of error
//!   on invalid ones (Lemma 10);
//! * [`ne`] demonstrates the node-edge-checkability mechanisms of Section
//!   4.6 (Figures 7–8): duplicate-color proofs and labeled chain proofs;
//! * [`family`] packages everything as the `(d, Δ)`-gadget family interface
//!   of Definition 2 with `d = Θ(log)` (Theorem 6);
//! * [`corrupt`] provides the structural mutation operators used by the
//!   completeness checks: the `gadget_verifier` binary (E6) and the
//!   gadget fuzz tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod checks;
pub mod corrupt;
pub mod family;
pub mod labels;
pub mod ne;
pub mod psi;
pub mod render;
pub mod verifier;

pub use build::{build_gadget, build_subgadget, BuiltGadget, GadgetSpec};
pub use checks::structure_errors;
pub use family::{GadgetFamily, LogGadgetFamily};
pub use labels::{Dir, GadgetIn, NodeKind};
pub use psi::{check_psi, PsiOutput};
pub use render::render_gadget;
pub use verifier::{run_verifier, VerifierOutcome};
