//! The LCL problem `Ψ` of Section 4.4: all-`Ok` or a locally checkable
//! proof of error.
//!
//! Output alphabet: `Ok`, `Error`, or an **error pointer** in
//! `{Right, Left, Parent, RChild, Up, Down_i}`. The constraints:
//!
//! 1. every node outputs exactly one of the above (enforced by the type);
//! 2. a node outputs `Error` **iff** its constant-radius structure check
//!    (Sections 4.2–4.3, module [`crate::checks`]) fails;
//! 3. pointer chains are consistent (constraints 3a–3f of Section 4.4) —
//!    each pointer kind restricts what the pointed-to node may output;
//! 4. per connected component, either all nodes output `Ok` or none does
//!    (Section 4.4: "either all nodes output Ok, or all nodes output a
//!    (possibly different) error label").
//!
//! Lemma 9 — on a valid gadget no error labeling can satisfy the
//! constraints — is exercised by the adversarial tests at the bottom and by
//! property tests in the integration suite.

use crate::checks::{step, structure_errors};
use crate::labels::{Dir, GadgetIn, NodeKind};
use lcl_core::Labeling;
use lcl_graph::{Components, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Output alphabet of `Ψ`. The paper's `GadOk` is [`PsiOutput::Ok`]; the
/// error-label set `L_Err` is everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PsiOutput {
    /// The gadget looks valid.
    Ok,
    /// The node's constant-radius check failed.
    Error,
    /// An error pointer (one of `Right`, `Left`, `Parent`, `RChild`, `Up`,
    /// `Down_i`; the paper's list — note `LChild` is *not* a pointer).
    Pointer(Dir),
}

impl PsiOutput {
    /// True if the output is in `L_Err` (anything but `Ok`).
    #[must_use]
    pub fn is_error_label(self) -> bool {
        self != PsiOutput::Ok
    }
}

impl fmt::Display for PsiOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiOutput::Ok => write!(f, "Ok"),
            PsiOutput::Error => write!(f, "Error"),
            PsiOutput::Pointer(d) => write!(f, "→{d}"),
        }
    }
}

/// A violated `Ψ` constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PsiViolation {
    /// The node at which the violation is detected.
    pub node: NodeId,
    /// Which constraint, with the paper's numbering.
    pub why: String,
}

/// The pointer-successor table of constraints 3a–3f (Section 4.4): may a
/// node of kind `from` that outputs `→p` point, along its `p`-labelled
/// half-edge, at a node that outputs `target`?
///
/// * 3a `→Right` and 3b `→Left` continue the same way;
/// * 3c `→Parent` may reach `→Parent`, `→Left`, `→Right` or `→Up`;
/// * 3d `→RChild` may reach `→RChild`, `→Right` or `→Left`;
/// * 3e `→Up` from `Index_i` may reach `→Down_j` only for `j ≠ i`;
/// * 3f `→Down_i` may reach `→RChild`.
///
/// Every pointer may also reach `Error`, and none may reach `Ok`. `→LChild`
/// is never legal: the paper's pointer alphabet omits it.
#[must_use]
pub fn pointer_may_target(from: Option<NodeKind>, p: Dir, target: PsiOutput) -> bool {
    let t = match target {
        PsiOutput::Ok => return false,
        PsiOutput::Error => return p != Dir::LChild,
        PsiOutput::Pointer(t) => t,
    };
    match p {
        Dir::Right => t == Dir::Right,
        Dir::Left => t == Dir::Left,
        Dir::Parent => matches!(t, Dir::Parent | Dir::Left | Dir::Right | Dir::Up),
        Dir::RChild => matches!(t, Dir::RChild | Dir::Right | Dir::Left),
        Dir::Up => match (from, t) {
            (Some(NodeKind::Tree { index, .. }), Dir::Down(j)) => j != index,
            (_, Dir::Down(_)) => true,
            _ => false,
        },
        Dir::Down(_) => t == Dir::RChild,
        Dir::LChild => false,
    }
}

/// Checks a `Ψ` output labeling against the constraints of Section 4.4.
///
/// `delta` is the family's `Δ` (needed by the structure check).
#[must_use]
pub fn check_psi(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    output: &[PsiOutput],
    delta: usize,
) -> Vec<PsiViolation> {
    assert_eq!(output.len(), g.node_count(), "one Ψ output per node");
    let errs = structure_errors(g, input, delta);
    let mut violations = Vec::new();
    let mut push = |node: NodeId, why: String| violations.push(PsiViolation { node, why });

    // Constraint 2: Error ⟺ local structure violation.
    for v in g.nodes() {
        let is_err_out = output[v.index()] == PsiOutput::Error;
        if is_err_out != errs[v.index()] {
            push(
                v,
                format!(
                    "2: node outputs {} but its local check {}",
                    output[v.index()],
                    if errs[v.index()] { "fails" } else { "passes" }
                ),
            );
        }
    }

    // Constraint 4 (the all-or-nothing clause): per component.
    let comps = Components::new(g);
    for comp in comps.iter() {
        let oks = comp.iter().filter(|v| output[v.index()] == PsiOutput::Ok).count();
        if oks != 0 && oks != comp.len() {
            // Attribute to a node on an Ok/error boundary for diagnosis.
            let witness =
                comp.iter().copied().find(|v| output[v.index()] == PsiOutput::Ok).expect("some Ok");
            push(witness, "4: component mixes Ok with error labels".into());
        }
    }

    // Constraint 3: pointer chains.
    for v in g.nodes() {
        let PsiOutput::Pointer(p) = output[v.index()] else { continue };
        let clause = match p {
            Dir::Right => "3a",
            Dir::Left => "3b",
            Dir::Parent => "3c",
            Dir::RChild => "3d",
            Dir::Up => "3e",
            Dir::Down(_) => "3f",
            Dir::LChild => {
                push(v, "3: →LChild is not a legal error pointer".into());
                continue;
            }
        };
        match step(g, input, v, p) {
            Some(w) if pointer_may_target(input.node(v).kind(), p, output[w.index()]) => {}
            Some(w) => push(v, format!("{clause}: →{p} points at {}", output[w.index()])),
            None => push(v, format!("{clause}: →{p} with no {p} edge")),
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_gadget, GadgetSpec};

    #[test]
    fn all_ok_passes_on_valid_gadget() {
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        let out = vec![PsiOutput::Ok; b.len()];
        assert!(check_psi(&b.graph, &b.input, &out, 3).is_empty());
    }

    #[test]
    fn lemma9_error_claims_rejected_on_valid_gadget() {
        // Any node claiming Error on a valid gadget violates constraint 2.
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        let mut out = vec![PsiOutput::Ok; b.len()];
        out[b.center.index()] = PsiOutput::Error;
        let v = check_psi(&b.graph, &b.input, &out, 3);
        assert!(!v.is_empty());
        assert!(v.iter().any(|x| x.why.starts_with("2:")));
    }

    #[test]
    fn lemma9_all_point_to_center_rejected() {
        // The adversarial labeling from the Lemma 9 proof sketch: every
        // sub-gadget node points Parent/Up toward the center; the center
        // must then output Down_i, whose target root outputs Up — but 3f
        // requires Error or RChild there. Some constraint must fire.
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        let out: Vec<PsiOutput> = b
            .graph
            .nodes()
            .map(|v| match b.input.node(v).kind() {
                Some(NodeKind::Center) => PsiOutput::Pointer(Dir::Down(1)),
                Some(NodeKind::Tree { .. }) => {
                    if step(&b.graph, &b.input, v, Dir::Parent).is_some() {
                        PsiOutput::Pointer(Dir::Parent)
                    } else {
                        PsiOutput::Pointer(Dir::Up)
                    }
                }
                None => PsiOutput::Error,
            })
            .collect();
        let v = check_psi(&b.graph, &b.input, &out, 3);
        assert!(!v.is_empty(), "Lemma 9: the cheat must be caught");
    }

    #[test]
    fn lemma9_center_as_sink_rejected() {
        // Variant: everyone points at the center, and the center outputs
        // Ok: constraint 4 (mixed component) and 3 chains both fire.
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let out: Vec<PsiOutput> = b
            .graph
            .nodes()
            .map(|v| match b.input.node(v).kind() {
                Some(NodeKind::Center) => PsiOutput::Ok,
                _ => {
                    if step(&b.graph, &b.input, v, Dir::Parent).is_some() {
                        PsiOutput::Pointer(Dir::Parent)
                    } else {
                        PsiOutput::Pointer(Dir::Up)
                    }
                }
            })
            .collect();
        let v = check_psi(&b.graph, &b.input, &out, 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn lemma9_horizontal_chains_rejected() {
        // Everyone on a level points Right: the chain hits the level's
        // right boundary, which has no Right edge → 3a fires there.
        let b = build_gadget(&GadgetSpec::uniform(2, 4));
        let out: Vec<PsiOutput> = b
            .graph
            .nodes()
            .map(|v| {
                if step(&b.graph, &b.input, v, Dir::Right).is_some()
                    || step(&b.graph, &b.input, v, Dir::Left).is_some()
                {
                    PsiOutput::Pointer(Dir::Right)
                } else {
                    PsiOutput::Ok
                }
            })
            .collect();
        let v = check_psi(&b.graph, &b.input, &out, 2);
        assert!(!v.is_empty());
    }

    #[test]
    fn lchild_pointer_is_illegal() {
        let b = build_gadget(&GadgetSpec::uniform(2, 2));
        let mut out = vec![PsiOutput::Ok; b.len()];
        out[b.center.index()] = PsiOutput::Pointer(Dir::LChild);
        let v = check_psi(&b.graph, &b.input, &out, 2);
        assert!(v.iter().any(|x| x.why.contains("not a legal")));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PsiOutput::Ok.to_string(), "Ok");
        assert_eq!(PsiOutput::Pointer(Dir::Down(2)).to_string(), "→Down2");
        assert!(PsiOutput::Error.is_error_label());
        assert!(!PsiOutput::Ok.is_error_label());
    }
}
