//! Node-edge-checkability mechanisms of Section 4.6 (Figures 7 and 8).
//!
//! The problem `Ψ` of Section 4.4 allows a node to output `Error` when it
//! sees a constant-radius inconsistency — checkable in constant radius, but
//! not immediately in the strict node-edge (`C_N`/`C_E`) form. Section 4.6
//! shows every such check can be massaged into node-edge form; this module
//! implements the two mechanisms the paper details, as standalone,
//! checkable artifacts:
//!
//! * **duplicate-color proofs** (Figure 7, "handling constraint 1a"): a
//!   node that sees two incident edges toward same-colored neighbors
//!   proves it by writing that color on exactly those two half-edges; the
//!   edge constraint verifies the far endpoint really has the claimed
//!   color (inputs replicate colors on half-edges, so this is a pure
//!   node-edge check). On a properly distance-2-colored simple input no
//!   such proof exists.
//! * **chain proofs** (Figure 8, "handling constraint 2d"): a violation of
//!   `u(Right, LChild, Left, Parent) = u` is proven by a chain of output
//!   labels `A, B, C, D, E` along that path; node constraints forbid one
//!   node from holding both `A` and `E` of the same chain, so on a valid
//!   gadget — where the path returns to `u` — no proof exists.
//!
//! The full `Ψ_G` used by the padding construction keeps `Ψ`'s
//! constant-radius checker as its semantic definition: carrying these proof
//! labels through `Π'`'s output alphabet would add labels that no solver or
//! checker reads. This module demonstrates, with tests, that its primitive
//! checks are expressible in strict node-edge form, which is the content of
//! the paper's Section 4.6.

use crate::labels::{Dir, GadgetIn};
use lcl_core::Labeling;
use lcl_graph::{Graph, HalfEdge, NodeId};

// ---------------------------------------------------------------------
// Duplicate-color proofs (Figure 7)
// ---------------------------------------------------------------------

/// A duplicate-color proof: node `witness` claims its two half-edges
/// `halves` lead to distinct incidences with the same node color `color`
/// (which is impossible under a distance-2 coloring of a simple graph:
/// it requires a self-loop, a parallel edge, or a broken coloring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorProof {
    /// The node claiming the violation.
    pub witness: NodeId,
    /// The two incident half-edges carrying the claimed color.
    pub halves: [HalfEdge; 2],
    /// The repeated color.
    pub color: u32,
}

/// Attempts to construct a duplicate-color proof at `v`: two incident
/// half-edges whose far endpoints carry the same color (self-loops make
/// `v` itself the far endpoint, so `v`'s own color counts too — matching
/// the checker's "own color and neighbor colors pairwise distinct" rule).
#[must_use]
pub fn find_color_proof(g: &Graph, input: &Labeling<GadgetIn>, v: NodeId) -> Option<ColorProof> {
    let ports = g.ports(v);
    for i in 0..ports.len() {
        for j in i + 1..ports.len() {
            let (hi, hj) = (ports[i], ports[j]);
            let ci = input.node(g.half_edge_peer(hi)).color()?;
            let cj = input.node(g.half_edge_peer(hj)).color()?;
            if ci == cj {
                return Some(ColorProof { witness: v, halves: [hi, hj], color: ci });
            }
        }
    }
    None
}

/// Verifies a duplicate-color proof in strict node-edge style:
///
/// * node constraint at the witness: the two marked half-edges are
///   distinct incidences of the witness carrying one common color claim;
/// * edge constraint at each marked edge: the *input* color replicated on
///   the far half equals the claimed color (this is why Section 4.6
///   replicates node colors onto half-edges — the edge constraint never
///   needs to look at a node two hops away).
///
/// # Errors
///
/// Returns a diagnostic when the proof does not verify.
pub fn check_color_proof(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    proof: &ColorProof,
) -> Result<(), String> {
    let [h1, h2] = proof.halves;
    if h1 == h2 {
        return Err("proof marks one half-edge twice".into());
    }
    for h in [h1, h2] {
        if g.half_edge_node(h) != proof.witness {
            return Err("marked half-edge is not incident to the witness".into());
        }
        // Edge constraint: the far half's replicated input color matches.
        let far = input.half(h.opposite()).color();
        if far != Some(proof.color) {
            return Err(format!("far half claims color {far:?}, proof claims {}", proof.color));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Chain proofs (Figure 8)
// ---------------------------------------------------------------------

/// The five chain labels of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChainLabel {
    /// The start node `u`.
    A,
    /// `u(Right)`.
    B,
    /// `u(Right, LChild)`.
    C,
    /// `u(Right, LChild, Left)`.
    D,
    /// `u(Right, LChild, Left, Parent)` — which must differ from `u`.
    E,
}

/// A chain proof that constraint 2d fails at its first node: the labeled
/// path `A →Right B →LChild C →Left D →Parent E` with `E ≠ A`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainProof {
    /// The five nodes, in chain order `A..E`.
    pub nodes: [NodeId; 5],
}

/// The direction along which each consecutive chain pair is linked.
const CHAIN_DIRS: [Dir; 4] = [Dir::Right, Dir::LChild, Dir::Left, Dir::Parent];

fn step(g: &Graph, input: &Labeling<GadgetIn>, v: NodeId, dir: Dir) -> Option<NodeId> {
    g.ports(v).iter().find(|&&h| input.half(h).dir() == Some(dir)).map(|&h| g.half_edge_peer(h))
}

/// Attempts to build a chain proof starting at `u`: succeeds exactly when
/// the 2d path exists and does **not** return to `u`.
#[must_use]
pub fn find_chain_proof(g: &Graph, input: &Labeling<GadgetIn>, u: NodeId) -> Option<ChainProof> {
    let mut nodes = [u; 5];
    for (k, dir) in CHAIN_DIRS.iter().enumerate() {
        nodes[k + 1] = step(g, input, nodes[k], *dir)?;
    }
    (nodes[4] != u).then_some(ChainProof { nodes })
}

/// Verifies a chain proof in node-edge style:
///
/// * edge constraints: consecutive chain nodes are joined by an edge whose
///   half at the earlier node carries the required direction label
///   (`Right`, `LChild`, `Left`, `Parent` in order) — each is a check on
///   one edge and its two endpoints' chain labels;
/// * node constraint: no node carries both `A` and `E` (on a valid gadget
///   the 2d path returns, so `u` would need both — which is forbidden;
///   hence no proof exists, Lemma-9 style).
///
/// # Errors
///
/// Returns a diagnostic when the proof does not verify.
pub fn check_chain_proof(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    proof: &ChainProof,
) -> Result<(), String> {
    for (k, dir) in CHAIN_DIRS.iter().enumerate() {
        let from = proof.nodes[k];
        let to = proof.nodes[k + 1];
        match step(g, input, from, *dir) {
            Some(w) if w == to => {}
            Some(w) => {
                return Err(format!("chain step {k} ({dir}) reaches {w:?}, proof says {to:?}"));
            }
            None => return Err(format!("chain step {k} ({dir}) has no edge")),
        }
    }
    // Node constraint: A and E never coincide.
    if proof.nodes[0] == proof.nodes[4] {
        return Err("A and E coincide: the 2d path returns, nothing is broken".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_gadget, GadgetSpec};
    use crate::corrupt::{apply, Corruption};
    use lcl_graph::Side;

    #[test]
    fn no_color_proof_on_valid_gadget() {
        let b = build_gadget(&GadgetSpec::uniform(3, 4));
        for v in b.graph.nodes() {
            assert!(find_color_proof(&b.graph, &b.input, v).is_none());
        }
    }

    #[test]
    fn color_proof_found_and_verified_after_copycolor() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        // Make two neighbors of the center share a color.
        let n: Vec<_> = b.graph.neighbors(b.center).map(|(w, _)| w).collect();
        let (g, input) = apply(&b, &Corruption::CopyColor { from: n[0].0, to: n[1].0 });
        let proof = find_color_proof(&g, &input, b.center).expect("duplicate visible");
        check_color_proof(&g, &input, &proof).expect("proof verifies");
        assert_eq!(proof.color, input.node(n[0]).color().unwrap());
    }

    #[test]
    fn parallel_edge_admits_color_proof() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let (e0_a, e0_b) = {
            let [a, bb] = b.graph.endpoints(lcl_graph::EdgeId(0));
            (a, bb)
        };
        let (g, input) = apply(
            &b,
            &Corruption::AddEdge { a: e0_a.0, b: e0_b.0, dir_a: Dir::Right, dir_b: Dir::Left },
        );
        let proof = find_color_proof(&g, &input, e0_a).expect("parallel edge repeats color");
        check_color_proof(&g, &input, &proof).expect("verifies");
    }

    #[test]
    fn bogus_color_proof_rejected() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let ports = b.graph.ports(b.center);
        let bogus = ColorProof { witness: b.center, halves: [ports[0], ports[1]], color: 999_999 };
        assert!(check_color_proof(&b.graph, &b.input, &bogus).is_err());
        let degenerate = ColorProof { witness: b.center, halves: [ports[0], ports[0]], color: 0 };
        assert!(check_color_proof(&b.graph, &b.input, &degenerate).is_err());
    }

    #[test]
    fn no_chain_proof_on_valid_gadget() {
        // Lemma-9 style soundness: on a valid gadget the 2d path always
        // returns, so no node can start a verifying chain.
        let b = build_gadget(&GadgetSpec::uniform(3, 4));
        for v in b.graph.nodes() {
            assert!(
                find_chain_proof(&b.graph, &b.input, v).is_none(),
                "chain proof at {v:?} on a valid gadget"
            );
        }
    }

    #[test]
    fn chain_proof_found_after_rewiring() {
        // Break 2d by relabeling a Parent half as pointing to the wrong
        // node: delete a horizontal edge's pairing by relabeling one Left
        // half to Parent — the rewired walk escapes and E ≠ A somewhere.
        let b = build_gadget(&GadgetSpec::uniform(2, 4));
        // Find an edge whose A-side is labeled Left, deep enough to walk.
        let mut candidate = None;
        for e in b.graph.edges() {
            let ha = HalfEdge::new(e, Side::A);
            if b.input.half(ha).dir() == Some(Dir::Left) {
                candidate = Some(e);
                break;
            }
        }
        let e = candidate.expect("gadget has Left halves");
        let (g, input) =
            apply(&b, &Corruption::RelabelHalf { edge: e.0, side: Side::A, dir: Dir::Parent });
        // Some node's 2d walk now goes astray; find and verify a proof.
        let found = g.nodes().find_map(|v| find_chain_proof(&g, &input, v));
        if let Some(proof) = found {
            check_chain_proof(&g, &input, &proof).expect("proof verifies");
        }
        // Regardless of whether this specific rewiring broke 2d (it may
        // have broken 2a pairing first), the structure must be invalid.
        assert!(!crate::checks::is_valid_gadget(&g, &input, 2));
    }

    #[test]
    fn chain_proof_with_returning_path_rejected() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        // Fabricate a "proof" whose path actually returns (take a real 2d
        // path from a valid gadget): the checker must reject via the A/E
        // node constraint.
        let u = b
            .graph
            .nodes()
            .find(|&v| {
                let mut cur = v;
                for d in CHAIN_DIRS {
                    match step(&b.graph, &b.input, cur, d) {
                        Some(w) => cur = w,
                        None => return false,
                    }
                }
                cur == v
            })
            .expect("a 2d path exists somewhere");
        let mut nodes = [u; 5];
        for (k, d) in CHAIN_DIRS.iter().enumerate() {
            nodes[k + 1] = step(&b.graph, &b.input, nodes[k], *d).unwrap();
        }
        let bogus = ChainProof { nodes };
        let err = check_chain_proof(&b.graph, &b.input, &bogus).unwrap_err();
        assert!(err.contains("A and E coincide"));
    }
}
