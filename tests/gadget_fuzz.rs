//! Completeness fuzzing for Lemmas 7, 8, and 10: every effective
//! structural corruption of a valid gadget is (a) detected by some node's
//! constant-radius check and (b) answered by algorithm `V` with a proof
//! that passes the `Ψ` checker, (c) at the honest radius `min(R, ecc)`.

use lcl_gadget::verifier::gather_bound;
use lcl_gadget::{
    build_gadget, check_psi, corrupt, structure_errors, GadgetFamily, GadgetSpec, LogGadgetFamily,
};
use lcl_graph::bfs_distances;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_corruptions_are_caught_and_proven(
        seed in 0u64..10_000,
        delta in 2usize..=4,
        height in 2u32..=5,
    ) {
        let b = build_gadget(&GadgetSpec::uniform(delta, height));
        let c = corrupt::random_corruption(&b, seed);
        prop_assume!(corrupt::is_effective(&b, &c));
        let (g, input) = corrupt::apply(&b, &c);

        // Lemma 7/8 completeness: some node sees the problem.
        let errs = structure_errors(&g, &input, delta);
        prop_assert!(
            errs.iter().any(|&e| e),
            "corruption {c:?} left the gadget locally valid"
        );

        // Lemma 10: V produces a proof, and the proof checks.
        let fam = LogGadgetFamily::new(delta);
        let out = fam.verify(&g, &input, g.node_count());
        prop_assert!(!out.all_ok());
        let violations = check_psi(&g, &input, &out.output, delta);
        prop_assert!(violations.is_empty(), "{c:?} → {violations:?}");

        // Every component here is small enough for exact radii: the
        // gathering bound, trimmed at the node's eccentricity within its
        // component (one BFS per node as the reference).
        prop_assert!(g.node_count() <= 2048);
        let r = gather_bound(g.node_count());
        for v in g.nodes() {
            let ecc = bfs_distances(&g, v).into_iter().flatten().max().unwrap_or(0);
            let (got, want) = (out.trace.radii()[v.index()], r.min(ecc));
            prop_assert_eq!(got, want, "{c:?}: radius of {v:?} is {got}, want {want}");
        }
    }

    #[test]
    fn double_corruptions_are_caught(
        seed1 in 0u64..3_000,
        seed2 in 3_000u64..6_000,
    ) {
        // Two independent corruptions — errors in several places; the
        // verifier must still emit a globally consistent proof (this is
        // the multi-error regime of Lemma 10's case analysis: the center
        // picks the smallest erroneous sub-gadget, chains pick their
        // nearest reachable error).
        let b = build_gadget(&GadgetSpec::uniform(3, 4));
        let c1 = corrupt::random_corruption(&b, seed1);
        prop_assume!(corrupt::is_effective(&b, &c1));
        prop_assume!(matches!(
            c1,
            corrupt::Corruption::RelabelHalf { .. }
                | corrupt::Corruption::TogglePort(_)
                | corrupt::Corruption::ChangeIndex { .. }
                | corrupt::Corruption::CopyColor { .. }
        ));
        let (g1, input1) = corrupt::apply(&b, &c1);
        // Re-wrap to apply a second label-only corruption.
        let b2 = lcl_gadget::BuiltGadget {
            graph: g1,
            input: input1,
            center: b.center,
            ports: b.ports.clone(),
            spec: b.spec.clone(),
        };
        let c2 = corrupt::random_corruption(&b2, seed2);
        prop_assume!(corrupt::is_effective(&b2, &c2));
        prop_assume!(matches!(
            c2,
            corrupt::Corruption::RelabelHalf { .. }
                | corrupt::Corruption::TogglePort(_)
                | corrupt::Corruption::ChangeIndex { .. }
                | corrupt::Corruption::CopyColor { .. }
        ));
        let (g, input) = corrupt::apply(&b2, &c2);
        // The two corruptions may cancel (e.g. toggling the same port flag
        // twice), restoring a valid gadget — skip those.
        prop_assume!(input != b.input);

        let fam = LogGadgetFamily::new(3);
        let out = fam.verify(&g, &input, g.node_count());
        prop_assert!(!out.all_ok());
        let violations = check_psi(&g, &input, &out.output, 3);
        prop_assert!(violations.is_empty(), "{c1:?}+{c2:?} → {violations:?}");
    }
}

#[test]
fn exhaustive_single_half_relabels_small_gadget() {
    // Exhaustively relabel every half-edge to every wrong direction on a
    // small gadget: all must be caught with verifying proofs.
    use lcl_gadget::Dir;
    let b = build_gadget(&GadgetSpec::uniform(2, 3));
    let fam = LogGadgetFamily::new(2);
    let dirs = [
        Dir::Parent,
        Dir::Right,
        Dir::Left,
        Dir::LChild,
        Dir::RChild,
        Dir::Up,
        Dir::Down(1),
        Dir::Down(2),
    ];
    let mut tested = 0;
    for e in 0..b.graph.edge_count() as u32 {
        for side in [lcl_graph::Side::A, lcl_graph::Side::B] {
            for &dir in &dirs {
                let c = corrupt::Corruption::RelabelHalf { edge: e, side, dir };
                if !corrupt::is_effective(&b, &c) {
                    continue;
                }
                tested += 1;
                let (g, input) = corrupt::apply(&b, &c);
                let out = fam.verify(&g, &input, g.node_count());
                assert!(!out.all_ok(), "relabel {e}/{side:?}→{dir} not caught");
                let violations = check_psi(&g, &input, &out.output, 2);
                assert!(violations.is_empty(), "{e}/{side:?}→{dir}: {violations:?}");
            }
        }
    }
    assert!(tested > 100, "exhaustive sweep actually ran ({tested} cases)");
}
