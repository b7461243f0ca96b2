//! Property tests for labeling assembly and the checker plumbing.

use lcl_core::problems::{
    ColoringLabel, EdgeColoring, EdgeColoringLabel, MatchingLabel, MaximalIndependentSet,
    MaximalMatching, MisLabel, Orient, SinklessOrientation, Trivial, VertexColoring,
};
use lcl_core::{assemble, check, AssembleError, Labeling, NeLcl, Violation};
use lcl_graph::{gen, Graph, NodeId};
use proptest::prelude::*;

/// Reassembles a global labeling from the per-node outputs each node would
/// emit (agreeing by construction, since they come from one labeling).
fn split_and_assemble<L: Clone + Eq>(
    g: &Graph,
    lab: &Labeling<L>,
) -> Result<Labeling<L>, AssembleError> {
    assemble(
        g,
        |v| lab.node(v).clone(),
        |v, p| {
            let h = g.ports(v)[p];
            (lab.half(h).clone(), lab.edge(h.edge()).clone())
        },
    )
}

/// The assemble → check roundtrip: splitting any output labeling into
/// per-node outputs and reassembling is the identity, and the checker's
/// verdict (including the exact violation list) is unchanged by the trip.
fn roundtrip_holds<P: NeLcl>(
    p: &P,
    g: &Graph,
    input: &Labeling<P::In>,
    out: &Labeling<P::Out>,
) -> Result<(), TestCaseError>
where
    P::Out: Eq,
{
    let assembled = split_and_assemble(g, out).expect("splits agree by construction");
    prop_assert_eq!(&assembled, out, "split + assemble must be the identity");
    prop_assert_eq!(check(p, g, input, out), check(p, g, input, &assembled));
    Ok(())
}

/// Deterministic per-element label noise.
fn mix(seed: u64, tag: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assemble_roundtrips_agreeing_outputs(n in 2usize..20, seed in 0u64..100) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        // Build agreeing outputs: edge label = edge id, half = id·2+side.
        let lab = assemble(
            &g,
            |v| v.0,
            |v, p| {
                let h = g.ports(v)[p];
                (h.edge().0 * 2 + h.side().index() as u32, h.edge().0)
            },
        )
        .expect("agreeing");
        for v in g.nodes() {
            prop_assert_eq!(*lab.node(v), v.0);
        }
        for e in g.edges() {
            prop_assert_eq!(*lab.edge(e), e.0);
        }
        for h in g.half_edges() {
            prop_assert_eq!(*lab.half(h), h.edge().0 * 2 + h.side().index() as u32);
        }
    }

    #[test]
    fn any_single_disagreement_is_rejected(n in 2usize..12, k in 0usize..50, seed in 0u64..50) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        // Flip one edge proposal at one port of one node.
        let v = NodeId((k % g.node_count()) as u32);
        if g.degree(v) == 0 {
            return Ok(());
        }
        let port = k % g.degree(v);
        // A self-loop's two ports both propose for one edge: flipping one
        // of them suffices.
        let flipped = g.ports(v)[port].edge();
        let res = assemble(&g, |_| 0u32, |u, p| (0, if (u, p) == (v, port) { 8 } else { 7 }));
        prop_assert_eq!(res, Err(AssembleError::EdgeDisagreement { edge: flipped }));
    }

    #[test]
    fn checker_violation_count_matches_flips(flips in 1usize..5, seed in 0u64..50) {
        // Orient a cycle consistently, then flip `flips` distinct edges'
        // both halves (reversing them): reversal keeps edge constraints
        // fine but creates sinks/sources; the checker must flag at least
        // one node per flipped edge region and never accept.
        let n = 20;
        let g = gen::cycle(n);
        let input = Labeling::uniform(&g, ());
        let mut out = Labeling::build(
            &g,
            |_| Orient::Blank,
            |_| Orient::Blank,
            |h| if h.side() == lcl_graph::Side::A { Orient::Out } else { Orient::In },
        );
        let mut chosen = std::collections::BTreeSet::new();
        let mut x = seed;
        while chosen.len() < flips {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            chosen.insert((x >> 33) as usize % n);
        }
        for &e in &chosen {
            let e = lcl_graph::EdgeId(e as u32);
            *out.half_mut(lcl_graph::HalfEdge::new(e, lcl_graph::Side::A)) = Orient::In;
            *out.half_mut(lcl_graph::HalfEdge::new(e, lcl_graph::Side::B)) = Orient::Out;
        }
        let res = check(&SinklessOrientation { min_constrained_degree: 2 }, &g, &input, &out);
        prop_assert!(!res.is_ok());
        // Every violation is a node violation (edge constraints intact).
        prop_assert!(res
            .violations
            .iter()
            .all(|v| matches!(v, Violation::Node(_, _))));
    }

    // --- assemble → check roundtrip across the whole problem zoo ---------
    //
    // For every problem, arbitrary (not necessarily correct) output
    // labelings are split into per-node outputs and reassembled; the trip
    // must be the identity and must not change the checker's verdict.

    #[test]
    fn roundtrip_sinkless(n in 2usize..14, seed in 0u64..200) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::build(
            &g,
            |_| Orient::Blank,
            |_| Orient::Blank,
            |h| if mix(seed, 1, u64::from(h.edge().0) * 2 + h.side().index() as u64) & 1 == 0 {
                Orient::Out
            } else {
                Orient::In
            },
        );
        roundtrip_holds(&SinklessOrientation::new(), &g, &input, &out)?;
    }

    #[test]
    fn roundtrip_vertex_coloring(n in 2usize..14, seed in 0u64..200, palette in 2u32..6) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::build(
            &g,
            // One extra color so out-of-palette violations occur too.
            |v| ColoringLabel::Color(mix(seed, 2, u64::from(v.0)) as u32 % (palette + 1)),
            |_| ColoringLabel::Blank,
            |_| ColoringLabel::Blank,
        );
        roundtrip_holds(&VertexColoring::new(palette), &g, &input, &out)?;
    }

    #[test]
    fn roundtrip_matching(n in 2usize..14, seed in 0u64..200) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::build(
            &g,
            |v| if mix(seed, 3, u64::from(v.0)) & 1 == 0 {
                MatchingLabel::Matched
            } else {
                MatchingLabel::Free
            },
            |e| if mix(seed, 4, u64::from(e.0)) & 3 == 0 {
                MatchingLabel::InMatching
            } else {
                MatchingLabel::NotInMatching
            },
            |_| MatchingLabel::Blank,
        );
        roundtrip_holds(&MaximalMatching, &g, &input, &out)?;
    }

    #[test]
    fn roundtrip_mis(n in 2usize..14, seed in 0u64..200) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::build(
            &g,
            |v| if mix(seed, 5, u64::from(v.0)) & 1 == 0 {
                MisLabel::InSet
            } else {
                MisLabel::OutSet
            },
            |_| MisLabel::Blank,
            |h| if mix(seed, 6, u64::from(h.edge().0) * 2 + h.side().index() as u64) & 3 == 0 {
                MisLabel::Pointer
            } else {
                MisLabel::NoPointer
            },
        );
        roundtrip_holds(&MaximalIndependentSet, &g, &input, &out)?;
    }

    #[test]
    fn roundtrip_edge_coloring(n in 2usize..14, seed in 0u64..200, palette in 2u32..6) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::build(
            &g,
            |_| EdgeColoringLabel::Blank,
            |e| EdgeColoringLabel::Color(mix(seed, 7, u64::from(e.0)) as u32 % (palette + 1)),
            |_| EdgeColoringLabel::Blank,
        );
        roundtrip_holds(&EdgeColoring::new(palette), &g, &input, &out)?;
    }

    #[test]
    fn roundtrip_trivial(n in 2usize..14, seed in 0u64..200) {
        let g = gen::random_regular_multigraph(n * 2, 3, seed).unwrap();
        let input = Labeling::uniform(&g, ());
        let out = Labeling::uniform(&g, ());
        roundtrip_holds(&Trivial, &g, &input, &out)?;
    }
}
