//! The two-phase eccentricity kernel on gadgets. Its bounds settle every
//! balanced gadget with Δ ≥ 2 in at most four BFS; its batches take what
//! the bounds leave on gadgets with Δ = 1 or unequal sub-gadget heights,
//! and on many corruptions. On balanced and mixed-height gadgets
//! (Δ 1..=5) and on their random corruptions,
//! `lcl_graph::eccentricities` must equal one BFS per node, and V's radii
//! must equal `min(gather_bound, ecc)`.

use lcl_core::Labeling;
use lcl_gadget::verifier::gather_bound;
use lcl_gadget::{build_gadget, corrupt, run_verifier, GadgetIn, GadgetSpec};
use lcl_graph::{bfs_distances, Graph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Eccentricity within the component by one BFS per node.
fn per_node_bfs(g: &Graph) -> Vec<u32> {
    g.nodes().map(|v| bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)).collect()
}

fn check(g: &Graph, input: &Labeling<GadgetIn>, delta: usize) -> Result<(), TestCaseError> {
    let want = per_node_bfs(g);
    prop_assert_eq!(&lcl_graph::eccentricities(g), &want);
    // Every component here is far below V's 2,048-node exact-radius cap.
    let r = gather_bound(g.node_count());
    let radii: Vec<u32> = want.iter().map(|&e| e.min(r)).collect();
    let outcome = run_verifier(g, input, delta, g.node_count());
    prop_assert_eq!(outcome.trace.radii(), &radii[..]);
    Ok(())
}

proptest! {
    // Default config, so `PROPTEST_CASES` raises the case count (CI runs
    // this in release with many more cases).

    #[test]
    fn kernel_is_exact_on_gadgets_and_corruptions(
        delta in 1usize..=5,
        heights in proptest::collection::vec(1u32..=8, 5),
        balanced in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let heights = if balanced == 1 { vec![heights[0]; delta] } else { heights[..delta].to_vec() };
        let b = build_gadget(&GadgetSpec { heights });
        check(&b.graph, &b.input, delta)?;
        let (g, input) = corrupt::apply(&b, &corrupt::random_corruption(&b, seed));
        check(&g, &input, delta)?;
    }
}
