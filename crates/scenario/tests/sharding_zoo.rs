//! Component-sharding correctness across the scenario family zoo.
//!
//! Two layers of evidence that measuring a cell by component part is safe
//! to turn on for any workload the scenario layer can express:
//!
//! * the flat [`Components`] partition is a true partition (every node in
//!   exactly one component, components closed under adjacency, `extract`
//!   interchangeable with `induced_subgraph`) on instances drawn from all
//!   seven generator families;
//! * property tests: on random disconnected instances whose components
//!   differ in `Δ`, every algorithm the scenario layer runs (`luby_rounds`,
//!   `matching_rounds`, `linial`) labels each component part
//!   ([`lcl_local::map_components`]) **bit-identically** to the whole run
//!   on those nodes, the whole run's rounds are the max over the parts',
//!   and every part's output certifies on its own.

use lcl_core::Labeling;
use lcl_graph::{gen, Components, Graph, NodeId};
use lcl_local::{map_components, IdAssignment, Network, Sequential};
use lcl_scenario::FamilySpec;
use proptest::prelude::*;
use std::fmt::Debug;

fn zoo() -> Vec<FamilySpec> {
    vec![
        FamilySpec::RandomRegular { d: 3 },
        FamilySpec::Gnm { avg_deg: 2.0 },
        FamilySpec::Torus,
        FamilySpec::Hypercube,
        FamilySpec::Caterpillar { leaf_frac: 0.4 },
        FamilySpec::LiftedGadget { delta: 3, height: 2 },
    ]
}

/// Asserts that `c` is a true partition of `g`'s nodes into
/// adjacency-closed classes, consistent with `component_of`.
fn assert_partition(g: &Graph, c: &Components) {
    let mut seen = vec![false; g.node_count()];
    for (idx, members) in c.iter().enumerate() {
        assert!(!members.is_empty(), "component {idx} is empty");
        for &v in members {
            assert!(!seen[v.index()], "{v:?} listed twice");
            seen[v.index()] = true;
            assert_eq!(c.component_of(v), idx);
            for (w, _) in g.neighbors(v) {
                assert_eq!(c.component_of(w), idx, "edge leaves component {idx}");
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "some node is in no component");
}

#[test]
fn partition_invariants_hold_across_the_family_zoo() {
    for family in zoo() {
        let g = family.build(64, 5).unwrap_or_else(|e| panic!("{}: {e}", family.slug()));
        let c = Components::new(&g);
        assert_partition(&g, &c);
        for comp in 0..c.count() {
            let (slow, back) = g.induced_subgraph(c.members(comp));
            assert_eq!(c.extract(&g, comp), slow, "{}: extract diverged", family.slug());
            assert_eq!(back, c.members(comp));
        }
    }
}

#[test]
fn torus_and_hypercube_instances_are_connected() {
    for family in [FamilySpec::Torus, FamilySpec::Hypercube] {
        let g = family.build(100, 0).unwrap();
        assert!(Components::new(&g).is_connected(), "{} split", family.slug());
    }
}

#[test]
fn appended_caterpillars_shard_one_component_each() {
    // Caterpillars are trees, so a disjoint union of five builds is
    // exactly five shards — the shape the snapshot sweeps exercise.
    let family = FamilySpec::Caterpillar { leaf_frac: 0.5 };
    let mut g = Graph::new();
    for seed in 0..5 {
        g.append(&family.build(40, seed).unwrap());
    }
    let c = Components::new(&g);
    assert_eq!(c.count(), 5);
    assert_eq!(c.largest(), 40);
}

#[test]
fn lift_component_sizes_are_multiples_of_the_base_order() {
    // Every component of a k-lift of a connected base G is itself a lift
    // of G, so its size is a multiple of |V(G)| — the structural fact the
    // multi-component bench sweep leans on.
    let base = gen::cycle(16);
    let g = gen::random_lift(&base, 8, 3);
    assert_eq!(g.node_count(), 16 * 8);
    let c = Components::new(&g);
    for comp in 0..c.count() {
        assert_eq!(c.size(comp) % 16, 0, "component {comp} has size {}", c.size(comp));
    }
}

/// A disjoint union of small pieces, one per `(kind, size)` pair.
fn disconnected_instance(pieces: &[(u8, usize)], seed: u64) -> Graph {
    let mut g = Graph::new();
    for (i, &(kind, sz)) in pieces.iter().enumerate() {
        let pseed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let piece = match kind % 4 {
            0 => gen::cycle(sz),
            1 => gen::path(sz),
            2 => gen::star(sz),
            _ => gen::random_tree(sz, pseed),
        };
        g.append(&piece);
    }
    g
}

/// Per node, in the given order: its label, then `(half-edge, edge)`
/// labels port by port — what one node's output looks like from inside.
fn per_node<L: Clone>(
    g: &Graph,
    labeling: &Labeling<L>,
    nodes: impl Iterator<Item = NodeId>,
) -> Vec<(L, Vec<(L, L)>)> {
    nodes
        .map(|v| {
            let ports = g.ports(v).iter();
            let ports = ports.map(|&h| (labeling.half(h).clone(), labeling.edge(h.edge()).clone()));
            (labeling.node(v).clone(), ports.collect())
        })
        .collect()
}

/// Runs `run` on the whole network and on every component part, and
/// checks that each part labels its nodes exactly as the whole run does
/// and that the whole run's rounds are the max over the parts'.
fn check_parts<L>(
    net: &Network,
    run: impl Fn(&Network) -> (Labeling<L>, u32) + Sync,
) -> Result<(), TestCaseError>
where
    L: Clone + PartialEq + Debug + Send,
{
    let (whole, whole_rounds) = run(net);
    let (comps, parts) = map_components(net, &Sequential, |part| {
        let (labeling, rounds) = run(part);
        (per_node(part.graph(), &labeling, part.graph().nodes()), rounds)
    })
    .expect("the instance is disconnected");
    for (c, (labels, _)) in parts.iter().enumerate() {
        let want = per_node(net.graph(), &whole, comps.members(c).iter().copied());
        prop_assert_eq!(labels, &want, "component {} diverged from the whole run", c);
    }
    prop_assert_eq!(parts.iter().map(|p| p.1).max(), Some(whole_rounds));
    Ok(())
}

/// Certifies an output on the network it was computed on.
fn certified(net: &Network, sol: Result<lcl_certify::Solution, lcl_certify::Violation>) {
    let sol = sol.unwrap_or_else(|v| panic!("decode: {v}"));
    lcl_certify::certify(net.graph(), &sol).unwrap_or_else(|v| panic!("certify: {v}"));
}

/// A disconnected instance: a star (the `Δ` of the whole) next to a cycle
/// and the random pieces, with seeded shuffled ids.
fn mixed_network(pieces: &[(u8, usize)], seed: u64, idseed: u64) -> Network {
    let mut g = gen::star(12);
    g.append(&gen::cycle(5));
    g.append(&disconnected_instance(pieces, seed));
    Network::new(g, IdAssignment::Shuffled { seed: idseed })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn luby_sharded_is_bit_identical(
        pieces in proptest::collection::vec((0u8..4, 3usize..12), 1..5),
        seed in 0u64..500,
        idseed in 0u64..100,
    ) {
        let net = mixed_network(&pieces, seed, idseed);
        check_parts(&net, |p| {
            let out = lcl_algos::luby_rounds::try_run_with(p, seed, &Sequential).unwrap();
            certified(p, out.solution(p.graph()));
            (out.labeling, out.rounds)
        })?;
    }

    #[test]
    fn matching_sharded_is_bit_identical(
        pieces in proptest::collection::vec((0u8..4, 3usize..12), 1..5),
        seed in 0u64..500,
        idseed in 0u64..100,
    ) {
        let net = mixed_network(&pieces, seed, idseed);
        check_parts(&net, |p| {
            let out = lcl_algos::matching_rounds::try_run_with(p, seed, &Sequential).unwrap();
            certified(p, out.solution(p.graph()));
            (out.labeling, out.rounds)
        })?;
    }

    #[test]
    fn linial_sharded_is_bit_identical(
        pieces in proptest::collection::vec((0u8..4, 3usize..12), 1..5),
        seed in 0u64..500,
        idseed in 0u64..100,
    ) {
        let net = mixed_network(&pieces, seed, idseed);
        check_parts(&net, |p| {
            let out = lcl_algos::linial::try_run_with(p, &Sequential).unwrap();
            // Every part targets the whole network's palette.
            assert_eq!(out.palette as usize, net.max_degree() + 1);
            certified(p, Ok(out.solution(p.graph())));
            let rounds = out.total_rounds();
            (out.labeling, rounds)
        })?;
    }
}
