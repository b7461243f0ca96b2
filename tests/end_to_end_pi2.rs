//! End-to-end integration of the padding pipeline (Sections 3–5):
//! construction → solving → checking, plus adversarial mutations of
//! solutions that the Π' checker must localize.

use lcl_core::problems::Orient;
use lcl_core::{EdgeView, Labeling, NeLcl, Violation};
use lcl_gadget::{GadgetIn, NodeKind, PsiOutput};
use lcl_graph::{EdgeId, HalfEdge, NodeId, Side};
use lcl_local::{IdAssignment, Network};
use lcl_padding::hard::{balance, corrupt_gadgets, hard_pi2_instance, hard_pi3_instance};
use lcl_padding::hierarchy::{pi2_det, pi2_rand, pi3_det, Pi2Out, Pi3Out};
use lcl_padding::lifted::PadNodeOut;
use lcl_padding::{
    check_padded, InnerProblem, PadIn, PadOut, PaddedInstance, PaddedProblem, PortFlag, SigmaList,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn det_pipeline_on_hard_instance() {
    let inst = hard_pi2_instance(1_500, 3, 1);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 1 });
    let solver = pi2_det(3);
    let run = solver.run(&net, &inst.input, 1);
    assert!(check_padded(&solver.problem, net.graph(), &inst.input, &run.output).is_empty());
    assert_eq!(run.stats.virtual_nodes, inst.base.node_count());
    assert_eq!(run.stats.invalid_gadgets, 0);
    // Lemma 4 cost decomposition is consistent.
    assert_eq!(
        run.stats.physical_rounds(),
        run.stats.v_radius + run.stats.inner_rounds * (run.stats.gadget_diameter + 1)
    );
}

#[test]
fn rand_pipeline_on_hard_instance() {
    let inst = hard_pi2_instance(1_500, 3, 2);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 2 });
    let solver = pi2_rand(3);
    let run = solver.run(&net, &inst.input, 5);
    assert!(check_padded(&solver.problem, net.graph(), &inst.input, &run.output).is_empty());
}

#[test]
fn pipeline_with_invalid_gadgets() {
    // Section 3.3: invalid gadgets become "don't care" regions; the solver
    // must still produce a globally checkable solution, with PortErr1 at
    // ports facing the corruption.
    let mut inst = hard_pi2_instance(1_500, 3, 3);
    corrupt_gadgets(&mut inst, &[0, 1], 3);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 3 });
    let solver = pi2_det(3);
    let run = solver.run(&net, &inst.input, 3);
    assert_eq!(run.stats.invalid_gadgets, 2);
    assert_eq!(run.stats.virtual_nodes, inst.base.node_count() - 2);
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(violations.is_empty(), "{violations:?}");
    // Ports facing the corrupted gadgets carry PortErr1.
    let err1 = net
        .graph()
        .nodes()
        .filter(|&v| matches!(run.output.node(v), PadOut::Node(o) if o.flag == PortFlag::PortErr1))
        .count();
    assert!(err1 >= 3, "each corrupted gadget silences its neighbors' ports: {err1}");
}

#[test]
fn checker_catches_forged_gadok() {
    // An algorithm must not claim a corrupted gadget is fine (the
    // "cannot cheat" property of Section 3.3).
    let mut inst = hard_pi2_instance(1_200, 3, 4);
    corrupt_gadgets(&mut inst, &[0], 4);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 4 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 4);
    // Forge: flip every psi output of the corrupted gadget to Ok.
    for v in net.graph().nodes() {
        if inst.gadget_of[v.index()] == 0 {
            if let PadOut::Node(o) = run.output.node_mut(v) {
                o.psi = PsiOutput::Ok;
            }
        }
    }
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(!violations.is_empty(), "forged GadOk must be rejected");
}

#[test]
fn checker_catches_wrong_virtual_solution() {
    // Corrupt the virtual orientation inside Σ_list: flip one port's o_b
    // entry; either constraint 5d (a virtual sink) or constraint 6
    // (half-edges no longer complementary) must fire.
    let inst = hard_pi2_instance(1_200, 3, 5);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 5 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 5);
    use lcl_core::problems::Orient;
    // Find a gadget and flip every node's o_b[0] in that gadget (the list
    // must stay gadget-uniform or constraint 6 fires on GadEdges, which
    // would also be a catch but a less interesting one).
    let target = 0u32;
    for v in net.graph().nodes() {
        if inst.gadget_of[v.index()] == target {
            if let PadOut::Node(o) = run.output.node_mut(v) {
                if o.list.s[0] {
                    o.list.o_b[0] = match o.list.o_b[0] {
                        Orient::Out => Orient::In,
                        _ => Orient::Out,
                    };
                }
            }
        }
    }
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(!violations.is_empty(), "flipped virtual half must be rejected");
}

#[test]
fn checker_catches_inconsistent_lists() {
    // Constraint 6 (GadEdge): all nodes of a gadget share Σ_list.
    let inst = hard_pi2_instance(1_200, 3, 6);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 6 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 6);
    // On a fully valid hard instance every port is in S; drop one entry at
    // a single node so its Σ_list disagrees with its gadget-mates'.
    let victim = net.graph().nodes().next().unwrap();
    if let PadOut::Node(o) = run.output.node_mut(victim) {
        assert_eq!(o.list.s, vec![true; 3], "hard instances use every port");
        o.list.s[0] = false;
    }
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(
        violations.iter().any(|v| reason(v).starts_with("6:") || reason(v).starts_with("5a")),
        "{violations:?}"
    );
}

#[test]
fn checker_catches_wrong_port_flags() {
    let inst = hard_pi2_instance(1_200, 3, 7);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 7 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 7);
    // Claim PortErr2 at a perfectly wired port.
    let port = inst.ports[0][0];
    if let PadOut::Node(o) = run.output.node_mut(port) {
        o.flag = PortFlag::PortErr2;
    }
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(violations.iter().any(|v| reason(v).starts_with("3:")));
}

#[test]
fn checker_catches_eps_misplacement() {
    let inst = hard_pi2_instance(1_200, 3, 8);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 8 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 8);
    // Write GadPad on a PortEdge.
    let pe = inst.port_edge_of[0];
    *run.output.edge_mut(pe) = PadOut::GadPad;
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(violations.iter().any(|v| reason(v).starts_with("1:")));
}

#[test]
fn solver_is_reproducible() {
    let inst = hard_pi2_instance(1_200, 3, 9);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 9 });
    let solver = pi2_rand(3);
    let a = solver.run(&net, &inst.input, 33);
    let b = solver.run(&net, &inst.input, 33);
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn short_sigma_list_is_an_arity_violation_not_a_panic() {
    // Constraint 6 used to index ι^B by port after checking only |S|.
    let inst = hard_pi2_instance(1_200, 3, 8);
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 8 });
    let solver = pi2_det(3);
    let mut run = solver.run(&net, &inst.input, 8);
    payload(&mut run.output, inst.ports[0][0]).list.iota_b.clear();
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(violations.iter().any(|v| reason(v).starts_with("5:")), "{violations:?}");
}

#[test]
fn out_of_range_port_labels_are_noport_nodes() {
    // `Port_0` and `Port_{Δ+1}` name no port of the family: solver and
    // checker both treat such a node as `NoPort` (its gadget is invalid).
    let mut inst = hard_pi2_instance(1_200, 3, 15);
    for (b, index) in [(0, 0u8), (1, 4)] {
        let label = &mut inst.input.node_mut(inst.ports[b][0]).gadget;
        let Some(GadgetIn::Node { color, .. }) = *label else { panic!("a node label") };
        *label = Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: true }, color });
    }
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed: 15 });
    let solver = pi2_det(3);
    let run = solver.run(&net, &inst.input, 15);
    assert_eq!(run.stats.invalid_gadgets, 2);
    let violations = check_padded(&solver.problem, net.graph(), &inst.input, &run.output);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The constraint matrix: one mutation per clause of constraints 1–6,
/// each applied to a correct solver output, each of which `check_padded`
/// must reject with a violation carrying that clause's number.
#[test]
fn constraint_matrix() {
    // Clean Π₂ output: constraints 1, 3, 4(i), 5, 5a, 5d and 6.
    let inst = hard_pi2_instance(1_200, 3, 11);
    let solver = pi2_det(3);
    let out = solve(&solver, &inst, 11);
    let u = inst.ports[0][0];
    let (pe, v) = port_edge_at(&inst, u);
    let (bv, j) = port_index(&inst, v);
    let gad = inst.graph.edges().find(|&e| !inst.input.edge(e).port_edge).expect("a GadEdge");
    let inst = &inst;
    // Both ports of one good pair drop out of S and claim PortErr1: every
    // clause but 4(i) still holds (the two virtual nodes lose an edge and
    // fall to degree 2, where sinkless orientation is unconstrained).
    let silence = move |out: &mut Labeling<Pi2Out>| {
        for_gadget(inst, out, 0, |l| l.s[0] = false);
        for_gadget(inst, out, bv, |l| l.s[j] = false);
        payload(out, u).flag = PortFlag::PortErr1;
        payload(out, v).flag = PortFlag::PortErr1;
    };
    let rows: Vec<Row<Pi2Out>> = vec![
        ("1: GadPad on a PortEdge", "1:", Box::new(move |o| *o.edge_mut(pe) = PadOut::GadPad)),
        (
            "1: ϵ on a GadEdge half",
            "1:",
            Box::new(move |o| *o.half_mut(HalfEdge::new(gad, Side::A)) = PadOut::Eps),
        ),
        (
            "3: PortErr2 on a wired port",
            "3:",
            Box::new(move |o| payload(o, u).flag = PortFlag::PortErr2),
        ),
        ("4(i): a silenced good port pair", "4: PortErr1", Box::new(silence)),
        ("5: S emptied", "5:", Box::new(move |o| payload(o, u).list.s.clear())),
        ("5: ι^E emptied", "5:", Box::new(move |o| payload(o, u).list.iota_e.clear())),
        ("5: ι^B emptied", "5:", Box::new(move |o| payload(o, u).list.iota_b.clear())),
        ("5: o^E emptied", "5:", Box::new(move |o| payload(o, u).list.o_e.clear())),
        ("5: o^B emptied", "5:", Box::new(move |o| payload(o, u).list.o_b.clear())),
        (
            "5a: a NoPortErr port outside S",
            "5a",
            Box::new(move |o| for_gadget(inst, o, 0, |l| l.s[0] = false)),
        ),
        (
            "5d: a virtual sink",
            "5d",
            Box::new(move |o| for_gadget(inst, o, 0, |l| l.o_b.fill(Orient::In))),
        ),
        (
            "6: one node's Σ_list changed",
            "6: Σ_list",
            Box::new(move |o| {
                let list = &mut payload(o, inst.centers[0]).list;
                list.s[0] = !list.s[0];
            }),
        ),
        (
            "6: o^E changed on one side of a PortEdge",
            "6: o^E",
            Box::new(move |o| for_gadget(inst, o, 0, |l| l.o_e[0] = Orient::Out)),
        ),
    ];
    run_matrix(&solver.problem, inst, &out, rows);
    // Π′'s edge constraint itself rejects the silenced pair's PortEdge.
    let mut silenced = out.clone();
    silence(&mut silenced);
    let verdict = solver.problem.check_edge(&edge_view(inst, &silenced, pe));
    assert!(verdict.as_ref().is_err_and(|why| why.starts_with("4:")), "{verdict:?}");

    // Output on a corrupted instance: constraints 2 and 4(ii).
    let mut inst = hard_pi2_instance(1_200, 3, 12);
    corrupt_gadgets(&mut inst, &[0], 12);
    let out = solve(&solver, &inst, 12);
    let (_, w) = port_edge_at(&inst, inst.ports[0][0]);
    let inst = &inst;
    let rows: Vec<Row<Pi2Out>> = vec![
        (
            "2: forged GadOk in a corrupted gadget",
            "2 (Ψ_G)",
            Box::new(move |o| {
                for x in inst.graph.nodes().filter(|x| inst.gadget_of[x.index()] == 0) {
                    payload(o, x).psi = PsiOutput::Ok;
                }
            }),
        ),
        (
            "4(ii): NoPortErr facing a corrupted gadget",
            "4: NoPortErr",
            Box::new(move |o| payload(o, w).flag = PortFlag::NoPortErr),
        ),
    ];
    run_matrix(&solver.problem, inst, &out, rows);

    // 5b and 5c compare ι entries with Π-inputs, and Π₁'s inputs are all
    // `()`, so only a Π₃ output (whose Π-inputs are Π₂ labels) can break them.
    let inst = hard_pi3_instance(4_096, 3, 6, 13);
    let solver = pi3_det(3, 6);
    let out = solve(&solver, &inst, 13);
    let b = inst.gadget_of[inst.ports[0][0].index()];
    let inst = &inst;
    let rows: Vec<Row<Pi3Out>> = vec![
        (
            "5b: ι^V differs from the Port_1 input",
            "5b",
            Box::new(move |o| for_gadget(inst, o, b, |l| l.iota_v.port_edge ^= true)),
        ),
        (
            "5c: ι^E differs from the PortEdge input",
            "5c",
            Box::new(move |o| for_gadget(inst, o, b, |l| l.iota_e[0].port_edge ^= true)),
        ),
    ];
    run_matrix(&solver.problem, inst, &out, rows);
}

#[test]
fn pi3_checker_rejects_a_silenced_virtual_port_pair() {
    // Constraint 6 evaluates Π₂'s edge constraint on each virtual edge of a
    // Π₃ output, including Π₂'s 4(i). Silence one good Π₂ port pair inside
    // the Π₃ lists: both Π₂ ports leave their Π₂ gadgets' S and claim
    // PortErr1. Every other clause at both levels still holds.
    let inst = hard_pi3_instance(4_096, 3, 6, 14);
    // The Π₂ instance Π₃ was padded from, for its gadgets and ports.
    let level2 = hard_pi2_instance(balance(4_096).max(64), 3, 14);
    assert_eq!(level2.graph, inst.base);
    let mut out = solve(&pi3_det(3, 6), &inst, 14);
    let u2 = level2.ports[0][0];
    let (_, v2) = port_edge_at(&level2, u2);
    for (p2, (b2, i)) in [(u2, (0, 0)), (v2, port_index(&level2, v2))] {
        // Every Π₃ gadget standing for a node of p2's Π₂ gadget drops port i.
        let level2_gadget = level2.graph.nodes().filter(|x| level2.gadget_of[x.index()] == b2);
        for x in level2_gadget {
            for_gadget(&inst, &mut out, x.0, |l| {
                if let PadOut::Node(o) = &mut l.o_v {
                    o.list.s[i] = false;
                }
            });
        }
        for_gadget(&inst, &mut out, p2.0, |l| {
            if let PadOut::Node(o) = &mut l.o_v {
                o.flag = PortFlag::PortErr1;
            }
        });
    }
    let violations = check_padded(&pi3_det(3, 6).problem, &inst.graph, &inst.input, &out);
    assert!(!violations.is_empty());
    assert!(
        violations.iter().all(|v| reason(v).starts_with("6 (C_E^Π): 4: PortErr1")),
        "{violations:?}"
    );
}

/// A matrix row: the clause, the reason prefix the checker must report,
/// and the mutation of a correct output.
type Row<'a, O> = (&'static str, &'static str, Box<dyn Fn(&mut Labeling<O>) + 'a>);

/// Applies each row to a copy of `base` (which must pass) and asserts a
/// violation whose reason starts with the row's prefix. Every row runs; a
/// miss or a panic fails the test with the list of failing rows.
fn run_matrix<P: InnerProblem>(
    problem: &PaddedProblem<P>,
    inst: &PaddedInstance<P::In>,
    base: &Labeling<PadOut<P::In, P::Out>>,
    rows: Vec<Row<'_, PadOut<P::In, P::Out>>>,
) {
    assert!(check_padded(problem, &inst.graph, &inst.input, base).is_empty());
    let mut failures = Vec::new();
    for (clause, expect, mutate) in rows {
        let mut out = base.clone();
        mutate(&mut out);
        match catch_unwind(AssertUnwindSafe(|| {
            check_padded(problem, &inst.graph, &inst.input, &out)
        })) {
            Ok(vs) if vs.iter().any(|v| reason(v).starts_with(expect)) => {}
            Ok(vs) => failures.push(format!("{clause}: no {expect:?} among {vs:?}")),
            Err(_) => failures.push(format!("{clause}: the checker panicked")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

fn solve<P, A>(
    solver: &lcl_padding::PaddedAlgorithm<P, A>,
    inst: &PaddedInstance<P::In>,
    seed: u64,
) -> Labeling<PadOut<P::In, P::Out>>
where
    P: InnerProblem,
    A: lcl_padding::PiAlgorithm<P>,
{
    let net = Network::new(inst.graph.clone(), IdAssignment::Shuffled { seed });
    solver.run(&net, &inst.input, seed).output
}

fn reason(v: &Violation) -> &str {
    match v {
        Violation::Node(_, why) | Violation::Edge(_, why) => why,
    }
}

fn payload<I, O>(out: &mut Labeling<PadOut<I, O>>, v: NodeId) -> &mut PadNodeOut<I, O> {
    match out.node_mut(v) {
        PadOut::Node(o) => o,
        _ => panic!("{v:?} carries no node payload"),
    }
}

/// Applies `f` to the Σ_list of every node of gadget `b`, so the gadget's
/// lists stay equal.
fn for_gadget<I, O>(
    inst: &PaddedInstance<I>,
    out: &mut Labeling<PadOut<I, O>>,
    b: u32,
    f: impl Fn(&mut SigmaList<I, O>),
) {
    for v in inst.graph.nodes().filter(|v| inst.gadget_of[v.index()] == b) {
        f(&mut payload(out, v).list);
    }
}

/// The PortEdge at port node `p`, and the port at its far end.
fn port_edge_at<I>(inst: &PaddedInstance<I>, p: NodeId) -> (EdgeId, NodeId) {
    let h = inst.graph.ports(p).iter().find(|h| inst.input.edge(h.edge()).port_edge);
    let h = *h.expect("a wired port");
    (h.edge(), inst.graph.half_edge_peer(h))
}

/// The gadget of port node `p` and its 0-based port index there.
fn port_index<I>(inst: &PaddedInstance<I>, p: NodeId) -> (u32, usize) {
    let b = inst.gadget_of[p.index()];
    (b, inst.ports[b as usize].iter().position(|&q| q == p).expect("a port"))
}

/// The edge view of `e` under the instance's input and `out`.
fn edge_view<'a, I, O>(
    inst: &'a PaddedInstance<I>,
    out: &'a Labeling<O>,
    e: EdgeId,
) -> EdgeView<'a, PadIn<I>, O> {
    let [a, b] = inst.graph.endpoints(e);
    let [ha, hb] = [Side::A, Side::B].map(|side| HalfEdge::new(e, side));
    EdgeView {
        self_loop: a == b,
        nodes_in: [inst.input.node(a), inst.input.node(b)],
        nodes_out: [out.node(a), out.node(b)],
        edge_in: inst.input.edge(e),
        edge_out: out.edge(e),
        halves_in: [inst.input.half(ha), inst.input.half(hb)],
        halves_out: [out.half(ha), out.half(hb)],
    }
}
