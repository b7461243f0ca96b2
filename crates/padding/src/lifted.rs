//! The problem `Π'` of Section 3.3 and its checker (constraints 1–6).
//!
//! Constraints 1 and 3–6 are node and edge constraints, and
//! `impl NeLcl for PaddedProblem` is their one implementation.
//! [`check_padded`] runs it through [`lcl_core::check`] and adds
//! constraint 2, the gadget layer `Ψ_G`, on each gadget component: `Ψ_G`'s
//! structure checks look beyond radius 1, so they are not node-edge
//! constraints as written (Section 4.6 shows how to make them so with
//! extra proof labels, which `lcl_gadget::ne` demonstrates). Only `Ψ`'s
//! pointer rule is edge-local, and the edge constraint applies it too.
//!
//! Because `Π'` is an ne-LCL with fillers, it is itself an
//! [`InnerProblem`]: the checker of `pad(Π', G)` evaluates constraints 5d
//! and 6 through this same code (Section 5).

use crate::problem::InnerProblem;
use lcl_core::{EdgeView, Labeling, NeLcl, NodeView, Violation};
use lcl_gadget::psi::pointer_may_target;
use lcl_gadget::{check_psi, GadgetIn, LogGadgetFamily, NodeKind, PsiOutput};
use lcl_graph::{Graph, HalfEdge, NodeId, Side};

/// Input label of `Π'` (Section 3.3, "Input labels"): a `Π`-input for the
/// element, a gadget-layer input (absent exactly on `PortEdge`s and their
/// halves), and the `PortEdge`/`GadEdge` tag.
#[derive(Clone, Debug, PartialEq)]
pub struct PadIn<I> {
    /// The `Σ^Π_in` component.
    pub pi: I,
    /// The `Σ^G_in` component (includes the `Port_i`/`NoPort` node tags);
    /// `None` on `PortEdge`s and their halves.
    pub gadget: Option<GadgetIn>,
    /// The `{PortEdge, GadEdge}` tag (edges and halves; `false` on nodes).
    pub port_edge: bool,
}

impl<I> PadIn<I> {
    /// The `Port_i` decoder: `Some(i - 1)` if this labels a `Port_i` node
    /// of a family with the given `Δ` (`1 ≤ i ≤ Δ`), else `None` (a
    /// `NoPort` node, or not a node label).
    pub(crate) fn port(&self, delta: usize) -> Option<usize> {
        match self.gadget {
            Some(GadgetIn::Node { kind: NodeKind::Tree { index, port: true }, .. }) => {
                usize::from(index).checked_sub(1).filter(|&i| i < delta)
            }
            _ => None,
        }
    }
}

/// The `{PortErr1, PortErr2, NoPortErr}` component of a node output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortFlag {
    /// The port is wired to something unusable (invalid gadget, `NoPort`
    /// endpoint, …): constraint 4.
    PortErr1,
    /// The port has zero or multiple incident `PortEdge`s: constraint 3.
    PortErr2,
    /// The port is good: it participates in the virtual graph.
    NoPortErr,
}

/// The `Σ_list` tuple of Section 3.3:
/// `(S, ι^V, ι^E_1..Δ, ι^B_1..Δ, o^V, o^E_1..Δ, o^B_1..Δ)`.
///
/// `S ⊆ {Port_1, …, Port_Δ}` is the set of valid ports of the node's
/// gadget; the `ι` fields copy the inputs of the virtual node and its
/// virtual edges/half-edges; the `o` fields carry the virtual solution of
/// `Π`. All nodes of a gadget must agree on the whole tuple (constraint 6).
#[derive(Clone, Debug, PartialEq)]
pub struct SigmaList<I, O> {
    /// Membership of `Port_{k+1}` in `S`.
    pub s: Vec<bool>,
    /// The virtual node's `Π`-input (copied from the `Port_1` node).
    pub iota_v: I,
    /// Per port: the virtual edge's `Π`-input.
    pub iota_e: Vec<I>,
    /// Per port: the virtual half-edge's `Π`-input.
    pub iota_b: Vec<I>,
    /// The virtual node's `Π`-output.
    pub o_v: O,
    /// Per port: the virtual edge's `Π`-output.
    pub o_e: Vec<O>,
    /// Per port: the virtual half-edge's `Π`-output.
    pub o_b: Vec<O>,
}

impl<I: Clone, O: Clone> SigmaList<I, O> {
    /// An all-filler tuple (used inside invalid gadgets, which the paper
    /// completes arbitrarily).
    #[must_use]
    pub fn filler<P>(inner: &P, delta: usize) -> Self
    where
        P: InnerProblem<In = I, Out = O>,
    {
        SigmaList {
            s: vec![false; delta],
            iota_v: inner.filler_in(),
            iota_e: vec![inner.filler_in(); delta],
            iota_b: vec![inner.filler_in(); delta],
            o_v: inner.filler_out(),
            o_e: vec![inner.filler_out(); delta],
            o_b: vec![inner.filler_out(); delta],
        }
    }

    /// The port mapping `α` (Figure 4): `α(k)` is the 0-based index of the
    /// `k`-th member of `S` (monotone).
    #[must_use]
    pub fn alpha(&self) -> Vec<usize> {
        self.s.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect()
    }

    /// True if `S` and the four per-port vectors all have `delta` entries.
    fn has_arity(&self, delta: usize) -> bool {
        [self.s.len(), self.iota_e.len(), self.iota_b.len(), self.o_e.len(), self.o_b.len()]
            == [delta; 5]
    }
}

/// Node output payload of `Π'`.
#[derive(Clone, Debug, PartialEq)]
pub struct PadNodeOut<I, O> {
    /// The `Σ_list` part.
    pub list: SigmaList<I, O>,
    /// The port flag.
    pub flag: PortFlag,
    /// The `Σ^G_out` part: the node's `Ψ_G` output (`GadOk` = `Ok`).
    pub psi: PsiOutput,
}

/// Output label of `Π'` over `V ∪ E ∪ B`.
#[derive(Clone, Debug, PartialEq)]
pub enum PadOut<I, O> {
    /// A node's output.
    Node(Box<PadNodeOut<I, O>>),
    /// The `Σ^G_out` placeholder carried by `GadEdge`s and their halves
    /// (our `Ψ_G` writes its content on nodes, so this is a unit label).
    GadPad,
    /// The `ϵ` label required on `PortEdge`s and their halves
    /// (constraint 1).
    Eps,
}

impl<I, O> PadOut<I, O> {
    /// The node payload, if any.
    #[must_use]
    pub fn node(&self) -> Option<&PadNodeOut<I, O>> {
        match self {
            PadOut::Node(n) => Some(n),
            _ => None,
        }
    }
}

/// The padded problem `Π' = pad(Π, G)` for the `(log, Δ)` family.
#[derive(Clone, Debug)]
pub struct PaddedProblem<P> {
    /// The inner problem `Π`.
    pub inner: P,
    /// The gadget family `G`.
    pub family: LogGadgetFamily,
}

impl<P: InnerProblem> PaddedProblem<P> {
    /// Pads `inner` with the `(log, Δ)` family of the given `Δ`.
    #[must_use]
    pub fn new(inner: P, delta: usize) -> Self {
        PaddedProblem { inner, family: LogGadgetFamily::new(delta) }
    }

    /// The family's `Δ`.
    #[must_use]
    pub fn delta(&self) -> usize {
        use lcl_gadget::GadgetFamily as _;
        self.family.delta()
    }
}

/// One gadget component: the maximal connected subgraph over `GadEdge`s.
pub(crate) struct GadComponent {
    /// Host nodes, in discovery order.
    pub nodes: Vec<NodeId>,
    /// The component as a standalone graph.
    pub sub: Graph,
    /// Its gadget-layer input labeling.
    pub sub_input: Labeling<GadgetIn>,
}

/// Splits the padded graph into gadget components. Malformed gadget labels
/// are reported in `violations` and replaced by placeholders so that
/// checking can continue.
pub(crate) fn gadget_components<I: Clone + std::fmt::Debug>(
    g: &Graph,
    input: &Labeling<PadIn<I>>,
    violations: &mut Vec<Violation>,
) -> (Vec<GadComponent>, Vec<u32>) {
    // While a component is built, `comp_of` holds each member's index in
    // the component (which also marks it as visited); then its id.
    let mut comp_of = vec![u32::MAX; g.node_count()];
    let mut comps = Vec::new();
    for start in g.nodes() {
        if comp_of[start.index()] != u32::MAX {
            continue;
        }
        // Breadth-first over `GadEdge`s: `nodes` is the queue, and at the
        // end the discovery order.
        let mut nodes = vec![start];
        comp_of[start.index()] = 0;
        let mut head = 0;
        while let Some(&v) = nodes.get(head) {
            head += 1;
            for &h in g.ports(v) {
                if input.edge(h.edge()).port_edge {
                    continue;
                }
                let w = g.half_edge_peer(h);
                if comp_of[w.index()] == u32::MAX {
                    comp_of[w.index()] = nodes.len() as u32;
                    nodes.push(w);
                }
            }
        }
        // Build the standalone subgraph with only GadEdges.
        let mut sub = Graph::with_capacity(nodes.len(), 0);
        sub.add_nodes(nodes.len());
        let mut node_labels = Vec::with_capacity(nodes.len());
        for &v in &nodes {
            let lab = match input.node(v).gadget {
                Some(gi @ GadgetIn::Node { .. }) => gi,
                other => {
                    violations.push(Violation::Node(
                        v,
                        format!("input: node carries gadget label {other:?}"),
                    ));
                    GadgetIn::Node {
                        kind: NodeKind::Tree { index: 1, port: false },
                        color: u32::MAX - v.0,
                    }
                }
            };
            node_labels.push(lab);
        }
        let mut edge_labels = Vec::new();
        let mut half_labels = Vec::new();
        for &v in &nodes {
            for &h in g.ports(v) {
                let e = h.edge();
                if input.edge(e).port_edge {
                    continue;
                }
                // Each GadEdge is added at the first of its two ports in
                // discovery order: at the endpoint discovered first, or at
                // the lower port of a self-loop.
                let (here, peer) = (comp_of[v.index()], comp_of[g.half_edge_peer(h).index()]);
                if here > peer || (here == peer && g.port_of(h) > g.peer_port(h)) {
                    continue;
                }
                let [a, b] = g.endpoints(e);
                sub.add_edge(NodeId(comp_of[a.index()]), NodeId(comp_of[b.index()]));
                edge_labels.push(GadgetIn::Edge);
                let mut hl = [GadgetIn::Edge; 2];
                for (slot, side) in [(0usize, Side::A), (1, Side::B)] {
                    let he = HalfEdge::new(e, side);
                    hl[slot] = match input.half(he).gadget {
                        Some(gi @ GadgetIn::Half { .. }) => gi,
                        other => {
                            violations.push(Violation::Edge(
                                e,
                                format!("input: half carries gadget label {other:?}"),
                            ));
                            GadgetIn::Half { dir: lcl_gadget::Dir::Up, color: u32::MAX - e.0 }
                        }
                    };
                }
                half_labels.push(hl);
            }
        }
        let sub_input = Labeling::from_parts(node_labels, edge_labels, half_labels);
        let cid = comps.len() as u32;
        for &v in &nodes {
            comp_of[v.index()] = cid;
        }
        comps.push(GadComponent { nodes, sub, sub_input });
    }
    (comps, comp_of)
}

/// Checks a `Π'` output against constraints 1–6 of Section 3.3:
/// constraint 2 (`Ψ_G` on every gadget component), then the node and edge
/// constraints 1 and 3–6 through [`lcl_core::check`].
///
/// # Panics
///
/// Panics if a labeling does not fit `g`.
#[must_use]
pub fn check_padded<P: InnerProblem>(
    prob: &PaddedProblem<P>,
    g: &Graph,
    input: &Labeling<PadIn<P::In>>,
    output: &Labeling<PadOut<P::In, P::Out>>,
) -> Vec<Violation> {
    assert!(input.fits(g) && output.fits(g), "labelings must fit the graph");
    let mut violations = Vec::new();
    let (comps, _) = gadget_components(g, input, &mut violations);
    for comp in &comps {
        // A node without a node payload counts as `Error` here; the node
        // constraint reports the payload itself.
        let psi: Vec<PsiOutput> = comp
            .nodes
            .iter()
            .map(|&v| output.node(v).node().map_or(PsiOutput::Error, |o| o.psi))
            .collect();
        for viol in check_psi(&comp.sub, &comp.sub_input, &psi, prob.delta()) {
            violations.push(Violation::Node(
                comp.nodes[viol.node.index()],
                format!("2 (Ψ_G): {}", viol.why),
            ));
        }
    }
    violations.extend(lcl_core::check(prob, g, input, output).violations);
    violations
}

/// The entries of `v` at the ports `α` selects, in rank order.
fn select<'a, T>(alpha: &[usize], v: &'a [T]) -> Vec<&'a T> {
    alpha.iter().map(|&k| &v[k]).collect()
}

/// Constraints 1 and 3–6 of Section 3.3. The node constraint holds 3 and
/// 5; the edge constraint holds 1, 4 and 6, and `Ψ`'s pointer rule along
/// `GadEdge`s. Constraints 5 and 6 are escaped when an endpoint outputs an
/// error label (`L_Err`).
impl<P: InnerProblem> NeLcl for PaddedProblem<P> {
    type In = PadIn<P::In>;
    type Out = PadOut<P::In, P::Out>;

    fn check_node(&self, view: &NodeView<'_, Self::In, Self::Out>) -> Result<(), String> {
        let PadOut::Node(o) = view.node_out else {
            return Err(format!(
                "output: node carries {:?}, expected a node payload",
                view.node_out
            ));
        };
        let delta = self.delta();
        // Constraint 3: PortErr2 exactly at ports without exactly one
        // PortEdge.
        let port = view.node_in.port(delta);
        let port_edges = view.edges_in.iter().filter(|e| e.port_edge).count();
        if (port.is_some() && port_edges != 1) != (o.flag == PortFlag::PortErr2) {
            return Err(format!(
                "3: flag {:?} with {port_edges} incident PortEdges (port: {})",
                o.flag,
                port.is_some()
            ));
        }
        // Constraint 5.
        if o.psi.is_error_label() {
            return Ok(());
        }
        let list = &o.list;
        if !list.has_arity(delta) {
            return Err("5: Σ_list has wrong arity".into());
        }
        if let Some(i) = port {
            // 5a: Port_i ∈ S ⟺ flag = NoPortErr.
            if list.s[i] != (o.flag == PortFlag::NoPortErr) {
                return Err(format!("5a: S[{i}] = {} but flag = {:?}", list.s[i], o.flag));
            }
            // 5b: the Port_1 node pins the virtual node's input.
            if i == 0 && list.iota_v != view.node_in.pi {
                return Err("5b: ι^V differs from the Port_1 node's Π-input".into());
            }
            // 5c: in-S ports copy their PortEdge's Π-inputs.
            if list.s[i] {
                for (e, h) in view.edges_in.iter().zip(view.halves_in) {
                    if !e.port_edge {
                        continue;
                    }
                    if list.iota_e[i] != e.pi {
                        return Err(format!("5c: ι^E_{i} differs from the PortEdge input"));
                    }
                    if list.iota_b[i] != h.pi {
                        return Err(format!("5c: ι^B_{i} differs from the half-edge input"));
                    }
                }
            }
        }
        // 5d: the virtual node, with the ports α selects, satisfies C_N^Π.
        let alpha = list.alpha();
        self.inner
            .check_node(&NodeView {
                degree: alpha.len(),
                node_in: &list.iota_v,
                node_out: &list.o_v,
                edges_in: &select(&alpha, &list.iota_e),
                edges_out: &select(&alpha, &list.o_e),
                halves_in: &select(&alpha, &list.iota_b),
                halves_out: &select(&alpha, &list.o_b),
            })
            .map_err(|why| format!("5d (C_N^Π): {why}"))
    }

    fn check_edge(&self, view: &EdgeView<'_, Self::In, Self::Out>) -> Result<(), String> {
        // Constraint 1: ϵ exactly on PortEdges and their halves; the Σ^G_out
        // placeholder on GadEdges and their halves.
        let port_edge = view.edge_in.port_edge;
        let fits =
            |o: &Self::Out| matches!((port_edge, o), (true, PadOut::Eps) | (false, PadOut::GadPad));
        if !fits(view.edge_out) {
            return Err(format!(
                "1: edge output {:?} mismatches its {} tag",
                view.edge_out,
                if port_edge { "PortEdge" } else { "GadEdge" }
            ));
        }
        if !view.halves_out.iter().all(|h| fits(h)) {
            return Err("1: half-edge output mismatch".into());
        }
        let (PadOut::Node(ou), PadOut::Node(ov)) = (view.nodes_out[0], view.nodes_out[1]) else {
            return Err("output: an endpoint carries no node payload".into());
        };
        let erroneous = ou.psi.is_error_label() || ov.psi.is_error_label();
        if !port_edge {
            // Ψ's pointer rule (3a–3f of Section 4.4): a pointer along this
            // edge must reach an output its kind allows.
            for (side, me, other) in [(0, ou, ov), (1, ov, ou)] {
                let PsiOutput::Pointer(p) = me.psi else { continue };
                let from = view.nodes_in[side].gadget.and_then(|gi| gi.kind());
                if view.halves_in[side].gadget.and_then(|gi| gi.dir()) == Some(p)
                    && !pointer_may_target(from, p, other.psi)
                {
                    return Err(format!("2 (Ψ_G): →{p} points at {}", other.psi));
                }
            }
            // 6: the whole gadget agrees on Σ_list.
            if !erroneous && ou.list != ov.list {
                return Err("6: Σ_list differs across a GadEdge".into());
            }
            return Ok(());
        }
        // Constraint 4.
        let delta = self.delta();
        let (pu, pv) = (view.nodes_in[0].port(delta), view.nodes_in[1].port(delta));
        // 4(i): two ports with GadOk may not claim PortErr1.
        if pu.is_some()
            && pv.is_some()
            && !erroneous
            && (ou.flag == PortFlag::PortErr1 || ov.flag == PortFlag::PortErr1)
        {
            return Err("4: PortErr1 on a good port pair".into());
        }
        // 4(ii): a port whose edge touches NoPort or L_Err may not claim
        // NoPortErr.
        for (pw, ow, px) in [(pu, ou, pv), (pv, ov, pu)] {
            if pw.is_some() && (px.is_none() || erroneous) && ow.flag == PortFlag::NoPortErr {
                return Err("4: NoPortErr on a port wired to NoPort or an erroneous gadget".into());
            }
        }
        // 6: a PortEdge between two in-S ports is a virtual edge, and it
        // satisfies C_E^Π. A wrong arity is constraint 5's, at the node.
        let (Some(i), Some(j)) = (pu, pv) else { return Ok(()) };
        let (lu, lv) = (&ou.list, &ov.list);
        if erroneous || !(lu.has_arity(delta) && lv.has_arity(delta) && lu.s[i] && lv.s[j]) {
            return Ok(());
        }
        if lu.iota_e[i] != lv.iota_e[j] {
            return Err("6: ι^E entries disagree".into());
        }
        if lu.o_e[i] != lv.o_e[j] {
            return Err("6: o^E entries disagree".into());
        }
        self.inner
            .check_edge(&EdgeView {
                // Two ports of one gadget make a virtual loop, which radius
                // 1 cannot see.
                self_loop: false,
                nodes_in: [&lu.iota_v, &lv.iota_v],
                nodes_out: [&lu.o_v, &lv.o_v],
                edge_in: &lu.iota_e[i],
                edge_out: &lu.o_e[i],
                halves_in: [&lu.iota_b[i], &lv.iota_b[j]],
                halves_out: [&lu.o_b[i], &lv.o_b[j]],
            })
            .map_err(|why| format!("6 (C_E^Π): {why}"))
    }
}

/// Padded problems are themselves inner problems (the Section 5
/// recursion).
impl<P: InnerProblem> InnerProblem for PaddedProblem<P> {
    fn filler_in(&self) -> Self::In {
        PadIn {
            pi: self.inner.filler_in(),
            gadget: Some(GadgetIn::Node {
                kind: NodeKind::Tree { index: 1, port: false },
                color: 0,
            }),
            port_edge: false,
        }
    }

    fn filler_out(&self) -> Self::Out {
        PadOut::Node(Box::new(PadNodeOut {
            list: SigmaList::filler(&self.inner, self.delta()),
            flag: PortFlag::NoPortErr,
            psi: PsiOutput::Error,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SinklessInner;
    use lcl_core::problems::Orient;
    use lcl_gadget::Dir;

    fn demo_list() -> SigmaList<(), Orient> {
        SigmaList {
            s: vec![true, false, true],
            iota_v: (),
            iota_e: vec![(); 3],
            iota_b: vec![(); 3],
            o_v: Orient::Blank,
            o_e: vec![Orient::Blank; 3],
            o_b: vec![Orient::Out, Orient::Blank, Orient::In],
        }
    }

    #[test]
    fn alpha_maps_rank_to_port_index() {
        // S = {Port_1, Port_3} → α = [0, 2] (0-based), the monotone
        // bijection of constraint 5 / Figure 4.
        assert_eq!(demo_list().alpha(), vec![0, 2]);
        let empty = SigmaList::<(), Orient>::filler(&SinklessInner::new(), 3);
        assert!(empty.alpha().is_empty());
    }

    #[test]
    fn filler_list_has_full_arity() {
        let f = SigmaList::<(), Orient>::filler(&SinklessInner::new(), 4);
        assert_eq!(f.s.len(), 4);
        assert_eq!(f.iota_e.len(), 4);
        assert_eq!(f.o_b.len(), 4);
        assert!(f.s.iter().all(|&b| !b));
    }

    #[test]
    fn pad_out_node_accessor() {
        let o: PadOut<(), Orient> = PadOut::Node(Box::new(PadNodeOut {
            list: demo_list(),
            flag: PortFlag::NoPortErr,
            psi: PsiOutput::Ok,
        }));
        assert!(o.node().is_some());
        assert!(PadOut::<(), Orient>::Eps.node().is_none());
        assert!(PadOut::<(), Orient>::GadPad.node().is_none());
    }

    #[test]
    fn pointer_compat_allows_legal_chains_and_rejects_illegal() {
        // The edge constraint applies Ψ's pointer rule along GadEdges.
        let p = PaddedProblem::new(SinklessInner::new(), 3);
        let tree_in = PadIn::<()> {
            pi: (),
            gadget: Some(GadgetIn::Node {
                kind: NodeKind::Tree { index: 1, port: false },
                color: 0,
            }),
            port_edge: false,
        };
        let edge_in = PadIn::<()> { pi: (), gadget: Some(GadgetIn::Edge), port_edge: false };
        let half_in = |dir: Dir| PadIn::<()> {
            pi: (),
            gadget: Some(GadgetIn::Half { dir, color: 0 }),
            port_edge: false,
        };
        let node_out = |psi: PsiOutput| {
            PadOut::Node(Box::new(PadNodeOut {
                list: SigmaList::filler(&p.inner, 3),
                flag: PortFlag::NoPortErr,
                psi,
            }))
        };
        let check = |psi: [PsiOutput; 2], dirs: [Dir; 2]| {
            let [ou, ov] = psi.map(node_out);
            let [hu, hv] = dirs.map(half_in);
            p.check_edge(&EdgeView {
                self_loop: false,
                nodes_in: [&tree_in, &tree_in],
                nodes_out: [&ou, &ov],
                edge_in: &edge_in,
                edge_out: &PadOut::GadPad,
                halves_in: [&hu, &hv],
                halves_out: [&PadOut::GadPad, &PadOut::GadPad],
            })
        };
        let ptr = PsiOutput::Pointer;
        // →Right over a Right-labeled half must see Right or Error.
        assert!(check([ptr(Dir::Right), ptr(Dir::Right)], [Dir::Right, Dir::Left]).is_ok());
        let bad = check([ptr(Dir::Right), PsiOutput::Ok], [Dir::Right, Dir::Left]);
        assert!(bad.is_err_and(|why| why.starts_with("2 (Ψ_G)")));
        // →Up must see Down_j with j ≠ own index; →Down_i must see RChild.
        assert!(check([ptr(Dir::Up), ptr(Dir::Down(1))], [Dir::Up, Dir::Down(1)]).is_err());
        assert!(check([ptr(Dir::Up), ptr(Dir::Down(2))], [Dir::Up, Dir::Down(1)]).is_ok());
        assert!(check([ptr(Dir::Down(1)), ptr(Dir::Up)], [Dir::Down(1), Dir::Up]).is_err());
        assert!(check([ptr(Dir::Down(1)), ptr(Dir::RChild)], [Dir::Down(1), Dir::Up]).is_ok());
        // A pointer along a *different* edge is unconstrained here.
        assert!(check([ptr(Dir::Parent), PsiOutput::Ok], [Dir::Right, Dir::Left]).is_ok());
    }

    #[test]
    fn padded_problem_reports_delta() {
        let p = PaddedProblem::new(SinklessInner::new(), 5);
        assert_eq!(p.delta(), 5);
    }

    /// `gadget_components` as written with a per-component `HashMap` from
    /// host to local node and a `HashSet` of added edges: the reference
    /// for the table-based version.
    fn reference_components<I: Clone + std::fmt::Debug>(
        g: &Graph,
        input: &Labeling<PadIn<I>>,
        violations: &mut Vec<Violation>,
    ) -> (Vec<GadComponent>, Vec<u32>) {
        let mut comp_of = vec![u32::MAX; g.node_count()];
        let mut comps = Vec::new();
        for start in g.nodes() {
            if comp_of[start.index()] != u32::MAX {
                continue;
            }
            let cid = comps.len() as u32;
            let mut nodes = Vec::new();
            let mut queue = std::collections::VecDeque::new();
            comp_of[start.index()] = cid;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                nodes.push(v);
                for &h in g.ports(v) {
                    if input.edge(h.edge()).port_edge {
                        continue;
                    }
                    let w = g.half_edge_peer(h);
                    if comp_of[w.index()] == u32::MAX {
                        comp_of[w.index()] = cid;
                        queue.push_back(w);
                    }
                }
            }
            let mut sub = Graph::with_capacity(nodes.len(), 0);
            let mut to_local = std::collections::HashMap::new();
            for (i, &v) in nodes.iter().enumerate() {
                sub.add_node();
                to_local.insert(v, NodeId(i as u32));
            }
            let mut node_labels = Vec::with_capacity(nodes.len());
            for &v in &nodes {
                let lab = match input.node(v).gadget {
                    Some(gi @ GadgetIn::Node { .. }) => gi,
                    other => {
                        violations.push(Violation::Node(
                            v,
                            format!("input: node carries gadget label {other:?}"),
                        ));
                        GadgetIn::Node {
                            kind: NodeKind::Tree { index: 1, port: false },
                            color: u32::MAX - v.0,
                        }
                    }
                };
                node_labels.push(lab);
            }
            let mut edge_labels = Vec::new();
            let mut half_labels = Vec::new();
            let mut seen_edge = std::collections::HashSet::new();
            for &v in &nodes {
                for &h in g.ports(v) {
                    if input.edge(h.edge()).port_edge || !seen_edge.insert(h.edge()) {
                        continue;
                    }
                    let [a, b] = g.endpoints(h.edge());
                    sub.add_edge(to_local[&a], to_local[&b]);
                    edge_labels.push(GadgetIn::Edge);
                    let mut hl = [GadgetIn::Edge; 2];
                    for (slot, side) in [(0usize, Side::A), (1, Side::B)] {
                        let he = HalfEdge::new(h.edge(), side);
                        hl[slot] = match input.half(he).gadget {
                            Some(gi @ GadgetIn::Half { .. }) => gi,
                            other => {
                                violations.push(Violation::Edge(
                                    h.edge(),
                                    format!("input: half carries gadget label {other:?}"),
                                ));
                                GadgetIn::Half { dir: Dir::Up, color: u32::MAX - h.edge().0 }
                            }
                        };
                    }
                    half_labels.push(hl);
                }
            }
            let sub_input = Labeling::from_parts(node_labels, edge_labels, half_labels);
            comps.push(GadComponent { nodes, sub, sub_input });
        }
        (comps, comp_of)
    }

    /// Asserts that `gadget_components` equals the reference on `input`:
    /// the same components, subgraphs, gadget inputs and violations.
    /// Returns the number of violations.
    fn assert_components_match(g: &Graph, input: &Labeling<PadIn<()>>, what: &str) -> usize {
        let (mut got_viol, mut want_viol) = (Vec::new(), Vec::new());
        let (got, got_of) = gadget_components(g, input, &mut got_viol);
        let (want, want_of) = reference_components(g, input, &mut want_viol);
        assert_eq!(got_of, want_of, "{what}: component of each node");
        assert_eq!(got.len(), want.len(), "{what}: component count");
        for (c, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.nodes, b.nodes, "{what}: component {c} discovery order");
            assert_eq!(a.sub, b.sub, "{what}: component {c} subgraph");
            assert_eq!(a.sub_input, b.sub_input, "{what}: component {c} gadget input");
        }
        assert_eq!(got_viol, want_viol, "{what}: violations");
        got_viol.len()
    }

    #[test]
    fn gadget_components_match_the_hashing_reference() {
        use crate::hard::{corrupt_gadgets, hard_pi2_instance};
        for seed in 0..3 {
            let mut inst = hard_pi2_instance(1_500, 3, seed);
            assert_eq!(assert_components_match(&inst.graph, &inst.input, "intact"), 0);
            corrupt_gadgets(&mut inst, &[0, 3, 5, 8], seed);
            assert_eq!(assert_components_match(&inst.graph, &inst.input, "corrupted"), 0);

            // Malformed gadget labels: a node without a node label, a node
            // carrying a half label, a half without a half label, and a
            // PortEdge retagged as a GadEdge, which merges two gadgets and
            // brings its two unlabeled halves into the merged component.
            let g = &inst.graph;
            let input = &mut inst.input;
            let v = NodeId(seed as u32 * 7);
            input.node_mut(v).gadget = None;
            let w = NodeId(seed as u32 * 7 + 40);
            input.node_mut(w).gadget = Some(GadgetIn::Half { dir: Dir::Up, color: 1 });
            let gad_edge = g.edges().find(|&e| !input.edge(e).port_edge).expect("a GadEdge");
            input.half_mut(HalfEdge::new(gad_edge, Side::B)).gadget = None;
            let port_edge =
                g.edges().filter(|&e| input.edge(e).port_edge).last().expect("a PortEdge");
            input.edge_mut(port_edge).port_edge = false;
            assert!(assert_components_match(g, input, "malformed labels") >= 5);
        }
    }

    #[test]
    fn gadget_components_match_the_hashing_reference_on_loops_and_parallel_edges() {
        // Gadget edges 0–1 (twice, once each way), a loop at 2, 1–2 and a
        // loop at 3; 2–3 is the only PortEdge. Node 3 and one half of the
        // loop at 2 carry no gadget label.
        let mut g = Graph::new();
        g.add_nodes(4);
        let edges = [(0, 1), (2, 2), (1, 0), (1, 2), (2, 3), (3, 3)];
        for (a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let node = |v: NodeId| PadIn {
            pi: (),
            gadget: (v.0 != 3).then_some(GadgetIn::Node {
                kind: NodeKind::Tree { index: 1, port: false },
                color: v.0,
            }),
            port_edge: false,
        };
        let edge = |e: lcl_graph::EdgeId| PadIn { pi: (), gadget: None, port_edge: e.0 == 4 };
        let half = |h: HalfEdge| PadIn {
            pi: (),
            gadget: (h != HalfEdge::new(lcl_graph::EdgeId(1), Side::B))
                .then_some(GadgetIn::Half { dir: Dir::Up, color: h.edge().0 }),
            port_edge: h.edge().0 == 4,
        };
        let input = Labeling::build(&g, node, edge, half);
        assert_eq!(assert_components_match(&g, &input, "loops and parallel edges"), 2);
    }
}
