//! The upper-bound algorithm for `Π'` (Lemma 4).
//!
//! Each node: (1) runs algorithm `V` on its gadget component — `O(d(n))`
//! rounds; (2) inspects its constant-radius port situation to choose its
//! `{PortErr1, PortErr2, NoPortErr}` flag; (3) if its gadget is valid,
//! participates in simulating the inner algorithm for `Π` on the **virtual
//! graph** obtained by contracting valid gadgets and deleting invalid ones
//! — each virtual round costs `Θ(gadget diameter)` physical rounds; (4)
//! writes the virtual solution into its `Σ_list`.
//!
//! The returned [`PadStats`] decomposes the honest cost:
//! `physical = V-radius + inner-rounds × (max valid-gadget diameter + 1)`,
//! which is the `O(T(Π, n) · d(n))` of Lemma 4.

use crate::lifted::{
    gadget_components, PadIn, PadNodeOut, PadOut, PaddedProblem, PortFlag, SigmaList,
};
use crate::problem::{InnerProblem, PiAlgorithm, PiRun};
use lcl_core::Labeling;
use lcl_gadget::GadgetFamily as _;
use lcl_gadget::PsiOutput;
use lcl_graph::{Graph, HalfEdge, NodeId, Side};
use lcl_local::{Network, NodeExecutor, Sequential};

/// Cost decomposition of a `Π'` run (Lemma 4 accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PadStats {
    /// Max radius used by algorithm `V` over all gadget components.
    pub v_radius: u32,
    /// Rounds of the simulated inner algorithm on the virtual graph.
    pub inner_rounds: u32,
    /// Max diameter over valid gadget components (the simulation's
    /// per-round overhead).
    pub gadget_diameter: u32,
    /// Number of virtual nodes (valid gadgets).
    pub virtual_nodes: usize,
    /// Number of invalid gadget components.
    pub invalid_gadgets: usize,
}

impl PadStats {
    /// Total physical rounds: `V + T·(D+1)`.
    #[must_use]
    pub fn physical_rounds(&self) -> u32 {
        self.v_radius + self.inner_rounds * (self.gadget_diameter + 1)
    }
}

/// The Lemma-4 solver: pads an inner algorithm `A` for `Π` into an
/// algorithm for `Π'`.
#[derive(Clone, Debug)]
pub struct PaddedAlgorithm<P, A> {
    /// The padded problem (family and inner constraints).
    pub problem: PaddedProblem<P>,
    /// The inner algorithm simulated on the virtual graph.
    pub inner_alg: A,
}

/// Result of a `Π'` run: the output labeling plus the cost breakdown.
#[derive(Clone, Debug)]
pub struct PaddedRun<I, O> {
    /// The `Π'` output.
    pub output: Labeling<PadOut<I, O>>,
    /// Cost decomposition.
    pub stats: PadStats,
}

impl<P, A> PaddedAlgorithm<P, A>
where
    P: InnerProblem,
    P::In: Clone,
    A: PiAlgorithm<P>,
{
    /// Creates the solver.
    #[must_use]
    pub fn new(problem: PaddedProblem<P>, inner_alg: A) -> Self {
        PaddedAlgorithm { problem, inner_alg }
    }

    /// Solves `Π'` on a padded-graph network.
    ///
    /// # Panics
    ///
    /// Panics on internal inconsistencies (e.g. a valid gadget without a
    /// `Port_1` node), which indicate bugs rather than bad inputs.
    #[must_use]
    pub fn run(
        &self,
        net: &Network,
        input: &Labeling<PadIn<P::In>>,
        seed: u64,
    ) -> PaddedRun<P::In, P::Out> {
        self.run_with(net, input, seed, &Sequential)
    }

    /// [`Self::run`] with a pluggable [`NodeExecutor`]: the per-gadget
    /// V-runs (step 1), the per-node port flags (step 2), and the
    /// per-gadget diameter accounting (step 7) fan out across the
    /// executor. Gadget components are disjoint and flags read only the
    /// shared `Ψ` table, so the run is bit-identical to [`Self::run`]
    /// under **any** executor.
    ///
    /// # Panics
    ///
    /// As [`Self::run`].
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run_with<X: NodeExecutor>(
        &self,
        net: &Network,
        input: &Labeling<PadIn<P::In>>,
        seed: u64,
        exec: &X,
    ) -> PaddedRun<P::In, P::Out> {
        let g = net.graph();
        let delta = self.problem.delta();
        let mut scratch = Vec::new();
        let (comps, comp_of) = gadget_components(g, input, &mut scratch);

        // (1) Algorithm V per component — components are disjoint
        // subgraphs, so the expensive verification fans out.
        let family = &self.problem.family;
        let verifier_outs = exec.map_nodes(comps.len(), |c| {
            family.verify(&comps[c].sub, &comps[c].sub_input, net.known_n())
        });
        let mut psi = vec![PsiOutput::Ok; g.node_count()];
        let mut comp_valid = Vec::with_capacity(comps.len());
        let mut v_radius = 0;
        for (comp, out) in comps.iter().zip(&verifier_outs) {
            v_radius = v_radius.max(out.trace.max_radius());
            comp_valid.push(out.all_ok());
            for (local, &host) in comp.nodes.iter().enumerate() {
                psi[host.index()] = out.output[local];
            }
        }

        // (2) Port flags.
        let input_port = |v: NodeId| input.node(v).port(delta);
        let port_edges_of = |v: NodeId| -> Vec<HalfEdge> {
            g.ports(v).iter().copied().filter(|h| input.edge(h.edge()).port_edge).collect()
        };
        let flags: Vec<PortFlag> = exec.map_nodes(g.node_count(), |vi| {
            let v = NodeId(vi as u32);
            let Some(_) = input_port(v) else { return PortFlag::NoPortErr };
            let pes = port_edges_of(v);
            if pes.len() != 1 {
                return PortFlag::PortErr2;
            }
            let peer = g.half_edge_peer(pes[0]);
            let good = psi[v.index()] == PsiOutput::Ok
                && psi[peer.index()] == PsiOutput::Ok
                && input_port(peer).is_some();
            if good {
                PortFlag::NoPortErr
            } else {
                PortFlag::PortErr1
            }
        });

        // (3) Virtual graph: one node per valid gadget; virtual edges for
        // PortEdges whose two ports are both in S (= NoPortErr).
        let in_s = |v: NodeId| flags[v.index()] == PortFlag::NoPortErr && input_port(v).is_some();
        let mut vid_of_comp: Vec<Option<u32>> = vec![None; comps.len()];
        let mut vgraph = Graph::new();
        let mut vids: Vec<u64> = Vec::new();
        for (c, comp) in comps.iter().enumerate() {
            if comp_valid[c] {
                let v = vgraph.add_node();
                vid_of_comp[c] = Some(v.0);
                vids.push(comp.nodes.iter().map(|&w| net.id_of(w)).min().expect("nonempty gadget"));
            }
        }
        // Virtual edge records: (host PortEdge, u-side port node, v-side
        // port node, virtual edge id).
        struct VEdge {
            host: lcl_graph::EdgeId,
            u_port: NodeId,
            v_port: NodeId,
            vedge: lcl_graph::EdgeId,
        }
        let mut vedges: Vec<VEdge> = Vec::new();
        for e in g.edges() {
            if !input.edge(e).port_edge {
                continue;
            }
            let [u, v] = g.endpoints(e);
            if !(in_s(u) && in_s(v)) {
                continue;
            }
            let (cu, cv) = (comp_of[u.index()] as usize, comp_of[v.index()] as usize);
            let (Some(vu), Some(vv)) = (vid_of_comp[cu], vid_of_comp[cv]) else {
                continue; // in-S implies GadOk implies valid; defensive
            };
            let vedge = vgraph.add_edge(NodeId(vu), NodeId(vv));
            vedges.push(VEdge { host: e, u_port: u, v_port: v, vedge });
        }

        // (4) Virtual inputs.
        let filler = self.problem.inner.filler_in();
        let port1_pi: Vec<P::In> = comps
            .iter()
            .enumerate()
            .map(|(c, comp)| {
                if vid_of_comp[c].is_none() {
                    return filler.clone();
                }
                let p1 = comp
                    .nodes
                    .iter()
                    .copied()
                    .find(|&w| input_port(w) == Some(0))
                    .expect("valid gadget has a Port_1 node");
                input.node(p1).pi.clone()
            })
            .collect();
        // Virtual ids were assigned in ascending component order.
        let vnode_in: Vec<P::In> = comps
            .iter()
            .enumerate()
            .filter(|&(c, _)| vid_of_comp[c].is_some())
            .map(|(c, _)| port1_pi[c].clone())
            .collect();
        let vinput = Labeling::from_parts(
            vnode_in,
            vedges.iter().map(|r| input.edge(r.host).pi.clone()).collect(),
            vedges
                .iter()
                .map(|r| {
                    [
                        input.half(HalfEdge::new(r.host, Side::A)).pi.clone(),
                        input.half(HalfEdge::new(r.host, Side::B)).pi.clone(),
                    ]
                })
                .collect(),
        );

        // (5) Simulate the inner algorithm. Lemma 4: the simulated
        // algorithm is told the *padded* n (consistent because the model
        // allows disconnected graphs). The executor threads through, so
        // the virtual-graph simulation parallelizes like the outer steps.
        let vnet = Network::with_ids(vgraph, vids).with_known_n(net.known_n());
        let PiRun { output: vout, rounds: inner_rounds } =
            self.inner_alg.solve_with(&vnet, &vinput, seed, exec);

        // (6) Assemble Σ_list per component and the final labeling.
        let mut lists: Vec<SigmaList<P::In, P::Out>> =
            comps.iter().map(|_| SigmaList::filler(&self.problem.inner, delta)).collect();
        for (c, comp) in comps.iter().enumerate() {
            if vid_of_comp[c].is_none() {
                continue;
            }
            let list = &mut lists[c];
            list.iota_v = port1_pi[c].clone();
            let vnode = NodeId(vid_of_comp[c].expect("valid"));
            list.o_v = vout.node(vnode).clone();
            for &w in &comp.nodes {
                let Some(i) = input_port(w) else { continue };
                if !in_s(w) {
                    continue;
                }
                list.s[i] = true;
                let pe = port_edges_of(w)[0];
                list.iota_e[i] = input.edge(pe.edge()).pi.clone();
                list.iota_b[i] = input.half(pe).pi.clone();
                // Dangler until proven wired (overwritten below).
                list.o_e[i] = self.problem.inner.dangler_edge_out();
                list.o_b[i] = self.problem.inner.dangler_half_out();
            }
        }
        for r in &vedges {
            for (port_node, vside) in [(r.u_port, Side::A), (r.v_port, Side::B)] {
                let c = comp_of[port_node.index()] as usize;
                let i = input_port(port_node).expect("in-S node is a port");
                lists[c].o_e[i] = vout.edge(r.vedge).clone();
                lists[c].o_b[i] = vout.half(HalfEdge::new(r.vedge, vside)).clone();
            }
        }

        let node_out: Vec<PadOut<P::In, P::Out>> = g
            .nodes()
            .map(|v| {
                let c = comp_of[v.index()] as usize;
                PadOut::Node(Box::new(PadNodeOut {
                    list: lists[c].clone(),
                    flag: flags[v.index()],
                    psi: psi[v.index()],
                }))
            })
            .collect();
        let edge_out: Vec<PadOut<P::In, P::Out>> = g
            .edges()
            .map(|e| if input.edge(e).port_edge { PadOut::Eps } else { PadOut::GadPad })
            .collect();
        let half_out: Vec<[PadOut<P::In, P::Out>; 2]> = g
            .edges()
            .map(|e| {
                if input.edge(e).port_edge {
                    [PadOut::Eps, PadOut::Eps]
                } else {
                    [PadOut::GadPad, PadOut::GadPad]
                }
            })
            .collect();
        let output = Labeling::from_parts(node_out, edge_out, half_out);

        // (7) Cost accounting: every valid gadget's exact diameter, fanned
        // out too. The kernel's bounds settle a balanced gadget with Δ ≥ 2
        // in at most four BFS, so its bit-parallel batches run only on
        // gadgets of Δ = 1 or with sub-gadgets of unequal heights.
        let gadget_diameter = exec
            .map_nodes(comps.len(), |c| {
                if vid_of_comp[c].is_some() {
                    lcl_graph::diameter(&comps[c].sub)
                } else {
                    0
                }
            })
            .into_iter()
            .max()
            .unwrap_or(0);
        let stats = PadStats {
            v_radius,
            inner_rounds,
            gadget_diameter,
            virtual_nodes: vids_len(&vid_of_comp),
            invalid_gadgets: comp_valid.iter().filter(|&&v| !v).count(),
        };
        PaddedRun { output, stats }
    }
}

fn vids_len(vid_of_comp: &[Option<u32>]) -> usize {
    vid_of_comp.iter().filter(|v| v.is_some()).count()
}

impl<P, A> PiAlgorithm<PaddedProblem<P>> for PaddedAlgorithm<P, A>
where
    P: InnerProblem,
    A: PiAlgorithm<P>,
{
    fn solve_with<X: NodeExecutor>(
        &self,
        net: &Network,
        input: &Labeling<PadIn<P::In>>,
        seed: u64,
        exec: &X,
    ) -> PiRun<PadOut<P::In, P::Out>> {
        let run = self.run_with(net, input, seed, exec);
        PiRun { output: run.output, rounds: run.stats.physical_rounds() }
    }
}
