//! Algorithm `V` (Section 4.5): the `O(log n)`-round solver for `Ψ`.
//!
//! Every node first evaluates its constant-radius structure check; nodes
//! that fail output `Error`. A node that passes gathers `O(log n)` radius:
//! in a valid gadget that view covers the entire gadget (complete binary
//! trees have logarithmic diameter), so it outputs `Ok`; otherwise it emits
//! an error pointer following the priority rules of Section 4.5 (Lemma 10
//! proves the resulting labeling satisfies the constraints of `Ψ`, which
//! the integration tests re-verify through [`crate::psi::check_psi`]):
//!
//! 1. error reachable via `Right…Right` → `Right`;
//! 2. via `Left…Left` → `Left`;
//! 3. via `Parent^{≥1}` then a horizontal run → `Parent`;
//! 4. via `RChild^{≥1}` then a horizontal run → `RChild`;
//! 5. otherwise the sub-gadget is valid and the error is elsewhere:
//!    `Parent` if the node has a parent, else `Up`;
//! 6. the `Center` outputs `Down_i` for the smallest `i` whose sub-gadget
//!    has an error reachable via `Down_i · RChild^{≥0} ·` horizontal runs.
//!
//! The recorded per-node radius is `min(R, ecc)` with
//! `R = 2⌈log₂ n⌉ + 4`: the algorithm's gathering bound, trimmed at view
//! saturation exactly as the LOCAL simulator does.

use crate::checks::{step, structure_errors};
use crate::labels::{Dir, GadgetIn};
use crate::psi::PsiOutput;
use lcl_core::Labeling;
use lcl_graph::{Components, EccentricityKernel, Graph, NodeId};
use lcl_local::LocalityTrace;

/// Result of running algorithm `V`.
#[derive(Clone, Debug)]
pub struct VerifierOutcome {
    /// Per-node `Ψ` output.
    pub output: Vec<PsiOutput>,
    /// Honest per-node gathering radii.
    pub trace: LocalityTrace,
}

impl VerifierOutcome {
    /// True if every node reported `Ok` (the gadget is valid).
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.output.iter().all(|&o| o == PsiOutput::Ok)
    }
}

/// The gathering bound `R(n) = 2⌈log₂ n⌉ + 4` of algorithm `V`.
#[must_use]
pub fn gather_bound(known_n: usize) -> u32 {
    let log = usize::BITS - known_n.max(2).next_power_of_two().leading_zeros() - 1;
    2 * log + 4
}

/// Reusable visit-stamp buffer: avoids an `O(n)` allocation per chain walk
/// (corrupted label graphs may contain direction cycles, so walks need
/// revisit detection).
struct Stamps {
    stamp: Vec<u64>,
    current: u64,
}

impl Stamps {
    fn new(n: usize) -> Self {
        Stamps { stamp: vec![0; n], current: 0 }
    }
    fn begin(&mut self) {
        self.current += 1;
    }
    fn visit(&mut self, v: NodeId) -> bool {
        let fresh = self.stamp[v.index()] != self.current;
        self.stamp[v.index()] = self.current;
        fresh
    }
}

/// Walks `dir` edges from `v` (at least one step); true if the walk reaches
/// a node in `err`. Stops at missing edges, at errors, and on revisits.
fn chain_hits(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    err: &[bool],
    v: NodeId,
    dir: Dir,
    stamps: &mut Stamps,
) -> bool {
    stamps.begin();
    let mut cur = v;
    stamps.visit(cur);
    while let Some(next) = step(g, input, cur, dir) {
        if err[next.index()] {
            return true;
        }
        if !stamps.visit(next) {
            return false;
        }
        cur = next;
    }
    false
}

/// True if an error is reachable via `dir^{≥1}` followed by a horizontal
/// (`Right…` or `Left…`) run — the composite walks of rules 3–4.
fn chain_then_horizontal_hits(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    err: &[bool],
    v: NodeId,
    dir: Dir,
    stamps: &mut Stamps,
) -> bool {
    // The spine walk needs its own stamp generation; horizontal probes
    // run nested, so the spine is tracked in a local list (spines are
    // short: they stop on revisit via the stamped probe of `spine_seen`).
    let mut spine_seen: Vec<NodeId> = vec![v];
    let mut cur = v;
    while let Some(next) = step(g, input, cur, dir) {
        if err[next.index()] {
            return true;
        }
        if spine_seen.contains(&next) {
            return false;
        }
        spine_seen.push(next);
        if chain_hits(g, input, err, next, Dir::Right, stamps)
            || chain_hits(g, input, err, next, Dir::Left, stamps)
        {
            return true;
        }
        cur = next;
    }
    false
}

/// The `Down_i` probe of rule 6: from the root (inclusive), descend
/// `RChild*` running horizontal probes at every stop.
fn down_probe_hits(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    err: &[bool],
    root: NodeId,
    stamps: &mut Stamps,
) -> bool {
    if err[root.index()] {
        return true;
    }
    let mut spine_seen: Vec<NodeId> = vec![root];
    let mut cur = root;
    loop {
        if chain_hits(g, input, err, cur, Dir::Right, stamps)
            || chain_hits(g, input, err, cur, Dir::Left, stamps)
        {
            return true;
        }
        match step(g, input, cur, Dir::RChild) {
            Some(next) => {
                if err[next.index()] {
                    return true;
                }
                if spine_seen.contains(&next) {
                    return false;
                }
                spine_seen.push(next);
                cur = next;
            }
            None => return false,
        }
    }
}

/// Runs algorithm `V` on a (candidate) gadget graph with the family's
/// `delta` and the announced size bound `known_n`.
#[must_use]
pub fn run_verifier(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    delta: usize,
    known_n: usize,
) -> VerifierOutcome {
    let err = structure_errors(g, input, delta);
    let r_bound = gather_bound(known_n);
    let comps = Components::new(g);
    let mut output = vec![PsiOutput::Ok; g.node_count()];
    let mut radii = vec![0u32; g.node_count()];
    let mut kernel = EccentricityKernel::default();
    let mut stamps = Stamps::new(g.node_count());

    for comp in comps.iter() {
        let has_err = comp.iter().any(|v| err[v.index()]);
        // Honest radius: min(R, eccentricity within the component) —
        // exact per node on small components, a conservative (never
        // under-reported) triangle-inequality upper bound on large ones:
        // ecc(v) ≤ d(anchor, v) + ecc(anchor).
        if comp.len() <= 2048 {
            kernel.component(g, comp, &mut radii);
            for &v in comp {
                radii[v.index()] = r_bound.min(radii[v.index()]);
            }
        } else {
            let anchor = comp[0];
            let d = lcl_graph::bfs_distances(g, anchor);
            let ecc_anchor = comp.iter().filter_map(|w| d[w.index()]).max().unwrap_or(0);
            for &v in comp {
                let bound = d[v.index()].unwrap_or(0) + ecc_anchor;
                radii[v.index()] = r_bound.min(bound);
            }
        }
        if !has_err {
            continue; // all Ok
        }
        for &v in comp {
            output[v.index()] = decide(g, input, &err, v, &mut stamps);
        }
    }

    VerifierOutcome { output, trace: LocalityTrace::new(radii) }
}

fn decide(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    err: &[bool],
    v: NodeId,
    stamps: &mut Stamps,
) -> PsiOutput {
    if err[v.index()] {
        return PsiOutput::Error;
    }
    let is_center = matches!(input.node(v).kind(), Some(crate::labels::NodeKind::Center));
    if is_center {
        // Rule 6: smallest Down_i whose probe hits an error.
        let mut indices: Vec<u8> = g
            .ports(v)
            .iter()
            .filter_map(|&h| match input.half(h).dir() {
                Some(Dir::Down(i)) => Some(i),
                _ => None,
            })
            .collect();
        indices.sort_unstable();
        for i in indices {
            if let Some(root) = step(g, input, v, Dir::Down(i)) {
                if down_probe_hits(g, input, err, root, stamps) {
                    return PsiOutput::Pointer(Dir::Down(i));
                }
            }
        }
        // A non-Error center in an erroneous component must find some
        // erroneous sub-gadget (Lemma 10); reaching this line means the
        // probe rules missed it — fail loudly so fuzzing surfaces it.
        unreachable!("center found no erroneous sub-gadget (Lemma 10 violated)");
    }
    // Rules 1-5, in priority order.
    if chain_hits(g, input, err, v, Dir::Right, stamps) {
        return PsiOutput::Pointer(Dir::Right);
    }
    if chain_hits(g, input, err, v, Dir::Left, stamps) {
        return PsiOutput::Pointer(Dir::Left);
    }
    if chain_then_horizontal_hits(g, input, err, v, Dir::Parent, stamps) {
        return PsiOutput::Pointer(Dir::Parent);
    }
    if chain_then_horizontal_hits(g, input, err, v, Dir::RChild, stamps) {
        return PsiOutput::Pointer(Dir::RChild);
    }
    if step(g, input, v, Dir::Parent).is_some() {
        PsiOutput::Pointer(Dir::Parent)
    } else {
        PsiOutput::Pointer(Dir::Up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_gadget, build_subgadget, GadgetSpec};
    use crate::psi::check_psi;

    #[test]
    fn valid_gadget_gets_all_ok() {
        for (delta, h) in [(2usize, 3u32), (3, 4), (4, 2)] {
            let b = build_gadget(&GadgetSpec::uniform(delta, h));
            let out = run_verifier(&b.graph, &b.input, delta, b.len());
            assert!(out.all_ok());
            assert!(check_psi(&b.graph, &b.input, &out.output, delta).is_empty());
        }
    }

    #[test]
    fn radius_is_logarithmic_on_valid_gadgets() {
        for h in [3u32, 5, 7, 9] {
            let b = build_gadget(&GadgetSpec::uniform(3, h));
            let out = run_verifier(&b.graph, &b.input, 3, b.len());
            let r = out.trace.max_radius();
            // Valid gadgets saturate at their diameter ≤ 2(h+1).
            assert!(r <= 2 * (h + 1), "radius {r} too big at height {h}");
            assert!(r >= h / 2);
        }
    }

    #[test]
    fn large_components_get_the_anchor_bound() {
        // 3,070 nodes, over the 2,048-node cutoff for exact radii: every
        // radius is min(R, d(anchor, v) + ecc(anchor)), the anchor being
        // the component's first node, here the center.
        let b = build_gadget(&GadgetSpec::uniform(3, 10));
        assert_eq!((b.len(), b.center), (3070, NodeId(0)));
        let out = run_verifier(&b.graph, &b.input, 3, b.len());
        assert!(out.all_ok());
        let d: Vec<u32> = lcl_graph::bfs_distances(&b.graph, b.center)
            .into_iter()
            .map(|x| x.expect("connected"))
            .collect();
        let ecc_center = *d.iter().max().unwrap();
        let r = gather_bound(b.len());
        let want: Vec<u32> = d.iter().map(|&x| r.min(x + ecc_center)).collect();
        assert_eq!(out.trace.radii(), want.as_slice());
        assert_eq!((r, ecc_center, out.trace.max_radius()), (28, 10, 20));
        // In a valid gadget every farthest path runs through the center, so
        // here the bound is tight: these are the exact eccentricities too.
        assert_eq!(lcl_graph::eccentricities(&b.graph), want);
    }

    #[test]
    fn bare_subgadget_yields_checkable_proof() {
        let (g, input, _root, _port) = build_subgadget(1, 4);
        let out = run_verifier(&g, &input, 3, g.node_count());
        assert!(!out.all_ok());
        let violations = check_psi(&g, &input, &out.output, 3);
        assert!(violations.is_empty(), "proof must verify: {violations:?}");
    }

    #[test]
    fn proof_on_mislabeled_port_verifies() {
        let b = build_gadget(&GadgetSpec::uniform(3, 4));
        let mut input = b.input.clone();
        let p = b.ports[1];
        if let GadgetIn::Node { kind: crate::labels::NodeKind::Tree { index, .. }, color } =
            *input.node(p)
        {
            *input.node_mut(p) = GadgetIn::Node {
                kind: crate::labels::NodeKind::Tree { index, port: false },
                color,
            };
        }
        let out = run_verifier(&b.graph, &input, 3, b.len());
        assert!(!out.all_ok());
        let violations = check_psi(&b.graph, &input, &out.output, 3);
        assert!(violations.is_empty(), "proof must verify: {violations:?}");
    }

    #[test]
    fn gather_bound_formula() {
        assert_eq!(gather_bound(2), 6);
        assert_eq!(gather_bound(1024), 24);
        assert!(gather_bound(1 << 16) > gather_bound(1 << 8));
    }

    #[test]
    fn error_pointer_chains_end_at_errors() {
        // Corrupt a mid-tree label and follow every pointer chain manually:
        // it must terminate at an Error node.
        let b = build_gadget(&GadgetSpec::uniform(2, 4));
        let mut input = b.input.clone();
        // Flip one Left label to Right deep in sub-gadget 2.
        let mut done = false;
        for v in b.graph.nodes() {
            if done {
                break;
            }
            for &h in b.graph.ports(v) {
                if input.half(h).dir() == Some(Dir::Left) {
                    let c = input.half(h).color().unwrap();
                    *input.half_mut(h) = GadgetIn::Half { dir: Dir::Right, color: c };
                    done = true;
                    break;
                }
            }
        }
        assert!(done);
        let out = run_verifier(&b.graph, &input, 2, b.len());
        assert!(!out.all_ok());
        let violations = check_psi(&b.graph, &input, &out.output, 2);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
