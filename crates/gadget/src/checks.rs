//! Local checkability of the gadget structure (Sections 4.2, 4.3, 4.6).
//!
//! [`node_check`] is the constant-radius predicate each node evaluates;
//! [`structure_errors`] evaluates it everywhere. Lemmas 7 and 8 of the
//! paper state that a graph passes at every node **iff** it is a valid
//! gadget; the tests below and the fuzzing in `corrupt.rs` exercise both
//! directions.
//!
//! Each check cites the paper constraint it implements. Constraint 1a
//! (no self-loops / parallel edges) is realized through the Section-4.6
//! mechanism: a distance-2 coloring is part of the input and each node
//! requires its own color and its neighbors' colors (with multiplicity) to
//! be pairwise distinct, which no self-loop or parallel edge can satisfy.
//! A few closure constraints implied by the paper's prose but not in its
//! numbered list are included and marked `closure:` (e.g. `Up` only at
//! parentless root-shaped nodes); valid gadgets satisfy all of them.

use crate::labels::{Dir, GadgetIn, NodeKind};
use lcl_core::Labeling;
use lcl_graph::{Graph, HalfEdge, NodeId};

/// One incident half-edge, decoded.
struct Inc {
    half: HalfEdge,
    dir: Dir,
    peer: NodeId,
}

fn incidences(g: &Graph, input: &Labeling<GadgetIn>, v: NodeId) -> Result<Vec<Inc>, String> {
    let mut out = Vec::with_capacity(g.degree(v));
    for &h in g.ports(v) {
        match input.half(h) {
            GadgetIn::Half { dir, color } => {
                // Section 4.6: the half-edge replicates its node's color.
                let node_color = input.node(v).color();
                if node_color != Some(*color) {
                    return Err(format!(
                        "half-edge color {color} does not replicate node color {node_color:?}"
                    ));
                }
                out.push(Inc { half: h, dir: *dir, peer: g.half_edge_peer(h) });
            }
            other => return Err(format!("half-edge carries a non-half label {other:?}")),
        }
        if !matches!(input.edge(h.edge()), GadgetIn::Edge) {
            return Err("edge carries a non-edge label".into());
        }
    }
    Ok(out)
}

/// Follows the unique `dir`-labeled half-edge out of `v`, if present.
/// `#[inline]`: the chain walks of `psi` and `verifier` call it in their
/// inner loops, where an out-of-line call costs time.
#[inline]
pub(crate) fn step(g: &Graph, input: &Labeling<GadgetIn>, v: NodeId, dir: Dir) -> Option<NodeId> {
    g.ports(v).iter().find(|&&h| input.half(h).dir() == Some(dir)).map(|&h| g.half_edge_peer(h))
}

fn far_dir(g: &Graph, input: &Labeling<GadgetIn>, h: HalfEdge) -> Option<Dir> {
    let _ = g;
    input.half(h.opposite()).dir()
}

/// The constant-radius check of one node.
///
/// # Errors
///
/// Returns the first violated constraint (with its paper number) as a
/// diagnostic string.
pub fn node_check(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    delta: usize,
    v: NodeId,
) -> Result<(), String> {
    let GadgetIn::Node { kind, color } = input.node(v) else {
        return Err("node carries a non-node label".into());
    };
    let inc = incidences(g, input, v)?;

    // 1b: no two incident half-edges share a direction label.
    for i in 0..inc.len() {
        for j in i + 1..inc.len() {
            if inc[i].dir == inc[j].dir {
                return Err(format!("1b: two incident edges labeled {}", inc[i].dir));
            }
        }
    }

    // 1a via 4.6: own color and neighbor colors pairwise distinct — rules
    // out self-loops and parallel edges locally.
    {
        let mut seen = vec![*color];
        for i in &inc {
            let Some(c) = input.node(i.peer).color() else {
                return Err("neighbor missing a color".into());
            };
            if seen.contains(&c) {
                return Err(format!("1a/4.6: repeated color {c} in the neighborhood"));
            }
            seen.push(c);
        }
    }

    // 2a/2b + Section 4.3 pairing: each edge's two direction labels match.
    for i in &inc {
        match far_dir(g, input, i.half) {
            Some(fd) if i.dir.pairs_with(fd) => {}
            Some(fd) => {
                return Err(format!("2a/2b: label {} paired with {}", i.dir, fd));
            }
            None => return Err("2a/2b: far half-edge unlabeled".into()),
        }
    }

    match kind {
        NodeKind::Center => check_center(g, input, delta, &inc),
        NodeKind::Tree { index, port } => check_tree_node(g, input, v, *index, *port, &inc),
    }
}

fn check_center(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    delta: usize,
    inc: &[Inc],
) -> Result<(), String> {
    // 4.3-2a: exactly Δ incident edges.
    if inc.len() != delta {
        return Err(format!("4.3-2a: center degree {} ≠ Δ = {delta}", inc.len()));
    }
    for i in inc {
        // 4.3-2b: the label toward sub-gadget i is Down_i and the far node
        // carries Index_i; 4.3-2c: the far half is Up (covered by pairing);
        // 4.3-2d: indices distinct (covered by 1b on Down labels).
        let Dir::Down(di) = i.dir else {
            return Err(format!("4.3-2b: center edge labeled {} (want Down_i)", i.dir));
        };
        if usize::from(di) == 0 || usize::from(di) > delta {
            return Err(format!("4.3-2b: Down index {di} outside 1..=Δ"));
        }
        match input.node(i.peer).kind() {
            Some(NodeKind::Tree { index, .. }) if index == di => {}
            other => {
                return Err(format!(
                    "4.3-2b: Down_{di} edge ends at {other:?} instead of Index_{di}"
                ));
            }
        }
        let _ = g;
    }
    Ok(())
}

fn check_tree_node(
    g: &Graph,
    input: &Labeling<GadgetIn>,
    v: NodeId,
    index: u8,
    port: bool,
    inc: &[Inc],
) -> Result<(), String> {
    let has = |d: Dir| inc.iter().any(|i| i.dir == d);
    let has_children = has(Dir::LChild) || has(Dir::RChild);

    // 1c: neighbors over sub-gadget edges share the node's Index.
    for i in inc {
        match i.dir {
            Dir::Parent | Dir::Right | Dir::Left | Dir::LChild | Dir::RChild => {
                match input.node(i.peer).kind() {
                    Some(NodeKind::Tree { index: pi, .. }) if pi == index => {}
                    other => {
                        return Err(format!(
                            "1c: {dir} neighbor labeled {other:?}, want Index_{index}",
                            dir = i.dir
                        ));
                    }
                }
            }
            Dir::Up => {
                // 4.3-1 (part): the Up edge leads to the center.
                if input.node(i.peer).kind() != Some(NodeKind::Center) {
                    return Err("4.3-1: Up edge does not reach a Center node".into());
                }
            }
            Dir::Down(_) => {
                return Err("closure: tree node with a Down-labeled half-edge".into());
            }
        }
    }

    // 4.3-1: a parentless node has exactly one Center neighbor (via Up).
    let center_neighbors =
        inc.iter().filter(|i| input.node(i.peer).kind() == Some(NodeKind::Center)).count();
    if !has(Dir::Parent) && center_neighbors != 1 {
        return Err(format!("4.3-1: parentless node with {center_neighbors} Center neighbors"));
    }
    // closure: Up implies root shape (no Parent, no Right/Left).
    if has(Dir::Up) && (has(Dir::Parent) || has(Dir::Right) || has(Dir::Left)) {
        return Err("closure: Up-labeled edge at a non-root".into());
    }
    // closure: a Center neighbor is only reachable over an Up edge.
    if center_neighbors > 0 && !has(Dir::Up) {
        return Err("closure: Center neighbor without an Up edge".into());
    }

    // 2c: u(LChild, Right, Parent) = u, if the path exists.
    if let Some(a) = step(g, input, v, Dir::LChild) {
        if let Some(b) = step(g, input, a, Dir::Right) {
            if let Some(c) = step(g, input, b, Dir::Parent) {
                if c != v {
                    return Err("2c: LChild·Right·Parent does not return".into());
                }
            }
        }
    }
    // 2d: u(Right, LChild, Left, Parent) = u, if the path exists.
    if let Some(a) = step(g, input, v, Dir::Right) {
        if let Some(b) = step(g, input, a, Dir::LChild) {
            if let Some(c) = step(g, input, b, Dir::Left) {
                if let Some(d) = step(g, input, c, Dir::Parent) {
                    if d != v {
                        return Err("2d: Right·LChild·Left·Parent does not return".into());
                    }
                }
            }
        }
    }

    // 3a/3b: boundary-ness propagates upward — a node missing Right
    // (resp. Left) is on the right (left) boundary, so its parent must be
    // too. (The converse is false in a valid tree: an interior node's
    // parent may be rightmost, e.g. (2,2) under (1,1); together with 3c/3d
    // this direction is exactly what catches deleted horizontal edges
    // between cousins.)
    if let Some(p) = step(g, input, v, Dir::Parent) {
        let parent_has = |d: Dir| step(g, input, p, d).is_some();
        if !has(Dir::Right) && parent_has(Dir::Right) {
            return Err("3a: right-boundary node under a non-boundary parent".into());
        }
        if !has(Dir::Left) && parent_has(Dir::Left) {
            return Err("3b: left-boundary node under a non-boundary parent".into());
        }
    }
    // 3c/3d: boundary nodes hang on the matching child side.
    if let Some(i) = inc.iter().find(|i| i.dir == Dir::Parent) {
        let fd = far_dir(g, input, i.half);
        if !has(Dir::Right) && fd != Some(Dir::RChild) {
            return Err("3c: right-boundary node is not an RChild".into());
        }
        if !has(Dir::Left) && fd != Some(Dir::LChild) {
            return Err("3d: left-boundary node is not an LChild".into());
        }
    }
    // 3e: no Right and no Left ⇒ root shape.
    if !has(Dir::Right) && !has(Dir::Left) {
        if has(Dir::Parent) {
            return Err("3e: horizontal-isolated node has a Parent".into());
        }
        if inc.iter().any(|i| !matches!(i.dir, Dir::LChild | Dir::RChild | Dir::Up)) {
            return Err("3e: root with an edge outside {LChild, RChild, Up}".into());
        }
    }
    // 3f: children come in pairs.
    if has(Dir::LChild) != has(Dir::RChild) {
        return Err("3f: exactly one child".into());
    }
    // 3g: childlessness is level-wide.
    if !has_children {
        for d in [Dir::Left, Dir::Right] {
            if let Some(w) = step(g, input, v, d) {
                let w_childless = step(g, input, w, Dir::LChild).is_none()
                    && step(g, input, w, Dir::RChild).is_none();
                if !w_childless {
                    return Err("3g: childless node beside a node with children".into());
                }
            }
        }
    }
    // 3h: the Port flag marks exactly the bottom-right node.
    let should_be_port = !has(Dir::Right) && !has(Dir::LChild) && !has(Dir::RChild);
    if port != should_be_port {
        return Err(format!("3h: port flag {port}, structure says {should_be_port}"));
    }
    Ok(())
}

/// Evaluates [`node_check`] at every node; `true` marks a violation
/// ("the node sees an error").
#[must_use]
pub fn structure_errors(g: &Graph, input: &Labeling<GadgetIn>, delta: usize) -> Vec<bool> {
    g.nodes().map(|v| node_check(g, input, delta, v).is_err()).collect()
}

/// True if the labeled graph is a valid gadget (no node sees an error —
/// by Lemmas 7/8 this is equivalent to structural validity).
#[must_use]
pub fn is_valid_gadget(g: &Graph, input: &Labeling<GadgetIn>, delta: usize) -> bool {
    g.nodes().all(|v| node_check(g, input, delta, v).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_gadget, build_subgadget, GadgetSpec};
    use crate::labels::GadgetIn;

    #[test]
    fn valid_gadgets_pass_everywhere() {
        for (delta, h) in [(2usize, 3u32), (3, 2), (3, 5), (4, 4), (1, 3)] {
            let b = build_gadget(&GadgetSpec::uniform(delta, h));
            for v in b.graph.nodes() {
                node_check(&b.graph, &b.input, delta, v)
                    .unwrap_or_else(|e| panic!("node {v:?} of Δ={delta},h={h}: {e}"));
            }
        }
    }

    #[test]
    fn mixed_height_gadgets_pass() {
        let b = build_gadget(&GadgetSpec { heights: vec![1, 3, 5] });
        assert!(is_valid_gadget(&b.graph, &b.input, 3));
    }

    #[test]
    fn bare_subgadget_fails_only_at_root() {
        // Without a center, the root violates 4.3-1; everyone else passes.
        let (g, input, root, _port) = build_subgadget(1, 4);
        let errs = structure_errors(&g, &input, 3);
        for v in g.nodes() {
            assert_eq!(errs[v.index()], v == root, "node {v:?}");
        }
    }

    #[test]
    fn wrong_center_degree_detected() {
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        // Claim Δ = 4: the center sees a degree mismatch.
        let errs = structure_errors(&b.graph, &b.input, 4);
        assert!(errs[b.center.index()]);
    }

    #[test]
    fn port_flag_misplacement_detected() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let mut input = b.input.clone();
        // Remove the port flag from the true port.
        let p = b.ports[0];
        if let GadgetIn::Node { kind: NodeKind::Tree { index, .. }, color } = *input.node(p) {
            *input.node_mut(p) =
                GadgetIn::Node { kind: NodeKind::Tree { index, port: false }, color };
        }
        let errs = structure_errors(&b.graph, &input, 2);
        assert!(errs[p.index()], "3h must fire at the de-flagged port");
    }

    #[test]
    fn duplicate_color_detected() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let mut input = b.input.clone();
        // Give two neighbors of the center the same color (center sees it).
        let n: Vec<_> = b.graph.neighbors(b.center).map(|(w, _)| w).collect();
        let c0 = input.node(n[0]).color().unwrap();
        if let GadgetIn::Node { kind, .. } = *input.node(n[1]) {
            *input.node_mut(n[1]) = GadgetIn::Node { kind, color: c0 };
        }
        // Keep the replica consistent so only the duplicate fires.
        for &h in b.graph.ports(n[1]) {
            if let GadgetIn::Half { dir, .. } = *input.half(h) {
                *input.half_mut(h) = GadgetIn::Half { dir, color: c0 };
            }
        }
        let errs = structure_errors(&b.graph, &input, 2);
        assert!(errs[b.center.index()]);
    }

    #[test]
    fn color_replica_mismatch_detected() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let mut input = b.input.clone();
        let v = b.ports[0];
        let h = b.graph.ports(v)[0];
        if let GadgetIn::Half { dir, color } = *input.half(h) {
            *input.half_mut(h) = GadgetIn::Half { dir, color: color + 1000 };
        }
        let errs = structure_errors(&b.graph, &input, 2);
        assert!(errs[v.index()]);
    }

    #[test]
    fn self_loop_is_caught_via_colors() {
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let mut g = b.graph.clone();
        let v = b.ports[0];
        let e = g.add_edge(v, v);
        // Extend the labeling for the new edge with innocuous-looking dirs.
        let color = b.input.node(v).color().unwrap();
        let input = lcl_core::Labeling::build(
            &g,
            |x| *b.input.node(x),
            |x| if x == e { GadgetIn::Edge } else { *b.input.edge(x) },
            |h| {
                if h.edge() == e {
                    GadgetIn::Half {
                        dir: if h.side() == lcl_graph::Side::A { Dir::Right } else { Dir::Left },
                        color,
                    }
                } else {
                    *b.input.half(h)
                }
            },
        );
        let errs = structure_errors(&g, &input, 2);
        assert!(errs[v.index()], "self-loop repeats the node's own color");
    }

    #[test]
    fn swapped_child_labels_detected() {
        // Relabel an LChild half as RChild: 1b (two RChild) or 3c/2c fires.
        let b = build_gadget(&GadgetSpec::uniform(2, 3));
        let mut input = b.input.clone();
        let mut flipped = None;
        'outer: for v in b.graph.nodes() {
            for &h in b.graph.ports(v) {
                if input.half(h).dir() == Some(Dir::LChild) {
                    let c = input.half(h).color().unwrap();
                    *input.half_mut(h) = GadgetIn::Half { dir: Dir::RChild, color: c };
                    flipped = Some(v);
                    break 'outer;
                }
            }
        }
        let v = flipped.expect("found an LChild half");
        let errs = structure_errors(&b.graph, &input, 2);
        assert!(errs[v.index()]);
    }

    #[test]
    fn index_mismatch_detected() {
        let b = build_gadget(&GadgetSpec::uniform(3, 3));
        let mut input = b.input.clone();
        let p = b.ports[0];
        if let GadgetIn::Node { kind: NodeKind::Tree { port, .. }, color } = *input.node(p) {
            *input.node_mut(p) = GadgetIn::Node { kind: NodeKind::Tree { index: 2, port }, color };
        }
        let errs = structure_errors(&b.graph, &input, 3);
        // The neighbor over the Left/Parent edge sees an index mismatch
        // (and p itself may too).
        assert!(errs.iter().any(|&e| e));
    }
}
