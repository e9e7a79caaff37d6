//! Path weights — Ioannidis's bound.
//!
//! Ioannidis's theorem (quoted in section 6 of the paper): a recursive
//! formula with no permutational patterns is bounded iff its I-graph has no
//! cycle of non-zero weight, and then a tight upper bound on its *rank* is
//! the maximum weight of any path in the I-graph.
//!
//! Without such a cycle the groups of a component take a potential φ with
//! φ(to) = φ(from) + 1 along every directed edge (identity self-loops, which
//! carry no value anywhere, are skipped), and every simple path weighs
//! φ(end) − φ(start). Its maximum is max φ − min φ, read in the traversal
//! that finds the component.

use crate::condense::Condensed;

/// Visits the component of `root`, giving each group a potential in
/// `potential` (`None` marks a group not yet reached), and returns its
/// groups in the order reached and its maximum path weight: max φ − min φ
/// when the potentials agree along every edge, `None` when some cycle has
/// non-zero weight. `incident` lists each group's edge ids.
pub(crate) fn traverse(
    c: &Condensed,
    incident: &[Vec<usize>],
    root: usize,
    potential: &mut [Option<i64>],
) -> (Vec<usize>, Option<u64>) {
    potential[root] = Some(0);
    let (mut groups, mut agree) = (vec![root], true);
    let mut next = 0;
    while let Some(&g) = groups.get(next) {
        next += 1;
        let here = potential[g].unwrap_or_default();
        for e in incident[g].iter().map(|&eid| &c.edges[eid]) {
            if e.tail == e.head {
                continue;
            }
            let (other, want) = if e.from == g {
                (e.to, here + 1)
            } else {
                (e.from, here - 1)
            };
            match potential[other] {
                None => {
                    potential[other] = Some(want);
                    groups.push(other);
                }
                Some(there) => agree &= there == want,
            }
        }
    }
    let spread = || {
        let values = groups.iter().filter_map(|&g| potential[g]);
        let (lo, hi) = values.fold((0, 0), |(lo, hi), p| (p.min(lo), p.max(hi)));
        (hi - lo).unsigned_abs()
    };
    let weight = agree.then(spread);
    (groups, weight)
}

#[cfg(test)]
mod tests {
    use crate::build::igraph_of;
    use crate::component::analyze_components;
    use crate::condense::condense;
    use crate::graph::IGraph;
    use recurs_datalog::parser::parse_rule;

    /// The components' path weights, in component order.
    fn weights(g: &IGraph) -> Vec<Option<u64>> {
        let components = analyze_components(&condense(g));
        components.iter().map(|c| c.path_weight).collect()
    }

    fn rule_weights(src: &str) -> Vec<Option<u64>> {
        weights(&igraph_of(&parse_rule(src).unwrap()))
    }

    #[test]
    fn s8_bound_is_two() {
        // Paper, Figure 3 / Example 8: upper bound 2 (x→z→z1), on the one
        // component of every variable.
        assert_eq!(
            rule_weights("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1)."),
            [Some(2)]
        );
    }

    #[test]
    fn s10_bound_is_two() {
        // Paper, Example 10: upper bound 2 (y →(1) y1 —C— x →(1) x1). B(y)
        // joins nothing, so the groups {y}, {x, y1} and {x1} make one
        // component.
        assert_eq!(
            rule_weights("P(x, y) :- B(y), C(x, y1), P(x1, y1)."),
            [Some(2)]
        );
    }

    #[test]
    fn empty_graph_weight_zero() {
        // No component, so the formula-wide maximum is the empty path's 0.
        let weights = weights(&IGraph::new());
        assert_eq!(
            weights.into_iter().try_fold(0, |m, w| w.map(|w| m.max(w))),
            Some(0)
        );
    }

    #[test]
    fn identity_self_loops_weigh_nothing() {
        // A2: the identity loops carry no value, so each component is flat.
        assert_eq!(
            rule_weights("P(x, y) :- A(x), B(y), P(x, y)."),
            [Some(0), Some(0)]
        );
    }

    #[test]
    fn a_cycle_of_non_zero_weight_has_no_path_weight() {
        // s9's multi-directional cycle weighs 1; s1a's rotational self-loop
        // x→z weighs 1 beside the identity loop on y.
        assert_eq!(
            rule_weights("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v)."),
            [None]
        );
        assert_eq!(
            rule_weights("P(x, y) :- A(x, z), P(z, y)."),
            [None, Some(0)]
        );
    }
}
