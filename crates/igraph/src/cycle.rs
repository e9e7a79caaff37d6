//! The independent cycle of a component and the paper's cycle properties:
//! weight, one-directional / multi-directional, rotational / permutational,
//! unit / non-unit.
//!
//! The condensed graph is a directed multigraph (groups as vertices); a
//! cycle may traverse an edge in either orientation (the implicit reverse
//! edge of weight −1). A component is one cycle exactly when it has as many
//! edges as groups and every group has degree 2 ([`crate::component`]); that
//! cycle is walked once from its least edge, then normalized.

use crate::condense::Condensed;
use recurs_datalog::Symbol;
use std::fmt;

/// One traversal step of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index into [`Condensed::edges`].
    pub edge: usize,
    /// True if the edge is traversed tail→head (weight +1), false if
    /// against the arrow (weight −1).
    pub forward: bool,
}

/// A simple cycle of the condensed graph, normalized so its weight is
/// non-negative (a cycle and its reversal are the same cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// The traversal, in order.
    pub steps: Vec<Step>,
    /// Signed weight of the (normalized) traversal: Σ ±1 over directed edges.
    pub weight: i64,
    /// True if every directed edge is traversed in the same orientation.
    pub one_directional: bool,
    /// For one-directional cycles: true if at least one junction passes
    /// through an undirected connection (entry and exit variables of a group
    /// differ). Meaningless for multi-directional cycles (always `false`).
    pub rotational: bool,
}

impl Cycle {
    /// Number of directed edges on the cycle.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the cycle has no steps (never produced by the walk).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// |weight| — the paper's cycle weight is reported as a magnitude.
    pub fn magnitude(&self) -> u64 {
        self.weight.unsigned_abs()
    }

    /// A *unit* cycle: one-directional with weight 1.
    pub fn is_unit(&self) -> bool {
        self.one_directional && self.magnitude() == 1
    }

    /// A *permutational* cycle: one-directional with no undirected part.
    pub fn is_permutational(&self) -> bool {
        self.one_directional && !self.rotational
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle(w={}, ", self.weight)?;
        if self.one_directional {
            write!(
                f,
                "one-directional {}",
                if self.rotational {
                    "rotational"
                } else {
                    "permutational"
                }
            )?;
        } else {
            write!(f, "multi-directional")?;
        }
        write!(f, ", {} edges)", self.steps.len())
    }
}

/// The one cycle of a component whose groups all have degree 2, walked from
/// its least edge `first` taken forward. `incident` lists each group's edge
/// ids, a self-loop twice.
pub(crate) fn independent_cycle(c: &Condensed, incident: &[Vec<usize>], first: usize) -> Cycle {
    let mut steps = vec![Step {
        edge: first,
        forward: true,
    }];
    let (start, mut at, mut last) = (c.edges[first].from, c.edges[first].to, first);
    while at != start {
        let Some(&edge) = incident[at].iter().find(|&&e| e != last) else {
            unreachable!("every group of an independent cycle has degree 2")
        };
        let forward = c.edges[edge].from == at;
        steps.push(Step { edge, forward });
        at = if forward {
            c.edges[edge].to
        } else {
            c.edges[edge].from
        };
        last = edge;
    }
    finish(c, steps)
}

/// Computes cycle properties and normalizes orientation.
fn finish(c: &Condensed, mut steps: Vec<Step>) -> Cycle {
    let weight: i64 = steps.iter().map(|s| if s.forward { 1 } else { -1 }).sum();
    let mut steps_norm = steps.clone();
    let mut weight_norm = weight;
    if weight < 0 {
        // Reverse the traversal: reverse order, flip orientations.
        steps_norm.reverse();
        for s in &mut steps_norm {
            s.forward = !s.forward;
        }
        weight_norm = -weight;
    }
    steps = steps_norm;
    let one_directional = steps.iter().all(|s| s.forward) || steps.iter().all(|s| !s.forward);
    // Rotational: some junction's arrival variable differs from the next
    // departure variable (the cycle passes through undirected edges).
    let k = steps.len();
    let mut rotational = false;
    if one_directional {
        for i in 0..k {
            let arrive = arrival_var(c, &steps[i]);
            let depart = departure_var(c, &steps[(i + 1) % k]);
            if arrive != depart {
                rotational = true;
                break;
            }
        }
    }
    Cycle {
        steps,
        weight: weight_norm,
        one_directional,
        rotational,
    }
}

/// The variable at which a step arrives in its target group.
fn arrival_var(c: &Condensed, s: &Step) -> Symbol {
    let e = &c.edges[s.edge];
    if s.forward {
        e.head
    } else {
        e.tail
    }
}

/// The variable from which a step departs its source group.
fn departure_var(c: &Condensed, s: &Step) -> Symbol {
    let e = &c.edges[s.edge];
    if s.forward {
        e.tail
    } else {
        e.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::igraph_of;
    use crate::component::{analyze_components, Component, ComponentKind};
    use crate::condense::condense;
    use recurs_datalog::parser::parse_rule;

    fn components(src: &str) -> Vec<Component> {
        analyze_components(&condense(&igraph_of(&parse_rule(src).unwrap())))
    }

    /// The independent cycles of the rule's components, in component order.
    fn cycles(src: &str) -> Vec<Cycle> {
        let kinds = components(src).into_iter().map(|c| c.kind);
        kinds
            .filter_map(|k| match k {
                ComponentKind::IndependentCycle(cy) => Some(cy),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn s1a_two_unit_cycles() {
        let cs = cycles("P(x, y) :- A(x, z), P(z, y).");
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(Cycle::is_unit));
        // One rotational (x→z over A), one permutational (y self-loop).
        assert_eq!(cs.iter().filter(|c| c.rotational).count(), 1);
        assert_eq!(cs.iter().filter(|c| c.is_permutational()).count(), 1);
    }

    #[test]
    fn s3_three_disjoint_unit_cycles() {
        let cs = cycles("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        assert_eq!(cs.len(), 3);
        assert!(cs.iter().all(Cycle::is_unit));
        assert!(cs.iter().all(|c| c.rotational));
    }

    #[test]
    fn s4a_weight_three_rotational() {
        let cs = cycles("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).");
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.weight, 3);
        assert!(c.one_directional);
        assert!(c.rotational);
        assert!(!c.is_unit());
    }

    #[test]
    fn s5_weight_three_permutational() {
        let cs = cycles("P(x, y, z) :- P(y, z, x).");
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.weight, 3);
        assert!(c.is_permutational());
    }

    #[test]
    fn s6_three_permutational_cycles() {
        // s6: P(x,y,z,u,v,w) :- P(z,y,u,x,w,v): weights 3, 1, 2.
        let cs = cycles("P(x,y,z,u,v,w) :- P(z,y,u,x,w,v).");
        assert_eq!(cs.len(), 3);
        let mut weights: Vec<u64> = cs.iter().map(Cycle::magnitude).collect();
        weights.sort();
        assert_eq!(weights, vec![1, 2, 3]);
        assert!(cs.iter().all(Cycle::is_permutational));
    }

    #[test]
    fn s7_four_disjoint_cycles() {
        // s7: weights 1, 2, 3, 1.
        let cs = cycles("P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).");
        assert_eq!(cs.len(), 4);
        let mut weights: Vec<u64> = cs.iter().map(Cycle::magnitude).collect();
        weights.sort();
        assert_eq!(weights, vec![1, 1, 2, 3]);
        assert!(cs.iter().all(|c| c.one_directional));
    }

    #[test]
    fn s8_bounded_cycle() {
        let cs = cycles("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert!(!c.one_directional);
        assert_eq!(c.weight, 0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn s9_unbounded_cycle() {
        let cs = cycles("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert!(!c.one_directional);
        assert_eq!(c.magnitude(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn s10_no_cycles() {
        let cs = cycles("P(x, y) :- B(y), C(x, y1), P(x1, y1).");
        assert!(cs.is_empty());
    }

    #[test]
    fn s11_two_dependent_unit_cycles() {
        // Two self-loops on the single group: one component of cycle rank
        // 2, so neither is an independent cycle.
        let src = "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).";
        let cs = components(src);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ComponentKind::Dependent);
        assert_eq!(cs[0].cycle_rank(), 2);
        assert!(cycles(src).is_empty());
    }

    #[test]
    fn uniform_length_two_cycle() {
        // Thm 1 counterexample: P(x,y) :- A(x,z), P(y,z): a one-directional
        // cycle of weight 2 through the two groups.
        let cs = cycles("P(x, y) :- A(x, z), P(y, z).");
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert_eq!(c.weight, 2);
        assert!(c.one_directional);
    }

    #[test]
    fn antiparallel_edges_make_weight_zero_cycle() {
        // P(x,y) :- A(x,u), B(y,v), C(u,y)? Construct directly:
        // P(x,y) :- A(x,y), P(y1,x1), B(x,x1), C(y,y1) gives edges x→y1, y→x1
        // with groups {x,y,x1,y1}... simpler: use a 2-D formula where the two
        // directed edges run in opposite directions between two groups:
        // P(x,y) :- A(x,v), B(y,u), P(u,v): x→u (pos 0), y→v (pos 1);
        // groups {x,v}, {y,u}: edges G1→G2 and G2→G1 — a weight-2 cycle? No:
        // forward+forward = one-directional weight 2.
        let cs = cycles("P(x, y) :- A(x, v), B(y, u), P(u, v).");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].magnitude(), 2);
        assert!(cs[0].one_directional);
        // Parallel same-direction edges instead: P(x,y) :- A(x,y), B(u,v),
        // P(u,v): x→u, y→v between groups {x,y} and {u,v} — weight 0,
        // multi-directional (one forward, one backward).
        let cs2 = cycles("P(x, y) :- A(x, y), B(u, v), P(u, v).");
        assert_eq!(cs2.len(), 1);
        assert!(!cs2[0].one_directional);
        assert_eq!(cs2[0].weight, 0);
    }

    #[test]
    fn normalization_gives_nonnegative_weight() {
        for src in [
            "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
            "P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).",
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).",
        ] {
            for c in cycles(src) {
                assert!(c.weight >= 0, "cycle weight {} not normalized", c.weight);
            }
        }
    }
}
