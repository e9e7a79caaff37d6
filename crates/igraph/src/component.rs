//! Weakly-connected components of the condensed graph and their structural
//! kind — the per-component basis of the paper's classification.
//!
//! A component's kind is read from its shape. With V groups and E directed
//! edges (a connected multigraph, so E ≥ V − 1): E = V − 1 is a tree, with
//! no non-trivial cycle; E = V with every group of degree 2 (a self-loop
//! counts 2) is one cycle, the paper's *independent* cycle; anything else
//! holds *dependent* cycles. The traversal that finds the component also
//! gives its maximum path weight (`paths.rs`).

use crate::condense::Condensed;
use crate::cycle::{independent_cycle, Cycle};
use crate::paths::traverse;

/// The structural kind of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// No directed edge at all — the component plays no role in recursion.
    Trivial,
    /// Directed edges but no non-trivial cycle (paper's class D component:
    /// Theorem 7 / Corollary 2 — bounded, never stable).
    NoNontrivialCycle,
    /// Exactly one non-trivial cycle containing every directed edge of the
    /// component (the paper's *independent* cycle).
    IndependentCycle(Cycle),
    /// More than one non-trivial cycle, or directed edges off the cycle —
    /// the paper's *dependent* cycles (class E component).
    Dependent,
}

/// One weakly-connected component of the condensed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Group ids (condensed vertices) in this component, ascending.
    pub groups: Vec<usize>,
    /// Edge ids (into [`Condensed::edges`]) in this component, ascending.
    pub edges: Vec<usize>,
    /// Structural kind.
    pub kind: ComponentKind,
    /// The maximum weight of a simple I-graph path inside the component,
    /// when no cycle of it but an identity self-loop has non-zero weight;
    /// `None` otherwise.
    pub path_weight: Option<u64>,
}

impl Component {
    /// True if the component contains at least one directed edge.
    pub fn is_nontrivial(&self) -> bool {
        !self.edges.is_empty()
    }

    /// The component's cycle rank, E − V + 1: the number of its independent
    /// cycles in the graph-theoretic sense — 0 without a non-trivial cycle,
    /// 1 for the paper's independent cycle, 2 or more for dependent cycles.
    pub fn cycle_rank(&self) -> usize {
        self.edges.len() + 1 - self.groups.len()
    }
}

/// Splits the condensed graph into weakly-connected components and reads
/// each one's kind and path weight. Components are ordered by their
/// smallest group id.
pub fn analyze_components(c: &Condensed) -> Vec<Component> {
    let n = c.group_count();
    // Each group's incident edges; a self-loop is listed twice.
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (eid, e) in c.edges.iter().enumerate() {
        incident[e.from].push(eid);
        incident[e.to].push(eid);
    }
    let mut potential: Vec<Option<i64>> = vec![None; n];
    let mut components: Vec<Component> = Vec::new();
    for root in 0..n {
        if potential[root].is_some() {
            continue;
        }
        let (mut groups, path_weight) = traverse(c, &incident, root, &mut potential);
        groups.sort_unstable();
        let mut edges: Vec<usize> = groups.iter().flat_map(|&g| &incident[g]).copied().collect();
        edges.sort_unstable();
        edges.dedup();
        let kind = if edges.is_empty() {
            ComponentKind::Trivial
        } else if edges.len() + 1 == groups.len() {
            ComponentKind::NoNontrivialCycle
        } else if edges.len() == groups.len() && groups.iter().all(|&g| incident[g].len() == 2) {
            ComponentKind::IndependentCycle(independent_cycle(c, &incident, edges[0]))
        } else {
            ComponentKind::Dependent
        };
        components.push(Component {
            groups,
            edges,
            kind,
            path_weight,
        });
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::igraph_of;
    use crate::condense::condense;
    use recurs_datalog::parser::parse_rule;

    fn components(src: &str) -> Vec<Component> {
        analyze_components(&condense(&igraph_of(&parse_rule(src).unwrap())))
    }

    fn nontrivial(src: &str) -> Vec<Component> {
        components(src)
            .into_iter()
            .filter(Component::is_nontrivial)
            .collect()
    }

    #[test]
    fn s1a_two_independent_unit_components() {
        let cs = nontrivial("P(x, y) :- A(x, z), P(z, y).");
        assert_eq!(cs.len(), 2);
        for comp in &cs {
            match &comp.kind {
                ComponentKind::IndependentCycle(cycle) => assert!(cycle.is_unit()),
                other => panic!("expected independent unit cycle, got {other:?}"),
            }
        }
    }

    #[test]
    fn s3_three_independent_components() {
        let cs = nontrivial("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        assert_eq!(cs.len(), 3);
        assert!(cs
            .iter()
            .all(|c| matches!(&c.kind, ComponentKind::IndependentCycle(cy) if cy.is_unit())));
    }

    #[test]
    fn s8_single_bounded_component() {
        let cs = nontrivial("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        assert_eq!(cs.len(), 1);
        match &cs[0].kind {
            ComponentKind::IndependentCycle(cy) => {
                assert!(!cy.one_directional);
                assert_eq!(cy.weight, 0);
            }
            other => panic!("expected independent bounded cycle, got {other:?}"),
        }
    }

    #[test]
    fn s9_single_unbounded_component() {
        let cs = nontrivial("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        assert_eq!(cs.len(), 1);
        match &cs[0].kind {
            ComponentKind::IndependentCycle(cy) => {
                assert!(!cy.one_directional);
                assert_ne!(cy.weight, 0);
            }
            other => panic!("expected independent unbounded cycle, got {other:?}"),
        }
    }

    #[test]
    fn s10_acyclic_component() {
        let cs = nontrivial("P(x, y) :- B(y), C(x, y1), P(x1, y1).");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ComponentKind::NoNontrivialCycle);
    }

    #[test]
    fn s11_dependent_component() {
        let cs = nontrivial("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ComponentKind::Dependent);
        assert_eq!(cs[0].cycle_rank(), 2);
    }

    #[test]
    fn s12_mixed_components() {
        let cs = nontrivial("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).");
        assert_eq!(cs.len(), 2);
        let kinds: Vec<bool> = cs
            .iter()
            .map(|c| matches!(c.kind, ComponentKind::Dependent))
            .collect();
        // One dependent ({x,u,v,y} with two coupled unit cycles), one
        // independent unit rotational ({z,w}).
        assert_eq!(kinds.iter().filter(|&&d| d).count(), 1);
        assert!(cs.iter().any(
            |c| matches!(&c.kind, ComponentKind::IndependentCycle(cy) if cy.is_unit() && cy.rotational)
        ));
    }

    #[test]
    fn s7_four_independent_components() {
        let cs = nontrivial("P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).");
        assert_eq!(cs.len(), 4);
        assert!(cs
            .iter()
            .all(|c| matches!(c.kind, ComponentKind::IndependentCycle(_))));
    }

    #[test]
    fn trivial_component_from_isolated_undirected_edge() {
        // D(a,b) where a,b are body-only variables not under P: they form a
        // trivial component. P(x) :- A(x,z), D(a,b), P(z).
        let cs = components("P(x) :- A(x, z), D(a, b), P(z).");
        assert!(cs.iter().any(|c| c.kind == ComponentKind::Trivial));
        assert_eq!(cs.iter().filter(|c| c.is_nontrivial()).count(), 1);
    }

    #[test]
    fn dependent_by_extra_directed_edge() {
        // A cycle plus a directed edge hanging off it: x→z unit cycle via A,
        // and z→w directed hanging (w fresh under P's 2nd position)...
        // P(x,z2) :- A(x,z), P(z,w), B(z2, w): directed x→z, z2→w; undirected
        // x-z (A), z2-w (B). Two separate independent cycles actually.
        // Build a genuine dependent case: share the group:
        // P(x,y) :- A(x,z), B(z,y1), P(z,y1): directed x→z, y→y1; undirected
        // x-z, z-y1 — all one group; y→y1 enters the cycle's group: dependent.
        let cs = nontrivial("P(x, y) :- A(x, z), B(z, y1), P(z, y1).");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].kind, ComponentKind::Dependent);
    }
}
