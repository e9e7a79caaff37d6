//! Weakly-connected components of the condensed graph and their structural
//! kind — the per-component basis of the paper's classification.

use crate::condense::{Condensed, UnionFind};
use crate::cycle::{enumerate_cycles, Cycle};
use std::collections::BTreeSet;

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
    /// Group ids (condensed vertices) in this component.
    pub groups: Vec<usize>,
    /// Edge ids (into [`Condensed::edges`]) in this component.
    pub edges: Vec<usize>,
    /// All simple cycles lying inside this component.
    pub cycles: Vec<Cycle>,
    /// Structural kind.
    pub kind: ComponentKind,
}

impl Component {
    /// True if the component contains at least one directed edge.
    pub fn is_nontrivial(&self) -> bool {
        !self.edges.is_empty()
    }
}

/// Splits the condensed graph into weakly-connected components and analyses
/// each (cycles + kind). Components are ordered by their smallest group id.
pub fn analyze_components(c: &Condensed) -> Vec<Component> {
    let n = c.group_count();
    // Union-find over groups, joined by directed edges.
    let mut uf = UnionFind::new(n);
    for e in &c.edges {
        uf.union(e.from, e.to);
    }
    // One component per root, numbered in order of its smallest group.
    let mut index_of_root: Vec<Option<usize>> = vec![None; n];
    let mut component_of: Vec<usize> = Vec::with_capacity(n);
    let mut components: Vec<Component> = Vec::new();
    for g in 0..n {
        let idx = *index_of_root[uf.find(g)].get_or_insert_with(|| {
            components.push(Component {
                groups: Vec::new(),
                edges: Vec::new(),
                cycles: Vec::new(),
                kind: ComponentKind::Trivial,
            });
            components.len() - 1
        });
        components[idx].groups.push(g);
        component_of.push(idx);
    }
    for (eid, e) in c.edges.iter().enumerate() {
        components[component_of[e.from]].edges.push(eid);
    }
    // Assign cycles to components (a cycle lives wholly inside one).
    for cycle in enumerate_cycles(c) {
        let owner = component_of[c.edges[cycle.steps[0].edge].from];
        components[owner].cycles.push(cycle);
    }
    for comp in &mut components {
        comp.kind = classify_component(comp);
    }
    components
}

fn classify_component(comp: &Component) -> ComponentKind {
    if comp.edges.is_empty() {
        return ComponentKind::Trivial;
    }
    if comp.cycles.is_empty() {
        return ComponentKind::NoNontrivialCycle;
    }
    if comp.cycles.len() == 1 {
        let cycle = &comp.cycles[0];
        let cycle_edges: BTreeSet<usize> = cycle.steps.iter().map(|s| s.edge).collect();
        let comp_edges: BTreeSet<usize> = comp.edges.iter().copied().collect();
        if cycle_edges == comp_edges {
            return ComponentKind::IndependentCycle(cycle.clone());
        }
    }
    ComponentKind::Dependent
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
        assert_eq!(cs[0].cycles.len(), 2);
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
