//! Condensation of the hybrid graph over undirected connectivity.
//!
//! The paper's Remark (section 3) observes that several undirected edges can
//! be *compressed* into one: for classification, only the undirected
//! **connectivity** between variables matters, not which non-recursive
//! predicates provide it. Condensation takes this to its fixpoint: vertices
//! of the condensed graph are the undirected-connected groups of variables,
//! and only the directed (recursive) edges remain, each remembering its
//! original tail and head variable.
//!
//! In the condensed graph:
//! * a *unit rotational* cycle is a self-loop whose tail and head variables
//!   differ (the undirected part of the cycle is inside the group);
//! * a *unit permutational* cycle is a self-loop on a single variable;
//! * trivial (all-undirected) cycles disappear, exactly as compression
//!   collapses them.

use crate::graph::{EdgeKind, IGraph, VertexId};
use recurs_datalog::Symbol;
use std::collections::BTreeMap;

/// A directed edge of the condensed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CEdge {
    /// Source group.
    pub from: usize,
    /// Target group.
    pub to: usize,
    /// The original tail variable (in group `from`).
    pub tail: Symbol,
    /// The original head variable (in group `to`).
    pub head: Symbol,
    /// Argument position of the recursive predicate.
    pub position: usize,
}

/// The condensed graph: undirected-connected groups plus directed edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Condensed {
    /// The groups; each is a sorted list of member variables.
    pub groups: Vec<Vec<Symbol>>,
    /// Variable → group index.
    pub group_of: BTreeMap<Symbol, usize>,
    /// The directed edges.
    pub edges: Vec<CEdge>,
}

impl Condensed {
    /// Number of groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group a variable belongs to.
    ///
    /// # Panics
    /// Panics if the variable is not in the graph.
    pub fn group(&self, var: Symbol) -> usize {
        *self
            .group_of
            .get(&var)
            .unwrap_or_else(|| panic!("variable {var} not in condensed graph"))
    }

    /// Edges incident to a group (as tail or head).
    pub fn incident(&self, g: usize) -> impl Iterator<Item = (usize, &CEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == g || e.to == g)
    }
}

/// Disjoint sets over `0..n`: the vertices of an I-graph joined by its
/// undirected edges.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Condenses an I-graph (or resolution graph) over its undirected edges.
pub fn condense(g: &IGraph) -> Condensed {
    let n = g.vertex_count();
    let mut uf = UnionFind::new(n);
    for (_, e) in g.undirected_edges() {
        uf.union(e.a, e.b);
    }
    // Assign dense group ids in order of first appearance by vertex id, so
    // output is deterministic.
    let mut group_id: BTreeMap<usize, usize> = BTreeMap::new();
    let mut groups: Vec<Vec<Symbol>> = Vec::new();
    let mut of_vertex: Vec<usize> = Vec::with_capacity(n);
    for v in 0..n {
        let root = uf.find(v);
        let id = *group_id.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[id].push(g.var(v as VertexId));
        of_vertex.push(id);
    }
    for members in &mut groups {
        members.sort();
    }
    let group_of: BTreeMap<Symbol, usize> =
        g.vertices().map(|(v, sym)| (sym, of_vertex[v])).collect();
    let edges: Vec<CEdge> = g
        .edges()
        .filter(|(_, e)| e.kind == EdgeKind::Directed)
        .map(|(_, e)| CEdge {
            from: of_vertex[e.a],
            to: of_vertex[e.b],
            tail: g.var(e.a),
            head: g.var(e.b),
            position: e.position.expect("directed edges carry a position"),
        })
        .collect();
    Condensed {
        groups,
        group_of,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::igraph_of;
    use recurs_datalog::parser::parse_rule;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn condensed(src: &str) -> Condensed {
        condense(&igraph_of(&parse_rule(src).unwrap()))
    }

    #[test]
    fn s1a_groups() {
        let c = condensed("P(x, y) :- A(x, z), P(z, y).");
        // Groups: {x,z} and {y}.
        assert_eq!(c.group_count(), 2);
        assert_eq!(c.group(s("x")), c.group(s("z")));
        assert_ne!(c.group(s("x")), c.group(s("y")));
        assert_eq!(c.edges.len(), 2);
        // x→z is a self-loop on the {x,z} group with distinct endpoints.
        let e0 = c.edges.iter().find(|e| e.position == 0).unwrap();
        assert_eq!(e0.from, e0.to);
        assert_ne!(e0.tail, e0.head);
        // y→y is a self-loop on a single variable.
        let e1 = c.edges.iter().find(|e| e.position == 1).unwrap();
        assert_eq!(e1.from, e1.to);
        assert_eq!(e1.tail, e1.head);
    }

    #[test]
    fn compression_example_from_remark() {
        // P(x,y) :- A(x,u), B(x,z), C(z,u), P(u,y): the undirected triangle
        // x-u-z collapses into one group, leaving a rotational self-loop.
        let c = condensed("P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).");
        assert_eq!(c.group(s("x")), c.group(s("u")));
        assert_eq!(c.group(s("x")), c.group(s("z")));
        let e0 = c.edges.iter().find(|e| e.position == 0).unwrap();
        assert_eq!(e0.from, e0.to);
        assert_ne!(e0.tail, e0.head);
    }

    #[test]
    fn s11_single_group() {
        // s11: A(x,x1), B(y,y1), C(x1,y1) chain everything into one group.
        let c = condensed("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
        assert_eq!(c.group_count(), 1);
        assert_eq!(c.edges.len(), 2);
        assert!(c.edges.iter().all(|e| e.from == 0 && e.to == 0));
    }

    #[test]
    fn s9_three_groups() {
        // s9: P(x,y,z) :- A(x,y), B(u,v), P(u,z,v).
        let c = condensed("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        assert_eq!(c.group_count(), 3);
        assert_eq!(c.group(s("x")), c.group(s("y")));
        assert_eq!(c.group(s("u")), c.group(s("v")));
        assert_ne!(c.group(s("z")), c.group(s("x")));
        assert_eq!(c.edges.len(), 3);
    }

    #[test]
    fn groups_are_sorted_and_deterministic() {
        let c = condensed("P(x, y) :- A(x, z), P(z, y).");
        for g in &c.groups {
            let mut sorted = g.clone();
            sorted.sort();
            assert_eq!(*g, sorted);
        }
    }

    #[test]
    fn incident_finds_touching_edges() {
        let c = condensed("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        let gz = c.group(s("z"));
        // z is head of y→z and tail of z→v: two incident edges.
        assert_eq!(c.incident(gz).count(), 2);
    }
}
