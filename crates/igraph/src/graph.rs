//! The labeled, weighted, hybrid graph of the paper (section 2).
//!
//! Vertices are variables. Undirected edges (weight 0) connect variables
//! co-occurring in a non-recursive predicate and are labeled with that
//! predicate. Directed edges (weight +1, with an implicit reverse edge of
//! weight −1) connect the variable at position *i* of the consequent's
//! recursive atom to the variable at position *i* of the antecedent's,
//! and are labeled with the recursive predicate.

use recurs_datalog::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// Index of a vertex within an [`IGraph`].
pub type VertexId = usize;

/// Index of an edge within an [`IGraph`].
pub type EdgeId = usize;

/// Whether an edge is directed (recursive-predicate edge) or undirected
/// (non-recursive-predicate edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Weight-0 edge from a non-recursive predicate.
    Undirected,
    /// Weight-+1 edge `a → b` (implicit reverse edge has weight −1).
    Directed,
}

/// An edge of the hybrid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Directed or undirected.
    pub kind: EdgeKind,
    /// Tail for directed edges; either endpoint for undirected ones.
    pub a: VertexId,
    /// Head for directed edges; the other endpoint for undirected ones.
    pub b: VertexId,
    /// The predicate that induced the edge.
    pub label: Symbol,
    /// For directed edges, the argument position of the recursive predicate
    /// that induced the edge. `None` for undirected edges.
    pub position: Option<usize>,
}

impl Edge {
    /// The endpoint opposite `v`. For self-loops returns `v` itself.
    pub fn other(&self, v: VertexId) -> VertexId {
        if v == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// True if `v` is an endpoint.
    pub fn touches(&self, v: VertexId) -> bool {
        self.a == v || self.b == v
    }
}

/// The I-graph / resolution graph structure: a hybrid multigraph over
/// variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IGraph {
    vertices: Vec<Symbol>,
    index: BTreeMap<Symbol, VertexId>,
    edges: Vec<Edge>,
}

impl IGraph {
    /// An empty graph.
    pub fn new() -> IGraph {
        IGraph::default()
    }

    /// Adds (or finds) the vertex for a variable.
    pub(crate) fn add_vertex(&mut self, var: Symbol) -> VertexId {
        if let Some(&id) = self.index.get(&var) {
            return id;
        }
        let id = self.vertices.len();
        self.vertices.push(var);
        self.index.insert(var, id);
        id
    }

    /// Adds an undirected edge labeled with a non-recursive predicate.
    /// Parallel edges between the same endpoints are kept (the paper merges
    /// them only during *compression*).
    pub(crate) fn add_undirected(&mut self, u: Symbol, v: Symbol, label: Symbol) -> EdgeId {
        let a = self.add_vertex(u);
        let b = self.add_vertex(v);
        self.edges.push(Edge {
            kind: EdgeKind::Undirected,
            a,
            b,
            label,
            position: None,
        });
        self.edges.len() - 1
    }

    /// Adds a directed edge `from → to` for argument position `position` of
    /// the recursive predicate `label`.
    pub(crate) fn add_directed(
        &mut self,
        from: Symbol,
        to: Symbol,
        label: Symbol,
        position: usize,
    ) -> EdgeId {
        let a = self.add_vertex(from);
        let b = self.add_vertex(to);
        self.edges.push(Edge {
            kind: EdgeKind::Directed,
            a,
            b,
            label,
            position: Some(position),
        });
        self.edges.len() - 1
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges (directed + undirected).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The variable at a vertex.
    pub fn var(&self, v: VertexId) -> Symbol {
        self.vertices[v]
    }

    /// The vertex of a variable, if present.
    pub fn vertex_of(&self, var: Symbol) -> Option<VertexId> {
        self.index.get(&var).copied()
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, Symbol)> + '_ {
        self.vertices.iter().copied().enumerate()
    }

    /// All edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate()
    }

    /// The edge with a given id.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Edges incident to `v` (self-loops reported once).
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().filter(move |(_, e)| e.touches(v))
    }

    /// Directed edges only.
    pub fn directed_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().filter(|(_, e)| e.kind == EdgeKind::Directed)
    }

    /// Undirected edges only.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges().filter(|(_, e)| e.kind == EdgeKind::Undirected)
    }
}

impl fmt::Display for IGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "vertices: {:?}", self.vertices)?;
        for (_, e) in self.edges() {
            match e.kind {
                EdgeKind::Directed => writeln!(
                    f,
                    "  {} -> {}  [{} pos {}]",
                    self.var(e.a),
                    self.var(e.b),
                    e.label,
                    e.position.unwrap_or(0),
                )?,
                EdgeKind::Undirected => {
                    writeln!(f, "  {} -- {}  [{}]", self.var(e.a), self.var(e.b), e.label,)?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn vertices_are_deduplicated() {
        let mut g = IGraph::new();
        let a = g.add_vertex(s("x"));
        let b = g.add_vertex(s("x"));
        assert_eq!(a, b);
        assert_eq!(g.vertex_count(), 1);
    }

    #[test]
    fn edges_record_kind_and_label() {
        let mut g = IGraph::new();
        g.add_undirected(s("x"), s("z"), s("A"));
        g.add_directed(s("x"), s("z"), s("P"), 0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.undirected_edges().count(), 1);
        assert_eq!(g.directed_edges().count(), 1);
        let (_, d) = g.directed_edges().next().unwrap();
        assert_eq!(d.position, Some(0));
        assert_eq!(g.var(d.a), s("x"));
        assert_eq!(g.var(d.b), s("z"));
    }

    #[test]
    fn self_loops_are_detected() {
        let mut g = IGraph::new();
        let e = g.add_directed(s("y"), s("y"), s("P"), 1);
        let y = g.vertex_of(s("y")).unwrap();
        assert_eq!((g.edge(e).a, g.edge(e).b), (y, y));
        assert_eq!(g.edge(e).other(y), y);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g = IGraph::new();
        g.add_undirected(s("x"), s("u"), s("A"));
        g.add_undirected(s("x"), s("u"), s("B"));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn incident_lists_touching_edges() {
        let mut g = IGraph::new();
        g.add_undirected(s("x"), s("y"), s("A"));
        g.add_directed(s("y"), s("z"), s("P"), 0);
        let y = g.vertex_of(s("y")).unwrap();
        assert_eq!(g.incident(y).count(), 2);
        let x = g.vertex_of(s("x")).unwrap();
        assert_eq!(g.incident(x).count(), 1);
    }
}
