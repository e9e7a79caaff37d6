//! Construction of I-graphs and k-th resolution graphs from rules.

use crate::graph::IGraph;
use recurs_datalog::rule::Rule;
use recurs_datalog::term::Term;
use recurs_datalog::unfold::unfold_once_traced;
use recurs_datalog::Symbol;

/// Builds the I-graph of a linear recursive rule (section 2 of the paper):
///
/// * every variable is a vertex;
/// * each non-recursive body atom connects every pair of its (distinct)
///   variables with an undirected edge labeled by the predicate — binary
///   atoms give the paper's single edge, wider atoms give a clique;
/// * for each argument position `i`, a directed edge runs from the variable
///   at position `i` of the head to the variable at position `i` of the
///   recursive body atom.
///
/// # Panics
/// Panics if the rule is not linear recursive.
///
/// ```
/// use recurs_datalog::parser::parse_rule;
/// use recurs_igraph::build::igraph_of;
///
/// // Figure 1(a): s1a has three vertices, two arrows, one A-edge.
/// let g = igraph_of(&parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap());
/// assert_eq!(g.vertex_count(), 3);
/// assert_eq!(g.directed_edges().count(), 2);
/// assert_eq!(g.undirected_edges().count(), 1);
/// ```
pub fn igraph_of(rule: &Rule) -> IGraph {
    let mut g = IGraph::new();
    add_rule_edges(&mut g, rule);
    g
}

/// Adds one rule's I-graph edges into an existing graph (used to append
/// I-graph copies when forming resolution graphs).
fn add_rule_edges(g: &mut IGraph, rule: &Rule) {
    let p = rule.head.predicate;
    assert!(
        rule.is_linear_recursive(),
        "I-graph construction requires a linear recursive rule, got {rule}"
    );
    // Vertices for every variable (also those in unary atoms with no edge).
    for v in rule.variables() {
        g.add_vertex(v);
    }
    // Undirected edges: cliques over each non-recursive atom's variables.
    for atom in rule.body.iter().filter(|a| a.predicate != p) {
        let vars: Vec<Symbol> = dedup_vars(atom.terms.iter().filter_map(Term::as_var));
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                g.add_undirected(vars[i], vars[j], atom.predicate);
            }
        }
    }
    // Directed edges: head position i → recursive-atom position i.
    let rec = rule
        .body_atoms_of(p)
        .next()
        .expect("linear recursion has a recursive body atom");
    for (i, (h, b)) in rule.head.terms.iter().zip(&rec.terms).enumerate() {
        let (Some(hv), Some(bv)) = (h.as_var(), b.as_var()) else {
            // The paper's fragment has no constants in the recursive
            // statement; validated rules never hit this arm.
            continue;
        };
        g.add_directed(hv, bv, p, i);
    }
}

fn dedup_vars(vars: impl Iterator<Item = Symbol>) -> Vec<Symbol> {
    let mut out = Vec::new();
    for v in vars {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// A resolution graph together with the expansion it belongs to.
#[derive(Debug, Clone)]
pub struct ResolutionGraph {
    /// The expansion index (1-based; 1 is the I-graph itself).
    pub k: usize,
    /// The k-th expansion of the formula.
    pub expansion: Rule,
    /// The k-th resolution graph: the I-graph of expansion 1 with the
    /// I-graphs of the spliced copies appended, arrows retained.
    pub graph: IGraph,
}

/// Iterator producing `G_1, G_2, …` — the successive resolution graphs.
pub(crate) struct ResolutionGraphs {
    original: Rule,
    predicate: Symbol,
    counter: u32,
    k: usize,
    current: Option<(Rule, IGraph)>,
}

impl ResolutionGraphs {
    /// Starts from a linear recursive rule.
    pub(crate) fn new(rule: &Rule) -> ResolutionGraphs {
        assert!(
            rule.is_linear_recursive(),
            "resolution graphs require a linear recursive rule"
        );
        ResolutionGraphs {
            original: rule.clone(),
            predicate: rule.head.predicate,
            counter: 0,
            k: 0,
            current: None,
        }
    }
}

impl Iterator for ResolutionGraphs {
    type Item = ResolutionGraph;

    fn next(&mut self) -> Option<ResolutionGraph> {
        self.k += 1;
        let (expansion, graph) = match self.current.take() {
            None => {
                let g = igraph_of(&self.original);
                (self.original.clone(), g)
            }
            Some((prev, mut g)) => {
                let step =
                    unfold_once_traced(&prev, &self.original, self.predicate, &mut self.counter);
                add_rule_edges(&mut g, &step.spliced);
                (step.result, g)
            }
        };
        self.current = Some((expansion.clone(), graph.clone()));
        Some(ResolutionGraph {
            k: self.k,
            expansion,
            graph,
        })
    }
}

/// The k-th resolution graph (k ≥ 1).
pub fn resolution_graph(rule: &Rule, k: usize) -> ResolutionGraph {
    assert!(k >= 1, "resolution graphs are 1-based");
    ResolutionGraphs::new(rule)
        .nth(k - 1)
        .expect("iterator is infinite")
}

#[cfg(test)]
mod tests {
    use super::*;

    use recurs_datalog::parser::parse_rule;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn figure_1a_s1a() {
        // s1a: P(x,y) :- A(x,z), P(z,y). Figure 1(a): x→z with A-edge, y self-loop.
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let g = igraph_of(&r);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.directed_edges().count(), 2);
        assert_eq!(g.undirected_edges().count(), 1);
        // x → z at position 0.
        let x = g.vertex_of(s("x")).unwrap();
        let z = g.vertex_of(s("z")).unwrap();
        let y = g.vertex_of(s("y")).unwrap();
        assert!(g
            .directed_edges()
            .any(|(_, e)| e.a == x && e.b == z && e.position == Some(0)));
        // y → y self-loop at position 1.
        assert!(g
            .directed_edges()
            .any(|(_, e)| e.a == y && e.b == y && e.position == Some(1)));
        // Undirected A edge between x and z.
        let (_, u) = g.undirected_edges().next().unwrap();
        assert_eq!(u.label, s("A"));
        assert!(u.touches(x) && u.touches(z));
    }

    #[test]
    fn figure_1b_s1b() {
        // s1b: P(x,y,z) :- A(x,y), P(u,z,v), B(u,v).
        let r = parse_rule("P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).").unwrap();
        let g = igraph_of(&r);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.directed_edges().count(), 3);
        assert_eq!(g.undirected_edges().count(), 2);
        let (x, y, z) = (
            g.vertex_of(s("x")).unwrap(),
            g.vertex_of(s("y")).unwrap(),
            g.vertex_of(s("z")).unwrap(),
        );
        let (u, v) = (g.vertex_of(s("u")).unwrap(), g.vertex_of(s("v")).unwrap());
        // Directed: x→u, y→z, z→v.
        assert!(g.directed_edges().any(|(_, e)| e.a == x && e.b == u));
        assert!(g.directed_edges().any(|(_, e)| e.a == y && e.b == z));
        assert!(g.directed_edges().any(|(_, e)| e.a == z && e.b == v));
    }

    #[test]
    fn wide_atoms_become_cliques() {
        let r = parse_rule("P(x, y) :- T(x, y, w), P(x, w).").unwrap();
        let g = igraph_of(&r);
        // T(x,y,w) gives 3 undirected edges (triangle).
        assert_eq!(g.undirected_edges().count(), 3);
    }

    #[test]
    fn unary_atoms_add_vertices_but_no_edges() {
        // s10: P(x,y) :- B(y), C(x,y1), P(x1,y1).
        let r = parse_rule("P(x, y) :- B(y), C(x, y1), P(x1, y1).").unwrap();
        let g = igraph_of(&r);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.undirected_edges().count(), 1); // only C
        assert_eq!(g.directed_edges().count(), 2);
    }

    #[test]
    fn repeated_variable_in_nonrecursive_atom() {
        let r = parse_rule("P(x, y) :- A(x, x), B(x, z), P(z, y).").unwrap();
        let g = igraph_of(&r);
        // A(x,x) contributes no edge (no distinct pair); B contributes one.
        assert_eq!(g.undirected_edges().count(), 1);
    }

    #[test]
    fn resolution_graph_g1_is_igraph() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, u), B(u, y).").unwrap();
        let g1 = resolution_graph(&r, 1);
        assert_eq!(g1.k, 1);
        assert_eq!(g1.graph, igraph_of(&r));
        assert_eq!(g1.expansion, r);
    }

    #[test]
    fn figure_2c_second_resolution_graph_of_s2a() {
        // s2a: P(x,y) :- A(x,z), P(z,u), B(u,y).
        // G2 keeps the first copy's arrows and appends the second copy:
        // 6 vertices (x,y,z,u,z1,u1), 4 directed edges, 4 undirected edges.
        let r = parse_rule("P(x, y) :- A(x, z), P(z, u), B(u, y).").unwrap();
        let g2 = resolution_graph(&r, 2);
        assert_eq!(g2.k, 2);
        assert_eq!(g2.graph.vertex_count(), 6);
        assert_eq!(g2.graph.directed_edges().count(), 4);
        assert_eq!(g2.graph.undirected_edges().count(), 4);
        // The expansion is the paper's s2c shape (5 body atoms).
        assert_eq!(g2.expansion.body.len(), 5);
        // The retained arrows include the original x→z and z→(fresh z1):
        let x = g2.graph.vertex_of(s("x")).unwrap();
        let z = g2.graph.vertex_of(s("z")).unwrap();
        assert!(g2.graph.directed_edges().any(|(_, e)| e.a == x && e.b == z));
        assert!(g2
            .graph
            .directed_edges()
            .any(|(_, e)| e.a == z && g2.graph.var(e.b) != s("u")));
    }

    #[test]
    fn resolution_graphs_grow_monotonically() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let gs: Vec<_> = ResolutionGraphs::new(&r).take(4).collect();
        for (i, rg) in gs.iter().enumerate() {
            let k = i + 1;
            assert_eq!(rg.k, k);
            // Each copy adds one A edge and two directed edges (one of which
            // is the y self-loop copy).
            assert_eq!(rg.graph.undirected_edges().count(), k);
            assert_eq!(rg.graph.directed_edges().count(), 2 * k);
        }
    }
}
