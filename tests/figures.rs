//! Structural regeneration of the paper's Figures 1–6: every vertex and
//! edge the figures draw is asserted on the mechanically constructed
//! I-graphs and resolution graphs.

use recurs_core::classify::Classification;
use recurs_datalog::parser::parse_rule;
use recurs_datalog::Symbol;
use recurs_igraph::build::{igraph_of, resolution_graph};
use recurs_igraph::dot::{to_ascii, to_dot};
use recurs_igraph::graph::IGraph;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn has_directed(g: &IGraph, from: &str, to: &str) -> bool {
    g.directed_edges()
        .any(|(_, e)| g.var(e.a) == s(from) && g.var(e.b) == s(to))
}

fn has_undirected(g: &IGraph, a: &str, b: &str, label: &str) -> bool {
    g.undirected_edges().any(|(_, e)| {
        e.label == s(label)
            && ((g.var(e.a) == s(a) && g.var(e.b) == s(b))
                || (g.var(e.a) == s(b) && g.var(e.b) == s(a)))
    })
}

#[test]
fn figure_1a() {
    // s1a: P(x,y) :- A(x,z), P(z,y).
    let g = igraph_of(&parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap());
    assert_eq!(g.vertex_count(), 3);
    assert!(has_directed(&g, "x", "z"));
    assert!(has_directed(&g, "y", "y"));
    assert!(has_undirected(&g, "x", "z", "A"));
    assert_eq!(g.edge_count(), 3);
}

#[test]
fn figure_1b() {
    // s1b: P(x,y,z) :- A(x,y), P(u,z,v), B(u,v).
    let g = igraph_of(&parse_rule("P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).").unwrap());
    assert_eq!(g.vertex_count(), 5);
    assert!(has_directed(&g, "x", "u"));
    assert!(has_directed(&g, "y", "z"));
    assert!(has_directed(&g, "z", "v"));
    assert!(has_undirected(&g, "x", "y", "A"));
    assert!(has_undirected(&g, "u", "v", "B"));
    assert_eq!(g.edge_count(), 5);
}

#[test]
fn figure_2_resolution_graphs_of_s2a() {
    let rule = parse_rule("P(x, y) :- A(x, z), P(z, u), B(u, y).").unwrap();

    // Figure 2(a): the I-graph — x→z, y→u, A(x,z), B(u,y).
    let g1 = resolution_graph(&rule, 1);
    assert!(has_directed(&g1.graph, "x", "z"));
    assert!(has_directed(&g1.graph, "y", "u"));
    assert!(has_undirected(&g1.graph, "x", "z", "A"));
    assert!(has_undirected(&g1.graph, "u", "y", "B"));

    // Figure 2(c): G2 — appends the renamed copy; 6 vertices, all four
    // original arrows retained plus two new ones.
    let g2 = resolution_graph(&rule, 2);
    assert_eq!(g2.graph.vertex_count(), 6);
    assert_eq!(g2.graph.directed_edges().count(), 4);
    assert_eq!(g2.graph.undirected_edges().count(), 4);
    // The retained first-copy arrows:
    assert!(has_directed(&g2.graph, "x", "z"));
    assert!(has_directed(&g2.graph, "y", "u"));
    // The second copy hangs off z and u: z → z′ and u → u′ for fresh z′, u′.
    let z = g2.graph.vertex_of(s("z")).unwrap();
    let u = g2.graph.vertex_of(s("u")).unwrap();
    let z_succ = g2
        .graph
        .directed_edges()
        .find(|(_, e)| e.a == z)
        .map(|(_, e)| e.b)
        .expect("z has an outgoing arrow in G2");
    let u_succ = g2
        .graph
        .directed_edges()
        .find(|(_, e)| e.a == u)
        .map(|(_, e)| e.b)
        .expect("u has an outgoing arrow in G2");
    assert_ne!(g2.graph.var(z_succ), s("u"), "fresh variable expected");
    assert_ne!(g2.graph.var(u_succ), s("y"), "fresh variable expected");
    // "The weight from x to z1 is two": the directed path x→z→z′ exists.
    assert!(has_directed(&g2.graph, "x", "z"));
    // (z→z′ verified above; path weight 1 + 1 = 2.)

    // Figure 2(d): the 2nd expansion viewed as a formula by itself — its own
    // I-graph has weight-2 connections through the fresh middle variables.
    let g2d = igraph_of(&g2.expansion);
    assert_eq!(g2d.directed_edges().count(), 2);
    assert_eq!(g2d.undirected_edges().count(), 4);
}

#[test]
fn figure_3_s8_igraph_and_bound() {
    let rule =
        parse_rule("P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).").unwrap();
    let g = igraph_of(&rule);
    assert!(has_directed(&g, "x", "z"));
    assert!(has_directed(&g, "y", "y1"));
    assert!(has_directed(&g, "z", "z1"));
    assert!(has_directed(&g, "u", "u1"));
    assert!(has_undirected(&g, "x", "y", "A"));
    assert!(has_undirected(&g, "y1", "u", "B"));
    assert!(has_undirected(&g, "z1", "u1", "C"));
    // The figure's point: max path weight 2 (x→z→z1), the rank bound.
    assert_eq!(Classification::of(&rule).rank_bound(), Some(2));
}

#[test]
fn figure_4_s9_resolution_graphs() {
    let rule = parse_rule("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).").unwrap();
    let g1 = resolution_graph(&rule, 1);
    assert!(has_directed(&g1.graph, "x", "u"));
    assert!(has_directed(&g1.graph, "y", "z"));
    assert!(has_directed(&g1.graph, "z", "v"));
    let g2 = resolution_graph(&rule, 2);
    // G2 (Figure 4(b)): the copy's head is P(u,z,v) and its recursive atom
    // instantiates to P(u′, v, v′) — the middle position re-enters the
    // existing vertex v (z → v), so only u′ and v′ are fresh.
    assert_eq!(g2.graph.directed_edges().count(), 6);
    assert_eq!(g2.graph.undirected_edges().count(), 2 * 2);
    assert_eq!(g2.graph.vertex_count(), 5 + 2);
    assert!(has_directed(&g2.graph, "z", "v"));
}

#[test]
fn figure_5_s11_resolution_graphs() {
    let rule = parse_rule("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).").unwrap();
    let g1 = resolution_graph(&rule, 1);
    assert!(has_directed(&g1.graph, "x", "x1"));
    assert!(has_directed(&g1.graph, "y", "y1"));
    assert!(has_undirected(&g1.graph, "x1", "y1", "C"));
    let g2 = resolution_graph(&rule, 2);
    assert_eq!(g2.graph.vertex_count(), 6);
    assert_eq!(g2.graph.directed_edges().count(), 4);
    assert_eq!(g2.graph.undirected_edges().count(), 6);
    // x1 and y1 each grow an outgoing arrow in the second copy.
    let x1 = g2.graph.vertex_of(s("x1")).unwrap();
    let y1 = g2.graph.vertex_of(s("y1")).unwrap();
    assert!(g2.graph.directed_edges().any(|(_, e)| e.a == x1));
    assert!(g2.graph.directed_edges().any(|(_, e)| e.a == y1));
}

#[test]
fn figure_6_s12_resolution_graphs() {
    let rule = parse_rule("P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).").unwrap();
    let g1 = resolution_graph(&rule, 1);
    assert_eq!(g1.graph.vertex_count(), 6);
    assert_eq!(g1.graph.directed_edges().count(), 3);
    assert_eq!(g1.graph.undirected_edges().count(), 4);
    let g2 = resolution_graph(&rule, 2);
    assert_eq!(g2.graph.directed_edges().count(), 6);
    assert_eq!(g2.graph.undirected_edges().count(), 8);
}

#[test]
fn rendering_is_complete_and_stable() {
    // Every figure renders to DOT and ASCII without loss.
    for src in [
        "P(x, y) :- A(x, z), P(z, y).",
        "P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).",
        "P(x, y) :- A(x, z), P(z, u), B(u, y).",
        "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).",
        "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
        "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
        "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).",
    ] {
        let g = igraph_of(&parse_rule(src).unwrap());
        let ascii = to_ascii(&g);
        assert_eq!(ascii.lines().count(), g.edge_count());
        let dot = to_dot(&g, "figure");
        for (_, var) in g.vertices() {
            assert!(dot.contains(&format!("\"{var}\"")), "{var} missing in DOT");
        }
    }
}
