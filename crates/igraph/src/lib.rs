//! `recurs-igraph` — the paper's graph model for linear recursive formulas.
//!
//! Implements section 2 of *Classification of Recursive Formulas in Deductive
//! Databases* (Youn, Henschen & Han, SIGMOD 1988):
//!
//! * the labeled, weighted, hybrid **I-graph** of a rule ([`graph`],
//!   [`build::igraph_of`]);
//! * **resolution graphs** `G_k` for the k-th expansion
//!   ([`build::resolution_graph`]);
//! * **condensation** over undirected connectivity — the paper's edge
//!   *compression* taken to its fixpoint ([`condense`](mod@condense));
//! * per-**component** structural analysis, read from each component's
//!   shape in one traversal: trivial / acyclic / independent cycle /
//!   dependent ([`component`]), the independent cycle's properties — weight,
//!   one-/multi-directional, rotational/permutational, unit ([`cycle`]) —
//!   and its **max path weight**, Ioannidis's rank bound;
//! * DOT and ASCII rendering of every figure ([`dot`]).
//!
//! # Example
//!
//! ```
//! use recurs_datalog::parser::parse_rule;
//! use recurs_igraph::build::igraph_of;
//! use recurs_igraph::component::{analyze_components, ComponentKind};
//! use recurs_igraph::condense::condense;
//!
//! // s1a: transitive closure.
//! let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
//! let components = analyze_components(&condense(&igraph_of(&rule)));
//! assert_eq!(components.len(), 2);
//! // Two independent unit cycles: strongly stable (Thm 1).
//! assert!(components
//!     .iter()
//!     .all(|c| matches!(&c.kind, ComponentKind::IndependentCycle(cy) if cy.is_unit())));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod component;
pub mod condense;
pub mod cycle;
pub mod dot;
pub mod graph;
mod paths;

pub use build::{igraph_of, resolution_graph, ResolutionGraph};
pub use component::{analyze_components, Component, ComponentKind};
pub use condense::{condense, CEdge, Condensed};
pub use cycle::{Cycle, Step};
pub use graph::{Edge, EdgeId, EdgeKind, IGraph, VertexId};
