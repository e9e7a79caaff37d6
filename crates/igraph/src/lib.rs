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
//! * exhaustive **simple-cycle enumeration** with the paper's cycle
//!   properties: weight, one-/multi-directional, rotational/permutational,
//!   unit ([`cycle`]);
//! * per-**component** structural analysis: trivial / acyclic / independent
//!   cycle / dependent ([`component`]);
//! * **max path weight** — Ioannidis's rank bound ([`paths`]);
//! * DOT and ASCII rendering of every figure ([`dot`]).
//!
//! # Example
//!
//! ```
//! use recurs_datalog::parser::parse_rule;
//! use recurs_igraph::build::igraph_of;
//! use recurs_igraph::condense::condense;
//! use recurs_igraph::cycle::enumerate_cycles;
//!
//! // s1a: transitive closure.
//! let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
//! let g = igraph_of(&rule);
//! let cycles = enumerate_cycles(&condense(&g));
//! assert_eq!(cycles.len(), 2);
//! assert!(cycles.iter().all(|c| c.is_unit())); // strongly stable (Thm 1)
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod component;
pub mod condense;
pub mod cycle;
pub mod dot;
pub mod graph;
pub mod paths;

pub use build::{igraph_of, resolution_graph, ResolutionGraph};
pub use component::{analyze_components, Component, ComponentKind};
pub use condense::{condense, CEdge, Condensed};
pub use cycle::{enumerate_cycles, Cycle, Step};
pub use graph::{Edge, EdgeId, EdgeKind, IGraph, VertexId};
pub use paths::max_path_weight;
