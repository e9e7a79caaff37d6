//! `recurs-workload` — synthetic workload generators for the `recurs`
//! benchmarks and property tests.
//!
//! * [`graphs`] — deterministic, seeded EDB generators: chains, cycles,
//!   trees, random digraphs, layered graphs, and random relations of
//!   arbitrary arity;
//! * [`rules`] — random *valid* linear recursive rules (the input space for
//!   property-testing Theorems 1 and 12 and plan/oracle equivalence);
//! * [`queries`] — random databases and query atoms for a given formula.
//!
//! Everything is deterministic given its seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graphs;
pub mod queries;
pub mod rules;

pub use graphs::{chain, cycle, layered, random_digraph, random_relation, tree};
pub use queries::{all_query_atoms, random_database, random_query};
pub use rules::{random_linear_recursion, random_rule, RuleConfig};
