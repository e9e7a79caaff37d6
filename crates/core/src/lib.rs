//! `recurs-core` — classification, compilation and query planning for linear
//! recursive formulas in deductive databases.
//!
//! This crate implements the primary contribution of *Classification of
//! Recursive Formulas in Deductive Databases* (Youn, Henschen & Han, SIGMOD
//! 1988):
//!
//! * the full **classification** A1–A5 / B / C / D / E / F over the
//!   condensed I-graph ([`classify`]);
//! * **strong stability**, both syntactically and semantically, with
//!   Theorem 1's equivalence checkable on any rule ([`stability`]);
//! * the **transformations**: unfold-to-stable for class A (Theorems 2/4)
//!   and bounded-to-nonrecursive (Ioannidis's theorem, Theorems 10/11)
//!   ([`transform`]);
//! * symbolic **compiled formulas** in the paper's σ/⋈/×/∃/∪ₖ notation
//!   ([`formula`]);
//! * the rewrites behind the **plans** — bounded levels ([`transform`]),
//!   the [`counting`] formula as a frontier walk, and [`magic`] sets — selected
//!   per class and query form by the [`plan`] module, which lowers each to
//!   a program for `recurs-engine` (nothing in this crate evaluates one);
//! * the [`oracle`] ground truth every plan is held to, and human-readable
//!   [`report`]s.
//!
//! # Quick example
//!
//! ```
//! use recurs_core::classify::{Classification, FormulaClass};
//! use recurs_core::plan::{plan_query, StrategyKind};
//! use recurs_datalog::parser::{parse_atom, parse_program};
//! use recurs_datalog::validate::validate_with_generic_exit;
//!
//! let lr = validate_with_generic_exit(&parse_program(
//!     "P(x, y) :- A(x, z), P(z, y).\n\
//!      P(x, y) :- E(x, y).",
//! ).unwrap()).unwrap();
//!
//! let class = Classification::of(&lr.recursive_rule);
//! assert!(class.is_strongly_stable()); // Theorem 1: disjoint unit cycles
//!
//! let query = parse_atom("P('1', y)").unwrap();
//! let plan = plan_query(&lr, &query).unwrap();
//! // σA^k-E: a walk from the constant, no fixpoint over P.
//! assert_eq!(plan.strategy, StrategyKind::Frontier);
//! let lowered = plan.lower(&query).unwrap();
//! assert_eq!(lowered.program.rules.len(), 2);
//! assert_eq!(lowered.seed.unwrap().1.len(), 1); // reach('1')
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classify;
pub mod counting;
pub mod formula;
pub mod magic;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod stability;
pub mod transform;

pub use classify::{Classification, ComponentClass, FormulaClass, OneDirectionalSubclass};
pub use formula::{CompiledFormula, FExpr, Power};
pub use plan::{plan_for_form, plan_query, Lowered, QueryPlan, StrategyKind};
pub use transform::{to_nonrecursive, unfold_to_stable, StableTransform};
