//! `recurs-datalog` — the Datalog substrate for the `recurs` project.
//!
//! This crate implements everything the classification layer (crate
//! `recurs-core`) needs from a deductive database engine:
//!
//! * the function-free Horn-clause language — [`term::Atom`], [`rule::Rule`],
//!   [`rule::Program`] — with a parser ([`parser`]) and pretty-printer;
//! * validation of the paper's structural restrictions ([`validate`]) and the
//!   [`rule::LinearRecursion`] view (one linear recursive rule + exit rules);
//! * tuple storage ([`relation::Relation`], [`database::Database`]) and a
//!   positional relational algebra ([`algebra`]);
//! * naive and semi-naive bottom-up fixpoint evaluation ([`eval`]), the
//!   ground truth that compiled query plans are checked against;
//! * unification and rule unfolding ([`subst`], [`unfold`]) — the paper's
//!   k-th *expansion* of a recursive formula;
//! * query forms and determined-variable propagation ([`adornment`]) — the
//!   paper's `P(d, v, v)` patterns.
//!
//! # Quick example
//!
//! ```
//! use recurs_datalog::parser::parse_program;
//! use recurs_datalog::database::Database;
//! use recurs_datalog::relation::Relation;
//! use recurs_datalog::eval::semi_naive;
//!
//! let program = parse_program(
//!     "P(x, y) :- E(x, y).\n\
//!      P(x, y) :- A(x, z), P(z, y).",
//! ).unwrap();
//! let mut db = Database::new();
//! db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
//! db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
//! semi_naive(&mut db, &program, None).unwrap();
//! assert_eq!(db.get("P").unwrap().len(), 3); // (1,2) (2,3) (1,3)
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library paths must surface failures as `Err`, never panic on input; unit
// tests (compiled only under cfg(test)) are exempt. CI runs clippy with
// `-D warnings`, making this a hard gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod adornment;
pub mod algebra;
pub mod database;
pub mod error;
pub mod eval;
pub mod fingerprint;
pub mod govern;
pub mod parser;
pub mod relation;
pub mod rule;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unfold;
pub mod validate;

pub use adornment::{ArgBinding, QueryForm};
pub use database::Database;
pub use error::{DatalogError, ParseError, ValidationError};
pub use fingerprint::Fingerprint;
pub use govern::{CancelToken, EvalBudget, Governor, Outcome, Progress, TruncationReason};
pub use relation::{Relation, Tuple};
pub use rule::{LinearRecursion, Program, Rule};
pub use symbol::Symbol;
pub use term::{Atom, Term, Value};
