//! `recurs-serve` — a long-lived, thread-safe query service over a linear
//! recursion.
//!
//! The CLI evaluates one query per process: parse, classify, saturate,
//! exit. This crate is the serving layer the ROADMAP's production goal
//! needs: it owns an `Arc`-snapshotted database and answers many concurrent
//! *bound* queries without redundant saturation.
//!
//! * **Snapshot isolation** ([`snapshot`]): readers evaluate against an
//!   immutable versioned snapshot; writers install the next version
//!   copy-on-write without blocking in-flight queries.
//! * **Incremental updates** ([`QueryService::apply_update`]): ground fact
//!   batches (`+fact` / `-fact`) normalize to a net EDB delta; the
//!   `recurs-ivm` counting/DRed maintenance patches the service's
//!   materialized view and the warm cache entries it reaches in place
//!   instead of recomputing, and all-no-op groups don't even bump the
//!   version.
//! * **Point queries** ([`kernel`]): a plan per query form from
//!   `recurs-core`'s one table (bounded levels, frontier walk, magic, full
//!   saturation), run by `recurs_engine::evaluate` on a clone of the snapshot.
//! * **Saturation cache** ([`cache`]): one LRU under one lock, keyed by the
//!   adorned query and stamped with the version its entries are exact at;
//!   only complete answers are admitted, and a snapshot change patches the
//!   entries it reaches or, without an exact patch, clears the cache.
//! * **Admission control** ([`admission`]): a semaphore bounds concurrent
//!   evaluations; every query runs under an
//!   [`EvalBudget`](recurs_datalog::govern::EvalBudget) and reports the
//!   engine's `Complete | Truncated` contract.
//! * **Observability** ([`stats`]): per-query [`ServeStats`] aggregate into
//!   a service-wide [`ServiceStats`] snapshot exportable as JSON.
//! * **Line protocol** ([`protocol`]): the `recurs serve --stdin` wire
//!   format — one request per line, one JSON reply per line.
//!
//! ```
//! use recurs_datalog::{parser, Database, Relation};
//! use recurs_datalog::validate::validate_with_generic_exit;
//! use recurs_serve::{QueryService, ServeConfig};
//!
//! let program = parser::parse_program(
//!     "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap();
//! let lr = validate_with_generic_exit(&program).unwrap();
//! let mut db = Database::new();
//! db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
//! db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
//! let service = QueryService::new(lr, db, ServeConfig::default());
//!
//! let q = parser::parse_atom("P(1, y)").unwrap();
//! let reply = service.query(&q).unwrap();
//! assert!(reply.outcome.is_complete());
//! assert_eq!(reply.answers.len(), 2); // 1 → 2, 1 → 3
//! assert!(service.query(&q).unwrap().stats.cache.label() == "hit");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library paths must surface failures as `Err`, never panic on input; unit
// tests (compiled only under cfg(test)) are exempt. CI runs clippy with
// `-D warnings`, making this a hard gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod cache;
pub mod error;
pub mod kernel;
pub mod protocol;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod version;

pub use cache::CacheCounters;
pub use error::ServeError;
pub use kernel::PointKernelKind;
pub use recurs_ivm::FactOp;
pub use service::{verdict_fields, QueryService, Reply, ServeConfig, UpdateOutcome, WhyReply};
pub use snapshot::{Snapshot, SnapshotStore, SnapshotUpdate};
pub use stats::{CacheOutcome, ServeStats, ServiceStats};
pub use version::Version;
