//! Incremental view maintenance for materialized linear-recursion fixpoints.
//!
//! A [`Materialization`] holds the saturated recursive predicate as a set:
//! its relation in the engine store, beside the EDB, is the fixpoint of the
//! current database, and nothing else is kept per tuple. Both sides of a
//! delta start the same way (`patch.rs`): *mark* the heads a changed EDB
//! tuple can reach, then *propagate* semi-naively from the tuples that
//! enter, each instantiation through an entering tuple enumerated in the
//! round that tuple entered — exactly because the rule is linear.
//!
//! * **Insertions** mark over the new EDB: each marked head comes from a
//!   full body instantiation over the new store, so it is derivable, and the
//!   ones not stored yet enter.
//! * **Deletions** are DRed (delete-and-rederive): the mark runs over the
//!   old state and is closed under the recursive delta pipeline, the
//!   candidates are removed, *recounted* against the shrunken database —
//!   a candidate that any surviving instantiation still derives is revived —
//!   and propagated forward from the revived ones, so self- and
//!   mutual-support cycles, which no surviving tuple supports, stay deleted.
//!
//! Every class runs this same machinery, and every deletion rederives its
//! candidates in overdeletion-frontier discovery order. The classification
//! changes one thing, the round cap ([`Materialization::round_cap`]): a
//! proven rank bound (A2/A4, bounded B, acyclic D) caps the propagation and
//! closure loops the way it caps unroll depth; every other formula runs
//! them uncapped, and [`maintenance_label`] names the path. All paths run
//! under an [`EvalBudget`](recurs_datalog::govern::EvalBudget) — a truncated patch
//! never surfaces: [`Materialization::apply`] falls back to cold saturation
//! of the new database and reports that it did. A view also answers
//! `why <fact>` without saturating anything: [`Materialization::explain`]
//! walks it ([`provenance`]).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod delta;
mod materialize;
mod patch;
pub mod provenance;

pub use delta::{EdbDelta, FactOp, IdbPatch};
pub use materialize::Materialization;
pub use patch::{PatchReport, PatchStats};
pub use provenance::{
    explain_fact, render_tree, verify_tree, DerivationNode, WhyOutcome, DEFAULT_WHY_DEPTH,
};

use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::TruncationReason;
use recurs_datalog::symbol::Symbol;
use recurs_engine::EngineError;
use std::fmt;

/// How a view is maintained, as events, metric labels and served replies
/// name it: `"cold-fallback"` for a patch the budget or the round cap cut
/// short (`truncation`), which was rebuilt by cold saturation instead;
/// else `"bounded-recount"` when a proven rank caps the rounds
/// (`round_cap`), `"generic-dred"` when nothing does.
pub fn maintenance_label(
    round_cap: Option<u64>,
    truncation: Option<TruncationReason>,
) -> &'static str {
    match (truncation, round_cap) {
        (Some(_), _) => "cold-fallback",
        (None, Some(_)) => "bounded-recount",
        (None, None) => "generic-dred",
    }
}

/// Errors from building or patching a materialization.
#[derive(Debug)]
pub enum IvmError {
    /// A substrate error from the Datalog layer.
    Datalog(DatalogError),
    /// A substrate error from the execution engine.
    Engine(EngineError),
    /// Initial saturation was truncated by its budget — no materialization
    /// exists to maintain. (Patch-time truncation never surfaces as an
    /// error; it falls back to cold saturation inside `apply`.)
    Truncated(TruncationReason),
    /// An update tried to touch the recursive predicate directly; the
    /// materialized relation is derived, never stored.
    IdbUpdate(Symbol),
}

impl fmt::Display for IvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvmError::Datalog(e) => write!(f, "{e}"),
            IvmError::Engine(e) => write!(f, "{e}"),
            IvmError::Truncated(r) => write!(f, "initial saturation truncated: {r}"),
            IvmError::IdbUpdate(p) => {
                write!(f, "relation {p} is derived and cannot be updated directly")
            }
        }
    }
}

impl std::error::Error for IvmError {}

impl From<DatalogError> for IvmError {
    fn from(e: DatalogError) -> IvmError {
        IvmError::Datalog(e)
    }
}

impl From<EngineError> for IvmError {
    fn from(e: EngineError) -> IvmError {
        IvmError::Engine(e)
    }
}
