//! Incremental view maintenance for materialized linear-recursion fixpoints.
//!
//! A [`Materialization`] holds the saturated recursive predicate together
//! with a *derivation count* per tuple — the number of ground rule
//! instantiations whose head is that tuple, over the current database. The
//! counts are what make maintenance exact:
//!
//! * **Insertions** are counting-based. New EDB tuples are differentiated
//!   per body position (new relations before the delta position, old ones
//!   after — the standard inclusion–exclusion that enumerates every *new*
//!   instantiation exactly once even when a batch touches several positions
//!   of one body, or one relation twice), then fresh recursive tuples
//!   propagate through the engine's compiled delta pipeline, whose output
//!   rows are per-instantiation precisely because the rule is linear.
//! * **Deletions** are DRed (delete-and-rederive): a set-based overdeletion
//!   pass marks everything whose support might have passed through a deleted
//!   tuple, then candidates are recounted backward against the shrunken
//!   database and reinserted forward in sequence order so each surviving
//!   instantiation is counted exactly once — including self- and
//!   mutual-support cycles, which the recount correctly refuses to revive.
//!
//! Every class runs this same machinery, and every deletion rederives its
//! candidates in overdeletion-frontier discovery order. The classification
//! picks a maintenance path ([`MaintenancePath`]) that changes one thing,
//! the round cap: a proven rank bound (A2/A4, bounded B, acyclic D) caps
//! the propagation and closure loops the way it caps unroll depth; every
//! other formula runs them uncapped. All paths run under an
//! [`EvalBudget`](recurs_datalog::govern::EvalBudget) — a truncated patch
//! never surfaces: [`Materialization::apply`] falls back to cold saturation
//! of the new database and reports that it did. A view also answers
//! `why <fact>` without saturating anything: [`Materialization::explain`]
//! walks it ([`provenance`]).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use recurs_core::Classification;

pub mod delta;
pub mod materialize;
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

/// How a patch is (or was) maintained, mirroring the engine's kernel: the
/// rank bound that caps evaluation also caps maintenance, and
/// [`MaintenancePath::round_cap`] is all that tells the live paths apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePath {
    /// A proven rank bound (classes A2/A4, bounded B, acyclic D) caps every
    /// propagation and rederivation loop; exceeding the cap means the bound
    /// was violated, which is treated as truncation and falls back cold.
    BoundedRecount {
        /// The rank bound from the classification.
        rank: u64,
    },
    /// Uncapped DRed for every formula without a proven rank bound.
    GenericDred,
    /// The patch was abandoned (budget truncation or a tripped loop cap)
    /// and the materialization was rebuilt by cold saturation instead.
    ColdFallback,
}

impl MaintenancePath {
    /// Selects the maintenance path for a classified recursive rule: its
    /// rank bound, when it proves one.
    pub fn select(classification: &Classification) -> MaintenancePath {
        match classification.rank_bound() {
            Some(rank) => MaintenancePath::BoundedRecount { rank },
            None => MaintenancePath::GenericDred,
        }
    }

    /// Stable label for metrics and protocol replies.
    pub fn label(&self) -> &'static str {
        match self {
            MaintenancePath::BoundedRecount { .. } => "bounded-recount",
            MaintenancePath::GenericDred => "generic-dred",
            MaintenancePath::ColdFallback => "cold-fallback",
        }
    }

    /// The cap on productive propagation rounds, when the class proves one.
    /// A bounded formula reaches fixpoint from *any* seed within `rank`
    /// productive rounds, so `rank + 2` rounds (one extra to observe the
    /// empty delta, one of slack) is a correctness tripwire, not a budget.
    pub(crate) fn round_cap(&self) -> Option<u64> {
        match self {
            MaintenancePath::BoundedRecount { rank } => Some(rank + 2),
            _ => None,
        }
    }
}

impl fmt::Display for MaintenancePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
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
