//! Execution statistics: what the engine did, per iteration and in total.

use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// The kernel a saturation ran: the one semi-naive loop, with or without a
/// round cap. The classification changes a whole-program saturation in this
/// one way only — a proven rank bound lets it stop after `rank` rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Bounded unrolling for formulas with a *proven* rank bound (pure
    /// permutational A2/A4, bounded B, acyclic D): apply the recursive rule
    /// exactly `rank` times and stop — no trailing empty iteration to detect
    /// the fixpoint.
    BoundedUnroll {
        /// The proven rank bound (number of recursive applications).
        rank: u64,
    },
    /// Semi-naive until the delta is empty: every formula without a proven
    /// rank, and arbitrary multi-rule programs.
    Generic,
}

impl KernelKind {
    /// The kernel for a run whose recursive rounds are capped at `round_cap`
    /// (a classification's `rank_bound()`, a lowering's `round_cap`): a cap
    /// is bounded unrolling, no cap is the generic loop.
    pub fn for_round_cap(round_cap: Option<u64>) -> KernelKind {
        match round_cap {
            Some(rank) => KernelKind::BoundedUnroll { rank },
            None => KernelKind::Generic,
        }
    }

    /// The recursive rounds after which the run is complete by construction.
    pub fn round_cap(&self) -> Option<u64> {
        match self {
            KernelKind::BoundedUnroll { rank } => Some(*rank),
            KernelKind::Generic => None,
        }
    }

    /// Short label for reports, e.g. `"generic"`, `"unroll(3)"`: static
    /// but for the rank.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            KernelKind::BoundedUnroll { rank } => Cow::Owned(format!("unroll({rank})")),
            KernelKind::Generic => Cow::Borrowed("generic"),
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl serde::Serialize for KernelKind {
    fn to_value(&self) -> serde::Value {
        self.label().into()
    }
}

/// One fixpoint iteration as the engine saw it.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// Tuples in the incoming delta (0 for the seeding iteration).
    pub delta_in: usize,
    /// Head tuples produced by rule evaluation (before deduplication).
    pub derived: usize,
    /// Tuples that were genuinely new (the outgoing delta).
    pub new_tuples: usize,
    /// Wall-clock time of the iteration: from the clock read that opens it
    /// (before its budget check) to the one that opens the next round, or
    /// ends the run — its joins and merges, and the checks that open it.
    pub duration: Duration,
}

impl serde::Serialize for IterationStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("delta_in", self.delta_in.to_value()),
            ("derived", self.derived.to_value()),
            ("new_tuples", self.new_tuples.to_value()),
            ("duration_us", (self.duration.as_micros() as u64).to_value()),
        ])
    }
}

/// Statistics of an engine run.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// The kernel the run used.
    pub kernel: KernelKind,
    /// Per-iteration detail, in order (iteration 0 is the non-recursive
    /// seeding round).
    pub iterations: Vec<IterationStats>,
    /// Total new tuples added to IDB relations.
    pub tuples_derived: usize,
    /// Indexes the run built before its first round.
    pub index_builds: u64,
    /// Index entries the run linked: each new head row, once per index its
    /// relation maintains.
    pub index_updates: u64,
    /// Hash-index probes issued by join steps.
    pub probes: u64,
    /// Tuples returned by those probes (the "hits").
    pub probe_hits: u64,
}

impl EngineStats {
    /// Number of iterations run (including the seeding round).
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total wall-clock time across iterations.
    pub(crate) fn total_duration(&self) -> Duration {
        self.iterations.iter().map(|i| i.duration).sum()
    }
}

impl serde::Serialize for EngineStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("kernel", self.kernel.to_value()),
            ("iterations", self.iterations.to_value()),
            ("iteration_count", self.iteration_count().to_value()),
            ("tuples_derived", self.tuples_derived.to_value()),
            (
                "total_duration_us",
                (self.total_duration().as_micros() as u64).to_value(),
            ),
            ("index_builds", self.index_builds.to_value()),
            ("index_updates", self.index_updates.to_value()),
            ("probes", self.probes.to_value()),
            ("probe_hits", self.probe_hits.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_labels() {
        assert_eq!(KernelKind::BoundedUnroll { rank: 3 }.label(), "unroll(3)");
        assert_eq!(KernelKind::Generic.to_string(), "generic");
    }
}
