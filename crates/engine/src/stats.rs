//! Execution statistics: what the engine did, per iteration and in total.

use std::borrow::Cow;
use std::time::Duration;

/// The kernel a saturation with this round cap runs, as reports, events and
/// metric labels name it: `"unroll(N)"` when a proven rank caps the rounds
/// at `N`, `"generic"` when the semi-naive loop runs to its fixpoint. The
/// classification changes a whole-program saturation in this one way only.
pub fn kernel_label(round_cap: Option<u64>) -> Cow<'static, str> {
    match round_cap {
        Some(rank) => Cow::Owned(format!("unroll({rank})")),
        None => Cow::Borrowed("generic"),
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
    /// The recursive rounds after which the run was complete by
    /// construction: a proven rank bound, or `None` for the generic loop.
    /// Serialized as the kernel's label ([`kernel_label`]).
    pub round_cap: Option<u64>,
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
            ("kernel", kernel_label(self.round_cap).into()),
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
        assert_eq!(kernel_label(Some(3)), "unroll(3)");
        assert_eq!(kernel_label(None), "generic");
    }
}
