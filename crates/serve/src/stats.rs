//! Per-query and service-wide statistics, exportable as JSON.

use crate::cache::CacheCounters;
use crate::kernel::PointKernelKind;
use recurs_datalog::govern::Outcome;
use std::fmt::Write as _;
use std::time::Duration;

/// How the cache participated in one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the cache.
    Hit,
    /// Looked up, not found, computed (and admitted if complete).
    Miss,
    /// The cache was disabled for this query.
    Bypass,
}

impl CacheOutcome {
    /// Lower-case label: `"hit"`, `"miss"`, `"bypass"`.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

impl serde::Serialize for CacheOutcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::StaticStr(self.label())
    }
}

/// What one query cost and how it was answered.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Time spent waiting for an admission permit.
    pub queue_wait: Duration,
    /// Time spent evaluating (or looking up) the answer.
    pub eval: Duration,
    /// Cache participation.
    pub cache: CacheOutcome,
    /// The point-query kernel the dispatcher selected.
    pub kernel: PointKernelKind,
    /// Complete, or soundly truncated by the budget.
    pub outcome: Outcome,
    /// Number of answer tuples returned.
    pub answers: usize,
    /// Tuples derived while evaluating (0 on a cache hit).
    pub tuples_derived: usize,
    /// Fixpoint iterations run (0 on a cache hit, for a materialized-view
    /// answer, and for the bounded kernel).
    pub fixpoint_iterations: usize,
    /// The snapshot version the query was answered against.
    pub snapshot_version: u64,
}

impl serde::Serialize for ServeStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            (
                "queue_wait_us",
                (self.queue_wait.as_micros() as u64).to_value(),
            ),
            ("eval_us", (self.eval.as_micros() as u64).to_value()),
            ("cache", self.cache.to_value()),
            ("kernel", self.kernel.to_value()),
            ("outcome", self.outcome.to_value()),
            ("answers", self.answers.to_value()),
            ("tuples_derived", self.tuples_derived.to_value()),
            ("fixpoint_iterations", self.fixpoint_iterations.to_value()),
            ("snapshot_version", self.snapshot_version.to_value()),
        ])
    }

    /// Writes what [`to_value`](serde::Serialize::to_value) renders, key for
    /// key, without building the tree: an answers reply carries one.
    fn write_json(&self, out: &mut String) {
        let queue_wait = self.queue_wait.as_micros() as u64;
        let eval = self.eval.as_micros() as u64;
        let (cache, kernel) = (self.cache.label(), self.kernel.label());
        let complete = self.outcome.is_complete();
        let _ = write!(
            out,
            r#"{{"queue_wait_us":{queue_wait},"eval_us":{eval},"cache":"{cache}","kernel":"{kernel}","outcome":{{"complete":{complete},"truncation":"#
        );
        match self.outcome.truncation() {
            Some(reason) => serde::json::write_str(out, reason.label()),
            None => out.push_str("null"),
        }
        let (answers, derived) = (self.answers, self.tuples_derived);
        let (rounds, version) = (self.fixpoint_iterations, self.snapshot_version);
        let _ = write!(
            out,
            r#"}},"answers":{answers},"tuples_derived":{derived},"fixpoint_iterations":{rounds},"snapshot_version":{version}}}"#
        );
    }
}

/// A point-in-time snapshot of the service's aggregate statistics.
///
/// Derived by reading the service's metric aggregator (the same recorder
/// that feeds trace events and the `!metrics` Prometheus exposition) — see
/// [`QueryService::stats`](crate::service::QueryService::stats).
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Queries answered (successfully; errors are counted separately).
    pub queries: u64,
    /// Queries whose outcome was `Complete`.
    pub complete: u64,
    /// Queries whose outcome was `Truncated`.
    pub truncated: u64,
    /// Queries that returned a typed error.
    pub errors: u64,
    /// Queries answered by the bounded kernel.
    pub kernel_bounded: u64,
    /// Queries answered by a frontier walk.
    pub kernel_frontier: u64,
    /// Queries answered by the magic kernel.
    pub kernel_magic: u64,
    /// Queries answered by full saturation.
    pub kernel_saturate: u64,
    /// Queries answered from the maintained materialized view.
    pub kernel_materialized: u64,
    /// Summed admission queue wait of every admitted query, microseconds:
    /// `recurs_serve_admission_wait_seconds`'s sum.
    pub queue_wait_us: u64,
    /// Summed evaluation time, microseconds: `recurs_serve_query_seconds`'s
    /// sum.
    pub eval_us: u64,
    /// Summed tuples derived.
    pub tuples_derived: u64,
    /// Saturation-cache counters.
    pub cache: CacheCounters,
    /// Current snapshot version.
    pub snapshot_version: u64,
    /// Snapshots installed since the service started:
    /// `recurs_serve_update_seconds`'s count outside `result="unchanged"`.
    pub snapshot_updates: u64,
    /// Update groups whose net delta was empty (version not bumped):
    /// `recurs_serve_update_seconds`'s `result="unchanged"` count.
    pub updates_unchanged: u64,
}

impl serde::Serialize for ServiceStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("queries", self.queries.to_value()),
            ("complete", self.complete.to_value()),
            ("truncated", self.truncated.to_value()),
            ("errors", self.errors.to_value()),
            (
                "kernels",
                serde::Value::object([
                    ("bounded", self.kernel_bounded.to_value()),
                    ("frontier", self.kernel_frontier.to_value()),
                    ("magic", self.kernel_magic.to_value()),
                    ("saturate", self.kernel_saturate.to_value()),
                    ("materialized", self.kernel_materialized.to_value()),
                ]),
            ),
            ("queue_wait_us", self.queue_wait_us.to_value()),
            ("eval_us", self.eval_us.to_value()),
            ("tuples_derived", self.tuples_derived.to_value()),
            ("cache", self.cache.to_value()),
            ("snapshot_version", self.snapshot_version.to_value()),
            ("snapshot_updates", self.snapshot_updates.to_value()),
            ("updates_unchanged", self.updates_unchanged.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize as _;

    fn stats(kernel: PointKernelKind, outcome: Outcome) -> ServeStats {
        ServeStats {
            queue_wait: Duration::from_micros(10),
            eval: Duration::from_micros(100),
            cache: CacheOutcome::Miss,
            kernel,
            outcome,
            answers: 3,
            tuples_derived: 7,
            fixpoint_iterations: 2,
            snapshot_version: 1,
        }
    }

    #[test]
    fn write_json_writes_the_bytes_of_the_value_tree() {
        use recurs_datalog::govern::TruncationReason;
        let kernels = [
            PointKernelKind::BoundedUnroll { rank: 0 },
            PointKernelKind::BoundedUnroll { rank: 12 },
            PointKernelKind::Frontier,
            PointKernelKind::MagicIterate,
            PointKernelKind::FullSaturation,
            PointKernelKind::MaterializedView,
        ];
        let caches = [CacheOutcome::Hit, CacheOutcome::Miss, CacheOutcome::Bypass];
        let outcomes = [
            Outcome::Complete,
            Outcome::Truncated(TruncationReason::IterationCap),
            Outcome::Truncated(TruncationReason::Deadline),
            Outcome::Truncated(TruncationReason::TupleCeiling),
            Outcome::Truncated(TruncationReason::DeltaCeiling),
            Outcome::Truncated(TruncationReason::Cancelled),
        ];
        for kernel in kernels {
            for cache in caches {
                for outcome in outcomes {
                    let s = ServeStats {
                        queue_wait: Duration::from_nanos(2_500),
                        eval: Duration::from_secs(3) + Duration::from_nanos(999),
                        cache,
                        answers: usize::MAX,
                        snapshot_version: u64::MAX,
                        ..stats(kernel, outcome)
                    };
                    let mut direct = String::new();
                    s.write_json(&mut direct);
                    assert_eq!(direct, serde::json::to_string(&s.to_value()));
                }
            }
        }
    }

    #[test]
    fn serve_stats_serialize_to_json() {
        let s = stats(PointKernelKind::MagicIterate, Outcome::Complete);
        let json = serde::json::to_string(&s);
        assert!(json.contains("\"kernel\":\"magic\""));
        assert!(json.contains("\"cache\":\"miss\""));
        assert!(json.contains("\"complete\":true"));
    }
}
