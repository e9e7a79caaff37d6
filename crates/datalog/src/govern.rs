//! Resource governance for fixpoint evaluation: budgets, cooperative
//! cancellation, and typed truncation outcomes.
//!
//! The paper predicts evaluation cost from rule shape (rank bounds for the
//! bounded classes, stability for the one-directional ones), but class-C and
//! general class-D formulas can still blow up combinatorially on real data.
//! This module is the contract every governed evaluator honors — the engine
//! and what is built on it; the reference oracle in [`crate::eval`] is
//! deliberately outside it and knows only a round cap:
//!
//! * an [`EvalBudget`] declares the caller's ceilings — wall-clock deadline,
//!   derived-tuple ceiling, iteration cap — plus an optional
//!   [`CancelToken`];
//! * [`EvalBudget::start`] produces a [`Governor`], the runtime companion
//!   that evaluators poll cooperatively (cheaply inside kernels via
//!   [`Governor::poll`], fully once per iteration via [`Governor::check`]);
//! * a governed run that stops early reports a typed
//!   [`Outcome::Truncated`]\([`TruncationReason`]\) instead of silently
//!   capping, and its output is always a *sound under-approximation* of the
//!   fixpoint: evaluators only ever stop deriving, never derive junk.
//!
//! `Truncated` is a conservative claim: it means the run stopped before the
//! fixpoint was *proven* reached. In boundary cases (e.g. the iteration cap
//! fires when the pending delta would have derived nothing new) a truncated
//! run's output can already equal the fixpoint; deciding that exactly would
//! cost the very iteration the budget forbids.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, clonable cancellation flag polled cooperatively by evaluation
/// loops and kernel inner loops. Cancelling is sticky and thread-safe; the
/// CLI wires Ctrl-C to one of these.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from any thread (and from a
    /// signal handler: this is a single atomic store).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a governed run stopped before a proven fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The caller's iteration cap was reached with work still pending.
    IterationCap,
    /// The wall-clock deadline passed.
    Deadline,
    /// The derived-tuple ceiling was reached.
    TupleCeiling,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl TruncationReason {
    /// What stopped the run, as replies, events and metric labels name it:
    /// `"iteration cap"`, `"deadline"`, …
    pub fn label(self) -> &'static str {
        match self {
            TruncationReason::IterationCap => "iteration cap",
            TruncationReason::Deadline => "deadline",
            TruncationReason::TupleCeiling => "tuple ceiling",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl serde::Serialize for TruncationReason {
    fn to_value(&self) -> serde::Value {
        serde::Value::StaticStr(self.label())
    }
}

/// How a governed run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The fixpoint was reached (or a proven rank bound made further work
    /// provably unproductive). The output is the complete consequence set.
    Complete,
    /// The run stopped early for the given reason. The output is a sound
    /// under-approximation of the fixpoint (a subset, possibly proper).
    Truncated(TruncationReason),
}

impl Outcome {
    /// True for [`Outcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete)
    }

    /// The truncation reason, if the run was truncated.
    pub fn truncation(&self) -> Option<TruncationReason> {
        match self {
            Outcome::Complete => None,
            Outcome::Truncated(r) => Some(*r),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Complete => f.write_str("complete"),
            Outcome::Truncated(r) => write!(f, "truncated ({r})"),
        }
    }
}

impl serde::Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("complete", serde::Value::Bool(self.is_complete())),
            ("truncation", self.truncation().to_value()),
        ])
    }
}

/// Resource ceilings for one evaluation run. `None` everywhere (the
/// default) runs unbounded to fixpoint.
#[derive(Debug, Clone, Default)]
pub struct EvalBudget {
    /// Wall-clock budget, measured from [`EvalBudget::start`].
    pub timeout: Option<Duration>,
    /// Ceiling on total tuples derived into IDB relations.
    pub max_tuples: Option<usize>,
    /// Iteration cap, counting the seeding round: a cap of `k` executes the
    /// seeding round plus at most `k - 1` recursive rounds. (All evaluators
    /// in the workspace share this definition; see `eval::semi_naive` and
    /// `recurs-engine`.)
    pub max_iterations: Option<usize>,
    /// Cooperative cancellation token.
    pub cancel: Option<CancelToken>,
}

impl EvalBudget {
    /// The unbounded budget (identical to `EvalBudget::default()`).
    pub fn unlimited() -> EvalBudget {
        EvalBudget::default()
    }

    /// Budget with only an iteration cap — the legacy `max_iterations`
    /// argument of the fixpoint evaluators.
    pub fn iteration_cap(cap: Option<usize>) -> EvalBudget {
        EvalBudget {
            max_iterations: cap,
            ..EvalBudget::default()
        }
    }

    /// Builder: wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> EvalBudget {
        self.timeout = Some(timeout);
        self
    }

    /// Builder: derived-tuple ceiling.
    pub fn with_max_tuples(mut self, n: usize) -> EvalBudget {
        self.max_tuples = Some(n);
        self
    }

    /// Builder: iteration cap (counting the seeding round).
    pub fn with_max_iterations(mut self, n: usize) -> EvalBudget {
        self.max_iterations = Some(n);
        self
    }

    /// Builder: cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> EvalBudget {
        self.cancel = Some(token);
        self
    }

    /// Starts the budget clock, producing the [`Governor`] the evaluation
    /// loop polls.
    pub fn start(&self) -> Governor {
        Governor {
            deadline: self.timeout.map(|t| Instant::now() + t),
            max_tuples: self.max_tuples,
            max_iterations: self.max_iterations,
            cancel: self.cancel.clone(),
        }
    }
}

/// A point-in-time progress report for [`Governor::check`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    /// Iterations executed so far (counting the seeding round).
    pub iterations: usize,
    /// Total tuples derived so far.
    pub tuples: usize,
}

/// The runtime companion of an [`EvalBudget`]: carries the armed deadline
/// and ceilings, and answers "should this run stop, and why".
///
/// `Governor` is `Sync`: a cancel token flipped on another thread (Ctrl-C, a
/// draining server) is seen at the next poll.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    max_tuples: Option<usize>,
    max_iterations: Option<usize>,
    cancel: Option<CancelToken>,
}

impl Governor {
    /// Cheap poll for the asynchronous trip conditions — cancellation and
    /// the wall-clock deadline. Suitable for kernel inner loops (call every
    /// few hundred rows, not every row).
    pub fn poll(&self) -> Option<TruncationReason> {
        self.tripped(Instant::now)
    }

    /// Cancellation, then the deadline against the clock `now` reads (only
    /// when a deadline is armed).
    fn tripped(&self, now: impl FnOnce() -> Instant) -> Option<TruncationReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Some(TruncationReason::Cancelled)
        } else if self.deadline.is_some_and(|deadline| now() >= deadline) {
            Some(TruncationReason::Deadline)
        } else {
            None
        }
    }

    /// Full per-iteration check: the asynchronous conditions of
    /// [`poll`](Governor::poll), the deadline against `now` — the clock read
    /// the caller's iteration already made — plus every progress-based
    /// ceiling. Called at the top of each fixpoint iteration, before the
    /// iteration's work.
    pub fn check(&self, progress: Progress, now: Instant) -> Option<TruncationReason> {
        if let Some(reason) = self.tripped(|| now) {
            return Some(reason);
        }
        if let Some(cap) = self.max_iterations {
            if progress.iterations >= cap {
                return Some(TruncationReason::IterationCap);
            }
        }
        if let Some(ceiling) = self.max_tuples {
            if progress.tuples >= ceiling {
                return Some(TruncationReason::TupleCeiling);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let gov = EvalBudget::unlimited().start();
        assert_eq!(gov.poll(), None);
        assert_eq!(
            gov.check(
                Progress {
                    iterations: 1_000_000,
                    tuples: usize::MAX,
                },
                Instant::now()
            ),
            None
        );
    }

    #[test]
    fn cancel_token_trips_poll_and_check() {
        let token = CancelToken::new();
        let gov = EvalBudget::unlimited().with_cancel(token.clone()).start();
        assert_eq!(gov.poll(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(gov.poll(), Some(TruncationReason::Cancelled));
        assert_eq!(
            gov.check(Progress::default(), Instant::now()),
            Some(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let gov = EvalBudget::unlimited().with_timeout(Duration::ZERO).start();
        assert_eq!(gov.poll(), Some(TruncationReason::Deadline));
    }

    #[test]
    fn check_reads_the_deadline_against_the_callers_clock() {
        let hour = Duration::from_secs(3_600);
        let gov = EvalBudget::unlimited().with_timeout(hour).start();
        let now = Instant::now();
        assert_eq!(gov.check(Progress::default(), now), None);
        assert_eq!(
            gov.check(Progress::default(), now + 2 * hour),
            Some(TruncationReason::Deadline)
        );
    }

    #[test]
    fn ceilings_trip_in_documented_order() {
        let gov = EvalBudget::unlimited()
            .with_max_iterations(3)
            .with_max_tuples(100)
            .start();
        // Nothing exceeded.
        assert_eq!(
            gov.check(
                Progress {
                    iterations: 2,
                    tuples: 50,
                },
                Instant::now()
            ),
            None
        );
        // Iteration cap wins over later ceilings.
        assert_eq!(
            gov.check(
                Progress {
                    iterations: 3,
                    tuples: 100,
                },
                Instant::now()
            ),
            Some(TruncationReason::IterationCap)
        );
        assert_eq!(
            gov.check(
                Progress {
                    iterations: 0,
                    tuples: 100,
                },
                Instant::now()
            ),
            Some(TruncationReason::TupleCeiling)
        );
    }

    #[test]
    fn outcome_helpers_and_display() {
        assert!(Outcome::Complete.is_complete());
        assert_eq!(Outcome::Complete.truncation(), None);
        let t = Outcome::Truncated(TruncationReason::Deadline);
        assert!(!t.is_complete());
        assert_eq!(t.truncation(), Some(TruncationReason::Deadline));
        assert_eq!(t.to_string(), "truncated (deadline)");
        assert_eq!(
            Outcome::Truncated(TruncationReason::TupleCeiling).to_string(),
            "truncated (tuple ceiling)"
        );
    }

    #[test]
    fn iteration_cap_budget_matches_legacy_argument() {
        let b = EvalBudget::iteration_cap(Some(4));
        assert_eq!(b.max_iterations, Some(4));
        assert!(b.timeout.is_none() && b.cancel.is_none());
        assert_eq!(EvalBudget::iteration_cap(None).max_iterations, None);
    }
}
