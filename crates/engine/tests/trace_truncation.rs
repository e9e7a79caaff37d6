//! One test per [`EvalBudget`] ceiling: when a budget stops the engine,
//! the emitted `engine.truncated` trace event (and the labelled
//! `recurs_engine_truncations_total` counter) must name the *exact*
//! truncation cause — a deadline stop must never be reported as a tuple
//! ceiling, and vice versa. Operators triage truncated runs from these
//! events, so cause fidelity is a contract, not a nicety.

use recurs_datalog::database::Database;
use recurs_datalog::govern::{EvalBudget, Outcome, TruncationReason};
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::Program;
use recurs_engine::{run_program, EngineConfig};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::{CaptureRecorder, Obs};
use std::sync::Arc;
use std::time::Duration;

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db
}

fn tc_program() -> Program {
    parse_program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).").unwrap()
}

/// Runs the indexed engine on a 40-node chain under `budget` and asserts
/// the run truncates with `reason`, that exactly one `engine.truncated`
/// event is emitted, and that its `reason` field matches the
/// [`TruncationReason`] display string. Events are captured; the counter is
/// read from an aggregator beside the capture.
fn assert_trace_names_cause(budget: EvalBudget, reason: TruncationReason) {
    let capture = Arc::new(CaptureRecorder::new());
    let metrics = Arc::new(Aggregator::default());
    let config = EngineConfig {
        budget,
        obs: Obs::fanout(vec![capture.clone(), metrics.clone()]),
    };
    let mut db = tc_db(40);
    let sat = run_program(&mut db, &tc_program(), &config).unwrap();
    assert_eq!(sat.outcome, Outcome::Truncated(reason));

    let events = capture.events_of("engine.truncated");
    assert_eq!(events.len(), 1, "expected exactly one truncation event");
    let want = reason.to_string();
    assert_eq!(events[0].text("reason"), Some(want.as_str()));
    assert!(
        capture.events_of("engine.complete").is_empty(),
        "a truncated run must not also claim completion"
    );
    assert_eq!(
        metrics.counter_value("recurs_engine_truncations_total", &[("reason", &want)]),
        1,
        "truncation counter must carry the same reason label"
    );
}

#[test]
fn deadline_trace_names_deadline() {
    assert_trace_names_cause(
        EvalBudget::unlimited().with_timeout(Duration::ZERO),
        TruncationReason::Deadline,
    );
}

#[test]
fn tuple_ceiling_trace_names_tuple_ceiling() {
    assert_trace_names_cause(
        EvalBudget::unlimited().with_max_tuples(5),
        TruncationReason::TupleCeiling,
    );
}

#[test]
fn delta_ceiling_trace_names_delta_ceiling() {
    assert_trace_names_cause(
        EvalBudget::unlimited().with_max_delta(1),
        TruncationReason::DeltaCeiling,
    );
}

#[test]
fn iteration_cap_trace_names_iteration_cap() {
    assert_trace_names_cause(
        EvalBudget::iteration_cap(Some(1)),
        TruncationReason::IterationCap,
    );
}
