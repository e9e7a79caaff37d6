//! Fault-injection suite for the serving layer (requires
//! `--features fault-inject`, which forwards to the engine's fault plan): a
//! round slowed past a request's deadline must yield a flagged-truncated
//! subset of the true answers, and that partial answer must never be cached
//! as complete.

#![cfg(feature = "fault-inject")]

use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::{EvalBudget, Outcome, TruncationReason};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_engine::fault::{quiesce, FaultPlan};
use recurs_obs::{CaptureRecorder, Obs, TraceId};
use recurs_serve::{CacheOutcome, QueryService, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

fn tc() -> LinearRecursion {
    recurs_datalog::validate::validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .expect("TC validates")
}

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db
}

/// Asks `query` under a 5 ms deadline while every round sleeps 30 ms, then
/// again unbudgeted with the fault disarmed. The first reply must be a
/// deadline-truncated subset; the second must be a cache miss (nothing
/// partial was stored) that is complete and exact.
fn slowed_query_is_truncated_and_never_cached(query: &str) {
    let gate = quiesce();
    let capture = Arc::new(CaptureRecorder::new());
    let service = QueryService::new(
        tc(),
        tc_db(12),
        ServeConfig {
            obs: Obs::new(capture.clone()),
            ..ServeConfig::default()
        },
    );
    let q = parse_atom(query).expect("query parses");
    let mut oracle = tc_db(12);
    semi_naive(&mut oracle, &tc().to_program(), None).expect("oracle saturates");
    let want = answer_query(&oracle, &q).expect("oracle answers");

    gate.rearm(FaultPlan {
        slowdown: Some(Duration::from_millis(30)),
        ..FaultPlan::default()
    });
    let deadline = EvalBudget::unlimited().with_timeout(Duration::from_millis(5));
    let slowed = service
        .query_traced(&q, &deadline, None, TraceId::mint())
        .expect("a tripped deadline is a reply, not an error");
    assert_eq!(
        slowed.outcome,
        Outcome::Truncated(TruncationReason::Deadline)
    );
    assert!(slowed.answers.len() < want.len());
    for t in slowed.answers.iter() {
        assert!(want.contains(t), "truncated reply over-approximated");
    }
    // The injected fault travelled through the serving layer's recorder, so
    // an operator can correlate it with the query it slowed.
    let injected = capture.events_of("fault.injected");
    assert!(!injected.is_empty());
    assert!(injected.iter().all(|e| e.text("kind") == Some("slowdown")));
    assert_eq!(service.stats().cache.insertions, 0);

    gate.rearm(FaultPlan::default());
    let clean = service.query(&q).expect("repeat query succeeds");
    assert_eq!(clean.stats.cache, CacheOutcome::Miss);
    assert!(clean.outcome.is_complete());
    assert_eq!(clean.answers.to_relation(), want);
    assert_eq!(capture.events_of("serve.query").len(), 2);
}

#[test]
fn slowed_saturation_under_a_deadline_is_truncated_and_never_cached() {
    // All-free query → FullSaturation path → the class-selected engine kernel.
    slowed_query_is_truncated_and_never_cached("P(x, y)");
}

#[test]
fn slowed_magic_iteration_under_a_deadline_is_truncated_and_never_cached() {
    // Bound query → MagicIterate path, the same driver under a magic program.
    slowed_query_is_truncated_and_never_cached("P(1, y)");
}
