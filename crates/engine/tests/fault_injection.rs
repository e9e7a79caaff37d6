//! Fault-injection suite (requires `--features fault-inject`): every
//! injected slowdown or mid-run trip scenario must
//! yield either a correct complete result or a well-formed `Truncated`
//! under-approximation — never a process abort, never an over-approximation.
//!
//! The `fault` module's plan is process-global, so every test here arms it
//! through `fault::arm`, which serializes the tests on a gate.

#![cfg(feature = "fault-inject")]

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::{EvalBudget, Outcome, TruncationReason};
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::Program;
use recurs_engine::fault::{arm, FaultPlan};
use recurs_engine::{run_program, EngineConfig};
use recurs_obs::{CaptureRecorder, Obs};
use recurs_workload::{random_database, random_linear_recursion, RuleConfig};
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

fn budgeted(budget: EvalBudget) -> EngineConfig {
    EngineConfig {
        budget,
        ..EngineConfig::default()
    }
}

/// Every tuple of `db`'s `P` is in `full`, and fewer than all of them are.
fn assert_proper_sound_subset(db: &Database, full: &Relation) {
    for t in db.get("P").unwrap().iter() {
        assert!(
            full.contains(t),
            "stop derived a tuple outside the fixpoint"
        );
    }
    assert!(db.get("P").unwrap().len() < full.len());
}

#[test]
fn slow_rounds_trip_the_deadline_with_a_sound_subset() {
    let _g = arm(FaultPlan {
        slowdown: Some(Duration::from_millis(30)),
        ..FaultPlan::default()
    });
    let mut oracle = tc_db(40);
    semi_naive(&mut oracle, &tc_program(), None).unwrap();

    let mut db = tc_db(40);
    let capture = Arc::new(CaptureRecorder::new());
    let config = EngineConfig {
        budget: EvalBudget::unlimited().with_timeout(Duration::from_millis(1)),
        obs: Obs::new(capture.clone()),
    };
    let sat = run_program(&mut db, &tc_program(), &config).unwrap();
    assert_eq!(sat.outcome, Outcome::Truncated(TruncationReason::Deadline));
    let slowdowns = capture.events_of("fault.injected");
    assert!(
        !slowdowns.is_empty(),
        "armed slowdowns must surface as fault.injected events"
    );
    assert!(slowdowns
        .iter()
        .all(|e| e.text("kind") == Some("slowdown") && e.text("site") == Some("round")));
    assert_proper_sound_subset(&db, oracle.get("P").unwrap());
}

#[test]
fn a_tripped_round_stops_as_cancelled_with_a_sound_subset() {
    let _g = arm(FaultPlan {
        trip_at_round: Some(3),
        ..FaultPlan::default()
    });
    let mut oracle = tc_db(40);
    semi_naive(&mut oracle, &tc_program(), None).unwrap();

    let mut db = tc_db(40);
    let sat = run_program(&mut db, &tc_program(), &EngineConfig::default()).unwrap();
    assert_eq!(sat.outcome, Outcome::Truncated(TruncationReason::Cancelled));
    assert_eq!(
        sat.stats.iteration_count(),
        3,
        "rounds 0..3 ran, round 3 tripped"
    );
    assert_proper_sound_subset(&db, oracle.get("P").unwrap());

    // The trip is one-shot: the retry runs to the fixpoint.
    let mut retry = tc_db(40);
    let sat = run_program(&mut retry, &tc_program(), &EngineConfig::default()).unwrap();
    assert!(sat.outcome.is_complete());
    assert_eq!(retry.get("P").unwrap(), oracle.get("P").unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized fault matrix: any single injected fault, on any class of
    /// workload, yields either the complete correct fixpoint or a typed
    /// `Truncated` under-approximation — never junk tuples, never an abort.
    #[test]
    fn injected_faults_never_corrupt_results(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        fault_kind in 0usize..2,
        trip_round in 0u64..4,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, 25, 6, db_seed);
        let program = lr.to_program();
        let mut oracle_db = edb.clone();
        semi_naive(&mut oracle_db, &program, None).expect("oracle saturates");
        let full = oracle_db.get("P").expect("IDB is materialized");

        let (plan, budget) = match fault_kind {
            0 => (
                FaultPlan {
                    trip_at_round: Some(trip_round),
                    ..FaultPlan::default()
                },
                EvalBudget::unlimited(),
            ),
            _ => (
                FaultPlan {
                    slowdown: Some(Duration::from_millis(5)),
                    ..FaultPlan::default()
                },
                EvalBudget::unlimited().with_timeout(Duration::from_millis(1)),
            ),
        };

        let _g = arm(plan);
        let mut db = edb.clone();
        let sat = run_program(&mut db, &program, &budgeted(budget))
            .expect("injected faults never error");
        let got = db.get("P").expect("IDB is materialized");
        for t in got.iter() {
            prop_assert!(full.contains(t), "fault run derived a tuple outside the fixpoint");
        }
        if sat.outcome.is_complete() {
            prop_assert_eq!(full, got, "run claimed Complete but missed tuples");
        }
        if got.len() < full.len() {
            prop_assert!(
                sat.outcome.truncation().is_some(),
                "proper under-approximation not reported as Truncated"
            );
        }
    }
}
