//! Fault-injection drills: an armed round trip (the engine's one fault plan,
//! fired by the round driver) stops a maintenance loop mid-patch, and the
//! cold-saturation fallback must still land the materialization on the
//! exact from-scratch state.

#![cfg(feature = "fault-inject")]

mod common;

use common::apply_plain;
use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::{EvalBudget, TruncationReason};
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::fault::{quiesce, FaultPlan};
use recurs_engine::EngineDb;
use recurs_ivm::{EdbDelta, FactOp, MaintenancePath, Materialization};
use recurs_obs::Obs;

fn tc() -> LinearRecursion {
    let program =
        parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").expect("tc parses");
    validate_with_generic_exit(&program).expect("tc is linear")
}

fn chain_db(n: u64) -> Database {
    let mut db = Database::new();
    let pairs: Vec<(u64, u64)> = (1..n).map(|i| (i, i + 1)).collect();
    db.insert_relation("A", Relation::from_pairs(pairs.iter().copied()));
    db.insert_relation("E", Relation::from_pairs(pairs.iter().copied()));
    db
}

/// A one-shot trip: the first driver call to reach `round` stops there.
fn round_trip(round: u64) -> FaultPlan {
    FaultPlan {
        trip_at_round: Some(round),
        ..FaultPlan::default()
    }
}

/// A cold fallback re-saturates, and the view it lands on carries its
/// readers' index on every column again.
fn assert_indexed_per_column(mat: &Materialization) {
    for col in 0..mat.relation().arity() {
        assert!(
            mat.relation().has_index(&[col]),
            "column {col} lost its index"
        );
    }
}

fn oracle(lr: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &lr.to_program(), None).expect("oracle saturates");
    db.get(lr.predicate).expect("oracle relation").clone()
}

#[test]
fn tripped_insert_propagation_falls_back_cold_and_stays_exact() {
    let gate = quiesce();
    let lr = tc();
    let mut db = chain_db(48);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let e = Symbol::intern("E");
    let ops = vec![FactOp::Insert(e, tuple_u64([48, 49]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    gate.rearm(round_trip(3));
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert_eq!(report.path, MaintenancePath::ColdFallback);
    assert_indexed_per_column(&mat);
    assert!(report.truncation.is_some());
    assert!(report.idb.is_none());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle(&lr, &db));
}

#[test]
fn tripped_overdeletion_falls_back_cold_and_stays_exact() {
    let gate = quiesce();
    let lr = tc();
    let mut db = chain_db(48);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let a = Symbol::intern("A");
    // Deleting an interior edge drives a multi-round overdeletion closure.
    let ops = vec![FactOp::Delete(a, tuple_u64([2, 3]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    gate.rearm(round_trip(1));
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert_eq!(report.path, MaintenancePath::ColdFallback);
    assert_indexed_per_column(&mat);
    assert!(report.truncation.is_some());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle(&lr, &db));
}

/// A graph whose overdeletion closure is shallow but whose rederivation
/// runs in a long chain of waves: `x1..xm` each point straight at `s` (so
/// deleting `s → t` marks every `P(xi, y)` after one closure round), and
/// `xm → … → x1 → b → y` is the only surviving support, which revives
/// `P(x1, y)` in the backward recount and then one `P(xi, y)` per wave.
fn fan_db(m: u64) -> Database {
    let (s, t, y, b) = (100, 101, 102, 103);
    let mut edges = vec![(s, t), (t, y), (b, y)];
    for x in 1..=m {
        edges.push((x, s));
        edges.push((x, if x == 1 { b } else { x - 1 }));
    }
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs(edges.iter().copied()));
    db.insert_relation("E", Relation::from_pairs(edges.iter().copied()));
    db
}

/// The delta deleting `fan_db`'s `s → t` edge from both relations.
fn delete_s_to_t(db: &Database) -> EdbDelta {
    let ops = vec![
        FactOp::Delete(Symbol::intern("A"), tuple_u64([100, 101])),
        FactOp::Delete(Symbol::intern("E"), tuple_u64([100, 101])),
    ];
    EdbDelta::normalize(&ops, &EngineDb::from(db)).unwrap()
}

#[test]
fn tripped_rederive_wave_falls_back_cold_and_stays_exact() {
    let gate = quiesce();
    let lr = tc();
    let mut db = fan_db(8);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let delta = delete_s_to_t(&db);

    // Untripped, on a twin: the patch is exact, and its waves run deeper
    // than its closure (2 rounds) — so round 4 exists only in the waves.
    let mut twin =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let clean = twin.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert_ne!(clean.path, MaintenancePath::ColdFallback);
    assert!(clean.stats.rederived > 0);
    assert!(clean.stats.rounds >= 2 + 6, "closure 2 rounds + waves ≥ 6");

    gate.rearm(round_trip(4));
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert_eq!(report.path, MaintenancePath::ColdFallback);
    assert_indexed_per_column(&mat);
    assert!(report.truncation.is_some());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle(&lr, &db));
    assert_eq!(mat.relation().to_relation(), twin.relation().to_relation());
}

#[test]
fn budget_ceilings_reach_the_rederive_waves() {
    // Same shape; `max_iterations` counts rounds per driver call, so a cap
    // of 4 passes the 2-round closure and trips in the waves.
    let _quiet = quiesce();
    let lr = tc();
    let mut db = fan_db(8);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let delta = delete_s_to_t(&db);
    let budget = EvalBudget::unlimited().with_max_iterations(4);
    let report = mat.apply(&delta, &budget).unwrap();
    assert_eq!(report.path, MaintenancePath::ColdFallback);
    assert_indexed_per_column(&mat);
    assert_eq!(report.truncation, Some(TruncationReason::IterationCap));
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle(&lr, &db));
}

#[test]
fn disarmed_hook_leaves_patches_alone() {
    let _gate = quiesce();
    let lr = tc();
    let mut db = chain_db(16);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let e = Symbol::intern("E");
    let ops = vec![FactOp::Insert(e, tuple_u64([16, 17]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert_ne!(report.path, MaintenancePath::ColdFallback);
    assert!(report.truncation.is_none());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle(&lr, &db));
}
