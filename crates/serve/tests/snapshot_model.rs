//! The snapshot chain against a model that is just plain facts: after random
//! signed update groups the store holds exactly the model's tuples and
//! carries the model's from-scratch fingerprint; a snapshot somebody still
//! holds keeps answering as the oracle at *its* version however many updates
//! land after it; index republishes racing with updates lose neither; and a
//! miss, once its query form's indexes travel with the snapshot, does no
//! index work on a base relation.

use proptest::prelude::*;
use recurs_core::plan::plan_query;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::fingerprint;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Value};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::{EngineConfig, Evaluation};
use recurs_obs::{CaptureRecorder, Obs};
use recurs_serve::{FactOp, QueryService, ServeConfig, Snapshot, SnapshotStore, SnapshotUpdate};
use recurs_workload::{all_query_atoms, random_database};
use std::sync::{Arc, Barrier};

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tc() -> LinearRecursion {
    lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
}

/// One raw operation: (insert?, relation index, two values). `N`, the third
/// relation, is in no initial database: a batch creates it.
type RawOp = (u8, usize, u64, u64);
const RELATIONS: [&str; 3] = ["A", "E", "N"];

fn fact_op(&(insert, rel, a, b): &RawOp) -> FactOp {
    let pred = Symbol::intern(RELATIONS[rel]);
    let tuple: Tuple = [a, b].map(Value::from_u64).into();
    match insert {
        1 => FactOp::Insert(pred, tuple),
        _ => FactOp::Delete(pred, tuple),
    }
}

/// The model: applies the group in order. A relation the group created and
/// emptied again never existed (its net delta is empty).
fn apply_to_model(model: &mut Database, group: &[FactOp]) {
    let known: Vec<Symbol> = model.names().collect();
    for op in group {
        match op {
            FactOp::Insert(pred, t) => model.insert(*pred, t.clone()).unwrap(),
            FactOp::Delete(pred, t) => model.remove(*pred, t).unwrap(),
        };
    }
    let mut kept = Database::new();
    for (name, rel) in model.iter() {
        if known.contains(&name) || !rel.is_empty() {
            kept.insert_relation(name, rel.clone());
        }
    }
    *model = kept;
}

/// The snapshot holds the model's relations, tuple for tuple, under the
/// fingerprint a from-scratch hash of the model gives.
fn assert_is_model(snapshot: &Snapshot, model: &Database) -> Result<(), TestCaseError> {
    let stored: Vec<Symbol> = snapshot.store().iter().map(|(name, _)| name).collect();
    prop_assert_eq!(stored, model.names().collect::<Vec<_>>());
    for (name, rel) in model.iter() {
        let held = snapshot.store().get(name).map(|r| r.to_relation());
        prop_assert_eq!(held.as_ref(), Some(rel), "relation {}", name);
    }
    prop_assert_eq!(snapshot.fingerprint(), fingerprint::of_database(model));
    Ok(())
}

/// `chains` disjoint chains of `n` vertices (the first is 1 → … → n), as
/// both `A` and `E`.
fn forest_db(chains: u64, n: u64) -> Database {
    let edges = (0..chains).flat_map(|c| (1..n).map(move |i| (c * n + i, c * n + i + 1)));
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs(edges.clone()));
    db.insert_relation("E", Relation::from_pairs(edges));
    db
}

fn chain_db(n: u64) -> Database {
    forest_db(1, n)
}

fn oracle(lr: &LinearRecursion, db: &Database, query: &Atom) -> Relation {
    let mut db = db.clone();
    semi_naive(&mut db, &lr.to_program(), None).expect("oracle saturates");
    answer_query(&db, query).expect("oracle answers")
}

/// Answers `query` at `at`, a snapshot `snapshots` published — the way the
/// service's kernels do on a miss: the query's plan run by the executor on
/// the snapshot's store, any index it lacks built once by republishing the
/// snapshot (if `at` is still current).
fn answer_at(
    lr: &LinearRecursion,
    snapshots: &SnapshotStore,
    at: &Snapshot,
    query: &Atom,
) -> Evaluation {
    let plan = plan_query(lr, query).expect("the query plans");
    let republish = |missing: &[_]| {
        let indexed = snapshots.with_indexes(missing);
        (indexed.version() == at.version()).then(|| indexed.store().clone())
    };
    let config = EngineConfig::default();
    recurs_engine::evaluate(&plan, query, at.store(), &config, republish).expect("it answers")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_content_and_fingerprint_follow_the_model(
        groups in prop::collection::vec(
            prop::collection::vec((0u8..2, 0usize..3, 1u64..5, 1u64..5), 1..6),
            1..12,
        ),
    ) {
        let mut model = chain_db(4);
        let snapshots = SnapshotStore::new((&model).into());
        assert_is_model(&snapshots.load(), &model)?;
        let mut version = 0u64;
        for group in &groups {
            let ops: Vec<FactOp> = group.iter().map(fact_op).collect();
            let before = model.clone();
            apply_to_model(&mut model, &ops);
            match snapshots.apply_delta(&ops).unwrap() {
                SnapshotUpdate::Unchanged(_) => prop_assert_eq!(&model, &before),
                SnapshotUpdate::Installed { snapshot, .. } => {
                    prop_assert_ne!(&model, &before);
                    version += 1;
                    prop_assert_eq!(snapshot.version(), version);
                }
            }
            assert_is_model(&snapshots.load(), &model)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // s3 (class A1) and s4 (class A3): every adornment, so every magic form
    // and the full-saturation fallback read the held snapshot.
    #[test]
    fn a_held_snapshot_answers_as_its_version_after_fifty_later_updates(
        db_seed in 0u64..10_000,
        held_at in 0usize..4,
        toggles in prop::collection::vec((0usize..4, 1u64..4, 1u64..4, 1u64..4), 54..55),
        s4 in 0u8..2,
    ) {
        let lr = match s4 {
            0 => lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).\nP(x,y,z) :- E(x,y,z)."),
            _ => lr("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).\n\
                        P(x1,x2,x3) :- E(x1,x2,x3)."),
        };
        let mut model = random_database(&lr, 6, 3, db_seed);
        let snapshots = SnapshotStore::new((&model).into());
        let mut held: Option<(Arc<Snapshot>, Database)> = None;
        for (i, &(rel, a, b, c)) in toggles.iter().enumerate() {
            if i == held_at {
                held = Some((snapshots.load(), model.clone()));
            }
            let pred = Symbol::intern(["A", "B", "C", "E"][rel]);
            let tuple: Tuple = match rel {
                3 => [a, b, c].map(Value::from_u64).into(),
                _ => [a, b].map(Value::from_u64).into(),
            };
            // A toggle always changes the facts: every step is a version.
            let op = match model.get(pred).is_some_and(|r| r.contains(&tuple)) {
                true => FactOp::Delete(pred, tuple),
                false => FactOp::Insert(pred, tuple),
            };
            apply_to_model(&mut model, std::slice::from_ref(&op));
            let update = snapshots.apply_delta(&[op]).unwrap();
            prop_assert!(matches!(update, SnapshotUpdate::Installed { .. }));
        }
        let (held, model_then) = held.expect("held_at is within the toggles");
        prop_assert!(snapshots.load().version().get() >= held.version().get() + 50);
        assert_is_model(&held, &model_then)?;
        for query in all_query_atoms(&lr, &[1, 2, 3]) {
            let point = answer_at(&lr, &snapshots, &held, &query);
            prop_assert!(point.saturation.outcome.is_complete());
            prop_assert_eq!(
                point.answers.to_relation(), oracle(&lr, &model_then, &query),
                "version {} diverged on {}", held.version(), query
            );
        }
        assert_is_model(&snapshots.load(), &model)?;
    }
}

#[test]
fn index_republishes_racing_with_updates_lose_neither() {
    // Kernels against the snapshot chain directly: a service would build its
    // view on the first update and stop missing. Every round starts from an
    // unindexed store, so each reader's first query is the first miss of its
    // form and has the current snapshot republished with new indexes — from
    // four threads at once, while the writer installs versions. The barrier
    // releases all five together, and 2 100 edges per relation make an index
    // build and an update's relation copy long enough to overlap.
    const UPDATES: u64 = 12;
    let tc = tc();
    for round in 0..20u64 {
        let mut model = forest_db(300, 8);
        let snapshots = SnapshotStore::new((&model).into());
        let start = Barrier::new(5);
        let installed = std::thread::scope(|scope| {
            for text in ["P(1, y)", "P(x, 8)", "P(2, 7)", "P(x, y)"] {
                let (tc, snapshots, start) = (&tc, &snapshots, &start);
                scope.spawn(move || {
                    let query = parse_atom(text).unwrap();
                    start.wait();
                    for _ in 0..4 {
                        let point = answer_at(tc, snapshots, &snapshots.load(), &query);
                        assert!(point.saturation.outcome.is_complete());
                    }
                });
            }
            start.wait();
            let mut installed = 0;
            for k in 0..UPDATES {
                let tip = [8, 10_000 + round + k].map(Value::from_u64);
                let ops = ["A", "E"].map(|r| FactOp::Insert(Symbol::intern(r), tip.into()));
                apply_to_model(&mut model, &ops);
                let update = snapshots.apply_delta(&ops).unwrap();
                installed += u64::from(matches!(update, SnapshotUpdate::Installed { .. }));
            }
            installed
        });
        let last = snapshots.load();
        assert_eq!(installed, UPDATES);
        assert_eq!(last.version(), installed, "a republish overwrote an update");
        assert_is_model(&last, &model).unwrap();
        // And no update overwrote the republished indexes.
        assert!(last.store().index_count() > 0);
    }
}

#[test]
fn a_repeated_miss_reports_its_own_index_work_and_none_on_base_relations() {
    let capture = Arc::new(CaptureRecorder::new());
    let config = ServeConfig {
        cache_capacity: 0,
        obs: Obs::new(capture.clone()),
        ..ServeConfig::default()
    };
    let service = QueryService::new(tc(), chain_db(30), config);
    let query = parse_atom("P(3, y)").unwrap();
    let base_work = || service.snapshot().store().index_count();
    assert_eq!(base_work(), 0, "nothing is indexed before the first miss");
    service.query(&query).unwrap();
    let after_first = base_work();
    assert!(after_first > 0, "the first miss has the snapshot indexed");
    service.query(&query).unwrap();
    assert_eq!(
        base_work(),
        after_first,
        "the second miss indexes no base relation"
    );
    // Both runs report the same index work — their private magic / answer
    // relations' — though the second finds the base relations indexed.
    let runs = capture.events_of("engine.complete");
    assert_eq!(runs.len(), 2);
    for field in ["index_builds", "index_updates"] {
        assert!(runs[0].uint(field).is_some());
        assert_eq!(runs[0].uint(field), runs[1].uint(field), "{field}");
    }
}
