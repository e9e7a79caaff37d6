//! Correctness of saturation and patch maintenance on hand-built examples:
//! a view holding exactly the supported heads, insertion/deletion parity
//! with from-scratch evaluation, self-support cycles, the rounds an
//! insertion runs, the `ivm.patch` event taxonomy, and the one decision the
//! class makes for a whole saturation and a patch — the round cap.

mod common;

use common::{apply_plain, plain};
use recurs_datalog::database::Database;
use recurs_datalog::eval::{eval_body, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{tuple_u64, Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Term;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::{saturate_linear, EngineConfig, EngineDb, IndexedRelation};
use recurs_ivm::{maintenance_label, EdbDelta, FactOp, Materialization};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::{CaptureRecorder, Obs};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tc() -> LinearRecursion {
    lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
}

fn chain_db(n: u64) -> Database {
    let mut db = Database::new();
    let pairs: Vec<(u64, u64)> = (1..n).map(|i| (i, i + 1)).collect();
    db.insert_relation("A", Relation::from_pairs(pairs.iter().copied()));
    db.insert_relation("E", Relation::from_pairs(pairs.iter().copied()));
    db
}

/// From-scratch fixpoint of the recursive predicate over `edb`.
fn oracle_relation(lr: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    let program = lr.to_program();
    for rule in &program.rules {
        for atom in &rule.body {
            if atom.predicate != lr.predicate {
                db.declare(atom.predicate, atom.arity()).unwrap();
            }
        }
    }
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &program, None).unwrap();
    db.get(lr.predicate).unwrap().clone()
}

/// Independent support oracle: forward-enumerates every rule's body
/// bindings over the *saturated* database and collects the heads they
/// derive.
fn oracle_support(lr: &LinearRecursion, saturated: &Database) -> HashSet<Tuple> {
    let mut support = HashSet::new();
    for rule in std::iter::once(&lr.recursive_rule).chain(lr.exit_rules.iter()) {
        let bindings = eval_body(saturated, &rule.body, &HashMap::new()).unwrap();
        let cols: Vec<usize> = rule
            .head
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => bindings.column_of(*v).unwrap(),
                Term::Const(_) => panic!("constant heads not used in these tests"),
            })
            .collect();
        for row in bindings.rel.iter() {
            support.insert(cols.iter().map(|&c| row[c]).collect());
        }
    }
    support
}

/// The view holds exactly the heads some instantiation over its own store
/// derives; returns that support for spot checks.
fn assert_supported(mat: &Materialization, lr: &LinearRecursion) -> HashSet<Tuple> {
    let support = oracle_support(lr, &plain(mat.database()));
    for t in mat.relation().iter() {
        assert!(support.contains(t), "{t:?} is stored without support");
    }
    assert_eq!(
        mat.relation().len(),
        support.len(),
        "materialized relation and support differ"
    );
    support
}

#[test]
fn saturation_holds_the_supported_heads_on_tc() {
    let lr = tc();
    let mat = Materialization::saturate(&lr, &chain_db(6), &EvalBudget::unlimited(), &Obs::noop())
        .unwrap();
    assert_eq!(
        mat.relation().to_relation(),
        oracle_relation(&lr, &chain_db(6))
    );
    let support = assert_supported(&mat, &lr);
    // Spot-check: P(1,2) is supported by the E edge, P(1,3) through
    // A(1,2), P(2,3).
    assert!(support.contains(&tuple_u64([1, 2])));
    assert!(support.contains(&tuple_u64([1, 3])));
    assert_eq!(mat.round_cap(), None); // TC (A5) has no rank bound
}

#[test]
fn insert_patch_matches_from_scratch() {
    let lr = tc();
    let mut db = chain_db(5);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let a = Symbol::intern("A");
    let e = Symbol::intern("E");
    let ops = vec![
        FactOp::Insert(e, tuple_u64([5, 6])),
        FactOp::Insert(a, tuple_u64([5, 6])),
    ];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert!(report.truncation.is_none());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
    assert_supported(&mat, &lr);
    let patch = report.idb.unwrap();
    assert!(patch.inserted.contains(&tuple_u64([1, 6])));
    assert!(patch.deleted.is_empty());
}

#[test]
fn delete_patch_matches_from_scratch() {
    let lr = tc();
    let mut db = chain_db(6);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let e = Symbol::intern("E");
    let ops = vec![FactOp::Delete(e, tuple_u64([5, 6]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert!(report.truncation.is_none());
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
    assert_supported(&mat, &lr);
    let patch = report.idb.unwrap();
    // Deleting the last exit edge kills P(x,6) for every x: the A-chain
    // still reaches 6, but nothing grounds it.
    assert!(patch.deleted.contains(&tuple_u64([1, 6])));
    assert!(patch.inserted.is_empty());
    assert!(report.stats.overdeleted >= 5);
}

#[test]
fn interior_delete_rederives_surviving_tuples() {
    // Chain 1→…→6 plus a shortcut exit edge E(2,4). Deleting A(2,3)
    // overdeletes P(2,y) and P(1,y) for y ≥ 4 (their chains pass the
    // deleted edge), but P(2,4) keeps its support through E(2,4) and then
    // P(1,4) comes back through the forward pass (A(1,2) ∧ P(2,4)).
    let lr = tc();
    let mut db = chain_db(6);
    db.get_mut("E").unwrap().insert(tuple_u64([2, 4]));
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let a = Symbol::intern("A");
    let ops = vec![FactOp::Delete(a, tuple_u64([2, 3]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
    assert_supported(&mat, &lr);
    assert!(mat.relation().contains(&tuple_u64([2, 4])));
    assert!(mat.relation().contains(&tuple_u64([1, 4])));
    assert!(!mat.relation().contains(&tuple_u64([2, 5])));
    assert!(report.stats.overdeleted > report.stats.rederived);
    assert!(report.stats.rederived >= 2);
}

#[test]
fn pure_self_support_dies_with_its_ground_support() {
    // Class A2: P(x,y) :- A(x), B(y), P(x,y). The recursive rule supports
    // every tuple it derives *with itself*; deleting the exit support must
    // kill the tuple even though the self-loop still derives it from itself.
    let lr = lr("P(x, y) :- A(x), B(y), P(x, y).\nP(x, y) :- E(x, y).");
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_tuples(1, [tuple_u64([1])]));
    db.insert_relation("B", Relation::from_tuples(1, [tuple_u64([2])]));
    db.insert_relation("E", Relation::from_pairs([(1, 2), (7, 8)]));
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    // A2: rank 0, and two rounds of slack.
    assert_eq!(mat.round_cap(), Some(2));
    // P(1,2): an exit derivation and self-support. P(7,8): exit only.
    let support = assert_supported(&mat, &lr);
    assert!(support.contains(&tuple_u64([1, 2])));
    assert!(support.contains(&tuple_u64([7, 8])));
    let e = Symbol::intern("E");
    let ops = vec![FactOp::Delete(e, tuple_u64([1, 2]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert!(report.truncation.is_none(), "bounded path must not trip");
    apply_plain(&delta, &mut db);
    assert!(!mat.relation().contains(&tuple_u64([1, 2])));
    assert!(mat.relation().contains(&tuple_u64([7, 8])));
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
    assert_supported(&mat, &lr);
}

#[test]
fn duplicate_inserts_and_absent_deletes_are_noop_patches() {
    let lr = tc();
    let db = chain_db(4);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let before = mat.relation().to_relation();
    let a = Symbol::intern("A");
    let ops = vec![
        FactOp::Insert(a, tuple_u64([1, 2])), // already present
        FactOp::Delete(a, tuple_u64([9, 9])), // absent
    ];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    assert!(delta.is_empty());
    let report = mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    assert!(report.idb.unwrap().is_empty());
    assert_eq!(mat.relation().to_relation(), before);
}

#[test]
fn updating_the_derived_predicate_is_rejected() {
    let lr = tc();
    let mut mat =
        Materialization::saturate(&lr, &chain_db(3), &EvalBudget::unlimited(), &Obs::noop())
            .unwrap();
    let p = Symbol::intern("P");
    let mut delta = EdbDelta::default();
    let stored = IndexedRelation::from_relation(&Relation::from_pairs([(1, 9)]));
    delta.inserted.insert(p, stored);
    assert!(mat.apply(&delta, &EvalBudget::unlimited()).is_err());
    // Saturating over a database that already stores P is likewise refused.
    let mut db = chain_db(3);
    db.insert_relation("P", Relation::from_pairs([(1, 9)]));
    assert!(Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).is_err());
}

#[test]
fn truncated_patch_falls_back_to_cold_saturation() {
    let lr = tc();
    let mut db = chain_db(64);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let e = Symbol::intern("E");
    // A tight iteration cap trips the insertion propagation loop (the
    // chain tip needs ~63 rounds to close).
    let ops = vec![FactOp::Insert(e, tuple_u64([64, 65]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let budget = EvalBudget::unlimited().with_max_iterations(2);
    let report = mat.apply(&delta, &budget).unwrap();
    assert!(report.truncation.is_some());
    assert!(
        report.idb.is_none(),
        "fallback reports an unknown IDB delta"
    );
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
    assert_supported(&mat, &lr);
}

/// An insertion stores the heads its mark rounds reach and propagates from
/// them: a recorder that keeps detail sees one `engine.iteration` per
/// changed predicate (its mark round) and one per propagation round, and no
/// recount round beside them.
#[test]
fn an_insertion_patch_runs_no_recount_round() {
    let capture = Arc::new(CaptureRecorder::new());
    let lr = tc();
    let mut db = chain_db(5);
    let unlimited = EvalBudget::unlimited();
    let mut mat =
        Materialization::saturate(&lr, &db, &unlimited, &Obs::new(capture.clone())).unwrap();
    let before = capture.events_of("engine.iteration").len();
    let ops = vec![
        FactOp::Insert(Symbol::intern("E"), tuple_u64([5, 6])),
        FactOp::Insert(Symbol::intern("A"), tuple_u64([5, 6])),
    ];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let report = mat.apply(&delta, &unlimited).unwrap();
    assert!(report.truncation.is_none());
    let rounds = capture.events_of("engine.iteration").len() - before;
    assert_eq!(
        rounds as u64,
        delta.inserted.len() as u64 + report.stats.rounds,
        "two mark rounds and the propagation's"
    );
    apply_plain(&delta, &mut db);
    assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
}

#[test]
fn patch_events_pin_the_taxonomy() {
    let capture = Arc::new(CaptureRecorder::new());
    let metrics = Arc::new(Aggregator::default());
    let obs = Obs::fanout(vec![capture.clone(), metrics.clone()]);
    let lr = tc();
    let db = chain_db(5);
    let mut mat = Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &obs).unwrap();
    let sat = capture.events_of("ivm.saturate");
    assert_eq!(sat.len(), 1);
    assert_eq!(sat[0].text("path"), Some("generic-dred"));
    assert!(sat[0].uint("tuples").is_some());

    let e = Symbol::intern("E");
    let ops = vec![
        FactOp::Insert(e, tuple_u64([5, 6])),
        FactOp::Delete(e, tuple_u64([1, 2])),
    ];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    mat.apply(&delta, &EvalBudget::unlimited()).unwrap();
    let events = capture.events_of("ivm.patch");
    assert_eq!(events.len(), 1);
    let ev = &events[0];
    assert_eq!(ev.text("path"), Some("generic-dred"));
    for field in [
        "edb_inserted",
        "edb_deleted",
        "idb_inserted",
        "idb_deleted",
        "overdeleted",
        "rederived",
        "rounds",
    ] {
        assert!(ev.uint(field).is_some(), "missing field {field}");
    }
    assert_eq!(ev.uint("edb_inserted"), Some(1));
    assert_eq!(ev.uint("edb_deleted"), Some(1));
    assert_eq!(
        metrics.counter_value("recurs_ivm_patches_total", &[("path", "generic-dred")]),
        1
    );
}

/// Outside the planner the class decides one thing, the round cap, the same
/// way for a saturation and for its maintenance. One formula per class the
/// classifier returns: the engine reports `unroll(r)` and the view
/// `bounded-recount` exactly when `rank_bound()` is `Some(r)`, `generic` and
/// `generic-dred` otherwise. Both reach `semi_naive`'s fixpoint, and a
/// ranked run stops after the seeding round plus at most `rank` rounds —
/// without the oracle's trailing fixpoint-detection round once the rank is
/// reached.
#[test]
fn the_class_decides_only_the_round_cap() {
    let rows: &[(&str, &str, Option<u64>)] = &[
        ("A1", "P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).", None),
        ("A2", "P(x, y) :- A(x), B(y), P(x, y).", Some(0)),
        (
            "A3",
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).",
            None,
        ),
        ("A4", "P(x, y, z) :- P(y, z, x).", Some(2)),
        ("A5", "P(x, y) :- A(x, z), P(z, y).", None),
        (
            "B",
            "P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).",
            Some(2),
        ),
        ("C", "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).", None),
        ("D", "P(x, y) :- B(y), C(x, y1), P(x1, y1).", Some(2)),
    ];
    let mut detection_skipped = 0;
    for &(class, src, rank) in rows {
        let lr = lr(src);
        let c = recurs_core::Classification::of(&lr.recursive_rule);
        assert_eq!(c.class.label(), class, "{src}");
        assert_eq!(c.rank_bound(), rank, "{class}");
        let db = recurs_workload::random_database(&lr, 12, 4, 7);

        let mut store = EngineDb::from(&db);
        let sat = saturate_linear(&mut store, &lr, &EngineConfig::default()).unwrap();
        let mat =
            Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
        let (kernel, path) = match rank {
            Some(r) => (format!("unroll({r})"), "bounded-recount"),
            None => ("generic".to_string(), "generic-dred"),
        };
        assert_eq!(
            recurs_engine::kernel_label(sat.stats.round_cap),
            kernel,
            "{class}"
        );
        assert_eq!(maintenance_label(mat.round_cap(), None), path, "{class}");

        let mut oracle = db.clone();
        let oracle_stats = semi_naive(&mut oracle, &lr.to_program(), None).unwrap();
        let fixpoint = oracle.get(lr.predicate).unwrap();
        assert!(
            sat.outcome.is_complete(),
            "{class}: a rank stop is not truncation"
        );
        assert_eq!(
            &store.get(lr.predicate).unwrap().to_relation(),
            fixpoint,
            "{class}"
        );
        assert_eq!(&mat.relation().to_relation(), fixpoint, "{class}");
        let cap = rank.map_or(usize::MAX, |r| r as usize + 1);
        assert_eq!(
            sat.stats.iteration_count(),
            oracle_stats.iterations.min(cap),
            "{class}"
        );
        if sat.stats.iteration_count() < oracle_stats.iterations {
            detection_skipped += 1;
        }
    }
    assert!(detection_skipped > 0, "no ranked row reached its rank");
}
