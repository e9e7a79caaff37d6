//! Count-exactness of the mark → recount → propagate maintenance path,
//! against an independent instantiation-count oracle, on the shapes that
//! make "each new instantiation exactly once" hard: a rule reading one EDB
//! predicate at two body positions (same generation over a single `Par`),
//! and signed batches that touch two predicates — or both positions — at
//! once. After every batch the relation must equal the from-scratch
//! fixpoint and `count(t)` the oracle's tally for every `t`.

use proptest::prelude::*;
mod common;

use common::apply_plain;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{eval_body, semi_naive};
use recurs_datalog::govern::{EvalBudget, TruncationReason};
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{tuple_u64, Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Term;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::EngineDb;
use recurs_ivm::{EdbDelta, FactOp, Materialization};
use recurs_obs::Obs;
use std::collections::HashMap;

/// Same generation over one parent relation, and a rule whose two `Par`
/// atoms share a variable with each other rather than only with `P`.
const FORMULAS: [&str; 2] = [
    "P(x, y) :- Par(x, u), P(u, v), Par(y, v).\nP(x, y) :- Sib(x, y).",
    "P(x, y) :- Par(x, u), Par(u, w), P(w, y).\nP(x, y) :- Sib(x, y).\nP(x, x) :- Par(x, x).",
];
const RELS: [&str; 2] = ["Par", "Sib"];

/// `(insert = 1, relation index, a, b)` over a four-value domain, so
/// duplicate inserts, absent deletes and cancelling pairs occur constantly.
type RawOp = (u64, usize, u64, u64);

fn arb_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u64..=1, 0..RELS.len(), 1u64..=4, 1u64..=4), len)
}

fn fact_ops(batch: &[RawOp]) -> Vec<FactOp> {
    batch
        .iter()
        .map(|&(insert, rel, a, b)| {
            let (pred, t) = (Symbol::intern(RELS[rel]), tuple_u64([a, b]));
            if insert == 1 {
                FactOp::Insert(pred, t)
            } else {
                FactOp::Delete(pred, t)
            }
        })
        .collect()
}

fn initial_db(batch: &[RawOp]) -> Database {
    let mut db = Database::new();
    for name in RELS {
        db.insert_relation(name, Relation::new(2));
    }
    for &(_, rel, a, b) in batch {
        db.insert(RELS[rel], tuple_u64([a, b])).unwrap();
    }
    db
}

/// The oracle: the from-scratch fixpoint, and per head tuple the number of
/// ground rule instantiations over the saturated database.
fn oracle(lr: &LinearRecursion, edb: &Database) -> (Relation, HashMap<Tuple, u64>) {
    let mut db = edb.clone();
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &lr.to_program(), None).unwrap();
    let mut counts: HashMap<Tuple, u64> = HashMap::new();
    for rule in std::iter::once(&lr.recursive_rule).chain(lr.exit_rules.iter()) {
        let bindings = eval_body(&db, &rule.body, &HashMap::new()).unwrap();
        for row in bindings.rel.iter() {
            let head: Tuple = rule
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => row[bindings.column_of(*v).unwrap()],
                    Term::Const(c) => *c,
                })
                .collect();
            *counts.entry(head).or_insert(0) += 1;
        }
    }
    (db.get(lr.predicate).unwrap().clone(), counts)
}

fn assert_exact(
    mat: &Materialization,
    lr: &LinearRecursion,
    db: &Database,
) -> Result<(), TestCaseError> {
    let (relation, counts) = oracle(lr, db);
    prop_assert_eq!(mat.relation().to_relation(), relation);
    for (t, n) in &counts {
        prop_assert_eq!(mat.count(t), *n, "count of {:?}", t);
    }
    prop_assert_eq!(mat.relation().len(), counts.len());
    for (name, rel) in db.iter() {
        let stored = mat.database().get(name).map(|r| r.to_relation());
        prop_assert_eq!(
            stored.as_ref(),
            Some(rel),
            "database() holds the EDB: {}",
            name
        );
    }
    Ok(())
}

fn run(
    src: &str,
    initial: &[RawOp],
    steps: &[Vec<RawOp>],
    budget: &EvalBudget,
    mut before_patch: impl FnMut(),
) -> Result<(), TestCaseError> {
    let lr = validate_with_generic_exit(&parse_program(src).unwrap()).unwrap();
    let mut db = initial_db(initial);
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    assert_exact(&mat, &lr, &db)?;
    for step in steps {
        let delta = EdbDelta::normalize(&fact_ops(step), &EngineDb::from(&db)).unwrap();
        before_patch();
        mat.apply(&delta, budget).unwrap();
        apply_plain(&delta, &mut db);
        assert_exact(&mat, &lr, &db)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counts_stay_exact_under_signed_batches(
        formula in 0..FORMULAS.len(),
        initial in arb_ops(0..10),
        steps in prop::collection::vec(arb_ops(1..5), 1..6),
    ) {
        #[cfg(feature = "fault-inject")]
        let _quiet = recurs_engine::fault::quiesce();
        run(FORMULAS[formula], &initial, &steps, &EvalBudget::unlimited(), || {})?;
    }

    // A tuple ceiling of 0–2 stops a patch at its first round, or once a
    // deletion's closure or a propagation has stored one or two tuples: the
    // cold fallback must land on the same exact state.
    #[test]
    fn a_ceiling_tripped_mid_patch_falls_back_exact(
        formula in 0..FORMULAS.len(),
        initial in arb_ops(0..10),
        steps in prop::collection::vec(arb_ops(1..5), 1..5),
        ceiling in 0usize..3,
    ) {
        #[cfg(feature = "fault-inject")]
        let _quiet = recurs_engine::fault::quiesce();
        let budget = EvalBudget::unlimited().with_max_tuples(ceiling);
        run(FORMULAS[formula], &initial, &steps, &budget, || {})?;
    }
}

// The armed one-shot trip lands on the first driver round a patch runs —
// round 0 is the mark round of whichever side of the batch goes first —
// or, from round 1 on, inside the closure / propagation that follows.
#[cfg(feature = "fault-inject")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn a_tripped_mark_round_falls_back_exact(
        formula in 0..FORMULAS.len(),
        initial in arb_ops(0..10),
        steps in prop::collection::vec(arb_ops(1..5), 1..5),
        trip_round in 0u64..2,
    ) {
        let gate = recurs_engine::fault::quiesce();
        run(FORMULAS[formula], &initial, &steps, &EvalBudget::unlimited(), || {
            gate.rearm(recurs_engine::fault::FaultPlan {
                trip_at_round: Some(trip_round),
                ..Default::default()
            });
        })?;
    }
}

#[test]
fn a_tuple_ceiling_trips_the_propagation_of_a_tip_edge() {
    // A new exit edge at the tip of a 30-node chain enters one tuple, and
    // propagation walks it back one edge a round, storing one tuple each:
    // a ceiling of five stops the walk after five rounds, and the cold
    // fallback lands on the exact state.
    let lr = validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap();
    let mut db = Database::new();
    let pairs: Vec<(u64, u64)> = (1..30).map(|i| (i, i + 1)).collect();
    db.insert_relation("A", Relation::from_pairs(pairs.iter().copied()));
    db.insert_relation("E", Relation::from_pairs(pairs.iter().copied()));
    #[cfg(feature = "fault-inject")]
    let _quiet = recurs_engine::fault::quiesce();
    let mut mat =
        Materialization::saturate(&lr, &db, &EvalBudget::unlimited(), &Obs::noop()).unwrap();
    let ops = [FactOp::Insert(Symbol::intern("E"), tuple_u64([30, 31]))];
    let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
    let budget = EvalBudget::unlimited().with_max_tuples(5);
    let report = mat.apply(&delta, &budget).unwrap();
    assert_eq!(report.truncation, Some(TruncationReason::TupleCeiling));
    assert!(report.idb.is_none());
    assert_eq!(report.stats.rounds, 5, "five propagation rounds ran");
    apply_plain(&delta, &mut db);
    let (relation, counts) = oracle(&lr, &db);
    assert_eq!(mat.relation().to_relation(), relation);
    assert_eq!(mat.count(&tuple_u64([1, 31])), counts[&tuple_u64([1, 31])]);
}
