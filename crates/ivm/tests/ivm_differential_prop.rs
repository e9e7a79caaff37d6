//! Differential property tests: random mixed insert/delete streams over a
//! representative formula of every paper class (A1–A5, B, C, D), asserting
//! after every step that the incrementally patched materialization is
//! tuple-for-tuple identical to a from-scratch saturation of the updated
//! database — and that `why` over the patched view explains every fixpoint
//! tuple exactly as a fresh saturation of that database does. Streams draw
//! from a tiny domain so duplicate inserts and absent deletes (the no-op
//! paths) occur constantly.

use proptest::prelude::*;
mod common;

use common::apply_plain;
use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Value;
use recurs_engine::EngineDb;
use recurs_ivm::{
    explain_fact, render_tree, verify_tree, EdbDelta, FactOp, Materialization, WhyOutcome,
    DEFAULT_WHY_DEPTH,
};
use recurs_obs::Obs;

/// One EDB mutation drawn by proptest: the relation is an index into the
/// class's schema, and the first `arity` values of `vals` form the tuple.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    insert: bool,
    rel: usize,
    vals: [u64; 4],
}

fn arb_op(nrels: usize) -> impl Strategy<Value = RawOp> {
    (0u64..=1, 0..nrels, (1u64..=4, 1u64..=4, 1u64..=4, 1u64..=4)).prop_map(
        |(insert, rel, (a, b, c, d))| RawOp {
            insert: insert == 1,
            rel,
            vals: [a, b, c, d],
        },
    )
}

fn arb_stream(nrels: usize) -> impl Strategy<Value = (Vec<RawOp>, Vec<Vec<RawOp>>)> {
    (
        prop::collection::vec(arb_op(nrels), 0..10),
        prop::collection::vec(prop::collection::vec(arb_op(nrels), 1..4), 1..5),
    )
}

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tuple_of(op: &RawOp, arity: usize) -> Tuple {
    op.vals[..arity]
        .iter()
        .map(|&v| Value::from_u64(v))
        .collect()
}

fn fact_of(op: &RawOp, rels: &[(&str, usize)]) -> FactOp {
    let (name, arity) = rels[op.rel];
    let t = tuple_of(op, arity);
    if op.insert {
        FactOp::Insert(Symbol::intern(name), t)
    } else {
        FactOp::Delete(Symbol::intern(name), t)
    }
}

/// From-scratch fixpoint of the recursive predicate over `edb`.
fn oracle_relation(lr: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &lr.to_program(), None).unwrap();
    db.get(lr.predicate).unwrap().clone()
}

/// A `why` outcome as text: the rendered tree, or the verdict.
fn rendered(outcome: &WhyOutcome) -> String {
    match outcome {
        WhyOutcome::Derived(tree) => render_tree(tree),
        other => format!("{other:?}"),
    }
}

/// `why` over the view against `why` over a fresh saturation of `db`, for
/// every fixpoint tuple at depth bounds 0, 1 and the default: the same
/// rendered tree or verdict, and every tree a valid derivation from `db`.
fn view_trees_match_fresh(
    lr: &LinearRecursion,
    mat: &Materialization,
    db: &Database,
    fixpoint: &Relation,
) -> Result<(), TestCaseError> {
    let edb = EngineDb::from(db);
    let budget = EvalBudget::unlimited();
    for t in fixpoint.iter() {
        for depth in [0, 1, DEFAULT_WHY_DEPTH] {
            let view = mat.explain(t, depth, &budget).unwrap();
            let fresh = explain_fact(lr, &edb, t, depth, &budget).unwrap();
            prop_assert_eq!(
                rendered(&view),
                rendered(&fresh),
                "{:?} at depth {}",
                t,
                depth
            );
            if let WhyOutcome::Derived(tree) = &view {
                if let Err(defect) = verify_tree(lr, &edb, tree) {
                    return Err(TestCaseError::fail(format!("{t:?}: {defect}")));
                }
            }
        }
    }
    Ok(())
}

/// Drive one random stream: saturate the initial database, then patch the
/// materialization step by step while replaying the same net deltas onto a
/// shadow database that a from-scratch oracle saturates after every step.
fn run_differential(
    src: &str,
    rels: &[(&str, usize)],
    initial: &[RawOp],
    steps: &[Vec<RawOp>],
) -> Result<(), TestCaseError> {
    // The fault plan is process-global: keep the tripped-patch drill at the
    // bottom of this file from landing its one-shot trip in this stream.
    #[cfg(feature = "fault-inject")]
    let _quiet = recurs_engine::fault::quiesce();
    let lr = lr(src);
    let mut db = Database::new();
    for &(name, arity) in rels {
        db.insert_relation(name, Relation::new(arity));
    }
    for op in initial {
        let (name, arity) = rels[op.rel];
        db.get_mut(name).unwrap().insert(tuple_of(op, arity));
    }
    let budget = EvalBudget::unlimited();
    let mut mat = Materialization::saturate(&lr, &db, &budget, &Obs::noop()).unwrap();
    prop_assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));

    for step in steps {
        let ops: Vec<FactOp> = step.iter().map(|op| fact_of(op, rels)).collect();
        let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
        let report = mat.apply(&delta, &budget).unwrap();
        if delta.is_empty() {
            // No-op groups must not move the materialization at all.
            prop_assert!(report.idb.as_ref().is_some_and(|p| p.is_empty()));
        }
        apply_plain(&delta, &mut db);
        let fixpoint = oracle_relation(&lr, &db);
        prop_assert_eq!(
            mat.relation().to_relation(),
            fixpoint.clone(),
            "patched != from-scratch after {:?}",
            step
        );
        view_trees_match_fresh(&lr, &mat, &db, &fixpoint)?;
    }
    Ok(())
}

macro_rules! differential_class {
    ($test:ident, $src:expr, $rels:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn $test(stream in arb_stream($rels.len())) {
                let (initial, steps) = stream;
                run_differential($src, &$rels, &initial, &steps)?;
            }
        }
    };
}

// Example 3 — class A1 (stable).
differential_class!(
    class_a1_patches_match_from_scratch,
    "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).\nP(x, y, z) :- E(x, y, z).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 3)]
);

// Class A2 — pure self-support: every derived tuple supports itself.
differential_class!(
    class_a2_patches_match_from_scratch,
    "P(x, y) :- A(x), B(y), P(x, y).\nP(x, y) :- E(x, y).",
    [("A", 1), ("B", 1), ("E", 2)]
);

// Example 4 — class A3 (stable after 3 unfoldings).
differential_class!(
    class_a3_patches_match_from_scratch,
    "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).\nP(x1, x2, x3) :- E(x1, x2, x3).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 3)]
);

// Example 5 — class A4 (permutational, rank 2): no EDB atom in the
// recursive rule, so only the exit relation ever changes.
differential_class!(
    class_a4_patches_match_from_scratch,
    "P(x, y, z) :- P(y, z, x).\nP(x, y, z) :- E(x, y, z).",
    [("E", 3)]
);

// Transitive closure — class A5 (one-directional).
differential_class!(
    class_a5_patches_match_from_scratch,
    "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
    [("A", 2), ("E", 2)]
);

// Example 8 — class B (bounded, rank 2).
differential_class!(
    class_b_patches_match_from_scratch,
    "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).\nP(x, y, z, u) :- E(x, y, z, u).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 4)]
);

// Example 9 — class C (unbounded cycle, generic DRed path).
differential_class!(
    class_c_patches_match_from_scratch,
    "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\nP(x, y, z) :- E(x, y, z).",
    [("A", 2), ("B", 2), ("E", 3)]
);

// Example 10 — class D (acyclic, rank 2).
differential_class!(
    class_d_patches_match_from_scratch,
    "P(x, y) :- B(y), C(x, y1), P(x1, y1).\nP(x, y) :- E(x, y).",
    [("B", 1), ("C", 2), ("E", 2)]
);

// Under fault injection the patch path may trip mid-maintenance and fall
// back to cold saturation; either way the result must equal the oracle.
#[cfg(feature = "fault-inject")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn tripped_patches_still_match_from_scratch(
        stream in arb_stream(2),
        trip_round in 1u64..4,
    ) {
        let (initial, steps) = stream;
        let gate = recurs_engine::fault::quiesce();
        let rels = [("A", 2), ("E", 2)];
        let src = "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).";
        let lr = lr(src);
        let mut db = Database::new();
        for &(name, arity) in &rels {
            db.insert_relation(name, Relation::new(arity));
        }
        for op in &initial {
            let (name, arity) = rels[op.rel];
            db.get_mut(name).unwrap().insert(tuple_of(op, arity));
        }
        let budget = EvalBudget::unlimited();
        let mut mat = Materialization::saturate(&lr, &db, &budget, &Obs::noop()).unwrap();
        for step in &steps {
            let ops: Vec<FactOp> = step.iter().map(|op| fact_of(op, &rels)).collect();
            let delta = EdbDelta::normalize(&ops, &EngineDb::from(&db)).unwrap();
            // Arm a one-shot fault before every patch; whether it fires
            // (cold fallback) or not (stream too short), parity must hold.
            gate.rearm(recurs_engine::fault::FaultPlan {
                trip_at_round: Some(trip_round),
                ..Default::default()
            });
            mat.apply(&delta, &budget).unwrap();
            gate.rearm(Default::default());
            apply_plain(&delta, &mut db);
            prop_assert_eq!(mat.relation().to_relation(), oracle_relation(&lr, &db));
        }
    }
}
