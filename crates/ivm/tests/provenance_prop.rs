//! Differential property tests for derivation provenance: over random
//! small EDBs for a representative formula of each paper class (A1–A5, B,
//! D), `explain_fact` must return a derivation tree for **exactly** the
//! tuples a from-scratch oracle derives, and every returned tree must
//! verify structurally — all leaves EDB facts, every internal node a valid
//! ground rule instance under one simultaneous substitution.

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Value;
use recurs_engine::EngineDb;
use recurs_ivm::{explain_fact, render_tree, verify_tree, WhyOutcome, DEFAULT_WHY_DEPTH};

/// One EDB insertion drawn by proptest (provenance is read-only, so the
/// stream has no deletes — coverage comes from database shape).
#[derive(Debug, Clone, Copy)]
struct RawFact {
    rel: usize,
    vals: [u64; 4],
}

fn arb_fact(nrels: usize) -> impl Strategy<Value = RawFact> {
    (0..nrels, (1u64..=4, 1u64..=4, 1u64..=4, 1u64..=4)).prop_map(|(rel, (a, b, c, d))| RawFact {
        rel,
        vals: [a, b, c, d],
    })
}

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tuple_of(vals: &[u64; 4], arity: usize) -> Tuple {
    vals[..arity].iter().map(|&v| Value::from_u64(v)).collect()
}

/// From-scratch fixpoint of the recursive predicate over `edb`.
fn oracle_relation(lr: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &lr.to_program(), None).unwrap();
    db.get(lr.predicate).unwrap().clone()
}

/// Every value combination of the recursive predicate's arity over the
/// tiny test domain — so NotDerived is exercised on exactly the complement
/// of the fixpoint.
fn full_domain(dim: usize) -> Vec<Tuple> {
    let mut out: Vec<Vec<u64>> = vec![Vec::new()];
    for _ in 0..dim {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (1u64..=4).map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out.iter()
        .map(|vals| vals.iter().map(|&v| Value::from_u64(v)).collect())
        .collect()
}

fn run_provenance_differential(
    src: &str,
    rels: &[(&str, usize)],
    facts: &[RawFact],
) -> Result<(), TestCaseError> {
    let lr = lr(src);
    let mut db = Database::new();
    for &(name, arity) in rels {
        db.insert_relation(name, Relation::new(arity));
    }
    for f in facts {
        let (name, arity) = rels[f.rel];
        db.get_mut(name).unwrap().insert(tuple_of(&f.vals, arity));
    }
    let budget = EvalBudget::unlimited();
    let oracle = oracle_relation(&lr, &db);
    let store = EngineDb::from(&db);

    for fact in full_domain(lr.dimension()) {
        let outcome = explain_fact(&lr, &store, &fact, DEFAULT_WHY_DEPTH, &budget).unwrap();
        if oracle.contains(&fact) {
            let WhyOutcome::Derived(tree) = outcome else {
                return Err(TestCaseError::fail(format!(
                    "oracle derives {fact:?} but explain_fact said {outcome:?}"
                )));
            };
            prop_assert_eq!(&tree.tuple, &fact);
            if let Err(defect) = verify_tree(&lr, &store, &tree) {
                return Err(TestCaseError::fail(format!(
                    "tree for {fact:?} failed verification: {defect}"
                )));
            }
            // The witness choice is deterministic: asking again over the
            // same facts (here a store whose relations were inserted in a
            // different order) rebuilds the same tree.
            let mut reloaded = db.clone();
            for (name, rel) in db.iter() {
                reloaded.insert_relation(
                    name,
                    Relation::from_tuples(rel.arity(), rel.iter_sorted().into_iter().cloned()),
                );
            }
            let again = explain_fact(
                &lr,
                &EngineDb::from(&reloaded),
                &fact,
                DEFAULT_WHY_DEPTH,
                &budget,
            );
            let Ok(WhyOutcome::Derived(again)) = again else {
                return Err(TestCaseError::fail(format!(
                    "second explain of {fact:?} failed"
                )));
            };
            prop_assert_eq!(render_tree(&tree), render_tree(&again));
        } else {
            prop_assert!(
                matches!(outcome, WhyOutcome::NotDerived),
                "oracle does not derive {:?} but explain_fact said {:?}",
                fact,
                outcome
            );
        }
    }
    Ok(())
}

macro_rules! provenance_class {
    ($test:ident, $src:expr, $rels:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn $test(facts in prop::collection::vec(arb_fact($rels.len()), 0..14)) {
                run_provenance_differential($src, &$rels, &facts)?;
            }
        }
    };
}

// Example 3 — class A1 (stable).
provenance_class!(
    class_a1_trees_verify_and_match_oracle,
    "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).\nP(x, y, z) :- E(x, y, z).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 3)]
);

// Class A2 — pure self-support: the recursive rule re-derives only what
// it already has, so every tree must bottom out in an exit rule.
provenance_class!(
    class_a2_trees_verify_and_match_oracle,
    "P(x, y) :- A(x), B(y), P(x, y).\nP(x, y) :- E(x, y).",
    [("A", 1), ("B", 1), ("E", 2)]
);

// Example 4 — class A3 (stable after 3 unfoldings).
provenance_class!(
    class_a3_trees_verify_and_match_oracle,
    "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).\nP(x1, x2, x3) :- E(x1, x2, x3).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 3)]
);

// Example 5 — class A4 (permutational, rank 2): derivations rotate the
// exit tuple, a pure cycle with no EDB atoms in the recursive rule.
provenance_class!(
    class_a4_trees_verify_and_match_oracle,
    "P(x, y, z) :- P(y, z, x).\nP(x, y, z) :- E(x, y, z).",
    [("E", 3)]
);

// Transitive closure — class A5 (one-directional); cyclic data gives
// unbounded forward derivations that backward reconstruction must cut.
provenance_class!(
    class_a5_trees_verify_and_match_oracle,
    "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
    [("A", 2), ("E", 2)]
);

// Example 8 — class B (bounded, rank 2).
provenance_class!(
    class_b_trees_verify_and_match_oracle,
    "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).\nP(x, y, z, u) :- E(x, y, z, u).",
    [("A", 2), ("B", 2), ("C", 2), ("E", 4)]
);

// Example 10 — class D (acyclic, rank 2).
provenance_class!(
    class_d_trees_verify_and_match_oracle,
    "P(x, y) :- B(y), C(x, y1), P(x1, y1).\nP(x, y) :- E(x, y).",
    [("B", 1), ("C", 2), ("E", 2)]
);
