//! Pseudo recursion (section 6 of the paper): bounded formulas are not
//! really recursive — they are equivalent to a *finite* union of
//! non-recursive rules, like a view that can be fully expanded.
//!
//! This example takes the paper's three bounded shapes (s8, s10, s5), prints
//! the expanded non-recursive programs (the paper's s8a′/s8b′), and shows
//! that the bounded plan answers queries with **zero fixpoint iterations**
//! while producing exactly the fixpoint's answers.
//!
//! Run with: `cargo run --example pseudo_recursion`

use recurs_core::classify::Classification;
use recurs_core::plan::StrategyKind;
use recurs_core::transform::to_nonrecursive;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::tuple_u64;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, LinearRecursion, Relation};
use recurs_engine::oracle::Planned;

fn show(name: &str, lr: &LinearRecursion, db: &Database, query: &str) {
    let c = Classification::of(&lr.recursive_rule);
    println!("== {name} ==");
    println!("formula : {}", lr.recursive_rule);
    println!(
        "class {}, bounded: {}, rank bound: {:?}",
        c.class,
        c.is_bounded(),
        c.rank_bound()
    );
    let expanded = to_nonrecursive(lr).expect("bounded");
    println!(
        "equivalent non-recursive program ({} rules):",
        expanded.rules.len()
    );
    for rule in &expanded.rules {
        println!("  {rule}");
    }
    let q = parse_atom(query).unwrap();
    let planned = Planned::new(lr, db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
    let run = planned.run().unwrap();
    // The seeding round evaluates every level; no recursive round follows.
    assert_eq!(run.saturation.stats.iteration_count(), 1);
    println!("query {q} → {} answers (no fixpoint)", run.answers.len());
    recurs_engine::oracle::assert_equivalent(lr, db, &q);
    println!("fixpoint oracle agrees\n");
}

fn main() {
    // s8 — the bounded-cycle example, rank 2.
    let s8 = validate_with_generic_exit(
        &parse_program(
            "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).\n\
             P(x, y, z, u) :- E(x, y, z, u).",
        )
        .unwrap(),
    )
    .unwrap();
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4), (2, 2)]));
    db.insert_relation("B", Relation::from_pairs([(2, 9), (4, 8)]));
    db.insert_relation("C", Relation::from_pairs([(7, 2), (6, 4)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(4, [tuple_u64([3, 2, 7, 2]), tuple_u64([1, 4, 6, 4])]),
    );
    show("s8: bounded cycle (Example 8)", &s8, &db, "P(x, y, z, u)");

    // s10 — no non-trivial cycle, rank 2.
    let s10 = validate_with_generic_exit(
        &parse_program("P(x, y) :- B(y), C(x, y1), P(x1, y1).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap();
    let mut db = Database::new();
    db.insert_relation("B", Relation::from_tuples(1, [tuple_u64([5])]));
    db.insert_relation("C", Relation::from_pairs([(1, 7), (2, 7)]));
    db.insert_relation("E", Relation::from_pairs([(9, 7), (3, 5)]));
    show(
        "s10: no non-trivial cycle (Example 10)",
        &s10,
        &db,
        "P(x, y)",
    );

    // s5 — pure permutation, rank lcm(3) − 1 = 2.
    let s5 =
        validate_with_generic_exit(&parse_program("P(x, y, z) :- P(y, z, x).").unwrap()).unwrap();
    let mut db = Database::new();
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([7, 7, 8])]),
    );
    show(
        "s5: permutational cycle (Example 5)",
        &s5,
        &db,
        "P(x, y, z)",
    );

    println!("All three formulas were answered as plain (non-recursive) view expansions.");
}
