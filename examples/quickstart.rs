//! Quickstart: parse a recursive formula, classify it, plan a query, and
//! run the plan on the engine — checked against the fixpoint oracle.
//!
//! Run with: `cargo run --example quickstart`

use recurs_core::classify::Classification;
use recurs_core::oracle::ground_truth;
use recurs_core::report::{classification_report, plan_report};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation};
use recurs_engine::oracle::Planned;

fn main() {
    // Transitive closure — the paper's s1a, with an explicit exit rule.
    let program = parse_program(
        "P(x, y) :- A(x, z), P(z, y).\n\
         P(x, y) :- E(x, y).",
    )
    .expect("syntax is valid");
    let lr = validate_with_generic_exit(&program).expect("within the paper's fragment");

    // 1. Classify: s1a is strongly stable (disjoint unit cycles, Theorem 1).
    let classification = Classification::of(&lr.recursive_rule);
    println!("== classification ==");
    print!("{}", classification_report(&lr));
    assert!(classification.is_strongly_stable());

    // 2. Load a small database: a path 1→…→6 with a shortcut.
    let mut db = Database::new();
    let edges = Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]);
    db.insert_relation("A", edges.clone());
    db.insert_relation("E", edges);

    // 3. Plan and execute the paper's representative query shape P(a, Z).
    let query = parse_atom("P('1', z)").unwrap();
    let planned = Planned::new(&lr, &db, &query).unwrap();
    println!("\n== plan ==");
    print!("{}", plan_report(&lr, &QueryForm::of_atom(&query)));

    let run = planned.run().unwrap();
    let answers = run.answers.to_relation();
    println!("\n== answers to P(1, Z) ==");
    println!("{answers}");

    // 4. The compiled plan agrees with the semi-naive fixpoint.
    let (oracle, derived) = ground_truth(&lr, &db, &query).unwrap();
    assert_eq!(answers, oracle);
    println!(
        "\nverified against fixpoint oracle ({} answers; the plan derived {} tuples, \
         the full fixpoint {})",
        answers.len(),
        run.saturation.stats.tuples_derived,
        derived
    );
}
