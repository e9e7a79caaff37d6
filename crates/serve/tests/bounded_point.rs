//! Acceptance tests for the bounded point-query kernel: provably bounded
//! classes (permutational A2/A4, bounded B, acyclic D) must be answered by
//! rank-bounded unrolling — `fixpoint_iterations` is 0 ≤ rank, and the
//! answer is complete even under an iteration budget no fixpoint loop
//! could survive — and still equal the saturation oracle's. That a served
//! bounded answer equals the reference for every adornment and for repeated
//! variables, under updates and the cache, is the whole-stack model's check
//! 2 on s5, s6, s8 and s10 (`crates/net/tests/stack_model.rs`).

use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;
use recurs_obs::TraceId;
use recurs_serve::{QueryService, ServeConfig};

fn lr(src: &str) -> LinearRecursion {
    recurs_datalog::validate::validate_with_generic_exit(&parse_program(src).unwrap())
        .expect("formula validates")
}

fn oracle(f: &LinearRecursion, db: &Database, query: &Atom) -> Relation {
    let mut db = db.clone();
    semi_naive(&mut db, &f.to_program(), None).expect("oracle saturates");
    answer_query(&db, query).expect("oracle answers")
}

/// Asserts the full bounded contract for one (formula, db, query) triple.
fn assert_bounded(f: &LinearRecursion, db: &Database, query_text: &str, rank: u64) {
    let query = parse_atom(query_text).expect("query parses");
    let service = QueryService::new(f.clone(), db.clone(), ServeConfig::default());
    assert_eq!(
        service.kernel_for(&query).unwrap().label(),
        format!("bounded({rank})"),
        "dispatch must pick the bounded kernel for {query_text}"
    );

    // An iteration cap of 1 kills any fixpoint loop after its first pass;
    // the bounded kernel never enters one, so the answer stays Complete.
    let one_iteration = EvalBudget::iteration_cap(Some(1));
    let reply = service
        .query_traced(&query, &one_iteration, None, TraceId::mint())
        .expect("bounded query succeeds");
    assert!(
        reply.outcome.is_complete(),
        "bounded kernel must not be budget-sensitive: it runs no fixpoint loop"
    );
    let iters = reply.stats.fixpoint_iterations as u64;
    assert_eq!(
        iters, 0,
        "bounded kernel must report zero fixpoint iterations"
    );
    assert!(
        iters <= rank,
        "iterations must never exceed the computed rank"
    );
    assert_eq!(
        reply.answers.to_relation(),
        oracle(f, db, &query),
        "bounded unrolling diverged from the saturation oracle for {query_text}"
    );
}

#[test]
fn s5_rotation_is_answered_by_rank_2_unrolling() {
    // Pure permutational A2: P(x,y,z) :- P(y,z,x); rank = lcm(3) − 1 = 2.
    let f = lr("P(x, y, z) :- P(y, z, x).");
    let mut db = Database::new();
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 5, 6])]),
    );
    assert_bounded(&f, &db, "P(2, y, z)", 2);
    assert_bounded(&f, &db, "P(x, y, z)", 2);
    assert_bounded(&f, &db, "P(3, 1, z)", 2);
}

#[test]
fn s8_class_b_is_answered_by_rank_2_unrolling() {
    // The paper's s8, class B (bounded cycle): proven upper bound 2.
    let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
    db.insert_relation("B", Relation::from_pairs([(2, 5), (3, 6)]));
    db.insert_relation("C", Relation::from_pairs([(4, 7), (5, 8)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(4, [tuple_u64([1, 2, 4, 5]), tuple_u64([2, 3, 5, 6])]),
    );
    assert_bounded(&f, &db, "P(1, y, z, u)", 2);
    assert_bounded(&f, &db, "P(x, y, z, u)", 2);
}

#[test]
fn s10_acyclic_is_answered_by_rank_2_unrolling() {
    // The paper's s10, class D (no nontrivial cycles): proven upper bound 2.
    let f = lr("P(x, y) :- B(y), C(x, y1), P(x1, y1).");
    let mut db = Database::new();
    db.insert_relation(
        "B",
        Relation::from_tuples(1, [tuple_u64([2]), tuple_u64([5])]),
    );
    db.insert_relation("C", Relation::from_pairs([(1, 2), (3, 5), (4, 2)]));
    db.insert_relation("E", Relation::from_pairs([(1, 2), (3, 5)]));
    assert_bounded(&f, &db, "P(1, y)", 2);
    assert_bounded(&f, &db, "P(x, y)", 2);
    assert_bounded(&f, &db, "P(3, 5)", 2);
}

#[test]
fn unbounded_tc_never_selects_the_bounded_kernel() {
    // Sanity check of the dispatch boundary: transitive closure is A1-style
    // unbounded, so a bound query takes the frontier walk (source bound) or
    // magic (target bound: the free position ascends), never unrolling.
    let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs((1..6).map(|i| (i, i + 1))));
    db.insert_relation("E", Relation::from_pairs((1..6).map(|i| (i, i + 1))));
    let service = QueryService::new(f, db, ServeConfig::default());
    let bound = parse_atom("P(1, y)").unwrap();
    assert_eq!(service.kernel_for(&bound).unwrap().label(), "frontier");
    let target = parse_atom("P(x, 6)").unwrap();
    assert_eq!(service.kernel_for(&target).unwrap().label(), "magic");
    let free = parse_atom("P(x, y)").unwrap();
    assert_eq!(service.kernel_for(&free).unwrap().label(), "saturate");
}
