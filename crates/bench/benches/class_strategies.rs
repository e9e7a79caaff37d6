//! One benchmark group per class of the paper (Examples 3–14): the compiled
//! plan (bounded / frontier / magic, as the planner lowers it), run on the
//! engine, versus the
//! naive and semi-naive fixpoint baselines, on a representative query of
//! that class.
//!
//! Expected shape (the paper's implied claims, refined by measurement):
//! * stable / transformable classes (A1, A3): the counting plan beats both
//!   fixpoints on selective queries by a widening factor as data grows;
//! * bounded classes (B, D, A4): the bounded plan avoids fixpoint machinery
//!   — it wins clearly on selective queries (σ pushed into each level) and
//!   on permutational formulas, while *open* queries over dense random data
//!   can favor semi-naive (incremental deltas beat re-joined levels);
//! * general classes (C, E, F): magic matches semi-naive on unselective
//!   work but restricts derivation when the query is selective.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_datalog::eval::{naive, semi_naive};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Atom, Database, Relation};
use recurs_engine::oracle::Planned;
use recurs_workload::graphs::{chain, random_digraph};
use std::hint::black_box;
use std::time::Duration;

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn bench_case(
    c: &mut Criterion,
    group_name: &str,
    f: &LinearRecursion,
    db: &Database,
    query: &Atom,
    sizes_label: u64,
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    // Pre-verify agreement once, so the benchmark numbers are meaningful.
    recurs_engine::oracle::assert_equivalent(f, db, query);
    group.bench_with_input(
        BenchmarkId::new("compiled_plan", sizes_label),
        &(),
        |b, ()| {
            let planned = Planned::new(f, db, query).unwrap();
            b.iter(|| black_box(planned.run().unwrap().answers));
        },
    );
    group.bench_with_input(BenchmarkId::new("semi_naive", sizes_label), &(), |b, ()| {
        b.iter(|| {
            let mut db = db.clone();
            semi_naive(&mut db, &f.to_program(), None).unwrap();
            black_box(recurs_datalog::eval::answer_query(&db, query).unwrap())
        });
    });
    group.bench_with_input(BenchmarkId::new("naive", sizes_label), &(), |b, ()| {
        b.iter(|| {
            let mut db = db.clone();
            naive(&mut db, &f.to_program(), None).unwrap();
            black_box(recurs_datalog::eval::answer_query(&db, query).unwrap())
        });
    });
    group.finish();
}

/// Example 3 — class A1 (stable), query P(a, b, Z).
fn class_a1(c: &mut Criterion) {
    let f = lr("P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).\n\
                P(x, y, z) :- E(x, y, z).");
    let n = 300u64;
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("B", chain(n));
    db.insert_relation("C", chain(n));
    db.insert_relation("E", diag3(n));
    let query = parse_atom("P('1', '1', z)").unwrap();
    bench_case(c, "example3_class_a1", &f, &db, &query, n);
}

/// Example 4 — class A3 (unfold 3× then count), query P(a, b, Z).
fn class_a3(c: &mut Criterion) {
    let f = lr(
        "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).\n\
                P(x1, x2, x3) :- E(x1, x2, x3).",
    );
    let n = 120u64;
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("B", chain(n));
    db.insert_relation("C", chain(n));
    db.insert_relation("E", diag3(n));
    let query = parse_atom("P('1', '1', z)").unwrap();
    bench_case(c, "example4_class_a3", &f, &db, &query, n);
}

/// Example 8 — class B (bounded, rank 2), open query.
fn class_b(c: &mut Criterion) {
    let f = lr(
        "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).\n\
                P(x, y, z, u) :- E(x, y, z, u).",
    );
    let n = 150u64;
    let mut db = Database::new();
    db.insert_relation("A", random_digraph(n, n as usize, 1));
    db.insert_relation("B", random_digraph(n, n as usize, 2));
    db.insert_relation("C", random_digraph(n, n as usize, 3));
    db.insert_relation(
        "E",
        recurs_workload::graphs::random_relation(4, n as usize, n, 4),
    );
    let query = parse_atom("P(x, y, z, u)").unwrap();
    bench_case(c, "example8_class_b", &f, &db, &query, n);
}

/// Example 9 — class C (unbounded cycle), query P(d, v, v).
fn class_c(c: &mut Criterion) {
    let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
                P(x, y, z) :- E(x, y, z).");
    let n = 100u64;
    let mut db = Database::new();
    db.insert_relation("A", random_digraph(n, n as usize, 5));
    db.insert_relation("B", random_digraph(n, (n / 2) as usize, 6));
    db.insert_relation(
        "E",
        recurs_workload::graphs::random_relation(3, (n / 2) as usize, n, 7),
    );
    let query = parse_atom("P('1', y, z)").unwrap();
    bench_case(c, "example9_class_c", &f, &db, &query, n);
}

/// Example 10 — class D (acyclic, rank 2), open query.
fn class_d(c: &mut Criterion) {
    let f = lr("P(x, y) :- B(y), C(x, y1), P(x1, y1).\nP(x, y) :- E(x, y).");
    let n = 250u64;
    let mut db = Database::new();
    db.insert_relation(
        "B",
        recurs_workload::graphs::random_relation(1, (n / 2) as usize, n, 8),
    );
    db.insert_relation("C", random_digraph(n, n as usize, 9));
    db.insert_relation("E", random_digraph(n, n as usize, 10));
    let query = parse_atom("P(x, y)").unwrap();
    bench_case(c, "example10_class_d", &f, &db, &query, n);
}

/// Example 11 — class E (dependent), query P(d, v).
fn class_e(c: &mut Criterion) {
    let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                P(x, y) :- E(x, y).");
    let n = 250u64;
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("B", chain(n));
    db.insert_relation("C", Relation::from_pairs((1..=n).map(|i| (i, i))));
    db.insert_relation("E", Relation::from_pairs((1..=n).map(|i| (i, i))));
    let query = parse_atom("P('1', y)").unwrap();
    bench_case(c, "example11_class_e", &f, &db, &query, n);
}

/// Example 14 — class F (mixed), query P(d, v, v).
fn class_f(c: &mut Criterion) {
    let f = lr(
        "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).\n\
                P(x, y, z) :- E(x, y, z).",
    );
    let n = 200u64;
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("B", chain(n));
    db.insert_relation("C", Relation::from_pairs((1..=n).map(|i| (i, i))));
    db.insert_relation("D", chain(n));
    db.insert_relation(
        "E",
        Relation::from_tuples(
            3,
            (1..n).map(|i| recurs_datalog::relation::tuple_u64([i, i, i])),
        ),
    );
    let query = parse_atom("P('1', y, z)").unwrap();
    bench_case(c, "example14_class_f", &f, &db, &query, n);
}

/// A ternary diagonal exit relation {(i, i, i)}.
fn diag3(n: u64) -> Relation {
    Relation::from_tuples(
        3,
        (1..=n).map(|i| recurs_datalog::relation::tuple_u64([i, i, i])),
    )
}

criterion_group!(benches, class_a1, class_a3, class_b, class_c, class_d, class_e, class_f);
criterion_main!(benches);
