//! Section 6's payoff: a bounded formula need never run a fixpoint — the
//! finite union of exit-closed expansions (rank levels) replaces it.
//!
//! Sweeps data size on the paper's s8 (rank 2) and s5 (permutational,
//! rank 2) and compares the bounded plan against naive and semi-naive
//! fixpoints. Expected shape: the bounded plan evaluates exactly rank+1
//! conjunctive queries regardless of data. On s5 (and on selective queries,
//! see report_experiments P2) it wins outright; on s8's *open* query over
//! dense random data the re-joined levels lose to semi-naive's incremental
//! deltas — the trade-off the sweep exists to show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::plan::StrategyKind;
use recurs_datalog::eval::{naive, semi_naive};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::oracle::Planned;
use recurs_workload::graphs::{random_digraph, random_relation};
use std::hint::black_box;
use std::time::Duration;

fn s8_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", random_digraph(n, n as usize, 21));
    db.insert_relation("B", random_digraph(n, n as usize, 22));
    db.insert_relation("C", random_digraph(n, n as usize, 23));
    db.insert_relation("E", random_relation(4, n as usize, n, 24));
    db
}

fn s8_sweep(c: &mut Criterion) {
    let f = validate_with_generic_exit(
        &parse_program(
            "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).\n\
             P(x, y, z, u) :- E(x, y, z, u).",
        )
        .unwrap(),
    )
    .unwrap();
    let query = parse_atom("P(x, y, z, u)").unwrap();
    let mut group = c.benchmark_group("bounded_truncation_s8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [50u64, 100, 200] {
        let db = s8_db(n);
        let planned = Planned::new(&f, &db, &query).unwrap();
        assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
        recurs_engine::oracle::assert_equivalent(&f, &db, &query);
        group.bench_function(BenchmarkId::new("bounded_plan", n), |b| {
            b.iter(|| black_box(planned.run().unwrap().answers));
        });
        group.bench_with_input(BenchmarkId::new("semi_naive", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &f.to_program(), None).unwrap();
                black_box(recurs_datalog::eval::answer_query(&db, &query).unwrap())
            });
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                naive(&mut db, &f.to_program(), None).unwrap();
                black_box(recurs_datalog::eval::answer_query(&db, &query).unwrap())
            });
        });
    }
    group.finish();
}

fn s5_sweep(c: &mut Criterion) {
    // s5: pure rotation, rank lcm(3)−1 = 2.
    let f =
        validate_with_generic_exit(&parse_program("P(x, y, z) :- P(y, z, x).").unwrap()).unwrap();
    let query = parse_atom("P(x, y, z)").unwrap();
    let mut group = c.benchmark_group("bounded_truncation_s5");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [1_000u64, 5_000, 20_000] {
        let mut db = Database::new();
        db.insert_relation("E", random_relation(3, n as usize, n, 25));
        let planned = Planned::new(&f, &db, &query).unwrap();
        assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
        group.bench_function(BenchmarkId::new("bounded_plan", n), |b| {
            b.iter(|| black_box(planned.run().unwrap().answers));
        });
        group.bench_with_input(BenchmarkId::new("semi_naive", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &f.to_program(), None).unwrap();
                black_box(recurs_datalog::eval::answer_query(&db, &query).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, s8_sweep, s5_sweep);
criterion_main!(benches);
