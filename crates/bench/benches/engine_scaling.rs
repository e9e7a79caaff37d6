//! Engine scaling: the oracle evaluator (`recurs_datalog::eval::semi_naive`)
//! vs the indexed engine, on the two canonical recursive workloads:
//!
//! * **transitive closure** over a chain — deep recursion (one iteration per
//!   chain hop), small deltas: stresses per-iteration overheads, where the
//!   engine's persistent incrementally-maintained indexes beat the oracle's
//!   binding-map evaluation;
//! * **same generation** over a complete binary tree — shallow recursion,
//!   wide deltas: stresses the join pipeline and tuple dedup.
//!
//! Every configuration is asserted equal to the oracle's fixpoint before it
//! is timed. A local tool: EXPERIMENTS.md §3 records the shapes, and the
//! perfbench `saturate-wide` workload measures this path end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_datalog::eval::semi_naive;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::{run_linear, EngineConfig};
use recurs_workload::graphs::chain;
use std::hint::black_box;
use std::time::Duration;

fn tc_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "P(x, y) :- A(x, z), P(z, y).\n\
             P(x, y) :- E(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn sg_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\n\
             SG(x, y) :- Flat(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("E", chain(n));
    db
}

/// Same-generation EDB over a complete binary tree of `n` nodes: `Down` is
/// parent → child, `Up` its reverse, `Flat` seeds the root with itself.
fn sg_db(n: u64) -> Database {
    let down: Vec<(u64, u64)> = (2..=n).map(|child| ((child - 2) / 2 + 1, child)).collect();
    let mut db = Database::new();
    db.insert_relation(
        "Up",
        Relation::from_pairs(down.iter().map(|&(p, c)| (c, p))),
    );
    db.insert_relation("Down", Relation::from_pairs(down));
    db.insert_relation("Flat", Relation::from_pairs([(1u64, 1u64)]));
    db
}

fn oracle_fixpoint(db: &Database, f: &LinearRecursion) -> Database {
    let mut db = db.clone();
    semi_naive(&mut db, &f.to_program(), None).unwrap();
    db
}

fn engine_fixpoint(db: &Database, f: &LinearRecursion) -> Database {
    let mut db = db.clone();
    let sat = run_linear(&mut db, f, &EngineConfig::default()).unwrap();
    assert!(sat.outcome.is_complete());
    db
}

fn scaling_sweep(
    c: &mut Criterion,
    group_name: &str,
    f: &LinearRecursion,
    dbs: &[(u64, Database)],
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let pred = f.predicate;
    for (n, db) in dbs {
        // Certify the engine against the oracle before timing it.
        let expected = oracle_fixpoint(db, f);
        let got = engine_fixpoint(db, f);
        assert_eq!(
            expected.get(pred).unwrap(),
            got.get(pred).unwrap(),
            "{group_name}/{n}: the engine disagrees with the oracle"
        );

        group.bench_with_input(BenchmarkId::new("oracle", n), db, |b, db| {
            b.iter(|| black_box(oracle_fixpoint(db, f)));
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), db, |b, db| {
            b.iter(|| black_box(engine_fixpoint(db, f)));
        });
    }
    group.finish();
}

fn tc_scaling(c: &mut Criterion) {
    let f = tc_formula();
    let dbs: Vec<(u64, Database)> = [200u64, 400, 800].iter().map(|&n| (n, tc_db(n))).collect();
    scaling_sweep(c, "engine_scaling_tc", &f, &dbs);
}

fn sg_scaling(c: &mut Criterion) {
    let f = sg_formula();
    let dbs: Vec<(u64, Database)> = [255u64, 511, 1023].iter().map(|&n| (n, sg_db(n))).collect();
    scaling_sweep(c, "engine_scaling_sg", &f, &dbs);
}

criterion_group!(benches, tc_scaling, sg_scaling);
criterion_main!(benches);
