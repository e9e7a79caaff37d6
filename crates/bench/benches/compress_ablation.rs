//! Ablation: the Remark's compression as an optimization. The same stable
//! formula is evaluated (a) as written, with the undirected chain re-joined
//! inside every fixpoint iteration, and (b) compressed, with the combined
//! relation materialized once. Expected shape: compression wins and the gap
//! grows with the number of iterations the fixpoint needs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::compress::compress;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::parser::parse_program;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation};
use recurs_workload::graphs::chain;
use std::hint::black_box;
use std::time::Duration;

fn ablation(c: &mut Criterion) {
    // The Remark's formula: the chain x −A− u is joined through B, C too.
    let f = validate_with_generic_exit(
        &parse_program(
            "P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).\n\
             P(x, y) :- E(x, y).",
        )
        .unwrap(),
    )
    .unwrap();
    let compressed = compress(&f);

    let mut group = c.benchmark_group("compress_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [50u64, 200, 800] {
        let mut db = Database::new();
        db.insert_relation("A", chain(n));
        db.insert_relation("B", Relation::from_pairs((1..=n).map(|i| (i, i + 1000))));
        db.insert_relation("C", Relation::from_pairs((1..n).map(|i| (i + 1000, i + 1))));
        db.insert_relation("E", chain(n));

        group.bench_with_input(BenchmarkId::new("as_written", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &f.to_program(), None).unwrap();
                black_box(db.get("P").unwrap().len())
            });
        });
        group.bench_with_input(BenchmarkId::new("compressed", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &compressed.to_program(), None).unwrap();
                black_box(db.get("P").unwrap().len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
