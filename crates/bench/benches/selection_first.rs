//! The paper's core optimization principle: "join operations will be
//! performed only after selection operations". This bench sweeps data size
//! for a selective query on a stable formula and compares:
//!
//! * the compiled counting plan (selection first, per-level chains);
//! * the semi-naive fixpoint followed by selection (join first).
//!
//! Expected shape: the compiled plan scales with the size of the *relevant*
//! subgraph (≈ linear in the chain suffix), the fixpoint with the whole
//! closure (≈ quadratic on a chain) — the gap widens with n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recurs_datalog::eval::semi_naive;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::oracle::Planned;
use recurs_workload::graphs::{chain, layered, tree};
use std::hint::black_box;
use std::time::Duration;

fn tc() -> recurs_datalog::LinearRecursion {
    validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap()
}

fn sweep(c: &mut Criterion, name: &str, dbs: Vec<(u64, Database)>, query_src: &str) {
    let f = tc();
    let mut group = c.benchmark_group(name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (n, db) in dbs {
        let query = parse_atom(query_src).unwrap();
        recurs_engine::oracle::assert_equivalent(&f, &db, &query);
        group.throughput(Throughput::Elements(n));
        group.bench_function(BenchmarkId::new("compiled_selection_first", n), |b| {
            let planned = Planned::new(&f, &db, &query).unwrap();
            b.iter(|| black_box(planned.run().unwrap().answers));
        });
        group.bench_with_input(BenchmarkId::new("fixpoint_then_select", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &f.to_program(), None).unwrap();
                black_box(recurs_datalog::eval::answer_query(&db, &query).unwrap())
            });
        });
    }
    group.finish();
}

fn chain_sweep(c: &mut Criterion) {
    let dbs = [64u64, 256, 1024]
        .into_iter()
        .map(|n| {
            let mut db = Database::new();
            db.insert_relation("A", chain(n));
            db.insert_relation("E", chain(n));
            (n, db)
        })
        .collect();
    // Query from 3/4 down the chain: the relevant suffix is n/4.
    sweep(c, "selection_first_chain", dbs, "P('48', y)");
}

fn tree_sweep(c: &mut Criterion) {
    let dbs = [63u64, 255, 1023]
        .into_iter()
        .map(|n| {
            let mut db = Database::new();
            db.insert_relation("A", tree(n, 2));
            db.insert_relation("E", tree(n, 2));
            (n, db)
        })
        .collect();
    sweep(c, "selection_first_tree", dbs, "P('2', y)");
}

fn layered_sweep(c: &mut Criterion) {
    let dbs = [10u64, 20, 40]
        .into_iter()
        .map(|layers| {
            let mut db = Database::new();
            db.insert_relation("A", layered(layers, 16, 2, 11));
            db.insert_relation("E", layered(layers, 16, 2, 12));
            (layers, db)
        })
        .collect();
    sweep(c, "selection_first_layered", dbs, "P('1', y)");
}

criterion_group!(benches, chain_sweep, tree_sweep, layered_sweep);
criterion_main!(benches);
