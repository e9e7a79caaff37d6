//! Ablation: the Remark's compression as an optimization, on the engine. The
//! same stable formula is compiled and saturated over one engine store (a)
//! as written, with the undirected chain re-joined inside every round, and
//! (b) compressed, with the combined relation derived once in the seeding
//! round. This is the shape ROADMAP item 5 gates shared terms on: keep
//! compression only where it wins on the engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::compress::compress;
use recurs_datalog::parser::parse_program;
use recurs_datalog::rule::Program;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation, Symbol};
use recurs_engine::{saturate, CompiledProgram, EngineConfig, EngineDb, KernelKind};
use recurs_workload::graphs::chain;
use std::hint::black_box;
use std::time::Duration;

/// `program` saturated over a copy of `store` (which shares its rows):
/// the size of `P`.
fn saturated_len(store: &EngineDb, program: &CompiledProgram) -> usize {
    let mut store = store.clone();
    saturate(
        &mut store,
        program,
        KernelKind::Generic,
        &EngineConfig::default(),
    )
    .unwrap();
    store.get(Symbol::intern("P")).unwrap().len()
}

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
    let forms: [(&str, Program); 2] = [
        ("as_written", f.to_program()),
        ("compressed", compress(&f).to_program()),
    ];

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
        let store = EngineDb::from(&db);
        let compiled = forms
            .each_ref()
            .map(|(name, program)| (*name, CompiledProgram::compile(program, &store).unwrap()));
        // Both forms reach the same fixpoint before either is timed.
        let sizes = compiled.each_ref().map(|(_, p)| saturated_len(&store, p));
        assert_eq!(sizes[0], sizes[1], "compression changed P at n = {n}");

        for (name, program) in &compiled {
            group.bench_with_input(BenchmarkId::new(*name, n), &store, |b, store| {
                b.iter(|| black_box(saturated_len(store, program)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
