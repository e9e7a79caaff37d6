//! The paper's hand-derived class-C plans (section 6, s9), written as rules
//! and run on the engine, versus our general strategy and the fixpoint
//! baselines. The per-case plan exploits the ×/∃ structure the paper derives
//! from the resolution graph; magic cannot (it must materialize the
//! unconstrained adorned predicate), so the expected shape is: paper plan ≤
//! magic ≈ semi-naive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::paper_plans::{s9_plan_dvv, s9_plan_vvd, ANSWER};
use recurs_core::plan::StrategyKind;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::rule::Program;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Symbol, Value};
use recurs_engine::oracle::Planned;
use recurs_engine::{
    saturate, CompiledProgram, EngineConfig, EngineDb, IndexedRelation, KernelKind,
};
use recurs_workload::graphs::{random_digraph, random_relation};
use std::hint::black_box;
use std::time::Duration;

fn s9_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", random_digraph(n, n as usize, 31));
    db.insert_relation("B", random_digraph(n, (n / 2) as usize, 32));
    db.insert_relation("E", random_relation(3, (n / 2) as usize, n, 33));
    db
}

/// A paper plan's answers: the program saturated on the engine over a copy
/// of `store` (which shares its rows).
fn paper_plan(store: &EngineDb, plan: &Program) -> IndexedRelation {
    let mut store = store.clone();
    let compiled = CompiledProgram::compile(plan, &store).unwrap();
    saturate(
        &mut store,
        &compiled,
        KernelKind::Generic,
        &EngineConfig::default(),
    )
    .unwrap();
    store.get(Symbol::intern(ANSWER)).unwrap().clone()
}

fn s9_sweep(c: &mut Criterion) {
    let f = validate_with_generic_exit(
        &parse_program(
            "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
             P(x, y, z) :- E(x, y, z).",
        )
        .unwrap(),
    )
    .unwrap();
    let mut group = c.benchmark_group("s9_paper_plans");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [100u64, 400] {
        let db = s9_db(n);
        let store = EngineDb::from(&db);
        let a = Value::from_u64(1);
        let dvv_plan = s9_plan_dvv(a);
        let q = parse_atom("P('1', y, z)").unwrap();

        // Sanity: paper plan ≡ oracle before timing.
        let got = paper_plan(&store, &dvv_plan).to_relation();
        let (want, _) = recurs_core::oracle::ground_truth(&f, &db, &q).unwrap();
        assert_eq!(got, want, "s9 paper plan diverged at n = {n}");

        group.bench_with_input(BenchmarkId::new("paper_plan_dvv", n), &store, |b, store| {
            b.iter(|| black_box(paper_plan(store, &dvv_plan)));
        });
        group.bench_function(BenchmarkId::new("magic_dvv", n), |b| {
            let planned = Planned::new(&f, &db, &q).unwrap();
            assert_eq!(planned.plan.strategy, StrategyKind::Magic);
            b.iter(|| black_box(planned.run().unwrap().answers));
        });
        group.bench_with_input(BenchmarkId::new("semi_naive_dvv", n), &db, |b, db| {
            b.iter(|| {
                let mut db = db.clone();
                semi_naive(&mut db, &f.to_program(), None).unwrap();
                black_box(recurs_datalog::eval::answer_query(&db, &q).unwrap())
            });
        });

        // The existence-check form.
        let c_val = Value::from_u64(7);
        let vvd_plan = s9_plan_vvd(c_val);
        let qv = parse_atom("P(x, y, '7')").unwrap();
        let got = paper_plan(&store, &vvd_plan).to_relation();
        let (want, _) = recurs_core::oracle::ground_truth(&f, &db, &qv).unwrap();
        assert_eq!(got, want, "s9 vvd paper plan diverged at n = {n}");
        group.bench_with_input(BenchmarkId::new("paper_plan_vvd", n), &store, |b, store| {
            b.iter(|| black_box(paper_plan(store, &vvd_plan)));
        });
    }
    group.finish();
}

criterion_group!(benches, s9_sweep);
criterion_main!(benches);
