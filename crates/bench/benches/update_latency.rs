//! Update latency: what a single-fact EDB update costs through the
//! `recurs-ivm` maintenance layer, against the cold refixpoint a
//! maintenance-unaware server would pay.
//!
//! Per size of the transitive-closure chain, one insert/delete stream is
//! timed two ways:
//!
//! * **patched_update** — insert a fresh tip edge `E(n, n+1)` and patch the
//!   standing materialization with semi-naive propagation, then delete it
//!   again and patch with DRed (overdelete, recount, rederive). One
//!   iteration is the full cycle — *two* single-fact patches — which keeps
//!   the timed loop stationary;
//! * **cold** — refixpoint the whole updated database from scratch: the
//!   baseline every update would pay without incremental maintenance.
//!
//! The patched states are asserted tuple-identical to from-scratch
//! saturation before anything is timed. A local tool: EXPERIMENTS.md §3
//! records the shapes, the perfbench `serve-update` workload measures the
//! served write path end to end, and `crates/ivm/tests/maintenance_cost.rs`
//! holds the patched-vs-cold floor as a count of the tuples touched.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::EngineDb;
use recurs_ivm::{EdbDelta, FactOp, Materialization};
use recurs_obs::Obs;
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

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("E", chain(n));
    db
}

/// From-scratch fixpoint of `P` over `edb` — the cold baseline and the
/// correctness oracle.
fn refixpoint(f: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    db.insert_relation(f.predicate, Relation::new(f.dimension()));
    semi_naive(&mut db, &f.to_program(), None).unwrap();
    db.get(f.predicate).unwrap().clone()
}

fn update_latency(c: &mut Criterion) {
    let f = tc_formula();
    let budget = EvalBudget::unlimited();
    for &n in &[200u64, 400, 800] {
        let db = tc_db(n);
        let e = Symbol::intern("E");
        let tip = tuple_u64([n, n + 1]);
        let mut inserted_db = db.clone();
        inserted_db.insert(e, tip.clone()).unwrap();
        let insert =
            EdbDelta::normalize(&[FactOp::Insert(e, tip.clone())], &EngineDb::from(&db)).unwrap();
        // Normalize the delete against the *inserted* state — against the
        // base database it would net out to an empty (no-op) delta.
        let delete =
            EdbDelta::normalize(&[FactOp::Delete(e, tip)], &EngineDb::from(&inserted_db)).unwrap();

        // Certify both patch directions against from-scratch saturation
        // before timing anything.
        let mut mat = Materialization::saturate(&f, &db, &budget, &Obs::noop()).unwrap();
        assert!(mat.apply(&insert, &budget).unwrap().truncation.is_none());
        assert_eq!(mat.relation().to_relation(), refixpoint(&f, &inserted_db));
        assert!(mat.apply(&delete, &budget).unwrap().truncation.is_none());
        assert_eq!(mat.relation().to_relation(), refixpoint(&f, &db));

        let mut group = c.benchmark_group("update_latency_tc");
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2));
        group.bench_with_input(BenchmarkId::new("patched_update", n), &(), |b, ()| {
            b.iter(|| {
                black_box(mat.apply(&insert, &budget).unwrap());
                black_box(mat.apply(&delete, &budget).unwrap());
            });
        });
        group.bench_with_input(BenchmarkId::new("cold", n), &(), |b, ()| {
            b.iter(|| black_box(refixpoint(&f, &inserted_db)));
        });
        group.finish();
    }
}

criterion_group!(benches, update_latency);
criterion_main!(benches);
