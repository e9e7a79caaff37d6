//! Allocation budgets for the two served paths that used to copy what they
//! read: a view select must cost what it selects, not what the view holds,
//! and a saturating-kernel miss must not deep-copy the snapshot before it
//! starts (nor copy its result back). Bytes are counted per thread by a
//! wrapping global allocator, so the parallel test harness does not blur
//! the numbers.

use recurs_core::magic;
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::database::Database;
use recurs_datalog::eval::answer_query;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::EngineConfig;
use recurs_obs::Obs;
use recurs_serve::{FactOp, PointKernelKind, PointPlans, QueryService, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to `System`; the counter is a const-initialized
// thread-local `Cell` with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + grown));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn tc() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap()
}

/// `chains` disjoint chains of `len` vertices, as both `A` and `E`.
fn forest(chains: u64, len: u64) -> Database {
    let edges = (0..chains).flat_map(|c| (1..len).map(move |i| (c * len + i, c * len + i + 1)));
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs(edges.clone()));
    db.insert_relation("E", Relation::from_pairs(edges));
    db
}

#[test]
fn a_one_answer_view_select_allocates_for_the_answer_not_the_view() {
    // One chain 1 → … → 201: the closure holds 201 · 200 / 2 = 20 100 tuples.
    let service = QueryService::new(tc(), forest(1, 200), ServeConfig::default());
    let link = ["A", "E"].map(|r| FactOp::Insert(Symbol::intern(r), tuple_u64([200, 201])));
    service.apply_update(&link).unwrap(); // builds the view
    let query = parse_atom("P(200, y)").unwrap();
    let (reply, bytes) = allocated_by(|| service.query(&query).unwrap());
    assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
    assert_eq!(reply.answers.len(), 1);
    assert!(bytes < 64 * 1024, "a one-answer select allocated {bytes} B");
    let all = parse_atom("P(x, y)").unwrap();
    assert_eq!(service.query(&all).unwrap().answers.len(), 20_100);
}

/// The kernel as it was before it evaluated in a private engine store: the
/// `&mut Database` engine entry (load → saturate → write back) on a deep
/// copy of the snapshot, answered by the interpreter's select.
fn miss_on_a_copy(lr: &LinearRecursion, db: &Database, query: &Atom) -> Relation {
    let plan = magic::build_plan(lr, &QueryForm::of_atom(query));
    let mut copy = db.clone();
    let seed = plan.seed_predicate.expect("a bound query has a magic seed");
    let constants: Tuple = query.terms.iter().filter_map(Term::as_const).collect();
    copy.declare(seed, constants.len()).unwrap();
    copy.insert(seed, constants).unwrap();
    recurs_engine::run_program(&mut copy, &plan.program, &EngineConfig::default()).unwrap();
    answer_query(
        &copy,
        &Atom::new(plan.answer_predicate, query.terms.clone()),
    )
    .unwrap()
}

#[test]
fn a_magic_kernel_miss_never_copies_the_snapshot() {
    // 40 chains of 51 vertices: 2 000 edges in each of A and E.
    let db = forest(40, 51);
    let (copy, deep_copy) = allocated_by(|| db.clone());
    drop(copy);
    let plans = PointPlans::new(tc());
    let query = parse_atom("P(30, y)").unwrap();
    let (want, on_a_copy) = allocated_by(|| miss_on_a_copy(&tc(), &db, &query));
    let (point, bytes) = allocated_by(|| {
        plans
            .answer(&db, &query, &EvalBudget::unlimited(), &Obs::noop())
            .unwrap()
    });
    assert_eq!(point.kernel, PointKernelKind::MagicIterate);
    assert_eq!(point.answers.len(), 21);
    assert_eq!(point.answers, want);
    // The miss still loads and indexes the relations its program reads
    // (several times a `Database::clone` of them, in arena + dedup + index
    // layout), so the pin is relative: at least one whole deep copy cheaper
    // than the same evaluation through the copying entry.
    assert!(
        bytes + deep_copy <= on_a_copy,
        "a magic miss allocated {bytes} B; on a copy {on_a_copy} B; Database::clone {deep_copy} B"
    );
}
