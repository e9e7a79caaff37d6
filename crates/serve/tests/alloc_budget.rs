//! Allocation budgets for the served paths: each must cost what it touches,
//! not what the database holds. A view select allocates for its answers, not
//! for the view; a kernel miss — once its query form's indexes travel with
//! the snapshot — allocates the same whether the base relations hold 2 000
//! tuples or 20 000; and an update allocates for the relation it changes,
//! whatever the size of the ones it does not. Bytes are counted per thread
//! by a wrapping global allocator, so the parallel test harness does not
//! blur the numbers.

use recurs_datalog::database::Database;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_serve::{FactOp, PointKernelKind, QueryService, ServeConfig, UpdateOutcome};
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

/// `chains` disjoint chains of `len` vertices.
fn chains(chains: u64, len: u64) -> Relation {
    Relation::from_pairs(
        (0..chains).flat_map(|c| (1..len).map(move |i| (c * len + i, c * len + i + 1))),
    )
}

/// `a_chains` chains of `len` vertices in `A`, the first `e_chains` of them
/// also in `E`.
fn forest(a_chains: u64, e_chains: u64, len: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", chains(a_chains, len));
    db.insert_relation("E", chains(e_chains, len));
    db
}

/// True when `a` and `b` are within 10% of each other.
fn within_a_tenth(a: usize, b: usize) -> bool {
    a.abs_diff(b) * 10 <= a.max(b)
}

#[test]
fn a_one_answer_view_select_allocates_for_the_answer_not_the_view() {
    // One chain 1 → … → 201: the closure holds 201 · 200 / 2 = 20 100 tuples.
    let service = QueryService::new(tc(), forest(1, 1, 200), ServeConfig::default());
    let link = ["A", "E"].map(|r| FactOp::Insert(Symbol::intern(r), tuple_u64([200, 201])));
    service.apply_update(&link).unwrap(); // builds the view
    let query = parse_atom("P(200, y)").unwrap();
    let visited = rows_visited(&service);
    let (reply, bytes) = allocated_by(|| service.query(&query).unwrap());
    assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
    assert_eq!(reply.answers.len(), 1);
    assert!(bytes < 64 * 1024, "a one-answer select allocated {bytes} B");
    // A view no patch has touched carries no index: the select scans it.
    assert_eq!(rows_visited(&service) - visited, 20_100);
    // The first `A` patch (a dangling edge: it derives nothing) has
    // maintenance index the view on its first column — the recursive rule
    // joins it there — and from then on a select binding that column probes:
    // it reads its answers, not the view. A ground query is one lookup; a
    // query no index covers still reads everything.
    let dangling = [FactOp::Insert(Symbol::intern("A"), tuple_u64([900, 901]))];
    service.apply_update(&dangling).unwrap();
    for (query, answers, reads) in [
        ("P(199, y)", 2, 2),
        ("P(150, y)", 51, 51),
        ("P(150, 170)", 1, 1),
        ("P(150, 150)", 0, 0),
        ("P(x, 3)", 2, 20_100),
        ("P(x, y)", 20_100, 20_100),
    ] {
        let visited = rows_visited(&service);
        let reply = service.query(&parse_atom(query).unwrap()).unwrap();
        assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
        assert_eq!(reply.answers.len(), answers, "{query}");
        assert_eq!(rows_visited(&service) - visited, reads, "{query}");
    }
}

/// Stored tuples the service's selects and pipelines have read so far: the
/// engine's probe-hit counter, off the metrics page.
fn rows_visited(service: &QueryService) -> usize {
    let metrics = service.metrics_text();
    let line = metrics
        .lines()
        .find(|line| line.starts_with("recurs_engine_probe_hits_total"))
        .unwrap_or("recurs_engine_probe_hits_total 0");
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn a_magic_kernel_miss_never_copies_the_snapshot() {
    // The second miss of a query form, on 2 000 and on 20 000 edges per
    // relation: the first miss had the snapshot index A and E for the form's
    // pipelines (once, republished); the second clones the store, plants its
    // seed and derives its answers — work that does not know how many chains
    // stand beside the one it walks. Both lowerings a bound TC query takes
    // go through the same executor: the magic rewrite (target bound, 29
    // predecessors) and the frontier walk (source bound, 21 successors).
    let second_miss = |chains: u64, first: &str, second: &str, kernel, answers| {
        let service = QueryService::new(tc(), forest(chains, chains, 51), ServeConfig::default());
        let first = service.query(&parse_atom(first).unwrap()).unwrap();
        assert_eq!(first.stats.kernel, kernel);
        // The same position one chain over: same form, same answer count.
        let query = parse_atom(second).unwrap();
        let (reply, bytes) = allocated_by(|| service.query(&query).unwrap());
        assert_eq!(reply.stats.kernel, kernel);
        assert_eq!(reply.answers.len(), answers);
        bytes
    };
    for (first, second, kernel, answers) in [
        ("P(x, 30)", "P(x, 81)", PointKernelKind::MagicIterate, 29),
        ("P(30, y)", "P(81, y)", PointKernelKind::Frontier, 21),
    ] {
        let small = second_miss(40, first, second, kernel, answers);
        let large = second_miss(400, first, second, kernel, answers);
        assert!(
            within_a_tenth(small, large),
            "a second {kernel:?} miss allocated {small} B over 2 000 edges but {large} B over \
             20 000"
        );
    }
}

#[test]
fn an_update_allocates_for_the_relation_it_changes_only() {
    // `E` holds 40 chains either way; `A` holds those and, in the large
    // case, 360 more that derive nothing. A tip edge on chain 0 enters 51
    // view tuples in both.
    let tip_update = |a_chains: u64| {
        let service = QueryService::new(tc(), forest(a_chains, 40, 51), ServeConfig::default());
        let e = Symbol::intern("E");
        let tip = |k: u64| [FactOp::Insert(e, tuple_u64([51, 900_000 + k]))];
        // The first update builds the view; the second is the first patch,
        // which compiles the maintenance pipelines and has the view index
        // (so, once, copy) what they probe. From the third on, an update is
        // the steady state.
        service.apply_update(&tip(1)).unwrap();
        service.apply_update(&tip(2)).unwrap();
        let (outcome, bytes) = allocated_by(|| service.apply_update(&tip(3)).unwrap());
        let UpdateOutcome::Installed { maintenance, .. } = outcome else {
            panic!("the tip edge is new: {outcome:?}");
        };
        assert_eq!(maintenance, "frontier");
        bytes
    };
    let (small, large) = (tip_update(40), tip_update(400));
    assert!(
        within_a_tenth(small, large),
        "a tip-edge update allocated {small} B beside 2 000 A tuples but {large} B beside 20 000"
    );
}
