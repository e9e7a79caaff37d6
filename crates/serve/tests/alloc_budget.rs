//! Allocation budgets for the served paths: each must cost what it touches,
//! not what the database holds. A view select allocates for its answers, not
//! for the view, and a `why` over the view for its tree; a kernel miss — once its query form's indexes travel with
//! the snapshot — allocates the same whether the base relations hold 2 000
//! tuples or 20 000; an update allocates for the relation it changes,
//! whatever the size of the ones it does not and however many warm cache
//! entries its patch does not reach; and a cache hit allocates its lookup
//! pattern and nothing else on the cache's behalf. Rows outside an arena travel
//! in flat relations, so allocator *calls* follow buffer doublings — log k for
//! a select of k answers or a patch of k tuples — never the row count. Bytes
//! and calls are counted per thread by a wrapping global allocator, so the
//! parallel test harness does not blur the numbers.

use recurs_datalog::database::Database;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program, parse_rule};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::compile::CompiledRule;
use recurs_engine::{drive_rounds, Batch, EngineDb, Fresh};
use recurs_obs::Obs;
use recurs_serve::{
    CacheOutcome, FactOp, PointKernelKind, QueryService, ServeConfig, UpdateOutcome,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every call to `System`; the counters are const-initialized
// thread-local `Cell`s with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        let _ = CALLS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + grown));
        let _ = CALLS.try_with(|n| n.set(n.get() + 1));
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

/// Allocator calls (`alloc` and `realloc`) this thread made while `f` ran.
fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
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
    // The view is built with an index on each column: the select probes the
    // first and reads its one answer, not the 20 100 rows.
    assert_eq!(rows_visited(&service) - visited, 1);
    // After a patch (a dangling `A` edge: it derives nothing) the indexes
    // are still there and fresh: a select binding either column reads its
    // answers, not the view. A ground query is one lookup in the dedup
    // table; only the free query reads everything.
    let dangling = [FactOp::Insert(Symbol::intern("A"), tuple_u64([900, 901]))];
    service.apply_update(&dangling).unwrap();
    let mut calls_for = Vec::new();
    for (query, answers, reads) in [
        ("P(199, y)", 2, 2),
        ("P(150, y)", 51, 51),
        ("P(150, 170)", 1, 1),
        ("P(150, 150)", 0, 0),
        ("P(x, 3)", 2, 2),
        ("P(x, y)", 20_100, 20_100),
    ] {
        let visited = rows_visited(&service);
        let query = parse_atom(query).unwrap();
        service.kernel_for(&query).unwrap(); // the form's plan is built once
        let (reply, calls) = calls_by(|| service.query(&query).unwrap());
        assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
        assert_eq!(reply.answers.len(), answers, "{query}");
        assert_eq!(rows_visited(&service) - visited, reads, "{query}");
        calls_for.push((answers, calls));
    }
    // The answers are rows of one flat relation: its arena, live bits and id
    // table double as they fill, so k answers cost a few allocator calls per
    // doubling — 20 100 answers about 15 doublings of each — not one per row.
    let calls_at = |k: usize| calls_for.iter().find(|&&(n, _)| n == k).unwrap().1;
    let (two, many) = (calls_at(2), calls_at(20_100));
    assert!(
        many <= two + 3 * 15,
        "a select of 20 100 answers made {many} allocator calls, one of 2 answers {two}"
    );
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
        assert_eq!(first.stats.kernel.label(), kernel);
        // The same position one chain over: same form, same answer count.
        let query = parse_atom(second).unwrap();
        let (reply, bytes) = allocated_by(|| service.query(&query).unwrap());
        assert_eq!(reply.stats.kernel.label(), kernel);
        assert_eq!(reply.answers.len(), answers);
        bytes
    };
    for (first, second, kernel, answers) in [
        ("P(x, 30)", "P(x, 81)", "magic", 29),
        ("P(30, y)", "P(81, y)", "frontier", 21),
    ] {
        let small = second_miss(40, first, second, kernel, answers);
        let large = second_miss(400, first, second, kernel, answers);
        assert!(
            within_a_tenth(small, large),
            "a second {kernel} miss allocated {small} B over 2 000 edges but {large} B over \
             20 000"
        );
    }
}

#[test]
fn a_view_backed_why_allocates_for_its_tree_not_the_store() {
    // After one update the view holds the fixpoint, so a `why` walks it:
    // on 2 000 and on 20 000 edges per relation, `P(k, k + 2)` is the same
    // two-step tree, and the walk does not know how many chains stand
    // beside the one it reads. A `why` that saturated a clone of the store
    // first allocated for every chain.
    let why_bytes = |chains: u64| {
        let service = QueryService::new(tc(), forest(chains, chains, 51), ServeConfig::default());
        service.apply_update(&tip(1)).unwrap(); // builds the view
        let p = Symbol::intern("P");
        let unlimited = EvalBudget::unlimited();
        let why = |k: u64| {
            service
                .why(p, &tuple_u64([k, k + 2]), 1_000, &unlimited, None, None)
                .unwrap()
        };
        why(5); // whatever the recorder interns per label set is interned now
        let (reply, bytes) = allocated_by(|| why(20));
        assert!(reply.view_seeded, "{reply:?}");
        let Ok(recurs_ivm::WhyOutcome::Derived(tree)) = &reply.outcome else {
            panic!("P(20, 22) is derived: {reply:?}");
        };
        assert_eq!(tree.depth(), 3, "one recursive step over two edges");
        bytes
    };
    let (small, large) = (why_bytes(40), why_bytes(400));
    assert!(
        within_a_tenth(small, large),
        "a view-backed why allocated {small} B over 2 000 edges but {large} B over 20 000"
    );
}

#[test]
fn a_served_cold_miss_records_its_rounds_without_allocating_per_round() {
    // One chain 1 → … → 60 and no cache: every query is a frontier walk,
    // one round per step plus the seeding and the empty last round. The
    // service's recorders keep no per-round detail, so a round records
    // nothing, and the walk's batches have long stopped growing.
    let config = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let service = QueryService::new(tc(), forest(1, 1, 60), config);
    service.query(&source_bound(30)).unwrap(); // the form's plan and indexes
    let miss = |c: u64| {
        let (reply, calls) = calls_by(|| service.query(&source_bound(c)).unwrap());
        assert_eq!(reply.stats.kernel.label(), "frontier");
        assert_eq!(reply.answers.len() as u64, 60 - c);
        (reply.stats.fixpoint_iterations, calls)
    };
    let ((short, few), (long, many)) = (miss(57), miss(1));
    assert_eq!((short, long), (5, 61));
    // 18.5 calls a round when each event was re-boxed under its request's
    // trace id and each round added its counters; 3.5 while the flight ring
    // copied each round's two events; 0.48 (86 and 113 calls) while the
    // select copied the walk's answer set out of the store, where it now
    // shares its rows (77 and 96 calls, 0.34 a round: the growth of the
    // answer relation and of the per-round stats).
    let per_round = (many - few) as f64 / (long - short) as f64;
    assert!(
        per_round <= 0.35,
        "a {short}-round miss made {few} allocator calls, a {long}-round miss {many}: \
         {per_round:.2} a round"
    );
}

#[test]
fn a_drive_rounds_call_sets_up_its_delta_slots_in_one_allocation() {
    // An ivm write makes about four short `drive_rounds` calls, so what a
    // call allocates before its first round is paid a few times a write. A
    // caller used to hand its first delta in as a one-entry
    // `BTreeMap<Symbol, Batch>`; now it hands in `[(pred, batch)]` and the
    // driver sets up its slots. A cap of 0 stops the call right after that
    // setup, before any round.
    let p = Symbol::intern("P");
    let mut store = EngineDb::from(&forest(1, 1, 10));
    store.declare(p, 2).unwrap();
    let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
    let variant = CompiledRule::compile(&rule, Some(1), &store).unwrap();
    store.ensure_indexes(&variant);
    let pending = || Batch::from_rows(2, [tuple_u64([2, 3])]);
    let governor = EvalBudget::unlimited().start();

    let batch = pending();
    let (_map, by_map) = calls_by(|| BTreeMap::from([(p, batch)]));
    let batch = pending();
    let (run, by_slots) = calls_by(|| {
        let rules = std::slice::from_ref(&variant);
        let merge = |_: &mut EngineDb, _, _: &CompiledRule, _: &Batch, _: &mut Fresh| {};
        drive_rounds(
            &mut store,
            None,
            rules,
            [(p, batch)],
            Some(0),
            &governor,
            &Obs::noop(),
            merge,
        )
    });
    let run = run.unwrap();
    assert!(run.capped && run.iterations.is_empty(), "{run:?}");
    assert!(
        by_slots <= by_map,
        "a drive_rounds call made {by_slots} allocator calls before its first round; \
         the one-entry map it replaced made {by_map}"
    );
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
        // which compiles the maintenance pipelines and indexes what they
        // probe. From the third on, an update is the steady state.
        service.apply_update(&tip(1)).unwrap();
        service.apply_update(&tip(2)).unwrap();
        let (outcome, bytes) = allocated_by(|| service.apply_update(&tip(3)).unwrap());
        let UpdateOutcome::Installed { maintenance, .. } = outcome else {
            panic!("the tip edge is new: {outcome:?}");
        };
        assert_eq!(maintenance, "generic-dred");
        bytes
    };
    let (small, large) = (tip_update(40), tip_update(400));
    assert!(
        within_a_tenth(small, large),
        "a tip-edge update allocated {small} B beside 2 000 A tuples but {large} B beside 20 000"
    );
}

/// A service over 40 chains of 51 vertices whose view is built (one tip edge
/// on chain 0 already in) and whose cache holds `P(c, y)` for every `c` in
/// `1..=warm` — the first 51 of them chain 0, the tip's ancestors.
fn warmed(warm: u64) -> QueryService {
    // Room to spare for every warm entry: nothing is evicted.
    let config = ServeConfig {
        cache_capacity: 8 * 1024,
        ..ServeConfig::default()
    };
    let service = QueryService::new(tc(), forest(40, 40, 51), config);
    service.apply_update(&tip(1)).unwrap(); // builds the view, clears the cache
    for c in 1..=warm {
        let reply = service.query(&source_bound(c)).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Miss);
    }
    assert_eq!(service.cache_len() as u64, warm);
    service
}

/// `+E(51, t_k)`: a new edge off the end of chain 0, so `P(a, t_k)` enters
/// the view for each of the 51 vertices `a` of the chain.
fn tip(k: u64) -> [FactOp; 1] {
    [FactOp::Insert(
        Symbol::intern("E"),
        tuple_u64([51, 900_000 + k]),
    )]
}

fn source_bound(c: u64) -> recurs_datalog::term::Atom {
    parse_atom(&format!("P({c}, y)")).unwrap()
}

#[test]
fn a_write_allocates_for_the_entries_it_reaches_not_the_entries_there_are() {
    let tip_update = |warm: u64| {
        let service = warmed(warm);
        // The first patch compiles the maintenance pipelines; the second is
        // the steady state.
        service.apply_update(&tip(2)).unwrap();
        let (outcome, bytes) = allocated_by(|| service.apply_update(&tip(3)).unwrap());
        let UpdateOutcome::Installed { maintenance, .. } = outcome else {
            panic!("the tip edge is new: {outcome:?}");
        };
        assert_eq!(maintenance, "generic-dred");
        // Every warm entry is still there, exact at the new version.
        let reply = service.query(&source_bound(warm)).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Hit);
        bytes
    };
    let (few, many) = (tip_update(51), tip_update(1_000));
    assert!(
        within_a_tenth(few, many),
        "a tip-edge update allocated {few} B beside 51 warm entries but {many} B beside 1 000"
    );
}

#[test]
fn a_write_allocates_per_buffer_doubling_not_per_patched_tuple() {
    // A fan: `sources` vertices with an `A` edge into vertex 0, which has one
    // `E` edge out. A new `E` edge out of 0 enters the view once for 0 and
    // once per source — a patch of `sources + 1` tuples in two rounds — and
    // every source's warm `P(s, y)` entry gains an answer.
    let tip_update = |sources: u64| {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..=sources).map(|s| (s, 0))));
        db.insert_relation("E", Relation::from_pairs([(0, 900_000)]));
        let config = ServeConfig {
            cache_capacity: 8 * 1024,
            ..ServeConfig::default()
        };
        let service = QueryService::new(tc(), db, config);
        let tip = |k: u64| {
            [FactOp::Insert(
                Symbol::intern("E"),
                tuple_u64([0, 900_000 + k]),
            )]
        };
        service.apply_update(&tip(1)).unwrap(); // builds the view
        for s in 1..=sources {
            assert_eq!(service.query(&source_bound(s)).unwrap().answers.len(), 2);
        }
        service.apply_update(&tip(2)).unwrap(); // compiles the maintenance pipelines
        let (outcome, calls) = calls_by(|| service.apply_update(&tip(3)).unwrap());
        assert!(matches!(outcome, UpdateOutcome::Installed { .. }));
        assert_eq!(service.stats().cache.patched, 2 * sources);
        let reply = service.query(&source_bound(sources)).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Hit);
        assert_eq!(reply.answers.len(), 4);
        calls
    };
    // 16 times the patch: four more doublings of each flat buffer it passes
    // through (delta batches, candidates, the patch's two relations, the set
    // of changed entries), not 750 more boxed rows, keys and projections.
    let (few, many) = (tip_update(50), tip_update(800));
    assert!(
        many <= few + 80,
        "a tip-edge update made {few} allocator calls for a 51-tuple patch but {many} for an \
         801-tuple one"
    );
}

#[test]
fn patched_counts_the_entries_a_write_changed_not_the_entries_it_carried() {
    let service = warmed(150);
    // Beside the 150 source-bound entries: the free query and the (so far
    // empty) answers for the tip about to arrive, which the write changes,
    // and a target-bound, a ground and a diagonal query it does not.
    for (query, answers) in [
        ("P(x, y)", 40 * 1_275 + 51),
        ("P(x, 900002)", 0),
        ("P(x, 51)", 50),
        ("P(7, 51)", 1),
        ("P(x, x)", 0),
    ] {
        let reply = service.query(&parse_atom(query).unwrap()).unwrap();
        assert_eq!(reply.answers.len(), answers, "{query}");
    }
    assert_eq!(service.stats().cache.patched, 0);
    service.apply_update(&tip(2)).unwrap();
    // The 51 warm sources on chain 0 gained an answer; so did the two above.
    assert_eq!(service.stats().cache.patched, 53);
    assert_eq!(service.stats().cache.invalidations, 0);
    assert_eq!(service.cache_len(), 155);
    for (query, answers) in [
        ("P(50, y)", 3),
        ("P(52, y)", 50),
        ("P(x, y)", 40 * 1_275 + 2 * 51),
        ("P(x, 900002)", 51),
        ("P(x, 51)", 50),
    ] {
        let reply = service.query(&parse_atom(query).unwrap()).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Hit, "{query}");
        assert_eq!(reply.answers.len(), answers, "{query}");
    }
}

#[test]
fn a_cache_hit_allocates_its_lookup_pattern_and_no_key_string_clone_or_lru_node() {
    // Bytes per hit, over every warm entry in turn (so each hit moves the
    // least recently used entry to the front).
    let per_hit = |warm: u64| {
        let service = warmed(warm);
        let queries: Vec<_> = (1..=warm).map(source_bound).collect();
        let sweep = || {
            for query in &queries {
                let reply = service.query(query).unwrap();
                assert_eq!(reply.stats.cache, CacheOutcome::Hit);
            }
        };
        sweep(); // whatever the recorder interns per label set is interned now
        let ((), bytes) = allocated_by(|| (0..4).for_each(|_| sweep()));
        bytes / (4 * queries.len())
    };
    // 64 entries and 512 entries in the one LRU: recency is two links
    // moved, not a tree node that fills up and splits.
    let (few, many) = (per_hit(64), per_hit(512));
    assert_eq!(few, many, "a hit's cost depends on how full the cache is");
    // Of a hit's 1 178 bytes, 1 152 are the flight recorder's one copy of
    // each event it keeps — the `request` / `admission` / `cache` spans and
    // the `serve.query` event — and 24 the cache's: the lookup key's one
    // constant check and one kept column. Tagging the events with the
    // request's trace id, the borrowed labels and the metric series found by
    // their borrowed labels cost nothing (3 816 B when each event was re-boxed
    // under its trace id and each labelled call built its label set). A
    // rendered key, its clone into a recency index and that index's nodes
    // cost 120 B more at 512 entries.
    assert!(many <= 2_100, "a cache hit allocated {many} B");
}

#[test]
fn a_served_hit_allocates_per_reply_not_per_answer() {
    use recurs_serve::protocol::{handle_line_with, LineOptions, LineOutcome};
    // One chain 1 → … → 401 in both relations: `P(361, y)` has 40 answers,
    // `P(1, y)` 400. Each line is served twice first, so the second call of
    // each is a warm hit and anything interned per label set is interned.
    let service = QueryService::new(tc(), forest(1, 1, 401), ServeConfig::default());
    let opts = LineOptions::default();
    let served_hit = |line: &str| {
        for _ in 0..2 {
            handle_line_with(&service, line, &opts);
        }
        let ((reply, calls), bytes) =
            allocated_by(|| calls_by(|| handle_line_with(&service, line, &opts)));
        let (LineOutcome::Reply(reply), _) = reply else {
            panic!("no reply to {line}");
        };
        assert!(reply.contains("\"cache\":\"hit\""), "{reply}");
        (reply, calls, bytes)
    };
    let (few_reply, few, few_bytes) = served_hit("@trace=1 ?- P(361, y).");
    let (many_reply, many, _) = served_hit("@trace=2 ?- P(1, y).");
    assert!(few_reply.contains("\"count\":40,"), "{few_reply}");
    assert!(many_reply.contains("\"count\":400,"), "{many_reply}");
    // A warm hit sends the rows' text its first hit rendered, into a reply
    // buffer sized for it: ten times the answers is a longer copy, not a
    // string and a row per answer (two calls per value before the reply was
    // written straight to text), nor a sort and a regrown buffer (21 calls
    // against 19 while every hit rendered its rows again).
    assert_eq!(
        many, few,
        "a 40-answer hit made {few} allocator calls, a 400-answer hit {many}"
    );
    // 2 977 B in 18 calls (3 618 B in 19 while every hit sorted and wrote
    // its rows again; 4 026 B in 32 while the rows were sorted as `Value`s
    // and the reply's `stats` built as a tree first; 6 675 B in 83 before a
    // request's events were tagged in its handle): the 1 178 B
    // `QueryService::query` allocates for a hit (the test above), the
    // request's parse and the reply text, sized once for the envelope and
    // the kept rows.
    assert!(
        few_bytes <= 2_977,
        "a served 40-answer hit allocated {few_bytes} B"
    );
    assert!(
        few <= 18,
        "a served 40-answer hit made {few} allocator calls"
    );
}
