//! Allocator-level view of the batch path: same-generation saturated over a
//! complete binary tree (the `saturate-wide` shape). The store is flat — one
//! arena and a few id tables per relation, pipeline buffers reused across
//! rounds — so allocator *calls* follow buffer doublings and rounds, never
//! tuples, and the bytes the store reports are the bytes the allocator holds.
//! Counted per thread by a wrapping global allocator, so the parallel test
//! harness does not blur the numbers.

use recurs_datalog::database::Database;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_engine::{
    saturate, select, CompiledProgram, EngineConfig, EngineDb, KernelKind, Selection,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the allocator did on this thread so far.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// `alloc` + `realloc` calls.
    calls: usize,
    /// Bytes requested (a `realloc` counts its growth).
    bytes: usize,
    /// `dealloc` calls.
    frees: usize,
    /// Bytes currently held.
    live: isize,
    /// The most bytes held at once since the tally's high-water mark was
    /// last reset ([`tallied`] resets it).
    peak: isize,
}

impl Tally {
    fn since(self, earlier: Tally) -> Tally {
        Tally {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            frees: self.frees - earlier.frees,
            live: self.live - earlier.live,
            peak: self.peak - earlier.live,
        }
    }
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { calls: 0, bytes: 0, frees: 0, live: 0, peak: 0 })
    };
}

fn bump(f: impl FnOnce(&mut Tally)) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        f(&mut t);
        cell.set(t);
    });
}

struct Counting;

// SAFETY: defers every call to `System`; the tally is a const-initialized
// thread-local `Cell` with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(|t| {
            t.calls += 1;
            t.bytes += layout.size();
            t.live += layout.size() as isize;
            t.peak = t.peak.max(t.live);
        });
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(|t| {
            t.frees += 1;
            t.live -= layout.size() as isize;
        });
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(|t| {
            t.calls += 1;
            t.bytes += new_size.saturating_sub(layout.size());
            t.live += new_size as isize - layout.size() as isize;
            t.peak = t.peak.max(t.live);
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What this thread's allocator did while `f` ran; its `peak` is the most
/// bytes `f` held at once beyond what was held before it.
fn tallied<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = TALLY.with(|cell| {
        let t = Tally {
            peak: cell.get().live,
            ..cell.get()
        };
        cell.set(t);
        t
    });
    let out = f();
    (out, TALLY.with(Cell::get).since(before))
}

const SG: &str = "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).";

/// The complete binary tree on `nodes` vertices in heap order.
fn tree(nodes: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("Up", Relation::from_pairs((2..=nodes).map(|c| (c, c / 2))));
    db.insert_relation(
        "Down",
        Relation::from_pairs((2..=nodes).map(|c| (c / 2, c))),
    );
    db.insert_relation("Flat", Relation::from_pairs([(1, 1)]));
    db
}

/// `SG` pairs the nodes of each level: `(4^levels - 1) / 3` tuples.
fn sg_tuples(nodes: u64) -> usize {
    let levels = (nodes + 1).ilog2();
    (4usize.pow(levels) - 1) / 3
}

/// One saturation of `SG` over the tree, under an optional iteration cap:
/// the store it ran on, the rounds it took, and the allocator's view of the
/// conversion + index build (`setup`) and of the round loop (`rounds`).
struct Run {
    store: EngineDb,
    /// The store's heap bytes before the saturation.
    held: usize,
    iterations: usize,
    setup: Tally,
    rounds: Tally,
}

fn run(db: &Database, cap: Option<usize>) -> Run {
    let program = parse_program(SG).unwrap();
    let (store, load) = tallied(|| EngineDb::from(db));
    let mut store = store;
    let (compiled, index) = tallied(|| {
        let compiled = CompiledProgram::compile(&program, &store).unwrap();
        let missing = store.missing_indexes(compiled.required_indexes());
        store.build_indexes(&missing);
        compiled
    });
    let config = EngineConfig {
        budget: EvalBudget::iteration_cap(cap),
        ..EngineConfig::default()
    };
    let held = store.heap_bytes();
    let (sat, rounds) =
        tallied(|| saturate(&mut store, &compiled, KernelKind::Generic, &config).unwrap());
    Run {
        store,
        held,
        iterations: sat.stats.iterations.len(),
        setup: Tally {
            calls: load.calls + index.calls,
            bytes: load.bytes + index.bytes,
            frees: load.frees + index.frees,
            live: load.live + index.live,
            peak: load.peak.max(load.live + index.peak),
        },
        rounds,
    }
}

#[test]
fn saturation_allocates_per_round_not_per_tuple() {
    let (small, large) = (run(&tree(255), None), run(&tree(1023), None));
    for (nodes, r) in [(255, &small), (1023, &large)] {
        let tuples = sg_tuples(nodes);
        assert_eq!(r.store.get("SG".into()).map(|p| p.len()), Some(tuples));
        // Buffers double and are reused round after round: a constant number
        // of them, each growing log2(tuples) times at most, per round at worst.
        let bound = 2 * r.iterations * tuples.ilog2() as usize;
        assert!(
            r.rounds.calls <= bound,
            "SG over {nodes} nodes: {} allocator calls for {tuples} tuples in {} rounds (bound {bound})",
            r.rounds.calls,
            r.iterations
        );
    }
    // 16x the tuples, nowhere near 16x the calls.
    assert!(
        large.rounds.calls < 2 * small.rounds.calls,
        "{} calls over 255 nodes, {} over 1023",
        small.rounds.calls,
        large.rounds.calls
    );
}

#[test]
fn a_saturation_holds_few_bytes_beyond_the_store_it_grows() {
    // At its high-water mark a saturation holds at most the store it ends
    // with, plus the rows in flight: the widest round's 262 144 head rows
    // (4 MiB) and what else is live then. It reads 4.7 MB; a seed copy of
    // the delta and a batch per join step made it 8.9 MB.
    let r = run(&tree(1023), None);
    let grown = r.store.heap_bytes() - r.held;
    let in_flight = r.rounds.peak - grown as isize;
    const BOUND: isize = 5 << 20;
    assert!(
        in_flight <= BOUND,
        "SG over 1023 nodes: peak {} B above the start, the store grew {grown} B: {in_flight} B in flight (bound {BOUND})",
        r.rounds.peak
    );
}

#[test]
fn the_store_reports_the_bytes_the_allocator_holds() {
    // What budgets are checked against is what dropping the store gives
    // back: the buffers, by capacity, short only of a few map nodes and
    // reference counts.
    let store = run(&tree(255), None).store;
    let reported = store.heap_bytes();
    let ((), dropped) = tallied(|| drop(store));
    let held = usize::try_from(-dropped.live).unwrap();
    assert!(
        reported <= held && (held - reported) * 10 <= held,
        "the store reports {reported} B and frees {held} B"
    );
}

/// Prints the allocation table of EXPERIMENTS.md §10:
/// `cargo test --release -p recurs-engine --test alloc_profile -- --ignored --nocapture`.
#[test]
#[ignore = "a report, not a check"]
fn print_the_saturate_wide_allocation_profile() {
    let db = tree(1023);
    let full = run(&db, None);
    println!("| phase | allocator calls | bytes requested | frees |");
    println!("|---|---|---|---|");
    let row = |phase: &str, t: Tally| {
        println!("| {phase} | {} | {} | {} |", t.calls, t.bytes, t.frees);
    };
    row("load + index build", full.setup);
    // A run capped at k rounds does exactly the first k rounds of the full
    // one, so consecutive caps differ by one round's work.
    let mut before = Tally::default();
    for k in 1..=full.iterations {
        let capped = run(&db, Some(k)).rounds;
        row(&format!("round {k}"), capped.since(before));
        before = capped;
    }
    row("all rounds", full.rounds);
    let sg = full.store.get("SG".into()).unwrap();
    let query = Selection::of(&parse_atom("SG(512, y)").unwrap());
    let (answers, picked) = tallied(|| select(sg, &query));
    assert_eq!(answers.len(), 512);
    row("select SG(512, y)", picked);
    let live = TALLY.with(Cell::get).live;
    let ((), dropped) = tallied(|| drop(full.store));
    row("drop the store", dropped);
    println!(
        "store held {} B of {} B live on the thread",
        -dropped.live, live
    );
}
