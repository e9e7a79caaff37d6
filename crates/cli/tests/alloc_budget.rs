//! Allocation budget for the batch path: `recurs run --engine indexed`
//! converts the parsed facts to the engine's store once, saturates that
//! store, and answers from it. It must allocate what those three steps and
//! the printed text allocate — no second copy of the facts, no copy of the
//! fixpoint. Bytes are counted per thread by a wrapping global allocator, so
//! the parallel test harness does not blur the numbers.

use recurs_cli::{execute, load, Command};
use recurs_engine::{saturate_linear, EngineConfig, EngineDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

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

#[test]
fn an_engine_run_allocates_for_one_store_and_its_answers() {
    // Transitive closure over the chain 1 → … → 300: 44 850 derived tuples,
    // 299 of them answers.
    let mut src = String::from("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\n");
    for i in 1..300 {
        let _ = writeln!(src, "A({i}, {}). E({i}, {}).", i + 1, i + 1);
    }
    src.push_str("?- P(1, y).\n");
    let cmd = Command::Run {
        file: String::new(),
        check: false,
        engine: true,
        opts: recurs_cli::ServiceOpts::default(),
        stats_json: false,
        metrics: false,
        why: None,
        why_depth: recurs_ivm::DEFAULT_WHY_DEPTH,
    };
    let (out, run) = allocated_by(|| execute(&cmd, &src, None).unwrap());
    assert!(out.text.contains("(299 answers)"), "{}", out.text);

    // The same steps by hand: parse, one conversion, one saturation.
    let (_, steps) = allocated_by(|| {
        let loaded = load(&src).unwrap();
        let mut store = EngineDb::from(&loaded.db);
        saturate_linear(&mut store, &loaded.lr, &EngineConfig::default()).unwrap();
        assert_eq!(store.get("P".into()).map(|p| p.len()), Some(44_850));
    });
    let budget = (steps + out.text.len()) * 5 / 4;
    assert!(
        run <= budget,
        "the run allocated {run} B; parse + one store + saturation + the \
         printed text allocate {steps} + {} B",
        out.text.len()
    );
}
