//! What a patch costs, as counts rather than a clock.
//!
//! * **The floor.** A single tip edge on tc/800 changes 800 of the 320 000
//!   derived tuples, so either patch direction must touch at most a fifth of
//!   what a cold saturation holds — touched being the tuples inserted,
//!   overdeleted and rederived, and every tuple of the fixpoint when the
//!   patch fell back to a cold rebuild.
//! * **The recorder.** Every pass of a patch is a `drive_rounds` call, whose
//!   emission sites fire per round or per rule per round; with `apply`'s own
//!   counter and event, a counting recorder that keeps detail sees at most
//!   `PER_ROUND_RULE · rounds · rules + PER_RUN` calls however many tuples
//!   the patch moves. The no-op handle takes the same branches and makes
//!   none of the calls.
//! * **The view's memory.** The view carries one index per column for its
//!   readers and no other: the recount pipelines' step over the view binds
//!   every column, so it looks its tuple up in the dedup table.

use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::EngineDb;
use recurs_ivm::{EdbDelta, FactOp, MaintenancePath, Materialization, PatchReport};
use recurs_obs::{Obs, Recorder, TraceId, Value};
use recurs_workload::graphs::chain;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls per round and rule allowed a sink that keeps detail: a round's
/// `engine.iteration` event and one `engine.rule` event per rule it runs.
const PER_ROUND_RULE: u64 = 3;
/// Calls per patch or saturation: the `ivm.*` counter and event, and each
/// `drive_rounds` call's two counters.
const PER_RUN: u64 = 8;

/// Counts every call a sink receives, and the rounds among them (one
/// `engine.iteration` event each). It keeps detail, so it is sent every
/// round.
#[derive(Debug, Default)]
struct Counting {
    calls: AtomicU64,
    rounds: AtomicU64,
}

impl Counting {
    /// `(calls, rounds)` so far.
    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.rounds.load(Ordering::Relaxed),
        )
    }
}

impl Recorder for Counting {
    fn detail(&self) -> bool {
        true
    }

    fn counter(&self, _: &'static str, _: &[(&'static str, &'static str)], _: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn observe(&self, _: &'static str, _: &[(&'static str, &'static str)], _: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn event(&self, kind: &'static str, _: &[(&'static str, Value)], _: Option<TraceId>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if kind == "engine.iteration" {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

/// From-scratch fixpoint of the recursive predicate over `edb`, by the
/// oracle.
fn oracle_relation(lr: &LinearRecursion, edb: &Database) -> Relation {
    let mut db = edb.clone();
    db.insert_relation(lr.predicate, Relation::new(lr.dimension()));
    semi_naive(&mut db, &lr.to_program(), None).unwrap();
    db.get(lr.predicate).unwrap().clone()
}

/// The inserting and the deleting delta of one fact over `db`, and the
/// database with the fact inserted; each delta is normalized against the
/// state it is applied to.
fn toggle(db: &Database, pred: &str, pair: [u64; 2]) -> (EdbDelta, EdbDelta, Database) {
    let (pred, fact) = (Symbol::intern(pred), tuple_u64(pair));
    let mut inserted = db.clone();
    inserted.insert(pred, fact.clone()).unwrap();
    let insert = EdbDelta::normalize(&[FactOp::Insert(pred, fact.clone())], &EngineDb::from(db));
    let delete = EdbDelta::normalize(&[FactOp::Delete(pred, fact)], &EngineDb::from(&inserted));
    (insert.unwrap(), delete.unwrap(), inserted)
}

/// Tuples a patch touched: inserted, overdeleted and rederived — or, after
/// a cold fallback, every tuple of the rebuilt `fixpoint`.
fn touched(report: &PatchReport, fixpoint: usize) -> usize {
    match report.path {
        MaintenancePath::ColdFallback => fixpoint,
        _ => report.stats.idb_inserted + report.stats.overdeleted + report.stats.rederived,
    }
}

#[test]
fn a_tip_edge_patch_touches_at_most_a_fifth_of_the_cold_fixpoint() {
    let tc = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
    let mut db = Database::new();
    db.insert_relation("A", chain(800));
    db.insert_relation("E", chain(800));
    let (insert, delete, inserted) = toggle(&db, "E", [800, 801]);
    let budget = EvalBudget::unlimited();
    let mut mat = Materialization::saturate(&tc, &db, &budget, &Obs::noop()).unwrap();
    for (what, delta, edb) in [
        ("+E(800, 801)", &insert, &inserted),
        ("-E(800, 801)", &delete, &db),
    ] {
        let report = mat.apply(delta, &budget).unwrap();
        assert_eq!(
            mat.relation().to_relation(),
            oracle_relation(&tc, edb),
            "{what}: the patched fixpoint is not the from-scratch one"
        );
        let cold = Materialization::saturate(&tc, edb, &budget, &Obs::noop()).unwrap();
        let touched = touched(&report, mat.relation().len());
        let holds = cold.relation().len();
        assert!(
            touched * 5 <= holds,
            "{what}: touched {touched} of the {holds} tuples a cold saturation holds ({report:?})"
        );
    }
}

#[test]
fn a_patch_emits_per_round_not_per_tuple() {
    // Same generation over the complete binary tree on 255 vertices;
    // `Flat(2, 4)` pairs the nodes k levels below node 2 with those k levels
    // below node 4, k = 0..=5: 1 365 tuples in and out.
    let sg = lr("SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).");
    let rules = sg.to_program().rules.len() as u64;
    let mut db = Database::new();
    db.insert_relation("Up", Relation::from_pairs((2..=255).map(|c| (c, c / 2))));
    db.insert_relation("Down", Relation::from_pairs((2..=255).map(|c| (c / 2, c))));
    db.insert_relation("Flat", Relation::from_pairs([(1, 1)]));
    let (insert, delete, _) = toggle(&db, "Flat", [2, 4]);
    let budget = EvalBudget::unlimited();
    let counting = Arc::new(Counting::default());
    let mut mat =
        Materialization::saturate(&sg, &db, &budget, &Obs::new(counting.clone())).unwrap();
    let mut before = (0, 0);
    let mut assert_bounded = |what: &str, moved: usize| {
        let now = counting.read();
        let (calls, rounds) = (now.0 - before.0, now.1 - before.1);
        before = now;
        let bound = PER_ROUND_RULE * rounds * rules + PER_RUN;
        assert!(
            calls <= bound,
            "{what}: {calls} recorder calls for {moved} tuples in {rounds} rounds (bound {bound})"
        );
        rounds
    };
    assert_bounded("saturate sg/255", mat.relation().len());
    for (what, delta) in [("+Flat(2, 4)", &insert), ("-Flat(2, 4)", &delete)] {
        let report = mat.apply(delta, &budget).unwrap();
        let moved = report.stats.idb_inserted + report.stats.idb_deleted;
        assert_eq!(moved, 1365, "{what}: {report:?}");
        let rounds = assert_bounded(what, moved);
        assert!(rounds >= report.stats.rounds, "{what}: {report:?}");
    }
}

#[test]
fn a_patched_view_carries_one_index_per_column_and_no_full_key_index() {
    // 16 chains of 50 vertices in both relations: 19 600 derived tuples.
    let tc = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
    let forest = (0..16).flat_map(|c| (1..50).map(move |i| (c * 50 + i, c * 50 + i + 1)));
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs(forest.clone()));
    db.insert_relation("E", Relation::from_pairs(forest));
    // An edge out of the middle of chain 0, in and out again.
    let (insert, delete, _) = toggle(&db, "E", [25, 900_000]);
    let budget = EvalBudget::unlimited();
    let mut mat = Materialization::saturate(&tc, &db, &budget, &Obs::noop()).unwrap();
    for delta in [&insert, &delete] {
        mat.apply(delta, &budget).unwrap();
    }
    let view = mat.relation();
    assert_eq!(view.len(), 19_600);
    assert_eq!(view.index_count(), view.arity());
    assert!(view.has_index(&[0]) && view.has_index(&[1]) && !view.has_index(&[0, 1]));
    // 874 928 B: 528 384 B of rows and dedup table, and two single-column
    // indexes. A `[0, 1]` index the recount built beside the rows, in place
    // of the readers' two, held 947 504 B.
    assert!(
        view.heap_bytes() < 947_504,
        "the view holds {} B",
        view.heap_bytes()
    );
}
