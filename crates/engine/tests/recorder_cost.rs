//! What the no-op recorder costs, as a count rather than a clock: every
//! emission site in the engine is one `Obs::enabled()` branch (a `None`
//! check on the no-op handle) guarding a few counter or event calls, and
//! each site fires once per run, per round, or per rule per round — never
//! per tuple. So a counting recorder that keeps detail sees at most
//! `PER_ROUND_RULE · rounds · rules + PER_RUN` calls, and the count grows
//! with rounds, not with the tuples derived. The no-op handle takes the same
//! branches and makes none of the calls. Within that, the round driver's
//! counters are per call, not per round: one `drive_rounds` call adds its
//! fresh tuples and its rounds once each, while its events stay one per
//! rule per round and one per round. A sink that keeps no detail — the
//! aggregator and the flight ring a served miss runs under — is sent the
//! per-run calls alone, `PER_RUN_WITHOUT_DETAIL` of them, however many
//! rounds the run takes.

use recurs_datalog::database::Database;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_engine::compile::CompiledRule;
use recurs_engine::{drive_rounds, saturate_linear, EngineConfig, EngineDb};
use recurs_obs::{Obs, Recorder, TraceId, Value};
use recurs_workload::graphs::chain;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls per round and rule allowed a sink that keeps detail: a round's
/// `engine.iteration` event and one `engine.rule` event per rule it runs.
const PER_ROUND_RULE: u64 = 3;
/// Calls per run allowed beside them.
const PER_RUN: u64 = 7;
/// Every call a sink that keeps no detail receives from one saturation:
/// the dispatch event, the run counter and start event, the round driver's
/// two counters, the probe and probe-hit counters, and completion.
const PER_RUN_WITHOUT_DETAIL: u64 = 8;

/// Counts every call a sink receives, and among them the counter calls, the
/// rounds (one `engine.iteration` event each) and the `engine.rule` events.
#[derive(Debug, Default)]
struct Counting {
    detail: bool,
    calls: AtomicU64,
    counters: AtomicU64,
    rounds: AtomicU64,
    rule_events: AtomicU64,
}

impl Counting {
    /// A sink that keeps per-round detail, as a trace file does.
    fn detailed() -> Arc<Counting> {
        Arc::new(Counting {
            detail: true,
            ..Counting::default()
        })
    }

    /// A sink that keeps none, as the aggregator and the flight ring.
    fn per_run() -> Arc<Counting> {
        Arc::new(Counting::default())
    }
}

impl Recorder for Counting {
    fn detail(&self) -> bool {
        self.detail
    }

    fn counter(&self, _: &'static str, _: &[(&'static str, &'static str)], _: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.fetch_add(1, Ordering::Relaxed);
    }

    fn observe(&self, _: &'static str, _: &[(&'static str, &'static str)], _: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn event(&self, kind: &'static str, _: &[(&'static str, Value)], _: Option<TraceId>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match kind {
            "engine.iteration" => self.rounds.fetch_add(1, Ordering::Relaxed),
            "engine.rule" => self.rule_events.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// What one counted run did.
#[derive(Debug)]
struct Counted {
    calls: u64,
    rounds: u64,
    tuples: usize,
}

impl Counted {
    fn assert_bounded(&self, what: &str, rules: u64) {
        let bound = PER_ROUND_RULE * self.rounds * rules + PER_RUN;
        assert!(
            self.calls <= bound,
            "{what}: {} recorder calls for {} tuples in {} rounds (bound {bound})",
            self.calls,
            self.tuples,
            self.rounds
        );
    }
}

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tc(n: u64) -> (LinearRecursion, Database) {
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("E", chain(n));
    (lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y)."), db)
}

/// Same generation over the complete binary tree on `nodes` vertices.
fn sg(nodes: u64) -> (LinearRecursion, Database) {
    let mut db = Database::new();
    db.insert_relation("Up", Relation::from_pairs((2..=nodes).map(|c| (c, c / 2))));
    db.insert_relation(
        "Down",
        Relation::from_pairs((2..=nodes).map(|c| (c / 2, c))),
    );
    db.insert_relation("Flat", Relation::from_pairs([(1, 1)]));
    let sg = lr("SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).");
    (sg, db)
}

/// Saturates `lr` over `db` with `counting` attached. `rounds` are the
/// rounds the run took, whether or not the sink was sent them.
fn saturate_with((lr, db): &(LinearRecursion, Database), counting: Arc<Counting>) -> Counted {
    let config = EngineConfig {
        obs: Obs::new(counting.clone()),
        ..EngineConfig::default()
    };
    let mut store = EngineDb::from(db);
    let sat = saturate_linear(&mut store, lr, &config).unwrap();
    assert!(sat.outcome.is_complete());
    Counted {
        calls: counting.calls.load(Ordering::Relaxed),
        rounds: sat.stats.iterations.len() as u64,
        tuples: sat.stats.tuples_derived,
    }
}

/// Saturates `lr` over `db` with a counting recorder that keeps detail,
/// and checks it was sent one `engine.iteration` event a round.
fn saturate_counted(workload: &(LinearRecursion, Database)) -> Counted {
    let counting = Counting::detailed();
    let counted = saturate_with(workload, counting.clone());
    assert_eq!(counting.rounds.load(Ordering::Relaxed), counted.rounds);
    counted
}

fn rules(lr: &LinearRecursion) -> u64 {
    lr.to_program().rules.len() as u64
}

#[test]
fn same_generation_emits_per_round_not_per_tuple() {
    let (small, large) = (sg(255), sg(1023));
    let rules = rules(&small.0);
    let (small, large) = (saturate_counted(&small), saturate_counted(&large));
    small.assert_bounded("sg/255", rules);
    large.assert_bounded("sg/1023", rules);
    // 16x the tuples; the extra calls are the extra rounds' and no more.
    assert!(large.tuples >= 10 * small.tuples, "{small:?} vs {large:?}");
    assert!(
        large.calls - small.calls <= PER_ROUND_RULE * rules * (large.rounds - small.rounds),
        "sg/255 {small:?} vs sg/1023 {large:?}"
    );
}

#[test]
fn transitive_closure_emits_per_round_not_per_tuple() {
    let workload = tc(800);
    let counted = saturate_counted(&workload);
    assert!(counted.tuples > 300_000, "{counted:?}");
    counted.assert_bounded("tc/800", rules(&workload.0));
}

#[test]
fn a_sink_without_detail_is_called_per_run_not_per_round() {
    // 400 rounds of one-tuple-per-source deltas on the chain, 10 on SG: the
    // same calls either way.
    for (what, workload) in [("tc/400", tc(400)), ("sg/1023", sg(1023))] {
        let counting = Counting::per_run();
        let counted = saturate_with(&workload, counting.clone());
        assert!(counted.rounds >= 10, "{what}: {counted:?}");
        assert_eq!(counted.calls, PER_RUN_WITHOUT_DETAIL, "{what}: {counted:?}");
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        assert_eq!(read(&counting.rounds), 0, "{what}: iteration events");
        assert_eq!(read(&counting.rule_events), 0, "{what}: rule events");
    }
}

/// A rank-tracked saturation over `lr` and `db` with a counting handle: the
/// exit rules seed, the recursive rule's delta pipeline propagates, and the
/// merge records the round each tuple first appeared in. `why` no longer
/// runs one — it walks a store an ordinary saturation filled — but the
/// caller-built `drive_rounds` call, with a merge that does work per fresh
/// tuple, is the case a recorder must still not multiply. Returns the sink,
/// the round count and the ranks.
fn rank_tracked((lr, db): &(LinearRecursion, Database)) -> (Arc<Counting>, u64, Vec<u64>) {
    let mut store = EngineDb::from(db);
    store.declare(lr.predicate, lr.dimension()).unwrap();
    let p_pos = lr
        .recursive_rule
        .body
        .iter()
        .position(|a| a.predicate == lr.predicate)
        .unwrap();
    let rec = CompiledRule::compile(&lr.recursive_rule, Some(p_pos), &store).unwrap();
    let exits: Vec<CompiledRule> = lr
        .exit_rules
        .iter()
        .map(|rule| CompiledRule::compile(rule, None, &store).unwrap())
        .collect();
    for rule in exits.iter().chain([&rec]) {
        store.ensure_indexes(rule);
    }
    let counting = Counting::detailed();
    let mut ranks: Vec<u64> = Vec::new();
    let run = drive_rounds(
        &mut store,
        Some(&exits),
        std::slice::from_ref(&rec),
        BTreeMap::new(),
        None,
        &EvalBudget::unlimited().start(),
        &Obs::new(counting.clone()),
        |store, round, rule, heads, fresh| {
            store.insert_fresh(rule.head_pred, heads, fresh);
            let derived = store.get(rule.head_pred).map_or(0, |r| r.len());
            ranks.resize(derived, round as u64);
        },
    )
    .unwrap();
    (counting, run.iterations.len() as u64, ranks)
}

#[test]
fn a_rank_tracked_saturation_emits_per_round_not_per_tuple() {
    let workload = sg(1023);
    let (counting, rounds, ranks) = rank_tracked(&workload);
    let counted = Counted {
        calls: counting.calls.load(Ordering::Relaxed),
        rounds: counting.rounds.load(Ordering::Relaxed),
        tuples: ranks.len(),
    };
    assert_eq!(counted.rounds, rounds);
    assert_eq!(ranks.last().copied(), Some(9), "the leaves pair up last");
    counted.assert_bounded("rank-tracked sg/1023", rules(&workload.0));
}

#[test]
fn a_drive_rounds_call_adds_its_counters_once_and_emits_per_round() {
    // 10 rounds on SG, 200 on a TC chain: the counter calls stay two, the
    // fresh tuples and the rounds.
    for (what, workload) in [("sg/1023", sg(1023)), ("tc/200", tc(200))] {
        let (counting, rounds, _) = rank_tracked(&workload);
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        assert!(rounds >= 10, "{what}: {rounds} rounds");
        assert_eq!(read(&counting.counters), 2, "{what}: counter calls");
        assert_eq!(
            read(&counting.rounds),
            rounds,
            "{what}: one iteration event a round"
        );
        let rule_events = read(&counting.rule_events);
        assert!(
            rule_events >= rounds && rule_events <= rounds * rules(&workload.0),
            "{what}: {rule_events} rule events in {rounds} rounds"
        );
    }
}
