//! `recurs-engine` — an indexed semi-naive execution engine whose round cap
//! the classification chooses.
//!
//! The oracle evaluator in `recurs_datalog::eval` is written for clarity and
//! only ever checks results: it re-plans the join order and re-normalizes
//! atoms as it goes, knows no budget beyond a round cap and reports nothing.
//! This crate is the evaluator that *runs* — governed, traced, with
//! statistics — under the same semantics (it is differentially tested
//! against the oracle), with all of that work moved out of the loop:
//!
//! * **Storage** ([`storage`]): [`storage::IndexedRelation`] is one flat
//!   arena of rows plus *persistent* hash indexes — tables of row ids keyed
//!   in place — on the columns rules join on. Each index is built once and
//!   maintained incrementally as deltas merge, so iteration cost tracks the
//!   delta, not the accumulated relation.
//! * **Compilation** ([`compile`]): each rule (differentiated per delta
//!   position) becomes a fixed [`compile::CompiledRule`] pipeline — seed
//!   selection/projection, then hash-probe join steps with constants folded
//!   into the index keys.
//! * **The round driver** ([`drive_rounds`]): the one semi-naive loop. It
//!   owns the per-round budget check, the optional round cap, the fault
//!   hook, seed-row construction, pipeline execution, probe counters and the
//!   `engine.iteration` / `engine.rule` events; callers plug in a `merge`
//!   that decides which head rows are fresh. The engine kernels below and
//!   the incremental-maintenance loops of `recurs-ivm` are all
//!   instantiations of it; `recurs-ivm`'s provenance walks a store they
//!   saturated and runs no rounds of its own. A ground query's run ends at
//!   the round that stores its one tuple.
//! * **Kernels**: the classification changes only *how many rounds* a
//!   whole saturation runs. A proven rank bound
//!   (`Classification::rank_bound`, or a lowering's `round_cap`) is the
//!   driver's round cap, `None` the generic loop; [`saturate`] takes it as
//!   it is, and [`kernel_label`] names it (`unroll(N)` or `generic`).
//! * **The executor** ([`evaluate`]): the one function that answers a
//!   planned query — it lowers the [`QueryPlan`](recurs_core::QueryPlan),
//!   saturates that program over a private clone of the caller's store and
//!   selects the answer atom. [`oracle`] checks it against the fixpoint.
//!
//! # Failure semantics
//!
//! Every run is governed by the [`EngineConfig::budget`]
//! ([`recurs_datalog::govern::EvalBudget`]): the driver checks the full
//! budget at each round boundary and pipelines poll cancellation/deadline
//! cooperatively every few hundred rows. A run that stops early returns
//! `Ok(`[`Saturation`]`)` with [`Outcome::Truncated`] and leaves a *sound
//! under-approximation* of the fixpoint in the store — every derived tuple
//! is a true consequence; stopping only omits tuples.
//!
//! [`EngineStats`] reports per-iteration timings, delta sizes and index hit
//! counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library paths must surface failures as `Err`, never panic on input; unit
// tests (compiled only under cfg(test)) are exempt. CI runs clippy with
// `-D warnings`, making this a hard gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod compile;
mod driver;
pub mod error;
mod evaluate;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod oracle;
mod order;
pub mod stats;
pub mod storage;

pub use compile::{select, select_counted, Selection};
pub use driver::{drive_rounds, Rounds};
pub use error::{EngineError, Saturation};
pub use evaluate::{evaluate, Evaluation};
pub use stats::{kernel_label, EngineStats, IterationStats};
pub use storage::{Batch, EngineDb, Fresh, IndexedRelation};

use compile::CompiledRule;
use recurs_datalog::database::Database;
use recurs_datalog::govern::{EvalBudget, Outcome};
use recurs_datalog::rule::{LinearRecursion, Program};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use recurs_obs::{field, Obs};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Resource budget. The default is unlimited (run to fixpoint); any
    /// tripped ceiling ends the run with [`Outcome::Truncated`] rather than
    /// an error. Iteration caps count the seeding round — a cap of `k` runs
    /// the seeding round plus at most `k - 1` recursive rounds, the same
    /// definition `recurs_datalog::eval` uses.
    pub budget: EvalBudget,
    /// Observability handle. The default ([`Obs::noop`]) records nothing
    /// and costs one predictable branch per emission site; an active
    /// handle receives `engine.*` provenance events, per-iteration
    /// counters, and iteration-duration histograms.
    pub obs: Obs,
}

/// Saturates `storage` in place with the recursion's consequences, capped at
/// its classification's rank bound when it has one — the store-level form of
/// [`run_linear`]: nothing is loaded or copied back, the fixpoint (or a sound
/// under-approximation of it, on [`Outcome::Truncated`]) stays in the store
/// for [`select`] to read. Every body relation must already be stored.
pub fn saturate_linear(
    storage: &mut EngineDb,
    lr: &LinearRecursion,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    let round_cap = dispatch(lr, config);
    let compiled = CompiledProgram::compile(&lr.to_program(), storage)?;
    saturate(storage, &compiled, round_cap, config)
}

/// Saturates `db` with the program's consequences, capped at the recursion's
/// rank bound when its classification proves one. IDB relations are written
/// back into `db` (EDB relations are untouched) — on [`Outcome::Truncated`]
/// runs too, where they hold a sound under-approximation of the fixpoint.
pub fn run_linear(
    db: &mut Database,
    lr: &LinearRecursion,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    run_with_cap(db, &lr.to_program(), dispatch(lr, config), config)
}

/// The round cap the recursion's rank bound sets, recorded as the
/// `engine.dispatch` event: which class the formula fell in and the kernel
/// its round cap makes.
fn dispatch(lr: &LinearRecursion, config: &EngineConfig) -> Option<u64> {
    let classification = recurs_core::Classification::of(&lr.recursive_rule);
    let round_cap = classification.rank_bound();
    if config.obs.enabled() {
        config.obs.event(
            "engine.dispatch",
            &[
                ("class", field::st(classification.class.label())),
                ("kernel", kernel_label(round_cap).into()),
            ],
        );
    }
    round_cap
}

/// Saturates `db` with an arbitrary program using the generic semi-naive
/// kernel (no classification needed; handles multi-rule, multi-predicate
/// programs and mutual recursion).
pub fn run_program(
    db: &mut Database,
    program: &Program,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    run_with_cap(db, program, None, config)
}

/// [`saturate`] between a load and a write-back, under the round cap
/// [`run_linear`] or [`run_program`] set: every relation the program
/// mentions is copied into an [`EngineDb`], and the IDB relations are copied
/// back out.
fn run_with_cap(
    db: &mut Database,
    program: &Program,
    round_cap: Option<u64>,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    // Declare IDB relations up front (arity checks, like the oracle does);
    // body predicates must exist.
    for rule in &program.rules {
        db.declare(rule.head.predicate, rule.head.arity())?;
    }
    let mut storage = EngineDb::new();
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            if storage.get(atom.predicate).is_none() {
                storage.load(atom.predicate, db.require(atom.predicate)?);
            }
        }
    }
    let compiled = CompiledProgram::compile(program, &storage)?;
    let sat = saturate(&mut storage, &compiled, round_cap, config)?;
    for pred in program.idb_predicates() {
        db.insert_relation(pred, storage.relation(pred)?.to_relation());
    }
    Ok(sat)
}

/// A program's pipelines, compiled against the store they will run on:
/// non-recursive rules seed iteration 0; rules with IDB body atoms get one
/// differentiated variant per IDB occurrence. Compilation only reads the
/// store (relation sizes steer the join order; a relation not stored yet
/// sorts last), so a caller can ask what the pipelines will probe before
/// anything is written.
#[derive(Debug)]
pub struct CompiledProgram {
    idb: BTreeSet<Symbol>,
    init: Vec<CompiledRule>,
    variants: Vec<CompiledRule>,
}

impl CompiledProgram {
    /// Compiles every rule of `program` for execution over `storage`.
    pub fn compile(program: &Program, storage: &EngineDb) -> Result<CompiledProgram, EngineError> {
        let idb: BTreeSet<Symbol> = program.idb_predicates();
        let mut init: Vec<CompiledRule> = Vec::new();
        let mut variants: Vec<CompiledRule> = Vec::new();
        for rule in &program.rules {
            let idb_positions: Vec<usize> = (0..rule.body.len())
                .filter(|&i| idb.contains(&rule.body[i].predicate))
                .collect();
            if idb_positions.is_empty() {
                init.push(CompiledRule::compile(rule, None, storage)?);
            }
            for pos in idb_positions {
                variants.push(CompiledRule::compile(rule, Some(pos), storage)?);
            }
        }
        Ok(CompiledProgram {
            idb,
            init,
            variants,
        })
    }

    fn rules(&self) -> impl Iterator<Item = &CompiledRule> {
        self.init.iter().chain(&self.variants)
    }

    /// The `(predicate, key columns)` indexes the pipelines probe.
    pub fn required_indexes(&self) -> impl Iterator<Item = (Symbol, &[usize])> {
        self.rules().flat_map(CompiledRule::required_indexes)
    }
}

/// Saturates `storage` in place with the compiled program's consequences:
/// the fixpoint (or, on [`Outcome::Truncated`], a sound under-approximation
/// of it) is left in the IDB relations of the store the pipelines ran on.
/// Head predicates are declared if absent; body predicates the caller must
/// have stored. Every index the pipelines probe and the store lacks is
/// built once, before the loop (and stays with this store: a relation other
/// stores share keeps sharing its rows). Tuples already in an IDB relation
/// (magic seeds) take part as the first delta. A `round_cap` — a proven rank
/// bound — ends the run, complete, after that many recursive rounds.
pub fn saturate(
    storage: &mut EngineDb,
    program: &CompiledProgram,
    round_cap: Option<u64>,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    saturate_until(storage, program, round_cap, config, None)
}

/// [`saturate`], ending — complete — after the first round that stores
/// `witness` (a relation and one tuple) when one is given: a ground query's
/// one answer.
pub(crate) fn saturate_until(
    storage: &mut EngineDb,
    program: &CompiledProgram,
    round_cap: Option<u64>,
    config: &EngineConfig,
    witness: Option<(Symbol, &[Value])>,
) -> Result<Saturation, EngineError> {
    let governor = config.budget.start();
    // Index work is reported per run: the indexes this run built, and one
    // update per index of a head relation for each row it gained.
    let indexes_before = storage.index_count();
    for rule in program.rules() {
        storage.declare(rule.head_pred, rule.head_arity)?;
        storage.ensure_indexes(rule);
    }
    let index_builds = (storage.index_count() - indexes_before) as u64;
    let mut index_updates = 0u64;

    let obs = &config.obs;
    if obs.enabled() {
        // A metric label is static: `unroll(N)` is interned, once per rank.
        let kernel = match kernel_label(round_cap) {
            Cow::Borrowed(label) => label,
            Cow::Owned(label) => Symbol::intern(&label).as_str(),
        };
        obs.counter("recurs_engine_runs_total", &[("kernel", kernel)], 1);
        obs.event("engine.start", &[("kernel", field::st(kernel))]);
    }

    // Tuples the caller pre-seeded into IDB relations (e.g. magic seeds)
    // must reach the recursive rules too: they start out as pending delta,
    // read where they are stored.
    let mut preseeded = Vec::new();
    for &pred in &program.idb {
        let rel = storage.relation(pred)?;
        if !rel.is_empty() {
            preseeded.push((pred, Fresh::all(rel)));
        }
    }
    // A proven rank is a cap that means completeness: the theorems
    // guarantee nothing new past it, so the run stops there without a
    // fixpoint-detection round.
    let rounds = driver::drive(
        storage,
        Some(&program.init),
        &program.variants,
        preseeded,
        round_cap,
        &governor,
        obs,
        witness,
        |storage, _round, rule, heads, fresh| {
            let before = fresh.len();
            storage.insert_fresh(rule.head_pred, heads, fresh);
            let indexes = storage
                .get(rule.head_pred)
                .map_or(0, IndexedRelation::index_count);
            index_updates += ((fresh.len() - before) * indexes) as u64;
        },
    )?;

    let stats = EngineStats {
        round_cap,
        tuples_derived: rounds.iterations.iter().map(|it| it.new_tuples).sum(),
        iterations: rounds.iterations,
        index_builds,
        index_updates,
        probes: rounds.probes,
        probe_hits: rounds.probe_hits,
    };
    if obs.enabled() {
        obs.counter("recurs_engine_probes_total", &[], stats.probes);
        obs.counter("recurs_engine_probe_hits_total", &[], stats.probe_hits);
        match rounds.truncation {
            Some(reason) => {
                let label = reason.label();
                obs.counter("recurs_engine_truncations_total", &[("reason", label)], 1);
                obs.event(
                    "engine.truncated",
                    &[
                        ("reason", field::st(label)),
                        ("iterations", field::uz(stats.iteration_count())),
                        ("tuples_derived", field::uz(stats.tuples_derived)),
                    ],
                );
            }
            None => obs.event(
                "engine.complete",
                &[
                    ("iterations", field::uz(stats.iteration_count())),
                    ("tuples_derived", field::uz(stats.tuples_derived)),
                    ("probes", field::u(stats.probes)),
                    ("probe_hits", field::u(stats.probe_hits)),
                    ("index_builds", field::u(stats.index_builds)),
                    ("index_updates", field::u(stats.index_updates)),
                    ("total_duration_us", field::us(stats.total_duration())),
                ],
            ),
        }
    }
    let outcome = rounds
        .truncation
        .map_or(Outcome::Complete, Outcome::Truncated);
    Ok(Saturation { outcome, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::eval::{naive, semi_naive};
    use recurs_datalog::govern::{CancelToken, TruncationReason};
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn tc_db(n: u64) -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db
    }

    fn tc_program() -> Program {
        parse_program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).").unwrap()
    }

    #[test]
    fn generic_engine_matches_oracle_on_chain() {
        let mut db1 = tc_db(9);
        let mut db2 = tc_db(9);
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        let sat = run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert!(sat.outcome.is_complete());
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(sat.stats.tuples_derived, db2.get("P").unwrap().len());
        assert!(sat.stats.probes > 0);
        assert!(sat.stats.index_builds > 0);
    }

    #[test]
    fn engine_matches_oracle_on_cycle() {
        let mut db1 = Database::new();
        db1.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        db1.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        let mut db2 = db1.clone();
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        let sat = run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert!(sat.outcome.is_complete());
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(db2.get("P").unwrap().len(), 9);
    }

    #[test]
    fn class_kernel_path_matches_oracle() {
        let lr = validate_with_generic_exit(&tc_program()).unwrap();
        let mut db1 = tc_db(7);
        let mut db2 = tc_db(7);
        semi_naive(&mut db1, &lr.to_program(), None).unwrap();
        let sat = run_linear(&mut db2, &lr, &EngineConfig::default()).unwrap();
        // TC is class A5: no rank bound, so the generic loop.
        assert_eq!(sat.stats.round_cap, None);
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
    }

    #[test]
    fn truncation_respects_iteration_cap() {
        let mut db = tc_db(40);
        let cfg = EngineConfig {
            budget: EvalBudget::iteration_cap(Some(3)),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(
            sat.outcome,
            Outcome::Truncated(TruncationReason::IterationCap)
        );
        assert_eq!(sat.stats.iteration_count(), 3);
        assert!(db.get("P").unwrap().len() < 39 * 40 / 2);
    }

    #[test]
    fn tuple_ceiling_truncates_with_sound_subset() {
        let mut db = tc_db(40);
        let cfg = EngineConfig {
            budget: EvalBudget::unlimited().with_max_tuples(50),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(
            sat.outcome,
            Outcome::Truncated(TruncationReason::TupleCeiling)
        );
        let mut full = tc_db(40);
        semi_naive(&mut full, &tc_program(), None).unwrap();
        let fixpoint = full.get("P").unwrap();
        for t in db.get("P").unwrap().iter() {
            assert!(fixpoint.contains(t));
        }
        assert!(db.get("P").unwrap().len() < fixpoint.len());
    }

    #[test]
    fn cancelled_token_truncates_before_work() {
        let mut db = tc_db(10);
        let token = CancelToken::new();
        token.cancel();
        let cfg = EngineConfig {
            budget: EvalBudget::unlimited().with_cancel(token),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(sat.outcome, Outcome::Truncated(TruncationReason::Cancelled));
        assert_eq!(sat.stats.iteration_count(), 0);
        // Write-back still happened (with nothing derived).
        assert!(db.get("P").unwrap().is_empty());
    }

    #[test]
    fn preseeded_idb_tuples_reach_recursive_rules() {
        // Matches the oracle's magic-seed semantics: tuples already in P
        // participate in the first recursive round.
        let mut db1 = Database::new();
        db1.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db1.insert_relation("E", Relation::new(2));
        db1.insert_relation("P", Relation::from_pairs([(3, 9)]));
        let mut db2 = db1.clone();
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(db2.get("P").unwrap().len(), 3); // (3,9) (2,9) (1,9)
    }

    #[test]
    fn missing_edb_relation_is_an_error() {
        let mut db = Database::new();
        let program = parse_program("Q(x) :- Missing(x, x).").unwrap();
        assert!(run_program(&mut db, &program, &EngineConfig::default()).is_err());
    }

    /// A served point query over `db`: plan, lower, evaluate.
    fn ask(lr: &LinearRecursion, db: &Database, query: &str, config: &EngineConfig) -> Evaluation {
        let query = parse_atom(query).unwrap();
        let plan = recurs_core::plan::plan_query(lr, &query).unwrap();
        evaluate(&plan, &query, &EngineDb::from(db), config, |_| None).unwrap()
    }

    #[test]
    fn a_ground_query_stops_at_its_witness() {
        // On a chain 1 → … → n, `P(1, 2)` holds after the walk's first
        // round and `P(2, 1)` never: each answer is naive's (on a chain of
        // 40, where naive is quick), and the rounds are counted on 1 600.
        let lr = validate_with_generic_exit(&tc_program()).unwrap();
        let config = EngineConfig::default();
        let mut fixpoint = tc_db(40);
        naive(&mut fixpoint, &lr.to_program(), None).unwrap();
        for (query, t) in [("P(1, 2)", [1, 2]), ("P(2, 1)", [2, 1])] {
            let holds = fixpoint.get("P").unwrap().contains(&tuple_u64(t));
            let answered = ask(&lr, &tc_db(40), query, &config);
            assert_eq!(answered.answers.len(), usize::from(holds), "{query}");
        }

        let db = tc_db(1_600);
        let found = ask(&lr, &db, "P(1, 2)", &config);
        assert!(found.saturation.outcome.is_complete());
        assert_eq!(found.answers.len(), 1);
        let rounds = found.saturation.stats.iteration_count();
        assert!(rounds <= 3, "{rounds} rounds");

        let absent = ask(&lr, &db, "P(2, 1)", &config);
        assert!(absent.saturation.outcome.is_complete());
        assert!(absent.answers.is_empty());
        // The walk goes to the end of the chain: the seeding round, one
        // round per vertex past 2, and the round that finds nothing new.
        assert_eq!(absent.saturation.stats.iteration_count(), 1_600);
    }

    /// Trips a token once the round after the seeding round has closed.
    #[derive(Debug)]
    struct TripAfterFirstLevel(CancelToken);

    impl recurs_obs::Recorder for TripAfterFirstLevel {
        fn detail(&self) -> bool {
            true
        }

        fn event(
            &self,
            kind: &'static str,
            fields: &[(&'static str, recurs_obs::Value)],
            _: Option<recurs_obs::TraceId>,
        ) {
            let closed = |(name, value): &(&str, recurs_obs::Value)| {
                *name == "iteration" && *value == field::uz(2)
            };
            if kind == "engine.iteration" && fields.iter().any(closed) {
                self.0.cancel();
            }
        }
    }

    #[test]
    fn a_cancelled_walk_stops_within_one_stride() {
        // `P(1, y)` walks a 100 000-chain one vertex a round; the token
        // trips after its first level.
        let lr = validate_with_generic_exit(&tc_program()).unwrap();
        let db = tc_db(100_000);
        let token = CancelToken::new();
        let config = EngineConfig {
            budget: EvalBudget::unlimited().with_cancel(token.clone()),
            obs: Obs::new(std::sync::Arc::new(TripAfterFirstLevel(token))),
        };
        let walked = ask(&lr, &db, "P(1, y)", &config);
        let stats = &walked.saturation.stats;
        assert_eq!(
            walked.saturation.outcome,
            Outcome::Truncated(TruncationReason::Cancelled)
        );
        // The first level read one row and found two tuples; whatever ran
        // after the trip visited at most one stride of rows.
        assert!(
            stats.probe_hits as usize <= 2 + compile::POLL_STRIDE,
            "{} rows visited",
            stats.probe_hits
        );
        assert_eq!(stats.iteration_count(), 2);
        let reach = |y: &[Value]| y[0].as_str().parse().is_ok_and(|y: u64| y > 1);
        assert!(walked.answers.iter().all(reach));
    }

    #[test]
    fn answer_rows_are_not_pending_delta() {
        // `P(1, y)` walks a chain one vertex a round: each round reads the
        // one new vertex and stores one answer row, which no rule reads, so
        // no round's incoming delta holds more than that vertex.
        let lr = validate_with_generic_exit(&tc_program()).unwrap();
        let walked = ask(&lr, &tc_db(40), "P(1, y)", &EngineConfig::default());
        assert!(walked.saturation.outcome.is_complete());
        assert_eq!(walked.answers.len(), 39);
        let iterations = &walked.saturation.stats.iterations;
        assert!(
            iterations.iter().all(|it| it.delta_in <= 1),
            "{iterations:?}"
        );
    }

    #[test]
    fn stats_record_per_iteration_deltas() {
        let mut db = tc_db(5);
        let sat = run_program(&mut db, &tc_program(), &EngineConfig::default()).unwrap();
        // Chain of 4 edges: the seed round derives 4 tuples, the recursive
        // rounds 3, 2, 1, and a final round finds nothing new.
        let deltas: Vec<usize> = sat.stats.iterations.iter().map(|i| i.new_tuples).collect();
        assert_eq!(deltas, vec![4, 3, 2, 1, 0]);
    }
}
