//! The semi-naive round driver: the one loop in the workspace that calls
//! [`CompiledRule::execute`] round after round.
//!
//! The classification changes exactly one thing about bottom-up evaluation —
//! how many rounds a formula needs — so there is exactly one loop, and the
//! round cap is its one class-dependent argument. Everything else a caller
//! varies is *what counts as fresh*, which is the `merge` closure: set
//! insertion for the engine kernels, derivation-count bumps for incremental
//! maintenance, membership-filtered marking for overdeletion, first-round
//! rank for provenance.

use crate::compile::{CompiledRule, ProbeCounters, Row};
use crate::error::EngineError;
use crate::stats::IterationStats;
use crate::storage::EngineDb;
use recurs_datalog::govern::{Governor, Progress, TruncationReason};
use recurs_datalog::relation::Tuple;
use recurs_datalog::symbol::Symbol;
use recurs_obs::{field, Obs};
use std::collections::BTreeMap;
use std::time::Instant;

pub(crate) const UNLOADED_RELATION: &str =
    "compiled rule references a relation the driver never loaded";

/// What a [`drive_rounds`] call did and why it stopped.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    /// One entry per executed round, in order (the seeding round first,
    /// when there was one).
    pub iterations: Vec<IterationStats>,
    /// Hash-index probes issued by join steps.
    pub probes: u64,
    /// Tuples returned by those probes.
    pub probe_hits: u64,
    /// The budget ceiling (or injected fault) that stopped the run with
    /// work still pending; `None` when it ran to fixpoint or to the cap.
    pub truncation: Option<TruncationReason>,
    /// True when the round cap was reached with a non-empty delta pending.
    /// A proven rank bound makes that completeness (the engine kernels); a
    /// tripwire cap makes it a violation (incremental maintenance).
    pub capped: bool,
}

/// Runs semi-naive rounds over `db` until the delta dries up, `cap`
/// differentiated rounds have run, or the budget trips.
///
/// * `seed`: when given, a *seeding round* runs first — these rules execute
///   once against the full stored relation of their seed atom — and its
///   fresh tuples join `delta`. The seeding round does not count against
///   `cap`.
/// * `rules`: delta pipelines; each round seeds a rule from the pending
///   delta of its seed atom's predicate (rules with none are skipped).
/// * `merge(db, round, rule, heads)` receives one head row per enumerated
///   instantiation (duplicates included) after *every* rule of the round has
///   executed, so a round's joins never see that round's own output. It
///   applies whatever the caller's notion of novelty is and returns the
///   fresh tuples, which form the next round's delta under the rule's head
///   predicate. `round` is the 0-based index into [`Rounds::iterations`].
///
/// Every round starts with the fault hook (when compiled in) and a full
/// [`Governor::check`] against real progress — rounds run, fresh tuples so
/// far, pending delta, [`EngineDb::approx_bytes`]. A round interrupted
/// mid-pipeline still merges what it derived: every head row is a true
/// consequence, so stopping only omits tuples.
// One argument per independent input; bundling them would only add a type.
#[allow(clippy::too_many_arguments)]
pub fn drive_rounds<M>(
    db: &mut EngineDb,
    seed: Option<&[CompiledRule]>,
    rules: &[CompiledRule],
    mut delta: BTreeMap<Symbol, Vec<Tuple>>,
    cap: Option<u64>,
    governor: &Governor,
    obs: &Obs,
    mut merge: M,
) -> Result<Rounds, EngineError>
where
    M: FnMut(&mut EngineDb, usize, &CompiledRule, Vec<Tuple>) -> Vec<Tuple>,
{
    let mut out = Rounds::default();
    let mut counters = ProbeCounters::default();
    let mut seeding = seed;
    let mut fresh_total = 0usize;
    loop {
        let round = out.iterations.len();
        // The seeding round reads stored relations, not the delta.
        let pending: usize = match seeding {
            Some(_) => 0,
            None => delta.values().map(Vec::len).sum(),
        };
        if seeding.is_none() {
            if pending == 0 {
                break; // genuine fixpoint
            }
            let differentiated = round - usize::from(seed.is_some());
            if cap.is_some_and(|c| differentiated as u64 >= c) {
                out.capped = true;
                break;
            }
        }
        #[cfg(any(test, feature = "fault-inject"))]
        if crate::fault::round_start(round as u64, obs) {
            out.truncation = Some(TruncationReason::Cancelled);
            break;
        }
        if let Some(reason) = governor.check(Progress {
            iterations: round,
            tuples: fresh_total,
            delta: pending,
            memory_bytes: approx_memory(db),
        }) {
            out.truncation = Some(reason);
            break;
        }

        let started = Instant::now();
        let active = seeding.unwrap_or(rules);
        let mut derived: Vec<(usize, Vec<Tuple>)> = Vec::with_capacity(active.len());
        let mut interrupted = None;
        for (i, rule) in active.iter().enumerate() {
            let rows = match seeding {
                Some(_) => stored_rows(rule, db)?,
                None => delta_rows(rule, &delta),
            };
            if rows.is_empty() {
                continue;
            }
            let rows_in = rows.len();
            let mut heads = Vec::new();
            interrupted = rule.execute(db, rows, &mut counters, Some(governor), &mut heads)?;
            if obs.enabled() {
                obs.event(
                    "engine.rule",
                    &[
                        ("iteration", field::uz(round + 1)),
                        ("variant", field::uz(i)),
                        ("head", field::s(rule.head_pred.to_string())),
                        ("rows_in", field::uz(rows_in)),
                        ("derived", field::uz(heads.len())),
                    ],
                );
            }
            derived.push((i, heads));
            if interrupted.is_some() {
                break;
            }
        }

        let mut it = IterationStats {
            delta_in: pending,
            ..IterationStats::default()
        };
        if seeding.is_none() {
            // Consumed. (A seeding round never read the delta: tuples the
            // caller pre-seeded stay pending next to its fresh ones.)
            delta.clear();
        }
        for (i, heads) in derived {
            it.derived += heads.len();
            let fresh = merge(db, round, &active[i], heads);
            it.new_tuples += fresh.len();
            if !fresh.is_empty() {
                delta.entry(active[i].head_pred).or_default().extend(fresh);
            }
        }
        it.duration = started.elapsed();
        fresh_total += it.new_tuples;
        emit_iteration(obs, round + 1, &it);
        out.iterations.push(it);
        seeding = None;
        if let Some(reason) = interrupted {
            out.truncation = Some(reason);
            break;
        }
    }
    out.probes = counters.probes;
    out.probe_hits = counters.hits;
    Ok(out)
}

/// Seed rows for an undifferentiated rule: the full stored relation of the
/// seed atom (or the unit row for an empty body).
fn stored_rows(rule: &CompiledRule, db: &EngineDb) -> Result<Vec<Row>, EngineError> {
    match &rule.seed {
        None => Ok(vec![Vec::new()]),
        Some(seed) => {
            let rel = db
                .get(seed.pred)
                .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
            Ok(seed.rows(rel.iter()))
        }
    }
}

/// Seed rows for a delta pipeline from the pending delta of its seed atom.
fn delta_rows(rule: &CompiledRule, delta: &BTreeMap<Symbol, Vec<Tuple>>) -> Vec<Row> {
    rule.seed
        .as_ref()
        .and_then(|seed| Some(seed.rows(delta.get(&seed.pred)?.iter())))
        .unwrap_or_default()
}

/// The memory estimate budgets are enforced against: indexed storage plus
/// any fault-injected ballast.
fn approx_memory(db: &EngineDb) -> usize {
    #[cfg(any(test, feature = "fault-inject"))]
    let ballast = crate::fault::ballast_bytes();
    #[cfg(not(any(test, feature = "fault-inject")))]
    let ballast = 0;
    db.approx_bytes() + ballast
}

/// Emits the per-round provenance event plus round counters and the
/// round-duration histogram. No-op with a disabled handle.
fn emit_iteration(obs: &Obs, iteration: usize, it: &IterationStats) {
    if !obs.enabled() {
        return;
    }
    obs.counter("recurs_engine_iterations_total", &[], 1);
    obs.counter(
        "recurs_engine_tuples_derived_total",
        &[],
        it.new_tuples as u64,
    );
    obs.observe(
        "recurs_engine_iteration_seconds",
        &[],
        it.duration.as_secs_f64(),
    );
    obs.event(
        "engine.iteration",
        &[
            ("iteration", field::uz(iteration)),
            ("delta_in", field::uz(it.delta_in)),
            ("derived", field::uz(it.derived)),
            ("new_tuples", field::uz(it.new_tuples)),
            ("duration_us", field::us(it.duration)),
        ],
    );
}
