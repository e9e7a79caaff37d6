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

use crate::compile::{CompiledRule, ProbeCounters, Scratch};
use crate::error::EngineError;
use crate::stats::IterationStats;
use crate::storage::{Batch, EngineDb};
use recurs_datalog::govern::{Governor, Progress, TruncationReason};
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
/// * `merge(db, round, rule, heads, fresh)` receives one head row per
///   enumerated instantiation (duplicates included) after *every* rule of
///   the round has executed, so a round's joins never see that round's own
///   output. It applies whatever the caller's notion of novelty is and
///   appends the fresh rows to `fresh`, the next round's delta under the
///   rule's head predicate. `round` is the 0-based index into
///   [`Rounds::iterations`].
///
/// Every round starts with the fault hook (when compiled in) and a full
/// [`Governor::check`] against real progress — rounds run, fresh tuples so
/// far, pending delta. A round interrupted mid-pipeline still merges what it
/// derived: every head row is a true consequence, so stopping only omits
/// tuples.
///
/// Pipeline rows, head batches and deltas live in buffers the loop owns and
/// reuses, so a round allocates only where one of them outgrows itself.
///
/// What it records: per call, the fresh tuples summed into
/// `recurs_engine_tuples_derived_total` and the rounds run into
/// `recurs_engine_rounds_total`, whatever sinks are attached; per round,
/// one `engine.rule` event per rule that ran and one `engine.iteration`
/// event, only when a sink keeps detail ([`Obs::detailed`], read once per
/// call). So a served miss records per run, however many rounds its
/// recursion takes, while a trace file still gets every round; and the
/// metrics are the same either way. No field is built by allocating: the
/// `head` is the interned predicate's own text.
// One argument per independent input; bundling them would only add a type.
#[allow(clippy::too_many_arguments)]
pub fn drive_rounds<M>(
    db: &mut EngineDb,
    seed: Option<&[CompiledRule]>,
    rules: &[CompiledRule],
    mut delta: BTreeMap<Symbol, Batch>,
    cap: Option<u64>,
    governor: &Governor,
    obs: &Obs,
    mut merge: M,
) -> Result<Rounds, EngineError>
where
    M: FnMut(&mut EngineDb, usize, &CompiledRule, &Batch, &mut Batch),
{
    let detail = obs.detailed();
    let mut out = Rounds::default();
    let mut counters = ProbeCounters::default();
    let mut seeding = seed;
    let mut fresh_total = 0usize;
    let mut scratch = Scratch::default();
    // One head batch per rule of a round, and the delta the previous round
    // consumed, whose buffers the next one refills.
    let mut heads: Vec<Batch> = Vec::new();
    let mut spent: BTreeMap<Symbol, Batch> = BTreeMap::new();
    loop {
        let round = out.iterations.len();
        // The seeding round reads stored relations, not the delta.
        let pending: usize = match seeding {
            Some(_) => 0,
            None => delta.values().map(Batch::len).sum(),
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
        }) {
            out.truncation = Some(reason);
            break;
        }

        let started = Instant::now();
        let active = seeding.unwrap_or(rules);
        if heads.len() < active.len() {
            heads.resize_with(active.len(), Batch::default);
        }
        for (rule, derived) in active.iter().zip(&mut heads) {
            derived.reset(rule.head_arity);
        }
        let mut interrupted = None;
        for (i, (rule, derived)) in active.iter().zip(&mut heads).enumerate() {
            // Seed rows: the full stored relation of the seed atom (or the
            // unit row, for an empty body) when seeding, the pending delta
            // of its predicate otherwise.
            let rows_in = match (&rule.seed, seeding) {
                (None, Some(_)) => scratch.unit_row(),
                (None, None) => 0,
                (Some(seed), Some(_)) => {
                    let rel = db
                        .get(seed.pred)
                        .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
                    seed.fill(&mut scratch, rel.iter())
                }
                (Some(seed), None) => delta
                    .get(&seed.pred)
                    .map_or(0, |batch| seed.fill(&mut scratch, batch.iter())),
            };
            if rows_in == 0 {
                continue;
            }
            interrupted = rule.execute(db, &mut scratch, &mut counters, Some(governor), derived)?;
            if detail {
                obs.event(
                    "engine.rule",
                    &[
                        ("iteration", field::uz(round + 1)),
                        ("variant", field::uz(i)),
                        ("head", field::st(rule.head_pred.as_str())),
                        ("rows_in", field::uz(rows_in)),
                        ("derived", field::uz(derived.len())),
                    ],
                );
            }
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
            std::mem::swap(&mut delta, &mut spent);
            for stale in delta.values_mut() {
                stale.reset(stale.width());
            }
        }
        for (rule, derived) in active.iter().zip(&heads) {
            if derived.is_empty() {
                continue;
            }
            it.derived += derived.len();
            let fresh = delta
                .entry(rule.head_pred)
                .or_insert_with(|| Batch::new(rule.head_arity));
            let before = fresh.len();
            merge(db, round, rule, derived, fresh);
            it.new_tuples += fresh.len() - before;
        }
        it.duration = started.elapsed();
        fresh_total += it.new_tuples;
        if detail {
            emit_iteration(obs, round + 1, &it);
        }
        out.iterations.push(it);
        seeding = None;
        if let Some(reason) = interrupted {
            out.truncation = Some(reason);
            break;
        }
    }
    out.probes = counters.probes;
    out.probe_hits = counters.hits;
    if obs.enabled() && !out.iterations.is_empty() {
        obs.counter(
            "recurs_engine_tuples_derived_total",
            &[],
            fresh_total as u64,
        );
        obs.counter(
            "recurs_engine_rounds_total",
            &[],
            out.iterations.len() as u64,
        );
    }
    Ok(out)
}

/// Emits the per-round provenance event, for a sink that keeps detail.
fn emit_iteration(obs: &Obs, iteration: usize, it: &IterationStats) {
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
