//! The semi-naive round driver: the one loop in the workspace that calls
//! [`CompiledRule::execute`] round after round.
//!
//! The classification changes exactly one thing about bottom-up evaluation —
//! how many rounds a formula needs — so there is exactly one loop, and the
//! round cap is its one class-dependent argument. Everything else a caller
//! varies is *what counts as fresh*, which is the `merge` closure: set
//! insertion for the engine kernels, derivation-count bumps for incremental
//! maintenance, membership-filtered marking for overdeletion.

use crate::compile::{CompiledRule, ProbeCounters, Scratch};
use crate::error::EngineError;
use crate::stats::IterationStats;
use crate::storage::{Batch, EngineDb};
use recurs_datalog::govern::{Governor, Progress, TruncationReason};
use recurs_datalog::symbol::Symbol;
use recurs_obs::{field, Obs};
use std::time::Instant;

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

/// One predicate a delta can be pending under: `next`, the rows the next
/// round reads, and `spent`, the buffer the last round read. A round that
/// read them swaps the two, and its merges refill the emptied buffer.
struct Slot {
    pred: Symbol,
    next: Batch,
    spent: Batch,
}

/// The slot of `pred`, added (for rows `width` wide) if it has none.
fn slot_of(slots: &mut Vec<Slot>, pred: Symbol, width: usize) -> usize {
    if let Some(at) = slots.iter().position(|s| s.pred == pred) {
        return at;
    }
    let (next, spent) = (Batch::new(width), Batch::new(width));
    slots.push(Slot { pred, next, spent });
    slots.len() - 1
}

/// One rule wired to the slots: the one a delta round seeds its pipeline
/// from (none for a seeding rule or an empty body), the one its fresh heads
/// go to, and the batch its head rows collect in.
#[derive(Default)]
struct Lane {
    from: Option<usize>,
    to: usize,
    derived: Batch,
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
/// * `delta`: the rows pending before the first round, at most one batch
///   per predicate (`[(pred, batch)]`).
/// * `merge(db, round, rule, heads, fresh)` receives one head row per
///   enumerated instantiation (duplicates included) after *every* rule of
///   the round has executed, so a round's joins never see that round's own
///   output. It applies whatever the caller's notion of novelty is and
///   appends the fresh rows to `fresh`, the next round's delta under the
///   rule's head predicate. `round` is the 0-based index into
///   [`Rounds::iterations`].
///
/// Every round starts with the one clock read it makes — it closes the
/// previous round's [`IterationStats::duration`] and is the deadline's —
/// then the fault hook (when compiled in) and a full [`Governor::check`]
/// against real progress — rounds run, fresh tuples so far, pending delta.
/// A round interrupted mid-pipeline still merges what it derived: every
/// head row is a true consequence, so stopping only omits tuples.
///
/// The delta lives in slots, one per predicate it can be pending under,
/// each rule's seed slot and head slot resolved once per call; pipeline
/// rows, head batches and deltas live in buffers the loop owns and reuses,
/// so a round allocates only where one of them outgrows itself.
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
    delta: impl IntoIterator<Item = (Symbol, Batch)>,
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
    let seeds = seed.unwrap_or_default();
    let mut seeding = seed;
    let mut fresh_total = 0usize;
    let mut scratch = Scratch::default();
    // Room for every slot the rules can add, so wiring them never regrows.
    let delta = delta.into_iter();
    let mut slots = Vec::with_capacity(delta.size_hint().0 + seeds.len() + 2 * rules.len());
    for (pred, batch) in delta {
        let at = slot_of(&mut slots, pred, batch.width());
        slots[at].next = batch;
    }
    // The seeding rules' lanes, then the delta rules', wired by the first
    // round that runs.
    let mut lanes: Vec<Lane> = Vec::new();
    let mut last_read: Option<Instant> = None;
    let mut interrupted = None;
    loop {
        let now = Instant::now();
        let round = out.iterations.len();
        if let (Some(started), Some(it)) = (last_read.replace(now), out.iterations.last_mut()) {
            it.duration = now - started;
            if detail {
                emit_iteration(obs, round, it);
            }
        }
        if let Some(reason) = interrupted {
            out.truncation = Some(reason);
            break;
        }
        // The seeding round reads stored relations, not the delta.
        let pending: usize = match seeding {
            Some(_) => 0,
            None => slots.iter().map(|slot| slot.next.len()).sum(),
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
        let progress = Progress {
            iterations: round,
            tuples: fresh_total,
            delta: pending,
        };
        if let Some(reason) = governor.check(progress, now) {
            out.truncation = Some(reason);
            break;
        }

        if lanes.is_empty() {
            lanes.resize_with(seeds.len() + rules.len(), Lane::default);
            // Heads first: a predicate some rule derives gets its slot at
            // the head's width.
            for (rule, lane) in seeds.iter().chain(rules).zip(&mut lanes) {
                lane.to = slot_of(&mut slots, rule.head_pred, rule.head_arity);
            }
            for (rule, lane) in rules.iter().zip(&mut lanes[seeds.len()..]) {
                lane.from = rule.seed.as_ref().map(|s| slot_of(&mut slots, s.pred, 0));
            }
        }
        let (active, wired) = match seeding {
            Some(active) => (active, &mut lanes[..seeds.len()]),
            None => (rules, &mut lanes[seeds.len()..]),
        };
        for (rule, lane) in active.iter().zip(wired.iter_mut()) {
            lane.derived.reset(rule.head_arity);
        }
        for (i, (rule, lane)) in active.iter().zip(wired.iter_mut()).enumerate() {
            // Seed rows: the full stored relation of the seed atom (or the
            // unit row, for an empty body) when seeding, the pending delta
            // of its predicate otherwise — lent, not copied, if the seed
            // keeps its rows whole, and taken back once the rule has run (an
            // error drops it with everything else).
            let mut lent = None;
            let rows_in = match (&rule.seed, seeding, lane.from) {
                (None, Some(_), _) => scratch.unit_row(),
                (Some(seed), Some(_), _) => seed.fill(&mut scratch, db.relation(seed.pred)?.iter()),
                (Some(seed), None, Some(from))
                    if seed.selection.keeps_all() && !slots[from].next.is_empty() =>
                {
                    lent = Some(from);
                    scratch.lend(&mut slots[from].next)
                }
                (Some(seed), None, Some(from)) => seed.fill(&mut scratch, slots[from].next.iter()),
                (_, None, _) => 0,
            };
            if rows_in == 0 {
                continue;
            }
            let derived = &mut lane.derived;
            interrupted = rule.execute(db, &mut scratch, &mut counters, Some(governor), derived)?;
            if let Some(from) = lent {
                scratch.lend(&mut slots[from].next);
            }
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
            for slot in &mut slots {
                std::mem::swap(&mut slot.next, &mut slot.spent);
                slot.next.reset(slot.next.width());
            }
        }
        for (rule, lane) in active.iter().zip(wired.iter()) {
            if lane.derived.is_empty() {
                continue;
            }
            it.derived += lane.derived.len();
            let fresh = &mut slots[lane.to].next;
            let before = fresh.len();
            merge(db, round, rule, &lane.derived, fresh);
            it.new_tuples += fresh.len() - before;
        }
        fresh_total += it.new_tuples;
        out.iterations.push(it);
        seeding = None;
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
