//! The semi-naive round driver: the one loop in the workspace that runs
//! compiled pipelines round after round.
//!
//! The classification changes exactly one thing about bottom-up evaluation —
//! how many rounds a formula needs — so there is exactly one loop, and the
//! round cap is its one class-dependent argument. Everything else a caller
//! varies is *what counts as fresh*: set insertion for the engine kernels,
//! derivation-count bumps for incremental maintenance, membership-filtered
//! marking for overdeletion (the `merge` closure of [`drive_rounds`]).
//!
//! A round is a barrier: every rule runs against the delta the round
//! started with, and their head rows are merged after the last one. For a
//! rule set *linear in the call* — no join step reads a predicate the call
//! derives, as in a frontier walk or a magic rewrite whose magic predicate
//! the seed alone fills — that order is not needed for soundness, since no
//! join reads what a round derives. Inserting such a round's heads as they
//! are found was measured and dropped (EXPERIMENTS.md §29): a level did not
//! get cheap enough to pay for a second path through the loop.
//!
//! A round's new rows are written once. The delta is kept in slots, one per
//! predicate, each holding a [`Fresh`]: a set-insertion merge
//! ([`EngineDb::insert_fresh`]) records the run of ids it appended to the
//! head relation's arena, and the next round's pipelines read that run
//! where it lies (EXPERIMENTS.md §30). Two cases keep copies in a batch:
//! a merge that decides novelty itself (incremental maintenance's counting
//! and marking merges push their rows), and a head relation with freed
//! slots, whose new ids are not contiguous.

use crate::compile::{CompiledRule, ProbeCounters, Scratch};
use crate::error::EngineError;
use crate::stats::IterationStats;
use crate::storage::{rows_of, Batch, EngineDb, Fresh};
use recurs_datalog::govern::{Governor, Progress, TruncationReason};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use recurs_obs::{field, Obs};
use std::ops::Range;
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

/// One predicate a delta can be pending under, and `next`, the rows the
/// next round reads: a round's merges refill it once its rules have read
/// it. Only the rows of a slot some rule seeds from (`read`) are pending;
/// the others are recorded for the witness check alone.
struct Slot {
    pred: Symbol,
    read: bool,
    /// Where `pred`'s relation sits in the store, for a stored run.
    rel: Option<usize>,
    next: Fresh,
}

/// The slot of `pred` in `db`, read by a rule of `rules` or not, added (for
/// copies `width` wide) if it has none.
fn slot_of(slots: &mut Vec<Slot>, (db, rules): Wiring<'_>, pred: Symbol, width: usize) -> usize {
    if let Some(at) = slots.iter().position(|s| s.pred == pred) {
        return at;
    }
    let reads = |rule: &CompiledRule| rule.seed.as_ref().is_some_and(|seed| seed.pred == pred);
    slots.push(Slot {
        pred,
        read: rules.iter().any(reads),
        rel: db.position(pred),
        next: Fresh::from(Batch::new(width)),
    });
    slots.len() - 1
}

/// The store and the delta rules a call's slots are wired to.
type Wiring<'a> = (&'a EngineDb, &'a [CompiledRule]);

/// One rule wired to the call: the slot a delta round seeds its pipeline
/// from (none for a seeding rule or an empty body), the one its fresh heads
/// go to, where its steps' relations sit in the call's located steps, and
/// the batch its head rows collect in.
#[derive(Default)]
struct Lane {
    from: Option<usize>,
    to: usize,
    steps: Range<usize>,
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
///   records the fresh rows in `fresh`, the next round's delta under the
///   rule's head predicate: [`EngineDb::insert_fresh`] stores them in that
///   predicate's relation and records where, a merge that keeps its own
///   notion of novelty pushes copies ([`Fresh::push`]). `round` is the
///   0-based index into
///   [`Rounds::iterations`]. A merge may write only to relations the store
///   already holds, and may build no index: each step's relation and index
///   are found by position once per call, and a relation or index added
///   later would shift them (checked after every merge in debug builds).
///
/// Every round starts with the one clock read it makes — it closes the
/// previous round's [`IterationStats::duration`] and is the deadline's —
/// then the fault hook (when compiled in) and a full [`Governor::check`]
/// against real progress — rounds run, fresh tuples so far.
/// A round interrupted mid-pipeline still merges what it derived: every
/// head row is a true consequence, so stopping only omits tuples.
///
/// The delta lives in slots, one per predicate it can be pending under,
/// each rule's seed slot and head slot — and where each relation its steps
/// read and the index each probes sit in the store — found once per call.
/// A slot's rows are pending only if some rule seeds from it: rows of a
/// predicate no rule reads (a query's answers) are stored, not counted in
/// [`IterationStats::delta_in`], and keep no round running. A pipeline
/// takes its seed rows as one slice: a stored run or a whole stored
/// relation in place when the seed atom keeps every column, else filtered
/// into a buffer the loop owns. Pipeline rows, head
/// batches and copied deltas live in buffers the loop owns and reuses, so a
/// round allocates only where one of them outgrows itself.
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
    merge: M,
) -> Result<Rounds, EngineError>
where
    M: FnMut(&mut EngineDb, usize, &CompiledRule, &Batch, &mut Fresh),
{
    let delta = delta
        .into_iter()
        .map(|(pred, rows)| (pred, Fresh::from(rows)));
    drive(db, seed, rules, delta, cap, governor, obs, None, merge)
}

/// [`drive_rounds`], ending — complete — after the first round whose merges
/// store `witness` (a relation and one tuple) when one is given: a ground
/// query's one answer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<M>(
    db: &mut EngineDb,
    seed: Option<&[CompiledRule]>,
    rules: &[CompiledRule],
    delta: impl IntoIterator<Item = (Symbol, Fresh)>,
    cap: Option<u64>,
    governor: &Governor,
    obs: &Obs,
    witness: Option<(Symbol, &[Value])>,
    mut merge: M,
) -> Result<Rounds, EngineError>
where
    M: FnMut(&mut EngineDb, usize, &CompiledRule, &Batch, &mut Fresh),
{
    let detail = obs.detailed();
    let mut out = Rounds::default();
    let mut counters = ProbeCounters::default();
    let seeds = seed.unwrap_or_default();
    let mut seeding = seed;
    let mut fresh_total = 0usize;
    let mut scratch = Scratch::default();
    // Seed rows a selection filters, or copies of a relation with freed slots.
    let mut filled = Batch::default();
    // Room for every slot the rules can add, so wiring them never regrows.
    let delta = delta.into_iter();
    let mut slots = Vec::with_capacity(delta.size_hint().0 + seeds.len() + 2 * rules.len());
    for (pred, rows) in delta {
        let at = slot_of(&mut slots, (db, rules), pred, 0);
        slots[at].next = rows;
    }
    // The seeding rules' lanes, then the delta rules', wired by the first
    // round that runs, and where their steps' relations and indexes sit.
    let mut lanes: Vec<Lane> = Vec::new();
    let mut located = Vec::new();
    // The store's relation and index counts when the steps were located:
    // what a merge must leave as it found them.
    let mut shape = (0, 0);
    let mut last_read: Option<Instant> = None;
    let mut interrupted = None;
    let mut answered = false;
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
        if answered {
            break; // the one tuple a ground query asks for
        }
        // The seeding round reads stored relations, not the delta.
        let pending: usize = match seeding {
            Some(_) => 0,
            None => slots
                .iter()
                .filter(|slot| slot.read)
                .map(|slot| slot.next.len())
                .sum(),
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
                lane.to = slot_of(&mut slots, (db, rules), rule.head_pred, rule.head_arity);
                let start = located.len();
                rule.locate(db, &mut located)?;
                lane.steps = start..located.len();
            }
            for (rule, lane) in rules.iter().zip(&mut lanes[seeds.len()..]) {
                let from = rule.seed.as_ref().map(|s| s.pred);
                lane.from = from.map(|pred| slot_of(&mut slots, (db, rules), pred, 0));
            }
            shape = (db.iter().count(), db.index_count());
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
            // of its predicate otherwise — read where they lie (a stored
            // run, or copies) if the seed keeps its rows whole, else filled.
            let seed_rows = match (&rule.seed, seeding, lane.from) {
                (None, Some(_), _) => (&[][..], 1),
                (Some(seed), Some(_), _) => {
                    seed.rows(None, db.relation(seed.pred)?.iter(), &mut filled)
                }
                (Some(seed), None, Some(from)) => {
                    let Slot { rel, next, .. } = &slots[from];
                    let (values, len) = next.rows(rel.map(|at| db.relation_at(at)));
                    let tuples = rows_of(values, next.width(), len);
                    seed.rows(Some((values, len)), tuples, &mut filled)
                }
                (_, None, _) => continue,
            };
            let rows_in = seed_rows.1;
            if rows_in == 0 {
                continue;
            }
            let steps = &located[lane.steps.clone()];
            let derived = &mut lane.derived;
            let (counters, scratch) = (&mut counters, &mut scratch);
            interrupted = rule.run(db, steps, seed_rows, scratch, counters, governor, derived)?;
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
                slot.next.clear();
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
            debug_assert_eq!(
                (db.iter().count(), db.index_count()),
                shape,
                "a merge added a relation or an index"
            );
            it.new_tuples += fresh.len() - before;
        }
        if let Some((pred, t)) = witness {
            // Only a round that added to its relation can have stored it.
            let added = slots
                .iter()
                .any(|slot| slot.pred == pred && slot.next.len() > 0);
            answered = added && db.get(pred).is_some_and(|rel| rel.contains(t));
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
