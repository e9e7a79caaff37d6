//! The long-lived query service: snapshots + kernels + cache + admission.

use crate::admission::{Permit, Semaphore};
use crate::cache::{CacheCounters, RowsText, SaturationCache};
use crate::error::ServeError;
use crate::kernel::{PointKernelKind, PointPlans};
use crate::snapshot::{Snapshot, SnapshotStore, SnapshotUpdate};
use crate::stats::{CacheOutcome, ServeStats, ServiceStats};
use crate::version::Version;
use recurs_core::plan::StrategyKind;
use recurs_core::Classification;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::fingerprint::{self, Fingerprint};
use recurs_datalog::govern::{EvalBudget, Outcome, TruncationReason};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::is_reserved;
use recurs_engine::compile::ProbeCounters;
use recurs_engine::{EngineDb, IndexedRelation, Selection};
use recurs_igraph::component::ComponentKind;
use recurs_ivm::{
    explain_fact, maintenance_label, verify_tree, EdbDelta, FactOp, IdbPatch, IvmError,
    Materialization, WhyOutcome,
};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::{field, FlightRecorder, Obs, SpanId, TraceCtx, TraceId};
use serde::{Serialize as _, Value};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrent evaluations (admission semaphore permits).
    pub max_concurrent: usize,
    /// Answer-cache capacity in entries: any `cache_capacity` distinct
    /// queries stay cached together. 0 disables the cache.
    pub cache_capacity: usize,
    /// Default per-query budget (queries may override it).
    pub budget: EvalBudget,
    /// External observability sink. The service always maintains its own
    /// metric [`Aggregator`] (backing [`QueryService::stats`] and
    /// [`QueryService::metrics_text`]); a recorder supplied here receives
    /// the same counter/histogram/event stream in addition.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_concurrent: 4,
            cache_capacity: 1024,
            budget: EvalBudget::unlimited(),
            obs: Obs::noop(),
        }
    }
}

/// One answered query: the answer relation plus per-query stats.
#[derive(Debug)]
pub struct Reply {
    /// The answers, over the query's distinct variables in first-occurrence
    /// order. A cache hit shares the entry's rows; nothing is copied unless
    /// a write patches the entry while this reply still holds them.
    pub answers: IndexedRelation,
    /// Complete, or soundly truncated.
    pub outcome: Outcome,
    /// What the query cost.
    pub stats: ServeStats,
    /// The request-scoped trace id the query ran under.
    pub trace: TraceId,
    /// On a cache hit, the entry's cell for the text of its answers' JSON
    /// rows: the protocol sends the text it holds, or fills it with the rows
    /// it renders. `None` on every other path.
    pub(crate) hit: Option<RowsText>,
}

/// What [`QueryService::why`] found for one ground fact.
#[derive(Debug)]
pub struct WhyReply {
    /// The fact, rendered `P(c1, c2)`.
    pub fact: String,
    /// The reconstruction's verdict — or, when the budget stopped it first,
    /// why: a flagged reply that claims nothing about the fact, not an error.
    pub outcome: Result<WhyOutcome, TruncationReason>,
    /// The snapshot version the fact was explained at.
    pub snapshot_version: Version,
    /// Whether the maintained view was exact for that version, so the walk
    /// ran over it and nothing was saturated.
    pub view_seeded: bool,
    /// The trace id the request named, echoed in the reply; none was
    /// minted for a request that named none.
    pub trace: Option<TraceId>,
}

/// What [`QueryService::apply_update`] did.
#[derive(Debug)]
pub enum UpdateOutcome {
    /// Every operation was a no-op (duplicate insert, absent delete, or a
    /// cancelling pair): nothing changed and the version did not move.
    Unchanged {
        /// The still-current version.
        version: Version,
    },
    /// A new snapshot version was installed.
    Installed {
        /// The newly installed snapshot.
        snapshot: Arc<Snapshot>,
        /// Net EDB tuples inserted.
        inserted: usize,
        /// Net EDB tuples deleted.
        deleted: usize,
        /// How the materialized view absorbed the change — a
        /// [`maintenance_label`] (`"bounded-recount"`, `"generic-dred"`,
        /// `"cold-fallback"`), `"saturate"` when the view was (re)built
        /// from scratch, or `"none"` when no view could be maintained.
        maintenance: &'static str,
    },
}

/// The incrementally maintained fixpoint, tagged with the snapshot version
/// it is exact for.
#[derive(Debug)]
struct ViewState {
    version: Version,
    mat: Materialization,
}

/// A thread-safe, long-lived query service for one linear recursion.
///
/// Readers call [`QueryService::query`] concurrently from any number of
/// threads; writers install new fact snapshots with
/// [`QueryService::apply_update`] — the one write path, incrementally
/// maintained — without blocking in-flight readers (copy-on-write snapshot
/// isolation). Completed answers are cached per adorned query, each exact at
/// the version the cache is stamped with; truncated answers never are.
#[derive(Debug)]
pub struct QueryService {
    plans: PointPlans,
    program_fingerprint: Fingerprint,
    store: SnapshotStore,
    cache: Option<SaturationCache>,
    /// Lazily built on the first [`QueryService::apply_update`]; patched in
    /// place by every one after. Writers hold its lock across the snapshot
    /// install, so a view is always exact for the snapshot it was patched
    /// from; queries read it when its version matches their snapshot.
    view: RwLock<Option<ViewState>>,
    admission: Semaphore,
    metrics: Arc<Aggregator>,
    /// Always-on ring of recent events, dumped on panic or forced drain.
    flight: Arc<FlightRecorder>,
    obs: Obs,
    budget: EvalBudget,
}

impl QueryService {
    /// Builds a service for `lr` over an initial database (version 0).
    /// Classification and the bounded plan are computed once, here, and the
    /// plain facts are converted once into the indexed store every version
    /// shares; `db` itself is dropped.
    pub fn new(
        lr: recurs_datalog::rule::LinearRecursion,
        db: Database,
        config: ServeConfig,
    ) -> QueryService {
        let plans = PointPlans::new(lr);
        let program_fingerprint = fingerprint::of_program(&plans.recursion().to_program());
        // The service's own aggregator is always attached (it backs
        // `stats()` and `!metrics`), as is the flight recorder (it backs
        // postmortem dumps); an external recorder from the config sees the
        // same stream through the fan-out.
        let metrics = Arc::new(Aggregator::default());
        let flight = Arc::new(FlightRecorder::default());
        let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = vec![metrics.clone(), flight.clone()];
        if let Some(external) = config.obs.recorder() {
            sinks.push(external);
        }
        let obs = Obs::fanout(sinks);
        QueryService {
            plans,
            program_fingerprint,
            store: SnapshotStore::new(EngineDb::from(&db)),
            cache: (config.cache_capacity > 0)
                .then(|| SaturationCache::new(config.cache_capacity, obs.clone())),
            view: RwLock::new(None),
            admission: Semaphore::new(config.max_concurrent),
            metrics,
            flight,
            obs,
            budget: config.budget,
        }
    }

    /// Stable fingerprint of the served program.
    pub(crate) fn program_fingerprint(&self) -> Fingerprint {
        self.program_fingerprint
    }

    /// The current snapshot (cheap; never blocks on evaluation).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// Applies a group of ground fact operations atomically: the group's net
    /// delta is normalized against the current snapshot (duplicate inserts
    /// and absent deletes are no-ops; an all-no-op group returns
    /// [`UpdateOutcome::Unchanged`] without bumping the version), the next
    /// snapshot is installed copy-on-write, and the materialized view plus
    /// the warm cache entries the change reaches are *patched in place*
    /// through semi-naive / DRed maintenance instead of being recomputed or
    /// dropped — all before the writer's lock is released, so versions reach
    /// the cache in order.
    ///
    /// Operations on the recursive predicate are rejected — it is derived,
    /// never stored — and so are operations on a reserved name: the kernels'
    /// and the view's synthesized relations share the store with the facts,
    /// and a client that could write them could plant answers.
    pub fn apply_update(&self, ops: &[FactOp]) -> Result<UpdateOutcome, ServeError> {
        let served = self.plans.recursion().predicate;
        if let Some(op) = ops.iter().find(|op| op.predicate() == served) {
            return Err(ServeError::DerivedUpdate(op.predicate()));
        }
        if let Some(op) = ops.iter().find(|op| is_reserved(op.predicate())) {
            return Err(DatalogError::ReservedName(op.predicate()).into());
        }
        let start = Instant::now();
        // Writers serialize on the view lock from before the install to
        // after the view and the cache have moved, so the view a writer
        // finds is exact for the version its delta starts from and the
        // cache's stamps move in version order.
        let mut view = self.view.write().unwrap_or_else(PoisonError::into_inner);
        match self.store.apply_delta(ops)? {
            SnapshotUpdate::Unchanged(snap) => {
                self.record_update("unchanged", start, snap.version(), 0, 0);
                Ok(UpdateOutcome::Unchanged {
                    version: snap.version(),
                })
            }
            SnapshotUpdate::Installed {
                previous,
                snapshot,
                delta,
            } => {
                let (maintenance, idb) = self.maintain_view(&mut view, &snapshot, &delta);
                if let Some(cache) = &self.cache {
                    match &idb {
                        Some(patch) => cache.advance(previous, snapshot.version(), patch),
                        None => cache.retain_version(snapshot.version()),
                    }
                }
                drop(view);
                let (inserted, deleted) = (delta.inserted_count(), delta.deleted_count());
                self.record_update(maintenance, start, snapshot.version(), inserted, deleted);
                Ok(UpdateOutcome::Installed {
                    snapshot,
                    inserted,
                    deleted,
                    maintenance,
                })
            }
        }
    }

    /// Patches (or lazily builds) the materialized view for a just-installed
    /// snapshot. Returns the maintenance label and the exact IDB patch when
    /// one exists (`None` after a cold fallback or a fresh build — the cache
    /// cannot be carried then). Never fails: a substrate error degrades to
    /// "no view" and the update stands.
    fn maintain_view(
        &self,
        view: &mut Option<ViewState>,
        snapshot: &Snapshot,
        delta: &EdbDelta,
    ) -> (&'static str, Option<IdbPatch>) {
        if let Some(mut vs) = view.take() {
            return match vs.mat.apply(delta, &self.budget) {
                Ok(report) => {
                    let path = maintenance_label(vs.mat.round_cap(), report.truncation);
                    vs.version = snapshot.version();
                    *view = Some(vs);
                    (path, report.idb)
                }
                Err(_) => ("none", None),
            };
        }
        // The view starts out sharing the snapshot's relations; it copies a
        // relation's rows the first time an update changes it.
        match Materialization::saturate(
            self.plans.recursion(),
            snapshot.store().clone(),
            &self.budget,
            &self.obs,
        ) {
            Ok(mat) => {
                *view = Some(ViewState {
                    version: snapshot.version(),
                    mat,
                });
                ("saturate", None)
            }
            Err(_) => ("none", None),
        }
    }

    /// Feeds one applied update into the recorder: the per-result latency
    /// histogram (whose counts [`ServiceStats`] reads back) and a
    /// `serve.update` event carrying the version it leaves.
    fn record_update(
        &self,
        result: &'static str,
        start: Instant,
        version: Version,
        inserted: usize,
        deleted: usize,
    ) {
        if !self.obs.enabled() {
            return;
        }
        let elapsed = start.elapsed();
        self.obs.observe(
            "recurs_serve_update_seconds",
            &[("result", result)],
            elapsed.as_secs_f64(),
        );
        self.obs.event(
            "serve.update",
            &[
                ("result", field::st(result)),
                ("version", field::u(version.get())),
                ("inserted", field::uz(inserted)),
                ("deleted", field::uz(deleted)),
                ("eval_us", field::us(elapsed)),
            ],
        );
    }

    /// Answers a query under the service's default budget and a fresh trace
    /// id, queueing for admission unboundedly.
    pub fn query(&self, query: &Atom) -> Result<Reply, ServeError> {
        self.query_traced(query, &self.budget, None, TraceId::mint())
    }

    /// Answers a query under a request-scoped trace context: every event
    /// the evaluation emits (admission, cache probe, kernel dispatch)
    /// carries `trace`, and the request is decomposed into hierarchical
    /// `span` events (`request` → `admission`/`cache`/`view`/`eval`/
    /// `cache_store`) that `obsctl` reassembles into a timing tree. The
    /// reply's outcome is `Complete`, or `Truncated` with the answers a
    /// sound under-approximation.
    ///
    /// `max_wait = None` queues unboundedly (the stdin behavior); `Some`
    /// bounds the admission wait — the path the network front end uses, so
    /// queues stay bounded and overload turns into an explicit, typed
    /// [`ServeError::Overloaded`] instead of unbounded latency.
    pub fn query_traced(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
        trace: TraceId,
    ) -> Result<Reply, ServeError> {
        let ctx = TraceCtx::new(&self.obs, trace);
        let root = ctx.root("request");
        self.query_in(&ctx, root.id(), query, budget, max_wait)
    }

    /// The one admission gate: waits for an evaluation slot — unboundedly
    /// when `max_wait` is `None`, else at most that long, after which the
    /// request is *shed* with [`ServeError::Overloaded`] (counted and traced
    /// through `obs`). A shed request was never evaluated and is safe to
    /// retry.
    fn admit(
        &self,
        max_wait: Option<Duration>,
        obs: &Obs,
    ) -> Result<(Permit<'_>, Duration), ServeError> {
        self.admission.acquire(max_wait).ok_or_else(|| {
            let waited = max_wait.unwrap_or_default();
            obs.counter("recurs_serve_queries_shed_total", &[], 1);
            if obs.enabled() {
                obs.event("serve.shed", &[("max_wait_us", field::us(waited))]);
            }
            ServeError::Overloaded { waited }
        })
    }

    /// The query path under `parent`, a span of `ctx`: admission, cache
    /// probe, view/kernel dispatch, caching, and stats, each phase a child
    /// span and every emission through the context's scoped handle. Holds
    /// the admission permit for the whole evaluation.
    fn query_in(
        &self,
        ctx: &TraceCtx,
        parent: SpanId,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
    ) -> Result<Reply, ServeError> {
        let obs = ctx.obs();
        let (_permit, queue_wait) = {
            let _adm = ctx.span("admission", parent);
            self.admit(max_wait, obs)?
        };
        obs.observe(
            "recurs_serve_admission_wait_seconds",
            &[],
            queue_wait.as_secs_f64(),
        );
        let snapshot = self.store.load();
        let count_error = |_: &ServeError| obs.counter("recurs_serve_query_errors_total", &[], 1);
        let plan = self.plans.plan(query).inspect_err(count_error)?;
        let kernel = PointKernelKind::of(&plan);
        let start = Instant::now();

        // What the query selects and projects: the cache's key and the
        // view's select, computed once.
        let selection = Selection::of(query);
        let (cached, rows) = self
            .cache
            .as_ref()
            .and_then(|cache| {
                let _probe = ctx.span("cache", parent);
                cache.get(&selection, snapshot.version())
            })
            .unzip();
        // The maintained view answers a miss with a plain select/project — no
        // evaluation at all — whenever its version matches the snapshot.
        let view_answers = match cached {
            Some(_) => None,
            None => {
                let _view = ctx.span("view", parent);
                self.view_answers(&snapshot, &selection, obs)
            }
        };
        let cache = match (&self.cache, &cached) {
            (_, Some(_)) => CacheOutcome::Hit,
            (Some(_), None) => CacheOutcome::Miss,
            (None, None) => CacheOutcome::Bypass,
        };
        let (answers, outcome, kernel, tuples_derived, fixpoint_iterations) =
            match (cached, view_answers) {
                (Some(answers), _) => (answers, Outcome::Complete, kernel, 0, 0),
                (None, Some(answers)) => {
                    let view = PointKernelKind::MaterializedView;
                    (answers, Outcome::Complete, view, 0, 0)
                }
                (None, None) => {
                    let _eval = ctx.span("eval", parent);
                    let run = PointPlans::answer(&plan, &self.store, &snapshot, query, budget, obs)
                        .inspect_err(count_error)?;
                    let stats = run.saturation.stats;
                    // The bounded levels finish in the seeding round: no
                    // fixpoint iteration ran ("iterations ≤ rank" trivially).
                    let iterations = match plan.strategy {
                        StrategyKind::Bounded => 0,
                        _ => stats.iteration_count(),
                    };
                    let (derived, outcome) = (stats.tuples_derived, run.saturation.outcome);
                    (run.answers, outcome, kernel, derived, iterations)
                }
            };
        // Only complete answers are cacheable: a truncated answer depends on
        // the budget that truncated it.
        if let (Some(store), CacheOutcome::Miss, true) = (&self.cache, cache, outcome.is_complete())
        {
            let _store = ctx.span("cache_store", parent);
            store.insert(selection, snapshot.version(), answers.clone());
        }
        let stats = ServeStats {
            queue_wait,
            eval: start.elapsed(),
            cache,
            kernel,
            outcome,
            answers: answers.len(),
            tuples_derived,
            fixpoint_iterations,
            snapshot_version: snapshot.version().get(),
        };
        self.record_query(obs, &stats);
        Ok(Reply {
            answers,
            outcome,
            stats,
            trace: ctx.id(),
            hit: rows,
        })
    }

    /// Select/project over the maintained view's stored relation, when the
    /// view exists and is exact for the query's snapshot — through the index
    /// the view keeps on each column, when the query binds one; what it read
    /// goes to the engine's probe counters. The query is over the served
    /// predicate at its arity: it has a plan.
    fn view_answers(
        &self,
        snapshot: &Snapshot,
        query: &Selection,
        obs: &Obs,
    ) -> Option<IndexedRelation> {
        let guard = self.view.read().unwrap_or_else(PoisonError::into_inner);
        let vs = guard
            .as_ref()
            .filter(|vs| vs.version == snapshot.version())?;
        let mut read = ProbeCounters::default();
        let answers = recurs_engine::select_counted(vs.mat.relation(), query, &mut read);
        obs.counter("recurs_engine_probes_total", &[], read.probes);
        obs.counter("recurs_engine_probe_hits_total", &[], read.hits);
        Some(answers)
    }

    /// Feeds one answered query into the recorder: the labelled query
    /// counter, the per-kernel latency histogram (whose sum is
    /// [`ServiceStats`]'s `eval_us`), the derived-tuple counter, and a
    /// `serve.query` event. `obs` is the (possibly trace-scoped) handle the
    /// request runs under.
    fn record_query(&self, obs: &Obs, stats: &ServeStats) {
        if !obs.enabled() {
            return;
        }
        let kernel = stats.kernel.family();
        let cache = stats.cache.label();
        let outcome = if stats.outcome.is_complete() {
            "complete"
        } else {
            "truncated"
        };
        obs.counter(
            "recurs_serve_queries_total",
            &[("kernel", kernel), ("cache", cache), ("outcome", outcome)],
            1,
        );
        obs.observe(
            "recurs_serve_query_seconds",
            &[("kernel", kernel)],
            stats.eval.as_secs_f64(),
        );
        obs.counter(
            "recurs_serve_tuples_derived_total",
            &[],
            stats.tuples_derived as u64,
        );
        let truncation = stats.outcome.truncation().map(TruncationReason::label);
        let fields = [
            ("kernel", stats.kernel.label().into()),
            ("cache", field::st(cache)),
            ("outcome", field::st(outcome)),
            ("queue_wait_us", field::us(stats.queue_wait)),
            ("eval_us", field::us(stats.eval)),
            ("answers", field::uz(stats.answers)),
            ("tuples_derived", field::uz(stats.tuples_derived)),
            ("fixpoint_iterations", field::uz(stats.fixpoint_iterations)),
            ("snapshot_version", field::u(stats.snapshot_version)),
            ("truncation", field::st(truncation.unwrap_or_default())),
        ];
        // `truncation` only on a truncated reply.
        let shown = fields.len() - usize::from(truncation.is_none());
        obs.event("serve.query", &fields[..shown]);
    }

    /// What would answer `query` on a cache and view miss.
    pub fn kernel_for(&self, query: &Atom) -> Result<PointKernelKind, ServeError> {
        self.plans.select(query)
    }

    /// The service's observability handle: the fan-out feeding both the
    /// service's own metric aggregator (behind [`QueryService::stats`] and
    /// `!metrics`) and any external recorder from the config. Layers built
    /// on top of the service (the TCP front end) record through this handle
    /// so their counters land in the same exposition.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The default per-query budget from the service config. Callers that
    /// derive per-request budgets (e.g. deadline-scoped network requests)
    /// start from this and tighten it.
    pub fn default_budget(&self) -> &EvalBudget {
        &self.budget
    }

    /// A point-in-time snapshot of the service-wide statistics, derived by
    /// reading the service's metric aggregator back — the series `!metrics`
    /// renders, so the two views can never disagree. Every number is a
    /// counter or a histogram's count or sum; the summed times are the
    /// histograms' sums, in whole microseconds.
    pub fn stats(&self) -> ServiceStats {
        let snapshot = self.store.load();
        let m = &self.metrics;
        let q = "recurs_serve_queries_total";
        let cache_op = |op| m.counter_where("recurs_serve_cache_ops_total", &[("op", op)]);
        let summed_us = |name| (m.histogram_where(name, &[]).1 * 1e6) as u64;
        let updates = "recurs_serve_update_seconds";
        let unchanged = m.histogram_where(updates, &[("result", "unchanged")]).0;
        ServiceStats {
            queries: m.counter_where(q, &[]),
            complete: m.counter_where(q, &[("outcome", "complete")]),
            truncated: m.counter_where(q, &[("outcome", "truncated")]),
            errors: m.counter_value("recurs_serve_query_errors_total", &[]),
            kernels: PointKernelKind::families()
                .map(|family| (family, m.counter_where(q, &[("kernel", family)])))
                .collect(),
            queue_wait_us: summed_us("recurs_serve_admission_wait_seconds"),
            eval_us: summed_us("recurs_serve_query_seconds"),
            tuples_derived: m.counter_value("recurs_serve_tuples_derived_total", &[]),
            cache: CacheCounters {
                hits: cache_op("hit"),
                misses: cache_op("miss"),
                insertions: cache_op("insert"),
                evictions: cache_op("evict"),
                invalidations: cache_op("invalidate"),
                patched: cache_op("patch"),
            },
            snapshot_version: snapshot.version().get(),
            snapshot_updates: m.histogram_where(updates, &[]).0 - unchanged,
            updates_unchanged: unchanged,
        }
    }

    /// The service's metrics in Prometheus text exposition format,
    /// terminated by a `# EOF` line (which the `!metrics` protocol command
    /// uses as its framing marker).
    pub fn metrics_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// The service-wide statistics as a JSON object (single line).
    pub fn stats_json(&self) -> String {
        serde::json::to_string(&self.stats())
    }

    /// Number of live cache entries (0 when the cache is disabled).
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, SaturationCache::len)
    }

    /// The flight recorder's retained events as JSON lines — the postmortem
    /// payload a front end writes to disk when a worker panics or a drain
    /// is forced. Same shape as the trace sink, so `obsctl` reads it.
    pub fn postmortem_jsonl(&self) -> String {
        self.flight.to_jsonl()
    }

    /// Answers a query under a trace context *and* audits the plan: the
    /// reply is a JSON object carrying the classification verdict (with
    /// per-component I-graph cycle weights), which kernel ran and why, how
    /// the cache participated, the budget ceilings and headroom, and the
    /// request's span breakdown — whose root span covers the measured
    /// latency. This is the `!explain <query>` protocol command.
    pub fn explain(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
        trace: TraceId,
    ) -> Result<Value, ServeError> {
        // Fan the request's emissions out to the normal sinks *plus* a
        // private capture, so the span breakdown can be read back without
        // requiring a trace file to be configured.
        let capture = Arc::new(recurs_obs::CaptureRecorder::new());
        let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = Vec::with_capacity(2);
        if let Some(inner) = self.obs.recorder() {
            sinks.push(inner);
        }
        sinks.push(capture.clone());
        let base = Obs::fanout(sinks);
        let ctx = TraceCtx::new(&base, trace);

        let started = Instant::now();
        let reply = {
            let root = ctx.root("request");
            self.query_in(&ctx, root.id(), query, budget, max_wait)?
        };
        let measured_us = started.elapsed().as_micros() as u64;

        let spans: Vec<Value> = capture
            .events_of("span")
            .iter()
            .map(|e| {
                Value::object([
                    ("name", Value::string(e.text("name").unwrap_or("?"))),
                    ("span", Value::UInt(e.uint("span").unwrap_or(0))),
                    ("parent", Value::UInt(e.uint("parent").unwrap_or(0))),
                    ("start_us", Value::UInt(e.uint("start_us").unwrap_or(0))),
                    ("dur_us", Value::UInt(e.uint("dur_us").unwrap_or(0))),
                ])
            })
            .collect();

        let stats = &reply.stats;
        // What ran, in the plan's own words: its strategy note, the paper's
        // compiled formula, and the size of the program it lowers to.
        let plan = self.plans.plan(query)?;
        let kernel_reason = match (stats.cache, stats.kernel) {
            (CacheOutcome::Hit, _) => {
                "answered from the saturation cache for this snapshot version; no kernel ran"
            }
            (_, PointKernelKind::MaterializedView) => {
                "the maintained materialized view is exact for this snapshot version: \
                 plain select/project, no evaluation"
            }
            _ => plan.compiled.strategy.as_str(),
        };
        let iters = stats.fixpoint_iterations;
        let tuples = stats.tuples_derived;
        let budget_v = Value::object([
            (
                "timeout_ms",
                budget
                    .timeout
                    .map_or(Value::Null, |d| Value::UInt(d.as_millis() as u64)),
            ),
            ("max_tuples", opt_uz(budget.max_tuples)),
            ("max_iterations", opt_uz(budget.max_iterations)),
            ("spent_iterations", Value::UInt(iters as u64)),
            ("spent_tuples", Value::UInt(tuples as u64)),
            (
                "iterations_left",
                opt_uz(budget.max_iterations.map(|c| c.saturating_sub(iters))),
            ),
            (
                "tuples_left",
                opt_uz(budget.max_tuples.map(|c| c.saturating_sub(tuples))),
            ),
        ]);
        let audit = Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("explain")),
            ("trace", Value::string(trace.to_string())),
            ("query", Value::string(format!("{query}"))),
            (
                "classification",
                Value::object(verdict_fields(
                    &plan.classification,
                    [(
                        "one_directional",
                        Value::Bool(plan.classification.is_transformable_to_stable()),
                    )],
                )),
            ),
            (
                "kernel",
                Value::object([
                    ("choice", Value::string(stats.kernel.label())),
                    ("family", Value::string(stats.kernel.family())),
                    ("reason", Value::string(kernel_reason)),
                    ("formula", Value::string(plan.compiled.to_string())),
                    ("rules", plan.program().rules.len().to_value()),
                ]),
            ),
            (
                "cache",
                Value::object([
                    ("outcome", stats.cache.to_value()),
                    ("snapshot_version", stats.snapshot_version.to_value()),
                    ("entries", self.cache_len().to_value()),
                ]),
            ),
            ("budget", budget_v),
            ("outcome", stats.outcome.to_value()),
            ("answers", stats.answers.to_value()),
            (
                "queue_wait_us",
                (stats.queue_wait.as_micros() as u64).to_value(),
            ),
            ("measured_us", Value::UInt(measured_us)),
            ("spans", Value::Array(spans)),
        ]);
        if self.obs.enabled() {
            ctx.obs().event(
                "serve.explain",
                &[
                    ("kernel", stats.kernel.label().into()),
                    ("cache", field::st(stats.cache.label())),
                    ("measured_us", field::u(measured_us)),
                ],
            );
        }
        Ok(audit)
    }

    /// Explains why a ground fact of the served predicate is (or is not)
    /// derivable over the current snapshot: a depth-bounded backward walk
    /// to a derivation tree — over the maintained view when it is exact for
    /// the snapshot, else over a saturated clone of the snapshot's store —
    /// cross-checked structurally before it is returned. A budget that
    /// runs out first makes a truncated reply, not an error. It holds an
    /// evaluation slot for the walk, admitted like a query under `max_wait`.
    /// This is the `why <fact>` protocol command and `run --why`. Under the
    /// `trace` id a request named, if it named one, the `serve.why` and
    /// `serve.shed` events carry it, inside one `request` span, and so does
    /// the reply; none is minted for a request that named none.
    pub fn why(
        &self,
        predicate: Symbol,
        tuple: &[recurs_datalog::term::Value],
        max_depth: u64,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
        trace: Option<TraceId>,
    ) -> Result<WhyReply, ServeError> {
        let ctx = trace.map(|id| TraceCtx::new(&self.obs, id));
        // One `request` span, so that what it tags is a tree `obsctl` reads.
        let _request = ctx.as_ref().map(|ctx| ctx.root("request"));
        let obs = ctx.as_ref().map_or(&self.obs, TraceCtx::obs);
        let lr = self.plans.recursion();
        if predicate != lr.predicate {
            return Err(ServeError::WrongPredicate {
                got: predicate,
                serves: lr.predicate,
            });
        }
        let (_permit, _) = self.admit(max_wait, obs)?;
        let start = Instant::now();
        let snapshot = self.store.load();
        // A view exact for the snapshot already holds the fixpoint: the walk
        // runs over it, under the read lock, and saturates nothing. Without
        // one, the walk runs over a saturated clone of the snapshot's store.
        let from_view = {
            let guard = self.view.read().unwrap_or_else(PoisonError::into_inner);
            match &*guard {
                Some(vs) if vs.version == snapshot.version() => {
                    Some(vs.mat.explain(tuple, max_depth, budget))
                }
                _ => None,
            }
        };
        let view_seeded = from_view.is_some();
        let explained = from_view
            .unwrap_or_else(|| explain_fact(lr, snapshot.store(), tuple, max_depth, budget));
        let args: Vec<&str> = tuple.iter().map(|v| v.as_str()).collect();
        let fact = format!("{predicate}({})", args.join(", "));
        let outcome = match explained {
            Ok(found) => Ok(found),
            Err(IvmError::Truncated(reason)) => Err(reason),
            Err(IvmError::Datalog(e)) => return Err(e.into()),
            Err(IvmError::Engine(e)) => return Err(e.into()),
            Err(IvmError::IdbUpdate(p)) => return Err(ServeError::DerivedUpdate(p)),
        };
        // A tree that fails the structural check is a provenance bug, not a
        // client error — refuse to present it.
        if let Ok(WhyOutcome::Derived(tree)) = &outcome {
            if let Err(defect) = verify_tree(lr, snapshot.store(), tree) {
                if obs.enabled() {
                    obs.event(
                        "serve.why",
                        &[("fact", field::s(&fact)), ("defect", field::s(defect))],
                    );
                }
                return Err(ServeError::Engine(recurs_engine::EngineError::Internal(
                    "derivation tree failed structural verification",
                )));
            }
        }
        if obs.enabled() {
            let mut fields = vec![("fact", field::s(&fact))];
            match &outcome {
                Ok(found) => {
                    let derived = !matches!(found, WhyOutcome::NotDerived);
                    fields.push(("derived", field::b(derived)));
                }
                Err(reason) => fields.push(("truncation", field::st(reason.label()))),
            }
            fields.push(("eval_us", field::us(start.elapsed())));
            obs.event("serve.why", &fields);
        }
        Ok(WhyReply {
            fact,
            outcome,
            snapshot_version: snapshot.version(),
            view_seeded,
            trace,
        })
    }
}

/// `Some(n)` → JSON number, `None` → JSON null.
fn opt_uz(v: Option<usize>) -> Value {
    v.map_or(Value::Null, |n| Value::UInt(n as u64))
}

/// The classification verdict's fields — the overall class, each
/// non-trivial I-graph component's class with its cycle count and (for an
/// independent cycle) weight and directionality, `extra`, and the proven
/// rank bound when one exists. Both the `classify.verdict` event and
/// `!explain`'s `classification` object are this, each with its own
/// `extra` fields.
pub fn verdict_fields(
    c: &Classification,
    extra: impl IntoIterator<Item = (&'static str, Value)>,
) -> Vec<(&'static str, Value)> {
    let mut class_iter = c.component_classes.iter();
    let components: Vec<Value> = c
        .components
        .iter()
        .filter(|comp| comp.is_nontrivial())
        .map(|comp| {
            let label = class_iter.next().map_or("?", |cl| cl.label());
            let mut fields = vec![
                ("class", Value::string(label)),
                ("cycles", Value::UInt(comp.cycles.len() as u64)),
            ];
            if let ComponentKind::IndependentCycle(cy) = &comp.kind {
                fields.push(("weight", Value::UInt(cy.magnitude())));
                fields.push(("one_directional", Value::Bool(cy.one_directional)));
                fields.push(("rotational", Value::Bool(cy.rotational)));
            }
            Value::object(fields)
        })
        .collect();
    let mut fields = vec![
        ("class", Value::string(c.class.label())),
        ("components", Value::Array(components)),
    ];
    fields.extend(extra);
    if let Some(rank) = c.rank_bound() {
        fields.push(("rank_bound", Value::UInt(rank)));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn tc_service(n: u64, config: ServeConfig) -> QueryService {
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        QueryService::new(lr, db, config)
    }

    /// The queries `stats` counts under a kernel family.
    fn served_by(stats: &ServiceStats, family: &str) -> u64 {
        let count = stats.kernels.iter().find(|(f, _)| *f == family);
        count.map_or(0, |&(_, n)| n)
    }

    #[test]
    fn repeated_query_hits_the_cache() {
        let service = tc_service(10, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let first = service.query(&q).unwrap();
        assert_eq!(first.stats.cache, CacheOutcome::Miss);
        let second = service.query(&q).unwrap();
        assert_eq!(second.stats.cache, CacheOutcome::Hit);
        assert_eq!(first.answers.to_relation(), second.answers.to_relation());
        // Alpha-equivalent query shares the entry.
        let renamed = parse_atom("P(1, z)").unwrap();
        assert_eq!(
            service.query(&renamed).unwrap().stats.cache,
            CacheOutcome::Hit
        );
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn disabled_cache_reports_bypass() {
        let service = tc_service(
            6,
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Bypass);
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Bypass);
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn update_installs_version_and_invalidates_cache() {
        let service = tc_service(5, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let before = service.query(&q).unwrap();
        assert_eq!(before.stats.snapshot_version, 0);
        assert!(service.cache_len() > 0);
        // Extend the chain: 5 → 6.
        service
            .apply_update(&[
                FactOp::Insert(Symbol::intern("A"), tuple_u64([5, 6])),
                FactOp::Insert(Symbol::intern("E"), tuple_u64([5, 6])),
            ])
            .unwrap();
        assert_eq!(service.cache_len(), 0, "stale entries must be invalidated");
        let after = service.query(&q).unwrap();
        assert_eq!(after.stats.cache, CacheOutcome::Miss);
        assert_eq!(after.stats.snapshot_version, 1);
        assert_eq!(after.answers.len(), before.answers.len() + 1);
    }

    #[test]
    fn noop_update_reports_unchanged_without_version_bump() {
        let service = tc_service(5, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        assert!(service.cache_len() > 0);
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let ops = vec![FactOp::Insert(a, tuple_u64([1, 2]))]; // already present
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Unchanged { version } => assert_eq!(version, 0),
            other => panic!("expected Unchanged, got {other:?}"),
        }
        // Same version, so the warm entry still hits.
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Hit);
        let stats = service.stats();
        assert_eq!(stats.snapshot_version, 0);
        assert_eq!(stats.snapshot_updates, 0);
        assert_eq!(stats.updates_unchanged, 1);
    }

    #[test]
    fn apply_update_patches_view_and_cache_in_place() {
        let service = tc_service(5, ServeConfig::default());
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let e = recurs_datalog::symbol::Symbol::intern("E");
        // First fact update builds the view cold (no patch to carry yet).
        let ops = vec![
            FactOp::Insert(a, tuple_u64([5, 6])),
            FactOp::Insert(e, tuple_u64([5, 6])),
        ];
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Installed {
                inserted,
                deleted,
                maintenance,
                ..
            } => {
                assert_eq!((inserted, deleted), (2, 0));
                assert_eq!(maintenance, "saturate");
            }
            other => panic!("expected Installed, got {other:?}"),
        }
        // Warm the cache at version 1, then update again: the entry must be
        // patched across the version bump, not dropped.
        let q = parse_atom("P(1, y)").unwrap();
        let before = service.query(&q).unwrap();
        assert_eq!(before.stats.cache, CacheOutcome::Miss);
        let ops = vec![
            FactOp::Insert(a, tuple_u64([6, 7])),
            FactOp::Insert(e, tuple_u64([6, 7])),
        ];
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Installed { maintenance, .. } => assert_eq!(maintenance, "generic-dred"),
            other => panic!("expected Installed, got {other:?}"),
        }
        let after = service.query(&q).unwrap();
        assert_eq!(after.stats.cache, CacheOutcome::Hit, "entry was carried");
        assert_eq!(after.stats.snapshot_version, 2);
        assert_eq!(after.answers.len(), before.answers.len() + 1);
        assert!(service.stats().cache.patched > 0);
        // Deletion maintains too: drop the chain tail again.
        let ops = vec![
            FactOp::Delete(a, tuple_u64([6, 7])),
            FactOp::Delete(e, tuple_u64([6, 7])),
        ];
        service.apply_update(&ops).unwrap();
        let shrunk = service.query(&q).unwrap();
        assert_eq!(shrunk.stats.cache, CacheOutcome::Hit);
        assert_eq!(shrunk.answers.len(), before.answers.len());
    }

    #[test]
    fn the_served_path_runs_the_planners_table() {
        // Source-bound TC on a chain of 800: the walk reaches 799 vertices
        // and answers 799 — where the magic rewrite this service ran before
        // derived P(z, y) for every reachable z, 320 399 tuples.
        let service = tc_service(800, ServeConfig::default());
        let reply = service.query(&parse_atom("P(1, y)").unwrap()).unwrap();
        assert_eq!(reply.stats.kernel.label(), "frontier");
        assert_eq!(reply.answers.len(), 799);
        assert!(
            reply.stats.tuples_derived <= 1_600,
            "{}",
            reply.stats.tuples_derived
        );

        // Class E (s11) with a binding is magic, not full saturation: only
        // tuples connected to the query constant are derived.
        let lr = validate_with_generic_exit(
            &parse_program(
                "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\nP(x, y) :- E(x, y).",
            )
            .unwrap(),
        )
        .unwrap();
        let n = 120u64;
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("B", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("C", Relation::from_pairs((1..=n).map(|i| (i, i))));
        db.insert_relation("E", Relation::from_pairs((1..=n).map(|i| (i, i))));
        let service = QueryService::new(lr, db, ServeConfig::default());
        let bound = service.query(&parse_atom("P(100, y)").unwrap()).unwrap();
        assert_eq!(bound.stats.kernel.label(), "magic");
        assert_eq!(bound.answers.len(), 1);
        let free = service.query(&parse_atom("P(x, y)").unwrap()).unwrap();
        assert_eq!(free.stats.kernel.label(), "saturate");
        assert!(
            bound.stats.tuples_derived * 2 < free.stats.tuples_derived,
            "magic derived {} of the fixpoint's {}",
            bound.stats.tuples_derived,
            free.stats.tuples_derived
        );
    }

    #[test]
    fn materialized_view_answers_fresh_queries_without_evaluation() {
        let service = tc_service(6, ServeConfig::default());
        let e = recurs_datalog::symbol::Symbol::intern("E");
        service
            .apply_update(&[FactOp::Insert(e, tuple_u64([1, 6]))])
            .unwrap();
        // Fresh query, cache miss, but the view is exact for this version.
        let q = parse_atom("P(2, y)").unwrap();
        let reply = service.query(&q).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Miss);
        assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
        assert_eq!(reply.stats.tuples_derived, 0);
        assert_eq!(reply.answers.len(), 4); // 3, 4, 5, 6
        assert_eq!(served_by(&service.stats(), "materialized"), 1);
        // And the answer was admitted to the cache like any complete answer.
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Hit);
    }

    #[test]
    fn updates_to_the_derived_predicate_are_rejected() {
        let service = tc_service(5, ServeConfig::default());
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let err = service
            .apply_update(&[FactOp::Insert(p, tuple_u64([1, 5]))])
            .unwrap_err();
        assert!(err.to_string().contains("derived"), "got {err}");
        assert_eq!(service.stats().snapshot_version, 0);
    }

    #[test]
    fn update_events_pin_the_taxonomy() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let service = tc_service(
            5,
            ServeConfig {
                obs: recurs_obs::Obs::new(capture.clone()),
                ..ServeConfig::default()
            },
        );
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let e = recurs_datalog::symbol::Symbol::intern("E");
        service
            .apply_update(&[
                FactOp::Insert(a, tuple_u64([5, 6])),
                FactOp::Insert(e, tuple_u64([5, 6])),
            ])
            .unwrap();
        service
            .apply_update(&[FactOp::Delete(e, tuple_u64([5, 6]))])
            .unwrap();
        service
            .apply_update(&[FactOp::Insert(a, tuple_u64([1, 2]))]) // no-op
            .unwrap();
        let updates = capture.events_of("serve.update");
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].text("result"), Some("saturate"));
        assert_eq!(updates[0].uint("version"), Some(1));
        assert_eq!(updates[0].uint("inserted"), Some(2));
        assert_eq!(updates[1].text("result"), Some("generic-dred"));
        assert_eq!(updates[1].uint("deleted"), Some(1));
        assert_eq!(updates[2].text("result"), Some("unchanged"));
        assert_eq!(updates[2].uint("version"), Some(2));
        // The update histogram's counts match the events, and the
        // maintenance layer reported its patch through the same recorder.
        let updates = |result| {
            let required = [("result", result)];
            service
                .metrics
                .histogram_where("recurs_serve_update_seconds", &required)
                .0
        };
        assert_eq!(updates("unchanged"), 1);
        assert_eq!(updates("generic-dred"), 1);
        assert_eq!(capture.events_of("ivm.patch").len(), 1);
        assert_eq!(capture.events_of("ivm.saturate").len(), 1);
    }

    #[test]
    fn truncated_answers_are_not_cached() {
        let service = tc_service(30, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let tight = EvalBudget::unlimited().with_max_iterations(2);
        let reply = service
            .query_traced(&q, &tight, None, TraceId::mint())
            .unwrap();
        assert!(!reply.outcome.is_complete());
        assert_eq!(service.cache_len(), 0);
        // The next (unbudgeted) query must not see the truncated answer.
        let full = service.query(&q).unwrap();
        assert_eq!(full.stats.cache, CacheOutcome::Miss);
        assert!(full.outcome.is_complete());
        assert!(full.answers.len() > reply.answers.len());
    }

    #[test]
    fn external_recorder_sees_query_and_snapshot_events() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let external = std::sync::Arc::new(Aggregator::default());
        let service = tc_service(
            8,
            ServeConfig {
                obs: recurs_obs::Obs::fanout(vec![capture.clone(), external.clone()]),
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        service.query(&q).unwrap();
        service
            .apply_update(&[FactOp::Insert(Symbol::intern("A"), tuple_u64([8, 9]))])
            .unwrap();
        let queries = capture.events_of("serve.query");
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].text("cache"), Some("miss"));
        assert_eq!(queries[1].text("cache"), Some("hit"));
        assert_eq!(queries[0].text("outcome"), Some("complete"));
        assert_eq!(queries[0].uint("snapshot_version"), Some(0));
        // The installed snapshot is the update's `version`.
        let updates = capture.events_of("serve.update");
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].text("result"), Some("saturate"));
        assert_eq!(updates[0].uint("version"), Some(1));
        // The external recorder sees the same counters the derived
        // ServiceStats view reads from the service's own aggregator.
        assert_eq!(external.counter_where("recurs_serve_queries_total", &[]), 2);
        assert_eq!(
            external.counter_value("recurs_serve_cache_ops_total", &[("op", "hit")]),
            1
        );
        assert_eq!(
            external
                .histogram_where("recurs_serve_update_seconds", &[])
                .0,
            service.stats().snapshot_updates
        );
    }

    #[test]
    fn derived_stats_match_the_recorder_stream() {
        let service = tc_service(10, ServeConfig::default());
        let q1 = parse_atom("P(1, y)").unwrap();
        let q2 = parse_atom("P(2, y)").unwrap();
        service.query(&q1).unwrap();
        service.query(&q1).unwrap(); // hit
        service.query(&q2).unwrap();
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.complete, 3);
        assert_eq!(stats.truncated, 0);
        assert_eq!(served_by(&stats, "frontier"), 3);
        assert_eq!(served_by(&stats, "magic"), 0);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 2);
        // The Prometheus exposition is fed by the same aggregator.
        let text = service.metrics_text();
        assert!(text.contains("recurs_serve_queries_total"));
        assert!(text.ends_with("# EOF\n"));

        // Every summed number in `!stats` is a histogram's sum or count in
        // `!metrics`. All 43 queries land on the one frontier series, so
        // the comparison re-adds no floats.
        for i in 1..=40 {
            service
                .query(&parse_atom(&format!("P({i}, y)")).unwrap())
                .unwrap();
        }
        let a = Symbol::intern("A");
        let installed = service.apply_update(&[FactOp::Insert(a, tuple_u64([10, 11]))]);
        assert!(matches!(installed, Ok(UpdateOutcome::Installed { .. })));
        let unchanged = service.apply_update(&[FactOp::Insert(a, tuple_u64([10, 11]))]);
        assert!(matches!(unchanged, Ok(UpdateOutcome::Unchanged { .. })));
        let stats = service.stats();
        let text = service.metrics_text();
        let sample = |series: &str| -> f64 {
            let line = text
                .lines()
                .find(|l| l.split(' ').next() == Some(series))
                .unwrap_or_else(|| panic!("no sample {series} in\n{text}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let as_us = |seconds: f64| (seconds * 1e6) as u64;
        assert_eq!(served_by(&stats, "frontier"), 43);
        assert_eq!(
            stats.eval_us,
            as_us(sample(
                r#"recurs_serve_query_seconds_sum{kernel="frontier"}"#
            ))
        );
        assert_eq!(
            stats.queue_wait_us,
            as_us(sample("recurs_serve_admission_wait_seconds_sum"))
        );
        assert_eq!((stats.snapshot_updates, stats.updates_unchanged), (1, 1));
        assert_eq!(
            (stats.snapshot_updates, stats.updates_unchanged),
            (
                sample(r#"recurs_serve_update_seconds_count{result="saturate"}"#) as u64,
                sample(r#"recurs_serve_update_seconds_count{result="unchanged"}"#) as u64,
            )
        );
    }

    #[test]
    fn traced_query_emits_spans_and_trace_tagged_events() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let service = tc_service(
            8,
            ServeConfig {
                obs: recurs_obs::Obs::new(capture.clone()),
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        let trace = TraceId::from_u64(0xabcd);
        let reply = service
            .query_traced(&q, &EvalBudget::unlimited(), None, trace)
            .unwrap();
        assert_eq!(reply.trace, trace);
        // The request decomposed into spans, all under one root.
        let spans = capture.events_of("span");
        let names: Vec<_> = spans.iter().filter_map(|e| e.text("name")).collect();
        assert!(names.contains(&"request"), "spans: {names:?}");
        assert!(names.contains(&"admission"), "spans: {names:?}");
        assert!(names.contains(&"cache"), "spans: {names:?}");
        assert!(names.contains(&"eval"), "spans: {names:?}");
        assert!(names.contains(&"cache_store"), "spans: {names:?}");
        for span in &spans {
            assert_eq!(span.trace, Some(trace));
        }
        // The request's serve.query event carries the same trace id.
        let queries = capture.events_of("serve.query");
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].trace, Some(trace));
        // A second traced query hits the cache: no eval span this time.
        let reply = service
            .query_traced(&q, &EvalBudget::unlimited(), None, TraceId::from_u64(1))
            .unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Hit);
        let hit_spans: Vec<_> = capture
            .events_of("span")
            .iter()
            .filter(|e| e.trace == Some(TraceId::from_u64(1)))
            .filter_map(|e| e.text("name").map(str::to_string))
            .collect();
        assert!(hit_spans.contains(&"cache".to_string()));
        assert!(!hit_spans.contains(&"eval".to_string()), "{hit_spans:?}");
    }

    #[test]
    fn explain_audits_the_plan_with_span_timings_near_measured_latency() {
        let service = tc_service(800, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let audit = service
            .explain(
                &q,
                &EvalBudget::unlimited().with_max_iterations(100_000),
                None,
                TraceId::from_u64(9),
            )
            .unwrap();
        let text = serde::json::to_string(&audit);
        assert!(text.contains("\"type\":\"explain\""), "{text}");
        assert!(text.contains("\"trace\":\"0000000000000009\""), "{text}");
        assert!(text.contains("\"classification\""), "{text}");
        assert!(text.contains("\"one_directional\":true"), "{text}");
        assert!(text.contains("\"weight\""), "{text}");
        // The kernel is named by the plan that ran: its lowering, its own
        // strategy note, the paper's formula and the program's size.
        assert!(text.contains("\"choice\":\"frontier\""), "{text}");
        assert!(
            text.contains("\"reason\":\"the counting formula as a frontier walk"),
            "{text}"
        );
        assert!(text.contains("\"formula\":\"σE,  ∪k[σA^k-E]\""), "{text}");
        assert!(text.contains("\"rules\":2"), "{text}");
        // 799 vertices reached, 799 answered: no fixpoint over P.
        assert!(text.contains("\"spent_tuples\":1598"), "{text}");
        assert!(text.contains("\"outcome\":{\"complete\":true"), "{text}");
        assert!(text.contains("\"max_iterations\":100000"), "{text}");
        assert!(text.contains("\"name\":\"request\""), "{text}");
        // The span breakdown accounts for the measured request latency: the
        // root span covers everything between admission and reply.
        let Some(Value::UInt(measured)) = audit.get("measured_us") else {
            panic!("missing measured_us in {text}");
        };
        let Some(Value::Array(spans)) = audit.get("spans") else {
            panic!("missing spans in {text}");
        };
        let root_dur = spans
            .iter()
            .find(|s| s.get("parent") == Some(&Value::UInt(0)))
            .and_then(|s| match s.get("dur_us") {
                Some(Value::UInt(d)) => Some(*d),
                _ => None,
            })
            .expect("root span present");
        let drift = measured.abs_diff(root_dur);
        assert!(
            drift * 10 <= *measured,
            "root span {root_dur}us vs measured {measured}us drifts more than 10%"
        );
    }

    #[test]
    fn a_shed_explain_is_counted_and_traced_like_a_shed_query() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let config = ServeConfig {
            max_concurrent: 1,
            obs: recurs_obs::Obs::new(capture.clone()),
            ..ServeConfig::default()
        };
        let service = tc_service(6, config);
        let q = parse_atom("P(1, y)").unwrap();
        let (budget, wait) = (EvalBudget::unlimited(), Some(Duration::from_millis(1)));
        // Hold the only evaluation slot: every bounded request is shed.
        let (held, _) = service.admission.acquire(None).unwrap();
        let explained = service.explain(&q, &budget, wait, TraceId::from_u64(7));
        assert!(matches!(explained, Err(ServeError::Overloaded { .. })));
        let queried = service.query_traced(&q, &budget, wait, TraceId::from_u64(8));
        assert!(matches!(queried, Err(ServeError::Overloaded { .. })));
        assert_eq!(
            service
                .metrics
                .counter_value("recurs_serve_queries_shed_total", &[]),
            2
        );
        let shed = capture.events_of("serve.shed");
        assert_eq!(shed.len(), 2);
        assert_eq!(shed[0].trace, Some(TraceId::from_u64(7)));
        // Nothing shed was evaluated; the slot, once free, admits again.
        assert_eq!(service.stats().queries, 0);
        drop(held);
        assert!(service
            .explain(&q, &budget, wait, TraceId::from_u64(9))
            .is_ok());
    }

    #[test]
    fn a_why_waits_for_a_slot_and_is_shed_like_a_query() {
        use crate::protocol::{handle_line_with, LineOptions, LineOutcome, RequestResult};
        let config = ServeConfig {
            max_concurrent: 1,
            ..ServeConfig::default()
        };
        let service = tc_service(6, config);
        let opts = LineOptions {
            max_queue_wait: Some(Duration::from_millis(1)),
            ..LineOptions::default()
        };
        let why = |service: &QueryService| match handle_line_with(service, "why P(1, 4).", &opts) {
            (LineOutcome::Reply(text), result) => (text, result),
            _ => panic!("a why line gets a reply"),
        };
        // Hold the only evaluation slot: the walk waits for it like a query.
        let (held, _) = service.admission.acquire(None).unwrap();
        let (text, result) = why(&service);
        assert_eq!(result, RequestResult::Shed, "{text}");
        assert!(text.contains("\"type\":\"overloaded\""), "{text}");
        assert!(text.contains("\"retry_after_ms\":"), "{text}");
        let shed = || {
            service
                .metrics
                .counter_value("recurs_serve_queries_shed_total", &[])
        };
        assert_eq!(shed(), 1);
        drop(held);
        let (text, result) = why(&service);
        assert_eq!(result, RequestResult::Ok, "{text}");
        assert!(text.contains("\"type\":\"why\""), "{text}");
        assert_eq!(shed(), 1);
    }

    #[test]
    fn a_traced_why_that_is_shed_tags_its_shed_event() {
        use crate::protocol::{handle_line_with, LineOptions, RequestResult};
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let config = ServeConfig {
            max_concurrent: 1,
            obs: recurs_obs::Obs::new(capture.clone()),
            ..ServeConfig::default()
        };
        let service = tc_service(6, config);
        let opts = LineOptions {
            max_queue_wait: Some(Duration::from_millis(1)),
            ..LineOptions::default()
        };
        let (held, _) = service.admission.acquire(None).unwrap();
        for line in ["@trace=abc why P(1, 4).", "why P(1, 4)."] {
            let (_, result) = handle_line_with(&service, line, &opts);
            assert_eq!(result, RequestResult::Shed, "{line}");
        }
        drop(held);
        let traces: Vec<_> = capture
            .events_of("serve.shed")
            .iter()
            .map(|e| e.trace)
            .collect();
        assert_eq!(traces, [Some(TraceId::from_u64(0xabc)), None]);
    }

    #[test]
    fn why_returns_a_verified_tree_or_not_derived() {
        let service = tc_service(5, ServeConfig::default());
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let unlimited = EvalBudget::unlimited();
        let derived = service
            .why(p, &tuple_u64([1, 4]), 1_000, &unlimited, None, None)
            .unwrap();
        assert_eq!(derived.fact, "P(1, 4)");
        assert!(!derived.view_seeded);
        let Ok(WhyOutcome::Derived(tree)) = &derived.outcome else {
            panic!("P(1, 4) is derived: {derived:?}");
        };
        assert_eq!(tree.rule, Some(0), "one recursive step");
        assert!(
            tree.children.iter().any(|c| c.rule.is_none()),
            "an EDB leaf"
        );
        let missing = service
            .why(p, &tuple_u64([4, 1]), 1_000, &unlimited, None, None)
            .unwrap();
        assert!(matches!(missing.outcome, Ok(WhyOutcome::NotDerived)));
        let shallow = service
            .why(p, &tuple_u64([1, 4]), 0, &unlimited, None, None)
            .unwrap();
        assert!(matches!(
            shallow.outcome,
            Ok(WhyOutcome::DepthExceeded {
                rank: 2,
                max_depth: 0
            })
        ));
        // A budget stop is a truncated reply, not an error.
        let tight = EvalBudget::unlimited().with_max_tuples(1);
        let stopped = service
            .why(p, &tuple_u64([1, 4]), 1_000, &tight, None, None)
            .unwrap();
        assert_eq!(stopped.outcome.unwrap_err(), TruncationReason::TupleCeiling);
        // Wrong predicate is a typed error.
        let q = recurs_datalog::symbol::Symbol::intern("Q");
        assert!(matches!(
            service.why(q, &tuple_u64([1, 2]), 10, &unlimited, None, None),
            Err(ServeError::WrongPredicate { .. })
        ));
    }

    #[test]
    fn why_seeds_from_the_maintained_view_when_exact() {
        let service = tc_service(5, ServeConfig::default());
        let e = recurs_datalog::symbol::Symbol::intern("E");
        // A fact update builds the view, making count() available.
        service
            .apply_update(&[FactOp::Insert(e, tuple_u64([1, 5]))])
            .unwrap();
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let unlimited = EvalBudget::unlimited();
        let derived = service
            .why(p, &tuple_u64([1, 4]), 1_000, &unlimited, None, None)
            .unwrap();
        assert!(derived.view_seeded);
        assert_eq!(derived.snapshot_version, 1);
        assert!(matches!(derived.outcome, Ok(WhyOutcome::Derived(_))));
        let missing = service
            .why(p, &tuple_u64([4, 1]), 1_000, &unlimited, None, None)
            .unwrap();
        assert!(missing.view_seeded);
        assert!(matches!(missing.outcome, Ok(WhyOutcome::NotDerived)));
    }

    #[test]
    fn flight_recorder_retains_recent_events_for_postmortem() {
        let service = tc_service(6, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        service
            .apply_update(&[FactOp::Insert(Symbol::intern("A"), tuple_u64([6, 7]))])
            .unwrap();
        let dump = service.postmortem_jsonl();
        assert!(!dump.is_empty());
        assert!(dump.contains("\"kind\":\"serve.query\""), "{dump}");
        assert!(dump.contains("\"kind\":\"serve.update\""), "{dump}");
        // Every line parses as the trace-sink JSON shape.
        for line in dump.lines() {
            let v = recurs_obs::jsonl::parse(line).unwrap();
            assert!(v.get("seq").is_some() && v.get("kind").is_some(), "{line}");
        }
    }

    #[test]
    fn stats_json_is_one_line_with_expected_fields() {
        let service = tc_service(6, ServeConfig::default());
        let q = parse_atom("P(2, y)").unwrap();
        service.query(&q).unwrap();
        let json = service.stats_json();
        assert!(!json.contains('\n'));
        for field in [
            "\"queries\":1",
            "\"kernels\"",
            "\"cache\"",
            "\"snapshot_version\":0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    /// Stored rows the service's selects and pipelines have read so far:
    /// the engine's probe-hit counter, off the metrics page.
    fn rows_visited(service: &QueryService) -> usize {
        let metrics = service.metrics_text();
        let line = metrics
            .lines()
            .find(|line| line.starts_with("recurs_engine_probe_hits_total"));
        let count = line.and_then(|line| line.rsplit(' ').next()?.parse().ok());
        count.unwrap_or(0)
    }

    // The maintained view keeps an index on every column: after the update
    // that builds it, a patched insert and a patched delete, a select binding
    // one column reads its answers and no other row.
    #[test]
    fn a_view_select_binding_one_column_reads_only_its_answers() {
        use recurs_datalog::term::{Term, Value};
        for seed in [3, 17, 29, 101, 4242] {
            let lr = recurs_workload::random_linear_recursion(seed, Default::default());
            let edb = recurs_workload::random_database(&lr, 12, 4, seed);
            let config = ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            };
            let service = QueryService::new(lr.clone(), edb.clone(), config);
            let (rel, arity) = edb.iter().next().map(|(r, t)| (r, t.arity())).unwrap();
            // Tuples outside the domain, so each update is a real change.
            let fresh = |k: u64| tuple_u64((0..arity).map(|i| if i == 0 { 4 + k } else { 1 }));
            let steps = [
                FactOp::Insert(rel, fresh(1)),
                FactOp::Insert(rel, fresh(2)),
                FactOp::Delete(rel, fresh(1)),
            ];
            for op in steps {
                service.apply_update(&[op]).unwrap();
                for (col, c) in (0..lr.dimension()).flat_map(|col| (1..=6).map(move |c| (col, c))) {
                    let term = |i: usize| match i == col {
                        true => Term::Const(Value::from_u64(c)),
                        false => Term::var(&format!("x{i}")),
                    };
                    let query = Atom::new(lr.predicate, (0..lr.dimension()).map(term).collect());
                    let before = rows_visited(&service);
                    let reply = service.query(&query).unwrap();
                    assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
                    let read = rows_visited(&service) - before;
                    assert_eq!(read, reply.answers.len(), "seed {seed}: {query}");
                }
            }
        }
    }
}
