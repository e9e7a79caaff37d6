//! `recurs-obs` — the workspace's observability spine.
//!
//! Every layer of the system that runs work (the indexed engine in
//! `recurs-engine`, the query service in `recurs-serve`, the network front
//! end, and the CLI) reports what it is doing through one narrow interface, the
//! [`Recorder`] trait, carried around as a cheaply cloneable [`Obs`] handle:
//!
//! * **Counters** ([`Recorder::counter`]) — monotonic totals such as tuples
//!   derived or cache hits, labelled with low-cardinality dimensions
//!   (kernel, outcome, cache op).
//! * **Histograms** ([`Recorder::observe`]) — latency/size distributions in
//!   base units (seconds), bucketed by the [`aggregate::Aggregator`].
//! * **Events** ([`Recorder::event`]) — structured provenance records (one
//!   JSON object per occurrence): per-iteration deltas, per-rule join
//!   fan-in/out, classification verdicts, truncation causes, injected
//!   faults. Events reconstruct *why* a run behaved as it did; counters and
//!   histograms summarize *how much*.
//!
//! Three sinks implement the trait:
//!
//! * [`aggregate::Aggregator`] — an in-memory metric store that
//!   renders to Prometheus text exposition ([`prometheus`]); events are
//!   ignored.
//! * [`trace::TraceWriter`] — a JSON-lines
//!   writer that persists every event with a sequence number and relative
//!   timestamp; counters/histograms are ignored.
//! * [`CaptureRecorder`] — an in-memory capture of events for tests;
//!   counters/histograms are ignored (a test that counts attaches an
//!   aggregator beside it).
//!
//! Whether a sink keeps *detail* is fixed by its type ([`Recorder::detail`]):
//! the trace writer and the test capture do, and receive the per-round and
//! per-rule events of a saturation (`engine.iteration`, `engine.rule`); the
//! aggregator and the flight ring do not, and a run they see records per run
//! (its `engine.complete`, its counters). A fan-out keeps detail when any of
//! its sinks does ([`Obs::detailed`]), so attaching a trace file brings the
//! per-round events back for every sink, and the metrics are the same either
//! way: no metric is recorded per round.
//!
//! [`FanoutRecorder`] composes sinks, and the default handle
//! ([`Obs::noop`]) records nothing: it holds no allocation, reports
//! [`Obs::enabled`]` == false`, and every emission is a branch on a `None`.
//! Instrumented code guards field construction behind `enabled()`, so the
//! cost of carrying an `Obs` through a hot loop with the no-op recorder is
//! a predictable branch per emission site, and the sites fire per run,
//! round or rule, never per tuple (counted by the engine's `recorder_cost`
//! and the ivm's `maintenance_cost` tests).
//!
//! A handle may also carry a request's [`TraceId`] ([`Obs::with_trace`]):
//! every event emitted through it reaches the sinks with that id, and the
//! sinks that keep events render it as the event's last field, `"trace"`.
//! Tagging a handle copies the handle, not the sinks, and emitting through
//! it builds nothing: an event's fields are borrowed by every sink, and
//! only a sink that keeps the event copies them.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

pub use serde::Value;

pub mod aggregate;
pub mod context;
pub mod flight;
pub mod jsonl;
pub mod prometheus;
pub mod taxonomy;
pub mod trace;

pub use context::{SpanGuard, SpanId, TraceCtx, TraceId, TraceIdError, TRACE_ID_MAX_LEN};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};

/// A metric label, `(key, value)`. Both are chosen in code, never taken
/// from a client, so the aggregator finds a series with a cheap unkeyed
/// hash: no request can pick labels that collide.
pub type Label = (&'static str, &'static str);

/// The sink interface: everything instrumented code can emit.
///
/// All methods have no-op defaults so a sink implements only what it
/// consumes (the aggregator ignores events, the trace writer ignores
/// metrics). `name`/`kind` and both halves of a [`Label`] are `'static`
/// so sinks can store them without copying; event fields are borrowed and
/// must be copied by sinks that retain them.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Whether this sink wants data at all. Instrumented code checks the
    /// handle-level [`Obs::enabled`] before building label/field arrays.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this sink keeps per-round detail: the events a saturation
    /// emits per round and per rule. Fixed by the sink's type; instrumented
    /// code reads it once per run through [`Obs::detailed`] and emits that
    /// detail only when some sink keeps it.
    fn detail(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter `name` for the given label set.
    fn counter(&self, _name: &'static str, _labels: &[Label], _delta: u64) {}

    /// Records one observation of `value` (base unit: seconds for
    /// durations) into the histogram `name` for the given label set.
    fn observe(&self, _name: &'static str, _labels: &[Label], _value: f64) {}

    /// Emits a structured event of the given kind with ordered fields,
    /// under the request `trace` it was emitted for, if any. A sink that
    /// keeps events renders the id after the fields, as `"trace"`.
    fn event(
        &self,
        _kind: &'static str,
        _fields: &[(&'static str, Value)],
        _trace: Option<TraceId>,
    ) {
    }
}

/// A cheaply cloneable handle to a [`Recorder`] (or to nothing), and the
/// request trace its events are emitted under (or none).
///
/// The default handle is the no-op: it holds no allocation and every
/// emission short-circuits. Construct an active handle with [`Obs::new`]
/// or [`Obs::fanout`], and a request's handle with [`Obs::with_trace`].
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<dyn Recorder>>,
    trace: Option<TraceId>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Obs(noop)"),
            Some(r) => write!(f, "Obs({r:?})"),
        }
    }
}

impl Obs {
    /// The recording-nothing handle (also [`Obs::default`]).
    pub fn noop() -> Obs {
        Obs::default()
    }

    /// Wraps a single sink.
    pub fn new(recorder: Arc<dyn Recorder>) -> Obs {
        Obs {
            inner: Some(recorder),
            trace: None,
        }
    }

    /// Composes several sinks; an empty list yields the no-op handle and a
    /// single sink is used directly (no fan-out indirection).
    pub fn fanout(mut recorders: Vec<Arc<dyn Recorder>>) -> Obs {
        match recorders.len() {
            0 => Obs::noop(),
            1 => Obs {
                inner: recorders.pop(),
                trace: None,
            },
            _ => Obs::new(Arc::new(FanoutRecorder { sinks: recorders })),
        }
    }

    /// The same sinks, with every event emitted under `trace`. Metrics are
    /// untouched: they stay aggregate, and provenance is what gets scoped.
    pub fn with_trace(&self, trace: TraceId) -> Obs {
        Obs {
            inner: self.inner.clone(),
            trace: Some(trace),
        }
    }

    /// The attached recorder, if any. Lets a component compose its own
    /// sink with an externally supplied handle via [`Obs::fanout`].
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        self.inner.clone()
    }

    /// Whether any sink is attached and wants data. Hot paths check this
    /// before building label or field arrays.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(r) => r.enabled(),
        }
    }

    /// Whether any sink keeps per-round detail ([`Recorder::detail`]). A
    /// loop reads this once per run, before its rounds, and emits per-round
    /// events only when it is true.
    #[inline]
    pub fn detailed(&self) -> bool {
        match &self.inner {
            None => false,
            Some(r) => r.detail(),
        }
    }

    /// Adds `delta` to a labelled counter.
    #[inline]
    pub fn counter(&self, name: &'static str, labels: &[Label], delta: u64) {
        if let Some(r) = &self.inner {
            r.counter(name, labels, delta);
        }
    }

    /// Records one histogram observation (seconds for durations).
    #[inline]
    pub fn observe(&self, name: &'static str, labels: &[Label], value: f64) {
        if let Some(r) = &self.inner {
            r.observe(name, labels, value);
        }
    }

    /// Emits a structured event, under the handle's trace.
    #[inline]
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(r) = &self.inner {
            r.event(kind, fields, self.trace);
        }
    }
}

/// Shorthand constructors for event field [`Value`]s, so call sites read
/// `("iteration", field::u(i))` rather than spelling out enum variants.
pub mod field {
    use super::Value;
    use std::time::Duration;

    /// An unsigned integer field.
    pub fn u(n: u64) -> Value {
        Value::UInt(n)
    }

    /// A `usize` field (counts, sizes).
    pub fn uz(n: usize) -> Value {
        Value::UInt(n as u64)
    }

    /// A signed integer field.
    pub fn i(n: i64) -> Value {
        Value::Int(n)
    }

    /// A float field.
    pub fn f(x: f64) -> Value {
        Value::Float(x)
    }

    /// A boolean field.
    pub fn b(x: bool) -> Value {
        Value::Bool(x)
    }

    /// A string field (copied).
    pub fn s(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// A string field that lives as long as the program — a name, a label,
    /// an interned symbol — borrowed rather than copied.
    pub fn st(s: &'static str) -> Value {
        Value::StaticStr(s)
    }

    /// A duration field, rendered as integer microseconds (matching the
    /// `_us` convention of the stats JSON).
    pub fn us(d: Duration) -> Value {
        Value::UInt(d.as_micros() as u64)
    }
}

/// Broadcasts every emission to a list of sinks (built by [`Obs::fanout`]).
#[derive(Debug)]
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn detail(&self) -> bool {
        self.sinks.iter().any(|s| s.detail())
    }

    fn counter(&self, name: &'static str, labels: &[Label], delta: u64) {
        for s in &self.sinks {
            s.counter(name, labels, delta);
        }
    }

    fn observe(&self, name: &'static str, labels: &[Label], value: f64) {
        for s in &self.sinks {
            s.observe(name, labels, value);
        }
    }

    fn event(&self, kind: &'static str, fields: &[(&'static str, Value)], trace: Option<TraceId>) {
        for s in &self.sinks {
            s.event(kind, fields, trace);
        }
    }
}

/// One event retained by a [`CaptureRecorder`].
#[derive(Debug, Clone)]
pub struct CapturedEvent {
    /// The event kind (e.g. `engine.iteration`).
    pub kind: &'static str,
    /// Ordered `(field, value)` pairs as emitted.
    pub fields: Vec<(&'static str, Value)>,
    /// The request trace it was emitted under, if any.
    pub trace: Option<TraceId>,
}

impl CapturedEvent {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// A field as `u64`, if present and unsigned.
    pub fn uint(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Value::UInt(n)) => Some(*n),
            _ => None,
        }
    }

    /// A field as `&str`, if present and a string (owned or static).
    pub fn text(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }
}

/// An in-memory sink for tests: retains every event, per-round detail
/// included, so suites can assert on the exact provenance a run emitted. It
/// keeps no metrics: the
/// [`aggregate::Aggregator`] is the one store that does, and a test that
/// counts fans one out beside the capture ([`Obs::fanout`]).
#[derive(Debug, Default)]
pub struct CaptureRecorder {
    events: Mutex<Vec<CapturedEvent>>,
}

impl CaptureRecorder {
    /// A fresh, empty capture.
    pub fn new() -> CaptureRecorder {
        CaptureRecorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<CapturedEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// All captured events, in emission order.
    pub fn events(&self) -> Vec<CapturedEvent> {
        self.lock().clone()
    }

    /// Captured events of one kind, in emission order.
    pub fn events_of(&self, kind: &str) -> Vec<CapturedEvent> {
        self.lock()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// The distinct event kinds seen, in first-emission order.
    pub fn kinds(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in self.lock().iter() {
            if !out.iter().any(|k| k == e.kind) {
                out.push(e.kind.to_string());
            }
        }
        out
    }
}

impl Recorder for CaptureRecorder {
    fn detail(&self) -> bool {
        true
    }

    fn event(&self, kind: &'static str, fields: &[(&'static str, Value)], trace: Option<TraceId>) {
        self.lock().push(CapturedEvent {
            kind,
            fields: fields.to_vec(),
            trace,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.counter("c", &[], 1);
        obs.observe("h", &[], 0.5);
        obs.event("k", &[("f", field::u(1))]);
    }

    #[test]
    fn capture_retains_events_in_order() {
        let cap = Arc::new(CaptureRecorder::new());
        let obs = Obs::new(cap.clone());
        assert!(obs.enabled());
        obs.event("a.one", &[("n", field::u(7)), ("s", field::s("x"))]);
        obs.event("a.two", &[]);
        obs.event("a.one", &[("n", field::u(9))]);
        assert_eq!(cap.kinds(), ["a.one", "a.two"]);
        let ones = cap.events_of("a.one");
        assert_eq!(ones.len(), 2);
        assert_eq!(ones[0].uint("n"), Some(7));
        assert_eq!(ones[0].text("s"), Some("x"));
        assert_eq!(ones[1].uint("n"), Some(9));
        assert_eq!(ones[0].uint("missing"), None);
    }

    #[test]
    fn a_traced_handle_tags_events_not_metrics() {
        let cap = Arc::new(CaptureRecorder::new());
        let agg = Arc::new(Aggregator::default());
        let base = Obs::fanout(vec![cap.clone(), agg.clone()]);
        let traced = base.with_trace(TraceId::from_u64(7));
        traced.event("a.one", &[("n", field::u(1))]);
        base.event("a.one", &[("n", field::u(2))]);
        traced.counter("hits", &[("op", "hit")], 2);
        let events = cap.events();
        assert_eq!(events[0].trace, Some(TraceId::from_u64(7)));
        assert_eq!(events[1].trace, None);
        assert_eq!(agg.counter_value("hits", &[("op", "hit")]), 2);
        assert!(!Obs::noop().with_trace(TraceId::from_u64(7)).enabled());
    }

    #[test]
    fn only_the_trace_writer_and_the_capture_keep_detail() {
        let agg: Arc<dyn Recorder> = Arc::new(Aggregator::default());
        let flight: Arc<dyn Recorder> = Arc::new(FlightRecorder::default());
        let trace: Arc<dyn Recorder> = Arc::new(trace::TraceWriter::new(Box::new(std::io::sink())));
        let capture: Arc<dyn Recorder> = Arc::new(CaptureRecorder::new());
        assert!(!Obs::noop().detailed());
        let served = Obs::fanout(vec![agg.clone(), flight.clone()]);
        assert!(served.enabled() && !served.detailed());
        assert!(Obs::fanout(vec![agg.clone(), flight.clone(), trace]).detailed());
        assert!(Obs::fanout(vec![agg, flight, capture])
            .with_trace(TraceId::from_u64(7))
            .detailed());
    }

    #[test]
    fn fanout_broadcasts_to_every_sink() {
        let a = Arc::new(CaptureRecorder::new());
        let b = Arc::new(CaptureRecorder::new());
        let agg = Arc::new(Aggregator::default());
        let obs = Obs::fanout(vec![a.clone(), b.clone(), agg.clone()]);
        obs.event("k", &[]);
        obs.counter("c", &[], 4);
        obs.observe("h", &[], 0.5);
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        assert_eq!(agg.counter_value("c", &[]), 4);
        assert_eq!(agg.histogram_where("h", &[]), (1, 0.5));
        assert!(!Obs::fanout(Vec::new()).enabled());
    }
}
