//! Request-scoped trace contexts and hierarchical spans.
//!
//! A [`TraceId`] names one request end to end. The serve/net boundary
//! mints one per request (or validates a client-supplied `@trace=<id>`
//! prefix), wraps the layer's [`Obs`] handle in a [`TraceCtx`], and passes
//! the context's handle — the same sinks, tagged with the id
//! (`Obs::with_trace`) — down the call chain. Every event emitted through
//! that handle — admission, cache probe, kernel dispatch, each round —
//! reaches the sinks with the id, and the sinks that keep events render it
//! as a last `trace` field, so a JSON-lines trace can be grouped back into
//! per-request stories. Scoping a request copies a handle; it builds no
//! sink, string or field list.
//!
//! On top of the id, a context records **hierarchical spans**: each
//! [`TraceCtx::span`] allocates a [`SpanId`], remembers its parent, and on
//! drop emits a `span` event with `name`/`span`/`parent`/`start_us`/
//! `dur_us` (offsets relative to the context's creation). Span events are
//! plain events — they flow through the same sinks as everything else and
//! need no new recorder surface. `obsctl` reconstructs the trees.
//!
//! With a no-op base handle the scoped handle is also no-op: spans emit
//! nothing.

use crate::{Obs, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A request-scoped trace identifier (64 bits, rendered as 16 hex chars).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(u64);

/// Longest accepted textual trace id: 16 hex characters (64 bits).
pub(crate) const TRACE_ID_MAX_LEN: usize = 16;

impl TraceId {
    /// Wraps a raw 64-bit id.
    pub fn from_u64(id: u64) -> TraceId {
        TraceId(id)
    }

    /// Parses a client-supplied id: 1..=16 ASCII hex characters. Anything
    /// else (empty, oversized, non-hex) is rejected so the protocol layer
    /// can answer with a typed error instead of guessing.
    pub fn parse(text: &str) -> Result<TraceId, TraceIdError> {
        if text.is_empty() {
            return Err(TraceIdError::Empty);
        }
        if text.len() > TRACE_ID_MAX_LEN {
            return Err(TraceIdError::TooLong(text.len()));
        }
        if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(TraceIdError::NotHex);
        }
        u64::from_str_radix(text, 16)
            .map(TraceId)
            .map_err(|_| TraceIdError::NotHex)
    }

    /// Mints a fresh id: a process-global counter hashed with the pid and
    /// wall clock, so concurrent mints and separate processes diverge
    /// without needing a random-number dependency.
    pub fn mint() -> TraceId {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut h = DefaultHasher::new();
        COUNTER.fetch_add(1, Ordering::Relaxed).hash(&mut h);
        std::process::id().hash(&mut h);
        if let Ok(now) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
            now.as_secs().hash(&mut h);
            now.subsec_nanos().hash(&mut h);
        }
        let id = h.finish();
        // Reserve 0 for "never minted" sentinels in debugging output.
        TraceId(if id == 0 { 1 } else { id })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Why a textual trace id was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceIdError {
    /// The id was empty.
    Empty,
    /// The id exceeded `TRACE_ID_MAX_LEN` characters (actual length).
    TooLong(usize),
    /// The id contained a non-hex character.
    NotHex,
}

impl fmt::Display for TraceIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIdError::Empty => write!(f, "trace id is empty"),
            TraceIdError::TooLong(n) => {
                write!(f, "trace id is {n} chars (max {TRACE_ID_MAX_LEN} hex)")
            }
            TraceIdError::NotHex => write!(f, "trace id must be 1-{TRACE_ID_MAX_LEN} hex chars"),
        }
    }
}

/// A span identifier, unique within one [`TraceCtx`]. `SpanId::NONE` (0)
/// marks a root span's parent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel used by root spans.
    pub const NONE: SpanId = SpanId(0);
}

/// One request's trace context: the id, a scoped [`Obs`] handle that tags
/// every event with it, and a span-id allocator. See the [module
/// docs](self).
#[derive(Debug)]
pub struct TraceCtx {
    id: TraceId,
    obs: Obs,
    epoch: Instant,
    next_span: AtomicU64,
}

impl TraceCtx {
    /// Scopes `base` to the given trace id. A no-op base stays no-op.
    pub fn new(base: &Obs, id: TraceId) -> TraceCtx {
        TraceCtx {
            id,
            obs: base.with_trace(id),
            epoch: Instant::now(),
            next_span: AtomicU64::new(0),
        }
    }

    /// The trace id this context scopes to.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// The scoped handle: pass this down instead of the base `Obs` so
    /// every event the callee emits carries the trace id.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Microseconds since the context was created (the span time base).
    pub(crate) fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Starts a root span (no parent).
    pub fn root(&self, name: &'static str) -> SpanGuard<'_> {
        self.span(name, SpanId::NONE)
    }

    /// Starts a span under `parent`. The guard emits one `span` event when
    /// dropped (or [`SpanGuard::finish`]ed); child spans reference it via
    /// [`SpanGuard::id`].
    pub fn span(&self, name: &'static str, parent: SpanId) -> SpanGuard<'_> {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1);
        SpanGuard {
            obs: &self.obs,
            name,
            id,
            parent,
            start_us: self.elapsed_us(),
            started: Instant::now(),
            active: self.obs.enabled(),
        }
    }
}

/// A hierarchical timing guard from [`TraceCtx::span`]: emits a `span`
/// event with parent link and relative timing, through its context's
/// handle, when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    name: &'static str,
    id: SpanId,
    parent: SpanId,
    start_us: u64,
    started: Instant,
    active: bool,
}

impl SpanGuard<'_> {
    /// This span's id, for parenting child spans.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_us = self.started.elapsed().as_micros() as u64;
        self.obs.event(
            "span",
            &[
                ("name", Value::StaticStr(self.name)),
                ("span", Value::UInt(self.id.0)),
                ("parent", Value::UInt(self.parent.0)),
                ("start_us", Value::UInt(self.start_us)),
                ("dur_us", Value::UInt(dur_us)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use crate::{field, CaptureRecorder};
    use std::sync::Arc;

    #[test]
    fn trace_ids_round_trip_through_text() {
        let id = TraceId::from_u64(0xdead_beef);
        assert_eq!(id.to_string(), "00000000deadbeef");
        assert_eq!(TraceId::parse("00000000deadbeef"), Ok(id));
        assert_eq!(TraceId::parse("deadBEEF"), Ok(id));
        assert_eq!(TraceId::parse("0"), Ok(TraceId::from_u64(0)));
    }

    #[test]
    fn malformed_trace_ids_are_rejected() {
        assert_eq!(TraceId::parse(""), Err(TraceIdError::Empty));
        assert_eq!(
            TraceId::parse("00112233445566778"),
            Err(TraceIdError::TooLong(17))
        );
        assert_eq!(TraceId::parse("xyz"), Err(TraceIdError::NotHex));
        assert_eq!(TraceId::parse("12 4"), Err(TraceIdError::NotHex));
        assert_eq!(TraceId::parse("-1"), Err(TraceIdError::NotHex));
    }

    #[test]
    fn minted_ids_differ() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a, TraceId::from_u64(0));
    }

    #[test]
    fn scoped_events_carry_the_trace_field() {
        let cap = Arc::new(CaptureRecorder::new());
        let base = Obs::new(cap.clone());
        let ctx = TraceCtx::new(&base, TraceId::from_u64(7));
        ctx.obs().event("serve.query", &[("answers", field::u(3))]);
        let events = cap.events_of("serve.query");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].uint("answers"), Some(3));
        assert_eq!(events[0].trace, Some(TraceId::from_u64(7)));
    }

    #[test]
    fn spans_nest_with_parent_links_and_relative_times() {
        let cap = Arc::new(CaptureRecorder::new());
        let base = Obs::new(cap.clone());
        let ctx = TraceCtx::new(&base, TraceId::mint());
        {
            let root = ctx.root("request");
            assert_eq!(root.id(), SpanId(1));
            let child = ctx.span("eval", root.id());
            assert_eq!(child.id(), SpanId(2));
            std::thread::sleep(std::time::Duration::from_millis(2));
            child.finish();
            root.finish();
        }
        let spans = cap.events_of("span");
        assert_eq!(spans.len(), 2); // child drops first
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.text("name"), Some("eval"));
        assert_eq!(child.uint("parent"), Some(1));
        assert_eq!(root.text("name"), Some("request"));
        assert_eq!(root.uint("parent"), Some(0));
        assert!(root.uint("dur_us").unwrap() >= child.uint("dur_us").unwrap());
        assert!(child.uint("start_us").unwrap() >= root.uint("start_us").unwrap());
        assert!(child.trace.is_some());
        assert_eq!(child.trace, root.trace);
    }

    #[test]
    fn noop_base_yields_a_silent_context() {
        let ctx = TraceCtx::new(&Obs::noop(), TraceId::mint());
        assert!(!ctx.obs().enabled());
        let span = ctx.root("request");
        assert!(!span.active);
        span.finish();
    }

    #[test]
    fn metrics_pass_through_unscoped() {
        let agg = Arc::new(Aggregator::default());
        let base = Obs::new(agg.clone());
        let ctx = TraceCtx::new(&base, TraceId::mint());
        ctx.obs().counter("hits", &[("op", "hit")], 2);
        // Exactly the caller's labels: no trace label was added.
        assert_eq!(agg.counter_value("hits", &[("op", "hit")]), 2);
    }
}
