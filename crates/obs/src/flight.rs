//! The flight recorder: a fixed-size ring of recent events, always on.
//!
//! A [`FlightRecorder`] keeps the last `capacity` events in a ring buffer
//! so that a worker panic or a forced drain can dump the moments leading
//! up to the incident ([`FlightRecorder::to_jsonl`]) into a postmortem
//! file. It is designed to sit in every fan-out permanently:
//!
//! * **Lock-light writes.** A writer claims a slot with one atomic
//!   `fetch_add`, then locks *only that slot's* mutex to store the event.
//!   Concurrent writers contend only when they hash to the same slot —
//!   i.e. when the ring has wrapped a full lap between them — so the hot
//!   path never serializes on a global lock.
//! * **Bounded memory.** The ring never grows; old events are overwritten
//!   in seq order. A retained event is one exact-size copy of the fields it
//!   was emitted with, plus its 8-byte trace id; a slot does not keep the
//!   capacity of the widest event it once held.
//! * **Metrics are ignored.** Counters and histograms already live in the
//!   [`Aggregator`](crate::aggregate::Aggregator); the recorder keeps only
//!   event provenance, which is what a postmortem needs.
//! * **Per run, not per round.** The ring keeps no detail
//!   ([`Recorder::detail`] is `false`), so on its own it is sent a
//!   saturation's `engine.start` and `engine.complete` but not a line per
//!   round or per rule: a served miss costs the ring a few events however
//!   deep its recursion, and the ring covers that many more requests. Beside
//!   a sink that keeps detail (a trace file, `!explain`'s capture) it
//!   receives the per-round events too, since the run emits them for every
//!   sink.
//!
//! The dump is rendered line by line by the JSON-lines trace sink's own
//! `trace::write_line` (`seq`, `ts_us`, `kind`, the event's own fields,
//! then its `trace`), so `obsctl` reads postmortems and trace files
//! interchangeably.

use crate::{Recorder, TraceId, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Default ring capacity: enough to cover several requests' worth of
/// events without holding meaningful memory.
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// One event retained in the ring.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Global emission index (monotone across wraps).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// The event kind.
    pub kind: &'static str,
    /// The event's fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
    /// The request trace it was emitted under, if any.
    pub trace: Option<TraceId>,
}

/// The ring buffer. See the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[Mutex<Option<FlightEvent>>]>,
    epoch: Instant,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a ring holding the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let n = capacity.max(1);
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            epoch: Instant::now(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (not the number retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_ref()
                    .cloned()
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders the retained events as JSON lines in the trace-sink shape
    /// (`{"seq":N,"ts_us":T,"kind":K,...fields}`), oldest first. This is the
    /// postmortem payload.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            crate::trace::write_line(&mut out, e.seq, e.ts_us, e.kind, &e.fields, e.trace);
        }
        out
    }
}

impl Recorder for FlightRecorder {
    fn event(&self, kind: &'static str, fields: &[(&'static str, Value)], trace: Option<TraceId>) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let slot = (seq % self.slots.len() as u64) as usize;
        let mut slot = self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // A writer that stalled between its claim and this lock a whole lap
        // behind finds a newer event here, and that one stays.
        if slot.as_ref().is_some_and(|newer| newer.seq > seq) {
            return;
        }
        *slot = Some(FlightEvent {
            seq,
            ts_us,
            kind,
            fields: fields.to_vec(),
            trace,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, Obs};
    use std::sync::Arc;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let flight = Arc::new(FlightRecorder::new(4));
        let obs = Obs::new(flight.clone());
        for i in 0..10u64 {
            obs.event("t.tick", &[("i", field::u(i))]);
        }
        let events = flight.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [6, 7, 8, 9]
        );
        assert_eq!(events[3].fields[0].1, Value::UInt(9));
        assert_eq!(flight.recorded(), 10);
    }

    #[test]
    fn metrics_are_ignored() {
        let flight = FlightRecorder::new(4);
        flight.counter("c", &[], 1);
        flight.observe("h", &[], 0.5);
        assert!(flight.events().is_empty());
    }

    #[test]
    fn jsonl_dump_matches_the_trace_shape() {
        let flight = Arc::new(FlightRecorder::new(8));
        let obs = Obs::new(flight.clone());
        obs.event("net.shed", &[("active", field::uz(3))]);
        obs.with_trace(TraceId::from_u64(5))
            .event("net.drain", &[("phase", field::st("started"))]);
        let dump = flight.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"ts_us\":"));
        assert!(lines[0].ends_with("\"kind\":\"net.shed\",\"active\":3}"));
        assert!(lines[1].contains("\"kind\":\"net.drain\""));
        assert!(lines[1].ends_with("\"phase\":\"started\",\"trace\":\"0000000000000005\"}"));
    }

    #[test]
    fn concurrent_writers_do_not_lose_the_latest_lap() {
        let flight = Arc::new(FlightRecorder::new(64));
        let obs = Obs::new(flight.clone());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        obs.event("t.w", &[("t", field::u(t)), ("i", field::u(i))]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = flight.events();
        assert_eq!(events.len(), 64);
        assert_eq!(flight.recorded(), 400);
        // The retained window is exactly the last lap of seqs.
        for e in &events {
            assert!(e.seq >= 400 - 64);
        }
    }
}
