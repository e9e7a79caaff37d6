//! JSON-lines trace sink.
//!
//! A [`TraceWriter`] persists every [`event`](crate::Recorder::event) as
//! one JSON object per line:
//!
//! ```json
//! {"seq":3,"ts_us":1284,"kind":"engine.iteration","iteration":2,"delta_in":9,...}
//! ```
//!
//! * `seq` — monotone per-writer sequence number, so interleavings from
//!   concurrent emitters stay reconstructable.
//! * `ts_us` — microseconds since the writer was created.
//! * `kind` — the event kind; remaining keys are the event's own fields in
//!   emission order, then — for an event emitted under a request's trace
//!   ([`Obs::with_trace`](crate::Obs::with_trace)) — `trace`, the id as 16
//!   hex characters.
//!
//! `write_line` is the one renderer of that shape: the flight recorder's
//! postmortem dump uses it too, so `obsctl` reads both alike.
//!
//! Counters and histograms are *not* written — they go to the
//! [`Aggregator`](crate::aggregate::Aggregator); a trace file is pure
//! event provenance, and the one sink besides the test capture that keeps
//! detail ([`Recorder::detail`]): a run traced to a file writes every round
//! and every rule application. Write errors are sticky: the first failure
//! disables the writer (observable via [`TraceWriter::had_error`]) rather
//! than panicking inside instrumented code.

use crate::{Recorder, TraceId, Value};
use serde::Serialize as _;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Appends one event as a trace line,
/// `{"seq":N,"ts_us":T,"kind":K,...fields,"trace":ID}` and a newline (no
/// `trace` key for an untraced event).
pub(crate) fn write_line(
    out: &mut String,
    seq: u64,
    ts_us: u64,
    kind: &str,
    fields: &[(&'static str, Value)],
    trace: Option<TraceId>,
) {
    let _ = write!(out, r#"{{"seq":{seq},"ts_us":{ts_us},"kind":"#);
    serde::json::write_str(out, kind);
    for (key, value) in fields {
        out.push(',');
        serde::json::write_str(out, key);
        out.push(':');
        value.write_json(out);
    }
    if let Some(id) = trace {
        let _ = write!(out, r#","trace":"{id}""#);
    }
    out.push_str("}\n");
}

struct Inner {
    out: Box<dyn Write + Send>,
    seq: u64,
    error: bool,
    /// The line being rendered, reused from event to event.
    line: String,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("seq", &self.seq)
            .field("error", &self.error)
            .finish()
    }
}

/// A JSON-lines event sink. See the [module docs](self).
#[derive(Debug)]
pub struct TraceWriter {
    start: Instant,
    inner: Mutex<Inner>,
}

impl TraceWriter {
    /// Wraps any writer (tests pass a `Vec<u8>` via `Cursor`).
    pub fn new(out: Box<dyn Write + Send>) -> TraceWriter {
        TraceWriter {
            start: Instant::now(),
            inner: Mutex::new(Inner {
                out,
                seq: 0,
                error: false,
                line: String::new(),
            }),
        }
    }

    /// Creates (truncating) a trace file, buffered.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<TraceWriter> {
        let file = File::create(path)?;
        Ok(TraceWriter::new(Box::new(BufWriter::new(file))))
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&self) {
        let mut inner = self.inner();
        if inner.out.flush().is_err() {
            inner.error = true;
        }
    }

    /// Whether any write has failed (the writer is disabled after the
    /// first failure).
    pub fn had_error(&self) -> bool {
        self.inner().error
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Recorder for TraceWriter {
    fn detail(&self) -> bool {
        true
    }

    fn event(&self, kind: &'static str, fields: &[(&'static str, Value)], trace: Option<TraceId>) {
        let ts_us = self.start.elapsed().as_micros() as u64;
        let mut guard = self.inner();
        let inner = &mut *guard;
        if inner.error {
            return;
        }
        inner.line.clear();
        write_line(&mut inner.line, inner.seq, ts_us, kind, fields, trace);
        inner.seq += 1;
        if inner.out.write_all(inner.line.as_bytes()).is_err() {
            inner.error = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, Obs};
    use std::sync::Arc;

    /// A shared byte buffer the writer can own while the test reads back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_become_json_lines_with_seq_and_kind() {
        let buf = SharedBuf::default();
        let writer = Arc::new(TraceWriter::new(Box::new(buf.clone())));
        let obs = Obs::new(writer.clone());
        obs.event("t.alpha", &[("n", field::u(5)), ("s", field::s("x"))]);
        obs.with_trace(TraceId::from_u64(0xab))
            .event("t.beta", &[("ok", field::b(true)), ("s", field::st("y"))]);
        obs.counter("ignored", &[], 1); // metrics don't reach the trace
        writer.flush();
        let text = String::from_utf8(buf.0.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"ts_us\":"));
        assert!(lines[0].contains("\"kind\":\"t.alpha\""));
        assert!(lines[0].ends_with("\"n\":5,\"s\":\"x\"}"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[1].contains("\"ok\":true"));
        assert!(lines[1].ends_with(",\"s\":\"y\",\"trace\":\"00000000000000ab\"}"));
        assert!(!writer.had_error());
    }

    #[test]
    fn write_line_renders_the_object_a_value_tree_would() {
        let fields = [
            ("s", Value::string("a \"q\"\\\n\u{1}")),
            ("f", Value::Float(0.25)),
            ("i", Value::Int(-3)),
            ("n", Value::Null),
            (
                "v",
                Value::array([Value::UInt(1), Value::object([("k", Value::Bool(true))])]),
            ),
        ];
        let mut line = String::new();
        let trace = TraceId::from_u64(0xdead_beef);
        write_line(&mut line, 7, 42, "t.kind", &fields, Some(trace));
        let mut pairs = vec![
            ("seq".to_string(), Value::UInt(7)),
            ("ts_us".to_string(), Value::UInt(42)),
            ("kind".to_string(), Value::string("t.kind")),
        ];
        pairs.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        pairs.push(("trace".to_string(), Value::string(trace.to_string())));
        assert_eq!(line, serde::json::to_string(&Value::Object(pairs)) + "\n");
    }

    #[test]
    fn write_errors_are_sticky_not_panics() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let writer = TraceWriter::new(Box::new(Failing));
        writer.event("k", &[], None);
        assert!(writer.had_error());
        writer.event("k", &[], None); // silently dropped
    }
}
