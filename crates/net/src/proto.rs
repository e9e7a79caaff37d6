//! The framed request envelope and the net layer's typed replies.
//!
//! A frame payload is one line of the serve protocol, optionally prefixed
//! with directives in any order:
//!
//! ```text
//! @deadline=250 @trace=cafe ?- P(1, y).
//! ```
//!
//! The deadline is milliseconds of wall clock the *client* grants the
//! request, counted from the moment the server finishes reading the frame.
//! The server derives the evaluation budget from the time remaining (its
//! own default budget tightened, never loosened) and bounds the admission
//! wait by it, so an expired request is answered with a typed `deadline`
//! error instead of being evaluated late or silently dropped.
//!
//! The trace directive is a client-supplied request id (1–16 hex digits);
//! the server tags every span and event of the request with it and echoes
//! it in the reply, so a client can correlate its own logs with the
//! server-side trace. Absent the directive the server mints an id.
//! Duplicate or malformed directives are typed `protocol` errors.
//!
//! The net layer adds three reply shapes on top of the serve protocol:
//!
//! * `{"ok":false,"type":"deadline","error":...}` — the deadline expired
//!   before evaluation started;
//! * `{"ok":false,"type":"overloaded","error":...,"retry_after_ms":N}` —
//!   admission shed the request (rendered by the serve layer; a client backs
//!   off for the hint, then retries);
//! * `{"ok":true,"type":"health","state":"accepting"|"draining",...}` — the
//!   `!health` probe, answered at the net layer so it works even while the
//!   evaluation slots are saturated.

use recurs_obs::TraceId;
use serde::{Serialize as _, Value};
use std::time::Duration;

/// A parsed request envelope: the protocol line plus its directives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'a> {
    /// The serve-protocol line (directives stripped).
    pub line: &'a str,
    /// Client-granted wall-clock allowance, if any.
    pub deadline: Option<Duration>,
    /// Client-supplied trace id, if any.
    pub trace: Option<TraceId>,
}

/// Parses a frame payload into a [`Request`], validating UTF-8 and the
/// directive prefix (`@deadline=<ms>`, `@trace=<hex>`, in any order, each
/// at most once). Errors are human-readable fragments for a typed
/// `protocol` error reply.
pub fn parse_request(payload: &[u8]) -> Result<Request<'_>, String> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| format!("frame payload is not valid UTF-8 ({e})"))?;
    let mut line = text.trim();
    let mut deadline = None;
    let mut trace = None;
    while let Some(rest) = line.strip_prefix('@') {
        let (directive, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        if let Some(ms) = directive.strip_prefix("deadline=") {
            if deadline.is_some() {
                return Err("duplicate @deadline directive".to_string());
            }
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad deadline directive: @deadline={ms}"))?;
            deadline = Some(Duration::from_millis(ms));
        } else if let Some(id) = directive.strip_prefix("trace=") {
            if trace.is_some() {
                return Err("duplicate @trace directive".to_string());
            }
            trace = Some(TraceId::parse(id).map_err(|e| format!("bad @trace directive: {e}"))?);
        } else {
            return Err(format!("unknown directive: @{directive}"));
        }
        line = tail.trim();
    }
    Ok(Request {
        line,
        deadline,
        trace,
    })
}

/// Renders a typed error reply: `{"ok":false,"type":KIND,"error":MSG}`,
/// plus a `retry_after_ms` hint when one is given.
pub fn error_reply(kind: &str, msg: &str, retry_after_ms: Option<u64>) -> String {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("type", Value::string(kind)),
        ("error", Value::string(msg)),
    ];
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms", ms.to_value()));
    }
    serde::json::to_string(&Value::object(fields))
}

/// Renders the reply that stands in for one longer than the connection's
/// frame ceiling: `{"ok":false,"type":"reply_too_large","len":L,"max":M}`.
pub fn reply_too_large(len: usize, max: usize) -> String {
    serde::json::to_string(&Value::object([
        ("ok", Value::Bool(false)),
        ("type", Value::string("reply_too_large")),
        ("len", len.to_value()),
        ("max", max.to_value()),
    ]))
}

/// Renders the `!health` reply.
pub fn health_reply(draining: bool, active_connections: usize, uptime: Duration) -> String {
    serde::json::to_string(&Value::object([
        ("ok", Value::Bool(true)),
        ("type", Value::string("health")),
        (
            "state",
            Value::string(if draining { "draining" } else { "accepting" }),
        ),
        ("active_connections", active_connections.to_value()),
        ("uptime_ms", (uptime.as_millis() as u64).to_value()),
    ]))
}

/// Renders the no-op reply for blank/comment frames. Over stdin those lines
/// are silent; over TCP every accepted frame gets exactly one reply, so
/// silence is expressed as an explicit ack.
pub fn noop_reply() -> String {
    serde::json::to_string(&Value::object([
        ("ok", Value::Bool(true)),
        ("type", Value::string("noop")),
    ]))
}

/// Renders the `!quit` acknowledgement written before the clean close.
pub fn bye_reply() -> String {
    serde::json::to_string(&Value::object([
        ("ok", Value::Bool(true)),
        ("type", Value::string("bye")),
    ]))
}

/// Extracts the string value of `"field":"..."` from a one-line JSON reply.
/// The vendored serde has no deserializer, and the client's reply
/// classifier, the server's shed check and the tests only need flat field
/// probes, so a scan suffices.
pub fn json_str_field<'a>(reply: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let start = reply.find(&needle)? + needle.len();
    let rest = &reply[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extracts the numeric value of `"field":N` from a one-line JSON reply.
pub fn json_u64_field(reply: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let start = reply.find(&needle)? + needle.len();
    let digits: String = reply[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// True when a reply says the request was shed (`"type":"overloaded"`).
pub fn is_overloaded_reply(reply: &str) -> bool {
    json_str_field(reply, "type") == Some("overloaded")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_line_has_no_directives() {
        let r = parse_request(b"?- P(1, y).").unwrap();
        assert_eq!(r.line, "?- P(1, y).");
        assert_eq!(r.deadline, None);
        assert_eq!(r.trace, None);
    }

    #[test]
    fn deadline_directive_is_parsed_and_stripped() {
        let r = parse_request(b"@deadline=250 ?- P(1, y).").unwrap();
        assert_eq!(r.line, "?- P(1, y).");
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn directives_combine_in_any_order() {
        let r = parse_request(b"@deadline=250 @trace=cafe ?- P(1, y).").unwrap();
        assert_eq!(r.line, "?- P(1, y).");
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        assert_eq!(r.trace, Some(TraceId::from_u64(0xcafe)));
        let r = parse_request(b"@trace=cafe @deadline=250 ?- P(1, y).").unwrap();
        assert_eq!(r.line, "?- P(1, y).");
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        assert_eq!(r.trace, Some(TraceId::from_u64(0xcafe)));
    }

    #[test]
    fn bare_deadline_directive_yields_an_empty_line() {
        let r = parse_request(b"@deadline=10").unwrap();
        assert_eq!(r.line, "");
        assert_eq!(r.deadline, Some(Duration::from_millis(10)));
    }

    #[test]
    fn bad_deadline_is_a_typed_parse_error() {
        let err = parse_request(b"@deadline=soon ?- P(1, y).").unwrap_err();
        assert!(err.contains("bad deadline directive"), "{err}");
    }

    #[test]
    fn bad_duplicate_or_unknown_directives_are_typed_parse_errors() {
        let err = parse_request(b"@trace=xyz ?- P(1, y).").unwrap_err();
        assert!(err.contains("bad @trace directive"), "{err}");
        let err = parse_request(b"@trace=1 @trace=2 ?- P(1, y).").unwrap_err();
        assert!(err.contains("duplicate @trace directive"), "{err}");
        let err = parse_request(b"@deadline=1 @deadline=2 ?- P(1, y).").unwrap_err();
        assert!(err.contains("duplicate @deadline directive"), "{err}");
        let err = parse_request(b"@speed=fast ?- P(1, y).").unwrap_err();
        assert!(err.contains("unknown directive"), "{err}");
    }

    #[test]
    fn non_utf8_payload_is_a_typed_parse_error() {
        let err = parse_request(&[0xff, 0xfe, 0x41]).unwrap_err();
        assert!(err.contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn error_reply_carries_retry_hint_when_given() {
        let r = error_reply("overloaded", "shed", Some(50));
        assert!(r.contains("\"retry_after_ms\":50"), "{r}");
        assert!(is_overloaded_reply(&r));
        let r = error_reply("protocol", "bad frame", None);
        assert!(!r.contains("retry_after_ms"), "{r}");
        assert!(!is_overloaded_reply(&r));
    }

    #[test]
    fn health_reply_reports_drain_state() {
        let r = health_reply(false, 3, Duration::from_millis(1500));
        assert_eq!(json_str_field(&r, "state"), Some("accepting"));
        assert_eq!(json_u64_field(&r, "active_connections"), Some(3));
        assert_eq!(json_u64_field(&r, "uptime_ms"), Some(1500));
        let r = health_reply(true, 0, Duration::ZERO);
        assert_eq!(json_str_field(&r, "state"), Some("draining"));
    }

    #[test]
    fn json_field_probes_tolerate_missing_fields() {
        assert_eq!(json_str_field("{\"ok\":true}", "state"), None);
        assert_eq!(json_u64_field("{\"ok\":true}", "count"), None);
    }
}
