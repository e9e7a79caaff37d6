//! The net layer's own replies, and the probes that read replies back.
//!
//! A frame payload is one line of the serve protocol: its directives
//! (`@deadline=`, `@trace=`), budget and typed error replies are
//! `recurs_serve::protocol`'s, the same over TCP as over stdin. This module
//! holds only what a socket adds:
//!
//! * `{"ok":false,"type":"protocol",...}` for a payload that is not UTF-8
//!   or a frame that cannot be read at all (the check is
//!   `request_text`), rendered with `recurs_serve::protocol::error_reply`
//!   like every typed error;
//! * `{"ok":true,"type":"health","state":"accepting"|"draining",...}` — the
//!   `!health` probe, answered at the net layer so it works even while the
//!   evaluation slots are saturated (the bare line only: it takes no
//!   directives);
//! * `{"ok":false,"type":"reply_too_large","len":L,"max":M}` in place of a
//!   reply longer than the connection's frame ceiling;
//! * the `noop` ack for a blank or comment frame and the `bye` before a
//!   `!quit` close.

use serde::{Serialize as _, Value};
use std::time::Duration;

/// A frame payload as the request line it carries, or the text of the
/// typed `protocol` error a payload that is not UTF-8 gets.
pub(crate) fn request_text(payload: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(payload).map_err(|e| format!("frame payload is not valid UTF-8 ({e})"))
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
/// classifier and the tests only need flat field probes, so a scan
/// suffices.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_utf8_payload_is_a_typed_parse_error() {
        let err = request_text(&[0xff, 0xfe, 0x41]).unwrap_err();
        assert!(err.contains("not valid UTF-8"), "{err}");
        assert_eq!(request_text(b"?- P(1, y)."), Ok("?- P(1, y)."));
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
