//! The `recurs serve --stdin` line protocol: one request per line, one JSON
//! reply per line.
//!
//! Requests:
//!
//! * `?- P(c, X).` (the `?-` and trailing `.` are optional) — answer a query;
//! * `+ A(1, 2).` — insert a ground fact, installing a new snapshot version;
//! * `- A(1, 2).` — delete a ground fact;
//! * `+A(1, 2) -E(2, 3) +B(7, 8).` — a batched update group: any mix of
//!   signed ground facts on one line, applied atomically as one snapshot
//!   version (one maintenance pass, one version bump). Duplicate inserts and
//!   absent deletes are no-ops: an all-no-op group replies
//!   `{"type":"unchanged",...}` without bumping the version;
//! * `!explain P(c, X)` — answer the query *and* audit the plan: the reply
//!   carries the classification verdict (with I-graph cycle weights), the
//!   kernel choice and why, cache participation, budget headroom, and the
//!   request's span breakdown;
//! * `why P(1, 3)` — derivation provenance for a ground fact: a
//!   depth-bounded backward reconstruction of a derivation tree (or
//!   `"derived":false`), structurally verified before it is returned; a
//!   budget that runs out first replies `"truncated":true` with the
//!   `"truncation"` reason;
//! * `!stats` — dump the service-wide statistics;
//! * `!metrics` — dump the service metrics in Prometheus text exposition
//!   format (the one multi-line reply; its `# EOF` terminator line is the
//!   framing marker);
//! * `!snapshot` — report the current snapshot version and fingerprints;
//! * `!quit` — end the session;
//! * blank lines and `%`/`#` comments are ignored (no reply).
//!
//! Any request may carry leading directives, in any order and each at most
//! once:
//!
//! * `@trace=<id>` (1–16 hex chars) names the request's trace id; without
//!   one a fresh id is minted per query;
//! * `@deadline=<ms>` grants the request that much wall clock: the
//!   evaluation budget is the service default tightened to it (never
//!   loosened), the admission wait is bounded by it, and a request whose
//!   deadline has already run out replies `{"ok":false,"type":"deadline",
//!   ...,"retry_after_ms":N}` instead of being evaluated late.
//!
//! A duplicate, unknown or malformed directive, or one with no request
//! after it, replies `{"ok":false,"type":"protocol","error":"..."}`.
//!
//! Every reply except `!metrics` is a single-line JSON object with an
//! `"ok"` field; errors are `{"ok":false,"error":"..."}` and never kill the
//! session. A request shed by admission replies `{"ok":false,
//! "type":"overloaded",...,"retry_after_ms":N}`.
//!
//! This module is the only code that reads a request line. `serve --stdin`
//! hands it each input line and `serve --listen` each frame's payload, so
//! both transports speak the same grammar and get the same replies; the
//! TCP layer adds only what a socket needs (framing, `!health`, connection
//! admission, drain).

use crate::error::ServeError;
use crate::service::{QueryService, Reply, UpdateOutcome, WhyReply};
use recurs_datalog::govern::CancelToken;
use recurs_datalog::parser::parse_atom;
use recurs_datalog::relation::Tuple;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Term;
use recurs_ivm::{DerivationNode, FactOp, WhyOutcome, DEFAULT_WHY_DEPTH};
use recurs_obs::TraceId;
use serde::{json, Serialize as _, Value};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

/// Outcome of handling one protocol line.
pub enum LineOutcome {
    /// A reply to print.
    Reply(String),
    /// Nothing to print (blank line or comment).
    Silent,
    /// The client asked to end the session (`!quit`).
    Quit,
}

/// What became of one request line, for a transport's counters. The
/// protocol knows it when it replies, so nobody reads the reply back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestResult {
    /// An `"ok":true` reply, silence or `!quit`.
    Ok,
    /// An `"ok":false` reply to a request the grammar accepted.
    Error,
    /// A duplicate, unknown or malformed directive: `"type":"protocol"`.
    Malformed,
    /// Admission shed the request: `"type":"overloaded"`.
    Shed,
    /// The `@deadline` ran out before evaluation: `"type":"deadline"`.
    Deadline,
}

impl RequestResult {
    /// The `result` label a request is counted under; a malformed one is an
    /// `error`.
    pub fn label(self) -> &'static str {
        match self {
            RequestResult::Ok => "ok",
            RequestResult::Error | RequestResult::Malformed => "error",
            RequestResult::Shed => "shed",
            RequestResult::Deadline => "deadline",
        }
    }
}

/// The backoff hint shed and deadline replies carry unless a transport
/// sets its own, in milliseconds.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 50;

/// How a transport wants its request lines evaluated. The stdin loop uses
/// the defaults (service budget, unbounded admission, every answer); the
/// TCP front end bounds the admission wait so overload sheds instead of
/// queueing, cuts answers to its frame, and cancels on a forced drain.
#[derive(Debug, Clone)]
pub struct LineOptions {
    /// Bound the admission wait; past it the query is shed with a typed
    /// `overloaded` reply. `None` queues unboundedly (the stdin behavior).
    /// A `@deadline` tightens it further.
    pub max_queue_wait: Option<Duration>,
    /// The client backoff hint rendered into shed and deadline replies, in
    /// milliseconds.
    pub retry_after_ms: u64,
    /// Cancels every evaluation this transport starts, in place of the
    /// service budget's own token (the TCP front end's forced drain).
    pub cancel: Option<CancelToken>,
    /// The longest reply the transport can carry, in bytes (a framed
    /// connection's `max_frame_len`). An answer set that would render past
    /// it is cut to the answers that fit and flagged `"truncated":true` — a
    /// subset is sound, an unreadable frame loses the connection. `None`
    /// (stdin) renders every answer.
    pub max_reply_len: Option<usize>,
}

impl Default for LineOptions {
    fn default() -> LineOptions {
        LineOptions {
            max_queue_wait: None,
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            cancel: None,
            max_reply_len: None,
        }
    }
}

/// A typed protocol-level failure, rendered as a one-line JSON error reply.
enum ProtoError {
    /// A plain error message (`{"ok":false,"error":...}`).
    Message(String),
    /// Admission shed the request; the reply carries the retry-after hint.
    Overloaded {
        /// How long the request queued before being shed.
        waited: Duration,
    },
}

impl From<String> for ProtoError {
    fn from(msg: String) -> ProtoError {
        ProtoError::Message(msg)
    }
}

/// Handles one request line against the service under the default
/// [`LineOptions`] (service budget, unbounded admission).
pub fn handle_line(service: &QueryService, line: &str) -> LineOutcome {
    handle_line_with(service, line, &LineOptions::default()).0
}

/// Handles one request line under transport-supplied [`LineOptions`]:
/// parses its directives, budgets it, answers it, and says how it went.
pub fn handle_line_with(
    service: &QueryService,
    line: &str,
    opts: &LineOptions,
) -> (LineOutcome, RequestResult) {
    let line = line.trim();
    if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
        return (LineOutcome::Silent, RequestResult::Ok);
    }
    let (text, result) = match Request::parse(line) {
        Err(e) => (error_reply("protocol", &e, None), RequestResult::Malformed),
        // The allowance is counted from here, so only a zero one has run
        // out before evaluation starts.
        Ok(request) if request.deadline == Some(Duration::ZERO) => (
            error_reply(
                "deadline",
                "deadline of 0 ms expired before evaluation started",
                Some(opts.retry_after_ms),
            ),
            RequestResult::Deadline,
        ),
        Ok(request) if request.line == "!quit" => return (LineOutcome::Quit, RequestResult::Ok),
        // Prometheus text is inherently multi-line; its `# EOF` terminator
        // (not line count) frames the reply. Trailing newline is trimmed
        // because the run loop appends one.
        Ok(request) if request.line == "!metrics" => (
            service.metrics_text().trim_end().to_string(),
            RequestResult::Ok,
        ),
        Ok(request) => match handle_request(service, &request, opts) {
            Ok(text) => (text, RequestResult::Ok),
            Err(ProtoError::Message(e)) => (
                json::to_string(&Value::object([
                    ("ok", Value::Bool(false)),
                    ("error", Value::string(e)),
                ])),
                RequestResult::Error,
            ),
            Err(ProtoError::Overloaded { waited }) => {
                let msg = format!(
                    "overloaded: no evaluation slot within {} ms, request shed",
                    waited.as_millis()
                );
                let text = error_reply("overloaded", &msg, Some(opts.retry_after_ms));
                (text, RequestResult::Shed)
            }
        },
    };
    (LineOutcome::Reply(text), result)
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
    json::to_string(&Value::object(fields))
}

/// A request line with its directives parsed off.
#[derive(Debug)]
struct Request<'a> {
    /// The request itself.
    line: &'a str,
    /// The `@trace=` id, if given.
    trace: Option<TraceId>,
    /// The `@deadline=` allowance, if given.
    deadline: Option<Duration>,
}

impl<'a> Request<'a> {
    /// Strips the leading `@trace=<hex>` and `@deadline=<ms>` directives
    /// of a trimmed, non-empty line. A duplicate, unknown or malformed
    /// directive, or one with nothing after it, is an error.
    fn parse(line: &'a str) -> Result<Request<'a>, String> {
        let mut parsed = Request {
            line,
            trace: None,
            deadline: None,
        };
        let mut last = "";
        while let Some(rest) = parsed.line.strip_prefix('@') {
            let (directive, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            if let Some(ms) = directive.strip_prefix("deadline=") {
                if parsed.deadline.is_some() {
                    return Err("duplicate @deadline directive".to_string());
                }
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad deadline directive: @deadline={ms}"))?;
                parsed.deadline = Some(Duration::from_millis(ms));
                last = "@deadline";
            } else if let Some(id) = directive.strip_prefix("trace=") {
                if parsed.trace.is_some() {
                    return Err("duplicate @trace directive".to_string());
                }
                let id = TraceId::parse(id).map_err(|e| format!("bad @trace directive: {e}"))?;
                parsed.trace = Some(id);
                last = "@trace";
            } else {
                return Err(format!("unknown directive: @{directive}"));
            }
            parsed.line = tail.trim_start();
        }
        if parsed.line.is_empty() {
            return Err(format!("empty request after {last} directive"));
        }
        Ok(parsed)
    }
}

/// Strips the optional `?-` prefix and trailing `.` from a query body.
fn query_text(line: &str) -> &str {
    let text = line.strip_prefix("?-").unwrap_or(line).trim();
    text.strip_suffix('.').unwrap_or(text).trim()
}

/// Handles one request, returning its rendered reply: an answers reply is
/// written straight to text, every other kind through its `Value` tree.
fn handle_request(
    service: &QueryService,
    request: &Request<'_>,
    opts: &LineOptions,
) -> Result<String, ProtoError> {
    let line = request.line;
    if line == "!stats" {
        return Ok(json::to_string(&Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("stats")),
            ("stats", service.stats().to_value()),
        ])));
    }
    if line == "!snapshot" {
        let snap = service.snapshot();
        return Ok(json::to_string(&Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("snapshot")),
            ("version", snap.version().to_value()),
            ("fingerprint", Value::string(snap.fingerprint().to_string())),
            (
                "program_fingerprint",
                Value::string(service.program_fingerprint().to_string()),
            ),
        ])));
    }
    if line == "!explain" {
        return Err("usage: !explain <query>".to_string().into());
    }
    // The service default, tightened to the deadline (never loosened) and
    // cancellable by the transport; the deadline bounds the queue wait too.
    let mut budget = service.default_budget().clone();
    let mut max_wait = opts.max_queue_wait;
    if let Some(d) = request.deadline {
        budget.timeout = Some(budget.timeout.map_or(d, |t| t.min(d)));
        max_wait = Some(max_wait.map_or(d, |w| w.min(d)));
    }
    if let Some(token) = &opts.cancel {
        budget.cancel = Some(token.clone());
    }
    let trace = request.trace.unwrap_or_else(TraceId::mint);
    if let Some(rest) = line.strip_prefix("!explain ") {
        let query = parse_atom(query_text(rest.trim())).map_err(|e| e.to_string())?;
        let audit = service.explain(&query, &budget, max_wait, trace)?;
        return Ok(json::to_string(&audit));
    }
    if line.starts_with('+') || line.starts_with('-') {
        let update = apply_update_group(service, line)?;
        return Ok(json::to_string(&update));
    }
    if line.starts_with('!') {
        return Err(format!("unknown command: {line}").into());
    }
    if line == "why" {
        return Err("usage: why <ground fact>".to_string().into());
    }
    if let Some(rest) = line.strip_prefix("why ") {
        // Traced only when the request names an id: a `why` has no spans
        // for a minted one to join.
        let (pred, tuple) = parse_ground_fact(rest)?;
        let depth = DEFAULT_WHY_DEPTH;
        let why = service.why(pred, &tuple, depth, &budget, max_wait, request.trace)?;
        return Ok(json::to_string(&render_why(&why)));
    }
    let text = query_text(line);
    let query = parse_atom(text).map_err(|e| e.to_string())?;
    let reply = service.query_traced(&query, &budget, max_wait, trace)?;
    Ok(render_reply(text, &reply, opts.max_reply_len))
}

impl From<ServeError> for ProtoError {
    fn from(e: ServeError) -> ProtoError {
        match e {
            ServeError::Overloaded { waited } => ProtoError::Overloaded { waited },
            e => ProtoError::Message(e.to_string()),
        }
    }
}

/// Splits one line into signed ground facts by scanning for `+`/`-` at
/// parenthesis depth 0, parses each, and applies the whole group as one
/// atomic update through the service's incremental-maintenance path.
fn apply_update_group(service: &QueryService, line: &str) -> Result<Value, String> {
    let ops = parse_update_group(line)?;
    match service.apply_update(&ops).map_err(|e| e.to_string())? {
        UpdateOutcome::Unchanged { version } => Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("unchanged")),
            ("version", version.to_value()),
        ])),
        UpdateOutcome::Installed {
            snapshot,
            inserted,
            deleted,
            maintenance,
        } => Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("snapshot")),
            ("version", snapshot.version().to_value()),
            (
                "fingerprint",
                Value::string(snapshot.fingerprint().to_string()),
            ),
            ("inserted", inserted.to_value()),
            ("deleted", deleted.to_value()),
            ("maintenance", Value::string(maintenance)),
        ])),
    }
}

fn parse_update_group(line: &str) -> Result<Vec<FactOp>, String> {
    // Sign positions at paren depth 0 delimit the facts; signs inside
    // argument lists (future negative numerals) stay untouched, and so does
    // all quoted text: a quoted constant runs to the next `'`.
    let mut starts = Vec::new();
    let (mut depth, mut quoted) = (0usize, false);
    for (i, c) in line.char_indices() {
        match c {
            '\'' => quoted = !quoted,
            _ if quoted => {}
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '+' | '-' if depth == 0 => starts.push(i),
            _ => {}
        }
    }
    debug_assert!(!starts.is_empty(), "caller checked the leading sign");
    let mut ops = Vec::with_capacity(starts.len());
    for (n, &start) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(line.len());
        let insert = line[start..].starts_with('+');
        let (pred, tuple) = parse_ground_fact(&line[start + 1..end])?;
        ops.push(if insert {
            FactOp::Insert(pred, tuple)
        } else {
            FactOp::Delete(pred, tuple)
        });
    }
    Ok(ops)
}

/// Parses `P(1, 3)` (an optional trailing `.` is tolerated) into a predicate
/// and a ground tuple: the fact an update or a `why` request names.
pub fn parse_ground_fact(text: &str) -> Result<(Symbol, Tuple), String> {
    let text = text.trim();
    let text = text.strip_suffix('.').unwrap_or(text).trim();
    let atom = parse_atom(text).map_err(|e| format!("bad fact `{text}`: {e}"))?;
    let mut values = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Const(c) => values.push(*c),
            Term::Var(v) => return Err(format!("fact {text} is not ground: variable {v}")),
        }
    }
    Ok((atom.predicate, Tuple::from(values.as_slice())))
}

/// Bytes the fields of an answers reply other than `query` and `answers`
/// may take: fixed keys, a dozen numbers, short labels.
const REPLY_ENVELOPE_LEN: usize = 1024;

/// The length of `s` rendered as a JSON string by `json::write_str`.
fn json_len(s: &str) -> usize {
    let escape_len = |b: u8| match b {
        b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
        0..=0x1f => 5,
        _ => 0,
    };
    2 + s.len() + s.bytes().map(escape_len).sum::<usize>()
}

/// The sort key of an answer's text: its first 8 bytes as a big-endian
/// `u64`, zero-padded. Keys that differ order as their texts do, so a
/// comparison reads the text only when two keys tie.
fn text_key(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let Some(head) = bytes.first_chunk() else {
        let short = bytes.iter().fold(0, |key, &b| key << 8 | u64::from(b));
        // Padded to 8 bytes; the empty text's 0 wraps to a shift by 0.
        return short.wrapping_shl(64 - 8 * bytes.len() as u32);
    };
    u64::from_be_bytes(*head)
}

/// Renders an answers reply straight to JSON text: the sorted answers cut to
/// the whole rows that fit `max_len` bytes (`count` stays the number found),
/// written by [`write_rows`].
fn render_reply(query: &str, reply: &Reply, max_len: Option<usize>) -> String {
    let room = max_len.map_or(usize::MAX, |max| {
        max.saturating_sub(REPLY_ENVELOPE_LEN + json_len(query))
    });
    let kept = reply.hit.as_deref().and_then(OnceLock::get);
    let kept_len = kept.map_or(0, |rows| rows.len());
    let mut out = String::with_capacity(REPLY_ENVELOPE_LEN + json_len(query) + kept_len);
    out.push_str(r#"{"ok":true,"type":"answers","query":"#);
    json::write_str(&mut out, query);
    let _ = write!(out, r#","count":{},"answers":["#, reply.answers.len());
    let shown = write_rows(&mut out, reply, room);
    out.push_str(r#"],"stats":"#);
    reply.stats.write_json(&mut out);
    if shown < reply.answers.len() {
        out.push_str(r#","truncated":true"#);
    }
    let _ = write!(out, r#","trace":"{}"}}"#, reply.trace);
    out
}

/// The one writer of answer rows: writes the whole sorted rows of `reply`
/// that fit `room` bytes into `out` and says how many it wrote. Each value's
/// text is looked up once, behind its [`text_key`], and the rows are sorted
/// as text: `Value`'s order is its text's.
///
/// A cache hit whose entry's cell holds its rows' text sends that text,
/// which this function wrote for an earlier hit of the same answers. A hit
/// whose cell is empty fills it with what it wrote when it cut nothing.
/// Whole rows charge `room` one byte past the text they write ([`json_len`]
/// is exact, and each row is charged a closing comma), so kept text is sent
/// only where more room is left than its length, which is where a fresh
/// render would cut nothing.
fn write_rows(out: &mut String, reply: &Reply, mut room: usize) -> usize {
    let answers = &reply.answers;
    let cell = reply.hit.as_deref();
    let kept = cell.and_then(OnceLock::get);
    if let Some(rows) = kept.filter(|rows| rows.len() < room) {
        out.push_str(rows);
        return answers.len();
    }
    let (arity, values) = (answers.arity(), answers.iter().flatten());
    let mut keyed = Vec::with_capacity(answers.len() * arity);
    keyed.extend(values.map(|v| v.as_str()).map(|t| (text_key(t), t)));
    // One column sorts its (key, text) pairs in place; wider rows sort as
    // slices of them.
    if arity == 1 {
        keyed.sort_unstable();
    }
    let mut wide: Vec<&[(u64, &str)]> = match arity {
        0 => vec![&[]; answers.len()],
        1 => Vec::new(),
        _ => keyed.chunks_exact(arity).collect(),
    };
    wide.sort_unstable();
    let one_column = if arity == 1 { &keyed[..] } else { &[] };
    let start = out.len();
    let mut shown = 0;
    for t in one_column.chunks(1).chain(wide) {
        // The brackets, the values, and a comma after each (the last
        // value's stands for the one after the row).
        let len = 2 + t.iter().map(|(_, v)| json_len(v) + 1).sum::<usize>();
        if len > room {
            break;
        }
        room -= len;
        if shown > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, (_, v)) in t.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, v);
        }
        out.push(']');
        shown += 1;
    }
    if let (Some(cell), None, true) = (cell, kept, shown == answers.len()) {
        let _ = cell.set(Box::from(&out[start..]));
    }
    shown
}

/// Renders a `why` reply: the tree of a derived fact, `"derived":false`,
/// the rank a depth bound hid, or the budget stop that came first.
fn render_why(why: &WhyReply) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("type", Value::string("why")),
        ("fact", Value::string(&why.fact)),
        ("snapshot_version", why.snapshot_version.to_value()),
        ("view_seeded", Value::Bool(why.view_seeded)),
    ];
    match &why.outcome {
        Ok(WhyOutcome::Derived(tree)) => fields.extend([
            ("derived", Value::Bool(true)),
            ("depth", tree.depth().to_value()),
            ("size", tree.size().to_value()),
            ("tree", tree_value(tree)),
        ]),
        Ok(WhyOutcome::NotDerived) => fields.push(("derived", Value::Bool(false))),
        Ok(WhyOutcome::DepthExceeded { rank, max_depth }) => fields.extend([
            ("derived", Value::Bool(true)),
            ("truncated", Value::Bool(true)),
            ("rank", rank.to_value()),
            ("max_depth", max_depth.to_value()),
        ]),
        Err(reason) => fields.extend([
            ("truncated", Value::Bool(true)),
            ("truncation", reason.to_value()),
        ]),
    }
    if let Some(trace) = why.trace {
        fields.push(("trace", Value::string(trace.to_string())));
    }
    Value::object(fields)
}

/// A derivation tree as nested JSON: `{"fact":"P(1, 2)","rule":
/// "recursive","children":[...]}` with leaves labelled `"edb"` and exit
/// rules `"exit[i]"`.
fn tree_value(node: &DerivationNode) -> Value {
    let rule = match node.rule {
        None => "edb".to_string(),
        Some(0) => "recursive".to_string(),
        Some(i) => format!("exit[{}]", i - 1),
    };
    Value::object([
        ("fact", Value::string(node.fact())),
        ("rule", Value::string(rule)),
        (
            "children",
            Value::Array(node.children.iter().map(tree_value).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RowsText;
    use crate::service::ServeConfig;
    use recurs_datalog::database::Database;
    use recurs_datalog::govern::EvalBudget;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::Relation;
    use recurs_datalog::validate::validate_with_generic_exit;
    use std::sync::Arc;

    fn service() -> QueryService {
        service_with(ServeConfig::default())
    }

    fn service_with(config: ServeConfig) -> QueryService {
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        QueryService::new(lr, db, config)
    }

    fn reply(service: &QueryService, line: &str) -> String {
        match handle_line(service, line) {
            LineOutcome::Reply(r) => r,
            _ => panic!("expected a reply for {line}"),
        }
    }

    #[test]
    fn query_reply_lists_sorted_answers() {
        let s = service();
        let r = reply(&s, "?- P(1, y).");
        assert!(r.contains("\"ok\":true"));
        assert!(r.contains("\"count\":2"));
        assert!(r.contains("[[\"2\"],[\"3\"]]"));
    }

    #[test]
    fn a_quoted_utf8_constant_round_trips_through_a_reply() {
        let s = service();
        let r = reply(&s, "+E('café', 'b').");
        assert!(r.contains("\"inserted\":1"), "got {r}");
        let r = reply(&s, "?- P(x, 'b').");
        assert!(
            r.contains(r#""query":"P(x, 'b')","count":1,"answers":[["café"]]"#),
            "got {r}"
        );
        let r = reply(&s, "?- P('café', y).");
        assert!(r.contains(r#""answers":[["b"]]"#), "got {r}");
    }

    #[test]
    fn a_quoted_bracket_or_sign_does_not_split_an_update_group() {
        let s = service();
        let r = reply(&s, "+A('(', 1) -E(1, 2).");
        assert!(r.contains("\"inserted\":1,\"deleted\":1"), "got {r}");
        let r = reply(&s, "+A(')-x', 1).");
        assert!(r.contains("\"inserted\":1,\"deleted\":0"), "got {r}");
        // E(1, 2) is gone, so 1 reaches only 3, and so does `)-x`.
        let r = reply(&s, "?- P(')-x', y).");
        assert!(r.contains(r#""count":1,"answers":[["3"]]"#), "got {r}");
    }

    #[test]
    fn insert_installs_a_new_version_and_queries_see_it() {
        let s = service();
        let r = reply(&s, "+A(3, 4).");
        assert!(r.contains("\"version\":1"), "got {r}");
        let r = reply(&s, "+E(3, 4).");
        assert!(r.contains("\"version\":2"), "got {r}");
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":3"), "got {r}");
    }

    #[test]
    fn delete_fact_installs_a_new_version_and_queries_see_it() {
        let s = service();
        let r = reply(&s, "-E(2, 3).");
        assert!(r.contains("\"version\":1"), "got {r}");
        assert!(r.contains("\"deleted\":1"), "got {r}");
        assert!(r.contains("\"maintenance\":"), "got {r}");
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":1"), "got {r}"); // only E(1,2) is left
    }

    #[test]
    fn noop_updates_reply_unchanged_without_a_version_bump() {
        let s = service();
        let r = reply(&s, "+A(1, 2).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        assert!(r.contains("\"version\":0"), "got {r}");
        let r = reply(&s, "-A(9, 9).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        // Cancelling pair inside one group: also a no-op.
        let r = reply(&s, "+A(7, 8) -A(7, 8).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        assert!(reply(&s, "!snapshot").contains("\"version\":0"));
    }

    #[test]
    fn batched_update_group_is_one_atomic_version() {
        let s = service();
        let r = reply(&s, "+A(3, 4) +E(3, 4) -E(2, 3).");
        assert!(r.contains("\"version\":1"), "got {r}");
        assert!(r.contains("\"inserted\":2"), "got {r}");
        assert!(r.contains("\"deleted\":1"), "got {r}");
        // 1→2 (E), 3→4 (E), 1→2→3→4 via A-chain... E(2,3) is gone, so
        // P(1,*) = {2} ∪ A(1,2)∘P(2,*) and P(2,*) = A(2,3)∘P(3,*) = {4}.
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":2"), "got {r}");
        assert!(r.contains("[[\"2\"],[\"4\"]]"), "got {r}");
    }

    #[test]
    fn updates_to_the_served_predicate_are_rejected() {
        let s = service();
        let r = reply(&s, "+P(1, 3).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("derived"), "got {r}");
        let r = reply(&s, "-P(1, 2).");
        assert!(r.contains("\"ok\":false"), "got {r}");
    }

    #[test]
    fn updates_to_reserved_names_are_refused_and_the_view_stays_maintained() {
        let s = service();
        // `__ivm_cand` is the recount pipelines' seed atom, `ans__P__dv` the
        // frontier plan's answer relation: a client that could write either
        // would break maintenance or plant an answer flagged complete.
        for line in [
            "+__ivm_cand(1).",
            "+ans__P__dv(42).",
            "-magic__P__fb(1).",
            "+A(3, 4) +reach__P__dv(7).",
        ] {
            let r = reply(&s, line);
            assert!(r.contains("\"ok\":false"), "{line}: {r}");
            assert!(r.contains("is reserved"), "{line}: {r}");
        }
        assert!(reply(&s, "!snapshot").contains("\"version\":0"));
        let r = reply(&s, "?- P(1, y).");
        assert!(r.contains("[[\"2\"],[\"3\"]]"), "got {r}");
        // The first write builds the view; a refused line in between, and
        // the next write is still patched in, not rebuilt or dropped.
        let r = reply(&s, "+A(3, 4) +E(3, 4).");
        assert!(r.contains("\"maintenance\":\"saturate\""), "got {r}");
        assert!(reply(&s, "+__ivm_cand(1).").contains("is reserved"));
        let r = reply(&s, "+A(4, 5) +E(4, 5).");
        assert!(r.contains("\"maintenance\":\"generic-dred\""), "got {r}");
        let r = reply(&s, "?- P(1, y).");
        assert!(r.contains("[[\"2\"],[\"3\"],[\"4\"],[\"5\"]]"), "got {r}");
        assert!(r.contains("\"complete\":true"), "got {r}");
    }

    #[test]
    fn malformed_lines_report_errors_without_ending_the_session() {
        let s = service();
        let r = reply(&s, "?- P(1, y");
        assert!(r.contains("\"ok\":false"), "got {r}");
        let r = reply(&s, "+A(x, y).");
        assert!(r.contains("not ground"), "got {r}");
        let r = reply(&s, "!bogus");
        assert!(r.contains("unknown command"), "got {r}");
        // Still serving.
        assert!(reply(&s, "?- P(1, y).").contains("\"ok\":true"));
    }

    #[test]
    fn comments_and_blanks_are_silent_and_quit_quits() {
        let s = service();
        assert!(matches!(handle_line(&s, ""), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "% note"), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "# note"), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "!quit"), LineOutcome::Quit));
    }

    #[test]
    fn metrics_reply_is_prometheus_text_ending_in_eof() {
        let s = service();
        reply(&s, "?- P(1, y).");
        let r = reply(&s, "!metrics");
        assert!(r.starts_with("# TYPE"), "got {r}");
        assert!(r.ends_with("# EOF"), "got {r}");
        assert!(
            r.contains("recurs_serve_queries_total{cache=\"miss\",kernel=\"frontier\",outcome=\"complete\"} 1"),
            "got {r}"
        );
        assert!(r.contains("recurs_serve_query_seconds_bucket"), "got {r}");
    }

    #[test]
    fn trace_directive_tags_the_reply_and_minted_ids_appear_otherwise() {
        let s = service();
        let r = reply(&s, "@trace=deadbeef ?- P(1, y).");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"trace\":\"00000000deadbeef\""), "got {r}");
        // Without a directive the service mints one — a 16-hex-digit id.
        let r = reply(&s, "?- P(1, y).");
        let tag = r.split("\"trace\":\"").nth(1).expect("minted trace id");
        assert_eq!(tag.split('"').next().unwrap().len(), 16, "got {r}");
    }

    #[test]
    fn malformed_trace_directives_are_typed_errors() {
        let s = service();
        let r = reply(&s, "@trace= ?- P(1, y).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=xyz ?- P(1, y).");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=00112233445566778 ?- P(1, y).");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=1 @trace=2 ?- P(1, y).");
        assert!(r.contains("duplicate @trace directive"), "got {r}");
        let r = reply(&s, "@trace=1");
        assert!(r.contains("\"ok\":false"), "got {r}");
        // Still serving.
        assert!(reply(&s, "?- P(1, y).").contains("\"ok\":true"));
    }

    fn directives(line: &str) -> Request<'_> {
        Request::parse(line).unwrap()
    }

    #[test]
    fn plain_line_has_no_directives() {
        let d = directives("?- P(1, y).");
        assert_eq!(d.line, "?- P(1, y).");
        assert_eq!(d.deadline, None);
        assert_eq!(d.trace, None);
    }

    #[test]
    fn deadline_directive_is_parsed_and_stripped() {
        let d = directives("@deadline=250 ?- P(1, y).");
        assert_eq!(d.line, "?- P(1, y).");
        assert_eq!(d.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn directives_combine_in_any_order() {
        for line in [
            "@deadline=250 @trace=cafe ?- P(1, y).",
            "@trace=cafe @deadline=250 ?- P(1, y).",
        ] {
            let d = directives(line);
            assert_eq!(d.line, "?- P(1, y).");
            assert_eq!(d.deadline, Some(Duration::from_millis(250)));
            assert_eq!(d.trace, Some(TraceId::from_u64(0xcafe)));
        }
    }

    #[test]
    fn a_bare_directive_is_a_typed_error() {
        let err = Request::parse("@deadline=10").unwrap_err();
        assert_eq!(err, "empty request after @deadline directive");
        let err = Request::parse("@deadline=10 @trace=1").unwrap_err();
        assert_eq!(err, "empty request after @trace directive");
    }

    #[test]
    fn bad_deadline_is_a_typed_parse_error() {
        let err = Request::parse("@deadline=soon ?- P(1, y).").unwrap_err();
        assert_eq!(err, "bad deadline directive: @deadline=soon");
    }

    #[test]
    fn bad_duplicate_or_unknown_directives_are_typed_parse_errors() {
        for (line, want) in [
            ("@trace=xyz ?- P(1, y).", "bad @trace directive"),
            (
                "@trace=1 @trace=2 ?- P(1, y).",
                "duplicate @trace directive",
            ),
            (
                "@deadline=1 @deadline=2 ?- P(1, y).",
                "duplicate @deadline directive",
            ),
            ("@speed=fast ?- P(1, y).", "unknown directive: @speed=fast"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn error_reply_carries_retry_hint_when_given() {
        let r = error_reply("overloaded", "shed", Some(50));
        assert_eq!(
            r,
            r#"{"ok":false,"type":"overloaded","error":"shed","retry_after_ms":50}"#
        );
        let r = error_reply("protocol", "bad frame", None);
        assert_eq!(r, r#"{"ok":false,"type":"protocol","error":"bad frame"}"#);
    }

    #[test]
    fn each_reply_names_its_result() {
        let s = service();
        let opts = LineOptions::default();
        let result = |line: &str| handle_line_with(&s, line, &opts);
        for (line, want) in [
            ("?- P(1, y).", RequestResult::Ok),
            ("@deadline=60000 ?- P(1, y).", RequestResult::Ok),
            ("% a comment", RequestResult::Ok),
            ("?- Q(1, y).", RequestResult::Error),
            ("!bogus", RequestResult::Error),
            ("@trace=xyz ?- P(1, y).", RequestResult::Malformed),
            ("@deadline=0 ?- P(1, y).", RequestResult::Deadline),
        ] {
            assert_eq!(result(line).1, want, "{line}");
        }
        let (LineOutcome::Reply(r), _) = result("@deadline=0 ?- P(1, y).") else {
            panic!("a deadline reply");
        };
        assert_eq!(
            r,
            r#"{"ok":false,"type":"deadline","error":"deadline of 0 ms expired before evaluation started","retry_after_ms":50}"#
        );
        // `@deadline=0 !quit` runs out before it can quit.
        assert!(matches!(
            result("@deadline=0 !quit"),
            (LineOutcome::Reply(_), RequestResult::Deadline)
        ));
        assert_eq!(RequestResult::Malformed.label(), "error");
    }

    #[test]
    fn a_deadline_tightens_the_budget_and_a_transport_token_cancels_it() {
        let s = service();
        // `!explain` reports the budget the request ran under.
        for (line, want) in [
            ("!explain P(x, y)", r#""timeout_ms":null"#),
            ("@deadline=60000 !explain P(x, y)", r#""timeout_ms":60000"#),
        ] {
            assert!(reply(&s, line).contains(want), "{line}");
        }
        let s = service_with(ServeConfig {
            budget: EvalBudget::unlimited().with_timeout(Duration::from_secs(10)),
            ..ServeConfig::default()
        });
        for (line, want) in [
            ("@deadline=250 !explain P(x, y)", r#""timeout_ms":250"#),
            ("@deadline=60000 !explain P(x, y)", r#""timeout_ms":10000"#),
        ] {
            assert!(reply(&s, line).contains(want), "{line}");
        }
        let token = CancelToken::new();
        token.cancel();
        let opts = LineOptions {
            cancel: Some(token),
            ..LineOptions::default()
        };
        let (LineOutcome::Reply(r), RequestResult::Ok) = handle_line_with(&s, "P(2, y)", &opts)
        else {
            panic!("a cancelled query still replies");
        };
        assert!(r.contains(r#""truncation":"cancelled""#), "{r}");
    }

    #[test]
    fn explain_replies_with_a_plan_audit() {
        let s = service();
        let r = reply(&s, "!explain P(1, y)");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"type\":\"explain\""), "got {r}");
        assert!(r.contains("\"classification\""), "got {r}");
        assert!(r.contains("\"kernel\""), "got {r}");
        assert!(r.contains("\"cache\""), "got {r}");
        assert!(r.contains("\"spans\""), "got {r}");
        let r = reply(&s, "@trace=feed !explain P(1, y)");
        assert!(r.contains("\"trace\":\"000000000000feed\""), "got {r}");
        let r = reply(&s, "!explain");
        assert!(r.contains("usage"), "got {r}");
        let r = reply(&s, "!explain Q(1, y)");
        assert!(r.contains("\"ok\":false"), "got {r}");
    }

    #[test]
    fn why_replies_with_a_derivation_tree_or_not_derived() {
        let s = service();
        let r = reply(&s, "why P(1, 3).");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"type\":\"why\""), "got {r}");
        assert!(r.contains("\"derived\":true"), "got {r}");
        assert!(r.contains("\"tree\""), "got {r}");
        assert!(r.contains("\"rule\":\"recursive\""), "got {r}");
        let r = reply(&s, "why P(3, 1).");
        assert!(r.contains("\"derived\":false"), "got {r}");
        let r = reply(&s, "why");
        assert!(r.contains("usage"), "got {r}");
        let r = reply(&s, "why P(x, y).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        let r = reply(&s, "why Q(1, 2).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("not served"), "got {r}");
    }

    #[test]
    fn a_traced_why_echoes_its_trace_id_and_tags_its_events_in_one_span() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let s = service_with(ServeConfig {
            obs: recurs_obs::Obs::new(capture.clone()),
            ..ServeConfig::default()
        });
        let r = reply(&s, "@trace=abc why P(1, 3).");
        assert!(r.ends_with(r#","trace":"0000000000000abc"}"#), "got {r}");
        let r = reply(&s, "why P(1, 3).");
        assert!(!r.contains("\"trace\""), "an untraced why mints none: {r}");
        let traces: Vec<_> = capture
            .events_of("serve.why")
            .iter()
            .map(|e| e.trace)
            .collect();
        assert_eq!(traces, [Some(TraceId::from_u64(0xabc)), None]);
        let spans = capture.events_of("span");
        let request = spans.iter().map(|e| (e.text("name"), e.trace));
        let want = (Some("request"), Some(TraceId::from_u64(0xabc)));
        assert_eq!(request.collect::<Vec<_>>(), [want]);
    }

    /// The renderer `render_reply` replaced, kept as its reference: the
    /// answers reply built as a `Value` tree, then serialized.
    fn render_reply_tree(query: &str, reply: &Reply, max_len: Option<usize>) -> String {
        let mut room = max_len.map_or(usize::MAX, |max| {
            max.saturating_sub(REPLY_ENVELOPE_LEN + json_len(query))
        });
        let mut sorted: Vec<&[recurs_datalog::term::Value]> = reply.answers.iter().collect();
        sorted.sort_unstable();
        let mut rows: Vec<Value> = Vec::new();
        for t in sorted {
            let len = 2 + t.iter().map(|v| json_len(v.as_str()) + 1).sum::<usize>();
            if len > room {
                break;
            }
            room -= len;
            rows.push(Value::array(t.iter().map(|v| Value::string(v.as_str()))));
        }
        let cut = rows.len() < reply.answers.len();
        let mut fields = vec![
            ("ok", Value::Bool(true)),
            ("type", Value::string("answers")),
            ("query", Value::string(query)),
            ("count", reply.answers.len().to_value()),
            ("answers", Value::Array(rows)),
            ("stats", reply.stats.to_value()),
        ];
        if cut {
            fields.push(("truncated", Value::Bool(true)));
        }
        fields.push(("trace", Value::string(reply.trace.to_string())));
        json::to_string(&Value::object(fields))
    }

    /// A reply holding `rows` (each cut to `arity` values) as its answers.
    fn answers_reply(arity: usize, rows: &[Vec<String>], truncated: bool) -> Reply {
        use crate::kernel::PointKernelKind;
        use crate::stats::{CacheOutcome, ServeStats};
        use recurs_datalog::govern::{Outcome, TruncationReason};
        use recurs_datalog::term::Value as Const;
        let mut answers = recurs_engine::IndexedRelation::new(arity);
        for row in rows {
            let t: Vec<Const> = row[..arity].iter().map(|s| Const::named(s)).collect();
            answers.insert(&t);
        }
        let outcome = match truncated {
            false => Outcome::Complete,
            true => Outcome::Truncated(TruncationReason::TupleCeiling),
        };
        let stats = ServeStats {
            queue_wait: Duration::from_micros(3),
            eval: Duration::from_micros(41),
            cache: CacheOutcome::Hit,
            kernel: PointKernelKind::Plan {
                strategy: recurs_core::plan::StrategyKind::Bounded,
                rank: Some(2),
            },
            outcome,
            answers: answers.len(),
            tuples_derived: 0,
            fixpoint_iterations: 0,
            snapshot_version: 7,
        };
        let trace = TraceId::parse("c0ffee").unwrap();
        Reply {
            answers,
            outcome,
            stats,
            trace,
            hit: None,
        }
    }

    /// Constants drawn from letters, digits, NUL and every byte the JSON
    /// escaper rewrites (`"`, `\`, newline, tab, carriage return and a
    /// control byte), some behind a stem: two values past 8 bytes that share
    /// `abcdefgh`, `abcdefgh` itself a byte-prefix of them, and `abcdefg`,
    /// whose key ties that of `abcdefg` followed by NUL.
    fn constant() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy as _;
        let stem = proptest::sample::select(vec!["", "", "abcdefg", "abcdefgh"]);
        (stem, "[ab19\0\"\\\\\n\t\r\u{1}é]{0,4}").prop_map(|(stem, tail)| stem.to_string() + &tail)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn render_reply_writes_the_bytes_the_value_tree_did(
            arity in 0usize..=3,
            rows in proptest::collection::vec((constant(), constant(), constant()), 0..12),
            query in constant(),
            truncated in 0u8..2,
        ) {
            let rows: Vec<Vec<String>> = rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect();
            let reply = answers_reply(arity, &rows, truncated == 1);
            let full = render_reply_tree(&query, &reply, None);
            proptest::prop_assert_eq!(render_reply(&query, &reply, None), full.clone());
            // Every frame size up to one that cuts nothing: the envelope's
            // reserve, the query, and the whole reply.
            for max in 0..=REPLY_ENVELOPE_LEN + json_len(&query) + full.len() {
                let direct = render_reply(&query, &reply, Some(max));
                let tree = render_reply_tree(&query, &reply, Some(max));
                proptest::prop_assert_eq!(direct, tree, "max_reply_len {}", max);
            }
            let uncut = REPLY_ENVELOPE_LEN + json_len(&query) + full.len();
            proptest::prop_assert_eq!(render_reply(&query, &reply, Some(uncut)), full);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn a_warm_hit_writes_the_bytes_of_a_fresh_render(
            arity in 0usize..=3,
            rows in proptest::collection::vec((constant(), constant(), constant()), 0..12),
            query in constant(),
        ) {
            let rows: Vec<Vec<String>> = rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect();
            let mut reply = answers_reply(arity, &rows, false);
            let frames = |full: &str| {
                let uncut = REPLY_ENVELOPE_LEN + json_len(&query) + full.len();
                (0..=uncut).map(Some).chain([None]).collect::<Vec<_>>()
            };
            let fresh: Vec<_> = {
                let full = render_reply(&query, &reply, None);
                frames(&full).into_iter().map(|max| (max, render_reply(&query, &reply, max))).collect()
            };
            // A first hit writes a fresh render's bytes, and fills its empty
            // cell only when it cut nothing.
            let mut kept = RowsText::default();
            for (max, want) in &fresh {
                let cell = RowsText::default();
                reply.hit = Some(cell.clone());
                let first = render_reply(&query, &reply, *max);
                proptest::prop_assert_eq!(&first, want, "max_reply_len {:?}", max);
                if first.contains(r#","truncated":true,"trace""#) {
                    proptest::prop_assert!(cell.get().is_none(), "a cut reply was kept at {:?}", max);
                }
                if max.is_none() {
                    kept = cell;
                }
            }
            proptest::prop_assert!(kept.get().is_some(), "an uncut render was not kept");
            // A warm hit writes them too, at every frame size, and its cell
            // holds the same text.
            if let Some(text) = kept.get().cloned() {
                reply.hit = Some(kept.clone());
                for (max, want) in &fresh {
                    let warm = render_reply(&query, &reply, *max);
                    proptest::prop_assert_eq!(&warm, want, "max_reply_len {:?}", max);
                    proptest::prop_assert_eq!(kept.get(), Some(&text));
                }
            }
        }
    }

    /// The answers text of a rendered reply: what sits between `"answers":`
    /// and `,"stats"`.
    fn rows_of(reply: &str) -> &str {
        let rows = reply.split(r#""answers":"#).nth(1).unwrap();
        rows.split(r#","stats""#).next().unwrap()
    }

    /// The cell `P(1, y)`'s cache entry hands a hit.
    fn cell(s: &QueryService) -> RowsText {
        let hit = s.query(&parse_atom("P(1, y)").unwrap()).unwrap().hit;
        hit.expect("P(1, y) is cached")
    }

    /// What `P(1, y)`'s cache entry holds as its rows' text.
    fn kept_rows(s: &QueryService) -> Option<String> {
        cell(s).get().map(|t| t.to_string())
    }

    #[test]
    fn the_first_hit_keeps_its_rows_and_every_later_hit_sends_them() {
        let s = service();
        // The first write builds the view (and clears the cache): the later
        // ones patch the entries they reach.
        reply(&s, "+A(7, 8).");
        let miss = reply(&s, "?- P(1, y).");
        assert!(miss.contains(r#""cache":"miss""#), "{miss}");
        let first = reply(&s, "?- P(1, y).");
        let kept = cell(&s);
        let text = kept.get().expect("the first hit kept its rows");
        assert_eq!(format!("[{text}]"), rows_of(&miss));
        for _ in 0..2 {
            let warm = reply(&s, "?- P(1, y).");
            assert!(warm.contains(r#""cache":"hit""#), "{warm}");
            assert_eq!(rows_of(&warm), rows_of(&first));
            assert!(Arc::ptr_eq(&cell(&s), &kept), "a warm hit made a new cell");
        }
        // A write that changes the entry drops its text; the next hit renders
        // the new answers and keeps them.
        reply(&s, "+E(1, 9).");
        assert_eq!(kept_rows(&s), None);
        let changed = reply(&s, "?- P(1, y).");
        assert_eq!(rows_of(&changed), r#"[["2"],["3"],["9"]]"#);
        assert_eq!(kept_rows(&s).as_deref(), Some(r#"["2"],["3"],["9"]"#));
    }

    #[test]
    fn a_hit_cut_to_its_frame_keeps_no_rows() {
        let s = service();
        // Room for the first row: `["2"]` and its comma are 6 bytes.
        let opts = LineOptions {
            max_reply_len: Some(REPLY_ENVELOPE_LEN + json_len("P(1, y)") + 6),
            ..LineOptions::default()
        };
        for _ in 0..3 {
            let (LineOutcome::Reply(r), _) = handle_line_with(&s, "?- P(1, y).", &opts) else {
                panic!("no reply");
            };
            assert!(r.contains(r#""count":2,"answers":[["2"]],"stats""#), "{r}");
            assert_eq!(kept_rows(&s), None);
        }
        // An uncut hit keeps them; a cut one after it still writes its cut.
        reply(&s, "?- P(1, y).");
        assert!(kept_rows(&s).is_some());
        let (LineOutcome::Reply(r), _) = handle_line_with(&s, "?- P(1, y).", &opts) else {
            panic!("no reply");
        };
        assert!(r.contains(r#""count":2,"answers":[["2"]],"stats""#), "{r}");
        assert!(r.contains(r#","truncated":true"#), "{r}");
    }

    #[test]
    fn a_framed_reply_of_escaped_newlines_keeps_every_row_that_fits() {
        let rows: Vec<Vec<String>> = ["a\n", "b\n"].iter().map(|s| vec![s.to_string()]).collect();
        let reply = answers_reply(1, &rows, false);
        // `["a\n"]` writes 7 bytes and is charged 8 with its comma: 16 bytes
        // hold both rows, 15 the first.
        let room = REPLY_ENVELOPE_LEN + json_len("P(x)") + 16;
        let both = render_reply("P(x)", &reply, Some(room));
        assert!(
            both.contains(r#""count":2,"answers":[["a\n"],["b\n"]],"stats""#),
            "{both}"
        );
        assert!(!both.contains("truncated"), "{both}");
        let one = render_reply("P(x)", &reply, Some(room - 1));
        assert!(
            one.contains(r#""count":2,"answers":[["a\n"]],"stats""#),
            "{one}"
        );
    }

    #[test]
    fn a_cut_keeps_whole_sorted_rows_and_flags_the_reply() {
        let rows: Vec<Vec<String>> = ["b\"", "a\\", "c"]
            .iter()
            .map(|s| vec![s.to_string()])
            .collect();
        let reply = answers_reply(1, &rows, false);
        let full = render_reply(r#"P(x)"#, &reply, None);
        assert!(
            full.contains(r#""count":3,"answers":[["a\\"],["b\""],["c"]],"#),
            "{full}"
        );
        assert!(!full.contains("truncated"), "{full}");
        // Room for the first row only: `["a\\"]` and its comma are 8 bytes.
        let room = REPLY_ENVELOPE_LEN + json_len("P(x)") + 8;
        let cut = render_reply("P(x)", &reply, Some(room));
        assert!(
            cut.contains(r#""count":3,"answers":[["a\\"]],"stats""#),
            "{cut}"
        );
        assert!(
            cut.ends_with(r#","truncated":true,"trace":"0000000000c0ffee"}"#),
            "{cut}"
        );
    }

    #[test]
    fn a_why_out_of_budget_is_a_truncated_reply_not_an_error() {
        // The provenance saturation of a 60-vertex chain derives far more
        // than one tuple before it can rank P(1, 60).
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..60).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..60).map(|i| (i, i + 1))));
        let config = ServeConfig {
            budget: EvalBudget::unlimited().with_max_tuples(1),
            ..ServeConfig::default()
        };
        let s = QueryService::new(lr, db, config);
        let r = reply(&s, "why P(1, 60).");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"type\":\"why\""), "got {r}");
        assert!(r.contains("\"truncated\":true"), "got {r}");
        assert!(r.contains("\"truncation\":\"tuple ceiling\""), "got {r}");
        assert!(
            !r.contains("\"derived\""),
            "a stopped search claims nothing: {r}"
        );
        // `recurs_serve_query_errors_total` is untouched.
        assert_eq!(s.stats().errors, 0);
    }
}
