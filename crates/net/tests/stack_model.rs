//! One model checks the whole served stack. A seeded script, transitive
//! closure over two chains on vertices 1–8, is played in phases from 1–4
//! threads into one `QueryService`: through `protocol::handle_line_with`
//! (slice 1), and over TCP through `NetServer`, one pipelined `Client` per
//! thread, with a hostile connection after each phase (slice 2). It is
//! played with the cache at 16 entries or off, under an unbounded or a tight
//! `max_tuples` budget. A phase may cut replies short, shed, cancel mid-phase,
//! and under `--features fault-inject` slow or trip the engine's rounds.
//!
//! The checks read the log after the run, against a `Database` per version
//! saturated by `naive`, the version chain rebuilt from the update replies.
//! The invariant: **every reply is exact at the snapshot version it names, or
//! it is flagged truncated and is a subset.**
//!
//! 1. Each installed version has one group, whose net effect is its
//!    `inserted` / `deleted`; an `unchanged` group is a no-op at its version;
//!    nothing else moves the version.
//! 2. Every answers, `!explain` and `why` reply is exact at its version, or
//!    flagged (`complete: false`, `"truncated":true`) and a subset. A `why`
//!    is `derived` exactly when the fact is in the model; its root is the
//!    fact and each `edb` leaf a fact of that version.
//! 3. Each thread's versions never decrease.
//! 4. Every request gets one reply of its type, in order (a blank frame a
//!    `noop`); an `@trace=` id comes back zero-padded; a frame is at most
//!    `max_frame_len` bytes or `reply_too_large`; shed, deadline and protocol
//!    errors are typed.
//! 5. At each quiescent phase end, each distinct query of the phase, asked
//!    twice more, is at the current version, exact under an unbounded budget,
//!    and hits the second time if it was complete and the cache is on; and
//!    `!stats` counts one insertion per complete miss.
//! 6. Over TCP, the server answers after each hostile connection and drains
//!    unforced.
//! 7. A one-thread case must hit, hit across a patch, evict, maintain a
//!    delete through DRed and flag a truncation, or it proves nothing.
//!
//! A failure names its case index (the stream is seeded by test name and
//! index; a one-thread case replays exactly) and prints the request, reply,
//! model answer, script and newest flight-ring events.
//!
//! The tests this replaces, and the checks that cover them:
//! * `serve/tests/fault_inject.rs`: both `slowed_*_under_a_deadline_is_truncated_and_never_cached`
//!   by 2 and 5 on slowed phases (`engine/tests/fault_injection.rs` keeps
//!   the `fault.injected` event).
//! * `serve/tests/cache_model.rs`: `cached_replies_follow_the_model_across_patches_and_evictions` by 2 and 7.
//!
//! `serve/tests/concurrency.rs` and `tests/malformed_frames.rs` stay as
//! named regressions: checks 1–5 cover the first on multi-thread cases, and
//! checks 4 and 6 the second, but each of their tests pins one scenario by
//! name.

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, naive};
use recurs_datalog::govern::{CancelToken, EvalBudget};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_net::frame::{read_frame, write_frame, FrameError};
use recurs_net::{Client, NetConfig, NetServer};
use recurs_obs::jsonl;
use recurs_serve::protocol::{handle_line, handle_line_with, parse_ground_fact};
use recurs_serve::protocol::{LineOptions, LineOutcome};
use recurs_serve::{QueryService, ServeConfig};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A phase's small `max_reply_len`: the 1 024-byte envelope and a few rows.
const SMALL_REPLY: usize = 1100;
/// The TCP slice's `max_frame_len`.
const TCP_FRAME: usize = 2048;
/// The thread the quiescent asks are logged under.
const QUIESCENT: usize = usize::MAX;
/// Cache entries, `max_tuples` and evaluation slots of a service.
type Config = (usize, Option<usize>, usize);
const CONFIGS: [Config; 4] = [
    (16, None, 4),
    (0, None, 1),
    (16, Some(10), 1),
    (0, Some(10), 4),
];
/// The hostile connections: the bytes sent, then what the server answers, up
/// to closing the connection. The first claims `TCP_FRAME + 1` bytes, the
/// second vanishes mid-frame.
const HOSTILE: [(&[u8], &[&str]); 5] = [
    (b"\0\0\x08\x01", &["protocol", "closed"]),
    (b"\0\0\0\x64?- P(1, ", &[]),
    (
        b"\0\0\0\x02\xff\xfe\0\0\0\x0b?- P(1, y).",
        &["protocol", "answers"],
    ),
    (b"GET / HTTP/1.1\r\n\r\n", &["protocol", "closed"]),
    (
        b"\0\0\0\x0b?- P(1, y).\xde\xad\xbe\xef",
        &["answers", "protocol", "closed"],
    ),
];

/// A step of the script: a kind, two vertices, and bits for the rest.
type Step = (u8, u64, u64, u64);
/// One signed fact of an update group: insert?, relation, from, to.
type Op = (bool, &'static str, u64, u64);
/// A request line, and what it asks of the model.
type Line = (String, Req);
/// Thread, line, and its reply (`None` for silence on stdin).
type Entry = (usize, usize, Option<String>);
type Res<T = ()> = Result<T, String>;
/// What a run showed the checks had something to check.
type Seen = BTreeSet<&'static str>;

#[derive(Debug, Clone)]
enum Req {
    Query(String),
    Explain(String),
    Why(u64, u64),
    Update(Vec<Op>),
    Info,
    Silent,
    /// A typed error (`Some(type)`) or a plain `"ok":false` one.
    Refused(Option<&'static str>),
}

/// A phase: its steps, the run's line indexes each thread sends, and bits
/// that choose its options.
struct Phase {
    steps: Vec<Vec<Line>>,
    mine: Vec<Vec<usize>>,
    bits: u64,
    cancel_at: usize,
}

/// A run's request lines, the script's then the quiescent ones, and its
/// replies.
struct Log {
    lines: Vec<Line>,
    replies: Vec<Entry>,
}

fn tc() -> LinearRecursion {
    let program = parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
    validate_with_generic_exit(&program.unwrap()).unwrap()
}

/// Two chains, 1 → … → 4 and 5 → … → 8, in both `A` and `E`.
fn base() -> Database {
    let mut db = Database::new();
    for rel in ["A", "E"] {
        let edges = [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)];
        db.insert_relation(rel, Relation::from_pairs(edges));
    }
    db
}

fn query(text: &str) -> Line {
    (format!("?- {text}."), Req::Query(text.to_string()))
}

/// The lines of step `n`. Most follow the serve workloads: hot point
/// queries, a cycle of bound queries wider than the cache, and `+E`/`-E`
/// rounds each followed by hot and uncached queries. The rest cover every
/// other form of the grammar.
fn lines_of((n, &(kind, a, b, bits)): (usize, &Step)) -> Vec<Line> {
    let hot = || query(["P(1, y)", "P(x, 4)", "P(5, y)"][bits as usize % 3]);
    let bound = &[
        format!("P({a}, {b})"),
        format!("P({a}, y)"),
        format!("P(x, {b})"),
    ];
    let bound = &bound[bits as usize % 3];
    let line = |text: &str, req| (text.to_string(), req);
    let traced = |(text, req): Line| (format!("@trace={n:x} {text}"), req);
    let update = |ops: Vec<Op>| {
        let sign = |ins| if ins { '+' } else { '-' };
        let fact = |&(i, r, a, b): &Op| format!("{}{r}({a}, {b})", sign(i));
        let facts: Vec<_> = ops.iter().map(fact).collect();
        (facts.join(" ") + ".", Req::Update(ops))
    };
    let why = |text: String| (text, Req::Why(a, b));
    let explain = |q: &str| (format!("!explain {q}"), Req::Explain(q.into()));
    let due = |ms, (text, req): Line| (format!("@deadline={ms} {text}"), req);
    match kind {
        0..=9 if bits % 4 == 0 => vec![traced(hot())],
        0..=9 => vec![hot()],
        10..=15 => vec![traced(query(bound)), query(&format!("P(x, {a})"))],
        16 => vec![query("P(x, y)")],
        17 => vec![line("P(x, x)", Req::Query("P(x, x)".into()))],
        18..=22 => {
            let rel = |bits: u64| ["A", "E"][(bits >> 1 & 1) as usize];
            let op = |bits: u64, to| (bits & 1 == 0, rel(bits), a, to);
            let chain = a % 8 + 1;
            let mut ops = vec![op(bits, if bits & 8 != 0 { chain } else { b })];
            match kind {
                20 => ops.push(op(bits >> 2, b)),
                21 => ops.extend([op(bits >> 2, b), op(bits >> 4, chain)]),
                22 => ops.push((!ops[0].0, ops[0].1, a, ops[0].3)), // a cancelling pair
                _ => {}
            }
            vec![update(ops)]
        }
        23 | 24 => {
            let (edge, cold) = (|ins| update(vec![(ins, "E", a, b)]), || query(bound));
            vec![edge(true), hot(), cold(), edge(false), hot(), cold()]
        }
        25 | 26 => vec![explain(if bits & 3 == 0 { "P(x, x)" } else { bound })],
        27 | 28 => vec![why(format!("why P({a}, {b})."))],
        29 => vec![match bits % 4 {
            0 => line("@deadline=0 ?- P(1, y).", Req::Refused(Some("deadline"))),
            1 => traced(due(1, query("P(x, y)"))),
            2 => due(2, why(format!("why P({a}, {b})."))),
            _ => traced(due(3, explain("P(x, y)"))),
        }],
        30 => vec![line(["!stats", "!snapshot"][bits as usize % 2], Req::Info)],
        31 => vec![line(["", "% a", "# b"][bits as usize % 3], Req::Silent)],
        _ => {
            let (text, kind) = [
                ("@trace=xyz ?- P(1, y).", Some("protocol")),
                ("@trace=ff @trace=ff ?- P(1, y).", Some("protocol")),
                ("@deadline=oops ?- P(1, y).", Some("protocol")),
                ("@deadline=5", Some("protocol")),
                ("@bogus ?- P(1, y).", Some("protocol")),
                ("+A(x, 1).", None),
                ("!frobnicate", None),
                ("+P(1, 2).", None),
                ("-ans__P__dv(1).", None),
            ][bits as usize % 9];
            vec![line(text, Req::Refused(kind))]
        }
    }
}

fn show(phases: &[Phase]) -> String {
    let mut out = String::new();
    for p in phases {
        out += &format!("-- phase {:#x}, cancel at {}\n", p.bits, p.cancel_at);
        for line in p.steps.iter().flatten() {
            out += &(line.0.clone() + "\n");
        }
    }
    out
}

/// Arms bits 3–4 of a phase: no fault, a slowdown beside the script's small
/// deadlines, or a one-shot trip at round 2.
#[cfg(feature = "fault-inject")]
fn arm(gate: &recurs_engine::fault::FaultGuard, bits: u64) {
    gate.rearm(recurs_engine::fault::FaultPlan {
        slowdown: (bits >> 3 & 3 == 1).then_some(Duration::from_micros(300)),
        trip_at_round: (bits >> 3 & 3 == 2).then_some(2),
    });
}

/// Plays one phase: thread `t` sends `mine[t]` in order. In process it runs
/// under the phase's options, and thread 0 cancels the token at its
/// `cancel_at`-th line; over TCP it sends every frame before it reads the
/// first reply.
fn play(service: &QueryService, tcp: Option<&str>, lines: &[Line], p: &Phase) -> Vec<Entry> {
    let cancel = CancelToken::new();
    let opts = LineOptions {
        max_reply_len: (p.bits & 1 != 0).then_some(SMALL_REPLY),
        max_queue_wait: (p.bits & 2 != 0).then_some(Duration::from_millis(1)),
        cancel: Some(cancel.clone()),
        ..LineOptions::default()
    };
    let thread = |t: usize, mine: &[usize]| -> Vec<Entry> {
        let Some(addr) = tcp else {
            let ask = |(k, &i): (usize, &usize)| {
                if t == 0 && p.bits & 4 != 0 && k == p.cancel_at {
                    cancel.cancel();
                }
                match handle_line_with(service, &lines[i].0, &opts).0 {
                    LineOutcome::Reply(reply) => (t, i, Some(reply)),
                    _ => (t, i, None),
                }
            };
            return mine.iter().enumerate().map(ask).collect();
        };
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let mut writer = client.stream_mut().try_clone().unwrap();
        let mut send = move |i: usize| write_frame(&mut writer, lines[i].0.as_bytes()).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || mine.iter().for_each(|&i| send(i)));
            let mut recv = || client.recv().unwrap_or_else(|e| format!("<{e}>"));
            mine.iter().map(|&i| (t, i, Some(recv()))).collect()
        })
    };
    std::thread::scope(|s| {
        let spawn = |t| s.spawn(move || thread(t, &p.mine[t]));
        let threads: Vec<_> = (0..p.mine.len()).map(spawn).collect();
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().unwrap();
        threads.into_iter().flat_map(join).collect()
    })
}

/// Plays hostile connection `kind`, then asks a plain query on a fresh one.
/// Returns the answers replies, for the model.
fn hostile(addr: &str, kind: usize) -> Res<Vec<String>> {
    let (bytes, wants) = HOSTILE[kind];
    let mut stream = TcpStream::connect(addr).unwrap();
    let wait = Some(Duration::from_secs(10));
    stream.set_read_timeout(wait).unwrap();
    stream.write_all(bytes).unwrap();
    let mut answers = Vec::new();
    for want in wants {
        let reply = match read_frame(&mut stream, 1 << 20) {
            Ok(frame) => String::from_utf8_lossy(&frame).into_owned(),
            Err(FrameError::Closed) => r#"{"type":"closed"}"#.to_string(),
            Err(e) => format!("<{e}>"),
        };
        if text(&parse(&reply)?, &["type"]) != Some(want) {
            return Err(format!("hostile connection {kind}: not {want}: {reply}"));
        }
        if *want == "answers" {
            answers.push(reply);
        }
    }
    let mut probe = Client::connect(addr, Duration::from_secs(10)).unwrap();
    let reply = probe.roundtrip("?- P(1, y).");
    answers.push(reply.unwrap_or_else(|e| format!("<{e}>")));
    Ok(answers)
}

fn parse(text: &str) -> Res<Value> {
    jsonl::parse(text).map_err(|e| format!("reply is not JSON ({e}): {text}"))
}

fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

fn text<'a>(v: &'a Value, path: &[&str]) -> Option<&'a str> {
    at(v, path)?.as_str()
}

fn uint(v: &Value, path: &[&str]) -> Option<u64> {
    match at(v, path)? {
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

fn flag(v: &Value, path: &[&str]) -> bool {
    matches!(at(v, path), Some(Value::Bool(true)))
}

fn strings(v: &Value) -> Vec<&str> {
    match v {
        Value::Array(values) => values.iter().filter_map(Value::as_str).collect(),
        _ => vec![],
    }
}

/// An answers or `!explain` reply's version, cache outcome and completeness,
/// and the query it answers.
fn answered(line: &Line, v: &Value) -> Option<(u64, String, bool, String)> {
    let (q, s) = match (&line.1, text(v, &["type"])) {
        (Req::Query(q), Some("answers")) => (q, v.get("stats")?),
        (Req::Explain(q), Some("explain")) => (q, v),
        _ => return None,
    };
    let (cache, version) = match s.get("cache")? {
        c @ Value::Object(_) => (text(c, &["outcome"])?, uint(c, &["snapshot_version"])?),
        c => (c.as_str()?, uint(s, &["snapshot_version"])?),
    };
    let complete = flag(s, &["outcome", "complete"]);
    Some((version, cache.into(), complete, q.clone()))
}

/// The quiescent end of a phase (check 5). An `!explain` replaced by
/// `reply_too_large` may hide a miss from the count.
fn phase_end(service: &QueryService, log: &mut Log, from: usize, config: Config) -> Res {
    let Log { lines, replies } = log;
    let asked: BTreeSet<String> = replies[from..]
        .iter()
        .filter_map(|e| match &lines[e.1].1 {
            Req::Query(q) | Req::Explain(q) => Some(q.clone()),
            _ => None,
        })
        .collect();
    let reply = |line: &str| match handle_line(service, line) {
        LineOutcome::Reply(reply) => parse(&reply).map(|v| (reply, v)),
        _ => Err(format!("no reply to {line}")),
    };
    let now = service.snapshot().version().get();
    for q in asked {
        lines.push(query(&q));
        let mut twice = Vec::new();
        for _ in 0..2 {
            let (text, v) = reply(&lines[lines.len() - 1].0)?;
            twice.push(answered(&lines[lines.len() - 1], &v));
            replies.push((QUIESCENT, lines.len() - 1, Some(text)));
        }
        let fine = match (&twice[0], &twice[1]) {
            (Some((v1, _, done, _)), Some((v2, cache, ..))) => {
                let exact = *done || config.1.is_some();
                let hits = !done || config.0 == 0 || cache == "hit";
                (*v1, *v2) == (now, now) && exact && hits
            }
            _ => false,
        };
        if !fine {
            let got = &replies[replies.len() - 2..];
            return Err(format!(
                "model: exact at {now}, then a hit\nrequest: {q}\nreplies: {got:?}"
            ));
        }
    }
    let (mut misses, mut hidden) = (0, 0);
    for (_, i, reply) in replies.iter() {
        let v = parse(reply.as_deref().unwrap_or("null")).unwrap_or(Value::Null);
        match answered(&lines[*i], &v) {
            Some((_, cache, true, _)) => misses += u64::from(cache == "miss"),
            None => hidden += u64::from(text(&v, &["type"]) == Some("reply_too_large")),
            _ => {}
        }
    }
    let (text, stats) = reply("!stats")?;
    let inserted = uint(&stats, &["stats", "cache", "insertions"]).unwrap_or(0);
    if inserted < misses || inserted > misses + hidden {
        let model = format!("model: {misses} complete misses, {hidden} hidden");
        return Err(format!("{model}\nrequest: !stats\nreply: {text}"));
    }
    Ok(())
}

fn applied(db: &Database, ops: &[Op]) -> Database {
    let mut db = db.clone();
    for &(ins, rel, a, b) in ops {
        match ins {
            true => db.insert(rel, tuple_u64([a, b])).unwrap(),
            false => db.remove(rel, &tuple_u64([a, b])).unwrap(),
        };
    }
    db
}

/// How many facts `a` holds that `b` does not.
fn minus(a: &Database, b: &Database) -> u64 {
    let rels = ["A", "E"].map(|r| (a.get(r).unwrap(), b.get(r).unwrap()));
    rels.iter().map(|(a, b)| a.difference(b).len() as u64).sum()
}

fn broke(what: &str, line: &Line, reply: &str) -> String {
    format!("{what}\nrequest: {}\nreply: {reply}", line.0)
}

/// Holds the log to the model (checks 1–4), given the version the service
/// ended at, and notes what it saw.
fn check(Log { lines, replies }: &Log, tcp: bool, end: u64, seen: &mut Seen) -> Res {
    let (mut installed, mut unchanged, mut versioned) = (BTreeMap::new(), vec![], vec![]);
    let mut last = HashMap::new();
    for (t, i, reply) in replies {
        let line = &lines[*i];
        let Some(reply) = reply else {
            match (&line.1, tcp) {
                (Req::Silent, false) => continue,
                _ => return Err(broke("no reply", line, "")),
            }
        };
        if tcp && reply.len() > TCP_FRAME {
            return Err(broke("a frame past max_frame_len", line, reply));
        }
        let v = parse(reply)?;
        let kind = text(&v, &["type"]);
        let wrong = || broke("a reply of the wrong type", line, reply);
        let version = match (&line.1, kind) {
            (Req::Explain(_) | Req::Why(..) | Req::Info, Some("reply_too_large")) if tcp => None,
            (Req::Query(_) | Req::Explain(_), Some("overloaded")) => None,
            (Req::Silent, Some("noop")) if tcp => None,
            (Req::Info, Some("stats" | "snapshot")) => None,
            (Req::Refused(want), _) if !flag(&v, &["ok"]) && kind == *want => None,
            (Req::Update(ops), Some("snapshot")) => {
                let version = uint(&v, &["version"]).unwrap_or(0);
                let groups = installed.entry(version).or_insert_with(Vec::new);
                groups.push((ops, v.clone()));
                Some(version)
            }
            (Req::Update(ops), Some("unchanged")) => {
                unchanged.push((ops, uint(&v, &["version"]).unwrap_or(u64::MAX)));
                uint(&v, &["version"])
            }
            (Req::Why(..), Some("why")) => uint(&v, &["snapshot_version"]),
            _ => Some(answered(line, &v).ok_or_else(wrong)?.0),
        };
        let first = line.0.split(' ').next();
        let id = first.and_then(|d| d.strip_prefix("@trace="));
        let echoed = text(&v, &["trace"]) == id.map(|id| format!("{id:0>16}")).as_deref();
        if id.is_some() && !echoed && matches!(kind, Some("answers" | "explain")) {
            return Err(broke("the reply does not echo its @trace= id", line, reply));
        }
        if let Some(version) = version {
            if last.insert(*t, version) > Some(version) && *t != QUIESCENT {
                return Err(broke("the thread's version went backwards", line, reply));
            }
            versioned.push((line, reply, v));
        }
    }
    // Check 1: the version chain, rebuilt from the update replies.
    let mut edb = vec![base()];
    for (version, groups) in installed {
        let [(ops, v)] = &groups[..] else {
            return Err(format!("version {version} was installed by {groups:?}"));
        };
        let before = &edb[edb.len() - 1];
        let after = applied(before, ops);
        let net = (minus(&after, before), minus(before, &after));
        let said = uint(v, &["inserted"]).zip(uint(v, &["deleted"]));
        if version != edb.len() as u64 || said != Some(net) || net == (0, 0) {
            let at = edb.len() - 1;
            return Err(format!("{ops:?} nets {net:?} on version {at}, but: {v:?}"));
        }
        if net.1 > 0 && text(v, &["maintenance"]) == Some("generic-dred") {
            seen.insert("dred");
        }
        edb.push(after);
    }
    if end + 1 != edb.len() as u64 {
        return Err(format!("the service is at version {end}, no update reply"));
    }
    for (ops, version) in unchanged {
        let db = edb.get(version as usize);
        if db.is_none_or(|db| applied(db, ops) != *db) {
            return Err(format!("{ops:?} replied unchanged at version {version}"));
        }
    }
    let mut fix = edb.clone();
    for db in &mut fix {
        naive(db, &tc().to_program(), None).unwrap();
    }
    // Check 2: every versioned reply against the model at its version.
    let mut cached_at = HashMap::new();
    for (line, reply, v) in versioned {
        if let Some((version, cache, complete, query)) = answered(line, &v) {
            let lost = || broke("no such version", line, reply);
            let fix = fix.get(version as usize).ok_or_else(lost)?;
            let want = answer_query(fix, &parse_atom(&query).unwrap()).unwrap();
            let want: BTreeSet<Vec<&str>> = want
                .iter()
                .map(|t| t.iter().map(|v| v.as_str()).collect())
                .collect();
            let flagged = !complete || flag(&v, &["truncated"]);
            let count = uint(&v, &["count"]).or(uint(&v, &["answers"]));
            let count = count.unwrap_or(u64::MAX);
            let got: Option<BTreeSet<Vec<&str>>> = match v.get("answers") {
                Some(Value::Array(rows)) => Some(rows.iter().map(strings).collect()),
                _ => None,
            };
            let n = want.len() as u64;
            let exact = got.as_ref().is_none_or(|got| *got == want) && count == n;
            let subset = got.as_ref().is_none_or(|got| got.is_subset(&want)) && count <= n;
            if !(exact || flagged && subset) || complete && count != n {
                return Err(broke(&format!("model: {want:?}"), line, reply));
            }
            if flagged {
                seen.insert("flagged");
            }
            match cache.as_str() {
                "miss" if complete => _ = cached_at.insert(query, version),
                "hit" if cached_at.get(&query).is_some_and(|&at| at < version) => {
                    seen.extend(["hit", "carried"]);
                }
                "hit" => _ = seen.insert("hit"),
                _ => {}
            }
        } else if let Req::Why(a, b) = line.1 {
            let version = uint(&v, &["snapshot_version"]).unwrap_or(u64::MAX) as usize;
            let (Some(edb), Some(fix)) = (edb.get(version), fix.get(version)) else {
                return Err(broke("no such version", line, reply));
            };
            let fact = format!("P({a}, {b})");
            let derived = fix.get("P").unwrap().contains(&tuple_u64([a, b]));
            let said = at(&v, &["derived"]).map(|d| matches!(d, Value::Bool(true)));
            let root = v.get("tree").map(|root| text(root, &["fact"]));
            let mut nodes: Vec<&Value> = v.get("tree").into_iter().collect();
            let mut wrong = said.map_or(!flag(&v, &["truncated"]), |said| said != derived);
            wrong |= text(&v, &["fact"]) != Some(&fact) || root.is_some_and(|r| r != Some(&fact));
            while let Some(node) = nodes.pop() {
                if let Some(Value::Array(children)) = node.get("children") {
                    nodes.extend(children);
                }
                if text(node, &["rule"]) == Some("edb") {
                    let (pred, tuple) = parse_ground_fact(text(node, &["fact"]).unwrap_or(""))?;
                    wrong |= !edb.get(pred).is_some_and(|rel| rel.contains(&tuple));
                }
            }
            if wrong {
                let model = format!("model: derived {derived}, edb leaves in {edb:?}");
                return Err(broke(&model, line, reply));
            }
        }
    }
    Ok(())
}

/// Plays `phases` under one service configuration, in process or over TCP,
/// and checks the run; returns what it saw.
fn run(phases: &[Phase], config: Config, tcp: bool) -> Res<Seen> {
    let (cache_capacity, max_tuples, max_concurrent) = config;
    let budget = EvalBudget {
        max_tuples,
        ..EvalBudget::unlimited()
    };
    let serve = ServeConfig {
        cache_capacity,
        budget,
        max_concurrent,
        ..ServeConfig::default()
    };
    let service = Arc::new(QueryService::new(tc(), base(), serve));
    let net = NetConfig {
        max_frame_len: TCP_FRAME,
        max_queue_wait: Duration::from_millis(1),
        tick: Duration::from_millis(2),
        drain_linger: Duration::from_millis(20),
        ..NetConfig::default()
    };
    let server = NetServer::bind(service.clone(), "127.0.0.1:0", net).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (server, at) = (tcp.then(|| server.spawn()), tcp.then_some(addr.as_str()));
    #[cfg(feature = "fault-inject")]
    let gate = recurs_engine::fault::quiesce();
    let lines = phases.iter().flat_map(|p| p.steps.concat()).collect();
    let mut log = Log {
        lines,
        replies: vec![],
    };
    let (mut seen, mut result) = (Seen::new(), Ok(()));
    for (n, p) in phases.iter().enumerate() {
        let from = log.replies.len();
        #[cfg(feature = "fault-inject")]
        arm(&gate, p.bits);
        log.replies.extend(play(&service, at, &log.lines, p));
        #[cfg(feature = "fault-inject")]
        arm(&gate, 0);
        let hostile = at.map(|addr| hostile(addr, (n + p.bits as usize) % 5));
        result = hostile.unwrap_or(Ok(vec![])).and_then(|answers| {
            for reply in answers {
                log.replies.push((QUIESCENT, log.lines.len(), Some(reply)));
                log.lines.push(query("P(1, y)"));
            }
            phase_end(&service, &mut log, from, config)
        });
        if result.is_err() {
            break;
        }
    }
    if let Some((handle, join)) = server {
        handle.drain();
        let report = join.join().unwrap().unwrap();
        if report.forced || report.remaining_connections > 0 {
            result = result.and(Err(format!("the drain was not clean: {report:?}")));
        }
    }
    let end = service.snapshot().version().get();
    result = result.and_then(|()| check(&log, tcp, end, &mut seen));
    if service.stats().cache.evictions > 0 {
        seen.insert("evicted");
    }
    result.map(|()| seen).map_err(|e| {
        let ring = service.postmortem_jsonl();
        let newest: Vec<&str> = ring.lines().rev().take(40).collect();
        let how = format!("{config:?}, {} thread(s), tcp {tcp}", phases[0].mine.len());
        let (script, newest) = (show(phases), newest.join("\n"));
        format!("{e}\n\nservice {how}\n{script}\nflight ring, newest first:\n{newest}")
    })
}

/// Plays one case under every configuration. A one-thread case must have
/// seen every layer do its work.
fn case(phases: &[(u64, usize)], steps: &[Step], threads: usize, tcp: bool) -> Res {
    let lines: Vec<_> = steps.iter().enumerate().map(lines_of).collect();
    let chunks = lines.chunks(lines.len().div_ceil(phases.len()));
    let mut first = 0;
    let mut phase = |(&(bits, cancel_at), steps): (_, &[Vec<Line>])| {
        // Each step goes to one thread, the steps dealt round-robin.
        let mut mine = vec![vec![]; threads];
        for (k, step) in steps.iter().enumerate() {
            mine[k % threads].extend(first..first + step.len());
            first += step.len();
        }
        let steps = steps.to_vec();
        Phase {
            steps,
            mine,
            bits,
            cancel_at,
        }
    };
    let phases: Vec<Phase> = phases.iter().zip(chunks).map(&mut phase).collect();
    let mut seen = Seen::new();
    for config in CONFIGS {
        seen.extend(run(&phases, config, tcp)?);
    }
    let all = ["hit", "carried", "evicted", "dred", "flagged"];
    match threads > 1 || all.iter().all(|s| seen.contains(s)) {
        true => Ok(()),
        false => Err(format!("vacuous, saw only {seen:?}\n{}", show(&phases))),
    }
}

// A one-thread case (half of them) replays exactly and must cover every
// layer; a phase's bits choose its options and its fault.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_reply_in_process_is_exact_at_its_version_or_a_flagged_subset(
        threads in prop::sample::select(vec![1, 1, 2, 4]),
        phases in prop::collection::vec((0u64..1024, 0usize..24), 5..6),
        steps in prop::collection::vec((0u8..40, 1u64..=8, 1u64..=8, 0u64..256), 100..140),
    ) {
        case(&phases, &steps, threads, false).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn every_reply_over_tcp_is_exact_at_its_version_or_a_flagged_subset(
        threads in prop::sample::select(vec![1, 1, 2, 4]),
        phases in prop::collection::vec((0u64..1024, 0usize..24), 5..6),
        steps in prop::collection::vec((0u8..40, 1u64..=8, 1u64..=8, 0u64..256), 100..140),
    ) {
        case(&phases, &steps, threads, true).map_err(TestCaseError::fail)?;
    }
}
