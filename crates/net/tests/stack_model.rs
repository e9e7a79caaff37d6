//! One model checks the whole served stack, for every class of the paper. A
//! case draws a program from a table — the paper's s1–s12, same-generation,
//! transitive closure with a guard atom and three seeded random linear
//! recursions, each with its EDB shape — and plays a seeded script over it in
//! phases from 1–4 threads into one `QueryService`: through
//! `protocol::handle_line_with` (slice 1), and over TCP through `NetServer`,
//! one pipelined `Client` per thread, with a hostile connection after each
//! phase (slice 2). The in-process test plays the table's even rows, the TCP
//! test its odd ones. A case is played with the cache at 16 entries or off,
//! under an unbounded or a tight `max_tuples` budget. A phase may cut replies
//! short, shed, cancel mid-phase, and under `--features fault-inject` slow or
//! trip the engine's rounds.
//!
//! The script is the program's own: hot point queries, a cycle of bound
//! queries of every adornment with repeated variables beside constants
//! (two bits a position choose a constant, a free variable or the shared
//! `v`), signed update groups on every EDB relation (half of the deletes
//! name a base fact), bursts of eight facts on one relation whose patch a
//! tight budget cuts short (inserted, then taken back), `why` of
//! base-fixpoint and drawn facts, `!explain`, deadlines, directives,
//! malformed lines and hostile frames that carry the program's hot query.
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
//!    fact and each `edb` leaf a fact of that version. A `bounded(r)` reply
//!    ran no fixpoint round.
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
//! 7. A one-thread case must hit, hit across a patch, evict, patch a delete
//!    and flag a truncation, or it proves nothing. And each test must show
//!    every lowering and maintenance path in some reply: the lowerings
//!    `bounded(r)` (s5, s6, s8, s10), `frontier` (a bound source over an identity chain: s1a, s3, s7), `magic` (C–F and the
//!    other bound forms), `saturate` (the all-free form before a view) and
//!    `materialized` (every form once an update built the view); the
//!    maintenance labels `bounded-recount` (an update on a bounded program's
//!    view), `generic-dred` (the rest), `saturate` (the update that builds
//!    the view) and `cold-fallback` (a burst's patch cut short by the tight
//!    budget, or under `fault-inject` by a tripped round). Checks 2 and 5
//!    hold each of them to the model.
//!
//! The model is independent of what it checks: `naive` joins each body in
//! the oracle's own order (`datalog::eval`'s `join_order`: the delta atom,
//! then the atoms sharing a variable, else source order), not in the
//! engine's planned order, so a bug in either order cannot bend both sides.
//!
//! A failure names its case index (the stream is seeded by test name and
//! index; a one-thread case replays exactly) and prints the request, reply,
//! model answer, program, script and newest flight-ring events.
//!
//! The tests this replaces, and the checks that cover them:
//! * `serve/tests/fault_inject.rs`: both `slowed_*_under_a_deadline_is_truncated_and_never_cached`
//!   by 2 and 5 on slowed phases (`engine/tests/fault_injection.rs` keeps
//!   the `fault.injected` event).
//! * `serve/tests/cache_model.rs`: `cached_replies_follow_the_model_across_patches_and_evictions` by 2 and 7.
//! * `serve/tests/differential.rs`: `point_kernel_equals_filtered_saturation`
//!   by 2 and 5 on the random rows, with the cache on and off and across
//!   updates; `view_select_equals_filtered_saturation_for_every_adornment`
//!   by 2 on `materialized` replies of every adornment, its probe bound (a
//!   one-column select reads only its answers) moved to
//!   `serve::service::tests::a_view_select_binding_one_column_reads_only_its_answers`.
//! * `serve/tests/concurrency.rs`: `readers_and_writer_never_tear_or_serve_stale`
//!   by 2, 3 and 5, `budgeted_concurrent_replies_are_sound_underapproximations`
//!   by 2 and 5 under `max_tuples`, both on 2- and 4-thread cases whose
//!   update steps race their queries;
//!   `two_writers_leave_the_warm_cache_exact_at_the_final_version` moved
//!   to `serve/tests/cache_model.rs` under the same name: that racing
//!   writers drop no warm entry is not visible here (a dropped entry reads
//!   as a miss).
//! * `serve/tests/bounded_point.rs`:
//!   `every_adornment_and_repeated_variables_match_the_reference_executor`
//!   by 2 on s5, s6, s8 and s10; the file keeps the dispatch and
//!   iteration-cap tests, each against the saturation oracle.
//! * `tests/malformed_frames.rs`: each test by 4 and 6 on the hostile
//!   connections:
//!   `oversized_length_prefix_is_a_typed_reply_then_a_clean_close` (kind 0),
//!   `truncated_frame_then_disconnect_leaves_the_server_healthy` (kind 1),
//!   `non_utf8_payload_is_a_typed_error_and_the_connection_survives`
//!   (kind 2), `http_garbage_reads_as_an_absurd_length_and_is_rejected`
//!   (kind 3), `garbage_after_a_valid_frame_is_contained_to_that_connection`
//!   (kind 4), `a_burst_of_malformed_connections_does_not_exhaust_the_server`
//!   (kind 5); `malformed_trace_directives_are_typed_errors_and_never_hang`
//!   by 4 on the script's malformed directives and zero-padded `@trace=`
//!   echoes, and kind 6 for an id that is not UTF-8;
//!   `empty_frame_gets_exactly_one_reply_and_no_hang` by 4 on the script's
//!   blank frames.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, naive};
use recurs_datalog::govern::{CancelToken, EvalBudget};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_net::frame::{read_frame, write_frame, FrameError};
use recurs_net::{Client, NetConfig, NetServer};
use recurs_obs::jsonl;
use recurs_serve::protocol::{handle_line, handle_line_with, parse_ground_fact};
use recurs_serve::protocol::{LineOptions, LineOutcome};
use recurs_serve::{QueryService, ServeConfig};
use recurs_workload::{random_database, random_linear_recursion, RuleConfig};
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
/// Cases per test, one a program of its half of the table.
const CASES: u32 = 9;

/// Where a program comes from: the paper's text, or a seeded
/// `workload::random_linear_recursion`.
enum Source {
    Text(&'static str),
    Seed(u64),
}

/// The programs: the paper's s1–s12 (as in `tests/paper_examples.rs`), SG,
/// transitive closure with a guard (`G(w, w)` is a trivial component, so the
/// frontier step carries it, and it holds only while `G` has a loop) and a
/// seeded random linear recursion, each with the generic exit `P :- E` and
/// its EDB shape: facts per relation, over the domain 1–8. The in-process
/// test plays the even rows, the TCP test the odd ones.
#[rustfmt::skip]
const TABLE: [(&str, Source, usize); 18] = [
    ("s1a", Source::Text("P(x, y) :- A(x, z), P(z, y)."), 3),
    ("s5", Source::Text("P(x, y, z) :- P(y, z, x)."), 3),
    ("s2a", Source::Text("P(x, y) :- A(x, z), P(z, u), B(u, y)."), 6),
    ("s1a, guarded", Source::Text("P(x, y) :- A(x, z), G(w, w), P(z, y)."), 6),
    ("s6", Source::Text("P(x, y, z, u, v, w) :- P(z, y, u, x, w, v)."), 8),
    ("s8", Source::Text("P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1)."), 8),
    ("s10", Source::Text("P(x, y) :- B(y), C(x, y1), P(x1, y1)."), 4),
    ("sg", Source::Text("P(x, y) :- Up(x, u), P(u, v), Down(v, y)."), 6),
    ("s4", Source::Text("P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3)."), 6),
    ("s7", Source::Text("P(x, y, z, u, w, s, v) :- A(x, t), P(t, z, y, w, s, r, v), B(u, r)."), 4),
    ("s9", Source::Text("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v)."), 6),
    ("s1b", Source::Text("P(x, y, z) :- A(x, y), P(u, z, v), B(u, v)."), 6),
    ("s11", Source::Text("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1)."), 6),
    ("s3", Source::Text("P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z)."), 8),
    ("s12", Source::Text("P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w)."), 6),
    ("random 41", Source::Seed(41), 6),
    ("random 42", Source::Seed(42), 6),
    ("random 45", Source::Seed(45), 10),
];

/// The lowerings and maintenance paths some reply of each test must show
/// (check 7); `bounded` stands for every `bounded(r)`.
const LOWERINGS: [&str; 5] = ["bounded", "frontier", "magic", "saturate", "materialized"];
#[rustfmt::skip]
const MAINTENANCE: [&str; 4] = ["bounded-recount", "generic-dred", "saturate", "cold-fallback"];

/// A step of the script: a kind, two constants, and bits for the rest.
type Step = (u8, u64, u64, u64);
/// One signed fact of an update group: insert?, relation, tuple.
type Op = (bool, Symbol, Vec<u64>);
/// A request line, and what it asks of the model.
type Line = (String, Req);
/// Thread, line, and its reply (`None` for silence on stdin).
type Entry = (usize, usize, Option<String>);
type Res<T = ()> = Result<T, String>;
/// What a run showed the checks had something to check.
type Seen = BTreeSet<String>;

#[derive(Debug, Clone)]
enum Req {
    Query(String),
    Explain(String),
    Why(Vec<u64>),
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

/// A program of the table, built: its recursion, its base EDB, each EDB
/// relation with its base facts, and its base fixpoint's facts of `P`.
struct Program {
    name: &'static str,
    lr: LinearRecursion,
    base: Database,
    edb: Vec<(Symbol, usize, Vec<Vec<u64>>)>,
    derived: Vec<Vec<u64>>,
}

fn numbers(rel: &Relation) -> Vec<Vec<u64>> {
    let number = |v: &recurs_datalog::Value| v.as_str().parse().unwrap_or(0);
    rel.iter_sorted()
        .into_iter()
        .map(|t| t.iter().map(number).collect())
        .collect()
}

impl Program {
    fn new(k: usize) -> Program {
        let (name, source, facts) = &TABLE[k];
        let lr = match source {
            Source::Text(rule) => {
                validate_with_generic_exit(&parse_program(rule).unwrap()).unwrap()
            }
            Source::Seed(seed) => random_linear_recursion(*seed, RuleConfig::default()),
        };
        let base = random_database(&lr, *facts, 8, k as u64);
        let edb = base
            .iter()
            .map(|(r, rel)| (r, rel.arity(), numbers(rel)))
            .collect();
        let mut fix = base.clone();
        naive(&mut fix, &lr.to_program(), None).unwrap();
        let derived = numbers(fix.get(lr.predicate).unwrap());
        Program {
            name,
            lr,
            base,
            edb,
            derived,
        }
    }

    /// `P(..)` over `terms`.
    fn atom(&self, terms: impl Iterator<Item = String>) -> String {
        format!(
            "{}({})",
            self.lr.predicate,
            terms.collect::<Vec<_>>().join(", ")
        )
    }

    /// A query: two bits a position choose the constant `a` or `b`, a free
    /// variable of its own, or `v`, which every position so marked repeats —
    /// every adornment, and repeated variables beside constants.
    fn pattern(&self, bits: u64, a: u64, b: u64) -> String {
        let term = |i: usize| match bits >> (2 * i) & 3 {
            0 => a.to_string(),
            1 => b.to_string(),
            2 => format!("x{i}"),
            _ => "v".to_string(),
        };
        self.atom((0..self.lr.dimension()).map(term))
    }

    /// Position `at` bound to `c`, the others free.
    fn bound_at(&self, at: usize, c: u64) -> String {
        self.pattern(!(3 << (2 * at)) & 0xAAAA_AAAA_AAAA_AAAA, c, c)
    }

    /// The three hot queries.
    fn hot(&self, k: u64) -> String {
        let last = self.lr.dimension() - 1;
        let (at, c) = [(0, 1), (last, 4), (0, 5)][k as usize % 3];
        self.bound_at(at, c)
    }

    /// A fact of `arity` over 1–8, drawn from `seed`.
    fn tuple(arity: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % 8 + 1
        };
        (0..arity).map(|_| next()).collect()
    }

    /// One signed fact of an EDB relation: a base fact when bit 2 is set, so
    /// deletes find something to delete, else a drawn one.
    fn op(&self, bits: u64, seed: u64) -> Op {
        let (rel, arity, facts) = &self.edb[(bits >> 1) as usize % self.edb.len()];
        let tuple = match facts.len() {
            n if n > 0 && bits & 4 != 0 => facts[seed as usize % n].clone(),
            _ => Program::tuple(*arity, seed),
        };
        (bits & 1 == 0, *rel, tuple)
    }

    /// A `why` fact: one of the base fixpoint's when bit 0 is set, else a
    /// drawn one.
    fn why_fact(&self, bits: u64, seed: u64) -> Vec<u64> {
        match self.derived.len() {
            n if n > 0 && bits & 1 != 0 => self.derived[seed as usize % n].clone(),
            _ => Program::tuple(self.lr.dimension(), seed),
        }
    }

    fn fact_text(&self, tuple: &[u64]) -> String {
        self.atom(tuple.iter().map(u64::to_string))
    }
}

fn query(text: &str) -> Line {
    (format!("?- {text}."), Req::Query(text.to_string()))
}

/// The lines of step `n` of a script over `program`. Most follow the serve
/// workloads: hot point queries, a cycle of bound queries wider than the
/// cache, and updates each followed by hot and uncached queries. The rest
/// cover every other form of the grammar.
fn lines_of(program: &Program, (n, &(kind, a, b, bits)): (usize, &Step)) -> Vec<Line> {
    let seed = a << 40 ^ b << 32 ^ bits;
    let hot = || query(&program.hot(bits));
    let bound = program.pattern(bits >> 8, a, b);
    let line = |text: &str, req| (text.to_string(), req);
    let traced = |(text, req): Line| (format!("@trace={n:x} {text}"), req);
    let update = |ops: Vec<Op>| {
        let sign = |ins| if ins { '+' } else { '-' };
        let fact = |(i, r, t): &Op| format!("{}{r}({})", sign(*i), join(t));
        let facts: Vec<_> = ops.iter().map(fact).collect();
        (facts.join(" ") + ".", Req::Update(ops))
    };
    let fact = program.why_fact(bits, seed);
    let why = || {
        (
            format!("why {}.", program.fact_text(&fact)),
            Req::Why(fact.clone()),
        )
    };
    let explain = |q: &str| (format!("!explain {q}"), Req::Explain(q.into()));
    let due = |ms, (text, req): Line| (format!("@deadline={ms} {text}"), req);
    let free = program.pattern(0xAAAA_AAAA_AAAA_AAAA, a, b);
    let same = program.pattern(!0, a, b);
    match kind {
        0..=9 if bits % 4 == 0 => vec![traced(hot())],
        0..=9 => vec![hot()],
        10..=15 => vec![
            traced(query(&bound)),
            query(&program.bound_at(program.lr.dimension() - 1, a)),
        ],
        16 => vec![query(&free)],
        17 => vec![line(&same, Req::Query(same.clone()))],
        18..=22 => {
            let mut ops = vec![program.op(bits, seed)];
            match kind {
                20 => ops.push(program.op(bits >> 3, seed + 1)),
                21 => ops.extend([
                    program.op(bits >> 3, seed + 1),
                    program.op(bits >> 6, seed + 2),
                ]),
                22 => ops.push((!ops[0].0, ops[0].1, ops[0].2.clone())), // a cancelling pair
                _ => {}
            }
            vec![update(ops)]
        }
        23 | 24 => {
            let (_, rel, tuple) = program.op(bits, seed);
            let fact = |ins| update(vec![(ins, rel, tuple.clone())]);
            vec![
                fact(true),
                hot(),
                query(&bound),
                fact(false),
                hot(),
                query(&bound),
            ]
        }
        25 | 26 => vec![explain(if bits & 3 == 0 { &same } else { &bound })],
        27 | 28 => vec![why()],
        29 => vec![match bits % 4 {
            0 => line(
                &format!("@deadline=0 {}", hot().0),
                Req::Refused(Some("deadline")),
            ),
            1 => traced(due(1, query(&free))),
            2 => due(2, why()),
            _ => traced(due(3, explain(&free))),
        }],
        30 => vec![line(["!stats", "!snapshot"][bits as usize % 2], Req::Info)],
        // A burst: eight facts of one relation whose first two columns
        // walk a cycle through the domain, so the patch outgrows a tight
        // budget and the view falls back cold; then taken back.
        32 if bits % 2 == 0 => {
            let (rel, arity, _) = &program.edb[(bits >> 1) as usize % program.edb.len()];
            let cycle = |i| [i + 1, (i + 1) % 8 + 1].into_iter();
            let op = |ins, i| {
                let tuple = cycle(i).chain(Program::tuple(*arity, seed + i));
                (ins, *rel, tuple.take(*arity).collect())
            };
            let burst = |ins| update((0..8).map(|i| op(ins, i)).collect());
            vec![burst(true), hot(), burst(false)]
        }
        31 => vec![line(["", "% a", "# b"][bits as usize % 3], Req::Silent)],
        _ => {
            let ask = hot().0;
            let (rel, arity, _) = &program.edb[bits as usize % program.edb.len()];
            let variable = format!("+{rel}(x{}).", ", 1".repeat(arity - 1));
            let derived = format!("+{}.", program.fact_text(&fact));
            let (text, kind) = [
                (format!("@trace=xyz {ask}"), Some("protocol")),
                (format!("@trace=ff @trace=ff {ask}"), Some("protocol")),
                (format!("@deadline=oops {ask}"), Some("protocol")),
                ("@deadline=5".to_string(), Some("protocol")),
                (format!("@bogus {ask}"), Some("protocol")),
                (format!("@trace=00112233445566778 {ask}"), Some("protocol")),
                (format!("@trace= {ask}"), Some("protocol")),
                (format!("@deadline=100 @trace=xyz {ask}"), Some("protocol")),
                (variable, None),
                ("!frobnicate".to_string(), None),
                (derived, None),
                ("-ans__P__dv(1).".to_string(), None),
            ][(bits >> 4) as usize % 12]
                .clone();
            vec![line(&text, Req::Refused(kind))]
        }
    }
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
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
        ..Default::default()
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

/// Hostile connections of `kind` for the query line `ask`: the bytes each
/// connection sends, then what the server answers on the last one, up to
/// closing it. Kind 0 claims `TCP_FRAME + 1` bytes, 1 vanishes mid-frame,
/// 2 sends a non-UTF-8 frame, 3 HTTP, 4 garbage after a frame, 5 is a burst
/// of ten connections dropped mid-frame unread, and 6 a `@trace=` id that is
/// not UTF-8.
fn hostile_bytes(kind: usize, ask: &str) -> (Vec<Vec<u8>>, &'static [&'static str]) {
    let frame = |payload: &[u8]| [&(payload.len() as u32).to_be_bytes()[..], payload].concat();
    match kind {
        0 => (
            vec![(TCP_FRAME as u32 + 1).to_be_bytes().to_vec()],
            &["protocol", "closed"],
        ),
        1 => (
            vec![[&100u32.to_be_bytes()[..], &ask.as_bytes()[..8]].concat()],
            &[],
        ),
        2 => (
            vec![[frame(b"\xff\xfe"), frame(ask.as_bytes())].concat()],
            &["protocol", "answers"],
        ),
        3 => (
            vec![b"GET / HTTP/1.1\r\n\r\n".to_vec()],
            &["protocol", "closed"],
        ),
        4 => {
            let bytes = [frame(ask.as_bytes()), b"\xde\xad\xbe\xef".to_vec()].concat();
            (vec![bytes], &["answers", "protocol", "closed"])
        }
        5 => {
            let torn = [
                u32::MAX.to_be_bytes().to_vec(),
                [&8u32.to_be_bytes()[..], b"ab"].concat(),
                frame(b"\x80\x81"),
            ];
            (torn.into_iter().cycle().take(10).collect(), &[])
        }
        _ => {
            let traced = frame(&[b"@trace=\xc3\x28 ", ask.as_bytes()].concat());
            (
                vec![[traced, frame(ask.as_bytes())].concat()],
                &["protocol", "answers"],
            )
        }
    }
}

/// Plays hostile connections of `kind`, then asks `ask` on a fresh one.
/// Returns the answers replies, for the model.
fn hostile(addr: &str, kind: usize, ask: &str) -> Res<Vec<String>> {
    let (mut connections, wants) = hostile_bytes(kind, ask);
    let bytes = connections.pop().unwrap();
    for dropped in connections {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&dropped).unwrap();
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    let wait = Some(Duration::from_secs(10));
    stream.set_read_timeout(wait).unwrap();
    stream.write_all(&bytes).unwrap();
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
    let reply = probe.roundtrip(ask);
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
    for (ins, rel, tuple) in ops {
        let tuple = tuple_u64(tuple.iter().copied());
        match ins {
            true => db.insert(*rel, tuple).unwrap(),
            false => db.remove(*rel, &tuple).unwrap(),
        };
    }
    db
}

/// How many facts `a` holds that `b` does not.
fn minus(a: &Database, b: &Database) -> u64 {
    let rels = a
        .iter()
        .map(|(r, rel)| rel.difference(b.get(r).unwrap()).len() as u64);
    rels.sum()
}

/// A reply's lowering, with every `bounded(r)` as `bounded`.
fn lowering(label: &str) -> String {
    let bounded = label.starts_with("bounded(");
    if bounded { "bounded" } else { label }.to_string()
}

fn broke(what: &str, line: &Line, reply: &str) -> String {
    format!("{what}\nrequest: {}\nreply: {reply}", line.0)
}

/// Holds the log to the model (checks 1–4), given the version the service
/// ended at, and notes what it saw.
fn check(program: &Program, log: &Log, tcp: bool, end: u64, seen: &mut Seen) -> Res {
    let Log { lines, replies } = log;
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
        // Quiescent asks are answered in process, whole (the hostile
        // connections' replies logged with them came through the server).
        if tcp && *t != QUIESCENT && reply.len() > TCP_FRAME {
            return Err(broke("a frame past max_frame_len", line, reply));
        }
        let v = parse(reply)?;
        let kind = text(&v, &["type"]);
        let wrong = || broke("a reply of the wrong type", line, reply);
        let version = match (&line.1, kind) {
            (Req::Explain(_) | Req::Why(..) | Req::Info, Some("reply_too_large")) if tcp => None,
            (Req::Query(_) | Req::Explain(_) | Req::Why(..), Some("overloaded")) => None,
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
    let mut edb = vec![program.base.clone()];
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
        let path = text(v, &["maintenance"]).unwrap_or("none");
        if net.1 > 0 && matches!(path, "generic-dred" | "bounded-recount") {
            seen.insert("patched delete".into());
        }
        seen.insert(path.into());
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
        naive(db, &program.lr.to_program(), None).unwrap();
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
            // A bounded unrolling runs no fixpoint loop.
            let kernel = text(&v, &["stats", "kernel"]).or(text(&v, &["kernel", "choice"]));
            let kernel = lowering(kernel.unwrap_or(""));
            if kernel == "bounded" && uint(&v, &["stats", "fixpoint_iterations"]).unwrap_or(0) > 0 {
                return Err(broke("a bounded unrolling ran rounds", line, reply));
            }
            if flagged {
                seen.insert("flagged".into());
            }
            seen.insert(kernel);
            match cache.as_str() {
                "miss" if complete => _ = cached_at.insert(query, version),
                "hit" if cached_at.get(&query).is_some_and(|&at| at < version) => {
                    seen.extend(["hit".into(), "carried".into()]);
                }
                "hit" => _ = seen.insert("hit".into()),
                _ => {}
            }
        } else if let Req::Why(fact) = &line.1 {
            let version = uint(&v, &["snapshot_version"]).unwrap_or(u64::MAX) as usize;
            let (Some(edb), Some(fix)) = (edb.get(version), fix.get(version)) else {
                return Err(broke("no such version", line, reply));
            };
            let derived = fix.get(program.lr.predicate).unwrap();
            let derived = derived.contains(&tuple_u64(fact.iter().copied()));
            let fact = program.fact_text(fact);
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
fn run(program: &Program, phases: &[Phase], config: Config, tcp: bool) -> Res<Seen> {
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
    let service = QueryService::new(program.lr.clone(), program.base.clone(), serve);
    let service = Arc::new(service);
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
        let ask = query(&program.hot(0));
        let hostile = at.map(|addr| hostile(addr, (n + p.bits as usize) % 7, &ask.0));
        result = hostile.unwrap_or(Ok(vec![])).and_then(|answers| {
            for reply in answers {
                log.replies.push((QUIESCENT, log.lines.len(), Some(reply)));
                log.lines.push(ask.clone());
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
    result = result.and_then(|()| check(program, &log, tcp, end, &mut seen));
    if service.stats().cache.evictions > 0 {
        seen.insert("evicted".into());
    }
    result.map(|()| seen).map_err(|e| {
        let ring = service.postmortem_jsonl();
        let newest: Vec<&str> = ring.lines().rev().take(40).collect();
        let threads = phases[0].mine.len();
        let how = format!(
            "{config:?}, {threads} thread(s), tcp {tcp}, program {}",
            program.name
        );
        let (script, newest) = (show(phases), newest.join("\n"));
        format!("{e}\n\nservice {how}\n{script}\nflight ring, newest first:\n{newest}")
    })
}

/// Plays one case of `program` under every configuration. A
/// one-thread case must have seen every layer do its work.
fn case(program: &Program, case: Case, tcp: bool) -> Res<Seen> {
    let (threads, phases, steps) = case;
    let lines: Vec<_> = steps
        .iter()
        .enumerate()
        .map(|s| lines_of(program, s))
        .collect();
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
        seen.extend(run(program, &phases, config, tcp)?);
    }
    let all = ["hit", "carried", "evicted", "patched delete", "flagged"];
    match threads > 1 || all.iter().all(|&s| seen.contains(s)) {
        true => Ok(seen),
        false => Err(format!("vacuous, saw only {seen:?}\n{}", show(&phases))),
    }
}

/// A case: threads, each phase's bits and cancel point, and the steps.
type Case = (usize, Vec<(u64, usize)>, Vec<Step>);

/// Plays half the programs of the table, one a case, then asks that its
/// replies showed every lowering and every maintenance path (check 7). A
/// one-thread case (half of them) replays exactly; a phase's bits choose its
/// options and its fault.
fn model(name: &str, tcp: bool) {
    let mut seen = Seen::new();
    let mut k = 0;
    TestRunner::new(ProptestConfig::with_cases(CASES)).run_cases(name, |rng| {
        let program = Program::new(2 * k + usize::from(tcp));
        k += 1;
        let threads = prop::sample::select(vec![1, 1, 2, 4]).generate(rng);
        let phases = prop::collection::vec((0u64..1024, 0usize..24), 5..6).generate(rng);
        let step = (0u8..40, 1u64..=8, 1u64..=8, 0u64..1 << 32);
        let steps = prop::collection::vec(step, 80..110).generate(rng);
        let case = case(&program, (threads, phases, steps), tcp);
        seen.extend(case.map_err(TestCaseError::fail)?);
        Ok(())
    });
    let missing = LOWERINGS.iter().chain(&MAINTENANCE);
    let missing: Vec<_> = missing.filter(|&&w| !seen.contains(w)).collect();
    assert!(
        missing.is_empty(),
        "no reply showed {missing:?}; saw {seen:?}"
    );
}

#[test]
fn every_reply_in_process_is_exact_at_its_version_or_a_flagged_subset() {
    model(
        "every_reply_in_process_is_exact_at_its_version_or_a_flagged_subset",
        false,
    );
}

#[test]
fn every_reply_over_tcp_is_exact_at_its_version_or_a_flagged_subset() {
    model(
        "every_reply_over_tcp_is_exact_at_its_version_or_a_flagged_subset",
        true,
    );
}
