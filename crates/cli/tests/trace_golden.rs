//! Byte-for-byte pin of what a served session records.
//!
//! One fixed script — misses, hits, two updates (a view build, then a
//! patch that carries the cache), a `why` and an `!explain` — is sent over
//! `recurs serve --stdin --trace FILE`, and again, in process, to the
//! service the CLI builds, whose flight recorder is then dumped. The trace
//! file, the flight dump and the `!metrics` reply that ends the script (on
//! both runs: the metrics do not depend on whether a trace file is attached)
//! must equal the files in `tests/golden/` that the binary before the trace id
//! moved into the `Obs` handle wrote: every event kind, every field in its
//! order, `trace` as the last field of a traced request's events, and every
//! metric series. `seq` and every `*_us` number are masked to 0, and so is
//! each metric sample that measures time. The files are a record of that
//! binary's output: a diff is a change to what is recorded, never a golden
//! to regenerate.
//!
//! Three values were edited by hand since, when a join step that binds every
//! column of its atom became a lookup in the dedup table and the view became
//! indexed on each column:
//! - `index_builds` in line 42 of both event files, the `P(x, 6)` magic
//!   miss's `engine.complete`, went from 2 to 1: that miss's membership step
//!   binds every column, so it no longer builds an index;
//! - in `metrics.txt`, `recurs_engine_probe_hits_total` went from 37 to 28
//!   and `recurs_engine_probes_total` from 21 to 22: the view select of `a4`
//!   probes the view's first column and reads its 6 answers, where it
//!   scanned all 15 rows.
//!
//! And these, when the label-only `frontier` engine kernel and maintenance
//! path went (a whole saturation or view patch of TC, which has no rank
//! bound, is the generic loop; the `frontier` *query* lowering stays, so
//! `serve.query` and `recurs_serve_queries_total` keep their label):
//! - line 4 of both event files, the `P(1, y)` walk's `engine.start`:
//!   `kernel` `frontier` → `generic`;
//! - lines 57, 83 and 85 of both event files, the view build's
//!   `ivm.saturate`, the patch's `ivm.patch` and its `serve.update`: `path` /
//!   `result` `frontier` → `generic-dred`;
//! - in `metrics.txt`, `recurs_engine_runs_total{kernel="generic"}` went
//!   from 1 to 2 and its `kernel="frontier"` series is gone; the
//!   `recurs_ivm_patches_total`, `recurs_serve_updates_total` and
//!   `recurs_serve_update_seconds*` series are relabelled `frontier` →
//!   `generic-dred`.
//!
//! And this, when the answer cache became one LRU under one lock: in
//! `metrics.txt`, the ten `recurs_serve_cache_ops_total{op,shard}` series
//! became five `{op}` series, each the sum of its op's shards — `hit` 2,
//! `insert` 4, `invalidate` 2, `miss` 4, `patch` 1.
//!
//! And these, when each fact got one record (a histogram's `_count` and
//! `_sum` are its counters, and an installed snapshot is its `serve.update`):
//! - both event files lost their two `serve.snapshot` lines, 58 and 84,
//!   each just before an installing `serve.update` (so lines 83 and 85
//!   named above are now 82 and 83);
//! - `metrics.txt` lost eleven lines, the `# TYPE` line and the samples of
//!   five counter families that restated a histogram:
//!   `recurs_engine_iterations_total 23`, `recurs_serve_eval_us_total 0`,
//!   `recurs_serve_queue_wait_us_total 0`,
//!   `recurs_serve_snapshot_updates_total 2`, and
//!   `recurs_serve_updates_total{result="generic-dred"} 1` and
//!   `{result="saturate"} 1`.
//!
//! And these, when a saturation's per-round events went only to sinks that
//! keep detail (a trace file, a test capture) and its rounds became a
//! per-run count. The in-process service has no trace file: its sinks are
//! the aggregator and the flight ring, which keep none.
//! - `flight_events.jsonl` lost its 28 `engine.rule` and 23
//!   `engine.iteration` lines, going from 95 to 44 lines; every other line
//!   is as it was, in the same order. `trace_events.jsonl` is unedited: the
//!   trace file keeps detail, and with it the flight ring beside it.
//! - in `metrics.txt`, the 23-line `recurs_engine_iteration_seconds`
//!   histogram family (its `# TYPE` line, 20 buckets, `_sum` and
//!   `_count 23`) became `# TYPE recurs_engine_rounds_total counter` and
//!   `recurs_engine_rounds_total 23`, in its sorted place after
//!   `recurs_engine_probes_total`: the same 23 rounds, added once per run
//!   instead of observed once per round.
//!
//! And these, when the magic rewrite stopped emitting its no-op rule
//! (`magic__P__vd(y) :- magic__P__vd(y).`): the magic predicate of the
//! `P(x, 6)` miss (`a3`) is a base relation the seed fills, so its exit rule
//! runs in the seeding round, each round runs one pipeline where it ran up
//! to three, and the run takes four rounds instead of five. In
//! `trace_events.jsonl` lines 31–42 (were 31–45: the lines after them moved
//! up by three) hold its rounds, `engine.complete` and `serve.query`; in
//! `flight_events.jsonl` lines 18 and 21, its `engine.complete` (`iterations`
//! 5 → 4, `probes` 8 → 7, and `index_builds` 1 → 0 and `index_updates` 3 → 0:
//! no step probes the head `P__vd` any more, so it is not indexed) and its
//! `serve.query` (`fixpoint_iterations` 5 → 4); in `metrics.txt`,
//! `recurs_engine_probes_total` 22 → 21 and `recurs_engine_rounds_total`
//! 23 → 22.
//!
//! And these, when rows of a predicate no rule reads stopped counting as
//! pending delta: in `trace_events.jsonl`, the `P(1, y)` walk's
//! `engine.iteration` lines 11, 14 and 17 report `delta_in` 1, 2 and 2
//! where they reported 2, 4 and 4 — the rows its rules read, without the
//! `ans__P__dv` answers beside them. No round count moved, and
//! `flight_events.jsonl` (which keeps no `engine.iteration` line) and
//! `metrics.txt` are as they were.
//!
//! And these, when the maintained view became a set and an insertion
//! stopped recounting its marked heads (each has a body instantiation over
//! the new store by construction, and the count the recount kept was read
//! by nothing): `trace_events.jsonl` lost lines 66–68, the `+A(6, 7).
//! +E(6, 7).` patch's recount round between its two mark rounds and its
//! propagation (two `engine.rule` lines and one `engine.iteration`); in
//! `metrics.txt`, `recurs_engine_rounds_total` 22 → 21. The `ivm.patch`
//! event's `rounds` never counted that round and is as it was, and so is
//! `flight_events.jsonl`, which keeps no per-round line.

use recurs_cli::{build_service_cancellable, ServiceOpts};
use recurs_serve::protocol::{handle_line, LineOutcome};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The session. Every query names its trace id, so nothing is minted.
const SCRIPT: &[&str] = &[
    "@trace=a1 ?- P(1, y).",
    "@trace=a2 ?- P(1, y).",
    "@trace=a3 ?- P(x, 6).",
    "+A(6, 7). +E(6, 7).",
    "@trace=a4 ?- P(1, y).",
    "+A(7, 8). +E(7, 8).",
    "@trace=a5 ?- P(1, y).",
    "why P(1, 6).",
    "@trace=a6 !explain P(2, y).",
    "!metrics",
];

fn dataset() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../datasets/transitive_closure.dl")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// `line` with the number after `"seq":` and after every `"…_us":` key
/// replaced by 0.
fn mask_event(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = ["\"seq\":", "_us\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| at + key.len()))
            .min();
        let Some(end) = next else { break };
        let (head, tail) = rest.split_at(end);
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(if digits > 0 { "0" } else { "" });
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// Prometheus text with the value of every sample that measures time — a
/// histogram's buckets and sum, a `*_us` total — replaced by 0.
fn mask_metrics(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        let timed = name.ends_with("_bucket") || name.ends_with("_sum") || name.contains("_us");
        match line.rsplit_once(' ') {
            Some((series, _)) if timed && !line.starts_with('#') => {
                out.push_str(series);
                out.push_str(" 0");
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn mask_events(text: &str) -> String {
    text.lines().map(|l| mask_event(l) + "\n").collect()
}

/// Every line where `got` differs from the golden `name`.
fn golden_diffs(name: &str, got: &str) -> Vec<String> {
    let want = golden(name);
    let mut diffs: Vec<String> = (want.lines().zip(got.lines()).enumerate())
        .filter(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| format!("{name}: line {}\n  want: {w}\n   got: {g}", i + 1))
        .collect();
    let (w, g) = (want.lines().count(), got.lines().count());
    if w != g {
        diffs.push(format!("{name}: {g} lines, {w} on file"));
    }
    diffs
}

/// Fails once, listing every line that differs from its golden.
fn assert_goldens(checks: &[(&str, &str)]) {
    let diffs: Vec<String> = checks
        .iter()
        .flat_map(|(n, g)| golden_diffs(n, g))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} lines changed:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn masking_zeroes_sequence_numbers_and_microseconds_only() {
    assert_eq!(
        mask_event(r#"{"seq":12,"ts_us":40,"kind":"span","name":"a_us","dur_us":7,"span":3}"#),
        r#"{"seq":0,"ts_us":0,"kind":"span","name":"a_us","dur_us":0,"span":3}"#
    );
    assert_eq!(
        mask_metrics("# TYPE x_seconds histogram\nx_seconds_bucket{le=\"1\"} 4\nx_seconds_sum 0.2\nx_seconds_count 4\ny_us_total 9\nz_total{a=\"b\"} 3\n"),
        "# TYPE x_seconds histogram\nx_seconds_bucket{le=\"1\"} 0\nx_seconds_sum 0\nx_seconds_count 4\ny_us_total 0\nz_total{a=\"b\"} 3\n"
    );
}

#[test]
fn a_traced_session_records_the_events_and_metrics_on_file() {
    let dir = std::env::temp_dir().join(format!("recurs-trace-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .arg("serve")
        .arg(dataset())
        .arg("--stdin")
        .arg("--trace")
        .arg(&trace)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve: {e}"));
    let mut stdin = child.stdin.take().expect("piped stdin");
    for line in SCRIPT {
        writeln!(stdin, "{line}").expect("write request");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("replies are UTF-8");
    let metrics = stdout
        .find("# TYPE")
        .map(|at| &stdout[at..])
        .expect("the !metrics reply");
    let recorded = std::fs::read_to_string(&trace).expect("trace file");
    std::fs::remove_dir_all(&dir).ok();
    assert_goldens(&[
        ("trace_events.jsonl", &mask_events(&recorded)),
        ("metrics.txt", &mask_metrics(metrics)),
    ]);
}

#[test]
fn the_flight_recorder_retains_the_events_on_file() {
    let source = std::fs::read_to_string(dataset()).expect("dataset");
    let (service, _) =
        build_service_cancellable(&source, &ServiceOpts::default(), None).expect("service");
    let mut last = String::new();
    for line in SCRIPT {
        match handle_line(&service, line) {
            LineOutcome::Reply(reply) => last = reply,
            _ => panic!("{line}: no reply"),
        }
    }
    assert_goldens(&[
        (
            "flight_events.jsonl",
            &mask_events(&service.postmortem_jsonl()),
        ),
        ("metrics.txt", &mask_metrics(&last)),
    ]);
}
