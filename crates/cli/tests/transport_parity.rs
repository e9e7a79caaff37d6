//! `serve --stdin` and `serve --listen` speak one request grammar: the same
//! request lines, directives included, get the same reply text over both
//! transports. Each table row is sent to a spawned `recurs serve --stdin`
//! and, framed, to a spawned `recurs serve --listen`; every `*_us` number
//! is masked on both sides, and so is the trace id a request without
//! `@trace=` is minted.

use std::io::{BufRead as _, Write as _};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The requests, in order (updates change what later rows see), and what
/// each reply must say on both transports.
const TABLE: &[(&str, &str)] = &[
    ("@deadline=60000 ?- P(1, y).", r#""type":"answers""#),
    (
        "@trace=c0ffee @deadline=60000 ?- P(2, y).",
        r#""trace":"0000000000c0ffee""#,
    ),
    (
        "@deadline=60000 @trace=c0ffee ?- P(2, y).",
        r#""cache":"hit""#,
    ),
    (
        "@trace=feed @deadline=5000 !explain P(1, y)",
        r#""timeout_ms":5000"#,
    ),
    ("@deadline=5000 why P(1, 6).", r#""derived":true"#),
    ("@deadline=5000 +A(6, 7) +E(6, 7).", r#""version":1"#),
    ("@deadline=0 ?- P(1, y).", r#""type":"deadline""#),
    ("@deadline=0 !snapshot", r#""type":"deadline""#),
    (
        "@deadline=1 @deadline=2 ?- P(1, y).",
        "duplicate @deadline directive",
    ),
    (
        "@trace=1 @trace=2 ?- P(1, y).",
        "duplicate @trace directive",
    ),
    ("@speed=fast ?- P(1, y).", "unknown directive: @speed=fast"),
    ("@deadline=soon ?- P(1, y).", "bad deadline directive"),
    ("@trace=xyz ?- P(1, y).", "bad @trace directive"),
    ("@deadline=250", "empty request after @deadline directive"),
    ("@trace=beef", "empty request after @trace directive"),
    ("@deadline=60000 ?- P(1, y).", r#""count":6"#),
];

fn dataset() -> String {
    format!(
        "{}/../../datasets/transitive_closure.dl",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `reply` with the number after every `"…_us":` key replaced by 0, and —
/// when `request` names no trace id — the minted `"trace"` value by `-`.
fn masked(request: &str, reply: &str) -> String {
    let mut out = String::with_capacity(reply.len());
    let mut rest = reply;
    while let Some(at) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(at + "_us\":".len());
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(if digits > 0 { "0" } else { "" });
        rest = &tail[digits..];
    }
    out.push_str(rest);
    if request.contains("@trace=") {
        return out;
    }
    match out.find("\"trace\":\"") {
        Some(at) => {
            let start = at + "\"trace\":\"".len();
            let end = start + out[start..].find('"').unwrap_or(0);
            out.replace_range(start..end, "-");
            out
        }
        None => out,
    }
}

fn stdin_replies() -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(["serve", &dataset(), "--stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve --stdin: {e}"));
    let mut stdin = child.stdin.take().expect("piped stdin");
    for (request, _) in TABLE {
        writeln!(stdin, "{request}").expect("write request");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("replies are UTF-8");
    text.lines().map(str::to_string).collect()
}

fn tcp_replies() -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(["serve", &dataset(), "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve --listen: {e}"));
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("announce line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad announce line: {line:?}"));
    let mut client = recurs_net::Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let replies = TABLE
        .iter()
        .map(|(request, _)| client.roundtrip(request).expect("a framed reply"))
        .collect();
    drop(client);
    let _ = child.kill();
    let _ = child.wait();
    replies
}

#[test]
fn every_request_gets_the_same_reply_over_stdin_and_tcp() {
    let stdin = stdin_replies();
    let tcp = tcp_replies();
    assert_eq!(stdin.len(), TABLE.len(), "one stdin reply per request");
    for (((request, want), over_stdin), over_tcp) in TABLE.iter().zip(&stdin).zip(&tcp) {
        let (over_stdin, over_tcp) = (masked(request, over_stdin), masked(request, over_tcp));
        assert_eq!(
            over_stdin, over_tcp,
            "`{request}` differs between transports"
        );
        assert!(over_stdin.contains(want), "`{request}` got {over_stdin}");
    }
}

#[test]
fn masking_hides_only_micros_and_minted_trace_ids() {
    let reply = r#"{"eval_us":41,"trace":"00000000000000ff","x_us":"a"}"#;
    assert_eq!(
        masked("?- P(1, y).", reply),
        r#"{"eval_us":0,"trace":"-","x_us":"a"}"#
    );
    assert_eq!(
        masked("@trace=ff ?- P(1, y).", reply),
        r#"{"eval_us":0,"trace":"00000000000000ff","x_us":"a"}"#
    );
}
