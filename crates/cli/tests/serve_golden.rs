//! Byte-for-byte pin of `recurs serve --stdin` replies.
//!
//! `tests/golden/serve_replies.txt` holds, per shipped dataset, a request
//! script and the replies the binary *before* the direct answers renderer
//! wrote to it: every adornment of the served predicate (each asked twice
//! over, so hits render too), a ground query, empty answers, a constant
//! quoted with `"` and `\`, updates, `why`, `!explain`, `!stats` and
//! `!snapshot`. Query trace ids are fixed with `@trace=`; every `*_us`
//! number is masked to 0 on both sides. The file is a record of the old
//! renderer's output, not of this binary's: a diff is a change to the wire
//! format, never a golden to regenerate.
//!
//! One value was edited by hand since, when the label-only `frontier`
//! maintenance path went: line 36, the TC view's patch for `-E(2, 3).`,
//! reports `"maintenance":"generic-dred"` where it said `"frontier"` (TC has
//! no rank bound, so its patch is the uncapped DRed loop).
//!
//! Six more when a ground query began to stop at its witness and the magic
//! rewrite stopped emitting its no-op rule (`m(y) :- m(y).`); only
//! `tuples_derived` and `fixpoint_iterations` moved, answers did not:
//! * TC line 16, `P(v0, 3)` (magic `vd`): one round fewer, 4 → 3 — the
//!   magic predicate is a base relation, so the exit rule runs in the
//!   seeding round;
//! * TC line 18, `P(2, 3)` (a ground frontier walk): 5 tuples in 4 rounds →
//!   3 in 2 — the run ends after the round that stores `ans__P__dd()`;
//! * TC lines 24 and 52, `!stats`: `tuples_derived` 26 → 24, those two
//!   fewer;
//! * mixed_s12 line 134, `P(2, 12, 24)`, and unbounded_s9 line 177,
//!   `P(5, 6, 2)` (ground magic queries): one round fewer each, 5 → 4 and
//!   4 → 3, the answer tuple found a round before the fixpoint.
//!
//! Seven more when rows of a predicate no rule reads stopped counting as
//! pending delta: only `fixpoint_iterations` moved, 4 → 3, in the magic
//! replies on mixed_s12 lines 122, 124, 130 and 132 (`P(2, v1, v2)`,
//! `P(v0, 12, v2)`, `P(2, v1, 24)`, `P(v0, 12, 24)`) and unbounded_s9 lines
//! 171, 173 and 175 (`P(v0, v1, 2)`, `P(5, v1, 2)`, `P(v0, 6, 2)`). Each
//! run's last round derived answer rows alone, which no rule reads, and they
//! used to keep the loop running one more round that derived nothing.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// One dataset's script: its requests and the replies on record.
struct Script {
    dataset: String,
    requests: Vec<String>,
    replies: Vec<String>,
}

fn scripts() -> Vec<Script> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_replies.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let mut scripts: Vec<Script> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(dataset) = line.strip_prefix("== ") {
            scripts.push(Script {
                dataset: dataset.to_string(),
                requests: Vec::new(),
                replies: Vec::new(),
            });
            continue;
        }
        let script = scripts.last_mut().expect("a `== dataset` line comes first");
        match line.split_at(2) {
            ("> ", request) => script.requests.push(request.to_string()),
            ("< ", reply) => script.replies.push(reply.to_string()),
            _ => panic!("unreadable golden line: {line}"),
        }
    }
    scripts
}

/// `line` with the number after every `"…_us":` key replaced by 0.
fn mask_micros(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(at + "_us\":".len());
        out.push_str(head);
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(if digits > 0 { "0" } else { "" });
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[test]
fn masking_zeroes_only_microsecond_fields() {
    assert_eq!(
        mask_micros(r#"{"eval_us":41,"answers":3,"spans":[{"dur_us":7}],"x":"a_us"}"#),
        r#"{"eval_us":0,"answers":3,"spans":[{"dur_us":0}],"x":"a_us"}"#
    );
}

#[test]
fn serve_replies_match_the_recorded_bytes() {
    let scripts = scripts();
    assert_eq!(scripts.len(), 4, "one script per shipped dataset");
    // Every difference, across every dataset, reported at once.
    let mut diffs = Vec::new();
    for script in scripts {
        assert_eq!(
            script.requests.len(),
            script.replies.len(),
            "{}",
            script.dataset
        );
        let dataset = format!(
            "{}/../../datasets/{}",
            env!("CARGO_MANIFEST_DIR"),
            script.dataset
        );
        let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
            .args(["serve", &dataset, "--stdin"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn recurs serve: {e}"));
        let mut stdin = child.stdin.take().expect("piped stdin");
        for request in &script.requests {
            writeln!(stdin, "{request}").expect("write request");
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
        let replies: Vec<&str> = stdout.lines().collect();
        if replies.len() != script.requests.len() {
            let (want, got) = (script.requests.len(), replies.len());
            diffs.push(format!(
                "{}: {got} replies to {want} requests",
                script.dataset
            ));
        }
        let pairs = script.requests.iter().zip(&script.replies).zip(replies);
        for (i, ((request, want), got)) in pairs.enumerate() {
            let got = mask_micros(got);
            if got != *want {
                diffs.push(format!(
                    "{}: request {i}, `{request}`\n  want: {want}\n   got: {got}",
                    script.dataset
                ));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "{} replies changed:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
