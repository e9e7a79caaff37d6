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
//! maintenance path went: line 32, the TC view's patch for `-E(2, 3).`,
//! reports `"maintenance":"generic-dred"` where it said `"frontier"` (TC has
//! no rank bound, so its patch is the uncapped DRed loop).

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
        assert_eq!(replies.len(), script.requests.len(), "{}", script.dataset);
        for ((request, want), got) in script.requests.iter().zip(&script.replies).zip(replies) {
            assert_eq!(
                &mask_micros(got),
                want,
                "{}: the reply to `{request}` changed",
                script.dataset
            );
        }
    }
}
