//! Malformed-input corpus: every string here is something a user could feed
//! the parser or the CLI, and every one must come back as a typed error —
//! never a panic, never a silent success. This pins the unwrap/expect sweep
//! of the library paths (`recurs_datalog::parser`, `recurs_cli`).

use recurs_cli::{parse_args, run_on_source, Command};
use recurs_datalog::parser::{parse, parse_program, parse_rule};

/// Source texts that must fail to parse, with a fragment the error message
/// must mention (so diagnostics stay useful, not just non-crashing).
const BAD_SYNTAX: &[&str] = &[
    "P(x",                          // unterminated atom
    "P(x y) :-",                    // missing comma, dangling arrow
    "P(x, y) :- A(x, z), P(z, y)",  // missing final period
    "P(x, y) :- A(x, z) P(z, y).",  // missing comma between atoms
    "P(x, y) :- .",                 // empty body
    "P() :- A(x).",                 // zero-arity head syntax
    ":- A(x, y).",                  // headless rule
    "P(x, y) :- A(x, @), P(x, y).", // illegal character in a term
    "P(x, y] :- A(x, z).",          // mismatched bracket
    "?-",                           // bare query marker
    "P(x, y) :- A(x, z), P(z, y). trailing garbage",
];

#[test]
fn parser_rejects_bad_syntax_without_panicking() {
    for src in BAD_SYNTAX {
        assert!(
            parse(src).is_err(),
            "parse accepted malformed input: {src:?}"
        );
        assert!(
            parse_program(src).is_err(),
            "parse_program accepted malformed input: {src:?}"
        );
    }
}

#[test]
fn parse_rule_rejects_non_rules() {
    for src in ["", "?- P(1, y).", "P(x", "% only a comment"] {
        assert!(
            parse_rule(src).is_err(),
            "parse_rule accepted non-rule input: {src:?}"
        );
    }
}

#[test]
fn parser_errors_name_the_problem() {
    let err = parse("P(x, y) :- A(x, z), P(z, y)")
        .unwrap_err()
        .to_string();
    assert!(!err.is_empty());
    let err = parse("P(x, y] :- A(x, z).").unwrap_err().to_string();
    assert!(!err.is_empty());
}

/// Structurally invalid programs: syntactically fine, semantically rejected
/// by validation with a typed error (reported through the CLI as a string).
const BAD_PROGRAMS: &[(&str, &str)] = &[
    ("A(1, 2).\n?- A(1, y).", "invalid program"), // no recursive rule
    (
        "P(x, y) :- P(x, z), P(z, y).\nP(x, y) :- E(x, y).\n?- P(1, y).",
        "invalid program", // non-linear
    ),
    (
        "P(x, y) :- A(x, '3'), P(x, y).\nP(x, y) :- E(x, y).\n?- P(1, y).",
        "invalid program", // constant in the recursive rule
    ),
    (
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1).\n?- P(1, y).",
        "arity", // fact arity clashes with the rule's use of A
    ),
    ("", "invalid program"), // empty file: no recursive rule
    ("% only a comment", "invalid program"),
    (
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1, 2).",
        "no ?- queries", // run needs a query
    ),
    (
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1, 2).\n?- Q(1, y).",
        "query predicate Q is not served", // a query over a foreign predicate
    ),
    (
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1, 2).\n?- P(1, y, z).",
        "arity 3", // a query at the wrong arity
    ),
];

#[test]
fn cli_run_reports_typed_errors_for_bad_programs() {
    for (src, expect) in BAD_PROGRAMS {
        let err = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: false,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: recurs_ivm::DEFAULT_WHY_DEPTH,
            },
            src,
        )
        .unwrap_err();
        assert!(
            err.contains(expect),
            "source {src:?}: expected error mentioning {expect:?}, got {err:?}"
        );
    }
}

#[test]
fn cli_arg_parsing_rejects_malformed_flags() {
    let cases: &[&[&str]] = &[
        &["run"],                                    // missing file
        &["run", "f.dl", "--engine"],                // missing value
        &["run", "f.dl", "--engine", "quantum"],     // unknown engine
        &["run", "f.dl", "--engine", "parallel"],    // removed engine
        &["run", "f.dl", "--threads", "2"],          // removed flag
        &["run", "f.dl", "--timeout-ms", "-5"],      // negative
        &["run", "f.dl", "--max-tuples", "many"],    // non-numeric
        &["run", "f.dl", "--max-iterations", "3.5"], // non-integral
        &["run", "f.dl", "--stats-json"],            // engine statistics without engine
        &["plan", "f.dl", "--form"],                 // missing pattern
        &["figure", "f.dl", "--levels", "0"],        // zero levels
        &["warp", "f.dl"],                           // unknown command
    ];
    for case in cases {
        let argv: Vec<String> = case.iter().map(|s| s.to_string()).collect();
        assert!(
            parse_args(&argv).is_err(),
            "parse_args accepted malformed argv: {case:?}"
        );
    }
}

#[test]
fn cli_plan_rejects_malformed_forms_as_errors() {
    let tc = "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).";
    for form in ["dxv", "12", "d v", "öv"] {
        let err = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec![form.into()],
            },
            tc,
        )
        .unwrap_err();
        assert!(
            err.contains("invalid query-form character"),
            "form {form:?}: {err}"
        );
    }
}
