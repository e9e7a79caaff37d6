//! Integration tests driving the CLI commands over the shipped `datasets/`
//! files — the same flows a user runs from the shell.

use recurs_cli::{execute, run_on_source, Command};

fn dataset(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../datasets");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("cannot read dataset {name}: {e}"))
}

fn run_cmd(check: bool, engine: bool) -> Command {
    capped_run_cmd(check, engine, None)
}

fn capped_run_cmd(check: bool, engine: bool, max_iterations: Option<usize>) -> Command {
    Command::Run {
        file: String::new(),
        check,
        engine,
        opts: recurs_cli::ServiceOpts {
            max_iterations,
            ..recurs_cli::ServiceOpts::default()
        },
        stats_json: false,
        metrics: false,
        why: None,
        why_depth: recurs_ivm::DEFAULT_WHY_DEPTH,
    }
}

#[test]
fn transitive_closure_dataset_runs_checked() {
    let src = dataset("transitive_closure.dl");
    let out = run_on_source(&run_cmd(true, false), &src).unwrap();
    assert!(out.contains("[plan kernel:frontier "), "{out}");
    assert!(out.contains("yes"), "{out}");
    assert!(out.contains("no"), "{out}");
    assert!(!out.contains("DISAGREES"), "{out}");
}

#[test]
fn transitive_closure_dataset_classifies() {
    let src = dataset("transitive_closure.dl");
    let out = run_on_source(
        &Command::Classify {
            file: String::new(),
        },
        &src,
    )
    .unwrap();
    assert!(out.contains("strongly stable       : true"), "{out}");
}

#[test]
fn bounded_dataset_uses_bounded_strategy() {
    let src = dataset("bounded_s8.dl");
    let out = run_on_source(&run_cmd(true, false), &src).unwrap();
    assert!(out.contains("[plan kernel:bounded(2) "), "{out}");
    assert!(!out.contains("DISAGREES"), "{out}");
}

#[test]
fn mixed_dataset_uses_magic_strategy() {
    let src = dataset("mixed_s12.dl");
    let out = run_on_source(&run_cmd(true, false), &src).unwrap();
    assert!(out.contains("[plan kernel:magic "), "{out}");
    assert!(!out.contains("DISAGREES"), "{out}");
}

/// On every dataset `--engine indexed --check` agrees with the fixpoint
/// oracle and prints the plan-driven run's answer lines — also for queries
/// the files do not ship: a repeated variable and a constant absent from the
/// data, where the store's `select` and the oracle's `answer_query` must
/// project alike. Capped at two rounds, every dataset truncates to a subset.
#[test]
fn every_engine_agrees_on_every_dataset() {
    for (name, extra) in [
        ("transitive_closure.dl", "?- P(x, x).\n?- P(777, y).\n"),
        ("bounded_s8.dl", "?- P(x, y, x, u).\n?- P(x, 777, z, u).\n"),
        ("mixed_s12.dl", "?- P(x, y, y).\n?- P(777, y, z).\n"),
        ("unbounded_s9.dl", "?- P(x, y, y).\n?- P(x, y, 777).\n"),
    ] {
        let src = format!("{}\n{extra}", dataset(name));
        let out = run_on_source(&run_cmd(true, true), &src)
            .unwrap_or_else(|e| panic!("{name} with the engine: {e}"));
        assert!(out.contains("[engine:indexed"), "{name}: {out}");
        assert!(!out.contains("DISAGREES"), "{name}: {out}");
        let queries = src.lines().filter(|l| l.starts_with("?-")).count();
        assert_eq!(
            out.matches("oracle: agrees").count(),
            queries,
            "{name}: {out}"
        );
        // Answer lines only — the [engine:…] / [strategy] headers differ.
        let answer_lines = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| !l.starts_with("?-"))
                .map(String::from)
                .collect()
        };
        let planned = run_on_source(&run_cmd(true, false), &src).unwrap();
        assert_eq!(answer_lines(&planned), answer_lines(&out), "{name}");

        let capped = execute(&capped_run_cmd(true, true, Some(2)), &src, None)
            .unwrap_or_else(|e| panic!("{name} capped: {e}"));
        assert!(!capped.outcome.is_complete(), "{name}: {}", capped.text);
        assert_eq!(
            capped
                .text
                .matches("oracle: subset of the fixpoint")
                .count(),
            queries,
            "{name}: {}",
            capped.text
        );
        assert!(
            capped.text.contains("truncated: iteration cap"),
            "{name}: {}",
            capped.text
        );
    }
}

/// The engines report the kernel each dataset's rank bound selects.
#[test]
fn engine_reports_class_selected_kernels() {
    for (name, kernel) in [
        ("transitive_closure.dl", "kernel:generic"),
        ("bounded_s8.dl", "kernel:unroll(2)"),
    ] {
        let src = dataset(name);
        let out = run_on_source(&run_cmd(false, true), &src).unwrap();
        assert!(out.contains(kernel), "{name}: {out}");
    }
}

#[test]
fn mixed_dataset_plan_shows_paper_formula() {
    let src = dataset("mixed_s12.dl");
    let out = run_on_source(
        &Command::Plan {
            file: String::new(),
            forms: vec!["dvv".into()],
        },
        &src,
    )
    .unwrap();
    // The paper's Example 14 plan shape.
    assert!(out.contains("A-C-B"), "{out}");
    assert!(out.contains("D^(k+1)"), "{out}");
    assert!(out.contains("dvv → ddv"), "{out}");
}

#[test]
fn figures_render_for_every_dataset() {
    for name in ["transitive_closure.dl", "bounded_s8.dl", "mixed_s12.dl"] {
        let src = dataset(name);
        let out = run_on_source(
            &Command::Figure {
                file: String::new(),
                levels: 2,
                dot: false,
            },
            &src,
        )
        .unwrap();
        assert!(out.contains("--- G1 ---"), "{name}: {out}");
        assert!(out.contains("--- G2 ---"), "{name}: {out}");
    }
}
