//! Integration tests driving the CLI commands over the shipped `datasets/`
//! files — the same flows a user runs from the shell.

use recurs_cli::{run_on_source, Command, EngineChoice};

fn dataset(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../datasets");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("cannot read dataset {name}: {e}"))
}

fn run_cmd(check: bool, engine: Option<EngineChoice>) -> Command {
    Command::Run {
        file: String::new(),
        check,
        engine,
        timeout_ms: None,
        max_tuples: None,
        max_iterations: None,
        stats_json: false,
        trace: None,
        metrics: false,
        why: None,
        why_depth: recurs_ivm::DEFAULT_WHY_DEPTH,
    }
}

#[test]
fn transitive_closure_dataset_runs_checked() {
    let src = dataset("transitive_closure.dl");
    let out = run_on_source(&run_cmd(true, None), &src).unwrap();
    assert!(out.contains("[Counting]"), "{out}");
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
    let out = run_on_source(&run_cmd(true, None), &src).unwrap();
    assert!(out.contains("[Bounded]"), "{out}");
    assert!(!out.contains("DISAGREES"), "{out}");
}

#[test]
fn mixed_dataset_uses_magic_strategy() {
    let src = dataset("mixed_s12.dl");
    let out = run_on_source(&run_cmd(true, None), &src).unwrap();
    assert!(out.contains("[Magic]"), "{out}");
    assert!(!out.contains("DISAGREES"), "{out}");
}

/// Every dataset, under every `--engine` choice (each with `--check` against
/// the fixpoint oracle), must produce the exact same answer lines.
#[test]
fn every_engine_agrees_on_every_dataset() {
    for name in ["transitive_closure.dl", "bounded_s8.dl", "mixed_s12.dl"] {
        let src = dataset(name);
        let mut answer_sets: Vec<Vec<String>> = Vec::new();
        for engine in [EngineChoice::Oracle, EngineChoice::Indexed] {
            let out = run_on_source(&run_cmd(true, Some(engine)), &src)
                .unwrap_or_else(|e| panic!("{name} with {}: {e}", engine.label()));
            assert!(
                out.contains(&format!("engine:{}", engine.label())),
                "{name}: {out}"
            );
            assert!(!out.contains("DISAGREES"), "{name}: {out}");
            // Answer lines only — the [engine:…] headers legitimately differ.
            let answers: Vec<String> = out
                .lines()
                .filter(|l| !l.starts_with("?-"))
                .map(String::from)
                .collect();
            answer_sets.push(answers);
        }
        assert_eq!(answer_sets[0], answer_sets[1], "{name}: oracle vs indexed");
    }
}

/// The engines report the paper-class-selected kernel per dataset.
#[test]
fn engine_reports_class_selected_kernels() {
    for (name, kernel) in [
        ("transitive_closure.dl", "kernel:frontier"),
        ("bounded_s8.dl", "kernel:unroll(2)"),
    ] {
        let src = dataset(name);
        let out = run_on_source(&run_cmd(false, Some(EngineChoice::Indexed)), &src).unwrap();
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
