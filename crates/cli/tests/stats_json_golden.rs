//! Golden-file pin of the `--stats-json` wire shape.
//!
//! `run --stats-json` prints a serialized [`recurs_engine::Saturation`] and
//! `batch --stats-json` (and the serve protocol's `!stats`) a serialized
//! [`recurs_serve::ServiceStats`]. Downstream tooling parses these lines, so
//! their key names, nesting, and ordering are a public contract: this test
//! serializes fully deterministic instances and compares the pretty JSON
//! byte-for-byte against checked-in golden files.
//!
//! If a change to the shape is *intentional*, regenerate the goldens with
//! `UPDATE_GOLDENS=1 cargo test -p recurs-cli --test stats_json_golden` and
//! review the diff like any other API change.

use recurs_datalog::govern::{Outcome, TruncationReason};
use recurs_engine::{EngineStats, IterationStats, Saturation};
use recurs_serve::{CacheCounters, ServiceStats};
use std::path::Path;
use std::time::Duration;

/// Compares `actual` against the golden file at `tests/golden/<name>`,
/// rewriting the golden instead when `UPDATE_GOLDENS` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, want,
        "serialized shape of {name} changed; if intentional, regenerate with \
         UPDATE_GOLDENS=1 and review the diff"
    );
}

/// A fully deterministic engine run record: every field populated with a
/// distinct value so a dropped or renamed key cannot hide behind a default.
fn engine_saturation(outcome: Outcome) -> Saturation {
    Saturation {
        outcome,
        stats: EngineStats {
            round_cap: None,
            iterations: vec![
                IterationStats {
                    delta_in: 0,
                    derived: 4,
                    new_tuples: 4,
                    duration: Duration::from_micros(120),
                },
                IterationStats {
                    delta_in: 4,
                    derived: 5,
                    new_tuples: 3,
                    duration: Duration::from_micros(80),
                },
            ],
            tuples_derived: 7,
            index_builds: 1,
            index_updates: 2,
            probes: 9,
            probe_hits: 6,
        },
    }
}

#[test]
fn engine_saturation_shape_is_pinned() {
    let json = serde::json::to_string_pretty(&engine_saturation(Outcome::Complete));
    assert_matches_golden("engine_saturation.json", &json);
}

#[test]
fn truncated_outcome_shape_is_pinned() {
    // The truncation arm adds the human-readable reason string; pin it too
    // so `"truncation"` never silently becomes a code or an object.
    let json = serde::json::to_string(&Outcome::Truncated(TruncationReason::TupleCeiling));
    assert_eq!(json, r#"{"complete":false,"truncation":"tuple ceiling"}"#);
}

#[test]
fn service_stats_shape_is_pinned() {
    let stats = ServiceStats {
        queries: 11,
        complete: 9,
        truncated: 2,
        errors: 1,
        kernels: vec![
            ("bounded", 3),
            ("frontier", 4),
            ("magic", 5),
            ("saturate", 3),
            ("materialized", 2),
        ],
        queue_wait_us: 420,
        eval_us: 6400,
        tuples_derived: 210,
        cache: CacheCounters {
            hits: 4,
            misses: 7,
            insertions: 6,
            evictions: 1,
            invalidations: 2,
            patched: 5,
        },
        snapshot_version: 3,
        snapshot_updates: 2,
        updates_unchanged: 1,
    };
    let json = serde::json::to_string_pretty(&stats);
    assert_matches_golden("service_stats.json", &json);
}

/// The golden shape must agree with what the real CLI emits: every
/// top-level key pinned above appears in a live `run --stats-json` line.
#[test]
fn live_stats_json_carries_the_pinned_keys() {
    let golden = serde::json::to_string_pretty(&engine_saturation(Outcome::Complete));
    let out = recurs_cli::run_on_source(
        &recurs_cli::Command::Run {
            file: String::new(),
            check: false,
            engine: true,
            opts: recurs_cli::ServiceOpts::default(),
            stats_json: true,
            metrics: false,
            why: None,
            why_depth: recurs_ivm::DEFAULT_WHY_DEPTH,
        },
        "P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).\nA(1, 2).\nA(2, 3).\nE(1, 2).\nE(2, 3).\n?- P(1, y).",
    )
    .expect("run succeeds");
    let live = out
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON stats line");
    for key in golden
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"').and_then(|r| r.split_once('"')))
        .map(|(key, _)| key)
    {
        assert!(
            live.contains(&format!("\"{key}\"")),
            "live --stats-json is missing pinned key {key:?}: {live}"
        );
    }
}
