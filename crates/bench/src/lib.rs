//! Bench-harness crate: see `benches/`. The paper's examples, figures and
//! claims are tests (`tests/paper_examples.rs`, `tests/figures.rs`).
#![warn(missing_docs)]
/// Re-export so the harness binaries share one version statement.
pub const PAPER: &str = "Youn, Henschen & Han, SIGMOD 1988";
