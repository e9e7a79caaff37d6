//! Bench-harness crate: see `benches/`. The paper's examples, figures and
//! claims are tests (`tests/paper_examples.rs`, `tests/figures.rs`).
#![warn(missing_docs)]
