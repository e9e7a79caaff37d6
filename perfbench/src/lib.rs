//! `perfbench`: a drift-corrected end-to-end benchmark of the `recurs`
//! binary, plus the pieces its per-layer probe (`layers/`) shares with it.
//!
//! Nothing here depends on a `recurs-*` crate: the driver reaches the
//! system under test only through CLI flags and the framed wire protocol.

pub mod control;
pub mod gen;
pub mod report;
pub mod stats;
pub mod wire;
