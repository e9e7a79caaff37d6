//! `recurs-net` — the fault-tolerant TCP front end over
//! [`recurs_serve::QueryService`].
//!
//! The wire protocol is the serve line protocol, length-framed (see
//! [`frame`]): one request per frame, one reply per frame, pipelined with
//! strict per-connection ordering. Each payload goes to
//! `recurs_serve::protocol::handle_line_with`, which parses its directives
//! (`@deadline=`, `@trace=`), budgets it and names its result, exactly as
//! for `serve --stdin`. This crate adds only what a socket needs: frame
//! and UTF-8 errors and the net layer's own replies ([`proto`]), connection
//! admission, the frame ceiling, idle/slow-client timeouts, the panic
//! barriers and postmortem dump, graceful drain with a hard-cancel backstop
//! ([`server`]), and a blocking client ([`client`]). Fault hooks for the
//! chaos suite live in [`fault`] (test/`fault-inject` builds only).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::Client;
pub use server::{DrainReport, NetConfig, NetServer, ShutdownHandle};
