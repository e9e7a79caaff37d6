//! `recurs-net` — the fault-tolerant TCP front end over
//! [`recurs_serve::QueryService`].
//!
//! The wire protocol is the serve line protocol, length-framed (see
//! [`frame`]): one request per frame, one reply per frame, pipelined with
//! strict per-connection ordering. On top of it this crate adds
//! per-request deadlines ([`proto`]), bounded admission with explicit load
//! shedding, idle/slow-client timeouts, graceful drain with a hard-cancel
//! backstop ([`server`]), and a blocking client ([`client`]). Fault hooks
//! for the chaos suite live in [`fault`] (test/`fault-inject` builds only).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::Client;
pub use server::{DrainReport, NetConfig, NetServer, ShutdownHandle};
