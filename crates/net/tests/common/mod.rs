//! Shared fixtures for the net integration suites: a transitive-closure
//! service over a chain graph, a spawned in-process server, and the reply
//! fields the suites read with `recurs_obs::jsonl`.

#![allow(dead_code)]

use recurs_datalog::database::Database;
use recurs_datalog::parser::parse_program;
use recurs_datalog::rule::LinearRecursion;
use recurs_net::{Client, NetConfig, NetServer, ShutdownHandle};
use recurs_serve::{QueryService, ServeConfig};
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub fn tc() -> LinearRecursion {
    recurs_datalog::validate::validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .expect("TC validates")
}

pub fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", recurs_workload::graphs::chain(n));
    db.insert_relation("E", recurs_workload::graphs::chain(n));
    db
}

/// A transitive-closure service over `chain(n)` under `config`.
pub fn tc_service(n: u64, config: ServeConfig) -> Arc<QueryService> {
    Arc::new(QueryService::new(tc(), tc_db(n), config))
}

/// A spawned server over `service`; returns its address, control handle,
/// and the join handle yielding the drain report.
pub fn spawn_server(
    service: Arc<QueryService>,
    config: NetConfig,
) -> (
    String,
    ShutdownHandle,
    JoinHandle<io::Result<recurs_net::DrainReport>>,
) {
    let server = NetServer::bind(service, "127.0.0.1:0", config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("local addr").to_string();
    let (handle, join) = server.spawn();
    (addr, handle, join)
}

/// A client with a test-friendly 5s timeout.
pub fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("connect to test server")
}

/// A config with a fast tick and short linger so drain tests run quickly.
pub fn fast_config() -> NetConfig {
    NetConfig {
        tick: Duration::from_millis(2),
        drain_linger: Duration::from_millis(40),
        ..NetConfig::default()
    }
}

/// A top-level string field of a one-line JSON reply.
pub fn str_field(reply: &str, key: &str) -> Option<String> {
    let value = recurs_obs::jsonl::parse(reply).ok()?;
    value.get(key)?.as_str().map(str::to_owned)
}

/// A top-level unsigned integer field of a one-line JSON reply.
pub fn u64_field(reply: &str, key: &str) -> Option<u64> {
    match recurs_obs::jsonl::parse(reply).ok()?.get(key)? {
        serde::Value::UInt(n) => Some(*n),
        _ => None,
    }
}
