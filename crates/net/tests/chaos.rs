//! Chaos suite (requires `--features fault-inject`): injected torn reply
//! frames, stalled sockets, handler panics, and mid-request disconnects
//! must never let a panic escape a connection handler, never leave an
//! accepted request without exactly one framed reply or a clean close, and
//! never corrupt the database/snapshot chain. Every scenario ends with a
//! differential check against an untouched control service. An armed plan
//! counts every reply the process writes, so each test holds the fault gate
//! (`quiesce`, then `rearm`) from before its first frame to its last.

#![cfg(feature = "fault-inject")]

mod common;

use common::{connect, fast_config, spawn_server, str_field, tc_service, u64_field};
use recurs_datalog::parser::parse_atom;
use recurs_engine::fault::{quiesce, FaultPlan};
use recurs_net::{Client, NetConfig};
use recurs_serve::{QueryService, ServeConfig};
use std::time::Duration;

const N: u64 = 24;

/// Differential invariant: after chaos, the served state must be
/// indistinguishable from an untouched control service — same snapshot
/// fingerprint, same answers to probe queries.
fn assert_matches_control(client: &mut Client, control: &QueryService) {
    let snap = client.roundtrip("!snapshot").expect("snapshot after chaos");
    assert_eq!(
        str_field(&snap, "fingerprint").as_deref(),
        Some(control.snapshot().fingerprint().to_string().as_str()),
        "snapshot chain diverged from control: {snap}"
    );
    for k in [1, N / 2, N - 1] {
        let reply = client
            .roundtrip(&format!("?- P({k}, y)."))
            .expect("probe query");
        let expected = control
            .query(&parse_atom(&format!("P({k}, y)")).expect("probe parses"))
            .expect("control query")
            .answers
            .len() as u64;
        assert_eq!(
            u64_field(&reply, "count"),
            Some(expected),
            "answers diverged from control for P({k}, y): {reply}"
        );
    }
}

#[test]
fn handler_panic_becomes_a_typed_internal_reply_and_the_connection_survives() {
    let faults = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    client.roundtrip("!health").expect("admitted");
    {
        faults.rearm(FaultPlan {
            panic_in_handler: true,
            ..FaultPlan::default()
        });
        let reply = client
            .roundtrip("?- P(1, y).")
            .expect("typed reply, not a dead socket");
        assert_eq!(
            str_field(&reply, "type").as_deref(),
            Some("internal"),
            "{reply}"
        );
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // Same connection, next pipelined request: unharmed.
        let reply = client.roundtrip("?- P(1, y).").expect("still serving");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        faults.rearm(FaultPlan::default());
    }
    assert_matches_control(&mut client, &control);
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
}

#[test]
fn torn_reply_frame_drops_the_connection_but_not_the_server_or_state() {
    let faults = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    client.roundtrip("!health").expect("admitted");
    {
        faults.rearm(FaultPlan {
            tear_reply_after: Some(2),
            ..FaultPlan::default()
        });
        // Mixed traffic: queries plus an atomic cancelling update group (a
        // no-op by construction, so any interruption point leaves state
        // equal to the control).
        let mut torn = false;
        for line in [
            "?- P(1, y).",
            "+A(90, 91) -A(90, 91).",
            "?- P(2, y).",
            "?- P(3, y).",
            "?- P(4, y).",
        ] {
            match client.roundtrip(line) {
                Ok(reply) => assert!(reply.contains("\"ok\""), "{reply}"),
                Err(_) => {
                    torn = true;
                    break;
                }
            }
        }
        assert!(torn, "the armed tear must surface as a transport error");
        faults.rearm(FaultPlan::default());
    }
    // The torn connection is dead; the server is not.
    let mut client = connect(&addr);
    assert_matches_control(&mut client, &control);
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
}

#[test]
fn stalled_reply_is_bounded_by_the_client_timeout_and_the_server_recovers() {
    let faults = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), fast_config());
    {
        faults.rearm(FaultPlan {
            stall_reply: Some(Duration::from_millis(400)),
            ..FaultPlan::default()
        });
        let mut client = Client::connect(&addr, Duration::from_millis(100)).expect("connect");
        client.send("?- P(1, y).").expect("send");
        // The stalled reply must not arrive inside the client timeout.
        assert!(
            client.recv().is_err(),
            "reply should have stalled past the timeout"
        );
        faults.rearm(FaultPlan::default());
    }
    // Disarmed: a fresh connection is served promptly and state is intact.
    let mut client = connect(&addr);
    assert_matches_control(&mut client, &control);
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
}

#[test]
fn mid_request_disconnects_leave_the_server_healthy() {
    let _g = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), fast_config());
    for _ in 0..5 {
        let mut client = connect(&addr);
        // Fire a request and vanish before reading the reply.
        client.send("?- P(x, y).").expect("send");
        drop(client);
    }
    let mut client = connect(&addr);
    assert_matches_control(&mut client, &control);
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(
        !report.forced,
        "abandoned requests must not wedge the drain"
    );
    assert_eq!(report.remaining_connections, 0);
}

#[test]
fn worker_panic_during_drain_still_drains_cleanly() {
    // The gate comes first: a sibling's armed tear would otherwise count,
    // and could tear, the `!health` frame below.
    let faults = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let postmortem = std::env::temp_dir().join(format!(
        "recurs-chaos-postmortem-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&postmortem);
    let config = NetConfig {
        drain_linger: Duration::from_millis(200),
        postmortem: Some(postmortem.clone()),
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), config);
    let mut client = connect(&addr);
    client.roundtrip("!health").expect("admitted");
    {
        faults.rearm(FaultPlan {
            panic_in_handler: true,
            ..FaultPlan::default()
        });
        // Drain with a poisoned request in flight: the panic must neither
        // escape nor stall the drain.
        client.send("?- P(1, y).").expect("send");
        handle.drain();
        let reply = client
            .recv()
            .expect("the panicked request still gets its one reply");
        assert_eq!(
            str_field(&reply, "type").as_deref(),
            Some("internal"),
            "{reply}"
        );
        // Served within the linger window: verify state then let go.
        assert_matches_control(&mut client, &control);
        faults.rearm(FaultPlan::default());
    }
    drop(client);
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced, "an injected panic must not force the drain");
    assert_eq!(report.remaining_connections, 0);
    // The handler panic dumped the flight recorder: a non-empty postmortem
    // file whose every line is a well-formed trace event.
    let dump = std::fs::read_to_string(&postmortem).expect("postmortem file written");
    assert!(!dump.trim().is_empty(), "postmortem must not be empty");
    for line in dump.lines() {
        let v = recurs_obs::jsonl::parse(line).expect("postmortem line parses");
        assert!(v.get("kind").is_some(), "{line}");
    }
    let _ = std::fs::remove_file(&postmortem);
}

#[test]
fn torn_request_frame_from_the_client_is_contained() {
    let _g = quiesce();
    let control = tc_service(N, ServeConfig::default());
    let (addr, handle, join) = spawn_server(tc_service(N, ServeConfig::default()), fast_config());
    {
        use std::io::Write as _;
        let mut client = connect(&addr);
        client.roundtrip("!health").expect("admitted");
        // Claim 50 bytes, send 5, disconnect: a torn request frame.
        let stream = client.stream_mut();
        stream.write_all(&50u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"?- P(").expect("partial");
        stream.flush().expect("flush");
        drop(client);
    }
    let mut client = connect(&addr);
    assert_matches_control(&mut client, &control);
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
    assert_eq!(report.remaining_connections, 0);
}
