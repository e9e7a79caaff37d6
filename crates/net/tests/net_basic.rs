//! Basic TCP front-end behavior: framed round trips, pipelining with
//! strict reply ordering, deadlines, health, idle/slow-loris defense,
//! malformed frames, metrics exposure, and graceful drain.

mod common;

use common::{connect, fast_config, spawn_server, str_field, tc_service, u64_field};
use recurs_datalog::govern::EvalBudget;
use recurs_net::frame::{self, FrameError};
use recurs_net::NetConfig;
use recurs_serve::ServeConfig;
use std::io::Write;
use std::time::{Duration, Instant};

#[test]
fn query_round_trip_over_tcp() {
    let (addr, handle, join) = spawn_server(tc_service(8, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("?- P(1, y).").expect("round trip");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(str_field(&reply, "type").as_deref(), Some("answers"));
    assert_eq!(u64_field(&reply, "count"), Some(7));
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
    assert_eq!(report.remaining_connections, 0);
}

#[test]
fn pipelined_requests_get_replies_in_order() {
    let (addr, handle, join) = spawn_server(tc_service(16, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    // Fire all requests before reading any reply.
    for k in 1..=10 {
        client.send(&format!("?- P({k}, y).")).expect("send");
    }
    for k in 1..=10 {
        let reply = client.recv().expect("reply");
        assert_eq!(
            str_field(&reply, "query").as_deref(),
            Some(format!("P({k}, y)").as_str()),
            "reply {k} out of order: {reply}"
        );
        assert_eq!(u64_field(&reply, "count"), Some(16 - k));
    }
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn updates_and_queries_interleave_on_one_connection() {
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let before = client.roundtrip("!snapshot").expect("snapshot");
    let fp_before = str_field(&before, "fingerprint")
        .as_deref()
        .expect("fingerprint")
        .to_string();
    let reply = client.roundtrip("+A(4, 5) +E(4, 5).").expect("insert");
    assert_eq!(u64_field(&reply, "version"), Some(1), "{reply}");
    let reply = client.roundtrip("?- P(1, y).").expect("query");
    assert_eq!(u64_field(&reply, "count"), Some(4), "{reply}");
    let reply = client.roundtrip("-A(4, 5) -E(4, 5).").expect("delete");
    assert_eq!(u64_field(&reply, "version"), Some(2), "{reply}");
    let after = client.roundtrip("!snapshot").expect("snapshot");
    assert_eq!(
        str_field(&after, "fingerprint").as_deref(),
        Some(fp_before.as_str()),
        "state must return to the initial fingerprint"
    );
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn blank_and_comment_frames_get_noop_acks() {
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    for line in ["", "   ", "% a comment", "# another"] {
        let reply = client.roundtrip(line).expect("round trip");
        assert_eq!(
            str_field(&reply, "type").as_deref(),
            Some("noop"),
            "{line:?} → {reply}"
        );
    }
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn quit_gets_bye_then_clean_close() {
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("!quit").expect("bye");
    assert_eq!(str_field(&reply, "type").as_deref(), Some("bye"), "{reply}");
    assert!(matches!(client.recv(), Err(FrameError::Closed)));
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn expired_deadline_gets_a_typed_error_not_silence() {
    let (addr, handle, join) = spawn_server(tc_service(8, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("@deadline=0 ?- P(1, y).").expect("reply");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("deadline"),
        "{reply}"
    );
    assert!(reply.contains("\"ok\":false"), "{reply}");
    // The connection survives a deadlined request.
    let reply = client.roundtrip("?- P(1, y).").expect("still serving");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn health_reports_accepting_then_draining() {
    let config = NetConfig {
        drain_linger: Duration::from_secs(5), // hold connections open while we probe
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), config);
    let mut client = connect(&addr);
    let reply = client.roundtrip("!health").expect("health");
    assert_eq!(
        str_field(&reply, "state").as_deref(),
        Some("accepting"),
        "{reply}"
    );
    assert_eq!(u64_field(&reply, "active_connections"), Some(1));
    handle.drain();
    assert!(handle.is_draining());
    let reply = client.roundtrip("!health").expect("health while draining");
    assert_eq!(
        str_field(&reply, "state").as_deref(),
        Some("draining"),
        "{reply}"
    );
    drop(client);
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
}

#[test]
fn idle_connection_is_closed_with_a_typed_reason() {
    let config = NetConfig {
        idle_timeout: Duration::from_millis(80),
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), config);
    let mut client = connect(&addr);
    let reply = client.recv().expect("idle notice");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("idle"),
        "{reply}"
    );
    assert!(matches!(client.recv(), Err(FrameError::Closed)));
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn slow_loris_partial_frame_is_disconnected() {
    let config = NetConfig {
        idle_timeout: Duration::from_millis(100),
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), config);
    let mut client = connect(&addr);
    // Claim a 100-byte frame but dribble only the prefix and two bytes.
    let started = Instant::now();
    let stream = client.stream_mut();
    stream.write_all(&100u32.to_be_bytes()).expect("prefix");
    stream.write_all(b"?-").expect("dribble");
    stream.flush().expect("flush");
    // The server must cut us off near the idle timeout, not hang forever.
    while client.recv().is_ok() {
        // Drain any idle notice until the server closes on us.
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "slow-loris connection lingered {:?}",
        started.elapsed()
    );
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let config = NetConfig {
        max_frame_len: 1024,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), config);
    let mut client = connect(&addr);
    client
        .stream_mut()
        .write_all(&(1u32 << 30).to_be_bytes())
        .expect("bogus prefix");
    let reply = client.recv().expect("typed error before close");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("protocol"),
        "{reply}"
    );
    assert!(reply.contains("ceiling"), "{reply}");
    assert!(matches!(client.recv(), Err(FrameError::Closed)));
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn non_utf8_frame_gets_protocol_error_and_connection_survives() {
    let (addr, handle, join) = spawn_server(tc_service(8, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    frame::write_frame(client.stream_mut(), &[0xff, 0xfe, 0x80, 0x41]).expect("send garbage");
    let reply = client.recv().expect("typed error");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("protocol"),
        "{reply}"
    );
    assert!(reply.contains("UTF-8"), "{reply}");
    // Frame boundaries are intact, so the session continues.
    let reply = client.roundtrip("?- P(1, y).").expect("still serving");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn metrics_over_tcp_include_net_counters_and_end_in_eof() {
    let (addr, handle, join) = spawn_server(tc_service(8, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    client.roundtrip("?- P(1, y).").expect("warm a counter");
    let reply = client.roundtrip("!metrics").expect("metrics");
    assert!(
        reply.ends_with("# EOF"),
        "metrics must be EOF-framed: ...{}",
        &reply[reply.len().saturating_sub(60)..]
    );
    assert!(
        reply.contains("recurs_net_requests_total{result=\"ok\"}"),
        "net counters must flow into the service aggregator: {reply}"
    );
    assert!(reply.contains("recurs_net_connections_total"), "{reply}");
    assert!(reply.contains("recurs_serve_queries_total"), "{reply}");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn unknown_command_is_an_error_reply_not_a_hang() {
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("!bogus").expect("reply");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("unknown command"), "{reply}");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn graceful_drain_answers_in_flight_work_then_closes() {
    let (addr, handle, join) = spawn_server(tc_service(200, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    // Make sure the connection is admitted before the listener goes away.
    client.roundtrip("!health").expect("admitted");
    // An expensive free query, then drain while it is (likely) in flight.
    client.send("?- P(x, y).").expect("send");
    handle.drain();
    let reply = client.recv().expect("in-flight reply survives drain");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(u64_field(&reply, "count"), Some(199 * 200 / 2), "{reply}");
    // After the linger window the server closes the connection cleanly.
    assert!(matches!(client.recv(), Err(FrameError::Closed)));
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced, "drain should not need the hard cancel");
    assert_eq!(report.remaining_connections, 0);
}

#[test]
fn forced_drain_cancels_wedged_work_within_the_deadline() {
    let config = NetConfig {
        drain_deadline: Duration::from_millis(150),
        ..fast_config()
    };
    // Big enough that a free query cannot finish inside the drain deadline.
    let (addr, handle, join) = spawn_server(tc_service(4000, ServeConfig::default()), config);
    let mut client = connect(&addr);
    client.send("?- P(x, y).").expect("send");
    std::thread::sleep(Duration::from_millis(30)); // let evaluation start
    let drained_at = Instant::now();
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(report.forced, "the hard cancel must fire");
    assert!(
        drained_at.elapsed() < Duration::from_secs(5),
        "forced drain took {:?}",
        drained_at.elapsed()
    );
    // The cancelled evaluation still produced exactly one framed reply
    // (a sound truncation), not silence — and one a default client can read,
    // however much 150 ms of saturation selected.
    let reply = client
        .recv()
        .expect("truncated reply, not a dropped request");
    assert!(
        reply.contains("\"ok\":true"),
        "{}",
        &reply[..reply.len().min(200)]
    );
}

#[test]
fn an_oversized_answer_set_is_cut_to_the_frame_and_says_so() {
    // A complete free query over a 600-chain: 179 700 answers, some 2.5 MB
    // rendered, against the 1 MiB a default client accepts.
    let (addr, handle, join) = spawn_server(tc_service(600, ServeConfig::default()), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("?- P(x, y).").expect("a readable frame");
    assert!(reply.len() <= frame::DEFAULT_MAX_FRAME_LEN);
    assert!(
        reply.contains("\"complete\":true"),
        "the evaluation finished"
    );
    assert!(reply.contains("\"truncated\":true"), "the reply was cut");
    assert_eq!(u64_field(&reply, "count"), Some(600 * 599 / 2));
    // What was sent is the head of the sorted answers, whole rows only, and
    // nearly a frame's worth of them.
    let sent = reply.matches("],[").count() + 1;
    assert!(sent < 179_700 && reply.len() > frame::DEFAULT_MAX_FRAME_LEN * 9 / 10);
    assert!(reply.contains("\"answers\":[[\"1\",\"10\"],[\"1\",\"100\"],"));
    // A query that fits is left alone, on the same connection.
    let reply = client.roundtrip("?- P(1, y).").expect("round trip");
    assert_eq!(u64_field(&reply, "count"), Some(599));
    assert_eq!(reply.matches("],[").count() + 1, 599);
    assert!(!reply.contains("truncated\":true"), "{reply}");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn a_reply_longer_than_the_frame_is_replaced_by_a_typed_error_and_the_connection_carries_on() {
    // A 2 KiB ceiling on the connection; the derivation tree of P(1, 60) is
    // 59 nested levels of JSON, several times that. Nothing bounds a `why`
    // tree, `!explain` or `!metrics` the way an answers reply is cut.
    let service = tc_service(60, ServeConfig::default());
    let config = NetConfig {
        max_frame_len: 2048,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(service.clone(), config);
    let mut client = connect(&addr); // a default client: 1 MiB frames
    for line in ["why P(1, 60).", "?- P(1, y).", "!metrics", "why P(59, 60)."] {
        client.send(line).expect("send");
    }
    let reply = client.recv().expect("a frame, not a closed connection");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("reply_too_large")
    );
    assert_eq!(u64_field(&reply, "max"), Some(2048));
    assert!(u64_field(&reply, "len").expect("len") > 2048, "{reply}");
    // The pipelined successors are answered, in order: an answers reply
    // (59 rows fit), the metrics page (which does not), a shallow tree.
    let reply = client.recv().expect("the query behind it");
    assert_eq!(u64_field(&reply, "count"), Some(59), "{reply}");
    let reply = client.recv().expect("the metrics page behind that");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("reply_too_large")
    );
    let reply = client.recv().expect("the shallow tree");
    assert_eq!(str_field(&reply, "type").as_deref(), Some("why"), "{reply}");
    assert!(reply.len() <= 2048);
    let metrics = service.metrics_text();
    assert!(
        metrics.contains("recurs_net_requests_total{result=\"oversized\"} 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("recurs_net_requests_total{result=\"ok\"} 2"),
        "{metrics}"
    );
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn a_why_out_of_budget_is_a_truncated_reply_over_tcp() {
    // One derived tuple is far short of ranking P(1, 60): the search stops,
    // and the reply says so — a flagged reply, not an engine error.
    let config = ServeConfig {
        budget: EvalBudget::unlimited().with_max_tuples(1),
        ..ServeConfig::default()
    };
    let service = tc_service(60, config);
    let (addr, handle, join) = spawn_server(service.clone(), fast_config());
    let mut client = connect(&addr);
    let reply = client.roundtrip("why P(1, 60).").expect("round trip");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(str_field(&reply, "type").as_deref(), Some("why"), "{reply}");
    assert!(reply.contains("\"truncated\":true"), "{reply}");
    assert_eq!(
        str_field(&reply, "truncation").as_deref(),
        Some("tuple ceiling")
    );
    assert_eq!(service.stats().errors, 0, "no query error is counted");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn draining_server_stops_accepting_new_connections() {
    let (addr, handle, join) = spawn_server(tc_service(4, ServeConfig::default()), fast_config());
    handle.drain();
    let report = join.join().expect("server thread").expect("run ok");
    assert!(!report.forced);
    // The listener is gone: a fresh connection must fail.
    let refused = recurs_net::Client::connect(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "connection after drain must be refused");
}

#[test]
fn every_net_event_kind_is_registered_in_the_taxonomy() {
    let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
    let service = tc_service(
        8,
        ServeConfig {
            obs: recurs_obs::Obs::new(capture.clone()),
            ..ServeConfig::default()
        },
    );
    let config = NetConfig {
        max_connections: 1,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(service, config);
    let mut client = connect(&addr);
    // Traced query (spans + serve.query), malformed directive (frame
    // error), and a shed second connection (admission gate) — then drain.
    let reply = client
        .roundtrip("@trace=feedface ?- P(1, y).")
        .expect("traced query");
    assert_eq!(
        str_field(&reply, "trace").as_deref(),
        Some("00000000feedface"),
        "{reply}"
    );
    let reply = client.roundtrip("@trace=xyz ?- P(1, y).").expect("reply");
    assert_eq!(
        str_field(&reply, "type").as_deref(),
        Some("protocol"),
        "{reply}"
    );
    let shed = connect(&addr).roundtrip("!health");
    assert!(shed.is_err() || shed.unwrap().contains("overloaded"));
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
    // Everything the net layer (and the layers below it) emitted is a
    // registered kind — the DESIGN table is generated from this registry,
    // so an unregistered kind means drifting docs.
    let kinds = capture.kinds();
    for kind in &kinds {
        assert!(
            recurs_obs::taxonomy::is_known(kind),
            "unregistered event kind {kind} (add it to recurs_obs::taxonomy::EVENTS)"
        );
    }
    for expected in [
        "net.admission",
        "net.drain",
        "net.frame_error",
        "serve.query",
        "span",
    ] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "scenario should have emitted {expected}: got {kinds:?}"
        );
    }
}
