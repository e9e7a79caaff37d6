//! Admission behavior over TCP: bounded queue waits under saturation,
//! typed shed replies carrying the retry-after hint, connection-cap
//! shedding, and nothing shed at a load far below capacity.

mod common;

use common::{connect, fast_config, spawn_server, tc_service};
use recurs_net::client::{classify, ReplyKind};
use recurs_net::proto::{json_str_field, json_u64_field};
use recurs_net::{Client, NetConfig};
use recurs_serve::ServeConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The saturation tests are timing-sensitive and CPU-heavy (a hammer thread
/// running free queries in a debug build); running two at once starves both
/// past their client timeouts, so they serialize on this gate.
static HEAVY: Mutex<()> = Mutex::new(());

fn heavy() -> MutexGuard<'static, ()> {
    HEAVY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A serve config with a single evaluation slot, so one expensive query
/// saturates admission.
fn one_slot() -> ServeConfig {
    ServeConfig {
        max_concurrent: 1,
        cache_capacity: 0, // cache hits would bypass the contention
        ..ServeConfig::default()
    }
}

/// Spawns a thread hammering the single evaluation slot with expensive
/// free queries until the returned flag is set.
fn saturate(addr: &str, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("connect");
        while !stop.load(Ordering::SeqCst) {
            if client.roundtrip("?- P(x, y).").is_err() {
                break;
            }
        }
        let _ = client.roundtrip("!quit");
    })
}

#[test]
fn saturated_slot_sheds_with_the_configured_retry_hint_within_a_bounded_wait() {
    let _gate = heavy();
    let config = NetConfig {
        max_queue_wait: Duration::from_millis(20),
        retry_after_ms: 77,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(500, one_slot()), config);
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = saturate(&addr, Arc::clone(&stop));
    std::thread::sleep(Duration::from_millis(60)); // let the slot fill

    let mut client = connect(&addr);
    let mut shed = None;
    // The hammer releases the slot between its queries; retry until our
    // probe lands while the slot is held.
    for _ in 0..50 {
        let started = Instant::now();
        let reply = client.roundtrip("?- P(1, y).").expect("reply");
        let waited = started.elapsed();
        if json_str_field(&reply, "type") == Some("overloaded") {
            assert!(
                waited < Duration::from_secs(2),
                "shed must be bounded by max_queue_wait, waited {waited:?}"
            );
            shed = Some(reply);
            break;
        }
    }
    let reply = shed.expect("a probe should get shed while the slot is held");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert_eq!(
        json_u64_field(&reply, "retry_after_ms"),
        Some(77),
        "shed replies must carry the configured hint: {reply}"
    );

    stop.store(true, Ordering::SeqCst);
    hammer.join().expect("hammer thread");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn shed_request_succeeds_after_backing_off() {
    let _gate = heavy();
    let config = NetConfig {
        max_queue_wait: Duration::from_millis(10),
        retry_after_ms: 25,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(500, one_slot()), config);
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = saturate(&addr, Arc::clone(&stop));
    std::thread::sleep(Duration::from_millis(60));

    let mut client = connect(&addr);
    let mut saw_shed = false;
    let mut answered = false;
    for _ in 0..200 {
        let reply = client.roundtrip("?- P(1, y).").expect("reply");
        match json_str_field(&reply, "type") {
            Some("overloaded") => {
                saw_shed = true;
                let hint = json_u64_field(&reply, "retry_after_ms").unwrap_or(25);
                std::thread::sleep(Duration::from_millis(hint));
            }
            Some("answers") => {
                answered = true;
                if saw_shed {
                    break; // shed, backed off, then succeeded: the contract
                }
            }
            other => panic!("unexpected reply type {other:?}: {reply}"),
        }
    }
    assert!(saw_shed, "the saturated slot should shed at least once");
    assert!(answered, "retrying after the hint must eventually succeed");

    stop.store(true, Ordering::SeqCst);
    hammer.join().expect("hammer thread");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn connection_cap_sheds_new_connections_with_a_typed_reply() {
    let config = NetConfig {
        max_connections: 1,
        retry_after_ms: 99,
        ..fast_config()
    };
    let (addr, handle, join) = spawn_server(tc_service(8, one_slot()), config);
    let mut first = connect(&addr);
    first
        .roundtrip("!health")
        .expect("first connection admitted");
    let mut second = connect(&addr);
    let reply = second.recv().expect("shed notice");
    assert_eq!(
        json_str_field(&reply, "type"),
        Some("overloaded"),
        "{reply}"
    );
    assert_eq!(
        json_u64_field(&reply, "retry_after_ms"),
        Some(99),
        "{reply}"
    );
    // The first connection is unaffected.
    let reply = first.roundtrip("?- P(1, y).").expect("still serving");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(first);
    drop(second);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

/// The liveness floor under the saturation tests above: four connections at
/// a load far below capacity — point queries, and every tenth operation a
/// state-neutral write pair (an insert, then its own delete) — against the
/// default service and server configs: nothing is shed, no request errors or
/// loses its connection, and the server then drains without the hard cancel.
#[test]
fn smoke_load_is_served_without_shedding_errors_or_a_forced_drain() {
    let _gate = heavy();
    let (addr, handle, join) = spawn_server(
        tc_service(100, ServeConfig::default()),
        NetConfig::default(),
    );
    let workers: Vec<_> = (0..4u64)
        .map(|worker| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = connect(&addr);
                let mut replies = Vec::new();
                for op in 0..25u64 {
                    let lines = match op % 10 {
                        9 => {
                            let (a, b) = ((1 << 40) + worker * 100 + op, (1 << 41) + op);
                            vec![format!("+A({a}, {b})."), format!("-A({a}, {b}).")]
                        }
                        _ => vec![format!("?- P({}, y).", 1 + (worker * 25 + op) % 32)],
                    };
                    for line in lines {
                        replies.push((line.clone(), client.roundtrip(&line)));
                    }
                    std::thread::sleep(Duration::from_millis(15));
                }
                replies
            })
        })
        .collect();
    for worker in workers {
        for (line, reply) in worker.join().expect("worker thread") {
            let reply = reply.unwrap_or_else(|e| panic!("{line}: transport error {e:?}"));
            let kind = classify(&reply);
            assert!(
                !matches!(kind, ReplyKind::Overloaded { .. }),
                "{line} was shed: {reply}"
            );
            assert_eq!(kind, ReplyKind::Ok, "{line}: {reply}");
        }
    }
    handle.drain();
    let drain = join.join().expect("server thread").expect("run ok");
    assert!(
        !drain.forced,
        "an idle server drains without the hard cancel"
    );
}
