//! Admission behavior over TCP: bounded queue waits under saturation,
//! typed shed replies carrying the retry-after hint, connection-cap
//! shedding, and nothing shed at a load far below capacity.

mod common;

use common::{connect, fast_config, spawn_server, tc_service};
use recurs_net::client::{classify, ReplyKind};
use recurs_net::proto::{json_str_field, json_u64_field};
use recurs_net::{Client, NetConfig};
use recurs_obs::{Obs, Recorder, TraceId, Value};
use recurs_serve::ServeConfig;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A serve config with a single evaluation slot.
fn one_slot() -> ServeConfig {
    ServeConfig {
        max_concurrent: 1,
        cache_capacity: 0, // cache hits would bypass the contention
        ..ServeConfig::default()
    }
}

/// The trace id of the request that holds the slot.
const HOLDER: &str = "5107";

/// A recorder that keeps the request traced [`HOLDER`] inside the one
/// evaluation slot — at the first event it emits once admitted, its
/// `admission` span — until the test releases it. The slot is held exactly
/// as long as the test says, however fast a query runs.
#[derive(Debug, Default)]
struct SlotHolder {
    /// `(held, released)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl SlotHolder {
    fn state(&self) -> MutexGuard<'_, (bool, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the holder is admitted and stopped inside the slot.
    fn wait_held(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut state = self.state();
        while !state.0 {
            let left = deadline
                .checked_duration_since(Instant::now())
                .expect("the holding request was never admitted");
            state = self
                .changed
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Lets the holder finish, freeing the slot.
    fn release(&self) {
        self.state().1 = true;
        self.changed.notify_all();
    }
}

impl Recorder for SlotHolder {
    fn event(&self, kind: &'static str, _: &[(&'static str, Value)], trace: Option<TraceId>) {
        if kind != "span" || trace != TraceId::parse(HOLDER).ok() {
            return;
        }
        let mut state = self.state();
        state.0 = true;
        self.changed.notify_all();
        while !state.1 {
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A server with one evaluation slot under `config`, and a connection whose
/// query holds that slot until [`SlotHolder::release`]; join the returned
/// thread after releasing it.
fn held_slot(
    config: NetConfig,
) -> (
    String,
    recurs_net::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<recurs_net::DrainReport>>,
    Arc<SlotHolder>,
    std::thread::JoinHandle<()>,
) {
    let holder = Arc::new(SlotHolder::default());
    let serve = ServeConfig {
        obs: Obs::new(holder.clone()),
        ..one_slot()
    };
    let (addr, handle, join) = spawn_server(tc_service(50, serve), config);
    let holding = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
            let reply = client
                .roundtrip(&format!("@trace={HOLDER} ?- P(x, y)."))
                .expect("the holder's reply");
            assert!(reply.contains("\"ok\":true"), "{reply}");
        })
    };
    holder.wait_held();
    (addr, handle, join, holder, holding)
}

#[test]
fn saturated_slot_sheds_with_the_configured_retry_hint_within_a_bounded_wait() {
    let config = NetConfig {
        max_queue_wait: Duration::from_millis(20),
        retry_after_ms: 77,
        ..fast_config()
    };
    let (addr, handle, join, holder, holding) = held_slot(config);

    let mut client = connect(&addr);
    let started = Instant::now();
    let reply = client.roundtrip("?- P(1, y).").expect("reply");
    let waited = started.elapsed();
    assert_eq!(
        json_str_field(&reply, "type"),
        Some("overloaded"),
        "{reply}"
    );
    assert!(
        waited >= Duration::from_millis(20) && waited < Duration::from_secs(2),
        "shed must be bounded by max_queue_wait, waited {waited:?}"
    );
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert_eq!(
        json_u64_field(&reply, "retry_after_ms"),
        Some(77),
        "shed replies must carry the configured hint: {reply}"
    );

    holder.release();
    holding.join().expect("holding thread");
    drop(client);
    handle.drain();
    join.join().expect("server thread").expect("run ok");
}

#[test]
fn shed_request_succeeds_after_backing_off() {
    let config = NetConfig {
        max_queue_wait: Duration::from_millis(10),
        retry_after_ms: 25,
        ..fast_config()
    };
    let (addr, handle, join, holder, holding) = held_slot(config);

    let mut client = connect(&addr);
    let reply = client.roundtrip("?- P(1, y).").expect("reply");
    assert_eq!(
        json_str_field(&reply, "type"),
        Some("overloaded"),
        "the held slot sheds: {reply}"
    );
    let hint = json_u64_field(&reply, "retry_after_ms").expect("a retry hint");
    assert_eq!(hint, 25, "{reply}");
    // The slot frees while the client backs off; the retry is answered.
    holder.release();
    holding.join().expect("holding thread");
    std::thread::sleep(Duration::from_millis(hint));
    let reply = client.roundtrip("?- P(1, y).").expect("reply");
    assert_eq!(json_str_field(&reply, "type"), Some("answers"), "{reply}");

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
