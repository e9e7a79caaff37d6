//! The TCP front end: thread-per-connection over a bounded admission count,
//! pipelined length-framed requests with strict per-connection reply
//! ordering, idle/slow-client timeouts, and graceful drain. A request's
//! directives, deadline and budget are the serve protocol's; this layer
//! counts the result `handle_line_with` names.
//!
//! # Connection lifecycle
//!
//! ```text
//! accept ──► admitted ──► serving ──► closed
//!    │           ▲          │  ▲
//!    │ (at cap)  │          ▼  │ (drain linger / !quit / idle)
//!    └─► shed ───┘        draining ──► forced-cancel (past deadline)
//! ```
//!
//! Every accepted frame gets exactly one framed reply (blank/comment frames
//! get an explicit `noop` ack; `!quit` gets a `bye` then a clean close).
//! Panics are caught at two barriers — around each request handler (typed
//! `internal` error reply, connection survives) and around the whole
//! connection loop (connection dies, server survives) — so no panic escapes
//! a handler thread.
//!
//! # Drain semantics
//!
//! [`ShutdownHandle::drain`] flips the server to draining: the accept loop
//! stops admitting, each connection keeps serving frames that arrive within
//! the linger window (or complete a frame already partially received), then
//! closes cleanly. Past the drain deadline the supervisor cancels the
//! shared hard-cancel token — which is threaded into every in-flight
//! evaluation budget — and connections close as soon as their current
//! request returns (soundly truncated). [`DrainReport::forced`] records
//! whether that hammer was needed.

use crate::frame::{FrameError, FrameReader, Poll};
use crate::proto;
use recurs_datalog::govern::CancelToken;
use recurs_obs::field;
use recurs_serve::protocol::{
    error_reply, handle_line_with, LineOptions, LineOutcome, RequestResult, DEFAULT_RETRY_AFTER_MS,
};
use recurs_serve::QueryService;
use std::io;
#[cfg(any(test, feature = "fault-inject"))]
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Network front-end configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Connection cap: further connections are shed with one `overloaded`
    /// frame and an immediate close.
    pub max_connections: usize,
    /// Bound on the evaluation-slot queue wait per request; past it the
    /// request is shed with a typed `overloaded` reply.
    pub max_queue_wait: Duration,
    /// Backoff hint rendered into shed replies.
    pub retry_after_ms: u64,
    /// Close connections with no completed frame for this long (also bounds
    /// a slow-loris peer dribbling a frame byte-by-byte).
    pub idle_timeout: Duration,
    /// Socket write timeout: a peer that stops reading its replies for this
    /// long is disconnected.
    pub write_timeout: Duration,
    /// Ceiling on a single frame payload.
    pub max_frame_len: usize,
    /// How long drain waits for in-flight work before hard-cancelling.
    pub drain_deadline: Duration,
    /// Grace window after drain starts during which newly arriving frames
    /// are still served (pipelined requests already in flight).
    pub drain_linger: Duration,
    /// Poll granularity for the accept loop and connection read loops.
    pub tick: Duration,
    /// Where to dump the flight recorder when something goes wrong (a
    /// handler or connection panic, or a forced drain). `None` disables
    /// postmortem dumps; the in-memory recorder still runs.
    pub postmortem: Option<std::path::PathBuf>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_connections: 64,
            max_queue_wait: Duration::from_millis(250),
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_frame_len: crate::frame::DEFAULT_MAX_FRAME_LEN,
            drain_deadline: Duration::from_secs(5),
            drain_linger: Duration::from_millis(100),
            tick: Duration::from_millis(10),
            postmortem: None,
        }
    }
}

/// What [`NetServer::run`] observed while shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when the drain deadline expired and in-flight evaluations were
    /// hard-cancelled.
    pub forced: bool,
    /// Connections still open when the server returned (0 unless a handler
    /// thread was wedged beyond even the forced grace).
    pub remaining_connections: usize,
}

/// State shared between the accept loop, connection threads, and shutdown
/// handles.
#[derive(Debug)]
struct Shared {
    service: Arc<QueryService>,
    config: NetConfig,
    draining: AtomicBool,
    /// Set when the drain deadline expires: connections abandon politeness
    /// and close as soon as their current request returns.
    forced: AtomicBool,
    /// Threaded into every request budget; cancelled on forced shutdown.
    hard_cancel: CancelToken,
    /// When the drain started; `None` while not draining.
    drain_started: Mutex<Option<Instant>>,
    active: Mutex<usize>,
    idle: Condvar,
    started: Instant,
}

impl Shared {
    fn active_count(&self) -> usize {
        *self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn connection_opened(&self) {
        *self.active.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn connection_closed(&self) {
        let mut active = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        *active = active.saturating_sub(1);
        if *active == 0 {
            self.idle.notify_all();
        }
    }

    /// Waits until no connection remains or `deadline` passes; true on idle.
    fn wait_idle_until(&self, deadline: Instant) -> bool {
        let mut active = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        while *active > 0 {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .idle
                .wait_timeout(active, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            active = guard;
        }
        true
    }

    fn drain_elapsed(&self) -> Option<Duration> {
        self.drain_started
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|t| t.elapsed())
    }

    /// Dumps the service's flight recorder to the configured postmortem
    /// file. Called on handler/connection panics and forced drains; a
    /// no-op unless [`NetConfig::postmortem`] is set. The dump is a
    /// point-in-time overwrite — the last incident wins, which is the one
    /// an operator debugging a crash loop wants.
    fn dump_postmortem(&self, cause: &'static str) {
        let Some(path) = &self.config.postmortem else {
            return;
        };
        let dump = self.service.postmortem_jsonl();
        let outcome = match std::fs::write(path, dump.as_bytes()) {
            Ok(()) => "written",
            Err(_) => "write_failed",
        };
        self.service.obs().event(
            "net.postmortem",
            &[
                ("cause", field::st(cause)),
                ("outcome", field::st(outcome)),
                ("bytes", field::uz(dump.len())),
            ],
        );
    }
}

/// Control handle for a running [`NetServer`]; clone freely.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Starts a graceful drain: stop accepting, serve in-flight work to
    /// completion (bounded by the drain deadline), then close. Idempotent.
    pub fn drain(&self) {
        let mut started = self
            .shared
            .drain_started
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if started.is_none() {
            *started = Some(Instant::now());
        }
        drop(started);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared
            .service
            .obs()
            .event("net.drain", &[("phase", field::st("started"))]);
    }

    /// True once [`ShutdownHandle::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Open connections right now.
    pub fn active_connections(&self) -> usize {
        self.shared.active_count()
    }
}

/// A bound-but-not-yet-running TCP front end over a [`QueryService`].
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and prepares the server.
    pub fn bind(
        service: Arc<QueryService>,
        addr: &str,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                service,
                config,
                draining: AtomicBool::new(false),
                forced: AtomicBool::new(false),
                hard_cancel: CancelToken::new(),
                drain_started: Mutex::new(None),
                active: Mutex::new(0),
                idle: Condvar::new(),
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle for drains and health probes.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until drained; returns how shutdown went.
    pub fn run(self) -> io::Result<DrainReport> {
        let NetServer { listener, shared } = self;
        let tick = shared.config.tick;
        while !shared.draining.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => admit(&shared, stream),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(tick);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        drop(listener); // stop accepting
        let deadline = Instant::now() + shared.config.drain_deadline;
        let drained = shared.wait_idle_until(deadline);
        let mut forced = false;
        if !drained {
            // Past the deadline: cancel every in-flight evaluation (their
            // budgets carry the token) and give connections a short grace
            // to write their final (truncated) replies and close.
            forced = true;
            shared.forced.store(true, Ordering::SeqCst);
            shared.hard_cancel.cancel();
            shared.service.obs().event(
                "net.drain",
                &[
                    ("phase", field::st("forced")),
                    ("active", field::uz(shared.active_count())),
                ],
            );
            shared.wait_idle_until(Instant::now() + shared.config.drain_deadline);
            // A forced drain is an incident: capture what the server was
            // doing in the moments leading up to it.
            shared.dump_postmortem("forced_drain");
        }
        let remaining = shared.active_count();
        shared.service.obs().event(
            "net.drain",
            &[
                ("phase", field::st("complete")),
                ("forced", field::b(forced)),
                ("remaining", field::uz(remaining)),
            ],
        );
        Ok(DrainReport {
            forced,
            remaining_connections: remaining,
        })
    }

    /// Runs the server on a background thread; returns the control handle
    /// and the join handle yielding the [`DrainReport`].
    pub fn spawn(
        self,
    ) -> (
        ShutdownHandle,
        std::thread::JoinHandle<io::Result<DrainReport>>,
    ) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

/// Admits or sheds one freshly accepted connection.
fn admit(shared: &Arc<Shared>, mut stream: TcpStream) {
    let obs = shared.service.obs();
    let active = shared.active_count();
    if active >= shared.config.max_connections {
        obs.counter("recurs_net_connections_total", &[("result", "shed")], 1);
        if obs.enabled() {
            obs.event(
                "net.admission",
                &[("result", field::st("shed")), ("active", field::uz(active))],
            );
        }
        let reply = error_reply(
            "overloaded",
            "connection limit reached",
            Some(shared.config.retry_after_ms),
        );
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = crate::frame::write_frame(&mut stream, reply.as_bytes());
        return; // dropped: shed
    }
    obs.counter("recurs_net_connections_total", &[("result", "accepted")], 1);
    if obs.enabled() {
        obs.event(
            "net.admission",
            &[
                ("result", field::st("accepted")),
                ("active", field::uz(active + 1)),
            ],
        );
    }
    shared.connection_opened();
    let worker_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("recurs-net-conn".to_string())
        .spawn(move || {
            let shared = worker_shared;
            // Outer barrier: a panic that escapes the per-request barrier
            // kills this connection, never the server.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                connection_loop(&shared, &mut stream)
            }));
            if result.is_err() {
                shared.service.obs().counter(
                    "recurs_net_connections_total",
                    &[("result", "panicked")],
                    1,
                );
                shared.dump_postmortem("connection_panic");
            }
            shared.connection_closed();
        });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion): treat as shed.
        shared.connection_closed();
        shared.service.obs().counter(
            "recurs_net_connections_total",
            &[("result", "spawn_failed")],
            1,
        );
    }
}

/// Why the connection loop ended (observability label).
enum CloseReason {
    PeerClosed,
    Quit,
    Idle,
    Drained,
    Forced,
    ProtocolError,
    IoError,
    Torn,
}

impl CloseReason {
    fn label(&self) -> &'static str {
        match self {
            CloseReason::PeerClosed => "peer_closed",
            CloseReason::Quit => "quit",
            CloseReason::Idle => "idle",
            CloseReason::Drained => "drained",
            CloseReason::Forced => "forced",
            CloseReason::ProtocolError => "protocol_error",
            CloseReason::IoError => "io_error",
            CloseReason::Torn => "torn",
        }
    }
}

fn connection_loop(shared: &Shared, stream: &mut TcpStream) {
    let reason = serve_connection(shared, stream);
    shared.service.obs().counter(
        "recurs_net_connections_closed_total",
        &[("reason", reason.label())],
        1,
    );
}

fn serve_connection(shared: &Shared, stream: &mut TcpStream) -> CloseReason {
    let config = &shared.config;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.tick)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        return CloseReason::IoError;
    }
    // What every request on this connection is evaluated under: the
    // bounded admission wait, the frame as the longest reply, and the
    // forced-drain token.
    let opts = LineOptions {
        max_queue_wait: Some(config.max_queue_wait),
        retry_after_ms: config.retry_after_ms,
        cancel: Some(shared.hard_cancel.clone()),
        max_reply_len: Some(config.max_frame_len),
    };
    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();
    loop {
        if shared.forced.load(Ordering::SeqCst) {
            return CloseReason::Forced;
        }
        match reader.poll(stream, config.max_frame_len) {
            Ok(Poll::Frame(payload)) => {
                last_activity = Instant::now();
                match serve_frame(shared, &opts, stream, &payload) {
                    FrameServed::Continue => {}
                    FrameServed::Close(reason) => return reason,
                }
            }
            Ok(Poll::Pending) => {
                if last_activity.elapsed() >= config.idle_timeout {
                    // Slow-loris defense: no completed frame for too long
                    // (mid-frame dribble included). Tell the peer why, if
                    // it is still listening, then close.
                    let reply = error_reply("idle", "idle timeout, closing", None);
                    let _ = write_reply(stream, &reply);
                    return CloseReason::Idle;
                }
                if shared.draining.load(Ordering::SeqCst) && !reader.mid_frame() {
                    let lingered = shared
                        .drain_elapsed()
                        .is_some_and(|d| d >= config.drain_linger);
                    if lingered {
                        return CloseReason::Drained;
                    }
                }
            }
            Err(FrameError::Closed) => return CloseReason::PeerClosed,
            Err(FrameError::Truncated) => {
                frame_error(shared, "torn");
                return CloseReason::Torn;
            }
            Err(e @ FrameError::Oversized { .. }) => {
                // The stream cannot be resynchronized after a bogus length
                // claim: one typed reply, then close.
                frame_error(shared, "oversized");
                let reply = error_reply("protocol", &e.to_string(), None);
                let _ = write_reply(stream, &reply);
                return CloseReason::ProtocolError;
            }
            Err(FrameError::Io(_)) => return CloseReason::IoError,
        }
    }
}

/// Records one malformed/undecodable frame: counter plus a flight-recorder
/// event naming the defect, so postmortems show what the peer sent.
fn frame_error(shared: &Shared, reason: &'static str) {
    let obs = shared.service.obs();
    obs.counter("recurs_net_frame_errors_total", &[("reason", reason)], 1);
    if obs.enabled() {
        obs.event("net.frame_error", &[("reason", field::st(reason))]);
    }
}

/// What serving one frame decided about the connection.
enum FrameServed {
    Continue,
    Close(CloseReason),
}

fn serve_frame(
    shared: &Shared,
    opts: &LineOptions,
    stream: &mut TcpStream,
    payload: &[u8],
) -> FrameServed {
    let received = Instant::now();
    let obs = shared.service.obs();
    let (reply, result, close) = evaluate_frame(shared, opts, payload);
    // Answers are rendered to fit the frame; a `why` tree, `!explain` and
    // `!metrics` are as long as they are. What a peer with this ceiling
    // could not read is not sent: it gets the two lengths instead, and the
    // connection carries on.
    let max = shared.config.max_frame_len;
    let (reply, result) = if reply.len() > max {
        (proto::reply_too_large(reply.len(), max), "oversized")
    } else {
        (reply, result)
    };
    obs.counter("recurs_net_requests_total", &[("result", result)], 1);
    obs.observe(
        "recurs_net_request_seconds",
        &[],
        received.elapsed().as_secs_f64(),
    );
    if result == "shed" && obs.enabled() {
        obs.event("net.shed", &[("wait_us", field::us(received.elapsed()))]);
    }
    match write_reply(stream, &reply) {
        ReplyWrite::Ok => match close {
            Some(reason) => FrameServed::Close(reason),
            None => FrameServed::Continue,
        },
        ReplyWrite::Torn => FrameServed::Close(CloseReason::Torn),
        ReplyWrite::Failed => FrameServed::Close(CloseReason::IoError),
    }
}

/// Evaluates one frame: its reply, the `result` label it is counted
/// under, and whether the connection closes after it. The request line is
/// the serve protocol's to read; a frame that is not text, and `!health`,
/// are the only ones answered here.
fn evaluate_frame(
    shared: &Shared,
    opts: &LineOptions,
    payload: &[u8],
) -> (String, &'static str, Option<CloseReason>) {
    let line = match proto::request_text(payload) {
        Ok(line) => line,
        Err(msg) => {
            frame_error(shared, "malformed");
            return (error_reply("protocol", &msg, None), "error", None);
        }
    };
    if line.trim() == "!health" {
        let reply = proto::health_reply(
            shared.draining.load(Ordering::SeqCst),
            shared.active_count(),
            shared.started.elapsed(),
        );
        return (reply, "ok", None);
    }
    // Per-request barrier: a panic in parsing/evaluation becomes a typed
    // `internal` reply and the connection (and its pipelined successors)
    // keeps going.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(any(test, feature = "fault-inject"))]
        crate::fault::handler_start();
        handle_line_with(&shared.service, line, opts)
    }));
    match outcome {
        Ok((LineOutcome::Reply(reply), result)) => {
            if result == RequestResult::Malformed {
                frame_error(shared, "malformed");
            }
            (reply, result.label(), None)
        }
        // Over TCP every frame gets exactly one reply: silence (blank or
        // comment frame) is an explicit ack.
        Ok((LineOutcome::Silent, _)) => (proto::noop_reply(), "ok", None),
        Ok((LineOutcome::Quit, _)) => (proto::bye_reply(), "ok", Some(CloseReason::Quit)),
        Err(_) => {
            // The handler panicked: the connection survives, but the flight
            // recorder holds the lead-up — dump it while it is fresh.
            shared.dump_postmortem("handler_panic");
            let msg = "internal error: request handler panicked";
            (error_reply("internal", msg, None), "internal", None)
        }
    }
}

/// How writing a reply frame went.
enum ReplyWrite {
    Ok,
    /// Fault injection tore the frame; the connection must drop.
    #[cfg_attr(not(any(test, feature = "fault-inject")), allow(dead_code))]
    Torn,
    Failed,
}

fn write_reply(stream: &mut TcpStream, reply: &str) -> ReplyWrite {
    #[cfg(any(test, feature = "fault-inject"))]
    {
        if crate::fault::before_reply() == crate::fault::ReplyFault::Tear {
            let payload = reply.as_bytes();
            let len = payload.len() as u32;
            let mut torn = Vec::with_capacity(4 + payload.len() / 2);
            torn.extend_from_slice(&len.to_be_bytes());
            torn.extend_from_slice(&payload[..payload.len() / 2]);
            let _ = stream.write_all(&torn);
            let _ = stream.flush();
            return ReplyWrite::Torn;
        }
    }
    match crate::frame::write_frame(stream, reply.as_bytes()) {
        Ok(()) => ReplyWrite::Ok,
        Err(_) => ReplyWrite::Failed,
    }
}
