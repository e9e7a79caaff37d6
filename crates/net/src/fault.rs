//! Network-layer fault injection, mirroring `recurs_engine::fault`: torn
//! reply frames, stalled reply writes, and handler panics at configurable
//! points, armed process-globally for the duration of a guard.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature. The chaos
//! suite arms a [`FaultPlan`] with [`arm`], or takes the gate first with
//! [`quiesce`] and arms later with [`FaultGuard::rearm`]; the guard holds a
//! global serialization gate (plans are process global and count every reply
//! the process writes, so a test's frames are only safe while it holds the
//! gate) and disarms on drop even if the test panics.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One armed network fault scenario. Counters count *replies written by the
/// whole process* while the plan is armed, so chaos tests run one server at
/// a time (the gate enforces this).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// After this many clean replies, write only the first half of the next
    /// reply frame and drop the connection (torn frame seen by the client).
    pub tear_reply_after: Option<usize>,
    /// Sleep this long before every reply write (stalled socket; exercises
    /// client read timeouts and the drain deadline).
    pub stall_reply: Option<Duration>,
    /// Panic inside the next request handler, once. Exercises the
    /// per-request `catch_unwind` barrier: the connection must answer with
    /// a typed `internal` error, not die or kill the server.
    pub panic_in_handler: bool,
}

#[derive(Debug, Default)]
struct Armed {
    plan: FaultPlan,
    replies_written: usize,
}

static PLAN: Mutex<Option<Armed>> = Mutex::new(None);
static GATE: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, Option<Armed>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan` for the duration of the returned guard; see the module docs.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let mut guard = quiesce();
    guard.rearm(plan);
    guard
}

/// Serializes a fault-free test against armed plans: while the guard lives
/// no plan is armed and none can be.
pub fn quiesce() -> FaultGuard {
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    FaultGuard { _gate: gate }
}

/// RAII guard of an armed [`FaultPlan`]; see [`arm`].
#[derive(Debug)]
pub struct FaultGuard {
    _gate: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Arms `plan` in place of whatever is armed, its reply count starting
    /// at zero, without letting go of the gate.
    pub fn rearm(&mut self, plan: FaultPlan) {
        *plan_lock() = Some(Armed {
            plan,
            replies_written: 0,
        });
    }

    /// Disarms the plan and keeps the gate.
    pub fn disarm(&mut self) {
        *plan_lock() = None;
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *plan_lock() = None;
    }
}

/// What the connection loop must do to the reply it is about to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyFault {
    /// Write the frame normally.
    Clean,
    /// Write only the first half of the frame, then drop the connection.
    Tear,
}

/// Hook called before each reply write. May sleep (stall), and says whether
/// to tear this frame. The sleep runs outside the plan lock.
pub fn before_reply() -> ReplyFault {
    let (stall, fault) = {
        let mut armed = plan_lock();
        match armed.as_mut() {
            None => (None, ReplyFault::Clean),
            Some(a) => {
                let fault = match a.plan.tear_reply_after {
                    Some(n) if a.replies_written >= n => ReplyFault::Tear,
                    _ => ReplyFault::Clean,
                };
                a.replies_written += 1;
                (a.plan.stall_reply, fault)
            }
        }
    };
    if let Some(d) = stall {
        std::thread::sleep(d);
    }
    fault
}

/// Hook called at the start of each request handler. Panics once if the
/// armed plan asks for it (the flag is consumed under the lock, so the
/// panic itself unwinds outside it and cannot poison the plan).
pub fn handler_start() {
    let do_panic = {
        let mut armed = plan_lock();
        match armed.as_mut() {
            Some(a) if a.plan.panic_in_handler => {
                a.plan.panic_in_handler = false; // consumed
                true
            }
            _ => false,
        }
    };
    if do_panic {
        panic!("injected fault: handler panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _g = arm(FaultPlan {
                tear_reply_after: Some(0),
                ..FaultPlan::default()
            });
            assert_eq!(before_reply(), ReplyFault::Tear);
        }
        assert_eq!(before_reply(), ReplyFault::Clean);
    }

    #[test]
    fn tear_fires_only_after_the_threshold() {
        let _g = arm(FaultPlan {
            tear_reply_after: Some(2),
            ..FaultPlan::default()
        });
        assert_eq!(before_reply(), ReplyFault::Clean);
        assert_eq!(before_reply(), ReplyFault::Clean);
        assert_eq!(before_reply(), ReplyFault::Tear);
    }

    #[test]
    fn handler_panic_is_consumed_and_does_not_poison() {
        let _g = arm(FaultPlan {
            panic_in_handler: true,
            ..FaultPlan::default()
        });
        assert!(std::panic::catch_unwind(handler_start).is_err());
        handler_start(); // consumed: clean second call
    }

    #[test]
    fn rearming_under_the_gate_restarts_the_count() {
        let mut guard = quiesce();
        assert_eq!(before_reply(), ReplyFault::Clean);
        guard.rearm(FaultPlan {
            tear_reply_after: Some(1),
            ..FaultPlan::default()
        });
        assert_eq!(before_reply(), ReplyFault::Clean);
        assert_eq!(before_reply(), ReplyFault::Tear);
        guard.disarm();
        assert_eq!(before_reply(), ReplyFault::Clean);
    }

    #[test]
    fn unarmed_hooks_are_noops() {
        let _g = quiesce();
        assert_eq!(before_reply(), ReplyFault::Clean);
        handler_start();
    }
}
