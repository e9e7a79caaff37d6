//! Fault injection for robustness tests: artificial slowdowns and a
//! transient mid-run trip fired at the top of every [`crate::drive_rounds`]
//! round, and the network front end's torn and stalled reply frames and
//! handler panics, all read from one plan.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature — release
//! builds without the feature contain none of these hooks. A test arms a
//! [`FaultPlan`] with [`arm`], or takes the gate first with [`quiesce`] and
//! arms later with [`FaultGuard::rearm`]; the returned [`FaultGuard`] holds a
//! global serialization gate (faulty tests must not overlap: the plan is
//! process global and counts every reply the process writes) and disarms the
//! plan on drop, even if the test panics.

use recurs_obs::{field, Obs};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One armed fault scenario.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Sleep this long at the start of every round (simulates a slow round,
    /// for deadline tests).
    pub slowdown: Option<Duration>,
    /// The first driver call to reach this round (0-based within the call)
    /// stops there as if cancelled. One-shot: the trip disarms itself when
    /// it fires, so whatever recovers from it (a cold rebuild, a retry) is
    /// not re-tripped — the fault it models is transient.
    pub trip_at_round: Option<u64>,
    /// After this many clean replies (counted over the whole process while
    /// the plan is armed), write only the first half of the next reply
    /// frame and drop the connection (torn frame seen by the client).
    pub tear_reply_after: Option<usize>,
    /// Sleep this long before every reply write (stalled socket; exercises
    /// client read timeouts and the drain deadline).
    pub stall_reply: Option<Duration>,
    /// Panic inside the next request handler, once. Exercises the
    /// per-request `catch_unwind` barrier: the connection must answer with
    /// a typed `internal` error, not die or kill the server.
    pub panic_in_handler: bool,
}

#[derive(Debug)]
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
    let guard = quiesce();
    guard.rearm(plan);
    guard
}

/// Serializes a fault-free test against armed fault plans: while the
/// returned guard lives, no fault plan can be armed (and none is armed).
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
    /// at zero, while keeping the gate — for tests that run their fault-free
    /// set-up under [`quiesce`] and arm afterwards, or arm a fresh one-shot
    /// fault per step. `FaultPlan::default()` injects nothing.
    pub fn rearm(&self, plan: FaultPlan) {
        *plan_lock() = Some(Armed {
            plan,
            replies_written: 0,
        });
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *plan_lock() = None;
    }
}

/// Hook called by the driver at the top of each round. Sleeps if a slowdown
/// is armed; returns true when the armed trip fires at this round. Each
/// injected action is announced as a `fault.injected` trace event, which
/// makes injected failures distinguishable from organic ones in a trace.
pub(crate) fn round_start(round: u64, obs: &Obs) -> bool {
    // Decide under the plan lock, act outside it.
    let (sleep, trip) = {
        let mut armed = plan_lock();
        match armed.as_mut() {
            None => (None, false),
            Some(Armed { plan, .. }) => {
                let trip = plan.trip_at_round.is_some_and(|at| round >= at);
                if trip {
                    plan.trip_at_round = None; // consumed
                }
                (plan.slowdown, trip)
            }
        }
    };
    if let Some(d) = sleep {
        announce(obs, "slowdown", round, d);
        std::thread::sleep(d);
    }
    if trip {
        announce(obs, "trip", round, Duration::ZERO);
    }
    trip
}

fn announce(obs: &Obs, kind: &'static str, round: u64, pause: Duration) {
    if obs.enabled() {
        obs.event(
            "fault.injected",
            &[
                ("kind", field::st(kind)),
                ("site", field::st("round")),
                ("round", field::u(round)),
                ("duration_us", field::us(pause)),
            ],
        );
    }
}

/// Hook the network front end calls before each reply write. May sleep
/// (stall), outside the plan lock; true when this frame is to be torn.
pub fn before_reply() -> bool {
    let (stall, tear) = {
        let mut armed = plan_lock();
        match armed.as_mut() {
            None => (None, false),
            Some(a) => {
                let tear = a
                    .plan
                    .tear_reply_after
                    .is_some_and(|n| a.replies_written >= n);
                a.replies_written += 1;
                (a.plan.stall_reply, tear)
            }
        }
    };
    if let Some(d) = stall {
        std::thread::sleep(d);
    }
    tear
}

/// Hook the network front end calls at the start of each request handler.
/// Panics once if the armed plan asks for it (the flag is consumed under the
/// lock, so the panic itself unwinds outside it and cannot poison the plan).
pub fn handler_start() {
    let panic = plan_lock()
        .as_mut()
        .is_some_and(|a| std::mem::take(&mut a.plan.panic_in_handler));
    if panic {
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
                slowdown: Some(Duration::ZERO),
                tear_reply_after: Some(0),
                ..FaultPlan::default()
            });
            assert!(before_reply());
        }
        let _g = quiesce();
        assert!(plan_lock().is_none());
        assert!(!before_reply());
    }

    #[test]
    fn tear_fires_only_after_the_threshold() {
        let _g = arm(FaultPlan {
            tear_reply_after: Some(2),
            ..FaultPlan::default()
        });
        assert!(!before_reply());
        assert!(!before_reply());
        assert!(before_reply());
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
        let guard = quiesce();
        assert!(!before_reply());
        guard.rearm(FaultPlan {
            tear_reply_after: Some(1),
            ..FaultPlan::default()
        });
        assert!(!before_reply());
        assert!(before_reply());
        guard.rearm(FaultPlan::default());
        assert!(!before_reply());
    }

    #[test]
    fn unarmed_hooks_are_noops() {
        let _g = quiesce();
        assert!(!round_start(0, &Obs::noop()));
        assert!(!before_reply());
        handler_start();
    }
}
