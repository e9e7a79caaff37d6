//! Fault injection for robustness tests: artificial slowdowns and a
//! transient mid-run trip, both fired from one place — the top of every
//! [`crate::drive_rounds`] round.
//!
//! Compiled only under `cfg(test)` or the `fault-inject` feature — release
//! builds without the feature contain none of these hooks. A test arms a
//! [`FaultPlan`] with [`arm`]; the returned [`FaultGuard`] holds a global
//! serialization gate (faulty tests must not overlap, the plan is process
//! global) and disarms the plan on drop, even if the test panics.

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
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static GATE: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `plan` for the duration of the returned guard. Tests that inject
/// faults are serialized on a global gate; the plan is disarmed when the
/// guard drops.
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let guard = quiesce();
    guard.rearm(plan);
    guard
}

/// Serializes a non-faulty test against armed fault plans: while the
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
    /// Replaces the armed plan while keeping the gate — for tests that run
    /// their fault-free set-up under [`quiesce`] and arm afterwards, or arm
    /// a fresh one-shot trip per step.
    pub fn rearm(&self, plan: FaultPlan) {
        *plan_lock() = Some(plan);
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
        let mut plan = plan_lock();
        match plan.as_mut() {
            None => (None, false),
            Some(p) => {
                let trip = p.trip_at_round.is_some_and(|at| round >= at);
                if trip {
                    p.trip_at_round = None; // consumed
                }
                (p.slowdown, trip)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_disarms_on_drop() {
        let armed = arm(FaultPlan {
            slowdown: Some(Duration::ZERO),
            ..FaultPlan::default()
        });
        assert!(plan_lock().is_some());
        drop(armed);
        let _g = quiesce();
        assert!(plan_lock().is_none());
    }

    #[test]
    fn unarmed_hooks_are_noops() {
        let _g = quiesce();
        assert!(!round_start(0, &Obs::noop()));
    }
}
