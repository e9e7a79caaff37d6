//! Admission control: a counting semaphore bounding concurrent evaluations.
//!
//! Every evaluating request — a query, `!explain`, `why` — acquires a permit
//! before it reads the snapshot and releases it on drop (RAII), so at most
//! `permits` evaluations run at once no matter how many threads call into
//! the service. Waiting is FIFO-ish (condvar wakeup
//! order); the time spent waiting is reported per query as `queue_wait` in
//! [`crate::stats::ServeStats`].

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A counting semaphore (std-only: mutex + condvar).
#[derive(Debug)]
pub(crate) struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    /// A semaphore with `permits` concurrent slots (floored at 1).
    pub(crate) fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    /// Waits for a slot — unboundedly when `max_wait` is `None`, else at
    /// most that long. Returns the slot and how long the caller queued for
    /// it, or `None` once a bounded wait expires: the caller sheds the
    /// request instead of queueing unboundedly. A bounded wait is strict: no
    /// caller blocks longer than `max_wait` (plus scheduler noise), which is
    /// the admission-fairness contract the network front end's shed/retry
    /// loop relies on.
    pub(crate) fn acquire(&self, max_wait: Option<Duration>) -> Option<(Permit<'_>, Duration)> {
        let start = Instant::now();
        let mut free = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = match max_wait {
                None => self
                    .available
                    .wait(free)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(bound) => {
                    let remaining = bound.checked_sub(start.elapsed())?;
                    let (guard, timeout) = self
                        .available
                        .wait_timeout(free, remaining)
                        .unwrap_or_else(PoisonError::into_inner);
                    if timeout.timed_out() && *guard == 0 {
                        return None;
                    }
                    guard
                }
            };
        }
        *free -= 1;
        // A wakeup consumed here cannot strand another waiter: permits are
        // only handed out under the lock, and every release notifies.
        Some((Permit { semaphore: self }, start.elapsed()))
    }
}

/// An acquired slot; dropping it releases the slot and wakes one waiter.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    semaphore: &'a Semaphore,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut free = self
            .semaphore
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *free += 1;
        self.semaphore.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn permits_bound_concurrency() {
        let sem = Arc::new(Semaphore::new(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sem, running, peak) = (sem.clone(), running.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let (_permit, _wait) = sem.acquire(None).unwrap();
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore over-admitted");
    }

    #[test]
    fn try_acquire_for_succeeds_immediately_when_free() {
        let sem = Semaphore::new(1);
        let (p, wait) = sem.acquire(Some(Duration::from_millis(1))).unwrap();
        assert!(wait < Duration::from_millis(50));
        drop(p);
    }

    #[test]
    fn try_acquire_for_times_out_with_a_bounded_wait() {
        let sem = Semaphore::new(1);
        let (_held, _) = sem.acquire(None).unwrap();
        let start = std::time::Instant::now();
        assert!(sem.acquire(Some(Duration::from_millis(30))).is_none());
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(25), "returned early");
        assert!(
            waited < Duration::from_secs(2),
            "wait must be bounded, took {waited:?}"
        );
    }

    #[test]
    fn try_acquire_for_picks_up_a_freed_permit() {
        let sem = Arc::new(Semaphore::new(1));
        let (held, _) = sem.acquire(None).unwrap();
        let sem2 = sem.clone();
        let waiter = std::thread::spawn(move || {
            sem2.acquire(Some(Duration::from_secs(5)))
                .map(|(_p, wait)| wait)
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        let waited = waiter.join().unwrap().expect("waiter should get the slot");
        assert!(waited >= Duration::from_millis(5), "waiter did not queue");
        assert!(waited < Duration::from_secs(5));
    }

    #[test]
    fn saturated_semaphore_never_starves_a_bounded_waiter() {
        // Admission fairness: with the semaphore permanently contended by
        // short critical sections, every bounded acquire either gets a slot
        // or returns within its bound — no waiter hangs past the ceiling.
        let sem = Arc::new(Semaphore::new(2));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let sem = sem.clone();
            handles.push(std::thread::spawn(move || {
                let mut max_wait = Duration::ZERO;
                for _ in 0..25 {
                    let start = std::time::Instant::now();
                    if let Some((_p, _)) = sem.acquire(Some(Duration::from_millis(200))) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    max_wait = max_wait.max(start.elapsed());
                }
                max_wait
            }));
        }
        for h in handles {
            let max_wait = h.join().unwrap();
            // Bound + critical section + generous scheduler slack.
            assert!(
                max_wait < Duration::from_secs(2),
                "a waiter was starved: {max_wait:?}"
            );
        }
    }

    #[test]
    fn dropping_a_permit_unblocks_a_waiter() {
        let sem = Arc::new(Semaphore::new(1));
        let (p, wait) = sem.acquire(None).unwrap();
        assert!(wait < Duration::from_secs(1));
        let sem2 = sem.clone();
        let waiter = std::thread::spawn(move || {
            let (_p, wait) = sem2.acquire(None).unwrap();
            wait
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(p);
        let waited = waiter.join().unwrap();
        assert!(waited >= Duration::from_millis(5), "waiter did not queue");
    }
}
