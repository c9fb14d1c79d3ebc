//! A deadlock-detecting ad hoc lock — the §6 development-support
//! extension for Finding 5.
//!
//! The paper observes that ad hoc transactions "are invisible to the
//! database's deadlock detector": when two requests take two application
//! locks in opposite orders, nothing aborts either side — they stall until
//! a timeout (§3.3.1). The studied applications cope by hand-maintained
//! ordering disciplines. [`WatchdogLock`] restores what the database lost:
//! it keeps a wait-for graph over the application's lock keys and fails a
//! would-be-cyclic acquisition immediately with
//! [`LockError::Deadlock`], which the toolkit
//! classifies as retryable — the same victim-aborts-and-retries contract
//! database transactions get.
//!
//! The graph lives in the shared [`LockTable`](super::mem): `WD` is the
//! one front end that names its requesting thread, which turns the
//! table's cycle check on.

use super::mem::{Flavor, LockTable};
use super::{AcquireConfig, Guard, LockError};
use adhoc_sim::{Deadline, RealClock};
use std::sync::Arc;

/// Process-local exclusive lock with wait-for-graph deadlock detection.
///
/// Same keyed-mutual-exclusion contract as [`MemLock`](super::MemLock),
/// plus: an acquisition that would complete a wait cycle — including
/// re-locking a key the calling thread already holds — fails immediately
/// with [`LockError::Deadlock`] instead of
/// stalling to the timeout. The requester is the victim, matching the
/// engines' policy.
///
/// The wait-for graph is built over threads, so a guard should be released
/// by the thread that acquired it; moving a guard across threads keeps
/// mutual exclusion intact but can make deadlock reports miss or misfire
/// (the stale edge points at the acquiring thread).
#[derive(Debug, Default)]
pub struct WatchdogLock {
    table: Arc<LockTable>,
    config: AcquireConfig,
}

impl WatchdogLock {
    /// A fresh watchdog-guarded lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the acquisition policy (timeout still applies to plain,
    /// acyclic contention — e.g. a leaked guard).
    pub fn with_config(mut self, config: AcquireConfig) -> Self {
        self.config = config;
        self
    }
}

impl super::AdHocLock for WatchdogLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        let clock = RealClock::shared();
        let deadline = Deadline::after(clock.as_ref(), self.config.timeout);
        self.table.lock(
            key,
            Some(&(clock, deadline)),
            Some(std::thread::current().id()),
            Flavor::Watchdog,
        )
    }

    fn label(&self) -> &'static str {
        "WD"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{mutual_exclusion_trial, AdHocLock};
    use super::*;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn quick() -> WatchdogLock {
        WatchdogLock::new().with_config(AcquireConfig {
            retry_interval: Duration::from_micros(100),
            timeout: Duration::from_secs(10),
        })
    }

    #[test]
    fn provides_mutual_exclusion() {
        let lock = WatchdogLock::new();
        assert_eq!(mutual_exclusion_trial(&lock, "k", 4, 50), 200);
    }

    #[test]
    fn opposite_order_acquisition_is_detected_not_stalled() {
        let lock = Arc::new(quick());
        let barrier = Arc::new(Barrier::new(2));
        let started = Instant::now();
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            [("a", "b"), ("b", "a")]
                .into_iter()
                .map(|(first, second)| {
                    let lock = Arc::clone(&lock);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let g1 = lock.lock(first).unwrap();
                        barrier.wait(); // both hold their first key
                        match lock.lock(second) {
                            Ok(g2) => {
                                g2.unlock().unwrap();
                                g1.unlock().unwrap();
                                false
                            }
                            Err(LockError::Deadlock { .. }) => {
                                g1.unlock().unwrap();
                                true
                            }
                            Err(e) => panic!("expected deadlock, got {e}"),
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(
            outcomes.iter().filter(|v| **v).count(),
            1,
            "exactly one victim"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "detected, not timed out"
        );
    }

    #[test]
    fn three_way_cycle_is_detected() {
        let lock = Arc::new(quick());
        let barrier = Arc::new(Barrier::new(3));
        let victims: usize = std::thread::scope(|s| {
            [("a", "b"), ("b", "c"), ("c", "a")]
                .into_iter()
                .map(|(first, second)| {
                    let lock = Arc::clone(&lock);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let g1 = lock.lock(first).unwrap();
                        barrier.wait();
                        let victim = match lock.lock(second) {
                            Ok(g2) => {
                                g2.unlock().unwrap();
                                false
                            }
                            Err(LockError::Deadlock { .. }) => true,
                            Err(e) => panic!("unexpected: {e}"),
                        };
                        g1.unlock().unwrap();
                        victim as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(victims >= 1, "at least one victim breaks the cycle");
        assert!(victims <= 2, "not everyone needs to die");
    }

    #[test]
    fn consistent_ordering_never_false_positives() {
        // Finding 5's discipline: everyone takes a before b. No deadlock
        // errors may surface.
        let lock = Arc::new(quick());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..25 {
                        let g1 = lock.lock("a").unwrap();
                        let g2 = lock.lock("b").unwrap();
                        g2.unlock().unwrap();
                        g1.unlock().unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn self_relock_is_an_immediate_deadlock() {
        let lock = quick();
        let g = lock.lock("k").unwrap();
        assert!(matches!(lock.lock("k"), Err(LockError::Deadlock { .. })));
        g.unlock().unwrap();
        lock.lock("k").unwrap().unlock().unwrap();
    }

    #[test]
    fn leaked_guard_times_out_contenders_without_deadlock_report() {
        let lock = WatchdogLock::new().with_config(AcquireConfig {
            retry_interval: Duration::from_micros(100),
            timeout: Duration::from_millis(30),
        });
        // Leak from another thread: the "crashed" holder is gone, so the
        // watchdog sees a stuck holder (no cycle), and contenders time out.
        let lock = Arc::new(lock);
        {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || lock.lock("k").unwrap().leak())
                .join()
                .unwrap();
        }
        assert!(matches!(lock.lock("k"), Err(LockError::Timeout { .. })));
    }

    #[test]
    fn unlock_notifies_waiters() {
        let lock = Arc::new(quick());
        let g = lock.lock("k").unwrap();
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || lock.lock("k").unwrap().unlock().unwrap())
        };
        std::thread::sleep(Duration::from_millis(5));
        g.unlock().unwrap();
        waiter.join().unwrap();
    }
}
