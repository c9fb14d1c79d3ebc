//! The seven ad hoc lock implementations (§3.2.1, Figure 2) behind one
//! trait.
//!
//! Every implementation is correct by default. The specific defects the
//! paper found in the wild (§4.1.1) are reproduced behind explicit
//! fault-injection switches on each type, so tests and the bug gallery can
//! demonstrate both the failure and the fix:
//!
//! | Switch | Paper bug |
//! |---|---|
//! | [`sync::SyncLock::synchronize_on_thread_local`] | SCM Suite synchronizes on thread-local ORM objects — no mutual exclusion |
//! | [`mem::MemLruLock`] capacity | Broadleaf's LRU-evicting lock table drops held locks |
//! | [`kv::KvSetNxLock::with_ttl`] + not checking [`Guard::is_valid`] | Mastodon's lease expires mid-critical-section, unchecked |
//! | [`db::SfuLock::outside_transaction`] | Spree's `SELECT FOR UPDATE` without an enclosing transaction releases immediately |
//! | [`db::DbTableLock::ignore_boot_uuid`] | Without the boot-UUID check, pre-crash locks deadlock the reboot |
//!
//! The four in-process labels — `MEM`, `MEM-LRU`, `SYNC` and the
//! watchdog's `WD` — are front ends over one keyed lock table in [`mem`]:
//! one mutex, one condvar, one wait loop that yields to the deterministic
//! scheduler. What stays per type: `MEM-LRU`'s capacity (eviction revokes
//! held entries), `MEM`'s grant as fencing token, `SYNC`'s per-thread
//! tables under the fault switch and its release on `leak`, and `WD`'s
//! wait-for-graph cycle check, `NotHeld` on a lost release and timeout.

//! # Example
//!
//! ```
//! use adhoc_core::locks::{AdHocLock, MemLock};
//!
//! let lock = MemLock::new();
//! let guard = lock.lock("cart:1")?;
//! // ... the Figure 1a critical section ...
//! assert!(guard.is_valid());
//! guard.unlock()?;
//! # Ok::<(), adhoc_core::locks::LockError>(())
//! ```

pub mod db;
pub mod kv;
pub mod mem;
pub mod sync;
pub mod watchdog;

use adhoc_sim::{BackoffPolicy, RetryPolicy};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use db::{DbTableLock, SfuLock};
pub use kv::{KvMultiLock, KvSetNxLock};
pub use mem::{MemLock, MemLruLock};
pub use sync::SyncLock;
pub use watchdog::WatchdogLock;

/// Errors from lock operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Could not acquire within the configured timeout.
    Timeout {
        /// The contended lock key.
        key: String,
    },
    /// The backing system failed (database/KV error text).
    Backend(String),
    /// Unlock of a lock this guard no longer holds.
    NotHeld {
        /// The lock key that was no longer held.
        key: String,
    },
    /// Granting the lock would complete a wait cycle; the requester is the
    /// victim and should retry ([`WatchdogLock`]).
    Deadlock {
        /// The lock key whose acquisition closed the cycle.
        key: String,
    },
    /// An [`AcquireConfig`] that could never acquire under contention
    /// (e.g. a retry interval at or beyond the timeout).
    InvalidConfig {
        /// Why the configuration was rejected.
        reason: String,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout { key } => write!(f, "timed out acquiring lock {key:?}"),
            LockError::Backend(msg) => write!(f, "lock backend error: {msg}"),
            LockError::NotHeld { key } => write!(f, "lock {key:?} is not held by this guard"),
            LockError::Deadlock { key } => {
                write!(
                    f,
                    "acquiring lock {key:?} would deadlock; requester aborted"
                )
            }
            LockError::InvalidConfig { reason } => {
                write!(f, "invalid acquire configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for LockError {}

/// Acquisition policy shared by the blocking implementations that poll
/// (KV and table-based locks have no wait queue to park on).
#[derive(Debug, Clone, Copy)]
pub struct AcquireConfig {
    /// Delay between acquisition attempts.
    pub retry_interval: Duration,
    /// Give up (with [`LockError::Timeout`]) after this long.
    pub timeout: Duration,
}

impl AcquireConfig {
    /// A validated configuration. Rejects a retry interval at or beyond
    /// the timeout: such a config times out on its *first* contended
    /// retry, a silent misconfiguration several studied applications
    /// shipped variants of.
    pub fn new(retry_interval: Duration, timeout: Duration) -> Result<Self, LockError> {
        if timeout.is_zero() {
            return Err(LockError::InvalidConfig {
                reason: "timeout must be non-zero".into(),
            });
        }
        if retry_interval >= timeout {
            return Err(LockError::InvalidConfig {
                reason: format!(
                    "retry interval ({retry_interval:?}) must be shorter than the \
                     timeout ({timeout:?})"
                ),
            });
        }
        Ok(Self {
            retry_interval,
            timeout,
        })
    }

    /// The equivalent [`RetryPolicy`]: fixed-interval polling until the
    /// timeout, with ±25% deterministic jitter so contending acquirers
    /// don't re-collide in lockstep.
    pub fn policy(&self) -> RetryPolicy {
        RetryPolicy::fixed(self.retry_interval, self.timeout).with_backoff(
            BackoffPolicy::fixed(self.retry_interval)
                .with_jitter(0.25)
                .with_seed(adhoc_sim::rng::DEFAULT_SEED),
        )
    }
}

impl Default for AcquireConfig {
    fn default() -> Self {
        Self {
            retry_interval: Duration::from_millis(5),
            timeout: Duration::from_secs(10),
        }
    }
}

/// What a held lock can do. Implementations are driven through
/// [`Guard`], which owns the boxed state.
pub trait LockGuard: Send {
    /// Release the lock. Idempotent: a second call is a no-op `Ok`.
    fn unlock(&mut self) -> Result<(), LockError>;

    /// Is the lock still held by this guard? Lease-based locks (TTL'd
    /// Redis entries, LRU-evictable tables) can answer `false` — the check
    /// Mastodon forgot to make (§4.1.1).
    fn is_valid(&self) -> bool;

    /// Stop releasing on drop — simulates the holder crashing while inside
    /// the critical section (§3.4.2 crash handling).
    fn leak(&mut self);

    /// The monotonic fencing token granted with this hold, when the
    /// implementation supports fencing (see
    /// [`KvSetNxLock::with_fencing`](kv::KvSetNxLock::with_fencing)).
    /// Guarded writes carry it so the storage side can reject a zombie
    /// holder whose lease was silently re-granted — the robust fix for the
    /// TTL-steal bug, stronger than the advisory `is_valid` check.
    fn fencing_token(&self) -> Option<u64> {
        None
    }
}

/// An owned, droppable lock guard. Dropping releases the lock unless
/// [`Guard::leak`] was called.
pub struct Guard(Box<dyn LockGuard>);

impl Guard {
    /// Wrap an implementation-specific guard.
    pub fn new(inner: Box<dyn LockGuard>) -> Self {
        Self(inner)
    }

    /// Explicit release (the `unlock()` of the paper's listings).
    pub fn unlock(mut self) -> Result<(), LockError> {
        self.0.unlock()
    }

    /// Whether the lease is still held (correct lease users check this
    /// before committing their critical section's writes).
    pub fn is_valid(&self) -> bool {
        self.0.is_valid()
    }

    /// Simulate the holder crashing: the lock is never released by us.
    pub fn leak(mut self) {
        self.0.leak();
    }

    /// The fencing token granted with this hold, when the implementation
    /// supports fencing (`None` otherwise).
    pub fn fencing_token(&self) -> Option<u64> {
        self.0.fencing_token()
    }
}

/// Unlock errors swallowed by [`Guard`]'s `Drop` impl, process-wide.
static DROPPED_UNLOCK_ERRORS: AtomicU64 = AtomicU64::new(0);

/// How many unlock errors `Drop` has silently discarded so far.
///
/// A drop cannot propagate an error, but losing one silently is exactly
/// the failure-handling blind spot §3.4 documents (an expired lease's
/// owner-checked release failing with [`LockError::NotHeld`], a lock
/// table unreachable at release). Tests and the harness watch this
/// counter to prove the path is at least observed.
pub fn dropped_unlock_errors() -> u64 {
    DROPPED_UNLOCK_ERRORS.load(Ordering::Relaxed)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0.unlock().is_err() {
            DROPPED_UNLOCK_ERRORS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("valid", &self.is_valid())
            .finish()
    }
}

/// An ad hoc lock implementation: string-keyed, exclusive.
pub trait AdHocLock: Send + Sync {
    /// Block until the lock on `key` is acquired (or the policy times out).
    fn lock(&self, key: &str) -> Result<Guard, LockError>;

    /// Figure 2 label of this implementation.
    fn label(&self) -> &'static str;
}

/// Exercise any implementation with `threads × iterations` increments of an
/// unsynchronized counter. Returns the final count; equal to
/// `threads * iterations` iff the lock provided mutual exclusion. Shared by
/// the per-implementation test suites and the bug gallery.
pub fn mutual_exclusion_trial(
    lock: &dyn AdHocLock,
    key: &str,
    threads: usize,
    iterations: usize,
) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counter = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..iterations {
                    let guard = lock.lock(key).expect("acquire");
                    // Deliberately racy read-modify-write with a widened
                    // window: only mutual exclusion makes it add up.
                    let v = counter.load(Ordering::Relaxed);
                    std::thread::yield_now();
                    counter.store(v + 1, Ordering::Relaxed);
                    guard.unlock().expect("release");
                }
            });
        }
    });
    counter.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_config_defaults_are_sane() {
        let c = AcquireConfig::default();
        assert!(c.retry_interval < c.timeout);
    }

    #[test]
    fn lock_error_display() {
        assert!(LockError::Timeout { key: "k".into() }
            .to_string()
            .contains("k"));
        assert!(LockError::Backend("boom".into())
            .to_string()
            .contains("boom"));
        assert!(LockError::NotHeld { key: "k".into() }
            .to_string()
            .contains("not held"));
        assert!(LockError::Deadlock { key: "k".into() }
            .to_string()
            .contains("deadlock"));
    }
}
