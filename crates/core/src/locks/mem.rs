//! The in-process keyed lock table, and `MEM` / `MEM-LRU`: Broadleaf's
//! in-memory map lock tables (§3.2.1).
//!
//! `MEM` keeps lock entries in a concurrent map keyed by lock name —
//! equivalent to a `ConcurrentHashMap`-based table. `MEM-LRU` is the
//! customized variant where "developers added a least recently used (LRU)
//! eviction policy to remove excessive lock entries": when the table
//! exceeds its capacity, the least-recently-acquired entries are evicted
//! *even if currently held*, silently revoking the lock (§4.1.1, issue
//! \[66\] — users "not paying for concurrently added items").
//!
//! The table (`LockTable`) is the toolkit's one in-process wait loop: `SYNC`
//! ([`SyncLock`](super::SyncLock)) and `WD`
//! ([`WatchdogLock`](super::WatchdogLock)) grant, wait, release and check
//! validity through it too, so every in-process lock yields to the
//! deterministic scheduler where it would block.

use super::{AdHocLock, Guard, LockError, LockGuard};
use adhoc_sim::{Deadline, SharedClock};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// An acquisition deadline on a shared clock (`WD`'s timeout): checked on
/// every wakeup of the table's condvar wait (and on every cooperative
/// yield under the deterministic scheduler).
pub(crate) type WaitBound = (SharedClock, Deadline);

/// State of one lock table entry.
#[derive(Debug, Clone)]
struct Entry {
    /// Fencing token: increments on every grant, so a revoked-then-
    /// re-granted entry is distinguishable from the original.
    grant: u64,
    /// Recency stamp for LRU eviction.
    last_used: u64,
    /// The holding thread, when the acquirer asked for deadlock detection
    /// (the wait-for graph is built over threads).
    holder: Option<ThreadId>,
}

#[derive(Debug, Default)]
struct TableInner {
    entries: HashMap<String, Entry>,
    /// thread → key it is currently blocked on.
    waiting_for: HashMap<ThreadId, String>,
    grant_counter: u64,
    use_counter: u64,
    evictions: u64,
}

impl TableInner {
    /// Would `requester` blocking on `key` close a cycle? Walk
    /// holder-of(key) → key-it-waits-for → holder-of(that) … until the
    /// chain ends or reaches the requester.
    fn would_deadlock(&self, requester: ThreadId, key: &str) -> bool {
        let mut cursor = match self.entries.get(key).and_then(|e| e.holder) {
            Some(thread) => thread,
            None => return false,
        };
        // Bounded by the number of blocked threads; the graph is a
        // functional chain (each thread waits on at most one key).
        for _ in 0..=self.waiting_for.len() {
            if cursor == requester {
                return true;
            }
            let Some(next_key) = self.waiting_for.get(&cursor) else {
                return false;
            };
            let Some(next) = self.entries.get(next_key).and_then(|e| e.holder) else {
                return false;
            };
            cursor = next;
        }
        false
    }
}

/// How a front end's guards behave once granted — the only thing the four
/// table-backed locks do differently after the shared acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flavor {
    /// `MEM`/`MEM-LRU`: the grant doubles as a fencing token; releasing a
    /// revoked grant is a silent no-op.
    Mem,
    /// `SYNC`: a monitor dies with its process, so a leaked guard releases.
    Sync,
    /// `WD`: releasing a grant that is no longer ours reports `NotHeld`.
    Watchdog,
}

/// A keyed exclusive lock table: one mutex, one condvar, one wait loop.
#[derive(Debug, Default)]
pub(crate) struct LockTable {
    inner: Mutex<TableInner>,
    cv: Condvar,
    /// `None` = unbounded; `Some(cap)` = LRU-evicting (`MEM-LRU`).
    capacity: Option<usize>,
}

impl LockTable {
    /// Block until `key` is free (or `bound` expires), then grant it.
    ///
    /// With `requester` set (only `WD` sets it) a contended acquire first
    /// fails with [`LockError::Deadlock`] when waiting would close a cycle
    /// in the wait-for graph, then registers its wait-for edge for the
    /// whole wait — cooperative yields included, so the explorer sees
    /// cycles too.
    fn acquire(
        &self,
        key: &str,
        bound: Option<&WaitBound>,
        requester: Option<ThreadId>,
    ) -> Result<u64, LockError> {
        let mut inner = self.inner.lock();
        let waited = loop {
            if !inner.entries.contains_key(key) {
                break Ok(());
            }
            if let Some(me) = requester {
                if inner.would_deadlock(me, key) {
                    break Err(LockError::Deadlock {
                        key: key.to_string(),
                    });
                }
                inner
                    .waiting_for
                    .entry(me)
                    .or_insert_with(|| key.to_string());
            }
            if let Some((clock, deadline)) = bound {
                if deadline.expired(clock.as_ref()) {
                    break Err(LockError::Timeout {
                        key: key.to_string(),
                    });
                }
            }
            if adhoc_sim::sched::under_scheduler() {
                // Deterministically scheduled task: the holder only runs
                // when the scheduler picks it, so waiting on the condvar
                // would deadlock the trial. Yield cooperatively instead.
                drop(inner);
                adhoc_sim::sched::yield_point(adhoc_sim::sched::SchedPoint::LockWait);
                inner = self.inner.lock();
                continue;
            }
            match bound {
                // Bounded wait: wake at least every 10 ms to re-evaluate
                // the deadline (the clock may be virtual, so a real-time
                // wait cannot be trusted to cover the remaining span).
                Some((clock, deadline)) => {
                    let slice = deadline
                        .remaining(clock.as_ref())
                        .min(Duration::from_millis(10));
                    self.cv.wait_for(&mut inner, slice);
                }
                None => {
                    self.cv.wait(&mut inner);
                }
            }
        };
        if let Some(me) = requester {
            inner.waiting_for.remove(&me);
        }
        waited?;
        inner.grant_counter += 1;
        inner.use_counter += 1;
        let entry = Entry {
            grant: inner.grant_counter,
            last_used: inner.use_counter,
            holder: requester,
        };
        let grant = entry.grant;
        inner.entries.insert(key.to_string(), entry);
        if let Some(cap) = self.capacity {
            while inner.entries.len() > cap {
                // Evict the least recently used entry — even when that
                // entry is a lock somebody is holding right now.
                let victim = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty over capacity");
                inner.entries.remove(&victim);
                inner.evictions += 1;
                self.cv.notify_all();
            }
        }
        Ok(grant)
    }

    /// [`acquire`](Self::acquire) `key` and wrap the grant in a guard of
    /// the caller's flavor.
    pub(crate) fn lock(
        self: &Arc<Self>,
        key: &str,
        bound: Option<&WaitBound>,
        requester: Option<ThreadId>,
        flavor: Flavor,
    ) -> Result<Guard, LockError> {
        let grant = self.acquire(key, bound, requester)?;
        Ok(Guard::new(Box::new(TableGuard {
            table: Arc::clone(self),
            key: key.to_string(),
            grant,
            flavor,
            released: false,
        })))
    }

    /// Release only when the entry is still ours (same grant).
    fn release(&self, key: &str, grant: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.get(key) {
            Some(e) if e.grant == grant => {
                inner.entries.remove(key);
                self.cv.notify_all();
                true
            }
            _ => false,
        }
    }
}

struct TableGuard {
    table: Arc<LockTable>,
    key: String,
    grant: u64,
    flavor: Flavor,
    released: bool,
}

impl LockGuard for TableGuard {
    fn unlock(&mut self) -> Result<(), LockError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        if !self.table.release(&self.key, self.grant) && self.flavor == Flavor::Watchdog {
            return Err(LockError::NotHeld {
                key: self.key.clone(),
            });
        }
        Ok(())
    }

    fn is_valid(&self) -> bool {
        !self.released
            && matches!(self.table.inner.lock().entries.get(&self.key), Some(e) if e.grant == self.grant)
    }

    fn fencing_token(&self) -> Option<u64> {
        // The table's grant counter is already monotonic per table, so it
        // doubles as a fencing token: an evicted-then-re-granted entry's
        // new holder always carries a larger token.
        (self.flavor == Flavor::Mem).then_some(self.grant)
    }

    fn leak(&mut self) {
        // In-memory lock info vanishes with a process crash (§3.4.2); in
        // process the entry stays (a stuck holder) until evicted — except
        // a monitor, which SYNC models as vanishing with its holder.
        if self.flavor == Flavor::Sync {
            self.table.release(&self.key, self.grant);
        }
        self.released = true;
    }
}

/// `MEM`: unbounded concurrent-map lock table.
#[derive(Clone)]
pub struct MemLock {
    table: Arc<LockTable>,
}

impl MemLock {
    /// An empty, unbounded lock table.
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            table: Arc::new(LockTable {
                capacity,
                ..LockTable::default()
            }),
        }
    }
}

impl Default for MemLock {
    fn default() -> Self {
        Self::new()
    }
}

impl AdHocLock for MemLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        self.table.lock(key, None, None, Flavor::Mem)
    }

    fn label(&self) -> &'static str {
        "MEM"
    }
}

/// `MEM-LRU`: capacity-bounded lock table with LRU eviction — Broadleaf's
/// lease-semantics bug built in (eviction is the point of this variant;
/// there is no "fixed" configuration other than using [`MemLock`]).
#[derive(Clone)]
pub struct MemLruLock(MemLock);

impl MemLruLock {
    /// `capacity` is the maximum number of resident lock entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self(MemLock::with_capacity(Some(capacity)))
    }

    /// How many held-or-idle entries have been evicted so far.
    pub fn evictions(&self) -> u64 {
        self.0.table.inner.lock().evictions
    }
}

impl AdHocLock for MemLruLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        self.0.lock(key)
    }

    fn label(&self) -> &'static str {
        "MEM-LRU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::mutual_exclusion_trial;

    #[test]
    fn mem_lock_mutual_exclusion() {
        let lock = MemLock::new();
        assert_eq!(mutual_exclusion_trial(&lock, "cart-1", 8, 200), 8 * 200);
    }

    #[test]
    fn mem_lock_blocks_second_acquirer() {
        let lock = MemLock::new();
        let g = lock.lock("k").unwrap();
        let lock2 = lock.clone();
        let h = std::thread::spawn(move || {
            let g2 = lock2.lock("k").unwrap();
            g2.unlock().unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished());
        g.unlock().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn mem_guards_expose_monotonic_fencing_tokens() {
        let lock = MemLruLock::new(2);
        let g1 = lock.lock("a").unwrap();
        let t1 = g1.fencing_token().expect("mem guards are fenced");
        let _g2 = lock.lock("b").unwrap();
        let _g3 = lock.lock("c").unwrap(); // evicts "a"
        let g1b = lock.lock("a").unwrap();
        let t2 = g1b.fencing_token().unwrap();
        assert!(
            t2 > t1,
            "the re-granted entry's token must dominate the evicted holder's"
        );
    }

    #[test]
    fn lru_eviction_revokes_held_locks() {
        // Capacity 2: acquiring a third key evicts the least recently used
        // held entry — the Broadleaf lease bug.
        let lock = MemLruLock::new(2);
        let g1 = lock.lock("order-1").unwrap();
        let _g2 = lock.lock("order-2").unwrap();
        assert!(g1.is_valid());
        let _g3 = lock.lock("order-3").unwrap();
        assert!(!g1.is_valid(), "order-1 must have been evicted");
        assert_eq!(lock.evictions(), 1);
        // A second acquirer can now take "order-1" while g1 thinks it holds
        // it: mutual exclusion is gone.
        let g1b = lock.lock("order-1").unwrap();
        assert!(g1b.is_valid());
        // g1's release must not clobber g1b's entry (fencing tokens).
        g1.unlock().unwrap();
        assert!(g1b.is_valid());
    }

    #[test]
    fn lru_below_capacity_behaves_like_mem() {
        let lock = MemLruLock::new(64);
        assert_eq!(mutual_exclusion_trial(&lock, "k", 4, 100), 4 * 100);
        assert_eq!(lock.evictions(), 0);
    }

    #[test]
    fn leak_keeps_entry_resident() {
        let lock = MemLock::new();
        let g = lock.lock("crashed").unwrap();
        g.leak();
        // The entry is still in the table: a second acquirer would block.
        let lock2 = lock.clone();
        let h = std::thread::spawn(move || lock2.lock("crashed").map(|g| g.unlock()));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "leaked lock must still block");
        // Clean up so the thread can finish: a fresh guard with the same
        // grant does not exist, so release directly via a new table entry
        // is impossible — simulate process restart by dropping the table.
        // (We just detach the thread; test process teardown reaps it.)
        drop(h);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        MemLruLock::new(0);
    }
}
