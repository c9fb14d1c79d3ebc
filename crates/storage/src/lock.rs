//! The lock manager: record, gap, table and advisory locks with wait-for
//! graph deadlock detection.
//!
//! Behavioural targets, all taken from the paper:
//!
//! * shared→exclusive upgrades are possible and two concurrent upgraders
//!   deadlock (the MySQL RMW deadlock of §3.3.1 — "if they both have
//!   successfully acquired reader locks, then their updates block each
//!   other");
//! * gap locks don't conflict with one another but block *inserts* into the
//!   covered interval by other transactions (InnoDB insert-intention
//!   semantics, §3.3.2);
//! * deadlocks are detected immediately via a wait-for graph and the
//!   *requester* that closes the cycle is the victim (matching the paper's
//!   observation that both RMW users "fail" without external intervention
//!   being modelled as one aborting);
//! * advisory locks model PostgreSQL's explicit user locks (§6, Table 7a),
//!   the machinery behind the coordination-hints proxy in `adhoc-core`.
//!
//! Every blocking acquisition is one grant-or-block loop
//! (`LockManager::acquire`) around a per-resource check. Holders, gaps
//! and wait edges all live under one mutex (only the `waits` statistic
//! is an atomic). Two shortcuts stay because neither publishes anything
//! outside that mutex, so neither has a lock-free ordering to get wrong:
//!
//! * the wait deadline is computed lazily, at the first real wait, so a
//!   grant that never waits never reads the clock;
//! * a release that surrendered no lock and no gap skips `notify_all`:
//!   waiters block only on holders, which that release did not change.
//!   (The condvar already skips a notify when nobody waits; this flag
//!   also spares threads that *are* waiting a spurious wake.)

use crate::error::{DbError, TxnId};
use crate::fasthash::{FastMap, FastSet};
use crate::predicate::ValueInterval;
use crate::value::Value;
use crate::Result;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared or exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (reader) mode: compatible with other shared holders.
    Shared,
    /// Exclusive (writer) mode: excludes every other holder.
    Exclusive,
}

/// Identifies a lockable resource.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ResourceId {
    /// A row of a table: (table, primary key).
    Record(usize, i64),
    /// A whole table (explicit table lock hint).
    Table(usize),
    /// A user/advisory lock key.
    Advisory(i64),
    /// A unique-index key: (table, column, value). Held exclusively for the
    /// duration of an insert/update transaction so concurrent duplicate
    /// inserts serialize before the uniqueness check.
    UniqueKey(usize, usize, Value),
}

#[derive(Debug, Default)]
struct LockState {
    /// `(holder, mode, reentrancy count)`. Holder lists are almost always
    /// a single entry, so a flat vector beats per-resource hash maps on
    /// every path. Reentrancy is counted for advisory locks; everything
    /// else holds at 1.
    holders: Vec<(TxnId, LockMode, u32)>,
}

impl LockState {
    /// Can `txn` acquire `mode` right now?
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(t, m, _)| *t == txn || *m == LockMode::Shared),
            LockMode::Exclusive => self.holders.iter().all(|(t, _, _)| *t == txn),
        }
    }

    /// Holders that block `txn` from acquiring `mode`.
    fn conflicting(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.holders
            .iter()
            .filter(|(t, m, _)| {
                *t != txn
                    && match mode {
                        LockMode::Shared => *m == LockMode::Exclusive,
                        LockMode::Exclusive => true,
                    }
            })
            .map(|(t, _, _)| *t)
            .collect()
    }

    /// Grant `mode`; returns true when this is `txn`'s first hold of the
    /// resource (the caller then records it in the held-resource index).
    fn grant(&mut self, txn: TxnId, mode: LockMode) -> bool {
        if let Some(h) = self.holders.iter_mut().find(|(t, _, _)| *t == txn) {
            // Upgrades stick; downgrades are ignored (2PL never downgrades).
            if mode == LockMode::Exclusive {
                h.1 = LockMode::Exclusive;
            }
            h.2 += 1;
            false
        } else {
            self.holders.push((txn, mode, 1));
            true
        }
    }
}

/// A registered gap lock over an index interval.
#[derive(Debug, Clone)]
struct GapLock {
    txn: TxnId,
    interval: ValueInterval,
}

#[derive(Debug, Default)]
struct Inner {
    locks: FastMap<ResourceId, LockState>,
    /// txn → the resources it holds, so release visits only those instead
    /// of sweeping the whole lock table.
    held: FastMap<TxnId, Vec<ResourceId>>,
    /// Gap locks per (table, column-index).
    gaps: FastMap<(usize, usize), Vec<GapLock>>,
    /// Keys inserted by transactions still in flight, per (table,
    /// column-index): InnoDB's implicit lock on a new index record, which
    /// a later gap lock over the key waits for.
    inserted: FastMap<(usize, usize), Vec<(TxnId, Value)>>,
    /// txn → number of gap locks and inserted keys it has registered
    /// (lets release skip the sweep entirely for the common transaction
    /// that has neither).
    gap_counts: FastMap<TxnId, u32>,
    /// waiter → the holders it is currently blocked on.
    waits_for: FastMap<TxnId, FastSet<TxnId>>,
    deadlocks: u64,
    timeouts: u64,
}

impl Inner {
    /// Grant `mode` on `id` to `txn` if no other holder conflicts.
    fn try_grant(&mut self, txn: TxnId, id: &ResourceId, mode: LockMode) -> bool {
        let state = self.locks.entry(id.clone()).or_default();
        if !state.grantable(txn, mode) {
            return false;
        }
        if state.grant(txn, mode) {
            self.held.entry(txn).or_default().push(id.clone());
        }
        true
    }

    /// The other transactions holding gaps that cover `key` on this index.
    fn gap_holders(&self, txn: TxnId, table: usize, column: usize, key: &Value) -> Vec<TxnId> {
        self.gaps
            .get(&(table, column))
            .map(|gaps| {
                gaps.iter()
                    .filter(|g| g.txn != txn && g.interval.contains(key))
                    .map(|g| g.txn)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The other transactions with an in-flight insert inside `interval`.
    fn inserters(
        &self,
        txn: TxnId,
        table: usize,
        column: usize,
        interval: &ValueInterval,
    ) -> Vec<TxnId> {
        self.inserted
            .get(&(table, column))
            .map(|keys| {
                keys.iter()
                    .filter(|(t, key)| *t != txn && interval.contains(key))
                    .map(|(t, _)| *t)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Is `start` part of a wait cycle? DFS over `waits_for`.
    fn in_cycle(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = FastSet::default();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// Lock-manager statistics (diagnostics for benches and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    /// Deadlock victims chosen so far.
    pub deadlocks: u64,
    /// Lock waits that exceeded the timeout.
    pub timeouts: u64,
    /// Total blocking waits entered.
    pub waits: u64,
}

/// The lock manager. One per [`Database`](crate::Database).
pub struct LockManager {
    inner: Mutex<Inner>,
    cv: Condvar,
    timeout: Duration,
    waits: AtomicU64,
}

impl LockManager {
    /// A lock manager whose waits give up after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            timeout,
            waits: AtomicU64::new(0),
        }
    }

    /// Acquire a record lock, blocking until granted, deadlock, or timeout.
    /// A `cap` (a transaction deadline's remaining time) bounds the wait
    /// further: the effective timeout is the smaller of the engine-wide
    /// limit and the cap. Every blocking call of the manager takes the
    /// same `cap`.
    pub fn lock_record(
        &self,
        txn: TxnId,
        table: usize,
        row: i64,
        mode: LockMode,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.lock_resource(txn, ResourceId::Record(table, row), mode, cap)
    }

    /// Acquire an explicit table lock.
    pub fn lock_table(
        &self,
        txn: TxnId,
        table: usize,
        mode: LockMode,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.lock_resource(txn, ResourceId::Table(table), mode, cap)
    }

    /// Acquire an advisory (user) lock. Reentrant per transaction.
    pub fn lock_advisory(&self, txn: TxnId, key: i64, cap: Option<Duration>) -> Result<()> {
        self.lock_resource(txn, ResourceId::Advisory(key), LockMode::Exclusive, cap)
    }

    /// Exclusively lock a unique-index key prior to the uniqueness check.
    pub fn lock_unique_key(
        &self,
        txn: TxnId,
        table: usize,
        column: usize,
        value: Value,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.lock_resource(
            txn,
            ResourceId::UniqueKey(table, column, value),
            LockMode::Exclusive,
            cap,
        )
    }

    /// Try to acquire an advisory lock without blocking.
    pub fn try_lock_advisory(&self, txn: TxnId, key: i64) -> bool {
        self.inner
            .lock()
            .try_grant(txn, &ResourceId::Advisory(key), LockMode::Exclusive)
    }

    /// Release one reentrancy level of an advisory lock. Returns false when
    /// the transaction did not hold it.
    pub fn unlock_advisory(&self, txn: TxnId, key: i64) -> bool {
        let mut inner = self.inner.lock();
        let id = ResourceId::Advisory(key);
        let Some(state) = inner.locks.get_mut(&id) else {
            return false;
        };
        let Some(pos) = state.holders.iter().position(|(t, _, _)| *t == txn) else {
            return false;
        };
        state.holders[pos].2 -= 1;
        if state.holders[pos].2 == 0 {
            state.holders.swap_remove(pos);
            if state.holders.is_empty() {
                inner.locks.remove(&id);
            }
            if let Some(held) = inner.held.get_mut(&txn) {
                if let Some(hp) = held.iter().position(|r| *r == id) {
                    held.swap_remove(hp);
                }
            }
            self.cv.notify_all();
        }
        true
    }

    fn lock_resource(
        &self,
        txn: TxnId,
        id: ResourceId,
        mode: LockMode,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.acquire(txn, cap, |inner| {
            if inner.try_grant(txn, &id, mode) {
                Vec::new()
            } else {
                inner.locks[&id].conflicting(txn, mode)
            }
        })
    }

    /// The grant-or-block loop behind every blocking call: `check` runs
    /// under the manager mutex and either takes what `txn` asked for,
    /// returning no blockers, or names the transactions in its way.
    fn acquire(
        &self,
        txn: TxnId,
        cap: Option<Duration>,
        mut check: impl FnMut(&mut Inner) -> Vec<TxnId>,
    ) -> Result<()> {
        let mut deadline = None;
        loop {
            {
                let mut inner = self.inner.lock();
                let blockers = check(&mut inner);
                if blockers.is_empty() {
                    if !inner.waits_for.is_empty() {
                        inner.waits_for.remove(&txn);
                    }
                    return Ok(());
                }
                if !self.block_on(&mut inner, txn, blockers, &mut deadline, cap)? {
                    continue;
                }
            }
            // A scheduled task yields without the manager mutex until
            // rescheduled, then enforces its deadline.
            adhoc_sim::sched::yield_point(adhoc_sim::sched::SchedPoint::LockWait);
            if Instant::now() >= deadline.expect("deadline set before waiting") {
                let mut inner = self.inner.lock();
                inner.waits_for.remove(&txn);
                inner.timeouts += 1;
                return Err(DbError::LockWaitTimeout { txn });
            }
        }
    }

    /// Register a gap lock over an index interval. Gap locks are mutually
    /// compatible; the lock waits only while another transaction's insert
    /// into the interval is in flight, since that row is one the gap
    /// holder must see and lock.
    pub fn lock_gap(
        &self,
        txn: TxnId,
        table: usize,
        column: usize,
        interval: ValueInterval,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.acquire(txn, cap, |inner| {
            let inserters = inner.inserters(txn, table, column, &interval);
            if inserters.is_empty() {
                let gap = GapLock {
                    txn,
                    interval: interval.clone(),
                };
                inner.gaps.entry((table, column)).or_default().push(gap);
                *inner.gap_counts.entry(txn).or_insert(0) += 1;
            }
            inserters
        })
    }

    /// Insert intention: wait while any *other* transaction holds a gap
    /// lock covering `key` on this index, then hold the inserted key until
    /// `txn` ends (see [`lock_gap`](Self::lock_gap)).
    pub fn check_insert(
        &self,
        txn: TxnId,
        table: usize,
        column: usize,
        key: &Value,
        cap: Option<Duration>,
    ) -> Result<()> {
        self.acquire(txn, cap, |inner| {
            let holders = inner.gap_holders(txn, table, column, key);
            if holders.is_empty() {
                let keys = inner.inserted.entry((table, column)).or_default();
                keys.push((txn, key.clone()));
                *inner.gap_counts.entry(txn).or_insert(0) += 1;
            }
            holders
        })
    }

    /// Non-blocking query: which other transactions hold gaps covering `key`?
    pub fn gap_holders(&self, txn: TxnId, table: usize, column: usize, key: &Value) -> Vec<TxnId> {
        self.inner.lock().gap_holders(txn, table, column, key)
    }

    /// One round of blocking: record wait edges, detect deadlock, sleep.
    ///
    /// Returns `Ok(true)` when the calling thread is a deterministically
    /// scheduled task: the wait edges are recorded but no condvar wait
    /// happens — the caller must drop the manager mutex and yield instead,
    /// so the scheduler (not the OS) decides when the blockers run.
    fn block_on(
        &self,
        inner: &mut parking_lot::MutexGuard<'_, Inner>,
        txn: TxnId,
        blockers: Vec<TxnId>,
        deadline: &mut Option<Instant>,
        cap: Option<Duration>,
    ) -> Result<bool> {
        debug_assert!(!blockers.is_empty());
        self.waits.fetch_add(1, Ordering::Relaxed);
        inner.waits_for.insert(txn, blockers.into_iter().collect());
        if inner.in_cycle(txn) {
            inner.waits_for.remove(&txn);
            inner.deadlocks += 1;
            self.cv.notify_all();
            return Err(DbError::Deadlock { txn });
        }
        // The deadline is lazy (see the module doc). A transaction deadline
        // caps the wait below the engine-wide limit — an out-of-time
        // request must not camp in the wait queue.
        let wait = cap.map_or(self.timeout, |c| c.min(self.timeout));
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + wait);
        if adhoc_sim::sched::under_scheduler() {
            return Ok(true);
        }
        if self.cv.wait_until(inner, deadline).timed_out() {
            inner.waits_for.remove(&txn);
            inner.timeouts += 1;
            return Err(DbError::LockWaitTimeout { txn });
        }
        Ok(false)
    }

    /// Release every lock held by `txn` (commit/abort). Visits only the
    /// resources the held index records for `txn` — O(held), not O(lock
    /// table).
    pub fn release_all(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        // No broadcast unless a lock or gap was surrendered (module doc):
        // the common case for read-only and lock-free commits.
        let mut notify = false;
        if let Some(ids) = inner.held.remove(&txn) {
            notify = !ids.is_empty();
            for id in ids {
                if let Some(state) = inner.locks.get_mut(&id) {
                    state.holders.retain(|(t, _, _)| *t != txn);
                    if state.holders.is_empty() {
                        inner.locks.remove(&id);
                    }
                }
            }
        }
        if inner.gap_counts.remove(&txn).is_some() {
            notify = true;
            inner.gaps.retain(|_, gaps| {
                gaps.retain(|g| g.txn != txn);
                !gaps.is_empty()
            });
            // Emptied key lists stay, capacity and all: an insert-heavy
            // workload would otherwise allocate one per transaction.
            for keys in inner.inserted.values_mut() {
                keys.retain(|(t, _)| *t != txn);
            }
        }
        if !inner.waits_for.is_empty() {
            inner.waits_for.remove(&txn);
            for blocked_on in inner.waits_for.values_mut() {
                blocked_on.remove(&txn);
            }
        }
        drop(inner);
        if notify {
            self.cv.notify_all();
        }
    }

    /// Drop the *entire* lock table: every holder, every gap lock, every
    /// wait edge — restart semantics. Engine locks and session advisory
    /// locks live in server memory only, so a server crash
    /// ([`Database::simulate_crash`](crate::Database::simulate_crash))
    /// forgets all of them, including locks held by sessions the crash did
    /// not drain (the pre-PR-5 behaviour left those dangling). Parked waiters are woken
    /// and re-acquire against the empty table.
    pub fn clear_all(&self) {
        let mut inner = self.inner.lock();
        inner.locks.clear();
        inner.held.clear();
        inner.gaps.clear();
        inner.inserted.clear();
        inner.gap_counts.clear();
        inner.waits_for.clear();
        drop(inner);
        self.cv.notify_all();
    }

    /// Mode currently held by `txn` on a record, if any (test helper).
    pub fn held_record_mode(&self, txn: TxnId, table: usize, row: i64) -> Option<LockMode> {
        let inner = self.inner.lock();
        inner
            .locks
            .get(&ResourceId::Record(table, row))
            .and_then(|s| s.holders.iter().find(|(t, _, _)| *t == txn))
            .map(|(_, m, _)| *m)
    }

    /// Counters.
    pub fn stats(&self) -> LockStats {
        let inner = self.inner.lock();
        LockStats {
            deadlocks: inner.deadlocks,
            timeouts: inner.timeouts,
            waits: self.waits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_secs(5)))
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let m = mgr();
        m.lock_record(1, 0, 10, LockMode::Shared, None).unwrap();
        m.lock_record(2, 0, 10, LockMode::Shared, None).unwrap();
        assert_eq!(m.held_record_mode(1, 0, 10), Some(LockMode::Shared));
        assert_eq!(m.held_record_mode(2, 0, 10), Some(LockMode::Shared));

        // An exclusive request by txn 3 must block; use a short-timeout
        // manager to observe it.
        let short = Arc::new(LockManager::new(Duration::from_millis(30)));
        short.lock_record(1, 0, 10, LockMode::Shared, None).unwrap();
        let err = short
            .lock_record(2, 0, 10, LockMode::Exclusive, None)
            .unwrap_err();
        assert!(matches!(err, DbError::LockWaitTimeout { txn: 2 }));
    }

    #[test]
    fn reacquisition_is_idempotent() {
        let m = mgr();
        m.lock_record(1, 0, 10, LockMode::Exclusive, None).unwrap();
        m.lock_record(1, 0, 10, LockMode::Shared, None).unwrap();
        m.lock_record(1, 0, 10, LockMode::Exclusive, None).unwrap();
        assert_eq!(m.held_record_mode(1, 0, 10), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_succeeds_when_sole_holder() {
        let m = mgr();
        m.lock_record(1, 0, 10, LockMode::Shared, None).unwrap();
        m.lock_record(1, 0, 10, LockMode::Exclusive, None).unwrap();
        assert_eq!(m.held_record_mode(1, 0, 10), Some(LockMode::Exclusive));
    }

    #[test]
    fn release_unblocks_waiters() {
        let m = mgr();
        m.lock_record(1, 0, 10, LockMode::Exclusive, None).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock_record(2, 0, 10, LockMode::Exclusive, None));
        std::thread::sleep(Duration::from_millis(30));
        m.release_all(1);
        h.join().unwrap().unwrap();
        assert_eq!(m.held_record_mode(2, 0, 10), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_deadlock_is_detected() {
        // The paper's §3.3.1 MySQL RMW scenario: both transactions hold S,
        // both request X. The second upgrader closes the cycle and aborts.
        let m = mgr();
        m.lock_record(1, 0, 10, LockMode::Shared, None).unwrap();
        m.lock_record(2, 0, 10, LockMode::Shared, None).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock_record(1, 0, 10, LockMode::Exclusive, None));
        std::thread::sleep(Duration::from_millis(50));
        let err = m
            .lock_record(2, 0, 10, LockMode::Exclusive, None)
            .unwrap_err();
        assert!(matches!(err, DbError::Deadlock { txn: 2 }));
        // Victim releases; the first upgrader proceeds.
        m.release_all(2);
        h.join().unwrap().unwrap();
        assert_eq!(m.stats().deadlocks, 1);
    }

    #[test]
    fn two_resource_deadlock_is_detected() {
        let m = mgr();
        m.lock_record(1, 0, 1, LockMode::Exclusive, None).unwrap();
        m.lock_record(2, 0, 2, LockMode::Exclusive, None).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let r = m2.lock_record(1, 0, 2, LockMode::Exclusive, None);
            if r.is_ok() {
                m2.release_all(1);
            }
            r
        });
        std::thread::sleep(Duration::from_millis(50));
        let err = m
            .lock_record(2, 0, 1, LockMode::Exclusive, None)
            .unwrap_err();
        assert!(matches!(err, DbError::Deadlock { .. }));
        m.release_all(2);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn gap_locks_are_compatible_but_block_inserts() {
        let m = mgr();
        // Txn 1 and 2 both gap-lock (9, 12): no conflict.
        let gap = ValueInterval::point(Value::Int(10))
            .widen_to_gap(Some(Value::Int(9)), Some(Value::Int(12)));
        m.lock_gap(1, 0, 1, gap.clone(), None).unwrap();
        m.lock_gap(2, 0, 1, gap, None).unwrap();
        // Txn 1 inserting key 10 is fine (it holds the gap; txn 2's gap
        // covers it though!): InnoDB would block here too — the insert
        // waits on txn 2's gap.
        assert_eq!(m.gap_holders(1, 0, 1, &Value::Int(11)), vec![2]);
        // Txn 3 inserting 11 blocks on both.
        let mut holders = m.gap_holders(3, 0, 1, &Value::Int(11));
        holders.sort_unstable();
        assert_eq!(holders, vec![1, 2]);
        // Outside the gap: free.
        assert!(m.gap_holders(3, 0, 1, &Value::Int(12)).is_empty());
        // After release, inserts proceed.
        m.release_all(1);
        m.release_all(2);
        m.check_insert(3, 0, 1, &Value::Int(11), None).unwrap();
    }

    #[test]
    fn insert_intention_waits_for_gap_release() {
        let m = mgr();
        let gap = ValueInterval::all();
        m.lock_gap(1, 0, 1, gap, None).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.check_insert(2, 0, 1, &Value::Int(5), None));
        std::thread::sleep(Duration::from_millis(30));
        m.release_all(1);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn advisory_locks_are_reentrant_and_exclusive() {
        let m = mgr();
        m.lock_advisory(1, 42, None).unwrap();
        m.lock_advisory(1, 42, None).unwrap(); // reentrant
        assert!(!m.try_lock_advisory(2, 42));
        assert!(m.unlock_advisory(1, 42));
        // Still held once.
        assert!(!m.try_lock_advisory(2, 42));
        assert!(m.unlock_advisory(1, 42));
        assert!(m.try_lock_advisory(2, 42));
        assert!(!m.unlock_advisory(1, 42));
    }

    #[test]
    fn table_lock_excludes_other_table_locks() {
        let short = LockManager::new(Duration::from_millis(30));
        short.lock_table(1, 0, LockMode::Exclusive, None).unwrap();
        let err = short.lock_table(2, 0, LockMode::Shared, None).unwrap_err();
        assert!(matches!(err, DbError::LockWaitTimeout { .. }));
        short.release_all(1);
        short.lock_table(2, 0, LockMode::Shared, None).unwrap();
        short.lock_table(3, 0, LockMode::Shared, None).unwrap();
    }

    #[test]
    fn release_all_clears_wait_edges() {
        let m = mgr();
        m.lock_record(1, 0, 1, LockMode::Exclusive, None).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock_record(2, 0, 1, LockMode::Exclusive, None));
        std::thread::sleep(Duration::from_millis(30));
        m.release_all(1);
        h.join().unwrap().unwrap();
        m.release_all(2);
        assert_eq!(m.held_record_mode(2, 0, 1), None);
    }

    #[test]
    fn stress_many_threads_single_record() {
        let m = mgr();
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..16u64 {
                let m = Arc::clone(&m);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..50 {
                        m.lock_record(t + 1, 0, 7, LockMode::Exclusive, None)
                            .unwrap();
                        // Critical section: non-atomic RMW protected by lock.
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        counter.store(v + 1, Ordering::Relaxed);
                        m.release_all(t + 1);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16 * 50);
    }
}
