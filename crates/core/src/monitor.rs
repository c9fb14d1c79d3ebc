//! Runtime hazard detection — the §6 "development support tools" proposal.
//!
//! The paper closes by calling for tools that "help developers locate ad
//! hoc transactions, identify potential correctness and performance issues,
//! and fix them by providing reliable suggestions". [`AccessMonitor`] is a
//! runtime detector for the three §4 issue families it can observe:
//!
//! * **Lock-after-read** (§4.1.1, the Discourse re-read omission): a row is
//!   read *before* the lock is acquired, then written under the lock,
//!   without a re-read inside the critical section — the classic
//!   uncoordinated read–modify–write.
//! * **Expired-lease release** (§4.1.1, the Mastodon TTL bug): a guard is
//!   released after its lease already lapsed, meaning the critical section
//!   ran unprotected for a while.
//! * **Mixed coordination** (§4.2, the forgotten JSON handlers): a table is
//!   written both inside and outside ad hoc critical sections — a strong
//!   hint that some code path forgot the transaction.
//!
//! Attach the monitor to a [`Database`] (it implements
//! [`StatementObserver`]) and wrap each ad hoc lock with
//! [`AccessMonitor::wrap_lock`]; events are correlated per thread, matching
//! the studied applications' one-thread-per-request execution model.

use crate::locks::{AdHocLock, Guard, LockError, LockGuard};
use adhoc_sim::{FaultPlan, FaultRecord, RetryObserver};
use adhoc_storage::{AccessEvent, Database, StatementObserver};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// A detected coordination hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard {
    /// Read outside the critical section, written inside it, never re-read
    /// under the lock.
    LockAfterRead {
        /// The lock the writer held.
        lock_key: String,
        /// Table of the suspicious row.
        table: String,
        /// Primary key of the suspicious row.
        row: i64,
    },
    /// A lease-based guard was already invalid when released.
    ExpiredLeaseRelease {
        /// The lock whose lease lapsed.
        lock_key: String,
    },
    /// A table is written both with and without an ad hoc lock held.
    MixedCoordination {
        /// The inconsistently coordinated table.
        table: String,
    },
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::LockAfterRead {
                lock_key,
                table,
                row,
            } => write!(
                f,
                "lock-after-read: {table} #{row} read before acquiring {lock_key:?} and \
                 written under it without a re-read (uncoordinated RMW)"
            ),
            Hazard::ExpiredLeaseRelease { lock_key } => write!(
                f,
                "expired lease: guard for {lock_key:?} was no longer valid at release"
            ),
            Hazard::MixedCoordination { table } => write!(
                f,
                "mixed coordination: table {table:?} written both inside and outside \
                 ad hoc critical sections"
            ),
        }
    }
}

/// One retry-loop decision observed by the monitor (via
/// [`RetryObserver`]): either a scheduled re-attempt or a give-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryEvent {
    /// A retryable failure; the loop backs off and re-attempts.
    Retried {
        /// Which loop (e.g. `"KV-SETNX"`, `"dbt"`, `"orm-occ"`).
        label: String,
        /// Zero-based attempt that just failed.
        attempt: u32,
        /// Backoff delay before the next attempt.
        delay: Duration,
    },
    /// The loop gave up (budget or deadline spent, or hard error).
    GaveUp {
        /// Which loop gave up.
        label: String,
        /// Total attempts made.
        attempts: u32,
        /// Rendered final error.
        reason: String,
    },
}

/// Per-thread tracking state.
#[derive(Debug, Default)]
struct ThreadState {
    /// Lock keys currently held by this thread, acquisition-ordered.
    held: Vec<String>,
    /// Rows read while holding no lock (candidates for lock-after-read).
    unlocked_reads: HashSet<(String, i64)>,
    /// Rows read while holding at least one lock (clears the candidates).
    locked_reads: HashSet<(String, i64)>,
}

#[derive(Debug, Default)]
struct MonitorState {
    threads: HashMap<ThreadId, ThreadState>,
    /// Tables written with/without locks held (for mixed coordination).
    locked_writes: BTreeSet<String>,
    unlocked_writes: BTreeSet<String>,
    hazards: Vec<Hazard>,
    /// Deduplication of reported hazards.
    reported: BTreeSet<String>,
    /// Every fault injected by an observed [`FaultPlan`], arrival order.
    faults: Vec<FaultRecord>,
    /// Every retry/give-up decision from observed retry loops.
    retries: Vec<RetryEvent>,
}

impl MonitorState {
    fn report(&mut self, hazard: Hazard) {
        let key = format!("{hazard:?}");
        if self.reported.insert(key) {
            self.hazards.push(hazard);
        }
    }
}

/// The runtime detector. Cheap to clone (shared state inside).
#[derive(Clone, Default)]
pub struct AccessMonitor {
    state: Arc<Mutex<MonitorState>>,
}

impl AccessMonitor {
    /// A fresh monitor with no recorded state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach this monitor to a database so every statement is observed.
    pub fn attach(&self, db: &Database) {
        db.attach_observer(Arc::new(self.clone()));
    }

    /// Subscribe to `plan`: every fault it injects from now on is appended
    /// to this monitor's [`fault_log`](Self::fault_log).
    pub fn observe_faults(&self, plan: &FaultPlan) {
        let monitor = self.clone();
        plan.set_listener(Arc::new(move |record: &FaultRecord| {
            monitor.state.lock().faults.push(record.clone());
        }));
    }

    /// Route `db`'s DBT retry-loop decisions into this monitor's
    /// [`retry_log`](Self::retry_log).
    pub fn observe_retries(&self, db: &Database) {
        db.attach_retry_observer(Arc::new(self.clone()));
    }

    /// Faults recorded via [`observe_faults`](Self::observe_faults).
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.state.lock().faults.clone()
    }

    /// Retry decisions recorded via the [`RetryObserver`] impl.
    pub fn retry_log(&self) -> Vec<RetryEvent> {
        self.state.lock().retries.clone()
    }

    /// Wrap an ad hoc lock so acquisitions/releases feed the monitor.
    pub fn wrap_lock(&self, inner: Arc<dyn AdHocLock>) -> Arc<dyn AdHocLock> {
        Arc::new(MonitoredLock {
            inner,
            monitor: self.clone(),
        })
    }

    /// Hazards detected so far (deduplicated, detection order).
    pub fn hazards(&self) -> Vec<Hazard> {
        let mut state = self.state.lock();
        // Mixed-coordination is computed on demand from the write sets.
        let mixed: Vec<String> = state
            .locked_writes
            .intersection(&state.unlocked_writes)
            .cloned()
            .collect();
        for table in mixed {
            state.report(Hazard::MixedCoordination { table });
        }
        state.hazards.clone()
    }

    /// True when no hazards were detected.
    pub fn is_clean(&self) -> bool {
        self.hazards().is_empty()
    }

    /// Hazard counts by kind (for report printing).
    pub fn summary(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for h in self.hazards() {
            let k = match h {
                Hazard::LockAfterRead { .. } => "lock-after-read",
                Hazard::ExpiredLeaseRelease { .. } => "expired-lease",
                Hazard::MixedCoordination { .. } => "mixed-coordination",
            };
            *out.entry(k).or_insert(0) += 1;
        }
        out
    }

    fn on_acquire(&self, key: &str) {
        let mut state = self.state.lock();
        let ts = state
            .threads
            .entry(std::thread::current().id())
            .or_default();
        ts.held.push(key.to_string());
        // Entering a critical section: reads made under it start fresh.
        ts.locked_reads.clear();
    }

    fn on_release(&self, key: &str, was_valid: bool) {
        let mut state = self.state.lock();
        if !was_valid {
            state.report(Hazard::ExpiredLeaseRelease {
                lock_key: key.to_string(),
            });
        }
        let ts = state
            .threads
            .entry(std::thread::current().id())
            .or_default();
        if let Some(pos) = ts.held.iter().rposition(|k| k == key) {
            ts.held.remove(pos);
        }
        if ts.held.is_empty() {
            // Quiescent point: drop the whole thread entry so monitors on
            // thread-per-request hosts don't grow without bound.
            state.threads.remove(&std::thread::current().id());
        }
    }
}

impl RetryObserver for AccessMonitor {
    fn on_retry(&self, label: &str, attempt: u32, delay: Duration) {
        self.state.lock().retries.push(RetryEvent::Retried {
            label: label.to_string(),
            attempt,
            delay,
        });
    }

    fn on_give_up(&self, label: &str, attempts: u32, reason: &str) {
        self.state.lock().retries.push(RetryEvent::GaveUp {
            label: label.to_string(),
            attempts,
            reason: reason.to_string(),
        });
    }
}

impl StatementObserver for AccessMonitor {
    fn on_event(&self, event: &AccessEvent) {
        let mut state = self.state.lock();
        let tid = std::thread::current().id();
        match event {
            AccessEvent::Read { table, row, .. } => {
                let ts = state.threads.entry(tid).or_default();
                if ts.held.is_empty() {
                    ts.unlocked_reads.insert((table.clone(), *row));
                } else {
                    ts.locked_reads.insert((table.clone(), *row));
                }
            }
            AccessEvent::Write { table, row, .. } => {
                let (held, suspicious) = {
                    let ts = state.threads.entry(tid).or_default();
                    let held = ts.held.last().cloned();
                    let suspicious = !ts.held.is_empty()
                        && ts.unlocked_reads.contains(&(table.clone(), *row))
                        && !ts.locked_reads.contains(&(table.clone(), *row));
                    (held, suspicious)
                };
                match held {
                    Some(lock_key) => {
                        state.locked_writes.insert(table.clone());
                        if suspicious {
                            state.report(Hazard::LockAfterRead {
                                lock_key,
                                table: table.clone(),
                                row: *row,
                            });
                        }
                    }
                    None => {
                        state.unlocked_writes.insert(table.clone());
                    }
                }
            }
            AccessEvent::Committed { .. } | AccessEvent::Aborted { .. } => {}
        }
    }
}

impl fmt::Debug for AccessMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessMonitor")
            .field("hazards", &self.hazards().len())
            .finish()
    }
}

/// Lock wrapper feeding acquisition/release events to the monitor.
struct MonitoredLock {
    inner: Arc<dyn AdHocLock>,
    monitor: AccessMonitor,
}

impl AdHocLock for MonitoredLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        let guard = self.inner.lock(key)?;
        self.monitor.on_acquire(key);
        Ok(Guard::new(Box::new(MonitoredGuard {
            inner: Some(guard),
            key: key.to_string(),
            monitor: self.monitor.clone(),
            released: false,
        })))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

struct MonitoredGuard {
    inner: Option<Guard>,
    key: String,
    monitor: AccessMonitor,
    released: bool,
}

impl LockGuard for MonitoredGuard {
    fn unlock(&mut self) -> Result<(), LockError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        let Some(inner) = self.inner.take() else {
            return Ok(());
        };
        let was_valid = inner.is_valid();
        self.monitor.on_release(&self.key, was_valid);
        match inner.unlock() {
            Ok(()) => Ok(()),
            // An expired lease's owner-checked unlock reports NotHeld; the
            // hazard is already recorded, so surface it unchanged.
            Err(e) => Err(e),
        }
    }

    fn is_valid(&self) -> bool {
        !self.released && self.inner.as_ref().map(|g| g.is_valid()).unwrap_or(false)
    }

    fn leak(&mut self) {
        self.released = true;
        if let Some(inner) = self.inner.take() {
            self.monitor.on_release(&self.key, true);
            inner.leak();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{KvSetNxLock, MemLock};
    use adhoc_kv::{Client, Store};
    use adhoc_sim::{LatencyModel, VirtualClock};
    use adhoc_storage::{Column, ColumnType, EngineProfile, IsolationLevel, Schema};
    use std::time::Duration;

    fn db_with_monitor() -> (Database, AccessMonitor) {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "posts",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("content", ColumnType::Str),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("posts", &[("id", 1.into()), ("content", "v0".into())])
                .map(|_| ())
        })
        .unwrap();
        let monitor = AccessMonitor::new();
        monitor.attach(&db);
        (db, monitor)
    }

    #[test]
    fn detects_lock_after_read() {
        let (db, monitor) = db_with_monitor();
        let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
        // The Discourse [76] pattern: read, then lock, then write.
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("posts", 1).map(|_| ())
        })
        .unwrap();
        let guard = lock.lock("post:1").unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("posts", 1, &[("content", "edited".into())])
        })
        .unwrap();
        guard.unlock().unwrap();
        assert!(matches!(
            monitor.hazards().as_slice(),
            [Hazard::LockAfterRead { table, row: 1, .. }] if table == "posts"
        ));
    }

    #[test]
    fn correct_order_is_clean() {
        let (db, monitor) = db_with_monitor();
        let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
        // Lock, re-read under the lock, write: no hazard.
        let guard = lock.lock("post:1").unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("posts", 1)?;
            t.update("posts", 1, &[("content", "edited".into())])
        })
        .unwrap();
        guard.unlock().unwrap();
        assert!(monitor.is_clean(), "{:?}", monitor.hazards());
    }

    #[test]
    fn reread_under_lock_clears_earlier_unlocked_read() {
        let (db, monitor) = db_with_monitor();
        let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
        // Read without the lock (e.g., to find the lock key), then lock,
        // RE-READ, write — the fixed Discourse pattern.
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("posts", 1).map(|_| ())
        })
        .unwrap();
        let guard = lock.lock("post:1").unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("posts", 1)?;
            t.update("posts", 1, &[("content", "edited".into())])
        })
        .unwrap();
        guard.unlock().unwrap();
        assert!(monitor.is_clean(), "{:?}", monitor.hazards());
    }

    #[test]
    fn detects_expired_lease_release() {
        let (_db, monitor) = db_with_monitor();
        let clock = Arc::new(VirtualClock::new());
        let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lease = monitor.wrap_lock(Arc::new(
            KvSetNxLock::new(kv).with_ttl(Duration::from_millis(5)),
        ));
        let guard = lease.lock("invite:1").unwrap();
        clock.advance(Duration::from_millis(10)); // slow critical section
        let _ = guard.unlock();
        assert!(monitor
            .hazards()
            .iter()
            .any(|h| matches!(h, Hazard::ExpiredLeaseRelease { .. })));
    }

    #[test]
    fn detects_mixed_coordination() {
        let (db, monitor) = db_with_monitor();
        let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
        // Coordinated write (the HTML handler)…
        let guard = lock.lock("payments").unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("posts", 1)?;
            t.update("posts", 1, &[("content", "locked write".into())])
        })
        .unwrap();
        guard.unlock().unwrap();
        // …and an uncoordinated one (the JSON handler, §4.2 [59]).
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("posts", 1, &[("content", "unlocked write".into())])
        })
        .unwrap();
        assert!(monitor
            .hazards()
            .iter()
            .any(|h| matches!(h, Hazard::MixedCoordination { table } if table == "posts")));
        assert_eq!(monitor.summary().get("mixed-coordination"), Some(&1));
    }

    #[test]
    fn hazards_are_deduplicated() {
        let (db, monitor) = db_with_monitor();
        let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
        for _ in 0..5 {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.get("posts", 1).map(|_| ())
            })
            .unwrap();
            let guard = lock.lock("post:1").unwrap();
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.update("posts", 1, &[("content", "x".into())])
            })
            .unwrap();
            guard.unlock().unwrap();
        }
        assert_eq!(monitor.hazards().len(), 1);
    }

    #[test]
    fn records_injected_faults_and_retry_decisions() {
        use adhoc_sim::{FaultKind, FaultRule};
        let monitor = AccessMonitor::new();

        // Fault side: a listener on the plan feeds the fault log.
        let plan = FaultPlan::new(7, vec![FaultRule::at_ops(FaultKind::ConnError, &[0])]);
        monitor.observe_faults(&plan);
        let clock = Arc::new(VirtualClock::new());
        let kv = Client::new(Store::new(), clock, LatencyModel::zero()).with_faults(plan);
        assert!(kv.set("k", "v").is_err());
        let faults = monitor.fault_log();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::ConnError);

        // Retry side: the DBT wrapper reports its decisions.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        monitor.observe_retries(&db);
        let policy = adhoc_sim::RetryPolicy::exponential(
            2,
            Duration::from_micros(1),
            Duration::from_micros(1),
        );
        let _ = db.run_with_policy(db.default_isolation(), &policy, |txn| {
            Err::<(), _>(adhoc_storage::DbError::Deadlock { txn: txn.id() })
        });
        let retries = monitor.retry_log();
        assert!(retries
            .iter()
            .any(|e| matches!(e, RetryEvent::Retried { label, .. } if label == "dbt")));
        assert!(retries
            .iter()
            .any(|e| matches!(e, RetryEvent::GaveUp { label, .. } if label == "dbt")));
    }

    #[test]
    fn display_renders_actionably() {
        let h = Hazard::LockAfterRead {
            lock_key: "post:1".into(),
            table: "posts".into(),
            row: 1,
        };
        let text = h.to_string();
        assert!(text.contains("lock-after-read"));
        assert!(text.contains("posts"));
    }
}
