//! `SFU` and `DB`: database-backed locks (§3.2.1).
//!
//! `SFU` piggybacks on `SELECT … FOR UPDATE`: the engine's own record lock
//! is the ad hoc lock, held until the enclosing transaction ends. Spree's
//! bug (§4.1.1, issue \[61\]) was issuing the statement *without* an
//! enclosing transaction, so "the database lock \[releases\] as soon as the
//! statement returns" — reproduced by [`SfuLock::outside_transaction`].
//!
//! `DB` stores lock state in a dedicated table (Broadleaf): acquire is a
//! read-check-write transaction, so every cycle pays a durable commit —
//! the slowest bar of Figure 2. Locks persist across application crashes;
//! Broadleaf tags each with a boot UUID so a rebooted instance can
//! distinguish (and reclaim) pre-crash locks (§3.4.2). Disabling the check
//! ([`DbTableLock::ignore_boot_uuid`]) reproduces the reboot deadlock.

use super::{AcquireConfig, AdHocLock, Guard, LockError, LockGuard};
use adhoc_orm::coord::hash_key;
use adhoc_storage::{
    Column, ColumnType, Database, DbError, IsolationLevel, Schema, Transaction, Value,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// `SFU`: a `SELECT … FOR UPDATE` on a dedicated lock row.
#[derive(Clone)]
pub struct SfuLock {
    db: Database,
    enclosed: bool,
}

impl SfuLock {
    /// Table name used for lock rows.
    pub const TABLE: &'static str = "__sfu_locks";

    /// Create (idempotently) the lock-row table and return the lock.
    pub fn new(db: Database) -> Self {
        let schema = Schema::new(
            Self::TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("key", ColumnType::Str),
            ],
            "id",
        )
        .expect("static schema");
        match db.create_table(schema) {
            Ok(()) | Err(DbError::DuplicateTable { .. }) => {}
            Err(e) => panic!("creating SFU lock table: {e}"),
        }
        Self { db, enclosed: true }
    }

    /// Fault injection (Spree): run the locking read in its own autocommit
    /// transaction, releasing the lock before the caller's critical
    /// section even starts.
    pub fn outside_transaction(mut self) -> Self {
        self.enclosed = false;
        self
    }
}

struct SfuGuard {
    /// The transaction whose record lock *is* the ad hoc lock. `None` for
    /// the buggy outside-transaction variant (nothing is held).
    txn: Option<Transaction>,
    released: bool,
}

impl LockGuard for SfuGuard {
    fn unlock(&mut self) -> Result<(), LockError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        if let Some(txn) = self.txn.take() {
            txn.commit()
                .map_err(|e| LockError::Backend(e.to_string()))?;
        }
        Ok(())
    }

    fn is_valid(&self) -> bool {
        !self.released && self.txn.as_ref().is_some_and(|t| t.is_active())
    }

    fn leak(&mut self) {
        self.released = true;
        // Dropping the transaction aborts it server-side — exactly what
        // happens when the application's connection dies: the engine
        // releases the lock.
        self.txn = None;
    }
}

impl AdHocLock for SfuLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        let id = hash_key(key);
        let acquire = |txn: &mut Transaction| -> Result<(), DbError> {
            let existing = txn.get_for_update(Self::TABLE, id)?;
            if existing.is_none() {
                // First use of this key: create the lock row; the insert's
                // exclusive record lock doubles as the acquisition.
                match txn.insert(Self::TABLE, &[("id", Value::Int(id)), ("key", key.into())]) {
                    Ok(_) => {}
                    // Raced with another first-use: lock the winner's row.
                    Err(DbError::UniqueViolation { .. }) => {
                        txn.get_for_update(Self::TABLE, id)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        };
        if self.enclosed {
            let mut txn = self.db.begin_with(IsolationLevel::ReadCommitted);
            acquire(&mut txn).map_err(|e| LockError::Backend(e.to_string()))?;
            Ok(Guard::new(Box::new(SfuGuard {
                txn: Some(txn),
                released: false,
            })))
        } else {
            // The Spree bug: autocommit — the row lock is gone by the time
            // this function returns.
            self.db
                .run(IsolationLevel::ReadCommitted, |t| acquire(t))
                .map_err(|e| LockError::Backend(e.to_string()))?;
            Ok(Guard::new(Box::new(SfuGuard {
                txn: None,
                released: false,
            })))
        }
    }

    fn label(&self) -> &'static str {
        "SFU"
    }
}

/// `DB`: Broadleaf's lock table with boot-UUID crash recovery.
#[derive(Clone)]
pub struct DbTableLock {
    db: Database,
    config: AcquireConfig,
    /// Current boot identity (changes on [`DbTableLock::reboot`]).
    boot: Arc<AtomicI64>,
    respect_boot_uuid: bool,
}

impl DbTableLock {
    /// Table name used for lock rows.
    pub const TABLE: &'static str = "__db_locks";

    /// Create (idempotently) the lock table and return the lock.
    pub fn new(db: Database) -> Self {
        let schema = Schema::new(
            Self::TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("key", ColumnType::Str),
                Column::new("locked", ColumnType::Bool),
                Column::new("boot", ColumnType::Int),
            ],
            "id",
        )
        .expect("static schema");
        match db.create_table(schema) {
            Ok(()) | Err(DbError::DuplicateTable { .. }) => {}
            Err(e) => panic!("creating DB lock table: {e}"),
        }
        Self {
            db,
            config: AcquireConfig::default(),
            boot: Arc::new(AtomicI64::new(1)),
            respect_boot_uuid: true,
        }
    }

    /// Override the acquisition retry/timeout policy.
    pub fn with_config(mut self, config: AcquireConfig) -> Self {
        self.config = config;
        self
    }

    /// Fault injection: treat pre-crash locks like live ones — the reboot
    /// deadlock Broadleaf's boot UUID exists to prevent.
    pub fn ignore_boot_uuid(mut self) -> Self {
        self.respect_boot_uuid = false;
        self
    }

    /// Simulate an application restart: a new boot identity. Locks written
    /// by earlier boots become reclaimable (when the UUID check is on).
    pub fn reboot(&self) {
        self.boot.fetch_add(1, Ordering::SeqCst);
    }

    fn current_boot(&self) -> i64 {
        self.boot.load(Ordering::SeqCst)
    }

    /// One acquisition attempt: a read-check-write transaction.
    fn try_acquire(&self, key: &str, id: i64) -> Result<bool, LockError> {
        let boot = self.current_boot();
        let schema = self
            .db
            .schema(Self::TABLE)
            .map_err(|e| LockError::Backend(e.to_string()))?;
        self.db
            .run(IsolationLevel::ReadCommitted, |txn| {
                let existing = txn.get_for_update(Self::TABLE, id)?;
                match existing {
                    None => {
                        txn.insert(
                            Self::TABLE,
                            &[
                                ("id", Value::Int(id)),
                                ("key", key.into()),
                                ("locked", true.into()),
                                ("boot", boot.into()),
                            ],
                        )?;
                        Ok(true)
                    }
                    Some(row) => {
                        let locked = row.get_bool(&schema, "locked")?;
                        let row_boot = row.get_int(&schema, "boot")?;
                        let stale = self.respect_boot_uuid && row_boot != boot;
                        if !locked || stale {
                            txn.update(
                                Self::TABLE,
                                id,
                                &[("locked", true.into()), ("boot", boot.into())],
                            )?;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    }
                }
            })
            .map_err(|e| LockError::Backend(e.to_string()))
    }
}

struct DbTableGuard {
    db: Database,
    id: i64,
    released: bool,
    leak: bool,
}

impl LockGuard for DbTableGuard {
    fn unlock(&mut self) -> Result<(), LockError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        if self.leak {
            return Ok(());
        }
        self.db
            .run(IsolationLevel::ReadCommitted, |txn| {
                txn.update(DbTableLock::TABLE, self.id, &[("locked", false.into())])
            })
            .map_err(|e| LockError::Backend(e.to_string()))?;
        Ok(())
    }

    fn is_valid(&self) -> bool {
        !self.released
    }

    fn leak(&mut self) {
        // The crash case: the row stays `locked = true` in the database.
        self.leak = true;
        self.released = true;
    }
}

impl AdHocLock for DbTableLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        let id = hash_key(key);
        self.config
            .poll("DB", key, || Ok(self.try_acquire(key, id)?.then_some(())))?;
        Ok(Guard::new(Box::new(DbTableGuard {
            db: self.db.clone(),
            id,
            released: false,
            leak: false,
        })))
    }

    fn label(&self) -> &'static str {
        "DB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::mutual_exclusion_trial;
    use adhoc_storage::EngineProfile;
    use std::time::Duration;

    fn db() -> Database {
        Database::in_memory(EngineProfile::PostgresLike)
    }

    fn fast() -> AcquireConfig {
        AcquireConfig {
            retry_interval: Duration::from_micros(200),
            timeout: Duration::from_secs(10),
        }
    }

    #[test]
    fn key_hash_is_stable_and_positive() {
        assert_eq!(hash_key("cart-1"), hash_key("cart-1"));
        assert_ne!(hash_key("cart-1"), hash_key("cart-2"));
        assert!(hash_key("anything") >= 0);
    }

    #[test]
    fn sfu_mutual_exclusion() {
        let lock = SfuLock::new(db());
        assert_eq!(mutual_exclusion_trial(&lock, "order-7", 6, 50), 6 * 50);
    }

    #[test]
    fn sfu_blocks_until_commit() {
        let lock = SfuLock::new(db());
        let g = lock.lock("k").unwrap();
        assert!(g.is_valid());
        let lock2 = lock.clone();
        let h = std::thread::spawn(move || {
            let g2 = lock2.lock("k").unwrap();
            g2.unlock().unwrap();
        });
        std::thread::sleep(Duration::from_millis(40));
        assert!(!h.is_finished(), "second SFU must block on the row lock");
        g.unlock().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn spree_bug_sfu_outside_transaction_excludes_nothing() {
        // §4.1.1 [61]: without an enclosing transaction the lock releases
        // as soon as the statement returns.
        let lock = SfuLock::new(db()).outside_transaction();
        let g = lock.lock("k").unwrap();
        assert!(!g.is_valid(), "nothing is actually held");
        // A second locker gets straight through.
        let g2 = lock.lock("k").unwrap();
        g2.unlock().unwrap();
        g.unlock().unwrap();
        // And the racy counter comes up short under contention.
        let total = mutual_exclusion_trial(&lock, "k", 8, 300);
        assert!(total < 8 * 300, "expected lost increments, got {total}");
    }

    #[test]
    fn sfu_leak_releases_via_connection_drop() {
        let lock = SfuLock::new(db());
        lock.lock("k").unwrap().leak();
        // The engine aborted the holder's transaction; the next acquire
        // succeeds immediately.
        lock.lock("k").unwrap().unlock().unwrap();
    }

    #[test]
    fn db_table_mutual_exclusion() {
        let lock = DbTableLock::new(db()).with_config(fast());
        assert_eq!(mutual_exclusion_trial(&lock, "checkout", 4, 30), 4 * 30);
    }

    #[test]
    fn contended_db_table_lock_polls_until_the_timeout() {
        let timeout = Duration::from_millis(30);
        let lock = DbTableLock::new(db()).with_config(AcquireConfig {
            retry_interval: Duration::from_micros(200),
            timeout,
        });
        let held = lock.lock("cart-9").unwrap();
        let started = std::time::Instant::now();
        assert_eq!(
            lock.lock("cart-9").unwrap_err(),
            LockError::Timeout {
                key: "cart-9".into()
            }
        );
        assert!(started.elapsed() >= timeout, "gave up before the timeout");
        assert!(held.is_valid());
        held.unlock().unwrap();
        lock.lock("cart-9").unwrap().unlock().unwrap();
    }

    #[test]
    fn db_table_lock_persists_across_crash_and_reboot_reclaims() {
        let lock = DbTableLock::new(db()).with_config(AcquireConfig {
            retry_interval: Duration::from_micros(200),
            timeout: Duration::from_millis(50),
        });
        lock.lock("session-1").unwrap().leak(); // app crashes mid-section
                                                // Same boot: the lock row still says locked -> timeout.
        assert!(matches!(
            lock.lock("session-1"),
            Err(LockError::Timeout { .. })
        ));
        // Reboot: new boot UUID, stale lock is reclaimed (§3.4.2).
        lock.reboot();
        lock.lock("session-1").unwrap().unlock().unwrap();
    }

    #[test]
    fn db_table_lock_without_uuid_check_deadlocks_after_reboot() {
        let lock = DbTableLock::new(db())
            .with_config(AcquireConfig {
                retry_interval: Duration::from_micros(200),
                timeout: Duration::from_millis(50),
            })
            .ignore_boot_uuid();
        lock.lock("session-1").unwrap().leak();
        lock.reboot();
        assert!(
            matches!(lock.lock("session-1"), Err(LockError::Timeout { .. })),
            "without the boot UUID the pre-crash lock blocks forever"
        );
    }

    #[test]
    fn db_table_unlock_frees_for_other_boots_too() {
        let lock = DbTableLock::new(db()).with_config(fast());
        let g = lock.lock("k").unwrap();
        g.unlock().unwrap();
        lock.reboot();
        lock.lock("k").unwrap().unlock().unwrap();
    }
}
