//! The unified coordination façade — the paper's second §7 cure.
//!
//! Table 7a shows the studied applications reaching for whatever
//! coordination primitive their stack happened to expose: Redis `SETNX`
//! leases, PostgreSQL advisory locks, hand-built lock tables, `FOR
//! UPDATE`, per-operation isolation hints. Each app re-implements
//! acquisition, release, crash reclaim, and fencing — and each gets a
//! different subset wrong (§4.1). [`Coordinator`] routes all of them
//! through one interface:
//!
//! * **KV leases** (fenced, per the §3.4.2 TTL-steal analysis): when a
//!   [`Client`] is attached, [`Coordinator::lease`] acquires a TTL lease
//!   with a monotonic fencing token; [`CoordGuard::fenced_set`] guards
//!   writes against stale holders.
//! * **Advisory locks**: [`Coordinator::user_lock`] uses the engine's
//!   session-scoped user locks when supported.
//! * **Graceful fallback**: no KV client → a lease degrades to a user
//!   lock; no advisory support → a database-table lock (the fallback the
//!   paper explicitly calls for), implemented here as a read-check-write
//!   of a lock row under `FOR UPDATE`. The row stores no boot identity,
//!   so a holder that dies without releasing leaves it `locked` for good:
//!   Broadleaf's reboot deadlock, which `adhoc_core::locks::DbTableLock`
//!   prevents by tagging each lock row with a boot UUID.
//! * **In-transaction hints**: explicit row locks, table locks, and
//!   per-operation isolation reads, capability-gated per Table 7a.
//!
//! This is the only hints façade in the workspace: the cured app
//! variants, the isolation ablation and the examples all call it directly.

use crate::error::OrmError;
use crate::Result;
use adhoc_kv::Client;
use adhoc_sim::RetryPolicy;
use adhoc_storage::db::SessionId;
use adhoc_storage::{
    Column, ColumnType, Database, DbError, LockMode, Row, Schema, Transaction, Value,
};
use std::time::Duration;

/// Capability flags for the engine behind the façade (Table 7a rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordSupport {
    /// Explicit user (advisory) locks: PostgreSQL, MySQL, Oracle.
    pub user_locks: bool,
    /// Explicit table locks.
    pub table_locks: bool,
    /// Explicit row locks (`SELECT … FOR UPDATE`).
    pub row_locks: bool,
    /// Per-operation isolation (SQL Server / Db2 table hints).
    pub per_op_isolation: bool,
}

impl CoordSupport {
    /// Everything available (our engines implement all four).
    pub fn full() -> Self {
        Self {
            user_locks: true,
            table_locks: true,
            row_locks: true,
            per_op_isolation: true,
        }
    }

    /// An engine without advisory locks (e.g., SQL Server per Table 7a) —
    /// exercises the fallback path.
    pub fn without_user_locks() -> Self {
        Self {
            user_locks: false,
            ..Self::full()
        }
    }
}

/// Table holding fallback lock rows (created idempotently on first use).
const LOCK_TABLE: &str = "__coord_locks";

/// How long a lease/fallback acquisition polls before giving up.
const ACQUIRE_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll interval for busy lease/fallback keys.
const ACQUIRE_POLL: Duration = Duration::from_micros(200);

/// A held coordination guard, released on [`unlock`](Self::unlock) or
/// drop. Which mechanism backs it is observable via
/// [`mechanism`](Self::mechanism) — callers never need to care.
pub enum CoordGuard {
    /// Engine advisory lock held by a dedicated session.
    Advisory {
        /// Database the session lives on.
        db: Database,
        /// The advisory-lock session.
        session: SessionId,
        /// Hashed lock key.
        key: i64,
        /// Whether release already happened.
        released: bool,
    },
    /// Database-table fallback lock row.
    Table {
        /// Database holding the lock table.
        db: Database,
        /// Lock-row primary key (hash of the user key).
        id: i64,
        /// Whether release already happened.
        released: bool,
    },
    /// Fenced KV lease.
    Lease {
        /// The KV client the lease lives on.
        kv: Client,
        /// Lease key.
        key: String,
        /// Holder identity.
        owner: String,
        /// Monotonic fencing token granted with the lease.
        token: u64,
        /// Whether release already happened.
        released: bool,
    },
}

impl CoordGuard {
    /// Which mechanism backs this guard (diagnostics / tests).
    pub fn mechanism(&self) -> &'static str {
        match self {
            CoordGuard::Advisory { .. } => "advisory",
            CoordGuard::Table { .. } => "db-table-fallback",
            CoordGuard::Lease { .. } => "kv-lease",
        }
    }

    /// The fencing token, when this guard is a KV lease.
    pub fn fencing_token(&self) -> Option<u64> {
        match self {
            CoordGuard::Lease { token, .. } => Some(*token),
            _ => None,
        }
    }

    /// A write to `key` guarded by this lease's fencing token:
    /// `Ok(false)` means the lease was reaped and re-granted past us and
    /// nothing was written. Errors on non-lease guards.
    pub fn fenced_set(&self, key: &str, value: &str) -> Result<bool> {
        match self {
            CoordGuard::Lease { kv, token, .. } => {
                kv.fenced_set(key, value, *token)
                    .map_err(|e| OrmError::Coordination {
                        mechanism: "kv-lease",
                        detail: e.to_string(),
                    })
            }
            other => Err(OrmError::Coordination {
                mechanism: other.mechanism(),
                detail: "fenced_set requires a kv-lease guard".into(),
            }),
        }
    }

    /// Release the guard.
    pub fn unlock(mut self) -> Result<()> {
        self.release()
    }

    fn release(&mut self) -> Result<()> {
        match self {
            CoordGuard::Advisory {
                db,
                session,
                key,
                released,
            } => {
                if !*released {
                    *released = true;
                    db.advisory_unlock(*session, *key);
                    db.end_session(*session);
                }
                Ok(())
            }
            CoordGuard::Table { db, id, released } => {
                if *released {
                    return Ok(());
                }
                *released = true;
                db.run(db.default_isolation(), |t| {
                    t.update(LOCK_TABLE, *id, &[("locked", false.into())])
                })
                .map(|_| ())
                .map_err(|e| OrmError::Coordination {
                    mechanism: "db-table-fallback",
                    detail: e.to_string(),
                })
            }
            CoordGuard::Lease {
                kv,
                key,
                owner,
                released,
                ..
            } => {
                if *released {
                    return Ok(());
                }
                *released = true;
                // Checked release: a lease that is no longer ours (expired
                // and re-granted) is left to its new holder, not an error.
                kv.release_lease(key, owner)
                    .map(|_| ())
                    .map_err(|e| OrmError::Coordination {
                        mechanism: "kv-lease",
                        detail: e.to_string(),
                    })
            }
        }
    }
}

impl Drop for CoordGuard {
    fn drop(&mut self) {
        let _ = self.release();
    }
}

impl std::fmt::Debug for CoordGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordGuard")
            .field("mechanism", &self.mechanism())
            .field("fencing_token", &self.fencing_token())
            .finish_non_exhaustive()
    }
}

/// The coordination façade: one interface over KV leases, advisory
/// locks, the database-table fallback, and in-transaction hints.
#[derive(Clone)]
pub struct Coordinator {
    db: Database,
    kv: Option<Client>,
    support: CoordSupport,
}

impl Coordinator {
    /// A façade over `db` assuming full hint support and no KV substrate.
    pub fn new(db: Database) -> Self {
        Self {
            db,
            kv: None,
            support: CoordSupport::full(),
        }
    }

    /// Attach a KV client; [`lease`](Self::lease) routes to it.
    pub fn with_kv(mut self, kv: Client) -> Self {
        self.kv = Some(kv);
        self
    }

    /// Pretend the engine lacks some hints, to exercise fallbacks.
    pub fn with_support(mut self, support: CoordSupport) -> Self {
        self.support = support;
        self
    }

    /// The capability flags this façade routes around.
    pub fn support(&self) -> CoordSupport {
        self.support
    }

    /// Acquire a fenced TTL lease on `key` (blocking, bounded by an
    /// internal acquisition timeout). Routed to the KV substrate when one
    /// is attached; otherwise degrades to [`user_lock`](Self::user_lock)
    /// — same mutual exclusion, no TTL self-expiry, which is strictly
    /// safer.
    pub fn lease(&self, key: &str, owner: &str, ttl: Duration) -> Result<CoordGuard> {
        let Some(kv) = &self.kv else {
            return self.user_lock(key);
        };
        let policy = RetryPolicy::fixed(ACQUIRE_POLL, ACQUIRE_TIMEOUT);
        let token = policy
            .run(
                "coord-lease",
                None,
                |_e: &OrmError| true,
                |_attempt| {
                    match kv.acquire_lease(key, owner, ttl) {
                        Ok(Some(token)) => Ok(token),
                        Ok(None) => Err(OrmError::Coordination {
                            mechanism: "kv-lease",
                            detail: "busy".into(),
                        }),
                        Err(e) => {
                            // Ambiguous reply (§3.4.1): the grant may have
                            // landed before the connection dropped — read
                            // our token back before retrying.
                            match kv.lease_token(key, owner) {
                                Ok(Some(token)) => Ok(token),
                                _ => Err(OrmError::Coordination {
                                    mechanism: "kv-lease",
                                    detail: e.to_string(),
                                }),
                            }
                        }
                    }
                },
            )
            .map_err(|give_up| OrmError::Coordination {
                mechanism: "kv-lease",
                detail: format!("acquisition timed out: {}", give_up.error),
            })?;
        Ok(CoordGuard::Lease {
            kv: kv.clone(),
            key: key.to_string(),
            owner: owner.to_string(),
            token,
            released: false,
        })
    }

    /// Explicit user lock on an application-chosen key (blocking). Uses
    /// the engine's advisory locks when available; otherwise the
    /// database-table fallback the paper calls for.
    pub fn user_lock(&self, key: &str) -> Result<CoordGuard> {
        if self.support.user_locks {
            let session = self.db.new_session();
            let key_hash = hash_key(key);
            self.db
                .advisory_lock(session, key_hash)
                .map_err(|e| OrmError::Coordination {
                    mechanism: "advisory",
                    detail: e.to_string(),
                })?;
            Ok(CoordGuard::Advisory {
                db: self.db.clone(),
                session,
                key: key_hash,
                released: false,
            })
        } else {
            self.table_fallback_lock(key)
        }
    }

    /// Try-variant of [`user_lock`](Self::user_lock): `None` when held
    /// elsewhere. On the table fallback a single acquisition attempt is
    /// made (no polling).
    pub fn try_user_lock(&self, key: &str) -> Result<Option<CoordGuard>> {
        if self.support.user_locks {
            let session = self.db.new_session();
            let key_hash = hash_key(key);
            if self.db.try_advisory_lock(session, key_hash) {
                Ok(Some(CoordGuard::Advisory {
                    db: self.db.clone(),
                    session,
                    key: key_hash,
                    released: false,
                }))
            } else {
                self.db.end_session(session);
                Ok(None)
            }
        } else {
            let id = hash_key(key);
            self.ensure_lock_table()?;
            Ok(self
                .try_acquire_lock_row(key, id)?
                .then(|| CoordGuard::Table {
                    db: self.db.clone(),
                    id,
                    released: false,
                }))
        }
    }

    /// Explicit row lock inside an open transaction (SQL Server's
    /// `HOLDLOCK`-style hint; our engines spell it `FOR UPDATE`). The
    /// lock persists until the transaction ends.
    pub fn row_lock(&self, txn: &mut Transaction, table: &str, id: i64) -> Result<()> {
        if !self.support.row_locks {
            return Err(OrmError::Coordination {
                mechanism: "row-lock",
                detail: "engine does not support explicit row locks".into(),
            });
        }
        txn.get_for_update(table, id)?;
        Ok(())
    }

    /// Explicit table lock inside an open transaction.
    pub fn table_lock(&self, txn: &mut Transaction, table: &str, mode: LockMode) -> Result<()> {
        if !self.support.table_locks {
            return Err(OrmError::Coordination {
                mechanism: "table-lock",
                detail: "engine does not support explicit table locks".into(),
            });
        }
        txn.lock_table(table, mode)?;
        Ok(())
    }

    /// Escrow reservation on a budget column (`stock >= 0` split into
    /// local reservations): the fast path is one lock-free atomic on the
    /// engine's escrow ledger — no row lock, no validated read — and
    /// contenders only coordinate when the remaining budget is nearly
    /// exhausted. The caller's transaction must apply the matching
    /// `add_delta(column, -amount)` and then
    /// [`confirm`](adhoc_storage::EscrowReservation::confirm) the guard
    /// (or drop it on abort,
    /// [`abandon`](adhoc_storage::EscrowReservation::abandon) it on an
    /// ambiguous outcome). Exhaustion surfaces as
    /// [`DbError::EscrowExhausted`](adhoc_storage::DbError) — not
    /// retryable; report "out of stock" or fall back to a coordinated
    /// path.
    pub fn reserve(
        &self,
        table: &str,
        id: i64,
        column: &str,
        amount: i64,
    ) -> Result<adhoc_storage::EscrowReservation> {
        Ok(self.db.escrow_reserve(table, id, column, amount)?)
    }

    /// Escrow deposit into a budget column: a committed commutative
    /// increment plus the matching ledger credit, ordered so the credit
    /// is never double-counted.
    pub fn deposit(&self, table: &str, id: i64, column: &str, amount: i64) -> Result<()> {
        Ok(self.db.escrow_deposit(table, id, column, amount)?)
    }

    /// Per-operation isolation hint: read this row at Read Committed even
    /// inside a snapshot transaction (Table 7b — §3.1.1's non-critical
    /// reads can opt out of the strict level).
    pub fn read_committed_read(
        &self,
        txn: &mut Transaction,
        table: &str,
        id: i64,
    ) -> Result<Option<Row>> {
        if !self.support.per_op_isolation {
            return Err(OrmError::Coordination {
                mechanism: "per-op-isolation",
                detail: "engine does not support per-operation isolation".into(),
            });
        }
        Ok(txn.get_read_committed(table, id)?)
    }

    fn table_fallback_lock(&self, key: &str) -> Result<CoordGuard> {
        self.ensure_lock_table()?;
        let id = hash_key(key);
        let policy = RetryPolicy::fixed(ACQUIRE_POLL, ACQUIRE_TIMEOUT);
        policy
            .run(
                "coord-table-lock",
                None,
                |e: &OrmError| {
                    matches!(
                        e,
                        OrmError::Coordination {
                            mechanism: "db-table-fallback",
                            ..
                        }
                    )
                },
                |_attempt| match self.try_acquire_lock_row(key, id) {
                    Ok(true) => Ok(()),
                    Ok(false) => Err(OrmError::Coordination {
                        mechanism: "db-table-fallback",
                        detail: "busy".into(),
                    }),
                    Err(e) => Err(e),
                },
            )
            .map_err(|give_up| match give_up.error {
                OrmError::Coordination {
                    mechanism: "db-table-fallback",
                    ..
                } if give_up.retryable => OrmError::Coordination {
                    mechanism: "db-table-fallback",
                    detail: "acquisition timed out".into(),
                },
                other => other,
            })?;
        Ok(CoordGuard::Table {
            db: self.db.clone(),
            id,
            released: false,
        })
    }

    /// One acquisition attempt: read the lock row `FOR UPDATE` and take it
    /// if it is absent or unlocked. A holder that crashed without
    /// releasing keeps it forever (see the module doc).
    fn try_acquire_lock_row(&self, key: &str, id: i64) -> Result<bool> {
        let schema = self.db.schema(LOCK_TABLE)?;
        Ok(self.db.run(self.db.default_isolation(), |txn| {
            match txn.get_for_update(LOCK_TABLE, id)? {
                None => {
                    txn.insert(
                        LOCK_TABLE,
                        &[
                            ("id", Value::Int(id)),
                            ("key", key.into()),
                            ("locked", true.into()),
                        ],
                    )?;
                    Ok(true)
                }
                Some(row) => {
                    if row.get_bool(&schema, "locked")? {
                        Ok(false)
                    } else {
                        txn.update(LOCK_TABLE, id, &[("locked", true.into())])?;
                        Ok(true)
                    }
                }
            }
        })?)
    }

    fn ensure_lock_table(&self) -> Result<()> {
        let schema = Schema::new(
            LOCK_TABLE,
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("key", ColumnType::Str),
                Column::new("locked", ColumnType::Bool),
            ],
            "id",
        )
        .expect("static schema");
        match self.db.create_table(schema) {
            Ok(()) | Err(DbError::DuplicateTable { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("support", &self.support)
            .field("has_kv", &self.kv.is_some())
            .finish_non_exhaustive()
    }
}

/// FNV-1a of an application lock key into the advisory key space — the
/// same mapping `pg_advisory_lock(hashtext(...))` deployments use. Every
/// lock-row id is this hash too: the table fallback here and
/// `adhoc_core`'s `SFU` and `DB` locks.
pub fn hash_key(key: &str) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h & (i64::MAX as u64)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_kv::Store;
    use adhoc_sim::{LatencyModel, RealClock};
    use adhoc_storage::{EngineProfile, IsolationLevel};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn db() -> Database {
        Database::in_memory(EngineProfile::PostgresLike)
    }

    fn kv() -> Client {
        Client::new(Store::new(), RealClock::shared(), LatencyModel::zero())
    }

    #[test]
    fn user_lock_routes_to_advisory() {
        let coord = Coordinator::new(db());
        let g = coord.user_lock("checkout:42").unwrap();
        assert_eq!(g.mechanism(), "advisory");
        assert!(coord.try_user_lock("checkout:42").unwrap().is_none());
        g.unlock().unwrap();
        assert!(coord.try_user_lock("checkout:42").unwrap().is_some());
    }

    #[test]
    fn user_lock_falls_back_to_lock_table() {
        let coord = Coordinator::new(db()).with_support(CoordSupport::without_user_locks());
        let g = coord.user_lock("checkout:42").unwrap();
        assert_eq!(g.mechanism(), "db-table-fallback");
        assert!(coord.try_user_lock("checkout:42").unwrap().is_none());
        g.unlock().unwrap();
        let g2 = coord.try_user_lock("checkout:42").unwrap().unwrap();
        assert_eq!(g2.mechanism(), "db-table-fallback");
    }

    #[test]
    fn lease_routes_to_kv_with_fencing() {
        let coord = Coordinator::new(db()).with_kv(kv());
        let g = coord
            .lease("job:7", "worker-a", Duration::from_secs(5))
            .unwrap();
        assert_eq!(g.mechanism(), "kv-lease");
        let token = g.fencing_token().unwrap();
        assert!(g.fenced_set("job:7:result", "done").unwrap());
        // A second, later lease on another key gets a higher token.
        let g2 = coord
            .lease("job:8", "worker-a", Duration::from_secs(5))
            .unwrap();
        assert!(g2.fencing_token().unwrap() > 0);
        let _ = token;
    }

    #[test]
    fn lease_degrades_to_user_lock_without_kv() {
        let coord = Coordinator::new(db());
        let g = coord
            .lease("job:7", "worker-a", Duration::from_secs(5))
            .unwrap();
        assert_eq!(g.mechanism(), "advisory");
        assert!(g.fencing_token().is_none());
    }

    #[test]
    fn lease_release_is_checked_not_blind() {
        let clock = std::sync::Arc::new(adhoc_sim::VirtualClock::new());
        let client = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let coord = Coordinator::new(db()).with_kv(client.clone());
        let g = coord
            .lease("job:9", "worker-a", Duration::from_millis(10))
            .unwrap();
        // The lease expires and another worker takes it.
        clock.advance(Duration::from_millis(20));
        let g2 = coord
            .lease("job:9", "worker-b", Duration::from_secs(5))
            .unwrap();
        // Worker A's (stale) release must not evict worker B.
        g.unlock().unwrap();
        assert_eq!(client.get("job:9").unwrap().as_deref(), Some("worker-b"));
        drop(g2);
    }

    #[test]
    fn user_lock_blocks_until_released_on_either_mechanism() {
        for support in [CoordSupport::full(), CoordSupport::without_user_locks()] {
            let coord = std::sync::Arc::new(Coordinator::new(db()).with_support(support));
            let g = coord.user_lock("k").unwrap();
            let done = std::sync::Arc::new(AtomicBool::new(false));
            let c2 = std::sync::Arc::clone(&coord);
            let d2 = std::sync::Arc::clone(&done);
            let h = std::thread::spawn(move || {
                let g2 = c2.user_lock("k").unwrap();
                d2.store(true, Ordering::SeqCst);
                g2.unlock().unwrap();
            });
            std::thread::sleep(Duration::from_millis(40));
            assert!(!done.load(Ordering::SeqCst), "{}", g.mechanism());
            g.unlock().unwrap();
            h.join().unwrap();
            assert!(done.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn drop_releases_every_mechanism() {
        let coord = Coordinator::new(db()).with_kv(kv());
        {
            let _g = coord.user_lock("k").unwrap();
        }
        assert!(coord.try_user_lock("k").unwrap().is_some());
        {
            let _g = coord.lease("l", "w", Duration::from_secs(5)).unwrap();
        }
        // Released lease key is gone, so a new owner acquires instantly.
        let g = coord.lease("l", "w2", Duration::from_secs(5)).unwrap();
        assert_eq!(g.mechanism(), "kv-lease");
    }

    #[test]
    fn hint_capability_gates_error_cleanly() {
        let database = db();
        let coord = Coordinator::new(database.clone()).with_support(CoordSupport {
            user_locks: true,
            table_locks: false,
            row_locks: false,
            per_op_isolation: false,
        });
        let mut txn = database.begin();
        assert!(coord.row_lock(&mut txn, "any", 1).is_err());
        assert!(coord.table_lock(&mut txn, "any", LockMode::Shared).is_err());
        assert!(coord.read_committed_read(&mut txn, "any", 1).is_err());
        txn.abort();
    }

    /// A database with one `orders(id, total)` row: id 1, the given total.
    fn orders(total: i64) -> Database {
        let database = db();
        database
            .create_table(
                Schema::new(
                    "orders",
                    vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("total", ColumnType::Int),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        database
            .run(IsolationLevel::ReadCommitted, |t| {
                t.insert("orders", &[("id", 1.into()), ("total", total.into())])
                    .map(|_| ())
            })
            .unwrap();
        database
    }

    #[test]
    fn row_lock_holds_until_commit() {
        let database = orders(0);
        let coord = Coordinator::new(database.clone());
        let mut txn = database.begin();
        coord.row_lock(&mut txn, "orders", 1).unwrap();
        // A concurrent writer blocks until we commit.
        let (wrote, written) = std::sync::mpsc::channel();
        let db2 = database.clone();
        let h = std::thread::spawn(move || {
            db2.run(IsolationLevel::ReadCommitted, |t| {
                t.update("orders", 1, &[("total", 5.into())])
            })
            .unwrap();
            wrote.send(()).unwrap();
        });
        assert!(written.recv_timeout(Duration::from_millis(40)).is_err());
        txn.commit().unwrap();
        written.recv().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn per_op_isolation_hint_reads_latest() {
        let database = orders(10);
        let coord = Coordinator::new(database.clone());
        let mut txn = database.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(
            txn.get("orders", 1).unwrap().unwrap().values[1].as_int(),
            10
        );
        database
            .run(IsolationLevel::ReadCommitted, |t| {
                t.update("orders", 1, &[("total", 99.into())])
            })
            .unwrap();
        // The snapshot still says 10; the hinted read sees the commit.
        let hinted = coord
            .read_committed_read(&mut txn, "orders", 1)
            .unwrap()
            .unwrap();
        assert_eq!(hinted.values[1].as_int(), 99);
        txn.commit().unwrap();
    }
}
