//! The coordination-hints proxy — the paper's second §7 cure.
//!
//! Table 7a shows the studied applications reaching for whatever
//! coordination primitive their stack happened to expose: Redis `SETNX`
//! leases, PostgreSQL advisory locks, hand-built lock tables, `FOR
//! UPDATE`, per-operation isolation hints. [`Coordinator`] puts the
//! database-side hints behind one interface:
//!
//! * **Advisory locks**: [`Coordinator::user_lock`] takes the engine's
//!   session-scoped user lock on a hashed application key; the
//!   [`CoordGuard`] releases it and ends its session on
//!   [`unlock`](CoordGuard::unlock) or drop (a panic unwinding past the
//!   guard included).
//! * **In-transaction hints**: an explicit row lock
//!   ([`row_lock`](Coordinator::row_lock), `FOR UPDATE`) and a
//!   per-operation Read Committed read
//!   ([`read_committed_read`](Coordinator::read_committed_read)).
//! * **Escrow**: [`reserve`](Coordinator::reserve) takes a lock-free
//!   reservation on a budget column.
//!
//! Both engine profiles implement every hint, so nothing here routes
//! around a missing one. The other mechanisms have one implementation
//! each, in `adhoc_core::locks`: the fenced KV lease is
//! `KvSetNxLock::with_ttl(..).with_fencing()`, and the database-table
//! lock is `DbTableLock`, whose boot UUID reclaims a row a crashed holder
//! left locked.
//!
//! This is the only hints façade in the workspace: the cured app
//! variants, the isolation ablation and the examples all call it directly.

use crate::error::OrmError;
use crate::Result;
use adhoc_storage::db::SessionId;
use adhoc_storage::{Database, Row, Transaction};

/// A held advisory lock, released (and its session ended) on
/// [`unlock`](Self::unlock) or drop.
#[derive(Debug)]
pub struct CoordGuard {
    db: Database,
    session: SessionId,
    key: i64,
    released: bool,
}

impl CoordGuard {
    /// Release the lock and end its session.
    pub fn unlock(mut self) -> Result<()> {
        self.release();
        Ok(())
    }

    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.db.advisory_unlock(self.session, self.key);
            self.db.end_session(self.session);
        }
    }
}

impl Drop for CoordGuard {
    fn drop(&mut self) {
        self.release();
    }
}

/// The coordination façade over one database's hints.
#[derive(Debug, Clone)]
pub struct Coordinator {
    db: Database,
}

impl Coordinator {
    /// A façade over `db`.
    pub fn new(db: Database) -> Self {
        Self { db }
    }

    /// Explicit user lock on an application-chosen key (blocking): the
    /// engine's advisory lock, held by a session of its own.
    pub fn user_lock(&self, key: &str) -> Result<CoordGuard> {
        let session = self.db.new_session();
        let key = hash_key(key);
        self.db
            .advisory_lock(session, key)
            .map_err(|e| OrmError::Coordination {
                mechanism: "advisory",
                detail: e.to_string(),
            })?;
        Ok(CoordGuard {
            db: self.db.clone(),
            session,
            key,
            released: false,
        })
    }

    /// Explicit row lock inside an open transaction (SQL Server's
    /// `HOLDLOCK`-style hint; our engines spell it `FOR UPDATE`). The
    /// lock persists until the transaction ends.
    pub fn row_lock(&self, txn: &mut Transaction, table: &str, id: i64) -> Result<()> {
        txn.get_for_update(table, id)?;
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

    /// Per-operation isolation hint: read this row at Read Committed even
    /// inside a snapshot transaction (Table 7b — §3.1.1's non-critical
    /// reads can opt out of the strict level).
    pub fn read_committed_read(
        &self,
        txn: &mut Transaction,
        table: &str,
        id: i64,
    ) -> Result<Option<Row>> {
        Ok(txn.get_read_committed(table, id)?)
    }
}

/// FNV-1a of an application lock key into the advisory key space — the
/// same mapping `pg_advisory_lock(hashtext(...))` deployments use. Every
/// lock-row id is this hash too: `adhoc_core`'s `SFU` and `DB` locks.
pub fn hash_key(key: &str) -> i64 {
    (adhoc_sim::rng::fnv1a(key.as_bytes()) & (i64::MAX as u64)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_storage::{Column, ColumnType, EngineProfile, IsolationLevel, Schema};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn db() -> Database {
        Database::in_memory(EngineProfile::PostgresLike)
    }

    /// Whether a second façade over `database` takes `key` without
    /// entering a single lock wait.
    fn acquires_at_once(database: &Database, key: &str) -> bool {
        let waits = database.stats().lock_stats.waits;
        let guard = Coordinator::new(database.clone()).user_lock(key);
        guard.is_ok() && database.stats().lock_stats.waits == waits
    }

    #[test]
    fn user_lock_blocks_until_released() {
        let coord = std::sync::Arc::new(Coordinator::new(db()));
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
        assert!(!done.load(Ordering::SeqCst));
        g.unlock().unwrap();
        h.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_releases_the_lock() {
        let database = db();
        {
            let _g = Coordinator::new(database.clone()).user_lock("k").unwrap();
        }
        assert!(acquires_at_once(&database, "k"));
    }

    #[test]
    fn a_guard_unwound_by_a_panic_releases_its_lock() {
        let database = db();
        let coord = Coordinator::new(database.clone());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = coord.user_lock("k").unwrap();
            panic!("critical section fails while holding the lock");
        }));
        assert!(unwound.is_err());
        assert!(acquires_at_once(&database, "k"));
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
