//! Escrow reservations: coordination-avoiding enforcement of budget
//! invariants (`stock >= 0`, `redeemed <= max`).
//!
//! The invariant `column >= 0` is not invariant-confluent — two
//! uncoordinated decrements can jointly overdraw a budget that either
//! alone would respect — but it admits *escrow*: split the committed
//! budget into local reservations granted off one atomic counter. A grant
//! is one compare-and-swap that takes `amount` out of the remaining
//! budget only if the budget stays non-negative; no record lock, no
//! read-validate-write, no abort/retry loop.
//!
//! The grant used to subtract first and add the units back when they did
//! not fit, escalating to a per-cell mutex before refusing. That refused
//! stock it had: a grant that did not fit left a transient deficit in the
//! counter, and a concurrent grant that *did* fit, reading the counter
//! during that window, fell to the slow path and could be refused with
//! [`DbError::EscrowExhausted`] while units remained. The compare-and-swap
//! never publishes a value it takes back, so a refusal always reports a
//! budget that really was short.
//!
//! The ledger is volatile server memory (like the lock table): a crash
//! forgets every outstanding reservation, and entries lazily re-init
//! from the committed column value. Committed state is only ever moved
//! by commutative deltas (see
//! [`Transaction::add_delta`](crate::txn::Transaction::add_delta)): a
//! reservation's transaction takes its units out, and a committed positive
//! delta credits the cell's entry as it installs, so crash recovery needs
//! no escrow-specific repair.
//!
//! Discipline (enforced by convention, checked by the confluence
//! oracle): an escrow-managed column is decremented only through
//! [`Database::escrow_reserve`] + [`EscrowReservation::confirm`], and
//! incremented only by deltas ([`Database::escrow_deposit`], or an
//! `add_delta` in a transaction of the caller's own, such as a transfer's
//! credit). Plain writes that bypass the ledger desynchronize `available`
//! from the committed value until the next restart.

use crate::db::Database;
use crate::error::DbError;
use crate::fasthash::FastMap;
use crate::value::ColumnType;
use crate::Result;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// `(table_id, row_id, column_index)` — one escrow-managed cell.
type EscrowKey = (usize, i64, usize);

/// Per-cell escrow state.
#[derive(Debug)]
pub(crate) struct EscrowEntry {
    /// Remaining budget: committed column value minus outstanding
    /// reservations. Granting a reservation is one compare-and-swap that
    /// never takes it below zero; releasing is one `fetch_add`.
    available: AtomicI64,
}

/// The per-database escrow ledger: lazily populated, cleared on crash
/// (reservations are volatile intents, never durable state).
#[derive(Default)]
pub(crate) struct EscrowLedger {
    entries: Mutex<FastMap<EscrowKey, Arc<EscrowEntry>>>,
}

impl EscrowEntry {
    /// Credit a committed positive delta of the cell.
    pub(crate) fn credit(&self, amount: i64) {
        self.available.fetch_add(amount, Ordering::AcqRel);
    }
}

impl EscrowLedger {
    /// Forget every entry and outstanding reservation (crash):
    /// entries re-init from committed state on next use. Guards still
    /// holding an `Arc` to a detached entry settle against it harmlessly.
    pub(crate) fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// A granted escrow reservation of `amount` units of one budget column.
///
/// Lifecycle: hold it across the transaction that consumes the budget
/// (which must stage `add_delta(column, -amount)`), then settle it:
///
/// * [`confirm`](Self::confirm) after the transaction commits — the
///   budget is permanently consumed, `available` already reflects it.
/// * drop (or [`release`](Self::release)) when the transaction aborts —
///   the reserved units return to the budget.
/// * [`abandon`](Self::abandon) when the commit outcome is *ambiguous*
///   (`ConnectionLost`, §3.4.2): the units are conservatively treated as
///   consumed. The budget may undersell until the next restart re-derives
///   the ledger, but can never oversell.
#[derive(Debug)]
pub struct EscrowReservation {
    entry: Arc<EscrowEntry>,
    table: String,
    column: String,
    id: i64,
    amount: i64,
    settled: bool,
}

impl EscrowReservation {
    /// The reserved amount.
    pub fn amount(&self) -> i64 {
        self.amount
    }

    /// The table the reservation draws from.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The budget column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The reserved row.
    pub fn id(&self) -> i64 {
        self.id
    }

    /// Settle after the consuming transaction committed: the units are
    /// gone from the committed value and from the outstanding set at
    /// once, so `available` is untouched.
    pub fn confirm(mut self) {
        self.settled = true;
    }

    /// Settle after the consuming transaction *aborted*: return the
    /// units to the budget. Dropping the guard does the same.
    pub fn release(self) {
        drop(self);
    }

    /// Settle an *ambiguous* outcome (the §3.4.2 lost-commit-ack): the
    /// commit may or may not be durable, so the units are conservatively
    /// kept out of the budget. Never oversells; a restart re-derives the
    /// true budget from committed state.
    pub fn abandon(mut self) {
        self.settled = true;
    }
}

impl Drop for EscrowReservation {
    fn drop(&mut self) {
        if !self.settled {
            self.entry
                .available
                .fetch_add(self.amount, Ordering::AcqRel);
        }
    }
}

impl Database {
    /// Resolve (or lazily initialize) the escrow entry for one cell. The
    /// first use reads the committed column value under the row's shard
    /// lock, the lock a committer holds while it installs a delta of the
    /// row (see [`escrow_credit_target`](Self::escrow_credit_target)): the
    /// initial value and a delta's credit never both count one delta.
    fn escrow_entry(&self, table: &str, id: i64, column: &str) -> Result<Arc<EscrowEntry>> {
        let t = self.resolve_table(table)?;
        let col = t.schema.column_index(column)?;
        if t.schema.columns[col].ty != ColumnType::Int {
            return Err(DbError::TypeMismatch {
                table: table.to_string(),
                column: column.to_string(),
                expected: ColumnType::Int,
                found: Some(t.schema.columns[col].ty),
            });
        }
        let key = (t.id, id, col);
        if let Some(entry) = self.inner.escrow.entries.lock().get(&key) {
            return Ok(Arc::clone(entry));
        }
        self.with_chain(t.id, id, |c| {
            let Some(committed) = c.and_then(|c| c.latest()).map(|row| row.at(col).as_int()) else {
                return Err(DbError::NoSuchRow {
                    table: table.to_string(),
                    id,
                });
            };
            let mut entries = self.inner.escrow.entries.lock();
            let entry = entries.entry(key).or_insert_with(|| {
                t.mark_escrowed();
                Arc::new(EscrowEntry {
                    available: AtomicI64::new(committed),
                })
            });
            Ok(Arc::clone(entry))
        })
    }

    /// The ledger entry a committed positive delta of one cell must
    /// credit, if the cell has one. The committer calls this while it
    /// holds the row's shard lock and credits the entry once the delta is
    /// installed: an entry that exists now read a committed value without
    /// the delta, and no entry can be initialized until the lock drops.
    pub(crate) fn escrow_credit_target(
        &self,
        table: usize,
        id: i64,
        col: usize,
    ) -> Option<Arc<EscrowEntry>> {
        if !self.table_by_id(table).escrowed() {
            return None;
        }
        self.inner
            .escrow
            .entries
            .lock()
            .get(&(table, id, col))
            .cloned()
    }

    /// Reserve `amount` units of the budget column `table.column` on row
    /// `id`, without taking any record lock or read footprint: one
    /// compare-and-swap that grants only if the remaining budget covers
    /// `amount`. A budget short of `amount` fails with
    /// [`DbError::EscrowExhausted`] carrying the budget the swap read.
    ///
    /// The caller's consuming transaction must stage the matching
    /// `add_delta(column, -amount)` and settle the guard per its commit
    /// outcome (see [`EscrowReservation`]).
    pub fn escrow_reserve(
        &self,
        table: &str,
        id: i64,
        column: &str,
        amount: i64,
    ) -> Result<EscrowReservation> {
        assert!(amount >= 0, "escrow reservations are non-negative");
        let entry = self.escrow_entry(table, id, column)?;
        let grant = entry
            .available
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |a| {
                (a >= amount).then_some(a - amount)
            });
        if let Err(available) = grant {
            return Err(DbError::EscrowExhausted {
                table: table.to_string(),
                column: column.to_string(),
                id,
                requested: amount,
                available,
            });
        }
        Ok(EscrowReservation {
            entry,
            table: table.to_string(),
            column: column.to_string(),
            id,
            amount,
            settled: false,
        })
    }

    /// Deposit `amount` units into an escrow-managed budget column: one
    /// committed commutative delta, which credits the ledger as it
    /// installs. The entry is resolved *before* the transaction commits,
    /// so the budget grows by `amount` even on the cell's first use.
    pub fn escrow_deposit(&self, table: &str, id: i64, column: &str, amount: i64) -> Result<()> {
        assert!(amount >= 0, "escrow deposits are non-negative");
        self.escrow_entry(table, id, column)?;
        self.run(crate::engine::IsolationLevel::ReadCommitted, |t| {
            t.add_delta(table, id, column, amount)
        })
    }

    /// The remaining budget of an escrow cell (committed value minus
    /// outstanding reservations), initializing the entry if needed.
    /// Oracle/introspection use.
    pub fn escrow_available(&self, table: &str, id: i64, column: &str) -> Result<i64> {
        let entry = self.escrow_entry(table, id, column)?;
        Ok(entry.available.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineProfile, IsolationLevel};
    use crate::schema::{Column, Schema};

    fn fixture(stock: i64) -> Database {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "stocks",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("qty", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("stocks", &[("id", 1.into()), ("qty", stock.into())])
        })
        .unwrap();
        db
    }

    #[test]
    fn reserve_confirm_consumes_budget_exactly_once() {
        let db = fixture(10);
        let r = db.escrow_reserve("stocks", 1, "qty", 4).unwrap();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 6);
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("stocks", 1, "qty", -4)
        })
        .unwrap();
        r.confirm();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 6);
        let committed = db.latest_committed("stocks", 1).unwrap().unwrap();
        assert_eq!(committed.values[1].as_int(), 6);
    }

    #[test]
    fn dropped_reservation_returns_units() {
        let db = fixture(5);
        {
            let _r = db.escrow_reserve("stocks", 1, "qty", 5).unwrap();
            assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 0);
        }
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 5);
    }

    #[test]
    fn exhaustion_fails_and_never_overdraws() {
        let db = fixture(3);
        let _a = db.escrow_reserve("stocks", 1, "qty", 2).unwrap();
        let err = db.escrow_reserve("stocks", 1, "qty", 2).unwrap_err();
        match err {
            DbError::EscrowExhausted {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 2);
                assert_eq!(available, 1);
            }
            other => panic!("expected EscrowExhausted, got {other}"),
        }
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 1);
    }

    #[test]
    fn abandon_is_conservative_and_restart_rederives() {
        let db = fixture(10);
        let r = db.escrow_reserve("stocks", 1, "qty", 3).unwrap();
        // Ambiguous outcome: the delta never committed, but the client
        // cannot know that — abandon keeps the units out of the budget.
        r.abandon();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 7);
        // A restart forgets the ledger and re-derives from committed state.
        db.simulate_crash();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 10);
    }

    #[test]
    fn deposit_credits_ledger_and_committed_state() {
        let db = fixture(1);
        let _hold = db.escrow_reserve("stocks", 1, "qty", 1).unwrap();
        db.escrow_deposit("stocks", 1, "qty", 4).unwrap();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 4);
        let committed = db.latest_committed("stocks", 1).unwrap().unwrap();
        assert_eq!(committed.values[1].as_int(), 5);
    }

    #[test]
    fn a_committed_positive_delta_credits_the_ledger() {
        let db = fixture(1);
        // Before the cell has an entry, the entry's first read counts it.
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("stocks", 1, "qty", 2)
        })
        .unwrap();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 3);
        // After, the install credits it, next to the outstanding hold.
        let _hold = db.escrow_reserve("stocks", 1, "qty", 3).unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("stocks", 1, "qty", 4)
        })
        .unwrap();
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 4);
        let committed = db.latest_committed("stocks", 1).unwrap().unwrap();
        assert_eq!(committed.values[1].as_int(), 7);
    }

    #[test]
    fn concurrent_reservations_never_oversell() {
        let db = fixture(100);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        match db.escrow_reserve("stocks", 1, "qty", 1) {
                            Ok(r) => {
                                db.run(IsolationLevel::ReadCommitted, |t| {
                                    t.add_delta("stocks", 1, "qty", -1)
                                })
                                .unwrap();
                                r.confirm();
                            }
                            Err(DbError::EscrowExhausted { .. }) => {}
                            Err(e) => panic!("reserve: {e}"),
                        }
                    }
                });
            }
        });
        let committed = db.latest_committed("stocks", 1).unwrap().unwrap();
        // 400 attempts against a budget of 100: exactly 100 succeed.
        assert_eq!(committed.values[1].as_int(), 0);
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 0);
    }

    /// A grant that does not fit must not refuse one that does. Two
    /// threads hold at most one unit each of a budget of two, so none of
    /// their reservations can be short; a third thread keeps asking for
    /// three, which never fits. The subtract-then-undo grant exposed its
    /// transient deficit to the small grants and refused some of them.
    #[test]
    fn a_grant_that_does_not_fit_never_refuses_one_that_does() {
        use std::sync::atomic::AtomicBool;
        const ROUNDS: usize = 200_000;
        let db = fixture(2);
        let done = AtomicBool::new(false);
        let spurious = std::thread::scope(|s| {
            let (db, done) = (&db, &done);
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    match db.escrow_reserve("stocks", 1, "qty", 3) {
                        Err(DbError::EscrowExhausted { .. }) => {}
                        other => panic!("a reservation of 3 from 2 must fail: {other:?}"),
                    }
                }
            });
            let small: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        (0..ROUNDS)
                            .filter(|_| match db.escrow_reserve("stocks", 1, "qty", 1) {
                                Ok(r) => {
                                    r.release();
                                    false
                                }
                                Err(DbError::EscrowExhausted { .. }) => true,
                                Err(e) => panic!("reserve: {e}"),
                            })
                            .count()
                    })
                })
                .collect();
            let spurious: usize = small.into_iter().map(|h| h.join().unwrap()).sum();
            done.store(true, Ordering::Relaxed);
            spurious
        });
        assert_eq!(spurious, 0, "reservations refused with stock left");
        assert_eq!(db.escrow_available("stocks", 1, "qty").unwrap(), 2);
    }

    /// The locked reference the compare-and-swap grant must agree with:
    /// the remaining budget behind one mutex, granted only when it covers
    /// the request.
    struct Reference {
        available: Mutex<i64>,
        committed: i64,
    }

    impl Reference {
        fn reserve(&self, amount: i64) -> std::result::Result<(), i64> {
            let mut available = self.available.lock();
            if *available < amount {
                return Err(*available);
            }
            *available -= amount;
            Ok(())
        }
    }

    /// Seeded sequential differential run of every ledger operation —
    /// reserve, confirm, release, abandon, deposit and crash — against
    /// [`Reference`]: the same grants and refusals, the same remaining
    /// budget and the same committed value after every step.
    #[test]
    fn ledger_matches_the_locked_reference() {
        use rand::Rng;
        for seed in 0..8 {
            let mut rng = adhoc_sim::rng::seeded(seed);
            let db = fixture(10);
            let mut model = Reference {
                available: Mutex::new(10),
                committed: 10,
            };
            let mut held: Vec<EscrowReservation> = Vec::new();
            for step in 0..400 {
                match rng.gen_range(0..6u32) {
                    0 => {
                        let amount = rng.gen_range(0..5i64);
                        match (
                            db.escrow_reserve("stocks", 1, "qty", amount),
                            model.reserve(amount),
                        ) {
                            (Ok(r), Ok(())) => held.push(r),
                            (Err(DbError::EscrowExhausted { available, .. }), Err(expected)) => {
                                assert_eq!(available, expected, "seed {seed} step {step}")
                            }
                            (got, want) => panic!("seed {seed} step {step}: {got:?} vs {want:?}"),
                        }
                    }
                    1 if !held.is_empty() => {
                        let r = held.swap_remove(rng.gen_range(0..held.len()));
                        let amount = r.amount();
                        db.run(IsolationLevel::ReadCommitted, |t| {
                            t.add_delta("stocks", 1, "qty", -amount)
                        })
                        .unwrap();
                        r.confirm();
                        model.committed -= amount;
                    }
                    2 if !held.is_empty() => {
                        let r = held.swap_remove(rng.gen_range(0..held.len()));
                        *model.available.lock() += r.amount();
                        r.release();
                    }
                    3 if !held.is_empty() => {
                        held.swap_remove(rng.gen_range(0..held.len())).abandon();
                    }
                    4 => {
                        let amount = rng.gen_range(0..4i64);
                        db.escrow_deposit("stocks", 1, "qty", amount).unwrap();
                        *model.available.lock() += amount;
                        model.committed += amount;
                    }
                    5 if rng.gen_range(0..8u32) == 0 => {
                        // The ledger re-derives from committed state; guards
                        // dropped after the crash settle against the
                        // detached entry and must not leak into the new one.
                        db.simulate_crash();
                        held.clear();
                        *model.available.lock() = model.committed;
                    }
                    _ => {}
                }
                assert_eq!(
                    db.escrow_available("stocks", 1, "qty").unwrap(),
                    *model.available.lock(),
                    "seed {seed} step {step}: available"
                );
                let committed = db.latest_committed("stocks", 1).unwrap().unwrap();
                assert_eq!(
                    committed.values[1].as_int(),
                    model.committed,
                    "seed {seed} step {step}: committed"
                );
            }
        }
    }
}
