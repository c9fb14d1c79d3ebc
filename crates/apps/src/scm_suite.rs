//! SCM Suite (Java/Hibernate): account balances and merchandise tracking.
//!
//! Scenarios reproduced:
//! * Account balance adjustments coordinated with the Java `synchronized`
//!   keyword (§3.2.1) — [`SyncLock`](adhoc_core::locks::SyncLock).
//! * **§4.1.1 (issue \[91\])** — synchronizing over *thread-local*
//!   ORM-mapped objects, so "conflicting threads acquire different locks
//!   and can never block each other"; inject
//!   `SyncLock::synchronize_on_thread_local()` to reproduce.
//! * Merchandise stock tracking with a hand-crafted version validation
//!   (SCM Suite's validations are all manual, §3.2.2).

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{column_invariant, ConsistencyChecker, Report};
use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_core::validation::{validated_write, CommitOutcome, ValidationCheck, ValidationStrategy};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::Arc;

/// Create SCM Suite's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "accounts",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("balance", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "merchandise",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("stock", ColumnType::Int),
            Column::new("version", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "settlements",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("total", ColumnType::Int),
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("accounts"))
        .register(EntityDef::new("merchandise"))
        .register(EntityDef::new("settlements"));
    Ok(Orm::new(db.clone(), registry))
}

/// The SCM Suite application model.
pub struct ScmSuite {
    orm: Orm,
    lock: Arc<dyn AdHocLock>,
    mode: Mode,
}

impl ScmSuite {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        Self { orm, lock, mode }
    }

    /// The studied stack (Table 2): a fresh MySQL-like engine and the MEM lock.
    pub fn studied(mode: Mode) -> Self {
        Self::new(
            crate::fresh(EngineProfile::MySqlLike, setup),
            Arc::new(MemLock::new()),
            mode,
        )
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed an account with an opening balance.
    pub fn seed_account(&self, id: i64, balance: i64) -> Result<()> {
        self.orm.create(
            "accounts",
            &[("id", id.into()), ("balance", balance.into())],
        )?;
        Ok(())
    }

    /// Seed a merchandise record with initial stock.
    pub fn seed_merchandise(&self, id: i64, stock: i64) -> Result<()> {
        self.orm.create(
            "merchandise",
            &[
                ("id", id.into()),
                ("stock", stock.into()),
                ("version", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Adjust an account balance (credit/debit), refusing overdrafts.
    pub fn adjust_balance(&self, account_id: i64, delta: i64) -> Result<bool> {
        match self.mode {
            Mode::Confluent => {
                // `balance >= 0` split by escrow: credits are pure
                // commutative deposits; debits reserve their amount off
                // the ledger first (one lock-free atomic) and only then
                // commit the delta. Concurrent debits never validate
                // against each other — they only coordinate when the
                // balance is nearly drained, and exhaustion is the
                // overdraft refusal, not a retry.
                let db = self.orm.db();
                if delta >= 0 {
                    db.escrow_deposit("accounts", account_id, "balance", delta)?;
                    return Ok(true);
                }
                let amount = -delta;
                let reservation = match db.escrow_reserve("accounts", account_id, "balance", amount)
                {
                    Ok(r) => r,
                    Err(DbError::EscrowExhausted { .. }) => return Ok(false),
                    Err(e) => return Err(e.into()),
                };
                std::thread::yield_now(); // business logic between R and W
                self.orm.transaction(|t| {
                    t.raw()
                        .add_delta("accounts", account_id, "balance", delta)?;
                    Ok(())
                })?;
                reservation.confirm();
                Ok(true)
            }
            Mode::Cured => {
                // §7 cure: optimistic RMW over just the `balance` field —
                // no `synchronized` monitor to mis-scope (§4.1.1 [91]).
                Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    let account = occ
                        .read_fields(&self.orm, "accounts", account_id, &["balance"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "accounts".into(),
                            id: account_id,
                        })?;
                    let balance = account.get_int("balance")?;
                    std::thread::yield_now(); // business logic between R and W
                    if balance + delta < 0 {
                        return Ok(false);
                    }
                    occ.stage_update(
                        "accounts",
                        account_id,
                        &[("balance", (balance + delta).into())],
                    );
                    Ok(true)
                })?)
            }
            Mode::AdHoc => {
                let guard = self.lock.lock(&format!("account:{account_id}"))?;
                let account = self.orm.find_required("accounts", account_id)?;
                let balance = account.get_int("balance")?;
                std::thread::yield_now(); // business logic between R and W
                let ok = if balance + delta >= 0 {
                    self.orm.transaction(|t| {
                        t.raw().update(
                            "accounts",
                            account_id,
                            &[("balance", (balance + delta).into())],
                        )?;
                        Ok(())
                    })?;
                    true
                } else {
                    false
                };
                guard.unlock()?;
                Ok(ok)
            }
            Mode::DatabaseTxn => {
                let schema = self.orm.db().schema("accounts")?;
                Ok(self.orm.db().run_with_retries(
                    IsolationLevel::Serializable,
                    DBT_RETRIES,
                    |t| {
                        let account = t.get("accounts", account_id)?.ok_or(DbError::NoSuchRow {
                            table: "accounts".into(),
                            id: account_id,
                        })?;
                        let balance = account.get_int(&schema, "balance")?;
                        if balance + delta < 0 {
                            return Ok(false);
                        }
                        t.update(
                            "accounts",
                            account_id,
                            &[("balance", (balance + delta).into())],
                        )?;
                        Ok(true)
                    },
                )?)
            }
        }
    }

    /// Transfer between accounts. The ad hoc path takes two locks in id
    /// order (the consistent-order discipline of Finding 5 that keeps the
    /// studied multi-lock cases deadlock-free).
    pub fn transfer(&self, from: i64, to: i64, amount: i64) -> Result<bool> {
        assert!(amount >= 0);
        if self.mode == Mode::Confluent {
            // Conservation across two rows as escrow plus deltas: `from`'s
            // amount is reserved off its ledger first (the overdraft
            // refusal, coordinated with every escrowed debit of the
            // account), then one transaction moves both balances as
            // commutative deltas, so the transfer is atomic and merges with
            // concurrent credits. The credit reaches `to`'s ledger as it
            // installs.
            let db = self.orm.db();
            let reservation = match db.escrow_reserve("accounts", from, "balance", amount) {
                Ok(r) => r,
                Err(DbError::EscrowExhausted { .. }) => return Ok(false),
                Err(e) => return Err(e.into()),
            };
            self.orm.transaction(|t| {
                t.raw().add_delta("accounts", from, "balance", -amount)?;
                t.raw().add_delta("accounts", to, "balance", amount)?;
                Ok(())
            })?;
            reservation.confirm();
            return Ok(true);
        }
        if self.mode == Mode::Cured {
            // §7 cure: no locks, no ordering discipline to get wrong —
            // both balances validate at commit, deadlock-free by design.
            return Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                let from_balance = occ
                    .read_fields(&self.orm, "accounts", from, &["balance"])?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "accounts".into(),
                        id: from,
                    })?
                    .get_int("balance")?;
                if from_balance < amount {
                    return Ok(false);
                }
                let to_balance = occ
                    .read_fields(&self.orm, "accounts", to, &["balance"])?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "accounts".into(),
                        id: to,
                    })?
                    .get_int("balance")?;
                occ.stage_update(
                    "accounts",
                    from,
                    &[("balance", (from_balance - amount).into())],
                );
                occ.stage_update("accounts", to, &[("balance", (to_balance + amount).into())]);
                Ok(true)
            })?);
        }
        if self.mode == Mode::DatabaseTxn {
            // The paper's comparator: both reads and both writes in one
            // Serializable transaction — no application lock, no ordering
            // discipline; the engine's deadlock victim or certification
            // failure is retried.
            let schema = self.orm.db().schema("accounts")?;
            return Ok(self.orm.db().run_with_retries(
                IsolationLevel::Serializable,
                DBT_RETRIES,
                |t| {
                    let mut balance_of = |id| {
                        t.get("accounts", id)?
                            .ok_or(DbError::NoSuchRow {
                                table: "accounts".into(),
                                id,
                            })?
                            .get_int(&schema, "balance")
                    };
                    let from_balance = balance_of(from)?;
                    if from_balance < amount {
                        return Ok(false);
                    }
                    let to_balance = balance_of(to)?;
                    t.update(
                        "accounts",
                        from,
                        &[("balance", (from_balance - amount).into())],
                    )?;
                    t.update("accounts", to, &[("balance", (to_balance + amount).into())])?;
                    Ok(true)
                },
            )?);
        }
        let (first, second) = if from <= to { (from, to) } else { (to, from) };
        let g1 = self.lock.lock(&format!("account:{first}"))?;
        let g2 = self.lock.lock(&format!("account:{second}"))?;
        let from_balance = self
            .orm
            .find_required("accounts", from)?
            .get_int("balance")?;
        let ok = if from_balance >= amount {
            let to_balance = self.orm.find_required("accounts", to)?.get_int("balance")?;
            self.orm.transaction(|t| {
                t.raw().update(
                    "accounts",
                    from,
                    &[("balance", (from_balance - amount).into())],
                )?;
                t.raw()
                    .update("accounts", to, &[("balance", (to_balance + amount).into())])?;
                Ok(())
            })?;
            true
        } else {
            false
        };
        g2.unlock()?;
        g1.unlock()?;
        Ok(ok)
    }

    /// Update merchandise stock with SCM Suite's hand-crafted version
    /// validation (manual, §3.2.2). `atomic = false` reproduces the
    /// non-atomic validate-and-commit.
    pub fn track_stock(&self, id: i64, delta: i64, atomic: bool) -> Result<CommitOutcome> {
        if self.mode == Mode::Confluent {
            // Stock tracking has no bound to defend (receives and ships
            // are recorded as-is), so the version check SCM Suite
            // hand-crafted guards nothing: a commutative delta is the
            // whole operation, and concurrent adjustments merge instead
            // of invalidating each other.
            self.orm.transaction(|t| {
                t.raw().add_delta("merchandise", id, "stock", delta)?;
                Ok(())
            })?;
            return Ok(CommitOutcome::Committed);
        }
        if self.mode == Mode::Cured {
            // §7 cure: the ORM's validate-on-save replaces SCM Suite's
            // hand-crafted (and non-atomically appliable) version check.
            run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                let obj = occ
                    .read_fields(&self.orm, "merchandise", id, &["stock"])?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "merchandise".into(),
                        id,
                    })?;
                let stock = obj.get_int("stock")?;
                occ.stage_update("merchandise", id, &[("stock", (stock + delta).into())]);
                Ok(())
            })?;
            return Ok(CommitOutcome::Committed);
        }
        let obj = self.orm.find_required("merchandise", id)?;
        let stock = obj.get_int("stock")?;
        let strategy = if atomic {
            ValidationStrategy::HandCraftedAtomic(ValidationCheck::Version {
                column: "version".into(),
            })
        } else {
            ValidationStrategy::HandCraftedNonAtomic {
                check: ValidationCheck::Version {
                    column: "version".into(),
                },
                pause_between: None,
            }
        };
        validated_write(
            &self.orm,
            &obj,
            &[("stock", (stock + delta).into())],
            &strategy,
        )
    }

    /// Transfer *without* the ordering discipline: locks taken in
    /// `from → to` order, so opposite-direction transfers can deadlock.
    /// With a plain lock they stall to the timeout; with
    /// [`WatchdogLock`](adhoc_core::locks::WatchdogLock) the victim gets an
    /// immediate retryable error and this method retries it — the
    /// database-transaction contract restored at the application-lock
    /// layer (§3.3.1 / Finding 5).
    pub fn transfer_unordered(&self, from: i64, to: i64, amount: i64) -> Result<bool> {
        assert!(amount >= 0);
        loop {
            let g1 = self.lock.lock(&format!("account:{from}"))?;
            let g2 = match self.lock.lock(&format!("account:{to}")) {
                Ok(g2) => g2,
                Err(adhoc_core::locks::LockError::Deadlock { .. }) => {
                    // We're the victim: release and retry, like a DBT.
                    g1.unlock()?;
                    std::thread::yield_now();
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let from_balance = self
                .orm
                .find_required("accounts", from)?
                .get_int("balance")?;
            let ok = if from_balance >= amount {
                let to_balance = self.orm.find_required("accounts", to)?.get_int("balance")?;
                self.orm.transaction(|t| {
                    t.raw().update(
                        "accounts",
                        from,
                        &[("balance", (from_balance - amount).into())],
                    )?;
                    t.raw()
                        .update("accounts", to, &[("balance", (to_balance + amount).into())])?;
                    Ok(())
                })?;
                true
            } else {
                false
            };
            g2.unlock()?;
            g1.unlock()?;
            return Ok(ok);
        }
    }

    /// Run a settlement: snapshot the given accounts' balances and record
    /// their sum (the `scm-suite/settlement-run` case). One transaction at
    /// snapshot isolation, so transfers in flight cannot skew the sum.
    pub fn settle(&self, ids: &[i64]) -> Result<i64> {
        let schema = self.orm.db().schema("accounts")?;
        Ok(self
            .orm
            .db()
            .run_with_retries(IsolationLevel::RepeatableRead, DBT_RETRIES, |t| {
                let mut total = 0;
                for id in ids {
                    let account = t.get("accounts", *id)?.ok_or(DbError::NoSuchRow {
                        table: "accounts".into(),
                        id: *id,
                    })?;
                    total += account.get_int(&schema, "balance")?;
                }
                t.insert("settlements", &[("total", total.into())])?;
                Ok(total)
            })?)
    }

    /// The buggy settlement: each balance read in its own auto-committed
    /// statement. A transfer committing between two reads is counted on
    /// one side and missed on the other — read skew, a phantom sum.
    pub fn settle_unrepeatable(&self, ids: &[i64]) -> Result<i64> {
        let mut total = 0;
        for id in ids {
            total += self.balance(*id)?;
            std::thread::yield_now(); // transfers slip between reads
        }
        self.orm.create("settlements", &[("total", total.into())])?;
        Ok(total)
    }

    /// Current balance of an account.
    pub fn balance(&self, account_id: i64) -> Result<i64> {
        Ok(self
            .orm
            .find_required("accounts", account_id)?
            .get_int("balance")?)
    }

    /// Sum of the given accounts' balances (conservation checks).
    pub fn total_balance(&self, ids: &[i64]) -> Result<i64> {
        let mut total = 0;
        for id in ids {
            total += self.balance(*id)?;
        }
        Ok(total)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// SCM Suite's boot-time recovery pass. Oversold stock is
/// *detection-only*: a negative `stock` means goods were promised that do
/// not exist, and no database write can conjure them — the finding stays
/// in the report for an operator.
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(column_invariant(
        "merchandise",
        "scm:stock-non-negative",
        Predicate::ge("stock", 0),
        "stock is negative (oversold)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::{Guard, LockError, SyncLock};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fixture(mode: Mode, lock: Arc<dyn AdHocLock>) -> ScmSuite {
        fixture_on(EngineProfile::MySqlLike, mode, lock)
    }

    fn fixture_on(profile: EngineProfile, mode: Mode, lock: Arc<dyn AdHocLock>) -> ScmSuite {
        let db = Database::in_memory(profile);
        let orm = setup(&db).unwrap();
        ScmSuite::new(orm, lock, mode)
    }

    /// A `SyncLock` that counts acquisitions.
    #[derive(Default)]
    struct CountingLock {
        inner: SyncLock,
        acquisitions: AtomicUsize,
    }

    impl AdHocLock for CountingLock {
        fn lock(&self, key: &str) -> std::result::Result<Guard, LockError> {
            self.acquisitions.fetch_add(1, Ordering::Relaxed);
            self.inner.lock(key)
        }

        fn label(&self) -> &'static str {
            "COUNTING"
        }
    }

    #[test]
    fn dbt_transfer_is_one_transaction_and_no_lock() {
        let lock = Arc::new(CountingLock::default());
        let app = fixture(Mode::DatabaseTxn, lock.clone());
        app.seed_account(1, 10).unwrap();
        app.seed_account(2, 0).unwrap();
        for (amount, expect) in [(4, true), (4, true), (4, false)] {
            let before = app.orm().db().stats().commits;
            assert_eq!(app.transfer(1, 2, amount).unwrap(), expect);
            assert_eq!(app.orm().db().stats().commits, before + 1);
        }
        assert_eq!((app.balance(1).unwrap(), app.balance(2).unwrap()), (2, 8));
        let acquisitions = lock.acquisitions.load(Ordering::Relaxed);
        assert_eq!(acquisitions, 0, "the comparator takes no ad hoc lock");
    }

    #[test]
    fn confluent_transfer_reserves_its_source_and_credits_its_target() {
        let app = fixture(Mode::Confluent, Arc::new(SyncLock::new()));
        app.seed_account(1, 100).unwrap();
        app.seed_account(2, 0).unwrap();
        let db = app.orm().db().clone();
        let available = |id| db.escrow_available("accounts", id, "balance").unwrap();
        assert!(
            app.adjust_balance(2, 5).unwrap(),
            "a credit opens 2's ledger"
        );
        // A debit of 80 in flight: its units are reserved, not yet committed.
        let debit = db.escrow_reserve("accounts", 1, "balance", 80).unwrap();
        assert!(
            !app.transfer(1, 2, 30).unwrap(),
            "only 20 units are not reserved"
        );
        assert!(app.transfer(1, 2, 20).unwrap());
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("accounts", 1, "balance", -80)
        })
        .unwrap();
        debit.confirm();
        assert_eq!((app.balance(1).unwrap(), app.balance(2).unwrap()), (0, 25));
        assert_eq!((available(1), available(2)), (0, 25), "ledgers at rest");
    }

    #[test]
    fn dbt_opposite_transfers_terminate_and_conserve_on_both_engines() {
        for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
            let app = fixture_on(profile, Mode::DatabaseTxn, Arc::new(SyncLock::new()));
            app.seed_account(1, 1000).unwrap();
            app.seed_account(2, 1000).unwrap();
            std::thread::scope(|s| {
                for (from, to) in [(1, 2), (2, 1)] {
                    let app = &app;
                    s.spawn(move || {
                        for _ in 0..2000 {
                            app.transfer(from, to, 1).unwrap();
                        }
                    });
                }
            });
            assert_eq!(app.total_balance(&[1, 2]).unwrap(), 2000, "{profile:?}");
        }
    }

    #[test]
    fn thread_local_synchronized_loses_updates() {
        // §4.1.1 [91]: the monitor is per-thread, so the RMWs interleave.
        let app = Arc::new(fixture(
            Mode::AdHoc,
            Arc::new(SyncLock::new().synchronize_on_thread_local()),
        ));
        app.seed_account(1, 0).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..50 {
                        app.adjust_balance(1, 1).unwrap();
                    }
                });
            }
        });
        let balance = app.balance(1).unwrap();
        assert!(
            balance < 400,
            "thread-local monitors must lose increments (got {balance})"
        );
    }

    #[test]
    fn opposite_direction_transfers_do_not_deadlock() {
        // Finding 5: consistent lock ordering prevents deadlocks even with
        // opposite-direction transfers hammering the same pair.
        let app = Arc::new(fixture(Mode::AdHoc, Arc::new(SyncLock::new())));
        app.seed_account(1, 1000).unwrap();
        app.seed_account(2, 1000).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..50 {
                        let (from, to) = if t % 2 == 0 { (1, 2) } else { (2, 1) };
                        app.transfer(from, to, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(app.total_balance(&[1, 2]).unwrap(), 2000);
    }

    #[test]
    fn unordered_transfers_survive_via_the_watchdog() {
        use adhoc_core::locks::WatchdogLock;
        // No ordering discipline, opposite directions hammering the same
        // pair: the watchdog turns would-be stalls into immediate retries,
        // and money is conserved.
        let app = Arc::new(fixture(Mode::AdHoc, Arc::new(WatchdogLock::new())));
        app.seed_account(1, 1000).unwrap();
        app.seed_account(2, 1000).unwrap();
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..25 {
                        let (from, to) = if t % 2 == 0 { (1, 2) } else { (2, 1) };
                        app.transfer_unordered(from, to, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(app.total_balance(&[1, 2]).unwrap(), 2000);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "victims retried immediately instead of stalling to timeouts"
        );
    }

    #[test]
    fn settlements_never_skew_under_concurrent_transfers() {
        let app = Arc::new(fixture(Mode::AdHoc, Arc::new(SyncLock::new())));
        app.seed_account(1, 500).unwrap();
        app.seed_account(2, 500).unwrap();
        let totals: Vec<i64> = std::thread::scope(|s| {
            for t in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..30 {
                        let (from, to) = if t % 2 == 0 { (1, 2) } else { (2, 1) };
                        app.transfer(from, to, 7).unwrap();
                    }
                });
            }
            let app = Arc::clone(&app);
            s.spawn(move || (0..20).map(|_| app.settle(&[1, 2]).unwrap()).collect())
                .join()
                .unwrap()
        });
        assert!(
            totals.iter().all(|t| *t == 1000),
            "snapshot settlements must conserve: {totals:?}"
        );
    }

    #[test]
    fn unrepeatable_settlement_can_skew() {
        let mut skewed = false;
        'outer: for _ in 0..50 {
            let app = Arc::new(fixture(Mode::AdHoc, Arc::new(SyncLock::new())));
            app.seed_account(1, 500).unwrap();
            app.seed_account(2, 500).unwrap();
            let totals: Vec<i64> = std::thread::scope(|s| {
                for t in 0..4 {
                    let app = Arc::clone(&app);
                    s.spawn(move || {
                        for _ in 0..30 {
                            let (from, to) = if t % 2 == 0 { (1, 2) } else { (2, 1) };
                            app.transfer(from, to, 7).unwrap();
                        }
                    });
                }
                let app = Arc::clone(&app);
                s.spawn(move || {
                    (0..20)
                        .map(|_| app.settle_unrepeatable(&[1, 2]).unwrap())
                        .collect()
                })
                .join()
                .unwrap()
            });
            if totals.iter().any(|t| *t != 1000) {
                skewed = true;
                break 'outer;
            }
        }
        assert!(skewed, "per-statement reads must be able to read-skew");
    }

    #[test]
    fn stock_tracking_validates() {
        let app = fixture(Mode::AdHoc, Arc::new(SyncLock::new()));
        app.seed_merchandise(1, 10).unwrap();
        assert_eq!(
            app.track_stock(1, 5, true).unwrap(),
            CommitOutcome::Committed
        );
        let m = app.orm.find_required("merchandise", 1).unwrap();
        assert_eq!(m.get_int("stock").unwrap(), 15);
        assert_eq!(m.get_int("version").unwrap(), 1);
        // Non-atomic also works sequentially.
        assert_eq!(
            app.track_stock(1, -3, false).unwrap(),
            CommitOutcome::Committed
        );
        assert_eq!(
            app.orm
                .find_required("merchandise", 1)
                .unwrap()
                .get_int("stock")
                .unwrap(),
            12
        );
    }
    #[test]
    fn account_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc, Arc::new(SyncLock::new()));
        let fps: Vec<_> = (1..=6)
            .map(|id| {
                app.seed_account(id, 100).unwrap();
                crate::observed_footprint(app.orm(), |t| {
                    t.raw().update("accounts", id, &[("balance", 100.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
