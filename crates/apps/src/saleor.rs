//! Saleor (Python/Django): stock allocations and payment capture.
//!
//! Scenarios reproduced:
//! * **§3.2.1's Saleor listing** — `allocate`: `SELECT … FOR UPDATE` on
//!   the allocation and its stock inside one Read Committed transaction;
//!   the database locks *are* the ad hoc lock.
//! * **Payment capture** — guarded by Saleor's re-entrant `SETNX` lock;
//!   pairing it with a short TTL and a long critical section reproduces
//!   the Table 5b "overcharging" consequence.

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::Arc;
use std::time::Duration;

/// Create Saleor's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "stocks",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("qty", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "allocations",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("stock_id", ColumnType::Int),
                Column::new("item_id", ColumnType::Int),
                Column::new("qty", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("item_id")?,
    )?;
    db.create_table(Schema::new(
        "captures",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("order_id", ColumnType::Int),
            Column::new("authorized_cents", ColumnType::Int),
            Column::new("captured_cents", ColumnType::Int),
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("stocks"))
        .register(EntityDef::new("allocations"))
        .register(EntityDef::new("captures"));
    Ok(Orm::new(db.clone(), registry))
}

/// The Saleor application model.
pub struct Saleor {
    orm: Orm,
    /// The capture lock (public so tests can exercise re-entrancy).
    pub lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
    /// Stretches the capture critical section (past a lease TTL when the
    /// injected lock has one).
    pub capture_delay: Duration,
}

impl Saleor {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            lock,
            coord,
            mode,
            capture_delay: Duration::ZERO,
        }
    }

    /// The studied stack (Table 2): a fresh PostgreSQL-like engine and the MEM lock.
    pub fn studied(mode: Mode) -> Self {
        Self::new(
            crate::fresh(EngineProfile::PostgresLike, setup),
            Arc::new(MemLock::new()),
            mode,
        )
    }

    /// Stretch the capture critical section by `d`.
    pub fn with_capture_delay(mut self, d: Duration) -> Self {
        self.capture_delay = d;
        self
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed a stock record.
    pub fn seed_stock(&self, stock_id: i64, qty: i64) -> Result<()> {
        self.orm
            .create("stocks", &[("id", stock_id.into()), ("qty", qty.into())])?;
        Ok(())
    }

    /// Seed a stock allocation for an item; returns its id.
    pub fn seed_allocation(&self, item_id: i64, stock_id: i64, qty: i64) -> Result<i64> {
        let obj = self.orm.create(
            "allocations",
            &[
                ("stock_id", stock_id.into()),
                ("item_id", item_id.into()),
                ("qty", qty.into()),
            ],
        )?;
        Ok(obj.id)
    }

    /// Seed an authorized-but-uncaptured payment.
    pub fn seed_capture(&self, order_id: i64, authorized_cents: i64) -> Result<()> {
        self.orm.create(
            "captures",
            &[
                ("id", order_id.into()),
                ("order_id", order_id.into()),
                ("authorized_cents", authorized_cents.into()),
                ("captured_cents", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// §3.2.1's listing: apply an item's allocation against its stock.
    /// Returns `false` when stock is insufficient (the listing's abort).
    pub fn allocate(&self, item_id: i64) -> Result<bool> {
        let alloc_schema = self.orm.db().schema("allocations")?;
        let stock_schema = self.orm.db().schema("stocks")?;
        let run = |t: &mut adhoc_storage::Transaction| -> std::result::Result<bool, DbError> {
            let allocs = t.select_for_update("allocations", &Predicate::eq("item_id", item_id))?;
            let Some((alloc_id, alloc)) = allocs.into_iter().next() else {
                return Ok(false);
            };
            let stock_id = alloc.get_int(&alloc_schema, "stock_id")?;
            let stock = t
                .get_for_update("stocks", stock_id)?
                .ok_or(DbError::NoSuchRow {
                    table: "stocks".into(),
                    id: stock_id,
                })?;
            let alloc_qty = alloc.get_int(&alloc_schema, "qty")?;
            let stock_qty = stock.get_int(&stock_schema, "qty")?;
            if alloc_qty > stock_qty {
                return Ok(false);
            }
            t.update("allocations", alloc_id, &[("qty", 0.into())])?;
            t.update(
                "stocks",
                stock_id,
                &[("qty", (stock_qty - alloc_qty).into())],
            )?;
            Ok(true)
        };
        match self.mode {
            // The ad hoc transaction *is* a Read Committed transaction
            // whose FOR UPDATE locks do the coordination (§3.2.1: "this
            // database transaction could be configured with a weak
            // isolation level such as Read Committed").
            Mode::AdHoc => Ok(self.orm.db().run_with_retries(
                IsolationLevel::ReadCommitted,
                DBT_RETRIES,
                run,
            )?),
            Mode::DatabaseTxn => Ok(self.orm.db().run_with_retries(
                IsolationLevel::Serializable,
                DBT_RETRIES,
                run,
            )?),
            Mode::Confluent => {
                // Escrow split of `stock.qty >= 0`: the stock decrement —
                // the hot, contended half — needs no FOR UPDATE lock at
                // all. A reservation against the escrow ledger guarantees
                // the budget, a commutative delta applies it, and only the
                // cold allocation row is OCC-validated (it guards against
                // double-consuming the *same* allocation, a per-item race,
                // not the hot per-stock one).
                let allocs = self.orm.transaction(|t| {
                    Ok(t.raw()
                        .scan("allocations", &Predicate::eq("item_id", item_id))?)
                })?;
                let Some((alloc_id, _)) = allocs.into_iter().next() else {
                    return Ok(false);
                };
                let mut holder: Option<adhoc_storage::EscrowReservation> = None;
                let ok = run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    // A retry re-runs the body; release the failed
                    // attempt's reservation first.
                    holder.take();
                    let alloc = occ
                        .read_fields(&self.orm, "allocations", alloc_id, &["stock_id", "qty"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "allocations".into(),
                            id: alloc_id,
                        })?;
                    let stock_id = alloc.get_int("stock_id")?;
                    let alloc_qty = alloc.get_int("qty")?;
                    if alloc_qty == 0 {
                        return Ok(false);
                    }
                    match self.coord.reserve("stocks", stock_id, "qty", alloc_qty) {
                        Ok(r) => holder = Some(r),
                        Err(OrmError::Db(DbError::EscrowExhausted { .. })) => return Ok(false),
                        Err(e) => return Err(e),
                    }
                    occ.stage_update("allocations", alloc_id, &[("qty", 0.into())]);
                    occ.add_delta("stocks", stock_id, "qty", -alloc_qty);
                    Ok(true)
                })?;
                if ok {
                    if let Some(r) = holder {
                        r.confirm();
                    }
                }
                Ok(ok)
            }
            Mode::Cured => {
                // §7 cure: §3.2.1 is the pattern the paper praises; the
                // cured variant keeps its shape but takes the locks through
                // the façade's portable row-lock hint instead of
                // hand-written FOR UPDATE, in one Read Committed
                // transaction. Same lock order as the original.
                Ok(self.orm.transaction(|t| {
                    let allocs = t
                        .raw()
                        .scan("allocations", &Predicate::eq("item_id", item_id))?;
                    let Some((alloc_id, _)) = allocs.into_iter().next() else {
                        return Ok(false);
                    };
                    self.coord.row_lock(t.raw(), "allocations", alloc_id)?;
                    let alloc = t.find_required("allocations", alloc_id)?;
                    let stock_id = alloc.get_int("stock_id")?;
                    self.coord.row_lock(t.raw(), "stocks", stock_id)?;
                    let stock = t.find_required("stocks", stock_id)?;
                    let alloc_qty = alloc.get_int("qty")?;
                    let stock_qty = stock.get_int("qty")?;
                    if alloc_qty > stock_qty {
                        return Ok(false);
                    }
                    t.raw()
                        .update("allocations", alloc_id, &[("qty", 0.into())])?;
                    t.raw().update(
                        "stocks",
                        stock_id,
                        &[("qty", (stock_qty - alloc_qty).into())],
                    )?;
                    Ok(true)
                })?)
            }
        }
    }

    /// Capture part of an authorized payment under the re-entrant KV lock.
    /// Returns `false` when the capture would exceed the authorization.
    pub fn capture_payment(&self, order_id: i64, cents: i64) -> Result<bool> {
        if self.mode.on_cured_layer() {
            // §7 cure for Table 5b overcharging: no lock and no TTL to
            // outlive — one optimistic validate-and-commit on exactly the
            // two cents columns. However long the stretch delay, a stale
            // read conflicts and retries instead of double-capturing.
            return Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                let capture = occ
                    .read_fields(
                        &self.orm,
                        "captures",
                        order_id,
                        &["authorized_cents", "captured_cents"],
                    )?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "captures".into(),
                        id: order_id,
                    })?;
                let authorized = capture.get_int("authorized_cents")?;
                let captured = capture.get_int("captured_cents")?;
                std::thread::sleep(self.capture_delay);
                if captured + cents > authorized {
                    return Ok(false);
                }
                occ.stage_update(
                    "captures",
                    order_id,
                    &[("captured_cents", (captured + cents).into())],
                );
                Ok(true)
            })?);
        }
        let guard = self.lock.lock(&format!("capture:{order_id}"))?;
        let capture = self.orm.find_required("captures", order_id)?;
        let authorized = capture.get_int("authorized_cents")?;
        let captured = capture.get_int("captured_cents")?;
        std::thread::sleep(self.capture_delay);
        let ok = if captured + cents <= authorized {
            self.orm.transaction(|t| {
                t.raw().update(
                    "captures",
                    order_id,
                    &[("captured_cents", (captured + cents).into())],
                )?;
                Ok(())
            })?;
            true
        } else {
            false
        };
        let _ = guard.unlock();
        Ok(ok)
    }

    /// Invariant: captured never exceeds authorized (Table 5b's Saleor
    /// "overcharging" is this invariant breaking).
    pub fn capture_within_authorization(&self, order_id: i64) -> Result<bool> {
        let c = self.orm.find_required("captures", order_id)?;
        Ok(c.get_int("captured_cents")? <= c.get_int("authorized_cents")?)
    }

    /// Current quantity of a stock record.
    pub fn stock_qty(&self, stock_id: i64) -> Result<i64> {
        Ok(self.orm.find_required("stocks", stock_id)?.get_int("qty")?)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// Saleor's boot-time recovery pass. Over-capture (Table 5b) is
/// *detection-only*: once money beyond the authorization has been taken,
/// no automatic write can honestly undo it — the finding stays in the
/// report for an operator (a refund flow) instead of a silent "fix".
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(over_capture_rule())
}

/// Flag captures whose `captured_cents` exceeds `authorized_cents`.
fn over_capture_rule() -> CheckRule {
    let name = "saleor:capture-within-authorization";
    CheckRule::new(name, move |db| {
        let (Ok(rows), Ok(schema)) = (db.dump_table("captures"), db.schema("captures")) else {
            return Vec::new();
        };
        rows.iter()
            .filter_map(|(id, row)| {
                let captured = row.get_int(&schema, "captured_cents").ok()?;
                let authorized = row.get_int(&schema, "authorized_cents").ok()?;
                (captured > authorized).then(|| Violation {
                    rule: name.to_string(),
                    table: "captures".to_string(),
                    row_id: *id,
                    message: format!("captured {captured} cents of {authorized} authorized"),
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::KvSetNxLock;
    use adhoc_kv::{Client, Store};
    use adhoc_sim::{LatencyModel, RealClock};

    fn kv_lock(ttl: Option<Duration>) -> Arc<dyn AdHocLock> {
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let mut lock = KvSetNxLock::new(kv).reentrant();
        if let Some(ttl) = ttl {
            lock = lock.with_ttl(ttl);
        }
        Arc::new(lock)
    }

    fn fixture(mode: Mode) -> Saleor {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        Saleor::new(orm, kv_lock(None), mode)
    }

    #[test]
    fn allocate_refuses_oversized_allocations() {
        let app = fixture(Mode::AdHoc);
        app.seed_stock(1, 3).unwrap();
        app.seed_allocation(100, 1, 5).unwrap();
        assert!(!app.allocate(100).unwrap());
        assert_eq!(app.stock_qty(1).unwrap(), 3);
    }

    #[test]
    fn reentrant_lock_permits_nested_capture_flows() {
        // Saleor's re-entrancy: an outer checkout step already holding the
        // capture lock can call capture_payment without deadlocking.
        let app = fixture(Mode::AdHoc);
        app.seed_capture(1, 100).unwrap();
        let outer = app.lock.lock("capture:1").unwrap();
        assert!(app.capture_payment(1, 40).unwrap());
        outer.unlock().unwrap();
        assert!(app.capture_within_authorization(1).unwrap());
    }

    #[test]
    fn expired_lease_overcharges() {
        // Table 5b (Saleor, overcharging): TTL shorter than the capture
        // critical section, expiry unchecked.
        let app = Arc::new(
            Saleor::new(
                {
                    let db = Database::in_memory(EngineProfile::PostgresLike);
                    setup(&db).unwrap()
                },
                kv_lock(Some(Duration::from_millis(4))),
                Mode::AdHoc,
            )
            .with_capture_delay(Duration::from_millis(10)),
        );
        app.seed_capture(1, 100).unwrap();
        let successes: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let app = Arc::clone(&app);
                    s.spawn(move || app.capture_payment(1, 100).unwrap() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // Each racer read captured = 0 and "successfully" captured the
        // full authorization: the customer was charged more than once even
        // though the column ends at 100 — the overcharge is the number of
        // captures, which a correct lock would hold to exactly one.
        assert!(
            successes > 1,
            "expired capture leases must double-capture (got {successes})"
        );
    }
    #[test]
    fn stock_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc);
        let fps: Vec<_> = (1..=6)
            .map(|id| {
                app.seed_stock(id, 10).unwrap();
                crate::observed_footprint(app.orm(), |t| {
                    t.raw().update("stocks", id, &[("qty", 10.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
