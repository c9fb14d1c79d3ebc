//! Broadleaf Commerce (Java/Hibernate): carts, items, SKUs.
//!
//! Scenarios reproduced:
//! * **Figure 1a** — `add_to_cart` keeps `carts.total` consistent with the
//!   cart's items using a single app-side map lock over the associated
//!   accesses (carts + items, §3.3.1). Every mode sums the cart's items
//!   with one `Transaction::scan_fold`, which lends each row to the sum
//!   instead of returning a copy of it.
//! * **Table 6 `RMW`** — `check_out` decrements SKU stock: the ad hoc
//!   variant takes an exclusive lock *before* the first read; the database
//!   variant runs at MySQL Serializable and deadlocks on the
//!   shared→exclusive upgrade under contention (§3.3.1, §5.2).
//! * **§4.2 omitted critical operations** (issue \[67\]) — the
//!   `omit_sku_coordination` switch leaves the SKU RMW outside the lock,
//!   so `quantity + sold` drifts from the initial stock.
//! * The lock itself is injected, so pairing this model with
//!   [`MemLruLock`](adhoc_core::locks::MemLruLock) reproduces the evicted
//!   session-lock bug (issue \[66\]).

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Predicate, Schema, Transaction,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Create Broadleaf's tables and entity registry on a database.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "carts",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("total", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "items",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("cart_id", ColumnType::Int),
                Column::new("qty", ColumnType::Int),
                Column::new("price", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("cart_id")?,
    )?;
    db.create_table(Schema::new(
        "skus",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
            Column::new("sold", ColumnType::Int),
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("carts"))
        .register(EntityDef::new("items"))
        .register(EntityDef::new("skus"));
    Ok(Orm::new(db.clone(), registry))
}

/// The Broadleaf application model.
pub struct Broadleaf {
    orm: Orm,
    lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
    omit_sku_coordination: bool,
    /// Application-server CPU burned per request attempt (see
    /// [`crate::busy_work`]). Zero by default.
    pub request_cpu_work: std::time::Duration,
}

impl Broadleaf {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            lock,
            coord,
            mode,
            omit_sku_coordination: false,
            request_cpu_work: std::time::Duration::ZERO,
        }
    }

    /// The studied stack (Table 2): a fresh MySQL-like engine and the MEM lock.
    pub fn studied(mode: Mode) -> Self {
        Self::new(
            crate::fresh(EngineProfile::MySqlLike, setup),
            Arc::new(MemLock::new()),
            mode,
        )
    }

    /// Set the per-attempt application-server CPU cost.
    pub fn with_request_cpu_work(mut self, d: std::time::Duration) -> Self {
        self.request_cpu_work = d;
        self
    }

    /// Fault injection (§4.2, issue \[67\]): the check-out ad hoc transaction
    /// "omits coordination for all SKU-related operations".
    pub fn omit_sku_coordination(mut self) -> Self {
        self.omit_sku_coordination = true;
        self
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed a cart with no items.
    pub fn seed_cart(&self, cart_id: i64) -> Result<()> {
        self.orm
            .create("carts", &[("id", cart_id.into()), ("total", 0.into())])?;
        Ok(())
    }

    /// Seed a SKU with initial stock.
    pub fn seed_sku(&self, sku_id: i64, quantity: i64) -> Result<()> {
        self.orm.create(
            "skus",
            &[
                ("id", sku_id.into()),
                ("quantity", quantity.into()),
                ("sold", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Figure 1a: append an item and recompute the cart total.
    pub fn add_to_cart(&self, cart_id: i64, price: i64, qty: i64) -> Result<()> {
        match self.mode {
            Mode::AdHoc => {
                let guard = self.lock.lock(&format!("cart:{cart_id}"))?;
                // Statements run in their own (default-isolation) ORM
                // transactions — the coordination is the map lock.
                self.orm.transaction(|t| {
                    t.create(
                        "items",
                        &[
                            ("cart_id", cart_id.into()),
                            ("qty", qty.into()),
                            ("price", price.into()),
                        ],
                    )?;
                    Ok(())
                })?;
                let total = self.recompute_total(cart_id)?;
                // Request-processing work between the read and the write —
                // the window the cart lock exists to protect.
                std::thread::yield_now();
                self.orm.transaction(|t| {
                    let mut cart = t.find_required("carts", cart_id)?;
                    cart.set("total", total)?;
                    t.save(&mut cart)?;
                    Ok(())
                })?;
                guard.unlock()?;
                Ok(())
            }
            Mode::DatabaseTxn => {
                let iso = serializable();
                self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
                    t.insert(
                        "items",
                        &[
                            ("cart_id", cart_id.into()),
                            ("qty", qty.into()),
                            ("price", price.into()),
                        ],
                    )?;
                    let total = self.cart_total(t, cart_id)?;
                    t.update("carts", cart_id, &[("total", total.into())])?;
                    Ok(())
                })?;
                Ok(())
            }
            Mode::Cured | Mode::Confluent => {
                // §7 cure: the cart total depends on a predicate scan, so
                // the façade serializes writers per cart and one default-
                // isolation transaction makes insert + recompute atomic —
                // no Fig. 1a lost-total window, no Serializable deadlocks.
                let guard = self.coord.user_lock(&format!("cart:{cart_id}"))?;
                self.orm.transaction(|t| {
                    t.create(
                        "items",
                        &[
                            ("cart_id", cart_id.into()),
                            ("qty", qty.into()),
                            ("price", price.into()),
                        ],
                    )?;
                    let total = self.cart_total(t.raw(), cart_id)?;
                    t.raw()
                        .update("carts", cart_id, &[("total", total.into())])?;
                    Ok(())
                })?;
                guard.unlock()?;
                Ok(())
            }
        }
    }

    fn recompute_total(&self, cart_id: i64) -> Result<i64> {
        Ok(self
            .orm
            .transaction(|t| Ok(self.cart_total(t.raw(), cart_id)?))?)
    }

    /// Figure 1a's derived value: the sum of `qty * price` over cart
    /// `cart_id`'s `items` rows, folded inside one `cart_id = ?` scan that
    /// lends each row instead of returning a copy.
    fn cart_total(&self, t: &mut Transaction, cart_id: i64) -> adhoc_storage::Result<i64> {
        let schema = self.orm.db().schema("items")?;
        let (qty, price) = (schema.column_index("qty")?, schema.column_index("price")?);
        t.scan_fold(
            "items",
            &Predicate::eq("cart_id", cart_id),
            0,
            |sum, _, item| sum + item.at(qty).as_int() * item.at(price).as_int(),
        )
    }

    /// Table 6 `RMW`: purchase `qty` units of a SKU. Returns `false` when
    /// stock is insufficient.
    pub fn check_out(&self, sku_id: i64, qty: i64) -> Result<bool> {
        match self.mode {
            Mode::AdHoc => {
                // Non-critical request work happens before the lock and is
                // pipelined with other requests' critical sections (§5.2).
                crate::busy_work(self.request_cpu_work);
                let guard = if self.omit_sku_coordination {
                    None
                } else {
                    Some(self.lock.lock(&format!("sku:{sku_id}"))?)
                };
                let result = self.rmw_sku(sku_id, qty)?;
                if let Some(g) = guard {
                    g.unlock()?;
                }
                Ok(result)
            }
            Mode::DatabaseTxn => {
                let iso = serializable();
                Ok(self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
                    // Each retry re-executes the whole request handler.
                    crate::busy_work(self.request_cpu_work);
                    let sku = t
                        .get("skus", sku_id)?
                        .ok_or(adhoc_storage::DbError::NoSuchRow {
                            table: "skus".into(),
                            id: sku_id,
                        })?;
                    let schema = self.orm.db().schema("skus")?;
                    let quantity = sku.get_int(&schema, "quantity")?;
                    let sold = sku.get_int(&schema, "sold")?;
                    if quantity < qty {
                        return Ok(false);
                    }
                    t.update(
                        "skus",
                        sku_id,
                        &[
                            ("quantity", (quantity - qty).into()),
                            ("sold", (sold + qty).into()),
                        ],
                    )?;
                    Ok(true)
                })?)
            }
            Mode::Cured | Mode::Confluent => {
                // §7 cure: one optimistic validate-and-commit per attempt,
                // field-granular on exactly the two columns the decision
                // reads. `omit_sku_coordination` is irrelevant here — there
                // is no separate lock for a developer to forget (§4.2).
                crate::busy_work(self.request_cpu_work);
                Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    let sku = occ
                        .read_fields(&self.orm, "skus", sku_id, &["quantity", "sold"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "skus".into(),
                            id: sku_id,
                        })?;
                    let quantity = sku.get_int("quantity")?;
                    let sold = sku.get_int("sold")?;
                    if quantity < qty {
                        return Ok(false);
                    }
                    occ.stage_update(
                        "skus",
                        sku_id,
                        &[
                            ("quantity", (quantity - qty).into()),
                            ("sold", (sold + qty).into()),
                        ],
                    );
                    Ok(true)
                })?)
            }
        }
    }

    /// The uncoordinated (or lock-guarded) SKU read–modify–write.
    fn rmw_sku(&self, sku_id: i64, qty: i64) -> Result<bool> {
        let sku = self.orm.find_required("skus", sku_id)?;
        let quantity = sku.get_int("quantity")?;
        let sold = sku.get_int("sold")?;
        if quantity < qty {
            return Ok(false);
        }
        // Widen the race window the way real request handlers do (business
        // logic between read and write).
        std::thread::yield_now();
        self.orm.transaction(|t| {
            t.raw().update(
                "skus",
                sku_id,
                &[
                    ("quantity", (quantity - qty).into()),
                    ("sold", (sold + qty).into()),
                ],
            )?;
            Ok(())
        })?;
        Ok(true)
    }

    /// Invariant (Fig. 1a): the cart total equals the sum of its items.
    pub fn cart_total_consistent(&self, cart_id: i64) -> Result<bool> {
        let total = self.orm.find_required("carts", cart_id)?.get_int("total")?;
        Ok(total == self.recompute_total(cart_id)?)
    }

    /// Invariant (issue \[67\]): stock conservation — `quantity + sold`
    /// equals the seeded amount, and quantity never goes negative.
    pub fn sku_conserved(&self, sku_id: i64, seeded: i64) -> Result<bool> {
        let sku = self.orm.find_required("skus", sku_id)?;
        let quantity = sku.get_int("quantity")?;
        let sold = sku.get_int("sold")?;
        Ok(quantity >= 0 && quantity + sold == seeded)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// Broadleaf's boot-time recovery pass: a crash between the item insert
/// and the `carts.total` update (the two writes Fig. 1a's map lock pairs)
/// leaves the denormalized total behind its items; boot recomputes it.
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(cart_total_rule())
}

/// Flag carts whose stored total differs from the sum of their items, and
/// rewrite the total from the items on fix. A pass reads `items` once and
/// sums every cart's rows, not once per cart.
fn cart_total_rule() -> CheckRule {
    let name = "broadleaf:carts.total";
    CheckRule::new(name, move |db| {
        let (Ok(carts), Ok(schema), Some(sums)) =
            (db.dump_table("carts"), db.schema("carts"), item_sums(db))
        else {
            return Vec::new();
        };
        carts
            .iter()
            .filter_map(|(id, row)| {
                let stored = row.get_int(&schema, "total").ok()?;
                let want = sums.get(id).copied().unwrap_or(0);
                (stored != want).then(|| Violation {
                    rule: name.to_string(),
                    table: "carts".to_string(),
                    row_id: *id,
                    message: format!("total = {stored}, items sum to {want}"),
                })
            })
            .collect()
    })
    .with_fix(move |db, v| {
        let Some(want) = item_sums(db).map(|sums| sums.get(&v.row_id).copied().unwrap_or(0)) else {
            return false;
        };
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update(&v.table, v.row_id, &[("total", want.into())])
        })
        .is_ok()
    })
}

/// The sum of `qty * price` over each cart's committed `items` rows, by
/// `cart_id`, from one read of the table (a cart with no items is absent).
fn item_sums(db: &Database) -> Option<HashMap<i64, i64>> {
    let schema = db.schema("items").ok()?;
    let (cart, qty, price) = (
        schema.position("cart_id")?,
        schema.position("qty")?,
        schema.position("price")?,
    );
    let mut sums = HashMap::new();
    for (_, item) in db.dump_table("items").ok()? {
        *sums.entry(item.at(cart).as_int()).or_insert(0) +=
            item.at(qty).as_int() * item.at(price).as_int();
    }
    Some(sums)
}

/// The DBT isolation for Broadleaf's workloads (Table 6: MySQL,
/// Serializable — weaker levels lose updates, per §3.1.1's footnote).
fn serializable() -> IsolationLevel {
    IsolationLevel::Serializable
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::MemLruLock;

    fn fixture(mode: Mode) -> Broadleaf {
        let app = Broadleaf::studied(mode);
        app.seed_cart(1).unwrap();
        app.seed_sku(1, 1000).unwrap();
        app
    }

    #[test]
    fn omitted_sku_coordination_loses_updates() {
        // §4.2 [67]: leaving the SKU RMW uncoordinated breaks conservation.
        let app = Arc::new(Broadleaf::studied(Mode::AdHoc).omit_sku_coordination());
        app.seed_sku(1, 100_000).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..50 {
                        app.check_out(1, 1).unwrap();
                    }
                });
            }
        });
        let sku = app.orm.find_required("skus", 1).unwrap();
        let q = sku.get_int("quantity").unwrap();
        let sold = sku.get_int("sold").unwrap();
        assert!(
            q + sold != 100_000 || sold != 400,
            "uncoordinated RMW virtually always drifts (q={q} sold={sold})"
        );
    }

    #[test]
    fn lru_evicted_lock_breaks_cart_consistency() {
        // §4.1.1 [66]: a tiny LRU lock table evicts held cart locks, so two
        // carts' operations interleave with a third stealing the entry.
        for _round in 0..50 {
            let db = Database::in_memory(EngineProfile::MySqlLike);
            let orm = setup(&db).unwrap();
            let lru = Arc::new(MemLruLock::new(1));
            let app = Arc::new(Broadleaf::new(orm, Arc::clone(&lru) as _, Mode::AdHoc));
            app.seed_sku(1, 100_000).unwrap();
            app.seed_sku(2, 100_000).unwrap();
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let per_thread = 40;
            std::thread::scope(|s| {
                // Two threads check out SKU 1; two more churn SKU 2 so the
                // capacity-1 table keeps evicting SKU 1's *held* lock,
                // letting the SKU-1 threads overlap in their RMW.
                for sku in [1, 1, 2, 2] {
                    let app = Arc::clone(&app);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        for _ in 0..per_thread {
                            assert!(app.check_out(sku, 1).unwrap());
                        }
                    });
                }
            });
            // Every check-out reported success, so `sold` should equal the
            // number of successful calls; an evicted (revoked) lock lets
            // two RMWs interleave and lose an update.
            let sold_1 = app
                .orm
                .find_required("skus", 1)
                .unwrap()
                .get_int("sold")
                .unwrap();
            let sold_2 = app
                .orm
                .find_required("skus", 2)
                .unwrap()
                .get_int("sold")
                .unwrap();
            if sold_1 != 2 * per_thread || sold_2 != 2 * per_thread {
                assert!(lru.evictions() > 0);
                return; // lost update demonstrated
            }
        }
        panic!("with capacity-1 LRU eviction a checkout update must be lost");
    }
    #[test]
    fn cart_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc);
        let fps: Vec<_> = (2..=7)
            .map(|id| {
                app.seed_cart(id).unwrap();
                crate::observed_footprint(&app.orm, |t| {
                    t.raw().update("carts", id, &[("total", 0.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
