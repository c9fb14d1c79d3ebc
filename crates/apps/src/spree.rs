//! Spree (Ruby/Active Record): orders, payments, SKUs with the ORM touch
//! cascade.
//!
//! Scenarios reproduced:
//! * **§3.1.1** — `decrement_stock`: the ad hoc lock serializes only the
//!   SKU read–modify–write while the ORM-generated product/category
//!   touches run at the default isolation level; the database variant
//!   wraps *everything* (including the hidden cascade) in a Serializable
//!   transaction and suffers the §3.1.1 deadlocks/aborts on the shared
//!   Categories rows.
//! * **Table 6 `PBC`** — `add_payment`: the ad hoc variant locks the exact
//!   `order_id = ?` predicate with a value-keyed lock; the database
//!   variant (PostgreSQL Serializable) pays gap-granularity false
//!   conflicts (§3.3.2).
//! * **§4.1.1 (issue \[61\])** — pair with
//!   [`SfuLock::outside_transaction`](adhoc_core::locks::SfuLock) to
//!   reproduce the released-too-early lock, and use
//!   `omit_status_coordination` for the uncoordinated order-status write.
//! * **§4.2 (issue \[59\])** — `add_payment_json`: the forgotten ad hoc
//!   transaction in the JSON API handlers.
//! * **§4.3 (issue \[60\])** — `process_payment` with a crash mid-flight
//!   leaves a payment stuck in `processing`; `boot_recovery` is the fsck
//!   fix.

use crate::{Mode, Result, DBT_RETRIES};

use adhoc_core::checker::{stuck_state, ConsistencyChecker, Report};
use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry, TouchVia};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
    Transaction,
};
use std::sync::Arc;

/// Create Spree's tables (including the §3.1.1 cascade chain) and registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "orders",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("state", ColumnType::Str),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "payments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("order_id", ColumnType::Int),
                Column::new("state", ColumnType::Str),
            ],
            "id",
        )?
        .with_index("order_id")?,
    )?;
    db.create_table(Schema::new(
        "products",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("updated_at", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "categories",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("updated_at", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "product_categories",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("product_id", ColumnType::Int),
                Column::new("category_id", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("product_id")?,
    )?;
    db.create_table(Schema::new(
        "skus",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("product_id", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("orders"))
        .register(EntityDef::new("payments"))
        .register(EntityDef::new("products"))
        .register(EntityDef::new("categories"))
        .register(EntityDef::new("product_categories"))
        .register(
            EntityDef::new("skus")
                .touch("product_id", "products")
                .touch_via(TouchVia {
                    fk_column: "product_id".into(),
                    join_table: "product_categories".into(),
                    join_left: "product_id".into(),
                    join_right: "category_id".into(),
                    parent_table: "categories".into(),
                }),
        );
    Ok(Orm::new(db.clone(), registry))
}

/// The Spree application model.
pub struct Spree {
    orm: Orm,
    lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
    /// §4.2 (issue \[61\]'s second half): leave the order-status write
    /// uncoordinated.
    omit_status_coordination: bool,
    /// Application-server CPU burned per request attempt (see
    /// [`crate::busy_work`]). Zero by default.
    pub request_cpu_work: std::time::Duration,
}

impl Spree {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            lock,
            coord,
            mode,
            omit_status_coordination: false,
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

    /// Fault injection (§4.2, issue \[61\]): leave the order-status write
    /// uncoordinated.
    pub fn omit_status_coordination(mut self) -> Self {
        self.omit_status_coordination = true;
        self
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed a product in `n_categories` categories with one SKU.
    pub fn seed_catalog(
        &self,
        sku_id: i64,
        product_id: i64,
        categories: &[i64],
        quantity: i64,
    ) -> Result<()> {
        self.orm.transaction(|t| {
            t.create(
                "products",
                &[("id", product_id.into()), ("updated_at", 0.into())],
            )?;
            for c in categories {
                if t.find("categories", *c)?.is_none() {
                    t.create(
                        "categories",
                        &[("id", (*c).into()), ("updated_at", 0.into())],
                    )?;
                }
                t.create(
                    "product_categories",
                    &[
                        ("product_id", product_id.into()),
                        ("category_id", (*c).into()),
                    ],
                )?;
            }
            t.create(
                "skus",
                &[
                    ("id", sku_id.into()),
                    ("product_id", product_id.into()),
                    ("quantity", quantity.into()),
                ],
            )?;
            Ok(())
        })?;
        Ok(())
    }

    /// Seed a payment row directly (bench/test fixture).
    pub fn seed_payment(&self, order_id: i64) -> Result<()> {
        self.orm.transaction(|t| {
            t.raw().insert(
                "payments",
                &[("order_id", order_id.into()), ("state", "new".into())],
            )?;
            Ok(())
        })?;
        Ok(())
    }

    /// Seed an order in the "cart" state.
    pub fn seed_order(&self, order_id: i64) -> Result<()> {
        self.orm.create(
            "orders",
            &[("id", order_id.into()), ("state", "cart".into())],
        )?;
        Ok(())
    }

    /// §3.1.1: process an order — check and decrement SKU stock, persist
    /// through `ORM.save` (which drags the product/category touch cascade
    /// along), and advance the order state. Returns `false` on
    /// insufficient stock.
    pub fn decrement_stock(&self, order_id: i64, sku_id: i64, requested: i64) -> Result<bool> {
        match self.mode {
            Mode::Confluent => {
                // `quantity >= 0` is a budget invariant: escrow the
                // requested units off the per-SKU ledger (one lock-free
                // atomic, coordinating only near exhaustion), then commit
                // the decrement as a commutative delta alongside the blind
                // cascade writes. Concurrent orders on the same SKU never
                // validate against each other, so the §3.1.1 hot-SKU
                // aborts cannot exist even in principle.
                let reservation = match self
                    .orm
                    .db()
                    .escrow_reserve("skus", sku_id, "quantity", requested)
                {
                    Ok(r) => r,
                    Err(DbError::EscrowExhausted { .. }) => return Ok(false),
                    Err(e) => return Err(e.into()),
                };
                let product_id = self
                    .orm
                    .find_required("skus", sku_id)?
                    .get_int("product_id")?;
                let pc_schema = self.orm.db().schema("product_categories")?;
                self.orm.transaction(|t| {
                    t.raw().add_delta("skus", sku_id, "quantity", -requested)?;
                    t.raw()
                        .update("products", product_id, &[("updated_at", 1.into())])?;
                    let links = t.raw().scan(
                        "product_categories",
                        &Predicate::eq("product_id", product_id),
                    )?;
                    for (_, link) in &links {
                        let cat = link.get_int(&pc_schema, "category_id")?;
                        t.raw()
                            .update("categories", cat, &[("updated_at", 1.into())])?;
                    }
                    t.raw()
                        .update("orders", order_id, &[("state", "confirmed".into())])?;
                    Ok(())
                })?;
                reservation.confirm();
                Ok(true)
            }
            Mode::Cured => {
                // §7 cure: field-granular OCC validates only the columns
                // actually read (`quantity`). The touch cascade and the
                // order-status write are staged as blind writes — they
                // carry no read footprint, so concurrent orders sharing a
                // category never conflict (the §3.1.1 aborts vanish), yet
                // everything commits in one atomic validate-on-save.
                Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    let sku = occ
                        .read_fields(&self.orm, "skus", sku_id, &["quantity", "product_id"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "skus".into(),
                            id: sku_id,
                        })?;
                    let quantity = sku.get_int("quantity")?;
                    if quantity < requested {
                        return Ok(false);
                    }
                    let product_id = sku.get_int("product_id")?;
                    occ.stage_update(
                        "skus",
                        sku_id,
                        &[("quantity", (quantity - requested).into())],
                    );
                    occ.stage_update("products", product_id, &[("updated_at", 1.into())]);
                    let pc_schema = self.orm.db().schema("product_categories")?;
                    let links = self.orm.transaction(|t| {
                        Ok(t.raw().scan(
                            "product_categories",
                            &Predicate::eq("product_id", product_id),
                        )?)
                    })?;
                    for (_, link) in &links {
                        let cat = link.get_int(&pc_schema, "category_id")?;
                        occ.stage_update("categories", cat, &[("updated_at", 1.into())]);
                    }
                    occ.stage_update("orders", order_id, &[("state", "confirmed".into())]);
                    Ok(true)
                })?)
            }
            Mode::AdHoc => {
                let guard = self.lock.lock(&format!("sku:{sku_id}"))?;
                let mut sku = self.orm.find_required("skus", sku_id)?;
                let quantity = sku.get_int("quantity")?;
                let ok = if quantity >= requested {
                    sku.set("quantity", quantity - requested)?;
                    // ORM.save: the update plus the hidden cascade, all at
                    // the engine's default isolation.
                    self.orm.save(&mut sku)?;
                    true
                } else {
                    false
                };
                guard.unlock()?;
                if ok {
                    // The order-status write; the issue-[61] variant leaves
                    // it entirely uncoordinated.
                    if self.omit_status_coordination {
                        let order = self.orm.find_required("orders", order_id)?;
                        let state = order.get_str("state")?;
                        std::thread::yield_now();
                        if state == "cart" {
                            self.orm.transaction(|t| {
                                t.raw().update(
                                    "orders",
                                    order_id,
                                    &[("state", "confirmed".into())],
                                )?;
                                Ok(())
                            })?;
                        } else {
                            // Duplicate confirmation path: decrement again
                            // (the "duplicate decrements" consequence).
                            let mut sku = self.orm.find_required("skus", sku_id)?;
                            let q = sku.get_int("quantity")?;
                            sku.set("quantity", q - requested)?;
                            self.orm.save(&mut sku)?;
                        }
                    } else {
                        self.orm.transaction(|t| {
                            t.raw()
                                .update("orders", order_id, &[("state", "confirmed".into())])?;
                            Ok(())
                        })?;
                    }
                }
                Ok(ok)
            }
            Mode::DatabaseTxn => {
                let sku_schema = self.orm.db().schema("skus")?;
                let pc_schema = self.orm.db().schema("product_categories")?;
                Ok(self.orm.db().run_with_retries(
                    IsolationLevel::Serializable,
                    DBT_RETRIES,
                    |t| {
                        let sku = t.get("skus", sku_id)?.ok_or(DbError::NoSuchRow {
                            table: "skus".into(),
                            id: sku_id,
                        })?;
                        let quantity = sku.get_int(&sku_schema, "quantity")?;
                        if quantity < requested {
                            return Ok(false);
                        }
                        let product_id = sku.get_int(&sku_schema, "product_id")?;
                        t.update(
                            "skus",
                            sku_id,
                            &[("quantity", (quantity - requested).into())],
                        )?;
                        // The same statements the ORM generates (§3.1.1
                        // lines 8–13), now inside the Serializable txn.
                        t.update("products", product_id, &[("updated_at", 1.into())])?;
                        let links = t.scan(
                            "product_categories",
                            &Predicate::eq("product_id", product_id),
                        )?;
                        for (_, link) in &links {
                            let cat = link.get_int(&pc_schema, "category_id")?;
                            t.update("categories", cat, &[("updated_at", 1.into())])?;
                        }
                        t.update("orders", order_id, &[("state", "confirmed".into())])?;
                        Ok(true)
                    },
                )?)
            }
        }
    }

    /// Table 6 `PBC`: add a payment for an order unless one exists.
    /// Returns whether a payment was created.
    pub fn add_payment(&self, order_id: i64) -> Result<bool> {
        match self.mode {
            // Uniqueness ("at most one payment per order") is not
            // invariant-confluent — two coordination-free inserts merge
            // into a duplicate — so Confluent inherits the cure unchanged.
            Mode::Cured | Mode::Confluent => {
                crate::busy_work(self.request_cpu_work);
                // §7 cure: the same exact-equality predicate key the ad hoc
                // lock used, routed through the coordination façade — the
                // value granularity is kept, the hand-rolled lock table is
                // not.
                let guard = self
                    .coord
                    .user_lock(&format!("payments:order_id={order_id}"))?;
                let created = self.orm.transaction(|t| {
                    if has_payment(t.raw(), order_id)? {
                        return Ok(false);
                    }
                    t.raw().insert(
                        "payments",
                        &[("order_id", order_id.into()), ("state", "new".into())],
                    )?;
                    Ok(true)
                })?;
                guard.unlock()?;
                Ok(created)
            }
            Mode::AdHoc => {
                crate::busy_work(self.request_cpu_work);
                // Predicate lock on the exact equality `order_id = ?`
                // (§3.3.2: "a concurrent hash table tracking locked
                // values").
                let guard = self.lock.lock(&format!("payments:order_id={order_id}"))?;
                let created = self.orm.transaction(|t| {
                    if has_payment(t.raw(), order_id)? {
                        return Ok(false);
                    }
                    t.raw().insert(
                        "payments",
                        &[("order_id", order_id.into()), ("state", "new".into())],
                    )?;
                    Ok(true)
                })?;
                guard.unlock()?;
                Ok(created)
            }
            Mode::DatabaseTxn => Ok(self.orm.db().run_with_retries(
                IsolationLevel::Serializable,
                DBT_RETRIES,
                |t| {
                    crate::busy_work(self.request_cpu_work);
                    if has_payment(t, order_id)? {
                        return Ok(false);
                    }
                    t.insert(
                        "payments",
                        &[("order_id", order_id.into()), ("state", "new".into())],
                    )?;
                    Ok(true)
                },
            )?),
        }
    }

    /// §4.2 (issue \[59\]): the JSON handler with the same functionality and
    /// *no* ad hoc transaction.
    pub fn add_payment_json(&self, order_id: i64) -> Result<bool> {
        let existing = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("payments", &Predicate::eq("order_id", order_id))?)
        })?;
        if !existing.is_empty() {
            return Ok(false);
        }
        std::thread::yield_now(); // the uncoordinated race window
        self.orm.transaction(|t| {
            t.raw().insert(
                "payments",
                &[("order_id", order_id.into()), ("state", "new".into())],
            )?;
            Ok(())
        })?;
        Ok(true)
    }

    /// Invariant (PBC): at most one payment per order.
    pub fn one_payment_per_order(&self, order_id: i64) -> Result<bool> {
        let payments = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("payments", &Predicate::eq("order_id", order_id))?)
        })?;
        Ok(payments.len() <= 1)
    }

    /// §4.3 (issue \[60\]): process an order's payment. `crash_midway`
    /// simulates the application server dying after marking the payment
    /// `processing` but before completing it.
    pub fn process_payment(&self, order_id: i64, crash_midway: bool) -> Result<bool> {
        if self.mode.on_cured_layer() {
            // §7 cure: one atomic state transition. The intermediate
            // `processing` mark never commits on its own, so a mid-flight
            // crash leaves nothing stuck — §4.3 [60] cannot occur and the
            // boot-time fsck has nothing to repair.
            let schema = self.orm.db().schema("payments")?;
            return Ok(self.orm.transaction(|t| {
                let payments = t
                    .raw()
                    .scan("payments", &Predicate::eq("order_id", order_id))?;
                let Some((payment_id, row)) = payments.into_iter().next() else {
                    return Ok(false);
                };
                if row.get_str(&schema, "state")? != "new" {
                    return Ok(false);
                }
                if crash_midway {
                    // The handler dies here; the transaction never commits
                    // and the payment stays processable.
                    return Ok(false);
                }
                t.raw()
                    .update("payments", payment_id, &[("state", "completed".into())])?;
                Ok(true)
            })?);
        }
        let schema = self.orm.db().schema("payments")?;
        let payments = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("payments", &Predicate::eq("order_id", order_id))?)
        })?;
        let Some((payment_id, row)) = payments.into_iter().next() else {
            return Ok(false);
        };
        let state = row.get_str(&schema, "state")?;
        if state == "processing" {
            // §4.3: "Spree can neither initiate new payment operations due
            // to the unfinished ones nor resume [them]".
            return Ok(false);
        }
        if state == "completed" {
            return Ok(false);
        }
        self.orm.transaction(|t| {
            t.raw()
                .update("payments", payment_id, &[("state", "processing".into())])?;
            Ok(())
        })?;
        if crash_midway {
            // The request handler dies here; the commit above is durable.
            return Ok(false);
        }
        self.orm.transaction(|t| {
            t.raw()
                .update("payments", payment_id, &[("state", "completed".into())])?;
            Ok(())
        })?;
        Ok(true)
    }

    /// The boot-time consistency fix for issue \[60\]: reset payments stuck
    /// in `processing` back to `new` so check-out can resume. Thin wrapper
    /// over the generic [`boot_fsck`] pass, returning the reset count the
    /// crash-recovery property tests assert on.
    pub fn boot_recovery(&self) -> Result<usize> {
        Ok(self.recover_on_boot().fixed)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }

    /// Invariant (§3.1.1): SKU stock never goes negative and reflects
    /// exactly the successful decrements.
    pub fn sku_quantity(&self, sku_id: i64) -> Result<i64> {
        Ok(self
            .orm
            .find_required("skus", sku_id)?
            .get_int("quantity")?)
    }
}

/// Whether order `order_id` already has a payment: the `order_id = ?`
/// scan of Table 6's `PBC` check, folded to a flag (no row is copied).
fn has_payment(t: &mut Transaction, order_id: i64) -> adhoc_storage::Result<bool> {
    t.scan_fold(
        "payments",
        &Predicate::eq("order_id", order_id),
        false,
        |_, _, _| true,
    )
}

/// Spree's boot-time recovery pass (§4.3, issue \[60\]): a crash between
/// the `processing` mark and the completion write leaves the payment state
/// machine stuck — neither processable nor resumable. On boot, stuck
/// payments reset to `new` so check-out can resume.
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(stuck_state("payments", "state", "processing", "new"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::SfuLock;

    fn fixture(mode: Mode, profile: EngineProfile) -> Spree {
        let db = Database::in_memory(profile);
        let orm = setup(&db).unwrap();
        let app = Spree::new(orm, Arc::new(MemLock::new()), mode);
        app.seed_catalog(1, 1, &[10, 11], 1000).unwrap();
        app.seed_order(1).unwrap();
        app
    }

    #[test]
    fn insufficient_stock_is_refused() {
        let app = fixture(Mode::AdHoc, EngineProfile::MySqlLike);
        assert!(!app.decrement_stock(1, 1, 5000).unwrap());
        assert_eq!(app.sku_quantity(1).unwrap(), 1000);
    }

    #[test]
    fn sfu_outside_transaction_loses_stock_updates() {
        // §4.1.1 [61]: the SFU "lock" that releases immediately.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let broken = Arc::new(SfuLock::new(db.clone()).outside_transaction());
        let app = Arc::new(Spree::new(orm, broken, Mode::AdHoc));
        app.seed_catalog(1, 1, &[10], 100_000).unwrap();
        app.seed_order(1).unwrap();
        // The lost update needs real thread overlap, which one busy CPU
        // doesn't always produce in a single round — repeat the racing
        // round until the bug manifests (each loss leaves the quantity
        // above the exact-decrement count, which is what we assert).
        let mut manifested = false;
        for round in 1..=20u32 {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    let app = Arc::clone(&app);
                    s.spawn(move || {
                        for _ in 0..40 {
                            app.decrement_stock(1, 1, 1).unwrap();
                        }
                    });
                }
            });
            let q = app.sku_quantity(1).unwrap();
            if q > 100_000 - 320 * round as i64 {
                manifested = true;
                break;
            }
        }
        assert!(
            manifested,
            "lost decrements expected with the broken SFU lock"
        );
    }

    #[test]
    fn forgotten_json_handler_duplicates_payments() {
        // §4.2 [59]: the JSON path has no lock; racing it against itself
        // (or the HTML path) duplicates payments.
        let mut violated = false;
        for _ in 0..100 {
            let app = Arc::new(fixture(Mode::AdHoc, EngineProfile::PostgresLike));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let app = Arc::clone(&app);
                    s.spawn(move || {
                        app.add_payment_json(1).unwrap();
                    });
                }
            });
            if !app.one_payment_per_order(1).unwrap() {
                violated = true;
                break;
            }
        }
        assert!(violated, "the uncoordinated JSON handler must duplicate");
    }

    #[test]
    fn crashed_payment_blocks_checkout_until_boot_recovery() {
        let app = fixture(Mode::AdHoc, EngineProfile::PostgresLike);
        assert!(app.add_payment(1).unwrap());
        // Crash mid-processing.
        assert!(!app.process_payment(1, true).unwrap());
        // §4.3 [60]: stuck — neither processable nor resumable.
        assert!(!app.process_payment(1, false).unwrap());
        // The boot-time fix resets it and checkout resumes.
        assert_eq!(app.boot_recovery().unwrap(), 1);
        assert!(app.process_payment(1, false).unwrap());
        let schema = app.orm().db().schema("payments").unwrap();
        let payments = app
            .orm()
            .transaction(|t| Ok(t.raw().scan("payments", &Predicate::eq("order_id", 1))?))
            .unwrap();
        assert_eq!(
            payments[0].1.get_str(&schema, "state").unwrap(),
            "completed"
        );
    }

    #[test]
    fn omitted_status_coordination_double_decrements() {
        // §4.2 [61]: with the order-status write uncoordinated, a second
        // check-out that observes the already-confirmed order takes the
        // duplicate-confirmation path and decrements stock twice. The
        // consequence is deterministic once the interleaving occurs; drive
        // it directly.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let app = Spree::new(orm, Arc::new(MemLock::new()), Mode::AdHoc).omit_status_coordination();
        app.seed_catalog(1, 1, &[10], 1000).unwrap();
        app.seed_order(1).unwrap();
        assert!(app.decrement_stock(1, 1, 1).unwrap()); // confirms the order
        assert!(app.decrement_stock(1, 1, 1).unwrap()); // duplicate path
        assert_eq!(
            app.sku_quantity(1).unwrap(),
            997,
            "two successful check-outs removed three units"
        );
        // The correctly coordinated variant decrements exactly once per call.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let fixed = Spree::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
        fixed.seed_catalog(1, 1, &[10], 1000).unwrap();
        fixed.seed_order(1).unwrap();
        assert!(fixed.decrement_stock(1, 1, 1).unwrap());
        assert!(fixed.decrement_stock(1, 1, 1).unwrap());
        assert_eq!(fixed.sku_quantity(1).unwrap(), 998);
    }
    #[test]
    fn order_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc, EngineProfile::PostgresLike);
        let fps: Vec<_> = (2..=7)
            .map(|id| {
                app.seed_order(id).unwrap();
                crate::observed_footprint(&app.orm, |t| {
                    t.raw().update("orders", id, &[("state", "cart".into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
