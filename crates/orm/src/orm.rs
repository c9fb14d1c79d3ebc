//! The ORM runtime: finders, `save()` with generated cascades, transaction
//! blocks, and the MiniSql bypass.

use crate::entity::{EntityDef, Obj, Registry, Validation};
use crate::error::OrmError;
use crate::Result;
use adhoc_storage::{Database, Footprint, Predicate, Row, Transaction, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The ORM handle. Cheap to clone; clones share the registry and the
/// `updated_at` tick source.
#[derive(Clone)]
pub struct Orm {
    db: Database,
    registry: Arc<Registry>,
    /// Monotonic tick used for `updated_at` (a stand-in for `now()`).
    ticker: Arc<AtomicI64>,
}

impl Orm {
    /// An ORM over `db` with the given entity registry.
    pub fn new(db: Database, registry: Registry) -> Self {
        Self {
            db,
            registry: Arc::new(registry),
            ticker: Arc::new(AtomicI64::new(1)),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The entity registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Next `updated_at` tick.
    pub fn now_tick(&self) -> i64 {
        self.ticker.fetch_add(1, Ordering::SeqCst)
    }

    /// Run a block inside one database transaction at the engine's default
    /// isolation level (Active Record's `transaction do … end`).
    pub fn transaction<R>(&self, f: impl FnOnce(&mut OrmTxn<'_>) -> Result<R>) -> Result<R> {
        let txn = self.db.begin_with(self.db.default_isolation());
        let mut ctx = OrmTxn { orm: self, txn };
        match f(&mut ctx) {
            Ok(r) => {
                ctx.txn.commit()?;
                Ok(r)
            }
            Err(e) => {
                ctx.txn.abort();
                Err(e)
            }
        }
    }

    /// Autocommit find.
    pub fn find(&self, entity: &str, id: i64) -> Result<Option<Obj>> {
        self.transaction(|t| t.find(entity, id))
    }

    /// Autocommit find that must succeed.
    pub fn find_required(&self, entity: &str, id: i64) -> Result<Obj> {
        self.transaction(|t| t.find_required(entity, id))
    }

    /// Autocommit save (each `ORM.save(obj)` in the paper's listings is one
    /// generated transaction, like the §3.1.1 example's lines 7–14).
    pub fn save(&self, obj: &mut Obj) -> Result<()> {
        self.transaction(|t| t.save(obj))
    }

    /// Autocommit create.
    pub fn create(&self, entity: &str, pairs: &[(&str, Value)]) -> Result<Obj> {
        self.transaction(|t| t.create(entity, pairs))
    }

    /// Autocommit delete.
    pub fn delete(&self, entity: &str, id: i64) -> Result<bool> {
        self.transaction(|t| t.delete(entity, id))
    }

    /// The MiniSql-style side channel: statements issued through this
    /// handle run in their own transactions even when called inside a
    /// [`transaction`](Self::transaction) block — the ORM "cannot intercept
    /// and issue \[them\] as part of the database transaction" (§4.1.2).
    pub fn mini_sql(&self) -> MiniSql {
        MiniSql {
            db: self.db.clone(),
        }
    }
}

impl std::fmt::Debug for Orm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orm")
            .field("entities", &self.registry.names())
            .finish_non_exhaustive()
    }
}

/// An ORM context bound to one open database transaction.
pub struct OrmTxn<'a> {
    orm: &'a Orm,
    txn: Transaction,
}

impl OrmTxn<'_> {
    /// Escape hatch to the raw transaction, for the hand-written SQL the
    /// studied applications mix with ORM calls.
    pub fn raw(&mut self) -> &mut Transaction {
        &mut self.txn
    }

    /// The conflict footprint accumulated so far by this transaction block:
    /// the row-state shards its reads and buffered writes (including the
    /// statements `save()` generates — touch cascades, `lock_version`
    /// bumps) touch. Commit will lock exactly these shards, so two blocks
    /// with [disjoint](Footprint::is_disjoint) footprints never contend on
    /// engine state.
    pub fn footprint(&self) -> Footprint {
        self.txn.footprint()
    }

    fn wrap(&self, entity: &str, id: i64, row: Row) -> Result<Obj> {
        let schema = self.orm.db.schema(entity)?;
        Ok(Obj::from_row(entity, schema, id, row))
    }

    /// `Entity.find(id)` — returns `None` when missing.
    pub fn find(&mut self, entity: &str, id: i64) -> Result<Option<Obj>> {
        self.orm.registry.get(entity)?;
        match self.txn.get(entity, id)? {
            Some(row) => Ok(Some(self.wrap(entity, id, row)?)),
            None => Ok(None),
        }
    }

    /// `Entity.find(id)` raising on absence.
    pub fn find_required(&mut self, entity: &str, id: i64) -> Result<Obj> {
        self.find(entity, id)?
            .ok_or_else(|| OrmError::RecordNotFound {
                entity: entity.to_string(),
                id,
            })
    }

    /// `Entity.where(pred)`.
    pub fn find_by(&mut self, entity: &str, pred: &Predicate) -> Result<Vec<Obj>> {
        self.orm.registry.get(entity)?;
        let rows = self.txn.scan(entity, pred)?;
        rows.into_iter()
            .map(|(id, row)| self.wrap(entity, id, row))
            .collect()
    }

    /// Run the entity's `validates` rules against current database state.
    /// `value_of` resolves a column of the row being written (`None` when
    /// the write does not carry it).
    fn run_validations<'v>(
        &mut self,
        def: &EntityDef,
        obj_id: Option<i64>,
        value_of: impl Fn(&str) -> Option<&'v Value>,
    ) -> Result<()> {
        let failed = |column: &str, rule| OrmError::ValidationFailed {
            entity: def.name.clone(),
            column: column.to_string(),
            rule,
        };
        for v in &def.validations {
            match v {
                Validation::Presence { column } => {
                    let ok = match value_of(column) {
                        Some(Value::Null) | None => false,
                        Some(Value::Str(s)) => !s.is_empty(),
                        Some(_) => true,
                    };
                    if !ok {
                        return Err(failed(column, "presence"));
                    }
                }
                Validation::NonNegative { column } => {
                    if let Some(Value::Int(n)) = value_of(column) {
                        if *n < 0 {
                            return Err(failed(column, "non_negative"));
                        }
                    }
                }
                Validation::Uniqueness { column } => {
                    // Feral check: SELECT then decide. Racy by construction
                    // (two concurrent writers both see "no duplicate").
                    if let Some(value) = value_of(column) {
                        if value.is_null() {
                            continue;
                        }
                        let existing = self
                            .txn
                            .scan(&def.name, &Predicate::Eq(column.clone(), value.clone()))?;
                        if existing.iter().any(|(id, _)| Some(*id) != obj_id) {
                            return Err(failed(column, "uniqueness"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Touch cascades generated by `save` (§3.1.1's hidden statements).
    fn run_touches(&mut self, def: &EntityDef, obj: &Obj) -> Result<()> {
        for (fk, parent) in &def.touches {
            let parent_id = obj.get_int(fk)?;
            let tick = self.orm.now_tick();
            self.txn
                .update(parent, parent_id, &[("updated_at", tick.into())])?;
        }
        for via in &def.touches_via {
            let seed = obj.get_int(&via.fk_column)?;
            let links = self
                .txn
                .scan(&via.join_table, &Predicate::eq(&via.join_left, seed))?;
            let join_schema = self.orm.db.schema(&via.join_table)?;
            for (_, link) in links {
                let parent_id = link.get_int(&join_schema, &via.join_right)?;
                let tick = self.orm.now_tick();
                self.txn
                    .update(&via.parent_table, parent_id, &[("updated_at", tick.into())])?;
            }
        }
        Ok(())
    }

    /// `obj.save!`: validations, the UPDATE itself (optimistically locked
    /// when configured), then the generated touch cascades.
    pub fn save(&mut self, obj: &mut Obj) -> Result<()> {
        // Borrow the definition through the `&Orm`, not through `self`, so
        // it stays usable across the statements below.
        let orm = self.orm;
        let def = orm.registry.get(&obj.entity)?;
        self.run_validations(def, Some(obj.id), |col| {
            obj.schema().position(col).map(|i| obj.row().at(i))
        })?;

        let mut pairs: Vec<(&str, Value)> = obj
            .dirty_columns()
            .map(|c| Ok((c, obj.get(c)?.clone())))
            .collect::<Result<_>>()?;
        if def.timestamps {
            pairs.push(("updated_at", orm.now_tick().into()));
        }

        if def.optimistic_lock {
            let stale = || OrmError::StaleObject {
                entity: obj.entity.clone(),
                id: obj.id,
            };
            let loaded = obj.loaded_version.ok_or_else(stale)?;
            pairs.push(("lock_version", (loaded + 1).into()));
            let pred = Predicate::And(vec![
                Predicate::eq("id", obj.id),
                Predicate::eq("lock_version", loaded),
            ]);
            if self.txn.update_where(&obj.entity, &pred, &pairs)? == 0 {
                return Err(stale());
            }
            obj.bump_loaded_version();
        } else if !pairs.is_empty() {
            self.txn.update(&obj.entity, obj.id, &pairs)?;
        }

        self.run_touches(def, obj)?;
        obj.clear_dirty();
        Ok(())
    }

    /// `Entity.create!(…)`.
    pub fn create(&mut self, entity: &str, pairs: &[(&str, Value)]) -> Result<Obj> {
        let orm = self.orm;
        let def = orm.registry.get(entity)?;
        let mut pairs = pairs.to_vec();
        if def.timestamps && !pairs.iter().any(|(n, _)| *n == "updated_at") {
            pairs.push(("updated_at", orm.now_tick().into()));
        }
        if def.optimistic_lock && !pairs.iter().any(|(n, _)| *n == "lock_version") {
            pairs.push(("lock_version", 0.into()));
        }
        self.run_validations(def, None, |col| {
            pairs.iter().find(|(n, _)| *n == col).map(|(_, v)| v)
        })?;
        let id = self.txn.insert(entity, &pairs)?;
        let obj = self
            .find(entity, id)?
            .expect("just inserted row must be visible to this transaction");
        self.run_touches(def, &obj)?;
        Ok(obj)
    }

    /// `obj.destroy`.
    pub fn delete(&mut self, entity: &str, id: i64) -> Result<bool> {
        self.orm.registry.get(entity)?;
        Ok(self.txn.delete(entity, id)?)
    }
}

/// The out-of-band query interface (Discourse's MiniSql, §4.1.2): every
/// call runs in its own autocommit transaction, never the ambient one.
#[derive(Clone)]
pub struct MiniSql {
    db: Database,
}

impl MiniSql {
    /// `UPDATE … WHERE pred` in an independent transaction; returns the
    /// affected-row count.
    pub fn update_where(
        &self,
        table: &str,
        pred: &Predicate,
        pairs: &[(&str, Value)],
    ) -> Result<usize> {
        Ok(self.db.run(self.db.default_isolation(), |t| {
            t.update_where(table, pred, pairs)
        })?)
    }

    /// `SELECT … WHERE pred` in an independent transaction.
    pub fn query(&self, table: &str, pred: &Predicate) -> Result<Vec<(i64, Row)>> {
        Ok(self
            .db
            .run(self.db.default_isolation(), |t| t.scan(table, pred))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityDef, TouchVia, Validation};
    use adhoc_storage::{Column, ColumnType, EngineProfile, Schema};

    /// The §3.1.1 Spree schema: SKUs → Products → (join) → Categories.
    fn spree_fixture() -> Orm {
        let db = Database::in_memory(EngineProfile::MySqlLike);
        db.create_table(
            Schema::new(
                "products",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("updated_at", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::new(
                "categories",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("updated_at", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::new(
                "product_categories",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("product_id", ColumnType::Int),
                    Column::new("category_id", ColumnType::Int),
                ],
                "id",
            )
            .unwrap()
            .with_index("product_id")
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::new(
                "skus",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("product_id", ColumnType::Int),
                    Column::new("quantity", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let registry = Registry::new()
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
                    })
                    .validate(Validation::NonNegative {
                        column: "quantity".into(),
                    }),
            );
        let orm = Orm::new(db, registry);
        orm.transaction(|t| {
            t.create("products", &[("id", 1.into()), ("updated_at", 0.into())])?;
            t.create("categories", &[("id", 10.into()), ("updated_at", 0.into())])?;
            t.create("categories", &[("id", 11.into()), ("updated_at", 0.into())])?;
            t.create(
                "product_categories",
                &[("product_id", 1.into()), ("category_id", 10.into())],
            )?;
            t.create(
                "product_categories",
                &[("product_id", 1.into()), ("category_id", 11.into())],
            )?;
            t.create(
                "skus",
                &[
                    ("id", 5.into()),
                    ("product_id", 1.into()),
                    ("quantity", 10.into()),
                ],
            )?;
            Ok(())
        })
        .unwrap();
        orm
    }

    #[test]
    fn save_generates_the_spree_cascade() {
        let orm = spree_fixture();
        let before = orm.db().stats().statements;
        let mut sku = orm.find_required("skus", 5).unwrap();
        sku.set("quantity", 8).unwrap();
        orm.save(&mut sku).unwrap();
        // The cascade touched the product and both categories.
        let product = orm.find_required("products", 1).unwrap();
        assert!(product.get_int("updated_at").unwrap() > 0);
        for cid in [10, 11] {
            let cat = orm.find_required("categories", cid).unwrap();
            assert!(
                cat.get_int("updated_at").unwrap() > 0,
                "category {cid} must be touched"
            );
        }
        // And it cost several statements the developer never wrote
        // (update sku + touch product + join scan + 2 category touches).
        let issued = orm.db().stats().statements - before;
        assert!(
            issued >= 5,
            "expected the hidden cascade, got {issued} stmts"
        );
        assert_eq!(
            orm.find_required("skus", 5)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            8
        );
    }

    #[test]
    fn save_footprint_covers_the_generated_cascade() {
        let orm = spree_fixture();
        let (fp_cascade, fp_product) = orm
            .transaction(|t| {
                let before = t.footprint();
                assert!(before.writes.is_empty(), "fresh block has no footprint");
                let mut sku = t.find_required("skus", 5)?;
                sku.set("quantity", 9)?;
                t.save(&mut sku)?;
                let fp_cascade = t.footprint();
                Ok((fp_cascade, ()))
            })
            .map(|(fp, ())| {
                let fp_product = orm
                    .transaction(|t| {
                        let mut p = t.find_required("products", 1)?;
                        p.set("updated_at", 99)?;
                        t.save(&mut p)?;
                        Ok(t.footprint())
                    })
                    .unwrap();
                (fp, fp_product)
            })
            .unwrap();
        // save(sku) wrote the sku, the product touch, and both category
        // touches: strictly more shards than a bare product save, and the
        // product's shard is inside the cascade footprint.
        assert!(fp_cascade.writes.len() >= 2, "{fp_cascade:?}");
        assert!(
            !fp_cascade.is_disjoint(&fp_product),
            "cascade must cover the touched product: {fp_cascade:?} vs {fp_product:?}"
        );
    }

    #[test]
    fn validations_run_on_save_and_create() {
        let orm = spree_fixture();
        let mut sku = orm.find_required("skus", 5).unwrap();
        sku.set("quantity", -1).unwrap();
        let err = orm.save(&mut sku).unwrap_err();
        assert!(matches!(
            err,
            OrmError::ValidationFailed {
                rule: "non_negative",
                ..
            }
        ));
        // Database state unchanged (transaction rolled back).
        assert_eq!(
            orm.find_required("skus", 5)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            10
        );
    }

    fn posts_fixture(optimistic: bool) -> Orm {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "posts",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("content", ColumnType::Str),
                    Column::new("lock_version", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let mut def = EntityDef::new("posts");
        if optimistic {
            def = def.with_lock_version();
        }
        let orm = Orm::new(db, Registry::new().register(def));
        orm.transaction(|t| {
            t.create(
                "posts",
                &[
                    ("id", 1.into()),
                    ("content", "v0".into()),
                    ("lock_version", 0.into()),
                ],
            )
            .map(|_| ())
        })
        .unwrap();
        orm
    }

    #[test]
    fn lock_version_detects_stale_saves() {
        let orm = posts_fixture(true);
        let mut a = orm.find_required("posts", 1).unwrap();
        let mut b = orm.find_required("posts", 1).unwrap();
        a.set("content", "from-a").unwrap();
        orm.save(&mut a).unwrap();
        b.set("content", "from-b").unwrap();
        let err = orm.save(&mut b).unwrap_err();
        assert!(matches!(err, OrmError::StaleObject { .. }));
        assert_eq!(
            orm.find_required("posts", 1)
                .unwrap()
                .get_str("content")
                .unwrap(),
            "from-a"
        );
        // The winner can keep saving (its loaded version advanced).
        a.set("content", "from-a-2").unwrap();
        orm.save(&mut a).unwrap();
        assert_eq!(
            orm.find_required("posts", 1)
                .unwrap()
                .get_str("content")
                .unwrap(),
            "from-a-2"
        );
    }

    #[test]
    fn without_lock_version_last_writer_wins() {
        let orm = posts_fixture(false);
        let mut a = orm.find_required("posts", 1).unwrap();
        let mut b = orm.find_required("posts", 1).unwrap();
        a.set("content", "from-a").unwrap();
        orm.save(&mut a).unwrap();
        b.set("content", "from-b").unwrap();
        orm.save(&mut b).unwrap(); // silently overwrites
        assert_eq!(
            orm.find_required("posts", 1)
                .unwrap()
                .get_str("content")
                .unwrap(),
            "from-b"
        );
    }

    #[test]
    fn feral_uniqueness_validation_is_racy() {
        // Uniqueness via `validates` only (no DB unique index): two
        // concurrent creates both pass the SELECT check — Bailis et al.'s
        // core observation, reproduced.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "users",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("email", ColumnType::Str),
                ],
                "id",
            )
            .unwrap()
            .with_index("email")
            .unwrap(),
        )
        .unwrap();
        let orm = Orm::new(
            db,
            Registry::new().register(EntityDef::new("users").validate(Validation::Uniqueness {
                column: "email".into(),
            })),
        );
        // Sequentially the validation works…
        orm.create("users", &[("email", "a@x.com".into())]).unwrap();
        assert!(matches!(
            orm.create("users", &[("email", "a@x.com".into())]),
            Err(OrmError::ValidationFailed {
                rule: "uniqueness",
                ..
            })
        ));
        // …but two racing creates can both succeed.
        let successes: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let orm = orm.clone();
                    s.spawn(move || {
                        orm.create("users", &[("email", "race@x.com".into())])
                            .is_ok() as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(successes >= 1);
        let dupes = orm
            .transaction(|t| t.find_by("users", &Predicate::eq("email", "race@x.com")))
            .unwrap()
            .len();
        assert_eq!(dupes, successes, "every successful create left a row");
        // The race is real: with 8 threads we virtually always get > 1.
        // (Not asserted to keep the test deterministic.)
    }

    #[test]
    fn mini_sql_bypasses_the_ambient_transaction() {
        let orm = posts_fixture(false);
        let mini = orm.mini_sql();
        // Inside a transaction block, a MiniSql write commits immediately —
        // even when the block later rolls back.
        let result: Result<()> = orm.transaction(|_t| {
            mini.update_where(
                "posts",
                &Predicate::eq("id", 1),
                &[("content", "leaked".into())],
            )?;
            Err(OrmError::RecordNotFound {
                entity: "posts".into(),
                id: 999,
            }) // force rollback of the ambient transaction
        });
        assert!(result.is_err());
        assert_eq!(
            orm.find_required("posts", 1)
                .unwrap()
                .get_str("content")
                .unwrap(),
            "leaked",
            "MiniSql write must survive the ambient rollback"
        );
    }

    #[test]
    fn transaction_block_is_atomic() {
        let orm = posts_fixture(false);
        let result: Result<()> = orm.transaction(|t| {
            let mut p = t.find_required("posts", 1)?;
            p.set("content", "inside")?;
            t.save(&mut p)?;
            Err(OrmError::RecordNotFound {
                entity: "posts".into(),
                id: 999,
            })
        });
        assert!(result.is_err());
        assert_eq!(
            orm.find_required("posts", 1)
                .unwrap()
                .get_str("content")
                .unwrap(),
            "v0"
        );
    }

    #[test]
    fn find_variants() {
        let orm = posts_fixture(false);
        assert!(orm.find("posts", 1).unwrap().is_some());
        assert!(orm.find("posts", 99).unwrap().is_none());
        assert!(matches!(
            orm.find_required("posts", 99),
            Err(OrmError::RecordNotFound { .. })
        ));
        assert!(matches!(
            orm.find("ghosts", 1),
            Err(OrmError::UnknownEntity { .. })
        ));
        orm.transaction(|t| {
            let got = t.find_by("posts", &Predicate::eq("content", "v0"))?;
            assert_eq!(got.len(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn delete_and_reload() {
        let orm = posts_fixture(false);
        assert!(orm.delete("posts", 1).unwrap());
        assert!(!orm.delete("posts", 1).unwrap());
        assert!(orm.find("posts", 1).unwrap().is_none());
    }

    #[test]
    fn create_presence_validation() {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "topics",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("title", ColumnType::Str).nullable(),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let orm = Orm::new(
            db,
            Registry::new().register(EntityDef::new("topics").validate(Validation::Presence {
                column: "title".into(),
            })),
        );
        assert!(matches!(
            orm.create("topics", &[("title", "".into())]),
            Err(OrmError::ValidationFailed {
                rule: "presence",
                ..
            })
        ));
        assert!(matches!(
            orm.create("topics", &[]),
            Err(OrmError::ValidationFailed {
                rule: "presence",
                ..
            })
        ));
        orm.create("topics", &[("title", "ok".into())]).unwrap();
    }
}
