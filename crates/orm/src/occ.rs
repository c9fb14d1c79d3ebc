//! Declarative optimistic concurrency control at the ORM layer — the
//! paper's first §7 cure.
//!
//! The studied applications hand-roll optimistic loops (read, compute,
//! `WHERE lock_version = ?`, retry) and get them subtly wrong: stale
//! validation scopes, forgotten retries, critical sections spanning HTTP
//! requests with nothing revalidated on resume. This module packages the
//! whole pattern once, correctly:
//!
//! * **Field-granular read footprints.** [`OccTxn::read_fields`] records
//!   only the columns a request actually depends on; commit-time
//!   validation compares exactly those values under `FOR UPDATE`.
//!   Concurrent writes to *other* columns of the same row do not
//!   conflict — strictly fewer aborts than `lock_version`, which
//!   invalidates on any write.
//! * **Validate-on-save.** [`OccTxn::stage_save`] buffers an [`Obj`]'s
//!   dirty columns; at commit they are applied through the ORM's own
//!   [`save`](crate::OrmTxn::save), so `validates` rules, timestamps, and
//!   touch cascades all still run — inside the same atomic commit as the
//!   validation.
//! * **Automatic retry.** [`run_occ`] re-executes the request body under
//!   the unified [`RetryPolicy`] whenever validation fails, reporting
//!   every decision to the [`RetryObserver`] the caller passes, if any.
//! * **Continuations.** An [`OccTxn`] is plain data — no open database
//!   transaction, no held locks — so [`ContinuationStore`] can park it
//!   between simulated HTTP requests (the §3.1.2 multi-request edit
//!   flow) and the restored transaction still validates its entire read
//!   set at final commit.
//! * **Footprints.** [`OccTxn::footprint`] projects the read/write sets
//!   onto the engine's commit shards (the PR-3 [`Footprint`] plumbing),
//!   so upper layers can reason about which optimistic requests can
//!   possibly contend.

use crate::entity::Obj;
use crate::error::OrmError;
use crate::orm::Orm;
use crate::Result;
use adhoc_sim::{RetryObserver, RetryPolicy};
use adhoc_storage::{Footprint, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded read: the fields of `(entity, id)` this transaction's
/// outcome depends on, at the values observed. `found: false` records a
/// dependency on the row's *absence*.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReadRecord {
    entity: String,
    id: i64,
    fields: Vec<(String, Value)>,
    found: bool,
}

/// A buffered raw field update, applied via `UPDATE` at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WriteRecord {
    entity: String,
    id: i64,
    pairs: Vec<(String, Value)>,
}

/// A buffered ORM-semantic save: dirty columns of a loaded [`Obj`],
/// re-applied through `save()` at commit (validations + cascades run).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SaveRecord {
    entity: String,
    id: i64,
    pairs: Vec<(String, Value)>,
}

/// A buffered insert, applied via the ORM's `create` at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InsertRecord {
    entity: String,
    pairs: Vec<(String, Value)>,
}

/// A buffered commutative increment ([`OccTxn::add_delta`]): applied at
/// commit via the engine's merge-on-install delta path, with **no**
/// validation — a confluent write cannot conflict, so it contributes
/// nothing for the OCC read set to defend.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeltaRecord {
    entity: String,
    id: i64,
    column: String,
    delta: i64,
}

/// A detached optimistic transaction: reads execute immediately (each in
/// its own autocommit snapshot), writes are buffered, and
/// [`commit`](Self::commit) re-validates every recorded field under
/// `FOR UPDATE` before applying the writes — all inside one database
/// transaction. Holds no locks and no open transaction between calls, so
/// it can span simulated HTTP requests via [`ContinuationStore`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OccTxn {
    reads: Vec<ReadRecord>,
    writes: Vec<WriteRecord>,
    saves: Vec<SaveRecord>,
    inserts: Vec<InsertRecord>,
    deltas: Vec<DeltaRecord>,
}

impl OccTxn {
    /// An empty optimistic transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a row, recording **every** column in the read set. Absent
    /// rows are recorded too: commit fails if the row appears.
    pub fn read(&mut self, orm: &Orm, entity: &str, id: i64) -> Result<Option<Obj>> {
        self.read_inner(orm, entity, id, None)
    }

    /// Read a row, recording **only** `columns` in the read set — the
    /// field-granular footprint. Commit validates just those values, so
    /// concurrent writers of other columns never conflict with this
    /// transaction. The returned [`Obj`] is complete; only the listed
    /// columns are revalidated.
    pub fn read_fields(
        &mut self,
        orm: &Orm,
        entity: &str,
        id: i64,
        columns: &[&str],
    ) -> Result<Option<Obj>> {
        self.read_inner(orm, entity, id, Some(columns))
    }

    fn read_inner(
        &mut self,
        orm: &Orm,
        entity: &str,
        id: i64,
        columns: Option<&[&str]>,
    ) -> Result<Option<Obj>> {
        orm.registry().get(entity)?;
        // The OCC read phase needs no transaction: commit re-validates
        // every recorded field under `FOR UPDATE`, so a plain
        // latest-committed read is already serializable end to end —
        // and costs half as many transactions per optimistic attempt.
        // The yield keeps the read a preemption point for the
        // interleaving explorer, like the statement it replaces.
        adhoc_sim::sched::yield_point(adhoc_sim::sched::SchedPoint::DbStatement);
        let obj = orm
            .db()
            .latest_committed(entity, id)?
            .map(|row| -> Result<Obj> {
                Ok(Obj::from_row(entity, orm.db().schema(entity)?, id, row))
            })
            .transpose()?;
        let record = match &obj {
            Some(obj) => {
                let fields = match columns {
                    Some(cols) => cols
                        .iter()
                        .map(|c| Ok((c.to_string(), obj.get(c)?.clone())))
                        .collect::<Result<Vec<_>>>()?,
                    None => obj
                        .schema()
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (c.name.clone(), obj.row().at(i).clone()))
                        .collect(),
                };
                ReadRecord {
                    entity: entity.to_string(),
                    id,
                    fields,
                    found: true,
                }
            }
            None => ReadRecord {
                entity: entity.to_string(),
                id,
                fields: Vec::new(),
                found: false,
            },
        };
        self.reads.push(record);
        Ok(obj)
    }

    /// Buffer a raw field update (`UPDATE entity SET pairs WHERE id`),
    /// applied at commit after validation. No validations or cascades —
    /// the footprint is exactly the named fields.
    pub fn stage_update(&mut self, entity: &str, id: i64, pairs: &[(&str, Value)]) {
        self.writes.push(WriteRecord {
            entity: entity.to_string(),
            id,
            pairs: pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Validate-on-save: buffer `obj`'s dirty columns. At commit the row
    /// is re-loaded inside the commit transaction and written through the
    /// ORM's `save()`, so `validates` rules, `updated_at`, and touch
    /// cascades all run atomically with the validation.
    pub fn stage_save(&mut self, obj: &Obj) -> Result<()> {
        let pairs = obj
            .dirty_columns()
            .map(|c| Ok((c.to_string(), obj.get(c)?.clone())))
            .collect::<Result<Vec<_>>>()?;
        self.saves.push(SaveRecord {
            entity: obj.entity.clone(),
            id: obj.id,
            pairs,
        });
        Ok(())
    }

    /// Buffer an insert, applied through the ORM's `create` at commit
    /// (validations and timestamps run there).
    pub fn stage_insert(&mut self, entity: &str, pairs: &[(&str, Value)]) {
        self.inserts.push(InsertRecord {
            entity: entity.to_string(),
            pairs: pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Buffer a commutative increment of an integer column, applied at
    /// commit through the engine's merge-on-install delta path
    /// ([`Transaction::add_delta`](adhoc_storage::Transaction::add_delta)).
    /// No read is recorded and no validation runs for it: increments
    /// commute, so a concurrent bump of the same counter neither aborts
    /// this transaction nor is lost by it. Use for invariant-confluent
    /// state (counters, tallies) — never for values whose invariant
    /// constrains them (use escrow via
    /// [`Coordinator::reserve`](crate::Coordinator::reserve) instead).
    pub fn add_delta(&mut self, entity: &str, id: i64, column: &str, delta: i64) {
        self.deltas.push(DeltaRecord {
            entity: entity.to_string(),
            id,
            column: column.to_string(),
            delta,
        });
    }

    /// Number of recorded reads.
    pub fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of buffered writes (updates + saves + inserts + deltas).
    pub fn write_set_len(&self) -> usize {
        self.writes.len() + self.saves.len() + self.inserts.len() + self.deltas.len()
    }

    /// True when nothing has been read or staged.
    pub fn is_empty(&self) -> bool {
        self.read_set_len() == 0 && self.write_set_len() == 0
    }

    /// Project the read/write sets onto the engine's commit shards — the
    /// PR-3 [`Footprint`] plumbing, computed *before* commit so callers
    /// can reason about possible contention. Inserts contribute their
    /// shard only when they carry an explicit `id`.
    pub fn footprint(&self, orm: &Orm) -> Result<Footprint> {
        let db = orm.db();
        let mut fp = Footprint::default();
        for r in &self.reads {
            fp.reads
                .insert(db.shard_of_row(db.table_id(&r.entity)?, r.id));
        }
        for w in &self.writes {
            fp.writes
                .insert(db.shard_of_row(db.table_id(&w.entity)?, w.id));
        }
        for s in &self.saves {
            fp.writes
                .insert(db.shard_of_row(db.table_id(&s.entity)?, s.id));
        }
        for i in &self.inserts {
            if let Some((_, Value::Int(id))) = i.pairs.iter().find(|(n, _)| n == "id") {
                fp.writes
                    .insert(db.shard_of_row(db.table_id(&i.entity)?, *id));
            }
        }
        for d in &self.deltas {
            fp.writes
                .insert(db.shard_of_row(db.table_id(&d.entity)?, d.id));
        }
        Ok(fp)
    }

    /// Validate and apply, atomically: one database transaction re-reads
    /// every recorded row under `FOR UPDATE`, compares exactly the
    /// recorded fields, and — only if all still hold — applies the
    /// buffered writes. A moved field aborts the transaction and returns
    /// [`OrmError::OccConflict`]; nothing is ever partially applied.
    pub fn commit(self, orm: &Orm) -> Result<()> {
        orm.transaction(|t| {
            for r in &self.reads {
                let current = t.raw().get_for_update(&r.entity, r.id)?;
                match current {
                    Some(row) if r.found => {
                        let schema = orm.db().schema(&r.entity)?;
                        for (col, expected) in &r.fields {
                            if row.get(&schema, col)? != expected {
                                return Err(OrmError::OccConflict {
                                    entity: r.entity.clone(),
                                    id: r.id,
                                    column: col.clone(),
                                });
                            }
                        }
                    }
                    None if !r.found => {}
                    _ => {
                        return Err(OrmError::OccConflict {
                            entity: r.entity.clone(),
                            id: r.id,
                            column: "<row>".to_string(),
                        })
                    }
                }
            }
            for w in &self.writes {
                let pairs: Vec<(&str, Value)> = w
                    .pairs
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.clone()))
                    .collect();
                t.raw().update(&w.entity, w.id, &pairs)?;
            }
            for s in &self.saves {
                let mut obj = t.find_required(&s.entity, s.id)?;
                for (col, value) in &s.pairs {
                    obj.set(col, value.clone())?;
                }
                t.save(&mut obj)?;
            }
            for i in &self.inserts {
                let pairs: Vec<(&str, Value)> = i
                    .pairs
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.clone()))
                    .collect();
                t.create(&i.entity, &pairs)?;
            }
            for d in &self.deltas {
                t.raw().add_delta(&d.entity, d.id, &d.column, d.delta)?;
            }
            Ok(())
        })
    }
}

/// Run `body` as an optimistic transaction with automatic retry: each
/// attempt gets a fresh [`OccTxn`], the body re-reads and re-stages, and
/// [`OccTxn::commit`] validates. Conflicts ([`OrmError::OccConflict`],
/// [`OrmError::StaleObject`]) and driver-retryable database errors retry
/// under `policy`; budget exhaustion surfaces as
/// [`OrmError::RetriesExhausted`].
pub fn run_occ<T>(
    orm: &Orm,
    policy: &RetryPolicy,
    observer: Option<&dyn RetryObserver>,
    mut body: impl FnMut(&mut OccTxn) -> Result<T>,
) -> Result<T> {
    let outcome = policy.run(
        "orm-occ",
        observer,
        |e: &OrmError| {
            matches!(
                e,
                OrmError::OccConflict { .. } | OrmError::StaleObject { .. }
            ) || e.is_retryable()
        },
        |_attempt| {
            let mut occ = OccTxn::new();
            let value = body(&mut occ)?;
            occ.commit(orm)?;
            Ok(value)
        },
    );
    match outcome {
        Ok(v) => Ok(v),
        Err(give_up) if give_up.retryable => Err(OrmError::RetriesExhausted {
            attempts: give_up.attempts as usize,
        }),
        Err(give_up) => Err(give_up.error),
    }
}

/// Parks [`OccTxn`]s between simulated HTTP requests — the §3.1.2
/// multi-request flow (begin-edit page load → user thinks → submit)
/// done safely: the parked transaction holds no locks, and the restored
/// transaction revalidates its entire read set at final commit, so
/// anything that changed while parked surfaces as a conflict instead of
/// a lost update.
#[derive(Debug, Default)]
pub struct ContinuationStore {
    slots: Mutex<HashMap<u64, OccTxn>>,
    counter: AtomicU64,
}

impl ContinuationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park a transaction; the returned id goes into the next request
    /// (in the real flows: a hidden form field or draft row).
    pub fn save(&self, txn: OccTxn) -> u64 {
        let id = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.slots.lock().insert(id, txn);
        id
    }

    /// Take a parked transaction back out. Each id restores exactly
    /// once; unknown ids are [`OrmError::NoSuchContinuation`].
    pub fn restore(&self, id: u64) -> Result<OccTxn> {
        self.slots
            .lock()
            .remove(&id)
            .ok_or(OrmError::NoSuchContinuation { id })
    }

    /// Number of currently parked transactions.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityDef, Registry, Validation};
    use adhoc_storage::{Column, ColumnType, Database, EngineProfile, Schema};
    use std::time::Duration;

    fn fixture() -> Orm {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "skus",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("quantity", ColumnType::Int),
                    Column::new("sold", ColumnType::Int),
                    Column::new("note", ColumnType::Str),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let orm = Orm::new(
            db,
            Registry::new().register(EntityDef::new("skus").validate(Validation::NonNegative {
                column: "quantity".into(),
            })),
        );
        orm.create(
            "skus",
            &[
                ("id", 1.into()),
                ("quantity", 10.into()),
                ("sold", 0.into()),
                ("note", "fresh".into()),
            ],
        )
        .unwrap();
        orm
    }

    fn policy() -> RetryPolicy {
        RetryPolicy::exponential(1000, Duration::from_micros(20), Duration::from_micros(500))
    }

    #[test]
    fn commit_applies_buffered_writes_atomically() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        let sku = occ.read(&orm, "skus", 1).unwrap().unwrap();
        let qty = sku.get_int("quantity").unwrap();
        occ.stage_update("skus", 1, &[("quantity", (qty - 1).into())]);
        occ.stage_insert(
            "skus",
            &[
                ("id", 2.into()),
                ("quantity", 5.into()),
                ("sold", 0.into()),
                ("note", "new".into()),
            ],
        );
        occ.commit(&orm).unwrap();
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            9
        );
        assert_eq!(
            orm.find_required("skus", 2)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            5
        );
    }

    #[test]
    fn whole_row_read_conflicts_on_any_field() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.read(&orm, "skus", 1).unwrap();
        occ.stage_update("skus", 1, &[("sold", 1.into())]);
        // Concurrent writer touches an unrelated column.
        orm.transaction(|t| {
            t.raw()
                .update("skus", 1, &[("note", "relabelled".into())])?;
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::OccConflict { column, .. }) if column == "note"
        ));
    }

    #[test]
    fn field_granular_read_ignores_unrelated_writes() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.read_fields(&orm, "skus", 1, &["quantity"]).unwrap();
        occ.stage_update("skus", 1, &[("quantity", 9.into())]);
        // Same concurrent writer — but "note" is outside the footprint.
        orm.transaction(|t| {
            t.raw()
                .update("skus", 1, &[("note", "relabelled".into())])?;
            Ok(())
        })
        .unwrap();
        occ.commit(&orm).unwrap();
        let sku = orm.find_required("skus", 1).unwrap();
        assert_eq!(sku.get_int("quantity").unwrap(), 9);
        assert_eq!(sku.get_str("note").unwrap(), "relabelled");
    }

    #[test]
    fn field_granular_read_conflicts_on_observed_field() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.read_fields(&orm, "skus", 1, &["quantity"]).unwrap();
        occ.stage_update("skus", 1, &[("quantity", 9.into())]);
        orm.transaction(|t| {
            t.raw().update("skus", 1, &[("quantity", 3.into())])?;
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::OccConflict { column, .. }) if column == "quantity"
        ));
        // Nothing was applied.
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            3
        );
    }

    #[test]
    fn absence_reads_are_validated() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        assert!(occ.read(&orm, "skus", 77).unwrap().is_none());
        occ.stage_insert(
            "skus",
            &[
                ("id", 77.into()),
                ("quantity", 1.into()),
                ("sold", 0.into()),
                ("note", "x".into()),
            ],
        );
        // Someone else inserts id 77 first.
        orm.create(
            "skus",
            &[
                ("id", 77.into()),
                ("quantity", 9.into()),
                ("sold", 0.into()),
                ("note", "y".into()),
            ],
        )
        .unwrap();
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::OccConflict { column, .. }) if column == "<row>"
        ));
    }

    #[test]
    fn deleted_read_row_conflicts() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.read(&orm, "skus", 1).unwrap().unwrap();
        orm.delete("skus", 1).unwrap();
        occ.stage_update("skus", 1, &[("note", "mine".into())]);
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::OccConflict { column, .. }) if column == "<row>"
        ));
    }

    #[test]
    fn empty_transaction_commits_trivially() {
        let occ = OccTxn::new();
        assert!(occ.is_empty());
        occ.commit(&fixture()).unwrap();
    }

    #[test]
    fn stage_save_runs_validations_in_the_commit_txn() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        let mut sku = occ
            .read_fields(&orm, "skus", 1, &["quantity"])
            .unwrap()
            .unwrap();
        sku.set("quantity", -5).unwrap();
        occ.stage_save(&sku).unwrap();
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::ValidationFailed {
                rule: "non_negative",
                ..
            })
        ));
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("quantity")
                .unwrap(),
            10
        );
    }

    #[test]
    fn run_occ_retries_conflicts_to_success() {
        let orm = fixture();
        // 6 threads × 20 increments through run_occ: all 120 must land.
        std::thread::scope(|s| {
            for _ in 0..6 {
                let orm = orm.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        run_occ(&orm, &policy(), None, |occ| {
                            let sku = occ
                                .read_fields(&orm, "skus", 1, &["sold"])?
                                .expect("seeded");
                            let sold = sku.get_int("sold")?;
                            occ.stage_update("skus", 1, &[("sold", (sold + 1).into())]);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("sold")
                .unwrap(),
            120
        );
    }

    #[test]
    fn delta_commit_merges_with_concurrent_writers() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.add_delta("skus", 1, "sold", 1);
        assert_eq!(occ.write_set_len(), 1);
        // A concurrent writer bumps the same column between stage and
        // commit — with a validated read this would conflict; the delta
        // simply merges on top of it.
        orm.transaction(|t| {
            t.raw().update("skus", 1, &[("sold", 5.into())])?;
            Ok(())
        })
        .unwrap();
        occ.commit(&orm).unwrap();
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("sold")
                .unwrap(),
            6
        );
    }

    #[test]
    fn concurrent_delta_bumps_all_land_without_retries() {
        let orm = fixture();
        // The same 6×20 increment workload as run_occ_retries_…, but via
        // deltas: a no-retry policy proves no attempt ever conflicts.
        let no_retry =
            RetryPolicy::exponential(0, Duration::from_micros(1), Duration::from_micros(1));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let orm = orm.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        run_occ(&orm, &no_retry, None, |occ| {
                            occ.add_delta("skus", 1, "sold", 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_int("sold")
                .unwrap(),
            120
        );
    }

    #[test]
    fn run_occ_gives_up_eventually() {
        let orm = fixture();
        let tight = RetryPolicy::exponential(3, Duration::from_micros(1), Duration::from_micros(2));
        let err = run_occ(&orm, &tight, None, |occ| {
            occ.read_fields(&orm, "skus", 1, &["sold"])?;
            // Sabotage: always invalidate our own read before commit.
            orm.transaction(|t| {
                let cur = t.find_required("skus", 1)?.get_int("sold")?;
                t.raw().update("skus", 1, &[("sold", (cur + 1).into())])?;
                Ok(())
            })?;
            occ.stage_update("skus", 1, &[("sold", 0.into())]);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, OrmError::RetriesExhausted { attempts: 3 }));
    }

    #[test]
    fn run_occ_does_not_retry_validation_failures() {
        let orm = fixture();
        let mut calls = 0;
        let err = run_occ(&orm, &policy(), None, |occ| {
            calls += 1;
            let mut sku = occ.read(&orm, "skus", 1)?.expect("seeded");
            sku.set("quantity", -1)?;
            occ.stage_save(&sku)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, OrmError::ValidationFailed { .. }));
        assert_eq!(calls, 1, "a non-retryable error must not be re-attempted");
    }

    #[test]
    fn footprint_projects_reads_and_writes() {
        let orm = fixture();
        let mut occ = OccTxn::new();
        occ.read_fields(&orm, "skus", 1, &["quantity"]).unwrap();
        occ.stage_update("skus", 1, &[("quantity", 9.into())]);
        occ.stage_insert(
            "skus",
            &[
                ("id", 50.into()),
                ("quantity", 1.into()),
                ("sold", 0.into()),
                ("note", "n".into()),
            ],
        );
        let fp = occ.footprint(&orm).unwrap();
        let db = orm.db();
        let t = db.table_id("skus").unwrap();
        assert!(fp.reads.contains(db.shard_of_row(t, 1)));
        assert!(fp.writes.contains(db.shard_of_row(t, 1)));
        assert!(fp.writes.contains(db.shard_of_row(t, 50)));
        // Disjoint rows (usually) mean disjoint footprints — the property
        // the sharded engine exploits. Just assert both are localized.
        assert!(fp.writes.len() <= 2);
    }

    #[test]
    fn continuation_spans_requests_and_validates_on_resume() {
        let orm = fixture();
        let store = ContinuationStore::new();
        // Request 1: load the edit page (read recorded), park.
        let mut occ = OccTxn::new();
        let sku = occ
            .read_fields(&orm, "skus", 1, &["note"])
            .unwrap()
            .unwrap();
        assert_eq!(sku.get_str("note").unwrap(), "fresh");
        let id = store.save(occ);
        assert_eq!(store.len(), 1);
        // Between requests: a concurrent writer edits the same field.
        orm.transaction(|t| {
            t.raw()
                .update("skus", 1, &[("note", "concurrent".into())])?;
            Ok(())
        })
        .unwrap();
        // Request 2: restore, stage our edit, commit — must conflict.
        let mut occ = store.restore(id).unwrap();
        assert!(store.is_empty());
        occ.stage_update("skus", 1, &[("note", "mine".into())]);
        assert!(matches!(
            occ.commit(&orm),
            Err(OrmError::OccConflict { .. })
        ));
        // The concurrent edit survived; ours was refused, not lost-updated.
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_str("note")
                .unwrap(),
            "concurrent"
        );
        // The retry (fresh read, new continuation round trip) succeeds.
        let mut occ = OccTxn::new();
        occ.read_fields(&orm, "skus", 1, &["note"]).unwrap();
        let id = store.save(occ);
        let mut occ = store.restore(id).unwrap();
        occ.stage_update("skus", 1, &[("note", "mine".into())]);
        occ.commit(&orm).unwrap();
        assert_eq!(
            orm.find_required("skus", 1)
                .unwrap()
                .get_str("note")
                .unwrap(),
            "mine"
        );
    }

    #[test]
    fn restore_is_once_and_unknown_ids_error() {
        let store = ContinuationStore::new();
        let id = store.save(OccTxn::new());
        assert!(store.restore(id).is_ok());
        assert!(matches!(
            store.restore(id),
            Err(OrmError::NoSuchContinuation { .. })
        ));
        assert!(matches!(
            store.restore(999),
            Err(OrmError::NoSuchContinuation { id: 999 })
        ));
    }
}
