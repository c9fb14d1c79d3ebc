//! JumpServer (Python/Django + Redis): privilege grants and asset updates.
//!
//! JumpServer is the one studied application with **zero** buggy ad hoc
//! transactions (Table 4): all five cases use a single Redis lock
//! correctly. This module is the positive control — the same shapes as
//! elsewhere (RMW grants, asset state machines) coordinated soundly.

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_core::locks::{AdHocLock, KvSetNxLock};
use adhoc_orm::{Coordinator, EntityDef, Orm, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::Arc;

/// Create JumpServer's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(
        Schema::new(
            "grants",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("user_id", ColumnType::Int),
                Column::new("asset_id", ColumnType::Int),
                Column::new("level", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("user_id")?,
    )?;
    db.create_table(Schema::new(
        "assets",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("status", ColumnType::Str),
            Column::new("connections", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "credentials",
        vec![
            Column::new("id", ColumnType::Int), // = asset id
            Column::new("secret", ColumnType::Str),
            Column::new("version", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "rotations",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("asset_id", ColumnType::Int),
                Column::new("version", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("asset_id")?,
    )?;
    db.create_table(Schema::new(
        "nodes",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("parent", ColumnType::Int), // 0 = root
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("grants"))
        .register(EntityDef::new("assets"))
        .register(EntityDef::new("credentials"))
        .register(EntityDef::new("rotations"))
        .register(EntityDef::new("nodes"));
    Ok(Orm::new(db.clone(), registry))
}

/// The JumpServer application model.
pub struct JumpServer {
    orm: Orm,
    lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
}

impl JumpServer {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            lock,
            coord,
            mode,
        }
    }

    /// The studied stack (Table 2): a fresh PostgreSQL-like engine and the
    /// `SETNX` lock over `kv`.
    pub fn studied(kv: adhoc_kv::Client, mode: Mode) -> Self {
        Self::new(
            crate::fresh(EngineProfile::PostgresLike, setup),
            Arc::new(KvSetNxLock::new(kv)),
            mode,
        )
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed an online asset with no connections.
    pub fn seed_asset(&self, asset_id: i64) -> Result<()> {
        self.orm.create(
            "assets",
            &[
                ("id", asset_id.into()),
                ("status", "online".into()),
                ("connections", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Grant (or upgrade) a user's privilege on an asset — idempotent per
    /// (user, asset): concurrent grants must not duplicate rows.
    pub fn grant(&self, user_id: i64, asset_id: i64, level: i64) -> Result<()> {
        let schema = self.orm.db().schema("grants")?;
        let body = |t: &mut adhoc_storage::Transaction| -> std::result::Result<(), DbError> {
            let existing = t.scan("grants", &Predicate::eq("user_id", user_id))?;
            let found = existing.iter().find(|(_, row)| {
                row.get_int(&schema, "asset_id").map(|a| a == asset_id) == Ok(true)
            });
            match found {
                Some((grant_id, row)) => {
                    let current = row.get_int(&schema, "level")?;
                    if level > current {
                        t.update("grants", *grant_id, &[("level", level.into())])?;
                    }
                }
                None => {
                    t.insert(
                        "grants",
                        &[
                            ("user_id", user_id.into()),
                            ("asset_id", asset_id.into()),
                            ("level", level.into()),
                        ],
                    )?;
                }
            }
            Ok(())
        };
        match self.mode {
            Mode::AdHoc => {
                let guard = self.lock.lock(&format!("grant:{user_id}:{asset_id}"))?;
                self.orm.db().run(IsolationLevel::ReadCommitted, body)?;
                guard.unlock()?;
                Ok(())
            }
            Mode::DatabaseTxn => {
                self.orm
                    .db()
                    .run_with_retries(IsolationLevel::Serializable, DBT_RETRIES, body)?;
                Ok(())
            }
            Mode::Cured | Mode::Confluent => {
                // §7 cure: the grant's existence check is a predicate scan,
                // so the façade serializes per (user, asset) — the same
                // sound shape JumpServer hand-rolled, minus the hand-rolled
                // lock plumbing.
                let guard = self
                    .coord
                    .user_lock(&format!("grant:{user_id}:{asset_id}"))?;
                self.orm.db().run(IsolationLevel::ReadCommitted, body)?;
                guard.unlock()?;
                Ok(())
            }
        }
    }

    /// Asset connection accounting: a lock-guarded RMW pair.
    pub fn connect(&self, asset_id: i64) -> Result<bool> {
        let guard = self.lock.lock(&format!("asset:{asset_id}"))?;
        let asset = self.orm.find_required("assets", asset_id)?;
        let ok = asset.get_str("status")? == "online";
        if ok {
            let conns = asset.get_int("connections")?;
            self.orm.transaction(|t| {
                t.raw()
                    .update("assets", asset_id, &[("connections", (conns + 1).into())])?;
                Ok(())
            })?;
        }
        guard.unlock()?;
        Ok(ok)
    }

    /// Take an asset offline, refusing while connections are open.
    pub fn take_offline(&self, asset_id: i64) -> Result<bool> {
        let guard = self.lock.lock(&format!("asset:{asset_id}"))?;
        let asset = self.orm.find_required("assets", asset_id)?;
        let ok = asset.get_int("connections")? == 0;
        if ok {
            self.orm.transaction(|t| {
                t.raw()
                    .update("assets", asset_id, &[("status", "offline".into())])?;
                Ok(())
            })?;
        }
        guard.unlock()?;
        Ok(ok)
    }

    /// Release one connection from an asset.
    pub fn disconnect(&self, asset_id: i64) -> Result<()> {
        let guard = self.lock.lock(&format!("asset:{asset_id}"))?;
        let asset = self.orm.find_required("assets", asset_id)?;
        let conns = asset.get_int("connections")?;
        self.orm.transaction(|t| {
            t.raw().update(
                "assets",
                asset_id,
                &[("connections", (conns - 1).max(0).into())],
            )?;
            Ok(())
        })?;
        guard.unlock()?;
        Ok(())
    }

    /// Seed an asset credential at version 0.
    pub fn seed_credential(&self, asset_id: i64, secret: &str) -> Result<()> {
        self.orm.create(
            "credentials",
            &[
                ("id", asset_id.into()),
                ("secret", secret.into()),
                ("version", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Rotate an asset's credential: bump the secret and version and append
    /// an audit row, all under the per-asset Redis lock (the paper's
    /// correctly-coordinated `jumpserver/credential-rotate` case). The
    /// database write is one transaction, so a crash can never split it.
    pub fn rotate_credential(&self, asset_id: i64, new_secret: &str) -> Result<i64> {
        let guard = self.lock.lock(&format!("cred:{asset_id}"))?;
        let cred = self.orm.find_required("credentials", asset_id)?;
        let next = cred.get_int("version")? + 1;
        self.orm.transaction(|t| {
            t.raw().update(
                "credentials",
                asset_id,
                &[("secret", new_secret.into()), ("version", next.into())],
            )?;
            t.raw().insert(
                "rotations",
                &[("asset_id", asset_id.into()), ("version", next.into())],
            )?;
            Ok(())
        })?;
        guard.unlock()?;
        Ok(next)
    }

    /// The anti-pattern the correct case avoids: credential update and
    /// audit append in *separate* transactions. `crash_before_audit`
    /// simulates the process dying between them.
    pub fn rotate_credential_split(
        &self,
        asset_id: i64,
        new_secret: &str,
        crash_before_audit: bool,
    ) -> Result<i64> {
        let guard = self.lock.lock(&format!("cred:{asset_id}"))?;
        let cred = self.orm.find_required("credentials", asset_id)?;
        let next = cred.get_int("version")? + 1;
        self.orm.transaction(|t| {
            t.raw().update(
                "credentials",
                asset_id,
                &[("secret", new_secret.into()), ("version", next.into())],
            )?;
            Ok(())
        })?;
        if crash_before_audit {
            guard.leak(); // the crash takes the lock with it
            return Ok(next);
        }
        self.orm.transaction(|t| {
            t.raw().insert(
                "rotations",
                &[("asset_id", asset_id.into()), ("version", next.into())],
            )?;
            Ok(())
        })?;
        guard.unlock()?;
        Ok(next)
    }

    /// Invariant: every credential version has a matching audit row (the
    /// fsck-style rule a periodic checker would run, §3.4.2).
    pub fn rotations_audited(&self, asset_id: i64) -> Result<bool> {
        let version = self
            .orm
            .find_required("credentials", asset_id)?
            .get_int("version")?;
        if version == 0 {
            return Ok(true); // never rotated
        }
        let schema = self.orm.db().schema("rotations")?;
        let rows = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("rotations", &Predicate::eq("asset_id", asset_id))?)
        })?;
        for (_, row) in &rows {
            if row.get_int(&schema, "version")? == version {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Backfill the audit row a split rotation lost (the checker's repair).
    pub fn repair_rotation_audit(&self, asset_id: i64) -> Result<bool> {
        if self.rotations_audited(asset_id)? {
            return Ok(false);
        }
        let version = self
            .orm
            .find_required("credentials", asset_id)?
            .get_int("version")?;
        self.orm.transaction(|t| {
            t.raw().insert(
                "rotations",
                &[("asset_id", asset_id.into()), ("version", version.into())],
            )?;
            Ok(())
        })?;
        Ok(true)
    }

    /// Seed a node under `parent` (0 = root).
    pub fn seed_node(&self, node_id: i64, parent: i64) -> Result<()> {
        self.orm.create(
            "nodes",
            &[("id", node_id.into()), ("parent", parent.into())],
        )?;
        Ok(())
    }

    /// Move a node under a new parent, refusing moves that would create a
    /// cycle. The ancestor walk and the write are a check-then-act pair, so
    /// the whole tree is guarded by one coarse lock (the paper's
    /// `jumpserver/node-move` case — coarse granularity, Table 5).
    pub fn move_node(&self, node_id: i64, new_parent: i64) -> Result<bool> {
        let guard = self.lock.lock("node-tree")?;
        let ok = self.move_node_inner(node_id, new_parent)?;
        guard.unlock()?;
        Ok(ok)
    }

    /// The same move with no coordination: two concurrent moves can each
    /// pass the ancestor check and jointly create a cycle.
    pub fn move_node_unlocked(&self, node_id: i64, new_parent: i64) -> Result<bool> {
        self.move_node_inner(node_id, new_parent)
    }

    fn move_node_inner(&self, node_id: i64, new_parent: i64) -> Result<bool> {
        // Walk up from the proposed parent; if we reach `node_id` the move
        // would create a cycle.
        let mut cursor = new_parent;
        while cursor != 0 {
            if cursor == node_id {
                return Ok(false);
            }
            cursor = self.orm.find_required("nodes", cursor)?.get_int("parent")?;
        }
        std::thread::yield_now(); // widen the check-then-act window
        self.orm.transaction(|t| {
            t.raw()
                .update("nodes", node_id, &[("parent", new_parent.into())])?;
            Ok(())
        })?;
        Ok(true)
    }

    /// Invariant: the node forest is acyclic (every node reaches the root).
    pub fn tree_acyclic(&self) -> Result<bool> {
        let schema = self.orm.db().schema("nodes")?;
        let rows = self
            .orm
            .transaction(|t| Ok(t.raw().scan("nodes", &Predicate::All)?))?;
        let parents: std::collections::HashMap<i64, i64> = rows
            .iter()
            .map(|(id, row)| Ok((*id, row.get_int(&schema, "parent")?)))
            .collect::<Result<_>>()?;
        for start in parents.keys() {
            let mut cursor = *start;
            let mut steps = 0;
            while cursor != 0 {
                cursor = *parents.get(&cursor).unwrap_or(&0);
                steps += 1;
                if steps > parents.len() {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Invariant: exactly one grant row per (user, asset).
    pub fn grants_unique(&self, user_id: i64) -> Result<bool> {
        let schema = self.orm.db().schema("grants")?;
        let rows = self
            .orm
            .transaction(|t| Ok(t.raw().scan("grants", &Predicate::eq("user_id", user_id))?))?;
        let mut assets: Vec<i64> = Vec::with_capacity(rows.len());
        for (_, row) in &rows {
            assets.push(row.get_int(&schema, "asset_id")?);
        }
        let before = assets.len();
        assets.sort_unstable();
        assets.dedup();
        Ok(assets.len() == before)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// JumpServer's boot-time recovery pass: a crash between the two halves
/// of a *split* credential rotation commits the new secret without its
/// audit row; boot backfills the missing rotation record (the generic
/// form of [`JumpServer::repair_rotation_audit`]).
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(missing_rotation_audit_rule())
}

/// Flag every credential whose current version has no matching audit row,
/// and insert the missing row on fix.
fn missing_rotation_audit_rule() -> CheckRule {
    let name = "jumpserver:rotation-audited";
    let current_version = |db: &Database, asset_id: i64| -> Option<i64> {
        let schema = db.schema("credentials").ok()?;
        db.latest_committed("credentials", asset_id)
            .ok()?
            .and_then(|row| row.get_int(&schema, "version").ok())
    };
    let audited = move |db: &Database, asset_id: i64, version: i64| -> bool {
        let (Ok(rows), Ok(schema)) = (db.dump_table("rotations"), db.schema("rotations")) else {
            return true; // cannot read: do not invent findings
        };
        rows.iter().any(|(_, row)| {
            row.get_int(&schema, "asset_id").ok() == Some(asset_id)
                && row.get_int(&schema, "version").ok() == Some(version)
        })
    };
    CheckRule::new(name, move |db| {
        let Ok(creds) = db.dump_table("credentials") else {
            return Vec::new();
        };
        creds
            .iter()
            .filter_map(|(asset_id, _)| {
                let version = current_version(db, *asset_id)?;
                (version > 0 && !audited(db, *asset_id, version)).then(|| Violation {
                    rule: name.to_string(),
                    table: "credentials".to_string(),
                    row_id: *asset_id,
                    message: format!("rotation to version {version} has no audit row"),
                })
            })
            .collect()
    })
    .with_fix(move |db, v| {
        let Some(version) = current_version(db, v.row_id) else {
            return false;
        };
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert(
                "rotations",
                &[("asset_id", v.row_id.into()), ("version", version.into())],
            )
            .map(|_| ())
        })
        .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_kv::{Client, Store};
    use adhoc_sim::{LatencyModel, RealClock};

    fn fixture(mode: Mode) -> JumpServer {
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        JumpServer::studied(kv, mode)
    }

    #[test]
    fn offline_asset_refuses_connections() {
        let app = fixture(Mode::AdHoc);
        app.seed_asset(1).unwrap();
        assert!(app.connect(1).unwrap());
        // Busy asset cannot go offline.
        assert!(!app.take_offline(1).unwrap());
        app.disconnect(1).unwrap();
        assert!(app.take_offline(1).unwrap());
        assert!(!app.connect(1).unwrap());
    }

    #[test]
    fn rotation_is_atomic_and_audited() {
        let app = Arc::new(fixture(Mode::AdHoc));
        app.seed_credential(1, "s0").unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for r in 0..3 {
                        app.rotate_credential(1, &format!("s{t}-{r}")).unwrap();
                    }
                });
            }
        });
        let cred = app.orm().find_required("credentials", 1).unwrap();
        assert_eq!(
            cred.get_int("version").unwrap(),
            12,
            "every rotation counted"
        );
        assert!(app.rotations_audited(1).unwrap());
        // Audit rows are dense: one per version, no duplicates.
        let schema = app.orm().db().schema("rotations").unwrap();
        let mut versions: Vec<i64> = app
            .orm()
            .transaction(|t| Ok(t.raw().scan("rotations", &Predicate::eq("asset_id", 1))?))
            .unwrap()
            .iter()
            .map(|(_, row)| row.get_int(&schema, "version").unwrap())
            .collect();
        versions.sort_unstable();
        assert_eq!(versions, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn split_rotation_crash_loses_audit_and_checker_repairs() {
        let app = fixture(Mode::AdHoc);
        app.seed_credential(1, "s0").unwrap();
        app.rotate_credential_split(1, "s1", true).unwrap(); // crash
        assert!(!app.rotations_audited(1).unwrap(), "audit row lost");
        assert!(app.repair_rotation_audit(1).unwrap());
        assert!(app.rotations_audited(1).unwrap());
        assert!(
            !app.repair_rotation_audit(1).unwrap(),
            "repair is idempotent"
        );
    }

    #[test]
    fn node_moves_reject_cycles() {
        let app = fixture(Mode::AdHoc);
        // 1 <- 2 <- 3
        app.seed_node(1, 0).unwrap();
        app.seed_node(2, 1).unwrap();
        app.seed_node(3, 2).unwrap();
        assert!(!app.move_node(1, 3).unwrap(), "1 under 3 cycles");
        assert!(!app.move_node(1, 1).unwrap(), "self-parent cycles");
        assert!(app.move_node(3, 1).unwrap(), "legal reparent");
        assert!(app.tree_acyclic().unwrap());
    }

    #[test]
    fn concurrent_moves_stay_acyclic_under_the_tree_lock() {
        let app = Arc::new(fixture(Mode::AdHoc));
        for n in 1..=6 {
            app.seed_node(n, if n == 1 { 0 } else { n - 1 }).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for r in 0..8 {
                        let node = 1 + (t * 3 + r) % 6;
                        let parent = 1 + (t + r * 5) % 6;
                        if node != parent {
                            let _ = app.move_node(node, parent).unwrap();
                        }
                    }
                });
            }
        });
        assert!(app.tree_acyclic().unwrap());
    }

    #[test]
    fn uncoordinated_moves_can_create_a_cycle() {
        // Two moves that individually pass the ancestor check but jointly
        // cycle: 2 under 3 while 3 goes under 2.
        let mut cycled = false;
        for _ in 0..200 {
            let app = Arc::new(fixture(Mode::AdHoc));
            app.seed_node(1, 0).unwrap();
            app.seed_node(2, 1).unwrap();
            app.seed_node(3, 1).unwrap();
            std::thread::scope(|s| {
                let a = Arc::clone(&app);
                s.spawn(move || {
                    let _ = a.move_node_unlocked(2, 3).unwrap();
                });
                let b = Arc::clone(&app);
                s.spawn(move || {
                    let _ = b.move_node_unlocked(3, 2).unwrap();
                });
            });
            if !app.tree_acyclic().unwrap() {
                cycled = true;
                break;
            }
        }
        assert!(cycled, "the unlocked check-then-act must be able to cycle");
    }

    #[test]
    fn connect_offline_race_is_coordinated() {
        // The asset lock makes connect/take_offline atomic with respect to
        // each other: never a connection on an offline asset.
        let app = Arc::new(fixture(Mode::AdHoc));
        app.seed_asset(1).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..10 {
                        if app.connect(1).unwrap() {
                            app.disconnect(1).unwrap();
                        }
                    }
                });
            }
            let app2 = Arc::clone(&app);
            s.spawn(move || {
                for _ in 0..10 {
                    let _ = app2.take_offline(1).unwrap();
                    std::thread::yield_now();
                }
            });
        });
        let asset = app.orm().find_required("assets", 1).unwrap();
        if asset.get_str("status").unwrap() == "offline" {
            assert_eq!(asset.get_int("connections").unwrap(), 0);
        }
    }
    #[test]
    fn asset_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc);
        let fps: Vec<_> = (1..=6)
            .map(|id| {
                app.seed_asset(id).unwrap();
                crate::observed_footprint(app.orm(), |t| {
                    t.raw().update("assets", id, &[("connections", 0.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
