//! Redmine (Ruby/Active Record): issue tracking and metadata management.
//!
//! Redmine's ad hoc transactions use `SELECT … FOR UPDATE` (§3.2.1) and
//! ORM-assisted optimistic locking; it is the studied application with
//! only one buggy case (Table 4). Scenarios:
//! * `assign_issue` — FOR-UPDATE-coordinated issue assignment (correct).
//! * `update_subject_unlocked` — the one uncoordinated metadata write
//!   (lost-update prone).
//! * `edit_wiki` — `lock_version` optimistic locking on wiki pages
//!   (ORM-assisted validation, §3.2.2).

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
};

/// Create Redmine's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(
        Schema::new(
            "issues",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("subject", ColumnType::Str),
                Column::new("assignee", ColumnType::Int),
                Column::new("done_ratio", ColumnType::Int),
                Column::new("version_id", ColumnType::Int), // 0 = none
                Column::new("open", ColumnType::Int),       // 1 = open
                Column::new("attachments_count", ColumnType::Int),
            ],
            "id",
        )?
        .with_index("version_id")?,
    )?;
    db.create_table(
        Schema::new(
            "attachments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("issue_id", ColumnType::Int),
                Column::new("filename", ColumnType::Str),
            ],
            "id",
        )?
        .with_index("issue_id")?,
    )?;
    db.create_table(Schema::new(
        "versions",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Str),
            Column::new("open", ColumnType::Int), // 1 = open
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "wiki_pages",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("text", ColumnType::Str),
            Column::new("lock_version", ColumnType::Int),
        ],
        "id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("issues"))
        .register(EntityDef::new("attachments"))
        .register(EntityDef::new("versions"))
        .register(EntityDef::new("wiki_pages").with_lock_version());
    Ok(Orm::new(db.clone(), registry))
}

/// The Redmine application model.
pub struct Redmine {
    orm: Orm,
    coord: Coordinator,
    mode: Mode,
}

impl Redmine {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self { orm, coord, mode }
    }

    /// The studied stack (Table 2): a fresh PostgreSQL-like engine.
    pub fn studied(mode: Mode) -> Self {
        Self::new(crate::fresh(EngineProfile::PostgresLike, setup), mode)
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed an unassigned issue.
    pub fn seed_issue(&self, id: i64, subject: &str) -> Result<()> {
        self.orm.create(
            "issues",
            &[
                ("id", id.into()),
                ("subject", subject.into()),
                ("assignee", 0.into()),
                ("done_ratio", 0.into()),
                ("version_id", 0.into()),
                ("open", 1.into()),
                ("attachments_count", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Seed an open target version.
    pub fn seed_version(&self, id: i64, name: &str) -> Result<()> {
        self.orm.create(
            "versions",
            &[("id", id.into()), ("name", name.into()), ("open", 1.into())],
        )?;
        Ok(())
    }

    /// Seed a wiki page at version 0.
    pub fn seed_wiki(&self, id: i64, text: &str) -> Result<()> {
        self.orm.create(
            "wiki_pages",
            &[
                ("id", id.into()),
                ("text", text.into()),
                ("lock_version", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Assign an issue and bump its progress: a FOR-UPDATE-coordinated
    /// read–modify–write (the correct Redmine pattern).
    pub fn advance_issue(&self, issue_id: i64, assignee: i64, progress: i64) -> Result<()> {
        if self.mode.on_cured_layer() {
            // §7 cure: the FOR-UPDATE RMW becomes one optimistic
            // validate-and-commit, field-granular on the one column the
            // computation reads (`assignee` is a blind write).
            run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                let issue = occ
                    .read_fields(&self.orm, "issues", issue_id, &["done_ratio"])?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "issues".into(),
                        id: issue_id,
                    })?;
                let done = issue.get_int("done_ratio")?;
                occ.stage_update(
                    "issues",
                    issue_id,
                    &[
                        ("assignee", assignee.into()),
                        ("done_ratio", (done + progress).min(100).into()),
                    ],
                );
                Ok(())
            })?;
            return Ok(());
        }
        let iso = match self.mode {
            Mode::AdHoc => IsolationLevel::ReadCommitted, // SFU does the work
            Mode::DatabaseTxn => IsolationLevel::Serializable,
            Mode::Cured | Mode::Confluent => unreachable!("cured path returned above"),
        };
        let schema = self.orm.db().schema("issues")?;
        self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
            let issue = match self.mode {
                Mode::AdHoc => t.get_for_update("issues", issue_id)?,
                Mode::DatabaseTxn | Mode::Cured | Mode::Confluent => t.get("issues", issue_id)?,
            }
            .ok_or(DbError::NoSuchRow {
                table: "issues".into(),
                id: issue_id,
            })?;
            let done = issue.get_int(&schema, "done_ratio")?;
            t.update(
                "issues",
                issue_id,
                &[
                    ("assignee", assignee.into()),
                    ("done_ratio", (done + progress).min(100).into()),
                ],
            )?;
            Ok(())
        })?;
        Ok(())
    }

    /// The uncoordinated metadata write: plain read-then-write with no
    /// lock (Redmine's single buggy case class — lost updates possible).
    pub fn advance_issue_unlocked(&self, issue_id: i64, progress: i64) -> Result<()> {
        let issue = self.orm.find_required("issues", issue_id)?;
        let done = issue.get_int("done_ratio")?;
        std::thread::yield_now();
        self.orm.transaction(|t| {
            t.raw().update(
                "issues",
                issue_id,
                &[("done_ratio", (done + progress).min(100).into())],
            )?;
            Ok(())
        })?;
        Ok(())
    }

    /// Edit a wiki page with ORM-assisted optimistic locking. Returns
    /// `false` on a stale-object conflict (the UI asks the user to merge).
    pub fn edit_wiki(&self, page_id: i64, new_text: &str) -> Result<bool> {
        let mut page = self.orm.find_required("wiki_pages", page_id)?;
        page.set("text", new_text)?;
        match self.orm.save(&mut page) {
            Ok(()) => Ok(true),
            Err(OrmError::StaleObject { .. }) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Attach a file to an issue and bump its counter cache — the Rails
    /// `counter_cache` shape behind `redmine/attachment-add`, coordinated
    /// with `SELECT … FOR UPDATE` on the issue row (AdHoc) or a
    /// serializable transaction (DatabaseTxn).
    pub fn add_attachment(&self, issue_id: i64, filename: &str) -> Result<i64> {
        if self.mode.on_cured_layer() {
            // §7 cure: the façade's portable row-lock hint replaces the
            // hand-rolled SELECT … FOR UPDATE, and one transaction keeps
            // the attachment row and its counter cache atomic.
            let id = self.orm.transaction(|t| {
                self.coord.row_lock(t.raw(), "issues", issue_id)?;
                let count = t
                    .find_required("issues", issue_id)?
                    .get_int("attachments_count")?;
                let attachment = t.create(
                    "attachments",
                    &[("issue_id", issue_id.into()), ("filename", filename.into())],
                )?;
                t.raw().update(
                    "issues",
                    issue_id,
                    &[("attachments_count", (count + 1).into())],
                )?;
                Ok(attachment.id)
            })?;
            return Ok(id);
        }
        let iso = match self.mode {
            Mode::AdHoc => IsolationLevel::ReadCommitted,
            Mode::DatabaseTxn => IsolationLevel::Serializable,
            Mode::Cured | Mode::Confluent => unreachable!("cured path returned above"),
        };
        let schema = self.orm.db().schema("issues")?;
        let id = self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
            let issue = match self.mode {
                Mode::AdHoc => t.get_for_update("issues", issue_id)?,
                Mode::DatabaseTxn | Mode::Cured | Mode::Confluent => t.get("issues", issue_id)?,
            }
            .ok_or(DbError::NoSuchRow {
                table: "issues".into(),
                id: issue_id,
            })?;
            let count = issue.get_int(&schema, "attachments_count")?;
            let id = t.insert(
                "attachments",
                &[("issue_id", issue_id.into()), ("filename", filename.into())],
            )?;
            t.update(
                "issues",
                issue_id,
                &[("attachments_count", (count + 1).into())],
            )?;
            Ok(id)
        })?;
        Ok(id)
    }

    /// Invariant: the counter cache equals the number of attachment rows.
    pub fn attachments_consistent(&self, issue_id: i64) -> Result<bool> {
        let cached = self
            .orm
            .find_required("issues", issue_id)?
            .get_int("attachments_count")?;
        let count = self.orm.transaction(|t| {
            Ok(t.raw().scan_fold(
                "attachments",
                &Predicate::eq("issue_id", issue_id),
                0,
                |n, _, _| n + 1,
            )?)
        })?;
        Ok(cached == count)
    }

    /// Target an open issue at a version, refusing closed versions — one
    /// half of the `redmine/version-close` check-then-act pair.
    pub fn assign_version(&self, issue_id: i64, version_id: i64) -> Result<bool> {
        if self.mode.on_cured_layer() {
            // §7 cure: both halves of the check-then-act pair take the
            // same façade lock on the version, so the cross-row invariant
            // (no open issue on a closed version) cannot interleave away —
            // and no Serializable phantoms are needed to see it.
            let guard = self.coord.user_lock(&format!("version:{version_id}"))?;
            let ok = self.orm.transaction(|t| {
                let version = t.find_required("versions", version_id)?;
                if version.get_int("open")? == 0 {
                    return Ok(false);
                }
                t.raw()
                    .update("issues", issue_id, &[("version_id", version_id.into())])?;
                Ok(true)
            })?;
            guard.unlock()?;
            return Ok(ok);
        }
        let iso = match self.mode {
            Mode::AdHoc => IsolationLevel::ReadCommitted,
            Mode::DatabaseTxn => IsolationLevel::Serializable,
            Mode::Cured | Mode::Confluent => unreachable!("cured path returned above"),
        };
        let schema = self.orm.db().schema("versions")?;
        Ok(self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
            let version = match self.mode {
                // FOR UPDATE on the version row serializes against
                // `close_version`, which locks the same row.
                Mode::AdHoc => t.get_for_update("versions", version_id)?,
                Mode::DatabaseTxn | Mode::Cured | Mode::Confluent => {
                    t.get("versions", version_id)?
                }
            }
            .ok_or(DbError::NoSuchRow {
                table: "versions".into(),
                id: version_id,
            })?;
            if version.get_int(&schema, "open")? == 0 {
                return Ok(false);
            }
            t.update("issues", issue_id, &[("version_id", version_id.into())])?;
            Ok(true)
        })?)
    }

    /// Close a version, refusing while open issues still target it — the
    /// other half of the pair. Correct coordination locks the version row
    /// first (AdHoc/SFU) or runs serializable (DatabaseTxn, where SSI's
    /// index-range certification catches the phantom issue).
    pub fn close_version(&self, version_id: i64) -> Result<bool> {
        if self.mode.on_cured_layer() {
            let guard = self.coord.user_lock(&format!("version:{version_id}"))?;
            let issues = self.orm.db().schema("issues")?;
            let ok = self.orm.transaction(|t| {
                let targeting = t
                    .raw()
                    .scan("issues", &Predicate::eq("version_id", version_id))?;
                for (_, issue) in &targeting {
                    if issue.get_int(&issues, "open")? == 1 {
                        return Ok(false);
                    }
                }
                t.raw()
                    .update("versions", version_id, &[("open", 0.into())])?;
                Ok(true)
            })?;
            guard.unlock()?;
            return Ok(ok);
        }
        let iso = match self.mode {
            Mode::AdHoc => IsolationLevel::ReadCommitted,
            Mode::DatabaseTxn => IsolationLevel::Serializable,
            Mode::Cured | Mode::Confluent => unreachable!("cured path returned above"),
        };
        let issues = self.orm.db().schema("issues")?;
        Ok(self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
            if let Mode::AdHoc = self.mode {
                t.get_for_update("versions", version_id)?
                    .ok_or(DbError::NoSuchRow {
                        table: "versions".into(),
                        id: version_id,
                    })?;
            }
            let targeting = t.scan("issues", &Predicate::eq("version_id", version_id))?;
            for (_, issue) in &targeting {
                if issue.get_int(&issues, "open")? == 1 {
                    return Ok(false);
                }
            }
            t.update("versions", version_id, &[("open", 0.into())])?;
            Ok(true)
        })?)
    }

    /// The buggy shape: check and act in separate auto-committed
    /// statements, no lock — two halves can interleave and strand an open
    /// issue on a closed version.
    pub fn close_version_unchecked(&self, version_id: i64) -> Result<bool> {
        let issues = self.orm.db().schema("issues")?;
        let targeting = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("issues", &Predicate::eq("version_id", version_id))?)
        })?;
        for (_, issue) in &targeting {
            if issue.get_int(&issues, "open")? == 1 {
                return Ok(false);
            }
        }
        std::thread::yield_now(); // widen the check-then-act window
        self.orm.transaction(|t| {
            t.raw()
                .update("versions", version_id, &[("open", 0.into())])?;
            Ok(())
        })?;
        Ok(true)
    }

    /// The buggy assign: check the version in one statement, write the
    /// issue in another.
    pub fn assign_version_unchecked(&self, issue_id: i64, version_id: i64) -> Result<bool> {
        let open = self
            .orm
            .find_required("versions", version_id)?
            .get_int("open")?
            == 1;
        if !open {
            return Ok(false);
        }
        std::thread::yield_now();
        self.orm.transaction(|t| {
            t.raw()
                .update("issues", issue_id, &[("version_id", version_id.into())])?;
            Ok(())
        })?;
        Ok(true)
    }

    /// Invariant: no *open* issue targets a *closed* version.
    pub fn versions_consistent(&self) -> Result<bool> {
        let issues = self.orm.db().schema("issues")?;
        let rows = self
            .orm
            .transaction(|t| Ok(t.raw().scan("issues", &Predicate::All)?))?;
        for (_, issue) in &rows {
            let version_id = issue.get_int(&issues, "version_id")?;
            if version_id == 0 || issue.get_int(&issues, "open")? == 0 {
                continue;
            }
            let version = self.orm.find_required("versions", version_id)?;
            if version.get_int("open")? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Current progress percentage of an issue.
    pub fn done_ratio(&self, issue_id: i64) -> Result<i64> {
        Ok(self
            .orm
            .find_required("issues", issue_id)?
            .get_int("done_ratio")?)
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// Redmine's boot-time recovery pass: a crash between the attachment
/// insert and the `attachments_count` bump leaves the counter cache
/// behind its rows; boot recounts it (Active Record's
/// `reset_counters`, run as fsck).
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new().rule(attachments_count_rule())
}

/// Flag issues whose counter cache differs from the actual attachment
/// count, and recount on fix.
fn attachments_count_rule() -> CheckRule {
    let name = "redmine:issues.attachments_count";
    let expected = |db: &Database, issue_id: i64| -> Option<i64> {
        let schema = db.schema("attachments").ok()?;
        let rows = db.dump_table("attachments").ok()?;
        let mut count = 0;
        for (_, row) in &rows {
            if row.get_int(&schema, "issue_id").ok()? == issue_id {
                count += 1;
            }
        }
        Some(count)
    };
    CheckRule::new(name, move |db| {
        let (Ok(issues), Ok(schema)) = (db.dump_table("issues"), db.schema("issues")) else {
            return Vec::new();
        };
        issues
            .iter()
            .filter_map(|(id, row)| {
                let cached = row.get_int(&schema, "attachments_count").ok()?;
                let want = expected(db, *id)?;
                (cached != want).then(|| Violation {
                    rule: name.to_string(),
                    table: "issues".to_string(),
                    row_id: *id,
                    message: format!("attachments_count = {cached}, {want} attachment rows"),
                })
            })
            .collect()
    })
    .with_fix(move |db, v| {
        let Some(want) = expected(db, v.row_id) else {
            return false;
        };
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update(&v.table, v.row_id, &[("attachments_count", want.into())])
        })
        .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn progress_caps_at_100() {
        let app = Redmine::studied(Mode::AdHoc);
        app.seed_issue(1, "x").unwrap();
        app.advance_issue(1, 1, 80).unwrap();
        app.advance_issue(1, 1, 80).unwrap();
        assert_eq!(app.done_ratio(1).unwrap(), 100);
    }

    #[test]
    fn unlocked_variant_loses_progress() {
        let mut lost = false;
        for _ in 0..100 {
            let app = Arc::new(Redmine::studied(Mode::AdHoc));
            app.seed_issue(1, "x").unwrap();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let app = Arc::clone(&app);
                    s.spawn(move || {
                        for _ in 0..5 {
                            app.advance_issue_unlocked(1, 1).unwrap();
                        }
                    });
                }
            });
            if app.done_ratio(1).unwrap() < 20 {
                lost = true;
                break;
            }
        }
        assert!(lost, "the uncoordinated RMW must lose updates");
    }

    #[test]
    fn closed_version_refuses_new_issues() {
        let app = Redmine::studied(Mode::AdHoc);
        app.seed_version(1, "1.0").unwrap();
        app.seed_issue(1, "a").unwrap();
        app.seed_issue(2, "b").unwrap();
        assert!(app.assign_version(1, 1).unwrap());
        assert!(!app.close_version(1).unwrap(), "open issue 1 blocks close");
        // Close issue 1 out of band, then closing succeeds.
        app.orm()
            .transaction(|t| {
                t.raw().update("issues", 1, &[("open", 0.into())])?;
                Ok(())
            })
            .unwrap();
        assert!(app.close_version(1).unwrap());
        assert!(!app.assign_version(2, 1).unwrap(), "closed version refused");
        assert!(app.versions_consistent().unwrap());
    }

    #[test]
    fn unchecked_close_vs_assign_can_strand_an_open_issue() {
        let mut violated = false;
        for _ in 0..300 {
            let app = Arc::new(Redmine::studied(Mode::AdHoc));
            app.seed_version(1, "1.0").unwrap();
            app.seed_issue(1, "a").unwrap();
            std::thread::scope(|s| {
                let a = Arc::clone(&app);
                s.spawn(move || {
                    let _ = a.assign_version_unchecked(1, 1).unwrap();
                });
                let b = Arc::clone(&app);
                s.spawn(move || {
                    let _ = b.close_version_unchecked(1).unwrap();
                });
            });
            if !app.versions_consistent().unwrap() {
                violated = true;
                break;
            }
        }
        assert!(violated, "the unchecked pair must be able to violate");
    }

    #[test]
    fn wiki_edits_detect_conflicts() {
        let app = Redmine::studied(Mode::AdHoc);
        app.seed_wiki(1, "v0").unwrap();
        assert!(app.edit_wiki(1, "v1").unwrap());
        // A stale client (loaded before v1) conflicts.
        let stale = app.orm.find_required("wiki_pages", 1).unwrap();
        assert!(app.edit_wiki(1, "v2").unwrap());
        let mut stale_obj = stale;
        stale_obj.set("text", "stale overwrite").unwrap();
        assert!(matches!(
            app.orm.save(&mut stale_obj),
            Err(OrmError::StaleObject { .. })
        ));
        assert_eq!(
            app.orm
                .find_required("wiki_pages", 1)
                .unwrap()
                .get_str("text")
                .unwrap(),
            "v2"
        );
    }

    #[test]
    fn concurrent_wiki_editors_one_wins_per_round() {
        let app = Arc::new(Redmine::studied(Mode::AdHoc));
        app.seed_wiki(1, "v0").unwrap();
        let successes: usize = std::thread::scope(|s| {
            (0..6)
                .map(|t| {
                    let app = Arc::clone(&app);
                    s.spawn(move || app.edit_wiki(1, &format!("editor {t}")).unwrap() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(successes >= 1);
        // Versions advanced exactly once per success.
        let ver = app
            .orm
            .find_required("wiki_pages", 1)
            .unwrap()
            .get_int("lock_version")
            .unwrap();
        assert_eq!(ver as usize, successes);
    }
    #[test]
    fn issue_row_footprints_are_localized_and_independent() {
        let app = Redmine::studied(Mode::AdHoc);
        let fps: Vec<_> = (1..=6)
            .map(|id| {
                app.seed_issue(id, "s").unwrap();
                crate::observed_footprint(&app.orm, |t| {
                    t.raw().update("issues", id, &[("done_ratio", 0.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
