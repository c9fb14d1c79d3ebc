//! Discourse (Ruby/Active Record): topics, posts, images, reviewables.
//!
//! Scenarios reproduced:
//! * **Table 6 `CBC`** — `create_post` and `toggle_answer` update
//!   *different columns* of the same Topics row; the ad hoc variant uses
//!   two lock namespaces (`create_post:{topic}` / `toggle_answer:{topic}`)
//!   so they run in parallel, while the database variant (PostgreSQL
//!   Repeatable Read) conflicts at row granularity (§3.3.2).
//! * **Table 6 `AA`** — `like_post` bumps the post's like count and its
//!   parent topic's total under one topic lock (associated access,
//!   §3.3.1); the database variant runs at PostgreSQL Serializable.
//! * **§3.1.2 / §3.3.2** — the two-request `edit-post` flow with version-
//!   and content-based validation, plus the lock-after-read bug
//!   (§4.1.1, issue \[76\]).
//! * **§3.4.1 / Figure 4** — `shrink_image` with the four rollback
//!   strategies (`REPAIR`, `DBT-S`, `DBT-W`, `MANUAL`), including the
//!   incomplete-repair bug (§4.3, issue \[64\]).
//! * **§4.1.2** — `update_reviewable` with the MiniSql non-atomic
//!   validate-and-commit (issue \[62\]).

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_core::taxonomy::FailureHandling;
use adhoc_core::validation::{validated_write, CommitOutcome, ValidationCheck, ValidationStrategy};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Row, Schema,
};
use std::sync::Arc;
use std::time::Duration;

/// Create Discourse's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "topics",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("max_post", ColumnType::Int),
            Column::new("answer", ColumnType::Int),
            Column::new("total_likes", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "posts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("topic_id", ColumnType::Int),
                Column::new("seq", ColumnType::Int),
                Column::new("content", ColumnType::Str),
                Column::new("ver", ColumnType::Int),
                Column::new("view_cnt", ColumnType::Int),
                Column::new("like_cnt", ColumnType::Int),
                Column::new("img_id", ColumnType::Int),
                Column::new("is_answer", ColumnType::Bool),
            ],
            "id",
        )?
        .with_index("topic_id")?
        .with_index("img_id")?,
    )?;
    db.create_table(Schema::new(
        "images",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("bytes", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "reviewables",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("version", ColumnType::Int),
            Column::new("score", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "drafts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("user_id", ColumnType::Int),
                Column::new("dkey", ColumnType::Str),
                // user_id + dkey combined; the unique index is what makes
                // concurrent first saves safe (Discourse's schema does the
                // same with a composite unique index).
                Column::new("ukey", ColumnType::Str),
                Column::new("sequence", ColumnType::Int),
                Column::new("content", ColumnType::Str),
            ],
            "id",
        )?
        .with_index("user_id")?
        .with_unique_index("ukey")?,
    )?;
    let registry = Registry::new()
        .register(EntityDef::new("topics"))
        .register(EntityDef::new("posts"))
        .register(EntityDef::new("images"))
        .register(EntityDef::new("reviewables"))
        .register(EntityDef::new("drafts"));
    Ok(Orm::new(db.clone(), registry))
}

/// Result of a composer draft save.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DraftOutcome {
    /// The draft was stored.
    Saved,
    /// The client's sequence is behind the stored draft (a stale tab);
    /// nothing was written.
    StaleSequence {
        /// The sequence currently stored.
        current: i64,
    },
}

/// Result of the second edit-post request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOutcome {
    /// The edit was applied.
    Success,
    /// The post changed since request 1 — the user is told to re-edit.
    Conflict,
}

/// What request 1 of the edit flow hands to the client.
#[derive(Debug, Clone)]
pub struct EditToken {
    /// The post being edited.
    pub post_id: i64,
    /// Content as fetched by request 1.
    pub content: String,
    /// Version as fetched by request 1.
    pub ver: i64,
}

/// Per-call report from `shrink_image`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Posts whose references were rewritten.
    pub rewritten: usize,
    /// Restarts/repairs the strategy needed (full batch restarts for the
    /// transactional strategies, per-post repairs for `REPAIR`).
    pub restarts: usize,
}

/// The Discourse application model.
pub struct Discourse {
    orm: Orm,
    lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
    /// §4.1.1 \[76\]: read the post *before* acquiring its lock.
    lock_after_read: bool,
    /// §4.3 \[64\]: the shrink-image repair ignores posts that started using
    /// the image after the initial query.
    incomplete_repair: bool,
    /// Simulated image-processing cost (dominates Figure 4's latencies).
    pub image_process_cost: Duration,
    /// Simulated request-processing cost paid while `commit_edit` holds the
    /// post lock (drives the DBT-W/MANUAL blocking of §5.3).
    pub edit_hold_cost: Duration,
    /// Application-server CPU burned per request attempt (see
    /// [`crate::busy_work`]). Zero by default.
    pub request_cpu_work: Duration,
}

impl Discourse {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            lock,
            coord,
            mode,
            lock_after_read: false,
            incomplete_repair: false,
            image_process_cost: Duration::ZERO,
            edit_hold_cost: Duration::ZERO,
            request_cpu_work: Duration::ZERO,
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

    /// Set the per-attempt application-server CPU cost.
    pub fn with_request_cpu_work(mut self, d: Duration) -> Self {
        self.request_cpu_work = d;
        self
    }

    /// Enable the §4.1.1 \[76\] lock-after-read fault.
    pub fn lock_after_read(mut self) -> Self {
        self.lock_after_read = true;
        self
    }

    /// Enable the §4.3 \[64\] incomplete-repair fault.
    pub fn incomplete_repair(mut self) -> Self {
        self.incomplete_repair = true;
        self
    }

    /// Set the simulated image-processing cost.
    pub fn with_image_cost(mut self, cost: Duration) -> Self {
        self.image_process_cost = cost;
        self
    }

    /// Set the cost paid while an edit holds the post lock.
    pub fn with_edit_hold_cost(mut self, cost: Duration) -> Self {
        self.edit_hold_cost = cost;
        self
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// Seed an empty topic.
    pub fn seed_topic(&self, topic_id: i64) -> Result<()> {
        self.orm.create(
            "topics",
            &[
                ("id", topic_id.into()),
                ("max_post", 0.into()),
                ("answer", 0.into()),
                ("total_likes", 0.into()),
            ],
        )?;
        Ok(())
    }

    /// Seed an image record.
    pub fn seed_image(&self, img_id: i64, bytes: i64) -> Result<()> {
        self.orm
            .create("images", &[("id", img_id.into()), ("bytes", bytes.into())])?;
        Ok(())
    }

    /// Seed a post; returns its id.
    pub fn seed_post(&self, topic_id: i64, content: &str, img_id: i64) -> Result<i64> {
        let obj = self.orm.transaction(|t| {
            let topic = t.find_required("topics", topic_id)?;
            let seq = topic.get_int("max_post")? + 1;
            let post = t.create(
                "posts",
                &[
                    ("topic_id", topic_id.into()),
                    ("seq", seq.into()),
                    ("content", content.into()),
                    ("ver", 0.into()),
                    ("view_cnt", 0.into()),
                    ("like_cnt", 0.into()),
                    ("img_id", img_id.into()),
                    ("is_answer", false.into()),
                ],
            )?;
            t.raw()
                .update("topics", topic_id, &[("max_post", seq.into())])?;
            Ok(post)
        })?;
        Ok(obj.id)
    }

    /// Table 6 `CBC` (writer 1): allocate the next post number and insert.
    pub fn create_post(&self, topic_id: i64, content: &str) -> Result<i64> {
        match self.mode {
            Mode::AdHoc => {
                crate::busy_work(self.request_cpu_work);
                let guard = self.lock.lock(&format!("create_post:{topic_id}"))?;
                let (post_id, seq) = self.orm.transaction(|t| {
                    let topic = t.find_required("topics", topic_id)?;
                    let seq = topic.get_int("max_post")? + 1;
                    let post = t.create(
                        "posts",
                        &[
                            ("topic_id", topic_id.into()),
                            ("seq", seq.into()),
                            ("content", content.into()),
                            ("ver", 0.into()),
                            ("view_cnt", 0.into()),
                            ("like_cnt", 0.into()),
                            ("img_id", 0.into()),
                            ("is_answer", false.into()),
                        ],
                    )?;
                    Ok((post.id, seq))
                })?;
                // Second statement in its own transaction: the app lock is
                // what keeps the pair atomic.
                self.orm.transaction(|t| {
                    t.raw()
                        .update("topics", topic_id, &[("max_post", seq.into())])?;
                    Ok(())
                })?;
                guard.unlock()?;
                Ok(post_id)
            }
            Mode::DatabaseTxn => {
                // Table 6: PostgreSQL, Repeatable Read.
                Ok(self.orm.db().run_with_retries(
                    IsolationLevel::RepeatableRead,
                    DBT_RETRIES,
                    |t| {
                        crate::busy_work(self.request_cpu_work);
                        let schema = self.orm.db().schema("topics")?;
                        let topic = t.get("topics", topic_id)?.ok_or(DbError::NoSuchRow {
                            table: "topics".into(),
                            id: topic_id,
                        })?;
                        let seq = topic.get_int(&schema, "max_post")? + 1;
                        let id = t.insert(
                            "posts",
                            &[
                                ("topic_id", topic_id.into()),
                                ("seq", seq.into()),
                                ("content", content.into()),
                                ("ver", 0.into()),
                                ("view_cnt", 0.into()),
                                ("like_cnt", 0.into()),
                                ("img_id", 0.into()),
                                ("is_answer", false.into()),
                            ],
                        )?;
                        t.update("topics", topic_id, &[("max_post", seq.into())])?;
                        Ok(id)
                    },
                )?)
            }
            // Post-number allocation is *not* invariant-confluent (numbers
            // must stay dense and ordered), so Confluent inherits the
            // coordinated cure unchanged.
            Mode::Cured | Mode::Confluent => {
                // §7 cure: the façade serializes sequence allocation per
                // topic, and one default-isolation transaction makes the
                // insert + counter bump atomic. The lock key is its own
                // namespace, so `toggle_answer` (different columns of the
                // same Topics row) still runs in parallel — the CBC win.
                crate::busy_work(self.request_cpu_work);
                let guard = self.coord.user_lock(&format!("create_post:{topic_id}"))?;
                let post_id = self.orm.transaction(|t| {
                    let topic = t.find_required("topics", topic_id)?;
                    let seq = topic.get_int("max_post")? + 1;
                    let post = t.create(
                        "posts",
                        &[
                            ("topic_id", topic_id.into()),
                            ("seq", seq.into()),
                            ("content", content.into()),
                            ("ver", 0.into()),
                            ("view_cnt", 0.into()),
                            ("like_cnt", 0.into()),
                            ("img_id", 0.into()),
                            ("is_answer", false.into()),
                        ],
                    )?;
                    t.raw()
                        .update("topics", topic_id, &[("max_post", seq.into())])?;
                    Ok(post.id)
                })?;
                guard.unlock()?;
                Ok(post_id)
            }
        }
    }

    /// Table 6 `CBC` (writer 2): mark a post as the topic's answer.
    pub fn toggle_answer(&self, topic_id: i64, post_id: i64) -> Result<()> {
        match self.mode {
            Mode::AdHoc => {
                crate::busy_work(self.request_cpu_work);
                let guard = self.lock.lock(&format!("toggle_answer:{topic_id}"))?;
                self.orm.transaction(|t| {
                    t.raw()
                        .update("posts", post_id, &[("is_answer", true.into())])?;
                    Ok(())
                })?;
                self.orm.transaction(|t| {
                    t.raw()
                        .update("topics", topic_id, &[("answer", post_id.into())])?;
                    Ok(())
                })?;
                guard.unlock()?;
                Ok(())
            }
            Mode::DatabaseTxn => {
                self.orm.db().run_with_retries(
                    IsolationLevel::RepeatableRead,
                    DBT_RETRIES,
                    |t| {
                        crate::busy_work(self.request_cpu_work);
                        t.update("posts", post_id, &[("is_answer", true.into())])?;
                        t.update("topics", topic_id, &[("answer", post_id.into())])?;
                        Ok(())
                    },
                )?;
                Ok(())
            }
            Mode::Cured | Mode::Confluent => {
                // §7 cure: two blind writes become one optimistic commit —
                // nothing is read, so nothing can conflict, and the pair is
                // atomic. Writing only the `answer`/`is_answer` columns
                // keeps it commuting with `create_post` (CBC).
                crate::busy_work(self.request_cpu_work);
                run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    occ.stage_update("posts", post_id, &[("is_answer", true.into())]);
                    occ.stage_update("topics", topic_id, &[("answer", post_id.into())]);
                    Ok(())
                })?;
                Ok(())
            }
        }
    }

    /// Table 6 `AA`: like a post, bumping the post's and the topic's
    /// counters under one topic lock.
    pub fn like_post(&self, post_id: i64) -> Result<()> {
        let schema = self.orm.db().schema("posts")?;
        let topic_schema = self.orm.db().schema("topics")?;
        match self.mode {
            Mode::AdHoc => {
                // Non-critical request work, pipelined outside the lock.
                crate::busy_work(self.request_cpu_work);
                let topic_id = self
                    .orm
                    .find_required("posts", post_id)?
                    .get_int("topic_id")?;
                let guard = self.lock.lock(&format!("topic:{topic_id}"))?;
                self.orm.transaction(|t| {
                    let post = t.raw().get("posts", post_id)?.ok_or(DbError::NoSuchRow {
                        table: "posts".into(),
                        id: post_id,
                    })?;
                    let likes = post.get_int(&schema, "like_cnt")?;
                    t.raw()
                        .update("posts", post_id, &[("like_cnt", (likes + 1).into())])?;
                    Ok(())
                })?;
                self.orm.transaction(|t| {
                    let topic = t.raw().get("topics", topic_id)?.ok_or(DbError::NoSuchRow {
                        table: "topics".into(),
                        id: topic_id,
                    })?;
                    let total = topic.get_int(&topic_schema, "total_likes")?;
                    t.raw()
                        .update("topics", topic_id, &[("total_likes", (total + 1).into())])?;
                    Ok(())
                })?;
                guard.unlock()?;
                Ok(())
            }
            Mode::DatabaseTxn => {
                // Table 6: PostgreSQL, Serializable.
                self.orm
                    .db()
                    .run_with_retries(IsolationLevel::Serializable, DBT_RETRIES, |t| {
                        // Every retry re-executes the request handler.
                        crate::busy_work(self.request_cpu_work);
                        let post = t.get("posts", post_id)?.ok_or(DbError::NoSuchRow {
                            table: "posts".into(),
                            id: post_id,
                        })?;
                        let topic_id = post.get_int(&schema, "topic_id")?;
                        let likes = post.get_int(&schema, "like_cnt")?;
                        t.update("posts", post_id, &[("like_cnt", (likes + 1).into())])?;
                        let topic = t.get("topics", topic_id)?.ok_or(DbError::NoSuchRow {
                            table: "topics".into(),
                            id: topic_id,
                        })?;
                        let total = topic.get_int(&topic_schema, "total_likes")?;
                        t.update("topics", topic_id, &[("total_likes", (total + 1).into())])?;
                        Ok(())
                    })?;
                Ok(())
            }
            Mode::Confluent => {
                // Like-counts are invariant-confluent: two likes commute,
                // no invariant orders them. Both bumps commit as
                // commutative deltas in one transaction — no lock, no
                // validated read, no retry loop. The only read is the
                // post's immutable topic_id.
                crate::busy_work(self.request_cpu_work);
                let topic_id = self
                    .orm
                    .find_required("posts", post_id)?
                    .get_int("topic_id")?;
                self.orm.transaction(|t| {
                    t.raw().add_delta("posts", post_id, "like_cnt", 1)?;
                    t.raw().add_delta("topics", topic_id, "total_likes", 1)?;
                    Ok(())
                })?;
                Ok(())
            }
            Mode::Cured => {
                // §7 cure for AA: one optimistic transaction over both
                // counters, field-granular on exactly the columns read —
                // no topic lock, no Serializable aborts; conflicting likes
                // retry automatically.
                crate::busy_work(self.request_cpu_work);
                run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    let post = occ
                        .read_fields(&self.orm, "posts", post_id, &["topic_id", "like_cnt"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "posts".into(),
                            id: post_id,
                        })?;
                    let topic_id = post.get_int("topic_id")?;
                    let likes = post.get_int("like_cnt")?;
                    let topic = occ
                        .read_fields(&self.orm, "topics", topic_id, &["total_likes"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "topics".into(),
                            id: topic_id,
                        })?;
                    let total = topic.get_int("total_likes")?;
                    occ.stage_update("posts", post_id, &[("like_cnt", (likes + 1).into())]);
                    occ.stage_update("topics", topic_id, &[("total_likes", (total + 1).into())]);
                    Ok(())
                })?;
                Ok(())
            }
        }
    }

    /// Edit-post request 1 (§3.1.2): bump the view count and return the
    /// content + version for client-side editing. The view-count bump is
    /// deliberately *not* rolled back if request 2 later conflicts.
    pub fn begin_edit(&self, post_id: i64) -> Result<EditToken> {
        let schema = self.orm.db().schema("posts")?;
        let (content, ver) = self.orm.transaction(|t| {
            let post = t.raw().get("posts", post_id)?.ok_or(DbError::NoSuchRow {
                table: "posts".into(),
                id: post_id,
            })?;
            let views = post.get_int(&schema, "view_cnt")?;
            t.raw()
                .update("posts", post_id, &[("view_cnt", (views + 1).into())])?;
            Ok((
                post.get_str(&schema, "content")?,
                post.get_int(&schema, "ver")?,
            ))
        })?;
        Ok(EditToken {
            post_id,
            content,
            ver,
        })
    }

    /// Edit-post request 2, version-validated (§3.1.2's listing).
    pub fn commit_edit(&self, token: &EditToken, new_content: &str) -> Result<EditOutcome> {
        let schema = self.orm.db().schema("posts")?;
        if self.lock_after_read {
            // §4.1.1 [76]: the post is read *before* the lock; the write-
            // back is serialized but the RMW is not atomic, so a concurrent
            // edit committed in the window is silently overwritten.
            let current = self.orm.find_required("posts", token.post_id)?;
            let ver = current.get_int("ver")?;
            std::thread::yield_now(); // the request-processing window
            let guard = self.lock.lock(&format!("post:{}", token.post_id))?;
            if ver != token.ver {
                guard.unlock()?;
                return Ok(EditOutcome::Conflict);
            }
            self.orm.transaction(|t| {
                t.raw().update(
                    "posts",
                    token.post_id,
                    &[("content", new_content.into()), ("ver", (ver + 1).into())],
                )?;
                Ok(())
            })?;
            guard.unlock()?;
            return Ok(EditOutcome::Success);
        }
        // Correct order: lock, re-read, validate, write.
        let guard = self.lock.lock(&format!("post:{}", token.post_id))?;
        std::thread::sleep(self.edit_hold_cost);
        let outcome = self.orm.transaction(|t| {
            let current = t
                .raw()
                .get("posts", token.post_id)?
                .ok_or(DbError::NoSuchRow {
                    table: "posts".into(),
                    id: token.post_id,
                })?;
            let ver = current.get_int(&schema, "ver")?;
            if ver != token.ver {
                return Ok(EditOutcome::Conflict);
            }
            t.raw().update(
                "posts",
                token.post_id,
                &[("content", new_content.into()), ("ver", (ver + 1).into())],
            )?;
            Ok(EditOutcome::Success)
        })?;
        guard.unlock()?;
        Ok(outcome)
    }

    /// Edit-post request 2, content-validated (§3.3.2's column-based
    /// refinement): only concurrent changes to `content` itself conflict —
    /// view-count bumps do not.
    pub fn commit_edit_by_content(
        &self,
        token: &EditToken,
        new_content: &str,
    ) -> Result<EditOutcome> {
        let guard = self.lock.lock(&format!("post:{}", token.post_id))?;
        let obj = self.orm.find_required("posts", token.post_id)?;
        let outcome = if obj.get_str("content")? != token.content {
            EditOutcome::Conflict
        } else {
            let strategy = ValidationStrategy::HandCraftedAtomic(ValidationCheck::ValueEquals {
                column: "content".into(),
            });
            match validated_write(
                &self.orm,
                &obj,
                &[("content", new_content.into())],
                &strategy,
            )? {
                CommitOutcome::Committed => EditOutcome::Success,
                CommitOutcome::Conflict => EditOutcome::Conflict,
            }
        };
        guard.unlock()?;
        Ok(outcome)
    }

    /// §3.4.1 / Figure 4: rewrite every post referencing `old_img` to
    /// `new_img` with the given rollback strategy. The figure's four
    /// configurations map as: `Repair` → REPAIR, `ErrorReturn` → DBT-S
    /// (pure Serializable transaction), `DbtRollback` → DBT-W,
    /// `ManualRollback` → MANUAL.
    pub fn shrink_image(
        &self,
        old_img: i64,
        new_img: i64,
        strategy: FailureHandling,
    ) -> Result<ShrinkReport> {
        match strategy {
            FailureHandling::Repair => self.shrink_repair(old_img, new_img),
            FailureHandling::ErrorReturn => {
                self.shrink_dbt(old_img, new_img, IsolationLevel::Serializable, false)
            }
            FailureHandling::DbtRollback => {
                self.shrink_dbt(old_img, new_img, IsolationLevel::ReadCommitted, true)
            }
            FailureHandling::ManualRollback => self.shrink_manual(old_img, new_img),
        }
    }

    fn replace_refs(&self, content: &str, old_img: i64, new_img: i64) -> String {
        content.replace(&format!("img:{old_img}"), &format!("img:{new_img}"))
    }

    fn posts_using(&self, img: i64) -> Result<Vec<(i64, String, i64)>> {
        let schema = self.orm.db().schema("posts")?;
        let rows = self
            .orm
            .transaction(|t| Ok(t.raw().scan("posts", &Predicate::eq("img_id", img))?))?;
        let mut out = Vec::with_capacity(rows.len());
        for (id, row) in &rows {
            out.push((
                *id,
                row.get_str(&schema, "content")?,
                row.get_int(&schema, "ver")?,
            ));
        }
        Ok(out)
    }

    /// One validated per-post rewrite; returns whether it landed.
    fn rewrite_post(
        &self,
        post_id: i64,
        content: &str,
        ver: i64,
        old_img: i64,
        new_img: i64,
    ) -> Result<bool> {
        let new_content = self.replace_refs(content, old_img, new_img);
        let affected = self.orm.transaction(|t| {
            let pred = Predicate::And(vec![
                Predicate::eq("id", post_id),
                Predicate::eq("ver", ver),
            ]);
            Ok(t.raw().update_where(
                "posts",
                &pred,
                &[
                    ("content", new_content.as_str().into()),
                    ("img_id", new_img.into()),
                    ("ver", (ver + 1).into()),
                ],
            )?)
        })?;
        Ok(affected == 1)
    }

    /// `REPAIR`: process the image once; per-post OCC retry redoes only
    /// the affected post's replacement (§3.4.1's listing).
    fn shrink_repair(&self, old_img: i64, new_img: i64) -> Result<ShrinkReport> {
        let mut report = ShrinkReport::default();
        let posts = self.posts_using(old_img)?;
        // The expensive, once-only image processing, based on the posts
        // just read. Conflicting edits land in this window; repair redoes
        // only the affected post's cheap replacement, never this step.
        std::thread::sleep(self.image_process_cost);
        for (post_id, mut content, mut ver) in posts {
            loop {
                if self.rewrite_post(post_id, &content, ver, old_img, new_img)? {
                    report.rewritten += 1;
                    break;
                }
                // Conflict: re-read just this post and redo its replacement
                // (no image re-processing, no other posts touched).
                report.restarts += 1;
                match self.orm.find("posts", post_id)? {
                    Some(obj) if obj.get_int("img_id")? == old_img => {
                        content = obj.get_str("content")?;
                        ver = obj.get_int("ver")?;
                    }
                    _ => break, // deleted or already migrated
                }
            }
        }
        // Sweep for posts that started using the image mid-run; the
        // incomplete-repair bug (§4.3 [64]) skips this.
        if !self.incomplete_repair {
            for (post_id, content, ver) in self.posts_using(old_img)? {
                if self.rewrite_post(post_id, &content, ver, old_img, new_img)? {
                    report.rewritten += 1;
                }
            }
        }
        Ok(report)
    }

    /// `DBT-S` / `DBT-W`: one database transaction over the whole batch;
    /// any conflict aborts and restarts everything, including image
    /// re-processing. `validate` adds DBT-W's in-transaction version check
    /// with a user-initiated abort.
    fn shrink_dbt(
        &self,
        old_img: i64,
        new_img: i64,
        iso: IsolationLevel,
        validate: bool,
    ) -> Result<ShrinkReport> {
        let schema = self.orm.db().schema("posts")?;
        let mut restarts = 0usize;
        loop {
            let attempt = self.orm.db().run(iso, |t| {
                let posts = t.scan("posts", &Predicate::eq("img_id", old_img))?;
                // Image processing happens on the contents the transaction
                // read; an abort throws this work away (§5.3).
                std::thread::sleep(self.image_process_cost);
                let mut rewritten = 0usize;
                for (post_id, row) in &posts {
                    let content = row.get_str(&schema, "content")?;
                    let ver = row.get_int(&schema, "ver")?;
                    let new_content = self.replace_refs(&content, old_img, new_img);
                    let pairs: Vec<(&str, adhoc_storage::Value)> = vec![
                        ("content", new_content.as_str().into()),
                        ("img_id", new_img.into()),
                        ("ver", (ver + 1).into()),
                    ];
                    if validate {
                        // DBT-W shares the edit-post lock to guard its
                        // version check (SS5.3: "the post lock used by
                        // edit-post is also used in DBT-W and MANUAL"), so
                        // it blocks for the duration of conflicting edits.
                        let guard = self.lock.lock(&format!("post:{post_id}")).map_err(|e| {
                            DbError::SerializationFailure {
                                txn: 0,
                                reason: e.to_string(),
                            }
                        })?;
                        let pred = Predicate::And(vec![
                            Predicate::eq("id", *post_id),
                            Predicate::eq("ver", ver),
                        ]);
                        let affected = t.update_where("posts", &pred, &pairs)?;
                        let _ = guard.unlock();
                        if affected == 0 {
                            // Validation failure: user-initiated abort of
                            // the whole batch (DBT-W).
                            return Err(DbError::SerializationFailure {
                                txn: 0,
                                reason: "stale post version in shrink batch".into(),
                            });
                        }
                    } else {
                        t.update("posts", *post_id, &pairs)?;
                    }
                    rewritten += 1;
                }
                Ok(rewritten)
            });
            match attempt {
                Ok(rewritten) => {
                    return Ok(ShrinkReport {
                        rewritten,
                        restarts,
                    })
                }
                Err(e) if e.is_retryable() => {
                    restarts += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// `MANUAL`: commit post-by-post; on a conflict, issue hand-written
    /// compensation updates restoring the already-committed posts, then
    /// restart (§3.4.1's "manually written rollback procedures").
    fn shrink_manual(&self, old_img: i64, new_img: i64) -> Result<ShrinkReport> {
        let mut restarts = 0usize;
        'outer: loop {
            let posts = self.posts_using(old_img)?;
            std::thread::sleep(self.image_process_cost);
            // (post_id, original content, version after our rewrite).
            let mut done: Vec<(i64, String, i64)> = Vec::new();
            for (post_id, content, ver) in &posts {
                // MANUAL also guards its check with the edit-post lock.
                let guard = self.lock.lock(&format!("post:{post_id}"))?;
                let ok = self.rewrite_post(*post_id, content, *ver, old_img, new_img)?;
                let _ = guard.unlock();
                if ok {
                    done.push((*post_id, content.clone(), ver + 1));
                } else {
                    // Conflict: compensate every post already rewritten.
                    for (undo_id, original, cur_ver) in done.iter().rev() {
                        self.orm.transaction(|t| {
                            t.raw().update(
                                "posts",
                                *undo_id,
                                &[
                                    ("content", original.as_str().into()),
                                    ("img_id", old_img.into()),
                                    ("ver", (cur_ver + 1).into()),
                                ],
                            )?;
                            Ok(())
                        })?;
                    }
                    restarts += 1;
                    continue 'outer;
                }
            }
            return Ok(ShrinkReport {
                rewritten: done.len(),
                restarts,
            });
        }
    }

    /// Save a composer draft with Discourse's client sequence validation
    /// (the `discourse/draft-save` case): each save carries the sequence
    /// the client last saw, and a save whose sequence is behind the stored
    /// one is rejected — the stale-tab protection. The check and the write
    /// run in one transaction with the draft row locked.
    pub fn save_draft(
        &self,
        user_id: i64,
        dkey: &str,
        sequence: i64,
        content: &str,
    ) -> Result<DraftOutcome> {
        let schema = self.orm.db().schema("drafts")?;
        let iso = match self.mode {
            // Draft-save is one of the paper's *good* ad hoc transactions:
            // the cured variant keeps the same single-transaction
            // SELECT-FOR-UPDATE shape at the weakest sufficient level.
            Mode::AdHoc | Mode::Cured | Mode::Confluent => IsolationLevel::ReadCommitted,
            Mode::DatabaseTxn => IsolationLevel::Serializable,
        };
        let ukey = format!("{user_id}:{dkey}");
        loop {
            let result = self.orm.db().run_with_retries(iso, DBT_RETRIES, |t| {
                let mine = t
                    .select_for_update("drafts", &Predicate::eq("user_id", user_id))?
                    .into_iter()
                    .find(|(_, row)| row.get_str(&schema, "dkey").map(|k| k == dkey) == Ok(true));
                match mine {
                    Some((draft_id, row)) => {
                        let current = row.get_int(&schema, "sequence")?;
                        if sequence < current {
                            return Ok(DraftOutcome::StaleSequence { current });
                        }
                        t.update(
                            "drafts",
                            draft_id,
                            &[("sequence", sequence.into()), ("content", content.into())],
                        )?;
                        Ok(DraftOutcome::Saved)
                    }
                    None => {
                        t.insert(
                            "drafts",
                            &[
                                ("user_id", user_id.into()),
                                ("dkey", dkey.into()),
                                ("ukey", ukey.as_str().into()),
                                ("sequence", sequence.into()),
                                ("content", content.into()),
                            ],
                        )?;
                        Ok(DraftOutcome::Saved)
                    }
                }
            });
            match result {
                // Lost the first-save race: the row exists now, take the
                // update path instead.
                Err(DbError::UniqueViolation { .. }) => continue,
                other => return Ok(other?),
            }
        }
    }

    /// The stored draft (sequence, content), if any.
    pub fn draft(&self, user_id: i64, dkey: &str) -> Result<Option<(i64, String)>> {
        let schema = self.orm.db().schema("drafts")?;
        let rows = self
            .orm
            .transaction(|t| Ok(t.raw().scan("drafts", &Predicate::eq("user_id", user_id))?))?;
        for (_, row) in &rows {
            if row.get_str(&schema, "dkey")? == dkey {
                return Ok(Some((
                    row.get_int(&schema, "sequence")?,
                    row.get_str(&schema, "content")?,
                )));
            }
        }
        Ok(None)
    }

    /// §4.1.2 \[62\]: bump a reviewable's version, guarding follow-up
    /// operations. `atomic = false` reproduces the MiniSql bypass.
    pub fn update_reviewable(&self, id: i64, atomic: bool) -> Result<CommitOutcome> {
        let obj = self.orm.find_required("reviewables", id)?;
        let score = obj.get_int("score")?;
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
        validated_write(&self.orm, &obj, &[("score", (score + 1).into())], &strategy)
    }

    /// Invariant (CBC): `max_post` equals the number of posts and their
    /// sequence numbers are exactly 1..=max_post.
    pub fn topic_posts_consistent(&self, topic_id: i64) -> Result<bool> {
        let schema = self.orm.db().schema("posts")?;
        let max_post = self
            .orm
            .find_required("topics", topic_id)?
            .get_int("max_post")?;
        let rows = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("posts", &Predicate::eq("topic_id", topic_id))?)
        })?;
        let mut seqs: Vec<i64> = Vec::with_capacity(rows.len());
        for (_, r) in &rows {
            seqs.push(r.get_int(&schema, "seq")?);
        }
        seqs.sort_unstable();
        let expect: Vec<i64> = (1..=max_post).collect();
        Ok(seqs == expect)
    }

    /// Invariant (AA): the topic's `total_likes` equals the sum of its
    /// posts' like counts.
    pub fn likes_consistent(&self, topic_id: i64) -> Result<bool> {
        let like_cnt = self.orm.db().schema("posts")?.column_index("like_cnt")?;
        let total = self
            .orm
            .find_required("topics", topic_id)?
            .get_int("total_likes")?;
        let sum = self.orm.transaction(|t| {
            Ok(t.raw().scan_fold(
                "posts",
                &Predicate::eq("topic_id", topic_id),
                0,
                |sum, _, post| sum + post.at(like_cnt).as_int(),
            )?)
        })?;
        Ok(total == sum)
    }

    /// Invariant (shrink-image): no post references `img`.
    pub fn no_posts_reference(&self, img: i64) -> Result<bool> {
        Ok(self.posts_using(img)?.is_empty())
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// Discourse's boot-time recovery pass: the denormalized Topics counters
/// (`total_likes`, `max_post`) are recomputed from the Posts rows they
/// summarize. A crash between a post/like write and its counter bump — or
/// between the bump and the row, in the counter-first ad hoc flow — leaves
/// the aggregate lying about its rows; this is the §3.4.2 "check and fix
/// inconsistent references" job run at boot instead of every twelve hours.
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new()
        .rule(topic_counter_rule(
            "discourse:topics.total_likes",
            "total_likes",
            |schema, posts| {
                posts
                    .iter()
                    .map(|r| r.get_int(schema, "like_cnt").unwrap_or(0))
                    .sum()
            },
        ))
        .rule(topic_counter_rule(
            "discourse:topics.max_post",
            "max_post",
            |schema, posts| {
                posts
                    .iter()
                    .map(|r| r.get_int(schema, "seq").unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            },
        ))
}

/// One recomputable Topics counter: flag rows where the stored value
/// disagrees with `expected` over the topic's posts, and rewrite it.
fn topic_counter_rule(
    name: &'static str,
    column: &'static str,
    expected: fn(&Schema, &[Row]) -> i64,
) -> CheckRule {
    let compute = move |db: &Database, topic_id: i64| -> Option<i64> {
        let schema = db.schema("posts").ok()?;
        let rows: Vec<Row> = db
            .dump_table("posts")
            .ok()?
            .into_iter()
            .filter(|(_, r)| r.get_int(&schema, "topic_id").ok() == Some(topic_id))
            .map(|(_, r)| r)
            .collect();
        Some(expected(&schema, &rows))
    };
    CheckRule::new(name, move |db| {
        let (Ok(topics), Ok(schema)) = (db.dump_table("topics"), db.schema("topics")) else {
            return Vec::new();
        };
        topics
            .iter()
            .filter_map(|(id, row)| {
                let actual = row.get_int(&schema, column).ok()?;
                let want = compute(db, *id)?;
                (actual != want).then(|| Violation {
                    rule: name.to_string(),
                    table: "topics".to_string(),
                    row_id: *id,
                    message: format!("{column} = {actual}, posts say {want}"),
                })
            })
            .collect()
    })
    .with_fix(move |db, v| {
        let Some(want) = compute(db, v.row_id) else {
            return false;
        };
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("topics", v.row_id, &[(column, want.into())])
        })
        .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(mode: Mode) -> Discourse {
        let app = Discourse::studied(mode);
        app.seed_topic(1).unwrap();
        app
    }

    #[test]
    fn create_post_and_toggle_answer_commute_in_adhoc_mode() {
        let app = Arc::new(fixture(Mode::AdHoc));
        let p = app.seed_post(1, "seed", 0).unwrap();
        std::thread::scope(|s| {
            let a = Arc::clone(&app);
            s.spawn(move || {
                for _ in 0..20 {
                    a.create_post(1, "x").unwrap();
                }
            });
            let b = Arc::clone(&app);
            s.spawn(move || {
                for _ in 0..20 {
                    b.toggle_answer(1, p).unwrap();
                }
            });
        });
        assert!(app.topic_posts_consistent(1).unwrap());
        assert_eq!(
            app.orm
                .find_required("topics", 1)
                .unwrap()
                .get_int("answer")
                .unwrap(),
            p
        );
    }

    #[test]
    fn edit_post_flow_detects_conflicts() {
        let app = fixture(Mode::AdHoc);
        let p = app.seed_post(1, "original", 0).unwrap();
        let alice = app.begin_edit(p).unwrap();
        let bob = app.begin_edit(p).unwrap();
        assert_eq!(
            app.commit_edit(&alice, "alice's edit").unwrap(),
            EditOutcome::Success
        );
        assert_eq!(
            app.commit_edit(&bob, "bob's edit").unwrap(),
            EditOutcome::Conflict,
            "bob must not overwrite alice"
        );
        let post = app.orm.find_required("posts", p).unwrap();
        assert_eq!(post.get_str("content").unwrap(), "alice's edit");
        // View counter advanced twice and was not rolled back by the
        // conflict (§3.1.2: "the view count increment … cannot be rolled
        // back").
        assert_eq!(post.get_int("view_cnt").unwrap(), 2);
    }

    #[test]
    fn content_validation_ignores_view_count_bumps() {
        let app = fixture(Mode::AdHoc);
        let p = app.seed_post(1, "original", 0).unwrap();
        let token = app.begin_edit(p).unwrap();
        // A flood of concurrent views (view_cnt moves, content does not).
        for _ in 0..5 {
            app.begin_edit(p).unwrap();
        }
        assert_eq!(
            app.commit_edit_by_content(&token, "edited").unwrap(),
            EditOutcome::Success,
            "§3.3.2: view_cnt changes must not conflict with content edits"
        );
    }

    #[test]
    fn lock_after_read_loses_concurrent_edits() {
        // §4.1.1 [76]: with the buggy order, two concurrent commits based
        // on the same token can both "succeed".
        let app = Arc::new(fixture(Mode::AdHoc).lock_after_read());
        let mut double_success = false;
        for round in 0..200 {
            let p = app.seed_post(1, &format!("orig-{round}"), 0).unwrap();
            let t1 = app.begin_edit(p).unwrap();
            let t2 = EditToken {
                post_id: t1.post_id,
                content: t1.content.clone(),
                ver: t1.ver,
            };
            let (r1, r2) = std::thread::scope(|s| {
                let a = Arc::clone(&app);
                let h1 = s.spawn(move || a.commit_edit(&t1, "edit-one").unwrap());
                let b = Arc::clone(&app);
                let h2 = s.spawn(move || b.commit_edit(&t2, "edit-two").unwrap());
                (h1.join().unwrap(), h2.join().unwrap())
            });
            if r1 == EditOutcome::Success && r2 == EditOutcome::Success {
                double_success = true;
                break;
            }
        }
        assert!(
            double_success,
            "the lock-after-read bug must allow double success"
        );
    }

    #[test]
    fn correct_edit_order_never_double_succeeds() {
        let app = Arc::new(fixture(Mode::AdHoc));
        for round in 0..50 {
            let p = app.seed_post(1, &format!("orig-{round}"), 0).unwrap();
            let t1 = app.begin_edit(p).unwrap();
            let t2 = EditToken {
                post_id: t1.post_id,
                content: t1.content.clone(),
                ver: t1.ver,
            };
            let (r1, r2) = std::thread::scope(|s| {
                let a = Arc::clone(&app);
                let h1 = s.spawn(move || a.commit_edit(&t1, "edit-one").unwrap());
                let b = Arc::clone(&app);
                let h2 = s.spawn(move || b.commit_edit(&t2, "edit-two").unwrap());
                (h1.join().unwrap(), h2.join().unwrap())
            });
            assert!(
                !(r1 == EditOutcome::Success && r2 == EditOutcome::Success),
                "correct ordering must serialize the two edits"
            );
        }
    }

    #[test]
    fn shrink_image_strategies_all_converge_without_conflicts() {
        for strategy in [
            FailureHandling::Repair,
            FailureHandling::ErrorReturn, // DBT-S
            FailureHandling::DbtRollback, // DBT-W
            FailureHandling::ManualRollback,
        ] {
            let app = fixture(Mode::AdHoc);
            app.seed_image(1, 1000).unwrap();
            app.seed_image(2, 10).unwrap();
            for i in 0..8 {
                app.seed_post(1, &format!("post {i} img:1"), 1).unwrap();
            }
            let report = app.shrink_image(1, 2, strategy).unwrap();
            assert_eq!(report.rewritten, 8, "{strategy:?}");
            assert_eq!(report.restarts, 0, "{strategy:?}");
            assert!(app.no_posts_reference(1).unwrap(), "{strategy:?}");
        }
    }

    #[test]
    fn shrink_repair_survives_concurrent_edits() {
        let app = Arc::new(fixture(Mode::AdHoc));
        app.seed_image(1, 1000).unwrap();
        app.seed_image(2, 10).unwrap();
        let posts: Vec<i64> = (0..8)
            .map(|i| app.seed_post(1, &format!("post {i} img:1"), 1).unwrap())
            .collect();
        std::thread::scope(|s| {
            let a = Arc::clone(&app);
            s.spawn(move || {
                a.shrink_image(1, 2, FailureHandling::Repair).unwrap();
            });
            let b = Arc::clone(&app);
            let target = posts[3];
            s.spawn(move || {
                for i in 0..10 {
                    let token = b.begin_edit(target).unwrap();
                    let _ = b.commit_edit(&token, &format!("edited {i} img:1")).unwrap();
                }
            });
        });
        // A final repair pass catches edits that re-introduced img:1 after
        // the shrinker finished (production runs this periodically).
        app.shrink_image(1, 2, FailureHandling::Repair).unwrap();
        assert!(app.no_posts_reference(1).unwrap());
    }

    #[test]
    fn incomplete_repair_leaves_dangling_references() {
        // §4.3 [64]: a post created *during* the shrink that references the
        // old image is missed by the buggy repair.
        let app = fixture(Mode::AdHoc).incomplete_repair();
        app.seed_image(1, 1000).unwrap();
        app.seed_image(2, 10).unwrap();
        app.seed_post(1, "old img:1", 1).unwrap();
        // Simulate the mid-run arrival by inserting between query and sweep:
        // with the buggy variant there is no sweep, so a post added now
        // (after posts_using ran inside shrink) stays dangling. We model it
        // by adding the post, running the shrink, then adding another and
        // NOT being able to catch it without the sweep.
        app.shrink_image(1, 2, FailureHandling::Repair).unwrap();
        app.seed_post(1, "late img:1", 1).unwrap();
        // The buggy shrink has already finished; the late post dangles.
        assert!(!app.no_posts_reference(1).unwrap());
        // The fixed variant's sweep (a fresh run) picks it up.
        let fixed = fixture(Mode::AdHoc);
        let _ = fixed; // (fresh app only to satisfy the naming)
        app.shrink_image(1, 2, FailureHandling::Repair).unwrap();
        // Note: the buggy app still skips the sweep but the initial query
        // of the *new* run sees the late post.
        assert!(app.no_posts_reference(1).unwrap());
    }

    #[test]
    fn reviewable_atomic_validation_works() {
        let app = fixture(Mode::AdHoc);
        app.orm
            .create(
                "reviewables",
                &[("id", 1.into()), ("version", 0.into()), ("score", 0.into())],
            )
            .unwrap();
        assert_eq!(
            app.update_reviewable(1, true).unwrap(),
            CommitOutcome::Committed
        );
        let r = app.orm.find_required("reviewables", 1).unwrap();
        assert_eq!(r.get_int("version").unwrap(), 1);
        assert_eq!(r.get_int("score").unwrap(), 1);
        // The non-atomic variant also "works" sequentially — which is what
        // kept the Discourse bug latent.
        assert_eq!(
            app.update_reviewable(1, false).unwrap(),
            CommitOutcome::Committed
        );
    }
    #[test]
    fn topic_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc);
        let fps: Vec<_> = (2..=7)
            .map(|id| {
                app.seed_topic(id).unwrap();
                crate::observed_footprint(&app.orm, |t| {
                    t.raw().update("topics", id, &[("total_likes", 0.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
