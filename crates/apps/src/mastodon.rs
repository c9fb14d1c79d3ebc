//! Mastodon (Ruby/Active Record + Redis): posts, timelines, invites, polls.
//!
//! Scenarios reproduced:
//! * **§3.1.3** — `create_post`/`delete_post` coordinate an RDBMS insert
//!   with a Redis timeline-set update under one post lock (coordination of
//!   database and non-database operations).
//! * **Figure 1b** — `redeem_invite`: a Redis `SETNX` lock around the
//!   invitation read–modify–write.
//! * **Figure 1c** — `vote`: the optimistic retry loop over
//!   `UPDATE … WHERE id = ? AND ver = ?`.
//! * **§4.1.1 (issue \[65\]) / Table 5b** — every Mastodon lock has lease
//!   semantics (Redis TTL) and the application never checks expiry;
//!   `critical_section_delay` lets tests stretch the critical section past
//!   the TTL, producing the "deleted posts appearing in timelines" class
//!   of inconsistency.

use crate::{Mode, Result, DBT_RETRIES};
use adhoc_core::checker::{CheckRule, ConsistencyChecker, Report, Violation};
use adhoc_core::locks::{AdHocLock, KvSetNxLock};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{Coordinator, EntityDef, Orm, OrmError, Registry};
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Create Mastodon's tables and entity registry.
pub fn setup(db: &Database) -> Result<Orm> {
    db.create_table(Schema::new(
        "posts",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("content", ColumnType::Str),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "invites",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("redeems", ColumnType::Int),
            Column::new("max_redeems", ColumnType::Int),
            // Remaining redemptions, the escrow budget column: seeded to
            // max_redeems and decremented alongside each redeem, so
            // `redeems <= max_redeems` becomes `slots >= 0` — the shape
            // escrow reservations enforce without a lock. Only the
            // Confluent path maintains it; the other modes guard the
            // invariant with their own coordination.
            Column::new("slots", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(Schema::new(
        "polls",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("tally_a", ColumnType::Int),
            Column::new("tally_b", ColumnType::Int),
            Column::new("ver", ColumnType::Int),
        ],
        "id",
    )?)?;
    db.create_table(
        Schema::new(
            "notifications",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("user_id", ColumnType::Int),
                Column::new("event", ColumnType::Str),
            ],
            "id",
        )?
        .with_index("user_id")?,
    )?;
    // Per-user unread badge, maintained as a commutative delta column by
    // the Confluent notification path (one row per user, keyed by user id).
    db.create_table(Schema::new(
        "notify_counts",
        vec![
            Column::new("user_id", ColumnType::Int),
            Column::new("unread", ColumnType::Int),
        ],
        "user_id",
    )?)?;
    let registry = Registry::new()
        .register(EntityDef::new("posts"))
        .register(EntityDef::new("invites"))
        .register(EntityDef::new("polls"))
        .register(EntityDef::new("notifications"))
        .register(EntityDef::new("notify_counts"));
    Ok(Orm::new(db.clone(), registry))
}

/// A poll choice (tallies are two columns, like `{1: …, 2: …}` in Fig. 1c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The first option.
    A,
    /// The second option.
    B,
}

/// The Mastodon application model.
pub struct Mastodon {
    orm: Orm,
    kv: adhoc_kv::Client,
    lock: Arc<dyn AdHocLock>,
    coord: Coordinator,
    mode: Mode,
    /// Stretches critical sections (past a lease TTL, when injected).
    pub critical_section_delay: Duration,
}

impl Mastodon {
    /// Build the application model over `orm`, coordinating with `lock` in the given [`Mode`].
    pub fn new(orm: Orm, kv: adhoc_kv::Client, lock: Arc<dyn AdHocLock>, mode: Mode) -> Self {
        let coord = Coordinator::new(orm.db().clone());
        Self {
            orm,
            kv,
            lock,
            coord,
            mode,
            critical_section_delay: Duration::ZERO,
        }
    }

    /// The studied stack (Table 2): a fresh PostgreSQL-like engine, `kv`
    /// for the timelines and the `SETNX` lock over it.
    pub fn studied(kv: adhoc_kv::Client, mode: Mode) -> Self {
        let lock = Arc::new(KvSetNxLock::new(kv.clone()));
        Self::new(
            crate::fresh(EngineProfile::PostgresLike, setup),
            kv,
            lock,
            mode,
        )
    }

    /// Stretch every critical section by `d` (drives the lease-expiry scenarios).
    pub fn with_critical_section_delay(mut self, d: Duration) -> Self {
        self.critical_section_delay = d;
        self
    }

    /// The underlying ORM handle (for assertions and seeding).
    pub fn orm(&self) -> &Orm {
        &self.orm
    }

    /// The Redis-like client (for assertions and checkers).
    pub fn kv(&self) -> &adhoc_kv::Client {
        &self.kv
    }

    /// Seed an invitation with a redemption limit.
    pub fn seed_invite(&self, invite_id: i64, max_redeems: i64) -> Result<()> {
        self.orm.create(
            "invites",
            &[
                ("id", invite_id.into()),
                ("redeems", 0.into()),
                ("max_redeems", max_redeems.into()),
                ("slots", max_redeems.into()),
            ],
        )?;
        Ok(())
    }

    /// Seed a poll with empty tallies.
    pub fn seed_poll(&self, poll_id: i64) -> Result<()> {
        self.orm.create(
            "polls",
            &[
                ("id", poll_id.into()),
                ("tally_a", 0.into()),
                ("tally_b", 0.into()),
                ("ver", 0.into()),
            ],
        )?;
        Ok(())
    }

    fn timeline_key(follower_id: i64) -> String {
        format!("timeline:{follower_id}")
    }

    /// §3.1.3: insert the post row and add its id to the follower's Redis
    /// timeline, under one post lock.
    pub fn create_post(&self, follower_id: i64, post_id: i64, content: &str) -> Result<()> {
        if self.mode.on_cured_layer() {
            // §7 cure for the §4.1.1 lease bug: the façade's user lock has
            // ownership semantics, not a TTL — it cannot silently expire
            // mid-critical-section, however long the section runs.
            let guard = self.coord.user_lock(&format!("post:{post_id}"))?;
            self.orm.create(
                "posts",
                &[("id", post_id.into()), ("content", content.into())],
            )?;
            std::thread::sleep(self.critical_section_delay);
            self.kv
                .sadd(&Self::timeline_key(follower_id), &post_id.to_string())
                .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
            guard.unlock()?;
            return Ok(());
        }
        let guard = self.lock.lock(&format!("post:{post_id}"))?;
        self.orm.create(
            "posts",
            &[("id", post_id.into()), ("content", content.into())],
        )?;
        std::thread::sleep(self.critical_section_delay);
        self.kv
            .sadd(&Self::timeline_key(follower_id), &post_id.to_string())
            .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
        // Mastodon releases unconditionally; an expired lease makes this a
        // no-op (the Guard refuses to clobber the next holder).
        let _ = guard.unlock();
        Ok(())
    }

    /// §3.1.3: remove the timeline entry, then the post row.
    pub fn delete_post(&self, follower_id: i64, post_id: i64) -> Result<()> {
        if self.mode.on_cured_layer() {
            let guard = self.coord.user_lock(&format!("post:{post_id}"))?;
            self.kv
                .srem(&Self::timeline_key(follower_id), &post_id.to_string())
                .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
            std::thread::sleep(self.critical_section_delay);
            self.orm.delete("posts", post_id)?;
            guard.unlock()?;
            return Ok(());
        }
        let guard = self.lock.lock(&format!("post:{post_id}"))?;
        self.kv
            .srem(&Self::timeline_key(follower_id), &post_id.to_string())
            .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
        std::thread::sleep(self.critical_section_delay);
        self.orm.delete("posts", post_id)?;
        let _ = guard.unlock();
        Ok(())
    }

    /// The follower's timeline (post ids).
    pub fn timeline(&self, follower_id: i64) -> Result<Vec<i64>> {
        let members = self
            .kv
            .smembers(&Self::timeline_key(follower_id))
            .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
        Ok(members.iter().filter_map(|m| m.parse().ok()).collect())
    }

    /// Invariant (§3.1.3): every timeline id references a live post row.
    pub fn timeline_consistent(&self, follower_id: i64) -> Result<bool> {
        for post_id in self.timeline(follower_id)? {
            if self.orm.find("posts", post_id)?.is_none() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Figure 1b: redeem an invitation; `false` when exhausted.
    pub fn redeem_invite(&self, invite_id: i64) -> Result<bool> {
        match self.mode {
            Mode::AdHoc => {
                let guard = self.lock.lock(&format!("redeem:{invite_id}"))?;
                let invite = self.orm.find_required("invites", invite_id)?;
                let redeems = invite.get_int("redeems")?;
                let max = invite.get_int("max_redeems")?;
                std::thread::sleep(self.critical_section_delay);
                let ok = if redeems < max {
                    self.orm.transaction(|t| {
                        t.raw().update(
                            "invites",
                            invite_id,
                            &[("redeems", (redeems + 1).into())],
                        )?;
                        Ok(())
                    })?;
                    true
                } else {
                    false
                };
                // Fig. 1b deletes the lock key unconditionally; our Guard
                // does the owner-checked equivalent (the unchecked variant
                // is covered by the lock's own fault switch).
                let _ = guard.unlock();
                Ok(ok)
            }
            Mode::DatabaseTxn => {
                let schema = self.orm.db().schema("invites")?;
                Ok(self.orm.db().run_with_retries(
                    IsolationLevel::Serializable,
                    DBT_RETRIES,
                    |t| {
                        let invite = t.get("invites", invite_id)?.ok_or(DbError::NoSuchRow {
                            table: "invites".into(),
                            id: invite_id,
                        })?;
                        let redeems = invite.get_int(&schema, "redeems")?;
                        let max = invite.get_int(&schema, "max_redeems")?;
                        if redeems >= max {
                            return Ok(false);
                        }
                        t.update("invites", invite_id, &[("redeems", (redeems + 1).into())])?;
                        Ok(true)
                    },
                )?)
            }
            Mode::Confluent => {
                // `redeems <= max_redeems` is not confluent, but as the
                // budget `slots >= 0` it admits escrow: reserve one slot
                // (a lock-free atomic — contenders only serialize near
                // exhaustion), then commit both commutative deltas and
                // confirm. Exhaustion is the business answer "invite used
                // up", not a conflict to retry.
                let reservation = match self.coord.reserve("invites", invite_id, "slots", 1) {
                    Ok(r) => r,
                    Err(OrmError::Db(DbError::EscrowExhausted { .. })) => return Ok(false),
                    Err(e) => return Err(e.into()),
                };
                std::thread::sleep(self.critical_section_delay);
                self.orm.transaction(|t| {
                    t.raw().add_delta("invites", invite_id, "slots", -1)?;
                    t.raw().add_delta("invites", invite_id, "redeems", 1)?;
                    Ok(())
                })?;
                reservation.confirm();
                Ok(true)
            }
            Mode::Cured => {
                // §7 cure for Fig. 1b: no lock, no TTL to get wrong — one
                // optimistic validate-and-commit over exactly the columns
                // the limit check reads. The stretch delay sits between
                // read and commit; a stale read surfaces as a conflict and
                // retries instead of over-redeeming.
                Ok(run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                    let invite = occ
                        .read_fields(&self.orm, "invites", invite_id, &["redeems", "max_redeems"])?
                        .ok_or(OrmError::RecordNotFound {
                            entity: "invites".into(),
                            id: invite_id,
                        })?;
                    let redeems = invite.get_int("redeems")?;
                    let max = invite.get_int("max_redeems")?;
                    std::thread::sleep(self.critical_section_delay);
                    if redeems >= max {
                        return Ok(false);
                    }
                    occ.stage_update("invites", invite_id, &[("redeems", (redeems + 1).into())]);
                    Ok(true)
                })?)
            }
        }
    }

    /// Deliver a notification at most once per (user, event) — the
    /// `mastodon/notification-dedupe` case. Coordination is lock-free: a
    /// `SETNX` marker *is* the uniqueness check (the winner delivers), a
    /// different use of the same primitive the locks build on.
    pub fn notify_once(&self, user_id: i64, event: &str) -> Result<bool> {
        let marker = format!("notified:{user_id}:{event}");
        let won = self
            .kv
            .set_nx(&marker, "1")
            .map_err(|e| adhoc_core::LockError::Backend(e.to_string()))?;
        if !won {
            return Ok(false); // someone already delivered this event
        }
        self.orm.create(
            "notifications",
            &[("user_id", user_id.into()), ("event", event.into())],
        )?;
        if self.mode == Mode::Confluent {
            // The unread badge is a confluent counter: concurrent
            // deliveries to the same user bump it with commutative deltas
            // and never contend. A crash between the insert above and
            // this bump leaves the badge one behind — boot-fsck's
            // counter-sync rule recomputes it from the rows.
            self.bump_unread(user_id)?;
        }
        Ok(true)
    }

    /// Bump the per-user unread badge by one, creating the counter row on
    /// first use (the create race resolves to a retryable delta).
    fn bump_unread(&self, user_id: i64) -> Result<()> {
        let bump = self.orm.transaction(|t| {
            t.raw().add_delta("notify_counts", user_id, "unread", 1)?;
            Ok(())
        });
        match bump {
            Err(OrmError::Db(DbError::NoSuchRow { .. })) => {
                match self.orm.create(
                    "notify_counts",
                    &[("user_id", user_id.into()), ("unread", 0.into())],
                ) {
                    Ok(_) | Err(OrmError::Db(DbError::UniqueViolation { .. })) => {}
                    Err(e) => return Err(e.into()),
                }
                self.orm.transaction(|t| {
                    t.raw().add_delta("notify_counts", user_id, "unread", 1)?;
                    Ok(())
                })?;
                Ok(())
            }
            other => Ok(other?),
        }
    }

    /// The uncoordinated variant: check the table, then insert — the
    /// check-then-act window admits duplicates.
    pub fn notify_unchecked(&self, user_id: i64, event: &str) -> Result<bool> {
        let schema = self.orm.db().schema("notifications")?;
        let existing = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("notifications", &Predicate::eq("user_id", user_id))?)
        })?;
        for (_, row) in &existing {
            if row.get_str(&schema, "event")? == event {
                return Ok(false);
            }
        }
        std::thread::yield_now(); // the race window
        self.orm.create(
            "notifications",
            &[("user_id", user_id.into()), ("event", event.into())],
        )?;
        Ok(true)
    }

    /// Invariant: no (user, event) pair is notified twice.
    pub fn notifications_unique(&self, user_id: i64) -> Result<bool> {
        let schema = self.orm.db().schema("notifications")?;
        let rows = self.orm.transaction(|t| {
            Ok(t.raw()
                .scan("notifications", &Predicate::eq("user_id", user_id))?)
        })?;
        let mut events: Vec<String> = rows
            .iter()
            .map(|(_, row)| row.get_str(&schema, "event"))
            .collect::<std::result::Result<_, _>>()?;
        let before = events.len();
        events.sort_unstable();
        events.dedup();
        Ok(events.len() == before)
    }

    /// Invariant (Fig. 1b): an invitation is never redeemed past its max.
    pub fn invite_within_limit(&self, invite_id: i64) -> Result<bool> {
        let invite = self.orm.find_required("invites", invite_id)?;
        Ok(invite.get_int("redeems")? <= invite.get_int("max_redeems")?)
    }

    /// Figure 1c: optimistic vote with the version-checked retry loop.
    pub fn vote(&self, poll_id: i64, choice: Choice) -> Result<()> {
        if self.mode == Mode::Confluent {
            // Tallies are pure counters — invariant-confluent. One
            // commutative delta replaces Fig. 1c's whole version-checked
            // retry loop: concurrent votes (same choice or not) merge at
            // install, so there is nothing to validate and nothing to
            // retry.
            let col = match choice {
                Choice::A => "tally_a",
                Choice::B => "tally_b",
            };
            self.orm.transaction(|t| {
                t.raw().add_delta("polls", poll_id, col, 1)?;
                Ok(())
            })?;
            return Ok(());
        }
        if self.mode == Mode::Cured {
            // §7 cure for Fig. 1c: the declarative loop replaces the
            // hand-rolled one, and the field-granular footprint beats the
            // `ver` column — A-votes and B-votes no longer conflict at all.
            let col = match choice {
                Choice::A => "tally_a",
                Choice::B => "tally_b",
            };
            run_occ(&self.orm, &crate::cured_policy(), None, |occ| {
                let poll = occ
                    .read_fields(&self.orm, "polls", poll_id, &[col])?
                    .ok_or(OrmError::RecordNotFound {
                        entity: "polls".into(),
                        id: poll_id,
                    })?;
                let tally = poll.get_int(col)?;
                occ.stage_update("polls", poll_id, &[(col, (tally + 1).into())]);
                Ok(())
            })?;
            return Ok(());
        }
        loop {
            let poll = self.orm.find_required("polls", poll_id)?;
            let ver = poll.get_int("ver")?;
            let (col, tally) = match choice {
                Choice::A => ("tally_a", poll.get_int("tally_a")?),
                Choice::B => ("tally_b", poll.get_int("tally_b")?),
            };
            let pred = Predicate::And(vec![
                Predicate::eq("id", poll_id),
                Predicate::eq("ver", ver),
            ]);
            let affected = self.orm.transaction(|t| {
                Ok(t.raw().update_where(
                    "polls",
                    &pred,
                    &[(col, (tally + 1).into()), ("ver", (ver + 1).into())],
                )?)
            })?;
            if affected == 1 {
                return Ok(());
            }
            // Validation failed: loop and retry with fresh state (Fig. 1c).
        }
    }

    /// Total votes recorded for a poll.
    pub fn poll_totals(&self, poll_id: i64) -> Result<(i64, i64)> {
        let poll = self.orm.find_required("polls", poll_id)?;
        Ok((poll.get_int("tally_a")?, poll.get_int("tally_b")?))
    }

    /// Run [`boot_fsck`] against this instance's database.
    pub fn recover_on_boot(&self) -> Report {
        boot_fsck().run_and_fix(self.orm.db())
    }
}

/// Mastodon's boot-time recovery pass: a crash (or an ambiguous commit
/// retried) in the unchecked notification path can deliver the same
/// (user, event) twice; boot keeps the earliest row and deletes the rest.
/// The Redis-side timeline is volatile state the app rebuilds lazily — the
/// database rules here cover only what survives a restart.
pub fn boot_fsck() -> ConsistencyChecker {
    ConsistencyChecker::new()
        .rule(duplicate_notification_rule())
        .rule(unread_counter_sync_rule())
}

/// The Confluent path's unread badge is a delta column fed by a separate
/// transaction from the notification insert, so a crash between them
/// leaves the badge out of sync with the rows. The rule *recomputes* the
/// expected value instead of flagging the delta column as corruption:
/// any drift (behind after a crash, ahead after a lost insert) is
/// repaired to the row count.
fn unread_counter_sync_rule() -> CheckRule {
    let name = "mastodon:unread-counter-sync";
    CheckRule::new(name, move |db| {
        let (Ok(counts), Ok(schema)) = (db.dump_table("notify_counts"), db.schema("notify_counts"))
        else {
            return Vec::new();
        };
        let (Ok(rows), Ok(nschema)) = (db.dump_table("notifications"), db.schema("notifications"))
        else {
            return Vec::new();
        };
        counts
            .iter()
            .filter_map(|(user_id, row)| {
                let unread = row.get_int(&schema, "unread").ok()?;
                let actual = rows
                    .iter()
                    .filter(|(_, n)| n.get_int(&nschema, "user_id") == Ok(*user_id))
                    .count() as i64;
                (unread != actual).then(|| Violation {
                    rule: name.to_string(),
                    table: "notify_counts".to_string(),
                    row_id: *user_id,
                    message: format!(
                        "unread badge {unread} for user {user_id} but {actual} notification rows"
                    ),
                })
            })
            .collect()
    })
    .with_fix(|db, v| {
        let Ok(schema) = db.schema("notifications") else {
            return false;
        };
        let Ok(rows) = db.dump_table("notifications") else {
            return false;
        };
        let actual = rows
            .iter()
            .filter(|(_, n)| n.get_int(&schema, "user_id") == Ok(v.row_id))
            .count() as i64;
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update(&v.table, v.row_id, &[("unread", actual.into())])
        })
        .is_ok()
    })
}

/// Flag every notification whose (user, event) pair already appeared on a
/// lower id, and delete it on fix.
fn duplicate_notification_rule() -> CheckRule {
    let name = "mastodon:notifications-unique";
    CheckRule::new(name, move |db| {
        let (Ok(mut rows), Ok(schema)) =
            (db.dump_table("notifications"), db.schema("notifications"))
        else {
            return Vec::new();
        };
        rows.sort_by_key(|(id, _)| *id);
        let mut seen: HashSet<(i64, String)> = HashSet::new();
        rows.iter()
            .filter_map(|(id, row)| {
                let key = (
                    row.get_int(&schema, "user_id").ok()?,
                    row.get_str(&schema, "event").ok()?,
                );
                (!seen.insert(key.clone())).then(|| Violation {
                    rule: name.to_string(),
                    table: "notifications".to_string(),
                    row_id: *id,
                    message: format!("duplicate notification {:?} for user {}", key.1, key.0),
                })
            })
            .collect()
    })
    .with_fix(|db, v| {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.delete(&v.table, v.row_id)
        })
        .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::MemLock;
    use adhoc_kv::{Client, Store};
    use adhoc_sim::{LatencyModel, RealClock};

    fn fixture(mode: Mode) -> Mastodon {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        Mastodon::new(orm, kv, Arc::new(MemLock::new()), mode)
    }

    #[test]
    fn notifications_deduplicate_via_setnx() {
        let app = Arc::new(fixture(Mode::AdHoc));
        let delivered: usize = std::thread::scope(|s| {
            (0..6)
                .map(|_| {
                    let app = Arc::clone(&app);
                    s.spawn(move || app.notify_once(7, "mention:42").unwrap() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(delivered, 1, "exactly one winner delivers");
        assert!(app.notifications_unique(7).unwrap());
        // A different event for the same user still goes through.
        assert!(app.notify_once(7, "follow:9").unwrap());
        assert!(app.notifications_unique(7).unwrap());
    }

    #[test]
    fn unchecked_notifications_can_duplicate() {
        let mut duplicated = false;
        for _ in 0..200 {
            let app = Arc::new(fixture(Mode::AdHoc));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let app = Arc::clone(&app);
                    s.spawn(move || {
                        let _ = app.notify_unchecked(7, "mention:42").unwrap();
                    });
                }
            });
            if !app.notifications_unique(7).unwrap() {
                duplicated = true;
                break;
            }
        }
        assert!(
            duplicated,
            "the check-then-act window must admit duplicates"
        );
    }

    #[test]
    fn timeline_tracks_posts() {
        let app = fixture(Mode::AdHoc);
        app.create_post(7, 1, "hello").unwrap();
        app.create_post(7, 2, "world").unwrap();
        assert_eq!(app.timeline(7).unwrap(), vec![1, 2]);
        assert!(app.timeline_consistent(7).unwrap());
        app.delete_post(7, 1).unwrap();
        assert_eq!(app.timeline(7).unwrap(), vec![2]);
        assert!(app.timeline_consistent(7).unwrap());
    }

    #[test]
    fn expired_lease_with_unchecked_expiry_overuses_invites() {
        // §4.1.1 [65]: the TTL is shorter than the critical section and
        // nobody checks `is_valid` — two redeemers read the same count.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let lease = KvSetNxLock::new(kv.clone()).with_ttl(Duration::from_millis(5));
        let app = Arc::new(
            Mastodon::new(orm, kv, Arc::new(lease), Mode::AdHoc)
                .with_critical_section_delay(Duration::from_millis(12)),
        );
        app.seed_invite(1, 1).unwrap();
        let successes: usize = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let app = Arc::clone(&app);
                    s.spawn(move || app.redeem_invite(1).unwrap() as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert!(
            successes > 1,
            "expired leases must let multiple redeemers through (got {successes})"
        );
    }

    #[test]
    fn expired_lease_breaks_timeline_consistency() {
        // The Table 5b consequence: deleted posts shown in timelines.
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = setup(&db).unwrap();
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let lease = KvSetNxLock::new(kv.clone()).with_ttl(Duration::from_millis(4));
        let app = Arc::new(
            Mastodon::new(orm, kv, Arc::new(lease), Mode::AdHoc)
                .with_critical_section_delay(Duration::from_millis(10)),
        );
        let mut broken = false;
        for post_id in 0..20 {
            // create & delete race on the same post id: with the lease
            // expiring mid-create, delete interleaves between the DB insert
            // and the timeline add, leaving a dangling timeline entry.
            std::thread::scope(|s| {
                let a = Arc::clone(&app);
                s.spawn(move || {
                    a.create_post(7, post_id, "x").unwrap();
                });
                let b = Arc::clone(&app);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(6));
                    let _ = b.delete_post(7, post_id);
                });
            });
            if !app.timeline_consistent(7).unwrap() {
                broken = true;
                break;
            }
        }
        assert!(
            broken,
            "an expired lease must eventually dangle a timeline entry"
        );
    }

    #[test]
    fn poll_votes_are_never_lost() {
        let app = Arc::new(fixture(Mode::AdHoc));
        app.seed_poll(1).unwrap();
        std::thread::scope(|s| {
            for t in 0..6 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    for _ in 0..20 {
                        app.vote(1, if t % 2 == 0 { Choice::A } else { Choice::B })
                            .unwrap();
                    }
                });
            }
        });
        let (a, b) = app.poll_totals(1).unwrap();
        assert_eq!(a, 60);
        assert_eq!(b, 60);
        assert_eq!(
            app.orm
                .find_required("polls", 1)
                .unwrap()
                .get_int("ver")
                .unwrap(),
            120
        );
    }
    #[test]
    fn invite_row_footprints_are_localized_and_independent() {
        let app = fixture(Mode::AdHoc);
        let fps: Vec<_> = (1..=6)
            .map(|id| {
                app.seed_invite(id, 5).unwrap();
                crate::observed_footprint(&app.orm, |t| {
                    t.raw().update("invites", id, &[("redeems", 0.into())])?;
                    Ok(())
                })
                .unwrap()
                .1
            })
            .collect();
        crate::test_support::assert_localized_and_independent(&fps);
    }
}
