//! Boot-time crash recovery: replay a write-ahead log image into a fresh
//! database.
//!
//! The restart story the oracle harness exercises (§3.4.2 of the paper —
//! what actually happens to an application's state when the process dies
//! mid-commit):
//!
//! 1. The old process dies. Everything volatile — version chains, the lock
//!    table, the acked-but-unsynced WAL tail — is gone. What survives is
//!    the durable part of what the WAL holds
//!    ([`Wal::durable_bytes`](crate::wal::Wal)): the bytes from the start
//!    of the last truncated-to checkpoint (or from the beginning, before
//!    any) up to the fsync watermark.
//! 2. A new process boots, re-creates its schema (application setup code),
//!    and calls [`recover`] with the surviving bytes.
//! 3. Recovery decodes the stream, truncating at the first torn or corrupt
//!    frame. It loads the rows of every checkpoint whose end frame
//!    survived, ignores the frames of one cut off before its end (the log
//!    it would have replaced is still there), and replays each intact
//!    commit record's writes. Each row keeps its newest commit timestamp,
//!    so the records a checkpoint raced, on either side of it, replay
//!    over its images correctly. A commit is all-or-nothing: its record
//!    either passed its CRC (every write replays) or it didn't (none do).
//!    A database with a WAL of its own then checkpoints what it
//!    recovered, so a second crash finds it in that log.
//! 4. The application then runs its domain-level boot checker
//!    (`recover_on_boot`) to repair states that are *transactionally*
//!    consistent but semantically stuck — a payment acknowledged as
//!    `processing`, a counter behind its rows. The engine cannot see those;
//!    only the app's invariants can.
//!
//! Replay bypasses the statement path entirely (no yield points, no
//! latency charges, no observers) — boot work is not workload, and adding
//! scheduler points here would shift every pinned interleaving witness.

use crate::db::Database;
use crate::error::DbError;
use crate::schema::Row;
use crate::table::CommitTs;
use crate::wal::{decode_stream, WalTail};
use crate::Result;

/// What one recovery pass did, for assertions and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact commit records replayed.
    pub records_applied: u64,
    /// Row images loaded from complete checkpoints.
    pub checkpoint_rows: u64,
    /// Row writes and images installed: those older than the row's
    /// version already installed are skipped.
    pub writes_applied: u64,
    /// Highest commit timestamp restored (0 when the log was empty).
    pub max_commit_ts: CommitTs,
    /// How the byte stream ended.
    pub tail: WalTail,
    /// Bytes discarded after the last intact frame (torn-tail rule).
    pub bytes_truncated: usize,
}

impl RecoveryReport {
    /// Whether the log ended on a frame boundary (nothing truncated).
    pub fn clean(&self) -> bool {
        matches!(self.tail, WalTail::Clean)
    }
}

/// Replay a WAL image into `db`, which must already hold the schema the
/// log's writes refer to (tables are identified by name) and should hold
/// no committed row state — recovery is a boot activity, not a merge.
///
/// Errors only when the log names a table the database does not have:
/// that is a harness bug (setup ran a different schema), not a torn tail,
/// and silently skipping it would fake durability.
pub fn recover(db: &Database, bytes: &[u8]) -> Result<RecoveryReport> {
    let image = decode_stream(bytes);
    let truncated_at = match image.tail {
        WalTail::Clean => bytes.len(),
        WalTail::Torn { at } | WalTail::Corrupt { at } => at,
    };
    let mut report = RecoveryReport {
        records_applied: image.records.len() as u64,
        checkpoint_rows: image.checkpoint.len() as u64,
        writes_applied: 0,
        max_commit_ts: (image.records.iter().map(|r| r.commit_ts))
            .chain(image.checkpoint.iter().map(|r| r.commit_ts))
            .max()
            .unwrap_or(0),
        tail: image.tail,
        bytes_truncated: bytes.len() - truncated_at,
    };
    let images = image.checkpoint.into_iter().map(|r| (r.commit_ts, r.write));
    let writes = image.records.into_iter().flat_map(|record| {
        let ts = record.commit_ts;
        record.writes.into_iter().map(move |w| (ts, w))
    });
    for (commit_ts, write) in images.chain(writes) {
        let table = db
            .resolve_table(&write.table)
            .map_err(|_| DbError::RecoveryFailed {
                table: write.table.clone(),
            })?;
        if db.install_recovered(table, write.id, commit_ts, write.row.map(Row::new)) {
            report.writes_applied += 1;
        }
    }
    if report.max_commit_ts > 0 {
        db.note_recovered_ts(report.max_commit_ts);
        // The recovered rows are in no record of this database's own log:
        // a checkpoint puts them there before a second crash can lose them.
        db.checkpoint();
    }
    Ok(report)
}

/// Restart shorthand for harnesses: read the durable prefix of `crashed`'s
/// WAL and replay it into `reborn` (a fresh database whose application
/// setup already re-created the schema). Panics if `crashed` has no WAL —
/// a crash-recovery harness on a WAL-less database is testing nothing.
pub fn restart_from(crashed: &Database, reborn: &Database) -> Result<RecoveryReport> {
    let wal = crashed
        .wal()
        .expect("restart_from requires the crashed database to have a WAL");
    recover(reborn, &wal.durable_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DbConfig, EngineProfile};
    use crate::schema::{Column, ColumnType, Schema};
    use crate::IsolationLevel;

    fn wal_db() -> Database {
        let db = Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
        db.create_table(
            Schema::new(
                "accounts",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("balance", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn set_balance(db: &Database, id: i64, balance: i64) {
        db.run(IsolationLevel::ReadCommitted, |t| {
            if t.get("accounts", id)?.is_some() {
                t.update("accounts", id, &[("balance", balance.into())])
            } else {
                t.insert(
                    "accounts",
                    &[("id", id.into()), ("balance", balance.into())],
                )
                .map(|_| ())
            }
        })
        .unwrap();
    }

    fn balance(db: &Database, id: i64) -> Option<i64> {
        db.latest_committed("accounts", id)
            .unwrap()
            .map(|r| r.values[1].as_int())
    }

    #[test]
    fn replay_restores_committed_state_bit_for_bit() {
        let db = wal_db();
        set_balance(&db, 1, 100);
        set_balance(&db, 2, 250);
        set_balance(&db, 1, 75); // overwrite: replay must keep the latest

        let reborn = wal_db();
        let report = restart_from(&db, &reborn).unwrap();
        assert!(report.clean());
        assert_eq!(report.records_applied, 3);
        assert_eq!(balance(&reborn, 1), Some(75));
        assert_eq!(balance(&reborn, 2), Some(250));
    }

    #[test]
    fn deletes_replay_as_tombstones() {
        let db = wal_db();
        set_balance(&db, 1, 100);
        db.run(IsolationLevel::ReadCommitted, |t| t.delete("accounts", 1))
            .unwrap();

        let reborn = wal_db();
        restart_from(&db, &reborn).unwrap();
        assert_eq!(balance(&reborn, 1), None);
        // The id is also out of the index: a full scan sees no rows.
        assert!(reborn.dump_table("accounts").unwrap().is_empty());
    }

    #[test]
    fn recovered_database_accepts_new_commits_after_replay() {
        let db = wal_db();
        set_balance(&db, 1, 100);

        let reborn = wal_db();
        restart_from(&db, &reborn).unwrap();
        // Timestamp counters advanced past the recovered history: new
        // commits and snapshots layer on top of it.
        set_balance(&reborn, 1, 42);
        assert_eq!(balance(&reborn, 1), Some(42));
        // Auto-increment cursor also recovered (insert draws a fresh id).
        let id = reborn
            .run(IsolationLevel::ReadCommitted, |t| {
                t.insert("accounts", &[("balance", 5.into())])
            })
            .unwrap();
        assert_eq!(id, 2, "auto-id continues past recovered rows");
    }

    #[test]
    fn unknown_table_in_log_is_a_hard_error() {
        let db = wal_db();
        set_balance(&db, 1, 100);
        let reborn = Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
        let err = restart_from(&db, &reborn).unwrap_err();
        assert!(matches!(err, DbError::RecoveryFailed { .. }));
    }

    #[test]
    fn a_second_crash_keeps_what_the_first_recovery_restored() {
        let db = wal_db();
        for id in 1..=5 {
            set_balance(&db, id, id * 10);
        }
        let reborn = wal_db();
        restart_from(&db, &reborn).unwrap();
        set_balance(&reborn, 1, 99);
        let third = wal_db();
        restart_from(&reborn, &third).unwrap();
        assert_eq!(observed(&third), observed(&reborn));
        assert_eq!(balance(&third, 1), Some(99));
    }

    /// Every observable of a recovered `accounts` table: each row's latest
    /// version, its primary-key set and the next auto-increment id.
    fn observed(db: &Database) -> (Vec<(i64, Option<i64>)>, Vec<i64>) {
        let ids = db.row_ids("accounts").unwrap();
        let rows = ids.iter().map(|id| (*id, balance(db, *id))).collect();
        (rows, ids)
    }

    fn next_id(db: &Database) -> i64 {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("accounts", &[("balance", 0.into())])
        })
        .unwrap()
    }

    #[test]
    fn a_checkpoint_carries_deleted_rows_and_the_auto_increment_cursor() {
        let db = wal_db();
        for id in 1..=5 {
            set_balance(&db, id, id * 10);
        }
        for id in [2, 5] {
            db.run(IsolationLevel::ReadCommitted, |t| t.delete("accounts", id))
                .unwrap();
        }
        assert!(db.checkpoint());
        set_balance(&db, 3, 7);
        let wal = db.wal().unwrap();
        assert_eq!(wal.stats().checkpoints, 1);
        // The log holds the checkpoint and the one record after it.
        let image = crate::wal::decode_stream(&wal.durable_bytes());
        assert_eq!((image.checkpoint.len(), image.records.len()), (5, 1));

        let reborn = wal_db();
        let report = restart_from(&db, &reborn).unwrap();
        assert_eq!((report.checkpoint_rows, report.records_applied), (5, 1));
        assert_eq!(observed(&reborn), observed(&db));
        assert_eq!(balance(&reborn, 3), Some(7));
        assert_eq!(balance(&reborn, 5), None);
        assert_eq!(next_id(&reborn), 6, "the deleted row 5 keeps its id");
    }

    /// 200,000 one-row updates over 128 rows: the committers' own
    /// checkpoints keep the log, and what boot replays, bounded by the live
    /// rows, not by the history.
    #[test]
    fn replay_after_200_000_updates_is_bounded_by_the_live_rows() {
        use crate::wal::CHECKPOINT_FLOOR;
        const ROWS: i64 = 128;
        let db = wal_db();
        for id in 0..ROWS {
            set_balance(&db, id, id);
        }
        for i in 0..200_000 {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.update("accounts", i % ROWS, &[("balance", i.into())])
            })
            .unwrap();
        }
        let stats = db.wal().unwrap().stats();
        assert!(stats.checkpoints > 50, "{stats:?}");
        // One checkpoint is the live image; the log holds at most the last
        // one and the records that make the next one due.
        let image = stats.checkpoint_bytes / stats.checkpoints as usize;
        assert!(image < 32 * ROWS as usize, "{image} B for {ROWS} rows");
        assert!(
            stats.held <= CHECKPOINT_FLOOR + 3 * image,
            "{} B held, {image} B image",
            stats.held
        );
        let reborn = wal_db();
        let report = restart_from(&db, &reborn).unwrap();
        assert!(report.clean());
        // A two-`Int` update frames in 24 bytes or more.
        assert!(
            report.records_applied as usize <= stats.held / 24,
            "{report:?}"
        );
        assert!(report.checkpoint_rows <= 2 * ROWS as u64, "{report:?}");
        assert_eq!(observed(&reborn), observed(&db));
    }

    /// Committers on four threads and no explicit checkpoint: the
    /// checkpoints the committers write among themselves keep the log
    /// bounded, and none is left open for good.
    ///
    /// The bound is the one the protocol fixes once every committer has
    /// returned. The writer of the last ended checkpoint truncated the log
    /// to that checkpoint's start once its end frame was durable, so the
    /// log holds the sum of:
    /// * that checkpoint's own span, start LSN to end frame: its frames and
    ///   the commit records that raced it, as many as the scheduler let in;
    /// * the records appended since its end frame, at most the due
    ///   threshold `max(CHECKPOINT_GROWTH * its bytes, CHECKPOINT_FLOOR)`:
    ///   `WalInner::checkpoint_due` reports due only past it;
    /// * the records appended between a due report and the start of the
    ///   checkpoint it calls for, which is zero bytes here. A committer
    ///   whose append reports due calls `Database::write_due_checkpoint`
    ///   before its commit returns, and that opens a checkpoint: it asks
    ///   `checkpoint_due` again under the writer lock, and only a
    ///   checkpoint begun since the report makes that false. So with
    ///   every committer returned and none begun after the last one ended,
    ///   no append since that checkpoint's end reported due.
    #[test]
    fn committers_alone_keep_the_log_bounded() {
        use crate::wal::{CHECKPOINT_FLOOR, CHECKPOINT_GROWTH};
        const ROWS: i64 = 32;
        let db = wal_db();
        std::thread::scope(|s| {
            for w in 0..4i64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..20_000i64 {
                        set_balance(db, w * ROWS + i % ROWS, i);
                    }
                });
            }
        });
        let wal = db.wal().unwrap();
        let stats = wal.stats();
        assert!(stats.checkpoints > 10, "{stats:?}");
        let (span, bytes) = wal.last_checkpoint();
        let due_after = (CHECKPOINT_GROWTH * bytes).max(CHECKPOINT_FLOOR);
        assert!(
            stats.held <= span.len() + due_after,
            "{} B held, last checkpoint {span:?} of {bytes} B",
            stats.held
        );
        // No checkpoint was left open: the next one opens, and leaves the
        // log holding it alone.
        assert!(db.checkpoint());
        let after = wal.stats();
        assert_eq!(after.checkpoints, stats.checkpoints + 1);
        assert_eq!(after.held, after.checkpoint_bytes - stats.checkpoint_bytes);
        let reborn = wal_db();
        restart_from(&db, &reborn).unwrap();
        assert_eq!(observed(&reborn), observed(&db));
    }

    /// Committers on four threads race a thread that checkpoints in a
    /// loop: every commit is acked durable (`OnCommit`), so the recovered
    /// database equals the live one, whatever a checkpoint raced.
    #[test]
    fn checkpoints_racing_committers_lose_no_acked_commit() {
        let db = wal_db();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    db.checkpoint();
                }
            });
            let writers: Vec<_> = (0..4i64)
                .map(|w| {
                    let db = &db;
                    s.spawn(move || {
                        for i in 0..2_000i64 {
                            let id = w * 1_000 + i % 50;
                            if i % 7 == 3 {
                                db.run(IsolationLevel::ReadCommitted, |t| t.delete("accounts", id))
                                    .unwrap();
                            } else {
                                set_balance(db, id, i);
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(db.wal().unwrap().stats().checkpoints > 0);
        let reborn = wal_db();
        restart_from(&db, &reborn).unwrap();
        assert_eq!(observed(&reborn), observed(&db));
        assert_eq!(next_id(&reborn), next_id(&db));
    }
}
