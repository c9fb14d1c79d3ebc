//! Boot-time crash recovery: replay a write-ahead log image into a fresh
//! database.
//!
//! The restart story the oracle harness exercises (§3.4.2 of the paper —
//! what actually happens to an application's state when the process dies
//! mid-commit):
//!
//! 1. The old process dies. Everything volatile — version chains, the lock
//!    table, the acked-but-unsynced WAL tail — is gone. What survives is
//!    the WAL's durable prefix ([`Wal::durable_bytes`](crate::wal::Wal)).
//! 2. A new process boots, re-creates its schema (application setup code),
//!    and calls [`recover`] with the surviving bytes.
//! 3. Recovery decodes the stream, truncating at the first torn or corrupt
//!    frame, and installs each intact record's writes in log order. A
//!    commit is therefore all-or-nothing: its record either passed its CRC
//!    (every write replays) or it didn't (none do).
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
    /// Individual row writes installed (a record may carry several).
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
        records_applied: 0,
        writes_applied: 0,
        max_commit_ts: 0,
        tail: image.tail,
        bytes_truncated: bytes.len() - truncated_at,
    };
    for record in image.records {
        for write in record.writes {
            let table = db
                .resolve_table(&write.table)
                .map_err(|_| DbError::RecoveryFailed {
                    table: write.table.clone(),
                })?;
            db.install_recovered(table, write.id, record.commit_ts, write.row.map(Row::new));
            report.writes_applied += 1;
        }
        report.max_commit_ts = report.max_commit_ts.max(record.commit_ts);
        report.records_applied += 1;
    }
    if report.max_commit_ts > 0 {
        db.note_recovered_ts(report.max_commit_ts);
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
}
