//! Error types surfaced by the storage engine.
//!
//! The variants mirror the failure modes the paper discusses: deadlock
//! victims (§3.3.1), snapshot-isolation serialization failures (§3.1.1),
//! SSI certification aborts (§5.2), and lock-wait timeouts. Application
//! code in `adhoc-apps` matches on these to drive its retry loops exactly
//! as the studied applications match on driver exceptions.

use crate::value::ColumnType;
use std::fmt;

/// Transaction identifier (monotonically assigned).
pub type TxnId = u64;

/// Every error the engine can surface to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The engine chose this transaction as a deadlock victim
    /// (MySQL error 1213 / PostgreSQL 40P01).
    Deadlock {
        /// The victim transaction.
        txn: TxnId,
    },
    /// Snapshot-isolation first-committer-wins or SSI certification failure
    /// (PostgreSQL 40001 "could not serialize access").
    SerializationFailure {
        /// The aborted transaction.
        txn: TxnId,
        /// Human-readable conflict description.
        reason: String,
    },
    /// A lock wait exceeded the configured timeout (MySQL error 1205).
    LockWaitTimeout {
        /// The timed-out transaction.
        txn: TxnId,
    },
    /// Statement issued on a transaction that already committed or aborted.
    TxnNotActive {
        /// The inactive transaction.
        txn: TxnId,
    },
    /// Unique index violation.
    UniqueViolation {
        /// Table owning the unique index.
        table: String,
        /// Indexed column.
        column: String,
        /// The duplicated value (rendered).
        value: String,
    },
    /// The named table does not exist.
    NoSuchTable {
        /// Requested table name.
        table: String,
    },
    /// The named column does not exist on the table.
    NoSuchColumn {
        /// Table name.
        table: String,
        /// Requested column name.
        column: String,
    },
    /// `CREATE TABLE` with an existing name.
    DuplicateTable {
        /// The already-taken name.
        table: String,
    },
    /// A schema declared the same column twice.
    DuplicateColumn {
        /// Table name.
        table: String,
        /// The repeated column name.
        column: String,
    },
    /// A point operation addressed a missing row.
    NoSuchRow {
        /// Table name.
        table: String,
        /// Requested primary key.
        id: i64,
    },
    /// A row literal has the wrong number of values for its schema.
    ArityMismatch {
        /// Table name.
        table: String,
        /// Columns in the schema.
        expected: usize,
        /// Values supplied.
        found: usize,
    },
    /// A value's type does not match the column declaration.
    TypeMismatch {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Declared column type.
        expected: ColumnType,
        /// Supplied value's type (`None` for NULL).
        found: Option<ColumnType>,
    },
    /// NULL supplied for a non-nullable column.
    NotNullViolation {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Scan predicate references a column without an index where one is
    /// required (locking scans need an index to derive gap intervals).
    NoIndex {
        /// Table name.
        table: String,
        /// Column lacking an index.
        column: String,
    },
    /// A savepoint name was not found in this transaction.
    NoSuchSavepoint {
        /// Requested savepoint name.
        name: String,
    },
    /// The connection dropped during commit (injected by a
    /// [`FaultPlan`](adhoc_sim::FaultPlan)). The client cannot tell whether
    /// the commit became durable — drivers raise the same exception whether
    /// the server rejected the commit or crashed after flushing it, which
    /// is why §3.4.2 of the paper finds blind re-submission unsafe.
    /// Deliberately **not** retryable.
    ConnectionLost {
        /// The transaction whose outcome is unknown.
        txn: TxnId,
    },
    /// Boot-time WAL replay hit a write against a table the restarted
    /// process never re-created — a harness/schema mismatch, not a torn
    /// tail; recovery refuses to silently drop the write.
    RecoveryFailed {
        /// The table the log named.
        table: String,
    },
    /// A statement never reached the engine: the client↔DB link is
    /// partitioned (injected via
    /// [`FaultKind::DbPartitioned`](adhoc_sim::FaultKind::DbPartitioned)).
    /// Unlike [`ConnectionLost`](Self::ConnectionLost) this is
    /// unambiguous — the statement (not a commit) was lost before any
    /// effect, so retrying the transaction is safe and the classification
    /// allows it.
    Partitioned {
        /// The transaction whose statement was dropped.
        txn: TxnId,
    },
    /// The transaction's absolute deadline passed before this statement
    /// was sent. Nothing was transmitted; fail fast instead of queueing
    /// more work behind a request nobody is waiting for. Not retryable —
    /// the whole request is over.
    DeadlineExceeded {
        /// The out-of-time transaction.
        txn: TxnId,
    },
    /// The database circuit breaker is open: the statement was rejected
    /// client-side without a round trip. Not retryable from inside the
    /// request (that would defeat the breaker); callers back off or
    /// degrade.
    CircuitOpen {
        /// The rejected transaction.
        txn: TxnId,
    },
    /// An escrow reservation could not be granted: the remaining budget of
    /// the column (committed value minus outstanding reservations) is
    /// smaller than the requested amount when the grant's compare-and-swap
    /// reads it. Not retryable — the caller either reports
    /// "insufficient stock" or falls back to a coordinated path.
    EscrowExhausted {
        /// Table owning the escrow column.
        table: String,
        /// The escrow-guarded column.
        column: String,
        /// Primary key of the row.
        id: i64,
        /// Amount the caller asked to reserve.
        requested: i64,
        /// Budget that remained at the final check.
        available: i64,
    },
}

impl DbError {
    /// True for errors that a client is expected to handle by retrying the
    /// whole transaction (the paper's "failure handling" category, §3.4).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::Deadlock { .. }
                | DbError::SerializationFailure { .. }
                | DbError::LockWaitTimeout { .. }
                | DbError::Partitioned { .. }
        )
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Deadlock { txn } => write!(f, "deadlock detected; txn {txn} chosen as victim"),
            DbError::SerializationFailure { txn, reason } => {
                write!(f, "could not serialize access (txn {txn}): {reason}")
            }
            DbError::LockWaitTimeout { txn } => write!(f, "lock wait timeout (txn {txn})"),
            DbError::TxnNotActive { txn } => write!(f, "transaction {txn} is not active"),
            DbError::UniqueViolation {
                table,
                column,
                value,
            } => write!(f, "unique violation on {table}.{column} = {value}"),
            DbError::NoSuchTable { table } => write!(f, "no such table {table:?}"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no such column {table}.{column}")
            }
            DbError::DuplicateTable { table } => write!(f, "table {table:?} already exists"),
            DbError::DuplicateColumn { table, column } => {
                write!(f, "duplicate column {table}.{column}")
            }
            DbError::NoSuchRow { table, id } => write!(f, "no row {id} in {table}"),
            DbError::ArityMismatch {
                table,
                expected,
                found,
            } => write!(f, "row for {table} has {found} values, expected {expected}"),
            DbError::TypeMismatch {
                table,
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch on {table}.{column}: expected {expected}, found {found:?}"
            ),
            DbError::NotNullViolation { table, column } => {
                write!(f, "NULL in non-nullable column {table}.{column}")
            }
            DbError::NoIndex { table, column } => {
                write!(f, "no index on {table}.{column}")
            }
            DbError::NoSuchSavepoint { name } => write!(f, "no such savepoint {name:?}"),
            DbError::ConnectionLost { txn } => {
                write!(
                    f,
                    "connection lost during commit of txn {txn}; outcome unknown"
                )
            }
            DbError::RecoveryFailed { table } => {
                write!(f, "recovery: log references unknown table {table:?}")
            }
            DbError::Partitioned { txn } => {
                write!(f, "statement of txn {txn} lost to a network partition")
            }
            DbError::DeadlineExceeded { txn } => {
                write!(
                    f,
                    "deadline exceeded before statement of txn {txn} was sent"
                )
            }
            DbError::CircuitOpen { txn } => {
                write!(f, "circuit breaker open; statement of txn {txn} rejected")
            }
            DbError::EscrowExhausted {
                table,
                column,
                id,
                requested,
                available,
            } => write!(
                f,
                "escrow exhausted on {table}.{column} row {id}: requested {requested}, available {available}"
            ),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification_matches_drivers() {
        assert!(DbError::Deadlock { txn: 1 }.is_retryable());
        assert!(DbError::SerializationFailure {
            txn: 1,
            reason: "ww".into()
        }
        .is_retryable());
        assert!(DbError::LockWaitTimeout { txn: 1 }.is_retryable());
        assert!(!DbError::NoSuchTable { table: "t".into() }.is_retryable());
        assert!(!DbError::UniqueViolation {
            table: "t".into(),
            column: "c".into(),
            value: "v".into()
        }
        .is_retryable());
        // Ambiguous outcome: blind retry could double-apply, so the
        // classification refuses it.
        assert!(!DbError::ConnectionLost { txn: 1 }.is_retryable());
        // A dropped *statement* is unambiguous (nothing reached the
        // engine), so retrying the transaction is safe.
        assert!(DbError::Partitioned { txn: 1 }.is_retryable());
        // Fail-fast rejections must not feed back into retry loops.
        assert!(!DbError::DeadlineExceeded { txn: 1 }.is_retryable());
        assert!(!DbError::CircuitOpen { txn: 1 }.is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = DbError::SerializationFailure {
            txn: 7,
            reason: "concurrent update".into(),
        };
        let s = e.to_string();
        assert!(s.contains("serialize"));
        assert!(s.contains('7'));
    }
}
