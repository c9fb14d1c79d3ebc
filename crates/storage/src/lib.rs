//! An in-memory RDBMS with two engine profiles, built to exhibit the
//! concurrency-control behaviours that the paper's arguments rest on.
//!
//! The paper (§3.1.1, §3.3, §5) repeatedly contrasts ad hoc transactions
//! with MySQL and PostgreSQL database transactions. The contrast only makes
//! sense against engines that actually behave like those systems:
//!
//! * **MySQL-like** ([`EngineProfile::MySqlLike`]) — strict two-phase
//!   locking for writes and locking reads; plain reads are non-locking
//!   consistent (snapshot) reads, so Repeatable Read permits lost updates on
//!   application-level read–modify–writes (the paper's footnote in §3.1.1);
//!   Serializable turns plain reads into shared locking reads, so two
//!   concurrent RMWs deadlock on the shared→exclusive upgrade (§3.3.1);
//!   locking scans over non-unique indexes take gap (next-key) locks that
//!   block unrelated inserts into the same index interval (§3.3.2).
//! * **PostgreSQL-like** ([`EngineProfile::PostgresLike`]) — MVCC snapshots;
//!   Read Committed takes a fresh snapshot per statement; Repeatable Read is
//!   Snapshot Isolation with first-committer-wins aborts on write–write
//!   conflicts (§3.3.1); Serializable adds commit-time certification of
//!   read/write dependencies, so rw-antidependencies — including predicate
//!   reads at index-gap granularity — abort transactions under contention
//!   (§3.3.2, §5.2); session-scoped advisory locks model PostgreSQL's
//!   explicit user locks (§6, Table 7a).
//!
//! The store is multi-versioned; writes buffer in a per-transaction write
//! set and apply atomically at commit. A [`LatencyModel`] charges one SQL
//! round trip per statement and a durable flush per commit, so the Figure 2
//! and Figure 3 reproductions see the same decisive costs the paper
//! measured.
//!
//! [`LatencyModel`]: adhoc_sim::LatencyModel
//!
//! # Example
//!
//! ```
//! use adhoc_storage::{Column, ColumnType, Database, EngineProfile, IsolationLevel, Schema};
//!
//! let db = Database::in_memory(EngineProfile::PostgresLike);
//! db.create_table(Schema::new(
//!     "skus",
//!     vec![Column::new("id", ColumnType::Int), Column::new("qty", ColumnType::Int)],
//!     "id",
//! )?)?;
//!
//! // A FOR-UPDATE-coordinated read–modify–write (the Saleor pattern).
//! db.run(IsolationLevel::ReadCommitted, |t| {
//!     t.insert("skus", &[("id", 1.into()), ("qty", 10.into())])?;
//!     Ok(())
//! })?;
//! db.run(IsolationLevel::ReadCommitted, |t| {
//!     let sku = t.get_for_update("skus", 1)?.expect("seeded");
//!     let qty = sku.values[1].as_int();
//!     t.update("skus", 1, &[("qty", (qty - 3).into())])
//! })?;
//! assert_eq!(db.latest_committed("skus", 1)?.unwrap().values[1].as_int(), 7);
//! # Ok::<(), adhoc_storage::DbError>(())
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod engine;
pub(crate) mod epoch;
pub mod error;
pub mod escrow;
pub mod fasthash;
pub mod lock;
pub mod predicate;
pub mod recovery;
pub mod schema;
pub mod shard;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use db::Database;
pub use engine::{AccessEvent, DbConfig, EngineProfile, IsolationLevel, StatementObserver};
pub use error::DbError;
pub use escrow::EscrowReservation;
pub use lock::LockMode;
pub use predicate::Predicate;
pub use recovery::{recover, restart_from, RecoveryReport};
pub use schema::{Column, ColumnType, Row, Schema};
pub use shard::{shard_of, Footprint, ShardSet, SHARD_COUNT};
pub use txn::Transaction;
pub use value::Value;
pub use wal::{
    CheckpointRow, Wal, WalImage, WalRecord, WalStats, WalSyncPolicy, WalTail, WalWrite,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DbError>;
