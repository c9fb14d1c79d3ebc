//! Engine profiles and isolation levels.

use adhoc_sim::{CircuitBreaker, FaultPlan, LatencyModel, RealClock, SharedClock};
use std::sync::Arc;
use std::time::Duration;

/// A data-access event, delivered synchronously on the issuing thread.
///
/// The hook behind the §6 "development support tools": external monitors
/// (see `adhoc-core`'s `monitor` module) subscribe to reconstruct each
/// request's access trace and flag suspicious coordination patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessEvent {
    /// A row was returned by a read (point read, scan hit, locking read).
    Read {
        /// Issuing transaction.
        txn: u64,
        /// Table name.
        table: String,
        /// Primary key read.
        row: i64,
        /// Whether the read itself acquired an exclusive engine lock
        /// (`SELECT … FOR UPDATE`).
        locking: bool,
    },
    /// A row was inserted, updated or deleted (buffered until commit).
    Write {
        /// Issuing transaction.
        txn: u64,
        /// Table name.
        table: String,
        /// Primary key written.
        row: i64,
    },
    /// The transaction committed.
    Committed {
        /// The committing transaction.
        txn: u64,
    },
    /// The transaction aborted (explicitly, by error, or on drop).
    Aborted {
        /// The aborting transaction.
        txn: u64,
    },
}

/// Receives [`AccessEvent`]s. Implementations must be cheap and re-entrant;
/// they run inline on the statement path.
pub trait StatementObserver: Send + Sync {
    /// Receive one event, synchronously on the issuing thread.
    fn on_event(&self, event: &AccessEvent);
}

/// Which real-world engine's concurrency-control behaviour to emulate.
///
/// §3.1.1 of the paper shows the same application code behaving differently
/// on MySQL and PostgreSQL; both profiles are first-class here so every
/// experiment can run on the engine the paper used (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineProfile {
    /// InnoDB-style: 2PL with record + gap locks; non-locking snapshot
    /// reads below Serializable; shared locking reads at Serializable.
    MySqlLike,
    /// PostgreSQL-style: MVCC snapshots; first-committer-wins under
    /// Repeatable Read (Snapshot Isolation); commit-time certification
    /// under Serializable (SSI-flavoured).
    PostgresLike,
}

impl EngineProfile {
    /// The default isolation level of the emulated engine (§2.1, footnote 2:
    /// "MySQL defaults to Repeatable Read; PostgreSQL defaults to Read
    /// Committed").
    pub fn default_isolation(self) -> IsolationLevel {
        match self {
            EngineProfile::MySqlLike => IsolationLevel::RepeatableRead,
            EngineProfile::PostgresLike => IsolationLevel::ReadCommitted,
        }
    }

    /// Human-readable profile name.
    pub fn name(self) -> &'static str {
        match self {
            EngineProfile::MySqlLike => "MySQL-like",
            EngineProfile::PostgresLike => "PostgreSQL-like",
        }
    }
}

/// ANSI isolation levels supported by both profiles.
///
/// Read Uncommitted is omitted: neither the paper nor the studied
/// applications use it, and PostgreSQL treats it as Read Committed anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsolationLevel {
    /// Per-statement snapshots; no lost-update protection.
    ReadCommitted,
    /// Transaction-wide snapshot (Snapshot Isolation on the
    /// PostgreSQL-like profile).
    RepeatableRead,
    /// Full serializability (locking reads on MySQL-like, SSI-style
    /// certification on PostgreSQL-like).
    Serializable,
}

impl IsolationLevel {
    /// Human-readable level name.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "Read Committed",
            IsolationLevel::RepeatableRead => "Repeatable Read",
            IsolationLevel::Serializable => "Serializable",
        }
    }
}

/// What the engine does at one (profile, isolation level) cell — the one
/// place the matrix the paper's arguments rest on is decided. Every
/// statement and the commit path read these rules; nothing else in the
/// engine compares a profile or an isolation level.
///
/// | profile         | level           | statement_snapshot | locking_reads | gap_locks | insert_intention | first_updater | certify |
/// |-----------------|-----------------|:--:|:--:|:--:|:--:|:--:|:--:|
/// | MySQL-like      | Read Committed  | ✓ |   |   | ✓ |   |   |
/// | MySQL-like      | Repeatable Read |   |   | ✓ | ✓ |   |   |
/// | MySQL-like      | Serializable    |   | ✓ | ✓ | ✓ |   |   |
/// | PostgreSQL-like | Read Committed  | ✓ |   |   |   |   |   |
/// | PostgreSQL-like | Repeatable Read |   |   |   |   | ✓ |   |
/// | PostgreSQL-like | Serializable    |   |   |   |   | ✓ | ✓ |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rules {
    /// Each statement reads at a fresh snapshot instead of the one taken
    /// at begin.
    pub(crate) statement_snapshot: bool,
    /// Plain reads take shared record (and gap) locks and read the latest
    /// committed version — InnoDB's `LOCK IN SHARE MODE`, the ingredient
    /// of the §3.3.1 upgrade deadlock.
    pub(crate) locking_reads: bool,
    /// Locking statements take a next-key gap lock over the interval they
    /// scanned (§3.3.2's false conflicts).
    pub(crate) gap_locks: bool,
    /// Inserts wait on other transactions' gap locks covering any of the
    /// new row's keys.
    pub(crate) insert_intention: bool,
    /// A write or locking read of a row committed after the snapshot
    /// fails with a serialization error (first-updater-wins).
    pub(crate) first_updater: bool,
    /// Reads and scanned ranges enter the SSI read set and are certified
    /// at commit against later committers' writes.
    pub(crate) certify: bool,
}

impl Rules {
    /// The rules of one cell of the matrix.
    pub(crate) fn of(profile: EngineProfile, iso: IsolationLevel) -> Self {
        let mysql = profile == EngineProfile::MySqlLike;
        Self {
            statement_snapshot: iso == IsolationLevel::ReadCommitted,
            locking_reads: mysql && iso == IsolationLevel::Serializable,
            gap_locks: mysql && iso >= IsolationLevel::RepeatableRead,
            insert_intention: mysql,
            first_updater: !mysql && iso >= IsolationLevel::RepeatableRead,
            certify: !mysql && iso == IsolationLevel::Serializable,
        }
    }
}

/// Database configuration: everything a database is set up with, fixed
/// when [`Database::new`](crate::Database::new) builds it.
///
/// A cloned configuration shares its fault plan and breaker (both
/// `Arc`-backed), as `kv::Client` clones do: databases built from clones
/// of one configuration fail on one schedule and trip one breaker.
#[derive(Clone)]
pub struct DbConfig {
    /// Which engine's concurrency control to emulate.
    pub profile: EngineProfile,
    /// Time source for lock waits and latency charging.
    pub clock: SharedClock,
    /// Physical costs charged per statement / commit. Its
    /// `durable_flush` is the one device-flush cost: a database with a WAL
    /// pays it in every WAL sync (`OnCommit` once per commit,
    /// `GroupCommit` once per batch), one without pays it once per
    /// writing commit.
    pub latency: LatencyModel,
    /// Upper bound on any single lock wait before `LockWaitTimeout`.
    pub lock_wait_timeout: Duration,
    /// Write-ahead log sync policy; `None` disables the WAL entirely
    /// (commits still charge `latency.durable_flush`, but nothing is
    /// logged and crash recovery has nothing to replay).
    pub wal: Option<crate::wal::WalSyncPolicy>,
    /// Fault plan consulted once per commit attempt
    /// ([`OpClass::DbCommit`](adhoc_sim::OpClass::DbCommit)) and once per
    /// statement ([`OpClass::DbStatement`](adhoc_sim::OpClass::DbStatement));
    /// `None` injects nothing.
    pub faults: Option<FaultPlan>,
    /// Circuit breaker around the client↔DB connection; `None` admits
    /// every statement.
    pub breaker: Option<Arc<CircuitBreaker>>,
}

impl DbConfig {
    /// In-process test configuration: no latency charges, generous timeout.
    pub fn in_memory(profile: EngineProfile) -> Self {
        Self {
            profile,
            clock: RealClock::shared(),
            latency: LatencyModel::zero(),
            lock_wait_timeout: Duration::from_secs(10),
            wal: None,
            faults: None,
            breaker: None,
        }
    }

    /// The paper's deployment: remote RDBMS, durable commits (each
    /// writing commit pays `latency.durable_flush`).
    pub fn networked(profile: EngineProfile, clock: SharedClock, latency: LatencyModel) -> Self {
        Self {
            clock,
            latency,
            ..Self::in_memory(profile)
        }
    }

    /// Override the lock-wait timeout.
    pub fn with_lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
        self
    }

    /// Enable the write-ahead log with a commit-time fsync (every commit is
    /// durable the moment its ack is sent).
    pub fn with_wal(mut self) -> Self {
        self.wal = Some(crate::wal::WalSyncPolicy::OnCommit);
        self
    }

    /// Enable the write-ahead log under group commit: commits within an
    /// epoch share one leader fsync (followers free-ride on the flushed
    /// tail) while every acked commit is still durable — the safe policy
    /// with the amortized flush cost.
    pub fn with_wal_group_commit(mut self) -> Self {
        self.wal = Some(crate::wal::WalSyncPolicy::GroupCommit);
        self
    }

    /// Attach a fault plan: every commit attempt consults it (class
    /// [`OpClass::DbCommit`](adhoc_sim::OpClass::DbCommit)) and may be
    /// rejected ([`FaultKind::CommitFailed`](adhoc_sim::FaultKind)) or
    /// become durable without an acknowledgement
    /// ([`FaultKind::CrashAfterDurable`](adhoc_sim::FaultKind)), both
    /// surfacing as [`DbError::ConnectionLost`](crate::DbError); every
    /// statement consults it too (class
    /// [`OpClass::DbStatement`](adhoc_sim::OpClass::DbStatement)) and may
    /// be partitioned away ([`DbError::Partitioned`](crate::DbError)).
    /// Build the plan disabled and [`enable`](FaultPlan::enable) it once
    /// fault-free setup is done.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Wrap the connection in a circuit breaker: consecutive
    /// connection-level failures (partitioned statements, lost commit
    /// acknowledgements) open it, and while open every statement fails
    /// fast with [`DbError::CircuitOpen`](crate::DbError) without paying a
    /// round trip. Share one breaker (via the `Arc`) across every database
    /// handle talking to one server.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }
}

impl std::fmt::Debug for DbConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbConfig")
            .field("profile", &self.profile)
            .field("latency", &self.latency)
            .field("lock_wait_timeout", &self.lock_wait_timeout)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_defaults_match_paper_footnote() {
        assert_eq!(
            EngineProfile::MySqlLike.default_isolation(),
            IsolationLevel::RepeatableRead
        );
        assert_eq!(
            EngineProfile::PostgresLike.default_isolation(),
            IsolationLevel::ReadCommitted
        );
    }

    /// Every cell of [`Rules`]' doc table, row by row in the table's
    /// column order.
    #[test]
    fn rules_match_the_matrix() {
        use EngineProfile::*;
        use IsolationLevel::*;
        let table = [
            (MySqlLike, ReadCommitted, [1, 0, 0, 1, 0, 0]),
            (MySqlLike, RepeatableRead, [0, 0, 1, 1, 0, 0]),
            (MySqlLike, Serializable, [0, 1, 1, 1, 0, 0]),
            (PostgresLike, ReadCommitted, [1, 0, 0, 0, 0, 0]),
            (PostgresLike, RepeatableRead, [0, 0, 0, 0, 1, 0]),
            (PostgresLike, Serializable, [0, 0, 0, 0, 1, 1]),
        ];
        for (profile, iso, row) in table {
            let r = Rules::of(profile, iso);
            let got = [
                r.statement_snapshot,
                r.locking_reads,
                r.gap_locks,
                r.insert_intention,
                r.first_updater,
                r.certify,
            ];
            assert_eq!(got, row.map(|x| x == 1), "{profile:?} {iso:?}");
        }
    }

    #[test]
    fn isolation_levels_are_ordered_by_strength() {
        assert!(IsolationLevel::ReadCommitted < IsolationLevel::RepeatableRead);
        assert!(IsolationLevel::RepeatableRead < IsolationLevel::Serializable);
    }

    #[test]
    fn config_builders() {
        let c = DbConfig::in_memory(EngineProfile::MySqlLike)
            .with_lock_wait_timeout(Duration::from_millis(50));
        assert_eq!(c.lock_wait_timeout, Duration::from_millis(50));
        assert_eq!(c.latency, LatencyModel::zero());
        let n = DbConfig::networked(
            EngineProfile::PostgresLike,
            RealClock::shared(),
            LatencyModel::paper(),
        );
        assert_eq!(n.latency, LatencyModel::paper());
        assert_eq!(n.lock_wait_timeout, Duration::from_secs(10));
    }
}
