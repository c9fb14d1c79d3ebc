//! Commit-time fault points: `CommitFailed` (honest rollback) vs
//! `CrashAfterDurable` (commit survives, acknowledgement doesn't). Both
//! surface the same `DbError::ConnectionLost`, so a client cannot tell the
//! two cases apart — the §3.4.2 ambiguity the paper's crash-handling
//! strategies all wrestle with.

use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
use adhoc_storage::{
    Column, ColumnType, Database, DbConfig, DbError, EngineProfile, Schema, Value,
};

/// An in-memory database set up with `plan`, holding the empty table `t`.
fn db_with_table(plan: FaultPlan) -> Database {
    with_table(DbConfig::in_memory(EngineProfile::PostgresLike).with_faults(plan))
}

/// A database built from `config`, holding the empty table `t`.
fn with_table(config: DbConfig) -> Database {
    let db = Database::new(config);
    db.create_table(
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn insert_row(db: &Database, id: i64) -> Result<(), DbError> {
    let mut txn = db.begin();
    txn.insert("t", &[("id", Value::Int(id)), ("v", Value::Int(1))])?;
    txn.commit()
}

#[test]
fn commit_failed_rolls_back_and_reports_connection_lost() {
    let db = db_with_table(FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::CommitFailed, &[0])],
    ));
    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::ConnectionLost { .. }));
    assert_eq!(
        db.latest_committed("t", 1).unwrap(),
        None,
        "nothing became durable"
    );
    assert_eq!(db.stats().commits, 0);
    assert_eq!(db.stats().aborts, 1);
    // The engine rolled back cleanly, so re-submitting is safe.
    insert_row(&db, 1).unwrap();
    assert!(db.latest_committed("t", 1).unwrap().is_some());
}

#[test]
fn crash_after_durable_commits_but_reports_connection_lost() {
    let db = db_with_table(FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::CrashAfterDurable, &[0])],
    ));
    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::ConnectionLost { .. }));
    assert!(
        db.latest_committed("t", 1).unwrap().is_some(),
        "the commit actually happened"
    );
    assert_eq!(db.stats().commits, 1);
    // Blind re-submission — what a naive retry-on-error wrapper would do —
    // now collides with the ghost of the acknowledged-but-unreported commit.
    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }));
}

#[test]
fn connection_lost_is_not_blindly_retried_by_the_dbt_wrapper() {
    let db = db_with_table(FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::CrashAfterDurable, &[0])],
    ));
    // run_with_retries only retries honest transient errors; an ambiguous
    // ConnectionLost is surfaced to the caller on the first attempt.
    let result = db.run_with_retries(db.default_isolation(), 5, |txn| {
        txn.insert("t", &[("id", Value::Int(9)), ("v", Value::Int(1))])
    });
    assert!(matches!(result, Err(DbError::ConnectionLost { .. })));
    assert_eq!(db.stats().commits, 1, "exactly one (unacknowledged) commit");
}

/// What one commit-class fault does to a single-row update on a WAL
/// database: whether the client is acknowledged, the `DbStats`
/// (commits, aborts) and `WalStats` (records, syncs, checkpoints) deltas,
/// and the value a fresh database holds after replaying the crashed one's
/// durable log. The first row is the fault-free control.
#[test]
fn each_commit_fault_has_one_outcome() {
    use adhoc_storage::restart_from;
    type Outcome = (bool, (u64, u64), (u64, u64, u64), i64);
    let table: [(Option<FaultKind>, Outcome); 8] = [
        (None, (true, (1, 0), (1, 1, 0), 2)),
        (Some(FaultKind::CommitFailed), (false, (0, 1), (0, 0, 0), 1)),
        (
            Some(FaultKind::CrashAfterDurable),
            (false, (1, 0), (1, 1, 0), 2),
        ),
        (
            Some(FaultKind::CrashBeforeDurable),
            (false, (1, 0), (1, 0, 0), 1),
        ),
        (Some(FaultKind::TornWrite), (false, (1, 0), (1, 1, 0), 1)),
        (
            Some(FaultKind::CheckpointTorn),
            (false, (1, 0), (1, 2, 1), 2),
        ),
        (
            Some(FaultKind::CrashBeforeTruncate),
            (false, (1, 0), (1, 2, 1), 2),
        ),
        (
            Some(FaultKind::TruncateBeforeWait),
            (false, (1, 0), (1, 1, 1), 2),
        ),
    ];
    for (kind, expected) in table {
        let rules = kind
            .map(|k| FaultRule::at_ops(k, &[0]))
            .into_iter()
            .collect();
        let plan = FaultPlan::new_disabled(1, rules);
        let config = match kind {
            Some(FaultKind::TruncateBeforeWait) => {
                DbConfig::in_memory(EngineProfile::PostgresLike).with_wal_group_commit()
            }
            _ => DbConfig::in_memory(EngineProfile::PostgresLike).with_wal(),
        };
        let db = with_table(config.with_faults(plan.clone()));
        insert_row(&db, 1).unwrap();
        let (stats, wal) = (db.stats(), db.wal().unwrap().stats());
        plan.enable();
        let mut txn = db.begin();
        txn.update("t", 1, &[("v", Value::Int(2))]).unwrap();
        let result = txn.commit();
        let acked = match result {
            Ok(()) => true,
            Err(DbError::ConnectionLost { .. }) => false,
            Err(e) => panic!("{kind:?}: unexpected {e}"),
        };
        let (after, wal_after) = (db.stats(), db.wal().unwrap().stats());
        let reborn = with_table(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
        restart_from(&db, &reborn).unwrap();
        let row = reborn.latest_committed("t", 1).unwrap().expect("row 1");
        let Value::Int(v) = row.values[1] else {
            panic!("{kind:?}: v is not an Int")
        };
        let observed = (
            acked,
            (after.commits - stats.commits, after.aborts - stats.aborts),
            (
                wal_after.records - wal.records,
                wal_after.syncs - wal.syncs,
                wal_after.checkpoints - wal.checkpoints,
            ),
            v,
        );
        assert_eq!(observed, expected, "{kind:?}");
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    let db = db_with_table(FaultPlan::new(1, vec![]));
    insert_row(&db, 1).unwrap();
    assert_eq!(db.stats().commits, 1);
}

// --- Partition, deadline, and circuit-breaker resilience ------------------

use adhoc_sim::{CircuitBreaker, Deadline, LatencyModel, OpClass, VirtualClock};
use std::sync::Arc;
use std::time::Duration;

/// The networked configuration on `clock`, with no latency charged.
fn networked(clock: adhoc_sim::SharedClock) -> DbConfig {
    DbConfig::networked(EngineProfile::PostgresLike, clock, LatencyModel::zero())
}

#[test]
fn statement_partition_is_unambiguous_and_retryable() {
    let db = db_with_table(FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[0])],
    ));
    let err = insert_row(&db, 1).unwrap_err();
    // The statement never reached the engine, so unlike ConnectionLost the
    // failure is unambiguous and the classification allows a retry.
    assert!(matches!(err, DbError::Partitioned { .. }));
    assert!(err.is_retryable());
    assert_eq!(db.latest_committed("t", 1).unwrap(), None);
    insert_row(&db, 1).unwrap();
    assert_eq!(db.stats().commits, 1, "the retry applied exactly once");
}

#[test]
fn run_with_retries_rides_out_a_statement_partition() {
    let db = db_with_table(FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[0, 1])],
    ));
    db.run_with_retries(db.default_isolation(), 5, |txn| {
        txn.insert("t", &[("id", Value::Int(9)), ("v", Value::Int(1))])
    })
    .unwrap();
    assert_eq!(db.stats().commits, 1);
}

#[test]
fn transaction_deadline_fails_fast_before_any_statement() {
    let clock = Arc::new(VirtualClock::new());
    let db = with_table(networked(clock.clone()));
    let deadline = Deadline::at(Duration::from_millis(50));
    clock.advance(Duration::from_millis(100));
    let mut txn = db.begin().with_deadline(deadline);
    let err = txn
        .insert("t", &[("id", Value::Int(1)), ("v", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, DbError::DeadlineExceeded { .. }));
    // Fail-fast rejections must not feed back into retry loops.
    assert!(!err.is_retryable());
    txn.abort();
    assert_eq!(db.latest_committed("t", 1).unwrap(), None);
}

#[test]
fn deadline_caps_lock_waits_below_the_engine_timeout() {
    let clock = adhoc_sim::RealClock::shared();
    let db = with_table(networked(clock.clone()).with_lock_wait_timeout(Duration::from_secs(30)));
    insert_row(&db, 1).unwrap();

    // Holder: an uncommitted exclusive record lock.
    let mut holder = db.begin();
    holder.update("t", 1, &[("v", Value::Int(2))]).unwrap();

    // Waiter: a 50 ms deadline caps the wait far below the 30 s engine
    // timeout, so the overload can't pile requests up behind a dead one.
    let mut waiter = db
        .begin()
        .with_deadline(Deadline::after(&*clock, Duration::from_millis(50)));
    let started = std::time::Instant::now();
    let err = waiter.update("t", 1, &[("v", Value::Int(3))]).unwrap_err();
    assert!(matches!(err, DbError::LockWaitTimeout { .. }));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "wait was capped by the deadline, not the engine timeout"
    );
    waiter.abort();
    holder.commit().unwrap();
}

#[test]
fn db_breaker_opens_after_partition_failures_and_recovers() {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(
        1,
        vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[0, 1])],
    );
    let breaker = Arc::new(CircuitBreaker::new(2, Duration::from_secs(10)));
    let db = with_table(
        networked(clock.clone())
            .with_faults(plan.clone())
            .with_breaker(breaker.clone()),
    );

    for id in 1..=2 {
        let err = insert_row(&db, id).unwrap_err();
        assert!(matches!(err, DbError::Partitioned { .. }));
    }
    // Two consecutive losses tripped the breaker: the next statement is
    // rejected locally without consuming a wire operation.
    let err = insert_row(&db, 3).unwrap_err();
    assert!(matches!(err, DbError::CircuitOpen { .. }));
    assert_eq!(
        plan.ops_seen(OpClass::DbStatement),
        2,
        "the rejected statement never reached the fault plan"
    );

    // After the cooldown a single probe is admitted; its success closes
    // the breaker and traffic resumes.
    clock.advance(Duration::from_secs(11));
    insert_row(&db, 3).unwrap();
    insert_row(&db, 4).unwrap();
    assert_eq!(breaker.times_opened(), 1);
    assert_eq!(db.stats().commits, 2);
}

#[test]
fn commit_faults_feed_the_db_breaker() {
    let clock = Arc::new(VirtualClock::new());
    let breaker = Arc::new(CircuitBreaker::new(1, Duration::from_secs(10)));
    let db = with_table(
        networked(clock.clone())
            .with_faults(FaultPlan::new(
                1,
                vec![FaultRule::at_ops(FaultKind::CommitFailed, &[0])],
            ))
            .with_breaker(breaker.clone()),
    );

    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::ConnectionLost { .. }));
    // The failed commit tripped the one-strike breaker: statements are now
    // rejected at the front door.
    let err = insert_row(&db, 2).unwrap_err();
    assert!(matches!(err, DbError::CircuitOpen { .. }));
    assert_eq!(breaker.times_opened(), 1);
}

#[test]
fn a_statement_refused_at_admission_pays_no_round_trip() {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[0])]);
    let breaker = Arc::new(CircuitBreaker::new(1, Duration::from_secs(10)));
    let db = with_table(
        networked(clock.clone())
            .with_faults(plan.clone())
            .with_breaker(breaker.clone()),
    );
    let paid = |db: &Database| (db.stats().statements, plan.ops_seen(OpClass::DbStatement));
    // One partitioned statement pays its round trip and opens the breaker.
    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::Partitioned { .. }));
    assert_eq!(paid(&db), (1, 1));

    // Under the open breaker: refused, nothing paid.
    let err = insert_row(&db, 1).unwrap_err();
    assert!(matches!(err, DbError::CircuitOpen { .. }));
    assert_eq!(paid(&db), (1, 1), "an open breaker pays no round trip");

    // Past the cooldown, under an expired deadline: refused before the
    // breaker is asked, so its half-open probe is still there to take.
    clock.advance(Duration::from_secs(11));
    let mut late = db
        .begin()
        .with_deadline(Deadline::at(Duration::from_secs(11)));
    let err = late
        .insert("t", &[("id", Value::Int(1)), ("v", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, DbError::DeadlineExceeded { .. }));
    late.abort();
    assert_eq!(paid(&db), (1, 1), "an expired deadline pays no round trip");

    insert_row(&db, 1).unwrap();
    assert_eq!(paid(&db), (2, 2), "the probe paid one round trip");
    assert_eq!(breaker.times_opened(), 1);
}

#[test]
fn a_transaction_with_a_deadline_shares_the_breaker_and_the_counter() {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[0])]);
    let breaker = Arc::new(CircuitBreaker::new(1, Duration::from_secs(10)));
    let db = with_table(
        networked(clock.clone())
            .with_faults(plan)
            .with_breaker(breaker.clone()),
    );
    let far = Deadline::at(Duration::from_secs(3600));
    let mut txn = db.begin().with_deadline(far);
    let err = txn
        .insert("t", &[("id", Value::Int(1)), ("v", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, DbError::Partitioned { .. }));
    txn.abort();
    assert_eq!(
        db.stats().statements,
        1,
        "the database counts its statement"
    );
    assert_eq!(
        breaker.times_opened(),
        1,
        "its loss opened the database's breaker"
    );

    // The open breaker refuses the database's own statements and those of
    // another transaction with a deadline alike.
    let err = insert_row(&db, 2).unwrap_err();
    assert!(matches!(err, DbError::CircuitOpen { .. }));
    let mut other = db.begin().with_deadline(far);
    let err = other
        .insert("t", &[("id", Value::Int(3)), ("v", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, DbError::CircuitOpen { .. }));
    other.abort();
    assert_eq!(db.stats().statements, 1);
}
