//! Behavioural tests: the engine must exhibit exactly the concurrency
//! anomalies and protections the paper's arguments rest on, per profile and
//! isolation level. Each test names the paper section it reproduces.

use adhoc_storage::{
    Column, ColumnType, Database, DbConfig, DbError, EngineProfile, IsolationLevel, Predicate,
    Schema,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn skus_db(profile: EngineProfile) -> Database {
    let db = Database::in_memory(profile);
    db.create_table(
        Schema::new(
            "skus",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("quantity", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let mut t = db.begin();
    t.insert("skus", &[("id", 1.into()), ("quantity", 10.into())])
        .unwrap();
    t.commit().unwrap();
    db
}

fn payments_db(profile: EngineProfile) -> Database {
    let db = Database::in_memory(profile);
    db.create_table(
        Schema::new(
            "payments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("order_id", ColumnType::Int),
            ],
            "id",
        )
        .unwrap()
        .with_index("order_id")
        .unwrap(),
    )
    .unwrap();
    // Committed order_ids {9, 12} — the §3.3.2 running example.
    let mut t = db.begin();
    t.insert("payments", &[("order_id", 9.into())]).unwrap();
    t.insert("payments", &[("order_id", 12.into())]).unwrap();
    t.commit().unwrap();
    db
}

/// §3.1.1 footnote: MySQL's non-Serializable levels permit lost updates on
/// application-level read–modify–writes (snapshot read, blind write).
#[test]
fn mysql_repeatable_read_loses_updates_on_rmw() {
    let db = skus_db(EngineProfile::MySqlLike);
    let mut t1 = db.begin_with(IsolationLevel::RepeatableRead);
    let mut t2 = db.begin_with(IsolationLevel::RepeatableRead);
    let q1 = t1.get("skus", 1).unwrap().unwrap().values[1].as_int();
    let q2 = t2.get("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!((q1, q2), (10, 10));
    // Both decrement "their" copy by 4 and write back the computed value.
    t1.update("skus", 1, &[("quantity", (q1 - 4).into())])
        .unwrap();
    t1.commit().unwrap();
    t2.update("skus", 1, &[("quantity", (q2 - 4).into())])
        .unwrap();
    t2.commit().unwrap();
    // 10 - 4 - 4 should be 2; the lost update leaves 6.
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 6, "MySQL-like RR must lose one of the two decrements");
}

/// §3.3.1: under MySQL Serializable, two concurrent RMWs deadlock on the
/// shared→exclusive upgrade; one is chosen as victim.
#[test]
fn mysql_serializable_rmw_deadlocks() {
    let db = skus_db(EngineProfile::MySqlLike);
    let mut t1 = db.begin_with(IsolationLevel::Serializable);
    let mut t2 = db.begin_with(IsolationLevel::Serializable);
    // Both read (S lock).
    t1.get("skus", 1).unwrap().unwrap();
    t2.get("skus", 1).unwrap().unwrap();
    // t1 tries to upgrade in a helper thread; it blocks on t2's S lock.
    let db2 = db.clone();
    let h = thread::spawn(move || {
        let r = t1.update("skus", 1, &[("quantity", 6.into())]);
        match r {
            Ok(()) => t1.commit(),
            Err(e) => {
                drop(t1);
                Err(e)
            }
        }
    });
    thread::sleep(Duration::from_millis(60));
    // t2 upgrades too, closing the cycle: t2 is the victim.
    let err = t2.update("skus", 1, &[("quantity", 6.into())]).unwrap_err();
    assert!(matches!(err, DbError::Deadlock { .. }));
    drop(t2); // release victim's locks
    h.join().unwrap().unwrap();
    assert!(db2.stats().lock_stats.deadlocks >= 1);
}

/// §3.1.1: PostgreSQL Repeatable Read (Snapshot Isolation) aborts the
/// second writer of a write–write conflict (first-committer-wins), instead
/// of losing the update.
#[test]
fn postgres_repeatable_read_aborts_second_writer() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut t1 = db.begin_with(IsolationLevel::RepeatableRead);
    let mut t2 = db.begin_with(IsolationLevel::RepeatableRead);
    let q1 = t1.get("skus", 1).unwrap().unwrap().values[1].as_int();
    t2.get("skus", 1).unwrap().unwrap();
    t1.update("skus", 1, &[("quantity", (q1 - 4).into())])
        .unwrap();
    t1.commit().unwrap();
    let err = t2.update("skus", 1, &[("quantity", 6.into())]).unwrap_err();
    assert!(matches!(err, DbError::SerializationFailure { .. }));
}

/// PostgreSQL Read Committed: the same interleaving succeeds (per-statement
/// snapshots; the blind write applies) — which is why ad hoc transactions
/// run their statements at the default level without engine pushback.
#[test]
fn postgres_read_committed_allows_blind_overwrite() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut t1 = db.begin_with(IsolationLevel::ReadCommitted);
    let mut t2 = db.begin_with(IsolationLevel::ReadCommitted);
    t1.get("skus", 1).unwrap().unwrap();
    t2.get("skus", 1).unwrap().unwrap();
    t1.update("skus", 1, &[("quantity", 6.into())]).unwrap();
    t1.commit().unwrap();
    t2.update("skus", 1, &[("quantity", 3.into())]).unwrap();
    t2.commit().unwrap();
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 3);
}

/// Read Committed sees data committed mid-transaction; Repeatable Read
/// keeps the begin snapshot.
#[test]
fn statement_vs_transaction_snapshots() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = skus_db(profile);
        let mut rc = db.begin_with(IsolationLevel::ReadCommitted);
        let mut rr = db.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(rc.get("skus", 1).unwrap().unwrap().values[1].as_int(), 10);
        assert_eq!(rr.get("skus", 1).unwrap().unwrap().values[1].as_int(), 10);
        let mut w = db.begin();
        w.update("skus", 1, &[("quantity", 99.into())]).unwrap();
        w.commit().unwrap();
        assert_eq!(
            rc.get("skus", 1).unwrap().unwrap().values[1].as_int(),
            99,
            "{profile:?} RC must see the new commit"
        );
        assert_eq!(
            rr.get("skus", 1).unwrap().unwrap().values[1].as_int(),
            10,
            "{profile:?} RR must keep its snapshot"
        );
        rc.commit().unwrap();
        rr.commit().unwrap();
    }
}

/// §3.3.2: a locking scan for `order_id = 10` over a non-unique index with
/// committed neighbours {9, 12} gap-locks (9, 12); an unrelated insert of
/// order_id = 11 blocks until the scanner finishes (MySQL-like, RR+).
#[test]
fn mysql_gap_lock_blocks_unrelated_insert() {
    let db = payments_db(EngineProfile::MySqlLike);
    let mut scanner = db.begin_with(IsolationLevel::RepeatableRead);
    let found = scanner
        .select_for_update("payments", &Predicate::eq("order_id", 10))
        .unwrap();
    assert!(found.is_empty());

    let inserted = Arc::new(AtomicBool::new(false));
    let db2 = db.clone();
    let flag = Arc::clone(&inserted);
    let h = thread::spawn(move || {
        let mut t = db2.begin_with(IsolationLevel::ReadCommitted);
        t.insert("payments", &[("order_id", 11.into())]).unwrap();
        flag.store(true, Ordering::SeqCst);
        t.commit().unwrap();
    });
    thread::sleep(Duration::from_millis(80));
    assert!(
        !inserted.load(Ordering::SeqCst),
        "insert into the locked gap must block"
    );
    scanner.commit().unwrap();
    h.join().unwrap();
    assert!(inserted.load(Ordering::SeqCst));
}

/// The same scan at Read Committed takes no gap lock; the insert proceeds.
#[test]
fn mysql_read_committed_scan_takes_no_gap_lock() {
    let db = payments_db(EngineProfile::MySqlLike);
    let mut scanner = db.begin_with(IsolationLevel::ReadCommitted);
    scanner
        .select_for_update("payments", &Predicate::eq("order_id", 10))
        .unwrap();
    let mut t = db.begin_with(IsolationLevel::ReadCommitted);
    t.insert("payments", &[("order_id", 11.into())]).unwrap();
    t.commit().unwrap();
    scanner.commit().unwrap();
}

/// PostgreSQL-like profile never blocks inserts on gaps…
#[test]
fn postgres_has_no_gap_blocking() {
    let db = payments_db(EngineProfile::PostgresLike);
    let mut scanner = db.begin_with(IsolationLevel::Serializable);
    scanner
        .scan("payments", &Predicate::eq("order_id", 10))
        .unwrap();
    let mut t = db.begin_with(IsolationLevel::ReadCommitted);
    t.insert("payments", &[("order_id", 11.into())]).unwrap();
    t.commit().unwrap();
}

/// …but its Serializable level aborts the reader at commit when a
/// concurrent insert landed inside the scanned index gap (SSI-style
/// rw-antidependency at gap granularity — the §5.2 PBC false conflict).
#[test]
fn postgres_serializable_certification_catches_gap_insert() {
    let db = payments_db(EngineProfile::PostgresLike);
    let mut reader = db.begin_with(IsolationLevel::Serializable);
    let found = reader
        .scan("payments", &Predicate::eq("order_id", 10))
        .unwrap();
    assert!(found.is_empty());
    // Writer inserts order_id = 11 (a *different* order) and commits.
    let mut writer = db.begin_with(IsolationLevel::ReadCommitted);
    writer
        .insert("payments", &[("order_id", 11.into())])
        .unwrap();
    writer.commit().unwrap();
    // The reader writes something (making it a pivot) and tries to commit.
    reader
        .insert("payments", &[("order_id", 10.into())])
        .unwrap();
    let err = reader.commit().unwrap_err();
    assert!(matches!(err, DbError::SerializationFailure { .. }));
}

/// Classic write skew: allowed under Snapshot Isolation (PG Repeatable
/// Read), refused under PG Serializable.
#[test]
fn postgres_write_skew_matrix() {
    let run = |iso: IsolationLevel| -> Result<(), DbError> {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new(
                "oncall",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("on_duty", ColumnType::Bool),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        let mut t = db.begin();
        t.insert("oncall", &[("id", 1.into()), ("on_duty", true.into())])
            .unwrap();
        t.insert("oncall", &[("id", 2.into()), ("on_duty", true.into())])
            .unwrap();
        t.commit().unwrap();

        // Each doctor checks the other is on duty, then goes off duty.
        let mut t1 = db.begin_with(iso);
        let mut t2 = db.begin_with(iso);
        assert!(t1.get("oncall", 2).unwrap().unwrap().values[1].as_bool());
        assert!(t2.get("oncall", 1).unwrap().unwrap().values[1].as_bool());
        t1.update("oncall", 1, &[("on_duty", false.into())])?;
        t2.update("oncall", 2, &[("on_duty", false.into())])?;
        t1.commit()?;
        t2.commit()?;
        Ok(())
    };
    // Snapshot isolation: both commit — write skew.
    run(IsolationLevel::RepeatableRead).expect("SI must allow write skew");
    // Serializable: certification aborts one.
    let err = run(IsolationLevel::Serializable).unwrap_err();
    assert!(matches!(err, DbError::SerializationFailure { .. }));
}

/// SELECT FOR UPDATE blocks a concurrent FOR UPDATE until commit — the
/// Saleor stock-allocation pattern (§3.2.1).
#[test]
fn select_for_update_serializes_rmw() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = skus_db(profile);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                // Read Committed is enough when the lock does the work.
                db.run(IsolationLevel::ReadCommitted, |t| {
                    let row = t.get_for_update("skus", 1)?.expect("sku exists");
                    let q = row.values[1].as_int();
                    t.update("skus", 1, &[("quantity", (q - 4).into())])
                })
                .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
        assert_eq!(q, 2, "{profile:?}: FOR UPDATE must serialize the RMW");
    }
}

/// §4.1.1 (Spree): a SELECT FOR UPDATE in its own auto-commit transaction
/// releases the lock immediately — the RMW race returns.
#[test]
fn select_for_update_outside_transaction_is_useless() {
    let db = skus_db(EngineProfile::PostgresLike);
    // "Auto-commit": the locking read commits (and unlocks) before the
    // update runs in a second transaction.
    let read = db
        .run(IsolationLevel::ReadCommitted, |t| {
            Ok(t.get_for_update("skus", 1)?.unwrap())
        })
        .unwrap();
    let q = read.values[1].as_int();
    // A concurrent writer slips in between the two statements.
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("skus", 1, &[("quantity", 1.into())])
    })
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("skus", 1, &[("quantity", (q - 4).into())])
    })
    .unwrap();
    let final_q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(final_q, 6, "the concurrent write was silently lost");
}

/// The OCC idiom of Figure 1c: UPDATE … WHERE id AND ver atomically
/// validates-and-commits; a racing version bump yields 0 affected rows.
#[test]
fn update_where_version_check_is_atomic() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "polls",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("tallies", ColumnType::Int),
                Column::new("ver", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert(
            "polls",
            &[("id", 1.into()), ("tallies", 0.into()), ("ver", 0.into())],
        )
        .map(|_| ())
    })
    .unwrap();

    let vote = |db: &Database| {
        db.run(IsolationLevel::ReadCommitted, |t| {
            let poll = t.get("polls", 1)?.unwrap();
            let (tallies, ver) = (poll.values[1].as_int(), poll.values[2].as_int());
            let pred = Predicate::And(vec![Predicate::eq("id", 1), Predicate::eq("ver", ver)]);
            t.update_where(
                "polls",
                &pred,
                &[("tallies", (tallies + 1).into()), ("ver", (ver + 1).into())],
            )
        })
    };
    assert_eq!(vote(&db).unwrap(), 1);
    assert_eq!(vote(&db).unwrap(), 1);
    // Concurrent interleave: read, then someone else bumps ver, then write.
    let stale = db
        .run(IsolationLevel::ReadCommitted, |t| {
            let poll = t.get("polls", 1)?.unwrap();
            Ok(poll.values[2].as_int())
        })
        .unwrap();
    assert_eq!(vote(&db).unwrap(), 1); // someone else votes
    let affected = db
        .run(IsolationLevel::ReadCommitted, |t| {
            let pred = Predicate::And(vec![Predicate::eq("id", 1), Predicate::eq("ver", stale)]);
            t.update_where("polls", &pred, &[("tallies", 999.into())])
        })
        .unwrap();
    assert_eq!(affected, 0, "stale version must match nothing");
    let tallies = db.latest_committed("polls", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(tallies, 3);
}

/// Stress: 8 threads vote concurrently with the Figure 1c retry loop; no
/// vote is lost.
#[test]
fn occ_retry_loop_under_contention() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "polls",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("tallies", ColumnType::Int),
                Column::new("ver", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert(
            "polls",
            &[("id", 1.into()), ("tallies", 0.into()), ("ver", 0.into())],
        )
        .map(|_| ())
    })
    .unwrap();

    let votes_per_thread = 25;
    thread::scope(|s| {
        for _ in 0..8 {
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..votes_per_thread {
                    loop {
                        let done = db
                            .run(IsolationLevel::ReadCommitted, |t| {
                                let poll = t.get("polls", 1)?.unwrap();
                                let (tallies, ver) =
                                    (poll.values[1].as_int(), poll.values[2].as_int());
                                let pred = Predicate::And(vec![
                                    Predicate::eq("id", 1),
                                    Predicate::eq("ver", ver),
                                ]);
                                t.update_where(
                                    "polls",
                                    &pred,
                                    &[("tallies", (tallies + 1).into()), ("ver", (ver + 1).into())],
                                )
                            })
                            .unwrap();
                        if done == 1 {
                            break;
                        }
                    }
                }
            });
        }
    });
    let tallies = db.latest_committed("polls", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(tallies, 8 * votes_per_thread);
}

/// Savepoints discard later writes but keep earlier ones (§3.1.2's
/// alternative to multi-request ad hoc transactions).
#[test]
fn savepoints_partial_rollback() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut t = db.begin();
    t.update("skus", 1, &[("quantity", 8.into())]).unwrap();
    t.savepoint("after_first");
    t.update("skus", 1, &[("quantity", 4.into())]).unwrap();
    assert_eq!(t.get("skus", 1).unwrap().unwrap().values[1].as_int(), 4);
    t.rollback_to("after_first").unwrap();
    assert_eq!(t.get("skus", 1).unwrap().unwrap().values[1].as_int(), 8);
    assert!(matches!(
        t.rollback_to("nope"),
        Err(DbError::NoSuchSavepoint { .. })
    ));
    t.commit().unwrap();
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 8);
}

/// Advisory (user) locks: blocking, reentrant, session-scoped (§6).
#[test]
fn advisory_locks_are_session_scoped() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let s1 = db.new_session();
    let s2 = db.new_session();
    db.advisory_lock(s1, 42).unwrap();
    assert!(!db.try_advisory_lock(s2, 42));
    // Reentrant.
    db.advisory_lock(s1, 42).unwrap();
    assert!(db.advisory_unlock(s1, 42));
    assert!(!db.try_advisory_lock(s2, 42));
    db.end_session(s1);
    assert!(db.try_advisory_lock(s2, 42));
}

/// After a simulated server crash, in-flight transactions cannot commit
/// (connection lost), and committed state survives (§3.4.2).
#[test]
fn crash_kills_in_flight_transactions() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut t = db.begin();
    t.update("skus", 1, &[("quantity", 0.into())]).unwrap();
    db.simulate_crash();
    let err = t.commit().unwrap_err();
    assert!(matches!(err, DbError::TxnNotActive { .. }));
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 10, "pre-crash committed state survives");
}

/// Unique secondary indexes reject duplicates, including racing inserts.
#[test]
fn unique_index_rejects_duplicates_across_transactions() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "users",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("email", ColumnType::Str),
            ],
            "id",
        )
        .unwrap()
        .with_unique_index("email")
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert("users", &[("email", "a@example.com".into())])
            .map(|_| ())
    })
    .unwrap();
    let err = db
        .run(IsolationLevel::ReadCommitted, |t| {
            t.insert("users", &[("email", "a@example.com".into())])
                .map(|_| ())
        })
        .unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }));

    // 8 racing inserts of the same fresh email: exactly one wins.
    let wins: usize = thread::scope(|s| {
        (0..8)
            .map(|_| {
                let db = db.clone();
                s.spawn(move || {
                    db.run(IsolationLevel::ReadCommitted, |t| {
                        t.insert("users", &[("email", "race@example.com".into())])
                            .map(|_| ())
                    })
                    .is_ok()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum()
    });
    assert_eq!(wins, 1);
}

/// Scans see the transaction's own pending writes (read-your-writes).
#[test]
fn scans_overlay_own_writes() {
    let db = payments_db(EngineProfile::PostgresLike);
    let mut t = db.begin();
    t.insert("payments", &[("order_id", 10.into())]).unwrap();
    let mine = t.scan("payments", &Predicate::eq("order_id", 10)).unwrap();
    assert_eq!(mine.len(), 1);
    // Another transaction does not see it.
    let mut other = db.begin();
    let theirs = other
        .scan("payments", &Predicate::eq("order_id", 10))
        .unwrap();
    assert!(theirs.is_empty());
    // Deleting within the transaction hides it again.
    let id = mine[0].0;
    assert!(t.delete("payments", id).unwrap());
    assert!(t
        .scan("payments", &Predicate::eq("order_id", 10))
        .unwrap()
        .is_empty());
    t.commit().unwrap();
}

/// Dropping an active transaction aborts it and releases its locks.
#[test]
fn drop_aborts_and_releases() {
    let db = skus_db(EngineProfile::MySqlLike);
    {
        let mut t = db.begin();
        t.update("skus", 1, &[("quantity", 0.into())]).unwrap();
        // dropped without commit
    }
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 10);
    // Lock is free for the next writer.
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("skus", 1, &[("quantity", 7.into())])
    })
    .unwrap();
}

/// run_with_retries retries deadlock victims to completion.
#[test]
fn run_with_retries_recovers_from_deadlocks() {
    let db = skus_db(EngineProfile::MySqlLike);
    let total = 6;
    thread::scope(|s| {
        for _ in 0..total {
            let db = db.clone();
            s.spawn(move || {
                db.run_with_retries(IsolationLevel::Serializable, 50, |t| {
                    let row = t.get("skus", 1)?.unwrap();
                    let q = row.values[1].as_int();
                    t.update("skus", 1, &[("quantity", (q - 1).into())])
                })
                .unwrap();
            });
        }
    });
    let q = db.latest_committed("skus", 1).unwrap().unwrap().values[1].as_int();
    assert_eq!(q, 10 - total);
}

/// Full scans fall back gracefully (no index on the predicate column).
#[test]
fn full_scan_predicates_work() {
    let db = skus_db(EngineProfile::PostgresLike);
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert("skus", &[("id", 2.into()), ("quantity", 0.into())])
            .map(|_| ())
    })
    .unwrap();
    let rows = db
        .run(IsolationLevel::ReadCommitted, |t| {
            t.scan("skus", &Predicate::ge("quantity", 1))
        })
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, 1);
    let all = db
        .run(IsolationLevel::ReadCommitted, |t| {
            t.scan("skus", &Predicate::All)
        })
        .unwrap();
    assert_eq!(all.len(), 2);
}

/// Value-typed errors for missing tables/rows.
#[test]
fn missing_table_and_row_errors() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let mut t = db.begin();
    assert!(matches!(
        t.get("ghosts", 1),
        Err(DbError::NoSuchTable { .. })
    ));
    drop(t);
    let db = skus_db(EngineProfile::PostgresLike);
    let err = db
        .run(IsolationLevel::ReadCommitted, |t| {
            t.update("skus", 99, &[("quantity", 0.into())])
        })
        .unwrap_err();
    assert!(matches!(err, DbError::NoSuchRow { .. }));
}

/// PG Serializable point reads participate in certification: read a row,
/// concurrent writer updates it and commits, reader's write-commit aborts.
#[test]
fn postgres_serializable_read_row_certification() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut reader = db.begin_with(IsolationLevel::Serializable);
    reader.get("skus", 1).unwrap().unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("skus", 1, &[("quantity", 5.into())])
    })
    .unwrap();
    // Reader writes elsewhere, so it is not read-only.
    reader
        .insert("skus", &[("id", 2.into()), ("quantity", 1.into())])
        .unwrap();
    let err = reader.commit().unwrap_err();
    assert!(matches!(err, DbError::SerializationFailure { .. }));
}

/// Per-operation isolation (Table 7a): a Read-Committed-hinted read inside
/// a Repeatable Read transaction sees the latest committed version while
/// the transaction's plain reads keep their snapshot.
#[test]
fn per_operation_isolation_hint() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = skus_db(profile);
        let mut rr = db.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(rr.get("skus", 1).unwrap().unwrap().values[1].as_int(), 10);
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("skus", 1, &[("quantity", 42.into())])
        })
        .unwrap();
        // Snapshot read: unchanged. Hinted read: latest.
        assert_eq!(rr.get("skus", 1).unwrap().unwrap().values[1].as_int(), 10);
        assert_eq!(
            rr.get_read_committed("skus", 1).unwrap().unwrap().values[1].as_int(),
            42,
            "{profile:?}"
        );
        rr.commit().unwrap();
    }
}

/// The hinted read does not poison PG Serializable certification: reading a
/// concurrently-updated row through the hint opts it out of the read set.
#[test]
fn per_op_isolation_read_is_outside_ssi_read_set() {
    let db = skus_db(EngineProfile::PostgresLike);
    let mut reader = db.begin_with(IsolationLevel::Serializable);
    reader.get_read_committed("skus", 1).unwrap().unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("skus", 1, &[("quantity", 5.into())])
    })
    .unwrap();
    reader
        .insert("skus", &[("id", 2.into()), ("quantity", 1.into())])
        .unwrap();
    reader.commit().expect("hinted reads must not certify");
}

/// Table locks: an exclusive explicit table lock blocks a concurrent
/// explicit lock until commit (Table 7a's "explicit table locks").
#[test]
fn explicit_table_locks() {
    let db = skus_db(EngineProfile::MySqlLike);
    let mut t1 = db.begin();
    t1.lock_table("skus", adhoc_storage::LockMode::Exclusive)
        .unwrap();
    let locked = Arc::new(AtomicBool::new(false));
    let db2 = db.clone();
    let flag = Arc::clone(&locked);
    let h = thread::spawn(move || {
        let mut t2 = db2.begin();
        t2.lock_table("skus", adhoc_storage::LockMode::Shared)
            .unwrap();
        flag.store(true, Ordering::SeqCst);
        t2.commit().unwrap();
    });
    thread::sleep(Duration::from_millis(60));
    assert!(!locked.load(Ordering::SeqCst));
    t1.commit().unwrap();
    h.join().unwrap();
    assert!(locked.load(Ordering::SeqCst));
}

/// The primary-key plan is two ordered look-ups, and it must find the same
/// gap the walk over the key set found: on a 4,096-row table (keys 10, 20,
/// …) a MySQL-like Repeatable Read `UPDATE … WHERE id = k` locks exactly
/// `(k − 10, k + 10)` — an insert into that gap waits (here: times out),
/// one just outside it does not — and the PostgreSQL-like profile takes
/// no gap lock at all. The schema handed out is the one shared instance.
#[test]
fn pk_update_where_gap_lock_on_a_large_table() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = Database::new(
            DbConfig::in_memory(profile).with_lock_wait_timeout(Duration::from_millis(30)),
        );
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
        assert!(Arc::ptr_eq(
            &db.schema("t").unwrap(),
            &db.schema("t").unwrap()
        ));
        let mut seed = db.begin();
        for i in 1..=4096 {
            seed.insert("t", &[("id", (i * 10).into()), ("v", 0.into())])
                .unwrap();
        }
        seed.commit().unwrap();

        let k = 20_480;
        let mut writer = db.begin_with(IsolationLevel::RepeatableRead);
        let affected = writer
            .update_where("t", &Predicate::eq("id", k), &[("v", 1.into())])
            .unwrap();
        assert_eq!(affected, 1);

        let mut inside = db.begin_with(IsolationLevel::ReadCommitted);
        let got = inside.insert("t", &[("id", (k + 5).into()), ("v", 0.into())]);
        let mut outside = db.begin_with(IsolationLevel::ReadCommitted);
        outside
            .insert("t", &[("id", (k + 15).into()), ("v", 0.into())])
            .unwrap();
        outside.commit().unwrap();
        match profile {
            EngineProfile::MySqlLike => assert!(
                matches!(got, Err(DbError::LockWaitTimeout { .. })),
                "insert into the locked gap must wait: {got:?}"
            ),
            EngineProfile::PostgresLike => assert_eq!(got.unwrap(), k + 5),
        }
        writer.commit().unwrap();
    }
}

/// Two tables `t` and `u` of `(id, cat, marked)`, `cat` indexed, each
/// holding one unmarked row with `cat = 5` and one with `cat = 1`.
fn marked_tables_db() -> Database {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    for table in ["t", "u"] {
        db.create_table(
            Schema::new(
                table,
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("cat", ColumnType::Int),
                    Column::new("marked", ColumnType::Int),
                ],
                "id",
            )
            .unwrap()
            .with_index("cat")
            .unwrap(),
        )
        .unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert(table, &[("cat", 5.into()), ("marked", 0.into())])?;
            t.insert(table, &[("cat", 1.into()), ("marked", 0.into())])
        })
        .unwrap();
    }
    db
}

/// PG Serializable certifies `UPDATE … WHERE` over its scanned range like
/// the two reading scans: T1 marks `t`'s `cat = 5` rows and inserts one
/// into `u`, T2 marks `u`'s and inserts one into `t`. In either serial
/// order the later transaction marks the earlier one's insert; committing
/// both would leave both inserts unmarked, so the second committer fails.
#[test]
fn postgres_serializable_certifies_update_where_ranges() {
    let db = marked_tables_db();
    let mark = [("marked", 1.into())];
    let row = [("cat", 5.into()), ("marked", 0.into())];
    let mut t1 = db.begin_with(IsolationLevel::Serializable);
    let mut t2 = db.begin_with(IsolationLevel::Serializable);
    assert_eq!(
        t1.update_where("t", &Predicate::eq("cat", 5), &mark)
            .unwrap(),
        1
    );
    t1.insert("u", &row).unwrap();
    assert_eq!(
        t2.update_where("u", &Predicate::eq("cat", 5), &mark)
            .unwrap(),
        1
    );
    t2.insert("t", &row).unwrap();
    t1.commit().unwrap();
    match t2.commit() {
        Err(DbError::SerializationFailure { reason, .. }) => {
            assert_eq!(reason, "rw-antidependency on a scanned range")
        }
        other => panic!("both inserts left unmarked: {other:?}"),
    }
}

/// PG Serializable certifies the rows a scan examined and rejected, not
/// only its matches. Balances 40, 100, 100: T1 counts the accounts with
/// `bal >= 50` into account 3 while T2 copies account 3 into account 1, a
/// key-preserving update of a row T1's scan rejected. The serial outcomes
/// are (2, 100, 2) and (100, 100, 3); committing both would leave
/// (100, 100, 2), so T1 fails.
#[test]
fn postgres_serializable_certifies_rows_a_scan_rejected() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "acct",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("bal", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        for (id, bal) in [(1, 40), (2, 100), (3, 100)] {
            t.insert("acct", &[("id", id.into()), ("bal", bal.into())])?;
        }
        Ok(())
    })
    .unwrap();
    let mut t1 = db.begin_with(IsolationLevel::Serializable);
    let mut t2 = db.begin_with(IsolationLevel::Serializable);
    let rich = t1.scan("acct", &Predicate::ge("bal", 50)).unwrap().len() as i64;
    assert_eq!(rich, 2);
    let bal3 = t2.get("acct", 3).unwrap().unwrap().values[1].as_int();
    t2.update("acct", 1, &[("bal", bal3.into())]).unwrap();
    t2.commit().unwrap();
    t1.update("acct", 3, &[("bal", rich.into())]).unwrap();
    match t1.commit() {
        Err(DbError::SerializationFailure { reason, .. }) => {
            assert_eq!(reason, "rw-antidependency on a read row")
        }
        other => panic!("non-serializable (100, 100, 2) committed: {other:?}"),
    }
}

/// The mirror of the gap lock above: a locking scan whose range holds
/// another transaction's *uncommitted* insert waits for it, as InnoDB's
/// next-key lock waits on the new index record, and then sees the row.
/// Without the wait, two Serializable "insert an item, recompute the
/// cart total" transactions each miss the other's item and the later
/// total overwrites the earlier one (Broadleaf's add-to-cart).
#[test]
fn mysql_locking_scan_waits_for_an_in_flight_insert() {
    let db = payments_db(EngineProfile::MySqlLike);
    let mut inserter = db.begin_with(IsolationLevel::ReadCommitted);
    inserter
        .insert("payments", &[("order_id", 10.into())])
        .unwrap();

    let scanned = Arc::new(AtomicBool::new(false));
    let (db2, flag) = (db.clone(), Arc::clone(&scanned));
    let h = thread::spawn(move || {
        let mut t = db2.begin_with(IsolationLevel::Serializable);
        let rows = t.scan("payments", &Predicate::eq("order_id", 10)).unwrap();
        flag.store(true, Ordering::SeqCst);
        t.commit().unwrap();
        rows.len()
    });
    thread::sleep(Duration::from_millis(80));
    assert!(
        !scanned.load(Ordering::SeqCst),
        "the scan must wait for the insert into its range"
    );
    inserter.commit().unwrap();
    assert_eq!(h.join().unwrap(), 1, "and then see the inserted row");
}

/// A commutative delta takes no record lock, so it can install while a
/// plain update of the same row holds its lock. The update's image was
/// computed before the delta landed; at commit it must merge the delta,
/// not overwrite it — whether the delta's column is another one (a like
/// counter beside a post counter) or the one the update assigns.
#[test]
fn a_plain_update_merges_deltas_installed_under_its_row_lock() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = Database::in_memory(profile);
        db.create_table(
            Schema::new(
                "topics",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("max_post", ColumnType::Int),
                    Column::new("likes", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert(
                "topics",
                &[
                    ("id", 1.into()),
                    ("max_post", 0.into()),
                    ("likes", 0.into()),
                ],
            )
        })
        .unwrap();
        let like = || {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.add_delta("topics", 1, "likes", 1)
            })
            .unwrap()
        };

        let mut writer = db.begin_with(IsolationLevel::ReadCommitted);
        writer
            .update("topics", 1, &[("max_post", 1.into())])
            .unwrap();
        like();
        writer.update("topics", 1, &[("likes", 10.into())]).unwrap();
        like();
        writer.commit().unwrap();

        let schema = db.schema("topics").unwrap();
        let row = db.latest_committed("topics", 1).unwrap().unwrap();
        let col = |c| row.get_int(&schema, c).unwrap();
        assert_eq!((col("max_post"), col("likes")), (1, 12), "{profile:?}");
    }
}

/// §3.3.2's insert-if-absent as a MySQL-like Serializable transaction:
/// scan for the order's payment, insert one if there is none. Racing
/// pairs must never both insert. A scan that planned before the other's
/// insert committed and gap-locked after it would (the plan and the gap
/// lock are two steps), so the scan plans again under its gap lock.
#[test]
fn mysql_serializable_insert_if_absent_never_duplicates() {
    for round in 0..300 {
        let db = payments_db(EngineProfile::MySqlLike);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    db.run_with_retries(IsolationLevel::Serializable, 1000, |t| {
                        if t.scan("payments", &Predicate::eq("order_id", 1))?
                            .is_empty()
                        {
                            t.insert("payments", &[("order_id", 1.into())])?;
                        }
                        Ok(())
                    })
                    .unwrap();
                });
            }
        });
        let mut t = db.begin();
        let rows = t.scan("payments", &Predicate::eq("order_id", 1)).unwrap();
        assert_eq!(rows.len(), 1, "round {round}");
    }
}
