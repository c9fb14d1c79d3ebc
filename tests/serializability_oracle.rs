//! Serializability oracle: random concurrent transaction programs run at
//! Serializable must leave the database in a state some *serial* execution
//! of the same programs could have produced. This checks the strongest
//! guarantee both engine profiles claim — MySQL-like via strict 2PL with
//! S-locking reads, PostgreSQL-like via SSI-style commit certification —
//! end to end, including the retry loop real applications wrap around it
//! (the paper's DBT baseline, §5.1).

use adhoc_transactions::core::locks::{AdHocLock, MemLock};
use adhoc_transactions::storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Schema,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const ACCOUNTS: i64 = 3;
const SEED_BALANCE: i64 = 100;

/// One step of a transaction program over the three accounts.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Read an account, write back `balance + delta` (the RMW shape that
    /// loses updates below Serializable).
    Add { acct: i64, delta: i64 },
    /// Read one account, overwrite another with the value read (the
    /// write-skew shape SSI exists to catch).
    Copy { src: i64, dst: i64 },
    /// Blind write.
    Set { acct: i64, value: i64 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1..=ACCOUNTS, -5i64..=5).prop_map(|(acct, delta)| Step::Add { acct, delta }),
        (1..=ACCOUNTS, 1..=ACCOUNTS).prop_map(|(src, dst)| Step::Copy { src, dst }),
        (1..=ACCOUNTS, 0i64..50).prop_map(|(acct, value)| Step::Set { acct, value }),
    ]
}

fn program() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(step(), 1..4)
}

fn db_with_accounts(profile: EngineProfile, accounts: i64, balance: i64) -> Database {
    let db = Database::in_memory(profile);
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
    for acct in 1..=accounts {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("acct", &[("id", acct.into()), ("bal", balance.into())])
        })
        .unwrap();
    }
    db
}

fn fresh_db(profile: EngineProfile) -> Database {
    db_with_accounts(profile, ACCOUNTS, SEED_BALANCE)
}

/// Run one program inside an already-open transaction.
fn apply(
    txn: &mut adhoc_transactions::storage::Transaction,
    schema: &Schema,
    program: &[Step],
) -> adhoc_transactions::storage::Result<()> {
    for step in program {
        match *step {
            Step::Add { acct, delta } => {
                let row = txn.get("acct", acct)?.expect("seeded account");
                let bal = row.get_int(schema, "bal").expect("bal column");
                txn.update("acct", acct, &[("bal", (bal + delta).into())])?;
            }
            Step::Copy { src, dst } => {
                let row = txn.get("acct", src)?.expect("seeded account");
                let bal = row.get_int(schema, "bal").expect("bal column");
                txn.update("acct", dst, &[("bal", bal.into())])?;
            }
            Step::Set { acct, value } => {
                txn.update("acct", acct, &[("bal", value.into())])?;
            }
        }
    }
    Ok(())
}

fn final_state(db: &Database) -> Vec<i64> {
    let schema = db.schema("acct").unwrap();
    (1..=ACCOUNTS)
        .map(|acct| {
            db.latest_committed("acct", acct)
                .unwrap()
                .expect("account survives")
                .get_int(&schema, "bal")
                .unwrap()
        })
        .collect()
}

/// All final states reachable by running the programs in some serial order.
fn serial_outcomes(profile: EngineProfile, programs: &[Vec<Step>]) -> Vec<Vec<i64>> {
    let mut outcomes = Vec::new();
    let mut order: Vec<usize> = (0..programs.len()).collect();
    permute(&mut order, 0, &mut |order| {
        let db = fresh_db(profile);
        let schema = db.schema("acct").unwrap();
        for &i in order.iter() {
            db.run(IsolationLevel::Serializable, |t| {
                apply(t, &schema, &programs[i])
            })
            .unwrap();
        }
        let state = final_state(&db);
        if !outcomes.contains(&state) {
            outcomes.push(state);
        }
    });
    outcomes
}

fn permute(order: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == order.len() {
        visit(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute(order, k + 1, visit);
        order.swap(k, i);
    }
}

fn check_serializable(profile: EngineProfile, programs: &[Vec<Step>]) -> Result<(), TestCaseError> {
    let db = Arc::new(fresh_db(profile));
    let schema = db.schema("acct").unwrap();
    std::thread::scope(|s| {
        for program in programs {
            let db = Arc::clone(&db);
            let schema = &schema;
            s.spawn(move || {
                db.run_with_retries(IsolationLevel::Serializable, 10_000, |t| {
                    apply(t, schema, program)
                })
                .expect("serializable retry loop converges");
            });
        }
    });
    let got = final_state(&db);
    let allowed = serial_outcomes(profile, programs);
    prop_assert!(
        allowed.contains(&got),
        "profile {profile:?}: concurrent outcome {got:?} matches no serial order \
         (allowed {allowed:?}) for programs {programs:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// PostgreSQL-like Serializable (SSI certification): every concurrent
    /// schedule of three random programs is equivalent to a serial one.
    #[test]
    fn postgres_serializable_is_serializable(
        programs in proptest::collection::vec(program(), 3..=3),
    ) {
        check_serializable(EngineProfile::PostgresLike, &programs)?;
    }

    /// MySQL-like Serializable (strict 2PL with S-locking reads): every
    /// concurrent schedule of three random programs is equivalent to a
    /// serial one, with upgrade deadlocks resolved by the retry loop.
    #[test]
    fn mysql_serializable_is_serializable(
        programs in proptest::collection::vec(program(), 3..=3),
    ) {
        check_serializable(EngineProfile::MySqlLike, &programs)?;
    }
}

/// Contention stress over the sharded commit path, both footprint regimes:
///
/// * **disjoint keys** — each thread owns one row, so commit-time shard
///   locks are (almost always) disjoint and commits proceed in parallel;
/// * **same key** — every thread RMWs one row, the maximal-conflict case
///   where certification aborts and the retry loop do all the work.
///
/// Either way the serializable retry loop must converge on the exact
/// serial result: per-shard validation may change *who waits on whom*,
/// never the count.
#[test]
fn disjoint_and_same_key_contention_both_serialize_exactly() {
    const THREADS: i64 = 8;
    const OPS: i64 = 50;
    for profile in [EngineProfile::PostgresLike, EngineProfile::MySqlLike] {
        // Disjoint-key writers: thread `i` increments row `i`.
        let db = Arc::new(db_with_accounts(profile, THREADS, 0));
        let schema = db.schema("acct").unwrap();
        std::thread::scope(|s| {
            for acct in 1..=THREADS {
                let db = Arc::clone(&db);
                let schema = &schema;
                s.spawn(move || {
                    for _ in 0..OPS {
                        db.run_with_retries(IsolationLevel::Serializable, 10_000, |t| {
                            let row = t.get("acct", acct)?.expect("seeded account");
                            let bal = row.get_int(schema, "bal").expect("bal column");
                            t.update("acct", acct, &[("bal", (bal + 1).into())])
                        })
                        .expect("disjoint-key writer converges");
                    }
                });
            }
        });
        for acct in 1..=THREADS {
            let bal = db
                .latest_committed("acct", acct)
                .unwrap()
                .expect("row survives")
                .get_int(&schema, "bal")
                .unwrap();
            assert_eq!(bal, OPS, "{profile:?}: row {acct} lost updates");
        }

        // Same-key writers: every thread increments row 1.
        let db = Arc::new(db_with_accounts(profile, 1, 0));
        let schema = db.schema("acct").unwrap();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let db = Arc::clone(&db);
                let schema = &schema;
                s.spawn(move || {
                    for _ in 0..OPS {
                        db.run_with_retries(IsolationLevel::Serializable, 10_000, |t| {
                            let row = t.get("acct", 1)?.expect("seeded account");
                            let bal = row.get_int(schema, "bal").expect("bal column");
                            t.update("acct", 1, &[("bal", (bal + 1).into())])
                        })
                        .expect("same-key writer converges");
                    }
                });
            }
        });
        let bal = db
            .latest_committed("acct", 1)
            .unwrap()
            .expect("row survives")
            .get_int(&schema, "bal")
            .unwrap();
        assert_eq!(bal, THREADS * OPS, "{profile:?}: hot row lost updates");
    }
}

/// Watermark visibility stress, mixed footprints: four threads RMW their
/// own disjoint rows (commits on different shards retire in parallel and
/// out of timestamp order) while four more hammer one hot row
/// (certification aborts force retries). After every acked commit each
/// thread opens a probe snapshot and checks the two sides of the
/// watermark contract:
///
/// * **never ahead** — the probe's snapshot timestamp is at or below the
///   applied watermark. The timestamp counter runs ahead of the applied
///   frontier whenever a commit is mid-install, so a snapshot
///   accidentally derived from the counter (instead of the watermark)
///   fails this under load;
/// * **never behind an ack** — the snapshot is at or above the watermark
///   read *before* the commit, and the probe reads back the thread's own
///   acked write (disjoint rows exactly, the hot row at least) — the
///   watermark may lag raw timestamp allocation, never an acknowledgement.
#[test]
fn snapshots_never_run_ahead_of_the_applied_watermark() {
    const DISJOINT: i64 = 4;
    const HOT_WRITERS: i64 = 4;
    const HOT_ROW: i64 = DISJOINT + 1;
    const OPS: i64 = 40;
    for profile in [EngineProfile::PostgresLike, EngineProfile::MySqlLike] {
        let db = Arc::new(db_with_accounts(profile, HOT_ROW, 0));
        let schema = db.schema("acct").unwrap();
        std::thread::scope(|s| {
            for thread in 1..=(DISJOINT + HOT_WRITERS) {
                let db = Arc::clone(&db);
                let schema = &schema;
                let row = if thread <= DISJOINT { thread } else { HOT_ROW };
                s.spawn(move || {
                    for i in 1..=OPS {
                        let wm_before = db.applied_watermark();
                        db.run_with_retries(IsolationLevel::Serializable, 10_000, |t| {
                            let cur = t.get("acct", row)?.expect("seeded account");
                            let bal = cur.get_int(schema, "bal").expect("bal column");
                            t.update("acct", row, &[("bal", (bal + 1).into())])
                        })
                        .expect("stress writer converges");

                        let mut probe = db.begin_with(IsolationLevel::RepeatableRead);
                        let snap = probe.snapshot_ts();
                        let wm_after = db.applied_watermark();
                        assert!(
                            snap <= wm_after,
                            "{profile:?}: snapshot {snap} ahead of applied \
                             watermark {wm_after}"
                        );
                        assert!(
                            snap >= wm_before,
                            "{profile:?}: watermark regressed across a commit \
                             ({snap} < {wm_before})"
                        );
                        let seen = probe
                            .get("acct", row)
                            .unwrap()
                            .expect("row survives")
                            .get_int(schema, "bal")
                            .unwrap();
                        if row == HOT_ROW {
                            assert!(
                                seen >= i,
                                "{profile:?}: acked hot-row increment invisible \
                                 (saw {seen}, acked {i})"
                            );
                        } else {
                            assert_eq!(
                                seen, i,
                                "{profile:?}: disjoint row {row} snapshot diverges"
                            );
                        }
                    }
                });
            }
        });
        for row in 1..=DISJOINT {
            let bal = db
                .latest_committed("acct", row)
                .unwrap()
                .expect("row survives")
                .get_int(&schema, "bal")
                .unwrap();
            assert_eq!(bal, OPS, "{profile:?}: disjoint row {row} lost updates");
        }
        let hot = db
            .latest_committed("acct", HOT_ROW)
            .unwrap()
            .expect("row survives")
            .get_int(&schema, "bal")
            .unwrap();
        assert_eq!(hot, HOT_WRITERS * OPS, "{profile:?}: hot row lost updates");
        // Every acked commit retired into the watermark: 5 seed commits
        // plus one per increment (an aborted attempt draws no timestamp).
        let commits = (HOT_ROW + (DISJOINT + HOT_WRITERS) * OPS) as u64;
        assert!(
            db.applied_watermark() >= commits,
            "{profile:?}: watermark below the acked-commit count"
        );
    }
}

/// The ad hoc shape of the same contract: an application-level lock taken
/// *before* the transaction and released only *after* its commit is
/// acked (Figure 1's pattern). A committer whose timestamp waits on a
/// neighbour's then stops that neighbour from ever committing again if
/// the neighbour needs the lock it holds, so a single missed watermark
/// advance is a permanent stall, not a delay. Two threads pick one of two
/// `MemLock` keys at random, RMW the row the key guards and read it back
/// while still holding the lock. Workers are detached and report over a
/// channel, so a stall fails the test instead of hanging the binary.
#[test]
fn app_lock_held_across_commit_never_stalls_the_watermark() {
    const THREADS: u64 = 2;
    const OPS: i64 = 60_000;
    for profile in [EngineProfile::PostgresLike, EngineProfile::MySqlLike] {
        let db = Arc::new(db_with_accounts(profile, 2, 0));
        let locks = Arc::new(MemLock::new());
        let (done, finished) = mpsc::channel();
        for seed in 0..THREADS {
            let (db, locks, done) = (Arc::clone(&db), Arc::clone(&locks), done.clone());
            std::thread::spawn(move || {
                let schema = db.schema("acct").unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..OPS {
                    let row = rng.gen_range(1..=2i64);
                    let held = locks.lock(&format!("acct:{row}")).expect("app lock");
                    let mut wrote = 0;
                    db.run_with_retries(IsolationLevel::Serializable, 10_000, |t| {
                        let cur = t.get("acct", row)?.expect("seeded account");
                        wrote = cur.get_int(&schema, "bal").expect("bal column") + 1;
                        t.update("acct", row, &[("bal", wrote.into())])
                    })
                    .expect("locked writer converges");
                    // Acked ⇒ visible, and the lock makes it exact.
                    let seen = db
                        .run(IsolationLevel::ReadCommitted, |t| t.get("acct", row))
                        .unwrap()
                        .expect("row survives")
                        .get_int(&schema, "bal")
                        .unwrap();
                    assert_eq!(seen, wrote, "{profile:?}: acked write invisible");
                    held.unlock().expect("unlock");
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..THREADS {
            finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!(
                        "{profile:?}: a committer stalled holding its app lock \
                         (watermark {})",
                        db.applied_watermark()
                    )
                });
        }
        let schema = db.schema("acct").unwrap();
        let total: i64 = (1..=2)
            .map(|row| {
                let r = db.latest_committed("acct", row).unwrap();
                r.expect("row survives").get_int(&schema, "bal").unwrap()
            })
            .sum();
        assert_eq!(total, THREADS as i64 * OPS, "{profile:?}: lost updates");
        assert!(db.applied_watermark() >= 2 + THREADS * OPS as u64);
    }
}

/// Negative control: the same oracle *fails* below Serializable. Two
/// crossing Copy programs at Snapshot Isolation, forced to overlap with a
/// barrier, commit a write-skewed state no serial order allows —
/// demonstrating the oracle has teeth (and that the Serializable runs
/// above are not passing vacuously).
#[test]
fn snapshot_isolation_fails_the_oracle() {
    let db = Arc::new(fresh_db(EngineProfile::PostgresLike));
    // Make the two accounts distinguishable.
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("acct", 1, &[("bal", 1.into())])?;
        t.update("acct", 2, &[("bal", 2.into())])
    })
    .unwrap();
    let schema = db.schema("acct").unwrap();
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for (src, dst) in [(1i64, 2i64), (2, 1)] {
            let db = Arc::clone(&db);
            let (schema, barrier) = (&schema, &barrier);
            s.spawn(move || {
                let mut t = db.begin_with(IsolationLevel::RepeatableRead);
                let row = t.get("acct", src).unwrap().unwrap();
                let bal = row.get_int(schema, "bal").unwrap();
                barrier.wait(); // both snapshots taken before either write
                t.update("acct", dst, &[("bal", bal.into())]).unwrap();
                t.commit().expect("SI commits both sides of write skew");
            });
        }
    });
    // Serial orders produce [1,1,100] or [2,2,100]; the swap is the
    // write-skew anomaly Snapshot Isolation permits.
    assert_eq!(final_state(&db), vec![2, 1, 100]);
}
