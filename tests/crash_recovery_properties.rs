//! Crash-point fuzzing for the §4.3 payment flow (issue \[60\]): random
//! sequences of payment creation, processing (with crashes injected at the
//! paper's crash point), and boot recovery must always agree with a
//! per-order state-machine model — and recovery must always restore
//! serviceability.

use adhoc_transactions::apps::{spree, Mode};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::sim::{FaultKind, FaultPlan, FaultRule};
use adhoc_transactions::storage::{
    restart_from, Column, ColumnType, Database, DbConfig, EngineProfile, IsolationLevel, Schema,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const ORDERS: i64 = 3;

/// The model's view of one order's payment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PayState {
    None,
    New,
    Processing,
    Completed,
}

#[derive(Debug, Clone, Copy)]
enum CrashOp {
    AddPayment { order: i64 },
    Process { order: i64, crash: bool },
    BootRecovery,
}

fn crash_op() -> impl Strategy<Value = CrashOp> {
    prop_oneof![
        (1..=ORDERS).prop_map(|order| CrashOp::AddPayment { order }),
        (1..=ORDERS, any::<bool>()).prop_map(|(order, crash)| CrashOp::Process { order, crash }),
        Just(CrashOp::BootRecovery),
    ]
}

/// Group-commit durability, fuzzed: a random interleaving of acked
/// commits and commits that die *before* the fsync boundary
/// (`CrashBeforeDurable`), on a database whose WAL runs under
/// `WalSyncPolicy::GroupCommit`. After the crash and a WAL replay into a
/// fresh database:
///
/// * the durable history is a **prefix** of commit order — recovery never
///   skips a middle commit or invents one;
/// * every **acked** commit is inside that prefix (acked ⇒ durable even
///   though group commit defers the fsync to a shared leader sync);
/// * an **unacked tail** (crashed commits with no later acked commit
///   behind them) vanishes atomically — all of its records, or none.
fn group_commit_prefix_property(commits: &[(i64, bool)]) {
    const SEED: u64 = 0x6a5f;
    // Every commit issued while the plan is enabled dies before its fsync.
    let crash_plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::with_probability(
            FaultKind::CrashBeforeDurable,
            1.0,
        )],
    );
    let db = Database::new(
        DbConfig::in_memory(EngineProfile::PostgresLike)
            .with_wal_group_commit()
            .with_faults(crash_plan.clone()),
    );
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
    db.run(IsolationLevel::ReadCommitted, |t| {
        for id in 1..=4 {
            t.insert("accounts", &[("id", id.into()), ("balance", 0.into())])?;
        }
        Ok(())
    })
    .unwrap();

    // Replay the schedule: each commit writes `val = position + 1` to its
    // row. A crashing commit runs with the plan enabled.
    let mut history: Vec<(i64, i64)> = Vec::new(); // (id, val) in commit order
    let mut last_acked: Option<usize> = None;
    for (pos, &(id, crash)) in commits.iter().enumerate() {
        let val = pos as i64 + 1;
        if crash {
            crash_plan.enable();
            let err = db.run(IsolationLevel::ReadCommitted, |t| {
                t.update("accounts", id, &[("balance", val.into())])
            });
            crash_plan.disable();
            assert!(err.is_err(), "CrashBeforeDurable must not ack");
        } else {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.update("accounts", id, &[("balance", val.into())])
            })
            .unwrap();
            last_acked = Some(pos);
        }
        history.push((id, val));
    }

    // Crash: only the WAL's durable prefix survives into the new process.
    let reborn =
        Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal_group_commit());
    reborn
        .create_table(
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
    let report = restart_from(&db, &reborn).unwrap();
    assert!(report.clean(), "group frames never tear in a clean crash");

    // records_applied counts the seed commit too when it became durable.
    let seeded = report.records_applied > 0;
    let replayed = report.records_applied.saturating_sub(1) as usize;
    assert!(replayed <= history.len());
    if let Some(acked) = last_acked {
        assert!(seeded, "an acked commit implies the seed is durable too");
        assert!(
            replayed > acked,
            "acked commit at position {acked} lost: only {replayed} replayed"
        );
    }
    // Prefix check: each row's recovered balance is exactly the last value
    // the first `replayed` commits wrote to it (0 if none and the seed
    // survived; absent entirely if nothing was durable).
    for id in 1..=4 {
        let expected = if seeded {
            history[..replayed]
                .iter()
                .rev()
                .find(|(h, _)| *h == id)
                .map_or(Some(0), |(_, v)| Some(*v))
        } else {
            None
        };
        let got = reborn
            .latest_committed("accounts", id)
            .unwrap()
            .map(|r| r.values[1].as_int());
        assert_eq!(got, expected, "row {id} diverges from the durable prefix");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// See [`group_commit_prefix_property`].
    #[test]
    fn group_commit_acked_survives_and_unacked_tail_vanishes(
        commits in proptest::collection::vec((1i64..=4, any::<bool>()), 1..24),
    ) {
        group_commit_prefix_property(&commits);
    }

    /// Every return value matches the state machine, completed payments
    /// never regress, and a final boot recovery always makes every order
    /// with a payment completable — the paper's fix, fuzzed.
    #[test]
    fn payment_crashes_recover_to_a_serviceable_state(
        ops in proptest::collection::vec(crash_op(), 1..30),
    ) {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = spree::setup(&db).unwrap();
        let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
        for order in 1..=ORDERS {
            app.seed_order(order).unwrap();
        }
        let mut model: HashMap<i64, PayState> =
            (1..=ORDERS).map(|o| (o, PayState::None)).collect();

        for op in &ops {
            match *op {
                CrashOp::AddPayment { order } => {
                    let created = app.add_payment(order).unwrap();
                    let state = model.get_mut(&order).unwrap();
                    prop_assert_eq!(created, *state == PayState::None);
                    if created {
                        *state = PayState::New;
                    }
                }
                CrashOp::Process { order, crash } => {
                    let done = app.process_payment(order, crash).unwrap();
                    let state = model.get_mut(&order).unwrap();
                    match *state {
                        PayState::New => {
                            if crash {
                                prop_assert!(!done, "crashed processing reports failure");
                                *state = PayState::Processing;
                            } else {
                                prop_assert!(done);
                                *state = PayState::Completed;
                            }
                        }
                        // Stuck, absent, or already-finished payments all
                        // refuse — the §4.3 symptom.
                        PayState::None | PayState::Processing | PayState::Completed => {
                            prop_assert!(!done, "{:?} must refuse", *state);
                        }
                    }
                }
                CrashOp::BootRecovery => {
                    let stuck = model.values().filter(|s| **s == PayState::Processing).count();
                    prop_assert_eq!(app.boot_recovery().unwrap(), stuck);
                    for state in model.values_mut() {
                        if *state == PayState::Processing {
                            *state = PayState::New;
                        }
                    }
                }
            }
            for order in 1..=ORDERS {
                prop_assert!(app.one_payment_per_order(order).unwrap());
            }
        }

        // The fix's promise: after one boot recovery, every order that has
        // a payment can finish it.
        app.boot_recovery().unwrap();
        for (order, state) in &model {
            match state {
                PayState::None => prop_assert!(!app.process_payment(*order, false).unwrap()),
                PayState::Completed => {
                    prop_assert!(!app.process_payment(*order, false).unwrap());
                }
                PayState::New | PayState::Processing => {
                    prop_assert!(
                        app.process_payment(*order, false).unwrap(),
                        "order {} unserviceable after recovery", order
                    );
                }
            }
        }
    }
}
