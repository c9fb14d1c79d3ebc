//! Tier-1 fault suite: the deterministic fault-injection layer driven
//! end-to-end through the flagship workloads.
//!
//! Covers the paper's §3.4.1 failure-handling strategies — error return,
//! DBT rollback, manual rollback, repair — plus the §3.4.2 ambiguity
//! family: the *reply lost but applied* `SETNX` that double-grants an
//! unfenced lease, the commit that crashes after becoming durable, and a
//! store restart that silently drops volatile leases. Every injected fault
//! is a pure function of `(seed, rule, op index)`, so a replayed run fires
//! bit-for-bit identically.

use adhoc_transactions::apps::{jumpserver, mastodon, spree, Mode};
use adhoc_transactions::core::locks::{self, AcquireConfig, AdHocLock, KvSetNxLock, MemLock};
use adhoc_transactions::core::monitor::{AccessMonitor, Hazard};
use adhoc_transactions::core::LockError;
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::rng::DEFAULT_SEED as SEED;
use adhoc_transactions::sim::{
    FaultKind, FaultPlan, FaultRecord, FaultRule, LatencyModel, VirtualClock,
};
use adhoc_transactions::storage::{restart_from, Database, DbConfig, EngineProfile};
use std::sync::Arc;
use std::time::Duration;

fn faulted_client(clock: Arc<VirtualClock>, plan: FaultPlan) -> Client {
    Client::new(Store::new(), clock, LatencyModel::zero()).with_faults(plan)
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion for the whole layer.
// ---------------------------------------------------------------------------

fn drive_probabilistic_workload(seed: u64) -> Vec<FaultRecord> {
    let plan = FaultPlan::new(
        seed,
        vec![
            FaultRule::with_probability(FaultKind::ConnError, 0.25),
            FaultRule::with_probability(FaultKind::LatencySpike, 0.10)
                .delay(Duration::from_millis(5)),
        ],
    );
    let client = faulted_client(Arc::new(VirtualClock::new()), plan.clone());
    for i in 0..64 {
        let key = format!("k{i}");
        let _ = client.set(&key, "v");
        let _ = client.get(&key);
    }
    plan.log()
}

#[test]
fn fixed_seed_replay_is_bit_for_bit_identical() {
    let first = drive_probabilistic_workload(SEED);
    let second = drive_probabilistic_workload(SEED);
    assert!(!first.is_empty(), "the plan must fire at least once");
    assert_eq!(
        first, second,
        "same seed, same workload -> identical fault log (kinds, op indices, delays)"
    );
    let other = drive_probabilistic_workload(SEED ^ 1);
    assert_ne!(
        first, other,
        "a different seed explores a different schedule"
    );
}

// ---------------------------------------------------------------------------
// The ambiguous SETNX: reply lost but applied (§3.4.2).
// ---------------------------------------------------------------------------

/// Both halves of the flagship scenario share this setup: holder A's
/// `SETNX` reply is lost (the entry *was* written), A recovers by reading
/// its own token back, then stalls past its lease while B acquires.
/// Returns `(guard_a, guard_b)` — a double grant.
fn double_granted_lease() -> (
    adhoc_transactions::core::Guard,
    adhoc_transactions::core::Guard,
) {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(SEED, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[0])]);
    let client = faulted_client(clock.clone(), plan.clone());
    let lock = KvSetNxLock::new(client)
        .with_ttl(Duration::from_millis(100))
        .recover_ambiguous_replies();

    // Op 0: SETNX applies server-side but the reply is lost. Op 1: the
    // recovery GET finds our own token — acquired.
    let guard_a = lock.lock("invite:1").expect("recovered acquisition");
    assert!(guard_a.is_valid());
    assert_eq!(plan.fired(), 1, "exactly the one ReplyLost fired");

    // A stalls mid-critical-section; the lease lapses and B walks in.
    clock.advance(Duration::from_millis(200));
    let guard_b = lock
        .lock("invite:1")
        .expect("fresh acquisition after expiry");
    assert!(guard_b.is_valid());
    (guard_a, guard_b)
}

#[test]
fn ambiguous_setnx_double_grants_the_naive_lease_holder() {
    let (guard_a, guard_b) = double_granted_lease();
    // The naive holder never consults its guard: both A and B run the
    // redeem RMW against a one-use invite.
    let max_redeems = 1;
    let mut redeems = 0;
    redeems += 1; // B, holding a live lease
    redeems += 1; // A, lease long dead, writes anyway (the Mastodon bug)
    assert!(
        redeems > max_redeems,
        "the unfenced double grant must overshoot the invite limit"
    );
    drop(guard_a);
    let _ = guard_b.unlock();
}

#[test]
fn fenced_holder_survives_the_ambiguous_setnx() {
    let (guard_a, guard_b) = double_granted_lease();
    // The fence: check the lease before acting on it.
    let max_redeems = 1;
    let mut redeems = 0;
    if guard_b.is_valid() {
        redeems += 1; // B's lease is live
    }
    if guard_a.is_valid() {
        redeems += 1; // never taken: A sees its lease expired and aborts
    }
    assert_eq!(
        redeems, max_redeems,
        "the is_valid fence keeps the invariant"
    );
    drop(guard_a);
    let _ = guard_b.unlock();
}

// ---------------------------------------------------------------------------
// Ambiguous replies on the lease-*release* path: EXPIRE and DEL (§3.4.2).
// ---------------------------------------------------------------------------

#[test]
fn lost_del_reply_is_not_a_held_lease() {
    let clock = Arc::new(VirtualClock::new());
    // Op 0 is the SETNX acquire; op 1 is the unlock's DEL, whose reply the
    // partition eats *after* the server applied it.
    let plan = FaultPlan::new(SEED, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[1])]);
    let client = faulted_client(clock, plan.clone());
    let lock = KvSetNxLock::new(client.clone());
    let guard = lock.lock("job:42").expect("uncontended acquire");

    // The release errors ambiguously — but the DEL landed. Treating the
    // error as "release failed, the lock is still mine" and carrying on
    // with the critical section is the bug: the entry is gone and the
    // next acquirer walks straight in.
    let err = guard.unlock().unwrap_err();
    assert!(matches!(err, LockError::Backend(_)));
    assert_eq!(plan.fired(), 1);
    assert_eq!(
        client.store().get("job:42", Duration::ZERO).unwrap(),
        None,
        "the DEL applied server-side despite the lost reply"
    );
    let second = lock.lock("job:42").expect("the lock is genuinely free");

    // The sound recovery: DEL is idempotent, so re-issuing it and reading
    // `false` (nothing to delete — someone may already hold a *new*
    // grant) confirms release without clobbering the new holder.
    assert!(client.del("job:42").unwrap());
    let _ = second; // second's entry was removed by the blind retry —
                    // which is exactly why correct unlocks check ownership
                    // (see store_restart_loses_leases_but_not_persistent_locks).
}

#[test]
fn owner_checked_unlock_survives_the_lost_del_reply() {
    let clock = Arc::new(VirtualClock::new());
    // After the SETNX acquire (op 0), the leased unlock conversation
    // pays GET (op 1) and EXEC (op 2): lose the EXEC reply after the
    // atomic delete commits.
    let plan = FaultPlan::new(SEED, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[2])]);
    let client = faulted_client(clock, plan.clone());
    let lock = KvSetNxLock::new(client.clone()).with_ttl(Duration::from_secs(60));
    let guard = lock.lock("job:43").expect("uncontended acquire");
    let result = guard.unlock();
    // Whatever the unlock reported, the entry must be gone (the atomic
    // delete committed) and a fresh acquirer must succeed — an ambiguous
    // release may confuse the *old* holder but never blocks the *next*.
    assert_eq!(client.store().get("job:43", Duration::ZERO).unwrap(), None);
    lock.lock("job:43")
        .expect("released lease is acquirable")
        .unlock()
        .unwrap();
    drop(result);
}

#[test]
fn lost_expire_reply_still_arms_the_ttl() {
    let clock = Arc::new(VirtualClock::new());
    // Op 0: SET session token. Op 1: EXPIRE whose reply is lost after the
    // server armed the TTL.
    let plan = FaultPlan::new(SEED, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[1])]);
    let client = faulted_client(clock.clone(), plan.clone());
    client.set("session:9", "tok").unwrap();
    let err = client
        .expire("session:9", Duration::from_millis(100))
        .unwrap_err();
    assert!(matches!(
        err,
        adhoc_transactions::kv::KvError::ConnectionLost
    ));
    assert_eq!(plan.fired(), 1);
    // The naive reading of the error — "the EXPIRE didn't take, the entry
    // is durable" — is wrong: the TTL is live and the entry will vanish.
    assert!(
        matches!(
            client.ttl("session:9"),
            adhoc_transactions::kv::Ttl::Remaining(_)
        ),
        "TTL armed despite the lost reply"
    );
    clock.advance(Duration::from_millis(200));
    assert_eq!(
        client.get("session:9").unwrap(),
        None,
        "the session expired exactly as the server was told"
    );
}

// ---------------------------------------------------------------------------
// §3.4.1 strategy 1 — error return (Mastodon invites).
// ---------------------------------------------------------------------------

#[test]
fn error_return_surfaces_conn_error_and_leaves_state_clean() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = mastodon::setup(&db).unwrap();
    let plan = FaultPlan::new(
        SEED,
        vec![FaultRule::at_ops(FaultKind::ConnError, &[0]).max_fires(1)],
    );
    let kv = faulted_client(Arc::new(VirtualClock::new()), plan);
    let lock = Arc::new(KvSetNxLock::new(kv.clone()));
    let app = mastodon::Mastodon::new(orm, kv, lock, Mode::AdHoc);
    app.seed_invite(1, 5).unwrap();

    // The lock acquire's SETNX dies on the wire; redeem_invite propagates
    // the error to its caller (Fig. 1b's `raise`).
    assert!(app.redeem_invite(1).is_err());
    assert_eq!(
        app.orm()
            .find_required("invites", 1)
            .unwrap()
            .get_int("redeems")
            .unwrap(),
        0,
        "an error return must leave the invite untouched"
    );
    // The fault was one-shot; an application-level retry goes through.
    assert!(app.redeem_invite(1).unwrap());
    assert!(app.invite_within_limit(1).unwrap());
}

// ---------------------------------------------------------------------------
// §3.4.1 strategy 2 — DBT rollback (Spree add-payment), plus the
// crash-after-durable ambiguity that check-then-act absorbs.
// ---------------------------------------------------------------------------

#[test]
fn dbt_rollback_keeps_payment_invariant_under_commit_failure() {
    let plan =
        FaultPlan::new_disabled(SEED, vec![FaultRule::at_ops(FaultKind::CommitFailed, &[0])]);
    let db =
        Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_faults(plan.clone()));
    let orm = spree::setup(&db).unwrap();
    let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::DatabaseTxn);
    app.seed_order(1).unwrap();
    plan.enable();

    // The DBT's commit is rejected: the engine rolled everything back, so
    // the surfaced error is honest and the invariant holds vacuously.
    let commits_before = db.stats().commits;
    assert!(app.add_payment(1).is_err());
    assert_eq!(db.stats().commits, commits_before, "nothing became durable");
    assert!(db.stats().aborts >= 1);
    assert!(app.one_payment_per_order(1).unwrap());

    plan.disable();
    assert!(app.add_payment(1).unwrap());
    assert!(app.one_payment_per_order(1).unwrap());
}

#[test]
fn check_then_act_absorbs_crash_after_durable_commit() {
    let plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::at_ops(FaultKind::CrashAfterDurable, &[0])],
    );
    let db =
        Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_faults(plan.clone()));
    let orm = spree::setup(&db).unwrap();
    let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::DatabaseTxn);
    app.seed_order(1).unwrap();
    plan.enable();

    // The payment commits durably but the acknowledgement is lost. The
    // caller sees an error it cannot distinguish from a rollback.
    assert!(app.add_payment(1).is_err());
    plan.disable();

    // A blind INSERT retry would duplicate the payment; add_payment's
    // check-then-act shape re-reads first, so the retry is a safe no-op.
    assert!(!app.add_payment(1).unwrap());
    assert!(
        app.one_payment_per_order(1).unwrap(),
        "exactly one payment despite the ambiguous commit"
    );
}

// ---------------------------------------------------------------------------
// §3.4.1 strategy 3 — manual rollback (Mastodon timelines), including the
// ambiguity that fools it.
// ---------------------------------------------------------------------------

#[test]
fn manual_rollback_compensates_a_lost_timeline_write() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = mastodon::setup(&db).unwrap();
    let plan = FaultPlan::new(
        SEED,
        vec![FaultRule::at_ops(FaultKind::ConnError, &[0]).max_fires(1)],
    );
    let kv = faulted_client(Arc::new(VirtualClock::new()), plan);
    // MemLock keeps the KV op stream to exactly the timeline writes.
    let app = mastodon::Mastodon::new(orm, kv, Arc::new(MemLock::new()), Mode::AdHoc);

    // create_post inserts the row, then the timeline SADD dies on the wire
    // (genuinely unapplied). The app surfaces the error; the caller's
    // manual rollback deletes the orphaned row.
    assert!(app.create_post(7, 1, "hello").is_err());
    assert!(app.orm().find("posts", 1).unwrap().is_some(), "orphan row");
    app.orm().delete("posts", 1).unwrap();
    assert!(app.orm().find("posts", 1).unwrap().is_none());
    assert!(app.timeline(7).unwrap().is_empty());
    assert!(app.timeline_consistent(7).unwrap());
}

#[test]
fn manual_rollback_is_fooled_by_reply_lost_until_the_checker_repairs() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = mastodon::setup(&db).unwrap();
    let plan = FaultPlan::new(
        SEED,
        vec![FaultRule::at_ops(FaultKind::ReplyLost, &[0]).max_fires(1)],
    );
    let kv = faulted_client(Arc::new(VirtualClock::new()), plan);
    let app = mastodon::Mastodon::new(orm, kv.clone(), Arc::new(MemLock::new()), Mode::AdHoc);

    // This time the SADD *applied* but the reply was lost. The same manual
    // rollback now deletes the post row while the timeline entry lives on —
    // compensation based on a wrong guess about the outcome.
    assert!(app.create_post(7, 1, "hello").is_err());
    app.orm().delete("posts", 1).unwrap(); // the "rollback"
    assert!(
        !app.timeline_consistent(7).unwrap(),
        "the dangling timeline entry is exactly the §3.4.2 ambiguity cost"
    );

    // §3.4.2's last line of defense: the periodic checker sweeps the
    // dangling reference and repairs.
    for id in app.timeline(7).unwrap() {
        if app.orm().find("posts", id).unwrap().is_none() {
            kv.srem("timeline:7", &id.to_string()).unwrap();
        }
    }
    assert!(app.timeline_consistent(7).unwrap());
}

// ---------------------------------------------------------------------------
// §3.4.1 strategy 4 — repair (JumpServer credential rotation).
// ---------------------------------------------------------------------------

#[test]
fn repair_backfills_audit_lost_to_crash_after_durable() {
    // Op 0 is the rotation's read transaction; op 1 is the credential
    // UPDATE commit — that's the one that becomes durable-but-unreported.
    let plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::at_ops(FaultKind::CrashAfterDurable, &[1])],
    );
    let db =
        Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_faults(plan.clone()));
    let orm = jumpserver::setup(&db).unwrap();
    let app = jumpserver::JumpServer::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
    app.seed_credential(1, "s0").unwrap();
    plan.enable();

    // The split rotation's first transaction (the credential update)
    // becomes durable but reports failure; the process treats that as a
    // crash and never writes the audit row.
    assert!(app.rotate_credential_split(1, "s1", false).is_err());
    plan.disable();
    assert!(
        !app.rotations_audited(1).unwrap(),
        "version advanced durably with no matching audit row"
    );

    // The checker's repair backfills the audit row (§3.4.2).
    assert!(app.repair_rotation_audit(1).unwrap());
    assert!(app.rotations_audited(1).unwrap());
    assert!(
        !app.repair_rotation_audit(1).unwrap(),
        "repair is idempotent"
    );
}

// ---------------------------------------------------------------------------
// Store restart: volatile leases evaporate, persistent entries survive.
// ---------------------------------------------------------------------------

#[test]
fn store_restart_loses_leases_but_not_persistent_locks() {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::at_ops(FaultKind::StoreRestart, &[0]).max_fires(1)],
    );
    let client = faulted_client(clock, plan.clone());
    let fast = AcquireConfig::new(Duration::from_micros(200), Duration::from_millis(20)).unwrap();
    let leased = KvSetNxLock::new(client.clone())
        .with_ttl(Duration::from_secs(60))
        .with_config(fast);
    let persistent = KvSetNxLock::new(client.clone()).with_config(fast);

    let lease_guard = leased.lock("lease:1").unwrap();
    let durable_guard = persistent.lock("durable:1").unwrap();
    plan.enable();
    // The next command hits a freshly restarted store: every TTL'd entry
    // (Redis volatile keys) is gone; persistent entries survive.
    let _ = client.get("probe");
    assert!(
        !lease_guard.is_valid(),
        "the lease evaporated in the restart"
    );
    assert!(durable_guard.is_valid(), "persistent entries survive");

    // Mutual exclusion on the leased key is silently gone.
    let usurper = leased.lock("lease:1").unwrap();
    assert!(usurper.is_valid());
    usurper.unlock().unwrap();
    durable_guard.unlock().unwrap();
    drop(lease_guard);
}

// ---------------------------------------------------------------------------
// Satellite: lease expiry under an injected latency spike, end to end: the
// plan logs the fault, the hazard monitor flags the release.
// ---------------------------------------------------------------------------

#[test]
fn latency_spike_expires_lease_and_monitor_records_everything() {
    let clock = Arc::new(VirtualClock::new());
    let monitor = AccessMonitor::new();
    let plan = FaultPlan::new(
        SEED,
        vec![FaultRule::at_ops(FaultKind::LatencySpike, &[1]).delay(Duration::from_millis(250))],
    );
    let injected = plan.clone();
    let client = faulted_client(clock, plan);
    let lock = monitor.wrap_lock(Arc::new(
        KvSetNxLock::new(client.clone()).with_ttl(Duration::from_millis(100)),
    ));

    let guard = lock.lock("invite:1").unwrap(); // op 0: clean SETNX
                                                // Op 1: a read inside the critical section hits the spike — the server
                                                // processes it 250ms late, well past the 100ms lease.
    let _ = client.get("invite:1");
    assert!(
        !guard.is_valid(),
        "the spike must stall the holder past its own TTL"
    );
    let _ = guard.unlock(); // owner-checked release refuses; hazard recorded

    let faults = injected.log();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::LatencySpike);
    assert_eq!(faults[0].delay, Duration::from_millis(250));
    assert!(
        monitor
            .hazards()
            .iter()
            .any(|h| matches!(h, Hazard::ExpiredLeaseRelease { .. })),
        "the monitor must flag the expired-lease release"
    );
}

// ---------------------------------------------------------------------------
// Satellites: validated AcquireConfig and the Guard::drop error counter.
// ---------------------------------------------------------------------------

#[test]
fn acquire_config_rejects_unacquirable_polling() {
    assert!(AcquireConfig::new(Duration::from_millis(5), Duration::from_secs(1)).is_ok());
    assert!(matches!(
        AcquireConfig::new(Duration::from_secs(1), Duration::from_millis(5)),
        Err(LockError::InvalidConfig { .. })
    ));
    assert!(matches!(
        AcquireConfig::new(Duration::ZERO, Duration::ZERO),
        Err(LockError::InvalidConfig { .. })
    ));
}

// ---------------------------------------------------------------------------
// Crash faults × retry policy × recovery replay: the ambiguous commit must
// not double-apply, before *or after* the WAL is replayed into a fresh
// engine.
// ---------------------------------------------------------------------------

#[test]
fn ambiguous_commit_retry_stays_single_after_recovery_replay() {
    let plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::at_ops(FaultKind::CrashAfterDurable, &[0])],
    );
    let db = Database::new(
        DbConfig::in_memory(EngineProfile::PostgresLike)
            .with_wal()
            .with_faults(plan.clone()),
    );
    let orm = spree::setup(&db).unwrap();
    let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::DatabaseTxn);
    app.seed_order(1).unwrap();
    plan.enable();

    // The payment commits durably (the WAL record is force-synced) but the
    // acknowledgement is lost.
    assert!(app.add_payment(1).is_err());
    plan.disable();

    // Retry policy, step 1: the application's check-then-act retry re-reads
    // and sees the durable payment — a safe no-op, not a duplicate.
    assert!(!app.add_payment(1).unwrap());
    assert!(app.one_payment_per_order(1).unwrap());

    // Step 2: the process then dies for real. A fresh engine replays the
    // WAL; the ambiguous commit must come back exactly once.
    let reborn = Database::new(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
    let orm2 = spree::setup(&reborn).unwrap();
    let app2 = spree::Spree::new(orm2, Arc::new(MemLock::new()), Mode::DatabaseTxn);
    restart_from(&db, &reborn).unwrap();
    assert_eq!(app2.recover_on_boot().fixed, 0, "nothing stuck to repair");

    let schema = reborn.schema("payments").unwrap();
    let payments: Vec<_> = reborn
        .dump_table("payments")
        .unwrap()
        .into_iter()
        .filter(|(_, row)| row.get_int(&schema, "order_id").ok() == Some(1))
        .collect();
    assert_eq!(payments.len(), 1, "replay must not duplicate the commit");

    // Step 3: retrying against the recovered engine is still a no-op.
    assert!(!app2.add_payment(1).unwrap());
    assert!(app2.one_payment_per_order(1).unwrap());
}

#[test]
fn aof_store_restart_preserves_leases_unlike_volatile() {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new_disabled(
        SEED,
        vec![FaultRule::at_ops(FaultKind::StoreRestart, &[0]).max_fires(1)],
    );
    let client =
        Client::new(Store::with_aof(), clock, LatencyModel::zero()).with_faults(plan.clone());
    let fast = AcquireConfig::new(Duration::from_micros(200), Duration::from_millis(20)).unwrap();
    let leased = KvSetNxLock::new(client.clone())
        .with_ttl(Duration::from_secs(60))
        .with_config(fast);

    let lease_guard = leased.lock("lease:1").unwrap();
    plan.enable();
    // The restart replays the append-only file with recorded timestamps:
    // the lease and its absolute deadline both survive.
    let _ = client.get("probe");
    assert!(
        lease_guard.is_valid(),
        "an AOF-backed lease must survive the restart"
    );
    // Mutual exclusion held: a second acquire still fails.
    assert!(leased.lock("lease:1").is_err());
    lease_guard.unlock().unwrap();
}

#[test]
fn guard_drop_counts_swallowed_unlock_errors() {
    let clock = Arc::new(VirtualClock::new());
    let client = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let lock = KvSetNxLock::new(client).with_ttl(Duration::from_millis(50));
    let before = locks::dropped_unlock_errors();
    {
        let _guard = lock.lock("k").unwrap();
        clock.advance(Duration::from_millis(100)); // lease lapses
                                                   // Drop runs the owner-checked unlock, which fails with NotHeld;
                                                   // the error cannot propagate, but it is no longer silent.
    }
    assert!(
        locks::dropped_unlock_errors() > before,
        "the swallowed unlock error must be counted"
    );
}
