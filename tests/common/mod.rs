//! Shared deterministic-schedule scenarios.
//!
//! One scenario = one closed world (fresh DB/KV state, a couple of logical
//! tasks, an invariant check), written against the [`Trial`] API so it can
//! be driven three ways with identical semantics:
//!
//! * `tests/schedule_explorer.rs` — the explorer *searches* schedules for
//!   an invariant violation (the paper's races, found by schedule);
//! * `tests/schedule_corpus.rs` — pinned `SCHED=` witnesses from
//!   `tests/schedules/` *replay* bit-for-bit (the schedule analog of
//!   proptest regressions);
//! * `tests/schedule_regressions.rs` — the soak races, re-derived
//!   deterministically.
//!
//! Determinism contract: scenarios use [`VirtualClock`] (never the wall
//! clock), seeded [`FaultPlan`]s, and in-memory state built inside the
//! scenario, so the only free variable is the schedule itself.

#![allow(dead_code)] // each test binary uses a subset of the scenarios

use adhoc_bench::contention::kv;
use adhoc_transactions::apps::{broadleaf, discourse, jumpserver, mastodon, Mode};
use adhoc_transactions::core::locks::{AdHocLock, KvSetNxLock, LockError, MemLock};
use adhoc_transactions::core::validation::{
    validated_write, CommitOutcome, ValidationCheck, ValidationStrategy,
};
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::orm::{EntityDef, Orm, Registry};
use adhoc_transactions::sim::sched::Trial;
use adhoc_transactions::sim::{FaultKind, FaultPlan, FaultRule, LatencyModel, VirtualClock};
use adhoc_transactions::storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use adhoc_transactions::sim::rng::DEFAULT_SEED as SEED;

/// A scenario: build fresh state, register tasks, run, check invariants.
pub type Scenario = fn(&mut Trial) -> Result<(), String>;

/// What a schedule search over the scenario must conclude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Buggy variant: some schedule violates the invariant.
    Fail,
    /// Correct variant: every schedule within budget upholds it.
    Pass,
}

/// Every named scenario, its expectation, and its implementation. This is
/// the registry both the corpus replayer and the explorer suite iterate.
pub const SCENARIOS: &[(&str, Expect, Scenario)] = &[
    ("fig1-lost-update", Expect::Fail, fig1_lost_update),
    ("fig1-locked", Expect::Pass, fig1_locked),
    ("setnx-double-grant", Expect::Fail, setnx_double_grant),
    ("invite-dbt", Expect::Pass, invite_dbt),
    (
        "ttl-steal-unchecked-unlock",
        Expect::Fail,
        ttl_steal_unchecked_unlock,
    ),
    (
        "ttl-steal-checked-unlock",
        Expect::Pass,
        ttl_steal_checked_unlock,
    ),
    (
        "ttl-steal-unfenced-write",
        Expect::Fail,
        ttl_steal_unfenced_write,
    ),
    (
        "ttl-steal-fenced-write",
        Expect::Pass,
        ttl_steal_fenced_write,
    ),
    ("validation-scope-gap", Expect::Fail, validation_scope_gap),
    ("validation-atomic", Expect::Pass, validation_atomic),
    (
        "notify-unchecked-duplicates",
        Expect::Fail,
        notify_unchecked_duplicates,
    ),
    ("notify-once-dedupe", Expect::Pass, notify_once_dedupe),
    ("cart-total-locked", Expect::Pass, cart_total_locked),
    ("vote-occ", Expect::Pass, vote_occ),
    ("multi-lock-mutex", Expect::Pass, multi_lock_mutex),
    ("reentrant-mutex", Expect::Pass, reentrant_mutex),
    ("grant-idempotent", Expect::Pass, grant_idempotent),
    ("timeline-consistent", Expect::Pass, timeline_consistent),
    ("rotation-audit", Expect::Pass, rotation_audit),
    (
        "monitor-catches-lock-after-read",
        Expect::Pass,
        monitor_catches_lock_after_read,
    ),
    (
        "monitor-quiet-on-correct-flow",
        Expect::Pass,
        monitor_quiet_on_correct_flow,
    ),
    (
        "epoch-watermark-advance",
        Expect::Pass,
        epoch_watermark_advance,
    ),
    (
        "continuation-validation-race",
        Expect::Pass,
        continuation_validation_race,
    ),
    ("delta-merge-crash", Expect::Pass, delta_merge_crash),
    (
        "rate-limit-window-race",
        Expect::Fail,
        rate_limit_window_race,
    ),
    ("sync-lock-mutex", Expect::Pass, sync_lock_mutex),
    ("watchdog-lock-mutex", Expect::Pass, watchdog_lock_mutex),
    ("ssi-scan-skew", Expect::Pass, ssi_scan_skew),
    (
        "ssi-update-where-phantom",
        Expect::Pass,
        ssi_update_where_phantom,
    ),
];

/// Look a scenario up by its corpus name.
pub fn lookup(name: &str) -> Option<(Expect, Scenario)> {
    SCENARIOS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, e, s)| (*e, *s))
}

fn err_str<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Figure 1a/§3.1.1 — the uncoordinated SKU read-modify-write.
// ---------------------------------------------------------------------------

fn fig1_shop(coordinated: bool) -> Arc<broadleaf::Broadleaf> {
    let mut shop = broadleaf::Broadleaf::studied(Mode::AdHoc);
    if !coordinated {
        shop = shop.omit_sku_coordination();
    }
    let shop = Arc::new(shop);
    shop.seed_sku(1, 10).unwrap();
    shop
}

fn fig1_run(trial: &mut Trial, shop: &Arc<broadleaf::Broadleaf>) -> Result<(), String> {
    let successes = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let shop = Arc::clone(shop);
        let successes = Arc::clone(&successes);
        trial.task(&format!("checkout-{t}"), move || {
            if shop.check_out(1, 1).unwrap() {
                successes.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    trial.run()?;
    if !shop.sku_conserved(1, 10).map_err(err_str)? {
        return Err("Figure 1 lost update: stock conservation violated".into());
    }
    let sold = shop
        .orm()
        .find_required("skus", 1)
        .map_err(err_str)?
        .get_int("sold")
        .map_err(err_str)?;
    let expected = successes.load(Ordering::SeqCst);
    if sold != expected {
        return Err(format!(
            "Figure 1 lost update: {expected} checkouts succeeded but sold={sold}"
        ));
    }
    Ok(())
}

/// Buggy: Broadleaf checkout with SKU coordination omitted — two
/// interleaved read-modify-writes lose an update (Figure 1a, issue [67]).
pub fn fig1_lost_update(trial: &mut Trial) -> Result<(), String> {
    let shop = fig1_shop(false);
    fig1_run(trial, &shop)
}

/// Correct: same workload behind the MEM lock — no schedule loses a sale.
pub fn fig1_locked(trial: &mut Trial) -> Result<(), String> {
    let shop = fig1_shop(true);
    fig1_run(trial, &shop)
}

// ---------------------------------------------------------------------------
// §3.4.2 + §4.1.1 — the ambiguous SETNX double grant (Mastodon invites).
// ---------------------------------------------------------------------------

/// Buggy: holder A's `SETNX` reply is lost but applied; A recovers by
/// reading its token back, then a GC-style pause (virtual-clock advance)
/// expires the lease mid-critical-section and B redeems concurrently. Two
/// users redeem a one-use invite.
pub fn setnx_double_grant(trial: &mut Trial) -> Result<(), String> {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(
        SEED,
        vec![FaultRule::at_ops(FaultKind::ReplyLost, &[0]).max_fires(1)],
    );
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_faults(plan);
    let lock = KvSetNxLock::new(kv.clone())
        .with_ttl(Duration::from_millis(100))
        .recover_ambiguous_replies();
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let social = Arc::new(mastodon::Mastodon::new(
        mastodon::setup(&db).unwrap(),
        kv,
        Arc::new(lock),
        Mode::AdHoc,
    ));
    social.seed_invite(1, 1).unwrap();

    let successes = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let social = Arc::clone(&social);
        let successes = Arc::clone(&successes);
        trial.task(&format!("redeem-{t}"), move || {
            if social.redeem_invite(1).unwrap() {
                successes.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    // The "GC pause": wherever the scheduler places this, the lease dies.
    trial.task("gc-pause", move || {
        clock.advance(Duration::from_millis(200));
    });
    trial.run()?;
    let redeemed = successes.load(Ordering::SeqCst);
    if redeemed > 1 {
        return Err(format!(
            "double grant: {redeemed} redemptions of a 1-use invite"
        ));
    }
    Ok(())
}

/// Correct: the same three tasks under DBT mode — serializable
/// transactions keep the invite within its limit on every schedule.
pub fn invite_dbt(trial: &mut Trial) -> Result<(), String> {
    let clock = Arc::new(VirtualClock::new());
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let social = Arc::new(mastodon::Mastodon::new(
        mastodon::setup(&db).unwrap(),
        kv.clone(),
        Arc::new(KvSetNxLock::new(kv)),
        Mode::DatabaseTxn,
    ));
    social.seed_invite(1, 1).unwrap();

    let successes = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let social = Arc::clone(&social);
        let successes = Arc::clone(&successes);
        trial.task(&format!("redeem-{t}"), move || {
            if social.redeem_invite(1).unwrap() {
                successes.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    trial.task("gc-pause", move || {
        clock.advance(Duration::from_millis(200));
    });
    trial.run()?;
    let redeemed = successes.load(Ordering::SeqCst);
    if redeemed != 1 {
        return Err(format!("{redeemed} redemptions of a 1-use invite"));
    }
    if !social.invite_within_limit(1).map_err(err_str)? {
        return Err("invite redeemed past its max".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §4.1.1 issue [65] — TTL expiry + unchecked DEL steals the next lease.
// ---------------------------------------------------------------------------

fn ttl_steal(trial: &mut Trial, checked_unlock: bool) -> Result<(), String> {
    let clock = Arc::new(VirtualClock::new());
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let mut lock = KvSetNxLock::new(kv.clone()).with_ttl(Duration::from_millis(100));
    if !checked_unlock {
        lock = lock.unlock_without_owner_check();
    }
    let lock = Arc::new(lock);
    let stolen = Arc::new(AtomicBool::new(false));

    // Task 0 overstays its lease, then unlocks — a bare DEL deletes
    // whoever holds the lock *now*; the owner-checked unlock refuses.
    {
        let lock = Arc::clone(&lock);
        let clock = Arc::clone(&clock);
        trial.task("overstayer", move || {
            let guard = lock.lock("cred:1").unwrap();
            clock.advance(Duration::from_millis(200)); // lease expires here
            let _ = guard.unlock();
        });
    }
    // Task 1 holds a live lease across one round trip of protected work
    // and asserts it is still the owner afterwards.
    {
        let lock = Arc::clone(&lock);
        let stolen = Arc::clone(&stolen);
        trial.task("victim", move || {
            let guard = lock.lock("cred:1").unwrap();
            let _ = kv.get("cred:1:payload"); // protected work (one round trip)
            if !guard.is_valid() {
                stolen.store(true, Ordering::SeqCst);
            }
            let _ = guard.unlock();
        });
    }
    trial.run()?;
    if stolen.load(Ordering::SeqCst) {
        return Err("TTL steal: stale unlock deleted the live holder's lease".into());
    }
    Ok(())
}

/// Buggy: unlock is a bare `DEL` (no owner check) — after the lease
/// expires it deletes the *next* holder's entry.
pub fn ttl_steal_unchecked_unlock(trial: &mut Trial) -> Result<(), String> {
    ttl_steal(trial, false)
}

/// Correct: the owner-checked unlock returns `NotHeld` instead of
/// deleting someone else's lease.
pub fn ttl_steal_checked_unlock(trial: &mut Trial) -> Result<(), String> {
    ttl_steal(trial, true)
}

/// The write-side of the TTL steal: a zombie holder whose lease expired
/// writes to the guarded resource anyway. Unfenced, some schedule lets
/// the stale write land *after* the live holder's and corrupt it; with
/// monotonic fencing tokens the store's fence floor bounces every stale
/// write, in every schedule.
fn ttl_steal_write(trial: &mut Trial, fenced: bool) -> Result<(), String> {
    let clock = Arc::new(VirtualClock::new());
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let mut lock = KvSetNxLock::new(kv.clone()).with_ttl(Duration::from_millis(100));
    if fenced {
        lock = lock.with_fencing();
    }
    let lock = Arc::new(lock);
    let corrupted = Arc::new(AtomicBool::new(false));

    // Task 0 acquires, overstays its lease, then blindly writes the
    // guarded payload — never consulting its guard (the §4.1.1 bug).
    {
        let lock = Arc::clone(&lock);
        let clock = Arc::clone(&clock);
        let kv = kv.clone();
        trial.task("zombie", move || {
            let guard = lock.lock("cred:1").unwrap();
            let token = guard.fencing_token();
            clock.advance(Duration::from_millis(200)); // lease expires here
            match token {
                Some(t) => {
                    // The fence: the store rejects the write when a newer
                    // lease has raised the floor.
                    let _ = kv.fenced_set("cred:1:payload", "zombie", t);
                }
                None => {
                    let _ = kv.set("cred:1:payload", "zombie");
                }
            }
            // No unlock: the zombie believes it still holds the lease.
        });
    }
    // Task 1 acquires after the expiry, writes, and must read its own
    // write back — the zombie's stale write must never clobber it.
    {
        let lock = Arc::clone(&lock);
        let corrupted = Arc::clone(&corrupted);
        trial.task("victim", move || {
            let guard = lock.lock("cred:1").unwrap();
            match guard.fencing_token() {
                Some(t) => {
                    assert!(
                        kv.fenced_set("cred:1:payload", "victim", t).unwrap(),
                        "the live holder's token dominates every earlier grant"
                    );
                }
                None => {
                    kv.set("cred:1:payload", "victim").unwrap();
                }
            }
            if kv.get("cred:1:payload").unwrap().as_deref() != Some("victim") {
                corrupted.store(true, Ordering::SeqCst);
            }
            let _ = guard.unlock();
        });
    }
    trial.run()?;
    if corrupted.load(Ordering::SeqCst) {
        return Err("TTL steal: a zombie write clobbered the live holder's payload".into());
    }
    Ok(())
}

/// Buggy: the zombie's unfenced write can land after the live holder's.
pub fn ttl_steal_unfenced_write(trial: &mut Trial) -> Result<(), String> {
    ttl_steal_write(trial, false)
}

/// Correct: fencing tokens make the TTL steal race-free in every
/// schedule — stale writes bounce off the store's fence floor.
pub fn ttl_steal_fenced_write(trial: &mut Trial) -> Result<(), String> {
    ttl_steal_write(trial, true)
}

// ---------------------------------------------------------------------------
// §4.1.2 — the validation-scope gap (MiniSql check-then-write).
// ---------------------------------------------------------------------------

fn validation_fixture() -> Orm {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "posts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("view_cnt", ColumnType::Int),
                Column::new("lock_version", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let orm = Orm::new(db, Registry::new().register(EntityDef::new("posts")));
    orm.create(
        "posts",
        &[
            ("id", 1.into()),
            ("view_cnt", 0.into()),
            ("lock_version", 0.into()),
        ],
    )
    .unwrap();
    orm
}

fn validation_race(trial: &mut Trial, strategy: ValidationStrategy) -> Result<(), String> {
    let orm = Arc::new(validation_fixture());
    let committed = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let orm = Arc::clone(&orm);
        let committed = Arc::clone(&committed);
        let strategy = strategy.clone();
        trial.task(&format!("editor-{t}"), move || {
            let obj = orm.find_required("posts", 1).unwrap();
            let bumped = obj.get_int("view_cnt").unwrap() + 1;
            let outcome =
                validated_write(&orm, &obj, &[("view_cnt", bumped.into())], &strategy).unwrap();
            if outcome == CommitOutcome::Committed {
                committed.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    trial.run()?;
    let view_cnt = orm
        .find_required("posts", 1)
        .map_err(err_str)?
        .get_int("view_cnt")
        .map_err(err_str)?;
    let commits = committed.load(Ordering::SeqCst);
    if view_cnt != commits {
        return Err(format!(
            "validation-scope gap: {commits} commits validated but view_cnt={view_cnt}"
        ));
    }
    Ok(())
}

/// Buggy: the version check runs in its own MiniSql query; a write landing
/// between check and commit is silently overwritten (§4.1.2, 11 issues).
pub fn validation_scope_gap(trial: &mut Trial) -> Result<(), String> {
    validation_race(
        trial,
        ValidationStrategy::HandCraftedNonAtomic {
            check: ValidationCheck::Version {
                column: "lock_version".into(),
            },
            pause_between: None, // the scheduler owns the window
        },
    )
}

/// Correct: the same check folded into the `UPDATE`'s WHERE clause —
/// atomic, so one of the two writers always observes a conflict.
pub fn validation_atomic(trial: &mut Trial) -> Result<(), String> {
    validation_race(
        trial,
        ValidationStrategy::HandCraftedAtomic(ValidationCheck::Version {
            column: "lock_version".into(),
        }),
    )
}

// ---------------------------------------------------------------------------
// Soak-race conversions: notification dedupe and coordinated shop flows.
// ---------------------------------------------------------------------------

fn notify_social() -> Arc<mastodon::Mastodon> {
    Arc::new(mastodon::Mastodon::studied(kv(), Mode::AdHoc))
}

/// Buggy: check-the-table-then-insert dedupe — the check-then-act window
/// admits duplicate notifications.
pub fn notify_unchecked_duplicates(trial: &mut Trial) -> Result<(), String> {
    let social = notify_social();
    for t in 0..2 {
        let social = Arc::clone(&social);
        trial.task(&format!("notifier-{t}"), move || {
            let _ = social.notify_unchecked(7, "mention:1").unwrap();
        });
    }
    trial.run()?;
    if !social.notifications_unique(7).map_err(err_str)? {
        return Err("duplicate notification delivered".into());
    }
    Ok(())
}

/// Correct: the `SETNX` marker *is* the uniqueness check — exactly one
/// delivery on every schedule.
pub fn notify_once_dedupe(trial: &mut Trial) -> Result<(), String> {
    let social = notify_social();
    let delivered = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let social = Arc::clone(&social);
        let delivered = Arc::clone(&delivered);
        trial.task(&format!("notifier-{t}"), move || {
            if social.notify_once(7, "mention:1").unwrap() {
                delivered.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    trial.run()?;
    if delivered.load(Ordering::SeqCst) != 1 {
        return Err(format!(
            "{} deliveries won the SETNX marker",
            delivered.load(Ordering::SeqCst)
        ));
    }
    if !social.notifications_unique(7).map_err(err_str)? {
        return Err("duplicate notification delivered".into());
    }
    Ok(())
}

/// Correct: two coordinated `add_to_cart` requests — the Figure 1a cart
/// total stays consistent with its items on every schedule.
pub fn cart_total_locked(trial: &mut Trial) -> Result<(), String> {
    let shop = Arc::new(broadleaf::Broadleaf::studied(Mode::AdHoc));
    shop.seed_cart(1).unwrap();
    for t in 0..2 {
        let shop = Arc::clone(&shop);
        trial.task(&format!("shopper-{t}"), move || {
            shop.add_to_cart(1, 10 + t, 1).unwrap();
        });
    }
    trial.run()?;
    if !shop.cart_total_consistent(1).map_err(err_str)? {
        return Err("cart total diverged from its items".into());
    }
    Ok(())
}

/// Mutual exclusion through an arbitrary lock: task `t` takes the keys
/// of `orders[t]` in order, then overlap-checks a critical section
/// containing one KV round trip (a scheduling point). Between two keys a
/// task reads the first one's payload (another scheduling point, where an
/// opposite-order task can close a cycle). A task that a
/// deadlock-detecting lock picks as the victim releases what it holds,
/// backs off one scheduling step and starts over; any other lock error
/// fails the trial.
fn mutex_trial(
    trial: &mut Trial,
    lock: Arc<dyn AdHocLock>,
    kv: Client,
    orders: [&'static [&'static str]; 2],
) -> Result<(), String> {
    use adhoc_transactions::sim::sched::{yield_point, SchedPoint};
    let in_cs = Arc::new(AtomicI64::new(0));
    let overlap = Arc::new(AtomicBool::new(false));
    for (t, keys) in orders.into_iter().enumerate() {
        let lock = Arc::clone(&lock);
        let kv = kv.clone();
        let in_cs = Arc::clone(&in_cs);
        let overlap = Arc::clone(&overlap);
        trial.task(&format!("worker-{t}"), move || {
            let guards: Vec<_> = loop {
                let taken = keys.iter().enumerate().map(|(i, key)| {
                    if i > 0 {
                        let _ = kv.get(keys[i - 1]);
                    }
                    lock.lock(key)
                });
                match taken.collect() {
                    Ok(guards) => break guards,
                    Err(LockError::Deadlock { .. }) => yield_point(SchedPoint::Backoff),
                    Err(e) => panic!("{e:?}"),
                }
            };
            if in_cs.fetch_add(1, Ordering::SeqCst) > 0 {
                overlap.store(true, Ordering::SeqCst);
            }
            let _ = kv.get("job:1:payload"); // protected work
            in_cs.fetch_sub(1, Ordering::SeqCst);
            for guard in guards.into_iter().rev() {
                guard.unlock().unwrap();
            }
        });
    }
    trial.run()?;
    if overlap.load(Ordering::SeqCst) {
        return Err("mutual exclusion violated".into());
    }
    Ok(())
}

/// Correct: Discourse's `WATCH`/`MULTI`/`EXEC` lock excludes on every
/// schedule.
pub fn multi_lock_mutex(trial: &mut Trial) -> Result<(), String> {
    use adhoc_transactions::core::locks::KvMultiLock;
    let kv = kv();
    mutex_trial(
        trial,
        Arc::new(KvMultiLock::new(kv.clone())),
        kv,
        [&["job:1"], &["job:1"]],
    )
}

/// Correct: SCM Suite's `synchronized` monitor, keyed process-wide,
/// excludes on every schedule (witness 26). Its wait yields to the
/// explorer like every in-process lock table wait.
pub fn sync_lock_mutex(trial: &mut Trial) -> Result<(), String> {
    use adhoc_transactions::core::locks::SyncLock;
    let kv = kv();
    mutex_trial(
        trial,
        Arc::new(SyncLock::new()),
        kv,
        [&["job:1"], &["job:1"]],
    )
}

/// Correct: the §6 watchdog lock under the Finding 5 anti-pattern — two
/// tasks take `a,b` and `b,a`. Every schedule that closes the cycle gets a
/// `Deadlock` verdict for one task, which releases and retries: both
/// finish, no critical section overlaps, and nobody stalls to a
/// `Timeout` (witness 27).
pub fn watchdog_lock_mutex(trial: &mut Trial) -> Result<(), String> {
    use adhoc_transactions::core::locks::WatchdogLock;
    let kv = kv();
    mutex_trial(
        trial,
        Arc::new(WatchdogLock::new()),
        kv,
        [&["a", "b"], &["b", "a"]],
    )
}

/// Correct: Saleor's re-entrant `SETNX` lock still excludes *other*
/// holders on every schedule (nested acquisition by the holder is fine).
pub fn reentrant_mutex(trial: &mut Trial) -> Result<(), String> {
    let kv = kv();
    let lock = Arc::new(KvSetNxLock::new(kv.clone()).reentrant());
    let in_cs = Arc::new(AtomicI64::new(0));
    let overlap = Arc::new(AtomicBool::new(false));
    for t in 0..2 {
        let lock = Arc::clone(&lock);
        let kv = kv.clone();
        let in_cs = Arc::clone(&in_cs);
        let overlap = Arc::clone(&overlap);
        trial.task(&format!("worker-{t}"), move || {
            let outer = lock.lock("job:1").unwrap();
            if in_cs.fetch_add(1, Ordering::SeqCst) > 0 {
                overlap.store(true, Ordering::SeqCst);
            }
            let inner = lock.lock("job:1").unwrap(); // re-entrant step
            let _ = kv.get("job:1:payload");
            inner.unlock().unwrap();
            in_cs.fetch_sub(1, Ordering::SeqCst);
            outer.unlock().unwrap();
        });
    }
    trial.run()?;
    if overlap.load(Ordering::SeqCst) {
        return Err("re-entrant lock let a second thread in".into());
    }
    Ok(())
}

/// Correct: JumpServer's lock-guarded grant upsert — concurrent grants of
/// the same (user, asset) never duplicate rows and keep the max level.
pub fn grant_idempotent(trial: &mut Trial) -> Result<(), String> {
    let access = Arc::new(jumpserver::JumpServer::studied(kv(), Mode::AdHoc));
    for t in 0..2i64 {
        let access = Arc::clone(&access);
        trial.task(&format!("granter-{t}"), move || {
            access.grant(7, 1, t + 1).unwrap();
        });
    }
    trial.run()?;
    if !access.grants_unique(7).map_err(err_str)? {
        return Err("duplicate grant rows for one (user, asset)".into());
    }
    Ok(())
}

/// Correct: concurrent post create/delete keeps the denormalized timeline
/// consistent with the posts table on every schedule (a soak-only check
/// until now).
pub fn timeline_consistent(trial: &mut Trial) -> Result<(), String> {
    let social = notify_social();
    {
        let social = Arc::clone(&social);
        trial.task("poster-0", move || {
            social.create_post(7, 1, "a").unwrap();
            social.delete_post(7, 1).unwrap();
        });
    }
    {
        let social = Arc::clone(&social);
        trial.task("poster-1", move || {
            social.create_post(7, 2, "b").unwrap();
        });
    }
    trial.run()?;
    if !social.timeline_consistent(7).map_err(err_str)? {
        return Err("timeline diverged from the posts table".into());
    }
    Ok(())
}

/// Correct: concurrent credential rotations under the per-asset lock —
/// every resulting version has its audit row on every schedule.
pub fn rotation_audit(trial: &mut Trial) -> Result<(), String> {
    let access = Arc::new(jumpserver::JumpServer::studied(kv(), Mode::AdHoc));
    access.seed_credential(1, "s0").unwrap();
    for t in 0..2 {
        let access = Arc::clone(&access);
        trial.task(&format!("rotator-{t}"), move || {
            access.rotate_credential(1, &format!("s{t}")).unwrap();
        });
    }
    trial.run()?;
    if !access.rotations_audited(1).map_err(err_str)? {
        return Err("credential version missing its audit row".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §6 monitor under the scheduler: its verdicts must not depend on timing.
// ---------------------------------------------------------------------------

fn monitor_discourse_race(trial: &mut Trial, buggy: bool) -> Result<(), String> {
    use adhoc_transactions::core::monitor::{AccessMonitor, Hazard};
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let monitor = AccessMonitor::new();
    monitor.attach(&db);
    let lock = monitor.wrap_lock(Arc::new(MemLock::new()));
    let mut app = discourse::Discourse::new(discourse::setup(&db).unwrap(), lock, Mode::AdHoc);
    if buggy {
        app = app.lock_after_read();
    }
    let app = Arc::new(app);
    app.seed_topic(1).unwrap();
    let posts = [
        app.seed_post(1, "a", 0).unwrap(),
        app.seed_post(1, "b", 0).unwrap(),
    ];
    for (t, post) in posts.into_iter().enumerate() {
        let app = Arc::clone(&app);
        trial.task(&format!("editor-{t}"), move || {
            let token = app.begin_edit(post).unwrap();
            app.commit_edit(&token, "edited").unwrap();
        });
    }
    trial.run()?;
    let hazards = monitor.hazards();
    let flagged = hazards
        .iter()
        .any(|h| matches!(h, Hazard::LockAfterRead { table, .. } if table == "posts"));
    if buggy && !flagged {
        return Err("monitor missed the lock-after-read hazard".into());
    }
    if !buggy && flagged {
        return Err(format!("monitor flagged a correct flow: {hazards:?}"));
    }
    Ok(())
}

/// Correct-as-a-tool: the monitor flags the Discourse lock-after-read flow
/// on *every* interleaving — the explorer hunts for a schedule where the
/// hazard slips past and must find none.
pub fn monitor_catches_lock_after_read(trial: &mut Trial) -> Result<(), String> {
    monitor_discourse_race(trial, true)
}

/// Correct-as-a-tool: the monitor stays quiet on the corrected flow on
/// every interleaving — no schedule-dependent false positives.
pub fn monitor_quiet_on_correct_flow(trial: &mut Trial) -> Result<(), String> {
    monitor_discourse_race(trial, false)
}

/// Correct: Figure 1c's optimistic vote loop — version-checked retries
/// count every vote exactly once on every schedule.
pub fn vote_occ(trial: &mut Trial) -> Result<(), String> {
    let social = notify_social();
    social.seed_poll(1).unwrap();
    for t in 0..2 {
        let social = Arc::clone(&social);
        trial.task(&format!("voter-{t}"), move || {
            social.vote(1, mastodon::Choice::A).unwrap();
        });
    }
    trial.run()?;
    let (a, b) = social.poll_totals(1).map_err(err_str)?;
    if (a, b) != (2, 0) {
        return Err(format!("votes lost: tallies ({a}, {b}), expected (2, 0)"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Commit-spine epoch advance: acked ⇒ visible under every interleaving.
// ---------------------------------------------------------------------------

/// Correct: the commit spine under interleaved committers. Three tasks
/// commit rounds of updates to disjoint rows, and the scheduler
/// interleaves them at every yield point, so the applied watermark must
/// cover each commit before its ack returns. Each task then reads its own
/// row back: an acked commit that a later snapshot cannot see means the
/// watermark jumped a gap or lagged its ack.
pub fn epoch_watermark_advance(trial: &mut Trial) -> Result<(), String> {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "rows",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        for id in 0..3i64 {
            t.insert("rows", &[("id", id.into()), ("val", 0.into())])?;
        }
        Ok(())
    })
    .unwrap();
    let stale = Arc::new(AtomicBool::new(false));
    for t in 0..3i64 {
        let db = db.clone();
        let stale = Arc::clone(&stale);
        trial.task(&format!("committer-{t}"), move || {
            for round in 1..=2i64 {
                db.run(IsolationLevel::ReadCommitted, |x| {
                    x.update("rows", t, &[("val", round.into())])
                })
                .unwrap();
                // Acked ⇒ a later snapshot includes the commit.
                let seen = db
                    .run(IsolationLevel::ReadCommitted, |x| x.get("rows", t))
                    .unwrap()
                    .map(|r| r.values[1].as_int());
                if seen != Some(round) {
                    stale.store(true, Ordering::SeqCst);
                }
            }
        });
    }
    trial.run()?;
    if stale.load(Ordering::SeqCst) {
        return Err(
            "acked commit invisible to a later snapshot: the applied watermark lagged its ack"
                .into(),
        );
    }
    // Quiescent: the watermark covered every one of the 7 write commits
    // (timestamps are unique, so the highest is at least 7), and no final
    // value was lost to a mis-advanced epoch.
    if db.applied_watermark() < 7 {
        return Err(format!(
            "applied watermark stalled at {} with 7 commits acked",
            db.applied_watermark()
        ));
    }
    for id in 0..3i64 {
        let v = db
            .latest_committed("rows", id)
            .map_err(err_str)?
            .map(|r| r.values[1].as_int());
        if v != Some(2) {
            return Err(format!("row {id} lost its final commit (saw {v:?})"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordination avoidance: commutative-counter merge under a crash.
// ---------------------------------------------------------------------------

/// Correct: two concurrent commutative bumps of one hot counter, with a
/// crash the scheduler may land anywhere — including between a commit's
/// apply and its ack. Deltas merge instead of conflicting, so on every
/// schedule: an acked bump survives the crash (acked ⇒ durable), no bump
/// applies twice, and the counter keeps accepting deltas after restart.
pub fn delta_merge_crash(trial: &mut Trial) -> Result<(), String> {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "counters",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("hits", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert("counters", &[("id", 1.into()), ("hits", 0.into())])
    })
    .unwrap();
    let acked = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let db = db.clone();
        let acked = Arc::clone(&acked);
        trial.task(&format!("bumper-{t}"), move || {
            // A crash racing the commit may surface as an error here; the
            // invariant below covers both outcomes of that ambiguity.
            if db
                .run(IsolationLevel::ReadCommitted, |x| {
                    x.add_delta("counters", 1, "hits", 1)
                })
                .is_ok()
            {
                acked.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    {
        let db = db.clone();
        trial.task("crash", move || db.simulate_crash());
    }
    trial.run()?;
    let hits = db
        .latest_committed("counters", 1)
        .map_err(err_str)?
        .map(|r| r.values[1].as_int())
        .unwrap_or(0);
    let acked = acked.load(Ordering::SeqCst);
    if hits < acked {
        return Err(format!(
            "acked bump lost across the crash: hits = {hits}, acked = {acked}"
        ));
    }
    if hits > 2 {
        return Err(format!("a bump applied twice: hits = {hits} of 2 sent"));
    }
    // The counter must still merge deltas after restart (chain state and
    // the volatile ledgers re-derive from committed rows).
    db.run(IsolationLevel::ReadCommitted, |x| {
        x.add_delta("counters", 1, "hits", 1)
    })
    .map_err(err_str)?;
    let after = db
        .latest_committed("counters", 1)
        .map_err(err_str)?
        .map(|r| r.values[1].as_int());
    if after != Some(hits + 1) {
        return Err(format!(
            "post-restart bump merged wrong: {after:?}, expected {}",
            hits + 1
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §7 cure: an optimistic transaction spanning two simulated HTTP requests.
// ---------------------------------------------------------------------------

/// Correct: request 1 reads a post into an optimistic transaction and
/// parks it in a [`ContinuationStore`]; request 2 restores it and commits
/// with validate-on-save. On schedules where the concurrent writer lands
/// between the requests, validation must reject the stale continuation
/// and the redo loop repeat the RMW — both increments count on every
/// schedule.
pub fn continuation_validation_race(trial: &mut Trial) -> Result<(), String> {
    use adhoc_transactions::orm::{ContinuationStore, OccTxn, OrmError};

    fn bump(orm: &Orm) -> OccTxn {
        let mut occ = OccTxn::new();
        let obj = occ
            .read_fields(orm, "posts", 1, &["view_cnt"])
            .unwrap()
            .expect("seeded post");
        let next = obj.get_int("view_cnt").unwrap() + 1;
        occ.stage_update("posts", 1, &[("view_cnt", next.into())]);
        occ
    }

    fn commit_with_redo(orm: &Orm, mut pending: OccTxn) {
        loop {
            match pending.commit(orm) {
                Ok(()) => return,
                Err(OrmError::OccConflict { .. }) => pending = bump(orm),
                Err(e) => panic!("continuation commit: {e}"),
            }
        }
    }

    let orm = Arc::new(validation_fixture());
    let store = Arc::new(ContinuationStore::new());
    {
        let orm = Arc::clone(&orm);
        let store = Arc::clone(&store);
        trial.task("form-flow", move || {
            // Request 1: read, stage, park the continuation.
            let token = store.save(bump(&orm));
            // Request 2: restore and commit, redoing on validation failure.
            let pending = store.restore(token).unwrap();
            commit_with_redo(&orm, pending);
        });
    }
    {
        let orm = Arc::clone(&orm);
        trial.task("concurrent-writer", move || {
            // The writer that invalidates the parked continuation when the
            // scheduler places it between the two requests.
            commit_with_redo(&orm, bump(&orm));
        });
    }
    trial.run()?;
    let view_cnt = orm
        .find_required("posts", 1)
        .map_err(err_str)?
        .get_int("view_cnt")
        .map_err(err_str)?;
    if view_cnt != 2 {
        return Err(format!(
            "continuation race lost an increment: view_cnt = {view_cnt}, expected 2"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Corpus extension — the web-tier fixed-window rate limiter (witness 25).
// ---------------------------------------------------------------------------

/// Buggy: the service layer's fixed-window rate limiter is a
/// check-then-act ad hoc transaction over the KV store — `GET` the
/// window's count, compare against the limit, `INCR`. Two concurrent
/// requests from the same client both read `0` against a 1-per-window
/// limit and both get admitted; no coordination spans the two round
/// trips. The token-bucket cure (one atomic in-process decision) has no
/// such window — see `adhoc_transactions::service::TokenBucketLimiter`.
pub fn rate_limit_window_race(trial: &mut Trial) -> Result<(), String> {
    use adhoc_transactions::service::{FixedWindowLimiter, RateLimiter};

    let kv = kv();
    let limiter = Arc::new(FixedWindowLimiter::new(kv, 1, Duration::from_secs(1)));
    let admitted = Arc::new(AtomicI64::new(0));
    for t in 0..2 {
        let limiter = Arc::clone(&limiter);
        let admitted = Arc::clone(&admitted);
        trial.task(&format!("request-{t}"), move || {
            if limiter.try_admit(42).unwrap() {
                admitted.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    trial.run()?;
    let n = admitted.load(Ordering::SeqCst);
    if n > 1 {
        return Err(format!(
            "over-admission: {n} requests passed a 1-per-window limit"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The engine's own Serializable: PostgreSQL-like SSI must refuse every
// non-serializable outcome of two retried transactions, on every schedule.
// ---------------------------------------------------------------------------

/// Retries a scenario's Serializable transaction may spend; each conflict
/// costs one.
const SSI_RETRIES: usize = 16;

/// Correct: a scan's rejected rows are certified (witness 28). Balances
/// 40, 100, 100; one task counts the accounts with `bal >= 50` into
/// account 3, the other copies account 3 into account 1 — a
/// key-preserving update of a row the count examined and rejected. Every
/// schedule must end in one of the two serial outcomes, (2, 100, 2) or
/// (100, 100, 3).
pub fn ssi_scan_skew(trial: &mut Trial) -> Result<(), String> {
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
    {
        let db = db.clone();
        trial.task("count", move || {
            db.run_with_retries(IsolationLevel::Serializable, SSI_RETRIES, |t| {
                let rich = t.scan("acct", &Predicate::ge("bal", 50))?.len() as i64;
                t.update("acct", 3, &[("bal", rich.into())])
            })
            .unwrap();
        });
    }
    {
        let db = db.clone();
        trial.task("copy", move || {
            db.run_with_retries(IsolationLevel::Serializable, SSI_RETRIES, |t| {
                let bal = t.get("acct", 3)?.expect("account 3").values[1].clone();
                t.update("acct", 1, &[("bal", bal)])
            })
            .unwrap();
        });
    }
    trial.run()?;
    let mut bal = [0; 3];
    for (id, slot) in (1..).zip(bal.iter_mut()) {
        let row = db.latest_committed("acct", id).map_err(err_str)?;
        *slot = row.map_or(0, |r| r.values[1].as_int());
    }
    if bal != [2, 100, 2] && bal != [100, 100, 3] {
        let [a, b, c] = bal;
        return Err(format!(
            "scan skew: non-serializable balances ({a}, {b}, {c})"
        ));
    }
    Ok(())
}

/// Correct: `UPDATE … WHERE` certifies its scanned range (witness 29).
/// Tables `t` and `u` each hold one `cat = 5` row; one task marks `t`'s
/// `cat = 5` rows and inserts an unmarked one into `u`, the other does the
/// mirror image. In either serial order the later task marks the earlier
/// one's insert, so exactly one of the two inserted rows ends up marked.
pub fn ssi_update_where_phantom(trial: &mut Trial) -> Result<(), String> {
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
            t.insert(
                table,
                &[("id", 1.into()), ("cat", 5.into()), ("marked", 0.into())],
            )
        })
        .unwrap();
    }
    for (mark, into) in [("t", "u"), ("u", "t")] {
        let db = db.clone();
        trial.task(&format!("mark-{mark}"), move || {
            db.run_with_retries(IsolationLevel::Serializable, SSI_RETRIES, |t| {
                t.update_where(mark, &Predicate::eq("cat", 5), &[("marked", 1.into())])?;
                t.insert(into, &[("cat", 5.into()), ("marked", 0.into())])
            })
            .unwrap();
        });
    }
    trial.run()?;
    let mut marked = 0;
    for table in ["t", "u"] {
        for (id, row) in db.dump_table(table).map_err(err_str)? {
            if id != 1 && row.values[2].as_int() == 1 {
                marked += 1;
            }
        }
    }
    if marked != 1 {
        return Err(format!(
            "update-where phantom: {marked} rows marked of the two inserted, a serial order marks 1"
        ));
    }
    Ok(())
}
