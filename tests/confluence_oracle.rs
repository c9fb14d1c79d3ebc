//! Confluence oracle: the coordination-avoiding paths keep their
//! invariants with no coordination to lean on.
//!
//! PR 9's tentpole claim is that `Mode::Confluent` commits commutative
//! counter updates with *zero* coordination (no lock, no OCC footprint,
//! no retry loop) and enforces budget invariants (`x >= 0`,
//! `uses <= max`) through escrow reservations alone. That claim is only
//! as good as its failure modes, so this oracle checks it from two
//! directions:
//!
//! 1. **Concurrency** — threads hammer a single hot row through the
//!    Confluent app paths. Counters must converge to the exact sum
//!    (commutativity means nothing is lost and nothing retries), and
//!    escrow budgets must grant *exactly* the budgeted amount: never an
//!    oversell, never a refused request while slots remain.
//! 2. **Crash-restart** — the WAL-backed sweep in `tests/crash_sweep/`
//!    that `crash_recovery_oracle.rs` also runs: every commit-adjacent
//!    crash point, under every crash kind (`CommitFailed`,
//!    `CrashAfterDurable`, `CrashBeforeDurable`, `TornWrite`). Deltas
//!    materialize into ordinary row images at commit, so recovery is
//!    delta-oblivious; the escrow ledger is volatile and re-derives
//!    from committed state. The oracle asserts durability of acked
//!    effects, conservation invariants after replay, serviceability
//!    (the restarted process resumes, with at-least-once duplicates
//!    bounded by the escrow cap), and — stronger than the ad hoc
//!    sweeps — that boot-fsck finds *nothing to repair* and every
//!    resumed op succeeds.
//!
//! The schedule-explorer half of the story lives in
//! `tests/schedule_corpus.rs` (the `delta-merge-crash` scenario, pinned
//! as witness 24). Replay one crash point in isolation with
//! `CRASH_ORACLE=<app>_confluent/kind/k` (e.g.
//! `scm_suite_confluent/torn-write/2`).

mod crash_sweep;

use adhoc_transactions::apps::{mastodon, saleor, scm_suite, spree, Mode};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::{LatencyModel, VirtualClock};
use adhoc_transactions::storage::{Database, DbConfig, EngineProfile};
use crash_sweep::{check, fsck_violations, int_field, sweep, Audit, Driver, Op};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

fn mem_db() -> Database {
    Database::new(DbConfig::in_memory(EngineProfile::PostgresLike))
}

fn mastodon_app(db: &Database, mode: Mode) -> mastodon::Mastodon {
    let orm = mastodon::setup(db).unwrap();
    let kv = Client::new(
        Store::new(),
        Arc::new(VirtualClock::new()),
        LatencyModel::zero(),
    );
    mastodon::Mastodon::new(orm, kv, Arc::new(MemLock::new()), mode)
}

// ---------------------------------------------------------------------------
// Part 1: convergence and budget exactness under concurrency.
// ---------------------------------------------------------------------------

/// Fig. 1c without the loop: concurrent votes are commutative deltas, so
/// every vote lands exactly once — no retry, no lost update — and the
/// tallies converge to the exact per-choice sums.
#[test]
fn confluent_poll_tallies_converge_exactly() {
    let db = mem_db();
    let app = Arc::new(mastodon_app(&db, Mode::Confluent));
    app.seed_poll(1).unwrap();
    let threads = 8;
    let votes = 25;
    std::thread::scope(|s| {
        for t in 0..threads {
            let app = app.clone();
            s.spawn(move || {
                for j in 0..votes {
                    let choice = if (t + j) % 2 == 0 {
                        mastodon::Choice::A
                    } else {
                        mastodon::Choice::B
                    };
                    // Any Err here is a failed commit: the Confluent vote
                    // path has no retry loop, so success proves zero
                    // conflicts, not conflicts-eventually-won.
                    app.vote(1, choice).unwrap();
                }
            });
        }
    });
    let (a, b) = app.poll_totals(1).unwrap();
    assert_eq!((a, b), (100, 100), "tallies must converge to exact sums");
    let boot = app.recover_on_boot();
    assert!(boot.is_clean() && boot.fixed == 0, "{boot:?}");
}

/// Fig. 1b as escrow: `redeems <= max_redeems` held by reserving slots,
/// not by a lock. Contenders get *exactly* the budget — no over-redeem,
/// and no refusal while slots remain (reservations either confirm or
/// are released back).
#[test]
fn escrow_invites_grant_exactly_the_budget() {
    let db = mem_db();
    let app = Arc::new(mastodon_app(&db, Mode::Confluent));
    app.seed_invite(1, 10).unwrap();
    let granted = AtomicI64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (app, granted) = (app.clone(), &granted);
            s.spawn(move || {
                for _ in 0..8 {
                    if app.redeem_invite(1).unwrap() {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(granted.load(Ordering::Relaxed), 10, "exactly the budget");
    assert_eq!(int_field(&db, "invites", 1, "redeems"), Some(10));
    assert_eq!(int_field(&db, "invites", 1, "slots"), Some(0));
    assert!(app.invite_within_limit(1).unwrap());
    let boot = app.recover_on_boot();
    assert!(boot.is_clean() && boot.fixed == 0, "{boot:?}");
}

/// §3.2.1 as escrow: sixteen concurrent single-unit allocations against
/// ten units of stock. The stock decrement takes no `FOR UPDATE` lock;
/// the escrow reservation alone must stop the oversell at exactly zero.
#[test]
fn escrow_stock_allocation_never_oversells() {
    let db = mem_db();
    let orm = saleor::setup(&db).unwrap();
    let app = Arc::new(saleor::Saleor::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::Confluent,
    ));
    app.seed_stock(1, 10).unwrap();
    for item in 1..=16 {
        app.seed_allocation(item, 1, 1).unwrap();
    }
    let granted = AtomicI64::new(0);
    std::thread::scope(|s| {
        for item in 1..=16 {
            let (app, granted) = (app.clone(), &granted);
            s.spawn(move || {
                if app.allocate(item).unwrap() {
                    granted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(granted.load(Ordering::Relaxed), 10, "exactly the stock");
    assert_eq!(app.stock_qty(1).unwrap(), 0, "stock drains to exactly zero");
    let boot = app.recover_on_boot();
    assert!(boot.is_clean() && boot.fixed == 0, "{boot:?}");
}

/// §3.1.1's checkout under escrow: concurrent single-unit orders against
/// one hot SKU drain it to exactly zero, and the cold cascade rows
/// (product/category touches, order state) ride along blind.
#[test]
fn spree_confluent_checkout_drains_stock_exactly() {
    let db = mem_db();
    let orm = spree::setup(&db).unwrap();
    let app = Arc::new(spree::Spree::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::Confluent,
    ));
    app.seed_catalog(1, 1, &[1, 2], 50).unwrap();
    let threads = 8;
    for order in 1..=threads {
        app.seed_order(order).unwrap();
    }
    let granted = AtomicI64::new(0);
    std::thread::scope(|s| {
        for order in 1..=threads {
            let (app, granted) = (app.clone(), &granted);
            s.spawn(move || {
                for _ in 0..10 {
                    if app.decrement_stock(order, 1, 1).unwrap() {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(granted.load(Ordering::Relaxed), 50, "exactly the stock");
    assert_eq!(app.sku_quantity(1).unwrap(), 0);
    let boot = app.recover_on_boot();
    assert!(boot.is_clean() && boot.fixed == 0, "{boot:?}");
}

/// Mixed credits and debits on one hot account: credits are pure
/// deposits, debits reserve first. The final balance must equal the
/// seed plus every credit minus exactly the granted debits, never dip
/// below zero, and agree with the escrow ledger's view.
#[test]
fn scm_balance_conserves_under_mixed_traffic() {
    let db = mem_db();
    let orm = scm_suite::setup(&db).unwrap();
    let app = Arc::new(scm_suite::ScmSuite::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::Confluent,
    ));
    app.seed_account(1, 50).unwrap();
    let debits = AtomicI64::new(0);
    std::thread::scope(|s| {
        for t in 0..8 {
            let (app, debits) = (app.clone(), &debits);
            s.spawn(move || {
                for _ in 0..10 {
                    if t % 2 == 0 {
                        assert!(app.adjust_balance(1, 2).unwrap(), "credits always land");
                    } else if app.adjust_balance(1, -3).unwrap() {
                        debits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let balance = app.balance(1).unwrap();
    let expected = 50 + 40 * 2 - 3 * debits.load(Ordering::Relaxed);
    assert_eq!(balance, expected, "conservation: seed + credits - grants");
    assert!(balance >= 0, "the budget invariant");
    assert_eq!(
        db.escrow_available("accounts", 1, "balance").unwrap(),
        balance,
        "the volatile ledger agrees with committed state at rest"
    );
    let boot = app.recover_on_boot();
    assert!(boot.is_clean() && boot.fixed == 0, "{boot:?}");
}

// ---------------------------------------------------------------------------
// Part 2: crash-restart sweeps over the Confluent paths.
// ---------------------------------------------------------------------------

impl Audit<'_> {
    /// `[lo, hi]` bounds for a counter fed by the ops in `ids`: at least
    /// every acked feeding op, at most one ambiguous duplicate from the
    /// crashed op.
    fn bounds(&self, ids: &[usize]) -> (i64, i64) {
        let lo = if self.resumed {
            ids.len() as i64
        } else {
            ids.iter().filter(|i| self.acked.contains(i)).count() as i64
        };
        let dup = self.crashed.is_some_and(|c| ids.contains(&c)) as i64;
        (lo, lo + dup)
    }
}

/// Mastodon: poll tallies (pure counters) interleaved with invite
/// redemptions (escrow budget of 3 against 3 demands).
fn mastodon_case(db: &Database, seed: bool) -> Driver {
    let app = Arc::new(mastodon_app(db, Mode::Confluent));
    if seed {
        app.seed_poll(1).unwrap();
        app.seed_invite(1, 3).unwrap();
    }
    const A_VOTES: &[usize] = &[0, 4];
    const B_VOTES: &[usize] = &[2];
    const REDEEMS: &[usize] = &[1, 3, 5];
    let vote = |app: &Arc<mastodon::Mastodon>, c| {
        let app = app.clone();
        Box::new(move || app.vote(1, c).map(|_| true).map_err(|e| format!("{e:?}"))) as Op
    };
    let redeem = |app: &Arc<mastodon::Mastodon>| {
        let app = app.clone();
        Box::new(move || app.redeem_invite(1).map_err(|e| format!("{e:?}"))) as Op
    };
    let db = db.clone();
    Driver {
        ops: vec![
            vote(&app, mastodon::Choice::A),
            redeem(&app),
            vote(&app, mastodon::Choice::B),
            redeem(&app),
            vote(&app, mastodon::Choice::A),
            redeem(&app),
        ],
        audit: Box::new({
            let db = db.clone();
            move |audit| {
                let mut v = Vec::new();
                for (col, ids) in [("tally_a", A_VOTES), ("tally_b", B_VOTES)] {
                    let got = int_field(&db, "polls", 1, col).unwrap_or(-1);
                    let (lo, hi) = audit.bounds(ids);
                    check(&mut v, lo <= got && got <= hi, || {
                        format!("{col}={got} outside [{lo}, {hi}]")
                    });
                }
                let redeems = int_field(&db, "invites", 1, "redeems").unwrap_or(-1);
                let slots = int_field(&db, "invites", 1, "slots").unwrap_or(-1);
                let (lo, hi) = audit.bounds(REDEEMS);
                check(&mut v, lo <= redeems && redeems <= hi, || {
                    format!("redeems={redeems} outside [{lo}, {hi}]")
                });
                // The escrow cap holds even against an at-least-once
                // duplicate: a re-redeem of a durably-landed crash finds
                // the slots already consumed.
                check(&mut v, redeems <= 3, || {
                    format!("over-redeemed: {redeems} > max 3")
                });
                check(&mut v, slots >= 0, || format!("slots={slots} negative"));
                check(&mut v, slots + redeems == 3, || {
                    format!("slots {slots} + redeems {redeems} != max 3")
                });
                v.extend(fsck_violations(&mastodon::boot_fsck().check(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

/// Saleor: three allocations (4 + 3 + 3 units) against ten units of
/// stock. The allocation row and the stock delta commit atomically, so
/// conservation is exact at every crash point — and the consumed
/// allocation row makes the resume retry idempotent.
fn saleor_case(db: &Database, seed: bool) -> Driver {
    const ALLOC_QTY: &[i64] = &[4, 3, 3];
    let orm = saleor::setup(db).unwrap();
    let app = Arc::new(saleor::Saleor::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::Confluent,
    ));
    if seed {
        app.seed_stock(1, 10).unwrap();
        for (i, qty) in ALLOC_QTY.iter().enumerate() {
            app.seed_allocation(i as i64 + 1, 1, *qty).unwrap();
        }
    }
    let db = db.clone();
    let alloc_left = {
        let db = db.clone();
        move |item: i64| -> Option<i64> {
            let schema = db.schema("allocations").ok()?;
            db.dump_table("allocations")
                .ok()?
                .iter()
                .find(|(_, r)| r.get_int(&schema, "item_id").ok() == Some(item))
                .and_then(|(_, r)| r.get_int(&schema, "qty").ok())
        }
    };
    let ops = (1..=3)
        .map(|item| {
            let app = app.clone();
            Box::new(move || app.allocate(item).map_err(|e| format!("{e:?}"))) as Op
        })
        .collect();
    Driver {
        ops,
        audit: Box::new({
            let db = db.clone();
            move |audit| {
                let mut v = Vec::new();
                let stock = int_field(&db, "stocks", 1, "qty").unwrap_or(-1);
                check(&mut v, stock >= 0, || format!("stock={stock} oversold"));
                let consumed: i64 = ALLOC_QTY
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| alloc_left(*i as i64 + 1) == Some(0))
                    .map(|(_, qty)| qty)
                    .sum();
                // Exact at *every* crash point: the allocation update and
                // the stock delta share one commit.
                check(&mut v, stock == 10 - consumed, || {
                    format!("stock {stock} != 10 - consumed {consumed}")
                });
                for &i in audit.acked {
                    check(&mut v, alloc_left(i as i64 + 1) == Some(0), || {
                        format!("acked allocation {i} not consumed")
                    });
                }
                if audit.resumed {
                    check(&mut v, stock == 0, || {
                        format!("resume left stock at {stock}, expected 0")
                    });
                }
                v.extend(fsck_violations(&saleor::boot_fsck().check(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

const SCM_DELTAS: &[i64] = &[5, -3, 2, -4];

/// SCM: credits and debits on one account seeded at 10. Deposits are
/// plain deltas; debits hold an escrow reservation across the commit.
/// Beyond conservation, the audit probes the ledger itself: a restarted
/// engine must re-derive availability from committed state.
fn scm_case(db: &Database, seed: bool) -> Driver {
    let orm = scm_suite::setup(db).unwrap();
    let app = Arc::new(scm_suite::ScmSuite::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::Confluent,
    ));
    if seed {
        app.seed_account(1, 10).unwrap();
    }
    let db = db.clone();
    let ops = SCM_DELTAS
        .iter()
        .map(|&d| {
            let app = app.clone();
            Box::new(move || app.adjust_balance(1, d).map_err(|e| format!("{e:?}"))) as Op
        })
        .collect();
    Driver {
        ops,
        audit: Box::new({
            let db = db.clone();
            move |audit| {
                let mut v = Vec::new();
                let balance = int_field(&db, "accounts", 1, "balance").unwrap_or(-1);
                check(&mut v, balance >= 0, || format!("balance={balance} < 0"));
                let applied: i64 = if audit.resumed {
                    SCM_DELTAS.iter().sum()
                } else {
                    audit.acked.iter().map(|&i| SCM_DELTAS[i]).sum()
                };
                let dup = audit.crashed.map(|c| SCM_DELTAS[c]).unwrap_or(0);
                check(
                    &mut v,
                    balance == 10 + applied || balance == 10 + applied + dup,
                    || format!("balance {balance} != 10 + {applied} (+ maybe {dup})"),
                );
                let avail = db.escrow_available("accounts", 1, "balance").unwrap_or(-1);
                check(&mut v, avail == balance, || {
                    format!("escrow ledger says {avail}, committed balance is {balance}")
                });
                v.extend(fsck_violations(&scm_suite::boot_fsck().check(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

/// Deltas become ordinary post-images at commit and the escrow ledger
/// re-derives from committed state, so recovery has nothing to
/// reconstruct: boot-fsck must find nothing, and every resumed retry
/// must be granted or cleanly refused, never an error.
fn assert_confluent_sweep_clean(name: &str, case: fn(&Database, bool) -> Driver) {
    let s = sweep(name, &case);
    assert!(
        s.findings.is_empty() && s.resume_errors.is_empty(),
        "{name}: {:?} {:?}",
        s.findings,
        s.resume_errors
    );
}

#[test]
fn mastodon_confluent_crash_sweep_is_clean() {
    assert_confluent_sweep_clean("mastodon_confluent", mastodon_case);
}

#[test]
fn saleor_confluent_crash_sweep_conserves_stock() {
    assert_confluent_sweep_clean("saleor_confluent", saleor_case);
}

#[test]
fn scm_confluent_crash_sweep_rederives_the_ledger() {
    assert_confluent_sweep_clean("scm_suite_confluent", scm_case);
}
