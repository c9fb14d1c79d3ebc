//! Confluence oracle: the coordination-avoiding paths survive crashes
//! with no coordination to lean on.
//!
//! `Mode::Confluent` commits commutative counter updates with *zero*
//! coordination (no lock, no OCC footprint, no retry loop) and enforces
//! budget invariants (`x >= 0`, `uses <= max`) through escrow
//! reservations alone. Its concurrency half — hot-key convergence to the
//! exact sum, escrow budgets granting exactly the budget (never an
//! oversell, never a refusal while units remain) — is the four-mode
//! contention table's `Mode::Confluent` cells (`adhoc_bench::contention`,
//! run whole by `tests/mode_table.rs` beside the other three modes of the
//! same ops); the tests below run those cells under the names this
//! oracle gave them.
//!
//! The rest of this file is the crash-restart half: the WAL-backed sweep
//! in `adhoc_bench::contention::crash` that `crash_recovery_oracle.rs`
//! also runs, over every commit-adjacent crash point under every crash kind
//! (`CommitFailed`, `CrashAfterDurable`, `CrashBeforeDurable`,
//! `TornWrite`, and the three WAL-checkpoint crashes). Deltas materialize into ordinary row images at commit,
//! so recovery is delta-oblivious; the escrow ledger is volatile and
//! re-derives from committed state. The oracle asserts durability of
//! acked effects, conservation invariants after replay, serviceability
//! (the restarted process resumes, with at-least-once duplicates bounded
//! by the escrow cap), and — stronger than the ad hoc sweeps — that
//! boot-fsck finds *nothing to repair* and every resumed op succeeds.
//!
//! The schedule-explorer half of the story lives in
//! `tests/schedule_corpus.rs` (the `delta-merge-crash` scenario, pinned
//! as witness 24). Replay one crash point in isolation with
//! `CRASH_ORACLE=<app>_confluent/kind/k` (e.g.
//! `scm_suite_confluent/torn-write/2`).

use adhoc_bench::cells;
use adhoc_bench::contention::crash::{check, fsck_violations, sweep};
use adhoc_bench::contention::{int_field, Audit, Driver, Op};
use adhoc_transactions::apps::{mastodon, saleor, scm_suite, Mode};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::{LatencyModel, VirtualClock};
use adhoc_transactions::storage::Database;
use std::sync::Arc;

cells!(Confluent:
    confluent_poll_tallies_converge_exactly => mastodon_votes,
    escrow_invites_grant_exactly_the_budget => mastodon_invites,
    escrow_stock_allocation_never_oversells => saleor_allocate,
    spree_confluent_checkout_drains_stock_exactly => spree_checkout,
    scm_balance_conserves_under_mixed_traffic => scm_accounts,
);

fn mastodon_app(db: &Database, mode: Mode) -> mastodon::Mastodon {
    let orm = mastodon::setup(db).unwrap();
    let kv = Client::new(
        Store::new(),
        Arc::new(VirtualClock::new()),
        LatencyModel::zero(),
    );
    mastodon::Mastodon::new(orm, kv, Arc::new(MemLock::new()), mode)
}

/// `[lo, hi]` bounds for a counter fed by the ops in `ids`: at least every
/// acked feeding op, at most one ambiguous duplicate from the crashed op.
fn bounds(audit: &Audit, ids: &[usize]) -> (i64, i64) {
    let lo = if audit.resumed {
        ids.len() as i64
    } else {
        ids.iter().filter(|i| audit.acked.contains(i)).count() as i64
    };
    let dup = audit.crashed.is_some_and(|c| ids.contains(&c)) as i64;
    (lo, lo + dup)
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
                    let (lo, hi) = bounds(audit, ids);
                    check(&mut v, lo <= got && got <= hi, || {
                        format!("{col}={got} outside [{lo}, {hi}]")
                    });
                }
                let redeems = int_field(&db, "invites", 1, "redeems").unwrap_or(-1);
                let slots = int_field(&db, "invites", 1, "slots").unwrap_or(-1);
                let (lo, hi) = bounds(audit, REDEEMS);
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
                v.extend(fsck_violations(&mastodon::boot_fsck().run(&db)));
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
                v.extend(fsck_violations(&saleor::boot_fsck().run(&db)));
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
                v.extend(fsck_violations(&scm_suite::boot_fsck().run(&db)));
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
