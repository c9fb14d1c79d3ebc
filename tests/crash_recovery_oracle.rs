//! Crash-recovery oracle: every app, every commit-adjacent crash point.
//!
//! The tentpole harness for the durability subsystem. For each of the
//! eight studied applications it runs a small WAL-backed workload through
//! the crash-restart sweep in `adhoc_bench::contention::crash` (every
//! commit point × `CommitFailed`, `CrashAfterDurable`,
//! `CrashBeforeDurable`, `TornWrite` and the three WAL-checkpoint crashes
//! `CheckpointTorn`, `CrashBeforeTruncate`, `TruncateBeforeWait`;
//! restart, WAL replay, boot-fsck).
//! Each driver's audit asserts:
//!
//! 1. **Durability** — every operation acknowledged before the crash is
//!    visible in the recovered database.
//! 2. **Atomicity + domain invariants** — after boot recovery, each
//!    app's own consistency checks hold, and its fsck detection pass is
//!    clean.
//! 3. **Serviceability** — the restarted process can resume the
//!    workload from the crashed operation without breaking invariants.
//!
//! The paper's stuck-partial-state bugs (Spree's `processing` payment,
//! Discourse's counters, JumpServer's unaudited rotation, Broadleaf's
//! cart total) surface as *named findings* — boot-fsck repairs with a
//! known rule name — and every point is replayable: set
//! `CRASH_ORACLE=app/kind/k` (e.g. `spree/crash-after-durable/3`) to
//! re-run one crash point in isolation.

use adhoc_bench::contention::crash::{
    check, fsck_violations, parse_witness, sweep, wal_db, witness_filter, Sweep,
};
use adhoc_bench::contention::{int_field, rows_where, Audit, Driver};
use adhoc_transactions::apps::{
    broadleaf, discourse, jumpserver, mastodon, redmine, saleor, scm_suite, spree, Mode,
};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::{FaultKind, LatencyModel, VirtualClock};
use adhoc_transactions::storage::{restart_from, Database};
use std::sync::Arc;

/// Acked effects missing from the recovered database. Checked until the
/// workload resumes: a resumed retry may legitimately move them.
fn lost(audit: &Audit, visible: impl Fn(usize) -> bool) -> Vec<String> {
    if audit.resumed {
        return Vec::new();
    }
    audit
        .acked
        .iter()
        .filter(|&&i| !visible(i))
        .map(|i| format!("acked op {i} lost"))
        .collect()
}

// ---------------------------------------------------------------------------
// Per-app cases.
// ---------------------------------------------------------------------------

fn spree_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = spree::setup(db).unwrap();
    let app = Arc::new(spree::Spree::new(orm, Arc::new(MemLock::new()), mode));
    if seed {
        app.seed_order(1).unwrap();
        app.seed_order(2).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || a.add_payment(1).map_err(|e| format!("{e:?}"))),
            Box::new(move || b.process_payment(1, false).map_err(|e| format!("{e:?}"))),
            Box::new(move || c.add_payment(2).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => rows_where(&db, "payments", "order_id", 1) >= 1,
                    1 => {
                        let Ok(rows) = db.dump_table("payments") else {
                            return false;
                        };
                        let schema = db.schema("payments").unwrap();
                        rows.iter().any(|(_, r)| {
                            r.get_int(&schema, "order_id").ok() == Some(1)
                                && r.get_str(&schema, "state").ok().as_deref() == Some("completed")
                        })
                    }
                    _ => rows_where(&db, "payments", "order_id", 2) >= 1,
                });
                for order in [1, 2] {
                    check(&mut v, app.one_payment_per_order(order).unwrap(), || {
                        format!("one_payment_per_order({order})")
                    });
                }
                v.extend(fsck_violations(&spree::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn broadleaf_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = broadleaf::setup(db).unwrap();
    let app = Arc::new(broadleaf::Broadleaf::new(
        orm,
        Arc::new(MemLock::new()),
        mode,
    ));
    if seed {
        app.seed_cart(1).unwrap();
        app.seed_sku(1, 100).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || {
                a.add_to_cart(1, 7, 2)
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || {
                b.add_to_cart(1, 5, 3)
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || c.check_out(1, 4).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let price_row = |price: i64| {
                    let (Ok(schema), Ok(rows)) = (db.schema("items"), db.dump_table("items"))
                    else {
                        return false;
                    };
                    rows.iter().any(|(_, r)| {
                        r.get_int(&schema, "cart_id").ok() == Some(1)
                            && r.get_int(&schema, "price").ok() == Some(price)
                    })
                };
                let mut v = lost(audit, |i| match i {
                    0 => price_row(7),
                    1 => price_row(5),
                    _ => int_field(&db, "skus", 1, "sold") == Some(4),
                });
                check(&mut v, app.cart_total_consistent(1).unwrap(), || {
                    "cart_total_consistent(1)".into()
                });
                check(&mut v, app.sku_conserved(1, 100).unwrap(), || {
                    "sku_conserved(1)".into()
                });
                v.extend(fsck_violations(&broadleaf::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn discourse_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = discourse::setup(db).unwrap();
    let app = Arc::new(discourse::Discourse::new(
        orm,
        Arc::new(MemLock::new()),
        mode,
    ));
    if seed {
        app.seed_topic(1).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || {
                a.create_post(1, "first")
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || {
                b.create_post(1, "second")
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || c.like_post(1).map(|_| true).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => rows_where(&db, "posts", "topic_id", 1) >= 1,
                    1 => rows_where(&db, "posts", "topic_id", 1) >= 2,
                    _ => int_field(&db, "posts", 1, "like_cnt") == Some(1),
                });
                check(&mut v, app.topic_posts_consistent(1).unwrap(), || {
                    "topic_posts_consistent(1)".into()
                });
                check(&mut v, app.likes_consistent(1).unwrap(), || {
                    "likes_consistent(1)".into()
                });
                v.extend(fsck_violations(&discourse::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn mastodon_app(db: &Database, mode: Mode) -> Arc<mastodon::Mastodon> {
    let kv = Client::new(
        Store::new(),
        Arc::new(VirtualClock::new()),
        LatencyModel::zero(),
    );
    Arc::new(mastodon::Mastodon::new(
        mastodon::setup(db).unwrap(),
        kv,
        Arc::new(MemLock::new()),
        mode,
    ))
}

fn mastodon_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let app = mastodon_app(db, mode);
    if seed {
        app.seed_invite(1, 5).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || a.redeem_invite(1).map_err(|e| format!("{e:?}"))),
            // The *checked* variant re-reads the table, so an ambiguous
            // crash plus retry stays duplicate-free (contrast with the
            // volatile-marker finding test below).
            Box::new(move || {
                b.notify_unchecked(7, "follow")
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || c.redeem_invite(1).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => int_field(&db, "invites", 1, "redeems") >= Some(1),
                    1 => rows_where(&db, "notifications", "user_id", 7) == 1,
                    _ => int_field(&db, "invites", 1, "redeems") == Some(2),
                });
                check(&mut v, app.invite_within_limit(1).unwrap(), || {
                    "invite_within_limit(1)".into()
                });
                check(&mut v, app.notifications_unique(7).unwrap(), || {
                    "notifications_unique(7)".into()
                });
                v.extend(fsck_violations(&mastodon::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn jumpserver_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = jumpserver::setup(db).unwrap();
    let app = Arc::new(jumpserver::JumpServer::new(
        orm,
        Arc::new(MemLock::new()),
        mode,
    ));
    if seed {
        app.seed_credential(1, "s0").unwrap();
    }
    let db = db.clone();
    let (a, b) = (app.clone(), app.clone());
    Driver {
        ops: vec![
            // The split anti-pattern: credential bump and audit row in
            // separate commits — the crash between them is the finding.
            // The cured variant pairs them in one transaction, so its
            // sweep has nothing for boot-fsck to backfill.
            Box::new(move || {
                if mode == Mode::Cured {
                    a.rotate_credential(1, "s1")
                        .map(|_| true)
                        .map_err(|e| format!("{e:?}"))
                } else {
                    a.rotate_credential_split(1, "s1", false)
                        .map(|_| true)
                        .map_err(|e| format!("{e:?}"))
                }
            }),
            Box::new(move || {
                b.rotate_credential(1, "s2")
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => int_field(&db, "credentials", 1, "version") >= Some(1),
                    _ => int_field(&db, "credentials", 1, "version") == Some(2),
                });
                check(&mut v, app.rotations_audited(1).unwrap(), || {
                    "rotations_audited(1)".into()
                });
                v.extend(fsck_violations(&jumpserver::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn redmine_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = redmine::setup(db).unwrap();
    let app = Arc::new(redmine::Redmine::new(orm, mode));
    if seed {
        app.seed_issue(1, "crash oracle").unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || {
                a.add_attachment(1, "a.png")
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || {
                b.add_attachment(1, "b.png")
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || {
                c.advance_issue(1, 5, 50)
                    .map(|_| true)
                    .map_err(|e| format!("{e:?}"))
            }),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => rows_where(&db, "attachments", "issue_id", 1) >= 1,
                    1 => rows_where(&db, "attachments", "issue_id", 1) >= 2,
                    _ => int_field(&db, "issues", 1, "done_ratio") == Some(50),
                });
                check(&mut v, app.attachments_consistent(1).unwrap(), || {
                    "attachments_consistent(1)".into()
                });
                v.extend(fsck_violations(&redmine::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn saleor_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = saleor::setup(db).unwrap();
    let app = Arc::new(saleor::Saleor::new(orm, Arc::new(MemLock::new()), mode));
    if seed {
        app.seed_stock(1, 10).unwrap();
        app.seed_allocation(1, 1, 2).unwrap();
        app.seed_capture(1, 1000).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || a.allocate(1).map_err(|e| format!("{e:?}"))),
            Box::new(move || b.capture_payment(1, 300).map_err(|e| format!("{e:?}"))),
            Box::new(move || c.capture_payment(1, 300).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => int_field(&db, "stocks", 1, "qty") == Some(8),
                    1 => int_field(&db, "captures", 1, "captured_cents") >= Some(300),
                    _ => int_field(&db, "captures", 1, "captured_cents") == Some(600),
                });
                check(&mut v, app.capture_within_authorization(1).unwrap(), || {
                    "capture_within_authorization(1)".into()
                });
                v.extend(fsck_violations(&saleor::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

fn scm_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let orm = scm_suite::setup(db).unwrap();
    let app = Arc::new(scm_suite::ScmSuite::new(
        orm,
        Arc::new(MemLock::new()),
        mode,
    ));
    if seed {
        app.seed_account(1, 100).unwrap();
        app.seed_account(2, 100).unwrap();
        app.seed_merchandise(1, 10).unwrap();
    }
    let db = db.clone();
    let (a, b, c) = (app.clone(), app.clone(), app.clone());
    Driver {
        ops: vec![
            Box::new(move || a.transfer(1, 2, 30).map_err(|e| format!("{e:?}"))),
            Box::new(move || {
                b.track_stock(1, -4, true)
                    .map(|o| o == adhoc_transactions::core::validation::CommitOutcome::Committed)
                    .map_err(|e| format!("{e:?}"))
            }),
            Box::new(move || c.adjust_balance(1, 10).map_err(|e| format!("{e:?}"))),
        ],
        audit: Box::new({
            let app = app.clone();
            move |audit| {
                let mut v = lost(audit, |i| match i {
                    0 => int_field(&db, "accounts", 2, "balance") == Some(130),
                    1 => int_field(&db, "merchandise", 1, "stock") == Some(6),
                    _ => int_field(&db, "accounts", 1, "balance") == Some(80),
                });
                // Money is conserved across the crash: the transfer is one
                // WAL-atomic commit, so the total is exactly the seeded 200
                // plus the idempotence-free +10 adjustment if it applied.
                // A resumed retry may legitimately re-apply the adjustment.
                if !audit.resumed {
                    let total = app.total_balance(&[1, 2]).unwrap();
                    check(&mut v, total == 200 || total == 210, || {
                        format!("conservation: total = {total}")
                    });
                }
                v.extend(fsck_violations(&scm_suite::boot_fsck().run(&db)));
                v
            }
        }),
        recover: Box::new(move || app.recover_on_boot()),
    }
}

// ---------------------------------------------------------------------------
// The sweeps.
// ---------------------------------------------------------------------------

/// Sweep one app's workload in `mode`.
fn sweep_in(name: &str, case: fn(&Database, bool, Mode) -> Driver, mode: Mode) -> Sweep {
    sweep(name, &|db, seed| case(db, seed, mode))
}

#[test]
fn spree_crash_sweep_surfaces_and_repairs_stuck_payments() {
    let s = sweep_in("spree", spree_case, Mode::AdHoc);
    if witness_filter().is_none() {
        // §4.3: the crash between "processing" and "completed" must appear
        // as a repaired finding for the durable-crash kind.
        assert!(
            s.repaired
                .iter()
                .any(|f| f.starts_with("crash-after-durable")),
            "expected a stuck-processing repair, findings: {:?}",
            s.findings
        );
        // A crash in the checkpoint after a durable commit finds what a
        // crash right after that commit finds: the log it restarts from,
        // torn, untruncated or truncated, holds the same commits.
        let points = |kind: &str| -> Vec<String> {
            (s.repaired.iter())
                .filter_map(|r| r.strip_prefix(kind))
                .map(str::to_string)
                .collect()
        };
        for kind in [
            "checkpoint-torn",
            "crash-before-truncate",
            "truncate-before-wait",
        ] {
            assert_eq!(points(kind), points("crash-after-durable"), "{kind}");
        }
    }
}

#[test]
fn broadleaf_crash_sweep_repairs_cart_totals() {
    let s = sweep_in("broadleaf", broadleaf_case, Mode::AdHoc);
    if witness_filter().is_none() {
        assert!(
            s.repaired
                .iter()
                .any(|f| f.starts_with("crash-after-durable")),
            "expected a cart-total repair, findings: {:?}",
            s.findings
        );
    }
}

#[test]
fn discourse_crash_sweep_repairs_counters() {
    let s = sweep_in("discourse", discourse_case, Mode::AdHoc);
    if witness_filter().is_none() {
        assert!(
            s.repaired
                .iter()
                .any(|f| f.starts_with("crash-after-durable")),
            "expected a counter repair, findings: {:?}",
            s.findings
        );
    }
}

#[test]
fn jumpserver_crash_sweep_backfills_rotation_audits() {
    let s = sweep_in("jumpserver", jumpserver_case, Mode::AdHoc);
    if witness_filter().is_none() {
        assert!(
            s.repaired
                .iter()
                .any(|f| f.starts_with("crash-after-durable")),
            "expected a rotation-audit backfill, findings: {:?}",
            s.findings
        );
    }
}

#[test]
fn mastodon_crash_sweep_is_clean_with_checked_delivery() {
    let findings = sweep_in("mastodon", mastodon_case, Mode::AdHoc).findings;
    if witness_filter().is_none() {
        // Every Mastodon op in the sweep re-reads durable state before
        // writing, so no crash point needs a repair.
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn redmine_crash_sweep_is_clean_by_single_txn_discipline() {
    let findings = sweep_in("redmine", redmine_case, Mode::AdHoc).findings;
    if witness_filter().is_none() {
        // Redmine pairs each counter bump with its row insert in ONE
        // transaction (the paper's only near-bug-free app): WAL atomicity
        // alone keeps every crash point clean.
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn saleor_crash_sweep_never_overcaptures() {
    let findings = sweep_in("saleor", saleor_case, Mode::AdHoc).findings;
    if witness_filter().is_none() {
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn scm_crash_sweep_conserves_money() {
    let findings = sweep_in("scm_suite", scm_case, Mode::AdHoc).findings;
    if witness_filter().is_none() {
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

// ---------------------------------------------------------------------------
// Cured variants: the §7 layer must empty the catalog. Each sweep runs the
// same workload in `Mode::Cured` and asserts ZERO findings — no invariant
// violation at any crash point, no state for boot-fsck to repair (the
// repairs the ad hoc sweeps above rely on must simply never be needed).
// Every point stays replayable: `CRASH_ORACLE=spree_cured/torn-write/2`
// addresses the cured variants exactly like the ad hoc ones.
// ---------------------------------------------------------------------------

fn assert_cured_sweep_clean(name: &str, case: fn(&Database, bool, Mode) -> Driver) {
    let s = sweep_in(name, case, Mode::Cured);
    if witness_filter().is_none() {
        assert!(
            s.findings.is_empty() && s.repaired.is_empty(),
            "{name}: the cure layer left work for boot-fsck: {:?}",
            s.findings
        );
    }
}

#[test]
fn spree_cured_crash_sweep_has_zero_findings() {
    // §4.3 [60] cured: the payment state machine advances in one atomic
    // transaction, so no crash point can strand a `processing` row.
    assert_cured_sweep_clean("spree_cured", spree_case);
}

#[test]
fn broadleaf_cured_crash_sweep_has_zero_findings() {
    // Figure 1a cured: item insert + total recompute commit together.
    assert_cured_sweep_clean("broadleaf_cured", broadleaf_case);
}

#[test]
fn discourse_cured_crash_sweep_has_zero_findings() {
    // §4.2 cured: counter bumps ride the same commit as their rows.
    assert_cured_sweep_clean("discourse_cured", discourse_case);
}

#[test]
fn mastodon_cured_crash_sweep_has_zero_findings() {
    assert_cured_sweep_clean("mastodon_cured", mastodon_case);
}

#[test]
fn jumpserver_cured_crash_sweep_has_zero_findings() {
    // The rotation audit is written with the version bump, not after it —
    // nothing for the backfill rule to do at any crash point.
    assert_cured_sweep_clean("jumpserver_cured", jumpserver_case);
}

#[test]
fn redmine_cured_crash_sweep_has_zero_findings() {
    assert_cured_sweep_clean("redmine_cured", redmine_case);
}

#[test]
fn saleor_cured_crash_sweep_has_zero_findings() {
    assert_cured_sweep_clean("saleor_cured", saleor_case);
}

#[test]
fn scm_cured_crash_sweep_has_zero_findings() {
    assert_cured_sweep_clean("scm_suite_cured", scm_case);
}

// ---------------------------------------------------------------------------
// Named buggy-variant findings that the sweep's disciplined workloads avoid
// on purpose — each is the paper's failure shape, made deterministic.
// ---------------------------------------------------------------------------

/// Mastodon's `notify_once` keys its at-most-once guarantee on a volatile
/// SETNX marker. A restart loses the marker but keeps the durable row, so
/// an at-least-once redelivery duplicates the notification — and the boot
/// fsck's named rule (`mastodon:notifications-unique`) dedupes it.
#[test]
fn mastodon_volatile_marker_redelivery_is_found_and_deduped() {
    let db1 = wal_db();
    let app1 = mastodon_app(&db1, Mode::AdHoc);
    assert!(app1.notify_once(7, "follow").unwrap());

    // Crash-restart: the notification row replays from the WAL; the SETNX
    // marker lived in the volatile store and is gone.
    let db2 = wal_db();
    let app2 = mastodon_app(&db2, Mode::AdHoc);
    restart_from(&db1, &db2).unwrap();

    // The delivery queue redelivers; the marker race is lost.
    assert!(
        app2.notify_once(7, "follow").unwrap(),
        "marker was volatile"
    );
    assert!(
        !app2.notifications_unique(7).unwrap(),
        "duplicate delivered"
    );

    // The next boot's fsck repairs it under its named rule.
    let report = app2.recover_on_boot();
    assert_eq!(report.fixed, 1);
    assert!(report.violations.is_empty());
    assert!(app2.notifications_unique(7).unwrap());
}

/// Saleor's over-capture (Table 5b) is detection-only: `recover_on_boot`
/// reports it under its named rule and refuses to invent a repair.
#[test]
fn saleor_overcapture_is_reported_not_silently_fixed() {
    let db = wal_db();
    let orm = saleor::setup(&db).unwrap();
    let app = saleor::Saleor::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
    app.seed_capture(1, 1000).unwrap();
    // The state an expired-lease double capture leaves behind.
    db.run(
        adhoc_transactions::storage::IsolationLevel::ReadCommitted,
        |t| t.update("captures", 1, &[("captured_cents", 1200.into())]),
    )
    .unwrap();

    let report = app.recover_on_boot();
    assert_eq!(report.fixed, 0, "over-capture must not be auto-repaired");
    assert_eq!(report.violations.len(), 1);
    assert_eq!(
        report.violations[0].rule,
        "saleor:capture-within-authorization"
    );
    assert!(!app.capture_within_authorization(1).unwrap());
}

/// SCM Suite's oversold stock is likewise detection-only.
#[test]
fn scm_oversold_stock_is_reported_not_silently_fixed() {
    let db = wal_db();
    let orm = scm_suite::setup(&db).unwrap();
    let app = scm_suite::ScmSuite::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
    app.seed_merchandise(1, 10).unwrap();
    db.run(
        adhoc_transactions::storage::IsolationLevel::ReadCommitted,
        |t| t.update("merchandise", 1, &[("stock", (-3).into())]),
    )
    .unwrap();

    let report = app.recover_on_boot();
    assert_eq!(report.fixed, 0);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "scm:stock-non-negative");
}

/// A replay spec names one crash point exactly: an unknown sweep, an
/// unknown kind or a non-numeric `k` is refused rather than read as "no
/// filter".
#[test]
fn crash_oracle_spec_names_exactly_one_point() {
    assert_eq!(
        parse_witness("spree_cured/torn-write/2"),
        Ok(("spree_cured".to_string(), FaultKind::TornWrite, 2))
    );
    assert_eq!(
        parse_witness("scm_suite/crash-after-durable/0"),
        Ok(("scm_suite".to_string(), FaultKind::CrashAfterDurable, 0))
    );
    for bad in [
        "spre_cured/torn-write/2",
        "spree/torn_write/2",
        "spree/latency-spike/2",
        "spree/torn-write/x",
        "spree/torn-write/-1",
        "spree/torn-write",
        "spree",
    ] {
        assert!(parse_witness(bad).is_err(), "{bad} must be refused");
    }
}
