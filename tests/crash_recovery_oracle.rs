//! Crash-recovery oracle: every app, every commit-adjacent crash point.
//!
//! The tentpole harness for the durability subsystem. For each of the
//! eight studied applications it runs a small WAL-backed workload through
//! the crash-restart sweep in `adhoc_bench::contention::crash` (every
//! commit point × `CommitFailed`, `CrashAfterDurable`,
//! `CrashBeforeDurable`, `TornWrite` and the three WAL-checkpoint crashes
//! `CheckpointTorn`, `CrashBeforeTruncate`, `TruncateBeforeWait`;
//! restart, WAL replay, boot-fsck). The workloads are that module's
//! registry, `crash::CASES`; each test here runs one sweep by name.
//! Each workload's audit asserts:
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

use adhoc_bench::contention::crash::{parse_witness, sweep, wal_db, witness_filter, CASES};
use adhoc_bench::contention::{kv, Mode};
use adhoc_transactions::apps::{mastodon, saleor, scm_suite};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::sim::FaultKind;
use adhoc_transactions::storage::{restart_from, Database};
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn spree_crash_sweep_surfaces_and_repairs_stuck_payments() {
    let s = sweep("spree");
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
    let s = sweep("broadleaf");
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
    let s = sweep("discourse");
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
    let s = sweep("jumpserver");
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
    let findings = sweep("mastodon").findings;
    if witness_filter().is_none() {
        // Every Mastodon op in the sweep re-reads durable state before
        // writing, so no crash point needs a repair.
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn redmine_crash_sweep_is_clean_by_single_txn_discipline() {
    let findings = sweep("redmine").findings;
    if witness_filter().is_none() {
        // Redmine pairs each counter bump with its row insert in ONE
        // transaction (the paper's only near-bug-free app): WAL atomicity
        // alone keeps every crash point clean.
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn saleor_crash_sweep_never_overcaptures() {
    let findings = sweep("saleor").findings;
    if witness_filter().is_none() {
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

#[test]
fn scm_crash_sweep_conserves_money() {
    let findings = sweep("scm_suite").findings;
    if witness_filter().is_none() {
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}

// ---------------------------------------------------------------------------
// Cured variants: the §7 layer must empty the catalog. Each sweep runs the
// same workload in `Mode::Cured`, and `sweep` asserts ZERO findings for a
// cured case — no invariant violation at any crash point, no state for
// boot-fsck to repair (the repairs the ad hoc sweeps above rely on must
// simply never be needed). Every point stays replayable:
// `CRASH_ORACLE=spree_cured/torn-write/2` addresses the cured variants
// exactly like the ad hoc ones.
// ---------------------------------------------------------------------------

#[test]
fn spree_cured_crash_sweep_has_zero_findings() {
    // §4.3 [60] cured: the payment state machine advances in one atomic
    // transaction, so no crash point can strand a `processing` row.
    sweep("spree_cured");
}

#[test]
fn broadleaf_cured_crash_sweep_has_zero_findings() {
    // Figure 1a cured: item insert + total recompute commit together.
    sweep("broadleaf_cured");
}

#[test]
fn discourse_cured_crash_sweep_has_zero_findings() {
    // §4.2 cured: counter bumps ride the same commit as their rows.
    sweep("discourse_cured");
}

#[test]
fn mastodon_cured_crash_sweep_has_zero_findings() {
    sweep("mastodon_cured");
}

#[test]
fn jumpserver_cured_crash_sweep_has_zero_findings() {
    // The rotation audit is written with the version bump, not after it —
    // nothing for the backfill rule to do at any crash point.
    sweep("jumpserver_cured");
}

#[test]
fn redmine_cured_crash_sweep_has_zero_findings() {
    sweep("redmine_cured");
}

#[test]
fn saleor_cured_crash_sweep_has_zero_findings() {
    sweep("saleor_cured");
}

#[test]
fn scm_cured_crash_sweep_has_zero_findings() {
    sweep("scm_suite_cured");
}

// ---------------------------------------------------------------------------
// Named buggy-variant findings that the sweep's disciplined workloads avoid
// on purpose — each is the paper's failure shape, made deterministic.
// ---------------------------------------------------------------------------

/// Mastodon's `notify_once` keys its at-most-once guarantee on a volatile
/// SETNX marker. A restart loses the marker but keeps the durable row, so
/// an at-least-once redelivery duplicates the notification — and the boot
/// fsck's named rule (`mastodon:notifications-unique`) dedupes it.
/// Mastodon on `db` in the paper's mode, with its own KV and the MEM lock.
fn mastodon_app(db: &Database) -> mastodon::Mastodon {
    let orm = mastodon::setup(db).unwrap();
    mastodon::Mastodon::new(orm, kv(), Arc::new(MemLock::new()), Mode::AdHoc)
}

#[test]
fn mastodon_volatile_marker_redelivery_is_found_and_deduped() {
    let db1 = wal_db();
    let app1 = mastodon_app(&db1);
    assert!(app1.notify_once(7, "follow").unwrap());

    // Crash-restart: the notification row replays from the WAL; the SETNX
    // marker lived in the volatile store and is gone.
    let db2 = wal_db();
    let app2 = mastodon_app(&db2);
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
/// filter". Every sweep of the registry is addressable, under a name no
/// other sweep shares, and every app has an ad hoc and a cured sweep.
#[test]
fn crash_oracle_spec_names_exactly_one_point() {
    let names: HashSet<_> = CASES.iter().map(|case| case.name).collect();
    assert_eq!(names.len(), CASES.len(), "a sweep name repeats");
    for app in [
        "spree",
        "broadleaf",
        "discourse",
        "jumpserver",
        "mastodon",
        "redmine",
        "saleor",
        "scm_suite",
    ] {
        for (name, mode) in [
            (app.to_string(), Mode::AdHoc),
            (format!("{app}_cured"), Mode::Cured),
        ] {
            assert!(
                CASES
                    .iter()
                    .any(|case| case.name == name && case.mode == mode),
                "no {mode:?} sweep `{name}`"
            );
        }
    }
    for case in CASES {
        assert_eq!(
            parse_witness(&format!("{}/torn-write/0", case.name)),
            Ok((case.name.to_string(), FaultKind::TornWrite, 0))
        );
    }
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
