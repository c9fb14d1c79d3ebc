//! The crash-restart sweep both crash oracles run: every commit-adjacent
//! crash point of a small WAL-backed workload, under every crash-shaped
//! fault kind:
//!
//! * `CommitFailed` — the commit never takes effect (clean rollback);
//! * `CrashAfterDurable` — the commit is durable but unacknowledged
//!   (§3.4.2's ambiguity);
//! * `CrashBeforeDurable` — the commit reached the page cache only;
//! * `TornWrite` — the crash tears the commit's log record in half;
//! * `CheckpointTorn` — the commit is durable, then the crash tears the
//!   WAL checkpoint written after it, before its end frame;
//! * `CrashBeforeTruncate` — the commit and that checkpoint are durable,
//!   and the crash comes before the log below the checkpoint is dropped;
//! * `TruncateBeforeWait` — under group commit, the committing thread
//!   checkpoints and truncates the log between its append and its
//!   durability wait (the checkpoint's flush has made the record durable
//!   by then), and the crash comes after the wait.
//!
//! The three checkpoint points lose the acknowledgement the way
//! `CrashAfterDurable` does, so they find what it finds; what they add is
//! a restart from a torn, an untruncated and a truncated log.
//!
//! After each crash the engine restarts: a fresh database, schema setup,
//! WAL replay ([`restart_from`]), then the app's `recover_on_boot`
//! boot-fsck pass. The driver's audit must then hold on the recovered
//! state and again after the restarted process resumes the workload from
//! the crashed op. [`sweep`] reports what boot-fsck found and what the
//! resumed ops returned; each oracle decides which of those are findings
//! and which are failures.
//!
//! Every point replays alone: `CRASH_ORACLE=<sweep>/<kind>/<k>` (e.g.
//! `spree/crash-after-durable/3`, `scm_suite_confluent/torn-write/2`).
//! A spec that names no sweep of [`SWEEPS`] fails every sweep, and one
//! that names no point of its sweep fails that sweep.

use super::{Audit, Driver};
use adhoc_core::checker::Report;
use adhoc_sim::rng::DEFAULT_SEED;
use adhoc_sim::{FaultKind, FaultPlan, FaultRule, OpClass};
use adhoc_storage::{restart_from, Database, DbConfig, EngineProfile};

const CRASH_KINDS: &[FaultKind] = &[
    FaultKind::CommitFailed,
    FaultKind::CrashAfterDurable,
    FaultKind::CrashBeforeDurable,
    FaultKind::TornWrite,
    FaultKind::CheckpointTorn,
    FaultKind::CrashBeforeTruncate,
    FaultKind::TruncateBeforeWait,
];

/// The configuration every sweep database runs: WAL on, commit-time fsync
/// (a crashing `TruncateBeforeWait` database runs group commit instead).
fn wal_config() -> DbConfig {
    DbConfig::in_memory(EngineProfile::PostgresLike).with_wal()
}

/// A fresh database in the sweep's configuration.
pub fn wal_db() -> Database {
    Database::new(wal_config())
}

/// Build an app's tables (+ seed data when `seed`) on `db` and return its
/// driver. Restarted databases pass `seed = false`: their rows come from
/// WAL replay, not from re-seeding.
pub type Case<'a> = &'a dyn Fn(&Database, bool) -> Driver;

/// Push `name()` onto `violations` unless `ok`.
pub fn check(violations: &mut Vec<String>, ok: bool, name: impl Fn() -> String) {
    if !ok {
        violations.push(name());
    }
}

/// An fsck report's violations, one line each.
pub fn fsck_violations(report: &Report) -> Vec<String> {
    report.violations.iter().map(|v| v.to_string()).collect()
}

/// Every sweep the crash oracles run; [`sweep`] refuses any other name.
pub const SWEEPS: &[&str] = &[
    "spree",
    "broadleaf",
    "discourse",
    "jumpserver",
    "mastodon",
    "redmine",
    "saleor",
    "scm_suite",
    "spree_cured",
    "broadleaf_cured",
    "discourse_cured",
    "mastodon_cured",
    "jumpserver_cured",
    "redmine_cured",
    "saleor_cured",
    "scm_suite_cured",
    "mastodon_confluent",
    "saleor_confluent",
    "scm_suite_confluent",
];

/// One crash point: `(sweep, kind, k)`.
pub type Witness = (String, FaultKind, u64);

/// Parse a `<sweep>/<kind>/<k>` replay spec. An unknown sweep, an unknown
/// kind or a `k` that is not a number is an error, never "no filter".
pub fn parse_witness(spec: &str) -> Result<Witness, String> {
    let mut parts = spec.splitn(3, '/');
    let (Some(sweep), Some(kind), Some(k)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("`{spec}` is not <sweep>/<kind>/<k>"));
    };
    if !SWEEPS.contains(&sweep) {
        return Err(format!("unknown sweep `{sweep}` (one of {SWEEPS:?})"));
    }
    let kind = *CRASH_KINDS
        .iter()
        .find(|c| c.name() == kind)
        .ok_or_else(|| {
            let known: Vec<_> = CRASH_KINDS.iter().map(|c| c.name()).collect();
            format!("unknown crash kind `{kind}` (one of {known:?})")
        })?;
    let k = k
        .parse()
        .map_err(|_| format!("crash point `{k}` is not a number"))?;
    Ok((sweep.to_string(), kind, k))
}

/// The `CRASH_ORACLE` replay point, if one is set; a malformed one panics.
pub fn witness_filter() -> Option<Witness> {
    let spec = std::env::var("CRASH_ORACLE").ok()?;
    Some(parse_witness(&spec).unwrap_or_else(|e| panic!("CRASH_ORACLE: {e}")))
}

/// Fault-free baseline: every op acks with effect, the audit is clean
/// after each one, and the workload exposes `commits` crash points.
fn baseline(name: &str, case: Case) -> u64 {
    let plan = FaultPlan::new_disabled(DEFAULT_SEED, vec![]);
    let db = Database::new(wal_config().with_faults(plan.clone()));
    let driver = case(&db, true);
    let mut acked = Vec::new();
    for (i, op) in driver.ops.iter().enumerate() {
        // Count only the workload's commits, not the audit's own probes.
        plan.enable();
        let effect = op().unwrap_or_else(|e| panic!("{name}: baseline op {i} failed: {e}"));
        plan.disable();
        assert!(effect, "{name}: baseline op {i} must take effect");
        acked.push(i);
        let violations = (driver.audit)(&Audit {
            acked: &acked,
            crashed: None,
            resumed: false,
        });
        assert!(
            violations.is_empty(),
            "{name}: baseline op {i} violates {violations:?}"
        );
    }
    let commits = plan.ops_seen(OpClass::DbCommit);
    assert!(
        commits >= driver.ops.len() as u64,
        "{name}: too few commits"
    );
    commits
}

/// What one crash point left behind once the audits passed.
struct Crash {
    /// The boot-fsck report of the restarted process.
    boot: Report,
    /// Errors the resumed ops returned.
    resume_errors: Vec<String>,
}

/// Crash the workload at commit `k` with `kind`, restart, replay the WAL,
/// run boot-fsck, and assert the audit after recovery (acked effects
/// durable, invariants intact) and after the resumed workload.
fn crash_at(name: &str, case: Case, kind: FaultKind, k: u64) -> Crash {
    let witness = format!("{name}/{}/{k}", kind.name());

    let plan = FaultPlan::new_disabled(DEFAULT_SEED, vec![FaultRule::at_ops(kind, &[k])]);
    let config = match kind {
        FaultKind::TruncateBeforeWait => wal_config().with_wal_group_commit(),
        _ => wal_config(),
    };
    let db1 = Database::new(config.with_faults(plan.clone()));
    let driver1 = case(&db1, true);
    plan.enable();
    let mut acked = Vec::new();
    let mut crashed = None;
    for (i, op) in driver1.ops.iter().enumerate() {
        match op() {
            Ok(effect) => {
                if effect {
                    acked.push(i);
                }
            }
            Err(_) => {
                crashed = Some(i);
                break;
            }
        }
    }
    assert_eq!(
        plan.fired(),
        1,
        "[{witness}] the fault must fire exactly once"
    );
    let crashed_op = crashed.expect("a fired crash fault surfaces as an op error");

    // Restart: fresh engine, schema setup, WAL replay, boot fsck.
    let db2 = wal_db();
    let driver2 = case(&db2, false);
    let report = restart_from(&db1, &db2)
        .unwrap_or_else(|e| panic!("[{witness}] recovery replay failed: {e}"));
    let boot = (driver2.recover)();
    let mut audit = Audit {
        acked: &acked,
        crashed: Some(crashed_op),
        resumed: false,
    };
    let violations = (driver2.audit)(&audit);
    assert!(
        violations.is_empty(),
        "[{witness}] invariants broken after recovery: {violations:?} (boot {boot:?}, {report:?})"
    );

    // Serviceability: the restarted process resumes from the crashed op
    // (at-least-once delivery: a retry may ack or no-op).
    let resume_errors = driver2.ops[crashed_op..]
        .iter()
        .filter_map(|op| op().err())
        .map(|e| format!("[{witness}] resume: {e}"))
        .collect();
    audit.resumed = true;
    let violations = (driver2.audit)(&audit);
    assert!(
        violations.is_empty(),
        "[{witness}] invariants broken after resume: {violations:?}"
    );
    Crash {
        boot,
        resume_errors,
    }
}

/// What a whole sweep found.
pub struct Sweep {
    /// Named findings: boot-fsck violations left unfixed, and points
    /// where boot-fsck repaired state.
    pub findings: Vec<String>,
    /// `<kind>@<k>` for every point where boot-fsck repaired state.
    pub repaired: Vec<String>,
    /// Errors the resumed workloads returned.
    pub resume_errors: Vec<String>,
}

/// Sweep every crash kind × commit point for one app (or the one point
/// `CRASH_ORACLE` names).
pub fn sweep(name: &str, case: Case) -> Sweep {
    assert!(SWEEPS.contains(&name), "{name} is missing from SWEEPS");
    let commits = baseline(name, case);
    let filter = witness_filter();
    let mut out = Sweep {
        findings: Vec::new(),
        repaired: Vec::new(),
        resume_errors: Vec::new(),
    };
    let mut ran = 0;
    for &kind in CRASH_KINDS {
        for k in 0..commits {
            if filter
                .as_ref()
                .is_some_and(|(sweep, kk, kn)| sweep != name || *kk != kind || *kn != k)
            {
                continue;
            }
            ran += 1;
            let crash = crash_at(name, case, kind, k);
            let witness = format!("{name}/{}/{k}", kind.name());
            out.findings.extend(
                crash
                    .boot
                    .violations
                    .iter()
                    .map(|v| format!("[{witness}] unfixed {v}")),
            );
            if crash.boot.fixed > 0 {
                out.findings.push(format!(
                    "[{witness}] boot-fsck repaired {} state(s)",
                    crash.boot.fixed
                ));
                out.repaired.push(format!("{}@{k}", kind.name()));
            }
            out.resume_errors.extend(crash.resume_errors);
        }
    }
    if let Some((sweep, kind, k)) = filter.filter(|w| w.0 == name) {
        assert_eq!(
            ran,
            1,
            "CRASH_ORACLE={sweep}/{}/{k} names no point: {name} has k in 0..{commits}",
            kind.name()
        );
    }
    for f in &out.findings {
        eprintln!("finding: {f}");
    }
    out
}
