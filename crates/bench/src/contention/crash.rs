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
//! resumed ops returned; for an `AdHoc` case each oracle test decides
//! which of those are findings and which are failures.
//!
//! The workloads are the registry [`CASES`]: each app's small workload in
//! `AdHoc` and `Cured`, plus three `Confluent` ones. Every case is
//! written through one builder in the table's shape: seed rows, ops as
//! `op(app, i)`, a per-op durability check that every acked op must pass
//! until the workload resumes, the app's invariants, and its boot-fsck
//! detection pass, which must find nothing. A `Cured` sweep must also
//! find nothing for boot-fsck to repair, and a `Confluent` one must
//! resume without an error as well.
//!
//! Every point replays alone: `CRASH_ORACLE=<sweep>/<kind>/<k>` (e.g.
//! `spree/crash-after-durable/3`, `scm_suite_confluent/torn-write/2`).
//! A spec that names no sweep of [`CASES`] fails every sweep, one that
//! names no point of its sweep fails that sweep, and every other sweep
//! returns without running.

use super::{broken, driver, field, holds, rows, rows_with, App, Audit, Checks, Driver, Mode};
use adhoc_apps::{self as apps, broadleaf, discourse, jumpserver, mastodon};
use adhoc_apps::{redmine, saleor, scm_suite, spree};
use adhoc_core::checker::Report;
use adhoc_core::locks::MemLock;
use adhoc_core::validation::CommitOutcome;
use adhoc_sim::rng::DEFAULT_SEED;
use adhoc_sim::{FaultKind, FaultPlan, FaultRule, OpClass};
use adhoc_storage::{restart_from, Database, DbConfig, EngineProfile};
use std::sync::Arc;

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

/// One sweep of the registry.
pub struct Case {
    /// The name [`sweep`] and `CRASH_ORACLE` know it by.
    pub name: &'static str,
    /// The mode its app runs in.
    pub mode: Mode,
    /// Build the app's tables (+ seed rows when `seed`) on a database and
    /// return its driver. Restarted databases pass `seed = false`: their
    /// rows come from WAL replay, not from re-seeding.
    pub build: fn(&Database, bool, Mode) -> Driver,
}

impl Case {
    fn driver(&self, db: &Database, seed: bool) -> Driver {
        (self.build)(db, seed, self.mode)
    }
}

macro_rules! cases {
    ($($name:ident: $build:ident in $mode:ident),* $(,)?) => {
        /// Every sweep the crash oracles run; [`sweep`] knows no other.
        pub const CASES: &[Case] = &[
            $(Case { name: stringify!($name), mode: Mode::$mode, build: $build }),*
        ];
    };
}

cases!(
    spree: spree_case in AdHoc,
    broadleaf: broadleaf_case in AdHoc,
    discourse: discourse_case in AdHoc,
    jumpserver: jumpserver_case in AdHoc,
    mastodon: mastodon_case in AdHoc,
    redmine: redmine_case in AdHoc,
    saleor: saleor_case in AdHoc,
    scm_suite: scm_case in AdHoc,
    spree_cured: spree_case in Cured,
    broadleaf_cured: broadleaf_case in Cured,
    discourse_cured: discourse_case in Cured,
    mastodon_cured: mastodon_case in Cured,
    jumpserver_cured: jumpserver_case in Cured,
    redmine_cured: redmine_case in Cured,
    saleor_cured: saleor_case in Cured,
    scm_suite_cured: scm_case in Cured,
    mastodon_confluent: mastodon_confluent_case in Confluent,
    saleor_confluent: saleor_confluent_case in Confluent,
    scm_suite_confluent: scm_confluent_case in Confluent,
);

/// The registry's case named `name`.
fn case(name: &str) -> Option<&'static Case> {
    CASES.iter().find(|case| case.name == name)
}

/// One crash point: `(sweep, kind, k)`.
pub type Witness = (String, FaultKind, u64);

/// Parse a `<sweep>/<kind>/<k>` replay spec. An unknown sweep, an unknown
/// kind or a `k` that is not a number is an error, never "no filter".
pub fn parse_witness(spec: &str) -> Result<Witness, String> {
    let mut parts = spec.splitn(3, '/');
    let (Some(sweep), Some(kind), Some(k)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("`{spec}` is not <sweep>/<kind>/<k>"));
    };
    if case(sweep).is_none() {
        let known: Vec<_> = CASES.iter().map(|case| case.name).collect();
        return Err(format!("unknown sweep `{sweep}` (one of {known:?})"));
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
fn baseline(case: &Case) -> u64 {
    let name = case.name;
    let plan = FaultPlan::new_disabled(DEFAULT_SEED, vec![]);
    let db = Database::new(wal_config().with_faults(plan.clone()));
    let driver = case.driver(&db, true);
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
fn crash_at(case: &Case, kind: FaultKind, k: u64) -> Crash {
    let witness = format!("{}/{}/{k}", case.name, kind.name());

    let plan = FaultPlan::new_disabled(DEFAULT_SEED, vec![FaultRule::at_ops(kind, &[k])]);
    let config = match kind {
        FaultKind::TruncateBeforeWait => wal_config().with_wal_group_commit(),
        _ => wal_config(),
    };
    let db1 = Database::new(config.with_faults(plan.clone()));
    let driver1 = case.driver(&db1, true);
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
    let driver2 = case.driver(&db2, false);
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
#[derive(Default)]
pub struct Sweep {
    /// Named findings: boot-fsck violations left unfixed, and points
    /// where boot-fsck repaired state.
    pub findings: Vec<String>,
    /// `<kind>@<k>` for every point where boot-fsck repaired state.
    pub repaired: Vec<String>,
    /// Errors the resumed workloads returned.
    pub resume_errors: Vec<String>,
}

/// Sweep every crash kind × commit point of the registry's case `name`
/// (or the one point `CRASH_ORACLE` names). A `Cured` sweep must leave
/// nothing for boot-fsck to find or repair; a `Confluent` one must also
/// resume without an error.
pub fn sweep(name: &str) -> Sweep {
    let case = case(name).unwrap_or_else(|| panic!("no sweep `{name}` in CASES"));
    let filter = witness_filter();
    let mut out = Sweep::default();
    if filter.as_ref().is_some_and(|w| w.0 != name) {
        return out;
    }
    let commits = baseline(case);
    let mut ran = 0;
    for &kind in CRASH_KINDS {
        for k in 0..commits {
            if filter
                .as_ref()
                .is_some_and(|(_, kk, kn)| *kk != kind || *kn != k)
            {
                continue;
            }
            ran += 1;
            let crash = crash_at(case, kind, k);
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
    if let Some((sweep, kind, k)) = filter {
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
    // Every repair is also a finding.
    match case.mode {
        Mode::Cured => assert!(
            out.findings.is_empty(),
            "{name}: the cure layer left work for boot-fsck: {:?}",
            out.findings
        ),
        Mode::Confluent => assert!(
            out.findings.is_empty() && out.resume_errors.is_empty(),
            "{name}: {:?} {:?}",
            out.findings,
            out.resume_errors
        ),
        _ => {}
    }
    out
}

// ---------------------------------------------------------------------------
// The cases.
// ---------------------------------------------------------------------------

/// A case's driver over `app`: seeded by `seed_rows` when `seed`, `n` ops
/// (op `i` calls `op(app, i)`), `durable(app, i)` for every acked op until
/// the workload resumes, the invariants, and the app's boot-fsck
/// detection pass.
fn workload<A: App>(
    app: A,
    seed: bool,
    seed_rows: impl FnOnce(&A) -> apps::Result<()>,
    n: usize,
    op: impl Fn(&A, usize) -> apps::Result<bool> + Send + Sync + 'static,
    durable: impl Fn(&A, usize) -> bool + 'static,
    invariants: impl Fn(&A, &Audit) -> Checks + 'static,
) -> Driver {
    if seed {
        seed_rows(&app).unwrap();
    }
    driver(Arc::new(app), n, op, move |app, audit| {
        let mut v: Vec<String> = match audit.resumed {
            // A resumed retry may legitimately move an acked effect.
            true => Vec::new(),
            false => (audit.acked.iter())
                .filter(|&&i| !durable(app, i))
                .map(|i| format!("acked op {i} lost"))
                .collect(),
        };
        v.extend(broken(invariants(app, audit)));
        v.extend(app.fsck().violations.iter().map(|v| v.to_string()));
        v
    })
}

/// The in-process lock every case but Redmine's coordinates with.
fn mem() -> Arc<MemLock> {
    Arc::new(MemLock::new())
}

fn spree_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        spree::Spree::new(spree::setup(db).unwrap(), mem(), mode),
        seed,
        |app| {
            app.seed_order(1)?;
            app.seed_order(2)
        },
        3,
        |app, i| match i {
            0 => app.add_payment(1),
            1 => app.process_payment(1, false),
            _ => app.add_payment(2),
        },
        |app, i| match i {
            0 => rows(app, "payments", "order_id", 1) >= 1,
            1 => {
                let completed = [("order_id", 1.into()), ("state", "completed".into())];
                rows_with(app, "payments", &completed) >= 1
            }
            _ => rows(app, "payments", "order_id", 2) >= 1,
        },
        |app, _| holds![app.one_payment_per_order(1), app.one_payment_per_order(2)],
    )
}

fn broadleaf_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    let item = |price: i64| [("cart_id", 1.into()), ("price", price.into())];
    workload(
        broadleaf::Broadleaf::new(broadleaf::setup(db).unwrap(), mem(), mode),
        seed,
        |app| {
            app.seed_cart(1)?;
            app.seed_sku(1, 100)
        },
        3,
        |app, i| match i {
            0 => app.add_to_cart(1, 7, 2).map(|()| true),
            1 => app.add_to_cart(1, 5, 3).map(|()| true),
            _ => app.check_out(1, 4),
        },
        move |app, i| match i {
            0 => rows_with(app, "items", &item(7)) >= 1,
            1 => rows_with(app, "items", &item(5)) >= 1,
            _ => field(app, "skus", 1, "sold") == 4,
        },
        |app, _| holds![app.cart_total_consistent(1), app.sku_conserved(1, 100)],
    )
}

fn discourse_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        discourse::Discourse::new(discourse::setup(db).unwrap(), mem(), mode),
        seed,
        |app| app.seed_topic(1),
        3,
        |app, i| match i {
            0 => app.create_post(1, "first").map(|_| true),
            1 => app.create_post(1, "second").map(|_| true),
            _ => app.like_post(1).map(|()| true),
        },
        |app, i| match i {
            0 => rows(app, "posts", "topic_id", 1) >= 1,
            1 => rows(app, "posts", "topic_id", 1) >= 2,
            _ => field(app, "posts", 1, "like_cnt") == 1,
        },
        |app, _| holds![app.topic_posts_consistent(1), app.likes_consistent(1)],
    )
}

/// Mastodon on `db` with its own zero-latency KV and the MEM lock.
fn mastodon_on(db: &Database, mode: Mode) -> mastodon::Mastodon {
    mastodon::Mastodon::new(mastodon::setup(db).unwrap(), super::kv(), mem(), mode)
}

fn mastodon_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        mastodon_on(db, mode),
        seed,
        |app| app.seed_invite(1, 5),
        3,
        |app, i| match i {
            // Unlocked, but it checks the durable table before inserting,
            // so an ambiguous crash plus retry stays duplicate-free
            // (contrast with the oracle's volatile-marker finding test).
            1 => app.notify_unchecked(7, "follow"),
            _ => app.redeem_invite(1),
        },
        |app, i| match i {
            0 => field(app, "invites", 1, "redeems") >= 1,
            1 => rows(app, "notifications", "user_id", 7) == 1,
            _ => field(app, "invites", 1, "redeems") == 2,
        },
        |app, _| holds![app.invite_within_limit(1), app.notifications_unique(7)],
    )
}

fn jumpserver_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        jumpserver::JumpServer::new(jumpserver::setup(db).unwrap(), mem(), mode),
        seed,
        |app| app.seed_credential(1, "s0"),
        2,
        move |app, i| match i {
            // The split anti-pattern: credential bump and audit row in
            // separate commits — the crash between them is the finding.
            // The cured variant pairs them in one transaction, so its
            // sweep has nothing for boot-fsck to backfill.
            0 if mode != Mode::Cured => app.rotate_credential_split(1, "s1", false).map(|_| true),
            0 => app.rotate_credential(1, "s1").map(|_| true),
            _ => app.rotate_credential(1, "s2").map(|_| true),
        },
        |app, i| match i {
            0 => field(app, "credentials", 1, "version") >= 1,
            _ => field(app, "credentials", 1, "version") == 2,
        },
        |app, _| holds![app.rotations_audited(1)],
    )
}

fn redmine_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        redmine::Redmine::new(redmine::setup(db).unwrap(), mode),
        seed,
        |app| app.seed_issue(1, "crash oracle"),
        3,
        |app, i| match i {
            0 => app.add_attachment(1, "a.png").map(|_| true),
            1 => app.add_attachment(1, "b.png").map(|_| true),
            _ => app.advance_issue(1, 5, 50).map(|()| true),
        },
        |app, i| match i {
            0 => rows(app, "attachments", "issue_id", 1) >= 1,
            1 => rows(app, "attachments", "issue_id", 1) >= 2,
            _ => field(app, "issues", 1, "done_ratio") == 50,
        },
        |app, _| holds![app.attachments_consistent(1)],
    )
}

fn saleor_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        saleor::Saleor::new(saleor::setup(db).unwrap(), mem(), mode),
        seed,
        |app| {
            app.seed_stock(1, 10)?;
            app.seed_allocation(1, 1, 2)?;
            app.seed_capture(1, 1000)
        },
        3,
        |app, i| match i {
            0 => app.allocate(1),
            _ => app.capture_payment(1, 300),
        },
        |app, i| match i {
            0 => field(app, "stocks", 1, "qty") == 8,
            1 => field(app, "captures", 1, "captured_cents") >= 300,
            _ => field(app, "captures", 1, "captured_cents") == 600,
        },
        |app, _| holds![app.capture_within_authorization(1)],
    )
}

fn scm_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    workload(
        scm_suite::ScmSuite::new(scm_suite::setup(db).unwrap(), mem(), mode),
        seed,
        |app| {
            app.seed_account(1, 100)?;
            app.seed_account(2, 100)?;
            app.seed_merchandise(1, 10)
        },
        3,
        |app, i| match i {
            0 => app.transfer(1, 2, 30),
            1 => Ok(app.track_stock(1, -4, true)? == CommitOutcome::Committed),
            _ => app.adjust_balance(1, 10),
        },
        |app, i| match i {
            0 => field(app, "accounts", 2, "balance") == 130,
            1 => field(app, "merchandise", 1, "stock") == 6,
            _ => field(app, "accounts", 1, "balance") == 80,
        },
        // Money is conserved across the crash: the transfer is one
        // WAL-atomic commit, so the total is exactly the seeded 200 plus
        // the idempotence-free +10 adjustment if it applied. A resumed
        // retry may legitimately re-apply the adjustment.
        |app, audit| {
            let total = app.total_balance(&[1, 2]);
            let conserved = total.map(|t| audit.resumed || t == 200 || t == 210);
            vec![("conservation: total is 200 or 210".into(), conserved)]
        },
    )
}

/// `name=got` checked against `[lo, hi]` for a counter fed by the ops in
/// `ids`: at least every acked feeding op (every one once resumed), at
/// most one ambiguous duplicate from the crashed op.
fn fed(name: &str, got: i64, audit: &Audit, ids: &[usize]) -> (String, apps::Result<bool>) {
    let lo = if audit.resumed {
        ids.len() as i64
    } else {
        ids.iter().filter(|i| audit.acked.contains(i)).count() as i64
    };
    let hi = lo + audit.crashed.is_some_and(|c| ids.contains(&c)) as i64;
    (
        format!("{name}={got} within [{lo}, {hi}]"),
        Ok(lo <= got && got <= hi),
    )
}

/// Confluent Mastodon: poll tallies (pure counters) interleaved with
/// invite redemptions (an escrow budget of 3 against 3 demands).
fn mastodon_confluent_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    const A_VOTES: &[usize] = &[0, 4];
    const B_VOTES: &[usize] = &[2];
    const REDEEMS: &[usize] = &[1, 3, 5];
    workload(
        mastodon_on(db, mode),
        seed,
        |app| {
            app.seed_poll(1)?;
            app.seed_invite(1, 3)
        },
        6,
        |app, i| match i {
            2 => app.vote(1, mastodon::Choice::B).map(|()| true),
            _ if i % 2 == 0 => app.vote(1, mastodon::Choice::A).map(|()| true),
            _ => app.redeem_invite(1),
        },
        |_, _| true,
        |app, audit| {
            let (redeems, slots) = (
                field(app, "invites", 1, "redeems"),
                field(app, "invites", 1, "slots"),
            );
            vec![
                fed("tally_a", field(app, "polls", 1, "tally_a"), audit, A_VOTES),
                fed("tally_b", field(app, "polls", 1, "tally_b"), audit, B_VOTES),
                fed("redeems", redeems, audit, REDEEMS),
                // The escrow cap holds even against an at-least-once
                // duplicate: a re-redeem of a durably-landed crash finds
                // the slots already consumed.
                (format!("redeems={redeems} <= max 3"), Ok(redeems <= 3)),
                (format!("slots={slots} >= 0"), Ok(slots >= 0)),
                (
                    format!("slots {slots} + redeems {redeems} = max 3"),
                    Ok(slots + redeems == 3),
                ),
            ]
        },
    )
}

/// Confluent Saleor: three allocations (4 + 3 + 3 units) against ten
/// units of stock. The allocation row and the stock delta commit
/// atomically, so conservation is exact at every crash point, and the
/// consumed allocation row makes the resume retry idempotent.
fn saleor_confluent_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    const ALLOC_QTY: [i64; 3] = [4, 3, 3];
    // Allocation `n` is the `n`-th row seeded, for item `n`.
    let consumed =
        |app: &saleor::Saleor, i: usize| field(app, "allocations", i as i64 + 1, "qty") == 0;
    workload(
        saleor::Saleor::new(saleor::setup(db).unwrap(), mem(), mode),
        seed,
        |app| {
            app.seed_stock(1, 10)?;
            for (i, qty) in ALLOC_QTY.into_iter().enumerate() {
                app.seed_allocation(i as i64 + 1, 1, qty)?;
            }
            Ok(())
        },
        3,
        |app, i| app.allocate(i as i64 + 1),
        |_, _| true,
        move |app, audit| {
            let stock = field(app, "stocks", 1, "qty");
            let used: i64 = (0..3)
                .filter(|&i| consumed(app, i))
                .map(|i| ALLOC_QTY[i])
                .sum();
            vec![
                (format!("stock={stock} >= 0"), Ok(stock >= 0)),
                (
                    format!("stock {stock} = 10 - consumed {used}"),
                    Ok(stock == 10 - used),
                ),
                (
                    "every acked allocation consumed".into(),
                    Ok(audit.acked.iter().all(|&i| consumed(app, i))),
                ),
                (
                    format!("stock {stock} = 0 once resumed"),
                    Ok(!audit.resumed || stock == 0),
                ),
            ]
        },
    )
}

/// Confluent SCM: credits and debits on one account seeded at 10.
/// Deposits are plain deltas; debits hold an escrow reservation across
/// the commit. Beyond conservation, the audit probes the ledger itself: a
/// restarted engine must re-derive availability from committed state.
fn scm_confluent_case(db: &Database, seed: bool, mode: Mode) -> Driver {
    const DELTAS: [i64; 4] = [5, -3, 2, -4];
    workload(
        scm_suite::ScmSuite::new(scm_suite::setup(db).unwrap(), mem(), mode),
        seed,
        |app| app.seed_account(1, 10),
        4,
        |app, i| app.adjust_balance(1, DELTAS[i]),
        |_, _| true,
        |app, audit| {
            let balance = field(app, "accounts", 1, "balance");
            let applied: i64 = match audit.resumed {
                true => DELTAS.iter().sum(),
                false => audit.acked.iter().map(|&i| DELTAS[i]).sum(),
            };
            let dup = audit.crashed.map_or(0, |c| DELTAS[c]);
            let ledger = app.orm().db().escrow_available("accounts", 1, "balance");
            vec![
                (format!("balance={balance} >= 0"), Ok(balance >= 0)),
                (
                    format!("balance {balance} = 10 + {applied} (+ maybe {dup})"),
                    Ok(balance == 10 + applied || balance == 10 + applied + dup),
                ),
                (
                    format!("escrow ledger = committed balance {balance}"),
                    Ok(ledger.ok() == Some(balance)),
                ),
            ]
        },
    )
}
