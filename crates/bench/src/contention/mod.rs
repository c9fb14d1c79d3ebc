//! The four-mode contention table: each app's contended operation set and
//! its exact invariant, written once and run in `AdHoc`, `DatabaseTxn`,
//! `Cured` and `Confluent` alike.
//!
//! A row builds one world on the app's studied stack (`studied(mode)` in
//! `adhoc_apps`): the seed rows, ops that report "acknowledged with
//! effect", the app's own invariant functions, the committed aggregates
//! (`state`) next to the same aggregates as the acked ops determine them
//! (`expect`), and the digest: the `state` that running every op once must
//! reach. The audit requires the invariants, `state == expect`, no lock
//! wait the database gave up on, and a `recover_on_boot()` that finds
//! nothing. [`run_cell`] splits the ops round-robin over [`THREADS`] real
//! threads and also requires the digest, so a refused op is as red as a
//! lost one, and the four modes of a row agree on it. Every op is
//! repeatable and every audit holds for any multiset of acked ops, so the
//! soak test draws from the same rows.
//!
//! A row's world is a [`Driver`] (ops, audit, boot-fsck), and so is every
//! workload of the crash-restart sweep's registry ([`crash::CASES`]): both
//! are built by one builder over the app, its ops `op(app, i)` and its
//! named invariants, and the sweep runs its ops one at a time instead.

pub mod crash;

use adhoc_apps::discourse::DraftOutcome;
use adhoc_apps::mastodon::Choice;
use adhoc_apps::{self as apps, broadleaf, discourse, jumpserver, mastodon};
use adhoc_apps::{redmine, saleor, scm_suite, spree};
use adhoc_core::checker::Report;
use adhoc_core::validation::CommitOutcome;
use adhoc_kv::{Client, Store};
use adhoc_orm::Orm;
use adhoc_sim::{LatencyModel, VirtualClock};
use adhoc_storage::Value;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

pub use adhoc_apps::Mode;

/// The four modes every row runs in.
pub const MODES: [Mode; 4] = [Mode::AdHoc, Mode::DatabaseTxn, Mode::Cured, Mode::Confluent];

/// Every row's ops run on this many threads: op `i` on thread `i % THREADS`.
pub const THREADS: usize = 8;

/// One row's world in one mode.
pub struct World {
    /// The ops, their audit and the app's boot-fsck.
    pub driver: Driver,
    /// The committed aggregates.
    pub state: Box<dyn Fn() -> Vec<i64>>,
    /// `state` once every op has run once, in every mode.
    pub digest: Vec<i64>,
}

/// One row of the table: an app's contended workload.
pub struct Row {
    /// The row's name, as a failing cell and [`assert_cell`] name it.
    pub name: &'static str,
    /// Build the row's world in one mode.
    pub build: fn(Mode) -> World,
}

macro_rules! rows {
    ($($row:ident),* $(,)?) => {
        /// Every row of the table.
        pub const ROWS: &[Row] = &[$(Row { name: stringify!($row), build: $row }),*];
    };
}

rows!(
    broadleaf_checkout,
    broadleaf_cart,
    spree_checkout,
    spree_payment,
    saleor_allocate,
    saleor_capture,
    discourse_posts_and_likes,
    discourse_drafts,
    mastodon_votes,
    mastodon_invites,
    mastodon_timeline,
    mastodon_notifications,
    redmine_progress_and_attachments,
    redmine_version_close,
    jumpserver_grants_and_rotations,
    scm_accounts,
);

/// Run one cell: every op on its thread, then the audit and the digest.
pub fn run_cell(row: &Row, mode: Mode) -> Result<(), String> {
    let world = (row.build)(mode);
    let ops = &world.driver.ops;
    let acked: Result<Vec<Vec<usize>>, String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (t..ops.len()).step_by(THREADS) {
                        if ops[i]().map_err(|e| format!("op {i}: {e}"))? {
                            mine.push(i);
                        }
                    }
                    Ok(mine)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut acked = acked?.concat();
    acked.sort_unstable();
    audit(&world, &acked)?;
    let state = (world.state)();
    if state != world.digest {
        return Err(format!(
            "committed {state:?}, the row's digest is {:?}",
            world.digest
        ));
    }
    Ok(())
}

/// The row's audit over `acked` (sorted, repeats allowed), then boot-fsck,
/// which must find nothing to report or fix.
pub fn audit(world: &World, acked: &[usize]) -> Result<(), String> {
    let mut v = (world.driver.audit)(&Audit {
        acked,
        crashed: None,
        resumed: false,
    });
    let boot = (world.driver.recover)();
    if !boot.is_clean() || boot.fixed > 0 {
        v.push(format!("recover_on_boot: {boot:?}"));
    }
    if v.is_empty() {
        Ok(())
    } else {
        Err(v.join("; "))
    }
}

/// One cell, as a test: panics naming the cell when it fails.
pub fn assert_cell(row: &str, mode: Mode) {
    let row = ROWS
        .iter()
        .find(|r| r.name == row)
        .expect("a row of the table");
    if let Err(e) = run_cell(row, mode) {
        panic!("{}/{mode:?}: {e}", row.name);
    }
}

/// `#[test]` entry points for single cells, under the names the cured and
/// confluence oracles gave these workloads before the table held them:
/// `cells!(Cured: test_name => row, ...)`.
#[macro_export]
macro_rules! cells {
    ($mode:ident: $($test:ident => $row:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            $crate::contention::assert_cell(
                stringify!($row),
                $crate::contention::Mode::$mode,
            );
        }
    )*};
}

/// All four cells of a row, each failing one named as `row/Mode`.
pub fn run_row(row: &Row) -> Vec<String> {
    MODES
        .into_iter()
        .filter_map(|mode| {
            Some(format!(
                "{}/{mode:?}: {}",
                row.name,
                run_cell(row, mode).err()?
            ))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The world shape the table and the crash sweep share.
// ---------------------------------------------------------------------------

/// What an audit gets to see after a (possibly crashed, possibly resumed)
/// run.
pub struct Audit<'a> {
    /// Indexes of ops acknowledged with effect. Under the crash sweep ops
    /// run in order, so this is a prefix of the effectful ones.
    pub acked: &'a [usize],
    /// The op the injected crash surfaced in; `None` without a crash. Its
    /// commit may or may not have landed durably (§3.4.2's ambiguity), so
    /// audits allow either outcome.
    pub crashed: Option<usize>,
    /// After resume, every op has been attempted at least once; the
    /// crashed op may have applied twice (at-least-once delivery).
    pub resumed: bool,
}

/// One workload step: `Ok(true)` = acknowledged with effect,
/// `Ok(false)` = acknowledged no-op, `Err` = the injected crash (or, in
/// the contention table, a failed request). `Sync` so that threads can
/// share one driver's ops.
pub type Op = Box<dyn Fn() -> Result<bool, String> + Send + Sync>;

/// Names of the invariants violated right now, given what the run
/// acknowledged.
pub type AuditFn = Box<dyn Fn(&Audit) -> Vec<String>>;

/// One app's workload bound to a database instance.
pub struct Driver {
    /// Workload steps: run in order by the crash sweep, split across
    /// threads by the contention table.
    pub ops: Vec<Op>,
    /// The invariant audit.
    pub audit: AuditFn,
    /// The app's boot-fsck pass in fix mode.
    pub recover: Box<dyn Fn() -> Report>,
}

/// A fresh zero-latency KV store on its own virtual clock: the KV the
/// table's Mastodon and JumpServer stacks run on. The clock moves only
/// when a caller moves it, so no lease expires under contention.
pub fn kv() -> Client {
    Client::new(
        Store::new(),
        Arc::new(VirtualClock::new()),
        LatencyModel::zero(),
    )
}

// ---------------------------------------------------------------------------
// Row plumbing.
// ---------------------------------------------------------------------------

/// What the table and the crash sweep read of every app.
trait App: Send + Sync + 'static {
    fn orm(&self) -> &Orm;
    /// The app's boot-fsck pass in fix mode.
    fn recover(&self) -> Report;
    /// The same pass detecting only.
    fn fsck(&self) -> Report;
}

macro_rules! app {
    ($($app:ident::$ty:ident),*) => {$(
        impl App for $app::$ty {
            fn orm(&self) -> &Orm {
                <$app::$ty>::orm(self)
            }
            fn recover(&self) -> Report {
                self.recover_on_boot()
            }
            fn fsck(&self) -> Report {
                $app::boot_fsck().run(self.orm().db())
            }
        }
    )*};
}

app!(
    broadleaf::Broadleaf,
    discourse::Discourse,
    jumpserver::JumpServer,
    mastodon::Mastodon,
    redmine::Redmine,
    saleor::Saleor,
    scm_suite::ScmSuite,
    spree::Spree
);

/// Named checks of an audit; each must answer `Ok(true)`.
type Checks = Vec<(String, apps::Result<bool>)>;

/// `(name, answer)` for each app invariant call.
macro_rules! holds {
    ($($call:expr),* $(,)?) => { vec![$((stringify!($call).to_string(), $call)),*] };
}
use holds;

/// The checks of `checks` that failed, one line each.
fn broken(checks: Checks) -> Vec<String> {
    checks
        .into_iter()
        .filter(|(_, ok)| !matches!(ok, Ok(true)))
        .map(|(name, ok)| format!("{name}: {ok:?}"))
        .collect()
}

/// A driver over `app`: `n` ops (op `i` calls `op(app, i)`), the audit,
/// and the app's boot-fsck in fix mode.
fn driver<A: App>(
    app: Arc<A>,
    n: usize,
    op: impl Fn(&A, usize) -> apps::Result<bool> + Send + Sync + 'static,
    audit: impl Fn(&A, &Audit) -> Vec<String> + 'static,
) -> Driver {
    let op = Arc::new(op);
    let ops = (0..n)
        .map(|i| {
            let (app, op) = (Arc::clone(&app), Arc::clone(&op));
            Box::new(move || op(&app, i).map_err(|e| e.to_string())) as Op
        })
        .collect();
    let a = Arc::clone(&app);
    Driver {
        ops,
        audit: Box::new(move |run| audit(&a, run)),
        recover: Box::new(move || app.recover()),
    }
}

/// A row's world: `n` ops (op `i` calls `op(app, i)`), the invariants, the
/// committed aggregates, the same aggregates as the acked ops say, and the
/// digest. Invariant names are what the audit reports when one fails.
fn world<A: App>(
    app: A,
    n: usize,
    op: impl Fn(&A, usize) -> apps::Result<bool> + Send + Sync + 'static,
    invariants: impl Fn(&A, &Audit) -> Checks + 'static,
    state: impl Fn(&A) -> Vec<i64> + 'static,
    expect: impl Fn(&Audit) -> Vec<i64> + 'static,
    digest: Vec<i64>,
) -> World {
    let (app, state) = (Arc::new(app), Arc::new(state));
    let s = Arc::clone(&state);
    World {
        driver: driver(Arc::clone(&app), n, op, move |app, audit| {
            let mut v = broken(invariants(app, audit));
            let (got, want) = (s(app), expect(audit));
            if got != want {
                v.push(format!("committed {got:?}, acked ops say {want:?}"));
            }
            let timeouts = app.orm().db().stats().lock_stats.timeouts;
            if timeouts > 0 {
                v.push(format!("{timeouts} lock wait(s) timed out"));
            }
            v
        }),
        state: Box::new(move || state(&app)),
        digest,
    }
}

/// Acked ops whose index satisfies `kind`.
fn count(audit: &Audit, kind: impl Fn(usize) -> bool) -> i64 {
    audit.acked.iter().filter(|&&i| kind(i)).count() as i64
}

/// All acked ops.
fn acked(audit: &Audit) -> i64 {
    audit.acked.len() as i64
}

/// A committed integer column, or `i64::MIN` when it cannot be read.
fn field(app: &impl App, table: &str, id: i64, col: &str) -> i64 {
    let db = app.orm().db();
    let read = || {
        let schema = db.schema(table).ok()?;
        db.latest_committed(table, id)
            .ok()?
            .and_then(|row| row.get_int(&schema, col).ok())
    };
    read().unwrap_or(i64::MIN)
}

/// Rows of `table` that hold every `(column, value)` of `wanted`.
fn rows_with(app: &impl App, table: &str, wanted: &[(&str, Value)]) -> i64 {
    let db = app.orm().db();
    let (Ok(schema), Ok(rows)) = (db.schema(table), db.dump_table(table)) else {
        return 0;
    };
    rows.iter()
        .filter(|(_, row)| {
            wanted
                .iter()
                .all(|(col, v)| row.get(&schema, col).ok() == Some(v))
        })
        .count() as i64
}

/// Rows of `table` whose integer `col` is `val`.
fn rows(app: &impl App, table: &str, col: &str, val: i64) -> i64 {
    rows_with(app, table, &[(col, val.into())])
}

// ---------------------------------------------------------------------------
// The rows.
// ---------------------------------------------------------------------------

/// Table 6 `RMW` (Fig. 1a's SKU): 8 × 25 single-unit check-outs against 150
/// units. Every sale is counted and the stock drains to exactly zero.
fn broadleaf_checkout(mode: Mode) -> World {
    const STOCK: i64 = 150;
    let app = broadleaf::Broadleaf::studied(mode);
    app.seed_sku(1, STOCK).unwrap();
    world(
        app,
        8 * 25,
        |app, _| app.check_out(1, 1),
        |app, _| holds![app.sku_conserved(1, STOCK)],
        |app| {
            vec![
                field(app, "skus", 1, "quantity"),
                field(app, "skus", 1, "sold"),
            ]
        },
        |audit| vec![STOCK - acked(audit), acked(audit)],
        vec![0, STOCK],
    )
}

/// Fig. 1a: 8 × 10 items (price 10 + thread, quantity 1 or 2) into one cart.
/// The stored total is the exact sum of the items.
fn broadleaf_cart(mode: Mode) -> World {
    let item = |i: usize| (10 + (i % 8) as i64, 1 + (i / 8 % 2) as i64);
    let app = broadleaf::Broadleaf::studied(mode);
    app.seed_cart(1).unwrap();
    world(
        app,
        8 * 10,
        move |app, i| app.add_to_cart(1, item(i).0, item(i).1).map(|()| true),
        |app, _| holds![app.cart_total_consistent(1)],
        |app| {
            vec![
                field(app, "carts", 1, "total"),
                rows(app, "items", "cart_id", 1),
            ]
        },
        move |audit| {
            let total = audit.acked.iter().map(|&i| item(i).0 * item(i).1);
            vec![total.sum(), acked(audit)]
        },
        vec![108 * (5 + 5 * 2), 80],
    )
}

/// §3.1.1: eight orders (one per thread) × 10 single-unit decrements of one
/// 50-unit SKU, each dragging the product/category touch cascade. The SKU
/// drains to exactly zero, and every order that bought stock is confirmed.
fn spree_checkout(mode: Mode) -> World {
    const STOCK: i64 = 50;
    let order = |i: usize| 1 + (i % 8) as i64;
    let app = spree::Spree::studied(mode);
    app.seed_catalog(1, 1, &[10, 11], STOCK).unwrap();
    for order in 1..=8 {
        app.seed_order(order).unwrap();
    }
    world(
        app,
        8 * 10,
        move |app, i| app.decrement_stock(order(i), 1, 1),
        move |app, audit| {
            let confirmed = |&i: &usize| -> apps::Result<bool> {
                Ok(app
                    .orm()
                    .find_required("orders", order(i))?
                    .get_str("state")?
                    == "confirmed")
            };
            let all = audit
                .acked
                .iter()
                .map(confirmed)
                .collect::<apps::Result<Vec<_>>>();
            vec![(
                "every buying order confirmed".into(),
                all.map(|c| c.iter().all(|&c| c)),
            )]
        },
        |app| vec![app.sku_quantity(1).unwrap_or(-1)],
        |audit| vec![STOCK - acked(audit)],
        vec![0],
    )
}

/// Table 6 `PBC`: eight concurrent `add_payment`s for one order; exactly one
/// creates the payment.
fn spree_payment(mode: Mode) -> World {
    let app = spree::Spree::studied(mode);
    app.seed_order(1).unwrap();
    world(
        app,
        8,
        |app, _| app.add_payment(1),
        |app, _| holds![app.one_payment_per_order(1)],
        |app| vec![rows(app, "payments", "order_id", 1)],
        |audit| vec![acked(audit)],
        vec![1],
    )
}

/// §3.2.1: sixteen single-unit allocations against ten units of stock, each
/// thread allocating its two items and then re-running its first. Stock
/// never goes negative, a re-run never consumes twice, and exactly ten
/// allocations are consumed.
fn saleor_allocate(mode: Mode) -> World {
    let item = |i: usize| 1 + 2 * (i % 8) as i64 + (i / 8 == 1) as i64;
    let app = saleor::Saleor::studied(mode);
    app.seed_stock(1, 10).unwrap();
    for item in 1..=16 {
        app.seed_allocation(item, 1, 1).unwrap();
    }
    world(
        app,
        8 * 3,
        move |app, i| app.allocate(item(i)),
        |app, _| holds![app.stock_qty(1).map(|qty| qty >= 0)],
        // Allocation `n` is the `n`-th row seeded.
        |app| {
            let consumed = (1..=16).filter(|&n| field(app, "allocations", n, "qty") == 0);
            vec![app.stock_qty(1).unwrap_or(-1), consumed.count() as i64]
        },
        move |audit| {
            let mut items: Vec<i64> = audit.acked.iter().map(|&i| item(i)).collect();
            items.sort_unstable();
            items.dedup();
            vec![10 - items.len() as i64, items.len() as i64]
        },
        vec![0, 10],
    )
}

/// Table 5b: 8 × 2 captures of 100 cents against a 1,000-cent authorization.
/// Exactly ten land.
fn saleor_capture(mode: Mode) -> World {
    let app = saleor::Saleor::studied(mode);
    app.seed_capture(1, 1000).unwrap();
    world(
        app,
        8 * 2,
        |app, _| app.capture_payment(1, 100),
        |app, _| holds![app.capture_within_authorization(1)],
        |app| vec![field(app, "captures", 1, "captured_cents")],
        |audit| vec![100 * acked(audit)],
        vec![1000],
    )
}

/// Table 6 `CBC` + `AA`: 8 threads × 10 rounds of (create a post, like one
/// of the two seeded posts). Post numbers stay dense, and every like is
/// counted on its post and on the topic.
fn discourse_posts_and_likes(mode: Mode) -> World {
    let create = |i: usize| (i / 8).is_multiple_of(2);
    let liked = |i: usize| 1 + (i % 2) as i64; // the seeded posts' ids
    let app = discourse::Discourse::studied(mode);
    app.seed_topic(1).unwrap();
    for (content, id) in [("a", 1), ("b", 2)] {
        assert_eq!(app.seed_post(1, content, 0).unwrap(), id);
    }
    world(
        app,
        8 * 20,
        move |app, i| match create(i) {
            true => app.create_post(1, "post").map(|_| true),
            false => app.like_post(liked(i)).map(|()| true),
        },
        |app, _| holds![app.topic_posts_consistent(1), app.likes_consistent(1)],
        |app| {
            let likes = |id| field(app, "posts", id, "like_cnt");
            let topic = |col| field(app, "topics", 1, col);
            vec![topic("max_post"), likes(1), likes(2), topic("total_likes")]
        },
        move |audit| {
            let likes = |id| count(audit, |i| !create(i) && liked(i) == id);
            vec![
                2 + count(audit, create),
                likes(1),
                likes(2),
                likes(1) + likes(2),
            ]
        },
        vec![2 + 80, 40, 40, 80],
    )
}

/// Composer drafts: 8 threads race sequences 0..=10 into two users' drafts,
/// the first save of each racing the insert path. Each draft ends as one
/// row holding the highest saved sequence; a stale one never clobbers it.
fn discourse_drafts(mode: Mode) -> World {
    let (user, seq) = (|i: usize| 7 + (i % 2) as i64, |i: usize| (i / 8) as i64);
    let app = discourse::Discourse::studied(mode);
    world(
        app,
        8 * 11,
        move |app, i| {
            let saved = app.save_draft(user(i), "topic:1", seq(i), &format!("s{}", seq(i)));
            saved.map(|outcome| outcome == DraftOutcome::Saved)
        },
        |_, _| vec![],
        // Per user: draft rows, the stored sequence, the sequence its
        // content was saved with.
        |app| {
            let draft = |u| app.draft(u, "topic:1").ok().flatten().unwrap_or_default();
            let content = |u| draft(u).1.trim_start_matches('s').parse().unwrap_or(-1);
            let user = |u| [rows(app, "drafts", "user_id", u), draft(u).0, content(u)];
            [user(7), user(8)].concat()
        },
        move |audit| {
            let top = |u| {
                audit
                    .acked
                    .iter()
                    .filter(|&&i| user(i) == u)
                    .map(|&i| seq(i))
                    .max()
            };
            let user = |u| top(u).map_or([0, 0, -1], |s| [1, s, s]);
            [user(7), user(8)].concat()
        },
        vec![1, 10, 10, 1, 10, 10],
    )
}

/// Fig. 1c: 8 × 40 votes alternating between the two choices. Both tallies
/// are exact.
fn mastodon_votes(mode: Mode) -> World {
    let a = |i: usize| (i % 8 + i / 8).is_multiple_of(2);
    let app = mastodon::Mastodon::studied(kv(), mode);
    app.seed_poll(1).unwrap();
    world(
        app,
        8 * 40,
        move |app, i| {
            app.vote(1, if a(i) { Choice::A } else { Choice::B })
                .map(|()| true)
        },
        |_, _| vec![],
        |app| {
            vec![
                field(app, "polls", 1, "tally_a"),
                field(app, "polls", 1, "tally_b"),
            ]
        },
        move |audit| vec![count(audit, a), count(audit, |i| !a(i))],
        vec![160, 160],
    )
}

/// Fig. 1b: 8 × 4 redemptions of a ten-use invite. Exactly ten succeed.
fn mastodon_invites(mode: Mode) -> World {
    let app = mastodon::Mastodon::studied(kv(), mode);
    app.seed_invite(1, 10).unwrap();
    world(
        app,
        8 * 4,
        |app, _| app.redeem_invite(1),
        |app, _| holds![app.invite_within_limit(1)],
        |app| vec![field(app, "invites", 1, "redeems")],
        |audit| vec![acked(audit)],
        vec![10],
    )
}

/// §3.1.3: 8 × 10 posts fanned out to one follower's Redis timeline, every
/// other one deleted again by the same op. The timeline references only
/// live posts and holds exactly the kept ones.
fn mastodon_timeline(mode: Mode) -> World {
    let kept = |i: usize| (i / 8).is_multiple_of(2);
    let next = AtomicI64::new(1);
    world(
        mastodon::Mastodon::studied(kv(), mode),
        8 * 10,
        move |app, i| {
            let post = next.fetch_add(1, Ordering::Relaxed);
            app.create_post(7, post, "hello")?;
            if !kept(i) {
                app.delete_post(7, post)?;
            }
            Ok(true)
        },
        |app, _| holds![app.timeline_consistent(7)],
        |app| vec![app.timeline(7).map_or(-1, |t| t.len() as i64)],
        move |audit| vec![count(audit, kept)],
        vec![40],
    )
}

/// Notification dedupe: 8 threads deliver the same six events to one user.
/// Each event is delivered exactly once.
fn mastodon_notifications(mode: Mode) -> World {
    world(
        mastodon::Mastodon::studied(kv(), mode),
        8 * 6,
        |app, i| app.notify_once(7, &format!("mention:{}", i / 8)),
        |app, _| holds![app.notifications_unique(7)],
        |app| vec![rows(app, "notifications", "user_id", 7)],
        |audit| vec![acked(audit)],
        vec![6],
    )
}

/// Redmine's FOR-UPDATE pattern: 8 threads × 10 rounds of (advance the
/// issue by 1, attach a file). Progress and the attachment counter cache
/// are exact.
fn redmine_progress_and_attachments(mode: Mode) -> World {
    let advance = |i: usize| (i / 8).is_multiple_of(2);
    let app = redmine::Redmine::studied(mode);
    app.seed_issue(1, "needs logs").unwrap();
    world(
        app,
        8 * 20,
        move |app, i| match advance(i) {
            true => app.advance_issue(1, (i % 8) as i64, 1).map(|()| true),
            false => app.add_attachment(1, &format!("log-{i}.txt")).map(|_| true),
        },
        |app, _| holds![app.attachments_consistent(1)],
        |app| {
            vec![
                app.done_ratio(1).unwrap_or(-1),
                field(app, "issues", 1, "attachments_count"),
            ]
        },
        move |audit| {
            vec![
                count(audit, advance).min(100),
                count(audit, |i| !advance(i)),
            ]
        },
        vec![80, 80],
    )
}

/// §3.3's version pair: seven threads assign issues 1..=7 to a version while
/// an eighth closes it. Either the close wins and no issue is assigned, or
/// it is refused and all seven are: never an open issue on a closed version.
fn redmine_version_close(mode: Mode) -> World {
    const CLOSE: usize = 7;
    let app = redmine::Redmine::studied(mode);
    app.seed_version(1, "1.0").unwrap();
    for issue in 1..=CLOSE as i64 {
        app.seed_issue(issue, "versioned").unwrap();
    }
    world(
        app,
        CLOSE + 1,
        |app, i| match i {
            CLOSE => app.close_version(1),
            _ => app.assign_version(i as i64 + 1, 1),
        },
        |app, _| holds![app.versions_consistent()],
        // Assigned issues, plus all seven again once the version is closed.
        |app| {
            let closed = field(app, "versions", 1, "open") == 0;
            vec![rows(app, "issues", "version_id", 1) + CLOSE as i64 * closed as i64]
        },
        |audit| {
            let mut assigned: Vec<usize> = audit.acked.to_vec();
            assigned.dedup();
            let closed = assigned.last() == Some(&CLOSE);
            vec![assigned.len() as i64 - closed as i64 + CLOSE as i64 * closed as i64]
        },
        vec![CLOSE as i64],
    )
}

/// Privilege grants and credential rotation: 8 threads each grant user 7
/// both assets (levels rising on asset 1, falling on asset 2) and rotate
/// one credential. One grant row per asset at the highest acked level,
/// and every rotation is counted and audited.
fn jumpserver_grants_and_rotations(mode: Mode) -> World {
    let (kind, t) = (|i: usize| i / 8, |i: usize| (i % 8) as i64);
    let level = move |i: usize| if kind(i) == 0 { t(i) + 1 } else { 8 - t(i) };
    let app = jumpserver::JumpServer::studied(kv(), mode);
    app.seed_credential(1, "s0").unwrap();
    world(
        app,
        8 * 3,
        move |app, i| match kind(i) {
            2 => app
                .rotate_credential(1, &format!("s{}", t(i)))
                .map(|_| true),
            asset => app.grant(7, asset as i64 + 1, level(i)).map(|()| true),
        },
        |app, _| holds![app.grants_unique(7), app.rotations_audited(1)],
        // Grant rows, each asset's level (0 if ungranted), the version.
        |app| {
            let grants = app.orm().db().dump_table("grants").unwrap_or_default();
            let schema = app.orm().db().schema("grants").unwrap();
            let level = |asset| {
                let of = grants
                    .iter()
                    .filter(|(_, g)| g.get_int(&schema, "asset_id") == Ok(asset));
                of.map(|(_, g)| g.get_int(&schema, "level").unwrap_or(-1))
                    .max()
            };
            let version = field(app, "credentials", 1, "version");
            vec![
                grants.len() as i64,
                level(1).unwrap_or(0),
                level(2).unwrap_or(0),
                version,
            ]
        },
        move |audit| {
            let top = |k| {
                audit
                    .acked
                    .iter()
                    .filter(|&&i| kind(i) == k)
                    .map(|&i| level(i))
                    .max()
            };
            let granted = (0..2).filter(|&k| top(k).is_some()).count() as i64;
            let rotations = count(audit, |i| kind(i) == 2);
            vec![granted, top(0).unwrap_or(0), top(1).unwrap_or(0), rotations]
        },
        vec![2, 8, 8, 8],
    )
}

/// SCM Suite balances: 8 threads × 10 rounds of (credit account 1 by 1 or
/// account 3 by 2, transfer 3 from account 1 to 2 or 2 from 2 back to 1,
/// ship one unit of merchandise, debit account 3 by 3). Every credit,
/// transfer and shipment lands; account 3 (50 to start) takes its credits
/// while its debits reserve, and never goes negative; every escrow ledger
/// agrees with its balance at rest.
fn scm_accounts(mode: Mode) -> World {
    let kind = |i: usize| i / 8 % 4;
    let odd = |i: usize| i % 2 == 1;
    let app = scm_suite::ScmSuite::studied(mode);
    for (id, balance) in [(1, 1000), (2, 1000), (3, 50)] {
        app.seed_account(id, balance).unwrap();
    }
    app.seed_merchandise(1, 10_000).unwrap();
    world(
        app,
        8 * 40,
        move |app, i| match kind(i) {
            0 if odd(i) => app.adjust_balance(3, 2),
            0 => app.adjust_balance(1, 1),
            1 if odd(i) => app.transfer(2, 1, 2),
            1 => app.transfer(1, 2, 3),
            // A client retries the hand-crafted version check until it commits.
            2 => loop {
                if app.track_stock(1, -1, true)? == CommitOutcome::Committed {
                    return Ok(true);
                }
            },
            _ => app.adjust_balance(3, -3),
        },
        move |app, audit| {
            let (credits, debits) = (
                count(audit, |i| kind(i) == 0 && odd(i)),
                count(audit, |i| kind(i) == 3),
            );
            let balance = |id| app.balance(id);
            let ledger = |id| app.orm().db().escrow_available("accounts", id, "balance");
            let at_rest = (1..=3).all(|id| ledger(id).ok() == balance(id).ok());
            vec![
                (
                    "account 3 = 50 + 2 × credits − 3 × debits ≥ 0".into(),
                    balance(3).map(|b| b == 50 + 2 * credits - 3 * debits && b >= 0),
                ),
                ("every escrow ledger = its balance".into(), Ok(at_rest)),
            ]
        },
        |app| {
            let balance = |id| app.balance(id).unwrap_or(i64::MIN);
            vec![
                balance(1),
                balance(2),
                field(app, "merchandise", 1, "stock"),
            ]
        },
        move |audit| {
            let n = |k, o| count(audit, |i| kind(i) == k && odd(i) == o);
            let moved = 3 * n(1, false) - 2 * n(1, true);
            vec![
                1000 + n(0, false) - moved,
                1000 + moved,
                10_000 - count(audit, |i| kind(i) == 2),
            ]
        },
        // 40 credits of 1, 40 transfers of 3 out and 40 of 2 back, 80 shipments.
        vec![1000, 1000 + 40, 10_000 - 80],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    // `assert_cell` resolves a row by name, so a duplicate name would
    // silently run its first match.
    #[test]
    fn row_names_are_unique() {
        let names: HashSet<_> = ROWS.iter().map(|row| row.name).collect();
        assert_eq!(names.len(), ROWS.len(), "a row name repeats");
    }
}
