//! Engine-scaling microbenchmarks: throughput vs thread count.
//!
//! The paper's §5 performance story is that coordination which *could* be
//! avoided shows up as lost scalability under contention. Every sweep runs
//! each (threads, pattern) cell on **disjoint** keys (no two threads ever
//! touch the same row) and on one **same** hot key, and measures each
//! configuration once:
//!
//! * [`wal_commit_scaling`] — storage-engine commit throughput, N threads
//!   each committing single-row update transactions, under each
//!   durability policy × simulated fsync cost. Its `off` column is the
//!   commit-scaling curve: with a sharded commit path, disjoint-key
//!   throughput should scale with threads; same-key throughput is bounded
//!   by the row's record lock whatever the engine does.
//! * [`kv_scaling`] — KV store command throughput, N threads each running
//!   `WATCH`-style CAS loops (version read + `EXEC`) on disjoint vs shared
//!   keys. With a striped store, disjoint-key commands never share a lock.
//! * [`confluence_scaling`] — the same increment three ways: the
//!   hand-rolled lock + two-transaction AHT, the §7 cured `orm::occ`
//!   layer, and a commutative delta. Its `adhoc`/`cured` rows are the
//!   cure ablation.
//!
//! Every sweep is one per-iteration closure on `measure` and one list
//! of [`ScalingRow`]s through `render_json`; `paper-eval bench-json`
//! (`tools/bench.sh`) writes each as a `BENCH_*.json`, and
//! `tools/check_scaling.py` compares cells of one fresh sweep with each
//! other, never with another commit's numbers.

use adhoc_core::locks::{AdHocLock, MemLock};
use adhoc_kv::Store;
use adhoc_orm::occ::run_occ;
use adhoc_orm::{EntityDef, Orm, Registry};
use adhoc_sim::RetryPolicy;
use adhoc_storage::{
    Column, ColumnType, Database, DbConfig, EngineProfile, IsolationLevel, Schema,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What the workers of one [`measure`] call did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Measured {
    /// Iterations that returned `true` inside the measured window.
    pub committed: u64,
    /// Iterations started inside the measured window.
    pub attempts: u64,
    /// Iterations that returned `true` over the whole run, warm-up
    /// included — the span cumulative engine counters (`DbStats`,
    /// `Client::round_trips`) cover.
    pub committed_total: u64,
}

/// The one measurement loop. Spawns `threads` workers; worker `t` builds
/// its per-iteration step with `worker(t)` and calls it with 0, 1, 2, …
/// until told to stop; a step returns whether its operation committed.
/// The first `window / 4` is warm-up — thread spawn cost, allocator
/// steady state and the first lock-table entries settle — and is
/// subtracted from the counters before the measured `window` starts.
pub(crate) fn measure<W, F>(threads: usize, window: Duration, worker: W) -> Measured
where
    W: Fn(usize) -> F + Sync,
    F: FnMut(u64) -> bool,
{
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    let mut warmup = (0, 0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, committed, attempts, worker) = (&stop, &committed, &attempts, &worker);
            s.spawn(move || {
                let mut step = worker(t);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    if step(i) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }
        std::thread::sleep(window / 4);
        warmup = (
            committed.load(Ordering::Relaxed),
            attempts.load(Ordering::Relaxed),
        );
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let committed_total = committed.into_inner();
    Measured {
        committed: committed_total - warmup.0,
        attempts: attempts.into_inner() - warmup.1,
        committed_total,
    }
}

/// Which key pattern the worker threads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPattern {
    /// Every thread owns a private key range: zero logical conflicts.
    Disjoint,
    /// Every thread hammers one shared hot key: maximal conflicts.
    SameKey,
}

impl KeyPattern {
    /// JSON/label name.
    pub fn label(self) -> &'static str {
        match self {
            KeyPattern::Disjoint => "disjoint",
            KeyPattern::SameKey => "same_key",
        }
    }
}

/// Durability mode of one WAL-ablation row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// No write-ahead log at all.
    Off,
    /// Per-commit fsync (`WalSyncPolicy::OnCommit`): the safe policy,
    /// paid on every commit.
    OnCommit,
    /// Group commit (`WalSyncPolicy::GroupCommit`): still acked ⇒ durable,
    /// but concurrent commits share one leader fsync.
    GroupCommit,
}

impl WalMode {
    /// JSON/label name.
    pub fn label(self) -> &'static str {
        match self {
            WalMode::Off => "off",
            WalMode::OnCommit => "on_commit",
            WalMode::GroupCommit => "group_commit",
        }
    }

    /// Whether a log exists at all.
    pub fn enabled(self) -> bool {
        self != WalMode::Off
    }
}

/// Implementation of one confluence-sweep row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccStrategy {
    /// The hand-rolled ad hoc transaction the studied applications write:
    /// in-process lock around a read in one database transaction and the
    /// dependent write in a *second* one (the Figure 1a shape).
    AdhocLock,
    /// `orm::occ`: one optimistic transaction — field-granular read
    /// footprint, validate-on-commit, automatic retry.
    CuredOcc,
    /// The PR-9 coordination-avoiding path: the increment is a
    /// commutative delta (`add_delta`), so the transaction carries no
    /// read footprint at all — nothing to validate, nothing to retry,
    /// concurrent bumps merge at install.
    Confluent,
}

impl OccStrategy {
    /// JSON/label name.
    pub fn label(self) -> &'static str {
        match self {
            OccStrategy::AdhocLock => "adhoc",
            OccStrategy::CuredOcc => "cured",
            OccStrategy::Confluent => "confluent",
        }
    }
}

/// One measured cell of any sweep. The three labels are `None` except in
/// the sweep that varies them; `render_json` writes a key only when its
/// label is set.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Worker thread count.
    pub threads: usize,
    /// Key pattern.
    pub pattern: KeyPattern,
    /// Which implementation produced the row (confluence sweep).
    pub strategy: Option<OccStrategy>,
    /// Durability mode (WAL sweep).
    pub policy: Option<WalMode>,
    /// Simulated per-fsync device latency in µs (WAL sweep).
    pub fsync_us: Option<u64>,
    /// Committed operations per second.
    pub throughput_ops: f64,
    /// Aborted-attempt fraction (aborts / attempts), 0.0 when nothing
    /// retried.
    pub abort_rate: f64,
}

impl ScalingRow {
    fn new(
        threads: usize,
        pattern: KeyPattern,
        window: Duration,
        run: Measured,
        abort_rate: f64,
    ) -> Self {
        Self {
            threads,
            pattern,
            strategy: None,
            policy: None,
            fsync_us: None,
            throughput_ops: run.committed as f64 / window.as_secs_f64(),
            abort_rate,
        }
    }
}

/// Render a sweep as the machine-readable JSON the CI/bench tooling
/// consumes: the bench name, the unit, and one object per row with the
/// keys `threads`, `pattern`, then `strategy` / `wal` + `policy` /
/// `fsync_us` where the row carries that label, then `throughput_ops`
/// and `abort_rate`.
fn render_json(bench: &str, rows: &[ScalingRow]) -> String {
    use std::fmt::Write;
    let mut out =
        format!("{{\n  \"bench\": \"{bench}\",\n  \"unit\": \"ops_per_sec\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"threads\": {}, \"pattern\": \"{}\"",
            r.threads,
            r.pattern.label()
        );
        if let Some(strategy) = r.strategy {
            let _ = write!(out, ", \"strategy\": \"{}\"", strategy.label());
        }
        if let Some(policy) = r.policy {
            let _ = write!(
                out,
                ", \"wal\": {}, \"policy\": \"{}\"",
                policy.enabled(),
                policy.label()
            );
        }
        if let Some(fsync_us) = r.fsync_us {
            let _ = write!(out, ", \"fsync_us\": {fsync_us}");
        }
        let _ = writeln!(
            out,
            ", \"throughput_ops\": {:.1}, \"abort_rate\": {:.6}}}{}",
            r.throughput_ops,
            r.abort_rate,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Rows per thread in the disjoint workload (each thread cycles through
/// its own private ids).
const ROWS_PER_THREAD: u64 = 16;

/// The row worker `t` touches on its `i`-th iteration.
fn row_id(pattern: KeyPattern, t: usize, i: u64) -> i64 {
    match pattern {
        KeyPattern::Disjoint => (1 + t as u64 * ROWS_PER_THREAD + i % ROWS_PER_THREAD) as i64,
        KeyPattern::SameKey => 0,
    }
}

/// Every (threads, pattern) cell of a sweep, in row order.
fn cells(thread_counts: &[usize]) -> impl Iterator<Item = (usize, KeyPattern)> + '_ {
    thread_counts.iter().flat_map(|&threads| {
        [KeyPattern::Disjoint, KeyPattern::SameKey].map(move |pattern| (threads, pattern))
    })
}

/// Simulated per-fsync device latency of the nonzero-latency WAL
/// ablation column, in microseconds. Charged to the engine's virtual
/// clock (not wall time), it models the ~50µs a commodity NVMe flush
/// costs — enough to make the per-commit-fsync tax visible and the
/// group-commit amortization win measurable.
pub const FSYNC_LATENCY_US: u64 = 50;

/// Build the bench table and seed every row the sweep will touch.
/// `wal` selects the write-ahead-log policy so the same workload measures
/// durability overhead; `fsync_latency_us` is the simulated device flush
/// (`latency.durable_flush`), which every fsync the policy issues pays.
fn seed_db(threads_max: usize, wal: WalMode, fsync_latency_us: u64) -> Database {
    let mut cfg = DbConfig::in_memory(EngineProfile::PostgresLike);
    cfg.latency.durable_flush = Duration::from_micros(fsync_latency_us);
    let db = Database::new(match wal {
        WalMode::Off => cfg,
        WalMode::OnCommit => cfg.with_wal(),
        WalMode::GroupCommit => cfg.with_wal_group_commit(),
    });
    db.create_table(
        Schema::new(
            "bench_rows",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            "id",
        )
        .expect("schema"),
    )
    .expect("create");
    let rows = threads_max as u64 * ROWS_PER_THREAD + 1;
    for id in 0..rows as i64 {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("bench_rows", &[("id", id.into()), ("val", 0.into())])
        })
        .expect("seed");
    }
    db
}

/// `aborts / (attempts + aborts)` with `DbStats::aborts`, which counts
/// every rolled-back transaction (retried or not).
fn db_abort_rate(db: &Database, run: Measured) -> f64 {
    let aborts = db.stats().aborts;
    aborts as f64 / (run.attempts.max(1) + aborts) as f64
}

/// One commit cell on a fresh database: single-row update transactions,
/// with the WAL switchable on and an optional simulated per-fsync device
/// latency.
fn measure_commits(
    threads: usize,
    pattern: KeyPattern,
    window: Duration,
    wal: WalMode,
    fsync_latency_us: u64,
) -> ScalingRow {
    let db = seed_db(threads, wal, fsync_latency_us);
    let run = measure(threads, window, |t| {
        let db = &db;
        move |i| {
            let id = row_id(pattern, t, i);
            db.run_with_retries(IsolationLevel::ReadCommitted, 64, |txn| {
                txn.update("bench_rows", id, &[("val", (i as i64).into())])
            })
            .is_ok()
        }
    });
    ScalingRow::new(threads, pattern, window, run, db_abort_rate(&db, run))
}

/// One KV cell: CAS loops (version read + watched `EXEC`) per second; an
/// `EXEC` that validates against a moved version counts as an abort.
fn measure_kv(threads: usize, pattern: KeyPattern, window: Duration) -> ScalingRow {
    use adhoc_kv::{SetMode, WriteOp};
    use std::fmt::Write;
    let store = Store::new();
    let t0 = Duration::ZERO;
    let run = measure(threads, window, |t| {
        let store = &store;
        // Precompute the key set and reuse one watched tuple + one
        // buffered op: the steady-state loop then allocates nothing, so
        // the sweep measures the store, not the workload's formatting.
        let keys: Vec<String> = match pattern {
            KeyPattern::Disjoint => (0..ROWS_PER_THREAD).map(|k| format!("k:{t}:{k}")).collect(),
            KeyPattern::SameKey => vec!["hot".to_string()],
        };
        let mut watched = vec![(String::new(), 0u64)];
        let mut ops = vec![WriteOp::Set {
            key: String::new(),
            value: String::new(),
            mode: SetMode::Always,
            ttl: None,
        }];
        move |i| {
            let key = &keys[(i as usize) % keys.len()];
            let ver = store.version(key, t0);
            watched[0].0.clear();
            watched[0].0.push_str(key);
            watched[0].1 = ver;
            if let WriteOp::Set {
                key: k, value: v, ..
            } = &mut ops[0]
            {
                k.clear();
                k.push_str(key);
                v.clear();
                let _ = write!(v, "{i}");
            }
            store.exec(&watched, &ops, t0).expect("exec")
        }
    });
    let attempts = run.attempts.max(1);
    let failed = attempts - run.committed.min(attempts);
    ScalingRow::new(
        threads,
        pattern,
        window,
        run,
        failed as f64 / attempts as f64,
    )
}

/// KV-store command-throughput sweep over `thread_counts`.
pub fn kv_scaling(thread_counts: &[usize], window: Duration) -> Vec<ScalingRow> {
    cells(thread_counts)
        .map(|(threads, pattern)| measure_kv(threads, pattern, window))
        .collect()
}

/// Commit-throughput sweep under WAL off, per-commit fsync, and group
/// commit, over `thread_counts`. The WAL-off column is the engine's
/// commit-scaling curve, and the regression guard that `wal: None` keeps
/// the sharded commit path free of durability cost; the group-commit
/// column shows how much of the per-commit-fsync tax amortization
/// recovers.
///
/// Two latency columns per logging mode: free fsyncs (latency 0) and a
/// simulated [`FSYNC_LATENCY_US`]-cost device, the latter only for the
/// modes that fsync at all. The costed column is where group commit
/// earns its keep — per-commit fsync pays the device once per
/// transaction, the leader-based group pays once per *batch*.
pub fn wal_commit_scaling(thread_counts: &[usize], window: Duration) -> Vec<ScalingRow> {
    const COLUMNS: [(WalMode, u64); 5] = [
        (WalMode::Off, 0),
        (WalMode::OnCommit, 0),
        (WalMode::GroupCommit, 0),
        (WalMode::OnCommit, FSYNC_LATENCY_US),
        (WalMode::GroupCommit, FSYNC_LATENCY_US),
    ];
    cells(thread_counts)
        .flat_map(|(threads, pattern)| {
            COLUMNS.map(|(mode, fsync_us)| ScalingRow {
                policy: Some(mode),
                fsync_us: Some(fsync_us),
                ..measure_commits(threads, pattern, window, mode, fsync_us)
            })
        })
        .collect()
}

/// Retry policy of the cured bench loop: effectively unbounded attempts
/// with a backoff tuned for a microbenchmark's microsecond commits.
fn occ_bench_policy() -> RetryPolicy {
    RetryPolicy::exponential(
        1_000_000,
        Duration::from_micros(5),
        Duration::from_micros(200),
    )
}

/// One (threads, pattern, strategy) cell: read-modify-write increments of
/// `val`, disjoint or hot-key. Every strategy goes through the same ORM
/// so the cell isolates the *coordination* cost, not object-mapping
/// overhead.
fn measure_occ(
    threads: usize,
    pattern: KeyPattern,
    window: Duration,
    strategy: OccStrategy,
) -> ScalingRow {
    let db = seed_db(threads, WalMode::Off, 0);
    let orm = Orm::new(
        db.clone(),
        Registry::new().register(EntityDef::new("bench_rows")),
    );
    let lock = MemLock::new();
    let policy = occ_bench_policy();
    let run = measure(threads, window, |t| {
        let (orm, lock, policy) = (&orm, &lock, &policy);
        move |i| {
            let id = row_id(pattern, t, i);
            match strategy {
                OccStrategy::AdhocLock => {
                    // Key formatted per acquisition — the idiom every
                    // studied application writes
                    // (`lock.lock(&format!("account:{id}"))`).
                    let guard = lock.lock(&format!("row:{id}")).expect("lock");
                    let val = orm
                        .find_required("bench_rows", id)
                        .expect("read")
                        .get_int("val")
                        .expect("val");
                    std::thread::yield_now(); // business logic between R and W
                    orm.transaction(|txn| {
                        txn.raw()
                            .update("bench_rows", id, &[("val", (val + 1).into())])?;
                        Ok(())
                    })
                    .expect("write");
                    guard.unlock().expect("unlock");
                }
                OccStrategy::CuredOcc => {
                    run_occ(orm, policy, None, |occ| {
                        let val = occ
                            .read_fields(orm, "bench_rows", id, &["val"])?
                            .expect("seeded row")
                            .get_int("val")?;
                        std::thread::yield_now(); // business logic between R and W
                        occ.stage_update("bench_rows", id, &[("val", (val + 1).into())]);
                        Ok(())
                    })
                    .expect("occ");
                }
                OccStrategy::Confluent => {
                    // The increment commits as a delta: no read, no lock,
                    // no validation — so there is no R-to-W window for
                    // business logic to sit in, and no retry loop around
                    // the commit.
                    orm.transaction(|txn| {
                        txn.raw().add_delta("bench_rows", id, "val", 1)?;
                        Ok(())
                    })
                    .expect("delta");
                }
            }
            true
        }
    });
    // For the cured strategy every OCC validation failure rolled a
    // transaction back; the lock and delta strategies never abort.
    ScalingRow {
        strategy: Some(strategy),
        ..ScalingRow::new(threads, pattern, window, run, db_abort_rate(&db, run))
    }
}

/// The hot-key ablation over `thread_counts`, both key patterns, all
/// three strategies. Two claims are under test. The §7 cure: on disjoint
/// keys the optimistic layer (no lock round-trips, one transaction
/// instead of two) meets or beats the hand-rolled AHT, and under a hot
/// key its retry loop stays within a small factor of the serialized lock
/// queue. Coordination avoidance: on the single hot counter key the
/// confluent delta path — no lock queue, no OCC retry loop — clears the
/// cured layer by an integer factor with a zero abort rate, while on
/// disjoint keys (where there is no coordination to avoid) it stays at
/// parity.
pub fn confluence_scaling(thread_counts: &[usize], window: Duration) -> Vec<ScalingRow> {
    const STRATEGIES: [OccStrategy; 3] = [
        OccStrategy::AdhocLock,
        OccStrategy::CuredOcc,
        OccStrategy::Confluent,
    ];
    cells(thread_counts)
        .flat_map(|(threads, pattern)| {
            STRATEGIES.map(|strategy| measure_occ(threads, pattern, window, strategy))
        })
        .collect()
}

/// The standard thread sweep.
fn default_threads() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// Duty cycle per cell: `BENCH_SCALE=smoke` keeps the whole sweep under a
/// couple of seconds for CI; anything else runs the full window.
pub fn window_from_env() -> Duration {
    match std::env::var("BENCH_SCALE").as_deref() {
        Ok("smoke") => Duration::from_millis(25),
        _ => Duration::from_millis(200),
    }
}

/// Run `sweep` over `default_threads` at [`window_from_env`] and render
/// it under the `bench` name: the body of one `BENCH_*.json`.
pub fn bench_json(bench: &str, sweep: fn(&[usize], Duration) -> Vec<ScalingRow>) -> String {
    render_json(bench, &sweep(&default_threads(), window_from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_shape(rows: &[ScalingRow], expected: usize) {
        assert_eq!(rows.len(), expected);
        for r in rows {
            assert!(r.throughput_ops > 0.0, "{r:?}");
            assert!((0.0..=1.0).contains(&r.abort_rate), "{r:?}");
        }
    }

    #[test]
    fn scaling_sweep_smoke() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        check_shape(&kv_scaling(&[2], Duration::from_millis(20)), 2);
    }

    #[test]
    fn wal_ablation_smoke() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = wal_commit_scaling(&[2], Duration::from_millis(20));
        // 2 patterns x ({off, on_commit, group_commit} free + {on_commit,
        // group_commit} costed-fsync)
        check_shape(&rows, 10);
        for r in &rows {
            if r.policy == Some(WalMode::Off) {
                assert_eq!(r.fsync_us, Some(0), "{r:?}");
            }
        }
        assert!(rows.iter().any(|r| r.fsync_us == Some(FSYNC_LATENCY_US)));
    }

    #[test]
    fn confluence_ablation_smoke() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = confluence_scaling(&[2], Duration::from_millis(20));
        check_shape(&rows, 6); // 2 patterns x {adhoc, cured, confluent}
        for r in &rows {
            // Commutative deltas never validate, so they never roll back.
            if r.strategy == Some(OccStrategy::Confluent) {
                assert_eq!(r.abort_rate, 0.0, "{r:?}");
            }
        }
    }

    /// The one renderer against strings captured from the four renderers
    /// it replaced (`render_json`, `render_wal_json`, `render_occ_json`,
    /// `render_confluence_json` at commit bbdd4a2): every row shape, key
    /// order, float formatting (`{:.1}` rounds 99.95 up, `{:.6}` truncates
    /// a third) and no comma after the last row.
    #[test]
    fn renderer_matches_the_four_it_replaced() {
        let row = |threads, pattern, throughput_ops, abort_rate| ScalingRow {
            threads,
            pattern,
            strategy: None,
            policy: None,
            fsync_us: None,
            throughput_ops,
            abort_rate,
        };
        let first = row(1, KeyPattern::Disjoint, 1234567.891, 0.0);
        let middle = row(2, KeyPattern::SameKey, 99.95, 0.1234567);
        let last = row(8, KeyPattern::SameKey, 0.0, 1.0 / 3.0);

        assert_eq!(
            render_json("storage_commit_scaling", &[first.clone(), last.clone()]),
            r#"{
  "bench": "storage_commit_scaling",
  "unit": "ops_per_sec",
  "rows": [
    {"threads": 1, "pattern": "disjoint", "throughput_ops": 1234567.9, "abort_rate": 0.000000},
    {"threads": 8, "pattern": "same_key", "throughput_ops": 0.0, "abort_rate": 0.333333}
  ]
}
"#
        );

        let wal = |mode, fsync_us, r: &ScalingRow| ScalingRow {
            policy: Some(mode),
            fsync_us: Some(fsync_us),
            ..r.clone()
        };
        assert_eq!(
            render_json(
                "storage_commit_wal_overhead",
                &[
                    wal(WalMode::Off, 0, &first),
                    wal(WalMode::OnCommit, 50, &middle),
                    wal(WalMode::GroupCommit, 0, &last),
                ]
            ),
            r#"{
  "bench": "storage_commit_wal_overhead",
  "unit": "ops_per_sec",
  "rows": [
    {"threads": 1, "pattern": "disjoint", "wal": false, "policy": "off", "fsync_us": 0, "throughput_ops": 1234567.9, "abort_rate": 0.000000},
    {"threads": 2, "pattern": "same_key", "wal": true, "policy": "on_commit", "fsync_us": 50, "throughput_ops": 100.0, "abort_rate": 0.123457},
    {"threads": 8, "pattern": "same_key", "wal": true, "policy": "group_commit", "fsync_us": 0, "throughput_ops": 0.0, "abort_rate": 0.333333}
  ]
}
"#
        );

        let with = |strategy, r: &ScalingRow| ScalingRow {
            strategy: Some(strategy),
            ..r.clone()
        };
        assert_eq!(
            render_json(
                "occ_vs_adhoc_scaling",
                &[
                    with(OccStrategy::AdhocLock, &first),
                    with(OccStrategy::CuredOcc, &last),
                ]
            ),
            r#"{
  "bench": "occ_vs_adhoc_scaling",
  "unit": "ops_per_sec",
  "rows": [
    {"threads": 1, "pattern": "disjoint", "strategy": "adhoc", "throughput_ops": 1234567.9, "abort_rate": 0.000000},
    {"threads": 8, "pattern": "same_key", "strategy": "cured", "throughput_ops": 0.0, "abort_rate": 0.333333}
  ]
}
"#
        );

        let middle_disjoint = ScalingRow {
            threads: 4,
            pattern: KeyPattern::Disjoint,
            ..middle
        };
        assert_eq!(
            render_json(
                "confluent_counter_scaling",
                &[
                    with(OccStrategy::AdhocLock, &first),
                    with(OccStrategy::CuredOcc, &middle_disjoint),
                    with(OccStrategy::Confluent, &last),
                ]
            ),
            r#"{
  "bench": "confluent_counter_scaling",
  "unit": "ops_per_sec",
  "rows": [
    {"threads": 1, "pattern": "disjoint", "strategy": "adhoc", "throughput_ops": 1234567.9, "abort_rate": 0.000000},
    {"threads": 4, "pattern": "disjoint", "strategy": "cured", "throughput_ops": 100.0, "abort_rate": 0.123457},
    {"threads": 8, "pattern": "same_key", "strategy": "confluent", "throughput_ops": 0.0, "abort_rate": 0.333333}
  ]
}
"#
        );
    }
}
