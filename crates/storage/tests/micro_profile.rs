//! Ad hoc microbenchmarks, ignored by default: `micro` accounts the
//! commit path per operation, `indexed_scan` times one secondary-index
//! scan per matching row (one key with 430 matches among 3,440 rows) and
//! `indexed_fold` the same statement as a `scan_fold` that sums a column
//! over the lent rows. Run with `cargo test --release -p adhoc-storage
//! --test micro_profile -- --ignored --nocapture`.

use adhoc_storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::time::Instant;

fn db() -> Database {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    for id in 0..129i64 {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("t", &[("id", id.into()), ("val", 0.into())])
        })
        .unwrap();
    }
    db
}

fn time(label: &str, n: u64, mut f: impl FnMut(u64)) {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    let el = start.elapsed();
    println!(
        "{label:<34} {:>8.1} ns/op  ({:.0} ops/s)",
        el.as_nanos() as f64 / n as f64,
        n as f64 / el.as_secs_f64()
    );
}

#[test]
#[ignore = "manual profiling aid"]
fn micro() {
    let d = db();
    let n = 400_000u64;
    time("begin+commit (empty)", n, |_| {
        let t = d.begin_with(IsolationLevel::ReadCommitted);
        t.commit().unwrap();
    });
    time("begin+abort (empty)", n, |_| {
        let t = d.begin_with(IsolationLevel::ReadCommitted);
        t.abort();
    });
    time("begin+get+commit", n, |i| {
        let mut t = d.begin_with(IsolationLevel::ReadCommitted);
        let _ = t.get("t", (i % 128) as i64).unwrap();
        t.commit().unwrap();
    });
    time("begin+update+commit", n, |i| {
        let mut t = d.begin_with(IsolationLevel::ReadCommitted);
        t.update("t", (i % 128) as i64, &[("val", (i as i64).into())])
            .unwrap();
        t.commit().unwrap();
    });
    time("run_with_retries(update)", n, |i| {
        d.run_with_retries(IsolationLevel::ReadCommitted, 64, |t| {
            t.update("t", (i % 128) as i64, &[("val", (i as i64).into())])
        })
        .unwrap();
    });
}

/// Keys of the scanned index, and rows per key: one `cart_id = ?` scan
/// matches `SCAN_MATCHES` of `SCAN_KEYS * SCAN_MATCHES` rows, about the
/// size of the Broadleaf cart the `svc_mixed` benchmark workload scans at
/// its 90th percentile on seed 7.
const SCAN_KEYS: i64 = 8;
const SCAN_MATCHES: i64 = 430;

/// The `items` table both scan timings read: `SCAN_KEYS` carts of
/// `SCAN_MATCHES` rows each, `cart_id` indexed, `qty` 1 everywhere.
fn items() -> Database {
    let d = Database::in_memory(EngineProfile::MySqlLike);
    d.create_table(
        Schema::new(
            "items",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("cart_id", ColumnType::Int),
                Column::new("qty", ColumnType::Int),
            ],
            "id",
        )
        .unwrap()
        .with_index("cart_id")
        .unwrap(),
    )
    .unwrap();
    // Carts interleaved, as items arrive in the benchmark; each insert is
    // its own commit, so every row's chain holds one version.
    for _ in 0..SCAN_MATCHES {
        for cart in 0..SCAN_KEYS {
            d.run(IsolationLevel::ReadCommitted, |t| {
                t.insert("items", &[("cart_id", cart.into()), ("qty", 1.into())])
            })
            .unwrap();
        }
    }
    d
}

/// Run `statement` (which reads `SCAN_MATCHES` rows) 20,000 times and
/// print its cost per matching row.
fn time_per_row(label: &str, statement: impl Fn()) {
    let n = 20_000u64;
    let start = Instant::now();
    for _ in 0..n {
        statement();
    }
    let per_row = start.elapsed().as_nanos() as f64 / (n * SCAN_MATCHES as u64) as f64;
    println!(
        "{label}, {SCAN_MATCHES} of {} rows: {per_row:.1} ns/row",
        SCAN_KEYS * SCAN_MATCHES
    );
}

#[test]
#[ignore = "manual profiling aid"]
fn indexed_scan() {
    let d = items();
    let pred = Predicate::eq("cart_id", 3);
    time_per_row("scan(cart_id = k)", || {
        let rows = d
            .run(IsolationLevel::ReadCommitted, |t| t.scan("items", &pred))
            .unwrap();
        assert_eq!(rows.len() as i64, SCAN_MATCHES);
    });
}

#[test]
#[ignore = "manual profiling aid"]
fn indexed_fold() {
    let d = items();
    let pred = Predicate::eq("cart_id", 3);
    time_per_row("scan_fold(cart_id = k)", || {
        let qty = d
            .run(IsolationLevel::ReadCommitted, |t| {
                t.scan_fold("items", &pred, 0, |sum, _, row| sum + row.at(2).as_int())
            })
            .unwrap();
        assert_eq!(qty, SCAN_MATCHES);
    });
}
