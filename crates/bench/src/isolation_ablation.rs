//! Ablation: per-operation isolation hints (§6, Table 7b).
//!
//! The paper's developers "tailor isolation levels per operation" — the
//! flexibility argument of §3.1.1 — and §6 proposes surfacing that as a
//! coordination hint. This ablation measures it: a serializable
//! transaction that mixes a critical hot-row RMW with non-critical reads
//! of frequently-updated statistics rows. Reading the statistics at
//! Serializable drags them into commit certification and aborts the
//! transaction whenever the background writer touches them; reading them
//! through [`Coordinator::read_committed_read`] keeps them out.

use adhoc_orm::coord::Coordinator;
use adhoc_storage::{
    Column, ColumnType, Database, DbError, EngineProfile, IsolationLevel, Schema, Transaction,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One ablation configuration's outcome.
#[derive(Debug, Clone)]
pub struct IsolationAblationRow {
    /// Configuration label.
    pub label: &'static str,
    /// Committed worker transactions per second.
    pub throughput_rps: f64,
    /// Serialization failures the workers retried through.
    pub serialization_failures: u64,
}

const WORKERS: usize = 3;
const TXNS_PER_WORKER: usize = 400;
const STATS_ROWS: i64 = 4;

fn build_db() -> Database {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    for table in ["counters", "statistics"] {
        db.create_table(
            Schema::new(
                table,
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("value", ColumnType::Int),
                ],
                "id",
            )
            .expect("schema"),
        )
        .expect("create table");
    }
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert("counters", &[("id", 1.into()), ("value", 0.into())])?;
        for id in 1..=STATS_ROWS {
            t.insert("statistics", &[("id", id.into()), ("value", 0.into())])?;
        }
        Ok(())
    })
    .expect("seed");
    db
}

/// Non-critical reads: the order dashboard numbers.
fn read_dashboard(t: &mut Transaction, coord: &Coordinator, hinted: bool) -> Result<(), DbError> {
    for id in 1..=STATS_ROWS {
        if hinted {
            // Infallible here (engine supports the hint); `expect` keeps
            // the error type the engine's own.
            coord
                .read_committed_read(t, "statistics", id)
                .expect("per-op isolation hint");
        } else {
            t.get("statistics", id)?;
        }
    }
    Ok(())
}

/// Critical RMW: the hot counter.
fn bump_counter(t: &mut Transaction, schema: &Schema) -> Result<(), DbError> {
    let row = t.get("counters", 1)?.ok_or(DbError::NoSuchRow {
        table: "counters".into(),
        id: 1,
    })?;
    let value = row.get_int(schema, "value")?;
    t.update("counters", 1, &[("value", (value + 1).into())])
}

fn run_config(hinted: bool) -> IsolationAblationRow {
    let db = Arc::new(build_db());
    let coord = Arc::new(Coordinator::new((*db).clone()));
    let counters_schema = db.schema("counters").expect("schema");
    let stop = Arc::new(AtomicBool::new(false));

    let started = Instant::now();
    std::thread::scope(|s| {
        // Background writer: keeps the statistics rows hot.
        {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let id = (i % STATS_ROWS) + 1;
                    db.run(IsolationLevel::ReadCommitted, |t| {
                        t.update("statistics", id, &[("value", i.into())])
                    })
                    .expect("stats update");
                    i += 1;
                    std::thread::yield_now();
                }
            });
        }
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let db = Arc::clone(&db);
                let coord = Arc::clone(&coord);
                let schema = counters_schema.clone();
                s.spawn(move || {
                    for i in 0..TXNS_PER_WORKER {
                        db.run_with_retries(IsolationLevel::Serializable, 100_000, |t| {
                            read_dashboard(t, &coord, hinted)?;
                            std::thread::yield_now(); // request "think time"
                            bump_counter(t, &schema)
                        })
                        .expect("worker txn");
                        let _ = i;
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker join");
        }
        // All worker transactions are done; release the background writer.
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    // Every worker transaction committed exactly once: the serialization
    // failures below are retries, not losses.
    let counter = db
        .latest_committed("counters", 1)
        .expect("counters table")
        .expect("counter row")
        .get_int(&counters_schema, "value")
        .expect("value column");
    assert_eq!(counter, (WORKERS * TXNS_PER_WORKER) as i64);

    IsolationAblationRow {
        label: if hinted {
            "per-op RC hint for stats reads"
        } else {
            "all reads at Serializable"
        },
        throughput_rps: (WORKERS * TXNS_PER_WORKER) as f64 / elapsed.as_secs_f64(),
        serialization_failures: db.stats().serialization_failures,
    }
}

/// Run both configurations and return their rows (unhinted first).
pub fn run_isolation_ablation() -> Vec<IsolationAblationRow> {
    vec![run_config(false), run_config(true)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker transaction with the interleaving forced instead of
    /// raced: the dashboard rows are read, *then* a writer commits to one
    /// of them, *then* the critical RMW commits.
    fn commit_around_a_dashboard_write(hinted: bool) -> Result<(), DbError> {
        let db = build_db();
        let coord = Coordinator::new(db.clone());
        let mut t = db.begin_with(IsolationLevel::Serializable);
        read_dashboard(&mut t, &coord, hinted)?;
        db.run(IsolationLevel::ReadCommitted, |w| {
            w.update("statistics", 1, &[("value", 7.into())])
        })?;
        let schema = db.schema("counters")?;
        bump_counter(&mut t, &schema)?;
        t.commit()
    }

    /// The hint's promise, on every schedule: a dashboard write landing
    /// between the non-critical reads and the commit aborts the
    /// transaction that read them at Serializable and leaves the hinted
    /// one alone. How many such writes land in a threaded run — the
    /// abort *counts* of `paper-eval ablation-isolation` — is up to the
    /// OS scheduler, so the ablation itself is checked for shape only:
    /// both rows ran and every worker transaction committed exactly once
    /// (asserted inside `run_config`).
    #[test]
    fn per_op_hint_slashes_serialization_failures() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        assert!(matches!(
            commit_around_a_dashboard_write(false),
            Err(DbError::SerializationFailure { .. })
        ));
        commit_around_a_dashboard_write(true).expect("hinted reads stay out of certification");

        let rows = run_isolation_ablation();
        for row in &rows {
            assert!(row.throughput_rps.is_finite() && row.throughput_rps > 0.0);
        }
        println!("serialization aborts, plain vs hinted: {rows:?}");
    }
}
