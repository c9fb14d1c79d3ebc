//! Ablations for three design choices DESIGN.md calls out and no figure
//! isolates, each a timed loop on [`scaling::measure`](crate::scaling)
//! that reports the mean cost of one operation *and* the exact engine
//! count that explains it:
//!
//! * [`gap_certification`] — the PBC scan-empty-then-insert at
//!   Serializable (range certification: false conflicts on the open tail
//!   interval) vs Read Committed (no ranges), counting serialization
//!   failures.
//! * [`kv_round_trips`] — `SETNX` vs `WATCH/MULTI` lock cycles across
//!   simulated RTTs, counting round trips per cycle: why Figure 2's KV
//!   bars split.
//! * [`rmw_locking`] — the §3.3.1 RMW with an early `FOR UPDATE` vs
//!   shared-then-upgrade at MySQL Serializable, counting deadlock victims.
//!
//! The means depend on the host; the counts' halves asserted in the tests
//! below (zero failures without ranges, the protocols' round-trip
//! constants, zero victims with the early lock) do not.

use crate::scaling::{measure, Measured};
use adhoc_core::locks::{AdHocLock, KvMultiLock, KvSetNxLock};
use adhoc_kv::{Client, Store};
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{
    Column, ColumnType, Database, DbConfig, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Mean wall-clock cost of one operation inside the measured window.
    pub mean: Duration,
    /// Operations completed over the whole run (warm-up included), the
    /// span `count` covers.
    pub ops: u64,
    /// The exact count the ablation is about, over the same span:
    /// serialization failures, KV round trips, or deadlock victims.
    pub count: u64,
}

impl AblationRow {
    fn new(label: String, threads: usize, window: Duration, run: Measured, count: u64) -> Self {
        Self {
            label,
            mean: window.mul_f64(threads as f64 / run.committed.max(1) as f64),
            ops: run.committed_total,
            count,
        }
    }

    /// `count / ops`: exact when every operation costs the same count
    /// (round trips per lock cycle), a rate otherwise.
    pub fn count_per_op(&self) -> f64 {
        self.count as f64 / self.ops.max(1) as f64
    }
}

/// Worker threads of the two contended ablations.
const WORKERS: usize = 2;

/// A database a LAN away, with the latencies Figure 3 uses.
fn lan_db(profile: EngineProfile) -> Database {
    Database::new(DbConfig::networked(
        profile,
        RealClock::shared(),
        crate::fig3::Fig3Config::default().latency,
    ))
}

fn payments_db() -> Database {
    let db = lan_db(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "payments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("order_id", ColumnType::Int),
            ],
            "id",
        )
        .expect("schema")
        .with_index("order_id")
        .expect("index"),
    )
    .expect("create");
    db
}

/// The PBC check-then-insert: pay for `order` unless a payment exists.
fn pay_once(db: &Database, iso: IsolationLevel, order: i64) {
    db.run_with_retries(iso, 1000, |t| {
        if t.scan("payments", &Predicate::eq("order_id", order))?
            .is_empty()
        {
            t.insert("payments", &[("order_id", order.into())])?;
        }
        Ok(())
    })
    .expect("payment");
}

/// Two workers pay for fresh (maximal) order ids over a non-unique index,
/// so every scan covers the open tail interval the other worker inserts
/// into: Serializable certifies the range and aborts on the false
/// conflict, Read Committed takes no ranges. `count` = serialization
/// failures.
pub fn gap_certification(window: Duration) -> Vec<AblationRow> {
    [
        ("serializable (ranges)", IsolationLevel::Serializable),
        ("read committed (no ranges)", IsolationLevel::ReadCommitted),
    ]
    .into_iter()
    .map(|(label, iso)| {
        let db = payments_db();
        let next = AtomicI64::new(1);
        let run = measure(WORKERS, window, |_| {
            let (db, next) = (&db, &next);
            move |_| {
                pay_once(db, iso, next.fetch_add(1, Ordering::Relaxed));
                true
            }
        });
        let failures = db.stats().serialization_failures;
        AblationRow::new(label.to_string(), WORKERS, window, run, failures)
    })
    .collect()
}

/// One uncontended lock + unlock cycle per operation for both Redis lock
/// protocols at each simulated RTT (µs). `count` = round trips paid, so
/// `count / ops` is the protocol's cycle cost in round trips.
pub fn kv_round_trips(window: Duration, rtts_us: &[u64]) -> Vec<AblationRow> {
    type MakeLock = fn(Client) -> Box<dyn AdHocLock>;
    const PROTOCOLS: [(&str, MakeLock); 2] = [
        ("SETNX", |c| Box::new(KvSetNxLock::new(c))),
        ("MULTI", |c| Box::new(KvMultiLock::new(c))),
    ];
    let mut out = Vec::new();
    for &rtt_us in rtts_us {
        for (name, make_lock) in PROTOCOLS {
            let latency = LatencyModel {
                kv_round_trip: Duration::from_micros(rtt_us),
                ..LatencyModel::zero()
            };
            let client = Client::new(Store::new(), RealClock::shared(), latency);
            let lock = make_lock(client.clone());
            let run = measure(1, window, |_| {
                let lock = &lock;
                move |_| {
                    lock.lock("k").expect("lock").unlock().expect("unlock");
                    true
                }
            });
            let label = format!("{name} @ {rtt_us} us");
            out.push(AblationRow::new(
                label,
                1,
                window,
                run,
                client.round_trips(),
            ));
        }
    }
    out
}

fn skus_db() -> Database {
    let db = lan_db(EngineProfile::MySqlLike);
    db.create_table(
        Schema::new(
            "skus",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("qty", ColumnType::Int),
            ],
            "id",
        )
        .expect("schema"),
    )
    .expect("create");
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.insert("skus", &[("id", 1.into()), ("qty", i64::MAX.into())])
            .map(|_| ())
    })
    .expect("seed");
    db
}

/// Two workers decrement one SKU at MySQL Serializable, reading it either
/// under an early exclusive lock or under the shared lock a plain read
/// takes there — which both then try to upgrade, the §3.3.1 deadlock
/// recipe. `count` = deadlock victims.
pub fn rmw_locking(window: Duration) -> Vec<AblationRow> {
    [
        ("early FOR UPDATE", true),
        ("shared, upgrade on write", false),
    ]
    .into_iter()
    .map(|(label, early_lock)| {
        let db = skus_db();
        let run = measure(WORKERS, window, |_| {
            let db = &db;
            move |_| {
                db.run_with_retries(IsolationLevel::Serializable, 1000, |t| {
                    let row = if early_lock {
                        t.get_for_update("skus", 1)?
                    } else {
                        t.get("skus", 1)?
                    }
                    .expect("sku");
                    let qty = row.values[1].as_int();
                    t.update("skus", 1, &[("qty", (qty - 1).into())])
                })
                .expect("rmw");
                true
            }
        });
        let victims = db.stats().lock_stats.deadlocks;
        AblationRow::new(label.to_string(), WORKERS, window, run, victims)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_storage::DbError;

    const SMOKE: Duration = Duration::from_millis(25);

    /// One payment with a rival's insert forced between its scan and its
    /// insert — the interleaving the threaded run leaves to the scheduler.
    fn pay_around_a_rival(iso: IsolationLevel) -> Result<(), DbError> {
        let db = payments_db();
        let mut t = db.begin_with(iso);
        assert!(t
            .scan("payments", &Predicate::eq("order_id", 1))?
            .is_empty());
        pay_once(&db, IsolationLevel::ReadCommitted, 2);
        t.insert("payments", &[("order_id", 1.into())])?;
        t.commit()
    }

    /// Order 2 lands in the open tail interval order 1's scan covered: a
    /// false conflict only range certification sees. How many such
    /// overlaps a threaded run has is up to the OS scheduler, so there
    /// only the Read Committed zero is asserted and the counts are
    /// printed.
    #[test]
    fn gap_certification_aborts_only_with_ranges() {
        assert!(matches!(
            pay_around_a_rival(IsolationLevel::Serializable),
            Err(DbError::SerializationFailure { .. })
        ));
        pay_around_a_rival(IsolationLevel::ReadCommitted).expect("no ranges, no conflict");

        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = gap_certification(SMOKE);
        assert!(rows.iter().all(|r| r.ops > 0), "{rows:?}");
        assert_eq!(rows[1].count, 0, "Read Committed takes no ranges: {rows:?}");
        println!("serialization failures, Serializable vs Read Committed: {rows:?}");
    }

    /// Round trips per lock + unlock cycle are the constants
    /// `core::locks::kv::tests` pins: SETNX 1 + 1, WATCH/MULTI 5 + 1.
    #[test]
    fn kv_cycles_cost_their_protocol_round_trips() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = kv_round_trips(SMOKE, &[10, 100]);
        let per_cycle: Vec<(u64, u64)> = rows.iter().map(|r| (r.count, r.ops)).collect();
        for pair in per_cycle.chunks(2) {
            let (setnx, multi) = (pair[0], pair[1]);
            assert!(setnx.1 > 0 && multi.1 > 0, "{rows:?}");
            assert_eq!(setnx.0, 2 * setnx.1, "{rows:?}");
            assert_eq!(multi.0, 6 * multi.1, "{rows:?}");
        }
    }

    #[test]
    fn early_for_update_never_deadlocks() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = rmw_locking(SMOKE);
        assert!(rows.iter().all(|r| r.ops > 0), "{rows:?}");
        assert_eq!(rows[0].count, 0, "{rows:?}");
    }
}
