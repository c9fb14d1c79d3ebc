//! Per-layer probes: each layer's public functions timed from outside,
//! one layer at a time, so a change in an end-to-end metric can be traced
//! to the layer that moved. Ungated. Every `*_ns` is the mean over the
//! stated number of calls after a tenth as many warm-up calls; the layer
//! names are the crate names.

use crate::rep::stack_config;
use crate::system::Apps;
use crate::trace::SpanLog;
use adhoc_apps::Mode;
use adhoc_core::locks::{AdHocLock, KvSetNxLock, MemLock};
use adhoc_kv::{Client, Store};
use adhoc_orm::occ::run_occ;
use adhoc_orm::{EntityDef, Orm, Registry};
use adhoc_service::{
    Endpoint, FixedWindowLimiter, RateLimiter, Request, Service, SessionPool, TokenBucketLimiter,
};
use adhoc_sim::{LatencyModel, RealClock, RetryPolicy, SharedClock, Transport};
use adhoc_storage::{
    Column, ColumnType, Database, DbConfig, EngineProfile, IsolationLevel, Predicate, Schema,
};
use adhoc_traffic::{MixedWorkload, CLIENT_POPULATION};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One per-layer measurement.
pub struct Probe {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Calls (or rows, or requests) the value is a mean over.
    pub samples: u64,
}

/// Calls per micro-probe.
const CALLS: u64 = 100_000;
/// Calls per application-handler probe: handlers cost 1–100 µs and there
/// are 48 of them.
const APP_CALLS: u64 = 2_000;
/// Rows per probe table and per application in the handler probes.
const ROWS: i64 = 128;
const SCAN_ROWS: i64 = 10_000;

pub struct Probes {
    pub out: Vec<Probe>,
    /// One span per probe batch (name = metric, request = calls).
    pub spans: SpanLog,
    epoch: Instant,
}

impl Probes {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.out.push(Probe {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.out.iter().find(|p| p.name == name);
        found.expect("probe ran earlier").value
    }

    /// Mean ns of `f(i)` over `calls` calls.
    fn time(&mut self, name: &'static str, calls: u64, mut f: impl FnMut(u64)) {
        for i in 0..calls / 10 {
            f(i);
        }
        let start = self.epoch.elapsed();
        for i in 0..calls {
            f(i);
        }
        let end = self.epoch.elapsed();
        self.spans.record(
            0,
            name,
            calls,
            start.as_nanos() as u64,
            end.as_nanos() as u64,
        );
        self.push(
            name,
            (end - start).as_nanos() as f64 / calls as f64,
            "ns",
            calls,
        );
    }
}

fn probe_db(wal: bool, rows: i64) -> Database {
    let config = DbConfig::in_memory(EngineProfile::PostgresLike);
    let db = Database::new(if wal { config.with_wal() } else { config });
    let columns = vec![
        Column::new("id", ColumnType::Int),
        Column::new("val", ColumnType::Int),
    ];
    db.create_table(Schema::new("rows", columns, "id").expect("schema"))
        .expect("create");
    for id in 0..rows {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("rows", &[("id", id.into()), ("val", id.into())])
        })
        .expect("seed");
    }
    db
}

fn update_one(db: &Database, i: u64) {
    db.run(IsolationLevel::ReadCommitted, |t| {
        t.update("rows", i as i64 % ROWS, &[("val", (i as i64).into())])
    })
    .expect("update");
}

/// Run every workload-independent probe.
pub fn run(seed: u64) -> Probes {
    let mut p = Probes {
        out: Vec::new(),
        spans: SpanLog::default(),
        epoch: Instant::now(),
    };
    let clock: SharedClock = RealClock::shared();

    // sim: the timer floor under every sub-microsecond span.
    p.time("sim.clock_now_ns", 10 * CALLS, |_| {
        black_box(clock.now());
    });

    // traffic
    let mut mix = MixedWorkload::new(seed, CLIENT_POPULATION, ROWS as u64);
    p.time("traffic.next_request_ns", CALLS, |_| {
        black_box(mix.next_request(Duration::ZERO));
    });

    // kv, through the client the applications use (zero wire latency).
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
    let keys: Vec<String> = (0..ROWS).map(|i| format!("k:{i}")).collect();
    let key = |i: u64| keys[i as usize % keys.len()].as_str();
    p.time("kv.set_ns", CALLS, |i| kv.set(key(i), "v").expect("set"));
    p.time("kv.get_ns", CALLS, |i| {
        black_box(kv.get(key(i)).expect("get"));
    });
    for k in &keys {
        kv.sadd(&format!("s:{k}"), "1").expect("sadd");
    }
    let sets: Vec<String> = keys.iter().map(|k| format!("s:{k}")).collect();
    p.time("kv.smembers_ns", CALLS, |i| {
        black_box(
            kv.smembers(&sets[i as usize % sets.len()])
                .expect("smembers"),
        );
    });
    p.time("kv.exec_cas_ns", CALLS, |i| {
        let mut s = kv.session();
        s.watch(key(i));
        black_box(s.get(key(i)).expect("get"));
        s.multi();
        s.set(key(i), "w");
        assert!(s.exec().expect("exec"));
    });

    // core: uncontended lock + unlock, key formatted per acquisition as
    // the applications do.
    let mem = MemLock::new();
    p.time("core.memlock_pair_ns", CALLS, |i| {
        let guard = mem.lock(&format!("row:{}", i % ROWS as u64)).expect("lock");
        guard.unlock().expect("unlock");
    });
    let kvlock = KvSetNxLock::new(kv.clone());
    p.time("core.kvlock_pair_ns", CALLS, |i| {
        let guard = kvlock
            .lock(&format!("row:{}", i % ROWS as u64))
            .expect("lock");
        guard.unlock().expect("unlock");
    });

    // storage
    let db = probe_db(false, ROWS);
    p.time("storage.read_txn_ns", CALLS, |i| {
        let row = db.run(IsolationLevel::ReadCommitted, |t| {
            t.get("rows", i as i64 % ROWS)
        });
        black_box(row.expect("read"));
    });
    p.time("storage.update_commit_ns", CALLS, |i| update_one(&db, i));
    p.time("storage.delta_commit_ns", CALLS, |i| {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("rows", i as i64 % ROWS, "val", 1)
        })
        .expect("delta");
    });
    let wal_db = probe_db(true, ROWS);
    let wal = wal_db.wal().expect("wal on").clone();
    p.time("storage.update_commit_wal_ns", CALLS, |i| {
        update_one(&wal_db, i)
    });
    let cost = p.get("storage.update_commit_wal_ns") - p.get("storage.update_commit_ns");
    p.push("storage.wal.cost_ns", cost, "ns", CALLS);
    // Exact: the same CALLS updates again, counted not timed.
    let before = wal.stats();
    for i in 0..CALLS {
        update_one(&wal_db, i);
    }
    let after = wal.stats();
    let per_commit = |delta: u64| delta as f64 / CALLS as f64;
    p.push(
        "storage.wal.bytes_per_commit",
        per_commit((after.len - before.len) as u64),
        "B",
        CALLS,
    );
    p.push(
        "storage.wal.syncs_per_commit",
        per_commit(after.syncs - before.syncs),
        "count",
        CALLS,
    );
    let scan_db = probe_db(false, SCAN_ROWS);
    let scans = CALLS / SCAN_ROWS as u64 * 10;
    p.time("storage.scan_ns_per_row", scans, |i| {
        let hits = scan_db.run(IsolationLevel::ReadCommitted, |t| {
            t.scan("rows", &Predicate::eq("val", (i % 100) as i64))
        });
        assert_eq!(hits.expect("scan").len(), 1);
    });
    let scan = p.out.last_mut().expect("just pushed");
    scan.value /= SCAN_ROWS as f64;
    scan.samples *= SCAN_ROWS as u64;

    // orm
    let orm = Orm::new(db.clone(), Registry::new().register(EntityDef::new("rows")));
    p.time("orm.find_ns", CALLS, |i| {
        black_box(orm.find("rows", i as i64 % ROWS).expect("find"));
    });
    p.time("orm.save_ns", CALLS, |i| {
        orm.transaction(|t| {
            let mut obj = t.find_required("rows", i as i64 % ROWS)?;
            obj.set("val", i as i64)?;
            t.save(&mut obj)
        })
        .expect("save");
    });
    let own = p.get("orm.save_ns") - p.get("storage.update_commit_ns");
    p.push("orm.save_self_ns", own, "ns", CALLS);
    let policy =
        RetryPolicy::exponential(1000, Duration::from_micros(5), Duration::from_micros(200));
    p.time("orm.occ_ns", CALLS, |i| {
        let id = i as i64 % ROWS;
        run_occ(&orm, &policy, None, |occ| {
            let row = occ.read_fields(&orm, "rows", id, &["val"])?;
            let val = row.expect("seeded").get_int("val")?;
            occ.stage_update("rows", id, &[("val", (val + 1).into())]);
            Ok(())
        })
        .expect("occ");
    });

    // service: the front door alone, on the cheapest request.
    let svc = Service::new(clock.clone(), stack_config(), ROWS as u64);
    let timeline = |i: u64| Request {
        id: i,
        client: i % 1000,
        key: i,
        endpoint: Endpoint::MastodonTimeline,
        arrived: Duration::ZERO,
    };
    // Offers and ticks in batches of 128 (half the queue cap), each side
    // timed on its own.
    let batch = 128;
    let (mut offer_ns, mut tick_ns) = (0u128, 0u128);
    for b in 0..CALLS / batch {
        let t0 = Instant::now();
        for i in 0..batch {
            svc.offer(timeline(b * batch + i)).expect("offer");
        }
        let t1 = Instant::now();
        let served = svc.run_tick(Duration::ZERO, batch as u32);
        let t2 = Instant::now();
        assert_eq!(served.len(), batch as usize);
        offer_ns += (t1 - t0).as_nanos();
        tick_ns += (t2 - t1).as_nanos();
    }
    let calls = CALLS / batch * batch;
    p.push(
        "service.offer_ns",
        offer_ns as f64 / calls as f64,
        "ns",
        calls,
    );
    p.push(
        "service.run_tick_ns",
        tick_ns as f64 / calls as f64,
        "ns",
        calls,
    );
    let bucket = TokenBucketLimiter::new(clock.clone(), 10_000_000, 20_000_000);
    p.time("service.limiter.token_bucket_ns", CALLS, |i| {
        assert!(bucket.try_admit(i % 1000).expect("admit"));
    });
    let window = FixedWindowLimiter::new(kv.clone(), i64::MAX, Duration::from_secs(1));
    p.time("service.limiter.fixed_window_ns", CALLS, |i| {
        assert!(window.try_admit(i % 1000).expect("admit"));
    });
    let pool = SessionPool::new(Transport::service(clock, LatencyModel::zero()), 64);
    p.time("service.pool_acquire_ns", CALLS, |_| {
        black_box(pool.try_acquire().expect("free session"));
    });

    // apps: every endpoint in every mode, 128 seeded rows, direct calls.
    let modes = [
        (Mode::AdHoc, "adhoc"),
        (Mode::DatabaseTxn, "dbt"),
        (Mode::Cured, "cured"),
        (Mode::Confluent, "confluent"),
    ];
    for (mode, mode_label) in modes {
        let apps = Apps::build(mode, false, ROWS as u64);
        for endpoint in Endpoint::ALL {
            let start = p.epoch.elapsed();
            for i in 0..APP_CALLS {
                let req = Request {
                    endpoint,
                    client: i,
                    ..timeline(i)
                };
                apps.dispatch(&req).expect("handler");
            }
            let spent = p.epoch.elapsed() - start;
            p.push(
                &format!("apps.{}.{mode_label}_ns", endpoint.label()),
                spent.as_nanos() as f64 / APP_CALLS as f64,
                "ns",
                APP_CALLS,
            );
        }
    }
    p
}
