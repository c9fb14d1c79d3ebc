//! The metastability oracle: a partition storm hits a closed-loop
//! workload, the storm clears, and the hardened stack must return to
//! baseline throughput within a bounded number of virtual-clock ticks —
//! while the naive ablation (no deadlines, no breaker, no admission
//! control, eager retries) stays depressed long after the fault is gone.
//!
//! The mechanism being reproduced is the classic metastable failure:
//! during the outage the naive system queues every request and amplifies
//! each with retries; after the outage the backlog is so deep that every
//! request it completes already missed its client's patience window, so
//! the work is wasted, the client has already resubmitted, and goodput
//! pins near zero on a perfectly healthy backend. The hardened stack
//! breaks every link of that loop: per-app front doors bound the queue,
//! deadlines drop stale work for free, the circuit breaker turns outage
//! traffic into instant local rejections, a retry budget bounds the
//! amplification, and read-only degraded mode keeps reads flowing off
//! the replica while writes shed.
//!
//! Everything runs single-threaded on a [`VirtualClock`] with a seeded
//! windowed [`FaultPlan`], so both worlds replay bit-for-bit.

use adhoc_transactions::apps::admission::{Admission, APPS};
use adhoc_transactions::kv::{Client, KvError, Store};
use adhoc_transactions::sim::{
    BreakerState, CircuitBreaker, Clock, Deadline, FaultKind, FaultPlan, FaultRule, LatencyModel,
    Permit, RetryBudget, VirtualClock, Workload,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5157_4d0d_2022_0612;
/// One scheduling tick of the closed loop.
const TICK: Duration = Duration::from_millis(10);
/// Total simulated ticks.
const TICKS: u64 = 200;
/// Requests arriving per tick (round-robin over the eight apps; every
/// fourth is a read).
const ARRIVALS: u64 = 4;
/// KV round trips the backend can serve per tick.
const CAPACITY: u64 = 16;
/// Client patience, in ticks: a response later than this is useless to
/// the caller (and the caller has already resubmitted).
const PATIENCE: u64 = 4;
/// The partition storm occupies ticks [STORM_START, STORM_END).
const STORM_START: u64 = 60;
const STORM_END: u64 = 90;
/// Naive ablation: in-place attempts per request before requeueing.
const NAIVE_ATTEMPTS: u32 = 4;
/// Per-app front-door concurrency bound (hardened world only).
const DOOR_CAPACITY: usize = 3;
/// Ticks after the storm by which the hardened world must be back to
/// >= 90% of baseline goodput.
const RECOVERY_TICKS: u64 = 10;

/// Virtual-clock instant of tick `n`.
fn at_tick(n: u64) -> Duration {
    TICK * u32::try_from(n).expect("tick fits u32")
}

struct Req {
    id: u64,
    app: usize,
    born: u64,
    read: bool,
    /// The impatient client already resubmitted a fresh copy.
    respawned: bool,
    deadline: Option<Deadline>,
    /// Front-door slot, held (never read) while queued and in flight;
    /// dropping it releases the slot.
    _permit: Option<Permit>,
}

#[derive(Debug, Default)]
struct Metrics {
    /// Requests completed within patience, per tick.
    goodput: Vec<u64>,
    /// Reads served from the replica while degraded, during the storm.
    storm_replica_reads: u64,
    /// Completions that arrived after the client gave up.
    wasted: u64,
    /// Queue depth when the run ended.
    end_queue: usize,
    /// Front-door sheds plus deadline drops (hardened only).
    shed: u64,
    /// Degraded-mode write refusals (hardened only).
    refused_writes: u64,
    times_opened: u64,
    /// Writes acknowledged to clients (all re-verified durable).
    acked: u64,
}

fn avg(window: &[u64]) -> f64 {
    window.iter().sum::<u64>() as f64 / window.len() as f64
}

/// Drive one world for [`TICKS`] ticks and return its metrics. The two
/// worlds share every constant and the fault seed; `hardened` toggles
/// the entire resilience layer at once (the same ablation the bench
/// sweep reports in `BENCH_resilience.json`).
fn run_world(hardened: bool) -> Metrics {
    let clock = Arc::new(VirtualClock::new());
    let storm = FaultRule::storm(
        &[FaultKind::PartitionInbound],
        1.0,
        at_tick(STORM_START),
        at_tick(STORM_END),
    );
    let plan = FaultPlan::new(SEED, storm);
    let breaker = Arc::new(CircuitBreaker::new(4, 2 * TICK));
    let budget = Arc::new(RetryBudget::new(4));
    let mut base = Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_faults(plan);
    if hardened {
        base = base.with_breaker(Arc::clone(&breaker));
    }
    let admission = Admission::new(DOOR_CAPACITY);

    let mut queue: VecDeque<Req> = VecDeque::new();
    let mut next_id: u64 = 0;
    let mut metrics = Metrics::default();
    let mut acked_keys: Vec<String> = Vec::new();
    // Fencing-token floors per app lease: every grant must dominate the
    // previous one ("no double-granted fenced lease").
    let mut last_token = vec![0u64; APPS.len()];

    for tick in 0..TICKS {
        // The clock is the only source of time: storm windows, TTLs,
        // deadlines, and breaker cooldowns all read it.
        assert_eq!(clock.now(), at_tick(tick));
        let storming = (STORM_START..STORM_END).contains(&tick);

        // Degraded mode follows the breaker: while Open, writes shed at
        // the door and reads come off the replica. Half-open un-degrades
        // so the probe write can go through.
        let degraded = hardened && matches!(breaker.state(clock.now()), BreakerState::Open);
        admission.degrade_writes(degraded);

        // Arrivals.
        for _ in 0..ARRIVALS {
            let id = next_id;
            next_id += 1;
            let app = (id % APPS.len() as u64) as usize;
            let read = id % 4 == 3;
            let workload = if read {
                Workload::Read
            } else {
                Workload::Write
            };
            let permit = if hardened {
                match admission.admit(APPS[app], workload) {
                    Ok(p) => Some(p),
                    Err(_) => continue, // shed or refused: the client hears now
                }
            } else {
                None
            };
            queue.push_back(Req {
                id,
                app,
                born: tick,
                read,
                respawned: false,
                deadline: hardened.then(|| Deadline::at(at_tick(tick + PATIENCE + 1))),
                _permit: permit,
            });
        }

        // Service loop: strict FIFO with head-of-line blocking — the
        // tick ends when the round-trip budget is spent, and everyone
        // behind the head waits. This is what makes backlog deadly: a
        // deep queue means every served request is already stale.
        let mut used: u64 = 0;
        let mut goodput: u64 = 0;
        for _ in 0..queue.len() {
            if used >= CAPACITY {
                break; // backend saturated: the rest of the line waits
            }
            let Some(mut req) = queue.pop_front() else {
                break;
            };
            let stale = tick - req.born > PATIENCE;
            if stale && !req.respawned {
                // The impatient client resubmits; in the naive world the
                // stale original stays queued and is still served.
                req.respawned = true;
                let permit = if hardened {
                    let workload = if req.read {
                        Workload::Read
                    } else {
                        Workload::Write
                    };
                    admission.admit(APPS[req.app], workload).ok()
                } else {
                    None
                };
                if !hardened || permit.is_some() {
                    let id = next_id;
                    next_id += 1;
                    queue.push_back(Req {
                        id,
                        app: req.app,
                        born: tick,
                        read: req.read,
                        respawned: false,
                        deadline: hardened.then(|| Deadline::at(at_tick(tick + PATIENCE + 1))),
                        _permit: permit,
                    });
                }
            }
            if hardened && stale {
                // Deadline drop: free — no round trip is paid for work
                // nobody is waiting for. The permit releases with `req`.
                metrics.shed += 1;
                continue;
            }
            let client = match req.deadline {
                Some(d) => base.clone().with_deadline(d),
                None => base.clone(),
            };

            if req.read && hardened && degraded {
                // Read-only degraded mode: serve the read stale from the
                // replica instead of the partitioned primary.
                let _ = base
                    .store()
                    .get(&format!("out:{}:{}", APPS[req.app], req.id), clock.now());
                if storming {
                    metrics.storm_replica_reads += 1;
                }
                goodput += 1;
                continue;
            }

            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                let before = base.round_trips();
                let result = if req.read {
                    client
                        .get(&format!("out:{}:{}", APPS[req.app], req.id))
                        .map(|_| None)
                } else {
                    serve_write(&client, &req, &mut last_token)
                };
                used += base.round_trips() - before;
                match result {
                    Ok(written) => break Ok(written),
                    Err(e) => {
                        let fail_fast =
                            matches!(e, KvError::DeadlineExceeded | KvError::CircuitOpen);
                        let retry = if hardened {
                            !fail_fast && budget.try_withdraw()
                        } else {
                            attempts < NAIVE_ATTEMPTS && used < CAPACITY
                        };
                        if !retry {
                            break Err(e);
                        }
                    }
                }
            };
            match outcome {
                Ok(written) => {
                    if let Some(key) = written {
                        metrics.acked += 1;
                        acked_keys.push(key);
                    }
                    if stale {
                        metrics.wasted += 1; // the client is long gone
                    } else {
                        goodput += 1;
                    }
                }
                Err(_) => {
                    if !hardened {
                        // The naive client keeps waiting and retries from
                        // the head of the line: the convoy.
                        queue.push_front(req);
                    }
                    // Hardened: the error went back to the caller and the
                    // front-door slot frees with `req`.
                }
            }
        }
        metrics.goodput.push(goodput);
        clock.advance(TICK);
    }

    // No acked-write loss: every write acknowledged to a client is
    // durable in the store, storm or no storm.
    for key in &acked_keys {
        assert_eq!(
            base.store().get(key, clock.now()).unwrap().as_deref(),
            Some("done"),
            "acked write {key} lost"
        );
    }

    metrics.end_queue = queue.len();
    metrics.times_opened = breaker.times_opened();
    if hardened {
        metrics.shed += admission.total_shed();
        metrics.refused_writes = APPS
            .iter()
            .map(|app| admission.door(app).stats().refused_writes)
            .sum();
    }
    metrics
}

/// One write request: acquire the app's fenced lease, write the payload
/// under the granted token, release. Returns the payload key on success.
fn serve_write(
    client: &Client,
    req: &Req,
    last_token: &mut [u64],
) -> Result<Option<String>, KvError> {
    let lease = format!("lease:{}", APPS[req.app]);
    let owner = format!("req-{}", req.id);
    let granted = client.acquire_lease(&lease, &owner, 2 * TICK)?;
    let Some(token) = granted else {
        // Lease held (a leaked grant waiting out its TTL): retryable.
        return Err(KvError::ConnectionLost);
    };
    assert!(
        token > last_token[req.app],
        "fencing token regressed on {lease}: {token} after {}",
        last_token[req.app]
    );
    last_token[req.app] = token;
    let key = format!("out:{}:{}", APPS[req.app], req.id);
    let landed = client.fenced_set(&key, "done", token)?;
    assert!(landed, "the freshest token must clear the fence floor");
    let _ = client.del(&lease);
    Ok(Some(key))
}

#[test]
fn hardened_world_recovers_to_baseline_within_bound() {
    let m = run_world(true);
    let baseline = avg(&m.goodput[20..STORM_START as usize]);
    assert!(
        baseline >= (ARRIVALS - 1) as f64,
        "healthy baseline must near the arrival rate, got {baseline}"
    );

    // The storm bites: goodput collapses while it lasts...
    let storm_avg = avg(&m.goodput[STORM_START as usize..STORM_END as usize]);
    assert!(
        storm_avg < 0.5 * baseline,
        "the storm must depress goodput ({storm_avg} vs {baseline})"
    );
    assert!(m.times_opened >= 1, "the breaker must have tripped");
    // ...but degraded mode keeps reads flowing off the replica,
    assert!(
        m.storm_replica_reads >= 5,
        "read-only degraded mode must serve reads during the storm, got {}",
        m.storm_replica_reads
    );
    // and writes are refused at the door instead of queueing.
    assert!(m.refused_writes > 0, "degraded mode must refuse writes");

    // Recovery: back to >= 90% of baseline within RECOVERY_TICKS of the
    // storm clearing, and it stays there.
    let window_start = (STORM_END + RECOVERY_TICKS) as usize;
    let recovered = avg(&m.goodput[window_start..window_start + 20]);
    assert!(
        recovered >= 0.9 * baseline,
        "hardened world failed to recover: {recovered} vs baseline {baseline}"
    );
    let tail = avg(&m.goodput[(TICKS - 20) as usize..]);
    assert!(
        tail >= 0.9 * baseline,
        "recovery must hold through the end of the run ({tail})"
    );
    // The bounded front door means the backlog died with the storm.
    assert!(
        m.end_queue <= APPS.len() * DOOR_CAPACITY,
        "queue must stay door-bounded, got {}",
        m.end_queue
    );
}

#[test]
fn naive_world_stays_metastable_after_the_storm_clears() {
    let m = run_world(false);
    let baseline = avg(&m.goodput[20..STORM_START as usize]);
    assert!(baseline >= (ARRIVALS - 1) as f64);

    // Long after the partition healed, goodput is still pinned low: the
    // backlog plus retry amplification outlived the fault.
    let tail = avg(&m.goodput[(TICKS - 30) as usize..]);
    assert!(
        tail <= 0.3 * baseline,
        "expected a metastable tail, got {tail} vs baseline {baseline}"
    );
    assert!(
        m.end_queue as u64 > 2 * ARRIVALS * PATIENCE,
        "the backlog must persist, got {}",
        m.end_queue
    );
    assert!(
        m.wasted > 0,
        "completions after client abandonment are the signature of metastability"
    );
    assert_eq!(m.times_opened, 0, "the ablation runs without a breaker");
}

/// PR-8 leftover closed: the partition storm meets the cured layer. A
/// closed-loop worker drives three bump variants of one workload every
/// tick — a `run_occ` optimistic RMW (cured), a commutative `add_delta`
/// (confluent), and a KV-lock-guarded ad hoc RMW — while the same seeded
/// storm from the main oracle partitions the KV. The database is local,
/// so the cured and confluent paths must ride the storm out with *zero*
/// failed ticks; only the ad hoc path (whose coordination lives on the
/// partitioned KV) degrades, and it must recover once the storm clears.
/// Every path must conserve its counter exactly.
#[test]
fn run_occ_rides_out_a_kv_partition_storm() {
    use adhoc_transactions::core::locks::{AdHocLock, KvSetNxLock};
    use adhoc_transactions::orm::occ::run_occ;
    use adhoc_transactions::orm::{EntityDef, Orm, OrmError, Registry};
    use adhoc_transactions::sim::RetryPolicy;
    use adhoc_transactions::storage::{
        Column, ColumnType, Database, EngineProfile, IsolationLevel, Schema,
    };
    let clock = Arc::new(VirtualClock::new());
    let storm = FaultRule::storm(
        &[FaultKind::PartitionInbound],
        1.0,
        at_tick(STORM_START),
        at_tick(STORM_END),
    );
    let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero())
        .with_faults(FaultPlan::new(SEED, storm));
    let lock = KvSetNxLock::new(kv);

    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "counters",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("hits", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        for id in 1..=3i64 {
            t.insert("counters", &[("id", id.into()), ("hits", 0.into())])?;
        }
        Ok(())
    })
    .unwrap();
    let orm = Orm::new(
        db.clone(),
        Registry::new().register(EntityDef::new("counters")),
    );
    // Single-threaded loop: a conflict would be a bug, so no retries.
    let policy = RetryPolicy::exponential(0, TICK, TICK);

    let (mut occ_ok, mut delta_ok, mut adhoc_ok) = (0i64, 0i64, 0i64);
    let (mut adhoc_storm_errors, mut adhoc_post_storm_errors) = (0u64, 0u64);
    for tick in 0..TICKS {
        let storming = (STORM_START..STORM_END).contains(&tick);

        // Cured: the optimistic RMW never leaves the local database.
        let committed = run_occ(&orm, &policy, None, |occ| {
            let row = occ.read_fields(&orm, "counters", 1, &["hits"])?.ok_or(
                OrmError::RecordNotFound {
                    entity: "counters".into(),
                    id: 1,
                },
            )?;
            let hits = row.get_int("hits")?;
            occ.stage_update("counters", 1, &[("hits", (hits + 1).into())]);
            Ok(true)
        })
        .expect("run_occ must not observe the KV partition");
        assert!(committed);
        occ_ok += 1;

        // Confluent: the delta does not even read.
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.add_delta("counters", 2, "hits", 1)
        })
        .expect("add_delta must not observe the KV partition");
        delta_ok += 1;

        // Ad hoc: coordination lives on the partitioned KV.
        match lock.lock("counters:3") {
            Ok(guard) => {
                let hits = db.latest_committed("counters", 3).unwrap().unwrap().values[1].as_int();
                db.run(IsolationLevel::ReadCommitted, |t| {
                    t.update("counters", 3, &[("hits", (hits + 1).into())])
                })
                .unwrap();
                guard.unlock().unwrap();
                adhoc_ok += 1;
            }
            Err(_) if storming => adhoc_storm_errors += 1,
            Err(_) => adhoc_post_storm_errors += 1,
        }
        clock.advance(TICK);
    }

    // The local paths never noticed; the KV-coordinated path collapsed
    // for the storm's full duration and nothing else.
    assert_eq!(occ_ok, TICKS as i64);
    assert_eq!(delta_ok, TICKS as i64);
    assert_eq!(adhoc_storm_errors, STORM_END - STORM_START);
    assert_eq!(
        adhoc_post_storm_errors, 0,
        "the ad hoc path must recover the tick the partition heals"
    );
    assert_eq!(adhoc_ok, (TICKS - (STORM_END - STORM_START)) as i64);

    // Conservation per path: every acked bump is in the counter, and
    // nothing else is.
    for (id, expected) in [(1, occ_ok), (2, delta_ok), (3, adhoc_ok)] {
        let hits = db.latest_committed("counters", id).unwrap().unwrap().values[1].as_int();
        assert_eq!(hits, expected, "counter {id} lost or invented a bump");
    }
}

#[test]
fn oracle_replays_bit_for_bit() {
    let a = run_world(true);
    let b = run_world(true);
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.shed, b.shed);
    let c = run_world(false);
    let d = run_world(false);
    assert_eq!(c.goodput, d.goodput);
    assert_eq!(c.end_queue, d.end_queue);
}

// ---------------------------------------------------------------------------
// Breaker half-open re-entry and degraded-mode exit, end to end through
// the KV client on the virtual clock.
// ---------------------------------------------------------------------------

#[test]
fn breaker_half_open_probe_reopens_on_failure_and_closes_on_success() {
    let clock = Arc::new(VirtualClock::new());
    let cooldown = Duration::from_secs(1);
    // Every command dropped for the first 1.5 virtual seconds.
    let plan = FaultPlan::new(
        SEED,
        FaultRule::storm(
            &[FaultKind::ConnError],
            1.0,
            Duration::ZERO,
            Duration::from_millis(1500),
        ),
    );
    let breaker = Arc::new(CircuitBreaker::new(3, cooldown));
    let client = Client::new(Store::new(), clock.clone(), LatencyModel::zero())
        .with_faults(plan)
        .with_breaker(Arc::clone(&breaker));

    // Trip: three straight failures open the breaker.
    for _ in 0..3 {
        assert!(matches!(client.set("k", "v"), Err(KvError::ConnectionLost)));
    }
    assert_eq!(breaker.state(clock.now()), BreakerState::Open);
    assert_eq!(breaker.times_opened(), 1);

    // Open: rejected before the wire — no round trip is paid.
    let before = client.round_trips();
    assert!(matches!(client.get("k"), Err(KvError::CircuitOpen)));
    assert_eq!(client.round_trips(), before, "open breaker must fail fast");

    // Cooldown elapses: exactly one probe goes through, still inside the
    // storm, so it pays the wire, fails, and re-opens the breaker.
    clock.advance(cooldown);
    assert_eq!(breaker.state(clock.now()), BreakerState::HalfOpen);
    let before = client.round_trips();
    assert!(matches!(client.get("k"), Err(KvError::ConnectionLost)));
    assert_eq!(client.round_trips(), before + 1, "probe reaches the wire");
    assert_eq!(
        breaker.state(clock.now()),
        BreakerState::Open,
        "failed probe re-opens"
    );
    assert_eq!(breaker.times_opened(), 2);
    // Re-entry: back to failing fast without wire traffic.
    let before = client.round_trips();
    assert!(matches!(client.get("k"), Err(KvError::CircuitOpen)));
    assert_eq!(client.round_trips(), before);

    // Second cooldown lands past the storm: the probe succeeds and closes
    // the breaker; traffic resumes.
    clock.advance(cooldown);
    assert_eq!(breaker.state(clock.now()), BreakerState::HalfOpen);
    client
        .set("k", "v")
        .expect("probe succeeds after the storm");
    assert_eq!(breaker.state(clock.now()), BreakerState::Closed);
    client.get("k").expect("closed breaker admits everything");
}

#[test]
fn half_open_admits_exactly_one_probe_concurrently() {
    let clock = Arc::new(VirtualClock::new());
    let breaker = CircuitBreaker::new(1, Duration::from_secs(1));
    assert!(breaker.allow(&*clock));
    breaker.record_failure(clock.now());
    clock.advance(Duration::from_secs(1));
    // Cooldown elapsed: the first caller becomes the probe, a concurrent
    // second caller is rejected while the probe is in flight.
    assert!(breaker.allow(&*clock), "one probe admitted");
    assert!(!breaker.allow(&*clock), "no second concurrent probe");
    breaker.record_success();
    assert_eq!(breaker.state(clock.now()), BreakerState::Closed);
    assert!(breaker.allow(&*clock));
}

#[test]
fn degraded_mode_exits_when_the_breaker_closes() {
    let clock = Arc::new(VirtualClock::new());
    let cooldown = Duration::from_secs(1);
    let plan = FaultPlan::new(
        SEED,
        FaultRule::storm(
            &[FaultKind::ConnError],
            1.0,
            Duration::ZERO,
            Duration::from_millis(500),
        ),
    );
    let breaker = Arc::new(CircuitBreaker::new(2, cooldown));
    let client = Client::new(Store::new(), clock.clone(), LatencyModel::zero())
        .with_faults(plan)
        .with_breaker(Arc::clone(&breaker));
    let admission = Admission::new(DOOR_CAPACITY);

    // Storm trips the breaker; the world degrades writes.
    for _ in 0..2 {
        let _ = client.set("k", "v");
    }
    assert_eq!(breaker.state(clock.now()), BreakerState::Open);
    admission.degrade_writes(true);

    // Degraded: writes are refused at the door, reads still pass.
    assert!(admission.admit(APPS[0], Workload::Write).is_err());
    let permit = admission
        .admit(APPS[0], Workload::Read)
        .expect("reads pass in degraded mode");
    drop(permit);

    // Cooldown elapsed and the storm is over: the probe succeeds, the
    // breaker closes, and the world exits degraded mode.
    clock.advance(cooldown);
    client.set("k", "v").expect("probe succeeds");
    assert_eq!(breaker.state(clock.now()), BreakerState::Closed);
    admission.degrade_writes(false);

    // Writes resume through the same doors.
    let permit = admission
        .admit(APPS[0], Workload::Write)
        .expect("writes resume after degraded-mode exit");
    drop(permit);
    assert!(!admission.door(APPS[0]).is_read_only());
}
