//! The metastability oracle: a partition storm hits a closed-loop
//! workload, the storm clears, and the hardened stack must return to
//! baseline throughput within a bounded number of virtual-clock ticks —
//! while the naive ablation (no deadlines, no breaker, no admission
//! control, eager retries) stays depressed long after the fault is gone.
//!
//! The world is the bench's own (`adhoc_bench::resilience::run_config`,
//! the one partition-storm loop, whose module doc walks through the
//! metastable mechanism); this oracle asserts on its `full` (hardened)
//! and `naive` runs, which are the `BENCH_resilience.json` rows of the
//! same names. Everything runs single-threaded on a [`VirtualClock`]
//! with a seeded windowed [`FaultPlan`], so both worlds replay
//! bit-for-bit.

use adhoc_bench::resilience::{
    at_tick, resilience_sweep, ResilienceRow, APPS, ARRIVALS, DOOR_CAPACITY, PATIENCE, SEED,
    STORM_END, STORM_START, TICK, TICKS,
};
use adhoc_transactions::kv::{Client, KvError, Store};
use adhoc_transactions::sim::{
    BreakerState, CircuitBreaker, Clock, FaultKind, FaultPlan, FaultRule, LatencyModel,
    SlotCounter, VirtualClock,
};
use std::sync::Arc;
use std::time::Duration;

/// One swept configuration of the storm world, run once.
fn world(config: &str) -> ResilienceRow {
    resilience_sweep()
        .into_iter()
        .find(|r| r.config == config)
        .expect("a swept configuration")
}

#[test]
fn hardened_world_recovers_to_baseline_within_bound() {
    let m = world("full");
    // No acked-write loss and no double-granted fenced lease, storm or
    // no storm.
    assert!(m.violations.is_empty(), "{:?}", m.violations);
    let baseline = m.baseline;
    assert!(
        baseline >= (ARRIVALS - 1) as f64,
        "healthy baseline must near the arrival rate, got {baseline}"
    );

    // The storm bites: goodput collapses while it lasts...
    assert!(
        m.storm < 0.5 * baseline,
        "the storm must depress goodput ({} vs {baseline})",
        m.storm
    );
    assert!(m.times_opened >= 1, "the breaker must have tripped");
    // ...but degraded mode keeps reads flowing off the replica,
    assert!(
        m.storm_replica_reads >= 5,
        "read-only degraded mode must serve reads during the storm, got {}",
        m.storm_replica_reads
    );
    // and writes are refused at admission instead of queueing.
    assert!(m.refused_writes > 0, "degraded mode must refuse writes");

    // Recovery: back to >= 90% of baseline over ticks 10..30 after the
    // storm clears, and it stays there.
    assert!(
        m.recovery >= 0.9 * baseline,
        "hardened world failed to recover: {} vs baseline {baseline}",
        m.recovery
    );
    assert!(
        m.tail >= 0.9 * baseline,
        "recovery must hold through the end of the run ({})",
        m.tail
    );
    // Bounded admission means the backlog died with the storm.
    assert!(
        m.end_queue <= APPS.len() * DOOR_CAPACITY,
        "queue must stay admission-bounded, got {}",
        m.end_queue
    );
}

#[test]
fn naive_world_stays_metastable_after_the_storm_clears() {
    let m = world("naive");
    assert!(m.violations.is_empty(), "{:?}", m.violations);
    assert!(m.baseline >= (ARRIVALS - 1) as f64);

    // Long after the partition healed, goodput is still pinned low: the
    // backlog plus retry amplification outlived the fault.
    let tail = m.goodput[(TICKS - 30) as usize..].iter().sum::<u64>() as f64 / 30.0;
    assert!(
        tail <= 0.3 * m.baseline,
        "expected a metastable tail, got {tail} vs baseline {}",
        m.baseline
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
        &[FaultKind::ConnError],
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
    let a = world("full");
    let b = world("full");
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.shed, b.shed);
    let c = world("naive");
    let d = world("naive");
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
    // The storm world's admission: while the breaker is open the world
    // is degraded, so a write is refused and a read takes a slot.
    let slots = SlotCounter::new(DOOR_CAPACITY);
    let admit = |read: bool| {
        let degraded = matches!(breaker.state(clock.now()), BreakerState::Open);
        (read || !degraded).then(|| slots.try_take()).flatten()
    };

    // Storm trips the breaker; the world degrades writes.
    for _ in 0..2 {
        let _ = client.set("k", "v");
    }
    assert_eq!(breaker.state(clock.now()), BreakerState::Open);

    // Degraded: writes are refused at admission, reads still pass.
    assert!(admit(false).is_none());
    let permit = admit(true).expect("reads pass in degraded mode");
    drop(permit);

    // Cooldown elapsed and the storm is over: the probe succeeds, the
    // breaker closes, and the world exits degraded mode.
    clock.advance(cooldown);
    client.set("k", "v").expect("probe succeeds");
    assert_eq!(breaker.state(clock.now()), BreakerState::Closed);

    // Writes resume through the same slots.
    let permit = admit(false).expect("writes resume after degraded-mode exit");
    drop(permit);
    assert_eq!(slots.in_use(), 0);
}
