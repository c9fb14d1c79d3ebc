//! Metastability ablation: which resilience mechanisms buy recovery.
//!
//! The partition-storm world — eight per-app request streams over one
//! faulted KV client, a 30-tick full inbound partition in the middle of
//! a 200-tick run — swept across three configurations:
//!
//! * `full` — deadlines + retry budget + circuit breaker + per-app
//!   admission slots with read-only degraded mode.
//! * `breaker_only` — the breaker fails outage traffic fast, but clients
//!   still queue unbounded and nothing drops stale work.
//! * `naive` — eager in-place retries, unbounded queueing, no deadlines.
//!
//! The mechanism is the classic metastable failure: during the outage
//! the naive system queues every request and amplifies each with
//! retries; afterwards the backlog is so deep that every request it
//! completes already missed its client's patience window, so the work is
//! wasted, the client has already resubmitted, and goodput pins near
//! zero on a healthy backend. The `full` stack breaks every link of that
//! loop: each request holds its app's admission slot while queued or in
//! flight (a resubmitted copy must be admitted again), deadlines drop
//! stale work for free, the breaker turns outage traffic into instant
//! local rejections, a retry budget bounds the amplification, and
//! read-only degraded mode serves reads off the replica while writes
//! shed.
//!
//! This is the one copy of the world: `tests/resilience_oracle.rs`
//! asserts recovery and metastability on its `full` and `naive` runs.
//! Each run also counts its own invariant breaks — an acked write
//! missing from the store, a fencing token not above the last one
//! granted for its lease — in [`ResilienceRow::violations`].
//!
//! Everything runs on a [`VirtualClock`], so the sweep costs milliseconds
//! of wall time, is bit-for-bit reproducible, and the *shape* — full
//! recovers to baseline, naive stays pinned near zero goodput on a
//! healthy backend — is the reproduction target, not absolute numbers.
//! Rendered to `BENCH_resilience.json` by `paper-eval bench-json`.

use adhoc_kv::{Client, KvError, Store};
use adhoc_sim::{
    BreakerState, CircuitBreaker, Clock, Deadline, FaultKind, FaultPlan, FaultRule, LatencyModel,
    Permit, RetryBudget, SlotCounter, VirtualClock,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// The eight applications of Table 2; a request's app number indexes
/// this (and the world's admission slots), and the name keys its KV
/// entries.
pub const APPS: [&str; 8] = [
    "broadleaf",
    "discourse",
    "jumpserver",
    "mastodon",
    "redmine",
    "saleor",
    "scm-suite",
    "spree",
];
/// Seed of the storm's fault plan.
pub const SEED: u64 = adhoc_sim::rng::DEFAULT_SEED;
/// One scheduling tick of the closed loop.
pub const TICK: Duration = Duration::from_millis(10);
/// Total simulated ticks.
pub const TICKS: u64 = 200;
/// Requests arriving per tick (round-robin over the eight apps; every
/// fourth is a read).
pub const ARRIVALS: u64 = 4;
/// KV round trips the backend can serve per tick.
const CAPACITY: u64 = 16;
/// Client patience, in ticks: a response later than this is useless to
/// the caller, who has already resubmitted.
pub const PATIENCE: u64 = 4;
/// The partition storm occupies ticks `[STORM_START, STORM_END)`.
pub const STORM_START: u64 = 60;
/// First tick after the storm.
pub const STORM_END: u64 = 90;
/// Naive ablation: in-place attempts per request before requeueing.
const NAIVE_ATTEMPTS: u32 = 4;
/// Per-app admission concurrency bound (`full` only).
pub const DOOR_CAPACITY: usize = 3;
/// Retry tokens in the `full` stack's budget.
pub const RETRY_TOKENS: u32 = 4;

/// Virtual-clock instant of tick `n`.
pub fn at_tick(n: u64) -> Duration {
    TICK * u32::try_from(n).expect("tick fits u32")
}

/// Which resilience mechanisms a swept configuration enables.
#[derive(Debug, Clone, Copy)]
pub struct Resilience {
    /// Circuit breaker on the shared KV connection.
    pub breaker: bool,
    /// Per-request deadlines (stale work drops free, errors return to the
    /// caller instead of requeueing) and per-app admission slots with
    /// read-only degraded mode.
    pub shedding: bool,
}

impl Resilience {
    /// The three swept points.
    pub fn sweep() -> Vec<(&'static str, Self)> {
        let arm = |breaker, shedding| Self { breaker, shedding };
        vec![
            ("full", arm(true, true)),
            ("breaker_only", arm(true, false)),
            ("naive", arm(false, false)),
        ]
    }
}

/// One measured configuration of the metastability world.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Configuration label (`full`, `breaker_only`, `naive`).
    pub config: &'static str,
    /// Goodput per tick over the healthy warm-up window.
    pub baseline: f64,
    /// Goodput per tick while the partition is live.
    pub storm: f64,
    /// Goodput per tick in the window starting 10 ticks post-storm.
    pub recovery: f64,
    /// Goodput per tick over the final 20 ticks.
    pub tail: f64,
    /// Queue depth when the run ended.
    pub end_queue: usize,
    /// Completions delivered after the client had given up.
    pub wasted: u64,
    /// Times the breaker tripped open.
    pub times_opened: u64,
    /// Requests completed within patience, per tick.
    pub goodput: Vec<u64>,
    /// Reads served from the replica in degraded mode during the storm.
    pub storm_replica_reads: u64,
    /// Requests shed with every admission slot taken, plus deadline
    /// drops.
    pub shed: u64,
    /// Writes refused at admission by degraded mode.
    pub refused_writes: u64,
    /// Writes acknowledged to clients.
    pub acked: u64,
    /// Retry-budget tokens left when the run ended.
    pub retry_tokens: u64,
    /// Invariant breaks: acked writes missing from the store, fencing
    /// tokens not above the last one granted for their lease.
    pub violations: Vec<String>,
}

struct Req<'d> {
    id: u64,
    app: usize,
    born: u64,
    read: bool,
    /// The impatient client already resubmitted a fresh copy.
    respawned: bool,
    /// Admission slot, held (never read) while queued and in flight;
    /// dropping it releases the slot.
    _permit: Option<Permit<'d>>,
}

fn avg(window: &[u64]) -> f64 {
    window.iter().sum::<u64>() as f64 / window.len() as f64
}

/// Run the closed-loop world once under `res` and measure it.
pub fn run_config(config: &'static str, res: Resilience) -> ResilienceRow {
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan::new(
        SEED,
        FaultRule::storm(
            &[FaultKind::ConnError],
            1.0,
            at_tick(STORM_START),
            at_tick(STORM_END),
        ),
    );
    let breaker = Arc::new(CircuitBreaker::new(4, 2 * TICK));
    let budget = RetryBudget::new(RETRY_TOKENS);
    let mut base = Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_faults(plan);
    if res.breaker {
        base = base.with_breaker(Arc::clone(&breaker));
    }
    let slots: [SlotCounter; APPS.len()] = std::array::from_fn(|_| SlotCounter::new(DOOR_CAPACITY));
    let mut refused_writes = 0u64;
    // `None` when admission refuses: a write while degraded (counted
    // here), or every slot of the app taken (counted by its counter).
    // Without shedding nothing is refused and no slot is held.
    let mut admit = |app: usize, read: bool, degraded: bool| -> Option<Option<Permit<'_>>> {
        if !res.shedding {
            return Some(None);
        }
        if degraded && !read {
            refused_writes += 1;
            return None;
        }
        slots[app].try_take().map(Some)
    };

    let mut queue: VecDeque<Req> = VecDeque::new();
    let mut next_id: u64 = 0;
    let mut goodput_by_tick: Vec<u64> = Vec::with_capacity(TICKS as usize);
    let (mut wasted, mut deadline_drops, mut storm_replica_reads) = (0u64, 0u64, 0u64);
    let mut acked_keys: Vec<String> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    // Fencing-token floor per app lease: every grant must dominate the
    // previous one.
    let mut last_token = vec![0u64; APPS.len()];

    for tick in 0..TICKS {
        let storming = (STORM_START..STORM_END).contains(&tick);
        // Degraded mode follows the breaker: while Open, writes are
        // refused at admission and reads come off the replica. Half-open
        // un-degrades so the probe write can go through.
        let degraded =
            res.shedding && res.breaker && matches!(breaker.state(clock.now()), BreakerState::Open);

        for _ in 0..ARRIVALS {
            let id = next_id;
            next_id += 1;
            let app = (id % APPS.len() as u64) as usize;
            let read = id % 4 == 3;
            // Shed or refused at admission: the client hears now.
            let Some(permit) = admit(app, read, degraded) else {
                continue;
            };
            queue.push_back(Req {
                id,
                app,
                born: tick,
                read,
                respawned: false,
                _permit: permit,
            });
        }

        // Strict FIFO with head-of-line blocking: the tick ends when the
        // round-trip budget is spent and everyone behind the head waits,
        // so a deep queue means every served request is already stale.
        let mut used: u64 = 0;
        let mut goodput: u64 = 0;
        for _ in 0..queue.len() {
            if used >= CAPACITY {
                break;
            }
            let Some(mut req) = queue.pop_front() else {
                break;
            };
            let stale = tick - req.born > PATIENCE;
            if stale && !req.respawned {
                // The impatient client resubmits through admission; without
                // deadlines the stale original stays queued and is served.
                req.respawned = true;
                if let Some(permit) = admit(req.app, req.read, degraded) {
                    let id = next_id;
                    next_id += 1;
                    queue.push_back(Req {
                        id,
                        app: req.app,
                        born: tick,
                        read: req.read,
                        respawned: false,
                        _permit: permit,
                    });
                }
            }
            if res.shedding && stale {
                deadline_drops += 1;
                continue; // dropped free at the deadline; the permit goes with it
            }
            let client = if res.shedding {
                base.clone()
                    .with_deadline(Deadline::at(at_tick(req.born + PATIENCE + 1)))
            } else {
                base.clone()
            };
            if req.read && degraded {
                let _ = base
                    .store()
                    .get(&format!("out:{}:{}", APPS[req.app], req.id), clock.now());
                storm_replica_reads += u64::from(storming);
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
                    serve_write(&client, &req, &mut last_token, &mut violations).map(Some)
                };
                used += base.round_trips() - before;
                match result {
                    Ok(written) => {
                        budget.deposit();
                        break Ok(written);
                    }
                    Err(e) => {
                        let fail_fast =
                            matches!(e, KvError::DeadlineExceeded | KvError::CircuitOpen);
                        let retry = if res.shedding {
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
                    acked_keys.extend(written);
                    if stale {
                        wasted += 1;
                    } else {
                        goodput += 1;
                    }
                }
                Err(_) => {
                    if !res.shedding {
                        queue.push_front(req); // the convoy retries in place
                    }
                }
            }
        }
        goodput_by_tick.push(goodput);
        clock.advance(TICK);
    }

    for key in &acked_keys {
        if base.store().get(key, clock.now()).ok().flatten().as_deref() != Some("done") {
            violations.push(format!("acked write {key} lost"));
        }
    }
    ResilienceRow {
        config,
        baseline: avg(&goodput_by_tick[20..STORM_START as usize]),
        storm: avg(&goodput_by_tick[STORM_START as usize..STORM_END as usize]),
        recovery: avg(&goodput_by_tick[(STORM_END + 10) as usize..(STORM_END + 30) as usize]),
        tail: avg(&goodput_by_tick[(TICKS - 20) as usize..]),
        end_queue: queue.len(),
        wasted,
        times_opened: breaker.times_opened(),
        goodput: goodput_by_tick,
        storm_replica_reads,
        shed: deadline_drops + slots.iter().map(SlotCounter::refused).sum::<u64>(),
        refused_writes,
        acked: acked_keys.len() as u64,
        retry_tokens: budget.tokens(),
        violations,
    }
}

/// One write: acquire the app's fenced lease, write the payload under the
/// granted token, release. Returns the payload key.
fn serve_write(
    client: &Client,
    req: &Req,
    last_token: &mut [u64],
    violations: &mut Vec<String>,
) -> Result<String, KvError> {
    let lease = format!("lease:{}", APPS[req.app]);
    let Some(token) = client.acquire_lease(&lease, &format!("req-{}", req.id), 2 * TICK)? else {
        return Err(KvError::ConnectionLost); // leaked grant: wait out the TTL
    };
    let floor = std::mem::replace(&mut last_token[req.app], token);
    if token <= floor {
        violations.push(format!("fencing token {token} on {lease} after {floor}"));
    }
    let key = format!("out:{}:{}", APPS[req.app], req.id);
    client.fenced_set(&key, "done", token)?;
    let _ = client.del(&lease);
    Ok(key)
}

/// Run the full sweep.
pub fn resilience_sweep() -> Vec<ResilienceRow> {
    Resilience::sweep()
        .into_iter()
        .map(|(label, res)| run_config(label, res))
        .collect()
}

/// Render the sweep as `BENCH_resilience.json`.
fn render_resilience_json(rows: &[ResilienceRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"metastability_ablation\",\n");
    out.push_str("  \"unit\": \"goodput_per_tick\",\n");
    out.push_str(&format!(
        "  \"storm_ticks\": [{STORM_START}, {STORM_END}],\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"baseline\": {:.2}, \"storm\": {:.2}, \"recovery\": {:.2}, \"tail\": {:.2}, \"end_queue\": {}, \"wasted\": {}, \"times_opened\": {}}}{}\n",
            r.config,
            r.baseline,
            r.storm,
            r.recovery,
            r.tail,
            r.end_queue,
            r.wasted,
            r.times_opened,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Convenience used by `paper-eval bench-json`.
pub fn resilience_bench_json() -> String {
    render_resilience_json(&resilience_sweep())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(config: &str) -> ResilienceRow {
        resilience_sweep()
            .into_iter()
            .find(|r| r.config == config)
            .expect("a swept configuration")
    }

    #[test]
    fn full_recovers_and_naive_does_not() {
        let rows = resilience_sweep();
        let full = rows.iter().find(|r| r.config == "full").unwrap();
        let naive = rows.iter().find(|r| r.config == "naive").unwrap();
        assert!(full.tail >= 0.9 * full.baseline, "full: {full:?}");
        assert!(naive.tail <= 0.3 * naive.baseline, "naive: {naive:?}");
        assert!(full.times_opened >= 1);
        assert_eq!(naive.times_opened, 0);
        assert!(naive.end_queue > full.end_queue);
        for r in &rows {
            assert!(r.violations.is_empty(), "{}: {:?}", r.config, r.violations);
        }
    }

    /// A breaker alone fails outage traffic fast but buys no recovery:
    /// clients still queue unbounded and nothing drops stale work.
    #[test]
    fn breaker_alone_stays_metastable() {
        let r = row("breaker_only");
        assert!(r.times_opened >= 1, "the breaker must trip: {r:?}");
        assert!(r.tail <= 0.3 * r.baseline, "no recovery expected: {r:?}");
        assert!(
            r.end_queue as u64 > 2 * ARRIVALS * PATIENCE,
            "the backlog must persist: {r:?}"
        );
        assert!(r.wasted > 0, "stale completions are the signature: {r:?}");
    }

    /// Successes earn the retry budget back: the storm drains it, the
    /// healthy tail refills it.
    #[test]
    fn full_run_ends_with_the_retry_budget_refilled() {
        let r = row("full");
        assert_eq!(r.retry_tokens, u64::from(RETRY_TOKENS), "{r:?}");
    }

    #[test]
    fn sweep_json_is_well_formed() {
        let json = resilience_bench_json();
        assert!(json.contains("\"metastability_ablation\""));
        assert!(json.contains("\"full\""));
        assert!(json.contains("\"breaker_only\""));
        assert!(json.contains("\"naive\""));
    }
}
