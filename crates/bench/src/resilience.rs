//! Metastability ablation: which resilience mechanisms buy recovery.
//!
//! The same closed-loop world as `tests/resilience_oracle.rs` — eight
//! per-app request streams over one faulted KV client, a 30-tick full
//! inbound partition in the middle of a 200-tick run — swept across
//! three configurations:
//!
//! * `full` — deadlines + retry budget + circuit breaker + per-app
//!   admission doors with read-only degraded mode.
//! * `breaker_only` — the breaker fails outage traffic fast, but clients
//!   still queue unbounded and nothing drops stale work.
//! * `naive` — eager in-place retries, unbounded queueing, no deadlines.
//!
//! Everything runs on a [`VirtualClock`], so the sweep costs milliseconds
//! of wall time, is bit-for-bit reproducible, and the *shape* — full
//! recovers to baseline, naive stays pinned near zero goodput on a
//! healthy backend — is the reproduction target, not absolute numbers.
//! Rendered to `BENCH_resilience.json` by `paper-eval bench-json`.

use adhoc_apps::admission::{Admission, APPS};
use adhoc_kv::{Client, KvError, Store};
use adhoc_sim::{
    BreakerState, CircuitBreaker, Clock, Deadline, FaultKind, FaultPlan, FaultRule, LatencyModel,
    RetryBudget, VirtualClock, Workload,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5157_4d0d_2022_0612;
const TICK: Duration = Duration::from_millis(10);
const TICKS: u64 = 200;
const ARRIVALS: u64 = 4;
const CAPACITY: u64 = 16;
const PATIENCE: u64 = 4;
const STORM_START: u64 = 60;
const STORM_END: u64 = 90;
const NAIVE_ATTEMPTS: u32 = 4;
const DOOR_CAPACITY: usize = 3;

/// Which resilience mechanisms a swept configuration enables.
#[derive(Debug, Clone, Copy)]
pub struct Resilience {
    /// Circuit breaker on the shared KV connection.
    pub breaker: bool,
    /// Per-request deadlines: stale work drops free, errors return to
    /// the caller instead of requeueing.
    pub deadlines: bool,
    /// Per-app admission doors with read-only degraded mode.
    pub admission: bool,
}

impl Resilience {
    /// The three swept points.
    pub fn sweep() -> Vec<(&'static str, Self)> {
        vec![
            (
                "full",
                Self {
                    breaker: true,
                    deadlines: true,
                    admission: true,
                },
            ),
            (
                "breaker_only",
                Self {
                    breaker: true,
                    deadlines: false,
                    admission: false,
                },
            ),
            (
                "naive",
                Self {
                    breaker: false,
                    deadlines: false,
                    admission: false,
                },
            ),
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
}

struct Req {
    id: u64,
    app: usize,
    born: u64,
    read: bool,
    respawned: bool,
}

fn at_tick(n: u64) -> Duration {
    TICK * u32::try_from(n).expect("tick fits u32")
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
            &[FaultKind::PartitionInbound],
            1.0,
            at_tick(STORM_START),
            at_tick(STORM_END),
        ),
    );
    let breaker = Arc::new(CircuitBreaker::new(4, 2 * TICK));
    let budget = Arc::new(RetryBudget::new(4));
    let mut base = Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_faults(plan);
    if res.breaker {
        base = base.with_breaker(Arc::clone(&breaker));
    }
    let admission = Admission::new(DOOR_CAPACITY);

    let mut queue: VecDeque<Req> = VecDeque::new();
    let mut next_id: u64 = 0;
    let mut goodput_by_tick: Vec<u64> = Vec::with_capacity(TICKS as usize);
    let mut wasted: u64 = 0;

    for tick in 0..TICKS {
        let degraded = res.admission
            && res.breaker
            && matches!(breaker.state(clock.now()), BreakerState::Open);
        admission.degrade_writes(degraded);

        for _ in 0..ARRIVALS {
            let id = next_id;
            next_id += 1;
            let app = (id % APPS.len() as u64) as usize;
            let read = id % 4 == 3;
            if res.admission {
                let workload = if read {
                    Workload::Read
                } else {
                    Workload::Write
                };
                // The bench world tracks door occupancy by queue depth
                // below; the door's verdict alone decides admission here.
                if admission.admit(APPS[app], workload).is_err() {
                    continue;
                }
            }
            queue.push_back(Req {
                id,
                app,
                born: tick,
                read,
                respawned: false,
            });
        }
        if res.admission {
            // Doors bound *standing* work: beyond capacity, shed.
            while queue.len() > APPS.len() * DOOR_CAPACITY {
                queue.pop_back();
            }
        }

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
                req.respawned = true;
                let id = next_id;
                next_id += 1;
                queue.push_back(Req {
                    id,
                    app: req.app,
                    born: tick,
                    read: req.read,
                    respawned: false,
                });
            }
            if res.deadlines && stale {
                continue; // dropped free at the deadline
            }
            let client = if res.deadlines {
                base.clone()
                    .with_deadline(Deadline::at(at_tick(req.born + PATIENCE + 1)))
            } else {
                base.clone()
            };
            if req.read && degraded {
                let _ = base
                    .store()
                    .get(&format!("out:{}:{}", APPS[req.app], req.id), clock.now());
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
                        .map(|_| ())
                } else {
                    serve_write(&client, &req)
                };
                used += base.round_trips() - before;
                match result {
                    Ok(()) => break Ok(()),
                    Err(e) => {
                        let fail_fast =
                            matches!(e, KvError::DeadlineExceeded | KvError::CircuitOpen);
                        let retry = if res.deadlines {
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
                Ok(()) if stale => wasted += 1,
                Ok(()) => goodput += 1,
                Err(_) => {
                    if !res.deadlines {
                        queue.push_front(req); // the convoy retries in place
                    }
                }
            }
        }
        goodput_by_tick.push(goodput);
        clock.advance(TICK);
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
    }
}

fn serve_write(client: &Client, req: &Req) -> Result<(), KvError> {
    let lease = format!("lease:{}", APPS[req.app]);
    let Some(token) = client.acquire_lease(&lease, &format!("req-{}", req.id), 2 * TICK)? else {
        return Err(KvError::ConnectionLost); // leaked grant: wait out the TTL
    };
    client.fenced_set(&format!("out:{}:{}", APPS[req.app], req.id), "done", token)?;
    let _ = client.del(&lease);
    Ok(())
}

/// Run the full sweep.
pub fn resilience_sweep() -> Vec<ResilienceRow> {
    Resilience::sweep()
        .into_iter()
        .map(|(label, res)| run_config(label, res))
        .collect()
}

/// Render the sweep as `BENCH_resilience.json`.
pub fn render_resilience_json(rows: &[ResilienceRow]) -> String {
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
