//! Per-client rate limiting, written both ways.
//!
//! The catalog case this module adds: a web tier fronting the studied
//! applications limits each client's request rate. The idiomatic
//! quick-fix — a **fixed-window counter** kept in the KV store — is an ad
//! hoc transaction: `GET` the window's count, compare against the limit,
//! then `INCR`. Check and act are two separate round trips with no
//! coordination between them, so two concurrent requests from one client
//! can both read `limit - 1` and both be admitted — the same
//! check-then-act anomaly as the paper's Fig. 1a, applied to admission
//! state (and the same coordination-avoidance tradeoff Bailis et al.
//! study: the counter is *not* invariant-confluent against the cap).
//!
//! The cure is the **token bucket**: refill-and-debit as one atomic
//! in-process decision, so admission over the cap is impossible by
//! construction. `tests/schedules/rate-limit-window-race.sched` pins the
//! fixed-window race as schedule witness 25.

use crate::ServiceError;
use adhoc_kv::{Client, KvError};
use adhoc_sim::SharedClock;
use adhoc_storage::fasthash::FastMap;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-client admission: `Ok(true)` admits, `Ok(false)` rate-limits.
pub trait RateLimiter: Send + Sync {
    /// Decide admission for one request from `client`.
    fn try_admit(&self, client: u64) -> Result<bool, ServiceError>;
    /// Which implementation this is (for reports).
    fn label(&self) -> &'static str;
    /// Requests refused so far.
    fn limited(&self) -> u64;
}

/// The racy fixed-window counter over the KV store (catalog case).
///
/// `admitted(client, window) < limit` is checked with a `GET`, then the
/// count is bumped with an `INCR` — two wire round trips, with the
/// check-then-act window in between. Under the deterministic scheduler
/// both hops are preemption points, which is exactly how witness 25
/// derives the double-admission.
pub struct FixedWindowLimiter {
    kv: Client,
    clock: SharedClock,
    limit: i64,
    window: Duration,
    limited: AtomicU64,
}

impl FixedWindowLimiter {
    /// Allow `limit` requests per `window` per client, counted in `kv`.
    pub fn new(kv: Client, limit: i64, window: Duration) -> Self {
        assert!(limit > 0 && !window.is_zero());
        let clock = kv.clock();
        Self {
            kv,
            clock,
            limit,
            window,
            limited: AtomicU64::new(0),
        }
    }

    fn window_key(&self, client: u64) -> String {
        let idx = self.clock.now().as_nanos() / self.window.as_nanos();
        format!("rl:{client}:{idx}")
    }
}

impl RateLimiter for FixedWindowLimiter {
    fn try_admit(&self, client: u64) -> Result<bool, ServiceError> {
        let key = self.window_key(client);
        // Round trip 1: the check.
        let count: i64 = match self.kv.get(&key).map_err(kv_err)? {
            Some(s) => s.parse().unwrap_or(0),
            None => 0,
        };
        if count >= self.limit {
            self.limited.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        // Round trip 2: the act. Nothing revalidates the count read above —
        // a concurrent request admitted in between pushes the window past
        // its limit (the pinned race).
        self.kv.incr(&key).map_err(kv_err)?;
        Ok(true)
    }

    fn label(&self) -> &'static str {
        "fixed-window"
    }

    fn limited(&self) -> u64 {
        self.limited.load(Ordering::Relaxed)
    }
}

fn kv_err(e: KvError) -> ServiceError {
    match e {
        KvError::CircuitOpen => ServiceError::CircuitOpen,
        other => ServiceError::Backend(other.to_string()),
    }
}

struct Bucket {
    /// Millitokens, so refill arithmetic stays in integers (deterministic
    /// across platforms).
    millitokens: u64,
    last_refill: Duration,
}

/// The cured limiter: a token bucket refilled and debited under one lock.
///
/// Admission is a single atomic decision on in-process state, so the cap
/// holds by construction — no wire, no check-then-act window. This is the
/// shape production gateways converge on once the fixed-window race bites.
///
/// The table keeps only clients being limited: full buckets are dropped
/// before it would grow (exactly — see `full_at`).
pub struct TokenBucketLimiter {
    clock: SharedClock,
    rate_millitokens_per_sec: u64,
    burst_millitokens: u64,
    buckets: Mutex<FastMap<u64, Bucket>>,
    limited: AtomicU64,
}

impl TokenBucketLimiter {
    /// Allow a sustained `rate_per_sec` with bursts up to `burst`, per
    /// client.
    pub fn new(clock: SharedClock, rate_per_sec: u64, burst: u64) -> Self {
        assert!(rate_per_sec > 0 && burst > 0);
        Self {
            clock,
            rate_millitokens_per_sec: rate_per_sec * 1000,
            burst_millitokens: burst * 1000,
            buckets: Mutex::new(FastMap::default()),
            limited: AtomicU64::new(0),
        }
    }

    /// Would a call at `now` refill `bucket` to the brim, i.e. take the
    /// `refill > 0 && millitokens + refill >= burst` branch of
    /// `try_admit`? That call leaves it at `(burst, now)` before debiting,
    /// exactly where an absent client starts, so forgetting it changes no
    /// decision. Both tests say `refill >= need` with `need = max(burst -
    /// millitokens, 1)`, and `refill = ⌊elapsed · rate / 10⁹⌋ >= need`
    /// iff `elapsed · rate >= need · 10⁹`: compared that way, a sweep
    /// divides nothing.
    fn full_at(&self, bucket: &Bucket, now: Duration) -> bool {
        let need = self
            .burst_millitokens
            .saturating_sub(bucket.millitokens)
            .max(1);
        let elapsed = now.saturating_sub(bucket.last_refill);
        elapsed.as_nanos() * self.rate_millitokens_per_sec as u128 >= need as u128 * 1_000_000_000
    }

    /// Buckets currently stored.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.buckets.lock().len()
    }
}

impl RateLimiter for TokenBucketLimiter {
    fn try_admit(&self, client: u64) -> Result<bool, ServiceError> {
        let mut buckets = self.buckets.lock();
        // Under the lock, so no later caller sees an earlier `now` than
        // the one that found a bucket full.
        let now = self.clock.now();
        if buckets.len() == buckets.capacity() && !buckets.contains_key(&client) {
            // Inserting would grow the table: forget the full buckets
            // first, and grow only if most of the table is still limited.
            buckets.retain(|_, b| !self.full_at(b, now));
            let survivors = buckets.len();
            if survivors > buckets.capacity() / 2 {
                buckets.reserve(survivors);
            }
        }
        let bucket = match buckets.entry(client) {
            Entry::Occupied(entry) => entry.into_mut(),
            // An absent client starts full at `now` and spends one token.
            Entry::Vacant(entry) => {
                entry.insert(Bucket {
                    millitokens: self.burst_millitokens - 1000,
                    last_refill: now,
                });
                return Ok(true);
            }
        };
        let elapsed = now.saturating_sub(bucket.last_refill);
        let refill =
            (elapsed.as_nanos() * self.rate_millitokens_per_sec as u128 / 1_000_000_000) as u64;
        if refill > 0 {
            let refilled = bucket.millitokens + refill;
            if refilled >= self.burst_millitokens {
                bucket.millitokens = self.burst_millitokens;
                bucket.last_refill = now;
            } else {
                bucket.millitokens = refilled;
                // Advance only by the time the granted refill covers, so
                // sub-token remainders are not lost to truncation.
                let covered =
                    refill as u128 * 1_000_000_000 / self.rate_millitokens_per_sec as u128;
                bucket.last_refill += Duration::from_nanos(covered as u64);
            }
        }
        if bucket.millitokens >= 1000 {
            bucket.millitokens -= 1000;
            Ok(true)
        } else {
            self.limited.fetch_add(1, Ordering::Relaxed);
            Ok(false)
        }
    }

    fn label(&self) -> &'static str {
        "token-bucket"
    }

    fn limited(&self) -> u64 {
        self.limited.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_kv::Store;
    use adhoc_sim::{Clock, LatencyModel, VirtualClock};
    use std::sync::Arc;

    fn kv(clock: Arc<VirtualClock>) -> Client {
        Client::new(Store::new(), clock, LatencyModel::zero())
    }

    #[test]
    fn fixed_window_admits_up_to_limit_then_refuses() {
        let clock = Arc::new(VirtualClock::new());
        let l = FixedWindowLimiter::new(kv(clock.clone()), 3, Duration::from_secs(1));
        for _ in 0..3 {
            assert!(l.try_admit(7).unwrap());
        }
        assert!(!l.try_admit(7).unwrap());
        assert_eq!(l.limited(), 1);
        // A different client has its own window.
        assert!(l.try_admit(8).unwrap());
        // The next window resets the count.
        clock.advance(Duration::from_secs(1));
        assert!(l.try_admit(7).unwrap());
    }

    #[test]
    fn fixed_window_check_and_act_are_separate_round_trips() {
        let clock = Arc::new(VirtualClock::new());
        let client = kv(clock);
        let l = FixedWindowLimiter::new(client.clone(), 5, Duration::from_secs(1));
        let before = client.round_trips();
        l.try_admit(1).unwrap();
        assert_eq!(
            client.round_trips() - before,
            2,
            "GET then INCR — the race window lives between them"
        );
    }

    #[test]
    fn token_bucket_enforces_burst_then_rate() {
        let clock = Arc::new(VirtualClock::new());
        let l = TokenBucketLimiter::new(clock.clone(), 10, 3);
        for _ in 0..3 {
            assert!(l.try_admit(7).unwrap());
        }
        assert!(!l.try_admit(7).unwrap(), "burst exhausted");
        // 100 ms at 10/s refills exactly one token.
        clock.advance(Duration::from_millis(100));
        assert!(l.try_admit(7).unwrap());
        assert!(!l.try_admit(7).unwrap());
        assert_eq!(l.limited(), 2);
    }

    #[test]
    fn token_bucket_is_per_client() {
        let clock = Arc::new(VirtualClock::new());
        let l = TokenBucketLimiter::new(clock, 1, 1);
        assert!(l.try_admit(1).unwrap());
        assert!(!l.try_admit(1).unwrap());
        assert!(l.try_admit(2).unwrap(), "client 2 has its own bucket");
    }

    /// The token bucket before eviction: one `HashMap` entry per client
    /// ever seen. The reference the evicting limiter is checked against.
    struct NeverEvictingLimiter {
        rate_millitokens_per_sec: u64,
        burst_millitokens: u64,
        buckets: std::collections::HashMap<u64, Bucket>,
        limited: u64,
    }

    impl NeverEvictingLimiter {
        fn new(rate_per_sec: u64, burst: u64) -> Self {
            Self {
                rate_millitokens_per_sec: rate_per_sec * 1000,
                burst_millitokens: burst * 1000,
                buckets: std::collections::HashMap::new(),
                limited: 0,
            }
        }

        fn refill(&self, bucket: &Bucket, now: Duration) -> u64 {
            let elapsed = now.saturating_sub(bucket.last_refill);
            (elapsed.as_nanos() * self.rate_millitokens_per_sec as u128 / 1_000_000_000) as u64
        }

        fn try_admit(&mut self, client: u64, now: Duration) -> bool {
            let bucket = self.buckets.entry(client).or_insert(Bucket {
                millitokens: self.burst_millitokens,
                last_refill: now,
            });
            let elapsed = now.saturating_sub(bucket.last_refill);
            let refill =
                (elapsed.as_nanos() * self.rate_millitokens_per_sec as u128 / 1_000_000_000) as u64;
            if refill > 0 {
                let refilled = bucket.millitokens + refill;
                if refilled >= self.burst_millitokens {
                    bucket.millitokens = self.burst_millitokens;
                    bucket.last_refill = now;
                } else {
                    bucket.millitokens = refilled;
                    let covered =
                        refill as u128 * 1_000_000_000 / self.rate_millitokens_per_sec as u128;
                    bucket.last_refill += Duration::from_nanos(covered as u64);
                }
            }
            if bucket.millitokens >= 1000 {
                bucket.millitokens -= 1000;
                true
            } else {
                self.limited += 1;
                false
            }
        }
    }

    /// SplitMix64: a seeded stream without a dependency on `rand`.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        adhoc_sim::rng::splitmix64(*state)
    }

    /// Drive the evicting limiter and the oracle with one seeded stream —
    /// a quarter of the requests on 8 hot clients, the rest uniform over
    /// `clients`, the clock stepped `0..=max_step` before each — and
    /// require identical decisions, then the same state: every bucket kept
    /// equals the oracle's, and every bucket dropped is full by the
    /// predicate's division form.
    /// Returns both tables' sizes.
    fn differential(
        seed: u64,
        (rate, burst): (u64, u64),
        clients: u64,
        max_step: Duration,
        requests: u64,
    ) -> (usize, usize) {
        let clock = Arc::new(VirtualClock::new());
        let l = TokenBucketLimiter::new(clock.clone(), rate, burst);
        let mut oracle = NeverEvictingLimiter::new(rate, burst);
        let mut state = seed;
        for i in 0..requests {
            let step = splitmix(&mut state) % (max_step.as_nanos() as u64 + 1);
            clock.advance(Duration::from_nanos(step));
            let draw = splitmix(&mut state);
            let client = if draw.is_multiple_of(4) {
                draw / 4 % 8
            } else {
                draw / 4 % clients
            };
            assert_eq!(
                l.try_admit(client).unwrap(),
                oracle.try_admit(client, clock.now()),
                "request {i}: client {client} at {:?}",
                clock.now()
            );
        }
        assert_eq!(l.limited(), oracle.limited);
        let (now, kept) = (clock.now(), l.buckets.lock());
        for (client, b) in &oracle.buckets {
            match kept.get(client) {
                Some(k) => assert_eq!(
                    (k.millitokens, k.last_refill),
                    (b.millitokens, b.last_refill),
                    "client {client}"
                ),
                None => {
                    let refill = oracle.refill(b, now);
                    assert!(
                        refill > 0 && b.millitokens + refill >= oracle.burst_millitokens,
                        "client {client} dropped before its bucket was full"
                    );
                }
            }
        }
        drop(kept);
        (l.tracked(), oracle.buckets.len())
    }

    #[test]
    fn evicting_full_buckets_changes_no_decision() {
        const REQUESTS: u64 = 400_000;
        // The traffic arm's rate; a rate so high every bucket refills
        // between two of its requests (the benchmark's); one so low that
        // most requests are refused.
        differential(1, (200, 400), 50_000, Duration::from_micros(20), REQUESTS);
        differential(
            2,
            (10_000_000, 20_000_000),
            1_000_000,
            Duration::from_nanos(50),
            REQUESTS,
        );
        differential(3, (3, 2), 5_000, Duration::from_millis(1), REQUESTS);
    }

    #[test]
    fn a_bucket_is_dropped_exactly_when_full() {
        // 1 token/s refills one millitoken per ms: with a burst of 2, a
        // bucket debited at t = 0 is one millitoken short of full at 999 ms.
        for (wait, dropped) in [(999, false), (1000, true)] {
            let clock = Arc::new(VirtualClock::new());
            let l = TokenBucketLimiter::new(clock.clone(), 1, 2);
            assert!(l.try_admit(0).unwrap());
            clock.advance(Duration::from_millis(wait));
            // Fresh clients fill the table through several sweeps.
            for client in 1..=100 {
                assert!(l.try_admit(client).unwrap());
            }
            let expected = if dropped { 100 } else { 101 };
            assert_eq!(l.tracked(), expected, "after {wait} ms");
        }
    }

    #[test]
    fn the_table_holds_only_the_clients_being_limited() {
        let (tracked, oracle) = differential(
            4,
            (10_000_000, 20_000_000),
            1_000_000,
            Duration::from_nanos(50),
            400_000,
        );
        println!("{tracked} buckets tracked; the never-evicting oracle holds {oracle}");
        assert!(tracked < 4_096, "{tracked} buckets tracked");
        assert!(oracle > 100_000, "the oracle kept {oracle}");
    }
}
