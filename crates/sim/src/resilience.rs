//! Resilience primitives: absolute deadlines, retry budgets, a
//! deterministic circuit breaker, and an admission-control front door.
//!
//! §3.4 of the paper shows what failure handling looks like when every
//! call site improvises it: unbounded retries, no deadline, and no notion
//! of shared blame when a backend degrades. Under a correlated fault storm
//! those habits compose into *metastable* collapse — each request retries
//! independently, the retry traffic keeps the backend saturated, and the
//! system stays down after the original fault has healed. The four
//! primitives here are the standard antidotes, built deterministically on
//! the virtual clock so every test and every schedule witness replays
//! bit-for-bit:
//!
//! * [`Deadline`] — an *absolute* point on the clock's timeline, passed
//!   down through KV round trips, storage operations and lock waits, so a
//!   request's total latency is bounded once, at the edge, instead of by
//!   an uncoordinated product of per-layer timeouts.
//! * [`RetryBudget`] — a token bucket shared by all retry loops that hit
//!   the same backend: retries spend, successes earn. A fault storm can
//!   then cost at most the bucket, never an amplifying retry storm.
//! * [`CircuitBreaker`] — the closed → open → half-open machine that stops
//!   sending work to a backend that keeps failing, probes it once per
//!   cooldown, and closes again on the first success.
//! * [`FrontDoor`] — bounded-concurrency admission control with load
//!   shedding and a read-only degraded mode: work beyond capacity is shed
//!   at the door instead of queueing behind a slow backend. Its bound is
//!   a [`SlotCounter`], the one lock-free slot count in the workspace
//!   (the service's session pool counts its connections with it too).

use crate::clock::Clock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

/// An absolute deadline on a [`Clock`]'s timeline.
///
/// Copyable and clock-agnostic: the deadline stores only the absolute
/// instant (as the clock's `Duration`-since-start reading), so one value
/// propagates unchanged through every layer a request touches. Each layer
/// evaluates it against *its* clock — which is the same shared clock in
/// any one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: Duration,
}

impl Deadline {
    /// A deadline at the absolute clock reading `at`.
    pub fn at(at: Duration) -> Self {
        Self { at }
    }

    /// A deadline `timeout` from the clock's current reading.
    pub fn after(clock: &dyn Clock, timeout: Duration) -> Self {
        Self {
            at: clock.now().saturating_add(timeout),
        }
    }

    /// The absolute instant of the deadline.
    pub fn instant(self) -> Duration {
        self.at
    }

    /// True once the clock has reached (or passed) the deadline.
    pub fn expired(self, clock: &dyn Clock) -> bool {
        clock.now() >= self.at
    }

    /// Time left before the deadline (zero when expired).
    pub fn remaining(self, clock: &dyn Clock) -> Duration {
        self.at.saturating_sub(clock.now())
    }

    /// The earlier of two deadlines — layering a stricter local bound
    /// under a caller's deadline.
    pub fn min(self, other: Self) -> Self {
        Self {
            at: self.at.min(other.at),
        }
    }
}

// ---------------------------------------------------------------------------
// RetryBudget
// ---------------------------------------------------------------------------

/// A token-bucket retry budget: first attempts are always free, *retries*
/// withdraw a token, and successes deposit about a tenth of one.
///
/// Shared (via `Arc`) by every retry loop that targets the same backend,
/// the bucket bounds the fleet-wide retry amplification factor: with a
/// deposit of 102/1024 of a token per success, steady-state retry
/// traffic can be at most ~10% of the success traffic, and a burst can
/// draw at most the bucket capacity. That is what turns a fault storm
/// into a bounded error spike instead of a self-sustaining retry storm.
///
/// Deterministic: pure integer arithmetic, no clock, no randomness. Token
/// accounting is in millitokens so a fractional deposit needs no floats.
#[derive(Debug)]
pub struct RetryBudget {
    /// Bucket capacity, in millitokens.
    capacity: u64,
    /// Current balance, in millitokens.
    balance: AtomicU64,
    /// Retries granted.
    granted: AtomicU64,
    /// Retries denied (budget empty).
    denied: AtomicU64,
}

/// One retry withdraws this many millitokens.
const RETRY_COST: u64 = 1000;

/// One success deposits 102/1024 of a retry (the classic 10% retry
/// ratio), in millitokens: 99 after integer truncation.
const DEPOSIT: u64 = 102 * RETRY_COST / 1024;

impl RetryBudget {
    /// A budget holding `capacity` retry tokens, starting full, earning
    /// 102/1024 of a token per success.
    pub fn new(capacity: u32) -> Self {
        let capacity = u64::from(capacity) * RETRY_COST;
        Self {
            capacity,
            balance: AtomicU64::new(capacity),
            granted: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        }
    }

    /// Try to pay for one retry. `false` means the budget is exhausted and
    /// the caller must give up instead of retrying.
    pub fn try_withdraw(&self) -> bool {
        let withdraw = |b: u64| b.checked_sub(RETRY_COST);
        let granted = self
            .balance
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, withdraw)
            .is_ok();
        let counter = if granted { &self.granted } else { &self.denied };
        counter.fetch_add(1, Ordering::SeqCst);
        granted
    }

    /// Record one success, earning the deposit fraction back (saturating
    /// at capacity).
    pub fn deposit(&self) {
        let earn = |b: u64| Some((b + DEPOSIT).min(self.capacity)).filter(|&next| next != b);
        let _ = self
            .balance
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, earn);
    }

    /// Whole retry tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.balance.load(Ordering::SeqCst) / RETRY_COST
    }

    /// Retries granted so far.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::SeqCst)
    }

    /// Retries denied so far (each denial is a retry loop giving up).
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

/// Where the breaker's state machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call passes through.
    Closed,
    /// Tripped: every call is rejected without touching the backend.
    Open,
    /// Cooldown elapsed: exactly one probe call is allowed through; its
    /// outcome decides between `Closed` and another `Open` round.
    HalfOpen,
}

/// A deterministic closed / open / half-open circuit breaker.
///
/// `failure_threshold` *consecutive* failures trip the breaker open; it
/// stays open for `cooldown` on the supplied clock reading, then admits a
/// single half-open probe. A probe success closes the breaker (and resets
/// the failure count); a probe failure re-opens it for another cooldown.
///
/// All transitions are pure functions of the recorded outcomes and the
/// clock readings, so a breaker-wrapped client remains fully
/// deterministic under the virtual clock and the schedule explorer.
///
/// **The quiet fast path.** While no failure has been recorded since the
/// last success, `allow` is `true` and `record_success` a no-op whatever
/// the clock says, so both return after one `Acquire` load of `quiet`.
/// Invariant, whenever `core` is unlocked: `quiet` ⇔ `state == Closed &&
/// consecutive_failures == 0` (hence no probe in flight). `quiet` is
/// written only under the lock — cleared by every `record_failure`, set
/// by a slow-path `record_success` — so lock holders see it agree with
/// `core`. Two orderings make the lock-free read exact:
///
/// 1. A reader that still sees `true` read a value before the failure's
///    `false` in `quiet`'s modification order, so it linearizes before
///    that failure, where the mutex-only breaker gives the same answer;
///    a caller ordered after the failure cannot see it, by coherence.
/// 2. `record_success` stores `true` with `Release` after closing
///    `core`, so a fast path whose `Acquire` load reads it acts after
///    that close.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    /// See "The quiet fast path" above.
    quiet: AtomicBool,
    core: Mutex<BreakerCore>,
    /// Calls rejected while open (fast-failed, never sent).
    rejected: AtomicU64,
    /// Times the breaker tripped from closed or half-open to open.
    opened: AtomicU64,
}

#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    /// Clock reading at which the breaker last opened.
    opened_at: Duration,
    /// A half-open probe has been admitted and not yet resolved.
    probe_in_flight: bool,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures and cooling down for `cooldown` before each probe.
    pub fn new(failure_threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold: failure_threshold.max(1),
            cooldown,
            quiet: AtomicBool::new(true),
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                probe_in_flight: false,
            }),
            rejected: AtomicU64::new(0),
            opened: AtomicU64::new(0),
        }
    }

    /// May a call proceed now, on `clock`? `false` is a fast-fail: the
    /// caller must error without touching the backend. Admitting the
    /// half-open probe is part of this call, so concurrent callers cannot
    /// both be "the" probe. A quiet breaker answers `true` without reading
    /// the clock or taking the lock.
    pub fn allow(&self, clock: &dyn Clock) -> bool {
        if self.quiet.load(Ordering::Acquire) {
            return true;
        }
        let now = clock.now();
        let mut core = self.core.lock();
        match core.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= core.opened_at.saturating_add(self.cooldown) {
                    core.state = BreakerState::HalfOpen;
                    core.probe_in_flight = true;
                    true
                } else {
                    self.rejected.fetch_add(1, Ordering::SeqCst);
                    false
                }
            }
            BreakerState::HalfOpen => {
                if core.probe_in_flight {
                    self.rejected.fetch_add(1, Ordering::SeqCst);
                    false
                } else {
                    core.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Record a successful call: closes a half-open breaker, clears the
    /// consecutive-failure count. A no-op, decided by one atomic load, on
    /// a quiet breaker.
    pub fn record_success(&self) {
        if self.quiet.load(Ordering::Acquire) {
            return;
        }
        let mut core = self.core.lock();
        core.consecutive_failures = 0;
        core.probe_in_flight = false;
        core.state = BreakerState::Closed;
        self.quiet.store(true, Ordering::Release);
    }

    /// Record a failed call at clock reading `now`: re-opens a half-open
    /// breaker immediately, trips a closed one at the threshold.
    pub fn record_failure(&self, now: Duration) {
        let mut core = self.core.lock();
        self.quiet.store(false, Ordering::Release);
        match core.state {
            BreakerState::HalfOpen => {
                core.probe_in_flight = false;
                core.state = BreakerState::Open;
                core.opened_at = now;
                self.opened.fetch_add(1, Ordering::SeqCst);
            }
            BreakerState::Closed => {
                core.consecutive_failures += 1;
                if core.consecutive_failures >= self.threshold {
                    core.state = BreakerState::Open;
                    core.opened_at = now;
                    self.opened.fetch_add(1, Ordering::SeqCst);
                }
            }
            // Failures recorded while open (in-flight calls that started
            // before the trip) don't restart the cooldown.
            BreakerState::Open => {}
        }
    }

    /// The state the breaker would act from at clock reading `now`
    /// (reports `HalfOpen` for an open breaker whose cooldown elapsed,
    /// without admitting a probe).
    pub fn state(&self, now: Duration) -> BreakerState {
        let core = self.core.lock();
        match core.state {
            BreakerState::Open if now >= core.opened_at.saturating_add(self.cooldown) => {
                BreakerState::HalfOpen
            }
            s => s,
        }
    }

    /// Calls fast-failed while the breaker was open.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::SeqCst)
    }

    /// Times the breaker has tripped open.
    pub fn times_opened(&self) -> u64 {
        self.opened.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// SlotCounter and FrontDoor
// ---------------------------------------------------------------------------

/// A fixed number of slots, taken and given back without locks: the one
/// bounded-concurrency primitive under [`FrontDoor`] and the service's
/// session pool.
///
/// A slot is taken by one compare-and-swap that succeeds only below
/// capacity, so a refused caller never holds a slot, even for an
/// instant, and never refuses another caller that fits (a
/// fetch-add-then-back-out counter does both).
#[derive(Debug)]
pub struct SlotCounter {
    capacity: usize,
    in_use: AtomicUsize,
    refused: AtomicU64,
}

impl SlotCounter {
    /// A counter of `capacity` slots, all free.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            in_use: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// Take a slot; `None` (counted) when all are taken. Never blocks.
    pub fn try_take(&self) -> Option<Permit<'_>> {
        let fits = |n: usize| (n < self.capacity).then_some(n + 1);
        if self
            .in_use
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, fits)
            .is_ok()
        {
            return Some(Permit { slots: self });
        }
        self.refused.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots taken right now.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Acquire)
    }

    /// Takes refused because every slot was taken.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }
}

/// One taken slot of a [`SlotCounter`]; dropping it gives the slot back.
#[derive(Debug)]
pub struct Permit<'a> {
    slots: &'a SlotCounter,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.slots.in_use.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why the front door refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is full: the request is shed immediately rather
    /// than parked behind work that will miss its deadline anyway.
    Shed,
    /// The app is in read-only degraded mode and the request is a write.
    ReadOnly,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Shed => write!(f, "shed: admission queue full"),
            Rejected::ReadOnly => write!(f, "rejected: app is in read-only degraded mode"),
        }
    }
}

/// Whether an admitted request intends to write.
///
/// Degraded mode only refuses [`Workload::Write`]; reads keep flowing, so
/// a partitioned backend degrades to stale-but-available instead of
/// unavailable — the per-app knob the overload runbooks in the studied
/// applications implement by hand (when they implement it at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only request: admitted even in degraded mode.
    Read,
    /// Mutating request: refused while degraded.
    Write,
}

/// Bounded-concurrency admission control for one application.
///
/// The front door is the first thing a request meets: at most `capacity`
/// requests are in flight at once, and everything beyond that is shed
/// *immediately* ([`Rejected::Shed`]) instead of queueing. Shedding at
/// the door is the anti-metastability move — queued work behind a slow
/// backend keeps deadlines expiring and retries flowing long after the
/// fault clears, while shed work leaves the system the moment it arrives.
///
/// Operators (or the breaker-watching automation in the oracle) can also
/// flip the app into read-only degraded mode: writes are refused with
/// [`Rejected::ReadOnly`] while reads pass, bounding the blast radius of
/// a partitioned write path.
///
/// All state is atomic; the door takes no locks and never blocks. Its
/// in-flight bound is a [`SlotCounter`].
#[derive(Debug)]
pub struct FrontDoor {
    slots: SlotCounter,
    read_only: AtomicBool,
    refused_writes: AtomicU64,
}

/// Counters describing what a [`FrontDoor`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoorStats {
    /// Requests shed because the door was at capacity.
    pub shed: u64,
    /// Writes refused while in read-only degraded mode.
    pub refused_writes: u64,
    /// Requests in flight right now.
    pub in_flight: usize,
}

impl FrontDoor {
    /// A front door admitting at most `capacity` concurrent requests (a
    /// capacity of 0 admits one).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: SlotCounter::new(capacity.max(1)),
            read_only: AtomicBool::new(false),
            refused_writes: AtomicU64::new(0),
        }
    }

    /// Try to admit one request. Returns a [`Permit`] releasing the slot
    /// on drop, or the reason the request was refused. Never blocks.
    pub fn admit(&self, workload: Workload) -> Result<Permit<'_>, Rejected> {
        if workload == Workload::Write && self.read_only.load(Ordering::Acquire) {
            self.refused_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ReadOnly);
        }
        self.slots.try_take().ok_or(Rejected::Shed)
    }

    /// Enter or leave read-only degraded mode.
    pub fn set_read_only(&self, degraded: bool) {
        self.read_only.store(degraded, Ordering::Release);
    }

    /// Is the app currently degraded to read-only?
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Counters so far.
    pub fn stats(&self) -> DoorStats {
        DoorStats {
            shed: self.slots.refused(),
            refused_writes: self.refused_writes.load(Ordering::Relaxed),
            in_flight: self.slots.in_use(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::Arc;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn deadline_is_absolute_on_the_virtual_clock() {
        let clock = VirtualClock::new();
        let d = Deadline::after(&clock, MS(100));
        assert!(!d.expired(&clock));
        assert_eq!(d.remaining(&clock), MS(100));
        clock.advance(MS(60));
        assert_eq!(d.remaining(&clock), MS(40));
        clock.advance(MS(40));
        assert!(d.expired(&clock));
        assert_eq!(d.remaining(&clock), Duration::ZERO);
        // Absolute: re-deriving from the instant gives the same deadline.
        assert_eq!(Deadline::at(d.instant()), d);
        assert_eq!(d.min(Deadline::at(MS(50))), Deadline::at(MS(50)));
    }

    #[test]
    fn budget_bounds_burst_and_earns_back() {
        let b = RetryBudget::new(3);
        assert_eq!(b.tokens(), 3);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "capacity is a hard burst bound");
        assert_eq!(b.granted(), 3);
        assert_eq!(b.denied(), 1);
        // Successes at the ~10% deposit rate (99 millitokens
        // after integer truncation) earn one retry back after 11.
        for _ in 0..11 {
            b.deposit();
        }
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
    }

    #[test]
    fn budget_deposit_saturates_at_capacity() {
        let b = RetryBudget::new(2);
        assert!(b.try_withdraw() && b.try_withdraw());
        for _ in 0..100 {
            b.deposit();
        }
        assert_eq!(b.tokens(), 2);
    }

    #[test]
    fn breaker_trips_cools_probes_and_recovers() {
        let clock = Arc::new(VirtualClock::new());
        let br = CircuitBreaker::new(3, MS(100));
        let now = || clock.now();
        // Two failures: still closed.
        br.record_failure(now());
        br.record_failure(now());
        assert_eq!(br.state(now()), BreakerState::Closed);
        assert!(br.allow(&*clock));
        // Third consecutive failure trips it.
        br.record_failure(now());
        assert_eq!(br.state(now()), BreakerState::Open);
        assert!(!br.allow(&*clock), "open fast-fails");
        assert_eq!(br.rejected(), 1);
        // Cooldown elapses: exactly one probe goes through.
        clock.advance(MS(100));
        assert_eq!(br.state(now()), BreakerState::HalfOpen);
        assert!(br.allow(&*clock), "the probe");
        assert!(!br.allow(&*clock), "only one probe at a time");
        // Probe fails: open again, cooldown restarts from now.
        br.record_failure(now());
        assert!(!br.allow(&*clock));
        clock.advance(MS(100));
        assert!(br.allow(&*clock), "second probe");
        br.record_success();
        assert_eq!(br.state(now()), BreakerState::Closed);
        assert!(br.allow(&*clock));
        assert_eq!(br.times_opened(), 2);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let br = CircuitBreaker::new(2, MS(50));
        br.record_failure(MS(0));
        br.record_success();
        br.record_failure(MS(1));
        assert_eq!(br.state(MS(1)), BreakerState::Closed, "streak was broken");
        br.record_failure(MS(2));
        assert_eq!(br.state(MS(2)), BreakerState::Open);
    }

    /// The breaker before the quiet fast path: every call takes the mutex
    /// and `allow` always reads the clock. The reference the fast path is
    /// checked against.
    struct MutexOnlyBreaker {
        threshold: u32,
        cooldown: Duration,
        core: Mutex<BreakerCore>,
        rejected: AtomicU64,
        opened: AtomicU64,
    }

    impl MutexOnlyBreaker {
        fn new(failure_threshold: u32, cooldown: Duration) -> Self {
            Self {
                threshold: failure_threshold.max(1),
                cooldown,
                core: Mutex::new(BreakerCore {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    opened_at: Duration::ZERO,
                    probe_in_flight: false,
                }),
                rejected: AtomicU64::new(0),
                opened: AtomicU64::new(0),
            }
        }

        fn allow(&self, now: Duration) -> bool {
            let mut core = self.core.lock();
            match core.state {
                BreakerState::Closed => true,
                BreakerState::Open => {
                    if now >= core.opened_at.saturating_add(self.cooldown) {
                        core.state = BreakerState::HalfOpen;
                        core.probe_in_flight = true;
                        true
                    } else {
                        self.rejected.fetch_add(1, Ordering::SeqCst);
                        false
                    }
                }
                BreakerState::HalfOpen => {
                    if core.probe_in_flight {
                        self.rejected.fetch_add(1, Ordering::SeqCst);
                        false
                    } else {
                        core.probe_in_flight = true;
                        true
                    }
                }
            }
        }

        fn record_success(&self) {
            let mut core = self.core.lock();
            core.consecutive_failures = 0;
            core.probe_in_flight = false;
            core.state = BreakerState::Closed;
        }

        fn record_failure(&self, now: Duration) {
            let mut core = self.core.lock();
            match core.state {
                BreakerState::HalfOpen => {
                    core.probe_in_flight = false;
                    core.state = BreakerState::Open;
                    core.opened_at = now;
                    self.opened.fetch_add(1, Ordering::SeqCst);
                }
                BreakerState::Closed => {
                    core.consecutive_failures += 1;
                    if core.consecutive_failures >= self.threshold {
                        core.state = BreakerState::Open;
                        core.opened_at = now;
                        self.opened.fetch_add(1, Ordering::SeqCst);
                    }
                }
                BreakerState::Open => {}
            }
        }

        fn state(&self, now: Duration) -> BreakerState {
            let core = self.core.lock();
            match core.state {
                BreakerState::Open if now >= core.opened_at.saturating_add(self.cooldown) => {
                    BreakerState::HalfOpen
                }
                s => s,
            }
        }
    }

    #[test]
    fn quiet_breaker_matches_the_mutex_only_breaker() {
        use rand::Rng;
        let cooldown = MS(100);
        for seed in 0..400u64 {
            let mut rng = crate::rng::seeded(seed);
            let threshold = rng.gen_range(1..=4);
            let (clock, br, oracle) = (
                VirtualClock::new(),
                CircuitBreaker::new(threshold, cooldown),
                MutexOnlyBreaker::new(threshold, cooldown),
            );
            for step in 0..500 {
                clock.advance(match rng.gen_range(0..4) {
                    0 => Duration::ZERO,
                    1 => Duration::from_nanos(rng.gen_range(1..cooldown.as_nanos() as u64)),
                    2 => cooldown,
                    _ => cooldown + Duration::from_nanos(rng.gen_range(1..1_000_000)),
                });
                let now = clock.now();
                match rng.gen_range(0..3) {
                    0 => assert_eq!(
                        br.allow(&clock),
                        oracle.allow(now),
                        "seed {seed} step {step}"
                    ),
                    1 => {
                        br.record_success();
                        oracle.record_success();
                    }
                    _ => {
                        br.record_failure(now);
                        oracle.record_failure(now);
                    }
                }
                // `state` reads without acting, so it is compared after
                // every step rather than drawn as one.
                assert_eq!(br.state(now), oracle.state(now), "seed {seed} step {step}");
                assert_eq!(
                    (br.rejected(), br.times_opened()),
                    (
                        oracle.rejected.load(Ordering::SeqCst),
                        oracle.opened.load(Ordering::SeqCst)
                    ),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn half_open_admits_exactly_one_probe_under_threads() {
        const THREADS: usize = 8;
        const ROUNDS: u64 = 1_000;
        let clock = VirtualClock::new();
        let br = CircuitBreaker::new(1, MS(100));
        let barrier = std::sync::Barrier::new(THREADS);
        // Release every thread into `allow` at once; count the admitted.
        let race = || {
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            br.allow(&clock)
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|r| r.join().expect("racer panicked"))
                    .filter(|&admitted| admitted)
                    .count()
            })
        };
        for round in 0..ROUNDS {
            br.record_failure(clock.now());
            clock.advance(MS(100));
            assert_eq!(race(), 1, "round {round}: exactly one probe");
            br.record_success();
            assert_eq!(race(), THREADS, "round {round}: closed admits all");
        }
        assert_eq!(br.times_opened(), ROUNDS);
        assert_eq!(br.rejected(), ROUNDS * (THREADS as u64 - 1));
    }

    #[test]
    fn door_bounds_concurrency_and_sheds_the_rest() {
        let door = FrontDoor::new(2);
        let a = door.admit(Workload::Write).unwrap();
        let _b = door.admit(Workload::Read).unwrap();
        assert_eq!(door.admit(Workload::Read).unwrap_err(), Rejected::Shed);
        assert_eq!(door.stats().shed, 1);
        assert_eq!(door.stats().in_flight, 2);
        // Releasing a permit frees the slot immediately.
        drop(a);
        let _c = door.admit(Workload::Write).unwrap();
        assert_eq!(door.stats().in_flight, 2);
    }

    #[test]
    fn read_only_mode_refuses_writes_but_admits_reads() {
        let door = FrontDoor::new(8);
        door.set_read_only(true);
        assert!(door.is_read_only());
        assert_eq!(door.admit(Workload::Write).unwrap_err(), Rejected::ReadOnly);
        let _r = door.admit(Workload::Read).unwrap();
        assert_eq!(door.stats().refused_writes, 1);
        assert_eq!(door.stats().in_flight, 1);
        // Leaving degraded mode restores writes.
        door.set_read_only(false);
        let _w = door.admit(Workload::Write).unwrap();
    }

    #[test]
    fn permits_release_on_panic_unwind() {
        let door = FrontDoor::new(1);
        let result = std::panic::catch_unwind(|| {
            let _p = door.admit(Workload::Write).unwrap();
            panic!("handler died");
        });
        assert!(result.is_err());
        assert_eq!(door.stats().in_flight, 0, "permit released by unwind");
        door.admit(Workload::Write).unwrap();
    }

    /// A refused take must not refuse one that fits. The test holds one
    /// of two slots. F takes the other, holds it for a short spin and
    /// lets go, a million times; N takes and drops as fast as it can,
    /// numbering each attempt first. An F refusal is genuine only if N
    /// held the slot, so some N attempt numbered from just before F's
    /// call to just after it got the slot. Fetch-add-then-back-out lets
    /// N's refused overshoot refuse F.
    #[test]
    fn a_refused_take_never_refuses_one_that_fits() {
        const ROUNDS: usize = 1_000_000;
        let slots = SlotCounter::new(2);
        let _held = slots.try_take().unwrap();
        let attempt = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let (refusals, taken) = std::thread::scope(|s| {
            let n = s.spawn(|| {
                // The numbers of N's attempts that got the slot, ascending.
                let (mut taken, mut k) = (Vec::new(), 0);
                while !done.load(Ordering::Relaxed) {
                    k += 1;
                    attempt.store(k, Ordering::SeqCst);
                    if slots.try_take().is_some() {
                        taken.push(k);
                    }
                }
                taken
            });
            let mut refusals = Vec::new();
            for _ in 0..ROUNDS {
                let first = attempt.load(Ordering::SeqCst);
                let permit = slots.try_take();
                let last = attempt.load(Ordering::SeqCst);
                match permit {
                    Some(_permit) => (0..200).for_each(|_| std::hint::spin_loop()),
                    None => refusals.push((first, last)),
                }
            }
            done.store(true, Ordering::Relaxed);
            (refusals, n.join().unwrap())
        });
        let spurious = refusals
            .iter()
            .filter(|&&(first, last)| {
                let next = taken.partition_point(|&k| k < first);
                taken.get(next).is_none_or(|&k| k > last)
            })
            .count();
        assert_eq!(
            spurious,
            0,
            "{spurious} of {} refusals came with the slot free",
            refusals.len()
        );
        assert_eq!(slots.in_use(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let door = FrontDoor::new(0);
        let _p = door.admit(Workload::Read).unwrap();
        assert_eq!(door.admit(Workload::Read).unwrap_err(), Rejected::Shed);
    }
}
