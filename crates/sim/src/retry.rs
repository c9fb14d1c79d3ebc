//! One retry/backoff policy for every coordination path.
//!
//! The studied applications each reinvent retry loops: fixed-interval lock
//! polling (Broadleaf's lock table), bounded optimistic-retry loops
//! (Discourse's `WATCH`/`EXEC`), and DBT retry-on-serialization-failure
//! wrappers (§3.4.1). Before this module the workspace mirrored that
//! fragmentation — three hand-rolled loops with their own backoff
//! arithmetic. [`RetryPolicy`] centralizes the decision ("try again after
//! how long, or give up?") so every path shares one implementation, one
//! deterministic jitter source, and one observation hook.
//!
//! Jitter is a pure function of `(seed, stream, attempt)` — the same
//! SplitMix-style mixing as [`crate::rng`] — so a replayed run backs off by
//! identical amounts.

use crate::clock::{Clock, SharedClock};
use crate::resilience::{Deadline, RetryBudget};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backoff sleep that turns into a scheduling point under the
/// deterministic scheduler (see [`crate::sched`]): a scheduled task must
/// never block the wall clock, it yields and lets another task run.
fn backoff_sleep(delay: Duration) {
    if !crate::sched::yield_instead_of_sleep() {
        std::thread::sleep(delay);
    }
}

/// Distinguishes concurrent retry loops sharing one policy so their jitter
/// streams decorrelate (thread A and thread B must not sleep in lockstep).
static NEXT_STREAM: AtomicU64 = AtomicU64::new(0);

/// How long to wait before attempt `n + 1` after attempt `n` failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first failed attempt.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Double the delay each attempt when true; constant otherwise.
    pub exponential: bool,
    /// Jitter amplitude in parts-per-1024 of the computed delay
    /// (e.g. 256 ≈ ±25%). Zero disables jitter.
    pub jitter_ppk: u32,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl BackoffPolicy {
    /// Constant `interval` between attempts, no jitter.
    pub fn fixed(interval: Duration) -> Self {
        Self {
            base: interval,
            cap: interval,
            exponential: false,
            jitter_ppk: 0,
            seed: 0,
        }
    }

    /// Exponential: `base`, `2·base`, `4·base`, … capped at `cap`.
    pub fn exponential(base: Duration, cap: Duration) -> Self {
        Self {
            base,
            cap,
            exponential: true,
            jitter_ppk: 0,
            seed: 0,
        }
    }

    /// Add symmetric jitter of ±`fraction` (clamped to `[0, 1]`) of each
    /// delay.
    pub fn with_jitter(mut self, fraction: f64) -> Self {
        self.jitter_ppk = (fraction.clamp(0.0, 1.0) * 1024.0) as u32;
        self
    }

    /// Seed the jitter hash (defaults to 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn mix(&self, stream: u64, attempt: u32) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x94d0_49bb_1331_11eb));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The delay to wait after failed attempt `attempt` (0-based), for the
    /// given jitter stream. Pure: same inputs, same answer.
    ///
    /// `cap` is a *hard* ceiling: neither attempt-count growth (saturating
    /// shift, so `attempt = u32::MAX` cannot overflow) nor jitter can push
    /// the returned delay past it.
    pub fn delay(&self, stream: u64, attempt: u32) -> Duration {
        let cap = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut nanos = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.exponential {
            let shift = attempt.min(32);
            nanos = nanos.saturating_shl(shift).min(cap);
        }
        nanos = nanos.min(cap);
        if self.jitter_ppk > 0 && nanos > 0 {
            // Offset in [-jitter, +jitter] · delay, in 1/1024ths.
            let amplitude = (nanos / 1024).saturating_mul(u64::from(self.jitter_ppk));
            let span = amplitude.saturating_mul(2).max(1);
            let offset = self.mix(stream, attempt) % span;
            // Re-clamp after jitter: the upward half of the offset must
            // not carry a capped delay past the cap.
            nanos = nanos
                .saturating_sub(amplitude)
                .saturating_add(offset)
                .min(cap);
        }
        Duration::from_nanos(nanos)
    }
}

/// Receives retry decisions; implemented by the hazard monitor.
pub trait RetryObserver: Send + Sync {
    /// Attempt `attempt` (0-based) of `label` failed retryably; the loop
    /// will sleep `delay` and try again.
    fn on_retry(&self, label: &str, attempt: u32, delay: Duration);

    /// The loop for `label` gave up after `attempts` attempts.
    fn on_give_up(&self, label: &str, attempts: u32, reason: &str);
}

/// A bounded retry schedule: how many attempts, with what backoff, within
/// what overall deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (`None` = bounded only by `deadline`).
    pub max_attempts: Option<u32>,
    /// Delay schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Overall wall-clock budget from the first attempt (`None` = no
    /// deadline).
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// Poll at a fixed `interval` until `timeout` — the lock-acquisition
    /// shape (Broadleaf/Discourse spin-until-timeout).
    pub fn fixed(interval: Duration, timeout: Duration) -> Self {
        Self {
            max_attempts: None,
            backoff: BackoffPolicy::fixed(interval),
            deadline: Some(timeout),
        }
    }

    /// `max_attempts` tries with exponential backoff — the DBT/OCC
    /// retry-on-conflict shape.
    pub fn exponential(max_attempts: u32, base: Duration, cap: Duration) -> Self {
        Self {
            max_attempts: Some(max_attempts),
            backoff: BackoffPolicy::exponential(base, cap),
            deadline: None,
        }
    }

    /// Replace the backoff schedule.
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Set/replace the overall deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Start a stateful timer for one acquisition/retry loop.
    pub fn timer(&self, label: &'static str) -> RetryTimer {
        RetryTimer {
            policy: *self,
            label,
            stream: NEXT_STREAM.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
            attempts: 0,
            budget: None,
            clock_deadline: None,
        }
    }

    /// Run `body` under this policy. `retryable` classifies errors; a
    /// non-retryable error returns immediately. On give-up the last error
    /// is wrapped in [`GiveUp`] together with the attempt count.
    ///
    /// Sleeps on the calling thread between attempts and reports every
    /// decision to `observer` when provided.
    pub fn run<T, E>(
        &self,
        label: &str,
        observer: Option<&dyn RetryObserver>,
        retryable: impl Fn(&E) -> bool,
        body: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, GiveUp<E>> {
        self.run_resilient(label, observer, Resilience::default(), retryable, body)
    }

    /// [`run`](RetryPolicy::run) under an external resilience context: an
    /// absolute [`Deadline`] on a caller-supplied clock (checked before
    /// every retry, so a retry loop can never outlive its request) and a
    /// shared [`RetryBudget`] (each retry withdraws a token and an
    /// exhausted budget ends the loop; success deposits back).
    pub fn run_resilient<T, E>(
        &self,
        label: &str,
        observer: Option<&dyn RetryObserver>,
        ctx: Resilience<'_>,
        retryable: impl Fn(&E) -> bool,
        mut body: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, GiveUp<E>> {
        // Both the jitter stream and the deadline clock are only needed
        // once an attempt fails; the success path pays neither.
        let mut stream: Option<u64> = None;
        let started = self.deadline.map(|_| Instant::now());
        let mut attempt = 0u32;
        loop {
            match body(attempt) {
                Ok(v) => {
                    if let Some(budget) = ctx.budget {
                        budget.deposit();
                    }
                    return Ok(v);
                }
                Err(e) => {
                    let attempts = attempt + 1;
                    if !retryable(&e) {
                        return Err(GiveUp {
                            error: e,
                            attempts,
                            retryable: false,
                        });
                    }
                    let budget_left = self.max_attempts.is_none_or(|m| attempts < m);
                    let time_left = match (self.deadline, started) {
                        (Some(d), Some(started)) => started.elapsed() < d,
                        _ => true,
                    };
                    let deadline_left = match (ctx.deadline, ctx.clock) {
                        (Some(d), Some(clock)) => !d.expired(clock),
                        _ => true,
                    };
                    let tokens_left = deadline_left && ctx.budget.is_none_or(|b| b.try_withdraw());
                    if !budget_left || !time_left || !deadline_left || !tokens_left {
                        if let Some(obs) = observer {
                            let reason = if !budget_left {
                                "attempts"
                            } else if !deadline_left {
                                "deadline"
                            } else if !tokens_left {
                                "retry-budget"
                            } else {
                                "deadline"
                            };
                            obs.on_give_up(label, attempts, reason);
                        }
                        return Err(GiveUp {
                            error: e,
                            attempts,
                            retryable: true,
                        });
                    }
                    let stream =
                        *stream.get_or_insert_with(|| NEXT_STREAM.fetch_add(1, Ordering::Relaxed));
                    let delay = self.backoff.delay(stream, attempt);
                    if let Some(obs) = observer {
                        obs.on_retry(label, attempt, delay);
                    }
                    backoff_sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

/// Why [`RetryPolicy::run`] returned an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GiveUp<E> {
    /// The last error observed.
    pub error: E,
    /// Total attempts made (≥ 1).
    pub attempts: u32,
    /// True when the policy ran out of budget on a retryable error; false
    /// when the error itself was non-retryable.
    pub retryable: bool,
}

impl<E: fmt::Display> fmt::Display for GiveUp<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.retryable {
            write!(
                f,
                "gave up after {} attempts: {}",
                self.attempts, self.error
            )
        } else {
            write!(f, "non-retryable: {}", self.error)
        }
    }
}

/// External resilience context for one [`RetryPolicy::run_resilient`]
/// call: an absolute deadline evaluated on a caller-supplied clock, and a
/// shared retry budget. Both optional and independent.
#[derive(Clone, Copy, Default)]
pub struct Resilience<'a> {
    /// Clock the deadline is evaluated against.
    pub clock: Option<&'a dyn Clock>,
    /// Absolute give-up point; checked before every retry.
    pub deadline: Option<Deadline>,
    /// Shared token bucket; every retry withdraws, every success deposits.
    pub budget: Option<&'a RetryBudget>,
}

impl<'a> Resilience<'a> {
    /// A context bounding the loop by `deadline` on `clock`.
    pub fn with_deadline(clock: &'a dyn Clock, deadline: Deadline) -> Self {
        Self {
            clock: Some(clock),
            deadline: Some(deadline),
            budget: None,
        }
    }

    /// Attach a shared retry budget.
    pub fn with_budget(mut self, budget: &'a RetryBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

impl fmt::Debug for Resilience<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resilience")
            .field("deadline", &self.deadline)
            .field("has_clock", &self.clock.is_some())
            .field("has_budget", &self.budget.is_some())
            .finish()
    }
}

/// Stateful companion for hand-written polling loops (lock acquisition):
/// call [`next_delay`](RetryTimer::next_delay) after each failed attempt;
/// `None` means the policy says give up.
pub struct RetryTimer {
    policy: RetryPolicy,
    label: &'static str,
    stream: u64,
    started: Instant,
    attempts: u32,
    /// Shared retry budget: each `next_delay` withdraws one token.
    budget: Option<Arc<RetryBudget>>,
    /// Absolute deadline on a shared clock, checked before every retry.
    clock_deadline: Option<(SharedClock, Deadline)>,
}

impl fmt::Debug for RetryTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryTimer")
            .field("policy", &self.policy)
            .field("label", &self.label)
            .field("attempts", &self.attempts)
            .field("has_budget", &self.budget.is_some())
            .field("deadline", &self.clock_deadline.as_ref().map(|(_, d)| *d))
            .finish()
    }
}

impl RetryTimer {
    /// Attach a shared [`RetryBudget`]: each retry decision withdraws one
    /// token, and an empty bucket turns the decision into give-up.
    pub fn with_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Bound the loop by an absolute [`Deadline`] on `clock`, layered
    /// under the policy's own attempt/timeout limits.
    pub fn until(mut self, clock: SharedClock, deadline: Deadline) -> Self {
        self.clock_deadline = Some((clock, deadline));
        self
    }

    /// Record a failed attempt. Returns the delay to sleep before the next
    /// attempt, or `None` when the attempt budget, deadline, or shared
    /// retry budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        let attempt = self.attempts;
        self.attempts += 1;
        let budget_left = self.policy.max_attempts.is_none_or(|m| self.attempts < m);
        let time_left = self
            .policy
            .deadline
            .is_none_or(|d| self.started.elapsed() < d);
        let deadline_left = self
            .clock_deadline
            .as_ref()
            .is_none_or(|(clock, d)| !d.expired(clock.as_ref()));
        if !budget_left || !time_left || !deadline_left {
            return None;
        }
        if let Some(budget) = &self.budget {
            if !budget.try_withdraw() {
                return None;
            }
        }
        Some(self.policy.backoff.delay(self.stream, attempt))
    }

    /// [`next_delay`](RetryTimer::next_delay) + sleep + observer reporting:
    /// returns `false` when the policy gives up (reported to `observer`),
    /// `true` after sleeping out the backoff.
    pub fn wait(&mut self, observer: Option<&dyn RetryObserver>) -> bool {
        let attempt = self.attempts;
        match self.next_delay() {
            Some(delay) => {
                if let Some(obs) = observer {
                    obs.on_retry(self.label, attempt, delay);
                }
                backoff_sleep(delay);
                true
            }
            None => {
                if let Some(obs) = observer {
                    obs.on_give_up(self.label, self.attempts, "timeout");
                }
                false
            }
        }
    }

    /// Failed attempts recorded so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The loop label this timer reports under.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

/// `u64::checked_shl` that saturates instead of wrapping to zero.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if shift >= 64 {
            return u64::MAX;
        }
        if self.leading_zeros() < shift {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn fixed_backoff_is_constant() {
        let b = BackoffPolicy::fixed(Duration::from_millis(5));
        assert_eq!(b.delay(0, 0), Duration::from_millis(5));
        assert_eq!(b.delay(0, 9), Duration::from_millis(5));
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let b = BackoffPolicy::exponential(Duration::from_millis(1), Duration::from_millis(6));
        assert_eq!(b.delay(0, 0), Duration::from_millis(1));
        assert_eq!(b.delay(0, 1), Duration::from_millis(2));
        assert_eq!(b.delay(0, 2), Duration::from_millis(4));
        assert_eq!(b.delay(0, 3), Duration::from_millis(6));
        assert_eq!(b.delay(0, 60), Duration::from_millis(6), "huge shifts cap");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        // cap > base so the jitter band has headroom on both sides.
        let b = BackoffPolicy::exponential(Duration::from_millis(10), Duration::from_millis(40))
            .with_jitter(0.25);
        let d1 = b.delay(3, 0);
        assert_eq!(d1, b.delay(3, 0), "same (stream, attempt) -> same delay");
        assert_ne!(
            b.delay(3, 0),
            b.delay(4, 0),
            "different streams decorrelate"
        );
        for stream in 0..32 {
            let d = b.delay(stream, 0);
            assert!(d >= Duration::from_micros(7500), "{d:?} below -25%");
            assert!(d <= Duration::from_micros(12500), "{d:?} above +25%");
        }
    }

    #[test]
    fn jitter_never_exceeds_the_cap() {
        // At the cap the jitter band's upper half would overshoot; the
        // post-jitter clamp must hold the ceiling on every stream.
        let cap = Duration::from_millis(10);
        let b = BackoffPolicy::fixed(cap).with_jitter(0.25);
        let mut below = 0;
        for stream in 0..256 {
            let d = b.delay(stream, 0);
            assert!(d <= cap, "stream {stream}: {d:?} exceeds cap {cap:?}");
            assert!(d >= Duration::from_micros(7500), "{d:?} below -25%");
            below += usize::from(d < cap);
        }
        assert!(below > 0, "jitter must still vary below the cap");
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        // The other edge: attempt-count growth. Shifting by u32::MAX must
        // saturate (not wrap to zero or overflow), landing exactly on the
        // cap — with and without jitter.
        let cap = Duration::from_secs(2);
        let b = BackoffPolicy::exponential(Duration::from_millis(1), cap);
        for attempt in [24, 32, 63, 64, 1000, u32::MAX] {
            assert_eq!(b.delay(0, attempt), cap, "attempt {attempt}");
        }
        let jittered = b.with_jitter(1.0);
        for attempt in [63, u32::MAX] {
            for stream in 0..64 {
                assert!(jittered.delay(stream, attempt) <= cap);
            }
        }
        // Degenerate extreme: a base already above the cap stays capped.
        let b = BackoffPolicy::exponential(Duration::from_secs(u64::MAX), cap).with_jitter(0.5);
        assert!(b.delay(9, u32::MAX) <= cap);
    }

    #[test]
    fn run_returns_first_success() {
        let policy =
            RetryPolicy::exponential(5, Duration::from_micros(10), Duration::from_micros(100));
        let mut calls = 0;
        let out: Result<u32, GiveUp<&str>> = policy.run(
            "t",
            None,
            |_| true,
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err("busy")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_stops_on_non_retryable() {
        let policy =
            RetryPolicy::exponential(5, Duration::from_micros(10), Duration::from_micros(100));
        let out: Result<(), GiveUp<&str>> =
            policy.run("t", None, |e| *e != "fatal", |_| Err("fatal"));
        let give_up = out.unwrap_err();
        assert!(!give_up.retryable);
        assert_eq!(give_up.attempts, 1);
    }

    #[test]
    fn run_exhausts_attempt_budget() {
        let policy =
            RetryPolicy::exponential(3, Duration::from_micros(10), Duration::from_micros(50));
        let mut calls = 0;
        let out: Result<(), GiveUp<&str>> = policy.run(
            "t",
            None,
            |_| true,
            |_| {
                calls += 1;
                Err("busy")
            },
        );
        let give_up = out.unwrap_err();
        assert!(give_up.retryable);
        assert_eq!(give_up.attempts, 3);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_respects_deadline() {
        let policy = RetryPolicy::fixed(Duration::from_millis(2), Duration::from_millis(10));
        let started = Instant::now();
        let out: Result<(), GiveUp<&str>> = policy.run("t", None, |_| true, |_| Err("busy"));
        assert!(out.is_err());
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn timer_gives_up_after_deadline() {
        let policy = RetryPolicy::fixed(Duration::from_millis(1), Duration::from_millis(5));
        let mut timer = policy.timer("t");
        let mut waits = 0;
        while timer.wait(None) {
            waits += 1;
            assert!(waits < 1000, "timer never gave up");
        }
        assert!(waits >= 1);
        assert_eq!(timer.attempts(), waits + 1);
    }

    #[test]
    fn timer_respects_attempt_budget() {
        let policy =
            RetryPolicy::exponential(3, Duration::from_micros(1), Duration::from_micros(1));
        let mut timer = policy.timer("t");
        assert!(timer.next_delay().is_some());
        assert!(timer.next_delay().is_some());
        assert!(
            timer.next_delay().is_none(),
            "third failure exhausts 3 attempts"
        );
    }

    struct Recorder(Mutex<Vec<String>>);

    impl RetryObserver for Recorder {
        fn on_retry(&self, label: &str, attempt: u32, _delay: Duration) {
            self.0.lock().push(format!("retry {label}#{attempt}"));
        }
        fn on_give_up(&self, label: &str, attempts: u32, reason: &str) {
            self.0
                .lock()
                .push(format!("give-up {label}@{attempts} ({reason})"));
        }
    }

    #[test]
    fn run_resilient_stops_at_the_clock_deadline() {
        use crate::clock::VirtualClock;
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, Duration::from_millis(10));
        let policy =
            RetryPolicy::exponential(1000, Duration::from_nanos(1), Duration::from_nanos(1));
        let mut calls = 0u32;
        let out: Result<(), GiveUp<&str>> = policy.run_resilient(
            "t",
            None,
            Resilience::with_deadline(&clock, deadline),
            |_| true,
            |_| {
                calls += 1;
                clock.advance(Duration::from_millis(6));
                Err("busy")
            },
        );
        let give_up = out.unwrap_err();
        assert!(give_up.retryable);
        // First failure at t=6ms: deadline not reached, retry. Second at
        // t=12ms: expired — give up without burning the attempt budget.
        assert_eq!(calls, 2);
    }

    #[test]
    fn run_resilient_respects_and_refills_the_shared_budget() {
        let budget = RetryBudget::with_deposit_ppk(2, 0);
        let policy =
            RetryPolicy::exponential(1000, Duration::from_nanos(1), Duration::from_nanos(1));
        let ctx = Resilience::default().with_budget(&budget);
        let mut calls = 0u32;
        let out: Result<(), GiveUp<&str>> = policy.run_resilient(
            "t",
            None,
            ctx,
            |_| true,
            |_| {
                calls += 1;
                Err("busy")
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 3, "2 tokens = first try + 2 retries");
        assert_eq!(budget.denied(), 1);
        // Successes deposit back into the same bucket.
        let budget = RetryBudget::with_deposit_ppk(1, 1024);
        assert!(budget.try_withdraw());
        let ctx = Resilience::default().with_budget(&budget);
        let out: Result<u32, GiveUp<&str>> = policy.run_resilient("t", None, ctx, |_| true, Ok);
        assert_eq!(out.unwrap(), 0);
        assert_eq!(budget.tokens(), 1, "the success earned the token back");
    }

    #[test]
    fn timer_honors_clock_deadline_and_budget() {
        use crate::clock::VirtualClock;
        let clock = Arc::new(VirtualClock::new());
        let shared: SharedClock = clock.clone();
        let policy =
            RetryPolicy::exponential(1000, Duration::from_nanos(1), Duration::from_nanos(1));
        let deadline = Deadline::after(shared.as_ref(), Duration::from_millis(5));
        let mut timer = policy.timer("t").until(shared.clone(), deadline);
        assert!(timer.next_delay().is_some());
        clock.advance(Duration::from_millis(5));
        assert!(timer.next_delay().is_none(), "deadline expired");

        let budget = Arc::new(RetryBudget::with_deposit_ppk(1, 0));
        let mut timer = policy.timer("t").with_budget(Arc::clone(&budget));
        assert!(timer.next_delay().is_some());
        assert!(timer.next_delay().is_none(), "bucket empty");
        assert_eq!(budget.denied(), 1);
    }

    #[test]
    fn observer_sees_retries_and_give_up() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let policy =
            RetryPolicy::exponential(2, Duration::from_micros(1), Duration::from_micros(1));
        let out: Result<(), GiveUp<&str>> =
            policy.run("occ", Some(&rec), |_| true, |_| Err("busy"));
        assert!(out.is_err());
        let events = rec.0.into_inner();
        assert_eq!(events, vec!["retry occ#0", "give-up occ@2 (attempts)"]);
    }

    #[test]
    fn observer_is_silent_on_success_and_hard_errors() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let policy = RetryPolicy::exponential(4, Duration::ZERO, Duration::ZERO);
        let ok: Result<u32, GiveUp<&str>> = policy.run("ok", Some(&rec), |_| true, |_| Ok(7));
        assert_eq!(ok.unwrap(), 7);
        let hard: Result<(), GiveUp<&str>> =
            policy.run("hard", Some(&rec), |_| false, |_| Err("fatal"));
        assert!(!hard.unwrap_err().retryable);
        assert!(
            rec.0.into_inner().is_empty(),
            "no retry happened, so the observer must hear nothing"
        );
    }

    #[test]
    fn observer_reports_deadline_exhaustion_as_deadline() {
        let rec = Recorder(Mutex::new(Vec::new()));
        // Deadline already spent at the first failure; the attempt budget
        // (unbounded) is not the binding constraint.
        let policy = RetryPolicy::fixed(Duration::ZERO, Duration::ZERO);
        let out: Result<(), GiveUp<&str>> =
            policy.run("poll", Some(&rec), |_| true, |_| Err("busy"));
        assert_eq!(out.unwrap_err().attempts, 1);
        assert_eq!(rec.0.into_inner(), vec!["give-up poll@1 (deadline)"]);
    }
}
