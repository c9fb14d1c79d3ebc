//! One retry policy for every coordination path.
//!
//! The studied applications each reinvent retry loops: fixed-interval lock
//! polling (Broadleaf's lock table), bounded optimistic-retry loops
//! (Discourse's `WATCH`/`EXEC`), and DBT retry-on-serialization-failure
//! wrappers (§3.4.1). Here they are one [`RetryPolicy`] (attempt budget,
//! deadline, backoff schedule) and one loop, [`RetryPolicy::run`], which
//! decides "try again after how long, or give up?" for the lock polls,
//! the DBT wrapper and the OCC loop alike. A caller may pass a
//! [`RetryObserver`] to hear each decision; no caller outside this
//! module's tests does.
//!
//! Jitter is a pure function of `(seed, stream, attempt)` — the same
//! SplitMix-style mixing as [`crate::rng`], seeded with
//! [`crate::rng::DEFAULT_SEED`] — so a replayed run backs off by identical
//! amounts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Receives retry decisions from [`RetryPolicy::run`].
pub trait RetryObserver: Send + Sync {
    /// Attempt `attempt` (0-based) of `label` failed retryably; the loop
    /// will sleep `delay` and try again.
    fn on_retry(&self, label: &str, attempt: u32, delay: Duration);

    /// The loop for `label` gave up after `attempts` attempts.
    fn on_give_up(&self, label: &str, attempts: u32, reason: &str);
}

/// A bounded retry schedule: how many attempts, within what overall
/// deadline, and how long to back off between them.
///
/// The delay after failed attempt `n` (0-based) is `base · 2ⁿ` clamped to
/// `cap`, moved by up to ±`jitter_ppk`/1024 of itself and clamped again.
/// A fixed interval is `base == cap`: the cap clamps every doubling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (`None` = bounded only by `deadline`).
    pub max_attempts: Option<u32>,
    /// Overall wall-clock budget from the first attempt (`None` = no
    /// deadline).
    pub deadline: Option<Duration>,
    /// Delay after the first failed attempt.
    pub base: Duration,
    /// Upper bound on any single delay, jitter included.
    pub cap: Duration,
    /// Jitter amplitude in parts-per-1024 of the computed delay
    /// (e.g. 256 ≈ ±25%). Zero disables jitter.
    pub jitter_ppk: u32,
}

impl RetryPolicy {
    /// Poll at a fixed `interval` until `timeout` — the lock-acquisition
    /// shape (Broadleaf/Discourse spin-until-timeout).
    pub fn fixed(interval: Duration, timeout: Duration) -> Self {
        Self {
            max_attempts: None,
            deadline: Some(timeout),
            base: interval,
            cap: interval,
            jitter_ppk: 0,
        }
    }

    /// `max_attempts` tries with exponential backoff — `base`, `2·base`,
    /// `4·base`, … capped at `cap` — the DBT/OCC retry-on-conflict shape.
    pub fn exponential(max_attempts: u32, base: Duration, cap: Duration) -> Self {
        Self {
            max_attempts: Some(max_attempts),
            deadline: None,
            base,
            cap,
            jitter_ppk: 0,
        }
    }

    /// Add symmetric jitter of ±`fraction` (clamped to `[0, 1]`) of each
    /// delay.
    pub fn with_jitter(mut self, fraction: f64) -> Self {
        self.jitter_ppk = (fraction.clamp(0.0, 1.0) * 1024.0) as u32;
        self
    }

    /// The delay to wait after failed attempt `attempt` (0-based), for the
    /// given jitter stream. Pure: same inputs, same answer.
    ///
    /// `cap` is a *hard* ceiling: neither attempt-count growth (saturating
    /// shift, so `attempt = u32::MAX` cannot overflow) nor jitter can push
    /// the returned delay past it.
    fn delay(&self, stream: u64, attempt: u32) -> Duration {
        let cap = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut nanos = saturating_shl(base, attempt.min(32)).min(cap);
        if self.jitter_ppk > 0 && nanos > 0 {
            // Offset in [-jitter, +jitter] · delay, in 1/1024ths.
            let amplitude = (nanos / 1024).saturating_mul(u64::from(self.jitter_ppk));
            let span = amplitude.saturating_mul(2).max(1);
            let offset = mix(stream, attempt) % span;
            // Re-clamp after jitter: the upward half of the offset must
            // not carry a capped delay past the cap.
            nanos = nanos
                .saturating_sub(amplitude)
                .saturating_add(offset)
                .min(cap);
        }
        Duration::from_nanos(nanos)
    }

    /// Run `body` under this policy. `retryable` classifies errors; a
    /// non-retryable error returns immediately. On give-up the last error
    /// is wrapped in [`GiveUp`] together with the attempt count.
    ///
    /// `body` gets the 0-based attempt number. After a retryable failure
    /// the loop gives up when the attempt budget is spent or, checked
    /// second, the deadline has passed; otherwise it sleeps the backoff
    /// on the calling thread and tries again. Every decision is reported
    /// to `observer` when provided. A jitter stream is drawn on the first
    /// backoff, so a success or a non-retryable error costs no stream and
    /// no clock read beyond the policy deadline's start.
    pub fn run<T, E>(
        &self,
        label: &'static str,
        observer: Option<&dyn RetryObserver>,
        retryable: impl Fn(&E) -> bool,
        mut body: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, GiveUp<E>> {
        let started = self.deadline.map(|_| Instant::now());
        let mut stream = None;
        let mut attempt = 0;
        loop {
            let error = match body(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let attempts = attempt + 1;
            if !retryable(&error) {
                return Err(GiveUp {
                    error,
                    attempts,
                    retryable: false,
                });
            }
            let spent = if self.max_attempts.is_some_and(|m| attempts >= m) {
                Some("attempts")
            } else if started
                .zip(self.deadline)
                .is_some_and(|(started, d)| started.elapsed() >= d)
            {
                Some("deadline")
            } else {
                None
            };
            if let Some(reason) = spent {
                if let Some(obs) = observer {
                    obs.on_give_up(label, attempts, reason);
                }
                return Err(GiveUp {
                    error,
                    attempts,
                    retryable: true,
                });
            }
            let stream = *stream.get_or_insert_with(|| NEXT_STREAM.fetch_add(1, Ordering::Relaxed));
            let delay = self.delay(stream, attempt);
            if let Some(obs) = observer {
                obs.on_retry(label, attempt, delay);
            }
            backoff_sleep(delay);
            attempt = attempts;
        }
    }
}

/// The jitter hash of `(stream, attempt)` under the workspace seed.
fn mix(stream: u64, attempt: u32) -> u64 {
    crate::rng::splitmix64(
        crate::rng::DEFAULT_SEED
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x94d0_49bb_1331_11eb)),
    )
}

/// `x << shift` that saturates at `u64::MAX` instead of wrapping.
fn saturating_shl(x: u64, shift: u32) -> u64 {
    if x.leading_zeros() < shift {
        u64::MAX
    } else {
        x << shift
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

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    const MS: fn(u64) -> Duration = Duration::from_millis;
    const US: fn(u64) -> Duration = Duration::from_micros;

    #[test]
    fn fixed_backoff_is_constant() {
        let p = RetryPolicy::fixed(MS(5), MS(100));
        assert_eq!(p.delay(0, 0), MS(5));
        assert_eq!(p.delay(0, 9), MS(5));
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let p = RetryPolicy::exponential(1, MS(1), MS(6));
        assert_eq!(p.delay(0, 0), MS(1));
        assert_eq!(p.delay(0, 1), MS(2));
        assert_eq!(p.delay(0, 2), MS(4));
        assert_eq!(p.delay(0, 3), MS(6));
        assert_eq!(p.delay(0, 60), MS(6), "huge shifts cap");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        // cap > base so the jitter band has headroom on both sides.
        let p = RetryPolicy::exponential(1, MS(10), MS(40)).with_jitter(0.25);
        let d1 = p.delay(3, 0);
        assert_eq!(d1, p.delay(3, 0), "same (stream, attempt) -> same delay");
        assert_ne!(
            p.delay(3, 0),
            p.delay(4, 0),
            "different streams decorrelate"
        );
        for stream in 0..32 {
            let d = p.delay(stream, 0);
            assert!(d >= US(7500), "{d:?} below -25%");
            assert!(d <= US(12500), "{d:?} above +25%");
        }
    }

    #[test]
    fn jitter_never_exceeds_the_cap() {
        // At the cap the jitter band's upper half would overshoot; the
        // post-jitter clamp must hold the ceiling on every stream.
        let cap = MS(10);
        let p = RetryPolicy::fixed(cap, MS(100)).with_jitter(0.25);
        let mut below = 0;
        for stream in 0..256 {
            let d = p.delay(stream, 0);
            assert!(d <= cap, "stream {stream}: {d:?} exceeds cap {cap:?}");
            assert!(d >= US(7500), "{d:?} below -25%");
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
        let p = RetryPolicy::exponential(1, MS(1), cap);
        for attempt in [24, 32, 63, 64, 1000, u32::MAX] {
            assert_eq!(p.delay(0, attempt), cap, "attempt {attempt}");
        }
        let jittered = p.with_jitter(1.0);
        for attempt in [63, u32::MAX] {
            for stream in 0..64 {
                assert!(jittered.delay(stream, attempt) <= cap);
            }
        }
        // Degenerate extreme: a base already above the cap stays capped.
        let p = RetryPolicy::exponential(1, Duration::from_secs(u64::MAX), cap).with_jitter(0.5);
        assert!(p.delay(9, u32::MAX) <= cap);
    }

    /// The delays, in nanoseconds, of the three schedules the workspace
    /// runs, for jitter streams 0–4 × attempts 0–40, as recorded before
    /// the backoff schedule was folded into [`RetryPolicy`]. A replayed run
    /// must back off by exactly these amounts.
    #[test]
    fn production_schedules_back_off_by_the_recorded_delays() {
        const DBT: [[u64; 41]; 5] = [
            [
                26_454, 56_883, 78_130, 159_981, 342_696, 588_633, 800_000, 800_000, 800_000,
                690_478, 800_000, 566_383, 800_000, 800_000, 800_000, 800_000, 800_000, 800_000,
                599_141, 731_802, 596_874, 757_812, 800_000, 800_000, 674_420, 405_522, 492_757,
                406_132, 800_000, 556_894, 448_161, 800_000, 800_000, 644_613, 793_703, 800_000,
                635_488, 800_000, 800_000, 800_000, 800_000,
            ],
            [
                31_649, 60_238, 98_021, 128_818, 596_873, 800_000, 800_000, 800_000, 557_619,
                775_152, 706_231, 800_000, 800_000, 800_000, 648_810, 800_000, 800_000, 483_076,
                800_000, 539_498, 800_000, 800_000, 472_668, 800_000, 535_130, 800_000, 800_000,
                800_000, 800_000, 800_000, 555_026, 800_000, 800_000, 571_484, 800_000, 800_000,
                675_150, 772_773, 653_061, 800_000, 771_536,
            ],
            [
                20_856, 31_338, 87_460, 286_628, 324_478, 433_828, 800_000, 800_000, 800_000,
                800_000, 800_000, 800_000, 575_497, 800_000, 800_000, 629_241, 800_000, 588_226,
                550_162, 570_856, 648_718, 420_880, 800_000, 464_072, 800_000, 686_037, 703_516,
                618_620, 473_733, 588_809, 656_225, 800_000, 800_000, 800_000, 773_568, 774_146,
                800_000, 800_000, 800_000, 401_477, 800_000,
            ],
            [
                22_638, 26_564, 85_928, 116_998, 217_594, 469_003, 684_334, 800_000, 800_000,
                736_638, 608_338, 800_000, 800_000, 533_501, 629_063, 800_000, 800_000, 800_000,
                742_750, 624_413, 800_000, 520_779, 589_576, 429_228, 577_751, 800_000, 723_464,
                800_000, 800_000, 800_000, 632_242, 800_000, 764_239, 732_882, 420_143, 679_977,
                610_925, 519_732, 800_000, 595_464, 765_412,
            ],
            [
                19_933, 68_186, 80_679, 204_844, 419_396, 511_380, 575_545, 690_570, 405_839,
                699_776, 435_537, 800_000, 637_500, 687_136, 800_000, 800_000, 647_095, 800_000,
                540_774, 543_296, 480_819, 800_000, 486_003, 625_656, 719_823, 800_000, 800_000,
                800_000, 570_494, 800_000, 493_893, 423_354, 800_000, 769_822, 800_000, 800_000,
                800_000, 528_539, 800_000, 436_929, 800_000,
            ],
        ];
        const LOCK: [[u64; 41]; 5] = [
            [
                4_931_310, 4_894_755, 4_976_082, 4_896_493, 4_611_432, 4_279_705, 4_004_069,
                4_755_658, 3_758_340, 5_000_000, 5_000_000, 3_802_799, 4_618_506, 4_997_039,
                4_038_921, 4_244_533, 4_447_684, 4_628_209, 4_284_069, 4_863_194, 4_004_298,
                4_228_724, 4_861_030, 4_057_984, 4_628_660, 5_000_000, 5_000_000, 4_987_060,
                5_000_000, 5_000_000, 5_000_000, 4_059_731, 5_000_000, 5_000_000, 5_000_000,
                4_398_938, 4_747_424, 5_000_000, 5_000_000, 4_777_673, 5_000_000,
            ],
            [
                4_749_113, 5_000_000, 3_879_813, 5_000_000, 4_067_913, 3_956_423, 4_997_415,
                5_000_000, 5_000_000, 4_280_880, 4_551_927, 3_794_692, 5_000_000, 4_420_373,
                4_830_378, 3_816_956, 4_559_406, 5_000_000, 5_000_000, 5_000_000, 4_750_885,
                4_332_060, 3_886_236, 4_928_559, 5_000_000, 5_000_000, 4_490_775, 5_000_000,
                4_487_388, 5_000_000, 4_273_746, 5_000_000, 4_351_100, 5_000_000, 4_371_714,
                3_961_211, 4_581_262, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
            ],
            [
                5_000_000, 5_000_000, 3_853_892, 4_140_452, 4_067_902, 5_000_000, 4_823_344,
                5_000_000, 4_740_102, 4_937_245, 5_000_000, 5_000_000, 5_000_000, 4_546_320,
                5_000_000, 4_539_449, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 4_993_102,
                3_817_040, 5_000_000, 5_000_000, 4_371_433, 5_000_000, 5_000_000, 3_752_636,
                4_789_445, 5_000_000, 5_000_000, 4_009_505, 4_167_550, 5_000_000, 4_325_376,
                4_151_874, 4_718_955, 5_000_000, 5_000_000, 4_363_909, 5_000_000,
            ],
            [
                5_000_000, 5_000_000, 5_000_000, 4_091_654, 4_864_186, 5_000_000, 5_000_000,
                5_000_000, 5_000_000, 5_000_000, 4_263_570, 4_845_021, 5_000_000, 5_000_000,
                5_000_000, 5_000_000, 4_355_286, 4_468_966, 5_000_000, 5_000_000, 5_000_000,
                5_000_000, 3_937_608, 5_000_000, 5_000_000, 4_386_824, 3_878_984, 5_000_000,
                5_000_000, 5_000_000, 4_043_762, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
                4_457_065, 4_096_173, 5_000_000, 4_746_685, 5_000_000, 4_519_972,
            ],
            [
                5_000_000, 4_444_234, 3_883_975, 3_761_708, 4_205_828, 4_809_684, 5_000_000,
                4_187_082, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
                3_823_615, 4_293_254, 3_991_031, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
                4_039_594, 5_000_000, 3_886_648, 3_967_503, 4_452_842, 4_080_706, 4_654_858,
                3_928_766, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 3_880_286, 4_598_174,
                4_915_289, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
            ],
        ];
        const CURED: [u64; 41] = [
            20_000, 40_000, 80_000, 160_000, 320_000, 500_000, 500_000, 500_000, 500_000, 500_000,
            500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000,
            500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000,
            500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000, 500_000,
            500_000, 500_000, 500_000, 500_000,
        ];
        // `Database::run_with_retries(_, 1000, _)`: the DBT wrapper.
        let dbt = RetryPolicy::exponential(1001, US(25), US(800)).with_jitter(0.5);
        // `AcquireConfig::default().policy()`: the polling locks.
        let lock = RetryPolicy::fixed(MS(5), Duration::from_secs(10)).with_jitter(0.25);
        // `adhoc_apps::cured_policy()`: no jitter, so every stream agrees.
        let cured = RetryPolicy::exponential(100_000, US(20), US(500));
        for stream in 0..5 {
            for attempt in 0..41 {
                let at = |p: &RetryPolicy| p.delay(stream as u64, attempt as u32).as_nanos();
                let case = format!("stream {stream}, attempt {attempt}");
                assert_eq!(at(&dbt), u128::from(DBT[stream][attempt]), "DBT {case}");
                assert_eq!(at(&lock), u128::from(LOCK[stream][attempt]), "lock {case}");
                assert_eq!(at(&cured), u128::from(CURED[attempt]), "cured {case}");
            }
        }
    }

    #[test]
    fn run_returns_first_success() {
        let policy = RetryPolicy::exponential(5, US(10), US(100));
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
        let policy = RetryPolicy::exponential(5, US(10), US(100));
        let out: Result<(), GiveUp<&str>> =
            policy.run("t", None, |e| *e != "fatal", |_| Err("fatal"));
        let give_up = out.unwrap_err();
        assert!(!give_up.retryable);
        assert_eq!(give_up.attempts, 1);
    }

    #[test]
    fn run_exhausts_attempt_budget() {
        let policy = RetryPolicy::exponential(3, US(10), US(50));
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
    fn run_gives_up_after_deadline() {
        let policy = RetryPolicy::fixed(MS(1), MS(5));
        let started = Instant::now();
        let mut calls = 0;
        let out: Result<(), GiveUp<&str>> = policy.run(
            "t",
            None,
            |_| true,
            |_| {
                calls += 1;
                assert!(calls < 1000, "the deadline never gave up");
                Err("busy")
            },
        );
        let give_up = out.unwrap_err();
        assert!(give_up.retryable);
        assert!(calls >= 2, "a 1 ms poll retries within a 5 ms deadline");
        assert_eq!(give_up.attempts, calls);
        assert!(started.elapsed() < Duration::from_secs(1));
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

    /// The attempts `run` gives up after, and the events it reports, for a
    /// body that always fails retryably.
    fn give_up_and_events(policy: RetryPolicy) -> (u32, Vec<String>) {
        let rec = Recorder(Mutex::new(Vec::new()));
        let out: Result<(), GiveUp<&str>> =
            policy.run("poll", Some(&rec), |_| true, |_| Err("busy"));
        let give_up = out.unwrap_err();
        assert!(give_up.retryable);
        (give_up.attempts, rec.0.into_inner())
    }

    #[test]
    fn run_reports_what_ran_out() {
        // Each limit gives up after exactly the attempts it allows, and
        // names itself: the attempt budget first, then the deadline (here
        // spent at the first failure, with an unbounded attempt budget).
        let ns = Duration::from_nanos(1);
        let (attempts, events) = give_up_and_events(RetryPolicy::exponential(3, ns, ns));
        assert_eq!(attempts, 3);
        assert_eq!(
            events,
            ["retry poll#0", "retry poll#1", "give-up poll@3 (attempts)"]
        );
        let (attempts, events) = give_up_and_events(RetryPolicy::fixed(ns, Duration::ZERO));
        assert_eq!(attempts, 1);
        assert_eq!(events, ["give-up poll@1 (deadline)"]);
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
}
