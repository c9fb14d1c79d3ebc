//! Reproducible randomness.
//!
//! Experiments take an explicit seed so that a reported run can be replayed
//! bit-for-bit; helpers here centralize construction so every crate derives
//! per-thread streams the same way.
//!
//! Beyond the seeded generators, this module carries the samplers the
//! open-loop traffic harness (`adhoc-traffic`) is built from: a [`Zipfian`]
//! key chooser (production key popularity is skewed, not uniform), and the
//! [`PoissonProcess`] / [`BurstyProcess`] arrival processes that model
//! millions of independent clients sending requests without waiting for
//! each other's replies. All three are pure functions of their seed, so a
//! reported traffic run — including any SLO violation it surfaced —
//! replays bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The workspace-wide default seed used by examples and the harness when the
/// user does not supply one.
pub const DEFAULT_SEED: u64 = 0x5157_4d0d_2022_0612;

/// A seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A per-worker stream derived from a base seed.
///
/// SplitMix-style mixing keeps adjacent worker ids from producing correlated
/// streams, which matters when workers pick contended keys.
pub fn for_worker(base_seed: u64, worker: u64) -> StdRng {
    let mut z = base_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(worker.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// SplitMix64 finalizer, used to scramble zipfian ranks into key ids so the
/// popular keys are not clustered at the low end of the keyspace.
fn splitmix_hash(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// YCSB-style zipfian generator over `0..n`.
///
/// Rank 0 is the most popular item; with YCSB's skew `theta = 0.99` the top
/// item draws a few percent of all samples from a million-item population,
/// which is the skew the paper's subject apps see on hot rows (a viral post,
/// a flash-sale SKU). `next_scrambled` spreads the popular ranks across the
/// keyspace with a SplitMix hash so that popularity and key adjacency are
/// uncorrelated.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    /// YCSB's skew parameter, the one every workload draws with.
    pub const THETA: f64 = 0.99;

    /// A zipfian distribution over `0..n` with skew [`Self::THETA`].
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "zipfian population must be non-empty");
        let theta = Self::THETA;
        let zeta_n = Self::zeta(n);
        let zeta_2 = Self::zeta(2.min(n));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Self {
            n,
            alpha,
            zeta_n,
            eta,
        }
    }

    fn zeta(n: u64) -> f64 {
        // O(n) precompute; fine for the populations we model (≤ a few
        // million) because it runs once per harness construction.
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(Self::THETA);
        }
        sum
    }

    /// Number of items in the population.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest.
    pub fn next_rank(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(Self::THETA) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draw a key in `0..n` with hot ranks scattered across the keyspace.
    pub fn next_scrambled(&self, rng: &mut impl Rng) -> u64 {
        splitmix_hash(self.next_rank(rng)) % self.n
    }
}

/// Open-loop Poisson arrival process.
///
/// Interarrival gaps are exponential with the configured rate, generated by
/// inverse CDF from the seeded stream, and accumulated into absolute instants
/// on the virtual-clock timeline. Arrivals never depend on completions —
/// that independence is what makes queueing delay compound past saturation
/// instead of self-throttling the way a closed-loop bench does.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rng: StdRng,
    rate_per_sec: f64,
    next_at: Duration,
}

impl PoissonProcess {
    /// A Poisson process with `rate_per_sec` expected arrivals per second.
    pub fn new(seed: u64, rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        let mut p = Self {
            rng: seeded(seed),
            rate_per_sec,
            next_at: Duration::ZERO,
        };
        p.advance();
        p
    }

    fn advance(&mut self) {
        let u: f64 = self.rng.gen();
        // 1 - u is in (0, 1], so the log is finite and non-positive.
        let gap_secs = -(1.0 - u).ln() / self.rate_per_sec;
        self.next_at += Duration::from_nanos((gap_secs * 1e9) as u64);
    }

    /// The instant of the next arrival (absolute, from process start).
    pub fn peek(&self) -> Duration {
        self.next_at
    }

    /// Consume and return the next arrival instant.
    pub fn next_arrival(&mut self) -> Duration {
        let at = self.next_at;
        self.advance();
        at
    }

    /// Drain every arrival at or before `now` (exclusive of later ones).
    pub fn drain_until(&mut self, now: Duration) -> Vec<Duration> {
        let mut out = Vec::new();
        while self.next_at <= now {
            out.push(self.next_arrival());
        }
        out
    }
}

/// Bursty arrivals: a Poisson process whose rate alternates between a base
/// phase and a burst phase on a fixed cadence.
///
/// Deterministic phase boundaries (rather than random ones) keep the load
/// curve identical across configurations being ablated, so a goodput
/// difference is attributable to the stack and not to the traffic draw.
#[derive(Debug, Clone)]
pub struct BurstyProcess {
    rng: StdRng,
    base_rate: f64,
    burst_rate: f64,
    period: Duration,
    burst_fraction: f64,
    next_at: Duration,
}

impl BurstyProcess {
    /// Alternate `base_rate` and `burst_rate` (arrivals/sec); each `period`
    /// spends its first `burst_fraction` in the burst phase.
    pub fn new(
        seed: u64,
        base_rate: f64,
        burst_rate: f64,
        period: Duration,
        burst_fraction: f64,
    ) -> Self {
        assert!(
            base_rate > 0.0 && burst_rate > 0.0,
            "rates must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&burst_fraction),
            "burst_fraction must be in [0, 1]"
        );
        assert!(!period.is_zero(), "period must be positive");
        let mut p = Self {
            rng: seeded(seed),
            base_rate,
            burst_rate,
            period,
            burst_fraction,
            next_at: Duration::ZERO,
        };
        p.advance();
        p
    }

    fn rate_at(&self, t: Duration) -> f64 {
        let phase = t.as_nanos() % self.period.as_nanos();
        let burst_end = (self.period.as_nanos() as f64 * self.burst_fraction) as u128;
        if phase < burst_end {
            self.burst_rate
        } else {
            self.base_rate
        }
    }

    fn advance(&mut self) {
        let rate = self.rate_at(self.next_at);
        let u: f64 = self.rng.gen();
        let gap_secs = -(1.0 - u).ln() / rate;
        self.next_at += Duration::from_nanos((gap_secs * 1e9) as u64);
    }

    /// The instant of the next arrival (absolute, from process start).
    pub fn peek(&self) -> Duration {
        self.next_at
    }

    /// Consume and return the next arrival instant.
    pub fn next_arrival(&mut self) -> Duration {
        let at = self.next_at;
        self.advance();
        at
    }

    /// Drain every arrival at or before `now`.
    pub fn drain_until(&mut self, now: Duration) -> Vec<Duration> {
        let mut out = Vec::new();
        while self.next_at <= now {
            out.push(self.next_arrival());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<u32> = seeded(7)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = seeded(7)
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_workers_get_different_streams() {
        let a: u64 = for_worker(1, 0).gen();
        let b: u64 = for_worker(1, 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn worker_streams_are_stable_across_calls() {
        let a: u64 = for_worker(42, 3).gen();
        let b: u64 = for_worker(42, 3).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn zipfian_same_seed_same_stream() {
        let z = Zipfian::new(1_000_000);
        let mut a_rng = seeded(9);
        let mut b_rng = seeded(9);
        let a: Vec<u64> = (0..64).map(|_| z.next_rank(&mut a_rng)).collect();
        let b: Vec<u64> = (0..64).map(|_| z.next_rank(&mut b_rng)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let z = Zipfian::new(1_000_000);
        let mut rng = seeded(DEFAULT_SEED);
        let n = 20_000;
        let hot = (0..n).filter(|_| z.next_rank(&mut rng) < 100).count() as f64;
        // With theta=0.99 the top 100 of a million items draw far more than
        // their uniform share (100/1M = 0.01%); demand at least 10%.
        assert!(
            hot / n as f64 > 0.10,
            "expected skew toward hot ranks, got {hot}/{n}"
        );
    }

    #[test]
    fn zipfian_ranks_stay_in_range() {
        let z = Zipfian::new(37);
        let mut rng = seeded(3);
        for _ in 0..5_000 {
            assert!(z.next_rank(&mut rng) < 37);
            assert!(z.next_scrambled(&mut rng) < 37);
        }
    }

    #[test]
    fn zipfian_scramble_moves_the_hot_keys() {
        let z = Zipfian::new(1_000_000);
        let mut rng = seeded(11);
        let ranks: Vec<u64> = (0..256).map(|_| z.next_rank(&mut rng)).collect();
        let mut rng = seeded(11);
        let keys: Vec<u64> = (0..256).map(|_| z.next_scrambled(&mut rng)).collect();
        assert_ne!(ranks, keys, "scrambling should rename the hot items");
    }

    #[test]
    fn poisson_same_seed_same_stream() {
        let mut a = PoissonProcess::new(5, 1000.0);
        let mut b = PoissonProcess::new(5, 1000.0);
        let xs: Vec<Duration> = (0..64).map(|_| a.next_arrival()).collect();
        let ys: Vec<Duration> = (0..64).map(|_| b.next_arrival()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_near_rate() {
        let mut p = PoissonProcess::new(DEFAULT_SEED, 10_000.0);
        let mut prev = Duration::ZERO;
        let mut last = Duration::ZERO;
        let n = 10_000;
        for _ in 0..n {
            let at = p.next_arrival();
            assert!(at >= prev, "arrivals must be non-decreasing");
            prev = at;
            last = at;
        }
        // 10k arrivals at 10k/sec should take about a second.
        let secs = last.as_secs_f64();
        assert!(
            (0.9..1.1).contains(&secs),
            "10k arrivals at 10k/s took {secs}s"
        );
    }

    #[test]
    fn poisson_drain_until_is_exclusive_of_later_arrivals() {
        let mut p = PoissonProcess::new(1, 100.0);
        let horizon = Duration::from_millis(100);
        let drained = p.drain_until(horizon);
        for at in &drained {
            assert!(*at <= horizon);
        }
        assert!(p.peek() > horizon);
    }

    #[test]
    fn bursty_same_seed_same_stream() {
        let mk = || BurstyProcess::new(8, 100.0, 1000.0, Duration::from_secs(1), 0.2);
        let mut a = mk();
        let mut b = mk();
        let xs: Vec<Duration> = (0..64).map(|_| a.next_arrival()).collect();
        let ys: Vec<Duration> = (0..64).map(|_| b.next_arrival()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn bursty_burst_phase_is_denser() {
        let mut p = BurstyProcess::new(2, 100.0, 2000.0, Duration::from_secs(1), 0.25);
        let mut in_burst = 0u32;
        let mut in_base = 0u32;
        for _ in 0..4_000 {
            let at = p.next_arrival();
            let phase_ns = at.as_nanos() % 1_000_000_000;
            if phase_ns < 250_000_000 {
                in_burst += 1;
            } else {
                in_base += 1;
            }
        }
        // Burst phase is 1/4 of wall time at 20x the rate: expect the large
        // majority of arrivals to land inside it.
        assert!(
            in_burst > in_base * 2,
            "burst {in_burst} vs base {in_base} — burst phase should dominate"
        );
    }
}
