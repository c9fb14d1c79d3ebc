//! The open-loop tick harness and the front-door ablation sweep.
//!
//! **Open loop** is the operative phrase: arrivals are fixed by a
//! Poisson (or bursty) process on the virtual clock and do not slow down
//! when the service falls behind — exactly the regime where a web tier
//! either sheds load deliberately or collapses into serving only stale
//! work. Each run drives one [`Service`] configuration at one offered
//! load; the sweep crosses the three front-door arms
//! ([`StackConfig::naive`] / [`StackConfig::breaker_only`] /
//! [`StackConfig::full`]) with load levels below and past saturation.
//!
//! The reproduction target is the *shape*, not absolute numbers: below
//! saturation all three arms meet the latency SLO; past saturation the
//! full front door plateaus at capacity (refusing and shedding the
//! excess at the edge) while the naive stack's goodput — completions
//! *within the SLO* — decays toward zero even though it is still "doing
//! work", and a breaker alone does not save it, because breakers guard a
//! failing backend, not a healthy backend drowning in queued work.
//! Rendered to `BENCH_traffic.json` by `paper-eval bench-json`.

use crate::workload::{average_cost_units, MixedWorkload, CLIENT_POPULATION};
use adhoc_service::{Service, ServiceError, StackConfig};
use adhoc_sim::rng::{BurstyProcess, PoissonProcess};
use adhoc_sim::{Clock, Histogram, VirtualClock};
use std::sync::Arc;
use std::time::Duration;

/// Workspace-wide reproduction seed.
pub const SEED: u64 = adhoc_sim::rng::DEFAULT_SEED;
/// Tick length: the service drains its queue once per tick.
pub const TICK: Duration = Duration::from_millis(10);
/// The latency SLO a completion must meet to count as goodput.
pub const SLO: Duration = Duration::from_millis(200);

/// How an offered-load level generates arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless Poisson arrivals at the level's mean rate.
    Poisson,
    /// Phase-modulated bursts: quiet troughs, 4x peaks, same mean.
    Bursty,
}

impl ArrivalKind {
    fn label(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Bursty => "bursty",
        }
    }
}

enum Arrivals {
    Poisson(PoissonProcess),
    Bursty(BurstyProcess),
}

impl Arrivals {
    fn new(kind: ArrivalKind, seed: u64, mean_rps: f64) -> Self {
        match kind {
            ArrivalKind::Poisson => Arrivals::Poisson(PoissonProcess::new(seed, mean_rps)),
            ArrivalKind::Bursty => {
                // burst_fraction 0.25 at 4x the trough rate gives the same
                // mean: 0.25*4r + 0.75*(4r/7)*... — solved directly below.
                // mean = f*burst + (1-f)*base with burst = 4*base:
                // mean = base*(0.25*4 + 0.75) = 1.75*base.
                let base = mean_rps / 1.75;
                Arrivals::Bursty(BurstyProcess::new(
                    seed,
                    base,
                    4.0 * base,
                    Duration::from_millis(200),
                    0.25,
                ))
            }
        }
    }

    fn drain_until(&mut self, now: Duration) -> Vec<Duration> {
        match self {
            Arrivals::Poisson(p) => p.drain_until(now),
            Arrivals::Bursty(b) => b.drain_until(now),
        }
    }
}

/// Run sizing: ticks, measurement window, seeded rows, load levels.
#[derive(Debug, Clone)]
pub struct TrafficScale {
    /// Total ticks per run.
    pub ticks: u64,
    /// Tick index measurement starts at (everything before is warm-up —
    /// long enough for an overloaded naive queue to outgrow the SLO).
    pub measure_from: u64,
    /// Seeded rows per application (object population).
    pub objects: u64,
    /// Service capacity per tick, in endpoint cost units.
    pub capacity_units: u32,
    /// Offered load levels as multiples of the saturation rate.
    pub levels: Vec<f64>,
}

impl TrafficScale {
    /// The paper-scale sweep (seconds of virtual time per run).
    pub fn paper() -> Self {
        Self {
            ticks: 300,
            measure_from: 100,
            objects: 128,
            capacity_units: 64,
            levels: vec![0.5, 0.9, 1.5, 2.0],
        }
    }

    /// CI smoke: two levels either side of saturation, shorter runs.
    pub fn smoke() -> Self {
        Self {
            ticks: 120,
            measure_from: 60,
            objects: 32,
            capacity_units: 64,
            levels: vec![0.5, 2.0],
        }
    }

    /// `BENCH_SCALE=smoke` selects the smoke sizing.
    pub fn from_env() -> Self {
        match std::env::var("BENCH_SCALE").as_deref() {
            Ok("smoke") => Self::smoke(),
            _ => Self::paper(),
        }
    }

    /// Requests per second at which offered work equals service capacity.
    pub fn saturation_rps(&self) -> f64 {
        let per_tick = f64::from(self.capacity_units) / average_cost_units();
        per_tick * (1.0 / TICK.as_secs_f64())
    }
}

/// One measured (config, load level, arrival kind) cell.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Front-door arm (`naive`, `breaker_only`, `full`).
    pub config: &'static str,
    /// Offered load as a multiple of saturation.
    pub load_x: f64,
    /// Arrival process label.
    pub arrivals: &'static str,
    /// Requests offered per second inside the measurement window.
    pub offered_rps: f64,
    /// Completions *within the SLO* per second inside the window.
    pub goodput_rps: f64,
    /// Requests served to a successful response in the window.
    pub served: u64,
    /// Served responses that met the SLO.
    pub good: u64,
    /// Latency quantiles of served responses (milliseconds).
    pub p50_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th percentile latency (ms).
    pub p999_ms: f64,
    /// Refused by the per-client rate limiter in the window.
    pub rate_limited: u64,
    /// Refused at the arrival-queue cap in the window.
    pub queue_full: u64,
    /// Shed past patience in the window.
    pub shed: u64,
    /// Backend failures (retries exhausted) in the window.
    pub failed: u64,
    /// Arrival-queue depth when the run ended.
    pub end_queue: usize,
}

/// Run one (config, level, arrival-kind) cell.
pub fn run_cell(
    config: StackConfig,
    load_x: f64,
    kind: ArrivalKind,
    scale: &TrafficScale,
) -> TrafficRow {
    let clock = Arc::new(VirtualClock::new());
    let service = Service::new(clock.clone(), config, scale.objects);
    let mean_rps = load_x * scale.saturation_rps();
    let mut arrivals = Arrivals::new(kind, SEED ^ (load_x.to_bits()), mean_rps);
    let mut mix = MixedWorkload::new(
        SEED.wrapping_add(load_x.to_bits()),
        CLIENT_POPULATION,
        scale.objects,
    );

    let window_start = TICK * u32::try_from(scale.measure_from).expect("ticks fit u32");
    let mut hist = Histogram::new();
    let mut offered = 0u64;
    let mut served = 0u64;
    let mut good = 0u64;
    let mut rate_limited = 0u64;
    let mut queue_full = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;

    for tick in 0..scale.ticks {
        clock.advance(TICK);
        let now = clock.now();
        let in_window = tick >= scale.measure_from;
        for arrived in arrivals.drain_until(now) {
            let req = mix.next_request(arrived);
            if in_window {
                offered += 1;
            }
            match service.offer(req) {
                Ok(()) => {}
                Err(e) if in_window => match e {
                    ServiceError::RateLimited => rate_limited += 1,
                    ServiceError::QueueFull => queue_full += 1,
                    _ => failed += 1,
                },
                Err(_) => {}
            }
        }
        for done in service.run_tick(now, scale.capacity_units) {
            if done.finished < window_start {
                continue;
            }
            match done.outcome {
                Ok(()) => {
                    served += 1;
                    let latency = done.finished.saturating_sub(done.request.arrived);
                    hist.record(latency);
                    if latency <= SLO {
                        good += 1;
                    }
                }
                Err(ServiceError::Shed) => shed += 1,
                Err(_) => failed += 1,
            }
        }
    }

    let window_secs = TICK.as_secs_f64() * (scale.ticks - scale.measure_from) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1000.0;
    TrafficRow {
        config: config.name,
        load_x,
        arrivals: kind.label(),
        offered_rps: offered as f64 / window_secs,
        goodput_rps: good as f64 / window_secs,
        served,
        good,
        p50_ms: ms(hist.p50()),
        p99_ms: ms(hist.p99()),
        p999_ms: ms(hist.p999()),
        rate_limited,
        queue_full,
        shed,
        failed,
        end_queue: service.queue_depth(),
    }
}

/// The full ablation: three arms × every load level, plus a bursty cell
/// at nominal load for each arm.
pub fn traffic_sweep(scale: &TrafficScale) -> Vec<TrafficRow> {
    let configs = [
        StackConfig::naive(),
        StackConfig::breaker_only(),
        StackConfig::full(),
    ];
    let mut rows = Vec::new();
    for config in configs {
        for &level in &scale.levels {
            rows.push(run_cell(config, level, ArrivalKind::Poisson, scale));
        }
        rows.push(run_cell(config, 1.0, ArrivalKind::Bursty, scale));
    }
    rows
}

/// Render the sweep as `BENCH_traffic.json`.
pub fn render_traffic_json(rows: &[TrafficRow], scale: &TrafficScale) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"traffic_slo\",\n");
    out.push_str("  \"unit\": \"goodput_rps\",\n");
    out.push_str(&format!("  \"slo_ms\": {},\n", SLO.as_millis()));
    out.push_str(&format!("  \"tick_ms\": {},\n", TICK.as_millis()));
    out.push_str(&format!("  \"clients\": {CLIENT_POPULATION},\n"));
    out.push_str(&format!(
        "  \"saturation_rps\": {:.1},\n",
        scale.saturation_rps()
    ));
    out.push_str(&format!(
        "  \"window_ticks\": [{}, {}],\n",
        scale.measure_from, scale.ticks
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"config\": \"{}\", \"load_x\": {:.2}, \"arrivals\": \"{}\", \"offered_rps\": {:.1}, \"goodput_rps\": {:.1}, \"served\": {}, \"good\": {}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"p999_ms\": {:.2}, \"rate_limited\": {}, \"queue_full\": {}, \"shed\": {}, \"failed\": {}, \"end_queue\": {}}}{}\n",
            r.config,
            r.load_x,
            r.arrivals,
            r.offered_rps,
            r.goodput_rps,
            r.served,
            r.good,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            r.rate_limited,
            r.queue_full,
            r.shed,
            r.failed,
            r.end_queue,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Convenience used by `paper-eval bench-json` (`BENCH_SCALE` aware).
pub fn traffic_bench_json() -> String {
    let scale = TrafficScale::from_env();
    render_traffic_json(&traffic_sweep(&scale), &scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(config: StackConfig, load_x: f64) -> TrafficRow {
        run_cell(config, load_x, ArrivalKind::Poisson, &TrafficScale::smoke())
    }

    #[test]
    fn sub_saturation_meets_the_slo_on_every_arm() {
        for config in [
            StackConfig::naive(),
            StackConfig::breaker_only(),
            StackConfig::full(),
        ] {
            let row = cell(config, 0.5);
            assert!(
                row.p99_ms <= SLO.as_millis() as f64,
                "{}: p99 {}ms",
                row.config,
                row.p99_ms
            );
            assert!(
                row.goodput_rps >= 0.8 * row.offered_rps,
                "{}: goodput {} of offered {}",
                row.config,
                row.goodput_rps,
                row.offered_rps
            );
        }
    }

    #[test]
    fn full_plateaus_past_saturation_naive_collapses() {
        let full_sub = cell(StackConfig::full(), 0.5);
        let full_over = cell(StackConfig::full(), 2.0);
        let naive_sub = cell(StackConfig::naive(), 0.5);
        let naive_over = cell(StackConfig::naive(), 2.0);
        let breaker_over = cell(StackConfig::breaker_only(), 2.0);
        assert!(
            full_over.goodput_rps >= 0.5 * full_sub.goodput_rps,
            "full collapsed: {} vs {}",
            full_over.goodput_rps,
            full_sub.goodput_rps
        );
        assert!(
            naive_over.goodput_rps <= 0.15 * naive_sub.goodput_rps,
            "naive did not collapse: {} vs {}",
            naive_over.goodput_rps,
            naive_sub.goodput_rps
        );
        assert!(
            breaker_over.goodput_rps <= 0.15 * naive_sub.goodput_rps,
            "a breaker alone should not rescue overload: {}",
            breaker_over.goodput_rps
        );
        // The naive stack is still *busy* — it serves plenty, all late.
        assert!(naive_over.served > 0);
        assert!(naive_over.end_queue > full_over.end_queue);
    }

    #[test]
    fn same_seed_reproduces_identical_json() {
        let scale = TrafficScale::smoke();
        let a = render_traffic_json(&traffic_sweep(&scale), &scale);
        let b = render_traffic_json(&traffic_sweep(&scale), &scale);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_json_is_well_formed() {
        let scale = TrafficScale::smoke();
        let json = render_traffic_json(&traffic_sweep(&scale), &scale);
        assert!(json.contains("\"traffic_slo\""));
        assert!(json.contains("\"full\""));
        assert!(json.contains("\"breaker_only\""));
        assert!(json.contains("\"naive\""));
        assert!(json.contains("\"bursty\""));
    }
}
