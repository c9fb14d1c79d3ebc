//! One repetition: fresh process, fresh state, a closed-loop phase then
//! an open-loop phase over the pre-generated request vectors.

use crate::stats::percentile;
use crate::system::{Apps, Tally};
use crate::trace::SpanLog;
use crate::workload::{Requests, Target, Workload};
use adhoc_service::{Endpoint, Request, Service, StackConfig};
use adhoc_sim::{Clock, RealClock};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open-loop request succeeds only if it completes within this long of
/// its due time. Fixed for all workloads.
pub const SLO: Duration = Duration::from_micros(1000);

/// `run_tick` budget: the largest `Endpoint::cost()`, so a tick always
/// serves the request at the head of the queue.
const TICK_BUDGET: u32 = 4;

/// Systems built per repetition; `setup_s` is the median of their build
/// times and the last one built is the one measured.
const SETUPS: usize = 3;

/// `StackConfig::full()` with two limits raised so nothing is refused.
/// The hottest zipfian client sends ~6% of all requests, far above the
/// preset's 200/s at these request rates. And this box's host stalls the
/// VM for 1–4 ms a few times a second, during which `svc_read`'s 200,000
/// req/s would overrun the preset's 256-deep queue; the queue stays
/// bounded, only deeper.
pub fn stack_config() -> StackConfig {
    StackConfig {
        client_rate_per_sec: 10_000_000,
        queue_cap: Some(1 << 16),
        ..StackConfig::full()
    }
}

/// A finished request.
pub struct Done {
    pub request: Request,
    /// False for a failed, shed or refused request.
    pub ok: bool,
}

/// What the two loops drive: something that queues requests and serves
/// them.
pub trait Sut {
    /// Arrival. False if the request was refused at the edge.
    fn offer(&mut self, req: Request) -> bool;
    /// Serve queued work at instant `now`, at least one request if any is
    /// queued, pushing one [`Done`] per finished request.
    fn serve(&mut self, now: Duration, done: &mut Vec<Done>);
    /// Output checks from public read APIs after `offered` requests;
    /// `Ok` carries a digest of the final state where one is defined.
    fn check(&self, offered: u64) -> Result<Option<u64>, String>;
}

pub struct ServiceSut(pub Service);

impl Sut for ServiceSut {
    fn offer(&mut self, req: Request) -> bool {
        self.0.offer(req).is_ok()
    }

    fn serve(&mut self, now: Duration, done: &mut Vec<Done>) {
        done.extend(self.0.run_tick(now, TICK_BUDGET).into_iter().map(|c| Done {
            ok: c.outcome.is_ok(),
            request: c.request,
        }));
    }

    fn check(&self, offered: u64) -> Result<Option<u64>, String> {
        let s = self.0.stats();
        let refused = s.rate_limited + s.queue_full + s.read_only_refused;
        if s.served + s.failed + s.shed + refused != offered || self.0.queue_depth() != 0 {
            return Err(format!("service stats {s:?} do not add up to {offered}"));
        }
        Ok(None)
    }
}

/// The handlers behind a FIFO the benchmark owns (one worker).
pub struct HandlerSut {
    pub apps: Apps,
    queue: VecDeque<Request>,
    tally: Tally,
}

impl HandlerSut {
    pub fn new(apps: Apps) -> Self {
        Self {
            apps,
            queue: VecDeque::new(),
            tally: Tally::default(),
        }
    }
}

impl Sut for HandlerSut {
    fn offer(&mut self, req: Request) -> bool {
        self.queue.push_back(req);
        true
    }

    fn serve(&mut self, _now: Duration, done: &mut Vec<Done>) {
        if let Some(request) = self.queue.pop_front() {
            let outcome = self.apps.dispatch(&request);
            if let Ok(succeeded) = outcome {
                self.tally.record(request.endpoint, succeeded);
            }
            done.push(Done {
                ok: outcome.is_ok(),
                request,
            });
        }
    }

    fn check(&self, _offered: u64) -> Result<Option<u64>, String> {
        self.apps.check(&self.tally).map(Some)
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

pub struct Closed {
    pub wall_ns: u64,
    /// Per-request time, in request order.
    pub lat_ns: Vec<u32>,
    pub failed: u64,
}

/// One caller, next request only after the previous one completed. Each
/// request is timed from the clock read that ended the previous one, so
/// the samples add up to the wall time. `on_request(request, start_ns,
/// end_ns)` is where a traced run records its span.
pub fn closed_loop<S: Sut>(
    sut: &mut S,
    clock: &RealClock,
    reqs: &[Request],
    mut on_request: impl FnMut(&Request, u64, u64),
) -> Closed {
    let mut lat_ns = Vec::with_capacity(reqs.len());
    let mut done = Vec::with_capacity(TICK_BUDGET as usize);
    let mut failed = 0;
    let start = clock.now();
    let mut t_prev = start;
    for req in reqs {
        let accepted = sut.offer(Request {
            arrived: t_prev,
            ..*req
        });
        sut.serve(t_prev, &mut done);
        let t = clock.now();
        if !(accepted && done.len() == 1 && done[0].ok) {
            failed += 1;
        }
        done.clear();
        lat_ns.push(ns(t - t_prev) as u32);
        on_request(req, ns(t_prev), ns(t));
        t_prev = t;
    }
    Closed {
        wall_ns: ns(t_prev - start),
        lat_ns,
        failed,
    }
}

pub struct Open {
    /// Per request, in request order: time from its due time to the
    /// return of the call that completed it; `u32::MAX` if it failed,
    /// was refused or shed, or never completed.
    pub lat_ns: Vec<u32>,
    /// How far behind its due time each request was offered.
    pub late_ns: Vec<u32>,
    pub failed: u64,
}

/// Arrivals on a schedule regardless of completions: offer every request
/// that is due, then serve once, so the system under test owns the queue
/// and a stall delays every request behind it. Request ids must be
/// consecutive.
pub fn open_loop<S: Sut>(sut: &mut S, clock: &RealClock, reqs: &[Request]) -> Open {
    let n = reqs.len();
    let first_id = reqs.first().map_or(0, |r| r.id);
    let mut out = Open {
        lat_ns: vec![u32::MAX; n],
        late_ns: Vec::with_capacity(n),
        failed: 0,
    };
    let mut done = Vec::new();
    let mut next = 0;
    let mut finished = 0;
    let t0 = clock.now();
    while finished < n {
        let now = clock.now() - t0;
        while next < n && reqs[next].arrived <= now {
            out.late_ns.push(ns(now - reqs[next].arrived) as u32);
            if !sut.offer(reqs[next]) {
                finished += 1;
            }
            next += 1;
        }
        sut.serve(now, &mut done);
        if done.is_empty() {
            // Nothing queued: idle until the next request is due.
            let Some(due) = reqs.get(next).map(|r| r.arrived) else {
                break;
            };
            while clock.now() - t0 < due {
                std::hint::spin_loop();
            }
            continue;
        }
        let end = clock.now() - t0;
        for d in done.drain(..) {
            finished += 1;
            if d.ok {
                let lat = ns(end - d.request.arrived).min(u64::from(u32::MAX) - 1);
                out.lat_ns[(d.request.id - first_id) as usize] = lat as u32;
            }
        }
    }
    out.failed = out.lat_ns.iter().filter(|&&l| l == u32::MAX).count() as u64;
    out
}

/// Per-request times of one repetition (or the per-request minimum over
/// several): what every latency and throughput metric is computed from.
pub struct Samples {
    /// Closed-loop time per request, in request order.
    pub closed: Vec<u32>,
    /// Open-loop time from due time per request, in request order;
    /// `u32::MAX` for a request that did not succeed.
    pub open: Vec<u32>,
}

/// The latency and throughput metrics of a set of samples.
pub struct Timings {
    pub throughput_rps: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub open_p99_us: f64,
    pub goodput_frac: f64,
}

impl Samples {
    /// Keep, per request, the smaller of this and `other`'s time.
    pub fn fold_min(&mut self, other: &Samples) {
        for (mine, theirs) in [
            (&mut self.closed, &other.closed),
            (&mut self.open, &other.open),
        ] {
            assert_eq!(mine.len(), theirs.len());
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m = (*m).min(*t);
            }
        }
    }

    pub fn timings(&self) -> Timings {
        let us = |ns: u32| f64::from(ns) / 1000.0;
        let total_ns: u64 = self.closed.iter().map(|&l| u64::from(l)).sum();
        let mut closed = self.closed.clone();
        let mut open = self.open.clone();
        closed.sort_unstable();
        open.sort_unstable();
        let good = open.partition_point(|&l| u64::from(l) <= ns(SLO));
        Timings {
            throughput_rps: closed.len() as f64 / (total_ns as f64 / 1e9),
            lat_p50_us: us(percentile(&closed, 0.5)),
            lat_p99_us: us(percentile(&closed, 0.99)),
            open_p99_us: us(percentile(&open, 0.99)),
            goodput_frac: good as f64 / open.len() as f64,
        }
    }

    /// Little-endian `u32`s, closed then open.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes: Vec<u8> = self
            .closed
            .iter()
            .chain(&self.open)
            .flat_map(|l| l.to_le_bytes())
            .collect();
        std::fs::write(path, bytes)
    }

    /// Read what [`write`](Self::write) wrote for workload `w`.
    pub fn read(path: &std::path::Path, w: &Workload) -> std::io::Result<Samples> {
        let bytes = std::fs::read(path)?;
        if bytes.len() != 4 * (w.closed_n + w.open_n) {
            return Err(std::io::Error::other("sample file has the wrong length"));
        }
        let mut all: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let open = all.split_off(w.closed_n);
        Ok(Samples { closed: all, open })
    }
}

/// Build the workload's system under test `SETUPS` times; returns the
/// last one and the median build time.
fn set_up<S>(build: impl Fn() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut sut = None;
    for _ in 0..SETUPS {
        drop(sut.take());
        let t = Instant::now();
        sut = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (sut.expect("SETUPS > 0"), times[SETUPS / 2])
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `name value` lines a repetition prints for its parent.
pub type Lines = Vec<(String, f64)>;

fn measure<S: Sut>(
    w: &Workload,
    reqs: &Requests,
    build: impl Fn() -> S,
    clock: &RealClock,
) -> (Lines, Samples) {
    let (mut sut, setup_s) = set_up(build);
    let closed = closed_loop(&mut sut, clock, &reqs.closed, |_, _, _| {});
    let mut check = sut.check(w.closed_n as u64);
    let mut open = open_loop(&mut sut, clock, &reqs.open);
    if check.is_ok() {
        check = sut.check((w.closed_n + w.open_n) as u64);
    }
    let peak_rss_mb = peak_rss_mb();
    open.late_ns.sort_unstable();
    let samples = Samples {
        closed: closed.lat_ns,
        open: open.lat_ns,
    };
    let t = samples.timings();
    let mut report: Lines = vec![
        ("setup_s".into(), setup_s),
        ("throughput_rps".into(), t.throughput_rps),
        ("lat_p50_us".into(), t.lat_p50_us),
        ("lat_p99_us".into(), t.lat_p99_us),
        ("open_p99_us".into(), t.open_p99_us),
        ("goodput_frac".into(), t.goodput_frac),
        ("peak_rss_mb".into(), peak_rss_mb),
        (
            "gen_late_p99_us".into(),
            f64::from(percentile(&open.late_ns, 0.99)) / 1000.0,
        ),
        ("failed".into(), (closed.failed + open.failed) as f64),
    ];
    match check {
        Ok(digest) => {
            report.push(("correct".into(), 1.0));
            if let Some(d) = digest {
                // Two 32-bit halves: an f64 carries each exactly.
                report.push(("digest_hi".into(), (d >> 32) as f64));
                report.push(("digest_lo".into(), (d & 0xffff_ffff) as f64));
            }
        }
        Err(why) => {
            eprintln!("{}: output check failed: {why}", w.name);
            report.push(("correct".into(), 0.0));
        }
    }
    (report, samples)
}

/// The untraced repetition every end-to-end metric comes from.
pub fn run(w: &Workload, seed: u64) -> (Lines, Samples) {
    let reqs = w.requests(seed);
    let clock = Arc::new(RealClock::new());
    let (report, samples) = match w.target {
        Target::Service => measure(
            w,
            &reqs,
            || ServiceSut(Service::new(clock.clone(), stack_config(), w.objects)),
            &clock,
        ),
        Target::Handlers { mode, wal } => measure(
            w,
            &reqs,
            || HandlerSut::new(Apps::build(mode, wal, w.objects)),
            &clock,
        ),
    };
    (report, samples)
}

/// The traced repetition: the closed-loop vector replayed with one span
/// per request. For a service workload it is replayed twice on
/// identically seeded state, through `Service` (span `service`) and
/// straight into the handlers (span named by the endpoint, child of the
/// service span of the same request), so service self time is duration
/// minus child. Returns the spans and what is derived from them, plus the
/// exact counters of the handler replay.
pub fn run_traced(w: &Workload, seed: u64) -> (Lines, SpanLog) {
    let reqs = w.requests(seed).closed;
    let clock = Arc::new(RealClock::new());
    let mut spans = SpanLog::with_capacity(2 * reqs.len());
    let mut service_wall = None;
    let mut failed = 0;
    if w.target == Target::Service {
        let mut svc = ServiceSut(Service::new(clock.clone(), stack_config(), w.objects));
        let closed = closed_loop(&mut svc, &clock, &reqs, |r, start, end| {
            spans.record(0, "service", r.id, start, end);
        });
        service_wall = Some(closed.wall_ns);
        failed += closed.failed;
    }
    let (mode, wal) = match w.target {
        Target::Service => (adhoc_apps::Mode::AdHoc, false),
        Target::Handlers { mode, wal } => (mode, wal),
    };
    let mut handlers = HandlerSut::new(Apps::build(mode, wal, w.objects));
    let before = handlers.apps.counters();
    // Request ids are 0..n in order and the service spans were recorded
    // first, so request `id`'s service span has id `id + 1`.
    let parented = service_wall.is_some();
    let closed = closed_loop(&mut handlers, &clock, &reqs, |r, start, end| {
        let parent = if parented { r.id + 1 } else { 0 };
        spans.record(parent, r.endpoint.label(), r.id, start, end);
    });
    failed += closed.failed;
    let counters = handlers.apps.counters().since(before);
    // The loop `trace.overhead_frac` compares with an untraced one is the
    // one the workload's caller sees: the service replay for `svc_*`.
    let wall_ns = service_wall.unwrap_or(closed.wall_ns);

    // Root spans are the requests as that caller saw them (service spans
    // for `svc_*`, handler spans for `app_*`).
    let own = spans.self_times();
    let (mut root_ns, mut self_ns) = (0u64, 0i64);
    let mut by_endpoint = [0u64; Endpoint::ALL.len()];
    for s in spans.spans().iter().filter(|s| s.parent == 0) {
        root_ns += s.duration_ns();
        self_ns += own[&s.id];
        let endpoint = reqs[s.request as usize].endpoint;
        by_endpoint[Endpoint::ALL
            .iter()
            .position(|e| *e == endpoint)
            .expect("listed")] += s.duration_ns();
    }
    let n = reqs.len() as f64;
    let mut lines: Lines = vec![
        ("failed".into(), failed as f64),
        ("traced_rps".into(), n / (wall_ns as f64 / 1e9)),
        (
            "kv.commands_per_req".into(),
            counters.kv_commands as f64 / n,
        ),
        (
            "storage.statements_per_req".into(),
            counters.statements as f64 / n,
        ),
        (
            "storage.commits_per_req".into(),
            counters.commits as f64 / n,
        ),
        ("storage.aborts".into(), counters.aborts as f64),
        (
            "service.self_ns".into(),
            if parented { self_ns as f64 / n } else { 0.0 },
        ),
        // Spans against the wall time of the loop that recorded them:
        // what the spans miss is the loop's own bookkeeping.
        ("reconcile_frac".into(), root_ns as f64 / wall_ns as f64),
    ];
    for (e, ns) in Endpoint::ALL.iter().zip(by_endpoint) {
        lines.push((
            format!("apps.time_share.{}", e.label()),
            ns as f64 / root_ns as f64,
        ));
    }
    (lines, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `Service` exposes no application state, so the re-stated dispatch
    /// mapping can be held against it only on outcomes: 1,000 mixed
    /// requests over 8 rows reach every endpoint and every key, and a
    /// wrong key or argument in the re-statement surfaces as a backend
    /// error (`RecordNotFound`) that the service does not report. The
    /// handler side's final state must also pass the output checks.
    #[test]
    fn dispatch_agrees_with_service() {
        let w = Workload {
            closed_n: 1000,
            open_n: 0,
            objects: 8,
            ..WORKLOADS[0]
        };
        let reqs = w.requests(11).closed;
        for e in adhoc_service::Endpoint::ALL {
            assert!(reqs.iter().any(|r| r.endpoint == e), "{}", e.label());
        }
        let clock = Arc::new(RealClock::new());
        let mut svc = ServiceSut(Service::new(clock.clone(), stack_config(), w.objects));
        let mut direct = HandlerSut::new(Apps::build(adhoc_apps::Mode::AdHoc, false, w.objects));
        let a = closed_loop(&mut svc, &clock, &reqs, |_, _, _| {});
        let b = closed_loop(&mut direct, &clock, &reqs, |_, _, _| {});
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_eq!(svc.0.stats().served, 1000);
        assert_eq!(svc.check(1000), Ok(None));
        assert!(direct.check(1000).is_ok());
    }

    #[test]
    fn samples_fold_to_the_per_request_minimum_and_round_trip() {
        let w = Workload {
            closed_n: 4,
            open_n: 2,
            ..WORKLOADS[0]
        };
        let mut a = Samples {
            closed: vec![1000, 9000, 1000, 1000],
            open: vec![u32::MAX, 500_000],
        };
        let b = Samples {
            closed: vec![5000, 1000, 1000, 1000],
            open: vec![2_000_000, 400_000],
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("samples-self-test.bin");
        b.write(&path).unwrap();
        let read = Samples::read(&path, &w).unwrap();
        assert!(Samples::read(&path, &WORKLOADS[0]).is_err(), "wrong length");
        std::fs::remove_file(&path).unwrap();
        assert_eq!((&read.closed, &read.open), (&b.closed, &b.open));
        a.fold_min(&read);
        assert_eq!(a.closed, vec![1000; 4]);
        assert_eq!(a.open, vec![2_000_000, 400_000]);
        let t = a.timings();
        // 4 requests in 4 µs; one open request inside the 1 ms SLO.
        assert_eq!(t.throughput_rps, 1e6);
        assert_eq!((t.lat_p50_us, t.lat_p99_us), (1.0, 1.0));
        assert_eq!((t.open_p99_us, t.goodput_frac), (2000.0, 0.5));
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_counts_goodput() {
        struct Slow(VecDeque<Request>);
        impl Sut for Slow {
            fn offer(&mut self, req: Request) -> bool {
                self.0.push_back(req);
                true
            }
            fn serve(&mut self, _now: Duration, done: &mut Vec<Done>) {
                if let Some(request) = self.0.pop_front() {
                    std::thread::sleep(Duration::from_millis(2));
                    done.push(Done { request, ok: true });
                }
            }
            fn check(&self, _offered: u64) -> Result<Option<u64>, String> {
                Ok(None)
            }
        }
        // Three requests all due at t=0 behind a 2 ms server: the third
        // waits for the first two, and all miss the 1 ms SLO.
        let w = Workload {
            closed_n: 0,
            open_n: 3,
            ..WORKLOADS[1]
        };
        let mut reqs = w.requests(1).open;
        for r in &mut reqs {
            r.arrived = Duration::ZERO;
        }
        let clock = RealClock::new();
        let open = open_loop(&mut Slow(VecDeque::new()), &clock, &reqs);
        assert_eq!((open.failed, open.lat_ns.len()), (0, 3));
        let samples = Samples {
            closed: vec![1],
            open: open.lat_ns.clone(),
        };
        assert_eq!(samples.timings().goodput_frac, 0.0);
        assert!(open.lat_ns[2] >= 6_000_000 && open.lat_ns[0] >= 2_000_000);
        assert!(open.lat_ns[0] < open.lat_ns[1] && open.lat_ns[1] < open.lat_ns[2]);
    }
}
