//! The queueing front door over the eight studied applications.
//!
//! A request's life: **arrival** (`offer`) — rate limiter, read-only
//! degradation, queue-depth cap; then **service** (`run_tick`) — deadline
//! shedding, read-only degradation again, the service transport (its
//! breaker, when the arm has one, and one round trip), the handler itself
//! with budgeted retries. Requests are served one at a time, so a request
//! holds the one transport without a connection pool in front of it. The
//! [`StackConfig`] presets (`naive` / `breaker_only` / `full`) are the
//! ablation arms the traffic bench sweeps: the same applications, the
//! same arrival stream, only the front-door discipline differs.

use crate::endpoint::{Endpoint, Request};
use crate::limiter::{FixedWindowLimiter, RateLimiter, TokenBucketLimiter};
use crate::ServiceError;
use adhoc_apps::Mode;
use adhoc_apps::{broadleaf, discourse, jumpserver, mastodon, redmine, saleor, scm_suite, spree};
use adhoc_kv::{Client, Store};
use adhoc_sim::{LatencyModel, RetryBudget, SharedClock, Transport, Workload};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which per-client rate limiter guards arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimiterKind {
    /// The racy fixed-window KV counter (catalog case).
    FixedWindow,
    /// The token bucket (cure).
    TokenBucket,
}

/// Front-door discipline for one service instance.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Ablation arm name (`"naive"`, `"breaker_only"`, `"full"`).
    pub name: &'static str,
    /// Arrival-queue depth cap; `None` queues without bound.
    pub queue_cap: Option<usize>,
    /// Shed a queued request once it has waited this long (deadline-aware
    /// shedding); `None` serves arbitrarily stale work.
    pub patience: Option<Duration>,
    /// Per-client rate limiter at arrival.
    pub limiter: LimiterKind,
    /// Requests each client may pass per second (fixed-window limit per
    /// 1 s window, or token-bucket sustained rate with 2x burst).
    pub client_rate_per_sec: u64,
    /// Attach a circuit breaker to the pooled service transport.
    pub breaker: bool,
    /// Fund handler retries from a shared [`RetryBudget`] instead of
    /// retrying unconditionally.
    pub retry_budget: bool,
}

impl StackConfig {
    /// Everything a hurried web tier ships first: a generous racy
    /// fixed-window limiter, an unbounded queue, no shedding, no breaker,
    /// unconditional retries.
    pub fn naive() -> Self {
        Self {
            name: "naive",
            queue_cap: None,
            patience: None,
            limiter: LimiterKind::FixedWindow,
            client_rate_per_sec: 1000,
            breaker: false,
            retry_budget: false,
        }
    }

    /// The naive stack plus a circuit breaker — the common first reaction
    /// to an outage postmortem. Breakers guard against a *failing*
    /// backend; they do nothing about a healthy backend drowning in
    /// queued work, which is the point this arm makes.
    pub fn breaker_only() -> Self {
        Self {
            name: "breaker_only",
            breaker: true,
            ..Self::naive()
        }
    }

    /// The full front door: token-bucket limiting, a bounded queue,
    /// deadline-aware shedding, a breaker, and budgeted retries.
    pub fn full() -> Self {
        Self {
            name: "full",
            queue_cap: Some(256),
            patience: Some(Duration::from_millis(100)),
            limiter: LimiterKind::TokenBucket,
            client_rate_per_sec: 200,
            breaker: true,
            retry_budget: true,
        }
    }
}

/// Arrival/serve/refusal counters for one service instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests refused by the rate limiter.
    pub rate_limited: u64,
    /// Requests refused at the queue-depth cap.
    pub queue_full: u64,
    /// Writes refused in read-only degraded mode.
    pub read_only_refused: u64,
    /// Requests shed after waiting past patience.
    pub shed: u64,
    /// Requests served to a successful response.
    pub served: u64,
    /// Requests that failed in the backend after retries.
    pub failed: u64,
}

/// One finished request: when it completed and how.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request as it arrived.
    pub request: Request,
    /// Completion instant on the virtual-clock timeline.
    pub finished: Duration,
    /// `Ok` for a successful application response.
    pub outcome: Result<(), ServiceError>,
}

struct Apps {
    broadleaf: broadleaf::Broadleaf,
    discourse: discourse::Discourse,
    jumpserver: jumpserver::JumpServer,
    mastodon: mastodon::Mastodon,
    redmine: redmine::Redmine,
    saleor: saleor::Saleor,
    scm: scm_suite::ScmSuite,
    spree: spree::Spree,
    /// Post ids created at seed time (like targets).
    discourse_posts: Vec<i64>,
}

/// The service: eight applications behind one configurable front door.
pub struct Service {
    config: StackConfig,
    apps: Apps,
    objects: u64,
    limiter: Box<dyn RateLimiter>,
    /// Read-only degraded mode: writes are refused at `offer` and again
    /// at `serve`.
    read_only: AtomicBool,
    /// The service connection every request crosses: one round trip,
    /// behind the arm's circuit breaker when it has one.
    transport: Transport,
    retry_budget: Option<RetryBudget>,
    queue: Mutex<VecDeque<Request>>,
    accepted: AtomicU64,
    queue_full: AtomicU64,
    read_only_refused: AtomicU64,
    shed: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
}

const SEED_STOCK: i64 = 1_000_000_000;
/// Handler retry attempts (beyond the first) when the backend errors.
const HANDLER_RETRIES: u32 = 2;

impl Service {
    /// Build a service over freshly seeded applications: `objects` rows
    /// per app, zero-latency substrates on `clock` (the tick loop owns
    /// time), the front door per `config`.
    pub fn new(clock: SharedClock, config: StackConfig, objects: u64) -> Self {
        assert!(objects > 0);
        let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let apps = Self::build_apps(&kv, objects);
        let limiter: Box<dyn RateLimiter> = match config.limiter {
            LimiterKind::FixedWindow => Box::new(FixedWindowLimiter::new(
                kv.clone(),
                config.client_rate_per_sec as i64,
                Duration::from_secs(1),
            )),
            LimiterKind::TokenBucket => Box::new(TokenBucketLimiter::new(
                clock.clone(),
                config.client_rate_per_sec,
                config.client_rate_per_sec * 2,
            )),
        };
        let mut transport = Transport::service(clock.clone(), LatencyModel::zero());
        if config.breaker {
            transport = transport.with_breaker(Arc::new(adhoc_sim::CircuitBreaker::new(
                8,
                Duration::from_millis(500),
            )));
        }
        Self {
            apps,
            objects,
            limiter,
            read_only: AtomicBool::new(false),
            transport,
            retry_budget: config.retry_budget.then(|| RetryBudget::new(64)),
            queue: Mutex::new(VecDeque::new()),
            config,
            accepted: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            read_only_refused: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    fn build_apps(kv: &Client, objects: u64) -> Apps {
        let broadleaf = broadleaf::Broadleaf::studied(Mode::AdHoc);
        let discourse = discourse::Discourse::studied(Mode::AdHoc);
        let jumpserver = jumpserver::JumpServer::studied(kv.clone(), Mode::AdHoc);
        let mastodon = mastodon::Mastodon::studied(kv.clone(), Mode::AdHoc);
        let redmine = redmine::Redmine::studied(Mode::AdHoc);
        let saleor = saleor::Saleor::studied(Mode::AdHoc);
        let scm = scm_suite::ScmSuite::studied(Mode::AdHoc);
        let spree = spree::Spree::studied(Mode::AdHoc);
        discourse.seed_image(1, 1000).unwrap();
        let mut discourse_posts = Vec::with_capacity(objects as usize);
        for id in 1..=objects as i64 {
            broadleaf.seed_cart(id).unwrap();
            broadleaf.seed_sku(id, SEED_STOCK).unwrap();
            discourse.seed_topic(id).unwrap();
            discourse_posts.push(discourse.seed_post(id, "seed", 1).unwrap());
            jumpserver.seed_asset(id).unwrap();
            mastodon.seed_poll(id).unwrap();
            redmine.seed_issue(id, "traffic").unwrap();
            saleor.seed_stock(id, SEED_STOCK).unwrap();
            saleor.seed_allocation(id, id, 1).unwrap();
            scm.seed_account(id, SEED_STOCK).unwrap();
            spree.seed_catalog(id, id, &[1], SEED_STOCK).unwrap();
            spree.seed_order(id).unwrap();
        }
        Apps {
            broadleaf,
            discourse,
            jumpserver,
            mastodon,
            redmine,
            saleor,
            scm,
            spree,
            discourse_posts,
        }
    }

    /// Enter or leave read-only degraded mode: while degraded, every
    /// write is refused and reads keep being served.
    pub fn degrade_writes(&self, degraded: bool) {
        self.read_only.store(degraded, Ordering::Release);
    }

    /// Does degraded mode refuse `endpoint` right now?
    fn refuses(&self, endpoint: Endpoint) -> bool {
        endpoint.workload() == Workload::Write && self.read_only.load(Ordering::Acquire)
    }

    /// Requests queued right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().len()
    }

    /// Arrival/serve counters so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rate_limited: self.limiter.limited(),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            read_only_refused: self.read_only_refused.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Arrival: run the edge checks and enqueue. `Err` means the request
    /// was refused *at the edge* — cheaply, before consuming any service
    /// capacity (that cheapness is what keeps the full stack standing
    /// past saturation).
    pub fn offer(&self, req: Request) -> Result<(), ServiceError> {
        if !self.limiter.try_admit(req.client)? {
            return Err(ServiceError::RateLimited);
        }
        if self.refuses(req.endpoint) {
            self.read_only_refused.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::ReadOnly);
        }
        let mut queue = self.queue.lock();
        if let Some(cap) = self.config.queue_cap {
            if queue.len() >= cap {
                self.queue_full.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::QueueFull);
            }
        }
        queue.push_back(req);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Service: drain the queue FIFO until `budget` capacity units are
    /// spent, completing each request at instant `finished`. Shedding a
    /// stale request costs no budget — that is the entire argument for
    /// deadline-aware shedding.
    pub fn run_tick(&self, finished: Duration, budget: u32) -> Vec<Completion> {
        let mut completions = Vec::new();
        let mut remaining = budget;
        loop {
            let req = {
                let mut queue = self.queue.lock();
                match queue.front() {
                    None => break,
                    Some(front) => {
                        let stale = self
                            .config
                            .patience
                            .is_some_and(|p| finished.saturating_sub(front.arrived) > p);
                        if !stale && front.endpoint.cost() > remaining {
                            break;
                        }
                        let req = queue.pop_front().expect("front checked");
                        if stale {
                            self.shed.fetch_add(1, Ordering::Relaxed);
                            completions.push(Completion {
                                request: req,
                                finished,
                                outcome: Err(ServiceError::Shed),
                            });
                            continue;
                        }
                        req
                    }
                }
            };
            remaining -= req.endpoint.cost();
            let outcome = self.serve(&req);
            match &outcome {
                Ok(()) => self.served.fetch_add(1, Ordering::Relaxed),
                // Degraded between `offer` and now: a refusal, not a failure.
                Err(ServiceError::ReadOnly) => {
                    self.read_only_refused.fetch_add(1, Ordering::Relaxed)
                }
                Err(_) => self.failed.fetch_add(1, Ordering::Relaxed),
            };
            completions.push(Completion {
                request: req,
                finished,
                outcome,
            });
            if remaining == 0 {
                break;
            }
        }
        completions
    }

    /// Serve one request end to end: read-only check, wire, handler with
    /// (budgeted) retries.
    fn serve(&self, req: &Request) -> Result<(), ServiceError> {
        if self.refuses(req.endpoint) {
            return Err(ServiceError::ReadOnly);
        }
        self.transport.admit().map_err(|e| match e {
            adhoc_sim::TransportError::CircuitOpen => ServiceError::CircuitOpen,
            adhoc_sim::TransportError::DeadlineExceeded => ServiceError::Shed,
        })?;
        self.transport.pay();
        let mut attempt = 0;
        loop {
            match self.dispatch(req) {
                Ok(()) => {
                    self.transport.record_outcome(false);
                    if let Some(budget) = &self.retry_budget {
                        budget.deposit();
                    }
                    return Ok(());
                }
                Err(msg) => {
                    attempt += 1;
                    if attempt > HANDLER_RETRIES {
                        self.transport.record_outcome(true);
                        return Err(ServiceError::Backend(msg));
                    }
                    if let Some(budget) = &self.retry_budget {
                        if !budget.try_withdraw() {
                            self.transport.record_outcome(true);
                            return Err(ServiceError::Backend(msg));
                        }
                    }
                }
            }
        }
    }

    /// Run the handler for one request. Business refusals (out of stock,
    /// insufficient balance, duplicate payment) are successful responses;
    /// only backend errors surface as `Err`.
    fn dispatch(&self, req: &Request) -> Result<(), String> {
        let id = (req.key % self.objects) as i64 + 1;
        let apps = &self.apps;
        let r: adhoc_apps::Result<()> = match req.endpoint {
            Endpoint::BroadleafAddToCart => apps.broadleaf.add_to_cart(id, 100, 1),
            Endpoint::BroadleafCheckout => apps.broadleaf.check_out(id, 1).map(drop),
            Endpoint::DiscourseCreatePost => {
                apps.discourse.create_post(id, "traffic post").map(drop)
            }
            Endpoint::DiscourseLikePost => {
                let post = apps.discourse_posts[(req.key % self.objects) as usize];
                apps.discourse.like_post(post)
            }
            Endpoint::JumpserverGrant => {
                let user = (req.client % 997) as i64 + 1;
                apps.jumpserver.grant(user, id, (req.id % 3) as i64 + 1)
            }
            Endpoint::MastodonVote => {
                let choice = if req.id.is_multiple_of(2) {
                    mastodon::Choice::A
                } else {
                    mastodon::Choice::B
                };
                apps.mastodon.vote(id, choice)
            }
            Endpoint::MastodonTimeline => apps.mastodon.timeline(id).map(drop),
            Endpoint::RedmineAdvanceIssue => {
                apps.redmine.advance_issue(id, (req.client % 50) as i64, 1)
            }
            Endpoint::SaleorAllocate => apps.saleor.allocate(id).map(drop),
            Endpoint::ScmTransfer => {
                // Transfer to the next account, wrapping — distinct from
                // `id` whenever more than one account exists.
                let to = (req.key + 1) % self.objects + 1;
                if to as i64 == id {
                    Ok(())
                } else {
                    apps.scm.transfer(id, to as i64, 1).map(drop)
                }
            }
            Endpoint::SpreeDecrementStock => apps.spree.decrement_stock(id, id, 1).map(drop),
            Endpoint::SpreeAddPayment => apps.spree.add_payment(id).map(drop),
        };
        r.map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_sim::VirtualClock;

    fn request(id: u64, endpoint: Endpoint, arrived: Duration) -> Request {
        Request {
            id,
            client: id % 11,
            key: id,
            endpoint,
            arrived,
        }
    }

    #[test]
    fn serves_every_endpoint_successfully() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::full(), 8);
        for (i, e) in Endpoint::ALL.into_iter().enumerate() {
            svc.offer(request(i as u64, e, Duration::ZERO)).unwrap();
        }
        let completions = svc.run_tick(Duration::from_millis(10), 1000);
        assert_eq!(completions.len(), Endpoint::ALL.len());
        for c in &completions {
            assert!(
                c.outcome.is_ok(),
                "{}: {:?}",
                c.request.endpoint.label(),
                c.outcome
            );
        }
        assert_eq!(svc.stats().served, Endpoint::ALL.len() as u64);
    }

    #[test]
    fn tick_budget_bounds_work_and_preserves_fifo() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::naive(), 4);
        for i in 0..10 {
            svc.offer(request(i, Endpoint::DiscourseLikePost, Duration::ZERO))
                .unwrap();
        }
        // like costs 2 units: a budget of 6 serves exactly 3.
        let served = svc.run_tick(Duration::from_millis(10), 6);
        assert_eq!(served.len(), 3);
        assert_eq!(served[0].request.id, 0);
        assert_eq!(svc.queue_depth(), 7);
        let rest = svc.run_tick(Duration::from_millis(20), 1000);
        assert_eq!(rest.len(), 7);
        assert_eq!(rest[0].request.id, 3);
    }

    #[test]
    fn full_stack_sheds_stale_requests_without_spending_budget() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::full(), 4);
        for i in 0..5 {
            svc.offer(request(i, Endpoint::MastodonTimeline, Duration::ZERO))
                .unwrap();
        }
        svc.offer(request(
            99,
            Endpoint::MastodonTimeline,
            Duration::from_millis(490),
        ))
        .unwrap();
        // At t=500ms the first five are 500ms old (past 100ms patience);
        // the last arrived 10ms ago and is served.
        let completions = svc.run_tick(Duration::from_millis(500), 1);
        let shed: Vec<u64> = completions
            .iter()
            .filter(|c| c.outcome == Err(ServiceError::Shed))
            .map(|c| c.request.id)
            .collect();
        assert_eq!(shed, vec![0, 1, 2, 3, 4]);
        assert_eq!(completions.last().unwrap().request.id, 99);
        assert!(completions.last().unwrap().outcome.is_ok());
        assert_eq!(svc.stats().shed, 5);
    }

    #[test]
    fn queue_cap_refuses_at_the_edge() {
        let clock = VirtualClock::shared();
        let mut cfg = StackConfig::full();
        cfg.queue_cap = Some(2);
        let svc = Service::new(clock, cfg, 4);
        svc.offer(request(0, Endpoint::MastodonTimeline, Duration::ZERO))
            .unwrap();
        svc.offer(request(1, Endpoint::MastodonTimeline, Duration::ZERO))
            .unwrap();
        assert_eq!(
            svc.offer(request(2, Endpoint::MastodonTimeline, Duration::ZERO)),
            Err(ServiceError::QueueFull)
        );
        assert_eq!(svc.stats().queue_full, 1);
    }

    #[test]
    fn degraded_mode_refuses_writes_in_every_arm() {
        for config in [
            StackConfig::naive(),
            StackConfig::breaker_only(),
            StackConfig::full(),
        ] {
            let svc = Service::new(VirtualClock::shared(), config, 4);
            svc.degrade_writes(true);
            assert_eq!(
                svc.offer(request(0, Endpoint::DiscourseLikePost, Duration::ZERO)),
                Err(ServiceError::ReadOnly),
                "{}",
                config.name
            );
            assert_eq!(svc.stats().read_only_refused, 1, "{}", config.name);
            svc.offer(request(1, Endpoint::MastodonTimeline, Duration::ZERO))
                .unwrap();
            let completions = svc.run_tick(Duration::from_millis(1), 100);
            assert_eq!(completions.len(), 1, "{}", config.name);
            assert!(completions[0].outcome.is_ok(), "{}", config.name);
            // Leaving degraded mode restores writes.
            svc.degrade_writes(false);
            svc.offer(request(2, Endpoint::DiscourseLikePost, Duration::ZERO))
                .unwrap();
            assert_eq!(svc.stats().read_only_refused, 1, "{}", config.name);
        }
    }

    #[test]
    fn degraded_between_offer_and_serve_counts_once() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::full(), 4);
        svc.offer(request(0, Endpoint::DiscourseLikePost, Duration::ZERO))
            .unwrap();
        svc.degrade_writes(true);
        let completions = svc.run_tick(Duration::from_millis(1), 100);
        assert_eq!(completions[0].outcome, Err(ServiceError::ReadOnly));
        let s = svc.stats();
        assert_eq!((s.read_only_refused, s.failed), (1, 0));
        let offered = 1;
        assert_eq!(
            s.served + s.failed + s.shed + s.rate_limited + s.queue_full + s.read_only_refused,
            offered
        );
    }

    #[test]
    fn successes_refill_a_drained_retry_budget() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::full(), 4);
        let budget = svc.retry_budget.as_ref().unwrap();
        while budget.try_withdraw() {}
        assert_eq!(budget.tokens(), 0);
        for i in 0..30 {
            svc.offer(request(i, Endpoint::MastodonTimeline, Duration::ZERO))
                .unwrap();
        }
        let completions = svc.run_tick(Duration::from_millis(1), 1000);
        assert!(completions.iter().all(|c| c.outcome.is_ok()));
        assert!(
            budget.tokens() >= 2,
            "30 first-try successes earn tokens back"
        );
    }

    #[test]
    fn naive_stack_never_sheds_or_caps() {
        let clock = VirtualClock::shared();
        let svc = Service::new(clock, StackConfig::naive(), 4);
        for i in 0..500 {
            svc.offer(request(i, Endpoint::MastodonTimeline, Duration::ZERO))
                .unwrap();
        }
        assert_eq!(svc.queue_depth(), 500, "no cap, no refusals");
        // Hours later, the naive stack still dutifully serves stale work.
        let completions = svc.run_tick(Duration::from_secs(3600), 10);
        assert!(completions.iter().all(|c| c.outcome.is_ok()));
        assert_eq!(svc.stats().shed, 0);
    }
}
