//! The six workloads and their seeded request vectors.
//!
//! Every workload is a fixed number of requests from a seed, never a
//! fixed duration: `Broadleaf::add_to_cart` scans a table it grows, so
//! the cost of request *n* depends on *n*, and a time-boxed run would hand
//! a faster program more (and more expensive) work. The counts and rates
//! below are frozen; README.md records how they were calibrated.

use adhoc_apps::Mode;
use adhoc_service::{Endpoint, Request};
use adhoc_sim::rng::{self, PoissonProcess};
use adhoc_traffic::{MixedWorkload, CLIENT_POPULATION};
use rand::Rng;
use std::time::Duration;

/// What the requests are sent to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `Service` over `StackConfig::full()` (applications in `AdHoc`).
    Service,
    /// The handlers themselves, no front door.
    Handlers { mode: Mode, wal: bool },
}

/// Which requests are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// `MixedWorkload`'s default 12-endpoint mix, zipfian clients and keys.
    Mixed,
    /// The same draws with every endpoint `MastodonTimeline`.
    Timeline,
    /// Equal mix of [`SIX_OPS`], uniform keys.
    SixOps,
}

/// The handlers of the `app_*` stream: one per application that has a
/// single-call write path in all four modes.
pub const SIX_OPS: [Endpoint; 6] = [
    Endpoint::DiscourseLikePost,
    Endpoint::MastodonVote,
    Endpoint::RedmineAdvanceIssue,
    Endpoint::SaleorAllocate,
    Endpoint::ScmTransfer,
    Endpoint::SpreeDecrementStock,
];

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub target: Target,
    pub stream: Stream,
    /// Seeded rows per application.
    pub objects: u64,
    /// Closed-loop requests per repetition.
    pub closed_n: usize,
    /// Open-loop requests per repetition.
    pub open_n: usize,
    /// Open-loop Poisson arrival rate, requests per second.
    pub open_rate: f64,
    /// Nominal wall time of one repetition (process start to exit) on the
    /// seed. Sizes a run: `--seconds / rep_seconds` repetitions.
    pub rep_seconds: f64,
}

const fn handlers(name: &'static str, mode: Mode, wal: bool, rep_seconds: f64) -> Workload {
    Workload {
        name,
        target: Target::Handlers { mode, wal },
        stream: Stream::SixOps,
        objects: 1024,
        closed_n: 50_000,
        open_n: 10_000,
        open_rate: 30_000.0,
        rep_seconds,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "svc_mixed",
        target: Target::Service,
        stream: Stream::Mixed,
        objects: 128,
        closed_n: 50_000,
        open_n: 7_500,
        open_rate: 15_000.0,
        rep_seconds: 1.0,
    },
    Workload {
        name: "svc_read",
        target: Target::Service,
        stream: Stream::Timeline,
        objects: 128,
        closed_n: 500_000,
        open_n: 50_000,
        open_rate: 200_000.0,
        rep_seconds: 0.85,
    },
    handlers("app_adhoc_wal", Mode::AdHoc, true, 1.0),
    handlers("app_dbt", Mode::DatabaseTxn, false, 0.85),
    handlers("app_cured", Mode::Cured, false, 0.8),
    handlers("app_confluent", Mode::Confluent, false, 0.75),
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pre-generated inputs of one repetition: the program under test
/// receives these and nothing else.
pub struct Requests {
    pub closed: Vec<Request>,
    /// Open-loop requests; `arrived` is the due time from phase start.
    pub open: Vec<Request>,
}

impl Workload {
    /// Same seed ⇒ same vectors. The `app_*` workloads share one stream
    /// per seed, so their final states can be compared across modes.
    pub fn requests(&self, seed: u64) -> Requests {
        let total = self.closed_n + self.open_n;
        let mut all: Vec<Request> = match self.stream {
            Stream::Mixed | Stream::Timeline => {
                let mut mix = MixedWorkload::new(seed, CLIENT_POPULATION, self.objects);
                (0..total)
                    .map(|_| mix.next_request(Duration::ZERO))
                    .collect()
            }
            Stream::SixOps => {
                let mut rng = rng::seeded(seed);
                (0..total as u64)
                    .map(|id| Request {
                        id,
                        client: rng.gen_range(0..CLIENT_POPULATION),
                        key: rng.gen_range(0..self.objects),
                        endpoint: SIX_OPS[rng.gen_range(0..SIX_OPS.len())],
                        arrived: Duration::ZERO,
                    })
                    .collect()
            }
        };
        if self.stream == Stream::Timeline {
            for r in &mut all {
                r.endpoint = Endpoint::MastodonTimeline;
            }
        }
        let mut open = all.split_off(self.closed_n);
        let mut arrivals = PoissonProcess::new(seed ^ 0x6f70_656e, self.open_rate);
        for r in &mut open {
            r.arrived = arrivals.next_arrival();
        }
        Requests { closed: all, open }
    }
}

#[cfg(test)]
impl Requests {
    /// Hash of every field of every request (determinism self-test).
    pub fn hash(&self) -> u64 {
        crate::stats::fnv1a(self.closed.iter().chain(&self.open).flat_map(|r| {
            let endpoint = Endpoint::ALL.iter().position(|e| *e == r.endpoint);
            [
                r.id,
                r.client,
                r.key,
                endpoint.expect("listed") as u64,
                r.arrived.as_nanos() as u64,
            ]
            .into_iter()
            .flat_map(u64::to_le_bytes)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_vector_other_seed_other_vector() {
        for w in &WORKLOADS {
            // A short prefix of the real sizes keeps the test quick.
            let w = Workload {
                closed_n: 2000,
                open_n: 500,
                ..*w
            };
            let a = w.requests(7);
            assert_eq!(a.hash(), w.requests(7).hash(), "{}", w.name);
            assert_ne!(a.hash(), w.requests(8).hash(), "{}", w.name);
            assert_eq!((a.closed.len(), a.open.len()), (2000, 500));
            assert!(a.open.windows(2).all(|p| p[0].arrived <= p[1].arrived));
        }
    }

    #[test]
    fn app_workloads_share_one_stream() {
        let hashes: Vec<u64> = WORKLOADS
            .iter()
            .filter(|w| w.stream == Stream::SixOps)
            .map(|w| w.requests(3).hash())
            .collect();
        assert_eq!(hashes.len(), 4);
        assert!(hashes.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
