//! The thin service layer the traffic harness drives.
//!
//! The paper studies ad hoc transactions *inside* request handlers; this
//! crate supplies the request handlers — a front door over all eight
//! studied applications, shaped like the web tier those applications
//! actually sit behind:
//!
//! * [`Endpoint`] — one named request type per studied scenario, with a
//!   cost weight and a read/write classification, so a mixed workload can
//!   be composed from per-endpoint weights.
//! * [`SessionPool`] — a bounded pool of pooled connections, each a borrow
//!   of the pool's [`Transport`](adhoc_sim::Transport) shim, bounded by an
//!   [`adhoc_sim::SlotCounter`]. [`Service`] does not use it: it serves one
//!   request at a time, so no pool in front of its transport could refuse.
//! * [`RateLimiter`] — per-client admission written both ways: the racy
//!   fixed-window counter over the KV store (two round trips, a
//!   check-then-act ad hoc transaction — catalog case) and the token
//!   bucket (one atomic in-process admission — the cure).
//! * [`Service`] — the queueing front door itself: rate limiting and
//!   queue-depth caps at arrival, deadline-aware shedding at service, a
//!   [`RetryBudget`](adhoc_sim::RetryBudget) around handler retries, and
//!   a read-only degraded mode checked at both. It serves one request at
//!   a time over one service [`Transport`](adhoc_sim::Transport) (one
//!   round trip per request, behind the arm's circuit breaker), so it
//!   needs no in-flight bound.
//!   [`StackConfig`] selects the naive / breaker-only / full ablation the
//!   metastability bench sweeps.
//!
//! Everything runs on the shared virtual clock and the deterministic
//! substrates, so a million-user traffic run — and any SLO violation it
//! surfaces — replays bit-for-bit from its seed.

#![warn(missing_docs)]

pub mod endpoint;
pub mod limiter;
pub mod pool;
mod service;

pub use endpoint::{Endpoint, Request};
pub use limiter::{FixedWindowLimiter, RateLimiter, TokenBucketLimiter};
pub use pool::{Session, SessionPool};
pub use service::{Completion, LimiterKind, Service, ServiceStats, StackConfig};

/// Why a request did not produce a successful application response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The per-client rate limiter refused the request at arrival.
    RateLimited,
    /// The arrival queue was at its depth cap.
    QueueFull,
    /// Deadline-aware shedding dropped the request before serving it (it
    /// had already waited past the point of being useful).
    Shed,
    /// The service is in read-only degraded mode and the request carried
    /// a write.
    ReadOnly,
    /// The service-side circuit breaker is open.
    CircuitOpen,
    /// The handler failed in the backend and retries were exhausted (or
    /// the retry budget refused to fund another attempt).
    Backend(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::RateLimited => write!(f, "rate limited"),
            ServiceError::QueueFull => write!(f, "arrival queue full"),
            ServiceError::Shed => write!(f, "shed past deadline"),
            ServiceError::ReadOnly => write!(f, "write refused in read-only degraded mode"),
            ServiceError::CircuitOpen => write!(f, "service circuit breaker open"),
            ServiceError::Backend(msg) => write!(f, "backend failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}
