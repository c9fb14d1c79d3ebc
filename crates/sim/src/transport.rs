//! The shared simulated-wire shim.
//!
//! Every remote substrate in this workspace pays the same sequence for a
//! round trip: *admission* (deadline, then circuit breaker — both fail fast
//! without touching the wire or the deterministic scheduler), then the
//! *wire* itself (a scheduler yield point, a round-trip counter bump, and a
//! latency charge against the shared clock), then *outcome bookkeeping*
//! (feeding the breaker). `adhoc-kv`'s client grew this sequence first; the
//! service layer needs the identical discipline in front of its request
//! handlers, and `adhoc-storage` runs every SQL statement through it
//! ([`Cost::SqlRoundTrip`], [`SchedPoint::DbStatement`]). [`Transport`] is
//! that sequence extracted once, parameterized by which [`Cost`] the wire
//! charges and which [`SchedPoint`] it yields at.
//!
//! The shim deliberately does *not* own fault injection: what a lost
//! request means (apply vs skip, ambiguous replies) is substrate-specific,
//! so callers run their own fault plan between [`Transport::pay`] and
//! [`Transport::record_outcome`].

use crate::clock::SharedClock;
use crate::latency::{Cost, LatencyModel};
use crate::resilience::{CircuitBreaker, Deadline};
use crate::sched::{self, SchedPoint};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fail-fast admission errors: the request never left the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The caller's deadline had already passed — unambiguous, retry-safe
    /// against a fresh deadline because nothing reached the server.
    DeadlineExceeded,
    /// The circuit breaker is open — rejected locally, no wire paid.
    CircuitOpen,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::DeadlineExceeded => write!(f, "deadline exceeded before the wire"),
            TransportError::CircuitOpen => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One simulated connection: clock + latency cost + shared round-trip
/// counter, with optional deadline and circuit-breaker admission.
///
/// Clones share the counter and breaker (they model one process talking to
/// one server, possibly from several threads).
#[derive(Clone)]
pub struct Transport {
    clock: SharedClock,
    latency: LatencyModel,
    cost: Cost,
    sched_point: SchedPoint,
    round_trips: Arc<AtomicU64>,
    deadline: Option<Deadline>,
    breaker: Option<Arc<CircuitBreaker>>,
}

impl Transport {
    /// A transport charging `latency.duration_of(cost)` per round trip onto
    /// `clock`, yielding at `sched_point` under the deterministic scheduler.
    pub fn new(
        clock: SharedClock,
        latency: LatencyModel,
        cost: Cost,
        sched_point: SchedPoint,
    ) -> Self {
        Self {
            clock,
            latency,
            cost,
            sched_point,
            round_trips: Arc::new(AtomicU64::new(0)),
            deadline: None,
            breaker: None,
        }
    }

    /// The KV-client wiring: [`Cost::KvRoundTrip`] / [`SchedPoint::KvRoundTrip`].
    pub fn kv(clock: SharedClock, latency: LatencyModel) -> Self {
        Self::new(clock, latency, Cost::KvRoundTrip, SchedPoint::KvRoundTrip)
    }

    /// The service front-door wiring: [`Cost::ServiceRoundTrip`] /
    /// [`SchedPoint::ServiceRequest`].
    pub fn service(clock: SharedClock, latency: LatencyModel) -> Self {
        Self::new(
            clock,
            latency,
            Cost::ServiceRoundTrip,
            SchedPoint::ServiceRequest,
        )
    }

    /// Attach an absolute deadline: once the clock passes it, [`admit`]
    /// fails fast with [`TransportError::DeadlineExceeded`].
    ///
    /// [`admit`]: Transport::admit
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Wrap the connection in a circuit breaker consulted by [`admit`] and
    /// fed by [`record_outcome`]. Share one breaker (via the `Arc`) across
    /// every clone talking to one server.
    ///
    /// [`admit`]: Transport::admit
    /// [`record_outcome`]: Transport::record_outcome
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// The clock this transport charges latency against.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Current instant on the transport's clock.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Sleep on the transport's clock (blocking or advancing virtual time) —
    /// used by substrate fault paths that stall a command in flight.
    pub fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// The attached deadline, when any.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }

    /// The attached breaker, when any.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Round trips this transport (and its clones) have paid so far.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Fail-fast admission: deadline first, then breaker — in that order,
    /// because an expired caller should see its own timeout rather than the
    /// server's health. Neither check pays the wire or yields to the
    /// scheduler, so opting in never perturbs pinned schedules.
    pub fn admit(&self) -> Result<(), TransportError> {
        if let Some(deadline) = &self.deadline {
            if deadline.expired(&*self.clock) {
                return Err(TransportError::DeadlineExceeded);
            }
        }
        if let Some(breaker) = &self.breaker {
            if !breaker.allow(&*self.clock) {
                return Err(TransportError::CircuitOpen);
            }
        }
        Ok(())
    }

    /// Pay one wire hop: a scheduler yield point, a counter bump, the
    /// latency charge. Reads no clock: a caller that needs the server-side
    /// arrival instant reads [`now`](Transport::now) after it.
    pub fn pay(&self) {
        // Every simulated round trip is a potential preemption point under
        // the deterministic scheduler (no-op otherwise).
        sched::yield_point(self.sched_point);
        // Relaxed: a pure occurrence counter — nothing is published through
        // it, and SeqCst here puts a full fence on every simulated wire hop.
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.latency.charge(&*self.clock, self.cost);
    }

    /// Feed the breaker with the round trip's outcome: `lost = true` for a
    /// connection-level failure (counts toward opening), anything else —
    /// including server-side errors that prove the connection works —
    /// counts as success.
    pub fn record_outcome(&self, lost: bool) {
        if let Some(breaker) = &self.breaker {
            if lost {
                breaker.record_failure(self.clock.now());
            } else {
                breaker.record_success();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};

    fn transport() -> (Arc<VirtualClock>, Transport) {
        let clock = Arc::new(VirtualClock::new());
        let t = Transport::kv(clock.clone(), LatencyModel::paper());
        (clock, t)
    }

    #[test]
    fn pay_charges_latency_and_counts() {
        let (clock, t) = transport();
        t.pay();
        assert_eq!(clock.now(), LatencyModel::paper().kv_round_trip);
        assert_eq!(t.now(), clock.now());
        assert_eq!(t.round_trips(), 1);
    }

    #[test]
    fn service_wiring_charges_the_service_cost() {
        let clock = Arc::new(VirtualClock::new());
        let t = Transport::service(clock.clone(), LatencyModel::paper());
        t.pay();
        assert_eq!(clock.now(), LatencyModel::paper().service_round_trip);
    }

    #[test]
    fn clones_share_the_counter() {
        let (_clock, t) = transport();
        let u = t.clone();
        t.pay();
        u.pay();
        assert_eq!(t.round_trips(), 2);
        assert_eq!(u.round_trips(), 2);
    }

    #[test]
    fn admit_is_free_and_checks_deadline_first() {
        let clock = Arc::new(VirtualClock::new());
        let breaker = Arc::new(CircuitBreaker::new(1, Duration::from_secs(10)));
        let t = Transport::kv(clock.clone(), LatencyModel::zero())
            .with_deadline(Deadline::after(&*clock, Duration::from_secs(1)))
            .with_breaker(breaker.clone());
        assert_eq!(t.admit(), Ok(()));
        // Trip the breaker AND expire the deadline: the deadline wins.
        breaker.record_failure(clock.now());
        clock.advance(Duration::from_secs(2));
        assert_eq!(t.admit(), Err(TransportError::DeadlineExceeded));
        assert_eq!(t.round_trips(), 0, "admission never pays the wire");
    }

    #[test]
    fn breaker_opens_via_record_outcome_and_recovers() {
        let clock = Arc::new(VirtualClock::new());
        let breaker = Arc::new(CircuitBreaker::new(2, Duration::from_secs(5)));
        let t = Transport::kv(clock.clone(), LatencyModel::zero()).with_breaker(breaker.clone());
        t.record_outcome(true);
        t.record_outcome(true);
        assert_eq!(t.admit(), Err(TransportError::CircuitOpen));
        // Cooldown: one probe is admitted; its success closes the circuit.
        clock.advance(Duration::from_secs(5));
        assert_eq!(t.admit(), Ok(()));
        t.record_outcome(false);
        assert_eq!(t.admit(), Ok(()));
        assert_eq!(breaker.times_opened(), 1);
    }
}
