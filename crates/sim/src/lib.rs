//! Simulation substrate shared by every other crate in the workspace.
//!
//! The paper's evaluation (§5) attributes the order-of-magnitude latency
//! differences between lock implementations to two physical costs: network
//! round trips and durable disk flushes. This crate makes those costs
//! explicit and injectable:
//!
//! * [`Clock`] — a time source that can either be the wall clock
//!   ([`RealClock`], used by the multi-threaded throughput benchmarks) or a
//!   deterministic virtual counter ([`VirtualClock`], used by unit tests and
//!   the single-client latency benchmarks so they finish instantly).
//! * [`LatencyModel`] — named cost constants (KV round trip, SQL round trip,
//!   durable flush) charged by the substrates at the points where the real
//!   systems would pay them.
//! * [`stats`] — summary statistics used by the evaluation harness.
//! * [`rng`] — seeded RNG construction so experiments are reproducible.
//! * [`faults`] — a deterministic, seeded fault schedule ([`FaultPlan`])
//!   the substrates consult per operation, so the §3.4 failure-handling
//!   paths can be exercised and replayed bit-for-bit.
//! * [`retry`] — the single [`RetryPolicy`] (bounded attempts, deadline,
//!   capped backoff with deterministic jitter) and its one loop,
//!   [`RetryPolicy::run`], shared by every coordination path.
//! * [`sched`] — a cooperative deterministic scheduler plus an interleaving
//!   explorer, so the paper's races are found and replayed by *schedule*
//!   (compact `SCHED=` witness strings), not by wall-clock luck.
//! * [`resilience`] — absolute [`Deadline`]s, token-bucket
//!   [`RetryBudget`]s, a deterministic [`CircuitBreaker`] and the
//!   [`FrontDoor`] admission gate over a [`SlotCounter`], the primitives
//!   that keep a fault storm from becoming a metastable retry storm.
//! * [`transport`] — the shared simulated-wire shim ([`Transport`]):
//!   admission (deadline + breaker), the wire hop (yield + count + latency
//!   charge), and outcome bookkeeping, extracted once for the KV client and
//!   the service front door.

#![warn(missing_docs)]

pub mod clock;
pub mod faults;
pub mod latency;
pub mod resilience;
pub mod retry;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod transport;

pub use clock::{Clock, RealClock, SharedClock, VirtualClock};
pub use faults::{FaultKind, FaultPlan, FaultRecord, FaultRule, InjectedFault, OpClass};
pub use latency::LatencyModel;
pub use resilience::{
    BreakerState, CircuitBreaker, Deadline, DoorStats, FrontDoor, Permit, Rejected, RetryBudget,
    SlotCounter, Workload,
};
pub use retry::{GiveUp, RetryObserver, RetryPolicy};
pub use sched::{
    record, replay, yield_point, CounterExample, Exploration, Explorer, SchedPoint, Trial,
};
pub use stats::Histogram;
pub use transport::{Transport, TransportError};
