//! Evaluation harness: regenerates every figure of the paper's §5.
//!
//! * [`contention`] — the four-mode contention table (each app's
//!   contended ops and exact invariant in all four modes) and the
//!   crash-restart sweep the crash oracles run over the same world shape.
//! * [`fig2`] — lock/unlock latency for the seven lock implementations.
//! * [`fig3`] — API throughput, ad hoc vs database transactions, for the
//!   four coordination granularities of Table 6, with and without
//!   contention.
//! * [`fig4`] — shrink-image API latency for the four rollback strategies,
//!   with and without conflicting edit-post load.
//! * [`ttl_ablation`] — the lease-TTL safety cliff behind the Mastodon bug.
//! * [`isolation_ablation`] — the Table 7b per-operation isolation hint.
//! * [`ablations`] — gap certification, KV round trips, early RMW locking.
//! * [`scaling`] — the multi-thread sweeps behind `BENCH_*.json`, and the
//!   measurement loop the ablations share.
//! * [`resilience`] — the metastability ablation: which resilience
//!   mechanisms let goodput recover after a partition storm.
//!
//! Absolute numbers depend on the simulated latency model and the host;
//! the *shapes* (orderings and ratios) are the reproduction targets — see
//! EXPERIMENTS.md at the repository root.

#![warn(missing_docs)]

pub mod ablations;
pub mod contention;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod isolation_ablation;
pub mod resilience;
pub mod scaling;
pub mod ttl_ablation;

/// Measurement tests take this lock so they never run concurrently —
/// on small machines a sibling CPU-bound test skews throughput numbers.
#[doc(hidden)]
pub static SERIAL_MEASUREMENTS: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
