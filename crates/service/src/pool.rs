//! A bounded pool of pooled service connections.
//!
//! Every session borrows the pool's one [`Transport`] shim — the same
//! wire discipline the KV client uses, wired to
//! [`Cost::ServiceRoundTrip`](adhoc_sim::latency::Cost) — so a caller pays
//! exactly one service round trip through whichever pooled connection it
//! drew. When every connection is busy the caller learns immediately
//! (fail-fast), instead of queueing invisibly inside a connection layer.
//! The bound is an [`adhoc_sim::SlotCounter`], the slot count the storm
//! world's per-app admission uses too. [`Service`](crate::Service) serves one
//! request at a time and holds its transport directly; the pool is for
//! callers that serve several at once.

use adhoc_sim::{Permit, SlotCounter, Transport};

/// A fixed-size pool of service connections sharing one [`Transport`].
pub struct SessionPool {
    transport: Transport,
    slots: SlotCounter,
}

impl SessionPool {
    /// A pool of `capacity` connections over `transport` (every session
    /// uses it, so they share its round-trip counter and breaker).
    pub fn new(transport: Transport, capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            transport,
            slots: SlotCounter::new(capacity),
        }
    }

    /// Try to draw a connection; `None` (counted) when all are busy. A
    /// refusal never holds a connection, even for an instant.
    pub fn try_acquire(&self) -> Option<Session<'_>> {
        let _slot = self.slots.try_take()?;
        Some(Session {
            transport: &self.transport,
            _slot,
        })
    }

    /// Pool size.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Connections currently checked out.
    pub fn in_use(&self) -> usize {
        self.slots.in_use()
    }

    /// Acquisitions refused because the pool was empty.
    pub fn exhausted(&self) -> u64 {
        self.slots.refused()
    }

    /// Service round trips paid through this pool so far.
    pub fn round_trips(&self) -> u64 {
        self.transport.round_trips()
    }
}

/// One checked-out connection (RAII: dropping returns it to the pool).
pub struct Session<'a> {
    transport: &'a Transport,
    _slot: Permit<'a>,
}

impl Session<'_> {
    /// The pooled connection's transport (pay the service round trip
    /// through this).
    pub fn transport(&self) -> &Transport {
        self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_sim::{LatencyModel, VirtualClock};

    fn pool(capacity: usize) -> SessionPool {
        SessionPool::new(
            Transport::service(VirtualClock::shared(), LatencyModel::zero()),
            capacity,
        )
    }

    #[test]
    fn pool_bounds_checkouts_and_counts_exhaustion() {
        let p = pool(2);
        let a = p.try_acquire().unwrap();
        let _b = p.try_acquire().unwrap();
        assert!(p.try_acquire().is_none());
        assert_eq!(p.exhausted(), 1);
        assert_eq!(p.in_use(), 2);
        drop(a);
        assert_eq!(p.in_use(), 1);
        assert!(p.try_acquire().is_some());
    }

    #[test]
    fn sessions_share_the_round_trip_counter() {
        let p = pool(2);
        let a = p.try_acquire().unwrap();
        a.transport().pay();
        drop(a);
        let b = p.try_acquire().unwrap();
        b.transport().pay();
        assert_eq!(p.round_trips(), 2);
    }
}
