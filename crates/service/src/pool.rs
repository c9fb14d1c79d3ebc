//! A bounded pool of pooled service connections.
//!
//! Every session borrows the pool's one [`Transport`] shim — the same
//! wire discipline the KV client uses, wired to
//! [`Cost::ServiceRoundTrip`](adhoc_sim::latency::Cost) — so every request
//! pays exactly one service round trip through whichever pooled
//! connection it drew. The pool is the first bounded resource a request
//! meets: when every connection is busy the caller learns immediately
//! (fail-fast), instead of queueing invisibly inside a connection layer.

use adhoc_sim::Transport;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A fixed-size pool of service connections sharing one [`Transport`].
pub struct SessionPool {
    transport: Transport,
    capacity: usize,
    in_use: AtomicUsize,
    exhausted: AtomicU64,
}

impl SessionPool {
    /// A pool of `capacity` connections over `transport` (every session
    /// uses it, so they share its round-trip counter and breaker).
    pub fn new(transport: Transport, capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            transport,
            capacity,
            in_use: AtomicUsize::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Try to draw a connection; `None` (counted) when all are busy. A
    /// refusal never holds a connection, even for an instant.
    pub fn try_acquire(&self) -> Option<Session<'_>> {
        let fits = |n: usize| (n < self.capacity).then_some(n + 1);
        if self
            .in_use
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, fits)
            .is_ok()
        {
            return Some(Session { pool: self });
        }
        self.exhausted.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Pool size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Connections currently checked out.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Acquire)
    }

    /// Acquisitions refused because the pool was empty.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Service round trips paid through this pool so far.
    pub fn round_trips(&self) -> u64 {
        self.transport.round_trips()
    }
}

/// One checked-out connection (RAII: dropping returns it to the pool).
pub struct Session<'a> {
    pool: &'a SessionPool,
}

impl Session<'_> {
    /// The pooled connection's transport (pay the service round trip
    /// through this).
    pub fn transport(&self) -> &Transport {
        &self.pool.transport
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::AcqRel);
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

    /// A refused checkout must not refuse one that fits: the pool twin of
    /// `FrontDoor`'s admission race test. The test holds one of two
    /// connections; F takes the other a million times, holding it for a
    /// short spin, while N checks out and returns as fast as it can,
    /// numbering each attempt first. An F refusal is genuine only if some
    /// N attempt numbered during F's call got the connection.
    #[test]
    fn a_refused_checkout_never_refuses_one_that_fits() {
        use std::sync::atomic::AtomicBool;
        const ROUNDS: usize = 1_000_000;
        let p = pool(2);
        let _held = p.try_acquire().unwrap();
        let attempt = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let (refusals, admitted) = std::thread::scope(|s| {
            let n = s.spawn(|| {
                // The numbers of N's attempts that got a connection, ascending.
                let (mut admitted, mut k) = (Vec::new(), 0);
                while !done.load(Ordering::Relaxed) {
                    k += 1;
                    attempt.store(k, Ordering::SeqCst);
                    if p.try_acquire().is_some() {
                        admitted.push(k);
                    }
                }
                admitted
            });
            let mut refusals = Vec::new();
            for _ in 0..ROUNDS {
                let first = attempt.load(Ordering::SeqCst);
                let session = p.try_acquire();
                let last = attempt.load(Ordering::SeqCst);
                match session {
                    Some(_session) => (0..200).for_each(|_| std::hint::spin_loop()),
                    None => refusals.push((first, last)),
                }
            }
            done.store(true, Ordering::Relaxed);
            (refusals, n.join().unwrap())
        });
        let spurious = refusals
            .iter()
            .filter(|&&(first, last)| {
                let next = admitted.partition_point(|&k| k < first);
                admitted.get(next).is_none_or(|&k| k > last)
            })
            .count();
        assert_eq!(
            spurious,
            0,
            "{spurious} of {} refusals came with a connection free",
            refusals.len()
        );
        assert_eq!(p.in_use(), 1);
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
