//! Commit-timestamp spine: a dense timestamp counter and the `applied`
//! snapshot watermark that follows it.
//!
//! [`EpochSpine::draw`] is one `fetch_add` under the write-set shard
//! locks, so timestamps are dense but retire out of order across shards.
//! Snapshots read `applied`, which covers `ts` only once every commit at
//! or below `ts` has installed. [`EpochSpine::complete`] works under one
//! mutex: the commit that fills the gap above `applied` moves it past
//! itself and past every consecutive timestamp that retired `early`; any
//! other commit files itself there. Either way it then waits for
//! coverage. `applied` is an atomic so a snapshot is one load, but it is
//! stored only under the mutex. The condvar counts its waiters under
//! that same mutex, so a completer's notify misses no one, and with
//! nobody parked it costs one load, not a syscall.
//!
//! Contracts: **acked ⇒ visible** (`complete` returns once `applied >=
//! ts`, so the committer's next begin sees its commit); **monotonic**
//! (`applied` only moves up); **deterministic schedules** (no yield point
//! sits between drawing and retiring, so under the cooperative scheduler
//! commits retire in draw order and never park, which is asserted).

use crate::table::CommitTs;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// The commit-timestamp allocator and the `applied` watermark.
#[derive(Default)]
pub(crate) struct EpochSpine {
    /// Allocator frontier: exactly the timestamps `1..=next` are drawn.
    next: AtomicU64,
    /// Snapshot watermark: every commit with `ts <= applied` is fully
    /// installed. Stored only under `early`.
    applied: AtomicU64,
    /// Retired timestamps above `applied + 1`, waiting for the gap below.
    early: Mutex<BTreeSet<CommitTs>>,
    /// Signalled when `applied` moves.
    cv: Condvar,
}

impl EpochSpine {
    /// The snapshot new begins read at.
    #[inline]
    pub(crate) fn snapshot(&self) -> CommitTs {
        self.applied.load(SeqCst)
    }

    /// The allocator frontier: no timestamp above this has been drawn.
    pub(crate) fn last_drawn(&self) -> CommitTs {
        self.next.load(SeqCst)
    }

    /// Draw one commit timestamp. Must be called with the write-set shard
    /// locks held so every shard log stays timestamp-ordered.
    pub(crate) fn draw(&self) -> CommitTs {
        self.next.fetch_add(1, SeqCst) + 1
    }

    /// Retire a drawn timestamp and wait until the watermark covers it.
    /// Called *after* the shard guards are dropped.
    pub(crate) fn complete(&self, ts: CommitTs) {
        let mut early = self.early.lock();
        if ts == self.applied.load(SeqCst) + 1 {
            let mut top = ts;
            while early.first() == Some(&(top + 1)) {
                early.pop_first();
                top += 1;
            }
            self.publish(top);
        } else {
            early.insert(ts);
        }
        self.park_until(&mut early, ts);
    }

    /// Store a new watermark and wake the waiters. Caller holds `early`.
    fn publish(&self, applied: CommitTs) {
        self.applied.store(applied, SeqCst);
        self.cv.notify_all();
    }

    /// Block until `applied >= ts`.
    pub(crate) fn wait_covered(&self, ts: CommitTs) {
        if self.applied.load(SeqCst) < ts {
            self.park_until(&mut self.early.lock(), ts);
        }
    }

    fn park_until(&self, early: &mut MutexGuard<'_, BTreeSet<CommitTs>>, ts: CommitTs) {
        while self.applied.load(SeqCst) < ts {
            assert!(
                !adhoc_sim::sched::under_scheduler(),
                "watermark parked under the deterministic scheduler \
                 (ts {ts}): a commit is suspended mid-install, which \
                 no yield point should allow"
            );
            self.cv.wait(early);
        }
    }

    /// Advance both frontiers to cover a recovered commit (boot-time WAL
    /// replay), so post-recovery draws land above it and new snapshots
    /// see it.
    pub(crate) fn note_recovered(&self, ts: CommitTs) {
        let _early = self.early.lock();
        self.next.fetch_max(ts, SeqCst);
        self.publish(self.applied.load(SeqCst).max(ts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn in_order_draws_advance_without_parking() {
        let spine = EpochSpine::default();
        for _ in 0..100 {
            let ts = spine.draw();
            spine.complete(ts);
            assert_eq!(spine.snapshot(), ts);
        }
    }

    #[test]
    fn out_of_order_completion_waits_for_the_gap() {
        let spine = Arc::new(EpochSpine::default());
        let a = spine.draw();
        let b = spine.draw();
        assert!(b > a);
        let spine2 = Arc::clone(&spine);
        let waiter = std::thread::spawn(move || {
            // Completes out of order; must block until `a` retires.
            spine2.complete(b);
            spine2.snapshot()
        });
        // `b` is filed and its committer parked in one critical section,
        // so seeing it in `early` means the waiter is asleep.
        while !spine.early.lock().contains(&b) {
            std::thread::yield_now();
        }
        assert!(spine.snapshot() < b);
        spine.complete(a);
        assert!(waiter.join().unwrap() >= b);
        assert!(spine.early.lock().is_empty());
    }

    /// A waiter parks in `wait_covered(k)` while the main thread retires
    /// `1..=k` in order — every completion takes the in-order branch, so
    /// the waiter is woken only if the condvar's skip-when-nobody-waits
    /// gate saw it counted. A lost wake-up fails the watchdog instead of
    /// hanging the test binary.
    #[test]
    fn in_order_completion_wakes_a_parked_waiter() {
        for round in 0..1_000u64 {
            let k = 1 + round % 16;
            let spine = Arc::new(EpochSpine::default());
            for _ in 0..k {
                spine.draw();
            }
            let (done, finished) = mpsc::channel();
            let waiter = Arc::clone(&spine);
            // Detached on purpose: a waiter that missed its wake-up can
            // never be joined.
            std::thread::spawn(move || {
                waiter.wait_covered(k);
                done.send(waiter.snapshot()).unwrap();
            });
            for ts in 1..=k {
                spine.complete(ts);
            }
            let seen = finished
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("round {round}: waiter on {k} never woke"));
            assert_eq!(seen, k);
        }
    }

    #[test]
    fn note_recovered_lifts_both_frontiers_and_later_draws() {
        let spine = EpochSpine::default();
        for _ in 0..10 {
            let ts = spine.draw();
            spine.complete(ts);
        }
        let far = spine.last_drawn() + 1000;
        spine.note_recovered(far);
        assert!(spine.snapshot() >= far && spine.last_drawn() >= far);
        // Post-recovery draws land above the recovered frontier, and
        // retire in order from it.
        let ts = spine.draw();
        assert!(ts > far, "stale timestamp {ts} <= recovered {far}");
        spine.complete(ts);
        assert_eq!(spine.snapshot(), ts);
        // An older recovered commit moves nothing backwards.
        spine.note_recovered(far - 1);
        assert_eq!((spine.snapshot(), spine.last_drawn()), (ts, ts));
    }

    #[test]
    fn concurrent_commit_stress_keeps_the_watermark_exact() {
        const THREADS: u64 = 8;
        const COMMITS: u64 = 2000;
        let spine = Arc::new(EpochSpine::default());
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let spine = Arc::clone(&spine);
                std::thread::spawn(move || {
                    let mut drawn = Vec::with_capacity(COMMITS as usize);
                    for _ in 0..COMMITS {
                        let before = spine.snapshot();
                        let ts = spine.draw();
                        spine.complete(ts);
                        // Acked ⇒ visible, immediately; never backwards.
                        assert!(spine.snapshot() >= ts);
                        assert!(spine.snapshot() >= before);
                        drawn.push(ts);
                    }
                    drawn
                })
            })
            .collect();
        let mut drawn: Vec<_> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        // Dense: no timestamp drawn twice, none skipped — and with every
        // commit acked the watermark sits exactly on the frontier.
        drawn.sort_unstable();
        assert!(drawn.iter().copied().eq(1..=THREADS * COMMITS));
        assert_eq!(spine.last_drawn(), THREADS * COMMITS);
        assert_eq!(spine.snapshot(), spine.last_drawn());
    }

    /// The AdHoc shape that used to stall for good: an application lock
    /// taken before the commit and released only *after* `complete`
    /// returns, so a committer whose successor is parked stops committing
    /// instead of stumbling into a later advance. Workers report over a
    /// channel so a stall is a failure here, not a hung test binary.
    #[test]
    fn outer_lock_held_across_complete_never_stalls() {
        const ITERS: u64 = 3_000_000;
        let spine = Arc::new(EpochSpine::default());
        let outer = Arc::new([std::sync::Mutex::new(()), std::sync::Mutex::new(())]);
        let (done, finished) = mpsc::channel();
        for seed in 0..2 {
            let (spine, outer, done) = (Arc::clone(&spine), Arc::clone(&outer), done.clone());
            // Detached on purpose: a stalled worker can never be joined.
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..ITERS {
                    let _held = outer[rng.gen_range(0..2usize)].lock().unwrap();
                    let ts = spine.draw();
                    spine.complete(ts);
                    assert!(spine.snapshot() >= ts);
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            finished.recv_timeout(Duration::from_secs(20)).expect(
                "a committer stalled: its timestamp is published but the watermark never passed it",
            );
        }
        assert_eq!(spine.snapshot(), 2 * ITERS);
    }
}
