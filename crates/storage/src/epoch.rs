//! Commit-timestamp spine: a dense timestamp counter and the `applied`
//! snapshot watermark that follows it.
//!
//! Timestamps are drawn under the write-set shard locks, so they retire
//! out of order across shards; snapshots therefore come from `applied`,
//! which only covers `ts` once every commit at or below `ts` has fully
//! installed. One rule moves it: **whoever moves the watermark looks at
//! the next slot.**
//!
//! * [`EpochSpine::draw`] is one `fetch_add`: timestamps are dense, so
//!   every timestamp below the frontier belongs to a commit that will
//!   retire it, and the watermark never has a hole to skip.
//! * [`EpochSpine::complete`] advances `applied` with one CAS when the
//!   commit retires in order; otherwise it publishes into the completion
//!   ring (`ring[ts % RING] = ts`). Either way it then runs
//!   [`EpochSpine::advance`] — CAS `applied` forward while the next ring
//!   slot is published — wakes parked waiters, and waits for coverage.
//!
//! Any number of threads may advance at once; each step is a CAS from the
//! value the slot was checked against, so `applied` is monotonic and
//! there is no sweeper lock to lose a race for. Liveness is two SeqCst
//! store-then-load pairings, and nothing else:
//!
//! 1. *Publisher / advancer.* A publisher stores its ring slot and
//!    **then** reads `applied`; an advancer moves `applied` and **then**
//!    reads the next ring slot. One of them sees the other, so a
//!    published timestamp adjacent to the watermark is never left behind.
//! 2. *Parker / advancer.* A parker bumps `parked` and **then** re-reads
//!    `applied` under `park`; an advancer moves `applied` and **then**
//!    reads `parked`, notifying under `park`. Either the advancer sees
//!    the parker or the parker sees the advance.
//!
//! ## Contracts
//!
//! * **Acked ⇒ visible**: `complete` returns only once `applied >= ts`,
//!   so the committer's next begin (and everyone else's) sees its commit.
//! * **Monotonic watermark**: `applied` moves only by CAS from `a` to
//!   `a + 1` (and `fetch_max` at recovery).
//! * **Deterministic schedules**: there is no yield point between drawing
//!   a timestamp and retiring it, so under the cooperative scheduler
//!   commits retire in draw order and nothing ever waits. Parking there
//!   would deadlock the run; it is asserted unreachable.

use crate::table::CommitTs;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

/// Completion-ring capacity. Publications are bounded to `RING` ahead of
/// the watermark (see [`EpochSpine::complete`]), so a slot never holds
/// two live timestamps. Must be a power of two.
const RING: u64 = 4096;

/// The commit-timestamp allocator and the `applied` watermark.
pub(crate) struct EpochSpine {
    /// Allocator frontier: exactly the timestamps `1..=next` are drawn.
    next: AtomicU64,
    /// Snapshot watermark: every commit with `ts <= applied` is fully
    /// installed.
    applied: AtomicU64,
    /// Completion ring: `ring[ts % RING] == ts` marks an out-of-order
    /// completion the watermark has yet to pass. Entries at or below
    /// `applied` are dead and overwritten by later publications.
    ring: Box<[AtomicU64]>,
    /// Parking lot for threads waiting on watermark coverage.
    park: Mutex<()>,
    cv: Condvar,
    /// Parkers announced (pairing 2 of the module doc).
    parked: AtomicUsize,
}

impl EpochSpine {
    pub(crate) fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            ring: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            park: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

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

    #[inline]
    fn slot(&self, ts: CommitTs) -> &AtomicU64 {
        &self.ring[(ts & (RING - 1)) as usize]
    }

    /// Retire a drawn timestamp and wait until the watermark covers it.
    /// Called *after* the shard guards are dropped.
    pub(crate) fn complete(&self, ts: CommitTs) {
        // In order: one CAS, no ring traffic. Out of order: publish, at
        // most `RING` ahead of the watermark so the slot's previous
        // tenant (`ts - RING`) is already dead.
        if self
            .applied
            .compare_exchange(ts - 1, ts, SeqCst, SeqCst)
            .is_err()
        {
            self.wait_covered(ts.saturating_sub(RING));
            self.slot(ts).store(ts, SeqCst);
        }
        self.advance();
        self.wait_covered(ts);
    }

    /// Move `applied` over every consecutively published timestamp, then
    /// wake the parking lot. Lock-free; any thread may run it at any
    /// time, and every thread that moved `applied` or published must.
    fn advance(&self) {
        loop {
            let a = self.applied.load(SeqCst);
            if self.slot(a + 1).load(SeqCst) != a + 1 {
                break;
            }
            // Losing this CAS means another advancer took the step and
            // now owns the look at the slot after it.
            let _ = self.applied.compare_exchange(a, a + 1, SeqCst, SeqCst);
        }
        if self.parked.load(SeqCst) > 0 {
            let _guard = self.park.lock();
            self.cv.notify_all();
        }
    }

    /// Block until `applied >= ts`. Whoever retires the gap runs
    /// [`Self::advance`] afterwards and finds us through `parked`.
    pub(crate) fn wait_covered(&self, ts: CommitTs) {
        if self.applied.load(SeqCst) >= ts {
            return;
        }
        self.parked.fetch_add(1, SeqCst);
        {
            let mut guard = self.park.lock();
            while self.applied.load(SeqCst) < ts {
                assert!(
                    !adhoc_sim::sched::under_scheduler(),
                    "watermark parked under the deterministic scheduler \
                     (ts {ts}): a commit is suspended mid-install, which \
                     no yield point should allow"
                );
                self.cv.wait(&mut guard);
            }
        }
        self.parked.fetch_sub(1, SeqCst);
    }

    /// Advance both frontiers to cover a recovered commit (boot-time WAL
    /// replay), so post-recovery draws land above it and new snapshots
    /// see it.
    pub(crate) fn note_recovered(&self, ts: CommitTs) {
        self.next.fetch_max(ts, SeqCst);
        self.applied.fetch_max(ts, SeqCst);
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
        let spine = EpochSpine::new();
        for _ in 0..100 {
            let ts = spine.draw();
            spine.complete(ts);
            assert_eq!(spine.snapshot(), ts);
        }
    }

    #[test]
    fn out_of_order_completion_waits_for_the_gap() {
        let spine = Arc::new(EpochSpine::new());
        let a = spine.draw();
        let b = spine.draw();
        assert!(b > a);
        let spine2 = Arc::clone(&spine);
        let waiter = std::thread::spawn(move || {
            // Completes out of order; must block until `a` retires.
            spine2.complete(b);
            spine2.snapshot()
        });
        while spine.parked.load(SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert!(spine.snapshot() < b);
        spine.complete(a);
        assert!(waiter.join().unwrap() >= b);
    }

    #[test]
    fn note_recovered_lifts_both_frontiers_and_later_draws() {
        let spine = EpochSpine::new();
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
        let spine = Arc::new(EpochSpine::new());
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
        let spine = Arc::new(EpochSpine::new());
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
