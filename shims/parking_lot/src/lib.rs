//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the *subset* of the parking_lot API it actually uses,
//! implemented over `std::sync`. Semantics match parking_lot where it
//! matters to callers: `lock()`/`read()`/`write()` return guards directly
//! (no poisoning — a poisoned std lock is recovered transparently, matching
//! parking_lot's "no poisoning" contract), and `Condvar::wait` takes the
//! guard by `&mut`.
//!
//! [`Condvar`] also keeps parking_lot's cheap notify. std's Linux
//! `notify_one`/`notify_all` make a FUTEX_WAKE syscall even when no thread
//! waits, and the engine notifies on every WAL flush, MEM-lock release and
//! lock-manager release, almost always with nobody waiting. So the shim
//! counts its waiters and a notify that reads zero returns after one load.
//! The contract this relies on is the one every condvar caller already
//! keeps: the predicate a waiter checks is changed under the same mutex.
//! A waiter counts itself before std releases that mutex, so a notifier
//! that changed the predicate under it is ordered after the count and
//! cannot read zero while the waiter sleeps.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::TryLockError;
use std::time::Instant;

/// Mutual exclusion primitive (std-backed, non-poisoning API).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Attempt to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken during condvar wait")
    }
}

/// Reader-writer lock (std-backed, non-poisoning API).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Outcome of a [`Condvar::wait_until`] call.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with this module's [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside a `wait*` call; a notify that reads zero is skipped.
    waiters: AtomicUsize,
}

/// One counted waiter: counts itself on creation and uncounts itself on
/// drop, so no exit path of a wait can leave the count unbalanced.
struct Waiting<'a>(&'a AtomicUsize);

impl<'a> Waiting<'a> {
    fn enter(waiters: &'a AtomicUsize) -> Self {
        waiters.fetch_add(1, SeqCst);
        Self(waiters)
    }
}

impl Drop for Waiting<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Hand the guard's std lock to `block` as a counted waiter. The count
    /// rises while the mutex is still held and falls once `block` has
    /// re-acquired it.
    fn park<'a, T, R>(
        &self,
        guard: &mut MutexGuard<'a, T>,
        block: impl FnOnce(std::sync::MutexGuard<'a, T>) -> (std::sync::MutexGuard<'a, T>, R),
    ) -> R {
        let inner = guard.0.take().expect("guard already taken");
        let _waiting = Waiting::enter(&self.waiters);
        let (inner, result) = block(inner);
        guard.0 = Some(inner);
        result
    }

    /// Atomically release the guard's mutex and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.park(guard, |g| {
            (self.inner.wait(g).unwrap_or_else(|e| e.into_inner()), ())
        })
    }

    /// Wait until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        self.park(guard, |g| {
            let (g, r) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(|e| e.into_inner());
            (g, WaitTimeoutResult(r.timed_out()))
        })
    }

    /// Wait until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    /// Wake one waiter, if any.
    pub fn notify_one(&self) {
        if self.waiters.load(SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters, if any.
    pub fn notify_all(&self) {
        if self.waiters.load(SeqCst) > 0 {
            self.inner.notify_all();
        }
    }

    /// Threads currently counted as waiting.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.waiters.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// The condvar before it counted waiters: every notify reaches std.
    /// The oracle the counted [`Condvar`] is checked against.
    #[derive(Default)]
    struct AlwaysNotify(std::sync::Condvar);

    /// The wait/notify surface both condvars share, so one program can
    /// drive either.
    trait Cv: Default + Send + Sync + 'static {
        fn wait<T>(&self, guard: &mut MutexGuard<'_, T>);
        fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult;
        fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult;
        fn notify_one(&self);
        fn notify_all(&self);
    }

    impl Cv for Condvar {
        fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            Condvar::wait(self, guard)
        }
        fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            Condvar::wait_for(self, guard, timeout)
        }
        fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            Condvar::wait_until(self, guard, deadline)
        }
        fn notify_one(&self) {
            Condvar::notify_one(self)
        }
        fn notify_all(&self) {
            Condvar::notify_all(self)
        }
    }

    impl Cv for AlwaysNotify {
        fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.0.take().expect("guard already taken");
            guard.0 = Some(self.0.wait(inner).unwrap_or_else(|e| e.into_inner()));
        }
        fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            let inner = guard.0.take().expect("guard already taken");
            let (inner, r) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|e| e.into_inner());
            guard.0 = Some(inner);
            WaitTimeoutResult(r.timed_out())
        }
        fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
        }
        fn notify_one(&self) {
            self.0.notify_one()
        }
        fn notify_all(&self) {
            self.0.notify_all()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Wait,
        WaitFor,
        WaitUntil,
    }

    const KINDS: [Kind; 3] = [Kind::Wait, Kind::WaitFor, Kind::WaitUntil];

    /// One wait of `kind`; the timed kinds give up after `patience`.
    /// Returns whether it timed out.
    fn wait_once<C: Cv, T>(
        cv: &C,
        guard: &mut MutexGuard<'_, T>,
        kind: Kind,
        patience: Duration,
    ) -> bool {
        match kind {
            Kind::Wait => {
                cv.wait(guard);
                false
            }
            Kind::WaitFor => cv.wait_for(guard, patience).timed_out(),
            Kind::WaitUntil => cv.wait_until(guard, Instant::now() + patience).timed_out(),
        }
    }

    #[derive(Default)]
    struct FlagState {
        raised: bool,
        /// The waiter has marked itself and is about to wait.
        parked: bool,
    }

    /// A flag and a condvar on it.
    #[derive(Default)]
    struct Flag {
        state: Mutex<FlagState>,
        cv: Condvar,
    }

    /// Park one waiter of `kind` on a fresh flag, raise the flag once it
    /// is asleep, and return the flag after the waiter has left.
    fn notified_wait(kind: Kind) -> Arc<Flag> {
        let flag = Arc::new(Flag::default());
        let waiter = Arc::clone(&flag);
        let t = std::thread::spawn(move || {
            let mut g = waiter.state.lock();
            g.parked = true;
            let mut timed_out = false;
            while !g.raised && !timed_out {
                timed_out = wait_once(&waiter.cv, &mut g, kind, Duration::from_secs(2));
            }
            timed_out
        });
        // The waiter holds the mutex from marking itself parked until std
        // releases it inside the wait, so seeing the mark means it sleeps.
        while !flag.state.lock().parked {
            std::thread::yield_now();
        }
        flag.state.lock().raised = true;
        flag.cv.notify_all();
        assert!(!t.join().unwrap(), "{kind:?}: notified waiter timed out");
        flag
    }

    #[test]
    fn every_wait_leaves_the_waiter_count_balanced() {
        for kind in KINDS {
            let flag = notified_wait(kind);
            assert_eq!(flag.cv.waiters(), 0, "notified {kind:?}");
        }
        for kind in [Kind::WaitFor, Kind::WaitUntil] {
            let flag = Flag::default();
            let mut g = flag.state.lock();
            assert!(wait_once(&flag.cv, &mut g, kind, Duration::from_millis(5)));
            drop(g);
            assert_eq!(flag.cv.waiters(), 0, "timed-out {kind:?}");
        }
    }

    /// 1,000 rounds of each wait kind, notified under the mutex and after
    /// dropping it, with the waiter sometimes asleep first and sometimes
    /// racing the notify. A lost wake-up fails the watchdog instead of
    /// hanging the test binary: the timed waits are far longer than it.
    #[test]
    fn notify_wakes_every_kind_of_waiter() {
        for round in 0..1_000u32 {
            for kind in KINDS {
                for notify_under_lock in [true, false] {
                    let flag = Arc::new(Flag::default());
                    let (done, finished) = mpsc::channel();
                    let waiter = Arc::clone(&flag);
                    // Detached on purpose: a waiter that missed its
                    // wake-up can never be joined.
                    std::thread::spawn(move || {
                        let mut g = waiter.state.lock();
                        g.parked = true;
                        while !g.raised {
                            wait_once(&waiter.cv, &mut g, kind, Duration::from_secs(60));
                        }
                        done.send(()).unwrap();
                    });
                    if round % 2 == 0 {
                        while !flag.state.lock().parked {
                            std::thread::yield_now();
                        }
                    }
                    let mut g = flag.state.lock();
                    g.raised = true;
                    if notify_under_lock {
                        flag.cv.notify_all();
                        drop(g);
                    } else {
                        drop(g);
                        flag.cv.notify_all();
                    }
                    finished
                        .recv_timeout(Duration::from_secs(20))
                        .unwrap_or_else(|_| {
                            panic!(
                                "round {round}: {kind:?} waiter never woke \
                             (notify under lock: {notify_under_lock})"
                            )
                        });
                }
            }
        }
    }

    /// A tiny seeded generator, so the differential program needs no
    /// dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[derive(Default)]
    struct Queue {
        items: std::collections::VecDeque<u64>,
        closed: bool,
        consumed: u64,
        sum: u64,
    }

    #[derive(Default)]
    struct Channel<C> {
        queue: Mutex<Queue>,
        not_empty: C,
        not_full: C,
    }

    const ITEMS: u64 = 20_000;
    const CAPACITY: usize = 4;
    const CONSUMERS: u64 = 3;

    /// A bounded queue, one producer and three consumers, every wait kind,
    /// patience and notify (one or all, under the mutex or after it)
    /// drawn from `seed`. Returns the final (consumed, sum, left over).
    fn bounded_queue<C: Cv>(seed: u64, cv_of: impl Fn(&C) -> usize) -> (u64, u64, usize) {
        let ch = Arc::new(Channel::<C>::default());
        let (done, finished) = mpsc::channel();
        let pick = |rng: &mut SplitMix| {
            let kind = KINDS[rng.below(3) as usize];
            // Mostly longer than the watchdog, so a lost wake-up shows;
            // sometimes short, so the timed-out path interleaves too.
            let patience = if rng.below(4) == 0 {
                Duration::from_micros(50)
            } else {
                Duration::from_secs(60)
            };
            (kind, patience)
        };
        let notify = |rng: &mut SplitMix, cv: &C, guard: MutexGuard<'_, Queue>| {
            let all = rng.below(2) == 0;
            let held = if rng.below(2) == 0 {
                Some(guard)
            } else {
                drop(guard);
                None
            };
            if all {
                cv.notify_all()
            } else {
                cv.notify_one()
            }
            drop(held);
        };
        for id in 0..CONSUMERS {
            let (ch, done) = (Arc::clone(&ch), done.clone());
            std::thread::spawn(move || {
                let mut rng = SplitMix(seed ^ (id + 1) << 32);
                loop {
                    let mut q = ch.queue.lock();
                    while q.items.is_empty() && !q.closed {
                        let (kind, patience) = pick(&mut rng);
                        wait_once(&ch.not_empty, &mut q, kind, patience);
                    }
                    let Some(item) = q.items.pop_front() else {
                        break;
                    };
                    q.consumed += 1;
                    q.sum += item;
                    notify(&mut rng, &ch.not_full, q);
                }
                done.send(()).unwrap();
            });
        }
        let producer = {
            let (ch, done) = (Arc::clone(&ch), done.clone());
            std::thread::spawn(move || {
                let mut rng = SplitMix(seed);
                for item in 0..ITEMS {
                    let mut q = ch.queue.lock();
                    while q.items.len() == CAPACITY {
                        let (kind, patience) = pick(&mut rng);
                        wait_once(&ch.not_full, &mut q, kind, patience);
                    }
                    q.items.push_back(item);
                    notify(&mut rng, &ch.not_empty, q);
                }
                ch.queue.lock().closed = true;
                ch.not_empty.notify_all();
                done.send(()).unwrap();
            })
        };
        drop(done);
        for _ in 0..=CONSUMERS {
            finished
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("seed {seed}: a thread never woke"));
        }
        producer.join().unwrap();
        assert_eq!(cv_of(&ch.not_empty) + cv_of(&ch.not_full), 0, "seed {seed}");
        let q = ch.queue.lock();
        (q.consumed, q.sum, q.items.len())
    }

    #[test]
    fn counted_condvar_matches_the_always_notify_reference() {
        for seed in 0..4 {
            let counted = bounded_queue::<Condvar>(seed, Condvar::waiters);
            let reference = bounded_queue::<AlwaysNotify>(seed, |_| 0);
            assert_eq!(counted, reference, "seed {seed}");
            assert_eq!(counted, (ITEMS, ITEMS * (ITEMS - 1) / 2, 0));
        }
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
