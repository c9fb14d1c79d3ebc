//! `KV-SETNX` and `KV-MULTI`: Redis-backed locks (§3.2.1).
//!
//! Mastodon acquires with a single `SETNX`; Discourse drives a
//! `WATCH`/`GET`/`MULTI`/`SET`/`EXEC` conversation, paying several extra
//! round trips per cycle (the paper counts six). Saleor's variant adds
//! re-entrancy. The Mastodon lease bug (§4.1.1, issue \[65\]) — an
//! auto-expiring entry released early, with no expiry check before the
//! critical section's writes — reproduces here by combining
//! [`KvSetNxLock::with_ttl`] with ignoring [`Guard::is_valid`], and the
//! unconditional-`DEL` unlock is available via
//! [`KvSetNxLock::unlock_without_owner_check`].
//!
//! [`Guard::is_valid`]: super::Guard::is_valid

use super::{AcquireConfig, AdHocLock, Guard, LockError, LockGuard};
use adhoc_kv::{Client, KvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

static OWNER_COUNTER: AtomicU64 = AtomicU64::new(1);

fn fresh_owner() -> String {
    format!("owner-{}", OWNER_COUNTER.fetch_add(1, Ordering::SeqCst))
}

/// Re-entrancy bookkeeping per lock instance: key → (holding thread,
/// owner token, depth). Shared (not thread-local) so a guard that
/// migrates threads still decrements the right entry; nested acquisition
/// is only granted to the *holding* thread, matching Saleor's semantics.
type ReentrantTable = Mutex<HashMap<String, (ThreadId, String, u32)>>;

/// `KV-SETNX`: Mastodon/Saleor-style Redis lock.
#[derive(Clone)]
pub struct KvSetNxLock {
    client: Client,
    config: AcquireConfig,
    ttl: Option<Duration>,
    check_owner_on_unlock: bool,
    reentrant: bool,
    recover_ambiguous: bool,
    fenced: bool,
    /// Per-instance re-entrancy table (see [`ReentrantTable`]).
    reentrancy: Arc<ReentrantTable>,
}

impl KvSetNxLock {
    /// A correct, non-leased, non-re-entrant `SETNX` lock.
    pub fn new(client: Client) -> Self {
        Self {
            client,
            config: AcquireConfig::default(),
            ttl: None,
            check_owner_on_unlock: true,
            reentrant: false,
            recover_ambiguous: false,
            fenced: false,
            reentrancy: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Override the acquisition retry/timeout policy.
    pub fn with_config(mut self, config: AcquireConfig) -> Self {
        self.config = config;
        self
    }

    /// Lease semantics: entries auto-expire after `ttl` (Redis `PX`).
    /// Correct users check [`Guard::is_valid`] before acting on the lock;
    /// Mastodon did not (§4.1.1).
    ///
    /// [`Guard::is_valid`]: super::Guard::is_valid
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Fault injection: unlock with a bare `DEL`, without verifying the
    /// entry is still ours — after a lease expiry this deletes somebody
    /// else's lock.
    pub fn unlock_without_owner_check(mut self) -> Self {
        self.check_owner_on_unlock = false;
        self
    }

    /// Saleor's re-entrant variant: the same thread may acquire the same
    /// key repeatedly; the entry is removed when the outermost guard
    /// releases.
    pub fn reentrant(mut self) -> Self {
        self.reentrant = true;
        self
    }

    /// When a `SETNX` reply is lost ([`KvError::ConnectionLost`]) the
    /// client cannot tell whether its write landed. With this switch, the
    /// lock recovers by reading the key back: if the entry carries our
    /// owner token, our write won and the lock is treated as acquired.
    ///
    /// This is the realistic application-level recovery — and, combined
    /// with a TTL, it's how the double-grant arises: the acquisition the
    /// recovery confirmed can expire mid-critical-section, hand the lock
    /// to someone else, and only a [`Guard::is_valid`] check (the fence)
    /// catches it.
    ///
    /// [`Guard::is_valid`]: super::Guard::is_valid
    pub fn recover_ambiguous_replies(mut self) -> Self {
        self.recover_ambiguous = true;
        self
    }

    /// The robust TTL-steal fix: leased acquisitions go through the
    /// store's fenced lease grant, and the guard exposes a monotonic
    /// [fencing token](super::Guard::fencing_token) for the critical
    /// section to attach to its writes (via
    /// [`Client::fenced_set`](adhoc_kv::Client::fenced_set)). A holder
    /// whose lease expired and was re-granted carries a stale token and
    /// its late writes bounce off the store's fence floor — correctness no
    /// longer hinges on the holder remembering to check
    /// [`Guard::is_valid`](super::Guard::is_valid). Only meaningful
    /// together with [`with_ttl`](Self::with_ttl); without a TTL the
    /// entry cannot be stolen and plain `SETNX` is used. The default
    /// (unfenced) behaviour is unchanged so the §4.1.1 bug still
    /// reproduces.
    pub fn with_fencing(mut self) -> Self {
        self.fenced = true;
        self
    }

    /// The guard for `owner`'s hold on `key`.
    fn guard(&self, key: &str, owner: String, token: Option<u64>) -> Guard {
        Guard::new(Box::new(KvGuard {
            client: self.client.clone(),
            key: key.to_string(),
            owner,
            check_owner: self.check_owner_on_unlock,
            leased: self.ttl.is_some(),
            released: false,
            token,
            reentrancy: self.reentrant.then(|| Arc::clone(&self.reentrancy)),
        }))
    }
}

struct KvGuard {
    client: Client,
    key: String,
    owner: String,
    check_owner: bool,
    /// Whether the entry carries a TTL (lease). Without a lease the entry
    /// cannot be stolen, so a bare `DEL` on unlock is safe and costs one
    /// round trip; with a lease the unlock must be atomic (see `unlock`).
    leased: bool,
    released: bool,
    /// Monotonic fencing token, present when the lock was acquired via
    /// the fenced lease grant ([`KvSetNxLock::with_fencing`]).
    token: Option<u64>,
    /// Re-entrancy table this guard participates in, when any.
    reentrancy: Option<Arc<ReentrantTable>>,
}

impl KvGuard {
    fn depth_decrement(&self) -> bool {
        // Returns true when this was the outermost guard (entry removable).
        let Some(table) = &self.reentrancy else {
            return true;
        };
        let mut table = table.lock();
        match table.get_mut(&self.key) {
            Some((_, _, depth)) => {
                *depth -= 1;
                if *depth == 0 {
                    table.remove(&self.key);
                    true
                } else {
                    false
                }
            }
            None => true,
        }
    }
}

impl LockGuard for KvGuard {
    fn unlock(&mut self) -> Result<(), LockError> {
        if self.released {
            return Ok(());
        }
        self.released = true;
        if !self.depth_decrement() {
            return Ok(()); // inner re-entrant level: nothing to delete yet
        }
        if self.check_owner && self.leased {
            // The lease may have expired (and been re-granted): deleting
            // then would clobber the new holder, so report instead.
            return match self.client.release_lease(&self.key, &self.owner) {
                Ok(true) => Ok(()),
                Ok(false) => Err(LockError::NotHeld {
                    key: self.key.clone(),
                }),
                Err(e) => Err(LockError::Backend(e.to_string())),
            };
        }
        // No lease: only this guard can remove the entry, so an
        // unconditional single-round-trip DEL is safe (and is what the
        // studied applications issue). A lost reply still must NOT be
        // treated as a confirmed release (§3.4.1): surface it.
        self.client
            .del(&self.key)
            .map_err(|e| LockError::Backend(e.to_string()))?;
        Ok(())
    }

    fn is_valid(&self) -> bool {
        !self.released
            && self.client.get(&self.key).ok().flatten().as_deref() == Some(self.owner.as_str())
    }

    fn leak(&mut self) {
        self.released = true;
        if let Some(table) = &self.reentrancy {
            table.lock().remove(&self.key);
        }
    }

    fn fencing_token(&self) -> Option<u64> {
        self.token
    }
}

impl AdHocLock for KvSetNxLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        // Re-entrant fast path: this thread already holds the key.
        if self.reentrant {
            let existing = {
                let mut table = self.reentrancy.lock();
                match table.get_mut(key) {
                    Some((holder, owner, depth)) if *holder == std::thread::current().id() => {
                        *depth += 1;
                        Some(owner.clone())
                    }
                    _ => None,
                }
            };
            if let Some(owner) = existing {
                return Ok(self.guard(key, owner, None));
            }
        }

        let owner = fresh_owner();
        let token = self.config.poll("KV-SETNX", key, || {
            let mut token = None;
            let attempt = match self.ttl {
                Some(ttl) if self.fenced => {
                    self.client.acquire_lease(key, &owner, ttl).map(|grant| {
                        token = grant;
                        grant.is_some()
                    })
                }
                Some(ttl) => self.client.set_nx_px(key, &owner, ttl),
                None => self.client.set_nx(key, &owner),
            };
            let backend = |e: KvError| LockError::Backend(e.to_string());
            let acquired = match attempt {
                Ok(acquired) => acquired,
                Err(KvError::ConnectionLost) if self.recover_ambiguous => {
                    // The reply was lost; read the key back to learn
                    // whether our SETNX landed. On the fenced path the
                    // readback also recovers the granted token.
                    if self.fenced && self.ttl.is_some() {
                        token = self.client.lease_token(key, &owner).map_err(backend)?;
                        token.is_some()
                    } else {
                        let current = self.client.get(key).map_err(backend)?;
                        current.as_deref() == Some(owner.as_str())
                    }
                }
                Err(e) => return Err(backend(e)),
            };
            Ok(acquired.then_some(token))
        })?;
        if self.reentrant {
            self.reentrancy.lock().insert(
                key.to_string(),
                (std::thread::current().id(), owner.clone(), 1),
            );
        }
        Ok(self.guard(key, owner, token))
    }

    fn label(&self) -> &'static str {
        "KV-SETNX"
    }
}

/// `KV-MULTI`: Discourse's optimistic check-then-set lock protocol.
#[derive(Clone)]
pub struct KvMultiLock {
    client: Client,
    config: AcquireConfig,
    ttl: Option<Duration>,
}

impl KvMultiLock {
    /// A correct, non-leased `WATCH`/`MULTI` lock.
    pub fn new(client: Client) -> Self {
        Self {
            client,
            config: AcquireConfig::default(),
            ttl: None,
        }
    }

    /// Override the acquisition retry/timeout policy.
    pub fn with_config(mut self, config: AcquireConfig) -> Self {
        self.config = config;
        self
    }

    /// Lease semantics: entries auto-expire after `ttl`.
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }
}

impl AdHocLock for KvMultiLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        let owner = fresh_owner();
        self.config.poll("KV-MULTI", key, || {
            // WATCH key; GET key; if free: MULTI; SET; EXEC.
            let backend = |e: KvError| LockError::Backend(e.to_string());
            let mut session = self.client.session();
            session.watch(key);
            if session.get(key).map_err(backend)?.is_some() {
                return Ok(None);
            }
            session.multi();
            match self.ttl {
                Some(ttl) => session.set_px(key, &owner, ttl),
                None => session.set(key, &owner),
            }
            Ok(session.exec().map_err(backend)?.then_some(()))
        })?;
        Ok(Guard::new(Box::new(KvGuard {
            client: self.client.clone(),
            key: key.to_string(),
            owner,
            check_owner: true,
            leased: self.ttl.is_some(),
            released: false,
            token: None,
            reentrancy: None,
        })))
    }

    fn label(&self) -> &'static str {
        "KV-MULTI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::mutual_exclusion_trial;
    use adhoc_kv::Store;
    use adhoc_sim::{LatencyModel, VirtualClock};

    fn client() -> Client {
        Client::new(Store::new(), VirtualClock::shared(), LatencyModel::zero())
    }

    fn fast_config() -> AcquireConfig {
        AcquireConfig {
            retry_interval: Duration::from_micros(200),
            timeout: Duration::from_secs(10),
        }
    }

    #[test]
    fn setnx_mutual_exclusion() {
        let lock = KvSetNxLock::new(client()).with_config(fast_config());
        assert_eq!(mutual_exclusion_trial(&lock, "invite-1", 6, 60), 6 * 60);
    }

    #[test]
    fn multi_mutual_exclusion() {
        let lock = KvMultiLock::new(client()).with_config(fast_config());
        assert_eq!(mutual_exclusion_trial(&lock, "post-1", 6, 40), 6 * 40);
    }

    #[test]
    fn setnx_costs_one_round_trip_per_acquire() {
        let c = client();
        let lock = KvSetNxLock::new(c.clone());
        let before = c.round_trips();
        let g = lock.lock("k").unwrap();
        assert_eq!(c.round_trips() - before, 1, "SETNX acquire = 1 round trip");
        let before = c.round_trips();
        g.unlock().unwrap();
        // Unleased entries cannot be stolen, so unlock is a bare DEL.
        assert_eq!(c.round_trips() - before, 1);
    }

    #[test]
    fn leased_unlock_is_atomic_and_costs_the_protocol() {
        let c = client();
        let lock = KvSetNxLock::new(c.clone()).with_ttl(Duration::from_secs(60));
        let g = lock.lock("k").unwrap();
        let before = c.round_trips();
        g.unlock().unwrap();
        // WATCH + GET + MULTI + DEL + EXEC.
        assert_eq!(c.round_trips() - before, 5);
        assert!(c.get("k").unwrap().is_none());
    }

    #[test]
    fn reentrant_guard_unlocked_on_another_thread_keeps_outer_hold() {
        let lock = KvSetNxLock::new(client()).reentrant();
        let outer = lock.lock("k").unwrap();
        let inner = lock.lock("k").unwrap();
        // Hand the inner guard to another thread and release it there.
        std::thread::spawn(move || inner.unlock().unwrap())
            .join()
            .unwrap();
        // The outer hold must survive the cross-thread inner release.
        assert!(outer.is_valid());
        outer.unlock().unwrap();
        lock.lock("k").unwrap().unlock().unwrap();
    }

    #[test]
    fn reentrancy_is_per_thread_not_per_process() {
        // A different thread must NOT get the re-entrant fast path.
        let lock = KvSetNxLock::new(client())
            .reentrant()
            .with_config(AcquireConfig {
                retry_interval: Duration::from_micros(100),
                timeout: Duration::from_millis(30),
            });
        let _outer = lock.lock("k").unwrap();
        let lock2 = lock.clone();
        let result = std::thread::spawn(move || lock2.lock("k").map(|_| ()))
            .join()
            .unwrap();
        assert!(matches!(result, Err(LockError::Timeout { .. })));
    }

    #[test]
    fn multi_costs_the_extra_round_trips() {
        let c = client();
        let lock = KvMultiLock::new(c.clone());
        let before = c.round_trips();
        let g = lock.lock("k").unwrap();
        // WATCH + GET + MULTI + SET + EXEC.
        assert_eq!(c.round_trips() - before, 5);
        g.unlock().unwrap();
    }

    #[test]
    fn lease_expiry_is_detectable_via_is_valid() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lock = KvSetNxLock::new(c).with_ttl(Duration::from_millis(100));
        let g = lock.lock("status-1").unwrap();
        assert!(g.is_valid());
        clock.advance(Duration::from_millis(200));
        assert!(!g.is_valid(), "lease must have expired");
        // Another worker can take the lock now — mutual exclusion is gone
        // unless the first holder checks is_valid (Mastodon didn't).
        let g2 = lock.lock("status-1").unwrap();
        assert!(g2.is_valid());
        // Owner-checked unlock refuses to clobber g2's entry.
        assert!(matches!(g.unlock(), Err(LockError::NotHeld { .. })));
        assert!(g2.is_valid());
    }

    #[test]
    fn unchecked_unlock_clobbers_the_next_holder() {
        // The buggy unlock: bare DEL after our lease expired deletes the
        // *next* holder's lock, cascading the race.
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lock = KvSetNxLock::new(c)
            .with_ttl(Duration::from_millis(100))
            .unlock_without_owner_check();
        let g = lock.lock("status-1").unwrap();
        clock.advance(Duration::from_millis(200));
        let g2 = lock.lock("status-1").unwrap();
        assert!(g2.is_valid());
        g.unlock().unwrap(); // bare DEL
        assert!(!g2.is_valid(), "the second holder's lock was deleted");
    }

    #[test]
    fn fenced_lock_rejects_the_zombie_holders_write() {
        // The §4.1.1 scenario with the robust fix: holder A's lease
        // expires mid-critical-section and B takes over, but A's late
        // write now carries a stale fencing token and the store refuses
        // it — no is_valid() discipline required.
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lock = KvSetNxLock::new(c.clone())
            .with_ttl(Duration::from_millis(100))
            .with_fencing();
        let a = lock.lock("status-1").unwrap();
        let a_token = a.fencing_token().expect("fenced acquire grants a token");
        clock.advance(Duration::from_millis(200));
        let b = lock.lock("status-1").unwrap();
        let b_token = b.fencing_token().unwrap();
        assert!(b_token > a_token, "tokens are monotonic across re-grants");
        // B writes first; A wakes up from its pause and tries to write.
        assert!(c.fenced_set("guarded", "b-wrote", b_token).unwrap());
        assert!(!c.fenced_set("guarded", "a-wrote", a_token).unwrap());
        assert_eq!(c.get("guarded").unwrap(), Some("b-wrote".into()));
        // A's owner-checked unlock also reports the loss.
        assert!(matches!(a.unlock(), Err(LockError::NotHeld { .. })));
        b.unlock().unwrap();
    }

    #[test]
    fn fenced_mutual_exclusion_and_unfenced_guards_have_no_token() {
        let lock = KvSetNxLock::new(client())
            .with_ttl(Duration::from_secs(60))
            .with_fencing()
            .with_config(fast_config());
        assert_eq!(mutual_exclusion_trial(&lock, "invite-1", 4, 40), 4 * 40);
        let unfenced = KvSetNxLock::new(client()).with_ttl(Duration::from_secs(60));
        let g = unfenced.lock("k").unwrap();
        assert_eq!(g.fencing_token(), None);
        g.unlock().unwrap();
    }

    #[test]
    fn fenced_acquire_recovers_token_from_ambiguous_reply() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        // The lease grant's reply is lost; the recovery readback learns
        // both that our grant landed *and* which token it carried.
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[0])]);
        let c = Client::new(Store::new(), VirtualClock::shared(), LatencyModel::zero())
            .with_faults(plan);
        let lock = KvSetNxLock::new(c)
            .with_ttl(Duration::from_secs(60))
            .with_fencing()
            .recover_ambiguous_replies();
        let g = lock.lock("k").unwrap();
        assert_eq!(g.fencing_token(), Some(1));
        g.unlock().unwrap();
    }

    #[test]
    fn backend_error_returns_at_once_instead_of_polling() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        // A lost connection is not contention: without
        // `recover_ambiguous_replies` the acquire surfaces it after its one
        // SETNX instead of polling (and paying round trips) to the timeout.
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[0])]);
        let c = client().with_faults(plan);
        let lock = KvSetNxLock::new(c.clone()).with_config(fast_config());
        assert_eq!(
            lock.lock("k").unwrap_err(),
            LockError::Backend(KvError::ConnectionLost.to_string())
        );
        assert_eq!(c.round_trips(), 1, "exactly the one failed SETNX");
    }

    #[test]
    fn reentrant_lock_allows_nested_acquires() {
        let lock = KvSetNxLock::new(client()).reentrant();
        let outer = lock.lock("k").unwrap();
        let inner = lock.lock("k").unwrap(); // would deadlock if not reentrant
        inner.unlock().unwrap();
        assert!(outer.is_valid(), "inner release keeps the outer hold");
        outer.unlock().unwrap();
        // Fully released: a different owner can acquire.
        let g = lock.lock("k").unwrap();
        g.unlock().unwrap();
    }

    #[test]
    fn non_reentrant_lock_times_out_on_nested_acquire() {
        let lock = KvSetNxLock::new(client()).with_config(AcquireConfig {
            retry_interval: Duration::from_micros(100),
            timeout: Duration::from_millis(30),
        });
        let _outer = lock.lock("k").unwrap();
        assert!(matches!(lock.lock("k"), Err(LockError::Timeout { .. })));
    }

    #[test]
    fn leak_leaves_entry_for_ttl_to_reap() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lock = KvSetNxLock::new(c)
            .with_ttl(Duration::from_millis(50))
            .with_config(AcquireConfig {
                retry_interval: Duration::from_micros(100),
                timeout: Duration::from_millis(20),
            });
        lock.lock("k").unwrap().leak(); // holder crashes
                                        // Immediately after: still locked.
        assert!(matches!(lock.lock("k"), Err(LockError::Timeout { .. })));
        // After the TTL, the lease expires and service resumes (§3.4.2:
        // Redis locks "expire after a given period").
        clock.advance(Duration::from_millis(60));
        lock.lock("k").unwrap().unlock().unwrap();
    }
}
