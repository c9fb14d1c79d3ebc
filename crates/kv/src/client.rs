//! The application-side client: one simulated network round trip per
//! command, plus a `WATCH`/`MULTI`/`EXEC` session that mirrors how
//! Discourse's Redis lock drives the protocol (§3.2.1 of the paper).

use crate::store::{KvError, SetMode, Store, Ttl, WriteOp};
use adhoc_sim::{
    CircuitBreaker, Deadline, FaultKind, FaultPlan, LatencyModel, OpClass, SharedClock, Transport,
};
use std::sync::Arc;
use std::time::Duration;

/// A connection to a [`Store`] that charges `kv_round_trip` per command.
///
/// The wire discipline (deadline/breaker admission, yield + count + latency
/// charge per hop) lives in the shared [`Transport`] shim; this client adds
/// the KV command surface and the §3.4 fault semantics on top of it.
///
/// Clones share the round-trip counter (they model one process talking to
/// one server, possibly from several threads).
#[derive(Clone)]
pub struct Client {
    store: Store,
    transport: Transport,
    faults: Option<FaultPlan>,
}

impl Client {
    /// Connect to `store`, charging `latency.kv_round_trip` per command
    /// onto `clock`.
    pub fn new(store: Store, clock: SharedClock, latency: LatencyModel) -> Self {
        Self {
            store,
            transport: Transport::kv(clock, latency),
            faults: None,
        }
    }

    /// Attach a fault plan: every fallible command consults it (class
    /// [`OpClass::KvCommand`]) and may lose its reply, lose its connection,
    /// stall, or find the store freshly restarted. Fault consultation
    /// charges no extra round trips.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an absolute deadline: once the clock passes it, fallible
    /// commands fail fast with [`KvError::DeadlineExceeded`] *without*
    /// paying a round trip (the command never leaves the client, so the
    /// failure is unambiguous and retry-safe against a fresh deadline).
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.transport = self.transport.with_deadline(deadline);
        self
    }

    /// Wrap the connection in a circuit breaker: consecutive
    /// [`KvError::ConnectionLost`] outcomes open it, and while open,
    /// fallible commands fail fast with [`KvError::CircuitOpen`] without
    /// paying a round trip — the retry-storm dampener. Share one breaker
    /// (via the `Arc`) across every client clone talking to one server.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.transport = self.transport.with_breaker(breaker);
        self
    }

    /// The underlying store (for assertions in tests).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The clock this connection charges latency against — shared with
    /// callers that need to evaluate [`Deadline`]s consistently.
    pub fn clock(&self) -> adhoc_sim::SharedClock {
        self.transport.clock()
    }

    /// Round trips this client (and its clones) have paid so far.
    pub fn round_trips(&self) -> u64 {
        self.transport.round_trips()
    }

    /// Pay one round trip; returns the server-side arrival instant.
    fn pay(&self) -> Duration {
        self.transport.pay();
        self.transport.now()
    }

    /// One fault-eligible round trip: check deadline and breaker (both
    /// fail fast *without* paying the wire or yielding to the scheduler,
    /// so opting in never perturbs pinned schedules), pay, consult the
    /// plan, then run `apply` against the store at the (possibly delayed)
    /// server-side arrival time.
    ///
    /// * `ConnError` — the command never reaches the server (a dropped
    ///   connection or the inbound half of a partition): `apply` is
    ///   skipped and the caller sees [`KvError::ConnectionLost`].
    /// * `ReplyLost` — `apply` runs (the server did the work) but the
    ///   reply is dropped (or the outbound half of a partition eats it),
    ///   so the caller still sees [`KvError::ConnectionLost`]: the
    ///   ambiguous outcome of §3.4.1.
    /// * `LatencySpike` — the command stalls in flight for the injected
    ///   delay before being applied; with a virtual clock this is how a
    ///   holder overstays its lease.
    /// * `StoreRestart` — the server bounces (volatile entries lost) just
    ///   before serving the command, which then succeeds normally.
    fn round_trip<R>(&self, apply: impl FnOnce(Duration) -> R) -> Result<R, KvError> {
        self.transport.admit()?;
        let result = self.round_trip_faulted(apply);
        self.transport
            .record_outcome(matches!(&result, Err(KvError::ConnectionLost)));
        result
    }

    fn round_trip_faulted<R>(&self, apply: impl FnOnce(Duration) -> R) -> Result<R, KvError> {
        let mut now = self.pay();
        if let Some(plan) = &self.faults {
            if let Some(fault) = plan.arm_at(OpClass::KvCommand, now) {
                match fault.kind {
                    FaultKind::ConnError => return Err(KvError::ConnectionLost),
                    FaultKind::ReplyLost => {
                        apply(now);
                        return Err(KvError::ConnectionLost);
                    }
                    FaultKind::LatencySpike => {
                        self.transport.sleep(fault.delay);
                        now = self.transport.now();
                    }
                    FaultKind::StoreRestart => self.store.restart(now),
                    // DbCommit/DbStatement kinds never arm on
                    // OpClass::KvCommand.
                    FaultKind::CommitFailed
                    | FaultKind::CrashAfterDurable
                    | FaultKind::CrashBeforeDurable
                    | FaultKind::TornWrite
                    | FaultKind::CheckpointTorn
                    | FaultKind::CrashBeforeTruncate
                    | FaultKind::TruncateBeforeWait
                    | FaultKind::DbPartitioned => {}
                }
            }
        }
        Ok(apply(now))
    }

    /// `GET key`.
    pub fn get(&self, key: &str) -> Result<Option<String>, KvError> {
        self.round_trip(|now| self.store.get(key, now))?
    }

    /// `SET key value`.
    pub fn set(&self, key: &str, value: &str) -> Result<(), KvError> {
        self.round_trip(|now| self.store.set(key, value, SetMode::Always, None, now))??;
        Ok(())
    }

    /// `SET key value NX` — returns whether the key was acquired.
    pub fn set_nx(&self, key: &str, value: &str) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.set(key, value, SetMode::IfAbsent, None, now))?
    }

    /// `SET key value NX PX ttl` — lease-style acquisition.
    pub fn set_nx_px(&self, key: &str, value: &str, ttl: Duration) -> Result<bool, KvError> {
        self.round_trip(|now| {
            self.store
                .set(key, value, SetMode::IfAbsent, Some(ttl), now)
        })?
    }

    /// `DEL key`; true when a live key was removed. Fault-eligible: on the
    /// lease-release path a lost reply means the caller cannot tell
    /// whether the lease is still held — treating it as released is the
    /// §3.4.1 bug.
    pub fn del(&self, key: &str) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.del(key, now))
    }

    /// `EXISTS key`.
    pub fn exists(&self, key: &str) -> bool {
        let now = self.pay();
        self.store.exists(key, now)
    }

    /// `EXPIRE key ttl`; `Ok(false)` when the key is missing.
    /// Fault-eligible: a heartbeat that loses its reply has *not* provably
    /// extended the lease.
    pub fn expire(&self, key: &str, ttl: Duration) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.expire(key, ttl, now))
    }

    /// Fenced lease acquisition: `SET key owner NX PX ttl` plus a
    /// monotonic fencing token, in one round trip (server-side this would
    /// be a small Lua script). `Ok(None)` means a live holder exists.
    pub fn acquire_lease(
        &self,
        key: &str,
        owner: &str,
        ttl: Duration,
    ) -> Result<Option<u64>, KvError> {
        self.round_trip(|now| self.store.acquire_lease(key, owner, ttl, now))
    }

    /// A guarded write validated against the key's fence floor:
    /// `Ok(false)` means `token` was stale (the lease was reaped and
    /// re-granted past this holder) and nothing was written.
    pub fn fenced_set(&self, key: &str, value: &str, token: u64) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.fenced_set(key, value, token, now))
    }

    /// The fence floor of a guarded key (0 when never fenced-written).
    pub fn fence_floor(&self, key: &str) -> Result<u64, KvError> {
        self.round_trip(|_now| self.store.fence_floor(key))
    }

    /// The token of the live lease on `key` when held by `owner` — the
    /// readback that resolves an ambiguous [`acquire_lease`](Self::acquire_lease)
    /// reply (did my grant land before the connection dropped?).
    pub fn lease_token(&self, key: &str, owner: &str) -> Result<Option<u64>, KvError> {
        self.round_trip(|now| self.store.lease_token(key, owner, now))
    }

    /// Checked lease release (§3.4.2): `WATCH` + `GET`, then only while
    /// `owner` still holds the key, `MULTI` + `DEL` + `EXEC`. A leased
    /// entry can expire and be re-granted at any moment, so the check and
    /// the delete must be atomic: `Ok(false)` means the key was no longer
    /// ours (expired, re-granted, or changed before `EXEC`) and nothing
    /// was deleted.
    pub fn release_lease(&self, key: &str, owner: &str) -> Result<bool, KvError> {
        let mut session = self.session();
        session.watch(key);
        if session.get(key)?.as_deref() != Some(owner) {
            return Ok(false);
        }
        session.multi();
        session.del(key);
        session.exec()
    }

    /// `TTL key`.
    pub fn ttl(&self, key: &str) -> Ttl {
        let now = self.pay();
        self.store.ttl(key, now)
    }

    /// `INCR key`; creates the counter at 0.
    pub fn incr(&self, key: &str) -> Result<i64, KvError> {
        self.round_trip(|now| self.store.incr(key, now))?
    }

    /// `SADD key member`; true when newly added.
    pub fn sadd(&self, key: &str, member: &str) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.sadd(key, member, now))?
    }

    /// `SREM key member`; true when removed.
    pub fn srem(&self, key: &str, member: &str) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.srem(key, member, now))?
    }

    /// `SMEMBERS key` in sorted order.
    pub fn smembers(&self, key: &str) -> Result<Vec<String>, KvError> {
        self.round_trip(|now| self.store.smembers(key, now))?
    }

    /// `SISMEMBER key member`.
    pub fn sismember(&self, key: &str, member: &str) -> Result<bool, KvError> {
        self.round_trip(|now| self.store.sismember(key, member, now))?
    }

    /// Begin an optimistic transaction session (`WATCH`-based).
    pub fn session(&self) -> Session<'_> {
        Session {
            client: self,
            watched: Vec::new(),
            queued: Vec::new(),
            in_multi: false,
        }
    }
}

/// An in-flight `WATCH` … `MULTI` … `EXEC` conversation.
///
/// Each protocol step is a separate round trip, matching the paper's count
/// of Discourse's lock needing "six additional round trips" over a single
/// `SETNX`: `WATCH` + `GET` + `MULTI` + `SET` + `EXEC` (and the unlock side)
/// all pay the network individually.
pub struct Session<'a> {
    client: &'a Client,
    watched: Vec<(String, u64)>,
    queued: Vec<WriteOp>,
    in_multi: bool,
}

impl Session<'_> {
    /// `WATCH key`: snapshot the key's modification counter.
    pub fn watch(&mut self, key: &str) {
        let now = self.client.pay();
        let v = self.client.store.version(key, now);
        self.watched.push((key.to_string(), v));
    }

    /// `GET` inside the session (still a plain read, one round trip).
    pub fn get(&mut self, key: &str) -> Result<Option<String>, KvError> {
        self.client.get(key)
    }

    /// `MULTI`: subsequent writes are queued rather than applied.
    pub fn multi(&mut self) {
        self.client.pay();
        self.in_multi = true;
    }

    /// Queue `SET` (requires `multi()` first).
    pub fn set(&mut self, key: &str, value: &str) {
        assert!(self.in_multi, "SET queued outside MULTI");
        self.client.pay();
        self.queued.push(WriteOp::Set {
            key: key.to_string(),
            value: value.to_string(),
            mode: SetMode::Always,
            ttl: None,
        });
    }

    /// Queue `SET … PX ttl`.
    pub fn set_px(&mut self, key: &str, value: &str, ttl: Duration) {
        assert!(self.in_multi, "SET queued outside MULTI");
        self.client.pay();
        self.queued.push(WriteOp::Set {
            key: key.to_string(),
            value: value.to_string(),
            mode: SetMode::Always,
            ttl: Some(ttl),
        });
    }

    /// Queue `DEL`.
    pub fn del(&mut self, key: &str) {
        assert!(self.in_multi, "DEL queued outside MULTI");
        self.client.pay();
        self.queued.push(WriteOp::Del {
            key: key.to_string(),
        });
    }

    /// `EXEC`: atomically validate the watch set and apply the queue.
    /// Returns `true` when the transaction committed.
    pub fn exec(self) -> Result<bool, KvError> {
        let Session {
            client,
            watched,
            queued,
            ..
        } = self;
        client.round_trip(|now| client.store.exec(&watched, &queued, now))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_sim::{Clock, VirtualClock};

    fn client() -> Client {
        Client::new(Store::new(), VirtualClock::shared(), LatencyModel::paper())
    }

    #[test]
    fn every_command_costs_one_round_trip() {
        let c = client();
        c.set("a", "1").unwrap();
        c.get("a").unwrap();
        c.del("a").unwrap();
        assert_eq!(c.round_trips(), 3);
    }

    #[test]
    fn round_trips_advance_the_clock() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::paper());
        c.set("a", "1").unwrap();
        assert_eq!(clock.now(), LatencyModel::paper().kv_round_trip);
    }

    #[test]
    fn watch_multi_exec_costs_the_paper_round_trips() {
        let c = client();
        // The Discourse lock acquire sequence: WATCH, GET, MULTI, SET, EXEC.
        let mut s = c.session();
        s.watch("lock");
        s.get("lock").unwrap();
        s.multi();
        s.set("lock", "held");
        assert!(s.exec().unwrap());
        assert_eq!(c.round_trips(), 5);
    }

    #[test]
    fn session_aborts_on_conflict() {
        let c = client();
        let interloper = c.clone();
        let mut s = c.session();
        s.watch("lock");
        let existing = s.get("lock").unwrap();
        assert!(existing.is_none());
        interloper.set("lock", "stolen").unwrap();
        s.multi();
        s.set("lock", "mine");
        assert!(!s.exec().unwrap());
        assert_eq!(c.get("lock").unwrap(), Some("stolen".into()));
    }

    #[test]
    fn setnx_px_grants_leases() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        assert!(c.set_nx_px("lease", "a", Duration::from_secs(5)).unwrap());
        assert!(!c.set_nx_px("lease", "b", Duration::from_secs(5)).unwrap());
        clock.advance(Duration::from_secs(6));
        assert!(c.set_nx_px("lease", "b", Duration::from_secs(5)).unwrap());
    }

    #[test]
    #[should_panic(expected = "outside MULTI")]
    fn queueing_before_multi_panics() {
        let c = client();
        let mut s = c.session();
        s.set("k", "v");
    }

    #[test]
    fn conn_error_applies_nothing() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[0])]);
        let c = client().with_faults(plan);
        assert_eq!(c.set("k", "v"), Err(KvError::ConnectionLost));
        assert_eq!(
            c.get("k").unwrap(),
            None,
            "command never reached the server"
        );
        assert_eq!(c.round_trips(), 2, "the failed attempt still paid the wire");
    }

    #[test]
    fn reply_lost_applies_but_errors() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ReplyLost, &[0])]);
        let c = client().with_faults(plan);
        assert_eq!(
            c.set_nx("lock", "me"),
            Err(KvError::ConnectionLost),
            "the acquirer cannot tell whether it holds the lock"
        );
        assert_eq!(
            c.get("lock").unwrap(),
            Some("me".into()),
            "but the server applied the SETNX"
        );
    }

    #[test]
    fn latency_spike_delays_server_arrival() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::at_ops(FaultKind::LatencySpike, &[1]).delay(Duration::from_secs(9))],
        );
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_faults(plan);
        assert!(c.set_nx_px("lease", "a", Duration::from_secs(5)).unwrap());
        // Op 1 stalls 9 virtual seconds in flight; by arrival the lease
        // from op 0 has already expired.
        assert!(c.set_nx_px("lease", "b", Duration::from_secs(5)).unwrap());
        assert_eq!(c.get("lease").unwrap(), Some("b".into()));
    }

    #[test]
    fn store_restart_loses_only_volatile_keys() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        let plan =
            FaultPlan::new_disabled(1, vec![FaultRule::at_ops(FaultKind::StoreRestart, &[0])]);
        let c = client().with_faults(plan.clone());
        c.set("durable", "v").unwrap();
        assert!(c.set_nx_px("lease", "a", Duration::from_secs(60)).unwrap());
        plan.enable();
        assert_eq!(c.get("lease").unwrap(), None, "lease gone after restart");
        assert_eq!(c.get("durable").unwrap(), Some("v".into()));
    }

    #[test]
    fn deadline_fails_fast_without_paying_the_wire() {
        let clock = Arc::new(VirtualClock::new());
        let deadline = Deadline::after(&*clock, Duration::from_secs(1));
        let c =
            Client::new(Store::new(), clock.clone(), LatencyModel::zero()).with_deadline(deadline);
        assert_eq!(c.set("k", "v"), Ok(()));
        clock.advance(Duration::from_secs(2));
        assert_eq!(c.set("k", "w"), Err(KvError::DeadlineExceeded));
        assert_eq!(c.round_trips(), 1, "the expired attempt never paid");
        assert_eq!(
            c.store().get("k", clock.now()).unwrap(),
            Some("v".into()),
            "nothing reached the server past the deadline"
        );
    }

    #[test]
    fn breaker_opens_after_consecutive_losses_and_recovers() {
        use adhoc_sim::{FaultKind, FaultPlan, FaultRule};
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[0, 1, 2])]);
        let clock = Arc::new(VirtualClock::new());
        let breaker = Arc::new(CircuitBreaker::new(2, Duration::from_secs(10)));
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero())
            .with_faults(plan)
            .with_breaker(breaker.clone());
        assert_eq!(c.set("k", "1"), Err(KvError::ConnectionLost));
        assert_eq!(c.set("k", "2"), Err(KvError::ConnectionLost));
        // Two consecutive losses tripped it: rejected locally, no wire.
        assert_eq!(c.set("k", "3"), Err(KvError::CircuitOpen));
        assert_eq!(c.round_trips(), 2);
        // After the cooldown one probe goes through; fault op 2 kills it
        // and re-opens the breaker.
        clock.advance(Duration::from_secs(10));
        assert_eq!(c.set("k", "4"), Err(KvError::ConnectionLost));
        assert_eq!(c.set("k", "5"), Err(KvError::CircuitOpen));
        // Next probe succeeds (plan exhausted) and the circuit closes.
        clock.advance(Duration::from_secs(10));
        assert_eq!(c.set("k", "6"), Ok(()));
        assert_eq!(c.get("k").unwrap(), Some("6".into()));
        assert_eq!(breaker.times_opened(), 2);
    }

    #[test]
    fn fenced_lease_round_trips_and_rejects_zombies() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let old = c
            .acquire_lease("lease", "a", Duration::from_secs(5))
            .unwrap()
            .unwrap();
        clock.advance(Duration::from_secs(6));
        let fresh = c
            .acquire_lease("lease", "b", Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert!(fresh > old);
        assert!(c.fenced_set("guarded", "b", fresh).unwrap());
        assert!(!c.fenced_set("guarded", "a", old).unwrap());
        assert_eq!(c.fence_floor("guarded").unwrap(), fresh);
        assert_eq!(c.get("guarded").unwrap(), Some("b".into()));
    }

    #[test]
    fn release_lease_deletes_only_the_owners_entry() {
        let clock = Arc::new(VirtualClock::new());
        let c = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let ttl = Duration::from_secs(5);

        // The owner: WATCH + GET + MULTI + DEL + EXEC, and the key is gone.
        assert!(c.set_nx_px("lease", "a", ttl).unwrap());
        let before = c.round_trips();
        assert_eq!(c.release_lease("lease", "a"), Ok(true));
        assert_eq!(c.round_trips() - before, 5);
        assert_eq!(c.get("lease").unwrap(), None);

        // Anyone else: WATCH + GET, then nothing — the holder keeps it.
        assert!(c.set_nx_px("lease", "a", ttl).unwrap());
        let before = c.round_trips();
        assert_eq!(c.release_lease("lease", "b"), Ok(false));
        assert_eq!(c.round_trips() - before, 2);
        assert_eq!(c.get("lease").unwrap(), Some("a".into()));

        // An expired lease re-granted to "b": the old owner's late release
        // must not delete the new holder.
        clock.advance(Duration::from_secs(6));
        assert!(c.set_nx_px("lease", "b", ttl).unwrap());
        assert_eq!(c.release_lease("lease", "a"), Ok(false));
        assert_eq!(c.get("lease").unwrap(), Some("b".into()));
    }

    #[test]
    fn clones_share_round_trip_counter() {
        let c = client();
        let d = c.clone();
        c.set("a", "1").unwrap();
        d.set("b", "2").unwrap();
        assert_eq!(c.round_trips(), 2);
        assert_eq!(d.round_trips(), 2);
    }
}
