//! The server-side state machine.
//!
//! All operations take an explicit `now` so the store itself holds no clock;
//! the [`Client`](crate::client::Client) supplies time and charges network
//! costs. Expiry is lazy, like Redis: an expired entry is treated as absent
//! (and reaped) by the first command that touches it.
//!
//! The keyspace is striped ([`STRIPE_COUNT`] ways, by a deterministic hash
//! of the key bytes): commands on keys in different stripes never share a
//! lock, and a `WATCH`/`MULTI`/`EXEC` block locks only the stripes its
//! keys touch, in ascending index order.
//!
//! Each stripe sits behind one mutex, and every command — reads included —
//! runs under it. A read that finds an expired entry reaps it under the
//! same guard, so the expiry still bumps the key's `WATCH` version. The
//! removal is out of line, so a read of a live or missing key costs one
//! hash lookup under the guard; with it inlined, the benchmark's
//! single-thread `kv.get_ns` probe read 169 ns instead of 124 ns.
//!
//! There is no shared-read path. Against a reader-writer stripe lock that
//! escalated only on an expired entry, this mutex read 0.90–1.31× per
//! fig3 KV cell (three sets of 10 alternating pairs, 2 vCPUs). The shared
//! reads stayed ahead only on the two 2-thread cells (same key
//! 0.90–0.98×, disjoint keys 0.94–0.96×). The benchmark's two-thread
//! workload (`storage.mt2.ops_per_s`: AdHoc handlers over one shared
//! store) read 1.05–1.08× over 2 × 12 alternating pairs.
//!
//! Command counters are striped per thread into cache-line-padded slots so
//! the counting a public command does never bounces a shared line between
//! cores — and observability reads ([`Store::command_count`]) never block,
//! or are blocked by, the data path. The slots are measurably worth it:
//! one shared `AtomicU64` instead read 0.78–0.91× on the 2-, 4- and
//! 8-thread disjoint-key fig3 cells (two sets of 10 alternating pairs).

use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A stored value: Redis strings or sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A plain string value.
    Str(String),
    /// An unordered collection of unique members.
    Set(BTreeSet<String>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Set(_) => "set",
        }
    }
}

/// Errors surfaced to callers. Mirrors Redis' `WRONGTYPE` and integer-parse
/// failures; everything else is encoded in return values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Operation applied against a key holding the wrong value type.
    WrongType {
        /// The offending key.
        key: String,
        /// Type name actually stored there.
        found: &'static str,
    },
    /// `INCR` on a non-integer string.
    NotAnInteger {
        /// The offending key.
        key: String,
    },
    /// The connection to the server dropped mid-command (injected by a
    /// [`FaultPlan`](adhoc_sim::FaultPlan)). The caller cannot tell whether
    /// the command was applied — the ambiguity §3.4.1 of the paper turns
    /// on.
    ConnectionLost,
    /// The client's absolute deadline passed before the command was sent.
    /// Unlike [`ConnectionLost`](Self::ConnectionLost) this is
    /// *unambiguous*: the command never left the client, so nothing was
    /// applied and a retry (against a fresh deadline) is always safe.
    DeadlineExceeded,
    /// The client's circuit breaker is open: the command was rejected
    /// locally without a round trip. Also unambiguous — nothing was sent.
    CircuitOpen,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::WrongType { key, found } => {
                write!(f, "WRONGTYPE key {key:?} holds a {found}")
            }
            KvError::NotAnInteger { key } => {
                write!(f, "value at key {key:?} is not an integer")
            }
            KvError::ConnectionLost => {
                write!(f, "connection lost; command outcome unknown")
            }
            KvError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the command was sent")
            }
            KvError::CircuitOpen => {
                write!(f, "circuit breaker open; command rejected locally")
            }
        }
    }
}

impl std::error::Error for KvError {}

impl From<adhoc_sim::TransportError> for KvError {
    fn from(e: adhoc_sim::TransportError) -> Self {
        match e {
            adhoc_sim::TransportError::DeadlineExceeded => KvError::DeadlineExceeded,
            adhoc_sim::TransportError::CircuitOpen => KvError::CircuitOpen,
        }
    }
}

/// Conditional-set behaviour for `SET`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetMode {
    /// Unconditional set.
    Always,
    /// `NX`: only set when the key does not exist.
    IfAbsent,
    /// `XX`: only set when the key already exists.
    IfPresent,
}

/// Result of a `TTL` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ttl {
    /// Key does not exist (Redis returns -2).
    Missing,
    /// Key exists with no expiry (Redis returns -1).
    NoExpiry,
    /// Remaining time to live.
    Remaining(Duration),
}

/// A buffered write queued inside `MULTI`, applied atomically by `EXEC`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// `SET key value [NX|XX] [PX ttl]`.
    Set {
        /// Target key.
        key: String,
        /// Value to store.
        value: String,
        /// Conditional-set behaviour.
        mode: SetMode,
        /// Optional expiry.
        ttl: Option<Duration>,
    },
    /// `DEL key`.
    Del {
        /// Target key.
        key: String,
    },
    /// `SADD key member`.
    SAdd {
        /// Target set key.
        key: String,
        /// Member to add.
        member: String,
    },
    /// `SREM key member`.
    SRem {
        /// Target set key.
        key: String,
        /// Member to remove.
        member: String,
    },
    /// `EXPIRE key ttl`.
    Expire {
        /// Target key.
        key: String,
        /// Time to live from now.
        ttl: Duration,
    },
}

impl WriteOp {
    /// The key this buffered write targets (every op touches exactly one).
    pub fn key(&self) -> &str {
        match self {
            WriteOp::Set { key, .. }
            | WriteOp::Del { key }
            | WriteOp::SAdd { key, .. }
            | WriteOp::SRem { key, .. }
            | WriteOp::Expire { key, .. } => key,
        }
    }
}

/// Number of key stripes. Fixed so a key's stripe is a pure function of
/// its bytes — the KV analogue of the storage engine's `SHARD_COUNT` row
/// shards.
pub const STRIPE_COUNT: usize = 16;

/// Deterministic stripe of a key: FNV-1a over the key bytes. Commands on
/// keys in different stripes never share a lock; `EXEC` blocks spanning
/// stripes acquire them in ascending index order (deadlock-free, like the
/// storage engine's shard protocol).
pub fn stripe_of(key: &str) -> usize {
    (adhoc_sim::rng::fnv1a(key.as_bytes()) % STRIPE_COUNT as u64) as usize
}

#[derive(Debug, Clone)]
struct Entry {
    value: Value,
    /// Absolute expiry deadline on the store's timeline.
    expires_at: Option<Duration>,
}

#[derive(Debug, Default)]
struct Stripe {
    entries: HashMap<String, Entry>,
    /// Per-key modification counters used by `WATCH`. Counters survive
    /// deletion so that delete→recreate is visible to watchers.
    versions: HashMap<String, u64>,
    /// Per-lease-key monotonic grant counters: each successful
    /// [`Store::acquire_lease`] hands out the next token. Like `versions`,
    /// counters survive deletion/expiry — a lease that expires and is
    /// re-granted always yields a strictly larger token.
    grants: HashMap<String, u64>,
    /// Per-guarded-key fence floors: the highest token that has written the
    /// key via [`Store::fenced_set`]. A write carrying a smaller token is a
    /// zombie holder (its lease was reaped and re-granted) and is rejected.
    floors: HashMap<String, u64>,
}

impl Stripe {
    fn bump(&mut self, key: &str) {
        if let Some(v) = self.versions.get_mut(key) {
            *v += 1;
        } else {
            self.versions.insert(key.to_string(), 1);
        }
    }

    /// Reap `key` if expired; returns true when the key is live afterwards.
    /// Inlined into every command; the removal stays out of line (see the
    /// module doc).
    #[inline]
    fn reap(&mut self, key: &str, now: Duration) -> bool {
        match self.entries.get(key) {
            None => false,
            Some(e) if e.expires_at.is_some_and(|deadline| now >= deadline) => {
                self.expire(key);
                false
            }
            Some(_) => true,
        }
    }

    #[cold]
    #[inline(never)]
    fn expire(&mut self, key: &str) {
        self.entries.remove(key);
        self.bump(key);
    }

    fn apply(&mut self, op: &WriteOp, now: Duration) -> Result<bool, KvError> {
        match op {
            WriteOp::Set {
                key,
                value,
                mode,
                ttl,
            } => {
                let live = self.reap(key, now);
                let proceed = match mode {
                    SetMode::Always => true,
                    SetMode::IfAbsent => !live,
                    SetMode::IfPresent => live,
                };
                if !proceed {
                    return Ok(false);
                }
                let expires_at = ttl.map(|t| now + t);
                // Overwrite in place when the slot already holds a string:
                // the common SET-over-SET case then allocates nothing.
                if let Some(e) = self.entries.get_mut(key) {
                    match &mut e.value {
                        Value::Str(s) => {
                            s.clear();
                            s.push_str(value);
                        }
                        v => *v = Value::Str(value.clone()),
                    }
                    e.expires_at = expires_at;
                } else {
                    self.entries.insert(
                        key.clone(),
                        Entry {
                            value: Value::Str(value.clone()),
                            expires_at,
                        },
                    );
                }
                self.bump(key);
                Ok(true)
            }
            WriteOp::Del { key } => {
                let live = self.reap(key, now);
                if live {
                    self.entries.remove(key);
                    self.bump(key);
                }
                Ok(live)
            }
            WriteOp::SAdd { key, member } => {
                self.reap(key, now);
                let entry = self.entries.entry(key.clone()).or_insert(Entry {
                    value: Value::Set(BTreeSet::new()),
                    expires_at: None,
                });
                match &mut entry.value {
                    Value::Set(s) => {
                        let added = s.insert(member.clone());
                        self.bump(key);
                        Ok(added)
                    }
                    other => Err(KvError::WrongType {
                        key: key.clone(),
                        found: other.type_name(),
                    }),
                }
            }
            WriteOp::SRem { key, member } => {
                if !self.reap(key, now) {
                    return Ok(false);
                }
                let entry = self.entries.get_mut(key).expect("reap said live");
                match &mut entry.value {
                    Value::Set(s) => {
                        let removed = s.remove(member);
                        let emptied = s.is_empty();
                        if removed {
                            if emptied {
                                self.entries.remove(key);
                            }
                            self.bump(key);
                        }
                        Ok(removed)
                    }
                    other => Err(KvError::WrongType {
                        key: key.clone(),
                        found: other.type_name(),
                    }),
                }
            }
            WriteOp::Expire { key, ttl } => {
                if !self.reap(key, now) {
                    return Ok(false);
                }
                let entry = self.entries.get_mut(key).expect("reap said live");
                entry.expires_at = Some(now + *ttl);
                self.bump(key);
                Ok(true)
            }
        }
    }
}

/// The append-only persistence log (Redis `appendonly yes` with
/// `appendfsync always`): every state-changing command is recorded with the
/// server-side time it applied at, so a restart replays the exact history —
/// including absolute TTL deadlines, which is what gives `SETNX` leases a
/// *survives-restart* semantic instead of the RDB-style evaporation of
/// [`Store::lose_volatile`].
#[derive(Debug, Default)]
struct Aof {
    log: Vec<(Duration, WriteOp)>,
}

/// Number of per-thread command-counter slots. Threads are assigned slots
/// round-robin; two threads share a slot (and its cache line) only past
/// [`STAT_SLOTS`] concurrent threads.
const STAT_SLOTS: usize = 16;

/// One command-counter slot, padded to its own cache line so counting on
/// one thread never invalidates another thread's line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct StatCell(AtomicU64);

/// The calling thread's counter slot: a process-wide round-robin
/// assignment, cached per thread.
fn stat_slot() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STAT_SLOTS;
    }
    SLOT.with(|s| *s)
}

#[derive(Debug)]
struct StoreInner {
    /// Key-striped data: commands on keys in different stripes never
    /// share a lock. Index with [`stripe_of`].
    stripes: [Mutex<Stripe>; STRIPE_COUNT],
    /// Commands processed, striped per thread into padded slots (sum them
    /// for the total). Kept out of the stripe locks so observability reads
    /// ([`Store::command_count`]) never block — or are blocked by — the
    /// data path, and relaxed so the count costs one private-line add.
    commands: [StatCell; STAT_SLOTS],
    /// Append-only persistence log; `None` runs the store fully volatile
    /// (the default, matching the pre-durability behaviour). Always locked
    /// *after* any stripe lock, never before.
    aof: Option<Mutex<Aof>>,
}

/// Command counters, readable without touching any data-path lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Total commands processed since creation.
    pub commands: u64,
}

/// The shared server. Cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl Default for Store {
    fn default() -> Self {
        Self {
            inner: Arc::new(StoreInner {
                stripes: std::array::from_fn(|_| Mutex::new(Stripe::default())),
                commands: std::array::from_fn(|_| StatCell::default()),
                aof: None,
            }),
        }
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with append-only persistence enabled: every applied
    /// write is logged with its server-side timestamp and a
    /// [`restart`](Self::restart) replays the log instead of dropping
    /// volatile entries — leases (and their absolute TTL deadlines)
    /// *survive* a restart.
    pub fn with_aof() -> Self {
        Self {
            inner: Arc::new(StoreInner {
                stripes: std::array::from_fn(|_| Mutex::new(Stripe::default())),
                commands: std::array::from_fn(|_| StatCell::default()),
                aof: Some(Mutex::new(Aof::default())),
            }),
        }
    }

    /// Record one applied write in the append-only log (no-op when
    /// persistence is off). Called after the stripe applied the op, while
    /// the stripe lock is still held, so log order matches apply order for
    /// any single key.
    fn log_write(&self, now: Duration, op: &WriteOp) {
        if let Some(aof) = &self.inner.aof {
            aof.lock().log.push((now, op.clone()));
        }
    }

    /// Count one public command on the calling thread's padded slot.
    fn count_command(&self) {
        self.inner.commands[stat_slot()]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One public command against one key: count it and run `f` under the
    /// key's stripe guard.
    fn locked<R>(&self, key: &str, f: impl FnOnce(&mut Stripe) -> R) -> R {
        self.count_command();
        let mut stripe = self.inner.stripes[stripe_of(key)].lock();
        f(&mut stripe)
    }

    /// One read command against one key: [`locked`](Self::locked), with
    /// the key reaped first (an expiry bumps its version, so watchers see
    /// it) and `f` told whether the key is live.
    fn locked_read<R>(&self, key: &str, now: Duration, f: impl FnOnce(&Stripe, bool) -> R) -> R {
        self.locked(key, |stripe| {
            let live = stripe.reap(key, now);
            f(stripe, live)
        })
    }

    /// One public command spanning the whole keyspace: count it and run
    /// `f` with every stripe locked in ascending index order.
    fn locked_all<R>(&self, f: impl FnOnce(&mut [MutexGuard<'_, Stripe>]) -> R) -> R {
        self.count_command();
        let mut guards: Vec<MutexGuard<'_, Stripe>> =
            self.inner.stripes.iter().map(|s| s.lock()).collect();
        f(&mut guards)
    }

    /// `GET key`.
    pub fn get(&self, key: &str, now: Duration) -> Result<Option<String>, KvError> {
        self.locked_read(key, now, |i, live| {
            if !live {
                return Ok(None);
            }
            match &i.entries[key].value {
                Value::Str(s) => Ok(Some(s.clone())),
                other => Err(KvError::WrongType {
                    key: key.to_string(),
                    found: other.type_name(),
                }),
            }
        })
    }

    /// `SET key value [NX|XX] [PX ttl]`. Returns whether the set happened.
    pub fn set(
        &self,
        key: &str,
        value: &str,
        mode: SetMode,
        ttl: Option<Duration>,
        now: Duration,
    ) -> Result<bool, KvError> {
        let op = WriteOp::Set {
            key: key.to_string(),
            value: value.to_string(),
            mode,
            ttl,
        };
        self.locked(key, |i| {
            let applied = i.apply(&op, now)?;
            if applied {
                self.log_write(now, &op);
            }
            Ok(applied)
        })
    }

    /// `DEL key`. Returns whether a live key was removed.
    pub fn del(&self, key: &str, now: Duration) -> bool {
        let op = WriteOp::Del {
            key: key.to_string(),
        };
        self.locked(key, |i| {
            let removed = i.apply(&op, now).expect("DEL is type-agnostic");
            if removed {
                self.log_write(now, &op);
            }
            removed
        })
    }

    /// `EXISTS key`.
    pub fn exists(&self, key: &str, now: Duration) -> bool {
        self.locked_read(key, now, |_, live| live)
    }

    /// `EXPIRE key ttl`. Returns false when the key is missing.
    pub fn expire(&self, key: &str, ttl: Duration, now: Duration) -> bool {
        let op = WriteOp::Expire {
            key: key.to_string(),
            ttl,
        };
        self.locked(key, |i| {
            let applied = i.apply(&op, now).expect("EXPIRE is type-agnostic");
            if applied {
                self.log_write(now, &op);
            }
            applied
        })
    }

    /// Atomically grant a fenced lease: `SET key owner NX PX ttl` plus a
    /// monotonically increasing fencing token, all under one stripe lock
    /// (the server-side script a real deployment would run in Lua).
    ///
    /// Returns `Some(token)` when the lease was granted, `None` when a live
    /// holder exists. Tokens are per-lease-key, start at 1, and never
    /// repeat or decrease — even across expiry, deletion, or an AOF
    /// [`restart`](Self::restart) (grant counters live outside the entry
    /// map, like `WATCH` versions).
    pub fn acquire_lease(
        &self,
        key: &str,
        owner: &str,
        ttl: Duration,
        now: Duration,
    ) -> Option<u64> {
        let op = WriteOp::Set {
            key: key.to_string(),
            value: owner.to_string(),
            mode: SetMode::IfAbsent,
            ttl: Some(ttl),
        };
        self.locked(key, |i| {
            let granted = i.apply(&op, now).expect("SET NX is type-agnostic");
            if !granted {
                return None;
            }
            self.log_write(now, &op);
            let token = i.grants.entry(key.to_string()).or_insert(0);
            *token += 1;
            Some(*token)
        })
    }

    /// A guarded write that only applies when `token` is at least the key's
    /// fence floor; on success the floor rises to `token`. Returns whether
    /// the write applied.
    ///
    /// This is the §3.4.3 TTL-steal fix: a holder whose lease silently
    /// expired (GC pause, injected delay) and was re-granted to someone
    /// else carries a stale token, and the *storage side* rejects its
    /// write — correctness no longer depends on the client noticing its
    /// lease is gone.
    pub fn fenced_set(&self, key: &str, value: &str, token: u64, now: Duration) -> bool {
        let op = WriteOp::Set {
            key: key.to_string(),
            value: value.to_string(),
            mode: SetMode::Always,
            ttl: None,
        };
        self.locked(key, |i| {
            let floor = i.floors.get(key).copied().unwrap_or(0);
            if token < floor {
                return false;
            }
            i.floors.insert(key.to_string(), token);
            i.apply(&op, now).expect("unconditional SET cannot fail");
            self.log_write(now, &op);
            true
        })
    }

    /// The current fence floor of a guarded key (0 when no fenced write has
    /// ever touched it). Diagnostic/oracle helper. Floors are TTL-free, so
    /// nothing is reaped.
    pub fn fence_floor(&self, key: &str) -> u64 {
        self.locked(key, |i| i.floors.get(key).copied().unwrap_or(0))
    }

    /// The fencing token of the current live lease on `key`, provided its
    /// holder is `owner` — the readback a client uses to resolve an
    /// ambiguous [`acquire_lease`](Self::acquire_lease) reply. Sound
    /// because the grant counter is exactly the token the live holder was
    /// handed.
    pub fn lease_token(&self, key: &str, owner: &str, now: Duration) -> Option<u64> {
        self.locked_read(key, now, |i, live| {
            if !live {
                return None;
            }
            match &i.entries[key].value {
                Value::Str(s) if s == owner => i.grants.get(key).copied(),
                _ => None,
            }
        })
    }

    /// `TTL key`.
    pub fn ttl(&self, key: &str, now: Duration) -> Ttl {
        self.locked_read(key, now, |i, live| {
            if !live {
                return Ttl::Missing;
            }
            match i.entries[key].expires_at {
                None => Ttl::NoExpiry,
                Some(deadline) => Ttl::Remaining(deadline - now),
            }
        })
    }

    /// `INCR key`: increments an integer string, creating it at 0.
    pub fn incr(&self, key: &str, now: Duration) -> Result<i64, KvError> {
        self.locked(key, |i| {
            let live = i.reap(key, now);
            let current = if live {
                match &i.entries[key].value {
                    Value::Str(s) => s.parse::<i64>().map_err(|_| KvError::NotAnInteger {
                        key: key.to_string(),
                    })?,
                    other => {
                        return Err(KvError::WrongType {
                            key: key.to_string(),
                            found: other.type_name(),
                        })
                    }
                }
            } else {
                0
            };
            let next = current + 1;
            let expires_at = if live {
                use std::fmt::Write;
                let e = i.entries.get_mut(key).expect("reap said live");
                match &mut e.value {
                    Value::Str(s) => {
                        s.clear();
                        let _ = write!(s, "{next}");
                    }
                    _ => unreachable!("non-string rejected above"),
                }
                e.expires_at
            } else {
                i.entries.insert(
                    key.to_string(),
                    Entry {
                        value: Value::Str(next.to_string()),
                        expires_at: None,
                    },
                );
                None
            };
            i.bump(key);
            // INCR logs as the SET of its result; a surviving deadline is
            // re-established by a trailing EXPIRE (both replay with `now`).
            self.log_write(
                now,
                &WriteOp::Set {
                    key: key.to_string(),
                    value: next.to_string(),
                    mode: SetMode::Always,
                    ttl: None,
                },
            );
            if let Some(deadline) = expires_at {
                self.log_write(
                    now,
                    &WriteOp::Expire {
                        key: key.to_string(),
                        ttl: deadline.saturating_sub(now),
                    },
                );
            }
            Ok(next)
        })
    }

    /// `SADD key member`.
    pub fn sadd(&self, key: &str, member: &str, now: Duration) -> Result<bool, KvError> {
        let op = WriteOp::SAdd {
            key: key.to_string(),
            member: member.to_string(),
        };
        self.locked(key, |i| {
            let added = i.apply(&op, now)?;
            if added {
                self.log_write(now, &op);
            }
            Ok(added)
        })
    }

    /// `SREM key member`.
    pub fn srem(&self, key: &str, member: &str, now: Duration) -> Result<bool, KvError> {
        let op = WriteOp::SRem {
            key: key.to_string(),
            member: member.to_string(),
        };
        self.locked(key, |i| {
            let removed = i.apply(&op, now)?;
            if removed {
                self.log_write(now, &op);
            }
            Ok(removed)
        })
    }

    /// `SMEMBERS key`.
    pub fn smembers(&self, key: &str, now: Duration) -> Result<Vec<String>, KvError> {
        self.locked_read(key, now, |i, live| {
            if !live {
                return Ok(Vec::new());
            }
            match &i.entries[key].value {
                Value::Set(s) => Ok(s.iter().cloned().collect()),
                other => Err(KvError::WrongType {
                    key: key.to_string(),
                    found: other.type_name(),
                }),
            }
        })
    }

    /// `SISMEMBER key member`.
    pub fn sismember(&self, key: &str, member: &str, now: Duration) -> Result<bool, KvError> {
        self.locked_read(key, now, |i, live| {
            if !live {
                return Ok(false);
            }
            match &i.entries[key].value {
                Value::Set(s) => Ok(s.contains(member)),
                other => Err(KvError::WrongType {
                    key: key.to_string(),
                    found: other.type_name(),
                }),
            }
        })
    }

    /// Current modification counter for a key (the `WATCH` snapshot).
    pub fn version(&self, key: &str, now: Duration) -> u64 {
        self.locked_read(key, now, |i, _| i.versions.get(key).copied().unwrap_or(0))
    }

    /// `EXEC` of a `MULTI` block with a prior `WATCH` set.
    ///
    /// Atomically: if every `(key, version)` pair still matches, apply all
    /// ops and return `Ok(true)`; otherwise apply nothing and return
    /// `Ok(false)` (Redis reports a nil reply — the transaction aborted).
    pub fn exec(
        &self,
        watched: &[(String, u64)],
        ops: &[WriteOp],
        now: Duration,
    ) -> Result<bool, KvError> {
        self.count_command();
        // Lock exactly the stripes the block touches, ascending — two EXECs
        // over disjoint stripe sets never coordinate, and overlapping sets
        // are acquired in a global order so they cannot deadlock. The want
        // set and guard table are fixed-size stack arrays, so an EXEC heap-
        // allocates nothing of its own.
        let mut want = [false; STRIPE_COUNT];
        for (key, _) in watched {
            want[stripe_of(key)] = true;
        }
        for op in ops {
            want[stripe_of(op.key())] = true;
        }
        let mut guards: [Option<MutexGuard<'_, Stripe>>; STRIPE_COUNT] =
            std::array::from_fn(|_| None);
        for (i, wanted) in want.iter().enumerate() {
            if *wanted {
                guards[i] = Some(self.inner.stripes[i].lock());
            }
        }
        for (key, ver) in watched {
            let stripe = guards[stripe_of(key)].as_mut().expect("stripe is locked");
            stripe.reap(key, now);
            if stripe.versions.get(key.as_str()).copied().unwrap_or(0) != *ver {
                return Ok(false);
            }
        }
        for op in ops {
            let stripe = guards[stripe_of(op.key())]
                .as_mut()
                .expect("stripe is locked");
            stripe.apply(op, now)?;
            self.log_write(now, op);
        }
        Ok(true)
    }

    /// Number of live keys (test/diagnostic helper).
    pub fn len(&self, now: Duration) -> usize {
        self.locked_all(|stripes| {
            stripes
                .iter_mut()
                .map(|s| {
                    let keys: Vec<String> = s.entries.keys().cloned().collect();
                    keys.iter().filter(|k| s.reap(k, now)).count()
                })
                .sum()
        })
    }

    /// True when no live keys remain.
    pub fn is_empty(&self, now: Duration) -> bool {
        self.len(now) == 0
    }

    /// Total commands processed since creation: the sum over the padded
    /// per-thread slots. Reads atomics only — never touches (or waits on)
    /// a data-path stripe lock.
    pub fn command_count(&self) -> u64 {
        self.inner
            .commands
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the command counters (see [`command_count`](Self::command_count)).
    pub fn stats(&self) -> KvStats {
        KvStats {
            commands: self.command_count(),
        }
    }

    /// Simulate a server restart. What survives is an explicit function of
    /// the persistence mode:
    ///
    /// * **AOF** ([`with_aof`](Self::with_aof)) — the append-only log is
    ///   replayed with its recorded timestamps, so *everything* survives,
    ///   including TTL'd leases and their absolute deadlines. Every live
    ///   key's version bumps so `WATCH`ers observe the restart.
    /// * **volatile (default)** — falls back to
    ///   [`lose_volatile`](Self::lose_volatile): TTL'd entries evaporate,
    ///   plain keys persist (an RDB snapshot that never includes leases).
    pub fn restart(&self, now: Duration) {
        let Some(aof) = &self.inner.aof else {
            self.lose_volatile(now);
            return;
        };
        // Snapshot the log, then rebuild every stripe from scratch. The
        // replay calls Stripe::apply directly, bypassing log_write, so the
        // log is not re-appended. Lock order: stripes first, then the log —
        // the same order the write path uses.
        self.locked_all(|stripes| {
            let log = aof.lock().log.clone();
            for s in stripes.iter_mut() {
                let live: Vec<String> = s.entries.keys().cloned().collect();
                s.entries.clear();
                for key in live {
                    s.bump(&key);
                }
            }
            for (at, op) in &log {
                let stripe = &mut stripes[stripe_of(op.key())];
                // WrongType during replay is impossible: the log only holds
                // ops that applied cleanly, in order.
                let _ = stripe.apply(op, *at);
            }
        });
    }

    /// Simulate a server restart that recovers from an RDB-style snapshot:
    /// every entry carrying an expiry is dropped (leases are volatile and
    /// do not survive), plain keys persist. Versions of the dropped keys
    /// bump so watchers see the loss.
    pub fn lose_volatile(&self, _now: Duration) {
        self.locked_all(|stripes| {
            for s in stripes.iter_mut() {
                let doomed: Vec<String> = s
                    .entries
                    .iter()
                    .filter(|(_, e)| e.expires_at.is_some())
                    .map(|(k, _)| k.clone())
                    .collect();
                for key in doomed {
                    s.entries.remove(&key);
                    s.bump(&key);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Duration = Duration::ZERO;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn get_set_del_roundtrip() {
        let s = Store::new();
        assert_eq!(s.get("k", T0).unwrap(), None);
        assert!(s.set("k", "v", SetMode::Always, None, T0).unwrap());
        assert_eq!(s.get("k", T0).unwrap(), Some("v".into()));
        assert!(s.del("k", T0));
        assert!(!s.del("k", T0));
        assert_eq!(s.get("k", T0).unwrap(), None);
    }

    #[test]
    fn setnx_only_sets_when_absent() {
        let s = Store::new();
        assert!(s.set("lock", "a", SetMode::IfAbsent, None, T0).unwrap());
        assert!(!s.set("lock", "b", SetMode::IfAbsent, None, T0).unwrap());
        assert_eq!(s.get("lock", T0).unwrap(), Some("a".into()));
    }

    #[test]
    fn setxx_only_sets_when_present() {
        let s = Store::new();
        assert!(!s.set("k", "a", SetMode::IfPresent, None, T0).unwrap());
        s.set("k", "a", SetMode::Always, None, T0).unwrap();
        assert!(s.set("k", "b", SetMode::IfPresent, None, T0).unwrap());
        assert_eq!(s.get("k", T0).unwrap(), Some("b".into()));
    }

    #[test]
    fn ttl_expires_keys_lazily() {
        let s = Store::new();
        s.set("lease", "v", SetMode::Always, Some(at(100)), T0)
            .unwrap();
        assert_eq!(s.ttl("lease", at(40)), Ttl::Remaining(at(60)));
        assert_eq!(s.get("lease", at(99)).unwrap(), Some("v".into()));
        assert_eq!(s.get("lease", at(100)).unwrap(), None);
        assert_eq!(s.ttl("lease", at(100)), Ttl::Missing);
        // Expired key can be re-acquired with NX — the Mastodon lease bug's
        // enabling behaviour.
        assert!(s
            .set("lease", "other", SetMode::IfAbsent, None, at(101))
            .unwrap());
    }

    #[test]
    fn expire_command_sets_deadline() {
        let s = Store::new();
        assert!(!s.expire("k", at(50), T0));
        s.set("k", "v", SetMode::Always, None, T0).unwrap();
        assert_eq!(s.ttl("k", T0), Ttl::NoExpiry);
        assert!(s.expire("k", at(50), T0));
        assert!(!s.exists("k", at(60)));
    }

    #[test]
    fn lease_tokens_are_monotonic_across_expiry() {
        let s = Store::new();
        let t1 = s.acquire_lease("lease", "a", at(10), T0).unwrap();
        assert_eq!(t1, 1);
        // Live holder blocks a second grant.
        assert_eq!(s.acquire_lease("lease", "b", at(10), at(5)), None);
        // After expiry the next grant yields a strictly larger token.
        let t2 = s.acquire_lease("lease", "b", at(10), at(20)).unwrap();
        assert!(t2 > t1);
        // Explicit deletion does not reset the counter either.
        s.del("lease", at(21));
        let t3 = s.acquire_lease("lease", "c", at(10), at(22)).unwrap();
        assert!(t3 > t2);
    }

    #[test]
    fn fenced_set_rejects_stale_tokens() {
        let s = Store::new();
        let old = s.acquire_lease("lease", "a", at(10), T0).unwrap();
        // The first holder stalls; its lease expires and is re-granted.
        let fresh = s.acquire_lease("lease", "b", at(10), at(15)).unwrap();
        // Fresh holder writes first: the floor rises to its token.
        assert!(s.fenced_set("guarded", "b-wrote", fresh, at(16)));
        assert_eq!(s.fence_floor("guarded"), fresh);
        // The zombie's late write bounces off the floor; state is untouched.
        assert!(!s.fenced_set("guarded", "a-wrote", old, at(17)));
        assert_eq!(s.get("guarded", at(18)).unwrap().unwrap(), "b-wrote");
        // Same-token rewrites by the live holder stay allowed.
        assert!(s.fenced_set("guarded", "b-again", fresh, at(19)));
    }

    #[test]
    fn fence_state_survives_aof_restart() {
        let s = Store::with_aof();
        let t1 = s.acquire_lease("lease", "a", at(10), T0).unwrap();
        assert!(s.fenced_set("guarded", "v1", t1, at(1)));
        s.restart(at(2));
        // Grant counters and floors live outside the entry map, so the
        // restart replay cannot rewind them.
        assert_eq!(s.fence_floor("guarded"), t1);
        let t2 = s.acquire_lease("lease", "b", at(10), at(20)).unwrap();
        assert!(t2 > t1);
        assert!(!s.fenced_set("guarded", "stale", t1.saturating_sub(1), at(21)));
    }

    #[test]
    fn incr_counts_and_rejects_garbage() {
        let s = Store::new();
        assert_eq!(s.incr("n", T0).unwrap(), 1);
        assert_eq!(s.incr("n", T0).unwrap(), 2);
        s.set("junk", "abc", SetMode::Always, None, T0).unwrap();
        assert!(matches!(
            s.incr("junk", T0),
            Err(KvError::NotAnInteger { .. })
        ));
    }

    #[test]
    fn sets_behave_like_redis_sets() {
        let s = Store::new();
        assert!(s.sadd("tl", "p1", T0).unwrap());
        assert!(!s.sadd("tl", "p1", T0).unwrap());
        assert!(s.sadd("tl", "p2", T0).unwrap());
        assert_eq!(s.smembers("tl", T0).unwrap(), vec!["p1", "p2"]);
        assert!(s.sismember("tl", "p1", T0).unwrap());
        assert!(s.srem("tl", "p1", T0).unwrap());
        assert!(!s.srem("tl", "p1", T0).unwrap());
        assert!(!s.sismember("tl", "p1", T0).unwrap());
        // Removing the last member removes the key, like Redis.
        s.srem("tl", "p2", T0).unwrap();
        assert!(!s.exists("tl", T0));
    }

    #[test]
    fn wrong_type_errors() {
        let s = Store::new();
        s.set("str", "v", SetMode::Always, None, T0).unwrap();
        assert!(matches!(
            s.sadd("str", "m", T0),
            Err(KvError::WrongType { .. })
        ));
        s.sadd("set", "m", T0).unwrap();
        assert!(matches!(s.get("set", T0), Err(KvError::WrongType { .. })));
        assert!(matches!(s.incr("set", T0), Err(KvError::WrongType { .. })));
    }

    #[test]
    fn watch_exec_detects_interleaved_writes() {
        let s = Store::new();
        let v = s.version("k", T0);
        // Interleaved writer changes the key after the WATCH snapshot.
        s.set("k", "sneaky", SetMode::Always, None, T0).unwrap();
        let applied = s
            .exec(
                &[("k".into(), v)],
                &[WriteOp::Set {
                    key: "k".into(),
                    value: "mine".into(),
                    mode: SetMode::Always,
                    ttl: None,
                }],
                T0,
            )
            .unwrap();
        assert!(!applied);
        assert_eq!(s.get("k", T0).unwrap(), Some("sneaky".into()));
    }

    #[test]
    fn watch_exec_applies_when_unchanged() {
        let s = Store::new();
        let v = s.version("k", T0);
        let applied = s
            .exec(
                &[("k".into(), v)],
                &[WriteOp::Set {
                    key: "k".into(),
                    value: "mine".into(),
                    mode: SetMode::Always,
                    ttl: None,
                }],
                T0,
            )
            .unwrap();
        assert!(applied);
        assert_eq!(s.get("k", T0).unwrap(), Some("mine".into()));
    }

    #[test]
    fn watch_sees_delete_then_recreate() {
        let s = Store::new();
        s.set("k", "v1", SetMode::Always, None, T0).unwrap();
        let v = s.version("k", T0);
        s.del("k", T0);
        s.set("k", "v1", SetMode::Always, None, T0).unwrap();
        // Same value, but the version moved: EXEC must abort (ABA handled).
        assert!(!s.exec(&[("k".into(), v)], &[], T0).unwrap());
    }

    #[test]
    fn watch_sees_expiry_as_modification() {
        let s = Store::new();
        s.set("k", "v", SetMode::Always, Some(at(10)), T0).unwrap();
        let v = s.version("k", at(5));
        // Key expires before EXEC touches it.
        assert!(!s.exec(&[("k".into(), v)], &[], at(20)).unwrap());
    }

    #[test]
    fn exec_is_atomic_over_multiple_ops() {
        let s = Store::new();
        let applied = s
            .exec(
                &[],
                &[
                    WriteOp::Set {
                        key: "a".into(),
                        value: "1".into(),
                        mode: SetMode::Always,
                        ttl: None,
                    },
                    WriteOp::SAdd {
                        key: "b".into(),
                        member: "m".into(),
                    },
                ],
                T0,
            )
            .unwrap();
        assert!(applied);
        assert_eq!(s.get("a", T0).unwrap(), Some("1".into()));
        assert!(s.sismember("b", "m", T0).unwrap());
    }

    #[test]
    fn len_counts_only_live_keys() {
        let s = Store::new();
        s.set("a", "1", SetMode::Always, Some(at(10)), T0).unwrap();
        s.set("b", "2", SetMode::Always, None, T0).unwrap();
        assert_eq!(s.len(T0), 2);
        assert_eq!(s.len(at(11)), 1);
        assert!(!s.is_empty(at(11)));
    }

    #[test]
    fn stripes_partition_the_keyspace_deterministically() {
        for key in ["a", "hot", "k:0:1", "user:42", ""] {
            let s = stripe_of(key);
            assert!(s < STRIPE_COUNT);
            assert_eq!(s, stripe_of(key), "stripe must be a pure function");
        }
        // The bench's disjoint pattern must actually spread over stripes.
        let distinct: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| stripe_of(&format!("k:{}:{}", i % 8, i / 8)))
            .collect();
        assert!(distinct.len() > STRIPE_COUNT / 2, "{distinct:?}");
    }

    #[test]
    fn exec_spanning_stripes_is_atomic_and_deadlock_free() {
        // Two EXEC blocks whose watch/write sets overlap in reversed key
        // order: ascending stripe acquisition means they serialize instead
        // of deadlocking, whatever the stripe assignment of the keys.
        let s = Store::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let (a, b) = if t % 2 == 0 {
                            ("left", "right")
                        } else {
                            ("right", "left")
                        };
                        let va = s.version(a, T0);
                        let vb = s.version(b, T0);
                        let _ = s
                            .exec(
                                &[(a.into(), va), (b.into(), vb)],
                                &[
                                    WriteOp::Set {
                                        key: a.into(),
                                        value: format!("{t}:{i}"),
                                        mode: SetMode::Always,
                                        ttl: None,
                                    },
                                    WriteOp::Set {
                                        key: b.into(),
                                        value: format!("{t}:{i}"),
                                        mode: SetMode::Always,
                                        ttl: None,
                                    },
                                ],
                                T0,
                            )
                            .unwrap();
                    }
                });
            }
        });
        // Winners always wrote both keys with the same tag.
        assert_eq!(s.get("left", T0).unwrap(), s.get("right", T0).unwrap());
    }

    #[test]
    fn command_count_is_one_per_public_op() {
        let s = Store::new();
        s.set("k", "v", SetMode::Always, None, T0).unwrap();
        s.get("k", T0).unwrap();
        let v = s.version("k", T0);
        s.exec(&[("k".into(), v)], &[], T0).unwrap();
        s.len(T0);
        assert_eq!(s.command_count(), 5);
        assert_eq!(s.stats().commands, 5);
    }

    #[test]
    fn command_count_sums_across_threads() {
        let s = Store::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        s.get(&format!("k{i}"), T0).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.command_count(), 8 * 50);
    }

    #[test]
    fn concurrent_setnx_grants_exactly_one_winner() {
        let s = Store::new();
        let winners: Vec<bool> = std::thread::scope(|scope| {
            (0..16)
                .map(|i| {
                    let s = s.clone();
                    scope.spawn(move || {
                        s.set("lock", &format!("t{i}"), SetMode::IfAbsent, None, T0)
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(winners.iter().filter(|w| **w).count(), 1);
    }
}
