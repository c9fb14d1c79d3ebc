//! The database: table catalog, sharded row state, transaction lifecycle,
//! per-shard commit validation, and SSI-style certification for the
//! PostgreSQL-like profile.
//!
//! ## Sharded commit spine
//!
//! All row state — version chains and the commit-log entries certification
//! walks — is hash-partitioned into [`SHARD_COUNT`] shards by
//! `(table, primary key)` ([`crate::shard::shard_of`]). A
//! committing transaction locks only the shards its footprint touches, in
//! ascending shard-index order (deadlock-free by construction), validates
//! against those shards' logs, and installs its versions there, pruning
//! each chain it writes (see "Version reclamation" below) — a chain holds
//! what live snapshots can read, not every version ever committed.
//! Commits with disjoint footprints proceed in parallel with no shared
//! lock; the old engine-global `commit_gate` is gone.
//!
//! Commit timestamps are dense draws from one shared counter (see the
//! `epoch` module), taken while the shard locks are held, so each
//! shard's log stays timestamp-ordered. Because commits retire out of
//! order *across* shards, snapshots come from a separate `applied`
//! watermark that only advances once every commit at or below it has
//! fully installed — a begin can never observe a half-applied commit.
//! A commit that retires out of order files its timestamp under the
//! watermark's mutex, and the commit that fills the gap below moves the
//! watermark past it.
//!
//! ## Version reclamation
//!
//! Chains keep only what a live snapshot can still read. The database's
//! *horizon* (`Database::horizon`) is the minimum of the applied
//! watermark (read before the active registry is scanned), the oldest
//! registered begin snapshot, and a crash floor — the oldest snapshot of
//! any transaction a crash forgot, whose zombie handle can still
//! issue statements at it. No reader reads below it: a begin registered
//! after the scan reads at or above the watermark it read first, a Read
//! Committed statement reads at or above its own registered begin, and
//! readers of the newest version (`latest_committed`, escrow,
//! first-updater checks) never look further back. Each commit prunes the
//! chains it writes down to that horizon (`VersionChain::prune`) and the
//! shard logs it appends to by the same rule. The horizon is cached in one
//! monotone atomic and recomputed every `PRUNE_EVERY` installs into a
//! shard, counted under that shard's guard, so the common commit pays one
//! load for it.
//!
//! That install-time prune must keep the version a concurrent snapshot may
//! still read, so the committer revisits its rows when it *retires*: once
//! its timestamp is applied and its registration removed
//! (`Database::retire`). If no transaction is registered then and the
//! crash floor is at or above its commit timestamp, no snapshot below that
//! timestamp is left, and it prunes each chain it left holding an older
//! version at its commit timestamp, down to its newest
//! (`VersionChain::prune`); the emptied vector waits in a one-slot spare
//! on its shard for the next push there. So a chain holds more than one
//! version exactly when the last commit that wrote it has not retired
//! yet, or retired while another transaction was registered or a
//! forgotten handle read below it — and then only what the install-time
//! prune kept, until the row's next write. A chain holds
//! its newest version inline in its shard-map slot, so a chain at rest is
//! read without following a pointer, and a row that was only ever inserted
//! allocates no vector at all. Boot-time replay (`install_recovered`)
//! replaces a row's chain with its newest version.

use crate::engine::{
    AccessEvent, DbConfig, EngineProfile, IsolationLevel, Rules, StatementObserver,
};
use crate::epoch::EpochSpine;
use crate::error::{DbError, TxnId};
use crate::fasthash::FastMap;
use crate::lock::{LockManager, LockStats};
use crate::schema::{Row, Schema};
use crate::shard::{shard_of, ShardSet, SHARD_COUNT};
use crate::table::{CommitTs, RowVersion, Table, VersionChain};
use crate::txn::Transaction;
use crate::value::Value;
use crate::wal::Wal;
use crate::Result;
use adhoc_sim::latency::Cost;
use adhoc_sim::sched::SchedPoint;
use adhoc_sim::{FaultKind, OpClass, RetryPolicy, Transport};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A committed transaction's footprint, retained for SSI certification of
/// concurrent readers (pruned once it is at or below the reclamation
/// horizon, when no snapshot predates it). One
/// entry is shared (`Arc`) by the log of every shard the commit wrote.
#[derive(Debug)]
pub(crate) struct CommittedTxn {
    pub commit_ts: CommitTs,
    /// Rows written: (table, primary key). Usually tiny, so a plain vector
    /// beats a hash set for both build and certification-scan cost.
    pub rows: Vec<(usize, i64)>,
    /// Indexed keys touched (old and new): (table, column, key value).
    pub keys: Vec<(usize, usize, Value)>,
}

/// One hash shard of row state: version chains plus the shard-local commit
/// log. All mutation happens under the shard mutex.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Version chains keyed by (table, primary key).
    pub rows: FastMap<(usize, i64), VersionChain>,
    /// Committed footprints that wrote this shard, timestamp-ordered
    /// (timestamps are drawn while the shard lock is held).
    pub log: VecDeque<Arc<CommittedTxn>>,
    /// Commits installed here since this shard last refreshed the horizon
    /// — the refresh is amortized so the common commit never pays the scan
    /// over active snapshots.
    installs: u32,
    /// One emptied version vector, kept for the next chain here that needs
    /// one (see `VersionChain::prune`): a retiring commit that frees a
    /// chain's older versions leaves the next write's allocations as they
    /// were.
    pub spare: Vec<RowVersion>,
}

/// A shard refreshes the reclamation horizon every this many installs.
pub(crate) const PRUNE_EVERY: u32 = 32;

/// Stripe count for the active-transaction registry (begin/finish touch one
/// stripe; only pruning and crash simulation touch them all).
const ACTIVE_STRIPES: usize = 16;

/// Aggregate counters exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (explicit, dropped, or failed).
    pub aborts: u64,
    /// Statements executed.
    pub statements: u64,
    /// First-committer/updater and certification aborts.
    pub serialization_failures: u64,
    /// Lock-manager counters.
    pub lock_stats: LockStats,
}

pub(crate) struct DbInner {
    pub config: DbConfig,
    /// The client↔server connection every statement crosses: breaker
    /// admission, then one [`Cost::SqlRoundTrip`] yielding at
    /// [`SchedPoint::DbStatement`]. Its round-trip count is
    /// [`DbStats::statements`].
    pub wire: Transport,
    /// The statement observer: the one thing a live database can be given
    /// after construction, because monitors attach to a database that is
    /// already seeded. Everything else is set once, in its [`DbConfig`].
    /// The read guard is never held across a scheduler yield.
    observer: RwLock<Option<Arc<dyn StatementObserver>>>,
    /// Set once an observer is attached, so an unobserved statement or row
    /// pays one load and never touches `observer`.
    observed: AtomicBool,
    /// Table catalog: the tables in id order, resolved by name without a
    /// lock (see [`Catalog`]).
    catalog: Catalog,
    /// The row-state shards. Index with [`shard_of`].
    shards: Box<[Mutex<Shard>]>,
    pub locks: LockManager,
    next_txn: AtomicU64,
    /// Commit-timestamp counter (drawn under the committing transaction's
    /// shard locks) and the `applied` watermark that follows it — see
    /// [`crate::epoch`].
    epoch: EpochSpine,
    /// Active transactions and their begin snapshots, striped by
    /// `txn_id % ACTIVE_STRIPES` so begin/finish on different transactions
    /// don't share a lock.
    active: Box<[Mutex<FastMap<TxnId, CommitTs>>]>,
    /// How many transactions `active` holds, never fewer: a begin raises it
    /// before it reads its snapshot, and it drops only when an entry is
    /// removed (see `Database::retire`).
    registered: AtomicUsize,
    /// The last computed reclamation horizon (`Database::horizon`);
    /// only ever raised.
    horizon: AtomicU64,
    /// The oldest snapshot of any transaction a crash forgot
    /// (`CommitTs::MAX` until one does); only ever lowered.
    crash_floor: AtomicU64,
    /// Sticky: set (with a quiescent barrier) when the first
    /// PostgreSQL-like Serializable transaction begins. Shard commit logs
    /// are consumed only by SSI certification, so until then committers
    /// skip log bookkeeping entirely.
    ssi_seen: AtomicBool,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub serialization_failures: AtomicU64,
    /// Write-ahead log, present when [`DbConfig::wal`] asked for one.
    /// Commits append their write set under their shard guards, so each
    /// row's log order matches its version-chain order.
    wal: Option<Wal>,
    /// What a writing commit charges on the clock after it completes:
    /// `latency.durable_flush` without a WAL, zero with one (the log's
    /// sync pays it instead).
    commit_flush: Duration,
    /// Escrow ledger for budget columns (`stock >= 0`), lazily populated
    /// from committed state and — like the lock table — forgotten on
    /// crash. See [`crate::escrow`].
    pub(crate) escrow: crate::escrow::EscrowLedger,
    /// The one WAL checkpoint writer: held from the checkpoint's start to
    /// its end, so no checkpoint is left open when it is released.
    checkpoint: Mutex<()>,
}

/// The table catalog: an append-only list of table handles, read without
/// a lock. Tables are never dropped, so a published slot never changes.
///
/// Slot `id` lives in segment `ilog2(id + 1)`, which holds `2^k` slots and
/// is allocated by the first append that needs it: the list has no cap,
/// and a slot never moves once a reader may hold a reference to it.
/// Appends are serialized by a mutex; each sets its slot, then stores the
/// new length with `Release`, so a reader that loads the length with
/// `Acquire` finds every slot below it set. Names resolve by a linear
/// comparison over that prefix — a database holds a dozen tables at most.
struct Catalog {
    segments: [OnceLock<Segment>; usize::BITS as usize],
    len: AtomicUsize,
    append: Mutex<()>,
}

/// One catalog segment's slots.
type Segment = Box<[OnceLock<Arc<Table>>]>;

impl Catalog {
    fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }

    /// Segment and offset of slot `id`.
    fn locate(id: usize) -> (usize, usize) {
        let segment = (id + 1).ilog2() as usize;
        (segment, id + 1 - (1 << segment))
    }

    /// Append a table under the next id; a taken name is refused.
    fn create(&self, schema: Schema) -> Result<()> {
        let _append = self.append.lock();
        if self.find(&schema.table).is_some() {
            return Err(DbError::DuplicateTable {
                table: schema.table,
            });
        }
        let id = self.len.load(Ordering::Relaxed);
        let (segment, offset) = Self::locate(id);
        let slots = self.segments[segment]
            .get_or_init(|| (0..1 << segment).map(|_| OnceLock::new()).collect());
        let fresh = slots[offset].set(Arc::new(Table::new(id, schema)));
        debug_assert!(fresh.is_ok(), "slot {id} set twice");
        self.len.store(id + 1, Ordering::Release);
        Ok(())
    }

    /// The published tables, in id order.
    fn tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        let len = self.len.load(Ordering::Acquire);
        self.segments
            .iter()
            .map_while(OnceLock::get)
            .flat_map(|slots| slots.iter())
            .take(len)
            .map(|slot| {
                slot.get()
                    .expect("a slot below the published length is set")
            })
    }

    /// The table named `name`.
    fn find(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables().find(|t| t.schema.table == name)
    }

    /// The table with id `id`.
    fn get(&self, id: usize) -> Option<&Arc<Table>> {
        if id >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (segment, offset) = Self::locate(id);
        self.segments[segment].get()?[offset].get()
    }
}

/// The database handle. Cheap to clone and share across threads.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// A database from an explicit configuration.
    pub fn new(config: DbConfig) -> Self {
        let timeout = config.lock_wait_timeout;
        let flush = config.latency.durable_flush;
        let wal = config
            .wal
            .map(|policy| Wal::new(policy, config.clock.clone(), flush));
        let commit_flush = if wal.is_some() { Duration::ZERO } else { flush };
        let mut wire = Transport::new(
            config.clock.clone(),
            config.latency,
            Cost::SqlRoundTrip,
            SchedPoint::DbStatement,
        );
        if let Some(breaker) = &config.breaker {
            wire = wire.with_breaker(Arc::clone(breaker));
        }
        Self {
            inner: Arc::new(DbInner {
                config,
                wire,
                observer: RwLock::new(None),
                observed: AtomicBool::new(false),
                catalog: Catalog::new(),
                shards: (0..SHARD_COUNT)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
                locks: LockManager::new(timeout),
                next_txn: AtomicU64::new(1),
                epoch: EpochSpine::default(),
                active: (0..ACTIVE_STRIPES)
                    .map(|_| Mutex::new(FastMap::default()))
                    .collect(),
                registered: AtomicUsize::new(0),
                horizon: AtomicU64::new(0),
                crash_floor: AtomicU64::new(CommitTs::MAX),
                ssi_seen: AtomicBool::new(false),
                wal,
                commit_flush,
                escrow: crate::escrow::EscrowLedger::default(),
                checkpoint: Mutex::new(()),
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                serialization_failures: AtomicU64::new(0),
            }),
        }
    }

    /// Shorthand: an in-memory database with the given profile.
    pub fn in_memory(profile: EngineProfile) -> Self {
        Self::new(DbConfig::in_memory(profile))
    }

    /// The configured engine profile.
    pub fn profile(&self) -> EngineProfile {
        self.inner.config.profile
    }

    /// The engine's default isolation level.
    pub fn default_isolation(&self) -> IsolationLevel {
        self.inner.config.profile.default_isolation()
    }

    /// Create a table from a schema.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        self.inner.catalog.create(schema)
    }

    /// A table's schema: the one shared, immutable instance (a reference
    /// count bump, never a copy of the column list).
    pub fn schema(&self, table: &str) -> Result<Arc<Schema>> {
        Ok(Arc::clone(&self.resolve_table(table)?.schema))
    }

    /// Resolve a table by name to its handle (no lock; statements clone
    /// the `Arc`).
    pub(crate) fn resolve_table(&self, name: &str) -> Result<&Arc<Table>> {
        self.inner
            .catalog
            .find(name)
            .ok_or_else(|| DbError::NoSuchTable {
                table: name.to_string(),
            })
    }

    /// A table handle by positional id (commit path; id comes from a
    /// previously resolved statement so it always exists).
    pub(crate) fn table_by_id(&self, id: usize) -> &Arc<Table> {
        self.inner
            .catalog
            .get(id)
            .expect("table ids come from the catalog")
    }

    /// The shard holding row `(table_id, id)` — the unit of commit-time
    /// coordination. Exposed so upper layers can compute footprints.
    pub fn shard_of_row(&self, table_id: usize, id: i64) -> usize {
        shard_of(table_id, id)
    }

    /// The catalog ordinal of a table, the `table_id` argument to
    /// [`shard_of_row`](Self::shard_of_row). Stable for the lifetime of
    /// the database (tables are never dropped), so upper layers can
    /// compute a row's conflict shard without opening a transaction.
    pub fn table_id(&self, table: &str) -> Result<usize> {
        Ok(self.resolve_table(table)?.id)
    }

    /// Run `f` on the version chain of one row (shared read access under
    /// the row's shard lock; `None` when the row has no committed history).
    pub(crate) fn with_chain<R>(
        &self,
        table: usize,
        id: i64,
        f: impl FnOnce(Option<&VersionChain>) -> R,
    ) -> R {
        let shard = self.inner.shards[shard_of(table, id)].lock();
        f(shard.rows.get(&(table, id)))
    }

    /// Run `f(i, chain)` on the version chain of every `ids[i]` that has
    /// committed history — the many-row statements' reader. The ids are
    /// bucketed by shard in one counting pass and each shard's mutex is
    /// taken once for all of its rows, one shard at a time and never two,
    /// so a statement can neither deadlock with a committer nor hold a
    /// shard longer than its own rows take. Visits in ascending shard
    /// order, `ids` order within a shard.
    pub(crate) fn for_each_chain(
        &self,
        table: usize,
        ids: &[i64],
        mut f: impl FnMut(usize, &VersionChain),
    ) {
        // Counting sort of the positions `0..ids.len()` by shard, stable;
        // only the shards present are ever walked, so a point statement
        // (`WHERE pk = ?`, the common caller) pays for one.
        let mut slots = [0usize; SHARD_COUNT];
        let mut present = ShardSet::empty();
        for id in ids {
            let shard = shard_of(table, *id);
            slots[shard] += 1;
            present.insert(shard);
        }
        let mut start = 0;
        for shard in present.iter() {
            start += std::mem::replace(&mut slots[shard], start);
        }
        // A few positions sort on the stack, longer plans on the heap.
        let (mut inline, mut spill) = ([0usize; 8], Vec::new());
        let order = match inline.get_mut(..ids.len()) {
            Some(order) => order,
            None => {
                spill.resize(ids.len(), 0);
                &mut spill[..]
            }
        };
        for (i, id) in ids.iter().enumerate() {
            let slot = &mut slots[shard_of(table, *id)];
            order[*slot] = i;
            *slot += 1;
        }
        // Each `slots[shard]` has advanced to its bucket's end.
        let mut start = 0;
        for idx in present.iter() {
            let bucket = &order[start..slots[idx]];
            start = slots[idx];
            let shard = self.inner.shards[idx].lock();
            for &i in bucket {
                if let Some(chain) = shard.rows.get(&(table, ids[i])) {
                    f(i, chain);
                }
            }
        }
    }

    /// Lock the given shards in ascending index order (the engine-wide
    /// acquisition order — any two committers lock their intersection in
    /// the same order, so shard acquisition cannot deadlock). Returns the
    /// guards paired with their shard indices, ascending.
    pub(crate) fn lock_shards(&self, set: ShardSet) -> Vec<(usize, MutexGuard<'_, Shard>)> {
        // Sized once: a commit that certifies a range read locks all 64
        // shards, and growing the vector to that by doubling re-touches
        // the heap frontier on every such commit.
        let mut guards = Vec::with_capacity(set.len());
        guards.extend(set.iter().map(|idx| (idx, self.inner.shards[idx].lock())));
        guards
    }

    fn active_stripe(&self, txn: TxnId) -> &Mutex<FastMap<TxnId, CommitTs>> {
        &self.inner.active[(txn as usize) % ACTIVE_STRIPES]
    }

    /// Whether the server still knows this transaction (it vanishes on
    /// [`simulate_crash`](Self::simulate_crash)).
    pub(crate) fn is_active(&self, txn: TxnId) -> bool {
        self.active_stripe(txn).lock().contains_key(&txn)
    }

    /// The minimum begin snapshot across all active transactions (stripes
    /// locked in ascending order; callers may hold shard locks — shards
    /// order before active stripes engine-wide).
    pub(crate) fn min_active_snapshot(&self) -> Option<CommitTs> {
        let mut min: Option<CommitTs> = None;
        for stripe in self.inner.active.iter() {
            for snap in stripe.lock().values() {
                min = Some(min.map_or(*snap, |m: CommitTs| m.min(*snap)));
            }
        }
        min
    }

    /// Recompute the reclamation horizon — no snapshot any reader can
    /// still read at is older — and return it: the minimum of the applied
    /// watermark, the oldest active snapshot and the crash floor, raised
    /// into the cached value (a horizon stays safe once computed: every
    /// later snapshot is at or above the watermark it was taken from).
    pub(crate) fn horizon(&self) -> CommitTs {
        // The watermark first: a transaction the stripe scan misses
        // registers after the scan passed its stripe, so it reads at or
        // above this. The crash floor last: a drain the scan missed
        // lowered it under a stripe lock the scan took afterwards.
        let applied = self.inner.epoch.snapshot();
        let active = self.min_active_snapshot().unwrap_or(applied);
        let floor = self.inner.crash_floor.load(Ordering::Relaxed);
        let horizon = applied.min(active).min(floor);
        self.inner
            .horizon
            .fetch_max(horizon, Ordering::Relaxed)
            .max(horizon)
    }

    /// Count one install into each shard of `writes` (`guards` must cover
    /// them) and return the horizon the commit prunes with: recomputed when
    /// one of those shards reaches [`PRUNE_EVERY`] installs, else the
    /// cached one.
    pub(crate) fn install_horizon(
        &self,
        writes: ShardSet,
        guards: &mut [(usize, MutexGuard<'_, Shard>)],
    ) -> CommitTs {
        let mut due = false;
        for (idx, shard) in guards.iter_mut() {
            if writes.contains(*idx) {
                shard.installs += 1;
                if shard.installs >= PRUNE_EVERY {
                    shard.installs = 0;
                    due = true;
                }
            }
        }
        if due {
            self.horizon()
        } else {
            self.inner.horizon.load(Ordering::Relaxed)
        }
    }

    /// Draw the next commit timestamp. Must be called with the write-set
    /// shard locks held so every shard log stays timestamp-ordered.
    pub(crate) fn draw_commit_ts(&self) -> CommitTs {
        self.inner.epoch.draw()
    }

    /// Retire a drawn commit timestamp into the `applied` watermark and
    /// wait until the watermark covers it, so the committer's next begin
    /// (and everyone else's) sees the commit. Called *after* the shard
    /// guards are dropped. Under the deterministic scheduler the wait never
    /// parks: there is no yield point between drawing a timestamp and
    /// retiring it, so commits retire in draw order.
    pub(crate) fn complete_commit(&self, ts: CommitTs) {
        self.inner.epoch.complete(ts);
    }

    /// The snapshot new begins / Read Committed statements read at.
    pub(crate) fn current_snapshot(&self) -> CommitTs {
        self.inner.epoch.snapshot()
    }

    /// The applied-watermark reading, exposed for visibility oracles: a
    /// snapshot handed to any begin is never ahead of this frontier.
    pub fn applied_watermark(&self) -> CommitTs {
        self.inner.epoch.snapshot()
    }

    /// Begin a transaction at the engine's default isolation level.
    pub fn begin(&self) -> Transaction {
        self.begin_with(self.default_isolation())
    }

    /// Begin a transaction at an explicit isolation level.
    pub fn begin_with(&self, iso: IsolationLevel) -> Transaction {
        // Transaction boundaries are preemption points under the
        // deterministic scheduler (no-op otherwise).
        adhoc_sim::sched::yield_point(adhoc_sim::sched::SchedPoint::DbTxn);
        let rules = Rules::of(self.profile(), iso);
        if rules.certify && !self.inner.ssi_seen.load(Ordering::Acquire) {
            // Must run before the snapshot is taken: the barrier guarantees
            // every unlogged commit is at or below any snapshot assigned
            // from here on.
            self.enable_ssi_logging();
        }
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        // Counted before the snapshot is read: a retiring commit that finds
        // no one registered knows any begin it missed reads past it.
        self.inner.registered.fetch_add(1, Ordering::SeqCst);
        // Snapshot assignment and registration are atomic with respect to
        // log pruning (pruning reads every stripe under its lock): a
        // transaction is registered before any entry newer than its
        // snapshot can be pruned, so certification never misses a conflict.
        let snapshot = {
            let mut stripe = self.active_stripe(id).lock();
            let snapshot = self.current_snapshot();
            stripe.insert(id, snapshot);
            snapshot
        };
        Transaction::new(self.clone(), id, iso, rules, snapshot)
    }

    /// Whether committers must append to the shard commit logs. Committers
    /// read this after acquiring their shard guards; the enabling thread
    /// held *all* shard mutexes when it set the flag, so the guard
    /// acquisition orders the load after the store.
    pub(crate) fn ssi_logging(&self) -> bool {
        self.inner.ssi_seen.load(Ordering::Relaxed)
    }

    /// Flip the sticky SSI flag under a quiescent barrier. Holding every
    /// shard mutex stops new commit timestamps from being drawn (they are
    /// drawn under write-shard guards), so once the applied watermark
    /// catches up to the last drawn timestamp, every unlogged commit is
    /// fully installed — and therefore at or below any snapshot taken
    /// after this returns. No commit that could still conflict with a
    /// future serializable read goes unlogged.
    #[cold]
    fn enable_ssi_logging(&self) {
        let guards = self.lock_shards(ShardSet::all());
        if self.inner.ssi_seen.load(Ordering::Relaxed) {
            return;
        }
        // Holding every shard mutex stops new timestamps from being drawn,
        // so waiting out the allocator frontier leaves no commit that could
        // conflict with a future serializable read unlogged. Under the
        // deterministic scheduler every drawn timestamp has already
        // retired (no yield point in between), so this never parks.
        self.inner.epoch.wait_covered(self.inner.epoch.last_drawn());
        self.inner.ssi_seen.store(true, Ordering::SeqCst);
        drop(guards);
    }

    /// Deregister a finished transaction. A handle a crash forgot has no
    /// registration left to remove, and the count stays as the drain left it.
    pub(crate) fn deregister(&self, txn: TxnId) {
        if self.active_stripe(txn).lock().remove(&txn).is_some() {
            self.inner.registered.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Retire a commit at `commit_ts`, once the watermark covers it and its
    /// own registration is removed: if no transaction is registered and no
    /// handle a crash forgot reads below `commit_ts`, no snapshot below it
    /// is left, so each chain in `rows` is pruned at `commit_ts` and
    /// holds its newest version alone (`VersionChain::prune`).
    ///
    /// A begin the count misses counted itself after this load and reads
    /// its snapshot after that (both `SeqCst`, as is the watermark), so it
    /// reads at or above `commit_ts`. A drain lowers the crash floor before
    /// it lowers the count, so a count that shows the drain shows its floor.
    pub(crate) fn retire(&self, commit_ts: CommitTs, rows: impl IntoIterator<Item = (usize, i64)>) {
        if self.inner.registered.load(Ordering::SeqCst) != 0
            || self.inner.crash_floor.load(Ordering::Relaxed) < commit_ts
        {
            return;
        }
        for (table, id) in rows {
            let mut guard = self.inner.shards[shard_of(table, id)].lock();
            let shard = &mut *guard;
            if let Some(chain) = shard.rows.get_mut(&(table, id)) {
                chain.prune(commit_ts, &mut shard.spare);
            }
        }
    }

    /// Run a closure inside a transaction, committing on `Ok` and aborting
    /// on `Err`. No retry: callers handle retryable errors themselves
    /// (that choice is exactly what §3.4 of the paper catalogs).
    pub fn run<R>(
        &self,
        iso: IsolationLevel,
        f: impl FnOnce(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        let mut txn = self.begin_with(iso);
        match f(&mut txn) {
            Ok(r) => {
                txn.commit()?;
                Ok(r)
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    }

    /// Like [`run`](Self::run), retrying on retryable errors (deadlock /
    /// serialization failure / lock timeout) up to `max_retries` times
    /// under one [`RetryPolicy`]: capped exponential backoff with
    /// deterministic jitter (per-loop streams decorrelate threads) so
    /// symmetric deadlock victims don't re-collide forever. On give-up the
    /// last error is returned, exactly as the studied DBT wrappers re-raise
    /// the driver exception.
    pub fn run_with_retries<R>(
        &self,
        iso: IsolationLevel,
        max_retries: usize,
        mut f: impl FnMut(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        let backoff = Duration::from_micros;
        RetryPolicy::exponential(max_retries as u32 + 1, backoff(25), backoff(800))
            .with_jitter(0.5)
            .run("dbt", None, DbError::is_retryable, |_attempt| {
                self.run(iso, &mut f)
            })
            .map_err(|give_up| give_up.error)
    }

    /// Consult the fault plan for one commit attempt.
    pub(crate) fn arm_commit_fault(&self) -> Option<FaultKind> {
        let plan = self.inner.config.faults.as_ref()?;
        plan.arm(OpClass::DbCommit).map(|f| f.kind)
    }

    /// Consult the fault plan for one statement that has paid its round
    /// trip: whether it was partitioned away before reaching the engine.
    pub(crate) fn statement_partitioned(&self) -> bool {
        self.inner.config.faults.as_ref().is_some_and(|plan| {
            plan.arm_at(OpClass::DbStatement, self.inner.wire.now())
                .is_some_and(|f| f.kind == FaultKind::DbPartitioned)
        })
    }

    /// Allocate a session id for session-scoped advisory locks (the
    /// PostgreSQL "explicit user locks" of §6 / Table 7a). The id shares
    /// the transaction-id space so the lock manager's deadlock detector
    /// covers advisory waits too.
    pub fn new_session(&self) -> SessionId {
        SessionId(self.inner.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Blockingly acquire a session-scoped advisory lock.
    pub fn advisory_lock(&self, session: SessionId, key: i64) -> Result<()> {
        self.inner.locks.lock_advisory(session.0, key, None)
    }

    /// Try to acquire a session-scoped advisory lock without blocking.
    pub fn try_advisory_lock(&self, session: SessionId, key: i64) -> bool {
        self.inner.locks.try_lock_advisory(session.0, key)
    }

    /// Release one level of a session-scoped advisory lock.
    pub fn advisory_unlock(&self, session: SessionId, key: i64) -> bool {
        self.inner.locks.unlock_advisory(session.0, key)
    }

    /// Release everything a session holds (disconnect).
    pub fn end_session(&self, session: SessionId) {
        self.inner.locks.release_all(session.0);
    }

    /// The latest committed version of a row, outside any transaction.
    /// Used by consistency checkers ("fsck", §3.4.2) and tests.
    pub fn latest_committed(&self, table: &str, id: i64) -> Result<Option<Row>> {
        let t = self.resolve_table(table)?;
        Ok(self.with_chain(t.id, id, |c| c.and_then(|c| c.latest()).cloned()))
    }

    /// Every primary key of a table with committed history, deleted rows
    /// included (the keys its gap locks and auto-increment cursor see),
    /// ascending, for checkers.
    pub fn row_ids(&self, table: &str) -> Result<Vec<i64>> {
        Ok(self.resolve_table(table)?.all_ids())
    }

    /// All live rows of a table (latest committed versions), for checkers.
    pub fn dump_table(&self, table: &str) -> Result<Vec<(i64, Row)>> {
        let t = self.resolve_table(table)?;
        Ok(t.all_ids()
            .into_iter()
            .filter_map(|id| {
                self.with_chain(t.id, id, |c| c.and_then(|c| c.latest()).cloned())
                    .map(|r| (id, r))
            })
            .collect())
    }

    /// Simulate an RDBMS crash: every active transaction is forgotten and
    /// its locks released; committed state survives (it was durable).
    /// Client-side `Transaction` handles become zombies whose commit fails
    /// with [`DbError::TxnNotActive`] — the "connection lost" exception the
    /// paper's §3.4.2 describes drivers throwing.
    ///
    /// The commit spine is quiesced first — every shard locked, so no
    /// commit is mid-install — and the active registry is emptied at that
    /// single consistent point. The drained snapshots lower the crash
    /// floor: their zombie handles can still read at them.
    pub fn simulate_crash(&self) {
        // Engine-wide order: shards (ascending) before active stripes.
        let mut guards = self.lock_shards(ShardSet::all());
        for stripe in self.inner.active.iter() {
            let mut stripe = stripe.lock();
            let forgotten = stripe.len();
            for (_, snapshot) in stripe.drain() {
                self.inner
                    .crash_floor
                    .fetch_min(snapshot, Ordering::Relaxed);
            }
            self.inner.registered.fetch_sub(forgotten, Ordering::SeqCst);
        }
        for (_, shard) in guards.iter_mut() {
            shard.log.clear();
        }
        drop(guards);
        // The lock table lives in server memory: a crash forgets *all* of
        // it — engine locks of the drained transactions and session
        // advisory locks alike (§3.4.2: advisory locks do not survive a
        // server restart).
        self.inner.locks.clear_all();
        // Likewise the escrow ledger: outstanding reservations were
        // volatile intents. Entries re-derive from committed state on
        // first use after restart.
        self.inner.escrow.clear();
    }

    /// Counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            commits: self.inner.commits.load(Ordering::Relaxed),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
            statements: self.inner.wire.round_trips(),
            serialization_failures: self.inner.serialization_failures.load(Ordering::Relaxed),
            lock_stats: self.inner.locks.stats(),
        }
    }

    /// Direct access to the lock manager (used by the toolkit crate for
    /// explicit lock hints and by tests).
    pub(crate) fn locks(&self) -> &LockManager {
        &self.inner.locks
    }

    /// Attach (or replace) a statement observer on a live database.
    pub fn attach_observer(&self, observer: Arc<dyn StatementObserver>) {
        *self.inner.observer.write() = Some(observer);
        self.inner.observed.store(true, Ordering::Release);
    }

    /// The observer slot, or `None` after one load when nothing was ever
    /// attached.
    fn observer_slot(&self) -> Option<RwLockReadGuard<'_, Option<Arc<dyn StatementObserver>>>> {
        self.inner
            .observed
            .load(Ordering::Acquire)
            .then(|| self.inner.observer.read())
    }

    /// Deliver an access event to the installed observer. `event` is
    /// built only when one is installed, so the unobserved path allocates
    /// nothing.
    pub(crate) fn observe(&self, event: impl FnOnce() -> AccessEvent) {
        if let Some(observer) = self.observer_slot().as_deref().and_then(Option::as_ref) {
            observer.on_event(&event());
        }
    }

    /// The installed statement observer. A statement that reports many
    /// events looks once, then delivers each without the observer lock.
    pub(crate) fn observer(&self) -> Option<Arc<dyn StatementObserver>> {
        self.observer_slot()?.clone()
    }

    /// The write-ahead log, when the configuration asked for one
    /// ([`DbConfig::with_wal`](crate::engine::DbConfig::with_wal)).
    pub fn wal(&self) -> Option<&Wal> {
        self.inner.wal.as_ref()
    }

    /// Write a checkpoint into the write-ahead log and drop the log before
    /// it, like SQL `CHECKPOINT`: the newest version of every row, as one
    /// checkpoint frame per shard, then an end frame; once that is
    /// durable, the log below the checkpoint's start goes. Tombstones are
    /// written too, so recovery keeps a deleted row's id in the primary-key
    /// set and past the auto-increment cursor, as replaying the whole log
    /// would. Commits go on meanwhile: a shard is locked only while its
    /// frame is written. Every record below the start was appended and
    /// installed under its rows' shard guards, so the version a frame
    /// carries is at least as new as any record of that row the
    /// truncation drops; records the checkpoint races replay over it by
    /// commit timestamp. A commit whose append finds one due writes it the
    /// same way, whole, once it has released its locks: one writer at a
    /// time, and no checkpoint is left open between two calls.
    /// Returns false when the database has no WAL.
    pub fn checkpoint(&self) -> bool {
        self.write_checkpoint(None)
    }

    /// [`checkpoint`](Self::checkpoint), crashing as the commit fault
    /// `crash` says.
    pub(crate) fn write_checkpoint(&self, crash: Option<FaultKind>) -> bool {
        self.checkpoint_with(Wal::begin_checkpoint, crash)
    }

    /// The checkpoint a commit's append reported due, written whole after
    /// the commit released its locks. It opens only if it is still due:
    /// another writer may have ended it since the report.
    pub(crate) fn write_due_checkpoint(&self) -> bool {
        self.checkpoint_with(Wal::begin_due_checkpoint, None)
    }

    /// Under the writer lock, open a checkpoint with `begin`, write every
    /// shard's frame and end it: its end frame made durable, then the log
    /// before its start dropped, unless the commit fault `crash` kills the
    /// process first. Returns whether it wrote one.
    fn checkpoint_with(&self, begin: fn(&Wal) -> Option<usize>, crash: Option<FaultKind>) -> bool {
        let Some(wal) = self.wal() else {
            return false;
        };
        let _writer = self.inner.checkpoint.lock();
        if begin(wal).is_none() {
            return false;
        }
        for shard in &self.inner.shards {
            let shard = shard.lock();
            if shard.rows.is_empty() {
                continue;
            }
            // A row names its table by id, a position in this list. Read
            // under the shard guard, it holds every table a row here
            // refers to: the catalog only grows, and a table is in it
            // before any row of it commits.
            let tables: Vec<&str> = (self.inner.catalog.tables())
                .map(|t| &t.schema.table[..])
                .collect();
            wal.append_checkpoint(&tables, |enc| {
                for (&(table, id), chain) in shard.rows.iter() {
                    let row = chain.latest().map(|r| &r.values[..]);
                    enc.row(table, chain.latest_ts(), id, row);
                }
            });
        }
        let end_lsn = wal.end_checkpoint();
        match crash {
            // The fsync watermark stops inside the checkpoint's frames,
            // before its end frame.
            Some(FaultKind::CheckpointTorn) => wal.sync_torn(),
            Some(FaultKind::CrashBeforeTruncate) => wal.ensure_durable(end_lsn),
            _ => {
                wal.ensure_durable(end_lsn);
                wal.truncate();
            }
        }
        true
    }

    /// Install one recovered row version (boot-time WAL replay). Bypasses
    /// the statement path entirely — no yield points, no latency charges,
    /// no observers — and keeps the table indexes (including the
    /// auto-increment cursor, via `apply_index`'s `note_id`) in step with
    /// the restored chains. Nothing reads during boot, so each chain keeps
    /// only its newest version. A version older than the one installed is
    /// skipped, so checkpoint images and the records around them may
    /// replay in any order; an equal timestamp replaces, so a record that
    /// wrote a row twice ends on its last write. Returns whether it
    /// installed.
    pub(crate) fn install_recovered(
        &self,
        table: &Table,
        id: i64,
        commit_ts: CommitTs,
        row: Option<Row>,
    ) -> bool {
        let mut shard = self.inner.shards[shard_of(table.id, id)].lock();
        let key = (table.id, id);
        let old = match shard.rows.get(&key) {
            Some(chain) if chain.latest_ts() > commit_ts => return false,
            Some(chain) => chain.latest(),
            None => None,
        };
        table.apply_index(id, old, row.as_ref());
        shard.rows.insert(
            key,
            VersionChain::new(RowVersion {
                commit_ts,
                data: row,
            }),
        );
        true
    }

    /// Advance the timestamp frontiers to cover a recovered commit, so
    /// post-recovery commits draw fresh timestamps and new snapshots see
    /// every recovered version.
    pub(crate) fn note_recovered_ts(&self, ts: CommitTs) {
        self.inner.epoch.note_recovered(ts);
    }

    /// Charge a writing commit's durable flush (zero with a WAL).
    pub(crate) fn charge_flush(&self) {
        if !self.inner.commit_flush.is_zero() {
            self.inner.config.clock.sleep(self.inner.commit_flush);
        }
    }

    /// Append a committed footprint to the logs of the shards it wrote
    /// (`guards` must cover `writes`) and drop the entries at or below
    /// `horizon`, the commit's reclamation horizon: certification walks
    /// only entries newer than its own snapshot, and no snapshot is older.
    pub(crate) fn log_commit(
        &self,
        entry: Arc<CommittedTxn>,
        writes: ShardSet,
        guards: &mut [(usize, MutexGuard<'_, Shard>)],
        horizon: CommitTs,
    ) {
        for (idx, shard) in guards.iter_mut() {
            if !writes.contains(*idx) {
                continue;
            }
            while shard.log.front().is_some_and(|e| e.commit_ts <= horizon) {
                shard.log.pop_front();
            }
            shard.log.push_back(Arc::clone(&entry));
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("profile", &self.inner.config.profile)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Opaque session identifier for advisory locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub(crate) TxnId);

#[cfg(test)]
mod tests {
    //! Version reclamation never takes a version from a snapshot that can
    //! still read it, and keeps chains short when none can. The lock-free
    //! catalog resolves exactly like the locked one it replaced, and never
    //! shows a reader a half-published table.

    use super::*;
    use crate::schema::Column;
    use crate::value::ColumnType;

    const PROFILES: [EngineProfile; 2] = [EngineProfile::MySqlLike, EngineProfile::PostgresLike];

    fn skus(config: DbConfig) -> Database {
        let db = Database::new(config);
        db.create_table(
            Schema::new(
                "skus",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("quantity", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// A database holding `skus` row 1 at quantity 0.
    fn one_row(config: DbConfig) -> Database {
        let db = skus(config);
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("skus", &[("id", 1.into()), ("quantity", 0.into())])
                .map(|_| ())
        })
        .unwrap();
        db
    }

    fn set_quantity(db: &Database, id: i64, quantity: i64) {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("skus", id, &[("quantity", quantity.into())])
        })
        .unwrap();
    }

    /// `latency.durable_flush` is charged once per writing commit: inside
    /// the WAL's sync when there is a log, by the commit itself when there
    /// is none. A read-only commit charges nothing.
    #[test]
    fn a_writing_commit_pays_one_durable_flush_with_or_without_a_wal() {
        let flush = Duration::from_millis(3);
        for wal in [false, true] {
            let clock = adhoc_sim::VirtualClock::shared();
            let mut config = DbConfig::in_memory(EngineProfile::PostgresLike);
            config.clock = clock.clone();
            config.latency.durable_flush = flush;
            let db = one_row(if wal { config.with_wal() } else { config });
            let before = clock.now();
            set_quantity(&db, 1, 5);
            assert_eq!(clock.now() - before, flush, "wal: {wal}");
            let before = clock.now();
            db.run(IsolationLevel::ReadCommitted, |t| t.get("skus", 1))
                .unwrap();
            assert_eq!(clock.now(), before, "read-only commit, wal: {wal}");
        }
    }

    fn quantity(t: &mut Transaction) -> i64 {
        t.get("skus", 1).unwrap().unwrap().values[1].as_int()
    }

    /// Versions held by row `id` of `skus`.
    fn chain_len(db: &Database, id: i64) -> usize {
        db.with_chain(0, id, |c| c.map_or(0, VersionChain::len))
    }

    #[test]
    fn an_old_snapshot_reads_its_version_through_10_000_commits() {
        let cases = [
            (EngineProfile::MySqlLike, IsolationLevel::RepeatableRead),
            (EngineProfile::PostgresLike, IsolationLevel::RepeatableRead),
            (EngineProfile::PostgresLike, IsolationLevel::Serializable),
        ];
        for (profile, iso) in cases {
            let db = one_row(DbConfig::in_memory(profile));
            let mut old = db.begin_with(iso);
            assert_eq!(quantity(&mut old), 0);
            for q in 1..=10_000 {
                set_quantity(&db, 1, q);
            }
            assert_eq!(quantity(&mut old), 0, "{profile:?} {iso:?}");
            assert_eq!(chain_len(&db, 1), 10_001, "{profile:?} {iso:?}");
            // Writing the row it read: MySQL's Repeatable Read overwrites
            // the newer value (the lost update of §3.1.1), PostgreSQL's
            // first-updater rule refuses — both as without reclamation.
            let write = old.update("skus", 1, &[("quantity", (-1).into())]);
            match profile {
                EngineProfile::MySqlLike => {
                    write.unwrap();
                    old.commit().unwrap();
                    let latest = db.latest_committed("skus", 1).unwrap().unwrap();
                    assert_eq!(latest.values[1].as_int(), -1);
                }
                EngineProfile::PostgresLike => {
                    assert!(
                        matches!(write, Err(DbError::SerializationFailure { .. })),
                        "{iso:?}: {write:?}"
                    );
                    old.abort();
                    let latest = db.latest_committed("skus", 1).unwrap().unwrap();
                    assert_eq!(latest.values[1].as_int(), 10_000);
                }
            }
        }
    }

    #[test]
    fn a_handle_a_crash_forgot_reads_the_same_row_after_1_000_commits() {
        for profile in PROFILES {
            let db = one_row(DbConfig::in_memory(profile));
            let mut zombie = db.begin_with(IsolationLevel::RepeatableRead);
            assert_eq!(quantity(&mut zombie), 0);
            db.simulate_crash();
            for q in 1..=1_000 {
                set_quantity(&db, 1, q);
            }
            assert_eq!(quantity(&mut zombie), 0, "{profile:?}");
            // No retiring writer took it: the crash floor is below them all.
            let kept = db.with_chain(0, 1, |c| {
                c.unwrap()
                    .visible(zombie.snapshot_ts())
                    .map(|row| row.values[1].as_int())
            });
            assert_eq!(kept, Some(0), "{profile:?}");
            assert!(matches!(zombie.commit(), Err(DbError::TxnNotActive { .. })));
        }
    }

    #[test]
    fn with_no_snapshot_open_100_000_updates_leave_a_short_chain() {
        for profile in PROFILES {
            let db = one_row(DbConfig::in_memory(profile));
            for q in 1..=100_000 {
                set_quantity(&db, 1, q);
                assert_eq!(chain_len(&db, 1), 1, "{profile:?}: after update {q}");
            }
        }
    }

    /// A registered reader keeps the version it can read through a writer's
    /// retirement, whatever its level: a Repeatable Read reader reads it
    /// again, and a Read Committed one (whose statements read newer
    /// snapshots) keeps it in the chain for as long as it is registered.
    /// Once both have finished, the next writer to retire reclaims it.
    #[test]
    fn a_retiring_writer_leaves_a_registered_reader_its_version() {
        for profile in PROFILES {
            let db = one_row(DbConfig::in_memory(profile));
            let mut repeatable = db.begin_with(IsolationLevel::RepeatableRead);
            let mut committed = db.begin_with(IsolationLevel::ReadCommitted);
            assert_eq!(quantity(&mut repeatable), 0);
            assert_eq!(quantity(&mut committed), 0);
            let snapshots = [repeatable.snapshot_ts(), committed.snapshot_ts()];
            let at = |snapshot: CommitTs| {
                db.with_chain(0, 1, |c| {
                    c.unwrap()
                        .visible(snapshot)
                        .map(|row| row.values[1].as_int())
                })
            };
            set_quantity(&db, 1, 1);
            assert_eq!(quantity(&mut repeatable), 0, "{profile:?}");
            assert_eq!(quantity(&mut committed), 1, "{profile:?}");
            assert_eq!(snapshots.map(at), [Some(0); 2], "{profile:?}");
            // Either reader alone keeps it.
            repeatable.commit().unwrap();
            set_quantity(&db, 1, 2);
            assert_eq!(at(snapshots[1]), Some(0), "{profile:?}");
            committed.commit().unwrap();
            // A reader finishing reclaims nothing; the next writer does.
            assert_eq!(at(snapshots[1]), Some(0), "{profile:?}");
            set_quantity(&db, 1, 3);
            assert_eq!(chain_len(&db, 1), 1, "{profile:?}");
            assert_eq!(snapshots.map(at), [None; 2], "{profile:?}");
        }
    }

    /// One thread updates a row in a loop while another begins Repeatable
    /// Read snapshots and reads the row twice in each: a writer that
    /// retires between a begin and its reads must leave that snapshot its
    /// version, so every read finds the row and the two reads agree. Run it
    /// in release, where the race is tightest.
    #[test]
    fn a_snapshot_begun_while_writers_retire_reads_its_row_twice() {
        const ROUNDS: usize = 20_000;
        for profile in PROFILES {
            let db = one_row(DbConfig::in_memory(profile));
            let done = AtomicBool::new(false);
            let failure = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut q = 0;
                    while !done.load(Ordering::Relaxed) {
                        q += 1;
                        set_quantity(&db, 1, q);
                    }
                });
                let failure = (0..ROUNDS).find_map(|round| {
                    let mut reader = db.begin_with(IsolationLevel::RepeatableRead);
                    let reads = [0; 2].map(|_| {
                        reader
                            .get("skus", 1)
                            .unwrap()
                            .map(|row| row.values[1].as_int())
                    });
                    let snapshot = reader.snapshot_ts();
                    (reads[0].is_none() || reads[0] != reads[1])
                        .then(|| format!("round {round} at snapshot {snapshot}: {reads:?}"))
                });
                done.store(true, Ordering::Relaxed);
                failure
            });
            assert_eq!(failure, None, "{profile:?}");
        }
    }

    #[test]
    fn a_restarted_database_holds_one_version_per_row() {
        for profile in PROFILES {
            let config = || DbConfig::in_memory(profile).with_wal();
            let db = skus(config());
            for id in 1..=20 {
                db.run(IsolationLevel::ReadCommitted, |t| {
                    t.insert("skus", &[("id", id.into()), ("quantity", 0.into())])
                        .map(|_| ())
                })
                .unwrap();
            }
            // A reader pins every version the updates write.
            let pin = db.begin_with(IsolationLevel::RepeatableRead);
            for q in 1..=50 {
                for id in 1..=20 {
                    set_quantity(&db, id, q);
                }
            }
            assert_eq!(chain_len(&db, 7), 51);
            drop(pin);
            let reborn = skus(config());
            crate::recovery::restart_from(&db, &reborn).unwrap();
            for shard in reborn.inner.shards.iter() {
                for chain in shard.lock().rows.values() {
                    assert_eq!(chain.len(), 1, "{profile:?}");
                }
            }
            assert_eq!(
                reborn.latest_committed("skus", 7).unwrap().unwrap().values[1].as_int(),
                50
            );
        }
    }

    /// The catalog the append-only one replaced, kept as its reference: a
    /// name map and a handle list under one reader-writer lock.
    #[derive(Default)]
    struct LockedCatalog(RwLock<Locked>);

    #[derive(Default)]
    struct Locked {
        by_name: FastMap<String, usize>,
        list: Vec<Arc<Table>>,
    }

    impl LockedCatalog {
        fn create(&self, schema: Schema) -> Result<()> {
            let mut catalog = self.0.write();
            if catalog.by_name.contains_key(&schema.table) {
                return Err(DbError::DuplicateTable {
                    table: schema.table,
                });
            }
            let id = catalog.list.len();
            catalog.by_name.insert(schema.table.clone(), id);
            catalog.list.push(Arc::new(Table::new(id, schema)));
            Ok(())
        }

        fn resolve(&self, name: &str) -> Option<(usize, String)> {
            let catalog = self.0.read();
            let id = *catalog.by_name.get(name)?;
            Some(describe(&catalog.list[id]))
        }

        fn by_id(&self, id: usize) -> Option<(usize, String)> {
            self.0.read().list.get(id).map(|t| describe(t))
        }
    }

    fn describe(table: &Table) -> (usize, String) {
        (table.id, table.schema.table.clone())
    }

    fn table_named(name: &str) -> Schema {
        Schema::new(name, vec![Column::new("id", ColumnType::Int)], "id").unwrap()
    }

    /// Seeded random sequences of `create_table` (most of them, once the
    /// 48 names are taken, duplicates), `resolve_table`, `table_id` and `table_by_id` read the
    /// same from the append-only catalog as from the locked one, across the
    /// first six segments (up to 48 tables).
    #[test]
    fn the_catalog_resolves_like_the_locked_one() {
        use rand::Rng;
        for seed in 0..64 {
            let mut rng = adhoc_sim::rng::seeded(seed);
            let db = Database::in_memory(EngineProfile::PostgresLike);
            let reference = LockedCatalog::default();
            for step in 0..400 {
                let name = format!("t{}", rng.gen_range(0..48));
                let at = format!("seed {seed} step {step} {name}");
                match rng.gen_range(0..4) {
                    0 => assert_eq!(
                        format!("{:?}", db.create_table(table_named(&name))),
                        format!("{:?}", reference.create(table_named(&name))),
                        "{at}"
                    ),
                    1 => assert_eq!(
                        db.resolve_table(&name).ok().map(|t| describe(t)),
                        reference.resolve(&name),
                        "{at}"
                    ),
                    2 => assert_eq!(
                        format!("{:?}", db.table_id(&name)),
                        format!(
                            "{:?}",
                            reference.resolve(&name).map(|(id, _)| id).ok_or_else(|| {
                                DbError::NoSuchTable {
                                    table: name.clone(),
                                }
                            })
                        ),
                        "{at}"
                    ),
                    _ => {
                        let id = rng.gen_range(0..50);
                        let expected = reference.by_id(id);
                        assert_eq!(
                            db.inner.catalog.get(id).map(|t| describe(t)),
                            expected,
                            "{at}"
                        );
                        if expected.is_some() {
                            assert_eq!(Some(describe(db.table_by_id(id))), expected, "{at}");
                        }
                    }
                }
            }
            let listed: Vec<_> = db.inner.catalog.tables().map(|t| describe(t)).collect();
            let expected: Vec<_> = reference
                .0
                .read()
                .list
                .iter()
                .map(|t| describe(t))
                .collect();
            assert_eq!(listed, expected, "seed {seed}");
        }
    }

    /// Two threads append the same 300 names (so every name is refused
    /// once) while a third resolves them: the reader never meets a slot
    /// below the published length unset, a name never resolves to a table
    /// of another name, and once it resolves it keeps its id.
    #[test]
    fn resolving_while_tables_are_created_sees_only_whole_tables() {
        const TABLES: usize = 300;
        let names: Vec<String> = (0..TABLES).map(|k| format!("t{k}")).collect();
        for _ in 0..30 {
            let db = Database::in_memory(EngineProfile::MySqlLike);
            let created = AtomicUsize::new(0);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let creators: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            for name in &names {
                                match db.create_table(table_named(name)) {
                                    Ok(()) => {
                                        created.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(DbError::DuplicateTable { .. }) => {}
                                    Err(e) => panic!("{name}: {e:?}"),
                                }
                            }
                        })
                    })
                    .collect();
                let reader = s.spawn(|| {
                    let mut seen: Vec<Option<usize>> = vec![None; TABLES];
                    let mut last_round = false;
                    for pass in 0.. {
                        // Every published slot, the newest (the one an
                        // append may be midway through) by id as well.
                        let published = db.inner.catalog.tables().count();
                        if let Some(newest) = published.checked_sub(1) {
                            assert_eq!(db.table_by_id(newest).id, newest);
                        }
                        // One name a pass keeps the passes short; the
                        // last pass checks them all.
                        let check = if last_round {
                            0..TABLES
                        } else {
                            pass % TABLES..pass % TABLES + 1
                        };
                        for k in check {
                            let name = &names[k];
                            match (db.resolve_table(name), seen[k]) {
                                (Ok(t), first) => {
                                    assert_eq!(&t.schema.table, name);
                                    assert_eq!(first.unwrap_or(t.id), t.id, "{name}");
                                    seen[k] = Some(t.id);
                                }
                                (Err(_), Some(id)) => panic!("{name} resolved to {id}, then not"),
                                (Err(_), None) => {}
                            }
                        }
                        if last_round {
                            break;
                        }
                        last_round = done.load(Ordering::Acquire);
                    }
                    seen
                });
                for creator in creators {
                    creator.join().unwrap();
                }
                done.store(true, Ordering::Release);
                let seen = reader.join().unwrap();
                let mut ids: Vec<usize> = seen.into_iter().map(Option::unwrap).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..TABLES).collect::<Vec<_>>());
            });
            assert_eq!(created.load(Ordering::Relaxed), TABLES);
        }
    }

    /// `skus`-shaped table `name`.
    fn create_skus_like(db: &Database, name: &str) {
        let columns = vec![
            Column::new("id", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
        ];
        db.create_table(Schema::new(name, columns, "id").unwrap())
            .unwrap();
    }

    fn insert(db: &Database, table: &str, id: i64, quantity: i64) {
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert(table, &[("id", id.into()), ("quantity", quantity.into())])
                .map(|_| ())
        })
        .unwrap();
    }

    /// A table created, and a row committed into it, while a checkpoint
    /// is half written: the checkpoint's frame for that row's shard names
    /// the new table, so recovery reads the frame and every commit after
    /// it.
    #[test]
    fn a_table_created_mid_checkpoint_is_in_its_frame() {
        const HELD: usize = SHARD_COUNT / 2;
        let config = DbConfig::in_memory(EngineProfile::PostgresLike).with_wal();
        let db = skus(config.clone());
        for id in 1..=256 {
            insert(&db, "skus", id, id);
        }
        let wal = db.wal().unwrap();
        let late_id = (1..)
            .find(|&id| shard_of(1, id) > HELD)
            .expect("some id maps past the held shard");
        // The checkpoint writes the shards below `HELD`, then waits for it.
        let held = db.inner.shards[HELD].lock();
        std::thread::scope(|s| {
            let checkpoint = s.spawn(|| db.checkpoint());
            while wal.stats().checkpoint_bytes == 0 {
                std::thread::yield_now();
            }
            create_skus_like(&db, "late");
            insert(&db, "late", late_id, 7);
            drop(held);
            assert!(checkpoint.join().unwrap());
        });
        set_quantity(&db, 1, -1);
        let reborn = skus(config);
        create_skus_like(&reborn, "late");
        let report = crate::recovery::restart_from(&db, &reborn).unwrap();
        assert!(report.clean(), "{report:?}");
        let row = reborn.latest_committed("late", late_id).unwrap().unwrap();
        assert_eq!(row.values[1].as_int(), 7);
        let row = reborn.latest_committed("skus", 1).unwrap().unwrap();
        assert_eq!(row.values[1].as_int(), -1, "the commit after it");
    }

    /// One committer: the commit whose append finds a checkpoint due
    /// returns with that checkpoint written whole. The log then holds it
    /// and nothing else: it ended, its end frame is durable, and the
    /// records below its start, that commit's own included, are gone.
    #[test]
    fn the_commit_that_finds_a_checkpoint_due_writes_it_whole() {
        const ROWS: i64 = 256;
        let db = skus(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
        for id in 1..=ROWS {
            insert(&db, "skus", id, id);
        }
        let wal = db.wal().unwrap();
        let mut i = 0;
        let before = loop {
            let before = wal.stats();
            i += 1;
            set_quantity(&db, i % ROWS + 1, i);
            if wal.stats().checkpoint_bytes > before.checkpoint_bytes {
                break before;
            }
        };
        let after = wal.stats();
        assert_eq!(after.checkpoints, before.checkpoints + 1);
        assert_eq!(after.held, after.checkpoint_bytes - before.checkpoint_bytes);
        let image = crate::wal::decode_stream(&wal.durable_bytes());
        assert_eq!(image.tail, crate::wal::WalTail::Clean);
        assert_eq!(image.checkpoint.len() as i64, ROWS);
        assert!(image.records.is_empty());
    }

    /// A commit whose due report went stale, because another writer ended
    /// that checkpoint first, opens no checkpoint.
    #[test]
    fn a_commit_whose_due_report_went_stale_opens_no_checkpoint() {
        let db = one_row(DbConfig::in_memory(EngineProfile::PostgresLike).with_wal());
        let wal = db.wal().unwrap();
        let append = |ts| wal.append_streamed(ts, |enc| enc.write("skus", 1, None));
        assert!((1..).any(|ts| append(ts).checkpoint_due));
        assert!(db.checkpoint(), "another writer ends it first");
        let before = wal.stats();
        assert!(!db.write_due_checkpoint());
        assert_eq!(wal.stats(), before);
    }
}
