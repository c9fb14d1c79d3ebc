//! Transactions and the statement API.
//!
//! Statement semantics vary by engine profile and isolation level exactly
//! where the paper's arguments need them to. The matrix is decided once, in
//! `engine::Rules`; each statement reads the rule it needs from the
//! transaction's copy. Writes buffer in a per-transaction write set;
//! record locks are taken at statement time (strict 2PL) and released at
//! commit/abort.
//!
//! Commit runs the sharded validation protocol: the transaction locks the
//! row-state shards its [`footprint`](Transaction::footprint) touches (in
//! ascending shard order — deadlock-free), certifies against those shards'
//! commit logs, installs its versions per shard, and retires its commit
//! timestamp into the snapshot watermark. Commits with disjoint footprints
//! never share a lock.

use crate::db::{CommittedTxn, Database, Shard};
use crate::engine::{AccessEvent, IsolationLevel, Rules, StatementObserver};
use crate::error::{DbError, TxnId};
use crate::fasthash::FastSet;
use crate::lock::LockMode;
use crate::predicate::{BoundPredicate, Predicate, ValueInterval};
use crate::schema::{row_from_pairs, Row};
use crate::shard::{shard_of, Footprint, ShardSet};
use crate::table::{CommitTs, RowVersion, Table, VersionChain};
use crate::value::{ColumnType, Value};
use crate::wal::WalEncoder;
use crate::Result;
use adhoc_sim::{Deadline, FaultKind, Transport, TransportError};
use parking_lot::MutexGuard;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One buffered write: `row = None` is a deletion.
#[derive(Debug, Clone)]
struct Pending {
    table: usize,
    id: i64,
    row: Option<Row>,
    /// For the transaction's first update of a committed row: the version
    /// the image was computed from (see the rebase in `try_commit`).
    base: Option<Row>,
}

/// One buffered commutative delta ([`Transaction::add_delta`]): an
/// increment of an integer column that carries no read footprint and
/// takes no record lock. Materialized into a full-row image at commit,
/// under the row's shard guard, against whatever version is latest
/// *then* — which is exactly why two concurrent bumps of the same row
/// both commit instead of one aborting the other.
#[derive(Debug, Clone)]
struct PendingDelta {
    table: usize,
    id: i64,
    column: usize,
    delta: i64,
}

/// How a scan found its candidates, and the interval gap/SSI tracking uses.
struct ScanPlan {
    /// The scanned table's id.
    table: usize,
    ids: Vec<i64>,
    /// Column position the interval ranges over (primary key for full and
    /// pk scans) and the next-key-widened interval.
    gap_column: usize,
    gap: ValueInterval,
}

/// An open transaction. Single-threaded by design (`&mut self` statements);
/// share the [`Database`] handle across threads, not the transaction.
///
/// Dropping an active transaction aborts it.
pub struct Transaction {
    db: Database,
    id: TxnId,
    iso: IsolationLevel,
    /// What this transaction's profile and isolation level make each
    /// statement do, decided once at begin.
    rules: Rules,
    snapshot: CommitTs,
    pending: Vec<Pending>,
    /// Commutative increments, kept separate from `pending` because they
    /// have no pre-image: they merge against the latest committed version
    /// at install time instead of overwriting it.
    deltas: Vec<PendingDelta>,
    read_rows: FastSet<(usize, i64)>,
    read_ranges: Vec<(usize, usize, ValueInterval)>,
    savepoints: Vec<(String, usize, usize)>,
    active: bool,
    /// The database's wire with this transaction's deadline on it
    /// ([`with_deadline`](Self::with_deadline)); `None` uses the
    /// database's own. A clone shares the statement counter and breaker.
    wire: Option<Transport>,
}

impl Transaction {
    pub(crate) fn new(
        db: Database,
        id: TxnId,
        iso: IsolationLevel,
        rules: Rules,
        snapshot: CommitTs,
    ) -> Self {
        Self {
            db,
            id,
            iso,
            rules,
            snapshot,
            pending: Vec::new(),
            deltas: Vec::new(),
            read_rows: FastSet::default(),
            read_ranges: Vec::new(),
            savepoints: Vec::new(),
            active: true,
            wire: None,
        }
    }

    /// Attach an absolute deadline: once the engine clock passes it, every
    /// subsequent statement fails fast with [`DbError::DeadlineExceeded`]
    /// (unambiguous — nothing was sent), and lock waits give up once the
    /// remaining time is spent. The in-flight work is not interrupted;
    /// this bounds how much *new* work an out-of-time request can queue.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.wire = Some(self.db.inner.wire.clone().with_deadline(deadline));
        self
    }

    /// The commit timestamp this transaction's snapshot reads at. Exposed
    /// for visibility oracles: paired with
    /// [`Database::applied_watermark`], it lets a test assert that no
    /// begin ever observes a timestamp ahead of the applied frontier.
    pub fn snapshot_ts(&self) -> CommitTs {
        self.snapshot
    }

    /// The connection this transaction's statements cross.
    fn wire(&self) -> &Transport {
        self.wire.as_ref().unwrap_or(&self.db.inner.wire)
    }

    /// One statement round trip: admission (deadline, then breaker —
    /// neither pays the wire or yields, so opting in never perturbs pinned
    /// schedules), the round trip, the statement-class fault plan, then
    /// the outcome fed to the breaker. A partitioned statement never
    /// reaches the engine and surfaces as [`DbError::Partitioned`].
    fn statement(&self) -> Result<()> {
        let wire = self.wire();
        wire.admit().map_err(|refused| match refused {
            TransportError::DeadlineExceeded => DbError::DeadlineExceeded { txn: self.id },
            TransportError::CircuitOpen => DbError::CircuitOpen { txn: self.id },
        })?;
        wire.pay();
        let partitioned = self.db.statement_partitioned();
        wire.record_outcome(partitioned);
        if partitioned {
            return Err(DbError::Partitioned { txn: self.id });
        }
        Ok(())
    }

    /// How long lock waits may still run under the transaction deadline
    /// (`None` = only the engine-wide lock-wait timeout applies).
    fn wait_cap(&self) -> Option<std::time::Duration> {
        let wire = self.wire.as_ref()?;
        wire.deadline()
            .map(|d| d.instant().saturating_sub(wire.now()))
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The isolation level the transaction runs at.
    pub fn isolation(&self) -> IsolationLevel {
        self.iso
    }

    /// True while the transaction can still issue statements.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The transaction's current conflict footprint: the shards its
    /// buffered writes and certified reads map to. Reads are tracked only
    /// where the isolation level certifies them (PostgreSQL-like
    /// Serializable); a predicate scan cannot be localized — any insert
    /// anywhere could move into the range — so it widens reads to every
    /// shard. Two transactions whose footprints are
    /// [disjoint](Footprint::is_disjoint) share no commit-time lock.
    pub fn footprint(&self) -> Footprint {
        let writes = self.write_shards();
        let reads = if self.read_ranges.is_empty() {
            self.read_rows
                .iter()
                .map(|(t, id)| shard_of(*t, *id))
                .collect()
        } else {
            ShardSet::all()
        };
        Footprint { reads, writes }
    }

    /// The shards the buffered writes and deltas install into.
    fn write_shards(&self) -> ShardSet {
        self.pending
            .iter()
            .map(|p| (p.table, p.id))
            .chain(self.deltas.iter().map(|d| (d.table, d.id)))
            .map(|(t, id)| shard_of(t, id))
            .collect()
    }

    fn observe_read(&self, table: &str, row: i64, locking: bool) {
        self.db.observe(|| AccessEvent::Read {
            txn: self.id,
            table: table.to_string(),
            row,
            locking,
        });
    }

    fn observe_write(&self, table: &str, row: i64) {
        self.db.observe(|| AccessEvent::Write {
            txn: self.id,
            table: table.to_string(),
            row,
        });
    }

    fn ensure_active(&self) -> Result<()> {
        if self.active {
            Ok(())
        } else {
            Err(DbError::TxnNotActive { txn: self.id })
        }
    }

    /// The prelude of every table statement: the transaction is still
    /// open, the statement passes its round trip's gate, and the table
    /// resolves.
    fn open(&self, table: &str) -> Result<Arc<Table>> {
        self.ensure_active()?;
        self.statement()?;
        self.db.resolve_table(table).map(Arc::clone)
    }

    /// Snapshot a statement reads at: a fresh one per statement under
    /// `statement_snapshot`, else the begin snapshot.
    fn stmt_snapshot(&self) -> CommitTs {
        if self.rules.statement_snapshot {
            self.db.current_snapshot()
        } else {
            self.snapshot
        }
    }

    /// Newest pending write for a row, if any. `Some(None)` = deleted.
    fn pending_row(&self, table: usize, id: i64) -> Option<Option<&Row>> {
        self.pending
            .iter()
            .rev()
            .find(|p| p.table == table && p.id == id)
            .map(|p| p.row.as_ref())
    }

    /// Plan a scan against the latest committed index state.
    fn plan(&self, t: &Table, pred: &Predicate) -> Result<ScanPlan> {
        if let Some((col_name, interval)) = pred.index_column() {
            let col = t.schema.column_index(col_name)?;
            if col == t.schema.primary_key {
                let (ids, (prev, next)) = t.pk_scan(&interval);
                return Ok(ScanPlan {
                    table: t.id,
                    ids,
                    gap_column: col,
                    gap: interval.widen_to_gap(prev, next),
                });
            }
            if t.index_on(col).is_some() {
                let (ids, (prev, next)) = t.index_scan(col, &interval)?;
                return Ok(ScanPlan {
                    table: t.id,
                    ids,
                    gap_column: col,
                    gap: interval.widen_to_gap(prev, next),
                });
            }
        }
        // Full scan: ranges over the whole primary-key space.
        Ok(ScanPlan {
            table: t.id,
            ids: t.all_ids(),
            gap_column: t.schema.primary_key,
            gap: ValueInterval::all(),
        })
    }

    /// Latest committed row, from the row's shard.
    fn latest(&self, tid: usize, id: i64) -> Option<Row> {
        self.db
            .with_chain(tid, id, |c| c.and_then(|c| c.latest()).cloned())
    }

    /// Latest committed row plus its commit timestamp (for first-updater
    /// checks); `None` when the row has no committed history at all.
    fn latest_with_ts(&self, tid: usize, id: i64) -> Option<(Option<Row>, CommitTs)> {
        self.db
            .with_chain(tid, id, |c| c.map(|c| (c.latest().cloned(), c.latest_ts())))
    }

    /// Row visible at `snap`, from the row's shard.
    fn visible(&self, tid: usize, id: i64, snap: CommitTs) -> Option<Row> {
        self.db
            .with_chain(tid, id, |c| c.and_then(|c| c.visible(snap)).cloned())
    }

    /// `SELECT * FROM table WHERE pk = id` (plain read).
    ///
    /// * Under `locking_reads` (MySQL-like Serializable): shared-locking
    ///   read of the latest committed version (InnoDB turns plain reads
    ///   into `LOCK IN SHARE MODE` — the ingredient of the §3.3.1 RMW
    ///   deadlock).
    /// * Otherwise: non-locking read at the statement's snapshot, entered
    ///   into the SSI read set under `certify`.
    pub fn get(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
        let result = self.get_inner(table, id)?;
        if result.is_some() {
            self.observe_read(table, id, false);
        }
        Ok(result)
    }

    fn get_inner(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
        let t = self.open(table)?;
        if let Some(p) = self.pending_row(t.id, id) {
            return Ok(p.cloned());
        }
        if self.rules.locking_reads {
            self.db
                .locks()
                .lock_record(self.id, t.id, id, LockMode::Shared, self.wait_cap())?;
            return Ok(self.latest(t.id, id));
        }
        if self.rules.certify {
            self.read_rows.insert((t.id, id));
        }
        let snap = self.stmt_snapshot();
        Ok(self.visible(t.id, id, snap))
    }

    /// `SELECT * FROM table WHERE pred` (plain scan). Same matrix as
    /// [`get`](Self::get); under `locking_reads` it also takes a gap
    /// (next-key) lock over the scanned index interval, and under
    /// `certify` it enters the interval and every row it examined into
    /// the SSI read set — at the gap granularity §3.3.2 describes.
    pub fn scan(&mut self, table: &str, pred: &Predicate) -> Result<Vec<(i64, Row)>> {
        let t = self.open(table)?;
        let bound = pred.bind(&t.schema)?;
        let (plan, snap) = self.lock_plan(&t, pred, None)?;
        let slots = self.read_slots(&plan, &bound, snap, None, true)?;
        Ok(self.read_result(&t, &bound, slots, false))
    }

    /// `SELECT … FROM table WHERE pred` folded instead of returned: the
    /// statement [`scan`](Self::scan) runs — one round trip, the same
    /// record, gap and SSI-range locking, the same read set, the same
    /// own-writes overlay and the same observer events (one per match, in
    /// ascending id order, only when an observer is attached) — but each
    /// match is lent to `f(acc, id, &row)` instead of copied into a result,
    /// so a reader that only counts, tests or sums its matches takes no
    /// reference count per row and builds no vector.
    ///
    /// `f` runs under a row-state shard mutex: it must not call into the
    /// database. Matches arrive in no specified order. A row this
    /// transaction wrote is judged on its newest pending image, and its own
    /// matching inserts are folded in too.
    pub fn scan_fold<A>(
        &mut self,
        table: &str,
        pred: &Predicate,
        init: A,
        mut f: impl FnMut(A, i64, &Row) -> A,
    ) -> Result<A> {
        let t = self.open(table)?;
        let bound = pred.bind(&t.schema)?;
        let (plan, snap) = self.lock_plan(&t, pred, None)?;
        // Sorted ids of the rows this transaction wrote on the table: their
        // committed versions are skipped, their pending images folded below.
        let own: Vec<i64> = self.own_writes(t.id).into_keys().collect();
        let observer = self.db.observer();
        // Match ids for the observer, collected only when there is one.
        let mut matched = Vec::new();
        let mut acc = Some(init);
        self.read_candidates(&plan, &bound, snap, None, true, |i, row| {
            let id = plan.ids[i];
            if own.binary_search(&id).is_err() {
                acc = acc.take().map(|acc| f(acc, id, row));
                if observer.is_some() {
                    matched.push(id);
                }
            }
        })?;
        let mut acc = acc.expect("the fold holds its accumulator between matches");
        for (id, row) in self.own_writes(t.id) {
            if let Some(row) = row.filter(|row| bound.matches(row)) {
                acc = f(acc, id, row);
                if observer.is_some() {
                    matched.push(id);
                }
            }
        }
        if let Some(observer) = observer {
            matched.sort_unstable();
            self.report_reads(&*observer, &t, matched, false);
        }
        Ok(acc)
    }

    /// The front half of the three predicate statements: plan against the
    /// latest committed index state, lock every candidate in `mode` (a
    /// plain read passes `None`, which locks shared only under
    /// `locking_reads`), take the next-key gap lock over the scanned
    /// interval when locking under `gap_locks`, and enter that interval
    /// into the SSI read set under `certify`. Returns the plan and the
    /// snapshot its candidates are read at — `None`, the latest version,
    /// when they are locked.
    fn lock_plan(
        &mut self,
        t: &Table,
        pred: &Predicate,
        mode: Option<LockMode>,
    ) -> Result<(ScanPlan, Option<CommitTs>)> {
        let mode = mode.or(self.rules.locking_reads.then_some(LockMode::Shared));
        let gap_locked = mode.is_some() && self.rules.gap_locks;
        let mut changes = if gap_locked { t.index_changes() } else { 0 };
        let mut plan = self.plan(t, pred)?;
        while let Some(mode) = mode {
            for id in &plan.ids {
                self.db
                    .locks()
                    .lock_record(self.id, t.id, *id, mode, self.wait_cap())?;
            }
            if !gap_locked {
                break;
            }
            self.db.locks().lock_gap(
                self.id,
                t.id,
                plan.gap_column,
                plan.gap.clone(),
                self.wait_cap(),
            )?;
            // Once the gap lock is held no insert can enter the gap, but one
            // that committed after the plan was made (the lock may have
            // waited it out: a commit applies its index before it releases
            // its locks) is a candidate the plan never saw: plan again until
            // the gap lock covers a plan that is still current.
            let now = t.index_changes();
            if now == changes {
                break;
            }
            changes = now;
            let again = self.plan(t, pred)?;
            if again.ids == plan.ids {
                break;
            }
            plan = again;
        }
        if self.rules.certify {
            self.read_ranges
                .push((t.id, plan.gap_column, plan.gap.clone()));
        }
        let snap = mode.is_none().then(|| self.stmt_snapshot());
        Ok((plan, snap))
    }

    /// The one candidate-reading loop behind every predicate statement:
    /// hands `visit` each plan candidate's committed row — the version
    /// visible at `snap`, or the latest when `snap` is `None` — that
    /// satisfies `pred`, with the candidate's plan position. The row is
    /// the stored version itself, lent under its shard's mutex (read one
    /// shard at a time), so `visit` runs in shard order, not plan order,
    /// and must not call into the database.
    ///
    /// `first_updater` is the reason a locking statement fails with under
    /// the `first_updater` rule when a matching row was committed after
    /// the transaction snapshot and is not one of its own writes; such a
    /// row is not visited, and plain reads pass `None`. `track_reads`
    /// enters every candidate the statement examined — matching or not —
    /// into the SSI read set under `certify`: a later committer that
    /// changes a rejected row without moving an indexed key can still
    /// change what the statement matched.
    fn read_candidates(
        &mut self,
        plan: &ScanPlan,
        pred: &BoundPredicate<'_>,
        snap: Option<CommitTs>,
        first_updater: Option<&str>,
        track_reads: bool,
        mut visit: impl FnMut(usize, &Row),
    ) -> Result<()> {
        let tid = plan.table;
        let first_updater = first_updater.filter(|_| self.rules.first_updater);
        // Plan position of the first match that lost to a newer committer.
        let mut lost_at = usize::MAX;
        self.db.for_each_chain(tid, &plan.ids, |i, chain| {
            let version = match snap {
                Some(snap) => chain.visible(snap),
                None => chain.latest(),
            };
            let Some(row) = version.filter(|row| pred.matches(row)) else {
                return;
            };
            if first_updater.is_some()
                && chain.latest_ts() > self.snapshot
                && self.pending_row(tid, plan.ids[i]).is_none()
            {
                lost_at = lost_at.min(i);
            } else {
                visit(i, row);
            }
        });
        // The statement stops at that candidate: only the candidates before
        // it (in plan order) were examined.
        if track_reads && self.rules.certify {
            let examined = plan.ids.iter().take(lost_at);
            self.read_rows.extend(examined.map(|id| (tid, *id)));
        }
        match first_updater {
            Some(reason) if lost_at != usize::MAX => Err(self.serialization_failure(reason)),
            _ => Ok(()),
        }
    }

    /// [`read_candidates`](Self::read_candidates) into one `(id, row)` slot
    /// per plan candidate, in plan order: the candidate's committed match
    /// (a count bump each), else `None`. Each row is written straight into
    /// its slot, so nothing is sorted back into plan order.
    fn read_slots(
        &mut self,
        plan: &ScanPlan,
        pred: &BoundPredicate<'_>,
        snap: Option<CommitTs>,
        first_updater: Option<&str>,
        track_reads: bool,
    ) -> Result<Vec<(i64, Option<Row>)>> {
        let mut slots: Vec<(i64, Option<Row>)> = plan.ids.iter().map(|id| (*id, None)).collect();
        self.read_candidates(plan, pred, snap, first_updater, track_reads, |i, row| {
            slots[i].1 = Some(row.clone());
        })?;
        Ok(slots)
    }

    /// What the statement sees of its matches: the committed rows
    /// [`read_slots`](Self::read_slots) left in their plan
    /// slots, with this transaction's own pending writes on the table on
    /// top — a candidate it already wrote is judged on its newest pending
    /// image instead, and own inserts the index cannot know about yet are
    /// appended in statement order.
    fn with_own_writes(
        &self,
        tid: usize,
        pred: &BoundPredicate<'_>,
        slots: Vec<(i64, Option<Row>)>,
    ) -> Vec<(i64, Row)> {
        if !self.pending.iter().any(|p| p.table == tid) {
            // Collected in place: the slot buffer becomes the result.
            return slots
                .into_iter()
                .filter_map(|(id, row)| Some((id, row?)))
                .collect();
        }
        let mut own = self.own_writes(tid);
        let own_match = |row: Option<&Row>| row.filter(|row| pred.matches(row)).cloned();
        let mut rows = Vec::new();
        for (id, committed) in slots {
            let seen = match own.remove(&id) {
                Some(written) => own_match(written),
                None => committed,
            };
            rows.extend(seen.map(|row| (id, row)));
        }
        for p in &self.pending {
            if p.table == tid {
                let seen = own.remove(&p.id).and_then(own_match);
                rows.extend(seen.map(|row| (p.id, row)));
            }
        }
        rows
    }

    /// This transaction's newest pending image of each row it wrote on
    /// table `tid`, by id (`None` = deleted): later writes replace earlier
    /// ones.
    fn own_writes(&self, tid: usize) -> BTreeMap<i64, Option<&Row>> {
        self.pending
            .iter()
            .filter(|p| p.table == tid)
            .map(|p| (p.id, p.row.as_ref()))
            .collect()
    }

    /// Finish a reading statement: own writes overlaid, ascending id
    /// order, every returned row reported to the statement observers.
    fn read_result(
        &self,
        t: &Table,
        pred: &BoundPredicate<'_>,
        slots: Vec<(i64, Option<Row>)>,
        locking: bool,
    ) -> Vec<(i64, Row)> {
        let mut rows = self.with_own_writes(t.id, pred, slots);
        // Already sorted (one linear pass) unless the plan walked several
        // keys of a secondary index or own inserts were appended.
        rows.sort_unstable_by_key(|(id, _)| *id);
        // One look for an observer per statement, not one per row.
        if let Some(observer) = self.db.observer() {
            self.report_reads(&*observer, t, rows.iter().map(|(id, _)| *id), locking);
        }
        rows
    }

    /// Report one read of each of `ids`, in the order given, to `observer`.
    fn report_reads(
        &self,
        observer: &dyn StatementObserver,
        t: &Table,
        ids: impl IntoIterator<Item = i64>,
        locking: bool,
    ) {
        for row in ids {
            observer.on_event(&AccessEvent::Read {
                txn: self.id,
                table: t.schema.table.clone(),
                row,
                locking,
            });
        }
    }

    /// Point read at Read Committed regardless of the transaction's own
    /// isolation level — the "per-operation isolation" hint of Table 7a
    /// (SQL Server's `READCOMMITTED` table hint inside a snapshot
    /// transaction). Reads the latest committed version without locking
    /// and without entering the SSI read set: the caller explicitly opts
    /// this access out of coordination (§3.1.1's partial coordination).
    pub fn get_read_committed(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
        let t = self.open(table)?;
        if let Some(p) = self.pending_row(t.id, id) {
            return Ok(p.cloned());
        }
        let result = self.latest(t.id, id);
        if result.is_some() {
            self.observe_read(table, id, false);
        }
        Ok(result)
    }

    /// `SELECT … FOR UPDATE`: exclusive-locking read of the latest
    /// committed versions.
    ///
    /// * Under `gap_locks` (MySQL-like Repeatable Read and above): also
    ///   takes the next-key gap lock over the scanned interval.
    /// * Under `first_updater` (PostgreSQL-like Repeatable Read and
    ///   above): fails with a serialization error when a matched row was
    ///   updated since the transaction snapshot.
    pub fn select_for_update(&mut self, table: &str, pred: &Predicate) -> Result<Vec<(i64, Row)>> {
        let t = self.open(table)?;
        let bound = pred.bind(&t.schema)?;
        let (plan, snap) = self.lock_plan(&t, pred, Some(LockMode::Exclusive))?;
        let reason = Some("row updated since snapshot");
        let slots = self.read_slots(&plan, &bound, snap, reason, true)?;
        Ok(self.read_result(&t, &bound, slots, true))
    }

    /// Point-read `FOR UPDATE` by primary key.
    pub fn get_for_update(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
        let t = self.open(table)?;
        let result = self.lock_latest(t.id, id, "row updated since snapshot", true)?;
        if result.is_some() {
            self.observe_read(table, id, true);
        }
        Ok(result)
    }

    /// The base of the three point writes (`get_for_update`, `update`,
    /// `delete`): an exclusive record lock, then this transaction's newest
    /// image of the row, else the latest committed version — failing with
    /// `reason` under `first_updater` when that version is live and was
    /// committed after the snapshot. `read` enters a committed row (or its
    /// tombstone) into the SSI read set under `certify`. `None` means
    /// there is no such row.
    fn lock_latest(
        &mut self,
        tid: usize,
        id: i64,
        reason: &str,
        read: bool,
    ) -> Result<Option<Row>> {
        self.db
            .locks()
            .lock_record(self.id, tid, id, LockMode::Exclusive, self.wait_cap())?;
        if let Some(p) = self.pending_row(tid, id) {
            return Ok(p.cloned());
        }
        let Some((latest, latest_ts)) = self.latest_with_ts(tid, id) else {
            return Ok(None);
        };
        if self.rules.first_updater && latest_ts > self.snapshot && latest.is_some() {
            return Err(self.serialization_failure(reason));
        }
        if read && self.rules.certify {
            self.read_rows.insert((tid, id));
        }
        Ok(latest)
    }

    fn serialization_failure(&self, reason: &str) -> DbError {
        self.db
            .inner
            .serialization_failures
            .fetch_add(1, Ordering::Relaxed);
        DbError::SerializationFailure {
            txn: self.id,
            reason: reason.to_string(),
        }
    }

    /// `INSERT INTO table (…) VALUES (…)`. Auto-assigns the primary key
    /// when omitted or NULL; returns the key.
    ///
    /// Under `insert_intention` (the MySQL-like profile): the insert waits
    /// on other transactions' gap locks covering any of the new row's
    /// indexed keys (the blocking side of §3.3.2's false conflicts).
    pub fn insert(&mut self, table: &str, pairs: &[(&str, Value)]) -> Result<i64> {
        let t = self.open(table)?;
        let tid = t.id;
        let pk_name = t.schema.columns[t.schema.primary_key].name.as_str();

        // Assign the primary key.
        let explicit_pk = pairs
            .iter()
            .find(|(n, _)| *n == pk_name)
            .map(|(_, v)| v)
            .filter(|v| !v.is_null());
        let id = match explicit_pk {
            Some(Value::Int(v)) => *v,
            Some(other) => {
                return Err(DbError::TypeMismatch {
                    table: table.to_string(),
                    column: pk_name.to_string(),
                    expected: crate::value::ColumnType::Int,
                    found: other.column_type(),
                })
            }
            None => t.alloc_id(),
        };
        let mut full_pairs: Vec<(&str, Value)> = pairs
            .iter()
            .filter(|(n, _)| *n != pk_name)
            .map(|(n, v)| (*n, v.clone()))
            .collect();
        full_pairs.push((pk_name, Value::Int(id)));
        let row = row_from_pairs(&t.schema, &full_pairs)?;

        if self.rules.insert_intention {
            self.db.locks().check_insert(
                self.id,
                tid,
                t.schema.primary_key,
                &Value::Int(id),
                self.wait_cap(),
            )?;
            for (col, _) in &t.schema.indexes {
                self.db
                    .locks()
                    .check_insert(self.id, tid, *col, row.at(*col), self.wait_cap())?;
            }
        }

        // Lock the record and any unique keys, then check uniqueness.
        self.db
            .locks()
            .lock_record(self.id, tid, id, LockMode::Exclusive, self.wait_cap())?;
        for (col, _) in t.schema.indexes.iter().filter(|(_, unique)| *unique) {
            let key = row.at(*col).clone();
            if !key.is_null() {
                self.db
                    .locks()
                    .lock_unique_key(self.id, tid, *col, key, self.wait_cap())?;
            }
        }
        t.check_unique(&row, None)?;
        if self.latest(tid, id).is_some() || matches!(self.pending_row(tid, id), Some(Some(_))) {
            return Err(DbError::UniqueViolation {
                table: table.to_string(),
                column: pk_name.to_string(),
                value: id.to_string(),
            });
        }

        self.pending.push(Pending {
            table: tid,
            id,
            row: Some(row),
            base: None,
        });
        self.observe_write(table, id);
        Ok(id)
    }

    /// `UPDATE table SET … WHERE pk = id`.
    ///
    /// The update is applied to the latest committed version (plus this
    /// transaction's own writes) — *not* the snapshot. An application that
    /// computed its assignment from a stale snapshot read therefore loses
    /// updates, exactly the §3.1.1 footnote's MySQL Repeatable Read
    /// behaviour. Under `first_updater` (PostgreSQL-like Repeatable Read
    /// and above) it instead aborts with a serialization failure when the
    /// row changed since the snapshot.
    pub fn update(&mut self, table: &str, id: i64, pairs: &[(&str, Value)]) -> Result<()> {
        let t = self.open(table)?;
        let Some(base) = self.lock_latest(t.id, id, "concurrent update", false)? else {
            return Err(DbError::NoSuchRow {
                table: table.to_string(),
                id,
            });
        };
        self.buffer_update(&t, id, base, pairs)
    }

    /// The write half of `update` / `update_where`: apply the assignments
    /// to `row` (the caller's own copy of the base image) in place,
    /// validate, lock and re-check the unique keys they change, and buffer
    /// the result.
    fn buffer_update(
        &mut self,
        t: &Table,
        id: i64,
        mut row: Row,
        pairs: &[(&str, Value)],
    ) -> Result<()> {
        // Only tables with a unique secondary index need the pre-image for
        // the changed-key check; everywhere else the base row is mutated
        // in place without another copy.
        let pre_image = t
            .schema
            .indexes
            .iter()
            .any(|(_, unique)| *unique)
            .then(|| row.clone());
        let base = self.pending_row(t.id, id).is_none().then(|| row.clone());
        let values = row.values_mut();
        for (col, value) in pairs {
            values[t.schema.column_index(col)?] = value.clone();
        }
        t.schema.validate_row(&row)?;
        if let Some(base) = &pre_image {
            self.lock_and_check_unique_changes(t, id, base, &row)?;
        }
        self.pending.push(Pending {
            table: t.id,
            id,
            row: Some(row),
            base,
        });
        self.observe_write(&t.schema.table, id);
        Ok(())
    }

    /// `UPDATE table SET col = col + delta WHERE pk = id`, executed as a
    /// *commutative delta*: no record lock, no read footprint, no
    /// first-updater check. The increment is merged against whatever row
    /// version is latest at install time, under the row's shard guard —
    /// so two concurrent bumps of the same row both commit (neither
    /// aborts, neither is lost), which is the coordination-free execution
    /// invariant-confluent operations admit.
    ///
    /// Restrictions keep the operation genuinely confluent: the column
    /// must be a non-primary-key integer, and the row must exist at
    /// commit time (a missing row aborts the commit with
    /// [`DbError::NoSuchRow`]). A concurrent plain update of the same row
    /// — of another column or of this one — does not overwrite the
    /// increment: it holds the row's record lock from its statement to its
    /// commit, and merges every delta installed in between into its image
    /// at install. A plain write of the column still bypasses an escrow
    /// ledger (see [`crate::escrow`]).
    pub fn add_delta(&mut self, table: &str, id: i64, column: &str, delta: i64) -> Result<()> {
        let t = self.open(table)?;
        let col = t.schema.column_index(column)?;
        assert_ne!(
            col, t.schema.primary_key,
            "add_delta on the primary key would rekey the row, not merge it"
        );
        if t.schema.columns[col].ty != ColumnType::Int {
            return Err(DbError::TypeMismatch {
                table: table.to_string(),
                column: column.to_string(),
                expected: ColumnType::Int,
                found: Some(t.schema.columns[col].ty),
            });
        }
        self.deltas.push(PendingDelta {
            table: t.id,
            id,
            column: col,
            delta,
        });
        self.observe_write(table, id);
        Ok(())
    }

    /// Lock and re-check unique keys whose value this write actually
    /// changes. Unchanged keys need no lock: the row's record lock already
    /// serializes writers, and taking the key lock anyway would needlessly
    /// serialize unrelated updates of rows sharing the value.
    fn lock_and_check_unique_changes(
        &mut self,
        t: &Table,
        id: i64,
        base: &Row,
        new_row: &Row,
    ) -> Result<()> {
        for (col, _) in t.schema.indexes.iter().filter(|(_, unique)| *unique) {
            let key = new_row.at(*col);
            if key.is_null() || base.at(*col) == key {
                continue;
            }
            self.db
                .locks()
                .lock_unique_key(self.id, t.id, *col, key.clone(), self.wait_cap())?;
            t.check_unique(new_row, Some(id))?;
        }
        Ok(())
    }

    /// `UPDATE table SET … WHERE pred`, returning the number of affected
    /// rows. The predicate is re-evaluated against the latest committed
    /// version after the row lock is acquired (PostgreSQL's EvalPlanQual
    /// behaviour under Read Committed) — this is what makes the
    /// `UPDATE … WHERE id = ? AND ver = ?` validate-and-commit idiom of
    /// Figure 1c atomic: a concurrent bump of `ver` yields 0 affected rows.
    /// Locks, gap-locks and certifies its range as
    /// [`select_for_update`](Self::select_for_update) does.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: &Predicate,
        pairs: &[(&str, Value)],
    ) -> Result<usize> {
        let t = self.open(table)?;
        let bound = pred.bind(&t.schema)?;
        let (plan, snap) = self.lock_plan(&t, pred, Some(LockMode::Exclusive))?;
        // Matches against latest committed + own overlay, in plan order
        // (the order the unique-key locks below are taken in).
        let reason = Some("concurrent update");
        let slots = self.read_slots(&plan, &bound, snap, reason, false)?;
        let targets = self.with_own_writes(t.id, &bound, slots);

        let count = targets.len();
        for (id, base) in targets {
            self.buffer_update(&t, id, base, pairs)?;
        }
        Ok(count)
    }

    /// `DELETE FROM table WHERE pk = id`. Returns whether a row existed.
    pub fn delete(&mut self, table: &str, id: i64) -> Result<bool> {
        let t = self.open(table)?;
        let existed = self
            .lock_latest(t.id, id, "concurrent update", false)?
            .is_some();
        if existed {
            self.pending.push(Pending {
                table: t.id,
                id,
                row: None,
                base: None,
            });
            self.observe_write(table, id);
        }
        Ok(existed)
    }

    /// Explicit table lock (the coordination hint of §6 / Table 7a).
    pub fn lock_table(&mut self, table: &str, mode: LockMode) -> Result<()> {
        let t = self.open(table)?;
        self.db
            .locks()
            .lock_table(self.id, t.id, mode, self.wait_cap())
    }

    /// Transaction-scoped advisory lock (released at commit/abort), like
    /// PostgreSQL's `pg_advisory_xact_lock`.
    pub fn advisory_lock(&mut self, key: i64) -> Result<()> {
        self.ensure_active()?;
        self.statement()?;
        self.db.locks().lock_advisory(self.id, key, self.wait_cap())
    }

    /// `SAVEPOINT name`.
    pub fn savepoint(&mut self, name: &str) {
        self.savepoints
            .push((name.to_string(), self.pending.len(), self.deltas.len()));
    }

    /// `ROLLBACK TO SAVEPOINT name`: discards writes made after the
    /// savepoint. Locks acquired since are retained, as in real engines.
    pub fn rollback_to(&mut self, name: &str) -> Result<()> {
        let Some(pos) = self.savepoints.iter().rposition(|(n, _, _)| n == name) else {
            return Err(DbError::NoSuchSavepoint {
                name: name.to_string(),
            });
        };
        let (_, mark, delta_mark) = &self.savepoints[pos];
        let (mark, delta_mark) = (*mark, *delta_mark);
        self.pending.truncate(mark);
        self.deltas.truncate(delta_mark);
        self.savepoints.truncate(pos + 1);
        Ok(())
    }

    /// Commit. Consumes the transaction; on a serialization failure the
    /// transaction is rolled back and the error returned.
    pub fn commit(mut self) -> Result<()> {
        self.commit_inner()
    }

    fn commit_inner(&mut self) -> Result<()> {
        // The window between a transaction's last statement and its commit
        // is where §3.3/§3.4 races live; make it a preemption point.
        adhoc_sim::sched::yield_point(adhoc_sim::sched::SchedPoint::DbCommit);
        self.ensure_active()?;
        let fault = self.db.arm_commit_fault();
        // The commit request never takes effect: the engine rolls the
        // transaction back and the client sees a dropped connection.
        if fault == Some(FaultKind::CommitFailed) {
            self.finish(false);
            self.wire().record_outcome(true);
            return Err(DbError::ConnectionLost { txn: self.id });
        }
        match self.try_commit(fault) {
            Ok((installed, checkpoint_due)) => {
                self.finish(true);
                self.retire(installed);
                // Every other commit fault is crash-shaped: the commit
                // applies server-side (its WAL record meeting the fate
                // `try_commit` gives the kind), the process dies, and the
                // client sees a dropped connection instead of an
                // acknowledgement — the §3.4.2 ambiguity. A dead process
                // writes no due checkpoint.
                if fault.is_some() {
                    self.wire().record_outcome(true);
                    return Err(DbError::ConnectionLost { txn: self.id });
                }
                // The checkpoint this commit's append found due is written
                // whole, holding no lock and no registration.
                if checkpoint_due {
                    self.db.write_due_checkpoint();
                }
                Ok(())
            }
            Err(e) => {
                self.finish(false);
                Err(e)
            }
        }
    }

    /// Certify a PostgreSQL-like Serializable transaction against the
    /// locked shards' commit logs: abort when any transaction that
    /// committed after our snapshot wrote a row we read or touched an
    /// indexed key inside a range we scanned (rw-antidependency; backward
    /// validation). Each log is timestamp-ordered, so the walk stops at the
    /// snapshot; an entry shared by several locked shards is simply checked
    /// more than once, harmlessly.
    fn certify_locked(
        &self,
        guards: &[(usize, MutexGuard<'_, Shard>)],
        reads: &FastSet<(usize, i64)>,
    ) -> Result<()> {
        for (_, shard) in guards {
            for committed in shard.log.iter().rev() {
                if committed.commit_ts <= self.snapshot {
                    break;
                }
                if committed.rows.iter().any(|r| reads.contains(r)) {
                    return Err(DbError::SerializationFailure {
                        txn: self.id,
                        reason: "rw-antidependency on a read row".into(),
                    });
                }
                for (table, column, key) in &committed.keys {
                    if self
                        .read_ranges
                        .iter()
                        .any(|(t, c, iv)| t == table && c == column && iv.contains(key))
                    {
                        return Err(DbError::SerializationFailure {
                            txn: self.id,
                            reason: "rw-antidependency on a scanned range".into(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The sharded commit protocol: lock the footprint's shards ascending,
    /// validate, install, release, then retire the commit timestamp into
    /// the snapshot watermark. Returns that timestamp when the commit
    /// installed versions, with `pending` holding the rows whose chains
    /// keep an older version, and whether its WAL append found a
    /// checkpoint due. `fault` is the crash-shaped commit fault armed for
    /// it, if any, which decides how its WAL record reaches (or fails to
    /// reach) the durable medium.
    fn try_commit(&mut self, fault: Option<FaultKind>) -> Result<(Option<CommitTs>, bool)> {
        let writes = self.write_shards();
        let mut lock_set = writes;
        let mut cert_reads: FastSet<(usize, i64)> = FastSet::default();
        if self.rules.certify {
            // Rows this transaction itself wrote are excluded from read
            // certification: any conflicting commit on them necessarily
            // happened before our update statement, which already failed
            // with a first-updater serialization error — re-checking here
            // would only produce false aborts.
            let written: FastSet<(usize, i64)> =
                self.pending.iter().map(|p| (p.table, p.id)).collect();
            cert_reads = self
                .read_rows
                .iter()
                .filter(|r| !written.contains(r))
                .copied()
                .collect();
            if self.read_ranges.is_empty() {
                // Read-shard locks are held through certification so a
                // racing writer of a read row either installs before our
                // walk (and is seen) or serializes after our whole commit.
                for (t, id) in &cert_reads {
                    lock_set.insert(shard_of(*t, *id));
                }
            } else {
                // A scanned range can conflict with an insert anywhere.
                lock_set = ShardSet::all();
            }
        }
        if lock_set.is_empty() {
            // Nothing to validate or install; just check the server still
            // knows us (it forgets everyone on a simulated crash).
            if !self.db.is_active(self.id) {
                return Err(DbError::TxnNotActive { txn: self.id });
            }
            return Ok((None, false));
        }

        let mut guards = self.db.lock_shards(lock_set);
        if !self.db.is_active(self.id) {
            // The server forgot us (simulated crash): connection lost.
            return Err(DbError::TxnNotActive { txn: self.id });
        }
        if self.rules.certify {
            if let Err(e) = self.certify_locked(&guards, &cert_reads) {
                self.db
                    .inner
                    .serialization_failures
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        // Materialize commutative deltas into full-row images *now*,
        // under the shard guards, against the version that is latest at
        // this instant. Deltas passed no certification and took no record
        // lock, yet no concurrent increment can be lost: all writers of
        // the row serialize on its shard mutex, so each commit merges on
        // top of the other's installed version. This happens before the
        // WAL is streamed so the log carries ordinary post-images and
        // recovery stays oblivious to deltas. A positive delta of an
        // escrow-managed cell credits its ledger entry once installed.
        let mut credits = Vec::new();
        if !self.deltas.is_empty() {
            for d in std::mem::take(&mut self.deltas) {
                if d.delta > 0 {
                    if let Some(entry) = self.db.escrow_credit_target(d.table, d.id, d.column) {
                        credits.push((entry, d.delta));
                    }
                }
                // A delta on a row this transaction already wrote folds
                // into its own buffered image.
                if let Some(p) = self
                    .pending
                    .iter_mut()
                    .rev()
                    .find(|p| p.table == d.table && p.id == d.id)
                {
                    match &mut p.row {
                        Some(row) => {
                            let v = row.values[d.column].as_int();
                            row.values_mut()[d.column] = Value::Int(v + d.delta);
                            continue;
                        }
                        // Own deletion followed by a delta: the row is gone.
                        None => {
                            let t = self.db.table_by_id(d.table);
                            return Err(DbError::NoSuchRow {
                                table: t.schema.table.clone(),
                                id: d.id,
                            });
                        }
                    }
                }
                let gpos = guards
                    .binary_search_by_key(&shard_of(d.table, d.id), |(idx, _)| *idx)
                    .expect("delta shard is locked");
                let base = guards[gpos]
                    .1
                    .rows
                    .get(&(d.table, d.id))
                    .and_then(|c| c.latest())
                    .cloned();
                let Some(mut row) = base else {
                    let t = self.db.table_by_id(d.table);
                    return Err(DbError::NoSuchRow {
                        table: t.schema.table.clone(),
                        id: d.id,
                    });
                };
                let v = row.values[d.column].as_int();
                row.values_mut()[d.column] = Value::Int(v + d.delta);
                self.pending.push(Pending {
                    table: d.table,
                    id: d.id,
                    row: Some(row),
                    base: None,
                });
            }
        }
        // An update's image was computed from the version its statement
        // locked, and the record lock keeps every other plain writer out
        // until now — but not deltas, which take none. Merge the
        // increments of any delta installed since into this
        // transaction's images of the row, rather than overwrite them.
        for i in 0..self.pending.len() {
            let Some(base) = self.pending[i].base.take() else {
                continue;
            };
            let key = (self.pending[i].table, self.pending[i].id);
            let gpos = guards
                .binary_search_by_key(&shard_of(key.0, key.1), |(idx, _)| *idx)
                .expect("write shard is locked");
            let Some(latest) = guards[gpos].1.rows.get(&key).and_then(|c| c.latest()) else {
                continue;
            };
            if Arc::ptr_eq(&latest.values, &base.values) {
                continue;
            }
            let merged: Vec<(usize, i64)> = (latest.values.iter().zip(base.values.iter()))
                .enumerate()
                .filter_map(|(col, pair)| match pair {
                    (Value::Int(now), Value::Int(then)) if now != then => Some((col, now - then)),
                    _ => None,
                })
                .collect();
            for p in &mut self.pending[i..] {
                if let (true, Some(row)) = ((p.table, p.id) == key, &mut p.row) {
                    for &(col, delta) in &merged {
                        let v = row.values[col].as_int();
                        row.values_mut()[col] = Value::Int(v + delta);
                    }
                }
            }
        }
        if self.pending.is_empty() {
            return Ok((None, false));
        }

        // Drawing the timestamp *under* the write-shard locks keeps every
        // shard log timestamp-ordered (all writers of a shard serialize on
        // its mutex).
        let commit_ts = self.db.draw_commit_ts();
        // Until the first PG-Serializable transaction begins, nothing ever
        // reads the commit logs — skip building and appending the entry.
        let log_enabled = self.db.ssi_logging();
        let mut rows = if log_enabled {
            Vec::with_capacity(self.pending.len())
        } else {
            Vec::new()
        };
        let mut keys = Vec::new();
        // Stream the write-ahead record into the log *before* the rows are
        // moved into their chains, while the shard guards are already
        // held: writers of a row serialize on its shard mutex, so each
        // row's log order matches its version-chain order exactly, and the
        // streamed encoder needs no intermediate record, cloned table
        // name, or copied row. Under `GroupCommit` the frame's durability
        // is settled after the guards drop (see below).
        let wal = self.db.wal();
        let mut group_lsn = None;
        let mut checkpoint_due = false;
        if let Some(wal) = wal {
            let db = &self.db;
            let pending = &self.pending;
            let encode = move |enc: &mut WalEncoder<'_>| {
                for p in pending {
                    let t = db.table_by_id(p.table);
                    enc.write(&t.schema.table, p.id, p.row.as_ref().map(|r| &r.values[..]));
                }
            };
            match fault {
                // Append and sync per the configured policy; a checkpoint
                // that truncates makes the record durable before the wait.
                None | Some(FaultKind::TruncateBeforeWait) => {
                    let append = wal.append_streamed(commit_ts, encode);
                    // Only group commit leaves an append undurable.
                    if !append.durable {
                        group_lsn = Some(append.end);
                    }
                    checkpoint_due = append.checkpoint_due;
                }
                // The process dies after the record enters the page cache
                // but before the fsync: recovery rolls the commit back.
                Some(FaultKind::CrashBeforeDurable) => {
                    wal.append_streamed_no_sync(commit_ts, encode);
                }
                // The process dies mid-flush: a torn (partial) frame
                // reaches the durable medium for recovery to truncate.
                Some(FaultKind::TornWrite) => {
                    wal.append_streamed_no_sync(commit_ts, encode);
                    wal.sync_torn();
                }
                // The record is fsynced (the commit *is* durable) before
                // the process dies: after the commit, or in the checkpoint
                // that follows it.
                Some(_) => {
                    wal.append_streamed_no_sync(commit_ts, encode);
                    wal.sync();
                }
            }
        }
        // Each chain written is pruned down to what a live snapshot can
        // still read (see `crate::db`'s "Version reclamation"). This
        // transaction is still registered, so the horizon is at most its
        // own snapshot. The rows whose chains keep an older version stay
        // in `pending`, for `retire` to revisit.
        let horizon = self.db.install_horizon(writes, &mut guards);
        self.pending.retain_mut(|p| {
            let t = self.db.table_by_id(p.table);
            let gpos = guards
                .binary_search_by_key(&shard_of(p.table, p.id), |(idx, _)| *idx)
                .expect("write shard is locked");
            let shard = &mut *guards[gpos].1;
            // A row's first commit builds its chain around that version.
            let slot = shard.rows.entry((p.table, p.id));
            let old = match &slot {
                Entry::Occupied(chain) => chain.get().latest(),
                Entry::Vacant(_) => None,
            };
            // Log index keys only where membership changes (inserts,
            // deletes, key-changing updates). A key-preserving update
            // does not move the row in or out of any scanned interval; its
            // content change is certified against the read set, which
            // holds every row a point read or a reading scan examined —
            // the ones a scan rejected included. `update_where` needs no
            // entries: it holds an exclusive lock on every candidate and
            // reads the latest version, so no later update reaches one.
            let pk = t.schema.primary_key;
            let indexed = t.schema.indexes.iter().map(|(col, _)| *col).chain([pk]);
            let mut index_keys_changed = false;
            for col in indexed {
                let (was, now) = (old.map(|r| r.at(col)), p.row.as_ref().map(|r| r.at(col)));
                if was != now {
                    index_keys_changed = true;
                    if log_enabled {
                        keys.extend(
                            was.into_iter()
                                .chain(now)
                                .map(|k| (p.table, col, k.clone())),
                        );
                    }
                }
            }
            if log_enabled {
                rows.push((p.table, p.id));
            }
            // An in-place update that moves no indexed key (the common
            // case) leaves pk membership and every index entry untouched —
            // skip the table's index lock entirely.
            if index_keys_changed {
                t.apply_index(p.id, old, p.row.as_ref());
            }
            let version = RowVersion {
                commit_ts,
                data: p.row.take(),
            };
            match slot {
                Entry::Occupied(chain) => {
                    let chain = chain.into_mut();
                    chain.push(version, &mut shard.spare);
                    chain.prune(horizon, &mut shard.spare);
                    chain.holds_older()
                }
                Entry::Vacant(slot) => {
                    slot.insert(VersionChain::new(version));
                    false
                }
            }
        });
        for (entry, delta) in credits {
            entry.credit(delta);
        }
        if log_enabled {
            self.db.log_commit(
                Arc::new(CommittedTxn {
                    commit_ts,
                    rows,
                    keys,
                }),
                writes,
                &mut guards,
                horizon,
            );
        }
        drop(guards);
        // A crash-shaped checkpoint runs with no guard held and before the
        // durability wait below, which must survive its truncation.
        if matches!(
            fault,
            Some(
                FaultKind::CheckpointTorn
                    | FaultKind::CrashBeforeTruncate
                    | FaultKind::TruncateBeforeWait
            )
        ) {
            self.db.write_checkpoint(fault);
        }
        // Group-commit durability point, *after* the shard guards drop so
        // concurrent committers batch behind one leader fsync: free-ride
        // if a leader already flushed past our frame, else lead. Runs
        // before the completion/ack below, preserving acked ⇒ durable.
        if let (Some(wal), Some(lsn)) = (wal, group_lsn) {
            wal.ensure_durable(lsn);
        }
        // Make the commit visible to snapshots (in timestamp order) before
        // acknowledging it to the client.
        self.db.complete_commit(commit_ts);
        self.db.charge_flush();
        Ok((Some(commit_ts), checkpoint_due))
    }

    /// Roll back explicitly.
    pub fn abort(mut self) {
        self.finish(false);
    }

    /// End the transaction: deregister it and release its locks. A commit
    /// keeps `pending` for [`retire`](Self::retire).
    fn finish(&mut self, committed: bool) {
        if !self.active {
            return;
        }
        self.active = false;
        if !committed {
            self.pending.clear();
        }
        self.deltas.clear();
        self.db.deregister(self.id);
        self.db.locks().release_all(self.id);
        if committed {
            self.db.inner.commits.fetch_add(1, Ordering::Relaxed);
            self.db.observe(|| AccessEvent::Committed { txn: self.id });
        } else {
            self.db.inner.aborts.fetch_add(1, Ordering::Relaxed);
            self.db.observe(|| AccessEvent::Aborted { txn: self.id });
        }
    }

    /// After a commit that `installed` versions at its timestamp, and after
    /// [`finish`](Self::finish) removed its registration: the rows left in
    /// `pending` are the chains that still hold an older version, which
    /// `Database::retire` frees when no snapshot below the commit is left.
    fn retire(&mut self, installed: Option<CommitTs>) {
        if let Some(commit_ts) = installed {
            self.db
                .retire(commit_ts, self.pending.iter().map(|p| (p.table, p.id)));
        }
        self.pending.clear();
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        self.finish(false);
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("iso", &self.iso)
            .field("snapshot", &self.snapshot)
            .field("pending", &self.pending.len())
            .field("deltas", &self.deltas.len())
            .field("active", &self.active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineProfile, StatementObserver};
    use crate::schema::{Column, Schema};
    use parking_lot::Mutex;
    use std::ops::Bound;

    /// The per-row statement loops this module had before the shared
    /// reader — one shard round trip, one row copy and one by-name
    /// predicate evaluation per candidate, results through a `BTreeMap` —
    /// kept as the oracle of `scan_matches_the_per_row_oracle`, each
    /// deciding the isolation matrix with its own comparisons. Deliberate
    /// differences from the old loops: `update_where`'s own-insert pass
    /// takes each row's *newest* pending image once, where the old loop
    /// pushed every matching pending entry (so a row inserted and then
    /// updated in the same transaction was counted twice); under
    /// PostgreSQL-like Serializable the reading scans enter every
    /// candidate they examined into the read set, not only their matches,
    /// and `update_where` enters its range.
    impl Transaction {
        fn profile(&self) -> EngineProfile {
            self.db.profile()
        }

        fn resolve(&self, table: &str) -> Result<Arc<Table>> {
            self.db.resolve_table(table).map(Arc::clone)
        }

        fn scan_per_row(&mut self, table: &str, pred: &Predicate) -> Result<Vec<(i64, Row)>> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            let plan = self.plan(&t, pred)?;

            let mut matched: BTreeMap<i64, Row> = BTreeMap::new();
            if self.profile() == EngineProfile::MySqlLike
                && self.iso == IsolationLevel::Serializable
            {
                for id in &plan.ids {
                    self.db.locks().lock_record(
                        self.id,
                        tid,
                        *id,
                        LockMode::Shared,
                        self.wait_cap(),
                    )?;
                }
                self.db.locks().lock_gap(
                    self.id,
                    tid,
                    plan.gap_column,
                    plan.gap.clone(),
                    self.wait_cap(),
                )?;
                for id in &plan.ids {
                    if let Some(row) = self.latest(tid, *id) {
                        if pred.matches(&t.schema, &row)? {
                            matched.insert(*id, row);
                        }
                    }
                }
            } else {
                if self.profile() == EngineProfile::PostgresLike
                    && self.iso == IsolationLevel::Serializable
                {
                    self.read_ranges
                        .push((tid, plan.gap_column, plan.gap.clone()));
                }
                let snap = self.stmt_snapshot();
                for id in &plan.ids {
                    if self.profile() == EngineProfile::PostgresLike
                        && self.iso == IsolationLevel::Serializable
                    {
                        self.read_rows.insert((tid, *id));
                    }
                    if let Some(row) = self.visible(tid, *id, snap) {
                        if pred.matches(&t.schema, &row)? {
                            matched.insert(*id, row);
                        }
                    }
                }
            }
            self.overlay_per_row(tid, &t, pred, &mut matched)?;
            for id in matched.keys() {
                self.observe_read(table, *id, false);
            }
            Ok(matched.into_iter().collect())
        }

        fn overlay_per_row(
            &self,
            tid: usize,
            t: &Table,
            pred: &Predicate,
            matched: &mut BTreeMap<i64, Row>,
        ) -> Result<()> {
            for p in &self.pending {
                if p.table != tid {
                    continue;
                }
                match &p.row {
                    Some(row) if pred.matches(&t.schema, row)? => {
                        matched.insert(p.id, row.clone());
                    }
                    _ => {
                        matched.remove(&p.id);
                    }
                }
            }
            Ok(())
        }

        fn select_for_update_per_row(
            &mut self,
            table: &str,
            pred: &Predicate,
        ) -> Result<Vec<(i64, Row)>> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            let plan = self.plan(&t, pred)?;
            for id in &plan.ids {
                self.db.locks().lock_record(
                    self.id,
                    tid,
                    *id,
                    LockMode::Exclusive,
                    self.wait_cap(),
                )?;
            }
            if self.profile() == EngineProfile::MySqlLike
                && self.iso >= IsolationLevel::RepeatableRead
            {
                self.db.locks().lock_gap(
                    self.id,
                    tid,
                    plan.gap_column,
                    plan.gap.clone(),
                    self.wait_cap(),
                )?;
            }
            if self.profile() == EngineProfile::PostgresLike
                && self.iso == IsolationLevel::Serializable
            {
                self.read_ranges
                    .push((tid, plan.gap_column, plan.gap.clone()));
            }
            let mut matched: BTreeMap<i64, Row> = BTreeMap::new();
            for id in &plan.ids {
                if let Some((Some(row), latest_ts)) = self.latest_with_ts(tid, *id) {
                    if pred.matches(&t.schema, &row)? {
                        if self.profile() == EngineProfile::PostgresLike
                            && self.iso >= IsolationLevel::RepeatableRead
                            && latest_ts > self.snapshot
                            && self.pending_row(tid, *id).is_none()
                        {
                            return Err(self.serialization_failure("row updated since snapshot"));
                        }
                        matched.insert(*id, row);
                    }
                }
                if self.profile() == EngineProfile::PostgresLike
                    && self.iso == IsolationLevel::Serializable
                {
                    self.read_rows.insert((tid, *id));
                }
            }
            self.overlay_per_row(tid, &t, pred, &mut matched)?;
            for id in matched.keys() {
                self.observe_read(table, *id, true);
            }
            Ok(matched.into_iter().collect())
        }

        fn update_where_per_row(
            &mut self,
            table: &str,
            pred: &Predicate,
            pairs: &[(&str, Value)],
        ) -> Result<usize> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            let plan = self.plan(&t, pred)?;
            for id in &plan.ids {
                self.db.locks().lock_record(
                    self.id,
                    tid,
                    *id,
                    LockMode::Exclusive,
                    self.wait_cap(),
                )?;
            }
            if self.profile() == EngineProfile::MySqlLike
                && self.iso >= IsolationLevel::RepeatableRead
            {
                self.db.locks().lock_gap(
                    self.id,
                    tid,
                    plan.gap_column,
                    plan.gap.clone(),
                    self.wait_cap(),
                )?;
            }
            if self.profile() == EngineProfile::PostgresLike
                && self.iso == IsolationLevel::Serializable
            {
                self.read_ranges
                    .push((tid, plan.gap_column, plan.gap.clone()));
            }

            let mut targets: Vec<(i64, Row)> = Vec::new();
            for id in &plan.ids {
                let base = match self.pending_row(tid, *id) {
                    Some(Some(row)) => Some(row.clone()),
                    Some(None) => None,
                    None => match self.latest_with_ts(tid, *id) {
                        Some((latest, latest_ts)) => {
                            if let Some(ref row) = latest {
                                if pred.matches(&t.schema, row)?
                                    && self.profile() == EngineProfile::PostgresLike
                                    && self.iso >= IsolationLevel::RepeatableRead
                                    && latest_ts > self.snapshot
                                {
                                    return Err(self.serialization_failure("concurrent update"));
                                }
                            }
                            latest
                        }
                        None => None,
                    },
                };
                if let Some(row) = base {
                    if pred.matches(&t.schema, &row)? {
                        targets.push((*id, row));
                    }
                }
            }
            let mut extra: Vec<(i64, Row)> = Vec::new();
            for p in &self.pending {
                if p.table == tid
                    && !plan.ids.contains(&p.id)
                    && !extra.iter().any(|(id, _)| *id == p.id)
                {
                    if let Some(Some(row)) = self.pending_row(tid, p.id) {
                        if pred.matches(&t.schema, row)? {
                            extra.push((p.id, row.clone()));
                        }
                    }
                }
            }
            targets.extend(extra);

            let count = targets.len();
            for (id, base) in targets {
                self.buffer_update(&t, id, base, pairs)?;
            }
            Ok(count)
        }
    }

    /// The point statements as they were before [`Rules`] and
    /// `lock_latest`, each deciding the isolation matrix with its own
    /// comparisons — the oracle of `point_statements_match_the_references`.
    impl Transaction {
        fn get_reference(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
            let result = self.get_inner_reference(table, id)?;
            if result.is_some() {
                self.observe_read(table, id, false);
            }
            Ok(result)
        }

        fn get_inner_reference(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            if let Some(p) = self.pending_row(tid, id) {
                return Ok(p.cloned());
            }
            match (self.profile(), self.iso) {
                (EngineProfile::MySqlLike, IsolationLevel::Serializable) => {
                    self.db.locks().lock_record(
                        self.id,
                        tid,
                        id,
                        LockMode::Shared,
                        self.wait_cap(),
                    )?;
                    Ok(self.latest(tid, id))
                }
                (profile, iso) => {
                    if profile == EngineProfile::PostgresLike && iso == IsolationLevel::Serializable
                    {
                        self.read_rows.insert((tid, id));
                    }
                    let snap = self.stmt_snapshot();
                    Ok(self.visible(tid, id, snap))
                }
            }
        }

        fn get_for_update_reference(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
            let result = self.get_for_update_inner_reference(table, id)?;
            if result.is_some() {
                self.observe_read(table, id, true);
            }
            Ok(result)
        }

        fn get_for_update_inner_reference(&mut self, table: &str, id: i64) -> Result<Option<Row>> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            self.db
                .locks()
                .lock_record(self.id, tid, id, LockMode::Exclusive, self.wait_cap())?;
            if let Some(p) = self.pending_row(tid, id) {
                return Ok(p.cloned());
            }
            let Some((latest, latest_ts)) = self.latest_with_ts(tid, id) else {
                return Ok(None);
            };
            if self.profile() == EngineProfile::PostgresLike
                && self.iso >= IsolationLevel::RepeatableRead
                && latest_ts > self.snapshot
                && latest.is_some()
            {
                return Err(self.serialization_failure("row updated since snapshot"));
            }
            if self.profile() == EngineProfile::PostgresLike
                && self.iso == IsolationLevel::Serializable
            {
                self.read_rows.insert((tid, id));
            }
            Ok(latest)
        }

        fn update_reference(
            &mut self,
            table: &str,
            id: i64,
            pairs: &[(&str, Value)],
        ) -> Result<()> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            self.db
                .locks()
                .lock_record(self.id, tid, id, LockMode::Exclusive, self.wait_cap())?;

            let base: Row = match self.pending_row(tid, id) {
                Some(Some(row)) => row.clone(),
                Some(None) => {
                    return Err(DbError::NoSuchRow {
                        table: table.to_string(),
                        id,
                    })
                }
                None => {
                    let Some((latest, latest_ts)) = self.latest_with_ts(tid, id) else {
                        return Err(DbError::NoSuchRow {
                            table: table.to_string(),
                            id,
                        });
                    };
                    let Some(latest) = latest else {
                        return Err(DbError::NoSuchRow {
                            table: table.to_string(),
                            id,
                        });
                    };
                    if self.profile() == EngineProfile::PostgresLike
                        && self.iso >= IsolationLevel::RepeatableRead
                        && latest_ts > self.snapshot
                    {
                        return Err(self.serialization_failure("concurrent update"));
                    }
                    latest
                }
            };

            self.buffer_update(&t, id, base, pairs)
        }

        fn delete_reference(&mut self, table: &str, id: i64) -> Result<bool> {
            self.ensure_active()?;
            self.statement()?;
            let t = self.resolve(table)?;
            let tid = t.id;
            self.db
                .locks()
                .lock_record(self.id, tid, id, LockMode::Exclusive, self.wait_cap())?;
            let existed = match self.pending_row(tid, id) {
                Some(Some(_)) => true,
                Some(None) => false,
                None => match self.latest_with_ts(tid, id) {
                    Some((latest, latest_ts)) => {
                        let live = latest.is_some();
                        if live
                            && self.profile() == EngineProfile::PostgresLike
                            && self.iso >= IsolationLevel::RepeatableRead
                            && latest_ts > self.snapshot
                        {
                            return Err(self.serialization_failure("concurrent update"));
                        }
                        live
                    }
                    None => false,
                },
            };
            if existed {
                self.pending.push(Pending {
                    table: tid,
                    id,
                    row: None,
                    base: None,
                });
                self.observe_write(table, id);
            }
            Ok(existed)
        }
    }

    #[derive(Default)]
    struct Recorder(Mutex<Vec<AccessEvent>>);

    impl StatementObserver for Recorder {
        fn on_event(&self, event: &AccessEvent) {
            self.0.lock().push(event.clone());
        }
    }

    /// Committed `items` rows as `(cart_id, qty)`, ids from 1.
    type Seed = Vec<(i64, i64)>;

    /// An own pending write: `(kind, target id, cart_id, qty)` — kind 0
    /// inserts a new row, 1 updates and 2 deletes the target when it
    /// exists (so a target can be written more than once).
    type OwnWrite = (u8, i64, i64, i64);

    /// An `items` table (`cart_id` indexed) holding `seed`, observed. A
    /// lock wait gives up after 5 ms: no statement here contends except a
    /// probe meant to show that it waits.
    fn items_db(profile: EngineProfile, seed: &Seed) -> (Database, Arc<Recorder>) {
        let db = Database::new(
            crate::engine::DbConfig::in_memory(profile)
                .with_lock_wait_timeout(std::time::Duration::from_millis(5)),
        );
        db.create_table(
            Schema::new(
                "items",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("cart_id", ColumnType::Int),
                    Column::new("qty", ColumnType::Int),
                ],
                "id",
            )
            .unwrap()
            .with_index("cart_id")
            .unwrap(),
        )
        .unwrap();
        for (cart, qty) in seed {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.insert(
                    "items",
                    &[("cart_id", (*cart).into()), ("qty", (*qty).into())],
                )
            })
            .unwrap();
        }
        let recorder = Arc::new(Recorder::default());
        db.attach_observer(recorder.clone());
        (db, recorder)
    }

    /// A transaction holding `own` as pending writes, begun before other
    /// transactions commit a `qty` change to each row of `late` (which
    /// `own` leaves alone, so no lock is contended): under a pinned
    /// snapshot those rows' latest versions are newer than the ones the
    /// transaction may see.
    fn open_txn(
        db: &Database,
        iso: IsolationLevel,
        rows: i64,
        own: &[OwnWrite],
        late: &[i64],
    ) -> Transaction {
        let mut txn = db.begin_with(iso);
        for (kind, target, cart, qty) in own {
            let exists = (1..=rows).contains(target) && !late.contains(target);
            match kind {
                0 => {
                    txn.insert(
                        "items",
                        &[("cart_id", (*cart).into()), ("qty", (*qty).into())],
                    )
                    .unwrap();
                }
                1 if exists => txn
                    .update(
                        "items",
                        *target,
                        &[("cart_id", (*cart).into()), ("qty", (*qty).into())],
                    )
                    .unwrap_or_else(|e| assert!(matches!(e, DbError::NoSuchRow { .. }))),
                2 if exists => {
                    txn.delete("items", *target).unwrap();
                }
                _ => {}
            }
        }
        for late in late.iter().filter(|id| (1..=rows).contains(*id)) {
            db.run(IsolationLevel::ReadCommitted, |t| {
                t.update("items", *late, &[("qty", 1.into())])
            })
            .unwrap();
        }
        txn
    }

    /// Everything a statement leaves behind that a later statement or the
    /// commit reads.
    fn state(txn: &Transaction) -> String {
        let mut read_rows: Vec<_> = txn.read_rows.iter().collect();
        read_rows.sort();
        format!(
            "read_rows {read_rows:?} read_ranges {:?} pending {:?}",
            txn.read_ranges, txn.pending
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Statement equivalence: the shared one-pass-per-shard reader
        /// returns, records and buffers exactly what the per-row loops did
        /// — results, errors, `read_rows`, `read_ranges`, pending images
        /// and observer events — on twin databases, for both profiles,
        /// every isolation level, every plan shape (primary-key range,
        /// indexed equality, a secondary-index walk over several keys,
        /// unindexed full scan, conjunction, everything), own pending
        /// inserts, updates and deletes of matching and non-matching
        /// rows, and rows committed after the snapshot — so a locking
        /// statement under PostgreSQL's Repeatable Read and above can lose
        /// to a first updater anywhere in its plan, with matches on both
        /// sides.
        #[test]
        fn scan_matches_the_per_row_oracle(
            seed in proptest::collection::vec((0i64..3, 0i64..4), 0..12),
            own in proptest::collection::vec((0u8..3, 1i64..14, 0i64..3, 0i64..4), 0..5),
            late in proptest::collection::vec(0i64..14, 0..3),
            cart in 0i64..3,
            qty in 0i64..4,
            low in 0i64..8,
            span in 0i64..8,
        ) {
            let predicates = [
                Predicate::between("id", low, low + span),
                Predicate::Range {
                    column: "id".into(),
                    low: Bound::Excluded(low.into()),
                    high: Bound::Unbounded,
                },
                Predicate::eq("cart_id", cart),
                Predicate::between("cart_id", 0, 1),
                Predicate::eq("qty", qty),
                Predicate::And(vec![Predicate::eq("cart_id", cart), Predicate::ge("qty", qty)]),
                Predicate::All,
            ];
            let rows = seed.len() as i64;
            for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
                for iso in [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::RepeatableRead,
                    IsolationLevel::Serializable,
                ] {
                    // Each statement kind alone (so what one kind records
                    // is not masked by another having recorded it already),
                    // then all three in turn in one transaction, each
                    // seeing what the earlier ones recorded and buffered.
                    for kinds in [&[0][..], &[1], &[2], &[0, 1, 2]] {
                        let (new_db, new_events) = items_db(profile, &seed);
                        let (old_db, old_events) = items_db(profile, &seed);
                        let mut new = open_txn(&new_db, iso, rows, &own, &late);
                        let mut old = open_txn(&old_db, iso, rows, &own, &late);
                        let set = [("qty", Value::Int(2))];
                        for pred in &predicates {
                            for kind in kinds {
                                let at = format!("statement {kind}, {profile:?} {iso:?} {pred:?}");
                                let (new_result, old_result) = match kind {
                                    0 => (
                                        format!("{:?}", new.scan("items", pred)),
                                        format!("{:?}", old.scan_per_row("items", pred)),
                                    ),
                                    1 => (
                                        format!("{:?}", new.select_for_update("items", pred)),
                                        format!("{:?}", old.select_for_update_per_row("items", pred)),
                                    ),
                                    _ => (
                                        format!("{:?}", new.update_where("items", pred, &set)),
                                        format!("{:?}", old.update_where_per_row("items", pred, &set)),
                                    ),
                                };
                                proptest::prop_assert_eq!(new_result, old_result, "{}", at);
                                proptest::prop_assert_eq!(state(&new), state(&old), "{}", at);
                                proptest::prop_assert_eq!(
                                    &*new_events.0.lock(), &*old_events.0.lock(), "{}", at
                                );
                            }
                        }
                        proptest::prop_assert_eq!(
                            format!("{:?}", new.commit()),
                            format!("{:?}", old.commit())
                        );
                        proptest::prop_assert_eq!(
                            new_db.dump_table("items").unwrap(),
                            old_db.dump_table("items").unwrap()
                        );
                    }
                }
            }
        }
    }

    /// `scan_fold` is `scan` without the result vector: collecting its
    /// matches gives back exactly the rows `scan` returns, and it leaves
    /// the same trace — observer events, `read_rows`, `read_ranges`, held
    /// record locks — and blocks (or lets through) the same concurrent
    /// insert into the scanned gap, after which both commits agree. Seeded
    /// over every `Rules::of` cell, primary-key, secondary-index and full
    /// plans, and own pending inserts, updates (some moving a row to
    /// another `cart_id`) and deletes on the scanned table, with other
    /// transactions committing after the snapshot.
    #[test]
    fn scan_fold_matches_scan() {
        for seed in 0..64u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n) as i64
            };
            let rows: Seed = (0..next(12)).map(|_| (next(3), next(4))).collect();
            let own: Vec<OwnWrite> = (0..next(5))
                .map(|_| (next(3) as u8, 1 + next(14), next(3), next(4)))
                .collect();
            let late: Vec<i64> = (0..next(3)).map(|_| next(14)).collect();
            let (cart, qty, low, span) = (next(3), next(4), next(8), next(8));
            let predicates = [
                Predicate::between("id", low, low + span),
                Predicate::Range {
                    column: "id".into(),
                    low: Bound::Excluded(low.into()),
                    high: Bound::Unbounded,
                },
                Predicate::eq("cart_id", cart),
                Predicate::between("cart_id", 0, 1),
                Predicate::eq("qty", qty),
                Predicate::And(vec![
                    Predicate::eq("cart_id", cart),
                    Predicate::ge("qty", qty),
                ]),
                Predicate::All,
            ];
            let n = rows.len() as i64;
            for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
                for iso in [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::RepeatableRead,
                    IsolationLevel::Serializable,
                ] {
                    for pred in &predicates {
                        let at = format!("seed {seed}, {profile:?} {iso:?} {pred:?}");
                        let (fold_db, fold_events) = items_db(profile, &rows);
                        let (scan_db, scan_events) = items_db(profile, &rows);
                        let mut fold = open_txn(&fold_db, iso, n, &own, &late);
                        let mut scan = open_txn(&scan_db, iso, n, &own, &late);
                        let folded = fold
                            .scan_fold("items", pred, Vec::new(), |mut rows, id, row| {
                                rows.push((id, row.clone()));
                                rows
                            })
                            .map(|mut rows| {
                                rows.sort_unstable_by_key(|(id, _)| *id);
                                rows
                            });
                        let scanned = scan.scan("items", pred);
                        assert_eq!(format!("{folded:?}"), format!("{scanned:?}"), "{at}");
                        assert_eq!(state(&fold), state(&scan), "{at}");
                        assert_eq!(*fold_events.0.lock(), *scan_events.0.lock(), "{at}");
                        let locks = |txn: &Transaction| -> Vec<Option<LockMode>> {
                            let tid = txn.db.resolve_table("items").unwrap().id;
                            (1..=20)
                                .map(|id| txn.db.locks().held_record_mode(txn.id, tid, id))
                                .collect()
                        };
                        assert_eq!(locks(&fold), locks(&scan), "{at}");
                        // Another transaction inserts into cart `cart` at the
                        // end of the key space while the scanner is open.
                        let probe = |db: &Database| {
                            let mut t = db.begin_with(IsolationLevel::ReadCommitted);
                            let got =
                                t.insert("items", &[("cart_id", cart.into()), ("qty", qty.into())]);
                            format!("{got:?} {:?}", got.is_ok().then(|| t.commit()))
                        };
                        let (fold_probe, scan_probe) = (probe(&fold_db), probe(&scan_db));
                        assert_eq!(fold_probe, scan_probe, "{at}");
                        // Only a plain read under MySQL-like Serializable
                        // gap-locks; over the whole table it must block.
                        let gap_locks = profile == EngineProfile::MySqlLike
                            && iso == IsolationLevel::Serializable;
                        if !gap_locks || matches!(pred, Predicate::All) {
                            let blocked = fold_probe.contains("LockWaitTimeout");
                            assert_eq!(blocked, gap_locks, "{at}: {fold_probe}");
                        }
                        assert_eq!(
                            format!("{:?}", fold.commit()),
                            format!("{:?}", scan.commit()),
                            "{at}"
                        );
                        assert_eq!(*fold_events.0.lock(), *scan_events.0.lock(), "{at}");
                        assert_eq!(
                            fold_db.dump_table("items").unwrap(),
                            scan_db.dump_table("items").unwrap(),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    /// Twin databases for the point differential: rows 1–6 committed,
    /// row 6 deleted before the transaction begins (a tombstone it can
    /// see); then, after its snapshot, row 5 updated, row 7 inserted and
    /// row 4 deleted by other transactions; then its own insert (row 8),
    /// update of row 2 and delete of row 3. Row 99 never exists.
    fn point_txn(
        profile: EngineProfile,
        iso: IsolationLevel,
        qty: &[i64; 6],
    ) -> (Database, Arc<Recorder>, Transaction) {
        let seed: Seed = qty.iter().map(|q| (q % 2, *q)).collect();
        let (db, events) = items_db(profile, &seed);
        let rc = IsolationLevel::ReadCommitted;
        let set = |q: i64| [("qty", Value::Int(q))];
        db.run(rc, |t| t.delete("items", 6)).unwrap();
        let mut txn = db.begin_with(iso);
        db.run(rc, |t| t.update("items", 5, &set(7))).unwrap();
        db.run(rc, |t| {
            t.insert("items", &[("cart_id", 1.into()), ("qty", 1.into())])
        })
        .unwrap();
        db.run(rc, |t| t.delete("items", 4)).unwrap();
        let own = txn
            .insert("items", &[("cart_id", 0.into()), ("qty", 2.into())])
            .unwrap();
        assert_eq!(own, 8);
        txn.update("items", 2, &set(9)).unwrap();
        assert!(txn.delete("items", 3).unwrap());
        (db, events, txn)
    }

    /// Every record lock `txn` holds on `items`, by row.
    fn held(txn: &Transaction) -> Vec<(i64, Option<LockMode>)> {
        let tid = txn.db.resolve_table("items").unwrap().id;
        [1, 2, 3, 4, 5, 6, 7, 8, 99]
            .into_iter()
            .map(|id| (id, txn.db.locks().held_record_mode(txn.id, tid, id)))
            .collect()
    }

    /// Point equivalence: `get`, `get_for_update`, `update` and `delete`
    /// over `Rules` and `lock_latest` return, record, lock and buffer
    /// exactly what the per-statement matrix comparisons did — results,
    /// errors, `read_rows`, pending images, held record modes and observer
    /// events — for both profiles at every level, on own inserts, updates
    /// and deletes, rows committed after the snapshot (updated, inserted,
    /// deleted), a tombstone and a missing row, in seeded statement orders.
    #[test]
    fn point_statements_match_the_references() {
        let ids = [1, 2, 3, 4, 5, 6, 7, 8, 99];
        for seed in 0..48u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let qty: [i64; 6] = std::array::from_fn(|_| next(4) as i64);
            let steps: Vec<(u64, i64)> = (0..10)
                .map(|_| (next(4), ids[next(ids.len() as u64) as usize]))
                .collect();
            for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
                for iso in [
                    IsolationLevel::ReadCommitted,
                    IsolationLevel::RepeatableRead,
                    IsolationLevel::Serializable,
                ] {
                    let (new_db, new_events, mut new) = point_txn(profile, iso, &qty);
                    let (old_db, old_events, mut old) = point_txn(profile, iso, &qty);
                    let set = [("qty", Value::Int(5))];
                    for (step, (kind, id)) in steps.iter().enumerate() {
                        let at =
                            format!("seed {seed} step {step}: {kind} on {id}, {profile:?} {iso:?}");
                        let (new_result, old_result) = match kind {
                            0 => (
                                format!("{:?}", new.get("items", *id)),
                                format!("{:?}", old.get_reference("items", *id)),
                            ),
                            1 => (
                                format!("{:?}", new.get_for_update("items", *id)),
                                format!("{:?}", old.get_for_update_reference("items", *id)),
                            ),
                            2 => (
                                format!("{:?}", new.update("items", *id, &set)),
                                format!("{:?}", old.update_reference("items", *id, &set)),
                            ),
                            _ => (
                                format!("{:?}", new.delete("items", *id)),
                                format!("{:?}", old.delete_reference("items", *id)),
                            ),
                        };
                        assert_eq!(new_result, old_result, "{at}");
                        assert_eq!(state(&new), state(&old), "{at}");
                        assert_eq!(held(&new), held(&old), "{at}");
                        assert_eq!(*new_events.0.lock(), *old_events.0.lock(), "{at}");
                    }
                    assert_eq!(format!("{:?}", new.commit()), format!("{:?}", old.commit()));
                    assert_eq!(
                        new_db.dump_table("items").unwrap(),
                        old_db.dump_table("items").unwrap()
                    );
                }
            }
        }
    }

    /// A locking statement over a secondary-index range whose plan is not
    /// in id order (cart 0's rows 2, 4, 6, 8, then cart 1's 1, 3, 5, 7),
    /// on a table the transaction has inserted into, updated and deleted
    /// from, loses to the first updater of row 1, midway through the plan.
    /// Under PostgreSQL's Serializable the read set then holds exactly the
    /// committed matches before row 1 — own-written rows included, the
    /// rows after it not — and nothing is buffered; Repeatable Read fails
    /// the same way and records nothing. Both agree with the per-row loops.
    #[test]
    fn a_first_updater_failure_midway_reads_exactly_the_matches_before_it() {
        let seed: Seed = (1..=8).map(|id| (id % 2, 0)).collect();
        let own = [(0, 0, 0, 3), (1, 4, 0, 2), (2, 6, 0, 0)];
        let pred = Predicate::between("cart_id", 0, 1);
        let set = [("qty", Value::Int(2))];
        for iso in [IsolationLevel::RepeatableRead, IsolationLevel::Serializable] {
            for kind in 0..2 {
                let (new_db, new_events) = items_db(EngineProfile::PostgresLike, &seed);
                let (old_db, old_events) = items_db(EngineProfile::PostgresLike, &seed);
                let mut new = open_txn(&new_db, iso, 8, &own, &[1]);
                let mut old = open_txn(&old_db, iso, 8, &own, &[1]);
                let (new_result, old_result) = if kind == 0 {
                    (
                        format!("{:?}", new.select_for_update("items", &pred)),
                        format!("{:?}", old.select_for_update_per_row("items", &pred)),
                    )
                } else {
                    (
                        format!("{:?}", new.update_where("items", &pred, &set)),
                        format!("{:?}", old.update_where_per_row("items", &pred, &set)),
                    )
                };
                let at = format!("{iso:?} statement {kind}");
                assert!(
                    new_result.contains("SerializationFailure"),
                    "{at}: {new_result}"
                );
                assert_eq!(new_result, old_result, "{at}");
                assert_eq!(state(&new), state(&old), "{at}");
                assert_eq!(*new_events.0.lock(), *old_events.0.lock(), "{at}");
                let mut read: Vec<i64> = new.read_rows.iter().map(|(_, id)| *id).collect();
                read.sort_unstable();
                let expected: &[i64] = match (iso, kind) {
                    (IsolationLevel::Serializable, 0) => &[2, 4, 6, 8],
                    _ => &[],
                };
                assert_eq!(read, expected, "{at}");
                assert_eq!(new.pending.len(), own.len(), "{at}: nothing buffered");
            }
        }
    }

    /// An own pending insert the index cannot list yet is still found by
    /// `update_where` — once, on its newest image, however many times the
    /// transaction has already written it — and a deleted one is not
    /// brought back.
    #[test]
    fn update_where_updates_an_own_pending_insert_exactly_once() {
        let (db, _) = items_db(EngineProfile::PostgresLike, &vec![(0, 0), (1, 0)]);
        let mut txn = db.begin();
        let fresh = txn
            .insert("items", &[("cart_id", 0.into()), ("qty", 0.into())])
            .unwrap();
        let gone = txn
            .insert("items", &[("cart_id", 0.into()), ("qty", 0.into())])
            .unwrap();
        txn.update("items", fresh, &[("qty", 5.into())]).unwrap();
        txn.delete("items", gone).unwrap();
        let cart = Predicate::eq("cart_id", 0);
        assert_eq!(
            txn.update_where("items", &cart, &[("qty", 9.into())])
                .unwrap(),
            2,
            "committed row 1 and the own insert, each once"
        );
        let qty = |rows: Vec<(i64, Row)>| -> Vec<(i64, i64)> {
            rows.iter().map(|(id, r)| (*id, r.at(2).as_int())).collect()
        };
        assert_eq!(qty(txn.scan("items", &cart).unwrap()), [(1, 9), (fresh, 9)]);
        txn.commit().unwrap();
        assert_eq!(
            qty(db.dump_table("items").unwrap()),
            [(1, 9), (2, 0), (fresh, 9)]
        );
    }
}
