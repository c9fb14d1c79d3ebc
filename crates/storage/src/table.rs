//! Table metadata, version chains, and ordered secondary indexes.
//!
//! Each row is a chain of committed versions; transactions buffer writes
//! privately and the chain grows at commit. The same commit then prunes it
//! (`VersionChain::prune`) down to what a live snapshot can still read:
//! the newest version at or below the database's reclamation horizon
//! (`Database::horizon`) and everything newer. That is safe because every
//! reader of an older version reads at a snapshot no older than the
//! horizon — a registered begin snapshot (Repeatable Read, snapshot
//! isolation, Serializable), a Read Committed statement snapshot (at or
//! above its transaction's registered begin), a scan through the same
//! snapshots, or the snapshot of a handle a crash forgot (the horizon's
//! crash floor). Readers of the newest version — `latest_committed`,
//! escrow, first-updater checks, delta materialization — see no change,
//! and a chain never loses its newest version, so the primary-key set,
//! gap neighbours and tombstones are what they were. Since the sharded-engine
//! refactor the chains themselves live in the database's hash shards
//! (`crate::db`), keyed by `(table, primary key)`: a [`Table`] holds only
//! the immutable schema, the auto-increment cursor, and the *index state*
//! — the primary-key set and secondary indexes — under its own small
//! mutex, so planning a scan never touches row shards and installing a
//! row never touches another table.
//!
//! A chain keeps its newest version inline, in its shard-map slot, and
//! any older ones behind it in a vector (oldest first) that a row only
//! ever inserted never allocates. A retiring commit prunes the chains it
//! wrote at its own timestamp (`VersionChain::prune`) when no snapshot
//! below it is left, so a chain holds more than one version exactly when
//! the last commit that wrote it has not retired yet, or retired while
//! another transaction was registered or a handle a crash forgot read
//! below it (see `crate::db`, "Version reclamation"). A chain at rest is its newest version alone,
//! and a read of it — `visible`, `latest`, `latest_ts` — touches the slot
//! and the row and follows no other pointer. A chain is
//! built with its first version (a commit's first write of the row, or
//! boot-time replay); there is no empty chain.
//!
//! Secondary indexes reflect the *latest committed* version of each row —
//! the same structure gap locks walk to find interval neighbours (§3.3.2
//! of the paper). Each key's postings are the ids holding it, as one
//! ascending vector: an auto-increment insert appends, an out-of-order
//! one binary-searches its place, and a scan copies each matched key's
//! slice into its plan.
//!
//! Simplification relative to a real engine: index entries for superseded
//! versions are not retained, so a snapshot scan may miss a row whose
//! indexed key changed after the snapshot. The studied workloads never
//! mutate indexed columns (order ids, topic ids, image ids are immutable
//! after insert), so this does not affect any reproduced behaviour.

use crate::error::DbError;
use crate::predicate::ValueInterval;
use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::Result;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Global commit timestamp. 0 = "before any commit".
pub type CommitTs = u64;

/// One committed version of a row. `data = None` is a deletion tombstone.
#[derive(Debug, Clone)]
pub struct RowVersion {
    /// Commit timestamp that created this version.
    pub commit_ts: CommitTs,
    /// Row contents; `None` is a deletion tombstone.
    pub data: Option<Row>,
}

/// The committed history of one primary key: the newest version inline,
/// the older ones oldest first in `older` (see the module docs). Never
/// empty: a chain is built with its first version.
#[derive(Debug, Clone)]
pub struct VersionChain {
    newest: RowVersion,
    older: Vec<RowVersion>,
}

impl VersionChain {
    /// A chain holding one version.
    pub(crate) fn new(first: RowVersion) -> Self {
        Self {
            newest: first,
            older: Vec::new(),
        }
    }

    /// The newest version visible at `snapshot` (commit_ts <= snapshot).
    pub fn visible(&self, snapshot: CommitTs) -> Option<&Row> {
        if self.newest.commit_ts <= snapshot {
            return self.newest.data.as_ref();
        }
        self.older
            .iter()
            .rev()
            .find(|v| v.commit_ts <= snapshot)
            .and_then(|v| v.data.as_ref())
    }

    /// The newest committed version regardless of snapshot.
    pub fn latest(&self) -> Option<&Row> {
        self.newest.data.as_ref()
    }

    /// Commit timestamp of the newest version.
    pub fn latest_ts(&self) -> CommitTs {
        self.newest.commit_ts
    }

    /// Append a version. Timestamps are monotonic per chain: writers of the
    /// same row serialize on its record lock and its shard mutex. A chain
    /// with no vector takes its shard's `spare` (see [`prune`](Self::prune))
    /// before it allocates one.
    pub(crate) fn push(&mut self, version: RowVersion, spare: &mut Vec<RowVersion>) {
        debug_assert!(version.commit_ts >= self.latest_ts());
        if self.older.capacity() == 0 {
            self.older = std::mem::take(spare);
        }
        self.older
            .push(std::mem::replace(&mut self.newest, version));
    }

    /// Drop every version no snapshot at or above `horizon` can read: keep
    /// the newest version with `commit_ts <= horizon` and everything
    /// newer. The newest version always stays. A prune that leaves it
    /// alone gives up the emptied vector — into `spare` when that is free,
    /// for the shard's next [`push`](Self::push), else to the allocator.
    /// Only a retiring commit's prune can: at install the committer's own
    /// registration keeps the horizon below the version it pushed.
    pub(crate) fn prune(&mut self, horizon: CommitTs, spare: &mut Vec<RowVersion>) {
        if self.newest.commit_ts <= horizon {
            let mut emptied = std::mem::take(&mut self.older);
            if emptied.capacity() > 0 && spare.capacity() == 0 {
                emptied.clear();
                *spare = emptied;
            }
            return;
        }
        let keep_from = self
            .older
            .partition_point(|v| v.commit_ts <= horizon)
            .saturating_sub(1);
        self.older.drain(..keep_from);
    }

    /// Whether the chain holds any version besides its newest.
    pub(crate) fn holds_older(&self) -> bool {
        !self.older.is_empty()
    }

    /// Versions held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        1 + self.older.len()
    }
}

/// A test chain with no history yet: a tombstone at timestamp 0, which
/// every read answers exactly as it would a row never written.
#[cfg(test)]
impl Default for VersionChain {
    fn default() -> Self {
        Self::new(RowVersion {
            commit_ts: 0,
            data: None,
        })
    }
}

/// One secondary index: for each committed key, the ascending ids of the
/// rows whose latest version holds it.
#[derive(Debug, Clone)]
struct IndexState {
    unique: bool,
    map: BTreeMap<Value, Vec<i64>>,
}

impl IndexState {
    /// Post `id` under `key`: appended when above every posted id (an
    /// auto-increment insert), else placed by binary search; a repeat is
    /// ignored.
    fn insert(&mut self, key: Value, id: i64) {
        let ids = self.map.entry(key).or_default();
        match ids.last() {
            Some(last) if *last >= id => {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
            _ => ids.push(id),
        }
    }

    fn remove(&mut self, key: &Value, id: i64) {
        if let Some(ids) = self.map.get_mut(key) {
            if let Ok(at) = ids.binary_search(&id) {
                ids.remove(at);
            }
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }
}

/// Mutable index state: the primary-key set (every id with any committed
/// history, mirroring the shard-resident chains) plus secondary indexes.
#[derive(Debug, Default)]
struct TableIndex {
    pk_set: BTreeSet<i64>,
    /// Secondary indexes keyed by column position.
    indexes: BTreeMap<usize, IndexState>,
    /// Bumped by every change above, so a plan can tell it is still current.
    changes: u64,
}

/// Result of [`Table::index_scan`]: matching row ids plus the gap
/// neighbours `(predecessor, successor)` bracketing the scanned interval.
pub(crate) type IndexScan = (Vec<i64>, (Option<Value>, Option<Value>));

/// A table: schema, index state, and the auto-increment cursor. Row version
/// chains live in the database's shards, not here.
///
/// The auto-increment cursor is atomic so id allocation takes no lock at
/// all (like InnoDB's auto-inc counter, ids allocated by aborted
/// transactions are simply skipped).
#[derive(Debug)]
pub struct Table {
    /// Positional table id within the database.
    pub id: usize,
    /// The table's schema: immutable after creation and shared by
    /// reference count with every statement, ORM object and caller of
    /// [`Database::schema`](crate::Database::schema).
    pub schema: Arc<Schema>,
    index: Mutex<TableIndex>,
    next_auto_id: std::sync::atomic::AtomicI64,
    /// Set once any cell of the table has an escrow ledger entry, so a
    /// committer's delta looks for one only where one can exist.
    escrowed: std::sync::atomic::AtomicBool,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(id: usize, schema: Schema) -> Self {
        let indexes = schema
            .indexes
            .iter()
            .map(|(col, unique)| {
                (
                    *col,
                    IndexState {
                        unique: *unique,
                        map: BTreeMap::new(),
                    },
                )
            })
            .collect();
        Self {
            id,
            schema: Arc::new(schema),
            index: Mutex::new(TableIndex {
                pk_set: BTreeSet::new(),
                indexes,
                changes: 0,
            }),
            next_auto_id: std::sync::atomic::AtomicI64::new(1),
            escrowed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether any cell of the table has had an escrow ledger entry.
    pub(crate) fn escrowed(&self) -> bool {
        self.escrowed.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Note that a cell of the table has an escrow ledger entry.
    pub(crate) fn mark_escrowed(&self) {
        self.escrowed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Allocate the next auto-increment primary key.
    pub fn alloc_id(&self) -> i64 {
        self.next_auto_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Reserve explicit ids so auto-increment never collides.
    fn note_id(&self, id: i64) {
        self.next_auto_id
            .fetch_max(id + 1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Primary keys (of rows with any history) within `interval`.
    fn pk_candidates_in(pk_set: &BTreeSet<i64>, interval: &ValueInterval) -> Vec<i64> {
        let to_i64 = |b: &Bound<Value>, default: Bound<i64>| -> Option<Bound<i64>> {
            match b {
                Bound::Unbounded => Some(default),
                Bound::Included(Value::Int(v)) => Some(Bound::Included(*v)),
                Bound::Excluded(Value::Int(v)) => Some(Bound::Excluded(*v)),
                _ => None,
            }
        };
        match (
            to_i64(&interval.low, Bound::Unbounded),
            to_i64(&interval.high, Bound::Unbounded),
        ) {
            (Some(lo), Some(hi)) => pk_set.range((lo, hi)).copied().collect(),
            // Non-integer bounds on an integer primary key: nothing matches
            // via equality, but fall back to a filter to stay correct.
            _ => pk_set
                .iter()
                .filter(|id| interval.contains(&Value::Int(**id)))
                .copied()
                .collect(),
        }
    }

    /// Nearest primary keys strictly outside `interval` (for pk gap locks).
    /// Two ordered look-ups, whatever the table's size: the nearest key
    /// strictly below the low bound's value and strictly above the high's
    /// (for a primary key, `Included` and `Excluded` bounds have the same
    /// outside neighbour — a key equal to an excluded bound is neither in
    /// the interval nor a neighbour).
    fn pk_neighbors_in(
        pk_set: &BTreeSet<i64>,
        interval: &ValueInterval,
    ) -> (Option<Value>, Option<Value>) {
        let prev = match &interval.low {
            Bound::Unbounded => None,
            Bound::Included(Value::Int(b)) | Bound::Excluded(Value::Int(b)) => {
                pk_set.range(..*b).next_back()
            }
            // Non-integer bounds on an integer primary key: as rare as in
            // `pk_candidates_in`, and served by the same filter.
            Bound::Included(b) | Bound::Excluded(b) => {
                pk_set.iter().rev().find(|id| Value::Int(**id) < *b)
            }
        };
        let next = match &interval.high {
            Bound::Unbounded => None,
            Bound::Included(Value::Int(b)) | Bound::Excluded(Value::Int(b)) => {
                pk_set.range((Bound::Excluded(*b), Bound::Unbounded)).next()
            }
            Bound::Included(b) | Bound::Excluded(b) => {
                pk_set.iter().find(|id| Value::Int(**id) > *b)
            }
        };
        (
            prev.map(|id| Value::Int(*id)),
            next.map(|id| Value::Int(*id)),
        )
    }

    /// Candidates and gap neighbours for a primary-key scan, under one
    /// index-lock acquisition (the statement planner's path).
    pub(crate) fn pk_scan(
        &self,
        interval: &ValueInterval,
    ) -> (Vec<i64>, (Option<Value>, Option<Value>)) {
        let index = self.index.lock();
        (
            Self::pk_candidates_in(&index.pk_set, interval),
            Self::pk_neighbors_in(&index.pk_set, interval),
        )
    }

    /// All primary keys with any committed history.
    pub fn all_ids(&self) -> Vec<i64> {
        self.index.lock().pk_set.iter().copied().collect()
    }

    /// Whether `column` (by position) has an index, and its uniqueness
    /// (from the immutable schema — no lock).
    pub fn index_on(&self, column: usize) -> Option<bool> {
        self.schema
            .indexes
            .iter()
            .find(|(col, _)| *col == column)
            .map(|(_, unique)| *unique)
    }

    fn no_index(&self, column: usize) -> DbError {
        DbError::NoIndex {
            table: self.schema.table.clone(),
            column: self.schema.columns[column].name.clone(),
        }
    }

    /// Primary keys whose *latest committed* indexed key falls in `interval`.
    fn index_candidates_in(state: &IndexState, interval: &ValueInterval) -> Vec<i64> {
        let keys = state
            .map
            .range((interval.low.clone(), interval.high.clone()));
        // Sized once from the matched postings' lengths.
        let mut out = Vec::with_capacity(keys.clone().map(|(_, ids)| ids.len()).sum());
        for (key, ids) in keys {
            debug_assert!(interval.contains(key));
            out.extend_from_slice(ids);
        }
        out
    }

    /// The nearest committed index keys strictly outside `interval`
    /// (`prev`, `next`) — the neighbours a next-key lock widens to.
    fn index_neighbors_in(
        state: &IndexState,
        interval: &ValueInterval,
    ) -> (Option<Value>, Option<Value>) {
        let prev = match &interval.low {
            Bound::Unbounded => None,
            Bound::Included(v) => state
                .map
                .range((Bound::Unbounded, Bound::Excluded(v.clone())))
                .next_back()
                .map(|(k, _)| k.clone()),
            Bound::Excluded(v) => state
                .map
                .range((Bound::Unbounded, Bound::Included(v.clone())))
                .next_back()
                .map(|(k, _)| k.clone()),
        };
        let next = match &interval.high {
            Bound::Unbounded => None,
            Bound::Included(v) => state
                .map
                .range((Bound::Excluded(v.clone()), Bound::Unbounded))
                .next()
                .map(|(k, _)| k.clone()),
            Bound::Excluded(v) => state
                .map
                .range((Bound::Included(v.clone()), Bound::Unbounded))
                .next()
                .map(|(k, _)| k.clone()),
        };
        (prev, next)
    }

    /// Candidates and gap neighbours for a secondary-index scan, under one
    /// index-lock acquisition.
    pub(crate) fn index_scan(&self, column: usize, interval: &ValueInterval) -> Result<IndexScan> {
        let index = self.index.lock();
        let state = index
            .indexes
            .get(&column)
            .ok_or_else(|| self.no_index(column))?;
        Ok((
            Self::index_candidates_in(state, interval),
            Self::index_neighbors_in(state, interval),
        ))
    }

    /// Check unique indexes for a prospective row (against latest committed
    /// state). `exclude_id` skips the row's own entry on updates.
    pub fn check_unique(&self, row: &Row, exclude_id: Option<i64>) -> Result<()> {
        let index = self.index.lock();
        for (col, state) in &index.indexes {
            if !state.unique {
                continue;
            }
            let key = row.at(*col);
            if key.is_null() {
                continue;
            }
            if let Some(ids) = state.map.get(key) {
                let conflict = ids.iter().any(|id| Some(*id) != exclude_id);
                if conflict {
                    return Err(DbError::UniqueViolation {
                        table: self.schema.table.clone(),
                        column: self.schema.columns[*col].name.clone(),
                        value: key.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Install a committed write's index effects: reserve the id, record pk
    /// membership, and move secondary-index entries from the old latest row
    /// to the new one. The caller (the commit path) holds the row's shard
    /// lock, which serializes index maintenance per row.
    pub(crate) fn apply_index(&self, id: i64, old: Option<&Row>, new: Option<&Row>) {
        self.note_id(id);
        let mut index = self.index.lock();
        index.changes += 1;
        index.pk_set.insert(id);
        for (col, state) in index.indexes.iter_mut() {
            if let Some(old_row) = old {
                state.remove(old_row.at(*col), id);
            }
            if let Some(new_row) = new {
                state.insert(new_row.at(*col).clone(), id);
            }
        }
    }

    /// How many times the index state has changed: equal readings bracket
    /// a stretch in which no plan over this table could change.
    pub(crate) fn index_changes(&self) -> u64 {
        self.index.lock().changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{row_from_pairs, Column};
    use crate::value::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(
            "payments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("order_id", ColumnType::Int),
                Column::new("token", ColumnType::Str).nullable(),
            ],
            "id",
        )
        .unwrap()
        .with_index("order_id")
        .unwrap()
        .with_unique_index("token")
        .unwrap();
        Table::new(0, schema)
    }

    fn pay(t: &Table, id: i64, order: i64, token: Option<&str>) -> Row {
        row_from_pairs(
            &t.schema,
            &[
                ("id", id.into()),
                ("order_id", order.into()),
                ("token", token.map(Value::from).unwrap_or(Value::Null)),
            ],
        )
        .unwrap()
    }

    /// Chains now live in the database shards; tests pair a local chain map
    /// with the table's index state, applying writes the way the commit
    /// path does.
    struct Rows(BTreeMap<i64, VersionChain>);

    impl Rows {
        fn new() -> Self {
            Rows(BTreeMap::new())
        }

        fn apply(&mut self, t: &Table, id: i64, data: Option<Row>, commit_ts: CommitTs) {
            let old = self.0.get(&id).and_then(VersionChain::latest).cloned();
            t.apply_index(id, old.as_ref(), data.as_ref());
            let version = RowVersion { commit_ts, data };
            match self.0.get_mut(&id) {
                Some(chain) => chain.push(version, &mut Vec::new()),
                None => {
                    self.0.insert(id, VersionChain::new(version));
                }
            }
        }

        fn chain(&self, id: i64) -> Option<&VersionChain> {
            self.0.get(&id)
        }

        fn live_count(&self) -> usize {
            self.0.values().filter(|c| c.latest().is_some()).count()
        }
    }

    #[test]
    fn version_visibility_respects_snapshots() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 1, Some(pay(&t, 1, 9, None)), 5);
        rows.apply(&t, 1, Some(pay(&t, 1, 12, None)), 8);
        let chain = rows.chain(1).unwrap();
        assert!(chain.visible(4).is_none());
        assert_eq!(
            chain
                .visible(5)
                .unwrap()
                .get_int(&t.schema, "order_id")
                .unwrap(),
            9
        );
        assert_eq!(
            chain
                .visible(7)
                .unwrap()
                .get_int(&t.schema, "order_id")
                .unwrap(),
            9
        );
        assert_eq!(
            chain
                .visible(8)
                .unwrap()
                .get_int(&t.schema, "order_id")
                .unwrap(),
            12
        );
        assert_eq!(chain.latest_ts(), 8);
    }

    #[test]
    fn deletion_tombstones_hide_rows() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 1, Some(pay(&t, 1, 9, None)), 5);
        rows.apply(&t, 1, None, 9);
        let chain = rows.chain(1).unwrap();
        assert!(chain.visible(5).is_some());
        assert!(chain.visible(9).is_none());
        assert!(chain.latest().is_none());
        assert_eq!(rows.live_count(), 0);
        // The pk set remembers the id (chain history survives deletion).
        assert_eq!(t.all_ids(), vec![1]);
    }

    #[test]
    fn index_candidates_and_neighbors_match_paper_example() {
        let t = table();
        let mut rows = Rows::new();
        // Committed order_ids {9, 12}, as in §3.3.2.
        rows.apply(&t, 1, Some(pay(&t, 1, 9, None)), 1);
        rows.apply(&t, 2, Some(pay(&t, 2, 12, None)), 2);
        let col = t.schema.column_index("order_id").unwrap();
        let point = ValueInterval::point(Value::Int(10));
        let (candidates, (prev, next)) = t.index_scan(col, &point).unwrap();
        assert!(candidates.is_empty());
        assert_eq!(prev, Some(Value::Int(9)));
        assert_eq!(next, Some(Value::Int(12)));
        // The widened gap covers 10 and 11 — the false-conflict interval.
        let gap = point.widen_to_gap(prev, next);
        assert!(gap.contains(&Value::Int(11)));
    }

    #[test]
    fn index_neighbors_open_ended() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 1, Some(pay(&t, 1, 9, None)), 1);
        let col = t.schema.column_index("order_id").unwrap();
        let point = ValueInterval::point(Value::Int(100));
        let (_, (prev, next)) = t.index_scan(col, &point).unwrap();
        assert_eq!(prev, Some(Value::Int(9)));
        assert_eq!(next, None); // the (latest, +inf) hot interval
    }

    #[test]
    fn index_tracks_updates_and_deletes() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 1, Some(pay(&t, 1, 9, None)), 1);
        let col = t.schema.column_index("order_id").unwrap();
        let all = ValueInterval::all();
        assert_eq!(t.index_scan(col, &all).unwrap().0, vec![1]);
        // Update moves the key.
        rows.apply(&t, 1, Some(pay(&t, 1, 20, None)), 2);
        let point9 = ValueInterval::point(Value::Int(9));
        assert!(t.index_scan(col, &point9).unwrap().0.is_empty());
        let point20 = ValueInterval::point(Value::Int(20));
        assert_eq!(t.index_scan(col, &point20).unwrap().0, vec![1]);
        // Delete clears it.
        rows.apply(&t, 1, None, 3);
        assert!(t.index_scan(col, &all).unwrap().0.is_empty());
    }

    #[test]
    fn unique_checks() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 1, Some(pay(&t, 1, 9, Some("tok-a"))), 1);
        // Same token, different row: violation.
        let dup = pay(&t, 2, 12, Some("tok-a"));
        assert!(matches!(
            t.check_unique(&dup, None),
            Err(DbError::UniqueViolation { .. })
        ));
        // Same row updating itself: fine.
        t.check_unique(&dup, Some(1)).unwrap();
        // NULL tokens never collide.
        let n1 = pay(&t, 3, 13, None);
        t.check_unique(&n1, None).unwrap();
        // Non-unique index never complains.
        let same_order = pay(&t, 4, 9, Some("tok-b"));
        t.check_unique(&same_order, None).unwrap();
    }

    #[test]
    fn auto_id_skips_explicit_ids() {
        let t = table();
        let mut rows = Rows::new();
        assert_eq!(t.alloc_id(), 1);
        rows.apply(&t, 10, Some(pay(&t, 10, 9, None)), 1);
        assert_eq!(t.alloc_id(), 11);
    }

    #[test]
    fn missing_index_errors() {
        let t = table();
        // "id" has no secondary index; a scan on it should error.
        let id_col = t.schema.column_index("id").unwrap();
        assert!(matches!(
            t.index_scan(id_col, &ValueInterval::all()),
            Err(DbError::NoIndex { .. })
        ));
    }

    /// The linear walk `pk_neighbors_in` replaced, kept as the oracle.
    fn pk_neighbors_walk(
        pk_set: &BTreeSet<i64>,
        interval: &ValueInterval,
    ) -> (Option<Value>, Option<Value>) {
        let prev = pk_set
            .iter()
            .rev()
            .find(|id| {
                let v = Value::Int(**id);
                !interval.contains(&v)
                    && match &interval.low {
                        Bound::Unbounded => false,
                        Bound::Included(b) | Bound::Excluded(b) => v < *b,
                    }
            })
            .map(|id| Value::Int(*id));
        let next = pk_set
            .iter()
            .find(|id| {
                let v = Value::Int(**id);
                !interval.contains(&v)
                    && match &interval.high {
                        Bound::Unbounded => false,
                        Bound::Included(b) | Bound::Excluded(b) => v > *b,
                    }
            })
            .map(|id| Value::Int(*id));
        (prev, next)
    }

    /// The chain before reclamation, kept as the oracle: every version it
    /// was ever given, read the way the chain reads.
    #[derive(Default)]
    struct NeverPruned(Vec<RowVersion>);

    impl NeverPruned {
        fn visible(&self, snapshot: CommitTs) -> Option<&Row> {
            self.0
                .iter()
                .rev()
                .find(|v| v.commit_ts <= snapshot)
                .and_then(|v| v.data.as_ref())
        }

        fn latest(&self) -> Option<&Row> {
            self.0.last().and_then(|v| v.data.as_ref())
        }

        fn latest_ts(&self) -> CommitTs {
            self.0.last().map(|v| v.commit_ts).unwrap_or(0)
        }
    }

    #[test]
    fn prune_keeps_the_newest_version_at_or_below_the_horizon() {
        let mut chain = VersionChain::default();
        for ts in [2, 4, 6, 8] {
            chain.push(
                RowVersion {
                    commit_ts: ts,
                    data: Some(Row::new(vec![Value::Int(ts as i64)])),
                },
                &mut Vec::new(),
            );
        }
        chain.prune(5, &mut Vec::new());
        assert_eq!(chain.len(), 3, "4, 6 and 8 stay; 2 is unreadable");
        assert_eq!(chain.visible(5).unwrap().values[0], Value::Int(4));
        chain.prune(100, &mut Vec::new());
        assert_eq!(chain.len(), 1, "the newest version always stays");
        assert_eq!(chain.latest_ts(), 8);
    }

    #[test]
    fn the_newest_version_reads_inline() {
        let version = |ts: CommitTs| RowVersion {
            commit_ts: ts,
            data: Some(Row::new(vec![Value::Int(ts as i64)])),
        };
        let read = |row: Option<&Row>| row.map(|row| row.values[0].clone());
        let mut chain = VersionChain::new(version(5));
        assert_eq!((chain.len(), chain.latest_ts()), (1, 5));
        assert_eq!(read(chain.visible(5)), Some(Value::Int(5)));
        assert!(
            chain.visible(4).is_none(),
            "nothing before the first version"
        );
        // The first push moves the old newest version into `older`.
        chain.push(version(9), &mut Vec::new());
        assert_eq!(chain.len(), 2);
        assert_eq!(read(chain.latest()), Some(Value::Int(9)));
        // Exactly at the newest version's timestamp it is the one visible;
        // one below, the older one is.
        assert_eq!(read(chain.visible(9)), Some(Value::Int(9)));
        assert_eq!(read(chain.visible(8)), Some(Value::Int(5)));
        // A horizon below the newest version keeps the one it reads.
        chain.prune(8, &mut Vec::new());
        assert_eq!(chain.len(), 2);
        // A horizon at the newest version empties `older`, and pushes
        // after that fill it again.
        chain.prune(9, &mut Vec::new());
        assert_eq!(chain.len(), 1);
        assert!(chain.visible(8).is_none());
        chain.push(version(12), &mut Vec::new());
        assert_eq!(chain.len(), 2);
        assert_eq!(read(chain.visible(11)), Some(Value::Int(9)));
        // A deletion tombstone inline hides the row at and after it.
        chain.push(
            RowVersion {
                commit_ts: 14,
                data: None,
            },
            &mut Vec::new(),
        );
        assert!(chain.latest().is_none() && chain.visible(14).is_none());
        assert_eq!(read(chain.visible(13)), Some(Value::Int(12)));
    }

    #[test]
    fn a_pending_delete_of_a_row_with_no_history_installs_a_tombstone() {
        let t = table();
        let mut rows = Rows::new();
        rows.apply(&t, 5, None, 3);
        let chain = rows.chain(5).unwrap();
        assert_eq!((chain.len(), chain.latest_ts()), (1, 3));
        assert!(chain.latest().is_none());
        assert!(chain.visible(2).is_none() && chain.visible(3).is_none());
        // An insert after it reads from its own timestamp on.
        rows.apply(&t, 5, Some(pay(&t, 5, 9, None)), 6);
        let chain = rows.chain(5).unwrap();
        assert_eq!(chain.len(), 2);
        assert!(chain.visible(5).is_none());
        assert!(chain.visible(6).is_some());
        let col = t.schema.column_index("order_id").unwrap();
        assert_eq!(t.index_scan(col, &ValueInterval::all()).unwrap().0, vec![5]);
    }

    #[test]
    fn replay_keeps_one_version_per_recovered_row() {
        use crate::engine::EngineProfile;
        let db = crate::Database::in_memory(EngineProfile::MySqlLike);
        db.create_table((*table().schema).clone()).unwrap();
        let t = Arc::clone(db.resolve_table("payments").unwrap());
        let col = t.schema.column_index("order_id").unwrap();
        let ids_at = |order: i64| {
            t.index_scan(col, &ValueInterval::point(Value::Int(order)))
                .unwrap()
                .0
        };
        let chain = |id: i64| {
            db.with_chain(t.id, id, |c| {
                c.map(|c| {
                    (
                        c.len(),
                        c.latest_ts(),
                        c.latest().is_some(),
                        c.visible(6).is_some(),
                    )
                })
            })
        };
        db.install_recovered(&t, 1, 4, Some(pay(&t, 1, 9, None)));
        assert_eq!(chain(1), Some((1, 4, true, true)));
        // A later version replaces the chain and moves the index entry;
        // nothing reads during boot, so no older version is kept.
        db.install_recovered(&t, 1, 7, Some(pay(&t, 1, 12, None)));
        assert_eq!(chain(1), Some((1, 7, true, false)));
        assert_eq!((ids_at(9), ids_at(12)), (vec![], vec![1]));
        // A recovered deletion of a row with no history is a tombstone.
        db.install_recovered(&t, 2, 8, None);
        assert_eq!(chain(2), Some((1, 8, false, false)));
        // A recovered deletion of a live row leaves only its tombstone.
        db.install_recovered(&t, 1, 9, None);
        assert_eq!(chain(1), Some((1, 9, false, false)));
        assert!(ids_at(12).is_empty());
        assert_eq!(t.alloc_id(), 3, "replay reserves the recovered ids");
    }

    /// The postings before sorted vectors, kept as the oracle: an ordered
    /// set of ids per key, per indexed column, moved the way `apply_index`
    /// moves them.
    struct SetPostings(BTreeMap<usize, BTreeMap<Value, BTreeSet<i64>>>);

    impl SetPostings {
        fn new(t: &Table) -> Self {
            SetPostings(
                t.schema
                    .indexes
                    .iter()
                    .map(|(col, _)| (*col, BTreeMap::new()))
                    .collect(),
            )
        }

        fn apply(&mut self, t: &Table, id: i64, old: Option<&Row>, new: Option<&Row>) {
            for (col, _) in &t.schema.indexes {
                let map = self.0.get_mut(col).unwrap();
                if let Some(key) = old.map(|row| row.at(*col)) {
                    if let Some(ids) = map.get_mut(key) {
                        ids.remove(&id);
                        if ids.is_empty() {
                            map.remove(key);
                        }
                    }
                }
                if let Some(new) = new {
                    map.entry(new.at(*col).clone()).or_default().insert(id);
                }
            }
        }

        fn candidates(&self, col: usize, interval: &ValueInterval) -> Vec<i64> {
            self.0[&col]
                .iter()
                .filter(|(key, _)| interval.contains(key))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect()
        }

        fn neighbors(
            &self,
            col: usize,
            interval: &ValueInterval,
        ) -> (Option<Value>, Option<Value>) {
            let map = &self.0[&col];
            let prev = map.keys().rev().find(|key| match &interval.low {
                Bound::Unbounded => false,
                Bound::Included(b) => *key < b,
                Bound::Excluded(b) => *key <= b,
            });
            let next = map.keys().find(|key| match &interval.high {
                Bound::Unbounded => false,
                Bound::Included(b) => *key > b,
                Bound::Excluded(b) => *key >= b,
            });
            (prev.cloned(), next.cloned())
        }

        fn unique_conflict(&self, t: &Table, row: &Row, exclude_id: Option<i64>) -> bool {
            t.schema.indexes.iter().any(|(col, unique)| {
                let key = row.at(*col);
                *unique
                    && !key.is_null()
                    && self.0[col]
                        .get(key)
                        .is_some_and(|ids| ids.iter().any(|id| Some(*id) != exclude_id))
            })
        }
    }

    /// Every non-empty interval over `values`: each pair of bound kinds on
    /// each ordered pair of values.
    fn intervals(values: &[Value]) -> Vec<ValueInterval> {
        let mut out = Vec::new();
        for low_value in values {
            for high_value in values.iter().filter(|high| *high >= low_value) {
                for low in bound_kinds(low_value) {
                    for high in bound_kinds(high_value) {
                        let both_excluded =
                            matches!((&low, &high), (Bound::Excluded(_), Bound::Excluded(_)));
                        if low_value == high_value && both_excluded {
                            continue; // an empty range `BTreeMap::range` rejects
                        }
                        out.push(ValueInterval {
                            low: low.clone(),
                            high,
                        });
                    }
                }
            }
        }
        out
    }

    /// Postings equivalence: sorted-vector postings answer candidates, gap
    /// neighbours and unique checks exactly as ordered id sets do, after
    /// every step of seeded sequences mixing inserts in id order (an
    /// append) and out of it, repeated inserts of an id, removals of
    /// present and absent ids, and key-changing moves — on a non-unique
    /// index and on a unique one whose keys collide.
    #[test]
    fn sorted_postings_match_ordered_sets() {
        use rand::Rng;
        let tokens = [None, Some("t0"), Some("t1"), Some("t2")];
        let order_values: Vec<Value> = (-1..=5).map(Value::Int).collect();
        let token_values: Vec<Value> = tokens
            .iter()
            .map(|tok| tok.map(Value::from).unwrap_or(Value::Null))
            .collect();
        let (order_intervals, token_intervals) =
            (intervals(&order_values), intervals(&token_values));
        for seed in 0..48 {
            let mut rng = adhoc_sim::rng::seeded(seed);
            let t = table();
            let (order, token) = (
                t.schema.column_index("order_id").unwrap(),
                t.schema.column_index("token").unwrap(),
            );
            let mut reference = SetPostings::new(&t);
            let mut latest: BTreeMap<i64, Row> = BTreeMap::new();
            let mut next_id = 100;
            for step in 0..40 {
                let (id, key) = (rng.gen_range(0..24), rng.gen_range(0..5));
                let tok = tokens[rng.gen_range(0..tokens.len())];
                let row = |id: i64| pay(&t, id, key, tok);
                let (id, old, new) = match rng.gen_range(0..5) {
                    // Insert in id order: the posting is appended.
                    0 | 1 => {
                        next_id += 1;
                        (next_id, None, Some(row(next_id)))
                    }
                    // Insert out of id order, or again for an id posted.
                    2 => (id, None, Some(row(id))),
                    // Remove the id's latest row, or a row it never had.
                    3 => (
                        id,
                        Some(latest.get(&id).cloned().unwrap_or_else(|| row(id))),
                        None,
                    ),
                    // Move the id's latest row to another key.
                    _ => (id, latest.get(&id).cloned(), Some(row(id))),
                };
                t.apply_index(id, old.as_ref(), new.as_ref());
                reference.apply(&t, id, old.as_ref(), new.as_ref());
                match &new {
                    Some(new) => latest.insert(id, new.clone()),
                    None => latest.remove(&id),
                };
                let at = format!("seed {seed} step {step}");
                for (col, all) in [(order, &order_intervals), (token, &token_intervals)] {
                    for interval in all {
                        let (candidates, neighbors) = t.index_scan(col, interval).unwrap();
                        assert_eq!(
                            candidates,
                            reference.candidates(col, interval),
                            "{at}: candidates on column {col} over {interval:?}"
                        );
                        assert_eq!(
                            neighbors,
                            reference.neighbors(col, interval),
                            "{at}: neighbours on column {col} over {interval:?}"
                        );
                    }
                }
                for probe in tokens.iter().map(|tok| pay(&t, id, key, *tok)) {
                    for exclude_id in [None, Some(id), Some(next_id)] {
                        assert_eq!(
                            t.check_unique(&probe, exclude_id).is_err(),
                            reference.unique_conflict(&t, &probe, exclude_id),
                            "{at}: unique check of {probe:?} excluding {exclude_id:?}"
                        );
                    }
                }
            }
        }
    }

    fn bound_kinds(v: &Value) -> [Bound<Value>; 3] {
        [
            Bound::Unbounded,
            Bound::Included(v.clone()),
            Bound::Excluded(v.clone()),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Plan equivalence: the two ordered look-ups return exactly what
        /// the walk returned, for every bound-kind pair and for bound
        /// values below, on, between and above the keys — over empty,
        /// singleton, dense (stride 1) and sparse (stride 7) key sets, and
        /// for bounds that are not integers at all.
        #[test]
        fn pk_neighbors_match_the_linear_walk(
            keys in proptest::collection::vec(-12i64..12, 0..10),
            stride in proptest::prop_oneof![proptest::Just(1i64), proptest::Just(7i64)],
        ) {
            let pk_set: BTreeSet<i64> = keys.iter().map(|k| k * stride).collect();
            let mut values: Vec<Value> = pk_set
                .iter()
                .flat_map(|k| [k - 1, *k, k + 1])
                .chain([-100, 0, 100])
                .map(Value::Int)
                .collect();
            values.extend([Value::Null, Value::Bool(true), Value::from("m")]);
            for low_value in &values {
                for high_value in &values {
                    for low in bound_kinds(low_value) {
                        for high in bound_kinds(high_value) {
                            let interval = ValueInterval { low: low.clone(), high };
                            proptest::prop_assert_eq!(
                                Table::pk_neighbors_in(&pk_set, &interval),
                                pk_neighbors_walk(&pk_set, &interval),
                                "keys {:?}, interval {:?}",
                                pk_set,
                                interval
                            );
                        }
                    }
                }
            }
        }

        /// Reclamation equivalence: two chains of one shard, pushed through
        /// its spare vector, answer `visible` at every snapshot from the
        /// horizon up, `latest` and `latest_ts` exactly as chains that keep
        /// everything, after every push, prune and retirement — tombstones,
        /// repeated timestamps and a horizon that stalls or jumps to the
        /// newest commit included — and never drop their newest version. A
        /// retirement at a commit's timestamp `r` (the chain's newest or an
        /// older one, never below the horizon) raises the horizon to `r`.
        /// After any prune, a chain whose newest version is at or below its
        /// horizon holds it alone and hands its emptied vector to a free
        /// spare, and the next push of a chain with no vector takes the
        /// spare's.
        #[test]
        fn a_pruned_chain_reads_like_the_never_pruned_one(
            steps in proptest::collection::vec(
                (
                    proptest::any::<bool>(),
                    0u64..3,
                    proptest::any::<bool>(),
                    0u64..5,
                    (proptest::any::<bool>(), 0u64..3),
                ),
                0..64,
            ),
        ) {
            fn prune_checked(
                chain: &mut VersionChain,
                spare: &mut Vec<RowVersion>,
                horizon: CommitTs,
            ) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
                let (emptied, free) = (chain.older.capacity(), spare.capacity() == 0);
                chain.prune(horizon, spare);
                if chain.latest_ts() <= horizon {
                    proptest::prop_assert!(!chain.holds_older() && chain.older.capacity() == 0);
                    if free {
                        proptest::prop_assert_eq!(spare.capacity(), emptied, "the spare is filled");
                    }
                }
                Ok(())
            }
            let mut chains = [VersionChain::default(), VersionChain::default()];
            let mut references = [NeverPruned::default(), NeverPruned::default()];
            let mut spare = Vec::new();
            let (mut ts, mut horizon) = (1, 0);
            for (i, (second, gap, tombstone, advance, (retire, lag))) in steps.into_iter().enumerate() {
                let (chain, reference) = (&mut chains[second as usize], &mut references[second as usize]);
                ts += gap;
                horizon = (horizon + advance).min(ts);
                let version = RowVersion {
                    commit_ts: ts,
                    data: (!tombstone).then(|| Row::new(vec![Value::Int(i as i64)])),
                };
                reference.0.push(version.clone());
                let (own, offered) = (chain.older.capacity(), spare.capacity());
                chain.push(version, &mut spare);
                if own == 0 && offered > 0 {
                    proptest::prop_assert_eq!(chain.older.capacity(), offered, "the spare is taken");
                    proptest::prop_assert_eq!(spare.capacity(), 0);
                }
                prune_checked(chain, &mut spare, horizon)?;
                if retire {
                    horizon = ts.saturating_sub(lag).max(horizon);
                    prune_checked(chain, &mut spare, horizon)?;
                }
                proptest::prop_assert!(spare.is_empty());
                for (chain, reference) in chains.iter().zip(&references) {
                    proptest::prop_assert!(chain.len() >= 1);
                    proptest::prop_assert_eq!(chain.latest(), reference.latest());
                    proptest::prop_assert_eq!(chain.latest_ts(), reference.latest_ts());
                    for snapshot in horizon..=ts + 1 {
                        proptest::prop_assert_eq!(
                            chain.visible(snapshot),
                            reference.visible(snapshot),
                            "snapshot {} at horizon {}",
                            snapshot,
                            horizon
                        );
                    }
                }
            }
        }
    }
}
