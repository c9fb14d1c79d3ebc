//! Write-ahead log: a simulated durable medium for the in-memory engine.
//!
//! Every committed transaction appends one CRC-framed record holding its
//! footprint-ordered write set (the exact rows `try_commit` installed,
//! in install order), its integers written as varints (see "Record
//! framing" below). The log models a real disk with two regions:
//!
//! * the **durable prefix** (`..durable`) — bytes that survived an
//!   `fsync`; this is all a restarted process gets back, and
//! * the **volatile tail** (`durable..`) — bytes sitting in the OS
//!   page cache, gone the instant the process dies.
//!
//! Offsets are *logical* (LSNs): the count of bytes appended before a
//! frame since the log was created. A **checkpoint** bounds the log by the
//! live data rather than by history. It writes the newest version of every
//! row as checkpoint frames, then an end frame; once the end frame is
//! durable, it drops the log before the checkpoint's start
//! ([`Wal::truncate`]). The bytes move down in the one buffer, whose
//! capacity stays, and the LSNs do not move: an LSN taken before a
//! truncation still names the same frame. A checkpoint is due once the log
//! has grown past the last one's end by [`CHECKPOINT_GROWTH`] times its
//! bytes (and by [`CHECKPOINT_FLOOR`]). The append that makes it due says
//! so to its own committer ([`WalAppend::checkpoint_due`]), which writes
//! it whole after releasing its locks, as [`Database::checkpoint`] does:
//! a checkpoint opens and ends inside one call, never across commits. The
//! log keeps the checkpoint's state under its one mutex: where the open
//! one started, its bytes so far, and the last one's span.
//!
//! The fsync boundary is driven by the engine's deterministic clock
//! through [`WalSyncPolicy`]: `OnCommit` syncs inside every commit (the
//! safe default the crash oracle assumes). `GroupCommit` keeps the
//! acked-⇒-durable contract *and* amortizes the fsync: appends never sync
//! inline, and each committer calls [`Wal::ensure_durable`] after
//! releasing its shard locks — returning at once when a leader's fsync
//! already covered its record, or becoming the leader and syncing the
//! whole accumulated tail in one flush.
//!
//! Commit records are framed **streamed**: [`Wal::append_streamed`] hands
//! the committer a [`WalEncoder`] that serializes the write set directly
//! into the log buffer (length and CRC backpatched), so the hot commit
//! path allocates no intermediate record, clones no table name, and
//! copies each row exactly once.
//!
//! A torn write ([`Wal::sync_torn`], driven by
//! [`FaultKind::TornWrite`](adhoc_sim::FaultKind)) advances the fsync
//! watermark into the *middle* of the tail record, modelling a crash
//! mid-flush; [`crate::recovery`] detects the partial frame (short or
//! CRC-mismatched) and truncates the tail, never replaying half a
//! transaction — the atomicity half of the §3.4 failure-handling story.
//! A checkpoint torn the same way has no end frame, so recovery ignores
//! its frames and replays the log before it, which is still there.
//!
//! [`Database::checkpoint`]: crate::Database::checkpoint

use crate::value::Value;
use adhoc_sim::SharedClock;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Duration;

/// When the log syncs its tail to the durable medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// Fsync inside every commit, before the client is acknowledged: an
    /// acked commit is always durable (PostgreSQL `synchronous_commit=on`).
    OnCommit,
    /// Group commit: appends never sync inline. Each committer calls
    /// [`Wal::ensure_durable`] *after* dropping its shard locks and before
    /// acknowledging the client; one leader fsync covers every record
    /// appended since the last boundary, so concurrent commits share a
    /// flush while an acked commit is still always durable.
    GroupCommit,
}

/// One write inside a commit record: `row = None` is a deletion tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalWrite {
    /// Table name (schemas are re-created by app setup before replay, so
    /// names — not positional ids — are the stable identity).
    pub table: String,
    /// Primary key.
    pub id: i64,
    /// Positional row values, `None` for a delete.
    pub row: Option<Vec<Value>>,
}

/// One committed transaction's write set, as framed in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The commit timestamp the engine assigned.
    pub commit_ts: u64,
    /// The write set, in install (footprint) order.
    pub writes: Vec<WalWrite>,
}

/// Counters describing the log (diagnostics / bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Commit records appended since creation.
    pub records: u64,
    /// Fsyncs performed (including torn ones).
    pub syncs: u64,
    /// Commit-record bytes appended since creation. Checkpoint frames are
    /// not counted and truncation takes nothing back, so it only grows.
    pub len: usize,
    /// The fsync watermark, an LSN: every byte appended below it is
    /// durable. Checkpoint frames count here, so it passes `len` once the
    /// log has checkpointed.
    pub durable_len: usize,
    /// Checkpoints written (end frame appended) since creation.
    pub checkpoints: u64,
    /// Checkpoint-frame bytes appended since creation, end frames included.
    pub checkpoint_bytes: usize,
    /// Bytes the log holds now: what the last truncation kept, and every
    /// frame appended since.
    pub held: usize,
}

/// A checkpoint is due once the log has grown past the end of the last
/// one by this multiple of that checkpoint's own frame bytes…
pub const CHECKPOINT_GROWTH: usize = 2;

/// …and by at least this many bytes, so a small log never checkpoints.
pub const CHECKPOINT_FLOOR: usize = 64 * 1024;

/// Where one checkpoint sits in the log.
#[derive(Debug, Clone, Copy, Default)]
struct CheckpointSpan {
    /// The log's end LSN when it began: its image covers every record
    /// below, so a truncation may drop them.
    start: usize,
    /// LSN just past its end frame (0 while it is open).
    end: usize,
    /// Its frame bytes (so far, while it is open).
    bytes: usize,
}

#[derive(Debug)]
struct WalInner {
    buf: Vec<u8>,
    /// LSN of `buf[0]`: the bytes truncations have dropped.
    base: usize,
    /// LSN of the fsync watermark.
    durable: usize,
    records: u64,
    syncs: u64,
    commit_bytes: usize,
    checkpoints: u64,
    checkpoint_bytes: usize,
    /// The last checkpoint that ended (all zeros before any).
    last_checkpoint: CheckpointSpan,
    /// The checkpoint being written, if one is open.
    open_checkpoint: Option<CheckpointSpan>,
    /// A flush is in flight on the (single) simulated device. Held only
    /// across a nonzero-latency flush, during which the buffer mutex is
    /// RELEASED — appends and new commits proceed while the device is
    /// busy, which is what lets one group-commit flush cover them.
    flushing: bool,
}

impl WalInner {
    /// LSN of the end of the log.
    fn end(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Whether the log has grown enough since the last checkpoint for the
    /// next one, and none is being written.
    fn checkpoint_due(&self) -> bool {
        let last = self.last_checkpoint;
        self.open_checkpoint.is_none()
            && self.end() - last.end > (CHECKPOINT_GROWTH * last.bytes).max(CHECKPOINT_FLOOR)
    }

    /// Open a checkpoint at the end of the log; returns its start LSN.
    fn begin_checkpoint(&mut self) -> usize {
        let start = self.end();
        self.open_checkpoint = Some(CheckpointSpan {
            start,
            ..CheckpointSpan::default()
        });
        start
    }

    /// Append one frame, `[len][crc]` backpatched around the payload `f`
    /// writes. Returns the frame's bytes.
    fn frame(&mut self, f: impl FnOnce(&mut Vec<u8>)) -> usize {
        let frame_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        let payload_at = self.buf.len();
        f(&mut self.buf);
        let payload_len = self.buf.len() - payload_at;
        let crc = crc32(&self.buf[payload_at..]);
        self.buf[frame_at..frame_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf[frame_at + 4..frame_at + 8].copy_from_slice(&crc.to_le_bytes());
        self.buf.len() - frame_at
    }
}

/// The log state behind one mutex. Nobody waits on that mutex behind a
/// device flush: a modeled fsync sleeps with it released, and a
/// zero-latency one is a single store.
#[derive(Debug)]
struct WalShared {
    state: Mutex<WalInner>,
    /// Signalled when an in-flight flush completes (`flushing` cleared).
    flushed: Condvar,
}

/// The shared log handle. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct Wal {
    shared: Arc<WalShared>,
    policy: WalSyncPolicy,
    clock: SharedClock,
    /// Simulated cost of one fsync, charged on the engine clock inside
    /// every sync, with the log mutex *released* (a busy device does not
    /// block writes into the OS buffer), so under `GroupCommit` one
    /// leader pays it while followers keep appending and then free-ride —
    /// exactly the amortization the policy exists for. Zero charges
    /// nothing; nonzero models a real storage device.
    fsync_latency: Duration,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// An empty log with the given sync policy, on the engine's clock,
    /// charging `fsync_latency` for every fsync.
    pub fn new(policy: WalSyncPolicy, clock: SharedClock, fsync_latency: Duration) -> Self {
        Self {
            shared: Arc::new(WalShared {
                state: Mutex::new(WalInner {
                    buf: Vec::new(),
                    base: 0,
                    durable: 0,
                    records: 0,
                    syncs: 0,
                    commit_bytes: 0,
                    checkpoints: 0,
                    checkpoint_bytes: 0,
                    last_checkpoint: CheckpointSpan::default(),
                    open_checkpoint: None,
                    flushing: false,
                }),
                flushed: Condvar::new(),
            }),
            policy,
            clock,
            fsync_latency,
        }
    }

    /// Append one commit record by streaming its writes straight into the
    /// log buffer — no intermediate payload allocation — then sync
    /// according to the policy. `f` receives a [`WalEncoder`] and must
    /// write the record's rows in install order. Returns whether the
    /// record is durable, the end offset (LSN) of the appended frame, for
    /// [`ensure_durable`](Self::ensure_durable), and whether a checkpoint
    /// is due.
    pub fn append_streamed(
        &self,
        commit_ts: u64,
        f: impl FnOnce(&mut WalEncoder<'_>),
    ) -> WalAppend {
        let mut inner = self.shared.state.lock();
        Self::encode_streamed(&mut inner, commit_ts, f);
        let end = inner.end();
        let checkpoint_due = inner.checkpoint_due();
        let durable = match self.policy {
            WalSyncPolicy::OnCommit => {
                // The naive discipline: this commit issues (and pays for)
                // its own fsync, serialized on the device.
                self.flush_locked(inner, end, false);
                true
            }
            WalSyncPolicy::GroupCommit => false,
        };
        WalAppend {
            durable,
            end,
            checkpoint_due,
        }
    }

    /// Append one streamed record *without* syncing, regardless of policy
    /// (the crash-shaped commit paths). Returns the frame's end LSN.
    pub fn append_streamed_no_sync(
        &self,
        commit_ts: u64,
        f: impl FnOnce(&mut WalEncoder<'_>),
    ) -> usize {
        let mut inner = self.shared.state.lock();
        Self::encode_streamed(&mut inner, commit_ts, f);
        inner.end()
    }

    fn encode_streamed(inner: &mut WalInner, commit_ts: u64, f: impl FnOnce(&mut WalEncoder<'_>)) {
        inner.commit_bytes += inner.frame(|buf| {
            put_var(buf, commit_ts);
            f(&mut WalEncoder { buf });
        });
        inner.records += 1;
    }

    /// Open a checkpoint at the log's end LSN and return that start, or
    /// `None` while another one is open. Every frame below the start must
    /// be reflected in the rows the checkpoint then writes: the engine
    /// appends a commit record and installs its rows under the same shard
    /// guards, so a row read under its shard guard after this call covers
    /// every record of it below the start.
    pub fn begin_checkpoint(&self) -> Option<usize> {
        let mut inner = self.shared.state.lock();
        inner
            .open_checkpoint
            .is_none()
            .then(|| inner.begin_checkpoint())
    }

    /// [`begin_checkpoint`](Self::begin_checkpoint), but only while one is
    /// due: an append's due report can go stale once another writer ends
    /// a checkpoint, so the writer asks again under the log mutex.
    pub(crate) fn begin_due_checkpoint(&self) -> Option<usize> {
        let mut inner = self.shared.state.lock();
        inner.checkpoint_due().then(|| inner.begin_checkpoint())
    }

    /// Append one checkpoint frame of row images to the open checkpoint.
    /// `tables` names the tables its rows refer to, by position.
    ///
    /// # Panics
    /// When no checkpoint is open.
    pub fn append_checkpoint(&self, tables: &[&str], f: impl FnOnce(&mut CheckpointEncoder<'_>)) {
        let mut inner = self.shared.state.lock();
        let bytes = inner.frame(|buf| {
            buf.extend_from_slice(&CHECKPOINT_MARK);
            put_var(buf, tables.len() as u64);
            for table in tables {
                put_bytes(buf, table.as_bytes());
            }
            f(&mut CheckpointEncoder { buf });
        });
        Self::count_checkpoint(&mut inner, bytes);
    }

    /// Close the open checkpoint with its end frame, unsynced. Returns the
    /// end frame's LSN, for [`ensure_durable`](Self::ensure_durable)
    /// before [`truncate`](Self::truncate).
    ///
    /// # Panics
    /// When no checkpoint is open.
    pub fn end_checkpoint(&self) -> usize {
        let mut inner = self.shared.state.lock();
        let bytes = inner.frame(|buf| buf.extend_from_slice(&CHECKPOINT_MARK));
        Self::count_checkpoint(&mut inner, bytes);
        let mut ended = inner.open_checkpoint.take().expect("a checkpoint is open");
        ended.end = inner.end();
        inner.last_checkpoint = ended;
        inner.checkpoints += 1;
        ended.end
    }

    fn count_checkpoint(inner: &mut WalInner, bytes: usize) {
        let open = (inner.open_checkpoint.as_mut()).expect("a checkpoint is open");
        open.bytes += bytes;
        inner.checkpoint_bytes += bytes;
    }

    /// Drop every byte below the start of the last checkpoint that ended,
    /// once its end frame is durable; before that, or when an earlier
    /// truncation already dropped them, it drops nothing. The kept bytes
    /// move down within the buffer, which keeps its capacity; LSNs are
    /// unchanged.
    pub fn truncate(&self) {
        let mut inner = self.shared.state.lock();
        let last = inner.last_checkpoint;
        if last.end <= inner.durable && last.start > inner.base {
            let cut = last.start - inner.base;
            inner.buf.drain(..cut);
            inner.base = last.start;
        }
    }

    /// Group-commit durability point: return once every byte up to `lsn`
    /// is durable. When a concurrent leader's fsync already covered our
    /// frame, that is one check under the log mutex; otherwise become the
    /// leader and sync the whole accumulated tail: one flush covers every
    /// commit that appended since the last boundary.
    pub fn ensure_durable(&self, lsn: usize) {
        let inner = self.shared.state.lock();
        self.flush_locked(inner, lsn, true);
    }

    /// Force the whole tail durable.
    pub fn sync(&self) {
        let inner = self.shared.state.lock();
        let target = inner.end();
        self.flush_locked(inner, target, true);
    }

    /// Make every byte up to `target` durable. One flush is in flight at
    /// a time (the simulated device is serial); a nonzero device latency
    /// is slept with the buffer mutex RELEASED, so appends — and whole
    /// commits — land while the device is busy.
    ///
    /// `share` distinguishes the two §7 durability disciplines: a shared
    /// flush (group commit, explicit `sync`) lets late arrivals
    /// free-ride on a flush that already covered their bytes, while an
    /// unshared one (the naive per-commit fsync) makes every caller pay
    /// the device in turn — the serialization tax group commit exists to
    /// amortize. Returns with `target` durable.
    fn flush_locked<'a>(&'a self, mut inner: MutexGuard<'a, WalInner>, target: usize, share: bool) {
        loop {
            if share && inner.durable >= target {
                return; // covered — free-ride on a completed flush
            }
            if !inner.flushing {
                break; // device idle: become the leader
            }
            // Device busy: wait out the in-flight flush, then re-check.
            self.shared.flushed.wait(&mut inner);
        }
        // A real fsync covers what reached the OS buffer when it started.
        let covered = inner.end();
        if self.fsync_latency.is_zero() {
            inner.durable = covered;
        } else {
            inner.flushing = true;
            drop(inner);
            self.clock.sleep(self.fsync_latency);
            inner = self.shared.state.lock();
            inner.flushing = false;
            inner.durable = inner.durable.max(covered);
        }
        inner.syncs += 1;
        self.shared.flushed.notify_all();
    }

    /// A torn flush: advance the fsync watermark into the *middle* of the
    /// volatile tail (deterministically: half its bytes, at least one byte
    /// short of complete). A subsequent crash leaves a partial frame on
    /// the durable medium for recovery to truncate. No-op on an empty
    /// tail.
    pub fn sync_torn(&self) {
        let mut inner = self.shared.state.lock();
        let tail = inner.end() - inner.durable;
        if tail == 0 {
            return;
        }
        // Half the tail makes it down; at least one byte is always lost.
        let kept = if tail <= 1 { 0 } else { (tail / 2).max(1) };
        inner.durable += kept;
        inner.syncs += 1;
    }

    /// What a restarted process reads back: the durable part of the bytes
    /// the log holds. The volatile tail died with the page cache.
    pub fn durable_bytes(&self) -> Vec<u8> {
        let inner = self.shared.state.lock();
        inner.buf[..inner.durable - inner.base].to_vec()
    }

    /// The bytes the log holds, volatile tail included (diagnostics only —
    /// a crashed process never sees this).
    pub fn all_bytes(&self) -> Vec<u8> {
        self.shared.state.lock().buf.clone()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> WalStats {
        let inner = self.shared.state.lock();
        WalStats {
            records: inner.records,
            syncs: inner.syncs,
            len: inner.commit_bytes,
            durable_len: inner.durable,
            checkpoints: inner.checkpoints,
            checkpoint_bytes: inner.checkpoint_bytes,
            held: inner.buf.len(),
        }
    }

    /// The last checkpoint that ended: its LSN span, from its start to
    /// just past its end frame, and its own frame bytes.
    #[cfg(test)]
    pub(crate) fn last_checkpoint(&self) -> (std::ops::Range<usize>, usize) {
        let last = self.shared.state.lock().last_checkpoint;
        (last.start..last.end, last.bytes)
    }
}

/// Result of [`Wal::append_streamed`]: whether the frame is already
/// durable, and its end LSN for [`Wal::ensure_durable`].
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// The appended frame is below the fsync watermark already.
    pub durable: bool,
    /// End LSN of the appended frame.
    pub end: usize,
    /// The log has grown far enough past the last checkpoint for the next
    /// one, and none is open: the committer writes it.
    pub checkpoint_due: bool,
}

/// Streaming record serializer handed out by [`Wal::append_streamed`]:
/// writes row frames directly into the log buffer, in install order,
/// producing byte-for-byte the same encoding as [`encode_payload`].
pub struct WalEncoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl WalEncoder<'_> {
    /// Append one write: `row = None` is a deletion tombstone.
    pub fn write(&mut self, table: &str, id: i64, row: Option<&[Value]>) {
        put_bytes(self.buf, table.as_bytes());
        put_row(self.buf, id, row);
    }
}

/// Checkpoint-frame serializer handed out by [`Wal::append_checkpoint`].
pub struct CheckpointEncoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl CheckpointEncoder<'_> {
    /// Append one row's image: the position of its table in the frame's
    /// table list, the commit timestamp of its newest version, its id, and
    /// its values (`None` for a tombstone).
    pub fn row(&mut self, table: usize, commit_ts: u64, id: i64, row: Option<&[Value]>) {
        put_var(self.buf, table as u64);
        put_var(self.buf, commit_ts);
        put_row(self.buf, id, row);
    }
}

// ---------------------------------------------------------------------------
// Record framing: [payload_len: u32 LE][crc32(payload): u32 LE][payload].
//
// The payload is `var(commit_ts)` followed by the writes, each
// `var(name_len) name zigzag(id)` and then `var(0)` for a delete or
// `var(1 + columns)` and the values. A value is a tag byte and its body:
// Null (0) none, Int (1) `zigzag`, Str (2) `var(len) bytes`, Bool (3) one
// byte. `var` is unsigned LEB128; `zigzag` maps signed values to unsigned
// ones so small magnitudes of either sign stay short. The frame length
// bounds the payload, so writes carry no count: they run to its end.
//
// A checkpoint frame's payload opens with `0x80 0x00`, an overlong varint
// zero. The commit decoder accepts canonical varints only, so no commit
// payload opens that way, and commit frames keep their bytes. An image
// frame follows the mark with its table list, `var(tables)` and each
// `var(name_len) name`, and then its rows, each `var(table position)
// var(commit_ts) zigzag(id)` and the same delete-or-values body as a
// write. The end frame is the mark alone.
// ---------------------------------------------------------------------------

/// The opening bytes of every checkpoint payload.
const CHECKPOINT_MARK: [u8; 2] = [0x80, 0x00];

/// Slice-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table, and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    // CRC-32 (IEEE 802.3), reflected, polynomial 0xEDB88320.
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for b in chunks.remainder() {
        c = t[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append `v` as an LEB128 varint: seven bits per byte, low group first,
/// the high bit set on every byte but the last.
fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_var(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(n) => {
            buf.push(1);
            put_var(buf, zigzag(*n));
        }
        Value::Str(s) => {
            buf.push(2);
            put_bytes(buf, s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(3);
            buf.push(*b as u8);
        }
    }
}

/// A row's id and its delete-or-values body, shared by commit writes and
/// checkpoint images.
fn put_row(buf: &mut Vec<u8>, id: i64, row: Option<&[Value]>) {
    put_var(buf, zigzag(id));
    match row {
        None => put_var(buf, 0),
        Some(values) => {
            put_var(buf, 1 + values.len() as u64);
            for v in values {
                put_value(buf, v);
            }
        }
    }
}

/// Serialize a record's payload (everything inside the frame).
pub fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + record.writes.len() * 24);
    put_var(&mut p, record.commit_ts);
    for w in &record.writes {
        put_bytes(&mut p, w.table.as_bytes());
        put_row(&mut p, w.id, w.row.as_deref());
    }
    p
}

/// Why decoding stopped before the end of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The stream ended exactly on a frame boundary.
    Clean,
    /// A frame header or body extended past the end of the stream — a torn
    /// write. `at` is the offset of the bad frame; everything from there
    /// is truncated.
    Torn {
        /// Offset of the first incomplete frame.
        at: usize,
    },
    /// A complete frame whose payload fails its CRC — bit rot or a torn
    /// write that happened to leave a full-length garbage frame. Truncated
    /// the same way.
    Corrupt {
        /// Offset of the bad frame.
        at: usize,
    },
}

/// One row of a checkpoint image: the row's newest version when the
/// checkpoint wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRow {
    /// Commit timestamp of that version.
    pub commit_ts: u64,
    /// The row as a write: `row = None` is a tombstone.
    pub write: WalWrite,
}

/// A decoded log: every intact record plus how the stream ended.
#[derive(Debug, Clone)]
pub struct WalImage {
    /// Commit records with verified checksums, in append order.
    pub records: Vec<WalRecord>,
    /// The rows of every checkpoint whose end frame is in the stream. A
    /// checkpoint cut off before its end frame contributes none.
    pub checkpoint: Vec<CheckpointRow>,
    /// How the byte stream terminated.
    pub tail: WalTail,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Read a varint, accepting only the canonical encoding `put_var`
    /// writes: no value wider than 64 bits, no trailing zero group.
    fn var(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            if shift == 63 && b > 1 {
                return None; // the tenth byte holds bit 63 only
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return (b != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.var()?).ok()
    }

    fn str(&mut self, len: usize) -> Option<String> {
        self.take(len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .map(str::to_string)
    }
}

fn decode_value(c: &mut Cursor<'_>) -> Option<Value> {
    match c.take(1)?[0] {
        0 => Some(Value::Null),
        1 => c.var().map(|v| Value::Int(unzigzag(v))),
        2 => {
            let len = c.len()?;
            c.str(len).map(Value::Str)
        }
        3 => c.take(1).and_then(|b| match b[0] {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        }),
        _ => None,
    }
}

/// Decode a row's id and its delete-or-values body.
fn decode_row(c: &mut Cursor<'_>) -> Option<(i64, Option<Vec<Value>>)> {
    let id = unzigzag(c.var()?);
    let row = match c.len()? {
        0 => None,
        n => {
            // Every value takes at least one byte.
            let mut values = Vec::with_capacity((n - 1).min(c.bytes.len() - c.pos));
            for _ in 1..n {
                values.push(decode_value(c)?);
            }
            Some(values)
        }
    };
    Some((id, row))
}

/// Decode one verified payload. `None` on any malformed or non-canonical
/// structure (the caller treats it like a CRC failure — belt and braces;
/// a verified CRC makes this unreachable for frames this module wrote).
/// A payload that decodes re-encodes to exactly its own bytes.
pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let commit_ts = c.var()?;
    let mut writes = Vec::new();
    while c.pos < payload.len() {
        let table_len = c.len()?;
        let table = c.str(table_len)?;
        let (id, row) = decode_row(&mut c)?;
        writes.push(WalWrite { table, id, row });
    }
    Some(WalRecord { commit_ts, writes })
}

/// A decoded checkpoint frame.
#[derive(Debug, PartialEq, Eq)]
enum CheckpointFrame {
    /// Row images.
    Rows(Vec<CheckpointRow>),
    /// The end of a checkpoint.
    End,
}

/// Decode one verified checkpoint payload; `None` when it is not a
/// well-formed one.
fn decode_checkpoint(payload: &[u8]) -> Option<CheckpointFrame> {
    let body = payload.strip_prefix(&CHECKPOINT_MARK)?;
    if body.is_empty() {
        return Some(CheckpointFrame::End);
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let n = c.len()?;
    // Every name takes at least one byte.
    let mut tables = Vec::with_capacity(n.min(body.len()));
    for _ in 0..n {
        let len = c.len()?;
        tables.push(c.str(len)?);
    }
    let mut rows = Vec::new();
    while c.pos < body.len() {
        let table = tables.get(c.len()?)?.clone();
        let commit_ts = c.var()?;
        let (id, row) = decode_row(&mut c)?;
        rows.push(CheckpointRow {
            commit_ts,
            write: WalWrite { table, id, row },
        });
    }
    Some(CheckpointFrame::Rows(rows))
}

/// Decode a byte stream as recovery would: accept every intact CRC-framed
/// record, stop (and truncate) at the first torn or corrupt frame. The
/// rows of a checkpoint count once its end frame is read.
pub fn decode_stream(bytes: &[u8]) -> WalImage {
    let mut records = Vec::new();
    let mut checkpoint = Vec::new();
    // Rows of a checkpoint whose end frame has not been read yet.
    let mut open = Vec::new();
    let mut pos = 0usize;
    let tail = loop {
        if pos == bytes.len() {
            break WalTail::Clean;
        }
        if bytes.len() - pos < 8 {
            break WalTail::Torn { at: pos };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + 8;
        let Some(body_end) = body_start.checked_add(len) else {
            break WalTail::Corrupt { at: pos };
        };
        if body_end > bytes.len() {
            break WalTail::Torn { at: pos };
        }
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            break WalTail::Corrupt { at: pos };
        }
        if payload.starts_with(&CHECKPOINT_MARK) {
            match decode_checkpoint(payload) {
                Some(CheckpointFrame::Rows(mut rows)) => open.append(&mut rows),
                Some(CheckpointFrame::End) => checkpoint.append(&mut open),
                None => break WalTail::Corrupt { at: pos },
            }
        } else {
            match decode_payload(payload) {
                Some(record) => records.push(record),
                None => break WalTail::Corrupt { at: pos },
            }
        }
        pos = body_end;
    };
    WalImage {
        records,
        checkpoint,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_sim::VirtualClock;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn test_wal(policy: WalSyncPolicy) -> Wal {
        Wal::new(policy, VirtualClock::shared(), Duration::ZERO)
    }

    fn sample(ts: u64) -> WalRecord {
        WalRecord {
            commit_ts: ts,
            writes: vec![
                WalWrite {
                    table: "payments".into(),
                    id: 7,
                    row: Some(vec![
                        Value::Int(7),
                        Value::Str("processing".into()),
                        Value::Null,
                        Value::Bool(true),
                    ]),
                },
                WalWrite {
                    table: "orders".into(),
                    id: -3,
                    row: None,
                },
            ],
        }
    }

    /// `record`'s writes, streamed in order as a commit streams its rows.
    fn writes(record: &WalRecord) -> impl FnOnce(&mut WalEncoder<'_>) + '_ {
        move |enc| {
            for w in &record.writes {
                enc.write(&w.table, w.id, w.row.as_deref());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC the slice-by-8 one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for b in bytes {
            c = CRC_TABLES[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_at_every_length_and_alignment() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC2C);
        let data: Vec<u8> = (0..4_096 + 8).map(|_| rng.gen()).collect();
        let lens = (0..=64).chain((0..256).map(|_| rng.gen_range(0..=4_096)));
        for len in lens {
            for start in 0..8 {
                let buf = &data[start..start + len];
                assert_eq!(crc32(buf), crc32_bytewise(buf), "len {len}, start {start}");
            }
        }
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let r = sample(42);
        let payload = encode_payload(&r);
        assert_eq!(decode_payload(&payload).unwrap(), r);
    }

    /// The exact bytes of `sample(42)`: a change to the format must
    /// change this vector deliberately.
    #[test]
    fn sample_record_encodes_to_the_golden_bytes() {
        let mut golden = vec![42]; // var(commit_ts)
        golden.extend_from_slice(b"\x08payments"); // var(name_len), name
        golden.extend_from_slice(&[14, 5]); // zigzag(7), var(1 + 4 columns)
        golden.extend_from_slice(&[1, 14]); // Int(7)
        golden.extend_from_slice(b"\x02\x0aprocessing"); // Str
        golden.extend_from_slice(&[0, 3, 1]); // Null, Bool(true)
        golden.extend_from_slice(b"\x06orders"); // second write's name
        golden.extend_from_slice(&[5, 0]); // zigzag(-3), delete
        assert_eq!(encode_payload(&sample(42)), golden);
        assert_eq!(golden.len(), 38);
    }

    /// A one-row, two-`Int` update frames in 24 bytes: 8 of header, 3 of
    /// commit timestamp, 5 of name, 2 of id, 1 of column count and 3 + 2
    /// of values.
    #[test]
    fn a_two_int_update_frames_in_24_bytes() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(100_000, |enc| {
            enc.write("rows", 100, Some(&[Value::Int(100), Value::Int(5)]))
        });
        assert_eq!(wal.stats().len, 8 + 3 + 5 + 2 + 1 + 3 + 2);
    }

    #[test]
    fn varints_are_shortest_at_every_boundary() {
        let cases: [(i64, usize); 11] = [
            (0, 1),
            (1, 1),
            (-1, 1),
            (63, 1),
            (-63, 1),
            (-64, 1),
            (64, 2),
            (-65, 2),
            (i64::MAX, 10),
            (i64::MIN, 10),
            (i64::MIN + 1, 10),
        ];
        for (n, len) in cases {
            let mut buf = Vec::new();
            put_var(&mut buf, zigzag(n));
            assert_eq!(buf.len(), len, "{n}");
            let mut c = Cursor {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(c.var().map(unzigzag), Some(n));
        }
        let mut buf = Vec::new();
        put_var(&mut buf, u64::MAX);
        assert_eq!(
            buf,
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
    }

    #[test]
    fn boundary_values_roundtrip() {
        let ints = [i64::MIN, i64::MAX, 0, 1, -1, 63, -63, 64, -64];
        let record = WalRecord {
            commit_ts: u64::MAX,
            writes: ints
                .iter()
                .map(|&n| WalWrite {
                    table: "t".into(),
                    id: n,
                    row: Some(vec![Value::Int(n), Value::Str(String::new())]),
                })
                .chain([
                    WalWrite {
                        table: String::new(),
                        id: 0,
                        row: Some(vec![]),
                    },
                    WalWrite {
                        table: String::new(),
                        id: 0,
                        row: None,
                    },
                ])
                .collect(),
        };
        let decoded = decode_payload(&encode_payload(&record)).unwrap();
        assert_eq!(decoded, record);
        let n = decoded.writes.len();
        assert_eq!(decoded.writes[n - 2].row, Some(vec![]), "a zero-column row");
        assert_eq!(decoded.writes[n - 1].row, None, "is not a delete");
        let empty = WalRecord {
            commit_ts: 0,
            writes: vec![],
        };
        assert_eq!(encode_payload(&empty), [0]);
        assert_eq!(decode_payload(&[0]), Some(empty));
        assert_eq!(decode_payload(&[]), None);
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        let var = |bytes: &[u8]| Cursor { bytes, pos: 0 }.var();
        assert_eq!(var(&[0x00]), Some(0));
        assert_eq!(var(&[0x80, 0x00]), None, "overlong zero");
        assert_eq!(var(&[0xFF, 0x00]), None, "trailing zero group");
        assert_eq!(var(&[0x80]), None, "unterminated");
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(var(&max), Some(u64::MAX));
        *max.last_mut().unwrap() = 0x02;
        assert_eq!(var(&max), None, "65 bits");
        *max.last_mut().unwrap() = 0x81;
        max.push(0x00);
        assert_eq!(var(&max), None, "eleven bytes");
        // An overlong commit timestamp fails the whole payload.
        assert_eq!(decode_payload(&[0x80, 0x00]), None);
    }

    #[test]
    fn stream_roundtrip_and_clean_tail() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        for ts in 1..=5u64 {
            assert!(wal.append_streamed(ts, writes(&sample(ts))).durable);
        }
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!(image.tail, WalTail::Clean);
        assert_eq!(image.records.len(), 5);
        assert_eq!(image.records[4].commit_ts, 5);
        assert_eq!(wal.stats().records, 5);
        assert_eq!(wal.stats().durable_len, wal.stats().len);
    }

    #[test]
    fn unsynced_tail_is_invisible_after_a_crash() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(1, writes(&sample(1)));
        wal.append_streamed_no_sync(2, writes(&sample(2)));
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!(image.records.len(), 1, "the unsynced record is lost");
        assert_eq!(image.tail, WalTail::Clean);
        wal.sync();
        assert_eq!(decode_stream(&wal.durable_bytes()).records.len(), 2);
    }

    #[test]
    fn torn_sync_leaves_a_truncatable_partial_frame() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(1, writes(&sample(1)));
        wal.append_streamed_no_sync(2, writes(&sample(2)));
        wal.sync_torn();
        let bytes = wal.durable_bytes();
        let image = decode_stream(&bytes);
        assert_eq!(image.records.len(), 1, "only the intact record replays");
        assert!(
            matches!(image.tail, WalTail::Torn { .. } | WalTail::Corrupt { .. }),
            "{:?}",
            image.tail
        );
    }

    #[test]
    fn corrupt_frame_truncates_at_crc() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(1, writes(&sample(1)));
        wal.append_streamed(2, writes(&sample(2)));
        let mut bytes = wal.durable_bytes();
        // Flip one bit inside the second record's payload.
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let image = decode_stream(&bytes);
        assert_eq!(image.records.len(), 1);
        assert!(matches!(image.tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn streamed_append_matches_reference_encoding() {
        let streamed = test_wal(WalSyncPolicy::OnCommit);
        let reference = test_wal(WalSyncPolicy::OnCommit);
        let r = sample(42);
        streamed.append_streamed(r.commit_ts, writes(&r));
        let mut buf = Vec::new();
        let payload = encode_payload(&r);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        reference.sync();
        assert_eq!(streamed.all_bytes(), buf);
        assert_eq!(decode_stream(&streamed.durable_bytes()).records, vec![r]);
    }

    #[test]
    fn group_commit_leader_syncs_for_followers() {
        let wal = test_wal(WalSyncPolicy::GroupCommit);
        let a = wal.append_streamed(1, |enc| enc.write("t", 1, None));
        let b = wal.append_streamed(2, |enc| enc.write("t", 2, None));
        assert!(!a.durable && !b.durable, "group commit never syncs inline");
        assert_eq!(wal.stats().durable_len, 0);
        // The first committer to reach the durability point is the leader:
        // its one fsync covers both frames.
        wal.ensure_durable(a.end);
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.stats().durable_len, b.end);
        // The second committer free-rides.
        wal.ensure_durable(b.end);
        assert_eq!(wal.stats().syncs, 1, "follower must not sync again");
        assert_eq!(decode_stream(&wal.durable_bytes()).records.len(), 2);
    }

    /// A checkpoint of `rows` one-column rows of table "t".
    fn checkpoint_rows(wal: &Wal, rows: std::ops::Range<i64>) {
        wal.append_checkpoint(&["t"], |enc| {
            for id in rows {
                enc.row(0, id as u64, id, Some(&[Value::Int(id)]));
            }
        });
    }

    #[test]
    fn checkpoint_frames_decode_once_their_end_frame_is_read() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(1, writes(&sample(1)));
        let start = wal.begin_checkpoint().unwrap();
        assert_eq!(wal.begin_checkpoint(), None, "one checkpoint at a time");
        checkpoint_rows(&wal, 0..3);
        wal.append_streamed(2, writes(&sample(2)));
        checkpoint_rows(&wal, 3..4);
        wal.sync();
        // No end frame yet: the rows are not a checkpoint.
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!((image.records.len(), image.checkpoint.len()), (2, 0));
        assert_eq!(image.tail, WalTail::Clean);
        let end = wal.end_checkpoint();
        wal.ensure_durable(end);
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!(image.records, vec![sample(1), sample(2)]);
        let ids: Vec<i64> = image.checkpoint.iter().map(|r| r.write.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(
            image.checkpoint[2],
            CheckpointRow {
                commit_ts: 2,
                write: WalWrite {
                    table: "t".into(),
                    id: 2,
                    row: Some(vec![Value::Int(2)]),
                },
            }
        );
        // No checkpoint payload decodes as a commit record.
        let bytes = wal.durable_bytes();
        let frame = &bytes[start..];
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(decode_payload(&frame[8..8 + len]), None);
        assert_eq!(
            decode_checkpoint(&CHECKPOINT_MARK),
            Some(CheckpointFrame::End)
        );
    }

    #[test]
    fn a_torn_checkpoint_leaves_the_log_before_it() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        wal.append_streamed(1, writes(&sample(1)));
        wal.begin_checkpoint().unwrap();
        checkpoint_rows(&wal, 0..40);
        wal.end_checkpoint();
        wal.sync_torn();
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!(image.records, vec![sample(1)]);
        assert!(image.checkpoint.is_empty());
        assert!(
            matches!(image.tail, WalTail::Torn { .. }),
            "{:?}",
            image.tail
        );
    }

    #[test]
    fn truncation_keeps_the_buffer_the_lsns_and_the_counters() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        for ts in 1..=50 {
            wal.append_streamed(ts, writes(&sample(ts)));
        }
        let before = wal.stats();
        let capacity = wal.shared.state.lock().buf.capacity();
        let start = wal.begin_checkpoint().unwrap();
        checkpoint_rows(&wal, 0..2);
        let end = wal.end_checkpoint();
        // Nothing goes while the end frame is volatile.
        wal.truncate();
        assert_eq!(wal.stats().held, end);
        wal.ensure_durable(end);
        wal.truncate();
        let after = wal.stats();
        assert_eq!(wal.shared.state.lock().buf.capacity(), capacity);
        assert_eq!((after.records, after.len), (before.records, before.len));
        assert_eq!(after.checkpoints, 1);
        assert_eq!(after.held, end - start);
        assert_eq!(after.held, after.checkpoint_bytes);
        assert_eq!(after.durable_len, before.len + after.checkpoint_bytes);
        // The log now opens with the checkpoint; an append lands at the
        // next LSN.
        let image = decode_stream(&wal.durable_bytes());
        assert_eq!((image.records.len(), image.checkpoint.len()), (0, 2));
        let next = wal.append_streamed(99, |enc| enc.write("t", 1, None));
        assert_eq!(next.end, end + wal.stats().len - before.len);
        // A second truncation drops nothing more.
        wal.truncate();
        assert_eq!(decode_stream(&wal.durable_bytes()).records.len(), 1);
    }

    /// A committer takes its LSN, a checkpoint truncates the log under it,
    /// and its durability wait still returns with its frame durable.
    #[test]
    fn an_lsn_taken_before_a_truncation_still_names_its_frame() {
        let wal = test_wal(WalSyncPolicy::GroupCommit);
        let early = wal.append_streamed(1, |enc| enc.write("t", 1, None));
        wal.begin_checkpoint().unwrap();
        let racing = wal.append_streamed(2, |enc| enc.write("t", 2, None));
        checkpoint_rows(&wal, 0..2);
        let end = wal.end_checkpoint();
        wal.ensure_durable(end);
        wal.truncate();
        let syncs = wal.stats().syncs;
        for lsn in [early.end, racing.end] {
            wal.ensure_durable(lsn);
            assert!(wal.stats().durable_len >= lsn);
        }
        assert_eq!(wal.stats().syncs, syncs, "both were covered already");
        let late = wal.append_streamed(3, |enc| enc.write("t", 3, None));
        wal.ensure_durable(late.end);
        assert_eq!(wal.stats().durable_len, late.end);
        let image = decode_stream(&wal.durable_bytes());
        let ts: Vec<u64> = image.records.iter().map(|r| r.commit_ts).collect();
        assert_eq!(ts, [2, 3], "the record below the start went");
    }

    /// A clock whose first sleep once armed blocks until the test has
    /// passed the gate twice: the test acts while that flush is in flight.
    struct GatedClock {
        armed: AtomicBool,
        gate: std::sync::Barrier,
    }

    impl adhoc_sim::Clock for GatedClock {
        fn now(&self) -> Duration {
            Duration::ZERO
        }

        fn sleep(&self, _: Duration) {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.gate.wait(); // the flush is in flight
                self.gate.wait(); // the test has acted
            }
        }
    }

    /// A truncation lands while a group-commit leader's flush is in flight
    /// (the log mutex released): the leader's watermark, computed before
    /// the truncation, still lands on the same frames.
    #[test]
    fn a_truncation_during_a_leaders_flush_keeps_its_frame_durable() {
        let clock = Arc::new(GatedClock {
            armed: AtomicBool::new(false),
            gate: std::sync::Barrier::new(2),
        });
        let wal = Wal::new(
            WalSyncPolicy::GroupCommit,
            clock.clone(),
            Duration::from_millis(1),
        );
        wal.append_streamed(1, |enc| enc.write("t", 1, None));
        let start = wal.begin_checkpoint().unwrap();
        checkpoint_rows(&wal, 0..2);
        let end = wal.end_checkpoint();
        wal.ensure_durable(end);
        let leader = wal.append_streamed(2, |enc| enc.write("t", 2, None));
        clock.armed.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let flush = s.spawn(|| wal.ensure_durable(leader.end));
            clock.gate.wait();
            assert!(wal.shared.state.lock().flushing);
            wal.truncate();
            let late = wal.append_streamed(3, |enc| enc.write("t", 3, None));
            assert_eq!(wal.stats().held, late.end - start);
            clock.gate.wait();
            flush.join().unwrap();
        });
        let stats = wal.stats();
        assert_eq!(stats.durable_len, leader.end);
        let image = decode_stream(&wal.durable_bytes());
        let ts: Vec<u64> = image.records.iter().map(|r| r.commit_ts).collect();
        assert_eq!(ts, [2], "the leader's record, and not the later one");
        assert_eq!(image.checkpoint.len(), 2);
        assert_eq!(image.tail, WalTail::Clean);
    }

    /// Append `sample(ts)`, the next timestamp; returns the due report.
    fn append_sample(wal: &Wal, ts: &mut u64) -> bool {
        *ts += 1;
        wal.append_streamed(*ts, writes(&sample(*ts)))
            .checkpoint_due
    }

    /// Append until an append reports a checkpoint due; returns the bytes
    /// the log grew by.
    fn append_until_due(wal: &Wal, ts: &mut u64) -> usize {
        let from = wal.stats().durable_len;
        while !append_sample(wal, ts) {}
        wal.stats().durable_len - from
    }

    /// The append that takes the log past the floor reports a checkpoint
    /// due, and so does every append after it until one opens. None is due
    /// while one is open, nor after it ends until the log has grown twice
    /// the checkpoint's size.
    #[test]
    fn a_checkpoint_is_due_past_the_floor_then_twice_its_size() {
        let wal = test_wal(WalSyncPolicy::OnCommit);
        let mut ts = 0;
        let grown = append_until_due(&wal, &mut ts);
        assert!((CHECKPOINT_FLOOR..CHECKPOINT_FLOOR + 64).contains(&grown));
        assert!(append_sample(&wal, &mut ts), "due until one opens");
        // A checkpoint bigger than half the floor moves the threshold.
        wal.begin_checkpoint().unwrap();
        assert!(!append_sample(&wal, &mut ts), "not due while one is open");
        assert_eq!(wal.begin_due_checkpoint(), None);
        checkpoint_rows(&wal, 0..4_000);
        let end = wal.end_checkpoint();
        wal.ensure_durable(end);
        wal.truncate();
        assert!(!append_sample(&wal, &mut ts), "not due just after one ends");
        assert_eq!(wal.begin_due_checkpoint(), None);
        let image = wal.stats().checkpoint_bytes;
        assert!(CHECKPOINT_GROWTH * image > CHECKPOINT_FLOOR);
        let grown = append_until_due(&wal, &mut ts);
        assert!((CHECKPOINT_GROWTH * image..CHECKPOINT_GROWTH * image + 64).contains(&grown));
        assert!(wal.begin_due_checkpoint().is_some());
    }
}
