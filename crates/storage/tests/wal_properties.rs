//! WAL format fuzzing: encode/decode round-trips exactly, the encoding is
//! canonical (a payload that decodes re-encodes to exactly its own bytes),
//! and recovery's decode never invents data — any truncation or
//! single-byte corruption of a valid stream yields a strict prefix of the
//! original records.
//!
//! The checkpoint property plays the engine's commit-and-checkpoint
//! protocol against a real `Wal`: recovering a checkpoint plus the log
//! after it gives the state recovering the whole log gives.
//!
//! The group-commit properties drive the real `Wal` under
//! `WalSyncPolicy::GroupCommit`: a batch of streamed appends produces a
//! byte stream identical to reference framing (so every format property
//! above transfers to batched frames verbatim), one `ensure_durable` at
//! the batch's end LSN makes the whole group durable with a single sync,
//! and truncating the group's bytes anywhere still yields a record prefix.

use adhoc_sim::RealClock;
use adhoc_storage::wal::{crc32, decode_payload, decode_stream, encode_payload, Wal};
use adhoc_storage::{Value, WalRecord, WalSyncPolicy, WalTail, WalWrite};
use proptest::prelude::*;
use std::time::Duration;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0usize..4, any::<u16>()).prop_map(|(len, salt)| {
            // Short strings incl. empty and multi-byte UTF-8.
            let alphabet = ["", "x", "payments", "état-à"];
            Value::Str(format!("{}{}", alphabet[len], salt % 7))
        }),
    ]
}

fn wal_write() -> impl Strategy<Value = WalWrite> {
    (
        0usize..3,
        any::<i64>(),
        prop_oneof![
            Just(None),
            proptest::collection::vec(value(), 0..5).prop_map(Some),
        ],
    )
        .prop_map(|(table, id, row)| WalWrite {
            table: ["orders", "payments", "t"][table].to_string(),
            id,
            row,
        })
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    (any::<u64>(), proptest::collection::vec(wal_write(), 0..6))
        .prop_map(|(commit_ts, writes)| WalRecord { commit_ts, writes })
}

/// Candidate payloads: arbitrary bytes, bytes drawn from the format's
/// common tokens (tags, small varints, continuation bytes, a name byte),
/// and valid payloads with one byte replaced, the tail cut, one byte
/// padded into an overlong varint, or the commit timestamp re-written as
/// ten varint bytes (canonical only when the tenth is 1).
fn payload_bytes() -> impl Strategy<Value = Vec<u8>> {
    const TOKENS: [u8; 10] = [0, 1, 2, 3, 4, 0x7F, 0x80, 0x81, 0xFF, b't'];
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec((0..TOKENS.len()).prop_map(|i| TOKENS[i]), 0..48),
        (wal_record(), any::<usize>(), any::<u8>()).prop_map(|(r, at, b)| {
            let mut p = encode_payload(&r);
            let i = at % p.len();
            p[i] = b;
            p
        }),
        (wal_record(), any::<usize>()).prop_map(|(r, at)| {
            let mut p = encode_payload(&r);
            p.truncate(at % (p.len() + 1));
            p
        }),
        (wal_record(), any::<usize>()).prop_map(|(r, at)| {
            let mut p = encode_payload(&r);
            let i = at % p.len();
            if p[i] < 0x80 {
                p[i] |= 0x80;
                p.insert(i + 1, 0);
            }
            p
        }),
        (wal_record(), any::<u64>(), 0u8..4).prop_map(|(r, bits, last)| {
            let p = encode_payload(&r);
            let ts_len = p.iter().position(|b| b & 0x80 == 0).unwrap() + 1;
            let mut wide: Vec<u8> = (0..9).map(|k| 0x80 | (bits >> (7 * k)) as u8).collect();
            wide.push(last);
            wide.extend_from_slice(&p[ts_len..]);
            wide
        }),
    ]
}

/// Frame a record exactly the way `Wal::append_streamed` does:
/// `[payload_len: u32 LE][crc32: u32 LE][payload]`.
fn frame(record: &WalRecord, buf: &mut Vec<u8>) {
    let payload = encode_payload(record);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

fn assert_prefix(decoded: &[WalRecord], original: &[WalRecord]) {
    assert!(
        decoded.len() <= original.len(),
        "decoded more records than were written"
    );
    for (d, o) in decoded.iter().zip(original) {
        assert_eq!(d, o, "recovery must never alter a surviving record");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Payload serialization is lossless for every representable record.
    #[test]
    fn payload_roundtrip_is_exact(record in wal_record()) {
        let payload = encode_payload(&record);
        prop_assert_eq!(decode_payload(&payload), Some(record));
    }

    /// A whole stream of frames decodes back to exactly the records that
    /// were appended, with a clean tail.
    #[test]
    fn stream_roundtrip_is_exact(records in proptest::collection::vec(wal_record(), 0..8)) {
        let mut buf = Vec::new();
        for r in &records {
            frame(r, &mut buf);
        }
        let image = decode_stream(&buf);
        prop_assert_eq!(image.tail, WalTail::Clean);
        prop_assert_eq!(image.records, records);
    }

    /// Torn-tail rule: cutting the stream at ANY byte offset yields a
    /// prefix of the original records — intact frames before the cut all
    /// survive, nothing after the cut is ever (mis)decoded.
    #[test]
    fn truncation_at_any_offset_yields_a_record_prefix(
        records in proptest::collection::vec(wal_record(), 1..6),
        cut_frac in 0u32..=1000,
    ) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            frame(r, &mut buf);
            boundaries.push(buf.len());
        }
        let cut = (buf.len() as u64 * cut_frac as u64 / 1000) as usize;
        let image = decode_stream(&buf[..cut]);
        assert_prefix(&image.records, &records);
        // Exactly the frames wholly before the cut survive.
        let intact = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(image.records.len(), intact);
        if boundaries.contains(&cut) {
            prop_assert_eq!(image.tail, WalTail::Clean);
        } else {
            prop_assert_eq!(image.tail, WalTail::Torn { at: boundaries[intact] });
        }
    }

    /// Bit-rot rule: flipping ANY single byte of a valid stream still
    /// decodes to a prefix of the original records (CRC or framing stops
    /// the scan; later in-tact-looking bytes are never trusted).
    #[test]
    fn single_byte_corruption_yields_a_record_prefix(
        records in proptest::collection::vec(wal_record(), 1..5),
        pos_frac in 0u32..1000,
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        for r in &records {
            frame(r, &mut buf);
        }
        let pos = (buf.len() as u64 * pos_frac as u64 / 1000) as usize % buf.len();
        buf[pos] ^= flip;
        let image = decode_stream(&buf);
        assert_prefix(&image.records, &records);
    }

    /// A group-commit batch — streamed appends with no inline sync, then
    /// one `ensure_durable` at the batch's end — produces byte-for-byte the
    /// reference framing, becomes durable as a whole with exactly one
    /// sync, and round-trips to exactly the appended records.
    #[test]
    fn group_commit_batch_roundtrips_with_one_sync(
        records in proptest::collection::vec(wal_record(), 1..8),
    ) {
        let wal = Wal::new(WalSyncPolicy::GroupCommit, RealClock::shared(), Duration::ZERO);
        let mut end = 0;
        for r in &records {
            let a = wal.append_streamed(r.commit_ts, |enc| {
                for w in &r.writes {
                    enc.write(&w.table, w.id, w.row.as_deref());
                }
            });
            prop_assert!(!a.durable, "GroupCommit must never sync inline");
            end = a.end;
        }
        prop_assert_eq!(wal.stats().syncs, 0);
        prop_assert_eq!(wal.durable_bytes().len(), 0);
        wal.ensure_durable(end);
        prop_assert_eq!(wal.stats().syncs, 1, "one leader sync per batch");
        let mut reference = Vec::new();
        for r in &records {
            frame(r, &mut reference);
        }
        prop_assert_eq!(wal.durable_bytes(), reference);
        let image = decode_stream(&wal.durable_bytes());
        prop_assert_eq!(image.tail, WalTail::Clean);
        prop_assert_eq!(image.records, records);
    }

    /// Truncating a group-commit batch's bytes at ANY offset still yields
    /// a record prefix — a crash mid-group loses a suffix of the batch,
    /// never a middle record and never garbage.
    #[test]
    fn group_commit_truncation_is_a_batch_record_prefix(
        records in proptest::collection::vec(wal_record(), 1..6),
        cut_frac in 0u32..=1000,
    ) {
        let wal = Wal::new(WalSyncPolicy::GroupCommit, RealClock::shared(), Duration::ZERO);
        for r in &records {
            wal.append_streamed(r.commit_ts, |enc| {
                for w in &r.writes {
                    enc.write(&w.table, w.id, w.row.as_deref());
                }
            });
        }
        let buf = wal.all_bytes();
        let cut = (buf.len() as u64 * cut_frac as u64 / 1000) as usize;
        let image = decode_stream(&buf[..cut]);
        assert_prefix(&image.records, &records);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Canonical encoding: no two byte strings decode to the same record,
    /// so the varint reader must refuse overlong and wider-than-64-bit
    /// encodings.
    #[test]
    fn a_decodable_payload_reencodes_to_itself(bytes in payload_bytes()) {
        if let Some(record) = decode_payload(&bytes) {
            prop_assert_eq!(encode_payload(&record), bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint + suffix equals the full log.
//
// The test plays the engine against a real `Wal`: each commit appends its
// record and installs its rows in one step, as the engine does under its
// rows' shard guards, and a checkpoint opened at some commit writes one
// frame per model shard at a later commit of its own choosing, so records
// land before the start, between the start and a shard's frame (the frame
// carries them too) and after it (newer than the frame). A reference log
// gets the same commit records and no checkpoint.
// ---------------------------------------------------------------------------

const TABLES: [&str; 2] = ["orders", "payments"];
const SHARDS: usize = 4;

/// One write: `v = None` deletes.
type ModelWrite = (usize, i64, Option<i64>);

/// A delete about one time in four.
fn maybe_value() -> impl Strategy<Value = Option<i64>> {
    (0i64..133).prop_map(|v| (v < 100).then_some(v))
}

fn model_shard(table: usize, id: i64) -> usize {
    (table * 7 + id as usize) % SHARDS
}

fn fresh_db() -> adhoc_storage::Database {
    use adhoc_storage::{Column, ColumnType, Database, EngineProfile, Schema};
    let db = Database::in_memory(EngineProfile::PostgresLike);
    for table in TABLES {
        let columns = vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ];
        db.create_table(Schema::new(table, columns, "id").unwrap())
            .unwrap();
    }
    db
}

/// Every observable of a recovered database: each row's latest version,
/// the primary-key sets (deleted rows included), and the id the next
/// auto-increment insert draws, per table.
#[derive(Debug, PartialEq)]
struct Recovered {
    rows: Vec<Option<Vec<Value>>>,
    ids: Vec<Vec<i64>>,
    next: Vec<i64>,
}

fn recovered_state(bytes: &[u8]) -> Recovered {
    use adhoc_storage::IsolationLevel;
    let db = fresh_db();
    adhoc_storage::recover(&db, bytes).unwrap();
    let rows = TABLES
        .iter()
        .flat_map(|t| (0..6).map(move |id| (*t, id)))
        .map(|(t, id)| {
            db.latest_committed(t, id)
                .unwrap()
                .map(|r| r.values.to_vec())
        })
        .collect();
    let ids = TABLES.iter().map(|t| db.row_ids(t).unwrap()).collect();
    let next = TABLES
        .iter()
        .map(|t| {
            db.run(IsolationLevel::ReadCommitted, |txn| {
                txn.insert(t, &[("v", 0.into())])
            })
            .unwrap()
        })
        .collect();
    Recovered { rows, ids, next }
}

fn commit(wal: &Wal, ts: u64, writes: &[ModelWrite]) {
    wal.append_streamed(ts, |enc| {
        for &(table, id, v) in writes {
            let row = v.map(|v| [Value::Int(id), Value::Int(v)]);
            enc.write(TABLES[table], id, row.as_ref().map(|r| &r[..]));
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every place a checkpoint can start, every commit its shard
    /// frames can land after, and every way it can end (truncated, crashed
    /// before the truncation, torn mid-flush), recovering what the log
    /// holds gives the state recovering the full log gives.
    #[test]
    fn checkpoint_plus_suffix_recovers_like_the_full_log(
        commits in proptest::collection::vec(
            proptest::collection::vec((0usize..2, 0i64..6, maybe_value()), 1..4),
            1..24,
        ),
        start_frac in 0u32..=100,
        visits in proptest::collection::vec(0usize..4, SHARDS),
        ending in 0u8..3,
    ) {
        let wal = Wal::new(WalSyncPolicy::OnCommit, RealClock::shared(), Duration::ZERO);
        let reference = Wal::new(WalSyncPolicy::OnCommit, RealClock::shared(), Duration::ZERO);
        let start_at = commits.len() * start_frac as usize / 100;
        // Shard j's frame is written before commit `visit_at[j]`, the
        // shards in order, the last no later than the end of the run.
        let mut visit_at = Vec::new();
        let mut at = start_at;
        for step in &visits {
            at = (at + step).min(commits.len());
            visit_at.push(at);
        }
        let end_at = at;
        // The model engine: each row's newest (commit_ts, value).
        let mut rows = std::collections::BTreeMap::<(usize, i64), (u64, Option<i64>)>::new();
        for t in 0..=commits.len() {
            if t == start_at {
                prop_assert!(wal.begin_checkpoint().is_some());
            }
            for (shard, _) in visit_at.iter().enumerate().filter(|(_, at)| **at == t) {
                wal.append_checkpoint(&TABLES, |enc| {
                    for (&(table, id), &(ts, v)) in &rows {
                        if model_shard(table, id) == shard {
                            let row = v.map(|v| [Value::Int(id), Value::Int(v)]);
                            enc.row(table, ts, id, row.as_ref().map(|r| &r[..]));
                        }
                    }
                });
            }
            if t == end_at {
                let end = wal.end_checkpoint();
                match ending {
                    0 => {
                        wal.ensure_durable(end);
                        wal.truncate();
                    }
                    // A crash: nothing more reaches either log.
                    1 => {
                        wal.ensure_durable(end);
                        break;
                    }
                    _ => {
                        wal.sync_torn();
                        break;
                    }
                }
            }
            let Some(writes) = commits.get(t) else { break };
            let ts = t as u64 + 1;
            commit(&wal, ts, writes);
            commit(&reference, ts, writes);
            for &(table, id, v) in writes {
                rows.insert((table, id), (ts, v));
            }
        }
        if ending == 2 {
            let image = decode_stream(&wal.durable_bytes());
            prop_assert!(image.checkpoint.is_empty(), "a torn checkpoint loads no row");
        }
        prop_assert_eq!(
            recovered_state(&wal.durable_bytes()),
            recovered_state(&reference.durable_bytes())
        );
    }
}
