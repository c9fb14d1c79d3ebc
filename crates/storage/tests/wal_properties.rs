//! WAL format fuzzing: encode/decode round-trips exactly, the encoding is
//! canonical (a payload that decodes re-encodes to exactly its own bytes),
//! and recovery's decode never invents data — any truncation or
//! single-byte corruption of a valid stream yields a strict prefix of the
//! original records.
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

/// Frame a record exactly the way `Wal::append` does:
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
        let wal = Wal::new(WalSyncPolicy::GroupCommit, RealClock::shared());
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
        let wal = Wal::new(WalSyncPolicy::GroupCommit, RealClock::shared());
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
