//! Property-based tests for the durable segment tier's on-disk format:
//! headers, record frames, and the manifest must reject every mutated
//! or truncated input with a *typed* [`StoreError`] — never a panic,
//! and never a silent acceptance of damaged bytes. Single-byte
//! mutations sit inside CRC32's guaranteed burst-detection window, so
//! "mutated frame decodes to an error" is a hard property, not a
//! probabilistic one. Runs on the in-repo `prism-testkit` harness;
//! failures print a `PRISM_TEST_SEED` for exact replay.

use std::sync::Arc;

use prism_core::crc::crc32;
use prism_simnet::rng::SimRng;
use prism_store::segment::{
    decode_header, decode_manifest, decode_record, encode_header, encode_manifest,
    encode_manifest_edit, encode_record_into, EDIT_LEN, HEADER_LEN, MANIFEST_MAGIC, SEGMENT_MAGIC,
};
use prism_store::{Record, SealedSeg, SegmentStore, SimDisk, StoreError};
use prism_testkit::{for_all, gens, Config, Gen};

/// An arbitrary record, biased toward small payloads (empty included —
/// that is the DELETE / fence shape the servers actually log).
fn arb_record() -> Gen<Record> {
    gens::t4(
        gens::u64s(),
        gens::u64s(),
        gens::u64s(),
        gens::vec(gens::u8s(), 0..48),
    )
    .map(|(epoch, inc, key, payload)| Record {
        epoch,
        inc,
        key,
        payload,
    })
}

/// An arbitrary sealed-segment manifest entry.
fn arb_seg() -> Gen<SealedSeg> {
    gens::t3(gens::u32s(), gens::range_u64(0..(1 << 20)), gens::u32s())
        .map(|(seq, len, records)| SealedSeg { seq, len, records })
}

/// A non-zero byte mask: XORing it in changes at least one bit.
fn arb_mask() -> Gen<u8> {
    gens::u8s().map(|m| m | 1)
}

/// Round trip first: an intact frame must decode to exactly what was
/// encoded, consuming exactly its own bytes even with a trailing
/// neighbor frame behind it.
#[test]
fn intact_records_round_trip() {
    let gen = gens::t2(arb_record(), arb_record());
    for_all(
        "intact_records_round_trip",
        &Config::with_cases(256),
        &gen,
        |(a, b)| {
            let mut bytes = Vec::new();
            encode_record_into(a, &mut bytes);
            let first_len = bytes.len();
            encode_record_into(b, &mut bytes);
            let (da, used) = decode_record(&bytes).expect("intact frame must decode");
            assert_eq!(&da, a);
            assert_eq!(used, first_len, "frame must consume exactly itself");
            let (db, _) = decode_record(&bytes[used..]).expect("second frame must decode");
            assert_eq!(&db, b);
        },
    );
}

/// Every single-byte mutation of a record frame decodes to a typed
/// error: the length word is bounds-checked and the frame CRC covers
/// everything else, so no flipped frame can pass as valid data.
#[test]
fn mutated_records_decode_to_typed_errors() {
    let gen = gens::t3(arb_record(), gens::u64s(), arb_mask());
    for_all(
        "mutated_records_decode_to_typed_errors",
        &Config::with_cases(512),
        &gen,
        |(rec, pos, mask)| {
            let mut bytes = Vec::new();
            encode_record_into(rec, &mut bytes);
            let at = (*pos as usize) % bytes.len();
            bytes[at] ^= mask;
            decode_record(&bytes).expect_err("mutated record frame decoded");
        },
    );
}

/// Every strict prefix of a record frame is a typed truncation error,
/// never a panic from a short slice and never a short parse.
#[test]
fn truncated_records_decode_to_typed_errors() {
    let gen = gens::t2(arb_record(), gens::u64s());
    for_all(
        "truncated_records_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(rec, cut)| {
            let mut bytes = Vec::new();
            encode_record_into(rec, &mut bytes);
            let keep = (*cut as usize) % bytes.len();
            decode_record(&bytes[..keep]).expect_err("truncated record frame decoded");
        },
    );
}

/// Segment headers: intact ones verify, every single-byte mutation is
/// rejected (magic, version, flags, and reserved bytes are all under
/// the header CRC), and every truncation is rejected. The same holds
/// with the manifest magic.
#[test]
fn mutated_headers_decode_to_typed_errors() {
    let gen = gens::t3(gens::u64s(), gens::u64s(), arb_mask());
    for_all(
        "mutated_headers_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(pos, cut, mask)| {
            for magic in [SEGMENT_MAGIC, MANIFEST_MAGIC] {
                let mut h = encode_header(magic).to_vec();
                decode_header(&h, magic).expect("intact header must verify");
                // Crossed magics are a typed error too, not a panic.
                let other = if magic == SEGMENT_MAGIC {
                    MANIFEST_MAGIC
                } else {
                    SEGMENT_MAGIC
                };
                decode_header(&h, other).expect_err("wrong-magic header verified");

                let at = (*pos as usize) % HEADER_LEN;
                h[at] ^= mask;
                decode_header(&h, magic).expect_err("mutated header verified");
                h[at] ^= mask; // restore
                let keep = (*cut as usize) % HEADER_LEN;
                decode_header(&h[..keep], magic).expect_err("truncated header verified");
            }
        },
    );
}

/// The manifest: an intact encode round-trips, and any single-byte
/// mutation or truncation is a typed error. A damaged manifest must
/// never yield a wrong-but-plausible segment list — replay falls back
/// to scanning the disk instead.
#[test]
fn mutated_manifests_decode_to_typed_errors() {
    let seg = gens::t3(gens::u32s(), gens::range_u64(0..(1 << 20)), gens::u32s())
        .map(|(seq, len, records)| SealedSeg { seq, len, records });
    let gen = gens::t4(gens::vec(seg, 0..6), gens::u32s(), gens::u64s(), arb_mask());
    for_all(
        "mutated_manifests_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(sealed, checkpoint, pos, mask)| {
            let bytes = encode_manifest(sealed, *checkpoint);
            let m = decode_manifest(&bytes).expect("intact manifest must decode");
            assert_eq!(&m.sealed, sealed);
            assert_eq!(m.checkpoint, *checkpoint);
            let mut mutated = bytes.clone();
            let at = (*pos as usize) % mutated.len();
            mutated[at] ^= mask;
            decode_manifest(&mutated).expect_err("mutated manifest decoded");
            let keep = (*pos as usize) % bytes.len();
            decode_manifest(&bytes[..keep]).expect_err("truncated manifest decoded");
        },
    );
}

/// End to end against the store: write a log, then vandalize the raw
/// disk bytes (a flip at an arbitrary offset of an arbitrary file plus
/// a seeded tail tear) and replay. Replay must never panic, never
/// return a record that was not appended, and must stop each segment at
/// its first bad frame — the surviving records are a prefix of what
/// went in, in order.
#[test]
fn replay_of_vandalized_logs_never_yields_foreign_records() {
    let gen = gens::t4(
        gens::vec(arb_record(), 1..24),
        gens::u64s(),
        arb_mask(),
        gens::u64s(),
    );
    for_all(
        "replay_of_vandalized_logs_never_yields_foreign_records",
        &Config::with_cases(128),
        &gen,
        |(recs, pos, mask, tear_seed)| {
            let disk = Arc::new(SimDisk::new());
            // A small limit forces multi-segment logs even at this size.
            let store = SegmentStore::with_limit(Arc::clone(&disk), "p", 256);
            for r in recs {
                store.append(r);
            }
            // Leave the tail unsynced so the tear has something to eat.
            let mut rng = SimRng::new(*tear_seed);
            disk.tear_tail(&mut rng);
            for name in disk.list("p") {
                let len = disk.len(&name).unwrap_or(0);
                if len > 0 && *pos % 2 == 0 {
                    let mut bytes = disk.read(&name).expect("listed file reads");
                    bytes[(*pos as usize) % len] ^= mask;
                    disk.truncate(&name, 0);
                    disk.append(&name, &bytes);
                    break;
                }
            }
            let replay = store.replay();
            let mut it = recs.iter();
            for got in &replay.records {
                // Every survivor matches the next appended record: no
                // reordering, no invention, no tail past a bad frame.
                assert!(
                    it.any(|want| want == got),
                    "replay yielded a record that was never appended (or out of order)"
                );
            }
        },
    );
}

/// A base followed by edit frames decodes to the base table extended by
/// the edits; every single-byte mutation inside an edit frame is a
/// typed corruption error (each frame carries its own CRC) and every
/// cut strictly inside an edit frame is a typed truncation error. A cut
/// on a frame boundary is a shorter, valid edit log.
#[test]
fn mutated_manifest_edits_decode_to_typed_errors() {
    let gen = gens::t5(
        gens::vec(arb_seg(), 0..6),
        gens::vec(arb_seg(), 1..6),
        gens::u32s(),
        gens::u64s(),
        arb_mask(),
    );
    for_all(
        "mutated_manifest_edits_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(base, edits, checkpoint, pos, mask)| {
            let mut bytes = encode_manifest(base, *checkpoint);
            let base_len = bytes.len();
            for e in edits {
                bytes.extend_from_slice(&encode_manifest_edit(e));
            }
            let m = decode_manifest(&bytes).expect("intact base + edits must decode");
            let all: Vec<SealedSeg> = base.iter().chain(edits.iter()).copied().collect();
            assert_eq!(m.sealed, all);
            assert_eq!(m.checkpoint, *checkpoint);

            let at = base_len + (*pos as usize) % (edits.len() * EDIT_LEN);
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            assert!(
                matches!(
                    decode_manifest(&mutated),
                    Err(StoreError::ManifestCorrupt { .. })
                ),
                "mutated edit frame decoded"
            );

            let frame = (*pos as usize / EDIT_LEN) % edits.len();
            let cut = 1 + (*pos as usize) % (EDIT_LEN - 1);
            let keep = base_len + frame * EDIT_LEN + cut;
            assert_eq!(
                decode_manifest(&bytes[..keep]),
                Err(StoreError::ManifestTruncated),
                "edit frame cut at byte {cut} decoded"
            );
            let whole = decode_manifest(&bytes[..base_len + frame * EDIT_LEN])
                .expect("a cut on a frame boundary is a valid edit log");
            assert_eq!(whole.sealed, all[..base.len() + frame]);
        },
    );
}

/// The pre-checkpoint layout (entry table closed directly by its CRC)
/// still decodes for any table, as checkpoint 0 with no edits.
#[test]
fn legacy_manifests_decode_as_checkpoint_zero() {
    let gen = gens::vec(arb_seg(), 0..8);
    for_all(
        "legacy_manifests_decode_as_checkpoint_zero",
        &Config::with_cases(128),
        &gen,
        |sealed| {
            let mut legacy = encode_header(MANIFEST_MAGIC).to_vec();
            legacy.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
            for s in sealed {
                legacy.extend_from_slice(&s.seq.to_le_bytes());
                legacy.extend_from_slice(&s.len.to_le_bytes());
                legacy.extend_from_slice(&s.records.to_le_bytes());
            }
            let crc = crc32(&legacy[HEADER_LEN..]);
            legacy.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(legacy.len(), encode_manifest(sealed, 0).len() - 4);
            let m = decode_manifest(&legacy).expect("legacy manifest must decode");
            assert_eq!(&m.sealed, sealed);
            assert_eq!(m.checkpoint, 0);
        },
    );
}

/// Bytes written by appending `n` records to a fresh 256 B-limit store,
/// one count per append, checking after every append that the manifest
/// is its empty base plus exactly one edit frame per roll.
fn bytes_per_append(recs: &[Record], n: usize) -> Vec<u64> {
    let disk = Arc::new(SimDisk::new());
    let store = SegmentStore::with_limit(Arc::clone(&disk), "w", 256);
    let empty_base = encode_manifest(&[], 0).len();
    let mut per_append = Vec::with_capacity(n);
    for i in 0..n {
        let before = disk.bytes_written();
        store.append(&recs[i % recs.len()]);
        per_append.push(disk.bytes_written() - before);
        let rolls = store.sealed().len();
        assert_eq!(
            disk.len("w/manifest"),
            Some(empty_base + rolls * EDIT_LEN),
            "append {i}: every roll adds exactly one edit frame"
        );
    }
    per_append
}

/// A segment roll costs O(1). The bytes written by any single append —
/// record frame, plus on a roll one manifest edit and the next
/// segment's header — are bounded by a constant of the record alone,
/// the same across histories of N and 4N appends; so the total grows
/// linearly with history.
#[test]
fn bytes_written_per_append_do_not_grow_with_history() {
    let gen = gens::t2(gens::vec(arb_record(), 1..8), gens::range_usize(16..48));
    for_all(
        "bytes_written_per_append_do_not_grow_with_history",
        &Config::with_cases(32),
        &gen,
        |(recs, n)| {
            let max_frame = recs
                .iter()
                .map(|r| {
                    let mut f = Vec::new();
                    encode_record_into(r, &mut f);
                    f.len() as u64
                })
                .max()
                .unwrap();
            let bound = max_frame + (EDIT_LEN + HEADER_LEN) as u64;
            let short = bytes_per_append(recs, *n);
            let long = bytes_per_append(recs, 4 * n);
            assert_eq!(&long[..*n], &short[..], "same prefix, same writes");
            for (i, &w) in long.iter().enumerate() {
                assert!(w <= bound, "append {i} wrote {w} B > bound {bound} B");
            }
            let total = |v: &[u64]| v.iter().sum::<u64>();
            assert!(
                total(&long) <= 4 * total(&short) + 4 * bound,
                "4x the history must cost at most ~4x the bytes ({} vs {})",
                total(&long),
                total(&short)
            );
        },
    );
}
