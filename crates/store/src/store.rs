//! The per-server segment store: append, barrier, replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::disk::SimDisk;
use crate::segment::{
    decode_header, decode_manifest, decode_record, encode_header, encode_manifest,
    encode_manifest_edit, encode_record_into, Manifest, Record, SealedSeg, HEADER_LEN,
    SEGMENT_MAGIC,
};

/// Default segment size ceiling; an append past it seals the active
/// segment (sync + one manifest edit) and opens the next.
pub const DEFAULT_SEGMENT_LIMIT: usize = 8 * 1024;

/// Shared recovery counters, folded into `RunResult` by the harness.
/// Reset at the warmup/measure boundary alongside the integrity stats.
#[derive(Default)]
pub struct DurableStats {
    replayed: AtomicU64,
    delta_resynced: AtomicU64,
    segments_truncated: AtomicU64,
}

impl DurableStats {
    pub fn new() -> Self {
        DurableStats::default()
    }

    pub fn add_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_delta_resynced(&self, n: u64) {
        self.delta_resynced.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_segments_truncated(&self, n: u64) {
        self.segments_truncated.fetch_add(n, Ordering::Relaxed);
    }

    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    pub fn delta_resynced(&self) -> u64 {
        self.delta_resynced.load(Ordering::Relaxed)
    }

    pub fn segments_truncated(&self) -> u64 {
        self.segments_truncated.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.replayed.store(0, Ordering::Relaxed);
        self.delta_resynced.store(0, Ordering::Relaxed);
        self.segments_truncated.store(0, Ordering::Relaxed);
    }
}

/// What a [`SegmentStore::replay`] recovered from the local disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Valid records, in append order. Later records for the same key
    /// supersede earlier ones (last-wins fold is the caller's).
    pub records: Vec<Record>,
    /// Segments whose tail was cut (or whose header was unreadable) —
    /// at least one frame was torn or corrupt.
    pub segments_truncated: u64,
    /// Individual frames rejected by CRC/length validation.
    pub corrupt_frames: u64,
    /// False when the manifest itself failed to decode; replay then
    /// rebuilds it from the segment files found on disk.
    pub manifest_ok: bool,
    /// Sealed segments skipped wholesale because the manifest's
    /// checkpoint covers them — their records live in the checkpoint
    /// fold, so decoding them would be pure waste.
    pub segments_skipped: u64,
}

#[derive(Default)]
struct Inner {
    active_seq: u32,
    /// File name of the active segment, kept so appends need not
    /// format it.
    active_name: String,
    active_len: usize,
    active_records: u32,
    sealed: Vec<SealedSeg>,
    /// Segments below this sequence are covered by a checkpoint fold
    /// (see [`SegmentStore::checkpoint`]); replay skips decoding them.
    checkpoint: u32,
    /// Reused encode buffer for one record frame.
    frame: Vec<u8>,
}

/// Append-only log of CRC-framed segments for one server, on a shared
/// [`SimDisk`]. Appends go to the active segment; once it passes the
/// size limit it is synced, recorded by one edit frame appended to the
/// manifest, and a fresh segment is opened — a roll costs O(1) however
/// long the log is. `barrier()` is the fsync point: everything
/// appended before it survives any crash tear.
pub struct SegmentStore {
    disk: Arc<SimDisk>,
    prefix: String,
    /// File name of the manifest.
    manifest: String,
    limit: usize,
    inner: Mutex<Inner>,
}

impl SegmentStore {
    pub fn new(disk: Arc<SimDisk>, prefix: &str) -> Self {
        SegmentStore::with_limit(disk, prefix, DEFAULT_SEGMENT_LIMIT)
    }

    pub fn with_limit(disk: Arc<SimDisk>, prefix: &str, limit: usize) -> Self {
        let store = SegmentStore {
            disk,
            prefix: prefix.to_string(),
            manifest: format!("{prefix}/manifest"),
            limit,
            inner: Mutex::new(Inner::default()),
        };
        store.reset(&mut store.inner.lock().unwrap());
        store
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    fn segment_name(&self, seq: u32) -> String {
        format!("{}/seg-{seq:06}.log", self.prefix)
    }

    fn create_segment(&self, seq: u32) {
        // The header is written and synced up front, so a tear can only
        // cost record frames, never the file's identity.
        self.disk
            .write_sync(&self.segment_name(seq), &encode_header(SEGMENT_MAGIC));
    }

    /// Creates segment `seq` and makes it the empty active segment.
    fn open_active(&self, inner: &mut Inner, seq: u32) {
        self.create_segment(seq);
        inner.active_name = self.segment_name(seq);
        inner.active_seq = seq;
        inner.active_len = HEADER_LEN;
        inner.active_records = 0;
    }

    /// Syncs the active segment and records it as sealed (in memory;
    /// the caller makes the manifest say so).
    fn seal_active(&self, inner: &mut Inner) -> SealedSeg {
        self.disk.sync(&inner.active_name);
        let sealed = SealedSeg {
            seq: inner.active_seq,
            len: inner.active_len as u64,
            records: inner.active_records,
        };
        inner.sealed.push(sealed);
        sealed
    }

    /// Rewrites the manifest as one compact base, folding away every
    /// edit frame appended since the last rewrite.
    fn compact_manifest(&self, inner: &Inner) {
        self.disk.write_sync(
            &self.manifest,
            &encode_manifest(&inner.sealed, inner.checkpoint),
        );
    }

    /// Empties the bookkeeping and opens segment 0 under a fresh base.
    fn reset(&self, inner: &mut Inner) {
        inner.sealed.clear();
        inner.checkpoint = 0;
        self.open_active(inner, 0);
        self.compact_manifest(inner);
    }

    /// Appends one record to the active segment (not yet durable; see
    /// [`barrier`](SegmentStore::barrier)). Seals the segment and opens
    /// the next when the size limit is passed; the seal appends one
    /// fixed-size edit frame to the manifest and syncs it, so its cost
    /// does not grow with the number of sealed segments.
    pub fn append(&self, rec: &Record) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        inner.frame.clear();
        encode_record_into(rec, &mut inner.frame);
        self.disk.append(&inner.active_name, &inner.frame);
        inner.active_len += inner.frame.len();
        inner.active_records += 1;
        if inner.active_len >= self.limit {
            let sealed = self.seal_active(inner);
            self.disk
                .append(&self.manifest, &encode_manifest_edit(&sealed));
            self.disk.sync(&self.manifest);
            self.open_active(inner, sealed.seq + 1);
        }
    }

    /// Fsync barrier: every record appended so far survives crash tears.
    pub fn barrier(&self) {
        let inner = self.inner.lock().unwrap();
        self.disk.sync(&inner.active_name);
    }

    /// Replays the log from disk after an amnesia restart.
    ///
    /// Segments are scanned in sequence order. Within each, decoding
    /// stops at the first torn or corrupt frame and the tail past the
    /// last good frame is physically truncated; a segment whose header
    /// is damaged is dropped wholly (reset to an empty header). The
    /// manifest is consulted as a cross-check only — when it is
    /// unreadable the segment files on disk are the source of truth —
    /// and is rebuilt afterwards to match what actually survived, so
    /// the next replay starts clean. Appends continue in the last
    /// surviving segment.
    pub fn replay(&self) -> Replay {
        let mut inner = self.inner.lock().unwrap();
        let manifest: Option<Manifest> = self
            .disk
            .read(&self.manifest)
            .and_then(|b| decode_manifest(&b).ok());
        let mut out = Replay {
            manifest_ok: manifest.is_some(),
            ..Replay::default()
        };
        // The checkpoint watermark is only trusted from an intact
        // manifest: with the manifest gone, everything is rescanned
        // (the fold supersedes covered records under last-wins anyway,
        // so a full scan is slower, never wrong).
        let manifest = manifest.unwrap_or_default();
        let seg_prefix = format!("{}/seg-", self.prefix);
        let names = self.disk.list(&seg_prefix);
        let mut survivors: Vec<SealedSeg> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let seq = name
                .strip_prefix(&seg_prefix)
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(i as u32);
            if seq < manifest.checkpoint {
                // `sealed` is in seq order, so a covered segment's
                // entry is a binary search away.
                if let Ok(at) = manifest.sealed.binary_search_by_key(&seq, |e| e.seq) {
                    // Covered by the checkpoint fold: skip decoding.
                    out.segments_skipped += 1;
                    survivors.push(manifest.sealed[at]);
                    continue;
                }
                // A covered segment the manifest does not list (it
                // should): fall through to the full scan.
            }
            let bytes = self.disk.read(name).unwrap_or_default();
            if let Err(_e) = decode_header(&bytes, SEGMENT_MAGIC) {
                // Unreadable identity: nothing in this segment can be
                // trusted. Reset it to an empty, well-formed segment.
                out.segments_truncated += 1;
                out.corrupt_frames += 1;
                self.create_segment(seq);
                survivors.push(SealedSeg {
                    seq,
                    len: HEADER_LEN as u64,
                    records: 0,
                });
                continue;
            }
            let mut off = HEADER_LEN;
            let mut records = 0u32;
            let mut torn = false;
            while off < bytes.len() {
                match decode_record(&bytes[off..]) {
                    Ok((rec, used)) => {
                        out.records.push(rec);
                        off += used;
                        records += 1;
                    }
                    Err(_e) => {
                        // First bad frame: cut the tail, keep the
                        // prefix. Anything lost here is healed from
                        // replicas by the delta resync.
                        out.corrupt_frames += 1;
                        out.segments_truncated += 1;
                        self.disk.truncate(name, off);
                        torn = true;
                        break;
                    }
                }
            }
            let len = if torn { off } else { bytes.len() };
            survivors.push(SealedSeg {
                seq,
                len: len as u64,
                records,
            });
        }
        // Rebuild bookkeeping from the survivors: all but the last are
        // sealed, the last becomes the active segment again.
        let active = survivors.pop().unwrap_or(SealedSeg {
            seq: 0,
            len: HEADER_LEN as u64,
            records: 0,
        });
        if names.is_empty() {
            self.create_segment(active.seq);
        }
        for s in &survivors {
            self.disk.sync(&self.segment_name(s.seq));
        }
        inner.active_name = self.segment_name(active.seq);
        self.disk.sync(&inner.active_name);
        inner.active_seq = active.seq;
        inner.active_len = active.len as usize;
        inner.active_records = active.records;
        inner.sealed = survivors;
        inner.checkpoint = manifest.checkpoint;
        self.compact_manifest(&inner);
        out
    }

    /// Takes a checkpoint: seals the active segment, writes `fold` —
    /// the caller's compact full-state image (latest record per live
    /// key) — into a fresh segment, syncs it, and only then advances
    /// the manifest's checkpoint watermark past every older segment.
    /// From then on [`SegmentStore::replay`] skips decoding the covered
    /// segments entirely: the fold supersedes their records under the
    /// last-wins fold, so replay cost is bounded by live state plus the
    /// appends since the last checkpoint instead of log history. The
    /// ordering makes the cut crash-safe — a crash before the manifest
    /// write leaves the old watermark and a full (correct) replay; rot
    /// inside the fold is caught by the frame CRCs and healed from
    /// replicas like any other damaged segment.
    pub fn checkpoint(&self, fold: &[Record]) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        // Seal the active segment as-is.
        let sealed = self.seal_active(inner);
        // Write the fold into the next segment and make it durable.
        self.open_active(inner, sealed.seq + 1);
        let mut bytes = Vec::new();
        for rec in fold {
            encode_record_into(rec, &mut bytes);
        }
        self.disk.append(&inner.active_name, &bytes);
        self.disk.sync(&inner.active_name);
        inner.active_len += bytes.len();
        inner.active_records = fold.len() as u32;
        inner.checkpoint = inner.active_seq;
        self.compact_manifest(inner);
    }

    /// Drops every file of this store and reopens it empty — the
    /// fresh-replica (no local disk) baseline.
    pub fn wipe(&self) {
        let mut inner = self.inner.lock().unwrap();
        for name in self.disk.list(&format!("{}/", self.prefix)) {
            self.disk.remove(&name);
        }
        self.reset(&mut inner);
    }

    /// Sealed-segment manifest as currently tracked (for tests).
    pub fn sealed(&self) -> Vec<SealedSeg> {
        self.inner.lock().unwrap().sealed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_simnet::rng::SimRng;

    fn rec(key: u64, fill: u8) -> Record {
        Record {
            epoch: 1,
            inc: 1,
            key,
            payload: vec![fill; 48],
        }
    }

    fn store() -> SegmentStore {
        SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 512)
    }

    #[test]
    fn append_replay_roundtrips_across_seals() {
        let s = store();
        for i in 0..40 {
            s.append(&rec(i, i as u8));
        }
        s.barrier();
        assert!(!s.sealed().is_empty(), "limit 512 must force seals");
        let replay = s.replay();
        assert_eq!(replay.records.len(), 40);
        assert_eq!(replay.segments_truncated, 0);
        assert!(replay.manifest_ok);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.key, i as u64);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_synced_prefix_survives() {
        // Large limit: no seal (which would sync) before the tear.
        let s = SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 4096);
        for i in 0..4 {
            s.append(&rec(i, 7));
        }
        s.barrier();
        for i in 4..7 {
            s.append(&rec(i, 8));
        }
        // No barrier: records 4..7 ride in the unsynced tail.
        let mut rng = SimRng::new(3);
        assert!(s.disk().tear_tail(&mut rng) > 0);
        let replay = s.replay();
        assert!(replay.records.len() >= 4, "synced records must survive");
        assert!(replay.records.len() < 7, "the tear must cost something");
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.key, i as u64, "surviving prefix is in order");
        }
        // A second replay of the truncated log is clean and identical.
        let again = s.replay();
        assert_eq!(again.records, replay.records);
        assert_eq!(again.segments_truncated, 0);
    }

    #[test]
    fn rotted_frame_is_detected_never_misread() {
        let s = store();
        for i in 0..10 {
            s.append(&rec(i, 9));
        }
        s.barrier();
        let mut rng = SimRng::new(11);
        s.disk().rot(&mut rng, 4);
        let replay = s.replay();
        // Whatever survives decodes exactly as written (CRC passed);
        // damaged frames only ever shorten the result.
        for r in &replay.records {
            assert_eq!(r.payload, vec![9u8; 48]);
        }
        assert!(replay.records.len() <= 10);
    }

    #[test]
    fn appends_continue_after_replay() {
        let s = store();
        for i in 0..5 {
            s.append(&rec(i, 1));
        }
        s.barrier();
        s.replay();
        for i in 5..10 {
            s.append(&rec(i, 2));
        }
        s.barrier();
        let replay = s.replay();
        assert_eq!(replay.records.len(), 10);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let s = store();
        for i in 0..40 {
            s.append(&rec(i % 8, i as u8));
        }
        s.barrier();
        let full = s.replay();
        assert_eq!(full.records.len(), 40);
        assert_eq!(full.segments_skipped, 0);
        // Fold: latest record per key (what a caller would checkpoint).
        let mut latest: std::collections::BTreeMap<u64, Record> = Default::default();
        for r in &full.records {
            latest.insert(r.key, r.clone());
        }
        let fold: Vec<Record> = latest.into_values().collect();
        s.checkpoint(&fold);
        let after = s.replay();
        assert!(
            after.segments_skipped > 0,
            "covered segments must be skipped"
        );
        assert_eq!(
            after.records.len(),
            fold.len(),
            "replay decodes only the fold, not the covered history"
        );
        // The fold carries the same final state the full log did.
        let mut from_fold: std::collections::BTreeMap<u64, &Record> = Default::default();
        for r in &after.records {
            from_fold.insert(r.key, r);
        }
        for r in &full.records {
            assert_eq!(from_fold[&r.key].payload.len(), r.payload.len());
        }
        // Appends continue past the checkpoint and replay picks them up.
        s.append(&rec(100, 5));
        s.barrier();
        let more = s.replay();
        assert_eq!(more.records.len(), fold.len() + 1);
        assert!(more.segments_skipped >= after.segments_skipped);
    }

    #[test]
    fn lost_manifest_falls_back_to_full_scan_not_data_loss() {
        let s = store();
        for i in 0..30 {
            s.append(&rec(i, 1));
        }
        s.barrier();
        let fold: Vec<Record> = s.replay().records;
        s.checkpoint(&fold);
        // Destroy the manifest: the checkpoint watermark is gone, so
        // replay rescans everything — slower, but the last-wins fold
        // still lands on the same state because the fold segment sorts
        // after every covered segment.
        s.disk().remove(&format!("{}/manifest", "s0"));
        let r = s.replay();
        assert!(!r.manifest_ok);
        assert_eq!(r.segments_skipped, 0, "no manifest, no skipping");
        assert!(
            r.records.len() >= 2 * fold.len(),
            "full history rescanned ({} records)",
            r.records.len()
        );
    }

    fn manifest_bytes(s: &SegmentStore) -> Vec<u8> {
        s.disk().read("s0/manifest").unwrap()
    }

    #[test]
    fn checkpoint_skip_over_thousands_of_sealed_segments() {
        // A 64-byte limit rolls on every append, so the history is one
        // sealed segment per record.
        let s = SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 64);
        for i in 0..2_000 {
            s.append(&rec(i % 16, i as u8));
        }
        s.barrier();
        assert_eq!(s.sealed().len(), 2_000);
        let mut latest: std::collections::BTreeMap<u64, Record> = Default::default();
        for r in s.replay().records {
            latest.insert(r.key, r);
        }
        let fold: Vec<Record> = latest.into_values().collect();
        s.checkpoint(&fold);
        // The checkpoint sealed the (empty) active segment too: every
        // segment before the fold's is covered.
        let covered = s.sealed().len() as u64;
        assert_eq!(covered, 2_001);
        let r = s.replay();
        assert!(r.manifest_ok);
        assert_eq!(r.segments_skipped, covered);
        assert_eq!(r.records, fold, "replay decodes exactly the fold");
    }

    #[test]
    fn rotted_edit_frame_replays_by_full_scan_without_loss() {
        let s = store();
        let mut latest: std::collections::BTreeMap<u64, Record> = Default::default();
        for i in 0..40 {
            let r = rec(i % 8, i as u8);
            s.append(&r);
            latest.insert(r.key, r);
        }
        s.barrier();
        let fold: Vec<Record> = latest.values().cloned().collect();
        s.checkpoint(&fold);
        for i in 40..80 {
            let r = rec(i % 8, i as u8);
            s.append(&r);
            latest.insert(r.key, r);
        }
        s.barrier();
        // Rot one byte inside the last edit frame of the manifest.
        let mut bytes = manifest_bytes(&s);
        assert!(
            bytes.len() > encode_manifest(&s.sealed(), 0).len(),
            "rolls after the checkpoint must have appended edits"
        );
        let at = bytes.len() - crate::segment::EDIT_LEN / 2;
        bytes[at] ^= 0x10;
        s.disk().write_sync("s0/manifest", &bytes);
        let r = s.replay();
        assert!(!r.manifest_ok, "a rotted edit must fail the manifest");
        assert_eq!(r.segments_skipped, 0, "no manifest, no skipping");
        assert_eq!(r.segments_truncated, 0);
        let mut folded: std::collections::BTreeMap<u64, Record> = Default::default();
        for rec in r.records {
            folded.insert(rec.key, rec);
        }
        assert_eq!(folded, latest, "the full scan loses no record");
        assert!(s.replay().manifest_ok, "replay rewrote a clean manifest");
    }

    #[test]
    fn replay_and_checkpoint_compact_the_manifest() {
        let s = store();
        let base_len = |s: &SegmentStore| encode_manifest(&s.sealed(), 0).len();
        for i in 0..40 {
            s.append(&rec(i, 1));
        }
        let rolls = s.sealed().len();
        assert!(rolls > 1);
        assert_eq!(
            manifest_bytes(&s).len(),
            encode_manifest(&[], 0).len() + rolls * crate::segment::EDIT_LEN,
            "each roll appends one edit frame to the empty base"
        );
        s.replay();
        assert_eq!(
            manifest_bytes(&s).len(),
            base_len(&s),
            "compact after replay"
        );
        for i in 40..80 {
            s.append(&rec(i, 2));
        }
        assert!(manifest_bytes(&s).len() > base_len(&s));
        s.checkpoint(&[rec(0, 3)]);
        assert_eq!(
            manifest_bytes(&s).len(),
            base_len(&s),
            "compact after checkpoint"
        );
        let m = decode_manifest(&manifest_bytes(&s)).unwrap();
        assert_eq!(m.sealed, s.sealed());
        assert_eq!(manifest_bytes(&s), encode_manifest(&m.sealed, m.checkpoint));
    }

    #[test]
    fn wipe_leaves_an_empty_openable_store() {
        let s = store();
        for i in 0..20 {
            s.append(&rec(i, 3));
        }
        s.barrier();
        s.wipe();
        let replay = s.replay();
        assert!(replay.records.is_empty());
        assert_eq!(replay.segments_truncated, 0);
        s.append(&rec(0, 4));
        s.barrier();
        assert_eq!(s.replay().records.len(), 1);
    }
}
