//! In-memory simulated disk with explicit sync points.
//!
//! The durability contract mirrors a real file system's: `append` puts
//! bytes in the page cache, `sync` makes them crash-durable. A crash
//! tear ([`SimDisk::tear_tail`]) can drop any suffix of the *unsynced*
//! region of each file — never synced bytes. At-rest bit rot
//! ([`SimDisk::rot`]) ignores sync entirely: it models media decay and
//! may flip any bit on the disk. Both take a caller-owned [`SimRng`] so
//! fault draws live on dedicated streams and zero-knob plans replay
//! bit-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prism_simnet::rng::SimRng;

#[derive(Default)]
struct DiskFile {
    bytes: Vec<u8>,
    /// Bytes `[0, synced)` survive any crash; the tail past it may tear.
    synced: usize,
}

/// A named-file in-memory disk. All operations are `&self`; a single
/// mutex guards the file table (the simulation is single-threaded, the
/// lock only satisfies `Sync`).
#[derive(Default)]
pub struct SimDisk {
    files: Mutex<BTreeMap<String, DiskFile>>,
    /// Bytes ever passed to `append` and `write_sync`.
    written: AtomicU64,
}

impl SimDisk {
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Appends `data` to `name`, creating the file if needed. The new
    /// bytes are *not* durable until [`sync`](SimDisk::sync).
    pub fn append(&self, name: &str, data: &[u8]) {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut files = self.files.lock().unwrap();
        // Look up first: the hot path appends to an existing file and
        // should not allocate a key for it.
        if let Some(f) = files.get_mut(name) {
            f.bytes.extend_from_slice(data);
        } else {
            files
                .entry(name.to_string())
                .or_default()
                .bytes
                .extend_from_slice(data);
        }
    }

    /// Makes every byte of `name` crash-durable.
    pub fn sync(&self, name: &str) {
        let mut files = self.files.lock().unwrap();
        if let Some(f) = files.get_mut(name) {
            f.synced = f.bytes.len();
        }
    }

    /// Atomically replaces `name` with `data`, already durable — the
    /// write-temp-then-rename idiom collapsed to one step.
    pub fn write_sync(&self, name: &str, data: &[u8]) {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut files = self.files.lock().unwrap();
        let f = files.entry(name.to_string()).or_default();
        f.bytes = data.to_vec();
        f.synced = f.bytes.len();
    }

    /// Total bytes ever handed to [`append`](SimDisk::append) and
    /// [`write_sync`](SimDisk::write_sync): a monotone write-volume
    /// count. Pure observer — it draws no RNG and never changes the
    /// disk.
    pub fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    pub fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .map(|f| f.bytes.clone())
    }

    pub fn len(&self, name: &str) -> Option<usize> {
        self.files.lock().unwrap().get(name).map(|f| f.bytes.len())
    }

    pub fn is_empty(&self) -> bool {
        self.files.lock().unwrap().is_empty()
    }

    /// Truncates `name` to `len` bytes (used by replay to cut a torn or
    /// corrupt tail). The synced watermark is clamped alongside.
    pub fn truncate(&self, name: &str, len: usize) {
        let mut files = self.files.lock().unwrap();
        if let Some(f) = files.get_mut(name) {
            f.bytes.truncate(len);
            f.synced = f.synced.min(len);
        }
    }

    pub fn remove(&self, name: &str) {
        self.files.lock().unwrap().remove(name);
    }

    /// Names of all files starting with `prefix`, in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .lock()
            .unwrap()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Crash tear: for every file with an unsynced tail, drop a seeded
    /// suffix of that tail (at least one byte of it). Synced bytes are
    /// untouched. Returns the total bytes dropped. Files are visited in
    /// name order, so a given RNG stream tears deterministically.
    pub fn tear_tail(&self, rng: &mut SimRng) -> u64 {
        let mut files = self.files.lock().unwrap();
        let mut dropped = 0u64;
        for f in files.values_mut() {
            let unsynced = f.bytes.len() - f.synced;
            if unsynced == 0 {
                continue;
            }
            // Keep a seeded prefix of the unsynced region: the crash
            // caught the tail mid-write.
            let keep = rng.gen_range(unsynced as u64) as usize;
            dropped += (unsynced - keep) as u64;
            f.bytes.truncate(f.synced + keep);
            f.synced = f.synced.min(f.bytes.len());
        }
        dropped
    }

    /// At-rest bit rot: flips `bits` seeded bits anywhere on the disk
    /// (sync offers no protection against media decay). Returns the
    /// number of flips applied (0 if the disk is empty).
    pub fn rot(&self, rng: &mut SimRng, bits: u32) -> u32 {
        let mut files = self.files.lock().unwrap();
        let total: usize = files.values().map(|f| f.bytes.len()).sum();
        if total == 0 {
            return 0;
        }
        let mut applied = 0;
        for _ in 0..bits {
            let mut at = rng.gen_range(total as u64) as usize;
            let bit = rng.gen_range(8) as u8;
            for f in files.values_mut() {
                if at < f.bytes.len() {
                    f.bytes[at] ^= 1 << bit;
                    applied += 1;
                    break;
                }
                at -= f.bytes.len();
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tear_never_touches_synced_bytes() {
        let disk = SimDisk::new();
        disk.append("f", b"durable-part");
        disk.sync("f");
        disk.append("f", b"tail-at-risk");
        let mut rng = SimRng::new(7);
        let dropped = disk.tear_tail(&mut rng);
        assert!(dropped >= 1);
        let bytes = disk.read("f").unwrap();
        assert!(bytes.starts_with(b"durable-part"));
        assert!(bytes.len() < b"durable-part".len() + b"tail-at-risk".len());
    }

    #[test]
    fn tear_is_a_noop_on_fully_synced_files() {
        let disk = SimDisk::new();
        disk.append("f", b"all-synced");
        disk.sync("f");
        let mut rng = SimRng::new(7);
        assert_eq!(disk.tear_tail(&mut rng), 0);
        assert_eq!(disk.read("f").unwrap(), b"all-synced");
    }

    #[test]
    fn rot_flips_exactly_the_requested_bits() {
        let disk = SimDisk::new();
        disk.append("f", &[0u8; 64]);
        disk.sync("f");
        let mut rng = SimRng::new(9);
        assert_eq!(disk.rot(&mut rng, 3), 3);
        let ones: u32 = disk.read("f").unwrap().iter().map(|b| b.count_ones()).sum();
        assert!((1..=3).contains(&ones)); // flips may collide
    }

    #[test]
    fn bytes_written_counts_appends_and_rewrites() {
        let disk = SimDisk::new();
        disk.append("f", &[0u8; 10]);
        disk.append("f", &[0u8; 5]);
        disk.write_sync("g", &[0u8; 7]);
        disk.write_sync("g", &[0u8; 3]);
        disk.sync("f");
        disk.truncate("f", 2);
        disk.remove("g");
        assert_eq!(disk.bytes_written(), 25, "only appends and rewrites count");
    }

    #[test]
    fn same_seed_tears_identically() {
        let run = |seed| {
            let disk = SimDisk::new();
            disk.append("a", &[1u8; 100]);
            disk.sync("a");
            disk.append("a", &[2u8; 50]);
            disk.append("b", &[3u8; 30]);
            let mut rng = SimRng::new(seed);
            disk.tear_tail(&mut rng);
            (disk.read("a").unwrap(), disk.read("b").unwrap())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
