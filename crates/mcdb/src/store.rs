//! Persistent on-disk tier of the scenario cache.
//!
//! Scenario realization is deterministic, so a realized block is worth
//! keeping beyond the process that generated it: a service restart should
//! pay generation for its hot blocks **once**, not once per process. The
//! [`ScenarioStore`] spills realized [`ScenarioMatrix`] blocks to
//! content-addressed, checksummed files and reloads them on demand.
//!
//! ## Keying
//!
//! Files are addressed by the same logical coordinates as the in-memory
//! cache — `(relation, column, stream, seed, tuple set, scenario window)` —
//! but with one crucial substitution: the process-unique [`Relation::uid`](crate::Relation::uid)
//! is replaced by the restart-stable [`Relation::fingerprint`](crate::Relation::fingerprint) (a digest of
//! the relation name, cardinality, and every VG function's parameter
//! signature). Two processes that build the same workload therefore address
//! the same files, while any parameter change addresses different ones.
//!
//! ## File format
//!
//! One `.spqblk` file per block in the crate's [`blockfile`] format: the
//! key words are the 7 [`StoreKey`] words plus the tuple count, the payload
//! is the scenario-major `f64` matrix. Blocks are synced to disk before
//! they are renamed into place. A reload verifies key, shape, length and
//! checksum; any mismatch (truncation, bit rot, hash collision) deletes the
//! file, bumps the corrupt counter, and falls back to regeneration — a
//! corrupt block can cost time, never wrong data.
//!
//! ## Bounding
//!
//! The store is byte-bounded by `max_bytes`: a spill that would overflow
//! the budget first evicts the oldest files (by modification time) and is
//! skipped entirely if the block alone exceeds the budget. All spill/evict
//! decisions run under one mutex so the byte accounting stays exact.

use crate::blockfile::{self, BlockError};
use crate::scenario::ScenarioMatrix;
use crate::seed::splitmix64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const FILE_SUFFIX: &str = ".spqblk";
/// Block key: the 7 [`StoreKey`] words plus the tuple count.
const KEY_WORDS: usize = 8;

/// Restart-stable identity of one realized block on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// [`crate::Relation::fingerprint`] of the owning relation.
    pub relation_fingerprint: u64,
    /// Stable tag of the canonical column name.
    pub column_tag: u64,
    /// [`Stream::tag`](crate::seed::Stream::tag) of the generator stream.
    pub stream_tag: u64,
    /// Base seed of the generator.
    pub seed: u64,
    /// FNV-1a over the candidate tuple indices (plus their count) — the
    /// same digest the in-memory cache keys on.
    pub tuples_hash: u64,
    /// First scenario index of the window.
    pub first_scenario: u64,
    /// Number of scenarios in the window.
    pub scenarios: u64,
}

impl StoreKey {
    fn block_key(&self, n_tuples: usize) -> [u64; KEY_WORDS] {
        [
            self.relation_fingerprint,
            self.column_tag,
            self.stream_tag,
            self.seed,
            self.tuples_hash,
            self.first_scenario,
            self.scenarios,
            n_tuples as u64,
        ]
    }

    /// Content address: two independently salted folds of the key words, so
    /// file names have 128 bits of separation while full key words in the
    /// header still catch any residual collision.
    fn file_name(&self) -> String {
        let mut a = 0x6A09_E667_F3BC_C908u64;
        let mut b = 0xBB67_AE85_84CA_A73Bu64;
        for &w in &self.block_key(0)[..KEY_WORDS - 1] {
            a = splitmix64(a ^ splitmix64(w));
            b = splitmix64(b ^ splitmix64(w.rotate_left(17)));
        }
        format!("{a:016x}{b:016x}{FILE_SUFFIX}")
    }
}

/// Aggregated store counters, as surfaced by the spqd `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Blocks written to disk.
    pub spill_writes: u64,
    /// Blocks served from disk (each one a generation avoided).
    pub reads: u64,
    /// Bytes currently on disk.
    pub bytes: u64,
    /// Files rejected for truncation/corruption/key mismatch (and deleted).
    pub corrupt: u64,
    /// Files evicted to respect the byte budget.
    pub evictions: u64,
}

/// The byte-bounded, checksummed on-disk block store. Attach one to a
/// [`crate::ScenarioCache`] with [`crate::ScenarioCache::with_store`].
#[derive(Debug)]
pub struct ScenarioStore {
    dir: PathBuf,
    max_bytes: u64,
    bytes: AtomicU64,
    spill_writes: AtomicU64,
    reads: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    /// Serializes spill/evict so `bytes` never drifts from the directory.
    write_lock: Mutex<()>,
}

impl ScenarioStore {
    /// Default on-disk budget: 1 GiB of realized blocks.
    pub const DEFAULT_MAX_BYTES: u64 = 1 << 30;

    /// Open (creating if needed) a store rooted at `dir` with the default
    /// byte budget.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_bounded(dir, Self::DEFAULT_MAX_BYTES)
    }

    /// Open (creating if needed) a store rooted at `dir`, bounded to
    /// approximately `max_bytes` of block files. Existing block files are
    /// inventoried so the budget covers blocks spilled by earlier processes.
    pub fn open_bounded(dir: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut bytes = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(FILE_SUFFIX) {
                bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(ScenarioStore {
            dir,
            max_bytes,
            bytes: AtomicU64::new(bytes),
            spill_writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        })
    }

    /// The directory holding the block files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            spill_writes: self.spill_writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn mark_corrupt(&self, path: &Path) {
        // Deleting the bad file converts a permanent failure into one
        // regeneration; best-effort because a racing evict may have won.
        if let Ok(meta) = std::fs::metadata(path) {
            if std::fs::remove_file(path).is_ok() {
                self.bytes.fetch_sub(
                    meta.len().min(self.bytes.load(Ordering::Relaxed)),
                    Ordering::Relaxed,
                );
            }
        }
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to load the block addressed by `key`. Returns `None` on a plain
    /// miss and on any verification failure (which also deletes the file
    /// and counts it as corrupt): the caller regenerates in both cases.
    pub fn load(&self, key: &StoreKey, n_tuples: usize) -> Option<ScenarioMatrix> {
        let path = self.dir.join(key.file_name());
        let payload = match blockfile::read(&path, &key.block_key(n_tuples)) {
            Ok(payload) => payload,
            Err(BlockError::Corrupt(_)) => {
                self.mark_corrupt(&path);
                return None;
            }
            Err(BlockError::Missing | BlockError::Io(_)) => return None,
        };
        let cells = (n_tuples as u64).checked_mul(key.scenarios);
        if cells.and_then(|c| c.checked_mul(8)) != Some(payload.len() as u64) {
            self.mark_corrupt(&path);
            return None;
        }
        let data: Vec<f64> = payload
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                f64::from_le_bytes(w)
            })
            .collect();
        self.reads.fetch_add(1, Ordering::Relaxed);
        Some(ScenarioMatrix::from_raw(n_tuples, data))
    }

    /// Spill one realized block. Over-budget spills evict the oldest files
    /// first; a block bigger than the whole budget is skipped. Failures are
    /// silent — the store is an optimization, never a correctness
    /// dependency.
    pub fn spill(&self, key: &StoreKey, matrix: &ScenarioMatrix) {
        let file_len = blockfile::header_len(KEY_WORDS) + matrix.raw_data().len() as u64 * 8;
        if file_len > self.max_bytes {
            return;
        }
        let _guard = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let path = self.dir.join(key.file_name());
        if path.exists() {
            // Another thread (or a previous run) already spilled this key.
            return;
        }
        if self.bytes.load(Ordering::Relaxed) + file_len > self.max_bytes {
            self.evict_until(self.max_bytes.saturating_sub(file_len));
        }
        if self.bytes.load(Ordering::Relaxed) + file_len > self.max_bytes {
            return;
        }
        let mut payload = Vec::with_capacity(matrix.raw_data().len() * 8);
        for v in matrix.raw_data() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let key_words = key.block_key(matrix.num_tuples());
        if blockfile::write(&path, &key_words, &payload, true).is_err() {
            return;
        }
        self.bytes.fetch_add(file_len, Ordering::Relaxed);
        self.spill_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict oldest-first (by mtime) until at most `target_bytes` remain.
    /// Caller holds `write_lock`.
    fn evict_until(&self, target_bytes: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(FILE_SUFFIX))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        files.sort();
        for (_, path, len) in files {
            if self.bytes.load(Ordering::Relaxed) <= target_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.bytes.fetch_sub(
                    len.min(self.bytes.load(Ordering::Relaxed)),
                    Ordering::Relaxed,
                );
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::Stream;

    fn key(seed: u64) -> StoreKey {
        StoreKey {
            relation_fingerprint: 0xFEED,
            column_tag: 0xC01,
            stream_tag: Stream::Validation.tag(),
            seed,
            tuples_hash: 0x7_0001,
            first_scenario: 0,
            scenarios: 4,
        }
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::from_raw(3, (0..12).map(|i| i as f64 * 0.5 - 2.0).collect())
    }

    /// On-disk size of one spilled `matrix()` block.
    const BLOCK: u64 = blockfile::header_len(KEY_WORDS) + 12 * 8;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spq-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_and_reload_round_trip_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let store = ScenarioStore::open(&dir).unwrap();
        let m = matrix();
        assert!(store.load(&key(1), 3).is_none(), "cold store misses");
        store.spill(&key(1), &m);
        let stats = store.stats();
        assert_eq!((stats.spill_writes, stats.reads, stats.corrupt), (1, 0, 0));
        assert_eq!(stats.bytes, BLOCK);
        let back = store.load(&key(1), 3).expect("stored block loads");
        assert_eq!(back, m);
        assert_eq!(store.stats().reads, 1);
        // A different key misses even with files present.
        assert!(store.load(&key(2), 3).is_none());
        // A fresh store over the same directory (the "restart") still loads.
        drop(store);
        let reopened = ScenarioStore::open(&dir).unwrap();
        assert_eq!(
            reopened.stats().bytes,
            stats.bytes,
            "restart inventories files"
        );
        assert_eq!(reopened.load(&key(1), 3).expect("warm restart"), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupted_files_are_rejected_and_deleted() {
        let dir = tmp_dir("corrupt");
        let store = ScenarioStore::open(&dir).unwrap();
        let m = matrix();
        store.spill(&key(1), &m);
        let path = dir.join(key(1).file_name());

        // Flip one payload byte: checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key(1), 3).is_none(), "bit rot must not load");
        assert!(!path.exists(), "corrupt file is deleted");
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.stats().bytes, 0);

        // Truncation mid-payload.
        store.spill(&key(1), &m);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(store.load(&key(1), 3).is_none());
        assert_eq!(store.stats().corrupt, 2);

        // Truncation mid-header.
        store.spill(&key(1), &m);
        let bytes = std::fs::read(&path).unwrap();
        let header = blockfile::header_len(KEY_WORDS) as usize;
        std::fs::write(&path, &bytes[..header - 3]).unwrap();
        assert!(store.load(&key(1), 3).is_none());
        assert_eq!(store.stats().corrupt, 3);

        // A key-word mismatch (same file name, different header) rejects.
        store.spill(&key(1), &m);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[17] ^= 0xFF; // inside the fingerprint word
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key(1), 3).is_none());
        assert_eq!(store.stats().corrupt, 4);

        // A block of another shape (the right key at a wrong tuple count)
        // is rejected too.
        store.spill(&key(1), &m);
        assert!(store.load(&key(1), 4).is_none());
        assert_eq!(store.stats().corrupt, 5);

        // Regeneration after rejection works (spill again, load again).
        store.spill(&key(1), &m);
        assert_eq!(store.load(&key(1), 3).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_oldest_and_skips_oversized() {
        let dir = tmp_dir("budget");
        let m = matrix();
        // Room for two and a half blocks.
        let store = ScenarioStore::open_bounded(&dir, 2 * BLOCK + BLOCK / 2).unwrap();
        store.spill(&key(1), &m);
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.spill(&key(2), &m);
        assert_eq!(store.stats().bytes, 2 * BLOCK);
        // The third spill exceeds the budget: the oldest file (key 1) goes.
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.spill(&key(3), &m);
        assert!(store.load(&key(1), 3).is_none(), "oldest was evicted");
        assert!(store.load(&key(2), 3).is_some());
        assert!(store.load(&key(3), 3).is_some());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().bytes, 2 * BLOCK);

        // A block bigger than the whole budget is never written.
        let tiny = ScenarioStore::open_bounded(tmp_dir("tiny"), 64).unwrap();
        tiny.spill(&key(9), &m);
        assert_eq!(tiny.stats().spill_writes, 0);
        assert_eq!(tiny.stats().bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(tiny.dir());
    }
}
