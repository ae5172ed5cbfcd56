//! Columnar storage tiers behind [`crate::Relation`].
//!
//! Deterministic columns live behind the [`ColumnStorage`] abstraction with
//! two implementations:
//!
//! * **Memory** — the original fully-materialized `Vec<Value>`, zero-cost to
//!   read and the default for every relation that fits comfortably in RAM.
//! * **Disk** — a chunked, typed, out-of-core tier: the column is split into
//!   fixed-size row chunks, each encoded into its own checksummed
//!   [`blockfile`] under a relation directory (written via temp-file +
//!   rename, so readers never observe a half-written chunk). Reads go
//!   through a small byte-budgeted [`ChunkCache`] shared by all columns of
//!   the relation, evicting in oldest-first (insertion) order.
//!
//! The two tiers are **bit-identical** to consumers: every accessor on
//! [`crate::Relation`] returns the same values in the same order regardless
//! of tier or chunk size, which is what the storage conformance suite pins.
//!
//! ## Chunk files
//!
//! Chunk `i` of a column is the file `<column tag>-<i>.spqcol`, one block
//! keyed `[column tag, i, value count]` whose payload is the tagged values
//! (0=null, 1=i64, 2=f64, 3=len+utf8). A reload verifies the block (magic,
//! key, length, checksum) and the payload decoding; any mismatch **deletes
//! the file** and surfaces a descriptive [`McdbError::ChunkCorrupt`] —
//! never a panic, never wrong data. The caller (catalog or test harness)
//! rebuilds the relation from its source, which is also why chunk files are
//! not synced to disk.

use crate::blockfile::{self, BlockError};
use crate::error::McdbError;
use crate::memo::Memo;
use crate::seed::column_tag;
use crate::value::Value;
use crate::Result;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FILE_SUFFIX: &str = ".spqcol";

/// Approximate heap footprint of one value when resident (enum + text heap).
fn value_bytes(v: &Value) -> u64 {
    let text = match v {
        Value::Text(s) => s.len() as u64,
        _ => 0,
    };
    std::mem::size_of::<Value>() as u64 + text
}

fn values_bytes(values: &[Value]) -> u64 {
    values.iter().map(value_bytes).sum()
}

/// Where a relation keeps its deterministic columns.
#[derive(Debug, Clone, Default)]
pub enum StorageOptions {
    /// Fully materialized in-memory vectors (the default).
    #[default]
    Memory,
    /// Chunked column files on disk behind a byte-budgeted chunk cache.
    Disk(DiskOptions),
}

impl StorageOptions {
    /// The in-memory tier.
    pub fn memory() -> Self {
        StorageOptions::Memory
    }

    /// The out-of-core tier rooted at `dir` with default chunking.
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        StorageOptions::Disk(DiskOptions::new(dir))
    }

    /// Rows per chunk file (disk tier only; no-op for memory).
    pub fn chunk_rows(self, rows: usize) -> Self {
        match self {
            StorageOptions::Disk(d) => StorageOptions::Disk(d.chunk_rows(rows)),
            m => m,
        }
    }

    /// Chunk-cache byte budget (disk tier only; no-op for memory).
    pub fn cache_bytes(self, bytes: u64) -> Self {
        match self {
            StorageOptions::Disk(d) => StorageOptions::Disk(d.cache_bytes(bytes)),
            m => m,
        }
    }

    /// Keep chunk files on disk after the relation is dropped (disk tier
    /// only). By default they are deleted with the relation.
    pub fn keep_files(self) -> Self {
        match self {
            StorageOptions::Disk(mut d) => {
                d.cleanup_on_drop = false;
                StorageOptions::Disk(d)
            }
            m => m,
        }
    }
}

/// Configuration of the out-of-core tier.
#[derive(Debug, Clone)]
pub struct DiskOptions {
    /// Directory holding this relation's chunk files (created if absent).
    pub dir: PathBuf,
    /// Rows per chunk file. Chunk boundaries are row-aligned across all
    /// columns of the relation.
    pub chunk_rows: usize,
    /// Byte budget of the shared chunk cache.
    pub cache_bytes: u64,
    /// Delete this relation's chunk files when the last handle drops.
    pub cleanup_on_drop: bool,
}

impl DiskOptions {
    /// Default rows per chunk file.
    pub const DEFAULT_CHUNK_ROWS: usize = 65_536;
    /// Default chunk-cache budget: 32 MiB.
    pub const DEFAULT_CACHE_BYTES: u64 = 32 << 20;

    /// Disk options rooted at `dir` with the defaults above.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskOptions {
            dir: dir.into(),
            chunk_rows: Self::DEFAULT_CHUNK_ROWS,
            cache_bytes: Self::DEFAULT_CACHE_BYTES,
            cleanup_on_drop: true,
        }
    }

    /// Set the rows per chunk file (clamped to at least 1).
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Set the chunk-cache byte budget.
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }
}

/// Counters of one relation's chunk cache, surfaced through the catalog's
/// `stats`/`list_relations` wire ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkCacheStats {
    /// Chunk reads served from the cache.
    pub hits: u64,
    /// Chunk reads that had to page a file in.
    pub misses: u64,
    /// Chunks evicted to respect the byte budget.
    pub evictions: u64,
    /// Chunk files rejected (and deleted) for corruption/truncation.
    pub corrupt: u64,
    /// Bytes of chunk data currently resident.
    pub resident_bytes: u64,
    /// Current byte budget.
    pub budget_bytes: u64,
}

/// Byte-budgeted cache of decoded chunks, shared by every disk-backed column
/// of one relation: a [`Memo`] keyed by `(column tag, chunk)`, so
/// concurrent readers of one chunk page it in once. Eviction is
/// oldest-first in insertion order; the budget can be tightened after build
/// (e.g. by `max_relation_bytes`).
#[derive(Debug)]
pub struct ChunkCache {
    chunks: Memo<(u64, u32), Arc<Vec<Value>>>,
    corrupt: AtomicU64,
}

impl ChunkCache {
    /// A cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        ChunkCache {
            chunks: Memo::new(budget),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ChunkCacheStats {
        let s = self.chunks.stats();
        ChunkCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            corrupt: self.corrupt.load(Ordering::Relaxed),
            resident_bytes: s.resident,
            budget_bytes: s.budget,
        }
    }

    /// Tighten (never widen) the byte budget and evict down to it. Used to
    /// enforce `max_relation_bytes`-style ceilings after the relation is
    /// built.
    pub fn clamp_budget(&self, bytes: u64) {
        self.chunks.shrink_budget(bytes);
    }

    /// Fetch a decoded chunk, paging it in on a miss.
    fn get(&self, column: &DiskColumn, chunk: u32) -> Result<Arc<Vec<Value>>> {
        let read = || {
            let values = column.read_chunk(chunk).inspect_err(|e| {
                if matches!(e, McdbError::ChunkCorrupt { .. }) {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            })?;
            let bytes = values_bytes(&values);
            Ok((Arc::new(values), bytes))
        };
        self.chunks
            .get_or_insert_with(&(column.tag, chunk), read)
            .map(|(values, _)| values)
    }

    /// Drop every cached chunk whose column tag matches (used when a relation
    /// is rebuilt in place after chunk corruption).
    fn invalidate_column(&self, tag: u64) {
        self.chunks.retain(|&(t, _)| t != tag);
    }
}

/// One disk-backed deterministic column: chunk files under the relation
/// directory plus the shared cache that pages them in.
#[derive(Debug)]
pub struct DiskColumn {
    name: String,
    tag: u64,
    dir: PathBuf,
    chunk_rows: usize,
    n_rows: usize,
    disk_bytes: u64,
    cache: Arc<ChunkCache>,
}

impl DiskColumn {
    fn chunk_path(&self, chunk: u32) -> PathBuf {
        chunk_file_path(&self.dir, self.tag, chunk)
    }

    fn n_chunks(&self) -> u32 {
        self.n_rows.div_ceil(self.chunk_rows) as u32
    }

    fn chunk_len(&self, chunk: u32) -> usize {
        let start = chunk as usize * self.chunk_rows;
        self.chunk_rows.min(self.n_rows - start)
    }

    /// Read and verify one chunk file. Any verification failure deletes the
    /// file and returns [`McdbError::ChunkCorrupt`].
    fn read_chunk(&self, chunk: u32) -> Result<Vec<Value>> {
        let path_buf = self.chunk_path(chunk);
        let path = path_buf.display().to_string();
        let corrupt = |detail: &str| {
            let _ = std::fs::remove_file(&path_buf);
            McdbError::ChunkCorrupt {
                path: path.clone(),
                detail: format!("column `{}`: {detail}", self.name),
            }
        };
        let expected = self.chunk_len(chunk);
        let key = [self.tag, u64::from(chunk), expected as u64];
        let payload = match blockfile::read(&path_buf, &key) {
            Ok(payload) => payload,
            Err(BlockError::Missing) => {
                return Err(McdbError::ChunkCorrupt {
                    path,
                    detail: "chunk file is missing".to_string(),
                })
            }
            Err(BlockError::Io(e)) => {
                return Err(McdbError::ChunkIo {
                    path,
                    message: e.to_string(),
                })
            }
            Err(BlockError::Corrupt(detail)) => return Err(corrupt(&detail)),
        };
        decode_values(&payload, expected).ok_or_else(|| corrupt("undecodable payload"))
    }

    /// Delete this column's chunk files (relation drop cleanup).
    fn remove_files(&self) {
        for chunk in 0..self.n_chunks() {
            let _ = std::fs::remove_file(self.chunk_path(chunk));
        }
    }
}

fn chunk_file_path(dir: &Path, tag: u64, chunk: u32) -> PathBuf {
    dir.join(format!("{tag:016x}-{chunk:08}{FILE_SUFFIX}"))
}

/// Storage tier of one deterministic column.
///
/// This is the abstraction the rest of the workspace programs against:
/// accessors are tier-agnostic and **bit-identical** across tiers, chunk
/// sizes, and thread counts. Whole-column reads stream through
/// [`ColumnStorage::for_each_chunk`]; the others gather specific rows,
/// paging in only the chunks those rows live in.
#[derive(Debug)]
pub enum ColumnStorage {
    /// Fully materialized values.
    Memory {
        /// The column values.
        values: Vec<Value>,
        /// Cached resident footprint of `values`.
        bytes: u64,
    },
    /// Chunked column files behind the relation's shared [`ChunkCache`].
    Disk(DiskColumn),
}

impl ColumnStorage {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnStorage::Memory { values, .. } => values.len(),
            ColumnStorage::Disk(d) => d.n_rows,
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch one value (pages in the owning chunk on the disk tier).
    pub fn get(&self, row: usize) -> Result<Value> {
        match self {
            ColumnStorage::Memory { values, .. } => Ok(values[row].clone()),
            ColumnStorage::Disk(d) => {
                let chunk = (row / d.chunk_rows) as u32;
                let values = d.cache.get(d, chunk)?;
                Ok(values[row % d.chunk_rows].clone())
            }
        }
    }

    /// Stream the column in row order as `(first_row, values)` chunks. The
    /// memory tier yields one chunk covering the whole column.
    pub fn for_each_chunk<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(usize, &[Value]) -> Result<()>,
    {
        match self {
            ColumnStorage::Memory { values, .. } => f(0, values),
            ColumnStorage::Disk(d) => {
                for chunk in 0..d.n_chunks() {
                    let values = d.cache.get(d, chunk)?;
                    f(chunk as usize * d.chunk_rows, &values)?;
                }
                Ok(())
            }
        }
    }

    /// Gather the given rows, in the given order, paging in only the chunks
    /// they live in (each needed chunk is fetched once per call).
    pub fn gather(&self, rows: &[usize]) -> Result<Vec<Value>> {
        match self {
            ColumnStorage::Memory { values, .. } => {
                rows.iter().map(|&r| Ok(values[r].clone())).collect()
            }
            ColumnStorage::Disk(d) => {
                let mut out = vec![Value::Null; rows.len()];
                let mut by_chunk: BTreeMap<u32, Vec<(usize, usize)>> = BTreeMap::new();
                for (pos, &row) in rows.iter().enumerate() {
                    let chunk = (row / d.chunk_rows) as u32;
                    by_chunk
                        .entry(chunk)
                        .or_default()
                        .push((pos, row % d.chunk_rows));
                }
                for (chunk, wants) in by_chunk {
                    let values = d.cache.get(d, chunk)?;
                    for (pos, offset) in wants {
                        out[pos] = values[offset].clone();
                    }
                }
                Ok(out)
            }
        }
    }

    /// Resident footprint: the full column for the memory tier, nothing for
    /// the disk tier (its residency is the shared chunk cache, accounted at
    /// relation level).
    pub fn resident_bytes(&self) -> u64 {
        match self {
            ColumnStorage::Memory { bytes, .. } => *bytes,
            ColumnStorage::Disk(_) => 0,
        }
    }

    /// Bytes of chunk files on disk (0 for the memory tier).
    pub fn disk_bytes(&self) -> u64 {
        match self {
            ColumnStorage::Memory { .. } => 0,
            ColumnStorage::Disk(d) => d.disk_bytes,
        }
    }

    pub(crate) fn remove_files(&self) {
        if let ColumnStorage::Disk(d) = self {
            d.remove_files();
        }
    }

    pub(crate) fn invalidate_cached(&self) {
        if let ColumnStorage::Disk(d) = self {
            d.cache.invalidate_column(d.tag);
        }
    }
}

fn encode_values(values: &[Value], buf: &mut Vec<u8>) {
    for v in values {
        match v {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(2);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(3);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }
}

fn decode_values(payload: &[u8], count: usize) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(count);
    let mut at = 0usize;
    for _ in 0..count {
        let tag = *payload.get(at)?;
        at += 1;
        match tag {
            0 => out.push(Value::Null),
            1 => {
                let bytes = payload.get(at..at + 8)?;
                out.push(Value::Int(i64::from_le_bytes(bytes.try_into().ok()?)));
                at += 8;
            }
            2 => {
                let bytes = payload.get(at..at + 8)?;
                out.push(Value::Float(f64::from_le_bytes(bytes.try_into().ok()?)));
                at += 8;
            }
            3 => {
                let len_bytes = payload.get(at..at + 4)?;
                let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
                at += 4;
                let bytes = payload.get(at..at + len)?;
                out.push(Value::Text(String::from_utf8(bytes.to_vec()).ok()?));
                at += len;
            }
            _ => return None,
        }
    }
    if at == payload.len() {
        Some(out)
    } else {
        None
    }
}

/// Incremental writer used by `RelationBuilder` for both tiers: values are
/// pushed in row order; the disk tier spills a chunk file each time
/// `chunk_rows` values accumulate, so building a 10M-row column never holds
/// more than one chunk of it in memory.
#[derive(Debug)]
pub(crate) enum ColumnWriter {
    Memory {
        values: Vec<Value>,
    },
    Disk {
        name: String,
        tag: u64,
        dir: PathBuf,
        chunk_rows: usize,
        buf: Vec<Value>,
        next_chunk: u32,
        rows: usize,
        disk_bytes: u64,
        error: Option<McdbError>,
    },
}

impl ColumnWriter {
    pub(crate) fn memory() -> Self {
        ColumnWriter::Memory { values: Vec::new() }
    }

    pub(crate) fn disk(name: &str, options: &DiskOptions) -> Self {
        ColumnWriter::Disk {
            name: name.to_string(),
            tag: column_tag(name),
            dir: options.dir.clone(),
            chunk_rows: options.chunk_rows.max(1),
            buf: Vec::new(),
            next_chunk: 0,
            rows: 0,
            disk_bytes: 0,
            error: None,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        match self {
            ColumnWriter::Memory { values, .. } => values.len(),
            ColumnWriter::Disk { rows, .. } => *rows,
        }
    }

    pub(crate) fn push(&mut self, value: Value) {
        match self {
            ColumnWriter::Memory { values } => values.push(value),
            ColumnWriter::Disk {
                buf,
                rows,
                chunk_rows,
                ..
            } => {
                buf.push(value);
                *rows += 1;
                if buf.len() >= *chunk_rows {
                    self.spill_full_chunks();
                }
            }
        }
    }

    pub(crate) fn extend(&mut self, values: Vec<Value>) {
        for v in values {
            self.push(v);
        }
    }

    fn spill_full_chunks(&mut self) {
        let ColumnWriter::Disk {
            tag,
            dir,
            chunk_rows,
            buf,
            next_chunk,
            disk_bytes,
            error,
            ..
        } = self
        else {
            return;
        };
        while buf.len() >= *chunk_rows && error.is_none() {
            let rest = buf.split_off(*chunk_rows);
            let chunk = std::mem::replace(buf, rest);
            match write_chunk(dir, *tag, *next_chunk, &chunk) {
                Ok(len) => *disk_bytes += len,
                Err(e) => *error = Some(e),
            }
            *next_chunk += 1;
        }
    }

    /// Finalize into storage. For the disk tier the last partial chunk is
    /// flushed here.
    pub(crate) fn finish(self, cache: Option<&Arc<ChunkCache>>) -> Result<ColumnStorage> {
        match self {
            ColumnWriter::Memory { values } => {
                let bytes = values_bytes(&values);
                Ok(ColumnStorage::Memory { values, bytes })
            }
            ColumnWriter::Disk {
                name,
                tag,
                dir,
                chunk_rows,
                buf,
                next_chunk,
                rows,
                mut disk_bytes,
                error,
            } => {
                if let Some(e) = error {
                    return Err(e);
                }
                if !buf.is_empty() {
                    disk_bytes += write_chunk(&dir, tag, next_chunk, &buf)?;
                }
                let cache = cache
                    .cloned()
                    .unwrap_or_else(|| Arc::new(ChunkCache::new(DiskOptions::DEFAULT_CACHE_BYTES)));
                Ok(ColumnStorage::Disk(DiskColumn {
                    name,
                    tag,
                    dir,
                    chunk_rows,
                    n_rows: rows,
                    disk_bytes,
                    cache,
                }))
            }
        }
    }
}

/// Write chunk `chunk` of column `tag` to its file; returns the file's
/// length.
fn write_chunk(dir: &Path, tag: u64, chunk: u32, values: &[Value]) -> Result<u64> {
    let path = chunk_file_path(dir, tag, chunk);
    let mut payload = Vec::new();
    encode_values(values, &mut payload);
    let key = [tag, u64::from(chunk), values.len() as u64];
    std::fs::create_dir_all(dir)
        .and_then(|()| blockfile::write(&path, &key, &payload, false))
        .map_err(|e| McdbError::ChunkIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spq-col-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build_disk(dir: &Path, chunk_rows: usize, values: Vec<Value>) -> ColumnStorage {
        let opts = DiskOptions::new(dir).chunk_rows(chunk_rows);
        let mut w = ColumnWriter::disk("x", &opts);
        w.extend(values);
        let cache = Arc::new(ChunkCache::new(1 << 20));
        w.finish(Some(&cache)).unwrap()
    }

    fn mixed_values(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match i % 4 {
                0 => Value::Int(i as i64),
                1 => Value::Float(i as f64 * 0.5),
                2 => Value::Text(format!("t{i}")),
                _ => Value::Null,
            })
            .collect()
    }

    #[test]
    fn disk_round_trips_all_value_types_across_chunk_sizes() {
        for chunk_rows in [1usize, 3, 7, 64] {
            let dir = tmp_dir(&format!("roundtrip-{chunk_rows}"));
            let values = mixed_values(23);
            let storage = build_disk(&dir, chunk_rows, values.clone());
            assert_eq!(storage.len(), 23);
            for (i, v) in values.iter().enumerate() {
                assert_eq!(&storage.get(i).unwrap(), v, "row {i} chunk {chunk_rows}");
            }
            let gathered = storage.gather(&[22, 0, 5, 5]).unwrap();
            assert_eq!(
                gathered,
                vec![
                    values[22].clone(),
                    values[0].clone(),
                    values[5].clone(),
                    values[5].clone()
                ]
            );
            let mut streamed = Vec::new();
            storage
                .for_each_chunk(|base, chunk| {
                    assert_eq!(base, streamed.len());
                    streamed.extend_from_slice(chunk);
                    Ok(())
                })
                .unwrap();
            assert_eq!(streamed, values);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_evicts_oldest_first() {
        let dir = tmp_dir("cache");
        let opts = DiskOptions::new(&dir).chunk_rows(4);
        let mut w = ColumnWriter::disk("x", &opts);
        w.extend((0..16).map(Value::Int).collect());
        // Budget fits roughly two decoded 4-row chunks.
        let cache = Arc::new(ChunkCache::new(2 * 4 * 32 + 16));
        let storage = w.finish(Some(&cache)).unwrap();
        storage.get(0).unwrap(); // chunk 0: miss
        storage.get(1).unwrap(); // chunk 0: hit
        storage.get(5).unwrap(); // chunk 1: miss
        storage.get(9).unwrap(); // chunk 2: miss, evicts chunk 0
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert!(stats.evictions >= 1);
        storage.get(0).unwrap(); // chunk 0 again: miss after eviction
        assert_eq!(cache.stats().misses, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_chunks_are_deleted_and_reported_not_panicked() {
        let dir = tmp_dir("corrupt");
        let storage = build_disk(&dir, 4, (0..8).map(Value::Int).collect());
        let ColumnStorage::Disk(d) = &storage else {
            unreachable!()
        };
        let path = d.chunk_path(1);
        // Bit rot in the payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = storage.get(5).unwrap_err();
        assert!(matches!(err, McdbError::ChunkCorrupt { .. }), "{err}");
        assert!(!path.exists(), "corrupt chunk file is deleted");
        // The other chunk is unaffected.
        assert_eq!(storage.get(0).unwrap(), Value::Int(0));
        // A vanished chunk file is reported, not panicked.
        assert!(matches!(
            storage.get(5).unwrap_err(),
            McdbError::ChunkCorrupt { .. }
        ));
        // Truncation mid-header on the other chunk.
        storage.invalidate_cached();
        let path0 = d.chunk_path(0);
        let bytes = std::fs::read(&path0).unwrap();
        std::fs::write(&path0, &bytes[..blockfile::header_len(3) as usize - 2]).unwrap();
        assert!(matches!(
            storage.get(0).unwrap_err(),
            McdbError::ChunkCorrupt { .. }
        ));
        assert!(!path0.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clamp_budget_evicts_down() {
        let dir = tmp_dir("clamp");
        let opts = DiskOptions::new(&dir).chunk_rows(4);
        let mut w = ColumnWriter::disk("x", &opts);
        w.extend((0..16).map(Value::Int).collect());
        let cache = Arc::new(ChunkCache::new(1 << 20));
        let storage = w.finish(Some(&cache)).unwrap();
        for i in 0..16 {
            storage.get(i).unwrap();
        }
        assert!(cache.stats().resident_bytes > 0);
        cache.clamp_budget(0);
        assert_eq!(cache.stats().resident_bytes, 0);
        // Reads still work, they just always page in.
        assert_eq!(storage.get(3).unwrap(), Value::Int(3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
