//! Conformance suite for the out-of-core columnar tier.
//!
//! The contract under test: a disk-backed relation is **bit-identical** to
//! its all-memory twin — same fingerprint, same deterministic values, same
//! realized scenario matrices — for every chunk size and every worker count,
//! and chunk-file corruption is detected, reported, and survivable
//! (delete-and-rebuild), never a panic and never silently wrong data.

use spq_mcdb::vg::{GeometricBrownianMotion, NormalNoise};
use spq_mcdb::{McdbError, Relation, RelationBuilder, ScenarioGenerator, StorageOptions, Value};
use std::path::{Path, PathBuf};

/// A mixed-type relation: int ids, text labels, float prices, two stochastic
/// columns (one analytic GBM, one Monte-Carlo normal).
fn build_relation(n: usize, storage: StorageOptions) -> Relation {
    let mut builder = RelationBuilder::new("conformance")
        .storage(storage)
        .spill_threshold(257)
        .declare_deterministic("id")
        .declare_deterministic("label")
        .declare_deterministic("price");
    let mut prices = Vec::with_capacity(n);
    let mut volatilities = Vec::with_capacity(n);
    for i in 0..n {
        let price = 40.0 + (i % 97) as f64 * 1.25;
        prices.push(price);
        volatilities.push(0.1 + (i % 11) as f64 * 0.03);
        builder = builder.append_rows(std::iter::once(vec![
            Value::Int(i as i64),
            Value::Text(format!("T{:05}", i % 301)),
            Value::Float(price),
        ]));
    }
    let drifts = vec![0.05; n];
    let horizons = vec![5u32; n];
    let groups: Vec<u64> = (0..n as u64).collect();
    let means: Vec<f64> = prices.iter().map(|p| p * 0.02).collect();
    let sds: Vec<f64> = prices.iter().map(|p| p * 0.01 + 0.5).collect();
    builder
        .stochastic(
            "gain",
            GeometricBrownianMotion::new(prices.clone(), drifts, volatilities, horizons, groups),
        )
        .stochastic("noise", NormalNoise::around(means, sds))
        .build()
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spq-conform-{}-{tag}", std::process::id()))
}

/// Every observable surface of `disk` must equal `mem`'s: fingerprint,
/// deterministic columns (typed and `Value`-level), and scenario matrices
/// realized with 1 and 8 workers on both streams.
fn assert_bit_identical(mem: &Relation, disk: &Relation, context: &str) {
    assert_eq!(disk.len(), mem.len(), "{context}: length");
    assert_eq!(
        disk.fingerprint(),
        mem.fingerprint(),
        "{context}: fingerprint"
    );
    assert_eq!(
        disk.deterministic_f64("price").unwrap(),
        mem.deterministic_f64("price").unwrap(),
        "{context}: price column"
    );
    let all: Vec<usize> = (0..mem.len()).collect();
    assert_eq!(
        disk.gather_values("label", &all).unwrap(),
        mem.gather_values("label", &all).unwrap(),
        "{context}: label column"
    );
    for row in [0, 1, mem.len() / 2, mem.len() - 1] {
        assert_eq!(
            disk.value("id", row).unwrap(),
            mem.value("id", row).unwrap(),
            "{context}: id row {row}"
        );
    }
    for column in ["gain", "noise"] {
        for generator in [
            ScenarioGenerator::new(42),
            ScenarioGenerator::validation(42),
        ] {
            let all: Vec<usize> = (0..mem.len()).collect();
            let reference = generator
                .realize_sparse_matrix_range(mem, column, &all, 0..24, 1)
                .unwrap();
            for threads in [1, 8] {
                let realized = generator
                    .realize_sparse_matrix_range(disk, column, &all, 0..24, threads)
                    .unwrap();
                assert_eq!(
                    realized.raw_data(),
                    reference.raw_data(),
                    "{context}: {column} scenarios with {threads} threads"
                );
            }
        }
    }
}

#[test]
fn disk_tier_is_bit_identical_across_chunk_sizes_and_threads() {
    const N: usize = 3000;
    let mem = build_relation(N, StorageOptions::memory());
    assert_eq!(mem.storage_kind(), "memory");
    // 1k chunks page the 3k-row columns through several files; 64k chunks
    // hold each column whole. Both must reproduce the memory tier exactly.
    for chunk_rows in [1_000, 65_536] {
        let dir = temp_dir(&format!("chunks-{chunk_rows}"));
        let disk = build_relation(N, StorageOptions::disk(&dir).chunk_rows(chunk_rows));
        assert_eq!(disk.storage_kind(), "disk");
        assert!(disk.disk_bytes() > 0);
        assert_bit_identical(&mem, &disk, &format!("chunk_rows={chunk_rows}"));

        // A starved cache (evicting constantly) still returns exact data.
        disk.clamp_cache_budget(1);
        assert_bit_identical(&mem, &disk, &format!("chunk_rows={chunk_rows} starved"));
        let stats = disk.chunk_cache_stats().unwrap();
        assert!(stats.misses > 0, "starved cache must fault chunks in");

        drop(disk);
        assert_eq!(count_chunk_files(&dir), 0, "chunks must vanish on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn chunk_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spqcol"))
        .collect();
    files.sort();
    files
}

fn count_chunk_files(dir: &Path) -> usize {
    chunk_files(dir).len()
}

#[test]
fn corrupt_chunks_error_cleanly_and_rebuild_restores_identity() {
    const N: usize = 2000;
    let dir = temp_dir("corrupt");
    let mem = build_relation(N, StorageOptions::memory());
    let disk = build_relation(N, StorageOptions::disk(&dir).chunk_rows(256));
    assert_bit_identical(&mem, &disk, "before corruption");

    // Flip payload bytes in every chunk file on disk.
    let files = chunk_files(&dir);
    assert!(files.len() > 1, "expected several chunk files");
    for path in &files {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    }

    // Cached chunks still answer; force re-reads to hit the bad files.
    disk.invalidate_chunk_cache();
    let err = disk.deterministic_f64("price").unwrap_err();
    assert!(
        matches!(err, McdbError::ChunkCorrupt { .. }),
        "corruption must surface as ChunkCorrupt, got: {err}"
    );
    let message = err.to_string();
    assert!(
        message.contains("price") || message.contains(".spqcol"),
        "error must name the culprit: {message}"
    );
    // The verifier deletes bad files as it finds them — at least the one it
    // tripped on is gone.
    assert!(count_chunk_files(&dir) < files.len());

    // Rebuild in place: the builder is deterministic, so re-running it into
    // the same directory rewrites the same chunk paths (temp-file + rename).
    // `keep_files` stops the rebuild handle from deleting them on drop.
    let rebuilt = build_relation(N, StorageOptions::disk(&dir).chunk_rows(256).keep_files());
    drop(rebuilt);
    disk.invalidate_chunk_cache();
    assert_bit_identical(&mem, &disk, "after rebuild");

    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_chunk_is_reported_not_panicked() {
    const N: usize = 600;
    let dir = temp_dir("truncate");
    let disk = build_relation(N, StorageOptions::disk(&dir).chunk_rows(128));
    let files = chunk_files(&dir);
    // Truncate one file below its header.
    std::fs::write(&files[0], b"SPQ").unwrap();
    disk.invalidate_chunk_cache();
    let all: Vec<usize> = (0..N).collect();
    let mut saw_corrupt = false;
    for column in ["id", "label", "price"] {
        if let Err(e) = disk.gather_values(column, &all) {
            assert!(matches!(e, McdbError::ChunkCorrupt { .. }), "{e}");
            saw_corrupt = true;
        }
    }
    assert!(saw_corrupt, "a truncated chunk must surface an error");
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}
