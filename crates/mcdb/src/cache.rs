//! A shared cache of realized scenario blocks.
//!
//! Scenario generation is deterministic — every `(relation, column, stream,
//! seed, tuple, scenario)` cell realizes to the same value — so concurrent
//! query evaluations over the same relation keep regenerating identical
//! matrices. [`ScenarioCache`] memoizes whole blocks: the first request for a
//! `(relation, column, stream, seed, tuple set, scenario count)` key
//! generates the matrix, every later request — from any thread — gets the
//! same `Arc<ScenarioMatrix>` back without touching the VG functions.
//!
//! Generation is single-flight **per key**, not serialized globally: two
//! threads asking for the same block wait on one generation, while requests
//! for different blocks proceed in parallel. This is the guarantee the query
//! service relies on: eight clients issuing the same prepared query never
//! realize the same scenarios twice.
//!
//! A block is whatever tuple slice its caller asks for. The search loops ask
//! for their whole candidate set (one optimization matrix per instance); the
//! blocked validator asks for **one tuple at a time**, so a realized
//! validation row is keyed by its tuple alone and shared by every package
//! that contains the tuple — overlapping packages (SketchRefine's frozen ∪
//! refined selections, SummarySearch's successive candidates) neither re-draw
//! nor re-store it.
//!
//! The cache is a [`Memo`] bounded by an approximate byte budget: admitting
//! a block past the budget evicts the oldest resident blocks first, and a
//! block larger than the whole budget is generated and returned, just not
//! retained — correctness never depends on residency.
//!
//! ## Disk tier
//!
//! A cache can additionally be backed by a persistent
//! [`ScenarioStore`] (see
//! [`ScenarioCache::with_store`]). Memory misses then consult the store
//! before generating, and freshly generated blocks are spilled to it, so a
//! restarted process (or a cleared cache) pays block generation once per
//! store lifetime instead of once per process. The store is keyed by the
//! restart-stable [`Relation::fingerprint`] rather than the process-unique
//! [`Relation::uid`], and every block is checksummed: a corrupt or truncated
//! block is deleted and regenerated, never returned.

use crate::memo::{Memo, MemoStats};
use crate::relation::Relation;
use crate::scenario::{ScenarioGenerator, ScenarioMatrix};
use crate::seed::{fnv1a_words, Stream, FNV_OFFSET};
use crate::store::{ScenarioStore, StoreKey, StoreStats};
use crate::Result;
use std::sync::Arc;

/// Identity of one realized block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockKey {
    /// [`Relation::uid`] — clones share it, rebuilt relations do not.
    relation: u64,
    /// Stable tag of the canonical column name (`gain` and `Gain` resolve
    /// to one column, hence one tag).
    column: u64,
    /// Optimization vs validation stream.
    stream: Stream,
    /// Base seed of the generator.
    seed: u64,
    /// FNV-1a over the candidate tuple indices (plus their count), so the
    /// key stays small even for 100k-tuple candidate sets.
    tuples_hash: u64,
    /// First scenario index of the block (0 for whole-prefix blocks; the
    /// blocked validator caches arbitrary `[start, start + scenarios)`
    /// windows).
    first_scenario: usize,
    /// Number of scenarios in the block.
    scenarios: usize,
}

fn hash_tuples(tuples: &[usize]) -> u64 {
    fnv1a_words(
        FNV_OFFSET ^ tuples.len() as u64,
        tuples.iter().map(|&t| t as u64),
    )
}

/// Accounting size of one realized block.
fn matrix_bytes(matrix: &ScenarioMatrix) -> u64 {
    (matrix.num_tuples() * matrix.num_scenarios() * 8) as u64
}

/// A thread-safe, byte-bounded cache of realized scenario blocks, shared via
/// `Arc` between all evaluations that should pool their generation work.
#[derive(Debug)]
pub struct ScenarioCache {
    blocks: Memo<BlockKey, Arc<ScenarioMatrix>>,
    store: Option<Arc<ScenarioStore>>,
}

impl Default for ScenarioCache {
    fn default() -> Self {
        ScenarioCache::with_max_bytes(Self::DEFAULT_MAX_BYTES)
    }
}

impl ScenarioCache {
    /// Default residency budget: 64 MiB of realized values. Blocks drawn
    /// for one-off request seeds are never read again, so a larger budget
    /// only holds more of them; the blocks that are reused (the warm
    /// relation's, the validator's) fit in this one.
    pub const DEFAULT_MAX_BYTES: u64 = 64 << 20;

    /// A cache with the default byte budget.
    pub fn new() -> Self {
        ScenarioCache::default()
    }

    /// A cache bounded to approximately `max_bytes` of matrix data. A block
    /// larger than the whole budget is generated but not retained.
    pub fn with_max_bytes(max_bytes: u64) -> Self {
        ScenarioCache {
            blocks: Memo::new(max_bytes),
            store: None,
        }
    }

    /// Attach a persistent disk tier: memory misses consult `store` before
    /// generating, generated blocks are spilled to it, and a later process
    /// (or a cleared cache) reloads them instead of regenerating.
    pub fn with_store(mut self, store: Arc<ScenarioStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached disk tier, if any.
    pub fn store(&self) -> Option<&Arc<ScenarioStore>> {
        self.store.as_ref()
    }

    /// Counters of the attached disk tier (all zero when no store is
    /// attached), as surfaced in the spqd `stats` op.
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// A scenario window of `column` restricted to `tuples`, drawn from
    /// `generator`'s stream and seed: cached when possible, generated (once
    /// per key, even under concurrency) otherwise. Optimization reads the
    /// window `0..m`; the blocked validator memoizes `[start, end)` windows
    /// of the validation stream.
    pub fn sparse_matrix_range(
        &self,
        generator: &ScenarioGenerator,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
    ) -> Result<Arc<ScenarioMatrix>> {
        // Resolve the column first so `gain` and `Gain` share a block; this
        // also surfaces unknown-column errors before touching the map.
        let sc = relation.stochastic_column(column)?;
        let key = BlockKey {
            relation: relation.uid(),
            column: sc.tag,
            stream: generator.stream(),
            seed: generator.base_seed(),
            tuples_hash: hash_tuples(tuples),
            first_scenario: scenarios.start,
            scenarios: scenarios.len(),
        };
        // Single flight: a concurrent request for the same block waits for
        // the one generation instead of redoing it.
        let generate = || -> Result<(Arc<ScenarioMatrix>, u64)> {
            // Disk tier: a memory miss may still be a store hit — a block
            // spilled by this process, an earlier one, or a pre-`clear`
            // epoch.
            let store_key = StoreKey {
                relation_fingerprint: relation.fingerprint(),
                column_tag: sc.tag,
                stream_tag: generator.stream().tag(),
                seed: generator.base_seed(),
                tuples_hash: key.tuples_hash,
                first_scenario: key.first_scenario as u64,
                scenarios: key.scenarios as u64,
            };
            let stored = self
                .store
                .as_ref()
                .and_then(|store| store.load(&store_key, tuples.len()));
            let matrix = match stored {
                Some(m) => Arc::new(m),
                None => {
                    let m = Arc::new(generator.realize_block(sc, tuples, scenarios, 0));
                    if let Some(store) = &self.store {
                        store.spill(&store_key, &m);
                    }
                    m
                }
            };
            let bytes = matrix_bytes(&matrix);
            Ok((matrix, bytes))
        };
        self.blocks
            .get_or_insert_with(&key, generate)
            .map(|(matrix, _)| matrix)
    }

    /// Counters of the in-memory tier.
    pub fn stats(&self) -> MemoStats {
        self.blocks.stats()
    }

    /// Number of block lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Number of block lookups that had to generate.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Number of cached blocks evicted to respect the budget (explicit
    /// [`Self::clear`] calls are not counted).
    pub fn evicted(&self) -> u64 {
        self.stats().evictions
    }

    /// Approximate bytes of resident matrix data.
    pub fn resident_bytes(&self) -> u64 {
        self.stats().resident
    }

    /// Recount the bytes of every block actually resident. At quiescence
    /// this must equal [`Self::resident_bytes`]; the accounting stress test
    /// asserts exactly that after concurrent churn.
    pub fn audited_bytes(&self) -> u64 {
        self.blocks.values().iter().map(|m| matrix_bytes(m)).sum()
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached block (counters keep accumulating).
    pub fn clear(&self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::vg::NormalNoise;

    fn rel(n: usize) -> Relation {
        let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        RelationBuilder::new("t")
            .stochastic("gain", NormalNoise::around(base, 1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn hit_miss_accounting_and_bit_identity() {
        let r = rel(16);
        let g = ScenarioGenerator::new(7);
        let cache = ScenarioCache::new();
        let tuples: Vec<usize> = (0..16).collect();

        let a = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..12)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..12)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "hits must share the block");

        // Cached values equal direct generation.
        let direct = g
            .realize_sparse_matrix_range(&r, "gain", &tuples, 0..12, 0)
            .unwrap();
        assert_eq!(*a, direct);

        // Column-name case does not split blocks.
        let c = cache
            .sparse_matrix_range(&g, &r, "GAIN", &tuples, 0..12)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn distinct_keys_are_distinct_blocks() {
        let r = rel(8);
        let r2 = rel(8);
        let g = ScenarioGenerator::new(7);
        let g2 = ScenarioGenerator::new(8);
        let val = ScenarioGenerator::validation(7);
        let cache = ScenarioCache::new();
        let tuples: Vec<usize> = (0..8).collect();

        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..4)
            .unwrap();
        // Different m, seed, stream, tuple set, relation -> all misses.
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..8)
            .unwrap();
        cache
            .sparse_matrix_range(&g2, &r, "gain", &tuples, 0..4)
            .unwrap();
        cache
            .sparse_matrix_range(&val, &r, "gain", &tuples, 0..4)
            .unwrap();
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples[..4], 0..4)
            .unwrap();
        cache
            .sparse_matrix_range(&g, &r2, "gain", &tuples, 0..4)
            .unwrap();
        assert_eq!(cache.misses(), 6);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 6);
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn over_budget_blocks_are_returned_but_not_retained() {
        let r = rel(32);
        let g = ScenarioGenerator::new(1);
        // Budget below one block's size.
        let cache = ScenarioCache::with_max_bytes(64);
        let tuples: Vec<usize> = (0..32).collect();
        let a = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..10)
            .unwrap();
        assert_eq!(a.num_scenarios(), 10);
        assert_eq!(cache.resident_bytes(), 0);
        // Second request regenerates (miss) because nothing was retained.
        let b = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..10)
            .unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(*a, *b, "regeneration is bit-identical");
    }

    #[test]
    fn a_full_cache_flushes_and_admits_the_new_block() {
        let r = rel(16);
        let g = ScenarioGenerator::new(2);
        // Budget fits one 16×10 block (1280 bytes) but not that plus an
        // 8×10 block (640 bytes).
        let cache = ScenarioCache::with_max_bytes(1500);
        let tuples: Vec<usize> = (0..16).collect();
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..10)
            .unwrap();
        assert_eq!((cache.len(), cache.resident_bytes()), (1, 1280));
        assert_eq!(cache.evicted(), 0);
        // A second block overflows: the first is evicted, the new one is
        // resident, and the map stays bounded.
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples[..8], 0..10)
            .unwrap();
        assert_eq!((cache.len(), cache.resident_bytes()), (1, 640));
        assert_eq!(cache.evicted(), 1);
        // The evicted block regenerates on demand (miss, not a hit), again
        // evicting the smaller one.
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..10)
            .unwrap();
        assert_eq!((cache.len(), cache.resident_bytes()), (1, 1280));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.evicted(), 2);
    }

    #[test]
    fn admission_evicts_only_the_oldest_blocks() {
        let r = rel(8);
        let g = ScenarioGenerator::validation(4);
        // Room for three one-tuple, 10-scenario rows (80 bytes each).
        let cache = ScenarioCache::with_max_bytes(240);
        for t in 0..4 {
            cache
                .sparse_matrix_range(&g, &r, "gain", &[t], 0..10)
                .unwrap();
        }
        // The fourth row evicted the first only: rows 1–3 still hit.
        assert_eq!(
            (cache.len(), cache.resident_bytes(), cache.evicted()),
            (3, 240, 1)
        );
        for t in 1..4 {
            cache
                .sparse_matrix_range(&g, &r, "gain", &[t], 0..10)
                .unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (3, 4));
        assert_eq!(cache.stats().weight_inserted, 320);
    }

    #[test]
    fn concurrent_requests_generate_each_block_once() {
        let r = rel(64);
        let g = ScenarioGenerator::new(3);
        let cache = Arc::new(ScenarioCache::new());
        let tuples: Vec<usize> = (0..64).collect();
        let reference = g
            .realize_sparse_matrix_range(&r, "gain", &tuples, 0..32, 0)
            .unwrap();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    let r = r.clone();
                    let tuples = tuples.clone();
                    scope.spawn(move || {
                        cache
                            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..32)
                            .unwrap()
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(*handle.join().unwrap(), reference);
            }
        });
        // All eight threads asked for the same key: exactly one generation.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn range_windows_are_cached_independently_and_match_direct_generation() {
        let r = rel(12);
        let g = ScenarioGenerator::validation(21);
        let cache = ScenarioCache::new();
        let tuples: Vec<usize> = vec![1, 4, 7];
        let a = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 10..30)
            .unwrap();
        let direct = g
            .realize_sparse_matrix_range(&r, "gain", &tuples, 10..30, 1)
            .unwrap();
        assert_eq!(*a, direct);
        // Same window hits; a different start is a distinct block even with
        // the same length.
        let b = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 10..30)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 30..50)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn accounting_survives_concurrent_churn_with_flushes() {
        // A budget small enough that concurrent inserts constantly overflow
        // it: the evict–admit sequence must stay atomic, so after the churn
        // `resident_bytes` exactly matches a recount of the map.
        let r = rel(24);
        // 24 tuples x 10 scenarios = 1920 bytes per full block; the budget
        // fits roughly two blocks.
        let cache = Arc::new(ScenarioCache::with_max_bytes(4000));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = cache.clone();
                let r = r.clone();
                scope.spawn(move || {
                    for round in 0..40usize {
                        // Distinct (seed, tuple subset, window) keys so
                        // different threads insert different blocks and keep
                        // triggering evictions.
                        let g = ScenarioGenerator::new(t * 7 + (round % 5) as u64);
                        let lo = round % 3;
                        let tuples: Vec<usize> = (lo..24).step_by(1 + (round % 4)).collect();
                        let start = (round * 3) % 17;
                        cache
                            .sparse_matrix_range(&g, &r, "gain", &tuples, start..start + 10)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            cache.resident_bytes(),
            cache.audited_bytes(),
            "resident accounting drifted from the map contents"
        );
        assert!(cache.resident_bytes() <= 4000);
        // The counters saw every request.
        assert_eq!(cache.hits() + cache.misses(), 8 * 40);
        // And a final sanity point: clearing zeroes both views.
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.audited_bytes(), 0);
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spq-cache-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_serves_evicted_and_cleared_blocks_without_regeneration() {
        let r = rel(16);
        let g = ScenarioGenerator::new(5);
        let dir = store_dir("reload");
        let store = Arc::new(ScenarioStore::open(&dir).unwrap());
        let cache = ScenarioCache::new().with_store(store.clone());
        let tuples: Vec<usize> = (0..16).collect();

        let a = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..12)
            .unwrap();
        assert_eq!(store.stats().spill_writes, 1, "miss spills to disk");
        assert_eq!(store.stats().reads, 0);

        // clear() drops the memory tier but leaves the disk tier intact:
        // the next lookup is a memory miss served by a store read.
        cache.clear();
        let b = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..12)
            .unwrap();
        assert_eq!(*a, *b, "store reload is bit-identical");
        assert_eq!(store.stats().reads, 1, "reload came from disk");
        assert_eq!(
            store.stats().spill_writes,
            1,
            "a store hit is not respilled"
        );
        assert_eq!(cache.store_stats(), store.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_restart_reuses_blocks_across_cache_instances_and_rebuilt_relations() {
        // Simulates a service restart: a new cache, a new store handle over
        // the same directory, and a *rebuilt* relation (new uid, same
        // fingerprint) must reload instead of regenerating.
        let dir = store_dir("restart");
        let g = ScenarioGenerator::validation(9);
        let tuples: Vec<usize> = (0..12).step_by(2).collect();

        let first = {
            let r = rel(12);
            let store = Arc::new(ScenarioStore::open(&dir).unwrap());
            let cache = ScenarioCache::new().with_store(store);
            cache
                .sparse_matrix_range(&g, &r, "gain", &tuples, 3..9)
                .unwrap()
        };

        let r2 = rel(12); // new uid, same fingerprint
        let store2 = Arc::new(ScenarioStore::open(&dir).unwrap());
        let cache2 = ScenarioCache::new().with_store(store2.clone());
        let again = cache2
            .sparse_matrix_range(&g, &r2, "gain", &tuples, 3..9)
            .unwrap();
        assert_eq!(*first, *again, "restart must see identical realizations");
        assert_eq!(
            store2.stats().reads,
            1,
            "the restarted process read from disk"
        );
        assert_eq!(store2.stats().spill_writes, 0, "nothing was regenerated");

        // A different seed is not served by the stored block.
        let other = ScenarioGenerator::validation(10);
        cache2
            .sparse_matrix_range(&other, &r2, "gain", &tuples, 3..9)
            .unwrap();
        assert_eq!(store2.stats().reads, 1);
        assert_eq!(store2.stats().spill_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_files_regenerate_with_correct_values() {
        let r = rel(8);
        let g = ScenarioGenerator::new(13);
        let dir = store_dir("corrupt");
        let store = Arc::new(ScenarioStore::open(&dir).unwrap());
        let cache = ScenarioCache::new().with_store(store.clone());
        let tuples: Vec<usize> = (0..8).collect();

        let a = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..6)
            .unwrap();
        // Corrupt the (single) block file on disk.
        let block_file = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "spqblk"))
            .expect("one spilled block");
        let mut bytes = std::fs::read(&block_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&block_file, &bytes).unwrap();

        cache.clear();
        let b = cache
            .sparse_matrix_range(&g, &r, "gain", &tuples, 0..6)
            .unwrap();
        assert_eq!(
            *a, *b,
            "corruption must cost regeneration, never wrong data"
        );
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.stats().spill_writes, 2, "the block was respilled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_columns_error_without_poisoning() {
        let r = rel(4);
        let g = ScenarioGenerator::new(0);
        let cache = ScenarioCache::new();
        assert!(cache
            .sparse_matrix_range(&g, &r, "nope", &[0], 0..1)
            .is_err());
        assert!(cache
            .sparse_matrix_range(&g, &r, "gain", &[0], 0..1)
            .is_ok());
    }
}
