//! The prepared-query cache: parse → bind → translate once per
//! `(relation, query text)` pair.
//!
//! Compiling an sPaQL query — lexing, parsing, binding against the relation
//! schema (which scans the `WHERE` clause over all tuples to build the
//! candidate set), and translating to a SILP — is pure: it depends only on
//! the query text and the relation. The service therefore caches the
//! translated [`Silp`] keyed by [`Relation::uid`] plus the *trimmed* query
//! text, and re-evaluates the same plan under different algorithms, seeds or
//! budgets without recompiling.
//!
//! Like [`spq_mcdb::ScenarioCache`], the cache is a [`Memo`], so concurrent
//! first requests for the same query compile once.

use spq_core::{Silp, SpqError};
use spq_mcdb::{Memo, MemoStats, Relation};
use spq_spaql::{bind, parse};
use std::sync::Arc;

/// A thread-safe cache of compiled query plans, bounded to a maximum entry
/// count: admitting a plan past it evicts the oldest plan (compilation is
/// cheap relative to evaluation, so occasional recompiles beat unbounded
/// growth — a plan's candidate list is `O(relation size)`).
#[derive(Debug)]
pub struct PreparedCache {
    plans: Memo<(u64, String), Arc<Silp>>,
}

impl Default for PreparedCache {
    fn default() -> Self {
        PreparedCache::with_max_entries(Self::DEFAULT_MAX_ENTRIES)
    }
}

impl PreparedCache {
    /// Default bound on cached plans.
    pub const DEFAULT_MAX_ENTRIES: usize = 1024;

    /// An empty cache with the default entry bound.
    pub fn new() -> Self {
        PreparedCache::default()
    }

    /// An empty cache bounded to `max_entries` plans.
    pub fn with_max_entries(max_entries: usize) -> Self {
        PreparedCache {
            plans: Memo::new(max_entries.max(1) as u64),
        }
    }

    /// The compiled plan for `query` over `relation`, compiling (once, even
    /// under concurrency) on first use. The returned flag is `true` on a
    /// cache hit.
    pub fn get_or_compile(
        &self,
        relation: &Relation,
        query: &str,
    ) -> Result<(Arc<Silp>, bool), SpqError> {
        let key = (relation.uid(), query.trim().to_string());
        self.plans.get_or_insert_with(&key, || {
            let parsed = parse(query)?;
            let bound = bind(&parsed, relation)?;
            Ok((Arc::new(spq_core::translate(&bound, relation)?), 1))
        })
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        self.plans.stats()
    }

    /// Number of lookups served without compiling.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Number of lookups that compiled.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters keep accumulating).
    pub fn clear(&self) {
        self.plans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;

    fn relation() -> Relation {
        RelationBuilder::new("t")
            .deterministic_f64("price", vec![10.0, 20.0, 30.0])
            .stochastic("gain", NormalNoise::around(vec![1.0, 2.0, 3.0], 0.5))
            .build()
            .unwrap()
    }

    const QUERY: &str = "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 40 \
                         MAXIMIZE EXPECTED SUM(gain)";

    #[test]
    fn hits_share_the_compiled_plan() {
        let rel = relation();
        let cache = PreparedCache::new();
        let (a, hit_a) = cache.get_or_compile(&rel, QUERY).unwrap();
        let (b, hit_b) = cache.get_or_compile(&rel, QUERY).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(a.num_vars(), 3);
        // Whitespace-normalized text shares the entry.
        let (_, hit_c) = cache
            .get_or_compile(&rel, &format!("  {QUERY} \n"))
            .unwrap();
        assert!(hit_c);
    }

    #[test]
    fn distinct_relations_and_texts_do_not_collide() {
        let r1 = relation();
        let r2 = relation();
        let cache = PreparedCache::new();
        cache.get_or_compile(&r1, QUERY).unwrap();
        let (_, hit) = cache.get_or_compile(&r2, QUERY).unwrap();
        assert!(!hit, "different relation uid must recompile");
        let other = "SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) <= 1";
        let (_, hit) = cache.get_or_compile(&r1, other).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let rel = relation();
        let cache = PreparedCache::new();
        assert!(cache.get_or_compile(&rel, "SELECT garbage").is_err());
        assert!(cache
            .get_or_compile(&rel, "SELECT PACKAGE(*) FROM t SUCH THAT SUM(missing) <= 1")
            .is_err());
        // A later valid query still compiles.
        let (_, hit) = cache.get_or_compile(&rel, QUERY).unwrap();
        assert!(!hit);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn a_full_cache_evicts_the_oldest_plan() {
        let rel = relation();
        let cache = PreparedCache::with_max_entries(2);
        let q2 = "SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) <= 1";
        let q3 = "SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) <= 2";
        cache.get_or_compile(&rel, QUERY).unwrap();
        cache.get_or_compile(&rel, q2).unwrap();
        assert_eq!(cache.len(), 2);
        // Third distinct plan: the oldest goes — never more than the cap.
        cache.get_or_compile(&rel, q3).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted plan recompiles (miss, evicting q2), the newer ones
        // still hit.
        let (_, hit) = cache.get_or_compile(&rel, QUERY).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(&rel, q3).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_compile(&rel, q2).unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_compiles_happen_once() {
        let rel = relation();
        let cache = Arc::new(PreparedCache::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let rel = rel.clone();
                scope.spawn(move || {
                    cache.get_or_compile(&rel, QUERY).unwrap();
                });
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }
}
