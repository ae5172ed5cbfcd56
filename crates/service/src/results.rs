//! The deterministic result cache with single-flight request coalescing.
//!
//! Service execution is **deterministic**: a query's answer is a pure
//! function of the relation (by [`spq_mcdb::Relation::uid`]), the query
//! text, the algorithm, and the effective scenario parameters — never of
//! load, timing or thread interleaving (the e2e suite asserts bit-identical
//! packages serial vs. concurrent). That makes completed `ok` responses
//! safely cacheable, and it makes *in-flight duplicates* coalescible: when
//! 64 clients ask the same question at once, one worker computes and the
//! rest wait for its answer instead of burning 64× the CPU. On a small
//! machine this is the difference between tail latency growing linearly
//! with client count and staying flat.
//!
//! The key is read off the [`SpqOptions`] the request evaluates under
//! ([`ResultKey::new`]), so the key and the computation cannot disagree on
//! what the request asked for.
//!
//! Only `status:"ok"` responses are cached. Cancelled, timed-out and error
//! outcomes depend on *this request's* [`Deadline`] (its instant and its
//! cancellation token), not just the key, so the computing slot is simply
//! released and the next requester computes fresh. Waiters poll their own
//! deadline while parked, so a cancelled client never hangs on somebody
//! else's solve. The cache is a [`Memo`] of entry weight 1 with oldest-first
//! eviction.

use crate::protocol::{QueryResponse, QueryStatus};
use spq_core::{Algorithm, SpqOptions};
use spq_mcdb::{Lookup, Memo, MemoStats};
use spq_solver::Deadline;

/// Everything a query's answer may depend on (besides the request id, which
/// is re-stamped on each response). Fields are the *effective* values after
/// merging the request with the server's base options, so two requests
/// spelling the same work differently still share.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The resolved relation's uid (tenant isolation and reload
    /// invalidation come for free: a different relation is a different
    /// uid).
    pub relation_uid: u64,
    /// sPaQL text, verbatim.
    pub query: String,
    /// Algorithm that will run.
    pub algorithm: Algorithm,
    /// Effective base seed.
    pub seed: u64,
    /// Effective initial scenario count.
    pub initial_scenarios: usize,
    /// Effective scenario cap.
    pub max_scenarios: usize,
    /// Effective out-of-sample budget.
    pub validation_scenarios: usize,
}

impl ResultKey {
    /// The key of `query` over the relation `relation_uid`, run by
    /// `algorithm` under the effective `options`.
    pub fn new(relation_uid: u64, query: &str, algorithm: Algorithm, options: &SpqOptions) -> Self {
        ResultKey {
            relation_uid,
            query: query.to_string(),
            algorithm,
            seed: options.seed,
            initial_scenarios: options.initial_scenarios,
            max_scenarios: options.max_scenarios,
            validation_scenarios: options.validation_scenarios,
        }
    }
}

/// What [`ResultCache::get_or_compute`] resolved to.
#[derive(Debug)]
pub enum Resolved {
    /// A cached response (caller re-stamps id/queue/wall).
    Hit(Box<QueryResponse>),
    /// The caller's own computation, `ok` or not.
    Computed(Box<QueryResponse>),
    /// The caller's own cancellation fired while waiting on another
    /// computation.
    Cancelled,
    /// The caller's own deadline expired while waiting on another
    /// computation.
    TimedOut,
}

/// Single-flight deterministic result cache.
#[derive(Debug)]
pub struct ResultCache {
    responses: Memo<ResultKey, Box<QueryResponse>>,
}

impl ResultCache {
    /// Ready entries kept by default.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` completed responses.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            responses: Memo::new(capacity.max(1) as u64),
        }
    }

    /// Resolve `key`: return the cached response, wait for an identical
    /// in-flight computation (polling this request's `deadline` while
    /// parked), or run `compute` — caching its response only when it is
    /// `ok`.
    pub fn get_or_compute(
        &self,
        key: &ResultKey,
        deadline: &Deadline,
        compute: impl FnOnce() -> QueryResponse,
    ) -> Resolved {
        let abandon = || {
            if deadline.is_cancelled() {
                Some(Resolved::Cancelled)
            } else if deadline.expired() {
                Some(Resolved::TimedOut)
            } else {
                None
            }
        };
        let compute = || {
            let response = Box::new(compute());
            if response.status == QueryStatus::Ok {
                Ok((response, 1))
            } else {
                Err(response)
            }
        };
        match self.responses.resolve(key, abandon, compute) {
            Lookup::Hit(response) => Resolved::Hit(response),
            Lookup::Computed(response) | Lookup::Failed(response) => Resolved::Computed(response),
            Lookup::Abandoned(gave_up) => gave_up,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        self.responses.stats()
    }

    /// Completed responses currently cached.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// Whether no completed responses are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests answered from cache.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Requests that ran their own computation.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Requests that waited on an identical in-flight computation at least
    /// once (they resolve as hits when it completes `ok`).
    pub fn coalesced(&self) -> u64 {
        self.stats().coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_solver::CancellationToken;
    use std::sync::Arc;
    use std::time::Duration;

    fn key(tag: u64) -> ResultKey {
        ResultKey {
            relation_uid: tag,
            query: "SELECT PACKAGE(*) FROM t".into(),
            algorithm: Algorithm::SummarySearch,
            seed: 42,
            initial_scenarios: 100,
            max_scenarios: 1000,
            validation_scenarios: 500,
        }
    }

    fn ok_response(id: &str) -> QueryResponse {
        QueryResponse {
            id: id.into(),
            status: QueryStatus::Ok,
            error: None,
            feasible: true,
            objective: Some(1.5),
            package: vec![(3, 1)],
            algorithm: "SummarySearch".into(),
            prepared_cache_hit: false,
            result_cache_hit: false,
            queue_ms: 0.0,
            wall_ms: 9.0,
            stats: None,
        }
    }

    fn free(
        cache: &ResultCache,
        key: &ResultKey,
        compute: impl FnOnce() -> QueryResponse,
    ) -> Resolved {
        let deadline = Deadline::none().with_token(CancellationToken::new());
        cache.get_or_compute(key, &deadline, compute)
    }

    fn never() -> QueryResponse {
        panic!("a hit must not compute")
    }

    /// Start a computation of `key` on another thread that holds its slot
    /// until `release` is signalled; returns once the slot is held.
    fn hold(
        cache: &Arc<ResultCache>,
        key: ResultKey,
    ) -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let cache = cache.clone();
        let computer = std::thread::spawn(move || {
            let resolved = free(&cache, &key, || {
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                ok_response("computer")
            });
            assert!(matches!(resolved, Resolved::Computed(_)));
        });
        held_rx.recv().unwrap();
        (release_tx, computer)
    }

    #[test]
    fn computes_once_then_hits() {
        let cache = ResultCache::new(8);
        assert!(matches!(
            free(&cache, &key(1), || ok_response("a")),
            Resolved::Computed(_)
        ));
        let Resolved::Hit(hit) = free(&cache, &key(1), never) else {
            panic!("expected hit");
        };
        assert_eq!(hit.package, vec![(3, 1)]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        // A different key misses.
        assert!(matches!(
            free(&cache, &key(2), || ok_response("b")),
            Resolved::Computed(_)
        ));
    }

    #[test]
    fn failures_release_the_slot_instead_of_caching() {
        let cache = ResultCache::new(8);
        let mut cancelled = ok_response("a");
        cancelled.status = QueryStatus::Cancelled;
        let Resolved::Computed(response) = free(&cache, &key(1), || cancelled) else {
            panic!("the computing request gets its own response");
        };
        assert_eq!(response.status, QueryStatus::Cancelled);
        assert!(cache.is_empty());
        // The next requester computes fresh rather than seeing the failure.
        assert!(matches!(
            free(&cache, &key(1), || ok_response("b")),
            Resolved::Computed(_)
        ));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cache = Arc::new(ResultCache::new(8));
        let (release, computer) = hold(&cache, key(1));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || match free(&cache, &key(1), never) {
                    Resolved::Hit(r) => r.package,
                    other => panic!("expected hit, got {other:?}"),
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        release.send(()).unwrap();
        computer.join().unwrap();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), vec![(3, 1)]);
        }
        assert_eq!(cache.misses(), 1, "only one computation");
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.coalesced(), 4);
    }

    #[test]
    fn waiters_honor_their_own_cancellation_and_deadline() {
        let cache = Arc::new(ResultCache::new(8));
        let (release, computer) = hold(&cache, key(1));
        // A waiter whose token fires gives up promptly.
        let token = CancellationToken::new();
        token.cancel();
        let deadline = Deadline::none().with_token(token);
        assert!(matches!(
            cache.get_or_compute(&key(1), &deadline, never),
            Resolved::Cancelled
        ));
        // A waiter whose deadline expires gives up promptly.
        let deadline = Deadline::within(Duration::ZERO).with_token(CancellationToken::new());
        let started = std::time::Instant::now();
        assert!(matches!(
            cache.get_or_compute(&key(1), &deadline, never),
            Resolved::TimedOut
        ));
        assert!(started.elapsed() < Duration::from_secs(2));
        release.send(()).unwrap();
        computer.join().unwrap();
    }

    #[test]
    fn capacity_evicts_oldest_ready_entries() {
        let cache = ResultCache::new(2);
        for tag in 0..3 {
            assert!(matches!(
                free(&cache, &key(tag), || ok_response("x")),
                Resolved::Computed(_)
            ));
        }
        assert_eq!(cache.len(), 2);
        // The oldest entry (tag 0) was evicted; newest two remain.
        assert!(matches!(free(&cache, &key(2), never), Resolved::Hit(_)));
        assert!(matches!(
            free(&cache, &key(0), || ok_response("x")),
            Resolved::Computed(_)
        ));
    }
}
