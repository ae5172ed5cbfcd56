//! [`Memo`]: the one bounded, single-flight cache primitive of the workspace.
//!
//! Every cache in the system memoizes a pure function — realized scenario
//! rows, decoded column chunks, compiled query plans, deterministic query
//! responses — so they all need the same three things, and get them here
//! once:
//!
//! * **Single flight.** The first caller to miss a key computes it *outside*
//!   the lock while the key is marked pending; concurrent callers for the
//!   same key wait for that one computation instead of repeating it, callers
//!   for other keys proceed in parallel. A failed (or panicking) computation
//!   releases the key and wakes the waiters, the next of which computes
//!   fresh: errors are never cached.
//! * **A weight budget with oldest-first eviction.** Each value is admitted
//!   with a caller-chosen weight (bytes for data caches, 1 for entry-counted
//!   ones); admitting past the budget evicts the oldest resident values
//!   first. A value heavier than the whole budget is returned but not
//!   retained — residency never decides correctness.
//! * **Uniform counters.** Hits, misses, waits on an in-flight computation
//!   (`coalesced`), evictions and the weight ever admitted
//!   (`weight_inserted`). They are each cache's only count of its traffic;
//!   the `stats` op reads them.
//!
//! Waiters re-check a caller-supplied *abandon* test every
//! [`Memo::POLL`], so a request whose own deadline or cancellation fires
//! never hangs on somebody else's computation.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A snapshot of one memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the memo (including waiters that received an
    /// identical in-flight computation's value).
    pub hits: u64,
    /// Lookups that ran the computation.
    pub misses: u64,
    /// Lookups that waited on an identical in-flight computation at least
    /// once.
    pub coalesced: u64,
    /// Values evicted to respect the budget (explicit clears not counted).
    pub evictions: u64,
    /// Total weight ever admitted.
    pub weight_inserted: u64,
    /// Weight currently resident.
    pub resident: u64,
    /// Values currently resident.
    pub entries: u64,
    /// Current budget.
    pub budget: u64,
}

/// How a [`Memo::resolve`] call ended.
#[derive(Debug)]
pub enum Lookup<V, E, A> {
    /// Served from the memo.
    Hit(V),
    /// Computed by this caller (and admitted when it fit the budget).
    Computed(V),
    /// This caller's computation failed; nothing was retained.
    Failed(E),
    /// The caller's abandon test fired while it waited on another caller's
    /// computation of the same key.
    Abandoned(A),
}

#[derive(Debug)]
enum Entry<V> {
    /// Some caller is computing the key; `ticket` identifies that claim.
    Pending {
        ticket: u64,
    },
    Ready {
        value: V,
        weight: u64,
    },
}

#[derive(Debug)]
struct State<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Resident keys, oldest admission first (exactly the `Ready` entries).
    order: VecDeque<K>,
    /// Counters, resident weight and budget (`entries` is `order.len()`).
    stats: MemoStats,
    /// Callers parked on `settled` (a wake-up is a syscall, so settling a
    /// key nobody waits for skips it).
    waiting: usize,
}

/// A thread-safe, weight-bounded, single-flight memo of `K → V`. Values are
/// handed out by clone, so `V` is usually an `Arc` or another cheap handle.
#[derive(Debug)]
pub struct Memo<K, V> {
    state: Mutex<State<K, V>>,
    settled: Condvar,
}

/// Releases a pending claim whose computation did not complete normally
/// (returned an error or panicked), waking its waiters.
struct Claim<'a, K: Eq + Hash + Clone, V: Clone> {
    memo: &'a Memo<K, V>,
    key: &'a K,
    ticket: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.memo.lock();
        if matches!(state.entries.get(self.key), Some(Entry::Pending { ticket }) if *ticket == self.ticket)
        {
            state.entries.remove(self.key);
        }
        self.memo.wake(state);
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// How often a waiter re-checks its abandon test.
    pub const POLL: Duration = Duration::from_millis(20);

    /// An empty memo holding at most `budget` total weight.
    pub fn new(budget: u64) -> Self {
        Memo {
            state: Mutex::new(State {
                entries: HashMap::new(),
                order: VecDeque::new(),
                stats: MemoStats {
                    budget,
                    ..MemoStats::default()
                },
                waiting: 0,
            }),
            settled: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        // Every critical section leaves the state consistent before it can
        // panic, so a poisoned lock still guards a valid map.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value for `key`, computing it (once, even under concurrency) on a
    /// miss. `compute` returns the value and its weight; errors are returned
    /// as they are and not cached. The flag is `true` on a hit.
    pub fn get_or_insert_with<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<(V, u64), E>,
    ) -> Result<(V, bool), E> {
        match self.resolve(key, || None::<Infallible>, compute) {
            Lookup::Hit(v) => Ok((v, true)),
            Lookup::Computed(v) => Ok((v, false)),
            Lookup::Failed(e) => Err(e),
            Lookup::Abandoned(never) => match never {},
        }
    }

    /// [`Self::get_or_insert_with`] for callers that may stop waiting: while
    /// another caller computes `key`, `abandon` is polled every
    /// [`Self::POLL`] and a `Some` ends the wait with
    /// [`Lookup::Abandoned`].
    pub fn resolve<E, A>(
        &self,
        key: &K,
        mut abandon: impl FnMut() -> Option<A>,
        compute: impl FnOnce() -> Result<(V, u64), E>,
    ) -> Lookup<V, E, A> {
        let mut waited = false;
        let mut state = self.lock();
        let ticket = loop {
            match state.entries.get(key) {
                Some(Entry::Ready { value, .. }) => {
                    let value = value.clone();
                    state.stats.hits += 1;
                    return Lookup::Hit(value);
                }
                Some(Entry::Pending { .. }) => {
                    if !waited {
                        waited = true;
                        state.stats.coalesced += 1;
                    }
                    if let Some(reason) = abandon() {
                        return Lookup::Abandoned(reason);
                    }
                    state.waiting += 1;
                    state = self
                        .settled
                        .wait_timeout(state, Self::POLL)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                    state.waiting -= 1;
                }
                None => {
                    // The miss count doubles as a unique claim ticket.
                    state.stats.misses += 1;
                    let ticket = state.stats.misses;
                    state.entries.insert(key.clone(), Entry::Pending { ticket });
                    break ticket;
                }
            }
        };
        drop(state);
        let claim = Claim {
            memo: self,
            key,
            ticket,
        };
        let (value, weight) = match compute() {
            Ok(computed) => computed,
            // Dropping the claim releases the key and wakes the waiters.
            Err(e) => return Lookup::Failed(e),
        };
        std::mem::forget(claim);
        self.admit(key, ticket, &value, weight);
        Lookup::Computed(value)
    }

    /// Settle a successful computation: admit the value if its claim still
    /// stands and it fits the budget, otherwise release the key.
    fn admit(&self, key: &K, ticket: u64, value: &V, weight: u64) {
        let mut state = self.lock();
        let claimed =
            matches!(state.entries.get(key), Some(Entry::Pending { ticket: t }) if *t == ticket);
        if claimed {
            if weight > state.stats.budget {
                state.entries.remove(key);
            } else {
                let target = state.stats.budget - weight;
                self.evict_to(&mut state, target);
                state.entries.insert(
                    key.clone(),
                    Entry::Ready {
                        value: value.clone(),
                        weight,
                    },
                );
                state.order.push_back(key.clone());
                state.stats.resident += weight;
                state.stats.weight_inserted += weight;
            }
        }
        self.wake(state);
    }

    /// Release the lock and wake the callers parked on a pending key.
    fn wake(&self, state: MutexGuard<'_, State<K, V>>) {
        let parked = state.waiting > 0;
        drop(state);
        if parked {
            self.settled.notify_all();
        }
    }

    /// Evict oldest-first until at most `target` weight stays resident.
    fn evict_to(&self, state: &mut State<K, V>, target: u64) {
        let mut evicted = 0;
        while state.stats.resident > target {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            if let Some(Entry::Ready { weight, .. }) = state.entries.remove(&oldest) {
                state.stats.resident -= weight;
                evicted += 1;
            }
        }
        state.stats.evictions += evicted;
    }

    /// Tighten (never widen) the budget, evicting down to it.
    pub fn shrink_budget(&self, budget: u64) {
        let mut state = self.lock();
        if budget < state.stats.budget {
            state.stats.budget = budget;
            self.evict_to(&mut state, budget);
        }
    }

    /// Drop every resident value whose key fails `keep` (not counted as
    /// evictions; in-flight computations are unaffected).
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        let mut state = self.lock();
        let State {
            entries,
            order,
            stats,
            ..
        } = &mut *state;
        order.retain(|k| {
            if keep(k) {
                return true;
            }
            if let Some(Entry::Ready { weight, .. }) = entries.remove(k) {
                stats.resident -= weight;
            }
            false
        });
    }

    /// Drop every resident value (counters keep accumulating).
    pub fn clear(&self) {
        self.retain(|_| false);
    }

    /// Clones of every resident value, oldest first.
    pub fn values(&self) -> Vec<V> {
        let state = self.lock();
        state
            .order
            .iter()
            .filter_map(|k| match state.entries.get(k) {
                Some(Entry::Ready { value, .. }) => Some(value.clone()),
                _ => None,
            })
            .collect()
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        let state = self.lock();
        MemoStats {
            entries: state.order.len() as u64,
            ..state.stats
        }
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        self.lock().order.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn ok(v: u32, w: u64) -> Result<(u32, u64), ()> {
        Ok((v, w))
    }

    #[test]
    fn hits_misses_and_weights_are_counted() {
        let memo: Memo<u32, u32> = Memo::new(10);
        assert_eq!(memo.get_or_insert_with(&1, || ok(10, 4)), Ok((10, false)));
        assert_eq!(memo.get_or_insert_with(&1, || ok(99, 4)), Ok((10, true)));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.coalesced, s.evictions), (1, 1, 0, 0));
        assert_eq!(
            (s.resident, s.entries, s.weight_inserted, s.budget),
            (4, 1, 4, 10)
        );
    }

    #[test]
    fn admission_evicts_oldest_first_and_skips_overweight_values() {
        let memo: Memo<u32, u32> = Memo::new(10);
        for k in 0..3 {
            memo.get_or_insert_with(&k, || ok(k, 4)).unwrap();
        }
        // 3 × 4 > 10: key 0 (oldest) went when key 2 arrived.
        assert_eq!(memo.values(), vec![1, 2]);
        assert_eq!(memo.stats().evictions, 1);
        // A value heavier than the budget is returned, never retained, and
        // evicts nothing.
        assert_eq!(memo.get_or_insert_with(&7, || ok(7, 11)), Ok((7, false)));
        assert_eq!(memo.values(), vec![1, 2]);
        assert_eq!(memo.get_or_insert_with(&7, || ok(7, 11)), Ok((7, false)));
        // Shrinking the budget evicts down to it; it never widens.
        memo.shrink_budget(4);
        assert_eq!(memo.values(), vec![2]);
        memo.shrink_budget(100);
        assert_eq!(memo.stats().budget, 4);
        assert_eq!(memo.stats().evictions, 2);
    }

    #[test]
    fn errors_are_returned_and_never_cached() {
        let memo: Memo<u32, u32> = Memo::new(10);
        assert_eq!(
            memo.get_or_insert_with(&1, || Err::<(u32, u64), _>("boom")),
            Err("boom")
        );
        assert!(memo.is_empty());
        assert_eq!(
            memo.get_or_insert_with(&1, || Ok::<_, ()>((5, 1))),
            Ok((5, false))
        );
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn retain_and_clear_drop_resident_values_without_counting_evictions() {
        let memo: Memo<u32, u32> = Memo::new(100);
        for k in 0..4 {
            memo.get_or_insert_with(&k, || ok(k, 1)).unwrap();
        }
        memo.retain(|k| k % 2 == 0);
        assert_eq!(memo.values(), vec![0, 2]);
        assert_eq!(memo.stats().resident, 2);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats().resident, 0);
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::new(10));
        let runs = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (memo, runs) = (memo.clone(), runs.clone());
                scope.spawn(move || {
                    let (v, _) = memo
                        .get_or_insert_with(&1, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(30));
                            ok(42, 1)
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let s = memo.stats();
        assert_eq!((s.misses, s.hits), (1, 7));
    }

    #[test]
    fn a_panicking_computation_releases_its_waiters() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::new(10));
        let computer = {
            let memo = memo.clone();
            std::thread::spawn(move || {
                let _ = memo.get_or_insert_with(&1, || -> Result<(u32, u64), ()> {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("computation failed")
                });
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        // The waiter is released when the computer unwinds and computes
        // the value itself.
        assert_eq!(memo.get_or_insert_with(&1, || ok(3, 1)).map(|r| r.0), Ok(3));
        assert!(computer.join().is_err());
    }

    #[test]
    fn waiters_can_abandon_an_in_flight_computation() {
        let memo: Arc<Memo<u32, u32>> = Arc::new(Memo::new(10));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let computer = {
            let memo = memo.clone();
            std::thread::spawn(move || {
                memo.get_or_insert_with(&1, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    ok(9, 1)
                })
            })
        };
        started_rx.recv().unwrap();
        let mut polls = 0;
        let lookup = memo.resolve(
            &1,
            || {
                polls += 1;
                (polls == 3).then_some("gave up")
            },
            || ok(0, 1),
        );
        assert!(matches!(lookup, Lookup::Abandoned("gave up")));
        release_tx.send(()).unwrap();
        assert_eq!(computer.join().unwrap(), Ok((9, false)));
        assert_eq!(memo.stats().coalesced, 1);
        assert_eq!(memo.get_or_insert_with(&1, || ok(0, 1)), Ok((9, true)));
    }
}
