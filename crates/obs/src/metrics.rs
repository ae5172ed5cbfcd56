//! Lock-free global metrics registry: counters and log-linear latency
//! histograms.
//!
//! Metrics are declared as `static` [`Named`] wrappers at the
//! instrumentation site and register themselves into the global registry
//! on first touch; every subsequent update is a relaxed atomic operation
//! with no locking and no allocation. The registry is read back with
//! [`counter_value`] or the Prometheus-style [`prometheus_text`]
//! snapshot.
//!
//! Histograms are log-linear (power-of-two octaves split into
//! [`SUB_BUCKETS`] linear sub-buckets, ≤ 12.5 % relative quantile error)
//! over integer values — by convention nanoseconds for latencies. Bucket
//! counts are plain integers, so merging per-thread histograms is
//! commutative and produces bit-identical bucket contents regardless of
//! thread count or merge order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave (8 → worst-case 12.5 %
/// relative error on reported quantiles).
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)
/// Total bucket count covering the full `u64` value range.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// Map a value to its histogram bucket. Monotone: larger values never map
/// to a smaller bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let shift = octave as u32 - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    (octave - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS + sub
}

/// Largest value mapping into bucket `i` (the deterministic representative
/// returned by [`Histogram::quantile`]).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let k = i - SUB_BUCKETS;
    let octave = (k / SUB_BUCKETS) as u32 + SUB_BITS;
    let sub = (k % SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lower = (SUB_BUCKETS as u64 + sub) << (octave - SUB_BITS);
    lower + (width - 1)
}

/// Monotonically increasing event count.
///
/// All operations are relaxed atomics; totals are exact (every increment
/// is observed) but carry no ordering relative to other metrics.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// Log-linear histogram of `u64` samples (by convention nanoseconds).
///
/// Recording is one relaxed `fetch_add` per sample plus a `fetch_max` for
/// the running maximum. Bucket counts are integers, so merging histograms
/// (see [`Histogram::merge_from`]) is commutative and associative:
/// per-thread histograms merged in any order yield bit-identical bucket
/// contents and therefore identical quantiles.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (saturating only at `u64` wrap).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of rank `⌈q·count⌉` (≤ 12.5 % above the true
    /// sample). Returns 0 for an empty histogram. Concurrent recording
    /// during the scan can skew the answer by the in-flight samples;
    /// quiesced histograms report deterministically.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut acc = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            acc += bucket.load(Ordering::Relaxed);
            if acc >= rank {
                return bucket_upper(i);
            }
        }
        self.max()
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold `other`'s samples into `self`. Commutative and associative on
    /// quiesced histograms: any merge order over any per-thread split of
    /// the same samples yields bit-identical bucket contents.
    pub fn merge_from(&self, other: &Histogram) {
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Bucket counts as a plain vector (for bit-identity assertions and
    /// snapshot comparisons).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A metric with a registry name. Declare as a `static` and update through
/// it; the first update registers the metric globally, every later update
/// is lock-free.
///
/// ```
/// use spq_obs::metrics::{Counter, Named};
/// static REQUESTS: Named<Counter> = Named::new("doc_requests_total", Counter::new());
/// REQUESTS.inc();
/// ```
#[derive(Debug)]
pub struct Named<T: 'static> {
    name: &'static str,
    metric: T,
    registered: AtomicBool,
}

impl<T> Named<T> {
    /// Wrap `metric` under `name` (usable in `static` initializers).
    /// Names should be unique, `snake_case`, `spq_`-prefixed.
    pub const fn new(name: &'static str, metric: T) -> Self {
        Named {
            name,
            metric,
            registered: AtomicBool::new(false),
        }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Read access to the wrapped metric (no registration).
    pub fn inner(&self) -> &T {
        &self.metric
    }
}

macro_rules! ensure_registered {
    ($self:ident, $field:ident) => {
        if !$self.registered.load(Ordering::Relaxed)
            && !$self.registered.swap(true, Ordering::SeqCst)
        {
            registry().$field.lock().unwrap().push($self);
        }
    };
}

impl Named<Counter> {
    /// Add `n`, registering the counter on first use.
    #[inline]
    pub fn add(&'static self, n: u64) {
        ensure_registered!(self, counters);
        self.metric.add(n);
    }

    /// Add one, registering the counter on first use.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.metric.get()
    }
}

impl Named<Histogram> {
    /// Record one sample, registering the histogram on first use.
    #[inline]
    pub fn record(&'static self, v: u64) {
        ensure_registered!(self, histograms);
        self.metric.record(v);
    }

    /// Record a duration as nanoseconds, registering on first use.
    #[inline]
    pub fn record_duration(&'static self, d: Duration) {
        ensure_registered!(self, histograms);
        self.metric.record_duration(d);
    }
}

struct Registry {
    counters: Mutex<Vec<&'static Named<Counter>>>,
    histograms: Mutex<Vec<&'static Named<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
    })
}

/// Current value of the registered counter `name`, or `None` if no counter
/// with that name has been touched yet.
pub fn counter_value(name: &str) -> Option<u64> {
    registry()
        .counters
        .lock()
        .unwrap()
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.get())
}

/// Prometheus-style text exposition of every registered metric, sorted by
/// name for a deterministic snapshot. Counters emit one sample;
/// histograms emit `{quantile=...}` summary samples plus `_sum`, `_count`,
/// and `_max`.
pub fn prometheus_text() -> String {
    use std::fmt::Write as _;
    let reg = registry();
    let mut out = String::new();

    let mut counters: Vec<(&str, u64)> = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    counters.sort_unstable_by_key(|&(name, _)| name);
    for (name, value) in counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }

    let mut histograms: Vec<&'static Named<Histogram>> = reg.histograms.lock().unwrap().clone();
    histograms.sort_unstable_by_key(|h| h.name);
    for h in histograms {
        let name = h.name;
        let m = h.inner();
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", m.quantile(q));
        }
        let _ = writeln!(out, "{name}_sum {}", m.sum());
        let _ = writeln!(out, "{name}_count {}", m.count());
        let _ = writeln!(out, "{name}_max {}", m.max());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << exp).saturating_add(off << exp.saturating_sub(4)));
            }
        }
        values.push(0);
        values.push(u64::MAX);
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
        }
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn bucket_upper_bounds_its_values() {
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 1 << 20, (1 << 40) + 12345] {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            // Within one sub-bucket width: ≤ 12.5 % relative error above 8.
            if v >= SUB_BUCKETS as u64 {
                assert!(upper as f64 <= v as f64 * 1.125, "upper {upper} vs {v}");
            }
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((450..=580).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((980..=1130).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_round_trip() {
        static T_COUNTER: Named<Counter> = Named::new("test_registry_counter", Counter::new());
        static T_HIST: Named<Histogram> = Named::new("test_registry_hist", Histogram::new());
        T_COUNTER.add(3);
        T_HIST.record(42);
        assert_eq!(counter_value("test_registry_counter"), Some(3));
        let text = prometheus_text();
        assert!(text.contains("test_registry_counter 3"));
        assert!(text.contains("test_registry_hist_count 1"));
        assert!(text.contains("test_registry_hist{quantile=\"0.5\"}"));
    }
}
