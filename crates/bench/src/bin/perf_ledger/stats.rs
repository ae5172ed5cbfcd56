//! Order statistics and process counters the ledger reports.

/// Fewest samples that must lie beyond a reported percentile (the
/// choosing-metrics rule: report the highest percentile with at least ten
/// samples beyond it).
pub const SAMPLES_BEYOND: usize = 10;

/// Samples a run must collect before `latency_p90_ms` may be reported:
/// `n · (1 − 0.9) ≥ 10`.
pub const MIN_SAMPLES_FOR_P90: usize = 100;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`): the
/// smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// Whether `n` samples support reporting percentile `q` under the
/// [`SAMPLES_BEYOND`] rule.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= SAMPLES_BEYOND
}

/// Sort a copy ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them — the driver judges spreads with that
/// function, so `compare` must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; `None` for fewer than
/// two values (nobody saw a single run's spread).
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    Some(if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    })
}

/// Process CPU time so far as `(user_s, system_s)`, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds() -> (f64, f64) {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let user = tick();
    let system = tick();
    (user / USER_HZ, system / USER_HZ)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Start `VmHWM` over from the current resident set (Linux: `5` written to
/// `/proc/self/clear_refs`). False where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // 101 samples: p50 is the 51st.
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.5), 50.0);
    }

    #[test]
    fn the_ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert!(!percentile_supported(0, 0.5));
        assert!(percentile_supported(MIN_SAMPLES_FOR_P90, 0.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_counters_read() {
        let (u, s) = cpu_seconds();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
