//! α-summaries of scenario sets (Section 4.1 and 5.3, 5.5).
//!
//! An *α-summary* of a scenario set with respect to a probabilistic
//! constraint is a single deterministic row of attribute values such that any
//! solution satisfying the summary is guaranteed to satisfy at least `⌈αM⌉`
//! of the scenarios (Definition 1). For an inner `>=` constraint the summary
//! is the tuple-wise **minimum** over a chosen subset `G(α)` of scenarios;
//! for `<=` it is the tuple-wise **maximum** (Proposition 1).
//!
//! The scenario set is split into `Z` partitions; each partition yields one
//! summary. `G_z(α)` is chosen greedily (Section 5.3): scenarios are ranked
//! by their *scenario score* under the previous solution so that the summary
//! is the one most likely to keep that solution feasible. Convergence
//! acceleration (Section 5.5) keeps the previous solution feasible by using
//! the anti-conservative aggregate (max instead of min) for tuples that
//! appear in the previous solution.
//!
//! Cost: the previous solution's support `S` (its tuples with `x_i > 0`) is
//! collected once per call of [`build_summaries`]. Scoring a partition of
//! `P` scenarios reads `P·|S|` values, not `P·N`; a summary over `G`
//! chosen scenarios makes one tuple-wise min (or max) pass of `N` values
//! per chosen scenario plus `|S|` reads for the acceleration rule, and
//! allocates the row, the scores and the chosen set.

use spq_mcdb::ScenarioMatrix;
use spq_solver::Sense;

/// Split `m` scenario indices into `z` disjoint, deterministic partitions of
/// (approximately) equal size.
///
/// Edge cases: `m = 0` yields **no** partitions (an empty scenario set has no
/// meaningful summary — a zero-filled summary row would silently assert
/// `Σ 0·x ⊙ v` over nothing); `z = 0` is treated as `z = 1`; and `z > m`
/// is clamped to `m` so no partition is ever empty.
pub fn partition_scenarios(m: usize, z: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return Vec::new();
    }
    let z = z.clamp(1, m);
    let mut partitions = vec![Vec::with_capacity(m / z + 1); z];
    for j in 0..m {
        partitions[j % z].push(j);
    }
    partitions
}

/// Configuration of one summary-building pass for a single probabilistic
/// constraint.
#[derive(Debug, Clone)]
pub struct SummarySpec<'a> {
    /// Conservativeness level `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Inner constraint sense (`>=` uses tuple-wise min, `<=` max).
    pub sense: Sense,
    /// The previous solution, used for greedy `G_z` selection and
    /// convergence acceleration. `None` disables both.
    pub previous_solution: Option<&'a [f64]>,
    /// Enable the convergence-acceleration rule of Section 5.5.
    pub accelerate: bool,
}

/// Build the `Z` α-summaries of a scenario matrix according to `spec`,
/// partitioning scenarios with [`partition_scenarios`].
///
/// Returns one coefficient row per partition.
pub fn build_summaries(
    scenarios: &ScenarioMatrix,
    partitions: &[Vec<usize>],
    spec: &SummarySpec<'_>,
) -> Vec<Vec<f64>> {
    let support = support(scenarios.num_tuples(), spec.previous_solution);
    partitions
        .iter()
        .map(|partition| summarize(scenarios, partition, spec, &support))
        .collect()
}

/// Build the α-summary of one partition.
pub fn summarize_partition(
    scenarios: &ScenarioMatrix,
    partition: &[usize],
    spec: &SummarySpec<'_>,
) -> Vec<f64> {
    let support = support(scenarios.num_tuples(), spec.previous_solution);
    summarize(scenarios, partition, spec, &support)
}

/// The previous solution's support: `(i, x_i)` for every tuple `i` below
/// both `n` and the solution's length with `x_i > 0`, in ascending `i`.
fn support(n: usize, previous_solution: Option<&[f64]>) -> Vec<(usize, f64)> {
    previous_solution.map_or_else(Vec::new, |prev| {
        prev.iter()
            .take(n)
            .copied()
            .enumerate()
            .filter(|&(_, x)| x > 0.0)
            .collect()
    })
}

/// The α-summary of one partition, given the previous solution's
/// [`support`].
fn summarize(
    scenarios: &ScenarioMatrix,
    partition: &[usize],
    spec: &SummarySpec<'_>,
    support: &[(usize, f64)],
) -> Vec<f64> {
    let n = scenarios.num_tuples();
    if partition.is_empty() || n == 0 {
        return vec![0.0; n];
    }
    let chosen = select_g(scenarios, partition, spec, support);
    let conservative_is_min = spec.sense == Sense::Ge;
    let (start, anti_start) = if conservative_is_min {
        (f64::INFINITY, f64::NEG_INFINITY)
    } else {
        (f64::NEG_INFINITY, f64::INFINITY)
    };

    // Convergence acceleration: for tuples in the previous solution, use the
    // anti-conservative aggregate so the previous solution stays feasible for
    // the next CSA problem (Section 5.5). Only those tuples need it.
    let accelerated = if spec.accelerate { support } else { &[] };
    let mut summary = vec![start; n];
    let mut anti = vec![anti_start; accelerated.len()];
    for &j in &chosen {
        let row = scenarios.scenario(j);
        if conservative_is_min {
            for (s, &v) in summary.iter_mut().zip(row) {
                *s = s.min(v);
            }
            for (a, &(i, _)) in anti.iter_mut().zip(accelerated) {
                *a = a.max(row[i]);
            }
        } else {
            for (s, &v) in summary.iter_mut().zip(row) {
                *s = s.max(v);
            }
            for (a, &(i, _)) in anti.iter_mut().zip(accelerated) {
                *a = a.min(row[i]);
            }
        }
    }
    for (&a, &(i, _)) in anti.iter().zip(accelerated) {
        summary[i] = a;
    }
    summary
}

/// Greedily select `G_z(α)` — the `⌈α·|partition|⌉` scenarios whose summary
/// is most likely to keep the previous solution feasible (Section 5.3). A
/// scenario's score is its sum over the previous solution's `support`.
fn select_g(
    scenarios: &ScenarioMatrix,
    partition: &[usize],
    spec: &SummarySpec<'_>,
    support: &[(usize, f64)],
) -> Vec<usize> {
    let count = ((spec.alpha * partition.len() as f64).ceil() as usize).clamp(1, partition.len());
    if spec.previous_solution.is_none() {
        return partition.iter().copied().take(count).collect();
    }
    let mut scored: Vec<(f64, usize)> = partition
        .iter()
        .map(|&j| {
            let row = scenarios.scenario(j);
            let score: f64 = support.iter().map(|&(i, x)| row[i] * x).sum();
            (score, j)
        })
        .collect();
    // For a `>=` inner constraint, keep the scenarios with the highest
    // scores (they impose the weakest minimum); for `<=`, the lowest.
    if spec.sense == Sense::Ge {
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    } else {
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    }
    scored.into_iter().take(count).map(|(_, j)| j).collect()
}

/// Count how many scenarios of `scenarios` a solution `x` satisfies for an
/// inner constraint `Σ_i s_ij x_i (sense) rhs`. Used to verify the
/// α-summary guarantee (Definition 1) in tests and benchmarks.
pub fn count_satisfied_scenarios(
    scenarios: &ScenarioMatrix,
    x: &[f64],
    sense: Sense,
    rhs: f64,
) -> usize {
    (0..scenarios.num_scenarios())
        .filter(|&j| {
            let row = scenarios.scenario(j);
            let score: f64 = row.iter().zip(x).map(|(s, v)| s * v).sum();
            sense.check(score, rhs, 1e-9)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense rule the support-sized code replaced, kept as its
    /// reference: every tuple is scored and aggregated, and the
    /// anti-conservative aggregate is kept for all `n` tuples.
    mod dense {
        use super::*;

        pub fn summarize_partition(
            scenarios: &ScenarioMatrix,
            partition: &[usize],
            spec: &SummarySpec<'_>,
        ) -> Vec<f64> {
            let n = scenarios.num_tuples();
            if partition.is_empty() || n == 0 {
                return vec![0.0; n];
            }
            let chosen = select_g(scenarios, partition, spec);
            let conservative_is_min = spec.sense == Sense::Ge;
            let (start, anti_start) = if conservative_is_min {
                (f64::INFINITY, f64::NEG_INFINITY)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
            let mut summary = vec![start; n];
            let mut anti = vec![anti_start; n];
            for &j in &chosen {
                let row = scenarios.scenario(j);
                for i in 0..n {
                    if conservative_is_min {
                        summary[i] = summary[i].min(row[i]);
                        anti[i] = anti[i].max(row[i]);
                    } else {
                        summary[i] = summary[i].max(row[i]);
                        anti[i] = anti[i].min(row[i]);
                    }
                }
            }
            if spec.accelerate {
                if let Some(prev) = spec.previous_solution {
                    for i in 0..n {
                        if prev.get(i).copied().unwrap_or(0.0) > 0.0 {
                            summary[i] = anti[i];
                        }
                    }
                }
            }
            summary
        }

        pub fn select_g(
            scenarios: &ScenarioMatrix,
            partition: &[usize],
            spec: &SummarySpec<'_>,
        ) -> Vec<usize> {
            let count =
                ((spec.alpha * partition.len() as f64).ceil() as usize).clamp(1, partition.len());
            match spec.previous_solution {
                None => partition.iter().copied().take(count).collect(),
                Some(prev) => {
                    let mut scored: Vec<(f64, usize)> = partition
                        .iter()
                        .map(|&j| {
                            let row = scenarios.scenario(j);
                            let score: f64 = row
                                .iter()
                                .zip(prev)
                                .filter(|(_, &x)| x > 0.0)
                                .map(|(s, &x)| s * x)
                                .sum();
                            (score, j)
                        })
                        .collect();
                    if spec.sense == Sense::Ge {
                        scored.sort_by(|a, b| {
                            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
                        });
                    } else {
                        scored.sort_by(|a, b| {
                            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
                        });
                    }
                    scored.into_iter().take(count).map(|(_, j)| j).collect()
                }
            }
        }
    }

    /// A splitmix64 stream for the equivalence inputs.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        /// One of `pool`, or (one time in three) a fresh value in `[-3, 3)`.
        fn value(&mut self, pool: &[f64]) -> f64 {
            if self.below(3) == 0 {
                (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
            } else {
                pool[self.below(pool.len())]
            }
        }
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Support-sized scoring and aggregation reproduce the dense rule
        /// bit for bit: the same chosen scenarios and the same rows.
        #[test]
        fn support_sized_summaries_equal_the_dense_rule(
            seed in any::<u64>(),
            shape in (1usize..41, 0usize..61, 1usize..5),
            flags in (any::<bool>(), any::<bool>(), 0u32..4, 0u32..3),
            alpha_gap in 0.0f64..1.0,
        ) {
            let (m, n, z) = shape;
            let (ge, accelerate, prev_kind, matrix_kind) = flags;
            let mut g = Gen(seed);
            let values = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.25];
            // Independent entries, or every scenario a shuffle of one row:
            // then scores add the same terms in different orders, so ties
            // and last-bit differences decide the ranking.
            let base: Vec<f64> = (0..n).map(|_| g.value(&values)).collect();
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    if matrix_kind == 0 {
                        return (0..n).map(|_| g.value(&values)).collect();
                    }
                    let mut row = base.clone();
                    for i in (1..n).rev() {
                        row.swap(i, g.below(i + 1));
                    }
                    row
                })
                .collect();
            let scenarios = ScenarioMatrix::from_rows(n, &rows);
            // No previous solution, or one shorter than, as long as or
            // longer than `n` with zero, negative and fractional entries
            // (all 1 for the second kind of shuffled matrix, so that every
            // score sums the same terms).
            let weights = [0.0, -0.0, -1.0, -0.25, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0];
            let len = match prev_kind {
                1 => g.below(n + 1),
                2 => n,
                _ => n + 1 + g.below(5),
            };
            let prev: Vec<f64> = (0..len)
                .map(|_| if matrix_kind == 2 { 1.0 } else { g.value(&weights) })
                .collect();
            let spec = SummarySpec {
                alpha: 1.0 - alpha_gap,
                sense: if ge { Sense::Ge } else { Sense::Le },
                previous_solution: (prev_kind != 0).then_some(prev.as_slice()),
                accelerate,
            };
            let partitions = partition_scenarios(m, z);
            let support = support(n, spec.previous_solution);
            let summaries = build_summaries(&scenarios, &partitions, &spec);
            for (partition, summary) in partitions.iter().zip(&summaries) {
                prop_assert_eq!(
                    select_g(&scenarios, partition, &spec, &support),
                    dense::select_g(&scenarios, partition, &spec)
                );
                let reference = dense::summarize_partition(&scenarios, partition, &spec);
                prop_assert_eq!(bits(summary), bits(&reference));
                prop_assert_eq!(
                    bits(&summarize_partition(&scenarios, partition, &spec)),
                    bits(&reference)
                );
            }
        }
    }

    fn matrix(rows: Vec<Vec<f64>>) -> ScenarioMatrix {
        let n = rows.first().map(|r| r.len()).unwrap_or(0);
        ScenarioMatrix::from_rows(n, &rows)
    }

    /// The three scenarios of Figure 2 (gains of six trades).
    fn figure2() -> ScenarioMatrix {
        matrix(vec![
            vec![0.1, 0.05, -0.2, 0.2, 0.1, -0.7],
            vec![-0.2, -0.03, 0.5, 0.7, -0.7, -0.001],
            vec![0.01, 0.02, -0.1, -0.3, 0.2, 0.3],
        ])
    }

    #[test]
    fn partitioning_is_disjoint_and_covers_everything() {
        let parts = partition_scenarios(10, 3);
        assert_eq!(parts.len(), 3);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Sizes are balanced within 1.
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Degenerate cases.
        assert_eq!(partition_scenarios(5, 1).len(), 1);
        assert_eq!(partition_scenarios(5, 99).len(), 5);
    }

    #[test]
    fn zero_scenarios_yield_no_partitions() {
        // m = 0 must not fabricate an empty partition (whose summary would be
        // an all-zero row pretending to cover scenarios that don't exist).
        assert!(partition_scenarios(0, 1).is_empty());
        assert!(partition_scenarios(0, 7).is_empty());
        assert!(partition_scenarios(0, 0).is_empty());
        let spec = SummarySpec {
            alpha: 1.0,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let summaries = build_summaries(&figure2(), &partition_scenarios(0, 3), &spec);
        assert!(summaries.is_empty());
    }

    #[test]
    fn z_larger_than_m_never_produces_empty_partitions() {
        for (m, z) in [(1usize, 5usize), (3, 4), (4, 100), (7, 7), (2, 0)] {
            let parts = partition_scenarios(m, z);
            assert_eq!(parts.len(), z.clamp(1, m), "m={m} z={z}");
            assert!(
                parts.iter().all(|p| !p.is_empty()),
                "m={m} z={z}: empty partition in {parts:?}"
            );
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..m).collect::<Vec<_>>(), "m={m} z={z}");
        }
    }

    #[test]
    fn figure_3_example_yields_the_066_summary() {
        // Using scenarios 1 and 3 (indices 0 and 2), the 0.66-summary is the
        // tuple-wise minimum shown in Figure 3 of the paper.
        let scenarios = figure2();
        let spec = SummarySpec {
            alpha: 0.66,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let summary = summarize_partition(&scenarios, &[0, 2], &spec);
        assert_eq!(summary, vec![0.01, 0.02, -0.2, -0.3, 0.1, -0.7]);
    }

    #[test]
    fn alpha_summary_guarantee_holds_for_ge_constraints() {
        // Definition 1: if x satisfies the summary, it satisfies at least
        // ceil(alpha * M) scenarios.
        let scenarios = figure2();
        let partitions = partition_scenarios(3, 1);
        let spec = SummarySpec {
            alpha: 1.0,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let summaries = build_summaries(&scenarios, &partitions, &spec);
        assert_eq!(summaries.len(), 1);
        let summary = &summaries[0];
        // Pick a solution satisfying the summary: x = (0,0,0,0,2,0), rhs 0.1.
        let x = vec![0.0, 0.0, 0.0, 0.0, 2.0, 0.0];
        let summary_score: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        let rhs = 0.1_f64.min(summary_score);
        // Since the summary is a tuple-wise minimum over ALL scenarios, any
        // solution satisfying it satisfies every scenario.
        let satisfied = count_satisfied_scenarios(&scenarios, &x, Sense::Ge, rhs);
        assert_eq!(satisfied, 3);
    }

    #[test]
    fn le_constraints_use_tuple_wise_maximum() {
        let scenarios = figure2();
        let spec = SummarySpec {
            alpha: 1.0,
            sense: Sense::Le,
            previous_solution: None,
            accelerate: false,
        };
        let summary = summarize_partition(&scenarios, &[0, 1, 2], &spec);
        assert_eq!(summary, vec![0.1, 0.05, 0.5, 0.7, 0.2, 0.3]);
        // Any x satisfying sum s_i x_i <= rhs under the max-summary satisfies
        // every scenario.
        let x = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let rhs: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        assert_eq!(count_satisfied_scenarios(&scenarios, &x, Sense::Le, rhs), 3);
    }

    #[test]
    fn smaller_alpha_is_less_conservative() {
        let scenarios = figure2();
        let make = |alpha: f64| SummarySpec {
            alpha,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let full = summarize_partition(&scenarios, &[0, 1, 2], &make(1.0));
        let partial = summarize_partition(&scenarios, &[0, 1, 2], &make(0.34));
        // With alpha = 0.34 only one scenario is used, so each summary entry
        // is >= the full (all-scenario minimum) entry.
        for (p, f) in partial.iter().zip(&full) {
            assert!(p >= f);
        }
    }

    #[test]
    fn greedy_selection_prefers_scenarios_friendly_to_previous_solution() {
        let scenarios = figure2();
        // Previous solution buys tuple 3 (index 3) only.
        let prev = vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let spec = SummarySpec {
            alpha: 0.3, // one scenario out of three
            sense: Sense::Ge,
            previous_solution: Some(&prev),
            accelerate: false,
        };
        let summary = summarize_partition(&scenarios, &[0, 1, 2], &spec);
        // Scenario 1 (index 1) has the highest gain for tuple 3 (0.7), so the
        // single-scenario summary equals that scenario's row.
        assert_eq!(summary, vec![-0.2, -0.03, 0.5, 0.7, -0.7, -0.001]);

        // For a <= constraint the lowest-score scenario is chosen instead.
        let spec_le = SummarySpec {
            alpha: 0.3,
            sense: Sense::Le,
            previous_solution: Some(&prev),
            accelerate: false,
        };
        let summary_le = summarize_partition(&scenarios, &[0, 1, 2], &spec_le);
        assert_eq!(summary_le, vec![0.01, 0.02, -0.1, -0.3, 0.2, 0.3]);
    }

    #[test]
    fn acceleration_keeps_previous_solution_feasible() {
        let scenarios = figure2();
        let prev = vec![0.0, 0.0, 0.0, 2.0, 0.0, 0.0];
        let base = SummarySpec {
            alpha: 1.0,
            sense: Sense::Ge,
            previous_solution: Some(&prev),
            accelerate: false,
        };
        let accel = SummarySpec {
            accelerate: true,
            ..base.clone()
        };
        let plain = summarize_partition(&scenarios, &[0, 1, 2], &base);
        let boosted = summarize_partition(&scenarios, &[0, 1, 2], &accel);
        // Tuple 3 appears in the previous solution, so acceleration replaces
        // its minimum (-0.3) with its maximum (0.7).
        assert_eq!(plain[3], -0.3);
        assert_eq!(boosted[3], 0.7);
        // Other tuples are untouched.
        for i in [0usize, 1, 2, 4, 5] {
            assert_eq!(plain[i], boosted[i]);
        }
    }

    #[test]
    fn partition_count_controls_number_of_summaries() {
        let scenarios = figure2();
        let spec = SummarySpec {
            alpha: 1.0,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        for z in 1..=3 {
            let partitions = partition_scenarios(3, z);
            let summaries = build_summaries(&scenarios, &partitions, &spec);
            assert_eq!(summaries.len(), z);
        }
        // With Z = M each summary is exactly one scenario (CSA == SAA).
        let partitions = partition_scenarios(3, 3);
        let summaries = build_summaries(&scenarios, &partitions, &spec);
        for (z, summary) in summaries.iter().enumerate() {
            assert_eq!(summary, &scenarios.scenario(partitions[z][0]).to_vec());
        }
    }

    #[test]
    fn empty_partition_and_empty_matrix_edge_cases() {
        let scenarios = figure2();
        let spec = SummarySpec {
            alpha: 0.5,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        assert_eq!(summarize_partition(&scenarios, &[], &spec), vec![0.0; 6]);
        let empty = matrix(vec![]);
        assert_eq!(summarize_partition(&empty, &[], &spec), Vec::<f64>::new());
    }
}
