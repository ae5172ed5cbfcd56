//! Streaming estimation of expected attribute values.
//!
//! The paper's implementation precomputes, for every tuple and stochastic
//! attribute, an estimate of `E(t_i.A)` by averaging the same large number of
//! scenarios used for validation (Section 3.2), maintained as running
//! averages so memory stays `O(N)`. [`ExpectationEstimator`] reproduces this:
//! it prefers an analytic mean when the VG function exposes one, and falls
//! back to streaming empirical averaging over the validation stream.

use crate::relation::Relation;
use crate::scenario::ScenarioGenerator;
use crate::Result;

/// Streaming estimator of expected values.
#[derive(Debug, Clone, Copy)]
pub struct ExpectationEstimator {
    generator: ScenarioGenerator,
    /// Number of validation scenarios to average when no analytic mean exists.
    pub num_scenarios: usize,
}

impl ExpectationEstimator {
    /// Create an estimator drawing from the validation stream of `seed`.
    pub fn new(seed: u64, num_scenarios: usize) -> Self {
        ExpectationEstimator {
            generator: ScenarioGenerator::validation(seed),
            num_scenarios,
        }
    }

    /// Estimate `E(t_i.A)` for the given tuples, generating scenario values
    /// for no others.
    ///
    /// The analytic path is taken if and only if the *whole* column has
    /// closed-form means: a partially-analytic column uses the empirical path
    /// everywhere, or estimates over different tuple subsets would disagree.
    /// The empirical path averages the validation stream's first
    /// `num_scenarios` scenarios in windows of 512, keeping memory
    /// `O(|tuples|)`, and per-cell seeding makes each tuple's estimate
    /// independent of the subset it is asked with. The cost is
    /// `O(|tuples| · M)` instead of `O(N · M)` — the partition-aware access
    /// path SketchRefine relies on when preparing sketch and refine
    /// sub-instances over huge relations.
    pub fn estimate_tuples(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
    ) -> Result<Vec<f64>> {
        if let Some(&bad) = tuples.iter().find(|&&t| t >= relation.len()) {
            return Err(crate::McdbError::TupleOutOfBounds {
                index: bad,
                len: relation.len(),
            });
        }
        let sc = relation.stochastic_column(column)?;
        if sc.analytic {
            return Ok(tuples
                .iter()
                .map(|&t| sc.vg.mean(t).expect("column flagged fully analytic"))
                .collect());
        }
        const CHUNK: usize = 512;
        let mut sums = vec![0.0f64; tuples.len()];
        let mut start = 0usize;
        while start < self.num_scenarios {
            let end = (start + CHUNK).min(self.num_scenarios);
            let window = self.generator.realize_sparse_matrix_range(
                relation,
                column,
                tuples,
                start..end,
                0,
            )?;
            for j in 0..end - start {
                for (sum, v) in sums.iter_mut().zip(window.scenario(j)) {
                    *sum += v;
                }
            }
            start = end;
        }
        let m = self.num_scenarios.max(1) as f64;
        for sum in &mut sums {
            *sum /= m;
        }
        Ok(sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::vg::{NormalNoise, ParetoNoise};

    #[test]
    fn analytic_means_are_preferred() {
        let r = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(vec![5.0, 6.0], 1.0))
            .build()
            .unwrap();
        let est = ExpectationEstimator::new(1, 10);
        assert_eq!(
            est.estimate_tuples(&r, "x", &[0, 1]).unwrap(),
            vec![5.0, 6.0]
        );
    }

    #[test]
    fn empirical_fallback_for_heavy_tails() {
        // Pareto with shape 1 has an infinite mean, so no closed form exists
        // and the estimate averages realized scenarios.
        let r = RelationBuilder::new("t")
            .stochastic("x", ParetoNoise::around(vec![0.0, 10.0], 1.0, 1.0))
            .build()
            .unwrap();
        let means = ExpectationEstimator::new(3, 500)
            .estimate_tuples(&r, "x", &[0, 1])
            .unwrap();
        // Pareto(1,1) realizations are >= 1, so the empirical mean must be
        // at least base + 1.
        assert!(means[0] >= 1.0);
        assert!(means[1] >= 11.0);
    }

    #[test]
    fn empirical_mean_tracks_analytic_value() {
        // Tuple 1's infinite mean forces the empirical path for the whole
        // column; tuple 0's average then converges to its closed form 4/3.
        let r = RelationBuilder::new("t")
            .stochastic(
                "x",
                ParetoNoise::around(vec![0.0, 0.0], 1.0, vec![4.0, 1.0]),
            )
            .build()
            .unwrap();
        let analytic = r.stochastic_column("x").unwrap().vg.mean(0).unwrap();
        assert!((analytic - 4.0 / 3.0).abs() < 1e-12);
        let empirical = ExpectationEstimator::new(8, 20_000)
            .estimate_tuples(&r, "x", &[0])
            .unwrap()[0];
        assert!(
            (empirical - analytic).abs() < 0.02,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn subset_estimates_match_full_estimates() {
        // Analytic path.
        let r = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(vec![5.0, 6.0, 7.0, 8.0], 1.0))
            .build()
            .unwrap();
        let est = ExpectationEstimator::new(9, 1100);
        assert_eq!(
            est.estimate_tuples(&r, "x", &[3, 1]).unwrap(),
            vec![8.0, 6.0]
        );
        // Empirical path, over more than two 512-scenario windows:
        // restricted estimates equal the whole relation's entries bit for
        // bit (order-independent per-cell seeding).
        let heavy = RelationBuilder::new("h")
            .stochastic("x", ParetoNoise::around(vec![0.0, 10.0, 20.0], 1.0, 1.0))
            .build()
            .unwrap();
        let full = est.estimate_tuples(&heavy, "x", &[0, 1, 2]).unwrap();
        let sub = est.estimate_tuples(&heavy, "x", &[2, 0]).unwrap();
        assert_eq!(sub, vec![full[2], full[0]]);
        // The windows sum the realized matrix scenario by scenario.
        let matrix = ScenarioGenerator::validation(9)
            .realize_matrix(&heavy, "x", 1100)
            .unwrap();
        let mut sum = 0.0;
        for j in 0..1100 {
            sum += matrix.value(j, 1);
        }
        assert_eq!(full[1], sum / 1100.0);
        // Out-of-bounds tuples error instead of panicking.
        assert!(est.estimate_tuples(&heavy, "x", &[7]).is_err());
    }

    #[test]
    fn partially_analytic_columns_use_the_empirical_path_everywhere() {
        // Shapes straddle 1.0: tuple 0 has a closed-form mean, tuple 1 does
        // not, so the whole column uses empirical means — and a subset
        // consisting only of the analytic tuple must do the same, or
        // sub-instance expectations would disagree with the full instance's.
        let r = RelationBuilder::new("t")
            .stochastic(
                "x",
                ParetoNoise::around(vec![0.0, 0.0], 1.0, vec![3.0, 0.5]),
            )
            .build()
            .unwrap();
        let est = ExpectationEstimator::new(5, 400);
        let full = est.estimate_tuples(&r, "x", &[0, 1]).unwrap();
        let sub = est.estimate_tuples(&r, "x", &[0]).unwrap();
        assert_eq!(sub, vec![full[0]]);
        // The empirical mean differs from the analytic 1.5 the subset path
        // would wrongly have produced.
        assert!((sub[0] - 1.5).abs() > 1e-6);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let r = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(vec![1.0], 1.0))
            .build()
            .unwrap();
        let est = ExpectationEstimator::new(1, 5);
        assert!(est.estimate_tuples(&r, "y", &[0]).is_err());
    }
}
