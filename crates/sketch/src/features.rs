//! Distributional feature extraction for partitioning.
//!
//! SketchRefine groups tuples whose attribute *distributions* are similar, so
//! that one representative per group is a faithful stand-in during the sketch
//! phase. Each candidate tuple is embedded into a small feature vector built
//! from the columns the query actually touches:
//!
//! * a **deterministic** column contributes its value,
//! * a **stochastic** column contributes its expectation estimate (the
//!   engine's precomputed `E(t_i.A)`) *and* its standard deviation — two
//!   tuples only land in the same partition when both their location and
//!   their spread agree. The standard deviation is the VG function's closed
//!   form where it has one (the parametric families with a finite variance:
//!   no scenario is drawn and the features do not depend on the seed);
//!   otherwise it is estimated over [`FEATURE_SCENARIOS`] validation-stream
//!   scenarios.
//!
//! Every dimension is min-max normalized to `[0, 1]` over the candidate set,
//! so the partitioner's diameter budget is scale-free.

use spq_core::{Instance, Result};

/// Min-max normalize one raw dimension in place; constant dimensions
/// collapse to 0 (they cannot separate tuples anyway).
pub(crate) fn normalize(dim: &mut [f64]) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in dim.iter() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let range = hi - lo;
    if !range.is_finite() || range < 1e-12 {
        dim.fill(0.0);
    } else {
        for v in dim.iter_mut() {
            *v = (*v - lo) / range;
        }
    }
}

/// Validation-stream scenarios sampled per tuple to estimate the spread
/// feature — the fallback for columns whose VG function has no closed-form
/// standard deviation ([`spq_mcdb::VgFunction::std_dev`]). Where it has one,
/// the feature is exact and no scenario is drawn.
pub const FEATURE_SCENARIOS: usize = 24;

/// The normalized feature dimensions of an instance's candidates,
/// column-major: one `[0, 1]`-normalized vector per feature dimension, as
/// the blockwise [`crate::hierarchy`] partitioner reads them (it never
/// transposes them into a row-major matrix).
pub(crate) fn candidate_dimensions(instance: &Instance<'_>) -> Result<Vec<Vec<f64>>> {
    let n = instance.num_vars();
    let (det, stoch) = instance.silp.referenced_columns();
    let mut dims: Vec<Vec<f64>> = Vec::new();

    for col in &det {
        dims.push(instance.deterministic(col)?.to_vec());
    }

    for col in &stoch {
        dims.push(instance.expectations(col)?.to_vec());
        // Routed through the instance, which answers without a draw when
        // the column is provably scenario-invariant or its VG function has
        // closed-form moments; only the rest go through the columnar block
        // engine.
        let moments = instance.tuple_moments(col, FEATURE_SCENARIOS)?;
        dims.push(moments.into_iter().map(|(_, sd)| sd).collect());
    }

    // A query referencing only constants (COUNT(*)) still needs *some*
    // embedding; fall back to a single zero dimension (every tuple is then
    // interchangeable, which is exactly right).
    if dims.is_empty() {
        dims.push(vec![0.0; n]);
    }

    for dim in &mut dims {
        normalize(dim);
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_core::silp::{
        CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective,
    };
    use spq_core::SpqOptions;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::{Relation, RelationBuilder};
    use spq_solver::Sense;

    fn relation() -> Relation {
        RelationBuilder::new("t")
            .deterministic_f64("price", vec![10.0, 20.0, 30.0, 40.0])
            .stochastic(
                "gain",
                NormalNoise::around(vec![1.0, 1.0, 5.0, 5.0], vec![0.1, 0.1, 2.0, 2.0]),
            )
            .build()
            .unwrap()
    }

    fn silp() -> Silp {
        Silp {
            relation: "t".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints: vec![SilpConstraint {
                name: "budget".into(),
                coeff: CoeffSource::Deterministic("price".into()),
                sense: Sense::Le,
                rhs: 60.0,
                kind: ConstraintKind::Deterministic,
            }],
            objective: SilpObjective::Linear {
                direction: Direction::Maximize,
                coeff: CoeffSource::Stochastic("gain".into()),
                expectation: true,
            },
        }
    }

    #[test]
    fn features_cover_price_mean_and_spread() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
        let f = candidate_dimensions(&inst).unwrap();
        // price + (gain mean, gain sd), one value per candidate each
        assert_eq!(f.len(), 3);
        for (k, dim) in f.iter().enumerate() {
            assert_eq!(dim.len(), 4);
            for &v in dim {
                assert!((0.0..=1.0).contains(&v), "dim {k}: {v}");
            }
        }
        // Price is normalized linearly: 10 -> 0, 40 -> 1.
        assert_eq!(f[0][0], 0.0);
        assert_eq!(f[0][3], 1.0);
        // Tuples 0/1 share mean and sd; tuples 2/3 likewise — and the two
        // groups are far apart in both stochastic dimensions.
        assert_eq!(f[1][0], f[1][1]);
        assert!((f[2][0] - f[2][1]).abs() < 0.15);
        assert!((f[1][0] - f[1][2]).abs() > 0.9);
        assert!((f[2][0] - f[2][2]).abs() > 0.5);
    }

    #[test]
    fn constant_only_queries_get_a_degenerate_embedding() {
        let rel = relation();
        let mut s = silp();
        s.constraints = vec![SilpConstraint {
            name: "count".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Le,
            rhs: 2.0,
            kind: ConstraintKind::Deterministic,
        }];
        s.objective = SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Constant(1.0),
            expectation: false,
        };
        let inst = Instance::new(&rel, s, SpqOptions::for_tests()).unwrap();
        let f = candidate_dimensions(&inst).unwrap();
        assert_eq!(f.len(), 1);
        assert!(f[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalize_handles_constant_dimensions() {
        let mut dim = vec![3.0, 3.0, 3.0];
        normalize(&mut dim);
        assert_eq!(dim, vec![0.0, 0.0, 0.0]);
        let mut dim = vec![1.0, 3.0];
        normalize(&mut dim);
        assert_eq!(dim, vec![0.0, 1.0]);
    }
}
