//! Integration tests of the SketchRefine pipeline: end-to-end behavior on
//! structured relations, refinement quality, and the property that
//! SketchRefine tracks SummarySearch's objective on clustered instances
//! while every returned package validates at the query's probability
//! threshold.

use proptest::prelude::*;
use spq_core::silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective};
use spq_core::{validate, Algorithm, Instance, SketchOptions, SpqEngine, SpqOptions};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{Relation, RelationBuilder};
use spq_sketch::evaluate_sketch_refine;
use spq_solver::Sense;

/// A relation of `means.len()` tuples, all priced `price`, with Gaussian
/// gains.
fn gains_relation(means: Vec<f64>, sds: Vec<f64>, price: f64) -> Relation {
    let n = means.len();
    RelationBuilder::new("t")
        .deterministic_f64("price", vec![price; n])
        .stochastic("gain", NormalNoise::around(means, sds))
        .build()
        .unwrap()
}

/// `SUM(price) <= budget AND SUM(gain) >= v WITH PROBABILITY >= p
///  MAXIMIZE EXPECTED SUM(gain)` over all tuples.
fn gains_silp(n: usize, budget: f64, v: f64, p: f64) -> Silp {
    Silp {
        relation: "t".into(),
        tuples: (0..n).collect(),
        repeat_bound: None,
        constraints: vec![
            SilpConstraint {
                name: "budget".into(),
                coeff: CoeffSource::Deterministic("price".into()),
                sense: Sense::Le,
                rhs: budget,
                kind: ConstraintKind::Deterministic,
            },
            SilpConstraint {
                name: "risk".into(),
                coeff: CoeffSource::Stochastic("gain".into()),
                sense: Sense::Ge,
                rhs: v,
                kind: ConstraintKind::Probabilistic { probability: p },
            },
        ],
        objective: SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Stochastic("gain".into()),
            expectation: true,
        },
    }
}

fn sketch_options(max_partition_size: usize) -> SpqOptions {
    SpqOptions {
        sketch: SketchOptions {
            max_partition_size,
            diameter_fraction: 0.25,
            direct_solve_threshold: 1,
            refine_max_scenarios: 100,
        },
        ..SpqOptions::for_tests()
    }
}

#[test]
fn refine_upgrades_the_medoid_to_the_best_partition_member() {
    // Two clusters; in the good cluster the best member (mean 6.0) is *not*
    // the medoid (mean 5.2), so only the refine phase can reach it.
    let rel = gains_relation(vec![1.0, 1.1, 1.2, 5.0, 5.2, 6.0], vec![0.5; 6], 100.0);
    let inst = Instance::new(&rel, gains_silp(6, 200.0, 0.0, 0.9), sketch_options(3)).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    let package = result.package.unwrap();
    assert!(package.is_feasible());
    // Budget 200 / price 100: two copies of the mean-6.0 tuple (index 5).
    assert_eq!(package.multiplicities, vec![(5, 2)]);
    assert!(
        package.objective_estimate > 11.0,
        "objective {}",
        package.objective_estimate
    );
    // The refine phase actually ran.
    assert!(result.stats.outer_iterations >= 1);
}

#[test]
fn representative_capacity_scales_past_the_fallback_bound() {
    // COUNT(*) >= 150 with no per-tuple repeat limit: each tuple may take up
    // to `fallback_multiplicity_bound` (100) copies, so the query is
    // feasible — but the single partition's lone representative must be
    // allowed 70 × 100 copies, beyond the 100-copy fallback. A regression
    // here clamps the representative to 100 < 150, makes the sketch MILP
    // infeasible, and SketchRefine wrongly reports failure. Zero-variance
    // gains make every tuple's feature vector identical, forcing exactly one
    // partition (and therefore exactly one representative).
    let n = 70;
    let rel = gains_relation(vec![2.0; n], vec![0.0; n], 1.0);
    let silp = Silp {
        relation: "t".into(),
        tuples: (0..n).collect(),
        repeat_bound: None,
        constraints: vec![SilpConstraint {
            name: "at_least".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Ge,
            rhs: 150.0,
            kind: ConstraintKind::Deterministic,
        }],
        objective: SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Stochastic("gain".into()),
            expectation: true,
        },
    };
    let inst = Instance::new(&rel, silp, sketch_options(70)).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    assert!(result.package.unwrap().size() >= 150);
}

#[test]
fn refined_packages_respect_the_repeat_bound() {
    // REPEAT 1 (at most 2 copies per tuple) with COUNT(*) >= 20: the sketch
    // representative legitimately carries 20 copies, and the refine phase
    // must redistribute them across real tuples at <= 2 copies each; the
    // returned package must never violate the query's repeat limit while
    // being reported feasible.
    let n = 70;
    let rel = gains_relation(vec![2.0; n], vec![0.0; n], 1.0);
    let mut silp = gains_silp(n, 1000.0, -100.0, 0.9);
    silp.repeat_bound = Some(2);
    silp.constraints.push(SilpConstraint {
        name: "at_least".into(),
        coeff: CoeffSource::Constant(1.0),
        sense: Sense::Ge,
        rhs: 20.0,
        kind: ConstraintKind::Deterministic,
    });
    let inst = Instance::new(&rel, silp, sketch_options(70)).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    let package = result.package.unwrap();
    assert!(package.size() >= 20);
    assert!(
        package.multiplicities.iter().all(|&(_, m)| m <= 2),
        "repeat bound violated: {:?}",
        package.multiplicities
    );
}

#[test]
fn repeat_refinement_is_accepted_despite_the_inflated_sketch_objective() {
    // Heterogeneous gains + REPEAT: the sketch packs 20 copies onto the best
    // member (objective 20 × max gain), while any legal refinement spreads
    // over lesser tuples and scores strictly lower. The inflated sketch
    // incumbent must not be used as the acceptance bar, or every valid
    // refinement is rejected and the query is wrongly reported infeasible.
    let n = 60;
    let means: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.05).collect();
    let rel = gains_relation(means, vec![0.0; n], 1.0);
    let mut silp = gains_silp(n, 1000.0, -100.0, 0.9);
    silp.repeat_bound = Some(2);
    silp.constraints.push(SilpConstraint {
        name: "at_least".into(),
        coeff: CoeffSource::Constant(1.0),
        sense: Sense::Ge,
        rhs: 20.0,
        kind: ConstraintKind::Deterministic,
    });
    let inst = Instance::new(&rel, silp, sketch_options(60)).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    let package = result.package.unwrap();
    assert!(package.size() >= 20);
    assert!(package.multiplicities.iter().all(|&(_, m)| m <= 2));
    // The refinement favors the top-gain tuples: 2 copies each of the ten
    // best (means 3.45 .. 3.95) total ≈ 74.
    assert!(
        package.objective_estimate > 70.0,
        "objective {}",
        package.objective_estimate
    );
}

#[test]
fn sketch_refine_handles_infeasible_queries_gracefully() {
    let rel = gains_relation(vec![1.0; 12], vec![0.3; 12], 100.0);
    let mut opts = sketch_options(4);
    opts.initial_scenarios = 10;
    opts.scenario_increment = 10;
    opts.max_scenarios = 20;
    opts.validation_scenarios = 300;
    // Total gain >= 500 with 4 tuples of mean 1 is impossible.
    let inst = Instance::new(&rel, gains_silp(12, 400.0, 500.0, 0.95), opts).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(!result.feasible);
}

#[test]
fn small_instances_fall_back_to_summary_search() {
    let rel = gains_relation(vec![2.0, 3.0, 4.0], vec![0.2; 3], 100.0);
    let mut opts = SpqOptions::for_tests();
    opts.sketch.direct_solve_threshold = 64; // n = 3 is far below
    let inst = Instance::new(&rel, gains_silp(3, 300.0, 0.0, 0.9), opts).unwrap();
    let result = evaluate_sketch_refine(&inst).unwrap();
    assert!(result.feasible);
    assert!(result.package.unwrap().size() > 0);
}

#[test]
fn engine_dispatches_sketch_refine_after_install() {
    spq_sketch::install();
    let means: Vec<f64> = (0..120).map(|i| 1.0 + (i % 6) as f64).collect();
    let sds: Vec<f64> = (0..120).map(|i| 0.2 + 0.05 * (i % 6) as f64).collect();
    let rel = RelationBuilder::new("stocks")
        .deterministic_f64("price", vec![100.0; 120])
        .stochastic("Gain", NormalNoise::around(means, sds))
        .build()
        .unwrap();
    let engine = SpqEngine::new(SpqOptions {
        initial_scenarios: 15,
        ..sketch_options(16)
    });
    let result = engine
        .evaluate(
            &rel,
            "SELECT PACKAGE(*) FROM stocks SUCH THAT \
             SUM(price) <= 400 AND \
             SUM(Gain) >= -2 WITH PROBABILITY >= 0.9 \
             MAXIMIZE EXPECTED SUM(Gain)",
            Algorithm::SketchRefine,
        )
        .unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    let package = result.package.unwrap();
    assert!(package.size() > 0 && package.size() <= 4);
    // The best tuples have mean 6: a 4-pick package should get close to 24.
    assert!(
        package.objective_estimate > 20.0,
        "objective {}",
        package.objective_estimate
    );
}

/// The configured closeness bound of the SketchRefine-vs-SummarySearch
/// property: on clustered instances the sketch's representative error is the
/// intra-cluster jitter, so 10% is generous.
const EPSILON: f64 = 0.10;

#[test]
fn default_epsilon_sketch_refine_never_realizes_an_objective_bounds_block() {
    // Nothing reads the ε certificate at the default ε = ∞, so neither the
    // full instance nor any sketch/refine sub-instance may realize Table 1's
    // 64-scenario × every-candidate block of the (GBM) objective column.
    spq_sketch::install();
    let workload = spq_workloads::build_workload(spq_workloads::WorkloadKind::Portfolio, 2000, 11);
    let n = workload.relation.len();
    let cache = std::sync::Arc::new(spq_mcdb::ScenarioCache::new());
    let options = SpqOptions {
        validation_scenarios: 2000,
        scenario_cache: Some(cache.clone()),
        ..SpqOptions::for_tests()
    };
    let engine = SpqEngine::new(options);
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    assert_eq!(silp.num_vars(), n);
    let result = engine
        .evaluate_silp(&workload.relation, silp, Algorithm::SketchRefine)
        .unwrap();
    assert!(result.feasible, "stats: {:?}", result.stats);
    let package = result.package.unwrap();
    // Same answer as before the certificate became demand-driven...
    assert_eq!(package.multiplicities, vec![(831, 3)]);
    assert_eq!(package.objective_estimate, 3.229015683909182);
    // ...with no value-bounds block among the realized ones (the full
    // instance, the sketch and the one refine sub-instance each used to
    // sample one), and everything the run did realize is smaller than one
    // 64 × N block.
    assert_eq!(cache.misses(), 11);
    assert!(cache.resident_bytes() < (64 * n * std::mem::size_of::<f64>()) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On small feasible clustered instances, SketchRefine's validated
    /// objective is within `EPSILON` of SummarySearch's, and the returned
    /// package re-validates at the query's probability threshold.
    #[test]
    fn sketch_refine_tracks_summary_search_within_epsilon(
        seed in 0u64..1000,
        clusters in 3usize..6,
        copies in 3usize..5,
        jitter in 0.0f64..0.01,
    ) {
        let n = clusters * copies;
        let mut means = Vec::with_capacity(n);
        let mut sds = Vec::with_capacity(n);
        for c in 0..clusters {
            let mu = 1.0 + 1.5 * c as f64;
            let sd = 0.3 + 0.1 * c as f64;
            for k in 0..copies {
                // Deterministic intra-cluster jitter of at most ~1%.
                let wiggle = 1.0 + jitter * ((seed + k as u64) % 3) as f64 / 2.0;
                means.push(mu * wiggle);
                sds.push(sd * wiggle);
            }
        }
        let rel = gains_relation(means, sds, 100.0);
        let silp = gains_silp(n, 400.0, -5.0, 0.9);
        let p = 0.9;

        let mut opts = sketch_options(copies);
        opts.seed = seed;
        opts.validation_scenarios = 800;
        opts.sketch.diameter_fraction = 0.2;

        let ss_inst = Instance::new(&rel, silp.clone(), opts.clone()).unwrap();
        let ss = spq_core::summary_search::evaluate_summary_search(&ss_inst).unwrap();
        prop_assert!(ss.feasible, "SummarySearch failed: {:?}", ss.stats);
        let ss_obj = ss.package.as_ref().unwrap().objective_estimate;

        let sr_inst = Instance::new(&rel, silp.clone(), opts.clone()).unwrap();
        let sr = evaluate_sketch_refine(&sr_inst).unwrap();
        prop_assert!(sr.feasible, "SketchRefine failed: {:?}", sr.stats);
        let package = sr.package.unwrap();
        let sr_obj = package.objective_estimate;

        // Maximization: SketchRefine must reach at least (1 - ε) of
        // SummarySearch's objective.
        prop_assert!(
            sr_obj >= ss_obj * (1.0 - EPSILON) - 1e-9,
            "SketchRefine {sr_obj} vs SummarySearch {ss_obj}"
        );

        // The returned package passes out-of-sample validation at the
        // query's probability threshold.
        let check_inst = Instance::new(&rel, silp, opts).unwrap();
        let mut x = vec![0.0f64; n];
        for &(tuple, mult) in &package.multiplicities {
            x[tuple] = f64::from(mult);
        }
        let report = validate(&check_inst, &x, 2000).unwrap();
        prop_assert!(report.feasible, "package failed re-validation: {report:?}");
        prop_assert!(report.constraints[0].satisfied_fraction >= p - 0.02);
    }
}
