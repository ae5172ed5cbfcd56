//! Property-based tests for the blocked one-pass validator: bit-identity of
//! the parallel path against the serial reference for 1–8 threads and
//! arbitrary block sizes, and verdict preservation of adaptive early
//! stopping against full-budget validation.

use proptest::prelude::*;
use stochastic_package_queries::core::silp::{
    CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective,
};
use stochastic_package_queries::core::validation::{
    validate_with, EarlyStop, ValidationOptions, ValidationReport, DEFAULT_HOEFFDING_DELTA,
};
use stochastic_package_queries::core::{Instance, SpqOptions};
use stochastic_package_queries::mcdb::vg::NormalNoise;
use stochastic_package_queries::mcdb::{Relation, RelationBuilder};
use stochastic_package_queries::solver::Sense;

fn relation_from(means: &[f64], sds: &[f64]) -> Relation {
    RelationBuilder::new("t")
        .stochastic("gain", NormalNoise::around(means.to_vec(), sds.to_vec()))
        .build()
        .unwrap()
}

fn silp_from(n: usize, constraints: &[(bool, f64, f64)]) -> Silp {
    Silp {
        relation: "t".into(),
        tuples: (0..n).collect(),
        repeat_bound: None,
        constraints: constraints
            .iter()
            .enumerate()
            .map(|(i, &(ge, rhs, p))| SilpConstraint {
                name: format!("c{i}"),
                coeff: CoeffSource::Stochastic("gain".into()),
                sense: if ge { Sense::Ge } else { Sense::Le },
                rhs,
                kind: ConstraintKind::Probabilistic { probability: p },
            })
            .collect(),
        objective: SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Stochastic("gain".into()),
            expectation: true,
        },
    }
}

fn assert_reports_identical(a: &ValidationReport, b: &ValidationReport, label: &str) {
    assert_eq!(a.feasible, b.feasible, "{label}: verdict");
    assert_eq!(a.scenarios_used, b.scenarios_used, "{label}: scenarios");
    assert_eq!(a.early_stopped, b.early_stopped, "{label}: early_stopped");
    assert_eq!(
        a.objective_estimate.to_bits(),
        b.objective_estimate.to_bits(),
        "{label}: objective"
    );
    assert_eq!(a.constraints.len(), b.constraints.len(), "{label}: len");
    for (ca, cb) in a.constraints.iter().zip(&b.constraints) {
        assert_eq!(ca.feasible, cb.feasible, "{label}: constraint verdict");
        assert_eq!(
            ca.satisfied_fraction.to_bits(),
            cb.satisfied_fraction.to_bits(),
            "{label}: fraction"
        );
        assert_eq!(
            ca.surplus.to_bits(),
            cb.surplus.to_bits(),
            "{label}: surplus"
        );
        assert_eq!(
            ca.scenarios_evaluated, cb.scenarios_evaluated,
            "{label}: per-constraint scenarios"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel blocked validator is bit-identical to the serial
    /// reference for every thread count in 1..=8 and arbitrary block sizes.
    #[test]
    fn parallel_validator_is_bit_identical_to_serial(
        means in proptest::collection::vec(-5.0f64..5.0, 3..12),
        sd in 0.2f64..3.0,
        constraint_specs in proptest::collection::vec(
            (any::<bool>(), -8.0f64..8.0, 0.05f64..0.95),
            1..4,
        ),
        mults in proptest::collection::vec(0u32..3, 12),
        m_hat in 50usize..400,
        block in 1usize..64,
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        let n = means.len();
        let sds = vec![sd; n];
        let relation = relation_from(&means, &sds);
        let instance = Instance::new(
            &relation,
            silp_from(n, &constraint_specs),
            SpqOptions {
                seed,
                ..SpqOptions::for_tests()
            },
        )
        .unwrap();
        let x: Vec<f64> = (0..n).map(|i| f64::from(mults[i])).collect();

        let reference = validate_with(
            &instance,
            &x,
            &ValidationOptions { threads: 1, block_scenarios: m_hat, ..ValidationOptions::full(m_hat) },
        )
        .unwrap();
        let parallel = validate_with(
            &instance,
            &x,
            &ValidationOptions { threads, block_scenarios: block, ..ValidationOptions::full(m_hat) },
        )
        .unwrap();
        assert_reports_identical(&reference, &parallel, "full mode");

        // The automatic thread policy (0) agrees too, whatever it picks.
        let auto = validate_with(&instance, &x, &ValidationOptions::full(m_hat)).unwrap();
        assert_reports_identical(&reference, &auto, "auto threads");

        // Adaptive runs are equally thread- and block-independent.
        let adaptive_ref = validate_with(
            &instance,
            &x,
            &ValidationOptions {
                threads: 1,
                early_stop: EarlyStop::Certain,
                ..ValidationOptions::full(m_hat)
            },
        )
        .unwrap();
        let adaptive_par = validate_with(
            &instance,
            &x,
            &ValidationOptions {
                threads,
                block_scenarios: block,
                early_stop: EarlyStop::Certain,
                ..ValidationOptions::full(m_hat)
            },
        )
        .unwrap();
        assert_reports_identical(&adaptive_ref, &adaptive_par, "certain mode");
    }

    /// `EarlyStop::Certain` never changes any verdict relative to full-`M̂`
    /// validation (its decision rule only fires when the comparison is
    /// already settled).
    #[test]
    fn certain_early_stop_never_flips_a_verdict(
        means in proptest::collection::vec(-5.0f64..5.0, 3..10),
        sd in 0.2f64..3.0,
        constraint_specs in proptest::collection::vec(
            (any::<bool>(), -8.0f64..8.0, 0.05f64..0.95),
            1..4,
        ),
        mults in proptest::collection::vec(0u32..3, 10),
        m_hat in 100usize..2000,
        seed in 0u64..1000,
    ) {
        let n = means.len();
        let sds = vec![sd; n];
        let relation = relation_from(&means, &sds);
        let instance = Instance::new(
            &relation,
            silp_from(n, &constraint_specs),
            SpqOptions {
                seed,
                ..SpqOptions::for_tests()
            },
        )
        .unwrap();
        let x: Vec<f64> = (0..n).map(|i| f64::from(mults[i])).collect();

        let full = validate_with(&instance, &x, &ValidationOptions::full(m_hat)).unwrap();
        let certain = validate_with(
            &instance,
            &x,
            &ValidationOptions { early_stop: EarlyStop::Certain, ..ValidationOptions::full(m_hat) },
        )
        .unwrap();
        prop_assert_eq!(full.feasible, certain.feasible);
        for (f, c) in full.constraints.iter().zip(&certain.constraints) {
            prop_assert_eq!(f.feasible, c.feasible);
        }
        prop_assert!(certain.scenarios_used <= full.scenarios_used);
    }

    /// Hoeffding early stopping preserves the feasibility verdict on
    /// instances whose empirical fractions are not borderline (the generated
    /// family is filtered to a 0.25 margin; the rule's failure probability
    /// per check is 1e-9).
    #[test]
    fn hoeffding_early_stop_preserves_clear_verdicts(
        means in proptest::collection::vec(-5.0f64..5.0, 3..10),
        sd in 0.2f64..3.0,
        constraint_specs in proptest::collection::vec(
            (any::<bool>(), -8.0f64..8.0, 0.05f64..0.7),
            1..3,
        ),
        mults in proptest::collection::vec(0u32..3, 10),
        m_hat in 1500usize..4000,
        seed in 0u64..1000,
    ) {
        let n = means.len();
        let sds = vec![sd; n];
        let relation = relation_from(&means, &sds);
        let instance = Instance::new(
            &relation,
            silp_from(n, &constraint_specs),
            SpqOptions {
                seed,
                ..SpqOptions::for_tests()
            },
        )
        .unwrap();
        let x: Vec<f64> = (0..n).map(|i| f64::from(mults[i])).collect();

        let full = validate_with(&instance, &x, &ValidationOptions::full(m_hat)).unwrap();
        // Only clear-margin instances: borderline fractions are exactly the
        // cases a statistical rule is allowed to call either way.
        prop_assume!(full
            .constraints
            .iter()
            .all(|c| (c.satisfied_fraction - c.probability).abs() > 0.25));

        let adaptive = validate_with(
            &instance,
            &x,
            &ValidationOptions {
                early_stop: EarlyStop::Hoeffding { delta: DEFAULT_HOEFFDING_DELTA },
                ..ValidationOptions::full(m_hat)
            },
        )
        .unwrap();
        prop_assert_eq!(full.feasible, adaptive.feasible);
        for (f, a) in full.constraints.iter().zip(&adaptive.constraints) {
            prop_assert_eq!(f.feasible, a.feasible);
        }
        prop_assert!(adaptive.scenarios_used <= full.scenarios_used);
    }
}
