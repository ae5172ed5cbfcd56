use super::*;
use crate::options::SpqOptions;
use crate::silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint};
use spq_mcdb::vg::{Degenerate, NormalNoise};
use spq_mcdb::{Relation, RelationBuilder};
use spq_solver::{Deadline, Sense};

fn relation() -> Relation {
    RelationBuilder::new("t")
        .deterministic_f64("price", vec![10.0, 20.0, 30.0])
        // Tuple gains: strongly positive, mildly positive, negative.
        .stochastic("gain", NormalNoise::around(vec![10.0, 1.0, -5.0], 1.0))
        .stochastic("fixed", Degenerate::new(vec![1.0, 2.0, 3.0]))
        .build()
        .unwrap()
}

fn silp_with_constraint(sense: Sense, rhs: f64, p: f64) -> Silp {
    Silp {
        relation: "t".into(),
        tuples: vec![0, 1, 2],
        repeat_bound: None,
        constraints: vec![SilpConstraint {
            name: "risk".into(),
            coeff: CoeffSource::Stochastic("gain".into()),
            sense,
            rhs,
            kind: ConstraintKind::Probabilistic { probability: p },
        }],
        objective: SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Stochastic("gain".into()),
            expectation: true,
        },
    }
}

#[test]
fn clearly_feasible_package_validates() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, 0.0, 0.9),
        SpqOptions::for_tests(),
    )
    .unwrap();
    // One copy of tuple 0 (mean gain 10, sd 1): Pr(gain >= 0) ~ 1.
    let report = validate(&inst, &[1.0, 0.0, 0.0], 2000).unwrap();
    assert!(report.feasible);
    assert_eq!(report.constraints.len(), 1);
    assert!(report.constraints[0].surplus > 0.05);
    assert!((report.objective_estimate - 10.0).abs() < 0.5);
    assert_eq!(report.scenarios_used, 2000);
    assert_eq!(report.m_hat, 2000);
    assert!(!report.early_stopped);
    assert!(!report.interrupted);
    assert_eq!(report.constraints[0].scenarios_evaluated, 2000);
}

#[test]
fn clearly_infeasible_package_fails_validation_with_negative_surplus() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, 0.0, 0.9),
        SpqOptions::for_tests(),
    )
    .unwrap();
    // Tuple 2 has mean gain -5: Pr(gain >= 0) ~ 0.
    let report = validate(&inst, &[0.0, 0.0, 1.0], 2000).unwrap();
    assert!(!report.feasible);
    assert!(report.constraints[0].surplus < -0.5);
    assert!(!report.constraints[0].feasible);
}

#[test]
fn borderline_package_has_surplus_near_zero() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        // Tuple 1 has mean 1, sd 1: Pr(gain >= 1) ~ 0.5.
        silp_with_constraint(Sense::Ge, 1.0, 0.5),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let report = validate(&inst, &[0.0, 1.0, 0.0], 4000).unwrap();
    assert!(report.constraints[0].surplus.abs() < 0.05);
}

#[test]
fn empty_package_scores_zero() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, -1.0, 0.9),
        SpqOptions::for_tests(),
    )
    .unwrap();
    // Empty package: score 0 >= -1 always -> feasible.
    let report = validate(&inst, &[0.0, 0.0, 0.0], 500).unwrap();
    assert!(report.feasible);
    assert_eq!(report.constraints[0].satisfied_fraction, 1.0);
    assert_eq!(report.objective_estimate, 0.0);

    // But with rhs 1 the empty package fails.
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, 1.0, 0.9),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let report = validate(&inst, &[0.0, 0.0, 0.0], 500).unwrap();
    assert!(!report.feasible);
}

#[test]
fn degenerate_column_gives_exact_fractions() {
    let rel = relation();
    let silp = Silp {
        relation: "t".into(),
        tuples: vec![0, 1, 2],
        repeat_bound: None,
        constraints: vec![SilpConstraint {
            name: "fixed".into(),
            coeff: CoeffSource::Stochastic("fixed".into()),
            sense: Sense::Le,
            rhs: 4.0,
            kind: ConstraintKind::Probabilistic { probability: 0.8 },
        }],
        objective: SilpObjective::Linear {
            direction: Direction::Minimize,
            coeff: CoeffSource::Stochastic("fixed".into()),
            expectation: true,
        },
    };
    let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
    // Package {tuple0: 2, tuple1: 1} has fixed score 2*1 + 2 = 4 <= 4 in
    // every scenario (degenerate), so the fraction is exactly 1.
    let report = validate(&inst, &[2.0, 1.0, 0.0], 300).unwrap();
    assert!(report.feasible);
    assert_eq!(report.constraints[0].satisfied_fraction, 1.0);
    assert_eq!(report.objective_estimate, 4.0);
    // Package {tuple2: 2} scores 6 > 4 in every scenario.
    let report = validate(&inst, &[0.0, 0.0, 2.0], 300).unwrap();
    assert_eq!(report.constraints[0].satisfied_fraction, 0.0);
    assert!(!report.feasible);
}

#[test]
fn probability_objective_estimate_is_a_fraction() {
    let rel = relation();
    let silp = Silp {
        relation: "t".into(),
        tuples: vec![0, 1, 2],
        repeat_bound: None,
        constraints: vec![],
        objective: SilpObjective::Probability {
            direction: Direction::Maximize,
            attribute: "gain".into(),
            sense: Sense::Ge,
            threshold: 5.0,
        },
    };
    let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
    // Tuple 0 (mean 10, sd 1): Pr(gain >= 5) ~ 1.
    let report = validate(&inst, &[1.0, 0.0, 0.0], 1000).unwrap();
    assert!(report.objective_estimate > 0.99);
    assert!(report.feasible); // no probabilistic constraints
    assert!(report.constraints.is_empty());
    assert_eq!(report.scenarios_used, 1000);
    // Tuple 2 (mean -5): Pr(gain >= 5) ~ 0.
    let report = validate(&inst, &[0.0, 0.0, 1.0], 1000).unwrap();
    assert!(report.objective_estimate < 0.01);
}

#[test]
fn multiple_probabilistic_constraints_all_validated() {
    let rel = relation();
    let mut silp = silp_with_constraint(Sense::Ge, 0.0, 0.9);
    silp.constraints.push(SilpConstraint {
        name: "cap".into(),
        coeff: CoeffSource::Stochastic("gain".into()),
        sense: Sense::Le,
        rhs: 20.0,
        kind: ConstraintKind::Probabilistic { probability: 0.9 },
    });
    let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
    let report = validate(&inst, &[1.0, 0.0, 0.0], 1000).unwrap();
    assert_eq!(report.constraints.len(), 2);
    assert!(report.feasible);
    // Both constraints hold with large surplus for one copy of tuple 0.
    assert!(report.constraints.iter().all(|c| c.surplus > 0.0));
}

// ---------------------------------------------------------------------------
// New: m̂ = 0, integral p·M̂ boundaries, threading, early stop, interruption.
// ---------------------------------------------------------------------------

#[test]
fn zero_scenario_budget_is_an_error_not_vacuous_feasibility() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, 100.0, 0.99),
        SpqOptions::for_tests(),
    )
    .unwrap();
    // This package is wildly infeasible; m̂ = 0 used to report it feasible.
    let err = validate(&inst, &[1.0, 0.0, 0.0], 0).unwrap_err();
    assert!(
        matches!(err, crate::SpqError::InvalidArgument(_)),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("m_hat"));
}

#[test]
fn required_successes_handles_integral_products_exactly() {
    // 0.7 * 10 = 7.000000000000001 in f64: a plain ceil would demand 8.
    assert_eq!(required_successes(0.7, 10), 7);
    assert_eq!(required_successes(0.8, 10), 8);
    assert_eq!(required_successes(0.9, 10), 9);
    assert_eq!(required_successes(0.95, 10), 10);
    assert_eq!(required_successes(0.66, 3), 2);
    assert_eq!(required_successes(1.0, 7), 7);
    assert_eq!(required_successes(0.0, 7), 0);
    assert_eq!(required_successes(0.5, 0), 0);
    // Tiny but positive p still needs at least one success.
    assert_eq!(required_successes(0.001, 10), 1);
    // Exhaustive exact-rational sweep: p = k/n must require exactly k.
    for n in 1..=50usize {
        for k in 0..=n {
            let p = k as f64 / n as f64;
            assert_eq!(required_successes(p, n), k, "p = {k}/{n}");
        }
    }
}

/// Realize the validation stream for candidate position 1 and pick
/// thresholds that make *exactly* `want` of `m_hat` scenarios satisfy
/// `gain >= rhs`.
fn rhs_for_exact_count(inst: &Instance<'_>, m_hat: usize, want: usize) -> f64 {
    let rows = inst.validation_rows("gain", &[1], 0..m_hat).unwrap();
    let mut values: Vec<f64> = rows.iter().map(|r| r[0]).collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // `gain >= rhs` holds for the top `want` values when rhs lies strictly
    // between values[m - want - 1] and values[m - want].
    assert!(want > 0 && want < m_hat);
    (values[m_hat - want - 1] + values[m_hat - want]) / 2.0
}

#[test]
fn integral_p_m_hat_boundary_is_exact() {
    let rel = relation();
    let probe = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, 0.0, 0.8),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let m_hat = 10;

    // Exactly 8 of 10 scenarios satisfied, p = 0.8: required = 8 -> feasible
    // with surplus exactly 0.
    let rhs8 = rhs_for_exact_count(&probe, m_hat, 8);
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, rhs8, 0.8),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let report = validate(&inst, &[0.0, 1.0, 0.0], m_hat).unwrap();
    assert!(report.feasible, "8/10 must meet p = 0.8 exactly");
    assert_eq!(report.constraints[0].satisfied_fraction, 0.8);
    assert_eq!(report.constraints[0].surplus, 0.0);

    // Exactly 7 of 10: one short of required -> infeasible.
    let rhs7 = rhs_for_exact_count(&probe, m_hat, 7);
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, rhs7, 0.8),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let report = validate(&inst, &[0.0, 1.0, 0.0], m_hat).unwrap();
    assert!(!report.feasible);
    assert_eq!(report.constraints[0].satisfied_fraction, 0.7);

    // p = 0.7 with exactly 7 of 10: the floating-point product 0.7·10 must
    // not round the requirement up to 8.
    let inst = Instance::new(
        &rel,
        silp_with_constraint(Sense::Ge, rhs7, 0.7),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let report = validate(&inst, &[0.0, 1.0, 0.0], m_hat).unwrap();
    assert!(report.feasible, "7/10 must meet p = 0.7 exactly");
    assert_eq!(report.constraints[0].surplus, 0.0);
}

#[test]
fn reports_are_bit_identical_across_threads_and_block_sizes() {
    let rel = relation();
    let mut silp = silp_with_constraint(Sense::Ge, 0.5, 0.6);
    silp.constraints.push(SilpConstraint {
        name: "cap".into(),
        coeff: CoeffSource::Stochastic("gain".into()),
        sense: Sense::Le,
        rhs: 24.0,
        kind: ConstraintKind::Probabilistic { probability: 0.85 },
    });
    let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
    let x = [2.0, 1.0, 0.0];
    let m_hat = 3001; // prime-ish so block boundaries land mid-stream
    let reference = validate_with(
        &inst,
        &x,
        &ValidationOptions {
            threads: 1,
            block_scenarios: m_hat,
            ..ValidationOptions::full(m_hat)
        },
    )
    .unwrap();
    for threads in [1, 2, 3, 8] {
        for block in [1, 7, 256, 2048, 5000] {
            let report = validate_with(
                &inst,
                &x,
                &ValidationOptions {
                    threads,
                    block_scenarios: block,
                    ..ValidationOptions::full(m_hat)
                },
            )
            .unwrap();
            assert_eq!(report.feasible, reference.feasible);
            assert_eq!(report.scenarios_used, reference.scenarios_used);
            for (a, b) in report.constraints.iter().zip(&reference.constraints) {
                assert_eq!(
                    a.satisfied_fraction.to_bits(),
                    b.satisfied_fraction.to_bits(),
                    "threads {threads} block {block}"
                );
                assert_eq!(a.feasible, b.feasible);
            }
        }
    }
}

#[test]
fn certain_early_stop_preserves_the_full_verdict_and_saves_scenarios() {
    let rel = relation();
    // Degenerate column: the constraint holds in every scenario, so the
    // certain rule fires as soon as satisfied >= ceil(p · m̂).
    let silp = Silp {
        relation: "t".into(),
        tuples: vec![0, 1, 2],
        repeat_bound: None,
        constraints: vec![SilpConstraint {
            name: "fixed".into(),
            coeff: CoeffSource::Stochastic("fixed".into()),
            sense: Sense::Le,
            rhs: 4.0,
            kind: ConstraintKind::Probabilistic { probability: 0.5 },
        }],
        objective: SilpObjective::Linear {
            direction: Direction::Minimize,
            coeff: CoeffSource::Stochastic("fixed".into()),
            expectation: true,
        },
    };
    let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
    let m_hat = 100_000;
    let report = validate_with(
        &inst,
        &[2.0, 1.0, 0.0],
        &ValidationOptions {
            early_stop: EarlyStop::Certain,
            ..ValidationOptions::full(m_hat)
        },
    )
    .unwrap();
    assert!(report.feasible);
    assert!(report.early_stopped);
    assert!(
        report.scenarios_used < m_hat,
        "certain rule should settle before the full budget ({} scenarios)",
        report.scenarios_used
    );
    // ceil(0.5 * 100000) = 50000 successes are needed before certainty.
    assert!(report.constraints[0].scenarios_evaluated >= 50_000);
}

#[test]
fn hoeffding_early_stop_decides_far_from_p_constraints_in_the_first_stages() {
    let rel = relation();
    let inst = Instance::new(
        &rel,
        // Pr(gain >= 0) ~ 1 for tuple 0, target p = 0.9: a huge margin.
        silp_with_constraint(Sense::Ge, 0.0, 0.9),
        SpqOptions::for_tests(),
    )
    .unwrap();
    let m_hat = 1_000_000;
    let report = validate_with(
        &inst,
        &[1.0, 0.0, 0.0],
        &ValidationOptions {
            early_stop: EarlyStop::Hoeffding {
                delta: DEFAULT_HOEFFDING_DELTA,
            },
            ..ValidationOptions::full(m_hat)
        },
    )
    .unwrap();
    assert!(report.feasible);
    assert!(report.early_stopped);
    assert!(
        report.scenarios_used <= 16_384,
        "a ~1.0 fraction against p = 0.9 should decide within a few stages, used {}",
        report.scenarios_used
    );
    // The verdict agrees with a (much smaller) full validation.
    let full = validate(&inst, &[1.0, 0.0, 0.0], 10_000).unwrap();
    assert_eq!(report.feasible, full.feasible);

    // And the symmetric rejection: tuple 2 fails almost surely.
    let report = validate_with(
        &inst,
        &[0.0, 0.0, 1.0],
        &ValidationOptions {
            early_stop: EarlyStop::Hoeffding {
                delta: DEFAULT_HOEFFDING_DELTA,
            },
            ..ValidationOptions::full(m_hat)
        },
    )
    .unwrap();
    assert!(!report.feasible);
    assert!(report.scenarios_used <= 16_384);
}

#[test]
fn expired_deadlines_interrupt_the_block_loop() {
    let rel = relation();
    let mut opts = SpqOptions::for_tests();
    opts.deadline = Deadline::within(std::time::Duration::ZERO);
    let inst = Instance::new(&rel, silp_with_constraint(Sense::Ge, 0.0, 0.9), opts).unwrap();
    let report = validate(&inst, &[1.0, 0.0, 0.0], 5000).unwrap();
    assert!(report.interrupted);
    assert!(
        !report.feasible,
        "an interrupted, unevaluated run is conservative"
    );
    assert_eq!(report.constraints[0].scenarios_evaluated, 0);

    // A cancellation token fires the same path.
    let token = spq_solver::CancellationToken::new();
    token.cancel();
    let mut opts = SpqOptions::for_tests();
    opts.deadline = Deadline::none().with_token(token);
    let inst = Instance::new(&rel, silp_with_constraint(Sense::Ge, 0.0, 0.9), opts).unwrap();
    let report = validate(&inst, &[1.0, 0.0, 0.0], 5000).unwrap();
    assert!(report.interrupted);
}

#[test]
fn certificate_validation_is_deadline_exempt_but_cancellable() {
    let rel = relation();
    // Wall-clock budget already spent: the certificate pass still runs to
    // completion.
    let mut opts = SpqOptions::for_tests();
    opts.deadline = Deadline::within(std::time::Duration::ZERO);
    let inst = Instance::new(&rel, silp_with_constraint(Sense::Ge, 0.0, 0.9), opts).unwrap();
    let report = validate_with(
        &inst,
        &[1.0, 0.0, 0.0],
        &inst.options.certificate_validation(),
    )
    .unwrap();
    assert!(!report.interrupted);
    assert!(report.feasible);
    assert_eq!(report.scenarios_used, inst.options.validation_scenarios);

    // A fired cancellation token interrupts even the exempt pass.
    let token = spq_solver::CancellationToken::new();
    token.cancel();
    let mut opts = SpqOptions::for_tests();
    opts.deadline = Deadline::none().with_token(token);
    let inst = Instance::new(&rel, silp_with_constraint(Sense::Ge, 0.0, 0.9), opts).unwrap();
    let report = validate_with(
        &inst,
        &[1.0, 0.0, 0.0],
        &inst.options.certificate_validation(),
    )
    .unwrap();
    assert!(report.interrupted);
}

#[test]
fn early_stop_wire_spellings_round_trip() {
    for stop in [
        EarlyStop::Full,
        EarlyStop::Certain,
        EarlyStop::Hoeffding {
            delta: DEFAULT_HOEFFDING_DELTA,
        },
    ] {
        assert_eq!(EarlyStop::from_wire(stop.as_wire()), Some(stop));
    }
    assert_eq!(EarlyStop::from_wire("CERTAIN"), Some(EarlyStop::Certain));
    assert_eq!(EarlyStop::from_wire("nope"), None);
    assert!(!EarlyStop::Full.enabled());
    assert!(EarlyStop::Certain.enabled());
}
