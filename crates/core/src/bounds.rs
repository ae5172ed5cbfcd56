//! Approximation-guarantee bounds (Section 5.4 and Appendix B).
//!
//! SummarySearch certifies that a feasible solution `x⁽q⁾` with objective
//! value `ω⁽q⁾` is `(1 + ε)`-approximate relative to the validation-optimal
//! objective `ω̂` by computing bounds `ω̲ ≤ ω̂ ≤ ω̄` and the quantity `ε⁽q⁾`
//! of Propositions 2–5. Two families of bounds are implemented:
//!
//! * **constraint-agnostic** bounds (Table 1), derived from bounds on the
//!   realized scenario values (`s̲ ≤ ŝ_ij ≤ s̄`, assumption A1) and on the
//!   package size (`l̲ ≤ Σ x̂_i ≤ l̄`, assumption A2);
//! * **constraint-specific** bounds (Table 2 / Appendix B), available when a
//!   probabilistic constraint *supports* or *counteracts* the objective
//!   (Definition 2), e.g. `ω̂ ≥ p·v` for a minimization objective
//!   counteracted by `Pr(Σ ξ x ≥ v) ≥ p` with `v ≥ 0`.
//!
//! The certificate is **demand-driven**: [`certificate`] is the one place
//! the bounds and `ε⁽q⁾` are combined, and it is called only where ε is
//! read — the search loops' termination test when the user's ε is finite
//! ([`within_epsilon`]), and callers that report ε. Its Table 1 input (the
//! realized-value bounds `s̲, s̄`: 64 validation scenarios × every candidate
//! tuple) is realized by the first call on an instance that needs it and
//! memoized there; probability and deterministic-coefficient objectives
//! never realize a cell for it.

use crate::instance::Instance;
use crate::silp::{CoeffSource, ConstraintKind, Direction, SilpConstraint, SilpObjective};
use crate::Result;
use spq_solver::Sense;

/// How a probabilistic constraint interacts with the objective
/// (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interaction {
    /// The constraint pushes in the same direction as the optimization.
    Supporting,
    /// The constraint pushes against the optimization.
    Counteracting,
    /// The constraint involves different random variables (or the objective
    /// is not an expectation of the same inner function).
    Independent,
}

/// Classify the interaction between the objective and one probabilistic
/// constraint.
pub fn classify(objective: &SilpObjective, constraint: &SilpConstraint) -> Interaction {
    if !constraint.kind.is_probabilistic() {
        return Interaction::Independent;
    }
    let (direction, obj_column) = match objective {
        SilpObjective::Linear {
            direction, coeff, ..
        } => (*direction, coeff.column()),
        SilpObjective::Probability { .. } => return Interaction::Independent,
    };
    let constraint_column = constraint.coeff.column();
    if obj_column.is_none() || obj_column != constraint_column {
        return Interaction::Independent;
    }
    // For minimization, a `<=` inner constraint supports the objective and a
    // `>=` inner constraint counteracts it; for maximization the roles swap.
    match (direction, constraint.sense) {
        (Direction::Minimize, Sense::Le) | (Direction::Maximize, Sense::Ge) => {
            Interaction::Supporting
        }
        (Direction::Minimize, Sense::Ge) | (Direction::Maximize, Sense::Le) => {
            Interaction::Counteracting
        }
        (_, Sense::Eq) => Interaction::Independent,
    }
}

/// Bounds `ω̲ ≤ ω̂ ≤ ω̄` on the validation-optimal objective value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmegaBounds {
    /// Lower bound on `ω̂` (may be `-∞`).
    pub lower: f64,
    /// Upper bound on `ω̂` (may be `+∞`).
    pub upper: f64,
}

impl OmegaBounds {
    /// Unbounded on both sides.
    pub fn unbounded() -> Self {
        OmegaBounds {
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
        }
    }
}

/// Compute bounds on the validation-optimal objective value `ω̂`. Fails
/// only when the realized-value bounds of a stochastic objective column
/// cannot be sampled.
pub fn omega_bounds(instance: &Instance<'_>) -> Result<OmegaBounds> {
    let silp = &instance.silp;

    // Probability objectives are fractions: trivially bounded by [0, 1].
    if silp.objective.is_probability() {
        return Ok(OmegaBounds {
            lower: 0.0,
            upper: 1.0,
        });
    }

    let (l_lo, l_hi) = instance.package_size_bounds();
    let mut bounds = OmegaBounds::unbounded();

    // --- Constraint-agnostic bounds (Table 1). -----------------------------
    let value_bounds = match &silp.objective {
        SilpObjective::Linear { coeff, .. } => match coeff {
            CoeffSource::Stochastic(_) => instance.objective_value_bounds()?,
            other => {
                // Deterministic coefficients: bound by their min/max.
                instance.coefficients(other).ok().and_then(|c| {
                    let lo = c.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    if lo.is_finite() && hi.is_finite() {
                        Some((lo, hi))
                    } else {
                        None
                    }
                })
            }
        },
        SilpObjective::Probability { .. } => None,
    };
    if let Some((s_lo, s_hi)) = value_bounds {
        if l_hi.is_finite() {
            let lower = if s_lo >= 0.0 {
                s_lo * l_lo
            } else {
                s_lo * l_hi
            };
            let upper = if s_hi >= 0.0 {
                s_hi * l_hi
            } else {
                s_hi * l_lo
            };
            bounds.lower = bounds.lower.max(lower);
            bounds.upper = bounds.upper.min(upper);
        } else if s_lo >= 0.0 {
            bounds.lower = bounds.lower.max(s_lo * l_lo);
        }
    }

    // --- Constraint-specific bounds (Table 2 / Appendix B). ----------------
    for c in &silp.constraints {
        if !matches!(c.kind, ConstraintKind::Probabilistic { .. }) {
            continue;
        }
        let p = c.probability().unwrap_or(0.0);
        match classify(&silp.objective, c) {
            Interaction::Counteracting => {
                // For minimization with Pr(Σ ξ x ≥ v) ≥ p and v ≥ 0:
                // ω̂ ≥ p·v (Section 5.4). The symmetric bound applies to
                // maximization with Pr(Σ ξ x ≤ v) ≥ p and v ≤ 0: ω̂ ≤ p·v.
                match silp.objective.direction() {
                    Direction::Minimize if c.sense == Sense::Ge && c.rhs >= 0.0 => {
                        bounds.lower = bounds.lower.max(p * c.rhs);
                    }
                    Direction::Maximize if c.sense == Sense::Le && c.rhs <= 0.0 => {
                        bounds.upper = bounds.upper.min(p * c.rhs);
                    }
                    _ => {}
                }
            }
            Interaction::Supporting => {
                // For minimization with a supporting constraint
                // Pr(Σ ξ x ≤ v) ≥ p, v ≥ 0, values bounded above by s̄ ≥ 0
                // and package size by l̄: ω̂ ≤ v + (1 - p)·s̄·l̄ (Appendix B).
                // Symmetrically for maximization with Pr(Σ ξ x ≥ v) ≥ p,
                // v ≤ 0 and values bounded below by s̲ ≤ 0:
                // ω̂ ≥ v + (1 - p)·s̲·l̄.
                if let Some((s_lo, s_hi)) = instance.objective_value_bounds()? {
                    if l_hi.is_finite() {
                        match silp.objective.direction() {
                            Direction::Minimize
                                if c.sense == Sense::Le && c.rhs >= 0.0 && s_hi >= 0.0 =>
                            {
                                bounds.upper = bounds.upper.min(c.rhs + (1.0 - p) * s_hi * l_hi);
                            }
                            Direction::Maximize
                                if c.sense == Sense::Ge && c.rhs <= 0.0 && s_lo <= 0.0 =>
                            {
                                bounds.lower = bounds.lower.max(c.rhs + (1.0 - p) * s_lo * l_hi);
                            }
                            _ => {}
                        }
                    }
                }
            }
            Interaction::Independent => {}
        }
    }

    Ok(bounds)
}

/// The certificate `ε⁽q⁾` of Section 5.4 for a solution of `instance` whose
/// validated objective estimate is `objective_estimate`: `+∞` when no bound
/// applies.
pub fn certificate(instance: &Instance<'_>, objective_estimate: f64) -> Result<f64> {
    Ok(epsilon_upper_bound(
        instance.silp.objective.direction(),
        objective_estimate,
        &omega_bounds(instance)?,
    ))
}

/// The ε half of the paper's termination test: is a solution with this
/// objective estimate `(1 + ε)`-approximate for the user's
/// [`crate::SpqOptions::epsilon`]? A non-finite ε (the default) accepts
/// every solution without computing the certificate.
pub fn within_epsilon(instance: &Instance<'_>, objective_estimate: f64) -> Result<bool> {
    let epsilon = instance.options.epsilon;
    Ok(!epsilon.is_finite() || certificate(instance, objective_estimate)? <= epsilon)
}

/// Compute the certificate quantity `ε⁽q⁾` of Propositions 2–5 for a solution
/// with objective value `omega_q`. Returns `+∞` when no applicable bound is
/// available (the certificate then cannot be issued).
pub fn epsilon_upper_bound(direction: Direction, omega_q: f64, bounds: &OmegaBounds) -> f64 {
    match direction {
        Direction::Minimize => {
            if bounds.lower.is_finite() && bounds.lower > 0.0 && omega_q >= 0.0 {
                // Proposition 2: ε⁽q⁾ = ω⁽q⁾ / ω̲ − 1.
                omega_q / bounds.lower - 1.0
            } else if bounds.lower.is_finite() && bounds.lower < 0.0 && omega_q < 0.0 {
                // Proposition 3: ε⁽q⁾ = ω̲ / ω⁽q⁾ − 1.
                bounds.lower / omega_q - 1.0
            } else {
                f64::INFINITY
            }
        }
        Direction::Maximize => {
            if bounds.upper.is_finite() && bounds.upper > 0.0 && omega_q > 0.0 {
                // Proposition 4: ε⁽q⁾ = ω̄ / ω⁽q⁾ − 1.
                bounds.upper / omega_q - 1.0
            } else if bounds.upper.is_finite() && bounds.upper < 0.0 && omega_q <= 0.0 {
                // Proposition 5: ε⁽q⁾ = ω⁽q⁾ / ω̄ − 1.
                omega_q / bounds.upper - 1.0
            } else {
                f64::INFINITY
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SpqOptions;
    use crate::silp::Silp;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;

    fn constraint(sense: Sense, rhs: f64, p: f64, column: &str) -> SilpConstraint {
        SilpConstraint {
            name: "c".into(),
            coeff: CoeffSource::Stochastic(column.into()),
            sense,
            rhs,
            kind: ConstraintKind::Probabilistic { probability: p },
        }
    }

    fn objective(direction: Direction, column: &str) -> SilpObjective {
        SilpObjective::Linear {
            direction,
            coeff: CoeffSource::Stochastic(column.into()),
            expectation: true,
        }
    }

    #[test]
    fn classification_follows_definition_2() {
        // Minimization supported by <= and counteracted by >=.
        let obj = objective(Direction::Minimize, "flux");
        assert_eq!(
            classify(&obj, &constraint(Sense::Le, 40.0, 0.9, "flux")),
            Interaction::Supporting
        );
        assert_eq!(
            classify(&obj, &constraint(Sense::Ge, 40.0, 0.9, "flux")),
            Interaction::Counteracting
        );
        // Different attribute => independent.
        assert_eq!(
            classify(&obj, &constraint(Sense::Ge, 40.0, 0.9, "other")),
            Interaction::Independent
        );
        // Maximization flips the roles.
        let obj = objective(Direction::Maximize, "gain");
        assert_eq!(
            classify(&obj, &constraint(Sense::Ge, -10.0, 0.95, "gain")),
            Interaction::Supporting
        );
        assert_eq!(
            classify(&obj, &constraint(Sense::Le, -10.0, 0.95, "gain")),
            Interaction::Counteracting
        );
        // Probability objectives are treated as independent.
        let pobj = SilpObjective::Probability {
            direction: Direction::Maximize,
            attribute: "gain".into(),
            sense: Sense::Ge,
            threshold: 0.0,
        };
        assert_eq!(
            classify(&pobj, &constraint(Sense::Ge, 0.0, 0.9, "gain")),
            Interaction::Independent
        );
    }

    #[test]
    fn counteracting_constraint_gives_pv_lower_bound() {
        // Galaxy-style query: minimize expected flux subject to
        // Pr(SUM(flux) >= 40) >= 0.9 -> ω̂ >= 36.
        let rel = RelationBuilder::new("g")
            .stochastic(
                "flux",
                NormalNoise::around(vec![10.0, 12.0, 9.0, 11.0], 2.0),
            )
            .build()
            .unwrap();
        let silp = Silp {
            relation: "g".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "count".into(),
                    coeff: CoeffSource::Constant(1.0),
                    sense: Sense::Le,
                    rhs: 10.0,
                    kind: ConstraintKind::Deterministic,
                },
                constraint(Sense::Ge, 40.0, 0.9, "flux"),
            ],
            objective: objective(Direction::Minimize, "flux"),
        };
        let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
        let b = omega_bounds(&inst).unwrap();
        assert!(b.lower >= 36.0 - 1e-9, "lower bound {}", b.lower);
        assert!(b.upper.is_finite());
        // ε for a solution with value 45 is at most 45/36 - 1 = 0.25.
        let eps = epsilon_upper_bound(Direction::Minimize, 45.0, &b);
        assert!(eps <= 0.25 + 1e-9);
        assert!(eps >= 0.0);
        // ε at the upper bound is non-negative too.
        assert!(epsilon_upper_bound(Direction::Minimize, b.upper, &b) >= 0.0);
    }

    #[test]
    fn probability_objective_bounds_are_unit_interval() {
        let rel = RelationBuilder::new("g")
            .stochastic("rev", NormalNoise::around(vec![1.0, 2.0], 1.0))
            .build()
            .unwrap();
        let silp = Silp {
            relation: "g".into(),
            tuples: vec![0, 1],
            repeat_bound: None,
            constraints: vec![],
            objective: SilpObjective::Probability {
                direction: Direction::Maximize,
                attribute: "rev".into(),
                sense: Sense::Ge,
                threshold: 1.0,
            },
        };
        let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
        let b = omega_bounds(&inst).unwrap();
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 1.0);
        // A solution achieving probability 0.8 has ε ≤ 1/0.8 - 1 = 0.25.
        let eps = epsilon_upper_bound(Direction::Maximize, 0.8, &b);
        assert!((eps - 0.25).abs() < 1e-9);
    }

    #[test]
    fn epsilon_formulas_per_proposition() {
        // Prop 2: minimization, positive values.
        let b = OmegaBounds {
            lower: 10.0,
            upper: 20.0,
        };
        assert!((epsilon_upper_bound(Direction::Minimize, 12.0, &b) - 0.2).abs() < 1e-12);
        assert!((epsilon_upper_bound(Direction::Minimize, b.upper, &b) - 1.0).abs() < 1e-12);
        // Prop 3: minimization, negative values.
        let b = OmegaBounds {
            lower: -20.0,
            upper: -5.0,
        };
        assert!((epsilon_upper_bound(Direction::Minimize, -16.0, &b) - 0.25).abs() < 1e-12);
        // Prop 4: maximization, positive values.
        let b = OmegaBounds {
            lower: 5.0,
            upper: 20.0,
        };
        assert!((epsilon_upper_bound(Direction::Maximize, 16.0, &b) - 0.25).abs() < 1e-12);
        assert!(epsilon_upper_bound(Direction::Maximize, b.lower, &b) > 0.0);
        // Prop 5: maximization, negative values.
        let b = OmegaBounds {
            lower: -20.0,
            upper: -4.0,
        };
        assert!((epsilon_upper_bound(Direction::Maximize, -5.0, &b) - 0.25).abs() < 1e-12);
        // No applicable bound -> infinity.
        let b = OmegaBounds::unbounded();
        assert!(epsilon_upper_bound(Direction::Minimize, 1.0, &b).is_infinite());
        assert!(epsilon_upper_bound(Direction::Maximize, 1.0, &b).is_infinite());
    }

    /// A four-tuple instance with a linear objective over the stochastic
    /// column `v` (`N(means, 1)`), a `COUNT(*)` window `[count_lo, count_hi]`
    /// and, optionally, `Pr(SUM(v) ≥ floor) ≥ 0.9`.
    fn linear_instance<'a>(
        rel: &'a spq_mcdb::Relation,
        direction: Direction,
        (count_lo, count_hi): (f64, f64),
        floor: Option<f64>,
        options: SpqOptions,
    ) -> Instance<'a> {
        let count = |sense, rhs| SilpConstraint {
            name: "count".into(),
            coeff: CoeffSource::Constant(1.0),
            sense,
            rhs,
            kind: ConstraintKind::Deterministic,
        };
        let mut constraints = vec![count(Sense::Ge, count_lo), count(Sense::Le, count_hi)];
        constraints.extend(floor.map(|v| constraint(Sense::Ge, v, 0.9, "v")));
        let silp = Silp {
            relation: "r".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints,
            objective: objective(direction, "v"),
        };
        Instance::new(rel, silp, options).unwrap()
    }

    fn noisy(means: [f64; 4]) -> spq_mcdb::Relation {
        RelationBuilder::new("r")
            .stochastic("v", NormalNoise::around(means.to_vec(), 1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn certificate_combines_the_bounds_and_the_proposition_that_applies() {
        let positive = noisy([10.0, 12.0, 9.0, 11.0]);
        let negative = noisy([-10.0, -12.0, -9.0, -11.0]);
        let opts = SpqOptions::for_tests;
        // (instance, objective estimate, the proposition's formula over the
        // instance's bounds).
        type Formula = fn(f64, &OmegaBounds) -> f64;
        let cases: [(Instance<'_>, f64, Formula); 5] = [
            // Proposition 2: minimization, ω̲ = p·v = 36 > 0.
            (
                linear_instance(
                    &positive,
                    Direction::Minimize,
                    (0.0, 10.0),
                    Some(40.0),
                    opts(),
                ),
                45.0,
                |omega, b| omega / b.lower - 1.0,
            ),
            // Proposition 3: minimization, ω̲ = s̲·l̄ < 0.
            (
                linear_instance(&negative, Direction::Minimize, (0.0, 5.0), None, opts()),
                -30.0,
                |omega, b| b.lower / omega - 1.0,
            ),
            // Proposition 4: maximization, ω̄ = s̄·l̄ > 0.
            (
                linear_instance(&positive, Direction::Maximize, (0.0, 5.0), None, opts()),
                20.0,
                |omega, b| b.upper / omega - 1.0,
            ),
            // Proposition 5: maximization, ω̄ = s̄·l̲ < 0.
            (
                linear_instance(&negative, Direction::Maximize, (2.0, 5.0), None, opts()),
                -25.0,
                |omega, b| omega / b.upper - 1.0,
            ),
            // No bound applies: minimizing positive values with l̲ = 0 gives
            // ω̲ = 0, which certifies nothing.
            (
                linear_instance(&positive, Direction::Minimize, (0.0, 5.0), None, opts()),
                20.0,
                |_, _| f64::INFINITY,
            ),
        ];
        for (i, (inst, estimate, formula)) in cases.iter().enumerate() {
            let bounds = omega_bounds(inst).unwrap();
            let eps = certificate(inst, *estimate).unwrap();
            let direction = inst.silp.objective.direction();
            assert_eq!(
                eps,
                epsilon_upper_bound(direction, *estimate, &bounds),
                "case {i}"
            );
            assert_eq!(eps, formula(*estimate, &bounds), "case {i}: {bounds:?}");
            assert_eq!(eps.is_finite(), i < 4, "case {i}: {bounds:?}");
            assert!(eps >= 0.0, "case {i}: {eps}");
        }
    }

    #[test]
    fn the_first_certificate_realizes_the_value_bounds_and_later_ones_are_memo_hits() {
        let rel = noisy([10.0, 12.0, 9.0, 11.0]);
        let cache = std::sync::Arc::new(spq_mcdb::ScenarioCache::new());
        let opts = SpqOptions {
            scenario_cache: Some(cache.clone()),
            ..SpqOptions::for_tests()
        };
        let inst = linear_instance(&rel, Direction::Maximize, (0.0, 5.0), None, opts.clone());
        // Preparation realized nothing.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let first = certificate(&inst, 20.0).unwrap();
        assert!(first.is_finite());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // The second call does not even consult the scenario cache.
        assert_eq!(certificate(&inst, 20.0).unwrap(), first);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // within_epsilon reads ε only when the user's bound is finite.
        let lax = linear_instance(&rel, Direction::Maximize, (0.0, 5.0), None, opts.clone());
        assert!(within_epsilon(&lax, 20.0).unwrap());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let mut strict_opts = opts;
        strict_opts.epsilon = first / 2.0;
        let strict = linear_instance(&rel, Direction::Maximize, (0.0, 5.0), None, strict_opts);
        assert!(!within_epsilon(&strict, 20.0).unwrap());
        // A second instance over the same tuples shares the realized block.
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_failed_value_bounds_realization_is_the_certificates_typed_error() {
        let rel = noisy([10.0, 12.0, 9.0, 11.0]);
        let mut inst = linear_instance(
            &rel,
            Direction::Maximize,
            (0.0, 5.0),
            None,
            SpqOptions::for_tests(),
        );
        // Realization itself cannot fail on a column preparation accepted,
        // so break the instance after the fact: point the objective at a
        // column the relation does not have.
        let intact = std::mem::replace(
            &mut inst.silp.objective,
            objective(Direction::Maximize, "gone"),
        );
        let err = certificate(&inst, 20.0).unwrap_err();
        assert!(
            matches!(&err, crate::SpqError::Mcdb(spq_mcdb::McdbError::UnknownColumn(c)) if c == "gone"),
            "unexpected error: {err:?}"
        );
        assert!(within_epsilon(&inst, 20.0).unwrap(), "ε = ∞ never reads it");
        // The failure was not memoized.
        inst.silp.objective = intact;
        assert!(certificate(&inst, 20.0).unwrap().is_finite());
    }

    #[test]
    fn table1_bounds_respect_value_signs() {
        // Maximization of gains that can be negative: the supporting
        // constraint bound and Table 1 both apply.
        let rel = RelationBuilder::new("p")
            .stochastic("gain", NormalNoise::around(vec![0.5, 1.0, -0.5], 1.0))
            .build()
            .unwrap();
        let silp = Silp {
            relation: "p".into(),
            tuples: vec![0, 1, 2],
            repeat_bound: None,
            constraints: vec![
                SilpConstraint {
                    name: "count".into(),
                    coeff: CoeffSource::Constant(1.0),
                    sense: Sense::Le,
                    rhs: 5.0,
                    kind: ConstraintKind::Deterministic,
                },
                constraint(Sense::Ge, -10.0, 0.95, "gain"),
            ],
            objective: objective(Direction::Maximize, "gain"),
        };
        let inst = Instance::new(&rel, silp, SpqOptions::for_tests()).unwrap();
        let b = omega_bounds(&inst).unwrap();
        assert!(b.upper.is_finite());
        assert!(b.lower <= b.upper);
        // The supporting constraint (>= -10, v < 0) provides a finite lower
        // bound as well.
        assert!(b.lower.is_finite());
    }
}
