//! Package results: the answer to a stochastic package query.

use crate::silp::Direction;
use crate::validation::ValidationReport;
use serde::{Deserialize, Serialize};
use spq_mcdb::Relation;
use std::fmt;
use std::time::Duration;

/// A package: tuple multiplicities over the input relation together with the
/// validation metadata that certifies (or refutes) its feasibility.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Package {
    /// `(relation tuple index, multiplicity)` pairs for tuples with positive
    /// multiplicity, sorted by tuple index.
    pub multiplicities: Vec<(usize, u32)>,
    /// Estimated objective value (expectation or probability, per the query).
    pub objective_estimate: f64,
    /// The out-of-sample validation report.
    pub validation: ValidationReport,
}

impl Package {
    /// Build a package from a dense multiplicity vector over candidate
    /// positions and the mapping back to relation tuple indices.
    pub fn from_dense(x: &[f64], tuples: &[usize], validation: ValidationReport) -> Package {
        let mut multiplicities: Vec<(usize, u32)> = x
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.5)
            .map(|(pos, &v)| (tuples[pos], v.round() as u32))
            .collect();
        multiplicities.sort_unstable();
        Package {
            multiplicities,
            objective_estimate: validation.objective_estimate,
            validation,
        }
    }

    /// Total number of tuples in the package, counting multiplicity.
    pub fn size(&self) -> u32 {
        self.multiplicities.iter().map(|(_, m)| m).sum()
    }

    /// Number of distinct tuples in the package.
    pub fn num_distinct(&self) -> usize {
        self.multiplicities.len()
    }

    /// True when the package is validation-feasible.
    pub fn is_feasible(&self) -> bool {
        self.validation.feasible
    }

    /// Render the package as a small table using the given relation for
    /// deterministic attribute values (similar to Figure 1's output).
    pub fn describe(&self, relation: &Relation) -> String {
        let mut out = String::new();
        let det_cols = relation.schema().deterministic_columns();
        out.push_str(&format!(
            "Package ({} tuples, {} distinct, objective ~ {:.4}, {}):\n",
            self.size(),
            self.num_distinct(),
            self.objective_estimate,
            if self.is_feasible() {
                "validation-feasible"
            } else {
                "NOT validation-feasible"
            }
        ));
        for (tuple, mult) in &self.multiplicities {
            let values: Vec<String> = det_cols
                .iter()
                .map(|c| {
                    relation
                        .value(c, *tuple)
                        .map(|v| format!("{c}={v}"))
                        .unwrap_or_default()
                })
                .collect();
            out.push_str(&format!(
                "  x{mult}  tuple {tuple}: {}\n",
                values.join(", ")
            ));
        }
        out
    }
}

impl fmt::Display for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "package of {} tuples ({} distinct), objective ~ {:.4}",
            self.size(),
            self.num_distinct(),
            self.objective_estimate
        )
    }
}

/// Statistics describing one end-to-end query evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvaluationStats {
    /// Wall-clock time of the whole evaluation.
    pub wall_time: Duration,
    /// Final number of optimization scenarios `M`.
    pub scenarios_used: usize,
    /// Final number of summaries `Z` (0 for Naïve).
    pub summaries_used: usize,
    /// Number of outer optimize/validate iterations.
    pub outer_iterations: usize,
    /// Number of DILPs solved (including CSA-Solve inner iterations).
    pub problems_solved: usize,
    /// Validation work, counted per algorithm: Naïve counts validation
    /// passes (a search pass plus any certificate pass); SummarySearch
    /// counts CSA-Solve iterations — including iterations that end on a
    /// failed solve or a detected cycle without any pass, and excluding
    /// certificate passes; SketchRefine adds its sketch's and refine steps'
    /// counts plus one for its final certificate.
    pub validations: usize,
    /// Total out-of-sample scenarios evaluated across those passes (adaptive
    /// early stopping makes this visibly smaller than
    /// `validations × M̂`).
    pub validation_scenarios: usize,
    /// Total branch-and-bound nodes across all solves.
    pub solver_nodes: usize,
    /// Total simplex pivots across every LP relaxation of every solve —
    /// the machine-independent work measure that makes warm-start savings
    /// visible even when wall clock is noisy.
    pub lp_pivots: usize,
    /// Number of coefficients of the largest DILP formulated (the paper's
    /// problem-size measure).
    pub max_problem_coefficients: usize,
}

impl EvaluationStats {
    /// Add a sub-evaluation's work counters (solves, validations, nodes,
    /// pivots) into `self` and keep the larger problem size. The final `M`
    /// and `Z`, the outer iterations and the wall time are left to the
    /// caller.
    pub fn absorb(&mut self, from: &EvaluationStats) {
        self.problems_solved += from.problems_solved;
        self.validations += from.validations;
        self.validation_scenarios += from.validation_scenarios;
        self.solver_nodes += from.solver_nodes;
        self.lp_pivots += from.lp_pivots;
        self.max_problem_coefficients = self
            .max_problem_coefficients
            .max(from.max_problem_coefficients);
    }
}

/// The keep-best rule of the Naïve and SummarySearch outer loops: a
/// feasible candidate displaces an infeasible incumbent, and between equally
/// feasible packages the strictly better objective estimate wins.
pub(crate) fn keep_best(best: &mut Option<Package>, candidate: Package, direction: Direction) {
    let replace = match best {
        None => true,
        Some(b) => {
            (candidate.is_feasible() && !b.is_feasible())
                || (candidate.is_feasible() == b.is_feasible()
                    && direction.better(candidate.objective_estimate, b.objective_estimate))
        }
    };
    if replace {
        *best = Some(candidate);
    }
}

/// The outcome of evaluating a stochastic package query with one algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluationResult {
    /// The best package found (feasible when `feasible` is true; possibly an
    /// infeasible best-effort package otherwise).
    pub package: Option<Package>,
    /// Whether a validation-feasible package was found.
    pub feasible: bool,
    /// Evaluation statistics.
    pub stats: EvaluationStats,
    /// The simplex basis of the last LP solved on the way to this result.
    /// Feed it into [`spq_solver::SolverOptions::warm_start`] to warm-start
    /// a related evaluation (e.g. a SketchRefine refine step warm-starting
    /// from the sketch solve); the solver ignores it when the shapes do not
    /// match, so it is always safe to pass along.
    pub final_basis: Option<spq_solver::Basis>,
}

impl EvaluationResult {
    /// Convenience accessor for the objective estimate of the returned
    /// package, if any.
    pub fn objective(&self) -> Option<f64> {
        self.package.as_ref().map(|p| p.objective_estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::ConstraintValidation;
    use spq_mcdb::vg::Degenerate;
    use spq_mcdb::RelationBuilder;

    fn report(feasible: bool) -> ValidationReport {
        ValidationReport {
            feasible,
            constraints: vec![ConstraintValidation {
                constraint_index: 0,
                probability: 0.9,
                satisfied_fraction: if feasible { 0.97 } else { 0.6 },
                surplus: if feasible { 0.07 } else { -0.3 },
                feasible,
                scenarios_evaluated: 1000,
            }],
            objective_estimate: 12.5,
            scenarios_used: 1000,
            m_hat: 1000,
            early_stopped: false,
            interrupted: false,
        }
    }

    #[test]
    fn from_dense_maps_back_to_relation_indices() {
        let x = vec![2.0, 0.0, 1.0];
        let tuples = vec![10, 20, 30];
        let p = Package::from_dense(&x, &tuples, report(true));
        assert_eq!(p.multiplicities, vec![(10, 2), (30, 1)]);
        assert_eq!(p.size(), 3);
        assert_eq!(p.num_distinct(), 2);
        assert!(p.is_feasible());
        assert_eq!(p.objective_estimate, 12.5);
        assert!(p.to_string().contains("3 tuples"));
    }

    #[test]
    fn describe_mentions_deterministic_attributes() {
        let rel = RelationBuilder::new("t")
            .deterministic_text("stock", vec!["AAPL", "MSFT"])
            .deterministic_f64("price", vec![234.0, 140.0])
            .stochastic("gain", Degenerate::new(vec![0.0, 0.0]))
            .build()
            .unwrap();
        let p = Package::from_dense(&[0.0, 2.0], &[0, 1], report(true));
        let text = p.describe(&rel);
        assert!(text.contains("MSFT"));
        assert!(text.contains("x2"));
        assert!(text.contains("validation-feasible"));
        let p2 = Package::from_dense(&[1.0, 0.0], &[0, 1], report(false));
        assert!(p2.describe(&rel).contains("NOT validation-feasible"));
    }

    #[test]
    fn evaluation_result_accessors() {
        let r = EvaluationResult {
            package: Some(Package::from_dense(&[1.0], &[0], report(true))),
            feasible: true,
            stats: EvaluationStats::default(),
            final_basis: None,
        };
        assert_eq!(r.objective(), Some(12.5));
        let empty = EvaluationResult {
            package: None,
            feasible: false,
            stats: EvaluationStats::default(),
            final_basis: None,
        };
        assert_eq!(empty.objective(), None);
    }

    #[test]
    fn fractional_values_below_half_are_dropped() {
        let p = Package::from_dense(&[0.4, 0.6, 1.49], &[0, 1, 2], report(true));
        assert_eq!(p.multiplicities, vec![(1, 1), (2, 1)]);
    }
}
