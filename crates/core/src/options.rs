//! Evaluation options shared by the Naïve and SummarySearch algorithms.

use crate::validation::{EarlyStop, ValidationOptions};
use spq_mcdb::ScenarioCache;
use spq_solver::{Deadline, SolverOptions};
use std::sync::Arc;

/// Tunables of the SketchRefine algorithm (implemented by the `spq-sketch`
/// crate and dispatched through [`crate::Algorithm::SketchRefine`]).
///
/// SketchRefine groups tuples with similar attribute distributions into
/// partitions, solves a *sketch* query over one representative per partition,
/// and then *refines* the chosen partitions one at a time. These knobs
/// control the partitioning granularity and the refine scenario budget.
#[derive(Debug, Clone)]
pub struct SketchOptions {
    /// Maximum number of tuples per partition. `0` picks `⌈√N⌉`
    /// automatically (clamped to `[8, 4096]`), which balances the sketch
    /// size (`N / size` representatives) against the refine size.
    pub max_partition_size: usize,
    /// Partition diameter budget, as a fraction of each normalized feature
    /// dimension's range: a partition never spans more than this fraction in
    /// any feature (per-tuple expectation, standard deviation, or
    /// deterministic attribute). Smaller values yield tighter, more numerous
    /// partitions.
    pub diameter_fraction: f64,
    /// Relations with at most this many candidate tuples are solved directly
    /// with SummarySearch — partitioning overhead isn't worth it below this
    /// size (a single partition would reproduce the full problem anyway).
    pub direct_solve_threshold: usize,
    /// Cap on the optimization-scenario budget of each refine sub-solve,
    /// applied on top of [`SpqOptions::max_scenarios`].
    pub refine_max_scenarios: usize,
}

impl Default for SketchOptions {
    fn default() -> Self {
        SketchOptions {
            max_partition_size: 0,
            diameter_fraction: 0.2,
            direct_solve_threshold: 64,
            refine_max_scenarios: 200,
        }
    }
}

impl SketchOptions {
    /// The effective partition-size cap for `n` candidate tuples.
    pub fn effective_partition_size(&self, n: usize) -> usize {
        if self.max_partition_size > 0 {
            self.max_partition_size.max(1)
        } else {
            ((n as f64).sqrt().ceil() as usize).clamp(8, 4096)
        }
    }
}

/// Tunable parameters of SPQ evaluation.
///
/// The defaults follow the paper's experimental setup (Section 6.1) scaled to
/// the from-scratch solver substrate: `M = 100` initial optimization
/// scenarios incremented by `m = 100`, one summary (`Z = 1`) incremented by
/// one, and out-of-sample validation over `validation_scenarios` scenarios.
#[derive(Debug, Clone)]
pub struct SpqOptions {
    /// Base random seed; optimization and validation streams are derived from
    /// it but never overlap.
    pub seed: u64,
    /// Initial number of optimization scenarios (the paper's `M`).
    pub initial_scenarios: usize,
    /// Scenario increment per outer iteration (the paper's `m`).
    pub scenario_increment: usize,
    /// Give up once `M` exceeds this value without a feasible solution
    /// (mirrors the paper's behaviour of declaring infeasibility at
    /// `M = 1000` for TPC-H Q8).
    pub max_scenarios: usize,
    /// Number of out-of-sample validation scenarios (the paper's `M̂`,
    /// 10⁶–10⁷ in the paper; smaller by default here for test speed).
    pub validation_scenarios: usize,
    /// Number of validation-stream scenarios averaged to estimate
    /// expectations `E(t_i.A)` when no closed form exists.
    pub expectation_scenarios: usize,
    /// Scenarios per realized block in the out-of-sample validator (the
    /// streaming granularity of [`crate::validation`]).
    pub validation_block: usize,
    /// Initial number of summaries (the paper's `Z`).
    pub initial_summaries: usize,
    /// User-specified approximation error bound `ε`. `f64::INFINITY` accepts
    /// any feasible solution (feasibility-only termination).
    pub epsilon: f64,
    /// Options handed to the MILP solver for each (reduced) DILP.
    pub solver: SolverOptions,
    /// The caller's absolute deadline and/or cooperative cancellation, the
    /// only clock an evaluation reads. [`crate::Instance::new`] hands it to
    /// the solver unchanged, so every evaluation loop **and** the solver's
    /// pivot loops poll the same instant: an expiring deadline interrupts a
    /// running LP rather than waiting for it to finish. Defaults to
    /// unlimited; services arm it per request from `timeout_ms` and a
    /// cancellation token, the paper driver from `--time-limit`.
    pub deadline: Deadline,
    /// Shared cache of realized optimization-scenario blocks. When set,
    /// [`crate::Instance::optimization_matrix`] memoizes its matrices here,
    /// keyed by relation identity, column, seed and scenario count — so
    /// concurrent (or repeated) evaluations over the same relation never
    /// regenerate the same scenarios. `None` (the default) generates
    /// per-call, which is the right choice for one-shot evaluations.
    pub scenario_cache: Option<Arc<ScenarioCache>>,
    /// Upper bound on any tuple's multiplicity when neither `REPEAT` nor the
    /// constraints imply one (keeps big-M constants finite).
    pub fallback_multiplicity_bound: u32,
    /// Ceiling on the bytes of deterministic column data the relation may
    /// keep resident during this evaluation, analogous to
    /// `SolverOptions::max_solver_bytes`. For disk-backed relations the
    /// chunk-cache budget is clamped down to the cap at instance
    /// preparation; a fully in-memory relation whose columns already exceed
    /// the cap is rejected with a descriptive error (it cannot be made to
    /// fit — rebuild it with `StorageOptions::disk`). `None` (the default)
    /// leaves residency unbounded.
    pub max_relation_bytes: Option<u64>,
    /// SketchRefine-specific knobs (ignored by Naïve and SummarySearch).
    pub sketch: SketchOptions,
}

impl Default for SpqOptions {
    fn default() -> Self {
        SpqOptions {
            seed: 42,
            initial_scenarios: 100,
            scenario_increment: 100,
            max_scenarios: 1000,
            validation_scenarios: 10_000,
            expectation_scenarios: 1000,
            validation_block: crate::validation::DEFAULT_BLOCK_SCENARIOS,
            initial_summaries: 1,
            epsilon: f64::INFINITY,
            solver: SolverOptions::default(),
            deadline: Deadline::none(),
            scenario_cache: None,
            fallback_multiplicity_bound: 100,
            max_relation_bytes: None,
            sketch: SketchOptions::default(),
        }
    }
}

impl SpqOptions {
    /// A configuration suitable for unit tests: few scenarios, small budgets.
    pub fn for_tests() -> Self {
        SpqOptions {
            seed: 7,
            initial_scenarios: 20,
            scenario_increment: 20,
            max_scenarios: 100,
            validation_scenarios: 1000,
            expectation_scenarios: 300,
            ..Default::default()
        }
    }

    /// The [`ValidationOptions`] the search loops use for *intermediate*
    /// candidates (Naïve's optimize/validate loop, CSA-Solve's α
    /// iterations): the full `M̂` budget with Hoeffding early stop. A
    /// package accepted as the final answer is always confirmed against the
    /// full budget, so early stop only affects how fast intermediate
    /// candidates are rejected or accepted.
    pub fn search_validation(&self) -> ValidationOptions {
        ValidationOptions {
            m_hat: self.validation_scenarios,
            block_scenarios: self.validation_block,
            threads: 0,
            early_stop: EarlyStop::Hoeffding {
                delta: crate::validation::DEFAULT_HOEFFDING_DELTA,
            },
            honor_deadline: true,
        }
    }

    /// The [`ValidationOptions`] for a *final* (reported) package: full
    /// budget, no early stop.
    pub fn full_validation(&self) -> ValidationOptions {
        ValidationOptions {
            early_stop: EarlyStop::Full,
            ..self.search_validation()
        }
    }

    /// The [`ValidationOptions`] for the **final certificate** of a package
    /// reported after the optimization budget ran out: full budget, no
    /// early stop, and exempt from the (already expired) wall-clock
    /// deadline — a fired cancellation token still interrupts it. The paper
    /// validates the returned package regardless of the budget; one bounded
    /// pass beats reporting a conservatively-infeasible unvalidated answer.
    pub fn certificate_validation(&self) -> ValidationOptions {
        self.full_validation().with_honor_deadline(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let o = SpqOptions::default();
        assert_eq!(o.initial_scenarios, 100);
        assert_eq!(o.scenario_increment, 100);
        assert_eq!(o.initial_summaries, 1);
        assert_eq!(crate::summary_search::SUMMARY_INCREMENT, 1);
        assert!(o.epsilon.is_infinite());
    }

    #[test]
    fn validation_knobs_flow_into_validation_options() {
        let o = SpqOptions {
            validation_scenarios: 5000,
            ..SpqOptions::for_tests()
        };
        let search = o.search_validation();
        assert_eq!(search.m_hat, 5000);
        assert_eq!(search.block_scenarios, o.validation_block);
        assert!(search.early_stop.enabled(), "search validation is adaptive");
        let full = o.full_validation();
        assert_eq!(full.early_stop, EarlyStop::Full);
        assert_eq!(full.m_hat, 5000);
    }

    #[test]
    fn sketch_defaults_and_effective_partition_size() {
        let s = SketchOptions::default();
        assert_eq!(s.max_partition_size, 0);
        assert!(s.diameter_fraction > 0.0 && s.diameter_fraction <= 1.0);
        // Auto sizing: sqrt(N), clamped.
        assert_eq!(s.effective_partition_size(10_000), 100);
        assert_eq!(s.effective_partition_size(4), 8);
        assert_eq!(s.effective_partition_size(100_000_000), 4096);
        // Explicit sizing wins.
        let fixed = SketchOptions {
            max_partition_size: 13,
            ..Default::default()
        };
        assert_eq!(fixed.effective_partition_size(10_000), 13);
    }
}
