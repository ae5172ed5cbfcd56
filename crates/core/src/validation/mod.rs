//! Out-of-sample validation (Section 3.2): the blocked, parallel, one-pass
//! validation engine.
//!
//! A candidate package is *validation-feasible* when, for every probabilistic
//! constraint, it satisfies the inner constraint in at least `⌈p·M̂⌉` of `M̂`
//! out-of-sample scenarios. Validation is the step every CSA-Solve iteration
//! and every reported package goes through, and at the paper's scales
//! (`M̂ = 10⁶–10⁷`) it dominates evaluation cost — so this module treats it
//! as a first-class kernel:
//!
//! * **One pass.** Scenarios of each referenced stochastic column are
//!   realized exactly once per block, and *all* probabilistic constraints on
//!   that column (plus a probability objective, if the query has one) are
//!   scored against the same realized row. The pre-existing path re-realized
//!   the column once per constraint and allocated one `Vec` per scenario.
//! * **Blocked and parallel.** The `M̂` scenarios stream through
//!   fixed-size blocks ([`ValidationOptions::block_scenarios`]), and the
//!   block loop fans out across `std::thread` workers with the same
//!   contiguous-chunk policy as
//!   [`spq_mcdb::ScenarioGenerator::realize_sparse_matrix_range`]. Because
//!   every `(column, tuple, scenario)` cell seeds its own RNG, the counts —
//!   and therefore every reported fraction — are **bit-identical at any
//!   thread count and any block size**.
//! * **Cache-backed, per tuple.** When the evaluation carries a shared
//!   [`spq_mcdb::ScenarioCache`], realized validation rows are memoized per
//!   `(relation, column, tuple, scenario window)`: a tuple is drawn once for
//!   every package that contains it, so re-validating a package (the
//!   service's `validate` op, CSA-Solve confirming a summary solution) and
//!   validating the overlapping packages of a search (SketchRefine's frozen
//!   ∪ refined selections) touch the VG functions once per tuple.
//! * **Adaptive `M̂`.** With an [`EarlyStop`] policy, validation escalates
//!   through geometric stages (1 024, 2 048, 4 096, … scenarios up to `M̂`)
//!   and stops counting a constraint as soon as its verdict is settled —
//!   either *certainly* (the remaining scenarios cannot change the
//!   `⌈p·M̂⌉` comparison) or *statistically* (a Hoeffding bound puts the
//!   empirical fraction far from `p`). Stage boundaries depend only on the
//!   options, never on the thread count, so adaptive runs stay
//!   deterministic.
//! * **Interruptible.** The armed [`spq_solver::Deadline`] (wall-clock
//!   budget and/or cancellation token) is polled inside the block loop;
//!   an expiry mid-validation yields a report marked
//!   [`ValidationReport::interrupted`] instead of burning the rest of the
//!   budget.
//!
//! The final report a caller ships to a user is always anchored to the full
//! budget: the search loops (Naïve, CSA-Solve) validate intermediate
//! candidates adaptively and **confirm** an accepted package with a full-`M̂`
//! pass whenever its adaptive report stopped early.

mod engine;

use crate::error::SpqError;
use crate::instance::Instance;
use crate::package::EvaluationStats;
use crate::silp::{CoeffSource, SilpObjective};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Default scenarios per realized block.
pub const DEFAULT_BLOCK_SCENARIOS: usize = 2048;

/// Default two-sided confidence parameter of [`EarlyStop::Hoeffding`].
pub const DEFAULT_HOEFFDING_DELTA: f64 = 1e-9;

/// When (and how) validation may settle a constraint's verdict before
/// evaluating the full `M̂` budget.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum EarlyStop {
    /// Evaluate every scenario; no early decisions.
    #[default]
    Full,
    /// Stop a constraint only when its full-`M̂` verdict is already certain:
    /// `satisfied ≥ ⌈p·M̂⌉` (feasible — later scenarios cannot lower the
    /// count) or `satisfied + remaining < ⌈p·M̂⌉` (infeasible). Verdicts are
    /// exactly the full-budget verdicts.
    Certain,
    /// [`EarlyStop::Certain`] plus a statistical rule: after `n` scenarios
    /// with empirical fraction `f`, decide once `|f − p| ≥
    /// √(ln(2/δ) / 2n)` (Hoeffding). Decides far-from-`p` constraints after
    /// a few thousand scenarios regardless of `M̂`; each check is wrong with
    /// probability at most `δ`.
    Hoeffding {
        /// Per-check failure probability bound.
        delta: f64,
    },
}

impl EarlyStop {
    /// True when some early decision rule is active.
    pub fn enabled(&self) -> bool {
        !matches!(self, EarlyStop::Full)
    }

    /// Parse the wire spelling used by the service's `validate` op:
    /// `full`, `certain`, or `hoeffding` (with the default `δ`).
    pub fn from_wire(s: &str) -> Option<EarlyStop> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Some(EarlyStop::Full),
            "certain" => Some(EarlyStop::Certain),
            "hoeffding" => Some(EarlyStop::Hoeffding {
                delta: DEFAULT_HOEFFDING_DELTA,
            }),
            _ => None,
        }
    }

    /// The wire spelling.
    pub fn as_wire(&self) -> &'static str {
        match self {
            EarlyStop::Full => "full",
            EarlyStop::Certain => "certain",
            EarlyStop::Hoeffding { .. } => "hoeffding",
        }
    }
}

/// Tunables of one validation run.
#[derive(Debug, Clone)]
pub struct ValidationOptions {
    /// The out-of-sample budget `M̂`. Must be at least 1; a zero budget
    /// would make every constraint vacuously feasible and is rejected with
    /// an error.
    pub m_hat: usize,
    /// Scenarios per realized block (the streaming granularity).
    pub block_scenarios: usize,
    /// Worker threads for the block loop, resolved by [`spq_mcdb::workers`]
    /// over the blocks: `0` picks automatically (serial for small requests,
    /// the machine's parallelism otherwise). Results are bit-identical for
    /// every value.
    pub threads: usize,
    /// Early-stop policy for adaptive `M̂` escalation.
    pub early_stop: EarlyStop,
    /// Whether the block loop honors the wall-clock part of the armed
    /// deadline (default `true`). The search loops set this to `false` for
    /// the **final certificate** validation of a candidate after the
    /// optimization budget ran out: the paper validates the returned
    /// package regardless, and one bounded pass beats reporting an
    /// unvalidated (conservatively infeasible) answer. A fired
    /// cancellation token *always* interrupts, whatever this is set to.
    pub honor_deadline: bool,
}

impl ValidationOptions {
    /// Full-budget validation of `m_hat` scenarios with default block size
    /// and automatic threading.
    pub fn full(m_hat: usize) -> Self {
        ValidationOptions {
            m_hat,
            block_scenarios: DEFAULT_BLOCK_SCENARIOS,
            threads: 0,
            early_stop: EarlyStop::Full,
            honor_deadline: true,
        }
    }

    /// Set whether the wall-clock deadline interrupts the block loop
    /// (cancellation tokens always do), returning `self` for chaining.
    pub fn with_honor_deadline(mut self, honor: bool) -> Self {
        self.honor_deadline = honor;
        self
    }
}

/// The smallest satisfied-scenario count that meets `Pr ≥ p` over `n`
/// scenarios: the least integer `c` with `c/n ≥ p`.
///
/// Computed with a tolerance so that an exactly integral `p·n` is not pushed
/// up by floating-point noise (e.g. `0.7 × 10` evaluates to
/// `7.000000000000001`, whose plain `ceil` would demand 8 of 10 scenarios).
pub fn required_successes(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let target = p * n as f64;
    let required = (target - 1e-9).ceil().max(0.0) as usize;
    required.min(n)
}

/// Validation outcome for one probabilistic constraint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstraintValidation {
    /// Index of the constraint in `silp.constraints`.
    pub constraint_index: usize,
    /// Target probability `p`.
    pub probability: f64,
    /// Fraction of the evaluated validation scenarios whose inner constraint
    /// held.
    pub satisfied_fraction: f64,
    /// The paper's `p`-surplus `r = satisfied_fraction − p`.
    pub surplus: f64,
    /// Whether the constraint is validation-feasible (`Y ≥ ⌈p·M̂⌉`, or the
    /// early-stop verdict standing in for it).
    pub feasible: bool,
    /// How many validation scenarios this constraint was scored against
    /// (less than `M̂` when an early-stop rule settled it, or when the run
    /// was interrupted).
    pub scenarios_evaluated: usize,
}

/// The result of validating a candidate package.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// True when every probabilistic constraint is validation-feasible.
    pub feasible: bool,
    /// Per-probabilistic-constraint details.
    pub constraints: Vec<ConstraintValidation>,
    /// Estimated objective value of the package under validation data
    /// (expectations for linear objectives, satisfied fraction for
    /// probability objectives).
    pub objective_estimate: f64,
    /// Number of validation scenarios actually evaluated (the furthest any
    /// target was scored).
    pub scenarios_used: usize,
    /// The requested budget `M̂`.
    pub m_hat: usize,
    /// True when an early-stop rule settled at least one constraint before
    /// the full budget (i.e. `scenarios_used < m_hat`, or some constraint
    /// froze before the run's last stage).
    pub early_stopped: bool,
    /// True when the armed deadline expired (or the cancellation token
    /// fired) mid-run: verdicts and fractions then cover only the scenarios
    /// evaluated before the interruption.
    pub interrupted: bool,
}

impl ValidationReport {
    /// The worst (most negative) surplus across the probabilistic
    /// constraints; `0` when there are none.
    pub fn min_surplus(&self) -> f64 {
        if self.constraints.is_empty() {
            0.0
        } else {
            self.constraints
                .iter()
                .map(|c| c.surplus)
                .fold(f64::INFINITY, f64::min)
        }
    }
}

/// Validate a candidate package `x` (multiplicities over the candidate
/// tuples) against the **full** budget of `m_hat` out-of-sample scenarios.
///
/// Block size comes from the instance's [`crate::SpqOptions`] and the worker
/// count from the automatic policy; the verdict and every reported fraction
/// are bit-identical for any thread count. `m_hat == 0` is an error.
pub fn validate(instance: &Instance<'_>, x: &[f64], m_hat: usize) -> Result<ValidationReport> {
    let opts = ValidationOptions {
        m_hat,
        block_scenarios: instance.options.validation_block,
        threads: 0,
        early_stop: EarlyStop::Full,
        honor_deadline: true,
    };
    validate_with(instance, x, &opts)
}

/// Validate a candidate package with explicit [`ValidationOptions`]
/// (threading, blocking, adaptive early stop).
pub fn validate_with(
    instance: &Instance<'_>,
    x: &[f64],
    options: &ValidationOptions,
) -> Result<ValidationReport> {
    let _span = spq_obs::span("validate");
    if options.m_hat == 0 {
        return Err(SpqError::InvalidArgument(
            "out-of-sample validation needs at least one scenario (m_hat == 0 would make \
             every probabilistic constraint vacuously feasible)"
                .into(),
        ));
    }
    let scan = engine::scan(instance, x, options)?;

    // Objective estimate. A linear objective's terms are zero off the
    // package's support, so only the support is summed — in ascending
    // position order, the order the full-length dot product adds its
    // non-zero terms in (from +0.0, which is also what that product gives
    // an empty package).
    let objective_estimate = match &instance.silp.objective {
        SilpObjective::Linear { coeff, .. } => match coeff {
            CoeffSource::Constant(c) => x
                .iter()
                .filter(|&&v| v != 0.0)
                .fold(0.0, |sum, v| sum + c * v),
            per_tuple => instance
                .coefficients(per_tuple)?
                .iter()
                .zip(x)
                .filter(|(_, &v)| v != 0.0)
                .fold(0.0, |sum, (c, v)| sum + c * v),
        },
        SilpObjective::Probability { .. } => scan.objective_fraction.unwrap_or(0.0),
    };

    let feasible = scan.constraints.iter().all(|c| c.feasible);
    Ok(ValidationReport {
        feasible,
        constraints: scan.constraints,
        objective_estimate,
        scenarios_used: scan.scenarios_used,
        m_hat: options.m_hat,
        early_stopped: scan.early_stopped,
        interrupted: scan.interrupted,
    })
}

/// Validate a search candidate: one adaptive search pass, then one
/// deadline-exempt certificate pass if the search pass was interrupted and
/// the query was not cancelled (the candidate is the search's last, so it
/// gets its certificate now) or, else, if the pass stopped early and
/// `accept` takes the candidate as the answer (so the answer never rests
/// on an early-stopped estimate). `accept` runs only in that second case.
///
/// Every pass's scenarios are added to `stats.validation_scenarios`; the
/// final report is returned with the number of passes run, which the
/// caller counts into `stats.validations` as its accounting requires.
pub(crate) fn validate_candidate(
    instance: &Instance<'_>,
    x: &[f64],
    stats: &mut EvaluationStats,
    accept: impl FnOnce(&ValidationReport) -> Result<bool>,
) -> Result<(ValidationReport, usize)> {
    let opts = &instance.options;
    let report = validate_with(instance, x, &opts.search_validation())?;
    stats.validation_scenarios += report.scenarios_used;
    if !((report.interrupted && !opts.deadline.is_cancelled())
        || (report.early_stopped && accept(&report)?))
    {
        return Ok((report, 1));
    }
    let certificate = validate_with(instance, x, &opts.certificate_validation())?;
    stats.validation_scenarios += certificate.scenarios_used;
    Ok((certificate, 2))
}

#[cfg(test)]
mod tests;
