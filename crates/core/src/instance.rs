//! A fully prepared SPQ problem instance.
//!
//! [`Instance`] bundles the relation, the translated SILP, the evaluation
//! options, precomputed deterministic coefficient vectors, precomputed
//! expectation estimates (the paper's `t_i.μ̂_A`, estimated from the
//! validation stream during a precomputation phase, Section 3.2), derived
//! multiplicity bounds, and the seeded scenario generators for the
//! optimization and validation streams.

use crate::error::SpqError;
use crate::options::SpqOptions;
use crate::silp::{CoeffSource, Silp, SilpObjective};
use crate::Result;
use spq_mcdb::{ExpectationEstimator, Relation, ScenarioGenerator, ScenarioMatrix};
use spq_solver::Sense;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A prepared problem instance: everything the Naïve and SummarySearch
/// algorithms need to formulate, solve and validate.
pub struct Instance<'a> {
    /// The underlying Monte Carlo relation.
    pub relation: &'a Relation,
    /// The SILP over the candidate tuples.
    pub silp: Silp,
    /// Evaluation options.
    pub options: SpqOptions,
    /// Optimization-stream scenario generator.
    pub opt_gen: ScenarioGenerator,
    /// Validation-stream scenario generator.
    pub val_gen: ScenarioGenerator,
    /// Per-column deterministic values restricted to candidate tuples.
    det_values: HashMap<String, Vec<f64>>,
    /// Per-column expectation estimates restricted to candidate tuples.
    expectations: HashMap<String, Vec<f64>>,
    /// Per-tuple multiplicity upper bound.
    multiplicity_bounds: Vec<f64>,
    /// Per-tuple multiplicity lower bound (0 unless a caller pins variables,
    /// e.g. SketchRefine freezing already-refined partitions).
    multiplicity_floors: Vec<f64>,
    /// (min, max) realized value of the objective column over a sample of
    /// validation scenarios, restricted to candidate tuples; used for the
    /// constraint-agnostic bounds of Table 1. Sampled on first read (see
    /// [`Self::objective_value_bounds`]): only the ε certificate needs it.
    objective_value_bounds: OnceLock<Option<(f64, f64)>>,
    /// Moment prefilter: for every referenced stochastic column whose
    /// candidate tuples are all provably scenario-invariant (zero-variance —
    /// see [`spq_mcdb::VgFunction::is_scenario_invariant`]), the single
    /// probed realization per candidate. Scenario requests for these columns
    /// broadcast this vector instead of drawing, bit-identically.
    invariant_values: HashMap<String, Vec<f64>>,
}

impl<'a> Instance<'a> {
    /// Prepare an instance: validate column references, estimate
    /// expectations, derive multiplicity bounds. No scenario block is
    /// realized here (beyond a single-scenario probe of provably invariant
    /// columns); the streams are drawn when an algorithm, the validator or
    /// the ε certificate first asks for them.
    ///
    /// Preparation hands the caller's [`SpqOptions::deadline`] to the solver
    /// options, so every evaluation loop and every LP pivot loop downstream
    /// observes the same deadline, and no other clock.
    pub fn new(relation: &'a Relation, silp: Silp, mut options: SpqOptions) -> Result<Self> {
        options.solver.deadline = options.deadline.clone();
        let opt_gen = ScenarioGenerator::new(options.seed);
        let val_gen = ScenarioGenerator::validation(options.seed);

        // Enforce the relation-residency ceiling before touching any column:
        // a disk-backed relation gets its chunk-cache budget clamped down to
        // the cap; an in-memory relation that already exceeds it cannot be
        // made to fit and is rejected outright.
        if let Some(cap) = options.max_relation_bytes {
            relation.clamp_cache_budget(cap);
            let resident = relation.resident_bytes();
            if resident > cap {
                return Err(SpqError::InvalidArgument(format!(
                    "relation `{}` holds {resident} bytes of deterministic columns resident, \
                     above max_relation_bytes = {cap}; rebuild it with disk-backed storage",
                    relation.name()
                )));
            }
        }

        let (det_cols, stoch_cols) = silp.referenced_columns();

        // Deterministic coefficient vectors restricted to the candidates,
        // gathered through the storage tier so a sub-instance over a few
        // tuples of a disk-backed relation pages in only their chunks —
        // never a full column.
        let mut det_values = HashMap::new();
        for col in &det_cols {
            let restricted = relation.gather_f64(col, &silp.tuples)?;
            det_values.insert(col.clone(), restricted);
        }

        // Expectation estimates for stochastic columns (precomputation
        // phase), restricted to the candidates so that sub-instances over a
        // few tuples of a huge relation stay cheap to prepare.
        let estimator =
            ExpectationEstimator::new(options.seed, options.expectation_scenarios.max(1));
        let mut expectations = HashMap::new();
        for col in &stoch_cols {
            let restricted = estimator.estimate_tuples(relation, col, &silp.tuples)?;
            expectations.insert(col.clone(), restricted);
        }

        // Moment prefilter: a referenced stochastic column whose candidate
        // tuples are all provably scenario-invariant never needs per-scenario
        // draws — one probed realization per tuple stands in for every
        // scenario, bit-identically. Probe it once here (a single-scenario
        // realization) and let every matrix/moment accessor broadcast it.
        let mut invariant_values = HashMap::new();
        for col in &stoch_cols {
            let sc = relation.stochastic_column(col)?;
            if !silp.tuples.is_empty()
                && silp.tuples.iter().all(|&t| sc.vg.is_scenario_invariant(t))
            {
                let probe =
                    val_gen.realize_sparse_matrix_range(relation, col, &silp.tuples, 0..1, 1)?;
                invariant_values.insert(col.clone(), probe.scenario(0).to_vec());
            }
        }

        let multiplicity_bounds = derive_multiplicity_bounds(&silp, &det_values, &options);
        let multiplicity_floors = vec![0.0; multiplicity_bounds.len()];

        Ok(Instance {
            relation,
            silp,
            options,
            opt_gen,
            val_gen,
            det_values,
            expectations,
            multiplicity_bounds,
            multiplicity_floors,
            objective_value_bounds: OnceLock::new(),
            invariant_values,
        })
    }

    /// Number of decision variables (candidate tuples).
    pub fn num_vars(&self) -> usize {
        self.silp.num_vars()
    }

    /// Per-tuple multiplicity upper bounds.
    pub fn multiplicity_bounds(&self) -> &[f64] {
        &self.multiplicity_bounds
    }

    /// Per-tuple multiplicity lower bounds (0 unless variables were pinned).
    pub fn multiplicity_floors(&self) -> &[f64] {
        &self.multiplicity_floors
    }

    /// Element-wise tighten the multiplicity upper bounds with `caps`
    /// (`caps[i]` applies to candidate position `i`; a floor set by
    /// [`Self::fix_multiplicity`] is never violated). SketchRefine uses this
    /// to give each partition representative a capacity of
    /// `partition size × per-tuple bound`.
    pub fn cap_multiplicity_bounds(&mut self, caps: &[f64]) {
        for (bound, &cap) in self.multiplicity_bounds.iter_mut().zip(caps) {
            *bound = bound.min(cap.max(0.0));
        }
        for (bound, &floor) in self
            .multiplicity_bounds
            .iter_mut()
            .zip(&self.multiplicity_floors)
        {
            *bound = bound.max(floor);
        }
    }

    /// Pin candidate position `position` to exactly `value` copies in every
    /// formulation built from this instance (lower bound = upper bound =
    /// `value`). SketchRefine uses this to freeze the choices of partitions
    /// other than the one currently being refined.
    pub fn fix_multiplicity(&mut self, position: usize, value: f64) {
        let value = value.max(0.0);
        self.multiplicity_floors[position] = value;
        self.multiplicity_bounds[position] = value;
    }

    /// Expectation estimates for a stochastic column (restricted to candidate
    /// tuples).
    pub fn expectations(&self, column: &str) -> Result<&[f64]> {
        self.expectations
            .get(column)
            .map(Vec::as_slice)
            .ok_or_else(|| SpqError::Internal(format!("no expectation estimate for `{column}`")))
    }

    /// Deterministic values for a column (restricted to candidate tuples).
    pub fn deterministic(&self, column: &str) -> Result<&[f64]> {
        self.det_values
            .get(column)
            .map(Vec::as_slice)
            .ok_or_else(|| SpqError::Internal(format!("no deterministic values for `{column}`")))
    }

    /// The deterministic coefficient vector used in a DILP for a coefficient
    /// source: constants, deterministic values, or expectation estimates.
    /// Per-tuple sources are borrowed; only a constant is materialized.
    pub fn coefficients(&self, coeff: &CoeffSource) -> Result<Cow<'_, [f64]>> {
        Ok(match coeff {
            CoeffSource::Constant(c) => Cow::Owned(vec![*c; self.num_vars()]),
            CoeffSource::Deterministic(col) => Cow::Borrowed(self.deterministic(col)?),
            CoeffSource::Stochastic(col) => Cow::Borrowed(self.expectations(col)?),
        })
    }

    /// Per-candidate `(mean, standard deviation)` moments of a stochastic
    /// column. No scenario is drawn when the moments are known exactly: for
    /// columns the moment prefilter proved scenario-invariant they are
    /// `(probed value, 0)`, and when the VG function has a closed-form mean
    /// *and* standard deviation for every candidate they are those (which
    /// also makes them independent of the seed). Otherwise they are
    /// estimated over the first `m` validation scenarios: the block engine
    /// realizes the window tuple-major and folds it.
    pub fn tuple_moments(&self, column: &str, m: usize) -> Result<Vec<(f64, f64)>> {
        if let Some(values) = self.invariant_values.get(column) {
            return Ok(values.iter().map(|&v| (v, 0.0)).collect());
        }
        let vg = &self.relation.stochastic_column(column)?.vg;
        let closed_form: Option<Vec<(f64, f64)>> = self
            .silp
            .tuples
            .iter()
            .map(|&t| Some((vg.mean(t)?, vg.std_dev(t)?)))
            .collect();
        if let Some(moments) = closed_form {
            return Ok(moments);
        }
        Ok(self
            .val_gen
            .tuple_moments(self.relation, column, &self.silp.tuples, m)?)
    }

    /// Realize the first `m` optimization scenarios of a stochastic column as
    /// a dense matrix restricted to candidate tuples.
    ///
    /// When the moment prefilter proved the column scenario-invariant the
    /// matrix is a broadcast of the probed values (no draws, no cache
    /// traffic). Otherwise, when [`SpqOptions::scenario_cache`] is set the
    /// block is memoized there (and possibly shared with concurrent
    /// evaluations of the same relation); else it is generated for this call
    /// alone. In every case the values are bit-identical to serial
    /// generation.
    pub fn optimization_matrix(&self, column: &str, m: usize) -> Result<Arc<ScenarioMatrix>> {
        self.window(&self.opt_gen, column, None, 0..m)
    }

    /// Realize validation scenarios of a stochastic column for the given
    /// candidate positions (indices into `silp.tuples`), one row per scenario.
    pub fn validation_rows(
        &self,
        column: &str,
        positions: &[usize],
        scenarios: std::ops::Range<usize>,
    ) -> Result<Vec<Vec<f64>>> {
        let tuples: Vec<usize> = positions.iter().map(|&p| self.silp.tuples[p]).collect();
        let m = scenarios.len();
        let matrix = self.val_gen.realize_sparse_matrix_range(
            self.relation,
            column,
            &tuples,
            scenarios,
            0,
        )?;
        // Row count from the window: a zero-tuple matrix has no rows to count.
        Ok((0..m).map(|j| matrix.scenario(j).to_vec()).collect())
    }

    /// Realize one validation-stream block (a scenario window of a
    /// stochastic column restricted to candidate positions) as a dense
    /// matrix. The blocked validator asks for one position at a time — a
    /// row — so that, when [`SpqOptions::scenario_cache`] is set, the row is
    /// memoized under its tuple alone and shared by every package that
    /// contains the tuple; without a cache it is generated for this call
    /// alone — bit-identically either way. A one-row block is realized
    /// serially; the validator parallelizes across blocks.
    pub fn validation_matrix(
        &self,
        column: &str,
        positions: &[usize],
        scenarios: std::ops::Range<usize>,
    ) -> Result<Arc<ScenarioMatrix>> {
        self.window(&self.val_gen, column, Some(positions), scenarios)
    }

    /// A scenario window of `column` from `generator`'s stream over the
    /// candidate `positions` (every candidate when `None`): a broadcast of
    /// the probed values for a scenario-invariant column, else the shared
    /// scenario cache's block when one is set, else a block realized for
    /// this call alone.
    fn window(
        &self,
        generator: &ScenarioGenerator,
        column: &str,
        positions: Option<&[usize]>,
        scenarios: std::ops::Range<usize>,
    ) -> Result<Arc<ScenarioMatrix>> {
        if let Some(values) = self.invariant_values.get(column) {
            let picked: Cow<'_, [f64]> = match positions {
                Some(positions) => positions.iter().map(|&p| values[p]).collect(),
                None => Cow::Borrowed(values),
            };
            return Ok(Arc::new(ScenarioMatrix::broadcast(
                &picked,
                scenarios.len(),
            )));
        }
        let tuples: Cow<'_, [usize]> = match positions {
            Some(positions) => positions.iter().map(|&p| self.silp.tuples[p]).collect(),
            None => Cow::Borrowed(&self.silp.tuples),
        };
        Ok(match &self.options.scenario_cache {
            Some(cache) => {
                cache.sparse_matrix_range(generator, self.relation, column, &tuples, scenarios)?
            }
            None => Arc::new(generator.realize_sparse_matrix_range(
                self.relation,
                column,
                &tuples,
                scenarios,
                0,
            )?),
        })
    }

    /// (min, max) sampled value of the objective's stochastic column, if the
    /// objective is stochastic.
    ///
    /// The first call realizes 64 validation scenarios × every candidate
    /// tuple (through the shared scenario cache when one is configured) and
    /// memoizes the result; later calls are free (the memo depends only on
    /// the candidate tuples and the objective column, which pinning or
    /// capping multiplicities does not change). A failed realization is
    /// returned as its typed error and not memoized.
    pub fn objective_value_bounds(&self) -> Result<Option<(f64, f64)>> {
        if let Some(bounds) = self.objective_value_bounds.get() {
            return Ok(*bounds);
        }
        let sampled = self.sample_objective_value_bounds()?;
        Ok(*self.objective_value_bounds.get_or_init(|| sampled))
    }

    /// Package-size bounds `(l̲, l̄)` implied by `COUNT(*)` constraints
    /// (Appendix B, assumption A2). The defaults are `0` and the sum of the
    /// multiplicity bounds.
    pub fn package_size_bounds(&self) -> (f64, f64) {
        let mut lo = 0.0f64;
        let mut hi: f64 = self.multiplicity_bounds.iter().sum();
        for c in &self.silp.constraints {
            if let CoeffSource::Constant(k) = c.coeff {
                if (k - 1.0).abs() < 1e-12 && !c.kind.is_probabilistic() {
                    match c.sense {
                        Sense::Ge => lo = lo.max(c.rhs),
                        Sense::Le => hi = hi.min(c.rhs),
                        Sense::Eq => {
                            lo = lo.max(c.rhs);
                            hi = hi.min(c.rhs);
                        }
                    }
                }
            }
        }
        (lo.max(0.0), hi.max(0.0))
    }

    fn sample_objective_value_bounds(&self) -> Result<Option<(f64, f64)>> {
        let column = match &self.silp.objective {
            SilpObjective::Linear {
                coeff: CoeffSource::Stochastic(col),
                ..
            } => col.clone(),
            SilpObjective::Probability { attribute, .. } => attribute.clone(),
            _ => return Ok(None),
        };
        if self.num_vars() == 0 {
            return Ok(None);
        }
        // Sample a modest number of validation scenarios across all candidate
        // tuples to bound realized values (assumption A1 of Appendix B; the
        // paper likewise derives possibly loose bounds from min/max scenario
        // values). At 10k+ candidates this block costs more than preparing
        // the instance did, so it goes through the shared scenario cache when
        // one is configured: repeated or concurrent evaluations of the same
        // query sample it once. A scenario-invariant column draws nothing.
        let samples = 64.min(self.options.validation_scenarios.max(1));
        let matrix = self.window(&self.val_gen, &column, None, 0..samples)?;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for j in 0..matrix.num_scenarios() {
            for &v in matrix.scenario(j) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo.is_finite() && hi.is_finite() {
            Ok(Some((lo, hi)))
        } else {
            Ok(None)
        }
    }
}

/// Derive per-tuple multiplicity upper bounds from `REPEAT`, `COUNT(*) <= u`
/// constraints and deterministic budget constraints with positive
/// coefficients; fall back to the configured bound otherwise.
fn derive_multiplicity_bounds(
    silp: &Silp,
    det_values: &HashMap<String, Vec<f64>>,
    options: &SpqOptions,
) -> Vec<f64> {
    let n = silp.num_vars();
    let fallback = f64::from(options.fallback_multiplicity_bound);
    let mut bounds = vec![
        match silp.repeat_bound {
            Some(r) => f64::from(r),
            None => f64::INFINITY,
        };
        n
    ];

    for c in &silp.constraints {
        if c.kind.is_probabilistic() || c.sense != Sense::Le || c.rhs < 0.0 {
            continue;
        }
        match &c.coeff {
            CoeffSource::Constant(k) if *k > 0.0 => {
                let b = (c.rhs / k).floor();
                for bound in &mut bounds {
                    *bound = bound.min(b);
                }
            }
            CoeffSource::Deterministic(col) => {
                if let Some(values) = det_values.get(col) {
                    for (bound, &v) in bounds.iter_mut().zip(values) {
                        if v > 0.0 {
                            *bound = bound.min((c.rhs / v).floor());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    for bound in &mut bounds {
        if !bound.is_finite() {
            *bound = fallback;
        }
        *bound = bound.max(0.0);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silp::{ConstraintKind, Direction, SilpConstraint};
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;

    fn relation() -> Relation {
        RelationBuilder::new("t")
            .deterministic_f64("price", vec![100.0, 250.0, 50.0, 400.0])
            .stochastic("gain", NormalNoise::around(vec![1.0, 2.0, 3.0, 4.0], 0.5))
            .build()
            .unwrap()
    }

    fn silp(constraints: Vec<SilpConstraint>) -> Silp {
        Silp {
            relation: "t".into(),
            tuples: vec![0, 1, 2, 3],
            repeat_bound: None,
            constraints,
            objective: SilpObjective::Linear {
                direction: Direction::Maximize,
                coeff: CoeffSource::Stochastic("gain".into()),
                expectation: true,
            },
        }
    }

    fn budget_constraint(rhs: f64) -> SilpConstraint {
        SilpConstraint {
            name: "budget".into(),
            coeff: CoeffSource::Deterministic("price".into()),
            sense: Sense::Le,
            rhs,
            kind: ConstraintKind::Deterministic,
        }
    }

    fn count_le(rhs: f64) -> SilpConstraint {
        SilpConstraint {
            name: "count".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Le,
            rhs,
            kind: ConstraintKind::Deterministic,
        }
    }

    #[test]
    fn coefficients_pick_the_right_source() {
        let rel = relation();
        let inst = Instance::new(
            &rel,
            silp(vec![budget_constraint(500.0)]),
            SpqOptions::for_tests(),
        )
        .unwrap();
        assert_eq!(
            inst.coefficients(&CoeffSource::Deterministic("price".into()))
                .unwrap(),
            vec![100.0, 250.0, 50.0, 400.0]
        );
        assert_eq!(
            inst.coefficients(&CoeffSource::Constant(2.0)).unwrap(),
            vec![2.0; 4]
        );
        let means = inst
            .coefficients(&CoeffSource::Stochastic("gain".into()))
            .unwrap();
        // Analytic means from NormalNoise.
        assert_eq!(means, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn multiplicity_bounds_from_budget_and_count() {
        let rel = relation();
        let inst = Instance::new(
            &rel,
            silp(vec![budget_constraint(500.0), count_le(3.0)]),
            SpqOptions::for_tests(),
        )
        .unwrap();
        // Budget 500: price 100 -> 5, 250 -> 2, 50 -> 10, 400 -> 1; count <= 3
        // tightens to min(., 3).
        assert_eq!(inst.multiplicity_bounds(), &[3.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn fallback_multiplicity_bound_applies_without_constraints() {
        let rel = relation();
        let mut opts = SpqOptions::for_tests();
        opts.fallback_multiplicity_bound = 17;
        let inst = Instance::new(&rel, silp(vec![]), opts).unwrap();
        assert_eq!(inst.multiplicity_bounds(), &[17.0; 4]);
    }

    #[test]
    fn repeat_bound_is_respected() {
        let rel = relation();
        let mut s = silp(vec![count_le(50.0)]);
        s.repeat_bound = Some(2);
        let inst = Instance::new(&rel, s, SpqOptions::for_tests()).unwrap();
        assert_eq!(inst.multiplicity_bounds(), &[2.0; 4]);
    }

    #[test]
    fn package_size_bounds_from_count_constraints() {
        let rel = relation();
        let mut constraints = vec![count_le(10.0)];
        constraints.push(SilpConstraint {
            name: "count_lo".into(),
            coeff: CoeffSource::Constant(1.0),
            sense: Sense::Ge,
            rhs: 5.0,
            kind: ConstraintKind::Deterministic,
        });
        let inst = Instance::new(&rel, silp(constraints), SpqOptions::for_tests()).unwrap();
        assert_eq!(inst.package_size_bounds(), (5.0, 10.0));
    }

    #[test]
    fn scenario_access_is_restricted_to_candidates() {
        let rel = relation();
        let mut s = silp(vec![count_le(3.0)]);
        s.tuples = vec![1, 3];
        let inst = Instance::new(&rel, s, SpqOptions::for_tests()).unwrap();
        assert_eq!(inst.num_vars(), 2);
        let matrix = inst.optimization_matrix("gain", 5).unwrap();
        assert_eq!(matrix.num_scenarios(), 5);
        assert_eq!(matrix.num_tuples(), 2);
        let row = vec![matrix.value(2, 0), matrix.value(2, 1)];
        // Validation rows differ from optimization rows (different stream).
        let val = inst.validation_rows("gain", &[0, 1], 2..3).unwrap();
        assert_ne!(val[0], row);
    }

    #[test]
    fn objective_value_bounds_are_sampled_for_stochastic_objectives() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(vec![count_le(3.0)]), SpqOptions::for_tests()).unwrap();
        let (lo, hi) = inst.objective_value_bounds().unwrap().unwrap();
        assert!(lo < hi);
        // Gains are N(1..4, 0.5); sampled bounds should be within a broad
        // plausible window.
        assert!(lo > -5.0 && hi < 10.0);
    }

    #[test]
    fn caps_and_fixed_multiplicities_are_respected() {
        let rel = relation();
        let mut inst = Instance::new(
            &rel,
            silp(vec![budget_constraint(500.0), count_le(3.0)]),
            SpqOptions::for_tests(),
        )
        .unwrap();
        assert_eq!(inst.multiplicity_floors(), &[0.0; 4]);
        inst.cap_multiplicity_bounds(&[2.0, 10.0, 1.0, 0.0]);
        // Caps only tighten: derived bounds were [3, 2, 3, 1].
        assert_eq!(inst.multiplicity_bounds(), &[2.0, 2.0, 1.0, 0.0]);
        inst.fix_multiplicity(1, 2.0);
        assert_eq!(inst.multiplicity_floors()[1], 2.0);
        assert_eq!(inst.multiplicity_bounds()[1], 2.0);
        // A later cap below the floor is ignored for the pinned position.
        inst.cap_multiplicity_bounds(&[2.0, 0.0, 1.0, 0.0]);
        assert_eq!(inst.multiplicity_bounds()[1], 2.0);
    }

    #[test]
    fn fixed_multiplicities_survive_a_solve() {
        use spq_solver::{solve_full, SolverOptions};
        let rel = relation();
        // Maximize gains with a budget; tuple 2 (gain 3, price 50) would
        // normally dominate — pin tuple 0 to two copies instead.
        let mut inst = Instance::new(
            &rel,
            silp(vec![budget_constraint(300.0)]),
            SpqOptions::for_tests(),
        )
        .unwrap();
        inst.fix_multiplicity(0, 2.0);
        let f = crate::saa::formulate_unconstrained(&inst, 5).unwrap();
        let res = solve_full(&f.model, &SolverOptions::default()).unwrap();
        let x = f.multiplicities(&res.solution.unwrap());
        assert_eq!(x[0], 2.0, "pinned variable must keep its value: {x:?}");
        // Budget 300 - 2*100 leaves room for two of tuple 2 (price 50).
        let total: f64 = x
            .iter()
            .zip([100.0, 250.0, 50.0, 400.0])
            .map(|(v, p)| v * p)
            .sum();
        assert!(total <= 300.0 + 1e-9);
    }

    #[test]
    fn optimization_matrices_are_shared_through_the_cache() {
        let rel = relation();
        let cache = Arc::new(spq_mcdb::ScenarioCache::new());
        let opts = SpqOptions {
            scenario_cache: Some(cache.clone()),
            ..SpqOptions::for_tests()
        };
        let a = Instance::new(&rel, silp(vec![count_le(3.0)]), opts.clone()).unwrap();
        let b = Instance::new(&rel, silp(vec![count_le(3.0)]), opts).unwrap();
        // Preparation realizes nothing: not even the objective-bounds block.
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let ma = a.optimization_matrix("gain", 6).unwrap();
        let mb = b.optimization_matrix("gain", 6).unwrap();
        assert!(
            Arc::ptr_eq(&ma, &mb),
            "two instances over the same relation must share the block"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The objective-bounds block is realized by its first reader and
        // shared with the other instance.
        assert_eq!(
            a.objective_value_bounds().unwrap(),
            b.objective_value_bounds().unwrap()
        );
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // The uncached path produces bit-identical values.
        let plain =
            Instance::new(&rel, silp(vec![count_le(3.0)]), SpqOptions::for_tests()).unwrap();
        assert_eq!(*plain.optimization_matrix("gain", 6).unwrap(), *ma);
    }

    #[test]
    fn validation_matrices_match_validation_rows_and_share_the_cache() {
        let rel = relation();
        let cache = Arc::new(spq_mcdb::ScenarioCache::new());
        let opts = SpqOptions {
            scenario_cache: Some(cache.clone()),
            ..SpqOptions::for_tests()
        };
        let inst = Instance::new(&rel, silp(vec![count_le(3.0)]), opts).unwrap();
        let matrix = inst.validation_matrix("gain", &[1, 3], 5..12).unwrap();
        assert_eq!(matrix.num_scenarios(), 7);
        assert_eq!(matrix.num_tuples(), 2);
        let rows = inst.validation_rows("gain", &[1, 3], 5..12).unwrap();
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(matrix.scenario(j), row.as_slice());
        }
        // A repeated request is served from the shared cache.
        let again = inst.validation_matrix("gain", &[1, 3], 5..12).unwrap();
        assert!(Arc::ptr_eq(&matrix, &again));
        // Without a cache the block is generated per call, bit-identically.
        let plain =
            Instance::new(&rel, silp(vec![count_le(3.0)]), SpqOptions::for_tests()).unwrap();
        assert_eq!(
            *plain.validation_matrix("gain", &[1, 3], 5..12).unwrap(),
            *matrix
        );
    }

    #[test]
    fn moment_prefilter_skips_draws_for_invariant_columns_bit_identically() {
        use spq_mcdb::vg::Degenerate;
        let rel = RelationBuilder::new("t")
            .deterministic_f64("price", vec![100.0, 250.0, 50.0, 400.0])
            .stochastic("gain", Degenerate::new(vec![1.5, 2.5, 3.5, 4.5]))
            .build()
            .unwrap();
        let cache = Arc::new(spq_mcdb::ScenarioCache::new());
        let opts = SpqOptions {
            scenario_cache: Some(cache.clone()),
            ..SpqOptions::for_tests()
        };
        let inst = Instance::new(&rel, silp(vec![count_le(3.0)]), opts).unwrap();

        assert!(inst.invariant_values.contains_key("gain"));
        // The prefilter answers matrices without touching the cache...
        let matrix = inst.optimization_matrix("gain", 9).unwrap();
        let vmatrix = inst.validation_matrix("gain", &[1, 3], 4..10).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // ...and the broadcast is bit-identical to full generation.
        let full = inst
            .opt_gen
            .realize_sparse_matrix_range(&rel, "gain", &inst.silp.tuples, 0..9, 0)
            .unwrap();
        assert_eq!(*matrix, full);
        let vfull = inst
            .val_gen
            .realize_sparse_matrix_range(&rel, "gain", &[1, 3], 4..10, 1)
            .unwrap();
        assert_eq!(*vmatrix, vfull);
        // Moments are exact without draws, and objective bounds match the
        // degenerate values.
        assert_eq!(
            inst.tuple_moments("gain", 100).unwrap(),
            vec![(1.5, 0.0), (2.5, 0.0), (3.5, 0.0), (4.5, 0.0)]
        );
        assert_eq!(inst.objective_value_bounds().unwrap(), Some((1.5, 4.5)));
    }

    #[test]
    fn moment_prefilter_covers_zero_sigma_and_leaves_noisy_columns_alone() {
        let zero_sigma = RelationBuilder::new("t")
            .deterministic_f64("price", vec![100.0, 250.0, 50.0, 400.0])
            .stochastic(
                "gain",
                NormalNoise::around(vec![1.0, 2.0, 3.0, 4.0], vec![0.0; 4]),
            )
            .build()
            .unwrap();
        let inst = Instance::new(
            &zero_sigma,
            silp(vec![count_le(3.0)]),
            SpqOptions::for_tests(),
        )
        .unwrap();
        assert!(inst.invariant_values.contains_key("gain"));
        assert_eq!(inst.objective_value_bounds().unwrap(), Some((1.0, 4.0)));

        // A noisy column keeps drawing: not scenario-free, nonzero stds.
        let noisy = relation();
        let inst =
            Instance::new(&noisy, silp(vec![count_le(3.0)]), SpqOptions::for_tests()).unwrap();
        assert!(!inst.invariant_values.contains_key("gain"));
        let moments = inst.tuple_moments("gain", 256).unwrap();
        assert!(moments.iter().all(|&(_, sd)| sd > 0.1));
    }

    #[test]
    fn unknown_column_reports_internal_error() {
        let rel = relation();
        let inst = Instance::new(&rel, silp(vec![count_le(3.0)]), SpqOptions::for_tests()).unwrap();
        assert!(inst.expectations("nope").is_err());
        assert!(inst.deterministic("nope").is_err());
    }
}
