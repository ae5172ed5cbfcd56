//! Variable generation (VG) functions.
//!
//! A VG function produces, per tuple and per scenario, a realization of a
//! stochastic attribute. Following the Monte Carlo database model, arbitrary
//! uncertainty models are supported by implementing [`VgFunction`]; this
//! module ships the models used in the paper's three workloads:
//!
//! * Gaussian and Pareto noise around base telescope readings (Galaxy),
//! * geometric Brownian motion price forecasts (Portfolio), where all trades
//!   of the same stock share one price path per scenario,
//! * discrete source mixtures modeling data-integration uncertainty (TPC-H),
//!   whose candidate values the workload generator draws,
//! * plus the degenerate (deterministic) model.

use crate::error::McdbError;
use crate::seed::{cell_seed, group_seed, splitmix64};
use crate::Result;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal, Pareto, StandardNormal};
use std::fmt;
use std::ops::Range;

/// Specification of a per-tuple parameter: either one shared constant or one
/// value per tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum PerTuple {
    /// The same value for every tuple.
    Fixed(f64),
    /// One value per tuple.
    Each(Vec<f64>),
}

impl PerTuple {
    /// The value for tuple `i`.
    pub fn get(&self, i: usize) -> f64 {
        match self {
            PerTuple::Fixed(v) => *v,
            PerTuple::Each(vs) => vs[i],
        }
    }

    /// Number of tuples covered, if per-tuple.
    pub fn len(&self) -> Option<usize> {
        match self {
            PerTuple::Fixed(_) => None,
            PerTuple::Each(vs) => Some(vs.len()),
        }
    }

    /// True when this is a per-tuple vector with no entries.
    pub fn is_empty(&self) -> bool {
        matches!(self, PerTuple::Each(v) if v.is_empty())
    }
}

impl From<f64> for PerTuple {
    fn from(v: f64) -> Self {
        PerTuple::Fixed(v)
    }
}

impl From<Vec<f64>> for PerTuple {
    fn from(v: Vec<f64>) -> Self {
        PerTuple::Each(v)
    }
}

/// A variable generation function: produces realizations of one stochastic
/// column.
///
/// Realization is blockwise: [`Self::realize_block`] fills a `tuples ×
/// scenarios` block, seeding every cell from the counter-based key of its
/// `(column, driver_group(tuple), scenario)` triple, so the values do not
/// depend on the block's shape, its tile split or the thread that draws it.
pub trait VgFunction: Send + Sync + fmt::Debug {
    /// Short human-readable name of the model.
    fn name(&self) -> &'static str;

    /// Number of tuples this VG function parameterizes.
    fn len(&self) -> usize;

    /// True when the function parameterizes no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The correlation driver group of a tuple. Tuples with the same group
    /// share the RNG stream within a scenario, and therefore can be
    /// statistically correlated (e.g. all trades of one stock share a price
    /// path). The default is one group per tuple (full independence).
    fn driver_group(&self, tuple: usize) -> u64 {
        tuple as u64
    }

    /// Realize a whole `tuples × scenarios` block in one call, writing
    /// tuple-major output: `out[ti * scenarios.len() + jj]` is the value of
    /// `tuples[ti]` in scenario `scenarios.start + jj`.
    ///
    /// `column_prefix` is the hoisted [`crate::seed::column_prefix`] of the
    /// `(base seed, stream, column)` triple. Each cell draws from
    /// `SmallRng::seed_from_u64(cell_seed(group_seed(prefix,
    /// driver_group(tuple)), scenario))`, the five-word counter-based key of
    /// [`crate::seed`], while seeding, parameter lookups and distribution
    /// construction are hoisted out of the scenario loop. An independent
    /// per-cell oracle in the `block_kernel_conformance` test suite pins
    /// every family's kernel bit for bit.
    fn realize_block(
        &self,
        column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    );

    /// A stable 64-bit digest of the model's parameters, used (folded into
    /// [`crate::Relation::fingerprint`]) to key the persistent scenario
    /// store across process restarts. Two models may share a signature only
    /// if they realize identically.
    ///
    /// The default probes the model: it realizes the first scenarios of a
    /// handful of tuples spread over the tuple range under a fixed probe
    /// prefix, and hashes the result bits together with the name, length,
    /// and driver groups. Because realizations are deterministic functions
    /// of the cell seeds, any parameter that can influence a realized value
    /// perturbs the digest.
    fn param_signature(&self) -> u64 {
        const PROBE_PREFIX: u64 = 0xA5A5_5A5A_0F0F_F0F0;
        const PROBE_SCENARIOS: usize = 2;
        let n = self.len();
        let probes = n.min(64);
        // Even spread including the last tuple, so per-tuple parameter
        // vectors are sampled across their whole range.
        let tuples: Vec<usize> = (0..probes)
            .map(|k| k * (n - 1) / (probes - 1).max(1))
            .collect();
        let mut values = vec![0.0f64; probes * PROBE_SCENARIOS];
        self.realize_block(PROBE_PREFIX, &tuples, 0..PROBE_SCENARIOS, &mut values);
        let mut acc = crate::seed::column_tag(self.name()) ^ splitmix64(n as u64);
        for (&tuple, row) in tuples.iter().zip(values.chunks_exact(PROBE_SCENARIOS)) {
            acc = splitmix64(acc ^ splitmix64(self.driver_group(tuple)));
            for v in row {
                acc = splitmix64(acc ^ v.to_bits());
            }
        }
        acc
    }

    /// Analytic mean of the attribute for `tuple`, when known in closed form.
    /// When `None`, expectations are estimated empirically by averaging
    /// validation scenarios (exactly as the paper's implementation does).
    fn mean(&self, _tuple: usize) -> Option<f64> {
        None
    }

    /// Analytic standard deviation of the attribute for `tuple`, when known
    /// in closed form (`Some(0.0)` wherever [`Self::is_scenario_invariant`]
    /// holds). When `None`, consumers that need a spread — SketchRefine's
    /// partitioning features — estimate it from realized scenarios.
    fn std_dev(&self, _tuple: usize) -> Option<f64> {
        None
    }

    /// True when every realization of `tuple` is **provably** identical
    /// across scenarios — the realized value does not depend on the RNG at
    /// all (e.g. [`Degenerate`], a [`NormalNoise`] tuple with zero sigma, a
    /// [`DiscreteSources`] tuple with a single candidate).
    ///
    /// The moment prefilter uses this: when every candidate tuple of a
    /// referenced column is scenario-invariant, per-scenario draws are
    /// skipped entirely and one probed realization is broadcast instead,
    /// bit-identically. The default is `false` (always draw), which is
    /// always safe.
    fn is_scenario_invariant(&self, _tuple: usize) -> bool {
        false
    }

    /// Check that the parameters are internally consistent.
    fn validate(&self) -> Result<()> {
        Ok(())
    }
}

fn check_len(vg: &'static str, expected: usize, what: &str, p: &PerTuple) -> Result<()> {
    if let Some(n) = p.len() {
        if n != expected {
            return Err(McdbError::InvalidVgParameter {
                vg,
                message: format!("{what} has {n} entries, expected {expected}"),
            });
        }
    }
    Ok(())
}

/// True for the rates, scales and degrees of freedom the distribution
/// constructors accept: positive and finite (so never NaN).
fn positive_finite(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// The counter-based cell loop every drawing kernel shares: fold `group`
/// into the column prefix once, then give each cell of `row` its own RNG
/// keyed by its scenario and store `draw`'s value. Generic over the draw,
/// so each kernel compiles to its own monomorphic loop.
#[inline(always)]
fn draw_cells(
    column_prefix: u64,
    group: u64,
    scenarios: Range<usize>,
    row: &mut [f64],
    mut draw: impl FnMut(&mut SmallRng) -> f64,
) {
    let gs = group_seed(column_prefix, group);
    for (slot, j) in row.iter_mut().zip(scenarios) {
        let mut rng = SmallRng::seed_from_u64(cell_seed(gs, j as u64));
        *slot = draw(&mut rng);
    }
}

// ---------------------------------------------------------------------------
// Degenerate (deterministic) model
// ---------------------------------------------------------------------------

/// A degenerate "random" variable that always takes its base value. Useful
/// for testing and for expressing deterministic attributes through the
/// stochastic machinery (Section 2.3: deterministic constraints are a special
/// case of expectation constraints).
#[derive(Debug, Clone)]
pub struct Degenerate {
    values: Vec<f64>,
}

impl Degenerate {
    /// Create the model from the per-tuple constants.
    pub fn new(values: Vec<f64>) -> Self {
        Degenerate { values }
    }
}

impl VgFunction for Degenerate {
    fn name(&self) -> &'static str {
        "degenerate"
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn realize_block(
        &self,
        _column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    ) {
        // No randomness at all: each row is the constant base value.
        let m = scenarios.len();
        for (row, &tuple) in out.chunks_exact_mut(m.max(1)).zip(tuples) {
            row.fill(self.values[tuple]);
        }
    }

    fn mean(&self, tuple: usize) -> Option<f64> {
        Some(self.values[tuple])
    }

    fn std_dev(&self, _tuple: usize) -> Option<f64> {
        Some(0.0)
    }

    fn is_scenario_invariant(&self, _tuple: usize) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Gaussian noise
// ---------------------------------------------------------------------------

/// Gaussian noise around per-tuple base values: `base_i + N(0, sigma_i)`.
///
/// This is the Galaxy workload's "Normal(σ)" model; σ can be shared or
/// per-tuple (the paper's σ* variant draws per-tuple standard deviations).
#[derive(Debug, Clone)]
pub struct NormalNoise {
    base: Vec<f64>,
    sigma: PerTuple,
}

impl NormalNoise {
    /// Gaussian noise with the given per-tuple bases and standard deviation.
    pub fn around(base: Vec<f64>, sigma: impl Into<PerTuple>) -> Self {
        NormalNoise {
            base,
            sigma: sigma.into(),
        }
    }
}

impl VgFunction for NormalNoise {
    fn name(&self) -> &'static str {
        "normal-noise"
    }

    fn len(&self) -> usize {
        self.base.len()
    }

    fn realize_block(
        &self,
        column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    ) {
        let m = scenarios.len();
        for (row, &tuple) in out.chunks_exact_mut(m.max(1)).zip(tuples) {
            let base = self.base[tuple];
            let sigma = self.sigma.get(tuple).abs();
            // σ == 0 realizes the base value: no cell needs seeding.
            if sigma == 0.0 {
                row.fill(base);
                continue;
            }
            let normal = Normal::new(0.0, sigma).expect("validated sigma");
            draw_cells(column_prefix, tuple as u64, scenarios.clone(), row, |rng| {
                base + normal.sample(rng)
            });
        }
    }

    fn mean(&self, tuple: usize) -> Option<f64> {
        Some(self.base[tuple])
    }

    fn std_dev(&self, tuple: usize) -> Option<f64> {
        Some(self.sigma.get(tuple).abs())
    }

    fn is_scenario_invariant(&self, tuple: usize) -> bool {
        // σ == 0 realizes to the base value in every scenario.
        self.sigma.get(tuple).abs() == 0.0
    }

    fn validate(&self) -> Result<()> {
        check_len("normal-noise", self.base.len(), "sigma", &self.sigma)?;
        for i in 0..self.base.len() {
            let s = self.sigma.get(i);
            if !s.is_finite() {
                return Err(McdbError::InvalidVgParameter {
                    vg: "normal-noise",
                    message: format!("sigma for tuple {i} is not finite"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pareto noise
// ---------------------------------------------------------------------------

/// Pareto noise around per-tuple base values: `base_i + Pareto(scale, shape)`.
///
/// The Galaxy workload uses `scale = shape = 1`, for which the mean is
/// infinite ("high variability across scenarios", Section 6.2.4); in that
/// case [`VgFunction::mean`] returns `None` and expectations are estimated
/// empirically.
#[derive(Debug, Clone)]
pub struct ParetoNoise {
    base: Vec<f64>,
    scale: PerTuple,
    shape: PerTuple,
}

impl ParetoNoise {
    /// Pareto noise with the given scale and shape.
    pub fn around(base: Vec<f64>, scale: impl Into<PerTuple>, shape: impl Into<PerTuple>) -> Self {
        ParetoNoise {
            base,
            scale: scale.into(),
            shape: shape.into(),
        }
    }
}

impl VgFunction for ParetoNoise {
    fn name(&self) -> &'static str {
        "pareto-noise"
    }

    fn len(&self) -> usize {
        self.base.len()
    }

    fn realize_block(
        &self,
        column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    ) {
        let m = scenarios.len();
        for (row, &tuple) in out.chunks_exact_mut(m.max(1)).zip(tuples) {
            let base = self.base[tuple];
            let scale = self.scale.get(tuple).abs().max(f64::MIN_POSITIVE);
            let shape = self.shape.get(tuple).abs().max(f64::MIN_POSITIVE);
            let pareto = Pareto::new(scale, shape).expect("validated pareto");
            draw_cells(column_prefix, tuple as u64, scenarios.clone(), row, |rng| {
                base + pareto.sample(rng)
            });
        }
    }

    fn mean(&self, tuple: usize) -> Option<f64> {
        let scale = self.scale.get(tuple);
        let shape = self.shape.get(tuple);
        if shape > 1.0 {
            Some(self.base[tuple] + shape * scale / (shape - 1.0))
        } else {
            None
        }
    }

    fn std_dev(&self, tuple: usize) -> Option<f64> {
        // Finite only for shape > 2 (the Galaxy workload's shape 1 has
        // neither a mean nor a variance).
        let scale = self.scale.get(tuple);
        let shape = self.shape.get(tuple);
        (shape > 2.0).then(|| scale / (shape - 1.0) * (shape / (shape - 2.0)).sqrt())
    }

    fn validate(&self) -> Result<()> {
        check_len("pareto-noise", self.base.len(), "scale", &self.scale)?;
        check_len("pareto-noise", self.base.len(), "shape", &self.shape)?;
        for i in 0..self.base.len() {
            if !positive_finite(self.scale.get(i)) || !positive_finite(self.shape.get(i)) {
                return Err(McdbError::InvalidVgParameter {
                    vg: "pareto-noise",
                    message: format!("scale and shape must be positive and finite for tuple {i}"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Geometric Brownian motion (Portfolio workload)
// ---------------------------------------------------------------------------

/// Geometric-Brownian-motion gain forecasts for stock trades.
///
/// Each tuple is one potential trade: buy one share of stock `group_i` at
/// `price_i` today and sell it after `horizon_i` trading days. The future
/// price follows a GBM with per-stock drift `mu` and volatility `sigma`
/// (per *day*); the realized attribute is the **gain**
/// `S(horizon) - price`. All tuples that share a driver group (i.e. all
/// trades of the same stock) observe the *same* simulated price path within
/// one scenario, reproducing the paper's per-stock correlation structure
/// (tuples 1 and 2 in Figure 1 are correlated, independent of the rest).
#[derive(Debug, Clone)]
pub struct GeometricBrownianMotion {
    price: Vec<f64>,
    mu: Vec<f64>,
    sigma: Vec<f64>,
    horizon: Vec<u32>,
    group: Vec<u64>,
}

impl GeometricBrownianMotion {
    /// Build a GBM gain model.
    ///
    /// * `price` — current price per tuple (buy price).
    /// * `mu` — daily drift per tuple.
    /// * `sigma` — daily volatility per tuple.
    /// * `horizon` — number of days until the sell per tuple.
    /// * `group` — driver group per tuple; tuples of the same stock must use
    ///   the same group id and identical `mu`/`sigma`/`price` so the shared
    ///   path is meaningful.
    pub fn new(
        price: Vec<f64>,
        mu: Vec<f64>,
        sigma: Vec<f64>,
        horizon: Vec<u32>,
        group: Vec<u64>,
    ) -> Self {
        GeometricBrownianMotion {
            price,
            mu,
            sigma,
            horizon,
            group,
        }
    }
}

impl VgFunction for GeometricBrownianMotion {
    fn name(&self) -> &'static str {
        "geometric-brownian-motion"
    }

    fn len(&self) -> usize {
        self.price.len()
    }

    fn driver_group(&self, tuple: usize) -> u64 {
        self.group[tuple]
    }

    fn realize_block(
        &self,
        column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    ) {
        let m = scenarios.len();
        for (row, &tuple) in out.chunks_exact_mut(m.max(1)).zip(tuples) {
            let price = self.price[tuple];
            let sigma = self.sigma[tuple];
            let drift = self.mu[tuple] - 0.5 * sigma * sigma;
            let horizon = self.horizon[tuple];
            let log_s0 = price.ln();
            // The cell is keyed by the stock's driver group, so every trade
            // of one stock walks the same day-by-day path and a
            // short-horizon trade stops partway along it.
            let stock = self.group[tuple];
            draw_cells(column_prefix, stock, scenarios.clone(), row, |rng| {
                let mut log_s = log_s0;
                for _ in 1..=horizon {
                    let z: f64 = StandardNormal.sample(rng);
                    log_s += drift + sigma * z;
                }
                log_s.exp() - price
            });
        }
    }

    fn mean(&self, tuple: usize) -> Option<f64> {
        // E[S_t] = S_0 * exp(mu * t) for the discretized GBM above
        // (each day multiplies the price by exp(N(mu - sigma^2/2, sigma^2))
        // whose mean is exp(mu)).
        let t = f64::from(self.horizon[tuple]);
        Some(self.price[tuple] * (self.mu[tuple] * t).exp() - self.price[tuple])
    }

    fn std_dev(&self, tuple: usize) -> Option<f64> {
        // S_t is log-normal with log-variance sigma^2 * t, so
        // sd(S_t) = E[S_t] * sqrt(exp(sigma^2 * t) - 1); subtracting the buy
        // price shifts the gain without changing its spread.
        let t = f64::from(self.horizon[tuple]);
        let sigma = self.sigma[tuple];
        let growth = self.price[tuple] * (self.mu[tuple] * t).exp();
        Some(growth * (sigma * sigma * t).exp_m1().sqrt())
    }

    fn validate(&self) -> Result<()> {
        let n = self.price.len();
        for (what, len) in [
            ("mu", self.mu.len()),
            ("sigma", self.sigma.len()),
            ("horizon", self.horizon.len()),
            ("group", self.group.len()),
        ] {
            if len != n {
                return Err(McdbError::InvalidVgParameter {
                    vg: "geometric-brownian-motion",
                    message: format!("{what} has {len} entries, expected {n}"),
                });
            }
        }
        for i in 0..n {
            let (price, mu, sigma) = (self.price[i], self.mu[i], self.sigma[i]);
            let ok = positive_finite(price)
                && mu.is_finite()
                && sigma.is_finite()
                && sigma >= 0.0
                && self.horizon[i] > 0;
            if !ok {
                return Err(McdbError::InvalidVgParameter {
                    vg: "geometric-brownian-motion",
                    message: format!("invalid parameters for tuple {i}"),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Discrete source mixture (TPC-H data-integration workload)
// ---------------------------------------------------------------------------

/// Data-integration uncertainty: for each tuple, `D` source values are fixed
/// at construction time; each scenario then picks one of the `D` sources
/// uniformly at random as the "true" value.
///
/// This models the paper's TPC-H workload where `D ∈ {3, 10}` data sources
/// were hypothetically integrated into one table.
#[derive(Debug, Clone)]
pub struct DiscreteSources {
    /// `source_values[i]` holds the D candidate values for tuple `i`.
    source_values: Vec<Vec<f64>>,
}

impl DiscreteSources {
    /// Build directly from explicit candidate values per tuple.
    pub fn from_candidates(source_values: Vec<Vec<f64>>) -> Result<Self> {
        if source_values.iter().any(Vec::is_empty) {
            return Err(McdbError::InvalidVgParameter {
                vg: "discrete-sources",
                message: "every tuple needs at least one candidate value".into(),
            });
        }
        Ok(DiscreteSources { source_values })
    }

    /// The candidate values for one tuple.
    pub fn candidates(&self, tuple: usize) -> &[f64] {
        &self.source_values[tuple]
    }
}

impl VgFunction for DiscreteSources {
    fn name(&self) -> &'static str {
        "discrete-sources"
    }

    fn len(&self) -> usize {
        self.source_values.len()
    }

    fn realize_block(
        &self,
        column_prefix: u64,
        tuples: &[usize],
        scenarios: Range<usize>,
        out: &mut [f64],
    ) {
        let m = scenarios.len();
        for (row, &tuple) in out.chunks_exact_mut(m.max(1)).zip(tuples) {
            let cands = &self.source_values[tuple];
            draw_cells(column_prefix, tuple as u64, scenarios.clone(), row, |rng| {
                cands[rng.gen_range(0..cands.len())]
            });
        }
    }

    fn mean(&self, tuple: usize) -> Option<f64> {
        let cands = &self.source_values[tuple];
        Some(cands.iter().sum::<f64>() / cands.len() as f64)
    }

    fn std_dev(&self, tuple: usize) -> Option<f64> {
        // Only the single-source case is answered. The population sd of
        // several sources is as cheap, but the partitions it induced on
        // TPC-H were measured worse than the sampled ones (ROADMAP, oracle
        // item), so those tuples keep `None`.
        self.is_scenario_invariant(tuple).then_some(0.0)
    }

    fn is_scenario_invariant(&self, tuple: usize) -> bool {
        // One candidate: the source draw cannot change the realized value.
        self.source_values[tuple].len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::{column_prefix, Stream};

    /// The first `n` scenarios of one tuple under `seed`'s validation
    /// stream.
    fn draws(vg: &dyn VgFunction, seed: u64, tuple: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        let prefix = column_prefix(seed, Stream::Validation, 1);
        vg.realize_block(prefix, &[tuple], 0..n, &mut out);
        out
    }

    fn empirical_mean(vg: &dyn VgFunction, tuple: usize, n: usize) -> f64 {
        draws(vg, 99, tuple, n).iter().sum::<f64>() / n as f64
    }

    fn empirical_sd(vg: &dyn VgFunction, tuple: usize, n: usize) -> f64 {
        let values = draws(vg, 99, tuple, n);
        let mean = values.iter().sum::<f64>() / n as f64;
        (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64).sqrt()
    }

    #[test]
    fn closed_form_std_dev_matches_the_empirical_spread_of_every_family() {
        let families: Vec<(Box<dyn VgFunction>, usize)> = vec![
            (
                Box::new(NormalNoise::around(vec![10.0, -4.0], vec![2.0, 0.5])),
                1,
            ),
            (Box::new(ParetoNoise::around(vec![1.0], 2.0, 12.0)), 0),
            (
                Box::new(GeometricBrownianMotion::new(
                    vec![100.0, 40.0],
                    vec![0.001, 0.0004],
                    vec![0.01, 0.03],
                    vec![5, 20],
                    vec![0, 1],
                )),
                1,
            ),
        ];
        for (vg, tuple) in &families {
            vg.validate().unwrap();
            let analytic = vg.std_dev(*tuple).expect("a closed form");
            let empirical = empirical_sd(vg.as_ref(), *tuple, 20_000);
            assert!(
                (analytic - empirical).abs() <= 0.03 * analytic,
                "{}: analytic {analytic} vs empirical {empirical}",
                vg.name()
            );
        }
    }

    #[test]
    fn std_dev_is_none_without_a_variance_and_zero_where_invariant() {
        // Infinite or undefined variance: α ≤ 2.
        for shape in [0.5, 1.0, 2.0] {
            let pareto = ParetoNoise::around(vec![1.0], 1.0, shape);
            assert_eq!(pareto.std_dev(0), None);
        }
        assert!(ParetoNoise::around(vec![1.0], 1.0, 2.5)
            .std_dev(0)
            .is_some());

        // Wherever a tuple is provably scenario-invariant its spread is
        // exactly zero; the same models answer non-zero (or `None`) for
        // their noisy tuples.
        let sources =
            DiscreteSources::from_candidates(vec![vec![1.0, 2.0, 3.0], vec![10.0]]).unwrap();
        let families: Vec<Box<dyn VgFunction>> = vec![
            Box::new(Degenerate::new(vec![1.0, 2.0])),
            Box::new(NormalNoise::around(vec![5.0, 5.0], vec![0.0, 1.0])),
            Box::new(sources),
        ];
        for vg in &families {
            let mut invariant = 0;
            for tuple in 0..vg.len() {
                if vg.is_scenario_invariant(tuple) {
                    assert_eq!(vg.std_dev(tuple), Some(0.0), "{} #{tuple}", vg.name());
                    invariant += 1;
                } else {
                    assert_ne!(vg.std_dev(tuple), Some(0.0), "{} #{tuple}", vg.name());
                }
            }
            assert!(invariant > 0, "{} has an invariant tuple", vg.name());
        }
        // A multi-source tuple keeps the sampled feature path.
        assert_eq!(families[2].std_dev(0), None);
    }

    #[test]
    fn degenerate_always_returns_base() {
        let vg = Degenerate::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(draws(&vg, 0, 1, 8), vec![2.0; 8]);
        assert_eq!(vg.mean(2), Some(3.0));
        assert_eq!(vg.len(), 3);
    }

    #[test]
    fn normal_noise_centers_on_base() {
        let vg = NormalNoise::around(vec![10.0, -4.0], 2.0);
        vg.validate().unwrap();
        assert_eq!(vg.mean(0), Some(10.0));
        let m = empirical_mean(&vg, 0, 4000);
        assert!((m - 10.0).abs() < 0.2, "empirical mean {m}");
    }

    #[test]
    fn normal_noise_zero_sigma_is_degenerate() {
        let vg = NormalNoise::around(vec![5.0], 0.0);
        assert_eq!(draws(&vg, 3, 0, 8), vec![5.0; 8]);
    }

    #[test]
    fn normal_noise_rejects_mismatched_sigma_len() {
        let vg = NormalNoise::around(vec![1.0, 2.0], vec![1.0]);
        assert!(vg.validate().is_err());
    }

    #[test]
    fn pareto_noise_is_nonnegative_increment() {
        let vg = ParetoNoise::around(vec![1.0; 4], 1.0, 1.0);
        vg.validate().unwrap();
        for v in draws(&vg, 5, 0, 200) {
            assert!(v >= 2.0); // base 1 + pareto(scale 1) >= 2
        }
        // Infinite mean for shape <= 1.
        assert_eq!(vg.mean(0), None);
        let finite = ParetoNoise::around(vec![0.0], 1.0, 3.0);
        assert!((finite.mean(0).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pareto_noise_rejects_nonpositive_shape() {
        let vg = ParetoNoise::around(vec![1.0], 1.0, 0.0);
        assert!(vg.validate().is_err());
    }

    type Build = fn(f64) -> Result<Box<dyn VgFunction>>;

    fn checked(vg: impl VgFunction + 'static) -> Result<Box<dyn VgFunction>> {
        vg.validate()?;
        Ok(Box::new(vg))
    }

    fn gbm(price: f64, mu: f64, sigma: f64) -> Result<Box<dyn VgFunction>> {
        checked(GeometricBrownianMotion::new(
            vec![price; 2],
            vec![mu; 2],
            vec![sigma; 2],
            vec![1, 3],
            vec![0, 0],
        ))
    }

    #[test]
    fn validate_rejects_exactly_the_parameters_a_kernel_cannot_draw() {
        const RATE_BAD: &[f64] = &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0];
        const RATE_OK: &[f64] = &[f64::MIN_POSITIVE, 0.5, 29.5, 30.0, 1e6, f64::MAX];
        const NON_FINITE: &[f64] = &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let cases: &[(&str, Build, &[f64], &[f64])] = &[
            (
                "pareto scale",
                |x| checked(ParetoNoise::around(vec![1.0, 2.0], x, 1.5)),
                RATE_BAD,
                RATE_OK,
            ),
            (
                "pareto shape",
                |x| checked(ParetoNoise::around(vec![1.0, 2.0], 1.5, x)),
                RATE_BAD,
                RATE_OK,
            ),
            (
                "normal σ",
                |x| checked(NormalNoise::around(vec![1.0, 2.0], x)),
                NON_FINITE,
                &[-1.0, 0.0, f64::MAX],
            ),
            (
                "gbm price",
                |x| gbm(x, 0.001, 0.02),
                RATE_BAD,
                &[f64::MIN_POSITIVE, 1.0, f64::MAX],
            ),
            (
                "gbm μ",
                |x| gbm(100.0, x, 0.02),
                NON_FINITE,
                &[-1.0, 0.0, 1.0],
            ),
            (
                "gbm σ",
                |x| gbm(100.0, 0.001, x),
                &[f64::INFINITY, f64::NAN, -0.5],
                &[0.0, 0.02, 3.0],
            ),
        ];
        for &(what, build, bad, ok) in cases {
            for &x in bad {
                assert!(build(x).is_err(), "{what} = {x} must be rejected");
            }
            for &x in ok {
                let vg = build(x).unwrap_or_else(|e| panic!("{what} = {x} rejected: {e}"));
                let mut out = vec![0.0; 2 * 16];
                vg.realize_block(
                    column_prefix(1, Stream::Validation, 2),
                    &[0, 1],
                    0..16,
                    &mut out,
                );
            }
        }
    }

    #[test]
    fn gbm_shares_path_within_group() {
        // Two trades of the same stock (group 0) with different horizons and
        // one trade of another stock (group 1).
        let vg = GeometricBrownianMotion::new(
            vec![100.0, 100.0, 50.0],
            vec![0.0005, 0.0005, 0.001],
            vec![0.02, 0.02, 0.03],
            vec![1, 5, 5],
            vec![0, 0, 1],
        );
        vg.validate().unwrap();
        assert_eq!(vg.driver_group(0), vg.driver_group(1));
        assert_ne!(vg.driver_group(0), vg.driver_group(2));

        // With a shared RNG stream, the 1-day gain is a prefix of the 5-day
        // path: walk the group's stream by hand and read both trades off it.
        let prefix = column_prefix(7, Stream::Optimization, 3);
        let mut out = vec![0.0; 3];
        vg.realize_block(prefix, &[0, 1, 2], 12..13, &mut out);
        let walk = |group: u64, days: u32, mu: f64, sigma: f64, price: f64| {
            let seed = cell_seed(group_seed(prefix, group), 12);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut log_s = price.ln();
            for _ in 0..days {
                let z: f64 = Normal::new(0.0, 1.0).unwrap().sample(&mut rng);
                log_s += (mu - 0.5 * sigma * sigma) + sigma * z;
            }
            log_s.exp() - price
        };
        assert_eq!(out[0], walk(0, 1, 0.0005, 0.02, 100.0));
        assert_eq!(out[1], walk(0, 5, 0.0005, 0.02, 100.0));
        assert_eq!(out[2], walk(1, 5, 0.001, 0.03, 50.0));
        // The two gains come from the same path but different days, so they
        // are generally different values.
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn gbm_mean_matches_analytic_growth() {
        let vg =
            GeometricBrownianMotion::new(vec![100.0], vec![0.001], vec![0.01], vec![5], vec![0]);
        let analytic = vg.mean(0).unwrap();
        let m = empirical_mean(&vg, 0, 20000);
        assert!(
            (m - analytic).abs() < 0.5,
            "empirical {m} vs analytic {analytic}"
        );
    }

    #[test]
    fn gbm_validate_checks_lengths_and_positivity() {
        let bad =
            GeometricBrownianMotion::new(vec![100.0], vec![0.0], vec![0.01], vec![1, 2], vec![0]);
        assert!(bad.validate().is_err());
        let bad2 =
            GeometricBrownianMotion::new(vec![-1.0], vec![0.0], vec![0.01], vec![1], vec![0]);
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn discrete_sources_picks_only_candidates() {
        let vg = DiscreteSources::from_candidates(vec![vec![1.0, 2.0, 3.0], vec![10.0]]).unwrap();
        for v in draws(&vg, 3, 0, 100) {
            assert!([1.0, 2.0, 3.0].contains(&v));
        }
        assert_eq!(draws(&vg, 3, 1, 100), vec![10.0; 100]);
        assert!((vg.mean(0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_sources_rejects_zero_sources() {
        assert!(DiscreteSources::from_candidates(vec![vec![]]).is_err());
    }

    #[test]
    fn per_tuple_accessors() {
        let f = PerTuple::Fixed(2.0);
        assert_eq!(f.get(10), 2.0);
        assert_eq!(f.len(), None);
        assert!(!f.is_empty());
        let e = PerTuple::Each(vec![1.0, 2.0]);
        assert_eq!(e.get(1), 2.0);
        assert_eq!(e.len(), Some(2));
        let from_vec: PerTuple = vec![3.0].into();
        assert_eq!(from_vec.get(0), 3.0);
        let from_f: PerTuple = 4.0.into();
        assert_eq!(from_f.get(123), 4.0);
    }
}
