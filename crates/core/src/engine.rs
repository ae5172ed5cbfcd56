//! High-level query evaluation engine.
//!
//! [`SpqEngine`] ties the whole pipeline together: parse an sPaQL string,
//! bind it against a Monte Carlo relation, translate it into a SILP, prepare
//! the problem instance (expectation precomputation, multiplicity bounds,
//! scenario streams), and evaluate it with [`Algorithm::Naive`],
//! [`Algorithm::SummarySearch`], or [`Algorithm::SketchRefine`].
//!
//! SketchRefine lives in the separate `spq-sketch` crate (which builds on
//! this crate's instance/validation machinery, so `spq-core` cannot depend on
//! it directly). The engine dispatches to it through a process-global
//! evaluator hook that `spq_sketch::install()` registers once at startup.

use crate::instance::Instance;
use crate::naive::evaluate_naive;
use crate::options::SpqOptions;
use crate::package::EvaluationResult;
use crate::silp::Silp;
use crate::summary_search::evaluate_summary_search;
use crate::translate::translate;
use crate::{Result, SpqError};
use spq_mcdb::Relation;
use spq_spaql::{bind, parse};
use std::sync::OnceLock;

/// Which evaluation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 1: the SAA optimize/validate loop.
    Naive,
    /// Algorithm 2: conservative summary approximations.
    SummarySearch,
    /// Partition–sketch–refine evaluation that scales to very large
    /// relations; provided by the `spq-sketch` crate (call
    /// `spq_sketch::install()` before evaluating with this variant).
    SketchRefine,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Naive => write!(f, "Naive"),
            Algorithm::SummarySearch => write!(f, "SummarySearch"),
            Algorithm::SketchRefine => write!(f, "SketchRefine"),
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = SpqError;

    /// Parse an algorithm name, ignoring case, hyphens and underscores
    /// (`"naive"`, `"summary-search"`, `"SketchRefine"`, ...).
    fn from_str(s: &str) -> Result<Algorithm> {
        let canon: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        match canon.as_str() {
            "naive" => Ok(Algorithm::Naive),
            "summarysearch" => Ok(Algorithm::SummarySearch),
            "sketchrefine" => Ok(Algorithm::SketchRefine),
            _ => Err(SpqError::Unsupported(format!(
                "unknown algorithm `{s}` (expected Naive, SummarySearch or SketchRefine)"
            ))),
        }
    }
}

/// Signature of the SketchRefine evaluator provided by the `spq-sketch`
/// crate.
pub type SketchRefineEvaluator = fn(&Instance<'_>) -> Result<EvaluationResult>;

static SKETCH_REFINE: OnceLock<SketchRefineEvaluator> = OnceLock::new();

/// Register the SketchRefine evaluator. Called (idempotently) by
/// `spq_sketch::install()`; the first registration wins.
pub fn register_sketch_refine(evaluator: SketchRefineEvaluator) {
    let _ = SKETCH_REFINE.set(evaluator);
}

fn evaluate_sketch_refine(instance: &Instance<'_>) -> Result<EvaluationResult> {
    match SKETCH_REFINE.get() {
        Some(evaluator) => evaluator(instance),
        None => Err(SpqError::Unsupported(
            "Algorithm::SketchRefine needs the spq-sketch crate; \
             call spq_sketch::install() once before evaluating"
                .into(),
        )),
    }
}

/// The stochastic package query engine.
#[derive(Debug, Clone, Default)]
pub struct SpqEngine {
    options: SpqOptions,
}

impl SpqEngine {
    /// Create an engine with the given options.
    pub fn new(options: SpqOptions) -> Self {
        SpqEngine { options }
    }

    /// The engine's options.
    pub fn options(&self) -> &SpqOptions {
        &self.options
    }

    /// Parse, bind, translate and evaluate an sPaQL query string.
    pub fn evaluate(
        &self,
        relation: &Relation,
        query: &str,
        algorithm: Algorithm,
    ) -> Result<EvaluationResult> {
        let silp = self.compile(relation, query)?;
        self.evaluate_silp(relation, silp, algorithm)
    }

    /// Parse, bind and translate a query without evaluating it.
    pub fn compile(&self, relation: &Relation, query: &str) -> Result<Silp> {
        let parsed = {
            let _span = spq_obs::span("parse");
            parse(query)?
        };
        let bound = {
            let _span = spq_obs::span("bind");
            bind(&parsed, relation)?
        };
        let _span = spq_obs::span("translate");
        translate(&bound, relation)
    }

    /// Evaluate an already-translated SILP.
    pub fn evaluate_silp(
        &self,
        relation: &Relation,
        silp: Silp,
        algorithm: Algorithm,
    ) -> Result<EvaluationResult> {
        let _span = spq_obs::span("solve");
        let instance = Instance::new(relation, silp, self.options.clone())?;
        match algorithm {
            Algorithm::Naive => evaluate_naive(&instance),
            Algorithm::SummarySearch => evaluate_summary_search(&instance),
            Algorithm::SketchRefine => evaluate_sketch_refine(&instance),
        }
    }

    /// Prepare an [`Instance`] for callers that want to drive the lower-level
    /// APIs (formulations, validation, CSA-Solve) directly.
    pub fn prepare<'a>(&self, relation: &'a Relation, silp: Silp) -> Result<Instance<'a>> {
        Instance::new(relation, silp, self.options.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;

    fn relation() -> Relation {
        RelationBuilder::new("stock_investments")
            .deterministic_text("stock", vec!["AAPL", "MSFT", "TSLA", "NVDA"])
            .deterministic_f64("price", vec![100.0, 100.0, 100.0, 100.0])
            .stochastic(
                "Gain",
                NormalNoise::around(vec![5.0, 4.0, 1.0, 0.5], vec![1.0, 8.0, 0.2, 0.1]),
            )
            .build()
            .unwrap()
    }

    const QUERY: &str = "SELECT PACKAGE(*) AS Portfolio FROM Stock_Investments \
                         SUCH THAT SUM(price) <= 300 AND \
                         SUM(Gain) >= -1 WITH PROBABILITY >= 0.9 \
                         MAXIMIZE EXPECTED SUM(Gain)";

    #[test]
    fn end_to_end_with_both_algorithms() {
        let rel = relation();
        let engine = SpqEngine::new(SpqOptions {
            initial_scenarios: 15,
            ..SpqOptions::for_tests()
        });
        for algorithm in [Algorithm::Naive, Algorithm::SummarySearch] {
            let result = engine.evaluate(&rel, QUERY, algorithm).unwrap();
            assert!(result.feasible, "{algorithm} failed: {:?}", result.stats);
            let package = result.package.unwrap();
            assert!(package.size() > 0 && package.size() <= 3);
            // The description mentions actual stock names.
            let text = package.describe(&rel);
            assert!(text.contains("price"));
        }
    }

    #[test]
    fn compile_produces_a_silp() {
        let rel = relation();
        let engine = SpqEngine::new(SpqOptions::for_tests());
        let silp = engine.compile(&rel, QUERY).unwrap();
        assert_eq!(silp.num_vars(), 4);
        let probabilistic = silp
            .constraints
            .iter()
            .filter(|c| c.kind.is_probabilistic());
        assert_eq!(probabilistic.count(), 1);
    }

    #[test]
    fn parse_errors_are_propagated() {
        let rel = relation();
        let engine = SpqEngine::new(SpqOptions::for_tests());
        assert!(engine
            .evaluate(&rel, "SELECT nothing", Algorithm::Naive)
            .is_err());
        assert!(engine
            .evaluate(
                &rel,
                "SELECT PACKAGE(*) FROM t SUCH THAT SUM(missing) <= 1",
                Algorithm::Naive
            )
            .is_err());
    }

    #[test]
    fn prepare_exposes_the_low_level_instance() {
        let rel = relation();
        let engine = SpqEngine::new(SpqOptions::for_tests());
        let silp = engine.compile(&rel, QUERY).unwrap();
        let instance = engine.prepare(&rel, silp).unwrap();
        assert_eq!(instance.num_vars(), 4);
        assert_eq!(engine.options().seed, instance.options.seed);
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Naive.to_string(), "Naive");
        assert_eq!(Algorithm::SummarySearch.to_string(), "SummarySearch");
        assert_eq!(Algorithm::SketchRefine.to_string(), "SketchRefine");
    }

    #[test]
    fn algorithm_from_str_accepts_flexible_spellings() {
        for (text, expected) in [
            ("naive", Algorithm::Naive),
            ("Naive", Algorithm::Naive),
            ("summarysearch", Algorithm::SummarySearch),
            ("summary-search", Algorithm::SummarySearch),
            ("Summary_Search", Algorithm::SummarySearch),
            ("SketchRefine", Algorithm::SketchRefine),
            ("sketch-refine", Algorithm::SketchRefine),
            ("SKETCH_REFINE", Algorithm::SketchRefine),
        ] {
            assert_eq!(text.parse::<Algorithm>().unwrap(), expected, "{text}");
        }
        assert!("cplex".parse::<Algorithm>().is_err());
        assert!("".parse::<Algorithm>().is_err());
    }

    #[test]
    fn sketch_refine_without_registration_is_a_clear_error() {
        // spq-core's own test binary never links spq-sketch, so the hook is
        // guaranteed to be empty here.
        let rel = relation();
        let engine = SpqEngine::new(SpqOptions::for_tests());
        let err = engine
            .evaluate(&rel, QUERY, Algorithm::SketchRefine)
            .unwrap_err();
        assert!(
            err.to_string().contains("spq_sketch::install"),
            "unexpected error: {err}"
        );
    }
}
