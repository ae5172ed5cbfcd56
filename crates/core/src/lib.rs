//! # spq-core — the stochastic package query engine
//!
//! This crate implements the primary contribution of *"Stochastic Package
//! Queries in Probabilistic Databases"* (SIGMOD 2020): in-database evaluation
//! of package queries with stochastic constraints and objectives over a
//! Monte Carlo probabilistic database.
//!
//! The pipeline is:
//!
//! 1. **Parse & bind** an sPaQL query ([`spq_spaql`]) against a Monte Carlo
//!    relation ([`spq_mcdb`]).
//! 2. **Translate** it into a stochastic integer linear program
//!    ([`silp::Silp`], [`translate()`]).
//! 3. **Evaluate** it with one of three algorithms:
//!    * [`naive`] — Algorithm 1, the SAA optimize/validate loop from the
//!      stochastic-programming literature;
//!    * [`summary_search`] — Algorithm 2, the paper's SummarySearch, which
//!      replaces the `M` scenarios of the SAA with `Z ≪ M` conservative
//!      *α-summaries* ([`summary`]), searches for minimally conservative
//!      summaries with CSA-Solve (Algorithm 3, in the same module, with the
//!      α search of [`alpha`]), and certifies `(1 + ε)`-approximation via
//!      the bounds of [`bounds`];
//!    * [`Algorithm::SketchRefine`] — partition–sketch–refine evaluation for
//!      very large relations, provided by the separate `spq-sketch` crate
//!      and dispatched through [`register_sketch_refine`].
//! 4. **Validate** every candidate package out-of-sample with the blocked,
//!    parallel, one-pass validator ([`validation`]), optionally with
//!    adaptive `M̂` early stopping inside the search loops.
//!
//! The easiest entry point is [`SpqEngine`]:
//!
//! ```
//! use spq_core::{Algorithm, SpqEngine, SpqOptions};
//! use spq_mcdb::{RelationBuilder, vg::NormalNoise};
//!
//! let relation = RelationBuilder::new("stock_investments")
//!     .deterministic_f64("price", vec![100.0, 100.0, 100.0])
//!     .stochastic("Gain", NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]))
//!     .build()
//!     .unwrap();
//! let engine = SpqEngine::new(SpqOptions::for_tests());
//! let result = engine
//!     .evaluate(
//!         &relation,
//!         "SELECT PACKAGE(*) FROM stock_investments \
//!          SUCH THAT SUM(price) <= 200 AND \
//!          SUM(Gain) >= -1 WITH PROBABILITY >= 0.9 \
//!          MAXIMIZE EXPECTED SUM(Gain)",
//!         spq_core::Algorithm::SummarySearch,
//!     )
//!     .unwrap();
//! assert!(result.feasible);
//! ```

pub mod alpha;
pub mod bounds;
pub mod engine;
pub mod error;
pub mod instance;
pub mod naive;
pub mod options;
pub mod package;
pub mod saa;
pub mod silp;
pub mod summary;
pub mod summary_search;
pub mod translate;
pub mod validation;

pub use engine::{register_sketch_refine, Algorithm, SketchRefineEvaluator, SpqEngine};
pub use error::SpqError;
pub use instance::Instance;
pub use options::{SketchOptions, SpqOptions};
pub use package::{EvaluationResult, EvaluationStats, Package};
pub use silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective};
pub use translate::translate;
pub use validation::{validate, validate_with, EarlyStop, ValidationOptions, ValidationReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SpqError>;
