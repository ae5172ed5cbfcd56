//! # spq-mcdb — Monte Carlo probabilistic database substrate
//!
//! This crate implements the Monte Carlo data model used by stochastic
//! package queries (SPQs), following the MCDB/SimSQL approach referenced by
//! the paper: uncertain attribute values are modeled as random variables
//! whose realizations are produced by *variable generation (VG) functions*.
//! A *scenario* is a deterministic realization of every random variable in a
//! relation; scenarios are mutually independent and identically distributed.
//!
//! The main types are:
//!
//! * [`Relation`] — an in-memory relation with deterministic columns
//!   ([`Value`]-typed) and stochastic columns backed by [`VgFunction`]s.
//! * [`Schema`] / [`ColumnDef`] — column metadata.
//! * [`vg`] — the VG function implementations (Gaussian, Pareto, geometric
//!   Brownian motion, discrete source mixtures for data-integration
//!   uncertainty, and the degenerate deterministic model).
//! * [`ScenarioGenerator`] — seeded generation of `tuples × scenarios`
//!   blocks through each VG function's block kernel. Any tuple subset over
//!   any scenario window realizes the same values, so *tuple-wise* and
//!   *scenario-wise* generation orders (Section 5.5 of the paper) agree bit
//!   for bit.
//! * [`ExpectationEstimator`] — streaming estimation of per-tuple expected
//!   values over a large out-of-sample scenario set.
//!
//! ```
//! use spq_mcdb::{RelationBuilder, vg::NormalNoise, ScenarioGenerator};
//!
//! let relation = RelationBuilder::new("sensors")
//!     .deterministic_f64("base", vec![10.0, 20.0, 30.0])
//!     .stochastic("reading", NormalNoise::around(vec![10.0, 20.0, 30.0], 1.0))
//!     .build()
//!     .unwrap();
//! let gen = ScenarioGenerator::new(42);
//! // The first 8 scenarios of the column: one row of 3 tuple values each.
//! let matrix = gen.realize_matrix(&relation, "reading", 8).unwrap();
//! assert_eq!((matrix.num_scenarios(), matrix.num_tuples()), (8, 3));
//! // Any block of it, e.g. tuples 2 and 0 in scenarios 5..8, holds the
//! // same values.
//! let block = gen
//!     .realize_sparse_matrix_range(&relation, "reading", &[2, 0], 5..8, 0)
//!     .unwrap();
//! assert_eq!(block.value(0, 1), matrix.value(5, 0));
//! ```

pub mod blockfile;
pub mod cache;
pub mod column;
pub mod error;
pub mod expectation;
pub mod memo;
pub mod relation;
pub mod scenario;
pub mod schema;
pub mod seed;
pub mod store;
pub mod value;
pub mod vg;

pub use cache::ScenarioCache;
pub use column::{ChunkCacheStats, ColumnStorage, DiskOptions, StorageOptions};
pub use error::McdbError;
pub use expectation::ExpectationEstimator;
pub use memo::{Lookup, Memo, MemoStats};
pub use relation::{Relation, RelationBuilder, StochasticColumn};
pub use scenario::{available_cores, workers, ScenarioGenerator, ScenarioMatrix};
pub use schema::{ColumnDef, ColumnKind, Schema};
pub use store::{ScenarioStore, StoreStats};
pub use value::Value;
pub use vg::VgFunction;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, McdbError>;
