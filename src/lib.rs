//! # stochastic-package-queries
//!
//! A from-scratch reproduction of *"Stochastic Package Queries in
//! Probabilistic Databases"* (Brucato, Yadav, Abouzied, Haas, Meliou —
//! SIGMOD 2020): in-database support for decision making under uncertainty
//! via package queries with stochastic constraints and objectives.
//!
//! This facade crate re-exports the member crates of the workspace:
//!
//! * [`mcdb`] — the Monte Carlo probabilistic database substrate (relations,
//!   VG functions, scenario generation).
//! * [`solver`] — a from-scratch MILP solver (simplex + branch-and-bound with
//!   indicator constraints), standing in for CPLEX.
//! * [`spaql`] — the sPaQL language: lexer, parser, AST, binder.
//! * [`core`] — the SPQ engine: SAA/Naïve, α-summaries, CSA/SummarySearch,
//!   out-of-sample validation, and approximation-guarantee bounds.
//! * [`sketch`] — SketchRefine: partition–sketch–refine evaluation that
//!   scales package queries to million-tuple relations (call
//!   [`sketch::install`] once to enable
//!   [`core::Algorithm::SketchRefine`]).
//! * [`workloads`] — synthetic Galaxy / Portfolio / TPC-H workloads and the
//!   paper's 24-query suite.
//! * [`net`] — zero-dependency event-driven networking: a poll(2) reactor
//!   over nonblocking sockets with capped per-connection buffers, idle
//!   timeouts, and graceful drain.
//! * [`service`] — the concurrent query service: the `spqd` server and `spq`
//!   client binaries on top of the [`net`] reactor, the NDJSON wire
//!   protocol, a multi-tenant relation catalog, prepared-query and
//!   single-flight result caches, and per-query deadlines/cancellation on
//!   top of [`solver::Deadline`].
//!
//! ## Quickstart
//!
//! ```
//! use stochastic_package_queries::prelude::*;
//!
//! // Three candidate trades with uncertain gains.
//! let relation = RelationBuilder::new("stock_investments")
//!     .deterministic_f64("price", vec![100.0, 100.0, 100.0])
//!     .stochastic("Gain", NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]))
//!     .build()
//!     .unwrap();
//!
//! let engine = SpqEngine::new(SpqOptions::for_tests());
//! let result = engine
//!     .evaluate(
//!         &relation,
//!         "SELECT PACKAGE(*) FROM stock_investments \
//!          SUCH THAT SUM(price) <= 200 AND \
//!          SUM(Gain) >= -1 WITH PROBABILITY >= 0.9 \
//!          MAXIMIZE EXPECTED SUM(Gain)",
//!         Algorithm::SummarySearch,
//!     )
//!     .unwrap();
//! assert!(result.feasible);
//! ```

pub use spq_core as core;
pub use spq_mcdb as mcdb;
pub use spq_net as net;
pub use spq_obs as obs;
pub use spq_service as service;
pub use spq_sketch as sketch;
pub use spq_solver as solver;
pub use spq_spaql as spaql;
pub use spq_workloads as workloads;

/// Convenient single import for applications.
pub mod prelude {
    pub use spq_core::{
        Algorithm, EvaluationResult, Package, SpqEngine, SpqOptions, ValidationReport,
    };
    pub use spq_mcdb::vg::{DiscreteSources, GeometricBrownianMotion, NormalNoise, ParetoNoise};
    pub use spq_mcdb::{Relation, RelationBuilder, ScenarioCache, ScenarioGenerator, Value};
    pub use spq_service::{ServerConfig, ServiceConfig, SpqServer, SpqService};
    pub use spq_sketch::install as install_sketch_refine;
    pub use spq_solver::{CancellationToken, Deadline};
    pub use spq_spaql::parse;
    pub use spq_workloads::{build_workload, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let relation = RelationBuilder::new("t")
            .deterministic_f64("price", vec![1.0, 2.0])
            .stochastic("gain", NormalNoise::around(vec![0.5, 0.7], 0.1))
            .build()
            .unwrap();
        assert_eq!(relation.len(), 2);
        let query = parse("SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) <= 1").unwrap();
        assert_eq!(query.table, "t");
        let engine = SpqEngine::new(SpqOptions::for_tests());
        assert_eq!(engine.options().initial_summaries, 1);
        install_sketch_refine();
        assert_eq!(
            "sketch-refine".parse::<Algorithm>().unwrap(),
            Algorithm::SketchRefine
        );
    }
}
