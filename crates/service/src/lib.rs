//! # spq-service — a concurrent stochastic package query service
//!
//! The rest of the workspace evaluates one query at a time from a test or
//! harness binary. This crate turns the pipeline into a long-running,
//! multi-tenant **query service**: the `spqd` server binary loads relations,
//! listens on TCP, and evaluates many sPaQL queries concurrently over shared
//! relations; the `spq` client binary talks to it.
//!
//! Layering (transport-agnostic core, thin TCP shell):
//!
//! * [`json`] — a minimal JSON parser/writer (the workspace's `serde` is an
//!   API stub, so the wire format is hand-rolled).
//! * [`protocol`] — the NDJSON request/response types: queries, `cancel`,
//!   `stats`, `ping`, catalog ops (`load_relation` / `unload_relation` /
//!   `list_relations`); statuses `ok` / `rejected` / `cancelled` /
//!   `timeout` / `error`.
//! * [`catalog`] — the **multi-tenant relation catalog**: per-tenant
//!   namespaces that shadow a shared (startup) namespace, admission quotas
//!   on relation count and resident tuples, and per-tenant admit/reject
//!   accounting.
//! * [`prepared`] — the **prepared-query cache**: parse → bind → translate
//!   once per `(relation, query text)`, re-evaluated under any algorithm,
//!   seed or budget.
//! * [`results`] — the **deterministic result cache** with single-flight
//!   coalescing: identical concurrent requests run one solve and share its
//!   `ok` response.
//! * [`service`] — [`SpqService`]: the catalog, all three caches, and
//!   deterministic request execution (same request ⇒ bit-identical package,
//!   serial or concurrent).
//! * [`server`] — [`SpqServer`]: a [`spq_net`] poll(2) reactor feeding a
//!   tenant-fair worker pool with bounded-queue admission control;
//!   per-query deadlines and cooperative cancellation ride on
//!   [`spq_solver::Deadline`], which the solver polls inside its pivot
//!   loops, and a dropped connection cancels its in-flight solves.
//!
//! Scenario generation is pooled across queries through
//! [`spq_mcdb::ScenarioCache`], which [`SpqService`] injects into every
//! evaluation's [`spq_core::SpqOptions`]: concurrent solves over the same
//! relation share realized scenario blocks instead of regenerating them.
//!
//! ## In-process quickstart
//!
//! ```
//! use spq_service::prelude::*;
//! use spq_mcdb::{RelationBuilder, vg::NormalNoise};
//! use std::time::Duration;
//!
//! let service = SpqService::new(ServiceConfig {
//!     base_options: spq_core::SpqOptions::for_tests(),
//!     ..Default::default()
//! });
//! let relation = RelationBuilder::new("t")
//!     .deterministic_f64("price", vec![100.0, 100.0, 100.0])
//!     .stochastic("gain", NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]))
//!     .build()
//!     .unwrap();
//! service.register_relation("t", relation);
//!
//! let request = QueryRequest {
//!     id: "q1".into(),
//!     relation: "t".into(),
//!     query: "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND \
//!             SUM(gain) >= -1 WITH PROBABILITY >= 0.9 \
//!             MAXIMIZE EXPECTED SUM(gain)".into(),
//!     tenant: None,
//!     algorithm: None,
//!     timeout_ms: Some(30_000),
//!     seed: None,
//!     initial_scenarios: Some(15),
//!     max_scenarios: None,
//!     validation_scenarios: Some(400),
//! };
//! // The request's deadline carries the token another thread may cancel.
//! let token = spq_solver::CancellationToken::new();
//! let deadline = service.deadline_with(request.timeout_ms, &token);
//! let response = service.execute(&request, deadline, Duration::ZERO);
//! assert_eq!(response.status, QueryStatus::Ok);
//! assert!(response.feasible);
//! ```
//!
//! Over TCP the same exchange is one NDJSON line each way; see [`protocol`]
//! for the wire format and the repository README for the `spqd`/`spq`
//! command-line interface.

pub mod catalog;
pub mod json;
pub mod prepared;
pub mod protocol;
pub mod results;
pub mod server;
pub mod service;

pub use catalog::{Catalog, CatalogError, RelationSource, TenantQuotas, DEFAULT_TENANT};
pub use json::Json;
pub use prepared::PreparedCache;
pub use protocol::{
    LoadRequest, QueryRequest, QueryResponse, QueryStatus, Request, ValidateRequest,
    ValidateResponse,
};
pub use results::ResultCache;
pub use server::{ServerConfig, SpqServer};
pub use service::{ServiceConfig, SpqService};

/// Convenient single import for embedding the service.
pub mod prelude {
    pub use crate::catalog::{Catalog, RelationSource, TenantQuotas, DEFAULT_TENANT};
    pub use crate::protocol::{
        LoadRequest, QueryRequest, QueryResponse, QueryStatus, Request, ValidateRequest,
        ValidateResponse,
    };
    pub use crate::results::ResultCache;
    pub use crate::server::{ServerConfig, SpqServer};
    pub use crate::service::{ServiceConfig, SpqService};
}
