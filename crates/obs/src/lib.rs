//! # spq-obs — workspace-wide observability
//!
//! Hand-rolled, zero-dependency metrics and tracing for the SPQ stack
//! (the vendored crates are API stubs, so nothing external is available).
//! Two halves:
//!
//! * [`metrics`] — a lock-free global registry of named [`Counter`]s and
//!   log-linear latency [`Histogram`]s (p50/p90/p99/max, mergeable across
//!   threads with bit-identical results), plus a Prometheus-style text
//!   exposition via [`metrics::prometheus_text`]. A count that belongs to
//!   one object (a cache, a store, a tenant) lives on that object and is
//!   read through the `stats` op; the registry holds process-wide work
//!   counters only.
//! * [`trace`] — lightweight [`trace::Span`]s recorded into per-thread
//!   ring buffers and exported as chrome-tracing JSON (loadable in
//!   `chrome://tracing` or Perfetto), gated by the `SPQ_TRACE` environment
//!   variable or an explicit [`trace::enable`] call (`--trace <path>` in
//!   the bench harnesses).
//!
//! ## Cost model
//!
//! Instrumentation is disabled by default and must never perturb results:
//!
//! * a counter increment is one relaxed atomic load (the registration
//!   flag) plus one relaxed `fetch_add` — no locks, no allocation;
//! * a span with tracing disabled is one relaxed atomic load and nothing
//!   else (no clock read, no allocation);
//! * nothing in this crate feeds back into control flow, so solver
//!   results are bit-identical with instrumentation on or off at any
//!   thread count.
//!
//! ## Example
//!
//! ```
//! use spq_obs::metrics::{Counter, Histogram, Named};
//!
//! static SOLVES: Named<Counter> = Named::new("doc_solves_total", Counter::new());
//! static LATENCY: Named<Histogram> = Named::new("doc_solve_latency_ns", Histogram::new());
//!
//! SOLVES.inc();
//! LATENCY.record(1_500_000); // nanoseconds
//! assert_eq!(spq_obs::metrics::counter_value("doc_solves_total"), Some(1));
//! assert!(spq_obs::metrics::prometheus_text().contains("doc_solves_total 1"));
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Histogram, Named};
pub use trace::{span, Span};
