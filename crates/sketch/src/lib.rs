//! # spq-sketch — SketchRefine for stochastic package queries
//!
//! SummarySearch (the paper's Algorithm 2) keeps the number of *scenarios*
//! in each MILP small, but every candidate tuple still becomes a decision
//! variable, so solve cost grows with the relation. This crate implements
//! the partition–sketch–refine strategy of *Stochastic SketchRefine* (Haque
//! et al., 2024; see `PAPERS.md`), which also bounds the number of
//! *variables* per MILP and thereby scales stochastic package queries to
//! million-tuple relations:
//!
//! 1. [`features`] embeds every candidate tuple into a normalized feature
//!    space built from the distributions of the attributes the query reads
//!    (expectation and spread per stochastic column, value per deterministic
//!    column).
//! 2. [`hierarchy`] groups distributionally similar tuples with a
//!    deterministic, diameter-bounded *hierarchical* sweep in the style of
//!    DistPartition: fixed-size feature blocks are routed by resident
//!    `[min, max]` envelopes and only blocks a split straddles are paged
//!    in; each leaf elects a *medoid* representative — a real tuple, so
//!    sketch answers are themselves valid packages.
//! 3. [`evaluate`] solves the *sketch* query over the representatives (each
//!    granted the multiplicity capacity of its whole partition), then
//!    *refines* the chosen partitions one at a time over their real tuples
//!    with the other partitions frozen, greedily falling back to the medoid
//!    allocation whenever a refine step fails to validate.
//!
//! ## Wiring into the engine
//!
//! `spq-core` cannot depend on this crate (SketchRefine builds on the
//! engine's own instance, SummarySearch, and validation machinery), so the
//! engine dispatches [`spq_core::Algorithm::SketchRefine`] through a
//! process-global hook. Call [`install`] once at startup:
//!
//! ```
//! use spq_core::{Algorithm, SpqEngine, SpqOptions};
//! use spq_mcdb::{vg::NormalNoise, RelationBuilder};
//!
//! spq_sketch::install();
//!
//! let relation = RelationBuilder::new("t")
//!     .deterministic_f64("price", vec![100.0, 100.0, 100.0])
//!     .stochastic("Gain", NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]))
//!     .build()
//!     .unwrap();
//! let engine = SpqEngine::new(SpqOptions::for_tests());
//! let result = engine
//!     .evaluate(
//!         &relation,
//!         "SELECT PACKAGE(*) FROM t \
//!          SUCH THAT SUM(price) <= 200 AND \
//!          SUM(Gain) >= -1 WITH PROBABILITY >= 0.9 \
//!          MAXIMIZE EXPECTED SUM(Gain)",
//!         Algorithm::SketchRefine,
//!     )
//!     .unwrap();
//! assert!(result.feasible);
//! ```
//!
//! [`evaluate_sketch_refine`] can also be invoked directly on a prepared
//! [`spq_core::Instance`], bypassing the hook.

pub mod evaluate;
pub mod features;
pub mod hierarchy;

pub use evaluate::evaluate_sketch_refine;
pub use hierarchy::{partition_hierarchical, BlockFeatures, Partitioning, BLOCK_ROWS};

/// Register [`evaluate_sketch_refine`] as the engine's
/// [`spq_core::Algorithm::SketchRefine`] evaluator. Idempotent; call once
/// before the first evaluation (e.g. at the top of `main`).
pub fn install() {
    spq_core::register_sketch_refine(evaluate_sketch_refine);
}

#[cfg(test)]
mod tests {
    #[test]
    fn install_registers_the_hook() {
        super::install();
        super::install(); // idempotent
        let relation = spq_mcdb::RelationBuilder::new("t")
            .stochastic(
                "gain",
                spq_mcdb::vg::NormalNoise::around(vec![0.5, 0.7], 0.1),
            )
            .build()
            .unwrap();
        let engine = spq_core::SpqEngine::new(spq_core::SpqOptions::for_tests());
        let query = "SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) <= 1 MAXIMIZE EXPECTED SUM(gain)";
        let result = engine.evaluate(&relation, query, spq_core::Algorithm::SketchRefine);
        assert!(result.is_ok(), "{result:?}");
    }
}
