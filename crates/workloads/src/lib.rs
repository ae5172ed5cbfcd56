//! # spq-workloads — the paper's experimental workloads, synthesized
//!
//! The paper evaluates Naïve and SummarySearch on three workloads
//! (Section 6.1, Table 3):
//!
//! * **Galaxy** — noisy sensor readings: SDSS sky-region fluxes with Gaussian
//!   or Pareto noise; queries pick 5–10 regions minimizing expected total
//!   flux subject to a probabilistic bound on the total flux.
//! * **Portfolio** — financial predictions: stock trades whose future gains
//!   follow geometric Brownian motion; queries maximize expected gain subject
//!   to a budget and a Value-at-Risk-style probabilistic loss bound.
//! * **TPC-H** — data-integration uncertainty: lineitem-like tuples whose
//!   quantity and revenue are discrete mixtures over `D` integrated sources;
//!   queries maximize the probability of high revenue subject to a
//!   probabilistic quantity cap.
//!
//! The original datasets (SDSS DR12, Yahoo Finance, the TPC-H generator) are
//! not redistributable, so this crate builds *synthetic* datasets that
//! preserve the schemas, uncertainty models, and query parameters of Table 3.
//! Each workload module exposes a config, a relation builder, and the eight
//! sPaQL queries (`Q1`–`Q8`).

pub mod galaxy;
pub mod portfolio;
pub mod spec;
pub mod tpch;

pub use galaxy::{GalaxyConfig, GalaxyNoise};
pub use portfolio::{Horizon, PortfolioConfig};
pub use spec::{all_query_specs, QuerySpec, Supportiveness, WorkloadKind};
pub use tpch::TpchConfig;

use spq_mcdb::Relation;

/// A workload instance: a relation plus its eight queries.
pub struct Workload {
    /// Which of the three paper workloads this is.
    pub kind: WorkloadKind,
    /// The synthesized relation.
    pub relation: Relation,
    /// sPaQL text for queries Q1–Q8 (index 0 = Q1).
    pub queries: Vec<String>,
}

impl Workload {
    /// The sPaQL text of query `q` (1-based, `1..=8`).
    pub fn query(&self, q: usize) -> &str {
        &self.queries[q - 1]
    }

    /// The specification row of Table 3 for query `q` (1-based).
    pub fn spec(&self, q: usize) -> QuerySpec {
        spec::query_spec(self.kind, q)
    }
}

/// Build a workload at a given scale (number of tuples) with a seed.
///
/// `scale` is the approximate number of tuples; each workload rounds it to
/// its natural granularity (e.g. Portfolio uses two tuples per stock).
pub fn build_workload(kind: WorkloadKind, scale: usize, seed: u64) -> Workload {
    match kind {
        WorkloadKind::Galaxy => galaxy::build_workload(scale, seed),
        WorkloadKind::Portfolio => portfolio::build_workload(scale, seed),
        WorkloadKind::Tpch => tpch::build_workload(scale, seed),
    }
}

/// Build a workload with an explicit storage tier for the relation's
/// deterministic columns.
///
/// With [`spq_mcdb::StorageOptions::disk`] the generators stream rows into
/// the builder (Portfolio appends stock by stock; the others spill as
/// columns are added), so million-tuple relations materialize to chunk files
/// instead of RAM. The relation is value-identical to [`build_workload`]'s
/// whatever the tier or chunk size.
pub fn build_workload_with(
    kind: WorkloadKind,
    scale: usize,
    seed: u64,
    storage: spq_mcdb::StorageOptions,
) -> spq_mcdb::Result<Workload> {
    let relation = match kind {
        WorkloadKind::Galaxy => {
            galaxy::build_relation_with(&GalaxyConfig::for_query(1, scale, seed), storage)?
        }
        WorkloadKind::Portfolio => {
            let config = PortfolioConfig {
                n_stocks: (scale / 2).max(4),
                horizon: Horizon::ShortTerm,
                most_volatile_only: false,
                seed,
            };
            portfolio::build_relation_with(&config, storage)?
        }
        WorkloadKind::Tpch => {
            tpch::build_relation_with(&TpchConfig::for_query(1, scale, seed), storage)?
        }
    };
    let queries = (1..=8)
        .map(|q| match kind {
            WorkloadKind::Galaxy => galaxy::query(q),
            WorkloadKind::Portfolio => portfolio::query(q),
            WorkloadKind::Tpch => tpch::query(q),
        })
        .collect();
    Ok(Workload {
        kind,
        relation,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_core::{Algorithm, SpqEngine, SpqOptions};

    #[test]
    fn all_workloads_build_and_parse() {
        for kind in [
            WorkloadKind::Galaxy,
            WorkloadKind::Portfolio,
            WorkloadKind::Tpch,
        ] {
            let w = build_workload(kind, 60, 1);
            assert!(w.relation.len() >= 40, "{kind:?} too small");
            assert_eq!(w.queries.len(), 8);
            for q in 1..=8 {
                let parsed = spq_spaql::parse(w.query(q)).expect("query parses");
                let bound = spq_spaql::bind(&parsed, &w.relation).expect("query binds");
                assert!(!bound.candidate_tuples.is_empty());
                let _ = w.spec(q);
            }
        }
    }

    #[test]
    fn workloads_scale_to_one_hundred_thousand_tuples() {
        // The SketchRefine scaling experiments need 100k–1M tuple relations;
        // generation must stay O(N) and finish promptly at that size.
        let started = std::time::Instant::now();
        for kind in [
            WorkloadKind::Galaxy,
            WorkloadKind::Portfolio,
            WorkloadKind::Tpch,
        ] {
            let w = build_workload(kind, 100_000, 9);
            assert!(
                w.relation.len() >= 90_000,
                "{kind:?} built only {} tuples",
                w.relation.len()
            );
            assert_eq!(w.queries.len(), 8);
            // Candidate binding over the full relation stays cheap too.
            let parsed = spq_spaql::parse(w.query(1)).unwrap();
            let bound = spq_spaql::bind(&parsed, &w.relation).unwrap();
            assert_eq!(bound.candidate_tuples.len(), w.relation.len());
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "100k-tuple generation took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn disk_backed_workloads_match_their_memory_twins() {
        use spq_mcdb::StorageOptions;
        let dir = std::env::temp_dir().join(format!("spq-wl-{}", std::process::id()));
        for kind in [
            WorkloadKind::Galaxy,
            WorkloadKind::Portfolio,
            WorkloadKind::Tpch,
        ] {
            let mem = build_workload(kind, 100, 7);
            let disk = build_workload_with(
                kind,
                100,
                7,
                StorageOptions::disk(dir.join(format!("{kind:?}"))).chunk_rows(16),
            )
            .expect("disk-backed build");
            assert_eq!(disk.relation.len(), mem.relation.len());
            assert_eq!(disk.relation.storage_kind(), "disk");
            assert_eq!(disk.relation.fingerprint(), mem.relation.fingerprint());
            for col in ["price", "base_petromag_r", "base_quantity"] {
                let (Ok(a), Ok(b)) = (
                    disk.relation.deterministic_f64(col),
                    mem.relation.deterministic_f64(col),
                ) else {
                    continue;
                };
                assert_eq!(a, b, "{kind:?} column {col}");
            }
            assert_eq!(
                disk.relation.value("id", 3).ok(),
                mem.relation.value("id", 3).ok()
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_galaxy_query_evaluates_end_to_end() {
        let w = build_workload(WorkloadKind::Galaxy, 50, 3);
        let engine = SpqEngine::new(SpqOptions {
            initial_scenarios: 15,
            validation_scenarios: 500,
            ..SpqOptions::for_tests()
        });
        let result = engine
            .evaluate(&w.relation, w.query(3), Algorithm::SummarySearch)
            .unwrap();
        assert!(result.package.is_some());
    }
}
