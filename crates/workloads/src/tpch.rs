//! The TPC-H workload: data-integration uncertainty.
//!
//! Each tuple is a lineitem-like transaction whose `Quantity` and `Revenue`
//! are uncertain because the table was (hypothetically) integrated from `D`
//! data sources that disagree: for every original value we generate `D`
//! candidate values anchored around it, and each scenario picks one candidate
//! uniformly at random. The source dispersion follows the distribution listed
//! in Table 3 (exponential, Poisson, uniform, or Student's t).
//!
//! The queries pick between 1 and 10 transactions maximizing the probability
//! of a total revenue of at least 1000, subject to a probabilistic cap on the
//! total quantity.

use crate::spec::{query_spec, QuerySpec, WorkloadKind};
use crate::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, Poisson, StudentT};
use spq_mcdb::vg::DiscreteSources;
use spq_mcdb::{Relation, RelationBuilder};

/// The source-dispersion models of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Exponential(lambda).
    Exponential(f64),
    /// Poisson(lambda).
    Poisson(f64),
    /// Uniform(0, 1).
    Uniform,
    /// Student's t with `nu` degrees of freedom.
    StudentT(f64),
}

impl SourceModel {
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            SourceModel::Exponential(lambda) => {
                Exp::new(lambda).expect("lambda > 0").sample(rng) - 1.0 / lambda
            }
            SourceModel::Poisson(lambda) => {
                Poisson::new(lambda).expect("lambda > 0").sample(rng) - lambda
            }
            SourceModel::Uniform => rng.gen_range(0.0..1.0) - 0.5,
            SourceModel::StudentT(nu) => StudentT::new(nu).expect("nu > 0").sample(rng),
        }
    }
}

/// Configuration of the TPC-H dataset generator.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Number of transactions (tuples). The paper uses ~117,600.
    pub n_tuples: usize,
    /// Number of integrated data sources `D` (3 or 10 in the paper).
    pub d: usize,
    /// Dispersion model of the source values.
    pub model: SourceModel,
    /// Seed for base values and source candidates.
    pub seed: u64,
}

impl TpchConfig {
    /// A configuration matching query `q`'s uncertainty model (Table 3).
    pub fn for_query(q: usize, n_tuples: usize, seed: u64) -> Self {
        let (model, d) = match q {
            1 => (SourceModel::Exponential(1.0), 3),
            2 => (SourceModel::Exponential(1.0), 10),
            3 => (SourceModel::Poisson(2.0), 3),
            4 => (SourceModel::Poisson(1.0), 10),
            5 => (SourceModel::Uniform, 3),
            6 => (SourceModel::Uniform, 10),
            7 => (SourceModel::StudentT(2.0), 3),
            8 => (SourceModel::StudentT(2.0), 10),
            other => panic!("TPC-H has queries 1..=8, got {other}"),
        };
        TpchConfig {
            n_tuples,
            d,
            model,
            seed,
        }
    }
}

/// Build the TPC-H relation for a configuration.
pub fn build_relation(config: &TpchConfig) -> Relation {
    build_relation_with(config, spq_mcdb::StorageOptions::memory()).expect("valid tpch relation")
}

/// Build the TPC-H relation with an explicit storage tier: with
/// [`spq_mcdb::StorageOptions::disk`] the deterministic columns spill to
/// chunk files as they are appended; the per-source candidate tables (the
/// discrete mixtures' parameters) stay resident. Value-identical to
/// [`build_relation`] whatever the tier.
pub fn build_relation_with(
    config: &TpchConfig,
    storage: spq_mcdb::StorageOptions,
) -> spq_mcdb::Result<Relation> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x54504348);
    let n = config.n_tuples;
    let d = config.d.max(1);

    let mut orderkey = Vec::with_capacity(n);
    let mut base_quantity = Vec::with_capacity(n);
    let mut base_revenue = Vec::with_capacity(n);
    let mut quantity_candidates = Vec::with_capacity(n);
    let mut revenue_candidates = Vec::with_capacity(n);

    for i in 0..n {
        orderkey.push(i as i64 + 1);
        // Base quantities at least 4 (as in TPC-H, quantities are small
        // integers) and unit prices between 10 and 100.
        let quantity = rng.gen_range(4.0..28.0_f64).round();
        let unit_price = rng.gen_range(10.0..100.0_f64);
        let discount = rng.gen_range(0.0..0.1);
        let revenue = quantity * unit_price * (1.0 - discount);
        base_quantity.push(quantity);
        base_revenue.push(revenue);

        // D source candidates anchored on the base value (their mean equals
        // the base value), clamped to stay physically meaningful.
        let candidates = |base: f64, scale: f64, rng: &mut SmallRng, lo: f64| -> Vec<f64> {
            let mut devs: Vec<f64> = (0..d).map(|_| config.model.sample(rng) * scale).collect();
            let mean = devs.iter().sum::<f64>() / d as f64;
            for dv in &mut devs {
                *dv -= mean;
            }
            devs.into_iter().map(|dv| (base + dv).max(lo)).collect()
        };
        quantity_candidates.push(candidates(quantity, 2.0, &mut rng, 1.0));
        revenue_candidates.push(candidates(revenue, revenue * 0.15, &mut rng, 0.0));
    }

    RelationBuilder::new(format!("Tpch_{d}"))
        .storage(storage)
        .deterministic_i64("orderkey", orderkey)
        .deterministic_f64("base_quantity", base_quantity)
        .deterministic_f64("base_revenue", base_revenue)
        .stochastic(
            "Quantity",
            DiscreteSources::from_candidates(quantity_candidates).expect("non-empty candidates"),
        )
        .stochastic(
            "Revenue",
            DiscreteSources::from_candidates(revenue_candidates).expect("non-empty candidates"),
        )
        .build()
}

/// The sPaQL text of TPC-H query `q` (the Figure 9 template with Table 3
/// parameters).
pub fn query(q: usize) -> String {
    let spec: QuerySpec = query_spec(WorkloadKind::Tpch, q);
    let d = if spec.features.contains("D=10") {
        10
    } else {
        3
    };
    format!(
        "SELECT PACKAGE(*) FROM Tpch_{d} SUCH THAT \
         COUNT(*) BETWEEN 1 AND 10 AND \
         SUM(Quantity) <= {v} WITH PROBABILITY >= {p} \
         MAXIMIZE PROBABILITY OF SUM(Revenue) >= 1000",
        v = spec.v,
        p = spec.p,
    )
}

/// Build a complete TPC-H [`Workload`] (shared relation uses the query-1
/// model, `D = 3`, exponential dispersion).
pub fn build_workload(scale: usize, seed: u64) -> Workload {
    let config = TpchConfig::for_query(1, scale, seed);
    Workload {
        kind: WorkloadKind::Tpch,
        relation: build_relation(&config),
        queries: (1..=8).map(query).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_mcdb::ScenarioGenerator;

    /// The closed-form mean of every tuple's quantity.
    fn quantity_means(rel: &Relation) -> Vec<f64> {
        let vg = &rel.stochastic_column("Quantity").unwrap().vg;
        (0..rel.len()).map(|i| vg.mean(i).unwrap()).collect()
    }

    #[test]
    fn relations_have_the_expected_schema() {
        for q in 1..=8 {
            let rel = build_relation(&TpchConfig::for_query(q, 25, 9));
            assert_eq!(rel.len(), 25);
            assert!(rel.is_stochastic("Quantity"));
            assert!(rel.is_stochastic("Revenue"));
            assert!(rel.schema().contains("orderkey"));
        }
    }

    #[test]
    fn realized_values_are_among_the_d_candidates_and_anchored() {
        let config = TpchConfig::for_query(5, 10, 3);
        let rel = build_relation(&config);
        let base = rel.deterministic_f64("base_quantity").unwrap();
        let means = quantity_means(&rel);
        // The candidate mean equals the base value unless clamping at the
        // lower bound kicked in (which can only raise it).
        for (b, m) in base.iter().zip(&means) {
            assert!(m + 1e-9 >= *b - 1e-9);
            assert!((m - b).abs() < 3.0);
        }
        // Realizations stay >= 1 (physical quantity).
        let gen = ScenarioGenerator::new(4);
        let matrix = gen.realize_matrix(&rel, "Quantity", 20).unwrap();
        assert!(matrix.raw_data().iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn d_controls_the_number_of_distinct_realizations() {
        let rel3 = build_relation(&TpchConfig::for_query(1, 5, 7));
        let rel10 = build_relation(&TpchConfig::for_query(2, 5, 7));
        let gen = ScenarioGenerator::new(1);
        let distinct = |rel: &Relation| {
            let tuple0 = gen
                .realize_sparse_matrix_range(rel, "Quantity", &[0], 0..200, 0)
                .unwrap();
            let values: std::collections::BTreeSet<i64> = tuple0
                .raw_data()
                .iter()
                .map(|v| (v * 1e6).round() as i64)
                .collect();
            values.len()
        };
        assert!(distinct(&rel3) <= 3);
        assert!(distinct(&rel10) <= 10);
        assert!(distinct(&rel10) > 3);
    }

    #[test]
    fn queries_follow_table_3() {
        assert!(query(1).contains("Tpch_3"));
        assert!(query(2).contains("Tpch_10"));
        assert!(query(1).contains("<= 15 WITH PROBABILITY >= 0.9"));
        assert!(query(8).contains("<= 3 WITH PROBABILITY >= 0.95"));
        for q in 1..=8 {
            let text = query(q);
            assert!(text.contains("MAXIMIZE PROBABILITY OF SUM(Revenue) >= 1000"));
            assert!(spq_spaql::parse(&text).is_ok());
        }
    }

    #[test]
    fn q8_is_infeasible_by_construction() {
        // Every tuple's quantity candidates average to at least 4, so no
        // single tuple (and hence no non-empty package) can keep the total
        // quantity <= 3 in 95% of scenarios.
        let rel = build_relation(&TpchConfig::for_query(8, 40, 11));
        assert!(quantity_means(&rel).iter().all(|&m| m >= 3.5));
    }

    #[test]
    #[should_panic(expected = "queries 1..=8")]
    fn query_numbers_are_validated() {
        let _ = TpchConfig::for_query(12, 10, 0);
    }
}
