//! The Galaxy workload: noisy sensor measurements.
//!
//! Each tuple is a small sky region with a base radiation flux (the paper's
//! `Petromag_r` magnitude read by the SDSS telescope); the reading is
//! uncertain, modeled as Gaussian or Pareto noise around the base value.
//! The queries select between 5 and 10 regions minimizing the expected total
//! flux, subject to a probabilistic bound on the total flux (Figure 9).

use crate::spec::{query_spec, QuerySpec, Supportiveness, WorkloadKind};
use crate::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spq_mcdb::vg::{NormalNoise, ParetoNoise, PerTuple};
use spq_mcdb::{Relation, RelationBuilder, StorageOptions};

/// The noise model applied to the base flux readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GalaxyNoise {
    /// Gaussian noise with a shared standard deviation.
    Normal {
        /// Standard deviation.
        sigma: f64,
    },
    /// Gaussian noise with per-tuple standard deviations drawn from
    /// `|N(0, sigma_star)|`.
    NormalPerTuple {
        /// Spread of the per-tuple standard deviations.
        sigma_star: f64,
    },
    /// Pareto noise with shared scale and shape.
    Pareto {
        /// Scale parameter.
        scale: f64,
        /// Shape parameter.
        shape: f64,
    },
    /// Pareto noise with per-tuple scales drawn from `|N(0, scale_star)|`
    /// (clamped away from zero) and a shared shape.
    ParetoPerTuple {
        /// Spread of the per-tuple scales.
        scale_star: f64,
        /// Shape parameter.
        shape: f64,
    },
}

/// Configuration for the Galaxy dataset generator.
#[derive(Debug, Clone)]
pub struct GalaxyConfig {
    /// Number of sky regions (tuples). The paper uses 55,000–274,000.
    pub n_tuples: usize,
    /// Noise model for the flux readings.
    pub noise: GalaxyNoise,
    /// Seed for the base values and per-tuple noise parameters.
    pub seed: u64,
}

impl GalaxyConfig {
    /// A configuration matching query `q`'s uncertainty model (Table 3).
    pub fn for_query(q: usize, n_tuples: usize, seed: u64) -> Self {
        let noise = match q {
            1 => GalaxyNoise::Normal { sigma: 2.0 },
            2 => GalaxyNoise::NormalPerTuple { sigma_star: 3.0 },
            3 => GalaxyNoise::Normal { sigma: 2.0 },
            4 => GalaxyNoise::NormalPerTuple { sigma_star: 3.0 },
            5 => GalaxyNoise::Pareto {
                scale: 1.0,
                shape: 1.0,
            },
            6 => GalaxyNoise::ParetoPerTuple {
                scale_star: 1.0,
                shape: 1.0,
            },
            7 => GalaxyNoise::Pareto {
                scale: 1.0,
                shape: 1.0,
            },
            8 => GalaxyNoise::ParetoPerTuple {
                scale_star: 3.0,
                shape: 1.0,
            },
            other => panic!("Galaxy has queries 1..=8, got {other}"),
        };
        GalaxyConfig {
            n_tuples,
            noise,
            seed,
        }
    }
}

/// Build the Galaxy relation for a configuration.
pub fn build_relation(config: &GalaxyConfig) -> Relation {
    build_relation_with(config, StorageOptions::memory()).expect("valid galaxy relation")
}

/// Build the Galaxy relation with an explicit storage tier: with
/// [`StorageOptions::disk`] the deterministic columns spill to chunk files
/// as they are appended and only the noise-model parameter vectors stay
/// resident. Value-identical to [`build_relation`] whatever the tier.
pub fn build_relation_with(
    config: &GalaxyConfig,
    storage: StorageOptions,
) -> spq_mcdb::Result<Relation> {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x47414C41);
    let n = config.n_tuples;
    // Base magnitudes roughly in the range of SDSS r-band Petrosian
    // magnitudes for bright objects.
    let base: Vec<f64> = (0..n).map(|_| rng.gen_range(4.0..16.0)).collect();
    let region_id: Vec<i64> = (0..n as i64).collect();
    let right_ascension: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..360.0)).collect();
    let declination: Vec<f64> = (0..n).map(|_| rng.gen_range(-90.0..90.0)).collect();

    let builder = RelationBuilder::new("Galaxy")
        .storage(storage)
        .deterministic_i64("objid", region_id)
        .deterministic_f64("ra", right_ascension)
        .deterministic_f64("dec", declination)
        .deterministic_f64("base_petromag_r", base.clone());

    match config.noise {
        GalaxyNoise::Normal { sigma } => builder
            .stochastic("Petromag_r", NormalNoise::around(base, sigma))
            .build(),
        GalaxyNoise::NormalPerTuple { sigma_star } => {
            let sigmas: Vec<f64> = (0..n)
                .map(|_| {
                    let s: f64 = rng.gen_range(-sigma_star..sigma_star);
                    s.abs().max(1e-3)
                })
                .collect();
            builder
                .stochastic(
                    "Petromag_r",
                    NormalNoise::around(base, PerTuple::Each(sigmas)),
                )
                .build()
        }
        GalaxyNoise::Pareto { scale, shape } => builder
            .stochastic("Petromag_r", ParetoNoise::around(base, scale, shape))
            .build(),
        GalaxyNoise::ParetoPerTuple { scale_star, shape } => {
            let scales: Vec<f64> = (0..n)
                .map(|_| {
                    let s: f64 = rng.gen_range(-scale_star..scale_star);
                    s.abs().max(0.05)
                })
                .collect();
            builder
                .stochastic(
                    "Petromag_r",
                    ParetoNoise::around(base, PerTuple::Each(scales), shape),
                )
                .build()
        }
    }
}

/// The sPaQL text of Galaxy query `q` (Figure 9's templates with the Table 3
/// parameters).
pub fn query(q: usize) -> String {
    let spec: QuerySpec = query_spec(WorkloadKind::Galaxy, q);
    let inner_op = match spec.supportiveness {
        Supportiveness::Counteracted => ">=",
        _ => "<=",
    };
    format!(
        "SELECT PACKAGE(*) FROM Galaxy SUCH THAT \
         COUNT(*) BETWEEN 5 AND 10 AND \
         SUM(Petromag_r) {inner_op} {v} WITH PROBABILITY >= {p} \
         MINIMIZE EXPECTED SUM(Petromag_r)",
        v = spec.v,
        p = spec.p,
    )
}

/// Build a complete Galaxy [`Workload`]: one relation per query would be
/// wasteful, so the workload uses the query-1 uncertainty model for the
/// shared relation; benchmark harnesses that need per-query noise models use
/// [`GalaxyConfig::for_query`] and [`build_relation`] directly.
pub fn build_workload(scale: usize, seed: u64) -> Workload {
    let config = GalaxyConfig::for_query(1, scale, seed);
    Workload {
        kind: WorkloadKind::Galaxy,
        relation: build_relation(&config),
        queries: (1..=8).map(query).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_have_the_expected_schema() {
        for q in 1..=8 {
            let config = GalaxyConfig::for_query(q, 30, 7);
            let rel = build_relation(&config);
            assert_eq!(rel.len(), 30);
            assert!(rel.is_stochastic("Petromag_r"));
            assert!(!rel.is_stochastic("base_petromag_r"));
            assert!(rel.schema().contains("objid"));
        }
    }

    #[test]
    fn normal_noise_centers_on_base_values() {
        let config = GalaxyConfig::for_query(1, 10, 3);
        let rel = build_relation(&config);
        let base = rel.deterministic_f64("base_petromag_r").unwrap();
        let vg = &rel.stochastic_column("Petromag_r").unwrap().vg;
        for (i, b) in base.iter().enumerate() {
            assert!((b - vg.mean(i).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn pareto_noise_has_no_closed_form_mean() {
        let config = GalaxyConfig::for_query(5, 10, 3);
        let rel = build_relation(&config);
        assert!(!rel.stochastic_column("Petromag_r").unwrap().analytic);
    }

    #[test]
    fn queries_follow_the_supportiveness_of_table_3() {
        // Counteracted queries use >=; supported queries use <=.
        assert!(query(1).contains(">= 40"));
        assert!(query(3).contains("<= 50"));
        assert!(query(7).contains("<= 109"));
        for q in 1..=8 {
            let text = query(q);
            assert!(text.contains("MINIMIZE EXPECTED SUM(Petromag_r)"));
            assert!(text.contains("WITH PROBABILITY >= 0.9"));
            assert!(spq_spaql::parse(&text).is_ok());
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = build_relation(&GalaxyConfig::for_query(2, 20, 5));
        let b = build_relation(&GalaxyConfig::for_query(2, 20, 5));
        assert_eq!(
            a.deterministic_f64("base_petromag_r").unwrap(),
            b.deterministic_f64("base_petromag_r").unwrap()
        );
        let c = build_relation(&GalaxyConfig::for_query(2, 20, 6));
        assert_ne!(
            a.deterministic_f64("base_petromag_r").unwrap(),
            c.deterministic_f64("base_petromag_r").unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "queries 1..=8")]
    fn query_numbers_are_validated() {
        let _ = GalaxyConfig::for_query(9, 10, 0);
    }
}
