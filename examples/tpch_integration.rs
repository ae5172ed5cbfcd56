//! TPC-H data integration: probability objectives over integrated sources.
//!
//! Builds the synthetic TPC-H workload where every quantity/revenue value is
//! a discrete mixture over `D` disagreeing data sources, and evaluates a
//! query with a *probability objective*: pick 1–10 transactions maximizing
//! the probability that the total revenue reaches 1000 while keeping the
//! total quantity under a probabilistic cap. Shows the effect of integrating
//! 3 vs 10 sources.
//!
//! Run with: `cargo run --release --example tpch_integration`

use stochastic_package_queries::prelude::*;
use stochastic_package_queries::workloads::tpch::{build_relation, query, TpchConfig};

fn main() {
    let options = SpqOptions {
        initial_scenarios: 30,
        max_scenarios: 120,
        validation_scenarios: 5_000,
        initial_summaries: 2, // the paper uses Z = 2 for TPC-H
        seed: 21,
        ..Default::default()
    };
    let engine = SpqEngine::new(options);

    for (q, label) in [(1usize, "D = 3 sources"), (2usize, "D = 10 sources")] {
        let config = TpchConfig::for_query(q, 250, 17);
        let relation = build_relation(&config);
        let text = query(q);
        println!("=== {label} ===");
        println!("{} transactions, query:\n  {text}", relation.len());
        match engine.evaluate(&relation, &text, Algorithm::SummarySearch) {
            Ok(result) => {
                println!(
                    "feasible: {}  time: {:?}  scenarios: {}  summaries: {}",
                    result.feasible,
                    result.stats.wall_time,
                    result.stats.scenarios_used,
                    result.stats.summaries_used
                );
                if let Some(pkg) = &result.package {
                    println!(
                        "package of {} transactions; Pr(revenue >= 1000) ~ {:.3}; Pr(quantity cap holds) ~ {:.3}\n",
                        pkg.size(),
                        pkg.objective_estimate,
                        pkg.validation
                            .constraints
                            .first()
                            .map(|c| c.satisfied_fraction)
                            .unwrap_or(1.0)
                    );
                }
            }
            Err(e) => println!("evaluation failed: {e}\n"),
        }
    }
}
