//! Galaxy sensors: selecting sky regions under noisy telescope readings.
//!
//! Builds the synthetic Galaxy workload (Gaussian noise around base flux
//! readings) and evaluates a counteracted-objective query — minimize the
//! expected total flux of 5–10 regions while guaranteeing, with probability
//! at least 0.9, that the total flux is at least 40 — comparing Naïve and
//! SummarySearch head to head on the same data.
//!
//! Run with: `cargo run --release --example galaxy_sensors`

use stochastic_package_queries::prelude::*;
use stochastic_package_queries::workloads::galaxy::{build_relation, query, GalaxyConfig};

fn main() {
    let config = GalaxyConfig::for_query(1, 300, 13);
    let relation = build_relation(&config);
    let text = query(1);
    println!("Galaxy relation: {} sky regions", relation.len());
    println!("Query:\n  {text}\n");

    let options = SpqOptions {
        initial_scenarios: 30,
        scenario_increment: 30,
        max_scenarios: 150,
        validation_scenarios: 5_000,
        seed: 5,
        // Cap each MILP solve's node count so the Naive baseline returns its
        // incumbent instead of searching the full default node budget.
        solver: stochastic_package_queries::solver::SolverOptions {
            max_nodes: 5_000,
            ..Default::default()
        },
        ..Default::default()
    };

    for algorithm in [Algorithm::SummarySearch, Algorithm::Naive] {
        let engine = SpqEngine::new(options.clone());
        match engine.evaluate(&relation, &text, algorithm) {
            Ok(result) => {
                println!("=== {algorithm} ===");
                println!(
                    "feasible: {}  time: {:?}  scenarios: {}  DILPs solved: {}  max problem size: {} coefficients",
                    result.feasible,
                    result.stats.wall_time,
                    result.stats.scenarios_used,
                    result.stats.problems_solved,
                    result.stats.max_problem_coefficients,
                );
                if let Some(pkg) = &result.package {
                    println!(
                        "selected {} regions, expected total flux {:.2}, Pr(total >= 40) ~ {:.3}\n",
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
            Err(e) => println!("{algorithm} failed: {e}"),
        }
    }
}
