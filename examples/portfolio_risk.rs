//! Portfolio risk sweep: how the Value-at-Risk parameters (p, v) change the
//! chosen package.
//!
//! Builds a synthetic Portfolio workload (the paper's Section 6.1 workload,
//! scaled down) and evaluates the Figure 1 query template across a sweep of
//! probability bounds `p` and loss thresholds `v`, showing how tighter risk
//! requirements push the package towards lower-volatility trades.
//!
//! Run with: `cargo run --release --example portfolio_risk`

use stochastic_package_queries::prelude::*;
use stochastic_package_queries::workloads::portfolio::{build_relation, PortfolioConfig};
use stochastic_package_queries::workloads::Horizon;

fn main() {
    let config = PortfolioConfig {
        n_stocks: 120,
        horizon: Horizon::ShortTerm,
        most_volatile_only: false,
        seed: 7,
    };
    let relation = build_relation(&config);
    println!(
        "Portfolio relation: {} candidate trades over {} stocks\n",
        relation.len(),
        config.n_stocks
    );

    let options = SpqOptions {
        initial_scenarios: 40,
        validation_scenarios: 5_000,
        max_scenarios: 200,
        seed: 99,
        ..Default::default()
    };
    let engine = SpqEngine::new(options);

    println!(
        "{:<8} {:<8} {:<10} {:<12} {:<12} {:<10}",
        "p", "v", "feasible", "E[gain]", "Pr(ok)", "size"
    );
    for (p, v) in [(0.90, -10.0), (0.95, -10.0), (0.90, -1.0), (0.95, -1.0)] {
        let query = format!(
            "SELECT PACKAGE(*) FROM Stock_Investments SUCH THAT \
             SUM(price) <= 1000 AND \
             SUM(Gain) >= {v} WITH PROBABILITY >= {p} \
             MAXIMIZE EXPECTED SUM(Gain)"
        );
        match engine.evaluate(&relation, &query, Algorithm::SummarySearch) {
            Ok(result) => {
                let (objective, fraction, size) = result
                    .package
                    .as_ref()
                    .map(|pkg| {
                        (
                            pkg.objective_estimate,
                            pkg.validation
                                .constraints
                                .first()
                                .map(|c| c.satisfied_fraction)
                                .unwrap_or(1.0),
                            pkg.size(),
                        )
                    })
                    .unwrap_or((0.0, 0.0, 0));
                println!(
                    "{:<8} {:<8} {:<10} {:<12.3} {:<12.4} {:<10}",
                    p, v, result.feasible, objective, fraction, size
                );
            }
            Err(e) => println!("{p:<8} {v:<8} error: {e}"),
        }
    }

    println!("\nTighter risk bounds (higher p, higher v) reduce the attainable expected gain.");
}
