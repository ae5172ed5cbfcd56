//! Quickstart: the Figure 1 financial-portfolio query, end to end.
//!
//! Builds the `Stock_Investments` table from the paper's introduction (six
//! candidate trades over three stocks, gains forecast by geometric Brownian
//! motion), runs the sPaQL query with both Naïve and SummarySearch, and
//! prints the resulting packages.
//!
//! Run with: `cargo run --release --example quickstart`

use stochastic_package_queries::mcdb::vg::GeometricBrownianMotion;
use stochastic_package_queries::prelude::*;

fn main() {
    // --- The input table of Figure 1. --------------------------------------
    // Three stocks (AAPL, MSFT, TSLA), each with a "sell in 1 day" and a
    // "sell in 1 week" trade. Trades of the same stock share one simulated
    // price path per scenario (they are correlated).
    let prices = vec![234.0, 234.0, 140.0, 140.0, 258.0, 258.0];
    let horizons = vec![1, 5, 1, 5, 1, 5];
    let groups = vec![0, 0, 1, 1, 2, 2];
    let drifts = vec![0.0004, 0.0004, 0.0008, 0.0008, -0.0002, -0.0002];
    let volatility = vec![0.018, 0.018, 0.012, 0.012, 0.035, 0.035];

    let relation = RelationBuilder::new("Stock_Investments")
        .deterministic_i64("id", (1..=6).collect())
        .deterministic_text(
            "stock",
            vec!["AAPL", "AAPL", "MSFT", "MSFT", "TSLA", "TSLA"],
        )
        .deterministic_f64("price", prices.clone())
        .deterministic_text(
            "sell_in",
            vec!["1 day", "1 week", "1 day", "1 week", "1 day", "1 week"],
        )
        .stochastic(
            "Gain",
            GeometricBrownianMotion::new(prices, drifts, volatility, horizons, groups),
        )
        .build()
        .expect("valid relation");

    // --- The sPaQL query of Figure 1. ---------------------------------------
    let query = "SELECT PACKAGE(*) AS Portfolio FROM Stock_Investments \
                 SUCH THAT SUM(price) <= 1000 AND \
                 SUM(Gain) >= -10 WITH PROBABILITY >= 0.95 \
                 MAXIMIZE EXPECTED SUM(Gain)";
    println!("Query:\n  {query}\n");

    let options = SpqOptions {
        initial_scenarios: 50,
        validation_scenarios: 20_000,
        seed: 2020,
        // Cap each MILP solve's node count so the Naive baseline returns its
        // incumbent instead of searching the full default node budget.
        solver: stochastic_package_queries::solver::SolverOptions {
            max_nodes: 10_000,
            ..Default::default()
        },
        ..Default::default()
    };

    for algorithm in [Algorithm::Naive, Algorithm::SummarySearch] {
        let engine = SpqEngine::new(options.clone());
        match engine.evaluate(&relation, query, algorithm) {
            Ok(result) => {
                println!("=== {algorithm} ===");
                println!(
                    "feasible: {}, wall time: {:?}, scenarios: {}, summaries: {}",
                    result.feasible,
                    result.stats.wall_time,
                    result.stats.scenarios_used,
                    result.stats.summaries_used
                );
                if let Some(package) = &result.package {
                    println!("{}", package.describe(&relation));
                    println!(
                        "expected gain ~ {:.2}, Pr(loss < $10) ~ {:.3}",
                        package.objective_estimate,
                        package
                            .validation
                            .constraints
                            .first()
                            .map(|c| c.satisfied_fraction)
                            .unwrap_or(1.0)
                    );
                } else {
                    println!("no package found");
                }
                println!();
            }
            Err(e) => println!("{algorithm} failed: {e}"),
        }
    }
}
