//! Cross-crate integration tests: sPaQL text → Monte Carlo relation →
//! SILP → Naïve / SummarySearch → validated package.

use stochastic_package_queries::mcdb::vg::{Degenerate, NormalNoise};
use stochastic_package_queries::prelude::*;

fn portfolio_relation() -> Relation {
    // Ten trades: the first three have high expected gain but high variance,
    // the rest are low-gain, low-variance.
    let means = vec![7.0, 6.0, 5.5, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6];
    let sds = vec![9.0, 8.0, 7.0, 0.4, 0.4, 0.3, 0.3, 0.2, 0.2, 0.2];
    RelationBuilder::new("trades")
        .deterministic_f64("price", vec![100.0; 10])
        .deterministic_text(
            "sector",
            vec![
                "tech", "tech", "tech", "util", "util", "util", "util", "util", "util", "util",
            ],
        )
        .stochastic("gain", NormalNoise::around(means, sds))
        .build()
        .unwrap()
}

fn options() -> SpqOptions {
    SpqOptions {
        seed: 11,
        initial_scenarios: 25,
        validation_scenarios: 1500,
        ..SpqOptions::for_tests()
    }
}

const RISK_QUERY: &str = "SELECT PACKAGE(*) FROM trades SUCH THAT \
                          SUM(price) <= 400 AND \
                          SUM(gain) >= 0 WITH PROBABILITY >= 0.9 \
                          MAXIMIZE EXPECTED SUM(gain)";

#[test]
fn summary_search_package_is_validation_feasible() {
    let relation = portfolio_relation();
    let engine = SpqEngine::new(options());
    let result = engine
        .evaluate(&relation, RISK_QUERY, Algorithm::SummarySearch)
        .unwrap();
    assert!(result.feasible);
    let package = result.package.unwrap();
    assert!(package.is_feasible());
    // Budget: at most 4 tuples at price 100.
    assert!(package.size() <= 4);
    // The validated satisfaction probability must meet the constraint.
    let cv = &package.validation.constraints[0];
    assert!(
        cv.satisfied_fraction >= 0.9 - 0.02,
        "fraction {}",
        cv.satisfied_fraction
    );
}

#[test]
fn naive_and_summary_search_agree_on_feasibility() {
    let relation = portfolio_relation();
    let engine = SpqEngine::new(options());
    let naive = engine
        .evaluate(&relation, RISK_QUERY, Algorithm::Naive)
        .unwrap();
    let ss = engine
        .evaluate(&relation, RISK_QUERY, Algorithm::SummarySearch)
        .unwrap();
    // Both should find feasible packages on this easy instance.
    assert!(ss.feasible);
    assert!(naive.feasible || naive.package.is_some());
    // SummarySearch never formulates a problem larger than Naive's largest.
    assert!(ss.stats.max_problem_coefficients <= naive.stats.max_problem_coefficients);
}

#[test]
fn where_clause_restricts_the_candidate_tuples() {
    let relation = portfolio_relation();
    let engine = SpqEngine::new(options());
    let query = "SELECT PACKAGE(*) FROM trades WHERE sector = 'util' SUCH THAT \
                 SUM(price) <= 400 AND \
                 SUM(gain) >= 0 WITH PROBABILITY >= 0.9 \
                 MAXIMIZE EXPECTED SUM(gain)";
    let result = engine
        .evaluate(&relation, query, Algorithm::SummarySearch)
        .unwrap();
    assert!(result.feasible);
    let package = result.package.unwrap();
    // Tuples 0..=2 are 'tech' and must not appear.
    assert!(package.multiplicities.iter().all(|(t, _)| *t >= 3));
}

#[test]
fn repeat_limits_tuple_multiplicity() {
    let relation = portfolio_relation();
    let engine = SpqEngine::new(options());
    let query = "SELECT PACKAGE(*) FROM trades REPEAT 0 SUCH THAT \
                 SUM(price) <= 400 AND \
                 SUM(gain) >= 0 WITH PROBABILITY >= 0.9 \
                 MAXIMIZE EXPECTED SUM(gain)";
    let result = engine
        .evaluate(&relation, query, Algorithm::SummarySearch)
        .unwrap();
    let package = result.package.unwrap();
    assert!(package.multiplicities.iter().all(|(_, m)| *m == 1));
}

#[test]
fn infeasible_queries_are_reported_as_infeasible() {
    let relation = portfolio_relation();
    let mut opts = options();
    opts.max_scenarios = 40;
    let engine = SpqEngine::new(opts);
    // Requiring a guaranteed gain of 1000 is impossible.
    let query = "SELECT PACKAGE(*) FROM trades SUCH THAT \
                 SUM(price) <= 400 AND \
                 SUM(gain) >= 1000 WITH PROBABILITY >= 0.95 \
                 MAXIMIZE EXPECTED SUM(gain)";
    for algorithm in [Algorithm::Naive, Algorithm::SummarySearch] {
        let result = engine.evaluate(&relation, query, algorithm).unwrap();
        assert!(!result.feasible, "{algorithm} claimed feasibility");
    }
}

#[test]
fn deterministic_attributes_behave_like_classic_package_queries() {
    // With a degenerate stochastic column, the probabilistic constraint holds
    // either always or never, so the SPQ reduces to a deterministic package
    // query whose optimum we can compute by hand.
    let relation = RelationBuilder::new("items")
        .deterministic_f64("cost", vec![5.0, 4.0, 3.0, 2.0])
        .stochastic("value", Degenerate::new(vec![10.0, 7.0, 5.0, 1.0]))
        .build()
        .unwrap();
    let engine = SpqEngine::new(options());
    let query = "SELECT PACKAGE(*) FROM items REPEAT 0 SUCH THAT \
                 SUM(cost) <= 7 AND \
                 SUM(value) >= 5 WITH PROBABILITY >= 0.9 \
                 MAXIMIZE EXPECTED SUM(value)";
    let result = engine
        .evaluate(&relation, query, Algorithm::SummarySearch)
        .unwrap();
    assert!(result.feasible);
    let package = result.package.unwrap();
    // Best choice under cost <= 7 with at most one copy each:
    // items 0 (cost 5, value 10) + item... cost 5 + 2 = 7 -> values 10 + 1 = 11,
    // or items 1+2 (cost 7, value 12). The optimum is 12.
    assert!((package.objective_estimate - 12.0).abs() < 1e-6);
}

#[test]
fn evaluation_statistics_are_populated() {
    let relation = portfolio_relation();
    let engine = SpqEngine::new(options());
    let result = engine
        .evaluate(&relation, RISK_QUERY, Algorithm::SummarySearch)
        .unwrap();
    let stats = &result.stats;
    assert!(stats.problems_solved >= 1);
    assert!(stats.validations >= 1);
    assert!(stats.scenarios_used >= 25);
    assert!(stats.summaries_used >= 1);
    assert!(stats.wall_time.as_nanos() > 0);
    assert!(stats.max_problem_coefficients > 0);
}
