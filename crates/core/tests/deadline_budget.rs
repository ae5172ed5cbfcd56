//! Deadline and cancellation behaviour of the evaluation pipeline.
//!
//! The historical behaviour this pins down: a Naïve solve whose wall-clock
//! budget expired *mid-LP* used to run that LP (and sometimes a full
//! validation pass) to completion before noticing — on the 2000-tuple
//! instance below a single SAA MILP runs for well over 20 s, so a 100 ms
//! budget used to overshoot by two orders of magnitude. With the deadline
//! threaded into the simplex pivot loops, expiry interrupts the solve within
//! a bounded number of pivots.
//!
//! The caller's deadline is the only clock: every other limit is a count, so
//! a node-limited query answers the same on an idle and on a busy machine.

use spq_core::saa::formulate_saa;
use spq_core::{Algorithm, EvaluationStats, Instance, SpqEngine, SpqOptions};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{Relation, RelationBuilder};
use spq_solver::{solve_full, CancellationToken, Deadline, SolveStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A relation and query whose very first Naïve SAA MILP takes tens of
/// seconds: 2000 high-variance tuples and a near-boundary chance constraint.
fn heavy_relation(n: usize) -> Relation {
    let means: Vec<f64> = (0..n).map(|i| 4.0 + (i % 13) as f64 * 0.4).collect();
    let sds: Vec<f64> = (0..n).map(|i| 6.0 + (i % 7) as f64 * 1.5).collect();
    RelationBuilder::new("heavy")
        .deterministic_f64("price", vec![100.0; n])
        .stochastic("gain", NormalNoise::around(means, sds))
        .build()
        .unwrap()
}

const QUERY: &str = "SELECT PACKAGE(*) FROM heavy \
                     SUCH THAT SUM(price) <= 1000 AND \
                     SUM(gain) >= 30 WITH PROBABILITY >= 0.95 \
                     MAXIMIZE EXPECTED SUM(gain)";

fn heavy_options() -> SpqOptions {
    SpqOptions {
        initial_scenarios: 80,
        scenario_increment: 80,
        max_scenarios: 800,
        validation_scenarios: 2000,
        expectation_scenarios: 200,
        ..SpqOptions::for_tests()
    }
}

/// Generous ceiling for "the budget was respected": covers instance
/// preparation and scenario generation on a slow CI box, but is far below
/// the 20 s+ a single uninterrupted MILP takes here.
const OVERSHOOT_CEILING: Duration = Duration::from_secs(8);

#[test]
fn a_tiny_time_budget_does_not_overshoot_by_a_full_solve() {
    let rel = heavy_relation(2000);
    let mut opts = heavy_options();
    opts.deadline = Deadline::within(Duration::from_millis(100));
    let engine = SpqEngine::new(opts);
    let started = Instant::now();
    let result = engine.evaluate(&rel, QUERY, Algorithm::Naive).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < OVERSHOOT_CEILING,
        "100ms budget overshot to {elapsed:?}"
    );
    assert!(result.stats.wall_time < OVERSHOOT_CEILING);
}

#[test]
fn cancellation_interrupts_an_evaluation_mid_solve() {
    let rel = heavy_relation(2000);
    let token = CancellationToken::new();
    let mut opts = heavy_options();
    opts.deadline = Deadline::none().with_token(token.clone());
    let engine = SpqEngine::new(opts);

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            token.cancel();
        })
    };
    let started = Instant::now();
    let result = engine.evaluate(&rel, QUERY, Algorithm::Naive);
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    assert!(
        elapsed < OVERSHOOT_CEILING,
        "cancellation took {elapsed:?} to take effect"
    );
    // Cancellation is not an error: the engine reports whatever it had.
    let result = result.unwrap();
    assert!(result.stats.wall_time < OVERSHOOT_CEILING);
}

#[test]
fn an_unarmed_deadline_leaves_results_unchanged() {
    // The same query with and without an (un-expiring) deadline must produce
    // identical packages: deadline plumbing is observation-only.
    let rel = heavy_relation(40);
    let mut relaxed = SpqOptions::for_tests();
    relaxed.initial_scenarios = 10;
    relaxed.validation_scenarios = 400;
    let plain = SpqEngine::new(relaxed.clone())
        .evaluate(&rel, QUERY, Algorithm::SummarySearch)
        .unwrap();
    let mut armed = relaxed;
    armed.deadline =
        Deadline::within(Duration::from_secs(3600)).with_token(CancellationToken::new());
    let guarded = SpqEngine::new(armed)
        .evaluate(&rel, QUERY, Algorithm::SummarySearch)
        .unwrap();
    assert_eq!(plain.feasible, guarded.feasible);
    match (plain.package, guarded.package) {
        (Some(a), Some(b)) => {
            assert_eq!(a.multiplicities, b.multiplicities);
            assert_eq!(a.objective_estimate, b.objective_estimate);
        }
        (a, b) => assert_eq!(a.is_none(), b.is_none()),
    }
}

#[test]
fn default_options_arm_no_clock() {
    // The caller's deadline is the only clock: with none given, preparing
    // an instance arms none, for the evaluation or for its solver.
    let rel = heavy_relation(40);
    let silp = SpqEngine::new(SpqOptions::default())
        .compile(&rel, QUERY)
        .unwrap();
    let instance = Instance::new(&rel, silp, SpqOptions::default()).unwrap();
    assert!(instance.options.deadline.is_unlimited());
    assert!(instance.options.solver.deadline.is_unlimited());
}

/// Every counter of `stats` except the wall time.
fn counters(stats: &EvaluationStats) -> [usize; 9] {
    let EvaluationStats {
        wall_time: _,
        scenarios_used,
        summaries_used,
        outer_iterations,
        problems_solved,
        validations,
        validation_scenarios,
        solver_nodes,
        lp_pivots,
        max_problem_coefficients,
    } = *stats;
    [
        scenarios_used,
        summaries_used,
        outer_iterations,
        problems_solved,
        validations,
        validation_scenarios,
        solver_nodes,
        lp_pivots,
        max_problem_coefficients,
    ]
}

#[test]
fn a_node_limited_query_returns_the_same_answer_beside_a_busy_thread() {
    // Limits are counts: a query whose MILPs stop at the node budget gets
    // the same package and counters whatever else the machine is doing.
    let rel = heavy_relation(300);
    let mut opts = SpqOptions::for_tests();
    opts.initial_scenarios = 40;
    opts.max_scenarios = 40;
    opts.solver.max_nodes = 60;

    // The query's MILP really stops at the node budget.
    let silp = SpqEngine::new(opts.clone()).compile(&rel, QUERY).unwrap();
    let instance = Instance::new(&rel, silp, opts.clone()).unwrap();
    let formulation = formulate_saa(&instance, opts.initial_scenarios).unwrap();
    let solved = solve_full(&formulation.model, &instance.options.solver).unwrap();
    assert_eq!(solved.status, SolveStatus::FeasibleLimit);

    let run = || {
        let result = SpqEngine::new(opts.clone())
            .evaluate(&rel, QUERY, Algorithm::Naive)
            .unwrap();
        let package = result.package.expect("a best-effort package");
        (
            package.multiplicities,
            package.objective_estimate.to_bits(),
            counters(&result.stats),
        )
    };
    let quiet = run();

    let stop = Arc::new(AtomicBool::new(false));
    let burner = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..10_000 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            }
            x
        })
    };
    let busy = run();
    stop.store(true, Ordering::Relaxed);
    burner.join().unwrap();

    assert_eq!(quiet, busy);
    assert!(quiet.2[6] > 0, "no branch-and-bound node was searched");
}
