//! The paper's §6 claims, asserted at reduced scale on the `paper` driver's
//! deterministic counters (feasibility, scenarios, summaries, LP pivots,
//! surplus), never on wall time. `BENCH_paper.json` holds the full-scale
//! run of the same judgements.

use spq_bench::{claim, run_figure, HarnessConfig, Row, M_GRID};
use std::sync::OnceLock;
use std::time::Duration;

fn reduced(runs: usize) -> HarnessConfig {
    HarnessConfig {
        scale: 30,
        runs,
        validation: 500,
        queries: vec![1],
        scale_list: Some(vec![30, 90, 150]),
        time_limit: Duration::from_secs(120),
        ..HarnessConfig::default()
    }
}

fn assert_claim(figure: usize, rows: &[Row]) {
    let verdict = claim(figure, rows).expect("rows of both algorithms");
    assert!(
        verdict.met,
        "Fig. {figure}: {} is not met: {}",
        verdict.statement,
        verdict.to_json()
    );
}

fn fig5_rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| run_figure(&reduced(1), 5))
}

#[test]
fn fig4_naive_feasibility_rises_with_m_and_trails_summarysearch() {
    assert_claim(4, &run_figure(&reduced(2), 4));
}

#[test]
fn fig5_summarysearch_reaches_feasibility_with_a_tenth_of_the_work() {
    assert_claim(5, fig5_rows());
}

#[test]
fn fig5_rows_run_at_exactly_their_m() {
    let rows = fig5_rows();
    assert_eq!(
        rows.len(),
        3 * M_GRID.len() * 2,
        "3 workloads x M grid x 2 algorithms"
    );
    for r in rows {
        assert!(r.error.is_none(), "{r:?}");
        assert_eq!(r.scenarios_used, r.m, "{r:?}");
    }
}

#[test]
fn fig6_more_summaries_improve_the_objective_and_shrink_the_surplus() {
    assert_claim(6, &run_figure(&reduced(2), 6));
}

#[test]
fn fig7_summarysearch_work_grows_more_slowly_in_n() {
    assert_claim(7, &run_figure(&reduced(1), 7));
}
