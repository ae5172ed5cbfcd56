//! SketchRefine scaling: wall-clock and objective quality as the relation
//! grows to hundreds of thousands of tuples.
//!
//! For each dataset size of `--scale-list`, the Portfolio workload (Q1 by
//! default: budget 1000, `SUM(Gain) >= -10 WITH PROBABILITY >= 0.9`,
//! maximize expected gain) is evaluated once per algorithm with a fixed
//! initial scenario budget. We report wall-clock seconds, validation
//! feasibility, the objective estimate, and the objective ratio relative to
//! the best feasible objective any algorithm achieved at that size. At large
//! sizes Naïve and SummarySearch run into their per-query `--time-limit` —
//! that is the point of the experiment; their rows then show the time spent
//! before giving up and whether a feasible package was still found.
//!
//! With `--storage disk` the relation is streamed to chunked columnar files
//! and paged through the byte-budgeted chunk cache; `--max-relation-bytes`
//! caps the resident deterministic-column footprint (the cap is enforced by
//! the engine, which refuses in-memory relations above it) — together they
//! are the configuration of the 1M-tuple out-of-core scaling row. Results
//! also go to a JSON report (`--out`, default `BENCH_sketch_scaling.json`).
//!
//! Usage: `cargo run --release -p spq-bench --bin fig_sketch_scaling -- \
//!             [--scale-list 2000,20000,100000] [--queries 1] \
//!             [--algorithms naive,summarysearch,sketchrefine] \
//!             [--time-limit 120] [--validation 2000] \
//!             [--storage memory|disk] [--max-relation-bytes N] \
//!             [--out BENCH_sketch_scaling.json]`

use spq_bench::{approximation_ratio, print_table, run_query, HarnessConfig};
use spq_core::Algorithm;
use spq_service::json::Json;
use spq_workloads::{spec, WorkloadKind};
use std::io::Write;

const M: usize = 20;

fn main() {
    let mut config = HarnessConfig::from_args();
    let out = config
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_sketch_scaling.json".to_string());
    // Single-run cells by default (large-scale rows are expensive); an
    // explicit `--runs` flag is honored and the reported numbers become
    // per-run means.
    if !config.was_set("--runs") {
        config.runs = 1;
    }
    // Default to comparing all three algorithms, but respect an explicit
    // `--algorithms` / `SPQ_ALGORITHMS` selection verbatim (even one that
    // excludes SketchRefine).
    if !config.was_set("--algorithms") {
        config.algorithms = vec![
            Algorithm::Naive,
            Algorithm::SummarySearch,
            Algorithm::SketchRefine,
        ];
    }
    let sizes = config
        .scale_list
        .clone()
        .unwrap_or_else(|| vec![2_000, 20_000, 100_000]);
    // Default to Q1 only (one row per size); an explicit `--queries` flag is
    // honored verbatim, including a full 1..=8 sweep.
    let queries = if config.was_set("--queries") {
        config.queries.clone()
    } else {
        vec![1]
    };
    let kind = WorkloadKind::Portfolio;
    eprintln!(
        "# SketchRefine scaling harness (Portfolio, M = {M}, sizes {sizes:?}, storage {}): {config:?}",
        config.storage.as_str()
    );

    let mut rows = Vec::new();
    let mut report_rows = Vec::new();
    for &q in &queries {
        let spec_row = spec::query_spec(kind, q);
        for &n in &sizes {
            // One summary cell per algorithm: per-run means over `--runs`
            // runs (feasible only when every run validated).
            struct Cell {
                algorithm: spq_core::Algorithm,
                n_tuples: usize,
                seconds: f64,
                feasible: bool,
                objective: Option<f64>,
                lp_pivots: f64,
                error: Option<String>,
            }
            let mut results = Vec::new();
            for &algorithm in &config.algorithms {
                eprintln!(
                    "# running {algorithm} at scale {n} (Q{q}, {} run(s)) ...",
                    config.runs
                );
                let records = run_query(&config, kind, n, q, algorithm, M, 1);
                let runs = records.len().max(1) as f64;
                let objectives: Vec<f64> = records
                    .iter()
                    .filter(|r| r.feasible)
                    .filter_map(|r| r.objective)
                    .collect();
                results.push(Cell {
                    algorithm,
                    n_tuples: records.first().map(|r| r.n_tuples).unwrap_or(n),
                    seconds: records.iter().map(|r| r.seconds).sum::<f64>() / runs,
                    feasible: !records.is_empty() && records.iter().all(|r| r.feasible),
                    objective: if objectives.is_empty() {
                        None
                    } else {
                        Some(objectives.iter().sum::<f64>() / objectives.len() as f64)
                    },
                    lp_pivots: records.iter().map(|r| r.lp_pivots as f64).sum::<f64>() / runs,
                    error: records.iter().find_map(|r| r.error.clone()),
                });
            }
            let best = results
                .iter()
                .filter(|c| c.feasible)
                .filter_map(|c| c.objective)
                .fold(None, |acc: Option<f64>, v| {
                    Some(match acc {
                        None => v,
                        Some(a) => {
                            if spec_row.maximize {
                                a.max(v)
                            } else {
                                a.min(v)
                            }
                        }
                    })
                });
            for cell in &results {
                let ratio = match (cell.objective.filter(|_| cell.feasible), best) {
                    (Some(o), Some(b)) => {
                        format!("{:.3}", approximation_ratio(o, b, spec_row.maximize))
                    }
                    _ => "-".into(),
                };
                let note = match &cell.error {
                    Some(e) if e.contains("too large") => "DNF: model too large".to_string(),
                    Some(e) => format!("DNF: {}", e.chars().take(60).collect::<String>()),
                    None => "-".into(),
                };
                report_rows.push(Json::Obj(vec![
                    ("query".into(), Json::from(format!("Q{q}"))),
                    ("n_tuples".into(), Json::from(cell.n_tuples)),
                    ("algorithm".into(), Json::from(cell.algorithm.to_string())),
                    ("seconds".into(), Json::from(cell.seconds)),
                    ("feasible".into(), Json::from(cell.feasible)),
                    (
                        "objective".into(),
                        cell.objective.map(Json::from).unwrap_or(Json::Null),
                    ),
                    ("lp_pivots".into(), Json::from(cell.lp_pivots)),
                    ("objective_ratio".into(), Json::from(ratio.clone())),
                    ("note".into(), Json::from(note.clone())),
                ]));
                rows.push(vec![
                    format!("Q{q}"),
                    cell.n_tuples.to_string(),
                    cell.algorithm.to_string(),
                    format!("{:.2}", cell.seconds),
                    if cell.feasible { "yes" } else { "no" }.into(),
                    cell.objective
                        .map(|o| format!("{o:.2}"))
                        .unwrap_or_else(|| "-".into()),
                    format!("{:.0}", cell.lp_pivots),
                    ratio,
                    note,
                ]);
            }
        }
    }
    print_table(
        &[
            "query",
            "n_tuples",
            "algorithm",
            "seconds",
            "feasible",
            "objective",
            "lp_pivots",
            "objective_ratio",
            "note",
        ],
        &rows,
    );
    let report = Json::Obj(vec![
        ("benchmark".into(), Json::from("sketch_scaling")),
        ("workload".into(), Json::from(kind.to_string())),
        ("storage".into(), Json::from(config.storage.as_str())),
        (
            "max_relation_bytes".into(),
            config
                .max_relation_bytes
                .map(Json::from)
                .unwrap_or(Json::Null),
        ),
        ("initial_scenarios".into(), Json::from(M)),
        ("validation_scenarios".into(), Json::from(config.validation)),
        ("runs".into(), Json::from(config.runs)),
        ("seed".into(), Json::from(config.seed)),
        (
            "sizes".into(),
            Json::Arr(sizes.iter().map(|&n| Json::from(n)).collect()),
        ),
        ("rows".into(), Json::Arr(report_rows)),
    ]);
    match std::fs::File::create(&out).and_then(|mut f| writeln!(f, "{report}")) {
        Ok(()) => eprintln!("# report written to {out}"),
        Err(e) => eprintln!("# could not write {out}: {e}"),
    }
    spq_bench::finish_trace();
}
