//! The paper's §6 figures in one driver: runs the selected figures, prints
//! one TSV line per evaluation, judges each figure's claim and writes rows,
//! claims and provenance to a JSON report (`--out`, default
//! `BENCH_paper.json`).
//!
//! Usage: `cargo run --release -p spq-bench --bin paper -- \
//!             [--figure 4,5,6,7] [--scale 200] [--runs 3] [--queries 1,2] \
//!             [--validation 2000] [--algorithms naive,summarysearch] \
//!             [--scale-list 100,200] [--storage memory|disk] \
//!             [--max-relation-bytes B] [--trace trace.json] [--out PATH]`
//!
//! The exit code is 0 even when a claim is not met: the report says which
//! one and why; `tests/paper_claims.rs` is the gate.

use spq_bench::{approximation_ratio, claim, finish_trace, run_figure, HarnessConfig};
use spq_service::json::Json;
use std::process::Command;

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Core count and CPU model.
fn machine() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown CPU", |l| l.trim_start_matches([' ', '\t', ':']));
    format!("{cores} cores, {model}")
}

/// `report` with one top-level key, and one element of a top-level array,
/// per line.
fn pretty(report: &Json) -> String {
    let Json::Obj(pairs) = report else {
        return format!("{report}\n");
    };
    let lines: Vec<String> = pairs
        .iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Arr(items) if !items.is_empty() => {
                    let items: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
                    format!("[\n{}\n  ]", items.join(",\n"))
                }
                other => other.to_string(),
            };
            format!("  {}: {value}", Json::from(key.as_str()))
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn main() {
    let config = HarnessConfig::from_args();
    eprintln!("# paper driver: {config:?}");
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("figure\tworkload\tquery\talgorithm\tn_tuples\tm\tz\trun\tfeasible\tobjective\tlp_pivots\tsolver_nodes\tseconds");
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for &figure in &config.figures {
        let figure_rows = run_figure(&config, figure);
        for r in &figure_rows {
            let objective = r.objective.map_or("-".into(), |o| format!("{o:.4}"));
            println!(
                "{}\t{}\tQ{}\t{}\t{}\t{}\t{}\t{}\t{}\t{objective}\t{}\t{}\t{:.3}",
                r.figure,
                r.workload,
                r.query,
                r.algorithm,
                r.n_tuples,
                r.m,
                r.z,
                r.run,
                r.feasible,
                r.lp_pivots,
                r.solver_nodes,
                r.seconds
            );
        }
        match claim(figure, &figure_rows) {
            Some(verdict) => {
                let met = if verdict.met { "met" } else { "NOT MET" };
                eprintln!("# Fig. {figure}: {met}: {}", verdict.statement);
                claims.push(verdict.to_json());
            }
            None => eprintln!("# Fig. {figure}: not judged (needs Naive and SummarySearch rows)"),
        }
        rows.extend(figure_rows);
    }
    let report = Json::Obj(vec![
        ("benchmark".into(), Json::from("paper")),
        (
            "command".into(),
            Json::from(format!(
                "cargo run --release -p spq-bench --bin paper -- {}",
                args.join(" ")
            )),
        ),
        (
            "revision".into(),
            Json::from(first_line_of("git", &["describe", "--always", "--dirty"])),
        ),
        ("machine".into(), Json::from(machine())),
        ("storage".into(), Json::from(config.storage.as_str())),
        (
            "max_relation_bytes".into(),
            config.max_relation_bytes.map_or(Json::Null, Json::from),
        ),
        ("validation_scenarios".into(), Json::from(config.validation)),
        ("runs".into(), Json::from(config.runs)),
        ("seed".into(), Json::from(config.seed)),
        ("claims".into(), Json::Arr(claims)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| r.to_json(approximation_ratio(r, &rows)))
                    .collect(),
            ),
        ),
    ]);
    match std::fs::write(&config.out, pretty(&report)) {
        Ok(()) => eprintln!("# report written to {}", config.out),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", config.out);
            std::process::exit(1);
        }
    }
    finish_trace();
}
