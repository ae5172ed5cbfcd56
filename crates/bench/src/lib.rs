//! # spq-bench — benchmark harness for the paper's figures
//!
//! Each figure of the paper's experimental evaluation (Section 6.2) has a
//! dedicated harness binary that regenerates its series:
//!
//! | Paper artifact | Binary | What it reports |
//! |---|---|---|
//! | Figure 4 | `fig4_feasibility` | time to reach 100% feasibility rate, per query, Naïve vs SummarySearch |
//! | Figure 5 | `fig5_scenarios` | time, feasibility rate and 1+ε̂ as the number of optimization scenarios `M` grows |
//! | Figure 6 | `fig6_summaries` | effect of the number of summaries `Z` (Portfolio workload) |
//! | Figure 7 | `fig7_scaling` | effect of the dataset size `N` (Galaxy workload) |
//!
//! Two subsystem harnesses ride along: `service_throughput` (concurrent
//! query service, → `BENCH_service.json`) and `scenario_throughput`
//! (columnar scenario engine and its cache tiers, → `BENCH_scenario.json`).
//!
//! Criterion micro-benchmarks (`cargo bench -p spq-bench`) cover the kernels:
//! scenario generation, summary construction, SAA vs CSA formulation size,
//! the validator and the MILP solver.
//!
//! Because the MILP solver substitutes CPLEX, the default sizes are scaled
//! down (hundreds of tuples, tens of scenarios). Every figure binary accepts
//! `--scale`, `--runs`, `--queries`, `--validation` and `--algorithms` flags
//! (see [`HarnessConfig::parse`] for the full list) to scale up or select
//! algorithms without recompiling; the `SPQ_ALGORITHMS` environment variable
//! overrides the default algorithm set as well (the flag wins over the
//! variable). An unknown flag or an unparsable value is fatal (exit code 2)
//! rather than silently running a different experiment.
//!
//! Every binary also accepts `--trace <path>` (or the `SPQ_TRACE`
//! environment variable) to record phase spans into a chrome-tracing JSON
//! file; see the README's Observability section.

use serde::Serialize;
use spq_core::{Algorithm, EvaluationResult, SpqEngine, SpqOptions};
use spq_mcdb::StorageOptions;
use spq_workloads::{build_workload, build_workload_with, WorkloadKind};
use std::time::Duration;

/// Which tier benchmark relations are materialized in (`--storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageTier {
    /// Fully resident deterministic columns (the default).
    #[default]
    Memory,
    /// Chunked columnar files under a temp directory, paged through the
    /// byte-budgeted chunk cache — the out-of-core configuration the
    /// 1M-tuple scaling rows run in.
    Disk,
}

impl StorageTier {
    /// Canonical spelling for banners and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageTier::Memory => "memory",
            StorageTier::Disk => "disk",
        }
    }
}

/// Command-line configuration shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Approximate number of tuples per workload relation.
    pub scale: usize,
    /// Number of i.i.d. runs (different optimization-scenario seeds).
    pub runs: usize,
    /// Number of out-of-sample validation scenarios.
    pub validation: usize,
    /// Which query numbers to run (1-based).
    pub queries: Vec<usize>,
    /// Which algorithms to compare.
    pub algorithms: Vec<Algorithm>,
    /// Dataset sizes for scaling harnesses (`--scale-list`); `None` lets the
    /// binary pick its default grid.
    pub scale_list: Option<Vec<usize>>,
    /// Per-query evaluation time limit.
    pub time_limit: Duration,
    /// Base seed.
    pub seed: u64,
    /// Storage tier for benchmark relations (`--storage memory|disk`).
    pub storage: StorageTier,
    /// Resident-byte ceiling (`--max-relation-bytes`): clamps the disk
    /// tier's chunk-cache budget and makes every evaluation enforce
    /// [`SpqOptions::max_relation_bytes`].
    pub max_relation_bytes: Option<u64>,
    /// Path of the JSON report (`--out`) for binaries that write one
    /// (`fig_sketch_scaling`); `None` lets the binary pick its default.
    pub out: Option<String>,
    /// Which flags were explicitly supplied (canonical spellings, e.g.
    /// `"--runs"`; `"--algorithms"` is also recorded when `SPQ_ALGORITHMS`
    /// supplied the set). Lets binaries apply their own defaults without
    /// clobbering explicit user choices.
    explicit_flags: Vec<String>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 200,
            runs: 3,
            validation: 2_000,
            queries: (1..=8).collect(),
            algorithms: vec![Algorithm::Naive, Algorithm::SummarySearch],
            scale_list: None,
            time_limit: Duration::from_secs(60),
            seed: 2020,
            storage: StorageTier::Memory,
            max_relation_bytes: None,
            out: None,
            explicit_flags: Vec::new(),
        }
    }
}

/// Parse a comma-separated algorithm list (`"naive,sketch-refine"`),
/// dropping entries that fail to parse (with a note on stderr).
pub fn parse_algorithms(text: &str) -> Vec<Algorithm> {
    text.split(',')
        .filter(|s| !s.trim().is_empty())
        .filter_map(|s| match s.trim().parse::<Algorithm>() {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("# ignoring algorithm `{s}`: {e}");
                None
            }
        })
        .collect()
}

/// Parse one flag value, naming the flag in the error.
fn value_of<T>(flag: &str, value: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .trim()
        .parse()
        .map_err(|e| format!("{flag}: invalid value `{value}` ({e})"))
}

/// Parse a non-empty comma-separated list of flag values.
fn list_of<T>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let list = value
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| value_of(flag, s))
        .collect::<Result<Vec<T>, String>>()?;
    if list.is_empty() {
        return Err(format!("{flag}: expected a comma-separated list"));
    }
    Ok(list)
}

impl HarnessConfig {
    /// Parse a config from command-line arguments; see
    /// [`HarnessConfig::parse`]. SketchRefine is installed into the engine
    /// as a side effect so every harness can dispatch it.
    ///
    /// A bad command line is fatal (exit code 2): silently falling back to
    /// a default would benchmark a different experiment than the one asked
    /// for.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(config) => config,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Argument parsing behind [`HarnessConfig::from_args`], separated so the
    /// error path is testable. Flags come in `--flag value` pairs:
    /// `--scale N`, `--runs R`, `--validation V`, `--queries 1,2,3` (each
    /// in `1..=8`), `--time-limit SECS`, `--seed S`,
    /// `--algorithms naive,summarysearch,sketchrefine`, `--scale-list
    /// N1,N2`, `--storage memory|disk`, `--max-relation-bytes B`, `--trace
    /// PATH` and `--out PATH`. The `SPQ_ALGORITHMS` environment variable
    /// supplies the algorithm set when the flag is absent. Returns `Err`,
    /// naming the flag, on an unknown flag, a missing value or a value that
    /// does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        spq_sketch::install();
        let mut config = HarnessConfig::default();
        if let Ok(env) = std::env::var("SPQ_ALGORITHMS") {
            let parsed = parse_algorithms(&env);
            if !parsed.is_empty() {
                config.algorithms = parsed;
                config.explicit_flags.push("--algorithms".into());
            }
        }
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let Some(value) = args.next() else {
                return Err(format!("{flag}: missing value"));
            };
            let mut seen = flag.clone();
            match flag.as_str() {
                "--scale" => config.scale = value_of(&flag, &value)?,
                "--runs" => config.runs = value_of(&flag, &value)?,
                "--validation" => config.validation = value_of(&flag, &value)?,
                "--seed" => config.seed = value_of(&flag, &value)?,
                "--time-limit" => config.time_limit = Duration::from_secs(value_of(&flag, &value)?),
                "--queries" => {
                    config.queries = list_of(&flag, &value)?;
                    if let Some(q) = config.queries.iter().find(|q| !(1..=8).contains(*q)) {
                        return Err(format!("{flag}: query {q} is not in 1..=8"));
                    }
                }
                "--algorithms" | "--algorithm" => {
                    config.algorithms = list_of(&flag, &value)?;
                    seen = "--algorithms".into();
                }
                "--storage" => {
                    config.storage = match value.as_str() {
                        "memory" | "mem" => StorageTier::Memory,
                        "disk" => StorageTier::Disk,
                        other => {
                            return Err(format!(
                                "--storage: unknown tier `{other}` (expected memory or disk)"
                            ))
                        }
                    };
                }
                "--max-relation-bytes" => {
                    config.max_relation_bytes = Some(value_of(&flag, &value)?);
                }
                "--scale-list" => config.scale_list = Some(list_of(&flag, &value)?),
                "--trace" => spq_obs::trace::enable(value),
                "--out" => config.out = Some(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
            config.explicit_flags.push(seen);
        }
        Ok(config)
    }

    /// True when `flag` (canonical spelling, e.g. `"--runs"`) was explicitly
    /// supplied on the command line — or, for `"--algorithms"`, via the
    /// `SPQ_ALGORITHMS` environment variable.
    pub fn was_set(&self, flag: &str) -> bool {
        self.explicit_flags.iter().any(|f| f == flag)
    }

    /// Engine options for one run with the given seed and scenario settings.
    pub fn options(
        &self,
        seed: u64,
        initial_scenarios: usize,
        initial_summaries: usize,
    ) -> SpqOptions {
        SpqOptions {
            seed,
            initial_scenarios,
            scenario_increment: initial_scenarios.max(10),
            max_scenarios: 400,
            validation_scenarios: self.validation,
            expectation_scenarios: self.validation.min(1000),
            initial_summaries,
            time_limit: Some(self.time_limit),
            solver: solver_options(self.time_limit),
            max_relation_bytes: self.max_relation_bytes,
            ..Default::default()
        }
    }

    /// Build a workload honoring `--storage` and `--max-relation-bytes`:
    /// the disk tier streams the relation into chunk files under a
    /// per-process temp directory and caps the chunk cache at the
    /// relation-byte ceiling (when one is set) so the benchmark really runs
    /// out-of-core.
    pub fn build_workload(&self, kind: WorkloadKind, scale: usize) -> spq_workloads::Workload {
        match self.storage {
            StorageTier::Memory => build_workload(kind, scale, self.seed),
            StorageTier::Disk => {
                let dir = std::env::temp_dir()
                    .join(format!("spq-bench-{}-{kind}-{scale}", std::process::id()));
                let mut storage = StorageOptions::disk(dir);
                if let Some(cap) = self.max_relation_bytes {
                    storage = storage.cache_bytes(cap);
                }
                build_workload_with(kind, scale, self.seed, storage)
                    .expect("disk-backed workload build")
            }
        }
    }
}

fn solver_options(limit: Duration) -> spq_solver::SolverOptions {
    spq_solver::SolverOptions {
        time_limit: Some(limit.min(Duration::from_secs(30))),
        ..Default::default()
    }
}

/// The outcome of one measured run.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Query number.
    pub query: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Run index (seed offset).
    pub run: usize,
    /// Number of optimization scenarios the run ended with.
    pub scenarios: usize,
    /// Number of summaries used (0 for Naïve).
    pub summaries: usize,
    /// Dataset size.
    pub n_tuples: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Whether a validation-feasible package was found.
    pub feasible: bool,
    /// Objective estimate of the returned package.
    pub objective: Option<f64>,
    /// Total simplex pivots across every LP relaxation of the run — the
    /// work measure that exposes warm-start savings.
    pub lp_pivots: usize,
    /// Evaluation error, if the engine refused or failed the query outright
    /// (e.g. the solver's memory guard on a model too large to solve).
    pub error: Option<String>,
}

/// Run one (workload, query, algorithm) combination `runs` times with
/// different seeds and return the per-run records.
pub fn run_query(
    config: &HarnessConfig,
    kind: WorkloadKind,
    relation_scale: usize,
    query: usize,
    algorithm: Algorithm,
    initial_scenarios: usize,
    initial_summaries: usize,
) -> Vec<RunRecord> {
    spq_sketch::install();
    let workload = config.build_workload(kind, relation_scale);
    let mut records = Vec::with_capacity(config.runs);
    for run in 0..config.runs {
        let options = config.options(
            config.seed + 1000 * run as u64 + 1,
            initial_scenarios,
            initial_summaries,
        );
        let engine = SpqEngine::new(options);
        let started = std::time::Instant::now();
        let (result, error): (Option<EvaluationResult>, Option<String>) = {
            let _span = spq_obs::span("query");
            match engine.evaluate(&workload.relation, workload.query(query), algorithm) {
                Ok(r) => (Some(r), None),
                Err(e) => (None, Some(e.to_string())),
            }
        };
        let seconds = started.elapsed().as_secs_f64();
        let (feasible, objective, summaries) = match &result {
            Some(r) => (
                r.feasible,
                r.objective(),
                if algorithm == Algorithm::Naive {
                    0
                } else {
                    r.stats.summaries_used
                },
            ),
            None => (false, None, 0),
        };
        let lp_pivots = result.as_ref().map(|r| r.stats.lp_pivots).unwrap_or(0);
        records.push(RunRecord {
            workload: kind.to_string(),
            query,
            algorithm: algorithm.to_string(),
            run,
            scenarios: result.as_ref().map(|r| r.stats.scenarios_used).unwrap_or(0),
            summaries,
            n_tuples: workload.relation.len(),
            seconds,
            feasible,
            objective,
            lp_pivots,
            error,
        });
    }
    records
}

/// Aggregate statistics over the runs of one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Aggregate {
    /// Fraction of runs that produced a validation-feasible package.
    pub feasibility_rate: f64,
    /// Mean wall-clock seconds.
    pub mean_seconds: f64,
    /// Best objective across runs (maximum; callers flip the sign for
    /// minimization objectives if they need the true best).
    pub best_objective: Option<f64>,
    /// Mean objective across runs that produced a package.
    pub mean_objective: Option<f64>,
    /// Mean simplex pivots per run.
    pub mean_lp_pivots: f64,
}

/// Aggregate a slice of run records.
pub fn aggregate(records: &[RunRecord]) -> Aggregate {
    let n = records.len().max(1) as f64;
    let feasible = records.iter().filter(|r| r.feasible).count() as f64;
    let mean_seconds = records.iter().map(|r| r.seconds).sum::<f64>() / n;
    let mean_lp_pivots = records.iter().map(|r| r.lp_pivots as f64).sum::<f64>() / n;
    let objectives: Vec<f64> = records.iter().filter_map(|r| r.objective).collect();
    let mean_objective = if objectives.is_empty() {
        None
    } else {
        Some(objectives.iter().sum::<f64>() / objectives.len() as f64)
    };
    let best_objective = objectives
        .iter()
        .cloned()
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        });
    Aggregate {
        feasibility_rate: feasible / n,
        mean_seconds,
        best_objective,
        mean_objective,
        mean_lp_pivots,
    }
}

/// Empirical approximation ratio `1 + ε̂` (Section 6.1): the returned
/// objective relative to the best feasible objective found by any method on
/// the same query.
pub fn approximation_ratio(objective: f64, best: f64, maximize: bool) -> f64 {
    if best == 0.0 || objective == 0.0 {
        return 1.0;
    }
    if maximize {
        (best / objective).max(1.0)
    } else {
        (objective / best).max(1.0)
    }
}

/// Flush the trace ring buffers to the file configured via `--trace` /
/// `SPQ_TRACE` (no-op when tracing is off). Harness binaries call this once
/// just before exiting; the path is echoed on stderr so batch runs can find
/// their traces.
pub fn finish_trace() {
    if let Some(path) = spq_obs::trace::finish() {
        eprintln!("# trace written to {}", path.display());
    }
}

/// Print a table header followed by rows, TSV style.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_computes_rates_and_means() {
        let mk = |feasible: bool, seconds: f64, objective: f64| RunRecord {
            workload: "Galaxy".into(),
            query: 1,
            algorithm: "Naive".into(),
            run: 0,
            scenarios: 10,
            summaries: 0,
            n_tuples: 100,
            seconds,
            feasible,
            objective: Some(objective),
            lp_pivots: 100,
            error: None,
        };
        let agg = aggregate(&[mk(true, 1.0, 50.0), mk(false, 3.0, 40.0)]);
        assert!((agg.feasibility_rate - 0.5).abs() < 1e-12);
        assert!((agg.mean_seconds - 2.0).abs() < 1e-12);
        assert_eq!(agg.best_objective, Some(50.0));
        assert_eq!(agg.mean_objective, Some(45.0));
        assert!((agg.mean_lp_pivots - 100.0).abs() < 1e-12);
    }

    #[test]
    fn approximation_ratio_is_at_least_one() {
        assert!((approximation_ratio(50.0, 45.0, false) - 50.0 / 45.0).abs() < 1e-12);
        assert!((approximation_ratio(45.0, 50.0, true) - 50.0 / 45.0).abs() < 1e-12);
        assert_eq!(approximation_ratio(50.0, 55.0, false), 1.0);
        assert_eq!(approximation_ratio(0.0, 10.0, true), 1.0);
    }

    #[test]
    fn algorithm_lists_parse_with_flexible_spellings() {
        assert_eq!(
            parse_algorithms("naive, summary-search,sketchrefine"),
            vec![
                Algorithm::Naive,
                Algorithm::SummarySearch,
                Algorithm::SketchRefine
            ]
        );
        // Unknown entries are dropped, not fatal.
        assert_eq!(parse_algorithms("cplex,naive"), vec![Algorithm::Naive]);
        assert!(parse_algorithms("").is_empty());
    }

    #[test]
    fn default_config_covers_all_queries() {
        let c = HarnessConfig::default();
        assert_eq!(c.queries, (1..=8).collect::<Vec<_>>());
        assert_eq!(
            c.algorithms,
            vec![Algorithm::Naive, Algorithm::SummarySearch]
        );
        let o = c.options(1, 20, 2);
        assert_eq!(o.initial_scenarios, 20);
        assert_eq!(o.initial_summaries, 2);
        assert_eq!(o.validation_scenarios, 2000);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_hard_errors() {
        fn parse(v: &[&str]) -> Result<HarnessConfig, String> {
            HarnessConfig::parse(v.iter().map(|s| s.to_string()))
        }
        for (args, flag) in [
            (&["--sclae", "10"][..], "--sclae"),
            (&["--scale", "abc"], "--scale"),
            (&["--runs"], "--runs"),
            (&["--queries", "1,9"], "--queries"),
            (&["--scale-list", "10,x"], "--scale-list"),
            (&["--algorithms", "naive,cplex"], "--algorithms"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: `{err}` should name {flag}");
        }
        let ok = parse(&[
            "--runs",
            "2",
            "--queries",
            "1,3",
            "--scale-list",
            "10,20",
            "--out",
            "report.json",
        ])
        .unwrap();
        assert_eq!(ok.runs, 2);
        assert_eq!(ok.queries, [1, 3]);
        assert_eq!(ok.scale_list, Some(vec![10, 20]));
        assert_eq!(ok.out.as_deref(), Some("report.json"));
        assert!(ok.was_set("--runs") && ok.was_set("--out"));
        assert!(!ok.was_set("--scale"));
    }

    #[test]
    fn a_small_run_produces_records() {
        let config = HarnessConfig {
            runs: 1,
            scale: 40,
            validation: 300,
            time_limit: Duration::from_secs(20),
            ..Default::default()
        };
        let records = run_query(
            &config,
            WorkloadKind::Galaxy,
            40,
            3,
            Algorithm::SummarySearch,
            10,
            1,
        );
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].query, 3);
        assert!(records[0].seconds >= 0.0);
    }
}
