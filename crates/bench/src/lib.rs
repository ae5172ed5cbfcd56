//! # spq-bench — the paper's §6 figures as one driver, plus the ledger
//!
//! The `paper` binary runs the experimental evaluation of the extended
//! paper (arXiv 2103.06784 §6) over the Galaxy, Portfolio and TPC-H
//! workloads, one figure or all of them (`--figure 4,5,6,7`):
//!
//! | Figure | What varies | Claim checked on deterministic counters |
//! |---|---|---|
//! | 4 | optimization scenarios `M` | Naïve's feasibility rate rises with `M` and is < 1 at the smallest `M` where SummarySearch's is 1 |
//! | 5 | `M`, the same grid | SummarySearch reaches feasibility with ≥ 10× fewer scenarios or LP pivots |
//! | 6 | summaries `Z` at fixed `M` (Portfolio) | the objective improves and the surplus falls as `Z` grows |
//! | 7 | dataset size `N` at fixed `M` (Galaxy) | SummarySearch's LP pivots grow by less than Naïve's |
//!
//! Every evaluation runs at exactly its `M` (no outer scenario escalation)
//! and every MILP under a node budget, so a [`Row`]'s counters are a pure
//! function of its cell and seed. [`claim`] judges the rows and the driver
//! writes both into `BENCH_paper.json` with the command, revision and
//! machine that produced them; `tests/paper_claims.rs` asserts the claims
//! at reduced scale.
//!
//! Speed is measured by the `perf_ledger` binary instead (see its README);
//! the `kernel_profile` example probes the solver kernel.
//!
//! A bad command line is fatal (exit code 2) rather than silently running a
//! different experiment; `--trace <path>` (or `SPQ_TRACE`) records phase
//! spans into a chrome-tracing JSON file.

use spq_core::{Algorithm, SpqEngine, SpqOptions};
use spq_mcdb::StorageOptions;
use spq_service::json::Json;
use spq_solver::Deadline;
use spq_workloads::{build_workload, build_workload_with, spec, Workload, WorkloadKind};
use std::time::Duration;

/// Figures 4 and 5's grid of optimization-scenario counts `M`.
pub const M_GRID: &[usize] = &[5, 10, 20, 40];
/// Figure 6's fixed `M`.
const FIG6_M: usize = 24;
/// Figure 6's grid of summary counts `Z`, up to `Z = M` (where the CSA is
/// the SAA).
const FIG6_Z: &[usize] = &[1, 2, 6, 12, 24];
/// Figure 7's fixed `M`, the paper's.
const FIG7_M: usize = 56;
/// Branch-and-bound nodes per MILP. Naïve's SAA at `M ≥ 20` runs into it;
/// a node budget stands in for the paper's per-query time limit so every
/// counter stays reproducible.
const MAX_NODES: usize = 20_000;

/// Which tier benchmark relations are materialized in (`--storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageTier {
    /// Fully resident deterministic columns (the default).
    #[default]
    Memory,
    /// Chunked columnar files under a temp directory, paged through the
    /// byte-budgeted chunk cache: the out-of-core configuration.
    Disk,
}

impl StorageTier {
    /// Canonical spelling for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageTier::Memory => "memory",
            StorageTier::Disk => "disk",
        }
    }
}

/// The driver's command line.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Which figures to run (`--figure 4,5,6,7`).
    pub figures: Vec<usize>,
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
    /// Figure 7's dataset sizes (`--scale-list`); `None` scales `--scale`
    /// by ×1…×5.
    pub scale_list: Option<Vec<usize>>,
    /// Each run's deadline (`--time-limit`), armed when the run's options
    /// are built: the only clock of a run.
    pub time_limit: Duration,
    /// Base seed.
    pub seed: u64,
    /// Storage tier for benchmark relations (`--storage memory|disk`).
    pub storage: StorageTier,
    /// Resident-byte ceiling (`--max-relation-bytes`): clamps the disk
    /// tier's chunk-cache budget and makes every evaluation enforce
    /// [`SpqOptions::max_relation_bytes`].
    pub max_relation_bytes: Option<u64>,
    /// Path of the JSON report (`--out`).
    pub out: String,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            figures: vec![4, 5, 6, 7],
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
            out: "BENCH_paper.json".into(),
        }
    }
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

/// Reject a list entry outside `range`.
fn within(
    flag: &str,
    list: &[usize],
    range: std::ops::RangeInclusive<usize>,
) -> Result<(), String> {
    match list.iter().find(|v| !range.contains(*v)) {
        Some(v) => Err(format!("{flag}: {v} is not in {range:?}")),
        None => Ok(()),
    }
}

impl HarnessConfig {
    /// [`HarnessConfig::parse`] over the process arguments; a bad command
    /// line exits with code 2.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(config) => config,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Flags come in `--flag value` pairs: `--figure 4,5,6,7`, `--scale N`,
    /// `--runs R`, `--validation V`, `--queries 1,2,3` (each in `1..=8`),
    /// `--time-limit SECS`, `--seed S`, `--algorithms
    /// naive,summarysearch,sketchrefine`, `--scale-list N1,N2`, `--storage
    /// memory|disk`, `--max-relation-bytes B`, `--trace PATH` and `--out
    /// PATH`. Returns `Err`, naming the flag, on an unknown flag, a missing
    /// value or a value that does not parse. SketchRefine is installed into
    /// the engine as a side effect.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        spq_sketch::install();
        let mut config = HarnessConfig::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let Some(value) = args.next() else {
                return Err(format!("{flag}: missing value"));
            };
            match flag.as_str() {
                "--figure" => {
                    config.figures = list_of(&flag, &value)?;
                    within(&flag, &config.figures, 4..=7)?;
                }
                "--scale" => config.scale = value_of(&flag, &value)?,
                "--runs" => config.runs = value_of(&flag, &value)?,
                "--validation" => config.validation = value_of(&flag, &value)?,
                "--seed" => config.seed = value_of(&flag, &value)?,
                "--time-limit" => config.time_limit = Duration::from_secs(value_of(&flag, &value)?),
                "--queries" => {
                    config.queries = list_of(&flag, &value)?;
                    within(&flag, &config.queries, 1..=8)?;
                }
                "--algorithms" => config.algorithms = list_of(&flag, &value)?,
                "--storage" => {
                    config.storage = match value.as_str() {
                        "memory" => StorageTier::Memory,
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
                "--out" => config.out = value,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(config)
    }

    /// Engine options for one run at exactly `m` scenarios and `z`
    /// summaries: the scenario budget is capped at `m`, so no run escalates
    /// past the `M` its row reports. The run's deadline is armed here, so
    /// build the options just before the run.
    fn options(&self, seed: u64, m: usize, z: usize) -> SpqOptions {
        SpqOptions {
            seed,
            initial_scenarios: m,
            scenario_increment: m,
            max_scenarios: m,
            validation_scenarios: self.validation,
            expectation_scenarios: self.validation.min(1000),
            initial_summaries: z,
            deadline: Deadline::within(self.time_limit),
            solver: spq_solver::SolverOptions {
                max_nodes: MAX_NODES,
                ..Default::default()
            },
            max_relation_bytes: self.max_relation_bytes,
            ..Default::default()
        }
    }

    /// Build a workload honoring `--storage` and `--max-relation-bytes`:
    /// the disk tier streams the relation into chunk files under a
    /// per-process temp directory and caps the chunk cache at the
    /// relation-byte ceiling, so the run really pages.
    fn build_workload(&self, kind: WorkloadKind, scale: usize) -> Workload {
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

/// One evaluation: a cell of a figure's grid at one seed.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper figure (4–7).
    pub figure: usize,
    /// Workload.
    pub workload: WorkloadKind,
    /// Query number.
    pub query: usize,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Run index (seed offset).
    pub run: usize,
    /// Dataset size.
    pub n_tuples: usize,
    /// The `M` this cell runs at.
    pub m: usize,
    /// The `Z` this cell asks for (`0` for Naïve).
    pub z: usize,
    /// Optimization scenarios of the last iteration.
    pub scenarios_used: usize,
    /// Summaries of the last iteration (`0` for Naïve).
    pub summaries_used: usize,
    /// Simplex pivots over every LP relaxation of the run.
    pub lp_pivots: usize,
    /// Branch-and-bound nodes over every solve of the run.
    pub solver_nodes: usize,
    /// Whether the returned package is validation-feasible.
    pub feasible: bool,
    /// Objective estimate of the returned package.
    pub objective: Option<f64>,
    /// Validation surplus `r = satisfied fraction − p`, per probabilistic
    /// constraint, of the returned package.
    pub surplus: Vec<f64>,
    /// Wall-clock seconds (reported, never judged).
    pub seconds: f64,
    /// Evaluation error, if the engine refused or failed the query.
    pub error: Option<String>,
}

impl Row {
    /// The worst surplus across the probabilistic constraints.
    fn min_surplus(&self) -> Option<f64> {
        self.surplus.iter().copied().reduce(f64::min)
    }

    fn maximize(&self) -> bool {
        spec::query_spec(self.workload, self.query).maximize
    }

    /// True for the rows [`approximation_ratio`] compares this one with.
    fn same_instance(&self, other: &Row) -> bool {
        (self.figure, self.workload, self.query, self.n_tuples)
            == (other.figure, other.workload, other.query, other.n_tuples)
    }

    /// The row as a JSON object; `ratio` is its approximation ratio.
    pub fn to_json(&self, ratio: Option<f64>) -> Json {
        let opt = |v: Option<f64>| v.map(Json::from).unwrap_or(Json::Null);
        Json::Obj(vec![
            ("figure".into(), Json::from(self.figure)),
            ("workload".into(), Json::from(self.workload.to_string())),
            ("query".into(), Json::from(self.query)),
            ("algorithm".into(), Json::from(self.algorithm.to_string())),
            ("run".into(), Json::from(self.run)),
            ("n_tuples".into(), Json::from(self.n_tuples)),
            ("m".into(), Json::from(self.m)),
            ("z".into(), Json::from(self.z)),
            ("scenarios_used".into(), Json::from(self.scenarios_used)),
            ("summaries_used".into(), Json::from(self.summaries_used)),
            ("lp_pivots".into(), Json::from(self.lp_pivots)),
            ("solver_nodes".into(), Json::from(self.solver_nodes)),
            ("feasible".into(), Json::from(self.feasible)),
            ("objective".into(), opt(self.objective)),
            (
                "surplus".into(),
                Json::Arr(self.surplus.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("approx_ratio".into(), opt(ratio)),
            ("seconds".into(), Json::from(self.seconds)),
            (
                "error".into(),
                self.error.clone().map(Json::from).unwrap_or(Json::Null),
            ),
        ])
    }
}

/// The empirical approximation ratio `1 + ε̂` (§6.1) of a feasible `row`:
/// its objective against the best *feasible* objective among `rows` on the
/// same instance (figure, workload, query and size), in the query's
/// direction. `None` for an infeasible row or one without an objective.
pub fn approximation_ratio(row: &Row, rows: &[Row]) -> Option<f64> {
    let objective = row.objective.filter(|_| row.feasible)?;
    let maximize = row.maximize();
    let best = rows
        .iter()
        .filter(|r| r.feasible && r.same_instance(row))
        .filter_map(|r| r.objective)
        .reduce(|a, b| if maximize == (b > a) { b } else { a })?;
    let (gap, base) = if maximize {
        (best - objective, objective)
    } else {
        (objective - best, best)
    };
    Some(if gap == 0.0 {
        1.0
    } else {
        1.0 + gap / base.abs()
    })
}

/// Run one cell `config.runs` times with different seeds; `z` is `0` for
/// Naïve.
fn run_cell(
    config: &HarnessConfig,
    figure: usize,
    workload: &Workload,
    (query, algorithm, m, z): (usize, Algorithm, usize, usize),
) -> Vec<Row> {
    (0..config.runs)
        .map(|run| {
            let options = config.options(config.seed + 1000 * run as u64 + 1, m, z.max(1));
            let started = std::time::Instant::now();
            let result = {
                let _span = spq_obs::span("query");
                let engine = SpqEngine::new(options);
                engine.evaluate(&workload.relation, workload.query(query), algorithm)
            };
            let mut row = Row {
                figure,
                workload: workload.kind,
                query,
                algorithm,
                run,
                n_tuples: workload.relation.len(),
                m,
                z,
                scenarios_used: 0,
                summaries_used: 0,
                lp_pivots: 0,
                solver_nodes: 0,
                feasible: false,
                objective: None,
                surplus: Vec::new(),
                seconds: started.elapsed().as_secs_f64(),
                error: None,
            };
            match result {
                Ok(r) => {
                    row.scenarios_used = r.stats.scenarios_used;
                    row.summaries_used = r.stats.summaries_used;
                    row.lp_pivots = r.stats.lp_pivots;
                    row.solver_nodes = r.stats.solver_nodes;
                    row.feasible = r.feasible;
                    row.objective = r.objective();
                    if let Some(p) = &r.package {
                        row.surplus = p.validation.constraints.iter().map(|c| c.surplus).collect();
                    }
                }
                Err(e) => row.error = Some(e.to_string()),
            }
            row
        })
        .collect()
}

/// Run one figure's grid (see the crate docs) for every query and
/// algorithm of `config`.
pub fn run_figure(config: &HarnessConfig, figure: usize) -> Vec<Row> {
    use WorkloadKind::{Galaxy, Portfolio, Tpch};
    // (workload, size, M, Z) per cell; the paper's Z is 2 for TPC-H and 1
    // otherwise (§6.2.1).
    let cells: Vec<(WorkloadKind, usize, usize, usize)> = match figure {
        4 | 5 => [Galaxy, Portfolio, Tpch]
            .into_iter()
            .flat_map(|k| {
                let z = if k == Tpch { 2 } else { 1 };
                M_GRID.iter().map(move |&m| (k, config.scale, m, z))
            })
            .collect(),
        6 => FIG6_Z
            .iter()
            .map(|&z| (Portfolio, config.scale, FIG6_M, z))
            .collect(),
        7 => match &config.scale_list {
            Some(sizes) => sizes.iter().map(|&n| (Galaxy, n, FIG7_M, 1)).collect(),
            None => (1..=5)
                .map(|f| (Galaxy, f * config.scale, FIG7_M, 1))
                .collect(),
        },
        other => panic!("no figure {other}"),
    };
    let mut rows = Vec::new();
    let mut done = Vec::new();
    let mut built: Option<(WorkloadKind, usize, Workload)> = None;
    for (kind, n, m, z) in cells {
        if !matches!(&built, Some((k, s, _)) if (*k, *s) == (kind, n)) {
            built = Some((kind, n, config.build_workload(kind, n)));
        }
        let workload = &built.as_ref().expect("built above").2;
        for &q in &config.queries {
            for &a in &config.algorithms {
                // Z means nothing to Naive: one cell per M.
                let cell = (q, a, m, if a == Algorithm::Naive { 0 } else { z.min(m) });
                if !done.contains(&(kind, n, cell)) {
                    done.push((kind, n, cell));
                    rows.extend(run_cell(config, figure, workload, cell));
                }
            }
        }
    }
    rows
}

/// One of the paper's qualitative claims, judged on a figure's rows.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Paper figure (4–7).
    pub figure: usize,
    /// The claim, in words.
    pub statement: &'static str,
    /// Whether the rows bear it out.
    pub met: bool,
    /// The counters the verdict rests on.
    pub evidence: Json,
}

impl Claim {
    /// The claim as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("figure".into(), Json::from(self.figure)),
            ("claim".into(), Json::from(self.statement)),
            ("met".into(), Json::from(self.met)),
            ("evidence".into(), self.evidence.clone()),
        ])
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

fn select<'a>(rows: &[&'a Row], keep: impl Fn(&Row) -> bool) -> Vec<&'a Row> {
    rows.iter().copied().filter(|r| keep(r)).collect()
}

/// `(x, mean of value)` over `rows` for each distinct `x`, ascending.
fn curve(
    rows: &[&Row],
    x: impl Fn(&Row) -> usize,
    value: impl Fn(&Row) -> Option<f64>,
) -> Vec<(usize, Option<f64>)> {
    let mut xs: Vec<usize> = rows.iter().map(|r| x(r)).collect();
    xs.sort_unstable();
    xs.dedup();
    xs.into_iter()
        .map(|at| {
            (
                at,
                mean(rows.iter().filter(|r| x(r) == at).filter_map(|r| value(r))),
            )
        })
        .collect()
}

fn num(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::from)
}

fn series(points: &[(usize, Option<f64>)]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|&(x, v)| Json::Arr(vec![Json::from(x), num(v)]))
            .collect(),
    )
}

/// The first and last values of a curve.
fn ends(points: &[(usize, Option<f64>)]) -> (Option<f64>, Option<f64>) {
    (
        points.first().and_then(|p| p.1),
        points.last().and_then(|p| p.1),
    )
}

fn feasible(r: &Row) -> Option<f64> {
    Some(f64::from(u8::from(r.feasible)))
}

/// The smallest `M` at which every run is feasible (`None` when no `M` of
/// the grid is), and the mean LP pivots spent at it (at the largest `M`
/// when it is never reached).
fn reach(rows: &[&Row]) -> (Option<usize>, Option<f64>) {
    let rate = curve(rows, |r| r.m, feasible);
    let first = rate.iter().find(|p| p.1 == Some(1.0)).map(|p| p.0);
    let at = first.or(rate.last().map(|p| p.0));
    let pivots = rows
        .iter()
        .filter(|r| Some(r.m) == at)
        .map(|r| r.lp_pivots as f64);
    (first, mean(pivots))
}

/// Judge the paper's claim for `figure` on its rows, over the queries that
/// Table 3 marks feasible; `None` when the rows lack Naïve or
/// SummarySearch, the two algorithms every claim compares.
pub fn claim(figure: usize, rows: &[Row]) -> Option<Claim> {
    let rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.figure == figure && spec::query_spec(r.workload, r.query).feasible)
        .collect();
    let naive = select(&rows, |r| r.algorithm == Algorithm::Naive);
    let ss = select(&rows, |r| r.algorithm == Algorithm::SummarySearch);
    if naive.is_empty() || ss.is_empty() {
        return None;
    }
    let pivots = |r: &Row| Some(r.lp_pivots as f64);
    let (statement, met, evidence) = match figure {
        4 => {
            let (n, s) = (
                curve(&naive, |r| r.m, feasible),
                curve(&ss, |r| r.m, feasible),
            );
            // "Small M": the smallest at which SummarySearch is always
            // feasible.
            let small = reach(&ss).0;
            let naive_there = n.iter().find(|p| Some(p.0) == small).and_then(|p| p.1);
            let (first, last) = ends(&n);
            let rises = n.windows(2).all(|w| w[0].1 <= w[1].1) && first < last;
            (
                "Naive's feasibility rate rises with M and is < 1 at the smallest M where \
                 SummarySearch's is 1",
                rises && naive_there.is_some_and(|r| r < 1.0),
                vec![
                    ("naive_rate_by_m", series(&n)),
                    ("summarysearch_rate_by_m", series(&s)),
                    (
                        "smallest_m_summarysearch_always_feasible",
                        num(small.map(|m| m as f64)),
                    ),
                ],
            )
        }
        5 => {
            let largest = rows.iter().map(|r| r.m).max().unwrap_or(0);
            let judge = |naive: &[&Row], ss: &[&Row]| {
                let ((n_m, n_piv), (s_m, s_piv)) = (reach(naive), reach(ss));
                let fewer_scenarios =
                    s_m.is_some_and(|s| n_m.map_or(10 * s <= largest, |n| 10 * s <= n));
                let fewer_pivots =
                    s_m.is_some() && matches!((s_piv, n_piv), (Some(s), Some(n)) if 10.0 * s <= n);
                let met = fewer_scenarios || fewer_pivots;
                let m = |m: Option<usize>| num(m.map(|m| m as f64));
                let fields = vec![
                    ("met".into(), Json::from(met)),
                    ("naive_first_feasible_m".into(), m(n_m)),
                    ("summarysearch_first_feasible_m".into(), m(s_m)),
                    ("naive_mean_pivots_there".into(), num(n_piv)),
                    ("summarysearch_mean_pivots_there".into(), num(s_piv)),
                ];
                (met, Json::Obj(fields))
            };
            let (met, all) = judge(&naive, &ss);
            // Per workload too, so a workload that disagrees shows.
            let mut scopes = vec![("all".to_string(), all)];
            for kind in [
                WorkloadKind::Galaxy,
                WorkloadKind::Portfolio,
                WorkloadKind::Tpch,
            ] {
                let only = |r: &Row| r.workload == kind;
                let (_, json) = judge(&select(&naive, only), &select(&ss, only));
                scopes.push((kind.to_string(), json));
            }
            (
                "SummarySearch reaches feasibility with >= 10x fewer scenarios or LP pivots \
                 (Naive never feasible on the grid: more than its largest M, pivots at it)",
                met,
                vec![
                    ("largest_m", Json::from(largest)),
                    ("by_workload", Json::Obj(scopes)),
                ],
            )
        }
        6 => {
            // Objectives in the maximizing direction, so "improves" is ">".
            let signed = |r: &Row| r.objective.map(|o| if r.maximize() { o } else { -o });
            let objective = curve(&ss, |r| r.z, signed);
            let surplus = curve(&ss, |r| r.z, Row::min_surplus);
            let ((o0, o1), (s0, s1)) = (ends(&objective), ends(&surplus));
            (
                "SummarySearch's objective improves and its surplus falls from the smallest to \
                 the largest Z",
                objective.len() > 1 && o0 < o1 && o0.is_some() && s1 < s0 && s1.is_some(),
                vec![
                    ("objective_by_z_maximizing_sign", series(&objective)),
                    ("min_surplus_by_z", series(&surplus)),
                ],
            )
        }
        7 => {
            let (n, s) = (
                curve(&naive, |r| r.n_tuples, pivots),
                curve(&ss, |r| r.n_tuples, pivots),
            );
            let rise = |c: &[(usize, Option<f64>)]| match ends(c) {
                (Some(a), Some(b)) if c.len() > 1 => Some(b - a),
                _ => None,
            };
            let (rn, rs) = (rise(&n), rise(&s));
            (
                "SummarySearch's LP pivots grow by less than Naive's from the smallest to the \
                 largest N",
                matches!((rs, rn), (Some(s), Some(n)) if s < n),
                vec![
                    ("naive_mean_pivots_by_n", series(&n)),
                    ("summarysearch_mean_pivots_by_n", series(&s)),
                    (
                        "naive_rate_by_n",
                        series(&curve(&naive, |r| r.n_tuples, feasible)),
                    ),
                    (
                        "summarysearch_rate_by_n",
                        series(&curve(&ss, |r| r.n_tuples, feasible)),
                    ),
                    (
                        "naive_runs_at_node_budget",
                        Json::from(naive.iter().filter(|r| r.solver_nodes >= MAX_NODES).count()),
                    ),
                ],
            )
        }
        other => panic!("no figure {other}"),
    };
    Some(Claim {
        figure,
        statement,
        met,
        evidence: Json::Obj(
            evidence
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    })
}

/// Flush the trace ring buffers to the file configured via `--trace` /
/// `SPQ_TRACE` (no-op when tracing is off), echoing the path on stderr.
pub fn finish_trace() {
    if let Some(path) = spq_obs::trace::finish() {
        eprintln!("# trace written to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(algorithm: Algorithm, feasible: bool, objective: f64) -> Row {
        Row {
            figure: 7,
            workload: WorkloadKind::Galaxy,
            query: 1,
            algorithm,
            run: 0,
            n_tuples: 100,
            m: 20,
            z: 1,
            scenarios_used: 20,
            summaries_used: 1,
            lp_pivots: 100,
            solver_nodes: 1,
            feasible,
            objective: Some(objective),
            surplus: vec![0.01],
            seconds: 0.0,
            error: None,
        }
    }

    #[test]
    fn approximation_ratio_minimizes_against_the_smallest_feasible_objective() {
        // Galaxy minimizes: the best is the smallest objective, not the
        // largest.
        let rows = [
            row(Algorithm::Naive, true, 50.0),
            row(Algorithm::SummarySearch, true, 40.0),
        ];
        assert_eq!(approximation_ratio(&rows[1], &rows), Some(1.0));
        assert!((approximation_ratio(&rows[0], &rows).unwrap() - 50.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn approximation_ratio_maximizes_against_the_largest_feasible_objective() {
        let mut rows = [
            row(Algorithm::Naive, true, 45.0),
            row(Algorithm::SummarySearch, true, 50.0),
        ];
        for r in &mut rows {
            r.workload = WorkloadKind::Portfolio;
        }
        assert_eq!(approximation_ratio(&rows[1], &rows), Some(1.0));
        assert!((approximation_ratio(&rows[0], &rows).unwrap() - 50.0 / 45.0).abs() < 1e-12);
    }

    #[test]
    fn approximation_ratio_ignores_infeasible_runs() {
        // The infeasible run's objective beats both feasible ones, but it is
        // neither the reference nor given a ratio of its own.
        let rows = [
            row(Algorithm::Naive, false, 10.0),
            row(Algorithm::SummarySearch, true, 40.0),
            row(Algorithm::SummarySearch, true, 60.0),
        ];
        assert_eq!(approximation_ratio(&rows[0], &rows), None);
        assert_eq!(approximation_ratio(&rows[1], &rows), Some(1.0));
        assert!((approximation_ratio(&rows[2], &rows).unwrap() - 1.5).abs() < 1e-12);
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
            (&["--figure", "3"], "--figure"),
            (&["--scale-list", "10,x"], "--scale-list"),
            (&["--algorithms", "naive,cplex"], "--algorithms"),
            (&["--algorithm", "naive"], "--algorithm"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: `{err}` should name {flag}");
        }
        let ok = parse(&[
            "--figure",
            "5",
            "--runs",
            "2",
            "--queries",
            "1,3",
            "--scale-list",
            "10,20",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(ok.figures, [5]);
        assert_eq!(ok.runs, 2);
        assert_eq!(ok.queries, [1, 3]);
        assert_eq!(ok.scale_list, Some(vec![10, 20]));
        assert_eq!(ok.out, "r.json");
    }

    #[test]
    fn algorithm_lists_parse_with_flexible_spellings() {
        let config = HarnessConfig::parse(
            ["--algorithms", "naive, summary-search,sketchrefine"].map(String::from),
        )
        .unwrap();
        assert_eq!(
            config.algorithms,
            [
                Algorithm::Naive,
                Algorithm::SummarySearch,
                Algorithm::SketchRefine
            ]
        );
    }

    #[test]
    fn default_config_covers_all_queries() {
        let c = HarnessConfig::default();
        assert_eq!(c.figures, [4, 5, 6, 7]);
        assert_eq!(c.queries, (1..=8).collect::<Vec<_>>());
        assert_eq!(c.algorithms, [Algorithm::Naive, Algorithm::SummarySearch]);
        // Every run stays at exactly its M.
        let o = c.options(1, 20, 2);
        assert_eq!((o.initial_scenarios, o.max_scenarios), (20, 20));
        assert_eq!(o.initial_summaries, 2);
        assert_eq!(o.validation_scenarios, 2000);
        assert_eq!(o.solver.max_nodes, MAX_NODES);
    }

    #[test]
    fn a_small_run_produces_records() {
        let config = HarnessConfig {
            runs: 1,
            validation: 300,
            queries: vec![3],
            algorithms: vec![Algorithm::SummarySearch],
            scale_list: Some(vec![40]),
            ..Default::default()
        };
        let rows = run_figure(&config, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].query, rows[0].n_tuples, rows[0].m),
            (3, 40, FIG7_M)
        );
        assert_eq!(rows[0].scenarios_used, FIG7_M);
        assert!(rows[0].error.is_none() && rows[0].seconds >= 0.0);
    }
}
