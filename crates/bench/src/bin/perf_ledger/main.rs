//! `perf_ledger`: the end-to-end, per-layer benchmark of the SPQ stack.
//!
//! See `README.md` in this directory for the metric catalogue, the
//! workloads and how to read the output.

mod catalog;
mod layers;
mod ledger;
mod run;
mod spans;
mod stats;
mod workload;

use run::RunConfig;
use spq_service::json::Json;
use std::path::{Path, PathBuf};
use workload::Workload;

/// Length of the timed phase unless `--seconds` says otherwise; the value
/// frozen in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// Untraced runs per workload of `all` unless `--runs` says otherwise: the
/// fewest whose quartiles mean something. (One run has no spread, and
/// `compare` then resolves nothing.)
const ALL_RUNS: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage:\n  perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--quick] [--notes <file>]\n  \
         perf_ledger all --seed <n> --out <file> [--runs <r>] [--seconds <s>] [--quick]\n  \
         perf_ledger compare <A.json> <B.json>\n\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

/// `--flag value` pairs and bare `--quick`, after any subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {flag}: {v}");
                usage()
            })
        })
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// The ledger measures the shipped defaults: an `SPQ_*` override (solver
/// backend, thread counts, tracing) would silently measure something else.
fn refuse_env_overrides() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPQ_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perf_ledger: refusing to run with {} set", set.join(", "));
        std::process::exit(2);
    }
}

/// The directory of the executable: inside the build directory, hence
/// inside the checkout. Scratch files and traces go here.
fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

/// A per-process scratch directory. Disk-tier relations of the server go
/// under the system temp directory, which `TMPDIR` points here.
fn scratch_dir() -> PathBuf {
    let dir = exe_dir().join(format!("perf_ledger.tmp.{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("TMPDIR", &dir);
    dir
}

type Metrics = [(&'static catalog::Metric, f64)];

/// The one line the driver reads.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            let value = Json::Obj(vec![
                ("value".to_string(), Json::from(*v)),
                ("unit".to_string(), Json::from(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::from(correct)),
        ("attempted".to_string(), Json::from(attempted)),
        ("failed".to_string(), Json::from(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .to_string()
}

fn print_report(notes: &[(String, Json)], metrics: &Metrics) {
    for (k, v) in notes {
        eprintln!("  {k}: {v}");
    }
    for (m, v) in metrics {
        eprintln!("  {:<34} {v:>16.6} {}", m.name, m.unit);
    }
}

/// One workload, one run: what the driver invokes.
fn drive(flags: &Flags) -> Result<String, String> {
    let Some(workload) = flags.value("--workload").and_then(Workload::parse) else {
        usage()
    };
    let scratch = scratch_dir();
    let config = RunConfig {
        workload,
        seed: flags.parsed("--seed").unwrap_or(1),
        seconds: flags.parsed("--seconds").unwrap_or(RUN_SECONDS),
        quick: flags.has("--quick"),
        scratch: scratch.clone(),
    };
    eprintln!(
        "perf_ledger: {} seed {} on {} cores, {} closed-loop clients",
        workload.name(),
        config.seed,
        run::nproc(),
        run::nproc()
    );
    let outcome = if flags.parsed::<u8>("--trace") == Some(1) {
        let out = exe_dir().join(format!(
            "perf_ledger.trace.{}.{}.json",
            workload.name(),
            config.seed
        ));
        layers::run_traced(&config, &out).map(|t| {
            let notes = vec![
                (
                    "chrome_trace".to_string(),
                    Json::from(out.display().to_string()),
                ),
                ("spans".to_string(), Json::from(t.spans)),
            ];
            (t.failed == 0, t.attempted, t.failed, t.metrics, notes)
        })
    } else {
        run::run_untraced(&config).map(|r| (r.correct(), r.attempted, r.failed, r.metrics, r.notes))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (correct, attempted, failed, metrics, notes) = outcome?;
    print_report(&notes, &metrics);
    if let Some(path) = flags.value("--notes") {
        std::fs::write(path, Json::Obj(notes).to_string())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    refuse_env_overrides();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                usage()
            };
            ledger::compare(Path::new(a), Path::new(b)).inspect(|acceptable| {
                println!(
                    "{}",
                    if *acceptable {
                        "ACCEPTABLE"
                    } else {
                        "REJECTED"
                    }
                );
            })
        }
        Some("all") => {
            let flags = Flags(args);
            let Some(out) = flags.value("--out") else {
                usage()
            };
            ledger::all(
                flags.parsed("--seed").unwrap_or(1),
                flags.parsed("--seconds").unwrap_or(RUN_SECONDS),
                flags.parsed("--runs").unwrap_or(ALL_RUNS).max(1),
                flags.has("--quick"),
                Path::new(out),
            )
        }
        _ => drive(&Flags(args)).map(|line| {
            println!("{line}");
            true
        }),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, scratch: &Path) -> RunConfig {
        RunConfig {
            workload,
            seed: 5,
            seconds: 0.5,
            quick: true,
            scratch: scratch.to_path_buf(),
        }
    }

    /// The whole pipeline at tiny sizes, over real TCP, for every workload:
    /// set-up, closed loop, output checks, traced replay with folded spans
    /// and direct layer calls. Only counts and shapes are asserted: the test
    /// shares its cores with the rest of the suite, so no timing means
    /// anything here.
    #[test]
    fn quick_mode_runs_every_workload_end_to_end() {
        let scratch =
            std::env::temp_dir().join(format!("perf-ledger-quick-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        // Every untraced run first: a traced run switches the `spq-obs` spans
        // on, and `spq-obs` has no switch to turn them off again.
        for workload in Workload::ALL {
            let config = quick(workload, &scratch);
            let run = run::run_untraced(&config).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            assert!(
                run.correct(),
                "{workload:?}: {} of {} verified",
                run.verified,
                run.attempted
            );
            assert_eq!(run.attempted, stats::MIN_SAMPLES_FOR_P90);
            assert_eq!(run.metrics.len(), catalog::END_TO_END.len());
            for (m, v) in &run.metrics {
                // (A hundred cache hits may fit inside one CPU clock tick.)
                assert!(v.is_finite() && *v >= 0.0, "{workload:?} {} = {v}", m.name);
            }
            let line = result_line(run.correct(), run.attempted, run.failed, &run.metrics);
            let parsed = spq_service::json::parse(&line).unwrap();
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        }
        for workload in Workload::ALL {
            let config = quick(workload, &scratch);
            let out = scratch.join(format!("{}.trace.json", workload.name()));
            let traced =
                layers::run_traced(&config, &out).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            assert_eq!(traced.failed, 0);
            assert_eq!(traced.metrics.len(), catalog::PER_LAYER.len());
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .unwrap()
                    .1
            };
            for (m, v) in &traced.metrics {
                assert!(v.is_finite(), "{workload:?} {} = {v}", m.name);
            }
            let shares: f64 = spans::GROUPS
                .iter()
                .map(|g| value(&format!("share.{g}")))
                .sum();
            assert!(
                (shares - 1.0).abs() < 1e-6,
                "{workload:?}: shares sum to {shares}"
            );
            let k = workload.sizes(true).traced_requests as f64;
            assert_eq!(value("net.lines"), k);
            assert_eq!(value("service.rejects"), 0.0);
            // Each workload isolates what it claims to.
            match workload {
                Workload::HotRepeat2Tenant => {
                    assert_eq!(value("service.result_cache_hit_share"), 1.0);
                    assert_eq!(value("solver.lp_pivots"), 0.0);
                    assert_eq!(value("scenario.cells"), 0.0);
                }
                Workload::ValTpchCold => {
                    assert_eq!(value("solver.lp_pivots"), 0.0);
                    assert_eq!(value("validation.passes"), k);
                }
                Workload::SrPortfolioDisk => {
                    // Reads went through the chunk cache (the tiny columns
                    // of the self-test are one chunk each, so here they hit).
                    assert!(value("column.chunk_hit_share") > 0.0);
                    assert!(value("sketch.partitions") > 0.0);
                }
                Workload::SsGalaxyMem => {
                    assert_eq!(value("service.result_cache_hit_share"), 0.0);
                    assert_eq!(value("service.prepared_cache_hit_share"), 0.0);
                    assert!(value("solver.lp_pivots") > 0.0);
                }
            }
            let trace = std::fs::read_to_string(&out).unwrap();
            assert!(
                spq_service::json::parse(&trace).is_ok(),
                "chrome trace parses"
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
