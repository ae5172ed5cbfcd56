//! Quick profiling harness for the solver kernel (the sparse revised
//! simplex under branch-and-bound): prints node/iteration counts and
//! wall-clock so solver changes can be attributed (fewer iterations vs
//! cheaper iterations).
//!
//! Two models are solved: a Portfolio SAA model and a 2 000-tuple
//! Galaxy model on which the search restarts its LP on ever smaller cores.
//!
//! The first four stdout fields (`status= obj= nodes= lp_iters=`) are
//! byte-stable across runs of the same build — CI diffs them against
//! `ci/kernel_profile.golden` and between traced/untraced runs. Everything that varies
//! (wall-clock, the `total_wall_secs=` summary, solver counters) goes to
//! stderr. Set `SPQ_TRACE=<path>` to also record phase spans (compile,
//! formulate, one `solve_rep` per repetition) as chrome-tracing JSON.

use spq_core::saa::formulate_saa;
use spq_core::{Instance, SpqEngine, SpqOptions};
use spq_solver::{solve_full, Model, SolverOptions};
use spq_workloads::{build_workload, WorkloadKind};

/// The SAA model of one query of a workload with `m` optimization scenarios.
fn saa_model(kind: WorkloadKind, scale: usize, query: usize, m: usize) -> Model {
    let workload = build_workload(kind, scale, 9);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(query))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let _span = spq_obs::span("formulate");
    formulate_saa(&instance, m).unwrap().model
}

fn main() {
    // The restart model: 2 000 Galaxy tuples under two scenarios have the
    // shape of a CSA (2 002 columns, COUNT between 5 and 10, two dense real
    // rows), so incumbents pin most columns and the search moves through
    // four ever smaller cores.
    let models = [
        saa_model(WorkloadKind::Portfolio, 120, 1, 10),
        saa_model(WorkloadKind::Galaxy, 2000, 2, 2),
    ];
    let options = SolverOptions::default();
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let total = std::time::Instant::now();
    for model in &models {
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let res = {
                let _span = spq_obs::span("solve_rep");
                solve_full(model, &options).unwrap()
            };
            println!(
                "status={:?} obj={:?} nodes={} lp_iters={} elapsed={:?} wall={:?}",
                res.status,
                res.solution.as_ref().map(|s| s.objective),
                res.nodes,
                res.lp_iterations,
                res.elapsed,
                t.elapsed()
            );
        }
    }
    // Machine-readable total for overhead gates (stderr keeps stdout diffable).
    eprintln!("total_wall_secs={:.6}", total.elapsed().as_secs_f64());
    // Solver kernel counters accumulated by the spq-obs registry.
    eprint!("{}", spq_obs::metrics::prometheus_text());
    spq_bench::finish_trace();
}
