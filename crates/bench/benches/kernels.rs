//! Criterion micro-benchmarks of the system's kernels: scenario generation,
//! summary construction, SAA vs CSA formulation, and the MILP solver.
//!
//! These complement the `paper` driver's end-to-end figures: they measure
//! the building blocks whose costs explain the end-to-end shapes (the SAA
//! formulation and solve dominating Naïve, summary construction being cheap
//! for SummarySearch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spq_core::saa::formulate_saa;
use spq_core::summary::{build_summaries, partition_scenarios, SummarySpec};
use spq_core::summary_search::realize_matrices;
use spq_core::{Instance, SpqEngine, SpqOptions};
use spq_mcdb::ScenarioGenerator;
use spq_solver::{solve_full, Sense, SolverOptions};
use spq_workloads::{build_workload, WorkloadKind};

fn bench_scenario_generation(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Galaxy, 500, 1);
    let generator = ScenarioGenerator::new(7);
    let mut group = c.benchmark_group("scenario_generation");
    group.sample_size(20);
    for &m in &[10usize, 50] {
        group.bench_with_input(BenchmarkId::new("galaxy_500_tuples", m), &m, |b, &m| {
            b.iter(|| {
                generator
                    .realize_matrix(&workload.relation, "Petromag_r", m)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_summary_construction(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Portfolio, 400, 2);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let matrices = realize_matrices(&instance, 64).unwrap();
    let matrix = matrices.values().next().unwrap();
    let prev = vec![1.0; instance.num_vars()];
    let mut group = c.benchmark_group("summary_construction");
    group.sample_size(30);
    for &z in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("portfolio_m64", z), &z, |b, &z| {
            let partitions = partition_scenarios(64, z);
            let spec = SummarySpec {
                alpha: 0.9,
                sense: Sense::Ge,
                previous_solution: Some(&prev),
                accelerate: true,
            };
            b.iter(|| build_summaries(matrix, &partitions, &spec))
        });
    }
    group.finish();
}

fn bench_formulation_size(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Galaxy, 300, 3);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let mut group = c.benchmark_group("saa_formulation");
    group.sample_size(10);
    for &m in &[10usize, 40] {
        group.bench_with_input(BenchmarkId::new("galaxy_300_tuples", m), &m, |b, &m| {
            b.iter(|| formulate_saa(&instance, m).unwrap())
        });
    }
    group.finish();
}

/// The LP kernel on a scenario-constraint MILP (the SAA of a Portfolio
/// query): the revised simplex prices only the constraint nonzeros — this
/// is the kernel behind Naïve's LP pivots in the `paper` driver's rows and
/// the `perf_ledger`'s `solver.*` rows.
fn bench_lp_kernel(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Portfolio, 120, 9);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let formulation = formulate_saa(&instance, 10).unwrap();
    let mut group = c.benchmark_group("lp_backend");
    group.sample_size(10);
    let options = SolverOptions::default();
    group.bench_function(BenchmarkId::new("saa_portfolio_120_m10", "revised"), |b| {
        b.iter(|| solve_full(&formulation.model, &options).unwrap())
    });
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Portfolio, 120, 4);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let mut group = c.benchmark_group("milp_solve");
    group.sample_size(10);
    for &m in &[5usize, 15] {
        let formulation = formulate_saa(&instance, m).unwrap();
        group.bench_with_input(BenchmarkId::new("saa_portfolio_120", m), &m, |b, _| {
            b.iter(|| solve_full(&formulation.model, &SolverOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_validation(c: &mut Criterion) {
    let workload = build_workload(WorkloadKind::Portfolio, 200, 5);
    let engine = SpqEngine::new(SpqOptions::for_tests());
    let silp = engine
        .compile(&workload.relation, workload.query(1))
        .unwrap();
    let instance = Instance::new(&workload.relation, silp, SpqOptions::for_tests()).unwrap();
    let mut x = vec![0.0; instance.num_vars()];
    for v in x.iter_mut().take(5) {
        *v = 1.0;
    }
    let mut group = c.benchmark_group("validation");
    group.sample_size(20);
    for &m_hat in &[1_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("portfolio_package5", m_hat),
            &m_hat,
            |b, &m_hat| b.iter(|| spq_core::validate(&instance, &x, m_hat).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_scenario_generation,
    bench_summary_construction,
    bench_formulation_size,
    bench_solver,
    bench_lp_kernel,
    bench_validation
);
criterion_main!(kernels);
