//! Criterion end-to-end benchmarks: one Naïve-vs-SummarySearch comparison per
//! workload, at a small fixed scale. These are the `cargo bench` counterparts
//! of the Figure 4 harness rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spq_core::{Algorithm, SpqEngine, SpqOptions};
use spq_workloads::{build_workload, WorkloadKind};
use std::time::Duration;

fn options() -> SpqOptions {
    SpqOptions {
        seed: 11,
        initial_scenarios: 15,
        scenario_increment: 15,
        max_scenarios: 45,
        validation_scenarios: 1_000,
        expectation_scenarios: 300,
        ..Default::default()
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_query");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    for (kind, query, scale) in [
        (WorkloadKind::Galaxy, 3usize, 80usize),
        (WorkloadKind::Portfolio, 1, 80),
        (WorkloadKind::Tpch, 5, 80),
    ] {
        let workload = build_workload(kind, scale, 9);
        for algorithm in [Algorithm::Naive, Algorithm::SummarySearch] {
            let id = BenchmarkId::new(format!("{kind}_Q{query}"), algorithm.to_string());
            group.bench_function(id, |b| {
                b.iter(|| {
                    let engine = SpqEngine::new(options());
                    engine
                        .evaluate(&workload.relation, workload.query(query), algorithm)
                        .ok()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(end_to_end, bench_end_to_end);
criterion_main!(end_to_end);
