//! Storage-tier conformance for the full SketchRefine pipeline: the package
//! a query returns must not depend on where the relation's deterministic
//! columns live (memory vs chunked disk files) or on the chunk size. The
//! hierarchical partitioner reads block
//! summaries and pages straddled blocks, but its output — and therefore the
//! final refined package — is defined purely by tuple values.

use spq_core::{Algorithm, SketchOptions, SpqEngine, SpqOptions};
use spq_mcdb::StorageOptions;
use spq_workloads::{build_workload, build_workload_with, WorkloadKind};

fn engine() -> SpqEngine {
    SpqEngine::new(SpqOptions {
        initial_scenarios: 15,
        validation_scenarios: 400,
        sketch: SketchOptions {
            max_partition_size: 40,
            ..SketchOptions::default()
        },
        ..SpqOptions::for_tests()
    })
}

#[test]
fn sketch_refine_packages_are_identical_across_tiers_and_chunk_sizes() {
    spq_sketch::install();
    let scale = 600;
    let seed = 13;
    let memory = build_workload(WorkloadKind::Portfolio, scale, seed);
    let query = memory.query(1).to_string();

    // Reference: in-memory relation.
    let reference = engine()
        .evaluate(&memory.relation, &query, Algorithm::SketchRefine)
        .unwrap();
    assert!(reference.feasible, "stats: {:?}", reference.stats);
    let reference = reference.package.unwrap();

    let dir = std::env::temp_dir().join(format!("spq-sketch-conform-{}", std::process::id()));
    for chunk_rows in [1_000usize, 65_536] {
        let disk = build_workload_with(
            WorkloadKind::Portfolio,
            scale,
            seed,
            StorageOptions::disk(dir.join(format!("c{chunk_rows}"))).chunk_rows(chunk_rows),
        )
        .expect("disk-backed workload");
        assert_eq!(disk.relation.storage_kind(), "disk");
        assert_eq!(disk.relation.fingerprint(), memory.relation.fingerprint());
        let result = engine()
            .evaluate(&disk.relation, &query, Algorithm::SketchRefine)
            .unwrap();
        assert!(result.feasible, "chunk_rows={chunk_rows}");
        let package = result.package.unwrap();
        assert_eq!(
            package.multiplicities, reference.multiplicities,
            "package differs at chunk_rows={chunk_rows}"
        );
        assert_eq!(
            package.objective_estimate, reference.objective_estimate,
            "objective differs at chunk_rows={chunk_rows}"
        );
        assert_eq!(
            package.validation.objective_estimate, reference.validation.objective_estimate,
            "validation differs at chunk_rows={chunk_rows}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
