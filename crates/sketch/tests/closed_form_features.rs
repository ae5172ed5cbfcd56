//! Partitioning features come from the VG function's closed form where it
//! has one: no scenario cell is drawn, and the partitioning does not depend
//! on the seed. A column without a closed form keeps the sampled estimate.
//!
//! The tests read the process-wide `spq_scenario_cells_realized` counter, so
//! they take turns.

use spq_core::{Instance, SpqEngine, SpqOptions};
use spq_sketch::{partition_hierarchical, BlockFeatures, Partitioning};
use spq_workloads::{build_workload, Workload, WorkloadKind};
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

fn cells_realized() -> u64 {
    spq_obs::metrics::counter_value("spq_scenario_cells_realized").unwrap_or(0)
}

fn prepare(workload: &Workload, query: usize, seed: u64) -> Instance<'_> {
    let engine = SpqEngine::new(SpqOptions {
        seed,
        ..SpqOptions::for_tests()
    });
    let silp = engine
        .compile(&workload.relation, workload.query(query))
        .unwrap();
    engine.prepare(&workload.relation, silp).unwrap()
}

/// The `partition` phase of `evaluate_sketch_refine`.
fn partition(instance: &Instance<'_>) -> Partitioning {
    let sketch = &instance.options.sketch;
    let features = BlockFeatures::from_instance(instance).unwrap();
    partition_hierarchical(
        &features,
        sketch.effective_partition_size(instance.num_vars()),
        sketch.diameter_fraction,
    )
}

#[test]
fn gbm_portfolio_partitions_without_a_draw_and_whatever_the_seed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let workload = build_workload(WorkloadKind::Portfolio, 3000, 7);
    let a = prepare(&workload, 1, 11);
    let b = prepare(&workload, 1, 12);

    let before = cells_realized();
    let moments = a.tuple_moments("Gain", 24).unwrap();
    let (pa, pb) = (partition(&a), partition(&b));
    assert_eq!(
        cells_realized(),
        before,
        "closed-form features draw nothing"
    );

    // The moments are the VG function's own, not an estimate of them.
    let vg = &workload.relation.stochastic_column("Gain").unwrap().vg;
    for (&tuple, &(mean, sd)) in a.silp.tuples.iter().zip(&moments) {
        assert_eq!(Some(mean), vg.mean(tuple));
        assert_eq!(Some(sd), vg.std_dev(tuple));
        assert!(sd > 0.0);
    }

    assert!(pa.len() > 1);
    assert_eq!(pa.partitions, pb.partitions);
    assert_eq!(pa.representatives, pb.representatives);
    assert_eq!(pa.assignment, pb.assignment);
}

#[test]
fn a_column_without_a_closed_form_keeps_the_sampled_features() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // TPC-H's integrated-source columns are `DiscreteSources`.
    let workload = build_workload(WorkloadKind::Tpch, 300, 5);
    let instance = prepare(&workload, 1, 11);
    let column = instance.silp.stochastic_columns()[0].clone();
    let sc = workload.relation.stochastic_column(&column).unwrap();
    assert_eq!(sc.vg.name(), "discrete-sources");
    let n = instance.num_vars();
    assert!(instance
        .silp
        .tuples
        .iter()
        .any(|&t| sc.vg.std_dev(t).is_none()));

    let m = spq_sketch::features::FEATURE_SCENARIOS;
    let before = cells_realized();
    let moments = instance.tuple_moments(&column, m).unwrap();
    assert_eq!(cells_realized() - before, (n * m) as u64);

    // Bit for bit the estimate over the first `m` validation scenarios.
    let sampled = instance
        .val_gen
        .tuple_moments(&workload.relation, &column, &instance.silp.tuples, m)
        .unwrap();
    assert_eq!(moments.len(), n);
    for (got, want) in moments.iter().zip(&sampled) {
        assert_eq!(got.0.to_bits(), want.0.to_bits());
        assert_eq!(got.1.to_bits(), want.1.to_bits());
    }
    // ...which depends on the seed, as it always did.
    let other = prepare(&workload, 1, 12);
    assert_ne!(other.tuple_moments(&column, m).unwrap(), moments);
}
