//! An independent oracle for the blocked validator, and the sharing its
//! tuple-keyed rows buy.
//!
//! The validator accumulates each scenario's score row by row (one realized
//! row per support tuple). The oracle below keeps the shape the validator
//! had before that — one dot product per scenario over the whole support,
//! from `Instance::validation_rows` — and every report must match it bit for
//! bit at any thread count and block size.
//!
//! Both tests read the process-wide `spq_scenario_cells_realized` counter or
//! move it, so they take turns.

use spq_core::silp::{CoeffSource, ConstraintKind, Direction, Silp, SilpConstraint, SilpObjective};
use spq_core::validation::required_successes;
use spq_core::{validate_with, Instance, SpqOptions, ValidationOptions};
use spq_mcdb::vg::{GeometricBrownianMotion, NormalNoise};
use spq_mcdb::{Relation, RelationBuilder, ScenarioCache};
use spq_solver::Sense;
use std::sync::{Arc, Mutex};

static TURN: Mutex<()> = Mutex::new(());

fn cells_realized() -> u64 {
    spq_obs::metrics::counter_value("spq_scenario_cells_realized").unwrap_or(0)
}

fn relation() -> Relation {
    let n = 8;
    RelationBuilder::new("t")
        .stochastic(
            "gain",
            // Trades 0–2 share one price path, 3–4 another.
            GeometricBrownianMotion::new(
                vec![100.0, 100.0, 100.0, 60.0, 60.0, 30.0, 45.0, 80.0],
                vec![0.001, 0.001, 0.001, 0.0005, 0.0005, 0.002, -0.0003, 0.0008],
                vec![0.02, 0.02, 0.02, 0.03, 0.03, 0.01, 0.025, 0.015],
                vec![1, 5, 10, 2, 7, 3, 4, 6],
                vec![0, 0, 0, 1, 1, 2, 3, 4],
            ),
        )
        .stochastic(
            "noise",
            NormalNoise::around((0..n).map(|i| i as f64 - 3.0).collect(), 1.5),
        )
        .build()
        .unwrap()
}

fn probabilistic(column: &str, sense: Sense, rhs: f64, probability: f64) -> SilpConstraint {
    SilpConstraint {
        name: format!("{column}-{rhs}"),
        coeff: CoeffSource::Stochastic(column.into()),
        sense,
        rhs,
        kind: ConstraintKind::Probabilistic { probability },
    }
}

/// Three probabilistic constraints over two columns (two of them share a
/// column) and a probability objective on the first column.
fn silp() -> Silp {
    Silp {
        relation: "t".into(),
        tuples: (0..8).collect(),
        repeat_bound: None,
        constraints: vec![
            probabilistic("gain", Sense::Ge, -4.0, 0.8),
            probabilistic("noise", Sense::Le, 6.0, 0.7),
            probabilistic("gain", Sense::Le, 9.0, 0.6),
        ],
        objective: SilpObjective::Probability {
            direction: Direction::Maximize,
            attribute: "gain".into(),
            sense: Sense::Ge,
            threshold: 1.0,
        },
    }
}

/// Satisfied count of one target, the old way: per scenario, one dot
/// product over the whole support.
fn oracle_count(
    instance: &Instance<'_>,
    x: &[f64],
    column: &str,
    sense: Sense,
    rhs: f64,
    m_hat: usize,
) -> usize {
    let support: Vec<usize> = (0..x.len()).filter(|&i| x[i] > 0.0).collect();
    let weights: Vec<f64> = support.iter().map(|&i| x[i]).collect();
    let rows = instance
        .validation_rows(column, &support, 0..m_hat)
        .unwrap();
    rows.iter()
        .filter(|row| {
            let score: f64 = row.iter().zip(&weights).map(|(s, w)| s * w).sum();
            sense.check(score, rhs, 1e-9)
        })
        .count()
}

#[test]
fn reports_match_whole_support_dot_products_bit_for_bit() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let rel = relation();
    let instance = Instance::new(&rel, silp(), SpqOptions::for_tests()).unwrap();
    let m_hat = 2_500;
    let packages: [[f64; 8]; 4] = [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [2.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0],
        // Overlaps the previous package on tuples 1 and 4.
        [0.0, 1.0, 2.0, 0.0, 1.0, 4.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ];
    for x in &packages {
        let expected: Vec<(usize, f64, usize)> = instance
            .silp
            .constraints
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let ConstraintKind::Probabilistic { probability } = c.kind else {
                    panic!("every constraint of the test query is probabilistic");
                };
                let column = c.coeff.column().expect("a stochastic column");
                (
                    ci,
                    probability,
                    oracle_count(&instance, x, column, c.sense, c.rhs, m_hat),
                )
            })
            .collect();
        let objective = oracle_count(&instance, x, "gain", Sense::Ge, 1.0, m_hat);

        for threads in [1, 2, 8] {
            for block in [1, 7, 2048] {
                let options = ValidationOptions {
                    threads,
                    block_scenarios: block,
                    ..ValidationOptions::full(m_hat)
                };
                let report = validate_with(&instance, x, &options).unwrap();
                let at = format!("x = {x:?}, threads {threads}, block {block}");
                assert_eq!(report.constraints.len(), expected.len(), "{at}");
                for (got, &(ci, p, count)) in report.constraints.iter().zip(&expected) {
                    let fraction = count as f64 / m_hat as f64;
                    assert_eq!(got.constraint_index, ci, "{at}");
                    assert_eq!(got.satisfied_fraction.to_bits(), fraction.to_bits(), "{at}");
                    assert_eq!(got.surplus.to_bits(), (fraction - p).to_bits(), "{at}");
                    assert_eq!(got.feasible, count >= required_successes(p, m_hat), "{at}");
                    assert_eq!(got.scenarios_evaluated, m_hat, "{at}");
                }
                assert_eq!(
                    report.objective_estimate.to_bits(),
                    (objective as f64 / m_hat as f64).to_bits(),
                    "{at}"
                );
                assert_eq!(
                    report.feasible,
                    report.constraints.iter().all(|c| c.feasible),
                    "{at}"
                );
                assert_eq!(report.scenarios_used, m_hat, "{at}");
            }
        }
    }
}

#[test]
fn overlapping_packages_draw_and_keep_each_tuple_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let rel = relation();
    let cache = Arc::new(ScenarioCache::new());
    let mut silp = silp();
    // One column, so a tuple has one row per window.
    silp.constraints.truncate(1);
    let options = SpqOptions {
        scenario_cache: Some(cache.clone()),
        ..SpqOptions::for_tests()
    };
    let instance = Instance::new(&rel, silp, options).unwrap();
    let m_hat = 3_000;
    let windows = 3; // 1024 + 1024 + 952
    let validation = ValidationOptions {
        threads: 1,
        block_scenarios: 1024,
        ..ValidationOptions::full(m_hat)
    };

    let before = cells_realized();
    // {a, b} = {1, 4}, then {b, c} = {4, 6}.
    let ab = [0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0];
    let bc = [0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 1.0, 0.0];
    validate_with(&instance, &ab, &validation).unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 2 * windows));
    validate_with(&instance, &bc, &validation).unwrap();

    // Three distinct tuples were drawn, each once per window; b's windows
    // were read back, not re-drawn or stored again.
    assert_eq!(cells_realized() - before, (3 * m_hat) as u64);
    assert_eq!((cache.hits(), cache.misses()), (windows, 3 * windows));
    assert_eq!(cache.len(), 3 * windows as usize);
    assert_eq!(cache.resident_bytes(), (3 * m_hat * 8) as u64);

    // The shared rows changed nothing: an uncached instance agrees.
    let plain = Instance::new(&rel, instance.silp.clone(), SpqOptions::for_tests()).unwrap();
    for x in [&ab, &bc] {
        let cached = validate_with(&instance, x, &validation).unwrap();
        let fresh = validate_with(&plain, x, &validation).unwrap();
        assert_eq!(
            cached.constraints[0].satisfied_fraction.to_bits(),
            fresh.constraints[0].satisfied_fraction.to_bits()
        );
        assert_eq!(
            cached.objective_estimate.to_bits(),
            fresh.objective_estimate.to_bits()
        );
    }
}
