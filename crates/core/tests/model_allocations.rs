//! Allocation gate of CSA model building.
//!
//! A counting global allocator (per thread, so concurrently running tests do
//! not disturb each other) checks that `saa::build_model` allocates per
//! model row, not per candidate column: a CSA with one deterministic row,
//! one `COUNT` row and `Z = 2` summary rows is built at 500 and at 4 000
//! candidates, and
//!
//! * each build makes at most [`MAX_ALLOCATIONS_PER_ROW`] allocations per
//!   row of the model;
//! * the larger build makes no more allocations than the smaller one plus
//!   the extra growth steps of the model's variable vector.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spq_core::saa::{build_model, ProbBlock};
use spq_core::{
    CoeffSource, ConstraintKind, Direction, Instance, Silp, SilpConstraint, SilpObjective,
    SpqOptions,
};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{Relation, RelationBuilder};
use spq_solver::Sense;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the only
// addition is a thread-local counter, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations (and reallocations) it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The budget of one model build per row (linear and indicator rows).
const MAX_ALLOCATIONS_PER_ROW: usize = 8;

/// Number of summary rows of the CSA.
const Z: usize = 2;

fn relation(n: usize) -> Relation {
    let means: Vec<f64> = (0..n).map(|i| 1.0 + (i % 11) as f64 * 0.5).collect();
    let prices: Vec<f64> = (0..n).map(|i| 10.0 + (i % 17) as f64).collect();
    RelationBuilder::new("t")
        .deterministic_f64("price", prices)
        .stochastic("gain", NormalNoise::around(means, 1.0))
        .build()
        .unwrap()
}

/// `SUM(price) <= 400`, `COUNT(*) <= 20`, `SUM(gain) >= 5` with
/// probability 0.9, maximizing the expected gain.
fn silp(n: usize) -> Silp {
    let constraint = |name: &str, coeff, sense, rhs, kind| SilpConstraint {
        name: name.into(),
        coeff,
        sense,
        rhs,
        kind,
    };
    Silp {
        relation: "t".into(),
        tuples: (0..n).collect(),
        repeat_bound: None,
        constraints: vec![
            constraint(
                "budget",
                CoeffSource::Deterministic("price".into()),
                Sense::Le,
                400.0,
                ConstraintKind::Deterministic,
            ),
            constraint(
                "size",
                CoeffSource::Constant(1.0),
                Sense::Le,
                20.0,
                ConstraintKind::Deterministic,
            ),
            constraint(
                "risk",
                CoeffSource::Stochastic("gain".into()),
                Sense::Ge,
                5.0,
                ConstraintKind::Probabilistic { probability: 0.9 },
            ),
        ],
        objective: SilpObjective::Linear {
            direction: Direction::Maximize,
            coeff: CoeffSource::Stochastic("gain".into()),
            expectation: true,
        },
    }
}

/// Build the CSA over `n` candidates; returns the allocations of the build,
/// the model's row count and its variable count.
fn build(n: usize) -> (usize, usize, usize) {
    let rel = relation(n);
    let instance = Instance::new(&rel, silp(n), SpqOptions::for_tests()).unwrap();
    let rows: Vec<Vec<f64>> = (0..Z)
        .map(|z| (0..n).map(|i| 0.5 + ((i + z) % 5) as f64).collect())
        .collect();
    let blocks = [ProbBlock::with_probability(2, rows, 0.9)];
    let (formulation, count) = allocations(|| build_model(&instance, &blocks, None).unwrap());
    let model = &formulation.model;
    let model_rows = model.constraints().len() + model.indicators().len();
    (count, model_rows, model.num_vars())
}

/// Allocations of a vector grown one push at a time to `len` elements.
fn growth_steps(len: usize) -> usize {
    allocations(|| {
        let mut v = Vec::new();
        for i in 0..len {
            v.push(i);
        }
        v
    })
    .1
}

#[test]
fn model_building_allocates_per_row_not_per_column() {
    let (small, rows, small_vars) = build(500);
    let (large, large_rows, large_vars) = build(4_000);
    // Budget, size and the count of satisfied summaries, plus one indicator
    // row per summary.
    assert_eq!((rows, large_rows), (3 + Z, 3 + Z));
    for (n, count) in [(500, small), (4_000, large)] {
        assert!(
            count <= MAX_ALLOCATIONS_PER_ROW * rows,
            "{count} allocations building {rows} rows over {n} candidates"
        );
    }
    let growth = growth_steps(large_vars) - growth_steps(small_vars);
    assert!(
        large <= small + growth,
        "{large} allocations at 4000 candidates vs {small} at 500 (+{growth} growth steps)"
    );
}
