//! Allocation gate of the LP kernel and of branch-and-bound.
//!
//! A counting global allocator (per thread, so concurrently running tests do
//! not disturb each other) checks that:
//!
//! * `RevisedLp::solve_with` on a workspace dirty from other LPs returns a
//!   solution bit-identical to a fresh `RevisedLp::solve`;
//! * once a workspace has served an LP, re-solving it allocates only the
//!   returned solution's vectors;
//! * a branch-and-bound search makes at most
//!   [`MAX_ALLOCATIONS_PER_NODE`] allocations per processed node, model
//!   preparation included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use spq_solver::standard_form::{LpProblem, LpRow};
use spq_solver::{
    solve_full, LpStatus, Model, PivotRules, RevisedLp, RevisedSolution, Sense, SimplexWork,
    SolverError, SolverOptions, VarType,
};

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

/// Branch-and-bound's budget per processed node.
const MAX_ALLOCATIONS_PER_NODE: f64 = 4.0;

fn rules(lp: &RevisedLp) -> PivotRules {
    PivotRules::for_size(lp.m, lp.n_struct + lp.m, None)
}

/// A small deterministic generator (splitmix64) for the LPs below.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An integer in `lo..hi`, as a float.
    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + (self.next() % (hi - lo) as u64) as i64) as f64
    }
}

/// A bounded LP with integer data: 1–7 columns (some unbounded above), 1–5
/// rows of every sense.
fn random_lp(seed: u64) -> LpProblem {
    let mut g = Gen(seed);
    let n = g.int(1, 8) as usize;
    let m = g.int(1, 6) as usize;
    let objective = (0..n).map(|_| g.int(-6, 6)).collect();
    let lower = (0..n).map(|_| g.int(-2, 1)).collect();
    let upper = (0..n)
        .map(|_| match g.int(0, 4) {
            0.0 => f64::INFINITY,
            _ => g.int(1, 6),
        })
        .collect();
    let rows = (0..m)
        .map(|_| LpRow {
            terms: (0..n)
                .map(|j| (j, g.int(-4, 5)))
                .filter(|&(_, c)| c != 0.0)
                .collect(),
            sense: [Sense::Le, Sense::Ge, Sense::Eq][g.int(0, 3) as usize],
            rhs: g.int(-6, 20),
        })
        .collect();
    LpProblem {
        objective,
        lower,
        upper,
        rows,
    }
}

fn assert_bit_identical(
    a: &Result<RevisedSolution, SolverError>,
    b: &Result<RevisedSolution, SolverError>,
) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.status, b.status);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(bits(&a.values), bits(&b.values));
            assert_eq!(bits(&a.reduced), bits(&b.reduced));
            assert_eq!(a.basis, b.basis);
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("fresh {a:?} vs reused {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One workspace serves a sequence of unrelated LPs, each solved cold
    /// and then warm from its own basis: every answer matches a fresh solve
    /// bit for bit.
    #[test]
    fn a_dirty_workspace_solves_bit_identically(seeds in proptest::collection::vec(any::<u64>(), 1..6)) {
        let mut work = SimplexWork::default();
        for lp in seeds.into_iter().map(random_lp) {
            let rlp = RevisedLp::from_problem(&lp).unwrap();
            let rules = rules(&rlp);
            let fresh = rlp.solve(&lp.lower, &lp.upper, None, &rules);
            let reused = rlp.solve_with(&mut work, &lp.lower, &lp.upper, None, &rules);
            assert_bit_identical(&fresh, &reused);
            let Ok(cold) = fresh else { continue };
            let warm = cold.basis.as_ref();
            let fresh = rlp.solve(&lp.lower, &lp.upper, warm, &rules);
            let reused = rlp.solve_with(&mut work, &lp.lower, &lp.upper, warm, &rules);
            assert_bit_identical(&fresh, &reused);
        }
    }
}

/// A 60-column, 12-row LP whose optimum takes several dozen pivots.
fn pivoting_lp() -> LpProblem {
    let n = 60;
    let rows = (0..12)
        .map(|i| LpRow {
            terms: (0..n)
                .filter(|j| (i + j) % 3 != 0)
                .map(|j| (j, 1.0 + ((i * 7 + j * 3) % 5) as f64))
                .collect(),
            sense: if i % 4 == 3 { Sense::Ge } else { Sense::Le },
            rhs: if i % 4 == 3 { 5.0 } else { 40.0 + i as f64 },
        })
        .collect();
    LpProblem {
        objective: (0..n).map(|j| -1.0 - (j % 7) as f64).collect(),
        lower: vec![0.0; n],
        upper: vec![3.0; n],
        rows,
    }
}

#[test]
fn a_warm_workspace_allocates_only_the_solution() {
    let lp = pivoting_lp();
    let rlp = RevisedLp::from_problem(&lp).unwrap();
    let rules = rules(&rlp);
    let root = rlp.solve(&lp.lower, &lp.upper, None, &rules).unwrap();
    assert_eq!(root.status, LpStatus::Optimal);
    assert!(root.iterations > 12, "{} iterations", root.iterations);
    let basis = root.basis.as_ref();
    // A child box the root's basis must pivot its way out of.
    let mut upper = lp.upper.clone();
    for (u, &x) in upper.iter_mut().zip(&root.values) {
        if x > 0.5 {
            *u = 0.0;
        }
    }

    // Cold, warm from the optimum, and the warm child. The workspace's
    // buffers only grow; once they have held these solves, the same solves
    // again allocate only the returned values, reduced costs and basis.
    let solves: [(&[f64], Option<&spq_solver::Basis>); 3] =
        [(&lp.upper, None), (&lp.upper, basis), (&upper, basis)];
    let mut work = SimplexWork::default();
    let warmup: Vec<RevisedSolution> = solves
        .iter()
        .map(|&(upper, warm)| {
            rlp.solve_with(&mut work, &lp.lower, upper, warm, &rules)
                .unwrap()
        })
        .collect();
    assert!(warmup[2].iterations > 0);
    for (&(upper, warm), first) in solves.iter().zip(&warmup) {
        let (again, n) = allocations(|| rlp.solve_with(&mut work, &lp.lower, upper, warm, &rules));
        let again = again.unwrap();
        assert_eq!(again.iterations, first.iterations);
        let returned = if again.status == LpStatus::Optimal {
            3
        } else {
            0
        };
        assert_eq!(
            n, returned,
            "{:?} after {} iterations",
            again.status, again.iterations
        );
    }
}

/// Per-item pseudo-random values in [0, 1).
fn unit(i: usize, salt: u32) -> f64 {
    let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h.rotate_left(salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// A Galaxy-shaped SAA model: one integer multiplicity per item, COUNT
/// between 5 and 10, and two scenarios of the minimized attribute behind
/// indicator columns, at least one of which must reach `target`.
fn galaxy_shaped_model(n: usize, target: f64) -> Model {
    let mean = |i: usize| 14.0 + 8.0 * unit(i, 0);
    let mut m = Model::minimize();
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(VarType::Integer, 0.0, 3.0, mean(i)))
        .collect();
    let count: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
    m.add_constraint("count_lo", count.clone(), Sense::Ge, 5.0);
    m.add_constraint("count_hi", count, Sense::Le, 10.0);
    let ys: Vec<_> = (0..2u32)
        .map(|s| {
            let y = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            let draw = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, mean(i) + 6.0 * (unit(i, 17 + 11 * s) - 0.5)))
                .collect();
            m.add_indicator(format!("s{s}"), y, true, draw, Sense::Ge, target);
            (y, 1.0)
        })
        .collect();
    m.add_constraint("prob", ys, Sense::Ge, 1.0);
    m
}

#[test]
fn branch_and_bound_allocations_per_node_are_bounded() {
    // Stopped after a few thousand nodes: the searches below would run to
    // 10⁴–10⁵ nodes, and the budget holds from the start.
    let options = SolverOptions {
        max_nodes: 4000,
        ..SolverOptions::default()
    };
    for (n, target) in [(150, 92.5), (1500, 88.0)] {
        let model = galaxy_shaped_model(n, target);
        let (res, allocs) = allocations(|| solve_full(&model, &options).unwrap());
        assert!(res.status.has_solution(), "{n} columns: {:?}", res.status);
        assert!(res.nodes > 1000, "{n} columns: only {} nodes", res.nodes);
        let per_node = allocs as f64 / res.nodes as f64;
        assert!(
            per_node <= MAX_ALLOCATIONS_PER_NODE,
            "{n} columns: {allocs} allocations over {} nodes ({per_node:.1} per node)",
            res.nodes
        );
    }
}
