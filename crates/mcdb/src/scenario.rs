//! Scenario generation.
//!
//! A *scenario* is a deterministic realization of every random variable in a
//! relation. Every value is drawn as part of a `tuples × scenarios` block by
//! the column's [`crate::vg::VgFunction::realize_block`] kernel, and a block
//! may be any tuple subset over any scenario window:
//!
//! * the first `M` scenarios of the whole relation ([`ScenarioGenerator::realize_matrix`]);
//! * a window of the scenarios of the candidate tuples or of one package's
//!   tuples ([`ScenarioGenerator::realize_sparse_matrix_range`]), which is
//!   how SAA formulations, summaries and out-of-sample validation
//!   (Section 3.2) read their scenarios;
//! * per-tuple moments over the first `M` scenarios
//!   ([`ScenarioGenerator::tuple_moments`]).
//!
//! The shape of a block never changes a value, so a scenario-wise read of
//! one column and a tuple-wise read of one tuple agree (Section 5.5),
//! because every `(column, driver-group, scenario)` cell derives its RNG
//! independently (see [`crate::seed`]). The same property makes generation
//! embarrassingly parallel: large requests are chunked by tuple across
//! `std::thread` workers and produce **bit-identical** results to the serial
//! path.

use crate::relation::{Relation, StochasticColumn};
use crate::seed::{column_prefix, Stream};
use crate::Result;
use spq_obs::metrics::{Counter, Named};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

// Every `(tuple, scenario)` cell a VG kernel was asked to draw, whoever asked
// (an algorithm, the validator, the ε certificate, a feature fallback): the
// exact work counter of this layer, independent of any cache above it.
static CELLS_REALIZED: Named<Counter> = Named::new("spq_scenario_cells_realized", Counter::new());

/// Number of `(tuple, scenario)` cells from which the automatic policy of
/// [`workers`] fans out across threads. Below this, thread spawn overhead
/// dominates.
pub const PARALLEL_CELL_THRESHOLD: usize = 1 << 14;

/// Hard cap on the workers of one fan-out, whatever the caller (or a network
/// client, via the service's `validate` op) asks for. Results are
/// bit-identical at any count, so the cap never changes a value; it only
/// bounds OS thread creation.
pub const MAX_WORKERS: usize = 64;

/// Target cells per [`crate::vg::VgFunction::realize_block`] kernel call:
/// tuples are tiled so one dispatch covers roughly this many cells, keeping
/// per-call overhead negligible while bounding each tile's working set.
const KERNEL_TILE_CELLS: usize = 4096;

/// Tile edge for the blocked tuple-major → scenario-major transpose.
const TRANSPOSE_TILE: usize = 64;

/// Transpose a flat tuple-major buffer (`flat[i * m + j]`) into the
/// scenario-major layout of [`ScenarioMatrix`] (`data[j * n + i]`), tiled so
/// both sides stay cache-resident. A single row or a single column reads the
/// same in both layouts, so the buffer is handed back as is.
fn transpose_tuple_major(flat: Vec<f64>, n: usize, m: usize) -> Vec<f64> {
    if n <= 1 || m <= 1 {
        return flat;
    }
    let mut data = vec![0.0f64; n * m];
    for i0 in (0..n).step_by(TRANSPOSE_TILE) {
        let i1 = (i0 + TRANSPOSE_TILE).min(n);
        for j0 in (0..m).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(m);
            for i in i0..i1 {
                let row = &flat[i * m..(i + 1) * m];
                for j in j0..j1 {
                    data[j * n + i] = row[j];
                }
            }
        }
    }
    data
}

/// The machine's parallelism, read once per process: on Linux every
/// `std::thread::available_parallelism` call re-reads the cgroup CPU quota,
/// which is too slow for a per-request path. A changed quota therefore takes
/// effect after a restart.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The worker count of one fan-out over `units` independent work units
/// (tuples for realization, scenario blocks for the validator) covering
/// `cells` `(tuple, scenario)` cells. `requested > 0` wins; `0` is the
/// automatic policy: serial below [`PARALLEL_CELL_THRESHOLD`] cells,
/// [`available_cores`] from there. Either way the count is clamped to
/// `1..=units` and to [`MAX_WORKERS`]. Per-cell seeding makes every result
/// bit-identical for any count, so this is pure policy.
pub fn workers(requested: usize, cells: usize, units: usize) -> usize {
    let resolved = match requested {
        0 if cells < PARALLEL_CELL_THRESHOLD => 1,
        0 => available_cores(),
        n => n,
    };
    resolved.clamp(1, units.max(1)).min(MAX_WORKERS)
}

/// A dense matrix of realizations: `M` scenarios over `N` tuples for one
/// stochastic column. Stored row-major by scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    n_tuples: usize,
    /// `data[j * n_tuples + i]` is the value of tuple `i` in scenario `j`.
    data: Vec<f64>,
}

impl ScenarioMatrix {
    /// Build from per-scenario rows of `n_tuples` values each: row `j` is
    /// scenario `j`. Meant for hand-written matrices in tests and examples.
    pub fn from_rows<R: AsRef<[f64]>>(n_tuples: usize, rows: &[R]) -> Self {
        let mut data = Vec::with_capacity(n_tuples * rows.len());
        for row in rows {
            debug_assert_eq!(row.as_ref().len(), n_tuples);
            data.extend_from_slice(row.as_ref());
        }
        ScenarioMatrix { n_tuples, data }
    }

    /// The raw scenario-major storage (`data[j * n_tuples + i]`). The
    /// persistent scenario store serializes exactly these words (as
    /// little-endian `f64` bits), so a reloaded block is bit-identical.
    pub fn raw_data(&self) -> &[f64] {
        &self.data
    }

    /// Rebuild a matrix from scenario-major raw storage, the inverse of
    /// [`Self::raw_data`]. `data.len()` must be `n_tuples` × the scenario
    /// count of the original block.
    pub(crate) fn from_raw(n_tuples: usize, data: Vec<f64>) -> Self {
        ScenarioMatrix { n_tuples, data }
    }

    /// A matrix whose every scenario row equals `values`. This is the shape
    /// the moment prefilter produces for provably scenario-invariant columns
    /// (see [`crate::vg::VgFunction::is_scenario_invariant`]): one probed
    /// realization broadcast over `m` scenarios, bit-identical to generating
    /// all `m` because the realized value does not depend on the RNG.
    pub fn broadcast(values: &[f64], m: usize) -> Self {
        let mut data = Vec::with_capacity(values.len() * m);
        for _ in 0..m {
            data.extend_from_slice(values);
        }
        ScenarioMatrix {
            n_tuples: values.len(),
            data,
        }
    }

    /// Number of scenarios.
    pub fn num_scenarios(&self) -> usize {
        self.data.len().checked_div(self.n_tuples).unwrap_or(0)
    }

    /// Number of tuples.
    pub fn num_tuples(&self) -> usize {
        self.n_tuples
    }

    /// The realization of `tuple` in `scenario`.
    pub fn value(&self, scenario: usize, tuple: usize) -> f64 {
        self.data[scenario * self.n_tuples + tuple]
    }

    /// One scenario as a slice of tuple values.
    pub fn scenario(&self, scenario: usize) -> &[f64] {
        &self.data[scenario * self.n_tuples..(scenario + 1) * self.n_tuples]
    }
}

/// Seeded scenario generator over a relation's stochastic columns.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioGenerator {
    base_seed: u64,
    stream: Stream,
}

impl ScenarioGenerator {
    /// Generator for the optimization stream.
    pub fn new(base_seed: u64) -> Self {
        ScenarioGenerator {
            base_seed,
            stream: Stream::Optimization,
        }
    }

    /// Generator for the out-of-sample validation stream. The validation
    /// stream is disjoint from the optimization stream even under the same
    /// base seed, mirroring the paper's re-seeding before validation.
    pub fn validation(base_seed: u64) -> Self {
        ScenarioGenerator {
            base_seed,
            stream: Stream::Validation,
        }
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Which stream this generator draws from.
    pub fn stream(&self) -> Stream {
        self.stream
    }

    /// Drive the column's block kernel over one worker's tuple share,
    /// tiling tuples so each [`crate::vg::VgFunction::realize_block`]
    /// dispatch covers roughly [`KERNEL_TILE_CELLS`] cells.
    fn realize_tiles(
        &self,
        sc: &StochasticColumn,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        let m = scenarios.len();
        if m == 0 || tuples.is_empty() {
            return;
        }
        let prefix = column_prefix(self.base_seed, self.stream, sc.tag);
        let tile = (KERNEL_TILE_CELLS / m).max(1);
        for (tchunk, ochunk) in tuples.chunks(tile).zip(out.chunks_mut(tile * m)) {
            sc.vg
                .realize_block(prefix, tchunk, scenarios.clone(), ochunk);
        }
    }

    /// Realize `tuples × scenarios` into a flat tuple-major buffer
    /// (`out[ti * m + jj]`), chunking tuples across `threads` workers
    /// (resolved by [`workers`]).
    /// Because every cell derives its RNG from the counter-based key, the
    /// result is bit-identical for any thread count and any tile split.
    fn realize_flat(
        &self,
        sc: &StochasticColumn,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
        threads: usize,
    ) -> Vec<f64> {
        let m = scenarios.len();
        let mut out = vec![0.0f64; tuples.len() * m];
        if m == 0 || tuples.is_empty() {
            return out;
        }
        CELLS_REALIZED.add(out.len() as u64);
        if threads == 1 {
            self.realize_tiles(sc, tuples, scenarios, &mut out);
            return out;
        }
        let chunk = tuples.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (tchunk, ochunk) in tuples.chunks(chunk).zip(out.chunks_mut(chunk * m)) {
                let scenarios = scenarios.clone();
                scope.spawn(move || self.realize_tiles(sc, tchunk, scenarios, ochunk));
            }
        });
        out
    }

    /// Realize a dense `M x N` matrix of the first `m` scenarios,
    /// parallelizing across tuples for large requests.
    pub fn realize_matrix(
        &self,
        relation: &Relation,
        column: &str,
        m: usize,
    ) -> Result<ScenarioMatrix> {
        let sc = relation.stochastic_column(column)?;
        let tuples: Vec<usize> = (0..relation.len()).collect();
        Ok(self.realize_block(sc, &tuples, 0..m, 0))
    }

    /// Realize an arbitrary scenario *range* of a stochastic column restricted
    /// to `tuples`, as a dense [`ScenarioMatrix`] whose row `j` holds scenario
    /// `scenarios.start + j`. The blocked out-of-sample validator uses this to
    /// stream `M̂` scenarios in bounded chunks; `threads == 0` picks a worker
    /// count automatically, and — because every cell seeds its own RNG — the
    /// result is bit-identical for every `threads` value.
    pub fn realize_sparse_matrix_range(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
        threads: usize,
    ) -> Result<ScenarioMatrix> {
        let sc = relation.stochastic_column(column)?;
        Ok(self.realize_block(sc, tuples, scenarios, threads))
    }

    /// [`Self::realize_sparse_matrix_range`] over an already resolved column
    /// (the scenario cache resolves it once for its key).
    pub(crate) fn realize_block(
        &self,
        sc: &StochasticColumn,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
        threads: usize,
    ) -> ScenarioMatrix {
        let n = tuples.len();
        let m = scenarios.len();
        let flat = self.realize_flat(sc, tuples, scenarios, workers(threads, n * m, n));
        ScenarioMatrix {
            n_tuples: n,
            data: transpose_tuple_major(flat, n, m),
        }
    }

    /// Per-tuple empirical mean and standard deviation over the first `m`
    /// scenarios of this generator's stream, for the given tuples.
    /// SketchRefine uses these as distributional-similarity features for
    /// partitioning; generation is parallelized like the matrix paths.
    pub fn tuple_moments(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        m: usize,
    ) -> Result<Vec<(f64, f64)>> {
        if m == 0 {
            return Ok(vec![(0.0, 0.0); tuples.len()]);
        }
        let sc = relation.stochastic_column(column)?;
        let threads = workers(0, tuples.len() * m, tuples.len());
        let flat = self.realize_flat(sc, tuples, 0..m, threads);
        Ok(flat
            .chunks_exact(m)
            .map(|values| {
                let n = values.len() as f64;
                let mean = values.iter().sum::<f64>() / n;
                let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                (mean, var.max(0.0).sqrt())
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::vg::{Degenerate, NormalNoise};

    fn rel() -> Relation {
        RelationBuilder::new("t")
            .deterministic_f64("price", vec![10.0, 20.0, 30.0, 40.0])
            .stochastic("gain", NormalNoise::around(vec![1.0, 2.0, 3.0, 4.0], 0.5))
            .stochastic("other", Degenerate::new(vec![7.0, 7.0, 7.0, 7.0]))
            .build()
            .unwrap()
    }

    /// One window of `column` over `tuples`, as rows of tuple values.
    fn window(
        g: &ScenarioGenerator,
        r: &Relation,
        column: &str,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
    ) -> Vec<Vec<f64>> {
        let matrix = g
            .realize_sparse_matrix_range(r, column, tuples, scenarios, 1)
            .unwrap();
        (0..matrix.num_scenarios())
            .map(|j| matrix.scenario(j).to_vec())
            .collect()
    }

    #[test]
    fn scenario_wise_and_tuple_wise_agree() {
        let r = rel();
        let g = ScenarioGenerator::new(123);
        let m = 16;
        let matrix = g.realize_matrix(&r, "gain", m).unwrap();
        let all: Vec<usize> = (0..r.len()).collect();
        for j in 0..m {
            // Scenario-wise: one scenario of the whole column.
            assert_eq!(
                window(&g, &r, "gain", &all, j..j + 1),
                vec![matrix.scenario(j).to_vec()]
            );
        }
        for tuple in 0..r.len() {
            // Tuple-wise: every scenario of one tuple.
            let by_tuple = window(&g, &r, "gain", &[tuple], 0..m);
            for (j, v) in by_tuple.iter().enumerate() {
                assert_eq!(v[0], matrix.value(j, tuple), "tuple {tuple} scenario {j}");
            }
        }
    }

    #[test]
    fn sparse_generation_matches_dense() {
        let r = rel();
        let g = ScenarioGenerator::new(5);
        let matrix = g.realize_matrix(&r, "gain", 8).unwrap();
        let sparse = window(&g, &r, "gain", &[2, 0], 0..8);
        for (j, row) in sparse.iter().enumerate() {
            assert_eq!(row[0], matrix.value(j, 2));
            assert_eq!(row[1], matrix.value(j, 0));
        }
    }

    #[test]
    fn one_cell_blocks_match_the_column_block() {
        // A one-cell block holds the value the whole column's block holds.
        let r = rel();
        let g = ScenarioGenerator::new(11);
        let all: Vec<usize> = (0..r.len()).collect();
        let column = window(&g, &r, "gain", &all, 3..4);
        for (i, &v) in column[0].iter().enumerate() {
            assert_eq!(window(&g, &r, "gain", &[i], 3..4), vec![vec![v]]);
        }
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let r = rel();
        let a = ScenarioGenerator::new(1)
            .realize_matrix(&r, "gain", 1)
            .unwrap();
        let b = ScenarioGenerator::new(2)
            .realize_matrix(&r, "gain", 1)
            .unwrap();
        let c = ScenarioGenerator::validation(1)
            .realize_matrix(&r, "gain", 1)
            .unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(ScenarioGenerator::new(1).base_seed(), 1);
        assert_eq!(ScenarioGenerator::new(1).stream(), Stream::Optimization);
        assert_eq!(
            ScenarioGenerator::validation(1).stream(),
            Stream::Validation
        );
    }

    #[test]
    fn degenerate_columns_are_constant_across_scenarios() {
        let r = rel();
        let g = ScenarioGenerator::new(9);
        let matrix = g.realize_matrix(&r, "other", 5).unwrap();
        assert_eq!(matrix, ScenarioMatrix::broadcast(&[7.0; 4], 5));
    }

    #[test]
    fn matrix_means_converge_to_base() {
        let r = rel();
        let g = ScenarioGenerator::new(77);
        let m = 3000;
        let matrix = g.realize_matrix(&r, "gain", m).unwrap();
        for i in 0..r.len() {
            let mean = (0..m).map(|j| matrix.value(j, i)).sum::<f64>() / m as f64;
            let base = (i + 1) as f64;
            assert!(
                (mean - base).abs() < 0.1,
                "tuple {i}: mean {mean} base {base}"
            );
        }
        assert_eq!(matrix.num_scenarios(), 3000);
        assert_eq!(matrix.num_tuples(), 4);
    }

    #[test]
    fn matrix_accessors() {
        let m = ScenarioMatrix::from_rows(2, &[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(m.num_scenarios(), 2);
        assert_eq!(m.scenario(1), &[3.0, 4.0]);
        assert_eq!(m.value(0, 1), 2.0);
        assert_eq!(m.raw_data(), &[1.0, 2.0, 3.0, 4.0]);
        let empty = ScenarioMatrix::from_rows::<Vec<f64>>(0, &[]);
        assert_eq!(empty.num_scenarios(), 0);
        assert_eq!(empty.num_tuples(), 0);
    }

    #[test]
    fn worker_count_follows_one_table() {
        let t = PARALLEL_CELL_THRESHOLD;
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(workers(0, t - 1, 8), 1);
        assert_eq!(workers(0, t, 1), 1);
        assert_eq!(workers(0, t, 8), cores.min(8));
        assert_eq!(workers(5, 0, 3), 3);
        assert_eq!(workers(1000, 0, 1000), MAX_WORKERS);
        assert_eq!(MAX_WORKERS, 64);
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_serial() {
        // A prime-sized relation so chunk boundaries land mid-relation for
        // every thread count.
        let n = 53;
        let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let r = RelationBuilder::new("wide")
            .stochastic("x", NormalNoise::around(base, 1.5))
            .build()
            .unwrap();
        let g = ScenarioGenerator::new(321);
        let m = 64;
        let all: Vec<usize> = (0..n).collect();
        let serial = g
            .realize_sparse_matrix_range(&r, "x", &all, 0..m, 1)
            .unwrap();
        for threads in [2, 3, 8, 64] {
            let parallel = g
                .realize_sparse_matrix_range(&r, "x", &all, 0..m, threads)
                .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // The auto-threaded entry points agree too.
        assert_eq!(serial, g.realize_matrix(&r, "x", m).unwrap());
        assert_eq!(
            serial,
            g.realize_sparse_matrix_range(&r, "x", &all, 0..m, 0)
                .unwrap()
        );

        let tuples: Vec<usize> = (0..n).step_by(3).collect();
        let sparse_serial = g
            .realize_sparse_matrix_range(&r, "x", &tuples, 5..40, 1)
            .unwrap();
        for threads in [0, 2, 5, 16] {
            let sparse_parallel = g
                .realize_sparse_matrix_range(&r, "x", &tuples, 5..40, threads)
                .unwrap();
            assert_eq!(sparse_serial, sparse_parallel, "threads = {threads}");
        }
    }

    #[test]
    fn range_matrices_are_windows_of_the_full_matrix() {
        let r = rel();
        let g = ScenarioGenerator::validation(13);
        let full = g
            .realize_sparse_matrix_range(&r, "gain", &[0, 2, 3], 0..40, 0)
            .unwrap();
        for threads in [0, 1, 2, 5] {
            let window = g
                .realize_sparse_matrix_range(&r, "gain", &[0, 2, 3], 7..29, threads)
                .unwrap();
            assert_eq!(window.num_scenarios(), 22);
            assert_eq!(window.num_tuples(), 3);
            for j in 0..22 {
                assert_eq!(
                    window.scenario(j),
                    full.scenario(7 + j),
                    "threads {threads}"
                );
            }
        }
        // An empty range is a zero-scenario matrix, not an error.
        let empty = g
            .realize_sparse_matrix_range(&r, "gain", &[0, 2], 5..5, 1)
            .unwrap();
        assert_eq!(empty.num_scenarios(), 0);
    }

    #[test]
    fn tuple_moments_match_the_matrix() {
        let r = rel();
        let g = ScenarioGenerator::new(17);
        let m = 500;
        let matrix = g.realize_matrix(&r, "gain", m).unwrap();
        let moments = g.tuple_moments(&r, "gain", &[0, 2, 3], m).unwrap();
        for (k, &tuple) in [0usize, 2, 3].iter().enumerate() {
            let values: Vec<f64> = (0..m).map(|j| matrix.value(j, tuple)).collect();
            let mean = values.iter().sum::<f64>() / m as f64;
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
            assert!((moments[k].0 - mean).abs() < 1e-12);
            assert!((moments[k].1 - var.sqrt()).abs() < 1e-12);
        }
        // Zero scenarios degrade gracefully.
        assert_eq!(
            g.tuple_moments(&r, "gain", &[1], 0).unwrap(),
            vec![(0.0, 0.0)]
        );
        // A degenerate column has zero spread.
        let deg = g.tuple_moments(&r, "other", &[0, 1], 100).unwrap();
        assert_eq!(deg, vec![(7.0, 0.0), (7.0, 0.0)]);
    }

    #[test]
    fn unknown_column_errors() {
        let r = rel();
        let g = ScenarioGenerator::new(0);
        assert!(g.realize_matrix(&r, "nope", 1).is_err());
        assert!(g.realize_matrix(&r, "price", 1).is_err());
        assert!(g
            .realize_sparse_matrix_range(&r, "nope", &[0], 0..1, 0)
            .is_err());
        assert!(g.tuple_moments(&r, "price", &[0], 1).is_err());
    }
}
