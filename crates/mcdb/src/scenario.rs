//! Scenario generation.
//!
//! A *scenario* is a deterministic realization of every random variable in a
//! relation. The generator supports:
//!
//! * **scenario-wise** generation — realize one whole column for one scenario
//!   (used when building SAA formulations and summaries scenario by scenario);
//! * **tuple-wise** generation — realize all `M` scenarios for one tuple
//!   (the per-cell path is the block kernel's conformance oracle);
//! * **sparse** generation — realize values only for the tuples present in a
//!   candidate package (used by out-of-sample validation, Section 3.2).
//!
//! All three orders produce identical values because every `(column,
//! driver-group, scenario)` cell derives its RNG independently (see
//! [`crate::seed`]). The same property makes generation embarrassingly
//! parallel: large matrix requests are chunked by tuple across `std::thread`
//! workers and produce **bit-identical** results to the serial path.

use crate::relation::{Relation, StochasticColumn};
use crate::seed::{cell_rng, column_prefix, Stream};
use crate::Result;
use spq_obs::metrics::{Counter, Named};
use std::num::NonZeroUsize;

// Every `(tuple, scenario)` cell a VG kernel was asked to draw, whoever asked
// (an algorithm, the validator, the ε certificate, a feature fallback): the
// exact work counter of this layer, independent of any cache above it.
static CELLS_REALIZED: Named<Counter> = Named::new("spq_scenario_cells_realized", Counter::new());

/// Number of `(tuple, scenario)` cells above which dense/sparse generation
/// fans out across threads. Below this, thread spawn overhead dominates.
const PARALLEL_CELL_THRESHOLD: usize = 1 << 14;

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

/// Worker count for a request of `cells` total realizations over `tuples`
/// tuples: 1 for small requests, otherwise up to the machine's parallelism.
fn auto_threads(cells: usize, tuples: usize) -> usize {
    if cells < PARALLEL_CELL_THRESHOLD || tuples < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(tuples)
}

/// One realized stochastic column for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Index of the scenario within its stream.
    pub index: usize,
    /// Realized value per tuple.
    pub values: Vec<f64>,
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
    /// Build from per-scenario rows.
    pub fn from_scenarios(n_tuples: usize, scenarios: &[Scenario]) -> Self {
        let mut data = Vec::with_capacity(n_tuples * scenarios.len());
        for s in scenarios {
            debug_assert_eq!(s.values.len(), n_tuples);
            data.extend_from_slice(&s.values);
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

    /// Append one more scenario row.
    pub fn push_scenario(&mut self, values: &[f64]) {
        debug_assert_eq!(values.len(), self.n_tuples);
        self.data.extend_from_slice(values);
    }

    /// Per-tuple mean over all scenarios.
    pub fn column_means(&self) -> Vec<f64> {
        let m = self.num_scenarios();
        let mut means = vec![0.0; self.n_tuples];
        if m == 0 {
            return means;
        }
        for j in 0..m {
            let row = self.scenario(j);
            for (mean, v) in means.iter_mut().zip(row) {
                *mean += v;
            }
        }
        for mean in &mut means {
            *mean /= m as f64;
        }
        means
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

    /// Realize the value of one `(column, tuple, scenario)` cell.
    pub fn realize_cell(
        &self,
        relation: &Relation,
        column: &str,
        tuple: usize,
        scenario: usize,
    ) -> Result<f64> {
        let sc = relation.stochastic_column(column)?;
        let group = sc.vg.driver_group(tuple);
        let mut rng = cell_rng(self.base_seed, self.stream, sc.tag, group, scenario as u64);
        Ok(sc.vg.realize(tuple, &mut rng))
    }

    /// Realize one whole column for one scenario (scenario-wise order).
    pub fn realize_column(
        &self,
        relation: &Relation,
        column: &str,
        scenario: usize,
    ) -> Result<Scenario> {
        let sc = relation.stochastic_column(column)?;
        let n = relation.len();
        let tuples: Vec<usize> = (0..n).collect();
        // A one-scenario block: the flat tuple-major buffer *is* the column.
        let values = self.realize_flat(sc, &tuples, scenario..scenario + 1, 1);
        Ok(Scenario {
            index: scenario,
            values,
        })
    }

    /// Realize all `scenarios` realizations of one tuple (tuple-wise order).
    pub fn realize_tuple(
        &self,
        relation: &Relation,
        column: &str,
        tuple: usize,
        scenarios: std::ops::Range<usize>,
    ) -> Result<Vec<f64>> {
        let sc = relation.stochastic_column(column)?;
        Ok(self.realize_flat(sc, &[tuple], scenarios, 1))
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
    /// (`out[ti * m + jj]`), chunking tuples across `threads` workers.
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
        let threads = threads.clamp(1, tuples.len());
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
        let n = relation.len();
        self.realize_matrix_with_threads(relation, column, m, auto_threads(n * m, n))
    }

    /// [`Self::realize_matrix`] with an explicit worker count (1 forces the
    /// serial path). Results are bit-identical for every `threads` value.
    pub fn realize_matrix_with_threads(
        &self,
        relation: &Relation,
        column: &str,
        m: usize,
        threads: usize,
    ) -> Result<ScenarioMatrix> {
        let n = relation.len();
        let sc = relation.stochastic_column(column)?;
        let tuples: Vec<usize> = (0..n).collect();
        let flat = self.realize_flat(sc, &tuples, 0..m, threads);
        Ok(ScenarioMatrix {
            n_tuples: n,
            data: transpose_tuple_major(flat, n, m),
        })
    }

    /// Realize values only for the given tuples across `scenarios`
    /// (sparse/package-restricted generation used by validation). Returns one
    /// vector per scenario, aligned with `tuples`; large requests are
    /// parallelized across tuples.
    pub fn realize_sparse(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
    ) -> Result<Vec<Vec<f64>>> {
        let threads = auto_threads(tuples.len() * scenarios.len(), tuples.len());
        self.realize_sparse_with_threads(relation, column, tuples, scenarios, threads)
    }

    /// [`Self::realize_sparse`] with an explicit worker count (1 forces the
    /// serial path). Results are bit-identical for every `threads` value.
    pub fn realize_sparse_with_threads(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        scenarios: std::ops::Range<usize>,
        threads: usize,
    ) -> Result<Vec<Vec<f64>>> {
        let m = scenarios.len();
        let sc = relation.stochastic_column(column)?;
        if tuples.is_empty() {
            return Ok(vec![Vec::new(); m]);
        }
        let flat = self.realize_flat(sc, tuples, scenarios, threads);
        let data = transpose_tuple_major(flat, tuples.len(), m);
        Ok(data.chunks(tuples.len()).map(|row| row.to_vec()).collect())
    }

    /// Realize the first `m` scenarios of a stochastic column restricted to
    /// `tuples`, as a dense [`ScenarioMatrix`] whose column `i` corresponds
    /// to `tuples[i]`. This is the block shape memoized by
    /// [`crate::ScenarioCache`]; generation parallelizes like the other
    /// matrix paths and is bit-identical to the serial order.
    pub fn realize_sparse_matrix(
        &self,
        relation: &Relation,
        column: &str,
        tuples: &[usize],
        m: usize,
    ) -> Result<ScenarioMatrix> {
        let n = tuples.len();
        self.realize_sparse_matrix_range(relation, column, tuples, 0..m, auto_threads(n * m, n))
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
        let threads = if threads == 0 {
            auto_threads(n * m, n)
        } else {
            threads
        };
        let flat = self.realize_flat(sc, tuples, scenarios, threads);
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
        let threads = auto_threads(tuples.len() * m, tuples.len());
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

    #[test]
    fn scenario_wise_and_tuple_wise_agree() {
        let r = rel();
        let g = ScenarioGenerator::new(123);
        let m = 16;
        let matrix = g.realize_matrix(&r, "gain", m).unwrap();
        for tuple in 0..r.len() {
            let by_tuple = g.realize_tuple(&r, "gain", tuple, 0..m).unwrap();
            for (j, v) in by_tuple.iter().enumerate() {
                assert_eq!(*v, matrix.value(j, tuple), "tuple {tuple} scenario {j}");
            }
        }
    }

    #[test]
    fn sparse_generation_matches_dense() {
        let r = rel();
        let g = ScenarioGenerator::new(5);
        let matrix = g.realize_matrix(&r, "gain", 8).unwrap();
        let sparse = g.realize_sparse(&r, "gain", &[2, 0], 0..8).unwrap();
        for (j, row) in sparse.iter().enumerate() {
            assert_eq!(row[0], matrix.value(j, 2));
            assert_eq!(row[1], matrix.value(j, 0));
        }
    }

    #[test]
    fn realize_cell_matches_column() {
        let r = rel();
        let g = ScenarioGenerator::new(11);
        let s = g.realize_column(&r, "gain", 3).unwrap();
        for i in 0..r.len() {
            assert_eq!(g.realize_cell(&r, "gain", i, 3).unwrap(), s.values[i]);
        }
        assert_eq!(s.index, 3);
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let r = rel();
        let a = ScenarioGenerator::new(1)
            .realize_column(&r, "gain", 0)
            .unwrap();
        let b = ScenarioGenerator::new(2)
            .realize_column(&r, "gain", 0)
            .unwrap();
        let c = ScenarioGenerator::validation(1)
            .realize_column(&r, "gain", 0)
            .unwrap();
        assert_ne!(a.values, b.values);
        assert_ne!(a.values, c.values);
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
        for j in 0..5 {
            let s = g.realize_column(&r, "other", j).unwrap();
            assert_eq!(s.values, vec![7.0; 4]);
        }
    }

    #[test]
    fn matrix_means_converge_to_base() {
        let r = rel();
        let g = ScenarioGenerator::new(77);
        let matrix = g.realize_matrix(&r, "gain", 3000).unwrap();
        let means = matrix.column_means();
        for (i, m) in means.iter().enumerate() {
            let base = (i + 1) as f64;
            assert!((m - base).abs() < 0.1, "tuple {i}: mean {m} base {base}");
        }
        assert_eq!(matrix.num_scenarios(), 3000);
        assert_eq!(matrix.num_tuples(), 4);
    }

    #[test]
    fn matrix_accessors() {
        let s0 = Scenario {
            index: 0,
            values: vec![1.0, 2.0],
        };
        let s1 = Scenario {
            index: 1,
            values: vec![3.0, 4.0],
        };
        let m = ScenarioMatrix::from_scenarios(2, &[s0, s1]);
        assert_eq!(m.num_scenarios(), 2);
        assert_eq!(m.scenario(1), &[3.0, 4.0]);
        assert_eq!(m.value(0, 1), 2.0);
        assert_eq!(m.column_means(), vec![2.0, 3.0]);
        let empty = ScenarioMatrix::from_scenarios(0, &[]);
        assert_eq!(empty.num_scenarios(), 0);
        assert_eq!(empty.column_means(), Vec::<f64>::new());
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
        let serial = g.realize_matrix_with_threads(&r, "x", m, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            let parallel = g.realize_matrix_with_threads(&r, "x", m, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // The auto-threaded public entry point agrees too.
        assert_eq!(serial, g.realize_matrix(&r, "x", m).unwrap());

        let tuples: Vec<usize> = (0..n).step_by(3).collect();
        let sparse_serial = g
            .realize_sparse_with_threads(&r, "x", &tuples, 5..40, 1)
            .unwrap();
        for threads in [2, 5, 16] {
            let sparse_parallel = g
                .realize_sparse_with_threads(&r, "x", &tuples, 5..40, threads)
                .unwrap();
            assert_eq!(sparse_serial, sparse_parallel, "threads = {threads}");
        }
        assert_eq!(
            sparse_serial,
            g.realize_sparse(&r, "x", &tuples, 5..40).unwrap()
        );
    }

    #[test]
    fn range_matrices_are_windows_of_the_full_matrix() {
        let r = rel();
        let g = ScenarioGenerator::validation(13);
        let full = g.realize_sparse_matrix(&r, "gain", &[0, 2, 3], 40).unwrap();
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
        assert!(g.realize_column(&r, "nope", 0).is_err());
        assert!(g.realize_column(&r, "price", 0).is_err());
    }
}
