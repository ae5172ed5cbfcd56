//! Hierarchical, summary-first partitioning (DistPartition-style).
//!
//! A flat partitioner that sorts the *entire* candidate set along one
//! dimension at every recursion level makes a million-tuple relation pay
//! `O(N log N)` feature traffic per level — every split touches every row.
//! This module follows the hierarchical strategy of *Stochastic
//! SketchRefine* (Haque et al., 2024; `DistPartition`) instead: the
//! candidate space is carved top-down using **block-level summaries** first,
//! and individual rows are only paged in for the blocks a split actually
//! straddles.
//!
//! Candidates are grouped into fixed-size *blocks* of [`BLOCK_ROWS`]
//! positions. One streaming pass records each block's per-dimension
//! `[min, max]` envelope; afterwards the recursion operates on spans:
//!
//! * a **whole-block span** is described entirely by its resident envelope —
//!   routing it to one side of a split plane never touches its rows;
//! * only blocks whose envelope *straddles* the plane are refined: their
//!   rows are scanned once and re-emitted as two part-spans with exact
//!   envelopes.
//!
//! Splits choose the widest dimension of the node's exact envelope and cut
//! at the envelope midpoint. Because envelopes are exact (block summaries
//! are computed from the rows, part-spans carry the bounds observed when
//! they were formed), both sides of a cut are provably non-empty and the
//! recursion always terminates. Leaves have a normalized per-dimension
//! spread of at most `diameter` and at most `max_size` members, and elect a
//! medoid representative — the member closest to the leaf's centroid, a
//! *real tuple*, so a sketch solution over representatives is already a
//! genuine package — computed blockwise so no step ever needs the full
//! `N × d` feature matrix at once.
//!
//! [`BLOCK_ROWS`] is a **fixed constant**, deliberately independent of the
//! storage tier's chunk size: the partitioning (and therefore the final
//! SketchRefine package) is bit-identical whether the relation lives in
//! memory or on disk and whatever chunk size the disk tier uses. The storage
//! conformance suite pins exactly this.
//!
//! Determinism: splits depend only on feature values and positions (ties
//! break by position), so the same inputs always yield the same partitions
//! regardless of thread count.

use crate::features::candidate_dimensions;
use spq_core::{Instance, Result};
use spq_obs::metrics::{Counter, Named};

/// Rows per summary block. Fixed so partitioning never depends on the
/// relation's storage chunk size (see the module docs).
pub const BLOCK_ROWS: usize = 4096;

// How many summary blocks the recursion actually refined (paged row data
// for) versus routed wholesale by their envelopes; exported for the
// Prometheus snapshot so scaling runs can show the summary-first win.
static BLOCKS_REFINED: Named<Counter> = Named::new("spq_sketch_blocks_refined", Counter::new());
static BLOCKS_ROUTED: Named<Counter> = Named::new("spq_sketch_blocks_routed", Counter::new());

/// The output of partitioning: disjoint groups of candidate positions, each
/// with a medoid representative, plus the inverse position→partition map.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Candidate positions per partition: ascending, except in a leaf
    /// chopped to the size budget, which follows its widest dimension.
    pub partitions: Vec<Vec<usize>>,
    /// The medoid's candidate position, one per partition.
    pub representatives: Vec<usize>,
    /// `assignment[position]` is the id of the partition holding `position`.
    pub assignment: Vec<usize>,
}

impl Partitioning {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when no partitions exist (empty candidate set).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }
}

/// Normalized candidate features stored column-major with per-block
/// `[min, max]` envelopes. Built once per evaluation; the envelopes are what
/// the hierarchical recursion consults before it ever reads a row.
pub struct BlockFeatures {
    n: usize,
    d: usize,
    block_rows: usize,
    /// One normalized `[0, 1]` vector per feature dimension (column-major).
    dims: Vec<Vec<f64>>,
    /// `lo[block * d + dim]` / `hi[block * d + dim]`.
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BlockFeatures {
    /// Build from pre-normalized column-major dimensions with an explicit
    /// block size (exposed for tests; production uses [`BLOCK_ROWS`]).
    pub fn from_dims(dims: Vec<Vec<f64>>, block_rows: usize) -> Self {
        let d = dims.len();
        let n = dims.first().map(Vec::len).unwrap_or(0);
        debug_assert!(dims.iter().all(|v| v.len() == n));
        let block_rows = block_rows.max(1);
        let blocks = n.div_ceil(block_rows);
        let mut lo = vec![f64::INFINITY; blocks * d];
        let mut hi = vec![f64::NEG_INFINITY; blocks * d];
        for b in 0..blocks {
            let start = b * block_rows;
            let end = (start + block_rows).min(n);
            for (k, dim) in dims.iter().enumerate() {
                let mut bl = f64::INFINITY;
                let mut bh = f64::NEG_INFINITY;
                for &v in &dim[start..end] {
                    bl = bl.min(v);
                    bh = bh.max(v);
                }
                lo[b * d + k] = bl;
                hi[b * d + k] = bh;
            }
        }
        BlockFeatures {
            n,
            d,
            block_rows,
            dims,
            lo,
            hi,
        }
    }

    /// Build the blocked feature index for an instance's candidates.
    pub fn from_instance(instance: &Instance<'_>) -> Result<Self> {
        Ok(Self::from_dims(candidate_dimensions(instance)?, BLOCK_ROWS))
    }

    /// Number of candidate positions.
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Number of feature dimensions.
    pub fn dims(&self) -> usize {
        self.d
    }

    fn num_blocks(&self) -> usize {
        self.n.div_ceil(self.block_rows)
    }

    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = b * self.block_rows;
        start..(start + self.block_rows).min(self.n)
    }

    #[inline]
    fn value(&self, dim: usize, row: usize) -> f64 {
        self.dims[dim][row]
    }

    fn block_lo(&self, b: usize, dim: usize) -> f64 {
        self.lo[b * self.d + dim]
    }

    fn block_hi(&self, b: usize, dim: usize) -> f64 {
        self.hi[b * self.d + dim]
    }
}

/// A contiguous-or-explicit slice of one summary block inside a node.
enum Span {
    /// Every row of the block; bounds come from the resident envelope.
    Whole(usize),
    /// An explicit subset of one block, with the exact per-dimension bounds
    /// observed when the subset was formed.
    Part {
        rows: Vec<u32>,
        lo: Vec<f64>,
        hi: Vec<f64>,
    },
}

impl Span {
    fn len(&self, f: &BlockFeatures) -> usize {
        match self {
            Span::Whole(b) => f.block_range(*b).len(),
            Span::Part { rows, .. } => rows.len(),
        }
    }

    fn bounds(&self, f: &BlockFeatures, dim: usize) -> (f64, f64) {
        match self {
            Span::Whole(b) => (f.block_lo(*b, dim), f.block_hi(*b, dim)),
            Span::Part { lo, hi, .. } => (lo[dim], hi[dim]),
        }
    }

    fn for_each_row(&self, f: &BlockFeatures, mut visit: impl FnMut(usize)) {
        match self {
            Span::Whole(b) => f.block_range(*b).for_each(&mut visit),
            Span::Part { rows, .. } => rows.iter().for_each(|&r| visit(r as usize)),
        }
    }
}

/// Exact per-dimension envelope of a set of spans.
fn node_bounds(f: &BlockFeatures, spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![f64::INFINITY; f.d];
    let mut hi = vec![f64::NEG_INFINITY; f.d];
    for span in spans {
        for dim in 0..f.d {
            let (sl, sh) = span.bounds(f, dim);
            lo[dim] = lo[dim].min(sl);
            hi[dim] = hi[dim].max(sh);
        }
    }
    (lo, hi)
}

/// Build a part-span from rows of one block, recording exact bounds.
fn part_span(f: &BlockFeatures, rows: Vec<u32>) -> Span {
    let mut lo = vec![f64::INFINITY; f.d];
    let mut hi = vec![f64::NEG_INFINITY; f.d];
    for &r in &rows {
        for dim in 0..f.d {
            let v = f.value(dim, r as usize);
            lo[dim] = lo[dim].min(v);
            hi[dim] = hi[dim].max(v);
        }
    }
    Span::Part { rows, lo, hi }
}

/// Recursively split `spans` until every leaf satisfies both budgets, then
/// emit sorted member lists into `leaves`.
fn split(
    f: &BlockFeatures,
    spans: Vec<Span>,
    max_size: usize,
    diameter: f64,
    leaves: &mut Vec<Vec<usize>>,
) {
    let size: usize = spans.iter().map(|s| s.len(f)).sum();
    if size == 0 {
        return;
    }
    let (lo, hi) = node_bounds(f, &spans);
    let (dim, spread) = (0..f.d)
        .map(|k| (k, hi[k] - lo[k]))
        .fold(
            (0usize, 0.0f64),
            |acc, cur| {
                if cur.1 > acc.1 {
                    cur
                } else {
                    acc
                }
            },
        );

    if spread > diameter && size > 1 {
        // Mid-plane cut of the exact envelope. Both sides are non-empty:
        // the row attaining `lo[dim]` lands left (lo <= plane) and the row
        // attaining `hi[dim]` lands right (hi > plane, strictly).
        let plane = 0.5 * (lo[dim] + hi[dim]);
        let mut left: Vec<Span> = Vec::new();
        let mut right: Vec<Span> = Vec::new();
        for span in spans {
            let (sl, sh) = span.bounds(f, dim);
            if sh <= plane {
                // Routed by summary alone — rows never touched.
                if matches!(span, Span::Whole(_)) {
                    BLOCKS_ROUTED.inc();
                }
                left.push(span);
            } else if sl > plane {
                if matches!(span, Span::Whole(_)) {
                    BLOCKS_ROUTED.inc();
                }
                right.push(span);
            } else {
                // The envelope straddles the plane: page this span's rows in
                // and refine it into two exact part-spans.
                if matches!(span, Span::Whole(_)) {
                    BLOCKS_REFINED.inc();
                }
                let mut lrows: Vec<u32> = Vec::new();
                let mut rrows: Vec<u32> = Vec::new();
                span.for_each_row(f, |row| {
                    if f.value(dim, row) <= plane {
                        lrows.push(row as u32);
                    } else {
                        rrows.push(row as u32);
                    }
                });
                if !lrows.is_empty() {
                    left.push(part_span(f, lrows));
                }
                if !rrows.is_empty() {
                    right.push(part_span(f, rrows));
                }
            }
        }
        split(f, left, max_size, diameter, leaves);
        split(f, right, max_size, diameter, leaves);
    } else if size > max_size {
        // Diameter satisfied but too many tuples: order along the widest
        // dimension (ties by position — determinism) and chop into
        // size-budget chunks. This is the only place a node materializes
        // per-row values, and it is bounded by the node, not the relation.
        let mut members: Vec<(f64, usize)> = Vec::with_capacity(size);
        for span in &spans {
            span.for_each_row(f, |row| members.push((f.value(dim, row), row)));
        }
        members.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for chunk in members.chunks(max_size) {
            leaves.push(chunk.iter().map(|&(_, row)| row).collect());
        }
    } else {
        let mut members: Vec<usize> = Vec::with_capacity(size);
        for span in &spans {
            span.for_each_row(f, |row| members.push(row));
        }
        members.sort_unstable();
        leaves.push(members);
    }
}

/// Elect the medoid of `members` (closest to the centroid, ties to the
/// lowest position), reading the column-major dimensions one at a time so
/// the full feature matrix is never assembled.
fn medoid(f: &BlockFeatures, members: &[usize]) -> usize {
    let inv = 1.0 / members.len() as f64;
    let mut dist = vec![0.0f64; members.len()];
    for dim in 0..f.d {
        let centroid: f64 = members.iter().map(|&i| f.value(dim, i)).sum::<f64>() * inv;
        for (slot, &i) in dist.iter_mut().zip(members) {
            let delta = f.value(dim, i) - centroid;
            *slot += delta * delta;
        }
    }
    let mut best = 0usize;
    for (idx, &d) in dist.iter().enumerate() {
        if d < dist[best] {
            best = idx;
        }
    }
    members[best]
}

/// Partition candidates hierarchically into groups of at most `max_size`
/// whose normalized per-dimension spread never exceeds `diameter` (clamped
/// to `(0, 1]`; `1` disables the bound since features live in `[0, 1]`),
/// each with a medoid representative — driven by block summaries so only
/// straddled blocks are paged in.
pub fn partition_hierarchical(f: &BlockFeatures, max_size: usize, diameter: f64) -> Partitioning {
    let n = f.num_rows();
    let max_size = max_size.max(1);
    let diameter = if diameter <= 0.0 {
        1.0
    } else {
        diameter.min(1.0)
    };

    let spans: Vec<Span> = (0..f.num_blocks()).map(Span::Whole).collect();
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    split(f, spans, max_size, diameter, &mut partitions);

    let mut assignment = vec![0usize; n];
    let mut representatives = Vec::with_capacity(partitions.len());
    for (pid, members) in partitions.iter().enumerate() {
        for &i in members {
            assignment[i] = pid;
        }
        representatives.push(medoid(f, members));
    }

    Partitioning {
        partitions,
        representatives,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims_of(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let d = rows.first().map(Vec::len).unwrap_or(0);
        (0..d)
            .map(|k| rows.iter().map(|r| r[k]).collect())
            .collect()
    }

    /// Tests whose cuts refine blocks take turns with the one that reads
    /// the process-wide block counters, so a move of a counter belongs to
    /// the test that reads it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    i as f64 / (n - 1) as f64,
                    ((i * 7) % n) as f64 / (n - 1) as f64,
                ]
            })
            .collect()
    }

    #[test]
    fn covers_all_positions_disjointly_and_respects_budgets() {
        let _turn = serial();
        let rows = grid(500);
        for block_rows in [3, 64, 4096] {
            let f = BlockFeatures::from_dims(dims_of(&rows), block_rows);
            let p = partition_hierarchical(&f, 40, 0.25);
            let mut all: Vec<usize> = p.partitions.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..500).collect::<Vec<_>>());
            for (pid, members) in p.partitions.iter().enumerate() {
                assert!(members.len() <= 40);
                assert!(p.partitions[pid].contains(&p.representatives[pid]));
                for &i in members {
                    assert_eq!(p.assignment[i], pid);
                }
                for dim in [0, 1] {
                    let vals: Vec<f64> = members.iter().map(|&i| rows[i][dim]).collect();
                    let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        - vals.iter().cloned().fold(f64::INFINITY, f64::min);
                    assert!(spread <= 0.25 + 1e-12, "spread {spread} in dim {dim}");
                }
            }
        }
    }

    #[test]
    fn block_size_does_not_change_the_partitioning() {
        // The summary granularity is an implementation detail: cuts happen
        // at envelope midpoints, which are identical whatever the blocking,
        // so the final leaves must match exactly. This is the property that
        // lets BLOCK_ROWS stay independent of the storage chunk size.
        let _turn = serial();
        let rows = grid(257);
        let reference = {
            let f = BlockFeatures::from_dims(dims_of(&rows), 1);
            partition_hierarchical(&f, 16, 0.2)
        };
        for block_rows in [2, 5, 32, 4096] {
            let f = BlockFeatures::from_dims(dims_of(&rows), block_rows);
            let p = partition_hierarchical(&f, 16, 0.2);
            assert_eq!(
                p.partitions, reference.partitions,
                "block_rows {block_rows}"
            );
            assert_eq!(p.representatives, reference.representatives);
        }
    }

    #[test]
    fn whole_blocks_route_without_refinement() {
        // Two well-separated clusters, each filling whole blocks: the first
        // cut routes every block by its envelope alone.
        let _turn = serial();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..64 {
            rows.push(vec![0.05 + (i % 8) as f64 * 0.001]);
        }
        for i in 0..64 {
            rows.push(vec![0.95 + (i % 8) as f64 * 0.001]);
        }
        let before = (BLOCKS_ROUTED.get(), BLOCKS_REFINED.get());
        let f = BlockFeatures::from_dims(dims_of(&rows), 16);
        let p = partition_hierarchical(&f, 64, 0.2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.partitions[0], (0..64).collect::<Vec<_>>());
        assert_eq!(p.partitions[1], (64..128).collect::<Vec<_>>());
        assert!(BLOCKS_ROUTED.get() >= before.0 + 8, "all 8 blocks routed");
        assert_eq!(BLOCKS_REFINED.get(), before.1, "no block refined");
    }

    #[test]
    fn identical_tuples_chop_into_size_chunks() {
        let rows = vec![vec![0.4, 0.4]; 100];
        let f = BlockFeatures::from_dims(dims_of(&rows), 7);
        let p = partition_hierarchical(&f, 30, 0.1);
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.partitions.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![30, 30, 30, 10]
        );
    }

    #[test]
    fn empty_input_yields_no_partitions() {
        let f = BlockFeatures::from_dims(vec![], 4096);
        let p = partition_hierarchical(&f, 8, 0.2);
        assert!(p.is_empty());
        assert!(p.assignment.is_empty());
    }

    #[test]
    fn matches_flat_partitioner_semantics_on_medoids() {
        // A three-point line: the central member is elected.
        let rows = vec![vec![0.0, 0.0], vec![0.5, 0.5], vec![1.0, 1.0]];
        let f = BlockFeatures::from_dims(dims_of(&rows), 4096);
        let p = partition_hierarchical(&f, 3, 1.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.representatives[0], 1);
    }
}
