//! The four ledger workloads and their request generators.
//!
//! A workload's `i`-th request is a pure function of `(workload, seed, i)`:
//! the timed phase and the traced replay draw from the same list, and two
//! runs with the same seed send the same requests.

use spq_core::Algorithm;
use spq_workloads::WorkloadKind;

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Galaxy, memory tier, SummarySearch, constraint constant varied.
    SsGalaxyMem,
    /// Portfolio, disk tier, chunk cache a third of the column the queries
    /// read, SketchRefine over id slices, distinct seeds.
    SrPortfolioDisk,
    /// TPC-H `validate` ops with a cold scenario cache.
    ValTpchCold,
    /// Result-cache hits only, two tenants.
    HotRepeat2Tenant,
}

/// Tenants of [`Workload::HotRepeat2Tenant`].
pub const HOT_TENANTS: [&str; 2] = ["alice", "bob"];
/// Distinct pre-warmed requests of [`Workload::HotRepeat2Tenant`].
pub const HOT_KEYS: usize = 16;
/// Packages [`Workload::ValTpchCold`] validates, found in set-up.
pub const VAL_PACKAGES: usize = 4;
/// Id ranges a [`Workload::SrPortfolioDisk`] request restricts its package
/// to: one at the head of each chunk file of a column (the disk tier cuts a
/// column every 65 536 rows; neither `load_relation` nor `spqd` can change
/// that).
pub const DISK_SLICES: usize = 6;

/// Frozen input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Relation scale passed to the generator.
    pub tuples: usize,
    /// Out-of-sample budget `M̂` of every request.
    pub m_hat: usize,
    /// Requests the traced run replays (`K`).
    pub traced_requests: usize,
    /// `base_options.max_relation_bytes`: the chunk-cache ceiling of a
    /// disk-tier relation (`None` on the memory tier).
    pub max_relation_bytes: Option<u64>,
    /// Tuples in one of the [`DISK_SLICES`] id ranges (0 elsewhere).
    pub slice_rows: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SsGalaxyMem,
        Workload::SrPortfolioDisk,
        Workload::ValTpchCold,
        Workload::HotRepeat2Tenant,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SsGalaxyMem => "ss_galaxy_mem",
            Workload::SrPortfolioDisk => "sr_portfolio_disk",
            Workload::ValTpchCold => "val_tpch_cold",
            Workload::HotRepeat2Tenant => "hot_repeat_2tenant",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SsGalaxyMem => {
                "analyst re-asks with new constants: scenario blocks warm, prepared and result \
                 caches miss, so the solver and the SummarySearch loop do the work"
            }
            Workload::SrPortfolioDisk => {
                "disk-tier relation of six chunks a column behind a two-chunk cache, SketchRefine \
                 over Zipf-popular id slices, distinct seeds: paging, partitioning, cold scenarios"
            }
            Workload::ValTpchCold => {
                "validate ops with a distinct seed each: VG realization with a cold cache plus \
                 the validator, no LP solved, so a solver change must leave it unmoved"
            }
            Workload::HotRepeat2Tenant => {
                "every op is a result-cache hit on two tenants: net, codec, catalog lookup and \
                 ResultCache are the whole cost, engine changes must not move it"
            }
        }
    }

    /// The paper workload whose generator builds the relation.
    pub fn kind(self) -> WorkloadKind {
        match self {
            Workload::SsGalaxyMem => WorkloadKind::Galaxy,
            Workload::SrPortfolioDisk | Workload::HotRepeat2Tenant => WorkloadKind::Portfolio,
            Workload::ValTpchCold => WorkloadKind::Tpch,
        }
    }

    /// Name the relation is loaded under.
    pub fn relation_name(self) -> &'static str {
        match self.kind() {
            WorkloadKind::Galaxy => "galaxy",
            WorkloadKind::Portfolio => "portfolio",
            WorkloadKind::Tpch => "tpch",
        }
    }

    /// Whether the relation is loaded with `"storage":"disk"`.
    pub fn on_disk(self) -> bool {
        self == Workload::SrPortfolioDisk
    }

    /// Tenants the relation is loaded into (`None` = the default tenant).
    pub fn tenants(self) -> &'static [Option<&'static str>] {
        match self {
            Workload::HotRepeat2Tenant => &[Some(HOT_TENANTS[0]), Some(HOT_TENANTS[1])],
            _ => &[None],
        }
    }

    /// The frozen sizes (`quick` = the tiny sizes of the self-test).
    pub fn sizes(self, quick: bool) -> Sizes {
        let (tuples, m_hat, traced_requests) = match (self, quick) {
            (Workload::SsGalaxyMem, false) => (2_000, 10_000, 16),
            // Six chunks per column.
            (Workload::SrPortfolioDisk, false) => (DISK_SLICES * 65_536, 10_000, 16),
            (Workload::ValTpchCold, false) => (5_000, 200_000, 16),
            // Hits cost ~0.1 ms: thousands are needed before CPU ticks and
            // the traced/untraced medians mean anything.
            (Workload::HotRepeat2Tenant, false) => (10_000, 1_000, 4_096),
            (Workload::SsGalaxyMem, true) => (150, 500, 3),
            (Workload::SrPortfolioDisk, true) => (DISK_SLICES * 400, 500, 3),
            (Workload::ValTpchCold, true) => (300, 2_000, 3),
            (Workload::HotRepeat2Tenant, true) => (300, 300, 64),
        };
        Sizes {
            tuples,
            m_hat,
            traced_requests,
            // Two decoded chunks (65 536 values of 24 bytes) and no third: a
            // third of the column the queries read. (The self-test's columns
            // are one small chunk each; its budget holds one of them.)
            max_relation_bytes: self
                .on_disk()
                .then_some(if quick { 64 << 10 } else { 4 << 20 }),
            slice_rows: match (self.on_disk(), quick) {
                (false, _) => 0,
                (true, false) => 8_192,
                (true, true) => 400,
            },
        }
    }
}

/// One request, before it is rendered to a wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A `query` op.
    Query {
        /// Tenant namespace (`None` = default).
        tenant: Option<&'static str>,
        /// sPaQL text.
        query: String,
        /// Evaluation algorithm.
        algorithm: Algorithm,
        /// Request seed (`None` = the server default).
        seed: Option<u64>,
        /// Which of the [`DISK_SLICES`] id ranges the text selects.
        slice: Option<usize>,
        /// For cache-hit workloads: which of the pre-warmed keys this
        /// request repeats.
        repeat_key: Option<usize>,
    },
    /// A `validate` op over one of the packages found in set-up.
    Validate {
        /// Index into the set-up packages.
        package: usize,
        /// Validation-stream seed.
        seed: u64,
    },
}

/// SplitMix64: the one mixing step every draw below is made of.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, stream, i)`.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    (mix(mix(seed ^ stream.rotate_left(32)).wrapping_add(i)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Requests per epoch of a seeded-request workload.
///
/// How long a SketchRefine query takes depends strongly on its request seed,
/// so a run that drew a few hundred seeds of its own would measure its luck.
/// Instead every run walks the same population: epoch 0 is a fixed pool of
/// [`POOL`] request seeds, epoch 1 the next fixed pool, and so on (all
/// distinct, so the result cache never hits); `--seed` only chooses the
/// order in which each epoch is visited.
pub const POOL: u64 = 64;

/// The `(epoch, slot)` the `i`-th request visits: an affine permutation of
/// each epoch's slots, keyed by `seed`.
fn pool_slot(seed: u64, i: u64) -> (u64, u64) {
    let (a, b) = (mix(seed) | 1, mix(seed ^ 0xb10c));
    (i / POOL, (a.wrapping_mul(i % POOL).wrapping_add(b)) % POOL)
}

/// The request seed of pool slot `(epoch, slot)`: 53 bits (it survives the
/// wire's `f64` numbers), and distinct for distinct slots because the low
/// 32 bits carry the slot's number.
fn pool_seed(epoch: u64, slot: u64) -> u64 {
    let n = epoch * POOL + slot;
    ((mix(0x5eed_fa11 ^ n) & 0x1F_FFFF) << 32) | (n & 0xFFFF_FFFF)
}

/// Galaxy template `q` with the probabilistic constraint's right-hand side
/// replaced by `v`.
fn galaxy_query_with_rhs(q: usize, v: f64) -> String {
    let text = spq_workloads::galaxy::query(q);
    let needle = format!(" {} WITH PROBABILITY", galaxy_rhs(q));
    assert!(text.contains(&needle), "Galaxy Q{q} lost its RHS");
    text.replace(&needle, &format!(" {v} WITH PROBABILITY"))
}

/// The Table 3 right-hand side of Galaxy template `q`.
fn galaxy_rhs(q: usize) -> f64 {
    spq_workloads::spec::query_spec(WorkloadKind::Galaxy, q).v
}

/// The query every `validate` op of [`Workload::ValTpchCold`] names.
pub fn validate_query() -> String {
    spq_workloads::tpch::query(1)
}

/// The four distinct Portfolio query texts (Q1, Q2, Q5, Q6 of Table 3).
const PORTFOLIO_TEXTS: [usize; 4] = [1, 2, 5, 6];

/// The `key`-th pre-warmed request of the hot workload. The sixteen keys are
/// the same in every run (`--seed` only drives the draws over them), so the
/// warm-up cost and the objectives being repeated do not move with the seed.
pub fn hot_key_op(key: usize) -> Op {
    Op::Query {
        tenant: Some(HOT_TENANTS[key % 2]),
        query: spq_workloads::portfolio::query(PORTFOLIO_TEXTS[(key / 2) % 4]),
        algorithm: Algorithm::SketchRefine,
        seed: Some(pool_seed(0, (key / 8) as u64)),
        slice: None,
        repeat_key: Some(key),
    }
}

/// Zipf(1) over `ranks` ranks: rank `r` has weight `1 / (r + 1)`.
fn zipf_rank(u: f64, ranks: usize) -> usize {
    let total: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    for r in 0..ranks {
        acc += 1.0 / (r + 1) as f64 / total;
        if u < acc {
            return r;
        }
    }
    ranks - 1
}

/// Portfolio template `q` restricted to id range `slice`: the analyst
/// querying one part of a relation much larger than the part.
pub fn portfolio_slice_query(q: usize, slice: usize, sizes: &Sizes) -> String {
    // Ids are the 1-based row numbers.
    let first = slice * (sizes.tuples / DISK_SLICES) + 1;
    let last = first + sizes.slice_rows - 1;
    let text = spq_workloads::portfolio::query(q);
    assert!(
        text.contains(" SUCH THAT "),
        "Portfolio Q{q} lost its shape"
    );
    text.replacen(
        " SUCH THAT ",
        &format!(" WHERE id >= {first} AND id <= {last} SUCH THAT "),
        1,
    )
}

/// The `i`-th request of `workload` under `seed`.
pub fn op(workload: Workload, sizes: &Sizes, seed: u64, i: usize) -> Op {
    let i = i as u64;
    match workload {
        Workload::SsGalaxyMem => {
            // Q1/Q2 alternate; the RHS walks a ±10 % band on a golden-ratio
            // lattice, so every text is distinct (prepared and result caches
            // miss) while the scenario blocks (server-default seed) are
            // shared. The two templates differ only in the RHS and their
            // bands overlap, so the sixth decimal carries the template.
            let q = 1 + (i % 2) as usize;
            let phase = unit(seed, 1, 0);
            let frac = (phase + i as f64 * 0.618_033_988_749_894_9).fract();
            let v = galaxy_rhs(q) * (0.9 + 0.2 * frac);
            let v = ((v * 1e5).round() * 10.0 + q as f64) / 1e6;
            Op::Query {
                tenant: None,
                query: galaxy_query_with_rhs(q, v),
                algorithm: Algorithm::SummarySearch,
                seed: None,
                slice: None,
                repeat_key: None,
            }
        }
        Workload::SrPortfolioDisk => {
            // The slot fixes the request seed, the template and the slice,
            // so every run visits the same population; slices are Zipf(1)
            // popular, so some chunks stay cached and others page.
            let (epoch, slot) = pool_slot(seed, i);
            let slice = zipf_rank((slot as f64 + 0.5) / POOL as f64, DISK_SLICES);
            Op::Query {
                tenant: None,
                query: portfolio_slice_query(1 + (slot % 2) as usize, slice, sizes),
                algorithm: Algorithm::SketchRefine,
                seed: Some(pool_seed(epoch, slot)),
                slice: Some(slice),
                repeat_key: None,
            }
        }
        Workload::ValTpchCold => {
            let (epoch, slot) = pool_slot(seed, i);
            Op::Validate {
                package: (slot % VAL_PACKAGES as u64) as usize,
                seed: pool_seed(epoch, slot),
            }
        }
        // Key `k` holds popularity rank `k`.
        Workload::HotRepeat2Tenant => hot_key_op(zipf_rank(unit(seed, 2, i), HOT_KEYS)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The `i`-th request at the frozen sizes.
    fn op(w: Workload, seed: u64, i: usize) -> Op {
        super::op(w, &w.sizes(false), seed, i)
    }

    #[test]
    fn the_generator_is_a_pure_function_of_workload_seed_and_index() {
        for w in Workload::ALL {
            for i in [0usize, 1, 2, 17, 4096] {
                assert_eq!(op(w, 11, i), op(w, 11, i), "{w:?} #{i}");
            }
            let a: Vec<Op> = (0..64).map(|i| op(w, 11, i)).collect();
            let b: Vec<Op> = (0..64).map(|i| op(w, 12, i)).collect();
            assert_ne!(a, b, "{w:?}: the seed must change the inputs");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn cache_missing_workloads_never_repeat_a_request() {
        for w in [
            Workload::SsGalaxyMem,
            Workload::SrPortfolioDisk,
            Workload::ValTpchCold,
        ] {
            let mut seen = HashSet::new();
            for i in 0..5_000 {
                assert!(
                    seen.insert(format!("{:?}", op(w, 3, i))),
                    "{w:?} repeats #{i}"
                );
            }
        }
    }

    #[test]
    fn galaxy_rhs_stays_in_its_band() {
        for i in 0..200 {
            let Op::Query { query, .. } = op(Workload::SsGalaxyMem, 5, i) else {
                panic!("galaxy sends queries");
            };
            let v: f64 = query
                .split(">= ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("RHS parses");
            let base = galaxy_rhs(1 + i % 2);
            assert!(
                v >= base * 0.9 - 1e-6 && v <= base * 1.1 + 1e-6,
                "{v} vs {base}"
            );
        }
    }

    #[test]
    fn hot_requests_cycle_over_sixteen_keys_on_two_tenants() {
        let mut counts = [0usize; HOT_KEYS];
        for i in 0..20_000 {
            let Op::Query {
                repeat_key: Some(k),
                tenant: Some(t),
                ..
            } = op(Workload::HotRepeat2Tenant, 9, i)
            else {
                panic!("hot sends tenant-tagged repeats");
            };
            assert_eq!(t, HOT_TENANTS[k % 2]);
            counts[k] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "every key is drawn: {counts:?}"
        );
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max > &(min * 8), "Zipf(1) skew: {counts:?}");
        // The sixteen keys are sixteen different requests.
        let keys: HashSet<String> = (0..HOT_KEYS)
            .map(|k| format!("{:?}", hot_key_op(k)))
            .collect();
        assert_eq!(keys.len(), HOT_KEYS);
    }

    #[test]
    fn disk_slices_sit_in_one_chunk_each_and_are_zipf_popular() {
        let w = Workload::SrPortfolioDisk;
        let sizes = w.sizes(false);
        let mut counts = [0usize; DISK_SLICES];
        for i in 0..POOL as usize {
            let Op::Query {
                query,
                slice: Some(slice),
                ..
            } = op(w, 4, i)
            else {
                panic!("the disk workload sends sliced queries");
            };
            counts[slice] += 1;
            let bound = |marker: &str| -> usize {
                let rest = query.split(marker).nth(1).expect("an id bound");
                rest.split(' ').next().unwrap().parse().unwrap()
            };
            let (first, last) = (bound("id >= "), bound("id <= "));
            assert_eq!(last - first + 1, sizes.slice_rows);
            assert!(first >= 1 && last <= sizes.tuples);
            // Row numbers first-1 ..= last-1 fall into chunk file `slice`.
            assert_eq!((first - 1) / 65_536, slice);
            assert_eq!((last - 1) / 65_536, slice);
        }
        assert!(counts.iter().all(|&c| c > 0), "every slice: {counts:?}");
        assert!(counts[0] > 3 * counts[DISK_SLICES - 1], "skew: {counts:?}");
        // The self-test's slices tile its relation.
        let quick = w.sizes(true);
        assert_eq!(quick.slice_rows * DISK_SLICES, quick.tuples);
    }

    #[test]
    fn every_seed_walks_the_same_pool_in_its_own_order() {
        let seeds_of = |seed: u64, range: std::ops::Range<usize>| -> Vec<u64> {
            range
                .map(|i| match op(Workload::SrPortfolioDisk, seed, i) {
                    Op::Query { seed: Some(s), .. } => s,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let pool = POOL as usize;
        for epoch in 0..3 {
            let (a, b) = (
                seeds_of(1, epoch * pool..(epoch + 1) * pool),
                seeds_of(2, epoch * pool..(epoch + 1) * pool),
            );
            assert_ne!(a, b, "the seed changes the order");
            let (sa, sb): (HashSet<u64>, HashSet<u64>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            assert_eq!(sa.len(), pool, "an epoch never repeats a seed");
            assert_eq!(sa, sb, "every run visits the same epoch population");
            for s in a {
                assert!(s < 1 << 53 && s as f64 as u64 == s, "survives the wire");
            }
        }
    }
}
