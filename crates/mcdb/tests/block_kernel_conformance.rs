//! Columnar block-kernel conformance suite.
//!
//! Every VG family draws its values only through
//! [`spq_mcdb::VgFunction::realize_block`], a hoisted columnar kernel. This
//! suite is its independent oracle: each family of the corpus carries its
//! draw formula, written here from the corpus parameters, and the oracle
//! seeds every cell from the full five-word counter-based key
//! `mix(&[seed, stream, column tag, driver group, scenario])` — not from the
//! hoisted prefixes the kernels use. For **every** family, at **every** tile
//! split and thread count, the kernels must match it bit for bit.
//!
//! The corpus deliberately includes the families' degenerate edges: zero
//! sigma tuples, single-candidate discrete sources and shared GBM driver
//! groups.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal, Pareto};
use spq_mcdb::seed::{column_prefix, column_tag, mix, Stream};
use spq_mcdb::vg::{
    Degenerate, DiscreteSources, GeometricBrownianMotion, NormalNoise, ParetoNoise,
};
use spq_mcdb::{Relation, RelationBuilder, ScenarioGenerator, VgFunction};
use std::ops::Range;

const N: usize = 13;

/// The base value of tuple `t`.
fn base_at(t: usize) -> f64 {
    (t as f64) * 1.5 - 3.0
}

fn base() -> Vec<f64> {
    (0..N).map(base_at).collect()
}

type Draw = Box<dyn Fn(usize, &mut SmallRng) -> f64>;

/// One VG family of the corpus: a one-column relation, the driver group of
/// each tuple, and the family's draw formula for one cell.
struct Family {
    name: &'static str,
    relation: Relation,
    group: fn(usize) -> u64,
    draw: Draw,
}

fn family(
    name: &'static str,
    vg: impl VgFunction + 'static,
    group: fn(usize) -> u64,
    draw: impl Fn(usize, &mut SmallRng) -> f64 + 'static,
) -> Family {
    let relation = RelationBuilder::new(name)
        .stochastic("x", vg)
        .build()
        .unwrap();
    Family {
        name,
        relation,
        group,
        draw: Box::new(draw),
    }
}

fn own_group(tuple: usize) -> u64 {
    tuple as u64
}

/// One relation per VG family, edge cases included.
fn family_corpus() -> Vec<Family> {
    let mut sigma: Vec<f64> = (0..N).map(|i| 0.25 * i as f64).collect();
    sigma[0] = 0.0; // zero-sigma tuples draw nothing
    sigma[7] = 0.0;
    let price: Vec<f64> = (0..N).map(|i| 50.0 + 5.0 * i as f64).collect();
    let mu: Vec<f64> = (0..N).map(|i| 0.0005 * (i % 4) as f64).collect();
    let gbm_sigma: Vec<f64> = (0..N).map(|i| 0.01 + 0.002 * (i % 4) as f64).collect();
    let horizon: Vec<u32> = (0..N).map(|i| 1 + (i % 5) as u32).collect();
    // Shared driver groups: tuples of one stock share a path.
    let group: Vec<u64> = (0..N).map(|i| (i % 4) as u64).collect();
    let mut candidates: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            (0..(1 + i % 4))
                .map(|d| i as f64 + 0.1 * d as f64)
                .collect()
        })
        .collect();
    candidates[3] = vec![42.0]; // single candidate: the draw cannot matter

    vec![
        family("degenerate", Degenerate::new(base()), own_group, |t, _| {
            base_at(t)
        }),
        family(
            "normal",
            NormalNoise::around(base(), sigma.clone()),
            own_group,
            move |t, rng| {
                if sigma[t] == 0.0 {
                    base_at(t)
                } else {
                    base_at(t) + Normal::new(0.0, sigma[t]).unwrap().sample(rng)
                }
            },
        ),
        family(
            "pareto",
            ParetoNoise::around(base(), 1.5, 2.5),
            own_group,
            |t, rng| base_at(t) + Pareto::new(1.5, 2.5).unwrap().sample(rng),
        ),
        family(
            "gbm",
            GeometricBrownianMotion::new(
                price.clone(),
                mu.clone(),
                gbm_sigma.clone(),
                horizon.clone(),
                group,
            ),
            |t| (t % 4) as u64,
            move |t, rng| {
                // The stock's shared daily path, walked to this trade's horizon.
                let (s, unit) = (gbm_sigma[t], Normal::new(0.0, 1.0).unwrap());
                let mut log_price = price[t].ln();
                for _ in 0..horizon[t] {
                    log_price += (mu[t] - 0.5 * s * s) + s * unit.sample(rng);
                }
                log_price.exp() - price[t]
            },
        ),
        family(
            "discrete-sources",
            DiscreteSources::from_candidates(candidates.clone()).unwrap(),
            own_group,
            move |t, rng| candidates[t][rng.gen_range(0..candidates[t].len())],
        ),
    ]
}

/// The per-cell oracle, tuple-major: every cell seeds its own RNG from the
/// full five-word key and draws with the family's formula.
fn oracle(
    family: &Family,
    seed: u64,
    stream: Stream,
    tuples: &[usize],
    scenarios: Range<usize>,
) -> Vec<f64> {
    let tag = column_tag("x");
    let mut out = Vec::with_capacity(tuples.len() * scenarios.len());
    for &t in tuples {
        for j in scenarios.clone() {
            let key = mix(&[seed, stream.tag(), tag, (family.group)(t), j as u64]);
            out.push((family.draw)(t, &mut SmallRng::seed_from_u64(key)));
        }
    }
    out
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: cell {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn every_family_matches_the_per_cell_oracle_at_every_thread_count() {
    let tuples: Vec<usize> = (0..N).rev().collect(); // non-monotone order too
    for fam in family_corpus() {
        for gen in [
            ScenarioGenerator::new(11),
            ScenarioGenerator::validation(11),
        ] {
            let expected = oracle(&fam, gen.base_seed(), gen.stream(), &tuples, 2..18);
            for threads in [1usize, 2, 3, 8] {
                let matrix = gen
                    .realize_sparse_matrix_range(&fam.relation, "x", &tuples, 2..18, threads)
                    .unwrap();
                let mut got = Vec::with_capacity(expected.len());
                for (i, _) in tuples.iter().enumerate() {
                    for j in 0..16 {
                        got.push(matrix.value(j, i));
                    }
                }
                let context = format!("{} threads={threads}", fam.name);
                assert_bits_eq(&expected, &got, &context);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary scenario windows, tuple subsets, thread counts, and seeds:
    /// the generator path equals the per-cell oracle for every family.
    #[test]
    fn generator_path_is_bit_identical_for_arbitrary_windows(
        seed in 0u64..1_000,
        start in 0usize..64,
        m in 1usize..24,
        threads in 1usize..9,
        picks in proptest::collection::vec(0usize..N, 1..10),
    ) {
        for fam in family_corpus() {
            let gen = ScenarioGenerator::new(seed);
            let expected = oracle(&fam, seed, Stream::Optimization, &picks, start..start + m);
            let matrix = gen
                .realize_sparse_matrix_range(&fam.relation, "x", &picks, start..start + m, threads)
                .unwrap();
            let mut got = Vec::with_capacity(expected.len());
            for (i, _) in picks.iter().enumerate() {
                for j in 0..m {
                    got.push(matrix.value(j, i));
                }
            }
            assert_bits_eq(&expected, &got, &format!("{} seed={seed} threads={threads}", fam.name));
        }
    }

    /// Direct `realize_block` calls at arbitrary tile splits: slicing the
    /// tuple set anywhere and realizing each slice independently yields the
    /// same bits as one whole-block call and as the per-cell oracle.
    #[test]
    fn realize_block_is_split_invariant(
        seed in 0u64..1_000,
        start in 0usize..32,
        m in 1usize..16,
        split_a in 1usize..N,
        split_b in 1usize..N,
    ) {
        let (lo, hi) = (split_a.min(split_b), split_a.max(split_b));
        let tuples: Vec<usize> = (0..N).collect();
        for fam in family_corpus() {
            let (name, sc) = (fam.name, fam.relation.stochastic_column("x").unwrap());
            let prefix = column_prefix(seed, Stream::Optimization, sc.tag);
            let expected = oracle(&fam, seed, Stream::Optimization, &tuples, start..start + m);

            let mut whole = vec![0.0f64; N * m];
            sc.vg.realize_block(prefix, &tuples, start..start + m, &mut whole);
            assert_bits_eq(&expected, &whole, &format!("{name} whole-block"));

            let mut split = vec![0.0f64; N * m];
            {
                let (first, rest) = split.split_at_mut(lo * m);
                let (second, third) = rest.split_at_mut((hi - lo) * m);
                sc.vg.realize_block(prefix, &tuples[..lo], start..start + m, first);
                if hi > lo {
                    sc.vg.realize_block(prefix, &tuples[lo..hi], start..start + m, second);
                }
                if hi < N {
                    sc.vg.realize_block(prefix, &tuples[hi..], start..start + m, third);
                }
            }
            assert_bits_eq(&expected, &split, &format!("{name} split at {lo}/{hi}"));
        }
    }
}
