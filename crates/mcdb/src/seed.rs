//! Deterministic, splittable seeding of realizations.
//!
//! The paper's algorithms rely on the ability to re-generate the *same*
//! scenario on demand (e.g., tuple-wise vs. scenario-wise summarization in
//! Section 5.5 must see identical realizations, and validation uses a seed
//! that is disjoint from the optimization seed). We achieve this with a
//! counter-based scheme: the realization of stochastic column `c`, driver
//! group `g`, scenario `j` under base seed `s` is produced by an RNG seeded
//! with a strong mix of `(s, stream, c, g, j)` ([`column_prefix`],
//! [`group_seed`], [`cell_seed`]). Generation order therefore never affects
//! the values.

/// Identifies a stream of scenarios: either the optimization stream or the
/// (disjoint) validation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Scenarios used to build SAA/CSA formulations.
    Optimization,
    /// Out-of-sample scenarios used for validation and expectation estimation.
    Validation,
}

impl Stream {
    /// Stable 64-bit domain-separation tag of the stream. Folded into every
    /// cell seed and into persistent scenario-store keys, so the two streams
    /// never share realizations on disk either.
    pub fn tag(self) -> u64 {
        match self {
            Stream::Optimization => 0x9E37_79B9_7F4A_7C15,
            Stream::Validation => 0xD1B5_4A32_D192_ED03,
        }
    }
}

/// SplitMix64 finalizer; a strong 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary number of 64-bit words into a single seed.
pub fn mix(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64;
    for &w in words {
        acc = splitmix64(acc ^ splitmix64(w));
    }
    acc
}

/// The hoisted seeding prefix shared by every cell of one `(base seed,
/// stream, column)` triple: the state of the [`mix`] fold after its first
/// three words.
///
/// A cell's key is `mix(&[base_seed, stream.tag(), column_tag, group,
/// scenario])`, where `column_tag` is a stable hash of the column name,
/// `group` the driver group (tuples that share correlated randomness share
/// a group) and `scenario` the index within the stream. The block kernels
/// hoist this prefix out of their inner loops so each cell pays two
/// SplitMix rounds ([`group_seed`] is hoisted per tuple, [`cell_seed`] runs
/// per scenario) instead of the ten a full five-word [`mix`] costs; folding
/// the remaining words through [`group_seed`] and [`cell_seed`] reproduces
/// the full key bit-exactly.
#[inline]
pub fn column_prefix(base_seed: u64, stream: Stream, column_tag: u64) -> u64 {
    mix(&[base_seed, stream.tag(), column_tag])
}

/// Fold a driver-group index into a [`column_prefix`]. Hoisted per tuple by
/// the block kernels.
#[inline]
pub fn group_seed(column_prefix: u64, group: u64) -> u64 {
    splitmix64(column_prefix ^ splitmix64(group))
}

/// Fold a scenario index into a [`group_seed`], completing the counter-based
/// cell key; `SmallRng::seed_from_u64(cell_seed(..))` is the cell's RNG.
#[inline]
pub fn cell_seed(group_seed: u64, scenario: u64) -> u64 {
    splitmix64(group_seed ^ splitmix64(scenario))
}

/// Initial state of an [`fnv1a`] hash.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into the FNV-1a state `hash` (start from [`FNV_OFFSET`]).
/// The crate's one byte hash: column tags and block checksums.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// [`fnv1a`] taking whole 64-bit words as its units: one multiply per word
/// instead of eight, for keys hashed on every lookup (candidate tuple sets).
pub fn fnv1a_words(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(hash, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Stable 64-bit tag for a column name.
pub fn column_tag(name: &str) -> u64 {
    // FNV-1a over the bytes, then a SplitMix finalizer for avalanche.
    splitmix64(fnv1a(FNV_OFFSET, name.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn mix_depends_on_every_word() {
        let a = mix(&[1, 2, 3]);
        assert_ne!(a, mix(&[1, 2, 4]));
        assert_ne!(a, mix(&[0, 2, 3]));
        assert_ne!(a, mix(&[1, 2]));
        assert_eq!(a, mix(&[1, 2, 3]));
    }

    fn key_rng(s: u64, stream: Stream, c: u64, g: u64, j: u64) -> SmallRng {
        SmallRng::seed_from_u64(cell_seed(group_seed(column_prefix(s, stream, c), g), j))
    }

    #[test]
    fn streams_are_disjoint() {
        let mut a = key_rng(7, Stream::Optimization, 1, 2, 3);
        let mut b = key_rng(7, Stream::Validation, 1, 2, 3);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn cell_keys_are_reproducible() {
        let mut a = key_rng(11, Stream::Optimization, 5, 0, 9);
        let mut b = key_rng(11, Stream::Optimization, 5, 0, 9);
        for _ in 0..8 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn hoisted_prefixes_reproduce_the_full_mix() {
        // The block kernels rely on column_prefix → group_seed → cell_seed
        // replaying mix(&[s, stream, c, g, j]) exactly.
        for (s, c, g, j) in [
            (0u64, 0u64, 0u64, 0u64),
            (7, 3, 12, 99),
            (u64::MAX, 1, 2, 3),
        ] {
            for stream in [Stream::Optimization, Stream::Validation] {
                let full = mix(&[s, stream.tag(), c, g, j]);
                let hoisted = cell_seed(group_seed(column_prefix(s, stream, c), g), j);
                assert_eq!(full, hoisted);
            }
        }
    }

    #[test]
    fn column_tags_differ_for_different_names() {
        assert_ne!(column_tag("gain"), column_tag("price"));
        assert_eq!(column_tag("gain"), column_tag("gain"));
    }
}
