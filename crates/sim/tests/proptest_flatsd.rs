//! Differential property tests: `FlatStackDistance` against the definition
//! of LRU stack distance, over streams shaped to reach every path of the
//! tracker (recency-buffer hits, deep hits, first touches, compaction),
//! for unit-weight trackers and for weighted ones, where the oracle
//! expands a weighted entry into that many distinct lines.

use portopt_sim::FlatStackDistance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tracker's recency-buffer length: distances below it never reach the
/// Fenwick tree.
const BUFFER: usize = 32;

/// An LRU stack where a line's distance is its position.
#[derive(Default)]
struct Oracle(Vec<usize>);

impl Oracle {
    fn access(&mut self, line: usize) -> Option<u64> {
        let pos = self.0.iter().position(|&l| l == line);
        if let Some(p) = pos {
            self.0.remove(p);
        }
        self.0.insert(0, line);
        pos.map(|p| p as u64)
    }
}

/// `len` accesses over lines `< universe`, mixing random bursts, runs of
/// re-touching the most recent line, cycles whose distances straddle the
/// buffer length, and touches of the highest indices.
fn stream(seed: u64, universe: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + 4 * BUFFER);
    while out.len() < len {
        match rng.gen_range(0u32..4) {
            0 => {
                for _ in 0..rng.gen_range(1usize..64) {
                    out.push(rng.gen_range(0..universe));
                }
            }
            1 => {
                let line = out.last().copied().unwrap_or(0);
                for _ in 0..rng.gen_range(1usize..40) {
                    out.push(line);
                }
            }
            2 => {
                // Cycling over n lines repeats each at distance n - 1:
                // buffer length - 1, buffer length and one past it.
                let n = (BUFFER + rng.gen_range(0usize..3)).min(universe);
                let base = rng.gen_range(0..=universe - n);
                for _ in 0..3 {
                    out.extend(base..base + n);
                }
            }
            _ => out.push(universe - 1 - rng.gen_range(0..universe.min(4))),
        }
    }
    out.truncate(len);
    out
}

fn check(universe: usize, accesses: &[usize]) -> Result<(), TestCaseError> {
    let mut sd = FlatStackDistance::new(universe);
    let mut oracle = Oracle::default();
    for (i, &line) in accesses.iter().enumerate() {
        prop_assert_eq!(
            sd.access(line),
            oracle.access(line),
            "access {} line {}",
            i,
            line
        );
    }
    Ok(())
}

/// The largest weight drawn; also the stride of the oracle's fake lines.
const MAX_WEIGHT: u32 = 64;

/// A weight per key of a universe: 0 for a unit line, else the weight of
/// the group the key stands for. About one key in `1 / share` is a group,
/// its weight 1, 64 or anything between.
fn weights(seed: u64, universe: usize, share: f64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    (0..universe)
        .map(
            |_| match rng.gen_bool(share).then(|| rng.gen_range(0u32..3)) {
                None => 0,
                Some(0) => 1,
                Some(1) => MAX_WEIGHT,
                Some(_) => rng.gen_range(1..=MAX_WEIGHT),
            },
        )
        .collect()
}

/// Runs `accesses` through a weighted tracker and through the oracle, in
/// which group key `g` of weight `w` is the `w` distinct lines
/// `universe + g * MAX_WEIGHT + 0..w`, touched in order. Every one of
/// them must have the distance the profiler records for the group: the
/// tracker's distance plus `w - 1`.
fn check_weighted(weight: &[u32], accesses: &[usize]) -> Result<(), TestCaseError> {
    let universe = weight.len();
    let mut sd = FlatStackDistance::weighted(universe);
    let mut oracle = Oracle::default();
    for (i, &key) in accesses.iter().enumerate() {
        let w = weight[key];
        if w == 0 {
            prop_assert_eq!(
                sd.access(key),
                oracle.access(key),
                "access {} line {}",
                i,
                key
            );
            continue;
        }
        let got = sd.access_weighted(key, w).map(|d| d + u64::from(w - 1));
        for y in 0..w as usize {
            let line = universe + key * MAX_WEIGHT as usize + y;
            prop_assert_eq!(
                got,
                oracle.access(line),
                "access {} group {} weight {} line {}",
                i,
                key,
                w,
                y
            );
        }
    }
    Ok(())
}

/// Rounds of cycles over `n` consecutive keys of `universe`: from the
/// second pass on, every key, groups included, hits at entry position
/// `n - 1`.
fn cycles(seed: u64, universe: usize, n: usize, rounds: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..rounds {
        let base = rng.gen_range(0..=universe - n);
        for _ in 0..3 {
            out.extend(base..base + n);
        }
        // A random key between rounds moves the buffer contents on.
        out.push(rng.gen_range(0..universe));
    }
    out
}

proptest! {
    /// Universes smaller than, around and a few times the buffer length.
    #[test]
    fn matches_oracle_small_universe(seed in 0u64..1_000_000, universe in 1usize..100) {
        check(universe, &stream(seed, universe, 3_000))?;
    }

    /// Sparse touches over a large index space: mostly first touches and
    /// deep hits.
    #[test]
    fn matches_oracle_large_universe(seed in 0u64..1_000_000, universe in 1_000usize..1 << 20) {
        check(universe, &stream(seed, universe, 3_000))?;
    }

    /// Every deep access stamps one evicted line, so 40k accesses over a
    /// few hundred lines run the 4096-slot initial tree through several
    /// compactions.
    #[test]
    fn matches_oracle_through_compactions(seed in 0u64..1_000_000, universe in 40usize..400) {
        check(universe, &stream(seed, universe, 40_000))?;
    }

    /// Weighted groups mixed with unit lines, universes around the buffer
    /// length: buffer hits sum the weights of the slots before them.
    #[test]
    fn weighted_matches_oracle_small_universe(seed in 0u64..1_000_000, universe in 1usize..100) {
        let weight = weights(seed, universe, 0.3);
        check_weighted(&weight, &stream(seed, universe, 2_000))?;
    }

    /// Groups hit at entry positions K - 1, K and K + 1: the last buffer
    /// slot, the first deep mark and the one behind it.
    #[test]
    fn weighted_group_hits_straddle_the_buffer(seed in 0u64..1_000_000, extra in 0usize..3) {
        let universe = 3 * BUFFER;
        let weight = weights(seed, universe, 0.5);
        check_weighted(&weight, &cycles(seed, universe, BUFFER + extra, 20))?;
    }

    /// Enough deep accesses over a few hundred keys to run the tree
    /// through several compactions, which rebuild it from the weights of
    /// the live marks.
    #[test]
    fn weighted_matches_oracle_through_compactions(seed in 0u64..1_000_000, universe in 40usize..300) {
        let weight = weights(seed, universe, 0.1);
        check_weighted(&weight, &stream(seed, universe, 20_000))?;
    }
}
