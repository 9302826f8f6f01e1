//! Differential property tests: `FlatStackDistance` against the definition
//! of LRU stack distance, over streams shaped to reach every path of the
//! tracker (recency-buffer hits, deep hits, first touches, compaction).

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
}
