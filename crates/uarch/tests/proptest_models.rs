//! Property-based tests for the analytical hardware models: monotonicity
//! and boundedness over arbitrary inputs.

use portopt_uarch::{
    access_ns, latencies, miss_probability, MicroArch, MicroArchSpace, ReuseHistogram, ASSOCS,
    BLOCKS, SIZES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LRU stack distance by definition: a block's distance is its position
/// in the recency list.
#[derive(Default)]
struct StackDistance(Vec<u64>);

impl StackDistance {
    fn access(&mut self, block: u64) -> Option<u64> {
        let pos = self.0.iter().position(|&b| b == block);
        if let Some(p) = pos {
            self.0.remove(p);
        }
        self.0.insert(0, block);
        pos.map(|p| p as u64)
    }
}

proptest! {
    /// Miss probability is a probability, monotone in distance and
    /// anti-monotone in cache resources.
    #[test]
    fn miss_probability_properties(
        d in 0.0f64..1e7,
        sets_pow in 0u32..12,
        assoc_pow in 0u32..7,
    ) {
        let sets = 1u32 << sets_pow;
        let assoc = 1u32 << assoc_pow;
        let p = miss_probability(d, sets, assoc);
        prop_assert!((0.0..=1.0).contains(&p));
        // More distance, more misses.
        prop_assert!(miss_probability(d * 2.0 + 1.0, sets, assoc) >= p - 1e-12);
        // More sets or more ways, fewer misses.
        prop_assert!(miss_probability(d, sets * 2, assoc) <= p + 1e-12);
        prop_assert!(miss_probability(d, sets, assoc * 2) <= p + 1e-12);
        // Below associativity: guaranteed hit.
        if d < assoc as f64 {
            prop_assert_eq!(p, 0.0);
        }
    }

    /// Cacti access time is positive, bounded, monotone in size/assoc.
    #[test]
    fn cacti_properties(si in 0usize..6, ai in 0usize..5, bi in 0usize..4) {
        let ns = access_ns(SIZES[si], ASSOCS[ai], BLOCKS[bi]);
        prop_assert!(ns > 0.0 && ns < 10.0);
        if si + 1 < SIZES.len() {
            prop_assert!(access_ns(SIZES[si + 1], ASSOCS[ai], BLOCKS[bi]) > ns);
        }
        if ai + 1 < ASSOCS.len() {
            prop_assert!(access_ns(SIZES[si], ASSOCS[ai + 1], BLOCKS[bi]) > ns);
        }
    }

    /// Every sampled configuration yields sane latencies.
    #[test]
    fn latencies_sane_over_space(seed in 0u64..100_000, extended in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = if extended { MicroArchSpace::extended() } else { MicroArchSpace::base() };
        let cfg = space.sample(&mut rng);
        let l = latencies(&cfg);
        prop_assert!((3..=8).contains(&l.dl1_load_use), "load-use {}", l.dl1_load_use);
        prop_assert!((1..=4).contains(&l.il1_access));
        prop_assert!(l.mem_penalty >= 14 && l.mem_penalty <= 42, "mem {}", l.mem_penalty);
        prop_assert!(l.mispredict > l.il1_access);
    }

    /// Expected misses are bounded by accesses and monotone in cache size,
    /// for arbitrary access streams.
    #[test]
    fn histogram_misses_bounded_and_monotone(seed in 0u64..100_000, n in 50usize..800) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sd = StackDistance::default();
        let mut h = ReuseHistogram::new();
        let universe = rng.gen_range(4u64..512);
        for _ in 0..n {
            let block = rng.gen_range(0..universe);
            h.record(sd.access(block));
        }
        prop_assert_eq!(h.accesses(), n as u64);
        let mut prev = f64::INFINITY;
        for sets_pow in [2u32, 4, 6, 8, 10] {
            let m = h.expected_misses(1 << sets_pow, 4);
            prop_assert!(m >= 0.0 && m <= n as f64 + 1e-9);
            prop_assert!(m <= prev + 1e-9, "not monotone in sets");
            prev = m;
        }
        // Cold misses alone lower-bound every geometry.
        prop_assert!(prev + 1e-9 >= h.cold as f64 * miss_probability_floor());
    }

    /// Stack distances never exceed the number of distinct blocks seen.
    #[test]
    fn stack_distance_bounded(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sd = StackDistance::default();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let b = rng.gen_range(0u64..64);
            let d = sd.access(b);
            if let Some(d) = d {
                prop_assert!((d as usize) < seen.len(), "distance {} vs {} distinct", d, seen.len());
            } else {
                prop_assert!(!seen.contains(&b));
            }
            seen.insert(b);
        }
    }

    /// The descriptor vector is finite and order-preserving in each field.
    #[test]
    fn descriptors_finite(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = MicroArchSpace::extended().sample(&mut rng);
        for v in cfg.descriptors() {
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        let mut bigger = cfg;
        bigger.il1_size = 131072;
        prop_assert!(bigger.descriptors()[0] >= cfg.descriptors()[0]);
    }
}

/// Cold misses always miss (probability floor = 1 for the cold part).
fn miss_probability_floor() -> f64 {
    1.0
}

#[test]
fn xscale_is_in_the_base_space() {
    let x = MicroArch::xscale();
    assert!(SIZES.contains(&x.il1_size));
    assert!(ASSOCS.contains(&x.il1_assoc));
    assert!(BLOCKS.contains(&x.il1_block));
}
