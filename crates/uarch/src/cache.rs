//! Set-associative cache miss estimation from reuse-distance histograms.
//!
//! The profiling interpreter records, for each access, the *stack distance*
//! — the number of distinct blocks touched since the previous access to the
//! same block. For a fully-associative LRU cache an access misses exactly
//! when its distance is at least the capacity. For a set-associative cache
//! we use the standard probabilistic model (Agarwal/Hill lineage): the `D`
//! intervening blocks scatter uniformly over `S` sets, so the access misses
//! with probability `P[Binomial(D, 1/S) >= A]`, evaluated via a Poisson
//! approximation for large `D`.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Number of quarter-log2 buckets (covers distances up to ~2^30).
const BUCKETS: usize = 124;

/// A reuse-distance histogram in quarter-log2 buckets, plus cold misses.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    counts: Vec<u64>,
    /// First-touch accesses (infinite distance — always miss).
    pub cold: u64,
    /// Total recorded accesses.
    pub total: u64,
}

fn bucket_of(d: u64) -> usize {
    if d < 16 {
        return d as usize;
    }
    // Bucket 4k starts at 2^k, so the octave narrows `d` to four buckets.
    let starts = bucket_starts();
    let mut b = (4 * d.ilog2() as usize).min(BUCKETS - 1);
    while b + 1 < BUCKETS && d >= starts[b + 1] {
        b += 1;
    }
    b
}

/// The least distance in every bucket, found once by bisecting
/// [`bucket_by_log`], so that [`bucket_of`] agrees with it bit for bit
/// without taking a logarithm per access.
fn bucket_starts() -> &'static [u64; BUCKETS] {
    static STARTS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    STARTS.get_or_init(|| {
        let mut starts = [0; BUCKETS];
        for (b, start) in starts.iter_mut().enumerate() {
            let (mut lo, mut hi) = (0u64, 1 << 40);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if bucket_by_log(mid) >= b {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *start = lo;
        }
        starts
    })
}

/// The bucket definition.
fn bucket_by_log(d: u64) -> usize {
    // Exact buckets for small distances, quarter-log2 beyond 16.
    if d < 16 {
        d as usize
    } else {
        let l = (d as f64).log2();
        (16 + ((l - 4.0) * 4.0) as usize).min(BUCKETS - 1)
    }
}

fn representative(bucket: usize) -> f64 {
    if bucket < 16 {
        bucket as f64
    } else {
        let l = 4.0 + (bucket - 16) as f64 / 4.0 + 0.125;
        l.exp2()
    }
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ReuseHistogram {
            counts: vec![0; BUCKETS],
            cold: 0,
            total: 0,
        }
    }

    /// Records one access; `dist` is `None` for a first touch.
    #[inline]
    pub fn record(&mut self, dist: Option<u64>) {
        self.total += 1;
        match dist {
            None => self.cold += 1,
            Some(d) => self.counts[bucket_of(d)] += 1,
        }
    }

    /// Records `n` accesses at the same distance: the same histogram as
    /// `n` calls to [`record`](Self::record).
    #[inline]
    pub fn record_n(&mut self, dist: Option<u64>, n: u64) {
        self.total += n;
        match dist {
            None => self.cold += n,
            Some(d) => self.counts[bucket_of(d)] += n,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.cold += other.cold;
        self.total += other.total;
    }

    /// Expected misses in a cache with `sets` sets and `assoc` ways.
    pub fn expected_misses(&self, sets: u32, assoc: u32) -> f64 {
        let mut misses = self.cold as f64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            misses += c as f64 * miss_probability(representative(b), sets, assoc);
        }
        misses
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.total
    }
}

/// `P[miss | D distinct intervening blocks]` for an `S`-set, `A`-way LRU
/// cache under the uniform-scatter model.
pub fn miss_probability(d: f64, sets: u32, assoc: u32) -> f64 {
    let a = assoc as f64;
    if d < a {
        // Fewer distinct blocks than ways: they fit even in one set.
        return 0.0;
    }
    if sets == 1 {
        // Fully associative: deterministic LRU.
        return if d >= a { 1.0 } else { 0.0 };
    }
    // Poisson approximation of Binomial(D, 1/S): P[X >= A].
    let lambda = d / sets as f64;
    let mut term = (-lambda).exp(); // k = 0
    let mut cdf = term;
    for k in 1..assoc {
        term *= lambda / k as f64;
        cdf += term;
        if term < 1e-18 && k as f64 > lambda {
            break;
        }
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_agrees_with_the_log_formula() {
        for d in 0..1 << 20 {
            assert_eq!(bucket_of(d), bucket_by_log(d), "distance {d}");
        }
        for &start in bucket_starts() {
            for d in [start.saturating_sub(1), start, start + 1] {
                assert_eq!(bucket_of(d), bucket_by_log(d), "distance {d}");
            }
        }
        let mut d = 1u64 << 20;
        while d < 1 << 62 {
            assert_eq!(bucket_of(d), bucket_by_log(d), "distance {d}");
            d += d / 1000 + 1;
        }
    }

    #[test]
    fn miss_probability_edges() {
        // Distance below associativity: guaranteed hit.
        assert_eq!(miss_probability(3.0, 64, 4), 0.0);
        // Fully associative (sets=1): hard threshold.
        assert_eq!(miss_probability(63.0, 1, 64), 0.0);
        assert_eq!(miss_probability(64.0, 1, 64), 1.0);
        // Monotone in distance.
        let p1 = miss_probability(100.0, 64, 4);
        let p2 = miss_probability(1000.0, 64, 4);
        assert!(p2 > p1);
        // Monotone in sets and assoc (bigger cache, fewer misses).
        assert!(miss_probability(500.0, 128, 4) < miss_probability(500.0, 64, 4));
        assert!(miss_probability(500.0, 64, 8) < miss_probability(500.0, 64, 4));
    }

    #[test]
    fn histogram_cold_and_capacity_behaviour() {
        let mut h = ReuseHistogram::new();
        // 100 first touches, then 1000 short-distance + 1000 long-distance.
        for _ in 0..100 {
            h.record(None);
        }
        for _ in 0..1000 {
            h.record(Some(2));
        }
        for _ in 0..1000 {
            h.record(Some(100_000));
        }
        assert_eq!(h.accesses(), 2100);
        // A very big cache keeps everything but cold misses (the
        // probabilistic model leaves a small residual near capacity).
        let big = h.expected_misses(16384, 32);
        assert!((big - 100.0).abs() < 30.0, "big cache ~cold only: {big}");
        // Near capacity the model tapers rather than cliffs.
        let nearcap = h.expected_misses(4096, 32);
        assert!(nearcap > big && nearcap < 400.0, "taper: {nearcap}");
        // A tiny cache also misses the long-distance accesses.
        let small = h.expected_misses(16, 4);
        assert!(small > 1000.0, "small cache thrashes: {small}");
        // Monotonicity across the menu.
        let mut prev = f64::MAX;
        for sets in [16u32, 64, 256, 1024] {
            let m = h.expected_misses(sets, 4);
            assert!(m <= prev);
            prev = m;
        }
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = ReuseHistogram::new();
        let mut b = ReuseHistogram::new();
        a.record(Some(5));
        a.record(None);
        b.record(Some(5));
        b.record(Some(500));
        a.merge(&b);
        assert_eq!(a.accesses(), 4);
        assert_eq!(a.cold, 1);
    }

    #[test]
    fn record_n_equals_n_records() {
        // A first touch, exact small buckets, and log buckets from their
        // first distance up to the last, catch-all one.
        let dists = [None, Some(0), Some(1), Some(7), Some(15)]
            .into_iter()
            .chain([16, 17, 19, 100, 1 << 20, 1 << 31, u64::MAX].map(Some));
        for dist in dists {
            for n in [0, 1, 3, 64] {
                let mut batched = ReuseHistogram::new();
                batched.record(Some(2));
                batched.record_n(dist, n);
                let mut single = ReuseHistogram::new();
                single.record(Some(2));
                for _ in 0..n {
                    single.record(dist);
                }
                assert_eq!(batched, single, "dist {dist:?} n {n}");
            }
        }
    }

    #[test]
    fn bucket_representatives_are_close() {
        for d in [0u64, 1, 5, 15, 16, 100, 1000, 1_000_000] {
            let r = representative(bucket_of(d));
            if d < 16 {
                assert_eq!(r, d as f64);
            } else {
                // Quarter-log buckets: representative within ~20%.
                let ratio = r / d as f64;
                assert!(ratio > 0.75 && ratio < 1.35, "d={d} rep={r}");
            }
        }
    }
}
