//! A fast exact LRU stack-distance tracker over a dense line index space.
//!
//! The stack distance of an access is the number of distinct other lines
//! touched since the previous access to the same line (`None` on a first
//! touch). The tracker keeps every touched line in recency order, split in
//! two tiers:
//!
//! * **Recency buffer.** A move-to-front array holds the `K` most recently
//!   touched distinct lines, most recent first. A hit at position `j` has
//!   distance `j` and needs no tree work. Most reuse in the profiled streams
//!   is this short.
//! * **Deep lines.** Every older line holds a mark at its timestamp in a
//!   Fenwick tree, and `last[line]` is that timestamp. The line the buffer
//!   evicts takes the next timestamp, so timestamps order the deep lines by
//!   recency, and every buffered line is more recent than all of them. A
//!   deep line's distance is the whole buffer plus the marks after its own:
//!   one prefix query. A line neither buffered nor marked (`last == 0`) has
//!   never been touched.
//!
//! **Compaction.** When timestamps reach the end of the tree, the live deep
//! lines are renumbered `1..=n` in order and the tree is rebuilt in O(tree
//! length). The tree doubles only when the live lines would fill more than
//! half of it, so the tree and the timestamps stay within a small multiple
//! of the distinct-line count however long the run is.
//!
//! The profiler runs nine of these (four block sizes for each of the data
//! and instruction streams, plus the branch-PC stream), so constant factors
//! matter.

/// Length of the recency buffer. At most 32: a `u32` mask holds one bit
/// per slot.
const K: usize = 32;
const _: () = assert!(K <= 32);

/// Fenwick tree length of a fresh tracker (slot 0 is unused).
const INITIAL_TREE: usize = 4096;

/// An empty recency-buffer slot. No line index reaches it.
const EMPTY: u32 = u32::MAX;

/// Flat-array stack-distance tracker.
#[derive(Debug, Clone)]
pub struct FlatStackDistance {
    /// The `buffered` most recent distinct lines, most recent first; the
    /// rest of the slots are `EMPTY`.
    recent: [u32; K],
    buffered: usize,
    /// `last[line]`: the timestamp of the line's mark; 0 while the line is
    /// buffered or untouched.
    last: Vec<u32>,
    /// `owner[t]`: the line stamped `t` (stale once that line moved on).
    owner: Vec<u32>,
    /// Fenwick tree over timestamps: 1 at every deep line's timestamp.
    tree: Vec<u32>,
    /// The latest timestamp handed out.
    time: u32,
    /// Number of deep lines, i.e. of marks in the tree.
    deep: u32,
}

impl FlatStackDistance {
    /// Creates a tracker for line indices `< capacity`.
    ///
    /// # Panics
    /// Panics if `capacity` does not fit a `u32` index.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < EMPTY as usize,
            "stack-distance capacity {capacity} too large"
        );
        FlatStackDistance {
            recent: [EMPTY; K],
            buffered: 0,
            last: vec![0; capacity],
            owner: vec![0; INITIAL_TREE],
            tree: vec![0; INITIAL_TREE],
            time: 0,
            deep: 0,
        }
    }

    /// Records an access to `line`; returns the stack distance, `None` on
    /// first touch.
    ///
    /// # Panics
    /// Panics if `line` is outside the capacity given at construction.
    #[inline]
    pub fn access(&mut self, line: usize) -> Option<u64> {
        assert!(line < self.last.len(), "line {line} out of range");
        let key = line as u32;
        if self.recent[0] == key {
            return Some(0);
        }
        // One compare per slot, folded into a mask: no early exit, so the
        // loop vectorises. Buffered lines are distinct, so at most one bit
        // is set.
        let mut hit = 0u32;
        for (j, &r) in self.recent.iter().enumerate() {
            hit |= u32::from(r == key) << j;
        }
        if hit != 0 {
            let j = hit.trailing_zeros() as usize;
            self.recent.copy_within(0..j, 1);
            self.recent[0] = key;
            return Some(j as u64);
        }
        let prev = self.last[line];
        let dist = if prev == 0 {
            None
        } else {
            // Lines only go deep from a full buffer, so all K are more
            // recent, and so are the marks after `prev`.
            let after = self.deep - self.prefix(prev);
            self.unmark(prev);
            self.last[line] = 0;
            Some((K as u32 + after) as u64)
        };
        if self.buffered == K {
            self.stamp(self.recent[K - 1]);
        } else {
            self.buffered += 1;
        }
        self.recent.copy_within(0..K - 1, 1);
        self.recent[0] = key;
        dist
    }

    /// Marks `line`, just evicted from the buffer, with the next timestamp.
    fn stamp(&mut self, line: u32) {
        if self.time as usize + 1 >= self.tree.len() {
            self.compact();
        }
        self.time += 1;
        let t = self.time;
        self.last[line as usize] = t;
        self.owner[t as usize] = line;
        self.deep += 1;
        let n = self.tree.len() as u32;
        let mut i = t;
        while i < n {
            self.tree[i as usize] += 1;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn unmark(&mut self, mut i: u32) {
        self.deep -= 1;
        let n = self.tree.len() as u32;
        while i < n {
            self.tree[i as usize] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn prefix(&self, mut i: u32) -> u32 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i as usize];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Renumbers the live deep lines `1..=deep` in recency order and
    /// rebuilds the tree, doubling it if they would fill more than half.
    fn compact(&mut self) {
        let mut n = 0u32;
        for t in 1..=self.time {
            let line = self.owner[t as usize];
            // Writes go to `owner[n]` with `n <= t`, behind the reads.
            if self.last[line as usize] == t {
                n += 1;
                self.owner[n as usize] = line;
                self.last[line as usize] = n;
            }
        }
        debug_assert_eq!(n, self.deep);
        let mut len = self.tree.len();
        while 2 * (n as usize + 1) > len {
            len *= 2;
        }
        self.owner.resize(len, 0);
        self.tree.resize(len, 0);
        // The marks are exactly slots 1..=n, and node `i` sums the slots
        // (i - lowbit(i), i].
        for (i, node) in self.tree.iter_mut().enumerate().skip(1) {
            let low = i - (i & i.wrapping_neg());
            *node = (i.min(n as usize).saturating_sub(low)) as u32;
        }
        self.time = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, spelled out: an LRU stack where a line's distance
    /// is its position.
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

    #[test]
    fn matches_reference_implementation() {
        let mut flat = FlatStackDistance::new(256);
        let mut oracle = Oracle::default();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let b = rng.gen_range(0usize..256);
            assert_eq!(flat.access(b), oracle.access(b));
        }
    }

    #[test]
    fn stack_distance_classic_sequence() {
        let mut sd = FlatStackDistance::new(8);
        assert_eq!(sd.access(1), None);
        assert_eq!(sd.access(2), None);
        assert_eq!(sd.access(3), None);
        assert_eq!(sd.access(1), Some(2)); // 2 distinct (2,3) in between
        assert_eq!(sd.access(1), Some(0)); // immediate re-access
        assert_eq!(sd.access(2), Some(2)); // 3,1 in between
    }

    #[test]
    fn sequential_then_repeat() {
        let mut sd = FlatStackDistance::new(1024);
        for i in 0..1024 {
            assert_eq!(sd.access(i), None);
        }
        assert_eq!(sd.access(0), Some(1023));
        assert_eq!(sd.access(0), Some(0));
    }

    #[test]
    fn stack_distance_survives_resize() {
        // More distinct lines than the initial tree has slots.
        let mut sd = FlatStackDistance::new(5000);
        for i in 0..5000 {
            assert_eq!(sd.access(i), None);
        }
        assert_eq!(sd.access(0), Some(4999));
        assert!(sd.tree.len() > INITIAL_TREE);
    }

    #[test]
    fn growth_preserves_distances() {
        // More lines than the buffer holds, so every repeat goes through
        // the tree, and far more accesses than its initial length: many
        // compactions.
        let lines = K + 8;
        let mut sd = FlatStackDistance::new(lines);
        for round in 0..10_000u64 {
            for b in 0..lines {
                let d = sd.access(b);
                if round > 0 {
                    assert_eq!(d, Some(lines as u64 - 1), "round {round} block {b}");
                }
            }
        }
    }

    #[test]
    fn time_and_tree_stay_bounded_by_distinct_lines() {
        // 10M accesses over a few hundred, then a few thousand, lines:
        // without compaction the timestamps would grow with the access
        // count and wrap a `u32` in a long enough run.
        for distinct in [300, 5_000] {
            let mut sd = FlatStackDistance::new(distinct);
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..10_000_000 {
                sd.access(rng.gen_range(0..distinct));
            }
            let bound = INITIAL_TREE.max(4 * distinct);
            assert!(
                sd.tree.len() <= bound,
                "tree {} lines {distinct}",
                sd.tree.len()
            );
            assert!((sd.time as usize) < sd.tree.len());
            assert_eq!(sd.deep as usize, distinct - K);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_past_capacity_panics() {
        FlatStackDistance::new(16).access(16);
    }
}
