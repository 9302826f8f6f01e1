//! A fast exact LRU stack-distance tracker over a dense line index space.
//!
//! The stack distance of an access is the number of distinct other lines
//! touched since the previous access to the same line (`None` on a first
//! touch). The tracker keeps every touched line in recency order, split in
//! two tiers:
//!
//! * **Recency buffer.** A move-to-front array holds the `K = 32` most
//!   recently touched distinct lines, most recent first. A hit at position
//!   `j` has distance `j` and needs no tree work. Most reuse in the
//!   profiled streams is this short. One early-exit pass from the front,
//!   where the hits cluster, both finds the line and shifts the slots
//!   ahead of it back by one. Profiling the benchmark suite's 35 programs
//!   at 8 settings on one thread of a 2-core Xeon host took 3.85 s this
//!   way, 5.01 s with an early-exit search followed by a `copy_within`
//!   shift, and 5.76 s with a branch-free compare of all 32 slots folded
//!   into a bit mask (medians of 4 alternating runs). With this pass, 16
//!   slots measured slower than 32 (3.76 s against 3.65 s) and 64 faster
//!   in 3 rounds of 4 (3.26 s), both within the run-to-run spread, so `K`
//!   stays 32.
//! * **Deep lines.** Every older line holds a mark at its timestamp in a
//!   Fenwick tree, and `last[line]` is that timestamp. The line the buffer
//!   evicts takes the next timestamp, so timestamps order the deep lines by
//!   recency, and every buffered line is more recent than all of them. A
//!   deep line's distance is the whole buffer plus the marks after its own:
//!   one prefix query. A line neither buffered nor marked (`last == 0`) has
//!   never been touched.
//!
//! **The `last` table** spans every line index below the capacity, which
//! for the data stream is the whole 8 MB address space, while a run
//! touches a few thousand lines. It is a [`PagedTable`]: a page is
//! allocated on the first mark written into it, so a tracker's footprint
//! follows the lines the run touches, not its capacity.
//!
//! **Compaction.** When timestamps reach the end of the tree, the live deep
//! lines are renumbered `1..=n` in order and the tree is rebuilt in O(tree
//! length). The tree doubles only when the live lines would fill more than
//! half of it, so the tree and the timestamps stay within a small multiple
//! of the distinct-line count however long the run is.
//!
//! **Weighted entries.** A `FlatStackDistance<true>` (built by
//! [`FlatStackDistance::weighted`]) also takes
//! [`access_weighted`](FlatStackDistance::access_weighted): one entry that
//! stands for `w` lines always touched together. Every distance is then a
//! sum of weights: a buffer hit at position `j` is the weight of slots
//! `0..j`, a mark carries its entry's weight, and the deep and buffered
//! totals are weight sums. Compaction rebuilds the tree from the
//! per-timestamp weights (a unit tracker's are all 1). The returned
//! distance counts the lines of the *other* entries; the caller adds the
//! entry's own `w - 1`. Unit-weight trackers (`FlatStackDistance<false>`,
//! the default, built by [`FlatStackDistance::new`]) store no weights and
//! pay nothing for them.
//!
//! The profiler runs nine of these (four block sizes for each of the data
//! and instruction streams, plus the branch-PC stream), so constant factors
//! matter. Only the four instruction-stream trackers are weighted.

use portopt_ir::PagedTable;

/// Length of the recency buffer.
const K: usize = 32;

/// Fenwick tree length of a fresh tracker (slot 0 is unused).
const INITIAL_TREE: usize = 4096;

/// An empty recency-buffer slot. No line index reaches it.
const EMPTY: u32 = u32::MAX;

/// Flat-array stack-distance tracker; `W` enables weighted entries.
#[derive(Debug, Clone)]
pub struct FlatStackDistance<const W: bool = false> {
    /// The most recent distinct lines, most recent first; the rest of the
    /// slots are `EMPTY`.
    recent: [u32; K],
    /// With `W`, the weight of each `recent` slot; unused otherwise.
    recent_weight: [u32; K],
    /// With `W`, the total weight of the buffered lines; unused otherwise
    /// (a deep hit always sees a full buffer of `K` unit lines).
    buffered_weight: u32,
    /// `last[line]`: the timestamp of the line's mark; 0 while the line is
    /// buffered or untouched.
    last: PagedTable<u32>,
    /// `owner[t]`: the line stamped `t` (stale once that line moved on).
    owner: Vec<u32>,
    /// With `W`, `weight[t]`: the weight of the mark stamped `t`; empty
    /// otherwise (every mark is 1).
    weight: Vec<u32>,
    /// Fenwick tree over timestamps: each deep line's weight at its
    /// timestamp.
    tree: Vec<u32>,
    /// The latest timestamp handed out.
    time: u32,
    /// Total weight of the deep lines, i.e. of the marks in the tree.
    deep: u32,
}

impl FlatStackDistance {
    /// Creates a unit-weight tracker for line indices `< capacity`.
    ///
    /// # Panics
    /// Panics if `capacity` does not fit a `u32` index.
    pub fn new(capacity: usize) -> Self {
        Self::empty(capacity)
    }
}

impl FlatStackDistance<true> {
    /// Creates a tracker for line indices `< capacity` that also takes
    /// weighted entries.
    ///
    /// # Panics
    /// Panics if `capacity` does not fit a `u32` index.
    pub fn weighted(capacity: usize) -> Self {
        Self::empty(capacity)
    }

    /// Records an access to `key`, an entry standing for `weight` lines
    /// always touched together. Returns the summed weight of the other
    /// entries touched since `key`'s previous access, `None` on first
    /// touch. A key must keep its weight for the tracker's lifetime.
    ///
    /// # Panics
    /// Panics if `key` is outside the capacity given at construction.
    #[inline]
    pub fn access_weighted(&mut self, key: usize, weight: u32) -> Option<u64> {
        debug_assert!(weight > 0, "zero-weight entry");
        self.touch(key, weight)
    }
}

impl<const W: bool> FlatStackDistance<W> {
    fn empty(capacity: usize) -> Self {
        assert!(
            capacity < EMPTY as usize,
            "stack-distance capacity {capacity} too large"
        );
        FlatStackDistance {
            recent: [EMPTY; K],
            recent_weight: [0; K],
            buffered_weight: 0,
            last: PagedTable::new(capacity),
            owner: vec![0; INITIAL_TREE],
            weight: if W { vec![0; INITIAL_TREE] } else { Vec::new() },
            tree: vec![0; INITIAL_TREE],
            time: 0,
            deep: 0,
        }
    }

    /// Records an access to `line`; returns the stack distance, `None` on
    /// first touch. In a weighted tracker `line` is a unit entry.
    ///
    /// # Panics
    /// Panics if `line` is outside the capacity given at construction.
    #[inline]
    pub fn access(&mut self, line: usize) -> Option<u64> {
        self.touch(line, 1)
    }

    /// The one access path; `w` is ignored without `W`.
    #[inline]
    fn touch(&mut self, line: usize, w: u32) -> Option<u64> {
        assert!(line < self.last.len(), "line {line} out of range");
        let key = line as u32;
        // One pass from the front shifts each slot back by one until the
        // line turns up: a hit has then moved it to the front, with
        // `before` the weight of the slots ahead of it (their count without
        // `W`), and a miss has shifted the whole buffer and holds the
        // evicted slot (or `EMPTY`) in `carry`.
        let (mut carry, mut carry_w, mut before) = (key, w, 0u32);
        for j in 0..K {
            let r = std::mem::replace(&mut self.recent[j], carry);
            let rw = if W {
                std::mem::replace(&mut self.recent_weight[j], carry_w)
            } else {
                1
            };
            if r == key {
                return Some(u64::from(before));
            }
            before += rw;
            (carry, carry_w) = (r, rw);
        }
        let prev = self.last.get(line);
        let dist = if prev == 0 {
            None
        } else {
            // Lines only go deep from a full buffer, so all K are more
            // recent, and so are the marks after `prev`.
            let after = self.deep - self.prefix(prev);
            self.unmark(prev);
            self.last.set(line, 0);
            let buffered = if W { self.buffered_weight } else { K as u32 };
            Some((buffered + after) as u64)
        };
        if W {
            self.buffered_weight += w;
        }
        if carry != EMPTY {
            self.stamp(carry, carry_w);
            if W {
                self.buffered_weight -= carry_w;
            }
        }
        dist
    }

    /// Marks `line` of weight `w` (1 without `W`), just evicted from the
    /// buffer, with the next timestamp.
    fn stamp(&mut self, line: u32, w: u32) {
        if self.time as usize + 1 >= self.tree.len() {
            self.compact();
        }
        self.time += 1;
        let t = self.time;
        self.last.set(line as usize, t);
        self.owner[t as usize] = line;
        let w = if W {
            self.weight[t as usize] = w;
            w
        } else {
            1
        };
        self.deep += w;
        let n = self.tree.len() as u32;
        let mut i = t;
        while i < n {
            self.tree[i as usize] += w;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn unmark(&mut self, mut i: u32) {
        let w = if W { self.weight[i as usize] } else { 1 };
        self.deep -= w;
        let n = self.tree.len() as u32;
        while i < n {
            self.tree[i as usize] -= w;
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

    /// Renumbers the live deep lines `1..=n` in recency order and
    /// rebuilds the tree, doubling it if they would fill more than half.
    fn compact(&mut self) {
        let mut n = 0u32;
        for t in 1..=self.time {
            let line = self.owner[t as usize];
            // Writes go to slot `n <= t`, behind the reads.
            if self.last.get(line as usize) == t {
                n += 1;
                self.owner[n as usize] = line;
                self.last.set(line as usize, n);
                if W {
                    self.weight[n as usize] = self.weight[t as usize];
                }
            }
        }
        let mut len = self.tree.len();
        while 2 * (n as usize + 1) > len {
            len *= 2;
        }
        self.owner.resize(len, 0);
        self.tree.resize(len, 0);
        if W {
            self.weight.resize(len, 0);
        }
        // The marks are exactly slots 1..=n. Seed each node with its own
        // slot, then push every node into its parent, so that node `i`
        // sums the slots (i - lowbit(i), i].
        for (i, node) in self.tree.iter_mut().enumerate() {
            *node = match i {
                0 => 0,
                _ if i > n as usize => 0,
                _ if W => self.weight[i],
                _ => 1,
            };
        }
        for i in 1..len {
            let parent = i + (i & i.wrapping_neg());
            if parent < len {
                self.tree[parent] += self.tree[i];
            }
        }
        debug_assert_eq!(self.prefix(n), self.deep);
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
    fn weighted_cycle_distances_survive_compaction() {
        // A cycle over more entries than the buffer holds, with weights:
        // each repeat is the summed weight of the other entries, through
        // the buffer edge, the tree and many compactions.
        let lines = K + 8;
        let weight = |b: usize| (b % 5) as u32 * 7 + 1;
        let others = |b: usize| (0..lines).filter(|&o| o != b).map(weight).sum::<u32>();
        let mut sd = FlatStackDistance::weighted(lines);
        for round in 0..10_000u64 {
            for b in 0..lines {
                let d = sd.access_weighted(b, weight(b));
                let want = (round > 0).then(|| u64::from(others(b)));
                assert_eq!(d, want, "round {round} entry {b}");
            }
        }
        assert!(sd.tree.len() <= INITIAL_TREE);
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
    fn only_marked_lines_allocate_last_pages() {
        // The data stream's 8-byte lines over the whole address space, and
        // lines a page of `last` apart: only the three lines pushed out of
        // the buffer write a mark, each into a page of its own.
        let mut sd = FlatStackDistance::new((portopt_ir::Module::STACK_BASE / 8) as usize);
        for i in 0..K + 3 {
            assert_eq!(sd.access(i * portopt_ir::paged::PAGE), None);
        }
        assert_eq!(sd.last.pages_touched(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_past_capacity_panics() {
        FlatStackDistance::new(16).access(16);
    }
}
