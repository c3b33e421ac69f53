//! A compact set of `u64` values stored as merged inclusive ranges — the
//! shape both ACK generation (received packet numbers) and stream-data
//! bookkeeping (acknowledged byte spans) need. Insertion merges adjacent and
//! overlapping ranges, so membership and coverage queries stay `O(log n)` in
//! the number of *gaps*, not elements.

/// Merged, ascending inclusive ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// Ascending, non-overlapping, non-adjacent `(start, end)` inclusive.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Inserts one value.
    pub fn insert(&mut self, v: u64) {
        self.insert_range(v, v);
    }

    /// Inserts the inclusive range `start..=end`, merging as needed.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        debug_assert!(start <= end);
        // Find the first range that could touch `start` (its end + 1 >= start).
        let i = self
            .ranges
            .partition_point(|&(_, e)| e.saturating_add(1) < start);
        let mut new_start = start;
        let mut new_end = end;
        let mut j = i;
        while j < self.ranges.len() && self.ranges[j].0 <= end.saturating_add(1) {
            new_start = new_start.min(self.ranges[j].0);
            new_end = new_end.max(self.ranges[j].1);
            j += 1;
        }
        self.ranges
            .splice(i..j, std::iter::once((new_start, new_end)));
    }

    /// True when `v` is in the set.
    pub fn contains(&self, v: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, e)| e < v);
        i < self.ranges.len() && self.ranges[i].0 <= v
    }

    /// True when the whole inclusive range `start..=end` is covered.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        i < self.ranges.len() && self.ranges[i].0 <= start && end <= self.ranges[i].1
    }

    /// The maximal sub-ranges of `start..=end` that are *not* in the set,
    /// ascending and inclusive (nothing when `start > end`). Costs one
    /// binary search plus the ranges that intersect the span — what a
    /// retransmission queue needs to skip the acknowledged part of a lost
    /// span without testing it byte by byte.
    pub fn gaps(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        let mut rest = self.ranges[i..].iter();
        // First value not yet known to be covered; `None` once the walk is
        // past `end` (or past `u64::MAX`).
        let mut cursor = Some(start);
        std::iter::from_fn(move || loop {
            let from = cursor.filter(|&c| c <= end)?;
            match rest.next() {
                Some(&(a, b)) if a <= end => {
                    cursor = b.checked_add(1);
                    if a > from {
                        return Some((from, a - 1));
                    }
                }
                _ => {
                    cursor = None;
                    return Some((from, end));
                }
            }
        })
    }

    /// How many values of `start..=end` are in the set (saturating at
    /// `u64::MAX` for the one span that holds 2⁶⁴ of them). Same cost as
    /// [`RangeSet::gaps`].
    pub fn covered_len(&self, start: u64, end: u64) -> u64 {
        if start > end {
            return 0;
        }
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        self.ranges[i..]
            .iter()
            .take_while(|&&(a, _)| a <= end)
            .map(|&(a, b)| (b.min(end) - a.max(start)).saturating_add(1))
            .fold(0, u64::saturating_add)
    }

    /// Largest element, if any.
    pub fn largest(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// Ranges ascending (smallest first), inclusive.
    pub fn iter_asc(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Ranges descending (largest first), inclusive — ACK frame wire order.
    pub fn iter_desc(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().rev().copied()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Drops the smallest ranges until at most `max` remain (real stacks cap
    /// ACK frame size the same way; old ranges are implicitly renounced).
    pub fn truncate_smallest(&mut self, max: usize) {
        if self.ranges.len() > max {
            let drop = self.ranges.len() - max;
            self.ranges.drain(..drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `gaps` one `contains` per element — what `requeue_lost_chunks` used
    /// to do per byte.
    fn gaps_by_element(s: &RangeSet, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for v in start..=end {
            if s.contains(v) {
                continue;
            }
            match out.last_mut() {
                Some((_, hi)) if *hi + 1 == v => *hi = v,
                _ => out.push((v, v)),
            }
        }
        out
    }

    #[test]
    fn gaps_and_covered_len_on_named_shapes() {
        let empty = RangeSet::new();
        assert_eq!(empty.gaps(3, 9).collect::<Vec<_>>(), vec![(3, 9)]);
        assert_eq!(empty.covered_len(3, 9), 0);
        assert_eq!(empty.gaps(9, 3).count(), 0, "start > end is an empty span");
        assert_eq!(empty.covered_len(9, 3), 0);

        let mut s = RangeSet::new();
        s.insert_range(10, 19);
        s.insert_range(30, 39);
        s.insert_range(u64::MAX - 4, u64::MAX);
        // Inside one range.
        assert_eq!(s.gaps(12, 15).count(), 0);
        assert_eq!(s.covered_len(12, 15), 4);
        assert_eq!(s.covered_len(15, 12), 0);
        // Across several, starting and ending in gaps.
        assert_eq!(
            s.gaps(5, 45).collect::<Vec<_>>(),
            vec![(5, 9), (20, 29), (40, 45)]
        );
        assert_eq!(s.covered_len(5, 45), 20);
        // Starting and ending inside ranges.
        assert_eq!(s.gaps(15, 35).collect::<Vec<_>>(), vec![(20, 29)]);
        assert_eq!(s.covered_len(15, 35), 11);
        // Touching the top of the domain.
        assert_eq!(
            s.gaps(u64::MAX - 9, u64::MAX).collect::<Vec<_>>(),
            vec![(u64::MAX - 9, u64::MAX - 5)]
        );
        assert_eq!(s.covered_len(u64::MAX - 9, u64::MAX), 5);
        assert_eq!(s.gaps(u64::MAX, u64::MAX).count(), 0);
        assert_eq!(
            empty.gaps(u64::MAX, u64::MAX).collect::<Vec<_>>(),
            vec![(u64::MAX, u64::MAX)]
        );

        let mut all = RangeSet::new();
        all.insert_range(0, u64::MAX);
        assert_eq!(all.covered_len(0, u64::MAX), u64::MAX, "2^64 saturates");
        assert_eq!(all.gaps(0, u64::MAX).count(), 0);
    }

    proptest! {
        /// Random sets in a 256-value window at either end of the domain,
        /// random query spans: both primitives agree with one `contains`
        /// per element, and between them account for the whole span.
        #[test]
        fn gaps_and_covered_len_match_the_per_element_oracle(
            pieces in proptest::collection::vec((0u64..256, 0u64..40), 0..12),
            top in any::<bool>(),
            a in 0u64..256,
            b in 0u64..256,
        ) {
            let base = if top { u64::MAX - 255 } else { 0 };
            let mut s = RangeSet::new();
            for (from, len) in pieces {
                s.insert_range(base + from, base + (from + len).min(255));
            }
            let (start, end) = (base + a.min(b), base + a.max(b));
            let gaps: Vec<(u64, u64)> = s.gaps(start, end).collect();
            prop_assert_eq!(&gaps, &gaps_by_element(&s, start, end));
            let covered = (start..=end).filter(|&v| s.contains(v)).count() as u64;
            prop_assert_eq!(s.covered_len(start, end), covered);
            let uncovered: u64 = gaps.iter().map(|(lo, hi)| hi - lo + 1).sum();
            prop_assert_eq!(covered + uncovered, end - start + 1);
        }
    }

    #[test]
    fn inserts_merge_adjacent_and_overlapping() {
        let mut s = RangeSet::new();
        s.insert(5);
        s.insert(7);
        assert_eq!(s.len(), 2);
        s.insert(6); // bridges 5..=7
        assert_eq!(s.len(), 1);
        assert!(s.covers(5, 7));
        s.insert_range(0, 3);
        s.insert(4); // adjacent to both 0..=3 and 5..=7
        assert_eq!(s.len(), 1);
        assert!(s.covers(0, 7));
        assert!(!s.contains(8));
    }

    #[test]
    fn descending_iteration_is_ack_order() {
        let mut s = RangeSet::new();
        s.insert_range(10, 12);
        s.insert_range(0, 2);
        s.insert(5);
        let desc: Vec<_> = s.iter_desc().collect();
        assert_eq!(desc, vec![(10, 12), (5, 5), (0, 2)]);
    }

    #[test]
    fn covers_is_exact_on_gaps() {
        let mut s = RangeSet::new();
        s.insert_range(0, 9);
        s.insert_range(20, 29);
        assert!(s.covers(0, 9));
        assert!(!s.covers(5, 25));
        assert!(!s.covers(10, 19));
    }

    #[test]
    fn truncate_drops_smallest() {
        let mut s = RangeSet::new();
        for base in [0u64, 10, 20, 30] {
            s.insert_range(base, base + 2);
        }
        s.truncate_smallest(2);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(0) && s.contains(30));
    }
}
