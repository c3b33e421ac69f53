//! Streaming, constant-memory analysis accumulators.
//!
//! At paper scale the campaign buffers every observation and computes
//! aggregates at the end. At million-endpoint scale that buffer *is* the
//! memory bill, so the scale campaign folds observations into two mergeable
//! accumulators instead:
//!
//! * [`CountMap`] — a counter map whose rank CDF is **byte-identical** to
//!   [`crate::cdf::as_rank_cdf`] over the buffered item stream (it runs the
//!   same counting, the same descending size sort, the same cumulative sum).
//!   Merging is counter addition, so any partitioning of the item stream
//!   over workers, merged in any order, renders the same figure.
//! * [`LogSketch`] — a fixed-bucket (65 × power-of-two) histogram for
//!   latency-style magnitudes. Merging is element-wise addition; quantiles
//!   come back as the upper bound of the covering bucket, within a factor
//!   of two of the exact sample quantile by construction.
//!
//! Both are `O(distinct keys)` / `O(1)` in the number of observations; both
//! satisfy [`zmapq::SweepAccumulator`] so they can ride the scan engine's
//! sharded sweeps directly (merge happens in shard-index order, keeping
//! rendered output worker-count independent).

use std::collections::HashMap;
use std::hash::Hash;

use zmapq::SweepAccumulator;

/// Mergeable counter map: the streaming half of
/// [`crate::cdf::as_rank_cdf`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountMap<K: Eq + Hash> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash> CountMap<K> {
    /// An empty map.
    pub fn new() -> Self {
        CountMap {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Counts one item.
    pub fn absorb(&mut self, key: K) {
        *self.counts.entry(key).or_default() += 1;
        self.total += 1;
    }

    /// Folds another map in. Counter addition commutes and associates, so
    /// any merge tree over any partitioning of the item stream yields the
    /// same map.
    pub fn merge(&mut self, other: Self) {
        for (k, n) in other.counts {
            *self.counts.entry(k).or_default() += n;
        }
        self.total += other.total;
    }

    /// Total items counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Distinct keys seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of one key.
    pub fn count(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The rank CDF — the exact computation of
    /// [`crate::cdf::as_rank_cdf`], bit-for-bit: descending size sort, then
    /// a cumulative integer sum divided by the total. Equal counts produce
    /// equal floats regardless of how the stream was partitioned, so the
    /// rendered figure is worker-count independent.
    pub fn as_rank_cdf(&self) -> Vec<(usize, f64)> {
        let mut sizes: Vec<u64> = self.counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut cumulative = 0u64;
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                cumulative += n;
                (i + 1, cumulative as f64 / self.total as f64)
            })
            .collect()
    }

    /// Entries sorted by descending count, key ascending on ties — a
    /// deterministic table body.
    pub fn ranked(&self) -> Vec<(&K, u64)>
    where
        K: Ord,
    {
        let mut rows: Vec<(&K, u64)> = self.counts.iter().map(|(k, &n)| (k, n)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows
    }
}

impl<K: Eq + Hash + Send> SweepAccumulator for CountMap<K> {
    type Item = K;

    fn absorb(&mut self, item: K) {
        CountMap::absorb(self, item);
    }

    fn merge(&mut self, other: Self) {
        CountMap::merge(self, other);
    }
}

/// Number of buckets in a [`LogSketch`]: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const LOG_SKETCH_BUCKETS: usize = 65;

/// Fixed-size mergeable power-of-two histogram. Bucket 0 holds the value 0;
/// bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSketch {
    buckets: [u64; LOG_SKETCH_BUCKETS],
    total: u64,
}

impl Default for LogSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LogSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        LogSketch {
            buckets: [0; LOG_SKETCH_BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive representative) of bucket `b`.
    fn bucket_top(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one value.
    pub fn absorb(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Folds another sketch in (element-wise addition — commutative and
    /// associative, so merge order and stream partitioning are irrelevant).
    pub fn merge(&mut self, other: Self) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets) {
            *b += n;
        }
        self.total += other.total;
    }

    /// Values recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The quantile `q ∈ [0, 1]`: the upper bound of the first bucket whose
    /// cumulative count reaches `⌈q·total⌉`. For a non-zero exact sample
    /// quantile `x` this returns a value in `[x, 2x)` — the factor-two
    /// guarantee the proptests pin down.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let need = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= need {
                return Self::bucket_top(b);
            }
        }
        Self::bucket_top(LOG_SKETCH_BUCKETS - 1)
    }

    /// The CDF as `(bucket upper bound, cumulative share)` for every
    /// non-empty bucket — the figure-ready rendering. Shares are computed
    /// by integer cumulation then a single division each, so the points are
    /// bit-identical under any partitioning of the value stream.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut cumulative = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, &n)| {
                if n == 0 {
                    return None;
                }
                cumulative += n;
                Some((Self::bucket_top(b), cumulative as f64 / self.total as f64))
            })
            .collect()
    }
}

impl SweepAccumulator for LogSketch {
    type Item = u64;

    fn absorb(&mut self, item: u64) {
        LogSketch::absorb(self, item);
    }

    fn merge(&mut self, other: Self) {
        LogSketch::merge(self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf;
    use proptest::prelude::*;

    fn buffered_quantile(sorted: &[u64], q: f64) -> u64 {
        let need = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[need - 1]
    }

    /// Splits `items` into chunks at the given fractions and absorbs each
    /// chunk into its own accumulator — the shape of a sharded sweep.
    fn partition(items: &[u32], cuts: &[usize]) -> Vec<Vec<u32>> {
        let mut parts = Vec::new();
        let mut rest = items;
        for &c in cuts {
            let c = c.min(rest.len());
            let (head, tail) = rest.split_at(c);
            parts.push(head.to_vec());
            rest = tail;
        }
        parts.push(rest.to_vec());
        parts
    }

    proptest! {
        /// CountMap over any stream renders the exact buffered figure:
        /// the same `Vec<(usize, f64)>`, bit for bit.
        #[test]
        fn count_map_matches_buffered_cdf(items in proptest::collection::vec(0u32..40, 1..300)) {
            let mut m = CountMap::new();
            for &i in &items {
                m.absorb(i);
            }
            let buffered = cdf::as_rank_cdf(items.iter().copied());
            prop_assert_eq!(m.as_rank_cdf(), buffered);
        }

        /// Partitioning the stream arbitrarily and merging in any of several
        /// orders never changes the rendered CDF.
        #[test]
        fn count_map_merge_is_partition_invariant(
            items in proptest::collection::vec(0u32..25, 1..250),
            cuts in proptest::collection::vec(0usize..250, 0..6),
            reverse in proptest::any::<bool>(),
        ) {
            let reference = cdf::as_rank_cdf(items.iter().copied());
            let mut parts: Vec<CountMap<u32>> = partition(&items, &cuts)
                .into_iter()
                .map(|chunk| {
                    let mut m = CountMap::new();
                    for i in chunk {
                        m.absorb(i);
                    }
                    m
                })
                .collect();
            if reverse {
                parts.reverse();
            }
            let mut merged = CountMap::new();
            for p in parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged.total(), items.len() as u64);
            prop_assert_eq!(merged.as_rank_cdf(), reference);
        }

        /// Sketch quantiles stay within the factor-two bucket bound of the
        /// exact buffered quantile, at every probed q.
        #[test]
        fn sketch_quantile_brackets_exact(
            values in proptest::collection::vec(0u64..1_000_000, 1..300),
        ) {
            let mut sk = LogSketch::new();
            for &v in &values {
                sk.absorb(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let exact = buffered_quantile(&sorted, q);
                let approx = sk.quantile(q);
                prop_assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
                if exact > 0 {
                    prop_assert!(approx < exact.saturating_mul(2),
                        "q={q}: {approx} >= 2*{exact}");
                } else {
                    prop_assert_eq!(approx, 0);
                }
            }
        }

        /// Sketch CDF points are invariant under partitioning + merge order,
        /// and identical to the single-pass sketch.
        #[test]
        fn sketch_merge_is_partition_invariant(
            values in proptest::collection::vec(0u64..1_000_000, 1..250),
            cuts in proptest::collection::vec(0usize..250, 0..6),
            reverse in proptest::any::<bool>(),
        ) {
            let mut reference = LogSketch::new();
            for &v in &values {
                reference.absorb(v);
            }
            let as_u32: Vec<u32> = (0..values.len() as u32).collect();
            let mut parts_idx = partition(&as_u32, &cuts);
            if reverse {
                parts_idx.reverse();
            }
            let mut merged = LogSketch::new();
            for chunk in parts_idx {
                let mut sk = LogSketch::new();
                for i in chunk {
                    sk.absorb(values[i as usize]);
                }
                merged.merge(sk);
            }
            prop_assert_eq!(&merged, &reference);
            prop_assert_eq!(merged.cdf_points(), reference.cdf_points());
        }
    }

    #[test]
    fn bucket_boundaries() {
        let mut sk = LogSketch::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            sk.absorb(v);
        }
        assert_eq!(sk.total(), 8);
        assert_eq!(sk.quantile(0.0), 0); // the zero bucket
        assert_eq!(sk.quantile(1.0), u64::MAX);
    }
}
