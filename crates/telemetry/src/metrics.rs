//! Deterministic sharded metrics.
//!
//! The hot path never touches shared state: each worker owns a plain
//! [`LocalMetrics`] (no atomics, no locks) and bumps it like local
//! variables. When a shard finishes, the worker submits the whole struct to
//! the [`MetricsRegistry`] once — the only synchronized step, and a cold
//! one. A [`MetricsSnapshot`] merges submissions **sorted by shard index**,
//! so the merged counters and histograms are identical at any worker count
//! (the same discipline as the sharded sweep's result merge).
//!
//! Metric names are `&'static str` literals at every call site; maps are
//! `BTreeMap` so iteration (and therefore rendering) is ordered and stable.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Bucket upper bounds (inclusive, in microseconds) for latency/RTT
/// histograms: 1ms … 5s plus overflow. Fixed so merges are index-aligned.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000, 2_000_000,
    5_000_000,
];

/// Fixed-bucket histogram. Merging sums per-bucket counts, so a histogram
/// merged from N shards equals the single-shard histogram of the same
/// observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Empty histogram over [`LATENCY_BOUNDS_US`].
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; LATENCY_BOUNDS_US.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (microseconds).
    pub fn observe(&mut self, value_us: u64) {
        let idx = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| value_us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_us);
    }

    /// Sums `other` into `self` bucket-by-bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (µs).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Smallest bucket bound such that at least `q` (0..=1000, permille) of
    /// observations fall at or below it; `u64::MAX` marks the overflow
    /// bucket.
    pub fn quantile_bound_us(&self, q_permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = (self.count * q_permille).div_ceil(1000);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return LATENCY_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One worker's unsynchronized metric set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalMetrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl LocalMetrics {
    /// Empty metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Sets gauge `name` to `value` (last write per shard wins; shards sum
    /// at merge, e.g. per-shard achieved pps → aggregate pps).
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Records `value_us` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value_us: u64) {
        self.histograms.entry(name).or_default().observe(value_us);
    }

    /// Counter value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    fn merge_into(&self, snap: &mut MetricsSnapshot) {
        for (name, v) in &self.counters {
            *snap.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &self.gauges {
            *snap.gauges.entry(name).or_insert(0) += v;
        }
        for (name, h) in &self.histograms {
            snap.histograms.entry(name).or_default().merge(h);
        }
    }
}

/// Collects per-shard [`LocalMetrics`] submissions. The mutex is taken once
/// per shard, never per probe.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    submissions: Mutex<Vec<(u64, LocalMetrics)>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits one shard's metrics under its shard/scan index. Empty
    /// submissions are dropped.
    pub fn submit(&self, index: u64, metrics: LocalMetrics) {
        if metrics.is_empty() {
            return;
        }
        self.submissions
            .lock()
            .expect("metrics registry poisoned")
            .push((index, metrics));
    }

    /// Merges every submission, ordered by (index, arrival), into one
    /// snapshot. Counter and histogram merges commute, so the snapshot is
    /// worker-count independent; the explicit ordering keeps it so even if a
    /// merge ever stops commuting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut subs = self
            .submissions
            .lock()
            .expect("metrics registry poisoned")
            .clone();
        subs.sort_by_key(|(index, _)| *index);
        let mut snap = MetricsSnapshot::default();
        for (_, m) in &subs {
            m.merge_into(&mut snap);
        }
        snap
    }
}

/// Index-ordered merge of every shard submission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// Merged counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summed gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merged histogram, when any shard observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (*n, *v))
    }

    /// Plain-text report, one metric per line, stable order.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist {name} count={} mean_us={} p50_us<={} p99_us<={}",
                h.count(),
                h.mean_us(),
                h.quantile_bound_us(500),
                h.quantile_bound_us(990),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_merge_equals_single() {
        let values = [500u64, 1_500, 9_999, 45_000, 2_000_001, 9_000_000];
        let mut whole = Histogram::new();
        for v in values {
            whole.observe(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, v) in values.iter().enumerate() {
            if i.is_multiple_of(2) {
                a.observe(*v)
            } else {
                b.observe(*v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(whole.count(), 6);
        assert_eq!(whole.quantile_bound_us(1000), u64::MAX);
    }

    #[test]
    fn registry_merge_is_submission_order_independent() {
        let mk = |salt: u64| {
            let mut m = LocalMetrics::new();
            m.inc("probes", 10 + salt);
            m.gauge("pps", 100);
            m.observe("rtt", 40_000 + salt);
            m
        };
        let forward = MetricsRegistry::new();
        forward.submit(0, mk(0));
        forward.submit(1, mk(1));
        forward.submit(2, mk(2));
        let backward = MetricsRegistry::new();
        backward.submit(2, mk(2));
        backward.submit(0, mk(0));
        backward.submit(1, mk(1));
        assert_eq!(forward.snapshot(), backward.snapshot());
        let snap = forward.snapshot();
        assert_eq!(snap.counter("probes"), 33);
        assert_eq!(snap.gauge("pps"), 300);
        assert_eq!(snap.histogram("rtt").unwrap().count(), 3);
        assert!(
            snap.render().contains("counter probes 33"),
            "{}",
            snap.render()
        );
    }

    #[test]
    fn empty_submissions_are_dropped() {
        let reg = MetricsRegistry::new();
        reg.submit(0, LocalMetrics::new());
        assert!(reg.submissions.lock().unwrap().is_empty());
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }
}
