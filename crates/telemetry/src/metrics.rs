//! Deterministic sharded metrics.
//!
//! The hot path never touches shared state: each worker owns a plain
//! [`LocalMetrics`] (no atomics, no locks) and bumps it like local
//! variables. When a shard finishes, the worker submits the whole set to
//! the [`MetricsRegistry`] once — the only synchronized step, and a cold
//! one — which merges it into its own set on arrival. Every merge is a sum
//! (histogram sums saturate), so the merged set is the same whatever order
//! the submissions arrive in, and therefore at any worker count.
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

/// A metric set: counters and fixed-bucket histograms. A worker owns one
/// and bumps it with no synchronization; [`MetricsRegistry`] keeps another,
/// into which it merges every submission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalMetrics {
    counters: BTreeMap<&'static str, u64>,
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

    /// Records `value_us` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value_us: u64) {
        self.histograms.entry(name).or_default().observe(value_us);
    }

    /// Sums `other` into `self`, counter by counter and histogram by
    /// histogram.
    pub fn merge(&mut self, other: &LocalMetrics) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Counter value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, when anything was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Plain-text report, one metric per line, stable order.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
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

/// Merges every submitted [`LocalMetrics`] into one set as it arrives. The
/// mutex is taken once per submission (a shard, a worker or a scan), never
/// per probe.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    merged: Mutex<LocalMetrics>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `metrics` into the registry's set.
    pub fn submit(&self, metrics: LocalMetrics) {
        self.merged
            .lock()
            .expect("metrics registry poisoned")
            .merge(&metrics);
    }

    /// Everything submitted so far, merged.
    pub fn snapshot(&self) -> LocalMetrics {
        self.merged
            .lock()
            .expect("metrics registry poisoned")
            .clone()
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
            m.observe("rtt", 40_000 + salt);
            m
        };
        let forward = MetricsRegistry::new();
        forward.submit(mk(0));
        forward.submit(mk(1));
        forward.submit(mk(2));
        let backward = MetricsRegistry::new();
        backward.submit(mk(2));
        backward.submit(mk(0));
        backward.submit(mk(1));
        assert_eq!(forward.snapshot(), backward.snapshot());
        let snap = forward.snapshot();
        assert_eq!(snap.counter("probes"), 33);
        assert_eq!(snap.histogram("rtt").unwrap().count(), 3);
        assert!(
            snap.render().contains("counter probes 33"),
            "{}",
            snap.render()
        );
    }

    #[test]
    fn an_empty_submission_changes_nothing() {
        let reg = MetricsRegistry::new();
        reg.submit(LocalMetrics::new());
        assert_eq!(reg.snapshot(), LocalMetrics::new());
        assert_eq!(reg.snapshot().render(), "");
    }
}
