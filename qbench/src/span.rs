//! Spans recorded around the calls the benchmark makes into each layer.
//! They are kept in memory and written out when the run ends.

use std::time::Instant;

use crate::json::{obj, Value};

/// One timed interval. `parent` is the span that caused it. The workload
/// every span of a tracer belongs to is the tracer's, and is written out
/// with each span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects the spans of one traced workload.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from; harness threads time their own
    /// operations against it and hand the intervals to [`Tracer::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Adds a finished span.
    pub fn record(&mut self, name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// A span's duration minus the part of its interval that its child
    /// spans cover. Children running in parallel overlap; the covered part
    /// is the union of their intervals, clipped to the parent's.
    pub fn self_ns(&self, id: u32) -> u64 {
        let parent = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self.duration_ns(id) - covered
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The `spans` array of `trace.json`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", (s.id as u64).into()),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| (p as u64).into()),
                        ),
                        ("name", s.name.as_str().into()),
                        ("workload", self.workload.as_str().into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_sibling_children() {
        let mut t = Tracer::new("w");
        let root = t.record("root", None, 0, 100);
        t.record("a", Some(root), 10, 30);
        t.record("b", Some(root), 50, 90);
        assert_eq!(t.self_ns(root), 100 - 20 - 40);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_counts_overlap_once() {
        let mut t = Tracer::new("w");
        let root = t.record("root", None, 0, 100);
        let a = t.record("a", Some(root), 10, 60);
        // Nested under `a`: shortens a's self time, not root's.
        t.record("a.inner", Some(a), 20, 40);
        // Runs in parallel with `a` and pokes out of the parent's interval.
        t.record("b", Some(root), 40, 120);
        assert_eq!(t.self_ns(root), 10);
        assert_eq!(t.self_ns(a), 50 - 20);
        let leaf = t.record("leaf", None, 5, 9);
        assert_eq!(t.self_ns(leaf), 4);
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut t = Tracer::new("campaign_paper");
        let root = t.open("pass", None);
        let x = t.time("stage", Some(root), || 7);
        t.close(root);
        assert_eq!(x, 7);
        let stage = &t.spans()[1];
        assert_eq!(stage.parent, Some(root));
        assert!(stage.start_ns >= t.spans()[0].start_ns && stage.end_ns <= t.spans()[0].end_ns);
        let json = t.to_json();
        let first = &json.as_array().unwrap()[0];
        assert_eq!(first.get("parent"), Some(&Value::Null));
        assert_eq!(
            first.get("workload").unwrap().as_str(),
            Some("campaign_paper")
        );
        assert_eq!(t.durations_us("stage").len(), 1);
    }
}
