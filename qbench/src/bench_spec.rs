//! `BENCHMARK.json`, compiled in: the end-to-end metrics with their units,
//! directions and regression bounds, the workload names and the run length.
//! Reading the file itself keeps `qbench compare` and the driver on the same
//! bounds.

use crate::json::{parse, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// What `qbench` needs from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit, better)` of each per-layer metric.
    pub per_layer: Vec<(String, String, String)>,
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).unwrap_or_default()
}

impl BenchSpec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> BenchSpec {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(10.0),
            workloads: rows(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: rows(&doc, "end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                })
                .collect(),
            per_layer: rows(&doc, "per_layer")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;
    use crate::workloads::NAMES;

    #[test]
    fn benchmark_json_names_the_workloads_and_metrics_qbench_reports() {
        let spec = BenchSpec::load();
        assert_eq!(spec.workloads, NAMES);
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["wall_s", "ops_per_s", "cpu_s", "peak_rss_mb", "setup_s"]
        );
        for m in &spec.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
        }
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn per_layer_list_is_the_layer_table() {
        let spec = BenchSpec::load();
        let table: Vec<(String, String, String)> = LAYER_METRICS
            .iter()
            .map(|r| (r.name.to_string(), r.unit.to_string(), r.better.to_string()))
            .collect();
        assert_eq!(spec.per_layer, table);
    }
}
