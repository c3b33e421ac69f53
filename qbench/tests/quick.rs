//! `qbench run --quick --trace` end to end: every workload at reduced size,
//! one timed pass each, in child processes, then the files read back.

use std::path::Path;
use std::process::Command;

use qbench::bench_spec::BenchSpec;
use qbench::compare::compare;
use qbench::json::{parse, Value};
use qbench::layers::LAYER_METRICS;
use qbench::workloads::NAMES;

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key} in {}", v.to_line()))
}

#[test]
fn quick_traced_run_reports_every_metric_and_fails_no_operation() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let status = Command::new(env!("CARGO_BIN_EXE_qbench"))
        .args(["run", "--quick", "--trace", "--out"])
        .arg(&out)
        .status()
        .expect("qbench starts");
    assert!(
        status.success(),
        "qbench run --quick --trace exited with {status}"
    );

    let results = read(&out.join("results.json"));
    let host = results.get("host").expect("host facts");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "commit",
        "profile",
        "workers",
        "seed",
    ] {
        assert!(host.get(key).is_some(), "results.json records no {key}");
    }
    assert!(number(host, "workers") <= number(host, "nproc"));

    let spec = BenchSpec::load();
    let workloads = results
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("workload").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, NAMES);
    for w in workloads {
        let name = w.get("workload").and_then(Value::as_str).unwrap();
        assert_eq!(number(w, "failed_share"), 0.0, "{name}");
        assert!(number(w, "attempted") >= 1.0, "{name}");
        // Reduced sizes have no recorded digests; pass-to-pass equality only.
        assert_eq!(
            w.get("golden").and_then(Value::as_str),
            Some("skipped"),
            "{name}"
        );
        let end_to_end = w.get("end_to_end").expect("end_to_end");
        for m in &spec.end_to_end {
            let measured = end_to_end
                .get(&m.name)
                .unwrap_or_else(|| panic!("{name}: no {}", m.name));
            assert!(
                number(measured, "median") > 0.0,
                "{name}: {} is not positive",
                m.name
            );
            assert_eq!(
                measured.get("unit").and_then(Value::as_str),
                Some(m.unit.as_str())
            );
        }
        let per_layer = w.get("per_layer").expect("per_layer");
        for row in LAYER_METRICS {
            let value = per_layer
                .get(row.name)
                .unwrap_or_else(|| panic!("{name}: no {}", row.name));
            assert!(number(value, "value").is_finite(), "{name}: {}", row.name);
        }
        // The ladder runs with every workload.
        assert!(
            number(per_layer.get("qcrypto.x25519_us").unwrap(), "value") > 0.0,
            "{name}"
        );
    }

    // The campaign's stage table: its rows, the unattributed one included,
    // are the untraced pass's wall time, split.
    let campaign = &workloads[0];
    let stages = campaign
        .get("stages")
        .and_then(Value::as_array)
        .expect("stages");
    let total: f64 = stages.iter().map(|s| number(s, "self_ms")).sum();
    let unattributed = stages
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("unattributed"))
        .expect("an unattributed row");
    let share = number(
        campaign
            .get("per_layer")
            .unwrap()
            .get("bench.campaign_unattributed_share")
            .unwrap(),
        "value",
    );
    assert!(total > 0.0);
    assert!((number(unattributed, "self_ms") / total - share).abs() < 1e-9);
    for stage in [
        "zmapq.scan_v4",
        "qscanner.quic_sni",
        "goscanner.tls_sni",
        "analysis.tables",
    ] {
        assert!(
            stages
                .iter()
                .any(|s| s.get("name").and_then(Value::as_str) == Some(stage)),
            "no stage {stage}"
        );
    }

    let trace = read(&out.join("trace.json"));
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    assert!(spans.len() > 100);
    for s in spans.iter().take(50) {
        for key in ["id", "parent", "name", "workload", "start_ns", "end_ns"] {
            assert!(s.get(key).is_some(), "span without {key}");
        }
        assert!(number(s, "end_ns") >= number(s, "start_ns"));
    }

    // A set compared with itself agrees on every row.
    let (text, any_worse) = compare(&results, &results).expect("compare reads results.json");
    assert!(!any_worse, "{text}");
    assert!(
        !text.contains("worse") && !text.contains("better"),
        "{text}"
    );
    assert_eq!(
        text.matches(" same").count(),
        NAMES.len() * (spec.end_to_end.len() + 1),
        "{text}"
    );
}

#[test]
fn one_prints_the_contract_object_last() {
    let output = Command::new(env!("CARGO_BIN_EXE_qbench"))
        .args([
            "one",
            "--workload",
            "mux_manyconn",
            "--seed",
            "77",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ])
        .output()
        .expect("qbench starts");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = parse(stdout.lines().last().expect("a last line")).expect("the last line is JSON");
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    let metrics: Vec<&str> = last
        .get("metrics")
        .unwrap()
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        metrics,
        ["wall_s", "ops_per_s", "cpu_s", "peak_rss_mb", "setup_s"]
    );
}
