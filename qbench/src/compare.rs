//! `qbench compare A/results.json B/results.json`: one row per (workload,
//! end-to-end metric) with both medians, their quartiles, the ratio with its
//! base, and a verdict under the bounds `BENCHMARK.json` fixes.

use crate::bench_spec::{BenchSpec, EndToEnd};
use crate::json::Value;
use crate::stats::{summarize, Summary};

/// What a row concludes about B relative to A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// A side's spread between passes is wider than the bound and the two
    /// sides' samples overlap: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub summary: Summary,
    pub samples: Vec<f64>,
}

/// By how much of A's median B is worse (negative: better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if metric.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The verdict of one row.
pub fn judge(metric: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let delta = worsening(metric, a.summary.median, b.summary.median);
    let noisy = a.summary.spread().max(b.summary.spread()) > metric.bound;
    if noisy {
        // Too wide to compare medians; only sample sets that do not
        // overlap at all still tell the two sides apart.
        let min = |s: &Side| s.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |s: &Side| s.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (b_all_worse, b_all_better) = if metric.better == "higher" {
            (max(b) < min(a), min(b) > max(a))
        } else {
            (min(b) > max(a), max(b) < min(a))
        };
        return if b_all_worse {
            Verdict::Worse
        } else if b_all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if delta > metric.bound {
        Verdict::Worse
    } else if delta < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let samples: Vec<f64> = m
        .get("samples")?
        .as_array()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    Some(Side {
        summary: summarize(&samples),
        samples,
    })
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
}

/// The comparison as text, and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    use std::fmt::Write;
    let spec = BenchSpec::load();
    let mut out = String::new();
    let mut any_worse = false;
    let host = |doc: &Value, key: &str| {
        doc.get("host")
            .and_then(|h| h.get(key))
            .map(Value::to_line)
            .unwrap_or_default()
    };
    for key in ["cpu_model", "nproc", "workers", "profile", "commit", "seed"] {
        let _ = writeln!(out, "{key:<10} A {}  B {}", host(a, key), host(b, key));
    }
    let _ = writeln!(
        out,
        "{:<15} {:<12} {:>12} {:>25} {:>12} {:>25} {:>10} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound"
    );
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            return Err(format!("workload {name} is missing from one of the files"));
        };
        for metric in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (side(wa, &metric.name), side(wb, &metric.name)) else {
                return Err(format!(
                    "{name}: metric {} is missing from one of the files",
                    metric.name
                ));
            };
            let verdict = judge(metric, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<15} {:<12} {:>12.4} {:>25} {:>12.4} {:>25} {:>10.4} {:>6.2}  {}",
                name,
                metric.name,
                sa.summary.median,
                format!("[{:.4}, {:.4}]", sa.summary.q1, sa.summary.q3),
                sb.summary.median,
                format!("[{:.4}, {:.4}]", sb.summary.q1, sb.summary.q3),
                sb.summary.median / sa.summary.median,
                metric.bound,
                verdict.as_str(),
            );
        }
        // Any failed operation is a regression, whatever the share.
        let share = |w: &Value| w.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (share(wa), share(wb));
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<15} {:<12} {:>12.6} {:>25} {:>12.6} {:>25} {:>10} {:>6}  {}",
            name,
            "failed_share",
            fa,
            "",
            fb,
            "",
            "",
            "0 abs",
            verdict.as_str(),
        );
    }
    let _ = writeln!(out, "B/A is B's median over A's median (base: A).");
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "wall_s".into(),
            unit: "s".into(),
            better: better.into(),
            bound,
        }
    }

    fn side_of(samples: &[f64]) -> Side {
        Side {
            summary: summarize(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn steady_sides_are_judged_by_their_medians() {
        let m = metric("lower", 0.08);
        let a = side_of(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        assert_eq!(
            judge(&m, &a, &side_of(&[1.02, 1.03, 1.01, 1.02, 1.02])),
            Verdict::Same
        );
        assert_eq!(
            judge(&m, &a, &side_of(&[1.10, 1.11, 1.09, 1.10, 1.10])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&m, &a, &side_of(&[0.90, 0.91, 0.89, 0.90, 0.90])),
            Verdict::Better
        );
        let h = metric("higher", 0.08);
        assert_eq!(
            judge(&h, &a, &side_of(&[0.90, 0.91, 0.89, 0.90, 0.90])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&h, &a, &side_of(&[1.10, 1.11, 1.09, 1.10, 1.10])),
            Verdict::Better
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_samples_part() {
        let m = metric("lower", 0.08);
        let a = side_of(&[0.8, 0.9, 1.0, 1.1, 1.2]);
        assert_eq!(
            judge(&m, &a, &side_of(&[0.9, 1.0, 1.1, 1.2, 1.3])),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m, &a, &side_of(&[1.3, 1.4, 1.5, 1.6, 1.7])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&m, &a, &side_of(&[0.3, 0.4, 0.5, 0.6, 0.7])),
            Verdict::Better
        );
    }
}
