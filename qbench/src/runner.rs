//! One run of one workload: set-up, an untimed warm-up pass, timed passes,
//! and the correctness check of every pass; or, traced, the replay with
//! spans and the ladder.

use std::time::{Duration, Instant};

use crate::bench_spec::BenchSpec;
use crate::golden;
use crate::host::peak_rss_mib;
use crate::json::{obj, Value};
use crate::ladder;
use crate::layers::{LayerValues, LAYER_METRICS};
use crate::span::Tracer;
use crate::stats::{median, summarize, Summary};
use crate::traced::{self, Stage, Tails};
use crate::workloads::{
    timed, unit_of, CampaignPaper, PassOutput, Spec, Workload, DEFAULT_SEED, NAMES,
};

/// How often the inputs are built in a run; `setup_s` takes the median build.
const SETUP_REPEATS: usize = 3;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct OneArgs {
    pub workload: String,
    pub spec: Spec,
    /// How long the timed passes go on: passes start until this much time
    /// has gone by, so the last one may end after it.
    pub seconds: f64,
    pub trace: bool,
}

/// Whether the pass digests were held against the golden file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Golden {
    Match,
    Mismatch,
    /// Another seed or reduced size: only pass-to-pass equality is enforced.
    Skipped,
}

impl Golden {
    pub fn as_str(self) -> &'static str {
        match self {
            Golden::Match => "match",
            Golden::Mismatch => "mismatch",
            Golden::Skipped => "skipped",
        }
    }
}

/// What checking every pass of a run came to.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Passes run and checked, the warm-up included.
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub golden: Golden,
    /// Names of the digests that differed from the recorded pass or the
    /// golden file, for the report.
    pub differing: Vec<String>,
}

impl Checked {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Holds every pass against the recorded (first) pass and the golden file,
/// and counts operations attempted and failed.
pub struct Checker {
    golden: Option<Vec<golden::Entry>>,
    recorded: Option<PassOutput>,
    golden_mismatch: bool,
    checked: Checked,
}

impl Checker {
    pub fn new(workload: &str, spec: Spec) -> Self {
        let golden = (spec.seed == DEFAULT_SEED && !spec.quick).then(|| golden::recorded(workload));
        let checked = Checked {
            passes: 0,
            attempted: 0,
            failed: 0,
            golden: Golden::Skipped,
            differing: Vec::new(),
        };
        Checker {
            golden,
            recorded: None,
            golden_mismatch: false,
            checked,
        }
    }

    /// Counts one pass: its own failures, each digest that differs from the
    /// recorded pass or the golden file, each label that differs from the
    /// recorded pass.
    pub fn absorb(&mut self, pass: &PassOutput) {
        let c = &mut self.checked;
        c.passes += 1;
        c.attempted += pass.attempted + (pass.digests.len() + pass.labels.len()) as u64;
        c.failed += pass.failed;
        for (name, digest) in &pass.digests {
            let same_as_recorded = self
                .recorded
                .as_ref()
                .is_none_or(|r| r.digests.iter().any(|(n, d)| n == name && d == digest));
            let same_as_golden = self
                .golden
                .as_ref()
                .is_none_or(|g| g.iter().any(|e| e.name == *name && e.digest == *digest));
            self.golden_mismatch |= !same_as_golden;
            if !(same_as_recorded && same_as_golden) {
                c.failed += 1;
                c.differing.push(name.to_string());
            }
        }
        match &self.recorded {
            Some(r) => {
                let differing = pass
                    .labels
                    .iter()
                    .zip(&r.labels)
                    .filter(|(a, b)| a != b)
                    .count()
                    + pass.labels.len().abs_diff(r.labels.len());
                c.failed += differing as u64;
            }
            None => self.recorded = Some(pass.clone()),
        }
    }

    /// The counts, and whether the golden file was held against and matched.
    pub fn finish(self) -> Checked {
        let golden = match (&self.golden, self.golden_mismatch) {
            (None, _) => Golden::Skipped,
            (Some(_), true) => Golden::Mismatch,
            (Some(_), false) => Golden::Match,
        };
        Checked {
            golden,
            ..self.checked
        }
    }
}

/// One end-to-end metric of one run.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    pub samples: Vec<f64>,
}

/// Everything one run of one workload produced.
pub struct Detail {
    pub args: OneArgs,
    pub checked: Checked,
    /// Untraced run: every end-to-end metric.
    pub end_to_end: Vec<Measured>,
    /// Traced run: the per-layer values, the campaign's stage table, the
    /// tail percentile the per-target samples supported, the spans.
    pub per_layer: Option<LayerValues>,
    pub stages: Vec<Stage>,
    pub tails: Option<Tails>,
    pub tracer: Option<Tracer>,
}

fn build(args: &OneArgs) -> Result<Workload, String> {
    Workload::build(&args.workload, args.spec).ok_or_else(|| {
        format!(
            "unknown workload {:?}; the workloads are {NAMES:?}",
            args.workload
        )
    })
}

/// Runs `args`; `started` is when the process began.
pub fn run_one(args: &OneArgs, started: Instant) -> Result<Detail, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args, started)
    }
}

fn run_untraced(args: &OneArgs, started: Instant) -> Result<Detail, String> {
    let spec = BenchSpec::load();
    let before_setup = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let workload = build(args)?;
    let mut build_s = vec![t.elapsed().as_secs_f64()];

    let mut checker = Checker::new(&args.workload, args.spec);
    // The first pass is about twice as slow as the rest (cold Initial-key
    // memo, certificate cache, allocator): it warms up and records the
    // expected outputs, and counts towards set-up, not towards the passes.
    let warm = workload.pass();
    checker.absorb(&warm);
    // Peak memory is read here, after one build and one whole pass: what
    // one execution of the workload needs. Passes repeated in one process
    // leave freed memory of earlier passes in glibc's per-thread arenas, by
    // an amount that depends on which arena each new thread lands in
    // (stateful_sni: +2 to +11 MiB on 26 MiB over 14 passes; none with
    // MALLOC_ARENA_MAX=1). That growth belongs to the loop, not the workload.
    let peak_rss = peak_rss_mib();

    let mut passes: Vec<PassOutput> = Vec::new();
    let window = Instant::now();
    while passes.is_empty() || (!args.spec.quick && window.elapsed().as_secs_f64() < args.seconds) {
        let pass = workload.pass();
        checker.absorb(&pass);
        passes.push(pass);
    }

    // Set up twice more and take the median build, so one slow page-in does
    // not decide `setup_s`.
    drop(workload);
    let repeats = if args.spec.quick { 1 } else { SETUP_REPEATS };
    while build_s.len() < repeats {
        let t = Instant::now();
        drop(build(args)?);
        build_s.push(t.elapsed().as_secs_f64());
    }
    let setup_s = before_setup + median(&build_s) + warm.wall_s;

    let samples = |f: &dyn Fn(&PassOutput) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let end_to_end = spec
        .end_to_end
        .iter()
        .map(|m| {
            let samples = match m.name.as_str() {
                "wall_s" => samples(&|p| p.wall_s),
                "ops_per_s" => samples(&|p| p.ops / p.wall_s),
                "cpu_s" => samples(&|p| p.cpu_s),
                "peak_rss_mb" => vec![peak_rss],
                "setup_s" => vec![setup_s],
                other => panic!(
                    "BENCHMARK.json names an end-to-end metric {other:?} qbench does not measure"
                ),
            };
            Measured {
                name: m.name.clone(),
                unit: m.unit.clone(),
                summary: summarize(&samples),
                samples,
            }
        })
        .collect();

    Ok(Detail {
        args: args.clone(),
        checked: checker.finish(),
        end_to_end,
        per_layer: None,
        stages: Vec::new(),
        tails: None,
        tracer: None,
    })
}

fn run_traced(args: &OneArgs) -> Result<Detail, String> {
    let workload = build(args)?;
    let mut checker = Checker::new(&args.workload, args.spec);
    let mut tracer = Tracer::new(&args.workload);
    let mut values = LayerValues::default();
    let mut stages = Vec::new();
    let mut tails = None;

    checker.absorb(&workload.pass());
    match &workload {
        // One more untraced pass is the base the staged replay is held
        // against, and its snapshot supplies the replay's target lists.
        Workload::CampaignPaper(w) => {
            let (out, wall_s, cpu_s) = timed(|| w.run());
            let (rows, t) = traced::campaign(w, &out, wall_s, &mut tracer, &mut values);
            stages = rows;
            tails = Some(t);
            checker.absorb(&CampaignPaper::check(out, wall_s, cpu_s));
        }
        Workload::SweepSparse(w) => traced::sweep(w, &mut tracer, &mut values),
        Workload::ScaleLazy(w) => traced::scale(w, &mut tracer, &mut values),
        Workload::StatefulSni(w) => tails = Some(traced::stateful(w, &mut tracer, &mut values)),
        // A warm untraced pass supplies the CPU time per connection.
        Workload::Mux(w) => {
            let base = workload.pass();
            checker.absorb(&base);
            traced::mux(w, base.cpu_s, &mut tracer, &mut values);
        }
    }
    drop(workload);
    // The ladder's rungs share the run length: 6 ms of every second each,
    // about a fifth of the run for all of them.
    let rung = if args.spec.quick {
        0.002
    } else {
        args.seconds * 0.006
    };
    ladder::run(Duration::from_secs_f64(rung), &mut tracer, &mut values);

    Ok(Detail {
        args: args.clone(),
        checked: checker.finish(),
        end_to_end: Vec::new(),
        per_layer: Some(values),
        stages,
        tails,
        tracer: Some(tracer),
    })
}

fn metric_value(value: f64, unit: &str) -> Value {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// Every per-layer metric by name; one the run did not exercise reads 0.
fn per_layer_json(values: &LayerValues) -> Value {
    Value::Obj(
        LAYER_METRICS
            .iter()
            .map(|r| (r.name.to_string(), metric_value(values.get(r.name), r.unit)))
            .collect(),
    )
}

impl Detail {
    /// The object the benchmark contract asks for on the last line of
    /// standard output: every end-to-end metric of an untraced run, every
    /// per-layer metric of a traced one.
    pub fn contract_line(&self) -> String {
        let metrics = match &self.per_layer {
            None => Value::Obj(
                self.end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), metric_value(m.summary.median, &m.unit)))
                    .collect(),
            ),
            Some(values) => per_layer_json(values),
        };
        let c = &self.checked;
        obj([
            ("correct", (c.failed == 0).into()),
            ("attempted", c.attempted.max(1).into()),
            ("failed", c.failed.into()),
            ("metrics", metrics),
        ])
        .to_line()
    }

    /// Every metric by name with its unit, one per line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let (a, c) = (&self.args, &self.checked);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {:#x}, {} workers, {}) ==",
            a.workload,
            a.spec.seed,
            a.spec.workers,
            if a.trace { "traced" } else { "untraced" },
        );
        for m in &self.end_to_end {
            let s = &m.summary;
            let unit = if m.name == "ops_per_s" {
                format!("{}/s", unit_of(&a.workload))
            } else {
                m.unit.clone()
            };
            let _ = writeln!(
                out,
                "{:<14} {:>14.4} {:<10} q1 {:.4} q3 {:.4} n {}",
                m.name, s.median, unit, s.q1, s.q3, s.n
            );
        }
        if let Some(values) = &self.per_layer {
            for r in LAYER_METRICS.iter().filter(|r| values.is_set(r.name)) {
                let _ = writeln!(
                    out,
                    "{:<40} {:>16.4} {}",
                    r.name,
                    values.get(r.name),
                    r.unit
                );
            }
        }
        if let Some(t) = &self.tails {
            for (who, p) in [("goscanner", t.goscanner), ("qscanner", t.qscanner)] {
                if p < 99.0 {
                    let _ = writeln!(
                        out,
                        "{who}.target_p99_us: the sample supports no p99; the value is its p{p}"
                    );
                }
            }
        }
        if !self.stages.is_empty() {
            let total: f64 = self.stages.iter().map(|s| s.self_ms).sum();
            let _ = writeln!(out, "-- where the campaign's {total:.0} ms went --");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<32} {:>10.1} ms {:>6.1} %",
                    s.name,
                    s.self_ms,
                    100.0 * s.self_ms / total
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<14} {:>14.6} ratio      {} failed of {} attempted over {} passes",
            "failed_share",
            c.failed_share(),
            c.failed,
            c.attempted,
            c.passes,
        );
        if !c.differing.is_empty() {
            let _ = writeln!(out, "digests that differed: {}", c.differing.join(" "));
        }
        let _ = writeln!(
            out,
            "golden: {}",
            match c.golden {
                Golden::Match => "every digest equals golden/seed_0x9000.txt",
                Golden::Mismatch => "DIFFERS from golden/seed_0x9000.txt",
                Golden::Skipped =>
                    "skipped (not the default seed and size); only pass-to-pass equality is enforced",
            }
        );
        out
    }

    /// The run as an object of `results.json`.
    pub fn to_json(&self) -> Value {
        let (a, c) = (&self.args, &self.checked);
        let end_to_end = self
            .end_to_end
            .iter()
            .map(|m| {
                let s = &m.summary;
                let fields = obj([
                    ("unit", m.unit.as_str().into()),
                    ("median", s.median.into()),
                    ("q1", s.q1.into()),
                    ("q3", s.q3.into()),
                    ("n", s.n.into()),
                    (
                        "samples",
                        Value::Arr(m.samples.iter().map(|&x| x.into()).collect()),
                    ),
                ]);
                (m.name.clone(), fields)
            })
            .collect();
        let per_layer = self.per_layer.as_ref().map_or(Value::Null, per_layer_json);
        let stages = self
            .stages
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.as_str().into()),
                    ("self_ms", s.self_ms.into()),
                ])
            })
            .collect();
        obj([
            ("workload", a.workload.as_str().into()),
            ("ops_unit", unit_of(&a.workload).into()),
            ("seed", a.spec.seed.into()),
            ("workers", a.spec.workers.into()),
            ("quick", a.spec.quick.into()),
            ("traced", a.trace.into()),
            ("passes", c.passes.into()),
            ("attempted", c.attempted.into()),
            ("failed", c.failed.into()),
            ("failed_share", c.failed_share().into()),
            ("golden", c.golden.as_str().into()),
            ("end_to_end", Value::Obj(end_to_end)),
            ("per_layer", per_layer),
            ("stages", Value::Arr(stages)),
            (
                "tail_percentile",
                self.tails.map_or(Value::Null, |t| {
                    obj([
                        ("goscanner", t.goscanner.into()),
                        ("qscanner", t.qscanner.into()),
                    ])
                }),
            ),
            (
                "spans",
                self.tracer.as_ref().map_or(Value::Null, Tracer::to_json),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(digest: u64, labels: &[&str]) -> PassOutput {
        PassOutput {
            attempted: 10,
            failed: 0,
            digests: vec![("tables", digest)],
            labels: labels.iter().map(|s| s.to_string()).collect(),
            ..PassOutput::default()
        }
    }

    #[test]
    fn checker_counts_digest_and_label_differences_against_the_recorded_pass() {
        let spec = Spec {
            seed: 7,
            workers: 1,
            quick: false,
        };
        let mut c = Checker::new("sweep_sparse", spec);
        c.absorb(&pass(1, &["ok", "ok"]));
        c.absorb(&pass(1, &["ok", "ok"]));
        c.absorb(&pass(2, &["ok", "close:0x128"]));
        let checked = c.finish();
        assert_eq!(checked.passes, 3);
        assert_eq!((checked.attempted, checked.failed), (39, 2));
        assert_eq!(checked.differing, ["tables"]);
        assert_eq!(checked.golden, Golden::Skipped);
        assert_eq!(checked.failed_share(), 2.0 / 39.0);
    }

    #[test]
    fn checker_holds_the_default_seed_against_the_golden_file() {
        let spec = Spec {
            seed: DEFAULT_SEED,
            workers: 1,
            quick: false,
        };
        let recorded = golden::recorded("sweep_sparse");
        let zmap_v4 = recorded.iter().find(|e| e.name == "zmap_v4").unwrap();
        let with_digest = |digest: u64| PassOutput {
            attempted: 1,
            digests: vec![("zmap_v4", digest)],
            ..PassOutput::default()
        };
        let mut c = Checker::new("sweep_sparse", spec);
        c.absorb(&with_digest(zmap_v4.digest));
        let good = c.finish();
        assert_eq!((good.failed, good.golden), (0, Golden::Match));

        let mut c = Checker::new("sweep_sparse", spec);
        c.absorb(&with_digest(1));
        let bad = c.finish();
        assert_eq!((bad.failed, bad.golden), (1, Golden::Mismatch));

        let quick = Spec {
            quick: true,
            ..spec
        };
        assert_eq!(
            Checker::new("sweep_sparse", quick).finish().golden,
            Golden::Skipped
        );
    }
}
