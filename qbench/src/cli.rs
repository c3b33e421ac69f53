//! The command line.
//!
//! ```text
//! qbench run     [--seed N] [--workers N] [--out DIR] [--trace] [--quick] [--seconds S]
//! qbench one     --workload NAME --seed N --seconds S --trace 0|1 [--workers N] [--quick] [--detail FILE]
//! qbench compare A/results.json B/results.json
//! qbench golden  [--write]
//! ```
//!
//! `one` is what `BENCHMARK.json`'s command runs: one workload in this
//! process, the contract's JSON object on the last line of standard output.
//! `run` executes `one` for each workload in a child process of its own (so
//! peak memory is per workload) and gathers `results.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::bench_spec::BenchSpec;
use crate::compare::compare;
use crate::golden;
use crate::host;
use crate::json::{self, obj, Value};
use crate::runner::{run_one, OneArgs};
use crate::workloads::{Spec, Workload, DEFAULT_SEED, NAMES};

const USAGE: &str = "usage:
  qbench run     [--seed N] [--workers N] [--out DIR] [--trace] [--quick] [--seconds S]
  qbench one     --workload NAME --seed N --seconds S --trace 0|1 [--workers N] [--quick] [--detail FILE]
  qbench compare A/results.json B/results.json
  qbench golden  [--write]";

/// Flags after the subcommand: `--name value` pairs and bare switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--quick", "--write"];

impl Flags {
    /// `run` takes `--trace` as a switch, `one` as `--trace 0|1`.
    fn parse(args: &[String], trace_is_switch: bool) -> Result<Flags, String> {
        let mut f = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a}"));
            } else if SWITCHES.contains(&a.as_str()) || (trace_is_switch && a == "--trace") {
                f.switches.push(a.clone());
            } else {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                f.pairs.push((a.clone(), value.clone()));
            }
        }
        Ok(f)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .map(|(k, _)| k)
            .chain(&self.switches)
            .find(|k| !known.contains(&k.as_str()))
        {
            Some(k) => Err(format!("unknown argument {k}")),
            None => Ok(()),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.value("--seed") else {
            return Ok(DEFAULT_SEED);
        };
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|_| format!("--seed {text}: not a whole number"))
    }

    fn workers(&self) -> Result<usize, String> {
        match self.value("--workers") {
            None => Ok(host::default_workers()),
            Some(text) => match text.parse::<usize>() {
                // More threads than processors would time the scheduler.
                Ok(n) if n >= 1 => Ok(n.min(host::nproc())),
                _ => Err(format!("--workers {text}: not a positive whole number")),
            },
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        match self.value("--seconds") {
            None => Ok(BenchSpec::load().run_seconds),
            Some(text) => match text.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 3600.0 => Ok(s),
                _ => Err(format!("--seconds {text}: not a number of seconds")),
            },
        }
    }
}

/// Runs the command line; returns the process's exit code.
pub fn main(args: Vec<String>, started: Instant) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("one") => one(&args[1..], started),
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("golden") => golden_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("qbench: {message}");
            2
        }
    }
}

fn one(args: &[String], started: Instant) -> Result<i32, String> {
    let f = Flags::parse(args, false)?;
    f.check_known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--workers",
        "--quick",
        "--detail",
    ])?;
    let workload = f
        .value("--workload")
        .ok_or("one: --workload is required")?
        .to_string();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {NAMES:?}"
        ));
    }
    let trace = match f.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let args = OneArgs {
        workload,
        spec: Spec {
            seed: f.seed()?,
            workers: f.workers()?,
            quick: f.has("--quick"),
        },
        seconds: f.seconds()?,
        trace,
    };
    let detail = run_one(&args, started)?;
    print!("{}", detail.render());
    if let Some(path) = f.value("--detail") {
        std::fs::write(path, detail.to_json().to_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", detail.contract_line());
    Ok(i32::from(detail.checked.failed > 0))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `one` in a child process and returns its detail object. `common`
/// are the arguments every child of this run gets.
fn child(
    workload: &str,
    common: &[String],
    trace: bool,
    out: &Path,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail = out.join(format!(
        "{workload}.{}.json",
        if trace { "traced" } else { "untraced" }
    ));
    let mut cmd = Command::new(exe);
    cmd.arg("one")
        .args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(common)
        .arg("--detail")
        .arg(&detail);
    let status = cmd
        .status()
        .map_err(|e| format!("start child for {workload}: {e}"))?;
    let value = read_json(&detail)?;
    // The merged files carry everything; the per-child ones are scratch.
    let _ = std::fs::remove_file(&detail);
    Ok((value, status.success()))
}

fn run(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, true)?;
    f.check_known(&[
        "--seed",
        "--workers",
        "--out",
        "--trace",
        "--quick",
        "--seconds",
    ])?;
    let out = PathBuf::from(f.value("--out").unwrap_or("out/qbench"));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let (seed, workers) = (f.seed()?, f.workers()?);
    let host_facts = host::facts(workers, seed);
    println!("host: {}", host_facts.to_line());
    let mut common = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--workers".to_string(),
        workers.to_string(),
        "--seconds".to_string(),
        f.seconds()?.to_string(),
    ];
    if f.has("--quick") {
        common.push("--quick".to_string());
    }

    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    for name in NAMES {
        let (mut merged, ok) = child(name, &common, false, &out)?;
        all_ok &= ok;
        merged.remove("spans");
        if f.has("--trace") {
            let (mut traced, ok) = child(name, &common, true, &out)?;
            all_ok &= ok;
            if let Some(Value::Arr(s)) = traced.remove("spans") {
                spans.extend(s);
            }
            let count = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let attempted = count(&merged, "attempted") + count(&traced, "attempted");
            let failed = count(&merged, "failed") + count(&traced, "failed");
            merged.set("attempted", attempted.into());
            merged.set("failed", failed.into());
            merged.set("failed_share", (failed / attempted.max(1.0)).into());
            for key in ["per_layer", "stages", "tail_percentile"] {
                if let Some(v) = traced.remove(key) {
                    merged.set(key, v);
                }
            }
            merged.set("traced", true.into());
        }
        workloads.push(merged);
    }

    let results = obj([
        ("schema", "qbench-results-1".into()),
        ("host", host_facts.clone()),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if f.has("--trace") {
        let trace = obj([
            ("schema", "qbench-trace-1".into()),
            ("host", host_facts),
            ("spans", Value::Arr(spans)),
        ]);
        let path = out.join("trace.json");
        std::fs::write(&path, trace.to_line())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if !all_ok {
        eprintln!("qbench: at least one workload failed an operation or did not finish");
    }
    Ok(i32::from(!all_ok))
}

fn compare_files(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two results.json files".to_string());
    };
    let (text, any_worse) = compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
    print!("{text}");
    Ok(i32::from(any_worse))
}

fn golden_cmd(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, false)?;
    f.check_known(&["--write"])?;
    let spec = Spec {
        seed: DEFAULT_SEED,
        workers: host::default_workers(),
        quick: false,
    };
    let mut entries = Vec::new();
    for name in NAMES {
        let workload = Workload::build(name, spec).expect("NAMES are workloads");
        for (digest_name, digest) in workload.pass().digests {
            entries.push(golden::Entry {
                workload: name.to_string(),
                name: digest_name.to_string(),
                digest,
            });
        }
        eprintln!("golden: {name} done");
    }
    if f.has("--write") {
        let path = golden::path();
        std::fs::write(&path, golden::render(&entries))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {} ({} digests)", path.display(), entries.len());
        return Ok(0);
    }
    let recorded = golden::all();
    let differing: Vec<&golden::Entry> = entries.iter().filter(|e| !recorded.contains(e)).collect();
    for e in &differing {
        println!(
            "{} {}: now {:#018x}, which is not what is recorded",
            e.workload, e.name, e.digest
        );
    }
    println!(
        "{} of {} digests differ from {}",
        differing.len(),
        entries.len(),
        golden::path().display()
    );
    Ok(i32::from(!differing.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(
            &strings(&["--seed", "0x10", "--quick", "--trace", "1"]),
            false,
        )
        .unwrap();
        assert_eq!(f.seed(), Ok(16));
        assert!(f.has("--quick"));
        assert_eq!(f.value("--trace"), Some("1"));
        assert!(Flags::parse(&strings(&["stray"]), false).is_err());
        let f = Flags::parse(&strings(&["--trace", "--seed", "12"]), true).unwrap();
        assert!(f.has("--trace"));
        assert_eq!(f.seed(), Ok(12));
    }

    #[test]
    fn malformed_arguments_are_refused_with_exit_code_2() {
        let started = Instant::now();
        for bad in [
            &["one"][..],
            &["one", "--workload", "nope", "--seed", "1"],
            &["one", "--workload", "sweep_sparse", "--seed", "x"],
            &["one", "--workload", "sweep_sparse", "--trace", "2"],
            &["one", "--workload", "sweep_sparse", "--seconds", "-1"],
            &["one", "--workload", "sweep_sparse", "--workers", "0"],
            &["one", "--workload", "sweep_sparse", "--bogus", "1"],
            &["one", "--workload"],
            &["compare", "only-one.json"],
            &["frobnicate"],
            &[],
        ] {
            assert_eq!(main(strings(bad), started), 2, "{bad:?}");
        }
    }

    #[test]
    fn workers_never_exceed_the_processors() {
        let f = Flags::parse(&strings(&["--workers", "4096"]), false).unwrap();
        assert_eq!(f.workers(), Ok(host::nproc()));
        assert!(host::default_workers() <= host::nproc().min(4));
    }
}
