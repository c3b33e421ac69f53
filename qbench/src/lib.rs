//! `qbench`: the benchmark `BENCHMARK.json` describes. Six named workloads
//! drive the scan plane and the data plane from outside, through public
//! functions only; every run reports the same end-to-end metrics, checks its
//! outputs against recorded digests, and — traced — accounts for the time
//! layer by layer. See `README.md` for the tables.

pub mod bench_spec;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod fixtures;
pub mod golden;
pub mod host;
pub mod json;
pub mod ladder;
pub mod layers;
pub mod runner;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workloads;
