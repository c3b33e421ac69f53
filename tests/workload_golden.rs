//! The data-plane tables pinned by value. The worker-invariance tests
//! (`mux_equivalence.rs`, `transfer`'s own unit tests) only compare runs
//! with each other, so a change that shifts every row the same way at every
//! worker count passes them; this test compares against text committed under
//! `tests/golden/` — the same bytes `repro workload --fast` writes to
//! `workload.txt` and `repro workload --mux --fast` to `mux.txt`, which CI's
//! `workload-smoke` and `mux-smoke` jobs `cmp` against these files too.

use transfer::mux::{self, MuxConfig};
use transfer::workload::{self, WorkloadConfig};

const SEED: u64 = 0x9000;

#[test]
fn pemi_grid_tables_match_the_committed_text() {
    let golden = include_str!("golden/workload_fast.txt");
    for workers in [1usize, 8] {
        let tables = workload::run(&WorkloadConfig::fast(SEED, workers)).tables();
        assert_eq!(tables, golden, "workload tables moved at {workers} workers");
    }
}

#[test]
fn mux_tables_match_the_committed_text() {
    let golden = include_str!("golden/mux_fast.txt");
    for workers in [1usize, 8] {
        let tables = mux::run(&MuxConfig::fast(SEED, workers)).tables();
        assert_eq!(tables, golden, "mux tables moved at {workers} workers");
    }
}
