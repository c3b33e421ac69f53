//! The data-plane tables pinned by value. The worker-invariance tests
//! (`mux_equivalence.rs`, `transfer`'s own unit tests) only compare runs
//! with each other, so a change that shifts every row the same way at every
//! worker count passes them; this test compares against text committed under
//! `tests/golden/` — the same bytes `repro workload --fast` writes to
//! `workload.txt` and `repro workload --mux --fast [--per-packet]` to
//! `mux.txt`, which CI's `workload-smoke` and `mux-smoke` jobs `cmp` against
//! these files too. `mux_fast_lossy.txt` has no CLI of its own: it pins the
//! retransmit phase's stream scheduling, which no lossless table reaches.

use transfer::mux::{self, MuxConfig};
use transfer::workload::{self, WorkloadConfig};
use transfer::SchedKind;

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

/// What `repro workload --mux --fast --per-packet` sweeps.
fn per_packet(workers: usize) -> MuxConfig {
    MuxConfig {
        batched: false,
        scheduler: SchedKind::IdOrder,
        ..MuxConfig::fast(SEED, workers)
    }
}

#[test]
fn per_packet_mux_tables_match_the_committed_text() {
    let golden = include_str!("golden/mux_fast_per_packet.txt");
    for workers in [1usize, 8] {
        let tables = mux::run(&per_packet(workers)).tables();
        assert_eq!(
            tables, golden,
            "per-packet mux tables moved at {workers} workers"
        );
    }
}

/// The fast sweep at 20 ‰ loss, twice: per-packet with id order, then
/// batched with round robin over four streams per connection.
fn lossy_tables(workers: usize) -> String {
    let id_order = MuxConfig {
        loss_permille: 20,
        ..per_packet(workers)
    };
    let round_robin = MuxConfig {
        loss_permille: 20,
        streams_per_conn: 4,
        ..MuxConfig::fast(SEED, workers)
    };
    format!(
        "## per-packet, id-order, 2 streams, 20 permille loss\n{}\
         ## batched, round-robin, 4 streams, 20 permille loss\n{}",
        mux::run(&id_order).tables(),
        mux::run(&round_robin).tables()
    )
}

#[test]
fn lossy_mux_tables_match_the_committed_text() {
    let golden = include_str!("golden/mux_fast_lossy.txt");
    for workers in [1usize, 8] {
        assert_eq!(
            lossy_tables(workers),
            golden,
            "lossy mux tables moved at {workers} workers"
        );
    }
}

/// Prints `golden/mux_fast_lossy.txt`:
/// `cargo test -q --test workload_golden -- --ignored --nocapture print_mux_fast_lossy`.
#[test]
#[ignore]
fn print_mux_fast_lossy() {
    print!("{}", lossy_tables(1));
}
