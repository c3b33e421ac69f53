//! The data-plane tables pinned by value. The worker-invariance tests
//! (`mux_equivalence.rs`, `transfer`'s own unit tests) only compare runs
//! with each other, so a change that shifts every row the same way at every
//! worker count passes them; these check text under `tests/golden/` through
//! [`common::golden`] (which `GOLDEN=write` regenerates, and which the last
//! two tests test) — the bytes `repro workload --fast` writes to `workload.txt`
//! and `repro workload --mux --fast [--per-packet]` to `mux.txt`, which CI
//! also `cmp`s. `mux_fast_lossy.txt` has no CLI of its own: it pins the
//! retransmit phase's stream scheduling, which no lossless table reaches.

mod common;

use common::golden;
use transfer::mux::{self, MuxConfig};
use transfer::workload::{self, WorkloadConfig};
use transfer::SchedKind;

const SEED: u64 = 0x9000;

#[test]
fn pemi_grid_tables_match_the_committed_text() {
    for workers in [1usize, 8] {
        let tables = workload::run(&WorkloadConfig::fast(SEED, workers)).tables();
        golden::check("workload_fast.txt", &tables);
    }
}

#[test]
fn mux_tables_match_the_committed_text() {
    for workers in [1usize, 8] {
        let tables = mux::run(&MuxConfig::fast(SEED, workers)).tables();
        golden::check("mux_fast.txt", &tables);
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
    for workers in [1usize, 8] {
        let tables = mux::run(&per_packet(workers)).tables();
        golden::check("mux_fast_per_packet.txt", &tables);
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
    for workers in [1usize, 8] {
        golden::check("mux_fast_lossy.txt", &lossy_tables(workers));
    }
}

/// The helper itself: a one-byte difference fails and names the file and
/// line; a heading the file lacks panics.
#[test]
fn a_one_byte_difference_names_the_file_and_line() {
    let report = golden::mismatch("t.txt", "a\nb\nc\n", "a\nb\nd\n").unwrap();
    let named = "t.txt differs at line 3\n  committed: Some(\"c\\n\")\n  rendered:  Some(\"d\\n\")";
    assert!(report.starts_with(named), "{report}");
    assert_eq!(golden::mismatch("t.txt", "a\n", "a\n"), None);
}

#[test]
#[should_panic(expected = "no `## no such table` in campaign_tiny.txt")]
fn an_unknown_heading_panics() {
    golden::check_section("campaign_tiny.txt", "no such table", "");
}
