//! What the root test binaries share: [`golden`], the check of every file
//! under `tests/golden/`; the sections of `golden/campaign_tiny.txt`, which
//! every binary that runs `Campaign::tiny()` holds it to; and the FNV-1a
//! digest the golden files' hashes use.

// Each test binary compiles its own copy and uses only part of it.
#![allow(dead_code)]

pub mod golden;

use analysis::{tables, StatefulSnapshot};
use qscanner::ScanOutcome;

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks every fault-invariant section of `golden/campaign_tiny.txt`
/// against `snap`: the discovery hit lists and which QUIC targets (no-SNI,
/// then SNI) completed a handshake, both as digests, and Tables 1, 3, 4, 6.
#[track_caller]
pub fn check_stateful_sections(snap: &StatefulSnapshot) {
    let discovery = format!("{:?}{:?}{:?}", snap.zmap_v4, snap.zmap_v6, snap.tcp_open_v4);
    let successes: Vec<usize> = snap
        .quic_no_sni
        .iter()
        .chain(snap.quic_sni.iter().map(|(_, r)| r))
        .enumerate()
        .filter(|(_, r)| r.outcome == ScanOutcome::Success)
        .map(|(i, _)| i)
        .collect();
    let digest = |text: String| format!("{:#018x}\n", fnv1a(text.as_bytes()));
    let sections = [
        ("discovery", digest(discovery)),
        ("successes", digest(format!("{successes:?}"))),
        ("table1", format!("{:#?}\n", tables::table1(snap))),
        ("table3", tables::render_table3(&tables::table3(snap))),
        ("table4", format!("{:#?}\n", tables::table4(snap))),
        ("table6", format!("{:#?}\n", tables::table6(snap, 10))),
    ];
    for (name, text) in sections {
        golden::check_section("campaign_tiny.txt", name, &text);
    }
}
