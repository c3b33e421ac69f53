//! `golden/campaign_tiny.txt`: `Campaign::tiny()` pinned by value, read by
//! every test binary that runs it. The file is printed by
//! `cargo test -q --test lazy_equivalence -- --ignored --nocapture print_campaign_tiny`.
//! Also the FNV-1a digest every golden file's hashes use.

// Each test binary compiles its own copy and uses only part of it.
#![allow(dead_code)]

use analysis::{tables, StatefulSnapshot};
use qscanner::ScanOutcome;

const GOLDEN: &str = include_str!("../golden/campaign_tiny.txt");

/// The text under `## {name}` in the golden file, up to the next heading.
pub fn golden(name: &str) -> &'static str {
    let heading = format!("## {name}\n");
    let start = GOLDEN
        .find(&heading)
        .unwrap_or_else(|| panic!("no `{heading}` in golden/campaign_tiny.txt"))
        + heading.len();
    let rest = &GOLDEN[start..];
    &rest[..rest.find("\n## ").map_or(rest.len(), |end| end + 1)]
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every fault-invariant section of the golden file, rendered from `snap`:
/// the discovery hit lists and which QUIC targets (no-SNI, then SNI)
/// completed a handshake, both as digests, and Tables 1, 3, 4 and 6.
pub fn stateful_sections(snap: &StatefulSnapshot) -> [(&'static str, String); 6] {
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
    [
        ("discovery", digest(discovery)),
        ("successes", digest(format!("{successes:?}"))),
        ("table1", format!("{:#?}\n", tables::table1(snap))),
        ("table3", tables::render_table3(&tables::table3(snap))),
        ("table4", format!("{:#?}\n", tables::table4(snap))),
        ("table6", format!("{:#?}\n", tables::table6(snap, 10))),
    ]
}

/// Asserts that `snap` renders every section of [`stateful_sections`] as
/// committed; `run` names the campaign in the failure message.
pub fn assert_stateful_sections(snap: &StatefulSnapshot, run: &str) {
    for (name, text) in stateful_sections(snap) {
        assert_eq!(text, golden(name), "{name} moved ({run})");
    }
}
