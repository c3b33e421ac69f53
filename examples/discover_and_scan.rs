//! The paper's core measurement loop in miniature (§3.1 + §3.4):
//! 1. sweep an address block with the ZMap QUIC module, forcing Version
//!    Negotiation with a reserved version,
//! 2. tally the announced version sets (Figure 5's raw material),
//! 3. run the stateful QScanner against every VN responder and
//!    histogram the outcomes (Table 3's raw material).
//!
//! Run with: `cargo run --release --example discover_and_scan`

use std::collections::BTreeMap;

use its_over_9000::internet::{Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget, ScanOutcome};
use its_over_9000::quic::version::set_label;
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::{IpAddr, SocketAddr};
use its_over_9000::zmapq::modules::quic_vn::QuicVnModule;
use its_over_9000::zmapq::{ZmapConfig, ZmapScanner};

fn main() {
    let universe = Universe::generate(UniverseConfig::tiny(18));
    let network = universe.build_network();

    // 1. Stateless discovery across the whole simulated space.
    let scanner = ZmapScanner::new(ZmapConfig::new(SocketAddr::new(
        Ipv4Addr::new(192, 0, 2, 1),
        40_000,
    )));
    let module = QuicVnModule::new(7);
    let hits = scanner.scan_v4(&network, &universe.scan_prefixes(), &module);
    println!("ZMap: {} QUIC hosts found", hits.len());
    let (sent, bytes, ..) = {
        let s = network.stats.snapshot();
        (s.0, s.1, s.2)
    };
    println!("traffic: {sent} probes, {bytes} bytes sent (1200-byte padded Initials)");

    // 2. Version sets, the way Figure 5 tallies them.
    let mut sets: BTreeMap<String, usize> = BTreeMap::new();
    for hit in &hits {
        *sets.entry(set_label(&hit.versions)).or_default() += 1;
    }
    println!("\nannounced version sets:");
    let mut ranked: Vec<(&String, &usize)> = sets.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1));
    for (set, count) in ranked.iter().take(8) {
        println!("  {count:>6}  {set}");
    }

    // 3. Stateful scans of every responder (no SNI — the Table 3 left column).
    let qscanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 9);
    let targets: Vec<QuicTarget> = hits
        .iter()
        .filter(|h| h.versions.iter().any(|v| v.qscanner_compatible()))
        .map(|h| QuicTarget::new(h.addr.ip, None))
        .collect();
    let results = qscanner.scan_many(&network, &targets, 4);

    let mut outcomes: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in &results {
        let label = match &r.outcome {
            ScanOutcome::Success => "success",
            o if o.is_timeout() => "timeout",
            ScanOutcome::TransportClose { code: 0x128, .. } => "crypto error 0x128",
            ScanOutcome::TransportClose { .. } => "other close",
            ScanOutcome::VersionMismatch => "version mismatch",
            _ => "other",
        };
        *outcomes.entry(label).or_default() += 1;
    }
    println!(
        "\nstateful outcomes over {} compatible targets:",
        results.len()
    );
    for (label, count) in &outcomes {
        println!(
            "  {label:<20} {count:>6}  ({:.1}%)",
            100.0 * *count as f64 / results.len() as f64
        );
    }
}
