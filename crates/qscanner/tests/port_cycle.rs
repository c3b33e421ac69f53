//! A scan call larger than one source-port cycle.
//!
//! Attempt a of scan index i sends from port `10_000 + (3i + a) mod 50_000`,
//! so indices 50,000 apart open their first attempts from one port, and a
//! server keys its connections by source. The fan-out runs indices up to
//! n/W apart at once; the scanner therefore fans out one cycle of 16,666
//! indices at a time, and whichever index reaches a shared flow first is the
//! lower one, at any worker count. This test puts two targets of one host
//! 50,000 indices apart, at the starts of the two workers' regions, so that
//! without the cycle the later index would reach the host first at two
//! workers and the earlier one at one worker. (Indices 16,667 apart share a
//! port too, but only from the earlier index's second attempt on, which a
//! clean handshake never makes.)

use internet::{Universe, UniverseConfig};
use qscanner::{QScanner, QuicScanResult, QuicTarget, ScanOutcome};
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, LinkProfile, Network};
use std::sync::Arc;
use telemetry::{Event, LocalMetrics, MemorySink, Telemetry};

/// The earlier of the two indices; before it, silent targets that keep
/// worker 0 busy while worker 1 starts on the later one.
const EARLY: usize = 256;
/// Indices between two attempts-0 from one source port.
const CYCLE: usize = 50_000;

fn scan(
    u: &Universe,
    targets: &[QuicTarget],
    unreachable: IpAddr,
    workers: usize,
) -> (Vec<QuicScanResult>, Vec<Event>, LocalMetrics) {
    let mut net: Network = u.build_network();
    net.set_path_profile(unreachable, LinkProfile::unreachable());
    let sink = Arc::new(MemorySink::new());
    let telemetry = Telemetry::with_sink(sink.clone());
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)), 1);
    let results = scanner.scan_many_traced(&net, targets, workers, Some(18), &telemetry);
    (results, sink.events(), telemetry.metrics.snapshot())
}

#[test]
fn a_call_past_the_port_cycle_matches_the_one_worker_run() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let host = u
        .domains
        .iter()
        .find(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
        .map(|d| {
            let host = &u.hosts[d.v4_hosts[0] as usize];
            QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(d.name.clone()))
        })
        .expect("a Cloudflare customer domain");
    // Nothing listens on a TEST-NET-2 address: its targets burn every probe
    // timeout. The unreachable one answers each first flight with ICMP, the
    // cheapest verdict, for the filler.
    let silent = QuicTarget::new(IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)), None);
    let unreachable = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 2));
    let late = EARLY + CYCLE;
    let mut targets = vec![QuicTarget::new(unreachable, None); 2 * late];
    targets[..EARLY].fill(silent);
    targets[EARLY] = host.clone();
    targets[late] = host;

    let (oracle, oracle_events, oracle_metrics) = scan(&u, &targets, unreachable, 1);
    assert_eq!(oracle[EARLY].outcome, ScanOutcome::Success);
    assert_eq!(oracle[late].outcome, ScanOutcome::Success);
    assert_eq!(oracle[1].outcome, ScanOutcome::NoReply);
    assert_eq!(oracle[late + 1].outcome, ScanOutcome::Unreachable);
    let (results, events, metrics) = scan(&u, &targets, unreachable, 2);
    assert!(results == oracle, "results diverged at two workers");
    let first_diff = events.iter().zip(&oracle_events).position(|(a, b)| a != b);
    assert!(
        events.len() == oracle_events.len() && first_diff.is_none(),
        "events diverged at two workers, first at {first_diff:?}"
    );
    assert_eq!(metrics.render(), oracle_metrics.render());
}
