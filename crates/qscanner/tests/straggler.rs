//! Straggler regression test for the work-stealing scan driver.
//!
//! The scenario the scheduler exists for: a contiguous slice of targets that
//! all burn their full PTO/attempt budget (silent VN-only middleboxes under
//! packet loss) would serialize the sweep behind whichever worker a static
//! split handed it to. Work stealing must spread the slice — while leaving
//! results, the merged telemetry event stream, and the merged metrics
//! snapshot byte-identical to the one-worker run at any worker count. The
//! one-worker run is the oracle: it is the same driver on the caller's
//! thread, so any difference is the scheduler leaking into a record.

use std::sync::Arc;

use internet::{Universe, UniverseConfig};
use qscanner::{QScanner, QuicScanResult, QuicTarget, ScanOutcome};
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, Network};
use telemetry::{Event, MemorySink, MetricsSnapshot, Telemetry};

fn vantage() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
}

/// 96 targets: fast Cloudflare handshakes everywhere except one contiguous
/// slice (indices 24..48) of silent VN-only middleboxes, each of which burns
/// the whole PTO schedule across every attempt before the scanner gives up.
fn skewed_targets(u: &Universe) -> Vec<QuicTarget> {
    // SNI scans of Cloudflare customer domains — the handshake-completing
    // fast path (a no-SNI probe of the same host ends in a 0x128 close).
    let fast: Vec<QuicTarget> = u
        .domains
        .iter()
        .filter(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
        .map(|d| {
            let host = &u.hosts[d.v4_hosts[0] as usize];
            QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(d.name.clone()))
        })
        .collect();
    let slow: Vec<&internet::HostSpec> = u
        .hosts
        .iter()
        .filter(|h| h.provider == "akamai" && h.v4.is_some())
        .collect();
    assert!(
        !fast.is_empty() && !slow.is_empty(),
        "universe lacks needed providers"
    );
    let mut targets = Vec::with_capacity(96);
    for i in 0..96 {
        if (24..48).contains(&i) {
            let host = slow[i % slow.len()];
            targets.push(QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None));
        } else {
            targets.push(fast[i % fast.len()].clone());
        }
    }
    targets
}

/// Fresh network per run (server endpoints keep per-flow state); 50‰ is the
/// calibrated fault plan from the loss-tolerance work.
fn net_with_loss(u: &Universe, loss_permille: u32) -> Network {
    let mut net = u.build_network();
    net.set_default_profile(simnet::LinkProfile::lossy(loss_permille));
    net
}

/// One traced run; returns (results, events, merged metrics).
fn run_traced(
    scanner: &QScanner,
    u: &Universe,
    targets: &[QuicTarget],
    workers: usize,
    loss_permille: u32,
) -> (Vec<QuicScanResult>, Vec<Event>, MetricsSnapshot) {
    let sink = Arc::new(MemorySink::new());
    let telemetry = Telemetry::with_sink(sink.clone());
    let net = net_with_loss(u, loss_permille);
    let results = scanner.scan_many_traced(&net, targets, workers, Some(18), &telemetry);
    (results, sink.events(), telemetry.metrics.snapshot())
}

#[test]
fn traced_records_match_the_one_worker_run_byte_for_byte() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let scanner = QScanner::new(vantage(), 1);
    let targets = skewed_targets(&u);

    for loss in [0u32, 50] {
        let (oracle, oracle_events, oracle_metrics) = run_traced(&scanner, &u, &targets, 1, loss);
        // The skew is real: the slow slice actually stalls (silence, not loss).
        assert!(
            (24..48).all(|i| oracle[i].outcome == ScanOutcome::NoReply),
            "slow slice should time out silently at {loss}‰"
        );
        let successes = oracle
            .iter()
            .filter(|r| r.outcome == ScanOutcome::Success)
            .count();
        assert!(
            successes >= 40,
            "fast targets should mostly succeed, got {successes}"
        );
        let oracle_json: String = oracle_events.iter().map(|e| e.to_json()).collect();

        for workers in [2usize, 4, 8] {
            let (results, events, metrics) = run_traced(&scanner, &u, &targets, workers, loss);
            assert_eq!(
                results, oracle,
                "results diverged at {workers} workers, {loss}‰"
            );
            assert_eq!(
                events, oracle_events,
                "events diverged at {workers} workers, {loss}‰"
            );
            // Byte-identical, not merely structurally equal.
            let json: String = events.iter().map(|e| e.to_json()).collect();
            assert_eq!(json, oracle_json);
            assert_eq!(
                metrics, oracle_metrics,
                "metrics diverged at {workers} workers, {loss}‰"
            );
            assert_eq!(metrics.render(), oracle_metrics.render());
        }
    }
}

#[test]
fn stealing_spreads_the_slow_slice() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let scanner = QScanner::new(vantage(), 1);
    let targets = skewed_targets(&u);

    let (results, counts) = scanner.scan_many_stats(&net_with_loss(&u, 50), &targets, 4);
    assert_eq!(results.len(), targets.len());
    assert_eq!(counts.len(), 4);
    assert_eq!(
        counts.iter().sum::<usize>(),
        targets.len(),
        "counts {counts:?}"
    );
    // Work actually spread: no worker swept the whole space, and more than
    // one worker scanned something. (Stronger balance assertions would race
    // the OS scheduler on single-CPU runners.)
    assert!(
        *counts.iter().max().unwrap() < targets.len(),
        "counts {counts:?}"
    );
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 2,
        "counts {counts:?}"
    );
}

#[test]
fn untraced_records_match_the_one_worker_run() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let scanner = QScanner::new(vantage(), 1);
    let targets = skewed_targets(&u);

    for loss in [0u32, 50] {
        let oracle = scanner.scan_many(&net_with_loss(&u, loss), &targets, 1);
        for workers in [2usize, 3, 4, 5, 8] {
            let results = scanner.scan_many(&net_with_loss(&u, loss), &targets, workers);
            assert_eq!(results, oracle, "diverged at {workers} workers, {loss}‰");
        }
        // Tracing is an observer: the traced driver records the same scans.
        let (traced, _, _) = run_traced(&scanner, &u, &targets, 4, loss);
        assert_eq!(traced, oracle, "traced results diverged at {loss}‰");
    }
}

#[test]
fn streaming_driver_matches_buffered_scan() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let mut scanner = QScanner::new(vantage(), 1);
    let targets = skewed_targets(&u);
    let baseline = scanner.scan_many(&net_with_loss(&u, 50), &targets, 1);

    // Tiny batches force many batch boundaries (96 targets / 16 = 6 batches),
    // each fanned out in parallel.
    scanner.stream_batch_targets = 16;
    for workers in [1usize, 4, 8] {
        let mut streamed = Vec::new();
        let scanned = scanner.scan_stream(
            &net_with_loss(&u, 50),
            targets.iter().cloned(),
            workers,
            |index, r| {
                assert_eq!(index, streamed.len() as u64, "sink fed out of order");
                streamed.push(r);
            },
        );
        assert_eq!(scanned, targets.len() as u64);
        assert_eq!(
            streamed, baseline,
            "streamed results diverged at {workers} workers"
        );
    }
}
