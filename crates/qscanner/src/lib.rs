//! QScanner: the paper's stateful QUIC scanner (§3.4).
//!
//! Completes full QUIC handshakes with targets — IPv4/IPv6 addresses,
//! optionally combined with a domain used as SNI — and extracts QUIC
//! transport parameters, TLS properties and the headers of an HTTP/3 HEAD
//! request. Scans parallelize across worker threads, mirroring the paper's
//! parallelized quic-go-based scanner. The offered versions, attempt and
//! probe-timeout limits and the per-target budget are the paper's one
//! configuration, fixed in [`scan`]; a [`QScanner`] only chooses its source
//! address, seed and streaming batch size.
//!
//! Six entry points, all on [`QScanner`]: `scan_one` and `scan_one_traced`
//! scan a single target on the caller's thread; `scan_many`,
//! `scan_many_stats`, `scan_many_traced` and `scan_stream` go through the
//! one private driver in [`scan`], which hands the target indices to
//! [`simnet::fan_out`] — work stealing over a [`StealQueue`] (re-exported
//! here; it lives in `simnet` with the fan-out), results merged in
//! scan-index order, every worker sending through its own
//! `simnet::NetShard`. A one-worker (or one-target) scan is that same
//! driver run as one shard on the caller's thread.
//!
//! Module layout:
//! - [`outcome`]: targets, the [`ScanOutcome`] taxonomy, result records;
//! - [`retry`]: the per-target budget and PTO/backoff schedules;
//! - [`scan`]: the [`QScanner`] driver, untraced and traced;
//! - [`export`]: CSV result export.
//!
//! Traced scans (`scan_many_traced`) emit qlog-style events through the
//! `telemetry` crate; event streams are byte-identical at any worker count
//! because timestamps are flow-local virtual time and the driver merges
//! per-target event lists in scan-index order.

pub mod export;
pub mod outcome;
pub mod retry;
pub mod scan;

pub use outcome::{QuicScanResult, QuicTarget, ScanOutcome};
pub use scan::{QScanner, DEFAULT_STREAM_BATCH_TARGETS};
pub use simnet::StealQueue;

#[cfg(test)]
mod tests {
    use super::*;
    use internet::{Universe, UniverseConfig};
    use simnet::addr::Ipv4Addr;
    use simnet::{IpAddr, SocketAddr};

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::tiny(18))
    }

    fn vantage() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
    }

    #[test]
    fn sni_scan_of_cloudflare_succeeds_with_full_properties() {
        let u = universe();
        let net = u.build_network();
        let scanner = QScanner::new(vantage(), 1);
        let domain = u
            .domains
            .iter()
            .find(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
            .unwrap();
        let host = &u.hosts[domain.v4_hosts[0] as usize];
        let target = QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(domain.name.clone()));
        let r = scanner.scan_one(&net, &target, 0);
        assert_eq!(r.outcome, ScanOutcome::Success, "{:?}", r.outcome);
        assert_eq!(r.server_header(), Some("cloudflare"));
        let tp = r.transport_params.as_ref().unwrap();
        assert_eq!(tp.initial_max_stream_data_bidi_local, 1_048_576);
        assert!(r.tls.unwrap().certificates[0].matches_name(&domain.name));
    }

    #[test]
    fn no_sni_scan_of_cloudflare_yields_0x128() {
        let u = universe();
        let net = u.build_network();
        let scanner = QScanner::new(vantage(), 1);
        let host = u.hosts.iter().find(|h| h.provider == "cloudflare").unwrap();
        let target = QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None);
        let r = scanner.scan_one(&net, &target, 0);
        assert!(r.outcome.is_crypto_0x128(), "{:?}", r.outcome);
        if let ScanOutcome::TransportClose { reason, .. } = &r.outcome {
            assert_eq!(reason, "handshake failure"); // Cloudflare wording
        }
    }

    #[test]
    fn google_rollout_host_version_mismatches() {
        let u = universe();
        let net = u.build_network();
        let scanner = QScanner::new(vantage(), 1);
        let host = u
            .hosts
            .iter()
            .find(|h| h.behavior == internet::HostBehavior::GoogleRollout)
            .unwrap();
        let target = QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None);
        let r = scanner.scan_one(&net, &target, 0);
        assert_eq!(r.outcome, ScanOutcome::VersionMismatch, "{:?}", r.outcome);
    }

    #[test]
    fn vn_only_middlebox_times_out() {
        let u = universe();
        let net = u.build_network();
        let scanner = QScanner::new(vantage(), 1);
        let host = u.hosts.iter().find(|h| h.provider == "akamai").unwrap();
        let target = QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None);
        let r = scanner.scan_one(&net, &target, 0);
        // Accepted-version Initials get pure silence from the middlebox.
        assert_eq!(r.outcome, ScanOutcome::NoReply);
        assert!(r.outcome.is_timeout());
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let u = universe();
        let scanner = QScanner::new(vantage(), 1);
        let targets: Vec<QuicTarget> = u
            .hosts
            .iter()
            .filter(|h| h.provider == "cloudflare")
            .take(80)
            .map(|h| QuicTarget::new(IpAddr::V4(h.v4.unwrap()), None))
            .collect();
        // Fresh networks per run: server endpoints keep per-flow state.
        let seq = scanner.scan_many(&u.build_network(), &targets, 1);
        let par = scanner.scan_many(&u.build_network(), &targets, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_under_faults() {
        let u = universe();
        let scanner = QScanner::new(vantage(), 1);
        let targets: Vec<QuicTarget> = u
            .hosts
            .iter()
            .filter(|h| h.v4.is_some())
            .take(80)
            .map(|h| QuicTarget::new(IpAddr::V4(h.v4.unwrap()), None))
            .collect();
        let lossy = || {
            let mut net = u.build_network();
            net.set_default_profile(simnet::LinkProfile::lossy(50));
            net
        };
        let seq = scanner.scan_many(&lossy(), &targets, 1);
        let par = scanner.scan_many(&lossy(), &targets, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.outcome, b.outcome, "{:?}", a.addr);
        }
    }

    #[test]
    fn lossy_paths_still_complete_virtually_all_handshakes() {
        // The headline robustness criterion: at 50‰ loss on every path,
        // ≥ 99% of handshakes against responsive hosts complete via PTO
        // retransmission + per-target retries.
        let u = universe();
        let scanner = QScanner::new(vantage(), 1);
        let targets: Vec<QuicTarget> = u
            .hosts
            .iter()
            .filter(|h| h.provider == "cloudflare" && h.v4.is_some())
            .take(80)
            .map(|h| QuicTarget::new(IpAddr::V4(h.v4.unwrap()), None))
            .collect();
        assert!(targets.len() >= 40, "need a meaningful sample");
        let baseline = scanner.scan_many(&u.build_network(), &targets, 1);
        let mut net = u.build_network();
        net.set_default_profile(simnet::LinkProfile::lossy(50));
        let lossy = scanner.scan_many(&net, &targets, 1);
        let mut responsive = 0u32;
        let mut matched = 0u32;
        for (a, b) in baseline.iter().zip(&lossy) {
            if a.outcome == ScanOutcome::Success || a.outcome.is_crypto_0x128() {
                responsive += 1;
                if a.outcome == b.outcome {
                    matched += 1;
                }
            }
        }
        assert!(responsive >= 40);
        assert!(
            f64::from(matched) >= 0.99 * f64::from(responsive),
            "only {matched}/{responsive} verdicts survived 50‰ loss"
        );
    }

    #[test]
    fn unreachable_target_is_classified() {
        let u = universe();
        let mut net = u.build_network();
        let host = u.hosts.iter().find(|h| h.v4.is_some()).unwrap();
        let addr = IpAddr::V4(host.v4.unwrap());
        net.set_path_profile(addr, simnet::LinkProfile::unreachable());
        let scanner = QScanner::new(vantage(), 1);
        let r = scanner.scan_one(&net, &QuicTarget::new(addr, None), 0);
        assert_eq!(r.outcome, ScanOutcome::Unreachable);
        assert!(r.outcome.is_timeout());
    }

    #[test]
    fn rate_limited_silent_host_is_classified() {
        // A middlebox that never answers, behind an aggressive rate
        // limiter: the first datagrams vanish silently, the rest bounce
        // with pushback — distinguishable from plain silence.
        let u = universe();
        let mut net = u.build_network();
        let host = u
            .hosts
            .iter()
            .find(|h| h.behavior == internet::HostBehavior::VnOnly && h.v4.is_some())
            .unwrap();
        let addr = IpAddr::V4(host.v4.unwrap());
        net.set_path_profile(
            addr,
            simnet::LinkProfile {
                rate_limit: Some(simnet::ReplyRateLimit {
                    burst: 2,
                    drop_permille: 1000,
                }),
                ..simnet::LinkProfile::ideal()
            },
        );
        let scanner = QScanner::new(vantage(), 1);
        let r = scanner.scan_one(&net, &QuicTarget::new(addr, None), 0);
        assert_eq!(r.outcome, ScanOutcome::RateLimited);
        assert!(r.outcome.is_timeout());
    }

    #[test]
    fn garbage_replies_classify_as_stalled() {
        use simnet::{Network, ServiceCtx, UdpService};
        struct Garbage;
        impl UdpService for Garbage {
            fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, _d: &[u8]) {
                ctx.reply(vec![0x40, 0xde, 0xad, 0xbe, 0xef]);
            }
        }
        let mut net = Network::new(9);
        let addr = IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9));
        net.bind_udp(SocketAddr::new(addr, 443), Box::new(Garbage));
        let scanner = QScanner::new(vantage(), 1);
        let r = scanner.scan_one(&net, &QuicTarget::new(addr, None), 0);
        assert_eq!(r.outcome, ScanOutcome::Stalled);
        assert!(r.outcome.is_timeout());
    }

    #[test]
    fn non_default_port_is_honored() {
        use simnet::{Network, ServiceCtx, UdpService};
        struct RecordPort(std::sync::Arc<std::sync::atomic::AtomicU16>);
        impl UdpService for RecordPort {
            fn on_datagram(&mut self, _ctx: &mut ServiceCtx<'_>, _from: SocketAddr, _d: &[u8]) {
                self.0.store(8443, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let hit = std::sync::Arc::new(std::sync::atomic::AtomicU16::new(0));
        let mut net = Network::new(9);
        let addr = IpAddr::V4(Ipv4Addr::new(10, 9, 9, 10));
        net.bind_udp(
            SocketAddr::new(addr, 8443),
            Box::new(RecordPort(hit.clone())),
        );
        let scanner = QScanner::new(vantage(), 1);
        // Alt-Svc style target on 8443: the scanner must not probe 443.
        let r = scanner.scan_one(&net, &QuicTarget::with_port(addr, 8443, None), 0);
        assert_eq!(hit.load(std::sync::atomic::Ordering::Relaxed), 8443);
        assert_eq!(r.outcome, ScanOutcome::NoReply); // service stays silent
    }

    #[test]
    fn traced_scan_matches_untraced_verdicts() {
        use std::sync::Arc;
        use telemetry::{MemorySink, Telemetry};
        let u = universe();
        let scanner = QScanner::new(vantage(), 1);
        let targets: Vec<QuicTarget> = u
            .hosts
            .iter()
            .filter(|h| h.v4.is_some())
            .take(20)
            .map(|h| QuicTarget::new(IpAddr::V4(h.v4.unwrap()), None))
            .collect();
        let plain = scanner.scan_many(&u.build_network(), &targets, 1);
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let traced = scanner.scan_many_traced(&u.build_network(), &targets, 1, Some(7), &tel);
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.outcome, b.outcome, "{:?}", a.addr);
        }
        // One outcome_decided per target, in scan-index order, with the
        // label matching the verdict.
        let events = sink.events();
        let outcomes: Vec<&telemetry::Event> = events
            .iter()
            .filter(|e| matches!(e.kind, telemetry::EventKind::OutcomeDecided { .. }))
            .collect();
        assert_eq!(outcomes.len(), targets.len());
        for (i, (e, r)) in outcomes.iter().zip(&traced).enumerate() {
            assert_eq!(e.flow, i as u64);
            assert_eq!(e.week, Some(7));
            if let telemetry::EventKind::OutcomeDecided { outcome } = &e.kind {
                assert_eq!(outcome, &r.outcome.label());
            }
        }
        // Metrics agree with the verdict tally.
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("qscanner.targets"), targets.len() as u64);
        let successes = traced
            .iter()
            .filter(|r| r.outcome == ScanOutcome::Success)
            .count() as u64;
        assert_eq!(snap.counter("qscanner.outcome.success"), successes);
    }

    #[test]
    fn traced_success_timeline_is_complete() {
        use std::sync::Arc;
        use telemetry::{MemorySink, Telemetry};
        let u = universe();
        let net = u.build_network();
        let scanner = QScanner::new(vantage(), 1);
        let domain = u
            .domains
            .iter()
            .find(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
            .unwrap();
        let host = &u.hosts[domain.v4_hosts[0] as usize];
        let target = QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(domain.name.clone()));
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let mut metrics = telemetry::LocalMetrics::new();
        let (r, events) = scanner.scan_one_traced(&net, &target, 3, None, &mut metrics);
        tel.metrics.submit(metrics);
        assert_eq!(r.outcome, ScanOutcome::Success);
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        for expected in [
            "attempt_started",
            "key_derived",
            "packet_sent",
            "packet_received",
            "handshake_phase",
            "outcome_decided",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Timestamps are monotone flow-local virtual time; seq is dense.
        for (i, w) in events.windows(2).enumerate() {
            assert!(w[1].t_us >= w[0].t_us, "time went backwards at {i}");
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert!(events.iter().all(|e| e.flow == 3));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("qscanner.attempts"), 1);
        assert_eq!(
            snap.histogram("qscanner.scan_us").map(|h| h.count()),
            Some(1)
        );
    }
}
