//! Cross-crate protocol integration: the full stacks talking to each other
//! through the simulated network, plus failure injection (loss, tampering).

use std::sync::Arc;

use its_over_9000::goscanner::{Goscanner, TlsTarget};
use its_over_9000::h3::request;
use its_over_9000::internet::servers::{HttpProfile, QuicHost};
use its_over_9000::internet::{Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget, ScanOutcome};
use its_over_9000::quic::server::EndpointConfig;
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::{Duration, IpAddr, Network, SocketAddr};

fn vantage() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77))
}

#[test]
fn quic_scan_through_universe_extracts_everything() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let scanner = QScanner::new(vantage(), 42);

    // Scan one Facebook edge POP: the fingerprint combination the paper
    // uses to identify off-net deployments (§5.2).
    let pop = u
        .hosts
        .iter()
        .find(|h| h.provider == "facebook-pop")
        .unwrap();
    let target = QuicTarget::new(
        IpAddr::V4(pop.v4.unwrap()),
        Some("scontent-1.fbcdn.example.net".into()),
    );
    let r = scanner.scan_one(&net, &target, 0);
    assert_eq!(r.outcome, ScanOutcome::Success, "{:?}", r.outcome);
    assert_eq!(r.server_header(), Some("proxygen-bolt"));
    let tp = r.transport_params.as_ref().unwrap();
    assert_eq!(
        tp.initial_max_stream_data_uni, 67_584,
        "the edge-POP config"
    );
    assert!(matches!(tp.max_udp_payload_size, 1404 | 1500));

    // And one gvs POP in the same eyeball AS.
    let gvs = u.hosts.iter().find(|h| h.provider == "google-pop").unwrap();
    let r = scanner.scan_one(&net, &QuicTarget::new(IpAddr::V4(gvs.v4.unwrap()), None), 1);
    assert_eq!(r.outcome, ScanOutcome::Success);
    assert_eq!(r.server_header(), Some("gvs 1.0"));
}

#[test]
fn tls_and_quic_see_same_certificate_with_sni() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let domain = u
        .domains
        .iter()
        .find(|d| {
            d.name.contains("cf-customer")
                && d.v4_hosts.first().is_some_and(|&hi| {
                    let h = &u.hosts[hi as usize];
                    h.behavior == its_over_9000::internet::HostBehavior::RejectNoSni
                        && !h.strict_sni
                })
        })
        .unwrap();
    let host = &u.hosts[domain.v4_hosts[0] as usize];
    let addr = IpAddr::V4(host.v4.unwrap());

    let qscan = QScanner::new(vantage(), 5);
    let q = qscan.scan_one(&net, &QuicTarget::new(addr, Some(domain.name.clone())), 0);
    assert_eq!(q.outcome, ScanOutcome::Success);

    let goscan = Goscanner::new(vantage(), 5);
    let t = goscan.scan_target(
        &net,
        &TlsTarget {
            addr,
            domain: Some(domain.name.clone()),
        },
        0,
    );
    assert!(t.handshake_ok(), "{:?}", t.error);

    let q_tls = q.tls.unwrap();
    let t_tls = t.tls.clone().unwrap();
    assert_eq!(
        q_tls.certificates[0].fingerprint(),
        t_tls.certificates[0].fingerprint(),
        "Table 5's ≥98% row"
    );
    // And the TCP response advertises QUIC via Alt-Svc.
    let alt = t.alt_services();
    assert!(alt.iter().any(|s| s.alpn.starts_with("h3")), "{alt:?}");
}

#[test]
fn google_no_sni_divergence_between_stacks() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let host = u
        .hosts
        .iter()
        .find(|h| {
            h.provider == "google" && h.behavior == its_over_9000::internet::HostBehavior::Normal
        })
        .unwrap();
    let addr = IpAddr::V4(host.v4.unwrap());

    // QUIC without SNI: valid wildcard certificate.
    let qscan = QScanner::new(vantage(), 6);
    let q = qscan.scan_one(&net, &QuicTarget::new(addr, None), 0);
    assert_eq!(q.outcome, ScanOutcome::Success);
    let q_cert = &q.tls.unwrap().certificates[0];
    assert!(!q_cert.is_self_signed());

    // TCP without SNI: the self-signed "invalid2.invalid" error certificate
    // and no ALPN — the paper's §5.1 findings.
    let goscan = Goscanner::new(vantage(), 6);
    let t = goscan.scan_target(&net, &TlsTarget { addr, domain: None }, 0);
    assert!(t.handshake_ok());
    let t_tls = t.tls.unwrap();
    assert!(t_tls.certificates[0].is_self_signed());
    assert_eq!(t_tls.certificates[0].subject, "invalid2.invalid");
    assert!(t_tls.alpn.is_none(), "no ALPN without SNI on Google TCP");
}

#[test]
fn packet_loss_is_absorbed_until_retries_are_exhausted() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let mut net = u.build_network();
    net.set_loss_permille(1000); // total loss
    let host = u
        .hosts
        .iter()
        .find(|h| h.provider == "facebook-pop")
        .unwrap();
    let scanner = QScanner::new(vantage(), 7);
    let r = scanner.scan_one(
        &net,
        &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None),
        0,
    );
    assert_eq!(r.outcome, ScanOutcome::NoReply);
    assert!(r.outcome.is_timeout());

    // Moderate loss: PTO retransmission plus the per-target retry budget
    // absorb it — every attempt still completes the handshake.
    let mut net = u.build_network();
    net.set_loss_permille(200);
    let mut successes = 0;
    for i in 0..40 {
        let r = scanner.scan_one(
            &net,
            &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None),
            i + 1,
        );
        if r.outcome == ScanOutcome::Success {
            successes += 1;
        }
    }
    assert_eq!(successes, 40, "only {successes}/40 under 20% loss");

    // Catastrophic loss exhausts the retry budget: failures reappear and
    // every one of them is classified as a timeout, never a crash.
    let mut net = u.build_network();
    net.set_loss_permille(950);
    let mut timeouts = 0;
    for i in 0..10 {
        let r = scanner.scan_one(
            &net,
            &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None),
            i + 100,
        );
        if r.outcome.is_timeout() {
            timeouts += 1;
        }
    }
    assert!(timeouts > 0, "95% loss must exceed the retry budget");
}

#[test]
fn corrupted_datagrams_do_not_crash_the_server() {
    let ca = its_over_9000::qtls::CertificateAuthority::new("CA", 3);
    let cert = ca.issue(1, "robust.example", vec![], 0, 99, [8; 32]);
    let tls = Arc::new(its_over_9000::qtls::ServerConfig::single_cert(cert));
    let mut net = Network::new(11);
    let addr = SocketAddr::new(Ipv4Addr::new(10, 77, 0, 1), 443);
    let profile = HttpProfile {
        server_header: "robust".into(),
        alt_svc: None,
        extra_headers: vec![],
    };
    net.bind_udp(
        addr,
        Box::new(QuicHost::new(EndpointConfig::new(tls), profile, 1)),
    );

    let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 77), 40000);
    // Fuzz-ish garbage: truncated long headers, random bytes, short packets.
    for i in 0..200u32 {
        let mut junk = vec![(i % 256) as u8; (i as usize % 60) + 1];
        junk[0] = if i.is_multiple_of(2) { 0xc0 } else { 0x40 };
        let _ = net.udp_send(src, addr, &junk);
    }
    // The host still completes a legitimate handshake afterwards.
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 78)), 12);
    let r = scanner.scan_one(
        &net,
        &QuicTarget::new(addr.ip, Some("robust.example".into())),
        9,
    );
    assert_eq!(r.outcome, ScanOutcome::Success, "{:?}", r.outcome);
}

#[test]
fn virtual_clock_accounts_scan_pacing() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let before = net.clock.now();
    let cfg = {
        let mut c = its_over_9000::zmapq::ZmapConfig::new(SocketAddr::new(
            Ipv4Addr::new(192, 0, 2, 9),
            41000,
        ));
        c.rate_pps = 100_000;
        c
    };
    let scanner = its_over_9000::zmapq::ZmapScanner::new(cfg);
    let module = its_over_9000::zmapq::modules::quic_vn::QuicVnModule::new(3);
    let prefix = [its_over_9000::simnet::Prefix::new(
        Ipv4Addr::new(10, 0, 0, 0),
        16,
    )];
    scanner.scan_v4(&net, &prefix, &module);
    let elapsed = net.clock.now().since(before);
    // 65 536 probes at 100 kpps ≈ 0.65 virtual seconds (plus RTTs).
    assert!(
        elapsed > Duration::from_millis(500),
        "virtual time {elapsed:?}"
    );
}

#[test]
fn h3_head_request_roundtrips_through_all_layers() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let domain = u
        .domains
        .iter()
        .find(|d| d.name.contains("ls-site") && !d.v4_hosts.is_empty())
        .unwrap();
    let host = &u.hosts[domain.v4_hosts[0] as usize];
    let scanner = QScanner::new(vantage(), 20);
    let r = scanner.scan_one(
        &net,
        &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(domain.name.clone())),
        0,
    );
    assert_eq!(r.outcome, ScanOutcome::Success);
    let http = r.http.as_ref().expect("HTTP/3 response");
    assert_eq!(http.status, 200);
    assert!(http.body.is_empty(), "HEAD response has no body");
    assert_eq!(http.header("server"), Some("LiteSpeed"));

    // The response parses with the plain request helpers too.
    let bytes = request::encode_response(200, &http.headers, b"");
    assert!(request::decode_response(&bytes).is_some());
}
