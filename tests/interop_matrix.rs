//! Interop matrix: the QScanner must complete handshakes with every
//! implementation in the catalogue (the paper verified its scanner against
//! the QUIC Interop Runner; §3.4). One representative host per
//! implementation, scanned with SNI.

use std::collections::{BTreeMap, BTreeSet};

use its_over_9000::internet::{HostBehavior, Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget, ScanOutcome};
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::IpAddr;

#[test]
fn qscanner_interops_with_every_implementation() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 99)), 77);

    // One scannable representative per implementation (skip pure-middlebox
    // behaviours that never handshake by design).
    let mut representatives: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, h) in u.hosts.iter().enumerate() {
        if matches!(h.behavior, HostBehavior::Normal | HostBehavior::RejectNoSni)
            && h.v4.is_some()
            && !h.strict_sni
            && h.accept_versions.iter().any(|v| v.qscanner_compatible())
        {
            representatives.entry(h.impl_name).or_insert(i);
        }
    }
    assert!(
        representatives.len() >= 7,
        "catalogue coverage too thin: {representatives:?}"
    );

    let mut failed: BTreeSet<&str> = BTreeSet::new();
    for (idx, (impl_name, &hi)) in representatives.iter().enumerate() {
        let host = &u.hosts[hi];
        // Use a name the host's certificate covers.
        let sni = host
            .cert_names
            .first()
            .map(|n| n.trim_start_matches("*.").to_string());
        let sni = sni.map(|n| {
            if host.cert_names[0].starts_with("*.") {
                format!("svc.{n}")
            } else {
                n
            }
        });
        let r = scanner.scan_one(
            &net,
            &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), sni),
            idx as u64,
        );
        if r.outcome != ScanOutcome::Success {
            eprintln!("{impl_name}: {:?}", r.outcome);
            failed.insert(impl_name);
            continue;
        }
        // Every successful handshake must yield the fingerprint triplet.
        assert!(
            r.transport_params.is_some(),
            "{impl_name}: no transport params"
        );
        assert!(r.tls.is_some(), "{impl_name}: no TLS info");
        assert!(r.server_header().is_some(), "{impl_name}: no Server header");
    }
    assert!(
        failed.is_empty(),
        "implementations failing interop: {failed:?}"
    );
}

#[test]
fn retry_validating_hosts_are_scannable() {
    let u = Universe::generate(UniverseConfig::tiny(18));
    let net = u.build_network();
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 98)), 78);
    let retry_hosts: Vec<_> = u.hosts.iter().filter(|h| h.use_retry).collect();
    assert!(
        !retry_hosts.is_empty(),
        "universe must contain Retry deployments"
    );
    for (i, host) in retry_hosts.iter().take(4).enumerate() {
        let sni = format!("svc.{}", host.cert_names[0].trim_start_matches("*."));
        let r = scanner.scan_one(
            &net,
            &QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(sni)),
            i as u64,
        );
        assert_eq!(
            r.outcome,
            ScanOutcome::Success,
            "retry host {} ({}): {:?}",
            host.v4.unwrap(),
            host.impl_name,
            r.outcome
        );
    }
}
