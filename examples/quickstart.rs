//! Quickstart: generate a small synthetic Internet, complete one stateful
//! QUIC handshake with a Cloudflare-style host, and print what the QScanner
//! learns about it (TLS properties, transport parameters, HTTP/3 headers).
//!
//! Run with: `cargo run --release --example quickstart`

use its_over_9000::internet::{Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget};
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::IpAddr;

fn main() {
    // A 5%-scale universe at calendar week 18 of 2021 (the paper's main
    // measurement week).
    let universe = Universe::generate(UniverseConfig::tiny(18));
    let network = universe.build_network();
    println!(
        "universe: {} hosts, {} domains, {} UDP sockets",
        universe.hosts.len(),
        universe.domains.len(),
        network.udp_socket_count()
    );

    // Pick a Cloudflare edge host and one customer domain hosted on it.
    let domain = universe
        .domains
        .iter()
        .find(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
        .expect("cloudflare customer domain");
    let host = &universe.hosts[domain.v4_hosts[0] as usize];
    let addr = IpAddr::V4(host.v4.expect("v4 host"));
    println!("\ntarget: {} (SNI {})", addr, domain.name);

    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);

    // With SNI: the handshake completes and every property is extracted.
    let result = scanner.scan_one(
        &network,
        &QuicTarget::new(addr, Some(domain.name.clone())),
        0,
    );
    println!("\n--- with SNI ---");
    println!("outcome: {:?}", result.outcome);
    if let Some(tls) = &result.tls {
        println!("TLS version: {}", tls.tls_version.label());
        println!("cipher: {}", tls.cipher.name());
        println!("key exchange: {}", tls.group.name());
        println!("certificate subject: {}", tls.certificates[0].subject);
    }
    if let Some(v) = result.version {
        println!("QUIC version: {v}");
    }
    if let Some(tp) = &result.transport_params {
        println!("initial_max_data: {}", tp.initial_max_data);
        println!(
            "initial_max_stream_data: {}",
            tp.initial_max_stream_data_bidi_local
        );
        println!("max_udp_payload_size: {}", tp.max_udp_payload_size);
    }
    if let Some(server) = result.server_header() {
        println!("HTTP Server: {server}");
    }

    // Without SNI: Cloudflare requires SNI — the handshake dies with the
    // generic crypto error 0x128, the most common error of the paper's
    // stateful scans (Table 3).
    let result = scanner.scan_one(&network, &QuicTarget::new(addr, None), 1);
    println!("\n--- without SNI ---");
    println!("outcome: {:?}", result.outcome);
}
