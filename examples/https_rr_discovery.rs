//! Lightweight QUIC discovery via the HTTPS DNS resource record (§2.2, §3.2):
//! resolve a top list, look for h3 ALPN values and address hints in HTTPS
//! RRs — a single recursive query per domain — then verify the hinted
//! endpoints with stateful QUIC handshakes.
//!
//! Also demonstrates the real wire path: one query is sent through the
//! simulated network to a DNS server instead of the in-process resolver.
//!
//! Run with: `cargo run --release --example https_rr_discovery`

use std::sync::Arc;

use its_over_9000::dns::massdns::{resolve_over_network, BulkResolver};
use its_over_9000::dns::resolver::Resolver;
use its_over_9000::dns::rr::QType;
use its_over_9000::dns::server::DnsServer;
use its_over_9000::internet::universe::InputList;
use its_over_9000::internet::{Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget, ScanOutcome};
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::{IpAddr, SocketAddr};

fn main() {
    let universe = Universe::generate(UniverseConfig::tiny(18));
    let mut network = universe.build_network();
    let zone = Arc::new(universe.zone());
    let resolver = Resolver::new(zone);

    // Bind a recursive resolver into the simulated network (like the
    // paper's local Unbound) and resolve one query over the wire.
    let dns_addr = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 53), 53);
    network.bind_udp(dns_addr, Box::new(DnsServer::new(resolver.clone())));
    let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 5353);
    let example = universe
        .domains
        .iter()
        .find(|d| d.https_rr_since.map(|w| w <= 18).unwrap_or(false))
        .expect("an HTTPS-RR domain");
    let (rcode, answers) =
        resolve_over_network(&network, src, dns_addr, 1, &example.name, QType::Https)
            .expect("wire resolution");
    println!(
        "wire query for {} -> {rcode:?}, {} answer(s)",
        example.name,
        answers.len()
    );

    // Bulk-resolve the Alexa-style list (MassDNS path).
    let bulk = BulkResolver::new(resolver);
    let list = universe.input_list(InputList::Alexa);
    let resolved = bulk.resolve_list(&list);
    let with_rr: Vec<_> = resolved
        .iter()
        .filter(|r| r.https_indicates_quic())
        .collect();
    println!(
        "\nAlexa list: {} domains resolved, {} with an h3 HTTPS RR ({:.1}%)",
        resolved.len(),
        with_rr.len(),
        100.0 * with_rr.len() as f64 / resolved.len() as f64
    );

    // Scan the hinted endpoints.
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 3);
    let mut success = 0usize;
    let mut total = 0usize;
    for r in &with_rr {
        for hint in r.https_ipv4_hints() {
            total += 1;
            let target = QuicTarget::new(IpAddr::V4(hint), Some(r.domain.clone()));
            let result = scanner.scan_one(&network, &target, total as u64);
            if result.outcome == ScanOutcome::Success {
                success += 1;
                if success <= 3 {
                    println!(
                        "  {} via {hint}: server={:?} alpn={:?}",
                        r.domain,
                        result.server_header().unwrap_or("-"),
                        result
                            .tls
                            .as_ref()
                            .and_then(|t| t.alpn.clone())
                            .map(|a| String::from_utf8_lossy(&a).into_owned())
                    );
                }
            }
        }
    }
    println!("\nstateful verification: {success}/{total} hinted endpoints handshake OK");
}
