//! Weekly longitudinal scanning in miniature (§4.2 / Figures 3, 5, 6):
//! sweep the same universe at several calendar weeks of 2021 and watch
//! deployments prepare for standardization — draft-29 support climbing,
//! Cloudflare activating "Version 1" before RFC 9000 shipped, and HTTPS
//! DNS RR adoption growing.
//!
//! Run with: `cargo run --release --example weekly_evolution`

use std::collections::HashMap;
use std::sync::Arc;

use its_over_9000::dns::massdns::BulkResolver;
use its_over_9000::dns::resolver::Resolver;
use its_over_9000::internet::universe::InputList;
use its_over_9000::internet::{Universe, UniverseConfig};
use its_over_9000::quic::version::Version;
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::SocketAddr;
use its_over_9000::zmapq::modules::quic_vn::QuicVnModule;
use its_over_9000::zmapq::{ZmapConfig, ZmapScanner};

fn main() {
    println!("week  draft-29  ietf-01(v1)  google-QUIC  HTTPS-RR(com/net/org)");
    println!("----------------------------------------------------------------");
    for week in [5u32, 9, 14, 18] {
        let mut config = UniverseConfig::tiny(week);
        config.size_factor = 0.1;
        let universe = Universe::generate(config);
        let network = universe.build_network();

        // ZMap sweep → per-version support shares.
        let scanner = ZmapScanner::new(ZmapConfig::new(SocketAddr::new(
            Ipv4Addr::new(192, 0, 2, 2),
            40_000,
        )));
        let module = QuicVnModule::new(5);
        let hits = scanner.scan_v4(&network, &universe.scan_prefixes(), &module);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for hit in &hits {
            if hit.versions.contains(&Version::DRAFT_29) {
                *counts.entry("d29").or_default() += 1;
            }
            if hit.versions.contains(&Version::V1) {
                *counts.entry("v1").or_default() += 1;
            }
            if hit.versions.iter().any(|v| v.is_google()) {
                *counts.entry("g").or_default() += 1;
            }
        }
        let pct =
            |key: &str| 100.0 * counts.get(key).copied().unwrap_or(0) as f64 / hits.len() as f64;

        // DNS: HTTPS RR success rate on the com/net/org zone input.
        let resolver = Resolver::new(Arc::new(universe.zone()));
        let bulk = BulkResolver::new(resolver);
        let list = universe.input_list(InputList::ComNetOrg);
        let with_rr = list
            .iter()
            .filter(|d| bulk.resolve_domain(d).https_indicates_quic())
            .count();
        println!(
            "{week:<5} {:>7.1}%  {:>10.1}%  {:>10.1}%  {:>6.2}%",
            pct("d29"),
            pct("v1"),
            pct("g"),
            100.0 * with_rr as f64 / list.len() as f64,
        );
    }
    println!("\n(the paper: draft-29 grows 80%→96%; Version 1 appears at week 18,");
    println!(" before RFC 9000 published; HTTPS RRs grow but stay ~1% on zone files)");
}
