//! MassDNS-style bulk resolution (§3.2): resolve large domain lists for
//! A, AAAA and HTTPS records.
//!
//! Two paths are provided: a fast in-process path against the resolver
//! (what the weekly scans use — resolving hundreds of thousands of sim
//! domains), and a wire path through a simulated DNS server for fidelity
//! tests.

use simnet::addr::{Ipv4Addr, Ipv6Addr};
use simnet::{Network, SocketAddr};

use crate::resolver::Resolver;
use crate::rr::{QType, RData};
use crate::svcb::SvcParams;
use crate::wire::{Message, Rcode};

/// Everything the scans need per domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedDomain {
    /// The domain queried.
    pub domain: String,
    /// A records (after CNAME chasing).
    pub a: Vec<Ipv4Addr>,
    /// AAAA records.
    pub aaaa: Vec<Ipv6Addr>,
    /// HTTPS RR service parameters (ServiceMode entries only).
    pub https: Vec<SvcParams>,
    /// SVCB RR results (the paper found none deployed; kept for symmetry).
    pub svcb: Vec<SvcParams>,
}

impl ResolvedDomain {
    /// True when an HTTPS RR advertises an h3 ALPN — the "QUIC capable via
    /// DNS" signal of Table 1's HTTPS rows.
    pub fn https_indicates_quic(&self) -> bool {
        self.https.iter().any(|p| p.indicates_quic())
    }

    /// IPv4 addresses hinted by HTTPS RRs.
    pub fn https_ipv4_hints(&self) -> Vec<Ipv4Addr> {
        self.https
            .iter()
            .flat_map(|p| p.ipv4hint.iter().copied())
            .collect()
    }

    /// IPv6 addresses hinted by HTTPS RRs.
    pub fn https_ipv6_hints(&self) -> Vec<Ipv6Addr> {
        self.https
            .iter()
            .flat_map(|p| p.ipv6hint.iter().copied())
            .collect()
    }
}

/// Bulk resolver.
pub struct BulkResolver {
    resolver: Resolver,
}

impl BulkResolver {
    /// Wraps a resolver.
    pub fn new(resolver: Resolver) -> Self {
        BulkResolver { resolver }
    }

    /// Resolves one domain for all four record types (in-process path).
    pub fn resolve_domain(&self, domain: &str) -> ResolvedDomain {
        let mut out = ResolvedDomain {
            domain: domain.to_string(),
            ..Default::default()
        };
        let (_, answers) = self.resolver.resolve(domain, QType::A);
        for rr in answers {
            if let RData::A(a) = rr.rdata {
                out.a.push(a);
            }
        }
        let (_, answers) = self.resolver.resolve(domain, QType::Aaaa);
        for rr in answers {
            if let RData::Aaaa(a) = rr.rdata {
                out.aaaa.push(a);
            }
        }
        let (_, answers) = self.resolver.resolve(domain, QType::Https);
        for rr in answers {
            if let RData::Svc {
                priority, params, ..
            } = rr.rdata
            {
                if priority > 0 {
                    out.https.push(params);
                }
            }
        }
        let (_, answers) = self.resolver.resolve(domain, QType::Svcb);
        for rr in answers {
            if let RData::Svc {
                priority, params, ..
            } = rr.rdata
            {
                if priority > 0 {
                    out.svcb.push(params);
                }
            }
        }
        out
    }

    /// Resolves a whole input list (e.g. a top list or a CZDS zone).
    pub fn resolve_list(&self, domains: &[String]) -> Vec<ResolvedDomain> {
        domains.iter().map(|d| self.resolve_domain(d)).collect()
    }
}

/// Resolves one domain/type over the simulated wire (for fidelity tests and
/// the examples). The answer is the first reply that decodes as a response
/// carrying the query's ID, as a stub resolver skips stray datagrams;
/// `None` when no reply does.
pub fn resolve_over_network(
    net: &Network,
    src: SocketAddr,
    dns_server: SocketAddr,
    id: u16,
    domain: &str,
    qtype: QType,
) -> Option<(Rcode, Vec<crate::rr::Record>)> {
    let query = Message::query(id, domain, qtype);
    let replies = net.udp_send(src, dns_server, &query.encode());
    replies
        .iter()
        .filter_map(|reply| Message::decode(reply).ok())
        .find(|resp| resp.response && resp.id == id)
        .map(|resp| (resp.rcode, resp.answers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::Record;
    use crate::zone::ZoneDb;
    use std::sync::Arc;

    fn setup() -> BulkResolver {
        let mut db = ZoneDb::new();
        db.add_a("cf.example", Ipv4Addr::new(104, 16, 0, 1));
        db.add_aaaa(
            "cf.example",
            Ipv6Addr::new(0x2606, 0x4700, 0, 0, 0, 0, 0, 1),
        );
        db.insert(Record::new(
            "cf.example",
            RData::Svc {
                priority: 1,
                target: String::new(),
                params: SvcParams {
                    alpn: vec!["h3-29".into(), "h3-28".into(), "h3-27".into()],
                    ipv4hint: vec![Ipv4Addr::new(104, 16, 0, 1)],
                    ipv6hint: vec![Ipv6Addr::new(0x2606, 0x4700, 0, 0, 0, 0, 0, 1)],
                    ..SvcParams::default()
                },
            },
        ));
        db.add_a("plain.example", Ipv4Addr::new(198, 51, 100, 7));
        BulkResolver::new(Resolver::new(Arc::new(db)))
    }

    #[test]
    fn https_rr_discovery() {
        let bulk = setup();
        let resolved = bulk.resolve_domain("cf.example");
        assert!(resolved.https_indicates_quic());
        assert_eq!(
            resolved.https_ipv4_hints(),
            vec![Ipv4Addr::new(104, 16, 0, 1)]
        );
        assert_eq!(resolved.https_ipv6_hints().len(), 1);
        assert_eq!(resolved.a.len(), 1);
        assert!(
            resolved.svcb.is_empty(),
            "no SVCB deployment, like the paper"
        );
    }

    #[test]
    fn plain_domain_has_no_https_rr() {
        let bulk = setup();
        let resolved = bulk.resolve_domain("plain.example");
        assert!(!resolved.https_indicates_quic());
        assert_eq!(resolved.a.len(), 1);
    }

    #[test]
    fn list_resolution() {
        let bulk = setup();
        let out = bulk.resolve_list(&[
            "cf.example".into(),
            "plain.example".into(),
            "nx.example".into(),
        ]);
        assert_eq!(out.len(), 3);
        assert!(out[2].a.is_empty());
    }
}
