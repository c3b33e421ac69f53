//! The deployment-universe generator.
//!
//! From a seed and a calendar week (5–18 of 2021), generates the host and
//! domain population whose *measured* properties reproduce the paper's
//! aggregates: provider shares (Table 2), stateful outcome mix (Table 3),
//! version sets over time (Fig. 5/6), Alt-Svc ALPN sets (Fig. 7), HTTPS-RR
//! adoption (Fig. 3), transport-parameter configurations (Fig. 9) and HTTP
//! Server values (Table 6).
//!
//! Default scale vs. the paper: addresses 1:100, ASes 1:10, domains 1:500.
//! `size_factor` shrinks everything further for tests/benches.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dns::rr::{RData, Record};
use dns::svcb::SvcParams;
use dns::zone::ZoneDb;
use qtls::cert::CertificateAuthority;
use qtls::server::NoSniBehavior;
use quic::server::EndpointConfig;
use quic::tparams::TransportParameters;
use quic::version::Version;
use simnet::addr::{Ipv4Addr, Ipv6Addr, Prefix};
use simnet::{Network, SocketAddr};

use crate::asdb::{asn, AsDb};
use crate::catalog::{implementation, tp_config};
use crate::servers::{HttpProfile, HttpsTcpHost, QuicHost};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Calendar week of 2021 being simulated (5–18; ≥30 = post-roll-out).
    pub week: u32,
    /// Global population multiplier (1.0 = default scale).
    pub size_factor: f64,
}

impl UniverseConfig {
    /// Default-scale universe for `week`.
    pub fn week(week: u32) -> Self {
        UniverseConfig {
            seed: 0x9000,
            week,
            size_factor: 1.0,
        }
    }

    /// A small universe for unit tests (~5% of default).
    pub fn tiny(week: u32) -> Self {
        UniverseConfig {
            seed: 0x9000,
            week,
            size_factor: 0.05,
        }
    }
}

/// How a host behaves towards the scanners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostBehavior {
    /// Full QUIC + TCP service.
    Normal,
    /// QUIC requires SNI: no-SNI handshakes die with alert 40 → 0x128
    /// (the Cloudflare pattern).
    RejectNoSni,
    /// VN advertises IETF versions but the handshake path only accepts
    /// Google QUIC — the iterative roll-out artifact (resolves after the
    /// measurement period).
    GoogleRollout,
    /// Middlebox answers Version Negotiation but never handshakes
    /// (Akamai/Fastly timeout pattern). TCP still works.
    VnOnly,
    /// Never answers the forced-VN probe but handshakes fine — invisible to
    /// ZMap, discovered via Alt-Svc/DNS.
    AltOnly,
    /// Closes handshakes with a non-0x128 error ("Other" row of Table 3).
    BrokenOther,
    /// Bound but silent on QUIC (timeout); TCP may work.
    SilentQuic,
}

/// One deployment (an IPv4 and/or IPv6 endpoint with shared behaviour).
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// IPv4 address, if dual/single-stacked v4.
    pub v4: Option<Ipv4Addr>,
    /// IPv6 address.
    pub v6: Option<Ipv6Addr>,
    /// Originating AS.
    pub asn: u32,
    /// Provider key (for debugging/analysis).
    pub provider: &'static str,
    /// Scanner-facing behaviour.
    pub behavior: HostBehavior,
    /// Implementation id (catalogue key).
    pub impl_name: &'static str,
    /// Transport-parameter configuration index (0..45).
    pub tp_idx: usize,
    /// Versions advertised in Version Negotiation.
    pub vn_versions: Vec<Version>,
    /// Versions the handshake path accepts.
    pub accept_versions: Vec<Version>,
    /// Server ALPN preference (QUIC side), e.g. `["h3-29", "h3"]`.
    pub alpn: Vec<String>,
    /// `Alt-Svc` header served over TCP (None = none).
    pub alt_svc: Option<String>,
    /// HTTP `Server` header value.
    pub server_header: String,
    /// Certificate names (first is subject; `*.` wildcards allowed).
    pub cert_names: Vec<String>,
    /// TCP 443 service present.
    pub tcp: bool,
    /// Answers unpadded forced-VN probes (§3.1's 11.3%).
    pub respond_unpadded: bool,
    /// TCP side only negotiates TLS 1.2 (Cloudflare toggle artifact).
    pub tls12_tcp: bool,
    /// Google-style TCP behaviour: self-signed error cert and no ALPN when
    /// SNI is missing; weekly certificate rotation.
    pub google_tcp_quirks: bool,
    /// TCP scan sees a rotated certificate (scan-delay artifact, ~2%).
    pub rotate_cert_on_tcp: bool,
    /// Echo the empty SNI ack in EncryptedExtensions.
    pub sni_ack: bool,
    /// Reject SNI values the certificate does not cover (stale-vhost CDN
    /// slices; surfaces as 0x128 in SNI scans).
    pub strict_sni: bool,
    /// The TCP frontend serves a generic default certificate when no SNI is
    /// present (CDN split-termination; Table 5's no-SNI divergence).
    pub tcp_generic_default: bool,
    /// Validate client addresses with a Retry before accepting Initials.
    pub use_retry: bool,
    /// Send the empty SNI acknowledgment on the TCP stack (RFC 6066 leaves
    /// this optional — the paper's residual Table 5 extension gap).
    pub sni_ack_tcp: bool,
}

/// A registered domain.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// FQDN.
    pub name: String,
    /// Indices into `hosts` this name's A records point at.
    pub v4_hosts: Vec<u32>,
    /// Indices for AAAA records.
    pub v6_hosts: Vec<u32>,
    /// "Ghost" IPv4 addresses: resolvable but unbound (load-balancer churn;
    /// scans of these pairs time out).
    pub ghost_v4: Vec<Ipv4Addr>,
    /// Week since which an HTTPS RR is published (None = never in period).
    pub https_rr_since: Option<u32>,
    /// Input-list membership bitmask (see [`InputList`]).
    pub lists: u8,
}

/// Domain-list inputs of the DNS scans (§3.2 / Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputList {
    /// Alexa Top 1M.
    Alexa,
    /// Cisco Umbrella Top 1M.
    Umbrella,
    /// Majestic Million.
    Majestic,
    /// com/net/org zones from CZDS.
    ComNetOrg,
    /// Remaining CZDS TLD zones.
    CzdsOther,
}

impl InputList {
    /// Bit in [`DomainSpec::lists`].
    pub fn bit(self) -> u8 {
        match self {
            InputList::Alexa => 1,
            InputList::Umbrella => 2,
            InputList::Majestic => 4,
            InputList::ComNetOrg => 8,
            InputList::CzdsOther => 16,
        }
    }

    /// Figure 3 legend label.
    pub fn label(self) -> &'static str {
        match self {
            InputList::Alexa => "alexa",
            InputList::Umbrella => "cisco",
            InputList::Majestic => "majestic",
            InputList::ComNetOrg => "comnetorg",
            InputList::CzdsOther => "czds",
        }
    }

    /// All lists.
    pub fn all() -> [InputList; 5] {
        [
            InputList::Alexa,
            InputList::Umbrella,
            InputList::Majestic,
            InputList::ComNetOrg,
            InputList::CzdsOther,
        ]
    }

    /// Number of non-QUIC filler domains on this list (scaled from the
    /// paper's list sizes: top lists 1M, com/net/org 180M, other CZDS 31M).
    pub fn filler_count(self, factor: f64) -> usize {
        let base = match self {
            InputList::Alexa | InputList::Umbrella | InputList::Majestic => 1_900,
            InputList::ComNetOrg => 250_000,
            InputList::CzdsOther => 55_000,
        };
        scale(base, factor)
    }
}

fn scale(base: usize, factor: f64) -> usize {
    ((base as f64) * factor).round() as usize
}

/// The generated universe.
pub struct Universe {
    /// Generator configuration.
    pub config: UniverseConfig,
    /// All deployments.
    pub hosts: Vec<HostSpec>,
    /// All QUIC-related domains.
    pub domains: Vec<DomainSpec>,
    /// Prefix → AS database.
    pub asdb: AsDb,
    ca: CertificateAuthority,
}

/// Version-set helper.
fn vs(list: &[Version]) -> Vec<Version> {
    list.to_vec()
}

fn alpn_of(versions: &[&str]) -> Vec<String> {
    versions.iter().map(|s| s.to_string()).collect()
}

const CF_ALT: &str = "h3-27=\":443\"; ma=86400, h3-28=\":443\"; ma=86400, h3-29=\":443\"; ma=86400";
const GOOGLE_ALT_OLD: &str = "h3-25=\":443\"; ma=2592000, h3-27=\":443\"; ma=2592000, h3-Q043=\":443\"; ma=2592000, h3-Q046=\":443\"; ma=2592000, h3-Q050=\":443\"; ma=2592000, quic=\":443\"; ma=2592000; v=\"46,43\"";
const GOOGLE_ALT_NEW: &str = "h3-27=\":443\"; ma=2592000, h3-29=\":443\"; ma=2592000, h3-34=\":443\"; ma=2592000, h3-Q043=\":443\"; ma=2592000, h3-Q046=\":443\"; ma=2592000, h3-Q050=\":443\"; ma=2592000, quic=\":443\"; ma=2592000; v=\"46,43\"";
const QUIC_ONLY_ALT: &str = "quic=\":443\"; ma=2592000; v=\"44,43,39\"";

/// Cloudflare edge certificates cover every customer-domain TLD variant.
fn cf_customer_cert(subject: &str) -> Vec<String> {
    let mut names = vec![subject.to_string()];
    for tld in ["com", "net", "org", "io", "de", "dev"] {
        names.push(format!("*.cf-customer.example.{tld}"));
    }
    names
}

impl Universe {
    /// Generates the universe for `config`.
    pub fn generate(config: UniverseConfig) -> Universe {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut builder = Builder {
            week: config.week,
            factor: config.size_factor,
            hosts: Vec::new(),
            domains: Vec::new(),
            asdb: AsDb::new(),
            rng: &mut rng,
            tail_asn_next: 60000,
        };
        builder.build();
        let Builder {
            hosts,
            domains,
            mut asdb,
            ..
        } = builder;
        asdb.freeze();
        Universe {
            ca: CertificateAuthority::new("Sim Global CA", config.seed),
            config,
            hosts,
            domains,
            asdb,
        }
    }

    /// The IPv4 prefixes the ZMap sweep covers: the sim equivalent of "the
    /// complete address space" — a /10 (4.2M addresses) that contains every
    /// allocated block plus two orders of magnitude of empty space, so the
    /// sweep's hit rate stays realistically sparse. Returned by value as a
    /// fixed-size array (no allocation): the scanners take `&[Prefix]`, and
    /// the sweep itself generates targets from the prefix arithmetic, so the
    /// whole target feed is allocation-free.
    pub fn scan_prefixes(&self) -> [Prefix; 1] {
        [Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 10)]
    }

    /// IPv6 scan input: every AAAA plus hitlist entries (includes
    /// unresponsive noise, like the real IPv6 Hitlist).
    pub fn v6_hitlist(&self) -> Vec<Ipv6Addr> {
        let mut out: Vec<Ipv6Addr> = self.hosts.iter().filter_map(|h| h.v6).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x6666);
        let noise = out.len() * 10;
        for _ in 0..noise {
            out.push(Ipv6Addr::new(
                0x2001,
                0xdb8,
                rng.gen_range(0x8000..0xffff),
                rng.gen(),
                0,
                0,
                0,
                rng.gen_range(1..0xffff),
            ));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Streams one input list: QUIC domains on the list followed by the
    /// filler names, one `String` at a time. Resolvers that only need to
    /// walk the list (the weekly DNS passes) consume this directly and
    /// never hold more than one name in memory; [`Universe::input_list`] is
    /// the buffering wrapper with identical contents and order.
    pub fn input_list_iter(&self, list: InputList) -> impl Iterator<Item = String> + '_ {
        self.domains
            .iter()
            .filter(move |d| d.lists & list.bit() != 0)
            .map(|d| d.name.clone())
            .chain(
                (0..list.filler_count(self.config.size_factor))
                    .map(move |i| format!("filler-{}-{i}.example", list.label())),
            )
    }

    /// Materializes one input list: QUIC domains on the list plus filler.
    pub fn input_list(&self, list: InputList) -> Vec<String> {
        self.input_list_iter(list).collect()
    }

    /// Builds the DNS zone for the configured week.
    pub fn zone(&self) -> ZoneDb {
        let mut db = ZoneDb::new();
        for d in &self.domains {
            for &hi in &d.v4_hosts {
                if let Some(v4) = self.hosts[hi as usize].v4 {
                    db.add_a(&d.name, v4);
                }
            }
            for ghost in &d.ghost_v4 {
                db.add_a(&d.name, *ghost);
            }
            for &hi in &d.v6_hosts {
                if let Some(v6) = self.hosts[hi as usize].v6 {
                    db.add_aaaa(&d.name, v6);
                }
            }
            if d.https_rr_since
                .map(|w| w <= self.config.week)
                .unwrap_or(false)
            {
                let v4hints: Vec<Ipv4Addr> = d
                    .v4_hosts
                    .iter()
                    .filter_map(|&hi| self.hosts[hi as usize].v4)
                    .collect();
                let v6hints: Vec<Ipv6Addr> = d
                    .v6_hosts
                    .iter()
                    .filter_map(|&hi| self.hosts[hi as usize].v6)
                    .collect();
                let alpn = d
                    .v4_hosts
                    .first()
                    .or(d.v6_hosts.first())
                    .map(|&hi| self.hosts[hi as usize].alpn.clone())
                    .unwrap_or_default();
                db.insert(Record::new(
                    &d.name,
                    RData::Svc {
                        priority: 1,
                        target: String::new(),
                        params: SvcParams {
                            alpn,
                            ipv4hint: v4hints,
                            ipv6hint: v6hints,
                            ..SvcParams::default()
                        },
                    },
                ));
            }
        }
        db
    }

    /// Issues the leaf certificate for a host (deterministic per host+week
    /// rotation policy).
    fn host_cert(&self, h: &HostSpec, rotated: bool) -> qtls::Certificate {
        let rotation_epoch = if h.google_tcp_quirks {
            // Weekly rotation (crt.sh shows Google rolling ~weekly).
            self.config.week + u32::from(rotated)
        } else {
            self.config.week / 13 + u32::from(rotated)
        };
        let subject = h
            .cert_names
            .first()
            .cloned()
            .unwrap_or_else(|| "host.invalid".into());
        let key = qcrypto::sha256::digest(subject.as_bytes());
        self.ca.issue(
            (u64::from(rotation_epoch) << 32) | u64::from(h.asn),
            &subject,
            h.cert_names.clone(),
            self.config.week.saturating_sub(2),
            self.config.week + 11,
            key,
        )
    }

    fn tls_config(&self, h: &HostSpec, for_tcp: bool) -> Arc<qtls::ServerConfig> {
        let cert = self.host_cert(h, for_tcp && h.rotate_cert_on_tcp);
        let mut certs = vec![cert];
        if for_tcp && h.tcp_generic_default {
            // Split termination: without SNI, the TCP frontend presents a
            // generic edge certificate instead of the service wildcard.
            let subject = format!("edge-{}.pop.invalid", h.asn);
            let generic = self.ca.issue(
                u64::from(h.asn),
                &subject,
                vec![subject.clone()],
                self.config.week.saturating_sub(2),
                self.config.week + 11,
                qcrypto::sha256::digest(subject.as_bytes()),
            );
            certs.insert(0, generic);
        }
        let no_sni = if for_tcp && h.google_tcp_quirks {
            NoSniBehavior::SelfSignedError("invalid2.invalid".into())
        } else if !for_tcp && h.behavior == HostBehavior::RejectNoSni {
            NoSniBehavior::Reject(qtls::Alert::HandshakeFailure)
        } else if !for_tcp && h.behavior == HostBehavior::BrokenOther {
            NoSniBehavior::Reject(qtls::Alert::NoApplicationProtocol)
        } else {
            NoSniBehavior::UseDefault(0)
        };
        let alpn: Vec<Vec<u8>> = if for_tcp {
            vec![b"http/1.1".to_vec()]
        } else {
            h.alpn.iter().map(|a| a.as_bytes().to_vec()).collect()
        };
        Arc::new(qtls::ServerConfig {
            certs,
            no_sni,
            reject_unknown_sni: h.strict_sni,
            alpn,
            alpn_required: false,
            cipher_pref: qtls::CipherSuite::default_offer(),
            group_pref: vec![qtls::NamedGroup::X25519, qtls::NamedGroup::Secp256r1],
            send_sni_ack: if for_tcp {
                h.sni_ack && h.sni_ack_tcp
            } else {
                h.sni_ack
            },
            no_alpn_without_sni: for_tcp && h.google_tcp_quirks,
            quic_transport_params: None, // installed by the QUIC endpoint
            tls12_only: for_tcp && h.tls12_tcp,
            week: self.config.week,
        })
    }

    fn quic_endpoint_config(&self, h: &HostSpec) -> EndpointConfig {
        let tp: TransportParameters = tp_config(h.tp_idx);
        EndpointConfig {
            accept_versions: h.accept_versions.clone(),
            vn_advertise: h.vn_versions.clone(),
            vn_only: h.behavior == HostBehavior::VnOnly,
            respond_to_unpadded: h.respond_unpadded,
            no_version_negotiation: matches!(h.behavior, HostBehavior::AltOnly),
            tls: self.tls_config(h, false),
            transport_params: tp,
            close_reason: implementation(h.impl_name).close_reason.to_string(),
            use_retry: h.use_retry,
        }
    }

    fn http_profile(&self, h: &HostSpec) -> HttpProfile {
        HttpProfile {
            server_header: h.server_header.clone(),
            alt_svc: h.alt_svc.clone(),
            extra_headers: vec![("cache-control".into(), "no-store".into())],
        }
    }

    /// Per-host seed of host `i`'s services (TCP uses it `^ 1`).
    fn host_seed(&self, i: usize) -> u64 {
        self.config.seed ^ ((i as u64) << 20)
    }

    /// The QUIC endpoint host `i` runs on UDP 443 of each of its addresses,
    /// or `None` for hosts dark on UDP (`SilentQuic`). The one derivation
    /// both [`Universe::build_network`] and the lazy binder use.
    pub(crate) fn quic_service(&self, i: usize) -> Option<QuicHost> {
        let h = &self.hosts[i];
        (h.behavior != HostBehavior::SilentQuic).then(|| {
            let cfg = self.quic_endpoint_config(h);
            QuicHost::new(cfg, self.http_profile(h), self.host_seed(i))
        })
    }

    /// The HTTPS service host `i` runs on TCP 443 of each of its addresses,
    /// or `None` where TCP 443 is closed (`!h.tcp`).
    pub(crate) fn tcp_service(&self, i: usize) -> Option<HttpsTcpHost> {
        let h = &self.hosts[i];
        h.tcp.then(|| {
            let tls = self.tls_config(h, true);
            HttpsTcpHost::new(tls, self.http_profile(h), self.host_seed(i) ^ 1)
        })
    }

    /// Materializes the simulated network: every host's QUIC UDP service and
    /// (where enabled) HTTPS TCP service on port 443.
    pub fn build_network(&self) -> Network {
        let mut net = Network::new(self.config.seed);
        for (i, h) in self.hosts.iter().enumerate() {
            for ip in [h.v4.map(simnet::IpAddr::V4), h.v6.map(simnet::IpAddr::V6)]
                .into_iter()
                .flatten()
            {
                let at = SocketAddr::new(ip, 443);
                if let Some(host) = self.quic_service(i) {
                    net.bind_udp(at, Box::new(host));
                }
                if let Some(svc) = self.tcp_service(i) {
                    net.bind_tcp(at, Box::new(svc));
                }
            }
        }
        net
    }
}

// ---------------------------------------------------------------------------
// Generation internals
// ---------------------------------------------------------------------------

struct Builder<'a> {
    week: u32,
    factor: f64,
    hosts: Vec<HostSpec>,
    domains: Vec<DomainSpec>,
    asdb: AsDb,
    rng: &'a mut StdRng,
    tail_asn_next: u32,
}

/// Default host template.
fn base_host(asn_v: u32, provider: &'static str) -> HostSpec {
    HostSpec {
        v4: None,
        v6: None,
        asn: asn_v,
        provider,
        behavior: HostBehavior::Normal,
        impl_name: "nginx-quic",
        tp_idx: 9,
        vn_versions: vs(&[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27]),
        accept_versions: vs(&[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27]),
        alpn: alpn_of(&["h3-29", "h3-28", "h3-27"]),
        alt_svc: Some(CF_ALT.to_string()),
        server_header: "nginx".to_string(),
        cert_names: Vec::new(),
        tcp: true,
        respond_unpadded: false,
        tls12_tcp: false,
        google_tcp_quirks: false,
        rotate_cert_on_tcp: false,
        sni_ack: true,
        strict_sni: false,
        tcp_generic_default: false,
        use_retry: false,
        sni_ack_tcp: true,
    }
}

impl Builder<'_> {
    fn n(&self, base: usize) -> usize {
        scale(base, self.factor).max(1)
    }

    fn new_tail_asn(&mut self, name_prefix: &str) -> u32 {
        let a = self.tail_asn_next;
        self.tail_asn_next += 1;
        self.asdb.set_name(a, format!("{name_prefix}-{a}"));
        a
    }

    fn build(&mut self) {
        self.build_cloudflare();
        self.build_google();
        self.build_akamai_fastly();
        self.build_facebook_and_pops();
        self.build_hosting_providers();
        self.build_tail();
        self.build_https_only_hints();
    }

    /// Allocates `count` v4 addresses from a /16-style block.
    fn alloc_v4_block(&mut self, second_octet: u8, third_base: u8, count: usize) -> Vec<Ipv4Addr> {
        let mut out = Vec::with_capacity(count);
        let mut i = 0u32;
        while out.len() < count {
            let third = u32::from(third_base) + i / 250;
            let fourth = 1 + (i % 250);
            assert!(third < 256, "v4 block overflow");
            out.push(Ipv4Addr::new(10, second_octet, third as u8, fourth as u8));
            i += 1;
        }
        out
    }

    fn alloc_v6_block(&mut self, site: u16, count: usize) -> Vec<Ipv6Addr> {
        (0..count)
            .map(|i| {
                Ipv6Addr::new(
                    0x2001,
                    0xdb8,
                    site,
                    (i / 60000) as u16,
                    0,
                    0,
                    0,
                    (i % 60000 + 1) as u16,
                )
            })
            .collect()
    }

    // -- Cloudflare -------------------------------------------------------

    fn build_cloudflare(&mut self) {
        let week = self.week;
        let cf_vn = if week >= 18 {
            vs(&[
                Version::V1,
                Version::DRAFT_29,
                Version::DRAFT_28,
                Version::DRAFT_27,
            ])
        } else {
            vs(&[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27])
        };
        self.asdb
            .announce(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16), asn::CLOUDFLARE);
        self.asdb.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0x100, 0, 0, 0, 0, 0), 48),
            asn::CLOUDFLARE,
        );
        self.asdb.announce(
            Prefix::new(Ipv4Addr::new(10, 4, 0, 0), 20),
            asn::CLOUDFLARE_LONDON,
        );
        self.asdb.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0x104, 0, 0, 0, 0, 0), 48),
            asn::CLOUDFLARE_LONDON,
        );

        let total = self.n(6765);
        let v4 = self.alloc_v4_block(0, 0, total);
        let v6_count = self.n(1231);
        let v6 = self.alloc_v6_block(0x100, v6_count);
        // ~10% of addresses carry the customer domains (load-balanced).
        let domain_hosts = self.n(676);
        let first_host = self.hosts.len() as u32;
        for (i, addr) in v4.iter().enumerate() {
            let mut h = base_host(asn::CLOUDFLARE, "cloudflare");
            h.v4 = Some(*addr);
            if i < v6.len() {
                h.v6 = Some(v6[i]);
            }
            h.behavior = HostBehavior::RejectNoSni;
            h.impl_name = "quiche-cf";
            h.tp_idx = 0;
            h.vn_versions = cf_vn.clone();
            h.accept_versions = cf_vn.clone();
            h.server_header = "cloudflare".into();
            h.cert_names = cf_customer_cert(&format!("cf-edge-{i}.sim"));
            // ~10% of domain-attached hosts have not enabled Alt-Svc (the
            // strict slice below adds another ~10% that fail TLS with SNI,
            // matching the paper's ~81% Alt-Svc coverage of CF domains).
            if i < domain_hosts && i % 10 == 3 {
                h.alt_svc = None;
            }
            if i < domain_hosts && i % 1000 == 9 {
                h.sni_ack_tcp = false; // RFC 6066 gap on the TCP stack only
            }
            if i < domain_hosts && i % 40 == 5 {
                // ~2% of pairs see a rotated certificate on the delayed TCP
                // scan (Table 5: SNI certificates differ for ~2%).
                h.rotate_cert_on_tcp = true;
            }
            if i < domain_hosts {
                // Load-balancer churn artifacts among domain-attached hosts:
                // ~10% answer VN but no longer complete handshakes (SNI-scan
                // timeouts), another ~10% serve a stale certificate slice and
                // reject the customer SNI (SNI-scan 0x128s).
                if i % 10 == 1 {
                    h.behavior = HostBehavior::VnOnly;
                } else if i % 10 == 2 {
                    h.strict_sni = true;
                    h.cert_names = vec![format!("cf-edge-{i}.sim")];
                }
            }
            // A small slice disables TLS 1.3 on TCP but keeps QUIC on —
            // the paper's "only reason to differ" Cloudflare artifact.
            if i % 250 == 3 {
                h.tls12_tcp = true;
            }
            self.hosts.push(h);
        }
        // Cloudflare London.
        let cfl_total = self.n(235);
        let cfl_v4 = self.alloc_v4_block(4, 0, cfl_total);
        let cfl_v6 = self.alloc_v6_block(0x104, self.n(34));
        for (i, addr) in cfl_v4.iter().enumerate() {
            let mut h = base_host(asn::CLOUDFLARE_LONDON, "cloudflare-london");
            h.v4 = Some(*addr);
            if i < cfl_v6.len() {
                h.v6 = Some(cfl_v6[i]);
            }
            h.behavior = HostBehavior::RejectNoSni;
            h.impl_name = "quiche-cf";
            h.tp_idx = 0;
            h.vn_versions = cf_vn.clone();
            h.accept_versions = cf_vn.clone();
            h.server_header = "cloudflare".into();
            h.cert_names = cf_customer_cert(&format!("cfl-edge-{i}.sim"));
            self.hosts.push(h);
        }

        // Customer domains: 47 700 at default scale, load-balanced over the
        // domain-attached hosts; ~12% adopt the HTTPS RR, with adoption
        // weeks spread so Figure 3 grows.
        let domain_count = self.n(47_700);
        let cfl_first = first_host + total as u32;
        // IPv6 load-balancer entries carry fewer of the stale/strict v4
        // artifacts: half of the stale (timeout) slice and a fifth of the
        // strict (0x128) slice remain — Table 3's small IPv6 SNI error
        // shares.
        let v6_pool: Vec<u32> = (0..v6.len().min(total))
            .filter(|i| {
                if *i >= domain_hosts {
                    return true;
                }
                match i % 10 {
                    1 => i % 20 == 1,
                    2 => i % 50 == 2,
                    _ => true,
                }
            })
            .map(|i| first_host + i as u32)
            .collect();
        let v6_pool_len = v6_pool.len().max(1);
        for i in 0..domain_count {
            let tld = match i % 10 {
                0..=3 => "com",
                4..=5 => "net",
                6 => "org",
                7 => "io",
                8 => "de",
                _ => "dev",
            };
            let name = format!("site-{i}.cf-customer.example.{tld}");
            let host_a = first_host + (i % domain_hosts.max(1)) as u32;
            let mut v4_hosts = vec![host_a];
            if i.is_multiple_of(3) {
                v4_hosts.push(first_host + ((i / 3 + 7) % domain_hosts.max(1)) as u32);
            }
            if i.is_multiple_of(40) && cfl_total > 0 {
                v4_hosts.push(cfl_first + (i % cfl_total.min(24)) as u32);
            }
            // ~7% of domains also resolve to a ghost address (stale LB entry).
            let ghost_v4 = if i.is_multiple_of(14) {
                vec![Ipv4Addr::new(10, 0, 200, (i % 250 + 1) as u8)]
            } else {
                Vec::new()
            };
            let v6_hosts = vec![*v6_pool.get(i % v6_pool_len).unwrap_or(&first_host)];
            let mut lists = 0u8;
            if matches!(tld, "com" | "net" | "org") {
                lists |= InputList::ComNetOrg.bit();
            } else {
                lists |= InputList::CzdsOther.bit();
            }
            if i.is_multiple_of(100) {
                lists |= InputList::Alexa.bit();
            }
            if i % 110 == 1 {
                lists |= InputList::Umbrella.bit();
            }
            if i % 105 == 2 {
                lists |= InputList::Majestic.bit();
            }
            // HTTPS-RR adoption (hash-decorrelated from everything else):
            // popular (top-list) domains adopted much more aggressively —
            // the paper's Fig. 3 top-list vs zone-file gap.
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 13;
            let on_top_list = lists & 0b111 != 0;
            let adopt = if on_top_list {
                h % 1000 < 450
            } else {
                h % 1000 < 120
            };
            let https_rr_since = adopt.then(|| 8 + ((h / 1000) % 11) as u32);
            self.domains.push(DomainSpec {
                name,
                v4_hosts,
                v6_hosts,
                ghost_v4,
                https_rr_since,
                lists,
            });
        }
    }

    // -- Google -----------------------------------------------------------

    fn build_google(&mut self) {
        self.asdb
            .announce(Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16), asn::GOOGLE);
        self.asdb.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0x101, 0, 0, 0, 0, 0), 48),
            asn::GOOGLE,
        );
        self.asdb.announce(
            Prefix::new(Ipv4Addr::new(10, 13, 0, 0), 16),
            asn::GOOGLE_CLOUD,
        );

        let google_vn = vs(&[
            Version::DRAFT_29,
            Version::T051,
            Version::Q050,
            Version::Q046,
            Version::Q043,
        ]);
        let google_accept_rollout =
            vs(&[Version::T051, Version::Q050, Version::Q046, Version::Q043]);
        let total = self.n(5105);
        let rollout = self.n(1800);
        let reject = self.n(3005);
        let v4 = self.alloc_v4_block(1, 0, total);
        let v6 = self.alloc_v6_block(0x101, self.n(272));
        let rollout_active = self.week < 30;
        let first = self.hosts.len() as u32;
        for (i, addr) in v4.iter().enumerate() {
            let mut h = base_host(asn::GOOGLE, "google");
            h.v4 = Some(*addr);
            // Dual-stack slice sits mostly at the end, on the fully
            // rolled-out (Normal) hosts: IPv6 no-SNI scans succeed there
            // (Table 3). A sliver sits on roll-out hosts — the paper's
            // small IPv6 version-mismatch share.
            if total - i <= v6.len().saturating_sub(4) {
                h.v6 = Some(v6[total - i - 1]);
            } else if i < rollout && i < 4 && v6.len() >= 4 {
                // Disjoint tail of the v6 block for the roll-out sliver.
                h.v6 = Some(v6[v6.len() - 1 - i]);
            }
            h.impl_name = if i.is_multiple_of(2) {
                "google-quic"
            } else {
                "google-fe"
            };
            h.server_header = if i.is_multiple_of(2) {
                "gvs 1.0".into()
            } else {
                "ESF".into()
            };
            // "gvs 1.0" ships exactly one configuration (Table 6); the ESF
            // front-ends use the internal one.
            h.tp_idx = if i.is_multiple_of(2) { 5 } else { 6 };
            h.vn_versions = google_vn.clone();
            h.accept_versions = vs(&[Version::DRAFT_29, Version::T051, Version::Q050]);
            h.alpn = alpn_of(&["h3-29", "h3-Q050"]);
            h.alt_svc = Some(
                if self.week >= 14 {
                    GOOGLE_ALT_NEW
                } else {
                    GOOGLE_ALT_OLD
                }
                .into(),
            );
            h.google_tcp_quirks = true;
            h.cert_names = vec![
                format!("*.g{}.google.example", i % 40),
                "*.google.example.com".into(),
                "*.google.example.net".into(),
            ];
            h.rotate_cert_on_tcp = i % 50 == 7; // ~2% rotation mid-scan
            if i < rollout && rollout_active {
                h.behavior = HostBehavior::GoogleRollout;
                h.accept_versions = google_accept_rollout.clone();
            } else if i < rollout + reject {
                h.behavior = HostBehavior::RejectNoSni;
            } else {
                h.behavior = HostBehavior::Normal;
            }
            self.hosts.push(h);
        }
        // Google domains concentrate on ~10% of the hosts (front-end load
        // balancing, like Cloudflare); the slice deliberately spans the
        // roll-out/reject/normal behaviour mix so SNI pairs landing on
        // roll-out front-ends version-mismatch (§5).
        let domain_count = self.n(12_000);
        let domain_hosts = (total / 50).max(1);
        let stride = (total / domain_hosts).max(1);
        for i in 0..domain_count {
            let tld = if i.is_multiple_of(3) { "com" } else { "net" };
            let name = format!("svc-{i}.google.example.{tld}");
            // Spread the front-end slice evenly across the host range.
            let hi = first + (((i % domain_hosts) * stride) % total) as u32;
            let mut lists = InputList::ComNetOrg.bit();
            if i.is_multiple_of(200) {
                lists |= InputList::Alexa.bit() | InputList::Umbrella.bit();
            }
            if i % 220 == 3 {
                lists |= InputList::Majestic.bit();
            }
            let v6_hosts = if self.hosts[hi as usize].v6.is_some() {
                vec![hi]
            } else {
                Vec::new()
            };
            self.domains.push(DomainSpec {
                name,
                v4_hosts: vec![hi],
                v6_hosts,
                ghost_v4: Vec::new(),
                https_rr_since: i.is_multiple_of(1500).then_some(14),
                lists,
            });
        }
    }

    // -- Akamai & Fastly (VN-answering middleboxes) ------------------------

    fn build_akamai_fastly(&mut self) {
        self.asdb
            .announce(Prefix::new(Ipv4Addr::new(10, 2, 0, 0), 16), asn::AKAMAI);
        self.asdb.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0x102, 0, 0, 0, 0, 0), 48),
            asn::AKAMAI,
        );
        self.asdb
            .announce(Prefix::new(Ipv4Addr::new(10, 3, 0, 0), 16), asn::FASTLY);
        self.asdb.announce(
            Prefix::new(Ipv6Addr::new(0x2001, 0xdb8, 0x103, 0, 0, 0, 0, 0), 48),
            asn::FASTLY,
        );

        // Akamai: Google-QUIC-only set early, draft-29 added over the weeks.
        let akamai_total = self.n(3206);
        let akamai_v4 = self.alloc_v4_block(2, 0, akamai_total);
        let akamai_v6 = self.alloc_v6_block(0x102, self.n(240));
        let adoption = match self.week {
            0..=6 => 0.10,
            7..=9 => 0.30,
            10..=12 => 0.55,
            13..=15 => 0.75,
            _ => 0.88,
        };
        let akamai_first = self.hosts.len() as u32;
        for (i, addr) in akamai_v4.iter().enumerate() {
            let mut h = base_host(asn::AKAMAI, "akamai");
            h.v4 = Some(*addr);
            if i < akamai_v6.len() {
                h.v6 = Some(akamai_v6[i]);
            }
            h.behavior = HostBehavior::VnOnly;
            h.impl_name = "google-quic";
            h.server_header = "AkamaiGHost".into();
            h.vn_versions = if (i as f64) < adoption * akamai_total as f64 {
                vs(&[
                    Version::DRAFT_29,
                    Version::Q050,
                    Version::Q046,
                    Version::Q043,
                ])
            } else {
                vs(&[Version::Q050, Version::Q046, Version::Q043])
            };
            h.accept_versions = h.vn_versions.clone();
            h.alt_svc = None;
            h.cert_names = vec![
                format!("*.a{}.akamai.example", i % 25),
                "*.akamai.example.com".into(),
            ];
            self.hosts.push(h);
        }
        for i in 0..self.n(46) {
            self.domains.push(DomainSpec {
                name: format!("media-{i}.akamai.example.com"),
                v4_hosts: vec![akamai_first + (i % akamai_total) as u32],
                v6_hosts: vec![akamai_first + (i % akamai_v6.len().max(1)) as u32],
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit()
                    | if i.is_multiple_of(9) {
                        InputList::Alexa.bit()
                    } else {
                        0
                    },
            });
        }

        // Fastly: draft-29 + draft-27; answers even unpadded probes — the
        // §3.1 "95.4% of unpadded responders in a single AS" artifact.
        let fastly_total = self.n(2328);
        let fastly_v4 = self.alloc_v4_block(3, 0, fastly_total);
        // Small v6 footprint: Fastly stays out of the ZMap v6 top-5
        // (Table 2 ends with Jio there).
        let fastly_v6 = self.alloc_v6_block(0x103, self.n(12));
        let fastly_first = self.hosts.len() as u32;
        for (i, addr) in fastly_v4.iter().enumerate() {
            let mut h = base_host(asn::FASTLY, "fastly");
            h.v4 = Some(*addr);
            if i < fastly_v6.len() {
                h.v6 = Some(fastly_v6[i]);
            }
            h.behavior = HostBehavior::VnOnly;
            h.impl_name = "h2o";
            h.server_header = "Fastly".into();
            h.vn_versions = vs(&[Version::DRAFT_29, Version::DRAFT_27]);
            h.accept_versions = h.vn_versions.clone();
            h.respond_unpadded = true;
            h.alt_svc = None;
            h.cert_names = vec![
                format!("*.f{}.fastly.example", i % 25),
                "*.fastly.example.com".into(),
            ];
            self.hosts.push(h);
        }
        for i in 0..self.n(1880) {
            self.domains.push(DomainSpec {
                name: format!("app-{i}.fastly.example.com"),
                v4_hosts: vec![fastly_first + (i % fastly_total) as u32],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit()
                    | if i.is_multiple_of(40) {
                        InputList::Umbrella.bit()
                    } else {
                        0
                    },
            });
        }
    }

    // -- Facebook origin + edge POPs + Google gvs POPs ---------------------

    fn build_facebook_and_pops(&mut self) {
        self.asdb
            .announce(Prefix::new(Ipv4Addr::new(10, 5, 0, 0), 20), asn::FACEBOOK);
        let fb_vn = vs(&[
            Version::MVFST_2,
            Version::MVFST_1,
            Version::MVFST_E,
            Version::DRAFT_29,
            Version::DRAFT_27,
        ]);

        let origin_total = self.n(24);
        let origin_v4 = self.alloc_v4_block(5, 0, origin_total);
        let origin_first = self.hosts.len() as u32;
        for (i, addr) in origin_v4.iter().enumerate() {
            let mut h = base_host(asn::FACEBOOK, "facebook");
            h.v4 = Some(*addr);
            h.impl_name = "mvfst";
            h.server_header = "proxygen-bolt".into();
            h.tp_idx = if i.is_multiple_of(2) { 1 } else { 2 };
            h.vn_versions = fb_vn.clone();
            h.accept_versions = vs(&[Version::DRAFT_29, Version::MVFST_2, Version::MVFST_1]);
            h.alpn = alpn_of(&["h3-29", "h3-27"]);
            h.alt_svc = Some("h3-29=\":443\"; ma=3600".into());
            h.cert_names = vec![
                "*.fbcdn.example.net".into(),
                "*.cdninstagram.example.com".into(),
            ];
            h.tcp_generic_default = true;
            self.hosts.push(h);
        }

        // Edge POPs: 222 eyeball ASes at default scale, 2-3 proxygen hosts
        // each (configs 3/4); 200 of them also host a gvs POP (config 5) —
        // the "three configurations in 42.2% of ASes" structure.
        let pop_as_count = self.n(222);
        let gvs_in = self.n(200);
        let mut pop_host_count = 0usize;
        for a in 0..pop_as_count {
            let asn_v = self.new_tail_asn("EYEBALL-ISP");
            let second = 16 + (a / 250) as u8;
            let third = (a % 250) as u8;
            self.asdb
                .announce(Prefix::new(Ipv4Addr::new(10, second, third, 0), 24), asn_v);
            let fb_here = 2 + (a % 2);
            for k in 0..fb_here {
                let mut h = base_host(asn_v, "facebook-pop");
                h.v4 = Some(Ipv4Addr::new(10, second, third, (10 + k) as u8));
                h.impl_name = "mvfst";
                h.server_header = "proxygen-bolt".into();
                h.tp_idx = if k.is_multiple_of(2) { 3 } else { 4 };
                h.vn_versions = fb_vn.clone();
                h.accept_versions = vs(&[Version::DRAFT_29, Version::MVFST_2, Version::MVFST_1]);
                h.alpn = alpn_of(&["h3-29", "h3-27"]);
                h.alt_svc = Some("h3-29=\":443\"; ma=3600".into());
                h.cert_names = vec![
                    "*.fbcdn.example.net".into(),
                    "*.cdninstagram.example.com".into(),
                ];
                h.tcp_generic_default = true;
                self.hosts.push(h);
                pop_host_count += 1;
            }
            if a < gvs_in {
                let mut h = base_host(asn_v, "google-pop");
                h.v4 = Some(Ipv4Addr::new(10, second, third, 40));
                h.impl_name = "google-quic";
                h.server_header = "gvs 1.0".into();
                h.tp_idx = 5;
                h.vn_versions = vs(&[
                    Version::DRAFT_29,
                    Version::T051,
                    Version::Q050,
                    Version::Q046,
                    Version::Q043,
                ]);
                h.accept_versions = vs(&[Version::DRAFT_29, Version::T051, Version::Q050]);
                h.alpn = alpn_of(&["h3-29", "h3-Q050"]);
                h.alt_svc = Some(
                    if self.week >= 14 {
                        GOOGLE_ALT_NEW
                    } else {
                        GOOGLE_ALT_OLD
                    }
                    .into(),
                );
                h.google_tcp_quirks = true;
                h.cert_names = vec!["*.gvs-cache.google.example".into()];
                self.hosts.push(h);
            }
        }

        // Facebook CDN domains (95% fbcdn/cdninstagram).
        let fb_domains = self.n(600);
        for i in 0..fb_domains {
            let name = if i % 20 == 19 {
                format!("static-{i}.facebook.example.com")
            } else if i.is_multiple_of(2) {
                format!("scontent-{i}.fbcdn.example.net")
            } else {
                format!("media-{i}.cdninstagram.example.com")
            };
            let hi = if i % 10 < 2 {
                origin_first + (i % origin_total) as u32
            } else {
                origin_first + origin_total as u32 + (i % pop_host_count.max(1)) as u32
            };
            self.domains.push(DomainSpec {
                name,
                v4_hosts: vec![hi],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit(),
            });
        }
    }

    // -- Hosting providers (Alt-Svc-discovered; mostly no VN response) -----

    fn build_hosting_providers(&mut self) {
        struct Plan {
            asn_v: u32,
            key: &'static str,
            second_octet: u8,
            v4_count: usize,
            v6_site: u16,
            v6_count: usize,
            domains: usize,
            impls: &'static [(&'static str, usize, &'static str)],
        }
        let plans = [
            Plan {
                asn_v: asn::OVH,
                key: "ovh",
                second_octet: 6,
                v4_count: 140,
                v6_site: 0x106,
                v6_count: 30,
                domains: 3383,
                impls: &[
                    ("lsquic", 7, "LiteSpeed"),
                    ("nginx-quic", 10, "nginx"),
                    ("nginx-quic", 11, "nginx/1.19.4"),
                ],
            },
            Plan {
                asn_v: asn::GTS_TELECOM,
                key: "gts",
                second_octet: 7,
                v4_count: 82,
                v6_site: 0x107,
                v6_count: 6,
                domains: 468,
                impls: &[("lsquic", 7, "LiteSpeed"), ("nginx-quic", 12, "nginx")],
            },
            Plan {
                asn_v: asn::A2_HOSTING,
                key: "a2",
                second_octet: 8,
                v4_count: 81,
                v6_site: 0x108,
                v6_count: 6,
                domains: 1718,
                impls: &[("lsquic", 8, "LiteSpeed"), ("lsquic", 7, "LiteSpeed")],
            },
            Plan {
                asn_v: asn::DIGITALOCEAN,
                key: "digitalocean",
                second_octet: 9,
                v4_count: 100,
                v6_site: 0x109,
                v6_count: 12,
                domains: 272,
                impls: &[
                    ("nginx-quic", 9, "nginx"),
                    ("nginx-quic", 10, "nginx"),
                    ("nginx-quic", 11, "nginx"),
                    ("nginx-quic", 12, "nginx"),
                    ("caddy", 25, "Caddy"),
                    ("h2o", 26, "h2o"),
                    ("aioquic", 35, "Python/3.7 aiohttp/3.7.2"),
                    ("nginx-quic", 14, "nginx/1.20.0"),
                    ("nginx-quic", 19, "nginx"),
                    ("nginx-quic", 21, "nginx"),
                    ("nginx-quic", 23, "nginx"),
                ],
            },
            Plan {
                asn_v: asn::AMAZON,
                key: "amazon",
                second_octet: 10,
                v4_count: 70,
                v6_site: 0x10a,
                v6_count: 55,
                domains: 163,
                impls: &[
                    ("nginx-quic", 9, "nginx"),
                    ("nginx-quic", 15, "nginx"),
                    ("caddy", 25, "Caddy"),
                    ("h2o", 26, "h2o"),
                    ("nginx-quic", 29, "nginx"),
                    ("aioquic", 36, "Python/3.7 aiohttp/3.7.2"),
                    ("nginx-quic", 31, "awselb/2.0"),
                    ("nginx-quic", 33, "nginx"),
                    ("nginx-quic", 37, "haproxy"),
                    ("nginx-quic", 39, "envoy"),
                    ("nginx-quic", 43, "nginx"),
                ],
            },
            Plan {
                asn_v: asn::HOSTINGER,
                key: "hostinger",
                second_octet: 11,
                v4_count: 20,
                v6_site: 0x10b,
                v6_count: 1950,
                domains: 1990,
                impls: &[("lsquic", 7, "LiteSpeed")],
            },
            Plan {
                asn_v: asn::LINODE,
                key: "linode",
                second_octet: 12,
                v4_count: 25,
                v6_site: 0x10c,
                v6_count: 10,
                domains: 60,
                impls: &[("caddy", 25, "Caddy"), ("nginx-quic", 16, "nginx")],
            },
            Plan {
                asn_v: asn::IONOS,
                key: "ionos",
                second_octet: 14,
                v4_count: 18,
                v6_site: 0x10e,
                v6_count: 8,
                domains: 45,
                impls: &[("nginx-quic", 20, "nginx"), ("lsquic", 8, "LiteSpeed")],
            },
            Plan {
                asn_v: asn::PRIVATESYSTEMS,
                key: "privatesystems",
                second_octet: 15,
                v4_count: 10,
                v6_site: 0x10f,
                v6_count: 59,
                domains: 106,
                impls: &[("lsquic", 7, "LiteSpeed")],
            },
            Plan {
                asn_v: asn::EUROBYTE,
                key: "eurobyte",
                second_octet: 15,
                v4_count: 8,
                v6_site: 0x110,
                v6_count: 18,
                domains: 25,
                impls: &[("nginx-quic", 22, "yunjiasu-nginx")],
            },
            Plan {
                asn_v: asn::SYNERGY,
                key: "synergy",
                second_octet: 15,
                v4_count: 8,
                v6_site: 0x111,
                v6_count: 8,
                domains: 301,
                impls: &[("lsquic", 7, "LiteSpeed")],
            },
            Plan {
                asn_v: asn::JIO,
                key: "jio",
                second_octet: 15,
                v4_count: 10,
                v6_site: 0x112,
                v6_count: 14,
                domains: 12,
                impls: &[("nginx-quic", 13, "nginx")],
            }, // note: Jio flips to Normal below (ZMap-visible, Table 2 v6)
        ];

        let mut third_next: HashMap<u8, u16> = HashMap::new();
        for plan in plans {
            let third = (*third_next.entry(plan.second_octet).or_insert(0)) as u8;
            self.asdb.announce(
                Prefix::new(Ipv4Addr::new(10, plan.second_octet, third, 0), 18),
                plan.asn_v,
            );
            self.asdb.announce(
                Prefix::new(
                    Ipv6Addr::new(0x2001, 0xdb8, plan.v6_site, 0, 0, 0, 0, 0),
                    48,
                ),
                plan.asn_v,
            );
            *third_next.get_mut(&plan.second_octet).unwrap() += 64;

            let v4_count = self.n(plan.v4_count);
            let v6_count = self.n(plan.v6_count);
            let v4 = self.alloc_v4_block(plan.second_octet, third, v4_count);
            let v6 = self.alloc_v6_block(plan.v6_site, v6_count);
            let first = self.hosts.len() as u32;
            let host_total = v4_count.max(v6_count);
            for i in 0..host_total {
                let (impl_name, tp, header) = plan.impls[i % plan.impls.len()];
                let mut h = base_host(plan.asn_v, plan.key);
                h.v4 = v4.get(i).copied();
                h.v6 = v6.get(i).copied();
                h.behavior = if plan.key == "jio" {
                    HostBehavior::Normal // Jio answers VN (Table 2, ZMap v6)
                } else {
                    HostBehavior::AltOnly // invisible to forced VN
                };
                h.impl_name = impl_name;
                h.tp_idx = tp;
                h.server_header = header.to_string();
                h.vn_versions = vs(&[Version::DRAFT_29]);
                h.accept_versions = vs(&[Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34]);
                h.alpn = alpn_of(&["h3-29"]);
                h.alt_svc = Some("h3-29=\":443\"; ma=86400, h3-27=\":443\"; ma=86400".into());
                h.cert_names = vec![
                    format!("*.{}-host{}.example.com", plan.key, i),
                    format!("*.{}-host{}.example.net", plan.key, i),
                    format!("*.{}-host{}.example.shop", plan.key, i),
                ];
                // A slice of the lsquic fleet validates addresses via Retry.
                if impl_name == "lsquic" && i.is_multiple_of(4) {
                    h.use_retry = true;
                }
                self.hosts.push(h);
            }
            let domain_count = self.n(plan.domains);
            for i in 0..domain_count {
                let tld = if i.is_multiple_of(3) {
                    "com"
                } else if i % 3 == 1 {
                    "net"
                } else {
                    "shop"
                };
                let name = format!("www-{i}.{}-host{}.example.{tld}", plan.key, i % host_total);
                let hi = first + (i % host_total) as u32;
                let mut lists = if tld == "shop" {
                    InputList::CzdsOther.bit()
                } else {
                    InputList::ComNetOrg.bit()
                };
                if i.is_multiple_of(150) {
                    lists |= InputList::Majestic.bit();
                }
                let https_rr_since = i.is_multiple_of(60).then_some(15);
                let has_v4 = self.hosts[hi as usize].v4.is_some();
                let has_v6 = self.hosts[hi as usize].v6.is_some();
                self.domains.push(DomainSpec {
                    name,
                    v4_hosts: if has_v4 { vec![hi] } else { Vec::new() },
                    v6_hosts: if has_v6 { vec![hi] } else { Vec::new() },
                    ghost_v4: Vec::new(),
                    https_rr_since,
                    lists,
                });
            }
        }
    }

    // -- The long tail ------------------------------------------------------

    fn build_tail(&mut self) {
        let litespeed_as = self.n(24);
        let nginx_as = self.n(16);
        let caddy_as = self.n(10);
        let misc_as = self.n(186);

        // Rare version sets for Figure 5's "Other" bucket (46 sets <1%).
        let rare_sets: Vec<Vec<Version>> = (0..46u32)
            .map(|i| {
                let mut set = vec![Version::DRAFT_29];
                if i.is_multiple_of(2) {
                    set.push(Version::DRAFT_32);
                }
                if i.is_multiple_of(3) {
                    set.push(Version::DRAFT_34);
                }
                if i.is_multiple_of(5) {
                    set.push(Version::DRAFT_28);
                }
                if i.is_multiple_of(7) {
                    set.push(Version(0xff00_0000 | (17 + i)));
                }
                if i.is_multiple_of(11) {
                    set.push(Version::Q050);
                }
                set
            })
            .collect();

        fn make_as(b: &mut Builder<'_>, count: usize, second: u8) -> Vec<(u32, u8, u8)> {
            (0..count)
                .map(|i| {
                    let asn_v = b.new_tail_asn("HOSTER");
                    let second_octet = second + (i / 250) as u8;
                    let third = (i % 250) as u8;
                    b.asdb.announce(
                        Prefix::new(Ipv4Addr::new(10, second_octet, third, 0), 24),
                        asn_v,
                    );
                    (asn_v, second_octet, third)
                })
                .collect()
        }

        // LiteSpeed cluster: ~30 hosts over 24 ASes, 240 domains.
        let ls_as = make_as(self, litespeed_as, 32);
        let ls_hosts = self.n(30);
        let first = self.hosts.len() as u32;
        for i in 0..ls_hosts {
            let (asn_v, s, t) = ls_as[i % ls_as.len()];
            let mut h = base_host(asn_v, "litespeed-self");
            h.v4 = Some(Ipv4Addr::new(10, s, t, (20 + i / ls_as.len()) as u8));
            h.impl_name = "lsquic";
            h.tp_idx = if i.is_multiple_of(5) { 8 } else { 7 };
            h.server_header = "LiteSpeed".into();
            h.vn_versions = vs(&[Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34]);
            h.accept_versions = h.vn_versions.clone();
            h.alpn = alpn_of(&["h3-29", "h3-32", "h3-34"]);
            h.alt_svc = Some("h3-29=\":443\"; ma=86400".into());
            h.cert_names = vec![format!("*.ls-site{i}.example.com")];
            self.hosts.push(h);
        }
        for i in 0..self.n(240) {
            self.domains.push(DomainSpec {
                name: format!("shop-{i}.ls-site{}.example.com", i % ls_hosts),
                v4_hosts: vec![first + (i % ls_hosts) as u32],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit(),
            });
        }

        // nginx cluster: 78 hosts over 16 ASes spanning all 16 nginx configs.
        let ng_as = make_as(self, nginx_as, 36);
        let ng_hosts = self.n(78);
        let nginx_configs = [
            9usize, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
        ];
        let first = self.hosts.len() as u32;
        for i in 0..ng_hosts {
            let (asn_v, s, t) = ng_as[i % ng_as.len()];
            let mut h = base_host(asn_v, "nginx-self");
            h.v4 = Some(Ipv4Addr::new(10, s, t, (30 + i / ng_as.len()) as u8));
            h.impl_name = "nginx-quic";
            h.tp_idx = nginx_configs[i % nginx_configs.len()];
            h.server_header = "nginx".into();
            h.vn_versions = vs(&[Version::DRAFT_29]);
            h.accept_versions = vs(&[Version::DRAFT_29, Version::DRAFT_32]);
            h.alpn = alpn_of(&["h3-29"]);
            h.alt_svc = Some("h3-29=\":443\"".into());
            h.cert_names = vec![format!("*.ng-site{i}.example.net")];
            self.hosts.push(h);
        }
        for i in 0..self.n(150) {
            self.domains.push(DomainSpec {
                name: format!("blog-{i}.ng-site{}.example.net", i % ng_hosts),
                v4_hosts: vec![first + (i % ng_hosts) as u32],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit(),
            });
        }

        // Caddy cluster: 15 hosts over 10 ASes, one config.
        let cd_as = make_as(self, caddy_as, 38);
        let cd_hosts = self.n(15);
        let first = self.hosts.len() as u32;
        for i in 0..cd_hosts {
            let (asn_v, s, t) = cd_as[i % cd_as.len()];
            let mut h = base_host(asn_v, "caddy-self");
            h.v4 = Some(Ipv4Addr::new(10, s, t, (40 + i / cd_as.len()) as u8));
            h.impl_name = "caddy";
            h.tp_idx = 25;
            h.server_header = "Caddy".into();
            h.vn_versions = vs(&[Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34]);
            h.accept_versions = h.vn_versions.clone();
            h.alpn = alpn_of(&["h3-29"]);
            h.alt_svc = Some("h3-29=\":443\"".into());
            h.cert_names = vec![format!("caddy-site{i}.example.org")];
            self.hosts.push(h);
        }
        for i in 0..self.n(45) {
            self.domains.push(DomainSpec {
                name: format!("caddy-site{}.example.org", i % cd_hosts),
                v4_hosts: vec![first + (i % cd_hosts) as u32],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: i.is_multiple_of(15).then_some(16),
                lists: InputList::ComNetOrg.bit(),
            });
        }

        // Misc tail: the remaining ZMap-visible hosts — a behaviour mix that
        // realizes the no-SNI outcome tail of Table 3.
        let misc = make_as(self, misc_as, 40);
        for (idx, (asn_v, _, _)) in misc.iter().enumerate() {
            self.asdb.announce(
                Prefix::new(
                    Ipv6Addr::new(0x2001, 0xdb8, 0x200 + idx as u16, 0, 0, 0, 0, 0),
                    48,
                ),
                *asn_v,
            );
        }
        let misc_hosts = self.n(2400);
        let mut tail_domain_idx = 0usize;
        let first = self.hosts.len() as u32;
        for i in 0..misc_hosts {
            let as_idx = i % misc.len();
            let (asn_v, s, t) = misc[as_idx];
            let mut h = base_host(asn_v, "tail");
            h.v4 = Some(Ipv4Addr::new(10, s, t, (50 + (i / misc.len()) % 200) as u8));
            // Implementation choice is per-AS (individual operators deploy
            // one stack), so most tail ASes expose a single configuration —
            // the paper's "50% of ASes show one configuration". The first
            // hosts seed one reachable deployment per catalogue entry so all
            // 45 configurations stay observable (Fig. 9).
            let (impl_name, tp, header): (&str, usize, String) = if i < 45 {
                ("nginx-quic", i, format!("srv-cfg{i}"))
            } else {
                match as_idx % 12 {
                    0 => ("quiche-cf", 0, "nginx/1.18.0".into()),
                    1 => ("quiche-cf", 17, "nginx/1.16.1".into()),
                    2 => ("nginx-quic", nginx_configs[as_idx % 16], "nginx".into()),
                    3 => ("lsquic", 7, "LiteSpeed".into()),
                    4 => ("caddy", 25, "Caddy".into()),
                    5 => ("h2o", 26, format!("h2o/2.3.0-g{:06x}", as_idx * 37)),
                    6 => ("aioquic", 35, "Python/3.7 aiohttp/3.7.2".into()),
                    7 => (
                        "nginx-quic",
                        27 + (as_idx % 18),
                        format!("srv-{}", as_idx % 12),
                    ),
                    8 => ("quiche-cf", 18, "openresty".into()),
                    9 => ("nginx-quic", 29, "nginx".into()),
                    10 => ("lsquic", 8, "LiteSpeed".into()),
                    _ => ("nginx-quic", 30, "nginx".into()),
                }
            };
            h.impl_name = impl_name;
            h.tp_idx = tp;
            h.server_header = header;
            h.vn_versions = rare_sets[i % rare_sets.len()].clone();
            h.accept_versions = {
                let mut a = h.vn_versions.clone();
                if !a.contains(&Version::DRAFT_29) {
                    a.push(Version::DRAFT_29);
                }
                a
            };
            h.alpn = alpn_of(&["h3-29"]);
            h.behavior = if i < 45 {
                HostBehavior::Normal // config seeds stay reachable
            } else {
                match i % 24 {
                    // VN answered, handshake never completes — the paper's
                    // timeout tail (§5: load balancers / scan-lag artifacts).
                    0..=14 => HostBehavior::VnOnly,
                    15 | 16 => HostBehavior::RejectNoSni,
                    17 | 18 => HostBehavior::BrokenOther,
                    _ => HostBehavior::Normal,
                }
            };
            // Half of the healthy tail is dual-stacked (v6 no-SNI successes).
            if h.behavior == HostBehavior::Normal && i.is_multiple_of(2) {
                h.v6 = Some(Ipv6Addr::new(
                    0x2001,
                    0xdb8,
                    0x200 + (i % misc.len()) as u16,
                    (i / misc.len()) as u16,
                    0,
                    0,
                    0,
                    1,
                ));
            }
            if i.is_multiple_of(47) {
                h.respond_unpadded = true; // the non-Fastly 4.6% of §3.1
            }
            h.alt_svc = match i % 5 {
                0 => Some(QUIC_ONLY_ALT.into()),
                1 => Some("h3-29=\":443\"".into()),
                _ => None,
            };
            h.cert_names = vec![format!("tail-{i}.example.com")];
            let scannable = matches!(h.behavior, HostBehavior::Normal | HostBehavior::RejectNoSni);
            self.hosts.push(h);
            if i.is_multiple_of(10) && scannable {
                self.domains.push(DomainSpec {
                    name: format!("tail-{i}.example.com"),
                    v4_hosts: vec![first + i as u32],
                    v6_hosts: Vec::new(),
                    ghost_v4: Vec::new(),
                    https_rr_since: tail_domain_idx.is_multiple_of(30).then_some(17),
                    lists: InputList::ComNetOrg.bit(),
                });
                tail_domain_idx += 1;
            }
        }

        // Legacy "quic-only Alt-Svc" hosts upgrading over the weeks
        // (Figure 7's shrinking `quic` set), spread across the tail ASes.
        let legacy = self.n(120);
        for i in 0..legacy {
            let (asn_v, s, t) = misc[i % misc.len()];
            let mut h = base_host(asn_v, "legacy-gquic");
            h.v4 = Some(Ipv4Addr::new(10, s, t, (1 + (i / misc.len()) % 48) as u8));
            h.impl_name = "google-quic";
            h.server_header = "gws".into();
            h.tp_idx = 6;
            h.vn_versions = vs(&[Version::Q050, Version::Q046, Version::Q043]);
            h.accept_versions = h.vn_versions.clone();
            h.behavior = HostBehavior::AltOnly;
            let upgrade_week = 10 + (i as u32) % 9;
            h.alt_svc = Some(if self.week >= upgrade_week {
                GOOGLE_ALT_OLD.into()
            } else {
                QUIC_ONLY_ALT.into()
            });
            h.cert_names = vec![format!("legacy-{i}.example.com")];
            self.hosts.push(h);
            let idx = (self.hosts.len() - 1) as u32;
            self.domains.push(DomainSpec {
                name: format!("legacy-{i}.example.com"),
                v4_hosts: vec![idx],
                v6_hosts: Vec::new(),
                ghost_v4: Vec::new(),
                https_rr_since: None,
                lists: InputList::ComNetOrg.bit(),
            });
        }
    }

    // -- HTTPS-RR-only hint addresses --------------------------------------

    fn build_https_only_hints(&mut self) {
        // Extra Cloudflare addresses only ever seen inside ipv4hints: they
        // answer QUIC but not the forced VN, and no A record points at them
        // (the "12k unique addresses from HTTPS RRs" finding).
        let count = self.n(120);
        let first = self.hosts.len() as u32;
        for i in 0..count {
            let mut h = base_host(asn::CLOUDFLARE, "cloudflare-hint");
            h.v4 = Some(Ipv4Addr::new(10, 0, 210, (1 + i % 250) as u8));
            h.behavior = HostBehavior::AltOnly;
            h.impl_name = "quiche-cf";
            h.tp_idx = 0;
            h.server_header = "cloudflare".into();
            h.alpn = alpn_of(&["h3-29", "h3-28", "h3-27"]);
            h.alt_svc = None;
            h.tcp = false;
            h.cert_names = cf_customer_cert(&format!("cf-hint-{i}.sim"));
            self.hosts.push(h);
        }
        let mut hint_cursor = 0u32;
        for d in self.domains.iter_mut() {
            if hint_cursor >= count as u32 {
                break;
            }
            if d.https_rr_since.is_some()
                && d.name.contains("cf-customer")
                && self.rng.gen_bool(0.3)
            {
                d.v4_hosts.push(first + hint_cursor);
                hint_cursor += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Universe {
        Universe::generate(UniverseConfig::tiny(18))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.hosts.len(), b.hosts.len());
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(a.hosts[0].v4, b.hosts[0].v4);
        assert_eq!(
            a.domains.last().unwrap().name,
            b.domains.last().unwrap().name
        );
    }

    #[test]
    fn population_structure() {
        let u = tiny();
        assert!(
            u.hosts.len() > 500,
            "tiny universe has {} hosts",
            u.hosts.len()
        );
        assert!(
            u.domains.len() > 1000,
            "tiny universe has {} domains",
            u.domains.len()
        );
        let mut seen = std::collections::HashSet::new();
        for h in &u.hosts {
            assert!(h.v4.is_some() || h.v6.is_some());
            if let Some(v4) = h.v4 {
                assert!(seen.insert(v4), "duplicate v4 {v4}");
            }
        }
    }

    #[test]
    fn asdb_attributes_every_host() {
        let u = tiny();
        for h in &u.hosts {
            if let Some(v4) = h.v4 {
                let asn_v = u.asdb.lookup(&simnet::IpAddr::V4(v4));
                assert_eq!(asn_v, Some(h.asn), "host {v4} provider {}", h.provider);
            }
        }
    }

    #[test]
    fn week18_has_v1_at_cloudflare() {
        let u = tiny();
        let cf = u.hosts.iter().find(|h| h.provider == "cloudflare").unwrap();
        assert!(cf.vn_versions.contains(&Version::V1));
        let early = Universe::generate(UniverseConfig::tiny(9));
        let cf9 = early
            .hosts
            .iter()
            .find(|h| h.provider == "cloudflare")
            .unwrap();
        assert!(!cf9.vn_versions.contains(&Version::V1));
    }

    #[test]
    fn zone_contains_domains_and_https_rrs() {
        let u = tiny();
        let zone = u.zone();
        assert!(!zone.is_empty());
        let with_rr = u
            .domains
            .iter()
            .find(|d| d.https_rr_since.map(|w| w <= 18).unwrap_or(false))
            .expect("some https rr domain");
        let records = zone.lookup(&with_rr.name, dns::rr::QType::Https);
        assert!(!records.is_empty(), "HTTPS RR for {}", with_rr.name);
    }

    #[test]
    fn network_binds_services() {
        let u = tiny();
        let net = u.build_network();
        assert!(net.udp_socket_count() > 500);
        assert!(net.tcp_socket_count() > 500);
    }

    #[test]
    fn google_rollout_is_time_bounded() {
        let during = Universe::generate(UniverseConfig::tiny(18));
        let after = Universe::generate(UniverseConfig::tiny(31));
        let mismatch_during = during
            .hosts
            .iter()
            .filter(|h| h.behavior == HostBehavior::GoogleRollout)
            .count();
        let mismatch_after = after
            .hosts
            .iter()
            .filter(|h| h.behavior == HostBehavior::GoogleRollout)
            .count();
        assert!(mismatch_during > 0);
        assert_eq!(
            mismatch_after, 0,
            "roll-out artifact resolves (August 2021)"
        );
    }

    #[test]
    fn behaviour_slices_all_present() {
        let u = tiny();
        let count = |f: &dyn Fn(&HostSpec) -> bool| u.hosts.iter().filter(|h| f(h)).count();
        assert!(count(&|h| h.strict_sni) > 0, "strict-SNI slice");
        assert!(count(&|h| h.use_retry) > 0, "retry slice");
        assert!(count(&|h| h.tls12_tcp) > 0, "TLS1.2-on-TCP slice");
        assert!(count(&|h| h.google_tcp_quirks) > 0, "google TCP quirks");
        assert!(count(&|h| h.rotate_cert_on_tcp) > 0, "cert rotation slice");
        assert!(
            count(&|h| h.tcp_generic_default) > 0,
            "split termination slice"
        );
        assert!(count(&|h| h.behavior == HostBehavior::VnOnly) > 0);
        assert!(count(&|h| h.behavior == HostBehavior::AltOnly) > 0);
        assert!(count(&|h| h.behavior == HostBehavior::BrokenOther) > 0);
    }

    #[test]
    fn akamai_draft29_adoption_is_monotonic() {
        let share = |week: u32| {
            let u = Universe::generate(UniverseConfig::tiny(week));
            let (with, total) = u.hosts.iter().filter(|h| h.provider == "akamai").fold(
                (0usize, 0usize),
                |(w, t), h| {
                    (
                        w + usize::from(h.vn_versions.contains(&Version::DRAFT_29)),
                        t + 1,
                    )
                },
            );
            (with as f64) / (total as f64)
        };
        let (w5, w11, w18) = (share(5), share(11), share(18));
        assert!(w5 < w11 && w11 < w18, "{w5} {w11} {w18}");
        assert!(w18 > 0.8, "late adoption {w18}");
    }

    #[test]
    fn legacy_alt_svc_upgrades_over_weeks() {
        let quic_only = |week: u32| {
            let u = Universe::generate(UniverseConfig::tiny(week));
            u.hosts
                .iter()
                .filter(|h| {
                    h.provider == "legacy-gquic"
                        && h.alt_svc
                            .as_deref()
                            .map(|a| a.starts_with("quic="))
                            .unwrap_or(false)
                })
                .count()
        };
        assert!(
            quic_only(9) > quic_only(18),
            "{} vs {}",
            quic_only(9),
            quic_only(18)
        );
    }

    #[test]
    fn every_tp_config_has_a_reachable_host() {
        let u = tiny();
        let reachable: std::collections::HashSet<usize> = u
            .hosts
            .iter()
            .filter(|h| matches!(h.behavior, HostBehavior::Normal | HostBehavior::RejectNoSni))
            .map(|h| h.tp_idx)
            .collect();
        assert_eq!(
            reachable.len(),
            crate::catalog::TP_CONFIG_COUNT,
            "{reachable:?}"
        );
    }

    #[test]
    fn input_lists_have_filler() {
        let u = tiny();
        let alexa = u.input_list(InputList::Alexa);
        let quic_count = u
            .domains
            .iter()
            .filter(|d| d.lists & InputList::Alexa.bit() != 0)
            .count();
        assert_eq!(
            alexa.len(),
            quic_count + InputList::Alexa.filler_count(0.05)
        );
        assert!(
            quic_count * 3 < alexa.len(),
            "most list entries are not QUIC"
        );
    }
}
