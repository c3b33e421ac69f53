//! Lazy endpoint universes: millions of addressable endpoints without
//! materializing any of them.
//!
//! Two layers share the same mechanism ([`simnet::LazyBinder`]):
//!
//! 1. **Paper-scale equivalence** — [`UniverseBinder`] wraps a generated
//!    [`Universe`] and derives, on first contact, exactly the endpoint
//!    [`Universe::build_network`] would have bound at that address: same
//!    [`crate::servers::QuicHost`]/[`crate::servers::HttpsTcpHost`], same
//!    per-host seeds, same certificates. With an unbounded cache the lazily
//!    bound network is byte-equivalent to the materialized one for every
//!    scan the campaign runs.
//!
//! 2. **Million-endpoint scale** — [`LazyUniverse`] drops the host vector
//!    entirely. Membership over a sparse scan span is defined through a
//!    Feistel permutation: the members are the images of scan indices
//!    `0..endpoints`, and [`zmapq::FeistelPermutation::rank`] answers the
//!    inverse question ("is this address a member, and which index is it?")
//!    in O(1) without enumerating anything. Every behavioural attribute —
//!    behaviour class, version set, SNI posture, AS attribution, endpoint
//!    seed — derives from `(seed, index)` through the same splitmix64
//!    finalizer the fault layer uses for flow draws, so the population is a
//!    pure function: O(1) state, identical at any worker count. Endpoints
//!    instantiate on first contact from a small set of shared templates and
//!    evict under a residency cap, keeping the working set O(responsive
//!    hosts), not O(population).

use std::collections::HashMap;
use std::sync::Arc;

use qtls::server::NoSniBehavior;
use quic::server::EndpointConfig;
use quic::version::Version;
use simnet::addr::{Ipv4Addr, Prefix};
use simnet::{IpAddr, LazyBinder, Network, SocketAddr, TcpFactory, UdpService};
use zmapq::FeistelPermutation;

use crate::catalog::{implementation, tp_config};
use crate::faults::FaultPlan;
use crate::servers::{HttpProfile, QuicHost};
use crate::universe::{HostBehavior, Universe};

// ---------------------------------------------------------------------------
// Paper-scale: lazy twin of Universe::build_network
// ---------------------------------------------------------------------------

/// Derives the materialized network's endpoints on demand. Holds its own
/// `Universe` (generation is deterministic, so a twin generated from the
/// same config carries identical hosts and certificates) plus an
/// address→host index for O(1) lookup — the only per-population state.
pub struct UniverseBinder {
    universe: Universe,
    by_ip: HashMap<IpAddr, u32>,
}

impl UniverseBinder {
    /// Builds the binder over `universe`.
    pub fn new(universe: Universe) -> Self {
        let mut by_ip = HashMap::with_capacity(universe.hosts.len() * 2);
        for (i, h) in universe.hosts.iter().enumerate() {
            if let Some(v4) = h.v4 {
                by_ip.insert(IpAddr::V4(v4), i as u32);
            }
            if let Some(v6) = h.v6 {
                by_ip.insert(IpAddr::V6(v6), i as u32);
            }
        }
        UniverseBinder { universe, by_ip }
    }

    /// Index of the host serving `at` (every service is on port 443).
    fn host_at(&self, at: SocketAddr) -> Option<usize> {
        if at.port != 443 {
            return None;
        }
        self.by_ip.get(&at.ip).map(|&i| i as usize)
    }
}

impl LazyBinder for UniverseBinder {
    fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
        Some(Box::new(self.universe.quic_service(self.host_at(at)?)?))
    }

    fn udp_open(&self, at: SocketAddr) -> bool {
        self.host_at(at)
            .is_some_and(|i| self.universe.hosts[i].behavior != HostBehavior::SilentQuic)
    }

    fn make_tcp(&self, at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
        Some(Box::new(self.universe.tcp_service(self.host_at(at)?)?))
    }

    fn tcp_open(&self, at: SocketAddr) -> bool {
        self.host_at(at).is_some_and(|i| self.universe.hosts[i].tcp)
    }
}

impl Universe {
    /// The lazy twin of [`Universe::build_network`]: an empty network with a
    /// [`UniverseBinder`] installed, no residency cap. Endpoints come into
    /// existence on first contact and keep their connection state for the
    /// network's lifetime, so every campaign scan observes byte-identical
    /// results to the materialized network.
    pub fn build_network_lazy(&self) -> Network {
        let mut net = Network::new(self.config.seed);
        let twin = Universe::generate(self.config.clone());
        net.set_lazy_binder(Box::new(UniverseBinder::new(twin)), None);
        net
    }

    /// [`Universe::build_network_lazy`] with `plan`'s impairments installed
    /// (fault profiles are per-path, independent of endpoint instantiation).
    pub fn build_network_lazy_with_faults(&self, plan: &FaultPlan) -> Network {
        let mut net = self.build_network_lazy();
        plan.apply(self, &mut net);
        net
    }
}

// ---------------------------------------------------------------------------
// Million-endpoint scale: the fully derived universe
// ---------------------------------------------------------------------------

/// Scale-universe parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Master seed; the whole population is a function of it.
    pub seed: u64,
    /// Number of addressable member endpoints scattered over the span.
    pub endpoints: u64,
    /// IPv4 scan span the members hide in (must be ≥ `endpoints` large).
    pub span: Prefix,
}

impl ScaleConfig {
    /// The acceptance-scale configuration: 1.25M addressable endpoints in a
    /// /10 (4.2M addresses), mirroring the materialized universe's scan
    /// span with three orders of magnitude more deployments.
    pub fn million(seed: u64) -> Self {
        ScaleConfig {
            seed,
            endpoints: 1_250_000,
            span: Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 10),
        }
    }

    /// A small configuration for tests: `endpoints` members in a /16.
    pub fn test(seed: u64, endpoints: u64) -> Self {
        ScaleConfig {
            seed,
            endpoints,
            span: Prefix::new(Ipv4Addr::new(10, 7, 0, 0), 16),
        }
    }
}

/// Behaviour class of a scale-universe member (a coarse projection of
/// [`crate::universe::HostBehavior`] onto what the scanners can
/// distinguish at scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleBehavior {
    /// Answers VN and completes handshakes (with or without SNI).
    Normal,
    /// Answers VN; no-SNI handshakes die with crypto error 0x128.
    RejectNoSni,
    /// Middlebox: answers VN, never handshakes.
    VnOnly,
    /// Answers VN; handshakes close with a non-0x128 transport error.
    BrokenOther,
    /// Addressable but dark on UDP 443 — invisible to the sweep.
    Silent,
}

/// Everything derivable about one member endpoint: a pure function of
/// `(seed, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Persona {
    /// Scan index (= membership rank) of this endpoint.
    pub index: u64,
    /// Behaviour class towards the scanners.
    pub behavior: ScaleBehavior,
    /// Version-set template id (an index into `VERSION_SETS`).
    pub version_set: usize,
    /// Synthetic AS attribution (provider-skewed, for rank CDFs).
    pub asn: u32,
    /// Per-endpoint connection seed.
    pub seed: u64,
}

/// splitmix64 finalizer — the same construction `simnet::fault` keys flow
/// draws with, applied here to `(seed, index)` persona draws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Behaviour mix in permille of the member population. VN-responsive mass
/// (everything but `Silent`) is 300‰ — the sweep's hit rate stays sparse
/// like the real Internet's, and "responsive hosts" is a strict subset of
/// the population the memory bound is measured against.
const BEHAVIOR_BANDS: [(u32, ScaleBehavior); 5] = [
    (180, ScaleBehavior::Normal),
    (260, ScaleBehavior::RejectNoSni),
    (285, ScaleBehavior::VnOnly),
    (300, ScaleBehavior::BrokenOther),
    (1000, ScaleBehavior::Silent),
];

/// Version-set templates (index = `Persona::version_set`).
const VERSION_SETS: [&[Version]; 3] = [
    &[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27],
    &[Version::V1, Version::DRAFT_29],
    &[Version::DRAFT_28, Version::DRAFT_27],
];

const SALT_BEHAVIOR: u64 = 0xb1;
const SALT_VERSION: u64 = 0x5e;
const SALT_ASN: u64 = 0xa5;
const SALT_SEED: u64 = 0xe0;
const SALT_SAMPLE: u64 = 0x5a;

struct ScaleInner {
    config: ScaleConfig,
    /// Permutation over the span's offset domain; members are the images of
    /// indices `0..endpoints`.
    perm: FeistelPermutation,
    base: u32,
    span_size: u64,
    /// Shared endpoint templates, indexed `behavior_class * 3 + version_set`
    /// (behaviour classes in `BEHAVIOR_BANDS` order, `Silent` excluded).
    /// Shared with every endpoint instantiated from them, as is `profile`,
    /// so an instantiation copies no configuration.
    templates: Vec<Arc<EndpointConfig>>,
    profile: Arc<HttpProfile>,
}

/// The derived million-endpoint universe. Cloning shares the inner state
/// (templates, permutation), so the network binder and any analysis
/// accumulators can hold their own handles for free.
#[derive(Clone)]
pub struct LazyUniverse {
    inner: Arc<ScaleInner>,
}

fn behavior_class(b: ScaleBehavior) -> usize {
    match b {
        ScaleBehavior::Normal => 0,
        ScaleBehavior::RejectNoSni => 1,
        ScaleBehavior::VnOnly => 2,
        ScaleBehavior::BrokenOther => 3,
        ScaleBehavior::Silent => usize::MAX,
    }
}

impl LazyUniverse {
    /// Derives the universe for `config`. Cost is O(#templates): one shared
    /// certificate and twelve endpoint configurations, regardless of
    /// `endpoints`.
    pub fn new(config: ScaleConfig) -> Self {
        let span_size = u64::try_from(config.span.size()).expect("span fits u64");
        assert!(
            config.endpoints <= span_size,
            "{} endpoints exceed span of {span_size}",
            config.endpoints
        );
        assert!(config.endpoints > 0, "empty universe");
        let base = match config.span.base {
            IpAddr::V4(v4) => u32::from(v4),
            IpAddr::V6(_) => panic!("scale span must be IPv4"),
        };
        let perm = FeistelPermutation::new(span_size, config.seed ^ 0x5ca1e);

        // One CA, one wildcard certificate, shared by every member: the
        // population's TLS state is O(1).
        let ca = qtls::CertificateAuthority::new("Scale CA", config.seed);
        let subject = "node.scale.example".to_string();
        let cert = ca.issue(
            config.seed,
            &subject,
            vec![subject.clone(), "*.scale.example".to_string()],
            0,
            u32::MAX,
            qcrypto::sha256::digest(subject.as_bytes()),
        );
        let impl_info = implementation("nginx-quic");
        let mut templates = Vec::with_capacity(12);
        for class in 0..4usize {
            for (vi, versions) in VERSION_SETS.iter().enumerate() {
                let no_sni = if class == 1 {
                    NoSniBehavior::Reject(qtls::Alert::HandshakeFailure)
                } else if class == 3 {
                    NoSniBehavior::Reject(qtls::Alert::NoApplicationProtocol)
                } else {
                    NoSniBehavior::UseDefault(0)
                };
                let alpn = versions.iter().map(|v| v.alpn().into_bytes()).collect();
                let tls = Arc::new(qtls::ServerConfig {
                    certs: vec![cert.clone()],
                    no_sni,
                    reject_unknown_sni: false,
                    alpn,
                    alpn_required: false,
                    cipher_pref: qtls::CipherSuite::default_offer(),
                    group_pref: vec![qtls::NamedGroup::X25519, qtls::NamedGroup::Secp256r1],
                    send_sni_ack: true,
                    no_alpn_without_sni: false,
                    quic_transport_params: None,
                    tls12_only: false,
                    week: 18,
                });
                templates.push(Arc::new(EndpointConfig {
                    accept_versions: versions.to_vec(),
                    vn_advertise: versions.to_vec(),
                    vn_only: class == 2,
                    respond_to_unpadded: false,
                    no_version_negotiation: false,
                    tls,
                    transport_params: tp_config(9 + vi),
                    close_reason: impl_info.close_reason.to_string(),
                    use_retry: false,
                }));
            }
        }
        let profile = Arc::new(HttpProfile {
            server_header: impl_info.name.to_string(),
            alt_svc: None,
            extra_headers: Vec::new(),
        });
        LazyUniverse {
            inner: Arc::new(ScaleInner {
                config,
                perm,
                base,
                span_size,
                templates,
                profile,
            }),
        }
    }

    /// The configuration this universe was derived from.
    pub fn config(&self) -> &ScaleConfig {
        &self.inner.config
    }

    /// Member endpoint count.
    pub fn endpoints(&self) -> u64 {
        self.inner.config.endpoints
    }

    /// Addresses in the scan span.
    pub fn span_size(&self) -> u64 {
        self.inner.span_size
    }

    /// The sweep's prefix list (allocation-free, like
    /// [`Universe::scan_prefixes`]).
    pub fn scan_prefixes(&self) -> [Prefix; 1] {
        [self.inner.config.span]
    }

    fn draw(&self, index: u64, salt: u64) -> u64 {
        mix(self.inner.config.seed ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ salt)
    }

    /// Address of the member at scan `index` (must be `< endpoints`).
    pub fn target(&self, index: u64) -> Ipv4Addr {
        assert!(index < self.endpoints(), "index out of population");
        Ipv4Addr::from(self.inner.base + self.inner.perm.permute(index) as u32)
    }

    /// Iterator over every member address, in scan-index order — the probe
    /// target feed. Nothing is materialized; each item is one permutation
    /// evaluation.
    pub fn targets(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.endpoints()).map(move |i| self.target(i))
    }

    /// Membership test: the scan index of `addr` if it is a member. One
    /// inverse-permutation evaluation, no lookups.
    pub fn member_index(&self, addr: Ipv4Addr) -> Option<u64> {
        let v = u32::from(addr);
        let offset = u64::from(v.checked_sub(self.inner.base)?);
        if offset >= self.inner.span_size {
            return None;
        }
        let rank = self.inner.perm.rank(offset);
        (rank < self.endpoints()).then_some(rank)
    }

    /// The full derived persona of member `index`.
    pub fn persona(&self, index: u64) -> Persona {
        assert!(index < self.endpoints(), "index out of population");
        let behavior = self.behavior(index);
        // Provider-skewed AS attribution: three hyperscalers hold 55% of
        // deployments, a heavy tail of small ASes the rest — the shape
        // behind the paper's Figure 4 rank CDF.
        let a = self.draw(index, SALT_ASN);
        let asn = match a % 1000 {
            0..=299 => 64_512,
            300..=449 => 64_513,
            450..=549 => 64_514,
            _ => 64_520 + (a >> 10) as u32 % 4_096,
        };
        Persona {
            index,
            behavior,
            version_set: (self.draw(index, SALT_VERSION) % VERSION_SETS.len() as u64) as usize,
            asn,
            seed: self.draw(index, SALT_SEED),
        }
    }

    /// Persona of an address, when it is a member.
    pub fn persona_of(&self, addr: Ipv4Addr) -> Option<Persona> {
        self.member_index(addr).map(|i| self.persona(i))
    }

    /// Behaviour class of member `index` — the one draw of its persona the
    /// UDP membership question needs.
    fn behavior(&self, index: u64) -> ScaleBehavior {
        let b = self.draw(index, SALT_BEHAVIOR) % 1000;
        BEHAVIOR_BANDS
            .iter()
            .find(|(hi, _)| b < u64::from(*hi))
            .map(|(_, beh)| *beh)
            .expect("bands cover 0..1000")
    }

    /// Deterministic stateful-scan sample: every member whose sample draw
    /// lands in `1/one_in`, in scan-index order. Worker-count independent
    /// by construction; at `one_in = 512` the million-endpoint universe
    /// yields ≈ 2.4k follow-up targets.
    pub fn stateful_sample(&self, one_in: u64) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let one_in = one_in.max(1);
        (0..self.endpoints())
            .filter(move |&i| self.draw(i, SALT_SAMPLE).is_multiple_of(one_in))
            .map(move |i| self.target(i))
    }

    /// Builds the network: empty tables plus this universe as the binder.
    /// `resident_cap` bounds instantiated endpoints (each cache shard
    /// evicts its least recently contacted one not in use first) — the
    /// knob that keeps a million-endpoint sweep at O(cap) memory. Use
    /// `None` only at small scale.
    pub fn build_network(&self, resident_cap: Option<usize>) -> Network {
        let mut net = Network::new(self.inner.config.seed);
        net.set_lazy_binder(Box::new(self.clone()), resident_cap);
        net
    }
}

impl LazyBinder for LazyUniverse {
    fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
        if at.port != 443 {
            return None;
        }
        let IpAddr::V4(v4) = at.ip else { return None };
        let p = self.persona_of(v4)?;
        let class = behavior_class(p.behavior);
        if class == usize::MAX {
            return None; // Silent: addressable, dark on UDP.
        }
        let cfg = &self.inner.templates[class * VERSION_SETS.len() + p.version_set];
        Some(Box::new(QuicHost::new(
            cfg.clone(),
            self.inner.profile.clone(),
            p.seed,
        )))
    }

    fn udp_open(&self, at: SocketAddr) -> bool {
        let IpAddr::V4(v4) = at.ip else { return false };
        at.port == 443
            && self
                .member_index(v4)
                .is_some_and(|i| self.behavior(i) != ScaleBehavior::Silent)
    }

    fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
        // The scale universe models the QUIC-side measurement only.
        None
    }

    fn tcp_open(&self, _at: SocketAddr) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;
    use zmapq::modules::quic_vn::QuicVnModule;
    use zmapq::{ZmapConfig, ZmapScanner};

    fn scanner(workers: usize) -> ZmapScanner {
        let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 7), 40_000));
        cfg.rate_pps = 10_000_000;
        cfg.workers = workers;
        ZmapScanner::new(cfg)
    }

    /// The paper-scale binder reproduces the materialized network exactly:
    /// a full VN sweep sees the same hits in the same order, and TCP port
    /// state agrees address by address.
    #[test]
    fn lazy_binding_matches_materialized_network() {
        let u = Universe::generate(UniverseConfig::tiny(18));
        let static_net = u.build_network();
        let lazy_net = u.build_network_lazy();
        let module = QuicVnModule::new(0x9000);
        let prefixes = u.scan_prefixes();
        let a = scanner(4).scan_v4(&static_net, &prefixes, &module);
        let b = scanner(4).scan_v4(&lazy_net, &prefixes, &module);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        for h in &u.hosts {
            for ip in [h.v4.map(IpAddr::V4), h.v6.map(IpAddr::V6)]
                .into_iter()
                .flatten()
            {
                let at = SocketAddr::new(ip, 443);
                assert_eq!(
                    static_net.tcp_port_open(at),
                    lazy_net.tcp_port_open(at),
                    "tcp parity at {at}"
                );
            }
        }
        let stats = lazy_net.lazy_stats().expect("binder installed");
        assert!(stats.resident > 0, "sweep instantiated nothing");
        assert_eq!(stats.evicted, 0, "paper mode must not evict");
    }

    /// `udp_open` answers exactly what `make_udp` builds, for both binders:
    /// over every address of a scale span plus a wrong port and an address
    /// outside it, and over every host address of a paper-scale universe,
    /// v6 and `SilentQuic` hosts included, plus misses.
    #[test]
    fn udp_open_tells_the_truth() {
        fn agree(binder: &dyn LazyBinder, at: SocketAddr) -> bool {
            let open = binder.udp_open(at);
            assert_eq!(open, binder.make_udp(at).is_some(), "{at}");
            open
        }
        let u = LazyUniverse::new(ScaleConfig::test(0x0be7, 4_000));
        let base = match u.config().span.base {
            IpAddr::V4(v4) => u32::from(v4),
            IpAddr::V6(_) => unreachable!(),
        };
        let open = (0..u.span_size() as u32)
            .filter(|&o| agree(&u, SocketAddr::new(Ipv4Addr::from(base + o), 443)))
            .count();
        let responsive = (0..u.endpoints())
            .filter(|&i| u.persona(i).behavior != ScaleBehavior::Silent)
            .count();
        assert_eq!(open, responsive);
        let member = u.target(0);
        assert!(!agree(&u, SocketAddr::new(member, 80)));
        assert!(!agree(
            &u,
            SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 443)
        ));

        // Generation makes no `SilentQuic` host; darken every seventh.
        let mut universe = Universe::generate(UniverseConfig::tiny(18));
        for h in universe.hosts.iter_mut().step_by(7) {
            h.behavior = HostBehavior::SilentQuic;
        }
        let hosts = universe.hosts.clone();
        let binder = UniverseBinder::new(universe);
        let (mut silent, mut v6) = (0, 0);
        for h in &hosts {
            let ips = [h.v4.map(IpAddr::V4), h.v6.map(IpAddr::V6)];
            for ip in ips.into_iter().flatten() {
                let open = agree(&binder, SocketAddr::new(ip, 443));
                assert_eq!(open, h.behavior != HostBehavior::SilentQuic);
                silent += usize::from(!open);
                v6 += usize::from(matches!(ip, IpAddr::V6(_)));
                assert!(!agree(&binder, SocketAddr::new(ip, 8443)));
            }
        }
        assert!(silent > 0 && v6 > 0, "{silent} silent, {v6} v6 addresses");
        assert!(!agree(
            &binder,
            SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 443)
        ));
    }

    /// Membership via the permutation inverse is exact: the target iterator
    /// yields each member once, every member round-trips through
    /// `member_index`, and non-members are rejected.
    #[test]
    fn membership_is_exact() {
        let u = LazyUniverse::new(ScaleConfig::test(0xcafe, 1_000));
        let members: Vec<Ipv4Addr> = u.targets().collect();
        assert_eq!(members.len(), 1_000);
        let set: std::collections::HashSet<_> = members.iter().copied().collect();
        assert_eq!(set.len(), 1_000, "duplicate member addresses");
        for (i, m) in members.iter().enumerate() {
            assert_eq!(u.member_index(*m), Some(i as u64));
        }
        // Count membership over the whole span: exactly `endpoints` hits.
        let base = match u.config().span.base {
            IpAddr::V4(v4) => u32::from(v4),
            IpAddr::V6(_) => unreachable!(),
        };
        let total = (0..u.span_size())
            .filter(|&o| u.member_index(Ipv4Addr::from(base + o as u32)).is_some())
            .count();
        assert_eq!(total, 1_000);
        // Out-of-span addresses are never members.
        assert_eq!(u.member_index(Ipv4Addr::new(192, 0, 2, 1)), None);
    }

    /// Personas are deterministic and the behaviour mix lands inside the
    /// configured bands.
    #[test]
    fn personas_are_deterministic_and_mixed() {
        let u = LazyUniverse::new(ScaleConfig::test(7, 20_000));
        let v = LazyUniverse::new(ScaleConfig::test(7, 20_000));
        let mut by_behavior: HashMap<ScaleBehavior, u64> = HashMap::new();
        for i in 0..u.endpoints() {
            let p = u.persona(i);
            assert_eq!(p, v.persona(i), "index {i}");
            *by_behavior.entry(p.behavior).or_default() += 1;
        }
        let share =
            |b: ScaleBehavior| *by_behavior.get(&b).unwrap_or(&0) as f64 / u.endpoints() as f64;
        assert!((share(ScaleBehavior::Silent) - 0.70).abs() < 0.02);
        assert!((share(ScaleBehavior::Normal) - 0.18).abs() < 0.02);
        assert!(share(ScaleBehavior::VnOnly) > 0.01);
        assert!(share(ScaleBehavior::BrokenOther) > 0.005);
    }

    /// A sweep over a small scale universe finds exactly the VN-responsive
    /// members, resident endpoints stay bounded by the cap, and the sample
    /// feed is deterministic.
    #[test]
    fn scale_sweep_is_bounded_and_exact() {
        let u = LazyUniverse::new(ScaleConfig::test(0x51ed, 4_000));
        let net = u.build_network(Some(64));
        let module = QuicVnModule::new(0x51ed);
        let hits = scanner(4).scan_v4(&net, &u.scan_prefixes(), &module);
        let responsive = (0..u.endpoints())
            .filter(|&i| u.persona(i).behavior != ScaleBehavior::Silent)
            .count();
        assert_eq!(hits.len(), responsive);
        for h in &hits {
            let IpAddr::V4(v4) = h.addr.ip else {
                panic!("v4 sweep")
            };
            assert!(u.member_index(v4).is_some(), "hit outside membership");
        }
        let stats = net.lazy_stats().expect("binder installed");
        assert_eq!(stats.instantiated, responsive as u64);
        assert!(
            stats.peak_resident <= 64 + 8,
            "peak resident {} broke the cap",
            stats.peak_resident
        );
        let s1: Vec<Ipv4Addr> = u.stateful_sample(64).collect();
        let s2: Vec<Ipv4Addr> = u.stateful_sample(64).collect();
        assert_eq!(s1, s2);
        assert!(!s1.is_empty());
        assert!(s1.len() < 200, "sample too large: {}", s1.len());
    }
}
