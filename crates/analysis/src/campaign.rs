//! Campaign orchestration: executes the paper's scan pipeline (§3) against
//! a generated universe and snapshots everything the tables/figures need.
//!
//! Weekly (stateless) scans: ZMap QUIC VN sweeps, DNS list resolutions,
//! Alt-Svc collection. Week-18 stateful scans: TLS-over-TCP with/without
//! SNI, and QScanner runs over the three target sources.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dns::massdns::BulkResolver;
use dns::resolver::Resolver;
use goscanner::{Goscanner, TlsScanResult, TlsTarget};
use internet::universe::{InputList, Universe, UniverseConfig};
use internet::FaultPlan;
use qscanner::{QScanner, QuicScanResult, QuicTarget, ScanOutcome};
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, Network};
use telemetry::{EventKind, Telemetry, TraceCtx};
use zmapq::modules::quic_vn::{QuicVnModule, VnResult};
use zmapq::{ZmapConfig, ZmapScanner};

/// Which discovery source produced an SNI target (bitmask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SniSource;

impl SniSource {
    /// ZMap hits joined with DNS A/AAAA records.
    pub const ZMAP_DNS: u8 = 1;
    /// HTTP Alt-Svc headers from TLS-over-TCP scans.
    pub const ALT_SVC: u8 = 2;
    /// HTTPS DNS resource records.
    pub const HTTPS_RR: u8 = 4;
}

/// Maximum domains scanned per IP address per source (Appendix A ethics).
pub const MAX_DOMAINS_PER_IP: usize = 100;

/// Per-host Alt-Svc observation from a weekly collection pass.
#[derive(Debug, Clone)]
pub struct AltSvcObservation {
    /// Serving address.
    pub addr: IpAddr,
    /// Originating AS.
    pub asn: u32,
    /// Raw header value.
    pub alt_svc: String,
    /// Number of (domain, ip) pairs this host contributes.
    pub domain_pairs: u64,
}

/// Stateless weekly snapshot (Figures 3, 5, 6, 7).
pub struct WeeklySnapshot {
    /// Calendar week.
    pub week: u32,
    /// IPv4 ZMap VN hits.
    pub zmap_v4: Vec<VnResult>,
    /// IPv6 ZMap VN hits.
    pub zmap_v6: Vec<VnResult>,
    /// Per input list: (domains resolved, domains with an h3 HTTPS RR).
    pub dns_lists: Vec<(InputList, usize, usize)>,
    /// Alt-Svc values per serving host with pair weights.
    pub alt_svc: Vec<AltSvcObservation>,
    /// AS number per IPv4 ZMap hit (resolved against the week's AS DB).
    pub zmap_v4_asn: Vec<Option<u32>>,
}

impl WeeklySnapshot {
    /// Order-sensitive digest of everything the weekly figures consume.
    /// Two snapshots with the same fingerprint are byte-identical for the
    /// paper's purposes; the reproducibility tests compare fingerprints
    /// across worker counts, fault plans, and repeated runs.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        let mut repr = String::with_capacity(4096);
        let _ = write!(
            repr,
            "{}|{:?}|{:?}|{:?}|{:?}",
            self.week, self.zmap_v4, self.zmap_v6, self.dns_lists, self.zmap_v4_asn
        );
        for o in &self.alt_svc {
            let _ = write!(
                repr,
                "|{:?};{};{};{}",
                o.addr, o.asn, o.alt_svc, o.domain_pairs
            );
        }
        fnv1a(repr.as_bytes())
    }
}

/// FNV-1a — stable across processes and platforms, unlike `DefaultHasher`'s
/// unspecified algorithm.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Count of stateful-scan verdicts per failure mode — the observable side
/// of fault injection. Clean and faulted runs of the same seed agree on
/// [`FailureBreakdown::timeouts`] (and every other aggregate) but split the
/// timeout mass differently across the four silent-failure modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Completed handshakes.
    pub success: usize,
    /// Nothing ever came back.
    pub no_reply: usize,
    /// Replies arrived but the handshake never finished.
    pub stalled: usize,
    /// The path signaled ICMP unreachable.
    pub unreachable: usize,
    /// A rate limiter signaled pushback.
    pub rate_limited: usize,
    /// CONNECTION_CLOSE with crypto error 0x128 (no SNI).
    pub crypto_0x128: usize,
    /// Other transport closes.
    pub other_close: usize,
    /// Version negotiation offered no compatible version.
    pub version_mismatch: usize,
    /// Everything else (TLS failures, protocol errors, panics).
    pub other: usize,
}

impl FailureBreakdown {
    /// Accumulates one scan verdict.
    pub fn tally(&mut self, outcome: &ScanOutcome) {
        match outcome {
            ScanOutcome::Success => self.success += 1,
            ScanOutcome::NoReply => self.no_reply += 1,
            ScanOutcome::Stalled => self.stalled += 1,
            ScanOutcome::Unreachable => self.unreachable += 1,
            ScanOutcome::RateLimited => self.rate_limited += 1,
            ScanOutcome::TransportClose { code: 0x128, .. } => self.crypto_0x128 += 1,
            ScanOutcome::TransportClose { .. } => self.other_close += 1,
            ScanOutcome::VersionMismatch => self.version_mismatch += 1,
            _ => self.other += 1,
        }
    }

    /// Tallies a whole result set.
    pub fn from_results<'a>(results: impl IntoIterator<Item = &'a QuicScanResult>) -> Self {
        let mut b = FailureBreakdown::default();
        for r in results {
            b.tally(&r.outcome);
        }
        b
    }

    /// The coarse "Timeout" row of Table 3: the four silent-failure modes a
    /// faultless path cannot distinguish.
    pub fn timeouts(&self) -> usize {
        self.no_reply + self.stalled + self.unreachable + self.rate_limited
    }

    /// Total verdicts tallied.
    pub fn total(&self) -> usize {
        self.success
            + self.timeouts()
            + self.crypto_0x128
            + self.other_close
            + self.version_mismatch
            + self.other
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        format!(
            "== failure-mode breakdown ==\nsuccess:          {}\nno reply:         {}\nstalled:          {}\nunreachable:      {}\nrate limited:     {}\ncrypto 0x128:     {}\nother close:      {}\nversion mismatch: {}\nother:            {}\ntotal:            {}\n",
            self.success,
            self.no_reply,
            self.stalled,
            self.unreachable,
            self.rate_limited,
            self.crypto_0x128,
            self.other_close,
            self.version_mismatch,
            self.other,
            self.total(),
        )
    }
}

/// One resolved domain with its addresses (the DNS join input).
#[derive(Debug, Clone)]
pub struct DomainResolution {
    /// Name.
    pub name: String,
    /// IPv4 addresses (including ghosts).
    pub v4: Vec<Ipv4Addr>,
    /// IPv6 addresses.
    pub v6: Vec<simnet::addr::Ipv6Addr>,
    /// ALPN values of the HTTPS RR, when present.
    pub https_alpn: Vec<String>,
    /// ipv4hint addresses.
    pub https_v4_hints: Vec<Ipv4Addr>,
    /// ipv6hint addresses.
    pub https_v6_hints: Vec<simnet::addr::Ipv6Addr>,
}

impl DomainResolution {
    /// The HTTPS RR advertises HTTP/3.
    pub fn https_indicates_quic(&self) -> bool {
        self.https_alpn
            .iter()
            .any(|a| a == "h3" || a.starts_with("h3-"))
    }
}

/// The §3.1 padding ablation result.
#[derive(Debug, Clone, Default)]
pub struct PaddingExperiment {
    /// Hits with the standard 1200-byte probe.
    pub padded_hits: usize,
    /// Hits with the unpadded probe.
    pub unpadded_hits: usize,
    /// Share of unpadded hits inside the single top AS.
    pub unpadded_top_as_share: f64,
}

/// Full stateful snapshot for week 18 (§5).
pub struct StatefulSnapshot {
    /// The universe scanned (owns the AS DB).
    pub universe: Universe,
    /// ZMap discovery results.
    pub zmap_v4: Vec<VnResult>,
    /// IPv6 ZMap results.
    pub zmap_v6: Vec<VnResult>,
    /// Resolution of every known domain.
    pub resolutions: Vec<DomainResolution>,
    /// Addresses with TCP 443 open (v4).
    pub tcp_open_v4: Vec<IpAddr>,
    /// TLS-over-TCP scans without SNI (over ZMap v4+v6 hits).
    pub tcp_no_sni: Vec<TlsScanResult>,
    /// TLS-over-TCP scans with SNI over (addr, domain) pairs.
    pub tcp_sni: Vec<TlsScanResult>,
    /// QUIC stateful scans without SNI (v4 then v6; check `addr` family).
    pub quic_no_sni: Vec<QuicScanResult>,
    /// QUIC stateful scans with SNI, with their source masks.
    pub quic_sni: Vec<(u8, QuicScanResult)>,
    /// The padding ablation.
    pub padding: PaddingExperiment,
    /// Per input list totals (resolved, with h3 HTTPS RR) at week 18.
    pub dns_lists: Vec<(InputList, usize, usize)>,
}

impl StatefulSnapshot {
    /// Failure-mode breakdown over every stateful QUIC verdict (no-SNI and
    /// SNI scans combined).
    pub fn failure_breakdown(&self) -> FailureBreakdown {
        FailureBreakdown::from_results(
            self.quic_no_sni
                .iter()
                .chain(self.quic_sni.iter().map(|(_, r)| r)),
        )
    }
}

/// Campaign runner.
#[derive(Clone)]
pub struct Campaign {
    /// Population multiplier (1.0 = default scale).
    pub size_factor: f64,
    /// Seed.
    pub seed: u64,
    /// Scan worker threads.
    pub workers: usize,
    /// Fault injection applied to the simulated network. The default reads
    /// `SIM_LOSS_PERMILLE` (the CI loss-matrix hook); the paper-facing
    /// aggregates are calibrated to be invariant under any such plan.
    pub fault: FaultPlan,
    /// Optional telemetry. When set, stateful QUIC scans run traced (qlog
    /// events into the sink, counters into the registry), ZMap sweeps
    /// submit shard metrics, and `run_stateful` opens with a `plan_summary`
    /// event. Never changes scan behaviour: results are byte-identical with
    /// telemetry on or off.
    pub telemetry: Option<Telemetry>,
    /// Bind server endpoints lazily: the network starts empty and a
    /// [`internet::lazy::UniverseBinder`] derives each endpoint on first
    /// contact. Every snapshot, table, and fingerprint is byte-identical to
    /// the materialized default — the equivalence tests pin this down — the
    /// campaign just stops paying for hosts the scans never touch.
    pub lazy: bool,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            size_factor: 1.0,
            seed: 0x9000,
            workers: 8,
            fault: FaultPlan::from_env(),
            telemetry: None,
            lazy: false,
        }
    }
}

fn vantage_v4() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
}

impl Campaign {
    /// A reduced-size campaign for tests.
    pub fn tiny() -> Self {
        Campaign {
            size_factor: 0.05,
            seed: 0x9000,
            workers: 4,
            fault: FaultPlan::from_env(),
            telemetry: None,
            lazy: false,
        }
    }

    fn universe(&self, week: u32) -> Universe {
        let mut cfg = UniverseConfig::week(week);
        cfg.seed = self.seed;
        cfg.size_factor = self.size_factor;
        Universe::generate(cfg)
    }

    fn network(&self, universe: &Universe) -> Network {
        if self.lazy {
            universe.build_network_lazy_with_faults(&self.fault)
        } else {
            universe.build_network_with_faults(&self.fault)
        }
    }

    fn zmap(&self) -> ZmapScanner {
        let mut cfg = ZmapConfig::new(simnet::SocketAddr::new(
            Ipv4Addr::new(192, 0, 2, 10),
            40_000,
        ));
        cfg.rate_pps = 10_000_000; // virtual pps; pacing is accounted, not waited
        cfg.workers = self.workers;
        // Under injected loss, single-shot discovery would drop responsive
        // hosts; five duplicate probes push the per-host miss probability
        // below 1e-5 at 50‰ loss, keeping hit sets identical to a clean run.
        cfg.probe_repeat = if self.fault.loss_permille > 0 { 5 } else { 1 };
        cfg.metrics = self.telemetry.as_ref().map(|t| t.metrics.clone());
        ZmapScanner::new(cfg)
    }

    /// Emits the `plan_summary` event describing this campaign's fault plan
    /// (flow `u64::MAX` keeps it clear of per-target flows).
    fn emit_plan_summary(&self, universe: &Universe, week: u32) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        let mut ctx = TraceCtx::new(u64::MAX, "campaign".to_string(), Some(week));
        ctx.record(EventKind::PlanSummary {
            loss_permille: self.fault.loss_permille,
            middlebox_rate_limit: self.fault.middlebox_rate_limit,
            ghost_unreachable: self.fault.ghost_unreachable,
            paths_overridden: self.fault.planned_path_overrides(universe),
        });
        tel.emit_all(&ctx.finish());
    }

    /// Runs a QUIC scan traced or untraced depending on configuration.
    fn scan_quic(
        &self,
        qscan: &QScanner,
        net: &Network,
        targets: &[QuicTarget],
        week: u32,
    ) -> Vec<QuicScanResult> {
        match &self.telemetry {
            Some(tel) => qscan.scan_many_traced(net, targets, self.workers, Some(week), tel),
            None => qscan.scan_many(net, targets, self.workers),
        }
    }

    /// Runs the stateless weekly scans for `week`.
    pub fn run_weekly(&self, week: u32) -> WeeklySnapshot {
        let universe = self.universe(week);
        let net = self.network(&universe);
        let scanner = self.zmap();
        let module = QuicVnModule::new(self.seed);
        let zmap_v4 = scanner.scan_v4(&net, &universe.scan_prefixes(), &module);
        let hitlist = universe.v6_hitlist();
        let zmap_v6 = scanner.scan_v6(&net, &hitlist, &module);
        let zmap_v4_asn = zmap_v4
            .iter()
            .map(|h| universe.asdb.lookup(&h.addr.ip))
            .collect();

        // DNS list resolutions (Figure 3).
        let zone = Arc::new(universe.zone());
        let bulk = BulkResolver::new(Resolver::new(zone.clone()));
        let dns_lists = dns_list_tally(&universe, &bulk);

        // Alt-Svc collection: deduplicated per serving host (host-level
        // headers make per-pair scans redundant), weighted by pair count.
        let resolutions = resolve_all(&universe, &bulk);
        let mut per_addr: HashMap<IpAddr, Vec<&DomainResolution>> = HashMap::new();
        for r in &resolutions {
            for v4 in &r.v4 {
                per_addr.entry(IpAddr::V4(*v4)).or_default().push(r);
            }
            for v6 in &r.v6 {
                per_addr.entry(IpAddr::V6(*v6)).or_default().push(r);
            }
        }
        let goscan = Goscanner::new(vantage_v4(), self.seed ^ week as u64);
        let mut probe_targets: Vec<(TlsTarget, u64)> = per_addr
            .iter()
            .map(|(addr, domains)| {
                let capped = domains.len().min(MAX_DOMAINS_PER_IP) as u64;
                // An address gains its list by a push, so no list is empty.
                let first = domains.first().expect("non-empty by construction");
                (
                    TlsTarget {
                        addr: *addr,
                        domain: Some(first.name.clone()),
                    },
                    capped,
                )
            })
            .collect();
        probe_targets.sort_by_key(|t| t.0.addr);
        let targets: Vec<TlsTarget> = probe_targets.iter().map(|(t, _)| t.clone()).collect();
        let results = goscan.scan_all(&net, &targets, self.workers);
        let mut alt_svc = Vec::new();
        for (result, (target, pairs)) in results.iter().zip(&probe_targets) {
            if let Some(value) = result.http.as_ref().and_then(|r| r.header("alt-svc")) {
                alt_svc.push(AltSvcObservation {
                    addr: target.addr,
                    asn: universe.asdb.lookup(&target.addr).unwrap_or(0),
                    alt_svc: value.to_string(),
                    domain_pairs: *pairs,
                });
            }
        }

        WeeklySnapshot {
            week,
            zmap_v4,
            zmap_v6,
            dns_lists,
            alt_svc,
            zmap_v4_asn,
        }
    }

    /// Runs the full stateful pipeline for week 18 (§5).
    pub fn run_stateful(&self) -> StatefulSnapshot {
        let week = 18;
        let universe = self.universe(week);
        let net = self.network(&universe);
        self.emit_plan_summary(&universe, week);
        let zscanner = self.zmap();
        let module = QuicVnModule::new(self.seed);

        // 1. Discovery: ZMap QUIC VN (v4 sweep + v6 hitlist), TCP SYN sweep.
        let zmap_v4 = zscanner.scan_v4(&net, &universe.scan_prefixes(), &module);
        let hitlist = universe.v6_hitlist();
        let zmap_v6 = zscanner.scan_v6(&net, &hitlist, &module);
        let tcp_open_v4 = zscanner.scan_tcp_syn(&net, &universe.scan_prefixes());

        // §3.1 padding ablation.
        let unpadded = QuicVnModule::unpadded(self.seed);
        let unpadded_hits = zscanner.scan_v4(&net, &universe.scan_prefixes(), &unpadded);
        let padding = {
            let mut by_as: HashMap<u32, usize> = HashMap::new();
            for h in &unpadded_hits {
                *by_as
                    .entry(universe.asdb.lookup(&h.addr.ip).unwrap_or(0))
                    .or_default() += 1;
            }
            let top = by_as.values().copied().max().unwrap_or(0);
            PaddingExperiment {
                padded_hits: zmap_v4.len(),
                unpadded_hits: unpadded_hits.len(),
                unpadded_top_as_share: if unpadded_hits.is_empty() {
                    0.0
                } else {
                    top as f64 / unpadded_hits.len() as f64
                },
            }
        };

        // 2. DNS: resolve every known domain for joins + list statistics.
        let zone = Arc::new(universe.zone());
        let bulk = BulkResolver::new(Resolver::new(zone.clone()));
        let resolutions = resolve_all(&universe, &bulk);
        let dns_lists = dns_list_tally(&universe, &bulk);

        // Build the addr → domains join (per-IP cap per source).
        let mut addr_domains: HashMap<IpAddr, Vec<usize>> = HashMap::new();
        for (di, r) in resolutions.iter().enumerate() {
            let v4 = r.v4.iter().map(|a| IpAddr::V4(*a));
            for a in v4.chain(r.v6.iter().map(|a| IpAddr::V6(*a))) {
                addr_domains.entry(a).or_default().push(di);
            }
        }

        // 3. TLS-over-TCP scans.
        let goscan = Goscanner::new(vantage_v4(), self.seed ^ 0x7c9);
        // 3a. Without SNI: over ZMap hits (both families).
        let no_sni_targets: Vec<TlsTarget> = zmap_v4
            .iter()
            .chain(&zmap_v6)
            .map(|h| TlsTarget {
                addr: h.addr.ip,
                domain: None,
            })
            .collect();
        let tcp_no_sni = goscan.scan_all(&net, &no_sni_targets, self.workers);

        // 3b. With SNI: TCP-open addresses × joined domains (capped). TCP
        // 443 is open where the v4 SYN sweep hit, and asked directly for v6.
        let tcp_open_set: HashSet<IpAddr> = tcp_open_v4.iter().copied().collect();
        let mut link = net.shard();
        let mut sni_targets: Vec<TlsTarget> = Vec::new();
        for (addr, domains) in &addr_domains {
            let tcp_open = match addr {
                IpAddr::V4(_) => tcp_open_set.contains(addr),
                IpAddr::V6(_) => link.tcp_port_open(simnet::SocketAddr::new(*addr, 443)),
            };
            if !tcp_open {
                continue;
            }
            for &di in domains.iter().take(MAX_DOMAINS_PER_IP) {
                sni_targets.push(TlsTarget {
                    addr: *addr,
                    domain: Some(resolutions[di].name.clone()),
                });
            }
        }
        link.finish();
        sni_targets.sort_by(|a, b| (a.addr, &a.domain).cmp(&(b.addr, &b.domain)));
        let tcp_sni = goscan.scan_all(&net, &sni_targets, self.workers);

        // 4. QUIC stateful targets from the three sources.
        let compatible =
            |versions: &[quic::Version]| versions.iter().any(|v| v.qscanner_compatible());
        let mut sni_map: HashMap<(IpAddr, String), u8> = HashMap::new();

        // Source 1: ZMap + DNS join (compat-filtered on announced versions).
        let zmap_compat: HashSet<IpAddr> = zmap_v4
            .iter()
            .chain(&zmap_v6)
            .filter(|h| compatible(&h.versions))
            .map(|h| h.addr.ip)
            .collect();
        for (addr, domains) in &addr_domains {
            if !zmap_compat.contains(addr) {
                continue;
            }
            for &di in domains.iter().take(MAX_DOMAINS_PER_IP) {
                *sni_map
                    .entry((*addr, resolutions[di].name.clone()))
                    .or_default() |= SniSource::ZMAP_DNS;
            }
        }

        // Source 2: Alt-Svc pairs (h3 ALPN with a compatible draft).
        for r in &tcp_sni {
            let Some(domain) = &r.target.domain else {
                continue;
            };
            let alt = r.alt_services();
            let ok = alt
                .iter()
                .any(|s| matches!(s.alpn.as_str(), "h3" | "h3-29" | "h3-32" | "h3-34"));
            if ok {
                *sni_map.entry((r.target.addr, domain.clone())).or_default() |= SniSource::ALT_SVC;
            }
        }

        // Source 3: HTTPS RRs (hints + A records of RR-bearing domains).
        for r in &resolutions {
            if !r.https_indicates_quic() {
                continue;
            }
            let ok = r
                .https_alpn
                .iter()
                .any(|a| matches!(a.as_str(), "h3" | "h3-29" | "h3-32" | "h3-34"));
            if !ok {
                continue;
            }
            for a in r.https_v4_hints.iter().chain(&r.v4) {
                *sni_map.entry((IpAddr::V4(*a), r.name.clone())).or_default() |=
                    SniSource::HTTPS_RR;
            }
            for a in r.https_v6_hints.iter().chain(&r.v6) {
                *sni_map.entry((IpAddr::V6(*a), r.name.clone())).or_default() |=
                    SniSource::HTTPS_RR;
            }
        }

        let mut sni_pairs: Vec<((IpAddr, String), u8)> = sni_map.into_iter().collect();
        sni_pairs.sort_by(|a, b| a.0.cmp(&b.0));

        // 5. Stateful QUIC scans: one scan over the no-SNI targets, then the
        // SNI ones, so no two targets of the campaign share a scan index
        // (the seed, source ports and flow id each target derives from it).
        let qscan = QScanner::new(vantage_v4(), self.seed ^ 0x9c5);
        let mut quic_targets: Vec<QuicTarget> = zmap_v4
            .iter()
            .chain(&zmap_v6)
            .filter(|h| compatible(&h.versions))
            .map(|h| QuicTarget::new(h.addr.ip, None))
            .collect();
        let no_sni = quic_targets.len();
        quic_targets.extend(
            sni_pairs
                .iter()
                .map(|((addr, domain), _)| QuicTarget::new(*addr, Some(domain.clone()))),
        );
        let mut quic_no_sni = self.scan_quic(&qscan, &net, &quic_targets, week);
        let sni_results = quic_no_sni.split_off(no_sni);
        quic_no_sni.shrink_to_fit(); // the snapshot keeps it: drop the SNI half's capacity
        let quic_sni: Vec<(u8, QuicScanResult)> = sni_pairs
            .into_iter()
            .map(|(_, mask)| mask)
            .zip(sni_results)
            .collect();

        StatefulSnapshot {
            universe,
            zmap_v4,
            zmap_v6,
            resolutions,
            tcp_open_v4,
            tcp_no_sni,
            tcp_sni,
            quic_no_sni,
            quic_sni,
            padding,
            dns_lists,
        }
    }
}

/// Figure 3's per-list tally: `(list, names, names whose HTTPS RR
/// indicates QUIC)` for every input list.
fn dns_list_tally(universe: &Universe, bulk: &BulkResolver) -> Vec<(InputList, usize, usize)> {
    InputList::all()
        .into_iter()
        .map(|list| {
            let names = universe.input_list(list);
            let with_rr = names
                .iter()
                .filter(|name| bulk.resolve_domain(name).https_indicates_quic())
                .count();
            (list, names.len(), with_rr)
        })
        .collect()
}

/// Resolves every domain known to the universe.
fn resolve_all(universe: &Universe, bulk: &BulkResolver) -> Vec<DomainResolution> {
    universe
        .domains
        .iter()
        .map(|d| {
            let r = bulk.resolve_domain(&d.name);
            DomainResolution {
                name: d.name.clone(),
                v4: r.a.clone(),
                v6: r.aaaa.clone(),
                https_alpn: r
                    .https
                    .iter()
                    .flat_map(|p| p.alpn.iter().cloned())
                    .collect(),
                https_v4_hints: r.https_ipv4_hints(),
                https_v6_hints: r.https_ipv6_hints(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qscanner::ScanOutcome;

    /// The breakdown keeps all four silent-failure modes apart — including
    /// `Stalled`, which the calibrated campaign plan by construction cannot
    /// produce (a host that replies partially classifies into a non-timeout
    /// row on a clean path, so converting it would change the tables) but
    /// which per-attempt scans against broken peers do.
    #[test]
    fn failure_breakdown_distinguishes_all_silent_modes() {
        let mut b = FailureBreakdown::default();
        for o in [
            ScanOutcome::Success,
            ScanOutcome::NoReply,
            ScanOutcome::Stalled,
            ScanOutcome::Stalled,
            ScanOutcome::Unreachable,
            ScanOutcome::RateLimited,
            ScanOutcome::VersionMismatch,
            ScanOutcome::TransportClose {
                code: 0x128,
                reason: "alert 40".into(),
            },
            ScanOutcome::TransportClose {
                code: 0x2,
                reason: "internal".into(),
            },
            ScanOutcome::Other("tls".into()),
        ] {
            b.tally(&o);
        }
        assert_eq!(b.success, 1);
        assert_eq!(b.no_reply, 1);
        assert_eq!(b.stalled, 2);
        assert_eq!(b.unreachable, 1);
        assert_eq!(b.rate_limited, 1);
        assert_eq!(b.crypto_0x128, 1);
        assert_eq!(b.other_close, 1);
        assert_eq!(b.version_mismatch, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.timeouts(), 5);
        assert_eq!(b.total(), 10);
        let report = b.render();
        for label in ["no reply", "stalled", "unreachable", "rate limited"] {
            assert!(report.contains(label), "render lost {label}: {report}");
        }
    }

    #[test]
    fn tiny_weekly_campaign() {
        let campaign = Campaign::tiny();
        let w9 = campaign.run_weekly(9);
        let w18 = campaign.run_weekly(18);
        assert_eq!(w9.week, 9);
        // HTTPS RR adoption grows.
        let rr = |w: &WeeklySnapshot| -> usize { w.dns_lists.iter().map(|(_, _, n)| n).sum() };
        assert!(rr(&w18) > rr(&w9), "{} vs {}", rr(&w18), rr(&w9));
        // Version 1 appears only at week 18.
        let has_v1 = |w: &WeeklySnapshot| {
            w.zmap_v4
                .iter()
                .any(|h| h.versions.contains(&quic::Version::V1))
        };
        assert!(!has_v1(&w9));
        assert!(has_v1(&w18));
        // Alt-Svc observations exist and are weighted.
        assert!(!w18.alt_svc.is_empty());
        assert!(w18.alt_svc.iter().any(|o| o.domain_pairs > 1));
    }
}
