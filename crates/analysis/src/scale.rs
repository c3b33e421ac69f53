//! The million-endpoint campaign: an IPv4-scale stateless sweep over a
//! [`LazyUniverse`] plus a sampled stateful follow-up, analysed entirely
//! through the streaming accumulators of [`crate::stream`].
//!
//! Nothing here ever holds the population, the target list, or the raw
//! result stream in memory. The sweep rides
//! [`zmapq::ZmapScanner::scan_v4_accumulate`] with a mergeable accumulator
//! (merged in shard-index order, so every figure is worker-count
//! independent); the follow-up rides [`qscanner::QScanner::scan_stream`]
//! with a tallying sink. The working set is O(responsive hosts) — bounded
//! further by the lazy binder's residency cap — no matter how many
//! endpoints the universe holds.

use std::time::Instant;

use internet::lazy::{LazyUniverse, ScaleConfig};
use qscanner::{QScanner, QuicTarget};
use quic::version::Version;
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, Network, SocketAddr};
use zmapq::modules::quic_vn::{QuicVnModule, VnResult};
use zmapq::{SweepAccumulator, ZmapConfig, ZmapScanner};

use crate::campaign::FailureBreakdown;
use crate::stream::{CountMap, LogSketch};

/// SNI the stateful follow-up presents (covered by the scale universe's
/// shared wildcard certificate).
const SCALE_SNI: &str = "node.scale.example";

/// Streaming per-shard sweep accumulator: counters and sketches only, plus
/// a persona handle to attribute each hit without any lookup tables.
struct SweepAcc {
    universe: LazyUniverse,
    hits: u64,
    /// Deployments per AS (the Figure 4 rank CDF at scale).
    by_as: CountMap<u32>,
    /// Hits per derived version-set template.
    by_version_set: CountMap<usize>,
    /// Advertised-version occurrences across all VN responses, labelled
    /// once when the tables are built.
    by_version: CountMap<Version>,
    /// VN response payload sizes (1 + 4 + 2 CID length bytes + 16 CID +
    /// 4 bytes per advertised version) — the §3.1 response-cost CDF.
    response_bytes: LogSketch,
}

impl SweepAcc {
    fn new(universe: LazyUniverse) -> Self {
        SweepAcc {
            universe,
            hits: 0,
            by_as: CountMap::new(),
            by_version_set: CountMap::new(),
            by_version: CountMap::new(),
            response_bytes: LogSketch::new(),
        }
    }
}

impl SweepAccumulator for SweepAcc {
    type Item = VnResult;

    fn absorb(&mut self, hit: VnResult) {
        self.hits += 1;
        if let IpAddr::V4(v4) = hit.addr.ip {
            if let Some(p) = self.universe.persona_of(v4) {
                self.by_as.absorb(p.asn);
                self.by_version_set.absorb(p.version_set);
            }
        }
        for &v in &hit.versions {
            self.by_version.absorb(v);
        }
        self.response_bytes
            .absorb(23 + 4 * hit.versions.len() as u64);
    }

    fn merge(&mut self, other: Self) {
        self.hits += other.hits;
        self.by_as.merge(other.by_as);
        self.by_version_set.merge(other.by_version_set);
        self.by_version.merge(other.by_version);
        self.response_bytes.merge(other.response_bytes);
    }
}

/// Version counts as labelled rows, ranked by count, then by label. The
/// label decides ties, not `Version`'s numeric order: `V1` (0x00000001,
/// "ietf-01") sorts before `DRAFT_29` (0xff00001d, "draft-29") by number but
/// after it by label.
fn version_rows(counts: &CountMap<Version>) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = counts
        .ranked()
        .into_iter()
        .map(|(v, n)| (v.label(), n))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// The deterministic half of a scale run: everything that must be
/// byte-identical at any worker count. The worker-invariance test compares
/// two of these wholesale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTables {
    /// Addressable endpoints in the universe.
    pub endpoints: u64,
    /// VN-responsive endpoints the sweep found.
    pub responsive: u64,
    /// Probes the sweep sent.
    pub probes: u64,
    /// AS rank CDF over responsive deployments.
    pub as_rank_cdf: Vec<(usize, f64)>,
    /// Responsive endpoints per version-set template, ranked.
    pub version_sets: Vec<(usize, u64)>,
    /// Advertised-version occurrences, ranked by count then label.
    pub versions: Vec<(String, u64)>,
    /// VN response size CDF points.
    pub response_size_cdf: Vec<(u64, f64)>,
    /// Stateful sample size.
    pub sampled: u64,
    /// Follow-up verdicts without SNI.
    pub no_sni: FailureBreakdown,
    /// Follow-up verdicts with SNI.
    pub sni: FailureBreakdown,
    /// `initial_max_data` distribution over successful SNI handshakes.
    pub tp_initial_max_data_cdf: Vec<(u64, f64)>,
}

/// Performance observations of one run (never compared across runs).
#[derive(Debug, Clone, Default)]
pub struct ScalePerf {
    /// Wall-clock of the stateless sweep, in milliseconds.
    pub universe_sweep_ms: u64,
    /// Sweep throughput over the full addressable population.
    pub universe_endpoints_per_sec: u64,
    /// Wall-clock of the stateful follow-up, in milliseconds.
    pub stateful_ms: u64,
    /// Peak RSS of the process (`VmHWM`), in MiB; 0 when unavailable.
    pub campaign_peak_rss_mb: u64,
    /// Endpoints instantiated by the lazy binder over the whole campaign.
    pub instantiated: u64,
    /// Endpoints evicted under the residency cap.
    pub evicted: u64,
    /// Datagrams the lazy binder answered without an endpoint: every
    /// sweep hit, and the follow-up's Version Negotiations.
    pub stateless: u64,
    /// High-water mark of simultaneously resident endpoints.
    pub peak_resident: usize,
}

/// Everything a scale run produces.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Worker-count-invariant aggregates.
    pub tables: ScaleTables,
    /// Timing and memory of this particular run.
    pub perf: ScalePerf,
}

impl ScaleReport {
    /// Machine-parsable rendering: one `key value` pair per line, consumed
    /// by the CI `universe-scale-smoke` job.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let t = &self.tables;
        let p = &self.perf;
        let mut out = String::new();
        let _ = writeln!(out, "universe_endpoints {}", t.endpoints);
        let _ = writeln!(out, "universe_responsive {}", t.responsive);
        let _ = writeln!(out, "universe_probes {}", t.probes);
        let _ = writeln!(out, "universe_sweep_ms {}", p.universe_sweep_ms);
        let _ = writeln!(
            out,
            "universe_endpoints_per_sec {}",
            p.universe_endpoints_per_sec
        );
        let _ = writeln!(out, "stateful_sampled {}", t.sampled);
        let _ = writeln!(out, "stateful_ms {}", p.stateful_ms);
        let _ = writeln!(out, "campaign_peak_rss_mb {}", p.campaign_peak_rss_mb);
        let _ = writeln!(out, "lazy_instantiated {}", p.instantiated);
        let _ = writeln!(out, "lazy_evicted {}", p.evicted);
        let _ = writeln!(out, "lazy_stateless {}", p.stateless);
        let _ = writeln!(out, "lazy_peak_resident {}", p.peak_resident);
        let _ = writeln!(out, "as_count {}", t.as_rank_cdf.len());
        let top3 = crate::cdf::share_at_rank(&t.as_rank_cdf, 3);
        let _ = writeln!(out, "as_top3_share {top3:.4}");
        let _ = writeln!(out, "sni_success {}", t.sni.success);
        let _ = writeln!(out, "no_sni_crypto_0x128 {}", t.no_sni.crypto_0x128);
        let _ = writeln!(out, "version_mismatch {}", t.sni.version_mismatch);
        out
    }
}

/// Peak RSS (`VmHWM`) of the current process in MiB, from
/// `/proc/self/status`; 0 off Linux or when unreadable.
pub fn peak_rss_mb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// The scale campaign: configuration plus the run driver.
#[derive(Debug, Clone, Copy)]
pub struct ScaleCampaign {
    /// Universe shape (seed, population, span).
    pub config: ScaleConfig,
    /// Scan worker threads.
    pub workers: usize,
    /// Residency cap handed to the lazy binder — the sweep's memory knob.
    pub resident_cap: usize,
    /// Stateful follow-up samples one in this many members.
    pub sample_one_in: u64,
}

impl ScaleCampaign {
    /// The acceptance-scale configuration: 1.25M endpoints, a 4,096-endpoint
    /// residency cap, one member in 512 sampled for the follow-up.
    pub fn million(seed: u64, workers: usize) -> Self {
        ScaleCampaign {
            config: ScaleConfig::million(seed),
            workers,
            resident_cap: 4_096,
            sample_one_in: 512,
        }
    }

    /// A small configuration for tests.
    pub fn test(seed: u64, endpoints: u64, workers: usize) -> Self {
        ScaleCampaign {
            config: ScaleConfig::test(seed, endpoints),
            workers,
            resident_cap: 256,
            sample_one_in: 64,
        }
    }

    fn vantage() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
    }

    fn zmap(&self) -> ZmapScanner {
        let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 10), 40_000));
        cfg.rate_pps = 10_000_000;
        cfg.workers = self.workers;
        ZmapScanner::new(cfg)
    }

    /// Runs the full campaign: sweep, then sampled stateful follow-up.
    pub fn run(&self) -> ScaleReport {
        let universe = LazyUniverse::new(self.config);
        self.run_on(&universe, &universe.build_network(Some(self.resident_cap)))
    }

    /// The campaign against `net`, however its endpoints came to be bound.
    fn run_on(&self, universe: &LazyUniverse, net: &Network) -> ScaleReport {
        let module = QuicVnModule::new(self.config.seed);

        // Stateless sweep: probes stream off the Feistel walk, results fold
        // into per-shard accumulators merged in shard-index order.
        let sweep_start = Instant::now();
        let (acc, report) =
            self.zmap()
                .scan_v4_accumulate(net, &universe.scan_prefixes(), &module, || {
                    SweepAcc::new(universe.clone())
                });
        let universe_sweep_ms = sweep_start.elapsed().as_millis() as u64;

        // Stateful follow-up over the deterministic sample: a no-SNI pass
        // (the paper's 0x128 lens) and an SNI pass, streamed as ONE chained
        // feed. A single feed gives the SNI pass distinct scan indices —
        // and therefore distinct source ports — so its connections never
        // collide with the per-source state the no-SNI pass left on the
        // (resident, stateful) endpoints.
        let scanner = QScanner::new(Self::vantage(), self.config.seed ^ 0x5ca7e);
        let stateful_start = Instant::now();
        let mut no_sni = FailureBreakdown::default();
        let mut sni = FailureBreakdown::default();
        let mut tp_imd = LogSketch::new();
        let sample: Vec<Ipv4Addr> = universe.stateful_sample(self.sample_one_in).collect();
        let target = |a: &Ipv4Addr, sni: Option<&str>| {
            QuicTarget::new(IpAddr::V4(*a), sni.map(str::to_string))
        };
        scanner.scan_stream(
            net,
            sample
                .iter()
                .map(|a| target(a, None))
                .chain(sample.iter().map(|a| target(a, Some(SCALE_SNI)))),
            self.workers,
            |_, r| {
                if r.sni.is_none() {
                    no_sni.tally(&r.outcome);
                } else {
                    sni.tally(&r.outcome);
                    if let Some(tp) = &r.transport_params {
                        tp_imd.absorb(tp.initial_max_data);
                    }
                }
            },
        );
        let stateful_ms = stateful_start.elapsed().as_millis() as u64;

        let stats = net.lazy_stats().unwrap_or_default();
        let sweep_secs = (universe_sweep_ms as f64 / 1000.0).max(1e-3);
        ScaleReport {
            tables: ScaleTables {
                endpoints: universe.endpoints(),
                responsive: acc.hits,
                probes: report.probes(),
                as_rank_cdf: acc.by_as.as_rank_cdf(),
                version_sets: acc
                    .by_version_set
                    .ranked()
                    .into_iter()
                    .map(|(k, n)| (*k, n))
                    .collect(),
                versions: version_rows(&acc.by_version),
                response_size_cdf: acc.response_bytes.cdf_points(),
                // Each sampled member is scanned once without SNI.
                sampled: no_sni.total() as u64,
                no_sni,
                sni,
                tp_initial_max_data_cdf: tp_imd.cdf_points(),
            },
            perf: ScalePerf {
                universe_sweep_ms,
                universe_endpoints_per_sec: (universe.endpoints() as f64 / sweep_secs) as u64,
                stateful_ms,
                campaign_peak_rss_mb: peak_rss_mb(),
                instantiated: stats.instantiated,
                evicted: stats.evicted,
                stateless: stats.stateless,
                peak_resident: stats.peak_resident,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use internet::lazy::ScaleBehavior;

    /// The deterministic tables are identical at 1, 4, and 8 workers, and
    /// the sweep accounts for every responsive member.
    #[test]
    fn scale_tables_are_worker_count_invariant() {
        let base = ScaleCampaign::test(0x51ab, 3_000, 1).run();
        let u = LazyUniverse::new(ScaleConfig::test(0x51ab, 3_000));
        let responsive = (0..u.endpoints())
            .filter(|&i| u.persona(i).behavior != ScaleBehavior::Silent)
            .count() as u64;
        assert_eq!(base.tables.responsive, responsive);
        assert!(base.tables.sampled > 0);
        assert!(!base.tables.as_rank_cdf.is_empty());
        for workers in [4usize, 8] {
            let r = ScaleCampaign::test(0x51ab, 3_000, workers).run();
            assert_eq!(
                r.tables, base.tables,
                "tables diverged at {workers} workers"
            );
        }
    }

    /// A network with every responsive endpoint bound up front and one that
    /// binds lazily under the residency cap produce identical tables —
    /// when an endpoint comes to exist never changes results.
    #[test]
    fn materialized_network_matches_lazy_tables() {
        use simnet::LazyBinder;
        let campaign = ScaleCampaign::test(0x91ab, 2_000, 4);
        let lazy = campaign.run();
        let universe = LazyUniverse::new(campaign.config);
        let mut net = Network::new(campaign.config.seed);
        for addr in universe.targets() {
            let at = SocketAddr::new(IpAddr::V4(addr), 443);
            if let Some(svc) = universe.make_udp(at) {
                net.bind_udp(at, svc);
            }
        }
        let materialized = campaign.run_on(&universe, &net);
        assert_eq!(materialized.tables, lazy.tables);
        assert_eq!(
            materialized.perf.instantiated, 0,
            "nothing left to bind lazily"
        );
    }

    /// Ties on count rank by label: `draft-29` before `ietf-01`, although
    /// `V1` is the smaller `Version`.
    #[test]
    fn version_ties_rank_by_label() {
        let mut counts = CountMap::new();
        for v in [Version::V1, Version::DRAFT_29, Version::DRAFT_28] {
            counts.absorb(v);
        }
        for v in [Version::V1, Version::DRAFT_29] {
            counts.absorb(v);
        }
        let rows = version_rows(&counts);
        let labels: Vec<(&str, u64)> = rows.iter().map(|(l, n)| (l.as_str(), *n)).collect();
        assert_eq!(labels, [("draft-29", 2), ("ietf-01", 2), ("draft-28", 1)]);
    }

    /// The follow-up exercises the behaviour classes: SNI handshakes
    /// mostly succeed (version-mismatch and VN-only middleboxes aside),
    /// no-SNI handshakes surface the 0x128 rejections. Only the follow-up
    /// builds endpoints (17 here), so a cap of 8 makes it evict, and the
    /// tables are those of the test campaign's cap, under which nothing is
    /// evicted.
    #[test]
    fn stateful_follow_up_separates_behaviours() {
        let campaign = ScaleCampaign {
            resident_cap: 8,
            ..ScaleCampaign::test(0x7ab, 4_000, 4)
        };
        let r = campaign.run();
        let t = &r.tables;
        assert!(t.sni.success > 0, "no SNI successes: {:?}", t.sni);
        assert!(
            t.no_sni.crypto_0x128 > 0,
            "no 0x128 rejections: {:?}",
            t.no_sni
        );
        assert!(
            t.sni.version_mismatch > 0,
            "no version mismatches: {:?}",
            t.sni
        );
        assert!(
            t.sni.crypto_0x128 == 0,
            "SNI pass must not trip no-SNI rejection: {:?}",
            t.sni
        );
        assert!(!t.tp_initial_max_data_cdf.is_empty());
        // Residency stayed bounded by the cap (plus in-flight slack).
        assert!(
            r.perf.peak_resident <= 8 + 16,
            "peak resident {} broke the cap",
            r.perf.peak_resident
        );
        assert!(r.perf.evicted > 0, "cap never exercised");
        let roomy = ScaleCampaign::test(0x7ab, 4_000, 4).run();
        assert_eq!(roomy.perf.evicted, 0);
        assert_eq!(roomy.tables, r.tables);
    }
}
