//! The six workloads. Each is a closed loop at `workers` threads: a worker
//! takes its next target when the previous one completes; the simulated
//! Internet has no arrival schedule. A workload is built once from the seed
//! (set-up) and then run pass after pass; every pass reports what it did and
//! the digests of what it produced, so the harness can check it against the
//! recorded pass and the golden file.

use std::collections::HashSet;
use std::time::Instant;

use analysis::campaign::{Campaign, StatefulSnapshot, WeeklySnapshot};
use analysis::{figures, tables, ScaleCampaign};
use goscanner::{Goscanner, TlsScanResult, TlsTarget};
use internet::lazy::{LazyUniverse, ScaleBehavior};
use internet::universe::{HostBehavior, Universe, UniverseConfig};
use internet::FaultPlan;
use qscanner::{QScanner, QuicScanResult, QuicTarget};
use simnet::addr::Ipv6Addr;
use simnet::{IpAddr, Network};
use transfer::{MuxConfig, SchedKind};
use zmapq::modules::quic_vn::{QuicVnModule, VnResult};
use zmapq::{ScanReport, ZmapConfig, ZmapScanner};

use crate::digest::{fnv1a, of_debug};
use crate::fixtures::{campaign, sweep_source, vantage};
use crate::host::cpu_seconds;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 6] = [
    "campaign_paper",
    "sweep_sparse",
    "scale_lazy",
    "stateful_sni",
    "mux_manyconn",
    "mux_bulk_lossy",
];

/// Seed of a run that is compared with the golden file.
pub const DEFAULT_SEED: u64 = 0x9000;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub seed: u64,
    pub workers: usize,
    /// Reduced sizes, for the smoke test.
    pub quick: bool,
}

/// What one pass did.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Wall time of the workload's calls, digesting excluded.
    pub wall_s: f64,
    /// User plus system CPU over the same interval.
    pub cpu_s: f64,
    /// Useful output in the workload's unit.
    pub ops: f64,
    /// Operations whose own result was checked in this pass (hosts expected
    /// to answer, connections expected to complete).
    pub attempted: u64,
    /// Of those, how many differed from the expectation.
    pub failed: u64,
    /// Digest of each output, compared across passes and with the golden file.
    pub digests: Vec<(&'static str, u64)>,
    /// Per-target outcome labels, compared one by one with the recorded pass.
    pub labels: Vec<String>,
}

/// Runs `f` and returns its result, wall seconds and CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = cpu_seconds();
    let wall = Instant::now();
    let out = f();
    (out, wall.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// Addresses in exactly one of `expected` and `found`.
fn set_difference(expected: &HashSet<IpAddr>, found: impl Iterator<Item = IpAddr>) -> u64 {
    let found: HashSet<IpAddr> = found.collect();
    expected.symmetric_difference(&found).count() as u64
}

/// What the universe says a sweep must find. `SilentQuic` hosts are not
/// bound on UDP and `AltOnly` hosts never answer a forced-VN probe.
pub struct ExpectedHosts {
    pub vn_v4: HashSet<IpAddr>,
    pub vn_v6: HashSet<IpAddr>,
    pub tcp_v4: HashSet<IpAddr>,
}

impl ExpectedHosts {
    pub fn of(universe: &Universe) -> Self {
        let answers_vn =
            |b: HostBehavior| !matches!(b, HostBehavior::SilentQuic | HostBehavior::AltOnly);
        let mut e = ExpectedHosts {
            vn_v4: HashSet::new(),
            vn_v6: HashSet::new(),
            tcp_v4: HashSet::new(),
        };
        for h in &universe.hosts {
            if let Some(a) = h.v4 {
                if answers_vn(h.behavior) {
                    e.vn_v4.insert(IpAddr::V4(a));
                }
                if h.tcp {
                    e.tcp_v4.insert(IpAddr::V4(a));
                }
            }
            if let (Some(a), true) = (h.v6, answers_vn(h.behavior)) {
                e.vn_v6.insert(IpAddr::V6(a));
            }
        }
        e
    }

    pub fn total(&self) -> u64 {
        (self.vn_v4.len() + self.vn_v6.len() + self.tcp_v4.len()) as u64
    }

    /// Hosts missed plus hosts found that should not exist.
    pub fn wrong(&self, v4: &[VnResult], v6: &[VnResult], tcp: &[IpAddr]) -> u64 {
        set_difference(&self.vn_v4, v4.iter().map(|h| h.addr.ip))
            + set_difference(&self.vn_v6, v6.iter().map(|h| h.addr.ip))
            + set_difference(&self.tcp_v4, tcp.iter().copied())
    }
}

fn tls_label(r: &TlsScanResult) -> String {
    match &r.error {
        None => "ok".to_string(),
        Some(e) => format!("{e:?}"),
    }
}

/// Outcome label of every TLS result, then of every QUIC result.
fn outcome_labels<'a>(
    tls: impl Iterator<Item = &'a TlsScanResult>,
    quic: impl Iterator<Item = &'a QuicScanResult>,
) -> Vec<String> {
    tls.map(tls_label)
        .chain(quic.map(|r| r.outcome.label()))
        .collect()
}

/// Outcome label of every stateful target of a snapshot, in scan order: TLS
/// without and with SNI, then QUIC without and with SNI.
fn snapshot_labels(snap: &StatefulSnapshot) -> Vec<String> {
    outcome_labels(
        snap.tcp_no_sni.iter().chain(&snap.tcp_sni),
        snap.quic_no_sni
            .iter()
            .chain(snap.quic_sni.iter().map(|(_, r)| r)),
    )
}

/// Sorted `label count` pairs: the outcome histogram as a digestable value.
fn histogram(labels: &[String]) -> Vec<(&str, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for l in labels {
        *counts.entry(l.as_str()).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// The sweep scanner every campaign configures: virtual pacing, never waited.
pub fn zmap_scanner(workers: usize) -> ZmapScanner {
    let mut cfg = ZmapConfig::new(sweep_source());
    cfg.rate_pps = 10_000_000;
    cfg.workers = workers;
    ZmapScanner::new(cfg)
}

/// The week-18 universe at `size_factor`.
pub fn universe_week18(seed: u64, size_factor: f64) -> Universe {
    Universe::generate(UniverseConfig {
        seed,
        week: 18,
        size_factor,
    })
}

/// Runs `f(i)` for every `i < n` on `workers` harness threads, each owning
/// one contiguous chunk (the split `Campaign` uses for its TLS scans), and
/// returns the results in index order.
pub fn par_map<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || n < 64 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (w, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(w * chunk + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

// ---------------------------------------------------------------------------
// 1. campaign_paper
// ---------------------------------------------------------------------------

/// The paper's product: the week-18 stateful campaign, one weekly stateless
/// campaign, and every table and figure computed from them.
pub struct CampaignPaper {
    pub campaign: Campaign,
}

/// Everything a campaign pass computes.
pub struct CampaignOutput {
    pub snap: StatefulSnapshot,
    pub weekly: [WeeklySnapshot; 1],
    pub digests: Vec<(&'static str, u64)>,
}

/// Computes every table of the paper and digests each.
///
/// `table6`, `fig5` and `fig7` rank their rows by a count and leave rows
/// with equal counts in `HashMap` order, which differs from process to
/// process. Their rows are put in a total order before digesting (and
/// `table6` is taken whole, since a tie at the cut would pick different
/// rows), so the digest says whether the rows are the same.
pub fn table_digests(snap: &StatefulSnapshot) -> Vec<(&'static str, u64)> {
    let mut table6 = tables::table6(snap, usize::MAX);
    table6.sort_by(|a, b| (b.ases, b.targets, &a.server).cmp(&(a.ases, a.targets, &b.server)));
    vec![
        ("table1", of_debug(&tables::table1(snap))),
        ("table2", of_debug(&tables::table2(snap, 5))),
        ("table3", of_debug(&tables::table3(snap))),
        ("table4", of_debug(&tables::table4(snap))),
        ("table5", of_debug(&tables::table5(snap))),
        ("table6", of_debug(&table6)),
        ("table7", of_debug(&tables::table7(snap))),
    ]
}

/// Computes every figure of the paper and digests each; see
/// [`table_digests`] for the two whose ties are ordered here.
pub fn figure_digests(
    snap: &StatefulSnapshot,
    weekly: &[WeeklySnapshot],
) -> Vec<(&'static str, u64)> {
    let mut fig5 = figures::fig5(weekly);
    fig5.sort_by(|a, b| (a.week, b.count, &a.set).cmp(&(b.week, a.count, &b.set)));
    let mut fig7 = figures::fig7(weekly);
    fig7.sort_by(|a, b| (a.week, b.pairs, &a.set).cmp(&(b.week, a.pairs, &b.set)));
    vec![
        ("fig3", of_debug(&figures::fig3(weekly))),
        ("fig4", of_debug(&figures::fig4(snap))),
        ("fig5", of_debug(&fig5)),
        ("fig6", of_debug(&figures::fig6(weekly))),
        ("fig7", of_debug(&fig7)),
        ("fig8", of_debug(&figures::fig8(snap))),
        ("fig9", of_debug(&figures::fig9(snap))),
    ]
}

impl CampaignPaper {
    fn build(spec: Spec) -> Self {
        let factor = if spec.quick { 0.005 } else { 0.02 };
        CampaignPaper {
            campaign: campaign(factor, spec.seed, spec.workers),
        }
    }

    /// The timed part of a pass. The tables and figures are small, so their
    /// `{:?}` digests are taken where they are computed.
    pub fn run(&self) -> CampaignOutput {
        let snap = self.campaign.run_stateful();
        let weekly = [self.campaign.run_weekly(18)];
        let mut digests = table_digests(&snap);
        digests.extend(figure_digests(&snap, &weekly));
        CampaignOutput {
            snap,
            weekly,
            digests,
        }
    }

    /// Checks a pass's outputs against the universe it scanned.
    pub fn check(out: CampaignOutput, wall_s: f64, cpu_s: f64) -> PassOutput {
        let CampaignOutput {
            snap,
            weekly,
            mut digests,
        } = out;
        let expected = ExpectedHosts::of(&snap.universe);
        let labels = snapshot_labels(&snap);
        digests.push(("weekly_fingerprint", weekly[0].fingerprint()));
        digests.push(("zmap_v4", of_debug(&snap.zmap_v4)));
        digests.push(("zmap_v6", of_debug(&snap.zmap_v6)));
        digests.push(("tcp_open_v4", of_debug(&snap.tcp_open_v4)));
        digests.push(("outcomes", of_debug(&histogram(&labels))));
        PassOutput {
            wall_s,
            cpu_s,
            ops: labels.len() as f64,
            attempted: expected.total(),
            failed: expected.wrong(&snap.zmap_v4, &snap.zmap_v6, &snap.tcp_open_v4),
            digests,
            labels,
        }
    }

    fn pass(&self) -> PassOutput {
        let (out, wall_s, cpu_s) = timed(|| self.run());
        Self::check(out, wall_s, cpu_s)
    }
}

// ---------------------------------------------------------------------------
// 2. sweep_sparse
// ---------------------------------------------------------------------------

/// The three stateless sweeps over the materialized factor-0.02 network: a
/// few hundred responsive hosts in a 4.19 M-address span.
pub struct SweepSparse {
    pub universe: Universe,
    pub net: Network,
    pub scanner: ZmapScanner,
    pub module: QuicVnModule,
    pub hitlist: Vec<Ipv6Addr>,
    pub expected: ExpectedHosts,
}

/// Hits and per-shard reports of the three sweeps.
pub struct SweepOutput {
    pub v4: (Vec<VnResult>, ScanReport),
    pub tcp: (Vec<IpAddr>, ScanReport),
    pub v6: (Vec<VnResult>, ScanReport),
}

impl SweepOutput {
    pub fn probes(&self) -> u64 {
        self.v4.1.probes() + self.tcp.1.probes() + self.v6.1.probes()
    }
}

impl SweepSparse {
    fn build(spec: Spec) -> Self {
        // The span is the universe's /10 whatever the factor; the factor
        // only sets how many hosts hide in it.
        let universe = universe_week18(spec.seed, 0.02);
        let net = universe.build_network_with_faults(&FaultPlan::none());
        SweepSparse {
            hitlist: universe.v6_hitlist(),
            expected: ExpectedHosts::of(&universe),
            net,
            scanner: zmap_scanner(spec.workers),
            module: QuicVnModule::new(spec.seed),
            universe,
        }
    }

    pub fn run(&self) -> SweepOutput {
        let prefixes = self.universe.scan_prefixes();
        SweepOutput {
            v4: self
                .scanner
                .scan_v4_with_report(&self.net, &prefixes, &self.module),
            tcp: self.scanner.scan_tcp_syn_with_report(&self.net, &prefixes),
            v6: self
                .scanner
                .scan_v6_with_report(&self.net, &self.hitlist, &self.module),
        }
    }

    fn pass(&self) -> PassOutput {
        let (out, wall_s, cpu_s) = timed(|| self.run());
        PassOutput {
            wall_s,
            cpu_s,
            ops: out.probes() as f64,
            attempted: self.expected.total(),
            failed: self.expected.wrong(&out.v4.0, &out.v6.0, &out.tcp.0),
            digests: vec![
                ("zmap_v4", of_debug(&out.v4.0)),
                ("tcp_open_v4", of_debug(&out.tcp.0)),
                ("zmap_v6", of_debug(&out.v6.0)),
            ],
            labels: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// 3. scale_lazy
// ---------------------------------------------------------------------------

/// The million-endpoint lazy universe: bind on first contact, evict under a
/// residency cap, analyse through streaming accumulators.
pub struct ScaleLazy {
    pub campaign: ScaleCampaign,
    /// Members the persona function says answer a forced-VN probe.
    pub responsive: u64,
}

impl ScaleLazy {
    fn build(spec: Spec) -> Self {
        let mut campaign = ScaleCampaign::million(spec.seed, spec.workers);
        if spec.quick {
            campaign.config.endpoints = 100_000;
        }
        let universe = LazyUniverse::new(campaign.config);
        let responsive = (0..universe.endpoints())
            .filter(|&i| universe.persona(i).behavior != ScaleBehavior::Silent)
            .count() as u64;
        ScaleLazy {
            campaign,
            responsive,
        }
    }

    fn pass(&self) -> PassOutput {
        let (report, wall_s, cpu_s) = timed(|| self.campaign.run());
        let t = &report.tables;
        PassOutput {
            wall_s,
            cpu_s,
            ops: t.endpoints as f64,
            attempted: self.responsive,
            failed: self.responsive.abs_diff(t.responsive),
            digests: vec![("scale_tables", of_debug(t))],
            labels: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// 4. stateful_sni
// ---------------------------------------------------------------------------

/// The four target lists a campaign snapshot scanned, with the outcome it
/// recorded for each target. Taking them from the snapshot means no join
/// logic is repeated here.
pub struct StatefulTargets {
    pub tls_no_sni: Vec<TlsTarget>,
    pub tls_sni: Vec<TlsTarget>,
    pub quic_no_sni: Vec<QuicTarget>,
    pub quic_sni: Vec<QuicTarget>,
    /// Outcome labels the snapshot recorded, in scan order.
    pub recorded: Vec<String>,
}

impl StatefulTargets {
    pub fn of(snap: &StatefulSnapshot) -> Self {
        let tls = |rs: &[TlsScanResult]| rs.iter().map(|r| r.target.clone()).collect();
        let quic = |r: &QuicScanResult| QuicTarget::new(r.addr, r.sni.clone());
        StatefulTargets {
            tls_no_sni: tls(&snap.tcp_no_sni),
            tls_sni: tls(&snap.tcp_sni),
            quic_no_sni: snap.quic_no_sni.iter().map(quic).collect(),
            quic_sni: snap.quic_sni.iter().map(|(_, r)| quic(r)).collect(),
            recorded: snapshot_labels(snap),
        }
    }
}

/// Handshakes only: the stateful targets of a campaign snapshot, scanned
/// again on a fresh network, with no sweep and no join.
pub struct StatefulSni {
    pub universe: Universe,
    pub seed: u64,
    pub workers: usize,
    pub targets: StatefulTargets,
}

/// Results of the four stateful scans, in campaign order.
pub struct StatefulOutput {
    pub tls_no_sni: Vec<TlsScanResult>,
    pub tls_sni: Vec<TlsScanResult>,
    pub quic_no_sni: Vec<QuicScanResult>,
    pub quic_sni: Vec<QuicScanResult>,
}

impl StatefulOutput {
    pub fn labels(&self) -> Vec<String> {
        outcome_labels(
            self.tls_no_sni.iter().chain(&self.tls_sni),
            self.quic_no_sni.iter().chain(&self.quic_sni),
        )
    }
}

/// The TLS-over-TCP scanner as `Campaign::run_stateful` seeds it.
pub fn campaign_goscanner(seed: u64) -> Goscanner {
    Goscanner::new(vantage(), seed ^ 0x7c9)
}

/// The QUIC scanner as `Campaign::run_stateful` seeds it.
pub fn campaign_qscanner(seed: u64) -> QScanner {
    QScanner::new(vantage(), seed ^ 0x9c5)
}

impl StatefulSni {
    fn build(spec: Spec) -> Self {
        let factor = if spec.quick { 0.005 } else { 0.01 };
        let snap = campaign(factor, spec.seed, spec.workers).run_stateful();
        StatefulSni {
            seed: spec.seed,
            workers: spec.workers,
            targets: StatefulTargets::of(&snap),
            universe: snap.universe,
        }
    }

    /// Server endpoints keep per-flow state, so every pass scans a network
    /// nobody has talked to yet.
    pub fn fresh_network(&self) -> Network {
        self.universe.build_network_with_faults(&FaultPlan::none())
    }

    pub fn run(&self) -> StatefulOutput {
        let net = self.fresh_network();
        let goscan = campaign_goscanner(self.seed);
        let qscan = campaign_qscanner(self.seed);
        let tls = |targets: &[TlsTarget]| {
            par_map(self.workers, targets.len(), |i| {
                goscan.scan_target(&net, &targets[i], i as u64)
            })
        };
        StatefulOutput {
            tls_no_sni: tls(&self.targets.tls_no_sni),
            tls_sni: tls(&self.targets.tls_sni),
            quic_no_sni: qscan.scan_many(&net, &self.targets.quic_no_sni, self.workers),
            quic_sni: qscan.scan_many(&net, &self.targets.quic_sni, self.workers),
        }
    }

    fn pass(&self) -> PassOutput {
        let (out, wall_s, cpu_s) = timed(|| self.run());
        let labels = out.labels();
        let recorded = &self.targets.recorded;
        let differing = labels.iter().zip(recorded).filter(|(a, b)| a != b).count()
            + labels.len().abs_diff(recorded.len());
        PassOutput {
            wall_s,
            cpu_s,
            ops: labels.len() as f64,
            attempted: recorded.len() as u64,
            failed: differing as u64,
            digests: vec![("outcomes", of_debug(&histogram(&labels)))],
            labels,
        }
    }
}

// ---------------------------------------------------------------------------
// 5 and 6. mux_manyconn, mux_bulk_lossy
// ---------------------------------------------------------------------------

/// One `transfer::mux::run` configuration.
pub struct Mux {
    pub cfg: MuxConfig,
    /// Report body megabytes instead of connections as the useful output.
    pub bytes_are_output: bool,
}

impl Mux {
    /// Many short connections: set-up, admission and eviction dominate.
    fn manyconn(spec: Spec) -> Self {
        let cfg = MuxConfig {
            conns: if spec.quick { 400 } else { 8_000 },
            streams_per_conn: 4,
            bytes_per_stream: 512,
            hosts: 8,
            active_per_worker: 64,
            loss_permille: 0,
            scheduler: SchedKind::RoundRobin,
            batched: true,
            ..MuxConfig::c10k(spec.seed, spec.workers)
        };
        Mux {
            cfg,
            bytes_are_output: false,
        }
    }

    /// Few long flows under 2 % loss: AEAD and loss recovery dominate.
    fn bulk_lossy(spec: Spec) -> Self {
        let conns = if spec.quick { 4 } else { 24 };
        let cfg = MuxConfig {
            conns,
            bytes_per_stream: if spec.quick { 100_000 } else { 1_000_000 },
            loss_permille: 20,
            // Workers admit from a shared cursor until their window is full.
            // A window wider than the flow count lets whichever worker starts
            // first take a random share, and with flows this long the wall
            // time follows the split; an even share per worker fixes it.
            active_per_worker: conns.div_ceil(spec.workers),
            ..Self::manyconn(spec).cfg
        };
        Mux {
            cfg,
            bytes_are_output: true,
        }
    }

    fn pass(&self) -> PassOutput {
        let (report, wall_s, cpu_s) = timed(|| transfer::mux::run(&self.cfg));
        PassOutput {
            wall_s,
            cpu_s,
            ops: if self.bytes_are_output {
                report.bytes_served as f64 / 1e6
            } else {
                report.ok as f64
            },
            attempted: report.conns as u64,
            failed: (report.conns - report.ok) as u64,
            digests: vec![("mux_tables", fnv1a(report.tables().as_bytes()))],
            labels: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// A built workload, ready to run passes.
pub enum Workload {
    CampaignPaper(CampaignPaper),
    SweepSparse(Box<SweepSparse>),
    ScaleLazy(ScaleLazy),
    StatefulSni(Box<StatefulSni>),
    Mux(Mux),
}

impl Workload {
    /// Builds the inputs of workload `name` from the seed: the set-up step.
    pub fn build(name: &str, spec: Spec) -> Option<Workload> {
        Some(match name {
            "campaign_paper" => Workload::CampaignPaper(CampaignPaper::build(spec)),
            "sweep_sparse" => Workload::SweepSparse(Box::new(SweepSparse::build(spec))),
            "scale_lazy" => Workload::ScaleLazy(ScaleLazy::build(spec)),
            "stateful_sni" => Workload::StatefulSni(Box::new(StatefulSni::build(spec))),
            "mux_manyconn" => Workload::Mux(Mux::manyconn(spec)),
            "mux_bulk_lossy" => Workload::Mux(Mux::bulk_lossy(spec)),
            _ => return None,
        })
    }

    /// One pass: the workload's calls, timed, then its outputs checked.
    pub fn pass(&self) -> PassOutput {
        match self {
            Workload::CampaignPaper(w) => w.pass(),
            Workload::SweepSparse(w) => w.pass(),
            Workload::ScaleLazy(w) => w.pass(),
            Workload::StatefulSni(w) => w.pass(),
            Workload::Mux(w) => w.pass(),
        }
    }
}

/// What `ops_per_s` counts on workload `name`.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "campaign_paper" | "stateful_sni" => "targets",
        "sweep_sparse" => "probes",
        "scale_lazy" => "endpoints",
        "mux_manyconn" => "conns",
        "mux_bulk_lossy" => "MB",
        _ => "ops",
    }
}
