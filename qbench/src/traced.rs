//! The traced run of each workload. End-to-end numbers are measured with
//! tracing off; here the same work is replayed with a span around each
//! public call it makes into a layer, and the counts those layers report are
//! collected at the same boundaries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dns::massdns::BulkResolver;
use dns::resolver::Resolver;
use goscanner::{Goscanner, TlsTarget};
use internet::lazy::LazyUniverse;
use internet::universe::{InputList, Universe};
use internet::FaultPlan;
use qscanner::{QuicTarget, ScanOutcome};
use simnet::{IpAddr, LockCounters, Network};
use telemetry::{Event, EventSink, Telemetry};
use zmapq::modules::quic_vn::{QuicVnModule, VnResult};
use zmapq::{ScanReport, SweepAccumulator};

use crate::fixtures::vantage;
use crate::layers::LayerValues;
use crate::span::Tracer;
use crate::stats::{median, percentile, supported_tail};
use crate::workloads::{
    campaign_goscanner, campaign_qscanner, figure_digests, par_map, table_digests, universe_week18,
    zmap_scanner, CampaignOutput, CampaignPaper, Mux, ScaleLazy, StatefulSni, StatefulTargets,
    SweepSparse,
};

/// One row of the campaign's time-attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub name: String,
    pub self_ms: f64,
}

/// Per-target loops time at most this many targets, evenly strided over the
/// list: enough for a p99 with twenty samples beyond it.
const PER_TARGET_SAMPLE: usize = 2_000;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Largest over mean; 1.0 is a perfectly even split.
fn imbalance(parts: impl Iterator<Item = f64>) -> f64 {
    let parts: Vec<f64> = parts.collect();
    let mean = parts.iter().sum::<f64>() / parts.len().max(1) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    parts.iter().copied().fold(0.0, f64::max) / mean
}

/// Sums what the sweeps' own reports count: probes, hits, shard skew and
/// the simnet lock traffic the shards saw.
fn sweep_counts(values: &mut LayerValues, reports: &[&ScanReport]) {
    let probes: u64 = reports.iter().map(|r| r.probes()).sum();
    let hits: u64 = reports.iter().map(|r| r.hits()).sum();
    let mut locks = LockCounters::default();
    for r in reports {
        locks.merge(&r.lock_counters());
    }
    values.set("zmapq.probes", probes as f64);
    values.set("zmapq.hits", hits as f64);
    values.set("zmapq.hit_ratio", hits as f64 / probes.max(1) as f64);
    // The widest sweep says most about how evenly the index space splits.
    if let Some(widest) = reports.iter().max_by_key(|r| r.probes()) {
        values.set(
            "zmapq.shard_wall_imbalance",
            imbalance(widest.shards.iter().map(|s| s.wall_us as f64)),
        );
    }
    values.set("simnet.lock_acquired", locks.acquired as f64);
    values.set("simnet.lock_contended", locks.contended as f64);
    values.set("simnet.cross_shard", locks.cross_shard as f64);
}

/// Datagrams and bytes the networks' own counters saw leave the scanners.
fn net_counts(values: &mut LayerValues, nets: &[&Network]) {
    let (mut datagrams, mut bytes) = (0u64, 0u64);
    for net in nets {
        let (sent, bytes_sent, ..) = net.stats.snapshot();
        datagrams += sent;
        bytes += bytes_sent;
    }
    values.set("simnet.datagrams_sent", datagrams as f64);
    values.set("simnet.bytes_sent", bytes as f64);
}

fn stride(n: usize) -> usize {
    n.div_ceil(PER_TARGET_SAMPLE).max(1)
}

/// Sets `<prefix>_p50_us` and `<prefix>_p99_us` from per-target spans. When
/// the sample cannot support a 99th percentile (fewer than ten samples
/// beyond it) the highest percentile it does support is reported instead
/// and returned, so the caller can say so.
fn target_percentiles(values: &mut LayerValues, prefix: &str, samples_us: &[f64]) -> f64 {
    let tail = supported_tail(samples_us.len()).unwrap_or(50.0).min(99.0);
    values.set(&format!("{prefix}_p50_us"), median(samples_us));
    values.set(&format!("{prefix}_p99_us"), percentile(samples_us, tail));
    tail
}

/// The tail percentiles the per-target loops could support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tails {
    pub goscanner: f64,
    pub qscanner: f64,
}

/// Single-threaded unit cost of one stateful target: `scan_target` and
/// `scan_one` over a strided sample of the lists, on a network nobody has
/// talked to yet, one span per target.
fn per_target(
    universe: &Universe,
    seed: u64,
    targets: &StatefulTargets,
    tracer: &mut Tracer,
    values: &mut LayerValues,
) -> Tails {
    let root = tracer.open("per_target", None);
    let net = universe.build_network_with_faults(&FaultPlan::none());
    let origin = tracer.origin();
    let now = || origin.elapsed().as_nanos() as u64;

    let goscan = campaign_goscanner(seed);
    let tls: Vec<(usize, &TlsTarget)> = targets
        .tls_no_sni
        .iter()
        .enumerate()
        .chain(targets.tls_sni.iter().enumerate())
        .collect();
    for (i, t) in tls.iter().step_by(stride(tls.len())) {
        let start = now();
        std::hint::black_box(goscan.scan_target(&net, t, *i as u64));
        tracer.record("goscanner.scan_target", Some(root), start, now());
    }
    let qscan = campaign_qscanner(seed);
    let quic: Vec<(usize, &QuicTarget)> = targets
        .quic_no_sni
        .iter()
        .enumerate()
        .chain(targets.quic_sni.iter().enumerate())
        .collect();
    for (i, t) in quic.iter().step_by(stride(quic.len())) {
        let start = now();
        std::hint::black_box(qscan.scan_one(&net, t, *i as u64));
        tracer.record("qscanner.scan_one", Some(root), start, now());
    }
    tracer.close(root);
    Tails {
        goscanner: target_percentiles(
            values,
            "goscanner.target",
            &tracer.durations_us("goscanner.scan_target"),
        ),
        qscanner: target_percentiles(
            values,
            "qscanner.target",
            &tracer.durations_us("qscanner.scan_one"),
        ),
    }
}

/// The four stateful scans of a campaign, each under its own span, at the
/// campaign's worker count. Sets the goscanner and qscanner stage metrics.
fn stateful_stages(
    net: &Network,
    seed: u64,
    workers: usize,
    targets: &StatefulTargets,
    parent: u32,
    tracer: &mut Tracer,
    values: &mut LayerValues,
) {
    let goscan = campaign_goscanner(seed);
    let tls = |list: &[TlsTarget]| {
        par_map(workers, list.len(), |i| {
            goscan.scan_target(net, &list[i], i as u64)
        })
    };
    let tls_no_sni = tracer.time("goscanner.tls_no_sni", Some(parent), || {
        tls(&targets.tls_no_sni)
    });
    let tls_sni = tracer.time("goscanner.tls_sni", Some(parent), || tls(&targets.tls_sni));
    let qscan = campaign_qscanner(seed);
    let (quic_no_sni, counts_a) = tracer.time("qscanner.quic_no_sni", Some(parent), || {
        qscan.scan_many_stats(net, &targets.quic_no_sni, workers)
    });
    let (quic_sni, counts_b) = tracer.time("qscanner.quic_sni", Some(parent), || {
        qscan.scan_many_stats(net, &targets.quic_sni, workers)
    });

    let tls_n = tls_no_sni.len() + tls_sni.len();
    let tls_ok = tls_no_sni
        .iter()
        .chain(&tls_sni)
        .filter(|r| r.handshake_ok())
        .count();
    values.set("goscanner.targets", tls_n as f64);
    values.set("goscanner.ok_ratio", tls_ok as f64 / tls_n.max(1) as f64);
    let quic_n = quic_no_sni.len() + quic_sni.len();
    let quic_ok = quic_no_sni
        .iter()
        .chain(&quic_sni)
        .filter(|r| r.outcome == ScanOutcome::Success)
        .count();
    values.set("qscanner.targets", quic_n as f64);
    values.set(
        "qscanner.success_ratio",
        quic_ok as f64 / quic_n.max(1) as f64,
    );
    // The longer list says most about how evenly the work-stealing spreads.
    let counts = if counts_b.iter().sum::<usize>() >= counts_a.iter().sum() {
        counts_b
    } else {
        counts_a
    };
    values.set(
        "qscanner.worker_imbalance",
        imbalance(counts.iter().map(|&c| c as f64)),
    );
}

/// Sums the durations of every span whose name starts with `prefix`.
fn span_total_ms(tracer: &Tracer, prefix: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| ms(s.end_ns.saturating_sub(s.start_ns)))
        .sum()
}

fn stage_totals(values: &mut LayerValues, tracer: &Tracer) {
    values.set(
        "goscanner.stage_ms",
        span_total_ms(tracer, "goscanner.tls_"),
    );
    values.set("qscanner.stage_ms", span_total_ms(tracer, "qscanner.quic_"));
}

/// Every DNS resolution `run_stateful` and `run_weekly` make: each known
/// domain once for the joins, then each input list for the statistics.
fn resolve_everything(universe: &Universe) {
    let bulk = BulkResolver::new(Resolver::new(Arc::new(universe.zone())));
    for d in &universe.domains {
        std::hint::black_box(bulk.resolve_domain(&d.name));
    }
    for list in InputList::all() {
        for name in universe.input_list_iter(list) {
            std::hint::black_box(bulk.resolve_domain(&name));
        }
    }
}

/// The weekly Alt-Svc collection's targets: every resolved address once,
/// with the first domain that resolves to it, in address order.
fn alt_svc_targets(out: &CampaignOutput) -> Vec<TlsTarget> {
    let mut first: BTreeMap<IpAddr, &str> = BTreeMap::new();
    for r in &out.snap.resolutions {
        let addrs =
            r.v4.iter()
                .map(|a| IpAddr::V4(*a))
                .chain(r.v6.iter().map(|a| IpAddr::V6(*a)));
        for addr in addrs {
            first.entry(addr).or_insert(&r.name);
        }
    }
    first
        .into_iter()
        .map(|(addr, name)| TlsTarget {
            addr,
            domain: Some(name.to_string()),
        })
        .collect()
}

/// Staged replay of one campaign pass: a span around each public call
/// `run_stateful()` and `run_weekly(18)` make, at the same worker count,
/// with target lists taken from `out` (an untraced pass's snapshot) so the
/// joins are not repeated. Returns the time-attribution table; its rows and
/// the unattributed row sum to `untraced_wall_s`.
pub fn campaign(
    w: &CampaignPaper,
    out: &CampaignOutput,
    untraced_wall_s: f64,
    tracer: &mut Tracer,
    values: &mut LayerValues,
) -> (Vec<Stage>, Tails) {
    let c = &w.campaign;
    let (seed, workers) = (c.seed, c.workers);
    let no_faults = FaultPlan::none();
    let scanner = zmap_scanner(workers);
    let module = QuicVnModule::new(seed);
    let targets = StatefulTargets::of(&out.snap);
    let replay_start = Instant::now();
    let root = tracer.open("campaign_paper.replay", None);

    let stateful = tracer.open("run_stateful", Some(root));
    let universe = tracer.time("internet.universe_generate", Some(stateful), || {
        universe_week18(seed, c.size_factor)
    });
    let net = tracer.time("internet.build_network", Some(stateful), || {
        universe.build_network_with_faults(&no_faults)
    });
    let prefixes = universe.scan_prefixes();
    let hitlist = universe.v6_hitlist();
    let (_, r_v4) = tracer.time("zmapq.scan_v4", Some(stateful), || {
        scanner.scan_v4_with_report(&net, &prefixes, &module)
    });
    let (_, r_v6) = tracer.time("zmapq.scan_v6", Some(stateful), || {
        scanner.scan_v6_with_report(&net, &hitlist, &module)
    });
    let (_, r_syn) = tracer.time("zmapq.scan_tcp_syn", Some(stateful), || {
        scanner.scan_tcp_syn_with_report(&net, &prefixes)
    });
    let unpadded = QuicVnModule::unpadded(seed);
    let (_, r_unpadded) = tracer.time("zmapq.scan_v4_unpadded", Some(stateful), || {
        scanner.scan_v4_with_report(&net, &prefixes, &unpadded)
    });
    tracer.time("dns.resolve", Some(stateful), || {
        resolve_everything(&universe)
    });
    stateful_stages(&net, seed, workers, &targets, stateful, tracer, values);
    tracer.close(stateful);

    let weekly = tracer.open("run_weekly", Some(root));
    let universe_w = tracer.time("internet.universe_generate", Some(weekly), || {
        universe_week18(seed, c.size_factor)
    });
    let net_w = tracer.time("internet.build_network", Some(weekly), || {
        universe_w.build_network_with_faults(&no_faults)
    });
    tracer.time("zmapq.scan_v4", Some(weekly), || {
        scanner.scan_v4_with_report(&net_w, &prefixes, &module)
    });
    tracer.time("zmapq.scan_v6", Some(weekly), || {
        scanner.scan_v6_with_report(&net_w, &hitlist, &module)
    });
    tracer.time("dns.resolve", Some(weekly), || {
        resolve_everything(&universe_w)
    });
    let alt_targets = alt_svc_targets(out);
    let goscan = Goscanner::new(vantage(), seed ^ 18);
    tracer.time("goscanner.tls_alt_svc", Some(weekly), || {
        par_map(workers, alt_targets.len(), |i| {
            goscan.scan_target(&net_w, &alt_targets[i], i as u64)
        })
    });
    tracer.close(weekly);

    tracer.time("analysis.tables", Some(root), || table_digests(&out.snap));
    tracer.time("analysis.figures", Some(root), || {
        figure_digests(&out.snap, &out.weekly)
    });
    tracer.close(root);
    let replay_wall_s = replay_start.elapsed().as_secs_f64();

    sweep_counts(values, &[&r_v4, &r_v6, &r_syn, &r_unpadded]);
    net_counts(values, &[&net, &net_w]);
    stage_totals(values, tracer);
    values.set("zmapq.sweep_v4_ms", ms(r_v4.wall_us * 1_000));
    values.set("zmapq.sweep_syn_ms", ms(r_syn.wall_us * 1_000));
    values.set("dns.stage_ms", span_total_ms(tracer, "dns.resolve"));
    values.set(
        "analysis.tables_ms",
        span_total_ms(tracer, "analysis.tables"),
    );
    values.set(
        "analysis.figures_ms",
        span_total_ms(tracer, "analysis.figures"),
    );

    // Stage rows: self time of every leaf span of the replay, summed by name.
    let containers = [root, stateful, weekly];
    let mut rows: Vec<Stage> = Vec::new();
    for s in tracer.spans() {
        let in_replay = s.parent.is_some_and(|p| containers.contains(&p));
        if !in_replay || containers.contains(&s.id) {
            continue;
        }
        let self_ms = ms(tracer.self_ns(s.id));
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(row) => row.self_ms += self_ms,
            None => rows.push(Stage {
                name: s.name.clone(),
                self_ms,
            }),
        }
    }
    let attributed_ms: f64 = rows.iter().map(|r| r.self_ms).sum();
    let untraced_ms = untraced_wall_s * 1e3;
    rows.push(Stage {
        name: "unattributed".to_string(),
        self_ms: untraced_ms - attributed_ms,
    });
    values.set(
        "bench.campaign_unattributed_share",
        1.0 - attributed_ms / untraced_ms,
    );
    values.set(
        "bench.trace_overhead_share",
        replay_wall_s / untraced_wall_s - 1.0,
    );

    let tails = per_target(&out.snap.universe, seed, &targets, tracer, values);
    (rows, tails)
}

/// The three sweeps once more, for their per-shard reports.
pub fn sweep(w: &SweepSparse, tracer: &mut Tracer, values: &mut LayerValues) {
    let root = tracer.open("sweep_sparse.replay", None);
    // The network's counters run from its construction: read them around
    // this pass only.
    let (sent_before, bytes_before, ..) = w.net.stats.snapshot();
    let out = tracer.time("zmapq.sweeps", Some(root), || w.run());
    tracer.close(root);
    let (sent, bytes, ..) = w.net.stats.snapshot();
    sweep_counts(values, &[&out.v4.1, &out.tcp.1, &out.v6.1]);
    values.set("simnet.datagrams_sent", (sent - sent_before) as f64);
    values.set("simnet.bytes_sent", (bytes - bytes_before) as f64);
    values.set("zmapq.sweep_v4_ms", ms(out.v4.1.wall_us * 1_000));
    values.set("zmapq.sweep_syn_ms", ms(out.tcp.1.wall_us * 1_000));
}

/// Counts hits and keeps nothing, as the scale campaign's accumulator does.
struct CountHits(u64);

impl SweepAccumulator for CountHits {
    type Item = VnResult;

    fn absorb(&mut self, _: VnResult) {
        self.0 += 1;
    }

    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// One scale campaign for its own phase timings and residency counts, then
/// its sweep phase once more through the public calls, for the per-shard
/// report and the network's counters.
pub fn scale(w: &ScaleLazy, tracer: &mut Tracer, values: &mut LayerValues) {
    let root = tracer.open("scale_lazy.replay", None);
    let report = tracer.time("analysis.scale_campaign", Some(root), || w.campaign.run());
    let (t, p) = (&report.tables, &report.perf);
    values.set("analysis.scale_sweep_ms", p.universe_sweep_ms as f64);
    values.set("analysis.scale_stateful_ms", p.stateful_ms as f64);
    values.set("simnet.lazy_instantiated", p.instantiated as f64);
    values.set("simnet.lazy_evicted", p.evicted as f64);
    values.set("simnet.lazy_peak_resident", p.peak_resident as f64);
    values.set(
        "simnet.lazy_rebuild_ratio",
        p.instantiated as f64 / t.responsive.max(1) as f64,
    );
    values.set("qscanner.targets", (t.sampled * 2) as f64);
    values.set(
        "qscanner.success_ratio",
        t.sni.success as f64 / t.sampled.max(1) as f64,
    );

    let universe = LazyUniverse::new(w.campaign.config);
    let net = universe.build_network(Some(w.campaign.resident_cap));
    let module = QuicVnModule::new(w.campaign.config.seed);
    let (hits, sweep_report) = tracer.time("zmapq.scan_v4", Some(root), || {
        zmap_scanner(w.campaign.workers).scan_v4_accumulate(
            &net,
            &universe.scan_prefixes(),
            &module,
            || CountHits(0),
        )
    });
    tracer.close(root);
    assert_eq!(
        hits.0, t.responsive,
        "the replayed sweep found a different population"
    );
    sweep_counts(values, &[&sweep_report]);
    net_counts(values, &[&net]);
    values.set("zmapq.sweep_v4_ms", ms(sweep_report.wall_us * 1_000));
}

/// Counts events and keeps none: the cost of producing the stream without
/// the cost of storing it, like `RingSink::new(0)`, plus the count.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl EventSink for CountingSink {
    fn emit(&self, _: &Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The four stateful scans under spans, the per-target unit costs, and the
/// tracing tax: the QUIC targets once through `scan_many` and once through
/// `scan_many_traced`, each on a network nobody has talked to yet.
pub fn stateful(w: &StatefulSni, tracer: &mut Tracer, values: &mut LayerValues) -> Tails {
    let root = tracer.open("stateful_sni.replay", None);
    let net = tracer.time("internet.build_network", Some(root), || w.fresh_network());
    stateful_stages(&net, w.seed, w.workers, &w.targets, root, tracer, values);
    tracer.close(root);
    stage_totals(values, tracer);
    net_counts(values, &[&net]);
    drop(net);

    let tax = tracer.open("telemetry.tax", None);
    let qscan = campaign_qscanner(w.seed);
    let both: Vec<QuicTarget> = w
        .targets
        .quic_no_sni
        .iter()
        .chain(&w.targets.quic_sni)
        .cloned()
        .collect();
    let plain_net = w.fresh_network();
    let plain = tracer.open("qscanner.scan_many", Some(tax));
    let untraced = qscan.scan_many(&plain_net, &both, w.workers);
    tracer.close(plain);
    drop(plain_net);
    let traced_net = w.fresh_network();
    let sink = Arc::new(CountingSink::default());
    let telemetry = Telemetry::with_sink(sink.clone());
    let with_events = tracer.open("qscanner.scan_many_traced", Some(tax));
    let traced = qscan.scan_many_traced(&traced_net, &both, w.workers, Some(18), &telemetry);
    tracer.close(with_events);
    tracer.close(tax);
    assert!(
        untraced
            .iter()
            .map(|r| &r.outcome)
            .eq(traced.iter().map(|r| &r.outcome)),
        "tracing changed scan outcomes"
    );
    values.set(
        "telemetry.tracing_tax_share",
        tracer.duration_ns(with_events) as f64 / tracer.duration_ns(plain).max(1) as f64 - 1.0,
    );
    values.set("telemetry.events", sink.0.load(Ordering::Relaxed) as f64);

    per_target(&w.universe, w.seed, &w.targets, tracer, values)
}

/// One more sweep with `MuxConfig.trace` on, for the events and the
/// report's own counts; on the bulk workload also a one-worker run of a
/// sixth of the connections, for the per-core rate.
pub fn mux(w: &Mux, untraced_cpu_s: f64, tracer: &mut Tracer, values: &mut LayerValues) {
    let root = tracer.open("mux.replay", None);
    let mut cfg = w.cfg.clone();
    cfg.trace = true;
    let report = tracer.time("transfer.mux_run", Some(root), || transfer::mux::run(&cfg));
    values.set("telemetry.events", report.events.len() as f64);
    values.set("transfer.peak_active", report.peak_active as f64);
    values.set(
        "transfer.virtual_goodput_mb_s",
        analysis::workload::mux_mbps_served_virtual(&report),
    );
    if w.bytes_are_output {
        let mut one_core = w.cfg.clone();
        one_core.workers = 1;
        one_core.conns = (w.cfg.conns / 6).max(1);
        let start = Instant::now();
        let single = tracer.time("transfer.mux_run_one_worker", Some(root), || {
            transfer::mux::run(&one_core)
        });
        values.set(
            "transfer.bulk_mb_s_per_core",
            single.bytes_served as f64 / 1e6 / start.elapsed().as_secs_f64(),
        );
    } else {
        values.set(
            "transfer.conn_us",
            untraced_cpu_s * 1e6 / w.cfg.conns.max(1) as f64,
        );
    }
    tracer.close(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance([2.0, 2.0].into_iter()), 1.0);
        assert_eq!(imbalance([1.0, 3.0].into_iter()), 1.5);
        assert_eq!(imbalance(std::iter::empty()), 0.0);
    }

    #[test]
    fn per_target_sampling_stays_under_its_cap() {
        assert_eq!(stride(10), 1);
        assert_eq!(stride(PER_TARGET_SAMPLE), 1);
        assert_eq!(stride(PER_TARGET_SAMPLE + 1), 2);
        assert!(8_000usize.div_ceil(stride(8_000)) <= PER_TARGET_SAMPLE);
    }

    #[test]
    fn unsupported_p99_falls_back_to_the_highest_supported_tail() {
        let mut v = LayerValues::default();
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(target_percentiles(&mut v, "qscanner.target", &few), 90.0);
        assert_eq!(v.get("qscanner.target_p99_us"), 90.0);
        let many: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(target_percentiles(&mut v, "qscanner.target", &many), 99.0);
        assert_eq!(v.get("qscanner.target_p50_us"), 1000.5);
    }

    #[test]
    fn alt_svc_targets_name_each_address_once() {
        let w = CampaignPaper {
            campaign: crate::fixtures::campaign(0.005, 0x9000, 1),
        };
        let out = w.run();
        let targets = alt_svc_targets(&out);
        assert!(!targets.is_empty());
        // Strictly ascending addresses: sorted, and each address once.
        assert!(targets.windows(2).all(|p| p[0].addr < p[1].addr));
    }
}
