//! The scan engine: permuted sweep over prefixes (IPv4) or a target list
//! (IPv6), with rate limiting and blocklist filtering.
//!
//! ## Parallel sweep architecture
//!
//! The Feistel permutation maps scan indices `[0, n)` to addresses, so the
//! index domain — not the address space — is the unit of work distribution:
//! the domain is split into `workers` contiguous index ranges (shards), each
//! walked by a [`fan_out`] worker with a private [`TokenBucket`] granted
//! `rate_pps / workers` of the aggregate budget and a private probe scratch
//! buffer. Because the probe sent for index `i` depends only on `i` and the
//! seed (never on thread identity or timing), and shard results are merged
//! back in index order, a scan yields byte-identical results for any worker
//! count. This holds even with simulated impairments: [`simnet`] keys every
//! fault decision on per-flow sequence numbers, not global packet order, so
//! thread interleaving cannot change which probes are lost. For lossy
//! sweeps, [`ZmapConfig::probe_repeat`] re-probes unanswered targets and
//! deduplicates replies, trading bandwidth for coverage (§3.1 discusses the
//! equivalent trade-off for real ZMap sweeps).
//!
//! There is one shard loop (`ZmapScanner::run_shard`) for the three
//! sweeps. It is fed `BLOCK` scan indices at a time by the sweep's
//! `Targets` — prefix sweeps fill the block through
//! [`FeistelPermutation::permute_into`], which walks a block in passes of
//! independent encryptions instead of waiting for one index at a time — and
//! takes the
//! probe as a parameter (Version Negotiation over UDP, or a TCP SYN).

use std::sync::Arc;
use std::time::Instant;

use simnet::addr::{Ipv4Addr, Ipv6Addr, Prefix};
use simnet::{fan_out, IpAddr, NetShard, Network, ShardClock, SimTime, SocketAddr};
use telemetry::{LocalMetrics, MetricsRegistry};

use crate::blocklist::Blocklist;
use crate::feistel::FeistelPermutation;
use crate::modules::quic_vn::{QuicVnModule, VnResult};
use crate::ratelimit::TokenBucket;

/// Engine configuration.
pub struct ZmapConfig {
    /// Source address probes originate from (the scanner's vantage point).
    pub source: SocketAddr,
    /// Aggregate probe rate in packets per virtual second (paper: up to
    /// 15 000), divided evenly across worker shards.
    pub rate_pps: u64,
    /// Permutation seed.
    pub seed: u64,
    /// Excluded prefixes.
    pub blocklist: Blocklist,
    /// Sweep shard threads (1 = serial). Results are identical for any
    /// value; only wall-clock time changes.
    pub workers: usize,
    /// Probes sent per target (1 = classic single-shot sweep). Values above
    /// one enable duplicate-probe mode: each unanswered target is re-probed
    /// up to this many times and at most one reply per target is recorded,
    /// recovering hosts whose first probe or reply was lost.
    pub probe_repeat: usize,
    /// Optional metrics registry. When set, every sweep submits its
    /// [`ScanReport::metrics`] once, from the driver thread.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl ZmapConfig {
    /// Reasonable defaults from a given vantage address.
    pub fn new(source: SocketAddr) -> Self {
        ZmapConfig {
            source,
            rate_pps: 15_000,
            seed: 0x5eed,
            blocklist: Blocklist::new(),
            workers: 1,
            probe_repeat: 1,
            metrics: None,
        }
    }
}

/// Per-shard sweep accounting: what differs between shards or between
/// runs. A shard's counts go into [`ScanReport::metrics`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Half-open scan-index range `[lo, hi)` this shard walked.
    pub index_range: (u64, u64),
    /// Virtual time this shard's private clock advanced while pacing its
    /// slice of the scan. Each worker owns a [`simnet::ShardClock`], so
    /// this is the shard's own pacing time, independent of other shards;
    /// the shared clock ends at the slowest shard's finish time.
    pub virtual_us: u64,
    /// Wall-clock time this shard's thread spent scanning.
    pub wall_us: u64,
    /// Endpoint-lock acquisitions that found the lock held by another
    /// worker. It depends on real thread interleaving, so it stays out of
    /// the metric set, which is compared across worker counts.
    pub contended: u64,
}

/// Whole-scan accounting: per-shard stats plus the sweep's counts.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// One entry per shard, in index order.
    pub shards: Vec<ShardStats>,
    /// Every count of the sweep, once: `zmap.probes`, `zmap.blocked`,
    /// `zmap.hits` and (when nonzero) `zmap.invalid_replies` summed over
    /// shards; the traffic the sweep put on the wire (`zmap.packets_sent`,
    /// `zmap.bytes_sent` — the §3.1 padding cost — and
    /// `zmap.packets_received`); and the schedule-deterministic endpoint
    /// lock traffic (`simnet.lock_acquisitions`, one per delivered probe
    /// flight, and `simnet.cross_shard_handoffs`, flights whose source and
    /// destination route to different endpoint shards). None of them
    /// depends on the worker count.
    pub metrics: LocalMetrics,
    /// Wall-clock duration of the whole scan.
    pub wall_us: u64,
}

impl ScanReport {
    /// Total probes across shards.
    pub fn probes(&self) -> u64 {
        self.metrics.counter("zmap.probes")
    }

    /// Total hits across shards.
    pub fn hits(&self) -> u64 {
        self.metrics.counter("zmap.hits")
    }

    /// Aggregate endpoint-lock counters across shards.
    pub fn lock_counters(&self) -> simnet::LockCounters {
        simnet::LockCounters {
            acquired: self.metrics.counter("simnet.lock_acquisitions"),
            contended: self.shards.iter().map(|s| s.contended).sum(),
            cross_shard: self.metrics.counter("simnet.cross_shard_handoffs"),
        }
    }
}

/// A mergeable per-shard result sink. Each sweep shard folds its hits into
/// a private accumulator as they are produced; the driver merges the shard
/// accumulators back **in shard-index order**, so any accumulator whose
/// `merge` is order-sensitive still observes a deterministic, worker-count
/// independent sequence. `Vec<T>` is the buffering accumulator the classic
/// scan entry points use; streaming consumers (counter maps, mergeable
/// sketches) keep the sweep constant-memory by absorbing each result and
/// dropping it.
pub trait SweepAccumulator: Send {
    /// The per-hit item absorbed.
    type Item;
    /// Folds one hit in (called in scan-index order within a shard).
    fn absorb(&mut self, item: Self::Item);
    /// Folds a whole later shard's accumulator in (driver calls this in
    /// shard-index order).
    fn merge(&mut self, other: Self);
}

impl<T: Send> SweepAccumulator for Vec<T> {
    type Item = T;
    fn absorb(&mut self, item: T) {
        self.push(item);
    }
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Splits `[0, total)` into at most `workers` contiguous non-empty ranges.
/// The union of the ranges, in order, is exactly `[0, total)` — shards
/// partition the scan-index domain with no gaps and no overlaps.
pub fn shard_ranges(total: u64, workers: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let workers = (workers.max(1) as u64).min(total);
    let chunk = total / workers;
    let rem = total % workers;
    let mut bounds = Vec::with_capacity(workers as usize);
    let mut lo = 0u64;
    for w in 0..workers {
        let hi = lo + chunk + u64::from(w < rem);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Scan indices a shard turns into addresses at a time (2 KiB of stack).
const BLOCK: usize = 256;

/// One shard's slice of a sweep.
#[derive(Clone, Copy)]
struct ShardPlan {
    /// Half-open scan-index range `[lo, hi)`.
    range: (u64, u64),
    /// This shard's slice of the aggregate rate budget, in pps.
    rate: u64,
    /// Virtual time at which the sweep began. Every shard's clock starts
    /// here — not at whatever the shared clock reads when its thread first
    /// runs, which is later if another shard has already finished and
    /// merged — so a shard's pacing does not depend on scheduling.
    start: SimTime,
}

/// What a sweep walks: scan index `i` → address.
enum Targets<'a> {
    /// The concatenated address space of `prefixes`, visited in the order
    /// of a keyed permutation of its flat offsets.
    Prefixes {
        prefixes: &'a [Prefix],
        sizes: Vec<u64>,
        perm: FeistelPermutation,
    },
    /// An explicit hitlist, probed in list order.
    Hitlist(&'a [Ipv6Addr]),
}

impl<'a> Targets<'a> {
    fn prefixes(prefixes: &'a [Prefix], seed: u64) -> Self {
        let total: u128 = prefixes.iter().map(|p| p.size()).sum();
        // The permutation's own bound, checked before the sum is narrowed.
        assert!(
            total <= 1 << 63,
            "scan space too large: a sweep covers at most 2^63 addresses"
        );
        // No prefix is larger than the sum that just fitted.
        let sizes = prefixes.iter().map(|p| p.size() as u64).collect();
        Targets::Prefixes {
            prefixes,
            sizes,
            perm: FeistelPermutation::new((total as u64).max(1), seed),
        }
    }

    /// Number of scan indices.
    fn total(&self) -> u64 {
        match self {
            Targets::Prefixes { sizes, .. } => sizes.iter().sum(),
            Targets::Hitlist(list) => list.len() as u64,
        }
    }

    /// Fills `block[k]` with the place of scan index `lo + k`: its flat
    /// offset into the prefix space, or its position in the hitlist.
    fn fill(&self, lo: u64, block: &mut [u64]) {
        match self {
            Targets::Prefixes { perm, .. } => perm.permute_into(lo, block),
            Targets::Hitlist(_) => block.iter_mut().zip(lo..).for_each(|(at, i)| *at = i),
        }
    }

    /// The address at a place [`Targets::fill`] produced.
    fn addr(&self, mut at: u64) -> IpAddr {
        match self {
            Targets::Prefixes {
                prefixes, sizes, ..
            } => {
                for (prefix, &size) in prefixes.iter().zip(sizes) {
                    if at < size {
                        let addr = prefix.base.as_u128() + u128::from(at);
                        return match prefix.base {
                            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::from(addr as u32)),
                            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::from(addr)),
                        };
                    }
                    at -= size;
                }
                unreachable!("flat offset exceeds scan space");
            }
            Targets::Hitlist(list) => IpAddr::V6(list[at as usize]),
        }
    }
}

/// The scanner.
pub struct ZmapScanner {
    config: ZmapConfig,
}

impl ZmapScanner {
    /// Creates a scanner.
    pub fn new(config: ZmapConfig) -> Self {
        ZmapScanner { config }
    }

    /// The per-shard slice of the aggregate rate budget.
    fn shard_rate(&self, shard_count: usize) -> u64 {
        (self.config.rate_pps / shard_count.max(1) as u64).max(1)
    }

    /// Runs `run_shard` over the sharded index domain on
    /// [`simnet::fan_out`] — index = shard, one worker per shard, a single
    /// shard on the caller's thread — merges results in shard order, and
    /// submits the sweep's metric set to the configured registry.
    fn sharded<A: SweepAccumulator>(
        &self,
        net: &Network,
        total: u64,
        empty: impl FnOnce() -> A,
        run_shard: impl Fn(ShardPlan) -> (A, ShardStats, LocalMetrics) + Sync,
    ) -> (A, ScanReport) {
        let wall = Instant::now();
        let before = net.stats.snapshot();
        let bounds = shard_ranges(total, self.config.workers);
        let rate = self.shard_rate(bounds.len());
        let start = net.clock.now();
        let (outcomes, _) = fan_out(
            bounds.len(),
            bounds.len(),
            || (),
            |(), shard| {
                run_shard(ShardPlan {
                    range: bounds[shard],
                    rate,
                    start,
                })
            },
        );
        let after = net.stats.snapshot();
        let mut results: Option<A> = None;
        let mut shards = Vec::with_capacity(outcomes.len());
        let mut metrics = LocalMetrics::new();
        for (shard_results, stats, shard_metrics) in outcomes {
            match &mut results {
                None => results = Some(shard_results),
                Some(acc) => acc.merge(shard_results),
            }
            shards.push(stats);
            metrics.merge(&shard_metrics);
        }
        metrics.inc("zmap.packets_sent", after.0.saturating_sub(before.0));
        metrics.inc("zmap.bytes_sent", after.1.saturating_sub(before.1));
        metrics.inc("zmap.packets_received", after.2.saturating_sub(before.2));
        let report = ScanReport {
            shards,
            metrics,
            wall_us: wall.elapsed().as_micros() as u64,
        };
        if let Some(registry) = &self.config.metrics {
            registry.submit(report.metrics.clone());
        }
        (results.unwrap_or_else(empty), report)
    }

    /// Sweeps the address space covered by `prefixes` with the QUIC VN
    /// module, returning every Version Negotiation response.
    ///
    /// # Panics
    /// Panics when `prefixes` hold more than 2⁶³ addresses together (only
    /// IPv6 prefixes can); so do the other prefix sweeps.
    pub fn scan_v4(
        &self,
        net: &Network,
        prefixes: &[Prefix],
        module: &QuicVnModule,
    ) -> Vec<VnResult> {
        self.scan_v4_with_report(net, prefixes, module).0
    }

    /// [`ZmapScanner::scan_v4`] plus the per-shard [`ScanReport`].
    pub fn scan_v4_with_report(
        &self,
        net: &Network,
        prefixes: &[Prefix],
        module: &QuicVnModule,
    ) -> (Vec<VnResult>, ScanReport) {
        self.scan_v4_accumulate(net, prefixes, module, Vec::new)
    }

    /// The streaming sweep: like [`ZmapScanner::scan_v4_with_report`] but
    /// folding each Version Negotiation hit into a caller-supplied
    /// [`SweepAccumulator`] the moment it is produced, instead of buffering
    /// a result vector. With a constant-size accumulator (counter maps,
    /// sketches) a full address-space sweep runs at O(1) result memory.
    /// `make` builds one accumulator per shard; shard accumulators are
    /// merged in shard-index order, so results are byte-identical at any
    /// worker count (with `make = Vec::new` this *is* the classic scan).
    pub fn scan_v4_accumulate<A: SweepAccumulator<Item = VnResult>>(
        &self,
        net: &Network,
        prefixes: &[Prefix],
        module: &QuicVnModule,
        make: impl Fn() -> A + Sync,
    ) -> (A, ScanReport) {
        let targets = Targets::prefixes(prefixes, self.config.seed);
        self.vn_sweep(net, &targets, module, make)
    }

    /// A Version Negotiation sweep over `targets`, one probe scratch buffer
    /// per shard.
    fn vn_sweep<A: SweepAccumulator<Item = VnResult>>(
        &self,
        net: &Network,
        targets: &Targets<'_>,
        module: &QuicVnModule,
        make: impl Fn() -> A + Sync,
    ) -> (A, ScanReport) {
        self.sharded(net, targets.total(), &make, |plan| {
            let mut scratch = module.make_scratch();
            let (results, stats, mut metrics) =
                self.run_shard(net, targets, plan, make(), |link, dst, i| {
                    module.probe_with_shard(&mut scratch, link, self.config.source, dst, i)
                });
            // Only when nonzero: a sweep whose replies all echo adds no
            // line to `metrics.txt`.
            if scratch.invalid_replies() > 0 {
                metrics.inc("zmap.invalid_replies", scratch.invalid_replies());
            }
            (results, stats, metrics)
        })
    }

    /// The shard loop of every sweep: walks the plan's scan indices a block
    /// of addresses at a time, sending `probe` to each address the
    /// blocklist lets through at the plan's rate and folding hits into
    /// `results`. Its loop counts in plain integers, which become the
    /// shard's metric set once the loop is done.
    fn run_shard<A: SweepAccumulator>(
        &self,
        net: &Network,
        targets: &Targets<'_>,
        plan: ShardPlan,
        mut results: A,
        mut probe: impl FnMut(&mut NetShard<'_>, SocketAddr, u64) -> Option<A::Item>,
    ) -> (A, ShardStats, LocalMetrics) {
        let ShardPlan {
            range: (lo, hi),
            rate,
            start,
        } = plan;
        let mut bucket = TokenBucket::new(rate);
        // Worker-private network handle: its own virtual clock, traffic
        // counters, and flow-sequence cache, merged back once on finish.
        let mut link = net.shard();
        link.clock = ShardClock::starting_at(start);
        let mut hits = 0u64;
        let mut blocked = 0u64;
        let mut probes = 0u64;
        let shard_wall = Instant::now();
        let mut block = [0u64; BLOCK];
        for first in (lo..hi).step_by(BLOCK) {
            let block = &mut block[..(hi - first).min(BLOCK as u64) as usize];
            targets.fill(first, block);
            for (i, &at) in (first..).zip(&*block) {
                let addr = targets.addr(at);
                if self.config.blocklist.is_blocked(&addr) {
                    blocked += 1;
                    continue;
                }
                // Both sweeps probe 443: QUIC's port and the TLS scans'.
                let dst = SocketAddr::new(addr, 443);
                // Duplicate-probe mode: re-probe until the target answers
                // or the repeat budget runs out; record at most one reply.
                for _ in 0..self.config.probe_repeat.max(1) {
                    bucket.acquire(&link.clock);
                    probes += 1;
                    if let Some(hit) = probe(&mut link, dst, i) {
                        results.absorb(hit);
                        hits += 1;
                        break;
                    }
                }
            }
        }
        let virtual_us = link.now().0.saturating_sub(start.0);
        let locks = link.finish();
        let stats = ShardStats {
            index_range: (lo, hi),
            virtual_us,
            wall_us: shard_wall.elapsed().as_micros() as u64,
            contended: locks.contended,
        };
        let mut metrics = LocalMetrics::new();
        metrics.inc("zmap.probes", probes);
        metrics.inc("zmap.blocked", blocked);
        metrics.inc("zmap.hits", hits);
        metrics.inc("simnet.lock_acquisitions", locks.acquired);
        metrics.inc("simnet.cross_shard_handoffs", locks.cross_shard);
        (results, stats, metrics)
    }

    /// Probes an explicit IPv6 target list (hitlist + AAAA input, §3.1).
    pub fn scan_v6(
        &self,
        net: &Network,
        targets: &[Ipv6Addr],
        module: &QuicVnModule,
    ) -> Vec<VnResult> {
        self.scan_v6_with_report(net, targets, module).0
    }

    /// [`ZmapScanner::scan_v6`] plus the per-shard [`ScanReport`].
    pub fn scan_v6_with_report(
        &self,
        net: &Network,
        targets: &[Ipv6Addr],
        module: &QuicVnModule,
    ) -> (Vec<VnResult>, ScanReport) {
        self.vn_sweep(net, &Targets::Hitlist(targets), module, Vec::new)
    }

    /// TCP SYN sweep over `prefixes` (port 443 discovery for the TLS scans).
    pub fn scan_tcp_syn(&self, net: &Network, prefixes: &[Prefix]) -> Vec<IpAddr> {
        self.scan_tcp_syn_with_report(net, prefixes).0
    }

    /// [`ZmapScanner::scan_tcp_syn`] plus the per-shard [`ScanReport`].
    pub fn scan_tcp_syn_with_report(
        &self,
        net: &Network,
        prefixes: &[Prefix],
    ) -> (Vec<IpAddr>, ScanReport) {
        let targets = Targets::prefixes(prefixes, self.config.seed ^ 0x7cb);
        self.sharded(net, targets.total(), Vec::new, |plan| {
            // A SYN probe bypasses the sharded UDP endpoint table and
            // charges no RTT: the shard's link paces it and counts its SYN
            // and any SYN-ACK.
            self.run_shard(net, &targets, plan, Vec::new(), |link, dst, _| {
                crate::modules::tcp_syn::probe(link, dst).then_some(dst.ip)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quic::server::{Endpoint, EndpointConfig, StreamHandler, StreamSend};
    use quic::version::Version;
    use simnet::{ServiceCtx, UdpService};
    use std::sync::Arc;

    struct NoApp;
    impl StreamHandler for NoApp {
        fn on_stream_data(&mut self, _: u64, _: &[u8], _: bool) -> Vec<StreamSend> {
            Vec::new()
        }
    }

    struct Udp(Endpoint);
    impl UdpService for Udp {
        fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: SocketAddr, data: &[u8]) {
            for r in self.0.handle_datagram(from.ip.as_u128(), data) {
                ctx.reply(r);
            }
        }
    }

    fn quic_host(versions: Vec<Version>) -> Box<dyn UdpService> {
        let ca = qtls::CertificateAuthority::new("CA", 1);
        let cert = ca.issue(1, "x.example", vec![], 0, 99, [1; 32]);
        let tls = Arc::new(qtls::ServerConfig::single_cert(cert));
        let mut cfg = EndpointConfig::new(tls);
        cfg.vn_advertise = versions.clone();
        cfg.accept_versions = versions;
        Box::new(Udp(Endpoint::new(cfg, 3, Box::new(|| Box::new(NoApp)))))
    }

    #[test]
    fn sweep_finds_quic_hosts() {
        let mut net = Network::new(5);
        // Three QUIC hosts inside a /24, rest empty.
        for last in [5u8, 77, 200] {
            net.bind_udp(
                SocketAddr::new(Ipv4Addr::new(10, 50, 0, last), 443),
                quic_host(vec![Version::DRAFT_29, Version::DRAFT_28]),
            );
        }
        let cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
        let scanner = ZmapScanner::new(cfg);
        let module = QuicVnModule::new(1);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 50, 0, 0), 24)];
        let mut hits = scanner.scan_v4(&net, &prefixes, &module);
        hits.sort_by_key(|h| h.addr);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].versions, vec![Version::DRAFT_29, Version::DRAFT_28]);
    }

    /// The tentpole property: the same seed yields byte-identical results —
    /// same hits in the same order — regardless of worker count.
    #[test]
    fn parallel_sweep_matches_serial() {
        let build_net = || {
            let mut net = Network::new(5);
            for last in [2u8, 19, 77, 130, 200, 254] {
                net.bind_udp(
                    SocketAddr::new(Ipv4Addr::new(10, 50, 0, last), 443),
                    quic_host(vec![Version::DRAFT_29, Version::V1]),
                );
                net.bind_udp(
                    SocketAddr::new(Ipv4Addr::new(10, 50, 1, last), 443),
                    quic_host(vec![Version::DRAFT_32]),
                );
            }
            net
        };
        let module = QuicVnModule::new(42);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 50, 0, 0), 23)];
        let scan = |workers: usize| {
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            let (hits, report) =
                ZmapScanner::new(cfg).scan_v4_with_report(&build_net(), &prefixes, &module);
            assert_eq!(report.shards.len(), workers.min(512));
            assert_eq!(report.probes(), 512);
            assert_eq!(report.hits(), 12);
            (hits, report)
        };
        let (serial, _) = scan(1);
        assert_eq!(serial.len(), 12);
        for workers in [2usize, 3, 4, 5, 8] {
            let (parallel, report) = scan(workers);
            assert_eq!(parallel, serial, "workers={workers}");
            // Shards partition the index domain contiguously.
            let mut next = 0u64;
            for s in &report.shards {
                assert_eq!(s.index_range.0, next);
                next = s.index_range.1;
            }
            assert_eq!(next, 512);
        }
    }

    /// A TCP service that closes at once: enough to answer a SYN.
    struct NoTcp;
    impl simnet::TcpHandler for NoTcp {
        fn on_data(&mut self, _: &[u8], _: &mut Vec<u8>) -> simnet::TcpAction {
            simnet::TcpAction::Close
        }
    }
    struct NoTcpFactory;
    impl simnet::TcpFactory for NoTcpFactory {
        fn accept(&self, _: SocketAddr) -> Box<dyn simnet::TcpHandler> {
            Box::new(NoTcp)
        }
    }

    /// Parallel v6 list scans and TCP SYN sweeps are deterministic too.
    #[test]
    fn parallel_v6_and_tcp_match_serial() {
        let mut net = Network::new(5);
        let mut targets = Vec::new();
        for i in 0..64u16 {
            let v6 = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i);
            targets.push(v6);
            if i.is_multiple_of(3) {
                net.bind_udp(SocketAddr::new(v6, 443), quic_host(vec![Version::V1]));
            }
        }
        for last in [7u8, 9, 33] {
            net.bind_tcp(
                SocketAddr::new(Ipv4Addr::new(10, 61, 0, last), 443),
                Box::new(NoTcpFactory),
            );
        }
        let module = QuicVnModule::new(3);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 61, 0, 0), 24)];
        let scanner_with = |workers: usize| {
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            ZmapScanner::new(cfg)
        };
        let v6_serial = scanner_with(1).scan_v6(&net, &targets, &module);
        let tcp_serial = scanner_with(1).scan_tcp_syn(&net, &prefixes);
        assert_eq!(v6_serial.len(), 22);
        assert_eq!(tcp_serial.len(), 3);
        for workers in [3usize, 8] {
            assert_eq!(
                scanner_with(workers).scan_v6(&net, &targets, &module),
                v6_serial
            );
            assert_eq!(
                scanner_with(workers).scan_tcp_syn(&net, &prefixes),
                tcp_serial
            );
        }
    }

    /// Duplicate-probe mode recovers hosts whose single probe (or reply)
    /// would be lost, and deduplicates: each responsive host appears once.
    #[test]
    fn duplicate_probes_recover_lossy_targets() {
        let hosts: Vec<u8> = (1..=40).collect();
        let build_net = |loss: u32| {
            let mut net = Network::new(9);
            net.set_default_profile(simnet::LinkProfile::lossy(loss));
            for &last in &hosts {
                net.bind_udp(
                    SocketAddr::new(Ipv4Addr::new(10, 52, 0, last), 443),
                    quic_host(vec![Version::V1]),
                );
            }
            net
        };
        let module = QuicVnModule::new(7);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 52, 0, 0), 24)];
        let scan = |loss: u32, repeat: usize| {
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.probe_repeat = repeat;
            let mut hits = ZmapScanner::new(cfg).scan_v4(&build_net(loss), &prefixes, &module);
            hits.sort_by_key(|h| h.addr);
            hits
        };
        // 30% loss on each direction (~51% per-attempt miss): a single-shot
        // sweep misses many hosts; six probes per target recover them all.
        let single = scan(300, 1);
        assert!(
            single.len() < hosts.len(),
            "single-shot found {}",
            single.len()
        );
        let repeated = scan(300, 6);
        assert_eq!(repeated.len(), hosts.len());
        // Dedup: every host exactly once, same as a loss-free single sweep.
        assert_eq!(repeated, scan(0, 1));
    }

    /// Per-flow fault keying makes lossy sweeps worker-count invariant.
    #[test]
    fn lossy_parallel_sweep_matches_serial() {
        let build_net = || {
            let mut net = Network::new(11);
            net.set_default_profile(simnet::LinkProfile::lossy(250));
            for last in [3u8, 40, 99, 150, 201, 250] {
                net.bind_udp(
                    SocketAddr::new(Ipv4Addr::new(10, 53, 0, last), 443),
                    quic_host(vec![Version::DRAFT_29]),
                );
            }
            net
        };
        let module = QuicVnModule::new(13);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 53, 0, 0), 24)];
        let scan = |workers: usize| {
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            cfg.probe_repeat = 2;
            ZmapScanner::new(cfg).scan_v4(&build_net(), &prefixes, &module)
        };
        let serial = scan(1);
        for workers in [2usize, 3, 4, 5, 8] {
            assert_eq!(scan(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn shard_bounds_partition_domain() {
        for (total, workers) in [(0u64, 4usize), (1, 4), (5, 3), (512, 8), (513, 8), (7, 20)] {
            let bounds = shard_ranges(total, workers);
            if total == 0 {
                assert!(bounds.is_empty());
                continue;
            }
            assert!(bounds.len() <= workers.max(1));
            let mut next = 0u64;
            for &(lo, hi) in &bounds {
                assert_eq!(lo, next);
                assert!(hi > lo, "empty shard in {bounds:?}");
                next = hi;
            }
            assert_eq!(next, total, "total={total} workers={workers}");
        }
    }

    /// With a registry configured, a sweep submits its metric set, which
    /// reconciles exactly with the `ScanReport` and renders the same at any
    /// worker count. The SYN sweep's probes are traffic too: one 40-byte SYN
    /// each, and a 40-byte SYN-ACK from each open port.
    #[test]
    fn sweep_submits_shard_metrics() {
        let mut net = Network::new(5);
        for last in [5u8, 77, 200] {
            net.bind_udp(
                SocketAddr::new(Ipv4Addr::new(10, 55, 0, last), 443),
                quic_host(vec![Version::V1]),
            );
            net.bind_tcp(
                SocketAddr::new(Ipv4Addr::new(10, 56, 0, last), 443),
                Box::new(NoTcpFactory),
            );
        }
        let module = QuicVnModule::new(1);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 55, 0, 0), 24)];
        let syn_prefixes = [Prefix::new(Ipv4Addr::new(10, 56, 0, 0), 24)];
        let mut rendered = Vec::new();
        let mut syn_rendered = Vec::new();
        for workers in [1usize, 2, 4] {
            let registry = Arc::new(telemetry::MetricsRegistry::new());
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            cfg.metrics = Some(registry.clone());
            let scanner = ZmapScanner::new(cfg);
            let (_, report) = scanner.scan_v4_with_report(&net, &prefixes, &module);
            assert_eq!(report.shards.len(), workers);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("zmap.probes"), report.probes());
            assert_eq!(report.probes(), 256);
            assert_eq!(snap.counter("zmap.hits"), report.hits());
            assert_eq!(report.hits(), 3);
            assert_eq!(snap.counter("zmap.blocked"), 0);
            assert_eq!(snap.counter("zmap.invalid_replies"), 0);
            // One datagram per probe, one reply per host.
            assert_eq!(snap.counter("zmap.packets_sent"), 256);
            assert_eq!(snap.counter("zmap.packets_received"), 3);
            // One service-lock acquisition per probe that reached a bound
            // host (three hosts in the /24), and the routing-derived handoff
            // count — both deterministic, so exact equality against the
            // report holds.
            let locks = report.lock_counters();
            assert_eq!(snap.counter("simnet.lock_acquisitions"), locks.acquired);
            assert_eq!(
                snap.counter("simnet.cross_shard_handoffs"),
                locks.cross_shard
            );
            assert_eq!(locks.acquired, 3);
            rendered.push(snap.render());

            let registry = Arc::new(telemetry::MetricsRegistry::new());
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            cfg.metrics = Some(registry.clone());
            let (open, report) =
                ZmapScanner::new(cfg).scan_tcp_syn_with_report(&net, &syn_prefixes);
            assert_eq!(open.len(), 3);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("zmap.probes"), report.probes());
            assert_eq!(report.probes(), 256);
            assert_eq!(
                snap.counter("zmap.packets_sent"),
                snap.counter("zmap.probes")
            );
            assert_eq!(snap.counter("zmap.bytes_sent"), 256 * 40);
            assert_eq!(snap.counter("zmap.packets_received"), 3);
            syn_rendered.push(snap.render());
        }
        assert!(rendered.iter().all(|r| *r == rendered[0]), "{rendered:#?}");
        assert!(
            syn_rendered.iter().all(|r| *r == syn_rendered[0]),
            "{syn_rendered:#?}"
        );
    }

    /// A constant-size accumulator sees exactly the hits the buffering scan
    /// collects, in the same order, at any worker count — the streaming
    /// sweep is the classic sweep minus the result vector.
    #[test]
    fn accumulating_sweep_matches_buffered() {
        struct Digest {
            count: u64,
            order_hash: u64,
        }
        impl SweepAccumulator for Digest {
            type Item = VnResult;
            fn absorb(&mut self, hit: VnResult) {
                self.count += 1;
                let a = hit.addr.ip.as_u128() as u64;
                self.order_hash = self
                    .order_hash
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(a);
            }
            fn merge(&mut self, other: Self) {
                // Order-sensitive fold: only correct if the driver merges in
                // shard-index order.
                for _ in 0..other.count {
                    self.order_hash = self.order_hash.wrapping_mul(0x100_0000_01b3);
                }
                self.order_hash = self.order_hash.wrapping_add(other.order_hash);
                self.count += other.count;
            }
        }
        let digest_of = |hits: &[VnResult]| {
            let mut d = Digest {
                count: 0,
                order_hash: 0,
            };
            for h in hits {
                d.absorb(h.clone());
            }
            (d.count, d.order_hash)
        };
        let build_net = || {
            let mut net = Network::new(5);
            for last in [2u8, 19, 77, 130, 200, 254] {
                net.bind_udp(
                    SocketAddr::new(Ipv4Addr::new(10, 56, 0, last), 443),
                    quic_host(vec![Version::DRAFT_29]),
                );
            }
            net
        };
        let module = QuicVnModule::new(21);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 56, 0, 0), 24)];
        let buffered = {
            let cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            ZmapScanner::new(cfg).scan_v4(&build_net(), &prefixes, &module)
        };
        assert_eq!(buffered.len(), 6);
        for workers in [1usize, 3, 8] {
            let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
            cfg.workers = workers;
            let (acc, report) =
                ZmapScanner::new(cfg).scan_v4_accumulate(&build_net(), &prefixes, &module, || {
                    Digest {
                        count: 0,
                        order_hash: 0,
                    }
                });
            assert_eq!(
                (acc.count, acc.order_hash),
                digest_of(&buffered),
                "workers={workers}"
            );
            assert_eq!(report.hits(), 6);
        }
    }

    #[test]
    fn blocklist_is_respected() {
        let mut net = Network::new(5);
        net.bind_udp(
            SocketAddr::new(Ipv4Addr::new(10, 50, 0, 5), 443),
            quic_host(vec![Version::DRAFT_29]),
        );
        let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
        cfg.blocklist
            .add(Prefix::new(Ipv4Addr::new(10, 50, 0, 0), 28));
        let scanner = ZmapScanner::new(cfg);
        let module = QuicVnModule::new(1);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 50, 0, 0), 24)];
        let (hits, report) = scanner.scan_v4_with_report(&net, &prefixes, &module);
        assert!(hits.is_empty());
        assert_eq!(report.metrics.counter("zmap.blocked"), 16);
        assert_eq!(report.probes(), 240);
    }

    #[test]
    fn unpadded_module_misses_strict_hosts() {
        let mut net = Network::new(5);
        net.bind_udp(
            SocketAddr::new(Ipv4Addr::new(10, 50, 0, 5), 443),
            quic_host(vec![Version::DRAFT_29]),
        );
        let cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
        let scanner = ZmapScanner::new(cfg);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 50, 0, 0), 24)];
        let unpadded = QuicVnModule::unpadded(1);
        assert!(scanner.scan_v4(&net, &prefixes, &unpadded).is_empty());
    }

    #[test]
    fn v6_list_scan() {
        let mut net = Network::new(5);
        let target = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 7);
        net.bind_udp(SocketAddr::new(target, 443), quic_host(vec![Version::V1]));
        let cfg = ZmapConfig::new(SocketAddr::new(Ipv6Addr::LOCALHOST, 50000));
        let scanner = ZmapScanner::new(cfg);
        let module = QuicVnModule::new(1);
        let miss = Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 8);
        let hits = scanner.scan_v6(&net, &[target, miss], &module);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].versions, vec![Version::V1]);
    }

    #[test]
    fn scan_duration_reflects_rate() {
        let net = Network::new(5);
        let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
        cfg.rate_pps = 1000;
        let scanner = ZmapScanner::new(cfg);
        let module = QuicVnModule::new(1);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 60, 0, 0), 22)]; // 1024 addrs
        let before = net.clock.now().0;
        scanner.scan_v4(&net, &prefixes, &module);
        let secs = (net.clock.now().0 - before) as f64 / 1e6;
        assert!(
            (0.8..1.6).contains(&secs),
            "1024 probes at 1k pps took {secs}s"
        );
    }

    /// The aggregate rate budget is divided across shards: a parallel sweep
    /// consumes roughly the same virtual time as a serial one.
    #[test]
    fn parallel_scan_duration_reflects_aggregate_rate() {
        let net = Network::new(5);
        let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
        cfg.rate_pps = 1000;
        cfg.workers = 4;
        let scanner = ZmapScanner::new(cfg);
        let module = QuicVnModule::new(1);
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 60, 0, 0), 22)]; // 1024 addrs
        let before = net.clock.now().0;
        let (_, report) = scanner.scan_v4_with_report(&net, &prefixes, &module);
        let secs = (net.clock.now().0 - before) as f64 / 1e6;
        // Each shard paces its own clock and the shared clock ends at the
        // slowest shard's, so the figure moves with how the budget splits
        // and the band is wide; the budget must neither collapse (4x too
        // fast) nor be multiplied.
        assert!(
            (0.2..4.2).contains(&secs),
            "1024 probes at 1k pps x4 workers took {secs}s"
        );
        assert_eq!(report.shards.len(), 4);
        assert!(report.shards.iter().all(|s| s.virtual_us > 0));
    }

    /// The SYN sweep paces each shard's own clock, like the VN sweeps: a
    /// shard's virtual time is its probes over its share of the rate (a SYN
    /// probe charges no RTT) and repeats exactly from run to run — which it
    /// would not if shards paced the network's shared clock, or started
    /// their own from whatever the shared one read when their thread ran.
    #[test]
    fn syn_sweep_virtual_time_is_per_shard_and_repeatable() {
        let prefixes = [Prefix::new(Ipv4Addr::new(10, 60, 0, 0), 22)]; // 1024 addrs
        for workers in [2usize, 4] {
            let run = || {
                let net = Network::new(5);
                let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
                cfg.rate_pps = 1000;
                cfg.workers = workers;
                let (_, report) = ZmapScanner::new(cfg).scan_tcp_syn_with_report(&net, &prefixes);
                // The band `parallel_scan_duration_reflects_aggregate_rate`
                // holds the VN sweep to.
                let secs = net.clock.now().0 as f64 / 1e6;
                assert!(
                    (0.2..4.2).contains(&secs),
                    "1024 SYNs at 1k pps took {secs}s"
                );
                // No blocklist and one probe per index: a shard probes
                // every index of its range.
                report
                    .shards
                    .iter()
                    .map(|s| (s.index_range.1 - s.index_range.0, s.virtual_us))
                    .collect::<Vec<_>>()
            };
            let first = run();
            assert_eq!(first.len(), workers);
            for &(probes, virtual_us) in &first {
                // Less the bucket's opening burst, a tenth of a second's budget.
                let paced_s = probes as f64 / (1000 / workers) as f64;
                let secs = virtual_us as f64 / 1e6;
                assert!(
                    (paced_s - 0.11..=paced_s).contains(&secs),
                    "{secs}s vs {paced_s}s"
                );
            }
            for _ in 0..4 {
                assert_eq!(run(), first, "workers={workers}");
            }
        }
    }
}
