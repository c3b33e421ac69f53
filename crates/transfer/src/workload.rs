//! PEMI-style transfer workloads over the simulated internet: bulk HTTP/3
//! downloads (goodput) and a 30 fps real-time stream (per-frame latency),
//! swept across a loss × jitter grid of [`simnet::LinkProfile`]s with
//! thousands of connections on the sharded simnet.
//!
//! A bulk download is the crate's one HTTP/3 download client,
//! `mux::MuxConn`, with a single request stream, run to completion;
//! the RTC stream has its own client loop here (the client is the data
//! sender). Both passes fan out over [`simnet::fan_out`].
//!
//! Determinism discipline (same as the scan sweeps): tasks are enumerated in
//! a fixed order, each task's virtual time is flow-local (measured as a
//! shard's clock delta — every exchange and fault draw of a flow is keyed to
//! the flow, not to global state), results and telemetry events are merged
//! in task-index order. Same seed ⇒ byte-identical tables and traces at any
//! worker count.

use qcodec::Writer;
use quic::{ClientConnection, Frame, Version};
use simnet::addr::Ipv4Addr;
use simnet::{fan_out, DatagramArena, Duration, LinkProfile, NetShard, Network, SocketAddr};
use telemetry::{Event, EventKind, TraceCtx};

use crate::host::{
    bind_transfer_host, extend_bulk_body, BoundHost, HostOptions, SessionKind, CONN_WINDOW,
    STREAM_WINDOW,
};
use crate::mux::{Download, MuxConn, MuxOutcome};
use crate::sched::SchedKind;
use crate::sender::DataSender;

/// Loss grid (permille), the PEMI loss sweep.
pub const LOSS_GRID: [u32; 3] = [0, 20, 50];
/// Jitter grid (µs of max extra latency per exchange).
pub const JITTER_GRID: [u64; 2] = [0, 5_000];
/// RTC frame payload: 3 Mbit/s at 30 fps.
pub const RTC_FRAME_BYTES: u64 = 12_500;
/// RTC frame interval (µs): 30 fps.
pub const RTC_FRAME_INTERVAL_US: u64 = 33_333;
/// RTC pacing rate (packets per virtual second). Each frame travels as one
/// packet (one simulated exchange), so the stream needs 30 pps; the excess
/// is retransmission headroom.
pub const RTC_PACE_PPS: u64 = 35;
/// Clients per server host lifetime — kept far under the endpoint's
/// connection cap so evicting the least recently active finished connection
/// (an interleaving-dependent effect) can never trigger.
const CLIENTS_PER_HOST: usize = 32;
/// Safety cap on client drive rounds per connection.
const MAX_ROUNDS: usize = 4_096;

/// One loss × jitter grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Forward/reply loss in permille.
    pub loss_permille: u32,
    /// Max per-exchange jitter in µs.
    pub jitter_us: u64,
}

/// The full grid, loss-major.
pub fn grid_cells() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for &loss_permille in &LOSS_GRID {
        for &jitter_us in &JITTER_GRID {
            cells.push(GridCell {
                loss_permille,
                jitter_us,
            });
        }
    }
    cells
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed (network faults, TLS randomness).
    pub seed: u64,
    /// Worker threads driving the sweep.
    pub workers: usize,
    /// Bulk object sizes (bytes).
    pub bulk_sizes: Vec<u64>,
    /// Bulk connections per (cell, size).
    pub bulk_conns_per_cell: usize,
    /// RTC connections per cell.
    pub rtc_conns_per_cell: usize,
    /// Frames per RTC connection.
    pub rtc_frames: u64,
    /// Extra loss (permille) added to every cell — the `SIM_LOSS_PERMILLE`
    /// environment baseline.
    pub extra_loss_permille: u32,
}

impl WorkloadConfig {
    /// Full scale: the PEMI sizes (50 KB / 1 MB / 10 MB), 56 connections
    /// per (cell, size) — 1008 bulk connections — plus 8 RTC connections
    /// per cell at 3 s of video each.
    pub fn full(seed: u64, workers: usize) -> Self {
        WorkloadConfig {
            seed,
            workers,
            bulk_sizes: vec![50_000, 1_000_000, 10_000_000],
            bulk_conns_per_cell: 56,
            rtc_conns_per_cell: 8,
            rtc_frames: 90,
            extra_loss_permille: 0,
        }
    }

    /// Smoke scale for CI: two sizes, a couple of connections per cell,
    /// one second of video.
    pub fn fast(seed: u64, workers: usize) -> Self {
        WorkloadConfig {
            seed,
            workers,
            bulk_sizes: vec![50_000, 1_000_000],
            bulk_conns_per_cell: 2,
            rtc_conns_per_cell: 2,
            rtc_frames: 30,
            extra_loss_permille: 0,
        }
    }

    fn bulk_tasks(&self) -> usize {
        grid_cells().len() * self.bulk_sizes.len() * self.bulk_conns_per_cell
    }

    fn rtc_tasks(&self) -> usize {
        grid_cells().len() * self.rtc_conns_per_cell
    }
}

/// One aggregated bulk row: a (cell, size) pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkRow {
    pub loss_permille: u32,
    pub jitter_us: u64,
    pub size: u64,
    pub conns: usize,
    pub ok: usize,
    /// Mean goodput over successful transfers, kbit/s of virtual time.
    pub goodput_kbps_mean: u64,
    pub goodput_kbps_min: u64,
    pub goodput_kbps_max: u64,
}

/// Aggregated bulk sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BulkReport {
    pub rows: Vec<BulkRow>,
}

/// One aggregated RTC row: a grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtcRow {
    pub loss_permille: u32,
    pub jitter_us: u64,
    pub conns: usize,
    pub frames: u64,
    /// Frame-latency percentiles (µs of flow-local virtual time).
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// Aggregated RTC sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RtcReport {
    pub rows: Vec<RtcRow>,
}

/// Everything one sweep produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub bulk: BulkReport,
    pub rtc: RtcReport,
    /// Telemetry events merged in task-index order (bulk tasks first).
    pub events: Vec<Event>,
}

impl BulkReport {
    /// Deterministic text table (also the worker-invariance artifact).
    pub fn table_lines(&self) -> Vec<String> {
        let mut lines =
            vec!["loss_permille jitter_us size_bytes conns ok goodput_kbps_mean min max".into()];
        for r in &self.rows {
            lines.push(format!(
                "{} {} {} {} {} {} {} {}",
                r.loss_permille,
                r.jitter_us,
                r.size,
                r.conns,
                r.ok,
                r.goodput_kbps_mean,
                r.goodput_kbps_min,
                r.goodput_kbps_max
            ));
        }
        lines
    }
}

impl RtcReport {
    /// Deterministic text table (also the worker-invariance artifact).
    pub fn table_lines(&self) -> Vec<String> {
        let mut lines =
            vec!["loss_permille jitter_us conns frames p50_us p95_us p99_us max_us".into()];
        for r in &self.rows {
            lines.push(format!(
                "{} {} {} {} {} {} {} {}",
                r.loss_permille,
                r.jitter_us,
                r.conns,
                r.frames,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.max_us
            ));
        }
        lines
    }
}

impl WorkloadReport {
    /// Both tables, concatenated — the byte-identical determinism artifact.
    pub fn tables(&self) -> String {
        let mut s = String::from("# bulk goodput\n");
        for l in self.bulk.table_lines() {
            s.push_str(&l);
            s.push('\n');
        }
        s.push_str("# rtc frame latency\n");
        for l in self.rtc.table_lines() {
            s.push_str(&l);
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

struct Topology {
    net: Network,
    /// Bulk hosts indexed by `(cell, size_idx, group)`.
    bulk_hosts: Vec<BoundHost>,
    bulk_groups: usize,
    /// RTC hosts indexed by `(cell, group)`.
    rtc_hosts: Vec<BoundHost>,
    rtc_groups: usize,
    sizes: usize,
}

fn build_topology(cfg: &WorkloadConfig) -> Topology {
    let mut net = Network::new(cfg.seed);
    let ca = qtls::cert::CertificateAuthority::new("Workload CA", 5);
    let cells = grid_cells();
    let bulk_groups = cfg.bulk_conns_per_cell.div_ceil(CLIENTS_PER_HOST).max(1);
    let rtc_groups = cfg.rtc_conns_per_cell.div_ceil(CLIENTS_PER_HOST).max(1);

    let mut bulk_hosts = Vec::new();
    let mut rtc_hosts = Vec::new();
    // Hosts are numbered in binding order, bulk and RTC interleaved per cell.
    let mut host_idx = 0u64;
    let mut bind = |name: String, ip: Ipv4Addr, kind: SessionKind, profile: LinkProfile| {
        let opts = HostOptions::default();
        host_idx += 1;
        bind_transfer_host(
            &mut net,
            &ca,
            host_idx - 1,
            name,
            ip,
            kind,
            opts,
            profile,
            cfg.seed,
        )
    };
    for (c, cell) in cells.iter().enumerate() {
        let profile = LinkProfile {
            loss_permille: cell.loss_permille + cfg.extra_loss_permille,
            jitter_us: cell.jitter_us,
            ..LinkProfile::ideal()
        };
        for s in 0..cfg.bulk_sizes.len() {
            for g in 0..bulk_groups {
                let ip = Ipv4Addr::new(10, 1 + c as u8, s as u8, 1 + g as u8);
                let name = format!("bulk-{c}-{s}-{g}.example");
                bulk_hosts.push(bind(name, ip, SessionKind::Bulk, profile));
            }
        }
        for g in 0..rtc_groups {
            let ip = Ipv4Addr::new(10, 101 + c as u8, 0, 1 + g as u8);
            let name = format!("rtc-{c}-{g}.example");
            rtc_hosts.push(bind(name, ip, SessionKind::Rtc, profile));
        }
    }
    Topology {
        net,
        bulk_hosts,
        bulk_groups,
        rtc_hosts,
        rtc_groups,
        sizes: cfg.bulk_sizes.len(),
    }
}

impl Topology {
    fn bulk_host(&self, cell: usize, size_idx: usize, conn: usize) -> &BoundHost {
        let group = (conn / CLIENTS_PER_HOST).min(self.bulk_groups - 1);
        &self.bulk_hosts[(cell * self.sizes + size_idx) * self.bulk_groups + group]
    }

    fn rtc_host(&self, cell: usize, conn: usize) -> &BoundHost {
        let group = (conn / CLIENTS_PER_HOST).min(self.rtc_groups - 1);
        &self.rtc_hosts[cell * self.rtc_groups + group]
    }
}

// ---------------------------------------------------------------------------
// Client drive
// ---------------------------------------------------------------------------

pub(crate) fn client_config(server_name: &str) -> quic::ClientConfig {
    quic::ClientConfig {
        versions: vec![Version::V1],
        tls: qtls::ClientConfig {
            server_name: Some(server_name.to_string()),
            alpn: vec![b"h3".to_vec()],
            ..qtls::ClientConfig::default()
        },
        ..quic::ClientConfig::default()
    }
}

/// Sends one client flight GSO-style and feeds every reply back into the
/// connection. One endpoint lookup and at most one service-lock acquisition
/// per flight; byte-equivalent to the per-datagram loop by `simnet`'s shared
/// flight pipeline. Returns the reply count and total reply bytes (the
/// serve-path cost-model inputs).
pub(crate) fn exchange_flight(
    shard: &mut NetShard<'_>,
    src: SocketAddr,
    dst: SocketAddr,
    flight: Vec<Vec<u8>>,
    arena: &mut DatagramArena,
    conn: &mut ClientConnection,
) -> (u64, u64) {
    let _ = shard.udp_send_batch(src, dst, &flight, arena);
    let mut count = 0u64;
    let mut bytes = 0u64;
    for r in shard.udp_recv_batch(arena) {
        count += 1;
        bytes += r.len() as u64;
        conn.on_datagram(&r);
    }
    (count, bytes)
}

/// Runs the handshake rounds until the server *confirms* completion with
/// HANDSHAKE_DONE; returns false when it did not.
///
/// Client-side `Established` is not enough: the flight carrying the
/// client's Finished can be lost, leaving a server without 1-RTT keys that
/// silently discards every app packet while the client — which only sends
/// 1-RTT from then on — never retransmits the Finished. Waiting for
/// HANDSHAKE_DONE (and firing [`ClientConnection::on_pto`] on silence,
/// which retransmits the flight the peer is most likely missing) rules
/// that deadlock out.
pub(crate) fn drive_handshake(
    shard: &mut NetShard<'_>,
    conn: &mut ClientConnection,
    src: SocketAddr,
    dst: SocketAddr,
    arena: &mut DatagramArena,
) -> bool {
    for _ in 0..24 {
        if conn.handshake_done() {
            return true;
        }
        let mut out = conn.poll_transmit();
        if out.is_empty() {
            // Peer silent (a flight was lost): charge a probe-timeout wait
            // and retransmit.
            shard.advance(shard.rtt());
            if !conn.on_pto() {
                break;
            }
            out = conn.poll_transmit();
            if out.is_empty() {
                break;
            }
        }
        exchange_flight(shard, src, dst, out, arena, conn);
    }
    conn.handshake_done()
}

fn ping_payload() -> Vec<u8> {
    let mut w = Writer::with_capacity(1);
    Frame::Ping.encode(&mut w);
    w.into_vec()
}

/// Routes one received app packet's ACK and window grants into a sender.
pub(crate) fn dispatch_packet(frames: &[Frame], sender: &mut DataSender, now_us: u64) {
    for f in frames {
        match f {
            Frame::Ack { ranges, .. } => sender.on_ack(ranges, now_us),
            Frame::MaxData(limit) => sender.set_max_data(*limit),
            Frame::MaxStreamData { id, max } => sender.set_max_stream_data(*id, *max),
            _ => {}
        }
    }
}

/// Bulk task `task`: one connection downloading one object of the row's
/// size — the mux client with a single stream.
fn bulk_download<'net>(cfg: &WorkloadConfig, topo: &'net Topology, task: usize) -> Download<'net> {
    let per_cell = cfg.bulk_sizes.len() * cfg.bulk_conns_per_cell;
    let cell_idx = task / per_cell;
    let size_idx = (task % per_cell) / cfg.bulk_conns_per_cell;
    let conn_idx = task % cfg.bulk_conns_per_cell;
    let src = SocketAddr::new(
        simnet::IpAddr::V4(Ipv4Addr::new(
            192,
            168,
            (task >> 8) as u8,
            (task & 255) as u8,
        )),
        40_000,
    );
    Download {
        net: &topo.net,
        host: topo.bulk_host(cell_idx, size_idx, conn_idx),
        src,
        seed: cfg.seed ^ (task as u64) << 1,
        task,
        streams: 1,
        bytes_per_stream: cfg.bulk_sizes[size_idx],
        batched: true,
        trace: true,
    }
}

struct RtcOutcome {
    /// Per-frame ack latency (µs), frame order.
    latencies: Vec<u64>,
    events: Vec<Event>,
}

fn run_rtc_task(
    shard: &mut NetShard<'_>,
    cfg: &WorkloadConfig,
    topo: &Topology,
    task: usize,
) -> RtcOutcome {
    let cell_idx = task / cfg.rtc_conns_per_cell;
    let conn_idx = task % cfg.rtc_conns_per_cell;
    let host = topo.rtc_host(cell_idx, conn_idx);
    let src = SocketAddr::new(
        simnet::IpAddr::V4(Ipv4Addr::new(
            172,
            16,
            (task >> 8) as u8,
            (task & 255) as u8,
        )),
        41_000,
    );
    let mut ctx = TraceCtx::new(task as u64, format!("{:?}", host.addr.ip), None);

    let mut arena = DatagramArena::new();
    let mut conn = ClientConnection::new(
        client_config(&host.name),
        cfg.seed ^ 0x5bd1 ^ (task as u64) << 1,
    );
    if !drive_handshake(shard, &mut conn, src, host.addr, &mut arena) {
        return RtcOutcome {
            latencies: Vec::new(),
            events: ctx.finish(),
        };
    }
    conn.enable_app_frames();

    let start_us = shard.now().0;
    let rtt_us = shard.rtt().0;
    // The client is the data sender here: its NewReno dynamics land in the
    // flow-local trace. Sends are paced through the token bucket, and each
    // frame travels as one packet — the simnet charges virtual time per
    // delivered datagram, so a frame maps to one simulated exchange.
    let mut sender = DataSender::new(rtt_us, 4 * CONN_WINDOW, STREAM_WINDOW, SchedKind::IdOrder);
    // Frame latency comes from the completions, the trace from the events.
    sender.enable_journal();
    sender.set_pacing(RTC_PACE_PPS);
    sender.set_chunk_bytes(RTC_FRAME_BYTES);
    let mut frame_bytes = Vec::new();
    extend_bulk_body(&mut frame_bytes, 0, RTC_FRAME_BYTES);
    let mut gen_time = std::collections::BTreeMap::new();
    let mut latencies = Vec::new();
    let mut next_frame = 0u64;
    let mut next_stream = 2u64;
    let mut stall = 0u32;

    for _ in 0..MAX_ROUNDS * 4 {
        let now = shard.now().0 - start_us;
        while next_frame < cfg.rtc_frames && next_frame * RTC_FRAME_INTERVAL_US <= now {
            let sid = next_stream;
            next_stream += 4;
            gen_time.insert(sid, next_frame * RTC_FRAME_INTERVAL_US);
            sender.enqueue(sid, &frame_bytes, true);
            next_frame += 1;
        }
        let payloads = sender.poll(now);
        if payloads.is_empty() {
            if next_frame >= cfg.rtc_frames && sender.all_acked() {
                break;
            }
            stall += 1;
            if sender.in_flight_count() > 0 && stall.is_multiple_of(3) {
                // Probe: elicits the server's ACK state and runs our PTO.
                sender.on_silent_round(now);
                if conn.send_app_payload(&ping_payload()).is_none() {
                    break;
                }
                exchange_flight(
                    shard,
                    src,
                    host.addr,
                    conn.poll_transmit(),
                    &mut arena,
                    &mut conn,
                );
            } else if sender.has_queued_data() || sender.in_flight_count() > 0 {
                // Paced out (or waiting for an ack): let flow time advance.
                shard.advance(Duration::from_micros(rtt_us));
            } else if next_frame < cfg.rtc_frames {
                // Idle until the next frame is due.
                let next_t = next_frame * RTC_FRAME_INTERVAL_US;
                shard.advance(Duration::from_micros(next_t.saturating_sub(now).max(1)));
            } else {
                break;
            }
        } else {
            stall = 0;
            for payload in payloads {
                let Some(pn) = conn.send_app_payload(&payload) else {
                    break;
                };
                sender.record_sent(pn, payload.len() as u64);
            }
            exchange_flight(
                shard,
                src,
                host.addr,
                conn.poll_transmit(),
                &mut arena,
                &mut conn,
            );
        }
        let now = shard.now().0 - start_us;
        for pkt in conn.take_app_packets() {
            dispatch_packet(&pkt.frames, &mut sender, now);
        }
        for (sid, done_at) in sender.take_completed() {
            let gen = gen_time.get(&sid).copied().unwrap_or(done_at);
            let latency = done_at.saturating_sub(gen).max(1);
            ctx.advance(now.saturating_sub(ctx.now()));
            ctx.record(EventKind::FrameLatency {
                frame: (sid - 2) / 4,
                latency_us: latency,
            });
            latencies.push(latency);
        }
        for kind in sender.take_events() {
            ctx.record(kind);
        }
    }
    RtcOutcome {
        latencies,
        events: ctx.finish(),
    }
}

// ---------------------------------------------------------------------------
// Sweep driver
// ---------------------------------------------------------------------------

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 - 1) * p + 50) / 100;
    sorted[idx.min(sorted.len() as u64 - 1) as usize]
}

/// Runs both PEMI workloads and aggregates the grid tables.
pub fn run(cfg: &WorkloadConfig) -> WorkloadReport {
    let topo = build_topology(cfg);
    let cells = grid_cells();

    // Bulk sweep: every download owns its shard, so workers carry no state.
    let (bulk_results, _) = fan_out(
        cfg.bulk_tasks(),
        cfg.workers,
        || (),
        |_, i| MuxConn::run(bulk_download(cfg, &topo, i)),
    );
    let mut bulk = BulkReport::default();
    let per_cell = cfg.bulk_sizes.len() * cfg.bulk_conns_per_cell;
    for (c, cell) in cells.iter().enumerate() {
        for (s, &size) in cfg.bulk_sizes.iter().enumerate() {
            let base = c * per_cell + s * cfg.bulk_conns_per_cell;
            let group = &bulk_results[base..base + cfg.bulk_conns_per_cell];
            let ok: Vec<&MuxOutcome> = group.iter().filter(|r| r.ok).collect();
            let rates: Vec<u64> = ok
                .iter()
                .map(|r| r.body_bytes * 8_000 / r.elapsed_us.max(1))
                .collect();
            bulk.rows.push(BulkRow {
                loss_permille: cell.loss_permille,
                jitter_us: cell.jitter_us,
                size,
                conns: group.len(),
                ok: ok.len(),
                goodput_kbps_mean: if rates.is_empty() {
                    0
                } else {
                    rates.iter().sum::<u64>() / rates.len() as u64
                },
                goodput_kbps_min: rates.iter().copied().min().unwrap_or(0),
                goodput_kbps_max: rates.iter().copied().max().unwrap_or(0),
            });
        }
    }

    // RTC sweep: a worker's streams share its shard; each measures its own
    // clock delta.
    let (rtc_results, _) = fan_out(
        cfg.rtc_tasks(),
        cfg.workers,
        || topo.net.shard(),
        |shard, i| run_rtc_task(shard, cfg, &topo, i),
    );
    let mut rtc = RtcReport::default();
    for (c, cell) in cells.iter().enumerate() {
        let base = c * cfg.rtc_conns_per_cell;
        let group = &rtc_results[base..base + cfg.rtc_conns_per_cell];
        let mut lats: Vec<u64> = group
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        lats.sort_unstable();
        rtc.rows.push(RtcRow {
            loss_permille: cell.loss_permille,
            jitter_us: cell.jitter_us,
            conns: group.len(),
            frames: lats.len() as u64,
            p50_us: percentile(&lats, 50),
            p95_us: percentile(&lats, 95),
            p99_us: percentile(&lats, 99),
            max_us: lats.last().copied().unwrap_or(0),
        });
    }

    // Merge telemetry in task-index order: bulk first, then RTC.
    let bulk_events = bulk_results.into_iter().flat_map(|r| r.events);
    let events = bulk_events
        .chain(rtc_results.into_iter().flat_map(|r| r.events))
        .collect();
    WorkloadReport { bulk, rtc, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, workers: usize) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            workers,
            bulk_sizes: vec![50_000],
            bulk_conns_per_cell: 1,
            rtc_conns_per_cell: 1,
            rtc_frames: 8,
            extra_loss_permille: 0,
        }
    }

    #[test]
    fn bulk_transfer_completes_end_to_end() {
        let report = run(&tiny(7, 1));
        let ideal = &report.bulk.rows[0];
        assert_eq!((ideal.loss_permille, ideal.jitter_us), (0, 0));
        assert_eq!(ideal.ok, 1, "clean-path transfer must succeed");
        assert!(ideal.goodput_kbps_mean > 0);
        // Lossy cells still complete (recovery retransmits).
        for row in &report.bulk.rows {
            assert_eq!(
                row.ok, row.conns,
                "loss {} jitter {}",
                row.loss_permille, row.jitter_us
            );
        }
    }

    #[test]
    fn rtc_latency_grows_with_loss() {
        let report = run(&tiny(11, 1));
        for row in &report.rtc.rows {
            assert_eq!(row.frames, 8, "all frames delivered and acked");
            assert!(row.p50_us > 0);
        }
        let clean = report
            .rtc
            .rows
            .iter()
            .find(|r| r.loss_permille == 0 && r.jitter_us == 0);
        let lossy = report
            .rtc
            .rows
            .iter()
            .find(|r| r.loss_permille == 50 && r.jitter_us == 0);
        let (clean, lossy) = (clean.expect("row"), lossy.expect("row"));
        assert!(
            lossy.p99_us >= clean.p99_us,
            "p99 under loss ({}) must not beat the clean path ({})",
            lossy.p99_us,
            clean.p99_us
        );
    }

    #[test]
    fn cwnd_events_present_in_rtc_traces() {
        let report = run(&tiny(13, 1));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CwndUpdated { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FrameLatency { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::GoodputSampled { .. })));
    }

    /// The invariance satellite: same seed ⇒ byte-identical tables at any
    /// worker count, under loss.
    #[test]
    fn tables_are_worker_count_invariant_under_loss() {
        let mut cfg = tiny(23, 1);
        cfg.extra_loss_permille = 50;
        cfg.bulk_conns_per_cell = 2;
        cfg.rtc_conns_per_cell = 2;
        let baseline = run(&cfg);
        for workers in [2usize, 4, 8] {
            let mut c = cfg.clone();
            c.workers = workers;
            let r = run(&c);
            assert_eq!(
                baseline.tables(),
                r.tables(),
                "tables diverged at {workers} workers"
            );
            assert_eq!(
                baseline.events, r.events,
                "traces diverged at {workers} workers"
            );
        }
    }
}
