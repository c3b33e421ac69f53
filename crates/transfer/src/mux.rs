//! Production-traffic mux workload: tens of thousands of multiplexed
//! connections against a handful of hosts, driven through a slab-indexed
//! connection table so client memory stays O(active), not O(total).
//!
//! Each connection opens [`MuxConfig::streams_per_conn`] request streams and
//! downloads a bulk object on every one; the server multiplexes the
//! responses through one congestion-controlled sender per connection under
//! the configured [`SchedKind`]. Workers admit connections into a
//! fixed-size [`ConnSlab`] from a shared atomic cursor and drive every
//! occupied slot one round per sweep, so at any instant a worker holds at
//! most [`MuxConfig::active_per_worker`] live connections — the admission
//! window — while the server endpoints shed finished connections through
//! the idle-aware soft cap ([`quic::server::EndpointConfig::max_conns`]).
//!
//! Determinism discipline: every connection owns its own
//! [`simnet::NetShard`], so its virtual clock advances only with its own
//! exchanges (flow-local elapsed), all fault draws are flow-keyed, and the
//! per-host tables aggregate only per-connection outcomes in task order —
//! byte-identical at any worker count, with or without tracing. Server-side
//! eviction never touches a connection that will be heard from again
//! (clients close explicitly; idle means fully served and fully acked), so
//! it is unobservable in the tables.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use h3::request;
use internet::servers::HttpProfile;
use internet::IMPLEMENTATIONS;
use qcodec::Writer;
use quic::server::EndpointConfig;
use quic::{ClientConnection, Frame};
use simnet::addr::Ipv4Addr;
use simnet::{DatagramArena, LinkProfile, NetShard, Network, SocketAddr};
use telemetry::{Event, EventKind, TraceCtx};

use crate::cc::NewReno;
use crate::host::{
    bulk_body_byte, HostOptions, SessionKind, TransferHost, CONN_WINDOW, STREAM_WINDOW,
};
use crate::recv::DataReceiver;
use crate::sched::SchedKind;
use crate::sender::DataSender;
use crate::workload::{client_config, dispatch_packet, drive_handshake, exchange_flight};

/// Safety cap on drive rounds per connection.
const MAX_ROUNDS: usize = 4_096;

// ---------------------------------------------------------------------------
// Connection slab
// ---------------------------------------------------------------------------

/// A fixed-capacity slab of live connections with a free list and
/// generation-stamped slots. Freed slots are reused immediately (newest
/// first), so the table's footprint is the high-water mark of *active*
/// connections — the driver can push a million tasks through a 64-slot
/// slab. Generations count how many connections each slot has hosted;
/// `(slot, generation)` uniquely names a tenancy, and the stats feed the
/// workload report's peak-active figure.
pub struct ConnSlab<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    active: usize,
    peak: usize,
    admitted: u64,
}

impl<T> ConnSlab<T> {
    /// A slab with `capacity` slots, all free.
    pub fn new(capacity: usize) -> Self {
        ConnSlab {
            slots: (0..capacity).map(|_| None).collect(),
            gens: vec![0; capacity],
            free: (0..capacity).rev().collect(),
            active: 0,
            peak: 0,
            admitted: 0,
        }
    }

    /// Occupies a free slot; returns `(slot, generation)` or `None` when
    /// the slab is full.
    pub fn insert(&mut self, value: T) -> Option<(usize, u32)> {
        let slot = self.free.pop()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.slots[slot] = Some(value);
        self.active += 1;
        self.admitted += 1;
        self.peak = self.peak.max(self.active);
        Some((slot, self.gens[slot]))
    }

    /// Frees `slot`, returning its tenant.
    pub fn remove(&mut self, slot: usize) -> Option<T> {
        let value = self.slots[slot].take()?;
        self.active -= 1;
        self.free.push(slot);
        Some(value)
    }

    /// Mutable access to an occupied slot.
    pub fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots[slot].as_mut()
    }

    /// Occupied slots right now.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Most slots simultaneously occupied over the slab's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total connections ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }
}

// ---------------------------------------------------------------------------
// Config and report
// ---------------------------------------------------------------------------

/// Mux sweep configuration.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Total connections to drive.
    pub conns: usize,
    /// Request streams per connection.
    pub streams_per_conn: usize,
    /// Response body bytes per stream.
    pub bytes_per_stream: u64,
    /// Server hosts the connections spread over (task → host = task mod
    /// hosts).
    pub hosts: usize,
    /// Admission window: live connections a worker holds at once.
    pub active_per_worker: usize,
    /// Loss applied to every path (permille).
    pub loss_permille: u32,
    /// Server-side stream scheduling policy.
    pub scheduler: SchedKind,
    /// Batched serving path (GSO flights + coalesced control + range-based
    /// receiver accounting) vs the per-packet baseline.
    pub batched: bool,
    /// Record per-connection telemetry events.
    pub trace: bool,
}

impl MuxConfig {
    /// The acceptance-scale sweep: 10k connections × 4 streams.
    pub fn c10k(seed: u64, workers: usize) -> Self {
        MuxConfig {
            seed,
            workers,
            conns: 10_000,
            streams_per_conn: 4,
            bytes_per_stream: 4_096,
            hosts: 8,
            active_per_worker: 64,
            loss_permille: 0,
            scheduler: SchedKind::RoundRobin,
            batched: true,
            trace: false,
        }
    }

    /// Smoke scale for CI and tests.
    pub fn fast(seed: u64, workers: usize) -> Self {
        MuxConfig {
            seed,
            workers,
            conns: 64,
            streams_per_conn: 2,
            bytes_per_stream: 2_048,
            hosts: 4,
            active_per_worker: 16,
            loss_permille: 0,
            scheduler: SchedKind::RoundRobin,
            batched: true,
            trace: false,
        }
    }

    fn host_opts(&self) -> HostOptions {
        if self.batched {
            HostOptions {
                coalesce_control: true,
                scheduler: self.scheduler,
                per_byte_accounting: false,
            }
        } else {
            HostOptions {
                coalesce_control: false,
                scheduler: self.scheduler,
                per_byte_accounting: true,
            }
        }
    }
}

/// One host's aggregate row (virtual-time figures only, so the table is a
/// worker-invariance artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxHostRow {
    /// Host index.
    pub host: usize,
    /// Connections assigned to this host.
    pub conns: usize,
    /// Connections that validated every response.
    pub ok: usize,
    /// Response-body bytes delivered.
    pub bytes: u64,
    /// Summed flow-local elapsed time (µs).
    pub sum_elapsed_us: u64,
    /// Summed modeled serve-path CPU time (µs, see the cost-model module
    /// comment).
    pub serve_cpu_us: u64,
    /// Serve rate in kbit/s of summed flow-local time.
    pub kbps: u64,
}

/// Everything one mux sweep produced.
#[derive(Debug, Clone)]
pub struct MuxReport {
    /// Per-host rows, host order.
    pub rows: Vec<MuxHostRow>,
    /// Total connections driven.
    pub conns: usize,
    /// Connections that validated every response body.
    pub ok: usize,
    /// Total response-body bytes delivered.
    pub bytes_served: u64,
    /// Summed flow-local elapsed time across connections (µs).
    pub sum_elapsed_us: u64,
    /// Summed modeled serve-path CPU time across connections (µs).
    pub serve_cpu_us: u64,
    /// Serve rate in MB/s of modeled serve-path CPU time — the figure the
    /// batched-vs-per-packet comparison tracks (deterministic, unlike the
    /// wall rate).
    pub mbps_served_model: f64,
    /// Aggregate serve rate in MB/s of *wall* time (not in the tables —
    /// machine-dependent by design).
    pub mbps_served_wall: f64,
    /// Wall-clock sweep duration in milliseconds (not in the tables).
    pub sweep_ms: u64,
    /// Sum of each worker's peak slab occupancy — an upper bound on
    /// simultaneously live client connections (not in the tables: the
    /// admission pattern is worker-count dependent).
    pub peak_active: usize,
    /// Scheduling policy name.
    pub scheduler: &'static str,
    /// Whether the batched serving path was used.
    pub batched: bool,
    /// Telemetry events, task order, then one `HostServeRate` per host.
    pub events: Vec<Event>,
}

impl MuxReport {
    /// Deterministic text table — the worker-invariance artifact. Only
    /// virtual-time quantities appear.
    pub fn tables(&self) -> String {
        let mut s = String::from("# mux serve\n");
        s.push_str("host conns ok bytes sum_elapsed_us serve_cpu_us kbps\n");
        for r in &self.rows {
            s.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                r.host, r.conns, r.ok, r.bytes, r.sum_elapsed_us, r.serve_cpu_us, r.kbps
            ));
        }
        s.push_str(&format!(
            "total {} {} {} {} {} {}\n",
            self.conns,
            self.ok,
            self.bytes_served,
            self.sum_elapsed_us,
            self.serve_cpu_us,
            self.bytes_served * 8_000 / self.sum_elapsed_us.max(1)
        ));
        s
    }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

struct MuxHost {
    addr: SocketAddr,
    name: String,
}

struct MuxTopology {
    net: Network,
    hosts: Vec<MuxHost>,
    rtt_us: u64,
}

fn build_topology(cfg: &MuxConfig) -> MuxTopology {
    let mut net = Network::new(cfg.seed);
    let rtt_us = net.rtt().0;
    let ca = qtls::cert::CertificateAuthority::new("Mux CA", 7);
    let profile = LinkProfile {
        loss_permille: cfg.loss_permille,
        ..LinkProfile::ideal()
    };
    let mut hosts = Vec::new();
    for h in 0..cfg.hosts {
        let ip = Ipv4Addr::new(10, 200, (h >> 8) as u8, 1 + (h & 255) as u8);
        let name = format!("mux-{h}.example");
        let impl_profile = &IMPLEMENTATIONS[h % IMPLEMENTATIONS.len()];
        let http = HttpProfile {
            server_header: impl_profile.server_header.to_string(),
            alt_svc: None,
            extra_headers: vec![],
        };
        let cert = ca.issue(
            h as u64,
            &name,
            vec![name.clone()],
            0,
            999,
            qcrypto::sha256::digest(name.as_bytes()),
        );
        let tls = Arc::new(qtls::ServerConfig {
            alpn: vec![b"h3".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        });
        let endpoint = EndpointConfig::new(tls);
        let host = TransferHost::with_options(
            endpoint,
            http,
            SessionKind::Bulk,
            rtt_us,
            cfg.seed ^ ((h as u64) << 17),
            cfg.host_opts(),
        );
        let addr = SocketAddr::new(simnet::IpAddr::V4(ip), 443);
        net.bind_udp(addr, Box::new(host));
        net.set_path_profile(addr.ip, profile);
        hosts.push(MuxHost { addr, name });
    }
    MuxTopology { net, hosts, rtt_us }
}

// ---------------------------------------------------------------------------
// Per-connection driver
// ---------------------------------------------------------------------------

struct MuxOutcome {
    task: usize,
    ok: bool,
    body_bytes: u64,
    elapsed_us: u64,
    serve_cpu_ns: u64,
    events: Vec<Event>,
}

/// One live mux connection: its own shard (flow-local clock), client
/// connection, data plane, and reusable datagram arena.
struct MuxConn<'net> {
    shard: NetShard<'net>,
    conn: ClientConnection,
    sender: DataSender,
    receiver: DataReceiver,
    arena: DatagramArena,
    ctx: TraceCtx,
    task: usize,
    src: SocketAddr,
    dst: SocketAddr,
    start_us: u64,
    rounds: usize,
    streams: usize,
    bytes_per_stream: u64,
    serve_cpu_ns: u64,
}

// ---------------------------------------------------------------------------
// Serve-path CPU cost model
// ---------------------------------------------------------------------------
//
// Wall-clock on the simulator cannot show what GSO-style batching buys a
// real server: the simulated per-datagram pipeline costs nanoseconds while
// a production network stack charges a syscall plus a kernel traversal per
// datagram. Like the handshake makespan model, the serve rate is therefore
// also reported against a deterministic CPU cost model of the host's
// send/receive path: every datagram pays a crypto cost proportional to its
// size plus a fixed kernel per-datagram cost, and every sendmsg/recvmsg
// boundary pays a syscall cost — once per *flight* on the batched path,
// once per *datagram* on the per-packet baseline. The constants are
// round-number figures in the range measured for Linux UDP sockets
// (~5 µs/syscall, ~2 µs kernel path, ~500 MB/s scalar AEAD); the *ratio*
// between the two paths is what the perf trajectory tracks.
//
// The AEAD constant against this stack's own measurement (qbench ladder,
// 2-core Xeon @ 2.10 GHz, 1200-byte AES-128-GCM seal): 29 ns/byte with the
// byte-wise AES / bit-serial GHASH the model was written beside, 0.42
// ns/byte on the AES-NI + PCLMULQDQ path, 4.5 ns/byte on the portable
// table-driven path (EXPERIMENTS.md, "Packet protection fast path"). 2 ns
// stays: it is a labelled prediction for a scalar server, bracketed by the
// two measured paths, and changing it would move every modelled figure.

/// Syscall entry/exit cost per sendmsg/recvmsg (ns).
const SENDMSG_NS: u64 = 5_000;
/// Kernel network-stack traversal per datagram (ns), paid on both paths.
const PER_DGRAM_NS: u64 = 2_000;
/// AEAD seal/open cost per payload byte (ns), paid on both paths.
const CRYPTO_NS_PER_BYTE: u64 = 2;

/// Modeled CPU cost of moving one flight of `count` datagrams totalling
/// `bytes` across the socket boundary in one direction.
fn seal_path_cpu_ns(batched: bool, count: u64, bytes: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let syscalls = if batched { 1 } else { count };
    bytes * CRYPTO_NS_PER_BYTE + count * PER_DGRAM_NS + syscalls * SENDMSG_NS
}

fn close_payload() -> Vec<u8> {
    let mut w = Writer::with_capacity(16);
    Frame::ConnectionClose {
        error_code: 0,
        frame_type: None,
        reason: "done".to_string(),
        is_app: true,
    }
    .encode(&mut w);
    w.into_vec()
}

impl<'net> MuxConn<'net> {
    /// Handshakes and enqueues every request; `None` when the handshake
    /// could not be confirmed (counted as a failed task).
    fn start(cfg: &MuxConfig, topo: &'net MuxTopology, task: usize) -> Option<Self> {
        let host = &topo.hosts[task % cfg.hosts];
        let src = SocketAddr::new(
            simnet::IpAddr::V4(Ipv4Addr::new(
                100,
                64 + (task >> 16) as u8,
                (task >> 8) as u8,
                (task & 255) as u8,
            )),
            42_000,
        );
        let mut shard = topo.net.shard();
        let mut arena = DatagramArena::new();
        let mut conn =
            ClientConnection::new(client_config(&host.name), cfg.seed ^ 0x9e37 ^ (task as u64) << 1);
        if !drive_handshake(&mut shard, &mut conn, src, host.addr, &mut arena) {
            return None;
        }
        conn.enable_app_frames();
        let start_us = shard.now().0;
        let mut sender = DataSender::new(
            topo.rtt_us,
            CONN_WINDOW,
            STREAM_WINDOW,
            Box::new(NewReno::new()),
        );
        let mut receiver = DataReceiver::new(CONN_WINDOW, STREAM_WINDOW);
        if cfg.batched {
            // The batched path uses the range-based accounting on the
            // client too; the baseline keeps the per-byte loop end to end.
        } else {
            receiver.set_per_byte_accounting(true);
        }
        sender.enqueue(2, &request::client_control_stream(), false);
        for k in 0..cfg.streams_per_conn {
            let id = 4 * k as u64;
            let req = request::encode_request(
                "GET",
                &host.name,
                &format!("/bulk/{}", cfg.bytes_per_stream),
                &[],
            );
            sender.enqueue(id, &req, true);
        }
        Some(MuxConn {
            shard,
            conn,
            sender,
            receiver,
            arena,
            ctx: TraceCtx::new(task as u64, format!("{:?}", host.addr.ip), None),
            task,
            src,
            dst: host.addr,
            start_us,
            rounds: 0,
            streams: cfg.streams_per_conn,
            bytes_per_stream: cfg.bytes_per_stream,
            serve_cpu_ns: 0,
        })
    }

    fn exchange(&mut self, batched: bool) {
        let flight = self.conn.poll_transmit();
        let out_count = flight.len() as u64;
        let out_bytes: u64 = flight.iter().map(|d| d.len() as u64).sum();
        let (in_count, in_bytes) = if batched {
            exchange_flight(
                &mut self.shard,
                self.src,
                self.dst,
                flight,
                &mut self.arena,
                &mut self.conn,
            )
        } else {
            // Per-packet baseline: one endpoint lookup and one service lock
            // per datagram.
            let mut replies = Vec::new();
            for d in &flight {
                self.shard.udp_send_into(self.src, self.dst, d, &mut replies);
            }
            let stats = (replies.len() as u64, replies.iter().map(|r| r.len() as u64).sum());
            for r in &replies {
                self.conn.on_datagram(r);
            }
            for d in flight {
                self.conn.recycle_datagram(d);
            }
            stats
        };
        self.serve_cpu_ns += seal_path_cpu_ns(batched, out_count, out_bytes)
            + seal_path_cpu_ns(batched, in_count, in_bytes);
    }

    fn all_done(&self) -> bool {
        (0..self.streams).all(|k| self.receiver.stream_done(4 * k as u64))
    }

    /// Drives one round; `Some(outcome)` when the connection finished (or
    /// exhausted its round budget).
    fn turn(&mut self, cfg: &MuxConfig) -> Option<MuxOutcome> {
        let now = self.shard.now().0 - self.start_us;
        let mut payloads: Vec<(Vec<u8>, bool)> = Vec::new();
        if let Some(c) = self.receiver.control_payload() {
            payloads.push((c, false));
        }
        for p in self.sender.poll(now) {
            payloads.push((p, true));
        }
        if payloads.is_empty() {
            self.sender.on_silent_round(now);
            payloads.push((self.receiver.keepalive_payload(), false));
        }
        for (payload, from_sender) in payloads {
            let Some(pn) = self.conn.send_app_payload(&payload) else {
                return Some(self.fail());
            };
            if from_sender {
                self.sender.record_sent(pn, payload.len() as u64);
            }
        }
        self.exchange(cfg.batched);
        let now = self.shard.now().0 - self.start_us;
        for pkt in self.conn.take_app_packets() {
            dispatch_packet(pkt.pn, &pkt.frames, &mut self.sender, Some(&mut self.receiver), now);
        }
        self.rounds += 1;
        if self.all_done() {
            return Some(self.finish(cfg));
        }
        if self.rounds >= MAX_ROUNDS {
            return Some(self.fail());
        }
        None
    }

    fn fail(&mut self) -> MuxOutcome {
        MuxOutcome {
            task: self.task,
            ok: false,
            body_bytes: 0,
            elapsed_us: 1,
            serve_cpu_ns: self.serve_cpu_ns,
            events: std::mem::replace(&mut self.ctx, TraceCtx::new(0, String::new(), None))
                .finish(),
        }
    }

    /// Validates every response, sends the final ACK plus an explicit
    /// CONNECTION_CLOSE (so the server may evict immediately), and returns
    /// the outcome.
    fn finish(&mut self, cfg: &MuxConfig) -> MuxOutcome {
        let elapsed_us = (self.shard.now().0 - self.start_us).max(1);
        let mut ok = true;
        let mut body_bytes = 0u64;
        for k in 0..self.streams {
            let id = 4 * k as u64;
            match request::decode_response(self.receiver.stream_data(id)) {
                Some(resp) => {
                    let good = resp.status == 200
                        && resp.body.len() as u64 == self.bytes_per_stream
                        && resp
                            .body
                            .iter()
                            .enumerate()
                            .all(|(i, b)| *b == bulk_body_byte(i as u64));
                    ok &= good;
                    body_bytes += resp.body.len() as u64;
                }
                None => ok = false,
            }
        }
        // Final flight: ACK state for the tail of the transfer, then the
        // close. After this the client never speaks again, which is what
        // makes server-side idle eviction unobservable.
        let mut last = Vec::new();
        if let Some(c) = self.receiver.control_payload() {
            last.push(c);
        }
        last.push(close_payload());
        for payload in last {
            if self.conn.send_app_payload(&payload).is_none() {
                break;
            }
        }
        self.exchange(cfg.batched);
        if cfg.trace {
            self.ctx.advance(elapsed_us);
            self.ctx.record(EventKind::GoodputSampled {
                bytes: body_bytes,
                elapsed_us,
                kbps: body_bytes * 8_000 / elapsed_us,
            });
        }
        MuxOutcome {
            task: self.task,
            ok,
            body_bytes,
            elapsed_us,
            serve_cpu_ns: self.serve_cpu_ns,
            events: std::mem::replace(&mut self.ctx, TraceCtx::new(0, String::new(), None))
                .finish(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep driver
// ---------------------------------------------------------------------------

/// Runs the mux sweep: workers admit connections from a shared cursor into
/// per-worker slabs and drive every occupied slot one round per pass.
pub fn run(cfg: &MuxConfig) -> MuxReport {
    let wall_start = std::time::Instant::now();
    let topo = build_topology(cfg);
    let next = AtomicUsize::new(0);
    let workers = cfg.workers.max(1);
    let window = cfg.active_per_worker.max(1);

    struct WorkerYield {
        outcomes: Vec<MuxOutcome>,
        peak_active: usize,
    }

    let mut yields: Vec<WorkerYield> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let next = &next;
            let topo = &topo;
            handles.push(scope.spawn(move || {
                let mut slab: ConnSlab<MuxConn<'_>> = ConnSlab::new(window);
                let mut outcomes: Vec<MuxOutcome> = Vec::new();
                loop {
                    // Admit until the window is full or tasks run out.
                    while slab.active() < slab.capacity() {
                        let task = next.fetch_add(1, Ordering::Relaxed);
                        if task >= cfg.conns {
                            break;
                        }
                        match MuxConn::start(cfg, topo, task) {
                            Some(conn) => {
                                slab.insert(conn);
                            }
                            None => outcomes.push(MuxOutcome {
                                task,
                                ok: false,
                                body_bytes: 0,
                                elapsed_us: 1,
                                serve_cpu_ns: 0,
                                events: Vec::new(),
                            }),
                        }
                    }
                    if slab.is_empty() {
                        break;
                    }
                    // One round per occupied slot, slot order.
                    for slot in 0..slab.capacity() {
                        let Some(conn) = slab.get_mut(slot) else { continue };
                        if let Some(outcome) = conn.turn(cfg) {
                            outcomes.push(outcome);
                            slab.remove(slot);
                        }
                    }
                }
                WorkerYield { outcomes, peak_active: slab.peak() }
            }));
        }
        for h in handles {
            yields.push(h.join().expect("mux worker panicked"));
        }
    });

    let peak_active: usize = yields.iter().map(|y| y.peak_active).sum();
    let mut outcomes: Vec<MuxOutcome> =
        yields.into_iter().flat_map(|y| y.outcomes).collect();
    outcomes.sort_by_key(|o| o.task);

    // Per-host aggregation (host = task mod hosts), then totals.
    let mut rows: Vec<MuxHostRow> = (0..cfg.hosts)
        .map(|host| MuxHostRow {
            host,
            conns: 0,
            ok: 0,
            bytes: 0,
            sum_elapsed_us: 0,
            serve_cpu_us: 0,
            kbps: 0,
        })
        .collect();
    for o in &outcomes {
        let row = &mut rows[o.task % cfg.hosts];
        row.conns += 1;
        row.ok += usize::from(o.ok);
        row.bytes += o.body_bytes;
        row.sum_elapsed_us += o.elapsed_us;
        // Accumulated in ns, converted below once the host total is known.
        row.serve_cpu_us += o.serve_cpu_ns;
    }
    for r in &mut rows {
        r.serve_cpu_us /= 1_000;
        r.kbps = r.bytes * 8_000 / r.sum_elapsed_us.max(1);
    }
    let conns = outcomes.len();
    let ok = outcomes.iter().filter(|o| o.ok).count();
    let bytes_served: u64 = outcomes.iter().map(|o| o.body_bytes).sum();
    let sum_elapsed_us: u64 = outcomes.iter().map(|o| o.elapsed_us).sum();
    let serve_cpu_us: u64 = outcomes.iter().map(|o| o.serve_cpu_ns).sum::<u64>() / 1_000;

    let mut events: Vec<Event> = Vec::new();
    for o in &mut outcomes {
        events.append(&mut o.events);
    }
    for r in &rows {
        events.push(Event {
            t_us: 0,
            flow: r.host as u64,
            seq: 0,
            target: format!("{:?}", topo.hosts[r.host].addr.ip),
            week: None,
            kind: EventKind::HostServeRate {
                conns: r.conns as u64,
                bytes: r.bytes,
                kbps: r.kbps,
            },
        });
    }

    let sweep_ms = wall_start.elapsed().as_millis().max(1) as u64;
    MuxReport {
        rows,
        conns,
        ok,
        bytes_served,
        sum_elapsed_us,
        serve_cpu_us,
        mbps_served_model: bytes_served as f64 / serve_cpu_us.max(1) as f64,
        mbps_served_wall: bytes_served as f64 / 1e6 / (sweep_ms as f64 / 1e3),
        sweep_ms,
        peak_active,
        scheduler: cfg.scheduler.name(),
        batched: cfg.batched,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_slots_and_tracks_peak() {
        let mut slab: ConnSlab<u32> = ConnSlab::new(2);
        let (s0, g0) = slab.insert(10).expect("slot");
        let (s1, _) = slab.insert(11).expect("slot");
        assert!(slab.insert(12).is_none(), "full");
        assert_eq!((slab.active(), slab.peak()), (2, 2));
        assert_eq!(slab.remove(s0), Some(10));
        // Freed slot comes back with a bumped generation.
        let (s2, g2) = slab.insert(13).expect("slot");
        assert_eq!(s2, s0);
        assert!(g2 > g0, "generation advances on reuse");
        assert_eq!(slab.remove(s1), Some(11));
        assert_eq!(slab.remove(s2), Some(13));
        assert!(slab.is_empty());
        assert_eq!((slab.peak(), slab.admitted()), (2, 3));
    }

    #[test]
    fn mux_sweep_completes_and_serves_every_stream() {
        let mut cfg = MuxConfig::fast(5, 2);
        cfg.conns = 24;
        let report = run(&cfg);
        assert_eq!(report.conns, 24);
        assert_eq!(report.ok, 24, "every connection validates all responses");
        assert_eq!(
            report.bytes_served,
            24 * cfg.streams_per_conn as u64 * cfg.bytes_per_stream
        );
        assert!(report.sum_elapsed_us > 0);
        assert_eq!(report.rows.len(), cfg.hosts);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::HostServeRate { .. })));
    }

    #[test]
    fn per_packet_baseline_serves_identical_bytes() {
        let mut batched = MuxConfig::fast(9, 2);
        batched.conns = 12;
        let mut baseline = batched.clone();
        baseline.batched = false;
        baseline.scheduler = SchedKind::IdOrder;
        let a = run(&batched);
        let b = run(&baseline);
        assert_eq!(a.ok, 12);
        assert_eq!(b.ok, 12);
        assert_eq!(a.bytes_served, b.bytes_served, "both modes serve the same payload");
    }

    #[test]
    fn strict_priority_sweep_completes() {
        let mut cfg = MuxConfig::fast(17, 2);
        cfg.conns = 8;
        cfg.streams_per_conn = 4;
        cfg.scheduler = SchedKind::StrictPriority;
        let report = run(&cfg);
        assert_eq!(report.ok, 8, "priority scheduling starves nothing");
    }
}
