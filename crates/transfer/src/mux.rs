//! Production-traffic mux workload: tens of thousands of multiplexed
//! connections against a handful of hosts, driven through a bounded window
//! of live connections so client memory stays O(active), not O(total) —
//! and O(active × flow-control window), not O(active × body): the client
//! reads every response as it arrives, and the server generates the bytes
//! it serves from their offset.
//!
//! Each connection opens [`MuxConfig::streams_per_conn`] request streams and
//! downloads a bulk object on every one; the server multiplexes the
//! responses through one congestion-controlled sender per connection under
//! the configured [`SchedKind`]. Workers admit connections into their
//! window from the shared cursor of [`simnet::fan_out_pulled`] and drive
//! every live connection one round per pass, so at any instant a worker
//! holds at most [`MuxConfig::active_per_worker`] of them, while the server
//! endpoints shed finished connections through the idle-aware soft cap
//! ([`quic::server::DEFAULT_MAX_CONNS`]).
//!
//! The connection itself — handshake, control stream, one `GET /bulk/<n>`
//! per stream, the poll → seal → exchange → dispatch → read round, final
//! ACK + CONNECTION_CLOSE — is the crate's only HTTP/3 download client: the
//! PEMI grid's bulk rows ([`crate::workload`]) are this client with one
//! stream, driven to completion. Each round drains every response stream's
//! newly contiguous bytes into an incremental [`ResponseReader`] whose DATA
//! payload `host::is_bulk_body` compares, every byte of it, with the body at
//! its offset, a 256-byte run at a time; so what a connection holds is its
//! unread window, and the verdict at the end (status 200, the exact length,
//! every byte, a stream ending on a frame boundary) is the one a whole-body
//! decode would give. Data past a limit the client advertised closes the
//! connection with FLOW_CONTROL_ERROR.
//!
//! Determinism discipline: every connection owns its own
//! [`simnet::NetShard`], so its virtual clock advances only with its own
//! exchanges (flow-local elapsed), all fault draws are flow-keyed, and the
//! per-host tables aggregate only per-connection outcomes in task order —
//! byte-identical at any worker count, with or without tracing. Server-side
//! eviction never touches a connection that will be heard from again
//! (clients close explicitly; idle means fully served and fully acked), so
//! it is unobservable in the tables.

use h3::request::{self, ResponseReader};
use quic::{ClientConnection, Frame, Frames};
use simnet::addr::Ipv4Addr;
use simnet::{fan_out_pulled, LinkProfile, NetShard, Network, SocketAddr, StealQueue};
use telemetry::{Event, EventKind, TraceCtx};

use crate::host::{
    bind_transfer_host, is_bulk_body, BoundHost, HostOptions, SessionKind, CONN_WINDOW,
    STREAM_WINDOW,
};
use crate::recv::DataReceiver;
use crate::sched::SchedKind;
use crate::sender::DataSender;
use crate::workload::{client_config, dispatch_packet, drive_handshake, Scratch};

/// Safety cap on drive rounds per connection.
const MAX_ROUNDS: usize = 4_096;

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
    /// Batched serving path (GSO-style client flights + coalesced server
    /// control) vs the per-packet baseline. Receiver accounting is the same
    /// on both.
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
            conns: 64,
            streams_per_conn: 2,
            bytes_per_stream: 2_048,
            hosts: 4,
            active_per_worker: 16,
            ..Self::c10k(seed, workers)
        }
    }

    /// What [`MuxConfig::batched`] means on the server: coalesced control,
    /// or not (the per-packet baseline).
    fn host_opts(&self) -> HostOptions {
        HostOptions {
            coalesce_control: self.batched,
            scheduler: self.scheduler,
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
    /// Sum of each worker's peak window occupancy — an upper bound on
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

struct MuxTopology {
    net: Network,
    hosts: Vec<BoundHost>,
}

fn build_topology(cfg: &MuxConfig) -> MuxTopology {
    let mut net = Network::new(cfg.seed);
    let ca = qtls::cert::CertificateAuthority::new("Mux CA", 7);
    let profile = LinkProfile {
        loss_permille: cfg.loss_permille,
        ..LinkProfile::ideal()
    };
    let hosts = (0..cfg.hosts)
        .map(|h| {
            bind_transfer_host(
                &mut net,
                &ca,
                h as u64,
                format!("mux-{h}.example"),
                Ipv4Addr::new(10, 200, (h >> 8) as u8, 1 + (h & 255) as u8),
                SessionKind::Bulk,
                cfg.host_opts(),
                profile,
                cfg.seed,
            )
        })
        .collect();
    MuxTopology { net, hosts }
}

// ---------------------------------------------------------------------------
// Per-connection driver
// ---------------------------------------------------------------------------

/// What one download connection is told: where, as whom, and how much.
#[derive(Clone, Copy)]
pub(crate) struct Download<'net> {
    pub(crate) net: &'net Network,
    pub(crate) host: &'net BoundHost,
    /// Client source address (unique per task, so flows never share fault
    /// draws or server connection slots).
    pub(crate) src: SocketAddr,
    /// Client connection seed.
    pub(crate) seed: u64,
    /// Task index: the trace flow id and the outcome's merge key.
    pub(crate) task: usize,
    /// Request streams (ids 0, 4, 8, …), each a `GET /bulk/<bytes_per_stream>`.
    pub(crate) streams: usize,
    pub(crate) bytes_per_stream: u64,
    /// GSO-style flights vs one send per datagram, the per-packet baseline
    /// ([`MuxConfig::batched`]).
    pub(crate) batched: bool,
    /// Record the connection's goodput sample.
    pub(crate) trace: bool,
}

/// How one download ended.
pub(crate) struct MuxOutcome {
    pub(crate) task: usize,
    /// Every response arrived with status 200 and the expected body.
    pub(crate) ok: bool,
    pub(crate) body_bytes: u64,
    /// Flow-local virtual time from handshake confirmation to the last
    /// response byte (1 for a failed connection).
    pub(crate) elapsed_us: u64,
    serve_cpu_ns: u64,
    pub(crate) events: Vec<Event>,
}

/// One live download connection: its own shard (flow-local clock), client
/// connection and data plane. The buffers a turn sends and receives
/// through are the worker's [`Scratch`], lent to each turn.
pub(crate) struct MuxConn<'net> {
    spec: Download<'net>,
    shard: NetShard<'net>,
    conn: ClientConnection,
    sender: DataSender,
    receiver: DataReceiver,
    /// One per request stream, in stream order.
    responses: Vec<ResponseCheck>,
    ctx: TraceCtx,
    start_us: u64,
    rounds: usize,
    serve_cpu_ns: u64,
}

/// One response read as it arrives: its HTTP/3 reader, and whether every
/// body byte so far is the bulk body's byte at its offset.
struct ResponseCheck {
    reader: ResponseReader,
    body_matches: bool,
}

impl Default for ResponseCheck {
    fn default() -> Self {
        ResponseCheck {
            reader: ResponseReader::new(),
            body_matches: true,
        }
    }
}

impl ResponseCheck {
    /// Reads the next bytes of the stream; a malformed one fails the
    /// reader, and [`ResponseReader::finish`] reports it.
    fn feed(&mut self, bytes: &[u8]) {
        let mut at = self.reader.body_len();
        let matches = &mut self.body_matches;
        let _ = self.reader.feed(bytes, |body| {
            *matches &= is_bulk_body(body, at);
            at += body.len() as u64;
        });
    }
}

// ---------------------------------------------------------------------------
// Serve-path CPU cost model
// ---------------------------------------------------------------------------
//
// Wall-clock on the simulator cannot show what GSO-style batching buys a
// real server: the simulated per-datagram pipeline costs nanoseconds while
// a production network stack charges a syscall plus a kernel traversal per
// datagram. The serve rate is therefore also reported against a
// deterministic CPU cost model of the host's send/receive path: every
// datagram pays a crypto cost proportional to its size plus a fixed
// kernel per-datagram cost, and every sendmsg/recvmsg
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

/// The application CONNECTION_CLOSE a finished download ends with.
const CLOSE: Frame<'static> = Frame::ConnectionClose {
    error_code: 0,
    frame_type: None,
    reason: b"done",
    is_app: true,
};

impl<'net> MuxConn<'net> {
    /// Handshakes and enqueues every request; `Err` with the failed outcome
    /// when the handshake could not be confirmed.
    pub(crate) fn start(spec: Download<'net>, scratch: &mut Scratch) -> Result<Self, MuxOutcome> {
        let host = spec.host;
        let rtt_us = spec.net.rtt().0;
        let mut this = MuxConn {
            spec,
            shard: spec.net.shard(),
            conn: ClientConnection::new(client_config(&host.name), spec.seed),
            sender: DataSender::new(rtt_us, CONN_WINDOW, STREAM_WINDOW, SchedKind::IdOrder),
            receiver: DataReceiver::new(CONN_WINDOW, STREAM_WINDOW),
            responses: (0..spec.streams)
                .map(|_| ResponseCheck::default())
                .collect(),
            ctx: TraceCtx::new(spec.task as u64, format!("{:?}", host.addr.ip), None),
            start_us: 0,
            rounds: 0,
            serve_cpu_ns: 0,
        };
        let (shard, conn) = (&mut this.shard, &mut this.conn);
        if !drive_handshake(shard, conn, spec.src, host.addr, scratch) {
            return Err(this.fail());
        }
        // Elapsed time counts from handshake confirmation.
        this.start_us = this.shard.now().0;
        // HTTP/3 over the data plane: control stream + one GET per stream.
        this.sender
            .enqueue(2, &request::client_control_stream(), false);
        let path = format!("/bulk/{}", spec.bytes_per_stream);
        for k in 0..spec.streams {
            let req = request::encode_request("GET", &host.name, &path, &[]);
            this.sender.enqueue(4 * k as u64, &req, true);
        }
        Ok(this)
    }

    /// [`MuxConn::start`], then [`MuxConn::turn`] until the connection ends.
    pub(crate) fn run(spec: Download<'net>, scratch: &mut Scratch) -> MuxOutcome {
        match Self::start(spec, scratch) {
            Ok(mut conn) => loop {
                if let Some(outcome) = conn.turn(scratch) {
                    return outcome;
                }
            },
            Err(failed) => failed,
        }
    }

    /// Sends the scratch's flight, then hands every 1-RTT packet of the
    /// replies to the data plane: ACKs and window grants to the sender,
    /// stream data to the receiver. False when the receiver refused one
    /// (data past a limit the client advertised): the connection then
    /// closes with the error, and queues the close.
    fn exchange(&mut self, scratch: &mut Scratch) -> bool {
        let (src, dst, batched) = (self.spec.src, self.spec.host.addr, self.spec.batched);
        let out_count = scratch.flight.len() as u64;
        let out_bytes = scratch.flight.total_len() as u64;
        scratch.replies.clear();
        if batched {
            // The client reads every reply: its receive buffer has no bound.
            let _ = self.shard.udp_send_flight(
                src,
                dst,
                &scratch.flight,
                &mut scratch.replies,
                usize::MAX,
            );
        } else {
            // Per-packet baseline: one endpoint lookup and one service lock
            // per datagram.
            for d in scratch.flight.iter() {
                let _ = self
                    .shard
                    .udp_send_status(src, dst, d, &mut scratch.replies, None);
            }
        }
        scratch.flight.clear();
        let in_count = scratch.replies.len() as u64;
        let in_bytes = scratch.replies.total_len() as u64;
        self.serve_cpu_ns += seal_path_cpu_ns(batched, out_count, out_bytes)
            + seal_path_cpu_ns(batched, in_count, in_bytes);

        let now = self.shard.now().0 - self.start_us;
        let (sender, receiver) = (&mut self.sender, &mut self.receiver);
        let mut refused = false;
        let mut data_plane = |pn: u64, frames: Frames<'_>| {
            dispatch_packet(frames, sender, now);
            let received = receiver.on_packet(pn, frames);
            refused |= received.is_err();
            received
        };
        for reply in scratch.replies.iter() {
            self.conn
                .on_datagram_with(reply, &mut scratch.open, &mut data_plane);
        }
        !refused
    }

    /// Seals this turn's packets into the flight: what the connection
    /// queued, the receiver's ACK and window grants, then what the sender
    /// has room for — or, when that is nothing, a keepalive (PING + full
    /// ACK/grant state, so a lost window extension is healed) after a run
    /// of the sender's PTO counter. False when the connection refused to
    /// seal (it is closed).
    fn seal_turn(&mut self, scratch: &mut Scratch, now: u64) -> bool {
        scratch.flight.clear();
        scratch.take_queued(&mut self.conn);
        let (flight, payload, conn) = (&mut scratch.flight, &mut scratch.payload, &mut self.conn);
        let mut seal = |frames: &[u8]| flight.push_with(|buf| conn.seal_app_payload(frames, buf));
        payload.clear();
        let mut sent = 0;
        if self.receiver.control_into(payload) {
            if seal(payload.as_slice()).is_none() {
                return false;
            }
            payload.clear();
            sent += 1;
        }
        match self.sender.poll(now, payload, &mut seal) {
            Some(n) => sent += n,
            None => return false,
        }
        if sent == 0 {
            // Idle with a response incomplete: probe the server.
            self.sender.on_silent_round(now);
            self.receiver.keepalive_into(payload);
            return seal(payload.as_slice()).is_some();
        }
        true
    }

    /// Feeds each response stream's newly contiguous bytes to its check and
    /// drops them from the receiver, so the connection holds its unread
    /// window and nothing more.
    fn read_responses(&mut self) {
        for (k, check) in self.responses.iter_mut().enumerate() {
            let id = 4 * k as u64;
            let bytes = self.receiver.read(id);
            if bytes.is_empty() {
                continue;
            }
            check.feed(bytes);
            let n = bytes.len();
            self.receiver.consume(id, n);
        }
    }

    fn all_done(&self) -> bool {
        (0..self.spec.streams).all(|k| self.receiver.stream_done(4 * k as u64))
    }

    /// Drives one round; `Some(outcome)` when the connection finished (or
    /// exhausted its round budget).
    pub(crate) fn turn(&mut self, scratch: &mut Scratch) -> Option<MuxOutcome> {
        let now = self.shard.now().0 - self.start_us;
        if !self.seal_turn(scratch, now) {
            scratch.flight.clear();
            return Some(self.fail());
        }
        if !self.exchange(scratch) {
            // RFC 9000 §4.1: the server sent past a limit we advertised.
            // The connection closed with the error; send the close.
            scratch.take_queued(&mut self.conn);
            self.exchange(scratch);
            return Some(self.fail());
        }
        self.read_responses();
        self.rounds += 1;
        if self.all_done() {
            return Some(self.finish(scratch));
        }
        if self.rounds >= MAX_ROUNDS {
            return Some(self.fail());
        }
        None
    }

    fn outcome(&mut self, ok: bool, body_bytes: u64, elapsed_us: u64) -> MuxOutcome {
        let ctx = std::mem::replace(&mut self.ctx, TraceCtx::new(0, String::new(), None));
        MuxOutcome {
            task: self.spec.task,
            ok,
            body_bytes,
            elapsed_us,
            serve_cpu_ns: self.serve_cpu_ns,
            events: ctx.finish(),
        }
    }

    fn fail(&mut self) -> MuxOutcome {
        self.outcome(false, 0, 1)
    }

    /// Validates every response, sends the final ACK plus an explicit
    /// CONNECTION_CLOSE (so the server may evict immediately), and returns
    /// the outcome.
    fn finish(&mut self, scratch: &mut Scratch) -> MuxOutcome {
        let elapsed_us = (self.shard.now().0 - self.start_us).max(1);
        let mut ok = true;
        let mut body_bytes = 0u64;
        for check in std::mem::take(&mut self.responses) {
            let body_len = check.reader.body_len();
            match check.reader.finish() {
                Some(resp) => {
                    ok &= resp.status == 200
                        && body_len == self.spec.bytes_per_stream
                        && check.body_matches;
                    body_bytes += body_len;
                }
                None => ok = false,
            }
        }
        // Final flight: ACK state for the tail of the transfer, then the
        // close. After this the client never speaks again, which is what
        // makes server-side idle eviction unobservable.
        scratch.flight.clear();
        scratch.take_queued(&mut self.conn);
        let (flight, payload, conn) = (&mut scratch.flight, &mut scratch.payload, &mut self.conn);
        let mut seal = |frames: &[u8]| flight.push_with(|buf| conn.seal_app_payload(frames, buf));
        payload.clear();
        let sealed = !self.receiver.control_into(payload) || seal(payload.as_slice()).is_some();
        if sealed {
            payload.clear();
            CLOSE.encode(payload);
            seal(payload.as_slice());
        }
        self.exchange(scratch);
        if self.spec.trace {
            self.ctx.advance(elapsed_us);
            self.ctx.record(EventKind::GoodputSampled {
                bytes: body_bytes,
                elapsed_us,
                kbps: body_bytes * 8_000 / elapsed_us,
            });
        }
        self.outcome(ok, body_bytes, elapsed_us)
    }
}

// ---------------------------------------------------------------------------
// Sweep driver
// ---------------------------------------------------------------------------

impl MuxConfig {
    /// Connection number `task` of this sweep against `topo`.
    fn download<'net>(&self, topo: &'net MuxTopology, task: usize) -> Download<'net> {
        let src = SocketAddr::new(
            simnet::IpAddr::V4(Ipv4Addr::new(
                100,
                64 + (task >> 16) as u8,
                (task >> 8) as u8,
                (task & 255) as u8,
            )),
            42_000,
        );
        Download {
            net: &topo.net,
            host: &topo.hosts[task % self.hosts],
            src,
            seed: self.seed ^ 0x9e37 ^ (task as u64) << 1,
            task,
            streams: self.streams_per_conn,
            bytes_per_stream: self.bytes_per_stream,
            batched: self.batched,
            trace: self.trace,
        }
    }
}

/// Runs the mux sweep on [`simnet::fan_out_pulled`]. Each worker keeps a
/// window — a `Vec` of at most [`MuxConfig::active_per_worker`] live
/// connections — which it tops up one claimed task at a time and then drives
/// one round per connection, until the tasks run out and the window has
/// drained. A finished connection's place is taken by the window's last
/// (`swap_remove`): which position a connection holds only orders turns
/// between connections whose clocks, fault draws and outcomes are flow-local.
pub fn run(cfg: &MuxConfig) -> MuxReport {
    let wall_start = std::time::Instant::now();
    let topo = build_topology(cfg);
    let cap = cfg.active_per_worker.max(1);

    // One worker; returns its window's high-water mark.
    let drive_window = |tasks: &StealQueue, outcomes: &mut Vec<(usize, MuxOutcome)>| {
        let mut window: Vec<MuxConn<'_>> = Vec::with_capacity(cap);
        let mut scratch = Scratch::default();
        let mut peak = 0;
        loop {
            // Admit until the window is full or tasks run out.
            while window.len() < cap {
                let Some(task) = tasks.claim_one() else { break };
                match MuxConn::start(cfg.download(&topo, task), &mut scratch) {
                    Ok(conn) => window.push(conn),
                    Err(failed) => outcomes.push((task, failed)),
                }
            }
            peak = peak.max(window.len());
            if window.is_empty() {
                break;
            }
            // One round per live connection.
            let mut i = 0;
            while i < window.len() {
                match window[i].turn(&mut scratch) {
                    Some(outcome) => {
                        outcomes.push((outcome.task, outcome));
                        window.swap_remove(i);
                    }
                    None => i += 1,
                }
            }
        }
        peak
    };
    let (mut outcomes, windows) = fan_out_pulled(cfg.conns, cfg.workers, drive_window);
    let peak_active: usize = windows.iter().map(|(peak, _)| peak).sum();

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

    /// The window on `run` itself: never more live connections than
    /// `workers × active_per_worker`, and the tables do not depend on how
    /// connections were spread over windows.
    #[test]
    fn window_bounds_live_connections_and_leaves_tables_alone() {
        let mut cfg = MuxConfig::fast(21, 1);
        cfg.conns = 40;
        cfg.active_per_worker = 3;
        let one = run(&cfg);
        assert_eq!(one.ok, 40);
        assert_eq!(
            one.peak_active, 3,
            "one worker fills its window and no more"
        );
        cfg.workers = 4;
        let four = run(&cfg);
        assert!(
            (1..=12).contains(&four.peak_active),
            "peak {}",
            four.peak_active
        );
        assert_eq!(one.tables(), four.tables());
    }

    /// A connection whose handshake fails never enters a window, and still
    /// yields one failed outcome at its task index: with every datagram
    /// lost, each host's row counts exactly the tasks assigned to it.
    #[test]
    fn failed_handshakes_are_counted_at_their_task_index() {
        let mut cfg = MuxConfig::fast(22, 1);
        cfg.conns = 10;
        cfg.loss_permille = 1_000;
        let one = run(&cfg);
        assert_eq!(
            (one.conns, one.ok, one.bytes_served, one.peak_active),
            (10, 0, 0, 0)
        );
        let per_host: Vec<usize> = one.rows.iter().map(|r| r.conns).collect();
        assert_eq!(per_host, [3, 3, 2, 2], "task mod hosts");
        assert_eq!(one.sum_elapsed_us, 10, "a failed connection counts 1 µs");
        cfg.workers = 4;
        assert_eq!(one.tables(), run(&cfg).tables());
    }

    // -- RFC 9000 §13.1 and §4.1 mid-transfer, on both sides --------------

    use crate::host::BulkSession;
    use internet::servers::QuicHost;
    use qcodec::Writer;
    use quic::server::{AppSession, EndpointConfig};
    use quic::Seal;
    use std::sync::{Arc, Mutex};

    /// A `BulkSession` the test can look into — and that turns hostile on
    /// request: a packet carrying nothing but a PING (no honest client
    /// sends one; a keepalive carries ACK state and grants too) is answered
    /// with the `hostile` payload instead of being served.
    struct Watched {
        inner: Arc<Mutex<BulkSession>>,
        hostile: Option<fn() -> Vec<u8>>,
    }

    impl AppSession for Watched {
        fn on_app_packet(
            &mut self,
            pn: u64,
            frames: Frames<'_>,
            seal: &mut Seal<'_>,
        ) -> Result<(), quic::ConnectionError> {
            if let Some(forge) = self.hostile {
                if frames.iter().eq([Frame::Ping]) {
                    seal(&forge());
                    return Ok(());
                }
            }
            self.inner
                .lock()
                .expect("session lock")
                .on_app_packet(pn, frames, seal)
        }
    }

    /// Six bytes that used to cost 2⁶² loop iterations: `ACK [0, 2⁶²−1]`.
    fn forged_ack() -> Vec<u8> {
        let mut w = Writer::new();
        Frame::encode_ack_single(&mut w, (1u64 << 62) - 1, 0);
        w.into_vec()
    }

    /// Sends `payload` from the client as one packet of its own, right
    /// away, and hands the replies to the data plane.
    fn send_now(conn: &mut MuxConn<'_>, scratch: &mut Scratch, payload: &[u8]) -> bool {
        conn.conn.send_app_payload(payload).expect("established");
        scratch.take_queued(&mut conn.conn);
        conn.exchange(scratch)
    }

    /// Two bytes on stream 0 at offset 2⁶² − 2, far past every limit
    /// either side advertises: a receiver that sized its buffer to the
    /// frame's end would ask for exabytes.
    fn stream_past_the_limit() -> Vec<u8> {
        let mut w = Writer::new();
        Frame::encode_stream(&mut w, 0, (1 << 62) - 2, false, &[0x5a; 2]);
        w.into_vec()
    }

    /// One host on a clean path whose (single) connection's session is
    /// returned alongside.
    fn watched_topology(
        hostile: Option<fn() -> Vec<u8>>,
    ) -> (MuxTopology, Arc<Mutex<BulkSession>>) {
        let mut net = Network::new(77);
        let name = "watched.example".to_string();
        let ca = qtls::cert::CertificateAuthority::new("Mux CA", 7);
        let cert = ca.issue(0, &name, vec![name.clone()], 0, 999, [3; 32]);
        let tls = Arc::new(qtls::ServerConfig {
            alpn: vec![b"h3".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        });
        let http = internet::servers::HttpProfile {
            server_header: "watched".to_string(),
            alt_svc: None,
            extra_headers: vec![],
        };
        let opts = MuxConfig::fast(77, 1).host_opts();
        let session = Arc::new(Mutex::new(BulkSession::new(
            Arc::new(http),
            net.rtt().0,
            opts,
        )));
        let inner = Arc::clone(&session);
        let factory = move || {
            let inner = Arc::clone(&inner);
            Box::new(Watched { inner, hostile }) as Box<dyn AppSession>
        };
        let host = QuicHost::with_sessions(EndpointConfig::new(tls), 5, Box::new(factory));
        let addr = SocketAddr::new(simnet::IpAddr::V4(Ipv4Addr::new(10, 200, 0, 1)), 443);
        net.bind_udp(addr, Box::new(host));
        (
            MuxTopology {
                net,
                hosts: vec![BoundHost { addr, name }],
            },
            session,
        )
    }

    /// What a forged ACK must leave alone: packets in flight, the window,
    /// every queued retransmission.
    fn sender_state(s: &DataSender) -> (usize, u64, Vec<(u64, u64, u64)>) {
        (s.in_flight_count(), s.cc().cwnd(), s.retransmit_spans())
    }

    /// A 1 MB download, six rounds in.
    fn mid_transfer<'t>(topo: &'t MuxTopology, scratch: &mut Scratch) -> MuxConn<'t> {
        let mut cfg = MuxConfig::fast(77, 1);
        cfg.hosts = 1;
        cfg.streams_per_conn = 1;
        cfg.bytes_per_stream = 1_000_000;
        let mut conn = MuxConn::start(cfg.download(topo, 0), scratch)
            .ok()
            .expect("handshake");
        for _ in 0..6 {
            assert!(conn.turn(scratch).is_none(), "still downloading");
        }
        conn
    }

    #[test]
    fn forged_ack_mid_transfer_closes_the_server_side_and_touches_nothing() {
        let (topo, session) = watched_topology(None);
        let scratch = &mut Scratch::default();
        let mut conn = mid_transfer(&topo, scratch);
        let before = sender_state(session.lock().unwrap().sender());
        assert!(before.0 > 0, "the server has response packets in flight");

        send_now(&mut conn, scratch, &forged_ack()); // returns: nothing walks the span
        assert_eq!(sender_state(session.lock().unwrap().sender()), before);
        // The server answered with its close, which ends the client too.
        assert_eq!(conn.conn.state(), &quic::ConnectionState::Closed);
        let outcome = conn
            .turn(scratch)
            .expect("a closed connection is a finished one");
        assert!(!outcome.ok);
        assert_eq!(sender_state(session.lock().unwrap().sender()), before);
    }

    #[test]
    fn forged_ack_mid_transfer_closes_the_client_side_and_touches_nothing() {
        let (topo, _session) = watched_topology(Some(forged_ack));
        let scratch = &mut Scratch::default();
        let mut conn = mid_transfer(&topo, scratch);
        // Give the client's sender something to lose: a request flight
        // sealed, recorded, and dropped on the way.
        conn.sender.enqueue(40, &[0x5a; 5_000], true);
        let now = conn.shard.now().0 - conn.start_us;
        let client = &mut conn.conn;
        conn.sender
            .poll(now, &mut Writer::new(), &mut |p| client.send_app_payload(p))
            .expect("established");
        drop(conn.conn.poll_transmit());
        let before = sender_state(&conn.sender);
        assert!(before.0 > 0, "the client has request packets in flight");

        // The hostile session answers the PING with the forged ACK, which
        // reaches nothing of the data plane.
        assert!(send_now(&mut conn, scratch, &[0x01]));
        assert_eq!(conn.conn.state(), &quic::ConnectionState::Closed);
        assert_eq!(sender_state(&conn.sender), before);
        let outcome = conn
            .turn(scratch)
            .expect("a closed connection is a finished one");
        assert!(!outcome.ok);
    }

    #[test]
    fn stream_past_the_limit_mid_transfer_closes_the_server_side() {
        let (topo, session) = watched_topology(None);
        let scratch = &mut Scratch::default();
        let mut conn = mid_transfer(&topo, scratch);
        let held = |session: &Mutex<BulkSession>| {
            let session = session.lock().unwrap();
            (
                sender_state(session.sender()),
                session.receiver().peak_held(),
            )
        };
        let before = held(&session);

        // Returns: nothing is sized to the frame's end.
        send_now(&mut conn, scratch, &stream_past_the_limit());
        assert_eq!(held(&session), before);
        // The server answered with its close, which ends the client too.
        assert_eq!(conn.conn.state(), &quic::ConnectionState::Closed);
        let outcome = conn
            .turn(scratch)
            .expect("a closed connection is a finished one");
        assert!(!outcome.ok);
    }

    #[test]
    fn stream_past_the_limit_mid_transfer_closes_the_client_side() {
        let (topo, _session) = watched_topology(Some(stream_past_the_limit));
        let scratch = &mut Scratch::default();
        let mut conn = mid_transfer(&topo, scratch);
        let held = conn.receiver.peak_held();

        // The hostile session answers the PING with the frame, which the
        // data plane refuses: the connection closes with the error.
        assert!(!send_now(&mut conn, scratch, &[0x01]));
        assert_eq!(conn.conn.state(), &quic::ConnectionState::Closed);
        let close = conn.conn.poll_transmit();
        assert_eq!(close.len(), 1, "the close, queued");
        let outcome = conn
            .turn(scratch)
            .expect("a closed connection is a finished one");
        assert!(!outcome.ok);
        let (buffered, limit, read_offset) = conn.receiver.window(0);
        assert!(buffered <= limit - read_offset);
        assert!(conn.receiver.peak_held() <= held + CONN_WINDOW);
    }

    /// The O(window) contract: one stream downloaded at 20 ‰ loss holds
    /// the same bounded bytes at 8 MB as at 1 MB — the server's source
    /// bytes within the connection window, the client's buffer within two
    /// stream windows — and after every turn the client's buffer is within
    /// the limit it advertised minus its read offset.
    #[test]
    fn a_download_holds_a_window_not_its_body() {
        let held = |bytes: u64| {
            let (mut topo, session) = watched_topology(None);
            topo.net
                .set_path_profile(topo.hosts[0].addr.ip, LinkProfile::lossy(20));
            let mut cfg = MuxConfig::fast(77, 1);
            cfg.hosts = 1;
            cfg.streams_per_conn = 1;
            cfg.bytes_per_stream = bytes;
            let scratch = &mut Scratch::default();
            let mut conn = MuxConn::start(cfg.download(&topo, 0), scratch)
                .ok()
                .expect("handshake");
            let outcome = loop {
                let done = conn.turn(scratch);
                let (buffered, limit, read_offset) = conn.receiver.window(0);
                assert!(
                    buffered <= limit - read_offset,
                    "{buffered} buffered, limit {limit}, read to {read_offset}"
                );
                if let Some(outcome) = done {
                    break outcome;
                }
            };
            assert!(outcome.ok);
            assert_eq!(outcome.body_bytes, bytes);
            let sent = session.lock().unwrap().sender().peak_held();
            (sent, conn.receiver.peak_held())
        };
        for (bytes, (sender, receiver)) in [1_000_000, 8_000_000].map(|n| (n, held(n))) {
            assert!(sender <= CONN_WINDOW, "{bytes} B: sender held {sender}");
            assert!(
                receiver <= 2 * STREAM_WINDOW,
                "{bytes} B: receiver held {receiver}"
            );
        }
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
        assert_eq!(
            a.bytes_served, b.bytes_served,
            "both modes serve the same payload"
        );
    }
}
