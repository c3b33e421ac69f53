//! The scan driver: per-target attempt/PTO/backoff loops, HTTP/3 follow-up,
//! and the parallel fan-out.
//!
//! The scanner runs the paper's one configuration, so its limits are
//! constants, not options: every target gets up to three connection
//! attempts offering drafts 29, 32 and 34, each with up to five probe
//! timeouts, all within a 10 s virtual-time budget, and every established
//! connection gets an HTTP/3 HEAD request.
//!
//! Every send goes through a worker-private [`NetShard`]; a serial scan is
//! one shard on the caller's thread, so there is no separate "global" send
//! path for the two to diverge on. One private driver, `drive`, is the only
//! caller of [`simnet::fan_out`] here: [`QScanner::scan_many`],
//! [`QScanner::scan_many_stats`], [`QScanner::scan_many_traced`] and
//! [`QScanner::scan_stream`] all go through it.
//!
//! Telemetry integration follows the determinism rules of the `telemetry`
//! crate: a traced scan stamps events with the target's **flow-local**
//! virtual time (mirroring the driver's own budget arithmetic — never the
//! shared clock) and workers hand finished per-target event lists back to
//! the driver, which emits them in scan-index order.

use h3::qpack::Header;
use h3::request::{self, Response};
use quic::conn::{ClientConnection, ConnectionState, HandshakeOutcome};
use quic::tparams::TransportParameters;
use quic::version::Version;
use quic::ClientConfig;
use simnet::{
    fan_out, DatagramArena, Duration, FlightStatus, IpAddr, NetShard, Network, SocketAddr,
};
use telemetry::{Event, EventKind, LocalMetrics, MetricsRegistry, Telemetry, TraceCtx};

use crate::outcome::{QuicScanResult, QuicTarget, ScanOutcome};
use crate::retry::{BackoffSchedule, PtoSchedule, TargetBudget};

/// Batch size of the streaming driver ([`QScanner::scan_stream`]): how many
/// targets are drawn off the feed and fanned out at a time. Large enough to
/// keep every worker saturated through a full steal cycle, small enough that
/// the in-flight window — the only per-run buffer the streaming driver
/// holds — stays constant-size no matter how long the feed runs.
pub const DEFAULT_STREAM_BATCH_TARGETS: usize = 1024;

/// Versions offered, most preferred first: the paper's QScanner spoke
/// drafts 29, 32 and 34.
const VERSIONS: [Version; 3] = [Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34];

/// Connection attempts per target, each from a fresh source port with
/// exponential backoff in between.
const ATTEMPTS: u64 = 3;

/// Probe timeouts fired per attempt before the peer counts as silent.
const PTOS_PER_ATTEMPT: u32 = 5;

/// Flights exchanged per handshake attempt, and per HTTP request.
const MAX_ROUNDS: usize = 10;

/// HEAD requests sent on fresh streams of an established connection before
/// the HTTP/3 follow-up gives up.
const HTTP_REQUESTS: u32 = 6;

/// Virtual-time budget per target, in microseconds, across all attempts,
/// probe timeouts and backoff waits.
const TARGET_BUDGET_US: u64 = 10_000_000;

/// Replies fed to the connection per flight; the rest are dropped, as a
/// full socket buffer drops them. The simulated Internet answers a flight
/// with at most three datagrams. Without the cap a flooding peer is
/// answered datagram for datagram (each carries an ACK), so its flood
/// would grow by its own factor every round.
const MAX_REPLIES_PER_FLIGHT: usize = 16;

/// Coarse packet-space classification from the first byte of a datagram
/// (enough for a timeline; the scanner never decrypts here).
fn space_of(datagram: &[u8]) -> &'static str {
    let Some(&b) = datagram.first() else {
        return "unknown";
    };
    if b & 0x80 == 0 {
        return "1rtt";
    }
    if datagram.len() >= 5 && datagram[1..5] == [0, 0, 0, 0] {
        return "vn";
    }
    match (b >> 4) & 0x3 {
        0 => "initial",
        1 => "0rtt",
        2 => "handshake",
        _ => "retry",
    }
}

/// Metric counter for an outcome family.
fn outcome_counter(outcome: &ScanOutcome) -> &'static str {
    match outcome {
        ScanOutcome::Success => "qscanner.outcome.success",
        ScanOutcome::NoReply => "qscanner.outcome.no_reply",
        ScanOutcome::Stalled => "qscanner.outcome.stalled",
        ScanOutcome::Unreachable => "qscanner.outcome.unreachable",
        ScanOutcome::RateLimited => "qscanner.outcome.rate_limited",
        ScanOutcome::TransportClose { .. } => "qscanner.outcome.close",
        ScanOutcome::VersionMismatch => "qscanner.outcome.version_mismatch",
        ScanOutcome::Other(_) => "qscanner.outcome.other",
    }
}

/// What one worker reuses across every target it scans: its private view of
/// the network (clock, traffic counters, flow-sequence cache — merged back
/// when the worker is dropped) and the reply arena.
struct Worker<'n> {
    shard: NetShard<'n>,
    arena: DatagramArena,
}

impl<'n> Worker<'n> {
    fn new(net: &'n Network) -> Self {
        Worker {
            shard: net.shard(),
            arena: DatagramArena::new(),
        }
    }

    /// The simulated round-trip time in microseconds (at least one, so
    /// schedules derived from it always advance).
    fn rtt_us(&self) -> u64 {
        self.shard.rtt().as_micros().max(1)
    }
}

/// Per-target observation state threaded through a traced scan.
struct Obs<'a> {
    ctx: &'a mut TraceCtx,
    metrics: &'a mut LocalMetrics,
}

/// Moves buffered connection events (key derivations, VN, Retry, phase
/// transitions) into the trace, stamped at the current flow-local time.
fn drain_conn_events(conn: &mut ClientConnection, o: &mut Obs<'_>) {
    for kind in conn.take_events() {
        o.ctx.record(kind);
    }
}

/// Sends one flight to `dst` and feeds the first
/// [`MAX_REPLIES_PER_FLIGHT`] replies into `conn`, returning the folded
/// send status and whether anything came back.
///
/// Untraced, the flight goes out as one batch (one endpoint lookup, at most
/// one service-lock acquisition): `poll_transmit` fully materialized it
/// before any send, so feeding every reply afterwards in delivery order is
/// byte-equivalent to the per-datagram loop. Traced, it stays per-datagram
/// so the event stream keeps its send/receive interleaving and flow-local
/// timestamps.
fn exchange(
    w: &mut Worker<'_>,
    src: SocketAddr,
    dst: SocketAddr,
    conn: &mut ClientConnection,
    flight: Vec<Vec<u8>>,
    rtt_us: u64,
    obs: Option<&mut Obs<'_>>,
) -> (FlightStatus, bool) {
    let mut got_reply = false;
    let Some(o) = obs else {
        let status = w.shard.udp_send_batch(src, dst, &flight, &mut w.arena);
        got_reply = !w.arena.replies.is_empty();
        for reply in w.arena.replies.drain(..).take(MAX_REPLIES_PER_FLIGHT) {
            conn.on_datagram(&reply);
        }
        return (status, got_reply);
    };
    let mut status = FlightStatus::default();
    let mut fed = 0;
    for datagram in flight {
        o.ctx.record(EventKind::PacketSent {
            space: space_of(&datagram),
            bytes: datagram.len() as u64,
        });
        let trace = Some(&mut *o.ctx);
        let sent = w
            .shard
            .udp_send_status(src, dst, &datagram, &mut w.arena.replies, trace);
        status.unreachable |= sent.unreachable;
        status.throttled |= sent.throttled;
        o.ctx.advance(rtt_us);
        for reply in &w.arena.replies {
            o.ctx.record(EventKind::PacketReceived {
                space: space_of(reply),
                bytes: reply.len() as u64,
            });
        }
        got_reply |= !w.arena.replies.is_empty();
        for reply in w.arena.replies.drain(..) {
            if fed < MAX_REPLIES_PER_FLIGHT {
                fed += 1;
                conn.on_datagram(&reply);
            }
        }
        drain_conn_events(conn, o);
    }
    (status, got_reply)
}

/// The scanner: a handshake and an HTTP/3 HEAD request per target.
pub struct QScanner {
    /// Vantage source address.
    pub source_ip: IpAddr,
    /// Base seed.
    pub seed: u64,
    /// Targets drawn per batch by the streaming driver (defaults to
    /// [`DEFAULT_STREAM_BATCH_TARGETS`]).
    pub stream_batch_targets: usize,
}

impl QScanner {
    /// Scanner with the paper's configuration.
    pub fn new(source_ip: IpAddr, seed: u64) -> Self {
        QScanner {
            source_ip,
            seed,
            stream_batch_targets: DEFAULT_STREAM_BATCH_TARGETS,
        }
    }

    fn client_config(sni: Option<&str>) -> ClientConfig {
        ClientConfig {
            versions: VERSIONS.to_vec(),
            tls: qtls::ClientConfig {
                server_name: sni.map(str::to_string),
                alpn: VERSIONS.iter().map(|v| v.alpn().into_bytes()).collect(),
                ..qtls::ClientConfig::default()
            },
            transport_params: TransportParameters {
                initial_max_data: 1_048_576,
                initial_max_stream_data_bidi_local: 262_144,
                initial_max_stream_data_bidi_remote: 262_144,
                initial_max_stream_data_uni: 262_144,
                initial_max_streams_bidi: 16,
                initial_max_streams_uni: 16,
                ..TransportParameters::default()
            },
        }
    }

    /// Scans one target: up to three connection attempts with exponential
    /// backoff, each attempt driving PTO-based retransmission inside the
    /// connection, all under one virtual-time budget. The budget is tracked
    /// locally (never read off the shared clock, which other workers
    /// advance concurrently), so the verdict for a target is identical at
    /// any worker count.
    pub fn scan_one(&self, net: &Network, target: &QuicTarget, index: u64) -> QuicScanResult {
        self.scan_one_impl(&mut Worker::new(net), target, index, None)
    }

    /// [`QScanner::scan_one`] with full telemetry: returns the finished
    /// per-target event list (flow id = scan index, flow-local timestamps)
    /// and records counters/histograms into the caller's worker-local
    /// metric set. The scan behaves byte-identically to the untraced one.
    pub fn scan_one_traced(
        &self,
        net: &Network,
        target: &QuicTarget,
        index: u64,
        week: Option<u32>,
        metrics: &mut LocalMetrics,
    ) -> (QuicScanResult, Vec<Event>) {
        self.scan_traced(&mut Worker::new(net), target, index, week, metrics)
    }

    fn scan_traced(
        &self,
        w: &mut Worker<'_>,
        target: &QuicTarget,
        index: u64,
        week: Option<u32>,
        metrics: &mut LocalMetrics,
    ) -> (QuicScanResult, Vec<Event>) {
        let mut ctx = TraceCtx::new(index, target.trace_label(), week);
        let result = {
            let mut obs = Obs {
                ctx: &mut ctx,
                metrics,
            };
            self.scan_one_impl(w, target, index, Some(&mut obs))
        };
        metrics.observe("qscanner.scan_us", ctx.now());
        decided(result, ctx, metrics)
    }

    fn scan_one_impl(
        &self,
        w: &mut Worker<'_>,
        target: &QuicTarget,
        index: u64,
        mut obs: Option<&mut Obs<'_>>,
    ) -> QuicScanResult {
        let dst = SocketAddr::new(target.addr, target.port);
        let rtt_us = w.rtt_us();

        let mut result = QuicScanResult {
            addr: target.addr,
            sni: target.sni.clone(),
            outcome: ScanOutcome::NoReply,
            version: None,
            tls: None,
            transport_params: None,
            http: None,
        };

        let mut got_reply = false;
        let mut throttled = false;
        let mut budget = TargetBudget::new(TARGET_BUDGET_US);
        let mut backoff = BackoffSchedule::new(rtt_us);

        for attempt in 0..ATTEMPTS {
            // Fresh source port per attempt: a server that closed or
            // poisoned the previous connection keeps draining datagrams on
            // the old flow, so the retry must look like a new client.
            let port_slot = (index * ATTEMPTS + attempt) % 50_000;
            let src = SocketAddr::new(self.source_ip, 10_000 + port_slot as u16);
            let seed = self.seed
                ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93)
                ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let config = Self::client_config(target.sni.as_deref());
            let mut conn = match obs.as_deref_mut() {
                Some(o) => {
                    o.ctx.record(EventKind::AttemptStarted {
                        attempt,
                        version: VERSIONS[0].label(),
                    });
                    o.metrics.inc("qscanner.attempts", 1);
                    let mut conn = ClientConnection::new_traced(config, seed);
                    drain_conn_events(&mut conn, o);
                    conn
                }
                None => ClientConnection::new(config, seed),
            };

            let mut ptos = PtoSchedule::new(rtt_us, PTOS_PER_ATTEMPT);
            let mut rounds = 0usize;
            let mut unreachable = false;

            loop {
                let out = conn.poll_transmit();
                if out.is_empty() {
                    if conn.state() != &ConnectionState::Handshaking {
                        break;
                    }
                    // Peer silent with nothing queued: fire a probe timeout
                    // (doubling, RFC 9002 §6.2) if budget remains.
                    let Some(wait_us) = ptos.next_wait_us() else {
                        break;
                    };
                    if !budget.try_charge(wait_us) {
                        break;
                    }
                    w.shard.advance(Duration::from_micros(wait_us));
                    let count = ptos.fire();
                    if let Some(o) = obs.as_deref_mut() {
                        o.ctx.advance(wait_us);
                        o.ctx.record(EventKind::PtoFired { count, wait_us });
                        o.metrics.inc("qscanner.ptos", 1);
                    }
                    if !conn.on_pto() {
                        break;
                    }
                    continue;
                }
                rounds += 1;
                if rounds > MAX_ROUNDS {
                    break;
                }
                let sent = out.len();
                let (status, replied) =
                    exchange(w, src, dst, &mut conn, out, rtt_us, obs.as_deref_mut());
                unreachable |= status.unreachable;
                throttled |= status.throttled;
                got_reply |= replied;
                for _ in 0..sent {
                    budget.charge_exchange(rtt_us);
                }
                if unreachable || conn.state() != &ConnectionState::Handshaking {
                    break;
                }
            }

            if unreachable {
                result.outcome = ScanOutcome::Unreachable;
                return result;
            }

            let verdict = match conn.outcome() {
                Some(HandshakeOutcome::Established) => Some(ScanOutcome::Success),
                Some(HandshakeOutcome::VersionMismatch { .. }) => {
                    Some(ScanOutcome::VersionMismatch)
                }
                Some(HandshakeOutcome::TransportClose { code, reason }) => {
                    Some(ScanOutcome::TransportClose {
                        code: code.0,
                        reason: reason.clone(),
                    })
                }
                Some(HandshakeOutcome::TlsFailure(e)) => {
                    Some(ScanOutcome::Other(format!("tls: {e}")))
                }
                Some(HandshakeOutcome::ProtocolError(e)) => {
                    Some(ScanOutcome::Other(format!("protocol: {e}")))
                }
                None => None,
            };
            match verdict {
                Some(ScanOutcome::Success) => {
                    result.version = Some(conn.version());
                    result.tls = conn.tls_info().cloned();
                    result.transport_params = conn.peer_transport_params().cloned();
                    result.http =
                        Self::fetch_http(w, target, src, dst, &mut conn, obs.as_deref_mut());
                    result.outcome = ScanOutcome::Success;
                    return result;
                }
                Some(outcome) => {
                    result.outcome = outcome;
                    return result;
                }
                None => {
                    // No verdict this attempt: back off and retry from a
                    // fresh port while budget remains.
                    let wait_us = backoff.wait_us();
                    if !budget.try_charge(wait_us) {
                        break;
                    }
                    w.shard.advance(Duration::from_micros(wait_us));
                    backoff.advance();
                    if let Some(o) = obs.as_deref_mut() {
                        o.ctx.record(EventKind::BackoffWaited { attempt, wait_us });
                        o.ctx.advance(wait_us);
                        o.metrics.inc("qscanner.backoffs", 1);
                    }
                }
            }
        }

        result.outcome = if throttled && !got_reply {
            ScanOutcome::RateLimited
        } else if got_reply {
            ScanOutcome::Stalled
        } else {
            ScanOutcome::NoReply
        };
        result
    }

    /// Issues the HTTP/3 HEAD request over an established connection,
    /// re-requesting on a fresh stream when a response is lost (stream
    /// frames are not idempotent server-side, so retrying a request beats
    /// retransmitting the original packet).
    fn fetch_http(
        w: &mut Worker<'_>,
        target: &QuicTarget,
        src: SocketAddr,
        dst: SocketAddr,
        conn: &mut ClientConnection,
        mut obs: Option<&mut Obs<'_>>,
    ) -> Option<Response> {
        let rtt_us = w.rtt_us();
        let authority = target
            .sni
            .clone()
            .unwrap_or_else(|| target.addr.to_string());
        let control = conn.open_uni_stream();
        conn.send_stream(control, &request::client_control_stream(), false);
        for _ in 0..HTTP_REQUESTS {
            if !conn.handshake_done() {
                // The server may still be waiting for a lost Finished;
                // repeat it so the request lands on an established
                // connection instead of being dropped pre-handshake.
                conn.on_pto();
            }
            let stream = conn.open_bidi_stream();
            conn.send_stream(
                stream,
                &request::encode_request(
                    "HEAD",
                    &authority,
                    "/",
                    &[Header::new("user-agent", "qscanner-sim/1.0")],
                ),
                true,
            );
            for _ in 0..MAX_ROUNDS {
                let out = conn.poll_transmit();
                if out.is_empty() {
                    break;
                }
                let _ = exchange(w, src, dst, conn, out, rtt_us, obs.as_deref_mut());
            }
            for s in conn.poll_streams() {
                if s.id == stream {
                    if let Some(resp) = request::decode_response(&s.data) {
                        return Some(resp);
                    }
                }
            }
        }
        None
    }

    /// The one scan driver. Scans `targets` (scan index `base + i` for
    /// `targets[i]`) through [`simnet::fan_out`] — `workers` threads claiming
    /// index batches off a shared [`simnet::StealQueue`], each with a private
    /// [`Worker`] and metric set — and returns the `per_target` values in
    /// index order plus how many targets each worker scanned. `fan_out`
    /// starts no more workers than there are targets, and runs a single
    /// worker on the caller's thread — the same code, no spawn.
    ///
    /// A panic in a target's scan reaches the caller, as every panic in a
    /// `fan_out` worker does.
    fn drive<R: Send>(
        &self,
        net: &Network,
        base: u64,
        targets: &[QuicTarget],
        workers: usize,
        registry: Option<&MetricsRegistry>,
        per_target: impl Fn(&mut Worker<'_>, &mut LocalMetrics, &QuicTarget, u64) -> R + Sync,
    ) -> (Vec<R>, Vec<usize>) {
        let (results, per_worker) = fan_out(
            targets.len(),
            workers,
            || (Worker::new(net), LocalMetrics::new()),
            |(worker, metrics), i| per_target(worker, metrics, &targets[i], base + i as u64),
        );
        let mut counts = Vec::with_capacity(per_worker.len());
        for ((_, metrics), scanned) in per_worker {
            if let Some(registry) = registry {
                registry.submit(metrics);
            }
            counts.push(scanned);
        }
        (results, counts)
    }

    /// Scans targets across `workers` threads with work stealing: workers
    /// claim small index batches off a shared cursor ([`simnet::StealQueue`]),
    /// so a run of slow targets — PTO-retrying, rate-limited — spreads over
    /// whoever is free instead of idling everyone behind one static chunk.
    /// Results are merged in scan-index order and are byte-identical to the
    /// one-worker run at any worker count, because nothing a target does
    /// depends on which worker ran it.
    pub fn scan_many(
        &self,
        net: &Network,
        targets: &[QuicTarget],
        workers: usize,
    ) -> Vec<QuicScanResult> {
        self.scan_many_stats(net, targets, workers).0
    }

    /// [`QScanner::scan_many`], also reporting how many targets each worker
    /// ended up scanning (one entry per worker started; never more workers
    /// than targets). The counts are diagnostics only — the straggler
    /// regression test uses them to assert skewed load spreads.
    pub fn scan_many_stats(
        &self,
        net: &Network,
        targets: &[QuicTarget],
        workers: usize,
    ) -> (Vec<QuicScanResult>, Vec<usize>) {
        self.drive(net, 0, targets, workers, None, |w, _, t, i| {
            self.scan_one_impl(w, t, i, None)
        })
    }

    /// Streaming driver: scans targets straight off an iterator without ever
    /// buffering the full feed. Targets are drawn in batches of
    /// [`QScanner::stream_batch_targets`], each batch fanned out across the
    /// work-stealing scheduler, and results handed to `sink` **in
    /// scan-index order** — so a sink that folds into a mergeable
    /// accumulator observes exactly the sequence [`QScanner::scan_many`]
    /// would have returned, at O(batch) memory instead of O(feed). Returns
    /// the number of targets scanned.
    ///
    /// Per-target results are byte-identical to [`QScanner::scan_many`] at
    /// any worker count and batch size: each target's scan index is its
    /// global position in the feed, and nothing a target does depends on
    /// which worker or batch ran it.
    pub fn scan_stream<I, F>(&self, net: &Network, targets: I, workers: usize, mut sink: F) -> u64
    where
        I: IntoIterator<Item = QuicTarget>,
        F: FnMut(u64, QuicScanResult),
    {
        let batch_cap = self.stream_batch_targets.max(1);
        let mut feed = targets.into_iter();
        let mut batch: Vec<QuicTarget> = Vec::with_capacity(batch_cap);
        let mut base = 0u64;
        loop {
            batch.clear();
            while batch.len() < batch_cap {
                match feed.next() {
                    Some(t) => batch.push(t),
                    None => break,
                }
            }
            if batch.is_empty() {
                return base;
            }
            let (results, _) = self.drive(net, base, &batch, workers, None, |w, _, t, i| {
                self.scan_one_impl(w, t, i, None)
            });
            for r in results {
                sink(base, r);
                base += 1;
            }
        }
    }

    /// [`QScanner::scan_many`] with telemetry: the same work-stealing
    /// fan-out, with per-target event lists merged **in scan-index order**
    /// into the sink (so the stream is byte-identical at any worker count)
    /// and each worker submitting its metric set to the registry once.
    /// Metric merges commute, so the merged snapshot is also
    /// schedule-independent.
    pub fn scan_many_traced(
        &self,
        net: &Network,
        targets: &[QuicTarget],
        workers: usize,
        week: Option<u32>,
        telemetry: &Telemetry,
    ) -> Vec<QuicScanResult> {
        let registry = Some(&*telemetry.metrics);
        let (traced, _) = self.drive(net, 0, targets, workers, registry, |w, metrics, t, i| {
            self.scan_traced(w, t, i, week, metrics)
        });
        traced
            .into_iter()
            .map(|(result, events)| {
                telemetry.emit_all(&events);
                result
            })
            .collect()
    }
}

/// Closes a traced target: verdict counters and the `outcome_decided` event.
fn decided(
    result: QuicScanResult,
    mut ctx: TraceCtx,
    metrics: &mut LocalMetrics,
) -> (QuicScanResult, Vec<Event>) {
    metrics.inc("qscanner.targets", 1);
    metrics.inc(outcome_counter(&result.outcome), 1);
    ctx.record(EventKind::OutcomeDecided {
        outcome: result.outcome.label(),
    });
    (result, ctx.finish())
}
