//! The simulated network core: a registry of UDP services and TCP service
//! factories keyed by socket address, with deterministic faults and latency.
//!
//! Build phase: `&mut Network` + [`Network::bind_udp`] / [`Network::bind_tcp`].
//! Scan phase: shared `&Network`; per-service `Mutex`es make concurrent
//! scanning safe while keeping each simulated host single-threaded, like a
//! real single-homed server process.
//!
//! Impairments come from per-destination [`LinkProfile`]s (see
//! [`crate::fault`]); every fault decision is keyed on a per-flow sequence
//! number, so results are identical at any worker count.

use std::cell::OnceCell;

use parking_lot::{Mutex, MutexGuard};
use telemetry::{FaultKind, TraceCtx};

use crate::addr::{IpAddr, SocketAddr};
use crate::clock::{Duration, ShardClock, SimClock, SimTime};
use crate::datagrams::Datagrams;
use crate::endpoints::{route, CacheAligned, Endpoints, LazyBinder, LazyStats, UdpEndpoint};
use crate::fasthash::FastMap;
use crate::fault::{self, LinkProfile};
use crate::stats::{LocalStats, NetStats};

/// Shard count for the per-flow sequence counters (power of two). Sized at
/// ≥4× the largest worker count the drivers use (8), so two workers landing
/// on the same bucket is the exception, not the rule.
const FLOW_SHARDS: usize = 64;

/// One flow-sequence bucket: `(src, dst)` → next fault-draw sequence.
type FlowSeqBucket = CacheAligned<Mutex<FastMap<(SocketAddr, SocketAddr), u64>>>;

/// Lock-traffic accounting for one worker's [`NetShard`]: how often the
/// worker touched a per-service mutex, how often that mutex was actually
/// held by someone else, and how many datagrams it handed to an endpoint
/// shard other than its source's home shard. `acquired` and `cross_shard`
/// are schedule-deterministic (they count events of the deterministic packet
/// stream), so they may be compared across worker counts; `contended` is a
/// wall-clock artifact and must stay out of byte-compared snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockCounters {
    /// Service-mutex acquisitions (one per delivered flight).
    pub acquired: u64,
    /// Acquisitions that found the mutex held by another worker.
    pub contended: u64,
    /// Datagrams delivered to an endpoint shard different from the source
    /// address's home shard.
    pub cross_shard: u64,
}

impl LockCounters {
    /// Locks a service mutex, counting the acquisition and whether it had
    /// to wait.
    fn lock<'m, T>(&mut self, mutex: &'m Mutex<T>) -> MutexGuard<'m, T> {
        self.acquired += 1;
        mutex.try_lock().unwrap_or_else(|| {
            self.contended += 1;
            mutex.lock()
        })
    }

    /// Sums another counter set into this one.
    pub fn merge(&mut self, other: &LockCounters) {
        self.acquired += other.acquired;
        self.contended += other.contended;
        self.cross_shard += other.cross_shard;
    }
}

/// What the sender observes about a send, one datagram or a whole flight.
/// Silent loss and an unbound port are indistinguishable on a real network,
/// so they leave both flags clear; ICMP unreachable signaling and
/// rate-limiter pushback are observable and set theirs when any datagram of
/// the flight drew them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStatus {
    /// Some datagram drew ICMP destination-unreachable.
    pub unreachable: bool,
    /// Some datagram was discarded by the destination's rate limiter.
    pub throttled: bool,
}

/// The reply container of the `Vec<Vec<u8>>` batch API
/// ([`NetShard::udp_send_batch`] / [`NetShard::udp_recv_batch`]): a
/// flight's replies, each its own buffer. Nothing in the workspace sends
/// through it any more — flights go out as [`Datagrams`] with
/// [`NetShard::udp_send_flight`] — and it stays only while the benchmark's
/// ladder names it, until ROADMAP item 11(b) retires it.
#[derive(Default)]
pub struct DatagramArena {
    /// Replies gathered by the last [`NetShard::udp_send_batch`], in
    /// delivery order.
    pub replies: Vec<Vec<u8>>,
}

impl DatagramArena {
    /// An empty arena.
    pub fn new() -> Self {
        DatagramArena::default()
    }

    /// Hands back a consumed reply. Nothing takes buffers from the arena,
    /// so it is dropped; the method stays for the callers that return
    /// their replies, until ROADMAP item 11(b) retires it.
    pub fn recycle(&mut self, _buf: Vec<u8>) {}
}

/// Handler for datagrams arriving at one bound UDP socket. One instance
/// serves every client flow (real servers demultiplex by connection ID).
pub trait UdpService: Send {
    /// Processes one datagram; responses are queued on `ctx`.
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: SocketAddr, data: &[u8]);
}

/// What a TCP handler wants done with the connection after processing input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpAction {
    /// Keep the connection open.
    Continue,
    /// Close after flushing queued output.
    Close,
}

/// Per-connection TCP handler (one instance per accepted connection).
pub trait TcpHandler: Send {
    /// Consumes client bytes, appends server bytes to `out`.
    fn on_data(&mut self, data: &[u8], out: &mut Vec<u8>) -> TcpAction;
}

/// Creates a fresh [`TcpHandler`] per accepted connection.
pub trait TcpFactory: Send + Sync {
    /// Accepts a connection from `from`.
    fn accept(&self, from: SocketAddr) -> Box<dyn TcpHandler>;
}

/// Where a [`UdpService`] queues its replies: the tail of the batch the
/// flight gathers them in.
pub struct ServiceCtx<'a> {
    replies: &'a mut Datagrams,
}

impl ServiceCtx<'_> {
    /// Queues a response datagram to the sender.
    pub fn reply(&mut self, datagram: Vec<u8>) {
        self.replies.push(&datagram);
    }

    /// The batch replies are queued in, for a service that writes them in
    /// place: each datagram it appends is one reply.
    pub fn replies(&mut self) -> &mut Datagrams {
        self.replies
    }
}

/// The simulated Internet fabric.
pub struct Network {
    pub(crate) endpoints: Endpoints,
    /// Virtual clock shared by all drivers.
    pub clock: SimClock,
    /// Traffic counters.
    pub stats: NetStats,
    default_profile: LinkProfile,
    profiles: FastMap<IpAddr, LinkProfile>,
    /// Per-flow datagram counters feeding the fault draws. Sharded by flow
    /// hash (each bucket cache-line padded) so parallel shards rarely
    /// contend; each flow is driven by one thread, so its sequence is
    /// deterministic regardless of interleaving. A [`NetShard`] caches
    /// these counters privately and only touches this table on a flow's
    /// first send and at shard finish.
    flow_seq: [FlowSeqBucket; FLOW_SHARDS],
    rtt: Duration,
    seed: u64,
}

impl Network {
    /// Creates a fault-free network with a 20 ms simulated RTT.
    pub fn new(seed: u64) -> Self {
        Network {
            endpoints: Endpoints::new(),
            clock: SimClock::new(),
            stats: NetStats::new(),
            default_profile: LinkProfile::ideal(),
            profiles: FastMap::default(),
            flow_seq: std::array::from_fn(|_| CacheAligned(Mutex::new(FastMap::default()))),
            rtt: Duration::from_millis(20),
            seed,
        }
    }

    /// Replaces the default [`LinkProfile`] applied to every destination
    /// without a per-path override.
    pub fn set_default_profile(&mut self, profile: LinkProfile) {
        self.default_profile = profile;
    }

    /// Attaches a [`LinkProfile`] to one destination IP, overriding the
    /// default for every flow towards it.
    pub fn set_path_profile(&mut self, dst: IpAddr, profile: LinkProfile) {
        self.profiles.insert(dst, profile);
    }

    /// The profile governing traffic towards `dst`.
    pub fn path_profile(&self, dst: IpAddr) -> &LinkProfile {
        self.profiles.get(&dst).unwrap_or(&self.default_profile)
    }

    /// Reads (without consuming) the next sequence number of a flow — the
    /// read-through a [`NetShard`] performs when it first caches a flow.
    fn peek_flow_seq(&self, src: SocketAddr, dst: SocketAddr, flow: u64) -> u64 {
        self.flow_seq[(flow as usize) & (FLOW_SHARDS - 1)]
            .0
            .lock()
            .get(&(src, dst))
            .copied()
            .unwrap_or(0)
    }

    /// Writes a shard's cached flow counter back into the shared table (the
    /// shard owned the flow exclusively, so the cached value is strictly
    /// newest).
    fn store_flow_seq(&self, src: SocketAddr, dst: SocketAddr, seq: u64) {
        let flow = fault::flow_hash(src, dst);
        self.flow_seq[(flow as usize) & (FLOW_SHARDS - 1)]
            .0
            .lock()
            .insert((src, dst), seq);
    }

    /// The configured round-trip time.
    pub fn rtt(&self) -> Duration {
        self.rtt
    }

    /// Binds a UDP service; replaces any previous binding.
    pub fn bind_udp(&mut self, at: SocketAddr, service: Box<dyn UdpService>) {
        self.endpoints.bind_udp(at, service);
    }

    /// Binds a TCP service factory; replaces any previous binding.
    pub fn bind_tcp(&mut self, at: SocketAddr, factory: Box<dyn TcpFactory>) {
        self.endpoints.bind_tcp(at, factory);
    }

    /// Installs a [`LazyBinder`] consulted whenever the static endpoint
    /// tables miss: endpoints are derived from the destination address on
    /// first contact and cached, keeping the working set O(contacted hosts)
    /// instead of O(population). `capacity` bounds how many UDP endpoints
    /// stay resident: the cache is split into shards that each hold a share
    /// of it and evict their least recently contacted endpoint a flight is
    /// not using first; `None` caches forever — required when endpoint
    /// connection state must survive a whole campaign for byte-identical
    /// equivalence with a fully materialized network.
    pub fn set_lazy_binder(&mut self, binder: Box<dyn LazyBinder>, capacity: Option<usize>) {
        self.endpoints.set_lazy_binder(binder, capacity);
    }

    /// Residency accounting of the lazy endpoint cache (`None` when no
    /// binder is installed).
    pub fn lazy_stats(&self) -> Option<LazyStats> {
        self.endpoints.lazy_stats()
    }

    /// Number of bound UDP sockets (used by generators for sanity checks).
    pub fn udp_socket_count(&self) -> usize {
        self.endpoints.udp_count()
    }

    /// Number of bound TCP sockets.
    pub fn tcp_socket_count(&self) -> usize {
        self.endpoints.tcp_count()
    }

    /// Sends one UDP datagram from `src` to `dst` and returns the responses
    /// the destination service emitted (empty when the port is unbound, the
    /// packet was lost, or the service stayed silent). Advances the clock by
    /// one RTT (plus any jitter) whenever the datagram reaches an endpoint
    /// at `dst`, silent ones included; a datagram lost on the way out or
    /// sent to an unbound port costs no time.
    ///
    /// For one-off exchanges (DNS lookups, connectivity checks): a
    /// [`NetShard`] that lives for this one send, so the shared clock,
    /// counters and flow-sequence table are updated before it returns. Scan
    /// loops keep a shard of their own ([`Network::shard`]).
    pub fn udp_send(&self, src: SocketAddr, dst: SocketAddr, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut delivered = Vec::new();
        self.shard()
            .udp_send_into(src, dst, payload, &mut delivered);
        delivered
    }

    /// Hands out a worker-private [`NetShard`] view of this network: same
    /// endpoints and fault plan, but a private virtual clock, private
    /// traffic counters, and a private flow-sequence cache, merged back when
    /// the shard finishes.
    pub fn shard(&self) -> NetShard<'_> {
        NetShard {
            clock: ShardClock::starting_at(self.clock.now()),
            net: self,
            local: LocalStats::default(),
            flow_seq: FastMap::default(),
            locks: LockCounters::default(),
            replies: Datagrams::new(),
            merged: false,
        }
    }

    /// Opens a TCP connection; `None` models RST/closed port. The returned
    /// stream drives the handler synchronously.
    pub fn tcp_connect(&self, src: SocketAddr, dst: SocketAddr) -> Option<TcpStream<'_>> {
        let handler = self.endpoints.tcp_accept(&dst, src)?;
        self.stats.record_send(40); // SYN
        self.stats.record_recv(40); // SYN/ACK
        self.clock.advance(self.rtt);
        Some(TcpStream {
            net: self,
            handler,
            inbox: Vec::new(),
            closed: false,
        })
    }
}

/// One worker's private view of a [`Network`] during a parallel scan.
///
/// A shard owns the flows its worker drives: a private [`ShardClock`]
/// (seeded from the shared clock, merged back with
/// [`SimClock::catch_up`]), private traffic counters, and a
/// private cache of the per-flow fault-draw sequence numbers — so the
/// steady-state probe/handshake loop touches **no** shared atomics or
/// mutexes except the destination service's own mutex, at most once per
/// flight. Everything merges back on [`NetShard::finish`] (or `Drop`), and
/// because fault draws are keyed on flow-local sequence numbers the results
/// do not depend on how sends are split across shards: every send in the
/// crate goes through one, [`Network::udp_send`]'s included.
///
/// The type is deliberately `!Sync` (it embeds a `Cell`-based clock):
/// exactly one worker thread owns a shard.
pub struct NetShard<'a> {
    net: &'a Network,
    /// The worker-private virtual clock. Public so pacing loops (token
    /// buckets, PTO waits) can charge it directly.
    pub clock: ShardClock,
    local: LocalStats,
    flow_seq: FastMap<(SocketAddr, SocketAddr), u64>,
    locks: LockCounters,
    /// Where [`NetShard::udp_send_into`] gathers replies before copying
    /// them out.
    replies: Datagrams,
    merged: bool,
}

impl NetShard<'_> {
    /// The configured round-trip time.
    pub fn rtt(&self) -> Duration {
        self.net.rtt()
    }

    /// Whether a TCP port answers a SYN (the ZMap TCP module's question),
    /// counted as a 40-byte SYN sent and, when the port is open, a 40-byte
    /// SYN-ACK received, as [`Network::tcp_connect`] counts them. Lazy
    /// universes answer from membership alone — no factory is built. The
    /// exchange takes no fault draw and no time.
    pub fn tcp_port_open(&mut self, at: SocketAddr) -> bool {
        self.local.record_send(40);
        let open = self.net.endpoints.tcp_open(at);
        if open {
            self.local.record_recv(40);
        }
        open
    }

    /// Current private virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advances the private virtual clock.
    pub fn advance(&self, d: Duration) -> SimTime {
        self.clock.advance(d)
    }

    /// Sends one datagram and reports what the sender could observe about
    /// the attempt (see [`FlightStatus`]): silent loss and unbound ports
    /// leave it clear with no replies, while ICMP-unreachable signaling and
    /// rate-limiter pushback are surfaced. Replies are *appended* to `out`.
    /// With `trace`, every fault the path injects is recorded as a
    /// [`FaultKind`] event; fault draws are flow-sequence keyed, so a traced
    /// flow sees the same events at any worker count (`None` costs one
    /// branch per fault site, nothing on the ideal fast path).
    pub fn udp_send_status(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        payload: &[u8],
        out: &mut Datagrams,
        trace: Option<&mut TraceCtx>,
    ) -> FlightStatus {
        self.flight(src, dst, std::iter::once(payload), out, usize::MAX, trace)
    }

    /// Sends one datagram, the probe-module shape: replies, each its own
    /// buffer, are *appended* to `out` (never cleared), and the status is
    /// discarded. A send nothing can answer — a sweep's common miss —
    /// returns before any reply container is touched, so a scan loop that
    /// reuses one `out` across millions of probes allocates nothing for
    /// them.
    pub fn udp_send_into(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        payload: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) {
        let profile = *self.net.path_profile(dst.ip);
        if self.unanswered(&profile, &dst) {
            self.local.record_send(payload.len());
            return;
        }
        let mut replies = std::mem::take(&mut self.replies);
        let _ = self.deliver(
            &profile,
            src,
            dst,
            std::iter::once(payload),
            &mut replies,
            usize::MAX,
            None,
        );
        out.extend(replies.iter().map(<[u8]>::to_vec));
        replies.clear();
        self.replies = replies;
    }

    /// Batched send (GSO-style): delivers every datagram of `flight` to
    /// `dst` with one endpoint lookup and at most one service-mutex
    /// acquisition, *appending* the replies to `replies` in delivery order.
    /// Per-datagram fault draws are identical to sending the flight one
    /// datagram at a time, so a batch is byte-equivalent to the loop it
    /// replaces.
    ///
    /// `room` is the receive buffer: at most that many of the flight's
    /// replies are kept, and the rest are dropped on arrival, as a full
    /// socket buffer drops them. The path has carried them by then, so
    /// traffic counters, fault draws and fault events are those of an
    /// unbounded receive. The answer to one datagram is gathered whole
    /// before the drop, so `replies` grows to at most `room` datagrams plus
    /// the largest answer one datagram draws.
    pub fn udp_send_flight(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: &Datagrams,
        replies: &mut Datagrams,
        room: usize,
    ) -> FlightStatus {
        self.flight(src, dst, flight.iter(), replies, room, None)
    }

    /// [`NetShard::udp_send_flight`] for a flight of separate buffers, with
    /// replace semantics: the arena holds this flight's replies, each a
    /// copy in a buffer of its own, for [`NetShard::udp_recv_batch`] to
    /// drain. Only the benchmark's ladder calls it, until ROADMAP item
    /// 11(b) retires it.
    pub fn udp_send_batch(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: &[Vec<u8>],
        arena: &mut DatagramArena,
    ) -> FlightStatus {
        // Stale replies of an undrained batch never leak into this one.
        arena.replies.clear();
        let mut replies = std::mem::take(&mut self.replies);
        let status = self.flight(
            src,
            dst,
            flight.iter().map(Vec::as_slice),
            &mut replies,
            usize::MAX,
            None,
        );
        arena.replies.extend(replies.iter().map(<[u8]>::to_vec));
        replies.clear();
        self.replies = replies;
        status
    }

    /// Drains the replies gathered by the last [`NetShard::udp_send_batch`]
    /// (GRO-style receive). Only the benchmark's ladder calls it, until
    /// ROADMAP item 11(b) retires it.
    pub fn udp_recv_batch<'b>(
        &mut self,
        arena: &'b mut DatagramArena,
    ) -> std::vec::Drain<'b, Vec<u8>> {
        arena.replies.drain(..)
    }

    /// An address nothing can answer at — a sweep's common miss — on a
    /// path whose faults the sender cannot observe: every datagram is sent,
    /// none is delivered and no time passes, so a flight there only counts
    /// its sends. It takes no draw, and so never touches the flow counters:
    /// nothing is ever delivered at such an address, so no later draw of
    /// the flow depends on them. Unreachable and rate-limited paths keep
    /// their draws, because their status reaches the sender.
    fn unanswered(&self, profile: &LinkProfile, dst: &SocketAddr) -> bool {
        !profile.unreachable
            && profile.rate_limit.is_none()
            && !self.net.endpoints.udp_may_exist(dst)
    }

    /// One flight of datagrams from `src` to `dst`, at most `room` replies
    /// appended to `out`: counted and dropped at an
    /// [`NetShard::unanswered`] address, delivered otherwise.
    fn flight<'p>(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: impl Iterator<Item = &'p [u8]>,
        out: &mut Datagrams,
        room: usize,
        trace: Option<&mut TraceCtx>,
    ) -> FlightStatus {
        let profile = *self.net.path_profile(dst.ip);
        if self.unanswered(&profile, &dst) {
            flight.for_each(|payload| self.local.record_send(payload.len()));
            return FlightStatus::default();
        }
        self.deliver(&profile, src, dst, flight, out, room, trace)
    }

    /// The shared fault pipeline: one flight of datagrams from `src` to
    /// `dst` over `profile`, each datagram run through the exact
    /// per-datagram fault-draw sequence of the classic single-send path
    /// (same salts, same per-flow sequence numbers — a batch of N is
    /// byte-equivalent to N single sends). What batching changes is the
    /// constant work: one profile lookup, one endpoint lookup, and at most
    /// one service-mutex acquisition per flight instead of per packet. The
    /// shard's clock advances, its cached flow counters are consumed (read
    /// through from the shared table on first touch) and its `locks` count
    /// the service-mutex traffic. Replies land after whatever the caller
    /// already holds in `out`, so multi-send drivers can accumulate a
    /// flight's replies; past the first `room` of them, each datagram's are
    /// dropped once the path has counted them.
    #[allow(clippy::too_many_arguments)]
    fn deliver<'p>(
        &mut self,
        profile: &LinkProfile,
        src: SocketAddr,
        dst: SocketAddr,
        flight: impl Iterator<Item = &'p [u8]>,
        out: &mut Datagrams,
        room: usize,
        mut trace: Option<&mut TraceCtx>,
    ) -> FlightStatus {
        let net = self.net;
        let full = out.len().saturating_add(room);
        let mut status = FlightStatus::default();
        // The flight's one endpoint slot, filled at its first delivery.
        let endpoint = OnceCell::new();
        let mut delivery = Delivery {
            net,
            src,
            dst,
            crosses_shard: false,
            endpoint: &endpoint,
            guard: None,
        };
        let mut flow: Option<u64> = None;

        for payload in flight {
            self.local.record_send(payload.len());

            // Fast path: unimpaired link — no flow-counter lookup, no draws.
            if profile.is_ideal() {
                let start = out.len();
                if delivery.deliver(payload, out, &mut self.locks) {
                    self.clock.advance(net.rtt);
                }
                for i in start..out.len() {
                    self.local.record_recv(out.get(i).len());
                }
                out.truncate(full);
                continue;
            }

            if profile.unreachable {
                self.local.record_drop();
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::Unreachable);
                }
                status.unreachable = true;
                continue;
            }

            let flow = *flow.get_or_insert_with(|| fault::flow_hash(src, dst));
            let seq = self
                .flow_seq
                .entry((src, dst))
                .or_insert_with(|| net.peek_flow_seq(src, dst, flow));
            let seq = std::mem::replace(seq, *seq + 1);

            if let Some(rl) = profile.rate_limit {
                if seq >= u64::from(rl.burst)
                    && fault::hit(net.seed, flow, seq, fault::SALT_RATE, rl.drop_permille)
                {
                    self.local.record_drop();
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::RateLimited);
                    }
                    status.throttled = true;
                    continue;
                }
            }
            if fault::hit(
                net.seed,
                flow,
                seq,
                fault::SALT_FWD_LOSS,
                profile.loss_permille,
            ) {
                self.local.record_drop();
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::ForwardLoss);
                }
                continue;
            }

            let start = out.len();
            if delivery.deliver(payload, out, &mut self.locks) {
                let jitter_us = if profile.jitter_us > 0 {
                    fault::draw(net.seed, flow, seq, fault::SALT_JITTER) % (profile.jitter_us + 1)
                } else {
                    0
                };
                if jitter_us > 0 {
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::Jitter(jitter_us));
                    }
                }
                self.clock
                    .advance(net.rtt + Duration::from_micros(jitter_us));
            }

            // Reply-path loss: one independent draw per reply datagram of
            // *this* datagram's slice (`start..`).
            let local = &mut self.local;
            out.retain_from(start, |idx, reply| {
                let salt =
                    fault::SALT_REPLY_LOSS ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let lost = fault::hit(net.seed, flow, seq, salt, profile.loss_permille);
                if lost {
                    local.record_drop();
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::ReplyLoss);
                    }
                } else {
                    local.record_recv(reply.len());
                }
                !lost
            });
            out.truncate(full);
        }
        status
    }

    /// Merges every piece of private state back into the shared network:
    /// the clock via [`SimClock::catch_up`] (shared time becomes the
    /// slowest shard's end time), traffic counters into
    /// [`Network::stats`], and the cached flow-sequence counters via
    /// write-back (each flow was owned exclusively by this shard). Returns
    /// the shard's lock-traffic counters.
    pub fn finish(mut self) -> LockCounters {
        self.merge();
        self.locks
    }

    fn merge(&mut self) {
        if self.merged {
            return;
        }
        self.merged = true;
        self.net.clock.catch_up(self.clock.now());
        self.local.flush(&self.net.stats);
        for ((src, dst), seq) in self.flow_seq.drain() {
            self.net.store_flow_seq(src, dst, seq);
        }
    }
}

impl Drop for NetShard<'_> {
    fn drop(&mut self) {
        // A shard dropped without `finish` still merges its state: probes
        // already sent are on the wire, so the shared counters must see
        // them.
        self.merge();
    }
}

/// One flight's way to its destination endpoint: looked up at the flight's
/// first delivery and locked then, both at most once per flight. The
/// endpoint handle sits in the flight's `endpoint` slot, so the guard can
/// borrow from it whether the endpoint is bound or lazily resident (a lazy
/// handle also pins its endpoint against eviction until the flight ends).
struct Delivery<'e> {
    net: &'e Network,
    src: SocketAddr,
    dst: SocketAddr,
    /// Whether `dst` routes to another endpoint shard than `src`; computed
    /// when the endpoint is found, so a flight that delivers nothing hashes
    /// neither address for it.
    crosses_shard: bool,
    endpoint: &'e OnceCell<Option<UdpEndpoint<'e>>>,
    guard: Option<MutexGuard<'e, Box<dyn UdpService>>>,
}

impl Delivery<'_> {
    /// Delivers `payload`, queuing replies into `out`; returns whether an
    /// endpoint lives at `dst`.
    fn deliver(&mut self, payload: &[u8], out: &mut Datagrams, locks: &mut LockCounters) -> bool {
        if self.guard.is_none() {
            // `get` + `set` rather than `get_or_init`, whose initializing
            // path is `#[cold]` — and initializing is every probe's path.
            if self.endpoint.get().is_none() {
                let _ = self.endpoint.set(self.net.endpoints.udp(&self.dst));
            }
            let Some(Some(endpoint)) = self.endpoint.get() else {
                return false;
            };
            self.guard = Some(locks.lock(endpoint.service()));
            self.crosses_shard = route(&self.dst) != route(&self.src);
        }
        let service = self.guard.as_mut().expect("locked above");
        if self.crosses_shard {
            locks.cross_shard += 1;
        }
        let mut ctx = ServiceCtx { replies: out };
        service.on_datagram(&mut ctx, self.src, payload);
        true
    }
}

/// Client handle to an open simulated TCP connection.
pub struct TcpStream<'a> {
    net: &'a Network,
    handler: Box<dyn TcpHandler>,
    inbox: Vec<u8>,
    closed: bool,
}

impl TcpStream<'_> {
    /// Writes client bytes; any server response bytes become readable.
    /// Returns `false` once the peer has closed.
    pub fn write(&mut self, data: &[u8]) -> bool {
        if self.closed {
            return false;
        }
        self.net.stats.record_send(data.len());
        let mut out = Vec::new();
        let action = self.handler.on_data(data, &mut out);
        self.net.clock.advance(self.net.rtt());
        if !out.is_empty() {
            self.net.stats.record_recv(out.len());
            self.inbox.extend_from_slice(&out);
        }
        if action == TcpAction::Close {
            self.closed = true;
        }
        true
    }

    /// Drains everything the server has sent so far.
    pub fn read(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.inbox)
    }

    /// True after the server closed the connection.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    const SENT: FlightStatus = FlightStatus {
        unreachable: false,
        throttled: false,
    };
    const UNREACHABLE: FlightStatus = FlightStatus {
        unreachable: true,
        ..SENT
    };
    const THROTTLED: FlightStatus = FlightStatus {
        throttled: true,
        ..SENT
    };

    struct Echo;
    impl UdpService for Echo {
        fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, data: &[u8]) {
            let mut out = data.to_vec();
            out.reverse();
            ctx.reply(out);
        }
    }

    struct Greeter;
    impl TcpHandler for Greeter {
        fn on_data(&mut self, data: &[u8], out: &mut Vec<u8>) -> TcpAction {
            out.extend_from_slice(b"hello ");
            out.extend_from_slice(data);
            TcpAction::Close
        }
    }
    struct GreeterFactory;
    impl TcpFactory for GreeterFactory {
        fn accept(&self, _from: SocketAddr) -> Box<dyn TcpHandler> {
            Box::new(Greeter)
        }
    }

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn udp_roundtrip_and_stats() {
        let mut net = Network::new(1);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        let replies = net.udp_send(addr(99, 5555), addr(1, 443), b"abc");
        assert_eq!(replies, vec![b"cba".to_vec()]);
        assert!(net
            .udp_send(addr(99, 5555), addr(2, 443), b"abc")
            .is_empty());
        let (sent, bytes_sent, recvd, _, _) = net.stats.snapshot();
        assert_eq!((sent, bytes_sent, recvd), (2, 6, 1));
        assert!(net.clock.now() > SimTime::ZERO);
    }

    #[test]
    fn udp_send_into_appends_to_buffer() {
        let mut net = Network::new(1);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        let mut shard = net.shard();
        let mut replies = Vec::new();
        shard.udp_send_into(addr(9, 1), addr(1, 443), b"abc", &mut replies);
        assert_eq!(replies, vec![b"cba".to_vec()]);
        // A miss leaves the caller's accumulated replies untouched.
        shard.udp_send_into(addr(9, 1), addr(2, 443), b"abc", &mut replies);
        assert_eq!(replies, vec![b"cba".to_vec()]);
        // A hit appends after them — flight drivers accumulate, then drain.
        shard.udp_send_into(addr(9, 1), addr(1, 443), b"xy", &mut replies);
        assert_eq!(replies, vec![b"cba".to_vec(), b"yx".to_vec()]);
        replies.clear();
        shard.udp_send_into(addr(9, 1), addr(1, 443), b"xy", &mut replies);
        assert_eq!(replies, vec![b"yx".to_vec()]);
    }

    #[test]
    fn tcp_roundtrip() {
        let mut net = Network::new(1);
        net.bind_tcp(addr(1, 443), Box::new(GreeterFactory));
        let mut shard = net.shard();
        assert!(shard.tcp_port_open(addr(1, 443)));
        assert!(!shard.tcp_port_open(addr(1, 80)));
        shard.finish();
        // Two SYNs out, one SYN-ACK back.
        let (sent, bytes_sent, recvd, bytes_recvd, _) = net.stats.snapshot();
        assert_eq!((sent, bytes_sent, recvd, bytes_recvd), (2, 80, 1, 40));
        assert!(net.tcp_connect(addr(9, 1), addr(1, 80)).is_none());
        let mut conn = net.tcp_connect(addr(9, 1), addr(1, 443)).unwrap();
        conn.write(b"world");
        assert_eq!(conn.read(), b"hello world");
        assert!(conn.is_closed());
        assert!(!conn.write(b"more"));
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut net = Network::new(7);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_default_profile(crate::fault::LinkProfile::lossy(1000));
        assert!(net.udp_send(addr(9, 1), addr(1, 443), b"x").is_empty());
        assert_eq!(net.stats.snapshot().4, 1);
    }

    #[test]
    fn partial_loss_is_roughly_calibrated() {
        let mut net = Network::new(42);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_default_profile(crate::fault::LinkProfile::lossy(300));
        let mut got = 0;
        for _ in 0..2000 {
            got += net.udp_send(addr(9, 1), addr(1, 443), b"x").len();
        }
        // Each exchange survives with p ≈ 0.7² = 0.49.
        assert!((700..1300).contains(&got), "got {got}");
    }

    #[test]
    fn loss_is_per_flow_deterministic() {
        // The same flow sees the same fate sequence on two identically
        // seeded networks, even when another flow's traffic interleaves
        // differently — the property that makes faults worker-count-proof.
        let run = |interleave: bool| {
            let mut net = Network::new(11);
            net.bind_udp(addr(1, 443), Box::new(Echo));
            net.set_default_profile(crate::fault::LinkProfile::lossy(400));
            let mut fates = Vec::new();
            for i in 0..200 {
                if interleave {
                    net.udp_send(addr(8, 7000), addr(1, 443), b"noise");
                    if i % 3 == 0 {
                        net.udp_send(addr(7, 7001), addr(1, 443), b"more");
                    }
                }
                fates.push(!net.udp_send(addr(9, 1), addr(1, 443), b"x").is_empty());
            }
            fates
        };
        assert_eq!(run(false), run(true));
    }

    /// A lossy, jittered flight to an unbound port counts its sends and
    /// takes no draw: no drop is counted and the flow gets no sequence
    /// counter. Unreachable and rate-limited paths still draw, because the
    /// sender observes their status.
    #[test]
    fn faulted_misses_take_no_draw() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_default_profile(crate::fault::LinkProfile {
            jitter_us: 500,
            ..crate::fault::LinkProfile::lossy(500)
        });
        let throttling = crate::fault::LinkProfile {
            rate_limit: Some(crate::fault::ReplyRateLimit {
                burst: 0,
                drop_permille: 1000,
            }),
            ..crate::fault::LinkProfile::ideal()
        };
        net.set_path_profile(addr(2, 0).ip, crate::fault::LinkProfile::unreachable());
        net.set_path_profile(addr(3, 0).ip, throttling);
        let mut shard = net.shard();
        let mut out = Datagrams::new();
        let start = shard.now();
        for _ in 0..100 {
            let status = shard.udp_send_status(addr(9, 1), addr(1, 80), b"x", &mut out, None);
            assert_eq!(status, SENT);
        }
        assert!(out.is_empty());
        assert!(shard.flow_seq.is_empty());
        assert_eq!(shard.now(), start);
        let status = shard.udp_send_status(addr(9, 1), addr(2, 443), b"x", &mut out, None);
        assert_eq!(status, UNREACHABLE);
        let status = shard.udp_send_status(addr(9, 1), addr(3, 443), b"x", &mut out, None);
        assert_eq!(status, THROTTLED);
        assert_eq!(shard.flow_seq.len(), 1, "the throttled flow drew");
        shard.finish();
        let (sent, _, received, _, dropped) = net.stats.snapshot();
        assert_eq!((sent, received, dropped), (102, 0, 2));
    }

    #[test]
    fn unreachable_paths_signal_icmp() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(addr(1, 0).ip, crate::fault::LinkProfile::unreachable());
        // Other destinations keep the default (ideal) profile.
        net.bind_udp(addr(2, 443), Box::new(Echo));
        let mut shard = net.shard();
        let mut out = Datagrams::new();
        let status = shard.udp_send_status(addr(9, 1), addr(1, 443), b"x", &mut out, None);
        assert_eq!(status, UNREACHABLE);
        assert!(out.is_empty());
        let status = shard.udp_send_status(addr(9, 1), addr(2, 443), b"ab", &mut out, None);
        assert_eq!(status, SENT);
        assert_eq!(out.iter().collect::<Vec<_>>(), [b"ba"]);
    }

    #[test]
    fn rate_limit_admits_burst_then_throttles() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(
            addr(1, 0).ip,
            crate::fault::LinkProfile {
                rate_limit: Some(crate::fault::ReplyRateLimit {
                    burst: 8,
                    drop_permille: 1000,
                }),
                ..crate::fault::LinkProfile::ideal()
            },
        );
        let mut shard = net.shard();
        let mut out = Datagrams::new();
        let mut statuses = Vec::new();
        for _ in 0..16 {
            statuses.push(shard.udp_send_status(addr(9, 1), addr(1, 443), b"x", &mut out, None));
        }
        assert!(statuses[..8].iter().all(|s| *s == SENT));
        assert!(statuses[8..].iter().all(|s| *s == THROTTLED));
        // A fresh flow gets its own burst allowance.
        let status = shard.udp_send_status(addr(9, 2), addr(1, 443), b"x", &mut out, None);
        assert_eq!(status, SENT);
    }

    #[test]
    fn traced_sends_record_injected_faults() {
        use telemetry::{EventKind, FaultKind, TraceCtx};
        let mut net = Network::new(7);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_default_profile(crate::fault::LinkProfile::lossy(1000));
        net.set_path_profile(addr(2, 0).ip, crate::fault::LinkProfile::unreachable());
        let mut shard = net.shard();
        let mut out = Datagrams::new();

        let mut trace = TraceCtx::new(1, "10.0.0.1:443", None);
        shard.udp_send_status(addr(9, 1), addr(1, 443), b"x", &mut out, Some(&mut trace));
        let events = trace.finish();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::FaultInjected {
                fault: FaultKind::ForwardLoss
            }
        ));

        let mut trace = TraceCtx::new(2, "10.0.0.2:443", None);
        let status =
            shard.udp_send_status(addr(9, 1), addr(2, 443), b"x", &mut out, Some(&mut trace));
        assert_eq!(status, UNREACHABLE);
        let events = trace.finish();
        assert!(matches!(
            events[0].kind,
            EventKind::FaultInjected {
                fault: FaultKind::Unreachable
            }
        ));
    }

    /// One lossy/rate-limited profile exercising every draw site.
    fn nasty_profile() -> crate::fault::LinkProfile {
        crate::fault::LinkProfile {
            loss_permille: 300,
            jitter_us: 500,
            rate_limit: Some(crate::fault::ReplyRateLimit {
                burst: 20,
                drop_permille: 400,
            }),
            ..crate::fault::LinkProfile::ideal()
        }
    }

    fn nasty_net() -> Network {
        let mut net = Network::new(0x5a5a);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(addr(1, 0).ip, nasty_profile());
        net
    }

    /// Every fault draw pinned by value: 200 datagrams on three flows over
    /// [`nasty_profile`], digested (FNV-1a over each send's status and
    /// replies, then the shard clock) and compared with a committed value.
    /// The other tests here compare two runs with each other, so a draw
    /// that moved in both would pass them; this one would not.
    #[test]
    fn nasty_path_fates_are_pinned() {
        let net = nasty_net();
        let mut shard = net.shard();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let (mut answered, mut throttled) = (0, 0);
        let mut out = Datagrams::new();
        for i in 0..200u16 {
            out.clear();
            let status = shard.udp_send_status(
                addr(9, 1000 + i % 3),
                addr(1, 443),
                &i.to_be_bytes(),
                &mut out,
                None,
            );
            answered += usize::from(!out.is_empty());
            throttled += usize::from(status.throttled);
            feed(&[
                u8::from(status.unreachable),
                u8::from(status.throttled),
                out.len() as u8,
            ]);
            for r in out.iter() {
                feed(r);
            }
        }
        let now = shard.now().since(SimTime::ZERO).as_micros();
        feed(&now.to_le_bytes());
        assert_eq!((answered, throttled, now), (59, 56, 1_862_220));
        assert_eq!(digest, 0x8dc8_4afd_bc64_889e);
    }

    /// Sends through one long-lived `NetShard` must be byte-identical to
    /// [`Network::udp_send`]'s one shard per send: same replies from the
    /// same draw sequence (a throttled or lost datagram is an empty reply
    /// list on both sides), which holds only if every one-shot shard writes
    /// its flow counters back for the next to read.
    #[test]
    fn shard_sends_match_global_sends() {
        let run_global = || {
            let net = nasty_net();
            (0..200u16)
                .map(|i| net.udp_send(addr(9, 1000 + i % 3), addr(1, 443), b"probe"))
                .collect::<Vec<_>>()
        };
        let run_shard = || {
            let net = nasty_net();
            let mut shard = net.shard();
            let mut log = Vec::new();
            for i in 0..200u16 {
                let mut out = Vec::new();
                shard.udp_send_into(addr(9, 1000 + i % 3), addr(1, 443), b"probe", &mut out);
                log.push(out);
            }
            shard.finish();
            log
        };
        assert_eq!(run_global(), run_shard());
    }

    /// A batch of N datagrams is byte-equivalent to N single sends: same
    /// per-datagram fault draws, same replies in the same order, and the
    /// flow-sequence counter advances identically.
    #[test]
    fn batched_flight_equals_single_sends() {
        let flight: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'p', i]).collect();
        // Singles.
        let net = nasty_net();
        let mut shard = net.shard();
        let mut out = Datagrams::new();
        let mut singles = Vec::new();
        let mut folded = FlightStatus::default();
        for d in &flight {
            let status = shard.udp_send_status(addr(9, 7), addr(1, 443), d, &mut out, None);
            folded.unreachable |= status.unreachable;
            folded.throttled |= status.throttled;
            singles.extend(out.iter().map(<[u8]>::to_vec));
            out.clear();
        }
        let t_singles = shard.now();
        shard.finish();
        // Batch, replies appended after what the batch holds.
        let net2 = nasty_net();
        let mut shard2 = net2.shard();
        let mut batch = Datagrams::new();
        batch.extend(flight.iter().map(Vec::as_slice));
        let mut replies = Datagrams::new();
        replies.push(b"earlier");
        let status =
            shard2.udp_send_flight(addr(9, 7), addr(1, 443), &batch, &mut replies, usize::MAX);
        let t_batch = shard2.now();
        shard2.finish();
        assert_eq!(status, folded);
        assert_eq!(replies.get(0), b"earlier");
        assert!(replies.iter().skip(1).eq(singles.iter().map(Vec::as_slice)));
        assert_eq!(t_batch, t_singles, "same per-datagram clock charges");
        // And the shared flow counter ends at the same point.
        assert_eq!(
            net.peek_flow_seq(
                addr(9, 7),
                addr(1, 443),
                fault::flow_hash(addr(9, 7), addr(1, 443))
            ),
            net2.peek_flow_seq(
                addr(9, 7),
                addr(1, 443),
                fault::flow_hash(addr(9, 7), addr(1, 443))
            ),
        );
    }

    /// Answers every datagram with four, tagged with the datagram's first
    /// byte and the reply's index.
    struct Fan;
    impl UdpService for Fan {
        fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, data: &[u8]) {
            for j in 0..4 {
                ctx.reply(vec![data[0], j]);
            }
        }
    }

    /// A flight's receive room keeps the first replies of the unbounded
    /// receive and drops the rest, and the path counts, draws and charges
    /// time for all of them alike: the shared counters, the clock, the
    /// status and the next send's fate are those of the unbounded flight.
    #[test]
    fn receive_room_keeps_a_prefix_and_the_path_unchanged() {
        let mut flight = Datagrams::new();
        for i in 0..30u8 {
            flight.push(&[i]);
        }
        let run = |ideal: bool, room: usize| {
            let mut net = Network::new(0x5a5a);
            net.bind_udp(addr(1, 443), Box::new(Fan));
            if !ideal {
                net.set_path_profile(addr(1, 0).ip, nasty_profile());
            }
            let mut shard = net.shard();
            let mut replies = Datagrams::new();
            replies.push(b"earlier");
            let status =
                shard.udp_send_flight(addr(9, 7), addr(1, 443), &flight, &mut replies, room);
            let mut next = Vec::new();
            shard.udp_send_into(addr(9, 7), addr(1, 443), b"z", &mut next);
            let now = shard.now();
            shard.finish();
            (replies, (status, next, now, net.stats.snapshot()))
        };
        for ideal in [true, false] {
            let (all, path) = run(ideal, usize::MAX);
            assert!(
                all.len() > 11,
                "the flight draws more replies than any room"
            );
            for room in [0, 1, 5, 10] {
                let (kept, path_kept) = run(ideal, room);
                assert_eq!(kept.len(), room + 1, "ideal {ideal}, room {room}");
                assert!(kept.iter().eq(all.iter().take(room + 1)));
                assert_eq!(path_kept, path, "ideal {ideal}, room {room}");
            }
        }
    }

    /// A shard's cached flow counters write back on finish, so a later
    /// [`Network::udp_send`] continues the same fault-draw sequence instead of
    /// restarting the flow's burst allowance.
    #[test]
    fn shard_flow_counters_write_back() {
        let fates = |split: usize| {
            let net = nasty_net();
            let mut fates = Vec::new();
            let mut shard = net.shard();
            for _ in 0..split {
                let mut out = Vec::new();
                shard.udp_send_into(addr(9, 1), addr(1, 443), b"x", &mut out);
                fates.push(out);
            }
            shard.finish();
            for _ in split..60 {
                fates.push(net.udp_send(addr(9, 1), addr(1, 443), b"x"));
            }
            fates
        };
        assert_eq!(fates(0), fates(17));
        assert_eq!(fates(0), fates(60));
    }

    /// Private shard clocks merge back as a max, so shared time after a
    /// parallel scan is the slowest shard's end time.
    #[test]
    fn shard_clocks_merge_to_slowest() {
        let mut net = Network::new(1);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        let a = net.shard();
        let b = net.shard();
        a.advance(Duration::from_micros(100));
        b.advance(Duration::from_micros(5_000));
        assert_eq!(
            net.clock.now(),
            SimTime::ZERO,
            "private advances stay private"
        );
        a.finish();
        b.finish();
        assert_eq!(net.clock.now(), SimTime(5_000));
    }

    /// Deterministic lock accounting: one acquisition per delivered flight,
    /// and cross-shard handoffs counted per delivered datagram from the
    /// fixed (src, dst) routing — both independent of scheduling.
    #[test]
    fn shard_counts_lock_traffic() {
        let mut net = Network::new(1);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        let mut shard = net.shard();
        let (mut flight, mut replies) = (Datagrams::new(), Datagrams::new());
        for i in 0..10u8 {
            flight.push(&[i]);
        }
        shard.udp_send_flight(addr(9, 7), addr(1, 443), &flight, &mut replies, usize::MAX);
        let mut out = Vec::new();
        shard.udp_send_into(addr(9, 7), addr(1, 443), b"x", &mut out);
        // An unbound destination costs no acquisition.
        shard.udp_send_into(addr(9, 7), addr(2, 443), b"x", &mut out);
        let c = shard.finish();
        assert_eq!(c.acquired, 2, "one per delivered flight");
        assert_eq!(c.contended, 0, "single worker never contends");
        let crosses = route(&addr(9, 7)) != route(&addr(1, 443));
        assert_eq!(c.cross_shard, if crosses { 11 } else { 0 });
    }

    /// Stats flushed by a dropped (panicking-path) shard still reach the
    /// shared counters.
    #[test]
    fn dropped_shard_merges_state() {
        let mut net = Network::new(1);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        {
            let mut shard = net.shard();
            let mut out = Vec::new();
            shard.udp_send_into(addr(9, 1), addr(1, 443), b"abc", &mut out);
            shard.advance(Duration::from_micros(77));
            // No finish(): dropped, as on a panic unwind.
        }
        let (sent, bytes_sent, recvd, _, _) = net.stats.snapshot();
        assert_eq!((sent, bytes_sent, recvd), (1, 3, 1));
        assert!(net.clock.now() >= SimTime(77));
    }

    #[test]
    fn jitter_advances_the_clock_deterministically() {
        let elapsed = |seed: u64| {
            let mut net = Network::new(seed);
            net.bind_udp(addr(1, 443), Box::new(Echo));
            net.set_path_profile(
                addr(1, 0).ip,
                crate::fault::LinkProfile {
                    jitter_us: 5000,
                    ..crate::fault::LinkProfile::ideal()
                },
            );
            for _ in 0..10 {
                net.udp_send(addr(9, 1), addr(1, 443), b"x");
            }
            net.clock.now().since(SimTime::ZERO).as_micros()
        };
        let base = 10 * 20_000; // 10 exchanges × 20 ms RTT
        let a = elapsed(1);
        assert!(a > base && a <= base + 10 * 5000, "elapsed {a}");
        assert_eq!(a, elapsed(1));
        assert_ne!(a, elapsed(2));
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    struct Counter(u64);
    impl UdpService for Counter {
        fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, _data: &[u8]) {
            self.0 += 1;
            ctx.reply(self.0.to_be_bytes().to_vec());
        }
    }

    /// The network is shared across scan threads; per-service mutexes keep
    /// each simulated host single-threaded.
    #[test]
    fn concurrent_scanning_is_safe_and_complete() {
        let mut net = Network::new(3);
        for last in 1..=32u8 {
            net.bind_udp(
                SocketAddr::new(Ipv4Addr::new(10, 1, 1, last), 443),
                Box::new(Counter(0)),
            );
        }
        let net = &net;
        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u8)
                .map(|t| {
                    s.spawn(move || {
                        let mut replies = 0u64;
                        for round in 0..50u16 {
                            for last in 1..=32u8 {
                                let src =
                                    SocketAddr::new(Ipv4Addr::new(192, 0, 2, t), 1000 + round);
                                let dst = SocketAddr::new(Ipv4Addr::new(10, 1, 1, last), 443);
                                replies += net.udp_send(src, dst, b"ping").len() as u64;
                            }
                        }
                        replies
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Every probe got exactly one reply: 4 threads × 50 rounds × 32 hosts.
        assert_eq!(total, 4 * 50 * 32);
        // And each host's internal counter saw exactly 200 datagrams — the
        // final reply value proves serialized access.
        let last_reply = net.udp_send(
            SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 1),
            SocketAddr::new(Ipv4Addr::new(10, 1, 1, 1), 443),
            b"x",
        );
        let count = u64::from_be_bytes(last_reply[0][..8].try_into().unwrap());
        assert_eq!(count, 201);
    }
}
