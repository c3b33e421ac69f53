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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use telemetry::{FaultKind, TraceCtx};

use crate::addr::{IpAddr, SocketAddr};
use crate::clock::{Duration, ShardClock, SimClock, SimTime};
use crate::fasthash::FastMap;
use crate::fault::{self, LinkProfile, SendStatus};
use crate::stats::{LocalStats, NetStats};

/// Shard count for the per-flow sequence counters (power of two). Sized at
/// ≥4× the largest worker count the drivers use (8), so two workers landing
/// on the same bucket is the exception, not the rule.
const FLOW_SHARDS: usize = 64;

/// Shard count for the endpoint registry (power of two). Endpoints are
/// routed by the same FxHash the flow-fault draws key on, so a worker
/// sweeping its slice of the scan-index domain touches a stable subset of
/// shards.
const ENDPOINT_SHARDS: usize = 64;

/// Pads the inner value to its own cache line: the flow-sequence mutexes
/// live in an array, and without padding two adjacent buckets share a line
/// and false-share under parallel scans.
#[repr(align(64))]
#[derive(Default)]
struct CacheAligned<T>(T);

/// One endpoint shard: destination address → mutex-guarded service.
type ServiceShard = FastMap<SocketAddr, Mutex<Box<dyn UdpService>>>;

/// One flow-sequence bucket: `(src, dst)` → next fault-draw sequence.
type FlowSeqBucket = CacheAligned<Mutex<FastMap<(SocketAddr, SocketAddr), u64>>>;

/// The sharded endpoint registry: UDP services are spread over
/// [`ENDPOINT_SHARDS`] independent hash maps routed by destination-address
/// hash. Lookups stay lock-free (`&self` reads of immutable-after-build
/// maps); sharding keeps each worker's probe stream walking a small,
/// cache-resident table instead of one giant map shared by every thread.
struct EndpointTable {
    shards: Vec<CacheAligned<ServiceShard>>,
}

impl EndpointTable {
    fn new() -> Self {
        EndpointTable {
            shards: (0..ENDPOINT_SHARDS)
                .map(|_| CacheAligned(FastMap::default()))
                .collect(),
        }
    }

    /// Which shard an address lives in (same FxHash family as the flow
    /// fault draws).
    fn route(at: &SocketAddr) -> usize {
        (fault::addr_hash(*at) as usize) & (ENDPOINT_SHARDS - 1)
    }

    fn get(&self, at: &SocketAddr) -> Option<&Mutex<Box<dyn UdpService>>> {
        self.shards[Self::route(at)].0.get(at)
    }

    fn insert(&mut self, at: SocketAddr, service: Box<dyn UdpService>) {
        self.shards[Self::route(&at)]
            .0
            .insert(at, Mutex::new(service));
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.len()).sum()
    }
}

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

/// Aggregated sender-observable outcome of a batched send: per-datagram
/// statuses collapse to "did any datagram see ICMP unreachable / rate-limit
/// pushback", which is exactly how the scan drivers fold per-datagram
/// [`SendStatus`] values today.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStatus {
    /// Some datagram drew ICMP destination-unreachable.
    pub unreachable: bool,
    /// Some datagram was discarded by the destination's rate limiter.
    pub throttled: bool,
}

impl FlightStatus {
    /// The single-datagram [`SendStatus`] equivalent (exact for a
    /// one-datagram flight).
    fn into_send_status(self) -> SendStatus {
        if self.unreachable {
            SendStatus::Unreachable
        } else if self.throttled {
            SendStatus::Throttled
        } else {
            SendStatus::Sent
        }
    }
}

/// Reusable buffers for the batched socket API: `replies` is the GRO-style
/// receive container a whole flight's responses accumulate into, and the
/// spare list recycles consumed datagram buffers so steady-state batched
/// I/O performs no per-packet container allocation.
#[derive(Default)]
pub struct DatagramArena {
    /// Replies gathered by the last [`NetShard::udp_send_batch`], in
    /// delivery order.
    pub replies: Vec<Vec<u8>>,
    spare: Vec<Vec<u8>>,
}

/// Cap on pooled spare buffers — enough for any realistic flight, bounded
/// so a reply burst cannot pin memory forever.
const ARENA_SPARE_CAP: usize = 64;

impl DatagramArena {
    /// An empty arena.
    pub fn new() -> Self {
        DatagramArena::default()
    }

    /// Returns a consumed buffer to the arena (cleared, capacity kept).
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < ARENA_SPARE_CAP {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Takes a recycled buffer (empty, but with retained capacity) or a
    /// fresh one.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }
}

/// Handler for datagrams arriving at one bound UDP socket. One instance
/// serves every client flow (real servers demultiplex by connection ID).
pub trait UdpService: Send {
    /// Processes one datagram; responses are queued on `ctx`.
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: SocketAddr, data: &[u8]);
}

/// Constructs endpoint services *on first contact* for addresses absent from
/// the statically bound tables — the hook a lazily materialized universe
/// plugs into ([`Network::set_lazy_binder`]). Implementations must be pure
/// functions of the address (plus captured seed/config): the same address
/// must always yield a behaviourally identical endpoint, because eviction
/// under a residency cap may rebuild an endpoint mid-scan.
pub trait LazyBinder: Send + Sync {
    /// The UDP service for `at`, or `None` when no endpoint lives there.
    fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>>;

    /// The TCP factory for `at`, or `None` when TCP 443 is closed there.
    fn make_tcp(&self, at: SocketAddr) -> Option<Box<dyn TcpFactory>>;

    /// Whether a TCP service exists at `at`. Override when membership can be
    /// answered without building the factory (the SYN-scan question at
    /// population scale); the default builds and discards.
    fn tcp_open(&self, at: SocketAddr) -> bool {
        self.make_tcp(at).is_some()
    }
}

/// Observable state of the lazy endpoint cache (see
/// [`Network::lazy_stats`]). `peak_resident` is the working-set bound the
/// O(responsive-hosts) memory claim rests on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// UDP endpoints currently instantiated.
    pub resident: usize,
    /// High-water mark of `resident`.
    pub peak_resident: usize,
    /// Total UDP endpoint constructions (rebuilds after eviction included).
    pub instantiated: u64,
    /// Endpoints evicted under the residency cap.
    pub evicted: u64,
    /// TCP factories currently cached (never evicted — they carry
    /// per-host connection counters).
    pub tcp_resident: usize,
}

/// One shard of the lazily instantiated endpoint cache: address → (service,
/// last-touch generation). Recency order for eviction lives in
/// [`LazyState::order`], global across shards so the residency cap applies
/// to the whole cache; the generation stamp marks which queue entry for an
/// address is current (older entries are stale and skipped at eviction).
/// Cached lazy endpoint: shared service handle plus last-touch generation.
type LazyEntry = (Arc<Mutex<Box<dyn UdpService>>>, u64);

#[derive(Default)]
struct LazyEndpoints {
    services: FastMap<SocketAddr, LazyEntry>,
}

/// The lazy-instantiation state hanging off a [`Network`]: the binder that
/// derives endpoints from addresses, per-shard caches of the endpoints
/// contacted so far (sharded by the same address hash as the static table),
/// and residency accounting.
struct LazyState {
    binder: Box<dyn LazyBinder>,
    /// UDP residency cap; `None` = cache every contacted endpoint (the
    /// byte-identical paper-scale mode, where endpoint state must survive
    /// the whole campaign).
    capacity: Option<usize>,
    shards: Vec<CacheAligned<Mutex<LazyEndpoints>>>,
    /// Global recency queue driving eviction (least recently *touched*
    /// first): every contact re-pushes `(addr, generation)` and stale
    /// entries — whose generation no longer matches the shard's — are
    /// dropped when popped, classic lazy-deletion LRU. Recency, not
    /// insertion order, matters: an endpoint mid-handshake was inserted
    /// long ago but touched a datagram ago, and evicting it would wipe its
    /// connection state while the peer is still talking to it. Lock order
    /// is always `order` → cache shard (never the reverse), so concurrent
    /// inserts evicting victims from foreign shards cannot deadlock.
    order: Mutex<VecDeque<(SocketAddr, u64)>>,
    /// Touch-generation counter stamping queue entries.
    generation: AtomicU64,
    tcp: Mutex<FastMap<SocketAddr, Arc<dyn TcpFactory>>>,
    resident: AtomicUsize,
    peak: AtomicUsize,
    instantiated: AtomicU64,
    evicted: AtomicU64,
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
    fn on_data(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8], out: &mut Vec<u8>) -> TcpAction;
}

/// Creates a fresh [`TcpHandler`] per accepted connection.
pub trait TcpFactory: Send + Sync {
    /// Accepts a connection from `from`.
    fn accept(&self, from: SocketAddr) -> Box<dyn TcpHandler>;
}

/// Context passed to service callbacks.
pub struct ServiceCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    replies: &'a mut Vec<Vec<u8>>,
}

impl ServiceCtx<'_> {
    /// Queues a response datagram to the sender.
    pub fn reply(&mut self, datagram: Vec<u8>) {
        self.replies.push(datagram);
    }
}

/// The simulated Internet fabric.
pub struct Network {
    udp: EndpointTable,
    tcp: FastMap<SocketAddr, Box<dyn TcpFactory>>,
    /// On-demand endpoint instantiation, engaged only when the static
    /// tables miss (`None` on classic fully materialized networks).
    lazy: Option<LazyState>,
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
            udp: EndpointTable::new(),
            tcp: FastMap::default(),
            lazy: None,
            clock: SimClock::new(),
            stats: NetStats::new(),
            default_profile: LinkProfile::ideal(),
            profiles: FastMap::default(),
            flow_seq: std::array::from_fn(|_| CacheAligned(Mutex::new(FastMap::default()))),
            rtt: Duration::from_millis(20),
            seed,
        }
    }

    /// Sets the packet loss rate in permille (0–1000) for UDP datagrams on
    /// every path without its own profile (sugar for editing the default
    /// [`LinkProfile`]).
    pub fn set_loss_permille(&mut self, permille: u32) {
        assert!(permille <= 1000);
        self.default_profile.loss_permille = permille;
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

    /// Sets the simulated round-trip time charged per UDP exchange.
    pub fn set_rtt(&mut self, rtt: Duration) {
        self.rtt = rtt;
    }

    /// The configured round-trip time.
    pub fn rtt(&self) -> Duration {
        self.rtt
    }

    /// Binds a UDP service; replaces any previous binding.
    pub fn bind_udp(&mut self, at: SocketAddr, service: Box<dyn UdpService>) {
        self.udp.insert(at, service);
    }

    /// Binds a TCP service factory; replaces any previous binding.
    pub fn bind_tcp(&mut self, at: SocketAddr, factory: Box<dyn TcpFactory>) {
        self.tcp.insert(at, factory);
    }

    /// Installs a [`LazyBinder`] consulted whenever the static endpoint
    /// tables miss: endpoints are derived from the destination address on
    /// first contact and cached, keeping the working set O(contacted hosts)
    /// instead of O(population). `capacity` bounds how many UDP endpoints
    /// stay resident (FIFO eviction, in-use endpoints skipped); `None`
    /// caches forever — required when endpoint connection state must
    /// survive a whole campaign for byte-identical equivalence with a fully
    /// materialized network.
    pub fn set_lazy_binder(&mut self, binder: Box<dyn LazyBinder>, capacity: Option<usize>) {
        self.lazy = Some(LazyState {
            binder,
            capacity,
            shards: (0..ENDPOINT_SHARDS)
                .map(|_| CacheAligned(Mutex::new(LazyEndpoints::default())))
                .collect(),
            order: Mutex::new(VecDeque::new()),
            generation: AtomicU64::new(0),
            tcp: Mutex::new(FastMap::default()),
            resident: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            instantiated: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        });
    }

    /// Residency accounting of the lazy endpoint cache (`None` when no
    /// binder is installed).
    pub fn lazy_stats(&self) -> Option<LazyStats> {
        self.lazy.as_ref().map(|l| LazyStats {
            resident: l.resident.load(Ordering::Relaxed),
            peak_resident: l.peak.load(Ordering::Relaxed),
            instantiated: l.instantiated.load(Ordering::Relaxed),
            evicted: l.evicted.load(Ordering::Relaxed),
            tcp_resident: l.tcp.lock().len(),
        })
    }

    /// The cached-or-instantiated lazy UDP endpoint at `at` (`None` when no
    /// binder is installed or the binder says nothing lives there).
    /// Construction runs outside the cache-shard lock; the first insert
    /// wins, so concurrent flights agree on one instance.
    fn lazy_udp_service(&self, at: &SocketAddr) -> Option<Arc<Mutex<Box<dyn UdpService>>>> {
        let lazy = self.lazy.as_ref()?;
        let idx = EndpointTable::route(at);
        // Hit path: restamp the entry's generation (a *touch*) so eviction
        // sees it as recently used, then record the touch in the recency
        // queue. The shard lock is released before the queue lock is taken,
        // keeping the `order` → shard lock order intact.
        let hit = {
            let mut shard = lazy.shards[idx].0.lock();
            shard.services.get_mut(at).map(|(svc, stamp)| {
                let touch = lazy.capacity.is_some().then(|| {
                    *stamp = lazy.generation.fetch_add(1, Ordering::Relaxed) + 1;
                    *stamp
                });
                (svc.clone(), touch)
            })
        };
        if let Some((svc, touch)) = hit {
            if let Some(stamp) = touch {
                lazy.order.lock().push_back((*at, stamp));
                self.lazy_maybe_compact(lazy);
            }
            return Some(svc);
        }
        let built = lazy.binder.make_udp(*at)?;
        let (svc, stamp) = {
            let mut shard = lazy.shards[idx].0.lock();
            if let Some((svc, _)) = shard.services.get(at) {
                return Some(svc.clone());
            }
            let svc = Arc::new(Mutex::new(built));
            let stamp = lazy.generation.fetch_add(1, Ordering::Relaxed) + 1;
            shard.services.insert(*at, (svc.clone(), stamp));
            (svc, stamp)
        };
        lazy.instantiated.fetch_add(1, Ordering::Relaxed);
        let resident = lazy.resident.fetch_add(1, Ordering::Relaxed) + 1;
        lazy.peak.fetch_max(resident, Ordering::Relaxed);
        if lazy.capacity.is_none() {
            // Paper mode: everything stays resident, no queue to maintain.
            return Some(svc);
        }
        // LRU eviction over the global recency queue. Stale entries (an
        // address touched again since — generation mismatch) are dropped;
        // entries a flight still holds (Arc strong count > 1, including the
        // one just built, which this frame is about to return) are rotated
        // to the back. Residency is bounded by `cap` plus whatever is
        // concurrently in use; the attempts bound stops the loop when
        // everything left is in use. Victims are only unlinked under the
        // locks and torn down after both are released: an endpoint's
        // destructor frees its whole connection table, and every other
        // worker's instantiation waits on the global queue lock meanwhile.
        let mut evicted = Vec::new();
        let mut order = lazy.order.lock();
        order.push_back((*at, stamp));
        if let Some(cap) = lazy.capacity {
            let mut attempts = order.len();
            while lazy.resident.load(Ordering::Relaxed) > cap && attempts > 0 {
                attempts -= 1;
                let Some((victim, vstamp)) = order.pop_front() else {
                    break;
                };
                let mut vshard = lazy.shards[EndpointTable::route(&victim)].0.lock();
                match vshard.services.get(&victim) {
                    Some((_, stamp)) if *stamp != vstamp => {} // stale entry
                    Some((v, _)) if Arc::strong_count(v) == 1 => {
                        evicted.extend(vshard.services.remove(&victim));
                        lazy.resident.fetch_sub(1, Ordering::Relaxed);
                        lazy.evicted.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {
                        drop(vshard);
                        order.push_back((victim, vstamp));
                    }
                    None => {}
                }
            }
        }
        drop(order);
        drop(evicted);
        Some(svc)
    }

    /// Bounds the recency queue: touches append lazily deleted duplicates,
    /// so when the queue outgrows the cache by a wide margin, drop every
    /// stale entry in one pass. Amortized O(1) per touch.
    fn lazy_maybe_compact(&self, lazy: &LazyState) {
        let Some(cap) = lazy.capacity else { return };
        let threshold = cap.saturating_mul(8).max(1024);
        let mut order = lazy.order.lock();
        if order.len() <= threshold {
            return;
        }
        let entries: Vec<(SocketAddr, u64)> = order.drain(..).collect();
        for (addr, stamp) in entries {
            let shard = lazy.shards[EndpointTable::route(&addr)].0.lock();
            if matches!(shard.services.get(&addr), Some((_, s)) if *s == stamp) {
                drop(shard);
                order.push_back((addr, stamp));
            }
        }
    }

    /// The cached-or-instantiated lazy TCP factory at `at`. TCP factories
    /// are cached for the network's lifetime — they carry per-host
    /// connection counters (TLS randomness seeds) whose continuity the
    /// materialized path provides by construction.
    fn lazy_tcp_factory(&self, at: &SocketAddr) -> Option<Arc<dyn TcpFactory>> {
        let lazy = self.lazy.as_ref()?;
        if let Some(f) = lazy.tcp.lock().get(at) {
            return Some(f.clone());
        }
        let built = lazy.binder.make_tcp(*at)?;
        let mut map = lazy.tcp.lock();
        if let Some(f) = map.get(at) {
            return Some(f.clone());
        }
        let f: Arc<dyn TcpFactory> = Arc::from(built);
        map.insert(*at, f.clone());
        Some(f)
    }

    /// Number of bound UDP sockets (used by generators for sanity checks).
    pub fn udp_socket_count(&self) -> usize {
        self.udp.len()
    }

    /// Number of bound TCP sockets.
    pub fn tcp_socket_count(&self) -> usize {
        self.tcp.len()
    }

    /// Whether a TCP port answers a SYN (the ZMap TCP module's question).
    /// Lazy universes answer from membership alone — no factory is built.
    pub fn tcp_port_open(&self, at: SocketAddr) -> bool {
        self.tcp.contains_key(&at) || self.lazy.as_ref().is_some_and(|l| l.binder.tcp_open(at))
    }

    /// Sends one UDP datagram from `src` to `dst` and returns the responses
    /// the destination service emitted (empty when the port is unbound, the
    /// packet was lost, or the service stayed silent). Advances the clock by
    /// one RTT when a response comes back.
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
            local: LocalStats::new(),
            flow_seq: FastMap::default(),
            locks: LockCounters::default(),
            merged: false,
        }
    }

    /// The shared fault pipeline: one flight of datagrams from `src` to
    /// `dst`, each datagram run through the exact per-datagram fault-draw
    /// sequence of the classic single-send path (same salts, same per-flow
    /// sequence numbers — a batch of N is byte-equivalent to N single
    /// sends). What batching changes is the constant work: one profile
    /// lookup, one endpoint-table lookup, and at most one service-mutex
    /// acquisition per flight instead of per packet. The sending shard's
    /// clock advances, its cached flow counters are consumed (read through
    /// from the shared table on first touch) and its `locks` count the
    /// service-mutex traffic.
    #[allow(clippy::too_many_arguments)]
    fn udp_flight<'p>(
        &self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: impl Iterator<Item = &'p [u8]>,
        out: &mut Vec<Vec<u8>>,
        local: &mut LocalStats,
        mut trace: Option<&mut TraceCtx>,
        clock: &ShardClock,
        flow_seq: &mut FastMap<(SocketAddr, SocketAddr), u64>,
        locks: &mut LockCounters,
    ) -> FlightStatus {
        // Append-style: replies land after whatever the caller already holds
        // in `out`, so multi-send drivers can accumulate a flight's replies.
        let profile = *self.path_profile(dst.ip);
        let mut status = FlightStatus::default();
        // Flight-constant state, resolved lazily and at most once.
        let mut service: Option<&Mutex<Box<dyn UdpService>>> = None;
        let mut lazy_service: Option<Arc<Mutex<Box<dyn UdpService>>>> = None;
        let mut service_resolved = false;
        let mut guard: Option<MutexGuard<'_, Box<dyn UdpService>>> = None;
        let mut flow: Option<u64> = None;
        let crosses_shard = EndpointTable::route(&dst) != EndpointTable::route(&src);

        for payload in flight {
            local.record_send(payload.len());

            // Fast path: unimpaired link — no flow-counter lookup, no draws.
            if profile.is_ideal() {
                let start = out.len();
                if self.deliver_in_flight(
                    src,
                    dst,
                    payload,
                    out,
                    false,
                    &mut service,
                    &mut lazy_service,
                    &mut service_resolved,
                    &mut guard,
                    crosses_shard,
                    clock.now(),
                    locks,
                ) {
                    clock.advance(self.rtt);
                }
                for r in &out[start..] {
                    local.record_recv(r.len());
                }
                continue;
            }

            if profile.unreachable {
                local.record_drop();
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::Unreachable);
                }
                status.unreachable = true;
                continue;
            }
            if profile.mtu.is_some_and(|mtu| payload.len() > mtu) {
                // PMTUD black hole: indistinguishable from loss for the
                // sender.
                local.record_drop();
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::MtuDrop);
                }
                continue;
            }

            let flow = *flow.get_or_insert_with(|| fault::flow_hash(src, dst));
            let seq = flow_seq
                .entry((src, dst))
                .or_insert_with(|| self.peek_flow_seq(src, dst, flow));
            let seq = std::mem::replace(seq, *seq + 1);

            if let Some(rl) = profile.rate_limit {
                if seq >= u64::from(rl.burst)
                    && fault::hit(self.seed, flow, seq, fault::SALT_RATE, rl.drop_permille)
                {
                    local.record_drop();
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::RateLimited);
                    }
                    status.throttled = true;
                    continue;
                }
            }
            if fault::hit(
                self.seed,
                flow,
                seq,
                fault::SALT_FWD_LOSS,
                profile.loss_permille,
            ) {
                local.record_drop();
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::ForwardLoss);
                }
                continue;
            }

            let duplicated =
                fault::hit(self.seed, flow, seq, fault::SALT_DUP, profile.dup_permille);
            if duplicated {
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::Duplicated);
                }
            }
            let start = out.len();
            if self.deliver_in_flight(
                src,
                dst,
                payload,
                out,
                duplicated,
                &mut service,
                &mut lazy_service,
                &mut service_resolved,
                &mut guard,
                crosses_shard,
                clock.now(),
                locks,
            ) {
                let jitter_us = if profile.jitter_us > 0 {
                    fault::draw(self.seed, flow, seq, fault::SALT_JITTER) % (profile.jitter_us + 1)
                } else {
                    0
                };
                if jitter_us > 0 {
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::Jitter(jitter_us));
                    }
                }
                clock.advance(self.rtt + Duration::from_micros(jitter_us));
            }

            // Reply-path loss: one independent draw per reply datagram of
            // *this* datagram's slice (`start..`).
            let mut write = start;
            for (idx, read) in (start..out.len()).enumerate() {
                let salt =
                    fault::SALT_REPLY_LOSS ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                if fault::hit(self.seed, flow, seq, salt, profile.loss_permille) {
                    local.record_drop();
                    if let Some(t) = trace.as_deref_mut() {
                        t.fault(FaultKind::ReplyLoss);
                    }
                } else {
                    local.record_recv(out[read].len());
                    out.swap(write, read);
                    write += 1;
                }
            }
            out.truncate(write);
            if out.len() - start >= 2
                && fault::hit(
                    self.seed,
                    flow,
                    seq,
                    fault::SALT_REORDER,
                    profile.reorder_permille,
                )
            {
                out.swap(start, start + 1);
                if let Some(t) = trace.as_deref_mut() {
                    t.fault(FaultKind::Reordered);
                }
            }
        }
        status
    }

    /// Delivers `payload` to the service bound at `dst` (twice when
    /// `duplicate`), queuing replies into `out`; returns whether a service
    /// was bound there. The endpoint lookup and mutex acquisition are cached
    /// across one flight via the `service`/`guard` slots.
    #[allow(clippy::too_many_arguments)]
    fn deliver_in_flight<'n>(
        &'n self,
        src: SocketAddr,
        dst: SocketAddr,
        payload: &[u8],
        out: &mut Vec<Vec<u8>>,
        duplicate: bool,
        service: &mut Option<&'n Mutex<Box<dyn UdpService>>>,
        lazy_service: &mut Option<Arc<Mutex<Box<dyn UdpService>>>>,
        service_resolved: &mut bool,
        guard: &mut Option<MutexGuard<'n, Box<dyn UdpService>>>,
        crosses_shard: bool,
        now: SimTime,
        locks: &mut LockCounters,
    ) -> bool {
        if !*service_resolved {
            *service = self.udp.get(&dst);
            if service.is_none() {
                // Static tables miss: consult the lazy binder (no-op on
                // fully materialized networks). The Arc handle is cached
                // for the flight, pinning the endpoint against eviction.
                *lazy_service = self.lazy_udp_service(&dst);
            }
            *service_resolved = true;
        }
        let mut lazy_guard;
        let g: &mut dyn UdpService = if let Some(svc) = *service {
            &mut ***guard.get_or_insert_with(|| locks.lock(svc))
        } else if let Some(svc) = lazy_service.as_ref() {
            // Lazy endpoints lock per delivered datagram (the guard cannot
            // borrow from the flight-local Arc slot): `acquired` counts
            // acquisitions, still schedule-deterministic.
            lazy_guard = locks.lock(svc);
            &mut **lazy_guard
        } else {
            return false;
        };
        if crosses_shard {
            locks.cross_shard += 1;
        }
        let mut ctx = ServiceCtx { now, replies: out };
        g.on_datagram(&mut ctx, src, payload);
        if duplicate {
            g.on_datagram(&mut ctx, src, payload);
        }
        true
    }

    /// Opens a TCP connection; `None` models RST/closed port. The returned
    /// stream drives the handler synchronously.
    pub fn tcp_connect(&self, src: SocketAddr, dst: SocketAddr) -> Option<TcpStream<'_>> {
        let handler = match self.tcp.get(&dst) {
            Some(factory) => factory.accept(src),
            None => self.lazy_tcp_factory(&dst)?.accept(src),
        };
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
/// [`SimClock::catch_up`]), private [`LocalStats`] traffic counters, and a
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
    merged: bool,
}

impl NetShard<'_> {
    /// The configured round-trip time.
    pub fn rtt(&self) -> Duration {
        self.net.rtt()
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
    /// the attempt (see [`SendStatus`]): silent loss and unbound ports look
    /// like [`SendStatus::Sent`] with no replies, while ICMP-unreachable
    /// signaling and rate-limiter pushback are surfaced. Replies are
    /// *appended* to `out`. With `trace`, every fault the path injects is
    /// recorded as a [`FaultKind`] event; fault draws are flow-sequence
    /// keyed, so a traced flow sees the same events at any worker count
    /// (`None` costs one branch per fault site, nothing on the ideal fast
    /// path).
    pub fn udp_send_status(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        payload: &[u8],
        out: &mut Vec<Vec<u8>>,
        trace: Option<&mut TraceCtx>,
    ) -> SendStatus {
        self.flight(src, dst, std::iter::once(payload), out, trace)
            .into_send_status()
    }

    /// [`NetShard::udp_send_status`] with the status discarded — the
    /// probe-module shape. Replies are *appended* to `out` (the buffer is
    /// never cleared), so a scan loop can reuse one buffer across millions
    /// of probes — the common miss case performs no allocation — and a
    /// driver can accumulate a whole flight's replies across several sends
    /// before draining them.
    pub fn udp_send_into(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        payload: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) {
        let _ = self.flight(src, dst, std::iter::once(payload), out, None);
    }

    /// Batched send (GSO-style): delivers a whole flight of datagrams to
    /// `dst` with one endpoint lookup and at most one service-mutex
    /// acquisition, gathering every reply into `arena.replies` in delivery
    /// order. Per-datagram fault draws are identical to sending the flight
    /// one datagram at a time, so a batch is byte-equivalent to the loop it
    /// replaces. Pair with [`NetShard::udp_recv_batch`] to drain replies
    /// and [`DatagramArena::recycle`] to keep steady-state batching
    /// allocation-free.
    pub fn udp_send_batch(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: &[Vec<u8>],
        arena: &mut DatagramArena,
    ) -> FlightStatus {
        // Replace semantics: a batch owns the whole flight, so stale replies
        // from a previous undrained batch never leak into this one.
        arena.replies.clear();
        let mut replies = std::mem::take(&mut arena.replies);
        let status = self.flight(
            src,
            dst,
            flight.iter().map(Vec::as_slice),
            &mut replies,
            None,
        );
        arena.replies = replies;
        status
    }

    /// Drains the replies gathered by the last [`NetShard::udp_send_batch`]
    /// (GRO-style receive).
    pub fn udp_recv_batch<'b>(
        &mut self,
        arena: &'b mut DatagramArena,
    ) -> std::vec::Drain<'b, Vec<u8>> {
        arena.replies.drain(..)
    }

    fn flight<'p>(
        &mut self,
        src: SocketAddr,
        dst: SocketAddr,
        flight: impl Iterator<Item = &'p [u8]>,
        out: &mut Vec<Vec<u8>>,
        trace: Option<&mut TraceCtx>,
    ) -> FlightStatus {
        self.net.udp_flight(
            src,
            dst,
            flight,
            out,
            &mut self.local,
            trace,
            &self.clock,
            &mut self.flow_seq,
            &mut self.locks,
        )
    }

    /// Merges every piece of private state back into the shared network:
    /// the clock via [`SimClock::catch_up`] (shared time becomes the
    /// slowest shard's end time), traffic counters via
    /// [`LocalStats::flush`], and the cached flow-sequence counters via
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
        // A shard abandoned on a panic path still merges its state: probes
        // already sent are on the wire, so the shared counters must see
        // them (mirrors the abort-path flush the sweep engine relies on).
        self.merge();
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
        let action = {
            let mut replies = Vec::new();
            let mut ctx = ServiceCtx {
                now: self.net.clock.now(),
                replies: &mut replies,
            };
            self.handler.on_data(&mut ctx, data, &mut out)
        };
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
        fn on_data(
            &mut self,
            _ctx: &mut ServiceCtx<'_>,
            data: &[u8],
            out: &mut Vec<u8>,
        ) -> TcpAction {
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
        assert!(net.tcp_port_open(addr(1, 443)));
        assert!(!net.tcp_port_open(addr(1, 80)));
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
        net.set_loss_permille(1000);
        assert!(net.udp_send(addr(9, 1), addr(1, 443), b"x").is_empty());
        assert_eq!(net.stats.snapshot().4, 1);
    }

    #[test]
    fn partial_loss_is_roughly_calibrated() {
        let mut net = Network::new(42);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_loss_permille(300);
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
            net.set_loss_permille(400);
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

    #[test]
    fn unreachable_paths_signal_icmp() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(addr(1, 0).ip, crate::fault::LinkProfile::unreachable());
        // Other destinations keep the default (ideal) profile.
        net.bind_udp(addr(2, 443), Box::new(Echo));
        let mut shard = net.shard();
        let mut out = Vec::new();
        let status = shard.udp_send_status(addr(9, 1), addr(1, 443), b"x", &mut out, None);
        assert_eq!(status, crate::fault::SendStatus::Unreachable);
        assert!(out.is_empty());
        let status = shard.udp_send_status(addr(9, 1), addr(2, 443), b"ab", &mut out, None);
        assert_eq!(status, crate::fault::SendStatus::Sent);
        assert_eq!(out, vec![b"ba".to_vec()]);
    }

    #[test]
    fn mtu_black_holes_oversized_datagrams() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(
            addr(1, 0).ip,
            crate::fault::LinkProfile {
                mtu: Some(4),
                ..crate::fault::LinkProfile::ideal()
            },
        );
        let mut shard = net.shard();
        let mut out = Vec::new();
        // Over the MTU: silently dropped, indistinguishable from loss.
        let status = shard.udp_send_status(addr(9, 1), addr(1, 443), b"12345", &mut out, None);
        assert_eq!(status, crate::fault::SendStatus::Sent);
        assert!(out.is_empty());
        // At the MTU: delivered.
        shard.udp_send_status(addr(9, 1), addr(1, 443), b"1234", &mut out, None);
        assert_eq!(out, vec![b"4321".to_vec()]);
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
        let mut out = Vec::new();
        let mut statuses = Vec::new();
        for _ in 0..16 {
            statuses.push(shard.udp_send_status(addr(9, 1), addr(1, 443), b"x", &mut out, None));
        }
        assert!(statuses[..8]
            .iter()
            .all(|s| *s == crate::fault::SendStatus::Sent));
        assert!(statuses[8..]
            .iter()
            .all(|s| *s == crate::fault::SendStatus::Throttled));
        // A fresh flow gets its own burst allowance.
        let status = shard.udp_send_status(addr(9, 2), addr(1, 443), b"x", &mut out, None);
        assert_eq!(status, crate::fault::SendStatus::Sent);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_path_profile(
            addr(1, 0).ip,
            crate::fault::LinkProfile {
                dup_permille: 1000,
                ..crate::fault::LinkProfile::ideal()
            },
        );
        let replies = net.udp_send(addr(9, 1), addr(1, 443), b"ab");
        assert_eq!(replies, vec![b"ba".to_vec(), b"ba".to_vec()]);
    }

    #[test]
    fn reordering_swaps_the_first_two_replies() {
        struct TwoReplies;
        impl UdpService for TwoReplies {
            fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, _d: &[u8]) {
                ctx.reply(b"first".to_vec());
                ctx.reply(b"second".to_vec());
            }
        }
        let mut net = Network::new(5);
        net.bind_udp(addr(1, 443), Box::new(TwoReplies));
        net.set_path_profile(
            addr(1, 0).ip,
            crate::fault::LinkProfile {
                reorder_permille: 1000,
                ..crate::fault::LinkProfile::ideal()
            },
        );
        let replies = net.udp_send(addr(9, 1), addr(1, 443), b"x");
        assert_eq!(replies, vec![b"second".to_vec(), b"first".to_vec()]);
    }

    #[test]
    fn traced_sends_record_injected_faults() {
        use telemetry::{EventKind, FaultKind, TraceCtx};
        let mut net = Network::new(7);
        net.bind_udp(addr(1, 443), Box::new(Echo));
        net.set_loss_permille(1000);
        net.set_path_profile(addr(2, 0).ip, crate::fault::LinkProfile::unreachable());
        let mut shard = net.shard();
        let mut out = Vec::new();

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
        assert_eq!(status, crate::fault::SendStatus::Unreachable);
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
            dup_permille: 100,
            reorder_permille: 200,
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
        let mut out = Vec::new();
        let mut singles = Vec::new();
        let mut folded = FlightStatus::default();
        for d in &flight {
            match shard.udp_send_status(addr(9, 7), addr(1, 443), d, &mut out, None) {
                SendStatus::Unreachable => folded.unreachable = true,
                SendStatus::Throttled => folded.throttled = true,
                SendStatus::Sent => {}
            }
            singles.append(&mut out);
        }
        let t_singles = shard.now();
        shard.finish();
        // Batch.
        let net2 = nasty_net();
        let mut shard2 = net2.shard();
        let mut arena = DatagramArena::new();
        let status = shard2.udp_send_batch(addr(9, 7), addr(1, 443), &flight, &mut arena);
        let batched: Vec<Vec<u8>> = shard2.udp_recv_batch(&mut arena).collect();
        let t_batch = shard2.now();
        shard2.finish();
        assert_eq!(status, folded);
        assert_eq!(batched, singles);
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
        let mut arena = DatagramArena::new();
        let flight: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        shard.udp_send_batch(addr(9, 7), addr(1, 443), &flight, &mut arena);
        let mut out = Vec::new();
        shard.udp_send_into(addr(9, 7), addr(1, 443), b"x", &mut out);
        // An unbound destination costs no acquisition.
        shard.udp_send_into(addr(9, 7), addr(2, 443), b"x", &mut out);
        let c = shard.finish();
        assert_eq!(c.acquired, 2, "one per delivered flight");
        assert_eq!(c.contended, 0, "single worker never contends");
        let crosses = EndpointTable::route(&addr(9, 7)) != EndpointTable::route(&addr(1, 443));
        assert_eq!(c.cross_shard, if crosses { 11 } else { 0 });
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = DatagramArena::new();
        let mut buf = arena.take_buf();
        assert!(buf.is_empty());
        buf.extend_from_slice(b"payload");
        let cap = buf.capacity();
        arena.recycle(buf);
        let again = arena.take_buf();
        assert!(
            again.is_empty() && again.capacity() == cap,
            "capacity survives recycling"
        );
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
mod lazy_tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    struct Echo;
    impl UdpService for Echo {
        fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _from: SocketAddr, data: &[u8]) {
            let mut out = data.to_vec();
            out.reverse();
            ctx.reply(out);
        }
    }

    struct Hello;
    impl TcpHandler for Hello {
        fn on_data(&mut self, _: &mut ServiceCtx<'_>, d: &[u8], out: &mut Vec<u8>) -> TcpAction {
            out.extend_from_slice(b"hi ");
            out.extend_from_slice(d);
            TcpAction::Close
        }
    }

    /// Binds an Echo on every odd last-octet :443 address, TCP on octets
    /// divisible by 4 — a pure function of the address, as required.
    struct OddEcho;
    impl LazyBinder for OddEcho {
        fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
            match at.ip {
                IpAddr::V4(v4) if at.port == 443 && v4.octets()[3] % 2 == 1 => Some(Box::new(Echo)),
                _ => None,
            }
        }
        fn make_tcp(&self, at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
            struct F;
            impl TcpFactory for F {
                fn accept(&self, _from: SocketAddr) -> Box<dyn TcpHandler> {
                    Box::new(Hello)
                }
            }
            self.tcp_open(at)
                .then(|| Box::new(F) as Box<dyn TcpFactory>)
        }
        fn tcp_open(&self, at: SocketAddr) -> bool {
            matches!(at.ip, IpAddr::V4(v4) if at.port == 443 && v4.octets()[3] % 4 == 0)
        }
    }

    /// A lazily bound network answers byte-identically to the same
    /// population bound statically, including under an impaired profile.
    #[test]
    fn lazy_matches_static_binding() {
        let profile = LinkProfile::lossy(250);
        let run = |lazy: bool| {
            let mut net = Network::new(0x1a2);
            net.set_default_profile(profile);
            if lazy {
                net.set_lazy_binder(Box::new(OddEcho), None);
            } else {
                for last in (1..=99u8).step_by(2) {
                    net.bind_udp(addr(last, 443), Box::new(Echo));
                }
            }
            let mut shard = net.shard();
            let mut out = Vec::new();
            let mut log = Vec::new();
            for last in 1..=100u8 {
                for probe in 0..3u16 {
                    out.clear();
                    let (src, dst) = (addr(200, 9000 + probe), addr(last, 443));
                    let status = shard.udp_send_status(src, dst, b"ping", &mut out, None);
                    log.push((status, out.clone()));
                }
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    /// Sharded sends hit the lazy path too, and endpoint state persists
    /// across contacts when no capacity bound is set.
    #[test]
    fn lazy_endpoints_keep_state_without_eviction() {
        let mut net = Network::new(7);
        net.set_lazy_binder(Box::new(OddEcho), None);
        let mut shard = net.shard();
        let mut out = Vec::new();
        for _ in 0..5 {
            out.clear();
            shard.udp_send_into(addr(9, 7), addr(1, 443), b"ab", &mut out);
            assert_eq!(out, vec![b"ba".to_vec()]);
        }
        // Misses (even octet) instantiate nothing.
        out.clear();
        shard.udp_send_into(addr(9, 7), addr(2, 443), b"ab", &mut out);
        assert!(out.is_empty());
        shard.finish();
        let stats = net.lazy_stats().expect("binder installed");
        assert_eq!(stats.resident, 1, "one endpoint contacted");
        assert_eq!(stats.instantiated, 1, "cache hit on re-contact");
        assert_eq!(stats.evicted, 0);
    }

    /// A residency cap bounds the working set: sweeping many endpoints
    /// evicts FIFO, and a re-contacted endpoint is rebuilt identically.
    #[test]
    fn capacity_bounds_resident_endpoints() {
        let mut net = Network::new(7);
        net.set_lazy_binder(Box::new(OddEcho), Some(8));
        for last in (1..=199u8).step_by(2) {
            assert_eq!(
                net.udp_send(addr(200, 9), addr(last, 443), b"xy"),
                vec![b"yx".to_vec()]
            );
        }
        let stats = net.lazy_stats().expect("binder installed");
        assert_eq!(stats.instantiated, 100);
        assert!(
            stats.resident <= 9,
            "resident {} exceeds cap",
            stats.resident
        );
        assert!(stats.peak_resident <= 9, "peak {}", stats.peak_resident);
        assert_eq!(stats.evicted as usize, 100 - stats.resident);
        // An evicted endpoint comes back on demand.
        assert_eq!(
            net.udp_send(addr(200, 9), addr(1, 443), b"ab"),
            vec![b"ba".to_vec()]
        );
    }

    /// An evicted endpoint is torn down with neither the recency queue nor
    /// its cache shard locked: its destructor can be arbitrarily expensive,
    /// and every other worker's instantiation takes the queue lock.
    #[test]
    fn evicted_endpoints_drop_outside_the_cache_locks() {
        use std::sync::{OnceLock, Weak};

        struct Probe {
            at: SocketAddr,
            net: Arc<OnceLock<Weak<Network>>>,
            locked_drops: Arc<AtomicUsize>,
        }
        impl UdpService for Probe {
            fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _f: SocketAddr, d: &[u8]) {
                ctx.reply(d.to_vec());
            }
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                let Some(net) = self.net.get().and_then(Weak::upgrade) else {
                    return;
                };
                let lazy = net.lazy.as_ref().expect("binder installed");
                let shard = &lazy.shards[EndpointTable::route(&self.at)].0;
                if lazy.order.try_lock().is_none() || shard.try_lock().is_none() {
                    self.locked_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        struct Probes(Arc<OnceLock<Weak<Network>>>, Arc<AtomicUsize>);
        impl LazyBinder for Probes {
            fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
                Some(Box::new(Probe {
                    at,
                    net: self.0.clone(),
                    locked_drops: self.1.clone(),
                }))
            }
            fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
                None
            }
        }

        let (cell, locked_drops) = (Arc::new(OnceLock::new()), Arc::new(AtomicUsize::new(0)));
        let mut net = Network::new(7);
        net.set_lazy_binder(
            Box::new(Probes(cell.clone(), locked_drops.clone())),
            Some(4),
        );
        let net = Arc::new(net);
        cell.set(Arc::downgrade(&net)).expect("set once");
        for last in 1..=40u8 {
            net.udp_send(addr(200, 9), addr(last, 443), b"xy");
        }
        assert_eq!(net.lazy_stats().expect("binder installed").evicted, 36);
        assert_eq!(locked_drops.load(Ordering::Relaxed), 0);
    }

    /// Static bindings shadow the binder; the binder only fills misses.
    #[test]
    fn static_bindings_win_over_binder() {
        struct Upper;
        impl UdpService for Upper {
            fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _f: SocketAddr, d: &[u8]) {
                ctx.reply(d.to_ascii_uppercase());
            }
        }
        let mut net = Network::new(7);
        net.bind_udp(addr(1, 443), Box::new(Upper));
        net.set_lazy_binder(Box::new(OddEcho), None);
        assert_eq!(
            net.udp_send(addr(9, 1), addr(1, 443), b"ab"),
            vec![b"AB".to_vec()]
        );
        assert_eq!(
            net.udp_send(addr(9, 1), addr(3, 443), b"ab"),
            vec![b"ba".to_vec()]
        );
        assert_eq!(net.lazy_stats().unwrap().resident, 1);
    }

    /// TCP consults the binder for both the SYN question and connects, and
    /// caches the factory (connection counters survive).
    #[test]
    fn lazy_tcp_port_and_connect() {
        let mut net = Network::new(7);
        net.set_lazy_binder(Box::new(OddEcho), None);
        assert!(net.tcp_port_open(addr(4, 443)));
        assert!(!net.tcp_port_open(addr(5, 443)));
        assert_eq!(
            net.lazy_stats().unwrap().tcp_resident,
            0,
            "port check builds nothing"
        );
        assert!(net.tcp_connect(addr(9, 1), addr(5, 443)).is_none());
        let mut conn = net.tcp_connect(addr(9, 1), addr(4, 443)).expect("open");
        conn.write(b"there");
        assert_eq!(conn.read(), b"hi there");
        assert_eq!(net.lazy_stats().unwrap().tcp_resident, 1);
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
