//! Where a datagram or a SYN lands: the endpoint state behind a
//! [`crate::Network`].
//!
//! Statically bound UDP services sit in a lock-free sharded table (`&self`
//! reads of immutable-after-build maps). When a [`LazyBinder`] is installed,
//! misses fall through to it: endpoints are derived from the address on first
//! contact and cached in per-shard maps, with one global recency queue
//! bounding how many stay resident. [`Endpoints::udp`] is the one UDP lookup
//! and answers both with one handle type, [`UdpEndpoint`], which a flight
//! locks once. TCP factories live in a static map plus the binder's cache.
//!
//! Each static table has a bound-address filter in front of it: a bit set
//! over its sockets, at least 32 bits a socket, whose clear bit proves an
//! address unbound for one multiply. The common sweep miss therefore hashes
//! the address neither for a shard route nor for a map probe. The lazy path
//! has no filter of its own; on a lazy network the static filters are empty,
//! so every lookup skips the static maps and goes straight to the binder.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::SocketAddr;
use crate::fasthash::FastMap;
use crate::fault;
use crate::net::{TcpFactory, TcpHandler, UdpService};

/// Shard count for the endpoint registry (power of two). Endpoints are
/// routed by the same FxHash the flow-fault draws key on, so a worker
/// sweeping its slice of the scan-index domain touches a stable subset of
/// shards.
const ENDPOINT_SHARDS: usize = 64;

/// Pads the inner value to its own cache line: shards and the flow-sequence
/// mutexes live in arrays, and without padding two adjacent buckets share a
/// line and false-share under parallel scans.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct CacheAligned<T>(pub(crate) T);

/// Which endpoint shard an address lives in (same FxHash family as the flow
/// fault draws).
pub(crate) fn route(at: &SocketAddr) -> usize {
    (fault::addr_hash(*at) as usize) & (ENDPOINT_SHARDS - 1)
}

/// Bits a bound-address filter keeps per bound socket, at least: one hash
/// and 32 bits a socket let through at most 1 miss in 32.
const FILTER_BITS_PER_SOCKET: usize = 32;

/// A bit set over the statically bound sockets of one table, one bit per
/// socket: a clear bit proves `at` unbound, so a miss skips the shard route
/// and the map and pays one multiply. The bit is the top bits of a product
/// of explicit words of the address and port, not std's `Hash`. When the
/// bound sockets outgrow `FILTER_BITS_PER_SOCKET` bits each, the set is
/// rebuilt from the table's keys at twice that.
struct BoundFilter {
    words: Vec<u64>,
    /// `64 - log2(bits)`.
    shift: u32,
    /// Sockets the set was built for or has had inserted since.
    len: usize,
}

impl BoundFilter {
    /// An empty set of 64 bits: every lookup misses.
    fn new() -> Self {
        BoundFilter {
            words: vec![0],
            shift: 64 - 6,
            len: 0,
        }
    }

    fn bit(&self, at: &SocketAddr) -> u64 {
        let ip = at.ip.as_u128();
        let word = (ip as u64) ^ ((ip >> 64) as u64).rotate_left(32) ^ (u64::from(at.port) << 48);
        word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift
    }

    fn set(&mut self, at: &SocketAddr) {
        let bit = self.bit(at);
        self.words[(bit >> 6) as usize] |= 1 << (bit & 63);
    }

    /// Whether `at` may be bound (`false`: it is not).
    fn may_contain(&self, at: &SocketAddr) -> bool {
        let bit = self.bit(at);
        self.words[(bit >> 6) as usize] >> (bit & 63) & 1 != 0
    }

    /// Adds a newly bound `at`; `bound` is every bound socket, `at`
    /// included, and is walked only when the set regrows.
    fn insert<'k>(&mut self, at: &SocketAddr, bound: impl Iterator<Item = &'k SocketAddr>) {
        self.len += 1;
        if self.len * FILTER_BITS_PER_SOCKET <= self.words.len() * 64 {
            self.set(at);
            return;
        }
        let bits = (self.len * 2 * FILTER_BITS_PER_SOCKET).next_power_of_two();
        *self = BoundFilter {
            words: vec![0; bits / 64],
            shift: 64 - bits.trailing_zeros(),
            len: 0,
        };
        for at in bound {
            self.set(at);
            self.len += 1;
        }
    }
}

/// One UDP service behind the mutex that keeps its host single-threaded.
type Service = Mutex<Box<dyn UdpService>>;

/// Constructs endpoint services *on first contact* for addresses absent from
/// the statically bound tables — the hook a lazily materialized universe
/// plugs into ([`crate::Network::set_lazy_binder`]). Implementations must be
/// pure functions of the address (plus captured seed/config): the same
/// address must always yield a behaviourally identical endpoint, because
/// eviction under a residency cap may rebuild an endpoint mid-scan.
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
/// [`crate::Network::lazy_stats`]). `peak_resident` is the working-set bound
/// the O(responsive-hosts) memory claim rests on.
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

/// The UDP endpoint a flight delivers to: bound for the network's lifetime,
/// or a resident lazy endpoint, which the handle pins against eviction.
pub(crate) enum UdpEndpoint<'n> {
    Bound(&'n Service),
    Lazy(Arc<Service>),
}

impl UdpEndpoint<'_> {
    /// The endpoint's service mutex.
    pub(crate) fn service(&self) -> &Service {
        match self {
            UdpEndpoint::Bound(service) => service,
            UdpEndpoint::Lazy(service) => service,
        }
    }
}

/// Every endpoint of a network: the statically bound UDP services, sharded
/// by destination-address hash so each worker's probe stream walks a small,
/// cache-resident table; the static TCP factories; and the lazy binder's
/// state, engaged only when the static tables miss.
pub(crate) struct Endpoints {
    udp: Vec<CacheAligned<FastMap<SocketAddr, Service>>>,
    udp_bound: BoundFilter,
    tcp: FastMap<SocketAddr, Box<dyn TcpFactory>>,
    tcp_bound: BoundFilter,
    lazy: Option<LazyState>,
}

impl Endpoints {
    pub(crate) fn new() -> Self {
        Endpoints {
            udp: (0..ENDPOINT_SHARDS)
                .map(|_| CacheAligned(FastMap::default()))
                .collect(),
            udp_bound: BoundFilter::new(),
            tcp: FastMap::default(),
            tcp_bound: BoundFilter::new(),
            lazy: None,
        }
    }

    pub(crate) fn bind_udp(&mut self, at: SocketAddr, service: Box<dyn UdpService>) {
        if self.udp[route(&at)]
            .0
            .insert(at, Mutex::new(service))
            .is_none()
        {
            let bound = self.udp.iter().flat_map(|shard| shard.0.keys());
            self.udp_bound.insert(&at, bound);
        }
    }

    pub(crate) fn bind_tcp(&mut self, at: SocketAddr, factory: Box<dyn TcpFactory>) {
        if self.tcp.insert(at, factory).is_none() {
            self.tcp_bound.insert(&at, self.tcp.keys());
        }
    }

    pub(crate) fn set_lazy_binder(&mut self, binder: Box<dyn LazyBinder>, capacity: Option<usize>) {
        self.lazy = Some(LazyState {
            binder,
            capacity,
            shards: (0..ENDPOINT_SHARDS)
                .map(|_| CacheAligned(Mutex::new(FastMap::default())))
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

    pub(crate) fn lazy_stats(&self) -> Option<LazyStats> {
        self.lazy.as_ref().map(|l| LazyStats {
            resident: l.resident.load(Ordering::Relaxed),
            peak_resident: l.peak.load(Ordering::Relaxed),
            instantiated: l.instantiated.load(Ordering::Relaxed),
            evicted: l.evicted.load(Ordering::Relaxed),
            tcp_resident: l.tcp.lock().len(),
        })
    }

    pub(crate) fn udp_count(&self) -> usize {
        self.udp.iter().map(|s| s.0.len()).sum()
    }

    pub(crate) fn tcp_count(&self) -> usize {
        self.tcp.len()
    }

    /// Whether a UDP endpoint may live at `at` (`false`: nothing bound
    /// there, and no binder to ask).
    pub(crate) fn udp_may_exist(&self, at: &SocketAddr) -> bool {
        self.lazy.is_some() || self.udp_bound.may_contain(at)
    }

    /// The UDP endpoint at `at`: the bound one, else the binder's
    /// cached-or-instantiated one (`None` when nothing lives there).
    pub(crate) fn udp(&self, at: &SocketAddr) -> Option<UdpEndpoint<'_>> {
        if self.udp_bound.may_contain(at) {
            if let Some(service) = self.udp[route(at)].0.get(at) {
                return Some(UdpEndpoint::Bound(service));
            }
        }
        self.lazy.as_ref()?.udp(at).map(UdpEndpoint::Lazy)
    }

    /// Whether TCP `at` answers a SYN; the binder answers from membership
    /// alone, building no factory.
    pub(crate) fn tcp_open(&self, at: SocketAddr) -> bool {
        (self.tcp_bound.may_contain(&at) && self.tcp.contains_key(&at))
            || self.lazy.as_ref().is_some_and(|l| l.binder.tcp_open(at))
    }

    /// A handler for a connection from `from` to TCP `at` (`None`: closed).
    pub(crate) fn tcp_accept(
        &self,
        at: &SocketAddr,
        from: SocketAddr,
    ) -> Option<Box<dyn TcpHandler>> {
        match self.tcp.get(at) {
            Some(factory) => Some(factory.accept(from)),
            None => Some(self.lazy.as_ref()?.tcp_factory(at)?.accept(from)),
        }
    }
}

/// Cached lazy endpoint: shared service handle plus last-touch generation.
type LazyEntry = (Arc<Service>, u64);

/// The lazy-instantiation state: the binder that derives endpoints from
/// addresses, per-shard caches of the endpoints contacted so far (sharded by
/// the same address hash as the static table), and residency accounting.
struct LazyState {
    binder: Box<dyn LazyBinder>,
    /// UDP residency cap; `None` = cache every contacted endpoint (the
    /// byte-identical paper-scale mode, where endpoint state must survive
    /// the whole campaign).
    capacity: Option<usize>,
    /// Address → (service, last-touch generation); the generation marks
    /// which `order` entry for an address is current.
    shards: Vec<CacheAligned<Mutex<FastMap<SocketAddr, LazyEntry>>>>,
    /// Global recency queue driving eviction (least recently *touched*
    /// first), global across shards so the cap applies to the whole cache:
    /// every contact re-pushes `(addr, generation)` and stale entries —
    /// whose generation no longer matches the shard's — are dropped when
    /// popped, classic lazy-deletion LRU. Recency, not insertion order,
    /// matters: an endpoint mid-handshake was inserted long ago but touched
    /// a datagram ago, and evicting it would wipe its connection state while
    /// the peer is still talking to it. Lock order is always `order` →
    /// cache shard (never the reverse), so concurrent inserts evicting
    /// victims from foreign shards cannot deadlock.
    order: Mutex<VecDeque<(SocketAddr, u64)>>,
    /// Touch-generation counter stamping queue entries.
    generation: AtomicU64,
    tcp: Mutex<FastMap<SocketAddr, Arc<dyn TcpFactory>>>,
    resident: AtomicUsize,
    peak: AtomicUsize,
    instantiated: AtomicU64,
    evicted: AtomicU64,
}

impl LazyState {
    fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The cached-or-instantiated endpoint at `at` (`None` when the binder
    /// says nothing lives there). Construction runs outside the cache-shard
    /// lock; the first insert wins, so concurrent flights agree on one
    /// instance.
    fn udp(&self, at: &SocketAddr) -> Option<Arc<Service>> {
        let shard = &self.shards[route(at)].0;
        // Hit path: restamp the entry's generation (a *touch*) so eviction
        // sees it as recently used, then record the touch in the recency
        // queue. The shard lock is released before the queue lock is taken,
        // keeping the `order` → shard lock order intact.
        let hit = shard.lock().get_mut(at).map(|(svc, stamp)| {
            let touch = self.capacity.map(|cap| {
                *stamp = self.next_generation();
                (*stamp, cap)
            });
            (svc.clone(), touch)
        });
        if let Some((svc, touch)) = hit {
            if let Some((stamp, cap)) = touch {
                self.touch(*at, stamp, cap);
            }
            return Some(svc);
        }
        let built = self.binder.make_udp(*at)?;
        let (svc, stamp) = {
            let mut cache = shard.lock();
            if let Some((svc, _)) = cache.get(at) {
                return Some(svc.clone());
            }
            let svc = Arc::new(Mutex::new(built));
            let stamp = self.next_generation();
            cache.insert(*at, (svc.clone(), stamp));
            (svc, stamp)
        };
        self.instantiated.fetch_add(1, Ordering::Relaxed);
        let resident = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(resident, Ordering::Relaxed);
        let Some(cap) = self.capacity else {
            // Paper mode: everything stays resident, no queue to maintain.
            return Some(svc);
        };
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
        let mut order = self.order.lock();
        order.push_back((*at, stamp));
        let mut attempts = order.len();
        while self.resident.load(Ordering::Relaxed) > cap && attempts > 0 {
            attempts -= 1;
            let Some((victim, vstamp)) = order.pop_front() else {
                break;
            };
            let mut vshard = self.shards[route(&victim)].0.lock();
            match vshard.get(&victim) {
                Some((_, stamp)) if *stamp != vstamp => {} // stale entry
                Some((v, _)) if Arc::strong_count(v) == 1 => {
                    evicted.extend(vshard.remove(&victim));
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
                Some(_) => {
                    drop(vshard);
                    order.push_back((victim, vstamp));
                }
                None => {}
            }
        }
        drop(order);
        drop(evicted);
        Some(svc)
    }

    /// Records a touch in the recency queue. Touches append lazily deleted
    /// duplicates, so when the queue outgrows the cache by a wide margin the
    /// same lock hold drops every stale entry. Amortized O(1) per touch.
    fn touch(&self, at: SocketAddr, stamp: u64, cap: usize) {
        let mut order = self.order.lock();
        order.push_back((at, stamp));
        if order.len() > cap.saturating_mul(8).max(1024) {
            order.retain(|(addr, stamp)| {
                let shard = self.shards[route(addr)].0.lock();
                matches!(shard.get(addr), Some((_, s)) if s == stamp)
            });
        }
    }

    /// The cached-or-instantiated TCP factory at `at`. TCP factories are
    /// cached for the network's lifetime — they carry per-host connection
    /// counters (TLS randomness seeds) whose continuity the materialized
    /// path provides by construction.
    fn tcp_factory(&self, at: &SocketAddr) -> Option<Arc<dyn TcpFactory>> {
        if let Some(f) = self.tcp.lock().get(at) {
            return Some(f.clone());
        }
        let built = self.binder.make_tcp(*at)?;
        let mut map = self.tcp.lock();
        if let Some(f) = map.get(at) {
            return Some(f.clone());
        }
        let f: Arc<dyn TcpFactory> = Arc::from(built);
        map.insert(*at, f.clone());
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, Ipv4Addr};
    use crate::fault::LinkProfile;
    use crate::net::{Network, ServiceCtx, TcpAction};

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
    /// evicts the least recently touched, and a re-contacted endpoint is
    /// rebuilt identically.
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
            endpoints: Arc<OnceLock<Weak<Endpoints>>>,
            locked_drops: Arc<AtomicUsize>,
        }
        impl UdpService for Probe {
            fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _f: SocketAddr, d: &[u8]) {
                ctx.reply(d.to_vec());
            }
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                let Some(endpoints) = self.endpoints.get().and_then(Weak::upgrade) else {
                    return;
                };
                let lazy = endpoints.lazy.as_ref().expect("binder installed");
                let shard = &lazy.shards[route(&self.at)].0;
                if lazy.order.try_lock().is_none() || shard.try_lock().is_none() {
                    self.locked_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        struct Probes(Arc<OnceLock<Weak<Endpoints>>>, Arc<AtomicUsize>);
        impl LazyBinder for Probes {
            fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
                Some(Box::new(Probe {
                    at,
                    endpoints: self.0.clone(),
                    locked_drops: self.1.clone(),
                }))
            }
            fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
                None
            }
        }

        let (cell, locked_drops) = (Arc::new(OnceLock::new()), Arc::new(AtomicUsize::new(0)));
        let mut endpoints = Endpoints::new();
        endpoints.set_lazy_binder(
            Box::new(Probes(cell.clone(), locked_drops.clone())),
            Some(4),
        );
        let endpoints = Arc::new(endpoints);
        cell.set(Arc::downgrade(&endpoints)).expect("set once");
        for last in 1..=40u8 {
            // A flight holds the handle while it delivers, then drops it.
            drop(endpoints.udp(&addr(last, 443)));
        }
        assert_eq!(
            endpoints.lazy_stats().expect("binder installed").evicted,
            36
        );
        assert_eq!(locked_drops.load(Ordering::Relaxed), 0);
    }

    /// A lazy endpoint is locked once per flight, as a bound one is.
    #[test]
    fn lazy_flight_locks_once() {
        let mut net = Network::new(7);
        net.set_lazy_binder(Box::new(OddEcho), Some(8));
        let mut shard = net.shard();
        let mut arena = crate::net::DatagramArena::new();
        let flight: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i]).collect();
        shard.udp_send_batch(addr(9, 7), addr(1, 443), &flight, &mut arena);
        assert_eq!(arena.replies.len(), 10);
        assert_eq!(shard.finish().acquired, 1);
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

    /// `acquired` and `cross_shard` of one fixed sequence of hits, misses
    /// and silent endpoints, single sends and batches, from four sources,
    /// clean and lossy, by value: what a flight counts does not depend on
    /// how its endpoint was found or when its shard route was hashed.
    #[test]
    fn lock_counters_of_a_mixed_sequence() {
        struct Silent;
        impl UdpService for Silent {
            fn on_datagram(&mut self, _: &mut ServiceCtx<'_>, _: SocketAddr, _: &[u8]) {}
        }
        let mut counted = Vec::new();
        for profile in [LinkProfile::ideal(), LinkProfile::lossy(250)] {
            let mut net = Network::new(0x9000);
            net.set_default_profile(profile);
            for last in 0..64u8 {
                match last % 3 {
                    0 => net.bind_udp(addr(last, 443), Box::new(Silent)),
                    1 => net.bind_udp(addr(last, 443), Box::new(Echo)),
                    _ => {}
                }
            }
            let mut shard = net.shard();
            let (mut out, mut arena) = (Vec::new(), crate::net::DatagramArena::new());
            let flight: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i]).collect();
            for src in 200..204u8 {
                for last in 0..64u8 {
                    let (src, dst) = (addr(src, 9000), addr(last, 443));
                    shard.udp_send_into(src, dst, b"ping", &mut out);
                    shard.udp_send_batch(src, dst, &flight, &mut arena);
                }
            }
            let c = shard.finish();
            counted.push((c.acquired, c.cross_shard));
        }
        assert_eq!(counted, [(344, 830), (298, 624)]);
    }

    /// Random v4 and v6 sockets, 6,000 each for UDP and TCP, regrow both
    /// filters many times over: every bound socket still answers, every
    /// unbound one (the other protocol's sockets included) still misses, on
    /// a clean path and on an impaired one, and the UDP filter lets few of
    /// the misses through to the map.
    #[test]
    fn bound_filters_only_skip_absent_sockets() {
        use crate::addr::Ipv6Addr;
        struct Greeter;
        impl TcpFactory for Greeter {
            fn accept(&self, _from: SocketAddr) -> Box<dyn TcpHandler> {
                Box::new(Hello)
            }
        }
        let socket = |i: u64| {
            let (a, b) = (fault::mix(i), fault::mix(!i));
            let port = (b >> 48) as u16;
            match i % 2 {
                0 => SocketAddr::new(Ipv4Addr::from(a as u32), port),
                _ => SocketAddr::new(Ipv6Addr::from(u128::from(a) << 64 | u128::from(b)), port),
            }
        };
        let udp: Vec<SocketAddr> = (0..6_000).map(socket).collect();
        let tcp: Vec<SocketAddr> = (6_000..12_000).map(socket).collect();
        let mut net = Network::new(7);
        for &at in &udp {
            net.bind_udp(at, Box::new(Echo));
        }
        for &at in &tcp {
            net.bind_tcp(at, Box::new(Greeter));
        }
        let filters = [&net.endpoints.udp_bound, &net.endpoints.tcp_bound];
        for (filter, bound) in filters.into_iter().zip([&udp, &tcp]) {
            assert_eq!(filter.len, bound.len());
            assert!(filter.words.len() * 64 >= bound.len() * FILTER_BITS_PER_SOCKET);
        }

        let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 9000);
        let bound: std::collections::HashSet<_> = udp.iter().chain(&tcp).collect();
        let unbound: Vec<SocketAddr> = (12_000..52_000)
            .map(socket)
            .filter(|at| !bound.contains(at))
            .collect();
        // A clean path asks the filter before its flight starts; a jittered
        // one, lossless too, asks it inside `Endpoints::udp`.
        let jittered = LinkProfile {
            jitter_us: 1,
            ..LinkProfile::ideal()
        };
        for profile in [LinkProfile::ideal(), jittered] {
            net.set_default_profile(profile);
            for &at in &udp {
                assert_eq!(net.udp_send(src, at, b"ab"), vec![b"ba".to_vec()], "{at}");
                assert!(!net.tcp_port_open(at), "{at}");
            }
            for &at in &tcp {
                assert!(net.tcp_port_open(at), "{at}");
                assert!(net.udp_send(src, at, b"ab").is_empty(), "{at}");
            }
            for &at in &unbound {
                assert!(net.udp_send(src, at, b"ab").is_empty(), "{at}");
                assert!(!net.tcp_port_open(at), "{at}");
            }
        }
        let let_through = unbound
            .iter()
            .filter(|at| net.endpoints.udp_bound.may_contain(at))
            .count();
        assert!(
            let_through * 16 < unbound.len(),
            "{let_through} of {}",
            unbound.len()
        );
    }
}
