//! Where a datagram or a SYN lands: the endpoint state behind a
//! [`crate::Network`].
//!
//! Statically bound UDP services sit in a lock-free sharded table (`&self`
//! reads of immutable-after-build maps). When a [`LazyBinder`] is installed,
//! misses fall through to it: endpoints are derived from the address on first
//! contact and cached in sharded maps, each shard with its own recency queue
//! and its own share of the residency cap, so one lookup takes one lock.
//! [`Endpoints::udp`] is the one UDP lookup and answers both with one handle
//! type, [`UdpEndpoint`], which a flight locks once. TCP factories live in a
//! static map plus the binder's cache.
//!
//! Each static table has a bound-address filter in front of it: a bit set
//! over its sockets, at least 32 bits a socket, whose clear bit proves an
//! address unbound for one multiply. The common sweep miss therefore hashes
//! the address neither for a shard route nor for a map probe. The lazy path
//! asks the binder instead ([`LazyBinder::udp_open`], pure and building
//! nothing), so a lazy network's miss takes no cache lock either, and a
//! datagram the binder can answer without an endpoint
//! ([`LazyBinder::answer_udp`], a stateless Version Negotiation) is
//! answered before the cache is looked at.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::SocketAddr;
use crate::datagrams::Datagrams;
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

    /// Whether a UDP endpoint lives at `at`: exactly `make_udp(at).is_some()`,
    /// answered without building anything. A flight asks it before any
    /// cache lock is taken, so a sweep's miss touches no shared state.
    fn udp_open(&self, at: SocketAddr) -> bool;

    /// Answers `datagram` to UDP `at` without an endpoint, appending any
    /// reply to `replies`; `true` when it did, `false` to leave the
    /// datagram to `make_udp(at)`'s endpoint. What it answers must be what
    /// that endpoint would, in any state it could be in: a reply that is a
    /// function of the address and the datagram alone, such as a stateless
    /// Version Negotiation. It is asked before the cache, so an answered
    /// datagram builds nothing, takes no lock and refreshes no endpoint's
    /// recency. Defaults to answering nothing.
    fn answer_udp(&self, _at: SocketAddr, _datagram: &[u8], _replies: &mut Datagrams) -> bool {
        false
    }

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
/// [`crate::Network::lazy_stats`]), summed over its shards. `peak_resident`
/// is the working-set bound the O(responsive-hosts) memory claim rests on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// UDP endpoints currently instantiated.
    pub resident: usize,
    /// Sum of the shards' high-water marks of resident endpoints: an upper
    /// bound on the high-water mark of `resident` (shards peak at different
    /// times), exact when the cache has one shard.
    pub peak_resident: usize,
    /// Total UDP endpoint constructions (rebuilds after eviction included).
    pub instantiated: u64,
    /// Endpoints evicted under the residency cap.
    pub evicted: u64,
    /// Datagrams the binder answered without an endpoint
    /// ([`LazyBinder::answer_udp`]).
    pub stateless: u64,
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

/// What a UDP lookup found for one datagram.
pub(crate) enum UdpLookup<'n> {
    /// The endpoint to deliver it to (`None`: nothing lives there).
    Endpoint(Option<UdpEndpoint<'n>>),
    /// The binder answered it without one ([`LazyBinder::answer_udp`]).
    Answered,
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
        self.lazy = Some(LazyState::new(binder, capacity));
    }

    /// The cache shards' counts summed; `stateless` stays 0 here, since
    /// the network's traffic counters hold it.
    pub(crate) fn lazy_stats(&self) -> Option<LazyStats> {
        let lazy = self.lazy.as_ref()?;
        let mut stats = LazyStats {
            tcp_resident: lazy.tcp.lock().len(),
            ..LazyStats::default()
        };
        for shard in &lazy.shards {
            let shard = shard.0.lock();
            stats.resident += shard.map.len();
            stats.peak_resident += shard.peak;
            stats.instantiated += shard.instantiated;
            stats.evicted += shard.evicted;
        }
        Some(stats)
    }

    pub(crate) fn udp_count(&self) -> usize {
        self.udp.iter().map(|s| s.0.len()).sum()
    }

    pub(crate) fn tcp_count(&self) -> usize {
        self.tcp.len()
    }

    /// Whether a UDP endpoint may live at `at` (`false`: nothing is bound
    /// there and the binder, if any, says nothing lives there). Takes no
    /// lock.
    pub(crate) fn udp_may_exist(&self, at: &SocketAddr) -> bool {
        self.udp_bound.may_contain(at) || self.lazy.as_ref().is_some_and(|l| l.binder.udp_open(*at))
    }

    /// Where `datagram` to UDP `at` goes: the bound endpoint; else, with a
    /// binder, its stateless answer appended to `replies`, or its
    /// cached-or-instantiated endpoint.
    pub(crate) fn udp(
        &self,
        at: &SocketAddr,
        datagram: &[u8],
        replies: &mut Datagrams,
    ) -> UdpLookup<'_> {
        if self.udp_bound.may_contain(at) {
            if let Some(service) = self.udp[route(at)].0.get(at) {
                return UdpLookup::Endpoint(Some(UdpEndpoint::Bound(service)));
            }
        }
        let Some(lazy) = &self.lazy else {
            return UdpLookup::Endpoint(None);
        };
        if lazy.binder.answer_udp(*at, datagram, replies) {
            return UdpLookup::Answered;
        }
        UdpLookup::Endpoint(lazy.udp(at).map(UdpEndpoint::Lazy))
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

/// Fewest endpoints a lazy cache shard keeps resident under a cap: the
/// shard count is chosen so every shard's share of the cap is at least this.
const MIN_SHARD_WINDOW: usize = 64;

/// Lazy cache shards for a residency cap: the largest power of two at most
/// `cap / MIN_SHARD_WINDOW`, clamped to `1..=ENDPOINT_SHARDS`, so a cap
/// below `2 * MIN_SHARD_WINDOW` keeps one cache-wide recency queue. An
/// uncapped cache has nothing to evict and takes every shard.
fn lazy_shard_count(capacity: Option<usize>) -> usize {
    match capacity {
        None => ENDPOINT_SHARDS,
        Some(cap) => 1 << (cap / MIN_SHARD_WINDOW).clamp(1, ENDPOINT_SHARDS).ilog2(),
    }
}

/// The lazy-instantiation state: the binder that derives endpoints from
/// addresses, and shards of the endpoints contacted so far. Each shard is
/// self-contained under its one mutex, so a lookup, an instantiation and
/// the evictions it causes lock one shard and nothing else.
struct LazyState {
    binder: Box<dyn LazyBinder>,
    /// A power of two ([`lazy_shard_count`]) of cache shards.
    shards: Vec<CacheAligned<Mutex<LazyShard>>>,
    tcp: Mutex<FastMap<SocketAddr, Arc<dyn TcpFactory>>>,
}

/// One lazy cache shard: its endpoints, its recency queue and its share of
/// the residency cap, plus its counters.
struct LazyShard {
    /// Address → (service, last-touch generation); the generation marks
    /// which `order` entry for an address is current.
    map: FastMap<SocketAddr, LazyEntry>,
    /// This shard's share of the residency cap; `None` = keep every
    /// contacted endpoint (the byte-identical paper-scale mode, where
    /// endpoint state must survive the whole campaign), and no queue.
    cap: Option<usize>,
    /// Recency queue driving eviction (least recently *touched* first):
    /// every contact re-pushes `(addr, generation)` and stale entries —
    /// whose generation no longer matches the map's — are dropped when
    /// popped, classic lazy-deletion LRU. Recency, not insertion order,
    /// matters: an endpoint mid-handshake was inserted long ago but touched
    /// a datagram ago, and evicting it would wipe its connection state while
    /// the peer is still talking to it.
    order: VecDeque<(SocketAddr, u64)>,
    /// Touch-generation counter stamping queue entries.
    generation: u64,
    /// High-water mark of `map.len()`.
    peak: usize,
    instantiated: u64,
    evicted: u64,
}

impl LazyState {
    fn new(binder: Box<dyn LazyBinder>, capacity: Option<usize>) -> Self {
        let count = lazy_shard_count(capacity);
        LazyState {
            binder,
            shards: (0..count)
                .map(|i| {
                    // Shares of the cap sum to the cap.
                    let cap = capacity.map(|cap| cap / count + usize::from(i < cap % count));
                    CacheAligned(Mutex::new(LazyShard {
                        map: FastMap::default(),
                        cap,
                        order: VecDeque::new(),
                        generation: 0,
                        peak: 0,
                        instantiated: 0,
                        evicted: 0,
                    }))
                })
                .collect(),
            tcp: Mutex::new(FastMap::default()),
        }
    }

    /// Index of the cache shard `at` lives in: the top bits of its address
    /// hash, which are evenly spread. [`route`]'s low bits are not: over the
    /// port-443 sockets of a v4 /10 they take 32 of their 64 values, which
    /// would leave half the shards, and half the cap, unused.
    fn shard_index(&self, at: &SocketAddr) -> usize {
        (fault::addr_hash(*at) >> (64 - ENDPOINT_SHARDS.ilog2())) as usize & (self.shards.len() - 1)
    }

    /// The cache shard `at` lives in.
    fn shard(&self, at: &SocketAddr) -> &Mutex<LazyShard> {
        &self.shards[self.shard_index(at)].0
    }

    /// The cached-or-instantiated endpoint at `at` (`None` when the binder
    /// says nothing lives there). Construction runs outside the shard lock;
    /// the first insert wins, so concurrent flights agree on one instance.
    /// Victims of the insert, and a construction that lost the race, are
    /// torn down after the lock is released: an endpoint's destructor frees
    /// its whole connection table.
    fn udp(&self, at: &SocketAddr) -> Option<Arc<Service>> {
        let shard = self.shard(at);
        if let Some(svc) = shard.lock().touch(at) {
            return Some(svc);
        }
        let built = Arc::new(Mutex::new(self.binder.make_udp(*at)?));
        let mut evicted = Vec::new();
        let raced = shard.lock().insert(*at, &built, &mut evicted);
        drop(evicted);
        Some(raced.unwrap_or(built))
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

impl LazyShard {
    /// The cached endpoint at `at`, restamped as just used (a *touch*) when
    /// the shard evicts. Touches append lazily deleted duplicates to the
    /// queue, so when it outgrows the shard's cap by a wide margin the same
    /// lock hold drops every stale entry. Amortized O(1) per touch.
    fn touch(&mut self, at: &SocketAddr) -> Option<Arc<Service>> {
        let (svc, stamp) = self.map.get_mut(at)?;
        let svc = svc.clone();
        if let Some(cap) = self.cap {
            self.generation += 1;
            *stamp = self.generation;
            self.order.push_back((*at, self.generation));
            if self.order.len() > cap.saturating_mul(8).max(1024) {
                let map = &self.map;
                self.order
                    .retain(|(addr, stamp)| matches!(map.get(addr), Some((_, s)) if s == stamp));
            }
        }
        Some(svc)
    }

    /// Caches `built` at `at` and evicts past the cap, moving victims into
    /// `evicted`; returns the endpoint already cached there instead when a
    /// concurrent flight inserted first. Stale queue entries (an address
    /// touched again since — generation mismatch) are dropped; entries a
    /// flight still holds (Arc strong count > 1, including the one just
    /// built, which the caller is about to return) are rotated to the back.
    /// Residency is bounded by the cap plus whatever is concurrently in use;
    /// the attempts bound stops the loop when everything left is in use.
    fn insert(
        &mut self,
        at: SocketAddr,
        built: &Arc<Service>,
        evicted: &mut Vec<LazyEntry>,
    ) -> Option<Arc<Service>> {
        if let Some((svc, _)) = self.map.get(&at) {
            return Some(svc.clone());
        }
        self.generation += 1;
        self.map.insert(at, (built.clone(), self.generation));
        self.instantiated += 1;
        self.peak = self.peak.max(self.map.len());
        let cap = self.cap?;
        self.order.push_back((at, self.generation));
        let mut attempts = self.order.len();
        while self.map.len() > cap && attempts > 0 {
            attempts -= 1;
            let Some((victim, vstamp)) = self.order.pop_front() else {
                break;
            };
            match self.map.get(&victim) {
                Some((_, stamp)) if *stamp != vstamp => {} // stale entry
                Some((v, _)) if Arc::strong_count(v) == 1 => {
                    evicted.extend(self.map.remove(&victim));
                    self.evicted += 1;
                }
                Some(_) => self.order.push_back((victim, vstamp)),
                None => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{IpAddr, Ipv4Addr};
    use crate::fault::LinkProfile;
    use crate::net::{Network, ServiceCtx, TcpAction};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    /// Finds the endpoint at `at` as a flight's first datagram does, and
    /// lets go of it.
    fn contact(endpoints: &Endpoints, at: &SocketAddr) {
        drop(endpoints.udp(at, b"", &mut crate::Datagrams::new()));
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
        fn on_data(&mut self, d: &[u8], out: &mut Vec<u8>) -> TcpAction {
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
            self.udp_open(at)
                .then(|| Box::new(Echo) as Box<dyn UdpService>)
        }
        fn udp_open(&self, at: SocketAddr) -> bool {
            matches!(at.ip, IpAddr::V4(v4) if at.port == 443 && v4.octets()[3] % 2 == 1)
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

    /// `OddEcho` answering datagrams that start with `v` itself, as its
    /// endpoints would.
    struct AnsweringEcho;
    impl LazyBinder for AnsweringEcho {
        fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
            OddEcho.make_udp(at)
        }
        fn udp_open(&self, at: SocketAddr) -> bool {
            OddEcho.udp_open(at)
        }
        fn answer_udp(&self, at: SocketAddr, datagram: &[u8], replies: &mut Datagrams) -> bool {
            let answers = self.udp_open(at) && datagram.first() == Some(&b'v');
            if answers {
                replies.push_with(|buf| buf.extend(datagram.iter().rev()));
            }
            answers
        }
        fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
            None
        }
    }

    /// Datagrams the binder answers itself get the endpoint's replies, take
    /// its clock time and count its traffic, on a clean and on a lossy path,
    /// alone and inside a flight; what they skip is the endpoint: no build,
    /// no lock. A flight's datagrams after the one that found its endpoint
    /// go to that endpoint. Every address gets a single send, the first 20
    /// a flight too.
    #[test]
    fn stateless_answers_match_the_endpoints() {
        let run = |binder: Box<dyn LazyBinder>, profile: LinkProfile| {
            let mut net = Network::new(7);
            net.set_default_profile(profile);
            net.set_lazy_binder(binder, Some(8));
            let mut shard = net.shard();
            let mut flight = Datagrams::new();
            for d in [b"v1", b"x2", b"v3"] {
                flight.push(d);
            }
            let mut log = Vec::new();
            for last in 1..=40u8 {
                let (src, dst) = (addr(200, 9000), addr(last, 443));
                let (mut single, mut replies) = (Datagrams::new(), Datagrams::new());
                let status = shard.udp_send_status(src, dst, b"vn", &mut single, None);
                if last <= 20 {
                    shard.udp_send_flight(src, dst, &flight, &mut replies, usize::MAX);
                }
                log.push((status, single, replies));
            }
            let now = shard.now();
            let acquired = shard.finish().acquired;
            let stats = net.lazy_stats().expect("binder installed");
            (log, now, net.stats.snapshot(), acquired, stats)
        };
        for profile in [LinkProfile::ideal(), LinkProfile::lossy(250)] {
            let (log, now, traffic, acquired, stats) = run(Box::new(AnsweringEcho), profile);
            let built = run(Box::new(OddEcho), profile);
            assert_eq!((&log, now, traffic), (&built.0, built.1, built.2));
            assert_eq!(built.4.stateless, 0);
            assert!(stats.stateless > 0 && stats.instantiated < built.4.instantiated);
            assert!(acquired < built.3);
            if profile.is_ideal() {
                // 20 odd addresses, 10 of them sent a flight. Answered: the
                // single sends and each flight's first datagram; `x2` builds
                // and locks, `v3` follows it.
                assert_eq!(
                    (stats.stateless, stats.instantiated, acquired),
                    (30, 10, 10)
                );
                assert_eq!((built.4.instantiated, built.3), (20, 30));
            }
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
            let mut out = crate::Datagrams::new();
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

    /// An evicted endpoint is torn down with its cache shard unlocked — the
    /// only lock an instantiation takes: its destructor can be arbitrarily
    /// expensive, and every other flight routed to the shard waits on it.
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
                if lazy.shard(&self.at).try_lock().is_none() {
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
            fn udp_open(&self, _at: SocketAddr) -> bool {
                true
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
            contact(&endpoints, &addr(last, 443));
        }
        assert_eq!(
            endpoints.lazy_stats().expect("binder installed").evicted,
            36
        );
        assert_eq!(locked_drops.load(Ordering::Relaxed), 0);
    }

    /// A sweep of addresses where nothing lives, on a clean and on a lossy
    /// path, never reaches the cache: no service lock, no instantiation,
    /// and no cache lookup (a lookup that misses always ends in `make_udp`).
    #[test]
    fn lazy_misses_touch_no_cache() {
        struct Counted(Arc<AtomicUsize>);
        impl LazyBinder for Counted {
            fn make_udp(&self, at: SocketAddr) -> Option<Box<dyn UdpService>> {
                self.0.fetch_add(1, Ordering::Relaxed);
                OddEcho.make_udp(at)
            }
            fn udp_open(&self, at: SocketAddr) -> bool {
                OddEcho.udp_open(at)
            }
            fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
                None
            }
        }
        for profile in [LinkProfile::ideal(), LinkProfile::lossy(250)] {
            let made = Arc::new(AtomicUsize::new(0));
            let mut net = Network::new(7);
            net.set_default_profile(profile);
            net.set_lazy_binder(Box::new(Counted(made.clone())), Some(4_096));
            let mut shard = net.shard();
            let mut out = Vec::new();
            for last in 0..=255u8 {
                // Even octets on 443, every octet on another port.
                let port = if last % 2 == 0 { 443 } else { 80 };
                shard.udp_send_into(addr(200, 9000), addr(last, port), b"ping", &mut out);
            }
            assert!(out.is_empty());
            assert_eq!(shard.finish().acquired, 0);
            assert_eq!(net.lazy_stats().expect("binder installed").instantiated, 0);
            assert_eq!(made.load(Ordering::Relaxed), 0);
            let (sent, _, _, _, dropped) = net.stats.snapshot();
            assert_eq!((sent, dropped), (256, 0));
        }
    }

    /// The shard count follows the cap: at least `MIN_SHARD_WINDOW`
    /// endpoints a shard, one cache-wide queue below twice that.
    #[test]
    fn lazy_shards_follow_the_cap() {
        let counts: Vec<usize> = [Some(0), Some(8), Some(127), Some(128), Some(256)]
            .into_iter()
            .chain([Some(1_000), Some(4_096), Some(1 << 20), None])
            .map(lazy_shard_count)
            .collect();
        assert_eq!(counts, [1, 1, 1, 2, 4, 8, 64, 64, 64]);
        let state = LazyState::new(Box::new(OddEcho), Some(1_000));
        let caps: Vec<usize> = state
            .shards
            .iter()
            .map(|s| s.0.lock().cap.unwrap())
            .collect();
        assert_eq!(caps.iter().sum::<usize>(), 1_000);
        assert!(caps.iter().all(|&cap| cap == 125));
    }

    /// At cap 4,096 (64 shards of 64), an endpoint survives 63 newer ones
    /// routed to its own shard plus thousands routed elsewhere, and the
    /// 64th in its own shard evicts it.
    #[test]
    fn eviction_window_is_the_shards_share_of_the_cap() {
        struct AllEcho;
        impl LazyBinder for AllEcho {
            fn make_udp(&self, _at: SocketAddr) -> Option<Box<dyn UdpService>> {
                Some(Box::new(Echo))
            }
            fn udp_open(&self, _at: SocketAddr) -> bool {
                true
            }
            fn make_tcp(&self, _at: SocketAddr) -> Option<Box<dyn TcpFactory>> {
                None
            }
        }
        let mut endpoints = Endpoints::new();
        endpoints.set_lazy_binder(Box::new(AllEcho), Some(4_096));
        let lazy = endpoints.lazy.as_ref().expect("binder installed");
        assert_eq!(lazy.shards.len(), 64);
        let at = |i: u32| SocketAddr::new(Ipv4Addr::from(0x0a00_0000 + i), 443);
        let target = at(0);
        let (mine, elsewhere): (Vec<_>, Vec<_>) = (1..20_000)
            .map(at)
            .partition(|a| lazy.shard_index(a) == lazy.shard_index(&target));
        let resident = || lazy.shard(&target).lock().map.contains_key(&target);

        contact(&endpoints, &target);
        for (i, near) in mine[..63].iter().enumerate() {
            contact(&endpoints, near);
            for far in &elsewhere[i * 40..(i + 1) * 40] {
                contact(&endpoints, far);
            }
        }
        assert!(resident(), "evicted before its shard's window");
        contact(&endpoints, &mine[63]);
        assert!(!resident(), "outlived its shard's window");
        let stats = endpoints.lazy_stats().expect("binder installed");
        assert_eq!(stats.instantiated, 1 + 64 + 63 * 40);
    }

    /// A lazy endpoint is locked once per flight, as a bound one is.
    #[test]
    fn lazy_flight_locks_once() {
        let mut net = Network::new(7);
        net.set_lazy_binder(Box::new(OddEcho), Some(8));
        let mut shard = net.shard();
        let (mut flight, mut replies) = (crate::Datagrams::new(), crate::Datagrams::new());
        for i in 0..10u8 {
            flight.push(&[i]);
        }
        shard.udp_send_flight(addr(9, 7), addr(1, 443), &flight, &mut replies, usize::MAX);
        assert_eq!(replies.len(), 10);
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
        assert!(net.shard().tcp_port_open(addr(4, 443)));
        assert!(!net.shard().tcp_port_open(addr(5, 443)));
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
            let (mut out, mut flight, mut replies) =
                (Vec::new(), crate::Datagrams::new(), crate::Datagrams::new());
            for i in 0..4u8 {
                flight.push(&[i]);
            }
            for src in 200..204u8 {
                for last in 0..64u8 {
                    let (src, dst) = (addr(src, 9000), addr(last, 443));
                    shard.udp_send_into(src, dst, b"ping", &mut out);
                    replies.clear();
                    shard.udp_send_flight(src, dst, &flight, &mut replies, usize::MAX);
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
                assert!(!net.shard().tcp_port_open(at), "{at}");
            }
            for &at in &tcp {
                assert!(net.shard().tcp_port_open(at), "{at}");
                assert!(net.udp_send(src, at, b"ab").is_empty(), "{at}");
            }
            for &at in &unbound {
                assert!(net.udp_send(src, at, b"ab").is_empty(), "{at}");
                assert!(!net.shard().tcp_port_open(at), "{at}");
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
