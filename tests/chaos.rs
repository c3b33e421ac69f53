//! Every scanner against hostile peers (`common/chaos.rs`): the `zmapq` VN
//! sweep and `qscanner` against one QUIC peer per (misbehaviour, seed),
//! massdns's wire path against garbling resolvers, and `goscanner` against
//! garbling TLS hosts.
//!
//! Each target must end in the classified result pinned here for its
//! misbehaviour and seed, the same at one worker and at four, traced or
//! not, and its scan must ask the allocator for no more than
//! [`TARGET_BOUND`] bytes in all, the peer's own work left out. Nothing
//! catches a panic: one in a decoder or a state machine fails the test.

#[path = "common/chaos.rs"]
mod chaos;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use chaos::{ChaosPeer, ChaosResolver, ChaosTlsHost, Garble, Misbehaviour};
use dns::rr::QType;
use goscanner::{Goscanner, TlsScanError, TlsTarget};
use qscanner::{QScanner, QuicTarget};
use simnet::addr::{Ipv4Addr, Prefix};
use simnet::{IpAddr, Network, SocketAddr};
use zmapq::{QuicVnModule, ZmapConfig, ZmapScanner};

const SEEDS: [u64; 3] = [1, 2, 3];

/// Adds up what each thread asks the allocator for, outside the peers.
struct CountingAlloc;

thread_local!(static REQUESTED: Cell<usize> = const { Cell::new(0) });

// SAFETY: every call goes to `System` with the arguments it was given
// (`realloc` is the default `alloc` + copy, so growth is counted too); the
// counter and `chaos::in_peer`'s flag are const-initialised `Cell`s with no
// destructor, so touching them neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !chaos::in_peer() {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes requested on this thread while `f` runs.
fn requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.get();
    let out = f();
    (out, REQUESTED.get() - before)
}

/// What one target's scan may ask the allocator for: 4 MiB. The most a
/// peer makes a scanner read at once is one 64 KiB message (a datagram,
/// or a TLS flight), and a qscanner flight reads at most 16 datagrams.
/// Decoding keeps what it read in values of at most about 16 times its
/// size — the worst case here, 1.0 MB, is the DNS decoder's records for a
/// 64 KiB answer claiming 65,535 of them — and a handshake costs under
/// 60 KB. A decoder that reserved what a length field claims (2^24 bytes
/// for a TLS handshake message, 65,535 DNS records, 2^62 for a varint)
/// would ask for more than four times the worst case.
const TARGET_BOUND: usize = 4 << 20;

fn vantage() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))
}

/// Each QUIC misbehaviour's verdict at seeds 1, 2 and 3: the outcome's
/// label, `+h3` when the HTTP/3 HEAD got a response. A bit flip lands
/// where its seed puts it, so only [`Misbehaviour::BitFlipped`] differs
/// between seeds.
const QSCANNER_PINS: [(Misbehaviour, [&str; 3]); 13] = {
    const TLS: &str = "other:tls: decode error: handshake";
    const OK: &str = "success+h3";
    const UNSENT: &str = "other:protocol: ACK for a packet never sent";
    [
        (Misbehaviour::Truncated, ["stalled"; 3]),
        (Misbehaviour::Oversized, [TLS; 3]),
        (Misbehaviour::BitFlipped, [TLS, TLS, "stalled"]),
        (Misbehaviour::WrongLevel, [OK; 3]),
        (Misbehaviour::Replayed, [OK; 3]),
        (Misbehaviour::Flood, [OK; 3]),
        (Misbehaviour::CoalescedGarbage, [OK; 3]),
        (Misbehaviour::VnNoVersions, ["version_mismatch"; 3]),
        (Misbehaviour::VnManyVersions, ["version_mismatch"; 3]),
        (Misbehaviour::VnNoEcho, ["stalled"; 3]),
        (Misbehaviour::RetryEvery, ["stalled"; 3]),
        // An Initial ACK of packet number 2^40 closes the connection
        // (RFC 9000 §13.1).
        (Misbehaviour::AckUnsent, [UNSENT; 3]),
        // The client keeps stream data past the limits it advertised, and
        // the 300 KB it got does not decode as a HEAD response.
        (Misbehaviour::FlowControlLie, ["success"; 3]),
    ]
};

/// Versions listed by each peer's sweep hit at seeds 1, 2 and 3 (`0`: no
/// hit). A Version Negotiation packet runs to the end of its datagram, so
/// a cut one lists fewer versions and garbage coalesced after one lists
/// more.
const ZMAP_PINS: [(Misbehaviour, [usize; 3]); 13] = [
    (Misbehaviour::Truncated, [1, 0, 0]),
    (Misbehaviour::Oversized, [0; 3]),
    (Misbehaviour::BitFlipped, [0, 0, 4]),
    (Misbehaviour::WrongLevel, [4; 3]),
    (Misbehaviour::Replayed, [4; 3]),
    (Misbehaviour::Flood, [4; 3]),
    (Misbehaviour::CoalescedGarbage, [234, 160, 294]),
    (Misbehaviour::VnNoVersions, [0; 3]),
    (Misbehaviour::VnManyVersions, [255; 3]),
    (Misbehaviour::VnNoEcho, [0; 3]),
    (Misbehaviour::RetryEvery, [0; 3]),
    (Misbehaviour::AckUnsent, [4; 3]),
    (Misbehaviour::FlowControlLie, [4; 3]),
];

/// VN packets the sweep refuses: three listing no version, three not
/// echoing the probe, and one whose flipped bit landed in a connection ID.
const ZMAP_INVALID_REPLIES: u64 = 7;

/// massdns's result for each garbling at seeds 1, 2 and 3: `None`, or the
/// answer count. The one flip that parses lands in the A record's address,
/// and a flood's one real answer follows 255 random datagrams.
const MASSDNS_PINS: [(Garble, [Option<usize>; 3]); 5] = [
    (Garble::Truncated, [None; 3]),
    (Garble::Oversized, [None; 3]),
    (Garble::BitFlipped, [None, None, Some(1)]),
    (Garble::Flood, [Some(1); 3]),
    (Garble::Garbage, [None; 3]),
];

/// goscanner's error for each garbling, at every seed.
const GOSCANNER_PINS: [(Garble, &str); 5] = [
    (Garble::Truncated, "handshake stalled"),
    (Garble::Oversized, "decode error: oversized record"),
    (Garble::BitFlipped, "decode error: record decryption failed"),
    (Garble::Flood, "unexpected message: message in wrong state"),
    (Garble::Garbage, "handshake stalled"),
];

/// Every (misbehaviour, seed), with the address its peer is bound at.
fn quic_cases() -> Vec<(Misbehaviour, u64, IpAddr)> {
    let mut cases = Vec::new();
    for kind in Misbehaviour::ALL {
        for seed in SEEDS {
            let last = cases.len() as u8 + 1;
            cases.push((kind, seed, IpAddr::V4(Ipv4Addr::new(10, 99, 0, last))));
        }
    }
    cases
}

/// A fresh network with every QUIC peer bound on port 443.
fn quic_net() -> Network {
    let mut net = Network::new(9);
    for (kind, seed, addr) in quic_cases() {
        net.bind_udp(
            SocketAddr::new(addr, 443),
            Box::new(ChaosPeer::new(kind, seed)),
        );
    }
    net
}

fn pin<K: PartialEq + Copy, V: Copy>(pins: &[(K, [V; 3])], kind: K, seed: u64) -> V {
    let seeds = pins.iter().find(|(k, _)| *k == kind).expect("pinned").1;
    seeds[SEEDS.iter().position(|&s| s == seed).expect("a seed")]
}

#[test]
fn qscanner_classifies_every_hostile_peer() {
    let cases = quic_cases();
    // Half the targets with SNI, so both client configurations meet each
    // misbehaviour.
    let targets: Vec<QuicTarget> = cases
        .iter()
        .enumerate()
        .map(|(i, &(.., addr))| QuicTarget::new(addr, (i % 2 == 1).then(|| "chaos.example".into())))
        .collect();
    let scanner = QScanner::new(vantage(), 7);
    let net = quic_net();
    let mut serial = Vec::new();
    for (i, (&(kind, seed, _), target)) in cases.iter().zip(&targets).enumerate() {
        let (result, bytes) = requested(|| scanner.scan_one(&net, target, i as u64));
        let h3 = if result.http.is_some() { "+h3" } else { "" };
        let verdict = format!("{}{h3}", result.outcome.label());
        assert_eq!(
            verdict,
            pin(&QSCANNER_PINS, kind, seed),
            "{kind:?} seed {seed}"
        );
        assert!(
            bytes <= TARGET_BOUND,
            "{kind:?} seed {seed}: {bytes} bytes requested"
        );
        serial.push(result);
    }
    for workers in [1, 4] {
        assert_eq!(
            scanner.scan_many(&quic_net(), &targets, workers),
            serial,
            "W = {workers}"
        );
        let telemetry = telemetry::Telemetry::with_sink(Arc::new(telemetry::MemorySink::new()));
        let traced = scanner.scan_many_traced(&quic_net(), &targets, workers, None, &telemetry);
        assert_eq!(traced, serial, "traced, W = {workers}");
    }
}

#[test]
fn zmap_sweep_classifies_every_hostile_peer() {
    let prefixes = [Prefix::new(Ipv4Addr::new(10, 99, 0, 0), 24)];
    let module = QuicVnModule::new(5);
    let mut serial = None;
    for workers in [1, 4] {
        let mut cfg = ZmapConfig::new(SocketAddr::new(vantage(), 50_000));
        cfg.workers = workers;
        let registry = Arc::new(telemetry::MetricsRegistry::new());
        cfg.metrics = Some(registry.clone());
        let scanner = ZmapScanner::new(cfg);
        let ((hits, report), bytes) =
            requested(|| scanner.scan_v4_with_report(&quic_net(), &prefixes, &module));
        let invalid = report.metrics.counter("zmap.invalid_replies");
        assert_eq!(invalid, ZMAP_INVALID_REPLIES, "W = {workers}");
        assert_eq!(registry.snapshot().counter("zmap.invalid_replies"), invalid);
        for (kind, seed, addr) in quic_cases() {
            let hit = hits.iter().find(|h| h.addr.ip == addr);
            let versions = hit.map_or(0, |h| h.versions.len());
            assert_eq!(
                versions,
                pin(&ZMAP_PINS, kind, seed),
                "{kind:?} seed {seed}"
            );
        }
        assert_eq!(hits.len(), 23);
        if workers == 1 {
            // The whole sweep, 256 probes, within one target's bound.
            assert!(bytes <= TARGET_BOUND, "{bytes} bytes requested");
            serial = Some(hits);
        } else {
            assert_eq!(Some(hits), serial, "W = {workers}");
        }
    }
}

#[test]
fn massdns_classifies_every_garbling_resolver() {
    let src = SocketAddr::new(vantage(), 5353);
    let resolver = SocketAddr::new(Ipv4Addr::new(10, 98, 0, 1), 53);
    for kind in Garble::ALL {
        for seed in SEEDS {
            let mut net = Network::new(9);
            net.bind_udp(resolver, Box::new(ChaosResolver::new(kind, seed)));
            let (result, bytes) = requested(|| {
                let name = "www.example.com";
                dns::massdns::resolve_over_network(&net, src, resolver, 77, name, QType::A)
            });
            let answers = result.map(|(rcode, answers)| {
                assert_eq!(rcode, dns::Rcode::NoError);
                answers.len()
            });
            assert_eq!(
                answers,
                pin(&MASSDNS_PINS, kind, seed),
                "{kind:?} seed {seed}"
            );
            assert!(
                bytes <= TARGET_BOUND,
                "{kind:?} seed {seed}: {bytes} bytes requested"
            );
        }
    }
}

#[test]
fn goscanner_classifies_every_garbling_host() {
    let scanner = Goscanner::new(vantage(), 7);
    let mut net = Network::new(9);
    let mut targets = Vec::new();
    for kind in Garble::ALL {
        for seed in SEEDS {
            let addr = IpAddr::V4(Ipv4Addr::new(10, 97, 0, targets.len() as u8 + 1));
            net.bind_tcp(
                SocketAddr::new(addr, 443),
                Box::new(ChaosTlsHost::new(kind, seed)),
            );
            let domain = Some("chaos.example".into());
            targets.push((kind, seed, TlsTarget { addr, domain }));
        }
    }
    for (i, (kind, seed, target)) in targets.iter().enumerate() {
        let (result, bytes) = requested(|| scanner.scan_target(&net, target, i as u64));
        let expected = GOSCANNER_PINS
            .iter()
            .find(|(k, _)| k == kind)
            .expect("pinned")
            .1;
        assert_eq!(
            result.error,
            Some(TlsScanError::Tls(expected.into())),
            "{kind:?} seed {seed}"
        );
        assert!(
            bytes <= TARGET_BOUND,
            "{kind:?} seed {seed}: {bytes} bytes requested"
        );
    }
}
