//! The three sweeps pinned by value. The engine's own tests compare a
//! parallel sweep with the serial one, so a change that moves every scan
//! index to a different address *consistently* passes them; this test
//! compares addresses, order and probe counts against text committed in the
//! workspace's `tests/golden/sweep.txt`, at several worker counts.
//!
//! The network is a /20 handed to the scanner as three prefixes (so the
//! flat-index → address mapping crosses prefix boundaries), ~30 QUIC and
//! ~10 TCP hosts at splitmix-chosen offsets, one blocklisted /26 that holds
//! hosts of both kinds, and a 300-address IPv6 hitlist (more than one
//! address block per shard at one worker, a ragged tail at every count).

use std::fmt::Write;
use std::sync::Arc;

use quic::server::{Endpoint, EndpointConfig, StreamHandler, StreamSend};
use quic::version::Version;
use simnet::addr::{Ipv4Addr, Ipv6Addr, Prefix};
use simnet::{Network, ServiceCtx, SocketAddr, UdpService};
use zmapq::{QuicVnModule, ScanReport, VnResult, ZmapConfig, ZmapScanner};

#[path = "../../../tests/common/golden.rs"]
mod golden;

const BASE: u32 = u32::from_be_bytes([10, 70, 0, 0]);
const SPAN: u64 = 1 << 12;
const V6_TARGETS: u16 = 300;

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

fn quic_host(tls: &Arc<qtls::ServerConfig>, versions: Vec<Version>) -> Box<dyn UdpService> {
    let mut cfg = EndpointConfig::new(tls.clone());
    cfg.vn_advertise = versions.clone();
    cfg.accept_versions = versions;
    Box::new(Udp(Endpoint::new(cfg, 3, Box::new(|| Box::new(NoApp)))))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn v6_target(i: u16) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, 0x70, 0, 0, 0, 0, i)
}

/// The /26 the scanner refuses to probe: 10.70.5.64/26.
fn blocked_prefix() -> Prefix {
    Prefix::new(Ipv4Addr::from(BASE + 5 * 256 + 64), 26)
}

fn build_net(loss_permille: u32) -> Network {
    let version_sets = [
        vec![Version::V1, Version::DRAFT_29],
        vec![Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27],
        vec![Version::DRAFT_32],
        vec![Version::Q050, Version::Q046, Version::Q043],
    ];
    let ca = qtls::CertificateAuthority::new("CA", 1);
    let cert = ca.issue(1, "x.example", vec![], 0, 99, [1; 32]);
    let tls = Arc::new(qtls::ServerConfig::single_cert(cert));
    let mut net = Network::new(17);
    net.set_default_profile(simnet::LinkProfile::lossy(loss_permille));
    let mut rng = 0x5_ca1e_u64;
    for k in 0..28u64 {
        let addr = Ipv4Addr::from(BASE + (splitmix(&mut rng) % SPAN) as u32);
        let versions = version_sets[(k % 4) as usize].clone();
        net.bind_udp(SocketAddr::new(addr, 443), quic_host(&tls, versions));
    }
    for _ in 0..9 {
        let addr = Ipv4Addr::from(BASE + (splitmix(&mut rng) % SPAN) as u32);
        net.bind_tcp(SocketAddr::new(addr, 443), Box::new(NoTcpFactory));
    }
    // Two hosts of each kind inside the blocklisted /26: a sweep that
    // ignored the blocklist would list them.
    let blocked = blocked_prefix().base.as_u128() as u32;
    for off in [3u32, 40] {
        let addr = SocketAddr::new(Ipv4Addr::from(blocked + off), 443);
        net.bind_udp(addr, quic_host(&tls, vec![Version::V1]));
        net.bind_tcp(addr, Box::new(NoTcpFactory));
    }
    for i in (0..V6_TARGETS).filter(|i| i % 7 == 2) {
        let versions = version_sets[usize::from(i % 4)].clone();
        net.bind_udp(
            SocketAddr::new(v6_target(i), 443),
            quic_host(&tls, versions),
        );
    }
    net
}

fn scanner(workers: usize, probe_repeat: usize) -> ZmapScanner {
    let mut cfg = ZmapConfig::new(SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000));
    cfg.workers = workers;
    cfg.probe_repeat = probe_repeat;
    cfg.seed = 0x9000;
    cfg.blocklist.add(blocked_prefix());
    ZmapScanner::new(cfg)
}

fn heading(out: &mut String, title: &str, report: &ScanReport) {
    let _ = writeln!(
        out,
        "## {title}: {} probes, {} blocked, {} hits",
        report.probes(),
        report.metrics.counter("zmap.blocked"),
        report.hits()
    );
}

fn vn_section(out: &mut String, title: &str, (hits, report): (Vec<VnResult>, ScanReport)) {
    heading(out, title, &report);
    for hit in hits {
        let _ = write!(out, "{}", hit.addr);
        for v in &hit.versions {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
}

/// Everything the three sweeps return, in the order they return it.
fn render(workers: usize) -> String {
    // The /20 as three prefixes, deliberately not in address order.
    let prefixes = [
        Prefix::new(Ipv4Addr::from(BASE + 8 * 256), 21),
        Prefix::new(Ipv4Addr::from(BASE), 22),
        Prefix::new(Ipv4Addr::from(BASE + 4 * 256), 22),
    ];
    let hitlist: Vec<Ipv6Addr> = (0..V6_TARGETS).map(v6_target).collect();
    let module = QuicVnModule::new(0x9000);
    let mut out = String::new();
    for (loss, repeat) in [(0u32, 1usize), (300, 1), (300, 2)] {
        let title = format!("scan_v4 loss={loss} repeat={repeat}");
        let scan =
            scanner(workers, repeat).scan_v4_with_report(&build_net(loss), &prefixes, &module);
        vn_section(&mut out, &title, scan);
    }
    for (loss, repeat) in [(0u32, 1usize), (300, 2)] {
        let title = format!("scan_v6 loss={loss} repeat={repeat}");
        let scan =
            scanner(workers, repeat).scan_v6_with_report(&build_net(loss), &hitlist, &module);
        vn_section(&mut out, &title, scan);
    }
    for repeat in [1usize, 2] {
        let (open, report) =
            scanner(workers, repeat).scan_tcp_syn_with_report(&build_net(300), &prefixes);
        heading(&mut out, &format!("scan_tcp_syn repeat={repeat}"), &report);
        for addr in open {
            let _ = writeln!(out, "{addr}");
        }
    }
    out
}

#[test]
fn sweeps_match_the_committed_text() {
    for workers in [1usize, 2, 3, 8] {
        golden::check("sweep.txt", &render(workers));
    }
}
