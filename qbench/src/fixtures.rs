//! Fixtures the criterion benches in `crates/bench/benches` each define for
//! themselves (`quic_host`, `sweep_network`, the in-memory handshakes, the
//! factor-0.02 campaign), gathered in one place for the ladder and the
//! workloads.

use std::sync::Arc;

use analysis::campaign::Campaign;
use internet::FaultPlan;
use quic::conn::ClientConnection;
use quic::server::{Endpoint, EndpointConfig, StreamHandler, StreamSend};
use quic::version::Version;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::addr::{Ipv4Addr, Prefix};
use simnet::{IpAddr, Network, ServiceCtx, SocketAddr, UdpService};

/// The scanners' vantage address in every campaign.
pub fn vantage() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
}

/// Source address of the stateless sweeps (same host, ZMap's port).
pub fn sweep_source() -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(192, 0, 2, 10), 40_000)
}

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

fn bench_cert() -> qtls::Certificate {
    qtls::CertificateAuthority::new("CA", 1).issue(1, "bench.example", vec![], 0, 99, [1; 32])
}

/// TLS server configuration with one certificate for `bench.example`.
pub fn bench_tls_config() -> Arc<qtls::ServerConfig> {
    Arc::new(qtls::ServerConfig::single_cert(bench_cert()))
}

/// [`bench_tls_config`] offering the `h3-29` ALPN, for QUIC handshakes.
pub fn bench_quic_tls_config() -> Arc<qtls::ServerConfig> {
    Arc::new(qtls::ServerConfig {
        alpn: vec![b"h3-29".to_vec()],
        ..qtls::ServerConfig::single_cert(bench_cert())
    })
}

/// A QUIC endpoint bound as a simnet UDP service, speaking drafts 29 and 32.
pub fn quic_host() -> Box<dyn UdpService> {
    let mut cfg = EndpointConfig::new(bench_tls_config());
    cfg.vn_advertise = vec![Version::DRAFT_29, Version::DRAFT_32];
    cfg.accept_versions = vec![Version::DRAFT_29, Version::DRAFT_32];
    Box::new(Udp(Endpoint::new(cfg, 3, Box::new(|| Box::new(NoApp)))))
}

/// First address of [`sweep_network`]'s /16.
pub fn sweep_base() -> Ipv4Addr {
    Ipv4Addr::new(10, 64, 0, 0)
}

/// A /16 (65 536 addresses) with a QUIC host on every 64th address.
pub fn sweep_network() -> (Network, [Prefix; 1]) {
    let mut net = Network::new(5);
    for i in (0u32..65_536).step_by(64) {
        let addr = Ipv4Addr::from(u32::from(sweep_base()) + i);
        net.bind_udp(SocketAddr::new(addr, 443), quic_host());
    }
    (net, [Prefix::new(sweep_base(), 16)])
}

/// One QUIC handshake, client against `Endpoint::handle_datagram`, with no
/// simnet in between. Returns the datagrams exchanged when the connection
/// was established. `tls` is [`bench_quic_tls_config`].
pub fn quic_handshake_once(tls: &Arc<qtls::ServerConfig>, seed: u64) -> Option<usize> {
    let mut server = Endpoint::new(
        EndpointConfig::new(tls.clone()),
        seed,
        Box::new(|| Box::new(NoApp)),
    );
    let config = quic::ClientConfig {
        versions: vec![Version::DRAFT_29],
        tls: qtls::ClientConfig {
            server_name: Some("bench.example".into()),
            alpn: vec![b"h3-29".to_vec()],
            ..qtls::ClientConfig::default()
        },
        ..quic::ClientConfig::default()
    };
    let mut client = ClientConnection::new(config, seed);
    let mut datagrams = 0usize;
    for _ in 0..8 {
        let out = client.poll_transmit();
        if out.is_empty() {
            break;
        }
        for d in out {
            datagrams += 1;
            for r in server.handle_datagram(1, &d) {
                datagrams += 1;
                client.on_datagram(&r);
            }
        }
    }
    (client.state() == &quic::ConnectionState::Established).then_some(datagrams)
}

/// One TLS 1.3 handshake over an in-memory byte pipe.
pub fn tls_tcp_handshake_once(tls: &Arc<qtls::ServerConfig>, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut client, mut to_server) = qtls::record::TlsTcpClient::start(
        qtls::ClientConfig {
            server_name: Some("bench.example".into()),
            ..qtls::ClientConfig::default()
        },
        &mut rng,
    );
    let mut server = qtls::record::TlsTcpServer::new(tls.clone(), &mut rng);
    for _ in 0..6 {
        let to_client = server.on_bytes(&to_server);
        let Ok(next) = client.on_bytes(&to_client) else {
            return false;
        };
        to_server = next;
        if client.is_connected() && server.is_connected() {
            return true;
        }
    }
    false
}

/// The paper campaign at population factor `size_factor`, fault-free and
/// materialized, as `benches/paper.rs` runs it at 0.02.
pub fn campaign(size_factor: f64, seed: u64, workers: usize) -> Campaign {
    Campaign {
        size_factor,
        seed,
        workers,
        fault: FaultPlan::none(),
        telemetry: None,
        lazy: false,
    }
}
