//! Goscanner-equivalent: stateful TLS-over-TCP scanning with HTTP requests
//! (§3.3). Performs full TLS 1.3 handshakes (with or without SNI), records
//! the peer's TLS properties for the Table 5 comparison, and collects the
//! HTTP `Alt-Svc` and `Server` headers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use h3::altsvc::{parse_alt_svc, AltService};
use h3::qpack::Header;
use h3::request::{Request, Response};
use qtls::client::PeerTlsInfo;
use qtls::record::TlsTcpClient;
use simnet::{IpAddr, Network, SocketAddr};

/// One TLS-over-TCP scan target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TlsTarget {
    /// Target address (port 443).
    pub addr: IpAddr,
    /// SNI / Host header, when scanning with a domain.
    pub domain: Option<String>,
}

/// Why a scan failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsScanError {
    /// TCP connection refused / port closed.
    ConnectFailed,
    /// Peer sent a TLS alert with this code.
    Alert(u8),
    /// Handshake or record-layer failure.
    Tls(String),
    /// Handshake fine but no parseable HTTP response.
    NoHttpResponse,
}

/// One scan's outcome.
#[derive(Debug, Clone)]
pub struct TlsScanResult {
    /// The target scanned.
    pub target: TlsTarget,
    /// Peer TLS properties (present when the handshake completed).
    pub tls: Option<PeerTlsInfo>,
    /// The HTTP response (present when a request succeeded).
    pub http: Option<Response>,
    /// Failure, if any.
    pub error: Option<TlsScanError>,
}

impl TlsScanResult {
    /// True when the TLS handshake completed.
    pub fn handshake_ok(&self) -> bool {
        self.tls.is_some()
    }

    /// Parsed `Alt-Svc` entries from the HTTP response.
    pub fn alt_services(&self) -> Vec<AltService> {
        self.http
            .as_ref()
            .and_then(|r| r.header("alt-svc"))
            .map(parse_alt_svc)
            .unwrap_or_default()
    }

    /// The HTTP `Server` header.
    pub fn server_header(&self) -> Option<&str> {
        self.http.as_ref().and_then(|r| r.header("server"))
    }
}

/// The scanner.
pub struct Goscanner {
    /// Source address of the vantage point.
    pub source_ip: IpAddr,
    /// Base seed for per-connection randomness.
    pub seed: u64,
}

impl Goscanner {
    /// New scanner from a vantage address.
    pub fn new(source_ip: IpAddr, seed: u64) -> Self {
        Goscanner { source_ip, seed }
    }

    /// Scans one target: TCP connect, TLS handshake, one HTTP GET.
    pub fn scan_target(&self, net: &Network, target: &TlsTarget, index: u64) -> TlsScanResult {
        let src = SocketAddr::new(self.source_ip, 10_000 + (index % 50_000) as u16);
        let dst = SocketAddr::new(target.addr, 443);
        let mut result = TlsScanResult {
            target: target.clone(),
            tls: None,
            http: None,
            error: None,
        };

        let Some(mut stream) = net.tcp_connect(src, dst) else {
            result.error = Some(TlsScanError::ConnectFailed);
            return result;
        };

        let mut rng = StdRng::seed_from_u64(self.seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let config = qtls::ClientConfig {
            server_name: target.domain.clone(),
            alpn: vec![b"http/1.1".to_vec()],
            ..qtls::ClientConfig::default()
        };
        let (mut tls, first) = TlsTcpClient::start(config, &mut rng);
        stream.write(&first);

        // Pump the handshake.
        for _ in 0..8 {
            let server_bytes = stream.read();
            match tls.on_bytes(&server_bytes) {
                Ok(reply) => {
                    if !reply.is_empty() {
                        stream.write(&reply);
                    }
                }
                Err(qtls::TlsError::PeerAlert(code)) => {
                    result.error = Some(TlsScanError::Alert(code));
                    return result;
                }
                Err(e) => {
                    result.error = Some(TlsScanError::Tls(e.to_string()));
                    return result;
                }
            }
            if tls.is_connected() {
                break;
            }
            if stream.is_closed() && !tls.is_connected() {
                result.error = Some(TlsScanError::Tls("connection closed".into()));
                return result;
            }
        }
        if !tls.is_connected() {
            result.error = Some(TlsScanError::Tls("handshake stalled".into()));
            return result;
        }
        result.tls = tls.peer_info().cloned();

        // One HTTP request, Host = domain or the literal address.
        let authority = target
            .domain
            .clone()
            .unwrap_or_else(|| target.addr.to_string());
        let req = Request {
            method: "GET".into(),
            authority,
            path: "/".into(),
            headers: vec![Header::new("user-agent", "goscanner-sim/1.0")],
        };
        let bytes = tls.send_app(&h3::http1::encode_request(&req));
        stream.write(&bytes);
        let resp_bytes = stream.read();
        match tls.on_bytes(&resp_bytes) {
            Ok(_) => {}
            Err(e) => {
                result.error = Some(TlsScanError::Tls(e.to_string()));
                return result;
            }
        }
        match h3::http1::decode_response(&tls.recv_app()) {
            Some(resp) => result.http = Some(resp),
            None => result.error = Some(TlsScanError::NoHttpResponse),
        }
        result
    }

    /// Scans `targets` on `workers` threads ([`simnet::fan_out`]; one worker
    /// runs on the caller's thread). Target `i` is scanned with index `i`
    /// and lands at position `i`, whichever worker ran it.
    pub fn scan_all(
        &self,
        net: &Network,
        targets: &[TlsTarget],
        workers: usize,
    ) -> Vec<TlsScanResult> {
        let scan = |_: &mut (), i: usize| self.scan_target(net, &targets[i], i as u64);
        simnet::fan_out(targets.len(), workers, || (), scan).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use internet::servers::{HttpProfile, HttpsTcpHost};
    use simnet::addr::Ipv4Addr;
    use std::sync::Arc;

    fn setup() -> (Network, IpAddr) {
        let mut net = Network::new(9);
        let ca = qtls::CertificateAuthority::new("CA", 2);
        let cert = ca.issue(
            1,
            "web.example",
            vec!["*.web.example".into()],
            0,
            99,
            [5; 32],
        );
        let tls = Arc::new(qtls::ServerConfig {
            alpn: vec![b"http/1.1".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        });
        let profile = HttpProfile {
            server_header: "nginx".into(),
            alt_svc: Some("h3-29=\":443\"; ma=86400".into()),
            extra_headers: vec![],
        };
        let ip = IpAddr::V4(Ipv4Addr::new(10, 7, 0, 1));
        net.bind_tcp(
            SocketAddr::new(ip, 443),
            Box::new(HttpsTcpHost::new(tls, profile, 4)),
        );
        (net, ip)
    }

    #[test]
    fn scan_collects_alt_svc_and_server() {
        let (net, ip) = setup();
        let scanner = Goscanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);
        let target = TlsTarget {
            addr: ip,
            domain: Some("www.web.example".into()),
        };
        let result = scanner.scan_target(&net, &target, 0);
        assert!(result.error.is_none(), "{:?}", result.error);
        assert!(result.handshake_ok());
        assert_eq!(result.server_header(), Some("nginx"));
        let alt = result.alt_services();
        assert_eq!(alt.len(), 1);
        assert_eq!(alt[0].alpn, "h3-29");
        let tls = result.tls.unwrap();
        assert_eq!(tls.certificates[0].subject, "web.example");
        assert!(tls.sni_acked);
    }

    #[test]
    fn scan_without_sni_still_succeeds_on_default_cert() {
        let (net, ip) = setup();
        let scanner = Goscanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);
        let result = scanner.scan_target(
            &net,
            &TlsTarget {
                addr: ip,
                domain: None,
            },
            1,
        );
        assert!(result.handshake_ok());
        assert!(!result.tls.unwrap().sni_acked);
    }

    #[test]
    fn closed_port_reports_connect_failure() {
        let (net, _) = setup();
        let scanner = Goscanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);
        let target = TlsTarget {
            addr: IpAddr::V4(Ipv4Addr::new(10, 7, 0, 99)),
            domain: None,
        };
        let result = scanner.scan_target(&net, &target, 2);
        assert_eq!(result.error, Some(TlsScanError::ConnectFailed));
    }
}
