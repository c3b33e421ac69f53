//! Glue between the protocol stacks and the simulated network: a QUIC host
//! as a [`simnet::UdpService`] (HTTP/3 here, or any [`AppSession`] — the
//! `transfer` data plane binds its hosts the same way), and an HTTPS
//! (TLS-over-TCP + HTTP/1.1) host as a [`simnet::TcpFactory`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use h3::qpack::Header;
use h3::request;
use quic::server::{AppSession, Endpoint, EndpointConfig, StreamHandler, StreamSend};
use simnet::{ServiceCtx, SocketAddr, TcpAction, TcpFactory, TcpHandler, UdpService};

/// What the HTTP layers of a host answer with.
#[derive(Debug, Clone)]
pub struct HttpProfile {
    /// `Server` header value.
    pub server_header: String,
    /// `Alt-Svc` header value served over TCP (None = no header).
    pub alt_svc: Option<String>,
    /// Extra response headers.
    pub extra_headers: Vec<(String, String)>,
}

impl HttpProfile {
    /// The personality's response headers (`server`, `content-type`,
    /// optionally `alt-svc`, plus extras). Public so the `transfer` data
    /// plane serves bulk downloads with the same deployment personalities
    /// the scanners fingerprint.
    pub fn response_headers(&self, include_alt_svc: bool) -> Vec<Header> {
        let mut headers = vec![
            Header::new("server", &self.server_header),
            Header::new("content-type", "text/html"),
        ];
        if include_alt_svc {
            if let Some(alt) = &self.alt_svc {
                headers.push(Header::new("alt-svc", alt));
            }
        }
        for (k, v) in &self.extra_headers {
            headers.push(Header::new(k, v));
        }
        headers
    }
}

/// HTTP/3 application handler running on top of a QUIC server connection.
pub struct H3App {
    profile: Arc<HttpProfile>,
    buffers: HashMap<u64, Vec<u8>>,
}

impl H3App {
    /// New handler for one connection.
    pub fn new(profile: Arc<HttpProfile>) -> Self {
        H3App {
            profile,
            buffers: HashMap::new(),
        }
    }
}

impl StreamHandler for H3App {
    fn on_connected(&mut self) -> Vec<StreamSend> {
        // Server control stream (first server-initiated uni stream, id 3).
        vec![StreamSend {
            id: 3,
            data: request::server_control_stream(),
            fin: false,
        }]
    }

    fn on_stream_data(&mut self, id: u64, data: &[u8], fin: bool) -> Vec<StreamSend> {
        // Client bidi request streams are 0, 4, 8, …
        if !id.is_multiple_of(4) {
            return Vec::new();
        }
        let buf = self.buffers.entry(id).or_default();
        buf.extend_from_slice(data);
        if !fin {
            return Vec::new();
        }
        let buf = self.buffers.remove(&id).unwrap_or_default();
        let Some(req) = request::decode_request(&buf) else {
            return Vec::new();
        };
        // Alt-Svc is usually also served on H3 responses; harmless either way.
        let headers = self.profile.response_headers(true);
        let body: &[u8] = if req.method == "HEAD" {
            b""
        } else {
            b"<html>ok</html>"
        };
        let resp = request::encode_response(200, &headers, body);
        vec![StreamSend {
            id,
            data: resp,
            fin: true,
        }]
    }
}

/// A QUIC host bound to UDP 443 in the simulation; flows are keyed by
/// source address and port.
pub struct QuicHost {
    endpoint: Endpoint,
}

impl QuicHost {
    /// Builds an HTTP/3 host from an endpoint config and HTTP profile,
    /// each a value or a shared template.
    pub fn new(
        config: impl Into<Arc<EndpointConfig>>,
        profile: impl Into<Arc<HttpProfile>>,
        seed: u64,
    ) -> Self {
        let profile = profile.into();
        let endpoint = Endpoint::new(
            config,
            seed,
            Box::new(move || Box::new(H3App::new(profile.clone()))),
        );
        QuicHost { endpoint }
    }

    /// Builds a host whose connections run the sessions `session_factory`
    /// makes (see [`Endpoint::with_sessions`]).
    pub fn with_sessions(
        config: impl Into<Arc<EndpointConfig>>,
        seed: u64,
        session_factory: Box<dyn Fn() -> Box<dyn AppSession> + Send>,
    ) -> Self {
        QuicHost {
            endpoint: Endpoint::with_sessions(config, seed, session_factory),
        }
    }
}

impl UdpService for QuicHost {
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: SocketAddr, data: &[u8]) {
        let from_key = (from.ip.as_u128() << 16) | u128::from(from.port);
        for reply in self.endpoint.handle_datagram(from_key, data) {
            ctx.reply(reply);
        }
    }
}

/// A TLS-over-TCP HTTPS host (port 443).
pub struct HttpsTcpHost {
    tls: Arc<qtls::ServerConfig>,
    profile: Arc<HttpProfile>,
    seed_counter: Mutex<u64>,
    base_seed: u64,
}

impl HttpsTcpHost {
    /// Builds the TCP service factory.
    pub fn new(tls: Arc<qtls::ServerConfig>, profile: HttpProfile, base_seed: u64) -> Self {
        HttpsTcpHost {
            tls,
            profile: Arc::new(profile),
            seed_counter: Mutex::new(0),
            base_seed,
        }
    }
}

impl TcpFactory for HttpsTcpHost {
    fn accept(&self, _from: SocketAddr) -> Box<dyn TcpHandler> {
        let n = {
            let mut c = self.seed_counter.lock();
            *c += 1;
            *c
        };
        let mut rng = StdRng::seed_from_u64(self.base_seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut seed64 = [0u8; 8];
        rng.fill_bytes(&mut seed64);
        let mut conn_rng = StdRng::seed_from_u64(u64::from_le_bytes(seed64));
        Box::new(HttpsTcpConn {
            tls: qtls::record::TlsTcpServer::new(self.tls.clone(), &mut conn_rng),
            profile: self.profile.clone(),
            request: Vec::new(),
        })
    }
}

struct HttpsTcpConn {
    tls: qtls::record::TlsTcpServer,
    profile: Arc<HttpProfile>,
    request: Vec<u8>,
}

impl TcpHandler for HttpsTcpConn {
    fn on_data(&mut self, _ctx: &mut ServiceCtx<'_>, data: &[u8], out: &mut Vec<u8>) -> TcpAction {
        let reply = self.tls.on_bytes(data);
        out.extend_from_slice(&reply);
        let app = self.tls.recv_app();
        if !app.is_empty() {
            self.request.extend_from_slice(&app);
        }
        // One request per connection (Goscanner sends Connection: close).
        if self.request.windows(4).any(|w| w == b"\r\n\r\n") {
            let req = h3::http1::decode_request(&self.request);
            let (status, body): (u16, &[u8]) = match &req {
                Some(_) => (200, b"<html>ok</html>"),
                None => (400, b""),
            };
            let is_head = req.as_ref().map(|r| r.method == "HEAD").unwrap_or(false);
            let resp = h3::request::Response {
                status,
                headers: self.profile.response_headers(true),
                body: if is_head { Vec::new() } else { body.to_vec() },
            };
            let bytes = h3::http1::encode_response(&resp);
            out.extend_from_slice(&self.tls.send_app(&bytes));
            return TcpAction::Close;
        }
        TcpAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls::cert::CertificateAuthority;
    use simnet::addr::Ipv4Addr;
    use simnet::Network;

    fn tls_config() -> Arc<qtls::ServerConfig> {
        let ca = CertificateAuthority::new("CA", 5);
        let cert = ca.issue(
            1,
            "site.example",
            vec!["*.site.example".into()],
            0,
            99,
            [4; 32],
        );
        Arc::new(qtls::ServerConfig {
            alpn: vec![b"h3-29".to_vec(), b"http/1.1".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        })
    }

    fn profile() -> HttpProfile {
        HttpProfile {
            server_header: "testserver".into(),
            alt_svc: Some("h3-29=\":443\"; ma=86400".into()),
            extra_headers: vec![],
        }
    }

    #[test]
    fn quic_host_serves_h3_head_over_simnet() {
        let mut net = Network::new(3);
        let host_addr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 443);
        let endpoint_cfg = EndpointConfig::new(tls_config());
        net.bind_udp(
            host_addr,
            Box::new(QuicHost::new(endpoint_cfg, profile(), 9)),
        );

        // Drive a client connection through the network.
        let client_cfg = quic::ClientConfig {
            versions: vec![quic::Version::DRAFT_29],
            tls: qtls::ClientConfig {
                server_name: Some("www.site.example".into()),
                alpn: vec![b"h3-29".to_vec()],
                ..qtls::ClientConfig::default()
            },
            ..quic::ClientConfig::default()
        };
        let mut conn = quic::ClientConnection::new(client_cfg, 77);
        let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 40000);
        for _ in 0..8 {
            let out = conn.poll_transmit();
            if out.is_empty() {
                break;
            }
            for d in out {
                for reply in net.udp_send(src, host_addr, &d) {
                    conn.on_datagram(&reply);
                }
            }
        }
        assert_eq!(conn.state(), &quic::ConnectionState::Established);

        // Send the H3 request: control stream + HEAD on stream 0.
        let control = conn.open_uni_stream();
        conn.send_stream(control, &request::client_control_stream(), false);
        let req_stream = conn.open_bidi_stream();
        conn.send_stream(
            req_stream,
            &request::encode_request("HEAD", "www.site.example", "/", &[]),
            true,
        );
        for _ in 0..8 {
            let out = conn.poll_transmit();
            if out.is_empty() {
                break;
            }
            for d in out {
                for reply in net.udp_send(src, host_addr, &d) {
                    conn.on_datagram(&reply);
                }
            }
        }
        let streams = conn.poll_streams();
        let resp_stream = streams
            .iter()
            .find(|s| s.id == req_stream)
            .expect("response");
        let resp = request::decode_response(&resp_stream.data).expect("decodable");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("server"), Some("testserver"));
        assert!(resp.body.is_empty(), "HEAD has no body");
    }

    #[test]
    fn tcp_host_serves_http1_with_alt_svc() {
        let mut net = Network::new(4);
        let host_addr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 443);
        net.bind_tcp(
            host_addr,
            Box::new(HttpsTcpHost::new(tls_config(), profile(), 11)),
        );

        let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 1), 40001);
        let mut stream = net.tcp_connect(src, host_addr).expect("port open");
        let mut rng = StdRng::seed_from_u64(5);
        let (mut tls, first) = qtls::record::TlsTcpClient::start(
            qtls::ClientConfig {
                server_name: Some("site.example".into()),
                alpn: vec![b"http/1.1".to_vec()],
                ..qtls::ClientConfig::default()
            },
            &mut rng,
        );
        stream.write(&first);
        for _ in 0..6 {
            let server_bytes = stream.read();
            if server_bytes.is_empty() && tls.is_connected() {
                break;
            }
            let reply = tls.on_bytes(&server_bytes).expect("tls ok");
            if !reply.is_empty() {
                stream.write(&reply);
            }
            if tls.is_connected() {
                break;
            }
        }
        assert!(tls.is_connected());
        let req = h3::request::Request {
            method: "GET".into(),
            authority: "site.example".into(),
            path: "/".into(),
            headers: vec![],
        };
        let bytes = tls.send_app(&h3::http1::encode_request(&req));
        stream.write(&bytes);
        let resp_bytes = stream.read();
        let reply = tls.on_bytes(&resp_bytes).expect("tls ok");
        assert!(reply.is_empty());
        let resp = h3::http1::decode_response(&tls.recv_app()).expect("http response");
        assert_eq!(resp.status, 200);
        let alt = resp.header("alt-svc").expect("alt-svc present");
        assert_eq!(h3::altsvc::parse_alt_svc(alt)[0].alpn, "h3-29");
        assert!(stream.is_closed());
    }
}
