//! TLS record layer for the TCP path (RFC 8446 §5), plus high-level
//! [`TlsTcpClient`] / [`TlsTcpServer`] drivers that the Goscanner and the
//! simulated HTTPS servers use.
//!
//! TLS 1.3 records are protected with the negotiated AEAD; the simulated
//! TLS 1.2 legacy mode stays in plaintext end-to-end (see crate docs).

use std::sync::Arc;

use rand::RngCore;

use qcodec::{Reader, Writer};
use qcrypto::aead::Aead;
use qcrypto::hkdf;

use crate::cipher::CipherSuite;
use crate::client::{ClientConfig, ClientHandshake, PeerTlsInfo};
use crate::server::{ServerConfig, ServerHandshake};
use crate::{Level, TlsError, TlsEvent};

/// TLS record content types.
pub mod content_type {
    pub const CHANGE_CIPHER_SPEC: u8 = 20;
    pub const ALERT: u8 = 21;
    pub const HANDSHAKE: u8 = 22;
    pub const APPLICATION_DATA: u8 = 23;
}

/// One direction of record protection.
struct Seal {
    aead: Aead,
    iv: [u8; 12],
    seq: u64,
    /// Staging buffer for `payload || inner type`, reused across records.
    inner: Vec<u8>,
}

/// The five-byte header of a protected record whose body is `len` bytes —
/// also the AEAD's additional data (RFC 8446 §5.2).
fn protected_header(len: usize) -> [u8; 5] {
    let len = len as u16;
    [
        content_type::APPLICATION_DATA,
        3,
        3,
        (len >> 8) as u8,
        len as u8,
    ]
}

impl Seal {
    /// Record protection for one traffic secret: `"key"` and `"iv"` from
    /// one keyed PRK (RFC 8446 §7.3).
    fn from_secret(suite: CipherSuite, secret: &[u8]) -> Self {
        let alg = suite.aead();
        let prk = hkdf::Prk::new(secret);
        let mut key = [0u8; 32];
        let mut iv = [0u8; 12];
        prk.expand_label_into("key", &[], &mut key[..alg.key_len()]);
        prk.expand_label_into("iv", &[], &mut iv);
        Seal {
            aead: Aead::new(alg, &key[..alg.key_len()]),
            iv,
            seq: 0,
            inner: Vec::new(),
        }
    }

    fn nonce(&self) -> [u8; 12] {
        let mut n = self.iv;
        let seq = self.seq.to_be_bytes();
        for i in 0..8 {
            n[4 + i] ^= seq[i];
        }
        n
    }

    /// Appends to `out` a protected record carrying `payload` of
    /// `inner_type`, sealing straight into `out`.
    fn seal_into(&mut self, inner_type: u8, payload: &[u8], out: &mut Vec<u8>) {
        self.inner.clear();
        self.inner.extend_from_slice(payload);
        self.inner.push(inner_type);
        let header = protected_header(self.inner.len() + self.aead.algorithm().tag_len());
        out.extend_from_slice(&header);
        self.aead
            .seal_into(&self.nonce(), &header, &self.inner, out);
        self.seq += 1;
    }

    /// Opens a protected record body where it lies in the receive buffer;
    /// returns (inner type, plaintext).
    fn open(&mut self, body: &[u8]) -> Result<(u8, Vec<u8>), TlsError> {
        let mut inner = Vec::with_capacity(body.len());
        self.aead
            .open_into(
                &self.nonce(),
                &protected_header(body.len()),
                body,
                &mut inner,
            )
            .map_err(|_| TlsError::Decode("record decryption failed"))?;
        self.seq += 1;
        // Strip zero padding, then the inner content type.
        while inner.last() == Some(&0) {
            inner.pop();
        }
        let inner_type = inner.pop().ok_or(TlsError::Decode("empty inner record"))?;
        Ok((inner_type, inner))
    }
}

/// Frames `payload` as a plaintext record.
fn plaintext_record(record_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(5 + payload.len());
    w.put_u8(record_type);
    w.put_u16(0x0303);
    w.put_vec16(payload);
    w.into_vec()
}

/// Incremental record parser: yields complete (type, body) records, the
/// body borrowed from the buffer.
#[derive(Default)]
struct RecordBuffer {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already handed out by `next`.
    consumed: usize,
}

impl RecordBuffer {
    fn push(&mut self, data: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(data);
    }

    fn next(&mut self) -> Result<Option<(u8, &[u8])>, TlsError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 5 {
            return Ok(None);
        }
        let mut r = Reader::new(pending);
        let record_type = r.read_u8().expect("len checked");
        let _version = r.read_u16().expect("len checked");
        let len = r.read_u16().expect("len checked") as usize;
        if len > (1 << 14) + 256 {
            return Err(TlsError::Decode("oversized record"));
        }
        if pending.len() < 5 + len {
            return Ok(None);
        }
        self.consumed += 5 + len;
        Ok(Some((record_type, &pending[5..5 + len])))
    }
}

/// Protection state shared by both drivers.
struct Channel {
    read_seal: Option<Seal>,
    write_seal: Option<Seal>,
    suite: CipherSuite,
    buffer: RecordBuffer,
}

/// Turns one framed record into (content type, plaintext), opening it with
/// `read_seal` if protection is on. A free function over the one field so
/// `body` may borrow the channel's receive buffer.
fn decode_record(
    read_seal: &mut Option<Seal>,
    record_type: u8,
    body: &[u8],
) -> Result<(u8, Vec<u8>), TlsError> {
    match read_seal {
        Some(seal) if record_type == content_type::APPLICATION_DATA => seal.open(body),
        _ => Ok((record_type, body.to_vec())),
    }
}

impl Channel {
    fn new() -> Self {
        Channel {
            read_seal: None,
            write_seal: None,
            suite: CipherSuite::Aes128GcmSha256,
            buffer: RecordBuffer::default(),
        }
    }

    /// Appends `payload` to `out` as one record, protected once write keys
    /// are installed.
    fn protect_into(&mut self, inner_type: u8, payload: &[u8], out: &mut Vec<u8>) {
        match &mut self.write_seal {
            Some(seal) => seal.seal_into(inner_type, payload, out),
            None => out.extend_from_slice(&plaintext_record(inner_type, payload)),
        }
    }
}

/// Stateful TLS-over-TCP client — what Goscanner drives per target.
pub struct TlsTcpClient {
    hs: ClientHandshake,
    channel: Channel,
    app_secrets: Option<crate::schedule::AppSecrets>,
    app_plaintext: Vec<u8>,
    complete: bool,
    legacy: bool,
}

impl TlsTcpClient {
    /// Starts a connection; returns the engine and the first bytes to send.
    pub fn start(config: ClientConfig, rng: &mut dyn RngCore) -> (Self, Vec<u8>) {
        let (hs, ch_bytes) = ClientHandshake::start(config, rng);
        let first = plaintext_record(content_type::HANDSHAKE, &ch_bytes);
        (
            TlsTcpClient {
                hs,
                channel: Channel::new(),
                app_secrets: None,
                app_plaintext: Vec::new(),
                complete: false,
                legacy: false,
            },
            first,
        )
    }

    /// Feeds server bytes; returns bytes the client must send back.
    pub fn on_bytes(&mut self, data: &[u8]) -> Result<Vec<u8>, TlsError> {
        self.channel.buffer.push(data);
        let mut out = Vec::new();
        while let Some((rt, body)) = self.channel.buffer.next()? {
            let (inner_type, payload) = decode_record(&mut self.channel.read_seal, rt, body)?;
            match inner_type {
                content_type::CHANGE_CIPHER_SPEC => continue,
                content_type::ALERT => {
                    let code = payload.get(1).copied().unwrap_or(0);
                    return Err(TlsError::PeerAlert(code));
                }
                content_type::HANDSHAKE => {
                    let level = if self.channel.read_seal.is_some() {
                        Level::Handshake
                    } else {
                        Level::Initial
                    };
                    let events = self.hs.on_handshake_data(level, &payload)?;
                    self.apply_events(events, &mut out);
                }
                content_type::APPLICATION_DATA => {
                    self.app_plaintext.extend_from_slice(&payload);
                }
                _ => return Err(TlsError::Decode("unknown record type")),
            }
        }
        Ok(out)
    }

    fn apply_events(&mut self, events: Vec<TlsEvent>, out: &mut Vec<u8>) {
        for ev in events {
            match ev {
                TlsEvent::SendHandshake(_, bytes) => {
                    self.channel
                        .protect_into(content_type::HANDSHAKE, &bytes, out);
                }
                TlsEvent::HandshakeKeys(hs) => {
                    let suite = self.negotiated_suite();
                    self.channel.suite = suite;
                    self.channel.read_seal = Some(Seal::from_secret(suite, &hs.server));
                    self.channel.write_seal = Some(Seal::from_secret(suite, &hs.client));
                }
                TlsEvent::AppKeys(app) => {
                    self.app_secrets = Some(app);
                }
                TlsEvent::Complete => {
                    self.complete = true;
                    if let Some(app) = &self.app_secrets {
                        let suite = self.negotiated_suite();
                        self.channel.read_seal = Some(Seal::from_secret(suite, &app.server));
                        self.channel.write_seal = Some(Seal::from_secret(suite, &app.client));
                    } else {
                        // TLS 1.2 legacy path: stay plaintext.
                        self.legacy = true;
                    }
                }
            }
        }
    }

    fn negotiated_suite(&self) -> CipherSuite {
        self.hs
            .negotiated_cipher()
            .unwrap_or(CipherSuite::Aes128GcmSha256)
    }

    /// True when the handshake is done and app data can flow.
    pub fn is_connected(&self) -> bool {
        self.complete
    }

    /// Wraps application bytes for sending (e.g. an HTTP request), split
    /// into records within the RFC 8446 §5.1 size bound.
    pub fn send_app(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in data.chunks(MAX_FRAGMENT) {
            if self.legacy {
                out.extend(plaintext_record(content_type::APPLICATION_DATA, chunk));
            } else {
                self.channel
                    .protect_into(content_type::APPLICATION_DATA, chunk, &mut out);
            }
        }
        out
    }

    /// Drains decrypted application bytes received so far.
    pub fn recv_app(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_plaintext)
    }

    /// The recorded peer TLS properties (available after completion).
    pub fn peer_info(&self) -> Option<&PeerTlsInfo> {
        self.hs.peer_info()
    }
}

/// Maximum plaintext fragment per record (RFC 8446 §5.1: 2^14).
const MAX_FRAGMENT: usize = 1 << 14;

/// Stateful TLS-over-TCP server — runs inside simulated HTTPS deployments.
pub struct TlsTcpServer {
    hs: ServerHandshake,
    channel: Channel,
    app_secrets: Option<crate::schedule::AppSecrets>,
    app_plaintext: Vec<u8>,
    complete: bool,
    legacy: bool,
    alert_sent: Option<u8>,
}

impl TlsTcpServer {
    /// Creates a per-connection server.
    pub fn new(config: Arc<ServerConfig>, rng: &mut dyn RngCore) -> Self {
        TlsTcpServer {
            hs: ServerHandshake::new(config, rng),
            channel: Channel::new(),
            app_secrets: None,
            app_plaintext: Vec::new(),
            complete: false,
            legacy: false,
            alert_sent: None,
        }
    }

    /// Feeds client bytes; returns server bytes. On handshake failure an
    /// alert record is returned and the connection is poisoned.
    pub fn on_bytes(&mut self, data: &[u8]) -> Vec<u8> {
        if self.alert_sent.is_some() {
            return Vec::new();
        }
        match self.process(data) {
            Ok(out) => out,
            Err(e) => {
                let code = match e {
                    TlsError::LocalAlert(a, _) => a.code(),
                    TlsError::PeerAlert(c) => c,
                    _ => crate::Alert::HandshakeFailure.code(),
                };
                self.alert_sent = Some(code);
                plaintext_record(content_type::ALERT, &[2, code])
            }
        }
    }

    fn process(&mut self, data: &[u8]) -> Result<Vec<u8>, TlsError> {
        self.channel.buffer.push(data);
        let mut out = Vec::new();
        while let Some((rt, body)) = self.channel.buffer.next()? {
            let (inner_type, payload) = decode_record(&mut self.channel.read_seal, rt, body)?;
            match inner_type {
                content_type::CHANGE_CIPHER_SPEC => continue,
                content_type::ALERT => {
                    return Err(TlsError::PeerAlert(payload.get(1).copied().unwrap_or(0)))
                }
                content_type::HANDSHAKE => {
                    let level = if self.channel.read_seal.is_some() {
                        Level::Handshake
                    } else {
                        Level::Initial
                    };
                    let events = self.hs.on_handshake_data(level, &payload)?;
                    self.apply_events(events, &mut out);
                }
                content_type::APPLICATION_DATA => {
                    self.app_plaintext.extend_from_slice(&payload);
                }
                _ => return Err(TlsError::Decode("unknown record type")),
            }
        }
        Ok(out)
    }

    fn apply_events(&mut self, events: Vec<TlsEvent>, out: &mut Vec<u8>) {
        for ev in events {
            match ev {
                TlsEvent::SendHandshake(level, bytes) => {
                    if level == Level::Initial {
                        out.extend_from_slice(&plaintext_record(content_type::HANDSHAKE, &bytes));
                    } else {
                        self.channel
                            .protect_into(content_type::HANDSHAKE, &bytes, out);
                    }
                }
                TlsEvent::HandshakeKeys(hs) => {
                    // Server reads client-handshake, writes server-handshake.
                    let suite = self.negotiated_suite();
                    self.channel.read_seal = Some(Seal::from_secret(suite, &hs.client));
                    self.channel.write_seal = Some(Seal::from_secret(suite, &hs.server));
                }
                TlsEvent::AppKeys(app) => {
                    // Server may write 1-RTT immediately after its Finished,
                    // but we wait for the client Finished (Complete below).
                    self.app_secrets = Some(app);
                }
                TlsEvent::Complete => {
                    self.complete = true;
                    if let Some(app) = &self.app_secrets {
                        let suite = self.negotiated_suite();
                        self.channel.read_seal = Some(Seal::from_secret(suite, &app.client));
                        self.channel.write_seal = Some(Seal::from_secret(suite, &app.server));
                    } else {
                        self.legacy = true;
                    }
                }
            }
        }
    }

    /// True when the handshake is done.
    pub fn is_connected(&self) -> bool {
        self.complete
    }

    /// Drains decrypted application bytes from the client.
    pub fn recv_app(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_plaintext)
    }

    /// Wraps application bytes for sending (e.g. an HTTP response), split
    /// into records within the size bound.
    pub fn send_app(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in data.chunks(MAX_FRAGMENT) {
            if self.legacy {
                out.extend(plaintext_record(content_type::APPLICATION_DATA, chunk));
            } else {
                self.channel
                    .protect_into(content_type::APPLICATION_DATA, chunk, &mut out);
            }
        }
        out
    }

    /// The parsed ClientHello facts.
    pub fn client_hello(&self) -> Option<&crate::server::ClientHelloInfo> {
        self.hs.client_hello()
    }

    fn negotiated_suite(&self) -> CipherSuite {
        self.hs
            .negotiated_cipher()
            .unwrap_or(CipherSuite::Aes128GcmSha256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::server::NoSniBehavior;
    use crate::Alert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cert_for(name: &str) -> crate::cert::Certificate {
        let ca = CertificateAuthority::new("CA", 1);
        ca.issue(
            1,
            name,
            vec![],
            0,
            99,
            qcrypto::sha256::digest(name.as_bytes()),
        )
    }

    fn pump(
        client: &mut TlsTcpClient,
        server: &mut TlsTcpServer,
        mut client_out: Vec<u8>,
    ) -> Result<(), TlsError> {
        for _ in 0..6 {
            if client_out.is_empty() {
                break;
            }
            let server_out = server.on_bytes(&client_out);
            client_out = client.on_bytes(&server_out)?;
        }
        Ok(())
    }

    #[test]
    fn tcp_handshake_and_app_data() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = ClientConfig {
            server_name: Some("example.com".into()),
            alpn: vec![b"http/1.1".to_vec()],
            ..ClientConfig::default()
        };
        let (mut client, first) = TlsTcpClient::start(cfg, &mut rng);
        let server_cfg = ServerConfig {
            alpn: vec![b"h2".to_vec(), b"http/1.1".to_vec()],
            ..ServerConfig::single_cert(cert_for("example.com"))
        };
        let mut server = TlsTcpServer::new(Arc::new(server_cfg), &mut rng);
        pump(&mut client, &mut server, first).unwrap();
        assert!(client.is_connected());
        assert!(server.is_connected());
        assert_eq!(
            client.peer_info().unwrap().alpn.as_deref(),
            Some(b"http/1.1".as_slice())
        );

        // Application data both ways.
        let req = client.send_app(b"GET / HTTP/1.1\r\n\r\n");
        assert_ne!(req, b"GET / HTTP/1.1\r\n\r\n"); // actually encrypted
        server.on_bytes(&req);
        assert_eq!(server.recv_app(), b"GET / HTTP/1.1\r\n\r\n");
        let resp = server.send_app(b"HTTP/1.1 200 OK\r\n\r\n");
        client.on_bytes(&resp).unwrap();
        assert_eq!(client.recv_app(), b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn server_alert_surfaces_as_peer_alert() {
        let mut rng = StdRng::seed_from_u64(12);
        let (mut client, first) = TlsTcpClient::start(ClientConfig::default(), &mut rng);
        let server_cfg = ServerConfig {
            no_sni: NoSniBehavior::Reject(Alert::HandshakeFailure),
            ..ServerConfig::single_cert(cert_for("example.com"))
        };
        let mut server = TlsTcpServer::new(Arc::new(server_cfg), &mut rng);
        let out = server.on_bytes(&first);
        let err = client.on_bytes(&out).unwrap_err();
        assert_eq!(err, TlsError::PeerAlert(40));
    }

    #[test]
    fn fragmented_delivery_is_reassembled() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = ClientConfig {
            server_name: Some("example.com".into()),
            ..ClientConfig::default()
        };
        let (mut client, first) = TlsTcpClient::start(cfg, &mut rng);
        let server_cfg = ServerConfig::single_cert(cert_for("example.com"));
        let mut server = TlsTcpServer::new(Arc::new(server_cfg), &mut rng);
        // Deliver the ClientHello one byte at a time.
        let mut out = Vec::new();
        for b in first {
            out = server.on_bytes(&[b]);
        }
        let client_out = client.on_bytes(&out).unwrap();
        server.on_bytes(&client_out);
        assert!(client.is_connected());
        assert!(server.is_connected());
    }

    #[test]
    fn large_app_payload_spans_records() {
        let mut rng = StdRng::seed_from_u64(15);
        let cfg = ClientConfig {
            server_name: Some("big.example".into()),
            ..ClientConfig::default()
        };
        let (mut client, first) = TlsTcpClient::start(cfg, &mut rng);
        let server_cfg = ServerConfig::single_cert(cert_for("big.example"));
        let mut server = TlsTcpServer::new(Arc::new(server_cfg), &mut rng);
        pump(&mut client, &mut server, first).unwrap();
        assert!(client.is_connected());

        let big = vec![0x5au8; 70_000]; // > 4 records
        let wire = client.send_app(&big);
        assert!(wire.len() > big.len(), "wire includes per-record overhead");
        server.on_bytes(&wire);
        assert_eq!(server.recv_app(), big);

        let reply = server.send_app(&big);
        client.on_bytes(&reply).unwrap();
        assert_eq!(client.recv_app(), big);
    }

    #[test]
    fn tls12_legacy_over_tcp() {
        let mut rng = StdRng::seed_from_u64(14);
        let cfg = ClientConfig {
            server_name: Some("old.example".into()),
            ..ClientConfig::default()
        };
        let (mut client, first) = TlsTcpClient::start(cfg, &mut rng);
        let server_cfg = ServerConfig {
            tls12_only: true,
            ..ServerConfig::single_cert(cert_for("old.example"))
        };
        let mut server = TlsTcpServer::new(Arc::new(server_cfg), &mut rng);
        let out = server.on_bytes(&first);
        client.on_bytes(&out).unwrap();
        assert!(client.is_connected());
        assert_eq!(
            client.peer_info().unwrap().tls_version,
            crate::TlsVersion::Tls12
        );
    }

    /// One traffic secret's record key and IV (RFC 8446 §7.3), pinned by
    /// value for a 16-byte and a 32-byte key: the IV, and the first record
    /// sealed under the key.
    #[test]
    fn record_key_and_iv_pinned_by_value() {
        for (suite, record) in [
            (
                CipherSuite::Aes128GcmSha256,
                "170303001ece31eea62182d6f2138e6d3b027b5307b4f70d7bbff9666bc985c6832cdb",
            ),
            (
                CipherSuite::ChaCha20Poly1305Sha256,
                "170303001e6fb2e984479075de2cd29afe364c9db44d79005a29f30fbf74aaee2e6a31",
            ),
        ] {
            let mut seal = Seal::from_secret(suite, &[0x5au8; 32]);
            assert_eq!(qcodec::hex::encode(&seal.iv), "4f8fdc7bc0e05f707c360ffe");
            let mut out = Vec::new();
            seal.seal_into(content_type::HANDSHAKE, b"pinned record", &mut out);
            assert_eq!(qcodec::hex::encode(&out), record, "{suite:?}");
        }
    }

    /// The in-place record path writes the wire format the copying one did
    /// (header, then AEAD over `payload || type` with the header as AAD),
    /// opens several records from one buffer without copying them out, and
    /// refuses a damaged record without advancing the sequence number.
    #[test]
    fn records_seal_in_place_and_open_from_the_buffer() {
        for suite in CipherSuite::default_offer() {
            let secret = [0x5au8; 32];
            let mut tx = Seal::from_secret(suite, &secret);
            let mut rx = Seal::from_secret(suite, &secret);
            let reference = Seal::from_secret(suite, &secret);

            let mut wire = b"already queued".to_vec();
            tx.seal_into(content_type::HANDSHAKE, b"first", &mut wire);
            tx.seal_into(content_type::APPLICATION_DATA, &[7u8; 300], &mut wire);
            assert_eq!(&wire[..14], b"already queued");

            // Record one, built the way `seal` used to build it.
            let mut inner = b"first".to_vec();
            inner.push(content_type::HANDSHAKE);
            let aad = [
                content_type::APPLICATION_DATA,
                3,
                3,
                0,
                (inner.len() + 16) as u8,
            ];
            let mut want = aad.to_vec();
            want.extend(reference.aead.seal(&reference.nonce(), &aad, &inner));
            assert_eq!(&wire[14..14 + want.len()], &want[..], "{suite:?}");

            let mut buffer = RecordBuffer::default();
            buffer.push(&wire[14..]);
            let (ty, body) = buffer.next().unwrap().expect("first record");
            assert_eq!(ty, content_type::APPLICATION_DATA);
            assert_eq!(
                rx.open(body).unwrap(),
                (content_type::HANDSHAKE, b"first".to_vec())
            );
            let (_, body) = buffer.next().unwrap().expect("second record");
            let mut damaged = body.to_vec();
            damaged[10] ^= 1;
            assert!(rx.open(&damaged).is_err());
            assert_eq!(
                rx.open(body).unwrap(),
                (content_type::APPLICATION_DATA, vec![7u8; 300])
            );
            assert!(buffer.next().unwrap().is_none());
            // A later push starts from a compacted buffer.
            buffer.push(&[content_type::ALERT, 3, 3, 0, 2, 2, 40]);
            assert_eq!(
                buffer.next().unwrap(),
                Some((content_type::ALERT, &[2u8, 40][..]))
            );
        }
    }
}
