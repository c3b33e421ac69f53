//! End-to-end QUIC handshakes: ClientConnection vs. server Endpoint, pumped
//! over an in-memory "wire" — exercising the scan outcomes of Table 3.

use std::sync::Arc;

use quic::conn::{ClientConnection, ConnectionState, HandshakeOutcome, StreamRecv};
use quic::packet::{decode_first, ConnectionId, KeySource};
use quic::server::{Endpoint, EndpointConfig, StreamHandler, StreamSend};
use quic::version::Version;
use quic::{ClientConfig, Frame, PacketKeys, PacketType};

use qtls::cert::CertificateAuthority;
use qtls::server::NoSniBehavior;
use qtls::Alert;

struct Echo;
impl StreamHandler for Echo {
    fn on_stream_data(&mut self, id: u64, data: &[u8], fin: bool) -> Vec<StreamSend> {
        let mut out = data.to_vec();
        out.reverse();
        vec![StreamSend { id, data: out, fin }]
    }
}

fn test_tls_config(name: &str) -> Arc<qtls::ServerConfig> {
    let ca = CertificateAuthority::new("Test CA", 1);
    let cert = ca.issue(1, name, vec![format!("*.{name}")], 0, 99, [9; 32]);
    Arc::new(qtls::ServerConfig {
        alpn: vec![b"h3-29".to_vec(), b"h3".to_vec()],
        ..qtls::ServerConfig::single_cert(cert)
    })
}

fn endpoint(tls: Arc<qtls::ServerConfig>) -> Endpoint {
    Endpoint::new(EndpointConfig::new(tls), 7, Box::new(|| Box::new(Echo)))
}

fn client_config(sni: Option<&str>) -> ClientConfig {
    ClientConfig {
        versions: vec![Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34],
        tls: qtls::ClientConfig {
            server_name: sni.map(str::to_string),
            alpn: vec![b"h3-29".to_vec()],
            ..qtls::ClientConfig::default()
        },
        ..ClientConfig::default()
    }
}

/// Pumps datagrams until quiescent; returns rounds executed.
fn pump(client: &mut ClientConnection, server: &mut Endpoint) -> usize {
    let mut rounds = 0;
    for _ in 0..12 {
        let out = client.poll_transmit();
        if out.is_empty() {
            break;
        }
        rounds += 1;
        for datagram in out {
            for reply in server.handle_datagram(0xbeef, &datagram) {
                client.on_datagram(&reply);
            }
        }
    }
    rounds
}

#[test]
fn handshake_establishes_and_reports_properties() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("www.example.com")), 1);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    assert_eq!(client.outcome(), Some(&HandshakeOutcome::Established));
    assert!(client.handshake_done());

    let info = client.tls_info().expect("tls info");
    assert_eq!(info.certificates[0].subject, "example.com");
    assert_eq!(info.alpn.as_deref(), Some(b"h3-29".as_slice()));

    let tp = client.peer_transport_params().expect("transport params");
    assert_eq!(tp.initial_max_data, 1_048_576);
    assert!(tp.stateless_reset_token.is_some());
    assert!(tp.original_destination_connection_id.is_some());
}

#[test]
fn stream_data_roundtrip() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 2);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);

    let id = client.open_bidi_stream();
    assert_eq!(id, 0);
    client.send_stream(id, b"hello", true);
    pump(&mut client, &mut server);
    let streams = client.poll_streams();
    assert_eq!(streams.len(), 1);
    assert_eq!(streams[0].data, b"olleh");
    assert!(streams[0].fin);
}

/// [`Echo`] that also opens server stream 3 when the handshake completes,
/// as the HTTP/3 control stream does.
struct EchoWithControl;
impl StreamHandler for EchoWithControl {
    fn on_connected(&mut self) -> Vec<StreamSend> {
        vec![StreamSend {
            id: 3,
            data: b"control".to_vec(),
            fin: false,
        }]
    }

    fn on_stream_data(&mut self, id: u64, data: &[u8], fin: bool) -> Vec<StreamSend> {
        Echo.on_stream_data(id, data, fin)
    }
}

/// FNV-1a over the concatenated datagrams.
fn fnv1a(datagrams: &[Vec<u8>]) -> u64 {
    datagrams
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every datagram of one scripted exchange, both directions, in send order
/// — lost ones included.
#[derive(Default)]
struct Wire {
    sent: Vec<Vec<u8>>,
}

impl Wire {
    /// One round: the client's queued datagrams go to the server, and the
    /// replies back to the client unless `lose_replies`. Returns how many
    /// datagrams the client sent.
    fn round(
        &mut self,
        client: &mut ClientConnection,
        server: &mut Endpoint,
        lose_replies: bool,
    ) -> usize {
        let out = client.poll_transmit();
        for datagram in &out {
            self.sent.push(datagram.clone());
            for reply in server.handle_datagram(0xbeef, datagram) {
                if !lose_replies {
                    client.on_datagram(&reply);
                }
                self.sent.push(reply);
            }
        }
        out.len()
    }

    /// Rounds until the client has nothing to send.
    fn pump(&mut self, client: &mut ClientConnection, server: &mut Endpoint) {
        for _ in 0..12 {
            if self.round(client, server, false) == 0 {
                break;
            }
        }
    }

    /// The pin: datagram lengths and an FNV-1a over their bytes.
    fn pin(&self) -> (Vec<usize>, u64) {
        (self.sent.iter().map(Vec::len).collect(), fnv1a(&self.sent))
    }
}

/// A handler-served connection's 1-RTT output: the stream opened at
/// establishment rides in the HANDSHAKE_DONE packet, and a 3,000-byte
/// answer (more than one 1,400-byte payload holds) leaves as 1,200-byte
/// chunks, one packet each.
fn handshake_and_stream(wire: &mut Wire) {
    let mut server = Endpoint::new(
        EndpointConfig::new(test_tls_config("example.com")),
        7,
        Box::new(|| Box::new(EchoWithControl)),
    );
    let mut client = ClientConnection::new(client_config(Some("example.com")), 50);
    wire.pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    let request: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 251) as u8).collect();
    let id = client.open_bidi_stream();
    client.send_stream(id, &request, true);
    wire.pump(&mut client, &mut server);
    let mut answer = request;
    answer.reverse();
    assert_eq!(
        client.poll_streams(),
        vec![
            StreamRecv {
                id: 0,
                data: answer,
                fin: true,
            },
            StreamRecv {
                id: 3,
                data: b"control".to_vec(),
                fin: false,
            },
        ]
    );
}

/// Draft-29 is offered first, the server takes v1 only: a VN, then a new
/// connection at v1.
fn vn_restart(wire: &mut Wire) {
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.accept_versions = vec![Version::V1];
    config.vn_advertise = vec![Version::V1];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut cc = client_config(Some("example.com"));
    cc.versions = vec![Version::DRAFT_29, Version::V1];
    let mut client = ClientConnection::new(cc, 52);
    wire.pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    assert_eq!(client.version(), Version::V1);
}

/// Opens a client Initial with the client keys of the DCID it carries.
struct ClientInitialKeys(PacketKeys);

impl KeySource for ClientInitialKeys {
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
        (ty == PacketType::Initial).then_some(&self.0)
    }
}

/// The packet number of the client Initial that begins `datagram`.
fn client_initial_pn(datagram: &[u8]) -> u64 {
    let version = Version(u32::from_be_bytes(datagram[1..5].try_into().unwrap()));
    let dcid = &datagram[6..6 + usize::from(datagram[5])];
    let keys = ClientInitialKeys(quic::initial_keys(version, dcid).0);
    let (packet, _) = decode_first(datagram, 8, &keys).expect("a client Initial");
    packet.packet_number
}

/// An address-validating server: Retry, then the Initial with its token,
/// which continues the first Initial's packet numbers (RFC 9000 §17.2.5.3).
fn retry(wire: &mut Wire) {
    let mut config = EndpointConfig::new(test_tls_config("retry.example"));
    config.use_retry = true;
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(Some("retry.example")), 53);
    wire.pump(&mut client, &mut server);
    assert!(client.handshake_done());
    // Client Initial, Retry, client Initial to the Retry's SCID.
    let (first, after_retry) = (&wire.sent[0], &wire.sent[2]);
    assert_ne!(first[6..14], after_retry[6..14], "a new DCID");
    assert!(client_initial_pn(after_retry) > client_initial_pn(first));
}

/// The server's flight is lost, then its HANDSHAKE_DONE: the client's probe
/// timeouts resend the Initial and then the Finished, and the server
/// answers each repeat from its caches.
fn pto_retransmissions(wire: &mut Wire) {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 54);
    assert_eq!(wire.round(&mut client, &mut server, true), 1);
    assert!(client.on_pto(), "the Initial is resent");
    assert_eq!(wire.round(&mut client, &mut server, false), 1);
    assert_eq!(wire.round(&mut client, &mut server, true), 1);
    assert!(!client.handshake_done());
    assert!(client.on_pto(), "the Finished is resent");
    wire.pump(&mut client, &mut server);
    assert!(client.handshake_done());
}

/// A server that requires SNI closes a no-SNI handshake with 0x128.
fn tls_failure_close(wire: &mut Wire) {
    let ca = CertificateAuthority::new("Test CA", 1);
    let cert = ca.issue(1, "cf.example", vec![], 0, 99, [9; 32]);
    let tls = Arc::new(qtls::ServerConfig {
        no_sni: NoSniBehavior::Reject(Alert::HandshakeFailure),
        alpn: vec![b"h3-29".to_vec()],
        ..qtls::ServerConfig::single_cert(cert)
    });
    let mut config = EndpointConfig::new(tls);
    config.close_reason = "tls handshake failure".into();
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(None), 55);
    wire.pump(&mut client, &mut server);
    assert!(matches!(
        client.outcome(),
        Some(HandshakeOutcome::TransportClose { code, .. }) if code.0 == 0x128
    ));
}

/// An established client acknowledges a 1-RTT packet the server never
/// sent; the server closes with PROTOCOL_VIOLATION.
fn ack_of_unsent_close(wire: &mut Wire) {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 56);
    wire.pump(&mut client, &mut server);
    assert!(client.handshake_done());
    let mut ack = qcodec::Writer::new();
    Frame::Ack {
        largest: 1000,
        delay: 0,
        ranges: vec![(1000, 1000)],
    }
    .encode(&mut ack);
    client
        .send_app_payload(ack.as_slice())
        .expect("established");
    wire.pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Closed);
}

/// Pins every datagram both sides send, by length and by value, across the
/// handshake paths: a plain handshake with stream data, a VN restart, a
/// Retry, probe-timeout retransmissions and the two closes.
#[test]
fn wire_is_pinned_by_value() {
    type Case = (&'static str, fn(&mut Wire), Vec<usize>, u64);
    let cases: Vec<Case> = vec![
        (
            "handshake_and_stream",
            handshake_and_stream,
            vec![1200, 500, 154, 41, 34, 3034, 1234, 1235, 635, 34, 34, 34],
            16_363_953_299_997_858_188,
        ),
        (
            "vn_restart",
            vn_restart,
            vec![1200, 27, 1200, 500, 154, 30, 34],
            8_792_975_965_781_810_579,
        ),
        (
            "retry",
            retry,
            vec![1200, 51, 1200, 504, 154, 30, 34],
            5_113_683_143_803_241_639,
        ),
        (
            "pto_retransmissions",
            pto_retransmissions,
            vec![1200, 500, 1200, 500, 154, 30, 89, 30, 34],
            5_301_014_638_060_528_120,
        ),
        (
            "tls_failure_close",
            tls_failure_close,
            vec![1200, 71],
            10_984_649_199_445_834_777,
        ),
        (
            "ack_of_unsent_close",
            ack_of_unsent_close,
            vec![1200, 500, 154, 30, 34, 35, 60],
            3_225_932_331_670_097_500,
        ),
    ];
    let mut failed = Vec::new();
    for (name, run, lengths, hash) in cases {
        let mut wire = Wire::default();
        run(&mut wire);
        let got = wire.pin();
        if got != (lengths, hash) {
            failed.push(format!("{name}: {got:?}"));
        }
    }
    assert!(failed.is_empty(), "{failed:#?}");
}

/// Answers a finished request with 3,000 bytes on its stream and an empty
/// FIN on stream 4.
struct LongAnswerAndEmptyFin;
impl StreamHandler for LongAnswerAndEmptyFin {
    fn on_stream_data(&mut self, id: u64, _data: &[u8], fin: bool) -> Vec<StreamSend> {
        if !fin {
            return Vec::new();
        }
        vec![
            StreamSend {
                id,
                data: vec![7; 3000],
                fin: true,
            },
            StreamSend {
                id: 4,
                data: Vec::new(),
                fin: true,
            },
        ]
    }
}

/// An answer too large for one payload leaves in 1,200-byte chunks; an
/// empty send beside it still leaves as a frame, so its FIN arrives.
#[test]
fn empty_fin_survives_a_chunked_answer() {
    let mut server = Endpoint::new(
        EndpointConfig::new(test_tls_config("example.com")),
        7,
        Box::new(|| Box::new(LongAnswerAndEmptyFin)),
    );
    let mut client = ClientConnection::new(client_config(Some("example.com")), 51);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    let id = client.open_bidi_stream();
    client.send_stream(id, b"GET", true);
    pump(&mut client, &mut server);
    let streams: Vec<(u64, usize, bool)> = client
        .poll_streams()
        .iter()
        .map(|s| (s.id, s.data.len(), s.fin))
        .collect();
    assert_eq!(streams, [(0, 3000, true), (4, 0, true)]);
}

#[test]
fn sni_required_yields_crypto_error_0x128() {
    let ca = CertificateAuthority::new("Test CA", 1);
    let cert = ca.issue(1, "cf.example", vec![], 0, 99, [9; 32]);
    let tls = Arc::new(qtls::ServerConfig {
        no_sni: NoSniBehavior::Reject(Alert::HandshakeFailure),
        alpn: vec![b"h3-29".to_vec()],
        ..qtls::ServerConfig::single_cert(cert)
    });
    let mut config = EndpointConfig::new(tls);
    config.close_reason = "tls handshake failure".into();
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(None), 3);
    pump(&mut client, &mut server);
    match client.outcome() {
        Some(HandshakeOutcome::TransportClose { code, reason }) => {
            assert_eq!(code.0, 0x128);
            assert_eq!(reason, "tls handshake failure");
        }
        other => panic!("expected 0x128 close, got {other:?}"),
    }
}

#[test]
fn version_negotiation_restart_succeeds() {
    // Server only accepts v1; client offers draft-29 first, v1 second.
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.accept_versions = vec![Version::V1];
    config.vn_advertise = vec![Version::V1];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut cc = client_config(Some("example.com"));
    cc.versions = vec![Version::DRAFT_29, Version::V1];
    let mut client = ClientConnection::new(cc, 4);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    assert_eq!(client.version(), Version::V1);
}

#[test]
fn version_mismatch_when_no_common_version() {
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.accept_versions = vec![Version::Q050];
    config.vn_advertise = vec![Version::Q050, Version::Q046, Version::Q043];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(Some("g.example")), 5);
    pump(&mut client, &mut server);
    match client.outcome() {
        Some(HandshakeOutcome::VersionMismatch {
            server_versions, ..
        }) => {
            assert!(server_versions.contains(&Version::Q050));
        }
        other => panic!("expected version mismatch, got {other:?}"),
    }
}

#[test]
fn google_rollout_artifact_vn_lists_offered_version() {
    // The VN advertises draft-29 while the handshake path rejects it — the
    // inconsistent roll-out the paper debugged with Google (§5).
    let mut config = EndpointConfig::new(test_tls_config("google.example"));
    config.accept_versions = vec![Version::Q050, Version::T051];
    config.vn_advertise = vec![
        Version::DRAFT_29,
        Version::T051,
        Version::Q050,
        Version::Q046,
        Version::Q043,
    ];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(Some("g.example")), 6);
    pump(&mut client, &mut server);
    assert!(
        matches!(
            client.outcome(),
            Some(HandshakeOutcome::VersionMismatch { .. })
        ),
        "got {:?}",
        client.outcome()
    );
}

#[test]
fn vn_only_middlebox_goes_silent() {
    let mut config = EndpointConfig::new(test_tls_config("akamai.example"));
    config.vn_only = true;
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(Some("a.example")), 7);
    pump(&mut client, &mut server);
    // No terminal outcome: the scan driver will classify this as a timeout.
    assert_eq!(client.state(), &ConnectionState::Handshaking);
    assert_eq!(client.outcome(), None);
}

#[test]
fn forced_version_negotiation_probe() {
    // A reserved-version Initial (the ZMap probe) elicits a VN listing the
    // advertised versions.
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.vn_advertise = vec![Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut cc = client_config(None);
    cc.versions = vec![Version::FORCE_NEGOTIATION];
    let mut client = ClientConnection::new(cc, 8);
    pump(&mut client, &mut server);
    match client.outcome() {
        Some(HandshakeOutcome::VersionMismatch {
            server_versions, ..
        }) => {
            assert_eq!(
                server_versions,
                &[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27]
            );
        }
        other => panic!("expected VN list, got {other:?}"),
    }
}

#[test]
fn unpadded_probe_ignored_by_default() {
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.vn_advertise = vec![Version::DRAFT_29];
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    // Hand-roll a tiny unpadded reserved-version Initial-like probe.
    let probe = {
        let mut v = vec![0xc0u8];
        v.extend_from_slice(&Version::FORCE_NEGOTIATION.0.to_be_bytes());
        v.push(4);
        v.extend_from_slice(b"dcid");
        v.push(4);
        v.extend_from_slice(b"scid");
        v
    };
    assert!(server.handle_datagram(1, &probe).is_empty());

    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.vn_advertise = vec![Version::DRAFT_29];
    config.respond_to_unpadded = true;
    let mut lenient = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let replies = lenient.handle_datagram(1, &probe);
    assert_eq!(replies.len(), 1, "lenient host answers unpadded probes");
}

#[test]
fn retry_address_validation_roundtrip() {
    // An lsquic-style deployment validating client addresses via Retry:
    // the client must restart its Initial with the token and the new DCID.
    let mut config = EndpointConfig::new(test_tls_config("retry.example"));
    config.use_retry = true;
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(Some("retry.example")), 21);
    let rounds = pump(&mut client, &mut server);
    assert_eq!(
        client.state(),
        &ConnectionState::Established,
        "after {rounds} rounds"
    );
    assert_eq!(client.outcome(), Some(&HandshakeOutcome::Established));
    assert!(client.handshake_done());
}

#[test]
fn forged_retry_is_ignored() {
    // A Retry with a bad integrity tag must be dropped and the handshake
    // with the legitimate server must still complete.
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 22);
    let first_flight = client.poll_transmit();
    // Attacker injects a forged Retry before the server answers.
    let forged = quic::retry::encode_retry(
        client.version(),
        &quic::packet::ConnectionId::new(b"whatever"),
        &quic::packet::ConnectionId::new(b"attacker"),
        &quic::packet::ConnectionId::new(b"wrong-odcid"),
        b"evil-token",
    );
    client.on_datagram(&forged);
    for datagram in first_flight {
        for reply in server.handle_datagram(0xbeef, &datagram) {
            client.on_datagram(&reply);
        }
    }
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
}

#[test]
fn vn_after_established_is_ignored() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 30);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    // A late (spoofed) Version Negotiation must not disturb the connection.
    let vn = quic::packet::encode_version_negotiation(
        &quic::packet::ConnectionId::new(b"x"),
        &quic::packet::ConnectionId::new(b"y"),
        &[Version::Q043],
    );
    client.on_datagram(&vn);
    assert_eq!(client.state(), &ConnectionState::Established);
    assert_eq!(client.outcome(), Some(&HandshakeOutcome::Established));
}

#[test]
fn multiple_streams_multiplex() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 31);
    pump(&mut client, &mut server);
    let a = client.open_bidi_stream();
    let b = client.open_bidi_stream();
    let u = client.open_uni_stream();
    assert_eq!((a, b, u), (0, 4, 2));
    client.send_stream(a, b"first", true);
    client.send_stream(b, b"second", true);
    pump(&mut client, &mut server);
    let streams = client.poll_streams();
    assert_eq!(streams.len(), 2);
    assert_eq!(streams[0].id, a);
    assert_eq!(streams[0].data, b"tsrif");
    assert_eq!(streams[1].data, b"dnoces");
}

#[test]
fn garbage_responses_do_not_wedge_the_client() {
    let mut client = ClientConnection::new(client_config(Some("example.com")), 32);
    let _ = client.poll_transmit();
    client.on_datagram(&[0x00]);
    client.on_datagram(&[0xc0, 0xff, 0xee]);
    client.on_datagram(&[0x40; 64]);
    // Still pending, no spurious terminal outcome.
    assert_eq!(client.state(), &ConnectionState::Handshaking);
    assert_eq!(client.outcome(), None);
}

#[test]
fn tracing_buffers_key_schedule_and_phases() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new_traced(client_config(Some("example.com")), 40);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    let names: Vec<&'static str> = client.take_events().iter().map(|k| k.name()).collect();
    assert_eq!(
        names,
        vec![
            "key_derived",
            "key_derived",
            "key_derived",
            "handshake_phase"
        ],
        "initial + handshake + 1rtt keys, then the established transition"
    );
    // Drained: a second take is empty.
    assert!(client.take_events().is_empty());
}

#[test]
fn untraced_connection_buffers_nothing() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 41);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    assert!(client.take_events().is_empty());
}

#[test]
fn tracing_records_vn_and_retry() {
    let mut config = EndpointConfig::new(test_tls_config("example.com"));
    config.accept_versions = vec![Version::V1];
    config.vn_advertise = vec![Version::V1];
    config.use_retry = true;
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut cc = client_config(Some("example.com"));
    cc.versions = vec![Version::DRAFT_29, Version::V1];
    let mut client = ClientConnection::new_traced(cc, 42);
    pump(&mut client, &mut server);
    assert_eq!(client.state(), &ConnectionState::Established);
    let events = client.take_events();
    let names: Vec<&'static str> = events.iter().map(|k| k.name()).collect();
    assert!(names.contains(&"version_negotiation"), "{names:?}");
    assert!(names.contains(&"retry_received"), "{names:?}");
    let vn = events
        .iter()
        .find_map(|k| match k {
            telemetry::EventKind::VersionNegotiation { server_versions } => {
                Some(server_versions.clone())
            }
            _ => None,
        })
        .unwrap();
    assert_eq!(vn, vec![Version::V1.label()]);
}

#[test]
fn close_reason_wording_is_surfaced() {
    // The paper fingerprints implementations by CONNECTION_CLOSE wording;
    // the client must surface the exact string.
    let ca = CertificateAuthority::new("Test CA", 1);
    let cert = ca.issue(1, "x.example", vec![], 0, 99, [9; 32]);
    let tls = Arc::new(qtls::ServerConfig {
        no_sni: NoSniBehavior::Reject(Alert::HandshakeFailure),
        ..qtls::ServerConfig::single_cert(cert)
    });
    let mut config = EndpointConfig::new(tls);
    config.close_reason = "fizz::FizzException: handshake failure".into();
    let mut server = Endpoint::new(config, 7, Box::new(|| Box::new(Echo)));
    let mut client = ClientConnection::new(client_config(None), 33);
    pump(&mut client, &mut server);
    match client.outcome() {
        Some(HandshakeOutcome::TransportClose { reason, .. }) => {
            assert_eq!(reason, "fizz::FizzException: handshake failure");
        }
        other => panic!("{other:?}"),
    }
}

/// A Client Hello split over two CRYPTO frames that arrive tail first: the
/// server holds the tail until the head fills the gap, then answers; a full
/// duplicate of the Client Hello gets the cached flight back.
#[test]
fn server_reassembles_a_client_hello_arriving_out_of_order() {
    let mut server = endpoint(test_tls_config("example.com"));
    let mut client = ClientConnection::new(client_config(Some("example.com")), 60);
    let first = client.poll_transmit().remove(0);
    // The two halves stand in for the client's first two Initials.
    assert!(client.on_pto());
    client.poll_transmit();

    let version = Version(u32::from_be_bytes(first[1..5].try_into().unwrap()));
    let dcid = ConnectionId::new(&first[6..14]);
    let scid = ConnectionId::new(&first[15..23]);
    let keys = ClientInitialKeys(quic::initial_keys(version, dcid.as_slice()).0);
    let (packet, _) = decode_first(&first, 8, &keys).expect("a client Initial");
    let Some(Frame::Crypto {
        offset: 0,
        data: ch,
    }) = Frame::decode_all(&packet.payload)
        .unwrap()
        .into_iter()
        .next()
    else {
        panic!("the Initial begins with the Client Hello");
    };
    let (head, tail) = ch.split_at(ch.len() / 2);
    let initial = |pn: u64, offset: usize, data: &[u8]| {
        let mut frames = qcodec::Writer::new();
        Frame::encode_crypto(&mut frames, offset as u64, data);
        quic::packet::seal_long(
            PacketType::Initial,
            version,
            &dcid,
            &scid,
            b"",
            pn,
            frames.as_slice(),
            &keys.0,
            1162,
        )
    };
    let (tail, head) = (initial(0, head.len(), tail), initial(1, 0, head));

    assert!(
        server.handle_datagram(0xbeef, &tail).is_empty(),
        "the tail waits for the head"
    );
    let flight = server.handle_datagram(0xbeef, &head);
    assert!(!flight.is_empty(), "the whole Client Hello is answered");
    assert_eq!(server.handle_datagram(0xbeef, &head), flight);
    for reply in &flight {
        client.on_datagram(reply);
    }
    pump(&mut client, &mut server);
    assert!(client.handshake_done());
}
