//! TLS 1.3 server handshake engine — the side the simulated deployments run.
//!
//! [`ServerConfig`] encodes the deployment knobs the paper observes in the
//! wild: SNI-dependent certificate selection, "SNI required" failures
//! (Cloudflare's alert 0x128 pattern), Google's self-signed no-SNI error
//! certificate, ALPN policy, cipher/group preferences, whether the empty
//! server_name acknowledgment is sent, and a TLS 1.2-only legacy mode.

use std::sync::Arc;

use rand::RngCore;

use crate::cert::{self, Certificate};
use crate::cipher::CipherSuite;
use crate::client::sim_signature;
use crate::ext::{Extension, NamedGroup};
use crate::msgs::{ClientHello, Handshake, ServerHello};
use crate::schedule::{
    app_secrets, finished_verify_data, handshake_secrets, nonzero, HandshakeSecrets, Transcript,
};
use crate::{Alert, Level, TlsError, TlsEvent, TlsVersion};

use qcrypto::x25519;

/// What a server does when the client sends no SNI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoSniBehavior {
    /// Serve the default certificate (index into `certs`).
    UseDefault(usize),
    /// Serve a freshly minted self-signed certificate whose common name
    /// spells out the error — Google's observed behaviour on TLS-over-TCP.
    SelfSignedError(String),
    /// Abort with an alert — Cloudflare's observed behaviour on QUIC
    /// (alert 40 → QUIC error 0x128).
    Reject(Alert),
}

/// Server-side deployment configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Certificates selectable by SNI (leaf only; first match wins).
    pub certs: Vec<Certificate>,
    /// Behaviour when no SNI is present.
    pub no_sni: NoSniBehavior,
    /// Behaviour when SNI matches no certificate: serve `certs[0]` when
    /// `false`, abort with unrecognized_name when `true`.
    pub reject_unknown_sni: bool,
    /// ALPN protocols in server preference order (empty = no ALPN ext).
    pub alpn: Vec<Vec<u8>>,
    /// Abort when ALPN negotiation fails (QUIC requires ALPN; RFC 9001 §8.1).
    pub alpn_required: bool,
    /// Cipher preference order.
    pub cipher_pref: Vec<CipherSuite>,
    /// Group preference order.
    pub group_pref: Vec<NamedGroup>,
    /// Send the empty server_name acknowledgment when SNI was used.
    pub send_sni_ack: bool,
    /// Suppress the ALPN extension when the client sent no SNI — the Google
    /// edge behaviour behind the Table 5 extension mismatches.
    pub no_alpn_without_sni: bool,
    /// Raw QUIC transport parameters for the EE extension (QUIC only).
    pub quic_transport_params: Option<Vec<u8>>,
    /// Negotiate only TLS 1.2 (TCP path; QUIC handshakes then fail) —
    /// models Cloudflare's "TLS 1.3 disabled but QUIC enabled" deployments.
    pub tls12_only: bool,
    /// Simulation week, used for certificate validity bookkeeping.
    pub week: u32,
}

impl ServerConfig {
    /// A permissive config serving one certificate for everything.
    pub fn single_cert(cert: Certificate) -> Self {
        ServerConfig {
            certs: vec![cert],
            no_sni: NoSniBehavior::UseDefault(0),
            reject_unknown_sni: false,
            alpn: Vec::new(),
            alpn_required: false,
            cipher_pref: CipherSuite::default_offer(),
            group_pref: vec![NamedGroup::X25519, NamedGroup::Secp256r1],
            send_sni_ack: true,
            no_alpn_without_sni: false,
            quic_transport_params: None,
            tls12_only: false,
            week: 0,
        }
    }
}

/// Facts extracted from the ClientHello, for behaviour decisions and logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientHelloInfo {
    /// SNI, if offered.
    pub server_name: Option<String>,
    /// Offered ALPN protocols.
    pub alpn: Vec<Vec<u8>>,
    /// Raw client QUIC transport parameters, if present.
    pub quic_transport_params: Option<Vec<u8>>,
}

enum State {
    WaitClientHello,
    WaitClientFinished,
    Complete,
    Failed,
}

/// Sans-IO TLS 1.3 server handshake (one instance per connection).
pub struct ServerHandshake {
    config: Arc<ServerConfig>,
    state: State,
    transcript: Transcript,
    hs_secrets: Option<HandshakeSecrets>,
    client_hello: Option<ClientHelloInfo>,
    random: [u8; 32],
    kx_secret: [u8; 32],
    serial_nonce: u64,
    negotiated_cipher: Option<CipherSuite>,
    /// Per-connection QUIC transport parameters overriding the config's.
    tp_override: Option<Vec<u8>>,
}

impl ServerHandshake {
    /// Creates a per-connection server engine.
    pub fn new(config: Arc<ServerConfig>, rng: &mut dyn RngCore) -> Self {
        let mut random = [0u8; 32];
        rng.fill_bytes(&mut random);
        let mut kx_secret = [0u8; 32];
        rng.fill_bytes(&mut kx_secret);
        ServerHandshake {
            config,
            state: State::WaitClientHello,
            transcript: Transcript::new(),
            hs_secrets: None,
            client_hello: None,
            random,
            kx_secret,
            serial_nonce: u64::from_be_bytes(random[..8].try_into().unwrap()),
            negotiated_cipher: None,
            tp_override: None,
        }
    }

    /// Like [`ServerHandshake::new`], but shares the endpoint's config Arc
    /// while overriding the QUIC transport parameters for this connection
    /// (they carry per-connection CIDs and tokens). Draws the same RNG bytes
    /// as `new`.
    pub fn with_overrides(
        config: Arc<ServerConfig>,
        quic_transport_params: Option<Vec<u8>>,
        rng: &mut dyn RngCore,
    ) -> Self {
        let mut hs = ServerHandshake::new(config, rng);
        hs.tp_override = quic_transport_params;
        hs
    }

    /// Feeds handshake bytes received at `level`.
    pub fn on_handshake_data(
        &mut self,
        level: Level,
        bytes: &[u8],
    ) -> Result<Vec<TlsEvent>, TlsError> {
        let msgs =
            Handshake::decode_stream_raw(bytes).map_err(|_| TlsError::Decode("handshake"))?;
        let mut events = Vec::new();
        for (msg, raw) in msgs {
            self.on_message(level, msg, raw, &mut events)?;
        }
        Ok(events)
    }

    fn on_message(
        &mut self,
        level: Level,
        msg: Handshake,
        raw: &[u8],
        events: &mut Vec<TlsEvent>,
    ) -> Result<(), TlsError> {
        match (&self.state, msg) {
            (State::WaitClientHello, Handshake::ClientHello(ch)) => {
                if level != Level::Initial {
                    return Err(TlsError::UnexpectedMessage("ClientHello level"));
                }
                self.process_client_hello(ch, raw, events)
            }
            (State::WaitClientFinished, Handshake::Finished(verify)) => {
                let hs = self
                    .hs_secrets
                    .clone()
                    .expect("handshake secrets installed");
                let th = self.transcript.hash();
                if verify != finished_verify_data(&hs.client, &th) {
                    self.state = State::Failed;
                    return Err(TlsError::BadFinished);
                }
                self.transcript.add(raw);
                self.state = State::Complete;
                events.push(TlsEvent::Complete);
                Ok(())
            }
            (State::Failed, _) => Err(TlsError::UnexpectedMessage("engine already failed")),
            _ => Err(TlsError::UnexpectedMessage("message in wrong state")),
        }
    }

    fn fail(&mut self, alert: Alert, why: &'static str) -> TlsError {
        self.state = State::Failed;
        TlsError::LocalAlert(alert, why)
    }

    fn process_client_hello(
        &mut self,
        ch: ClientHello,
        raw: &[u8],
        events: &mut Vec<TlsEvent>,
    ) -> Result<(), TlsError> {
        // Hash the received wire bytes directly instead of re-encoding.
        self.transcript.add(raw);

        // Extract offer facts.
        let mut info = ClientHelloInfo::default();
        let mut client_versions = Vec::new();
        let mut client_shares: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut client_groups = Vec::new();
        for ext in &ch.extensions {
            match ext {
                Extension::ServerName(Some(name)) => info.server_name = Some(name.clone()),
                Extension::Alpn(protos) => info.alpn = protos.clone(),
                Extension::QuicTransportParameters(tp) => {
                    info.quic_transport_params = Some(tp.clone())
                }
                Extension::SupportedVersionsList(vs) => client_versions = vs.clone(),
                Extension::KeyShareList(entries) => client_shares = entries.clone(),
                Extension::SupportedGroups(gs) => client_groups = gs.clone(),
                _ => {}
            }
        }
        let _ = client_groups;
        self.client_hello = Some(info.clone());

        // Version selection.
        let offers_13 = client_versions.contains(&TlsVersion::Tls13.wire());
        if self.config.tls12_only {
            return self.legacy_tls12(ch.session_id, info, events);
        }
        if !offers_13 {
            return Err(self.fail(Alert::ProtocolVersion, "client lacks TLS 1.3"));
        }

        // Certificate selection drives the paper's no-SNI outcomes.
        let cert = self.select_certificate(&info)?;

        // ALPN.
        let suppress_alpn = self.config.no_alpn_without_sni && info.server_name.is_none();
        let selected_alpn = if self.config.alpn.is_empty() || suppress_alpn {
            None
        } else {
            let pick = self
                .config
                .alpn
                .iter()
                .find(|p| info.alpn.contains(p))
                .cloned();
            match pick {
                Some(p) => Some(p),
                None if self.config.alpn_required => {
                    return Err(self.fail(Alert::NoApplicationProtocol, "no common ALPN"));
                }
                None => None,
            }
        };

        // Cipher.
        let cipher = self
            .config
            .cipher_pref
            .iter()
            .find(|c| ch.cipher_suites.contains(&c.wire()))
            .copied()
            .ok_or_else(|| self.fail(Alert::HandshakeFailure, "no common cipher"))?;
        self.negotiated_cipher = Some(cipher);

        // Group + key exchange.
        let (group, peer_public) = self
            .config
            .group_pref
            .iter()
            .find_map(|g| {
                client_shares
                    .iter()
                    .find(|(gw, _)| *gw == g.wire())
                    .map(|(_, kx)| (*g, kx.clone()))
            })
            .ok_or_else(|| self.fail(Alert::HandshakeFailure, "no common group"))?;
        let peer_public: [u8; 32] = peer_public
            .try_into()
            .map_err(|_| self.fail(Alert::IllegalParameter, "bad key share length"))?;
        let (shared, my_public) = x25519::shared_and_public(&self.kx_secret, &peer_public);
        let shared = nonzero(shared)
            .ok_or_else(|| self.fail(Alert::IllegalParameter, "all-zero shared secret"))?;

        // ServerHello.
        let sh = Handshake::ServerHello(ServerHello {
            random: self.random,
            session_id: ch.session_id,
            cipher_suite: cipher.wire(),
            extensions: vec![
                Extension::SelectedVersion(TlsVersion::Tls13.wire()),
                Extension::KeyShareServer(group.wire(), my_public.to_vec()),
            ],
        });
        let sh_bytes = sh.encode();
        self.transcript.add(&sh_bytes);
        events.push(TlsEvent::SendHandshake(Level::Initial, sh_bytes));

        let th = self.transcript.hash();
        let hs = handshake_secrets(&shared, &th);
        events.push(TlsEvent::HandshakeKeys(hs.clone()));
        self.hs_secrets = Some(hs.clone());

        // EncryptedExtensions.
        let mut ee = Vec::new();
        if self.config.send_sni_ack && info.server_name.is_some() {
            ee.push(Extension::ServerName(None));
        }
        if let Some(p) = &selected_alpn {
            ee.push(Extension::Alpn(vec![p.clone()]));
        }
        if let Some(tp) = self
            .tp_override
            .as_ref()
            .or(self.config.quic_transport_params.as_ref())
        {
            ee.push(Extension::QuicTransportParameters(tp.clone()));
        }
        let mut flight = Handshake::EncryptedExtensions(ee).encode();

        // Certificate.
        let public_key = cert.public_key;
        flight.extend_from_slice(&Handshake::Certificate(vec![cert]).encode());

        // CertificateVerify over the transcript through Certificate.
        {
            let mut t = self.transcript.clone();
            t.add(&flight);
            let sig = sim_signature(&public_key, &t.hash());
            let cv = Handshake::CertificateVerify(0x0807, sig).encode();
            flight.extend_from_slice(&cv);
        }

        // Server Finished over the transcript through CertificateVerify.
        {
            let mut t = self.transcript.clone();
            t.add(&flight);
            let verify = finished_verify_data(&hs.server, &t.hash());
            let fin = Handshake::Finished(verify).encode();
            flight.extend_from_slice(&fin);
        }
        self.transcript.add(&flight);
        events.push(TlsEvent::SendHandshake(Level::Handshake, flight));

        // Application secrets become available after the server Finished.
        let app = app_secrets(&hs, &self.transcript.hash());
        events.push(TlsEvent::AppKeys(app));

        self.state = State::WaitClientFinished;
        Ok(())
    }

    fn legacy_tls12(
        &mut self,
        session_id: Vec<u8>,
        info: ClientHelloInfo,
        events: &mut Vec<TlsEvent>,
    ) -> Result<(), TlsError> {
        let cert = self.select_certificate(&info)?;
        let sh = Handshake::ServerHello(ServerHello {
            random: self.random,
            session_id,
            cipher_suite: 0xc02f, // ECDHE-RSA-AES128-GCM-SHA256 placeholder
            extensions: vec![Extension::SelectedVersion(TlsVersion::Tls12.wire())],
        });
        let mut bytes = sh.encode();
        bytes.extend_from_slice(&Handshake::Certificate(vec![cert]).encode());
        events.push(TlsEvent::SendHandshake(Level::Initial, bytes));
        events.push(TlsEvent::Complete);
        self.state = State::Complete;
        Ok(())
    }

    fn select_certificate(&mut self, info: &ClientHelloInfo) -> Result<Certificate, TlsError> {
        match &info.server_name {
            Some(name) => {
                if let Some(cert) = self.config.certs.iter().find(|c| c.matches_name(name)) {
                    Ok(cert.clone())
                } else if self.config.reject_unknown_sni {
                    // Observed CDN behaviour: a generic handshake_failure
                    // (QUIC error 0x128), not unrecognized_name.
                    Err(self.fail(Alert::HandshakeFailure, "unknown SNI"))
                } else {
                    self.config
                        .certs
                        .first()
                        .cloned()
                        .ok_or_else(|| self.fail(Alert::HandshakeFailure, "no certificate"))
                }
            }
            None => match &self.config.no_sni {
                NoSniBehavior::UseDefault(i) => self
                    .config
                    .certs
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| self.fail(Alert::HandshakeFailure, "no default certificate")),
                NoSniBehavior::SelfSignedError(subject) => {
                    let week = self.config.week;
                    Ok(cert::self_signed(
                        self.serial_nonce,
                        subject,
                        week,
                        qcrypto::sha256::digest(subject.as_bytes()),
                    ))
                }
                NoSniBehavior::Reject(alert) => {
                    let alert = *alert;
                    Err(self.fail(alert, "SNI required"))
                }
            },
        }
    }

    /// True once the client Finished verified.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, State::Complete)
    }

    /// The parsed ClientHello facts (after the CH arrived).
    pub fn client_hello(&self) -> Option<&ClientHelloInfo> {
        self.client_hello.as_ref()
    }

    /// The negotiated cipher suite (after ClientHello processing).
    pub fn negotiated_cipher(&self) -> Option<CipherSuite> {
        self.negotiated_cipher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::client::{ClientConfig, ClientHandshake};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_cert(name: &str) -> Certificate {
        let ca = CertificateAuthority::new("Sim CA", 9000);
        let key = qcrypto::sha256::digest(name.as_bytes());
        ca.issue(1, name, vec![format!("*.{name}")], 0, 99, key)
    }

    /// Drives a full in-memory handshake between the two engines.
    fn run_handshake(
        client_cfg: ClientConfig,
        server_cfg: ServerConfig,
    ) -> Result<(ClientHandshake, ServerHandshake), TlsError> {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut client, ch) = ClientHandshake::start(client_cfg, &mut rng);
        let mut server = ServerHandshake::new(Arc::new(server_cfg), &mut rng);
        let server_events = server.on_handshake_data(Level::Initial, &ch)?;
        let mut client_events = Vec::new();
        for ev in &server_events {
            if let TlsEvent::SendHandshake(level, bytes) = ev {
                client_events.extend(client.on_handshake_data(*level, bytes)?);
            }
        }
        for ev in &client_events {
            if let TlsEvent::SendHandshake(level, bytes) = ev {
                server.on_handshake_data(*level, bytes)?;
            }
        }
        Ok((client, server))
    }

    #[test]
    fn full_handshake_completes() {
        let server_cfg = ServerConfig {
            alpn: vec![b"h3".to_vec()],
            ..ServerConfig::single_cert(test_cert("example.com"))
        };
        let client_cfg = ClientConfig {
            server_name: Some("www.example.com".into()),
            alpn: vec![b"h3".to_vec()],
            ..ClientConfig::default()
        };
        let (client, server) = run_handshake(client_cfg, server_cfg).unwrap();
        assert!(client.is_complete());
        assert!(server.is_complete());
        let info = client.peer_info().unwrap();
        assert_eq!(info.alpn.as_deref(), Some(b"h3".as_slice()));
        assert_eq!(info.tls_version, TlsVersion::Tls13);
        assert_eq!(info.certificates[0].subject, "example.com");
        assert!(info.sni_acked);
        assert_eq!(
            server.client_hello().unwrap().server_name.as_deref(),
            Some("www.example.com")
        );
    }

    #[test]
    fn sni_required_rejects_no_sni() {
        let server_cfg = ServerConfig {
            no_sni: NoSniBehavior::Reject(Alert::HandshakeFailure),
            ..ServerConfig::single_cert(test_cert("example.com"))
        };
        let err = run_handshake(ClientConfig::default(), server_cfg)
            .err()
            .unwrap();
        assert_eq!(
            err,
            TlsError::LocalAlert(Alert::HandshakeFailure, "SNI required")
        );
    }

    #[test]
    fn self_signed_error_cert_without_sni() {
        let server_cfg = ServerConfig {
            no_sni: NoSniBehavior::SelfSignedError("invalid2.invalid".into()),
            ..ServerConfig::single_cert(test_cert("google.example"))
        };
        let (client, _) = run_handshake(ClientConfig::default(), server_cfg).unwrap();
        let info = client.peer_info().unwrap();
        assert!(info.certificates[0].is_self_signed());
        assert_eq!(info.certificates[0].subject, "invalid2.invalid");
    }

    #[test]
    fn alpn_mismatch_fails_when_required() {
        let server_cfg = ServerConfig {
            alpn: vec![b"h3-29".to_vec()],
            alpn_required: true,
            ..ServerConfig::single_cert(test_cert("example.com"))
        };
        let client_cfg = ClientConfig {
            server_name: Some("example.com".into()),
            alpn: vec![b"h3".to_vec()],
            ..ClientConfig::default()
        };
        let err = run_handshake(client_cfg, server_cfg).err().unwrap();
        assert!(matches!(
            err,
            TlsError::LocalAlert(Alert::NoApplicationProtocol, _)
        ));
    }

    #[test]
    fn tls12_only_negotiates_legacy() {
        let server_cfg = ServerConfig {
            tls12_only: true,
            ..ServerConfig::single_cert(test_cert("legacy.example"))
        };
        let client_cfg = ClientConfig {
            server_name: Some("legacy.example".into()),
            ..ClientConfig::default()
        };
        let (client, _) = run_handshake(client_cfg, server_cfg).unwrap();
        let info = client.peer_info().unwrap();
        assert_eq!(info.tls_version, TlsVersion::Tls12);
        assert_eq!(info.certificates[0].subject, "legacy.example");
    }

    #[test]
    fn group_preference_respected() {
        let server_cfg = ServerConfig {
            group_pref: vec![NamedGroup::Secp256r1, NamedGroup::X25519],
            ..ServerConfig::single_cert(test_cert("curve.example"))
        };
        let client_cfg = ClientConfig {
            server_name: Some("curve.example".into()),
            ..ClientConfig::default()
        };
        let (client, _) = run_handshake(client_cfg, server_cfg).unwrap();
        assert_eq!(client.peer_info().unwrap().group, NamedGroup::Secp256r1);
    }

    #[test]
    fn quic_transport_params_carried() {
        let server_cfg = ServerConfig {
            quic_transport_params: Some(vec![9, 9, 9]),
            ..ServerConfig::single_cert(test_cert("example.com"))
        };
        let client_cfg = ClientConfig {
            server_name: Some("example.com".into()),
            quic_transport_params: Some(vec![1, 2, 3]),
            ..ClientConfig::default()
        };
        let (client, server) = run_handshake(client_cfg, server_cfg).unwrap();
        assert_eq!(
            client.peer_info().unwrap().quic_transport_params.as_deref(),
            Some([9, 9, 9].as_slice())
        );
        assert_eq!(
            server
                .client_hello()
                .unwrap()
                .quic_transport_params
                .as_deref(),
            Some([1, 2, 3].as_slice())
        );
    }

    /// Drives a handshake through `with_overrides`.
    fn run_with_overrides(
        server_cfg: &Arc<ServerConfig>,
        client_cfg: ClientConfig,
        tp: Option<Vec<u8>>,
        seed: u64,
    ) -> (ClientHandshake, ServerHandshake) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut client, ch) = ClientHandshake::start(client_cfg, &mut rng);
        let mut server = ServerHandshake::with_overrides(Arc::clone(server_cfg), tp, &mut rng);
        let server_events = server.on_handshake_data(Level::Initial, &ch).unwrap();
        for ev in &server_events {
            if let TlsEvent::SendHandshake(level, bytes) = ev {
                for ev in client.on_handshake_data(*level, bytes).unwrap() {
                    if let TlsEvent::SendHandshake(l2, b2) = ev {
                        server.on_handshake_data(l2, &b2).unwrap();
                    }
                }
            }
        }
        (client, server)
    }

    /// Without SNI, a `SelfSignedError` server mints its error certificate
    /// per connection: two handshakes get two serials.
    #[test]
    fn no_sni_error_certificates_are_minted_per_connection() {
        let server_cfg = Arc::new(ServerConfig {
            no_sni: NoSniBehavior::SelfSignedError("invalid2.invalid".into()),
            ..ServerConfig::single_cert(test_cert("google.example"))
        });
        let serials: Vec<u64> = [9, 10]
            .into_iter()
            .map(|seed| {
                let (client, _) =
                    run_with_overrides(&server_cfg, ClientConfig::default(), None, seed);
                let cert = &client.peer_info().unwrap().certificates[0];
                assert!(cert.is_self_signed());
                assert_eq!(cert.subject, "invalid2.invalid");
                cert.serial
            })
            .collect();
        assert_ne!(serials[0], serials[1]);
    }

    #[test]
    fn tp_override_beats_config_params() {
        let server_cfg = Arc::new(ServerConfig {
            quic_transport_params: Some(vec![9, 9, 9]),
            ..ServerConfig::single_cert(test_cert("example.com"))
        });
        let client_cfg = ClientConfig {
            server_name: Some("example.com".into()),
            quic_transport_params: Some(vec![1]),
            ..ClientConfig::default()
        };
        let (client, _) = run_with_overrides(&server_cfg, client_cfg, Some(vec![4, 2]), 11);
        assert_eq!(
            client.peer_info().unwrap().quic_transport_params.as_deref(),
            Some([4, 2].as_slice())
        );
    }

    /// A low-order client share makes the shared secret zero; the server
    /// aborts before sending a ServerHello (RFC 8446 §7.4.2).
    #[test]
    fn low_order_client_share_is_rejected() {
        for u in [0u8, 1] {
            let mut share = [0u8; 32];
            share[0] = u;
            let ch = Handshake::ClientHello(ClientHello {
                random: [0; 32],
                session_id: Vec::new(),
                cipher_suites: vec![CipherSuite::Aes128GcmSha256.wire()],
                extensions: vec![
                    Extension::SupportedVersionsList(vec![TlsVersion::Tls13.wire()]),
                    Extension::KeyShareList(vec![(NamedGroup::X25519.wire(), share.to_vec())]),
                ],
            });
            let cfg = Arc::new(ServerConfig::single_cert(test_cert("example.com")));
            let mut server = ServerHandshake::new(cfg, &mut StdRng::seed_from_u64(7));
            assert_eq!(
                server.on_handshake_data(Level::Initial, &ch.encode()),
                Err(TlsError::LocalAlert(
                    Alert::IllegalParameter,
                    "all-zero shared secret"
                )),
                "u = {u}"
            );
            assert!(!server.is_complete());
        }
    }

    #[test]
    fn unknown_sni_falls_back_or_rejects() {
        let base = ServerConfig::single_cert(test_cert("example.com"));
        let client_cfg = ClientConfig {
            server_name: Some("other.test".into()),
            ..ClientConfig::default()
        };
        let (client, _) = run_handshake(client_cfg.clone(), base.clone()).unwrap();
        assert_eq!(
            client.peer_info().unwrap().certificates[0].subject,
            "example.com"
        );

        let strict = ServerConfig {
            reject_unknown_sni: true,
            ..base
        };
        let err = run_handshake(client_cfg, strict).err().unwrap();
        assert!(matches!(
            err,
            TlsError::LocalAlert(Alert::HandshakeFailure, _)
        ));
    }
}
