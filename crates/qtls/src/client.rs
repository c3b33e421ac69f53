//! TLS 1.3 client handshake engine (the QScanner/Goscanner side).

use rand::RngCore;

use qcodec::Writer;
use qcrypto::x25519;

use crate::cert::Certificate;
use crate::cipher::CipherSuite;
use crate::ext::{Extension, NamedGroup};
use crate::msgs::{ClientHello, Handshake};
use crate::schedule::{
    app_secrets, dh_shared_secret, finished_verify_data, handshake_secrets, HandshakeSecrets,
    Transcript,
};
use crate::{Alert, Level, TlsError, TlsEvent, TlsVersion};

/// What the scanner wants to offer.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// SNI to send (the with/without-SNI scans differ exactly here).
    pub server_name: Option<String>,
    /// ALPN protocols to offer, most preferred first.
    pub alpn: Vec<Vec<u8>>,
    /// Cipher suites to offer.
    pub cipher_suites: Vec<CipherSuite>,
    /// Groups to offer (key shares are generated for each).
    pub groups: Vec<NamedGroup>,
    /// Raw QUIC transport parameters to carry (QUIC handshakes only).
    pub quic_transport_params: Option<Vec<u8>>,
    /// Send a non-empty legacy session id (TCP middlebox compatibility).
    pub legacy_session_id: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            server_name: None,
            alpn: Vec::new(),
            cipher_suites: CipherSuite::default_offer(),
            groups: vec![NamedGroup::X25519, NamedGroup::Secp256r1],
            quic_transport_params: None,
            legacy_session_id: false,
        }
    }
}

/// Everything the scanners record about the peer's TLS deployment
/// (the Table 5 comparison columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTlsInfo {
    /// Presented certificate chain (leaf first).
    pub certificates: Vec<Certificate>,
    /// Negotiated cipher suite.
    pub cipher: CipherSuite,
    /// Negotiated key-exchange group.
    pub group: NamedGroup,
    /// Negotiated TLS version.
    pub tls_version: TlsVersion,
    /// Extension type codes the server sent (ServerHello then
    /// EncryptedExtensions order, duplicates removed).
    pub server_extensions: Vec<u16>,
    /// Server-selected ALPN protocol, if any.
    pub alpn: Option<Vec<u8>>,
    /// The server's raw QUIC transport parameters, if present.
    pub quic_transport_params: Option<Vec<u8>>,
    /// Whether the server acknowledged our SNI with an empty server_name
    /// extension (the RFC 6066 gap discussed in §5.1).
    pub sni_acked: bool,
}

enum State {
    /// ClientHello sent; waiting for ServerHello.
    WaitServerHello,
    /// Handshake keys installed; waiting for EE..Finished.
    WaitEncrypted,
    /// TLS 1.2 legacy short-circuit: waiting for the plaintext Certificate.
    WaitLegacyCertificate,
    Complete,
    Failed,
}

/// Sans-IO TLS 1.3 client handshake.
pub struct ClientHandshake {
    config: ClientConfig,
    state: State,
    transcript: Transcript,
    key_shares: Vec<(NamedGroup, [u8; 32])>, // (group, secret scalar)
    hs_secrets: Option<HandshakeSecrets>,
    peer: Option<PeerTlsInfo>,
    server_ext_codes: Vec<u16>,
    // Fields populated as encrypted flight messages arrive.
    pending_cipher: Option<CipherSuite>,
    pending_group: Option<NamedGroup>,
    pending_certs: Vec<Certificate>,
    pending_alpn: Option<Vec<u8>>,
    pending_quic_tp: Option<Vec<u8>>,
    pending_sni_acked: bool,
}

impl ClientHandshake {
    /// Creates the engine and produces the ClientHello bytes to send at the
    /// Initial level.
    pub fn start(config: ClientConfig, rng: &mut dyn RngCore) -> (Self, Vec<u8>) {
        let mut random = [0u8; 32];
        rng.fill_bytes(&mut random);
        let mut key_shares = Vec::new();
        let mut share_exts = Vec::new();
        for group in &config.groups {
            let mut secret = [0u8; 32];
            rng.fill_bytes(&mut secret);
            let public = x25519::public_key(&secret);
            key_shares.push((*group, secret));
            share_exts.push((group.wire(), public.to_vec()));
        }
        let session_id = if config.legacy_session_id {
            let mut sid = vec![0u8; 32];
            rng.fill_bytes(&mut sid);
            sid
        } else {
            Vec::new()
        };

        let mut extensions = Vec::new();
        if let Some(name) = &config.server_name {
            extensions.push(Extension::ServerName(Some(name.clone())));
        }
        extensions.push(Extension::SupportedGroups(
            config.groups.iter().map(|g| g.wire()).collect(),
        ));
        extensions.push(Extension::SignatureAlgorithms(vec![0x0807])); // "ed25519" slot for SimSig
        if !config.alpn.is_empty() {
            extensions.push(Extension::Alpn(config.alpn.clone()));
        }
        extensions.push(Extension::SupportedVersionsList(vec![
            TlsVersion::Tls13.wire(),
            TlsVersion::Tls12.wire(),
        ]));
        extensions.push(Extension::KeyShareList(share_exts));
        if let Some(tp) = &config.quic_transport_params {
            extensions.push(Extension::QuicTransportParameters(tp.clone()));
        }

        let ch = Handshake::ClientHello(ClientHello {
            random,
            session_id,
            cipher_suites: config.cipher_suites.iter().map(|c| c.wire()).collect(),
            extensions,
        });
        let bytes = ch.encode();
        let mut transcript = Transcript::new();
        transcript.add(&bytes);

        let engine = ClientHandshake {
            config,
            state: State::WaitServerHello,
            transcript,
            key_shares,
            hs_secrets: None,
            peer: None,
            server_ext_codes: Vec::new(),
            pending_cipher: None,
            pending_group: None,
            pending_certs: Vec::new(),
            pending_alpn: None,
            pending_quic_tp: None,
            pending_sni_acked: false,
        };
        (engine, bytes)
    }

    /// Feeds handshake bytes received at `level`; returns engine events.
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
            (State::WaitServerHello, Handshake::ServerHello(sh)) => {
                if level != Level::Initial {
                    return Err(TlsError::UnexpectedMessage("ServerHello level"));
                }
                // Transcripts hash the received wire bytes directly — no
                // clone-and-re-encode per message.
                self.transcript.add(raw);

                let cipher = CipherSuite::from_wire(sh.cipher_suite);
                let mut selected_version = None;
                let mut server_share: Option<(u16, Vec<u8>)> = None;
                for ext in &sh.extensions {
                    self.server_ext_codes.push(ext.type_code());
                    match ext {
                        Extension::SelectedVersion(v) => selected_version = Some(*v),
                        Extension::KeyShareServer(g, kx) => server_share = Some((*g, kx.clone())),
                        _ => {}
                    }
                }
                match selected_version {
                    Some(v) if v == TlsVersion::Tls13.wire() => {}
                    Some(v) if v == TlsVersion::Tls12.wire() => {
                        // Legacy short-circuit for the simulated TLS 1.2 path:
                        // the certificate follows in plaintext.
                        self.pending_cipher = Some(cipher.unwrap_or(CipherSuite::Aes128GcmSha256));
                        self.pending_group = Some(NamedGroup::X25519);
                        self.state = State::WaitLegacyCertificate;
                        return Ok(());
                    }
                    _ => {
                        self.state = State::Failed;
                        return Err(TlsError::LocalAlert(
                            Alert::ProtocolVersion,
                            "unsupported selected version",
                        ));
                    }
                }
                let cipher = cipher.ok_or(TlsError::Decode("unknown cipher"))?;
                let (group_wire, peer_public) =
                    server_share.ok_or(TlsError::UnexpectedMessage("missing key_share"))?;
                let group =
                    NamedGroup::from_wire(group_wire).ok_or(TlsError::Decode("unknown group"))?;
                let secret = self
                    .key_shares
                    .iter()
                    .find(|(g, _)| *g == group)
                    .map(|(_, s)| *s)
                    .ok_or(TlsError::UnexpectedMessage("server chose unoffered group"))?;
                let peer_public: [u8; 32] = peer_public
                    .try_into()
                    .map_err(|_| TlsError::Decode("bad key share length"))?;
                let Some(shared) = dh_shared_secret(&secret, &peer_public) else {
                    self.state = State::Failed;
                    return Err(TlsError::LocalAlert(
                        Alert::IllegalParameter,
                        "all-zero shared secret",
                    ));
                };
                let th = self.transcript.hash();
                let hs = handshake_secrets(&shared, &th);
                events.push(TlsEvent::HandshakeKeys(hs.clone()));
                self.hs_secrets = Some(hs);
                self.pending_cipher = Some(cipher);
                self.pending_group = Some(group);
                self.state = State::WaitEncrypted;
                Ok(())
            }
            (State::WaitEncrypted, Handshake::EncryptedExtensions(exts)) => {
                self.transcript.add(raw);
                for ext in &exts {
                    self.server_ext_codes.push(ext.type_code());
                    match ext {
                        Extension::Alpn(protos) => {
                            self.pending_alpn = protos.first().cloned();
                        }
                        Extension::QuicTransportParameters(tp) => {
                            self.pending_quic_tp = Some(tp.clone());
                        }
                        Extension::ServerName(None) => self.pending_sni_acked = true,
                        _ => {}
                    }
                }
                Ok(())
            }
            (State::WaitEncrypted, Handshake::Certificate(chain)) => {
                self.transcript.add(raw);
                self.pending_certs = chain;
                Ok(())
            }
            (State::WaitEncrypted, Handshake::CertificateVerify(_scheme, sig)) => {
                // SimSig verification: HMAC(leaf public key, context || hash).
                let th = self.transcript.hash();
                let leaf = self
                    .pending_certs
                    .first()
                    .ok_or(TlsError::UnexpectedMessage(
                        "CertificateVerify before Certificate",
                    ))?;
                let expected = sim_signature(&leaf.public_key, &th);
                if sig != expected {
                    self.state = State::Failed;
                    return Err(TlsError::LocalAlert(
                        Alert::HandshakeFailure,
                        "CertificateVerify mismatch",
                    ));
                }
                self.transcript.add(raw);
                Ok(())
            }
            (State::WaitEncrypted, Handshake::Finished(verify)) => {
                let hs = self
                    .hs_secrets
                    .clone()
                    .expect("handshake secrets installed");
                let th = self.transcript.hash();
                if verify != finished_verify_data(&hs.server, &th) {
                    self.state = State::Failed;
                    return Err(TlsError::BadFinished);
                }
                self.transcript.add(raw);
                // Application secrets from transcript through server Finished.
                let th_fin = self.transcript.hash();
                let app = app_secrets(&hs, &th_fin);
                events.push(TlsEvent::AppKeys(app));
                // Client Finished.
                let my_verify = finished_verify_data(&hs.client, &th_fin);
                let fin = Handshake::Finished(my_verify).encode();
                self.transcript.add(&fin);
                events.push(TlsEvent::SendHandshake(Level::Handshake, fin));
                events.push(TlsEvent::Complete);
                self.finish_peer_info(TlsVersion::Tls13);
                self.state = State::Complete;
                Ok(())
            }
            (State::WaitLegacyCertificate, Handshake::Certificate(chain)) => {
                self.pending_certs = chain;
                self.finish_peer_info(TlsVersion::Tls12);
                self.state = State::Complete;
                events.push(TlsEvent::Complete);
                Ok(())
            }
            (State::Failed, _) => Err(TlsError::UnexpectedMessage("engine already failed")),
            _ => Err(TlsError::UnexpectedMessage("message in wrong state")),
        }
    }

    fn finish_peer_info(&mut self, version: TlsVersion) {
        let mut seen = Vec::new();
        for code in &self.server_ext_codes {
            if !seen.contains(code) {
                seen.push(*code);
            }
        }
        self.peer = Some(PeerTlsInfo {
            certificates: std::mem::take(&mut self.pending_certs),
            cipher: self.pending_cipher.unwrap_or(CipherSuite::Aes128GcmSha256),
            group: self.pending_group.unwrap_or(NamedGroup::X25519),
            tls_version: version,
            server_extensions: seen,
            alpn: self.pending_alpn.clone(),
            quic_transport_params: self.pending_quic_tp.clone(),
            sni_acked: self.pending_sni_acked,
        });
    }

    /// True once the handshake finished successfully.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, State::Complete)
    }

    /// The negotiated cipher suite, known as soon as the ServerHello is
    /// processed (needed to key the record layer / QUIC packet protection).
    pub fn negotiated_cipher(&self) -> Option<CipherSuite> {
        self.pending_cipher
    }

    /// The recorded peer deployment properties (after completion).
    pub fn peer_info(&self) -> Option<&PeerTlsInfo> {
        self.peer.as_ref()
    }

    /// The SNI this engine sent, if any.
    pub fn server_name(&self) -> Option<&str> {
        self.config.server_name.as_deref()
    }
}

/// SimSig: the CertificateVerify "signature" (see crate docs).
pub(crate) fn sim_signature(public_key: &[u8; 32], transcript_hash: &[u8; 32]) -> Vec<u8> {
    let mut ctx = Writer::new();
    ctx.put_bytes(b"TLS 1.3, server CertificateVerify");
    ctx.put_u8(0);
    ctx.put_bytes(transcript_hash);
    qcrypto::hmac::hmac_sha256(public_key, ctx.as_slice()).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::ServerHello;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A low-order server share makes the shared secret zero; the client
    /// aborts instead of keying the handshake with it (RFC 8446 §7.4.2).
    #[test]
    fn low_order_server_share_is_rejected() {
        for u in [0u8, 1] {
            let mut rng = StdRng::seed_from_u64(7);
            let (mut client, _) = ClientHandshake::start(ClientConfig::default(), &mut rng);
            let mut share = [0u8; 32];
            share[0] = u;
            let sh = Handshake::ServerHello(ServerHello {
                random: [0; 32],
                session_id: Vec::new(),
                cipher_suite: CipherSuite::Aes128GcmSha256.wire(),
                extensions: vec![
                    Extension::SelectedVersion(TlsVersion::Tls13.wire()),
                    Extension::KeyShareServer(NamedGroup::X25519.wire(), share.to_vec()),
                ],
            });
            assert_eq!(
                client.on_handshake_data(Level::Initial, &sh.encode()),
                Err(TlsError::LocalAlert(
                    Alert::IllegalParameter,
                    "all-zero shared secret"
                )),
                "u = {u}"
            );
            assert!(!client.is_complete());
        }
    }
}
