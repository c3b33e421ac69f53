//! QUIC server endpoint: version negotiation, per-connection handshakes, and
//! the behaviour knobs that reproduce the deployment artifacts the paper
//! observes (VN-only middleboxes, advertised-vs-accepted version skew,
//! unpadded-probe handling, implementation-specific close wording).
//!
//! Every established connection's 1-RTT space belongs to one [`AppSession`]:
//! [`Endpoint::with_sessions`] installs the caller's (the `transfer` data
//! plane), and [`Endpoint::new`] runs a [`StreamHandler`] as one (the
//! `internet` crate's HTTP/3 hosts). RFC 9000 §13.1 is checked before any
//! session sees a packet.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use qcodec::{Reader, Writer};
use qtls::server::{CertCache, ServerHandshake};
use qtls::{Level, TlsError, TlsEvent};

use crate::frame::Frame;
use crate::keys::{initial_keys_shared, InitialPair, PacketKeys};
use crate::packet::{
    decode_first, encode_version_negotiation, seal_long_into, seal_short_into, ConnectionId,
    KeySource, Packet, PacketType, SealScratch,
};
use crate::tparams::TransportParameters;
use crate::version::Version;

/// Application hook: gets stream data, returns stream data to send.
/// The `internet` crate implements HTTP/3 on top of this; [`Endpoint::new`]
/// runs one per connection as its [`AppSession`], fire-and-forget: nothing
/// it sends is acknowledged or retransmitted.
pub trait StreamHandler: Send {
    /// Called once when the handshake completes; lets the server open its
    /// own streams (e.g. the HTTP/3 control stream).
    fn on_connected(&mut self) -> Vec<StreamSend> {
        Vec::new()
    }
    /// Called for each chunk of stream data from the client.
    fn on_stream_data(&mut self, id: u64, data: &[u8], fin: bool) -> Vec<StreamSend>;
}

/// Stream bytes for the server to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSend {
    /// Stream id.
    pub id: u64,
    /// Payload.
    pub data: Vec<u8>,
    /// Close the stream after this data.
    pub fin: bool,
}

/// The application attached to one server connection's 1-RTT space. Once
/// the handshake completes the endpoint hands the session every decoded app
/// packet — packet number and frames, ACK and flow-control frames included.
/// The session answers with fully composed frame payloads, which the
/// endpoint seals as 1-RTT packets, reporting the packet number assigned to
/// each so the session can track them for loss detection. The `transfer`
/// crate implements congestion-controlled senders and flow-controlled
/// receivers on this hook.
pub trait AppSession: Send {
    /// Called once when the handshake completes: frames appended to
    /// `payload` ride in the packet that carries HANDSHAKE_DONE (e.g. the
    /// HTTP/3 control stream). That packet is not reported to
    /// [`AppSession::on_payload_sealed`]. Defaults to appending nothing.
    fn on_connected(&mut self, _payload: &mut Writer) {}
    /// Handles one decoded 1-RTT packet; each returned byte vector is one
    /// packet's frame payload, sealed and sent in order.
    fn on_app_packet(&mut self, pn: u64, frames: &[Frame]) -> Vec<Vec<u8>>;
    /// Reports the packet number the n-th payload from the last
    /// [`AppSession::on_app_packet`] call was sealed with (called once per
    /// payload, in order).
    fn on_payload_sealed(&mut self, pn: u64);
    /// True when the session owes the peer nothing and expects nothing:
    /// all requests answered, all sent data acknowledged, no pending
    /// control output. Idle connections are the endpoint's preferred
    /// eviction victims when it is over its connection cap. Defaults to
    /// `false` (never idle — never evicted ahead of closed connections).
    fn is_idle(&self) -> bool {
        false
    }
}

/// Endpoint-level deployment behaviour.
#[derive(Clone)]
pub struct EndpointConfig {
    /// Versions the handshake path actually accepts.
    pub accept_versions: Vec<Version>,
    /// Versions advertised in Version Negotiation packets. The paper's
    /// Google "version mismatch" artifact is `vn_advertise` ⊋
    /// `accept_versions` during an iterative roll-out (§5).
    pub vn_advertise: Vec<Version>,
    /// Middlebox mode: answer Version Negotiation but never complete a
    /// handshake (the Akamai/Fastly timeout artifact, §5.1).
    pub vn_only: bool,
    /// Answer probes smaller than 1200 bytes with a VN (spec says ignore;
    /// §3.1 found 11.3% of hosts answering anyway).
    pub respond_to_unpadded: bool,
    /// Ignore Initials carrying unsupported versions instead of sending a
    /// Version Negotiation — the deployments behind the paper's "146k IPv4
    /// addresses unique to Alt-Svc" finding (§4): reachable by a real
    /// handshake, invisible to the forced-VN ZMap module.
    pub no_version_negotiation: bool,
    /// TLS deployment configuration.
    pub tls: Arc<qtls::ServerConfig>,
    /// Server transport parameters (before session-specific fields).
    pub transport_params: TransportParameters,
    /// Implementation-specific CONNECTION_CLOSE reason wording — the paper
    /// fingerprints stacks by these strings.
    pub close_reason: String,
    /// Length of connection ids this endpoint issues.
    pub cid_len: usize,
    /// Validate client addresses with Retry before accepting Initials
    /// (RFC 9000 §8.1.2; seen at lsquic-based deployments).
    pub use_retry: bool,
}

impl EndpointConfig {
    /// A well-behaved v1+draft server with the given TLS config.
    pub fn new(tls: Arc<qtls::ServerConfig>) -> Self {
        EndpointConfig {
            accept_versions: vec![
                Version::V1,
                Version::DRAFT_34,
                Version::DRAFT_32,
                Version::DRAFT_29,
            ],
            vn_advertise: vec![
                Version::V1,
                Version::DRAFT_34,
                Version::DRAFT_32,
                Version::DRAFT_29,
            ],
            vn_only: false,
            respond_to_unpadded: false,
            no_version_negotiation: false,
            tls,
            transport_params: TransportParameters::server_defaults(),
            close_reason: "handshake failed".to_string(),
            cid_len: 8,
            use_retry: false,
        }
    }
}

struct OpenKeys {
    /// Shared Initial pair: the server opens with `client`, seals with
    /// `server`. Because the pair is memoized process-wide, this derivation
    /// is a cache hit when the scanning client already derived it.
    initial_pair: Option<Arc<InitialPair>>,
    handshake: Option<PacketKeys>,
    app: Option<PacketKeys>,
}

impl KeySource for OpenKeys {
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
        match ty {
            PacketType::Initial => self.initial_pair.as_deref().map(|p| &p.client),
            PacketType::Handshake => self.handshake.as_ref(),
            PacketType::OneRtt => self.app.as_ref(),
            _ => None,
        }
    }
}

struct ServerConn {
    version: Version,
    scid: ConnectionId,
    client_cid: ConnectionId,
    tls: ServerHandshake,
    open_keys: OpenKeys,
    seal_handshake: Option<PacketKeys>,
    seal_app: Option<PacketKeys>,
    /// Per-SNI certificate/serialization cache shared across this
    /// endpoint's connections.
    cert_cache: Arc<CertCache>,
    /// Reused packet-sealing buffers.
    scratch: SealScratch,
    /// Reused frame-payload writer.
    payload: Writer,
    next_pn: [u64; 3],
    largest_recv: [Option<u64>; 3],
    /// Contiguous CRYPTO bytes already fed to TLS, per space. Retransmitted
    /// (fully duplicate) crypto is never re-fed — it means the client lost
    /// our answering flight, which we re-send from the caches below.
    crypto_consumed: [u64; 3],
    /// Cached server flight (Initial[ACK,CRYPTO(SH)] ++ Handshake datagrams).
    flight_cache: Vec<Vec<u8>>,
    /// Cached post-handshake packet (HANDSHAKE_DONE + server streams).
    post_cache: Option<Vec<u8>>,
    /// Cached CONNECTION_CLOSE, re-sent while draining (RFC 9000 §10.2.3).
    close_cache: Option<Vec<u8>>,
    established: bool,
    closed: bool,
    /// Owns the 1-RTT space once the connection is established.
    session: Box<dyn AppSession>,
    /// The endpoint's activity count when this connection last received a
    /// datagram; the smallest evictable value is the eviction victim.
    last_active: u64,
}

impl ServerConn {
    /// May this connection be dropped to make room? Closed connections
    /// always; established ones when their session says it is idle — which
    /// a handler-served one always is: scan flows are one-shot, so an
    /// established scan connection has served its purpose.
    fn evictable(&self) -> bool {
        self.closed || (self.established && self.session.is_idle())
    }
}

/// A QUIC server endpoint multiplexing connections by client source.
pub struct Endpoint {
    config: EndpointConfig,
    session_factory: Box<dyn Fn() -> Box<dyn AppSession> + Send>,
    conns: HashMap<u128, ServerConn>,
    /// Datagrams routed to a connection so far; stamps
    /// [`ServerConn::last_active`].
    activity: u64,
    /// Base seed for per-flow RNGs. Per-connection randomness (server CID,
    /// reset token, TLS nonces) is derived from `(seed, flow key)` rather
    /// than drawn from one shared sequence, so what a flow observes never
    /// depends on how many other flows arrived first — the property that
    /// keeps parallel scan results identical at any worker count.
    seed: u64,
    /// Per-SNI cert-chain/serialization cache shared by this endpoint's
    /// connections — simulated deployments answer every connection with the
    /// same chain, so rebuilding/re-encoding it per handshake is waste.
    cert_cache: Arc<CertCache>,
}

/// Soft cap on simultaneously tracked connections per endpoint. Past the cap
/// the endpoint evicts the least-recently-active *finished* connection
/// (closed, or idle per [`AppSession::is_idle`]); when every tracked
/// connection is still live the table grows instead — memory stays
/// O(active), not O(cap).
pub const DEFAULT_MAX_CONNS: usize = 64;

impl Endpoint {
    /// Creates an endpoint whose connections a [`StreamHandler`] serves:
    /// `handler_factory` makes one per accepted connection, run as its
    /// [`AppSession`].
    pub fn new(
        config: EndpointConfig,
        seed: u64,
        handler_factory: Box<dyn Fn() -> Box<dyn StreamHandler> + Send>,
    ) -> Self {
        Self::with_sessions(
            config,
            seed,
            Box::new(move || Box::new(HandlerSession(handler_factory()))),
        )
    }

    /// Creates an endpoint; `session_factory` makes one [`AppSession`] per
    /// accepted connection.
    pub fn with_sessions(
        config: EndpointConfig,
        seed: u64,
        session_factory: Box<dyn Fn() -> Box<dyn AppSession> + Send>,
    ) -> Self {
        Endpoint {
            config,
            session_factory,
            conns: HashMap::new(),
            activity: 0,
            seed,
            cert_cache: Arc::new(CertCache::new()),
        }
    }

    /// Makes room for one more connection when at the soft cap: drops the
    /// least-recently-active *evictable* connection (closed, or established
    /// with an idle session). When every tracked connection is still
    /// live, the table grows instead — a live connection is never cut off
    /// mid-transfer, so eviction is unobservable to well-behaved peers.
    fn evict_for_insert(&mut self) {
        if self.conns.len() < DEFAULT_MAX_CONNS {
            return;
        }
        // Stamps are unique, so the map's iteration order cannot matter.
        let victim = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.evictable())
            .min_by_key(|(_, conn)| conn.last_active)
            .map(|(&key, _)| key);
        if let Some(key) = victim {
            self.conns.remove(&key);
        }
    }

    /// Hands `datagram` to the connection for `from` (if any), stamping it
    /// as the most recently active.
    fn deliver(&mut self, from: u128, datagram: &[u8]) -> Vec<Vec<u8>> {
        let Some(conn) = self.conns.get_mut(&from) else {
            return Vec::new();
        };
        self.activity += 1;
        conn.last_active = self.activity;
        conn.on_datagram(datagram, &self.config)
    }

    /// Processes one datagram from the flow identified by `from` (an opaque
    /// source key, e.g. hashed source address+port) and returns response
    /// datagrams.
    pub fn handle_datagram(&mut self, from: u128, datagram: &[u8]) -> Vec<Vec<u8>> {
        let Some(head) = parse_long_header_prefix(datagram) else {
            // Short header or garbage: route to an existing connection.
            return self.deliver(from, datagram);
        };

        // Version negotiation decision happens before any decryption.
        if !self.config.accept_versions.contains(&head.version) {
            if self.config.no_version_negotiation {
                return Vec::new();
            }
            if datagram.len() < 1200 && !self.config.respond_to_unpadded {
                return Vec::new();
            }
            let vn = encode_version_negotiation(
                &head.scid, // their SCID becomes our DCID
                &head.dcid,
                &self.config.vn_advertise,
            );
            return vec![vn];
        }

        if self.config.vn_only {
            // Nominally supported version, but the middlebox cannot proceed:
            // silence — the scanner will classify this as a timeout.
            return Vec::new();
        }

        // Address validation via Retry: a token-less Initial gets a Retry
        // carrying a token bound to the flow; the client repeats its Initial
        // with the token and a new DCID (our Retry SCID).
        if self.config.use_retry && !self.conns.contains_key(&from) {
            let token = retry_token(from, self.config.cid_len as u64);
            if !initial_has_token(datagram, &token) {
                let mut new_scid = vec![0u8; self.config.cid_len];
                flow_rng(self.seed, from, 1).fill_bytes(&mut new_scid);
                let retry = crate::retry::encode_retry(
                    head.version,
                    &head.scid,
                    &ConnectionId(new_scid),
                    &head.dcid,
                    &token,
                );
                return vec![retry];
            }
        }

        if !self.conns.contains_key(&from) {
            self.evict_for_insert();
            let conn = ServerConn::new(
                head.version,
                &mut flow_rng(self.seed, from, 0),
                self.config.cid_len,
                (self.session_factory)(),
                Arc::clone(&self.cert_cache),
            );
            self.conns.insert(from, conn);
        }
        self.deliver(from, datagram)
    }
}

/// Deterministic per-flow RNG: a hash of `(endpoint seed, flow key, salt)`
/// seeds an independent stream per connection, so per-flow randomness is a
/// pure function of the flow — never of arrival order.
fn flow_rng(seed: u64, from: u128, salt: u8) -> StdRng {
    let mut material = seed.to_be_bytes().to_vec();
    material.extend_from_slice(&from.to_be_bytes());
    material.push(salt);
    let digest = qcrypto::sha256::digest(&material);
    StdRng::seed_from_u64(u64::from_be_bytes(digest[..8].try_into().unwrap()))
}

/// Deterministic per-flow retry token (HMAC over the flow key).
fn retry_token(from: u128, salt: u64) -> Vec<u8> {
    let mut material = from.to_be_bytes().to_vec();
    material.extend_from_slice(&salt.to_be_bytes());
    qcrypto::sha256::digest(&material)[..12].to_vec()
}

/// Checks whether the first Initial in `datagram` carries `expected` as its
/// token (header-only parse; no decryption needed).
fn initial_has_token(datagram: &[u8], expected: &[u8]) -> bool {
    let mut r = Reader::new(datagram);
    let Ok(first) = r.read_u8() else { return false };
    if (first >> 4) & 0x03 != 0 {
        return false; // not an Initial (type bits must be 00)
    }
    if r.read_u32().is_err() {
        return false;
    }
    let Ok(_dcid) = r.read_vec8() else {
        return false;
    };
    let Ok(_scid) = r.read_vec8() else {
        return false;
    };
    let Ok(token_len) = r.read_varint() else {
        return false;
    };
    let Ok(token) = r.read_bytes(token_len as usize) else {
        return false;
    };
    token == expected
}

struct LongHeaderPrefix {
    version: Version,
    dcid: ConnectionId,
    scid: ConnectionId,
}

/// Parses version/DCID/SCID from a long header without decrypting. Returns
/// `None` for short-header packets or garbage.
fn parse_long_header_prefix(datagram: &[u8]) -> Option<LongHeaderPrefix> {
    let mut r = Reader::new(datagram);
    let first = r.read_u8().ok()?;
    if first & 0x80 == 0 {
        return None;
    }
    let version = Version(r.read_u32().ok()?);
    let dcid = ConnectionId(r.read_vec8().ok()?.to_vec());
    let scid = ConnectionId(r.read_vec8().ok()?.to_vec());
    Some(LongHeaderPrefix {
        version,
        dcid,
        scid,
    })
}

impl ServerConn {
    fn new(
        version: Version,
        rng: &mut StdRng,
        cid_len: usize,
        session: Box<dyn AppSession>,
        cert_cache: Arc<CertCache>,
    ) -> Self {
        let mut scid = vec![0u8; cid_len];
        rng.fill_bytes(&mut scid);
        ServerConn {
            version,
            scid: ConnectionId(scid),
            client_cid: ConnectionId::empty(),
            tls: ServerHandshake::new(placeholder_server_config(), rng),
            open_keys: OpenKeys {
                initial_pair: None,
                handshake: None,
                app: None,
            },
            seal_handshake: None,
            seal_app: None,
            cert_cache,
            scratch: SealScratch::new(),
            payload: Writer::new(),
            next_pn: [0; 3],
            largest_recv: [None; 3],
            crypto_consumed: [0; 3],
            flight_cache: Vec::new(),
            post_cache: None,
            close_cache: None,
            established: false,
            closed: false,
            session,
            last_active: 0,
        }
    }

    fn on_datagram(&mut self, datagram: &[u8], config: &EndpointConfig) -> Vec<Vec<u8>> {
        if self.closed {
            // Draining: keep answering with the close so a client whose
            // first copy was lost still learns the outcome (RFC 9000
            // §10.2.3 allows responding to late packets with the close).
            return self.close_cache.iter().cloned().collect();
        }
        // First Initial: derive keys from the client's DCID and instantiate
        // the real TLS engine (the placeholder in `new` avoids an Option).
        if self.open_keys.initial_pair.is_none() {
            let Some(head) = parse_long_header_prefix(datagram) else {
                return Vec::new();
            };
            // Memoized: the client already derived this pair for the same
            // (version, DCID), so this lookup skips the HKDF/AES schedules.
            self.open_keys.initial_pair =
                Some(initial_keys_shared(self.version, head.dcid.as_slice()));
            self.client_cid = head.scid.clone();
            let mut seeded = StdRng::seed_from_u64(u64::from_le_bytes(
                self.scid
                    .0
                    .iter()
                    .cycle()
                    .take(8)
                    .copied()
                    .collect::<Vec<_>>()
                    .try_into()
                    .unwrap(),
            ));
            let mut tp = config.transport_params.clone();
            tp.original_destination_connection_id = Some(head.dcid.0.clone());
            tp.initial_source_connection_id = Some(self.scid.0.clone());
            let mut token = [0u8; 16];
            seeded.fill_bytes(&mut token);
            tp.stateless_reset_token = Some(token);
            // Share the endpoint's Arc'd TLS config instead of cloning the
            // whole cert chain per connection; the session-specific transport
            // parameters ride in the override slot.
            self.tls = ServerHandshake::with_overrides(
                Arc::clone(&config.tls),
                Some(tp.encode()),
                Some(Arc::clone(&self.cert_cache)),
                &mut seeded,
            );
        }

        let mut out = Vec::new();
        let mut rest = datagram;
        while !rest.is_empty() {
            match decode_first(rest, self.scid.len(), &self.open_keys) {
                Ok((pkt, consumed)) => {
                    rest = &rest[consumed..];
                    self.on_packet(pkt, config, &mut out);
                    if self.closed {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        out
    }

    fn on_packet(&mut self, pkt: Packet, config: &EndpointConfig, out: &mut Vec<Vec<u8>>) {
        let space = match pkt.ty {
            PacketType::Initial => 0,
            PacketType::Handshake => 1,
            PacketType::OneRtt => 2,
            _ => return,
        };
        let largest = self.largest_recv[space].get_or_insert(pkt.packet_number);
        if pkt.packet_number > *largest {
            *largest = pkt.packet_number;
        }
        let frames = match Frame::decode_all(&pkt.payload) {
            Ok(f) => f,
            Err(_) => return,
        };
        // The 1-RTT space is the session's: once the connection is
        // established every app packet goes to it whole (frames plus packet
        // number), and each answer payload is sealed here, its packet number
        // reported back for the session's sent-packet tracker. A packet
        // carrying CONNECTION_CLOSE closes the connection instead.
        if space == 2 {
            if frames
                .iter()
                .any(|f| matches!(f, Frame::ConnectionClose { .. }))
            {
                self.closed = true;
                return;
            }
            // RFC 9000 §13.1, checked here because the packet numbers are
            // ours: a session's sender would take the frame's `largest`
            // on the peer's word and declare everything in flight lost.
            if Frame::acks_unsent(&frames, self.next_pn[2]) {
                self.close_app_space("ACK for a packet never sent", out);
                return;
            }
            if !self.established {
                return;
            }
            for payload in self.session.on_app_packet(pkt.packet_number, &frames) {
                let pn = self.next_pn[2];
                let Some(sealed) = self.seal_1rtt(&payload) else {
                    return;
                };
                self.session.on_payload_sealed(pn);
                out.push(sealed);
            }
            return;
        }
        let level = if space == 0 {
            Level::Initial
        } else {
            Level::Handshake
        };
        for frame in frames {
            match frame {
                Frame::Crypto { offset, data } => {
                    // Handshake messages fit in single CRYPTO frames in this
                    // stack (client CH < 1 KiB), so no reassembly is needed —
                    // but retransmitted crypto (a PTO'd CH or Finished, or a
                    // network-duplicated datagram) must not be re-fed to TLS.
                    // A full duplicate instead means the client is missing
                    // our answering flight: re-send it from the cache.
                    let consumed = self.crypto_consumed[space];
                    let end = offset + data.len() as u64;
                    if end <= consumed {
                        self.resend_cached(space, out);
                        continue;
                    }
                    let skip = consumed.saturating_sub(offset) as usize;
                    self.crypto_consumed[space] = end;
                    match self.tls.on_handshake_data(level, &data[skip..]) {
                        Ok(events) => self.apply_tls_events(events, out),
                        Err(e) => {
                            self.send_close(e, config, out);
                            return;
                        }
                    }
                }
                Frame::ConnectionClose { .. } => {
                    self.closed = true;
                    return;
                }
                _ => {}
            }
        }
    }

    /// Seals `payload` as one 1-RTT packet at the next app-space packet
    /// number (`None` before the 1-RTT keys exist).
    fn seal_1rtt(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let keys = self.seal_app.as_ref()?;
        let mut pkt = Vec::new();
        seal_short_into(
            &mut pkt,
            &mut self.scratch,
            &self.client_cid,
            self.next_pn[2],
            payload,
            keys,
        );
        self.next_pn[2] += 1;
        Some(pkt)
    }

    /// [`ServerConn::seal_1rtt`] of the frames staged in `self.payload`.
    fn seal_staged_1rtt(&mut self) -> Option<Vec<u8>> {
        let staged = std::mem::take(&mut self.payload);
        let pkt = self.seal_1rtt(staged.as_slice());
        self.payload = staged;
        pkt
    }

    fn apply_tls_events(&mut self, events: Vec<TlsEvent>, out: &mut Vec<Vec<u8>>) {
        let mut initial_crypto: Option<Vec<u8>> = None;
        let mut handshake_crypto: Option<Vec<u8>> = None;
        let mut completed = false;
        let mut alg = qcrypto::aead::AeadAlgorithm::Aes128Gcm;
        if let Some(c) = self.tls.negotiated_cipher() {
            alg = c.aead();
        }
        for ev in events {
            match ev {
                TlsEvent::SendHandshake(Level::Initial, bytes) => initial_crypto = Some(bytes),
                TlsEvent::SendHandshake(Level::Handshake, bytes) => handshake_crypto = Some(bytes),
                TlsEvent::SendHandshake(Level::App, _) => {}
                TlsEvent::HandshakeKeys(hs) => {
                    self.open_keys.handshake = Some(PacketKeys::from_secret(alg, &hs.client));
                    self.seal_handshake = Some(PacketKeys::from_secret(alg, &hs.server));
                }
                TlsEvent::AppKeys(app) => {
                    self.open_keys.app = Some(PacketKeys::from_secret(alg, &app.client));
                    self.seal_app = Some(PacketKeys::from_secret(alg, &app.server));
                }
                TlsEvent::Complete => completed = true,
            }
        }

        // Server flight: Initial[ACK, CRYPTO(SH)] ++ Handshake[CRYPTO(EE..FIN)].
        if let Some(sh) = initial_crypto {
            let mut flight_dgrams: Vec<Vec<u8>> = Vec::new();
            let mut datagram = Vec::new();
            let payload = &mut self.payload;
            payload.clear();
            let largest = self.largest_recv[0].unwrap_or(0);
            Frame::encode_ack_single(payload, largest, 0);
            Frame::encode_crypto(payload, 0, &sh);
            let keys = &self
                .open_keys
                .initial_pair
                .as_deref()
                .expect("initial seal keys")
                .server;
            seal_long_into(
                &mut datagram,
                &mut self.scratch,
                PacketType::Initial,
                self.version,
                &self.client_cid,
                &self.scid,
                b"",
                self.next_pn[0],
                payload.as_slice(),
                keys,
                0,
            );
            self.next_pn[0] += 1;

            if let Some(flight) = handshake_crypto {
                // Chunk the encrypted flight across ≤1000-byte CRYPTO frames.
                let keys = self.seal_handshake.as_ref().expect("handshake seal keys");
                let mut offset = 0u64;
                for chunk in flight.chunks(1000) {
                    let payload = &mut self.payload;
                    payload.clear();
                    Frame::encode_crypto(payload, offset, chunk);
                    offset += chunk.len() as u64;
                    // Predict the sealed size to decide coalescing before
                    // sealing into the right buffer.
                    let pkt_len = 1
                        + 4
                        + 1
                        + self.client_cid.len()
                        + 1
                        + self.scid.len()
                        + crate::packet::varint_len((4 + payload.len() + keys.tag_len()) as u64)
                        + 4
                        + payload.len()
                        + keys.tag_len();
                    if datagram.len() + pkt_len > 1452 {
                        flight_dgrams.push(std::mem::take(&mut datagram));
                    }
                    seal_long_into(
                        &mut datagram,
                        &mut self.scratch,
                        PacketType::Handshake,
                        self.version,
                        &self.client_cid,
                        &self.scid,
                        b"",
                        self.next_pn[1],
                        payload.as_slice(),
                        keys,
                        0,
                    );
                    self.next_pn[1] += 1;
                }
            }
            flight_dgrams.push(datagram);
            out.extend(flight_dgrams.iter().cloned());
            // Keep the flight so a retransmitted CH can trigger a re-send.
            self.flight_cache = flight_dgrams;
        }

        if completed && !self.established {
            self.established = true;
            // HANDSHAKE_DONE plus whatever the session sends first (the
            // HTTP/3 control stream).
            let payload = &mut self.payload;
            payload.clear();
            Frame::HandshakeDone.encode(payload);
            self.session.on_connected(payload);
            let pkt = self.seal_staged_1rtt().expect("1-RTT seal keys");
            self.post_cache = Some(pkt.clone());
            out.push(pkt);
        }
    }

    /// Answers retransmitted crypto with the cached flight the client is
    /// evidently missing: a repeated CH gets the whole server flight, a
    /// repeated Finished gets the HANDSHAKE_DONE packet.
    fn resend_cached(&mut self, space: usize, out: &mut Vec<Vec<u8>>) {
        match space {
            0 => out.extend(self.flight_cache.iter().cloned()),
            1 => out.extend(self.post_cache.iter().cloned()),
            _ => {}
        }
    }

    /// Closes an established connection for a PROTOCOL_VIOLATION seen in
    /// the 1-RTT space; the sealed close is what later packets are answered
    /// with while draining.
    fn close_app_space(&mut self, reason: &str, out: &mut Vec<Vec<u8>>) {
        self.closed = true;
        let payload = &mut self.payload;
        payload.clear();
        Frame::ConnectionClose {
            error_code: crate::error::TransportError::PROTOCOL_VIOLATION.0,
            frame_type: Some(0x02),
            reason: reason.to_string(),
            is_app: false,
        }
        .encode(payload);
        let Some(pkt) = self.seal_staged_1rtt() else {
            return;
        };
        self.close_cache = Some(pkt.clone());
        out.push(pkt);
    }

    fn send_close(&mut self, err: TlsError, config: &EndpointConfig, out: &mut Vec<Vec<u8>>) {
        self.closed = true;
        let code = match err {
            TlsError::LocalAlert(alert, _) => crate::error::TransportError::crypto(alert.code()),
            TlsError::PeerAlert(c) => crate::error::TransportError::crypto(c),
            _ => crate::error::TransportError::PROTOCOL_VIOLATION,
        };
        let payload = &mut self.payload;
        payload.clear();
        Frame::ConnectionClose {
            error_code: code.0,
            frame_type: Some(0),
            reason: config.close_reason.clone(),
            is_app: false,
        }
        .encode(payload);
        let Some(pair) = self.open_keys.initial_pair.as_deref() else {
            return;
        };
        let mut pkt = Vec::new();
        seal_long_into(
            &mut pkt,
            &mut self.scratch,
            PacketType::Initial,
            self.version,
            &self.client_cid,
            &self.scid,
            b"",
            self.next_pn[0],
            payload.as_slice(),
            &pair.server,
            0,
        );
        self.next_pn[0] += 1;
        self.close_cache = Some(pkt.clone());
        out.push(pkt);
    }
}

/// Runs a [`StreamHandler`] as a session: STREAM frames go to the handler,
/// and its answers leave as one payload when they fit in 1,400 bytes,
/// otherwise as 1,200-byte chunks per stream. Nothing is tracked for
/// retransmission, so the session is always idle.
struct HandlerSession(Box<dyn StreamHandler>);

impl AppSession for HandlerSession {
    fn on_connected(&mut self, payload: &mut Writer) {
        for s in self.0.on_connected() {
            Frame::encode_stream(payload, s.id, 0, s.fin, &s.data);
        }
    }

    fn on_app_packet(&mut self, _pn: u64, frames: &[Frame]) -> Vec<Vec<u8>> {
        let mut sends = Vec::new();
        for frame in frames {
            if let Frame::Stream { id, fin, data, .. } = frame {
                sends.extend(self.0.on_stream_data(*id, data, *fin));
            }
        }
        if sends.is_empty() {
            return Vec::new();
        }
        let mut payload = Writer::new();
        for s in &sends {
            Frame::encode_stream(&mut payload, s.id, 0, s.fin, &s.data);
        }
        if payload.len() <= 1400 {
            return vec![payload.into_vec()];
        }
        // Re-frame per stream send to keep frames intact.
        let mut payloads = Vec::new();
        for s in sends {
            for (i, chunk) in s.data.chunks(1200).enumerate() {
                let is_last = (i + 1) * 1200 >= s.data.len();
                let mut payload = Writer::new();
                Frame::encode_stream(
                    &mut payload,
                    s.id,
                    (i * 1200) as u64,
                    s.fin && is_last,
                    chunk,
                );
                payloads.push(payload.into_vec());
            }
        }
        payloads
    }

    fn on_payload_sealed(&mut self, _pn: u64) {}

    fn is_idle(&self) -> bool {
        true
    }
}

fn placeholder_cert() -> qtls::Certificate {
    qtls::cert::self_signed(0, "placeholder.invalid", 0, [0u8; 32])
}

/// Shared placeholder TLS config: the real per-connection config is swapped in
/// once the first Initial reveals the negotiated parameters, so every
/// connection can share one allocation here instead of cloning a fresh one.
fn placeholder_server_config() -> Arc<qtls::ServerConfig> {
    static CFG: OnceLock<Arc<qtls::ServerConfig>> = OnceLock::new();
    Arc::clone(CFG.get_or_init(|| Arc::new(qtls::ServerConfig::single_cert(placeholder_cert()))))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoStreams;
    impl StreamHandler for NoStreams {
        fn on_stream_data(&mut self, _id: u64, _data: &[u8], _fin: bool) -> Vec<StreamSend> {
            Vec::new()
        }
    }

    struct Session {
        idle: bool,
    }
    impl AppSession for Session {
        fn on_app_packet(&mut self, _pn: u64, _frames: &[Frame]) -> Vec<Vec<u8>> {
            Vec::new()
        }
        fn on_payload_sealed(&mut self, _pn: u64) {}
        fn is_idle(&self) -> bool {
            self.idle
        }
    }

    /// A v1 long-header Initial that opens a connection but carries no
    /// decodable packet: enough to create a table entry, nothing more.
    fn initial(flow: u128) -> Vec<u8> {
        let mut d = vec![0xc0, 0, 0, 0, 1, 8];
        d.extend_from_slice(&(flow as u64).to_be_bytes());
        d.push(8);
        d.extend_from_slice(&(!flow as u64).to_be_bytes());
        d.extend_from_slice(&[0; 8]);
        d
    }

    /// A short-header datagram: routed to the flow's connection (a touch)
    /// without creating one.
    const TOUCH: [u8; 4] = [0x40, 0, 0, 0];

    fn flows(ep: &Endpoint) -> Vec<u128> {
        let mut keys: Vec<u128> = ep.conns.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Pins the eviction choice at the cap by value: the least recently
    /// touched evictable connection (closed, established with a stream
    /// handler, idle session) goes first, a busy session never does, and
    /// when nothing is evictable the table grows past the cap instead.
    #[test]
    fn evicts_least_recently_touched_evictable_connection() {
        let config = EndpointConfig::new(placeholder_server_config());
        let mut ep =
            Endpoint::with_sessions(config, 7, Box::new(|| Box::new(Session { idle: false })));
        let cap = DEFAULT_MAX_CONNS as u128;
        assert_eq!(cap % 4, 0);
        // Flow f is closed (f % 4 == 0), established with a stream handler
        // (1), an idle session (2) or a busy session (3).
        for f in 0..cap {
            ep.handle_datagram(f, &initial(f));
            let conn = ep.conns.get_mut(&f).expect("opened");
            match f % 4 {
                0 => conn.closed = true,
                1 => {
                    conn.established = true;
                    conn.session = Box::new(HandlerSession(Box::new(NoStreams)));
                }
                idle_or_busy => {
                    conn.established = true;
                    conn.session = Box::new(Session {
                        idle: idle_or_busy == 2,
                    });
                }
            }
        }
        // Re-touch the even flows: recency, oldest first, is now
        // 1, 3, …, cap − 1, 0, 2, …, cap − 2.
        for f in (0..cap).step_by(2) {
            assert!(ep.handle_datagram(f, &TOUCH).is_empty());
        }
        assert_eq!(flows(&ep), (0..cap).collect::<Vec<_>>());

        // Victims in order: the handler-served flows (odd, oldest),
        // then every even flow; never a busy session (f % 4 == 3).
        let victims: Vec<u128> = (1..cap).step_by(4).chain((0..cap).step_by(2)).collect();
        assert_eq!(victims.len(), 48);
        let mut expected: Vec<u128> = (0..cap).collect();
        for (j, &victim) in victims.iter().enumerate() {
            let newcomer = 1000 + j as u128;
            ep.handle_datagram(newcomer, &initial(newcomer));
            expected.retain(|&f| f != victim);
            expected.push(newcomer);
            expected.sort_unstable();
            assert_eq!(flows(&ep), expected, "after insert {j}");
        }

        // Left: 16 busy sessions plus 48 half-open newcomers — nothing
        // evictable, so the next connections grow the table.
        assert_eq!(ep.conns.len() as u128, cap);
        for f in (3..cap).step_by(4) {
            assert!(ep.conns.contains_key(&f), "busy session {f} evicted");
        }
        for extra in 0..3u128 {
            let newcomer = 2000 + extra;
            ep.handle_datagram(newcomer, &initial(newcomer));
            assert_eq!(ep.conns.len() as u128, cap + extra + 1);
        }
        assert!((3..cap).step_by(4).all(|f| ep.conns.contains_key(&f)));
    }
}
