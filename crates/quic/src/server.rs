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
//!
//! Packet numbers, keys, sealing and CRYPTO reassembly belong to each
//! connection's `space::PacketSpaces`, the core the client runs on too; what
//! is here is the server's own: the flight and close caches, the sessions,
//! and eviction.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use qcodec::{Reader, Writer};
use qtls::server::ServerHandshake;
use qtls::{Level, TlsError, TlsEvent};

use crate::error::{ConnectionError, TransportError};
use crate::frame::{Frame, Frames};
use crate::packet::{encode_version_negotiation_into, ConnectionId, Header};
use crate::space::{PacketSpaces, Role, Space};
use crate::tparams::TransportParameters;
use crate::transmit::{split, Out};
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
/// The session answers with fully composed frame payloads, each of which
/// the endpoint seals as one 1-RTT packet in place in the reply batch,
/// returning the packet number it was given so the session can track it
/// for loss detection. The `transfer` crate implements congestion-controlled
/// senders and flow-controlled receivers on this hook.
pub trait AppSession: Send {
    /// Called once when the handshake completes: frames appended to
    /// `payload` ride in the packet that carries HANDSHAKE_DONE (e.g. the
    /// HTTP/3 control stream); nothing tracks that packet. Defaults to
    /// appending nothing.
    fn on_connected(&mut self, _payload: &mut Writer) {}
    /// Handles one decoded 1-RTT packet. Each frame payload the session
    /// sends goes to `seal`, which seals it as one packet and returns its
    /// packet number (`None`, with nothing sealed, when the connection
    /// cannot send). An error closes the connection with it instead: the
    /// endpoint seals the CONNECTION_CLOSE, and nothing sealed in this call
    /// is sent.
    fn on_app_packet(
        &mut self,
        pn: u64,
        frames: Frames<'_>,
        seal: &mut Seal<'_>,
    ) -> Result<(), ConnectionError>;
    /// True when the session owes the peer nothing and expects nothing:
    /// all requests answered, all sent data acknowledged, no pending
    /// control output. Idle connections are the endpoint's preferred
    /// eviction victims when it is over its connection cap. Defaults to
    /// `false` (never idle — never evicted ahead of closed connections).
    fn is_idle(&self) -> bool {
        false
    }
}

/// Seals one frame payload as a 1-RTT packet and returns its packet number
/// (see [`AppSession::on_app_packet`]).
pub type Seal<'s> = dyn FnMut(&[u8]) -> Option<u64> + 's;

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
            use_retry: false,
        }
    }
}

struct ServerConn {
    /// Version, connection IDs, keys, packet numbers and CRYPTO reassembly.
    space: PacketSpaces,
    tls: ServerHandshake,
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
    /// Shared, so endpoints built from one template hold one copy.
    config: Arc<EndpointConfig>,
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
}

/// Soft cap on simultaneously tracked connections per endpoint. Past the cap
/// the endpoint evicts the least-recently-active *finished* connection
/// (closed, or idle per [`AppSession::is_idle`]); when every tracked
/// connection is still live the table grows instead — memory stays
/// O(active), not O(cap).
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Length of the connection ids an endpoint issues. Also the Retry-token
/// salt, and the width of the seed a connection's TLS randomness is drawn
/// from (its id read as a little-endian `u64`).
const CID_LEN: usize = 8;

impl Endpoint {
    /// Creates an endpoint whose connections a [`StreamHandler`] serves:
    /// `handler_factory` makes one per accepted connection, run as its
    /// [`AppSession`].
    pub fn new(
        config: impl Into<Arc<EndpointConfig>>,
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
    /// accepted connection. `config` is a value or a shared template.
    pub fn with_sessions(
        config: impl Into<Arc<EndpointConfig>>,
        seed: u64,
        session_factory: Box<dyn Fn() -> Box<dyn AppSession> + Send>,
    ) -> Self {
        Endpoint {
            config: config.into(),
            session_factory,
            conns: HashMap::new(),
            activity: 0,
            seed,
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
    /// as the most recently active. Its packets are opened into a buffer
    /// that lives for the datagram: one kept by the endpoint would stay
    /// grown in every endpoint a lazy universe holds resident, and a server
    /// opens few packets next to the ones it seals.
    fn deliver(&mut self, from: u128, datagram: &[u8], out: &mut Out<'_>) {
        let Some(conn) = self.conns.get_mut(&from) else {
            return;
        };
        self.activity += 1;
        conn.last_active = self.activity;
        conn.on_datagram(datagram, &self.config, &mut Vec::new(), out);
    }

    /// Processes one datagram from the flow identified by `from` (an opaque
    /// source key, e.g. hashed source address+port) and returns response
    /// datagrams, each as a vector of its own — the form the benchmark's
    /// fixtures call until ROADMAP item 11(b); hosts reply in place with
    /// [`Endpoint::handle_datagram_into`].
    pub fn handle_datagram(&mut self, from: u128, datagram: &[u8]) -> Vec<Vec<u8>> {
        let (mut buf, mut ends) = (Vec::new(), Vec::new());
        self.handle_datagram_into(from, datagram, &mut buf, &mut ends);
        split(&buf, &ends)
    }

    /// Processes one datagram from the flow identified by `from` and
    /// appends the response datagrams to a caller's batch, given as its two
    /// parts (`simnet::Datagrams::parts_mut`): each packet is sealed in
    /// place at the end of `buf`, and each datagram's end pushed onto
    /// `ends`.
    pub fn handle_datagram_into(
        &mut self,
        from: u128,
        datagram: &[u8],
        buf: &mut Vec<u8>,
        ends: &mut Vec<usize>,
    ) {
        let out = &mut Out::new(buf, ends);
        let Some(head) = parse_long_header_prefix(datagram) else {
            // Short header or garbage: route to an existing connection.
            return self.deliver(from, datagram, out);
        };
        if answer(&self.config, &head, datagram.len(), out) != Stateless::NeedsEndpoint {
            return;
        }

        // Address validation via Retry: a token-less Initial gets a Retry
        // carrying a token bound to the flow; the client repeats its Initial
        // with the token and a new DCID (our Retry SCID).
        if self.config.use_retry && !self.conns.contains_key(&from) {
            let token = retry_token(from, CID_LEN as u64);
            if head.token != Some(&token[..]) {
                let mut new_scid = vec![0u8; CID_LEN];
                flow_rng(self.seed, from, 1).fill_bytes(&mut new_scid);
                let retry = crate::retry::encode_retry(
                    head.version,
                    &ConnectionId(head.scid.to_vec()),
                    &ConnectionId(new_scid),
                    &ConnectionId(head.dcid.to_vec()),
                    &token,
                );
                return out.push(&retry);
            }
        }

        if !self.conns.contains_key(&from) {
            self.evict_for_insert();
            let conn = ServerConn::new(
                &head,
                &mut flow_rng(self.seed, from, 0),
                &self.config,
                (self.session_factory)(),
            );
            self.conns.insert(from, conn);
        }
        self.deliver(from, datagram, out);
    }
}

/// What [`stateless_answer`] made of a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stateless {
    /// A Version Negotiation packet went into the batch as one datagram.
    VersionNegotiation,
    /// The datagram is ignored: an unsupported version under
    /// `no_version_negotiation`, an unpadded probe without
    /// `respond_to_unpadded`, or a supported version at a `vn_only`
    /// middlebox (the scanner sees a timeout).
    Silent,
    /// The datagram needs connection state: a short header, garbage, or a
    /// supported version a handshake proceeds with.
    NeedsEndpoint,
}

/// The part of [`Endpoint::handle_datagram_into`] that reads nothing but
/// the configuration and the datagram (RFC 9000 §5.2.2, §6.1): a Version
/// Negotiation, written into the caller's batch as its two parts, or
/// silence. A network can answer these for an address whose endpoint was
/// never built, with the bytes the endpoint would write.
pub fn stateless_answer(
    config: &EndpointConfig,
    datagram: &[u8],
    buf: &mut Vec<u8>,
    ends: &mut Vec<usize>,
) -> Stateless {
    match parse_long_header_prefix(datagram) {
        Some(head) => answer(config, &head, datagram.len(), &mut Out::new(buf, ends)),
        None => Stateless::NeedsEndpoint,
    }
}

/// [`stateless_answer`] for a parsed long header of a `len`-byte datagram.
/// The decision precedes any decryption.
fn answer(
    config: &EndpointConfig,
    head: &LongHeaderPrefix<'_>,
    len: usize,
    out: &mut Out<'_>,
) -> Stateless {
    if config.accept_versions.contains(&head.version) {
        return if config.vn_only {
            Stateless::Silent
        } else {
            Stateless::NeedsEndpoint
        };
    }
    if config.no_version_negotiation || (len < 1200 && !config.respond_to_unpadded) {
        return Stateless::Silent;
    }
    encode_version_negotiation_into(
        out.buf(),
        head.scid, // their SCID becomes our DCID
        head.dcid,
        &config.vn_advertise,
    );
    out.end();
    Stateless::VersionNegotiation
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

/// Borrowed from the datagram: a [`ConnectionId`] is built only where a new
/// connection or a Retry keeps one.
struct LongHeaderPrefix<'a> {
    version: Version,
    dcid: &'a [u8],
    scid: &'a [u8],
    /// An Initial's token (`None` for other packet types).
    token: Option<&'a [u8]>,
}

/// Parses version/DCID/SCID, and an Initial's token, from a long header
/// without decrypting. Returns `None` for short-header packets or garbage.
fn parse_long_header_prefix(datagram: &[u8]) -> Option<LongHeaderPrefix<'_>> {
    let mut r = Reader::new(datagram);
    let first = r.read_u8().ok()?;
    if first & 0x80 == 0 {
        return None;
    }
    let version = Version(r.read_u32().ok()?);
    let dcid = r.read_vec8().ok()?;
    let scid = r.read_vec8().ok()?;
    let mut token = None;
    if (first >> 4) & 0x03 == 0 {
        // Type bits 00: an Initial.
        token = r
            .read_varint()
            .ok()
            .and_then(|n| r.read_bytes(n as usize).ok());
    }
    Some(LongHeaderPrefix {
        version,
        dcid,
        scid,
        token,
    })
}

impl ServerConn {
    /// A connection for the client whose first Initial carried `head`: its
    /// Initial keys derive from the client's DCID, and its TLS randomness
    /// from the connection ID drawn here.
    fn new(
        head: &LongHeaderPrefix<'_>,
        rng: &mut StdRng,
        config: &EndpointConfig,
        session: Box<dyn AppSession>,
    ) -> Self {
        let mut scid = [0u8; CID_LEN];
        rng.fill_bytes(&mut scid);
        let mut space = PacketSpaces::new(
            Role::Server,
            head.version,
            ConnectionId::new(&scid),
            ConnectionId(head.scid.to_vec()),
        );
        // Memoized: the client already derived this pair for the same
        // (version, DCID), so this lookup skips the HKDF/AES schedules.
        space.install_initial(head.dcid);
        let mut seeded = StdRng::seed_from_u64(u64::from_le_bytes(scid));
        let mut tp = config.transport_params.clone();
        tp.original_destination_connection_id = Some(head.dcid.to_vec());
        tp.initial_source_connection_id = Some(scid.to_vec());
        let mut token = [0u8; 16];
        seeded.fill_bytes(&mut token);
        tp.stateless_reset_token = Some(token);
        // Share the endpoint's Arc'd TLS config instead of cloning the whole
        // cert chain per connection; the session-specific transport
        // parameters ride in the override slot.
        let tls = ServerHandshake::with_overrides(
            Arc::clone(&config.tls),
            Some(tp.encode()),
            &mut seeded,
        );
        ServerConn {
            space,
            tls,
            flight_cache: Vec::new(),
            post_cache: None,
            close_cache: None,
            established: false,
            closed: false,
            session,
            last_active: 0,
        }
    }

    /// Opens `datagram`'s packets into `payload` and handles each; replies
    /// go to `out`.
    fn on_datagram(
        &mut self,
        datagram: &[u8],
        config: &EndpointConfig,
        payload: &mut Vec<u8>,
        out: &mut Out<'_>,
    ) {
        if self.closed {
            // Draining: keep answering with the close so a client whose
            // first copy was lost still learns the outcome (RFC 9000
            // §10.2.3 allows responding to late packets with the close).
            if let Some(close) = &self.close_cache {
                out.push(close);
            }
            return;
        }
        let mut rest = datagram;
        while let Some(header) = self.space.open_next(&mut rest, payload) {
            self.on_packet(&header, payload, config, out);
            if self.closed {
                break;
            }
        }
    }

    fn on_packet(
        &mut self,
        header: &Header<'_>,
        payload: &[u8],
        config: &EndpointConfig,
        out: &mut Out<'_>,
    ) {
        let Some(space) = Space::of(header.ty) else {
            return;
        };
        let pn = header.packet_number;
        self.space.note_recv(space, pn);
        let Ok(frames) = Frames::parse(payload) else {
            return;
        };
        // The 1-RTT space is the session's: once the connection is
        // established every app packet goes to it whole (frames plus packet
        // number), and each payload it answers with is sealed here, in
        // place in the reply batch. A packet carrying CONNECTION_CLOSE
        // closes the connection instead.
        if space == Space::App {
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
            if self.space.acks_unsent(Space::App, &frames) {
                let err = ConnectionError::ACK_OF_UNSENT;
                self.close(Space::App, err.code, err.frame_type, err.reason, out);
                return;
            }
            if !self.established {
                return;
            }
            let mark = out.mark();
            let spaces = &mut self.space;
            let mut seal = |frames: &[u8]| {
                let pn = spaces.seal_short(out.buf(), frames)?;
                out.end();
                Some(pn)
            };
            if let Err(err) = self.session.on_app_packet(pn, frames, &mut seal) {
                out.truncate(mark);
                self.close(Space::App, err.code, err.frame_type, err.reason, out);
            }
            return;
        }
        for frame in frames {
            match frame {
                Frame::Crypto { offset, data } => {
                    // Retransmitted crypto (a PTO'd CH or Finished, or a
                    // network-duplicated datagram) is never re-fed to TLS: a
                    // frame TLS already has every byte of means the client is
                    // missing our answering flight, re-sent from the cache.
                    // A frame past a gap waits until the gap fills.
                    let Some(ready) = self.space.recv_crypto(space, offset, data) else {
                        self.resend_cached(space, out);
                        continue;
                    };
                    if ready.is_empty() {
                        continue;
                    }
                    match self.tls.on_handshake_data(space.level(), &ready) {
                        Ok(events) => self.apply_tls_events(events, out),
                        Err(e) => {
                            let code = match e {
                                TlsError::LocalAlert(alert, _) => {
                                    TransportError::crypto(alert.code())
                                }
                                TlsError::PeerAlert(c) => TransportError::crypto(c),
                                _ => TransportError::PROTOCOL_VIOLATION,
                            };
                            self.close(Space::Initial, code, 0, &config.close_reason, out);
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

    fn apply_tls_events(&mut self, events: Vec<TlsEvent>, out: &mut Out<'_>) {
        let mut initial_crypto: Option<Vec<u8>> = None;
        let mut handshake_crypto: Option<Vec<u8>> = None;
        let mut completed = false;
        let cipher = self.tls.negotiated_cipher();
        for ev in events {
            if self.space.install(cipher, &ev).is_some() {
                continue;
            }
            match ev {
                TlsEvent::SendHandshake(Level::Initial, bytes) => initial_crypto = Some(bytes),
                TlsEvent::SendHandshake(Level::Handshake, bytes) => handshake_crypto = Some(bytes),
                TlsEvent::Complete => completed = true,
                _ => {}
            }
        }

        // Server flight: Initial[ACK, CRYPTO(SH)] ++ Handshake[CRYPTO(EE..FIN)].
        if let Some(sh) = initial_crypto {
            let mut flight: Vec<Vec<u8>> = Vec::new();
            let mut datagram = Vec::new();
            let largest = self.space.largest_recv(Space::Initial);
            self.space.with_frames(|space, frames| {
                Frame::encode_ack_single(frames, largest, 0);
                Frame::encode_crypto(frames, 0, &sh);
                space.seal_long(&mut datagram, Space::Initial, b"", frames.as_slice(), 0)
            });
            // The encrypted flight in ≤1000-byte CRYPTO frames, coalesced
            // while a datagram stays within 1452 bytes.
            let mut offset = 0u64;
            for chunk in handshake_crypto.iter().flat_map(|hs| hs.chunks(1000)) {
                self.space.with_frames(|space, frames| {
                    Frame::encode_crypto(frames, offset, chunk);
                    if datagram.len() + space.long_len(Space::Handshake, 0, frames.len()) > 1452 {
                        flight.push(std::mem::take(&mut datagram));
                    }
                    space.seal_long(&mut datagram, Space::Handshake, b"", frames.as_slice(), 0)
                });
                offset += chunk.len() as u64;
            }
            flight.push(datagram);
            for datagram in &flight {
                out.push(datagram);
            }
            // Keep the flight so a retransmitted CH can trigger a re-send.
            self.flight_cache = flight;
        }

        if completed && !self.established {
            self.established = true;
            // HANDSHAKE_DONE plus whatever the session sends first (the
            // HTTP/3 control stream).
            let session = &mut self.session;
            let mut pkt = Vec::new();
            self.space
                .with_frames(|space, frames| {
                    Frame::HandshakeDone.encode(frames);
                    session.on_connected(frames);
                    space.seal_short(&mut pkt, frames.as_slice())
                })
                .expect("1-RTT seal keys");
            out.push(&pkt);
            self.post_cache = Some(pkt);
        }
    }

    /// Answers retransmitted crypto with the cached flight the client is
    /// evidently missing: a repeated CH gets the whole server flight, a
    /// repeated Finished gets the HANDSHAKE_DONE packet.
    fn resend_cached(&mut self, space: Space, out: &mut Out<'_>) {
        let cached = match space {
            Space::Initial => &self.flight_cache[..],
            Space::Handshake => self.post_cache.as_slice(),
            Space::App => &[],
        };
        for datagram in cached {
            out.push(datagram);
        }
    }

    /// Closes the connection with a CONNECTION_CLOSE sealed in `space`; the
    /// sealed close is what later packets are answered with while draining.
    fn close(
        &mut self,
        space: Space,
        code: TransportError,
        frame_type: u64,
        reason: &str,
        out: &mut Out<'_>,
    ) {
        self.closed = true;
        let mut pkt = Vec::new();
        if self
            .space
            .seal_close(&mut pkt, space, code, frame_type, reason)
        {
            out.push(&pkt);
            self.close_cache = Some(pkt);
        }
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

    fn on_app_packet(
        &mut self,
        _pn: u64,
        frames: Frames<'_>,
        seal: &mut Seal<'_>,
    ) -> Result<(), ConnectionError> {
        let mut sends = Vec::new();
        for frame in frames {
            if let Frame::Stream { id, fin, data, .. } = frame {
                sends.extend(self.0.on_stream_data(id, data, fin));
            }
        }
        if sends.is_empty() {
            return Ok(());
        }
        let mut payload = Writer::new();
        for s in &sends {
            Frame::encode_stream(&mut payload, s.id, 0, s.fin, &s.data);
        }
        if payload.len() <= 1400 {
            seal(payload.as_slice());
            return Ok(());
        }
        // Re-frame per stream send to keep frames intact. An empty send
        // still leaves as one (empty) frame, or its FIN would be lost.
        for s in sends {
            let chunks = s
                .data
                .chunks(1200)
                .chain(s.data.is_empty().then_some(&[][..]));
            for (i, chunk) in chunks.enumerate() {
                let is_last = (i + 1) * 1200 >= s.data.len();
                payload.clear();
                Frame::encode_stream(
                    &mut payload,
                    s.id,
                    (i * 1200) as u64,
                    s.fin && is_last,
                    chunk,
                );
                if seal(payload.as_slice()).is_none() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn is_idle(&self) -> bool {
        true
    }
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
        fn on_app_packet(
            &mut self,
            _pn: u64,
            _frames: Frames<'_>,
            _seal: &mut Seal<'_>,
        ) -> Result<(), ConnectionError> {
            Ok(())
        }
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

    /// A long-header Initial of `version` from flow 1, padded to `len`
    /// bytes.
    fn probe(version: Version, len: usize) -> Vec<u8> {
        let mut d = vec![0xc0];
        d.extend_from_slice(&version.0.to_be_bytes());
        d.extend_from_slice(&[8, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0xa, 0xb, 0xc, 0xd, 0]);
        d.resize(len, 0);
        d
    }

    /// The stateless answer is the endpoint's, byte for byte, under every
    /// combination of the three flags it reads, for padded and unpadded
    /// probes of a supported and an unsupported version; what it leaves to
    /// the endpoint is what opens a connection there. Which answer each case
    /// gets is pinned by the rules of RFC 9000 §6.1 and §14.1 and the
    /// flags' meanings. A short header always needs the endpoint.
    #[test]
    fn stateless_answer_is_the_endpoints() {
        let cert = qtls::cert::self_signed(0, "test.invalid", 0, [0u8; 32]);
        let tls = Arc::new(qtls::ServerConfig::single_cert(cert));
        for flags in 0..8u8 {
            let mut config = EndpointConfig::new(tls.clone());
            config.no_version_negotiation = flags & 1 != 0;
            config.respond_to_unpadded = flags & 2 != 0;
            config.vn_only = flags & 4 != 0;
            // Advertised differs from accepted, as at Google (§5).
            config.vn_advertise = vec![Version::DRAFT_29, Version(0x5a5a_5a5a)];
            let config = Arc::new(config);
            for version in [Version::V1, Version(0x1a2a_3a4a)] {
                for len in [1200, 1199, 64] {
                    let datagram = probe(version, len);
                    let (mut buf, mut ends) = (vec![0xee], vec![1]);
                    let answer = stateless_answer(&config, &datagram, &mut buf, &mut ends);
                    let mut ep = Endpoint::new(config.clone(), 7, Box::new(|| Box::new(NoStreams)));
                    let (mut ep_buf, mut ep_ends) = (vec![0xee], vec![1]);
                    ep.handle_datagram_into(1, &datagram, &mut ep_buf, &mut ep_ends);
                    let case = format!("flags {flags:03b}, {version:?}, {len} B: {answer:?}");
                    let expected = if version == Version::V1 {
                        match config.vn_only {
                            true => Stateless::Silent,
                            false => Stateless::NeedsEndpoint,
                        }
                    } else if config.no_version_negotiation
                        || (len < 1200 && !config.respond_to_unpadded)
                    {
                        Stateless::Silent
                    } else {
                        Stateless::VersionNegotiation
                    };
                    assert_eq!(answer, expected, "{case}");
                    if answer == Stateless::NeedsEndpoint {
                        assert_eq!((buf, ends), (vec![0xee], vec![1]), "{case}");
                        assert_eq!(flows(&ep), [1], "{case}");
                    } else {
                        assert_eq!((&buf, &ends), (&ep_buf, &ep_ends), "{case}");
                        assert!(ep.conns.is_empty(), "{case}");
                        let vn = answer == Stateless::VersionNegotiation;
                        assert_eq!(ends.len(), 1 + usize::from(vn), "{case}");
                    }
                }
            }
            let short = stateless_answer(&config, &TOUCH, &mut Vec::new(), &mut Vec::new());
            assert_eq!(short, Stateless::NeedsEndpoint);
        }
    }

    /// Pins the eviction choice at the cap by value: the least recently
    /// touched evictable connection (closed, established with a stream
    /// handler, idle session) goes first, a busy session never does, and
    /// when nothing is evictable the table grows past the cap instead.
    #[test]
    fn evicts_least_recently_touched_evictable_connection() {
        let cert = qtls::cert::self_signed(0, "test.invalid", 0, [0u8; 32]);
        let config = EndpointConfig::new(Arc::new(qtls::ServerConfig::single_cert(cert)));
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
