//! Sans-IO QUIC client connection — the engine inside the QScanner.
//!
//! Drives the handshake of Figure 2 in the paper: the Initial flight
//! (a CRYPTO frame carrying the Client Hello, padded to 1200 bytes) out, optional Version Negotiation handling, server Initial +
//! Handshake flight in, client Finished out, then 1-RTT stream data for
//! HTTP/3. Loss recovery is timer-driven but externally clocked: the scan
//! loop watches the virtual clock and calls [`ClientConnection::on_pto`]
//! when the peer goes silent, which retransmits the flight the peer is most
//! likely missing (RFC 9002-style probe timeouts without owning a timer).
//!
//! Packet numbers, keys, sealing and CRYPTO reassembly belong to the
//! connection's `space::PacketSpaces`, the core the server's connections run
//! on too; what is here is the client's own: the Retry and Version
//! Negotiation restarts, probe timeouts, telemetry events and streams.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use qtls::client::{ClientHandshake, PeerTlsInfo};
use qtls::{Level, TlsError, TlsEvent};

use crate::error::{ConnectionError, TransportError};
use crate::frame::{Frame, Frames};
use crate::packet::{ConnectionId, Header, PacketType};
use crate::space::{PacketSpaces, Role, Space};
use crate::tparams::TransportParameters;
use crate::transmit::{Out, Queue};
use crate::version::Version;

/// Client connection configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Versions the client supports, most preferred first; the first is
    /// offered initially, and after a Version Negotiation the connection
    /// restarts once with the first of the rest the server lists.
    pub versions: Vec<Version>,
    /// TLS offer (SNI, ALPN, ciphers, groups).
    pub tls: qtls::ClientConfig,
    /// Client transport parameters.
    pub transport_params: TransportParameters,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            versions: vec![Version::DRAFT_29, Version::DRAFT_32, Version::DRAFT_34],
            tls: qtls::ClientConfig::default(),
            transport_params: TransportParameters::default(),
        }
    }
}

/// Where the connection stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionState {
    /// Still handshaking.
    Handshaking,
    /// Handshake finished successfully.
    Established,
    /// Terminally failed/closed; see [`HandshakeOutcome`].
    Closed,
}

/// Terminal classification of a connection attempt — the QScanner's result
/// categories (Table 3 rows, minus Timeout which the scan driver decides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeOutcome {
    /// Handshake completed.
    Established,
    /// Version negotiation could not converge: none of our versions is
    /// acceptable, or the server illegally listed the offered version.
    VersionMismatch {
        /// Versions we offered.
        offered: Vec<Version>,
        /// Versions the server advertised in its VN packet.
        server_versions: Vec<Version>,
    },
    /// Peer sent CONNECTION_CLOSE (e.g. crypto error 0x128).
    TransportClose {
        /// The QUIC error code.
        code: TransportError,
        /// The reason phrase (implementation-specific wording, §5).
        reason: String,
    },
    /// Our TLS engine rejected the peer.
    TlsFailure(String),
    /// Protocol violation / undecodable traffic.
    ProtocolError(String),
}

/// Where a data plane that owns the client's 1-RTT space takes each packet
/// ([`ClientConnection::on_datagram_with`]): its packet number, which the
/// data plane acknowledges itself, and its frames, borrowed from the
/// opened payload. An error closes the connection with it.
pub type AppPackets<'s> = dyn FnMut(u64, Frames<'_>) -> Result<(), ConnectionError> + 's;

/// Data received on a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRecv {
    /// Stream id.
    pub id: u64,
    /// Bytes (in order).
    pub data: Vec<u8>,
    /// FIN seen.
    pub fin: bool,
}

/// Sans-IO QUIC client connection.
pub struct ClientConnection {
    config: ClientConfig,
    tls: ClientHandshake,
    /// Version, connection IDs, keys, packet numbers and CRYPTO reassembly.
    space: PacketSpaces,
    /// Per space: a packet arrived that no ACK of ours covers yet.
    ack_pending: [bool; 3],
    /// Datagrams queued for [`ClientConnection::poll_transmit_into`].
    tx: Queue,
    crypto_tx_pending: Vec<(Level, Vec<u8>)>,
    state: ConnectionState,
    outcome: Option<HandshakeOutcome>,
    peer_transport_params: Option<TransportParameters>,
    handshake_done: bool,
    streams_rx: HashMap<u64, StreamRecv>,
    next_bidi_stream: u64,
    next_uni_stream: u64,
    /// Set once a Version Negotiation restarted the connection; a second
    /// one ends it.
    vn_restarted: bool,
    saw_server_packet: bool,
    /// Address-validation token to echo in Initials (set by a Retry).
    retry_token: Vec<u8>,
    retry_seen: bool,
    /// Client Hello bytes of the current attempt, kept for PTO retransmits.
    ch_bytes: Vec<u8>,
    /// Handshake-level crypto (Finished) already sent, for PTO retransmits.
    sent_finished: Vec<u8>,
    /// Telemetry buffer: `Some` once tracing is enabled; the driver drains
    /// it with [`ClientConnection::take_events`] and stamps time/flow there.
    events: Option<Vec<telemetry::EventKind>>,
    rng: StdRng,
}

impl ClientConnection {
    /// Creates a connection and queues the padded Initial datagram.
    pub fn new(config: ClientConfig, seed: u64) -> Self {
        Self::build(config, seed, false)
    }

    /// [`ClientConnection::new`] with event tracing enabled from the first
    /// attempt, so the initial key derivation is captured too.
    pub fn new_traced(config: ClientConfig, seed: u64) -> Self {
        Self::build(config, seed, true)
    }

    fn build(config: ClientConfig, seed: u64, traced: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let version = config.versions.first().copied().unwrap_or(Version::V1);
        // Placeholder TLS engine, replaced by `start_attempt` before any
        // byte is sent: an empty offer skips the key-share scalar
        // multiplications a default ClientHello would compute and discard.
        let placeholder_tls_cfg = qtls::ClientConfig {
            server_name: None,
            alpn: Vec::new(),
            cipher_suites: Vec::new(),
            groups: Vec::new(),
            quic_transport_params: None,
        };
        let mut conn = ClientConnection {
            config,
            tls: ClientHandshake::start(placeholder_tls_cfg, &mut rng).0,
            space: PacketSpaces::new(
                Role::Client,
                version,
                ConnectionId::empty(),
                ConnectionId::empty(),
            ),
            ack_pending: [false; 3],
            tx: Queue::default(),
            crypto_tx_pending: Vec::new(),
            state: ConnectionState::Handshaking,
            outcome: None,
            peer_transport_params: None,
            handshake_done: false,
            streams_rx: HashMap::new(),
            next_bidi_stream: 0,
            next_uni_stream: 2,
            vn_restarted: false,
            saw_server_packet: false,
            retry_token: Vec::new(),
            retry_seen: false,
            ch_bytes: Vec::new(),
            sent_finished: Vec::new(),
            events: traced.then(Vec::new),
            rng,
        };
        conn.start_attempt(version);
        conn
    }

    /// Starts a connection attempt with `version`: the first one, or the
    /// new connection a Version Negotiation restarts with, which begins
    /// every packet-number space afresh.
    fn start_attempt(&mut self, version: Version) {
        let mut scid = [0u8; 8];
        self.rng.fill_bytes(&mut scid);
        let mut dcid = [0u8; 8];
        self.rng.fill_bytes(&mut dcid);
        self.space = PacketSpaces::new(
            Role::Client,
            version,
            ConnectionId::new(&scid),
            ConnectionId::new(&dcid),
        );
        self.space.install_initial(&dcid);
        self.note(|| telemetry::EventKind::KeyDerived { level: "initial" });
        self.ack_pending = [false; 3];
        self.crypto_tx_pending.clear();

        let mut tls_cfg = self.config.tls.clone();
        let mut tp = self.config.transport_params.clone();
        tp.initial_source_connection_id = Some(scid.to_vec());
        tls_cfg.quic_transport_params = Some(tp.encode());
        let (tls, ch_bytes) = ClientHandshake::start(tls_cfg, &mut self.rng);
        self.tls = tls;
        self.ch_bytes = ch_bytes;
        self.sent_finished.clear();
        self.push_initial_ch();
    }

    /// Queues an Initial[CRYPTO(CH)] datagram padded so it reaches 1200
    /// bytes (RFC 9000 §14.1 — the padding requirement the paper's §3.1
    /// experiment tests). Used for the first flight and for every PTO
    /// retransmission: keeping retransmits at full size keeps the server's
    /// 3× anti-amplification budget (RFC 9000 §8.1) open.
    fn push_initial_ch(&mut self) {
        let (ch, token) = (&self.ch_bytes, &self.retry_token);
        let mut out = self.tx.out();
        let start = out.buf().len();
        let sealed = self.space.with_frames(|space, frames| {
            Frame::encode_crypto(frames, 0, ch);
            // The unpadded packet's size follows from the header fields and
            // the payload length, so the 1200-byte deficit is computed
            // instead of sealing a probe packet first.
            let unpadded = space.long_len(Space::Initial, token.len(), frames.len());
            let padded = frames.len() + 1200usize.saturating_sub(unpadded);
            space.seal_long(out.buf(), Space::Initial, token, frames.as_slice(), padded)
        });
        debug_assert!(
            sealed && out.buf().len() - start >= 1200,
            "initial keys installed"
        );
        out.end();
    }

    /// Probe-timeout hook for the externally clocked scan loop: called when
    /// the peer has gone silent for a PTO interval, it retransmits the
    /// flight the peer is most likely missing and returns whether anything
    /// was queued (RFC 9002 §6.2 adapted to the sans-IO design).
    pub fn on_pto(&mut self) -> bool {
        if self.state == ConnectionState::Closed {
            return false;
        }
        if self.sent_finished.is_empty() {
            // Still waiting for (part of) the server's flight: repeat the
            // padded Initial[CRYPTO(CH)]; a deduplicating server answers a
            // repeated CH by re-sending its whole flight.
            self.push_initial_ch();
            return true;
        }
        if !self.handshake_done {
            // Our Finished — or the server's HANDSHAKE_DONE — was lost.
            let largest = self.space.largest_recv(Space::Handshake);
            let finished = &self.sent_finished;
            let mut out = self.tx.out();
            let sealed = self.space.with_frames(|space, frames| {
                Frame::encode_ack_single(frames, largest, 0);
                Frame::encode_crypto(frames, 0, finished);
                space.seal_long(out.buf(), Space::Handshake, b"", frames.as_slice(), 20)
            });
            out.end();
            return sealed;
        }
        false
    }

    /// Drains buffered telemetry events in occurrence order (empty when
    /// tracing is off).
    pub fn take_events(&mut self) -> Vec<telemetry::EventKind> {
        match &mut self.events {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// Records a telemetry event kind when tracing is enabled. The closure
    /// keeps construction (allocation) off the disabled path.
    fn note(&mut self, kind: impl FnOnce() -> telemetry::EventKind) {
        if let Some(buf) = &mut self.events {
            buf.push(kind());
        }
    }

    /// The version currently being attempted.
    pub fn version(&self) -> Version {
        self.space.version
    }

    /// Current state.
    pub fn state(&self) -> &ConnectionState {
        &self.state
    }

    /// Terminal outcome, if the connection is finished.
    pub fn outcome(&self) -> Option<&HandshakeOutcome> {
        self.outcome.as_ref()
    }

    /// The peer's decoded transport parameters (after the handshake).
    pub fn peer_transport_params(&self) -> Option<&TransportParameters> {
        self.peer_transport_params.as_ref()
    }

    /// The peer's TLS properties (after the handshake).
    pub fn tls_info(&self) -> Option<&PeerTlsInfo> {
        self.tls.peer_info()
    }

    /// True once HANDSHAKE_DONE was received.
    pub fn handshake_done(&self) -> bool {
        self.handshake_done
    }

    /// Drains datagrams to transmit, each as a vector of its own — the
    /// form the benchmark's fixtures call until ROADMAP item 11(b); drivers
    /// take them into their flight with
    /// [`ClientConnection::poll_transmit_into`].
    pub fn poll_transmit(&mut self) -> Vec<Vec<u8>> {
        self.tx.take_each()
    }

    /// Moves the datagrams to transmit to the end of a caller's batch, given
    /// as its two parts (`simnet::Datagrams::parts_mut`): their bytes are
    /// appended to `buf` and each one's end to `ends`.
    pub fn poll_transmit_into(&mut self, buf: &mut Vec<u8>, ends: &mut Vec<usize>) {
        self.tx.drain_into(&mut Out::new(buf, ends));
    }

    /// Drains received stream data (coalesced per stream).
    pub fn poll_streams(&mut self) -> Vec<StreamRecv> {
        let mut out: Vec<StreamRecv> = self.streams_rx.drain().map(|(_, v)| v).collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Opens a client-initiated bidirectional stream, returning its id.
    pub fn open_bidi_stream(&mut self) -> u64 {
        let id = self.next_bidi_stream;
        self.next_bidi_stream += 4;
        id
    }

    /// Opens a client-initiated unidirectional stream, returning its id.
    pub fn open_uni_stream(&mut self) -> u64 {
        let id = self.next_uni_stream;
        self.next_uni_stream += 4;
        id
    }

    /// Sends stream data from offset 0 in one 1-RTT packet (connection must
    /// be established).
    pub fn send_stream(&mut self, id: u64, data: &[u8], fin: bool) {
        assert!(
            self.state == ConnectionState::Established,
            "stream data requires an established connection"
        );
        let mut out = self.tx.out();
        self.space
            .with_frames(|space, frames| {
                Frame::encode_stream(frames, id, 0, fin, data);
                space.seal_short(out.buf(), frames.as_slice())
            })
            .expect("1-RTT keys installed");
        out.end();
    }

    /// Seals a pre-encoded frame payload as one 1-RTT packet onto `buf`,
    /// returning its packet number (`None`, with nothing sealed, unless the
    /// connection is established). This is the transmission primitive the
    /// `transfer` data plane builds on: it composes ACK, MAX_DATA,
    /// MAX_STREAM_DATA and STREAM frames itself and only needs packet
    /// protection (and the packet number) from the connection, and it seals
    /// each packet as one datagram at the tail of the flight it sends.
    pub fn seal_app_payload(&mut self, payload: &[u8], buf: &mut Vec<u8>) -> Option<u64> {
        if self.state != ConnectionState::Established {
            return None;
        }
        self.space.seal_short(buf, payload)
    }

    /// [`ClientConnection::seal_app_payload`] as one datagram queued for
    /// [`ClientConnection::poll_transmit_into`].
    pub fn send_app_payload(&mut self, payload: &[u8]) -> Option<u64> {
        if self.state != ConnectionState::Established {
            return None;
        }
        let mut out = self.tx.out();
        let pn = self.space.seal_short(out.buf(), payload);
        out.end();
        pn
    }

    fn close_with(&mut self, outcome: HandshakeOutcome) {
        if self.outcome.is_none() {
            self.outcome = Some(outcome);
        }
        if self.state != ConnectionState::Closed {
            self.note(|| telemetry::EventKind::HandshakePhase { phase: "closed" });
        }
        self.state = ConnectionState::Closed;
    }

    /// Queues a 1-RTT CONNECTION_CLOSE carrying `err` and closes — for an
    /// error found here (RFC 9000 §13.1) or by the data plane above
    /// (flow control, RFC 9000 §4.1).
    pub fn close_for(&mut self, err: ConnectionError) {
        // Only an established connection has anything to say; one still
        // handshaking just closes.
        if self.state == ConnectionState::Established {
            let mut out = self.tx.out();
            self.space
                .seal_close(out.buf(), Space::App, err.code, err.frame_type, err.reason);
            out.end();
        }
        self.close_with(HandshakeOutcome::ProtocolError(err.reason.to_string()));
    }

    /// Feeds one received datagram, opening its packets into a buffer of
    /// their own — the form the benchmark's fixtures call until ROADMAP item
    /// 11(b); drivers lend a reused one with
    /// [`ClientConnection::on_datagram_in`].
    pub fn on_datagram(&mut self, data: &[u8]) {
        self.on_datagram_in(data, &mut Vec::new());
    }

    /// Feeds one received datagram, opening each packet's payload into
    /// `payload`, a buffer the driver lends and reuses. The connection keeps
    /// the 1-RTT space: STREAM data is coalesced per stream
    /// ([`ClientConnection::poll_streams`]) and acknowledged here.
    pub fn on_datagram_in(&mut self, data: &[u8], payload: &mut Vec<u8>) {
        self.receive(data, payload, None);
    }

    /// [`ClientConnection::on_datagram_in`] for a connection whose 1-RTT
    /// space a data plane owns: each 1-RTT packet goes to `app` whole
    /// (packet number and frames, stream offsets intact) instead of to
    /// [`ClientConnection::poll_streams`], and the connection generates no
    /// ACK of the space — the data plane owns ACK-range generation. An
    /// error `app` returns closes the connection with it, and the packets
    /// after it go unread.
    pub fn on_datagram_with(
        &mut self,
        data: &[u8],
        payload: &mut Vec<u8>,
        app: &mut AppPackets<'_>,
    ) {
        self.receive(data, payload, Some(app));
    }

    fn receive(
        &mut self,
        data: &[u8],
        payload: &mut Vec<u8>,
        mut app: Option<&mut AppPackets<'_>>,
    ) {
        if self.state == ConnectionState::Closed {
            return;
        }
        // Retry packets have no length field (they consume the datagram) and
        // no packet protection; handle them before the generic decoder.
        if data.first().map(|b| b & 0xf0 == 0xf0).unwrap_or(false)
            && data.len() > 5
            && data[1..5] != [0, 0, 0, 0]
        {
            self.on_retry(data);
            self.flush();
            return;
        }
        // Decode incrementally: processing an Initial installs the keys the
        // coalesced Handshake packets in the same datagram need.
        // Undecryptable coalesced tails are ignored (e.g. 1-RTT data
        // arriving before keys are installed).
        let mut rest = data;
        while let Some(header) = self.space.open_next(&mut rest, payload) {
            self.on_packet(&header, payload, app.as_deref_mut());
            if self.state == ConnectionState::Closed {
                return;
            }
        }
        self.flush();
    }

    fn on_packet(&mut self, header: &Header<'_>, payload: &[u8], app: Option<&mut AppPackets<'_>>) {
        let pn = header.packet_number;
        match header.ty {
            PacketType::VersionNegotiation => self.on_version_negotiation(header),
            PacketType::Initial => {
                self.saw_server_packet = true;
                // RFC 9001 §4.2: the server's Initial SCID becomes our DCID.
                if let Some(scid) = header.scid {
                    self.space.peer_cid = ConnectionId(scid.to_vec());
                }
                self.note_recv(Space::Initial, pn);
                self.process_frames(Space::Initial, payload);
            }
            PacketType::Handshake => {
                self.note_recv(Space::Handshake, pn);
                self.process_frames(Space::Handshake, payload);
            }
            PacketType::OneRtt => self.on_app_packet(pn, payload, app),
            PacketType::ZeroRtt | PacketType::Retry => {
                // Never produced by our servers; ignore.
            }
        }
    }

    /// Handles an address-validation Retry (RFC 9000 §8.1.2): verify the
    /// integrity tag against our original DCID, adopt the server's new
    /// connection id and the Initial keys it implies, and resend the
    /// Initial with the token. The connection goes on: its packet numbers
    /// continue (RFC 9000 §17.2.5.3) and the Client Hello is the same.
    fn on_retry(&mut self, datagram: &[u8]) {
        if self.saw_server_packet || self.retry_seen {
            return; // only one Retry, only before other packets
        }
        let Some(retry) = crate::retry::decode_retry(datagram, &self.space.peer_cid) else {
            return; // bad tag: drop silently per RFC 9001 §5.8
        };
        if retry.version != self.space.version || retry.scid.is_empty() {
            return;
        }
        self.retry_seen = true;
        self.note(|| telemetry::EventKind::RetryReceived);
        self.retry_token = retry.token;
        self.tx.clear();
        self.space.install_initial(retry.scid.as_slice());
        self.space.peer_cid = retry.scid;
        self.note(|| telemetry::EventKind::KeyDerived { level: "initial" });
        self.push_initial_ch();
    }

    fn on_version_negotiation(&mut self, header: &Header<'_>) {
        if self.saw_server_packet {
            return; // VN after real packets must be ignored (RFC 9000 §6.2)
        }
        // A VN that does not echo our connection IDs answers some other
        // packet and is dropped (RFC 9000 §17.2.1).
        if header.dcid != self.space.local_cid.as_slice()
            || header.scid != Some(self.space.peer_cid.as_slice())
        {
            return;
        }
        let server_versions: Vec<Version> = header.supported_versions().collect();
        self.note(|| telemetry::EventKind::VersionNegotiation {
            server_versions: server_versions.iter().map(|v| v.label()).collect(),
        });
        // A VN listing the offered version is a protocol violation — and
        // exactly what the Google roll-out inconsistency looked like.
        if server_versions.contains(&self.space.version) {
            self.close_with(HandshakeOutcome::VersionMismatch {
                offered: self.config.versions.clone(),
                server_versions,
            });
            return;
        }
        let next = self
            .config
            .versions
            .iter()
            .find(|v| server_versions.contains(v))
            .copied();
        match next {
            Some(v) if !self.vn_restarted => {
                self.vn_restarted = true;
                self.tx.clear();
                self.start_attempt(v);
            }
            _ => {
                self.close_with(HandshakeOutcome::VersionMismatch {
                    offered: self.config.versions.clone(),
                    server_versions,
                });
            }
        }
    }

    fn note_recv(&mut self, space: Space, pn: u64) {
        self.space.note_recv(space, pn);
        self.ack_pending[space as usize] = true;
    }

    /// Parses `payload`, or closes the connection when it does not decode.
    fn decode_frames<'a>(&mut self, payload: &'a [u8]) -> Option<Frames<'a>> {
        let frames = Frames::parse(payload).ok();
        if frames.is_none() {
            self.close_with(HandshakeOutcome::ProtocolError("bad frame".into()));
        }
        frames
    }

    /// Handles an Initial or Handshake packet's frames: an ACK of a packet
    /// number the space never sent closes the connection (RFC 9000 §13.1),
    /// CRYPTO feeds TLS and CONNECTION_CLOSE ends the connection; nothing
    /// else there concerns the client.
    fn process_frames(&mut self, space: Space, payload: &[u8]) {
        let Some(frames) = self.decode_frames(payload) else {
            return;
        };
        if self.space.acks_unsent(space, &frames) {
            self.close_for(ConnectionError::ACK_OF_UNSENT);
            return;
        }
        for frame in frames {
            match frame {
                Frame::Crypto { offset, data } => {
                    // A retransmission of what TLS already has (`None`)
                    // needs nothing from the client.
                    match self.space.recv_crypto(space, offset, data) {
                        Some(ready) if !ready.is_empty() => self.on_crypto(space.level(), &ready),
                        _ => {}
                    }
                }
                Frame::ConnectionClose {
                    error_code, reason, ..
                } => {
                    self.close_with(transport_close(error_code, reason));
                    return;
                }
                _ => {}
            }
        }
    }

    /// Handles one 1-RTT packet. RFC 9000 §13.1 is checked against the
    /// connection's own counter (the keepalive PING a data plane sends is
    /// numbered here and recorded in no recovery ledger), then HANDSHAKE_DONE
    /// and CONNECTION_CLOSE are handled in wire order; a packet that closes
    /// the connection reaches no one. Otherwise a data plane (`app`) takes
    /// it whole and acknowledges it itself; without one, its STREAM data is
    /// coalesced per stream and the connection acknowledges it.
    fn on_app_packet(&mut self, pn: u64, payload: &[u8], app: Option<&mut AppPackets<'_>>) {
        let Some(frames) = self.decode_frames(payload) else {
            return;
        };
        if self.space.acks_unsent(Space::App, &frames) {
            self.close_for(ConnectionError::ACK_OF_UNSENT);
            return;
        }
        for frame in frames {
            match frame {
                Frame::HandshakeDone => self.handshake_done = true,
                Frame::ConnectionClose {
                    error_code, reason, ..
                } => {
                    self.close_with(transport_close(error_code, reason));
                    return;
                }
                _ => {}
            }
        }
        if let Some(app) = app {
            if let Err(err) = app(pn, frames) {
                self.close_for(err);
            }
            return;
        }
        self.note_recv(Space::App, pn);
        for frame in frames {
            if let Frame::Stream { id, fin, data, .. } = frame {
                let entry = self.streams_rx.entry(id).or_insert(StreamRecv {
                    id,
                    data: Vec::new(),
                    fin: false,
                });
                entry.data.extend_from_slice(data);
                entry.fin |= fin;
            }
        }
    }

    fn on_crypto(&mut self, level: Level, data: &[u8]) {
        let events = match self.tls.on_handshake_data(level, data) {
            Ok(ev) => ev,
            Err(TlsError::PeerAlert(code)) => {
                self.close_with(HandshakeOutcome::TransportClose {
                    code: TransportError::crypto(code),
                    reason: "peer alert".into(),
                });
                return;
            }
            Err(e) => {
                self.close_with(HandshakeOutcome::TlsFailure(e.to_string()));
                return;
            }
        };
        let cipher = self.tls.negotiated_cipher();
        for ev in events {
            if let Some(level) = self.space.install(cipher, &ev) {
                self.note(|| telemetry::EventKind::KeyDerived { level });
                continue;
            }
            match ev {
                TlsEvent::SendHandshake(lvl, bytes) => {
                    self.crypto_tx_pending.push((lvl, bytes));
                }
                TlsEvent::HandshakeKeys(_) | TlsEvent::AppKeys(_) => {} // installed above
                TlsEvent::Complete => {
                    self.state = ConnectionState::Established;
                    self.note(|| telemetry::EventKind::HandshakePhase {
                        phase: "established",
                    });
                    self.outcome = Some(HandshakeOutcome::Established);
                    if let Some(info) = self.tls.peer_info() {
                        if let Some(tp) = &info.quic_transport_params {
                            self.peer_transport_params = TransportParameters::decode(tp).ok();
                        }
                    }
                }
            }
        }
    }

    /// Builds outgoing datagrams: pending CRYPTO, then ACKs per space.
    /// Packets are sealed directly into one datagram buffer, which
    /// coalesces the Initial-ACK + Handshake(Finished) + 1-RTT ACK flight.
    fn flush(&mut self) {
        let mut out = self.tx.out();

        // ACK in Initial space (the server waits for this to stop
        // retransmitting; we always ack once we've seen anything).
        if self.ack_pending[Space::Initial as usize] {
            let largest = self.space.largest_recv(Space::Initial);
            if self.space.with_frames(|space, frames| {
                Frame::encode_ack_single(frames, largest, 0);
                space.seal_long(out.buf(), Space::Initial, b"", frames.as_slice(), 20)
            }) {
                self.ack_pending[Space::Initial as usize] = false;
            }
        }

        // Handshake space: client Finished plus ACK.
        let pending = std::mem::take(&mut self.crypto_tx_pending);
        let ack = std::mem::take(&mut self.ack_pending[Space::Handshake as usize])
            .then(|| self.space.largest_recv(Space::Handshake));
        let sent_finished = &mut self.sent_finished;
        self.space.with_frames(|space, frames| {
            if let Some(largest) = ack {
                Frame::encode_ack_single(frames, largest, 0);
            }
            for (lvl, bytes) in pending {
                if lvl == Level::Handshake {
                    sent_finished.extend_from_slice(&bytes);
                    Frame::encode_crypto(frames, 0, &bytes);
                }
            }
            if !frames.is_empty() {
                space.seal_long(out.buf(), Space::Handshake, b"", frames.as_slice(), 20);
            }
        });

        // App space ACK.
        if self.ack_pending[Space::App as usize] {
            let largest = self.space.largest_recv(Space::App);
            if self.space.with_frames(|space, frames| {
                Frame::encode_ack_single(frames, largest, 0);
                space.seal_short(out.buf(), frames.as_slice()).is_some()
            }) {
                self.ack_pending[Space::App as usize] = false;
            }
        }
        out.end();
    }
}

/// The outcome a peer's CONNECTION_CLOSE gives a connection: its code and
/// its reason phrase, read as UTF-8 with anything else replaced.
fn transport_close(error_code: u64, reason: &[u8]) -> HandshakeOutcome {
    HandshakeOutcome::TransportClose {
        code: TransportError(error_code),
        reason: String::from_utf8_lossy(reason).into_owned(),
    }
}

#[cfg(test)]
mod tests {
    //! RFC 9000 §13.1 on both sides of an established connection, whoever
    //! serves its 1-RTT space (a session or a stream handler at the server,
    //! a data plane or the connection itself at the client): an ACK for a
    //! packet number the space has not used closes the connection with
    //! PROTOCOL_VIOLATION and reaches neither the server's application nor
    //! the client's.

    use super::*;
    use crate::keys::PacketKeys;
    use crate::packet::{decode_first, KeySource};
    use crate::server::{AppSession, Endpoint, EndpointConfig, Seal, StreamHandler, StreamSend};
    use qcodec::Writer;
    use std::sync::{Arc, Mutex};

    /// What the server's session saw — each packet's frames, encoded again
    /// — and how it answers a PING in client packet `p`: with a PING of its
    /// own, or an ACK of `[0, p + ahead]`.
    #[derive(Default)]
    struct Script {
        seen: Vec<Vec<u8>>,
        /// Refuse every packet carrying STREAM data, as a data plane does
        /// data past its flow-control limits.
        refuse_streams: bool,
        ack_ahead: Option<u64>,
    }

    struct Scripted(Arc<Mutex<Script>>);

    impl AppSession for Scripted {
        fn on_app_packet(
            &mut self,
            pn: u64,
            frames: Frames<'_>,
            seal: &mut Seal<'_>,
        ) -> Result<(), ConnectionError> {
            let mut script = self.0.lock().expect("no test panicked holding it");
            script.seen.push(encoded(frames));
            let stream = frames.iter().any(|f| matches!(f, Frame::Stream { .. }));
            if script.refuse_streams && stream {
                return Err(ConnectionError::FLOW_CONTROL);
            }
            if !frames.iter().any(|f| f == Frame::Ping) {
                return Ok(());
            }
            let reply = match script.ack_ahead {
                Some(ahead) => ack_up_to((pn + ahead).min((1 << 62) - 1)),
                None => payload_of(&Frame::Ping),
            };
            seal(&reply);
            Ok(())
        }
    }

    /// Echoes stream data back on its stream, recording each call in the
    /// script as a one-frame packet.
    struct Echo(Arc<Mutex<Script>>);

    impl StreamHandler for Echo {
        fn on_stream_data(&mut self, id: u64, data: &[u8], fin: bool) -> Vec<StreamSend> {
            self.0
                .lock()
                .expect("no test panicked holding it")
                .seen
                .push(stream_payload(id, data, fin));
            vec![StreamSend {
                id,
                data: data.to_vec(),
                fin,
            }]
        }
    }

    fn encoded(frames: Frames<'_>) -> Vec<u8> {
        let mut w = Writer::new();
        for f in frames {
            f.encode(&mut w);
        }
        w.into_vec()
    }

    fn stream_payload(id: u64, data: &[u8], fin: bool) -> Vec<u8> {
        let mut w = Writer::new();
        Frame::encode_stream(&mut w, id, 0, fin, data);
        w.into_vec()
    }

    /// Opens what the client itself sealed (packet protection is symmetric).
    struct SealKeys<'a>(&'a PacketKeys);

    impl KeySource for SealKeys<'_> {
        fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
            (ty == PacketType::OneRtt).then_some(self.0)
        }
    }

    fn ack_up_to(largest: u64) -> Vec<u8> {
        let mut w = Writer::new();
        Frame::encode_ack(&mut w, 0, [(0, largest)].into_iter());
        w.into_vec()
    }

    fn payload_of(frame: &Frame<'_>) -> Vec<u8> {
        let mut w = Writer::new();
        frame.encode(&mut w);
        w.into_vec()
    }

    /// A client connection and, when a data plane owns its 1-RTT space,
    /// the packets that data plane was handed: packet number and frames,
    /// encoded again.
    struct Client {
        conn: ClientConnection,
        data_plane: bool,
        delivered: Vec<(u64, Vec<u8>)>,
    }

    impl Client {
        /// Delivers the client's queued datagrams and the replies; returns
        /// the replies.
        fn exchange(&mut self, server: &mut Endpoint) -> Vec<Vec<u8>> {
            let mut replies = Vec::new();
            for datagram in self.conn.poll_transmit() {
                replies.extend(server.handle_datagram(0xbeef, &datagram));
            }
            let mut payload = Vec::new();
            for reply in &replies {
                if self.data_plane {
                    let delivered = &mut self.delivered;
                    self.conn
                        .on_datagram_with(reply, &mut payload, &mut |pn, frames| {
                            delivered.push((pn, encoded(frames)));
                            Ok(())
                        });
                } else {
                    self.conn.on_datagram_in(reply, &mut payload);
                }
            }
            replies
        }
    }

    fn endpoint_config() -> EndpointConfig {
        let ca = qtls::cert::CertificateAuthority::new("Test CA", 1);
        let cert = ca.issue(1, "example.com", vec![], 0, 99, [9; 32]);
        EndpointConfig::new(Arc::new(qtls::ServerConfig {
            alpn: vec![b"h3".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        }))
    }

    /// An endpoint whose connections run the [`Scripted`] session.
    fn session_server(script: &Arc<Mutex<Script>>) -> Endpoint {
        let script = Arc::clone(script);
        Endpoint::with_sessions(
            endpoint_config(),
            7,
            Box::new(move || Box::new(Scripted(Arc::clone(&script)))),
        )
    }

    /// An endpoint whose connections the [`Echo`] handler serves.
    fn handler_server(script: &Arc<Mutex<Script>>) -> Endpoint {
        let script = Arc::clone(script);
        Endpoint::new(
            endpoint_config(),
            7,
            Box::new(move || Box::new(Echo(Arc::clone(&script)))),
        )
    }

    /// Completes a handshake with `server`; `data_plane` hands the client's
    /// 1-RTT space to a data plane.
    fn established(mut server: Endpoint, data_plane: bool) -> (Client, Endpoint) {
        let client_config = ClientConfig {
            versions: vec![Version::V1],
            tls: qtls::ClientConfig {
                server_name: Some("example.com".to_string()),
                alpn: vec![b"h3".to_vec()],
                ..qtls::ClientConfig::default()
            },
            ..ClientConfig::default()
        };
        let mut client = Client {
            conn: ClientConnection::new(client_config, 11),
            data_plane: false,
            delivered: Vec::new(),
        };
        while !client.conn.handshake_done() {
            assert!(
                !client.exchange(&mut server).is_empty(),
                "handshake stalled"
            );
        }
        client.data_plane = data_plane;
        client.exchange(&mut server);
        (client, server)
    }

    fn close_code(payload: &[u8]) -> Option<(u64, Option<u64>)> {
        Frame::decode_all(payload)
            .expect("decodes")
            .into_iter()
            .find_map(|f| match f {
                Frame::ConnectionClose {
                    error_code,
                    frame_type,
                    is_app: false,
                    ..
                } => Some((error_code, frame_type)),
                _ => None,
            })
    }

    #[test]
    fn server_closes_on_an_ack_for_a_packet_it_never_sent() {
        // One past the server's last packet, and the six-byte frame that
        // used to make a sender walk 2⁶² packet numbers, at a session-served
        // endpoint; then one past it at a handler-served one.
        for (handler, forged) in [(false, None), (false, Some((1u64 << 62) - 1)), (true, None)] {
            let script = Arc::new(Mutex::new(Script::default()));
            let server = if handler {
                handler_server(&script)
            } else {
                session_server(&script)
            };
            let (mut client, mut server) = established(server, true);
            // (A session already saw the handshake's trailing 1-RTT ACK.)
            let before = script.lock().unwrap().seen.len();
            let seen = |n: usize| assert_eq!(script.lock().unwrap().seen.len(), before + n);
            // A PING draws a session's PING, stream data the handler's
            // echo: the server's 1-RTT space advances.
            let poke = if handler {
                stream_payload(0, b"poke", false)
            } else {
                payload_of(&Frame::Ping)
            };
            client.conn.send_app_payload(&poke).expect("established");
            client.exchange(&mut server);
            let last = client.delivered.last().expect("server answered").0;
            seen(1);

            // Exactly `next_pn − 1` is the newest packet it sent: accepted.
            // A session sees the ACK; a handler sees stream data only.
            let acks_seen = usize::from(!handler);
            client
                .conn
                .send_app_payload(&ack_up_to(last))
                .expect("established");
            assert!(client.exchange(&mut server).is_empty());
            seen(1 + acks_seen);
            if !handler {
                assert_eq!(script.lock().unwrap().seen.last(), Some(&ack_up_to(last)));
            }

            client
                .conn
                .send_app_payload(&ack_up_to(forged.unwrap_or(last + 1)))
                .expect("established");
            let forged_datagram = client.conn.tx.last().expect("queued").to_vec();
            let replies = client.exchange(&mut server);
            seen(1 + acks_seen); // nothing of the packet reached the application
            assert_eq!(replies.len(), 1);
            let space = &client.conn.space;
            let (pkt, _) = decode_first(&replies[0], space.local_cid.len(), space)
                .expect("1-RTT close opens with the client's keys");
            assert_eq!(
                close_code(&pkt.payload),
                Some((TransportError::PROTOCOL_VIOLATION.0, Some(0x02)))
            );
            assert_eq!(client.conn.state(), &ConnectionState::Closed);
            // Draining: later packets get the same close, not the
            // application.
            assert_eq!(server.handle_datagram(0xbeef, &forged_datagram), replies);
            seen(1 + acks_seen);
        }
    }

    #[test]
    fn client_closes_on_an_ack_for_a_packet_it_never_sent() {
        // One past the client's last packet and far past it at a client
        // whose 1-RTT space a data plane owns; then one past it at a client
        // that never handed the space over.
        for (data_plane, ahead) in [(true, 1), (true, u64::MAX >> 2), (false, 1)] {
            let script = Arc::new(Mutex::new(Script::default()));
            let (mut client, mut server) = established(session_server(&script), data_plane);
            // The server acknowledges exactly the PING's packet — the
            // keepalive case: numbered here, in no recovery ledger.
            script.lock().unwrap().ack_ahead = Some(0);
            let pn = client
                .conn
                .send_app_payload(&payload_of(&Frame::Ping))
                .expect("established");
            assert_eq!(pn + 1, client.conn.space.next_pn(Space::App));
            client.exchange(&mut server);
            let delivered: Vec<Vec<u8>> = std::mem::take(&mut client.delivered)
                .into_iter()
                .map(|(_, frames)| frames)
                .collect();
            let expected = if data_plane {
                vec![ack_up_to(pn)]
            } else {
                Vec::new()
            };
            assert_eq!(delivered, expected);
            assert_eq!(client.conn.state(), &ConnectionState::Established);

            script.lock().unwrap().ack_ahead = Some(ahead);
            let ping = payload_of(&Frame::Ping);
            client.conn.send_app_payload(&ping).expect("established");
            let ping_datagram = client.conn.tx.last().expect("queued").to_vec();
            client.exchange(&mut server);
            assert!(
                client.delivered.is_empty(),
                "nothing reaches the data plane"
            );
            assert_eq!(client.conn.state(), &ConnectionState::Closed);
            assert_eq!(client.conn.send_app_payload(&ping), None);

            let close = client.conn.poll_transmit();
            assert_eq!(close.len(), 1);
            let keys = SealKeys(client.conn.space.seal_keys(Space::App).expect("1-RTT keys"));
            let (pkt, _) = decode_first(&close[0], client.conn.space.peer_cid.len(), &keys)
                .expect("own packet");
            assert_eq!(
                close_code(&pkt.payload),
                Some((TransportError::PROTOCOL_VIOLATION.0, Some(0x02)))
            );
            // The server takes the close and goes quiet.
            let seen = script.lock().unwrap().seen.len();
            assert!(server.handle_datagram(0xbeef, &close[0]).is_empty());
            assert!(server.handle_datagram(0xbeef, &ping_datagram).is_empty());
            assert_eq!(script.lock().unwrap().seen.len(), seen);
        }
    }

    /// A connection error either data plane reports goes out as the close
    /// it names: the server's session returns it to the endpoint, the
    /// client's data plane to [`ClientConnection::on_datagram_with`], and
    /// [`ClientConnection::close_for`] takes one directly.
    #[test]
    fn data_plane_errors_close_with_their_own_code() {
        let flow_control = Some((TransportError::FLOW_CONTROL_ERROR.0, Some(0x08)));
        let script = Arc::new(Mutex::new(Script {
            refuse_streams: true,
            ..Script::default()
        }));
        let (mut client, mut server) = established(session_server(&script), true);
        client
            .conn
            .send_app_payload(&stream_payload(0, b"past the limit", false))
            .expect("established");
        let replies = client.exchange(&mut server);
        assert_eq!(replies.len(), 1);
        let space = &client.conn.space;
        let (pkt, _) = decode_first(&replies[0], space.local_cid.len(), space)
            .expect("1-RTT close opens with the client's keys");
        assert_eq!(close_code(&pkt.payload), flow_control);
        assert_eq!(client.conn.state(), &ConnectionState::Closed);

        for refused_by_the_data_plane in [false, true] {
            let (mut client, mut server) = established(session_server(&script), true);
            if refused_by_the_data_plane {
                // A PING draws the session's PING, which the client's data
                // plane refuses.
                script.lock().unwrap().refuse_streams = false;
                client
                    .conn
                    .send_app_payload(&payload_of(&Frame::Ping))
                    .expect("established");
                for datagram in client.conn.poll_transmit() {
                    for reply in server.handle_datagram(0xbeef, &datagram) {
                        client
                            .conn
                            .on_datagram_with(&reply, &mut Vec::new(), &mut |_, _| {
                                Err(ConnectionError::FLOW_CONTROL)
                            });
                    }
                }
            } else {
                client.conn.close_for(ConnectionError::FLOW_CONTROL);
            }
            assert_eq!(client.conn.state(), &ConnectionState::Closed);
            let close = client.conn.poll_transmit();
            assert_eq!(close.len(), 1);
            let keys = SealKeys(client.conn.space.seal_keys(Space::App).expect("1-RTT keys"));
            let (pkt, _) = decode_first(&close[0], client.conn.space.peer_cid.len(), &keys)
                .expect("own packet");
            assert_eq!(close_code(&pkt.payload), flow_control);
        }
    }
}
