//! Hostile peers for the scanners, in test code only: a seeded QUIC
//! [`UdpService`] with one [`Misbehaviour`] each, and a DNS resolver and a
//! TLS-over-TCP host that [`Garble`] what they send.
//!
//! The QUIC peer runs a real [`Endpoint`] and mangles what it sends, or
//! crafts packets of its own. It derives the client's Initial keys from the
//! DCID of the packet it answers (RFC 9001 §5.2), so what it seals gets past
//! the AEAD and reaches the frame decoder, CRYPTO reassembly and the TLS
//! client. Every draw comes from the peer's own seeded generator, and a
//! peer serves one target, so its replies depend only on what that target's
//! scan sends it — never on which worker ran the scan.

use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use dns::rr::{RData, Record};
use dns::wire::{Message, Rcode};
use internet::servers::{H3App, HttpProfile, HttpsTcpHost};
use qcodec::{Reader, Writer};
use quic::keys::{initial_keys, PacketKeys};
use quic::packet::{decode_first, encode_version_negotiation, seal_long, KeySource};
use quic::{ConnectionId, Endpoint, EndpointConfig, Frame, PacketType};
use quic::{StreamHandler, StreamSend, Version};
use simnet::addr::Ipv4Addr;
use simnet::{ServiceCtx, SocketAddr, TcpAction, TcpFactory, TcpHandler, UdpService};

thread_local!(static IN_PEER: Cell<bool> = const { Cell::new(false) });

/// True while a peer on this thread is working out its answer, so an
/// allocation counter can leave the peer's own work out.
pub fn in_peer() -> bool {
    IN_PEER.try_with(Cell::get).unwrap_or(false)
}

/// Runs a peer's side of an exchange.
fn as_peer<T>(f: impl FnOnce() -> T) -> T {
    IN_PEER.with(|p| p.set(true));
    let out = f();
    IN_PEER.with(|p| p.set(false));
    out
}

/// How a QUIC peer misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehaviour {
    /// Each real datagram cut short.
    Truncated,
    /// A 64 KiB Initial whose CRYPTO frame carries random bytes.
    Oversized,
    /// A few bits of each real datagram flipped; in an Initial, in the
    /// plaintext, resealed, so the flips reach the frames.
    BitFlipped,
    /// The real Initial's frames sealed as a Handshake packet, after an
    /// Initial of frames only the 1-RTT space may carry.
    WrongLevel,
    /// Each real datagram sent twice, and the previous answer again.
    Replayed,
    /// 255 more datagrams, copies and random bytes, per datagram received.
    Flood,
    /// Random bytes coalesced after each real datagram.
    CoalescedGarbage,
    /// A Version Negotiation listing no version.
    VnNoVersions,
    /// A Version Negotiation listing 255 random versions.
    VnManyVersions,
    /// A Version Negotiation, listing versions the client offers, whose
    /// connection IDs do not echo the packet's.
    VnNoEcho,
    /// A valid Retry for every Initial.
    RetryEvery,
    /// An Initial acknowledging a packet number never sent, before the
    /// real flight.
    AckUnsent,
    /// Stream data past the client's flow-control limits.
    FlowControlLie,
}

impl Misbehaviour {
    pub const ALL: [Misbehaviour; 13] = [
        Misbehaviour::Truncated,
        Misbehaviour::Oversized,
        Misbehaviour::BitFlipped,
        Misbehaviour::WrongLevel,
        Misbehaviour::Replayed,
        Misbehaviour::Flood,
        Misbehaviour::CoalescedGarbage,
        Misbehaviour::VnNoVersions,
        Misbehaviour::VnManyVersions,
        Misbehaviour::VnNoEcho,
        Misbehaviour::RetryEvery,
        Misbehaviour::AckUnsent,
        Misbehaviour::FlowControlLie,
    ];
}

/// Datagrams a flooding peer sends per datagram received.
pub const FLOOD: usize = 256;

/// Size of the oversized Initial's CRYPTO data.
pub const OVERSIZED: usize = 64 * 1024;

/// Bytes of the lying peer's answer on the request stream: past the
/// client's 256 KiB per-stream limit.
pub const LIE_BYTES: usize = 300_000;

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn flip_bits(rng: &mut StdRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..rng.gen_range(1..=3u8) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8u8);
    }
}

/// A long header's version, DCID and SCID; `None` for a short header or a
/// cut one.
fn long_header(datagram: &[u8]) -> Option<(Version, &[u8], &[u8])> {
    let mut r = Reader::new(datagram);
    if r.read_u8().ok()? & 0x80 == 0 {
        return None;
    }
    let version = Version(r.read_u32().ok()?);
    Some((version, r.read_vec8().ok()?, r.read_vec8().ok()?))
}

/// The server's Initial keys, for the packet type the peer unseals.
struct ServerInitial(PacketKeys);

impl KeySource for ServerInitial {
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
        (ty == PacketType::Initial).then_some(&self.0)
    }
}

/// `datagram` with its leading Initial unsealed, its plaintext passed
/// through `edit` and sealed again as a `ty` packet under the same keys;
/// the rest of the datagram follows unchanged. `None` when the datagram
/// does not start with an Initial the peer can unseal.
fn reseal(
    datagram: &[u8],
    version: Version,
    keys: &ServerInitial,
    ty: PacketType,
    edit: impl FnOnce(&mut Vec<u8>),
) -> Option<Vec<u8>> {
    let (mut pkt, used) = decode_first(datagram, 0, keys).ok()?;
    if pkt.ty != PacketType::Initial {
        return None;
    }
    edit(&mut pkt.payload);
    let scid = pkt.scid.unwrap_or_else(ConnectionId::empty);
    let (pn, payload) = (pkt.packet_number, &pkt.payload);
    let mut out = seal_long(
        ty, version, &pkt.dcid, &scid, &pkt.token, pn, payload, &keys.0, 0,
    );
    out.extend_from_slice(&datagram[used..]);
    Some(out)
}

/// Answers every request with a body past the client's stream limit, and
/// sends on a server-initiated stream the client never allowed.
struct Liar;

impl StreamHandler for Liar {
    fn on_connected(&mut self) -> Vec<StreamSend> {
        vec![StreamSend {
            id: 4 * 1_000 + 1,
            data: vec![0x2a; 1_000],
            fin: true,
        }]
    }

    fn on_stream_data(&mut self, id: u64, _: &[u8], fin: bool) -> Vec<StreamSend> {
        if !id.is_multiple_of(4) || !fin {
            return Vec::new();
        }
        let data = h3::request::encode_response(200, &[], &vec![0x2a; LIE_BYTES]);
        vec![StreamSend {
            id,
            data,
            fin: true,
        }]
    }
}

/// A QUIC peer at one address.
pub struct ChaosPeer {
    kind: Misbehaviour,
    rng: StdRng,
    endpoint: Endpoint,
    /// The SCID of every packet the peer seals itself.
    cid: [u8; 8],
    next_pn: u64,
    /// The previous answer, for [`Misbehaviour::Replayed`].
    last: Vec<Vec<u8>>,
}

impl ChaosPeer {
    pub fn new(kind: Misbehaviour, seed: u64) -> Self {
        let ca = qtls::CertificateAuthority::new("Chaos CA", seed);
        let cert = ca.issue(1, "chaos.example", vec![], 0, 99, [7; 32]);
        let tls = Arc::new(qtls::ServerConfig::single_cert(cert));
        let profile = Arc::new(HttpProfile {
            server_header: "chaos".into(),
            alt_svc: None,
            extra_headers: Vec::new(),
        });
        let app: Box<dyn Fn() -> Box<dyn StreamHandler> + Send> = match kind {
            Misbehaviour::FlowControlLie => Box::new(|| Box::new(Liar)),
            _ => Box::new(move || Box::new(H3App::new(profile.clone()))),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let cid = rng.gen::<u64>().to_be_bytes();
        ChaosPeer {
            kind,
            rng,
            endpoint: Endpoint::new(EndpointConfig::new(tls), seed, app),
            cid,
            next_pn: 0,
            last: Vec::new(),
        }
    }

    /// An Initial answering a client packet with `version`, `dcid` and
    /// `scid`, sealed with the server keys `dcid` derives.
    fn seal_initial(
        &mut self,
        version: Version,
        dcid: &[u8],
        scid: &[u8],
        payload: &[u8],
    ) -> Vec<u8> {
        let (_, server) = initial_keys(version, dcid);
        self.next_pn += 1;
        let (to, from) = (ConnectionId::new(scid), ConnectionId::new(&self.cid));
        seal_long(
            PacketType::Initial,
            version,
            &to,
            &from,
            b"",
            self.next_pn,
            payload,
            &server,
            0,
        )
    }

    /// Flips bits of a real datagram answering a client packet with
    /// `version` and `dcid`: in the plaintext of a leading Initial the
    /// peer can unseal (then resealed), anywhere otherwise.
    fn flip(&mut self, version: Version, dcid: &[u8], mut datagram: Vec<u8>) -> Vec<u8> {
        let keys = ServerInitial(initial_keys(version, dcid).1);
        let rng = &mut self.rng;
        let resealed = reseal(&datagram, version, &keys, PacketType::Initial, |p| {
            flip_bits(rng, p)
        });
        resealed.unwrap_or_else(|| {
            flip_bits(&mut self.rng, &mut datagram);
            datagram
        })
    }

    /// The real flight with its Initial's frames moved to a Handshake
    /// packet, behind an Initial of 1-RTT-only frames.
    fn wrong_level(
        &mut self,
        version: Version,
        dcid: &[u8],
        scid: &[u8],
        real: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let mut frames = Writer::new();
        Frame::HandshakeDone.encode(&mut frames);
        Frame::encode_stream(&mut frames, 0, 0, true, b"\x01\x00");
        Frame::MaxData(u64::MAX >> 2).encode(&mut frames);
        let mut out = vec![self.seal_initial(version, dcid, scid, frames.as_slice())];
        let keys = ServerInitial(initial_keys(version, dcid).1);
        out.extend(real.into_iter().map(|datagram| {
            reseal(&datagram, version, &keys, PacketType::Handshake, |_| ()).unwrap_or(datagram)
        }));
        out
    }

    fn answer(&mut self, from: SocketAddr, datagram: &[u8]) -> Vec<Vec<u8>> {
        let from_key = (from.ip.as_u128() << 16) | u128::from(from.port);
        let Some((version, dcid, scid)) = long_header(datagram) else {
            return self.endpoint.handle_datagram(from_key, datagram);
        };
        let echo = |versions: &[Version]| {
            encode_version_negotiation(&ConnectionId::new(scid), &ConnectionId::new(dcid), versions)
        };
        match self.kind {
            Misbehaviour::VnNoVersions => return vec![echo(&[])],
            Misbehaviour::VnManyVersions => {
                let versions: Vec<Version> = (0..255).map(|_| Version(self.rng.gen())).collect();
                return vec![echo(&versions)];
            }
            Misbehaviour::VnNoEcho => {
                let offered = [Version::DRAFT_32, Version::DRAFT_29];
                let (to, from) = (ConnectionId::new(dcid), ConnectionId::new(scid));
                return vec![encode_version_negotiation(&to, &from, &offered)];
            }
            Misbehaviour::RetryEvery => {
                let token = random_bytes(&mut self.rng, 16);
                let (to, odcid) = (ConnectionId::new(scid), ConnectionId::new(dcid));
                let new_cid = ConnectionId::new(&random_bytes(&mut self.rng, 8));
                return vec![quic::retry::encode_retry(
                    version, &to, &new_cid, &odcid, &token,
                )];
            }
            Misbehaviour::Oversized => {
                let mut crypto = Writer::new();
                Frame::encode_crypto(&mut crypto, 0, &random_bytes(&mut self.rng, OVERSIZED));
                return vec![self.seal_initial(version, dcid, scid, crypto.as_slice())];
            }
            _ => {}
        }
        let (dcid, scid) = (dcid.to_vec(), scid.to_vec());
        let real = self.endpoint.handle_datagram(from_key, datagram);
        match self.kind {
            Misbehaviour::Truncated => real
                .into_iter()
                .map(|mut d| {
                    d.truncate(self.rng.gen_range(1..d.len().max(2)));
                    d
                })
                .collect(),
            Misbehaviour::BitFlipped => real
                .into_iter()
                .map(|d| self.flip(version, &dcid, d))
                .collect(),
            Misbehaviour::WrongLevel => self.wrong_level(version, &dcid, &scid, real),
            Misbehaviour::Replayed => {
                let mut out = std::mem::replace(&mut self.last, real.clone());
                out.extend(real.iter().cloned());
                out.extend(real);
                out
            }
            Misbehaviour::Flood => {
                let mut out = real.clone();
                while out.len() < FLOOD {
                    match real.get(out.len() % (real.len() + 1)) {
                        Some(copy) => out.push(copy.clone()),
                        None => out.push(random_bytes(&mut self.rng, 1200)),
                    }
                }
                out
            }
            Misbehaviour::CoalescedGarbage => real
                .into_iter()
                .map(|mut d| {
                    let len = self.rng.gen_range(1..=1200);
                    d.extend(random_bytes(&mut self.rng, len));
                    d
                })
                .collect(),
            Misbehaviour::AckUnsent => {
                let mut ack = Writer::new();
                Frame::encode_ack_single(&mut ack, 1 << 40, 0);
                let mut out = vec![self.seal_initial(version, &dcid, &scid, ack.as_slice())];
                out.extend(real);
                out
            }
            _ => real,
        }
    }
}

impl UdpService for ChaosPeer {
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: SocketAddr, datagram: &[u8]) {
        for reply in as_peer(|| self.answer(from, datagram)) {
            ctx.reply(reply);
        }
    }
}

/// How a DNS resolver or a TLS host garbles what it would have sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Garble {
    /// Cut short.
    Truncated,
    /// Followed by 64 KiB of random bytes; a DNS answer also claims
    /// 65,535 records, a TLS flight a 64 KiB record.
    Oversized,
    /// A few bits flipped.
    BitFlipped,
    /// Sent 255 more times (DNS: after 255 random datagrams).
    Flood,
    /// Replaced by as many random bytes.
    Garbage,
}

impl Garble {
    pub const ALL: [Garble; 5] = [
        Garble::Truncated,
        Garble::Oversized,
        Garble::BitFlipped,
        Garble::Flood,
        Garble::Garbage,
    ];

    /// `bytes` garbled, as the datagrams or segments to send in order.
    fn apply(self, rng: &mut StdRng, mut bytes: Vec<u8>, oversized_header: &[u8]) -> Vec<Vec<u8>> {
        match self {
            Garble::Truncated => {
                bytes.truncate(rng.gen_range(0..bytes.len().max(1)));
                vec![bytes]
            }
            Garble::Oversized => {
                bytes.extend_from_slice(oversized_header);
                bytes.extend(random_bytes(rng, OVERSIZED));
                vec![bytes]
            }
            Garble::BitFlipped => {
                flip_bits(rng, &mut bytes);
                vec![bytes]
            }
            Garble::Flood => vec![bytes; FLOOD],
            Garble::Garbage => vec![random_bytes(rng, bytes.len())],
        }
    }
}

/// A DNS resolver that answers every query for A records with one record,
/// garbled.
pub struct ChaosResolver {
    kind: Garble,
    rng: StdRng,
}

impl ChaosResolver {
    pub fn new(kind: Garble, seed: u64) -> Self {
        ChaosResolver {
            kind,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn answer(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        let Ok(query) = Message::decode(datagram) else {
            return Vec::new();
        };
        let name = query.questions.first().map_or("", |q| q.name.as_str());
        let record = Record::new(name, RData::A(Ipv4Addr::new(198, 51, 100, 7)));
        let mut valid = Message::response_to(&query, Rcode::NoError, vec![record]).encode();
        if self.kind == Garble::Oversized {
            valid[6..8].copy_from_slice(&[0xff, 0xff]);
        }
        let mut replies = self.kind.apply(&mut self.rng, valid, &[]);
        if self.kind == Garble::Flood {
            let garbage = (1..FLOOD).map(|_| random_bytes(&mut self.rng, 512));
            replies = garbage.chain(replies.into_iter().take(1)).collect();
        }
        replies
    }
}

impl UdpService for ChaosResolver {
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, _: SocketAddr, datagram: &[u8]) {
        for reply in as_peer(|| self.answer(datagram)) {
            ctx.reply(reply);
        }
    }
}

/// A TLS-over-TCP HTTPS host whose every write is garbled.
pub struct ChaosTlsHost {
    kind: Garble,
    seed: u64,
    inner: HttpsTcpHost,
}

impl ChaosTlsHost {
    pub fn new(kind: Garble, seed: u64) -> Self {
        let ca = qtls::CertificateAuthority::new("Chaos CA", seed);
        let cert = ca.issue(1, "chaos.example", vec![], 0, 99, [7; 32]);
        let tls = Arc::new(qtls::ServerConfig {
            alpn: vec![b"http/1.1".to_vec()],
            ..qtls::ServerConfig::single_cert(cert)
        });
        let profile = HttpProfile {
            server_header: "chaos".into(),
            alt_svc: None,
            extra_headers: Vec::new(),
        };
        ChaosTlsHost {
            kind,
            seed,
            inner: HttpsTcpHost::new(tls, profile, seed),
        }
    }
}

impl TcpFactory for ChaosTlsHost {
    fn accept(&self, from: SocketAddr) -> Box<dyn TcpHandler> {
        Box::new(ChaosTlsConn {
            kind: self.kind,
            rng: StdRng::seed_from_u64(self.seed ^ from.ip.as_u128() as u64 ^ u64::from(from.port)),
            inner: self.inner.accept(from),
        })
    }
}

struct ChaosTlsConn {
    kind: Garble,
    rng: StdRng,
    inner: Box<dyn TcpHandler>,
}

/// An application-data record header claiming 65,535 bytes, four times
/// what RFC 8446 §5.2 allows.
const OVERSIZED_RECORD: [u8; 5] = [0x17, 0x03, 0x03, 0xff, 0xff];

impl TcpHandler for ChaosTlsConn {
    fn on_data(&mut self, data: &[u8], out: &mut Vec<u8>) -> TcpAction {
        as_peer(|| {
            let mut real = Vec::new();
            let action = self.inner.on_data(data, &mut real);
            if !real.is_empty() {
                for segment in self.kind.apply(&mut self.rng, real, &OVERSIZED_RECORD) {
                    out.extend(segment);
                }
            }
            action
        })
    }
}
