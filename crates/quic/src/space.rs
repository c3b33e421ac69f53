//! The packet-space core both ends of a connection share (RFC 9000 §12.3,
//! RFC 9001 §4–5): the version and both connection IDs, the keys of the
//! Initial, Handshake and 1-RTT spaces, packet numbering, sealing and CRYPTO
//! reassembly.
//!
//! [`ClientConnection`](crate::ClientConnection) and the server endpoint's
//! connections each own one [`PacketSpaces`] and keep only their own logic
//! on top of it: the client its Retry and Version Negotiation restarts,
//! probe timeouts, events and streams; the server its flight caches,
//! sessions and eviction. Every packet either end sends is sealed by
//! [`PacketSpaces::seal_long`] or [`PacketSpaces::seal_short`], which number
//! it, so each space's packet numbers have one writer; the keys a packet is
//! opened with come from the one [`KeySource`] here, whose [`Role`] picks the
//! half of each pair that opens.

use std::collections::BTreeMap;
use std::sync::Arc;

use qcodec::{varint, Writer};
use qtls::{CipherSuite, Level, TlsEvent};

use crate::error::TransportError;
use crate::frame::{Frame, Frames};
use crate::keys::{initial_keys_shared, InitialPair, PacketKeys};
use crate::packet::{
    open_first, seal_long_into, seal_short_into, ConnectionId, Header, KeySource, PacketType,
    SealScratch,
};
use crate::version::Version;

/// A packet-number space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    Initial,
    Handshake,
    App,
}

impl Space {
    /// The space of a protected packet type; `None` for Version
    /// Negotiation, Retry and 0-RTT, which this stack never opens.
    pub(crate) fn of(ty: PacketType) -> Option<Space> {
        match ty {
            PacketType::Initial => Some(Space::Initial),
            PacketType::Handshake => Some(Space::Handshake),
            PacketType::OneRtt => Some(Space::App),
            _ => None,
        }
    }

    /// The TLS encryption level whose CRYPTO data the space carries.
    pub(crate) fn level(self) -> Level {
        match self {
            Space::Initial => Level::Initial,
            Space::Handshake => Level::Handshake,
            Space::App => Level::App,
        }
    }
}

/// Which end of the connection this is: a client opens with the server's
/// half of each key pair and seals with its own, a server the other way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    Client,
    Server,
}

/// One CRYPTO stream's receive side: segments held by offset until they are
/// contiguous with what was already handed to TLS.
#[derive(Default)]
struct CryptoReassembler {
    segments: BTreeMap<u64, Vec<u8>>,
    consumed: u64,
}

impl CryptoReassembler {
    /// Takes one frame's bytes: `None` when every one of them was already
    /// handed out, otherwise the longest run now contiguous with them.
    fn recv(&mut self, offset: u64, data: &[u8]) -> Option<Vec<u8>> {
        let end = offset + data.len() as u64;
        if end <= self.consumed {
            return None;
        }
        let mut out = Vec::new();
        if offset <= self.consumed {
            // In order: handed over without a stop in the map, which then
            // never allocates on a connection whose CRYPTO arrives in order.
            out.extend_from_slice(&data[(self.consumed - offset) as usize..]);
            self.consumed = end;
        } else if !data.is_empty() {
            // An empty entry would shadow the data later sent at its offset.
            self.segments.entry(offset).or_insert_with(|| data.to_vec());
        }
        while let Some((&off, _)) = self.segments.first_key_value() {
            if off > self.consumed {
                break;
            }
            let seg = self.segments.remove(&off).expect("key just observed");
            let skip = (self.consumed - off) as usize;
            if skip < seg.len() {
                out.extend_from_slice(&seg[skip..]);
                self.consumed = off + seg.len() as u64;
            }
        }
        Some(out)
    }
}

/// A connection's packet protection keys.
struct Keys {
    /// Initial keys of both directions. The pair is memoized process-wide,
    /// so the simulated server reuses the one the client derived.
    initial: Option<Arc<InitialPair>>,
    /// Handshake and 1-RTT keys, `(open, seal)`, once TLS derived them.
    derived: [Option<(PacketKeys, PacketKeys)>; 2],
}

impl Keys {
    /// The keys `space` opens (`seal == false`) or seals with at `role`'s
    /// end, if installed.
    fn get(&self, role: Role, space: Space, seal: bool) -> Option<&PacketKeys> {
        match space {
            Space::Initial => {
                let pair = self.initial.as_deref()?;
                Some(if seal == (role == Role::Client) {
                    &pair.client
                } else {
                    &pair.server
                })
            }
            Space::Handshake | Space::App => {
                let (open, sealing) = self.derived[space as usize - 1].as_ref()?;
                Some(if seal { sealing } else { open })
            }
        }
    }
}

/// Per-connection packet-space state (see the module docs).
pub(crate) struct PacketSpaces {
    role: Role,
    /// The version every long header carries.
    pub(crate) version: Version,
    /// Our connection ID: the SCID of our long headers, and the DCID of
    /// every packet the peer sends us.
    pub(crate) local_cid: ConnectionId,
    /// The peer's connection ID: the DCID of every packet we send.
    pub(crate) peer_cid: ConnectionId,
    keys: Keys,
    next_pn: [u64; 3],
    /// The packet number each space sealed last, kept by the debug-build
    /// check that numbers only ever increase (RFC 9000 §12.3).
    #[cfg(debug_assertions)]
    last_sealed: [Option<u64>; 3],
    /// The largest packet number received per space (0 before any).
    largest_recv: [u64; 3],
    /// Reused packet-sealing buffers.
    scratch: SealScratch,
    /// Reused frame-payload writer, lent out by [`PacketSpaces::with_frames`].
    frames: Writer,
    /// The Initial and Handshake CRYPTO streams; this stack carries no
    /// CRYPTO data in 1-RTT packets.
    crypto_rx: [CryptoReassembler; 2],
}

impl PacketSpaces {
    /// A connection's spaces before any key is installed.
    pub(crate) fn new(
        role: Role,
        version: Version,
        local_cid: ConnectionId,
        peer_cid: ConnectionId,
    ) -> Self {
        PacketSpaces {
            role,
            version,
            local_cid,
            peer_cid,
            keys: Keys {
                initial: None,
                derived: [None, None],
            },
            next_pn: [0; 3],
            #[cfg(debug_assertions)]
            last_sealed: [None; 3],
            largest_recv: [0; 3],
            scratch: SealScratch::new(),
            frames: Writer::new(),
            crypto_rx: Default::default(),
        }
    }

    /// Installs the Initial keys of `dcid`, the DCID of the client's
    /// Initial (RFC 9001 §5.2), replacing any installed before.
    pub(crate) fn install_initial(&mut self, dcid: &[u8]) {
        self.keys.initial = Some(initial_keys_shared(self.version, dcid));
    }

    /// Installs the Handshake or 1-RTT keys a TLS event carries, under the
    /// negotiated `cipher`, and returns the level's name (`"handshake"`,
    /// `"1rtt"`); any other event installs nothing and returns `None`.
    pub(crate) fn install(
        &mut self,
        cipher: Option<CipherSuite>,
        event: &TlsEvent,
    ) -> Option<&'static str> {
        let (slot, client, server, level) = match event {
            TlsEvent::HandshakeKeys(hs) => (0, &hs.client, &hs.server, "handshake"),
            TlsEvent::AppKeys(app) => (1, &app.client, &app.server, "1rtt"),
            _ => return None,
        };
        let alg = cipher.unwrap_or(CipherSuite::Aes128GcmSha256).aead();
        let (client, server) = (
            PacketKeys::from_secret(alg, client),
            PacketKeys::from_secret(alg, server),
        );
        self.keys.derived[slot] = Some(match self.role {
            Role::Client => (server, client),
            Role::Server => (client, server),
        });
        Some(level)
    }

    /// The keys `space` seals with (tests open their own packets with them).
    #[cfg(test)]
    pub(crate) fn seal_keys(&self, space: Space) -> Option<&PacketKeys> {
        self.keys.get(self.role, space, true)
    }

    /// The packet number `space` seals with next.
    #[cfg(test)]
    pub(crate) fn next_pn(&self, space: Space) -> u64 {
        self.next_pn[space as usize]
    }

    /// Records a received packet number.
    pub(crate) fn note_recv(&mut self, space: Space, pn: u64) {
        let largest = &mut self.largest_recv[space as usize];
        *largest = (*largest).max(pn);
    }

    /// The largest packet number received in `space` (0 before any).
    pub(crate) fn largest_recv(&self, space: Space) -> u64 {
        self.largest_recv[space as usize]
    }

    /// True when `frames` acknowledge a packet number `space` never sent
    /// (RFC 9000 §13.1).
    pub(crate) fn acks_unsent(&self, space: Space, frames: &Frames<'_>) -> bool {
        frames.acks_unsent(self.next_pn[space as usize])
    }

    /// The sealed size of a long-header packet of `space` carrying
    /// `payload_len` bytes of frames (and a `token_len`-byte token in an
    /// Initial), which callers size padding and coalescing with instead of
    /// sealing probes. Every QUIC AEAD's tag is 16 bytes (RFC 9001 §5.3).
    pub(crate) fn long_len(&self, space: Space, token_len: usize, payload_len: usize) -> usize {
        let token = match space {
            Space::Initial => varint::len(token_len as u64) + token_len,
            _ => 0,
        };
        let cids = 2 + self.peer_cid.len() + self.local_cid.len();
        let sealed = 4 + payload_len + 16; // packet number, frames, tag
        1 + 4 + cids + token + varint::len(sealed as u64) + sealed
    }

    /// Lends the cleared frame writer to `f` together with the spaces, so a
    /// caller composes a payload and seals it without allocating either.
    pub(crate) fn with_frames<R>(&mut self, f: impl FnOnce(&mut Self, &mut Writer) -> R) -> R {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        let result = f(self, &mut frames);
        self.frames = frames;
        result
    }

    /// Seals `payload`, grown with PADDING to `min_payload` bytes, as one
    /// Initial or Handshake packet at the space's next packet number and
    /// appends it to `out` (a datagram may already hold packets). False,
    /// with nothing sealed, while the space has no keys.
    pub(crate) fn seal_long(
        &mut self,
        out: &mut Vec<u8>,
        space: Space,
        token: &[u8],
        payload: &[u8],
        min_payload: usize,
    ) -> bool {
        let ty = match space {
            Space::Initial => PacketType::Initial,
            Space::Handshake => PacketType::Handshake,
            Space::App => unreachable!("1-RTT packets have short headers"),
        };
        let Some(keys) = self.keys.get(self.role, space, true) else {
            return false;
        };
        let pn = &mut self.next_pn[space as usize];
        #[cfg(debug_assertions)]
        check_pn_increases(&mut self.last_sealed, space, *pn);
        seal_long_into(
            out,
            &mut self.scratch,
            ty,
            self.version,
            &self.peer_cid,
            &self.local_cid,
            token,
            *pn,
            payload,
            keys,
            min_payload,
        );
        *pn += 1;
        true
    }

    /// Seals `payload` as one 1-RTT packet onto `out` and returns its packet
    /// number (`None`, with nothing sealed, before the 1-RTT keys exist).
    pub(crate) fn seal_short(&mut self, out: &mut Vec<u8>, payload: &[u8]) -> Option<u64> {
        let keys = self.keys.get(self.role, Space::App, true)?;
        let pn = self.next_pn[Space::App as usize];
        #[cfg(debug_assertions)]
        check_pn_increases(&mut self.last_sealed, Space::App, pn);
        seal_short_into(out, &mut self.scratch, &self.peer_cid, pn, payload, keys);
        self.next_pn[Space::App as usize] += 1;
        Some(pn)
    }

    /// Seals a CONNECTION_CLOSE (RFC 9000 §19.19) carrying `code`, the type
    /// of the frame that caused it and `reason`, as one packet of `space`
    /// onto `out` — the one close every error of either end goes out as.
    /// False while the space has no keys.
    pub(crate) fn seal_close(
        &mut self,
        out: &mut Vec<u8>,
        space: Space,
        code: TransportError,
        frame_type: u64,
        reason: &str,
    ) -> bool {
        self.with_frames(|spaces, frames| {
            Frame::ConnectionClose {
                error_code: code.0,
                frame_type: Some(frame_type),
                reason: reason.as_bytes(),
                is_app: false,
            }
            .encode(frames);
            match space {
                Space::App => spaces.seal_short(out, frames.as_slice()).is_some(),
                _ => spaces.seal_long(out, space, b"", frames.as_slice(), 0),
            }
        })
    }

    /// Takes one received CRYPTO frame of `space`, the Initial or the
    /// Handshake one. `None` when TLS already has every byte of it (a
    /// retransmission); otherwise the bytes now contiguous with what TLS
    /// has, which are none while a gap remains — a frame past a gap waits in
    /// the reassembler until the gap fills.
    pub(crate) fn recv_crypto(
        &mut self,
        space: Space,
        offset: u64,
        data: &[u8],
    ) -> Option<Vec<u8>> {
        self.crypto_rx[space as usize].recv(offset, data)
    }

    /// Opens the first packet coalesced in `rest` with the keys installed
    /// now, decrypting its payload into `payload`, and advances `rest` past
    /// it; `None` once one does not open, which ends the datagram
    /// (processing a packet may install the keys the next one needs).
    pub(crate) fn open_next<'a>(
        &self,
        rest: &mut &'a [u8],
        payload: &mut Vec<u8>,
    ) -> Option<Header<'a>> {
        let (header, consumed) = open_first(rest, self.local_cid.len(), self, payload).ok()?;
        *rest = &rest[consumed..];
        Some(header)
    }
}

/// RFC 9000 §12.3, checked in debug builds at the one place either end
/// seals: a space never seals a packet number at or below one it sealed
/// before.
#[cfg(debug_assertions)]
fn check_pn_increases(last_sealed: &mut [Option<u64>; 3], space: Space, pn: u64) {
    let last = &mut last_sealed[space as usize];
    assert!(
        last.is_none_or(|last| pn > last),
        "RFC 9000 §12.3: {space:?} packet number {pn} sealed after {last:?}"
    );
    *last = Some(pn);
}

/// Received packets open with the half of each pair the [`Role`] picks.
impl KeySource for PacketSpaces {
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
        self.keys.get(self.role, Space::of(ty)?, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-order bytes pass straight through; a frame past a gap waits for
    /// it, an empty one there shadows nothing, and a frame TLS already has
    /// every byte of reads as a duplicate.
    #[test]
    fn crypto_is_handed_over_in_order_once() {
        let mut rx = CryptoReassembler::default();
        assert_eq!(rx.recv(0, b"ab"), Some(b"ab".to_vec()));
        assert_eq!(rx.recv(4, b""), Some(Vec::new()));
        assert_eq!(rx.recv(4, b"ef"), Some(Vec::new()));
        assert_eq!(rx.recv(1, b"bcd"), Some(b"cdef".to_vec()));
        assert_eq!(rx.recv(0, b"abcdef"), None);
        assert!(rx.segments.is_empty());
    }
}
