//! QUIC packet encoding/decoding with header and payload protection
//! (RFC 9000 §17, RFC 9001 §5.3–5.4).
//!
//! Packet numbers are always encoded on 4 bytes; decoding accepts 1–4 as
//! revealed by header protection. Datagrams may coalesce multiple long
//! header packets (the server's Initial+Handshake flight).

use qcodec::{Reader, Writer};

use crate::keys::PacketKeys;
use crate::version::Version;

/// A connection ID (0–20 bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ConnectionId(pub Vec<u8>);

impl ConnectionId {
    /// Builds from bytes, asserting the RFC 9000 length bound.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 20, "connection id too long");
        ConnectionId(bytes.to_vec())
    }

    /// Empty connection id.
    pub fn empty() -> Self {
        ConnectionId(Vec::new())
    }

    /// Byte view.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Packet categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Initial (long header, carries a token).
    Initial,
    /// 0-RTT (long header; parsed but never produced).
    ZeroRtt,
    /// Handshake (long header).
    Handshake,
    /// Retry (long header; parsed but never produced).
    Retry,
    /// 1-RTT (short header).
    OneRtt,
    /// Version Negotiation.
    VersionNegotiation,
}

/// A fully decoded (and decrypted, where applicable) packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Category.
    pub ty: PacketType,
    /// Wire version (long header packets; `None` for 1-RTT).
    pub version: Option<Version>,
    /// Destination connection id.
    pub dcid: ConnectionId,
    /// Source connection id (long header only).
    pub scid: Option<ConnectionId>,
    /// Initial token (Initial only).
    pub token: Vec<u8>,
    /// Decoded packet number (0 for VN).
    pub packet_number: u64,
    /// Decrypted frame payload (empty for VN).
    pub payload: Vec<u8>,
    /// Version list (VN only).
    pub supported_versions: Vec<Version>,
}

/// Why a datagram could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketDecodeError {
    /// Not parseable as QUIC at all.
    Malformed(&'static str),
    /// Header parsed, but no keys are installed for this packet type yet.
    NoKeys(PacketType),
    /// AEAD authentication failed.
    DecryptFailed(PacketType),
}

/// Encodes a Version Negotiation packet (RFC 9000 §17.2.1). The first byte's
/// low bits are "unused" on the wire; we set a fixed pattern.
pub fn encode_version_negotiation(
    dcid: &ConnectionId,
    scid: &ConnectionId,
    versions: &[Version],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(0x80 | 0x2a);
    w.put_u32(0); // version 0 marks VN
    w.put_vec8(dcid.as_slice());
    w.put_vec8(scid.as_slice());
    for v in versions {
        w.put_u32(v.0);
    }
    w.into_vec()
}

fn long_type_bits(ty: PacketType) -> u8 {
    match ty {
        PacketType::Initial => 0b00,
        PacketType::ZeroRtt => 0b01,
        PacketType::Handshake => 0b10,
        PacketType::Retry => 0b11,
        _ => unreachable!("not a long header type"),
    }
}

/// Reusable buffers for packet sealing. A scanner seals several packets per
/// handshake; routing them through one scratch keeps the header writer and
/// padding buffer allocations out of the per-packet path.
#[derive(Default)]
pub struct SealScratch {
    header: Writer,
    padded: Vec<u8>,
}

impl SealScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        SealScratch::default()
    }
}

/// Seals a long-header packet (Initial/Handshake) and applies header
/// protection. `pad_payload_to` grows the *frame payload* with PADDING
/// bytes before sealing — used to reach the 1200-byte Initial minimum.
#[allow(clippy::too_many_arguments)]
pub fn seal_long(
    ty: PacketType,
    version: Version,
    dcid: &ConnectionId,
    scid: &ConnectionId,
    token: &[u8],
    packet_number: u64,
    payload: &[u8],
    keys: &PacketKeys,
    pad_payload_to: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    let mut scratch = SealScratch::new();
    seal_long_into(
        &mut out,
        &mut scratch,
        ty,
        version,
        dcid,
        scid,
        token,
        packet_number,
        payload,
        keys,
        pad_payload_to,
    );
    out
}

/// [`seal_long`] appending onto `out` (for coalesced datagrams) and reusing
/// `scratch`'s buffers — byte-identical output, no per-packet allocation once
/// the scratch is warm.
#[allow(clippy::too_many_arguments)]
pub fn seal_long_into(
    out: &mut Vec<u8>,
    scratch: &mut SealScratch,
    ty: PacketType,
    version: Version,
    dcid: &ConnectionId,
    scid: &ConnectionId,
    token: &[u8],
    packet_number: u64,
    payload: &[u8],
    keys: &PacketKeys,
    pad_payload_to: usize,
) {
    let base = out.len();
    let payload = if payload.len() < pad_payload_to {
        // PADDING frames are zero bytes; prepending keeps real frames last,
        // appending keeps them first — either is valid, we append.
        scratch.padded.clear();
        scratch.padded.extend_from_slice(payload);
        scratch.padded.resize(pad_payload_to, 0);
        &scratch.padded[..]
    } else {
        payload
    };

    let pn_len = 4usize;
    let header = &mut scratch.header;
    header.clear();
    let first = 0x80 | 0x40 | (long_type_bits(ty) << 4) | (pn_len as u8 - 1);
    header.put_u8(first);
    header.put_u32(version.0);
    header.put_vec8(dcid.as_slice());
    header.put_vec8(scid.as_slice());
    if ty == PacketType::Initial {
        header.put_varint(token.len() as u64);
        header.put_bytes(token);
    }
    // Length field: pn + ciphertext.
    let length = pn_len + payload.len() + keys.tag_len();
    header.put_varint(length as u64);
    let pn_offset = header.len();
    header.put_u32(packet_number as u32);

    // One allocation for the whole packet rather than growth per part.
    out.reserve(header.len() + payload.len() + keys.tag_len());
    out.extend_from_slice(header.as_slice());
    keys.seal_into(packet_number, header.as_slice(), payload, out);
    apply_header_protection(&mut out[base..], pn_offset, pn_len, keys, true);
}

/// Seals a 1-RTT short-header packet.
pub fn seal_short(
    dcid: &ConnectionId,
    packet_number: u64,
    payload: &[u8],
    keys: &PacketKeys,
) -> Vec<u8> {
    let mut out = Vec::new();
    let mut scratch = SealScratch::new();
    seal_short_into(&mut out, &mut scratch, dcid, packet_number, payload, keys);
    out
}

/// [`seal_short`] appending onto `out` and reusing `scratch`'s buffers.
pub fn seal_short_into(
    out: &mut Vec<u8>,
    scratch: &mut SealScratch,
    dcid: &ConnectionId,
    packet_number: u64,
    payload: &[u8],
    keys: &PacketKeys,
) {
    let base = out.len();
    let pn_len = 4usize;
    let header = &mut scratch.header;
    header.clear();
    header.put_u8(0x40 | (pn_len as u8 - 1));
    header.put_bytes(dcid.as_slice());
    let pn_offset = header.len();
    header.put_u32(packet_number as u32);
    out.reserve(header.len() + payload.len() + keys.tag_len());
    out.extend_from_slice(header.as_slice());
    keys.seal_into(packet_number, header.as_slice(), payload, out);
    apply_header_protection(&mut out[base..], pn_offset, pn_len, keys, false);
}

fn apply_header_protection(
    packet: &mut [u8],
    pn_offset: usize,
    pn_len: usize,
    keys: &PacketKeys,
    long_header: bool,
) {
    let sample_at = pn_offset + 4;
    let sample: [u8; 16] = packet[sample_at..sample_at + 16]
        .try_into()
        .expect("sample");
    let mask = keys.hp_mask(&sample);
    packet[0] ^= mask[0] & if long_header { 0x0f } else { 0x1f };
    for i in 0..pn_len {
        packet[pn_offset + i] ^= mask[1 + i];
    }
}

/// Key lookup used during decode: given the packet type (and version for
/// long headers), return the keys to open it with.
pub trait KeySource {
    /// Keys for opening a packet of `ty`; `None` means "not installed".
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys>;
}

/// Decodes every packet coalesced in `datagram`. `local_cid_len` is the
/// length of connection ids this endpoint issues (needed to frame short
/// headers). Undecryptable packets yield errors but do not abort processing
/// of earlier packets; the first error is reported alongside the successes.
pub fn decode_datagram(
    datagram: &[u8],
    local_cid_len: usize,
    keys: &dyn KeySource,
) -> (Vec<Packet>, Option<PacketDecodeError>) {
    let mut packets = Vec::new();
    let mut rest = datagram;
    while !rest.is_empty() {
        match decode_first(rest, local_cid_len, keys) {
            Ok((pkt, consumed)) => {
                packets.push(pkt);
                rest = &rest[consumed..];
            }
            Err(e) => return (packets, Some(e)),
        }
    }
    (packets, None)
}

/// Decodes the first packet in `buf`, returning it and the bytes consumed.
/// Callers that install keys mid-datagram (a coalesced Initial+Handshake
/// flight) must loop over this rather than use [`decode_datagram`].
pub fn decode_first(
    buf: &[u8],
    local_cid_len: usize,
    keys: &dyn KeySource,
) -> Result<(Packet, usize), PacketDecodeError> {
    let first = *buf.first().ok_or(PacketDecodeError::Malformed("empty"))?;
    if first & 0x80 != 0 {
        decode_long(buf, keys)
    } else {
        decode_short(buf, local_cid_len, keys)
    }
}

fn decode_long(buf: &[u8], keys: &dyn KeySource) -> Result<(Packet, usize), PacketDecodeError> {
    let mut r = Reader::new(buf);
    let first = r
        .read_u8()
        .map_err(|_| PacketDecodeError::Malformed("first byte"))?;
    let version_raw = r
        .read_u32()
        .map_err(|_| PacketDecodeError::Malformed("version"))?;
    let dcid = ConnectionId(
        r.read_vec8()
            .map_err(|_| PacketDecodeError::Malformed("dcid"))?
            .to_vec(),
    );
    let scid = ConnectionId(
        r.read_vec8()
            .map_err(|_| PacketDecodeError::Malformed("scid"))?
            .to_vec(),
    );

    if version_raw == 0 {
        // Version Negotiation consumes the rest of the datagram.
        let mut versions = Vec::new();
        while let Ok(v) = r.read_u32() {
            versions.push(Version(v));
        }
        let pkt = Packet {
            ty: PacketType::VersionNegotiation,
            version: None,
            dcid,
            scid: Some(scid),
            token: Vec::new(),
            packet_number: 0,
            payload: Vec::new(),
            supported_versions: versions,
        };
        return Ok((pkt, buf.len()));
    }

    let version = Version(version_raw);
    let ty = match (first >> 4) & 0x03 {
        0b00 => PacketType::Initial,
        0b01 => PacketType::ZeroRtt,
        0b10 => PacketType::Handshake,
        _ => PacketType::Retry,
    };
    let mut token = Vec::new();
    if ty == PacketType::Initial {
        let token_len =
            r.read_varint()
                .map_err(|_| PacketDecodeError::Malformed("token length"))? as usize;
        token = r
            .read_bytes(token_len)
            .map_err(|_| PacketDecodeError::Malformed("token"))?
            .to_vec();
    }
    let length = r
        .read_varint()
        .map_err(|_| PacketDecodeError::Malformed("length"))? as usize;
    let pn_offset = r.position();
    if r.remaining() < length || length < 4 + 16 {
        return Err(PacketDecodeError::Malformed("length field"));
    }
    let consumed = pn_offset + length;
    let packet_keys = keys.keys_for(ty).ok_or(PacketDecodeError::NoKeys(ty))?;
    let (packet_number, payload) = unprotect(buf, pn_offset, consumed, packet_keys, true)
        .ok_or(PacketDecodeError::DecryptFailed(ty))?;
    let pkt = Packet {
        ty,
        version: Some(version),
        dcid,
        scid: Some(scid),
        token,
        packet_number,
        payload,
        supported_versions: Vec::new(),
    };
    Ok((pkt, consumed))
}

fn decode_short(
    buf: &[u8],
    local_cid_len: usize,
    keys: &dyn KeySource,
) -> Result<(Packet, usize), PacketDecodeError> {
    let pn_offset = 1 + local_cid_len;
    if buf.len() < pn_offset + 4 + 16 {
        return Err(PacketDecodeError::Malformed("short packet too small"));
    }
    let dcid = ConnectionId(buf[1..1 + local_cid_len].to_vec());
    let packet_keys = keys
        .keys_for(PacketType::OneRtt)
        .ok_or(PacketDecodeError::NoKeys(PacketType::OneRtt))?;
    // A short header packet consumes the rest of the datagram.
    let (packet_number, payload) = unprotect(buf, pn_offset, buf.len(), packet_keys, false)
        .ok_or(PacketDecodeError::DecryptFailed(PacketType::OneRtt))?;
    let pkt = Packet {
        ty: PacketType::OneRtt,
        version: None,
        dcid,
        scid: None,
        token: Vec::new(),
        packet_number,
        payload,
        supported_versions: Vec::new(),
    };
    Ok((pkt, buf.len()))
}

/// Headers up to this long are unmasked in a stack buffer. The longest
/// header this stack itself produces is 1 + 4 + 2·(1 + 20) + 2 + 4 = 53 bytes
/// plus an Initial token; only an outsized token takes the heap fallback.
const HEADER_STACK_LEN: usize = 128;

/// Removes header protection and opens the payload of the packet spanning
/// `buf[..end]` whose packet number field begins at `pn_offset`.
///
/// `buf` is only read: header protection touches at most five bytes, all in
/// the header, so only the header is copied (it is the AEAD's associated
/// data and must be contiguous); the ciphertext is authenticated where it
/// lies and decrypted straight into the vector that is returned.
fn unprotect(
    buf: &[u8],
    pn_offset: usize,
    end: usize,
    keys: &PacketKeys,
    long_header: bool,
) -> Option<(u64, Vec<u8>)> {
    let packet = &buf[..end];
    let sample: [u8; 16] = packet.get(pn_offset + 4..pn_offset + 20)?.try_into().ok()?;
    let mask = keys.hp_mask(&sample);
    let first = packet[0] ^ (mask[0] & if long_header { 0x0f } else { 0x1f });
    let pn_len = (first & 0x03) as usize + 1;
    let (header, ciphertext) = packet.split_at(pn_offset + pn_len);

    let mut on_stack = [0u8; HEADER_STACK_LEN];
    let mut on_heap;
    let aad = match on_stack.get_mut(..header.len()) {
        Some(fits) => {
            fits.copy_from_slice(header);
            fits
        }
        None => {
            on_heap = header.to_vec();
            &mut on_heap[..]
        }
    };
    aad[0] = first;
    let mut pn = 0u64;
    for (byte, mask) in aad[pn_offset..].iter_mut().zip(&mask[1..]) {
        *byte ^= mask;
        pn = (pn << 8) | u64::from(*byte);
    }

    let mut payload = Vec::with_capacity(ciphertext.len().saturating_sub(keys.tag_len()));
    keys.open_into(pn, aad, ciphertext, &mut payload).ok()?;
    Some((pn, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::initial_keys;
    use std::collections::HashMap;

    struct TestKeys(HashMap<PacketType, PacketKeys>);
    impl KeySource for TestKeys {
        fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
            self.0.get(&ty)
        }
    }

    fn initial_pair() -> (PacketKeys, PacketKeys) {
        initial_keys(Version::V1, b"\x83\x94\xc8\xf0\x3e\x51\x57\x08")
    }

    #[test]
    fn initial_roundtrip_with_padding() {
        let (client_keys, _) = initial_pair();
        let dcid = ConnectionId::new(b"\x83\x94\xc8\xf0\x3e\x51\x57\x08");
        let scid = ConnectionId::new(b"local");
        let payload = vec![0x06, 0x00, 0x01, 0xab]; // tiny CRYPTO frame
        let datagram = seal_long(
            PacketType::Initial,
            Version::V1,
            &dcid,
            &scid,
            b"",
            2,
            &payload,
            &client_keys,
            1162,
        );
        assert!(
            datagram.len() >= 1200,
            "padded Initial is {} bytes",
            datagram.len()
        );

        let (open_c, _) = initial_pair();
        let mut map = HashMap::new();
        map.insert(PacketType::Initial, open_c);
        let (packets, err) = decode_datagram(&datagram, 5, &TestKeys(map));
        assert_eq!(err, None);
        assert_eq!(packets.len(), 1);
        let p = &packets[0];
        assert_eq!(p.ty, PacketType::Initial);
        assert_eq!(p.packet_number, 2);
        assert_eq!(p.version, Some(Version::V1));
        assert_eq!(&p.payload[..4], &payload[..]);
        assert!(p.payload[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn version_negotiation_roundtrip() {
        let vn = encode_version_negotiation(
            &ConnectionId::new(b"client"),
            &ConnectionId::new(b"server"),
            &[Version::DRAFT_29, Version::Q050],
        );
        let (packets, err) = decode_datagram(&vn, 6, &TestKeys(HashMap::new()));
        assert_eq!(err, None);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].ty, PacketType::VersionNegotiation);
        assert_eq!(
            packets[0].supported_versions,
            vec![Version::DRAFT_29, Version::Q050]
        );
        assert_eq!(packets[0].dcid.as_slice(), b"client");
    }

    #[test]
    fn short_header_roundtrip() {
        let (keys_a, _) = initial_pair();
        let (keys_b, _) = initial_pair();
        let dcid = ConnectionId::new(b"12345678");
        let pkt = seal_short(&dcid, 42, b"\x01", &keys_a); // PING
        let mut map = HashMap::new();
        map.insert(PacketType::OneRtt, keys_b);
        let (packets, err) = decode_datagram(&pkt, 8, &TestKeys(map));
        assert_eq!(err, None);
        assert_eq!(packets[0].ty, PacketType::OneRtt);
        assert_eq!(packets[0].packet_number, 42);
        assert_eq!(packets[0].payload, vec![0x01]);
        assert_eq!(packets[0].dcid.as_slice(), b"12345678");
    }

    #[test]
    fn coalesced_initial_and_handshake() {
        let (initial_k, _) = initial_pair();
        let (hs_seal, _) = initial_keys(Version::V1, b"hs-secret-stand-in");
        let dcid = ConnectionId::new(b"d");
        let scid = ConnectionId::new(b"s");
        let mut datagram = seal_long(
            PacketType::Initial,
            Version::V1,
            &dcid,
            &scid,
            b"",
            0,
            &[0x01],
            &initial_k,
            0,
        );
        datagram.extend(seal_long(
            PacketType::Handshake,
            Version::V1,
            &dcid,
            &scid,
            b"",
            0,
            &[0x01],
            &hs_seal,
            0,
        ));
        let (open_i, _) = initial_pair();
        let (open_h, _) = initial_keys(Version::V1, b"hs-secret-stand-in");
        let mut map = HashMap::new();
        map.insert(PacketType::Initial, open_i);
        map.insert(PacketType::Handshake, open_h);
        let (packets, err) = decode_datagram(&datagram, 1, &TestKeys(map));
        assert_eq!(err, None);
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].ty, PacketType::Initial);
        assert_eq!(packets[1].ty, PacketType::Handshake);
    }

    /// The `_into` variants must append exactly what the allocating forms
    /// return, including when the output buffer already holds a coalesced
    /// packet (header protection must only touch the appended region).
    #[test]
    fn seal_into_variants_match_allocating_forms() {
        let (client_keys, _) = initial_pair();
        let dcid = ConnectionId::new(b"\x83\x94\xc8\xf0\x3e\x51\x57\x08");
        let scid = ConnectionId::new(b"local");
        let payload = vec![0x06, 0x00, 0x01, 0xab];
        let long = seal_long(
            PacketType::Initial,
            Version::V1,
            &dcid,
            &scid,
            b"tok",
            2,
            &payload,
            &client_keys,
            1162,
        );
        let mut scratch = SealScratch::new();
        let mut out = b"existing".to_vec();
        seal_long_into(
            &mut out,
            &mut scratch,
            PacketType::Initial,
            Version::V1,
            &dcid,
            &scid,
            b"tok",
            2,
            &payload,
            &client_keys,
            1162,
        );
        assert_eq!(&out[..8], b"existing");
        assert_eq!(&out[8..], &long[..]);

        let short = seal_short(&ConnectionId::new(b"12345678"), 42, b"\x01", &client_keys);
        let mut out2 = long.clone();
        seal_short_into(
            &mut out2,
            &mut scratch,
            &ConnectionId::new(b"12345678"),
            42,
            b"\x01",
            &client_keys,
        );
        assert_eq!(&out2[..long.len()], &long[..]);
        assert_eq!(&out2[long.len()..], &short[..]);
    }

    #[test]
    fn missing_keys_reported() {
        let (client_keys, _) = initial_pair();
        let datagram = seal_long(
            PacketType::Handshake,
            Version::V1,
            &ConnectionId::new(b"d"),
            &ConnectionId::new(b"s"),
            b"",
            0,
            &[0x01],
            &client_keys,
            0,
        );
        let (packets, err) = decode_datagram(&datagram, 1, &TestKeys(HashMap::new()));
        assert!(packets.is_empty());
        assert_eq!(err, Some(PacketDecodeError::NoKeys(PacketType::Handshake)));
    }

    #[test]
    fn tampered_packet_fails_decrypt() {
        let (client_keys, _) = initial_pair();
        let mut datagram = seal_long(
            PacketType::Initial,
            Version::V1,
            &ConnectionId::new(b"d"),
            &ConnectionId::new(b"s"),
            b"",
            0,
            &[0x01],
            &client_keys,
            100,
        );
        let last = datagram.len() - 1;
        datagram[last] ^= 0xff;
        let (open_c, _) = initial_pair();
        let mut map = HashMap::new();
        map.insert(PacketType::Initial, open_c);
        let (packets, err) = decode_datagram(&datagram, 1, &TestKeys(map));
        assert!(packets.is_empty());
        assert_eq!(
            err,
            Some(PacketDecodeError::DecryptFailed(PacketType::Initial))
        );
    }

    /// `unprotect` as it was before it stopped copying: clone the packet,
    /// unmask in the clone, clone the header again as AAD, let `open`
    /// allocate the payload. Kept as the reference the new one must equal.
    fn unprotect_by_copying(
        buf: &[u8],
        pn_offset: usize,
        end: usize,
        keys: &PacketKeys,
        long_header: bool,
    ) -> Option<(u64, Vec<u8>)> {
        let mut packet = buf[..end].to_vec();
        let sample_at = pn_offset + 4;
        if sample_at + 16 > packet.len() {
            return None;
        }
        let sample: [u8; 16] = packet[sample_at..sample_at + 16].try_into().ok()?;
        let mask = keys.hp_mask(&sample);
        packet[0] ^= mask[0] & if long_header { 0x0f } else { 0x1f };
        let pn_len = (packet[0] & 0x03) as usize + 1;
        for i in 0..pn_len {
            packet[pn_offset + i] ^= mask[1 + i];
        }
        let mut pn = 0u64;
        for i in 0..pn_len {
            pn = (pn << 8) | u64::from(packet[pn_offset + i]);
        }
        let aad = packet[..pn_offset + pn_len].to_vec();
        let ciphertext = &packet[pn_offset + pn_len..];
        let payload = keys.open(pn, &aad, ciphertext).ok()?;
        Some((pn, payload))
    }

    /// Seals a packet by hand so the packet number can take any encoded
    /// length (the `seal_*` functions always write four bytes). Returns the
    /// packet and the offset of its packet number field.
    fn seal_with_pn_len(
        long_header: bool,
        token: &[u8],
        pn: u64,
        pn_len: usize,
        payload: &[u8],
        keys: &PacketKeys,
    ) -> (Vec<u8>, usize) {
        let mut header = Writer::new();
        if long_header {
            header.put_u8(0x80 | 0x40 | (pn_len as u8 - 1));
            header.put_u32(Version::V1.0);
            header.put_vec8(b"destination");
            header.put_vec8(b"source");
            header.put_varint(token.len() as u64);
            header.put_bytes(token);
            header.put_varint((pn_len + payload.len() + keys.tag_len()) as u64);
        } else {
            header.put_u8(0x40 | (pn_len as u8 - 1));
            header.put_bytes(b"12345678");
        }
        let pn_offset = header.len();
        header.put_bytes(&pn.to_be_bytes()[8 - pn_len..]);
        let mut packet = header.as_slice().to_vec();
        keys.seal_into(pn, header.as_slice(), payload, &mut packet);
        apply_header_protection(&mut packet, pn_offset, pn_len, keys, long_header);
        (packet, pn_offset)
    }

    /// The copy-free `unprotect` returns exactly what the copying one did:
    /// long and short headers, every packet number length, a header too long
    /// for the stack buffer, and — as `None` — every kind of damage.
    #[test]
    fn unprotect_matches_copying_reference() {
        let (keys, _) = initial_pair();
        let long_token = vec![0x5au8; 2 * HEADER_STACK_LEN];
        let payload: Vec<u8> = (0..200u8).collect();
        let mut compared = 0;
        for long_header in [true, false] {
            for token in [&b""[..], &b"tok"[..], &long_token[..]] {
                for pn_len in 1..=4usize {
                    let pn = 0xa1b2_c3d4u64 & ((1u64 << (8 * pn_len)) - 1);
                    // At least 4 bytes after the pn field, so the sample fits.
                    for payload in [&payload[..3], &payload[..]] {
                        let (packet, pn_offset) =
                            seal_with_pn_len(long_header, token, pn, pn_len, payload, &keys);
                        let end = packet.len();
                        let got = unprotect(&packet, pn_offset, end, &keys, long_header);
                        assert_eq!(got, Some((pn, payload.to_vec())), "pn_len {pn_len}");
                        assert_eq!(
                            got,
                            unprotect_by_copying(&packet, pn_offset, end, &keys, long_header)
                        );
                        // Trailing bytes of a coalesced datagram are ignored.
                        let mut coalesced = packet.clone();
                        coalesced.extend_from_slice(b"next packet");
                        assert_eq!(
                            unprotect(&coalesced, pn_offset, end, &keys, long_header),
                            got
                        );

                        for damaged_at in [0, pn_offset, pn_offset + pn_len, end - 1] {
                            let mut bad = packet.clone();
                            bad[damaged_at] ^= 0x04;
                            assert_eq!(
                                unprotect(&bad, pn_offset, end, &keys, long_header),
                                unprotect_by_copying(&bad, pn_offset, end, &keys, long_header),
                                "damage at {damaged_at}"
                            );
                            assert_eq!(unprotect(&bad, pn_offset, end, &keys, long_header), None);
                        }
                        for short_end in [pn_offset, pn_offset + 19, end - 1] {
                            assert_eq!(
                                unprotect(&packet, pn_offset, short_end, &keys, long_header),
                                None
                            );
                            assert_eq!(
                                unprotect_by_copying(
                                    &packet,
                                    pn_offset,
                                    short_end,
                                    &keys,
                                    long_header
                                ),
                                None
                            );
                        }
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 2 * 3 * 4 * 2);
    }
}
