//! Retry packets and their integrity tag (RFC 9000 §17.2.5, RFC 9001 §5.8).
//!
//! Some 2021 deployments (notably lsquic-based ones) used address validation
//! via Retry; the scanner must follow the Retry → new Initial dance or those
//! hosts would misreport as timeouts.

use std::sync::OnceLock;

use qcodec::{Reader, Writer};
use qcrypto::aead::{Aead, AeadAlgorithm};

use crate::packet::ConnectionId;
use crate::version::Version;

/// The fixed Retry integrity key for QUIC v1 (RFC 9001 §5.8).
const RETRY_KEY_V1: [u8; 16] = [
    0xbe, 0x0c, 0x69, 0x0b, 0x9f, 0x66, 0x57, 0x5a, 0x1d, 0x76, 0x6b, 0x54, 0xe3, 0x68, 0xc8, 0x4e,
];
/// The fixed Retry integrity nonce for QUIC v1.
const RETRY_NONCE_V1: [u8; 12] = [
    0x46, 0x15, 0x99, 0xd3, 0x5d, 0x63, 0x2b, 0xf2, 0x23, 0x98, 0x25, 0xbb,
];

/// draft-29..32 Retry key (draft-29 §5.8).
const RETRY_KEY_D29: [u8; 16] = [
    0xcc, 0xce, 0x18, 0x7e, 0xd0, 0x9a, 0x09, 0xd0, 0x57, 0x28, 0x15, 0x5a, 0x6c, 0xb9, 0x6b, 0xe1,
];
const RETRY_NONCE_D29: [u8; 12] = [
    0xe5, 0x49, 0x30, 0xf9, 0x7f, 0x21, 0x36, 0xf0, 0x53, 0x0a, 0x8c, 0x1c,
];

/// The Retry integrity AEAD and nonce for `version`. The keys are fixed by
/// the RFCs, so each is expanded once per process rather than per packet.
fn retry_aead(version: Version) -> (&'static Aead, &'static [u8; 12]) {
    static V1: OnceLock<Aead> = OnceLock::new();
    static D29: OnceLock<Aead> = OnceLock::new();
    let (cell, key, nonce) = match version {
        v if v.is_ietf() && (0x1d..=0x20).contains(&(v.0 & 0xff)) => {
            (&D29, &RETRY_KEY_D29, &RETRY_NONCE_D29)
        }
        _ => (&V1, &RETRY_KEY_V1, &RETRY_NONCE_V1),
    };
    (
        cell.get_or_init(|| Aead::new(AeadAlgorithm::Aes128Gcm, key)),
        nonce,
    )
}

fn pseudo_packet(odcid: &ConnectionId, retry_without_tag: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 + odcid.len() + retry_without_tag.len());
    w.put_vec8(odcid.as_slice());
    w.put_bytes(retry_without_tag);
    w.into_vec()
}

/// Computes the 16-byte Retry integrity tag over the packet-so-far, bound to
/// the client's original DCID.
pub fn integrity_tag(version: Version, odcid: &ConnectionId, retry_without_tag: &[u8]) -> [u8; 16] {
    let (aead, nonce) = retry_aead(version);
    let sealed = aead.seal(nonce, &pseudo_packet(odcid, retry_without_tag), &[]);
    sealed.try_into().expect("empty plaintext seals to one tag")
}

/// Builds a complete Retry packet.
pub fn encode_retry(
    version: Version,
    dcid: &ConnectionId,
    scid: &ConnectionId,
    odcid: &ConnectionId,
    token: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    // Long header, Retry type; the four "unused" bits are set like the
    // RFC 9001 A.4 example (the integrity tag covers the first byte, so the
    // exact value matters for vector compatibility).
    w.put_u8(0xff);
    w.put_u32(version.0);
    w.put_vec8(dcid.as_slice());
    w.put_vec8(scid.as_slice());
    w.put_bytes(token);
    let tag = integrity_tag(version, odcid, w.as_slice());
    w.put_bytes(&tag);
    w.into_vec()
}

/// A parsed Retry packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPacket {
    /// Wire version.
    pub version: Version,
    /// Destination connection id (must be the client's SCID).
    pub dcid: ConnectionId,
    /// The server's new connection id (becomes the client's next DCID).
    pub scid: ConnectionId,
    /// The address-validation token to echo in the next Initial.
    pub token: Vec<u8>,
}

/// Parses and *verifies* a Retry packet against the client's original DCID.
/// Returns `None` on parse failure or tag mismatch (RFC 9001 §5.8 requires
/// dropping such packets).
pub fn decode_retry(datagram: &[u8], odcid: &ConnectionId) -> Option<RetryPacket> {
    let mut r = Reader::new(datagram);
    let first = r.read_u8().ok()?;
    if first & 0xf0 != 0xf0 {
        return None; // not a long-header Retry
    }
    let version = Version(r.read_u32().ok()?);
    if version.0 == 0 {
        return None;
    }
    let dcid = ConnectionId(r.read_vec8().ok()?.to_vec());
    let scid = ConnectionId(r.read_vec8().ok()?.to_vec());
    let rest = r.read_rest();
    if rest.len() < 16 {
        return None;
    }
    let (token, tag) = rest.split_at(rest.len() - 16);
    let expected = integrity_tag(version, odcid, &datagram[..datagram.len() - 16]);
    if tag != expected {
        return None;
    }
    Some(RetryPacket {
        version,
        dcid,
        scid,
        token: token.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcodec::hex;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Adds up what each thread asks the allocator for.
    struct CountingAlloc;

    thread_local!(static REQUESTED: Cell<usize> = const { Cell::new(0) });

    // SAFETY: every call goes to `System` with the arguments it was given
    // (`realloc` is the default `alloc` + copy, so growth is counted too);
    // the counter is a const-initialised `Cell` with no destructor, so
    // touching it neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// What `decode_retry` may ask for on `len` bytes against an ODCID of
    /// `odcid` bytes: the two connection IDs and the token are copies of
    /// disjoint parts of the input (`len` in all), the pseudo-packet the
    /// tag covers is the input less its tag plus the length-prefixed ODCID,
    /// and the computed tag is 16 bytes.
    fn decode_bound(len: usize, odcid: usize) -> usize {
        len + (len + 1 + odcid) + 16
    }

    proptest::proptest! {
        /// Arbitrary bytes, and a valid Retry with one byte overwritten, its
        /// DCID length overwritten, or its tail cut: decoding returns
        /// `Some` or `None` and asks for at most [`decode_bound`] bytes.
        #[test]
        fn hostile_bytes_stay_bounded(
            garbage in proptest::collection::vec(proptest::any::<u8>(), 0..300),
            token in proptest::collection::vec(proptest::any::<u8>(), 0..200),
            odcid in proptest::collection::vec(proptest::any::<u8>(), 0..21),
            at in proptest::any::<usize>(),
            value in proptest::any::<u8>(),
        ) {
            let odcid = ConnectionId::new(&odcid);
            let scid = ConnectionId::new(b"retry-cid");
            let valid = encode_retry(Version::V1, &ConnectionId::new(b"client"), &scid, &odcid, &token);
            proptest::prop_assert!(decode_retry(&valid, &odcid).is_some());
            let at = at % valid.len();
            let mut flipped = valid.clone();
            flipped[at] = value;
            let mut relength = valid.clone();
            relength[5] = value;
            for bytes in [&garbage[..], &flipped, &relength, &valid[..at]] {
                let before = REQUESTED.get();
                let _ = decode_retry(bytes, &odcid);
                let requested = REQUESTED.get() - before;
                let allowed = decode_bound(bytes.len(), odcid.len());
                proptest::prop_assert!(
                    requested <= allowed,
                    "{} bytes in, {requested} requested, {allowed} allowed",
                    bytes.len()
                );
            }
        }
    }

    /// RFC 9001 Appendix A.4: the published Retry packet for ODCID
    /// 0x8394c8f03e515708 with token "token".
    #[test]
    fn rfc9001_a4_retry_vector() {
        let odcid = ConnectionId::new(&hex::decode("8394c8f03e515708").unwrap());
        let scid = ConnectionId::new(&hex::decode("f067a5502a4262b5").unwrap());
        let packet = encode_retry(Version::V1, &ConnectionId::empty(), &scid, &odcid, b"token");
        assert_eq!(
            hex::encode(&packet),
            "ff000000010008f067a5502a4262b5746f6b656e04a265ba2eff4d829058fb3f0f2496ba"
        );
    }

    #[test]
    fn roundtrip_and_tamper_rejection() {
        let odcid = ConnectionId::new(b"original");
        let scid = ConnectionId::new(b"newcid");
        let packet = encode_retry(
            Version::DRAFT_29,
            &ConnectionId::new(b"clientscid"),
            &scid,
            &odcid,
            b"tok-123",
        );
        let parsed = decode_retry(&packet, &odcid).expect("valid retry");
        assert_eq!(parsed.token, b"tok-123");
        assert_eq!(parsed.scid, scid);
        assert_eq!(parsed.version, Version::DRAFT_29);

        // Wrong ODCID → tag mismatch → dropped.
        assert!(decode_retry(&packet, &ConnectionId::new(b"wrong")).is_none());
        // Flipped byte → dropped.
        let mut bad = packet.clone();
        bad[10] ^= 1;
        assert!(decode_retry(&bad, &odcid).is_none());
        // Truncated → dropped.
        assert!(decode_retry(&packet[..10], &odcid).is_none());
    }

    #[test]
    fn version_specific_keys_differ() {
        let odcid = ConnectionId::new(b"odcid");
        let t1 = integrity_tag(Version::V1, &odcid, b"same-bytes");
        let t29 = integrity_tag(Version::DRAFT_29, &odcid, b"same-bytes");
        assert_ne!(t1, t29);
    }
}
