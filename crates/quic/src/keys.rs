//! QUIC packet protection keys (RFC 9001 §5).
//!
//! Every key comes out of one [`hkdf::Prk`] per secret: the Initial secret
//! yields the client and server secrets, and each traffic secret yields its
//! key, IV and header-protection key from one keyed HMAC. The one cache is
//! [`initial_keys_shared`], which lets the simulated server reuse the pair
//! the scanning client derived for the same Initial.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use qcrypto::aead::{Aead, AeadAlgorithm, HeaderProtector};
use qcrypto::hkdf;

use crate::version::Version;

/// Per-direction packet protection material.
///
/// The two AES key schedules are inline arrays, half a kilobyte together, so
/// the material sits behind one `Box`: connections keep four optional key
/// slots each and live in hash tables and slabs, where every empty slot and
/// every spare bucket would otherwise reserve the full size.
pub struct PacketKeys(Box<Protection>);

struct Protection {
    aead: Aead,
    iv: [u8; 12],
    hp: HeaderProtector,
    algorithm: AeadAlgorithm,
}

impl PacketKeys {
    /// Derives key/IV/header-protection key from a traffic secret using the
    /// `"quic key"`, `"quic iv"`, `"quic hp"` labels.
    pub fn from_secret(algorithm: AeadAlgorithm, secret: &[u8]) -> Self {
        let prk = hkdf::Prk::new(secret);
        let klen = algorithm.key_len();
        let mut key = [0u8; 32];
        let mut hp_key = [0u8; 32];
        let mut iv = [0u8; 12];
        prk.expand_label_into("quic key", &[], &mut key[..klen]);
        prk.expand_label_into("quic iv", &[], &mut iv);
        prk.expand_label_into("quic hp", &[], &mut hp_key[..klen]);
        PacketKeys(Box::new(Protection {
            aead: Aead::new(algorithm, &key[..klen]),
            iv,
            hp: HeaderProtector::new(algorithm, &hp_key[..klen]),
            algorithm,
        }))
    }

    /// Packet-protection nonce: IV XOR packet number (RFC 9001 §5.3).
    fn nonce(&self, packet_number: u64) -> [u8; 12] {
        let mut n = self.0.iv;
        let pn = packet_number.to_be_bytes();
        for i in 0..8 {
            n[4 + i] ^= pn[i];
        }
        n
    }

    /// AEAD-seals a packet payload. `aad` is the packet header with the
    /// unprotected packet number.
    pub fn seal(&self, packet_number: u64, aad: &[u8], payload: &[u8]) -> Vec<u8> {
        self.0.aead.seal(&self.nonce(packet_number), aad, payload)
    }

    /// AEAD-seals a packet payload, appending ciphertext || tag to `out` —
    /// byte-identical to [`PacketKeys::seal`] without the allocation.
    pub fn seal_into(&self, packet_number: u64, aad: &[u8], payload: &[u8], out: &mut Vec<u8>) {
        self.0
            .aead
            .seal_into(&self.nonce(packet_number), aad, payload, out);
    }

    /// AEAD-opens a packet payload.
    pub fn open(
        &self,
        packet_number: u64,
        aad: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, qcrypto::AuthError> {
        self.0
            .aead
            .open(&self.nonce(packet_number), aad, ciphertext)
    }

    /// AEAD-opens a packet payload, appending the plaintext to `out` only
    /// if the tag verifies — [`PacketKeys::open`] without the vector of its
    /// own.
    pub fn open_into(
        &self,
        packet_number: u64,
        aad: &[u8],
        ciphertext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), qcrypto::AuthError> {
        self.0
            .aead
            .open_into(&self.nonce(packet_number), aad, ciphertext, out)
    }

    /// Header-protection mask for a 16-byte ciphertext sample (RFC 9001 §5.4).
    pub fn hp_mask(&self, sample: &[u8; 16]) -> [u8; 5] {
        self.0.hp.mask(sample)
    }

    /// AEAD tag overhead in bytes.
    pub fn tag_len(&self) -> usize {
        self.0.algorithm.tag_len()
    }
}

/// The version-specific Initial salt (RFC 9001 §5.2 and the draft lineage).
pub fn initial_salt(version: Version) -> &'static [u8] {
    // v1 and draft-33/34.
    const SALT_V1: [u8; 20] = [
        0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17, 0x9a, 0xe6, 0xa4, 0xc8, 0x0c,
        0xad, 0xcc, 0xbb, 0x7f, 0x0a,
    ];
    // draft-29 through draft-32.
    const SALT_D29: [u8; 20] = [
        0xaf, 0xbf, 0xec, 0x28, 0x99, 0x93, 0xd2, 0x4c, 0x9e, 0x97, 0x86, 0xf1, 0x9c, 0x61, 0x11,
        0xe0, 0x43, 0x90, 0xa8, 0x99,
    ];
    // draft-23 through draft-28.
    const SALT_D23: [u8; 20] = [
        0xc3, 0xee, 0xf7, 0x12, 0xc7, 0x2e, 0xbb, 0x5a, 0x11, 0xa7, 0xd2, 0x43, 0x2b, 0xb4, 0x63,
        0x65, 0xbe, 0xf9, 0xf5, 0x02,
    ];
    match version {
        Version::V1 | Version::DRAFT_34 => &SALT_V1,
        v if v.is_ietf() && (0x1d..=0x20).contains(&(v.0 & 0xff)) => &SALT_D29,
        v if v.is_ietf() && (0x17..=0x1c).contains(&(v.0 & 0xff)) => &SALT_D23,
        _ => &SALT_V1,
    }
}

/// Client and server Initial packet keys for (version, client DCID)
/// (RFC 9001 §5.2). Initial packets always use AES-128-GCM.
pub fn initial_keys(version: Version, dcid: &[u8]) -> (PacketKeys, PacketKeys) {
    let initial_secret = hkdf::Prk::new(&hkdf::extract(initial_salt(version), dcid));
    let mut client_secret = [0u8; 32];
    let mut server_secret = [0u8; 32];
    initial_secret.expand_label_into("client in", &[], &mut client_secret);
    initial_secret.expand_label_into("server in", &[], &mut server_secret);
    (
        PacketKeys::from_secret(AeadAlgorithm::Aes128Gcm, &client_secret),
        PacketKeys::from_secret(AeadAlgorithm::Aes128Gcm, &server_secret),
    )
}

/// Both directions of Initial packet protection for one (version, DCID),
/// shared between the client connection and the simulated server endpoint.
pub struct InitialPair {
    /// Keys protecting client→server Initial packets.
    pub client: PacketKeys,
    /// Keys protecting server→client Initial packets.
    pub server: PacketKeys,
}

/// Memo key: version number plus the DCID padded into a fixed array —
/// avoids allocating on lookup.
type MemoKey = (u32, [u8; 20], u8);

/// `None` for a DCID longer than RFC 9000's 20 bytes, which a peer can
/// still put on the wire; such keys are derived and not memoized.
fn memo_key(version: Version, dcid: &[u8]) -> Option<MemoKey> {
    let mut padded = [0u8; 20];
    padded.get_mut(..dcid.len())?.copy_from_slice(dcid);
    Some((version.0, padded, dcid.len() as u8))
}

/// Entry bound before the memo is dropped wholesale. Initial keys are a pure
/// function of (version, DCID), so eviction only costs re-derivation.
const INITIAL_MEMO_MAX: usize = 4096;

fn initial_memo() -> &'static Mutex<HashMap<MemoKey, Arc<InitialPair>>> {
    static MEMO: OnceLock<Mutex<HashMap<MemoKey, Arc<InitialPair>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Memoized [`initial_keys`]: the client derives the pair once per
/// (version, DCID) and the simulated server endpoint's derivation for the
/// same Initial then hits the cache instead of re-running HKDF and the AES
/// key schedules. Determinism is unaffected — the derivation is a pure
/// function of its key, so a hit and a miss produce identical key material.
///
/// A miss derives outside the process-wide lock, so workers never wait on
/// each other's derivations; when two race on one key, the first insert
/// wins and both get that pair.
pub fn initial_keys_shared(version: Version, dcid: &[u8]) -> Arc<InitialPair> {
    let derive = || {
        let (client, server) = initial_keys(version, dcid);
        Arc::new(InitialPair { client, server })
    };
    let Some(key) = memo_key(version, dcid) else {
        return derive();
    };
    let memo = initial_memo();
    if let Some(pair) = memo.lock().expect("initial key memo poisoned").get(&key) {
        return Arc::clone(pair);
    }
    let pair = derive();
    let mut memo = memo.lock().expect("initial key memo poisoned");
    if memo.len() >= INITIAL_MEMO_MAX && !memo.contains_key(&key) {
        memo.clear();
    }
    Arc::clone(memo.entry(key).or_insert(pair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcodec::hex;

    /// RFC 9001 §A.1/A.2: keys derived from the appendix DCID produce the
    /// appendix header-protection mask on the appendix sample.
    #[test]
    fn rfc9001_appendix_a_client_keys() {
        let dcid = hex::decode("8394c8f03e515708").unwrap();
        let (client, _server) = initial_keys(Version::V1, &dcid);
        let sample: [u8; 16] = hex::decode("d1b1c98dd7689fb8ec11d242b123dc9b")
            .unwrap()
            .try_into()
            .unwrap();
        assert_eq!(hex::encode(&client.hp_mask(&sample)), "437b9aec36");
    }

    /// RFC 9001 §A.3: the server Initial's mask.
    #[test]
    fn rfc9001_appendix_a_server_keys() {
        let dcid = hex::decode("8394c8f03e515708").unwrap();
        let (_client, server) = initial_keys(Version::V1, &dcid);
        let sample: [u8; 16] = hex::decode("2cd0991cd25b0aac406a5816b6394100")
            .unwrap()
            .try_into()
            .unwrap();
        assert_eq!(hex::encode(&server.hp_mask(&sample)), "2ec0d8356a");
    }

    #[test]
    fn seal_open_roundtrip() {
        let (client, _) = initial_keys(Version::DRAFT_29, b"testcid");
        let aad = b"header bytes";
        let sealed = client.seal(7, aad, b"payload");
        assert_eq!(client.open(7, aad, &sealed).unwrap(), b"payload");
        assert!(client.open(8, aad, &sealed).is_err(), "wrong pn must fail");
        assert!(client.open(7, b"other aad", &sealed).is_err());
    }

    #[test]
    fn draft_salts_differ() {
        assert_ne!(initial_salt(Version::DRAFT_29), initial_salt(Version::V1));
        assert_ne!(
            initial_salt(Version::DRAFT_28),
            initial_salt(Version::DRAFT_29)
        );
        assert_eq!(initial_salt(Version::DRAFT_34), initial_salt(Version::V1));
        assert_eq!(
            initial_salt(Version::DRAFT_32),
            initial_salt(Version::DRAFT_29)
        );
    }

    /// The two draft salt lineages on RFC 9001 §A's DCID (§A pins v1
    /// above): both header-protection masks and one seal of a fixed
    /// plaintext in each direction, pinned by value.
    #[test]
    fn draft_initial_keys_pinned_by_value() {
        let dcid = hex::decode("8394c8f03e515708").unwrap();
        let sample = |s: &str| -> [u8; 16] { hex::decode(s).unwrap().try_into().unwrap() };
        let client_sample = sample("d1b1c98dd7689fb8ec11d242b123dc9b");
        let server_sample = sample("2cd0991cd25b0aac406a5816b6394100");
        for (version, client_mask, server_mask, client_seal, server_seal) in [
            (
                Version::DRAFT_29,
                "6941fdad68",
                "c98a1b8e09",
                "8d0f92f5f7670bcdb2ebf101a3271d7ccdc3c2eeb8bc03d7e10f756f6c785968",
                "eb104f2497010b49e73a2ee0bc991f0df31e7ab15db091700ff648877df756c8",
            ),
            (
                Version::DRAFT_27,
                "ec54db4d31",
                "71dda82f89",
                "25394a0e42ee2d2d147e922b5899d425d0efa03c06658f77ac87d4f38fcb4d7f",
                "026e2ee479f903df27c0d57362f7e9d5e7302d2e726c9240488959a354315743",
            ),
        ] {
            let (client, server) = initial_keys(version, &dcid);
            assert_eq!(hex::encode(&client.hp_mask(&client_sample)), client_mask);
            assert_eq!(hex::encode(&server.hp_mask(&server_sample)), server_mask);
            let seal = |keys: &PacketKeys| {
                hex::encode(&keys.seal(2, b"pinned header", b"pinned plaintext"))
            };
            assert_eq!(seal(&client), client_seal, "{version:?}");
            assert_eq!(seal(&server), server_seal, "{version:?}");
        }
    }

    /// The shared memo returns key material identical to a direct
    /// derivation, and repeated lookups return the same cached pair.
    #[test]
    fn shared_memo_matches_direct() {
        for version in [Version::V1, Version::DRAFT_29] {
            for dcid in [b"cid-one!".as_slice(), b"another-cid"] {
                let pair = initial_keys_shared(version, dcid);
                let again = initial_keys_shared(version, dcid);
                assert!(Arc::ptr_eq(&pair, &again));
                let (dc, ds) = initial_keys(version, dcid);
                let sealed = pair.client.seal(1, b"a", b"pt");
                assert_eq!(dc.open(1, b"a", &sealed).unwrap(), b"pt");
                let sealed = pair.server.seal(2, b"b", b"pt2");
                assert_eq!(ds.open(2, b"b", &sealed).unwrap(), b"pt2");
            }
        }
    }

    #[test]
    fn seal_into_matches_seal() {
        let (client, _) = initial_keys(Version::V1, b"seal-into-cid");
        let sealed = client.seal(11, b"aad", b"payload bytes");
        let mut out = vec![0xee];
        client.seal_into(11, b"aad", b"payload bytes", &mut out);
        assert_eq!(out[0], 0xee);
        assert_eq!(&out[1..], &sealed[..]);
    }

    #[test]
    fn keys_differ_across_versions() {
        let dcid = b"same-dcid";
        let (c1, _) = initial_keys(Version::V1, dcid);
        let (c29, _) = initial_keys(Version::DRAFT_29, dcid);
        let sealed_v1 = c1.seal(0, b"", b"x");
        // Different salt -> different keys -> decryption must fail.
        assert!(c29.open(0, b"", &sealed_v1).is_err());
    }
}
