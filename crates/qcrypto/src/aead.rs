//! Cipher-agnostic AEAD facade used by the TLS record layer and QUIC packet
//! protection, plus the QUIC header-protection mask primitives (RFC 9001 §5.4).

use crate::aes::Aes;
use crate::chacha20;
use crate::gcm::AesGcm;
use crate::poly1305::Poly1305;
use crate::AuthError;

/// AEAD algorithms the stack supports — the TLS 1.3 subset QUIC allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AeadAlgorithm {
    /// TLS_AES_128_GCM_SHA256 (mandatory for QUIC Initial packets).
    Aes128Gcm,
    /// TLS_AES_256_GCM_SHA384 family member; we pair it with SHA-256 HKDF
    /// for simplicity (documented substitution).
    Aes256Gcm,
    /// TLS_CHACHA20_POLY1305_SHA256.
    ChaCha20Poly1305,
}

impl AeadAlgorithm {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            AeadAlgorithm::Aes128Gcm => 16,
            AeadAlgorithm::Aes256Gcm | AeadAlgorithm::ChaCha20Poly1305 => 32,
        }
    }

    /// Authentication tag length in bytes.
    pub fn tag_len(self) -> usize {
        16
    }
}

// The AES key schedule is held inline on purpose (no allocation per key), so
// the variants differ in size; boxing it would bring the allocation back.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Gcm(AesGcm),
    ChaCha { key: [u8; 32] },
}

/// A sealed/open-capable AEAD context bound to one key.
pub struct Aead {
    inner: Inner,
    algorithm: AeadAlgorithm,
}

impl Aead {
    /// Builds an AEAD context; `key` must match the algorithm's key length.
    pub fn new(algorithm: AeadAlgorithm, key: &[u8]) -> Self {
        assert_eq!(key.len(), algorithm.key_len(), "AEAD key length mismatch");
        let inner = match algorithm {
            AeadAlgorithm::Aes128Gcm | AeadAlgorithm::Aes256Gcm => Inner::Gcm(AesGcm::new(key)),
            AeadAlgorithm::ChaCha20Poly1305 => Inner::ChaCha {
                key: key.try_into().unwrap(),
            },
        };
        Aead { inner, algorithm }
    }

    /// The algorithm this context was built for.
    pub fn algorithm(&self) -> AeadAlgorithm {
        self.algorithm
    }

    /// Encrypts `plaintext`, returning ciphertext || tag.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + self.algorithm.tag_len());
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Encrypts `plaintext` and appends ciphertext || tag to `out`,
    /// reusing `out`'s existing capacity instead of allocating a fresh
    /// vector per packet.
    pub fn seal_into(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        match &self.inner {
            Inner::Gcm(g) => g.seal_append(nonce, aad, plaintext, out),
            Inner::ChaCha { key } => chacha_seal_append(key, nonce, aad, plaintext, out),
        }
    }

    /// Decrypts and authenticates ciphertext || tag.
    pub fn open(&self, nonce: &[u8; 12], aad: &[u8], ct: &[u8]) -> Result<Vec<u8>, AuthError> {
        let mut out = Vec::with_capacity(ct.len().saturating_sub(self.algorithm.tag_len()));
        self.open_into(nonce, aad, ct, &mut out)?;
        Ok(out)
    }

    /// Authenticates ciphertext || tag and, only if the tag verifies,
    /// appends the plaintext to `out` — the receive path decrypts straight
    /// into the buffer that becomes the packet payload. On failure `out` is
    /// left as it was.
    pub fn open_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ct: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        match &self.inner {
            Inner::Gcm(g) => g.open_append(nonce, aad, ct, out),
            Inner::ChaCha { key } => chacha_open_append(key, nonce, aad, ct, out),
        }
    }
}

fn poly_key(key: &[u8; 32], nonce: &[u8; 12]) -> [u8; 32] {
    let block0 = chacha20::block(key, 0, nonce);
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block0[..32]);
    pk
}

/// The RFC 8439 §2.8 MAC input — AAD and ciphertext each zero-padded to a
/// 16-byte boundary, then both lengths — fed to Poly1305 piece by piece.
fn chacha_mac(pk: &[u8; 32], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(pk);
    for part in [aad, ct] {
        mac.update(part);
        mac.update(&[0u8; 15][..part.len().next_multiple_of(16) - part.len()]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ct.len() as u64).to_le_bytes());
    mac.finalize()
}

fn chacha_seal_append(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], pt: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(pt.len() + 16);
    out.extend_from_slice(pt);
    chacha20::xor(key, 1, nonce, &mut out[start..]);
    let tag = chacha_mac(&poly_key(key, nonce), aad, &out[start..]);
    out.extend_from_slice(&tag);
}

fn chacha_open_append(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    ct_and_tag: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), AuthError> {
    let ct_len = ct_and_tag.len().checked_sub(16).ok_or(AuthError)?;
    let (ct, tag) = ct_and_tag.split_at(ct_len);
    let want = chacha_mac(&poly_key(key, nonce), aad, ct);
    let diff = want.iter().zip(tag).fold(0u8, |acc, (a, b)| acc | (a ^ b));
    if diff != 0 {
        return Err(AuthError);
    }
    let start = out.len();
    out.extend_from_slice(ct);
    chacha20::xor(key, 1, nonce, &mut out[start..]);
    Ok(())
}

/// QUIC header protection (RFC 9001 §5.4): computes the 5-byte mask from the
/// 16-byte ciphertext sample.
pub fn header_protection_mask(
    algorithm: AeadAlgorithm,
    hp_key: &[u8],
    sample: &[u8; 16],
) -> [u8; 5] {
    HeaderProtector::new(algorithm, hp_key).mask(sample)
}

/// A header-protection context bound to one key.
///
/// For AES this caches the expanded round-key schedule: a mask is computed
/// for every protected packet sent or received, and re-running the AES key
/// expansion each time costs more than the single block encryption the mask
/// actually needs.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)] // inline key schedule, as in `Aead`
pub enum HeaderProtector {
    /// AES-ECB over the sample, round keys pre-expanded.
    Aes(Aes),
    /// ChaCha20 block keyed by the sample's counter/nonce split.
    ChaCha([u8; 32]),
}

impl HeaderProtector {
    /// Builds a protector; `hp_key` must match the algorithm's key length.
    pub fn new(algorithm: AeadAlgorithm, hp_key: &[u8]) -> Self {
        match algorithm {
            AeadAlgorithm::Aes128Gcm | AeadAlgorithm::Aes256Gcm => {
                HeaderProtector::Aes(Aes::new(hp_key))
            }
            AeadAlgorithm::ChaCha20Poly1305 => {
                HeaderProtector::ChaCha(hp_key.try_into().expect("chacha hp key must be 32 bytes"))
            }
        }
    }

    /// The 5-byte mask for one 16-byte ciphertext sample.
    pub fn mask(&self, sample: &[u8; 16]) -> [u8; 5] {
        let mut mask = [0u8; 5];
        match self {
            HeaderProtector::Aes(aes) => {
                let block = aes.encrypt(sample);
                mask.copy_from_slice(&block[..5]);
            }
            HeaderProtector::ChaCha(key) => {
                let counter = u32::from_le_bytes(sample[..4].try_into().unwrap());
                let nonce: [u8; 12] = sample[4..].try_into().unwrap();
                let block = chacha20::block(key, counter, &nonce);
                mask.copy_from_slice(&block[..5]);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcodec::hex;

    /// RFC 8439 §2.8.2 ChaCha20-Poly1305 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] =
            hex::decode("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .unwrap()
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = hex::decode("070000004041424344454647")
            .unwrap()
            .try_into()
            .unwrap();
        let aad = hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let aead = Aead::new(AeadAlgorithm::ChaCha20Poly1305, &key);
        let sealed = aead.seal(&nonce, &aad, pt);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex::encode(tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    /// RFC 9001 §A.5 ChaCha20 header-protection mask.
    #[test]
    fn rfc9001_chacha_hp() {
        let hp = hex::decode("25a282b9e82f06f21f488917a4fc8f1b73573685608597d0efcb076b0ab7a7a4")
            .unwrap();
        let sample: [u8; 16] = hex::decode("5e5cd55c41f69080575d7999c25a5bfb")
            .unwrap()
            .try_into()
            .unwrap();
        let mask = header_protection_mask(AeadAlgorithm::ChaCha20Poly1305, &hp, &sample);
        assert_eq!(hex::encode(&mask), "aefefe7d03");
    }

    /// RFC 9001 §A.2 AES header-protection mask for the client Initial.
    #[test]
    fn rfc9001_aes_hp() {
        let hp = hex::decode("9f50449e04a0e810283a1e9933adedd2").unwrap();
        let sample: [u8; 16] = hex::decode("d1b1c98dd7689fb8ec11d242b123dc9b")
            .unwrap()
            .try_into()
            .unwrap();
        let mask = header_protection_mask(AeadAlgorithm::Aes128Gcm, &hp, &sample);
        assert_eq!(hex::encode(&mask), "437b9aec36");
    }

    #[test]
    fn all_algorithms_roundtrip() {
        for alg in [
            AeadAlgorithm::Aes128Gcm,
            AeadAlgorithm::Aes256Gcm,
            AeadAlgorithm::ChaCha20Poly1305,
        ] {
            let key = vec![0x11u8; alg.key_len()];
            let aead = Aead::new(alg, &key);
            let nonce = [3u8; 12];
            let sealed = aead.seal(&nonce, b"hdr", b"payload");
            assert_eq!(sealed.len(), 7 + alg.tag_len());
            assert_eq!(aead.open(&nonce, b"hdr", &sealed).unwrap(), b"payload");
            assert!(aead.open(&nonce, b"HDR", &sealed).is_err(), "{alg:?}");
        }
    }

    /// `seal_into` appends exactly what `seal` returns, regardless of what
    /// the output buffer already holds.
    #[test]
    fn seal_into_matches_seal() {
        for alg in [
            AeadAlgorithm::Aes128Gcm,
            AeadAlgorithm::Aes256Gcm,
            AeadAlgorithm::ChaCha20Poly1305,
        ] {
            let key = vec![0x22u8; alg.key_len()];
            let aead = Aead::new(alg, &key);
            let nonce = [5u8; 12];
            let sealed = aead.seal(&nonce, b"aad", b"hello fast path");
            let mut out = b"prefix".to_vec();
            aead.seal_into(&nonce, b"aad", b"hello fast path", &mut out);
            assert_eq!(&out[..6], b"prefix", "{alg:?}");
            assert_eq!(&out[6..], &sealed[..], "{alg:?}");
        }
    }
}
