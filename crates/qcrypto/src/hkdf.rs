//! HKDF-SHA256 (RFC 5869) and the TLS 1.3 `HKDF-Expand-Label` construction
//! (RFC 8446 §7.1) that QUIC's key derivation reuses (RFC 9001 §5).

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;

/// `HKDF-Extract(salt, ikm)`.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// A reusable `HKDF-Extract` context for one fixed salt.
///
/// HMAC keying hashes two padded key blocks; for a scanner deriving Initial
/// secrets for millions of connection IDs under the same handful of
/// version-specific salts, that per-call setup is pure overhead. The
/// extractor precomputes the padded-key state once so each [`Extractor::extract`]
/// call only hashes the input keying material.
#[derive(Clone)]
pub struct Extractor {
    mac: HmacSha256,
}

impl Extractor {
    /// Precomputes the HMAC key schedule for `salt`.
    pub fn new(salt: &[u8]) -> Self {
        Extractor {
            mac: HmacSha256::new(salt),
        }
    }

    /// `HKDF-Extract(salt, ikm)` with the cached salt state.
    pub fn extract(&self, ikm: &[u8]) -> [u8; DIGEST_LEN] {
        let mut mac = self.mac.clone();
        mac.update(ikm);
        mac.finalize()
    }
}

/// `HKDF-Expand(prk, info, len)`. `len` must be ≤ 255 × 32.
pub fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let mut out = vec![0; len];
    expand_into(prk, info, &mut out);
    out
}

/// `HKDF-Expand(prk, info, out.len())` written directly into `out` —
/// the allocation-free form used by cached key-derivation fast paths.
/// `out.len()` must be ≤ 255 × 32. The PRK is keyed once per call; each
/// output block starts from a clone of that MAC.
pub fn expand_into(prk: &[u8], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
    let keyed = HmacSha256::new(prk);
    let mut t = [0u8; DIGEST_LEN];
    for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1..=255u8) {
        let mut mac = keyed.clone();
        if counter > 1 {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// TLS 1.3 `HKDF-Expand-Label(secret, label, context, len)`.
///
/// The label is implicitly prefixed with `"tls13 "` as required by RFC 8446;
/// QUIC passes labels like `"quic key"` through this same construction.
pub fn expand_label(secret: &[u8], label: &str, context: &[u8], len: usize) -> Vec<u8> {
    expand(secret, &label_info(label, context, len), len)
}

/// The serialized `HkdfLabel` structure fed to `HKDF-Expand` by
/// [`expand_label`]. Exposed so hot derivation paths can precompute it for
/// fixed (label, len) pairs instead of rebuilding it per call.
pub fn label_info(label: &str, context: &[u8], len: usize) -> Vec<u8> {
    const PREFIX: &[u8] = b"tls13 ";
    let mut info = Vec::with_capacity(4 + PREFIX.len() + label.len() + context.len());
    info.extend_from_slice(&(len as u16).to_be_bytes());
    info.push((PREFIX.len() + label.len()) as u8);
    info.extend_from_slice(PREFIX);
    info.extend_from_slice(label.as_bytes());
    info.push(context.len() as u8);
    info.extend_from_slice(context);
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::each_sha256_backend;
    use qcodec::hex;

    #[test]
    fn extractor_matches_oneshot() {
        let salt = b"some-salt";
        let ex = Extractor::new(salt);
        for ikm in [b"a".as_slice(), b"", b"a-longer-input-keying-material"] {
            assert_eq!(ex.extract(ikm), extract(salt, ikm));
        }
    }

    /// RFC 5869 Appendix A, test case 1.
    #[test]
    fn rfc5869_case1() {
        each_sha256_backend(|_| {
            let ikm = [0x0b; 22];
            let salt = hex::decode("000102030405060708090a0b0c").unwrap();
            let info = hex::decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
            let prk = extract(&salt, &ikm);
            assert_eq!(
                hex::encode(&prk),
                "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
            );
            let okm = expand(&prk, &info, 42);
            assert_eq!(
                hex::encode(&okm),
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
            );
        });
    }

    /// RFC 5869 Appendix A, test case 2 (longer inputs, multi-block expand).
    #[test]
    fn rfc5869_case2() {
        each_sha256_backend(|_| {
            let ikm: Vec<u8> = (0x00..=0x4f).collect();
            let salt: Vec<u8> = (0x60..=0xaf).collect();
            let info: Vec<u8> = (0xb0..=0xff).collect();
            let prk = extract(&salt, &ikm);
            let okm = expand(&prk, &info, 82);
            assert_eq!(
                hex::encode(&okm),
                "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
                 59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
                 cc30c58179ec3e87c14c01d5c1f3434f1d87"
            );
        });
    }

    /// Every output length class (sub-block, exact block, multi-block)
    /// equals RFC 5869's definition, T(n) = HMAC(PRK, T(n-1) | info | n),
    /// with the PRK keyed afresh for every block.
    #[test]
    fn expand_matches_the_rfc_definition() {
        let prk = extract(b"salt", b"ikm");
        let info = b"label-info";
        for len in [0usize, 1, 12, 16, 31, 32, 33, 64, 82, 255 * DIGEST_LEN] {
            let mut want = Vec::new();
            let mut t = Vec::new();
            for counter in 1..=len.div_ceil(DIGEST_LEN) as u8 {
                t = hmac_sha256(&prk, &[&t[..], info, &[counter]].concat()).to_vec();
                want.extend_from_slice(&t);
            }
            want.truncate(len);
            assert_eq!(expand(&prk, info, len), want, "len={len}");
        }
    }

    /// RFC 9001 §A.1: derive the client Initial secret and keys from the
    /// published Destination Connection ID. This pins down `expand_label`.
    #[test]
    fn rfc9001_initial_secrets() {
        each_sha256_backend(|_| {
            let initial_salt = hex::decode("38762cf7f55934b34d179ae6a4c80cadccbb7f0a").unwrap();
            let dcid = hex::decode("8394c8f03e515708").unwrap();
            let initial_secret = extract(&initial_salt, &dcid);
            let client_secret = expand_label(&initial_secret, "client in", &[], 32);
            assert_eq!(
                hex::encode(&client_secret),
                "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea"
            );
            let key = expand_label(&client_secret, "quic key", &[], 16);
            assert_eq!(hex::encode(&key), "1f369613dd76d5467730efcbe3b1a22d");
            let iv = expand_label(&client_secret, "quic iv", &[], 12);
            assert_eq!(hex::encode(&iv), "fa044b2f42a3fd3b46fb255c");
            let hp = expand_label(&client_secret, "quic hp", &[], 16);
            assert_eq!(hex::encode(&hp), "9f50449e04a0e810283a1e9933adedd2");
            let server_secret = expand_label(&initial_secret, "server in", &[], 32);
            assert_eq!(
                hex::encode(&server_secret),
                "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b"
            );
        });
    }
}
