//! HKDF-SHA256 (RFC 5869) and the TLS 1.3 `HKDF-Expand-Label` construction
//! (RFC 8446 §7.1) that QUIC's key derivation reuses (RFC 9001 §5).

use crate::hmac::hmac_sha256;
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
    mac: crate::hmac::HmacSha256,
}

impl Extractor {
    /// Precomputes the HMAC key schedule for `salt`.
    pub fn new(salt: &[u8]) -> Self {
        Extractor {
            mac: crate::hmac::HmacSha256::new(salt),
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
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut data = Vec::with_capacity(t.len() + info.len() + 1);
        data.extend_from_slice(&t);
        data.extend_from_slice(info);
        data.push(counter);
        let block = hmac_sha256(prk, &data);
        t = block.to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    out
}

/// `HKDF-Expand(prk, info, out.len())` written directly into `out` —
/// the allocation-free form used by cached key-derivation fast paths.
/// `out.len()` must be ≤ 255 × 32.
pub fn expand_into(prk: &[u8], info: &[u8], out: &mut [u8]) {
    let len = out.len();
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut t: [u8; DIGEST_LEN] = [0; DIGEST_LEN];
    let mut have_t = false;
    let mut counter = 1u8;
    let mut filled = 0usize;
    while filled < len {
        let mut mac = crate::hmac::HmacSha256::new(prk);
        if have_t {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize();
        have_t = true;
        let take = (len - filled).min(DIGEST_LEN);
        out[filled..filled + take].copy_from_slice(&t[..take]);
        filled += take;
        counter = counter.checked_add(1).expect("HKDF counter overflow");
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
    }

    /// RFC 5869 Appendix A, test case 2 (longer inputs, multi-block expand).
    #[test]
    fn rfc5869_case2() {
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
    }

    /// `expand_into` must agree with the allocating `expand` for every
    /// output length class (sub-block, exact block, multi-block).
    #[test]
    fn expand_into_matches_expand() {
        let prk = extract(b"salt", b"ikm");
        let info = b"label-info";
        for len in [1usize, 12, 16, 31, 32, 33, 64, 82] {
            let want = expand(&prk, info, len);
            let mut got = vec![0u8; len];
            expand_into(&prk, info, &mut got);
            assert_eq!(got, want, "len={len}");
        }
    }

    /// RFC 9001 §A.1: derive the client Initial secret and keys from the
    /// published Destination Connection ID. This pins down `expand_label`.
    #[test]
    fn rfc9001_initial_secrets() {
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
    }
}
