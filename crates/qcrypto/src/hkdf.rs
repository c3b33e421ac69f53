//! HKDF-SHA256 (RFC 5869) and the TLS 1.3 `HKDF-Expand-Label`
//! construction (RFC 8446 §7.1) that QUIC's key derivation reuses (RFC 9001
//! §5).
//!
//! Every expansion goes through one [`Prk`]: a pseudorandom key whose HMAC
//! is keyed once, so a secret that yields several labels (key, IV and
//! header-protection key; client and server traffic secrets) hashes its two
//! padded key blocks once, not once per label.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;

/// `HKDF-Extract(salt, ikm)`.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// TLS 1.3 `HKDF-Expand-Label(secret, label, context, len)`: one
/// [`Prk::expand_label`] with `secret` keyed for this call only.
pub fn expand_label(secret: &[u8], label: &str, context: &[u8], len: usize) -> Vec<u8> {
    Prk::new(secret).expand_label(label, context, len)
}

/// The `"tls13 "` prefix every TLS 1.3 and QUIC label carries.
const LABEL_PREFIX: &[u8] = b"tls13 ";

/// The longest serialized `HkdfLabel`: a 2-byte length, then a label and a
/// context of at most 255 bytes each behind their length bytes.
const MAX_LABEL_INFO: usize = 2 + 1 + 255 + 1 + 255;

/// Serializes the `HkdfLabel` structure (RFC 8446 §7.1) into `buf` and
/// returns the bytes written.
fn label_info<'b>(
    label: &str,
    context: &[u8],
    len: usize,
    buf: &'b mut [u8; MAX_LABEL_INFO],
) -> &'b [u8] {
    let full_label = LABEL_PREFIX.len() + label.len();
    assert!(full_label <= 255, "HKDF label too long");
    assert!(context.len() <= 255, "HKDF context too long");
    let len = u16::try_from(len).expect("HKDF-Expand-Label output too long");
    buf[..2].copy_from_slice(&len.to_be_bytes());
    buf[2] = full_label as u8;
    let mut at = 3;
    for part in [LABEL_PREFIX, label.as_bytes()] {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    buf[at] = context.len() as u8;
    buf[at + 1..at + 1 + context.len()].copy_from_slice(context);
    &buf[..at + 1 + context.len()]
}

/// A pseudorandom key with its HMAC keyed once (both padded key blocks
/// hashed in [`Prk::new`]); every expansion from it starts from a clone of
/// that MAC and hashes only its own label.
pub struct Prk {
    mac: HmacSha256,
}

impl Prk {
    /// Keys HMAC with `prk`: a traffic secret, or an `HKDF-Extract` output.
    pub fn new(prk: &[u8]) -> Self {
        Prk {
            mac: HmacSha256::new(prk),
        }
    }

    /// `HKDF-Expand(prk, info, out.len())` written into `out`, which must be
    /// at most 255 × 32 bytes long.
    fn expand_into(&self, info: &[u8], out: &mut [u8]) {
        assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
        let mut t = [0u8; DIGEST_LEN];
        for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1..=255u8) {
            let mut mac = self.mac.clone();
            if counter > 1 {
                mac.update(&t);
            }
            mac.update(info);
            mac.update(&[counter]);
            t = mac.finalize();
            chunk.copy_from_slice(&t[..chunk.len()]);
        }
    }

    /// `HKDF-Expand-Label(prk, label, context, out.len())` written into
    /// `out`. The label is prefixed with `"tls13 "` as RFC 8446 requires;
    /// QUIC passes labels like `"quic key"` through this same construction.
    pub fn expand_label_into(&self, label: &str, context: &[u8], out: &mut [u8]) {
        let mut buf = [0u8; MAX_LABEL_INFO];
        self.expand_into(label_info(label, context, out.len(), &mut buf), out);
    }

    /// `HKDF-Expand-Label(prk, label, context, len)`.
    pub fn expand_label(&self, label: &str, context: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.expand_label_into(label, context, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::each_sha256_backend;
    use qcodec::hex;

    /// `HKDF-Expand(prk, info, len)`, as RFC 5869's vectors state it.
    fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        Prk::new(prk).expand_into(info, &mut out);
        out
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
    /// published Destination Connection ID, several labels from each keyed
    /// [`Prk`]. This pins down `HKDF-Expand-Label`.
    #[test]
    fn rfc9001_initial_secrets() {
        each_sha256_backend(|_| {
            let initial_salt = hex::decode("38762cf7f55934b34d179ae6a4c80cadccbb7f0a").unwrap();
            let dcid = hex::decode("8394c8f03e515708").unwrap();
            let initial_secret = Prk::new(&extract(&initial_salt, &dcid));
            let client_secret = initial_secret.expand_label("client in", &[], 32);
            assert_eq!(
                hex::encode(&client_secret),
                "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea"
            );
            let client = Prk::new(&client_secret);
            let mut key = [0u8; 16];
            client.expand_label_into("quic key", &[], &mut key);
            assert_eq!(hex::encode(&key), "1f369613dd76d5467730efcbe3b1a22d");
            let iv = client.expand_label("quic iv", &[], 12);
            assert_eq!(hex::encode(&iv), "fa044b2f42a3fd3b46fb255c");
            let hp = expand_label(&client_secret, "quic hp", &[], 16);
            assert_eq!(hex::encode(&hp), "9f50449e04a0e810283a1e9933adedd2");
            let server_secret = initial_secret.expand_label("server in", &[], 32);
            assert_eq!(
                hex::encode(&server_secret),
                "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b"
            );
        });
    }

    /// RFC 8448 §3 (simple 1-RTT handshake): the no-PSK early secret and
    /// its `derived` secret, then the handshake secret, both handshake
    /// traffic secrets and the server's record key and IV from the
    /// published shared secret and transcript hash.
    #[test]
    fn rfc8448_handshake_key_schedule() {
        each_sha256_backend(|_| {
            let hx = |s: &str| hex::decode(s).unwrap();
            let early_secret = extract(&[], &[0u8; DIGEST_LEN]);
            assert_eq!(
                early_secret.to_vec(),
                hx("33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a")
            );
            let empty_hash = crate::sha256::digest(&[]);
            let derived = Prk::new(&early_secret).expand_label("derived", &empty_hash, 32);
            assert_eq!(
                derived,
                hx("6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba")
            );
            let shared = hx("8bd4054fb55b9d63fdfbacf9f04b9f0d35e6d63f537563efd46272900f89492d");
            let handshake_secret = extract(&derived, &shared);
            assert_eq!(
                handshake_secret.to_vec(),
                hx("1dc826e93606aa6fdc0aadc12f741b01046aa6b99f691ed221a9f0ca043fbeac")
            );
            let transcript = hx("860c06edc07858ee8e78f0e7428c58edd6b43f2ca3e6e95f02ed063cf0e1cad8");
            let prk = Prk::new(&handshake_secret);
            assert_eq!(
                prk.expand_label("c hs traffic", &transcript, 32),
                hx("b3eddb126e067f35a780b3abf45e2d8f3b1a950738f52e9600746a0e27a55a21")
            );
            let server = prk.expand_label("s hs traffic", &transcript, 32);
            assert_eq!(
                server,
                hx("b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38")
            );
            let server = Prk::new(&server);
            assert_eq!(
                server.expand_label("key", &[], 16),
                hx("3fce516009c21727d0f2e4e86ee403bc")
            );
            assert_eq!(
                server.expand_label("iv", &[], 12),
                hx("5d313eb2671276ee13000b30")
            );
        });
    }

    /// The serialized `HkdfLabel` at its bounds: a 249-byte label (255 with
    /// the prefix) and a 255-byte context fill the stack buffer exactly,
    /// and the result equals `HKDF-Expand` over the structure built by hand.
    #[test]
    fn label_info_fills_its_buffer_at_the_bounds() {
        let label = "l".repeat(249);
        let context = [7u8; 255];
        let mut buf = [0u8; MAX_LABEL_INFO];
        let info = label_info(&label, &context, 40, &mut buf).to_vec();
        assert_eq!(info.len(), MAX_LABEL_INFO);
        let mut want = vec![0, 40, 255];
        want.extend_from_slice(b"tls13 ");
        want.extend_from_slice(label.as_bytes());
        want.push(255);
        want.extend_from_slice(&context);
        assert_eq!(info, want);
        let prk = extract(b"salt", b"ikm");
        assert_eq!(
            expand_label(&prk, &label, &context, 40),
            expand(&prk, &want, 40)
        );
    }
}
