//! TLS 1.3 key schedule (RFC 8446 §7.1), SHA-256 throughout.
//!
//! QUIC pulls the handshake and application traffic secrets out of this
//! schedule to derive its packet-protection keys (RFC 9001 §5).

use qcrypto::hkdf;
use qcrypto::hmac::hmac_sha256;
use qcrypto::sha256::{Sha256, DIGEST_LEN};
use qcrypto::x25519;

/// Running transcript hash over handshake messages.
#[derive(Clone, Default)]
pub struct Transcript {
    hasher: Sha256,
}

impl Transcript {
    /// Fresh empty transcript.
    pub fn new() -> Self {
        Transcript {
            hasher: Sha256::new(),
        }
    }

    /// Absorbs an encoded handshake message (header included).
    pub fn add(&mut self, msg_bytes: &[u8]) {
        self.hasher.update(msg_bytes);
    }

    /// Current transcript hash.
    pub fn hash(&self) -> [u8; DIGEST_LEN] {
        self.hasher.clone().finalize()
    }
}

/// Secrets derived once the ServerHello is on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeSecrets {
    /// client_handshake_traffic_secret.
    pub client: Vec<u8>,
    /// server_handshake_traffic_secret.
    pub server: Vec<u8>,
    /// The handshake secret itself (input to the master secret).
    handshake_secret: [u8; DIGEST_LEN],
}

/// Secrets derived at the server Finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSecrets {
    /// client_application_traffic_secret_0.
    pub client: Vec<u8>,
    /// server_application_traffic_secret_0.
    pub server: Vec<u8>,
}

/// The (EC)DHE shared secret of our `secret` and the peer's key share, or
/// `None` when it is all zeros: a low-order share such as u = 0 or u = 1
/// yields zero whatever our secret, which would fix the handshake secret.
/// RFC 8446 §7.4.2 requires aborting then; both ends send illegal_parameter.
pub(crate) fn dh_shared_secret(secret: &[u8; 32], peer_public: &[u8; 32]) -> Option<[u8; 32]> {
    let shared = x25519::x25519(secret, peer_public);
    (shared.iter().fold(0, |acc, b| acc | b) != 0).then_some(shared)
}

/// `SHA-256("")`, the context of every `Derive-Secret(., "derived", "")`.
const EMPTY_HASH: [u8; DIGEST_LEN] = [
    0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f, 0xb9, 0x24,
    0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b, 0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b, 0x78, 0x52, 0xb8, 0x55,
];

/// `Derive-Secret(early_secret, "derived", "")` for the early secret with no
/// PSK, `HKDF-Extract(0, 0³²)`: the salt of every handshake secret (RFC 8448
/// §3 lists both values).
const DERIVED_FROM_EARLY: [u8; DIGEST_LEN] = [
    0x6f, 0x26, 0x15, 0xa1, 0x08, 0xc7, 0x02, 0xc5, 0x67, 0x8f, 0x54, 0xfc, 0x9d, 0xba, 0xb6, 0x97,
    0x16, 0xc0, 0x76, 0x18, 0x9c, 0x48, 0x25, 0x0c, 0xeb, 0xea, 0xc3, 0x57, 0x6c, 0x36, 0x11, 0xba,
];

/// Derives the handshake traffic secrets from the (EC)DHE shared secret and
/// the transcript hash through ServerHello.
pub fn handshake_secrets(shared_secret: &[u8], transcript_to_sh: &[u8; 32]) -> HandshakeSecrets {
    let handshake_secret = hkdf::extract(&DERIVED_FROM_EARLY, shared_secret);
    let prk = hkdf::Prk::new(&handshake_secret);
    HandshakeSecrets {
        client: prk.expand_label("c hs traffic", transcript_to_sh, DIGEST_LEN),
        server: prk.expand_label("s hs traffic", transcript_to_sh, DIGEST_LEN),
        handshake_secret,
    }
}

/// Derives the application traffic secrets from the handshake secrets and the
/// transcript hash through server Finished.
pub fn app_secrets(hs: &HandshakeSecrets, transcript_to_server_fin: &[u8; 32]) -> AppSecrets {
    let mut derived = [0u8; DIGEST_LEN];
    hkdf::Prk::new(&hs.handshake_secret).expand_label_into("derived", &EMPTY_HASH, &mut derived);
    let master_secret = hkdf::Prk::new(&hkdf::extract(&derived, &[0u8; DIGEST_LEN]));
    AppSecrets {
        client: master_secret.expand_label("c ap traffic", transcript_to_server_fin, DIGEST_LEN),
        server: master_secret.expand_label("s ap traffic", transcript_to_server_fin, DIGEST_LEN),
    }
}

/// Computes Finished verify_data for the given traffic secret and transcript
/// hash (RFC 8446 §4.4.4).
pub fn finished_verify_data(traffic_secret: &[u8], transcript_hash: &[u8; 32]) -> Vec<u8> {
    let mut finished_key = [0u8; DIGEST_LEN];
    hkdf::Prk::new(traffic_secret).expand_label_into("finished", &[], &mut finished_key);
    hmac_sha256(&finished_key, transcript_hash).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcrypto::sha256;

    /// The three no-PSK constants, recomputed and held to RFC 8448 §3.
    #[test]
    fn constants_match_rfc8448() {
        let hex = |s: &str| qcodec::hex::decode(s).unwrap();
        let early_secret = hkdf::extract(&[], &[0u8; DIGEST_LEN]);
        assert_eq!(
            early_secret.to_vec(),
            hex("33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a")
        );
        let empty_hash = sha256::digest(&[]);
        assert_eq!(
            empty_hash.to_vec(),
            hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
        assert_eq!(empty_hash, EMPTY_HASH);
        let derived =
            hkdf::Prk::new(&early_secret).expand_label("derived", &empty_hash, DIGEST_LEN);
        assert_eq!(
            derived,
            hex("6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba")
        );
        assert_eq!(derived, DERIVED_FROM_EARLY);
    }

    #[test]
    fn transcript_is_plain_sha256() {
        let mut t = Transcript::new();
        t.add(b"abc");
        assert_eq!(t.hash(), sha256::digest(b"abc"));
        t.add(b"def");
        assert_eq!(t.hash(), sha256::digest(b"abcdef"));
    }

    #[test]
    fn schedule_is_deterministic_and_asymmetric() {
        let shared = [0x42u8; 32];
        let th = sha256::digest(b"transcript");
        let hs1 = handshake_secrets(&shared, &th);
        let hs2 = handshake_secrets(&shared, &th);
        assert_eq!(hs1, hs2);
        assert_ne!(hs1.client, hs1.server);

        let th2 = sha256::digest(b"transcript through fin");
        let app = app_secrets(&hs1, &th2);
        assert_ne!(app.client, app.server);
        assert_ne!(app.client, hs1.client);
    }

    #[test]
    fn different_shared_secret_different_keys() {
        let th = sha256::digest(b"t");
        let a = handshake_secrets(&[1u8; 32], &th);
        let b = handshake_secrets(&[2u8; 32], &th);
        assert_ne!(a.client, b.client);
    }

    #[test]
    fn finished_depends_on_secret_and_transcript() {
        let th1 = sha256::digest(b"one");
        let th2 = sha256::digest(b"two");
        let v1 = finished_verify_data(b"secret-a", &th1);
        assert_eq!(v1.len(), 32);
        assert_ne!(v1, finished_verify_data(b"secret-a", &th2));
        assert_ne!(v1, finished_verify_data(b"secret-b", &th1));
    }
}
