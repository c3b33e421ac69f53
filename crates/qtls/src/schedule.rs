//! TLS 1.3 key schedule (RFC 8446 §7.1), SHA-256 throughout.
//!
//! QUIC pulls the handshake and application traffic secrets out of this
//! schedule to derive its packet-protection keys (RFC 9001 §5).

use qcrypto::hkdf;
use qcrypto::hmac::hmac_sha256;
use qcrypto::sha256::{self, Sha256, DIGEST_LEN};
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

/// Derives the handshake traffic secrets from the (EC)DHE shared secret and
/// the transcript hash through ServerHello.
pub fn handshake_secrets(shared_secret: &[u8], transcript_to_sh: &[u8; 32]) -> HandshakeSecrets {
    // Early secret with no PSK.
    let early_secret = hkdf::extract(&[], &[0u8; DIGEST_LEN]);
    let empty_hash = sha256::digest(&[]);
    let derived = hkdf::expand_label(&early_secret, "derived", &empty_hash, DIGEST_LEN);
    let handshake_secret = hkdf::extract(&derived, shared_secret);
    let client = hkdf::expand_label(
        &handshake_secret,
        "c hs traffic",
        transcript_to_sh,
        DIGEST_LEN,
    );
    let server = hkdf::expand_label(
        &handshake_secret,
        "s hs traffic",
        transcript_to_sh,
        DIGEST_LEN,
    );
    HandshakeSecrets {
        client,
        server,
        handshake_secret,
    }
}

/// Derives the application traffic secrets from the handshake secrets and the
/// transcript hash through server Finished.
pub fn app_secrets(hs: &HandshakeSecrets, transcript_to_server_fin: &[u8; 32]) -> AppSecrets {
    let empty_hash = sha256::digest(&[]);
    let derived = hkdf::expand_label(&hs.handshake_secret, "derived", &empty_hash, DIGEST_LEN);
    let master_secret = hkdf::extract(&derived, &[0u8; DIGEST_LEN]);
    let client = hkdf::expand_label(
        &master_secret,
        "c ap traffic",
        transcript_to_server_fin,
        DIGEST_LEN,
    );
    let server = hkdf::expand_label(
        &master_secret,
        "s ap traffic",
        transcript_to_server_fin,
        DIGEST_LEN,
    );
    AppSecrets { client, server }
}

/// Computes Finished verify_data for the given traffic secret and transcript
/// hash (RFC 8446 §4.4.4).
pub fn finished_verify_data(traffic_secret: &[u8], transcript_hash: &[u8; 32]) -> Vec<u8> {
    let finished_key = hkdf::expand_label(traffic_secret, "finished", &[], DIGEST_LEN);
    hmac_sha256(&finished_key, transcript_hash).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

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
