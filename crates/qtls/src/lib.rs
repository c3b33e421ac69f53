//! A TLS 1.3 subset (RFC 8446) sized for QUIC and for stateful TLS-over-TCP
//! scanning — the two uses the paper's QScanner and Goscanner have.
//!
//! The handshake engine ([`client::ClientHandshake`], [`server::ServerHandshake`])
//! is sans-IO: it consumes and produces raw handshake messages grouped by
//! encryption level, so the same engine runs embedded in QUIC CRYPTO frames
//! (RFC 9001) and under the TCP record layer ([`record`]).
//!
//! Nothing is shared between handshakes: each server handshake selects and
//! encodes its own certificate, and every secret in the key schedule and
//! the record layer is expanded through one keyed `qcrypto::hkdf::Prk`.
//!
//! Deliberate simplifications (documented in DESIGN.md):
//! * Certificates use a compact TLV format, not X.509/ASN.1, and signatures
//!   are an HMAC-based scheme (`SimSig`) under a simulated CA — the
//!   measurement-relevant properties (identity comparison, SNI-dependent
//!   selection, self-signed artifacts, weekly rotation) survive.
//! * The HKDF hash is SHA-256 for every suite, including 0x1302.
//! * No session resumption, 0-RTT, HelloRetryRequest, or client auth — the
//!   scanners never use them.

pub mod cert;
pub mod cipher;
pub mod client;
pub mod ext;
pub mod msgs;
pub mod record;
pub mod schedule;
pub mod server;

pub use cert::{Certificate, CertificateAuthority};
pub use cipher::CipherSuite;
pub use client::{ClientConfig, ClientHandshake, PeerTlsInfo};
pub use ext::NamedGroup;
pub use server::{NoSniBehavior, ServerConfig, ServerHandshake};

/// Encryption levels at which handshake bytes travel. QUIC maps these to
/// packet-number spaces (RFC 9001 §4.1.4); the TCP record layer maps them to
/// plaintext vs. handshake-encrypted records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Initial: ClientHello / ServerHello.
    Initial,
    /// Handshake: EncryptedExtensions … Finished.
    Handshake,
    /// Application data.
    App,
}

/// Events emitted by the handshake engines as they advance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsEvent {
    /// Handshake bytes to transmit at the given level (QUIC: CRYPTO frames).
    SendHandshake(Level, Vec<u8>),
    /// Handshake traffic secrets are available; install Handshake-level keys.
    HandshakeKeys(schedule::HandshakeSecrets),
    /// Application traffic secrets are available; install 1-RTT keys.
    AppKeys(schedule::AppSecrets),
    /// The handshake is complete and authenticated.
    Complete,
}

/// TLS protocol versions the scanners distinguish (legacy values on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TlsVersion {
    /// TLS 1.2 (0x0303).
    Tls12,
    /// TLS 1.3 (0x0304).
    Tls13,
}

impl TlsVersion {
    /// Wire encoding.
    pub fn wire(self) -> u16 {
        match self {
            TlsVersion::Tls12 => 0x0303,
            TlsVersion::Tls13 => 0x0304,
        }
    }

    /// Human-readable label used in scan results.
    pub fn label(self) -> &'static str {
        match self {
            TlsVersion::Tls12 => "TLS 1.2",
            TlsVersion::Tls13 => "TLS 1.3",
        }
    }
}

/// TLS alert descriptions the stack emits (RFC 8446 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alert {
    /// 40 — generic handshake failure. QUIC surfaces it as error 0x128, the
    /// most common stateful-scan error in the paper (Table 3).
    HandshakeFailure,
    /// 112 — unrecognized SNI.
    UnrecognizedName,
    /// 120 — no common ALPN protocol.
    NoApplicationProtocol,
    /// 70 — protocol version not supported.
    ProtocolVersion,
    /// 47 — illegal parameter.
    IllegalParameter,
}

impl Alert {
    /// The one-byte alert description code.
    pub fn code(self) -> u8 {
        match self {
            Alert::HandshakeFailure => 40,
            Alert::UnrecognizedName => 112,
            Alert::NoApplicationProtocol => 120,
            Alert::ProtocolVersion => 70,
            Alert::IllegalParameter => 47,
        }
    }

    /// Reverse mapping from the wire code.
    pub fn from_code(code: u8) -> Option<Alert> {
        Some(match code {
            40 => Alert::HandshakeFailure,
            112 => Alert::UnrecognizedName,
            120 => Alert::NoApplicationProtocol,
            70 => Alert::ProtocolVersion,
            47 => Alert::IllegalParameter,
            _ => return None,
        })
    }
}

/// Errors surfaced by the handshake engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// The peer sent an alert.
    PeerAlert(u8),
    /// We must send an alert and abort.
    LocalAlert(Alert, &'static str),
    /// Malformed message.
    Decode(&'static str),
    /// Message received in the wrong state.
    UnexpectedMessage(&'static str),
    /// Finished verify-data mismatch.
    BadFinished,
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::PeerAlert(c) => write!(f, "peer sent alert {c}"),
            TlsError::LocalAlert(a, why) => write!(f, "local alert {} ({why})", a.code()),
            TlsError::Decode(what) => write!(f, "decode error: {what}"),
            TlsError::UnexpectedMessage(what) => write!(f, "unexpected message: {what}"),
            TlsError::BadFinished => write!(f, "Finished verification failed"),
        }
    }
}

impl std::error::Error for TlsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_codes_roundtrip() {
        for a in [
            Alert::HandshakeFailure,
            Alert::UnrecognizedName,
            Alert::NoApplicationProtocol,
            Alert::ProtocolVersion,
            Alert::IllegalParameter,
        ] {
            assert_eq!(Alert::from_code(a.code()), Some(a));
        }
        assert_eq!(Alert::from_code(1), None);
    }

    #[test]
    fn version_labels() {
        assert_eq!(TlsVersion::Tls13.wire(), 0x0304);
        assert_eq!(TlsVersion::Tls12.label(), "TLS 1.2");
    }
}
