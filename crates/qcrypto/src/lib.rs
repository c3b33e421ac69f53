//! Cryptographic primitives implemented from scratch for the QUIC/TLS stack.
//!
//! Nothing here is intended to be constant-time or side-channel hardened —
//! the scanner and the simulated servers are the only parties — but every
//! primitive is validated against the published NIST/RFC test vectors, and
//! the QUIC Initial packet protection built on top of them reproduces
//! RFC 9001 Appendix A bit-exactly (see the `quic` crate's tests).
//!
//! AES-GCM, which protects every QUIC packet and TLS record, has two
//! implementations behind the one [`aes::Aes`]/[`gcm::AesGcm`] API, picked
//! from what the CPU reports (probed once per process) — there is no feature
//! flag, environment variable or option to pick with:
//!
//! * `hw` (x86_64 with AES-NI + PCLMULQDQ + SSSE3): `aesenc`/`pclmulqdq`;
//! * `soft` (everything else): T-tables and a 4-bit Shoup table.
//!
//! SHA-256, under every HMAC, HKDF, transcript and certificate, picks its
//! compression function the same way, behind the one [`sha256::Sha256`] API:
//!
//! * `hw` (x86_64 with SHA-NI + SSSE3 + SSE4.1): `sha256rnds2` with
//!   `sha256msg1`/`sha256msg2`;
//! * `soft` (everything else): the FIPS 180-4 rounds.
//!
//! `hw` happens to run in data-independent time; the crate still is not
//! constant-time, because `soft`, the shared AES key expansion, and the
//! X25519/Poly1305 arithmetic all branch on or index by secret data.
//!
//! The crate is `#![deny(unsafe_code)]`. The one exception is the private
//! `hw` module, which needs `unsafe` to call `#[target_feature]` functions
//! (AES-NI, PCLMULQDQ, SHA-NI) and for unaligned 16-byte loads and stores;
//! its header says why each is sound.
//!
//! Provided primitives:
//! * [`sha256`] — FIPS 180-4 SHA-256
//! * [`hmac`] — RFC 2104 HMAC-SHA256
//! * [`hkdf`] — RFC 5869 HKDF-SHA256 plus TLS 1.3 `HKDF-Expand-Label`, every
//!   expansion from one keyed [`hkdf::Prk`]
//! * [`aes`] — FIPS 197 AES-128/AES-256 block cipher (encrypt direction)
//! * [`gcm`] — NIST SP 800-38D AES-GCM AEAD
//! * [`chacha20`] / [`poly1305`] / ChaCha20-Poly1305 AEAD — RFC 8439
//! * [`x25519`] — RFC 7748 Curve25519 Diffie-Hellman
//! * [`aead`] — a cipher-agnostic AEAD facade used by TLS and QUIC

#![deny(unsafe_code)]

pub mod aead;
pub mod aes;
pub mod chacha20;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod poly1305;
#[cfg(test)]
mod reference;
pub mod sha256;
mod soft;
pub mod x25519;

/// Error returned when AEAD authentication fails on decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AuthError {}
