//! Cryptographic primitives implemented from scratch for the QUIC/TLS stack.
//!
//! Nothing here is intended to be constant-time or side-channel hardened —
//! the scanner and the simulated servers are the only parties — but every
//! primitive is validated against the published NIST/RFC test vectors, and
//! the QUIC Initial packet protection built on top of them reproduces
//! RFC 9001 Appendix A bit-exactly (see the `quic` crate's tests).
//!
//! AES-GCM, which protects every QUIC packet and TLS record, has three
//! implementations behind the one [`aes::Aes`]/[`gcm::AesGcm`] API, the
//! widest the CPU reports picked (probed once per process) — there is no
//! feature flag, environment variable or option to pick with:
//!
//! * `vaes512` (x86_64 with `hw`'s features + AVX-512F + AVX-512BW + VAES +
//!   VPCLMULQDQ): CTR and GHASH four blocks per 512-bit instruction;
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
//! X25519 (every handshake's key share and DH) runs its Montgomery ladder
//! and its fixed-base comb the same way, behind the one
//! [`x25519::x25519`]/[`x25519::public_key`] API:
//!
//! * `ifma` (x86_64 with AVX-512F + AVX-512VL + AVX-512 IFMA): four field
//!   elements per register, `vpmadd52luq`/`vpmadd52huq` on 256-bit lanes;
//! * `portable` (everything else): 5×51-bit limbs with `u128` products,
//!   also the definition `ifma` is tested against.
//!
//! Both end on the same portable inversion and encoding, so every output is
//! the same bytes on either. [`backends`] names the three choices in one
//! line, which `repro` prints to stderr when it starts.
//!
//! `vaes512`, `hw` and `ifma` happen to run without secret-dependent
//! branches or addresses; the crate still is not constant-time, because
//! `soft`, the shared AES key expansion, and the portable X25519 and
//! Poly1305 arithmetic all branch on or index by secret data or were never
//! audited.
//!
//! The crate is `#![deny(unsafe_code)]`. The one exception is the private
//! `hw` module, which needs `unsafe` to call `#[target_feature]` functions
//! (AES-NI, PCLMULQDQ, VAES, VPCLMULQDQ, SHA-NI, AVX-512 IFMA) and for
//! unaligned 16- and 64-byte loads and stores; its header says why each is
//! sound.
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

/// The backend each primitive that has more than one runs on in this
/// process, as one line: `aes-gcm=vaes512 sha-256=hw x25519=ifma` on a CPU
/// with AVX-512 VAES + VPCLMULQDQ, SHA-NI and AVX-512 IFMA; `aes-gcm=hw`
/// with AES-NI + PCLMULQDQ only; `soft`, `soft` and `portable` where it
/// lacks them.
pub fn backends() -> String {
    let sha = if sha256::Backend::detect() == sha256::Backend::Soft {
        "soft"
    } else {
        "hw"
    };
    format!(
        "aes-gcm={} sha-256={sha} x25519={}",
        aes::Backend::detect().name(),
        x25519::Backend::detect().name(),
    )
}

/// Error returned when AEAD authentication fails on decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AuthError {}

#[cfg(test)]
mod tests {
    use crate::reference::{each_backend, each_sha256_backend, each_x25519_backend};

    /// `backends` follows the backends actually in use, pinned ones
    /// included, and names each AES-GCM tier apart.
    #[test]
    fn backends_names_the_backend_in_use() {
        let mut aes_names = Vec::new();
        each_backend(|aes| {
            aes_names.push(aes.name());
            each_sha256_backend(|sha| {
                each_x25519_backend(|x| {
                    let line = super::backends();
                    let sha = if sha == crate::sha256::Backend::Soft {
                        "soft"
                    } else {
                        "hw"
                    };
                    assert_eq!(
                        line,
                        format!("aes-gcm={} sha-256={sha} x25519={}", aes.name(), x.name())
                    );
                });
            });
        });
        let mut want = vec!["soft"];
        want.extend(crate::aes::Backend::hw().map(|_| "hw"));
        want.extend(crate::aes::Backend::vaes512().map(|_| "vaes512"));
        assert_eq!(aes_names, want);
    }
}
