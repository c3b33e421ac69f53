//! Simplified certificates for the simulated PKI.
//!
//! The paper's scanners *collect* certificates and compare them between QUIC
//! and TLS-over-TCP (Table 5); they do not need WebPKI validation. We
//! therefore replace X.509/ASN.1 with a compact TLV structure and replace
//! ECDSA/RSA with `SimSig`: `HMAC-SHA256(issuer_key, tbs_bytes)`. Identity
//! comparison, SNI-driven selection (wildcards included), self-signed
//! artifacts (Google's no-SNI behaviour) and weekly rotation all survive
//! this substitution.

use qcodec::{CodecError, Reader, Result, Writer};
use qcrypto::hmac::hmac_sha256;
use qcrypto::sha256;

/// A leaf certificate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// Serial number (changes on rotation).
    pub serial: u64,
    /// Subject common name.
    pub subject: String,
    /// Subject alternative names; entries may be wildcards (`*.example.com`).
    pub san: Vec<String>,
    /// Issuer common name (equal to `subject` for self-signed).
    pub issuer: String,
    /// Validity start, in simulation calendar weeks.
    pub not_before_week: u32,
    /// Validity end (exclusive), in simulation calendar weeks.
    pub not_after_week: u32,
    /// Subject public key (an X25519 point in this simulation).
    pub public_key: [u8; 32],
    /// SimSig signature by the issuer.
    pub signature: [u8; 32],
}

impl Certificate {
    fn tbs_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.serial);
        w.put_vec8(self.subject.as_bytes());
        w.put_u8(self.san.len() as u8);
        for name in &self.san {
            w.put_vec8(name.as_bytes());
        }
        w.put_vec8(self.issuer.as_bytes());
        w.put_u32(self.not_before_week);
        w.put_u32(self.not_after_week);
        w.put_bytes(&self.public_key);
        w.into_vec()
    }

    /// Serializes the certificate (TBS + signature).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.tbs_bytes();
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses a serialized certificate.
    pub fn decode(bytes: &[u8]) -> Result<Certificate> {
        let mut r = Reader::new(bytes);
        let serial = r.read_u64()?;
        let subject = utf8(r.read_vec8()?)?;
        // Grown name by name: the count is the peer's claim, not the bytes
        // present.
        let san_count = r.read_u8()?;
        let mut san = Vec::new();
        for _ in 0..san_count {
            san.push(utf8(r.read_vec8()?)?);
        }
        let issuer = utf8(r.read_vec8()?)?;
        let not_before_week = r.read_u32()?;
        let not_after_week = r.read_u32()?;
        let public_key: [u8; 32] = r.read_bytes(32)?.try_into().expect("fixed-length read");
        let signature: [u8; 32] = r.read_bytes(32)?.try_into().expect("fixed-length read");
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes after certificate"));
        }
        Ok(Certificate {
            serial,
            subject,
            san,
            issuer,
            not_before_week,
            not_after_week,
            public_key,
            signature,
        })
    }

    /// A short stable fingerprint (first 8 bytes of SHA-256 of the encoding),
    /// used by the analysis to compare certificates across scans.
    pub fn fingerprint(&self) -> u64 {
        let d = sha256::digest(&self.encode());
        u64::from_be_bytes(d[..8].try_into().unwrap())
    }

    /// True when the certificate covers `name` via CN or SAN, honoring
    /// single-label wildcards.
    pub fn matches_name(&self, name: &str) -> bool {
        std::iter::once(self.subject.as_str())
            .chain(self.san.iter().map(|s| s.as_str()))
            .any(|pattern| name_matches(pattern, name))
    }

    /// True when `week` falls inside the validity window.
    pub fn valid_in_week(&self, week: u32) -> bool {
        (self.not_before_week..self.not_after_week).contains(&week)
    }

    /// True when issuer == subject.
    pub fn is_self_signed(&self) -> bool {
        self.issuer == self.subject
    }
}

fn utf8(b: &[u8]) -> Result<String> {
    String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 name"))
}

/// Single-label wildcard matching per RFC 6125 §6.4.3 (leftmost label only).
fn name_matches(pattern: &str, name: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match name.split_once('.') {
            Some((first_label, rest)) => !first_label.is_empty() && rest == suffix,
            None => false,
        }
    } else {
        pattern.eq_ignore_ascii_case(name)
    }
}

/// A simulated certificate authority.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// CA display name, becomes the issuer field.
    pub name: String,
    key: [u8; 32],
}

impl CertificateAuthority {
    /// Creates a CA whose signing key is derived from the name and a seed.
    pub fn new(name: &str, seed: u64) -> Self {
        let mut material = name.as_bytes().to_vec();
        material.extend_from_slice(&seed.to_be_bytes());
        CertificateAuthority {
            name: name.to_string(),
            key: sha256::digest(&material),
        }
    }

    /// Issues a signed certificate.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        &self,
        serial: u64,
        subject: &str,
        san: Vec<String>,
        not_before_week: u32,
        not_after_week: u32,
        public_key: [u8; 32],
    ) -> Certificate {
        let mut cert = Certificate {
            serial,
            subject: subject.to_string(),
            san,
            issuer: self.name.clone(),
            not_before_week,
            not_after_week,
            public_key,
            signature: [0; 32],
        };
        cert.signature = hmac_sha256(&self.key, &cert.tbs_bytes());
        cert
    }

    /// Verifies a SimSig signature made by this CA.
    pub fn verify(&self, cert: &Certificate) -> bool {
        cert.issuer == self.name && hmac_sha256(&self.key, &cert.tbs_bytes()) == cert.signature
    }
}

/// Issues a self-signed certificate (used e.g. to model Google's
/// "missing SNI" error certificate on TLS-over-TCP).
pub fn self_signed(serial: u64, subject: &str, week: u32, public_key: [u8; 32]) -> Certificate {
    let mut cert = Certificate {
        serial,
        subject: subject.to_string(),
        san: vec![subject.to_string()],
        issuer: subject.to_string(),
        not_before_week: week,
        not_after_week: week + 52,
        public_key,
        signature: [0; 32],
    };
    cert.signature = hmac_sha256(&public_key, &cert.tbs_bytes());
    cert
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new("Sim Root CA", 9000)
    }

    #[test]
    fn issue_verify_roundtrip() {
        let ca = ca();
        let cert = ca.issue(
            7,
            "example.com",
            vec!["*.example.com".into()],
            5,
            20,
            [3; 32],
        );
        assert!(ca.verify(&cert));
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
        assert_eq!(decoded.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn tampering_breaks_verification() {
        let ca = ca();
        let mut cert = ca.issue(7, "example.com", vec![], 5, 20, [3; 32]);
        cert.subject = "evil.com".into();
        assert!(!ca.verify(&cert));
    }

    #[test]
    fn wildcard_matching() {
        let ca = ca();
        let cert = ca.issue(
            1,
            "example.com",
            vec!["*.example.com".into()],
            0,
            9,
            [0; 32],
        );
        assert!(cert.matches_name("example.com"));
        assert!(cert.matches_name("www.example.com"));
        assert!(!cert.matches_name("a.b.example.com")); // single label only
        assert!(!cert.matches_name("example.org"));
        assert!(!cert.matches_name(".example.com"));
    }

    #[test]
    fn validity_window() {
        let ca = ca();
        let cert = ca.issue(1, "x", vec![], 10, 12, [0; 32]);
        assert!(!cert.valid_in_week(9));
        assert!(cert.valid_in_week(10));
        assert!(cert.valid_in_week(11));
        assert!(!cert.valid_in_week(12));
    }

    #[test]
    fn self_signed_detection() {
        let ss = self_signed(1, "invalid2.invalid", 5, [1; 32]);
        assert!(ss.is_self_signed());
        let ca = ca();
        let cert = ca.issue(1, "x", vec![], 0, 1, [0; 32]);
        assert!(!cert.is_self_signed());
    }

    #[test]
    fn rotation_changes_fingerprint() {
        let ca = ca();
        let a = ca.issue(1, "x.com", vec![], 0, 2, [0; 32]);
        let b = ca.issue(2, "x.com", vec![], 1, 3, [0; 32]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}

#[cfg(test)]
mod decode_robustness {
    use super::*;

    #[test]
    fn truncations_error_not_panic() {
        let ca = CertificateAuthority::new("CA", 5);
        let cert = ca.issue(9, "t.example", vec!["*.t.example".into()], 1, 9, [3; 32]);
        let full = cert.encode();
        for cut in 0..full.len() {
            let _ = Certificate::decode(&full[..cut]);
        }
        assert!(Certificate::decode(&full).is_ok());
        // Trailing garbage rejected.
        let mut long = full.clone();
        long.push(0);
        assert!(Certificate::decode(&long).is_err());
    }

    #[test]
    fn different_cas_do_not_cross_verify() {
        let ca1 = CertificateAuthority::new("CA One", 5);
        let ca2 = CertificateAuthority::new("CA One", 6); // same name, other key
        let cert = ca1.issue(9, "t.example", vec![], 1, 9, [3; 32]);
        assert!(ca1.verify(&cert));
        assert!(!ca2.verify(&cert));
    }
}
