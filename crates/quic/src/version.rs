//! QUIC version numbers: IETF drafts, QUIC v1, Google QUIC, and Facebook's
//! mvfst — the full zoo the paper observes in version negotiation (Fig. 5/6).

/// A 32-bit QUIC version as it appears on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Version(pub u32);

impl Version {
    /// QUIC v1 (RFC 9000). The paper labels it `ietf-01` ("Version 1").
    pub const V1: Version = Version(0x0000_0001);
    /// draft-27.
    pub const DRAFT_27: Version = Version(0xff00_001b);
    /// draft-28.
    pub const DRAFT_28: Version = Version(0xff00_001c);
    /// draft-29 — "the final draft supposed to be deployed".
    pub const DRAFT_29: Version = Version(0xff00_001d);
    /// draft-32.
    pub const DRAFT_32: Version = Version(0xff00_0020);
    /// draft-34 — textually identical to RFC 9000, labeled "do not deploy".
    pub const DRAFT_34: Version = Version(0xff00_0022);
    /// Google QUIC Q039.
    pub const Q039: Version = Version(0x5130_3339);
    /// Google QUIC Q043.
    pub const Q043: Version = Version(0x5130_3433);
    /// Google QUIC Q046.
    pub const Q046: Version = Version(0x5130_3436);
    /// Google QUIC Q048.
    pub const Q048: Version = Version(0x5130_3438);
    /// Google QUIC Q050.
    pub const Q050: Version = Version(0x5130_3530);
    /// Google QUIC Q099 (experimental).
    pub const Q099: Version = Version(0x5130_3939);
    /// Google QUIC-with-TLS T048.
    pub const T048: Version = Version(0x5430_3438);
    /// Google QUIC-with-TLS T051.
    pub const T051: Version = Version(0x5430_3531);
    /// Facebook mvfst draft-22 lineage ("mvfst-1").
    pub const MVFST_1: Version = Version(0xface_b001);
    /// Facebook mvfst draft-27 lineage ("mvfst-2").
    pub const MVFST_2: Version = Version(0xface_b002);
    /// Facebook mvfst experimental ("mvfst-e").
    pub const MVFST_E: Version = Version(0xface_b00e);

    /// A reserved version matching `0x?a?a?a?a` (RFC 9000 §6.3); offering it
    /// forces a Version Negotiation — exactly what the ZMap module sends.
    pub const FORCE_NEGOTIATION: Version = Version(0x1a2a_3a4a);

    /// True for the reserved `0x?a?a?a?a` pattern.
    pub fn is_reserved_negotiation(self) -> bool {
        self.0 & 0x0f0f_0f0f == 0x0a0a_0a0a
    }

    /// True for Google QUIC versions (`Q###` / `T###`).
    pub fn is_google(self) -> bool {
        let tag = self.0 >> 24;
        tag == 0x51 || tag == 0x54
    }

    /// True for Facebook mvfst versions.
    pub fn is_mvfst(self) -> bool {
        self.0 >> 12 == 0x000f_aceb
    }

    /// True for IETF versions (drafts or v1).
    pub fn is_ietf(self) -> bool {
        self.0 == 1 || self.0 >> 8 == 0x00ff_0000
    }

    /// True when this version is compatible with the stack's IETF
    /// implementation (the versions the QScanner supports; §3.4).
    pub fn qscanner_compatible(self) -> bool {
        matches!(
            self,
            Version::DRAFT_29 | Version::DRAFT_32 | Version::DRAFT_34 | Version::V1
        )
    }

    /// The label the paper uses in figures (e.g. `draft-29`, `Q050`,
    /// `ietf-01`, `mvfst-2`).
    pub fn label(self) -> String {
        match self {
            Version::V1 => "ietf-01".to_string(),
            Version::MVFST_1 => "mvfst-1".to_string(),
            Version::MVFST_2 => "mvfst-2".to_string(),
            Version::MVFST_E => "mvfst-e".to_string(),
            v if v.is_ietf() => format!("draft-{}", v.0 & 0xff),
            v if v.is_google() => {
                let b = v.0.to_be_bytes();
                b.iter().map(|&c| c as char).collect()
            }
            v => format!("0x{:08x}", v.0),
        }
    }

    /// Parses a paper-style label back into a version.
    pub fn from_label(label: &str) -> Option<Version> {
        match label {
            "ietf-01" => return Some(Version::V1),
            "mvfst-1" => return Some(Version::MVFST_1),
            "mvfst-2" => return Some(Version::MVFST_2),
            "mvfst-e" => return Some(Version::MVFST_E),
            _ => {}
        }
        if let Some(n) = label.strip_prefix("draft-") {
            let n: u32 = n.parse().ok()?;
            return Some(Version(0xff00_0000 | n));
        }
        if label.len() == 4 && (label.starts_with('Q') || label.starts_with('T')) {
            let mut v = 0u32;
            for c in label.chars() {
                v = (v << 8) | c as u32;
            }
            return Some(Version(v));
        }
        if let Some(hexpart) = label.strip_prefix("0x") {
            return u32::from_str_radix(hexpart, 16).ok().map(Version);
        }
        None
    }

    /// The HTTP/3 ALPN token advertised for this version (RFC 9114 / drafts),
    /// e.g. `h3-29` for draft-29 and `h3` for v1. Google QUIC versions map to
    /// their Alt-Svc tokens (`h3-Q050`).
    pub fn alpn(self) -> String {
        match self {
            Version::V1 => "h3".to_string(),
            v if v.is_ietf() => format!("h3-{}", v.0 & 0xff),
            v if v.is_google() => format!("h3-{}", v.label()),
            v => format!("h3-{:x}", v.0),
        }
    }
}

impl core::fmt::Display for Version {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Renders a set of versions the way the paper's figure legends do:
/// comma-free, space-separated, in the given order.
pub fn set_label(versions: &[Version]) -> String {
    versions
        .iter()
        .map(|v| v.label())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_values() {
        assert_eq!(Version::DRAFT_29.0, 0xff00001d);
        assert_eq!(Version::Q043.0, u32::from_be_bytes(*b"Q043"));
        assert_eq!(Version::T051.0, u32::from_be_bytes(*b"T051"));
    }

    #[test]
    fn classification() {
        assert!(Version::V1.is_ietf());
        assert!(Version::DRAFT_34.is_ietf());
        assert!(!Version::Q050.is_ietf());
        assert!(Version::Q050.is_google());
        assert!(Version::T048.is_google());
        assert!(Version::MVFST_2.is_mvfst());
        assert!(Version::FORCE_NEGOTIATION.is_reserved_negotiation());
        assert!(Version(0x9a7a5a1a).is_reserved_negotiation());
        assert!(!Version::V1.is_reserved_negotiation());
    }

    #[test]
    fn labels_roundtrip() {
        for v in [
            Version::V1,
            Version::DRAFT_27,
            Version::DRAFT_29,
            Version::DRAFT_34,
            Version::Q043,
            Version::Q050,
            Version::T051,
            Version::MVFST_1,
            Version::MVFST_E,
        ] {
            assert_eq!(Version::from_label(&v.label()), Some(v), "{}", v.label());
        }
        assert_eq!(Version::DRAFT_29.label(), "draft-29");
        assert_eq!(Version::Q050.label(), "Q050");
        assert_eq!(Version::V1.label(), "ietf-01");
    }

    #[test]
    fn alpn_tokens() {
        assert_eq!(Version::V1.alpn(), "h3");
        assert_eq!(Version::DRAFT_29.alpn(), "h3-29");
        assert_eq!(Version::DRAFT_27.alpn(), "h3-27");
        assert_eq!(Version::Q050.alpn(), "h3-Q050");
    }

    #[test]
    fn qscanner_compatibility() {
        assert!(Version::DRAFT_29.qscanner_compatible());
        assert!(Version::DRAFT_32.qscanner_compatible());
        assert!(Version::DRAFT_34.qscanner_compatible());
        assert!(Version::V1.qscanner_compatible());
        assert!(!Version::DRAFT_27.qscanner_compatible());
        assert!(!Version::Q050.qscanner_compatible());
    }

    #[test]
    fn set_labels_match_paper_style() {
        assert_eq!(
            set_label(&[Version::DRAFT_29, Version::DRAFT_28, Version::DRAFT_27]),
            "draft-29 draft-28 draft-27"
        );
    }
}

#[cfg(test)]
mod grease_tests {
    use super::*;

    /// Every `0x?a?a?a?a` pattern is recognized regardless of the arbitrary
    /// high nibbles (RFC 9000 §15).
    #[test]
    fn all_grease_patterns() {
        for n in 0u32..16 {
            let v = Version(
                (n << 28) | ((n & 0xf) << 20) | ((n & 0xf) << 12) | ((n & 0xf) << 4) | 0x0a0a_0a0a,
            );
            assert!(v.is_reserved_negotiation(), "{:#010x}", v.0);
        }
        assert!(!Version::V1.is_reserved_negotiation());
        assert!(!Version::DRAFT_29.is_reserved_negotiation());
        assert!(!Version::Q050.is_reserved_negotiation());
    }
}
