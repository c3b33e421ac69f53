//! Scan targets, outcome taxonomy, and per-target result records.

use h3::request::Response;
use qtls::client::PeerTlsInfo;
use quic::tparams::TransportParameters;
use quic::version::Version;
use simnet::IpAddr;

/// One stateful scan target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuicTarget {
    /// Target address.
    pub addr: IpAddr,
    /// Target UDP port. 443 for address scans; Alt-Svc discovery can
    /// advertise any port, so nothing downstream may assume 443.
    pub port: u16,
    /// SNI to use (None = the no-SNI scan).
    pub sni: Option<String>,
}

impl QuicTarget {
    /// A target on the default HTTPS port 443.
    pub fn new(addr: IpAddr, sni: Option<String>) -> Self {
        QuicTarget {
            addr,
            port: 443,
            sni,
        }
    }

    /// A target on an explicit port (e.g. from an Alt-Svc advertisement).
    pub fn with_port(addr: IpAddr, port: u16, sni: Option<String>) -> Self {
        QuicTarget { addr, port, sni }
    }

    /// Stable display label used in trace events: `addr:port`, plus `#sni`
    /// for SNI scans.
    pub fn trace_label(&self) -> String {
        match &self.sni {
            Some(sni) => format!("{}:{}#{}", self.addr, self.port, sni),
            None => format!("{}:{}", self.addr, self.port),
        }
    }
}

/// Scan outcome classification — the Table 3 rows, with the paper's single
/// "timeout" row split into the failure modes a lossy scan must tell apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Handshake (and optional HTTP request) completed.
    Success,
    /// Total silence: not one datagram came back across all attempts.
    NoReply,
    /// The peer replied but the handshake never reached a verdict.
    Stalled,
    /// ICMP destination unreachable.
    Unreachable,
    /// The peer's rate limiter signalled pushback and nothing concluded.
    RateLimited,
    /// CONNECTION_CLOSE with a transport/crypto error code.
    TransportClose {
        /// The error code (0x128 = generic crypto alert 40).
        code: u64,
        /// The implementation-specific reason phrase.
        reason: String,
    },
    /// No mutually supported version.
    VersionMismatch,
    /// Everything else (TLS failure on our side, protocol errors).
    Other(String),
}

impl ScanOutcome {
    /// True for the crypto error 0x128 the paper highlights.
    pub fn is_crypto_0x128(&self) -> bool {
        matches!(self, ScanOutcome::TransportClose { code: 0x128, .. })
    }

    /// True for every failure mode the paper's coarse tables count in their
    /// single "timeout" row. Keeping all four fine-grained modes in one
    /// coarse bucket is what makes the paper-facing aggregates invariant
    /// under calibrated loss.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ScanOutcome::NoReply
                | ScanOutcome::Stalled
                | ScanOutcome::Unreachable
                | ScanOutcome::RateLimited
        )
    }

    /// Coarse family name — stable, suitable as a metric key.
    pub fn family(&self) -> &'static str {
        match self {
            ScanOutcome::Success => "success",
            ScanOutcome::NoReply => "no_reply",
            ScanOutcome::Stalled => "stalled",
            ScanOutcome::Unreachable => "unreachable",
            ScanOutcome::RateLimited => "rate_limited",
            ScanOutcome::TransportClose { .. } => "close",
            ScanOutcome::VersionMismatch => "version_mismatch",
            ScanOutcome::Other(_) => "other",
        }
    }

    /// Full label used in `outcome_decided` trace events: the family plus
    /// enough detail (`close:0x128`, `other:<err>`) for
    /// `analysis::telemetry_audit` to rebuild a `FailureBreakdown` from a
    /// trace alone.
    pub fn label(&self) -> String {
        match self {
            ScanOutcome::TransportClose { code, .. } => format!("close:0x{code:x}"),
            ScanOutcome::Other(e) => format!("other:{e}"),
            other => other.family().to_string(),
        }
    }
}

/// Everything recorded about one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuicScanResult {
    /// Target address.
    pub addr: IpAddr,
    /// SNI used.
    pub sni: Option<String>,
    /// Outcome classification.
    pub outcome: ScanOutcome,
    /// Negotiated QUIC version (on success).
    pub version: Option<Version>,
    /// Peer TLS properties (on success).
    pub tls: Option<PeerTlsInfo>,
    /// Peer transport parameters (on success).
    pub transport_params: Option<TransportParameters>,
    /// HTTP/3 HEAD response (on success when HTTP is enabled).
    pub http: Option<Response>,
}

impl QuicScanResult {
    /// Shortcut: the HTTP `Server` header.
    pub fn server_header(&self) -> Option<&str> {
        self.http.as_ref().and_then(|r| r.header("server"))
    }

    /// Shortcut: the transport-parameter configuration key (Fig. 9).
    pub fn tp_config_key(&self) -> Option<String> {
        self.transport_params.as_ref().map(|tp| tp.config_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_every_family() {
        let cases = [
            (ScanOutcome::Success, "success"),
            (ScanOutcome::NoReply, "no_reply"),
            (ScanOutcome::Stalled, "stalled"),
            (ScanOutcome::Unreachable, "unreachable"),
            (ScanOutcome::RateLimited, "rate_limited"),
            (
                ScanOutcome::TransportClose {
                    code: 0x128,
                    reason: "x".into(),
                },
                "close:0x128",
            ),
            (ScanOutcome::VersionMismatch, "version_mismatch"),
            (ScanOutcome::Other("tls: bad".into()), "other:tls: bad"),
        ];
        for (outcome, label) in cases {
            assert_eq!(outcome.label(), label);
            assert!(label.starts_with(outcome.family()));
        }
    }

    #[test]
    fn trace_labels_identify_targets() {
        use simnet::addr::Ipv4Addr;
        let addr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(QuicTarget::new(addr, None).trace_label(), "10.0.0.1:443");
        assert_eq!(
            QuicTarget::with_port(addr, 8443, Some("a.example".into())).trace_label(),
            "10.0.0.1:8443#a.example"
        );
    }
}
