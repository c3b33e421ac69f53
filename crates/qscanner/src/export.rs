//! Machine-readable result export (the released QScanner writes CSV result
//! files; this mirrors that surface).

use crate::outcome::{QuicScanResult, ScanOutcome};

/// CSV header row.
pub const CSV_HEADER: &str = "addr,sni,outcome,error_code,version,tls_version,cipher,group,cert_subject,server,alpn,tp_config";

fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes one result as a CSV row.
pub fn csv_row(r: &QuicScanResult) -> String {
    let (outcome, code) = match &r.outcome {
        ScanOutcome::Success => ("success".to_string(), String::new()),
        ScanOutcome::NoReply => ("no_reply".to_string(), String::new()),
        ScanOutcome::Stalled => ("stalled".to_string(), String::new()),
        ScanOutcome::Unreachable => ("unreachable".to_string(), String::new()),
        ScanOutcome::RateLimited => ("rate_limited".to_string(), String::new()),
        ScanOutcome::TransportClose { code, .. } => ("close".to_string(), format!("0x{code:x}")),
        ScanOutcome::VersionMismatch => ("version_mismatch".to_string(), String::new()),
        ScanOutcome::Other(e) => (format!("other:{e}"), String::new()),
    };
    let tls = r.tls.as_ref();
    let cols = [
        r.addr.to_string(),
        r.sni.clone().unwrap_or_default(),
        outcome,
        code,
        r.version.map(|v| v.label()).unwrap_or_default(),
        tls.map(|t| t.tls_version.label().to_string())
            .unwrap_or_default(),
        tls.map(|t| t.cipher.name().to_string()).unwrap_or_default(),
        tls.map(|t| t.group.name().to_string()).unwrap_or_default(),
        tls.and_then(|t| t.certificates.first())
            .map(|c| c.subject.clone())
            .unwrap_or_default(),
        r.server_header().unwrap_or_default().to_string(),
        tls.and_then(|t| t.alpn.as_ref())
            .map(|a| String::from_utf8_lossy(a).into_owned())
            .unwrap_or_default(),
        r.tp_config_key().unwrap_or_default(),
    ];
    cols.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
}

/// Writes a full result set to a CSV file.
pub fn write_csv(path: &std::path::Path, results: &[QuicScanResult]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{CSV_HEADER}")?;
    for r in results {
        writeln!(f, "{}", csv_row(r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::Ipv4Addr;
    use simnet::IpAddr;

    #[test]
    fn rows_serialize_every_outcome() {
        let base = QuicScanResult {
            addr: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            sni: Some("a,b.example".into()),
            outcome: ScanOutcome::Success,
            version: Some(quic::Version::DRAFT_29),
            tls: None,
            transport_params: None,
            http: None,
        };
        let row = csv_row(&base);
        assert!(row.starts_with("10.0.0.1,\"a,b.example\",success"));
        assert!(row.contains("draft-29"));

        let close = QuicScanResult {
            outcome: ScanOutcome::TransportClose {
                code: 0x128,
                reason: "x".into(),
            },
            ..base.clone()
        };
        assert!(csv_row(&close).contains("close,0x128"));

        let mismatch = QuicScanResult {
            outcome: ScanOutcome::VersionMismatch,
            ..base.clone()
        };
        assert!(csv_row(&mismatch).contains("version_mismatch"));

        for (outcome, label) in [
            (ScanOutcome::NoReply, "no_reply"),
            (ScanOutcome::Stalled, "stalled"),
            (ScanOutcome::Unreachable, "unreachable"),
            (ScanOutcome::RateLimited, "rate_limited"),
        ] {
            let r = QuicScanResult {
                outcome,
                ..base.clone()
            };
            assert!(csv_row(&r).contains(label), "{label}");
        }
    }
}
