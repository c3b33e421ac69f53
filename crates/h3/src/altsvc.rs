//! The HTTP `Alt-Svc` header grammar (RFC 7838 §3) — one of the paper's
//! three QUIC discovery channels (§2.2, §3.3).

/// One alternative service endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AltService {
    /// ALPN protocol id (percent-decoded), e.g. `h3-29` or `quic`.
    pub alpn: String,
    /// Alternative host ("" = same host).
    pub host: String,
    /// Alternative port.
    pub port: u16,
    /// `ma` (max-age) seconds, if present.
    pub max_age: Option<u64>,
}

/// Parses an `Alt-Svc` header value. Returns an empty list for `clear`.
pub fn parse_alt_svc(value: &str) -> Vec<AltService> {
    let value = value.trim();
    if value.eq_ignore_ascii_case("clear") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for entry in split_outside_quotes(value, ',') {
        let mut alpn = None;
        let mut host = String::new();
        let mut port = None;
        let mut max_age = None;
        for (i, param) in split_outside_quotes(&entry, ';').into_iter().enumerate() {
            let param = param.trim();
            let Some((key, raw)) = param.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let raw = raw.trim().trim_matches('"');
            if i == 0 {
                // protocol-id = authority
                let authority = raw;
                let (h, p) = match authority.rsplit_once(':') {
                    Some((h, p)) => (h.to_string(), p.parse::<u16>().ok()),
                    None => (authority.to_string(), None),
                };
                alpn = Some(percent_decode(key));
                host = h;
                port = p;
            } else if key.eq_ignore_ascii_case("ma") {
                max_age = raw.parse().ok();
            }
        }
        if let (Some(alpn), Some(port)) = (alpn, port) {
            out.push(AltService {
                alpn,
                host,
                port,
                max_age,
            });
        }
    }
    out
}

/// Serializes alternative services to a header value.
pub fn format_alt_svc(services: &[AltService]) -> String {
    services
        .iter()
        .map(|s| {
            let mut entry = format!("{}=\"{}:{}\"", percent_encode(&s.alpn), s.host, s.port);
            if let Some(ma) = s.max_age {
                entry.push_str(&format!("; ma={ma}"));
            }
            entry
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn split_outside_quotes(s: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            c if c == sep && !in_quotes => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current = String::new();
            }
            c => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(v as char);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

fn percent_encode(s: &str) -> String {
    // ALPN tokens only need '=' and ',' escaped in practice.
    s.replace('%', "%25")
        .replace('=', "%3D")
        .replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cloudflare_style() {
        let services = parse_alt_svc(
            "h3-27=\":443\"; ma=86400, h3-28=\":443\"; ma=86400, h3-29=\":443\"; ma=86400",
        );
        assert_eq!(services.len(), 3);
        assert_eq!(services[0].alpn, "h3-27");
        assert_eq!(services[0].port, 443);
        assert_eq!(services[0].host, "");
        assert_eq!(services[0].max_age, Some(86400));
    }

    #[test]
    fn parse_google_style_with_quic() {
        let services = parse_alt_svc(
            "h3-29=\":443\"; ma=2592000, h3-T051=\":443\"; ma=2592000, \
             h3-Q050=\":443\"; ma=2592000, quic=\":443\"; ma=2592000; v=\"46,43\"",
        );
        let alpns: Vec<&str> = services.iter().map(|s| s.alpn.as_str()).collect();
        assert_eq!(alpns, vec!["h3-29", "h3-T051", "h3-Q050", "quic"]);
    }

    #[test]
    fn parse_alternative_host() {
        let services = parse_alt_svc("h3=\"alt.example.com:8443\"");
        assert_eq!(services[0].host, "alt.example.com");
        assert_eq!(services[0].port, 8443);
        assert_eq!(services[0].max_age, None);
    }

    #[test]
    fn clear_empties() {
        assert!(parse_alt_svc("clear").is_empty());
    }

    #[test]
    fn roundtrip() {
        let services = vec![
            AltService {
                alpn: "h3-29".into(),
                host: "".into(),
                port: 443,
                max_age: Some(3600),
            },
            AltService {
                alpn: "quic".into(),
                host: "".into(),
                port: 443,
                max_age: None,
            },
        ];
        assert_eq!(parse_alt_svc(&format_alt_svc(&services)), services);
    }

    #[test]
    fn garbage_tolerated() {
        assert!(parse_alt_svc("").is_empty());
        assert!(parse_alt_svc(";;;===").is_empty());
        assert!(parse_alt_svc("h3").is_empty());
    }
}

#[cfg(test)]
mod paper_values_tests {
    use super::*;

    /// The exact header shapes the universe serves must parse to the ALPN
    /// sets Figure 7 groups by.
    #[test]
    fn figure7_set_extraction() {
        let google_new = "h3-27=\":443\"; ma=2592000, h3-29=\":443\"; ma=2592000, \
                          h3-34=\":443\"; ma=2592000, h3-Q043=\":443\"; ma=2592000, \
                          h3-Q046=\":443\"; ma=2592000, h3-Q050=\":443\"; ma=2592000, \
                          quic=\":443\"; ma=2592000; v=\"46,43\"";
        let mut alpns: Vec<String> = parse_alt_svc(google_new)
            .into_iter()
            .map(|s| s.alpn)
            .collect();
        alpns.sort();
        assert_eq!(
            alpns,
            vec!["h3-27", "h3-29", "h3-34", "h3-Q043", "h3-Q046", "h3-Q050", "quic"]
        );
    }

    #[test]
    fn v_parameter_does_not_confuse_parsing() {
        let entries = parse_alt_svc("quic=\":443\"; ma=2592000; v=\"44,43,39\"");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].alpn, "quic");
        assert_eq!(entries[0].max_age, Some(2_592_000));
    }
}
