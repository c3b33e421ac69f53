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

    /// What parsing a `len`-byte value may ask the allocator for. It splits
    /// into at most `len + 1` entries and as many parameters, each a
    /// `String` slot in a vector that requests at most four slots per
    /// element as it doubles; its bytes are copied into at most three
    /// strings (entry, parameter, then ALPN or host), each of which asks
    /// for at most four bytes per byte, or eight if shorter; and it keeps
    /// at most one [`AltService`] per six bytes (`a=":1"`).
    fn parse_bound(len: usize) -> usize {
        let strings = 2 * (len + 1);
        4 * strings * std::mem::size_of::<String>()
            + 3 * (4 * len + 8 * strings)
            + 4 * (len / 6 + 1) * std::mem::size_of::<AltService>()
    }

    proptest::proptest! {
        /// Arbitrary text, and a valid header value with one character
        /// overwritten, its tail cut, or garbage spliced in: parsing
        /// returns a list (possibly empty) and asks for at most
        /// [`parse_bound`] bytes.
        #[test]
        fn hostile_values_stay_bounded(
            garbage in "[ -~]{0,300}",
            entries in proptest::collection::vec(("[a-z0-9-]{1,8}", 0u16.., 0u64..1 << 40), 1..5),
            at in proptest::any::<usize>(),
            value in "[,;=\":% a-z0-9]",
        ) {
            let services: Vec<AltService> = entries
                .iter()
                .map(|(alpn, port, ma)| AltService {
                    alpn: alpn.clone(),
                    host: String::new(),
                    port: *port,
                    max_age: Some(*ma),
                })
                .collect();
            let valid = format_alt_svc(&services);
            let at = at % valid.len();
            let flipped = format!("{}{value}{}", &valid[..at], &valid[at + 1..]);
            let spliced = format!("{}{garbage}", &valid[..at]);
            for text in [&garbage, &valid, &flipped, &valid[..at].to_string(), &spliced] {
                let (_, requested) =
                    crate::request::tests::requested(|| parse_alt_svc(text));
                proptest::prop_assert!(
                    requested <= parse_bound(text.len()),
                    "{} bytes in, {requested} requested",
                    text.len()
                );
            }
        }
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
